"""Benchmark child process: imports elemhyp from the checkout and runs calls.

    python3 perfbench/worker.py MODE WORKLOAD OPS_JSON OUT_JSON SECONDS

MODE is one of
  setup   import, warm up, print "ready", exit
  timed   then call the operations in order, one at a time, until the list
          ends (or, as a safety cap, SECONDS have passed), running the speed
          probe of calib.py every quarter second in between (its stamped
          times go to "probe", the start of every call to "starts")
  fixed   then call every operation once, no deadline
  traced  as fixed, with the boundary tracer installed after the warm-up

It prints "ready" once import and warm-up are done (the parent times this
as set-up), then reads OPS_JSON and writes OUT_JSON with one
``[status, value, latency_ns]`` triple per attempted operation.  Status is
"ok", or "typed:<Error>" for elemhyp's documented errors, or
"crash:<Error>" for anything else.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import elemhyp  # noqa: E402
from elemhyp import cli, heun, hypergeom, mkz, numcore  # noqa: E402

import calib  # noqa: E402
import workloads  # noqa: E402

if not os.path.abspath(elemhyp.__file__).startswith(SRC + os.sep):
    sys.exit(f"elemhyp imported from {elemhyp.__file__}, not from {SRC}")

TYPED = (numcore.DomainError, numcore.InvalidParams, numcore.NonFinite,
         numcore.NotConverged)


def run_cli(argv):
    """In-process cli.main; returns (exit code, parsed stdout or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def call(op):
    """One operation.  Names are looked up at call time so a tracer sees them."""
    kind, a = op
    if kind == "hyp2f1":
        m, n, p, x = a
        return hypergeom.hyp2f1_eval(hypergeom.HypergeomParams(m, float(n), p), x)
    if kind == "mkz":
        return mkz.mkz_moment(*a)
    if kind == "abel":
        return mkz.gmkz_moment_abel(*a)
    if kind == "e1":
        n, r, alpha, beta, x = a
        return mkz.gmkz_e1(mkz.GmkzParams(n, r, float(alpha), beta), x)
    if kind == "ln2":
        return mkz.ln_moment_e2(*a)
    if kind == "apply":
        n, r, alpha, beta, m, x = a
        return mkz.gmkz_apply(mkz.GmkzParams(n, r, alpha, beta), mkz.Monomial(m), x).value
    if kind == "heun":
        m, n, p, x, K = a
        return heun.heun_eval(heun.HeunFamilyParams(m, float(n), p), x, K).value
    if kind == "cli":
        code, doc = run_cli(a)
        if code:
            raise numcore.NotConverged(f"exit {code}") if code == 1 else \
                numcore.InvalidParams(f"exit {code}")
        return doc["value"]
    raise ValueError(f"unknown operation {kind!r}")


def attempt(op):
    t0 = time.perf_counter_ns()
    try:
        status, value = "ok", call(op)
    except TYPED as exc:
        status, value = "typed:" + type(exc).__name__, None
    except Exception as exc:  # a crash is recorded and the run goes on
        status, value = "crash:" + type(exc).__name__, None
    return [status, value, time.perf_counter_ns() - t0]


def main(argv):
    mode, workload, ops_path, out_path, seconds = argv
    for op in workloads.WARMUP[workload]:
        call(op)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    with open(ops_path) as fh:
        ops = json.load(fh)
    tracer = None
    if mode == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    sampler = calib.Sampler() if mode == "timed" else None
    results, starts = [], []
    start = time.perf_counter()
    deadline = start + float(seconds) if sampler else float("inf")
    try:
        for op in ops:
            if time.perf_counter() >= deadline:
                break
            if sampler:
                sampler.tick()
            starts.append(time.perf_counter())
            results.append(attempt(op))
    finally:
        if tracer is not None:
            tracer.restore()
    doc = {"results": results, "elapsed": time.perf_counter() - start}
    if sampler:
        doc["elapsed"] -= sampler.spent
        doc["probe"] = sampler.samples
        doc["starts"] = starts
    if tracer is not None:
        doc["summary"] = tracing.summarize(tracer.spans)
        doc["cache_hit_ratio"] = {label: tracer.cache_hit_ratio(label)
                                  for label in ("polylog._polylog_dd", "basis.fnj_combo")}
        tracing.write_spans(tracer.spans, out_path + ".spans.tsv")
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
