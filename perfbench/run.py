"""elemhyp benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; elemhyp is imported from its src/.
Inputs come from the seed (perfbench/workloads.py); mpmath reference values
for all of them are computed before anything is timed.  With --trace 0 the
run times a fixed number of calls, sized to last about S seconds (so the
same seed always attempts the same operations), checks every returned value
against the reference, and reports the end-to-end metrics.  With --trace 1
it replays a fixed prefix of the inputs three times (untraced, with the
boundary tracer, untraced again) and reports the per-layer metrics.  The last line of standard
output is one JSON object; the lines before it state each metric with its
unit and sample count.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from mpmath import mpf

import calib
import oracle
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 11         # set-up is reported as the median of this many
STARTUP_SAMPLES = 9        # interpreter / import probes in the traced run
VERIFY_RUNS = 3            # verify_all_s is the fastest of this many
CHILD_TIMEOUT_S = 150
CAP_S = 110                # safety cap on a timed loop far slower than sized
DIGITS_FLOOR = 1e-17       # rel errors below this all count as 17 digits


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program failure)."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_worker(mode, workload, ops_path, out_path, seconds=0.0):
    """Start a worker, wait for its "ready" line; returns (process, set-up s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, mode, workload, ops_path, out_path, str(seconds)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start ({mode}, {workload})")
    return proc, setup


def finish(proc):
    try:
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def run_worker(mode, workload, ops, tag, seconds=0.0):
    """Run ops in a fresh worker; returns (results document, set-up s)."""
    ops_path = os.path.join(OUT_DIR, f"{tag}.ops.json")
    out_path = os.path.join(OUT_DIR, f"{tag}.{mode}.json")
    with open(ops_path, "w") as fh:
        json.dump(ops, fh)
    try:
        proc, setup = spawn_worker(mode, workload, ops_path, out_path, seconds)
        finish(proc)
        with open(out_path) as fh:
            return json.load(fh), setup
    finally:
        for path in (ops_path, out_path):
            if os.path.exists(path):
                os.remove(path)


def setup_samples(workload, count):
    """count set-ups in fresh workers, each scaled to the reference speed by
    probes run just before and just after it."""
    out = []
    for _ in range(count):
        before = calib.around()
        proc, setup = spawn_worker("setup", workload, "-", "-")
        finish(proc)
        out.append(setup * calib.factor(before + calib.around()))
    return out


def timed_command(argv, env=None):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc.returncode


def rel_err(value, ref):
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return math.inf
    if ref == 0:
        return abs(float(value))
    return float(abs(mpf(value) - ref) / abs(ref))


def check(results, refs, tol):
    """Classify every attempted operation against its reference value."""
    c = {"raised": 0, "silent_wrong": 0, "crashed": 0, "digits": []}
    for (status, value, _), ref in zip(results, refs):
        if status != "ok":
            c["raised"] += 1
            c["crashed"] += status.startswith("crash")
            continue
        err = rel_err(value, ref)
        c["digits"].append(-math.log10(max(err, DIGITS_FLOOR)) if err < math.inf else -99.0)
        c["silent_wrong"] += err > tol
    return c


def percentile(sorted_vals, q):
    """Nearest-rank percentile q (0-100) of sorted values, and samples beyond it."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_vals)))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def end_to_end(workload, seed, seconds, lines):
    ops = workloads.generate(workload, seed, workloads.timed_count(workload, seconds))
    cap = min(CAP_S, 4 * seconds)
    t0 = time.perf_counter()
    refs = [oracle.value(op) for op in ops]       # before any timing
    lines.append(f"oracle: {len(refs)} reference values in {time.perf_counter() - t0:.2f} s (not timed)")
    tag = f"{workload}-{seed}-{os.getpid()}"
    # half the set-ups before the timed loop and half after, so that their
    # median does not come from one stretch of the machine's drifting speed
    setups = setup_samples(workload, SETUP_SAMPLES // 2)
    doc, _ = run_worker("timed", workload, ops, tag, cap)
    setups += setup_samples(workload, SETUP_SAMPLES - len(setups))
    results = doc["results"]
    n = len(results)
    if n == 0:
        raise BenchError("no operation completed")
    # every call's latency is scaled by the probes run around it
    ks = calib.local_factors(doc["probe"], [(start, r[2] / 1e9) for start, r in zip(doc["starts"], results)])
    raw_s = sum(r[2] for r in results) / 1e9
    lines.append(f"speed factors from {len(doc['probe'])} probes (reference {calib.REF_S} s per probe): "
                 f"median {statistics.median(ks):.4f}, range {min(ks):.4f}-{max(ks):.4f}; "
                 f"raw throughput_ops_s {n / raw_s:.6g}, "
                 f"raw latency_p50_ms {statistics.median(r[2] for r in results) / 1e6:.6g}")
    c = check(results, refs, workloads.REL_TOL)
    lat = sorted(r[2] / 1e6 * k for r, k in zip(results, ks))
    q = workloads.TAIL_PERCENTILE[workload]
    tail, beyond = percentile(lat, q)
    lines.append("latency percentiles at reference speed: " + ", ".join(
        f"p{p} {percentile(lat, p)[0]:.6g} ms" for p in (75, 90, 95, 98, 99)))
    failed = c["raised"] + c["silent_wrong"]
    digits = c["digits"]
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups (interpreter start, import, warm-up), at reference speed"),
        "throughput_ops_s": (n / (sum(lat) / 1e3), "ops/s",
                             f"{n} operations, {raw_s:.3f} s of calls raw, one caller, closed loop, at reference speed"),
        "latency_p50_ms": (statistics.median(lat), "ms", f"median of {n} samples, at reference speed"),
        "ok_share": ((n - failed) / n, "ratio",
                     f"fail_share = {failed}/{n} = {failed / n:.5f} "
                     f"({c['raised']} raised, {c['silent_wrong']} off the oracle by > {workloads.REL_TOL:g})"),
        "no_silent_wrong_share": ((n - c["silent_wrong"]) / n, "ratio",
                                  f"silent_wrong_share = {c['silent_wrong']}/{n} = {c['silent_wrong'] / n:.5f}"),
    }
    if beyond >= 10:
        metrics["latency_tail_ms"] = (tail, "ms", f"p{q} of {n} samples, {beyond} beyond it, at reference speed")
    else:
        lines.append(f"latency_tail_ms omitted: p{q} of {n} samples leaves {beyond} < 10 beyond it")
    if len(digits) >= 10:
        metrics["digits_p10"] = (statistics.quantiles(digits, n=10)[0], "digits",
                                 f"10th percentile over {len(digits)} returned values")
    else:
        lines.append(f"digits_p10 omitted: only {len(digits)} returned values")
    correct = c["crashed"] == 0
    return metrics, correct, n, failed


def _startup_probes():
    """Median wall ms of `python -c pass` and of `python -c "import elemhyp.cli"`.

    The two are interleaved so that drifts in machine speed hit both alike.
    """
    env = _child_env()
    walls = {"pass": [], "import elemhyp.cli": []}
    for _ in range(STARTUP_SAMPLES):
        for code, out in walls.items():
            out.append(timed_command([sys.executable, "-c", code], env=env)[0])
    return tuple(1e3 * statistics.median(v) for v in walls.values())


def _verify_suites():
    """Wall time of each verify suite, in one child process."""
    code = ("import json, time; from elemhyp import verify; out = {}\n"
            "for name in verify.SUITE_NAMES:\n"
            "    t = time.perf_counter(); getattr(verify, 'suite_' + name)()\n"
            "    out[name] = time.perf_counter() - t\n"
            "print(json.dumps(out))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        raise BenchError("verify suites failed to run")
    return json.loads(proc.stdout)


def per_layer(workload, seed, lines):
    ops = workloads.generate(workload, seed, workloads.TRACE_OPS[workload])
    refs = [oracle.value(op) for op in ops]
    tag = f"{workload}-{seed}-{os.getpid()}"
    # untraced, traced, untraced: the ratio compares the traced run with the
    # mean of the runs either side, which cancels a steady drift in speed
    plain, _ = run_worker("fixed", workload, ops, tag)
    traced, _ = run_worker("traced", workload, ops, tag)
    plain_after, _ = run_worker("fixed", workload, ops, tag)
    plain_s = (plain["elapsed"] + plain_after["elapsed"]) / 2
    os.replace(os.path.join(OUT_DIR, f"{tag}.traced.json.spans.tsv"),
               os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv"))
    s = traced["summary"]
    calls, self_s = s["calls"], s["self_s"]
    evals = calls.get("hypergeom.hyp2f1_eval", 0)
    attempts = calls.get("hypergeom._closed_route", 0)

    def pair(label, name=None):
        name = name or label
        return {f"{name}.calls": (calls.get(label, 0), "count"),
                f"{name}.self_s": (self_s.get(label, 0.0), "s")}

    m = {}
    # metric names must start with a letter, so the _dd module reports as dd
    m.update(pair("_dd.power_integral_dd", "dd.power_integral_dd"))
    m["dd.dd_exp.calls"] = (calls.get("_dd.dd_exp", 0) + calls.get("_dd.dd_expm1", 0), "count")
    m["dd.dd_exp.self_s"] = (self_s.get("_dd.dd_exp", 0.0) + self_s.get("_dd.dd_expm1", 0.0), "s")
    m.update(pair("_dd.dd_log", "dd.dd_log"))
    m.update(pair("hypergeom.hyp2f1_eval"))
    m["hypergeom.closed.attempts"] = (attempts, "count")
    m["hypergeom.closed.self_s"] = (self_s.get("hypergeom._closed_route", 0.0), "s")
    m["hypergeom.closed.accept_ratio"] = (s["closed_accepted"] / attempts if attempts else 0.0, "ratio")
    m.update(pair("hypergeom.hyp2f1_series", "hypergeom.series"))
    for route, count in s["routes"].items():
        m[f"hypergeom.route.{route}_share"] = (count / evals if evals else 0.0, "ratio")
    m.update(pair("numcore.sum_series"))
    m["numcore.sum_series.terms"] = (s["series_terms"], "count")
    m["numcore.sum_series.not_converged"] = (s["series_not_converged"], "count")
    m.update(pair("polylog._polylog_dd"))
    m["polylog._polylog_dd.cache_hit_ratio"] = (traced["cache_hit_ratio"]["polylog._polylog_dd"], "ratio")
    m.update(pair("polylog.polylog_derivative_series"))
    m.update(pair("basis.combo_eval"))
    m["basis.fnj_combo.cache_hit_ratio"] = (traced["cache_hit_ratio"]["basis.fnj_combo"], "ratio")
    m["basis.fnj_combo.self_s"] = (self_s.get("basis.fnj_combo", 0.0), "s")
    for fn in tracer.MOMENT_FUNCS:
        m.update(pair(f"mkz.{fn}"))
    m.update(pair("heun.heun_eval"))
    m["heun.leaves"] = (s["heun_leaves"], "count")
    m["heun.leaf_s"] = (s["heun_leaf_s"], "s")
    interp, imported = _startup_probes()
    m["cli.interp_ms"] = (interp, "ms")
    m["cli.import_ms"] = (imported - interp, "ms")
    argv = ["hyp2f1", "--m", "1", "--n", "2", "--p", "3", "--x", "0.5"]
    main_run, _ = run_worker("fixed", "cli", [["cli", argv]] * 20, tag + "-main")
    m["cli.main_ms"] = (statistics.median(r[2] for r in main_run["results"]) / 1e6, "ms")
    for name, secs in _verify_suites().items():
        m[f"verify.suite_{name}_s"] = (secs, "s")
    verify_runs = [timed_command([sys.executable, "-m", "elemhyp", "verify", "--suite", "all"],
                                 env=_child_env()) for _ in range(VERIFY_RUNS)]
    m["verify_all_s"] = (min(t for t, _ in verify_runs), "s")
    verify_ok = all(code == 0 for _, code in verify_runs)
    m["trace.overhead_ratio"] = (plain_s / traced["elapsed"], "ratio")

    c = check(traced["results"], refs, workloads.REL_TOL)
    failed = c["raised"] + c["silent_wrong"]
    lines.append(f"traced run: {len(ops)} operations, untraced {plain_s:.3f} s (mean of one run before and one after), "
                 f"traced {traced['elapsed']:.3f} s; spans in .perfbench_out/spans-{workload}-{seed}.tsv")
    lines.append(f"verify_all_s: fastest of {VERIFY_RUNS} runs of `elemhyp verify --suite all`, "
                 f"exit codes {sorted({code for _, code in verify_runs})}")
    return {k: (v, u, "") for k, (v, u) in m.items()}, c["crashed"] == 0 and verify_ok, len(ops), failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "elemhyp", "__init__.py")):
        print(f"error: no elemhyp sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    lines = []
    try:
        if args.trace:
            metrics, correct, attempted, failed = per_layer(args.workload, args.seed, lines)
        else:
            metrics, correct, attempted, failed = end_to_end(
                args.workload, args.seed, args.seconds, lines)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  [{note}]" if note else ""))
    for line in lines:
        print("  " + line)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
