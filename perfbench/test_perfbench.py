"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from elemhyp import hypergeom, mkz  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _xs(ops):
    for kind, args in ops:
        if kind == "heun":
            yield args[3]
        else:
            yield args[-1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    count = workloads.timed_count(workload, 10)
    a = workloads.generate(workload, 5, count)
    assert len(a) == count
    assert a == workloads.generate(workload, 5, count)
    assert a != workloads.generate(workload, 6, count)
    assert json.loads(json.dumps(a)) == a
    assert a[:len(workloads.PINNED[workload])] == workloads.PINNED[workload]
    pinned = len(workloads.PINNED[workload])
    assert not set(_xs(a[pinned:])) & set(workloads.WARM_X)


@pytest.mark.parametrize("m,n,p,x", [(1, 2.0, 3, 0.3), (2, -2.5, 5, 0.4), (3, 1.5, 8, 0.2),
                                      (4, 7.0, 9, 0.05)])
def test_hyp2f1_oracle_matches_the_series(m, n, p, x):
    ref = oracle.value(["hyp2f1", [m, n, p, x]])
    series = hypergeom.hyp2f1_series(float(m), n, float(p), x).value
    assert abs(series - float(ref)) <= 1e-13 * abs(float(ref))


@pytest.mark.parametrize("op", [["mkz", [3, 4, 0.3]], ["abel", [2, 1, 0.5, 3, 0.4]],
                                ["apply", [4, 2, 1.0, 0.25, 3, 0.6]]])
def test_moment_oracle_matches_direct_summation(op):
    kind, a = op
    if kind == "mkz":
        params, r, x = mkz.GmkzParams(a[0], 1, 0.0, 0.0), a[1], a[2]
    elif kind == "abel":
        params, r, x = mkz.GmkzParams(a[0], a[1] + 1, float(a[1]), a[2]), a[3], a[4]
    else:
        params, r, x = mkz.GmkzParams(*a[:4]), a[4], a[5]
    direct = mkz.gmkz_apply(params, mkz.Monomial(r), x).value
    assert abs(direct - float(oracle.value(op))) <= 1e-11


def test_near_one_route_matches_the_direct_sum():
    N, b, c, m, x = 14, 2.5, 13, 10, 0.9905
    with mpmath.mp.workdps(oracle._LERCH_DPS):
        lerch = oracle._lerch(N, b, c, m, x)
    bn, bd = Fraction(b).as_integer_ratio()
    with mpmath.mp.workdps(60):
        direct = oracle._direct(N, lambda k: ((k * bd + bn) ** m, ((k + c) * bd) ** m), x)
        assert abs(lerch - direct) <= mpmath.mpf(10) ** -40 * abs(direct)


def _bindings():
    return {(name, attr): module.__dict__.get(attr)
            for name, module in sys.modules.items()
            if name == "elemhyp" or name.startswith("elemhyp.")
            for _, attr in tracer.BOUNDARIES}


def test_tracer_restores_every_binding_and_counts_cache_hits():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert mkz.hyp2f1_eval is not before[("elemhyp.mkz", "hyp2f1_eval")]
        mkz.mkz_moment(3, 4, 0.6)
        mkz.mkz_moment(3, 4, 0.6)
        hypergeom.hyp2f1_eval(hypergeom.HypergeomParams(2, 2.5, 6), 0.5)
    finally:
        t.restore()
    assert _bindings() == before
    summary = tracer.summarize(t.spans)
    assert summary["calls"]["mkz.mkz_moment"] == 2
    assert summary["calls"]["polylog._polylog_dd"] >= 2
    assert t.cache_hit_ratio("polylog._polylog_dd") > 0
    assert summary["routes"]["closed"] + summary["routes"]["fallback"] == 1
    assert all(v >= 0 for v in summary["self_s"].values())


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_only_known_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    proc = _run(["--workload", "heun", "--seed", "3", "--seconds", "6",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] >= 1
    if not trace:
        assert doc["attempted"] == workloads.timed_count("heun", 6)
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert got == want


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "heun", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
