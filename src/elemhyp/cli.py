"""Command-line front end: single evaluations and verification sweeps.

Every subcommand prints one JSON document to standard output (verify can
switch to CSV); diagnostics go to standard error.  Exit codes: 0 on
success, 1 on non-convergence or a non-finite series term, 2 on invalid
parameters or flags.  Floats are printed in shortest round-trip form, so
identical invocations are bit-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from ._dd import _GUARD_REL, certified
from .basis import combo_eval, combo_json_dict, fnj_combo, fnj_series
from .heun import (
    HeunFamilyParams, heun_eval, heun_normalization, heun_ode_residual,
    heun_termination,
)
from .hypergeom import HypergeomParams, _closed_route, hyp2f1_eval, hyp2f1_series
from .mkz import (
    GmkzParams, Monomial, _gmkz_series, gmkz_e1, gmkz_moment_abel, ln_moment_e2,
    ln_moment_e2_direct, mkz_moment,
)
from .numcore import DomainError, InvalidParams, NonFinite, NotConverged
from .verify import SUITE_NAMES, _rel_err, run_suites

def _emit(doc: dict):
    print(json.dumps(doc))


def cmd_hyp2f1(args) -> int:
    params = HypergeomParams(args.m, args.n, args.p)
    if args.variant is not None and args.method != "closed":
        raise InvalidParams("--variant requires --method closed")
    if args.method == "auto":
        value = hyp2f1_eval(params, args.x)
    elif args.method == "series":
        res = hyp2f1_series(float(args.m), args.n, float(args.p), args.x)
        if not res.converged:
            raise NotConverged("series did not converge within its term cap")
        value = res.value
    else:
        variant = args.variant
        if variant is not None and variant.isdigit():
            variant = int(variant)
        value, bound = _closed_route(args.m, args.n, args.p, args.x, variant)
        if not certified(value, bound):
            raise NotConverged(f"closed form's rounding bound {bound:.3g} "
                               f"exceeds {_GUARD_REL:g} of its value")
    doc = {"value": value}
    if args.compare:
        series = hyp2f1_series(float(args.m), args.n, float(args.p), args.x).value
        doc["series"] = series
        doc["rel_err"] = _rel_err(value, series)
    _emit(doc)
    return 0


def cmd_moment(args) -> int:
    n, r, x = args.n, args.r, args.x
    if args.operator == "mkz":
        params = GmkzParams(n, 1, 0.0, 0.0)

        def closed():
            return mkz_moment(n, r, x)
    elif args.operator == "ln":
        if r != 2:
            raise InvalidParams("the ln operator has a closed moment for r = 2 only")
        params = None

        def closed():
            return ln_moment_e2(n, x)
    else:
        params = GmkzParams(n, args.rop, args.alpha, args.beta)

        def closed():
            if r == 1:
                return gmkz_e1(params, x)
            if args.alpha == int(args.alpha) and args.rop == int(args.alpha) + 1:
                return gmkz_moment_abel(n, int(args.alpha), args.beta, r, x)
            raise InvalidParams(
                "gmkz closed moments need r = 1, or rop = alpha+1 with integer alpha")

    def series():
        if args.operator == "ln":
            return ln_moment_e2_direct(n, x)
        return _gmkz_series(params, Monomial(r), x).value

    if args.route == "closed":
        doc = {"value": closed()}
    elif args.route == "series":
        doc = {"value": series()}
    else:
        c = closed()
        s = series()
        doc = {"closed": c, "series": s, "rel_err": _rel_err(c, s)}
    _emit(doc)
    return 0


def cmd_fnj(args) -> int:
    if args.n < 2:
        raise InvalidParams("symbolic combos are defined for n >= 2")
    if args.j < 2:
        raise InvalidParams("symbolic combos are defined for j >= 2")
    if args.x is None and not args.emit_symbolic:
        raise InvalidParams("provide --x, --emit-symbolic, or both")
    combo = fnj_combo(args.n, args.j)
    doc = {"n": args.n, "j": args.j}
    if args.emit_symbolic:
        doc["terms"] = combo_json_dict(combo)["terms"]
    if args.x is not None:
        got = combo_eval(combo, args.x)
        oracle = fnj_series(args.n, args.j, args.x).value
        doc.update(combo=got, series=oracle, rel_err=_rel_err(got, oracle))
    _emit(doc)
    return 0


def cmd_heun(args) -> int:
    fp = HeunFamilyParams(args.m, args.n, args.p)
    res = heun_eval(fp, args.x, args.terms)
    termination = heun_termination(fp)
    # only a terminating member has a value at 0; asked for one, any other raises
    norm = (heun_normalization(fp) if termination is not None or args.normalized
            else None)
    value = res.value / norm if args.normalized else res.value
    doc = {"value": value, "termination": termination, "normalization": norm,
           "terms_used": res.terms_used, "converged": res.converged}
    if args.check_ode:
        doc["ode_residual"] = heun_ode_residual(fp, args.x, 1e-3, args.terms)
    _emit(doc)
    return 0 if res.converged else 1


def _report_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["operation", "inputs", "result", "oracle", "rel_err", "pass"])
    for e in report["entries"]:
        writer.writerow([e["operation"], json.dumps(e["inputs"], sort_keys=True),
                         repr(e["result"]), repr(e["oracle"]), repr(e["rel_err"]),
                         "true" if e["pass"] else "false"])
    return buf.getvalue()


def cmd_verify(args) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    report = run_suites(names)
    text = _report_csv(report) if args.format == "csv" else json.dumps(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    ok = report["summary"]["passed"] == report["summary"]["total"]
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elemhyp",
        description="Elementary closed forms for integer-parameter 2F1, "
                    "operator moments, symbolic moment kernels, and a "
                    "2F1-expanded Heun family.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hyp2f1", help="evaluate 2F1(m, n; p; x)")
    p.add_argument("--m", type=int, required=True, help="first upper parameter (integer >= 1)")
    p.add_argument("--n", type=float, required=True, help="second upper parameter (real)")
    p.add_argument("--p", type=int, required=True, help="lower parameter (integer >= m+1)")
    p.add_argument("--x", type=float, required=True, help="argument in [0, 1)")
    p.add_argument("--method", choices=["series", "closed", "auto"], default="auto")
    p.add_argument("--variant", choices=["A", "B", "1", "2", "3"], default=None,
                   help="closed-form arrangement, where the shape admits several")
    p.add_argument("--compare", action="store_true",
                   help="also print the series value and relative error")
    p.set_defaults(func=cmd_hyp2f1)

    p = sub.add_parser("moment",
                       help="operator moments, closed formulas vs direct summation")
    p.add_argument("--operator", choices=["mkz", "ln", "gmkz"], required=True)
    p.add_argument("--n", type=int, required=True, help="operator index (integer >= 1)")
    p.add_argument("--r", type=int, required=True, help="moment order (integer >= 0)")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.0, help="gmkz only")
    p.add_argument("--beta", type=float, default=0.0, help="gmkz only")
    p.add_argument("--rop", type=int, default=1,
                   help="gmkz only: the operator's own r parameter")
    p.add_argument("--route", choices=["closed", "series", "both"], default="closed",
                   help="both prints the closed value, the series summed to "
                        "full precision and their relative error; below "
                        "x = 0.9 the mkz and Abel-type gmkz closed side is "
                        "itself the operator series")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("fnj", help="moment kernels: exact combos and series values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--emit-symbolic", action="store_true",
                   help="print the exact-rational combo")
    p.set_defaults(func=cmd_fnj)

    p = sub.add_parser("heun",
                       help="evaluate the 2F1 expansion of the Heun family")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--terms", type=int, default=400, help="truncation order K")
    p.add_argument("--normalized", action="store_true",
                   help="divide by the value at 0")
    p.add_argument("--check-ode", action="store_true",
                   help="append a finite-difference residual of the equation")
    p.set_defaults(func=cmd_heun)

    p = sub.add_parser("verify",
                       help="run a verification sweep and emit a report")
    p.add_argument("--suite", choices=list(SUITE_NAMES) + ["all"], required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="write the report to a file")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParams, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotConverged, NonFinite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
