"""Command-line front end.

Exit codes: 0 all requested claims hold, 1 a claim failed, 2 usage error,
3 unreadable or structurally invalid input file.  Stdout carries values
rounded to 9 significant digits; files written via --out/--report keep
full precision.  JSON output is strict: a NaN or infinite value is null.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import RedsphereError
from .polygon import REDUCED_TOL, build_regular, load_polygon, reduced_check, save_polygon
from .formulas import regular_metrics
from .sampler import SamplerConfig, sample_batch
from .verify import (LAMBDA_GRID, OMEGA_GRID, SUITE_GRID, full_suite, polygon_reports,
                     regular_perimeters, reports_to_csv, reports_to_json, scalar_lemma_grid,
                     strict_json, summarize, table1_reports)

__all__ = ["main"]


def _fmt9(x: float) -> float:
    return float(f"{x:.9g}")


def _odd_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"n must be an integer, got {text!r}")
    if value % 2 == 0:
        raise argparse.ArgumentTypeError("n must be odd")
    if value < 3:
        raise argparse.ArgumentTypeError("n must be >= 3")
    return value


def _thickness(text: str) -> float:
    """Parse 'pi/<k>' or a decimal; must land strictly inside (0, pi/2)."""
    s = text.strip().lower()
    try:
        if s.startswith("pi/"):
            value = math.pi / float(s[3:])
        elif s == "pi":
            value = math.pi
        else:
            value = float(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse thickness {text!r}")
    if not 0.0 < value < 0.5 * math.pi:
        raise argparse.ArgumentTypeError(
            f"thickness must be in (0, pi/2), got {text!r}")
    return value


def _sample_thickness(text: str) -> float:
    """A thickness the sampler accepts: above 4 x its default perturbation."""
    value = _thickness(text)
    floor = 4.0 * SamplerConfig.perturbation_scale
    if value <= floor:
        raise argparse.ArgumentTypeError(
            f"thickness must exceed {floor:g} (4 x the sampler's "
            f"{SamplerConfig.perturbation_scale:g} perturbation), got {text!r}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse tolerance {text!r}")
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"tol must be a finite number > 0, got {text!r}")
    return value


def _int_at_least(name: str, floor: int):
    """An argparse type: an integer >= floor, called name in the error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < floor:
            raise argparse.ArgumentTypeError(f"{name} must be >= {floor}")
        return value
    return parse


_count = _int_at_least("count", 1)
_seed = _int_at_least("seed", 0)


def _lambda_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse lambda list {text!r}")
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        raise argparse.ArgumentTypeError("lambdas must be finite numbers > 0")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redsphere",
        description="Construct, verify and measure reduced spherical polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("regular", help="build a regular odd-gon of given thickness")
    p.set_defaults(run=_cmd_regular)
    p.add_argument("--n", type=_odd_int, required=True)
    p.add_argument("--thickness", type=_thickness, required=True)
    p.add_argument("--out", default=None, help="write the polygon as JSON")

    p = sub.add_parser("metrics", help="measure a polygon stored as JSON")
    p.set_defaults(run=_cmd_metrics)
    p.add_argument("--in", dest="path", required=True)

    p = sub.add_parser("verify", help="check reducedness and every claim")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--tol", type=_tolerance, default=REDUCED_TOL)

    p = sub.add_parser("table1", help="print the covering-radius table")
    p.set_defaults(run=_cmd_table1)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("sample", help="sample perturbed reduced polygons")
    p.set_defaults(run=_cmd_sample)
    p.add_argument("--n", type=_odd_int, required=True)
    p.add_argument("--thickness", type=_sample_thickness, required=True)
    p.add_argument("--count", type=_count, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", default=None, help="write the claim reports here")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("lemmas", help="tabulate the scalar maps on a grid")
    p.set_defaults(run=_cmd_lemmas)
    p.add_argument("--grid", type=_int_at_least("grid", 100), default=1000)
    p.add_argument("--lambdas", type=_lambda_list, default=LAMBDA_GRID)

    p = sub.add_parser("suite", help="run the default verification grid")
    p.set_defaults(run=_cmd_suite)
    p.add_argument("--count", type=_count, default=5)
    p.add_argument("--seed", type=_seed, default=0)

    return parser


def _print_json(obj) -> None:
    print(strict_json(obj))


def _cmd_regular(args) -> int:
    P = build_regular(args.n, args.thickness)
    m = regular_metrics(args.n, args.thickness)
    if args.out:
        save_polygon(args.out, P, thickness_hint=args.thickness)
    _print_json({
        "n": args.n,
        "thickness": _fmt9(args.thickness),
        "side": _fmt9(m.side),
        "perimeter": _fmt9(m.perimeter),
        "inradius": _fmt9(m.inradius),
        "circumradius": _fmt9(m.circumradius),
        "diameter": _fmt9(P.lengths()[2]),
    })
    return 0


def _cmd_metrics(args) -> int:
    P = load_polygon(args.path)
    witness = reduced_check(P)
    perimeter, diameter, _ = P.lengths()
    _print_json({
        "n": P.n,
        "thickness": _fmt9(witness.thickness),
        "perimeter": _fmt9(perimeter),
        "diameter": _fmt9(diameter),
        "circumcap_radius": _fmt9(P.circumcap().radius),
        "is_reduced": witness.is_reduced,
        "max_residual": _fmt9(witness.max_residual),
    })
    return 0


def _cmd_verify(args) -> int:
    P = load_polygon(args.path)
    witness = reduced_check(P, tol=args.tol)
    payload = {"n": P.n, "is_reduced": witness.is_reduced,
               "thickness": _fmt9(witness.thickness),
               "max_residual": _fmt9(witness.max_residual), "reason": witness.reason,
               "claims": [], "all_passed": False}
    if witness.is_reduced:
        reports = polygon_reports(P, witness, witness.thickness, f"n={P.n}")
        payload["claims"] = [
            {
                "claim_id": r.claim_id,
                "passed": r.passed,
                "measured": _fmt9(r.measured),
                "bound": _fmt9(r.bound),
                "residual": _fmt9(r.residual),
            }
            for r in reports
        ]
        payload["all_passed"] = all(r.passed for r in reports)
    _print_json(payload)
    return 0 if witness.is_reduced and payload["all_passed"] else 1


def _cmd_table1(args) -> int:
    reports = table1_reports()
    records = [
        {
            "omega": _fmt9(omega),
            "radius": _fmt9(r.measured),
            "paper_value": r.bound,
            "passed": r.passed,
        }
        for omega, r in zip(OMEGA_GRID, reports)
    ]
    if args.format == "csv":
        print("omega,radius,paper_value,passed")
        for rec in records:
            print(f"{rec['omega']:.9g},{rec['radius']:.9g},"
                  f"{rec['paper_value']:.6f},{rec['passed']}")
    else:
        _print_json(records)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_sample(args) -> int:
    cfg = SamplerConfig(n=args.n, thickness=args.thickness, seed=args.seed)
    samples = sample_batch(cfg, args.count)
    reports = full_suite(samples, include_formula_checks=False)
    if args.report:
        text = reports_to_json(reports) if args.format == "json" else reports_to_csv(reports)
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    perim = [r.residual for r in reports if r.claim_id == "perimeter-min"]
    diam = [r.residual for r in reports if r.claim_id == "diameter-bound"]
    _print_json({
        "count": args.count,
        "converged": sum(1 for s in samples if s.converged),
        "min_perimeter_slack": _fmt9(min(perim)) if perim else None,
        "max_diameter_slack": _fmt9(max(diam)) if diam else None,
        "all_passed": all(r.passed for r in reports),
    })
    return 0 if all(r.passed for r in reports) else 1


def _print_table(header: str, *columns) -> None:
    print(header)
    for row in zip(*columns):
        print(",".join(f"{v:.9g}" for v in row))


def _cmd_lemmas(args) -> int:
    for lam in args.lambdas:
        phis, F, xs, ratio = scalar_lemma_grid(lam, args.grid)
        dF = np.diff(F, append=math.nan)
        print(f"# lambda={lam:.9g}")
        _print_table("phi,F,dF,d2F", phis, F, dF, np.diff(dF, append=math.nan))
        _print_table("x,ratio,dratio", xs, ratio, np.diff(ratio, append=math.nan))
    for w in OMEGA_GRID:
        print(f"# thickness={w:.9g}")
        perimeters = regular_perimeters(w)
        _print_table("k,perimeter", perimeters.keys(), perimeters.values())
    return 0


def _cmd_suite(args) -> int:
    samples = []
    ns, thicknesses = SUITE_GRID
    for n in ns:
        for w in thicknesses:
            cfg = SamplerConfig(n=n, thickness=w, seed=args.seed)
            samples.extend(sample_batch(cfg, args.count))
            # Zero perturbation hits the regular equality cases.
            cfg0 = SamplerConfig(n=n, thickness=w, seed=args.seed,
                                 perturbation_scale=0.0)
            samples.extend(sample_batch(cfg0, 1))
    reports = full_suite(samples)
    ok = all(r.passed for r in reports)
    for claim_id, stats in sorted(summarize(reports).items()):
        status = "pass" if stats["failed"] == 0 else "FAIL"
        print(f"{status} {claim_id}: {stats['passed']}/{stats['count']} "
              f"residual range [{stats['min_residual']:.3g}, {stats['max_residual']:.3g}]")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except BrokenPipeError:
        return 0
    except (OSError, RedsphereError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # the sampler refusing a seed range past 2**64
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
