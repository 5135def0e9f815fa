"""Command-line front door.

Commands: analyze (full pipeline to a structure report), metric (quotient
distance between two points), lift (sphere-rotation lift witness), catalog
(list the built-in continuous actions), verify (acceptance suites).

Each command takes the parsed arguments and returns its text (verify also
its exit code); ``main`` validates the seed, the sample count and the
output path, dispatches, and turns a typed error into one ``error[stage]:``
line on stderr. Exit codes: 0 success, 1 validation errors (and failed
suites), 2 ambiguity or internal-check errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import _numerics as num
from .catalog import catalog_summary
from .errors import AmbiguityError, InternalCheckError, ValidationError
from .isom_quotient import (DEFAULT_SAMPLE_COUNT, _resolve_source, quotient_isometry_group,
                            report_json)
from .lift_verify import lift_rotation
from .orbit_geometry import QuotientPoint, check_sampling, quotient_distance
from .repr_model import enumerate_group
from .verification import run_suites

ENV_SEED = "ORBIT_ISOM_SEED"


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{ENV_SEED} must be an integer, got {raw!r}")


def _emit(text: str, output_path: str) -> None:
    if output_path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _render_report_text(report: dict) -> str:
    lines = ["quotient isometry report"]
    lines.append(f"  euclidean factor dim : {report['euclideanFactorDim']}")
    if report["compactFactors"]:
        factors = ", ".join(
            f"{f['name']} ({f['type']}, multiplicity {f['multiplicity']})"
            for f in report["compactFactors"])
    else:
        factors = "none"
    lines.append(f"  compact factors      : {factors}")
    k = report["kernel"]
    lines.append(
        f"  kernel               : finite order {k['finiteOrder']}, "
        f"circle directions {k['circleDirections']}, "
        f"contains center of G: {'yes' if k['containsCenterOfG'] else 'no'}")
    lines.append(f"  boundary             : {'yes' if report['boundary'] else 'no'}")
    lines.append(f"  formula applied      : {report['formulaApplied']}")
    lines.append(f"  rank                 : {report['rank']}")
    lines.append(f"  theorem B            : {report['theoremB']}")
    lines.append(f"  theorem C            : {report['theoremC']}")
    lines.append(f"  seed                 : {report['seed']}")
    lines.append("  notes:")
    for key, value in report.get("notes", {}).items():
        lines.append(f"    {key}: {value}")
    return "\n".join(lines)


def cmd_analyze(args) -> str:
    report = quotient_isometry_group(args.input, seed=args.seed).report
    return report_json(report) if args.format == "json" else _render_report_text(report)


def _parse_point(text: str) -> np.ndarray:
    cleaned = text.strip().strip("()")
    try:
        return np.array([float(part) for part in cleaned.split(",")], dtype=float)
    except ValueError:
        raise ValidationError(f"could not parse point {text!r}")


def _metric_context(input_path: str):
    _, spec, action = _resolve_source(input_path)
    if action is not None:
        return action, {"method": "coarse-grid-with-refinement", "action": action.id}
    group = enumerate_group(spec)
    return group, {"method": "exact-minimum-over-group", "groupOrder": group.order}


def cmd_metric(args) -> str:
    context, meta = _metric_context(args.input)
    a = _parse_point(args.point_a)
    b = _parse_point(args.point_b)
    dist = quotient_distance(QuotientPoint(a, context), QuotientPoint(b, context))
    if args.format == "json":
        return json.dumps({"distance": dist, **meta}, indent=2, sort_keys=True)
    detail = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    return f"distance = {dist:.6f}  ({detail})"


def cmd_lift(args) -> str:
    r = num.random_rotation(np.random.default_rng([args.seed]), 3)
    witness = lift_rotation(r, sample_count=args.samples, seed=args.seed)
    if args.format == "json":
        return json.dumps({
            "quotientIsometry": witness.quotient_isometry.tolist(),
            "lift": witness.lift.tolist(),
            "residual": witness.residual,
        }, indent=2)
    lines = [f"lift residual over {args.samples} samples: {witness.residual:.3e}"]
    lines.append("quotient rotation (3x3):")
    lines.extend("  " + "  ".join(f"{v: .6f}" for v in row)
                 for row in witness.quotient_isometry)
    lines.append("equivariant lift (4x4):")
    lines.extend("  " + "  ".join(f"{v: .6f}" for v in row)
                 for row in witness.lift)
    return "\n".join(lines)


def cmd_catalog(args) -> str:
    entries = catalog_summary()
    if args.format == "json":
        return json.dumps(entries, indent=2)
    lines = []
    for e in entries:
        angle = ("none" if e["expectedSectorAngle"] is None
                 else f"{e['expectedSectorAngle']:.6f}")
        lines.append(f"{e['id']}: dim {e['dimension']}, "
                     f"{e['parameters']} parameters, "
                     f"boundary {'yes' if e['boundary'] else 'no'}, "
                     f"cohomogeneity {e['cohomogeneity']}, "
                     f"sector angle {angle}")
    return "\n".join(lines)


def cmd_verify(args) -> tuple[str, int]:
    """The suite table, and exit code 1 unless every suite passed."""
    results = run_suites(args.only, seed=args.seed, sample_count=args.samples)
    if not results:
        raise ValidationError(f"no suite id contains {args.only!r}")
    code = 0 if all(r.passed for r in results) else 1
    if args.format == "json":
        payload = [{"suiteId": r.suite_id, "passed": r.passed, "details": r.details}
                   for r in results]
        return json.dumps(payload, indent=2), code
    width = max(len(r.suite_id) for r in results)
    lines = [f"{'PASS' if r.passed else 'FAIL'}  "
             f"{r.suite_id:<{width}}  {r.details}" for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} suites passed")
    return "\n".join(lines), code


COMMANDS = {"analyze": cmd_analyze, "metric": cmd_metric, "lift": cmd_lift,
            "catalog": cmd_catalog, "verify": cmd_verify}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbit-isom",
        description="Identity components of isometry groups of orbit spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, needs_input: bool):
        if needs_input:
            p.add_argument("--input", required=True,
                           help="representation spec path or catalog:<id>")
        p.add_argument("--output", default="-", help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "text"), default="json")

    analyze = sub.add_parser("analyze", help="run the full pipeline")
    common(analyze, needs_input=True)

    metric = sub.add_parser("metric", help="quotient distance between two points")
    common(metric, needs_input=True)
    metric.add_argument("point_a", help="comma-separated coordinates")
    metric.add_argument("point_b", help="comma-separated coordinates")

    lift = sub.add_parser("lift", help="lift a random quotient-sphere rotation")
    common(lift, needs_input=False)

    catalog = sub.add_parser("catalog", help="list built-in continuous actions")
    common(catalog, needs_input=False)

    verify = sub.add_parser("verify", help="run acceptance suites")
    common(verify, needs_input=False)
    verify.add_argument("--only", default=None,
                        help="run only suites whose id contains this substring")

    # metric and catalog draw nothing at random, so they take no seed; the
    # analysis tests orbits at the constant DEFAULT_SAMPLE_COUNT
    for p in (analyze, lift, verify):
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default 0, or {ENV_SEED})")
    for p in (lift, verify):
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLE_COUNT,
                       help="sample count for randomized checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = os.path.dirname(os.path.abspath(args.output))
    try:
        if hasattr(args, "seed"):
            if args.seed is None:
                args.seed = _default_seed()
            check_sampling(getattr(args, "samples", DEFAULT_SAMPLE_COUNT), args.seed)
        if args.output != "-" and not os.path.isdir(out_dir):
            raise ValidationError(f"the output directory {out_dir} does not exist")
        if os.path.isdir(args.output):
            raise ValidationError(f"the output path {args.output} is a directory")
        result = COMMANDS[args.command](args)
    except (ValidationError, AmbiguityError, InternalCheckError) as err:
        stage = getattr(err, "stage", None)
        print(f"error[{stage}]: {err}" if stage else f"error: {err}", file=sys.stderr)
        return 1 if isinstance(err, ValidationError) else 2
    text, code = result if isinstance(result, tuple) else (result, 0)
    _emit(text, args.output)
    return code
