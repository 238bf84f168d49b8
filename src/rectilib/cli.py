"""Command-line interface.

Every subcommand prints a JSON document to stdout; heavier artifacts
(point clouds, edge lists, tours, per-point tables) go to files named
by flags.  ``run`` prints the full pipeline report.  ``gen``, ``nets``,
``cubes``, ``porous``, ``curve`` and ``param`` are views over it: each
runs the pipeline stages it needs and prints their report sections.
Exit codes: 0 success, 1 a verified invariant failed, 2 bad input or
configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .curve import edges_csv, parametrization_csv
from .density import (
    beta2,
    bs_sum,
    density_csv,
    density_profiles,
    density_summary,
    density_window,
)
from .errors import ConfigError, InputError, RectilibError
from .generators import KINDS
from .pipeline import RunConfig, report_json, run_pipeline, run_stages
from .space import save_csv


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="points file (.csv or .json)")
    p.add_argument("--matrix", help="distance-matrix CSV (needs --weights)")
    p.add_argument("--weights", help="id,weight CSV for --matrix")
    p.add_argument("--kind", choices=KINDS, help="generator kind")
    p.add_argument("--resolution", type=int)
    p.add_argument("--params", type=json.loads, help="generator params, JSON")


def _add_scale_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho", type=float)
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)


def _add_cube_args(p: argparse.ArgumentParser) -> None:
    _add_scale_args(p)
    p.add_argument("--c0", type=float)


def _add_porosity_args(p: argparse.ArgumentParser) -> None:
    _add_cube_args(p)
    p.add_argument("--M", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n0", type=int)
    p.add_argument("--strict", action="store_true")


def _add_curve_args(p: argparse.ArgumentParser) -> None:
    _add_porosity_args(p)
    p.add_argument("--eps-res", type=float)


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The subcommand's flags as a RunConfig; absent flags keep defaults."""
    fields = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunConfig)
        if hasattr(args, f.name)
    }
    return RunConfig(**fields)


def _space_and_target(args: argparse.Namespace):
    ctx = run_stages(_run_config(args), ("load",))[0]
    return ctx.space, ctx.target


def _ids_arg(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"point ids must be integers: {exc}") from None


def _write_tour(ctx, path: str) -> None:
    if ctx.param is not None:
        parametrization_csv(ctx.param, ctx.gamma, ctx.space, path)


_CURVE = (
    "load", "validate", "doubling", "nets", "cubes", "porous", "bridges",
    "gamma",
)

# command -> (stages it runs, (side-file flag, writer), extra report keys)
VIEWS = {
    "gen": (
        ("load",),
        ("out", lambda ctx, path: save_csv(ctx.space, path)),
        None,
    ),
    "nets": (("load", "nets", "verify_nets"), None, None),
    "cubes": (("load", "nets", "cubes", "verify_cubes"), None, None),
    "porous": (
        (
            "load", "validate", "doubling", "nets", "cubes", "verify_cubes",
            "porous", "shadow", "carleson",
        ),
        None,
        # the report counts porous cubes; the view lists them
        lambda ctx: {
            "family": [
                {"cube": c, "witness": ctx.space.ids[w], "witness_gap": g}
                for c, w, g in zip(
                    ctx.porous.cube.tolist(),
                    ctx.porous.witness.tolist(),
                    ctx.porous.gap.tolist(),
                )
            ]
        },
    ),
    "curve": (
        _CURVE + ("connectivity", "budget"),
        ("edges_out", lambda ctx, path: edges_csv(ctx.gamma, path)),
        None,
    ),
    "param": (
        _CURVE + ("parametrize", "check_param"),
        ("tour_out", _write_tour),
        None,
    ),
}


def _cmd_view(args) -> int:
    stages, side_file, extra = VIEWS[args.command]
    ctx, report, failures, _ = run_stages(_run_config(args), stages)
    if side_file is not None and getattr(args, side_file[0]):
        side_file[1](ctx, getattr(args, side_file[0]))
    if extra is not None:
        report.update(extra(ctx))
    sys.stdout.write(report_json(report))
    # the tour is what param is asked for; a disconnected curve has none
    no_tour = "parametrize" in stages and ctx.param is None
    return 1 if failures or no_tour else 0


def _cmd_density(args) -> int:
    space, target = _space_and_target(args)
    if args.points is None:
        pts = list(target.members)
    else:
        pts = _ids_arg(args.points)
        if not pts:
            raise InputError("--points names no point ids")
    r_lo, r_hi = density_window(space)
    r_lo = r_lo if args.r_lo is None else args.r_lo
    r_hi = r_hi if args.r_hi is None else args.r_hi
    profiles = density_profiles(space, pts, r_lo, r_hi)
    if args.out:
        density_csv(profiles, args.out)
    payload = {**density_summary(profiles, r_lo, r_hi), "out": args.out}
    sys.stdout.write(report_json(payload))
    return 0


def _cmd_beta2(args) -> int:
    space, target = _space_and_target(args)
    members = _ids_arg(args.members) if args.members else list(target.members)
    result = beta2(space, members, label=args.label)
    payload = {
        "label": result.label,
        "beta2": result.beta2,
        "line_point": list(result.line_point),
        "line_direction": list(result.line_direction),
        "members": len(members),
    }
    sys.stdout.write(report_json(payload))
    return 0


def _cmd_bssum(args) -> int:
    space, _ = _space_and_target(args)
    result = bs_sum(space, args.point, args.depth)
    payload = {
        "point": result.point,
        "depth": result.depth,
        "value": result.value,
        "skipped": result.skipped,
        "terms": list(result.terms),
    }
    sys.stdout.write(report_json(payload))
    return 0


def _cmd_run(args) -> int:
    report, failures, timings = run_pipeline(_run_config(args))
    sys.stdout.write(report_json(report))
    for name, seconds in timings:
        sys.stderr.write(f"{name}\t{seconds:.6f}\n")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectilib",
        description="nets, cubes, porosity, and curve pipelines "
        "over finite metric measure spaces",
    )
    # a flag with no stated default is left out of the namespace when
    # absent, so a RunConfig field keeps RunConfig's default
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(
            argparse.ArgumentParser, argument_default=argparse.SUPPRESS
        ),
    )

    p = sub.add_parser("gen", help="generate a point cloud")
    _add_source_args(p)
    p.add_argument("--out", default=None, help="write points CSV here")
    p.set_defaults(handler=_cmd_view)

    p = sub.add_parser("nets", help="build and verify net hierarchy")
    _add_source_args(p)
    _add_scale_args(p)
    p.set_defaults(handler=_cmd_view)

    p = sub.add_parser("cubes", help="build and verify the cube tree")
    _add_source_args(p)
    _add_cube_args(p)
    p.set_defaults(handler=_cmd_view)

    p = sub.add_parser("density", help="lower-density profiles")
    _add_source_args(p)
    p.add_argument(
        "--points", default=None, help="comma-separated ids (default: target)"
    )
    p.add_argument("--r-lo", type=float, default=None)
    p.add_argument("--r-hi", type=float, default=None)
    p.add_argument("--out", default=None, help="per-point CSV")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("beta2", help="flatness of a subset")
    _add_source_args(p)
    p.add_argument(
        "--members", default=None, help="comma-separated ids (default: target)"
    )
    p.add_argument("--label", default="")
    p.set_defaults(handler=_cmd_beta2)

    p = sub.add_parser("bssum", help="dyadic diam/mass sum at a point")
    _add_source_args(p)
    p.add_argument("--point", type=int, required=True)
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(handler=_cmd_bssum)

    p = sub.add_parser("porous", help="porous cubes, packing, shadows")
    _add_source_args(p)
    _add_porosity_args(p)
    p.set_defaults(handler=_cmd_view)

    p = sub.add_parser("curve", help="assemble the curve graph")
    _add_source_args(p)
    _add_curve_args(p)
    p.add_argument("--edges-out", default=None, help="edge-list CSV")
    p.set_defaults(handler=_cmd_view)

    p = sub.add_parser("param", help="parametrize the curve graph")
    _add_source_args(p)
    _add_curve_args(p)
    p.add_argument("--tour-out", default=None, help="tour CSV")
    p.set_defaults(handler=_cmd_view)

    p = sub.add_parser("run", help="full pipeline with JSON report")
    _add_source_args(p)
    _add_curve_args(p)
    p.add_argument("--out-dir", help="directory for side outputs")
    p.set_defaults(handler=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        sys.stdout.write(report_json(exc.report))
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RectilibError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
