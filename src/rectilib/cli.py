"""Command-line interface.

Every subcommand prints a JSON document to stdout; heavier artifacts
(point clouds, edge lists, tours, per-point tables) go to files named
by flags.  ``run`` prints the full pipeline report.  ``gen``, ``nets``,
``cubes``, ``porous``, ``curve`` and ``param`` are views over it: each
names the stages whose sections it prints, which run with every stage
they read (``pipeline.STAGES``).  A command's flags are those of the
``RunConfig`` fields its stages read, then its own.
Exit codes: 0 success, 1 a verified invariant failed, 2 bad input or
configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from collections import Counter

from .curve import edges_csv, parametrization_csv
from .density import (
    beta2,
    density_csv,
    density_profiles,
    density_summary,
    density_window,
)
from .errors import ConfigError, InputError, RectilibError
from .generators import KINDS
from .pipeline import (
    RunConfig,
    closure,
    report_json,
    run_pipeline,
    run_stages,
)
from .space import save_csv


def finite(raw: str) -> float:
    """A float flag's value; nan and the infinities are refused."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


# RunConfig field -> argparse keywords of its flag, in flag order; a
# command takes the flags of the fields that its stages read
FIELDS = {
    "input": {"help": "points file (.csv or .json)"},
    "matrix": {"help": "distance-matrix CSV (needs --weights)"},
    "weights": {"help": "id,weight CSV for --matrix"},
    "kind": {"choices": KINDS, "help": "generator kind"},
    "resolution": {"type": int},
    "params": {"type": json.loads, "help": "generator params, JSON"},
    "rho": {"type": finite},
    "n_min": {"type": int},
    "n_max": {"type": int},
    "c0": {"type": finite},
    "M": {"type": finite},
    "delta": {"type": finite},
    "n0": {"type": int},
    "strict": {"action": "store_true"},
    "eps_res": {"type": finite},
}


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


def _family(ctx) -> dict:
    """The porous cubes that the report only counts."""
    return {
        "family": [
            {"cube": c, "witness": ctx.space.ids[w], "witness_gap": g}
            for c, w, g in zip(
                ctx.porous.cube.tolist(),
                ctx.porous.witness.tolist(),
                ctx.porous.gap.tolist(),
            )
        ]
    }


# view -> (stages whose sections it prints, which run with every stage
# they read; side-file flag and writer; extra report keys)
VIEWS = {
    "gen": (
        ("load",), ("out", lambda ctx, path: save_csv(ctx.space, path)), None
    ),
    "nets": (("verify_nets",), None, None),
    "cubes": (("verify_cubes",), None, None),
    "porous": (("verify_cubes", "carleson"), None, _family),
    "curve": (
        ("connectivity", "budget"),
        ("edges_out", lambda ctx, path: edges_csv(ctx.gamma, path)),
        None,
    ),
    "param": (("check_param",), ("tour_out", _write_tour), None),
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
    no_tour = args.command == "param" and ctx.param is None
    return 1 if failures or no_tour else 0


def _cmd_density(args) -> int:
    space, target = _space_and_target(args)
    if args.points is None:
        pts = list(target.members)
    else:
        pts = _ids_arg(args.points)
        if not pts:
            raise InputError("--points names no point ids")
        repeated = [p for p, n in Counter(pts).items() if n > 1]
        if repeated:
            raise InputError(f"--points names id {repeated[0]} more than once")
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


def _cmd_run(args) -> int:
    report, failures, timings = run_pipeline(_run_config(args))
    sys.stdout.write(report_json(report))
    for name, seconds in timings:
        sys.stderr.write(f"{name}\t{seconds:.6f}\n")
    return 1 if failures else 0


_IDS = "comma-separated ids (default: target)"

# command -> (help, handler, its own flags), in --help order; its flags are
# those of the fields its stages read (a view's stages, load for density
# and beta2, every field for run), then its own
COMMANDS = {
    "gen": (
        "generate a point cloud", _cmd_view,
        {"out": {"default": None, "help": "write points CSV here"}},
    ),
    "nets": ("build and verify net hierarchy", _cmd_view, {}),
    "cubes": ("build and verify the cube tree", _cmd_view, {}),
    "density": (
        "lower-density profiles", _cmd_density,
        {
            "points": {"default": None, "help": _IDS},
            "r_lo": {"type": finite, "default": None},
            "r_hi": {"type": finite, "default": None},
            "out": {"default": None, "help": "per-point CSV"},
        },
    ),
    "beta2": (
        "flatness of a subset", _cmd_beta2,
        {"members": {"default": None, "help": _IDS}, "label": {"default": ""}},
    ),
    "porous": ("porous cubes, packing, shadows", _cmd_view, {}),
    "curve": (
        "assemble the curve graph", _cmd_view,
        {"edges_out": {"default": None, "help": "edge-list CSV"}},
    ),
    "param": (
        "parametrize the curve graph", _cmd_view,
        {"tour_out": {"default": None, "help": "tour CSV"}},
    ),
    "run": (
        "full pipeline with JSON report", _cmd_run,
        {"out_dir": {"help": "directory for side outputs"}},
    ),
}


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
    for command, (text, handler, own) in COMMANDS.items():
        stages = VIEWS[command][0] if command in VIEWS else ("load",)
        read = {f for row in closure(stages) for f in row[4]}
        flags = {f: FIELDS[f] for f in FIELDS if f in read or command == "run"}
        p = sub.add_parser(command, help=text)
        for name, keywords in (flags | own).items():
            p.add_argument("--" + name.replace("_", "-"), **keywords)
        p.set_defaults(handler=handler)
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
