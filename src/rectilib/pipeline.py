"""End-to-end batch pipeline: space to parametrized curve, one report.

The pipeline is stage-sequential and deterministic: identical run
configurations produce byte-identical JSON reports.  Wall-clock
timings are collected but kept out of the report (they go to stderr
or a sidecar file) so reports stay reproducible.

The stages form one table, ``STAGES``, each row naming the stages and
the ``RunConfig`` fields it reads.  ``run_pipeline`` runs all of them;
``run_stages`` runs the named ones and all they read, which is how the
CLI's views print parts of the same report.

Exit-code convention for front ends: 0 when every verified invariant
holds, 1 when one fails, 2 for input or configuration problems.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .cubes import build_cubes, verify_cube_axioms
from .curve import (
    _labels,
    assemble_gamma,
    build_bridges,
    check_parametrization,
    connectivity,
    edges_csv,
    length_budget,
    parametrize,
    parametrization_csv,
)
from .density import (
    density_csv,
    density_profiles,
    density_summary,
    density_window,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    DisconnectedError,
    InputError,
    ParameterError,
    RectilibError,
)
from .generators import GeneratorSpec, generate
from .nets import auto_levels, build_nets, verify_nets
from .porosity import (
    PorosityConfig,
    carleson_check,
    dist_to_set,
    find_porous,
    shadow_map,
    validate_config,
)
from .space import (
    MetricMeasureSpace,
    TargetSet,
    _open,
    doubling_estimate,
    dyadic_radii,
    enclosing_target,
    load_csv,
    load_json,
    load_matrix,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    # exactly one input source: a file, a matrix pair, or a generator
    input: str | None = None
    matrix: str | None = None
    weights: str | None = None
    kind: str | None = None
    resolution: int = 64
    params: dict = field(default_factory=dict)
    # geometry parameters
    rho: float = 1.0 / 16.0
    c0: float = 1.0 / 500.0
    M: float = 11.0
    delta: float = 0.003
    n0: int = 2
    eps_res: float | None = None  # default: twice the finest net scale
    n_min: int | None = None
    n_max: int | None = None
    strict: bool = False
    out_dir: str | None = None


def load_space(cfg: RunConfig) -> tuple[MetricMeasureSpace, TargetSet | None]:
    """Resolve the configured input source into a space and target."""
    sources = [
        cfg.input is not None,
        cfg.matrix is not None,
        cfg.kind is not None,
    ]
    if sum(sources) != 1:
        raise ParameterError(
            "exactly one of input file, matrix pair, or generator required"
        )
    if cfg.input is not None:
        if cfg.input.endswith(".json"):
            return load_json(cfg.input), None
        return load_csv(cfg.input), None
    if cfg.matrix is not None:
        if cfg.weights is None:
            raise ParameterError("matrix input needs a weights file")
        return load_matrix(cfg.matrix, cfg.weights), None
    spec = GeneratorSpec(
        kind=cfg.kind,
        resolution=cfg.resolution,
        params=cfg.params,
    )
    return generate(spec)


def _plain(obj):
    """Recursively coerce report content to JSON-native types."""
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


def report_json(report: dict) -> str:
    return json.dumps(_plain(report), sort_keys=True, indent=2) + "\n"


# Each stage reads earlier results from the context ``ctx``, adds its own
# as new names, and returns (its report section or None, failure or None).


def _load(ctx):
    space, target = load_space(ctx.cfg)
    if target is None:
        target = enclosing_target(space, list(space.ids))
    ctx.space, ctx.target = space, target
    return {
        "points": len(space),
        "total_mass": space.total_mass,
        "diameter": space.diameter(),
        "min_gap": space.min_gap(),
        "target_size": len(target.members),
    }, None


def _validate(ctx):
    cfg = ctx.cfg
    ctx.validated = PorosityConfig(
        M=cfg.M, delta=cfg.delta, n0=cfg.n0, rho=cfg.rho, c0=cfg.c0
    )
    result = validate_config(ctx.validated, strict=cfg.strict)
    return {
        "ok": result.ok,
        "violations": list(result.violations),
        "strict": cfg.strict,
    }, None


def _doubling(ctx):
    r_lo = 2 * ctx.space.min_gap()
    r_hi = ctx.space.diameter() / 2
    if not 0 < r_lo < r_hi:
        raise DegenerateInputError("space too small for a doubling estimate")
    doubling = doubling_estimate(ctx.space, dyadic_radii(r_lo, r_hi))
    ctx.pcfg = replace(ctx.validated, C_mu=max(doubling.c_hat, 1.0 + 1e-9))
    return {
        "c_hat": doubling.c_hat,
        "evaluated": doubling.evaluated,
        "skipped": doubling.skipped,
        "worst_center": doubling.worst_center,
        "worst_radius": doubling.worst_radius,
    }, None


def _nets(ctx):
    cfg = ctx.cfg
    # a level flag left unset takes its end of the automatic range
    lo, hi = auto_levels(ctx.space, cfg.rho)
    lo = lo if cfg.n_min is None else cfg.n_min
    hi = hi if cfg.n_max is None else cfg.n_max
    ctx.hierarchy = build_nets(
        ctx.space, cfg.rho, lo, hi, seed_ids=[ctx.target.xi0]
    )
    return None, None


def _verify_nets(ctx):
    levels = ctx.hierarchy.levels
    check = verify_nets(ctx.space, ctx.hierarchy)
    return {
        "levels": {str(n): len(levels[n]) for n in sorted(levels)},
        "separation_ok": check.separation_ok,
        "covering_ok": check.covering_ok,
        "nesting_ok": check.nesting_ok,
        "ok": check.ok,
    }, None if check.ok else f"nets: witness {check.witness}"


def _cubes(ctx):
    ctx.tree = build_cubes(ctx.space, ctx.hierarchy, ctx.cfg.c0)
    return None, None


def _verify_cubes(ctx):
    tree = ctx.tree
    check = verify_cube_axioms(ctx.space, ctx.hierarchy, tree)
    sizes = np.diff(tree.start, append=len(tree.level))
    return {
        "count": len(tree.level),
        "per_level": dict(
            zip(map(str, tree.level[tree.start].tolist()), sizes.tolist())
        ),
        "c0_achieved": tree.c0_achieved
        if np.isfinite(tree.c0_achieved)
        else None,
        "partition_ok": check.partition_ok,
        "nesting_ok": check.nesting_ok,
        "outer_ok": check.outer_ok,
        "inner_ok": check.inner_ok,
        "centers_ok": check.centers_ok,
        "ok": check.ok,
    }, None if check.ok else f"cubes: witness {check.witness}"


def _density(ctx):
    r_lo, r_hi = density_window(ctx.space)
    ctx.profiles = None
    if not 0 < r_lo < r_hi:
        return {"skipped": "radius grid is empty"}, None
    ctx.profiles = density_profiles(ctx.space, ctx.target.members, r_lo, r_hi)
    return density_summary(ctx.profiles, r_lo, r_hi), None


def _per_level(tree, cube_ids) -> dict[str, int]:
    """How many of the cubes lie at each level, keyed by level."""
    return dict(Counter(str(tree.level[c]) for c in cube_ids))


def _porous(ctx):
    ctx.gap = dist_to_set(ctx.space, ctx.target.members)
    ctx.porous = find_porous(
        ctx.space, ctx.tree, ctx.target, ctx.gap, ctx.pcfg
    )
    return {
        "count": len(ctx.porous.cube),
        "per_level": _per_level(ctx.tree, ctx.porous.cube),
    }, None


def _shadow(ctx):
    shadow = shadow_map(ctx.tree, ctx.gap, ctx.porous, ctx.pcfg)
    ctx.shadow = shadow
    return {
        "antichain": len(shadow.maximal),
        "mapped": shadow.mapped,
        "failures": len(shadow.failures),
        "failures_per_level": _per_level(ctx.tree, shadow.failures),
        "b_observed": shadow.b_observed,
        "c0_used": shadow.c0_used,
        "ok": shadow.ok,
    }, None if shadow.ok else f"shadow: {shadow.violation}"


def _carleson(ctx):
    carleson = carleson_check(
        ctx.tree, ctx.porous, ctx.pcfg, ctx.shadow.b_observed
    )
    constants = carleson.constants
    return {
        "worst_ratio": carleson.worst_ratio,
        "worst_cube": carleson.worst_cube,
        "C1": constants.C1,
        "a": constants.a,
        "b": constants.b,
        "skipped": len(carleson.skipped),
        "skipped_per_level": _per_level(ctx.tree, carleson.skipped),
        "ok": carleson.ok,
    }, None if carleson.ok else (
        f"carleson: worst ratio {carleson.worst_ratio} exceeds {constants.C1}"
    )


def _bridges(ctx):
    ctx.bridges = build_bridges(
        ctx.space, ctx.tree, ctx.hierarchy, ctx.porous, ctx.pcfg
    )
    return {
        "pairs": len(ctx.bridges.pairs),
        "edges": len(ctx.bridges.pairs),
        "skipped_cubes": len(ctx.bridges.skipped),
        "skipped_per_level": _per_level(ctx.tree, ctx.bridges.skipped),
    }, None


def _gamma(ctx):
    cfg = ctx.cfg
    eps_res = (
        cfg.eps_res
        if cfg.eps_res is not None
        else 2 * cfg.rho ** max(ctx.hierarchy.levels)
    )
    ctx.gamma = assemble_gamma(ctx.space, ctx.target, ctx.bridges, eps_res)
    return {
        "vertices": ctx.gamma.vertex_count(),
        "edges": ctx.gamma.edge_count(),
        "eps_res": eps_res,
    }, None


def _connectivity(ctx):
    conn = connectivity(ctx.gamma)
    return {
        "components": conn.components,
        "representatives": _labels(ctx.gamma, conn.representatives[:10]),
        "disconnected": conn.components != 1,
    }, None


def _budget(ctx):
    budget = length_budget(
        ctx.space, ctx.target, ctx.gamma, ctx.bridges, ctx.porous, ctx.tree,
        ctx.pcfg,
    )
    return {
        "e_part": budget.e_part,
        "bridge_part": budget.bridge_part,
        "bound_e": budget.bound_e,
        "bound_bridge": budget.bound_bridge,
        "c_pair": budget.c_pair,
        "sidelength_sum": budget.sidelength_sum,
        "mass_check_ok": budget.mass_check_ok,
        "e_vacuous": budget.e_vacuous,
        "ok": budget.ok,
    }, None if budget.ok else "budget: " + "; ".join(budget.violations())


def _parametrize(ctx):
    """A disconnected curve is a reported outcome, not a failure."""
    ctx.param, ctx.param_skip = None, None
    try:
        ctx.param = parametrize(ctx.gamma)
    except DisconnectedError as exc:
        ctx.param_skip = {"skipped": str(exc)}
        return ctx.param_skip, None
    return {
        "visits": len(ctx.param.visits),
        "lip_bound": ctx.param.lip_bound,
        "tree_length": ctx.param.tree_length,
    }, None


def _check_param(ctx):
    if ctx.param is None:
        return ctx.param_skip, None
    check = check_parametrization(ctx.param, ctx.gamma)
    return {
        "surjective": check.surjective,
        "missing": check.missing,
        "max_ratio": check.max_ratio,
        "lipschitz_ok": check.lipschitz_ok,
        "ok": check.ok,
    }, None if check.ok else "param_check: " + "; ".join(check.violations())


# (stage name, report section it writes, stage function, earlier stages
# whose results it reads, RunConfig fields it reads)
STAGES = (
    ("load", "space", _load, (),
     ("input", "matrix", "weights", "kind", "resolution", "params")),
    ("validate", "validation", _validate, (),
     ("rho", "c0", "M", "delta", "n0", "strict")),
    ("doubling", "doubling", _doubling, ("load", "validate"), ()),
    ("nets", None, _nets, ("load",), ("rho", "n_min", "n_max")),
    ("verify_nets", "nets", _verify_nets, ("load", "nets"), ()),
    ("cubes", None, _cubes, ("load", "nets"), ("c0",)),
    ("verify_cubes", "cubes", _verify_cubes, ("load", "nets", "cubes"), ()),
    ("density", "density", _density, ("load",), ()),
    ("porous", "porous", _porous, ("load", "doubling", "cubes"), ()),
    ("shadow", "shadow", _shadow, ("doubling", "cubes", "porous"), ()),
    ("carleson", "carleson", _carleson,
     ("doubling", "cubes", "porous", "shadow"), ()),
    ("bridges", "bridges", _bridges,
     ("load", "doubling", "nets", "cubes", "porous"), ()),
    ("gamma", "gamma", _gamma, ("load", "nets", "bridges"),
     ("rho", "eps_res")),
    ("connectivity", "connectivity", _connectivity, ("gamma",), ()),
    ("budget", "budget", _budget,
     ("load", "doubling", "cubes", "porous", "bridges", "gamma"), ()),
    ("parametrize", "parametrization", _parametrize, ("gamma",), ()),
    ("check_param", "param_check", _check_param, ("gamma", "parametrize"), ()),
)
STAGE_NAMES = tuple(row[0] for row in STAGES)


def closure(names) -> tuple[tuple, ...]:
    """The rows of the named stages and all they read, in table order."""
    need = set(names)
    for name, _, _, reads, _ in reversed(STAGES):
        if name in need:
            need.update(reads)
    return tuple(row for row in STAGES if row[0] in need)


def run_stages(
    cfg: RunConfig, names: tuple[str, ...] = STAGE_NAMES
) -> tuple[SimpleNamespace, dict, list[str], list[tuple[str, float]]]:
    """Run the named stages and every stage they read, in table order.

    Returns (context, report, failures, timings); the context holds
    every result.  A stage is handed only the results of the stages its
    row names and the fields its row names, so reading anything else
    raises AttributeError.  Stage errors propagate, prefixed with the
    stage name; a configuration that fails validation raises
    :class:`ConfigError` carrying the report so far.
    """
    everything = SimpleNamespace(cfg=cfg)
    added: dict[str, dict] = {}  # stage -> the results it added
    report: dict = {"schema": SCHEMA_VERSION, "config": asdict(cfg)}
    failures: list[str] = []
    timings: list[tuple[str, float]] = []
    for name, key, fn, reads, fields in closure(names):
        given = {k: v for read in reads for k, v in added[read].items()}
        given["cfg"] = SimpleNamespace(**{f: getattr(cfg, f) for f in fields})
        ctx = SimpleNamespace(**given)
        t0 = time.perf_counter()
        try:
            section, failure = fn(ctx)
        except RectilibError as exc:
            raise type(exc)(f"stage {name}: {exc}") from exc
        finally:
            timings.append((name, time.perf_counter() - t0))
        added[name] = {k: v for k, v in vars(ctx).items() if k not in given}
        vars(everything).update(added[name])
        if section is not None:
            report[key] = section
        if failure is not None:
            failures.append(failure)
        if name == "validate" and not section["ok"]:
            raise ConfigError(
                "stage validate: config violates: "
                + "; ".join(section["violations"]),
                report=report,
            )
    return everything, report, failures, timings


def run_pipeline(
    cfg: RunConfig,
) -> tuple[dict, list[str], list[tuple[str, float]]]:
    """Execute every stage; returns (report, failures, timings).

    Failures list the verified invariants that did not hold; a
    disconnected curve is a reported outcome, not a failure.
    """
    ctx, report, failures, timings = run_stages(cfg)
    report["invariant_failures"] = list(failures)
    report["ok"] = not failures
    if cfg.out_dir is not None:
        write_outputs(
            cfg.out_dir, report, timings,
            ctx.space, ctx.profiles, ctx.gamma, ctx.param,
        )
    return report, failures, timings


def write_outputs(
    out_dir: str,
    report: dict,
    timings: list[tuple[str, float]],
    space: MetricMeasureSpace,
    profiles,
    gamma,
    param,
) -> None:
    """Side files: report, per-point density, edge list, tour, timings."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"{out_dir}: cannot write ({exc.strerror})") from None
    with _open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report_json(report))
    if profiles is not None:
        density_csv(profiles, os.path.join(out_dir, "density.csv"))
    edges_csv(gamma, os.path.join(out_dir, "edges.csv"))
    if param is not None:
        parametrization_csv(
            param, gamma, space, os.path.join(out_dir, "tour.csv")
        )
    with _open(os.path.join(out_dir, "timings.txt"), "w") as fh:
        for name, seconds in timings:
            fh.write(f"{name}\t{seconds:.6f}\n")
