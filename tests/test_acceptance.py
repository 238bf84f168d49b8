"""Acceptance gate: one test per shipped guarantee.

Each test states one externally visible property of the library and
checks it end to end at desk scale.  Oracles live in ``_oracles`` and
are deliberately independent of the implementation under test.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import beta2_grid, beta2_grid_slack
from rectilib.cli import main
from rectilib.cubes import build_cubes, verify_cube_axioms
from rectilib.density import beta2, density_profiles
from rectilib.generators import GeneratorSpec, generate
from rectilib.nets import auto_levels, build_nets, verify_nets
from rectilib.pipeline import RunConfig, report_json, run_pipeline
from rectilib.porosity import (
    PorosityConfig,
    carleson_check,
    dist_to_set,
    find_porous,
    shadow_map,
    validate_config,
)
from rectilib.space import (
    Ball,
    MetricMeasureSpace,
    doubling_estimate,
    dyadic_radii,
    enclosing_target,
    hausdorff_estimate,
    linear_mass_check,
    vitali_subcover,
)

RHO = 1.0 / 16.0
GENERATOR_RUNS = [
    ("interval", 1000, {}),
    ("circle", 1000, {}),
    ("grid2d", 64, {}),
    ("cascade", 6, {}),
]
HOLE_PARAMS = {"holes": [(0.4, 0.6)]}


def _measured_cfg(space):
    """Porosity parameters with the doubling constant read off the data."""
    r_lo, r_hi = 2 * space.min_gap(), space.diameter() / 2
    c_hat = doubling_estimate(space, dyadic_radii(r_lo, r_hi)).c_hat
    return PorosityConfig(
        M=11.0, delta=0.003, n0=2, rho=RHO, c0=1.0 / 500.0,
        C_mu=max(c_hat, 1.0 + 1e-9),
    )


def _porosity_bundle(kind, resolution, params=None):
    space, target = generate(
        GeneratorSpec(kind, resolution, params=params or {})
    )
    if target is None:
        target = enclosing_target(space, list(space.ids))
    cfg = _measured_cfg(space)
    assert validate_config(cfg).ok
    hierarchy = build_nets(
        space, RHO, *auto_levels(space, RHO), seed_ids=[target.xi0]
    )
    tree = build_cubes(space, hierarchy, cfg.c0)
    start = time.monotonic()
    gap = dist_to_set(space, target.members)
    porous = find_porous(space, tree, target, gap, cfg)
    shadow = shadow_map(tree, gap, porous, cfg)
    packing = carleson_check(tree, porous, cfg, shadow.b_observed)
    elapsed = time.monotonic() - start
    return SimpleNamespace(
        space=space, target=target, cfg=cfg, tree=tree, porous=porous,
        shadow=shadow, packing=packing, porosity_seconds=elapsed,
    )


@pytest.fixture(scope="module")
def net_runs():
    runs = []
    for kind, resolution, params in GENERATOR_RUNS:
        space, _ = generate(GeneratorSpec(kind, resolution, params=params))
        for rho in (0.25, 1.0 / 16.0):
            start = time.monotonic()
            hierarchy = build_nets(space, rho, *auto_levels(space, rho))
            elapsed = time.monotonic() - start
            runs.append(SimpleNamespace(
                kind=kind, rho=rho, space=space, hierarchy=hierarchy,
                build_seconds=elapsed,
            ))
    return runs


@pytest.fixture(scope="module")
def hole_bundle():
    return _porosity_bundle("interval", 1000, HOLE_PARAMS)


@pytest.fixture(scope="module")
def cascade_bundle():
    return _porosity_bundle("cascade", 6)


@pytest.fixture(scope="module")
def pipeline_reports():
    """Full pipeline runs used by the connectivity and budget tests.

    The resolution scale is pinned to 2.2 times the smallest gap, wide
    enough to chain consecutive sample points.
    """
    reports = {}
    for name, kind, resolution, params in [
        ("interval", "interval", 1000, {}),
        ("circle", "circle", 1000, {}),
        ("hole", "interval", 1000, HOLE_PARAMS),
    ]:
        space, _ = generate(GeneratorSpec(kind, resolution, params=params))
        cfg = RunConfig(kind=kind, resolution=resolution, params=params,
                        eps_res=2.2 * space.min_gap())
        report, failures, _ = run_pipeline(cfg)
        assert failures == [], (name, failures)
        reports[name] = report
    report, _, _ = run_pipeline(RunConfig(kind="cantor4", resolution=4))
    reports["cantor4"] = report
    return reports


def test_criterion_01_net_axioms_across_generators(net_runs):
    assert len(net_runs) == 8
    for run in net_runs:
        check = verify_nets(run.space, run.hierarchy)
        assert check.separation_ok, (run.kind, run.rho, check.witness)
        assert check.covering_ok, (run.kind, run.rho, check.witness)
        assert check.nesting_ok, (run.kind, run.rho, check.witness)
        assert run.build_seconds < 10.0, (run.kind, run.rho)


def test_criterion_02_cube_axioms_and_fine_scale_floor(net_runs):
    for run in net_runs:
        tree = build_cubes(run.space, run.hierarchy, 1.0 / 500.0)
        check = verify_cube_axioms(run.space, run.hierarchy, tree)
        assert check.partition_ok, (run.kind, run.rho, check.witness)
        assert check.nesting_ok, (run.kind, run.rho, check.witness)
        assert check.outer_ok, (run.kind, run.rho, check.witness)
        assert check.ok, (run.kind, run.rho, check.witness)
        for row, cids in zip(
            tree.cube_of, np.split(np.arange(len(tree.level)), tree.start[1:])
        ):
            for cid in cids.tolist():
                side = tree.sidelength[cid]
                assert side == pytest.approx(
                    5.0 * run.rho ** int(tree.level[cid]), rel=1e-12
                )
                dists = run.space.dists_from(int(tree.center[cid]))
                assert np.all(dists[row == cid] < side)

    micro = MetricMeasureSpace.from_coords(
        range(5),
        [[0.0], [0.001], [0.002], [0.51], [0.512]],
        np.ones(5),
    )
    assert len(micro) <= 50
    hierarchy = build_nets(micro, 1.0 / 1000.0, 0, 1)
    tree = build_cubes(micro, hierarchy, 1.0 / 500.0)
    assert verify_cube_axioms(micro, hierarchy, tree).ok
    assert tree.c0_achieved >= 1.0 / 500.0
    assert tree.c0_achieved == pytest.approx(0.2)


def test_criterion_03_subcover_disjoint_and_dilates_cover():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 61))
        dim = 1 + seed % 2
        coords = rng.random((n, dim)) * float(rng.uniform(0.5, 4.0))
        space = MetricMeasureSpace.from_coords(
            range(n), coords, rng.uniform(0.1, 1.0, n)
        )
        radii = rng.uniform(0.02, 0.8, n)
        balls = [Ball(i, float(radii[i])) for i in range(n)]
        kept = vitali_subcover(space, balls)
        assert kept, seed

        member_sets = {}
        for pos in kept:
            row = space.dists_from(space.index_of(balls[pos].center))
            member_sets[pos] = frozenset(
                np.flatnonzero(row < balls[pos].radius).tolist()
            )
        kept_list = list(kept)
        for a in range(len(kept_list)):
            for b in range(a + 1, len(kept_list)):
                assert not (member_sets[kept_list[a]]
                            & member_sets[kept_list[b]]), seed

        for ball in balls:
            center_index = space.index_of(ball.center)
            covered = any(
                space.dists_from(space.index_of(balls[pos].center))[
                    center_index
                ] < 5.0 * balls[pos].radius
                for pos in kept
            )
            assert covered, (seed, ball.center)


def test_criterion_04_covering_length_bounded_by_mass():
    for kind in ("interval", "circle"):
        space, target = generate(GeneratorSpec(kind, 1000))
        if target is None:
            target = enclosing_target(space, list(space.ids))
        members = list(target.members)
        mass_check = linear_mass_check(
            space, members, 2 * space.min_gap(), space.diameter() / 4
        )
        assert mass_check.ok, (kind, mass_check.worst_margin)
        estimate = hausdorff_estimate(space, members, space.diameter() / 4)
        mu_e = float(np.sum(space.weights[space.indices_of(members)]))
        assert estimate.upper <= 10.0 * mu_e, (kind, estimate.upper)
        assert estimate.lower <= estimate.upper


def test_criterion_05_packing_and_shadow_inequalities(
    hole_bundle, cascade_bundle
):
    assert len(hole_bundle.porous.cube) > 0
    total_seconds = 0.0
    for bundle in (hole_bundle, cascade_bundle):
        total_seconds += bundle.porosity_seconds
        packing = bundle.packing
        assert packing.constants.b == max(1, bundle.shadow.b_observed)
        assert packing.worst_ratio <= packing.constants.C1
        assert packing.ok

        shadow = bundle.shadow
        assert shadow.ok
        tree, porous = bundle.tree, bundle.porous
        # each witness's cube at each level, and the antichain cube among them
        column = tree.cube_of[:, porous.witness]
        maximal = np.isin(column, shadow.maximal)
        assert (maximal.sum(axis=0) <= 1).all()
        found = maximal.any(axis=0)
        assert shadow.failures == tuple(porous.cube[~found].tolist())
        assert shadow.mapped == found.sum()
        for cube, shadow_cube in zip(porous.cube[found], column.T[maximal.T]):
            l_cube = tree.sidelength[cube]
            l_shadow = tree.sidelength[shadow_cube]
            cfg = bundle.cfg
            assert cfg.delta * l_cube <= (4.0 / cfg.rho) * l_shadow * (
                1 + 1e-12
            )
            assert l_shadow <= (2.0 * cfg.M / shadow.c0_used) * l_cube * (
                1 + 1e-12
            )
    assert total_seconds < 60.0


def test_criterion_06_flatness_matches_grid_oracle():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 65))
        coords = rng.random((n, 2)) * float(rng.uniform(0.5, 3.0))
        space = MetricMeasureSpace.from_coords(
            range(n), coords, rng.uniform(0.1, 2.0, n)
        )
        ids = list(range(n))
        ours = beta2(space, ids).beta2
        grid = beta2_grid(space, ids, n_angles=10_000)
        slack = beta2_grid_slack(space.diameter(), 10_000)
        assert abs(ours - grid) <= 1e-6 + slack, seed

    square = MetricMeasureSpace.from_coords(
        range(4),
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        np.ones(4),
    )
    ids = [0, 1, 2, 3]
    ours = beta2(square, ids).beta2
    grid = beta2_grid(square, ids, n_angles=10_000)
    assert ours**2 == pytest.approx(0.125, abs=1e-9)
    assert abs(ours**2 - grid**2) <= 1e-9


def test_criterion_07_pipeline_connectivity(pipeline_reports):
    for name in ("interval", "circle", "hole"):
        report = pipeline_reports[name]
        assert report["validation"]["ok"], name
        assert report["connectivity"]["components"] == 1, name
    assert pipeline_reports["cantor4"]["connectivity"]["components"] > 1


def test_criterion_08_length_budget_on_connected_runs(pipeline_reports):
    for name in ("interval", "circle", "hole"):
        budget = pipeline_reports[name]["budget"]
        assert budget["mass_check_ok"], name
        assert not budget["e_vacuous"], name
        assert budget["e_part"] <= budget["bound_e"], name
        assert budget["bridge_part"] <= budget["bound_bridge"] * (
            1 + 1e-12
        ), name
        assert budget["ok"], name


def test_criterion_09_tour_surjective_and_lipschitz(pipeline_reports):
    for name in ("interval", "circle", "hole"):
        report = pipeline_reports[name]
        check = report["param_check"]
        tour = report["parametrization"]
        assert check["surjective"] is True, name
        assert check["missing"] == 0, name
        assert tour["lip_bound"] == pytest.approx(
            2.0 * tour["tree_length"], rel=1e-12
        )
        assert check["max_ratio"] <= 2.0 * tour["tree_length"] * (
            1 + 1e-9
        ), name
        assert check["ok"], name


def test_criterion_10_density_discriminates_geometry():
    circle, _ = generate(GeneratorSpec("circle", 4096))
    profile = density_profiles(circle, [0], 0.01, 0.1)
    assert 1.9 <= profile.lower[0] <= 2.1

    medians = []
    for level in (4, 5, 6):
        koch, _ = generate(GeneratorSpec("koch", level))
        step = 4 ** (level - 4)
        points = list(range(0, len(koch), step))
        profiles = density_profiles(
            koch, points, 3.0 ** -level, 64.0 * 3.0 ** -level
        )
        medians.append(float(np.median(profiles.lower)))
    assert medians[0] > medians[1] > medians[2]
    scales = [3.0 ** -level for level in (4, 5, 6)]
    slope = float(np.polyfit(np.log(scales), np.log(medians), 1)[0])
    expected = math.log(4.0) / math.log(3.0) - 1.0
    assert abs(slope - expected) <= 0.1

    cantor, _ = generate(GeneratorSpec("cantor4", 4))
    profiles = density_profiles(
        cantor, list(range(len(cantor))), 4.0 ** -4, 0.25
    )
    assert profiles.lower.min() >= 0.2
    all_ids = list(range(len(cantor)))
    assert beta2(cantor, all_ids).beta2 >= 0.1
    coords = cantor.coords
    for qx in (False, True):
        for qy in (False, True):
            piece = [
                i for i in all_ids
                if (coords[i, 0] > 0.5) == qx and (coords[i, 1] > 0.5) == qy
            ]
            assert len(piece) == 64
            assert beta2(cantor, piece).beta2 >= 0.1


def test_criterion_11_config_validator_citations():
    def cfg(**overrides):
        base = dict(M=11.0, delta=0.003, n0=2, rho=1.0 / 1024.0, C_mu=2.0)
        base.update(overrides)
        return PorosityConfig(**base)

    good = validate_config(cfg())
    assert good.ok and good.violations == ()

    result = validate_config(cfg(M=9.0))
    assert not result.ok and result.violations == ("M > 10",)

    result = validate_config(cfg(delta=4.0 / 1024.0))
    assert not result.ok and result.violations == ("delta < 4*rho",)

    result = validate_config(cfg(rho=0.25))
    assert not result.ok and "rho < 3/(M+1)" in result.violations

    assert 5.0 * 11.0 * (1.0 / 1024.0) < 1.0
    result = validate_config(cfg(n0=1))
    assert not result.ok and result.violations == ("n0 >= 2",)


def test_criterion_12_reports_are_deterministic():
    cfg = RunConfig(
        kind="interval", resolution=100,
        params={"holes": [(0.4, 0.6)]},
        rho=0.0625, n_min=-1, n_max=2, eps_res=0.0222222,
    )
    report_a, failures_a, _ = run_pipeline(cfg)
    report_b, failures_b, _ = run_pipeline(cfg)
    assert failures_a == failures_b == []
    text_a, text_b = report_json(report_a), report_json(report_b)
    assert text_a == text_b
    assert report_a["ok"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "interval", "--resolution", "1000",
         "--params", '{"holes": [[0.4, 0.6]]}'],
        ["--kind", "interval", "--resolution", "4000",
         "--params", '{"holes": [[0.4, 0.6]]}'],
        ["--kind", "circle", "--resolution", "10000"],
        ["--kind", "lipschitz_curve", "--resolution", "10000"],
    ],
    ids=["interval-hole-1000", "interval-hole-4000", "circle-10k", "lipschitz-10k"],
)
def test_criterion_13_default_run_passes_at_every_resolution(argv, capsys):
    """The default configuration passes its own invariants at each
    resolution the README runs.  The adjacency is within its budget on
    all four, though lipschitz_curve's weights of 1/n fail the 2r mass
    check, so its budget is reported, not asserted."""
    code = main(["run", *argv])
    report = json.loads(capsys.readouterr().out)
    budget = report["budget"]
    assert report["invariant_failures"] == []
    assert code == 0
    assert report["ok"] is True
    assert report["connectivity"]["components"] == 1
    assert budget["ok"] is True
    assert budget["e_vacuous"] is (argv[1] == "lipschitz_curve")
    assert budget["e_part"] <= budget["bound_e"]
