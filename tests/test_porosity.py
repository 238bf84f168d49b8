"""Tests for porous-cube detection, packing ratios, and constants."""

import math
from collections import Counter

import numpy as np
import pytest

from _oracles import (
    cube_children,
    cube_descendants,
    cube_members,
    dist_to_set_brute,
    family_rows,
    maximal_clear_rows,
)
from rectilib.cubes import build_cubes
from rectilib.errors import (
    ContainmentError,
    DegenerateInputError,
    ParameterError,
    UnknownIdentifierError,
)
from rectilib.generators import GeneratorSpec, generate
from rectilib.nets import auto_levels, build_nets
from rectilib.pipeline import RunConfig, run_stages
from rectilib.porosity import (
    AppendixConstants,
    PorosityConfig,
    PorousFamily,
    appendix_constants,
    carleson_check,
    dist_to_set,
    find_porous,
    shadow_map,
    validate_config,
)
from rectilib.space import MetricMeasureSpace, enclosing_target, save_csv


def good_cfg(**overrides):
    base = dict(M=11.0, delta=0.003, n0=2, rho=1.0 / 16.0, C_mu=2.0)
    base.update(overrides)
    return PorosityConfig(**base)


def porous_cubes(space, tree, target, cfg):
    """find_porous with the target's gap, as the porous stage calls it."""
    return find_porous(space, tree, target, dist_to_set(space, target.members), cfg)


def family_of(cubes) -> PorousFamily:
    """A porous family of the given cubes, every witness point 0."""
    cube = np.array(cubes, dtype=np.int64)
    return PorousFamily(
        cube=cube, witness=np.zeros_like(cube), gap=np.zeros(len(cube))
    )


def shadow_rows(space, tree, report, porous) -> list:
    """(cube, witness id, shadow or None) of each porous cube, the
    shadow found among the members of the report's antichain cubes."""
    holder = {}
    for s in report.maximal:
        holder.update(dict.fromkeys(cube_members(space, tree, s), s))
    return [(c, w, holder.get(w)) for c, w, _ in family_rows(space, porous)]


def hole_fixture(weights_scale=1.0):
    """Interval with a central hole, cube tree down to hole-sized cubes."""
    space, target = generate(
        GeneratorSpec("interval", 100, params={"holes": [(0.4, 0.6)]})
    )
    if weights_scale != 1.0:
        space = MetricMeasureSpace.from_coords(
            space.ids, space.coords, space.weights * weights_scale
        )
    h = build_nets(space, 1.0 / 16.0, -1, 2)
    return space, target, h, build_cubes(space, h)


# -- parameter validation -----------------------------------------------


def test_validate_accepts_reference_parameters():
    assert validate_config(good_cfg()) == validate_config(good_cfg())
    result = validate_config(good_cfg())
    assert result.ok and result.violations == ()


def test_validate_names_each_violation():
    assert validate_config(good_cfg(M=9.0)).violations == ("M > 10",)
    assert validate_config(good_cfg(delta=0.25)).violations == (
        "delta < 4*rho",
    )
    assert validate_config(
        good_cfg(n0=1, rho=1.0 / 1024.0)
    ).violations == ("n0 >= 2",)
    coarse = validate_config(good_cfg(rho=0.25))
    assert coarse.violations == (
        "rho < 3/(M+1)",
        "1/rho > M",
        "5*M*rho^n0 < 1",
    )


@pytest.mark.parametrize(
    "overrides, violations",
    [({"rho": 0.0}, ("0 < rho < 1",)),
     ({"rho": 1.0, "M": 9.0}, ("0 < rho < 1",)),
     ({"rho": math.nan}, ("0 < rho < 1",)),
     ({"delta": 0.0}, ("delta > 0",)),
     ({"delta": -1.0, "rho": -1.0}, ("0 < rho < 1", "delta > 0"))],
)
def test_validate_checks_the_domain_before_the_inequalities(overrides, violations):
    """Outside (0, 1) the inequalities would divide by rho; the domain
    violations are then the only ones named, also in strict mode."""
    for strict in (False, True):
        assert validate_config(good_cfg(**overrides), strict).violations == violations


def test_validate_strict_adds_two_checks():
    cfg = good_cfg(rho=1.0 / 1024.0)
    assert validate_config(cfg, strict=True).ok
    at_limit = good_cfg(rho=1.0 / 1000.0)
    assert validate_config(at_limit).ok
    assert validate_config(at_limit, strict=True).violations == (
        "rho < 1/1000",
    )
    off_c0 = good_cfg(rho=1.0 / 1024.0, c0=0.003)
    assert validate_config(off_c0, strict=True).violations == ("c0 = 1/500",)


# -- constant assembly --------------------------------------------------


def test_appendix_constants_frozen_reference_point():
    cfg = good_cfg(rho=1.0 / 1024.0)
    got = appendix_constants(cfg, 1)
    assert got.a == pytest.approx(0.1861818181818183, rel=1e-12)
    assert got.C1 == 2048.0  # b * C_mu^(log2(4/rho) - 1) lands exactly
    assert got.b == 1.0


def test_appendix_constants_limit_and_errors():
    almost_flat = appendix_constants(good_cfg(C_mu=1.0 + 1e-9), 1)
    assert almost_flat.C1 == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ParameterError):
        appendix_constants(good_cfg(C_mu=None), 1)
    with pytest.raises(ParameterError):
        appendix_constants(good_cfg(C_mu=1.0), 1)
    with pytest.raises(ParameterError):
        appendix_constants(good_cfg(C_mu=0.5), 1)


def test_appendix_constants_multiplicity_modes():
    cfg = good_cfg(rho=1.0 / 1024.0)
    assert appendix_constants(cfg, 3).C1 == pytest.approx(3.0 * 2048.0)
    observed = appendix_constants(cfg, b_observed=5)
    assert observed.b == 5.0
    floored = appendix_constants(cfg, b_observed=0)
    assert floored.b == 1.0  # empty family still yields a usable bound


# -- distances to the target set ----------------------------------------


def test_dist_to_set_minimizes_over_members():
    coords = np.arange(5, dtype=float)[:, None]
    space = MetricMeasureSpace.from_coords(range(5), coords, np.ones(5))
    gap = dist_to_set(space, [0, 4])
    assert gap.tolist() == [0.0, 1.0, 2.0, 1.0, 0.0]
    assert np.array_equal(dist_to_set(space, [2]), space.dists_from(2))


def _cloud_and_twin():
    rng = np.random.default_rng(17)
    coords = np.round(rng.uniform(-1.0, 1.0, size=(21, 2)), 1)  # some duplicates
    ids = [int(i) for i in rng.permutation(100)[:21]]
    space = MetricMeasureSpace.from_coords(ids, coords, np.ones(21))
    twin = MetricMeasureSpace.from_matrix(ids, space.distance_matrix(), np.ones(21))
    return space, twin


@pytest.mark.parametrize(
    "pick",
    [
        lambda ids: ids[:4],  # fewer than half: members' rows
        lambda ids: ids[2:],  # more than half: outsiders' rows
        lambda ids: ids[10:] + ids[:1],  # one more than half
        lambda ids: ids,
        lambda ids: ids[7:8],
    ],
    ids=["small", "large", "just-over-half", "all", "single"],
)
def test_dist_to_set_matches_brute_force(pick):
    for space in _cloud_and_twin():
        members = pick(list(space.ids))
        gap = dist_to_set(space, members)
        assert gap.tolist() == dist_to_set_brute(space, members)
        if len(members) == len(space):
            assert gap.tolist() == [0.0] * len(space)


def test_dist_to_set_refuses_an_empty_member_set():
    for space in _cloud_and_twin():
        with pytest.raises(DegenerateInputError, match="candidate set is empty"):
            dist_to_set(space, [])


def test_dist_to_set_rejects_unknown_ids():
    space, _ = _cloud_and_twin()
    with pytest.raises(UnknownIdentifierError):
        dist_to_set(space, [space.ids[0], -5])
    with pytest.raises(UnknownIdentifierError):
        dist_to_set(space, [*space.ids[1:], -5])


# -- porous cube detection ----------------------------------------------


def test_no_porosity_when_target_is_everything():
    space, _, h, tree = hole_fixture()
    full = enclosing_target(space)
    assert family_rows(space, porous_cubes(space, tree, full, good_cfg())) == []


def test_find_porous_on_hole_fixture():
    space, target, h, tree = hole_fixture()
    porous = family_rows(space, porous_cubes(space, tree, target, good_cfg()))
    assert len(porous) == 57
    # The deepest gap point: ids 49 and 50 tie at distance 10/99 from
    # the target, and the tie resolves to the smaller id.
    big = [witness for cube, witness, _ in porous if tree.level[cube] <= 1]
    assert set(big) == {49}
    assert porous[0][2] == pytest.approx(10.0 / 99.0)


def test_family_arrays_are_read_only():
    """Cubes ascend, witnesses are point indices; an empty family has
    the same dtypes."""
    space, target, h, tree = hole_fixture()
    porous = porous_cubes(space, tree, target, good_cfg())
    empty = porous_cubes(space, tree, enclosing_target(space), good_cfg())
    assert len(empty.cube) == len(empty.witness) == len(empty.gap) == 0
    assert (np.diff(porous.cube) > 0).all()
    for family in (porous, empty):
        for name in ("cube", "witness", "gap"):
            array = getattr(family, name)
            assert array.dtype == getattr(porous, name).dtype, name
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[:1] = array[:1]


def test_find_porous_witness_recheck():
    space, target, h, tree = hole_fixture()
    cfg = good_cfg()
    gap = dist_to_set(space, target.members)
    porous = find_porous(space, tree, target, gap, cfg)
    assert np.array_equal(porous.gap, gap[porous.witness])
    for cube, wk, witness_gap in zip(
        porous.cube.tolist(), porous.witness.tolist(), porous.gap.tolist()
    ):
        side = tree.sidelength[cube]
        row = space.dists_from(int(tree.center[cube]))
        assert row[wk] < cfg.M * side
        assert witness_gap >= cfg.delta * side
        better = [
            k
            for k in range(len(space))
            if row[k] < cfg.M * side
            and (
                gap[k] > gap[wk] + 1e-15
                or (gap[k] == gap[wk] and space.ids[k] < space.ids[wk])
            )
        ]
        assert not better


def test_find_porous_is_antitone_in_delta():
    space, target, h, tree = hole_fixture()
    previous = None
    for delta in (0.003, 0.01, 0.05, 0.2):
        porous = porous_cubes(space, tree, target, good_cfg(delta=delta))
        cubes = set(porous.cube.tolist())
        if previous is not None:
            assert cubes <= previous
        previous = cubes


def test_find_porous_rejects_invalid_config():
    space, target, h, tree = hole_fixture()
    bad = good_cfg(M=9.0)
    with pytest.raises(ParameterError, match="config violates: M > 10"):
        porous_cubes(space, tree, target, bad)


def test_find_porous_needs_single_containing_root():
    coords = np.array([[0.0], [1.0]])
    space = MetricMeasureSpace.from_coords([0, 1], coords, np.ones(2))
    h = build_nets(space, 0.5, 0, 1)
    tree = build_cubes(space, h)
    assert len(np.unique(tree.cube_of[0])) == 2  # two top-level cubes
    target = enclosing_target(space)
    with pytest.raises(ContainmentError):
        porous_cubes(space, tree, target, good_cfg())


# -- packing (Carleson) ratios ------------------------------------------


def packed_ratios(tree, porous_ids, children=cube_children) -> tuple:
    """({cube: packed ratio} of the cubes of positive mass, zero-mass
    cubes): running totals from the bottom level up, ids ascending in a
    level, each cube from its own mass (when porous) plus its
    children's packed masses in the order ``children`` lists them."""
    packed, ratios, skipped = {}, {}, []
    for level in sorted(set(tree.level.tolist()), reverse=True):
        for cid in np.flatnonzero(tree.level == level).tolist():
            mass = float(tree.mass[cid])
            total = mass if cid in porous_ids else 0.0
            for child in children(tree, cid):
                total += packed[child]
            packed[cid] = total
            if mass > 0:
                ratios[cid] = total / mass
            else:
                skipped.append(cid)
    return ratios, tuple(skipped)


def assert_matches_brute_force(report, tree, porous):
    """The worst ratio and cube and the skipped cubes of the brute-force
    packed sums, each porous descendant's mass added once."""
    porous_ids = set(porous.cube.tolist())
    ratios, skipped = {}, []
    for cid in range(len(tree.level)):
        packed = sum(
            tree.mass[d]
            for d in cube_descendants(tree, cid)
            if d in porous_ids
        )
        if tree.mass[cid] > 0:
            ratios[cid] = packed / tree.mass[cid]
        else:
            skipped.append(cid)
    worst = max(ratios.values(), default=0.0)
    assert report.worst_ratio == pytest.approx(worst, rel=1e-12)
    assert ratios.get(report.worst_cube, 0.0) == pytest.approx(worst, rel=1e-12)
    assert sorted(report.skipped) == skipped


def test_carleson_matches_brute_force_descendant_sums():
    space, target, h, tree = hole_fixture()
    porous = porous_cubes(space, tree, target, good_cfg())
    report = carleson_check(tree, porous, good_cfg(), 1)
    assert_matches_brute_force(report, tree, porous)
    assert report.worst_ratio == pytest.approx(2.297872340425532, rel=1e-12)
    assert report.skipped == ()


def test_carleson_adds_children_in_ascending_id_after_the_own_mass():
    """Bit for bit the running totals of a bottom-up scan: a cube starts
    from its own mass (when porous) and adds its children's packed
    masses in ascending id; the worst ratio is the first largest.  The
    worst cube's sum here differs with its children added in descending
    id, so the order is pinned."""
    rng = np.random.default_rng(5)
    coords = rng.uniform(0.0, 1.0, size=(300, 2))
    space = MetricMeasureSpace.from_coords(
        range(300), coords, rng.uniform(0.1, 1.0, size=300)
    )
    tree = build_cubes(space, build_nets(space, 0.25, -1, 3))
    porous = family_of(range(0, len(tree.level), 3))
    report = carleson_check(tree, porous, good_cfg(), 1)
    porous_ids = set(porous.cube.tolist())
    ratios, skipped = packed_ratios(tree, porous_ids)
    worst = max(ratios.values())
    assert report.worst_ratio == worst
    assert report.worst_cube == next(c for c, r in ratios.items() if r == worst)
    assert report.skipped == skipped == ()
    descending, _ = packed_ratios(
        tree, porous_ids, lambda tree, cid: cube_children(tree, cid)[::-1]
    )
    assert descending[report.worst_cube] != worst


def test_carleson_is_invariant_under_mass_rescaling():
    _, target, _, tree = hole_fixture()
    scaled_space, target2, _, scaled_tree = hole_fixture(weights_scale=3.7)
    gap = dist_to_set(scaled_space, target2.members)
    porous = find_porous(scaled_space, scaled_tree, target2, gap, good_cfg())
    a = carleson_check(tree, porous, good_cfg(), 1)
    b = carleson_check(scaled_tree, porous, good_cfg(), 1)
    assert_matches_brute_force(a, tree, porous)
    assert_matches_brute_force(b, scaled_tree, porous)
    assert a.worst_ratio == pytest.approx(b.worst_ratio, rel=1e-12)
    assert a.worst_cube == b.worst_cube
    assert a.skipped == b.skipped


def test_carleson_single_porous_root_has_ratio_one():
    space, target, h, tree = hole_fixture()
    root = 0  # the first top-level cube
    report = carleson_check(tree, family_of([root]), good_cfg(), 1)
    assert report.worst_ratio == pytest.approx(1.0)
    assert report.worst_cube == root
    assert report.ok


def test_carleson_skips_and_empty_family():
    coords = np.array([[0.0], [1.0], [2.0]])
    space = MetricMeasureSpace.from_coords(
        range(3), coords, np.array([1.0, 1.0, 0.0])
    )
    h = build_nets(space, 0.5, -2, 0)
    tree = build_cubes(space, h)
    report = carleson_check(tree, family_of([]), good_cfg(), 1)
    assert report.worst_ratio == 0.0
    assert report.ok
    assert len(report.skipped) == 2  # the zero-weight point's two singleton cubes
    assert_matches_brute_force(report, tree, family_of([]))


@pytest.mark.parametrize(
    "hole_weight, expected", [(None, {}), (0.0, {"1": 2, "2": 20})],
    ids=["hole-fixture", "weightless-hole"],
)
def test_carleson_counts_its_zero_mass_cubes_per_level(
    hole_weight, expected, tmp_path
):
    """The hole fixture's cube tree, its points in the hole weighing
    zero or as generated: the cubes of zero mass, counted per level as
    porous counts its cubes."""
    space, target, _, _ = hole_fixture()
    weights = space.weights.copy()
    if hole_weight is not None:
        weights[np.setdiff1d(space.ids, target.members)] = hole_weight
    path = tmp_path / "points.csv"
    save_csv(MetricMeasureSpace.from_coords(space.ids, space.coords, weights), str(path))
    cfg = RunConfig(input=str(path), rho=1.0 / 16.0, n_min=-1, n_max=2)
    stages = ("load", "validate", "doubling", "nets", "cubes", "porous",
              "shadow", "carleson")
    ctx, report = run_stages(cfg, stages)[:2]
    section = report["carleson"]
    assert section["skipped_per_level"] == expected
    assert section["skipped"] == sum(expected.values())
    levels = Counter(str(n) for n in ctx.tree.level[ctx.tree.mass == 0.0].tolist())
    assert levels == expected


# -- shadow map ---------------------------------------------------------


def test_shadow_map_on_hole_fixture():
    space, target, h, tree = hole_fixture()
    cfg = good_cfg()
    gap = dist_to_set(space, target.members)
    porous = find_porous(space, tree, target, gap, cfg)
    report = shadow_map(tree, gap, porous, cfg)
    # Maximal target-free cubes: the finest cubes centered deep enough
    # inside the hole, gap >= twice their sidelength 5/256.
    assert len(report.maximal) == 14
    centers = sorted(space.ids[tree.center[cid]] for cid in report.maximal)
    assert centers == list(range(43, 57))
    assert report.b_observed == 38
    assert len(report.failures) == 6
    assert report.ok
    assert report.c0_used == tree.c0_achieved
    rows = shadow_rows(space, tree, report, porous)
    mapped = [shadow for _, _, shadow in rows if shadow is not None]
    assert report.mapped == len(mapped) == len(rows) - len(report.failures)
    assert report.failures == tuple(c for c, _, shadow in rows if shadow is None)
    assert max(Counter(mapped).values()) == report.b_observed


def test_shadow_map_records_scale_comparisons():
    space, target, h, tree = hole_fixture()
    cfg = good_cfg()
    gap = dist_to_set(space, target.members)
    porous = find_porous(space, tree, target, gap, cfg)
    report = shadow_map(tree, gap, porous, cfg)
    rows = shadow_rows(space, tree, report, porous)
    assert report.mapped == sum(shadow is not None for _, _, shadow in rows) > 0
    for cube, witness, shadow in rows:
        if shadow is None:
            assert cube in report.failures
            continue
        l_cube = tree.sidelength[cube]
        l_shadow = tree.sidelength[shadow]
        assert cfg.delta * l_cube <= (4 / cfg.rho) * l_shadow * (1 + 1e-12)
        assert l_shadow <= (2 * cfg.M / report.c0_used) * l_cube * (1 + 1e-12)
    assert report.ok


@pytest.mark.parametrize(
    "broken, lhs, rhs",
    [({"delta": 1e6}, "delta*l(Q)", "(4/rho)*l(S)"),
     ({"M": 1e-9}, "l(S)", "(2M/c0)*l(Q)")],
    ids=["lower", "upper"],
)
def test_shadow_names_the_first_failed_scale_comparison(broken, lhs, rhs):
    """Each change breaks one comparison only; the report names the
    first mapped porous cube, its shadow and both sides of it."""
    space, target, h, tree = hole_fixture()
    gap = dist_to_set(space, target.members)
    porous = find_porous(space, tree, target, gap, good_cfg())
    assert shadow_map(tree, gap, porous, good_cfg()).violation is None
    cfg = good_cfg(**broken)
    report = shadow_map(tree, gap, porous, cfg)
    assert not report.ok
    rows = shadow_rows(space, tree, report, porous)
    mapped = [(cube, shadow) for cube, _, shadow in rows if shadow is not None]
    first_cube, first_shadow = mapped[0]
    # Python floats, as the report's repr shows them
    l_cube = float(tree.sidelength[first_cube])
    l_shadow = float(tree.sidelength[first_shadow])
    sides = {
        "delta*l(Q)": cfg.delta * l_cube,
        "(4/rho)*l(S)": (4 / cfg.rho) * l_shadow,
        "l(S)": l_shadow,
        "(2M/c0)*l(Q)": (2 * cfg.M / report.c0_used) * l_cube,
    }
    assert report.violation == (
        f"porous cube {first_cube} with shadow {first_shadow}: "
        f"{lhs} {sides[lhs]!r} > {rhs} {sides[rhs]!r}"
    )
    # every mapped pair fails the broken comparison and only that one
    for cube, shadow in mapped:
        l_cube, l_shadow = tree.sidelength[cube], tree.sidelength[shadow]
        lower_ok = cfg.delta * l_cube <= (4 / cfg.rho) * l_shadow * (1 + 1e-12)
        upper_ok = l_shadow <= (2 * cfg.M / report.c0_used) * l_cube * (1 + 1e-12)
        assert (lower_ok, upper_ok) == (lhs != "delta*l(Q)", lhs == "delta*l(Q)")


def test_shadow_map_antichain_is_maximal_and_disjoint():
    space, target, h, tree = hole_fixture()
    cfg = good_cfg()
    gap = dist_to_set(space, target.members)
    porous = find_porous(space, tree, target, gap, cfg)
    report = shadow_map(tree, gap, porous, cfg)
    seen: set[int] = set()
    for cid in report.maximal:
        assert gap[tree.center[cid]] >= 2 * tree.sidelength[cid]
        members = cube_members(space, tree, cid)
        assert not seen.intersection(members)
        seen.update(members)
        parent = int(tree.parent[cid])
        while parent >= 0:  # no ancestor qualifies
            assert gap[tree.center[parent]] < 2 * tree.sidelength[parent]
            parent = int(tree.parent[parent])


def test_the_antichain_keeps_the_topmost_clear_cube_of_a_far_cluster():
    """A cluster 50 away from the target: its level-0 cube is clear of
    the target, and so is every cube below it, which the antichain
    leaves out."""
    xs = np.concatenate([np.linspace(0.0, 1.0, 100), np.linspace(50.0, 50.5, 20)])
    space = MetricMeasureSpace.from_coords(range(120), xs[:, None], np.ones(120))
    target = enclosing_target(space, range(100))
    cfg = good_cfg()
    h = build_nets(space, cfg.rho, *auto_levels(space, cfg.rho))
    tree = build_cubes(space, h)
    gap = dist_to_set(space, target.members)
    porous = find_porous(space, tree, target, gap, cfg)
    report = shadow_map(tree, gap, porous, cfg)
    assert list(report.maximal) == maximal_clear_rows(tree, gap)
    assert any(cube_children(tree, c) for c in report.maximal)


def test_shadow_map_empty_porous_family():
    space, target, h, tree = hole_fixture()
    report = shadow_map(
        tree, dist_to_set(space, target.members), family_of([]), good_cfg()
    )
    assert report.maximal and report.mapped == 0
    assert report.b_observed == 0
    assert report.failures == ()
    assert report.ok


@pytest.mark.parametrize(
    "resolution, expected", [(1000, {"2": 19}), (4000, {"2": 18})]
)
def test_shadow_counts_its_failures_per_level(resolution, expected):
    """The README's interval run with one hole: the porous cubes whose
    witness finds no shadow, counted per level as porous counts its
    cubes."""
    cfg = RunConfig(
        kind="interval", resolution=resolution, params={"holes": [(0.4, 0.6)]}
    )
    stages = ("load", "validate", "doubling", "nets", "cubes", "porous", "shadow")
    ctx, report = run_stages(cfg, stages)[:2]
    section = report["shadow"]
    assert section["failures_per_level"] == expected
    assert sum(expected.values()) == section["failures"]
    levels = Counter(str(ctx.tree.level[c]) for c in ctx.shadow.failures)
    assert levels == expected
