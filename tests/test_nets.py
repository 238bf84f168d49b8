"""Tests for nested separated nets."""

import numpy as np
import pytest

from _oracles import net_covers, net_is_separated
from rectilib.errors import ParameterError
from rectilib.generators import GeneratorSpec, generate
from rectilib.nets import (
    NetHierarchy,
    auto_levels,
    build_nets,
    verify_nets,
)
from rectilib.space import MetricMeasureSpace


def random_cloud(rng, n=30, dim=2):
    coords = rng.uniform(0.0, 1.0, size=(n, dim))
    weights = rng.uniform(0.5, 1.5, size=n)
    return MetricMeasureSpace.from_coords(range(n), coords, weights)


def test_four_point_trace():
    space, _ = generate(GeneratorSpec("interval", 4))
    h = build_nets(space, 1.0 / 3.0, 0, 1)
    # Scale 1: id 0 enters, ids 1 and 2 are too close, id 3 is at exactly 1.
    assert h.levels[0].tolist() == [0, 3]
    # Scale 1/3: carry (0, 3), then admit 1 and 2 in id order.
    assert h.levels[1].tolist() == [0, 3, 1, 2]
    assert h.scale(1) == 1.0 / 3.0
    assert verify_nets(space, h).ok


def test_two_point_trace():
    space = MetricMeasureSpace.from_coords(
        [0, 1], np.array([[0.0], [1.0]]), np.ones(2)
    )
    h = build_nets(space, 0.5, 0, 2)
    assert h.levels[0].tolist() == [0, 1]  # distance exactly 1 >= rho^0
    assert h.levels[1].tolist() == [0, 1]
    assert verify_nets(space, h).ok


def test_seed_ids_take_the_root():
    space, _ = generate(GeneratorSpec("interval", 4))
    h = build_nets(space, 1.0 / 3.0, 0, 1, seed_ids=[2])
    assert h.levels[0].tolist() == [2]  # the rest is within distance 1 of 2
    assert h.levels[1].tolist() == [2, 0, 1, 3]
    assert verify_nets(space, h).ok


def test_a_seed_near_an_earlier_seed_stays_out():
    """Seeds 2 and 1 are one apart, under the scale 2.5, and 1 comes
    again among the first ids, in the same lookahead chunk as both seeds:
    2 is admitted, so 1 is not, at either place."""
    space = MetricMeasureSpace.from_coords(range(10), np.arange(10.0)[:, None], np.ones(10))
    with pytest.warns(UserWarning, match="below the diameter"):
        h = build_nets(space, 0.4, -1, -1, seed_ids=[9, 2, 1])
    assert h.levels[-1].tolist() == [9, 2, 5]


def test_build_nets_parameter_errors():
    space, _ = generate(GeneratorSpec("interval", 4))
    with pytest.raises(ParameterError):
        build_nets(space, 1.5, 0, 1)
    with pytest.raises(ParameterError):
        build_nets(space, 0.5, 2, 1)


def test_warns_when_top_scale_is_too_small():
    space, _ = generate(GeneratorSpec("interval", 10))
    with pytest.warns(UserWarning):
        build_nets(space, 0.5, 1, 2)  # rho^1 = 1/2 < diameter 1


def test_axioms_on_random_clouds():
    rng = np.random.default_rng(41)
    for trial in range(10):
        space = random_cloud(rng, n=int(rng.integers(10, 60)))
        n_min, n_max = auto_levels(space, 0.5)
        h = build_nets(space, 0.5, n_min, n_max)
        previous = None
        for n in range(n_min, n_max + 1):
            ids = [space.ids[k] for k in h.levels[n]]
            scale = 0.5**n
            assert net_is_separated(space, ids, scale)
            assert net_covers(space, ids, scale)
            if previous is not None:
                assert set(previous) <= set(ids)
            previous = ids
        check = verify_nets(space, h)
        assert check.ok and check.witness is None


def test_verify_nets_flags_injected_violations():
    space, _ = generate(GeneratorSpec("interval", 16))
    h = build_nets(space, 0.25, 0, 2)

    crowded = dict(h.levels)
    crowded[1] = [*h.levels[1], 1]  # point 1 is within 0.25 of point 0
    bad_sep = NetHierarchy(rho=0.25, levels=crowded)
    check = verify_nets(space, bad_sep)
    assert not check.ok and not check.separation_ok
    assert check.witness[0] == "separation"

    thinned = dict(h.levels)
    thinned[2] = h.levels[2][:-4]
    bad_cov = NetHierarchy(rho=0.25, levels=thinned)
    check = verify_nets(space, bad_cov)
    assert not check.covering_ok or not check.nesting_ok

    both = dict(crowded)
    both[2] = h.levels[2][:-4]
    check = verify_nets(space, NetHierarchy(rho=0.25, levels=both))
    assert not check.separation_ok and not check.covering_ok
    assert check.witness[0] == "separation"

    swapped = dict(h.levels)
    swapped[0] = h.levels[2][-1:]  # coarse member missing below
    bad_nest = NetHierarchy(rho=0.25, levels=swapped)
    check = verify_nets(space, bad_nest)
    assert not check.nesting_ok


def test_levels_are_read_only_index_arrays():
    """Levels hold point indices; a hierarchy built from lists owns
    read-only copies of them."""
    space = MetricMeasureSpace.from_coords(
        [7, 3, 5], np.array([[0.0], [1.0], [0.1]]), np.ones(3)
    )
    h = build_nets(space, 0.5, 0, 1)
    # id 3 (index 1) scans first, then id 7 (index 0) at distance 1
    assert h.levels[0].tolist() == [1, 0]
    assert h.levels[1].tolist() == [1, 0]
    members = [1, 2]
    edited = NetHierarchy(rho=0.5, levels={0: members})
    members.append(0)
    assert edited.levels[0].tolist() == [1, 2]
    for level in (*h.levels.values(), *edited.levels.values()):
        assert level.dtype == np.intp
        assert not level.flags.writeable
        with pytest.raises(ValueError):
            level[0] = level[0]


def test_nesting_witness_is_the_smallest_missing_id():
    """Level 1 drops the points of ids 9 and 4 (indices 0 and 1); the
    witness names id 4, not the smaller index."""
    space = MetricMeasureSpace.from_coords(
        [9, 4, 7], np.array([[0.0], [1.0], [2.0]]), np.ones(3)
    )
    h = NetHierarchy(rho=0.5, levels={0: [0, 1, 2], 1: [2]})
    check = verify_nets(space, h)
    assert not check.nesting_ok and check.separation_ok
    assert check.witness == ("nesting", 1, 4)


def test_verify_nets_computes_no_rows():
    """Separation and covering come from the pairs closer than the scale."""
    space, _ = generate(GeneratorSpec("interval", 200))
    h = build_nets(space, 0.25, 0, 3)
    calls = []
    original = space.dists_from
    space.dists_from = lambda k: calls.append(k) or original(k)
    assert verify_nets(space, h).ok
    assert calls == []


def test_auto_levels_frozen_and_degenerate():
    space, _ = generate(GeneratorSpec("interval", 1000))
    assert auto_levels(space, 1.0 / 16.0) == (-1, 2)
    singleton = MetricMeasureSpace.from_coords(
        [0], np.zeros((1, 2)), np.ones(1)
    )
    assert auto_levels(singleton, 0.5) == (0, 0)
    with pytest.raises(ParameterError):
        auto_levels(space, 0.0)

