"""Tests for the metric dyadic cube tree."""

import dataclasses

import numpy as np
import pytest

from rectilib.cubes import (
    SIDELENGTH_FACTOR,
    build_cubes,
    verify_cube_axioms,
)
from rectilib.errors import ParameterError
from rectilib.generators import GeneratorSpec, generate
from rectilib.nets import auto_levels, build_nets
from rectilib.space import MetricMeasureSpace

from _oracles import cube_children, cube_members


def interval4_tree():
    space, _ = generate(GeneratorSpec("interval", 4))
    h = build_nets(space, 1.0 / 3.0, 0, 1)
    return space, h, build_cubes(space, h)


def test_four_point_trace():
    space, h, tree = interval4_tree()
    assert tree.level.tolist() == [0, 0, 1, 1, 1, 1]
    assert tree.start.tolist() == [0, 2]
    assert tree.center.tolist() == [0, 3, 0, 3, 1, 2]
    assert tree.parent.tolist() == [-1, -1, 0, 1, 0, 1]
    assert tree.cube_of.tolist() == [[0, 0, 1, 1], [2, 4, 5, 3]]
    assert cube_members(space, tree, 0) == (0, 1)
    assert tree.sidelength[0] == pytest.approx(SIDELENGTH_FACTOR)
    assert cube_children(tree, 0) == (2, 4)
    assert cube_members(space, tree, 1) == (2, 3)
    assert all(len(cube_members(space, tree, c)) == 1 for c in range(2, 6))
    # Tightest inner ball: root at center 0 has a non-member at 2/3,
    # against sidelength 5.
    assert tree.c0_achieved == pytest.approx(2.0 / 15.0)
    assert verify_cube_axioms(space, h, tree).ok


def test_tree_arrays_are_read_only():
    _, _, tree = interval4_tree()
    for name in (
        "level", "center", "parent", "sidelength", "mass", "start", "cube_of"
    ):
        array = getattr(tree, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_micro_space_with_extreme_ratio():
    coords = np.array([[0.0], [0.001], [0.002], [0.51], [0.512]])
    space = MetricMeasureSpace.from_coords(range(5), coords, np.ones(5))
    h = build_nets(space, 1.0 / 1000.0, 0, 1)
    tree = build_cubes(space, h)
    assert h.levels[0].tolist() == [0]
    assert np.sum(tree.level == 1) == 5  # every point is its own fine cube
    assert tree.c0_achieved == pytest.approx(0.2)
    assert verify_cube_axioms(space, h, tree).ok


def test_inner_ball_target_can_fail():
    space, h, _ = interval4_tree()
    tree = build_cubes(space, h, c0_target=0.5)
    check = verify_cube_axioms(space, h, tree)
    assert not check.ok and not check.inner_ok
    assert check.witness == ("inner", tree.c0_achieved)
    with pytest.raises(ParameterError):
        build_cubes(space, h, c0_target=0.0)
    with pytest.raises(ParameterError):
        build_cubes(space, h, c0_target=1.0)


def test_axioms_on_random_clouds():
    rng = np.random.default_rng(59)
    for trial in range(8):
        n = int(rng.integers(12, 50))
        coords = rng.uniform(0.0, 1.0, size=(n, 2))
        weights = rng.uniform(0.2, 1.0, size=n)
        space = MetricMeasureSpace.from_coords(range(n), coords, weights)
        h = build_nets(space, 0.5, *auto_levels(space, 0.5))
        tree = build_cubes(space, h)
        check = verify_cube_axioms(space, h, tree)
        assert check.ok, check.witness
        for cids in np.split(np.arange(len(tree.level)), tree.start[1:]):
            members = [p for cid in cids for p in cube_members(space, tree, cid)]
            assert sorted(members) == list(space.ids)  # exact partition
            level_mass = sum(tree.mass[cids])
            assert level_mass == pytest.approx(space.total_mass)
            for cid in cids.tolist():
                row = space.dists_from(int(tree.center[cid]))
                for p in cube_members(space, tree, cid):
                    assert row[space.index_of(p)] < tree.sidelength[cid]
                if tree.parent[cid] >= 0:
                    parent = cube_members(space, tree, int(tree.parent[cid]))
                    assert set(cube_members(space, tree, cid)) <= set(parent)


def test_verify_flags_tampered_cube_of():
    space, h, tree = interval4_tree()
    cube_of = tree.cube_of.copy()
    # Move point 1 from the leaf under root 0 into a leaf under root 1.
    cube_of[1, space.index_of(1)] = 5
    tampered = dataclasses.replace(tree, cube_of=cube_of)
    check = verify_cube_axioms(space, h, tampered)
    assert not check.ok
    assert not check.nesting_ok  # 1 is not a member of its new parent
    assert check.witness == ("nesting", 5, 1)


def test_verify_flags_a_point_outside_its_levels_cubes():
    space, h, tree = interval4_tree()
    cube_of = tree.cube_of.copy()
    # Point 2's level-1 entry names a level-0 cube.
    cube_of[1, space.index_of(2)] = 1
    check = verify_cube_axioms(space, h, dataclasses.replace(tree, cube_of=cube_of))
    assert not check.partition_ok
    assert check.outer_ok and check.nesting_ok and check.centers_ok
    assert check.witness == ("partition", 1, 2)


def test_verify_names_the_outer_ball_before_nesting_in_one_cube():
    coords = np.array([[0.0], [0.01], [10.0], [10.01]])
    space = MetricMeasureSpace.from_coords(range(4), coords, np.ones(4))
    with pytest.warns(UserWarning, match="several roots"):
        h = build_nets(space, 1.0 / 1000.0, 0, 1)
    tree = build_cubes(space, h)
    assert tree.center.tolist() == [0, 2, 0, 2, 1, 3]
    cube_of = tree.cube_of.copy()
    # Point 3 joins cube 4 (centre 0.01, under root 0): 10 past its
    # sidelength 0.005 and outside its parent, both at cube 4.
    cube_of[1, 3] = 4
    check = verify_cube_axioms(space, h, dataclasses.replace(tree, cube_of=cube_of))
    assert not check.outer_ok and not check.nesting_ok
    assert check.partition_ok and check.centers_ok
    assert check.witness == ("outer", 4, 3)
