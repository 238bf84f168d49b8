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


def interval4_tree():
    space, _ = generate(GeneratorSpec("interval", 4))
    h = build_nets(space, 1.0 / 3.0, 0, 1)
    return space, h, build_cubes(space, h)


def test_four_point_trace():
    space, h, tree = interval4_tree()
    assert tree.by_level == {0: (0, 1), 1: (2, 3, 4, 5)}
    root0 = tree.cubes[0]
    assert root0.center == 0 and root0.members == (0, 1)
    assert root0.sidelength == pytest.approx(SIDELENGTH_FACTOR)
    assert root0.children == (2, 4) and root0.parent is None
    root1 = tree.cubes[1]
    assert root1.center == 3 and root1.members == (2, 3)
    leaves = {tree.cubes[cid].center: tree.cubes[cid] for cid in tree.by_level[1]}
    assert leaves[1].parent == 0 and leaves[2].parent == 1
    assert all(len(leaves[c].members) == 1 for c in leaves)
    # Tightest inner ball: root at center 0 has a non-member at 2/3,
    # against sidelength 5.
    assert tree.c0_achieved == pytest.approx(2.0 / 15.0)
    assert verify_cube_axioms(space, h, tree).ok


def test_descendants_preorder():
    _, _, tree = interval4_tree()
    assert tree.descendants(0) == [0, 2, 4]
    assert tree.descendants(1) == [1, 3, 5]
    assert tree.descendants(4) == [4]


def test_micro_space_with_extreme_ratio():
    coords = np.array([[0.0], [0.001], [0.002], [0.51], [0.512]])
    space = MetricMeasureSpace.from_coords(range(5), coords, np.ones(5))
    h = build_nets(space, 1.0 / 1000.0, 0, 1)
    tree = build_cubes(space, h)
    assert h.levels[0] == (0,)
    assert len(tree.by_level[1]) == 5  # every point is its own fine cube
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
        for level, cids in tree.by_level.items():
            members = [p for cid in cids for p in tree.cubes[cid].members]
            assert sorted(members) == list(space.ids)  # exact partition
            level_mass = sum(tree.cubes[cid].mass for cid in cids)
            assert level_mass == pytest.approx(space.total_mass)
            for cid in cids:
                cube = tree.cubes[cid]
                row = space.dists_from(space.index_of(cube.center))
                for p in cube.members:
                    assert row[space.index_of(p)] < cube.sidelength
                if cube.parent is not None:
                    parent = tree.cubes[cube.parent]
                    assert set(cube.members) <= set(parent.members)


def test_verify_flags_tampered_membership():
    space, h, tree = interval4_tree()
    cubes = list(tree.cubes)
    # Move point 1 from the leaf under root 0 into a leaf under root 1.
    cubes[4] = dataclasses.replace(cubes[4], members=())
    cubes[5] = dataclasses.replace(cubes[5], members=(1, 2))
    tampered = dataclasses.replace(tree, cubes=tuple(cubes))
    check = verify_cube_axioms(space, h, tampered)
    assert not check.ok
    assert not check.nesting_ok  # 1 is not a member of its new parent

