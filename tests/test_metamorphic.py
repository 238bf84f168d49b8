"""Pipeline metamorphic relations: changes of input that keep the report.

A coordinate input and its distance-matrix twin give equal reports, an
order-preserving relabel of the ids (id -> 3 * id + 7) gives equal
reports up to that relabel, and a dyadic translation of a dyadic grid
gives equal reports and side files up to the tour's coordinates.  A
permutation of the ids is not a symmetry of the construction, because
the nets admit points in id order; it keeps the total mass and the
doubling constant bit for bit, since no mass depends on the order of
the points, and it keeps every verdict.
Each run goes through ``rectilib run`` on files written from a
generator's space, so the target is every point.
"""

import csv
import json

import numpy as np
import pytest

from rectilib.cli import main
from rectilib.generators import GeneratorSpec, generate
from rectilib.space import MetricMeasureSpace, save_csv

INPUTS = [
    GeneratorSpec("interval", 300, params={"holes": [(0.4, 0.6)]}),
    GeneratorSpec("cascade", 5),
    GeneratorSpec("circle", 400),
]


def run(capsys, *argv) -> tuple[int, dict]:
    """(exit code, report) of ``rectilib run`` with the given source flags."""
    code = main(["run", *argv])
    return code, json.loads(capsys.readouterr().out)


def run_points(capsys, path, ids, coords, weights, *flags) -> tuple[int, dict]:
    save_csv(MetricMeasureSpace.from_coords(ids, coords, weights), str(path))
    return run(capsys, "--input", str(path), *flags)


def run_matrix(capsys, folder, space) -> tuple[int, dict]:
    matrix, weights = folder / "matrix.csv", folder / "weights.csv"
    np.savetxt(matrix, space.distance_matrix(), delimiter=",", fmt="%.17g")
    rows = [f"{i},{w!r}\n" for i, w in zip(space.ids, space.weights.tolist())]
    weights.write_text("id,weight\n" + "".join(rows))
    return run(capsys, "--matrix", str(matrix), "--weights", str(weights))


def relabel_key(key: str) -> str:
    """A curve vertex label (``g:id`` or ``b:x:y:k``) under id -> 3 * id + 7."""
    kind, *rest = key.split(":")
    ids = [str(3 * int(v) + 7) for v in rest[:2]]
    return ":".join([kind, *ids, *rest[2:]])


def without_config(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "config"}


def ok_flags(report, path=()) -> dict:
    """Every ``ok`` entry of the report, keyed by its path."""
    flags = {}
    if isinstance(report, dict):
        for key, value in report.items():
            if key == "ok":
                flags[path] = value
            else:
                flags.update(ok_flags(value, path + (key,)))
    return flags


@pytest.mark.parametrize("spec", INPUTS, ids=lambda spec: spec.kind)
def test_a_coordinate_input_and_its_matrix_twin_give_one_report(spec, capsys, tmp_path):
    space, _ = generate(spec)
    points = run_points(capsys, tmp_path / "points.csv", space.ids, space.coords, space.weights)
    twin = run_matrix(capsys, tmp_path, space)
    assert points[0] == twin[0]
    assert without_config(points[1]) == without_config(twin[1])


@pytest.mark.parametrize("spec", INPUTS, ids=lambda spec: spec.kind)
def test_an_order_preserving_relabel_gives_the_relabelled_report(spec, capsys, tmp_path):
    space, _ = generate(spec)
    ids = np.array(space.ids)
    code, report = run_points(capsys, tmp_path / "a.csv", ids, space.coords, space.weights)
    moved_code, moved = run_points(
        capsys, tmp_path / "b.csv", 3 * ids + 7, space.coords, space.weights
    )
    assert moved_code == code
    # the only ids in a report, each following the relabel
    worst = moved["doubling"]["worst_center"]
    reps = moved["connectivity"]["representatives"]
    assert worst == 3 * report["doubling"]["worst_center"] + 7
    assert reps == [relabel_key(r) for r in report["connectivity"]["representatives"]]
    moved["doubling"]["worst_center"] = report["doubling"]["worst_center"]
    moved["connectivity"]["representatives"] = report["connectivity"]["representatives"]
    assert without_config(moved) == without_config(report)


def test_a_permutation_of_the_ids_keeps_the_masses_and_the_verdicts(capsys, tmp_path):
    """cascade 5 with its ids permuted and its rows listed by the new
    ids: the nets change, but the total mass and the doubling constant
    are the same bits, and the exit code and every ok flag the same."""
    space, _ = generate(GeneratorSpec("cascade", 5))
    n = len(space)
    new_id = np.random.default_rng(5).permutation(n)
    order = np.argsort(new_id)  # rows ascending by the new id
    code, report = run_points(capsys, tmp_path / "a.csv", space.ids, space.coords, space.weights)
    moved_code, moved = run_points(
        capsys, tmp_path / "b.csv", new_id[order], space.coords[order], space.weights[order]
    )
    assert moved["nets"] != report["nets"]  # the construction did change
    assert moved["space"]["total_mass"] == report["space"]["total_mass"]
    assert moved["doubling"]["c_hat"] == report["doubling"]["c_hat"]
    assert moved_code == code
    assert ok_flags(moved) == ok_flags(report)
    assert len(ok_flags(report)) > 5


@pytest.mark.parametrize(
    "spec, offset",
    [
        (GeneratorSpec("cascade", 5), (3.5, -1.25)),
        (GeneratorSpec("interval", 257), (0.75,)),
    ],
    ids=["cascade", "interval"],
)
def test_a_dyadic_translation_of_a_dyadic_grid_gives_the_same_files(
    spec, offset, capsys, tmp_path
):
    """cascade 5's cell centres are multiples of 1/64 and interval 257's
    points multiples of 1/256; moved by a dyadic offset, every coordinate
    and every difference of two is exact, so every distance keeps its
    bits.  ``report.json`` and ``edges.csv`` are the same, and so is
    ``tour.csv`` but for its coordinates, each moved by the offset."""
    space, _ = generate(spec)
    moved = space.coords + np.array(offset)
    assert np.array_equal(moved - np.array(offset), space.coords)
    runs = []
    for name, coords in (("a", space.coords), ("b", moved)):
        folder = tmp_path / name
        code, _ = run_points(
            capsys, tmp_path / f"{name}.csv", space.ids, coords, space.weights,
            "--out-dir", str(folder),
        )
        report = json.loads((folder / "report.json").read_text())
        with open(folder / "tour.csv", newline="") as fh:
            tour = list(csv.reader(fh))
        edges = (folder / "edges.csv").read_bytes()
        runs.append((code, without_config(report), edges, tour))
    (code, report, edges, tour), moved_run = runs
    assert code == 0
    assert moved_run[:3] == (code, report, edges)
    moved_tour = moved_run[3]
    assert moved_tour[0] == tour[0]
    assert moved_tour[1:] == [
        row[:2] + [repr(float(x) + dx) for x, dx in zip(row[2:], offset)]
        for row in tour[1:]
    ]
    assert len(tour) > len(space)  # a tour through every point
