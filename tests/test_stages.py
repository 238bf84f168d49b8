"""The stage table: each row of ``pipeline.STAGES`` names the earlier
stages whose results its function reads and the ``RunConfig`` fields it
reads, and ``run_stages`` hands a stage nothing else.

So a stage that reads an undeclared result or field fails with
AttributeError on every run, and these tests check the other direction
too: every declared read is needed on one of two small inputs.
"""

import dataclasses

import numpy as np
import pytest

from rectilib import pipeline
from rectilib.generators import GeneratorSpec, generate
from rectilib.pipeline import STAGE_NAMES, STAGES, RunConfig, closure, run_stages

HOLE = RunConfig(
    kind="interval", resolution=100, params={"holes": [[0.4, 0.6]]},
    n_min=-1, n_max=2,
)


@pytest.fixture(scope="module")
def configs(tmp_path_factory) -> list:
    """The hole interval from its generator, and as a distance matrix
    (the only input whose load reads ``weights``)."""
    space, _ = generate(GeneratorSpec("interval", 100, params=HOLE.params))
    folder = tmp_path_factory.mktemp("matrix")
    matrix, weights = folder / "m.csv", folder / "w.csv"
    np.savetxt(matrix, space.distance_matrix(), delimiter=",", fmt="%.17g")
    weights.write_text(
        "id,weight\n" + "".join(f"{i},{w!r}\n" for i, w in
                                zip(space.ids, space.weights.tolist()))
    )
    return [HOLE, dataclasses.replace(
        HOLE, kind=None, params={}, matrix=str(matrix), weights=str(weights)
    )]


def test_rows_read_earlier_stages_and_run_config_fields():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    for k, (name, _, _, reads, read_fields) in enumerate(STAGES):
        assert set(reads) <= set(STAGE_NAMES[:k]), name
        assert set(read_fields) <= fields, name


@pytest.mark.parametrize("name", STAGE_NAMES)
def test_each_stage_runs_on_what_its_row_declares(configs, name):
    for cfg in configs:
        ctx, report, failures, timings = run_stages(cfg, (name,))
        assert [stage for stage, _ in timings] == [
            row[0] for row in closure((name,))
        ]
        assert failures == []


def test_closure_adds_what_the_named_stages_read():
    assert [row[0] for row in closure(("gamma",))] == [
        "load", "validate", "doubling", "nets", "cubes", "porous", "bridges",
        "gamma",
    ]
    assert closure(STAGE_NAMES) == STAGES
    assert closure(()) == ()


DROPS = [
    (k, column, item)
    for k, row in enumerate(STAGES)
    for column in (3, 4)
    for item in row[column]
]


@pytest.mark.parametrize(
    "k, column, item", DROPS,
    ids=[f"{STAGES[k][0]}-{item}" for k, _, item in DROPS],
)
def test_every_declared_read_is_needed(monkeypatch, configs, k, column, item):
    """Dropping one declared stage or field from a row makes that stage
    fail on one of the inputs."""
    row = list(STAGES[k])
    row[column] = tuple(x for x in row[column] if x != item)
    table = STAGES[:k] + (tuple(row),) + STAGES[k + 1:]
    monkeypatch.setattr(pipeline, "STAGES", table)
    failed = []
    for cfg in configs:
        try:
            run_stages(cfg, (row[0],))
        except AttributeError as exc:
            failed.append(str(exc))
    assert failed
