"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def _report(failures: list[str], extra: str = "") -> bytes:
    doc = {"schema": 1, "invariant_failures": failures, "note": extra}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _run(code: int, report: bytes | None) -> dict:
    return {"code": code, "stdout": report or b"", "report": report}


# -- correctness check -------------------------------------------------


def test_check_run_accepts_exit_code_matching_invariants():
    assert run.check_run(0, _report([]), _report([])) is None
    assert run.check_run(1, _report(["budget"]), _report(["budget"])) is None


@pytest.mark.parametrize(
    "code, stdout, report",
    [
        (1, _report([]), _report([])),  # exit 1 with no failure listed
        (0, _report(["budget"]), _report(["budget"])),  # failure but exit 0
        (2, b"", None),  # bad input: no report
        (0, b"", b"{not json"),
        (0, _report([]), _report([]).replace(b'"schema": 1', b'"schema": 2')),
        (0, b"other", _report([])),  # stdout is not the report
    ],
)
def test_check_run_rejects(code, stdout, report):
    assert run.check_run(code, stdout, report) is not None


def test_changed_hash_and_exit_2_count_as_failures():
    good = _report(["budget"])
    runs = [_run(1, good), _run(1, good), _run(1, _report(["budget"], "changed")), _run(2, None)]
    reference, errors = run.judge(runs)
    assert reference == hashlib.sha256(good).hexdigest()
    assert [e is None for e in errors] == [True, True, False, False]
    assert "sha256" in errors[2]


def test_rectilib_run_that_exits_2_is_a_failure(tmp_path):
    # a matrix without its weights file is a configuration error: exit 2
    code, wall, rss = run.spawn(
        [sys.executable, "-c", "import sys; from rectilib.cli import main; sys.exit(main())",
         "run", "--matrix", "no-such-matrix.csv", "--out-dir", str(tmp_path / "out")],
        tmp_path / "out.txt",
        tmp_path / "err.txt",
    )
    assert code == 2 and wall > 0 and rss > 0
    report = tmp_path / "out" / "report.json"
    assert not report.exists()
    _, errors = run.judge([_run(code, None)])
    assert errors[0] is not None


# -- inputs --------------------------------------------------------------


def test_inputs_are_deterministic_per_seed():
    assert run.interval_holes_4k(0)["params"] == {"holes": [[0.4, 0.6]]}
    for seed in (1, 2, 7):
        (lo, hi), = run.interval_holes_4k(seed)["params"]["holes"]
        assert 0.2 <= lo and hi <= 0.8 and hi - lo == pytest.approx(0.2)
        assert run.polyline_10k(seed) == run.polyline_10k(seed)
    assert run.polyline_10k(1) != run.polyline_10k(2)


def test_polyline_has_fixed_length_inside_unit_square():
    for seed in range(5):
        pts = run.polyline(seed)
        assert pts.shape == (5, 2)
        assert pts.min() >= 0 and pts.max() <= 1
        length = np.sqrt((np.diff(pts, axis=0) ** 2).sum(axis=1)).sum()
        assert length == pytest.approx(4 * run.SEGMENT)


def test_matrix_input_is_exact_and_symmetric():
    coords = run.sample_polyline(run.polyline(3), 50)
    dist = run._pairwise(coords)
    assert np.array_equal(dist, dist.T) and not np.diag(dist).any()


# -- tracer --------------------------------------------------------------


def _bindings() -> dict:
    """Every attribute of every rectilib module and class, by identity."""
    out = {}
    for mod in tracer.package_modules():
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, raw in vars(obj).items():
                    out[(mod.__name__, attr, meth)] = raw
    return out


def test_tracer_restores_every_original():
    from rectilib import pipeline
    from rectilib.space import MetricMeasureSpace

    before = _bindings()
    original_row = MetricMeasureSpace.dists_from
    with tracer.Tracer() as t:
        assert MetricMeasureSpace.dists_from is not original_row
        assert pipeline.find_porous is not before[("rectilib.pipeline", "find_porous")]
        assert pipeline.find_porous is sys.modules["rectilib.porosity"].find_porous
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert t.edges == {}


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_tracer_self_times_partition_the_run():
    from rectilib import pipeline

    cfg = pipeline.RunConfig(kind="interval", resolution=64, params={"holes": [(0.4, 0.6)]})
    with tracer.Tracer() as t:
        report, _, _ = pipeline.run_pipeline(cfg)
    plain, _, _ = pipeline.run_pipeline(cfg)
    assert pipeline.report_json(report) == pipeline.report_json(plain)
    records = t.records()
    (root,) = [r for r in records if r["parent"] is None]
    assert root["name"] == "pipeline.run_pipeline"
    assert sum(r["self_s"] for r in records) == pytest.approx(root["total_s"], rel=1e-9)
    rows = sum(r["calls"] for r in records if r["name"].endswith("dists_from"))
    assert rows > 0
    assert any(r["parent"] == "porosity.dist_to_set" for r in records)
