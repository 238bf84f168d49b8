"""Pinned SHA-256 hashes of default runs' reports and side files.

A change that keeps the construction must keep every byte: the JSON
report of a run without ``out_dir`` (``report_json``) and the
``density.csv``, ``edges.csv`` and ``tour.csv`` a run with one writes.
Only the interval inputs have porous cubes, so they are the ones that
reach the porous family, the shadows, the packing check and the
bridges; cantor4 3 has a disconnected curve and writes no tour.  A
change that alters a report on purpose re-pins its hashes and says why.

A generator's ids are its point indices, so a label that printed an
index in place of an id would keep those pins.  Two more runs read
files whose ids are not indices: the 300-point interval with a hole,
ids ``3 * i + 7`` in a shuffled row order, once as a point CSV and once
as that space's distance matrix, which has no coordinates for the tour.
A file carries no target, so their target is every point.  Their
reports are hashed without the ``config`` key, which names the files.

The ``porous`` view's stdout is pinned too: it lists the porous family
that the report only counts.  So is the shadow map's message for a
failed scale comparison.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from rectilib.cli import main
from rectilib.cubes import build_cubes
from rectilib.generators import GeneratorSpec, generate
from rectilib.nets import build_nets
from rectilib.pipeline import RunConfig, report_json, run_pipeline
from rectilib.porosity import (
    PorosityConfig,
    dist_to_set,
    find_porous,
    shadow_map,
)
from rectilib.space import MetricMeasureSpace, load_csv, save_csv

SIDE_FILES = ("density.csv", "edges.csv", "tour.csv")

CASES = {
    "interval-hole-1000": dict(
        kind="interval", resolution=1000, params={"holes": [[0.4, 0.6]]}
    ),
    "interval-three-holes-1000": dict(
        kind="interval", resolution=1000,
        params={"holes": [[0.2, 0.3], [0.5, 0.55], [0.7, 0.9]]},
    ),
    "cascade-5": dict(kind="cascade", resolution=5),
    "koch-3": dict(kind="koch", resolution=3),
    "grid2d-16": dict(kind="grid2d", resolution=16),
    "cantor4-3": dict(kind="cantor4", resolution=3),
}

PINS = {
    "interval-hole-1000": {
        "report":
            "636c90da244f8306726ecf11b516825c68b692d9608e0069eb97c691d38f76a6",
        "density.csv":
            "466bc01729108b30fcaf4278d0b4b9a8a681d89a38ea358a06e108e28c05d553",
        "edges.csv":
            "13b0af9aef82ad59464734892eebe812b91926cf58cf7f6579847bb1499d9404",
        "tour.csv":
            "bb646cbf00efad526c7c090f8455c97085074fc64512f863681c8433fe9f8a00",
    },
    "interval-three-holes-1000": {
        "report":
            "6d7f621a1e94dcabaa44bfb397c6ccc132dd725246b512a044cc7c9f153ecaa6",
        "density.csv":
            "25e41d2cb7399702a09c878b67d814f330710596c8c60bb5b3344d6d14e2e892",
        "edges.csv":
            "c4c27c1c14321515506af4d921e323399cd42825ebb4d60a7cdc101fdd28be2a",
        "tour.csv":
            "a9ce44a05379c42c33fca79b3bb867ec30202956d785f7dbc7ffef4b08678b53",
    },
    "cascade-5": {
        "report":
            "a4ccaf681f82220239d5456a98e0d9dfadfb89c35fc8e24a8a74a2fc5c88aded",
        "density.csv":
            "e2a1b4b33080ead984306516560531d143621c3a220eddce6e112ad888dec458",
        "edges.csv":
            "0d4d7562b6048874b3bbcab1d2d67ae8e8b613f722bfb4f11555442e9ca26ceb",
        "tour.csv":
            "39d49960e392151279da9a58d105bd7ffa60bcf3f08191a18dd7e4244f7393fb",
    },
    "koch-3": {
        "report":
            "e3c7798ff878194144c9d865b048687afa7c585b2f68d84ed06ecd8f9036fbd6",
        "density.csv":
            "b953400d4d3a2e98c213cacc3a6cbcffef2a5e32dcd040fb69536623ef71058a",
        "edges.csv":
            "b0378d48e552714bf408cd63dbf75571d734f6688dc3de88b398e4b2036130d8",
        "tour.csv":
            "20b287d2cff42f01f631e4bc7d524734cebf610c9b6adb7461f87a44cf196a24",
    },
    "grid2d-16": {
        "report":
            "7310ecb0bf75e59e3578397a73c390cca4fe029801b3b39af1c448bb6cbab636",
        "density.csv":
            "114db46df6d217392a12d3d08a9416340ebab8edc2ab652299dbd8c8c7ce2c15",
        "edges.csv":
            "1a921cb73decae1e3318e836e6f3d67692eeb13162547353293fc92ae2132dfc",
        "tour.csv":
            "1575fa682323c15ade4ea21e3f7fb0f30728594db7b2c077d38158baa5505496",
    },
    "cantor4-3": {
        "report":
            "4b78dead1fd1692ea2607dc95f0ca3ad385356d994825c2dc19ed7d1d7187e72",
        "density.csv":
            "853324d549fd2e5a0b1511df8a5b1e8362e7d3169670a2d1b26e1831603483f7",
        "edges.csv":
            "b934c8e6b686b33191513ffc22cd8b7547a574f421bb370a83b9fe91a8baab89",
    },
}


FILE_PINS = {
    "points": {
        "report":
            "a7b49a49a74fb73c2bf9d57c3cc895dd439e86c18168c7782cf7988a2d91041b",
        "density.csv":
            "0bf5df2c0fe4ce198152a2a0fc7a8daffe30fe197dd87e39dd4405889718d05f",
        "edges.csv":
            "3fbfe5ffc9fafa8f95a0c43f86f5d179041c6992e318b4cfa25d2a00eb589a26",
        "tour.csv":
            "55e383b1c21f458d9c5c87b55fb494591a33816116ca30ceb1d227d9093b2f98",
    },
    "matrix": {
        "report":
            "a7b49a49a74fb73c2bf9d57c3cc895dd439e86c18168c7782cf7988a2d91041b",
        "density.csv":
            "0bf5df2c0fe4ce198152a2a0fc7a8daffe30fe197dd87e39dd4405889718d05f",
        "edges.csv":
            "3fbfe5ffc9fafa8f95a0c43f86f5d179041c6992e318b4cfa25d2a00eb589a26",
        "tour.csv":
            "94d197962dd9224b7599e1a3a0b4b58ae87c99dad2e81aff87bcf2eb4ffb8318",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def side_file_hashes(folder) -> dict[str, str]:
    return {
        side: sha256((folder / side).read_bytes())
        for side in SIDE_FILES
        if (folder / side).exists()
    }


@pytest.mark.parametrize("name", list(CASES))
def test_reports_and_side_files_keep_their_pinned_bytes(name, tmp_path):
    report, _, _ = run_pipeline(RunConfig(**CASES[name]))
    got = {"report": sha256(report_json(report).encode())}
    run_pipeline(RunConfig(**CASES[name], out_dir=str(tmp_path)))
    assert {**got, **side_file_hashes(tmp_path)} == PINS[name]


def write_inputs(folder) -> dict[str, dict]:
    """The id-mapped point CSV and its matrix twin, as RunConfig sources."""
    space, _ = generate(GeneratorSpec("interval", 300, {"holes": [[0.4, 0.6]]}))
    rows = np.random.default_rng(0).permutation(len(space))
    points = folder / "points.csv"
    save_csv(
        MetricMeasureSpace.from_coords(
            [3 * i + 7 for i in rows.tolist()],
            space.coords[rows],
            space.weights[rows],
        ),
        str(points),
    )
    shuffled = load_csv(str(points))
    matrix, weights = folder / "matrix.csv", folder / "weights.csv"
    np.savetxt(matrix, shuffled.distance_matrix(), delimiter=",", fmt="%.17g")
    weights.write_text("id,weight\n" + "".join(
        f"{i},{w!r}\n" for i, w in zip(shuffled.ids, shuffled.weights.tolist())
    ))
    return {
        "points": dict(input=str(points)),
        "matrix": dict(matrix=str(matrix), weights=str(weights)),
    }


@pytest.mark.parametrize("name", list(FILE_PINS))
def test_runs_on_ids_that_are_not_indices_keep_their_pinned_bytes(
    name, tmp_path
):
    source = write_inputs(tmp_path)[name]
    out = tmp_path / "out"
    report, _, _ = run_pipeline(RunConfig(**source, out_dir=str(out)))
    del report["config"]
    got = {"report": sha256(report_json(report).encode())}
    assert {**got, **side_file_hashes(out)} == FILE_PINS[name]


# the porous view prints the family the run report only counts
VIEW_PINS = {
    "porous interval-hole-1000": (
        ["porous", "--kind", "interval", "--resolution", "1000",
         "--params", '{"holes": [[0.4, 0.6]]}'],
        "6529748a09f1ae21b387d135e3801771c628dc8cab21e81294f041ffab3b53d7",
    ),
}


@pytest.mark.parametrize("name", list(VIEW_PINS))
def test_view_stdout_keeps_its_pinned_bytes(name, capsys):
    argv, pin = VIEW_PINS[name]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == pin


# No pipeline run at hand fails a shadow scale comparison, so the
# violation string is pinned on the 100-point interval with a hole: its
# family found at the reference parameters, then mapped with one
# parameter broken.
SHADOW_PINS = {
    "lower": (
        {"delta": 1e6},
        "28c787dcf9e57c0838f30177b4368415afd52ed2d1f9c3aabb97cd6df3aa6e65",
    ),
    "upper": (
        {"M": 1e-9},
        "2513f97fc2654c2b8e5c71481d3c5278dd74ec3f6277c110aedec948130ab8e9",
    ),
}


@pytest.mark.parametrize("name", list(SHADOW_PINS))
def test_shadow_violation_keeps_its_pinned_bytes(name):
    broken, pin = SHADOW_PINS[name]
    space, target = generate(
        GeneratorSpec("interval", 100, {"holes": [[0.4, 0.6]]})
    )
    cfg = PorosityConfig(M=11.0, delta=0.003, n0=2, rho=1 / 16, C_mu=2.0)
    tree = build_cubes(space, build_nets(space, cfg.rho, -1, 2))
    gap = dist_to_set(space, target.members)
    family = find_porous(space, tree, target, gap, cfg)
    report = shadow_map(tree, gap, family, dataclasses.replace(cfg, **broken))
    assert sha256(report.violation.encode()) == pin
