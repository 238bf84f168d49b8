"""End-to-end tests for the command line interface.

Every test drives ``rectilib.cli.main`` in process and inspects the JSON
payload on stdout, the exit code, and any side files.  Numeric values are
frozen from deterministic runs; the underlying math is covered by the
per-module tests.
"""

import argparse
import csv
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from _oracles import adjacency_forest_rows
from rectilib.cli import FIELDS, VIEWS, _run_config, build_parser, finite, main
from rectilib.density import density_profiles
from rectilib.generators import GeneratorSpec, generate
from rectilib.pipeline import STAGES, RunConfig, closure
from rectilib.space import load_csv

HOLE_ARGS = [
    "--kind", "interval", "--resolution", "100",
    "--params", '{"holes": [[0.4, 0.6]]}',
    "--rho", "0.0625", "--n-min", "-1", "--n-max", "2",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


def test_gen_writes_loadable_csv(capsys, tmp_path):
    out_path = str(tmp_path / "pts.csv")
    code, payload, _ = run_json(
        capsys,
        ["gen", "--kind", "circle", "--resolution", "32", "--out", out_path],
    )
    assert code == 0
    assert set(payload) == {"schema", "config", "space"}
    space = payload["space"]
    assert space["points"] == 32
    assert space["target_size"] == 32
    reloaded = load_csv(out_path)
    assert len(reloaded) == 32
    assert reloaded.total_mass == pytest.approx(space["total_mass"])
    assert reloaded.diameter() == pytest.approx(space["diameter"])


def test_gen_reads_json_points(capsys, tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(
        [{"id": i, "coords": [i / 3.0], "weight": 1.0} for i in range(4)]
    ))
    code, payload, _ = run_json(capsys, ["gen", "--input", str(pts)])
    assert code == 0
    assert payload["space"]["points"] == 4
    assert payload["space"]["total_mass"] == pytest.approx(4.0)
    assert payload["space"]["diameter"] == pytest.approx(1.0)


def test_source_selection_is_exclusive(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["gen"])
    assert code == 2
    assert out == ""
    assert "error:" in err

    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([{"id": 0, "coords": [0.0], "weight": 1.0}]))
    code, out, err = run_cli(
        capsys, ["gen", "--kind", "interval", "--input", str(pts)]
    )
    assert code == 2
    assert "exactly one" in err


def test_nets_reports_level_sizes(capsys):
    code, payload, _ = run_json(
        capsys,
        ["nets", "--kind", "interval", "--resolution", "64", "--rho", "0.25"],
    )
    assert code == 0
    assert payload["config"]["rho"] == pytest.approx(0.25)
    nets = payload["nets"]
    assert nets["levels"] == {"-1": 1, "0": 1, "1": 4, "2": 16}
    assert nets["separation_ok"] and nets["covering_ok"]
    assert nets["ok"] is True


@pytest.mark.parametrize(
    "flag, value, levels",
    [
        ("--n-min", "-3", {"-3": 1, "-2": 1, "-1": 1, "0": 1, "1": 16}),
        ("--n-max", "3", {"-1": 1, "0": 1, "1": 16, "2": 64, "3": 64}),
    ],
    ids=["n-min", "n-max"],
)
def test_one_level_flag_keeps_the_other_automatic_end(capsys, flag, value, levels):
    base = ["nets", "--kind", "interval", "--resolution", "64"]
    code, payload, _ = run_json(capsys, base)
    assert code == 0
    assert payload["nets"]["levels"] == {"-1": 1, "0": 1, "1": 16}
    code, payload, _ = run_json(capsys, [*base, flag, value])
    assert code == 0
    assert payload["nets"]["levels"] == levels
    assert payload["config"][flag[2:].replace("-", "_")] == int(value)


@pytest.mark.parametrize(
    "flag, value, levels",
    [("--n-min", "2", "2..1"), ("--n-max", "-2", "-1..-2")],
    ids=["n-min", "n-max"],
)
def test_one_level_flag_past_the_other_end_exits_2(capsys, flag, value, levels):
    code, out, err = run_cli(
        capsys, ["nets", "--kind", "interval", "--resolution", "64", flag, value]
    )
    assert code == 2 and out == ""
    assert f"n_max must be >= n_min, got {levels}" in err


def test_nets_accepts_matrix_input(capsys, tmp_path):
    matrix = tmp_path / "m.csv"
    weights = tmp_path / "w.csv"
    matrix.write_text("0,1,2\n1,0,1\n2,1,0\n")
    weights.write_text("id,weight\n0,1\n1,1\n2,1\n")
    code, payload, _ = run_json(
        capsys,
        ["nets", "--matrix", str(matrix), "--weights", str(weights),
         "--rho", "0.5"],
    )
    assert code == 0
    assert payload["nets"]["levels"] == {"-2": 1, "-1": 1, "0": 3}
    assert payload["nets"]["ok"] is True

    code, out, err = run_cli(
        capsys, ["nets", "--matrix", str(matrix), "--rho", "0.5"]
    )
    assert code == 2
    assert "weights" in err


def test_cubes_reports_tree_shape(capsys):
    code, payload, _ = run_json(
        capsys,
        ["cubes", "--kind", "interval", "--resolution", "64",
         "--rho", "0.25"],
    )
    assert code == 0
    cubes = payload["cubes"]
    assert cubes["count"] == 22
    assert cubes["per_level"] == {"-1": 1, "0": 1, "1": 4, "2": 16}
    assert payload["config"]["c0"] == pytest.approx(1 / 500)
    assert cubes["c0_achieved"] == pytest.approx(0.07619047619047618)
    assert cubes["ok"] is True


def test_density_profiles_selected_points(capsys, tmp_path):
    out_path = str(tmp_path / "density.csv")
    code, payload, _ = run_json(
        capsys,
        ["density", "--kind", "interval", "--resolution", "32",
         "--points", "9,0,5", "--out", out_path],
    )
    assert code == 0
    assert payload["profiled"] == 3
    assert payload["lower_min"] == pytest.approx(2.0)
    assert payload["lower_max"] == pytest.approx(2.0)
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["id"] for row in rows] == ["0", "5", "9"]
    assert all(float(row["lower_estimate"]) == pytest.approx(2.0)
               for row in rows)


@pytest.mark.parametrize(
    "points, message",
    [(",", "names no point ids"), ("", "names no point ids"),
     ("0,x", "must be integers"), ("1,5,1,1", "names id 1 more than once")],
)
def test_density_rejects_bad_point_lists(capsys, points, message):
    code, out, err = run_cli(
        capsys,
        ["density", "--kind", "interval", "--resolution", "32",
         "--points", points],
    )
    assert code == 2
    assert out == ""
    assert message in err


def test_density_median_is_the_median(capsys):
    # four profiles: the median averages the two middle lower estimates,
    # as the run report's density section does
    points = [0, 700, 2100, 3500]
    code, payload, _ = run_json(
        capsys,
        ["density", "--kind", "cascade", "--resolution", "6",
         "--points", ",".join(map(str, points))],
    )
    assert code == 0
    space, _ = generate(GeneratorSpec("cascade", 6))
    lows = density_profiles(
        space, points, payload["r_lo"], payload["r_hi"]
    ).lower
    assert payload["lower_median"] == float(np.median(lows))
    assert payload["lower_median"] == pytest.approx(0.0372382634023727)


def test_beta2_label_and_members(capsys):
    code, payload, _ = run_json(
        capsys,
        ["beta2", "--kind", "grid2d", "--resolution", "3",
         "--label", "grid"],
    )
    assert code == 0
    assert payload["label"] == "grid"
    assert payload["members"] == 9
    assert payload["beta2"] == pytest.approx(0.2886751345948129)

    code, payload, _ = run_json(
        capsys,
        ["beta2", "--kind", "grid2d", "--resolution", "3",
         "--members", "0,1"],
    )
    assert code == 0
    assert payload["members"] == 2
    assert payload["beta2"] <= 1e-12


def test_porous_reports_family_and_packing(capsys):
    code, payload, _ = run_json(capsys, ["porous", *HOLE_ARGS])
    assert code == 0
    assert len(payload["family"]) == 55
    for entry in payload["family"]:
        assert set(entry) == {"cube", "witness", "witness_gap"}
        assert entry["witness_gap"] > 0
    assert payload["porous"]["count"] == 55
    shadow, carleson = payload["shadow"], payload["carleson"]
    assert shadow["antichain"] == 14
    assert shadow["b_observed"] == 36
    assert shadow["failures"] == 6
    assert carleson["worst_ratio"] == pytest.approx(2.28)
    assert carleson["worst_ratio"] <= carleson["C1"]
    assert shadow["ok"] is True
    assert carleson["ok"] is True


def test_porous_invalid_config_exits_2_with_violations(capsys):
    code, payload, _ = run_json(
        capsys,
        ["porous", "--kind", "interval", "--resolution", "50",
         "--rho", "0.25"],
    )
    assert code == 2
    assert payload["validation"]["ok"] is False
    assert payload["validation"]["violations"] == [
        "rho < 3/(M+1)", "1/rho > M", "5*M*rho^n0 < 1",
    ]


def test_porous_strict_rejects_coarse_rho(capsys):
    code, payload, _ = run_json(
        capsys,
        ["porous", "--kind", "interval", "--resolution", "50", "--strict"],
    )
    assert code == 2
    assert payload["validation"]["violations"] == ["rho < 1/1000"]


def test_curve_builds_connected_graph(capsys, tmp_path):
    edges_path = str(tmp_path / "edges.csv")
    code, payload, _ = run_json(
        capsys,
        ["curve", *HOLE_ARGS, "--eps-res", "0.0222222",
         "--edges-out", edges_path],
    )
    assert code == 0
    assert payload["gamma"]["vertices"] == 100
    assert payload["gamma"]["edges"] == 198
    assert payload["connectivity"]["components"] == 1
    budget = payload["budget"]
    assert budget["ok"] is True
    assert budget["e_vacuous"] is False
    assert budget["e_part"] <= budget["bound_e"]
    assert budget["bridge_part"] <= budget["bound_bridge"]
    with open(edges_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == payload["gamma"]["edges"]
    # the adjacency rows are the forest of the row-based pairs
    space, _ = generate(
        GeneratorSpec("interval", 100, params={"holes": [[0.4, 0.6]]})
    )
    ground = sorted(
        {int(r[end][2:]) for r in rows for end in "uv"}
    )
    forest = adjacency_forest_rows(space, ground, 0.0222222)
    adjacency = [r for r in rows if r["provenance"] == "E-adjacency"]
    assert [(r["u"], r["v"], float(r["length"])) for r in adjacency] == [
        (f"g:{ground[a]}", f"g:{ground[b]}", d) for a, b, d in forest
    ]
    # each bridge is one edge between two ground points
    assert payload["gamma"]["vertices"] == len(ground)
    bridged = len(rows) - len(adjacency)
    assert bridged == payload["bridges"]["pairs"] == payload["bridges"]["edges"]


def test_param_round_trip_tour(capsys, tmp_path):
    tour_path = str(tmp_path / "tour.csv")
    code, payload, _ = run_json(
        capsys,
        ["param", "--kind", "interval", "--resolution", "32",
         "--tour-out", tour_path],
    )
    assert code == 0
    tour, check = payload["parametrization"], payload["param_check"]
    assert tour["visits"] == 63
    assert tour["tree_length"] == pytest.approx(1.0)
    assert tour["lip_bound"] == pytest.approx(2.0)
    assert check["surjective"] is True
    assert check["ok"] is True
    with open(tour_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == tour["visits"]
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[-1]["t"]) == 1.0


def test_param_disconnected_exits_1(capsys):
    code, payload, _ = run_json(
        capsys, ["param", "--kind", "cantor4", "--resolution", "3"]
    )
    assert code == 1
    assert "components" in payload["parametrization"]["skipped"]
    assert "skipped" in payload["param_check"]


def test_run_report_is_deterministic(capsys):
    argv = ["run", *HOLE_ARGS, "--eps-res", "0.0222222"]
    code_a, out_a, err_a = run_cli(capsys, argv)
    code_b, out_b, _ = run_cli(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    report = json.loads(out_a)
    assert report["ok"] is True
    assert report["invariant_failures"] == []
    assert report["connectivity"]["components"] == 1
    assert report["param_check"]["ok"] is True
    for line in err_a.strip().splitlines():
        name, seconds = line.split("\t")
        float(seconds)


def test_run_writes_side_files(capsys, tmp_path):
    out_dir = str(tmp_path / "outs")
    code, out, _ = run_cli(
        capsys,
        ["run", *HOLE_ARGS, "--eps-res", "0.0222222", "--out-dir", out_dir],
    )
    assert code == 0
    names = sorted(os.listdir(out_dir))
    assert names == [
        "density.csv", "edges.csv", "report.json", "timings.txt", "tour.csv",
    ]
    with open(os.path.join(out_dir, "report.json")) as fh:
        assert fh.read() == out
    report = json.loads(out)
    with open(os.path.join(out_dir, "edges.csv"), newline="") as fh:
        assert len(list(csv.DictReader(fh))) == report["gamma"]["edges"]
    with open(os.path.join(out_dir, "tour.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == report["parametrization"]["visits"]
    with open(os.path.join(out_dir, "timings.txt")) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) >= 10
    assert all("\t" in line for line in lines)


def test_run_names_the_failed_budget_inequality(capsys, tmp_path):
    """A line of ten clusters, each of 40 points 1 apart; points of
    clusters c and c' are |c - c'| apart.  Each cluster weighs 2, so an
    open ball of radius r >= 2 about any point holds at least r clusters
    and the mass check passes; but the 400 points are pairwise at least
    1 apart, so any tree through them is at least 399 long, against
    10 mu(E) = 200.  Below twice the smallest gap, where the check does
    not look, a cluster is a 39-simplex, not a piece of curve."""
    cluster = np.repeat(np.arange(10), 40)
    dist = np.abs(cluster[:, None] - cluster[None, :]).astype(float)
    dist[dist == 0] = 1.0
    np.fill_diagonal(dist, 0.0)
    matrix, weights = tmp_path / "m.csv", tmp_path / "w.csv"
    np.savetxt(matrix, dist, delimiter=",", fmt="%g")
    weights.write_text(
        "id,weight\n" + "".join(f"{i},0.05\n" for i in range(400))
    )
    code, report, _ = run_json(
        capsys, ["run", "--matrix", str(matrix), "--weights", str(weights)]
    )
    budget = report["budget"]
    assert code == 1
    assert budget["mass_check_ok"] is True and budget["e_vacuous"] is False
    assert budget["e_part"] == 399.0
    assert budget["bound_e"] == pytest.approx(200.0)
    assert budget["e_part"] > budget["bound_e"]
    assert report["invariant_failures"] == [
        f"budget: e_part {budget['e_part']!r} > bound_e {budget['bound_e']!r}"
    ]


def test_run_skips_parametrization_when_disconnected(capsys):
    code, payload, _ = run_json(
        capsys, ["run", "--kind", "cantor4", "--resolution", "3"]
    )
    assert code == 0
    assert payload["connectivity"]["components"] == 16
    assert "skipped" in payload["parametrization"]
    assert "components" in payload["parametrization"]["skipped"]
    assert "skipped" in payload["param_check"]
    assert payload["invariant_failures"] == []
    assert payload["ok"] is True


def test_small_circles_run_or_stop_only_at_the_doubling_estimate(capsys):
    """Every circle resolution ``generate`` accepts loads: below 26
    points its mass check grid is empty, and a run either exits 0 or
    stops where a doubling estimate needs more points."""
    stopped = []
    for n in range(2, 33):
        code, out, err = run_cli(capsys, ["run", "--kind", "circle", "--resolution", str(n)])
        if code == 0:
            assert json.loads(out)["ok"] is True
        else:
            assert (code, out) == (2, "")
            assert err == "error: stage doubling: space too small for a doubling estimate\n"
            stopped.append(n)
    assert stopped == list(range(2, 13))


def test_run_invalid_config_prints_validation(capsys):
    code, payload, err = run_json(
        capsys,
        ["run", "--kind", "interval", "--resolution", "50", "--rho", "0.25"],
    )
    assert code == 2
    assert payload["validation"]["ok"] is False
    assert payload["validation"]["violations"] == [
        "rho < 3/(M+1)", "1/rho > M", "5*M*rho^n0 < 1",
    ]
    assert "doubling" not in payload
    assert "stage validate" in err


# Each view gets the flags it accepts from HOLE_ARGS + --eps-res.
EPS_ARGS = ["--eps-res", "0.0222222"]
VIEW_ARGS = {
    "gen": HOLE_ARGS[:6],
    "nets": HOLE_ARGS,
    "cubes": HOLE_ARGS,
    "porous": HOLE_ARGS,
    "curve": HOLE_ARGS + EPS_ARGS,
    "param": HOLE_ARGS + EPS_ARGS,
}


@pytest.mark.parametrize("view", sorted(VIEW_ARGS))
def test_view_sections_match_run(capsys, view):
    argv = VIEW_ARGS[view]
    code, payload, _ = run_json(capsys, [view, *argv])
    _, report, _ = run_json(capsys, ["run", *argv])
    assert code == 0
    extra = {"family"} if view == "porous" else set()
    assert set(payload) - extra <= set(report)
    assert {"schema", "config", "space"} <= set(payload)
    for key in set(payload) - extra:
        assert payload[key] == report[key], key


def test_curve_default_eps_res_matches_run(capsys):
    code, payload, _ = run_json(capsys, ["curve", *HOLE_ARGS])
    run_code, report, _ = run_json(capsys, ["run", *HOLE_ARGS])
    assert code == run_code
    assert payload["gamma"]["eps_res"] == report["gamma"]["eps_res"]
    assert payload["gamma"] == report["gamma"]


def test_every_run_config_field_is_one_run_flag():
    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    dests = [
        a.dest
        for a in commands.choices["run"]._actions
        if not isinstance(a, argparse._HelpAction)
    ]
    assert len(dests) == len(set(dests))
    assert set(dests) == {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize(
    "command", ["gen", "nets", "cubes", "density", "porous", "curve", "run"]
)
def test_flags_left_out_keep_the_run_config_defaults(command):
    args = build_parser().parse_args([command, "--kind", "interval"])
    assert _run_config(args) == RunConfig(kind="interval")


def test_params_that_are_not_json_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--kind", "interval", "--params", "{bad"])
    assert exc.value.code == 2
    assert "--params" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, params, named",
    [
        ("interval", "[1]", "params"),
        ("grid2d", "null", "params"),
        ("interval", '{"holes": 5}', "'holes'"),
        ("interval", '{"holes": [[0.4]]}', "'holes'"),
        ("interval", '{"holes": [[NaN, 0.6]]}', "hole [nan, 0.6]"),
        ("cascade", '{"ratios": "ab"}', "'ratios'"),
        ("lipschitz_curve", '{"coils": "x"}', "'coils'"),
        ("lipschitz_curve", '{"waypoints": [[0, 0], [1]]}', "'waypoints'"),
    ],
)
def test_malformed_params_exit_2_naming_the_parameter(capsys, kind, params, named):
    code, out, err = run_cli(
        capsys,
        ["run", "--kind", kind, "--resolution", "3", "--params", params],
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: stage load: ")
    assert named in err


@pytest.mark.parametrize(
    "flag",
    ["--input csv", "--input json", "--input dir", "--matrix", "--matrix dir",
     "--weights"],
)
def test_unreadable_input_files_exit_2_naming_the_path(capsys, tmp_path, flag):
    folder = tmp_path / "inputs"
    folder.mkdir()
    weights = tmp_path / "weights.csv"
    weights.write_text("id,weight\n0,1\n1,1\n")
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("0,1\n1,0\n")
    missing = str(tmp_path / "missing")
    path, argv = {
        "--input csv": (missing + ".csv", ["--input"]),
        "--input json": (missing + ".json", ["--input"]),
        "--input dir": (str(folder), ["--input"]),
        "--matrix": (missing + ".csv", ["--weights", str(weights), "--matrix"]),
        "--matrix dir": (str(folder), ["--weights", str(weights), "--matrix"]),
        "--weights": (missing + ".csv", ["--matrix", str(matrix), "--weights"]),
    }[flag]
    code, out, err = run_cli(capsys, ["run", *argv, path])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: stage load: ")
    assert err.count(path) == 1 and "cannot read (" in err


@pytest.mark.parametrize("command", ["run", "porous"])
@pytest.mark.parametrize(
    "flag, value, violation",
    [("--rho", "0", "0 < rho < 1"), ("--rho", "1", "0 < rho < 1"),
     ("--delta", "0", "delta > 0"), ("--delta", "-1", "delta > 0")],
)
def test_rho_and_delta_outside_their_domain_exit_2(
    capsys, command, flag, value, violation
):
    """Checked before the inequalities that divide by rho; a delta of 0
    would make every cube meeting the target porous."""
    code, payload, err = run_json(
        capsys,
        [command, "--kind", "interval", "--resolution", "50", flag, value],
    )
    assert code == 2
    assert payload["validation"]["violations"] == [violation]
    assert "porous" not in payload
    assert err.count("\n") == 1 and "stage validate" in err


@pytest.mark.parametrize(
    "command, flag",
    [("gen", "--out"), ("density", "--out"), ("curve", "--edges-out"),
     ("param", "--tour-out"), ("run", "--out-dir")],
)
def test_unwritable_output_paths_exit_2_naming_the_path(
    capsys, tmp_path, command, flag
):
    """A side file in a missing folder; an output folder under a file."""
    (tmp_path / "file").write_text("")
    path = str(tmp_path / ("file" if flag == "--out-dir" else "missing") / "out")
    args = HOLE_ARGS[:6] if command in ("gen", "density") else HOLE_ARGS + EPS_ARGS
    code, out, err = run_cli(capsys, [command, *args, flag, path])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert err.count(path) == 1 and "cannot write (" in err


def _subcommands() -> dict:
    parser = build_parser()
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


FLOAT_FLAGS = ("--rho", "--c0", "--M", "--delta", "--eps-res", "--r-lo", "--r-hi")
FLOAT_CASES = [
    (command, flag)
    for command, sub in _subcommands().items()
    for flag in FLOAT_FLAGS
    if flag in sub._option_string_actions
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", FLOAT_CASES)
def test_non_finite_float_flags_exit_2_naming_the_flag(capsys, command, flag, value):
    """Refused at parse time: an infinite --eps-res made every pair of
    points adjacent and wrote Infinity, which is not JSON, into the report."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--kind", "interval", "--resolution", "50", f"{flag}={value}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: invalid finite value: '{value}'" in err


def test_float_flags_are_the_float_run_config_fields():
    floats = {
        f.name for f in dataclasses.fields(RunConfig) if f.type.startswith("float")
    }
    assert {name for name, kw in FIELDS.items() if kw.get("type") is finite} == floats
    assert len(FLOAT_CASES) == 24


def test_fields_are_the_run_config_fields_the_stages_read():
    """Every flag of the field table is read by some stage; run also
    takes --out-dir, read by run_pipeline."""
    read = [f for row in STAGES for f in row[4]]
    assert set(FIELDS) == set(read)
    assert set(FIELDS) | {"out_dir"} == {f.name for f in dataclasses.fields(RunConfig)}


def test_readmes_view_table_is_the_derived_stage_sets():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("| view | stages |\n|---|---|\n")[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines():
        view, stages = line.strip("|").split("|")
        rows[view.strip().strip("`")] = [s.strip() for s in stages.split(",")]
    assert rows == {
        view: [row[0] for row in closure(stages)]
        for view, (stages, _, _) in VIEWS.items()
    }
