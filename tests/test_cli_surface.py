"""The command line's surface: each subcommand's flags, the stages each
view runs, and the order of the subcommands in ``--help``.

These are observed from the outside (the built parser, and the stage
timings of the views' runs), so they hold whichever way the parser and
the views are assembled.
"""

import argparse

import pytest

from rectilib import cli

SOURCE = ["--input", "--matrix", "--weights", "--kind", "--resolution", "--params"]
SCALE = ["--rho", "--n-min", "--n-max"]
POROSITY = [*SCALE, "--c0", "--M", "--delta", "--n0", "--strict"]

FLAGS = {
    "gen": [*SOURCE, "--out"],
    "nets": [*SOURCE, *SCALE],
    "cubes": [*SOURCE, *SCALE, "--c0"],
    "density": [*SOURCE, "--points", "--r-lo", "--r-hi", "--out"],
    "beta2": [*SOURCE, "--members", "--label"],
    "porous": [*SOURCE, *POROSITY],
    "curve": [*SOURCE, *POROSITY, "--eps-res", "--edges-out"],
    "param": [*SOURCE, *POROSITY, "--eps-res", "--tour-out"],
    "run": [*SOURCE, *POROSITY, "--eps-res", "--out-dir"],
}

HELP = [
    ("gen", "generate a point cloud"),
    ("nets", "build and verify net hierarchy"),
    ("cubes", "build and verify the cube tree"),
    ("density", "lower-density profiles"),
    ("beta2", "flatness of a subset"),
    ("porous", "porous cubes, packing, shadows"),
    ("curve", "assemble the curve graph"),
    ("param", "parametrize the curve graph"),
    ("run", "full pipeline with JSON report"),
]

# README's view table
VIEW_STAGES = {
    "gen": ["load"],
    "nets": ["load", "nets", "verify_nets"],
    "cubes": ["load", "nets", "cubes", "verify_cubes"],
    "porous": [
        "load", "validate", "doubling", "nets", "cubes", "verify_cubes",
        "porous", "shadow", "carleson",
    ],
    "curve": [
        "load", "validate", "doubling", "nets", "cubes", "porous", "bridges",
        "gamma", "connectivity", "budget",
    ],
    "param": [
        "load", "validate", "doubling", "nets", "cubes", "porous", "bridges",
        "gamma", "parametrize", "check_param",
    ],
}

HOLE_ARGS = [
    "--kind", "interval", "--resolution", "100",
    "--params", '{"holes": [[0.4, 0.6]]}',
    "--rho", "0.0625", "--n-min", "-1", "--n-max", "2",
]


def subcommands() -> argparse._SubParsersAction:
    parser = cli.build_parser()
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )


@pytest.mark.parametrize("command", list(FLAGS))
def test_each_subcommand_keeps_its_flags(command):
    parser = subcommands().choices[command]
    flags = [
        opt
        for a in parser._actions
        if not isinstance(a, argparse._HelpAction)
        for opt in a.option_strings
    ]
    assert flags == FLAGS[command]


def test_help_lists_the_subcommands_in_order():
    assert [
        (a.dest, a.help) for a in subcommands()._choices_actions
    ] == HELP
    assert list(subcommands().choices) == [name for name, _ in HELP]


@pytest.mark.parametrize("view", list(VIEW_STAGES))
def test_each_view_runs_the_stages_of_readmes_table(capsys, monkeypatch, view):
    ran = []
    real = cli.run_stages

    def recording(cfg, names):
        ctx, report, failures, timings = real(cfg, names)
        ran.append([name for name, _ in timings])
        return ctx, report, failures, timings

    monkeypatch.setattr(cli, "run_stages", recording)
    args = HOLE_ARGS[:6] if view == "gen" else HOLE_ARGS
    assert cli.main([view, *args]) == 0
    capsys.readouterr()
    assert ran == [VIEW_STAGES[view]]
