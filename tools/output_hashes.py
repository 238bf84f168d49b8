"""SHA-256 of the command line's outputs on a fixed set of inputs.

    python3 tools/output_hashes.py --work DIR [--src SRC] > hashes.txt

Runs ``gen --out``, ``nets``, ``cubes``, ``porous``, ``curve
--edges-out``, ``param --tour-out`` and ``run --out-dir`` with the
``rectilib`` under ``SRC`` (default: this checkout's ``src``) on 21
inputs: seeds 0-3 of each workload of ``perfbench/run.py`` and nine
generator inputs, 147 command runs.  Prints one line ``sha256 exit
command artifact`` for each stdout and each side file (``run``'s
``timings.txt`` left out), in a fixed order.

Commands run in ``DIR`` and name every file relative to it, so a report
that names its input or its out-dir reads the same from any ``DIR``.
Two versions of the code compare by one run per ``--src`` and a
``diff`` of the two outputs.  The matrix inputs are written under
``DIR`` by the workload functions of ``perfbench/run.py``; nothing under
``perfbench/`` changes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = "import sys; from rectilib.cli import main; sys.exit(main())"

HOLE = {"holes": [[0.4, 0.6]]}
# (kind, resolution, params) of the inputs besides the workloads
GENERATED = [
    ("interval", 1000, HOLE),
    ("interval", 10000, HOLE),
    ("circle", 10000, {}),
    ("lipschitz_curve", 10000, {}),
    ("grid2d", 64, {}),
    ("cantor4", 5, {}),
    ("koch", 4, {}),
    ("cascade", 6, {}),
    ("cascade", 7, {}),
]
SIDE = "side"  # every side file goes here, emptied before each command
COMMANDS = {
    "gen": ["--out", f"{SIDE}/points.csv"],
    "nets": [],
    "cubes": [],
    "porous": [],
    "curve": ["--edges-out", f"{SIDE}/edges.csv"],
    "param": ["--tour-out", f"{SIDE}/tour.csv"],
    "run": ["--out-dir", SIDE],
}


def load_bench():
    """``perfbench/run.py`` as a module."""
    spec = importlib.util.spec_from_file_location("bench", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def inputs(bench, work: Path):
    """(name, source flags) of each input, the workloads first."""
    # matrix_2k writes its files under WORK and names them relative to ROOT
    bench.WORK = bench.ROOT = work
    for name, make in bench.WORKLOADS.items():
        for seed in range(4):
            yield f"{name}-{seed}", bench.cli_args(make(seed))
    for kind, resolution, params in GENERATED:
        name = f"{kind}-{resolution}" + ("-hole" if params else "")
        yield name, bench.cli_args({"kind": kind, "resolution": resolution, "params": params})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--work", required=True, help="working directory, made if missing")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding rectilib")
    args = parser.parse_args()
    work = Path(args.work).resolve()
    work.mkdir(parents=True, exist_ok=True)
    bench = load_bench()
    bench.SRC = Path(args.src).resolve()
    env = bench.child_env()  # one thread, PYTHONPATH at SRC, fixed hash seed
    side = work / SIDE
    for name, source in inputs(bench, work):
        for command, flags in COMMANDS.items():
            shutil.rmtree(side, ignore_errors=True)
            side.mkdir()
            argv = [sys.executable, "-c", CLI, command, *source, *flags]
            proc = subprocess.run(argv, cwd=work, env=env, capture_output=True)
            outputs = [("stdout", proc.stdout)] + [
                (path.name, path.read_bytes())
                for path in sorted(side.iterdir())
                if path.name != "timings.txt"
            ]
            for artifact, data in outputs:
                digest = hashlib.sha256(data).hexdigest()
                print(digest, proc.returncode, f"{command}:{name}", artifact, flush=True)
    shutil.rmtree(side, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
