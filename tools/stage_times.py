"""Per-stage times and work counts of ``rectilib run`` on the benchmark's inputs.

    python3 tools/stage_times.py [--workload W ...] [--generate KIND:RESOLUTION ...]
                                 [--seed S] [--runs N] [--src SRC] [--work DIR]

Builds each input of ``perfbench/run.py`` for ``--seed`` (default 0;
every workload unless ``--workload`` or ``--generate`` names some),
and each generator input ``--generate`` names with the default flags
(``circle:40000``, ``cascade:7``), then runs the pipeline on it
``--runs`` times (default 7) in this one process, each run from a fresh
load, with the ``rectilib`` under ``SRC`` (default: this checkout's
``src``).  The side files are written to a temporary directory, as the
``write`` row.  Prints one row per input and stage: the least wall time
over the runs in milliseconds, the stage's ``_CellTree.walk`` calls,
its Borůvka rounds (the calls ``_boruvka`` makes to its rule for each
component's least edge; 0 for a ``SRC`` without ``_boruvka``, whose
loops are not counted) and its ``_pair_dists`` calls and distances,
which are the same on every run.  The ``total`` row sums each column,
and a last line gives the bytes of the candidate lists the last run's
space keeps per radius.

Times are in-process minima, so the import and the compile of a fresh
``rectilib run`` are not in them.  The matrix input is written under
``--work`` (default: a temporary directory) by the workload function of
``perfbench/run.py``; nothing under ``perfbench/`` changes.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench():
    """``perfbench/run.py`` as a module."""
    spec = importlib.util.spec_from_file_location("bench", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def config(pipeline, source: dict, work: Path):
    """The default ``RunConfig`` of ``rectilib run`` on ``source``."""
    if "matrix" in source:
        return pipeline.RunConfig(
            matrix=str(work / source["matrix"]), weights=str(work / source["weights"])
        )
    return pipeline.RunConfig(
        kind=source["kind"], resolution=source["resolution"], params=source["params"]
    )


class Counts:
    """Wraps every stage, ``_CellTree.walk``, ``_boruvka`` and
    ``_pair_dists`` once, so that ``self.counts[(stage, key)]`` counts
    each stage's walks, Borůvka rounds, distance calls and distances;
    ``stage`` names the one running."""

    def __init__(self, pipeline, space_mod, curve_mod):
        self.stage, self.counts = "-", Counter()
        walk = space_mod._CellTree.walk
        boruvka = getattr(space_mod, "_boruvka", None)
        pair_dists = space_mod.MetricMeasureSpace._pair_dists
        broadcast = space_mod.np.broadcast

        def counted_walk(tree, *args, **kwargs):
            self.counts[self.stage, "walks"] += 1
            return walk(tree, *args, **kwargs)

        def counted_boruvka(m, lightest):
            def counted(label):
                self.counts[self.stage, "rounds"] += 1
                return lightest(label)

            return boruvka(m, counted)

        def counted_pairs(space, rows, cols):
            self.counts[self.stage, "dist_calls"] += 1
            self.counts[self.stage, "dists"] += broadcast(rows, cols).size
            return pair_dists(space, rows, cols)

        def staged(name, fn):
            def run(ctx):
                self.stage = name
                try:
                    return fn(ctx)
                finally:
                    self.stage = "-"

            return run

        space_mod._CellTree.walk = counted_walk
        if boruvka:
            space_mod._boruvka = curve_mod._boruvka = counted_boruvka
        space_mod.MetricMeasureSpace._pair_dists = counted_pairs
        pipeline.STAGES = tuple(
            (name, key, staged(name, fn), *rest) for name, key, fn, *rest in pipeline.STAGES
        )


def kept_bytes(space) -> int:
    """The bytes of the candidate lists ``space`` keeps, over every radius."""
    return sum(a.nbytes for near in space._near.values() for a in vars(near).values())


def measure(pipeline, tally: Counts, cfg, runs: int) -> tuple[dict, Counter, int]:
    """Least time per stage over ``runs`` runs, and the last run's counts
    and kept bytes."""
    best: dict[str, float] = {}
    for _ in range(runs):
        tally.counts = Counter()
        ctx, report, _, timings = pipeline.run_stages(cfg)
        with tempfile.TemporaryDirectory() as out:
            tally.stage = "write"
            t0 = time.perf_counter()
            pipeline.write_outputs(
                out, report, timings, ctx.space, ctx.profiles, ctx.gamma, ctx.param
            )
            timings.append(("write", time.perf_counter() - t0))
            tally.stage = "-"
        for name, seconds in timings:
            best[name] = min(best.get(name, seconds), seconds)
    return best, tally.counts, kept_bytes(ctx.space)


COUNTS = ("walks", "rounds", "dist_calls", "dists")


def row(label, stage, ms, walks, rounds, calls, dists) -> str:
    """One line of the table; ``ms`` is printed to 0.1 when a number."""
    ms = f"{ms:.1f}" if isinstance(ms, float) else ms
    return f"{label:<22} {stage:<13} {ms:>8} {walks:>6} {rounds:>6} {calls:>10} {dists:>10}"


def main() -> int:
    bench = load_bench()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=list(bench.WORKLOADS), help="default: every one"
    )
    parser.add_argument(
        "--generate", action="append", default=[], metavar="KIND:RESOLUTION",
        help="a generator input with the default flags, such as circle:40000",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding rectilib")
    parser.add_argument("--work", help="where the matrix input is written")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    generated = [item.partition(":") for item in args.generate]
    if any(not sep or not res.isdigit() for _, sep, res in generated):
        parser.error("--generate takes KIND:RESOLUTION, such as circle:40000")
    sys.path.insert(0, str(Path(args.src).resolve()))
    from rectilib import curve as curve_mod, pipeline, space as space_mod

    names = args.workload or ([] if generated else list(bench.WORKLOADS))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work).resolve() if args.work else Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        bench.WORK = bench.ROOT = work  # matrix_2k names its files relative to ROOT
        inputs = [
            (f"{name}-{args.seed}", config(pipeline, bench.WORKLOADS[name](args.seed), work))
            for name in names
        ] + [
            (f"{kind}-{res}", pipeline.RunConfig(kind=kind, resolution=int(res)))
            for kind, _, res in generated
        ]
        tally = Counts(pipeline, space_mod, curve_mod)
        print(row("input", "stage", "min ms", "walks", "rounds", "dist calls", "dists"))
        for label, cfg in inputs:
            best, counts, kept = measure(pipeline, tally, cfg, args.runs)
            total = [0.0, 0, 0, 0, 0]
            for stage, seconds in best.items():
                values = [seconds * 1e3] + [counts[stage, k] for k in COUNTS]
                total = [t + v for t, v in zip(total, values)]
                print(row(label, stage, *values))
            print(row(label, "total", *total))
            print(f"{label}: the space keeps {kept} bytes of candidate lists")
    return 0


if __name__ == "__main__":
    sys.exit(main())
