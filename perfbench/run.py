"""rectilib benchmark: the README's ``rectilib run``, end to end.

    python3 perfbench/run.py --workload interval_holes_4k --seed 0 \
        --seconds 15 --trace 0

Run from the root of a checkout; ``rectilib`` is imported from its
``src``.  Each measured run is a fresh ``rectilib run ... --out-dir``
process with the default ``RunConfig``.  Inputs are made from
``--seed`` before any timing starts.  Every run is checked (see
:func:`check_run`) and every run of one invocation must produce the
same ``report.json`` bytes.

``--trace 0`` reports the end-to-end metrics: ``run_s`` and
``peak_rss_mb`` (medians over the runs made in ``--seconds``),
``setup_s`` (median of fresh processes that import rectilib and call
``pipeline.load_space``) and ``lip_bound`` (from the report).
``--trace 1`` adds runs under :mod:`tracer` and reports the per-module
metrics; its untraced runs give ``trace.overhead_s``.  ``--workload
all`` runs every workload in turn.

Stdout holds a readable table (every metric with its unit and sample
count, plus ``error_rate``, ``invariants_failed`` and the report's
SHA-256), one ``detail`` JSON line with the environment, and, last, the
result line: ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 0 when every run passed its checks, 1 when one did not, 2
when the checkout has no ``src/rectilib``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

# Pinned to 1 in every child, so each run is single-threaded.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
CHILD = BENCH / "child.py"

SETUP_REPS = 3  # fresh processes timed for setup_s per invocation
CHILD_LIMIT_S = 150.0  # a child still running after this is killed
TRACE_BUDGET_S = 130.0  # --trace 1 starts no run expected to end past this
MATRIX_CACHE_SEEDS = 4  # matrix_2k inputs kept on disk, newest first

# -- workload inputs ---------------------------------------------------

SEGMENT = 0.5  # four segments: every seeded polyline has length 2.0


def polyline(seed: int) -> np.ndarray:
    """Five waypoints in the unit square, drawn from ``seed``.

    Segments have fixed length and bounded turns, the waypoints' spread
    stays under 0.95 and non-adjacent segments stay 0.1 apart, so every
    seed gives the same sample gap, the same net levels and a simple
    curve: the work per run barely depends on the seed.
    """
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, 41)[:, None]
    while True:
        start = rng.uniform(0.0, 1.0, 2)
        turns = rng.uniform(-math.radians(100), math.radians(100), 3)
        heading = rng.uniform(0.0, 2 * math.pi) + np.concatenate(([0.0], np.cumsum(turns)))
        steps = SEGMENT * np.stack([np.cos(heading), np.sin(heading)], axis=1)
        pts = np.vstack([start, start + np.cumsum(steps, axis=0)])
        if pts.min() < 0.0 or pts.max() > 1.0:
            continue
        if _pairwise(pts).max() >= 0.95:
            continue
        segs = [pts[k] + (pts[k + 1] - pts[k]) * t for k in range(4)]
        if all(
            _pairwise(segs[i], segs[j]).min() >= 0.1
            for i in range(4)
            for j in range(i + 2, 4)
        ):
            return pts


def _pairwise(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    b = a if b is None else b
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def sample_polyline(waypoints: np.ndarray, n: int) -> np.ndarray:
    """``n`` points at the midpoints of ``n`` equal arcs of the polyline."""
    seg = np.diff(waypoints, axis=0)
    seg_len = np.sqrt((seg * seg).sum(axis=1))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    at = (np.arange(n) + 0.5) / n * cum[-1]
    k = np.clip(np.searchsorted(cum, at, side="right") - 1, 0, len(seg) - 1)
    return waypoints[k] + seg[k] * ((at - cum[k]) / seg_len[k])[:, None]


def interval_holes_4k(seed: int) -> dict:
    # seed 0 is the README's hole; other seeds move its centre in [0.3, 0.7]
    centre = 0.5 if seed == 0 else float(np.random.default_rng(seed).uniform(0.3, 0.7))
    hole = [round(centre - 0.1, 6), round(centre + 0.1, 6)]
    return {"kind": "interval", "resolution": 4000, "params": {"holes": [hole]}}


def polyline_10k(seed: int) -> dict:
    return {
        "kind": "lipschitz_curve",
        "resolution": 10000,
        "params": {"waypoints": np.round(polyline(seed), 6).tolist()},
    }


def matrix_2k(seed: int) -> dict:
    """Distance matrix and weights of a 2000-point polyline, cached per seed."""
    cache = WORK / "cache"
    folder = cache / f"matrix_2k-seed{seed}"
    if not folder.is_dir():
        n = 2000
        dist = _pairwise(sample_polyline(polyline(seed), n))
        tmp = cache / f".tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        np.savetxt(tmp / "matrix.csv", dist, delimiter=",", fmt="%.17g")
        with open(tmp / "weights.csv", "w") as fh:
            fh.write("id,weight\n")
            fh.writelines(f"{i},{1.0 / n!r}\n" for i in range(n))
        os.replace(tmp, folder)
    os.utime(folder)
    stale = sorted(cache.glob("matrix_2k-seed*"), key=lambda p: p.stat().st_mtime)
    for old in stale[:-MATRIX_CACHE_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    rel = folder.relative_to(ROOT)
    return {"matrix": str(rel / "matrix.csv"), "weights": str(rel / "weights.csv")}


# Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = {
    "interval_holes_4k": interval_holes_4k,
    "polyline_10k": polyline_10k,
    "matrix_2k": matrix_2k,
}


def cli_args(source: dict) -> list[str]:
    """``RunConfig`` source fields as ``rectilib run`` flags."""
    if "matrix" in source:
        return ["--matrix", source["matrix"], "--weights", source["weights"]]
    return [
        "--kind", source["kind"],
        "--resolution", str(source["resolution"]),
        "--params", json.dumps(source["params"]),
    ]


# -- child processes ---------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RECTILIB_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list[str], stdout_path: Path, stderr_path: Path) -> tuple[int, float, float]:
    """Run ``cmd`` from the checkout root; (exit code, wall s, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6  # Linux: KiB


def measure_setup(source: dict) -> float:
    logs = WORK / "logs"
    code, _, _ = spawn(
        [sys.executable, str(CHILD), "setup", json.dumps(source)],
        logs / "setup.out",
        logs / "setup.err",
    )
    if code != 0:
        raise RuntimeError(f"setup child exited {code}: {_tail(logs / 'setup.err')}")
    return json.loads((logs / "setup.out").read_text())["setup_s"]


def _tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])
    except OSError:
        return ""


SIDE_FILES = ("density.csv", "edges.csv", "tour.csv")


def run_once(workload: str, source: dict, traced: bool) -> dict:
    """One fresh ``rectilib run``; returns its measurements and outputs."""
    out_rel = Path("perfbench") / ".work" / "out" / workload
    out = ROOT / out_rel
    logs = WORK / "logs"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["run", *cli_args(source), "--out-dir", str(out_rel)]
    stats_path = logs / "trace.json"
    stats_path.unlink(missing_ok=True)
    if traced:
        cmd = [sys.executable, str(CHILD), "trace", str(stats_path), *argv]
    else:
        cmd = [sys.executable, "-c", "import sys; from rectilib.cli import main; sys.exit(main())", *argv]
    code, wall, rss = spawn(cmd, logs / "run.out", logs / "run.err")
    run = {
        "traced": traced,
        "code": code,
        "run_s": wall,
        "peak_rss_mb": rss,
        "stdout": (logs / "run.out").read_bytes(),
        "report": None,
        "side_bytes": sum((out / f).stat().st_size for f in SIDE_FILES if (out / f).exists()),
        "stderr_tail": _tail(logs / "run.err"),
        "stats": None,
    }
    if (out / "report.json").exists():
        run["report"] = (out / "report.json").read_bytes()
    if traced and stats_path.exists():
        run["stats"] = json.loads(stats_path.read_text())
    shutil.rmtree(out, ignore_errors=True)
    return run


# -- correctness -------------------------------------------------------


def check_run(code: int, stdout: bytes, report: bytes | None) -> str | None:
    """Why one run is wrong, or None when it passes.

    A run passes when ``report.json`` exists, parses and has
    ``schema == 1``, stdout carries the same bytes, and the exit code is
    1 exactly when ``invariant_failures`` is non-empty (else 0).  A
    crash, or exit 2 on bad input, leaves no report and fails here.
    """
    if report is None:
        return f"exit {code} without report.json"
    try:
        doc = json.loads(report)
    except ValueError:
        return f"exit {code}; report.json does not parse"
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        return "report schema is not 1"
    if stdout != report:
        return "stdout differs from report.json"
    failures = doc.get("invariant_failures")
    if not isinstance(failures, list):
        return "report has no invariant_failures list"
    expected = 1 if failures else 0
    if code != expected:
        return f"exit {code} with {len(failures)} invariant failures (expected exit {expected})"
    return None


def judge(runs: list[dict]) -> tuple[str | None, list[str | None]]:
    """Check every run; a report hash other than the most common one fails.

    Returns the reference SHA-256 and one error (or None) per run.
    """
    errors = [check_run(r["code"], r["stdout"], r["report"]) for r in runs]
    hashes = [
        hashlib.sha256(r["report"]).hexdigest() if err is None else None
        for r, err in zip(runs, errors)
    ]
    counts = collections.Counter(h for h in hashes if h is not None)
    if not counts:
        return None, errors
    reference = counts.most_common(1)[0][0]
    errors = [
        err if err is not None or h == reference else f"report sha256 {h[:12]} != {reference[:12]}"
        for err, h in zip(errors, hashes)
    ]
    return reference, errors


# -- per-module metrics from the traced runs ---------------------------

MODULES = ("space", "generators", "nets", "cubes", "density", "porosity", "curve", "pipeline", "runtime", "cli")

# metric -> traced functions whose inclusive time it sums
STAGE_TIMES = {
    "space.row_s": ("space.MetricMeasureSpace.dists_from",),
    "space.load_s": ("space.load_matrix", "space.load_csv", "space.load_json"),
    "space.doubling_s": ("space.doubling_estimate",),
    "space.diameter_s": ("space.MetricMeasureSpace.diameter",),
    "space.min_gap_s": ("space.MetricMeasureSpace.min_gap",),
    "space.enclosing_target_s": ("space.enclosing_target",),
    "generators.generate_s": ("generators.generate",),
    "nets.build_s": ("nets.build_nets",),
    "nets.verify_s": ("nets.verify_nets",),
    "cubes.build_s": ("cubes.build_cubes",),
    "cubes.verify_s": ("cubes.verify_cube_axioms",),
    "density.profiles_s": ("density.density_profiles",),
    "porosity.find_s": ("porosity.find_porous",),
    "porosity.shadow_s": ("porosity.shadow_map",),
    "porosity.carleson_s": ("porosity.carleson_check",),
    "curve.bridges_s": ("curve.build_bridges",),
    "curve.gamma_s": ("curve.assemble_gamma",),
    "curve.connectivity_s": ("curve.connectivity",),
    "curve.budget_s": ("curve.length_budget",),
    "curve.parametrize_s": ("curve.parametrize",),
    "curve.check_param_s": ("curve.check_parametrization",),
    "pipeline.write_s": ("pipeline.write_outputs",),
}

# metric -> traced function whose call count it is
CALL_COUNTS = {
    "space.rows": "space.MetricMeasureSpace.dists_from",
    "porosity.dist_to_set_calls": "porosity.dist_to_set",
    "runtime.map_indexed_calls": "runtime.map_indexed",
}

NOTES = {
    "space.dist_evals": "computed: rows x points, not counted",
    "space.row_us": "computed: row_s / rows",
    "pipeline.report_bytes": "measured: size of report.json",
    "pipeline.side_file_bytes": "measured: sizes of density.csv, edges.csv and tour.csv",
    "curve.bridged_cube_ratio": "porous cubes that got bridges / porous cubes; 0 when none is porous",
    "trace.overhead_s": "traced run_s minus untraced run_s (medians)",
    "trace.import_s": "time the traced process took to import rectilib.cli",
    "trace.unaccounted_s": "traced run_s minus trace.import_s and the self times of all traced "
    "calls: interpreter start and exit",
    "<module>.self_s": "time in that module's traced functions minus their traced callees; "
    "with trace.import_s and trace.unaccounted_s they sum to trace.run_s",
    "cli.self_s": "main minus its traced callees (run_pipeline, build_parser, report_json)",
}


def inclusive(edges: list[dict], name: str) -> float:
    return sum(e["total_s"] for e in edges if e["name"] == name and e["parent"] != name)


def calls(edges: list[dict], name: str) -> int:
    return sum(e["calls"] for e in edges if e["name"] == name)


def traced_times(run: dict) -> dict[str, float]:
    edges = run["stats"]["edges"]
    out = {m: sum(inclusive(edges, f) for f in fns) for m, fns in STAGE_TIMES.items()}
    for mod in MODULES:
        out[f"{mod}.self_s"] = sum(e["self_s"] for e in edges if e["name"].split(".")[0] == mod)
    out["trace.import_s"] = run["stats"]["import_s"]
    out["trace.unaccounted_s"] = run["run_s"] - out["trace.import_s"] - sum(e["self_s"] for e in edges)
    return out


def work_counts(run: dict) -> dict[str, float]:
    """Deterministic per-run counts; they must repeat exactly."""
    edges, doc = run["stats"]["edges"], json.loads(run["report"])
    out = {m: calls(edges, f) for m, f in CALL_COUNTS.items()}
    points = doc["space"]["points"]
    porous = doc["porous"]["count"]
    out.update(
        {
            "space.dist_evals": out["space.rows"] * points,
            "nets.points": sum(doc["nets"]["levels"].values()),
            "cubes.count": doc["cubes"]["count"],
            "density.profiled": doc["density"].get("profiled", 0),
            "porosity.porous_cubes": porous,
            "curve.bridge_pairs": doc["bridges"]["pairs"],
            "curve.bridged_cube_ratio": (porous - doc["bridges"]["skipped_cubes"]) / porous if porous else 0.0,
            "curve.gamma_vertices": doc["gamma"]["vertices"],
            "curve.gamma_edges": doc["gamma"]["edges"],
            "curve.tour_visits": doc["parametrization"].get("visits", 0),
            "pipeline.invariants_failed": len(doc["invariant_failures"]),
            "pipeline.report_bytes": len(run["report"]),
            "pipeline.side_file_bytes": run["side_bytes"],
        }
    )
    return out


# -- one workload --------------------------------------------------------


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"p25": values[0], "p75": values[0]}
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q[0], "p75": q[2]}


def bench(workload: str, seed: int, seconds: int, trace: bool, units: dict[str, str]) -> dict:
    """Measure one workload; returns the result line plus detail.

    ``units`` maps the metrics the result line must carry to their units.
    """
    for sub in ("logs", "out"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    source = WORKLOADS[workload](seed)  # input generation: not timed

    # warm-up: bytecode cache
    spawn([sys.executable, "-c", "import rectilib.cli"], WORK / "logs" / "warm.out", WORK / "logs" / "warm.err")
    setups = [measure_setup(source) for _ in range(SETUP_REPS)]

    runs: list[dict] = []
    start = time.perf_counter()
    while True:
        n_traced = sum(r["traced"] for r in runs)
        # with tracing, alternate traced and untraced runs, traced first
        runs.append(run_once(workload, source, traced=trace and n_traced <= len(runs) - n_traced))
        elapsed = time.perf_counter() - start
        if not trace:
            if elapsed >= seconds:
                break
            continue
        n_traced = sum(r["traced"] for r in runs)
        n_plain = len(runs) - n_traced
        if n_traced >= 2 and n_plain >= 1 and elapsed >= seconds:
            break
        # a slow machine gets one traced run, so the invocation ends in time
        if n_traced >= 1 and n_plain >= 1 and elapsed + runs[-1]["run_s"] > TRACE_BUDGET_S:
            break

    reference, errors = judge(runs)
    doc = json.loads(next(r["report"] for r, e in zip(runs, errors) if e is None)) if reference else {}
    for k, run in enumerate(runs):
        if errors[k] is None and run["traced"] and run["stats"] is None:
            errors[k] = "traced run wrote no span file"
    plain = [r for r in runs if not r["traced"]]

    detail: dict[str, dict] = {}

    def put(name: str, values: list[float], unit: str) -> None:
        detail[name] = {"value": statistics.median(values), "unit": unit, "samples": len(values), **quartiles(values)}

    put("run_s", [r["run_s"] for r in plain], "s")
    put("setup_s", setups, "s")
    put("peak_rss_mb", [r["peak_rss_mb"] for r in plain], "MB")
    if doc.get("parametrization", {}).get("lip_bound") is not None:
        put("lip_bound", [doc["parametrization"]["lip_bound"]], "ratio")
    failed = sum(e is not None for e in errors)
    put("error_rate", [failed / len(runs)], "ratio")
    if doc:
        put("invariants_failed", [len(doc["invariant_failures"])], "count")

    repeat_ok = True
    traced = [r for r, e in zip(runs, errors) if r["traced"] and e is None]
    if traced:
        counts = [work_counts(r) for r in traced]
        call_maps = [{(e["parent"], e["name"]): e["calls"] for e in r["stats"]["edges"]} for r in traced]
        repeat_ok = all(c == counts[0] for c in counts) and all(m == call_maps[0] for m in call_maps)
        if not repeat_ok:
            errors.append("work counters differ between traced runs")
        times = [traced_times(r) for r in traced]
        for name in times[0]:
            put(name, [t[name] for t in times], units.get(name, "s"))
        for name, value in counts[0].items():
            put(name, [value], units.get(name, "count"))
        put("space.row_us", [t["space.row_s"] / max(counts[0]["space.rows"], 1) * 1e6 for t in times], "us")
        put("trace.run_s", [r["run_s"] for r in traced], "s")
        put("trace.overhead_s", [detail["trace.run_s"]["value"] - detail["run_s"]["value"]], "s")
        detail["space.rows_by_caller"] = {
            "value": {
                e["parent"]: e["calls"] for e in traced[0]["stats"]["edges"] if e["name"] == CALL_COUNTS["space.rows"]
            },
            "unit": "count",
        }

    metrics = {m: {"value": detail[m]["value"], "unit": u} for m, u in units.items() if m in detail}
    correct = failed == 0 and repeat_ok and reference is not None and len(metrics) == len(units)
    return {
        "result": {"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics},
        "detail": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "source": source,
            "report_sha256": reference,
            "traced_runs_compared": len(traced),
            "errors": sorted({e for e in errors if e}),
            "stderr_of_failed": sorted({r["stderr_tail"] for r, e in zip(runs, errors) if e})[:3],
            "metrics": detail,
            "notes": NOTES if trace else {},
        },
    }


# -- environment and output --------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rectilib").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "processes": "one benchmark process; it runs one child process at a time",
        "thread_vars": {var: "1" for var in THREAD_VARS},
        "RECTILIB_THREADS": "unset",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "isolation": "not isolated: the machine is shared and the load of other tenants "
        "could not be excluded",
    }


def show(detail: dict) -> None:
    print(f"== {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
          f"report_sha256={detail['report_sha256']}")
    for name, m in detail["metrics"].items():
        if isinstance(m["value"], dict):
            print(f"  {name:28s} {json.dumps(m['value'])} {m['unit']}")
        else:
            print(f"  {name:28s} {m['value']:<14.6g} {m['unit']:6s} n={m['samples']}"
                  f"  p25={m['p25']:.6g} p75={m['p75']:.6g}")
    for err in detail["errors"]:
        print(f"  ERROR {err}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "rectilib" / "__init__.py").is_file():
        print(f"error: no rectilib source at {SRC / 'rectilib'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[layer]}

    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        out = bench(name, args.seed, args.seconds, bool(args.trace), units)
        show(out["detail"])
        print("detail " + json.dumps({**out["detail"], "environment": env}, sort_keys=True))
        print(json.dumps(out["result"]), flush=True)
        ok = ok and out["result"]["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
