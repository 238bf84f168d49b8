"""Child processes of the benchmark; each run is a fresh interpreter.

    python3 child.py setup '<RunConfig fields as JSON>'
        Import rectilib and build the configured space with
        ``pipeline.load_space``; print the seconds that took.

    python3 child.py trace <stats.json> <rectilib CLI arguments...>
        Run ``rectilib.cli.main`` under :class:`tracer.Tracer` and write
        the import time and the aggregated spans to ``stats.json``; exit
        with main's code.

``rectilib`` is imported from ``PYTHONPATH``, which the parent points
at the checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
import time


def setup(fields: str) -> int:
    t0 = time.perf_counter()
    from rectilib.pipeline import RunConfig, load_space

    load_space(RunConfig(**json.loads(fields)))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def trace(stats_path: str, argv: list[str]) -> int:
    from tracer import Tracer

    t0 = time.perf_counter()
    import rectilib.cli

    import_s = time.perf_counter() - t0
    with Tracer() as tracer:
        code = rectilib.cli.main(argv)
    with open(stats_path, "w") as fh:
        json.dump({"import_s": import_s, "edges": tracer.records()}, fh)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2]))
    if mode == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    sys.exit(f"unknown mode {mode!r}")
