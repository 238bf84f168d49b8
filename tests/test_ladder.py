"""The resolution ladder: default runs on nested samples of two curves.

interval + hole (0.4, 0.6) at n = 2^k + 1 and lipschitz_curve at
n = 2^k, k = 6 ... 12, and interval + hole at n = 10000.  At every rung
the run passes its own checks (no invariant failure, so the command
exits 0), the curve is connected, its tree is no longer than the curve
the points were sampled from, and the tour's bound is twice the tree.
The tree bound holds when each gap between neighbouring sample points
is below ``eps_res`` or bridged: a bridge is one edge as long as its
pair, so a path through the points in order then lies in the graph and
is no longer than the curve.

Rungs that fail for a known reason, named by its ROADMAP item, stay in
the ladder as strict expected failures: once the reason is gone they
pass, which fails the suite until the mark comes off.
"""

import math

import pytest

from rectilib.pipeline import RunConfig, run_pipeline

K = range(6, 13)
HOLE = {"holes": [[0.4, 0.6]]}
WAYPOINTS = [[0.0, 0.0], [1.0, 0.0]]
SKIPPED = "item 2: every porous cube skipped"


def run(kind: str, n: int):
    params = HOLE if kind == "interval" else {"waypoints": WAYPOINTS}
    report, failures, _ = run_pipeline(RunConfig(kind=kind, resolution=n, params=params))
    return report, failures


def rung(kind: str, n: int, *marks):
    return pytest.param(kind, n, marks=marks, id=f"{kind}-{n}")


RUNGS = [
    rung("interval", 2**k + 1, *(
        [pytest.mark.xfail(strict=True, reason=SKIPPED)] if k <= 7 else []
    ))
    for k in K
] + [
    rung("interval", 10000, pytest.mark.xfail(
        strict=True, reason="item 2: two hole gaps neither adjacent nor bridged"
    )),
] + [rung("lipschitz_curve", 2**k) for k in K]

# the length of the curve each kind samples: the unit interval, hole
# and all, and the polyline through the waypoints
LENGTH = {
    "interval": 1.0,
    "lipschitz_curve": sum(math.dist(a, b) for a, b in zip(WAYPOINTS, WAYPOINTS[1:])),
}


@pytest.mark.parametrize("kind, n", RUNGS)
def test_every_rung_gives_a_connected_curve_no_longer_than_its_source(kind, n):
    report, failures = run(kind, n)
    assert failures == [] and report["invariant_failures"] == []
    assert report["connectivity"]["components"] == 1
    tour = report["parametrization"]
    assert tour["tree_length"] <= LENGTH[kind] * (1 + 1e-9)
    assert tour["lip_bound"] <= 2 * tour["tree_length"] * (1 + 1e-9)
    assert report["param_check"]["ok"] is True


@pytest.mark.xfail(strict=True, reason="item 2: porous cubes below the net levels")
@pytest.mark.parametrize("n", [2**k + 1 for k in K])
def test_every_interval_rung_bridges_every_porous_cube(n):
    report, _ = run("interval", n)
    assert report["bridges"]["skipped_per_level"] == {}
