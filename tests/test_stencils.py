"""Batched stencils against the per-point loops that they replace.

Every chart builder gives each row of a stack of points the bits that it
gives that point alone, and ``riemann_at`` and ``christoffel`` build each
stencil row with the loop's arithmetic. So both reproduce the loops of
``reference`` bit for bit.

The Hopf maps are the exception. Called on one point, their quaternion
product multiplies complex numpy scalars; called on a stack, it multiplies
complex arrays, and the two round differently in the last bit. Their
Jacobians therefore agree with the per-column loop within JACOBIAN_REL_TOL
(2e-16 to 3e-16 is observed, one or two ulps). Their Hessians are central
differences of those Jacobians over steps h, so a Jacobian error e becomes
at most e / h there (``_hessian_tol``).
"""

import numpy as np
import pytest

from casorati import catalog
from casorati.catalog import (
    flat_chart,
    fubini_study_chart,
    heisenberg_chart,
    round_sphere_chart,
    warped_line_chart,
)
from casorati.curvature import ChartMetric, christoffel, riemann_at
from casorati.errors import DimensionMismatch
from casorati.framecore import MAX_CHART_DIM
from casorati.rmaps import FD_STEP, SmoothMap
from casorati.verify import PointEvaluation
from reference import (
    christoffel_by_loops,
    component_hessians_by_columns,
    jacobian_by_columns,
    riemann_by_loops,
)

JACOBIAN_REL_TOL = 1e-15
CHARTS = [
    flat_chart(3),
    flat_chart(MAX_CHART_DIM, scale=0.5),
    round_sphere_chart(1),
    round_sphere_chart(2, radius=0.5, half_width=10.0),
    round_sphere_chart(5, radius=2.0),
    round_sphere_chart(7, half_width=0.45),
    round_sphere_chart(MAX_CHART_DIM),
    warped_line_chart(0),
    warped_line_chart(4),
    warped_line_chart(MAX_CHART_DIM - 1),
    fubini_study_chart(1),
    fubini_study_chart(2, half_width=0.9),
    fubini_study_chart(MAX_CHART_DIM // 2),
    heisenberg_chart(),
]
ENTRIES = catalog.list_entries()
SIDES = [(e, side) for e in ENTRIES for side in ("source", "target")]
# Maps whose per-point arithmetic is on complex numpy scalars.
SCALAR_ARITHMETIC = {
    d["id"] for d in catalog.DESCRIPTIONS if d["map"]["builder"].startswith("hopf")
}


def _interior(chart: ChartMetric, rng: np.random.Generator, count: int, shrink: float = 0.9):
    box = chart.domain_box
    return rng.uniform(shrink * box[:, 0], shrink * box[:, 1], size=(count, chart.dim))


def _side(entry, side):
    """The chart of one side and a point on it: the base point or its image."""
    if side == "source":
        return entry.source_chart, entry.base_point
    return entry.target_chart, entry.smooth_map(entry.base_point)


def _hessian_tol(sm: SmoothMap, points) -> float:
    """Bound on the Hessian change from a JACOBIAN_REL_TOL change of each Jacobian."""
    worst = max(np.abs(jacobian_by_columns(sm, p)).max() for p in points)
    steps = min(sm.source.steps_at(p, FD_STEP).min() for p in points)
    return JACOBIAN_REL_TOL * worst / steps


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.name)
def test_batched_metric_is_the_per_point_metric_bit_for_bit(chart):
    points = _interior(chart, np.random.default_rng(chart.dim), 200)
    batched = chart.metric_at(points)
    assert batched.shape == (200, chart.dim, chart.dim)
    assert np.array_equal(batched, np.array([chart.metric_at(p) for p in points]))
    # Any leading shape broadcasts.
    stacked = chart.metric_at(points.reshape(4, 50, chart.dim))
    assert np.array_equal(stacked, batched.reshape(4, 50, chart.dim, chart.dim))


@pytest.mark.parametrize("entry, side", SIDES, ids=[f"{e.id}-{s}" for e, s in SIDES])
def test_riemann_and_christoffel_match_the_per_point_loops_bit_for_bit(entry, side):
    chart, base = _side(entry, side)
    points = [base, *_interior(chart, np.random.default_rng(7), 3, shrink=0.5)]
    for p in points:
        assert np.array_equal(riemann_at(chart, p).components, riemann_by_loops(chart, p))
        assert np.array_equal(christoffel(chart, p), christoffel_by_loops(chart, p))


@pytest.mark.parametrize("entry", ENTRIES, ids=[e.id for e in ENTRIES])
def test_map_derivatives_match_the_per_column_loops(entry):
    sm = entry.smooth_map
    rng = np.random.default_rng(11)
    points = [entry.base_point, *(entry.base_point + rng.uniform(-0.05, 0.05, (4, sm.source.dim)))]
    jacobians = np.array([sm.jacobian(p) for p in points])
    # A stack of points gives each point its own Jacobian, bit for bit.
    assert np.array_equal(sm.jacobian(np.array(points)), jacobians)
    want = np.array([jacobian_by_columns(sm, p) for p in points])
    hessians = np.array([sm.component_hessians(p) for p in points])
    want_hessians = np.array([component_hessians_by_columns(sm, p) for p in points])
    if entry.id in SCALAR_ARITHMETIC:
        assert np.abs(jacobians - want).max() <= JACOBIAN_REL_TOL * np.abs(want).max()
        assert np.abs(hessians - want_hessians).max() <= _hessian_tol(sm, points)
    else:
        assert np.array_equal(jacobians, want)
        assert np.array_equal(hessians, want_hessians)


def test_each_stencil_is_one_call(monkeypatch):
    calls = []
    for cls, name in ((ChartMetric, "metric_at"), (SmoothMap, "jacobian")):
        original = getattr(cls, name)
        monkeypatch.setattr(
            cls, name, lambda self, p, _f=original, _n=name: calls.append(_n) or _f(self, p)
        )
    entry = catalog.get("quaternionic-hopf-S7-S4")
    chart, sm, p = entry.source_chart, entry.smooth_map, entry.base_point
    riemann_at(chart, p)
    christoffel(chart, p)
    sm.component_hessians(p)
    assert calls == ["metric_at", "metric_at", "jacobian"]


@pytest.mark.parametrize(
    "entry_id", ["quaternionic-hopf-S7-S4", "warped-product-R-x-R3", "sphere-immersion-S3"]
)
def test_each_chart_is_differentiated_once_per_point(monkeypatch, entry_id):
    # g1 and g2 for the frames, then one stencil per chart: its curvature
    # tensor carries the Christoffel symbols that nabla F* reads.
    calls = []
    original = ChartMetric.metric_at
    monkeypatch.setattr(
        ChartMetric, "metric_at", lambda self, p: calls.append(np.shape(p)) or original(self, p)
    )
    entry = catalog.get(entry_id)
    ev = PointEvaluation(entry, entry.base_point)
    sides = ("map", "sub-vert", "sub-hor") if entry.kind == catalog.KIND_SUBMERSION else ("map",)
    for side in sides:
        ev.coefficients(side)
        ev.pair(side)
    assert len(calls) == 4
    assert calls[:2] == [(entry.source_chart.dim,), (entry.target_chart.dim,)]


def test_a_metric_that_does_not_broadcast_is_a_dimension_mismatch():
    # The constant metric below ignores the leading axes of its points.
    chart = ChartMetric(2, lambda p: np.eye(2), np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    p = np.array([0.1, -0.2])
    assert chart.metric_at(p).shape == (2, 2)
    with pytest.raises(DimensionMismatch, match="at points of shape"):
        chart.metric_at(np.zeros((3, 2)))
    with pytest.raises(DimensionMismatch):
        riemann_at(chart, p)
    with pytest.raises(DimensionMismatch):
        christoffel(chart, p)


def test_a_map_that_does_not_broadcast_is_a_dimension_mismatch():
    # p[0] * p[1] multiplies the first two points of a stack, not coordinates.
    sm = SmoothMap(flat_chart(2), flat_chart(1), lambda p: np.array([p[0] * p[1]]), name="product")
    p = np.array([0.3, 0.4])
    assert sm(p).shape == (1,)
    with pytest.raises(DimensionMismatch, match="'product' returned shape"):
        sm.jacobian(p)
    with pytest.raises(DimensionMismatch):
        sm.component_hessians(p)

