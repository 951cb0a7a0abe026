"""Christoffel symbols on Python floats against the numpy-scalar contraction.

``spaces._christoffel`` contracts the inverse metric with the metric's
difference quotients on nested lists of Python floats.  Each operation is
the IEEE operation the numpy scalars performed, so Γ and every curvature
field must match the numpy-scalar reference below bit for bit.
"""

import math
import re

import numpy as np
import pytest

from curvkepler import spaces
from curvkepler.kernel import DomainError
from curvkepler.phase import Chart, ChartSingularityError
from curvkepler.spaces import SpaceParams, curvature


def reference_christoffel(gfn, x, h):
    """The contraction as it ran on numpy scalars, element by element."""
    g = gfn(x)
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise ChartSingularityError("metric degenerate at evaluation point")
    dg = np.empty((3, 3, 3))
    for k in range(3):
        xp = x.copy(); xp[k] += h
        xm = x.copy(); xm[k] -= h
        dg[k] = (gfn(xp) - gfn(xm)) / (2.0 * h)
    gamma = np.empty((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                acc = 0.0
                for l in range(3):
                    acc += ginv[i, l] * (dg[j][k, l] + dg[k][j, l] - dg[l][j, k])
                gamma[i, j, k] = 0.5 * acc
    return g, gamma


# (chart, kind, per-axis (lo, hi)), as in acceptance criterion 5
PAIRS = (
    (Chart.BELTRAMI, "nc", ((0.25, 0.95),) * 3),
    (Chart.BELTRAMI, "cc", ((0.25, 0.95),) * 3),
    (Chart.POLAR_VARIABLE, "nc", ((0.4, 1.4), (0.6, 1.4), (0.2, 1.2))),
    (Chart.POLAR_CONSTANT, "cc", ((0.5, 1.2), (0.6, 1.4), (0.2, 1.2))),
)
ZS = (-0.5, -0.3, 0.0, 0.2, 0.5)
CASES = [(chart, kind, ranges, z) for chart, kind, ranges in PAIRS for z in ZS]
IDS = [f"{chart.value}-{kind}-z{z}" for chart, kind, _, z in CASES]


def jittered_grid(ranges, seed, n=2):
    """An n x n x n grid with each node moved at random inside its cell."""
    rng = np.random.default_rng(seed)
    axes = [lo + (hi - lo) / n * (np.arange(n) + rng.uniform(0.0, 1.0, n))
            for lo, hi in ranges]
    return [(float(a), float(b), float(c))
            for a in axes[0] for b in axes[1] for c in axes[2]]


def _hex(arr):
    return [float(v).hex() for v in np.ravel(arr)]


def _fields(res):
    return ([v.hex() for v in (res.k12, res.k13, res.k23, res.kscalar)],
            sorted((k, float(v).hex()) for k, v in res.closed.items()))


@pytest.mark.parametrize("chart, kind, ranges, z", CASES, ids=IDS)
def test_christoffel_matches_the_numpy_scalar_contraction(chart, kind, ranges, z):
    params = SpaceParams(z, 1.0)
    gfn = lambda y: spaces.metric(chart, kind, y, params)
    for point in jittered_grid(ranges, seed=ZS.index(z)):
        x = np.asarray(point)
        g, gamma = spaces._christoffel(gfn, x, 1e-4)
        g_ref, gamma_ref = reference_christoffel(gfn, x, 1e-4)
        assert gamma.shape == (3, 3, 3) and gamma.dtype == np.float64
        assert _hex(g) == _hex(g_ref)
        assert _hex(gamma) == _hex(gamma_ref)


@pytest.mark.parametrize("chart, kind, ranges, z", CASES, ids=IDS)
def test_curvature_fields_match_the_numpy_scalar_contraction(
        monkeypatch, chart, kind, ranges, z):
    params = SpaceParams(z, 1.0)
    points = jittered_grid(ranges, seed=10 + ZS.index(z))
    got = [_fields(curvature(chart, kind, p, params)) for p in points]
    monkeypatch.setattr(spaces, "_christoffel", reference_christoffel)
    want = [_fields(curvature(chart, kind, p, params)) for p in points]
    assert got == want


@pytest.mark.parametrize("chart, kind, ranges, z", CASES, ids=IDS)
def test_christoffel_is_exactly_symmetric_in_its_lower_indices(chart, kind, ranges, z):
    params = SpaceParams(z, 1.0)
    gfn = lambda y: spaces.metric(chart, kind, y, params)
    for point in jittered_grid(ranges, seed=7):
        gamma = spaces._christoffel(gfn, np.asarray(point), 1e-4)[1]
        assert _hex(gamma) == _hex(gamma.transpose(0, 2, 1))


def test_polar_axis_is_still_a_chart_singularity():
    """theta = 0 makes the polar-constant metric singular: inv raises
    LinAlgError, which the contraction reports as a chart singularity."""
    with pytest.raises(ChartSingularityError, match="degenerate"):
        curvature(Chart.POLAR_CONSTANT, "cc", (0.9, 0.0, 0.7), SpaceParams(0.3, 1.0))


@pytest.mark.parametrize("point", [(math.nan, 1.0, 0.7), (math.inf, 1.0, 0.7), (0.9, 1.0)],
                         ids=["nan", "inf", "two-coordinates"])
def test_curvature_rejects_a_point_that_is_not_three_finite_numbers(monkeypatch, point):
    """NaN used to come back in every field, inf raised a bare math domain
    error and a pair failed to unpack; all now raise DomainError naming the
    point, before any metric call."""
    calls = []
    monkeypatch.setattr(spaces, "metric", lambda *a: calls.append(a))
    with pytest.raises(DomainError, match=re.escape(repr(point))):
        curvature(Chart.POLAR_VARIABLE, "nc", point, SpaceParams(0.3, 1.0))
    assert calls == []
