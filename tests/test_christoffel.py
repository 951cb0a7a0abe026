"""Christoffel symbols and the Riemann tensor on Python floats against the
numpy-scalar contractions.

``spaces._christoffel`` contracts the inverse metric's diagonal with the
metric's difference quotients, and ``spaces.curvature`` sums the Riemann
tensor, on nested lists of Python floats.  Each operation is the IEEE
operation the numpy scalars performed, so Γ and every curvature field must
match the numpy-scalar references below bit for bit.
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


def reference_curvature(chart, kind, point, params, h=1e-4):
    """``curvature`` as it ran on numpy scalars: the full Christoffel sum over
    ``l`` and the Riemann loop indexing numpy arrays element by element."""
    x = np.asarray(point, dtype=float)
    gfn = lambda y: spaces.metric(chart, kind, y, params)
    g, gamma = reference_christoffel(gfn, x, h)
    dgamma = np.empty((3, 3, 3, 3))
    for k in range(3):
        xp = x.copy(); xp[k] += h
        xm = x.copy(); xm[k] -= h
        dgamma[k] = (reference_christoffel(gfn, xp, h)[1]
                     - reference_christoffel(gfn, xm, h)[1]) / (2.0 * h)
    riem = np.empty((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    acc = dgamma[k][i, l, j] - dgamma[l][i, k, j]
                    for m in range(3):
                        acc += gamma[i, k, m] * gamma[m, l, j] \
                             - gamma[i, l, m] * gamma[m, k, j]
                    riem[i, j, k, l] = acc
    low = np.einsum("im,mjkl->ijkl", g, riem)

    def sec(i, j):
        return low[i, j, i, j] / (g[i, i] * g[j, j] - g[i, j] ** 2)

    ric = np.einsum("ijil->jl", riem)
    kscal = float(np.einsum("jl,jl->", np.linalg.inv(g), ric))
    closed = spaces._closed_curvature(chart, kind, x, params)
    return spaces.CurvatureResult(float(sec(0, 1)), float(sec(0, 2)),
                                  float(sec(1, 2)), kscal, closed)


# The polar charts also carry Lorentzian signatures; the Beltrami chart only
# exists for kappa2 > 0.
SIGNED = [(chart, kind, ranges, z, kappa2)
          for chart, kind, ranges in PAIRS for z in ZS
          for kappa2 in ((1.0,) if chart is Chart.BELTRAMI else (1.0, -1.0))]
SIGNED_IDS = [f"{c.value}-{k}-z{z}-k2{k2}" for c, k, _, z, k2 in SIGNED]


@pytest.mark.parametrize("chart, kind, ranges, z, kappa2", SIGNED, ids=SIGNED_IDS)
def test_curvature_fields_match_the_numpy_scalar_riemann_loop(chart, kind, ranges, z, kappa2):
    params = SpaceParams(z, kappa2)
    points = jittered_grid(ranges, seed=20 + ZS.index(z))
    got = [_fields(curvature(chart, kind, p, params)) for p in points]
    want = [_fields(reference_curvature(chart, kind, p, params)) for p in points]
    assert got == want


NEGATIVE = [(chart, kind, ranges, z, kappa2)
            for chart, kind, ranges in PAIRS if chart is not Chart.BELTRAMI
            for z in ZS for kappa2 in (-1.0, -2.0)]


@pytest.mark.parametrize("chart, kind, ranges, z, kappa2", NEGATIVE,
                         ids=[f"{c.value}-z{z}-k2{k2}" for c, _, _, z, k2 in NEGATIVE])
def test_christoffel_keeps_the_sign_of_zero_on_negative_kappa2(chart, kind, ranges, z, kappa2):
    """Negative metric entries make ginv_ii * +0.0 a -0.0; the full sum over
    l added it to +0.0, and the diagonal contraction must give the same bits."""
    params = SpaceParams(z, kappa2)
    gfn = lambda y: spaces.metric(chart, kind, y, params)
    for point in jittered_grid(ranges, seed=30 + ZS.index(z)):
        x = np.asarray(point)
        assert _hex(spaces._christoffel(gfn, x, 1e-4)[1]) == \
            _hex(reference_christoffel(gfn, x, 1e-4)[1])


@pytest.mark.parametrize("chart, kind, ranges, z, kappa2", SIGNED, ids=SIGNED_IDS)
def test_metric_is_exactly_diagonal(chart, kind, ranges, z, kappa2):
    """The diagonal Christoffel contraction rests on this premise."""
    params = SpaceParams(z, kappa2)
    off = ~np.eye(3, dtype=bool)
    for point in jittered_grid(ranges, seed=40 + ZS.index(z)):
        g = spaces.metric(chart, kind, point, params)
        assert g.shape == (3, 3) and (g[off] == 0.0).all()


@pytest.mark.parametrize("h", [1e-300, 1e-17])
def test_curvature_rejects_a_step_that_does_not_move_the_point(monkeypatch, h):
    """x + h == x - h made every difference quotient zero, so the point came
    back flat (k12 = kscalar = 0.0) on the sphere; now a DomainError names the
    step and the coordinate, before any metric call."""
    calls = []
    monkeypatch.setattr(spaces, "metric", lambda *a: calls.append(a))
    with pytest.raises(DomainError, match=re.escape(f"step {h!r}") + ".*x1 = 0.9"):
        curvature(Chart.POLAR_CONSTANT, "cc", (0.9, 1.0, 0.7), SpaceParams(0.3, 1.0), h=h)
    assert calls == []


def test_a_step_that_moves_only_a_large_coordinate_is_rejected_on_that_coordinate():
    with pytest.raises(DomainError, match="x2 = 40.0"):
        curvature(Chart.POLAR_CONSTANT, "cc", (0.9, 40.0, 0.7), SpaceParams(0.3, 1.0), h=1e-15)
