"""Coalgebra tests: realizations, coproduct vs closed forms, Casimirs, brackets."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from curvkepler.coalgebra import (BracketReport, Identity, IdentityResult,
                                  casimir_of, casimirs,
                                  coproduct_join, one_site, pbracket,
                                  run_table, sample_beltrami, three_site,
                                  three_site_closed_form, verify_casimirs,
                                  verify_sl2z)
from curvkepler.phase import P1, Q1, Chart, Observable, PhaseState
from curvkepler.symmetry import independence_rank


def random_states(n, seed=0, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    return [sample_beltrami(rng, lo, hi) for _ in range(n)]


def test_one_site_classical_limit():
    r = one_site(0.0)
    s = PhaseState.beltrami(2.0, 0, 0, 3.0, 0, 0)
    assert r.jplus(s) == pytest.approx(9.0, rel=1e-15)
    assert r.jminus(s) == pytest.approx(4.0, rel=1e-15)
    assert r.jthree(s) == pytest.approx(6.0, rel=1e-15)


def test_one_site_deformed_value():
    r = one_site(0.1)
    s = PhaseState.beltrami(1.0, 0, 0, 1.0, 0, 0)
    assert r.jplus(s) == pytest.approx(math.sinh(0.1) / 0.1, rel=1e-14)
    assert r.jplus(s) == pytest.approx(1.0016675001984403, rel=1e-12)


def test_one_site_casimir_vanishes():
    """The one-pair realization represents Casimir value zero."""
    for z in (0.0, 0.31, -0.62):
        cas = casimir_of(one_site(z))
        for s in random_states(20, seed=4):
            assert abs(cas(s)) < 1e-12


def test_coproduct_additive_on_jminus():
    two = coproduct_join(one_site(0.0, 1), one_site(0.0, 2))
    s = PhaseState.beltrami(1.0, 2.0, 0.0, 0.0, 0.0, 0.0)
    assert two.jminus(s) == pytest.approx(5.0, rel=1e-15)


def test_coproduct_two_site_hand_value():
    """2-site J3 at unit point: sinhc(z)(e^z + e^-z)."""
    z = 0.2
    two = coproduct_join(one_site(z, 1), one_site(z, 2))
    s = PhaseState.beltrami(1.0, 1.0, 0.5, 1.0, 1.0, 0.0)
    want = (math.sinh(z) / z) * (math.exp(z) + math.exp(-z))
    assert two.jthree(s) == pytest.approx(want, rel=1e-14)


def test_coproduct_rejects_bad_joins():
    with pytest.raises(ValueError):
        coproduct_join(one_site(0.1), one_site(0.2, 2))
    with pytest.raises(ValueError):
        coproduct_join(one_site(0.1, 1), one_site(0.1, 1))
    two = coproduct_join(one_site(0.1, 1), one_site(0.1, 2))
    with pytest.raises(ValueError):
        coproduct_join(two, two)


@pytest.mark.parametrize("z", [0.37, -0.21, 0.5, 0.0])
def test_coproduct_matches_closed_form(z):
    """Iterated coproduct reproduces the explicit 3-site generators to 1e-12."""
    built = three_site(z)
    closed = three_site_closed_form(z)
    for s in random_states(20, seed=11):
        for name in ("jminus", "jplus", "jthree"):
            a = built.generator(name)(s)
            b = closed.generator(name)(s)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_casimirs_classical_limit():
    cs = casimirs(0.0)
    s = PhaseState.beltrami(0.7, -1.1, 0.4, 0.3, 0.5, -1.2)
    q1, q2, q3, p1, p2, p3 = s.coords
    npt.assert_allclose(cs.c12(s), (q1 * p2 - q2 * p1) ** 2, rtol=1e-14)
    npt.assert_allclose(cs.c23(s), (q2 * p3 - q3 * p2) ** 2, rtol=1e-14)


def test_casimirs_vanish_at_zero_momentum():
    cs = casimirs(0.17)
    s = PhaseState.beltrami(0.7, 1.1, 0.4, 0.0, 0.0, 0.0)
    for ob in (cs.c12, cs.c23, cs.c123):
        assert ob(s) == 0.0


def test_casimirs_commute_with_generators():
    """Each Casimir image Poisson-commutes with the 3-site generators."""
    z = 0.1
    cs = casimirs(z)
    r3 = three_site_closed_form(z)
    s = PhaseState.beltrami(1.0, 0.5, 0.2, 0.3, -0.1, 0.7)
    for cob in (cs.c12, cs.c23, cs.c123):
        for name in ("jminus", "jplus", "jthree"):
            assert abs(pbracket(cob, r3.generator(name), s)) < 1e-9


def test_casimirs_match_generator_assembly():
    """Closed forms equal sinh(zJ-)/z J+ - J3^2 on the joined realizations."""
    z = -0.4
    cs = casimirs(z)
    pairs = [
        (casimir_of(coproduct_join(one_site(z, 1), one_site(z, 2))), cs.c12),
        (casimir_of(coproduct_join(one_site(z, 2), one_site(z, 3))), cs.c23),
        (casimir_of(three_site(z)), cs.c123),
    ]
    for s in random_states(20, seed=3):
        for built, closed in pairs:
            a, b = built(s), closed(s)
            assert abs(a - b) <= 1e-11 * max(1.0, abs(a), abs(b))


def test_pbracket_canonical_pairs():
    s = PhaseState.beltrami(0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    assert pbracket(Q1, P1, s) == pytest.approx(1.0, abs=1e-15)
    from curvkepler.phase import P2
    assert pbracket(Q1, P2, s) == pytest.approx(0.0, abs=1e-15)


def test_pbracket_classical_sl2():
    """{J-, J+} = 4 J3 at the classical point (1, 1)."""
    r = one_site(0.0)
    s = PhaseState.beltrami(1.0, 0, 0, 1.0, 0, 0)
    assert pbracket(r.jminus, r.jplus, s) == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("sites,z,tol", [(1, 0.0, 1e-10), (3, 0.3, 1e-9)])
def test_verify_sl2z(sites, z, tol):
    r = one_site(z) if sites == 1 else three_site(z)
    report = verify_sl2z(r, samples=50, seed=2)
    assert report.max_residual < tol
    assert report.passed()


def test_verify_sl2z_all_site_counts():
    """The bracket rules hold for 1-, 2- and 3-site realizations."""
    z = 0.3
    reals = [one_site(z),
             coproduct_join(one_site(z, 1), one_site(z, 2)),
             three_site(z)]
    for r in reals:
        report = verify_sl2z(r, samples=100, seed=9)
        assert report.max_residual < 1e-9, (r.sites, report.max_residual)


def test_verify_sl2z_negative_control():
    r = three_site(0.3)
    report = verify_sl2z(r, samples=50, seed=2, perturb="jplus")
    assert report.max_residual > 1e-3
    assert not report.passed()
    with pytest.raises(ValueError):
        verify_sl2z(r, samples=5, seed=0, perturb="nonesuch")


def test_verify_casimirs_suite():
    report = verify_casimirs(0.2, samples=60, seed=5)
    assert report.passed(1e-9)
    groups = {r.group for r in report.results}
    assert groups == {"centrality", "involution", "closed-form", "coproduct"}
    bad = verify_casimirs(0.2, samples=30, seed=5, perturb="jplus")
    assert bad.max_residual > 1e-3


def test_involution_of_casimir_images():
    """{C^(2), C^(3)} = 0 and {C_(2), C^(3)} = 0 at random points."""
    cs = casimirs(0.45)
    for s in random_states(30, seed=8):
        assert abs(pbracket(cs.c12, cs.c123, s)) < 1e-9 * max(
            1.0, abs(cs.c12(s)) * abs(cs.c123(s)))
        assert abs(pbracket(cs.c23, cs.c123, s)) < 1e-9 * max(
            1.0, abs(cs.c23(s)) * abs(cs.c123(s)))


def test_classical_contraction_exact():
    """Every z-dependent observable at z = 0 equals its classical counterpart."""
    r = three_site_closed_form(0.0)
    cs = casimirs(0.0)
    for s in random_states(100, seed=21):
        q = np.array(s.coords[:3])
        p = np.array(s.coords[3:])
        npt.assert_allclose(r.jminus(s), q @ q, rtol=1e-12)
        npt.assert_allclose(r.jplus(s), p @ p, rtol=1e-12)
        npt.assert_allclose(r.jthree(s), q @ p, rtol=1e-12, atol=1e-13)
        ell = np.cross(q, p)
        npt.assert_allclose(cs.c12(s), ell[2] ** 2, rtol=1e-12, atol=1e-13)
        npt.assert_allclose(cs.c23(s), ell[0] ** 2, rtol=1e-12, atol=1e-13)
        npt.assert_allclose(cs.c123(s), ell @ ell, rtol=1e-12, atol=1e-13)


def test_functional_independence_rank4():
    """(C^(2), C_(2), C^(3), H) has Jacobian rank 4 for H = J+/2."""
    z = 0.3
    cs = casimirs(z)
    h = 0.5 * three_site_closed_form(z).jplus
    for s in random_states(20, seed=13):
        rank = independence_rank([cs.c12, cs.c23, cs.c123, h], s)
        assert rank == 4


def test_report_serialization_schema():
    report = verify_sl2z(one_site(0.2), samples=5, seed=1)
    doc = report.as_dict()
    assert doc["schema"] == 1
    for row in doc["results"]:
        assert set(row) == {"identity", "group", "samples", "max_residual",
                            "nan_samples", "worst_point"}
    assert "sl2z" in report.to_json()


def test_run_table_value_identity():
    table = [Identity("J- equals itself", one_site(0.3).jminus, None,
                      one_site(0.3).jminus)]
    report = run_table("adhoc", table, sample_beltrami, 5, 0)
    assert report.max_residual == 0.0
    with pytest.raises(ValueError):
        run_table("adhoc", table, sample_beltrami, 0, 0)


def _alternating_nan_table():
    calls = [0]

    def fn(*s):
        calls[0] += 1
        return math.nan if calls[0] % 2 == 0 else s[0]

    return [Identity("NaN at every other sample", Observable(fn), None, Q1)]


def test_run_table_nan_residual_is_the_worst():
    report = run_table("adhoc", _alternating_nan_table(), sample_beltrami, 6, 0)
    assert math.isnan(report.max_residual)
    assert not report.passed()
    assert len(report.failing()) == 1
    assert len(report.results[0].worst_point) == 6


def test_run_table_counts_nan_samples():
    report = run_table("adhoc", _alternating_nan_table(), sample_beltrami, 7, 0)
    assert report.results[0].nan_samples == 3           # samples 2, 4 and 6
    assert report.as_dict()["results"][0]["nan_samples"] == 3
    mixed = _alternating_nan_table() + [Identity("Q1 = Q1", Q1, None, Q1)]
    assert [r.nan_samples for r in run_table("adhoc", mixed, sample_beltrami, 4, 0).results] \
        == [2, 0]


def test_run_table_all_nan_keeps_a_worst_point():
    table = [Identity("always NaN", Observable(lambda *s: math.nan), None, Q1)]
    report = run_table("adhoc", table, sample_beltrami, 3, 0)
    assert math.isnan(report.max_residual)
    assert len(report.as_dict()["results"][0]["worst_point"]) == 6
    assert report.results[0].nan_samples == 3


def test_bracket_report_max_residual_sees_nan():
    rows = [IdentityResult("a", "g", 1, 1.0, ()),
            IdentityResult("b", "g", 1, math.nan, ())]
    report = BracketReport("adhoc", 1, 0, results=rows)
    assert math.isnan(report.max_residual)
    assert not report.passed(1e300)
    assert BracketReport("empty", 1, 0).max_residual == 0.0
