"""Tests for the rank formulas and their applicability checks."""

from fractions import Fraction

import pytest

from curvelattice.adjunction import (
    ClassifiedPoint,
    CurveProfile,
    Functional,
    singular_points,
)
from curvelattice.algebra import ProjPoint, parse_poly
from curvelattice.mordellweil import (
    DegreeParity,
    NotApplicable,
    applicability,
    effective_wdeg,
    mw_rank,
    mw_rank_hyperelliptic,
)
from curvelattice.spectrum import WeightedPoly

XYZ = ("x", "y", "z")
XY = ("x", "y")


def wp(text, weights):
    return WeightedPoly(parse_poly(text, XY), weights)


def poly(text):
    return parse_poly(text, XYZ)


CUSP = wp("x^2 + y^3", (3, 2))

NINE_CUSP = CurveProfile(
    poly("x^6 - 2*x^3*y^3 - 2*x^3*z^3 + y^6 - 2*y^3*z^3 + z^6")
)


def six_cusp_profile():
    q = poly("x*z - y^2")
    c = poly("(z - x)*(z - 4*x)*(z - 9*x)")
    return CurveProfile(q * q * q + c * c)


class TestApplicability:
    def test_cuspidal_true(self):
        ok, obstruction = applicability(CUSP, NINE_CUSP)
        assert ok and obstruction == {}

    def test_degree_divisibility(self):
        # degree-7 curve: 6 does not divide 7
        septic = CurveProfile(poly("x^7 + y^7 + z^7"), points=[])
        ok, obstruction = applicability(CUSP, septic)
        assert not ok and obstruction == {}

    def test_custom_obstruction(self):
        # a declared condition at alpha = 1/6 obstructs f = x^2 + y^3
        pt = ClassifiedPoint(
            ProjPoint((0, 1, 1)),
            "custom",
            {Fraction(1, 6): [Functional(ProjPoint((0, 1, 1)))]},
        )
        prof = CurveProfile(NINE_CUSP.g, points=[pt])
        ok, obstruction = applicability(CUSP, prof)
        assert not ok
        assert obstruction == {Fraction(1, 6): 1}

    def test_effective_wdeg_reduces(self):
        assert effective_wdeg(CUSP) == 6
        assert effective_wdeg(wp("x^2 + y^3", (6, 4))) == 6
        assert effective_wdeg(wp("x^2 + y^6", (6, 2))) == 6


class TestMwRank:
    def test_nine_cusp_rank_six(self):
        rep = mw_rank(CUSP, NINE_CUSP)
        assert rep.applicable and rep.rank == 6
        assert rep.contributions == {Fraction(1, 6): 3, Fraction(5, 6): 3}

    def test_six_cusp_rank_two(self):
        rep = mw_rank(CUSP, six_cusp_profile())
        assert rep.rank == 2
        assert rep.contributions == {Fraction(1, 6): 1, Fraction(5, 6): 1}

    def test_x3y3_rank_zero(self):
        rep = mw_rank(wp("x^3 + y^3", (1, 1)), NINE_CUSP)
        assert rep.rank == 0
        assert rep.contributions == {}

    def test_smooth_quartic_rank_zero(self):
        prof = CurveProfile(poly("x^4 + y^4 + z^4"), points=[])
        rep = mw_rank(wp("x^4 + y^2", (1, 2)), prof)
        assert rep.rank == 0

    def test_not_applicable_raises(self):
        septic = CurveProfile(poly("x^7 + y^7 + z^7"), points=[])
        with pytest.raises(NotApplicable):
            mw_rank(CUSP, septic)

    def test_obstruction_carried(self):
        pt = ClassifiedPoint(
            ProjPoint((0, 1, 1)),
            "custom",
            {Fraction(1, 6): [Functional(ProjPoint((0, 1, 1)))]},
        )
        prof = CurveProfile(NINE_CUSP.g, points=[pt])
        with pytest.raises(NotApplicable) as err:
            mw_rank(CUSP, prof)
        assert err.value.obstruction == {Fraction(1, 6): 1}

    def test_rank_even(self):
        for f in (CUSP, wp("x^2 + y^6", (3, 1)), wp("x^3 + y^3", (1, 1))):
            rep = mw_rank(f, NINE_CUSP)
            assert rep.rank % 2 == 0

    def test_scale_invariance(self):
        a = mw_rank(CUSP, NINE_CUSP).rank
        b = mw_rank(wp("x^2 + y^3", (6, 4)), NINE_CUSP).rank
        assert a == b


class TestHyperelliptic:
    def test_e3_six_cusp(self):
        rep = mw_rank_hyperelliptic(3, six_cusp_profile())
        assert rep.rank == 2

    def test_e2_rank_zero(self):
        rep = mw_rank_hyperelliptic(2, NINE_CUSP)
        assert rep.rank == 0

    def test_e6_nine_cusp(self):
        # orders vanish at 2/3 and equal 3 at 5/6, so the sum is 2*3
        rep = mw_rank_hyperelliptic(6, NINE_CUSP)
        assert rep.rank == 6

    def test_odd_degree_rejected(self):
        septic = CurveProfile(poly("x^7 + y^7 + z^7"), points=[])
        with pytest.raises(DegreeParity):
            mw_rank_hyperelliptic(2, septic)

    def test_non_ade_rejected(self):
        pt = ClassifiedPoint(
            ProjPoint((0, 1, 1)), "custom", {}, ade=False
        )
        prof = CurveProfile(NINE_CUSP.g, points=[pt])
        with pytest.raises(NotApplicable):
            mw_rank_hyperelliptic(2, prof)

    def test_more_cusps_no_smaller_rank(self):
        r6 = mw_rank_hyperelliptic(3, six_cusp_profile()).rank
        r9 = mw_rank_hyperelliptic(3, NINE_CUSP).rank
        assert r9 >= r6


class TestRankReport:
    def test_rank_equals_contribution_sum(self):
        rep = mw_rank(CUSP, NINE_CUSP)
        assert rep.rank == sum(rep.contributions.values())
