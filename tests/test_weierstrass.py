"""Tests for Weierstrass coefficient bookkeeping and height formulas."""

import pytest

from curvelattice.algebra import UPoly, parse_poly
from curvelattice.weierstrass import (
    Degenerate,
    NotMinimal,
    WeierstrassData,
    height_from_intersections,
    is_minimal,
    no_reducible_fibers,
    pairing_from_intersections,
)


def up(text):
    return parse_poly(text, ("t",))


class TestSquarefreeDecomposition:
    def test_simple(self):
        # (t-1)^2 * (t+2)
        f = up("(t - 1)^2*(t + 2)")
        parts = UPolyFrom(f).squarefree_factors()
        assert sorted(parts) == [1, 2]
        assert parts[2].degree() == 1 and parts[1].degree() == 1

    def test_squarefree_input(self):
        parts = UPolyFrom(up("t^3 + t + 1")).squarefree_factors()
        assert list(parts) == [1]
        assert parts[1].degree() == 3

    def test_reconstruction(self):
        f = up("t^2*(t - 1)^3*(t^2 + 1)")
        parts = UPolyFrom(f).squarefree_factors()
        g = UPoly([1])
        for i, p in parts.items():
            for _ in range(i):
                g = g * p
        lead = UPolyFrom(f).coeffs[-1]
        assert (g * lead - UPolyFrom(f)).is_zero()


def UPolyFrom(mp):
    return UPoly.from_mpoly(mp, "t")


class TestDiscriminant:
    def test_constant_cases(self):
        w = WeierstrassData(up("0"), up("1"), 1)
        d = w.disc
        assert d.degree() == 0 and d.coeffs[0].a == 27

    def test_a_only(self):
        w = WeierstrassData(up("t"), up("0"), 1)
        d = w.disc
        assert d.degree() == 3 and d.coeffs[3].a == 4

    def test_squarefree_sextic_b(self):
        b = up("t^6 + t + 1")
        w = WeierstrassData(up("0"), b, 1)
        parts = w.disc.squarefree_factors()
        assert list(parts) == [2]
        assert parts[2].degree() == 6

    def test_degenerate_rejected(self):
        # 4A^3 = -27B^2 for A = -3t^2, B = 2t^3
        with pytest.raises(Degenerate):
            WeierstrassData(up("-3*t^2"), up("2*t^3"), 1)


class TestMinimality:
    def test_shared_high_valuation(self):
        w = WeierstrassData(up("t^4"), up("t^6"), 2)
        assert not is_minimal(w)

    def test_small_b(self):
        assert is_minimal(WeierstrassData(up("0"), up("t"), 1))

    def test_cube_of_quadratic(self):
        b = up("(t^2 + 1)^3")
        assert is_minimal(WeierstrassData(up("0"), b, 1))

    def test_infinity_place(self):
        # k=2 with constant A, B: degree deficits 8 and 12 at infinity
        w = WeierstrassData(up("1"), up("1"), 2)
        assert not is_minimal(w)

    def test_non_minimal_finite_place(self):
        # v(A) = 4 and v(B) = 6 at t = 0, while infinity has deficits 4 and 5
        w = WeierstrassData(up("t^4"), up("t^6*(t + 1)"), 2)
        assert not is_minimal(w)


class TestNoReducibleFibers:
    def test_squarefree_b_cuspidal_fibers(self):
        w = WeierstrassData(up("0"), up("t^6 + t + 1"), 1)
        assert no_reducible_fibers(w)

    def test_squarefree_disc(self):
        w = WeierstrassData(up("t^4 + 1"), up("t^6 + t"), 1)
        d = w.disc
        dd = UPoly([c * k for k, c in enumerate(d.coeffs)][1:])
        assert d.gcd(dd).degree() == 0  # oracle precondition
        assert no_reducible_fibers(w)

    def test_high_valuation_fails(self):
        # A = t^2, B = t^3: v(disc) = 6 at t = 0
        w = WeierstrassData(up("t^2 + 1"), up("t^3"), 1)
        # disc = 4(t^2+1)^3 + 27 t^6: check criterion honestly
        assert no_reducible_fibers(w) == _slow_check(w)

    def test_double_root_without_va1_fails(self):
        # A constant nonzero, B with double root at 0: v(disc) at 0?
        # disc = 4A^3 + 27 B^2; choose A, B so disc has a double root
        # with v(A) = 0: A = -3, B = 2 - t^2: disc(0) = -108 + 108 = 0
        w = WeierstrassData(up("-3*t^4 - 3"), up("2 - t^2"), 1)
        dec = w.disc.squarefree_factors()
        if dec.get(2) is not None and dec[2].degree() > 0:
            assert not no_reducible_fibers(w)

    def test_type_ii_with_high_valuation_of_a(self):
        # v(A) = 2, v(B) = 1 at t = 0: v(disc) = 2, Kodaira type II, which
        # is irreducible just as for A = 0 with the same B
        t = UPoly([0, 1])
        for a in ("0", "t^2"):
            w = WeierstrassData(up(a), up("t^6 + t"), 1)
            assert w.disc.squarefree_factors()[2].gcd(t) == t
            assert no_reducible_fibers(w)
            assert _slow_check(w)

    def test_type_ii_at_infinity_with_high_valuation_of_a(self):
        # at infinity v(A) = 4 - 2 = 2, v(B) = 6 - 5 = 1 and v(disc) = 2
        w = WeierstrassData(up("t^2"), up("t^5 + 1"), 1)
        assert w.disc.degree() == 10
        assert no_reducible_fibers(w)
        assert _slow_check(w)

    def test_disc_valuation_above_two_fails(self):
        # A = 0, B = t^2 (t + 1): v(disc) = 4 at t = 0
        w = WeierstrassData(up("0"), up("t^2*(t + 1)"), 1)
        assert is_minimal(w)
        assert not no_reducible_fibers(w)
        assert not _slow_check(w)

    def test_i2_at_infinity_fails(self):
        # at infinity A = -3 + s + s^4 and B = 2 - s + s^5 in s = 1/t:
        # v(disc) = 2 with v(B) = 0, a fiber of type I2; the finite
        # places are simple roots of disc
        w = WeierstrassData(up("-3*t^4 + t^3 + 1"), up("2*t^6 - t^5 + t"), 1)
        assert w.disc.degree() == 10
        assert list(w.disc.squarefree_factors()) == [1]
        assert not no_reducible_fibers(w)
        assert not _slow_check(w)

    def test_requires_minimal(self):
        w = WeierstrassData(up("t^4"), up("t^6"), 2)
        with pytest.raises(NotMinimal):
            no_reducible_fibers(w)


def _slow_check(w):
    """Independent check of the fiber criterion at roots in Q(w) only:
    v(disc) <= 1, or v(disc) = 2 with v(B) = 1 (Kodaira type II)."""
    from curvelattice.algebra import qomega_roots

    disc = w.disc
    roots, _missing = qomega_roots(disc)
    for r, m in roots:
        if m <= 1:
            continue
        if m == 2 and _val_at(w.B, r) == 1:
            continue
        return False
    v_d = 12 * w.k - disc.degree()
    if v_d >= 3:
        return False
    if v_d == 2 and (w.B.is_zero() or 6 * w.k - w.B.degree() != 1):
        return False
    return True


def _val_at(p, r):
    if p.is_zero():
        return None
    v = 0
    from curvelattice.algebra import UPoly as U

    lin = U([-r, 1])
    while True:
        q, rem = p.divmod(lin)
        if not rem.is_zero():
            return v
        p, v = q, v + 1


class TestHeights:
    def test_height_examples(self):
        assert height_from_intersections(1, 0) == 2
        for k in range(1, 5):
            for n in range(0, 4):
                assert height_from_intersections(k, n) == 2 * (k + n)

    def test_height_even(self):
        for chi in range(1, 6):
            for sz in range(0, 6):
                assert height_from_intersections(chi, sz) % 2 == 0

    def test_pairing_examples(self):
        assert pairing_from_intersections(1, 0, 0, 1) == 0
        assert pairing_from_intersections(2, 1, 1, 0) == 4

    def test_domain(self):
        with pytest.raises(ValueError):
            height_from_intersections(0, 1)
        with pytest.raises(ValueError):
            height_from_intersections(1, -1)
