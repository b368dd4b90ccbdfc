"""The int Cyclo against the Fraction-based class it replaced.

Cyclo stores (p + q*w) / d as ints in canonical form (d > 0, gcd(p, q, d)
= 1).  Reference below is the earlier implementation, two Fractions a + b*w,
kept here as the oracle: every ring operation, equality and hashing, the
rendered strings and the sign convention must agree with it.  poly_sqrt,
now built on the stored Z[w] pairs, is checked the same way against the
loop over MPoly and Cyclo operations that it replaced, and
cyclo_nth_roots, now read from the norm and the trace, against the root
finder on x^n - c that it replaced.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvelattice.algebra import (
    C_ONE,
    C_ZERO,
    NOT_A_SQUARE,
    Cyclo,
    MPoly,
    UPoly,
    _grlex_key,
    cyclo_conj_sign_canonical,
    cyclo_nth_roots,
    poly_sqrt,
    qomega_roots,
    render,
    render_coeff,
)


@dataclass(frozen=True)
class Reference:
    """An element a + b*w of Q(w), with w^2 = -w - 1."""

    a: Fraction
    b: Fraction

    def __add__(self, o):
        return Reference(self.a + o.a, self.b + o.b)

    def __neg__(self):
        return Reference(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        a, b, c, d = self.a, self.b, o.a, o.b
        bd = b * d
        return Reference(a * c - bd, a * d + b * c - bd)

    def conjugate(self):
        return Reference(self.a - self.b, -self.b)

    def norm(self):
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self):
        n, c = self.norm(), self.conjugate()
        return Reference(c.a / n, c.b / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = Reference(Fraction(1), Fraction(0))
        for _ in range(n):
            result = result * self
        return result


def reference_render_coeff(c: Reference) -> str:
    if c.b == 0:
        return str(c.a)
    if c.a == 0:
        if c.b == 1:
            return "w"
        return f"{c.b}*w"
    if c.b > 0:
        return f"({c.a} + {c.b}*w)" if c.b != 1 else f"({c.a} + w)"
    return f"({c.a} - {-c.b}*w)" if c.b != -1 else f"({c.a} - w)"


def reference_render(p: MPoly) -> str:
    """render as it read the Cyclo terms view."""
    if p.is_zero():
        return "0"
    pieces = []
    for e in sorted(p.terms, key=_grlex_key, reverse=True):
        c = p.terms[e]
        mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(p.vars, e) if k > 0)
        sign = "-" if (c.a < 0 if c.b == 0 else c.a == 0 and c.b < 0) else "+"
        c = -c if sign == "-" else c
        co = reference_render_coeff(Reference(c.a, c.b))
        body = mono if mono and c == 1 else f"{co}*{mono}" if mono else co
        pieces.append((sign, body))
    out = pieces[0][1] if pieces[0][0] == "+" else f"-{pieces[0][1]}"
    return out + "".join(f" {sign} {body}" for sign, body in pieces[1:])


def reference_poly_sqrt(p: MPoly):
    """poly_sqrt as it ran on MPoly and Cyclo operations."""
    if p.is_zero():
        return MPoly.zero(p.vars)
    lead = p.leading_exponents()
    if any(e % 2 for e in lead):
        return NOT_A_SQUARE
    lc_roots = cyclo_nth_roots(p.leading_coeff(), 2)
    if not lc_roots:
        return NOT_A_SQUARE
    half = tuple(e // 2 for e in lead)
    s = MPoly.monomial(p.vars, half, lc_roots[0])
    twice_lc = s.leading_coeff() * 2
    rem = p - s * s
    while not rem.is_zero():
        e = rem.leading_exponents()
        ne = tuple(a - b for a, b in zip(e, half))
        if any(k < 0 for k in ne) or _grlex_key(ne) >= _grlex_key(half):
            return NOT_A_SQUARE
        t = MPoly.monomial(p.vars, ne, rem.leading_coeff() / twice_lc)
        rem = rem - (s + s + t) * t
        s = s + t
    return s if cyclo_conj_sign_canonical(s.leading_coeff()) else -s


def reference_nth_roots(c: Cyclo, n: int):
    """cyclo_nth_roots as the roots in Q(w) of x^n - c."""
    if c.is_zero():
        return [C_ZERO]
    roots, _missing = qomega_roots(UPoly([-c] + [C_ZERO] * (n - 1) + [C_ONE]))
    return [r for r, _m in roots]


rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)) | st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 6)
)
pairs = st.tuples(rationals, rationals)


def both(ab):
    return Cyclo(*ab), Reference(*ab)


def agrees(x: Cyclo, r: Reference) -> bool:
    """Same value, in the canonical form."""
    canonical = x.d > 0 and math.gcd(x.p, x.q, x.d) == 1
    return canonical and (x.a, x.b) == (r.a, r.b)


@given(pairs, pairs)
@settings(max_examples=300, deadline=None)
def test_ring_operations(u, v):
    (x, rx), (y, ry) = both(u), both(v)
    assert agrees(x, rx)
    assert agrees(x + y, rx + ry)
    assert agrees(x - y, rx - ry)
    assert agrees(-x, -rx)
    assert agrees(x * y, rx * ry)
    assert agrees(x.conjugate(), rx.conjugate())
    assert x.norm() == rx.norm()
    for n in range(-2, 4):
        if n >= 0 or not x.is_zero():
            assert agrees(x**n, rx**n)
    if not y.is_zero():
        assert agrees(y.inverse(), ry.inverse())
        assert agrees(x / y, rx / ry)


@given(pairs, st.integers(-50, 50) | rationals)
@settings(max_examples=150, deadline=None)
def test_mixed_operands(u, k):
    # ints and Fractions on either side, as the earlier class coerced them
    x, rx = both(u)
    rk = Reference(Fraction(k), Fraction(0))
    assert agrees(x + k, rx + rk) and agrees(k + x, rk + rx)
    assert agrees(x - k, rx - rk) and agrees(k - x, rk - rx)
    assert agrees(x * k, rx * rk) and agrees(k * x, rk * rx)
    if k:
        assert agrees(x / k, rx / rk)
    if not x.is_zero():
        assert agrees(k / x, rk / rx)


@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4), st.integers(-60, 60))
@settings(max_examples=300, deadline=None)
def test_equality_and_hash_across_constructions(p, q, d):
    assume(d != 0)
    a, b = Fraction(p, d), Fraction(q, d)
    forms = [Cyclo(p, q, d), Cyclo(a, b), Cyclo(str(a), str(b)), Cyclo(a, q) - Cyclo(0, q - b)]
    assert len(set(forms)) == 1
    assert len({hash(c) for c in forms}) == 1
    x = forms[0]
    assert x.d > 0 and math.gcd(x.p, x.q, x.d) == 1
    assert (x.a, x.b) == (a, b)
    if q == 0:
        assert x == a and (x == p) == (a == p)
    else:
        assert x != a


@given(pairs)
@settings(max_examples=300, deadline=None)
def test_render_and_sign(u):
    x, rx = both(u)
    assert render_coeff(x.p, x.q, x.d) == str(x) == reference_render_coeff(rx)
    assert cyclo_conj_sign_canonical(x) == (rx.a > 0 or (rx.a == 0 and rx.b > 0))


XY = ("x", "y")
terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.builds(Cyclo, st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6)),
    max_size=5,
)


@given(terms)
@settings(max_examples=150, deadline=None)
def test_render_polynomial(t):
    p = MPoly(XY, t)
    assert render(p) == reference_render(p)


@given(terms, st.builds(Cyclo, st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3)), terms)
@settings(max_examples=120, deadline=None)
def test_poly_sqrt(t, c, noise):
    # squares times a square or any scalar, and perturbed: square or not,
    # the answer is the reference's
    s2 = MPoly(XY, t) * MPoly(XY, t)
    for p in (s2.scale(c * c), s2.scale(c), s2.scale(c * c) + MPoly(XY, noise)):
        got = poly_sqrt(p)
        assert got == reference_poly_sqrt(p)
        if got is not NOT_A_SQUARE:
            assert got * got == p


@given(pairs, st.sampled_from([2, 3]), st.builds(Cyclo, st.integers(-3, 3), st.integers(-3, 3)))
@settings(max_examples=300, deadline=None)
def test_nth_roots(u, n, k):
    # n-th powers, the same times a small Z[w] factor (a power or not), and
    # arbitrary values: the same roots in the same order as the reference
    x = Cyclo(*u)
    for c in (x**n, x**n * k, x, k, Cyclo(x.p), Cyclo(0, x.q)):
        got = cyclo_nth_roots(c, n)
        assert got == reference_nth_roots(c, n)
        assert all(r**n == c for r in got)
