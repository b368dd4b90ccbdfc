"""Tests for exact Q(w) arithmetic, polynomials, gcd/resultants, sqrt."""

import contextlib
import functools
import io
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curvelattice import algebra, cli, torus
from curvelattice.adjunction import gcd_degree
from curvelattice.algebra import (
    C_ONE,
    C_ZERO,
    NOT_A_SQUARE,
    OMEGA,
    AlgebraError,
    Cyclo,
    InvariantError,
    MPoly,
    NotDivisible,
    ParseError,
    ProjPoint,
    UPoly,
    cyclo_nth_roots,
    det_cyclo,
    is_weighted_homogeneous,
    monomial_values,
    parse_poly,
    poly_sqrt,
    qomega_roots,
    render,
    resultant,
    weighted_degree,
)

XYZ = ("x", "y", "z")

rationals = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 7)
)
cyclos = st.builds(Cyclo, rationals, rationals)

W = sympy.Symbol("w")


def to_sympy(c: Cyclo):
    """c as a polynomial in the symbol w."""
    a, b = c.a, c.b
    return sympy.Rational(a.numerator, a.denominator) + sympy.Rational(
        b.numerator, b.denominator
    ) * W


def reduce_omega(expr):
    """The remainder of a polynomial in w modulo w^2 + w + 1."""
    return sympy.rem(sympy.expand(expr), W**2 + W + 1, W)


def rand_poly(rng, variables=XYZ, deg=3, terms=4, with_omega=True):
    out = MPoly.zero(variables)
    for _ in range(terms):
        exps = [0] * len(variables)
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(len(variables))] += 1
        b = rng.randint(-2, 2) if with_omega else 0
        c = Cyclo(rng.randint(-4, 4), b)
        out = out + MPoly.monomial(variables, exps, c)
    return out


class TestCyclo:
    def test_omega_relation(self):
        assert OMEGA * OMEGA + OMEGA + C_ONE == C_ZERO

    def test_norm_and_inverse(self):
        x = Cyclo(Fraction(3, 2), Fraction(-5, 7))
        assert x * x.inverse() == C_ONE
        assert x.norm() == Fraction(3, 2) ** 2 + Fraction(3, 2) * Fraction(5, 7) + Fraction(5, 7) ** 2

    def test_conjugate_is_omega_squared(self):
        assert OMEGA.conjugate() == OMEGA * OMEGA

    @given(cyclos, cyclos, cyclos)
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == C_ONE


class TestParser:
    def test_nine_cusp_sextic(self):
        p = parse_poly("x^6 - 2*x^3*y^3 - 2*x^3*z^3 + y^6 - 2*y^3*z^3 + z^6", XYZ)
        assert len(p.terms) == 6
        assert p.degree() == 6
        assert p.terms[(6, 0, 0)] == C_ONE
        assert p.terms[(3, 3, 0)] == Cyclo(-2)

    def test_zero(self):
        p = parse_poly("0", XYZ)
        assert p.is_zero()
        assert p.degree() == -1

    def test_like_term_merge(self):
        p = parse_poly("(1/2)*w*x + (1/2)*w*x", XYZ)
        assert p.terms == {(1, 0, 0): OMEGA}

    def test_rational_and_omega_coefficients(self):
        p = parse_poly("(2/3 - w)*x*y + 5", XYZ)
        assert p.terms[(1, 1, 0)] == Cyclo(Fraction(2, 3), -1)
        assert p.constant_coeff() == Cyclo(5)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError):
            parse_poly("x + + y", XYZ)
        with pytest.raises(ParseError):
            parse_poly("x + q", XYZ)

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(40):
            p = rand_poly(rng)
            assert parse_poly(render(p), XYZ) == p

    def test_round_trip_edge_cases(self):
        for text in ["0", "-x", "w*x - y", "(1/2 - 3*w)*z^2", "-3/4"]:
            p = parse_poly(text, XYZ)
            assert parse_poly(render(p), XYZ) == p


RUNAWAY = [
    "(x + y + z)^1000000000",
    "(1/2)^" + "9" * 5000,
    "((2^100)^100)^100",
    "((x + y + z)^10)^10",
    "x" + "*x" * 200,
    "(" * 100_000 + "x" + ")" * 100_000,
    "1" * 100_000 + "*x",
    "1/" + "7" * 5000,
]


class TestParserLimits:
    @pytest.mark.parametrize("text", RUNAWAY, ids=lambda text: text[:24])
    def test_runaway_input_fails_at_once(self, text):
        # the limits are checked before a product or power is formed: the
        # error comes at once, with no large allocation
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ParseError, match="above|more than"):
                parse_poly(text, XYZ)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1
        assert peak < 1_000_000

    def test_limits_are_inclusive(self):
        assert parse_poly("(x + y)^100", XYZ).degree() == 100
        assert parse_poly("(" * 100 + "x" + ")" * 100, XYZ) == MPoly.variable("x", XYZ)
        with pytest.raises(ParseError, match="degree above 100"):
            parse_poly("(x + y)^100*x", XYZ)
        with pytest.raises(ParseError, match="exponent above 100"):
            parse_poly("x^101", XYZ)
        assert parse_poly("9" * 1000, XYZ).constant_coeff() == Cyclo(10**1000 - 1)
        with pytest.raises(ParseError, match="above 1000 digits"):
            parse_poly("9" * 1001, XYZ)

    def test_cli_reports_the_limit_as_a_domain_error(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["singular", "--curve", '{"g": "(x + y + z)^1000000000"}'])
        assert code == 2
        assert json.loads(out.getvalue())["error"] == "ParseError"


MONOMIALS = {
    d: [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    for d in range(3)
}


@st.composite
def forms(draw, coeff, degree, x_free=False):
    """A nonzero ternary form of the given degree with 1 to 4 terms."""
    monos = [e for e in MONOMIALS[degree] if not (x_free and e[0])]
    terms = draw(
        st.dictionaries(
            st.sampled_from(monos),
            coeff.filter(lambda c: not c.is_zero()),
            min_size=1,
            max_size=4,
        )
    )
    return MPoly(XYZ, terms)


@st.composite
def gcd_triples(draw):
    """(a, b, c) over Q or Q(w); the shared c is sometimes divisible by z,
    free of x or a square."""
    coeff = cyclos if draw(st.booleans()) else st.builds(Cyclo, rationals)
    a = draw(forms(coeff, draw(st.integers(1, 2))))
    b = draw(forms(coeff, draw(st.integers(1, 2))))
    shape = draw(st.sampled_from(["plain", "z", "x-free", "square"]))
    c = draw(forms(coeff, draw(st.integers(0, 2)), x_free=shape == "x-free"))
    if shape == "z":
        c = c * MPoly.variable("z", XYZ)
    elif shape == "square":
        c = c * c
    return a, b, c


def sympy_gcd_degree(p: MPoly, q: MPoly) -> int:
    """Total degree of sympy's gcd over QQ(sqrt(-3)), w = (-1 + sqrt(-3))/2."""
    field = QQ_OMEGA
    w = field.from_sympy((SQRT_M3 - 1) / 2)

    def conv(f):
        def elt(x):
            return field.convert(sympy.Rational(x.numerator, x.denominator))

        coeffs = {e: elt(c.a) + elt(c.b) * w for e, c in f.terms.items()}
        return sympy.Poly.from_dict(coeffs, *sympy.symbols("x y z"), domain=field)

    return conv(p).gcd(conv(q)).total_degree()


class TestGcdDegree:
    """adjunction.gcd_degree: the least gcd degree on a pencil of lines."""

    @settings(max_examples=50, deadline=None)
    @given(gcd_triples())
    # a and b share z, so the gcd is z*c, one degree above c
    @example(
        tuple(
            parse_poly(t, XYZ)
            for t in (
                "(-1 - 2*w)*z",
                "(-2 + w)*x*z + (-8 + w)*z^2",
                "(-3 - w)*y + (2 + w)*z",
            )
        )
    )
    def test_matches_sympy(self, triple):
        a, b, c = triple
        p, q = a * c, b * c
        got = gcd_degree(p, q)
        assert got >= c.degree()
        assert got == sympy_gcd_degree(p, q)
        assert gcd_degree(q, p) == got

    def test_bound_tight_pencil(self):
        # the centre is (1 : 1 : 0), and the lines through (0 : a : 1) for
        # a = 0, 1, 2 meet x = 0 where q does: only the fourth and last
        # line, m*n + 1 = 4, certifies the coprime pair
        p = parse_poly("x", XYZ)
        q = parse_poly("y*(y - z)*(y - 2*z)", XYZ)
        assert gcd_degree(p, q) == 0

    def test_common_factor_z(self):
        p = parse_poly("z*(x + y)", XYZ)
        q = parse_poly("z*(x - y)^2", XYZ)
        assert gcd_degree(p, q) == 1
        assert gcd_degree(p * p, q * parse_poly("x + y", XYZ)) == 2

    def test_constants(self):
        one, two = MPoly.const(XYZ, 1), MPoly.const(XYZ, OMEGA)
        assert gcd_degree(one, two) == 0
        assert gcd_degree(two, parse_poly("x^2 + y*z", XYZ)) == 0

    def test_domain(self):
        form = parse_poly("x*y", XYZ)
        for bad in (
            parse_poly("x^2 + y", XYZ),
            MPoly.zero(XYZ),
            parse_poly("x", ("x", "y")),
        ):
            with pytest.raises(AlgebraError):
                gcd_degree(form, bad)
            with pytest.raises(AlgebraError):
                gcd_degree(bad, form)


XY = ("x", "y")


def mpoly_to_sympy(p: MPoly):
    """p in the sympy symbols named by its variables."""
    symbols = sympy.symbols(p.vars)
    return sum(
        to_sympy(c) * math.prod(s**k for s, k in zip(symbols, e)) for e, c in p.terms.items()
    )


def upoly_to_sympy(u: UPoly, s):
    """u in the sympy symbol s."""
    return sum(to_sympy(c) * s**k for k, c in enumerate(u.coeffs))


@st.composite
def bivariate_pairs(draw):
    """Two polynomials in x and y of degree 1-3 in x, with Q(w)
    coefficients that have denominators; each coefficient of x^k is a
    polynomial in y of degree at most 3, so leading coefficients often
    vanish at the interpolation samples."""
    polys = []
    for _ in range(2):
        terms = {}
        for k in range(draw(st.integers(1, 3)) + 1):
            for _ in range(draw(st.integers(0, 3))):
                terms[(k, draw(st.integers(0, 3)))] = draw(cyclos)
        f = MPoly(XY, terms)
        assume(f.degree_in("x") > 0)
        polys.append(f)
    return tuple(polys)


def sylvester_rows(pv, qv):
    """The Sylvester matrix over Q(w) of two Z[w] int-pair lists, low ->
    high at the formal degrees len - 1, the p rows before the q rows."""
    m, n = len(pv) - 1, len(qv) - 1
    rows = []
    for cs, d, shifts in ((pv, m, n), (qv, n, m)):
        for s in range(shifts):
            row = [C_ZERO] * (m + n)
            for k, (a, b) in enumerate(cs):
                row[s + d - k] = Cyclo(a, b)
            rows.append(row)
    return rows


def zw_times(u, v):
    """Product of two Z[w] int-pair lists, low -> high."""
    out = [(0, 0)] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            a, b = algebra._zw_mul(x, y)
            out[i + j] = out[i + j][0] + a, out[i + j][1] + b
    return out


@st.composite
def leaf_pairs(draw):
    """Two Z[w] int-pair lists at formal degrees 0-7 (0 on one side at
    most), small or large heights, with or without w parts, shaped to
    reach every branch of the resultant leaf: leading pairs vanishing on
    one side or both, a side
    that drops to degree 0, a side of formal degree 0 against any other
    side (all zero pairs included), a common factor, and a remainder
    whose degree falls by two or more (a PRS step with delta >= 2)."""
    height = draw(st.sampled_from([3, 10**6, 10**30]))
    omega = draw(st.booleans())

    def pairs(d):
        return [
            (
                draw(st.integers(-height, height)),
                draw(st.integers(-height, height)) if omega else 0,
            )
            for _ in range(d + 1)
        ]

    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    shape = draw(
        st.sampled_from(
            ["generic", "p drops", "q drops", "both drop", "to degree 0", "formal degree 0", "common factor", "gap"]
        )
    )
    if shape == "formal degree 0":
        # the Sylvester matrix is the constant times the identity
        other = pairs(n)
        if draw(st.booleans()):
            other = [(0, 0)] * len(other)
        return (pairs(0), other) if draw(st.booleans()) else (other, pairs(0))
    if shape == "gap":
        # p = u * q + r with deg r = deg q - 2 (a gap inside the sequence)
        # or deg r = 0 (the sequence ends in a gap)
        n = max(n, 3)
        q = pairs(n)
        u, r = pairs(max(m - n, 0)), pairs(draw(st.sampled_from([0, n - 2])))
        p = zw_times(u, q)
        p[: len(r)] = [(a + c, b + d) for (a, b), (c, d) in zip(p, r)]
        return p, q
    p, q = pairs(m), pairs(n)
    if shape == "common factor":
        c = pairs(draw(st.integers(1, 2)))
        assume(c[-1] != (0, 0))
        return zw_times(p, c), zw_times(q, c)
    for side, name in ((p, "p drops"), (q, "q drops")):
        if shape in (name, "both drop"):
            k = draw(st.integers(1, len(side) - 1))
            side[-k:] = [(0, 0)] * k
    if shape == "to degree 0":
        side = (p, q)[draw(st.integers(0, 1))]
        side[1:] = [(0, 0)] * (len(side) - 1)
    return p, q


class TestResultantLeaf:
    @given(leaf_pairs())
    @example(([(1, 0), (0, 0), (2, 1), (-1, 3)], [(4, 0), (0, 1), (0, 0), (5, 0), (1, 0), (2, 2)]))
    @example(([(2, 0), (3, 1), (0, 0), (0, 0)], [(1, 0), (1, 0)]))
    @example(([(5, 1), (2, 0)], [(1, 0), (2, 0), (0, 0)]))
    @example(([(7, 0)] + [(0, 0)] * 4, [(1, 1), (0, 0), (3, 0), (1, 0)]))
    @example(([(6, 0), (2, 0), (1, 0), (2, 0), (2, 0)], [(1, 0), (1, 0), (0, 0), (2, 0)]))
    @example(([(1, 0)], [(0, 0)] * 3))
    @example(([(0, 0)] * 4, [(2, 1)]))
    @settings(max_examples=150, deadline=None)
    def test_matches_sylvester_det(self, pair):
        # the leaf is the determinant of the Sylvester matrix at the formal
        # degrees: the examples have both degrees odd, p dropping by two,
        # q dropping by one, p dropping to degree 0, a PRS ending in a
        # gap, (x + 1) * q + 5 against q = 2x^3 + x + 1, whose resultant
        # 2000 = 20^3 / h^2 reads the end exponent of h, and a side of
        # formal degree 0 against all zero pairs (c times the identity,
        # determinant c^n)
        pv, qv = pair
        got = algebra._zw_res(pv, qv)
        assert Cyclo(*got) == det_cyclo(sylvester_rows(pv, qv))

    def test_common_factor_and_gap_shapes(self):
        # Knuth's pair has a remainder of degree 2 after q of degree 6
        # (delta = 2 at the next step); times a common factor it vanishes
        f = [(c, 0) for c in (-5, 2, 8, -3, -3, 0, 1, 0, 1)]
        g = [(c, 0) for c in (21, -9, -4, 0, 5, 0, 3)]
        assert Cyclo(*algebra._zw_res(f, g)) == det_cyclo(sylvester_rows(f, g))
        shared = [(1, 2), (0, -1), (3, 0)]
        assert algebra._zw_res(zw_times(f, shared), zw_times(g, shared)) == (0, 0)

    def test_one_prs_for_gcd_and_resultant(self, monkeypatch):
        # UPoly.gcd's fallback (the modular image declined) and the
        # resultant's leaves run the one PRS core; the resultant builds no
        # Sylvester matrix and calls no traced gcd
        prs, calls = algebra._zw_prs, []

        def counted(f, g):
            calls.append(len(f) + len(g))
            return prs(f, g)

        def forbidden(*args, **kwargs):
            raise AssertionError("the resultant eliminated a Sylvester matrix")

        monkeypatch.setattr(algebra, "_zw_prs", counted)
        monkeypatch.setattr(algebra, "_modular_gcd", lambda f, g: None)
        assert KNUTH_F.gcd(KNUTH_G) == UPoly([1])
        assert len(calls) == 1
        calls.clear()
        monkeypatch.setattr(algebra, "echelon_zw", forbidden)
        monkeypatch.setattr(UPoly, "gcd", forbidden)
        p = parse_poly("w*x^3*y + (1 - 2*w)*x + 1/3*y^2 + w", XY)
        q = parse_poly("x^2 + w*y*x - 5/2*w*y + 1", XY)
        got = resultant(p, q, "x")
        assert calls and isinstance(got, UPoly) and got.degree() > 0


class TestResultant:
    def test_linear_convention(self):
        # Sylvester matrix [[1, -1], [1, 1]] has determinant 2 -> 2y
        r = resultant(parse_poly("x - y", XYZ), parse_poly("x + y", XYZ), "x")
        assert r == UPoly([0, 2])

    def test_self_resultant_zero(self):
        p = parse_poly("x^2 + y*x + y^2", XYZ)
        assert resultant(p, p, "x").is_zero()

    def test_hand_sylvester(self):
        # oracle: det [[1,0,-t],[1,-3,0],[0,1,-3]] = 9 - t
        vars2 = ("x", "t")
        r = resultant(parse_poly("x^2 - t", vars2), parse_poly("x - 3", vars2), "x")
        assert r == UPoly([9, -1])

    def test_formal_degree_zero_side(self):
        # p = y + 1 has degree 0 in x: its Sylvester matrix against a
        # quadratic is (y + 1) times the 2x2 identity, even at the sample
        # y = 0 where the other side is 0
        r = resultant(parse_poly("y + 1", XY), parse_poly("y*x^2 + y", XY), "x")
        assert r == UPoly([1, 2, 1])
        r = resultant(parse_poly("y*x^2 + y", XY), parse_poly("y + 1", XY), "x")
        assert r == UPoly([1, 2, 1])

    def test_third_active_variable_raises(self):
        # the elimination leaves a polynomial in one variable: two others
        # are refused, on either side
        p, q = parse_poly("x^2 + y", XYZ), parse_poly("x - z", XYZ)
        for a, b in ((p, q), (q, p), (parse_poly("x + y*z", XYZ), parse_poly("x", XYZ))):
            with pytest.raises(AlgebraError, match="one variable besides"):
                resultant(a, b, "x")

    def test_vanishes_iff_common_factor(self):
        rng = random.Random(11)
        for _ in range(10):
            a = rand_poly(rng, XY, deg=2, terms=2)
            b = rand_poly(rng, XY, deg=2, terms=2)
            c = rand_poly(rng, XY, deg=1, terms=2)
            if a.degree_in("x") <= 0 or b.degree_in("x") <= 0 or c.degree_in("x") <= 0:
                continue
            assert resultant(a * c, b * c, "x").is_zero()

    def test_matches_sympy_on_random_bivariate(self):
        from sympy.polys.subresultants_qq_zz import sylvester

        x, y = sympy.symbols("x y")

        def check(p, q, oracle):
            got = resultant(p, q, "x")
            ours = upoly_to_sympy(got, y)
            assert reduce_omega(ours - oracle(mpoly_to_sympy(p), mpoly_to_sympy(q))) == 0

        rng = random.Random(5)
        for _ in range(6):
            p = rand_poly(rng, XY, deg=3, terms=4, with_omega=False)
            q = rand_poly(rng, XY, deg=3, terms=4, with_omega=False)
            if p.degree_in("x") <= 0 or q.degree_in("x") <= 0:
                continue
            check(p, q, lambda sp, sq: sympy.resultant(sp, sq, x))
        # Coefficients with w parts make the interpolation samples genuine
        # Q(w) determinants; sympy treats w as a symbol and the difference
        # is reduced modulo w^2 + w + 1.  The oracle is the determinant of
        # sympy's Sylvester matrix: for p of degree 1 in x against a cubic,
        # sympy.resultant returns -det(Sylvester(p, q)), as on the fixed
        # pair below, whose resultant is (3y^2 - 2y)^3 * y.
        def syl(sp, sq):
            return sylvester(sp, sq, x).det(method="domain-ge")

        p = parse_poly("3*x*y^2 - 2*x*y", XY)
        q = parse_poly("x^3 + y", XY)
        check(p, q, syl)
        check(p, q, lambda sp, sq: y**4 * (3 * y - 2) ** 3)
        rng = random.Random(6)
        with_omega = 0
        for _ in range(6):
            p = rand_poly(rng, XY, deg=3, terms=4, with_omega=True)
            q = rand_poly(rng, XY, deg=3, terms=4, with_omega=True)
            if p.degree_in("x") <= 0 or q.degree_in("x") <= 0:
                continue
            check(p, q, syl)
            with_omega += any(not c.is_rational() for f in (p, q) for c in f.terms.values())
        assert with_omega

    def test_leading_coefficient_vanishing_at_a_sample(self):
        # the interpolation samples are 0, 1, -1, 2, ...; at y = 0 and at
        # y = 1 the leading coefficients in x vanish, so those Sylvester
        # matrices are taken at the formal degrees 3 and 2
        y = sympy.Symbol("y")
        p = parse_poly("y*x^3 + x + 1", XY)
        q = parse_poly("(y - 1)*x^2 + y*x + w", XY)
        got = resultant(p, q, "x")
        oracle = sympy.Matrix(
            [
                [y, 0, 1, 1, 0],
                [0, y, 0, 1, 1],
                [y - 1, y, W, 0, 0],
                [0, y - 1, y, W, 0],
                [0, 0, y - 1, y, W],
            ]
        ).det()
        assert reduce_omega(upoly_to_sympy(got, y) - oracle) == 0

    def test_leading_coefficient_vanishing_at_an_inner_sample(self):
        # past the first samples 0 and 1: at y = -1 both leading
        # coefficients in x vanish (the first Sylvester column is zero),
        # and at y = 2 the one of q does, where the matrix is taken at the
        # formal degrees 3 and 2 (the actual degrees would lose the factor
        # lc(p) = 3 at y = 2)
        from sympy.polys.subresultants_qq_zz import sylvester

        x, y = sympy.symbols("x y")
        p = parse_poly("(y + 1)*x^3 + y*x + w", XY)
        q = parse_poly("(y^2 - y - 2)*x^2 + 3*y*x + 1 + w*y", XY)
        got = resultant(p, q, "x")
        assert got.degree() > 0
        sp = (y + 1) * x**3 + y * x + W
        sq = (y**2 - y - 2) * x**2 + 3 * y * x + 1 + W * y
        oracle = sylvester(sp, sq, x).det(method="domain-ge")
        assert reduce_omega(upoly_to_sympy(got, y) - oracle) == 0

    def test_degree_bound_at_the_true_degree(self, monkeypatch):
        # the affine partials of the nine-cusp sextic x^6 - 2x^3y^3 - 2x^3
        # + y^6 - 2y^3 + 1 have x-degrees 5 and 3 and total degree 5: the
        # total-degree bound 5*3 + 5*5 - 5*3 = 25 on the degree in y takes
        # 26 samples where the column bound 3*3 + 5*5 = 34 would take 35
        x, y = sympy.symbols("x y")
        sp = 6 * x**5 - 6 * x**2 * y**3 - 6 * x**2
        sq = -6 * x**3 * y**2 + 6 * y**5 - 6 * y**2
        p = parse_poly(str(sp).replace("**", "^"), XY)
        q = parse_poly(str(sq).replace("**", "^"), XY)
        calls = []
        real = algebra._zw_res

        def counted(pv, qv):
            calls.append(len(pv) - 1 + len(qv) - 1)
            return real(pv, qv)

        monkeypatch.setattr(algebra, "_zw_res", counted)
        got = resultant(p, q, "x")
        assert calls == [8] * 26
        assert sympy.expand(upoly_to_sympy(got, y) - sympy.resultant(sp, sq, x)) == 0

    @given(bivariate_pairs())
    @example(
        (
            parse_poly("y*x^3 + y^2*x + 1/2*w", XY),
            parse_poly("(2*y - 2)*x^2 + 1/3*y^3*x + 1 + w*y", XY),
        )
    )
    @example(
        (
            parse_poly("(y - 1)*x^2 + (3/4 + w)*y*x + y", XY),
            parse_poly("y*x^3 - 2/5*x + w*y^2", XY),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy_sylvester_det(self, pair):
        # over Q(sqrt(-3)) = Q(w): the oracle is the determinant of sympy's
        # Sylvester matrix with w a symbol, reduced modulo w^2 + w + 1; the
        # examples have leading coefficients in x that vanish at the
        # samples y = 0 or y = 1, where the matrices are taken at the
        # formal degrees
        from sympy.polys.subresultants_qq_zz import sylvester

        p, q = pair
        x, y = sympy.symbols("x y")
        got = resultant(p, q, "x")
        oracle = sylvester(mpoly_to_sympy(p), mpoly_to_sympy(q), x).det(method="domain-ge")
        assert reduce_omega(upoly_to_sympy(got, y) - oracle) == 0

    def test_one_cyclo_per_output_term(self, monkeypatch):
        # the resultant runs on the stored Z[w] int pairs from its inputs
        # to its output: it makes no Q(w) scalar
        p = parse_poly("w*x^2*y + (1 - 2*w)*x + 1/3*y^2 + w", XY)
        q = parse_poly("x^2 + w*y*x - 5/2*w*y + 1", XY)
        calls = []
        init, mul = Cyclo.__init__, Cyclo.__mul__

        def counted_init(self, *args):
            calls.append("init")
            init(self, *args)

        def counted_mul(self, other):
            calls.append("mul")
            return mul(self, other)

        monkeypatch.setattr(Cyclo, "__init__", counted_init)
        monkeypatch.setattr(Cyclo, "__mul__", counted_mul)
        got = resultant(p, q, "x")
        monkeypatch.undo()
        assert got.degree() > 0
        assert any(not c.is_rational() for c in got.coeffs)
        assert calls == []

    def test_inexact_divided_difference_raises(self, monkeypatch):
        # every divided difference of a Z[w] polynomial at integer nodes is
        # in Z[w]; a determinant off by one at the node y = 2 (the fourth
        # of 0, 1, -1, 2, ...) is no such value, and the interpolation
        # raises instead of returning a wrong resultant
        assert algebra._interpolate([0, 1, -1, 2], [[1, 3, 1, 19]]) == [[1, -1, 1, 2]]
        with pytest.raises(InvariantError, match="divided difference"):
            algebra._interpolate([0, 1, -1, 2], [[1, 3, 1, 20]])
        p = parse_poly("6*x^5 - 6*x^2*y^3 - 6*x^2", ("x", "y"))
        q = parse_poly("-6*x^3*y^2 + 6*y^5 - 6*y^2", ("x", "y"))
        real = algebra._zw_res
        calls = []

        def corrupted(pv, qv):
            a, b = real(pv, qv)
            calls.append(len(pv) - 1 + len(qv) - 1)
            return (a + 1, b) if len(calls) == 4 else (a, b)

        monkeypatch.setattr(algebra, "_zw_res", corrupted)
        with pytest.raises(InvariantError, match="divided difference"):
            resultant(p, q, "x")
        assert calls[3] == 8


# The Q(w) loops that MPoly multiply, substitution and composition ran on
# Cyclo coefficients before they moved onto Z[w] int pairs: the reference
# of the differential tests below.


def cyclo_mul(p: MPoly, q: MPoly) -> MPoly:
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = terms.get(e, C_ZERO) + c1 * c2
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
    return MPoly(p.vars, terms)


def cyclo_subs(p: MPoly, assignment) -> MPoly:
    idx = {p.vars.index(k): Cyclo._coerce(v) for k, v in assignment.items()}
    terms = {}
    for e, c in p.terms.items():
        t = c
        ne = list(e)
        for i, v in idx.items():
            for _ in range(e[i]):
                t = t * v
            ne[i] = 0
        key = tuple(ne)
        s = terms.get(key, C_ZERO) + t
        if s.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = s
    return MPoly(p.vars, terms)


def cyclo_compose(p: MPoly, images) -> MPoly:
    target = images[0].vars
    total = MPoly.zero(target)
    for e, c in p.terms.items():
        t = MPoly.const(target, c)
        for img, k in zip(images, e):
            for _ in range(k):
                t = cyclo_mul(t, img)
        total = total + t
    return total


@st.composite
def mpolys(draw, variables=XYZ, max_terms=4, max_exp=2):
    """Polynomials with Q(w) coefficients and denominators; sometimes zero
    (no term drawn, or every drawn coefficient zero)."""
    exps = st.tuples(*[st.integers(0, max_exp)] * len(variables))
    return MPoly(variables, draw(st.dictionaries(exps, cyclos, max_size=max_terms)))


UV = ("u", "v")


class TestIntPairKernels:
    """MPoly multiply, subs/eval and compose on Z[w] int pairs against the
    Cyclo loops they replace."""

    @given(mpolys(), mpolys(), mpolys(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_mul(self, f, u, v, cancel):
        # with cancel, (f*(u + v)) * (u - v): the cross terms f*u*v cancel
        p, q = (cyclo_mul(f, u + v), u - v) if cancel else (f, u)
        assert p * q == cyclo_mul(p, q)
        assert q * p == cyclo_mul(p, q)

    @given(mpolys(), st.dictionaries(st.sampled_from(XYZ), cyclos), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_subs_and_eval(self, p, assignment, cancel):
        if cancel and assignment:
            # a factor that vanishes at the assignment: the result is 0
            name, value = next(iter(assignment.items()))
            p = cyclo_mul(p, MPoly.variable(name, XYZ) - value)
        got = p.subs(assignment)
        assert got == cyclo_subs(p, assignment)
        if cancel and assignment:
            assert got.is_zero()
        point = [assignment.get(name, Fraction(1, 2)) for name in XYZ]
        assert p.eval(point) == cyclo_subs(p, dict(zip(XYZ, point))).constant_coeff()
        assert p.eval(point) == p.subs(dict(zip(XYZ, point))).constant_coeff()

    @given(mpolys(max_terms=3), st.lists(mpolys(UV, max_terms=3), min_size=3, max_size=3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_compose(self, p, images, cancel):
        if cancel:
            # x - y with equal images for x and y composes to 0
            p, images = cyclo_mul(p, MPoly.variable("x", XYZ) - MPoly.variable("y", XYZ)), [images[0]] + images[:2]
        got = p.compose(images)
        assert got == cyclo_compose(p, images)
        if cancel:
            assert got.is_zero()

    def test_one_cyclo_per_output_term(self, monkeypatch):
        # multiply, substitute and compose read and write the stored Z[w]
        # int pairs: they make no Q(w) scalar (the substituted values are
        # Cyclo already)
        p = parse_poly("w*x^2*y + (1 - 2*w)*x*z + 1/3*y^2 + w*z", XYZ)
        q = parse_poly("x^2 + w*y*z*x - 5/2*w*y + z^2", XYZ)
        images = [parse_poly(t, UV) for t in ("1/2*u + w*v", "u - 1/3", "(2 + w)*v^2")]
        at = {"x": Cyclo(Fraction(1, 2), 1), "z": Cyclo(-3, Fraction(2, 5))}
        calls = []
        init, mul = Cyclo.__init__, Cyclo.__mul__

        def counted_init(self, *args):
            calls.append("init")
            init(self, *args)

        def counted_mul(self, other):
            calls.append("mul")
            return mul(self, other)

        for run in (lambda: p * q, lambda: p.compose(images), lambda: p.subs(at)):
            calls.clear()
            monkeypatch.setattr(Cyclo, "__init__", counted_init)
            monkeypatch.setattr(Cyclo, "__mul__", counted_mul)
            got = run()
            monkeypatch.undo()
            assert any(not c.is_rational() for c in got.terms.values())
            assert calls == []


class TestPower:
    def test_square_and_multiply_from_the_base(self, monkeypatch):
        # x^n takes (bits of n - 1) squarings and (ones of n - 1) products;
        # only n = 0 returns the constant 1, and nothing is multiplied by 1
        base = parse_poly("x + w*y - 2*z", XYZ)
        calls = []
        mul = MPoly.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        want = MPoly.const(XYZ, 1)
        for n in range(9):
            calls.clear()
            monkeypatch.setattr(MPoly, "__mul__", counted)
            got = base**n
            monkeypatch.setattr(MPoly, "__mul__", mul)
            assert got == want, n
            assert len(calls) == (n.bit_length() + bin(n).count("1") - 2 if n else 0), n
            want = want * base


class TestPointEvaluation:
    """MPoly.eval and monomial_values read one power table of int pairs
    (eval against subs: TestIntPairKernels.test_subs_and_eval)."""

    def test_eval_arity(self):
        # zip would drop the term y*z for two values and ignore a fourth
        p = parse_poly("x^2 + y*z + 3", XYZ)
        for values in [(1, 2), (1, 2, 3, 4)]:
            with pytest.raises(AlgebraError):
                p.eval(values)
        assert p.eval((1, 2, 3)) == Cyclo(10)

    def test_eval_makes_one_cyclo(self, monkeypatch):
        p = parse_poly("w*x^2*y + (1 - 2*w)*x*z + 1/3*y^2 + w*z", XYZ)
        point = (Cyclo(Fraction(1, 2), 1), Cyclo(0, Fraction(2, 3)), Cyclo(-3, Fraction(2, 5)))
        calls = []
        init = Cyclo.__init__

        def counted_init(self, *args):
            calls.append(1)
            init(self, *args)

        monkeypatch.setattr(Cyclo, "__init__", counted_init)
        got = p.eval(point)
        monkeypatch.undo()
        assert got == p.subs(dict(zip(XYZ, point))).constant_coeff()
        assert len(calls) == 1

    @given(st.tuples(cyclos, cyclos, cyclos), st.lists(st.tuples(*[st.integers(0, 5)] * 3), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_monomial_values(self, point, monos):
        # derivative orders: TestConditions.test_functional_row_matches_derivatives
        assert monomial_values(point, monos) == [MPoly.monomial(XYZ, e).eval(point) for e in monos]

    def test_monomial_values_arity(self):
        with pytest.raises(AlgebraError):
            monomial_values((1, 2, 3), [(1, 0)])
        with pytest.raises(AlgebraError):
            monomial_values((1, 2, 3), [(1, 0, 0)], (1, 0))

    @given(st.lists(cyclos, max_size=7), cyclos)
    @settings(max_examples=80, deadline=None)
    def test_upoly_eval_and_derivative(self, coeffs, x):
        # on the pairs, against Horner and the termwise derivative on Cyclo
        p = UPoly(coeffs)
        want = C_ZERO
        for c in reversed(coeffs):
            want = want * x + c
        assert p.eval(x) == want
        assert p.derivative() == UPoly([c * k for k, c in enumerate(coeffs)][1:])


NONZERO = cyclos.filter(lambda c: not c.is_zero())


def assert_canonical(p):
    """The stored form: no zero pair (no zero leading pair for a UPoly),
    den > 0 and gcd(den, every part) = 1."""
    pairs = list(p.pairs.values()) if isinstance(p, MPoly) else list(p.pairs)
    assert (0, 0) not in (pairs if isinstance(p, MPoly) else pairs[-1:])
    assert p.den > 0 and math.gcd(p.den, *(x for ab in pairs for x in ab)) == 1


def assert_same(p, q):
    """p and q, one polynomial built two ways, are one stored value."""
    assert_canonical(p)
    assert_canonical(q)
    assert p == q and hash(p) == hash(q)
    if isinstance(p, MPoly):
        assert render(p) == render(q)
    else:
        assert p.coeffs == q.coeffs


class TestCanonicalForm:
    """MPoly and UPoly store Z[w] int pairs over one denominator in one
    canonical form, so a polynomial built two ways is ==, hashes alike and
    renders alike."""

    @given(mpolys(), mpolys(), NONZERO)
    @settings(max_examples=80, deadline=None)
    def test_mpoly(self, p, q, c):
        # parse against arithmetic: the rendered text and the sum of the
        # monomials of the Cyclo view
        terms = [MPoly.monomial(XYZ, e, v) for e, v in p.terms.items()]
        assert_same(parse_poly(render(p), XYZ), sum(terms, MPoly.zero(XYZ)))
        assert_same(p.scale(c).scale(c.inverse()), p)
        assert_same((p + q) - q, p)
        # denominators that cancel in a product
        assert_same(p.scale(c) * q.scale(c.inverse()), p * q)
        assert_same(p.scale(Fraction(1, 6)) * q.scale(6), q * p)

    @given(st.lists(cyclos, max_size=5), st.lists(cyclos, max_size=5), NONZERO)
    @settings(max_examples=80, deadline=None)
    def test_upoly(self, cs, ds, c):
        u, v = UPoly(cs), UPoly(ds)
        assert_same(UPoly.from_mpoly(parse_poly(render(u.to_mpoly("t", ("t",))), ("t",)), "t"), u)
        assert_same((u * c) * c.inverse(), u)
        assert_same((u + v) - v, u)
        assert_same((u * c) * (v * c.inverse()), v * u)
        assert_same(UPoly(list(u.coeffs) + [C_ZERO, 0]), u)

    def test_zero_and_sign(self):
        assert MPoly.zero(XYZ).den == 1 and UPoly([C_ZERO, 0]).den == 1
        p = parse_poly("-1/6*x + 2/3*w*y", XYZ)
        assert (p.pairs, p.den) == ({(1, 0, 0): (-1, 0), (0, 1, 0): (0, 4)}, 6)
        assert_same(p.scale(-6).scale(Fraction(-1, 6)), p)


monomials = st.builds(
    lambda e, c: MPoly.monomial(XYZ, e, c), st.tuples(*[st.integers(0, 6)] * 3), NONZERO
)


class TestDivideExact:
    """MPoly.divide_exact on the stored pairs: (p * d) / d is p, for
    monomial and other divisors with w parts and denominators."""

    @given(mpolys(), st.one_of(monomials, mpolys(max_terms=4)))
    @settings(max_examples=80, deadline=None)
    def test_product_divided_back(self, p, d):
        assume(not d.is_zero())
        q = (p * d).divide_exact(d)
        assert_canonical(q)
        assert q == p

    def test_not_divisible(self):
        v = ("y0", "x", "z")
        with pytest.raises(NotDivisible):
            parse_poly("y0^5*x", v).divide_exact(MPoly.monomial(v, (6, 0, 0)))
        # the leading terms divide, a lower remainder survives
        with pytest.raises(NotDivisible):
            parse_poly("y0^6*x + y0^5*z", v).divide_exact(MPoly.monomial(v, (6, 0, 0)))
        with pytest.raises(NotDivisible):
            parse_poly("x^2 + 1/2*w*z^2", v).divide_exact(parse_poly("x - z", v))
        with pytest.raises(ZeroDivisionError):
            parse_poly("x", v).divide_exact(MPoly.zero(v))


@st.composite
def qomega_matrices(draw):
    """Square matrices of size 1-7, rational or with w parts, some with
    zero leading pivots (forcing row swaps) and some singular."""
    n = draw(st.integers(1, 7))
    entries = cyclos if draw(st.booleans()) else st.builds(Cyclo, rationals)
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["generic", "zero pivot", "singular"]))
    if shape == "zero pivot":
        # a vanishing leading (k+1)x(k+1) minor: Bareiss meets a zero pivot
        # at step k (row k repeats a multiple of row 0 in columns 0..k)
        k = draw(st.integers(0, n - 1))
        c = draw(entries) if k else C_ZERO
        rows[k][: k + 1] = [c * x for x in rows[0][: k + 1]]
    elif shape == "singular":
        # the last row is a multiple of the first (zero when n == 1)
        c = draw(entries) if n > 1 else C_ZERO
        rows[-1] = [c * x for x in rows[0]]
    return rows


def sympy_det(rows):
    """det over Q[w] by sympy, reduced modulo w^2 + w + 1."""
    m = sympy.Matrix([[to_sympy(c) for c in r] for r in rows])
    return reduce_omega(m.det(method="domain-ge"))


class TestDetCyclo:
    @given(qomega_matrices())
    @example([[C_ZERO, OMEGA], [C_ONE, C_ZERO]])
    @example([[C_ZERO, C_ONE, C_ZERO], [C_ZERO, C_ZERO, OMEGA], [Cyclo(1, 2), C_ZERO, C_ZERO]])
    @example([[OMEGA, C_ONE], [C_ONE, OMEGA * OMEGA]])
    @settings(max_examples=120, deadline=None)
    def test_matches_sympy(self, rows):
        assert reduce_omega(to_sympy(det_cyclo(rows)) - sympy_det(rows)) == 0

    def test_matches_sympy_on_nine_cusp_sylvester(self, monkeypatch):
        # one 12x12 formal Sylvester matrix over Z[w] (u and the
        # critical-value polynomial V, both of degree 6 in t), as
        # _lambda_cubed_candidates hands it to the elimination for a
        # conic with w coefficients through six of the nine cusps of
        # x^6 - 2x^3y^3 - 2x^3z^3 + y^6 - 2y^3z^3 + z^6
        g = parse_poly("x^6 - 2*x^3*y^3 - 2*x^3*z^3 + y^6 - 2*y^3*z^3 + z^6", XYZ)
        cusps = [
            ProjPoint(p)
            for e in (C_ONE, OMEGA, OMEGA * OMEGA)
            for p in ((C_ZERO, e, C_ONE), (e, C_ZERO, C_ONE), (e, C_ONE, C_ZERO))
        ]
        rows = [monomial_values(p.coords, algebra.monomials(2, (1, 1, 1))) for p in cusps]
        q0 = next(
            q
            for q in (torus._conic_through(rows[i:i + 6], XYZ) for i in range(4))
            if q is not None and any(not c.is_rational() for c in q.terms.values())
        )
        leaves = []
        real = algebra._zw_res

        def record(pv, qv):
            value = real(pv, qv)
            leaves.append((pv, qv, Cyclo(*value)))
            return value

        monkeypatch.setattr(algebra, "_zw_res", record)
        torus._lambda_cubed_candidates(g, q0, cusps, {})
        monkeypatch.undo()
        pv, qv, value = next(
            leaf for leaf in leaves if any(b for a, b in leaf[0] + leaf[1])
        )
        m = sylvester_rows(pv, qv)
        assert len(m) == 12 and all(len(r) == 12 for r in m)
        assert reduce_omega(to_sympy(value) - sympy_det(m)) == 0
        assert value == det_cyclo(m)


class TestPolySqrt:
    def test_round_trip_with_omega(self):
        s = parse_poly("x^2 + w*y*z", XYZ)
        assert poly_sqrt(s * s) == s

    def test_odd_exponent(self):
        assert poly_sqrt(parse_poly("x^2*y", XYZ)) is NOT_A_SQUARE

    def test_random_round_trip(self):
        rng = random.Random(3)
        for _ in range(25):
            c = rand_poly(rng, deg=3, terms=4)
            if c.is_zero():
                continue
            r = poly_sqrt(c * c)
            assert r == c or r == -c

    def test_non_square_detected(self):
        assert poly_sqrt(parse_poly("x^2 + y^2 + z^2", XYZ)) is NOT_A_SQUARE
        # leading coefficient 2 is not a square in Q(w)
        assert poly_sqrt(parse_poly("2*x^2", XYZ)) is NOT_A_SQUARE


SQRT_M3 = sympy.sqrt(-3)
QQ_OMEGA = sympy.QQ.algebraic_field(SQRT_M3)
T = sympy.Symbol("t")


def field_upoly(u: UPoly):
    """u as a sympy Poly in t over QQ(sqrt(-3)) built from field elements,
    a + b*w = (a - b/2) + (b/2)*sqrt(-3), with no symbolic conversion."""

    def element(c):
        a, b = (sympy.QQ(x.numerator, x.denominator) for x in (c.a, c.b))
        return QQ_OMEGA([b / 2, a - b / 2])

    return sympy.Poly.from_list([element(c) for c in reversed(u.coeffs)], T, domain=QQ_OMEGA)


@st.composite
def upoly_factors(draw, count):
    """count polynomials of degree <= 4, all over Q or all over Q(w); zero
    coefficients are drawn often, so remainder degrees skip (abnormal PRS)."""
    omega = draw(st.booleans())
    coeff = cyclos if omega else st.builds(Cyclo, rationals)
    polys = st.lists(st.one_of(st.just(C_ZERO), coeff), max_size=5).map(UPoly)
    return [draw(polys) for _ in range(count)]


def lift_pairs(u: UPoly):
    """u's stored Z[w] int pairs, a multiple of u, as a list low -> high."""
    return list(u.pairs)


def upoly_from_roots(roots, lead=C_ONE):
    out = UPoly([lead])
    for r in roots:
        out = out * UPoly([-Cyclo._coerce(r), C_ONE])
    return out


# Knuth, TAOCP vol. 2, 4.6.1: a coprime pair whose PRS has degrees
# 8, 6, 4, 2, 1, 0, so the subresultant divisors s * h^delta use delta = 2
KNUTH_F = UPoly([-5, 2, 8, -3, -3, 0, 1, 0, 1])
KNUTH_G = UPoly([21, -9, -4, 0, 5, 0, 3])


class TestUPolyGcd:
    """UPoly.gcd and squarefree_part against sympy over QQ(sqrt(-3)), which
    holds the rational inputs too, compared on the monic results."""

    @settings(max_examples=40, deadline=None)
    @given(upoly_factors(3))
    def test_gcd_matches_sympy(self, drawn):
        a, b, c = drawn
        p, q = a * c, b * c * c
        want = field_upoly(p).gcd(field_upoly(q))
        assert field_upoly(p.gcd(q)) == want
        assert q.gcd(p) == p.gcd(q)

    @settings(max_examples=30, deadline=None)
    @given(upoly_factors(2))
    def test_squarefree_part_matches_sympy(self, drawn):
        a, b = drawn
        p = a * a * b
        want = field_upoly(p).sqf_part()
        assert field_upoly(p.squarefree_part()) == want

    @pytest.mark.parametrize(
        "p, q, want",
        [
            (UPoly([]), UPoly([]), UPoly([])),
            (UPoly([]), UPoly([Fraction(-3, 4)]), UPoly([1])),
            (UPoly([OMEGA]), UPoly([Fraction(2, 3)]), UPoly([1])),
            (UPoly([2, OMEGA * 6]), UPoly([]), UPoly([Fraction(1, 3) * OMEGA**2, 1])),
            (UPoly([1, 1, 1]), UPoly([5]), UPoly([1])),
        ],
    )
    def test_zero_and_constant_edge_cases(self, p, q, want):
        assert p.gcd(q) == want
        assert q.gcd(p) == want

    @settings(max_examples=40, deadline=None)
    @given(upoly_factors(2))
    def test_squarefree_part_equals_field_quotient(self, drawn):
        # the Z[w] division gives the Q(w) quotient p / gcd(p, p'), made monic
        a, b = drawn
        p = a * a * b
        if p.degree() > 0:
            dp = UPoly([c * k for k, c in enumerate(p.coeffs)][1:])
            want = p.divmod(p.gcd(dp))[0].monic()
            assert p.squarefree_part() == want

    def test_squarefree_part_divides_out_omega_content(self):
        # pi = 3 + w has norm 7; the lift of gcd = t + 1/conj(pi) is
        # 7t + pi = pi * (conj(pi) t + 1), whose Z[w] content pi must be
        # divided out before the lift of p is divisible by it
        pi = Cyclo(3, 1)
        g = UPoly([pi.conjugate().inverse(), 1])
        p = g * g * UPoly([(pi * pi).inverse(), 1])
        assert p.squarefree_part() == p.divmod(g)[0].monic()

    def test_squarefree_part_edge_cases(self):
        assert UPoly([]).squarefree_part() == UPoly([])
        assert UPoly([Fraction(7, 2)]).squarefree_part() == UPoly([1])

    def test_non_monic_with_denominators(self):
        shared = upoly_from_roots([Fraction(1, 2), OMEGA], lead=Cyclo(Fraction(3, 7), 2))
        p = shared * upoly_from_roots([Fraction(-5, 3)], lead=Fraction(9, 4))
        q = shared * upoly_from_roots([4, Cyclo(1, Fraction(1, 5))], lead=OMEGA)
        assert p.gcd(q) == upoly_from_roots([Fraction(1, 2), OMEGA])

    def test_coprime_pairs(self):
        p = upoly_from_roots([1, 2, OMEGA], lead=Fraction(2, 3))
        q = upoly_from_roots([3, -OMEGA, Fraction(1, 2)], lead=Cyclo(0, 5))
        assert p.gcd(q) == UPoly([1])
        assert KNUTH_F.gcd(KNUTH_G) == UPoly([1])

    def test_knuth_last_subresultant(self):
        # the PRS's last remainder is the subresultant itself, 260708 in
        # Knuth's table: a divisor s * h^delta that is too small leaves a
        # multiple of it, one that is too large raises
        f, g = (lift_pairs(u) for u in (KNUTH_F, KNUTH_G))
        last = UPoly([Cyclo(a, b) for a, b in algebra._zw_prs(f, g)[1]])
        assert last == UPoly([260708])
        assert last.monic() == UPoly([1])

    def test_abnormal_prs_with_omega_factor(self):
        shared = upoly_from_roots([OMEGA, Cyclo(Fraction(2, 3), -1)], lead=Cyclo(3, 1))
        p, q = KNUTH_F * shared, KNUTH_G * shared * Cyclo(Fraction(1, 2), 4)
        want = upoly_from_roots([OMEGA, Cyclo(Fraction(2, 3), -1)])
        assert p.gcd(q) == want and q.gcd(p) == want
        assert (KNUTH_F * shared * shared).squarefree_part() == (KNUTH_F * shared).monic()

    def test_degree_56_omega_squarefree_part(self):
        # the a^2 * b shape of a degree-56 squarefree part over Q(w)
        rng = random.Random(56)

        def rand_monic(d):
            return UPoly(
                [
                    Cyclo(
                        Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                    )
                    for _ in range(d)
                ]
                + [C_ONE]
            )

        a, b = rand_monic(18), rand_monic(20)
        p = a * a * b
        assert p.degree() == 56
        got = p.squarefree_part()
        assert field_upoly(got) == field_upoly(p).sqf_part()
        assert got == (a * b).monic()

    def test_one_inverse_per_gcd(self, monkeypatch):
        # no field Euclid: the only Q(w) inversion is the final monic
        calls = []
        real = Cyclo.inverse

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(Cyclo, "inverse", counted)
        shared = upoly_from_roots([OMEGA, 2, Fraction(1, 3)], lead=Cyclo(2, 1))
        p = shared * upoly_from_roots(range(4, 12), lead=Fraction(3, 5))
        q = shared * upoly_from_roots([-OMEGA * k for k in range(1, 9)], lead=OMEGA)
        assert p.degree() >= 10 and q.degree() >= 10
        calls.clear()
        assert p.gcd(q) == upoly_from_roots([OMEGA, 2, Fraction(1, 3)])
        assert len(calls) <= 1


@st.composite
def shared_factor_pairs(draw):
    """(a, b, c): cofactors a, b of degree <= 3 and a shared factor c of
    degree 1..3 over Q(w), with w parts and denominators; c's leading
    coefficient is drawn nonzero, so its Z[w] lift is rarely a unit."""
    poly = st.lists(cyclos, max_size=4).map(UPoly)
    lead = cyclos.filter(lambda x: not x.is_zero())
    c = UPoly(draw(st.lists(cyclos, min_size=1, max_size=3)) + [draw(lead)])
    return draw(poly), draw(poly), c


class TestModularGcd:
    """UPoly.gcd's image mod P: certified by exact division, or the PRS."""

    @staticmethod
    def count_prs(monkeypatch):
        calls, real = [], algebra._zw_prs
        monkeypatch.setattr(
            algebra, "_zw_prs", lambda f, g: calls.append((f, g)) or real(f, g)
        )
        return calls

    @settings(max_examples=100, deadline=None)
    @given(shared_factor_pairs())
    def test_matches_sympy_and_the_prs(self, drawn):
        a, b, c = drawn
        p, q = a * c, b * c * c
        got = p.gcd(q)
        assert field_upoly(got) == field_upoly(p).gcd(field_upoly(q))
        assert q.gcd(p) == got
        # the same gcd with the modular step declined, so from the PRS
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algebra, "_modular_gcd", lambda f, g: None)
            assert p.gcd(q) == got

    def test_non_unit_leading_coefficient_certified(self, monkeypatch):
        # lc(shared) = 3 + w is no unit of Z[w]: the monic gcd's coefficients
        # are fractions x + y*w, each read from the images under w -> r and
        # w -> r^2
        calls = self.count_prs(monkeypatch)
        shared = UPoly([Cyclo(2, -1), Cyclo(0, 5), Cyclo(3, 1)])
        p = shared * upoly_from_roots([1, Fraction(-2, 3)], lead=Fraction(5, 4))
        q = shared * upoly_from_roots([OMEGA], lead=Cyclo(6, 2))
        assert p.gcd(q) == shared.monic() and q.gcd(p) == shared.monic()
        # the cofactors share the 76-bit leading coefficient 2^75 + 75, so
        # gcd(lc p, lc q) is far above lc(G); the monic gcd t + 999983/1000003
        # is read directly
        G, lc = UPoly([999983, 1000003]), 2**75 + 75
        p, q = G * UPoly([1, lc]), G * UPoly([2, lc])
        assert p.gcd(q) == G.monic() and q.gcd(p) == G.monic()
        assert calls == []

    def test_gamma_from_primitive_parts(self, monkeypatch):
        # both inputs carry the Z[w] content 2^40 (3 + w), far beyond what
        # one residue mod P holds; the monic gcd does not carry it, so its
        # coefficients read back and the primitive candidate certifies
        calls = self.count_prs(monkeypatch)
        content = Cyclo(3, 1) * (1 << 40)
        shared = UPoly([Cyclo(2, -1), Cyclo(0, 5), Cyclo(3, 1)])
        p = shared * UPoly([Cyclo(1, 2), -4, 1]) * content
        q = shared * UPoly([7, OMEGA]) * (content * 2)
        assert p.gcd(q) == shared.monic() and q.gcd(p) == shared.monic()
        assert calls == []

    def test_image_of_degree_0_certifies_1(self, monkeypatch):
        calls = self.count_prs(monkeypatch)
        assert KNUTH_F.gcd(KNUTH_G) == UPoly([1])
        # pi generates the prime over P that w -> r sends to 0: t - 1 and
        # t - 1 - pi share a root under w -> r only, and the image under
        # w -> r^2 has degree 0
        pi = algebra._gauss_basis(algebra._cube_root_of_unity(algebra._P), algebra._P)[0]
        assert UPoly([-1, 1]).gcd(UPoly([-1 - Cyclo(*pi), 1])) == UPoly([1])
        assert calls == []

    def test_leading_coefficient_vanishing_mod_p_falls_back(self, monkeypatch):
        # lc(p) = P maps to 0: the image loses a degree and certifies
        # nothing
        calls = self.count_prs(monkeypatch)
        p = UPoly([-1, 1]) * UPoly([1, algebra._P])
        q = UPoly([-1, 1]) * UPoly([2, 1])
        assert p.gcd(q) == UPoly([-1, 1])
        assert len(calls) == 1

    def test_coefficients_beyond_reconstruction_fall_back(self, monkeypatch):
        # x = 2^40 is beyond sqrt(P/2): Wang reads its residue as 1/2^21
        # (2^61 = 1 mod P), and the candidate divides neither input
        calls = self.count_prs(monkeypatch)
        shared = UPoly([Cyclo(1 << 40, 3), 1])
        p = shared * UPoly([1, 1])
        q = shared * UPoly([-1, OMEGA])
        assert p.gcd(q) == shared
        assert len(calls) == 1

    def test_unlucky_image_falls_back(self, monkeypatch):
        # t - 1 and t - 1 - P are coprime but have one image mod P; its lift
        # t - 1 does not divide the second
        calls = self.count_prs(monkeypatch)
        assert UPoly([-1, 1]).gcd(UPoly([-1 - algebra._P, 1])) == UPoly([1])
        assert len(calls) == 1


def sympy_qomega_roots(p: UPoly):
    """The sympy-based qomega_roots that the p-adic root finder replaced,
    kept as the oracle of root order: candidates come from sympy's
    factor_list of p * conj(p) over QQ, and each factor, the candidate's
    minimal polynomial, gives its sort key: the factor's degree, then its
    primitive integer coefficients from the leading one down; of a
    conjugate pair the root with positive w part first."""
    sf_deg = p.squarefree_part().degree()
    if sf_deg == 0:
        return [], 0
    q = p * p.conjugate()
    qq = sympy.Poly(
        [sympy.Rational(c.a.numerator, c.a.denominator) for c in reversed(q.coeffs)],
        T,
        domain="QQ",
    )
    candidates = {}
    for fac, _mult in qq.factor_list()[1]:
        cs = [Fraction(int(c.numerator), int(c.denominator)) for c in fac.all_coeffs()]
        den = math.lcm(*(c.denominator for c in cs))
        ints = [int(c * den) for c in cs]
        content = math.gcd(*ints) if ints[0] > 0 else -math.gcd(*ints)
        key = len(cs) - 1, [c // content for c in ints]
        if len(cs) == 2:
            candidates[Cyclo(-cs[1] / cs[0])] = key + (0,)
        elif len(cs) == 3:
            u, v = cs[1] / cs[0], cs[2] / cs[0]
            disc = u * u - 4 * v
            if disc < 0:
                # a root in Q(w) needs -disc/3 to be a rational square s^2
                x = -disc / 3
                rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
                if rn * rn == x.numerator and rd * rd == x.denominator:
                    s = Fraction(rn, rd)
                    candidates[Cyclo((-u + s) / 2, s)] = key + (0,)
                    candidates[Cyclo((-u - s) / 2, -s)] = key + (1,)
    roots = []
    for r in sorted(candidates, key=candidates.get):
        mult, cur, lin = 0, p, UPoly([-r, C_ONE])
        while True:
            quo, rem = cur.divmod(lin)
            if not rem.is_zero():
                break
            mult, cur = mult + 1, quo
        if mult:
            roots.append((r, mult))
    return roots, sf_deg - len(roots)


def sympy_field_roots(p: UPoly):
    """{root: multiplicity} and the number of distinct roots outside Q(w),
    from sympy's factorisation of p over QQ(sqrt(-3))."""
    poly = field_upoly(p)
    roots = {}
    for fac, mult in poly.factor_list()[1]:
        if fac.degree() == 1:
            c1, c0 = fac.all_coeffs()
            e = sympy.expand(-c0 / c1)
            b = sympy.Rational(sympy.simplify(2 * sympy.im(e) / sympy.sqrt(3)))
            a = sympy.Rational(sympy.re(e)) + b / 2
            roots[Cyclo(Fraction(a.p, a.q), Fraction(b.p, b.q))] = mult
    return roots, poly.sqf_part().degree() - len(roots)


# polynomials without a root in Q(w): sqrt(2), i, 2^(1/3), sqrt(3),
# (1 + sqrt(-7))/2, sqrt(1 + w) = sqrt(-w^2) (i*w) and 9th roots of unity
ROOTLESS = [
    UPoly([]),
    UPoly([-2, 0, 1]),
    UPoly([1, 0, 1]),
    UPoly([-2, 0, 0, 1]),
    UPoly([-3, 0, 1]),
    UPoly([2, -1, 1]),
    UPoly([-(C_ONE + OMEGA), 0, 1]),
    UPoly([-OMEGA, 0, 0, 1]),
]


@st.composite
def root_products(draw, max_roots=4, max_mult=3):
    """lead * prod (t - r)^m * rest, with roots in Q or Q(w) of small or
    large height and with denominators, repeated roots, conjugate pairs
    and a rest without roots in Q(w)."""
    small = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    big = st.builds(Fraction, st.integers(-(10**15), 10**15), st.integers(1, 10**6))
    part = st.one_of(small, small, big)
    root = st.one_of(st.builds(Cyclo, part), st.builds(Cyclo, part, part))
    roots = draw(st.lists(root, max_size=max_roots))
    if roots and draw(st.booleans()):
        roots.append(roots[0].conjugate())
    p = UPoly([draw(cyclos.filter(lambda c: not c.is_zero()))])
    for r in roots:
        for _ in range(draw(st.integers(1, max_mult))):
            p = p * UPoly([-r, C_ONE])
    rest = draw(st.sampled_from(ROOTLESS))
    if not rest.is_zero():
        p = p * rest
    if p.degree() < 1:
        p = p * UPoly([-3, 0, 1])
    return p


class TestRootsDifferential:
    """qomega_roots against sympy: the roots and multiplicities of sympy's
    factorisation over QQ(sqrt(-3)), and the roots of the sympy factor_list
    route it replaced, ordered by their minimal polynomials."""

    @settings(max_examples=60, deadline=None)
    @given(root_products())
    def test_matches_old_route_in_order(self, p):
        assert qomega_roots(p) == sympy_qomega_roots(p)

    @settings(max_examples=40, deadline=None)
    @given(root_products(max_roots=3, max_mult=2))
    def test_matches_field_factorisation(self, p):
        roots, missing = qomega_roots(p)
        assert (dict(roots), missing) == sympy_field_roots(p)

    @pytest.mark.parametrize(
        "roots, lead, skipped",
        [
            # lc: the lift of t - 1/91 has leading coefficient 91 = 7 * 13
            ([Fraction(1, 91)], C_ONE, (7, 13)),
            # discriminant: 0 and 91 meet modulo 7 and 13
            ([0, 91, OMEGA], Cyclo(2, 3), (7, 13)),
            # 0 and 7 * 13 * 19 meet modulo 7, 13 and 19
            ([0, 7 * 13 * 19, Cyclo(Fraction(1, 5), 2)], C_ONE, (7, 13, 19)),
        ],
    )
    def test_prime_search_skips_bad_primes(self, roots, lead, skipped, monkeypatch):
        used = []
        real = algebra._fp_roots
        monkeypatch.setattr(algebra, "_fp_roots", lambda f, q: used.append(q) or real(f, q))
        p = upoly_from_roots(roots * 2, lead=lead) * UPoly([-2, 0, 1])
        got = qomega_roots(p)
        assert used and used[0] > max(skipped)
        assert got == sympy_qomega_roots(p)
        assert (dict(got[0]), got[1]) == sympy_field_roots(p)

    @settings(max_examples=40, deadline=None)
    @given(root_products())
    @example(upoly_from_roots([1, 1, -1]))
    def test_order_ignores_multiplicity(self, p):
        # the order is the roots' own: p and its squarefree part agree
        roots = [r for r, _m in qomega_roots(p)[0]]
        assert roots == [r for r, _m in qomega_roots(p.squarefree_part())[0]]

    def test_conjugate_pair_order(self):
        # t^2 + t + 1: w (positive w part) before w^2 = -1 - w
        assert qomega_roots(UPoly([1, 1, 1]))[0] == [(OMEGA, 1), (-1 - OMEGA, 1)]


@st.composite
def yun_shapes(draw):
    """lead * a * b^2 * c^3 over Q(w), each factor of degree <= 2 with w
    parts and denominators; factors may share roots, which raises their
    multiplicity, or be constant, which leaves a Yun index empty."""
    nonzero = cyclos.filter(lambda x: not x.is_zero())
    factor = st.builds(lambda cs, lc: UPoly(cs + [lc]), st.lists(cyclos, max_size=2), nonzero)
    a, b, c = (draw(factor) for _ in range(3))
    return a * b * b * c * c * c * draw(nonzero)


# the units of Z[w], as int pairs: +-1, +-w, +-w^2 = -+(1 + w)
UNITS = {(1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1)}


def sympy_sqf(p: UPoly):
    """{multiplicity: monic factor} and the monic squarefree part of p, from
    sympy's sqf_list over QQ(sqrt(-3))."""
    poly = field_upoly(p)
    return {m: fac.monic() for fac, m in poly.sqf_list()[1]}, poly.sqf_part()


class TestYun:
    """UPoly.squarefree_factors (algebra._zw_yun) against sympy's sqf_list,
    directly and through qomega_roots' multiplicities."""

    @staticmethod
    def check(p):
        want, want_sf = sympy_sqf(p)
        assert field_upoly(p.squarefree_part()) == want_sf
        dec = p.squarefree_factors()
        assert {i: field_upoly(u) for i, u in dec.items()} == want
        assert all(u.coeffs[-1] == C_ONE for u in dec.values())
        parts = algebra._zw_yun(lift_pairs(p))[1]
        assert all(len(u) > 1 and functools.reduce(algebra._zw_gcd, u) in UNITS for u in parts.values())
        roots, missing = qomega_roots(p)
        for r, m in roots:
            assert want[m].rem(field_upoly(UPoly([-r, C_ONE]))).is_zero
        assert missing == want_sf.degree() - len(roots)

    @settings(max_examples=60, deadline=None)
    @given(yun_shapes())
    def test_matches_sympy_sqf_list(self, p):
        self.check(p)

    def test_lift_with_omega_content(self):
        # pi = 3 + w has norm 7: the lift of g = t + 1/conj(pi) carries the
        # Z[w] content pi, which the gcd must shed before it divides
        pi = Cyclo(3, 1)
        g = UPoly([pi.conjugate().inverse(), 1])
        h = UPoly([(pi * pi).inverse(), 1])
        p = g * g * h
        self.check(p)
        assert p.squarefree_factors() == {1: h, 2: g}

    def test_constant_input(self):
        for c in (Fraction(7, 2), OMEGA, Cyclo(-3, 5)):
            p = UPoly([c])
            assert algebra._zw_yun(lift_pairs(p))[1] == {}
            assert p.squarefree_factors() == {}
            assert qomega_roots(p) == ([], 0)
            assert p.squarefree_part() == UPoly([1])

    def test_d_vanishes_while_b_is_nonconstant(self, monkeypatch):
        # 2(t - w)^3: the steps for multiplicities 1 and 2 find constant
        # gcds, then d = c - b' is 0 while b = t - w is not constant; that
        # last factor takes no gcd
        calls, real = [], algebra._zw_poly_gcd
        monkeypatch.setattr(algebra, "_zw_poly_gcd", lambda f, g: calls.append(g) or real(f, g))
        u = UPoly([-OMEGA, 1])
        p = u * u * u * 2
        assert p.squarefree_factors() == {3: u}
        assert len(calls) == 3 and all(calls)
        self.check(p)


class TestRoots:
    def test_rational_roots(self):
        p = UPoly([Cyclo(-6), Cyclo(11), Cyclo(-6), C_ONE])  # (t-1)(t-2)(t-3)
        roots, missing = qomega_roots(p)
        assert missing == 0
        assert {r.a for r, _ in roots} == {1, 2, 3}

    def test_omega_roots(self):
        # t^2 + t + 1 has roots w, w^2
        roots, missing = qomega_roots(UPoly([C_ONE, C_ONE, C_ONE]))
        assert missing == 0
        assert {r for r, _ in roots} == {OMEGA, OMEGA * OMEGA}

    def test_missing_roots_counted(self):
        # t^2 - 2 has no roots in Q(w)
        roots, missing = qomega_roots(UPoly([Cyclo(-2), C_ZERO, C_ONE]))
        assert roots == []
        assert missing == 2

    def test_multiplicity(self):
        lin = UPoly([-OMEGA, C_ONE])
        p = lin * lin * UPoly([Cyclo(-5), C_ONE])
        roots, missing = qomega_roots(p)
        assert missing == 0
        assert sorted(m for _, m in roots) == [1, 2]

    def test_cube_roots(self):
        assert cyclo_nth_roots(Cyclo(8), 3) == [Cyclo(2)] or set(
            cyclo_nth_roots(Cyclo(8), 3)
        ) == {Cyclo(2), Cyclo(2) * OMEGA, Cyclo(2) * OMEGA**2}
        assert len(cyclo_nth_roots(Cyclo(8), 3)) == 3  # 2, 2w, 2w^2
        assert cyclo_nth_roots(Cyclo(-4), 3) == []  # cube root of -4 not in Q(w)
        assert cyclo_nth_roots(Cyclo(4), 3) == []

    def test_sqrt_in_field(self):
        assert set(cyclo_nth_roots(Cyclo(-3), 2)) == {Cyclo(1, 2), Cyclo(-1, -2)}
        assert cyclo_nth_roots(Cyclo(2), 2) == []

    def test_only_square_and_cube_roots(self):
        for n in (1, 4, 6):
            with pytest.raises(AlgebraError):
                cyclo_nth_roots(Cyclo(64), n)


class TestWeightedDegree:
    def test_spec_examples(self):
        xy = ("x", "y")
        p = parse_poly("x^2 + y^3", xy)
        assert weighted_degree(p, (3, 2)) == 6
        assert is_weighted_homogeneous(p, (3, 2))
        assert weighted_degree(p, (1, 1)) == 3
        assert not is_weighted_homogeneous(p, (1, 1))
        q = parse_poly("x^4 + y^2", xy)
        assert weighted_degree(q, (1, 2)) == 4
        assert is_weighted_homogeneous(q, (1, 2))


class TestUPolyValue:
    def test_equal_after_normalisation(self):
        a = UPoly([1, 2, 0])
        b = UPoly([Fraction(1), Cyclo(2)])
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_coefficients(self):
        assert UPoly([1]) != UPoly([2])
        assert UPoly([1, 1]) != UPoly([1])

    def test_dict_key(self):
        table = {UPoly([1, 2]): "p", UPoly([0]): "zero"}
        assert table[UPoly([Cyclo(1), Cyclo(2), C_ZERO])] == "p"
        assert table[UPoly([])] == "zero"


class TestProjPoint:
    def test_canonical_representative(self):
        p = ProjPoint([Cyclo(2), Cyclo(4), Cyclo(2)])
        assert p.coords == (C_ONE, Cyclo(2), C_ONE)
        assert p == ProjPoint([C_ONE, Cyclo(2), C_ONE])

    def test_scaling_equality_with_omega(self):
        assert ProjPoint([OMEGA, C_ONE, C_ZERO]) == ProjPoint(
            [OMEGA * OMEGA, OMEGA, C_ZERO]
        )

    def test_zero_rejected(self):
        with pytest.raises(Exception):
            ProjPoint([C_ZERO, C_ZERO, C_ZERO])


def test_isprime_matches_sympy():
    rng = random.Random(7)
    ns = list(range(-3, 5000)) + [rng.randrange(10**30) for _ in range(200)]
    # strong pseudoprimes to several small bases, Carmichael numbers and
    # a prime above the bound where the bases up to 41 stop being proven
    ns += [3215031751, 3825123056546413051, 561, 41041, 2**89 - 1, 10**25 + 13]
    for n in ns:
        assert algebra.isprime(n) == sympy.isprime(n), n

