"""Tests for singular-point detection, defects, and Alexander polynomials."""

import math
from fractions import Fraction

import pytest
import sympy

from curvelattice import adjunction, linalg
from curvelattice.algebra import (
    C_ONE,
    C_ZERO,
    OMEGA,
    MPoly,
    ProjPoint,
    UPoly,
    echelon_zw,
    parse_poly,
)
from curvelattice.adjunction import (
    AlexanderPoly,
    ClassifiedPoint,
    CurveProfile,
    CuspScheme,
    Functional,
    IncompleteLocus,
    alexander,
    classify_point,
    conditions_at,
    defect,
    defect_table,
    ord_at,
    singular_points,
)

XYZ = ("x", "y", "z")


def poly(text):
    return parse_poly(text, XYZ)


NINE_CUSP = poly("x^6 - 2*x^3*y^3 - 2*x^3*z^3 + y^6 - 2*y^3*z^3 + z^6")


def six_cusp_sextic():
    """Sextic with six rational cusps on the conic x*z = y^2.

    Cusps sit at the parameter values t in {1,-1,2,-2,3,-3} of the conic's
    rational parametrization (1 : t : t^2); the cubic is a product of
    three secant lines through those point pairs.
    """
    q = poly("x*z - y^2")
    c = poly("(z - x)*(z - 4*x)*(z - 9*x)")
    return q * q * q + c * c, q, c


def vanishing_on_points(points, m):
    """Oracle: dimension of the degree-m forms vanishing on a set of
    rational points, by sympy's rank of the evaluation matrix."""
    monos = adjunction._monomials(m)
    rows = [
        [p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2] for e in monos]
        for p in points
    ]
    return len(monos) - sympy.Matrix(rows).rank()


class TestSingularPoints:
    def test_smooth_conic_empty(self):
        assert singular_points(poly("x^2 + y*z")) == []

    def test_nodal_cubic(self):
        pts = singular_points(poly("y^2*z - x^3 - x^2*z"))
        assert len(pts) == 1
        assert pts[0].kind == "node"
        assert pts[0].point == ProjPoint((0, 0, 1))

    def test_cuspidal_cubic(self):
        pts = singular_points(poly("y^2*z - x^3"))
        assert len(pts) == 1
        assert pts[0].kind == "cusp"
        assert pts[0].point == ProjPoint((0, 0, 1))

    def test_nine_cusp_sextic(self):
        # oracle: gradient is (6x^2(x^3-y^3-z^3), 6y^2(y^3-x^3-z^3),
        # 6z^2(z^3-x^3-y^3)); common zeros are the nine points below
        pts = singular_points(NINE_CUSP)
        assert len(pts) == 9
        assert all(p.kind == "cusp" for p in pts)
        got = {p.point for p in pts}
        w2 = OMEGA * OMEGA
        expected = set()
        for e in (C_ONE, OMEGA, w2):
            expected.add(ProjPoint((C_ZERO, e, C_ONE)))
            expected.add(ProjPoint((e, C_ZERO, C_ONE)))
            expected.add(ProjPoint((e, C_ONE, C_ZERO)))
        assert got == expected

    def test_six_cusp_sextic(self):
        g, q, _c = six_cusp_sextic()
        pts = singular_points(g)
        assert len(pts) == 6
        assert all(p.kind == "cusp" for p in pts)
        for p in pts:
            assert q.eval(p.point.coords).is_zero()

    def test_irrational_cusps_raise(self):
        q = poly("x^2 + y*z")
        c = poly("x^3 + y^3 + z^3")
        g = q * q * q + c * c
        with pytest.raises(IncompleteLocus):
            singular_points(g)

    def test_multiple_component_raises(self):
        # the double line x = y is singular everywhere: every chart
        # resultant of the partials vanishes
        with pytest.raises(IncompleteLocus) as err:
            singular_points(poly("(x - y)^2*(x^4 + y^4 + z^4)"))
        assert err.value.unexplained == -1 and err.value.found == []

    def test_node_at_infinity(self):
        # z^2 y = x^2 (x + y) has a singular point at (0 : 1 : 0)
        pts = singular_points(poly("z^2*y - x^3 - x^2*y"))
        assert any(p.point == ProjPoint((0, 1, 0)) for p in pts)

    def test_classify_rejects_smooth_point(self):
        with pytest.raises(ValueError):
            classify_point(poly("x^2 + y*z"), ProjPoint((0, 1, 0)))


class TestConditions:
    def test_node_has_none(self):
        p = ClassifiedPoint(ProjPoint((0, 0, 1)), "node")
        assert conditions_at(Fraction(5, 6), [p]) == []

    def test_cusp_only_at_five_sixths(self):
        p = ClassifiedPoint(ProjPoint((0, 0, 1)), "cusp")
        assert len(conditions_at(Fraction(5, 6), [p])) == 1
        assert conditions_at(Fraction(1, 6), [p]) == []
        assert conditions_at(Fraction(1, 2), [p]) == []

    def test_custom(self):
        f = Functional(ProjPoint((0, 0, 1)), (1, 0, 0))
        p = ClassifiedPoint(
            ProjPoint((0, 0, 1)), "custom", {Fraction(1, 2): [f]}
        )
        assert conditions_at(Fraction(1, 2), [p]) == [f]
        assert conditions_at(Fraction(5, 6), [p]) == []

    def test_functional_row_derivative(self):
        # d/dx of x^2 at (3, 0, 1) is 6
        f = Functional(ProjPoint((3, 0, 1)), (1, 0, 0))
        row = f.row([(2, 0, 0)], XYZ)
        assert row[0].a == 6


class TestDefects:
    def test_nine_cusp(self):
        prof = CurveProfile(NINE_CUSP)
        # oracle: nine point conditions on cubics; the cusps lie on three
        # independent cubics (x^3 - y^3 - z^3 and its two siblings), so
        # only six conditions are independent
        assert defect(prof, Fraction(5, 6)) == (9, 6, 3)
        assert defect(prof, Fraction(1, 6)) == (0, 0, 0)
        assert defect(prof, Fraction(1, 2)) == (0, 0, 0)

    def test_six_cusp_on_conic(self):
        g, _q, _c = six_cusp_sextic()
        prof = CurveProfile(g)
        # six points on a conic: conics through them form a pencil member
        # short, five independent conditions
        assert defect(prof, Fraction(5, 6)) == (6, 5, 1)

    def test_generic_cusps_no_defect(self):
        # three cusps in general position impose independent conditions
        pts = [
            ClassifiedPoint(ProjPoint((0, 0, 1)), "cusp"),
            ClassifiedPoint(ProjPoint((0, 1, 0)), "cusp"),
            ClassifiedPoint(ProjPoint((1, 0, 0)), "cusp"),
        ]
        rows = [
            f.row(
                [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)],
                XYZ,
            )
            for f in conditions_at(Fraction(5, 6), pts)
        ]
        from curvelattice.linalg import rank

        assert rank(rows) == 3

    def test_degree_window_validation(self):
        prof = CurveProfile(NINE_CUSP)
        with pytest.raises(ValueError):
            defect(prof, Fraction(1, 5))
        with pytest.raises(ValueError):
            defect(prof, Fraction(7, 6))

    def test_defect_table(self):
        prof = CurveProfile(NINE_CUSP)
        table = defect_table(prof)
        assert table[Fraction(5, 6)] == (9, 6, 3)
        assert all(
            v == (0, 0, 0) for a, v in table.items() if a != Fraction(5, 6)
        )


class TestCuspScheme:
    def test_rational_count_matches_points(self):
        g, q, c = six_cusp_sextic()
        sch = CuspScheme(q, c, "z")
        assert sch.count() == 6

    def test_irrational_count(self):
        q = poly("x^2 + y*z")
        c = poly("x^3 + y^3 + z^3")
        sch = CuspScheme(q, c, "z")
        assert sch.count() == 6

    def test_count_and_vanishing_dim_memoised(self, monkeypatch):
        calls = {"resultant": 0, "matrix_rank": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(adjunction, name),
                        **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(adjunction, name, counted)
        q = poly("x^2 + y*z")
        c = poly("x^3 + y^3 + z^3")
        sch = CuspScheme(q, c, "z")
        count, dim = sch.count(), sch.vanishing_dim(2)
        first = dict(calls)
        assert first["resultant"] > 0 and first["matrix_rank"] > 0
        assert (sch.count(), sch.vanishing_dim(2)) == (count, dim)
        assert calls == first
        # a scheme built from the same forms has its own, empty memo
        twin = CuspScheme(q, c, "z")
        assert twin == sch
        assert twin.count() == count
        assert calls["resultant"] > first["resultant"]
        # count() and every saturation piece of vanishing_dim(m) read the
        # line divisor; it is computed once per scheme
        divisors = []
        real = CuspScheme._compute_line_divisor
        monkeypatch.setattr(
            CuspScheme,
            "_compute_line_divisor",
            lambda self: divisors.append(self) or real(self),
        )
        full = CuspScheme(q, c, "z", include_line=True)
        full.count(), full.vanishing_dim(2), full.vanishing_dim(3)
        assert divisors == [full]

    def test_count_raises_when_every_resultant_vanishes(self, monkeypatch):
        # all three projection centers eliminate to 0: no count is certified
        monkeypatch.setattr(
            adjunction, "resultant", lambda p, q, var: MPoly.zero(p.vars)
        )
        sch = CuspScheme(poly("x^2 + y*z"), poly("x^3 + y^3 + z^3"), "z")
        with pytest.raises(IncompleteLocus) as err:
            sch.count()
        assert err.value.unexplained == -1

    def test_scheme_defect_matches_point_route(self):
        g, q, c = six_cusp_sextic()
        point_prof = CurveProfile(g)
        scheme_prof = CurveProfile(g, scheme=CuspScheme(q, c, "z"))
        a = Fraction(5, 6)
        assert defect(scheme_prof, a) == defect(point_prof, a)

    def line_crossing_scheme(self):
        """Conic and cubic meeting in six rational points, one on z = 0.

        On the conic x*z = y^2 with parametrization (1 : t : t^2), the
        cubic restricts to t(t^2-1)(t^2-4)(t-3): six simple roots, so
        all six intersections are transversal.  t = 0 gives (1:0:0) on
        the line z = 0; the other five points are off it.
        """
        q = poly("x*z - y^2")
        c = poly(
            "z^3 - 3*y*z^2 - 5*y^2*z + 15*y^3 + 4*x*y^2 - 12*x^2*y"
        )
        pts = [(1, t, t * t) for t in (0, 1, -1, 2, -2, 3)]
        for p in pts:
            assert q.eval(p).is_zero() and c.eval(p).is_zero()
        return q, c, pts

    def test_include_line_count(self):
        q, c, pts = self.line_crossing_scheme()
        assert CuspScheme(q, c, "z").count() == 5
        assert CuspScheme(q, c, "z", include_line=True).count() == 6

    def test_include_line_vanishing_dim(self):
        q, c, pts = self.line_crossing_scheme()
        off = CuspScheme(q, c, "z")
        full = CuspScheme(q, c, "z", include_line=True)
        for m in (1, 2, 3):
            assert off.vanishing_dim(m) == vanishing_on_points(pts[1:], m)
            assert full.vanishing_dim(m) == vanishing_on_points(pts, m)

    def test_vanishing_dim_takes_one_piece_at_the_chain_end(self, monkeypatch):
        pieces = []
        real = CuspScheme._saturation_piece
        monkeypatch.setattr(
            CuspScheme,
            "_saturation_piece",
            lambda self, m, n: pieces.append((m, n)) or real(self, m, n),
        )
        q, c, _pts = self.line_crossing_scheme()
        sch = CuspScheme(q, c, "z", include_line=True)
        sch.vanishing_dim(3)
        # (1:0:0) is the one intersection on z = 0, and it is transversal
        assert pieces == [(3, 1)]

    def test_koszul_dim_matches_elimination(self):
        # dim of the degree-N part of (a, b): the formula against the rank
        # of the products a*x^e, b*x^e eliminated by echelon_zw
        q, c, _pts = self.line_crossing_scheme()
        schemes = [(q, c), (poly("x^2 + y*z"), poly("x^3 + y^3 + z^3"))]
        schemes.append(six_cusp_sextic()[1:])
        for a, b in schemes:
            CuspScheme(a, b, "z").count()  # certifies a regular sequence
            for big in range(0, 10):  # N = m + n, m <= 4, n <= 5
                index = {e: i for i, e in enumerate(adjunction._monomials(big))}
                rows = []
                for gen in (a, b):
                    for e in adjunction._monomials(big - gen.degree()):
                        row = [C_ZERO] * len(index)
                        prod = gen * MPoly.monomial(XYZ, e)
                        for t, coeff in prod.terms.items():
                            row[index[t]] = coeff
                        rows.append(row)
                eliminated = len(echelon_zw(rows)[2]) if rows else 0
                assert adjunction._ideal_dim(a.degree(), b.degree(), big) == eliminated

    def test_chain_end_without_points_on_the_line(self):
        # x^2 = 0 and x^3 + y^3 = 0 have no common root on z = 0: the
        # ideal is already saturated and the chain ends at n0 = 0
        sch = CuspScheme(poly("x^2 + y*z"), poly("x^3 + y^3 + z^3"), "z")
        assert sch.count() == 6
        assert sch._cache["n0"] == 0
        for m in range(5):
            assert sch.vanishing_dim(m) == sch._saturation_piece(m, 3)

    def test_chain_end_at_infinity(self):
        # the conic x*z = y^2, (1 : t : t^2), meets b where
        # t^2 (t - 1)(t - 2) = 0: tangent at (1:0:0), the root (1:0) of
        # both restrictions to z = 0, so n0 is the resultant's degree deficit
        a = poly("x*z - y^2")
        b = poly("z^2 - 3*y*z + 3*x*z - y^2")
        off = CuspScheme(a, b, "z")
        full = CuspScheme(a, b, "z", include_line=True)
        assert off._line_divisor()[1]
        assert (off.count(), full.count()) == (2, 3)
        assert off._cache["n0"] == full._cache["n0"] == 2
        pts = [(1, 1, 1), (1, 2, 4), (1, 0, 0)]
        for m in range(1, 5):
            assert off.vanishing_dim(m) == vanishing_on_points(pts[:2], m)
            assert full.vanishing_dim(m) == vanishing_on_points(pts, m)

    def test_projection_centre_off_both_curves(self, monkeypatch):
        # both forms pass through the first centre (0:0:1), so count()
        # takes its resultants at the sheared centres only, where a form
        # has full degree in z
        pairs = []
        real = adjunction.resultant
        monkeypatch.setattr(
            adjunction,
            "resultant",
            lambda p, q, var: pairs.append((p, q)) or real(p, q, var),
        )
        a = poly("x*z - y^2")
        b = poly("y*z - 2*x*z - x*y + 2*x^2")  # t = 1, 2, -1 and (0:0:1)
        sch = CuspScheme(a, b, "z")
        assert sch.count() == 4
        assert pairs and all(2 in (p.degree_in("z"), q.degree_in("z")) for p, q in pairs)
        pts = [(1, 1, 1), (1, 2, 4), (1, -1, 1), (0, 0, 1)]
        for m in range(4):
            assert sch.vanishing_dim(m) == vanishing_on_points(pts, m)

    def test_zeros_on_the_projection_axis(self):
        # every shear x -> x + s*z keeps the line y = 0, so count() projects
        # all common zeros on it to the direction (1:0); they are counted
        # apart, by the gcd of the forms restricted to y = 0
        m_range = range(1, 5)
        # b contains the line z = 0, which a meets at (1:0:0), the root (1:0)
        # of both restrictions; off z = 0 the zeros are (0:0:1) on y = 0
        # and (1:1:1)
        a, b = poly("x*z - y^2"), poly("z*(x - y)")
        off = CuspScheme(a, b, "z")
        full = CuspScheme(a, b, "z", include_line=True)
        assert off._line_divisor()[1]
        assert (off.count(), full.count()) == (2, 3)
        pts = [(0, 0, 1), (1, 1, 1), (1, 0, 0)]
        for m in m_range:
            assert off.vanishing_dim(m) == vanishing_on_points(pts[:2], m)
            assert full.vanishing_dim(m) == vanishing_on_points(pts, m)
        # no common zero at (1:0:0), two transversal ones on y = 0 off z = 0
        a = poly("y*z + (x - z)*(x - 2*z)")
        b = poly("3*x*y + (x - z)*(x - 2*z)")
        off = CuspScheme(a, b, "z")
        full = CuspScheme(a, b, "z", include_line=True)
        assert not off._line_divisor()[1]
        assert (off.count(), full.count()) == (3, 4)
        pts = [(1, 0, 1), (2, 0, 1), (3, -10, 9), (0, 1, 0)]
        for p in pts:
            assert a.eval(p).is_zero() and b.eval(p).is_zero()
        for m in m_range:
            assert off.vanishing_dim(m) == vanishing_on_points(pts[:3], m)
            assert full.vanishing_dim(m) == vanishing_on_points(pts, m)

    def test_criterion_9_scheme_chain_end(self, monkeypatch):
        # the degree-12 Table-1 curve's cusp scheme: the chain n = 1..7 at
        # m = 7 reads 3, 4, 6, 6, 7, 7, 7, below its end at n0 = 9; every
        # piece from n = 5 on is 7, each rank certified mod p
        from curvelattice.torus import table1_construct

        fallbacks = []
        real = linalg.echelon_zw
        monkeypatch.setattr(
            linalg, "echelon_zw", lambda rows: fallbacks.append(rows) or real(rows)
        )
        f, g, _F = table1_construct(2, None, seed=0)
        sch = CuspScheme(f, g, "y0", include_line=True)
        assert sch.vanishing_dim(7) == 7
        assert sch._cache["n0"] == 9
        assert [sch._saturation_piece(7, n) for n in range(3, 11)] == [6, 6] + [7] * 6
        assert fallbacks == []

    def test_irrational_scheme_defect(self):
        q = poly("x^2 + y*z")
        c = poly("x^3 + y^3 + z^3")
        g = q * q * q + c * c
        prof = CurveProfile(g, scheme=CuspScheme(q, c, "z"))
        assert defect(prof, Fraction(5, 6)) == (6, 5, 1)
        assert alexander(prof).rendered == "(t^2 - t + 1)"


class TestAlexander:
    def test_nine_cusp(self):
        prof = CurveProfile(NINE_CUSP)
        delta = alexander(prof)
        assert delta.rendered == "(t^2 - t + 1)^3"
        assert ord_at(delta, Fraction(1, 6)) == 3
        assert ord_at(delta, Fraction(5, 6)) == 3
        assert ord_at(delta, Fraction(1, 2)) == 0
        assert ord_at(delta, 0) == 0

    def test_six_cusp(self):
        g, _q, _c = six_cusp_sextic()
        delta = alexander(CurveProfile(g))
        assert delta.rendered == "(t^2 - t + 1)"
        assert ord_at(delta, Fraction(1, 6)) == 1

    def test_smooth_curve_trivial(self):
        prof = CurveProfile(poly("x^4 + y^4 + z^4"), points=[])
        delta = alexander(prof)
        assert delta.rendered == "1"
        assert delta.orders == {}

    def test_components_factor(self):
        prof = CurveProfile(poly("x^4 + y^4 + z^4"), points=[], components=3)
        delta = alexander(prof)
        assert ord_at(delta, 0) == 2
        assert delta.rendered == "(t - 1)^2"

    def test_cyclotomic_text_matches_sympy(self):
        # Phi_105 is the first with a coefficient -2
        t = sympy.Symbol("t")
        for n in range(1, 211):
            want = str(sympy.cyclotomic_poly(n, t)).replace("**", "^")
            assert adjunction._render_cyclotomic(n) == want, n
            if n > 1:
                orders = {Fraction(k, n): 2 for k in range(1, n) if math.gcd(k, n) == 1}
                assert adjunction._render_alexander(orders) == f"({want})^2"
        assert "- 2*t^41" in adjunction._render_cyclotomic(105)

    def test_ord_at_domain(self):
        delta = AlexanderPoly({}, "1")
        with pytest.raises(ValueError):
            ord_at(delta, 1)


class TestProfileValidation:
    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            CurveProfile(poly("(x + y)^2*z"))

    def test_squarefree_exact_on_a_pencil(self, monkeypatch):
        # the centre is (1 : 0 : 0); the lines y = 0 and y = z of its
        # pencil pass through cusps of the nine-cusp sextic, so only the
        # third line, y = 2z, certifies it squarefree
        lines = []
        restrict = adjunction._restrict_to_line

        def recorded(p, alpha, beta, gamma):
            lines.append((alpha, beta, gamma))
            return restrict(p, alpha, beta, gamma)

        monkeypatch.setattr(adjunction, "_restrict_to_line", recorded)
        centres = []
        centre = adjunction._centre
        monkeypatch.setattr(
            adjunction, "_centre", lambda forms: centres.append(forms) or centre(forms)
        )
        assert adjunction._squarefree(NINE_CUSP)
        assert sorted(set(lines)) == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        # the gcd degree's lines run through the centre found for g alone
        assert centres == [(NINE_CUSP,)]
        assert not adjunction._squarefree(poly("(x^2 + y*z)^2*(x + y + z)"))

    def test_rejects_non_homogeneous(self):
        with pytest.raises(ValueError):
            CurveProfile(poly("x^2 + y"))

    def test_rejects_non_singular_point(self):
        bad = [ClassifiedPoint(ProjPoint((1, 1, 1)), "node")]
        with pytest.raises(ValueError):
            CurveProfile(poly("x^2 + y*z"), points=bad)

    def test_inventory(self):
        prof = CurveProfile(NINE_CUSP)
        assert prof.singularity_inventory() == {"cusp": 9}
        assert prof.cusp_count() == 9


class TestRestrictToLine:
    def test_restriction_matches_composition(self):
        # reference: substitute the line's parametrisation with MPoly.compose
        tv = ("t",)
        t = MPoly.variable("t", tv)
        forms = [NINE_CUSP, poly("(w*x - 2/3*y + z)^3*(x*z - y^2)"), poly("5/7")]
        for p in forms:
            for alpha, beta, gamma in ((0, 0, 0), (2, -1, 3), (Fraction(1, 2), 3, -2)):
                images = [
                    t,
                    MPoly.const(tv, alpha) + t.scale(beta),
                    MPoly.const(tv, 1) + t.scale(gamma),
                ]
                want = UPoly.from_mpoly(p.compose(images), "t")
                assert adjunction._restrict_to_line(p, alpha, beta, gamma) == want
