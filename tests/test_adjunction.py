"""Tests for singular-point detection, defects, and Alexander polynomials."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from curvelattice import adjunction, algebra, linalg
from curvelattice.algebra import (
    C_ONE,
    C_ZERO,
    OMEGA,
    DomainError,
    MPoly,
    ProjPoint,
    Cyclo,
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
    monos = algebra.monomials(m, (1, 1, 1))
    rows = [
        [p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2] for e in monos]
        for p in points
    ]
    return len(monos) - sympy.Matrix(rows).rank()


def _pivot_count(rows):
    return len(echelon_zw(rows)[2]) if rows and rows[0] else 0


def full_saturation_piece(sch, m, n):
    """Oracle: dim { h of degree m : sat_var^n * h in (gen_a, gen_b) } (on
    the line's points too with include_line) as dim V + dim W - dim(V + W),
    with W spanned by the products gen * x^e, V by the sat_var^n * h and
    the line conditions on h appended under V, every dimension the pivot
    count of echelon_zw."""
    a, b = sch.gen_a, sch.gen_b
    variables, big = a.vars, m + n
    index = {e: i for i, e in enumerate(algebra.monomials(big, (1, 1, 1)))}
    h_monos = algebra.monomials(m, (1, 1, 1))
    si = variables.index(sch.sat_var)
    w_cols = []
    for gen in (a, b):
        for e in algebra.monomials(big - gen.degree(), (1, 1, 1)):
            col = [C_ZERO] * len(index)
            for t, coeff in (gen * MPoly.monomial(variables, e)).terms.items():
                col[index[t]] = coeff
            w_cols.append(col)
    v_cols = []
    for e in h_monos:
        col = [C_ZERO] * len(index)
        col[index[e[:si] + (e[si] + n,) + e[si + 1:]]] = C_ONE
        v_cols.append(col)
    rows = [list(r) for r in zip(*(w_cols + v_cols))]
    if sch.include_line:
        rows += [[C_ZERO] * len(w_cols) + r for r in line_condition_rows(sch, m, h_monos)]
    dim_w = _pivot_count([list(r) for r in zip(*w_cols)])
    return len(h_monos) + dim_w - _pivot_count(rows)


def line_condition_rows(sch, m, h_monos):
    """Rows over the degree-m monomials: h restricted to sat_var = 0 is
    divisible by the line divisor g (its coefficients mod g vanish), and
    with a common root at (1:0) the top coefficient in rest[0] is 0."""
    variables = sch.gen_a.vars
    si = variables.index(sch.sat_var)
    i0 = variables.index([v for v in variables if v != sch.sat_var][0])
    g, has_inf = sch._line_divisor()
    g = g.monic()
    s = g.degree()
    rems = []
    for i in range(m + 1):
        rem = UPoly([C_ZERO] * i + [C_ONE]).divmod(g)[1] if s else UPoly([])
        rems.append(list(rem.coeffs) + [C_ZERO] * (s - len(rem.coeffs)))
    rows = [
        [rems[e[i0]][j] if e[si] == 0 else C_ZERO for e in h_monos]
        for j in range(s)
    ]
    if has_inf:
        rows.append([C_ONE if e[si] == 0 and e[i0] == m else C_ZERO for e in h_monos])
    return rows


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

    def test_x_free_chart_equations(self):
        # no partial of y^3 + z^3 involves x: the chart equations 3y^2 and
        # 3 live in y alone and share no root, and the one singular point
        # is (1 : 0 : 0), a triple point
        pts = singular_points(poly("y^3 + z^3"))
        assert [(p.point, p.kind) for p in pts] == [(ProjPoint((1, 0, 0)), "unclassified")]

    @pytest.mark.parametrize(
        "text",
        [
            # x-free chart equations with the common root y = 0
            "y^2*z",
            # the gradient vanishes on the whole line y = 0: every slice
            # of the chart equations at y = 0 is zero
            "y^2*(x + z)",
            # every partial vanishes on the line z = 0
            "x*z^2",
        ],
    )
    def test_singular_line_raises(self, text):
        with pytest.raises(IncompleteLocus) as err:
            singular_points(poly(text))
        assert err.value.unexplained == -1 and err.value.found == []

    def test_node_at_infinity(self):
        # z^2 y = x^2 (x + y) has a singular point at (0 : 1 : 0)
        pts = singular_points(poly("z^2*y - x^3 - x^2*y"))
        assert any(p.point == ProjPoint((0, 1, 0)) for p in pts)

    def test_classify_rejects_smooth_point(self):
        with pytest.raises(ValueError):
            classify_point(poly("x^2 + y*z"), ProjPoint((0, 1, 0)))


def compose_expansion(g: MPoly, point: ProjPoint):
    """Oracle: the pieces of degree <= 3 of g recentred at the point by
    MPoly.compose, in the chart of its last nonzero coordinate with the
    other two coordinates as _u and _v (the expansion classify_point read
    before the jet)."""
    coords = point.coords
    chart = max(i for i in range(3) if not coords[i].is_zero())
    local_vars = ("_u", "_v")
    images = []
    j = 0
    for i in range(3):
        image = MPoly.const(local_vars, coords[i])
        if i != chart:
            image = image + MPoly.variable(local_vars[j], local_vars)
            j += 1
        images.append(image)
    return {d: p for d, p in g.compose(images).homogeneous_parts().items() if d <= 3}


def jet_pieces(g: MPoly, point: ProjPoint):
    chart = max(i for i in range(3) if not point.coords[i].is_zero())
    return g.jet(point.coords, [i for i in range(3) if i != chart], ("_u", "_v"), 3)


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
cyclos = st.builds(Cyclo, rationals, rationals)


@st.composite
def ternary_forms(draw):
    """Forms of degree 2..7 with Q(w) coefficients and denominators."""
    monos = algebra.monomials(draw(st.integers(2, 7)), (1, 1, 1))
    terms = draw(st.dictionaries(st.sampled_from(monos), cyclos, max_size=8))
    return MPoly(XYZ, terms)


@st.composite
def projective_points(draw):
    """Points in the chart z = 1, on the line z = 0, and (1 : 0 : 0)."""
    kind = draw(st.sampled_from(("affine", "infinity", "corner")))
    if kind == "corner":
        return ProjPoint((1, 0, 0))
    if kind == "infinity":
        return ProjPoint((draw(cyclos), 1, 0))
    return ProjPoint((draw(cyclos), draw(cyclos), 1))


class TestLocalJet:
    """classify_point reads the 3-jet of MPoly.jet, the Taylor coefficients
    at the point, instead of recentring the whole form by compose."""

    @given(ternary_forms(), projective_points())
    @settings(max_examples=300, deadline=None)
    def test_matches_compose_expansion(self, g, point):
        assert jet_pieces(g, point) == compose_expansion(g, point)

    def test_matches_compose_expansion_at_cusps(self):
        # the nine-cusp sextic's cusps include w coordinates and z = 0
        for f in (six_cusp_sextic()[0], NINE_CUSP):
            for cp in singular_points(f):
                got = jet_pieces(f, cp.point)
                assert got == compose_expansion(f, cp.point)
                assert set(got) <= {2, 3}

    def test_singular_points_compose_nothing(self, monkeypatch):
        # the jet needs no recentred copy of the curve: no compose call
        # while a seeded torus sextic's six cusps are found and classified
        from curvelattice.torus import seeded_torus_sextic

        g = seeded_torus_sextic(0)[0].g
        calls = []
        compose = MPoly.compose

        def counted(self, images):
            calls.append(1)
            return compose(self, images)

        monkeypatch.setattr(MPoly, "compose", counted)
        kinds = [p.kind for p in singular_points(g)]
        assert kinds == ["cusp"] * 6
        assert calls == []


def classify_by_rank(g: MPoly, point: ProjPoint) -> str:
    """The former classification: the rank of the quadratic part's 2x2
    matrix, then the cubic part on its kernel vector."""
    pieces = jet_pieces(g, point)
    quad = pieces.get(2)
    if quad is None:
        return "unclassified"
    a, b, c = (quad.terms.get(e, C_ZERO) for e in ((2, 0), (1, 1), (0, 2)))
    m = [[a + a, b], [b, c + c]]
    r = linalg.rank(m)
    if r == 2:
        return "node"
    if r == 1:
        ker = linalg.kernel_basis(m)[0]
        if 3 in pieces and not pieces[3].eval(ker).is_zero():
            return "cusp"
    return "unclassified"


@st.composite
def singular_jets(draw):
    """(g, point): g = Q*z + C moved so that its singular point (0 : 0 : 1)
    lies at (x0 : y0 : 1).  Q is random or a double line (p x + q y)^2,
    p = 0 included; C is random or vanishes on the line's direction."""
    x, y, z = (MPoly.variable(v, XYZ) for v in XYZ)

    def form(degree):
        coeffs = draw(st.lists(cyclos, min_size=degree + 1, max_size=degree + 1))
        return sum((x**i * y ** (degree - i) * co for i, co in enumerate(coeffs)), MPoly.zero(XYZ))

    p, q = draw(st.sampled_from([(0, 1), (1, 0), (1, 1), (2, -3)]))
    line = x * p + y * q
    if draw(st.booleans()):
        quad = form(2)
    else:
        quad = line * line * draw(cyclos)
    cubic = line * form(2) if draw(st.booleans()) else form(3)
    g = quad * z + cubic
    x0, y0 = draw(cyclos), draw(cyclos)
    return g.compose([x - z * x0, y - z * y0, z]), ProjPoint((x0, y0, 1))


class TestClassifyDifferential:
    """classify_point reads the tangent cone's discriminant and double line,
    where it once took a rank and a kernel of the 2x2 matrix."""

    @given(singular_jets())
    @settings(max_examples=200, deadline=None)
    def test_matches_rank_and_kernel(self, case):
        g, point = case
        assume(not g.is_zero())
        assert classify_point(g, point).kind == classify_by_rank(g, point)

    def test_double_lines_with_a_zero(self):
        # y^2 z + x^3 and y^2 z + y^3: the tangent cone y^2 has a = 0 and
        # direction (1, 0), where the cubic part is nonzero or zero
        origin = ProjPoint((0, 0, 1))
        for text, kind in (("y^2*z + x^3", "cusp"), ("y^2*z + y^3", "unclassified")):
            assert classify_point(poly(text), origin).kind == kind
            assert classify_by_rank(poly(text), origin) == kind

    def test_no_rank(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("classify_point took a matrix rank")

        monkeypatch.setattr(adjunction, "matrix_rank", forbidden)
        kinds = {p.kind for p in singular_points(NINE_CUSP)}
        assert kinds == {"cusp"}
        assert classify_point(poly("y^2*z - x^3 - x^2*z"), ProjPoint((0, 0, 1))).kind == "node"


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
        row = f.row([(2, 0, 0)])
        assert row[0].a == 6

    @given(
        projective_points(),
        st.tuples(*[st.integers(0, 2)] * 3),
        st.lists(st.tuples(*[st.integers(0, 4)] * 3), max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_functional_row_matches_derivatives(self, point, order, monos):
        # reference: differentiate each monomial as a polynomial, evaluate
        want = []
        for exps in monos:
            mono = MPoly.monomial(XYZ, exps)
            for v, k in zip(XYZ, order):
                for _ in range(k):
                    mono = mono.derivative(v)
            want.append(mono.eval(point.coords))
        assert Functional(point, order).row(monos) == want


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
            f.row([(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)])
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
        # line divisor; the restrictions to the saturation line z = 0 (the
        # line at y = 1 along x) are taken once per scheme
        divisors = []
        real = CuspScheme._on_line
        monkeypatch.setattr(
            CuspScheme,
            "_on_line",
            lambda self, at, along: (at, along) == ("y", "x") and divisors.append(self)
            or real(self, at, along),
        )
        full = CuspScheme(q, c, "z", include_line=True)
        full.count(), full.vanishing_dim(2), full.vanishing_dim(3)
        assert divisors == [full]

    def test_degree_54_gcds_certified_without_prs(self, monkeypatch):
        # criterion 9's count runs two projection centers, each a degree-54
        # resultant r1 whose Yun decomposition takes gcd(r1, r1') once: that
        # first step serves both the squarefree degree and n0, which takes
        # no further gcd with r1 or its derivatives.  Both come from the
        # image mod P, certified by exact division, and run no PRS
        from curvelattice.torus import table1_construct

        calls, inside = [], []
        real_gcd, real_prs = algebra._zw_poly_gcd, algebra._zw_prs

        def gcd(f, g):
            inside.append([len(f) - 1, len(g) - 1, 0])
            try:
                return real_gcd(f, g)
            finally:
                calls.append(inside.pop())

        def prs(f, g):
            if inside:
                inside[-1][2] += 1
            return real_prs(f, g)

        monkeypatch.setattr(algebra, "_zw_poly_gcd", gcd)
        monkeypatch.setattr(algebra, "_zw_prs", prs)
        f, g, _F = table1_construct(2, None, seed=0)
        assert CuspScheme(f, g, "y0", include_line=True).count() == 30
        assert [c for c in calls if c[0] == 54] == [[54, 53, 0], [54, 53, 0]]
        # the second center reads only the squarefree degree: Yun's first
        # step (_zw_squarefree) is its last gcd
        assert calls[-1] == [54, 53, 0]

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
                index = {e: i for i, e in enumerate(algebra.monomials(big, (1, 1, 1)))}
                rows = []
                for gen in (a, b):
                    for e in algebra.monomials(big - gen.degree(), (1, 1, 1)):
                        row = [C_ZERO] * len(index)
                        prod = gen * MPoly.monomial(XYZ, e)
                        for t, coeff in prod.terms.items():
                            row[index[t]] = coeff
                        rows.append(row)
                eliminated = len(echelon_zw(rows)[2]) if rows else 0
                assert adjunction._ideal_dim(a.degree(), b.degree(), big) == eliminated

    def test_generators_must_be_nonzero_forms(self):
        # x^2 + y*z + x is no form: count() read 6 and vanishing_dim(2)
        # raised a bare KeyError before the check
        cubic = poly("x^3 + y^3 + z^3")
        for a in (poly("x^2 + y*z + x"), MPoly.zero(XYZ)):
            with pytest.raises(DomainError, match="nonzero forms"):
                CuspScheme(a, cubic, "z")
            with pytest.raises(DomainError, match="nonzero forms"):
                CuspScheme(cubic, a, "z")

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

    def differential_schemes(self):
        """The schemes of this class, as (gen_a, gen_b), plus one with w
        parts."""
        q, c, _pts = self.line_crossing_scheme()
        return [
            six_cusp_sextic()[1:],
            (poly("x^2 + y*z"), poly("x^3 + y^3 + z^3")),
            (q, c),
            (poly("x*z - y^2"), poly("z^2 - 3*y*z + 3*x*z - y^2")),
            (poly("x*z - y^2"), poly("y*z - 2*x*z - x*y + 2*x^2")),
            (poly("x*z - y^2"), poly("z*(x - y)")),
            (poly("y*z + (x - z)*(x - 2*z)"), poly("3*x*y + (x - z)*(x - 2*z)")),
            (poly("x^2 + w*y*z"), poly("x^3 + y^3 + (1 - w)*z^3")),
            # both tangent to z = 0 at (1:2:0), where the length is 3 and
            # the line divisor is t - 1/2; the first form's pairs share
            # the factor 2, so gen * lam reduces by a different factor for
            # each generator
            (
                poly("2*z*x + 2*(2*x - y)^2"),
                poly("x*(z*x + (2*x - y)^2) + (2*x - y)^3 + z^2*(x + y)"),
            ),
        ]

    def test_piece_matches_the_full_construction(self):
        # the piece ranks W's columns on the rows below sat_var^n and the
        # line conditions carried through W_S; the full [W | V; 0 | L]
        # construction, every rank by echelon_zw, gives the same numbers
        for a, b in self.differential_schemes():
            for include_line in (False, True):
                sch = CuspScheme(a, b, "z", include_line=include_line)
                sch.count()
                n0 = sch._cache["n0"]
                for m in range(4):
                    for n in range(n0 + 2):
                        assert sch._saturation_piece(m, n) == full_saturation_piece(sch, m, n), (a, b, include_line, m, n)

    def test_piece_matches_the_full_construction_on_table_1(self):
        from curvelattice.torus import table1_construct

        f, g, _F = table1_construct(1, None, seed=0)
        for include_line in (False, True):
            sch = CuspScheme(f, g, "y0", include_line=include_line)
            sch.count()
            n0 = sch._cache["n0"]
            assert sch.vanishing_dim(4) == full_saturation_piece(sch, 4, n0)

    def test_degree_12_pieces_certified(self, monkeypatch):
        # without the sat_var^n block the pieces of criterion 9's scheme at
        # (m = 7, no line) and (m = 8, with the line) certify mod p
        from curvelattice.torus import table1_construct

        fallbacks = []
        real = linalg.echelon_zw
        monkeypatch.setattr(
            linalg, "echelon_zw", lambda rows: fallbacks.append(rows) or real(rows)
        )
        f, g, _F = table1_construct(2, None, seed=0)
        assert CuspScheme(f, g, "y0").vanishing_dim(7) == 9
        assert CuspScheme(f, g, "y0", include_line=True).vanishing_dim(8) == 15
        assert fallbacks == []

    def test_irrational_scheme_defect(self):
        q = poly("x^2 + y*z")
        c = poly("x^3 + y^3 + z^3")
        g = q * q * q + c * c
        prof = CurveProfile(g, scheme=CuspScheme(q, c, "z"))
        assert defect(prof, Fraction(5, 6)) == (6, 5, 1)
        assert alexander(prof).rendered == "(t^2 - t + 1)"


def line_functionals_by_divmod(sch, m, n):
    """The former CuspScheme._line_functionals: x^i mod g by one UPoly
    product and one UPoly.divmod per power."""
    variables = sch.gen_a.vars
    si = variables.index(sch.sat_var)
    i0 = variables.index(next(v for v in variables if v != sch.sat_var))
    g, has_inf = sch._line_divisor()
    g = g.monic()
    s = g.degree()
    x = UPoly([C_ZERO, C_ONE])
    rems = []
    rem = UPoly([C_ONE])
    for _ in range(m + 1):
        rems.append(list(rem.coeffs) + [C_ZERO] * (s - len(rem.coeffs)))
        rem = (rem * x).divmod(g)[1] if s else UPoly([])
    rows = [[r[j] for r in rems] for j in range(s)]
    if has_inf:
        rows.append([C_ZERO] * m + [C_ONE])
    keys = []
    for i in range(m + 1):
        key = [n + i] * 3
        key[si], key[i0] = m, m + n - i
        keys.append(tuple(key))
    return [MPoly(variables, dict(zip(keys, row))) for row in rows]


class TestLineFunctionalsDifferential:
    """The line conditions take x^i mod g by the companion shift of the
    monic g, where they once took a UPoly product and a divmod per power."""

    @given(
        st.lists(cyclos, max_size=4),
        cyclos.filter(lambda c: not c.is_zero()),
        st.booleans(),
        st.integers(0, 8),
        st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_divmod(self, low, lead, has_inf, m, n):
        # g of degree 0..4, given scaled: the scheme makes it monic
        sch = CuspScheme(poly("x^2 + y*z"), poly("x^3 + y^3 + z^3"), "z", include_line=True)
        sch._cache["line_divisor"] = (UPoly([*low, C_ONE]) * UPoly([lead]), has_inf)
        assert sch._line_functionals(m, n) == line_functionals_by_divmod(sch, m, n)

    def test_no_divmod(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the line conditions divided by UPoly.divmod")

        # the restrictions to z = 0 share x^2 + y^2: g = x^2 + 1
        sch = CuspScheme(poly("x^2 + y^2 + y*z"), poly("x^3 + x*y^2 + z^3"), "z", include_line=True)
        assert sch._line_divisor()[0].degree() == 2
        want = line_functionals_by_divmod(sch, 6, 2)
        monkeypatch.setattr(UPoly, "divmod", forbidden)
        assert sch._line_functionals(6, 2) == want


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
            assert algebra.render(adjunction._cyclotomic(n)) == want, n
            if n > 1:
                orders = {Fraction(k, n): 2 for k in range(1, n) if math.gcd(k, n) == 1}
                assert adjunction._render_alexander(orders) == f"({want})^2"
        assert "- 2*t^41" in algebra.render(adjunction._cyclotomic(105))

    def test_cyclotomic_matches_former_renderer(self):
        for n in range(1, 101):
            assert algebra.render(adjunction._cyclotomic(n)) == render_cyclotomic_by_division(n), n

    def test_ord_at_domain(self):
        delta = AlexanderPoly({}, "1")
        with pytest.raises(ValueError):
            ord_at(delta, 1)


def cyclotomic_coeffs_by_division(n):
    """Test-local copy of the former private integer long division:
    Phi_n's coefficients low -> high, (t^n - 1) over Phi_d for d < n."""
    out = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_coeffs_by_division(d)
            q = [0] * (len(out) - len(den) + 1)
            for i in range(len(q) - 1, -1, -1):  # den is monic
                q[i] = c = out.pop()
                for j, y in enumerate(den[:-1], i):
                    out[j] -= c * y
            out = q
    return out


def render_cyclotomic_by_division(n):
    """Test-local copy of the former second printer: Phi_n in t, highest
    degree first."""
    text = ""
    for k, c in reversed(list(enumerate(cyclotomic_coeffs_by_division(n)))):
        if not c:
            continue
        mono = "t" if k == 1 else f"t^{k}"
        term = str(abs(c)) if k == 0 else (mono if abs(c) == 1 else f"{abs(c)}*{mono}")
        sign = "-" if c < 0 else "+"
        text = f"{text} {sign} {term}" if text else term  # Phi_n is monic
    return text


class TestProfileValidation:
    @pytest.mark.parametrize("components", [0, -2, 5])
    def test_components_between_one_and_degree(self, components):
        with pytest.raises(DomainError):
            CurveProfile(poly("x^4 + y^4 + z^4"), points=[], components=components)

    def test_components_at_the_degree(self):
        prof = CurveProfile(poly("x^4 + y^4 + z^4"), points=[], components=4)
        assert alexander(prof).rendered == "(t - 1)^3"

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            CurveProfile(poly("(x + y)^2*z"))

    def test_squarefree_exact_on_a_pencil(self, monkeypatch):
        # the centre is (1 : 0 : 0); the lines y = 0 and y = z of its
        # pencil pass through cusps of the nine-cusp sextic, so only the
        # third line, y = 2z, certifies it squarefree
        lines = []
        restrict = adjunction.restrict

        def recorded(p, P, Q):
            # the line P + t Q = (0, alpha, 1) + t (1, beta, gamma)
            lines.append((P[1], Q[1], Q[2]))
            return restrict(p, P, Q)

        monkeypatch.setattr(adjunction, "restrict", recorded)
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
        assert prof.singularity_inventory()["cusp"] == 9


class TestRestrictToLine:
    # reference: substitute the line's parametrisation with MPoly.compose
    @staticmethod
    def composed(p, P, Q):
        tv = ("t",)
        t = MPoly.variable("t", tv)
        images = [MPoly.const(tv, u) + t.scale(v) for u, v in zip(P, Q)]
        return UPoly.from_mpoly(p.compose(images), "t")

    def test_restriction_matches_composition(self):
        forms = [
            NINE_CUSP,
            poly("(w*x - 2/3*y + z)^3*(x*z - y^2)"),
            poly("5/7"),
            poly("x^2*y - 3/4*w*z + 2"),
        ]
        # the pencil lines (0, alpha, 1) + t (1, beta, gamma), the unit-vector
        # lines of the cusp scheme and of the line z = 0, a P with a nonzero
        # first coordinate, and a constant line
        lines = [
            ((0, alpha, 1), (1, beta, gamma))
            for alpha, beta, gamma in ((0, 0, 0), (2, -1, 3), (Fraction(1, 2), 3, -2))
        ] + [
            ((0, 1, 0), (1, 0, 0)),
            ((0, 0, 1), (1, 0, 0)),
            ((1, 0, 0), (0, 1, 0)),
            ((3, Fraction(-1, 2), 0), (Fraction(2, 5), 0, 7)),
            ((Fraction(1, 3), 2, -1), (0, 0, 0)),
        ]
        for p in forms:
            for P, Q in lines:
                assert algebra.restrict(p, P, Q) == self.composed(p, P, Q)

    @settings(max_examples=40, deadline=None)
    @given(
        ternary_forms(),
        st.lists(rationals, min_size=3, max_size=3),
        st.lists(rationals, min_size=3, max_size=3),
    )
    def test_random_lines(self, p, P, Q):
        assert algebra.restrict(p, P, Q) == self.composed(p, P, Q)
