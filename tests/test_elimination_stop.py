"""Both eliminations stop once every candidate root is checkable in Q(w).

singular_points takes a third chart resultant only when the gcd of the
first two has roots outside Q(w); the toric search stops at the first
trial line whose gcd(R, R'') has degree at most 1, and takes at most
three.  Each is checked here against a test-local copy of the version
that always took all three: the same points, kinds and order, the same
IncompleteLocus, and the same toric search answers.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelattice import adjunction, torus
from curvelattice.adjunction import (
    CurveProfile,
    IncompleteLocus,
    _upoly_gcd_many,
    classify_point,
    singular_points,
)
from curvelattice.algebra import (
    C_ONE,
    C_ZERO,
    Cyclo,
    MPoly,
    ProjPoint,
    UPoly,
    monomials,
    parse_poly,
    qomega_roots,
    restrict,
    resultant,
)
from curvelattice.torus import find_toric_sextic, seeded_torus_sextic

XYZ = ("x", "y", "z")
NINE_CUSP = parse_poly("x^6 - 2*x^3*y^3 - 2*x^3*z^3 + y^6 - 2*y^3*z^3 + z^6", XYZ)


def singular_points_all(g):
    """singular_points with all three chart resultants, as it was."""
    vx, vy, vz = g.vars
    partials = [g.derivative(v) for v in g.vars]
    aff = [p.subs({vz: 1}) for p in partials]
    res = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        p, q = aff[i], aff[j]
        if (p.degree_in(vx) > 0 or q.degree_in(vx) > 0) and not (p.is_zero() or q.is_zero()):
            r = resultant(p, q, vx)
            if not r.is_zero():
                res.append(r)
    cand = _upoly_gcd_many(res)
    if cand is None and any(p.degree_in(vx) > 0 for p in aff):
        raise IncompleteLocus(-1, [])
    if cand is None:
        g1 = _upoly_gcd_many(UPoly.from_mpoly(p, vy) for p in aff if not p.is_zero())
        if g1 is not None and g1.degree() > 0:
            raise IncompleteLocus(-1, [])
        cand = UPoly([C_ONE])
    unexplained, points = 0, []
    if cand.degree() > 0:
        yroots, unexplained = qomega_roots(cand)
        for y0, _m in yroots:
            slices = [p.subs({vy: y0}) for p in aff]
            upolys = [UPoly.from_mpoly(s, vx) for s in slices if not s.is_zero()]
            if not upolys:
                raise IncompleteLocus(-1, points)
            ux = _upoly_gcd_many(upolys)
            if ux.degree() <= 0:
                continue
            xroots, miss_x = qomega_roots(ux)
            unexplained += miss_x
            for x0, _mx in xroots:
                if all(p.eval((x0, y0, C_ONE)).is_zero() for p in partials):
                    points.append(ProjPoint((x0, y0, C_ONE)))
    u = _upoly_gcd_many(restrict(p, (0, 1, 0), (1, 0, 0)) for p in partials)
    if u is None:
        raise IncompleteLocus(-1, points)
    if u.degree() > 0:
        xroots, miss = qomega_roots(u)
        unexplained += miss
        for x0, _m in xroots:
            if all(p.eval((x0, C_ONE, C_ZERO)).is_zero() for p in partials):
                points.append(ProjPoint((x0, C_ONE, C_ZERO)))
    if all(p.eval((C_ONE, C_ZERO, C_ZERO)).is_zero() for p in partials):
        points.append(ProjPoint((C_ONE, C_ZERO, C_ZERO)))
    points = list(dict.fromkeys(points))
    if unexplained:
        raise IncompleteLocus(unexplained, points)
    return [classify_point(g, p) for p in points]


def lambda_cubed_candidates_all(g, q0, cusps, g_lines):
    """torus._lambda_cubed_candidates with three trial lines, as it was."""
    if all(e[2] for e in q0.pairs):
        return None
    lines = []
    for trial in range(200):
        if len(lines) == 3:
            break
        alpha, beta = torus._trial_line(trial)
        ql = restrict(q0, (0, alpha, 1), (1, beta, 0))
        if ql.degree() != 2:
            continue
        gl = torus._g_on_trial_line(g, cusps, trial, g_lines)
        if gl is None:
            continue
        u, crit, flat, _m_star = torus._cube_pencil(gl, ql)
        if flat or crit.is_zero():
            continue
        res = resultant(u, crit, "t")
        if not res.is_zero():
            lines.append(res)
    if not lines:
        return None
    g_m = _upoly_gcd_many(lines)
    return g_m if g_m.degree() <= 0 else g_m.squarefree_part()


def outcome(find, g):
    """The classified points in order, or the IncompleteLocus data."""
    try:
        return [(p.point, p.kind) for p in find(g)]
    except IncompleteLocus as err:
        return err.unexplained, err.found


def chart_resultants(monkeypatch, g):
    """(outcome of singular_points on g, chart resultants it took)."""
    calls = []

    def counted(p, q, var):
        calls.append(var)
        return resultant(p, q, var)

    with monkeypatch.context() as m:
        m.setattr(adjunction, "resultant", counted)
        got = outcome(singular_points, g)
    return got, len(calls)


def search_answers(result):
    return result.points, result.missing, result.field_exhausted, result.complete


def check_search(monkeypatch, profile):
    """The search's answers with each candidate polynomial against the
    three-line one: the same answers, and per conic the new polynomial's
    roots that the three-line one lacks (at most two: a linear factor's
    root and m*) lie in Q(w)."""
    pairs = []
    new, old = torus._lambda_cubed_candidates, lambda_cubed_candidates_all

    def both(g, q0, cusps, g_lines):
        got = new(g, q0, cusps, g_lines)
        pairs.append((got, old(g, q0, cusps, {})))
        return got

    with monkeypatch.context() as m:
        m.setattr(torus, "_lambda_cubed_candidates", both)
        result = find_toric_sextic(profile)
    with monkeypatch.context() as m:
        m.setattr(torus, "_lambda_cubed_candidates", old)
        assert search_answers(result) == search_answers(find_toric_sextic(profile))
    for got, want in pairs:
        if want is None:
            assert got is None
            continue
        extra = got.squarefree_part().divmod(got.gcd(want))[0]
        assert extra.degree() <= 2
        assert extra.degree() <= 0 or qomega_roots(extra)[1] == 0
    return result


def unimodular_images(g):
    """g(M v) for the nine-cusp workload's maps: the shear x -> x + c y
    after sign flips of x and y."""
    x, y, z = (MPoly.variable(v, XYZ) for v in XYZ)
    for d1 in (1, -1):
        for d2 in (1, -1):
            for c in (1, -1):
                yield g.compose([x.scale(d1) + y.scale(c * d2), y.scale(d2), z])


def attempt_curves(monkeypatch, seeds):
    """Every curve the torus generator profiles for these seeds, the
    rejected ones included."""
    tried = []

    def record(g):
        tried.append(g)
        return CurveProfile(g)

    with monkeypatch.context() as m:
        m.setattr(torus, "CurveProfile", record)
        for seed in seeds:
            seeded_torus_sextic(seed)
    return tried


def irrational_sextic(rng):
    """q^3 + c^2 with q and c of small random integer coefficients."""
    def form(d):
        return MPoly(XYZ, {e: Cyclo(rng.randint(-3, 3)) for e in monomials(d, (1, 1, 1))})

    q, c = form(2), form(3)
    return q * q * q + c * c


class TestChartResultants:
    @pytest.mark.parametrize(
        "g",
        [NINE_CUSP] + [seeded_torus_sextic(seed)[0].g for seed in (0, 1, 2, 8)],
        ids=["nine-cusp", "torus-0", "torus-1", "torus-2", "torus-8"],
    )
    def test_two_chart_resultants(self, monkeypatch, g):
        got, calls = chart_resultants(monkeypatch, g)
        assert calls == 2
        assert got == outcome(singular_points_all, g)

    def test_order_ignores_elimination_multiplicity(self, monkeypatch):
        # nodes at (1 : 0 : 1) and (5 : -1 : 1), and a critical point of
        # the chart polynomial on y = 0: the gcd of two chart resultants
        # has multiplicity 2 at y = 0 and the full gcd 1, and the points
        # come in the order of their y coordinates under both
        g = parse_poly(
            "-x^4 + 3*x^3*y + 3*x^3*z + 60*x^2*z^2 + x*y^3 - 37*x*y^2*z"
            " - 63*x*y*z^2 - 125*x*z^3 - y^4 - 1263*y^3*z - 1640*y^2*z^2"
            " + 60*y*z^3 + 63*z^4",
            XYZ,
        )
        got, calls = chart_resultants(monkeypatch, g)
        assert calls == 2
        assert got == outcome(singular_points_all, g)
        assert got == [(ProjPoint((1, 0, 1)), "node"), (ProjPoint((5, -1, 1)), "node")]

    def test_torus_generator_attempts(self, monkeypatch):
        curves = attempt_curves(monkeypatch, range(12))
        assert len(curves) > 6  # one curve per seed at least
        for g in curves:
            assert chart_resultants(monkeypatch, g)[0] == outcome(singular_points_all, g)

    @pytest.mark.parametrize("line", ["2*x - 3*y - z", "x + 3*y - z", "2*x + 3*y + 2*z"])
    def test_generator_cubics_divisible_by_q(self, monkeypatch, line):
        # the torus generator's attempts it refuses unprofiled (seed 1's
        # first, seed 7's first two): c = q*l, so q^3 + c^2 is singular
        # along q and the locus cannot be isolated
        q = parse_poly("x*z - y^2", XYZ)
        c = q * parse_poly(line, XYZ)
        g = q * q * q + c * c
        got = chart_resultants(monkeypatch, g)[0]
        assert got == outcome(singular_points_all, g)
        assert got == (-1, [])

    def test_nine_cusp_images(self, monkeypatch):
        for g in unimodular_images(NINE_CUSP):
            got, calls = chart_resultants(monkeypatch, g)
            assert calls == 2
            assert got == outcome(singular_points_all, g)

    def test_irrational_points_take_the_third(self, monkeypatch):
        # the gcd of two chart resultants has roots outside Q(w), so the
        # third is taken and the locus is reported incomplete as before
        rng = random.Random("irrational sextics")
        for _ in range(4):
            g = irrational_sextic(rng)
            got, calls = chart_resultants(monkeypatch, g)
            assert calls == 3
            assert got == outcome(singular_points_all, g)
            assert isinstance(got, tuple) and got[0] > 0

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_sextics(self, seed):
        g = irrational_sextic(random.Random(seed))
        assert outcome(singular_points, g) == outcome(singular_points_all, g)


class TestTrialLines:
    @pytest.mark.parametrize("seed", range(12))
    def test_torus_sextics(self, monkeypatch, seed):
        check_search(monkeypatch, seeded_torus_sextic(seed)[0])

    @pytest.mark.parametrize("scale", [2, -1, Cyclo(1, 0, 7), 64])
    def test_scaled_torus_sextic(self, monkeypatch, scale):
        g = seeded_torus_sextic(0)[0].g.scale(scale)
        assert outcome(singular_points, g) == outcome(singular_points_all, g)
        result = check_search(monkeypatch, CurveProfile(g))
        assert len(result.points) == (6 if scale == 64 else 0)

    def test_nine_cusp_images(self, monkeypatch):
        for g in unimodular_images(NINE_CUSP):
            result = check_search(monkeypatch, CurveProfile(g))
            assert (len(result.points), result.missing) == (0, 60)
