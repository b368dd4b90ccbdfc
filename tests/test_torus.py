"""Tests for quasi-toric decompositions, the orbit pairing, and Table 1."""

from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvelattice import algebra, torus
from curvelattice.adjunction import CurveProfile
from curvelattice.algebra import (
    NOT_A_SQUARE,
    Cyclo,
    MPoly,
    UPoly,
    monomial_values,
    monomials,
    parse_poly,
    poly_sqrt,
    qomega_roots,
    render,
    restrict,
    resultant,
)
from curvelattice.linalg import kernel_basis, rank
from curvelattice.torus import (
    QuasiToricPoint,
    find_toric_sextic,
    gram,
    height,
    mu6_orbit,
    omega_point,
    pairing,
    seeded_torus_sextic,
    table1_construct,
    table1_cusp_count,
    table1_params,
    table1_point,
    verify_decomposition,
)

XYZ = ("x", "y", "z")
SMALL_CYCLO = st.builds(Cyclo, st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 2))

NINE_CUSP = parse_poly(
    "x^6 - 2*x^3*y^3 - 2*x^3*z^3 + y^6 - 2*y^3*z^3 + z^6", XYZ
)


def poly(text, variables=XYZ):
    return parse_poly(text, variables)


def toric_fixture():
    """One orbit on the seeded sextic with six rational cusps."""
    profile, q, c = seeded_torus_sextic(1)
    result = find_toric_sextic(profile)
    assert len(result.points) == 6
    return result.points


class TestVerifyDecomposition:
    def test_constructed_toric_point(self):
        profile, q, c = seeded_torus_sextic(3)
        # g = q^3 + c^2 means (-q, c, 1) satisfies c^2 = (-q)^3 + g
        p = QuasiToricPoint(q.scale(-1), c, MPoly.const(XYZ, 1), profile.g, 1)
        ok, detail = verify_decomposition(p)
        assert ok, detail

    def test_identity_violation(self):
        profile, q, c = seeded_torus_sextic(3)
        p = QuasiToricPoint(q, c, MPoly.const(XYZ, 1), profile.g, 1)
        ok, detail = verify_decomposition(p)
        assert not ok and "identity" in detail

    def test_coprimality_violation(self):
        # scale a valid (X0, Y0, 1) to (z^2 X0, z^3 Y0, z): the identity
        # still holds but X, Y, Z now share the factor z
        profile, q, c = seeded_torus_sextic(3)
        z = MPoly.variable("z", XYZ)
        p = QuasiToricPoint(
            (z * z) * q.scale(-1), (z * z * z) * c, z, profile.g, 1
        )
        ok, detail = verify_decomposition(p)
        assert not ok and "coprime" in detail

    def test_wrong_degree_reported(self):
        profile, q, c = seeded_torus_sextic(3)
        p = QuasiToricPoint(q.scale(-1), c, MPoly.const(XYZ, 1), profile.g, 1)
        bad = QuasiToricPoint.__new__(QuasiToricPoint)
        for name in ("X", "Y", "Z", "curve", "k"):
            object.__setattr__(bad, name, getattr(p, name))
        object.__setattr__(bad, "X", p.X * p.X)
        ok, detail = verify_decomposition(bad)
        assert not ok and "deg X" in detail

    def test_zero_z_rejected(self):
        with pytest.raises(ValueError):
            QuasiToricPoint(
                MPoly.const(XYZ, 1),
                MPoly.const(XYZ, 1),
                MPoly.zero(XYZ),
                NINE_CUSP,
                1,
            )


class TestOrbit:
    def test_six_distinct_valid(self):
        points = toric_fixture()
        orbit = mu6_orbit(points[0])
        assert len(orbit) == 6
        assert len(set(orbit)) == 6
        for p in orbit:
            ok, detail = verify_decomposition(p)
            assert ok, detail

    def test_orbit_of_member_is_same_set(self):
        points = toric_fixture()
        orbit = mu6_orbit(points[0])
        assert set(mu6_orbit(orbit[3])) == set(orbit)

    def test_search_points_closed_under_orbit(self):
        points = toric_fixture()
        assert set(mu6_orbit(points[0])) == set(points)


class TestPairing:
    def test_self_pairing_is_height(self):
        for p in toric_fixture():
            assert pairing(p, p) == height(p) == 2

    def test_omega_lemma(self):
        points = toric_fixture()
        p = points[0]
        wp = omega_point(p)
        assert pairing(p, wp) == -height(p) // 2 == -1

    def test_symmetry_on_orbit(self):
        points = toric_fixture()
        for a in points:
            for b in points:
                assert pairing(a, b) == pairing(b, a)

    def test_orbit_gram_is_a2(self):
        points = toric_fixture()
        p = points[0]
        m = gram([p, omega_point(p)])
        assert m.entries == [[2, -1], [-1, 2]]
        assert m.size == 2

    def test_full_orbit_gram_psd_even_diagonal(self):
        points = toric_fixture()
        m = gram(points)
        for i in range(6):
            assert m.entries[i][i] == height(points[i])
            assert m.entries[i][i] % 2 == 0
            for j in range(6):
                assert m.entries[i][j] == m.entries[j][i]

    def test_different_curves_rejected(self):
        a = toric_fixture()[0]
        profile, q, c = seeded_torus_sextic(2)
        b = find_toric_sextic(profile).points[0]
        with pytest.raises(ValueError):
            pairing(a, b)

    def test_single_point_gram(self):
        p = toric_fixture()[0]
        assert gram([p]).entries == [[2]]

    def test_indefinite_table_with_nonnegative_leading_minors(self, monkeypatch):
        # leading minors 2, 0, 0, but the principal minor on {1, 3} is -5
        table = [[2, 2, 3], [2, 2, 3], [3, 3, 2]]
        monkeypatch.setattr(torus, "pairing", lambda p, q: table[p][q])
        monkeypatch.setattr(torus, "height", lambda p: 2)
        with pytest.raises(torus.ConventionMismatch, match="semidefinite"):
            gram([0, 1, 2])


class TestFindToricSextic:
    def test_seeded_sextic_one_orbit(self):
        profile, q, c = seeded_torus_sextic(4)
        result = find_toric_sextic(profile)
        assert len(result.points) == 6
        assert result.complete and not result.field_exhausted
        assert result.missing == 0

    def test_points_are_negated_conic_scalings(self):
        profile, q, c = seeded_torus_sextic(5)
        result = find_toric_sextic(profile)
        # every X is a scalar multiple of the conic the cusps lie on
        for p in result.points:
            assert p.X.monic() == q.monic()
            assert p.n == 0 and p.k == 1

    def test_nine_cusp_exhausts_field(self):
        # the scalar equation lambda^3 = m has rational solutions for m
        # only (m = +/-4 per conic), and neither 4 nor -4 is a cube in
        # Q(w); every candidate therefore falls outside the field
        profile = CurveProfile(NINE_CUSP)
        result = find_toric_sextic(profile)
        assert result.points == []
        assert result.field_exhausted
        assert result.missing > 0
        assert result.complete

    def test_nodal_only_sextic_empty(self):
        # six lines, no three concurrent: 15 nodes and nothing else
        g = poly(
            "x*y*(x + y + z)*(x + 2*y + 4*z)*(x + 3*y + 9*z)*(x + 4*y + 16*z)"
        )
        profile = CurveProfile(g, components=6)
        assert len(profile.points) == 15
        assert all(p.kind == "node" for p in profile.points)
        result = find_toric_sextic(profile)
        assert result.points == [] and result.complete

    def test_fewer_than_six_cusps_samples_conics(self):
        # c is tangent to the conic q at (1 : 0 : 0), so g = q^3 + c^2 has
        # four cusps and an unclassified point there: the search samples
        # conics through the four cusps and reports itself incomplete
        q = poly("x*z - y^2")
        c = poly("x^2*z - 7*x*y^2 + x*y*z - x*z^2 - 2*y^3 + 8*y^2*z + y*z^2 - z^3")
        profile = CurveProfile(q * q * q + c * c)
        assert {str(p.point): p.kind for p in profile.points} == {
            "(1 : 1 : 1)": "cusp",
            "(1 : -1 : 1)": "cusp",
            "(1/4 : -1/2 : 1)": "cusp",
            "(1/9 : 1/3 : 1)": "cusp",
            "(1 : 0 : 0)": "unclassified",
        }
        result = find_toric_sextic(profile)
        assert not result.complete and not result.field_exhausted
        assert result.missing == 0
        assert len(result.points) == 6
        assert set(mu6_orbit(result.points[0])) == set(result.points)
        assert all(verify_decomposition(p)[0] for p in result.points)

    def test_requires_sextic(self):
        prof = CurveProfile(poly("x^3 + y^3 + z^3"))
        with pytest.raises(ValueError):
            find_toric_sextic(prof)

    @pytest.mark.parametrize("scale", [Fraction(2), Fraction(-1), Fraction(1, 7), Fraction(64)])
    def test_scaled_sextic_square_root_outside_field(self, scale):
        # s*g = s*q^3 + s*c^2 is toric over Q(w, sqrt s, cbrt s): its orbit
        # is counted missing unless s is a sixth power, never dropped
        profile, q, c = seeded_torus_sextic(0)
        result = find_toric_sextic(CurveProfile(profile.g.scale(scale), profile.points))
        if scale == 64:
            assert len(result.points) == 6 and not result.field_exhausted
            assert result.missing == 0
        else:
            assert result.points == [] and result.field_exhausted
            assert result.missing == 6
        assert result.complete

    def test_candidate_roots_outside_field_counted(self, monkeypatch):
        # the candidate (m - 1)(m^2 - 2) on torus sextic 0: m = 1 carries
        # its orbit, and the roots +-sqrt 2, outside Q(w), each count a
        # full orbit as missing, never dropped and never fabricated
        profile, q, c = seeded_torus_sextic(0)
        plain = find_toric_sextic(profile)
        cand = UPoly([Cyclo(-1), Cyclo(1)]) * UPoly([Cyclo(-2), Cyclo(0), Cyclo(1)])
        monkeypatch.setattr(torus, "_lambda_cubed_candidates", lambda *args: cand)
        result = find_toric_sextic(profile)
        assert result.points == plain.points and len(result.points) == 6
        assert result.field_exhausted and not plain.field_exhausted
        assert result.missing == plain.missing + 2 * 6
        assert result.complete == plain.complete

    def test_determinism(self):
        profile, q, c = seeded_torus_sextic(6)
        r1 = find_toric_sextic(profile)
        r2 = find_toric_sextic(profile)
        assert r1.points == r2.points


# _lambda_cubed_candidates per conic through six cusps, as rendered
# polynomials in m; None where no trial line is usable for the conic (every
# trial line meets xz and yz at infinity on z = 0)
NINE_CUSP_CANDIDATES = {
    "x*y": "m + 4",
    "x*z": None,
    "y*z": None,
    "x^2 + (-1 - w)*x*y + (-1 - w)*x*z + w*y^2 + w*y*z + w*z^2": "m - 4",
    "x^2 + (-1 - w)*x*y + w*x*z + w*y^2 + y*z + (-1 - w)*z^2": "m - 4",
    "x^2 + (-1 - w)*x*y + x*z + w*y^2 + (-1 - w)*y*z + z^2": "m - 4",
    "x^2 + w*x*y + (-1 - w)*x*z + (-1 - w)*y^2 + y*z + w*z^2": "m - 4",
    "x^2 + w*x*y + w*x*z + (-1 - w)*y^2 + (-1 - w)*y*z + (-1 - w)*z^2": "m - 4",
    "x^2 + w*x*y + x*z + (-1 - w)*y^2 + w*y*z + z^2": "m - 4",
    "x^2 + x*y + (-1 - w)*x*z + y^2 + (-1 - w)*y*z + w*z^2": "m - 4",
    "x^2 + x*y + w*x*z + y^2 + w*y*z + (-1 - w)*z^2": "m - 4",
    "x^2 + x*y + x*z + y^2 + y*z + z^2": "m - 4",
}
TORUS_0_CANDIDATES = {"x*z - y^2": "m - 1"}


def discriminant_candidates(g, q0, cusps):
    """The candidate polynomial in m as the discriminant resultant(u, du/dt)
    of u = g - m q0^3 on each trial line (the construction the
    critical-value resultant replaced), with the slopes beta of the lines
    it used; (None, []) when no line is usable."""
    q03 = q0 * q0 * q0
    tm = ("t", "m")
    m = MPoly.variable("m", tm)
    lines, betas = [], []
    for trial in range(200):
        if len(lines) == 3:
            break
        alpha, beta = torus._trial_line(trial)
        if q0.eval((Cyclo(1), Cyclo(beta), Cyclo(0))).is_zero():
            continue
        gl = torus._g_on_trial_line(g, cusps, trial, {})
        if gl is None:
            continue
        ql3 = restrict(q03, (0, alpha, 1), (1, beta, 0))
        if gl.degree() != 6 or ql3.degree() != 6:
            continue
        u = gl.to_mpoly("t", tm) - ql3.to_mpoly("t", tm) * m
        disc = resultant(u, u.derivative("t"), "t")
        if disc.is_zero():
            continue
        lines.append(disc)
        betas.append(beta)
    if not lines:
        return None, []
    g_m = lines[0]
    for line in lines[1:]:
        g_m = g_m.gcd(line)
    return (g_m if g_m.degree() <= 0 else g_m.squarefree_part()), betas


def lambda_cubed_candidates(profile):
    """{rendered conic: (conic, candidate UPoly or None)} over the conics
    through six of the profile's cusps."""
    cusps = [p.point for p in profile.points if p.kind == "cusp"]
    rows = [monomial_values(p.coords, monomials(2, (1, 1, 1))) for p in cusps]
    conics = {}
    for sub in combinations(rows, 6):
        q0 = torus._conic_through(sub, XYZ)
        if q0 is not None:
            conics[render(q0)] = q0
    g_lines = {}
    return {
        name: (q0, torus._lambda_cubed_candidates(profile.g, q0, cusps, g_lines))
        for name, q0 in conics.items()
    }


def rendered(cand):
    return None if cand is None else render(cand.to_mpoly("m", ("m",)))


def is_line_pair(q0):
    """A conic is a line pair when its symmetric matrix is singular."""
    def c(*e):
        return q0.terms.get(e, Cyclo(0))

    m = [
        [c(2, 0, 0) * 2, c(1, 1, 0), c(1, 0, 1)],
        [c(1, 1, 0), c(0, 2, 0) * 2, c(0, 1, 1)],
        [c(1, 0, 1), c(0, 1, 1), c(0, 0, 2) * 2],
    ]
    return rank(m) < 3


class TestLambdaCubedCandidates:
    def test_nine_cusp_pinned(self):
        got = lambda_cubed_candidates(CurveProfile(NINE_CUSP))
        assert {k: rendered(c) for k, (_q, c) in got.items()} == NINE_CUSP_CANDIDATES
        # g - m q^3 is a square for m = -4 on the line pair xy and for
        # m = 4 on the nine smooth conics
        pairs = smooth = 0
        for q0, cand in got.values():
            if cand is None:
                continue
            if is_line_pair(q0):
                assert cand.eval(-4).is_zero()
                pairs += 1
            else:
                assert cand.eval(4).is_zero()
                smooth += 1
        assert (pairs, smooth) == (1, 9)

    def test_torus_sextic_pinned(self):
        profile, q, c = seeded_torus_sextic(0)
        got = lambda_cubed_candidates(profile)
        assert {k: rendered(c) for k, (_q, c) in got.items()} == TORUS_0_CANDIDATES
        # g = q^3 + c^2 and q = s*q0, so g - s^3 q0^3 is the square c^2
        (q0, cand), = got.values()
        s = q.leading_coeff() / q0.leading_coeff()
        assert cand.eval(s * s * s).is_zero()

    @pytest.mark.parametrize("seed", [None, 0, 3])
    def test_discriminant_is_candidate_times_leading_root(self, seed):
        # the lines share one direction (1 : beta : 0), so the discriminant
        # keeps the root m* = g(1, beta, 0) / q0(1, beta, 0)^3 of lc(u),
        # which the critical-value resultant drops
        profile = CurveProfile(NINE_CUSP) if seed is None else seeded_torus_sextic(seed)[0]
        cusps = [p.point for p in profile.points if p.kind == "cusp"]
        for q0, cand in lambda_cubed_candidates(profile).values():
            old, betas = discriminant_candidates(profile.g, q0, cusps)
            if cand is None:
                assert old is None
                continue
            (beta,) = set(betas)
            at = (Cyclo(1), Cyclo(beta), Cyclo(0))
            m_star = profile.g.eval(at) / q0.eval(at) ** 3
            assert old == (cand * UPoly([-m_star, Cyclo(1)])).monic()

    def test_each_trial_line_takes_seven_samples(self, monkeypatch):
        # deg_t u = 6, deg_t V <= 6 and V is free of m: the column bound
        # takes deg_t V * 1 + 6 * 0 + 1 <= 7 samples of m, each one _zw_res
        # leaf (a discriminant took 5 * 1 + 6 * 1 + 1 = 12); each of the ten
        # usable conics stops after one line, whose gcd(R, R'') m - 4 or
        # m + 4 is linear
        leaves, per_call = [], []
        real_leaf, real_resultant = algebra._zw_res, torus.resultant

        def leaf(pv, qv):
            leaves.append(1)
            return real_leaf(pv, qv)

        def counted(p, q, var):
            before = len(leaves)
            out = real_resultant(p, q, var)
            per_call.append((len(leaves) - before, q.degree_in(var)))
            return out

        monkeypatch.setattr(algebra, "_zw_res", leaf)
        monkeypatch.setattr(torus, "resultant", counted)
        lambda_cubed_candidates(CurveProfile(NINE_CUSP))
        assert len(per_call) == 10
        assert all(n == d + 1 for n, d in per_call)
        assert max(n for n, _d in per_call) == 7


class TestCriticalValueGuard:
    """g = m0 q0^3 + s^2 with s = L h + c z^3 through six points of the
    conic q0 = xz - y^2, L = y + 3z + 2x the first trial line (alpha = -3,
    beta = -2).  On L, s is the nonzero constant c, so u = g - m q0^3 has
    no double root at m0 = lc(g|_L) / lc(q0|_L^3), and the critical-value
    resultant on L misses m0; the search must skip L."""

    @staticmethod
    def sextic(m0):
        q0, L = poly("x*z - y^2"), poly("y + 3*z + 2*x")
        points = [
            (Cyclo(1), Cyclo(t), Cyclo(t) * Cyclo(t))
            for t in (-3, -1, 1, 2, 4, Fraction(-46, 129))
        ]
        # h modulo q0: the conic monomials without y^2
        monos = [e for e in monomials(2, (1, 1, 1)) if e != (0, 2, 0)]
        rows = [
            [L.eval(p) * v for v in monomial_values(p, monos)] + [p[2] ** 3]
            for p in points
        ]
        (vec,) = kernel_basis(rows)
        h = MPoly(XYZ, dict(zip(monos, vec[:-1])))
        s = L * h + MPoly.monomial(XYZ, (0, 0, 3), vec[-1])
        return (q0 * q0 * q0).scale(m0) + s * s

    @pytest.mark.parametrize("m0", [1, 8])
    def test_cube_m0_keeps_its_orbit(self, m0):
        result = find_toric_sextic(CurveProfile(self.sextic(m0)))
        assert len(result.points) == 6 and result.missing == 0
        assert result.complete and not result.field_exhausted

    def test_non_cube_m0_counted_missing(self):
        result = find_toric_sextic(CurveProfile(self.sextic(2)))
        assert result.points == [] and result.missing == 6
        assert result.complete and result.field_exhausted


def usable_lines(g, q0, cusps):
    """(R, m*) on each trial line _lambda_cubed_candidates can use for q0,
    in its order: R = resultant(u, V, t) and m* = lc(g|_L) / lc(q0|_L^3)."""
    for trial in range(200):
        alpha, beta = torus._trial_line(trial)
        ql = restrict(q0, (0, alpha, 1), (1, beta, 0))
        if ql.degree() != 2:
            continue
        gl = torus._g_on_trial_line(g, cusps, trial, {})
        if gl is None:
            continue
        u, crit, flat, m_star = torus._cube_pencil(gl, ql)
        if flat or crit.is_zero():
            continue
        assert m_star == gl.coeffs[-1] / ql.coeffs[-1] ** 3
        res = resultant(u, crit, "t")
        if not res.is_zero():
            yield res, m_star


def multiplicity(res, m0):
    """The multiplicity of m0 as a root of res, from its Yun factors."""
    return next((i for i, a in res.squarefree_factors().items() if a.eval(m0).is_zero()), 0)


def searched_squares(monkeypatch, profile):
    """[(conic, m0)] for every root m0 in Q(w) of a conic's candidate
    polynomial with g - m0 q0^3 a square times a scalar, as the search
    takes them."""
    seen = []
    real = torus._lambda_cubed_candidates

    def record(g, q0, cusps, g_lines):
        cand = real(g, q0, cusps, g_lines)
        seen.append((q0, cand))
        return cand

    with monkeypatch.context() as m:
        m.setattr(torus, "_lambda_cubed_candidates", record)
        find_toric_sextic(profile)
    squares = []
    for q0, cand in seen:
        if cand is None or cand.degree() <= 0:
            continue
        for m0, _mult in qomega_roots(cand)[0]:
            r = profile.g - (q0 * q0 * q0).scale(m0)
            if not m0.is_zero() and poly_sqrt(r.monic()) is not NOT_A_SQUARE:
                squares.append((q0, m0))
    return squares


def candidates_without_m_star(g, q0, cusps, g_lines):
    """_lambda_cubed_candidates without the factor m - m*: gcd(R, R'') per
    line alone."""
    g_m = None
    for lines, (res, _m_star) in enumerate(usable_lines(g, q0, cusps), 1):
        cand = res.gcd(res.derivative().derivative())
        g_m = cand if g_m is None else g_m.gcd(cand)
        if cand.degree() <= 1 or lines == 3 or g_m.degree() <= 1:
            break
    return g_m


class TestTripleRoots:
    """Every square g - m0 q0^3 = s^2 with m0 != m* is a root of
    multiplicity at least 3 of R on every usable line, so gcd(R, R'')
    keeps it; a square at m* can be a double root, and the candidate
    takes m - m* for it."""

    @staticmethod
    def profiles():
        """Torus seeds 0-11, then the nine-cusp sextic under the identity
        and three of the nine-cusp workload's maps (sign flips, then the
        shear x -> x + c y)."""
        for seed in range(12):
            yield seeded_torus_sextic(seed)[0]
        x, y, z = (MPoly.variable(v, XYZ) for v in XYZ)
        for d1, d2, c in ((1, 1, 0), (-1, 1, 1), (1, -1, 1), (-1, -1, -1)):
            g = NINE_CUSP.compose([x.scale(d1) + y.scale(c * d2), y.scale(d2), z])
            yield CurveProfile(g)

    def test_squares_are_triple_roots(self, monkeypatch):
        checked = 0
        for profile in self.profiles():
            cusps = [p.point for p in profile.points if p.kind == "cusp"]
            squares = searched_squares(monkeypatch, profile)
            assert squares
            for q0, m0 in squares:
                for res, m_star in islice(usable_lines(profile.g, q0, cusps), 3):
                    if m0 != m_star:
                        assert multiplicity(res, m0) >= 3
                        checked += 1
        # 12 torus conics and 4 x 10 nine-cusp conics, three lines each,
        # none of them at its m*
        assert checked == 156

    @staticmethod
    def m_star_sextic():
        # g = q^3 + (z h)^2 with h through (1 : t : 1 - t^2) on q for
        # t = 2, 3, -2, 1/2: six rational cusps, four on h and (1 : +-1 : 0)
        # on z; z|_L = 1 on every trial line, so deg (z h)|_L = 2 and the
        # square g - q^3 sits at m* on each
        q = poly("y^2 - x^2 + x*z")
        h = poly("21*x*y - 14*x*z - 15*y^2 + 7*y*z + 2*z^2")
        for t in (2, 3, -2, Fraction(1, 2)):
            assert h.eval((Cyclo(1), Cyclo(t), Cyclo(1 - t * t))).is_zero()
        zh = MPoly.variable("z", XYZ) * h
        return CurveProfile(q * q * q + zh * zh), q

    def test_square_at_m_star(self, monkeypatch):
        profile, q = self.m_star_sextic()
        result = find_toric_sextic(profile)
        assert len(result.points) == 6 and result.missing == 0
        assert result.complete and not result.field_exhausted
        cusps = [p.point for p in profile.points if p.kind == "cusp"]
        q0 = q.monic()
        m0 = (q.leading_coeff() / q0.leading_coeff()) ** 3
        for res, m_star in islice(usable_lines(profile.g, q0, cusps), 2):
            assert m_star == m0 and multiplicity(res, m0) == 2
        monkeypatch.setattr(torus, "_lambda_cubed_candidates", candidates_without_m_star)
        assert find_toric_sextic(profile).points == []


class TestSixSubsetScreen:
    def test_nine_cusp_kernels(self, monkeypatch):
        # one left kernel for the screen and one per subset that carries
        # a conic (12), instead of one per six-subset (84)
        calls = []
        real = torus.kernel_basis

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(torus, "kernel_basis", counted)
        result = find_toric_sextic(CurveProfile(NINE_CUSP))
        assert result.missing == 60
        assert len(calls) <= 13

    @given(
        st.lists(SMALL_CYCLO, min_size=0, max_size=10),
        st.lists(st.tuples(SMALL_CYCLO, SMALL_CYCLO, SMALL_CYCLO), min_size=0, max_size=10),
        st.integers(7, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_conics_as_every_subset(self, ts, others, n):
        # points (1 : t : t^2) on xz - y^2 and arbitrary ones, with w in
        # their coordinates: the screened subsets give the same conics in
        # the same order as running _conic_through on every six-subset
        points = [(Cyclo(1), t, t * t) for t in ts]
        points += [p for p in others if any(not c.is_zero() for c in p)]
        assume(len(points) >= n)
        rows = [monomial_values(p, monomials(2, (1, 1, 1))) for p in points[:n]]
        every = {}
        for sub in combinations(rows, 6):
            q0 = torus._conic_through(sub, XYZ)
            if q0 is not None:
                every[render(q0)] = q0
        screened = {}
        for S in torus._six_subsets(rows):
            q0 = torus._conic_through([rows[i] for i in S], XYZ)
            if q0 is not None:
                screened[render(q0)] = q0
        assert list(screened.items()) == list(every.items())


class TestSeededSextic:
    def test_deterministic(self):
        p1, q1, c1 = seeded_torus_sextic(7)
        p2, q2, c2 = seeded_torus_sextic(7)
        assert p1.g == p2.g and q1 == q2 and c1 == c2

    def test_profile_has_six_cusps(self):
        profile, q, c = seeded_torus_sextic(8)
        assert profile.singularity_inventory()["cusp"] == 6
        assert profile.g == q * q * q + c * c

    def test_cubics_divisible_by_q_refused_unbuilt(self, monkeypatch):
        # seed 1's first attempt and seed 7's first two draw a cubic that q
        # divides (no z^3 term), so q^3 + c^2 is not squarefree; they are
        # refused before a profile is built
        built = []

        def record(g, **kw):
            built.append(g)
            return CurveProfile(g, **kw)

        monkeypatch.setattr(torus, "CurveProfile", record)
        for seed in (1, 7):
            seeded_torus_sextic(seed)
        assert len(built) == 2

    def test_pass_gcds_certified_without_prs(self, monkeypatch):
        # every gcd of one pass over seeds 0-11 (generation and toric
        # search) is read mod P and certified, among them singular_points'
        # gcds of two chart resultants (degree 23 or 25) and of x slices
        # (degree 5) where gcd(lc f, lc g) is far above lc of the gcd
        inside, prs_calls = [], []
        real_gcd, real_prs = algebra._zw_poly_gcd, algebra._zw_prs

        def gcd(f, g):
            inside.append(f)
            try:
                return real_gcd(f, g)
            finally:
                inside.pop()

        def prs(f, g):
            if inside:
                prs_calls.append((len(f) - 1, len(g) - 1))
            return real_prs(f, g)

        monkeypatch.setattr(algebra, "_zw_poly_gcd", gcd)
        monkeypatch.setattr(algebra, "_zw_prs", prs)
        for seed in range(12):
            find_toric_sextic(seeded_torus_sextic(seed)[0])
        assert prs_calls == []


def table1_by_loops(k, params):
    """The former Table-1 assembly of f and g: guarded coefficient dicts
    summed against a running power of y0."""
    v = torus.Y_VARS
    y0 = MPoly.variable("y0", v)

    def bf(name, degree):
        return torus._binary(v, params.get(name) or [], degree)

    u, f1p, f2p = bf("u", k + 1), bf("f1p", k), bf("f2p", k - 1)
    f3, f4, f5 = bf("f3", 2 * k - 1), bf("f4", 2 * k - 2), bf("f5", 2 * k - 3)
    f_coeffs = {0: u * u, 1: u * f1p, 2: (f1p * f1p).scale(Fraction(1, 4)) + u * f2p}
    for i, fi in ((3, f3), (4, f4), (5, f5)):
        if i <= 2 * k + 2:
            f_coeffs[i] = fi
    g_coeffs = {
        0: u * u * u,
        1: (u * u * f1p).scale(Fraction(3, 2)),
        2: (u * (f1p * f1p) + (u * u * f2p).scale(2)).scale(Fraction(3, 4)),
        3: (f1p * f1p * f1p + (u * f1p * f2p).scale(6) + (f3 * u).scale(12)).scale(Fraction(1, 8)),
        4: (u * (f2p * f2p) + (f4 * u).scale(4) + (f3 * f1p).scale(2)).scale(Fraction(3, 8)),
        5: (
            (f1p * (f2p * f2p)).scale(-1)
            + (f5 * u).scale(8)
            + (f4 * f1p).scale(4)
            + (f3 * f2p).scale(4)
        ).scale(Fraction(3, 16)),
    }
    for idx, coeffs in enumerate(params.get("f_higher") or []):
        if 6 + idx <= 2 * k + 2:
            f_coeffs[6 + idx] = torus._binary(v, coeffs, 2 * k + 2 - (6 + idx))
    for idx, coeffs in enumerate(params.get("g_higher") or []):
        if 6 + idx <= 3 * k + 3:
            g_coeffs[6 + idx] = torus._binary(v, coeffs, 3 * k + 3 - (6 + idx))
    out = []
    for coeffs, top in ((f_coeffs, 2 * k + 2), (g_coeffs, 3 * k + 3)):
        total = MPoly.zero(v)
        y0pow = MPoly.const(v, 1)
        for i in range(top + 1):
            if i in coeffs:
                total = total + coeffs[i] * y0pow
            y0pow = y0pow * y0
        out.append(total)
    return tuple(out)


class TestTable1Differential:
    """table1_construct builds f and g as two sums of coefficient times
    monomial, where it once summed guarded dicts against powers of y0."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_loops(self, k, seed):
        params = table1_params(k, seed)
        assert table1_construct(k, params)[:2] == table1_by_loops(k, params)
        # entries past the top degree are zero forms either way
        extra = dict(params)
        extra["f_higher"] = params["f_higher"] + [[1, -2, 3], [4], [5, 6]]
        extra["g_higher"] = params["g_higher"] + [[7, 8], [-9]]
        extra["f5"] = [1, 2, 3, 4, 5, 6]
        assert table1_construct(k, extra)[:2] == table1_by_loops(k, extra)


class TestTable1:
    def test_divisibility_and_degrees(self):
        for k in (1, 2):
            f, gp, F = table1_construct(k, None, seed=0)
            assert f.degree() == 2 * (k + 1)
            assert gp.degree() == 3 * (k + 1)
            assert F.degree() == 6 * k
            y06 = MPoly.monomial(f.vars, (6, 0, 0))
            assert (f * f * f - gp * gp - y06 * F).is_zero()

    def test_point_verifies_with_height(self):
        for k in (1, 2):
            point, curve = table1_point(k, 1)
            ok, detail = verify_decomposition(point)
            assert ok, detail
            assert point.n == 1
            assert height(point) == 2 * (k + 1)

    def test_k2_gram(self):
        point, curve = table1_point(2, 0)
        m = gram([point, omega_point(point)])
        assert m.entries == [[6, -3], [-3, 6]]

    def test_cusp_count_k1(self):
        # oracle: the generic count 6k^2 + 4k - 2 = 8, cross-checked for
        # seed 0 against direct singular-point elimination on the sextic
        # (8 singular points, all outside Q(w))
        for seed in range(3):
            f, gp, F = table1_construct(1, None, seed=seed)
            assert table1_cusp_count(f, gp) == 8

    def test_zero_u_rejected(self):
        params = table1_params(1, 0)
        params["u"] = [0, 0, 0]
        with pytest.raises(ValueError):
            table1_construct(1, params)

    def test_explicit_params_roundtrip(self):
        params = table1_params(2, 5)
        f1, g1, F1 = table1_construct(2, params)
        f2, g2, F2 = table1_construct(2, None, seed=5)
        assert f1 == f2 and g1 == g2 and F1 == F2

    def test_divisibility_failure_on_corrupted_relations(self):
        # breaking one forced coefficient must surface, not silently pass
        params = table1_params(1, 0)
        f, gp, F = table1_construct(1, params)
        y0 = MPoly.variable("y0", f.vars)
        bad_g = gp + y0 * y0 * MPoly.const(f.vars, 1)
        y06 = MPoly.monomial(f.vars, (6, 0, 0))
        diff = f * f * f - bad_g * bad_g
        with pytest.raises(Exception):
            diff.divide_exact(y06)
