"""Quasi-toric decompositions Y^2 = X^3 + Z^6 g as Mordell-Weil points.

Points are triples of coprime forms with deg X = 2(k+n), deg Y = 3(k+n),
deg Z = n for a curve g of degree 6k.  The order-6 symmetry
(X, Y, Z) -> (w X, -Y, Z) produces six decompositions per orbit; the
height is 2(k+n) and pairings come from a gcd formula, with the pairs
inside one orbit evaluated by the exact cosine table h * cos(a*pi/3)
(the gcd formula overcounts shared Z-factors on orbit pairs; see the
pairing docstring).

find_toric_sextic searches for the Z = constant decompositions of a
sextic: every candidate conic through six cusps, scalar conditions
lambda^3 = m with g - m q^3 a perfect square, all solved exactly over
Q(w) with out-of-field solutions counted, never fabricated.  On a trial
line the resultant R in t (algebra.resultant, a UPoly in m) vanishes
wherever g - m q^3 has a double root there, and every square is a root of
multiplicity at least 3 away from the line's m*, so gcd(R, R'') on one
line, at most three, bounds the candidates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .adjunction import (
    CurveProfile,
    CuspScheme,
    gcd_degree,
)
from .algebra import (
    C_ZERO,
    Cyclo,
    DomainError,
    MAX_PARSE_DEGREE,
    MPoly,
    NOT_A_SQUARE,
    OMEGA,
    NotDivisible,
    UPoly,
    _cube_pencil,
    cyclo_nth_roots,
    det_cyclo,
    monomial_values,
    monomials,
    poly_sqrt,
    qomega_roots,
    render,
    restrict,
    resultant,
)
from .linalg import kernel_basis, ldl


class DivisibilityFailure(DomainError):
    """The constructed f^3 - g^2 is not divisible by y0^6."""


class ConventionMismatch(DomainError):
    """The pairing convention failed one of its validating identities."""


@dataclass(frozen=True, slots=True)
class QuasiToricPoint:
    """A decomposition Y^2 = X^3 + Z^6 g, canonicalized so that the
    graded-lex leading coefficient of Z is 1 (scalar action
    (X, Y, Z) ~ (mu^2 X, mu^3 Y, mu Z)).  Points compare and hash by X, Y
    and Z: curve and k are context, not part of the point."""

    X: MPoly
    Y: MPoly
    Z: MPoly
    curve: MPoly = field(compare=False)
    k: int = field(compare=False)

    def __post_init__(self):
        if self.Z.is_zero():
            raise DomainError("Z must be nonzero")
        mu = self.Z.leading_coeff().inverse()
        object.__setattr__(self, "X", self.X.scale(mu * mu))
        object.__setattr__(self, "Y", self.Y.scale(mu * mu * mu))
        object.__setattr__(self, "Z", self.Z.scale(mu))

    @property
    def n(self) -> int:
        return max(self.Z.degree(), 0)


def _coprime(p: MPoly, q: MPoly) -> bool:
    """Whether p and q are nonzero forms with no common factor over Q(w)."""
    return not p.is_zero() and not q.is_zero() and gcd_degree(p, q) == 0


def verify_decomposition(point: QuasiToricPoint):
    """(ok, detail): exact identity, degrees, and pairwise coprimality."""
    X, Y, Z, g, k = point.X, point.Y, point.Z, point.curve, point.k
    n = point.n
    if g.degree() != 6 * k:
        return False, f"curve degree {g.degree()} is not {6 * k}"
    if X.degree() != 2 * (k + n):
        return False, f"deg X = {X.degree()}, expected {2 * (k + n)}"
    if Y.degree() != 3 * (k + n):
        return False, f"deg Y = {Y.degree()}, expected {3 * (k + n)}"
    if not (Y * Y - X * X * X - Z**6 * g).is_zero():
        return False, "identity Y^2 = X^3 + Z^6 g fails"
    for a, b, label in ((X, Y, "X,Y"), (X, Z, "X,Z"), (Y, Z, "Y,Z")):
        if not _coprime(a, b):
            return False, f"{label} are not coprime"
    return True, None


def _twist(point: QuasiToricPoint, a: int, sign: int) -> QuasiToricPoint:
    return QuasiToricPoint(
        point.X.scale(OMEGA ** (a % 3)),
        point.Y if sign > 0 else point.Y.scale(-1),
        point.Z,
        point.curve,
        point.k,
    )


def omega_point(point: QuasiToricPoint) -> QuasiToricPoint:
    """The orbit member denoted wP: (wX, Y, Z)."""
    return _twist(point, 1, 1)


def _point_order(p: QuasiToricPoint):
    """The sort key of reported points: X, Y and Z as rendered strings."""
    return render(p.X), render(p.Y), render(p.Z)


def mu6_orbit(point: QuasiToricPoint):
    """The six decompositions (w^a X, +/- Y, Z), deterministically ordered."""
    orbit = {_twist(point, a, s) for a in range(3) for s in (1, -1)}
    members = sorted(orbit, key=_point_order)
    if len(members) != 6:
        raise DomainError("degenerate orbit: fewer than six distinct members")
    return members


def height(point: QuasiToricPoint) -> int:
    """2(k + deg Z)."""
    return 2 * (point.k + point.n)


# pairing values on orbit pairs: <P, T^a P> = h cos(a pi/3) where
# T = (wX, -Y, Z); indexed by (omega power, sign of Y)
_ORBIT_COS = {
    (0, 1): Fraction(1),
    (1, -1): Fraction(1, 2),
    (2, 1): Fraction(-1, 2),
    (0, -1): Fraction(-1),
    (1, 1): Fraction(-1, 2),
    (2, -1): Fraction(1, 2),
}


def _orbit_relation(p: QuasiToricPoint, q: QuasiToricPoint):
    for (a, s), c in _ORBIT_COS.items():
        if _twist(p, a, s) == q:
            return c
    return None


def pairing(p: QuasiToricPoint, q: QuasiToricPoint) -> int:
    """Height pairing of two decompositions of the same curve.

    Orbit-related pairs use the exact values h*cos(a*pi/3): the general
    gcd formula counts common zeros of the sections, and for orbit pairs
    every zero of the shared Z is counted although the sections do not
    meet there.  All other pairs use
    k + n1 + n2 - deg gcd(Zq^3 Yp - Zp^3 Yq, Zq^2 Xp - Zp^2 Xq),
    validated for symmetry.
    """
    if p.curve != q.curve or p.k != q.k:
        raise DomainError("points must lie over the same curve")
    rel = _orbit_relation(p, q)
    if rel is not None:
        value = height(p) * rel
        if value.denominator != 1:
            raise ConventionMismatch("orbit pairing is not an integer")
        return int(value)
    value = _pairing_gcd(p, q)
    if value != _pairing_gcd(q, p):
        raise ConventionMismatch(
            f"pairing is asymmetric: {value} vs {_pairing_gcd(q, p)}"
        )
    return value


def _pairing_gcd(p, q):
    zq3 = q.Z * q.Z * q.Z
    zp3 = p.Z * p.Z * p.Z
    a = zq3 * p.Y - zp3 * q.Y
    b = (q.Z * q.Z) * p.X - (p.Z * p.Z) * q.X
    if a.is_zero() or b.is_zero():
        raise ConventionMismatch("degenerate gcd arguments off-orbit")
    return p.k + p.n + q.n - gcd_degree(a, b)


@dataclass(frozen=True, slots=True)
class GramMatrix:
    """Pairwise height pairings of a list of points."""

    basis: list
    entries: list

    @property
    def size(self):
        return len(self.basis)


def gram(points) -> GramMatrix:
    """Gram matrix of pairings; validates the even diagonal equal to the
    heights, and positive semidefiniteness: every entry of the LDL^T
    diagonal (linalg.ldl) is >= 0, by Sylvester's law of inertia."""
    m = len(points)
    entries = [[0] * m for _ in range(m)]
    for i in range(m):
        entries[i][i] = pairing(points[i], points[i])
        if entries[i][i] != height(points[i]) or entries[i][i] % 2:
            raise ConventionMismatch("diagonal must be the even height")
        for j in range(i + 1, m):
            entries[i][j] = entries[j][i] = pairing(points[i], points[j])
    if any(x < 0 for x in ldl(entries)[0]):
        raise ConventionMismatch("Gram matrix is not positive semidefinite")
    return GramMatrix(points, entries)


# ---------------------------------------------------------------------------
# Toric search on sextics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ToricSearchResult:
    """Outcome of find_toric_sextic.

    points: all decompositions found (closed under the orbit action);
    field_exhausted: solutions exist outside Q(w); missing: upper bound
    on the number of points lost that way; complete: the conic
    enumeration covered every candidate (always within Q(w)).
    """

    points: list
    field_exhausted: bool
    missing: int
    complete: bool


def _conic_through(rows, variables):
    """The conic through the points with the given conic rows when they
    impose independent conditions up to a one-dimensional kernel; None
    otherwise."""
    monos = monomials(2, (1, 1, 1))
    ker = kernel_basis(rows)
    if len(ker) != 1:
        return None
    return MPoly(variables, dict(zip(monos, ker[0]))).monic()


def _trial_line(trial):
    """(alpha, beta) of the trial line (t, alpha + beta t, 1) number trial,
    as ints: the line P + t Q with P = (0, alpha, 1) and Q = (1, beta, 0).
    A form restricted to it has the top coefficient f(Q), so it drops
    degree exactly when the direction (1 : beta : 0) lies on the form."""
    return trial % 7 - 3, trial // 7 - 2


def _g_on_trial_line(g: MPoly, cusps, trial, g_lines):
    """g restricted to trial line number trial, or None when the line's
    direction (1 : beta : 0) lies on g or the line passes through a cusp.

    None of this depends on the conic, so a search computes it once per
    trial line and keeps it in g_lines (trial -> UPoly or None).
    """
    if trial not in g_lines:
        alpha, beta = _trial_line(trial)
        gl = None
        if not any(
            (
                not c.coords[2].is_zero()
                and (c.coords[1] - Cyclo(alpha) - Cyclo(beta) * c.coords[0]).is_zero()
            )
            for c in cusps
        ):
            gl = restrict(g, (0, alpha, 1), (1, beta, 0))
            if gl.degree() < g.degree():
                gl = None
        g_lines[trial] = gl
    return g_lines[trial]


def _lambda_cubed_candidates(g: MPoly, q0: MPoly, cusps, g_lines):
    """Univariate polynomial in m = lambda^3 whose roots contain every m
    with g - m q0^3 a perfect square, or None when no trial line is usable.

    On a trial line let A = g|_L, l = q0|_L and u = A - m l^3.  The
    critical-value polynomial V = A' l - 3 A l' has degree at most 6 (the
    t^7 terms cancel), is free of m, and equals u' l - 3 u l' for every m,
    so it vanishes at each double root of u.  So R = resultant(u, V, t), of
    degree at most 6 in m, vanishes wherever u has a double root: it is
    the discriminant of u without the factor lc(u), whose root
    m* = lc(A) / lc(l^3) only marks that deg u drops.

    A square g - m0 q0^3 = s^2 with m0 != m* is a root of R of multiplicity
    at least 3.  Then deg s|_L = 3 and u = s|_L^2 - (m - m0) l^3, whose six
    roots pair off at the roots of s|_L, each pair at a distance of order
    sqrt(m - m0); there V = u' l vanishes to order 1/2 or more in m - m0
    at each root (l does not vanish there, or u would have a double root
    for every m and R = 0), so each pair adds at least 1.  So every such
    m0 is a root of T = gcd(R, R''), R itself when R'' = 0.  A square at
    m* is a root of R, but may be a double one only (g = q0^3 + (z h)^2
    puts it there on every line), so T takes the factor m - m* when
    R(m*) = 0.  The one square at m* that R can miss is on a line that
    meets s only at infinity, where u is a nonzero constant; such a line
    is skipped.

    The search stops at the first line whose T has degree at most 1: every
    root left is then m* or a linear factor's root, in Q(w), and where
    g - m q0^3 is no square the caller's poly_sqrt rejects it.  Otherwise
    it keeps the gcd of the lines' candidates, which removes line-specific
    roots, and stops when that has degree at most 1 or after three lines.
    Every trial line's direction (1 : beta : 0) lies on z = 0, so a conic
    divisible by z has no usable line.  g_lines is the search's cache of
    _g_on_trial_line.
    """
    if all(e[2] for e in q0.pairs):
        return None
    g_m, lines = None, 0
    for trial in range(200):
        # direction (1 : beta : 0) off the conic, then off the curve, and
        # no cusp on the line; the conic decides first, so a line it
        # rejects never restricts g
        alpha, beta = _trial_line(trial)
        ql = restrict(q0, (0, alpha, 1), (1, beta, 0))
        if ql.degree() != 2:
            continue
        gl = _g_on_trial_line(g, cusps, trial, g_lines)
        if gl is None:
            continue
        u, crit, flat, m_star = _cube_pencil(gl, ql)
        if flat or crit.is_zero():
            continue
        res = resultant(u, crit, "t")
        if res.is_zero():
            continue
        cand = res.gcd(res.derivative().derivative())
        last = cand.degree() <= 1
        if res.eval(m_star).is_zero() and not cand.eval(m_star).is_zero():
            cand = cand * UPoly([-m_star, 1])
        g_m = cand if g_m is None else g_m.gcd(cand)
        lines += 1
        if last or lines == 3 or g_m.degree() <= 1:
            return g_m
    return g_m


def _six_subsets(rows):
    """The 6-subsets of the conic rows, as index tuples in combinations
    order, whose 6x6 minor vanishes: only these can carry a conic.

    When the n x 6 matrix of rows has rank 6 and n > 6, one basis K of its
    left kernel, (n - 6) x n, decides each subset S: det(rows on S)
    vanishes exactly when det(K on the columns outside S) does (Gale
    duality).  Below rank 6 every minor vanishes."""
    n = len(rows)
    subsets = list(combinations(range(n), 6))
    if n == 6:
        return subsets
    K = kernel_basis([list(col) for col in zip(*rows)])
    if len(K) != n - 6:
        return subsets
    return [
        S
        for S in subsets
        if det_cyclo([[k[j] for j in range(n) if j not in S] for k in K]).is_zero()
    ]


def find_toric_sextic(profile: CurveProfile) -> ToricSearchResult:
    """All Z = constant decompositions of a sextic over Q(w).

    Candidate conics pass through six cusps (every 6-subset whose conic
    conditions are dependent, _six_subsets, when at least six cusps
    exist; a sampled family through all cusps
    otherwise); for each conic the scalars lambda with g - lambda^3 q^3
    a perfect square are found from an exact univariate polynomial in
    m = lambda^3 and verified by extracting the square root.
    """
    if profile.d != 6:
        raise DomainError("toric search requires a sextic")
    if profile.points is None:
        raise DomainError("toric search requires an explicit cusp list")
    g = profile.g
    variables = g.vars
    cusps = [p.point for p in profile.points if p.kind == "cusp"]
    conics = {}  # an ordered set: MPoly hashes by value
    complete = True
    rows = [monomial_values(p.coords, monomials(2, (1, 1, 1))) for p in cusps]
    if len(cusps) >= 6:
        for S in _six_subsets(rows):
            q0 = _conic_through([rows[i] for i in S], variables)
            if q0 is not None:
                conics[q0] = None
    elif cusps:
        complete = False
        monos = monomials(2, (1, 1, 1))
        ker = kernel_basis(rows)
        combos = []
        if len(ker) == 1:
            combos = [ker[0]]
        else:
            for i in range(len(ker)):
                combos.append(ker[i])
                for j in range(i + 1, len(ker)):
                    for c in (1, -1, 2):
                        combos.append(
                            [x + Cyclo(c) * y for x, y in zip(ker[i], ker[j])]
                        )
        for vec in combos[:60]:
            q0 = MPoly(variables, dict(zip(monos, vec)))
            if q0.degree() == 2:
                conics[q0.monic()] = None
    else:
        return ToricSearchResult([], False, 0, True)

    found = set()
    field_exhausted = False
    missing = 0
    g_lines = {}
    for q0 in conics:
        cand = _lambda_cubed_candidates(g, q0, cusps, g_lines)
        if cand is None or cand.degree() <= 0:
            continue
        roots, miss = qomega_roots(cand)
        if miss:
            # roots of the m-polynomial outside Q(w): each could carry a
            # full orbit; counted as an upper bound, never fabricated
            field_exhausted = True
            missing += 6 * miss
        q03 = q0 * q0 * q0
        for m0, _mult in roots:
            if m0.is_zero():
                continue
            # r = l * s^2, s monic: sqrt(l) and cbrt(m0) in Q(w), or 6 missing
            r = g - q03.scale(m0)
            s = poly_sqrt(r.monic())
            if s is NOT_A_SQUARE:
                continue
            ls = cyclo_nth_roots(r.leading_coeff(), 2)
            lams = cyclo_nth_roots(m0, 3) if ls else None
            if not lams:
                field_exhausted = True
                missing += 6
                continue
            one = MPoly.const(variables, 1)
            base = QuasiToricPoint(q0.scale(-lams[0]), s.scale(ls[0]), one, g, 1)
            ok, detail = verify_decomposition(base)
            if not ok:
                raise ConventionMismatch(f"search produced invalid point: {detail}")
            found.update(mu6_orbit(base))
    points = sorted(found, key=_point_order)
    if complete and not field_exhausted and len(points) not in (0, 6, 24, 72):
        raise ConventionMismatch(
            f"complete sextic search found {len(points)} points; "
            "expected 0, 6, 24, or 72"
        )
    return ToricSearchResult(points, field_exhausted, missing, complete)


# ---------------------------------------------------------------------------
# Table 1 construction (degree 12 and beyond)
# ---------------------------------------------------------------------------

Y_VARS = ("y0", "y1", "y2")


def _binary(variables, coeffs, degree):
    """Binary form in (y1, y2) of the given degree from a coefficient list."""
    entries = zip(monomials(degree, (1, 1)), coeffs)
    return MPoly(variables, {(0, i, j): c for (i, j), c in entries})


def table1_params(k: int, seed: int):
    """Seeded parameter document for table1_construct.

    Binary forms with small integer coefficients; u is kept of exact
    degree k+1 so the leading coefficient bookkeeping stays generic.
    """
    rng = random.Random(f"table1:{k}:{seed}")

    def form(degree, monic_lead=False):
        if degree < 0:
            return []
        coeffs = [rng.randint(-3, 3) for _ in range(degree + 1)]
        if monic_lead and coeffs[0] == 0:
            coeffs[0] = 1
        return coeffs

    params = {
        "u": form(k + 1, monic_lead=True),
        "f1p": form(k, monic_lead=True),
        "f2p": form(k - 1, monic_lead=True),
        "f3": form(2 * k - 1),
        "f4": form(2 * k - 2),
        "f5": form(2 * k - 3),
        "f_higher": [form(2 * k + 2 - i) for i in range(6, 2 * k + 3)],
        "g_higher": [form(3 * k + 3 - j) for j in range(6, 3 * k + 4)],
    }
    return params


def table1_construct(k: int, params, seed=None):
    """(f, g, F) with f^3 - g^2 = y0^6 F, built from the closed-form
    solution of the first six y0-coefficients.

    f = sum f_i y0^i has degree 2(k+1), g = sum g_j y0^j degree 3(k+1);
    f_0..f_2 and g_0..g_5 are forced by the free binary forms
    u, f1', f2', f_3, f_4, f_5; the remaining coefficients are free.
    Raises DivisibilityFailure if y0^6 does not divide f^3 - g^2
    (impossible for valid parameter degrees), and DomainError unless the
    curve degree 6k is at most MAX_PARSE_DEGREE, a parsed input's limit.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    if 6 * k > MAX_PARSE_DEGREE:
        raise DomainError(
            f"curve degree {6 * k} exceeds the input degree limit {MAX_PARSE_DEGREE}"
        )
    if seed is not None:
        params = table1_params(k, seed)
    v = Y_VARS

    def bf(name, degree):
        coeffs = params.get(name) or []
        return _binary(v, coeffs, degree)

    u = bf("u", k + 1)
    if u.is_zero():
        raise DomainError("u must be nonzero")
    f1p = bf("f1p", k)
    f2p = bf("f2p", k - 1)
    f3 = bf("f3", 2 * k - 1)
    f4 = bf("f4", 2 * k - 2)
    f5 = bf("f5", 2 * k - 3)

    # the y0-coefficients of f and g; _binary of a negative degree is zero
    f_coeffs = [
        u * u,
        u * f1p,
        (f1p * f1p).scale(Fraction(1, 4)) + u * f2p,
        f3,
        f4,
        f5,
        *(_binary(v, c, 2 * k + 2 - i) for i, c in enumerate(params.get("f_higher") or [], 6)),
    ]
    g_coeffs = [
        u * u * u,
        (u * u * f1p).scale(Fraction(3, 2)),
        (u * (f1p * f1p) + (u * u * f2p).scale(2)).scale(Fraction(3, 4)),
        (
            f1p * f1p * f1p
            + (u * f1p * f2p).scale(6)
            + (f3 * u).scale(12)
        ).scale(Fraction(1, 8)),
        (
            u * (f2p * f2p) + (f4 * u).scale(4) + (f3 * f1p).scale(2)
        ).scale(Fraction(3, 8)),
        (
            (f1p * (f2p * f2p)).scale(-1)
            + (f5 * u).scale(8)
            + (f4 * f1p).scale(4)
            + (f3 * f2p).scale(4)
        ).scale(Fraction(3, 16)),
        *(_binary(v, c, 3 * k + 3 - j) for j, c in enumerate(params.get("g_higher") or [], 6)),
    ]
    f, gp = (
        sum((c * MPoly.monomial(v, (i, 0, 0)) for i, c in enumerate(cs)), MPoly.zero(v))
        for cs in (f_coeffs, g_coeffs)
    )

    diff = f * f * f - gp * gp
    y06 = MPoly.monomial(v, (6, 0, 0))
    try:
        F = diff.divide_exact(y06)
    except NotDivisible as err:
        raise DivisibilityFailure(str(err)) from err
    return f, gp, F


def table1_cusp_count(f: MPoly, gp: MPoly) -> int:
    """Cusp count of the degree-6k curve built from (f, g).

    The cusps are the common zeros of f and g: those off the line y0 = 0
    are counted by scheme elimination, and the construction places one
    more cusp at each distinct zero of both restrictions to y0 = 0
    (the roots of the shared binary form u)."""
    return CuspScheme(f, gp, "y0", include_line=True).count()


def table1_point(k: int, seed: int):
    """(point, curve) for a seeded Table-1 instance (see table1_section)."""
    f, gp, F = table1_construct(k, None, seed=seed)
    return table1_section(k, f, gp, F)


def table1_section(k: int, f: MPoly, gp: MPoly, F: MPoly):
    """(point, curve) from table1_construct's (f, g, F): the section
    (X, Y, Z) = (f, g, y0) of the degree-6k curve -F, with n = 1."""
    curve = F.scale(-1)
    point = QuasiToricPoint(f, gp, MPoly.variable("y0", Y_VARS), curve, k)
    return point, curve


# ---------------------------------------------------------------------------
# Seeded torus sextics (six cusps in general position on a conic)
# ---------------------------------------------------------------------------


def seeded_torus_sextic(seed: int):
    """(profile, q, c) with profile.g = q^3 + c^2: a sextic with six
    rational cusps on the conic q, in general position for generic seeds.

    Deterministic in the seed; retries derived sub-seeds until the
    resulting curve has exactly six cusps and nothing else.  The returned
    profile carries the classified cusps.
    """
    for attempt in range(64):
        rng = random.Random(f"torus-sextic:{seed}:{attempt}")
        ts = sorted(rng.sample(range(-6, 7), 6))
        pts = [(Fraction(1), Fraction(t), Fraction(t * t)) for t in ts]
        v = ("x", "y", "z")
        q = MPoly.monomial(v, (1, 0, 1)) - MPoly.monomial(v, (0, 2, 0))
        # cubic through the six points: seeded kernel combination
        monos = monomials(3, (1, 1, 1))
        rows = [monomial_values(p, monos) for p in pts]
        ker = kernel_basis(rows)
        if len(ker) != 4:
            continue
        vec = [C_ZERO] * len(monos)
        for b in ker:
            w = Cyclo(rng.randint(-3, 3))
            vec = [x + w * y for x, y in zip(vec, b)]
        c = MPoly(v, dict(zip(monos, vec)))
        # c vanishes at (0 : 0 : 1), a seventh point of q, exactly when q
        # divides c (Bezout), and then g = q^2 (q + (c/q)^2) is not squarefree
        if (0, 0, 3) not in c.pairs:
            continue
        try:
            profile = CurveProfile(q * q * q + c * c)
        except DomainError:  # IncompleteLocus, or g not squarefree
            continue
        if len(profile.points) == 6 and all(p.kind == "cusp" for p in profile.points):
            return profile, q, c
    raise RuntimeError("no generic torus sextic found for this seed")
