"""Curve profiles: singular points, quasiadjunction defects, Alexander data.

A curve profile wraps a squarefree homogeneous ternary form together with
its classified singular points.  Defects are superabundances

    delta_alpha = l_alpha - h_alpha(alpha*d - 3)

where l counts quasiadjunction conditions and h is the number of
independent conditions they impose on forms of degree alpha*d - 3.  The
Alexander polynomial is carried as its vanishing-order table at the roots
of unity zeta(alpha), with ord at alpha in (0,1) equal to
delta_alpha + delta_(1-alpha) and ord at 0 equal to (components - 1).

Nodes and cusps are told apart by the tangent cone: the discriminant of
the quadratic part, then the cubic part on the double line.

Singular loci whose points are not rational over Q(w) can be described
scheme-theoretically (a cusp scheme cut out by two forms, saturated away
from a line); lengths and Hilbert data then come from exact linear
algebra instead of point coordinates, the line conditions from the powers
of x modulo the line divisor by its companion shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd as int_gcd

from .algebra import (
    C_ONE,
    C_ZERO,
    AlgebraError,
    Cyclo,
    DomainError,
    MPoly,
    ProjPoint,
    UPoly,
    _root_order_key,
    monomial_values,
    monomials,
    qomega_roots,
    render,
    restrict,
    resultant,
)
from .linalg import rank as matrix_rank


class IncompleteLocus(DomainError):
    """Singular-point elimination certifies points outside Q(w).

    Carries the points that were found and the unexplained degree."""

    def __init__(self, unexplained, found):
        super().__init__(
            f"singular locus has {unexplained} unexplained root(s) outside Q(w)"
        )
        self.unexplained = unexplained
        self.found = found


class UnclassifiedPoint(DomainError):
    """A singular point needs a user-supplied classification."""


@dataclass(frozen=True, slots=True)
class Functional:
    """A linear functional on forms: a derivative order evaluated at a point."""

    point: ProjPoint
    order: tuple = (0, 0, 0)

    def row(self, monomials):
        """Evaluation row of this functional against a monomial list."""
        return monomial_values(self.point.coords, monomials, self.order)


@dataclass(frozen=True, slots=True)
class ClassifiedPoint:
    """A singular point with its quasiadjunction data.

    kind is "node", "cusp", or "custom"; custom points carry an explicit
    map from Fraction alpha to a list of Functional and may declare
    themselves of ADE type (nodes and cusps always are).
    """

    point: ProjPoint
    kind: str
    custom: dict | None = None
    ade: bool | None = None

    def __post_init__(self):
        if self.kind not in ("node", "cusp", "custom", "unclassified"):
            raise DomainError(f"unknown singularity kind {self.kind!r}")
        if self.ade is None:
            object.__setattr__(self, "ade", self.kind in ("node", "cusp"))

    def conditions_at(self, alpha: Fraction):
        if self.kind == "unclassified":
            raise UnclassifiedPoint(repr(self.point))
        if self.kind == "node":
            return []
        if self.kind == "cusp":
            if alpha == Fraction(5, 6):
                return [Functional(self.point)]
            return []
        return list((self.custom or {}).get(alpha, []))


def conditions_at(alpha, points):
    """All quasiadjunction functionals the points impose at alpha."""
    alpha = Fraction(alpha)
    out = []
    for p in points:
        out.extend(p.conditions_at(alpha))
    return out


# ---------------------------------------------------------------------------
# Singular point detection over Q(w)
# ---------------------------------------------------------------------------


def _upoly_gcd_many(polys):
    g = None
    for p in polys:
        if p.is_zero():
            continue
        g = p if g is None else g.gcd(p)
    return g


def _chart_resultants(aff, vx):
    """The nonzero resultants in vx of the pairs of chart partials, in
    pair order, each taken when it is asked for."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        p, q = aff[i], aff[j]
        if (p.degree_in(vx) > 0 or q.degree_in(vx) > 0) and not (p.is_zero() or q.is_zero()):
            r = resultant(p, q, vx)
            if not r.is_zero():
                yield r


def _with_next(cand, roots, eliminants):
    """(cand, roots) after the gcd with the next eliminant, or None when
    none is left.  roots, the (roots, missing) of qomega_roots, is searched
    again only when the degree drops, or when it is None."""
    r = next(eliminants, None)
    if r is None:
        return None
    r = cand.gcd(r)
    if roots is None or r.degree() < cand.degree():
        roots = qomega_roots(r) if r.degree() > 0 else ([], 0)
    return r, roots


# Tjurina numbers of the classified kinds; any singular point has at least 1
_TJURINA = {"node": 1, "cusp": 2}


def _chart_lines(g, aff, partials, yroots):
    """({y0: (classified points on the line y = y0 of the chart z = 1, a
    lower bound of y0's multiplicity in each chart resultant)}, the count
    of x roots outside Q(w)) over the y roots that carry a point; the
    points are None where the gradient vanishes on the whole line.

    The bound: a resultant's order at y0 is at least the sum of the
    intersection numbers of its two partials at the points of the line,
    each at least the point's Tjurina number (with z = 1, the partials
    generate the Tjurina ideal, by Euler's relation).  Where two partials
    vanish on the whole line the bound is 1."""
    vx, vy = g.vars[:2]
    lines, missing = {}, 0
    for y0, _m in yroots:
        slices = [p.subs({vy: y0}) for p in aff]
        upolys = [UPoly.from_mpoly(s, vx) for s in slices if not s.is_zero()]
        if not upolys:
            lines[y0] = None, 1
            continue
        ux = _upoly_gcd_many(upolys)
        if ux.degree() <= 0:
            continue
        xroots, miss = qomega_roots(ux)
        missing += miss
        line = [
            classify_point(g, ProjPoint((x0, y0, C_ONE)))
            for x0, _mx in xroots
            if all(p.eval((x0, y0, C_ONE)).is_zero() for p in partials)
        ]
        if line:
            bound = sum(_TJURINA.get(cp.kind, 1) for cp in line) if len(upolys) > 1 else 1
            lines[y0] = line, bound
    return lines, missing


def _order_settled(yroots, lines):
    """Whether the y roots that carry points keep their qomega_roots order
    for every multiplicity the full gcd of the chart resultants can give
    them: at most their multiplicity in yroots' polynomial, which the full
    gcd divides, and at least lines' bound (0 for the other roots).  Each
    pair must be ordered by its keys at those extremes; a conjugate pair
    shares its multiplicity and is ordered by sign."""
    hi = dict(yroots)
    lo = dict.fromkeys(hi, 0) | {y0: bound for y0, (_line, bound) in lines.items()}
    keys = [(y0, _root_order_key(y0, lo), _root_order_key(y0, hi)) for y0 in lines]
    return all(
        s == r.conjugate() or r_hi < s_lo or s_hi < r_lo
        for (r, r_lo, r_hi), (s, s_lo, s_hi) in combinations(keys, 2)
    )


def singular_points(g: MPoly):
    """All singular points of V(g) with coordinates in Q(w), classified.

    Elimination: pairwise resultants of the partial derivatives in the
    affine chart z=1 give a univariate candidate polynomial, their gcd;
    roots are extracted inside Q(w) and verified against the full
    gradient, then the line z=0 is handled chart by chart.  Raises
    IncompleteLocus when an unexplained elimination factor (or an x-level
    gcd factor) has roots outside Q(w), and with unexplained = -1 when the
    elimination cannot isolate the points (every chart resultant vanishes,
    or the gradient vanishes on a whole line).

    The third chart resultant is taken only when it can change the
    answer.  The gcd of the first two has every root of the full gcd, so
    once its roots all lie in Q(w) the extra ones are sliced like the
    rest, and no common zero of the partials lies over them.  The third
    is still taken when the gcd of two has roots outside Q(w), and when
    the points' order, which follows qomega_roots' multiplicity-keyed
    order of the y roots, could differ under the full gcd
    (_order_settled).  The first resultant is never searched alone: it
    also vanishes at every critical point of the projection.
    """
    if len(g.vars) != 3:
        raise DomainError("expected a ternary form")
    vx, vy, vz = g.vars
    partials = [g.derivative(v) for v in g.vars]

    # affine chart z = 1
    aff = [p.subs({vz: 1}) for p in partials]
    eliminants = _chart_resultants(aff, vx)
    cand = next(eliminants, None)
    if cand is None and any(p.degree_in(vx) > 0 for p in aff):
        # every chart resultant vanishes: the partials share factors, as
        # on a curve with a multiple component, whose singular locus is
        # infinite; elimination cannot isolate the points
        raise IncompleteLocus(-1, [])
    if cand is None:
        # no x-dependence anywhere: the chart equations live in y alone,
        # so any common y root would give an infinite singular locus
        nz = [UPoly.from_mpoly(p, vy) for p in aff if not p.is_zero()]
        g1 = _upoly_gcd_many(nz)
        if g1 is not None and g1.degree() > 0:
            raise IncompleteLocus(-1, [])
        cand = UPoly([C_ONE])
    cand, roots = _with_next(cand, None, eliminants) or (cand, None)
    if roots is None:
        roots = qomega_roots(cand) if cand.degree() > 0 else ([], 0)
    if roots[1]:
        cand, roots = _with_next(cand, roots, eliminants) or (cand, roots)
    lines, unexplained = _chart_lines(g, aff, partials, roots[0])
    if not _order_settled(roots[0], lines):
        cand, roots = _with_next(cand, roots, eliminants) or (cand, roots)
    unexplained += roots[1]
    affine = []
    for y0, _m in roots[0]:
        line, _bound = lines.get(y0, ((), 0))
        if line is None:
            # gradient vanishes identically on a whole line
            raise IncompleteLocus(-1, [cp.point for cp in affine])
        affine += line

    # line z = 0, chart y = 1: the points (t : 1 : 0)
    points = [cp.point for cp in affine]
    u = _upoly_gcd_many(restrict(p, (0, 1, 0), (1, 0, 0)) for p in partials)
    if u is None:
        # all partials vanish identically on the chart: cannot happen for
        # a squarefree form with finite singular locus
        raise IncompleteLocus(-1, points)
    at_infinity = []
    if u.degree() > 0:
        xroots, miss = qomega_roots(u)
        unexplained += miss
        for x0, _m in xroots:
            if all(p.eval((x0, C_ONE, C_ZERO)).is_zero() for p in partials):
                at_infinity.append(ProjPoint((x0, C_ONE, C_ZERO)))
    if all(p.eval((C_ONE, C_ZERO, C_ZERO)).is_zero() for p in partials):
        at_infinity.append(ProjPoint((C_ONE, C_ZERO, C_ZERO)))

    if unexplained:
        raise IncompleteLocus(unexplained, points + at_infinity)
    return affine + [classify_point(g, p) for p in at_infinity]


def classify_point(g: MPoly, point: ProjPoint) -> ClassifiedPoint:
    """Classify a singular point as node, cusp, or unclassified from the 3-jet
    of g in the chart of its last nonzero coordinate (the others: _u, _v):
    a node when the quadratic part a u^2 + b uv + c v^2 has b^2 - 4ac != 0,
    a cusp when it is a double line on whose direction the cubic part is
    nonzero."""
    chart = max(i for i in range(3) if not point.coords[i].is_zero())
    pieces = g.jet(point.coords, [i for i in range(3) if i != chart], ("_u", "_v"), 3)
    if 0 in pieces or 1 in pieces:
        raise DomainError(f"{point!r} is not a singular point of the curve")
    quad = pieces.get(2)
    if quad is None:
        return ClassifiedPoint(point, "unclassified")
    a = quad.terms.get((2, 0), C_ZERO)
    b = quad.terms.get((1, 1), C_ZERO)
    c = quad.terms.get((0, 2), C_ZERO)
    if b * b != 4 * a * c:
        return ClassifiedPoint(point, "node")
    # the tangent cone is a double line; a cusp if the cubic part is
    # nonzero on its direction
    direction = (-b, a + a) if not a.is_zero() else (C_ONE, C_ZERO)
    if 3 in pieces and not pieces[3].eval(direction).is_zero():
        return ClassifiedPoint(point, "cusp")
    return ClassifiedPoint(point, "unclassified")


# ---------------------------------------------------------------------------
# Cusp schemes (singular loci described without point coordinates)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CuspScheme:
    """A reduced set of cusps cut out by two forms, away from a line.

    The cusps are the common zeros of the two generators that do not lie
    on the given coordinate line (saturation direction).  The scheme is
    assumed reduced; counts and Hilbert data are computed by elimination
    and exact linear algebra.

    With include_line=True the distinct common zeros ON the line are
    counted too, as reduced points: they are the roots of the shared
    binary factor of the two restrictions, so membership conditions stay
    rational even when the roots themselves are not.
    """

    gen_a: MPoly
    gen_b: MPoly
    sat_var: str
    include_line: bool = False
    # memo of count() under "count" (and its chain end under "n0"), of
    # _line_divisor() under "line_divisor" and of vanishing_dim(m) under m
    _cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.gen_a.vars != self.gen_b.vars or len(self.gen_a.vars) != 3:
            raise DomainError("cusp scheme needs two ternary forms")
        if any(f.is_zero() or not f.is_homogeneous() for f in (self.gen_a, self.gen_b)):
            raise DomainError("cusp scheme generators must be nonzero forms")
        if self.sat_var not in self.gen_a.vars:
            raise DomainError("unknown saturation variable")

    def _line_divisor(self):
        """(squarefree affine gcd of the restrictions, root-at-(1:0) flag)."""
        if "line_divisor" in self._cache:
            return self._cache["line_divisor"]
        # the line sat_var = 0 as (t : 1) in (rest[0] : rest[1]); a
        # restriction of lower degree than its form, or zero, has a root
        # at (1:0)
        rest = [v for v in self.gen_a.vars if v != self.sat_var]
        us = self._on_line(rest[1], rest[0])
        g = _upoly_gcd_many(us)
        if g is None:
            raise DomainError("both restrictions vanish identically")
        has_inf = all(u.degree() < f.degree() for u, f in zip(us, (self.gen_a, self.gen_b)))
        self._cache["line_divisor"] = g.squarefree_part(), has_inf
        return self._cache["line_divisor"]

    def _on_line(self, at, along):
        """The two generators restricted to the line e(at) + t e(along),
        e(v) the unit vector of the variable v."""
        P, Q = ([int(v == w) for v in self.gen_a.vars] for w in (at, along))
        return [restrict(f, P, Q) for f in (self.gen_a, self.gen_b)]

    def _axis_count(self) -> int:
        """Distinct common zeros on the line rest[1] = 0 off the saturation
        line: the roots of the gcd of the two forms restricted to it (with
        sat_var = 1).  Every shear in count() keeps this line, so it
        projects all of them to the one direction (1:0)."""
        rest = [v for v in self.gen_a.vars if v != self.sat_var]
        g = _upoly_gcd_many(self._on_line(self.sat_var, rest[0]))
        if g is None:
            # both forms contain the line: the common zeros are not finite
            raise IncompleteLocus(-1, [])
        return g.squarefree_part().degree()

    def count(self) -> int:
        """Number of cusps: distinct projected directions of the common
        zeros off the saturation line, maximized over projection centers,
        with the zeros on rest[1] = 0, which every center projects to the
        direction (1:0), counted apart (_axis_count).  Also records n0
        for vanishing_dim.  Raises IncompleteLocus (unexplained = -1)
        when no projection center off V(a) meet V(b) gives a nonzero
        resultant."""
        if "count" in self._cache:
            return self._cache["count"]
        a, b = self.gen_a, self.gen_b
        sv = self.sat_var
        rest = [v for v in a.vars if v != sv]
        # intersections on the saturation line project to the same
        # directions under every shear below
        divisor, has_inf = self._line_divisor()
        on_line = divisor.degree() + has_inf
        formal = a.degree() * b.degree()
        axis = None
        best = None
        for shear in (0, 1, 2):
            if shear:
                # move the projection center: rest[0] -> rest[0] + shear*sv
                sub = MPoly.variable(rest[0], a.vars) + MPoly.variable(
                    sv, a.vars
                ).scale(shear)
                images = [
                    sub if v == rest[0] else MPoly.variable(v, a.vars)
                    for v in a.vars
                ]
                aa, bb = a.compose(images), b.compose(images)
            else:
                aa, bb = a, b
            if all(f.degree_in(sv) < f.degree() for f in (aa, bb)):
                # the center (sv = 1, rest = 0) lies on both curves
                continue
            # from a center off V(aa) meet V(bb), the binary resultant of
            # the forms is the product over the common zeros of their
            # directions, each to its intersection multiplicity, so a
            # nonzero one certifies a finite intersection; it is
            # dehomogenized first, so a root at (1:0) is a degree deficit
            # against Bezout's degree
            r1 = resultant(aa.subs({rest[1]: 1}), bb.subs({rest[1]: 1}), sv)
            if r1.is_zero():
                continue
            # the roots of r1 are the directions (t:1) of the zeros off
            # rest[1] = 0, those of the divisor among them; a degree
            # deficit is the direction (1:0) of the zeros on rest[1] = 0;
            # only the first center reads the Yun factors (for n0)
            if best is None:
                parts = r1.squarefree_factors()
                distinct = sum(u.degree() for u in parts.values())
            else:
                distinct = r1.squarefree_part().degree()
            count = distinct - divisor.degree()
            if r1.degree() < formal:
                if axis is None:
                    axis = self._axis_count()
                count += axis
            if best is None:
                # the largest Yun index whose factor shares a root with the
                # divisor, or the degree deficit of a common root at (1:0)
                held = [i for i, u in parts.items() if divisor.gcd(u).degree() > 0]
                self._cache["n0"] = max(held + [formal - r1.degree() if has_inf else 0])
            elif count == best:
                # two agreeing projection centers: collisions ruled out
                break
            best = count if best is None else max(best, count)
        if best is None:
            # every shear's resultant vanishes: the generators share a
            # curve, so the common zeros are not a finite set of cusps
            raise IncompleteLocus(-1, [])
        if self.include_line:
            best += on_line
        self._cache["count"] = best
        return best

    def vanishing_dim(self, m: int) -> int:
        """Dimension of degree-m forms vanishing on the (saturated) scheme:
        _saturation_piece(m, n0), the degree-m part of the saturation
        (gen_a, gen_b) : sat_var^oo.

        count() certifies that the generators cut a finite set, so they are
        a complete intersection: its ideal has no embedded component, and
        its local component at a point P on the line has length
        i_P(gen_a, gen_b), which sat_var^(i_P) kills.  The piece is
        therefore final from n = max i_P on; n0 bounds every i_P.  It is
        the largest multiplicity in count()'s resultant of a root of the
        line divisor, or the resultant's degree deficit when (1:0) is a
        common root, since a root's multiplicity sums the intersection
        multiplicities on its line through the projection center."""
        if m not in self._cache:
            self.count()
            self._cache[m] = self._saturation_piece(m, self._cache["n0"])
        return self._cache[m]

    def _saturation_piece(self, m: int, n: int) -> int:
        """dim { h of degree m : sat_var^n * h in (gen_a, gen_b) }, with
        include_line only of the h that vanish on the points on the line.

        In degree N = m + n this is dim(V meet W) = dim V + dim W - dim(V + W),
        V the sat_var^n multiples of the degree-m monomials and W the
        degree-N part of the ideal.  The generators are a regular sequence
        (count() certifies it), so the Koszul complex gives dim W without
        elimination (_ideal_dim).  Split the degree-N monomials into S, of
        sat_var-degree at least n, and R, the rest: V's columns are the
        unit vectors of S, so with W's columns gen * x^e in blocks W_S over
        W_R, and the line conditions L on h under V,

            rank [[W_S, I], [W_R, 0], [0, L]] = |S| + rank [W_R; L W_S]

        (subtract V W_S from W's columns, then L times the S rows from the
        L rows).  |S| = dim V, so the piece is dim W minus one linalg.rank
        of W's columns on the rows R and L W_S.  L reads h restricted to
        the line, so row l of L W_S reads each column's terms of
        sat_var-degree exactly n: with the functional l written as the
        form lam = sum_i L[l][i] x^(M - h_i), h_i = sat_var^n rest0^i
        rest1^(m-i) and M = (N, N, N), it is the coefficient of x^(M - e)
        in gen * lam, one product per generator on Z[w] int pairs."""
        a, b, sv = self.gen_a, self.gen_b, self.sat_var
        big = m + n
        si = a.vars.index(sv)
        low = [e for e in monomials(big, (1, 1, 1)) if e[si] < n]
        index = {e: i for i, e in enumerate(low)}
        gens = (a, b)
        cols = [
            (g, e)
            for g, gen in enumerate(gens)
            for e in monomials(big - gen.degree(), (1, 1, 1))
        ]
        # a column holds gen.pairs, gen * x^e scaled by gen.den
        rows = [[0] * len(cols) for _ in low]
        for j, (g, e) in enumerate(cols):
            for t, (x, y) in gens[g].pairs.items():
                k = tuple(u + v for u, v in zip(t, e))
                if k[si] < n:
                    rows[index[k]][j] = Cyclo(x, y) if y else x
        if self.include_line:
            top = (big,) * 3
            for lam in self._line_functionals(m, n):
                # the row scaled by lam.den: gen * lam's pairs times the
                # factor its canonical form divided out of gen.den * lam.den
                products = []
                for gen in gens:
                    p = gen * lam
                    products.append((p.pairs, gen.den * lam.den // p.den))
                row = []
                for g, e in cols:
                    pairs, f = products[g]
                    x, y = pairs.get(tuple(u - v for u, v in zip(top, e)), (0, 0))
                    row.append(Cyclo(x * f, y * f) if y else x * f)
                rows.append(row)
        return _ideal_dim(a.degree(), b.degree(), big) - matrix_rank(rows)

    def _line_functionals(self, m: int, n: int):
        """The line conditions on h of degree m, that the binary form
        h|_{sat_var=0} = sum_i c_i rest0^i rest1^(m-i) is divisible by the
        squarefree common factor of the two restricted generators (and,
        with a common root at (1:0), has c_m = 0), each as the form
        sum_i L_i x^(M - h_i) of _saturation_piece (M = (m+n,)*3,
        h_i = sat_var^n rest0^i rest1^(m-i))."""
        variables = self.gen_a.vars
        si = variables.index(self.sat_var)
        i0 = variables.index(next(v for v in variables if v != self.sat_var))
        g, has_inf = self._line_divisor()
        low = g.monic().coeffs[:-1]
        s = len(low)
        # x^i mod g for i = 0..m, as length-s coefficient vectors: g is
        # monic, so x*r mod g is r shifted up minus its top coefficient times g
        rems = []
        rem = ([C_ONE] + [C_ZERO] * s)[:s]
        for _ in range(m + 1):
            rems.append(rem)
            rem = [c - rem[-1] * l for c, l in zip([C_ZERO] + rem, low)]
        rows = [[r[j] for r in rems] for j in range(s)]
        if has_inf:
            # the common root at (1:0) forces the top coefficient to zero
            rows.append([C_ZERO] * m + [C_ONE])
        keys = []
        for i in range(m + 1):
            key = [n + i] * 3
            key[si], key[i0] = m, m + n - i
            keys.append(tuple(key))
        return [MPoly(variables, dict(zip(keys, row))) for row in rows]


def _ideal_dim(da: int, db: int, big: int) -> int:
    """dim of the degree-big part of (a, b) for a regular sequence of forms
    of degrees da and db: exact by the Koszul complex, whose one syzygy
    (b, -a) is the kernel of (f, g) -> f*a + g*b."""
    return (
        len(monomials(big - da, (1, 1, 1)))
        + len(monomials(big - db, (1, 1, 1)))
        - len(monomials(big - da - db, (1, 1, 1)))
    )


# ---------------------------------------------------------------------------
# Curve profiles and defects
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CurveProfile:
    """A squarefree plane curve with classified singularity data.

    Singularities are either a list of ClassifiedPoint (rational case) or
    a CuspScheme (cusps outside Q(w)).  components is the number of
    irreducible components, declared by the caller (default 1), at least
    1 and at most the degree.
    """

    g: MPoly
    points: list | None = None
    scheme: CuspScheme | None = None
    components: int = 1

    def __post_init__(self):
        g, points = self.g, self.points
        if len(g.vars) != 3 or g.is_zero():
            raise DomainError("expected a nonzero ternary form")
        if not g.is_homogeneous():
            raise DomainError("curve polynomial must be homogeneous")
        if not 1 <= self.components <= g.degree():
            raise DomainError("components must lie between 1 and the degree")
        if not _squarefree(g):
            raise DomainError("curve polynomial is not squarefree")
        if points is None and self.scheme is None:
            # singular_points checks each point against the partials itself
            object.__setattr__(self, "points", singular_points(g))
        elif points is not None:
            grads = [g.derivative(v) for v in g.vars]
            for cp in points:
                if not all(p.eval(cp.point.coords).is_zero() for p in grads):
                    raise DomainError(f"{cp.point!r} is not singular on the curve")

    @property
    def d(self) -> int:
        return self.g.degree()

    def singularity_inventory(self):
        if self.scheme is not None:
            return {"cusp": self.scheme.count()}
        inv = {}
        for p in self.points:
            inv[p.kind] = inv.get(p.kind, 0) + 1
        return inv


def _centre(forms):
    """(beta, gamma) of the first grid point (1 : beta : gamma), beta and
    gamma in 0..D with D the degree of the product, on none of the forms.
    One exists: on x = 1 the product is a nonzero polynomial of degree at
    most D in y and in z, so it cannot vanish on the whole grid.  In each
    row beta the first point off a form lies in 0..its degree, so a larger
    D finds the same point."""
    bound = sum(f.degree() for f in forms)
    return next(
        (beta, gamma)
        for beta in range(bound + 1)
        for gamma in range(bound + 1)
        if all(not f.eval((1, beta, gamma)).is_zero() for f in forms)
    )


def gcd_degree(p: MPoly, q: MPoly) -> int:
    """Exact degree of gcd(p, q) for two nonzero ternary forms."""
    for f in (p, q):
        if len(f.vars) != 3 or f.is_zero() or not f.is_homogeneous():
            raise AlgebraError("gcd_degree needs two nonzero ternary forms")
    return _gcd_degree_through(p, q, *_centre((p, q)))


def _gcd_degree_through(p: MPoly, q: MPoly, beta, gamma) -> int:
    """gcd_degree(p, q) from lines through the centre P = (1 : beta : gamma),
    on neither curve.

    With p = g p', q = g q' and g = gcd(p, q), the restricted gcd on a line
    has degree deg g plus the common roots of p' and q' on it.  The lines
    run through P (so no degree is lost at t = oo) and (0 : alpha : 1),
    alpha = 0..m*n: distinct lines, each point other than P on exactly one
    of them.  By Bezout at most m*n points lie on both V(p') and V(q'), so
    one of the m*n + 1 lines gives deg g, and the least restricted degree
    is exact.
    """
    best = min(p.degree(), q.degree())
    for alpha in range(p.degree() * q.degree() + 1):
        if best == 0:
            break
        u, v = (restrict(f, (0, alpha, 1), (1, beta, gamma)) for f in (p, q))
        best = min(best, u.gcd(v).degree())
    return best


def _squarefree(g: MPoly) -> bool:
    """Whether the form g is squarefree: gcd(g, D_P g) is constant, with
    D_P g = sum P_i dg/dx_i at a point P off g.  A repeated factor divides
    both; a simple factor C divides D_P g only if D_P C = 0, and Euler's
    relation then gives C(P) = 0.  (D_P g)(P) = d g(P) != 0, so P is off
    both forms and serves as the centre of the gcd degree's lines."""
    if g.degree() == 0:
        return True
    beta, gamma = _centre((g,))
    point = (1, beta, gamma)
    dg = sum(
        (g.derivative(v).scale(c) for v, c in zip(g.vars, point) if c),
        MPoly.zero(g.vars),
    )
    return _gcd_degree_through(g, dg, beta, gamma) == 0


def defect(profile: CurveProfile, alpha) -> tuple:
    """(l, h, delta) at alpha: conditions, independent conditions, defect."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise DomainError("alpha must lie in (0, 1]")
    if (alpha * profile.d).denominator != 1:
        raise DomainError("alpha * degree must be an integer")
    deg = int(alpha * profile.d) - 3
    if profile.scheme is not None:
        if alpha != Fraction(5, 6):
            return (0, 0, 0)
        l = profile.scheme.count()
        if deg < 0:
            return (l, 0, l)
        # independent conditions: monomial space minus forms vanishing
        # on the scheme
        h = len(monomials(deg, (1, 1, 1))) - profile.scheme.vanishing_dim(deg)
        return (l, h, l - h)
    fns = conditions_at(alpha, profile.points)
    l = len(fns)
    if l == 0:
        return (0, 0, 0)
    if deg < 0:
        return (l, 0, l)
    monos = monomials(deg, (1, 1, 1))
    rows = [f.row(monos) for f in fns]
    h = matrix_rank(rows)
    return (l, h, l - h)


def defect_table(profile: CurveProfile):
    """Defects at every alpha in (0, 1] with alpha*d integral."""
    d = profile.d
    return {
        Fraction(k, d): defect(profile, Fraction(k, d)) for k in range(1, d + 1)
    }


# ---------------------------------------------------------------------------
# Alexander polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AlexanderPoly:
    """Vanishing orders of the Alexander polynomial at zeta(alpha): a map
    from Fraction alpha to its nonzero order, and the rendered product."""

    orders: dict
    rendered: str


def ord_at(delta: AlexanderPoly, alpha) -> int:
    alpha = Fraction(alpha)
    if not 0 <= alpha < 1:
        raise DomainError("alpha must lie in [0, 1)")
    return delta.orders.get(alpha, 0)


def alexander(profile: CurveProfile) -> AlexanderPoly:
    """Alexander polynomial orders: delta_a + delta_(1-a) on (0,1), r-1 at 0."""
    d = profile.d
    deltas = {}
    for k in range(1, d):
        a = Fraction(k, d)
        deltas[a] = defect(profile, a)[2]
    orders = {}
    for a, dl in deltas.items():
        o = dl + deltas.get(1 - a, 0)
        if o:
            orders[a] = o
    r1 = profile.components - 1
    if r1:
        orders[Fraction(0)] = r1
    return AlexanderPoly(orders, _render_alexander(orders))


def _cyclotomic(n: int) -> MPoly:
    """Phi_n in t: t^n - 1 divided exactly by Phi_d for each d < n
    dividing n."""
    t = ("t",)
    out = MPoly.monomial(t, (n,)) - MPoly.const(t, 1)
    for d in range(1, n):
        if n % d == 0:
            out = out.divide_exact(_cyclotomic(d))
    return out


def _render_alexander(orders) -> str:
    rem = {a: o for a, o in orders.items() if a != 0}
    factors = []
    denominators = sorted({a.denominator for a in rem})
    for n in denominators:
        prim = [Fraction(k, n) for k in range(1, n) if int_gcd(k, n) == 1]
        if not prim:
            continue
        o = min(rem.get(a, 0) for a in prim)
        if o > 0:
            base = render(_cyclotomic(n))
            factors.append(f"({base})^{o}" if o > 1 else f"({base})")
            for a in prim:
                rem[a] -= o
    for a, o in sorted(rem.items()):
        if o > 0:
            factors.append(f"(t - zeta({a}))^{o}" if o > 1 else f"(t - zeta({a}))")
    o0 = orders.get(Fraction(0), 0)
    if o0:
        factors.append(f"(t - 1)^{o0}" if o0 > 1 else "(t - 1)")
    return "*".join(factors) if factors else "1"
