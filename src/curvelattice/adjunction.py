"""Curve profiles: singular points, quasiadjunction defects, Alexander data.

A curve profile wraps a squarefree homogeneous ternary form together with
its classified singular points.  Defects are superabundances

    delta_alpha = l_alpha - h_alpha(alpha*d - 3)

where l counts quasiadjunction conditions and h is the number of
independent conditions they impose on forms of degree alpha*d - 3.  The
Alexander polynomial is carried as its vanishing-order table at the roots
of unity zeta(alpha), with ord at alpha in (0,1) equal to
delta_alpha + delta_(1-alpha) and ord at 0 equal to (components - 1).

Singular loci whose points are not rational over Q(w) can be described
scheme-theoretically (a cusp scheme cut out by two forms, saturated away
from a line); lengths and Hilbert data then come from exact linear
algebra instead of point coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd as int_gcd

from .algebra import (
    C_ONE,
    C_ZERO,
    AlgebraError,
    Cyclo,
    MPoly,
    ProjPoint,
    UPoly,
    qomega_roots,
    resultant,
)
from .linalg import kernel_basis, rank as matrix_rank


class IncompleteLocus(ValueError):
    """Singular-point elimination certifies points outside Q(w).

    Carries the points that were found and the unexplained degree."""

    def __init__(self, unexplained, found):
        super().__init__(
            f"singular locus has {unexplained} unexplained root(s) outside Q(w)"
        )
        self.unexplained = unexplained
        self.found = found


class UnclassifiedPoint(ValueError):
    """A singular point needs a user-supplied classification."""


@dataclass(frozen=True, slots=True)
class Functional:
    """A linear functional on forms: a derivative order evaluated at a point."""

    point: ProjPoint
    order: tuple = (0, 0, 0)

    def row(self, monomials, variables):
        """Evaluation row of this functional against a monomial list."""
        out = []
        for exps in monomials:
            mono = MPoly.monomial(variables, exps)
            for v, k in zip(variables, self.order):
                for _ in range(k):
                    mono = mono.derivative(v)
            out.append(mono.eval(self.point.coords))
        return out


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
            raise ValueError(f"unknown singularity kind {self.kind!r}")
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


def singular_points(g: MPoly):
    """All singular points of V(g) with coordinates in Q(w), classified.

    Elimination: pairwise resultants of the partial derivatives in the
    affine chart z=1 give a univariate candidate polynomial; roots are
    extracted inside Q(w) and verified against the full gradient, then
    the line z=0 is handled chart by chart.  Raises IncompleteLocus when
    an unexplained elimination factor (or an x-level gcd factor) has
    roots outside Q(w), and with unexplained = -1 when the elimination
    cannot isolate the points (every chart resultant vanishes, or the
    gradient vanishes on a whole line).
    """
    if len(g.vars) != 3:
        raise ValueError("expected a ternary form")
    vx, vy, vz = g.vars
    partials = [g.derivative(v) for v in g.vars]
    unexplained = 0
    points = []

    # affine chart z = 1
    aff = [p.subs({vz: 1}) for p in partials]
    res = []
    for i in range(3):
        for j in range(i + 1, 3):
            p, q = aff[i], aff[j]
            if p.degree_in(vx) <= 0 and q.degree_in(vx) <= 0:
                continue
            if p.is_zero() or q.is_zero():
                continue
            r = resultant(p, q, vx)
            if not r.is_zero():
                res.append(UPoly.from_mpoly(r, vy))
    cand = _upoly_gcd_many(res)
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
    if cand.degree() > 0:
        yroots, miss_y = qomega_roots(cand)
        unexplained += miss_y
        for y0, _m in yroots:
            slices = [p.subs({vy: y0}) for p in aff]
            upolys = []
            zero_slice = False
            for s in slices:
                if s.is_zero():
                    zero_slice = True
                    continue
                upolys.append(UPoly.from_mpoly(s, vx))
            if not upolys:
                if zero_slice:
                    # gradient vanishes identically on a whole line
                    raise IncompleteLocus(-1, points)
                continue
            ux = _upoly_gcd_many(upolys)
            if ux is None or ux.degree() <= 0:
                continue
            xroots, miss_x = qomega_roots(ux)
            unexplained += miss_x
            for x0, _mx in xroots:
                if all(p.eval((x0, y0, C_ONE)).is_zero() for p in partials):
                    points.append(ProjPoint((x0, y0, C_ONE)))

    # line z = 0, chart y = 1
    at_inf = [p.subs({vz: 0, vy: 1}) for p in partials]
    upolys = [UPoly.from_mpoly(p, vx) for p in at_inf if not p.is_zero()]
    if upolys:
        u = _upoly_gcd_many(upolys)
        if u is not None and u.degree() > 0:
            xroots, miss = qomega_roots(u)
            unexplained += miss
            for x0, _m in xroots:
                if all(p.eval((x0, C_ONE, C_ZERO)).is_zero() for p in partials):
                    points.append(ProjPoint((x0, C_ONE, C_ZERO)))
    else:
        # all partials vanish identically on the chart: cannot happen for
        # a squarefree form with finite singular locus
        raise IncompleteLocus(-1, points)
    if all(p.eval((C_ONE, C_ZERO, C_ZERO)).is_zero() for p in partials):
        points.append(ProjPoint((C_ONE, C_ZERO, C_ZERO)))

    points = list(dict.fromkeys(points))
    if unexplained:
        raise IncompleteLocus(unexplained, points)
    return [classify_point(g, p) for p in points]


def _local_expansion(g: MPoly, point: ProjPoint):
    """Degree-graded pieces of g recentred at the point in an affine chart."""
    coords = point.coords
    chart = max(i for i in range(3) if not coords[i].is_zero())
    local_vars = ("_u", "_v")
    images = []
    j = 0
    for i in range(3):
        if i == chart:
            images.append(MPoly.const(local_vars, coords[i]))
        else:
            images.append(
                MPoly.const(local_vars, coords[i])
                + MPoly.variable(local_vars[j], local_vars)
            )
            j += 1
    local = g.compose(images)
    pieces = {}
    for e, c in local.terms.items():
        d = sum(e)
        pieces.setdefault(d, {})[e] = c
    return {d: MPoly(local_vars, t) for d, t in pieces.items()}


def classify_point(g: MPoly, point: ProjPoint) -> ClassifiedPoint:
    """Classify a singular point as node, cusp, or unclassified."""
    pieces = _local_expansion(g, point)
    if 0 in pieces or 1 in pieces:
        raise ValueError(f"{point!r} is not a singular point of the curve")
    quad = pieces.get(2)
    if quad is None:
        return ClassifiedPoint(point, "unclassified")
    a = quad.terms.get((2, 0), C_ZERO)
    b = quad.terms.get((1, 1), C_ZERO)
    c = quad.terms.get((0, 2), C_ZERO)
    m = [[a + a, b], [b, c + c]]
    r = matrix_rank(m)
    if r == 2:
        return ClassifiedPoint(point, "node")
    if r == 1:
        ker = kernel_basis(m)[0]
        cubic = pieces.get(3, MPoly.zero(("_u", "_v")))
        if not cubic.eval(ker).is_zero():
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
            raise ValueError("cusp scheme needs two ternary forms")
        if self.sat_var not in self.gen_a.vars:
            raise ValueError("unknown saturation variable")

    def _line_divisor(self):
        """(squarefree affine gcd of the restrictions, root-at-(1:0) flag)."""
        if "line_divisor" not in self._cache:
            self._cache["line_divisor"] = self._compute_line_divisor()
        return self._cache["line_divisor"]

    def _compute_line_divisor(self):
        sv = self.sat_var
        rest = [v for v in self.gen_a.vars if v != sv]
        a0 = self.gen_a.subs({sv: 0})
        b0 = self.gen_b.subs({sv: 0})
        if a0.is_zero() or b0.is_zero():
            z = b0 if a0.is_zero() else a0
            if z.is_zero():
                raise ValueError("both restrictions vanish identically")
            u = _binary_to_upoly(z, rest)
            return u.squarefree_part(), u.degree() < z.degree()
        ua, ub = _binary_to_upoly(a0, rest), _binary_to_upoly(b0, rest)
        g = ua.gcd(ub).squarefree_part()
        has_inf = ua.degree() < a0.degree() and ub.degree() < b0.degree()
        return g, has_inf

    def _axis_count(self) -> int:
        """Distinct common zeros on the line rest[1] = 0 off the saturation
        line: the roots of the gcd of the two forms restricted to it (with
        sat_var = 1).  Every shear in count() keeps this line, so it
        projects all of them to the one direction (1:0)."""
        sv = self.sat_var
        rest = [v for v in self.gen_a.vars if v != sv]
        g = _upoly_gcd_many(
            UPoly.from_mpoly(f.subs({rest[1]: 0, sv: 1}), rest[0])
            for f in (self.gen_a, self.gen_b)
        )
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
            r1m = resultant(aa.subs({rest[1]: 1}), bb.subs({rest[1]: 1}), sv)
            if r1m.is_zero():
                continue
            r1 = UPoly.from_mpoly(r1m, rest[0])
            # the roots of r1 are the directions (t:1) of the zeros off
            # rest[1] = 0, those of the divisor among them; a degree
            # deficit is the direction (1:0) of the zeros on rest[1] = 0
            count = r1.squarefree_part().degree() - divisor.degree()
            if r1.degree() < formal:
                if axis is None:
                    axis = self._axis_count()
                count += axis
            if best is None:
                self._cache["n0"] = max(
                    _largest_multiplicity(r1, divisor),
                    formal - r1.degree() if has_inf else 0,
                )
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
        elimination (_ideal_dim); dim(V + W) is one linalg.rank."""
        a, b, sv = self.gen_a, self.gen_b, self.sat_var
        big = m + n
        index = {e: i for i, e in enumerate(_monomials(big))}
        h_monos = _monomials(m)
        line_rows = (
            self._line_condition_rows(m, h_monos) if self.include_line else []
        )
        # the columns span W (each generator, lifted once into Z[w], times
        # each monomial of the complementary degree) and V; with
        # include_line the condition rows "h restricted to the line
        # vanishes on the shared binary factor" are appended under V
        w_cols = []
        for gen in (a, b):
            terms = [
                (t, Cyclo(x, y) if y else x)
                for t, (x, y) in gen._zw()[0].items()
            ]
            w_cols += [(e, terms) for e in _monomials(big - gen.degree())]
        ncols = len(w_cols) + len(h_monos)
        rows = [[0] * ncols for _ in range(len(index))]
        for j, (e, terms) in enumerate(w_cols):
            for t, c in terms:
                rows[index[tuple(x + y for x, y in zip(t, e))]][j] = c
        si = a.vars.index(sv)
        for j, e in enumerate(h_monos, len(w_cols)):
            rows[index[e[:si] + (e[si] + n,) + e[si + 1:]]][j] = 1
        rows += [[0] * len(w_cols) + row for row in line_rows]
        dim_w = _ideal_dim(a.degree(), b.degree(), big)
        return len(h_monos) + dim_w - matrix_rank(rows)

    def _line_condition_rows(self, m: int, h_monos):
        """Rows expressing: the binary form h|_{sat_var=0} is divisible by
        the squarefree common factor of the two restricted generators."""
        variables = self.gen_a.vars
        si = variables.index(self.sat_var)
        rest = [v for v in variables if v != self.sat_var]
        i0 = variables.index(rest[0])
        g, has_inf = self._line_divisor()
        g = g.monic()
        s = g.degree()
        # x^i mod g for i = 0..m, as length-s coefficient vectors
        x = UPoly([C_ZERO, C_ONE])
        rems = []
        rem = UPoly([C_ONE])
        for _ in range(m + 1):
            rems.append(
                list(rem.coeffs) + [C_ZERO] * (s - len(rem.coeffs))
            )
            rem = (rem * x).divmod(g)[1] if s else UPoly([])
        rows = [
            [
                rems[e[i0]][j] if e[si] == 0 else C_ZERO
                for e in h_monos
            ]
            for j in range(s)
        ]
        if has_inf:
            # the common root at (1:0) forces the top coefficient to zero
            rows.append(
                [
                    C_ONE if e[si] == 0 and e[i0] == m else C_ZERO
                    for e in h_monos
                ]
            )
        return rows


def _monomials(d: int):
    return [
        (i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)
    ]


def _ideal_dim(da: int, db: int, big: int) -> int:
    """dim of the degree-big part of (a, b) for a regular sequence of forms
    of degrees da and db: exact by the Koszul complex, whose one syzygy
    (b, -a) is the kernel of (f, g) -> f*a + g*b."""
    return (
        len(_monomials(big - da))
        + len(_monomials(big - db))
        - len(_monomials(big - da - db))
    )


def _largest_multiplicity(r: UPoly, divisor: UPoly) -> int:
    """Largest multiplicity in r != 0 of a root of the squarefree divisor:
    the roots of multiplicity > k are the common roots of the divisor and
    r, r', ..., r^(k)."""
    k = 0
    while True:
        divisor = divisor.gcd(r)
        if divisor.degree() <= 0:
            return k
        r = r.derivative()
        k += 1


def _binary_to_upoly(r: MPoly, rest) -> UPoly:
    """A binary form in rest = (v1, v2), dehomogenized with v2 = 1."""
    return UPoly.from_mpoly(r.subs({rest[1]: 1}), rest[0])


# ---------------------------------------------------------------------------
# Curve profiles and defects
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CurveProfile:
    """A squarefree plane curve with classified singularity data.

    Singularities are either a list of ClassifiedPoint (rational case) or
    a CuspScheme (cusps outside Q(w)).  components is the number of
    irreducible components, declared by the caller (default 1).
    """

    g: MPoly
    points: list | None = None
    scheme: CuspScheme | None = None
    components: int = 1

    def __post_init__(self):
        g, points = self.g, self.points
        if len(g.vars) != 3 or g.is_zero():
            raise ValueError("expected a nonzero ternary form")
        if not g.is_homogeneous():
            raise ValueError("curve polynomial must be homogeneous")
        if not _squarefree(g):
            raise ValueError("curve polynomial is not squarefree")
        if points is None and self.scheme is None:
            points = singular_points(g)
            object.__setattr__(self, "points", points)
        if points is not None:
            grads = [g.derivative(v) for v in g.vars]
            for cp in points:
                if not all(p.eval(cp.point.coords).is_zero() for p in grads):
                    raise ValueError(f"{cp.point!r} is not singular on the curve")

    @property
    def d(self) -> int:
        return self.g.degree()

    def cusp_count(self) -> int:
        if self.scheme is not None:
            return self.scheme.count()
        return sum(1 for p in self.points if p.kind == "cusp")

    def singularity_inventory(self):
        if self.scheme is not None:
            return {"cusp": self.scheme.count()}
        inv = {}
        for p in self.points:
            inv[p.kind] = inv.get(p.kind, 0) + 1
        return inv


def _convolve(f, g):
    """Product of two coefficient lists, low -> high."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _restrict_to_line(p: MPoly, alpha, beta, gamma):
    """Restriction of a ternary p to the line (t, alpha + beta t, 1 + gamma t)
    as a UPoly.  The line's rational parameters never meet a Q(w) product:
    on the Z[w] lift of p's coefficients (MPoly._zw), each term
    c x^i y^j z^k adds c times the rational coefficients of
    t^i (alpha + beta t)^j (1 + gamma t)^k."""
    terms, den = p._zw()
    a = [0] * (p.degree() + 1)
    b = [0] * (p.degree() + 1)
    ys, zs = [[1]], [[1]]  # powers of alpha + beta t and of 1 + gamma t
    for (i, j, k), (xa, xb) in terms.items():
        while len(ys) <= j:
            ys.append(_convolve(ys[-1], (alpha, beta)))
        while len(zs) <= k:
            zs.append(_convolve(zs[-1], (1, gamma)))
        for s, v in enumerate(_convolve(ys[j], zs[k]), i):
            a[s] += xa * v
            b[s] += xb * v
    return UPoly([Cyclo(Fraction(x, den), Fraction(y, den)) for x, y in zip(a, b)])


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
        u = _restrict_to_line(p, alpha, beta, gamma)
        v = _restrict_to_line(q, alpha, beta, gamma)
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
        raise ValueError("alpha must lie in (0, 1]")
    if (alpha * profile.d).denominator != 1:
        raise ValueError("alpha * degree must be an integer")
    deg = int(alpha * profile.d) - 3
    if profile.scheme is not None:
        if alpha != Fraction(5, 6):
            return (0, 0, 0)
        l = profile.scheme.count()
        if deg < 0:
            return (l, 0, l)
        # independent conditions: monomial space minus forms vanishing
        # on the scheme
        h = len(_monomials(deg)) - profile.scheme.vanishing_dim(deg)
        return (l, h, l - h)
    fns = conditions_at(alpha, profile.points)
    l = len(fns)
    if l == 0:
        return (0, 0, 0)
    if deg < 0:
        return (l, 0, l)
    monos = _monomials(deg)
    rows = [f.row(monos, profile.g.vars) for f in fns]
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
        raise ValueError("alpha must lie in [0, 1)")
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


def _cyclotomic_coeffs(n: int) -> list:
    """Integer coefficients of the n-th cyclotomic polynomial, low -> high:
    (t^n - 1) divided by the product of Phi_d over the divisors d < n."""
    out = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = _cyclotomic_coeffs(d)
            q = [0] * (len(out) - len(den) + 1)
            for i in range(len(q) - 1, -1, -1):  # den is monic
                q[i] = c = out.pop()
                for j, y in enumerate(den[:-1], i):
                    out[j] -= c * y
            out = q
    return out


def _render_cyclotomic(n: int) -> str:
    """Phi_n in t, highest degree first, as in '2*t^3 - t + 1'."""
    text = ""
    for k, c in reversed(list(enumerate(_cyclotomic_coeffs(n)))):
        if not c:
            continue
        mono = "t" if k == 1 else f"t^{k}"
        term = str(abs(c)) if k == 0 else (mono if abs(c) == 1 else f"{abs(c)}*{mono}")
        sign = "-" if c < 0 else "+"
        text = f"{text} {sign} {term}" if text else term  # Phi_n is monic
    return text


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
            base = _render_cyclotomic(n)
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
