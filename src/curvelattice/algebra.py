"""Exact arithmetic over Q(w) and sparse multivariate polynomials.

The coefficient field is Q(w) where w is a primitive third root of unity,
so w^2 + w + 1 = 0.  A scalar (Cyclo) is ints (p + q*w) / d, canonical.
A polynomial stores its coefficients once, as Z[w] int pairs (a, b) =
a + b*w over one common denominator, in a canonical form (MPoly: a sparse
map from exponent vectors, ordered by graded lexicographic order on the
declared variable list; UPoly: a dense list).  Cyclo coefficients are
read-only views for the edges: parsing and reports.

Provides: parsing/rendering of polynomial expressions, the fraction-free
Z[w] elimination behind every determinant, rank and kernel of a Q(w)
matrix (echelon_zw, which lifts the rows into Z[w] and eliminates them),
the Sylvester-determinant resultant of two polynomials in the eliminated
variable and at most one other, as a UPoly in that other, by one loop of
evaluation at integer samples and interpolation, the univariate gcd (the
one gcd: multivariate gcd degrees are read from it on lines, see
adjunction.gcd_degree) from one image modulo the prime
P = 2^61 - 1 that linalg.rank shares, certified by exact division, one
subresultant PRS over Z[w] (_zw_prs) that is both that gcd's fallback and
the scalar resultant at each sample of the interpolation, one squarefree
decomposition (_zw_yun, Yun's algorithm with that gcd) behind every
multiplicity, its first step (_zw_squarefree) behind every squarefree
part, exact square roots of polynomials (NOT_A_SQUARE, which is None, when
there is none), and root extraction of univariate polynomials inside Q(w)
(a p-adic root finder whose every answer is verified exactly).  Every
polynomial operation reads and writes the stored int pairs; a matrix or
scalar list over Q(w) is lifted into Z[w] by the lcm of its denominators
(_zw_lift).  UPoly.divmod has no caller in the package.  Only the
standard library is used.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType


class DomainError(ValueError):
    """The one base of the domain errors: an input the mathematics rejects
    (inapplicable rank formula, incomplete singular locus, degenerate
    form, ...).  The CLI reports these with exit 2."""


class AlgebraError(DomainError):
    """Base class for exact-arithmetic failures."""


class NotDivisible(AlgebraError):
    """Raised when an exact polynomial division leaves a remainder."""


class InvariantError(RuntimeError):
    """An exact kernel broke its own invariant: a division that the
    mathematics makes exact left a remainder.  This is a fault in the
    program, not in its input, so it is neither a ValueError nor an
    ArithmeticError and no domain-error handler catches it."""


# what poly_sqrt returns when its input has no square root in Q(w)[x]
NOT_A_SQUARE = None


def isprime(n: int) -> bool:
    """Deterministic Miller-Rabin.  The prime bases up to 41 decide every
    n < 3317044064679887385961981 (Sorenson-Webster, Math. Comp. 86,
    2017); above that, the bases up to 2 ln(n)^2 decide n under the
    generalized Riemann hypothesis (Bach, Math. Comp. 55, 1990), and every
    base below b^2 is tried, b the bit length: n < 2^b gives
    2 ln(n)^2 < b^2."""
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    if n < 3317044064679887385961981:
        bases = small
    else:
        bases = range(2, n.bit_length() ** 2)
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class Cyclo:
    """An element (p + q*w) / d of Q(w), with w^2 = -w - 1, stored as ints
    in canonical form: d > 0 and gcd(p, q, d) = 1, so equal elements have
    equal fields and the generated hash is by value."""

    p: int
    q: int
    d: int

    def __init__(self, p=0, q=0, d=1):
        """(p + q*w) / d for ints, reduced by one gcd; a Fraction or str p
        or q is lifted once over the lcm of the denominators."""
        if type(p) is not int or type(q) is not int:
            if not all(isinstance(x, (int, Fraction, str)) for x in (p, q)):
                raise TypeError(f"cannot interpret {p!r}, {q!r} as rational numbers")
            a, b = Fraction(p), Fraction(q)
            m = math.lcm(a.denominator, b.denominator)
            p, q, d = a.numerator * (m // a.denominator), b.numerator * (m // b.denominator), d * m
        if d != 1:
            g = math.gcd(p, q, d)
            if d < 0:
                g = -g
            if g != 1:
                p, q, d = p // g, q // g, d // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)

    a = property(lambda self: Fraction(self.p, self.d), doc="The rational part p / d.")
    b = property(lambda self: Fraction(self.q, self.d), doc="The w part q / d.")

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.p and not self.q

    def is_rational(self) -> bool:
        return not self.q

    # -- ring operations --------------------------------------------------
    @staticmethod
    def _coerce(x) -> "Cyclo":
        return x if isinstance(x, Cyclo) else Cyclo(x)

    def __add__(self, other):
        o = Cyclo._coerce(other)
        d, e = self.d, o.d
        return Cyclo(self.p * e + o.p * d, self.q * e + o.q * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(-self.p, -self.q, self.d)

    def __sub__(self, other):
        return self + (-Cyclo._coerce(other))

    def __rsub__(self, other):
        return Cyclo._coerce(other) + (-self)

    def __mul__(self, other):
        o = Cyclo._coerce(other)
        # (a + bw)(c + ew) = ac + (ae + bc)w + be w^2,  w^2 = -1 - w
        a, b, c, e = self.p, self.q, o.p, o.q
        t = b * e
        return Cyclo(a * c - t, a * e + b * c - t, self.d * o.d)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclo":
        """The image under w -> w^2 (complex conjugation on Q(w))."""
        return Cyclo(self.p - self.q, -self.q, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - a*b + b^2; zero only for the zero element."""
        return Fraction(self.p**2 - self.p * self.q + self.q**2, self.d**2)

    def inverse(self) -> "Cyclo":
        """d * conj(p + q*w) / N(p + q*w), N the int norm."""
        p, q, d = self.p, self.q, self.d
        n = p * p - p * q + q * q
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        return Cyclo((p - q) * d, -q * d, n)

    def __truediv__(self, other):
        return self * Cyclo._coerce(other).inverse()

    def __rtruediv__(self, other):
        return Cyclo._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return Cyclo(*_zw_pow((self.p, self.q), n), self.d**n)

    # -- comparison -------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclo(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __repr__(self):
        return f"Cyclo({self.a}, {self.b})"

    def __str__(self):
        return render_coeff(self.p, self.q, self.d)


C_ZERO = Cyclo(0)
C_ONE = Cyclo(1)
OMEGA = Cyclo(0, 1)


def _ratio(n, d) -> str:
    """n / d as str(Fraction(n, d)) prints it, d > 0."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def render_coeff(p, q, d) -> str:
    """Render the Q(w) element (p + q*w) / d, d > 0, in the polynomial grammar."""
    if not q:
        return _ratio(p, d)
    if not p:
        return "w" if q == d else f"{_ratio(q, d)}*w"
    wq = "w" if abs(q) == d else f"{_ratio(abs(q), d)}*w"
    return f"({_ratio(p, d)} {'+' if q > 0 else '-'} {wq})"


def cyclo_conj_sign_canonical(c: Cyclo) -> bool:
    """True when c lies in the canonical half-plane (a > 0, or a == 0, b > 0)."""
    return c.p > 0 or (c.p == 0 and c.q > 0)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------

DEGREE_ZERO_POLY = -1  # degree sentinel for the zero polynomial


def _grlex_key(exps):
    return (sum(exps), exps)


def _grlex_heap_key(exps):
    """A key whose least value in a min-heap is the grlex-largest exps."""
    return (-sum(exps), tuple(-k for k in exps))


def _reduced(pairs, den):
    """The int that divides den and every part of the pairs (an iterable of
    int pairs) to the stored form: den > 0 and gcd(den, every part) = 1."""
    g = math.gcd(den, *itertools.chain.from_iterable(pairs))
    return -g if den < 0 else g


@dataclass(frozen=True, slots=True)
class MPoly:
    """Sparse multivariate polynomial over Q(w).

    pairs maps exponent tuples to nonzero Z[w] int pairs (a, b) = a + b*w,
    and the coefficient of x^exps is pairs[exps] / den.  The form is
    canonical, den > 0 and gcd(den, every a, b) = 1, so equal polynomials
    have equal pairs and den.  terms is the read-only view exps -> Cyclo,
    built at most once per polynomial.  Instances are treated as
    immutable; all operations return new polynomials.
    """

    vars: tuple
    pairs: dict
    den: int
    _view: object = field(default=None, compare=False, repr=False)

    def __init__(self, variables, terms=None):
        """The polynomial sum terms[exps] * x^exps, terms a dict of Cyclo,
        int or Fraction values."""
        variables, terms = tuple(variables), terms or {}
        if any(len(e) != len(variables) for e in terms):
            raise AlgebraError("exponent vector length mismatch")
        A, B, den = _zw_lift(terms.values())
        self._store(variables, {tuple(map(int, e)): ab for e, ab in zip(terms, zip(A, B))}, den)

    @staticmethod
    def _new(variables, pairs, den=1) -> "MPoly":
        """The polynomial sum pairs[exps] / den * x^exps, pairs a dict
        exps -> (a, b) of ints."""
        p = object.__new__(MPoly)
        p._store(variables, pairs, den)
        return p

    def _store(self, variables, pairs, den):
        """Set the fields to the canonical form of pairs / den."""
        pairs = {e: ab for e, ab in pairs.items() if ab[0] or ab[1]}
        if not pairs:
            den = 1
        elif den != 1:
            g = _reduced(pairs.values(), den)
            if g != 1:
                pairs = {e: (a // g, b // g) for e, (a, b) in pairs.items()}
                den //= g
        object.__setattr__(self, "vars", tuple(variables))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_view", None)

    @property
    def terms(self):
        """The coefficients as a read-only map exps -> Cyclo."""
        if self._view is None:
            view = {e: Cyclo(*ab, self.den) for e, ab in self.pairs.items()}
            object.__setattr__(self, "_view", MappingProxyType(view))
        return self._view

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero(variables) -> "MPoly":
        return MPoly._new(variables, {})

    @staticmethod
    def const(variables, c) -> "MPoly":
        return MPoly.monomial(variables, (0,) * len(tuple(variables)), c)

    @staticmethod
    def variable(name, variables) -> "MPoly":
        variables = tuple(variables)
        i = variables.index(name)
        return MPoly.monomial(variables, [int(j == i) for j in range(len(variables))])

    @staticmethod
    def monomial(variables, exps, c=C_ONE) -> "MPoly":
        (a,), (b,), den = _zw_lift([c])
        return MPoly._new(variables, {tuple(int(k) for k in exps): (a, b)}, den)

    # -- basic queries ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.pairs

    def degree(self) -> int:
        if not self.pairs:
            return DEGREE_ZERO_POLY
        return max(map(sum, self.pairs))

    def degree_in(self, var) -> int:
        if not self.pairs:
            return DEGREE_ZERO_POLY
        i = self.vars.index(var)
        return max(e[i] for e in self.pairs)

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.pairs))) <= 1

    def leading_exponents(self):
        return max(self.pairs, key=_grlex_key)

    def leading_coeff(self) -> Cyclo:
        return Cyclo(*self.pairs[self.leading_exponents()], self.den)

    def constant_coeff(self) -> Cyclo:
        ab = self.pairs.get((0,) * len(self.vars))
        return C_ZERO if ab is None else Cyclo(*ab, self.den)

    def monic(self) -> "MPoly":
        """Scale so the graded-lex leading coefficient is 1: with the
        leading pair l, pairs / den over l / den is pairs * conj(l) / N(l)."""
        lead = self.pairs[self.leading_exponents()] if self.pairs else None
        if lead is None or lead == (self.den, 0):
            return self
        ca, cb, norm = _zw_conj_norm(*lead)
        return MPoly._new(
            self.vars, {e: _zw_mul(ab, (ca, cb)) for e, ab in self.pairs.items()}, norm
        )

    # -- arithmetic -------------------------------------------------------
    def _check_same_vars(self, other):
        if self.vars != other.vars:
            raise AlgebraError(f"variable lists differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = MPoly.const(self.vars, other)
        self._check_same_vars(other)
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = {e: (a * s, b * s) for e, (a, b) in self.pairs.items()}
        for e, (a, b) in other.pairs.items():
            old = out.get(e)
            out[e] = (a * t, b * t) if old is None else (old[0] + a * t, old[1] + b * t)
        return MPoly._new(self.vars, out, den)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._new(self.vars, {e: (-a, -b) for e, (a, b) in self.pairs.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "MPoly":
        (ca,), (cb,), lc = _zw_lift([c])
        return MPoly._new(
            self.vars, {e: _zw_mul(x, (ca, cb)) for e, x in self.pairs.items()}, self.den * lc
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return self.scale(other)
        self._check_same_vars(other)
        return MPoly._new(self.vars, _zw_convolve(self.pairs, other.pairs), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise AlgebraError("negative polynomial power")
        if n == 0:
            return MPoly.const(self.vars, 1)
        # square-and-multiply from the base, the bits of n after the first
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.pairs.items())))

    def __repr__(self):
        return f"MPoly({render(self)!r})"

    # -- calculus / substitution -----------------------------------------
    def derivative(self, var) -> "MPoly":
        i = self.vars.index(var)
        out = {}
        for e, (a, b) in self.pairs.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1 :]] = (a * k, b * k)
        return MPoly._new(self.vars, out, self.den)

    def eval(self, values) -> Cyclo:
        """Full evaluation at a point, one Cyclo/rational value per variable:
        sum pair * prod row_i[e_i] over one power table, made one Cyclo."""
        if len(values) != len(self.vars):
            raise AlgebraError(f"eval needs {len(self.vars)} values, got {len(values)}")
        rows, d = _zw_power_table(values, map(max, zip(*self.pairs)))
        parts = [_zw_at(ab, rows, e) for e, ab in self.pairs.items()]
        return Cyclo(sum(a for a, _ in parts), sum(b for _, b in parts), self.den * d)

    def subs(self, assignment) -> "MPoly":
        """Partial substitution var name -> Cyclo value; keeps the var list.
        Every term's product is over one denominator (_zw_power_table)."""
        idx = [self.vars.index(name) for name in assignment]
        tops = [max((e[i] for e in self.pairs), default=0) for i in idx]
        table, d = _zw_power_table(assignment.values(), tops)
        rows = list(zip(idx, table))
        out = {}
        for e, ab in self.pairs.items():
            ne = list(e)
            for i, row in rows:
                ab = _zw_mul(ab, row[e[i]])
                ne[i] = 0
            ne = tuple(ne)
            old = out.get(ne)
            out[ne] = ab if old is None else (old[0] + ab[0], old[1] + ab[1])
        return MPoly._new(self.vars, out, self.den * d)

    def compose(self, images) -> "MPoly":
        """Substitute images[i] (MPoly over a common var list) for vars[i].

        With self's coefficients (a, b) / L and image i as P_i / d_i, E_i
        the top exponent of vars[i], a term (a, b) / L * prod
        (P_i / d_i)^k_i is (a, b) * prod d_i^(E_i - k_i) * P_i^k_i over the
        one denominator L * prod d_i^E_i.  The powers P_i^k are cached and
        the terms summed in one dict of pairs."""
        if len(images) != len(self.vars):
            raise AlgebraError("compose needs one image per variable")
        target_vars = images[0].vars
        for img in images:
            img._check_same_vars(images[0])
        terms, tops = self.pairs, [max(col) for col in zip(*self.pairs)]
        den = self.den * math.prod(img.den**top for img, top in zip(images, tops))
        zero = (0,) * len(target_vars)
        pows = [[{zero: (1, 0)}] for _ in images]  # pows[i][k] = P_i^k
        total = {}
        for e, (a, b) in terms.items():
            s = math.prod(img.den ** (top - k) for img, top, k in zip(images, tops, e))
            t = {zero: (a * s, b * s)}
            for i, k in enumerate(e):
                if k:
                    cache = pows[i]
                    while len(cache) <= k:
                        cache.append(_zw_convolve(cache[-1], images[i].pairs))
                    t = _zw_convolve(t, cache[k])
            for key, (x, y) in t.items():
                old = total.get(key)
                total[key] = (x, y) if old is None else (old[0] + x, old[1] + y)
        return MPoly._new(target_vars, total, den)

    def jet(self, values, free, names, top) -> dict:
        """{d: the nonzero part of degree d <= top} of self recentred at the
        point values, self(values + sum_j names[j] * e_free[j]), in the new
        variables names, one per coordinate index in free.  By Taylor, the
        coefficient of names^s is the sum over the terms c_e * x^e of c_e *
        prod C(e_i, s_i) * values^(e - s), read off one power table."""
        rows, d = _zw_power_table(values, map(max, zip(*self.pairs)))
        ranges = [range(top + 1) if i in free else (0,) for i in range(len(self.vars))]
        shifts = [s for s in itertools.product(*ranges) if sum(s) <= top]
        keys = [tuple(s[i] for i in free) for s in shifts]
        out = {}
        for e, (a, b) in self.pairs.items():
            for s, key in zip(shifts, keys):
                c = math.prod(map(math.comb, e, s))  # 0 unless s <= e
                if c:
                    x, y = _zw_at((a * c, b * c), rows, [k - j for k, j in zip(e, s)])
                    old = out.get(key, (0, 0))
                    out[key] = (old[0] + x, old[1] + y)
        return MPoly._new(names, out, self.den * d).homogeneous_parts()

    def homogeneous_parts(self) -> dict:
        """{d: the sum of the terms of total degree d} over the nonzero parts."""
        out = {}
        for e, ab in self.pairs.items():
            out.setdefault(sum(e), {})[e] = ab
        return {d: MPoly._new(self.vars, t, self.den) for d, t in out.items()}

    def divide_exact(self, d: "MPoly") -> "MPoly":
        """Exact division; raises NotDivisible when a remainder survives.

        With P/L = self, Q/M = d and l the leading pair of Q, the pairs P
        are divided by D = Q * conj(l), whose leading coefficient is the
        int N(l), and the quotient times conj(l) * M / L is self / d.  The
        remainder's exponents wait in a heap in grlex order, so each leading
        term is taken once: a monomial divisor costs one pass.  A quotient
        part is an int while N(l) divides it, a Fraction after."""
        self._check_same_vars(d)
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        dlead = d.leading_exponents()
        ca, cb, norm = _zw_conj_norm(*d.pairs[dlead])
        rest = [(e, _zw_mul(ab, (ca, cb))) for e, ab in d.pairs.items() if e != dlead]
        rem = dict(self.pairs)
        heap = [_grlex_heap_key(e) for e in rem]
        heapq.heapify(heap)
        quot = {}
        while heap:
            e = tuple(-k for k in heapq.heappop(heap)[1])
            r = rem.pop(e, None)
            if r is None:
                continue
            qe = tuple(a - b for a, b in zip(e, dlead))
            if any(k < 0 for k in qe):
                raise NotDivisible(render(self))
            qc = tuple(x // norm if not x % norm else Fraction(x, norm) for x in r)
            quot[qe] = qc
            # every term of D below its lead lands below e in grlex order
            for de, dab in rest:
                ke = tuple(a + b for a, b in zip(qe, de))
                s, t = _zw_mul(qc, dab)
                old = rem.get(ke)
                if old is None:
                    rem[ke] = (-s, -t)
                    heapq.heappush(heap, _grlex_heap_key(ke))
                elif old == (s, t):
                    del rem[ke]
                else:
                    rem[ke] = (old[0] - s, old[1] - t)
        den = math.lcm(*(x.denominator for ab in quot.values() for x in ab))
        scale = (ca * d.den, cb * d.den)
        out = {
            e: _zw_mul((a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)), scale)
            for e, (a, b) in quot.items()
        }
        return MPoly._new(self.vars, out, den * self.den)


def _convolve(f, g):
    """Product of two int coefficient lists, low -> high."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, x in enumerate(f):
        for j, y in enumerate(g, i):
            out[j] += x * y
    return out


def restrict(p: MPoly, P, Q) -> "UPoly":
    """p(P + t Q) as a UPoly, for rational points P and Q (int or Fraction
    coordinates, one per variable).  The coordinates are ints over one
    denominator D and never meet a Q(w) product: each term
    (a, b) / den * x^e adds (a, b) * D^(top - |e|) times the int
    coefficients of the product of the (D P_i + D Q_i t)^(e_i), top the
    largest |e|, all over den * D^top.  A power's low zeros are kept as a
    shift, and a power with one coefficient left is a scalar factor."""
    D = math.lcm(*(v.denominator for v in (*P, *Q)))
    forms = [(int(u * D), int(v * D)) for u, v in zip(P, Q, strict=True)]
    powers = [[(0, [1])] for _ in forms]  # (shift, ints) of each form's powers
    top = p.degree()
    a, b = [0] * (top + 1), [0] * (top + 1)
    for e, (xa, xb) in p.pairs.items():
        shift, c, row = 0, D ** (top - sum(e)), [1]
        for (A, B), pw, k in zip(forms, powers, e, strict=True):
            while len(pw) <= k:
                s, f = pw[-1]
                pw.append((s + (not A), _convolve(f, (A, B) if A and B else (A or B,))))
            s, f = pw[k]
            shift += s
            if len(f) > 1:
                row = _convolve(row, f)
            else:
                c *= f[0]
        xa, xb = xa * c, xb * c
        for n, v in enumerate(row, shift):
            a[n] += xa * v
            b[n] += xb * v
    return UPoly._new(zip(a, b), p.den * D**top)


def _cube_pencil(A: "UPoly", l: "UPoly"):
    """(u, V, flat) for polynomials A and l in t with deg A = 3 deg l: the
    pencil u = A - m l^3 in (t, m), its critical-value polynomial
    V = A' l - 3 A l' up to a scalar, and whether u at m* = lc(A) / lc(l^3)
    is a nonzero constant.  V is free of m, of degree below deg A' l (the
    leading terms cancel), and equals u' l - 3 u l' for every m, so it
    vanishes at every double root of u.  Built on the int pairs."""
    a, b = A.pairs, l.pairs
    b3 = _zw_poly_mul(_zw_poly_mul(b, b), b)
    # lc(l^3) u(m*) over the denominators: zero where the pairs agree
    at_star = [_zw_mul(b3[-1], x) != _zw_mul(a[-1], y) for x, y in zip(a, b3)]
    x, y = _zw_poly_mul(_zw_derivative(a), b), _zw_poly_mul(a, _zw_derivative(b))
    tm = ("t", "m")
    V = {(k, 0): (p - 3 * r, q - 3 * s) for k, ((p, q), (r, s)) in enumerate(zip(x, y))}
    dA, dl3 = A.den, l.den**3
    u = {(k, 0): (p * dl3, q * dl3) for k, (p, q) in enumerate(a)}
    u.update({(k, 1): (-p * dA, -q * dA) for k, (p, q) in enumerate(b3)})
    return MPoly._new(tm, u), MPoly._new(tm, V), at_star[0] and not any(at_star[1:])


# ---------------------------------------------------------------------------
# Parser / renderer
# ---------------------------------------------------------------------------


class ParseError(AlgebraError):
    def __init__(self, message, pos):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


# Fixed limits on what one expression may expand to, checked before each
# product and power is formed, so that a short input such as a huge power
# of a sum fails at once.  The reach of an expression is its degree with
# every number and w counted as a variable too, so it bounds the size of
# the coefficients as well; the term count of a product or power is
# bounded by the product of the factors' term counts (the multinomial
# count for a power) and by the monomials of degree at most its reach.
MAX_PARSE_DEGREE = 100
MAX_PARSE_TERMS = 10_000
MAX_PARSE_DEPTH = 100  # nested parentheses
MAX_PARSE_DIGITS = 1000  # of a numerator or denominator


class _Parser:
    """Recursive-descent parser for the polynomial expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' natural)?
    base   := rational | 'w' | variable | '(' expr ')'

    expr, term, factor and base return (polynomial, reach).
    """

    def __init__(self, text, variables):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.variables = tuple(variables)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def bound(self, reach, terms):
        """ParseError unless a product or power of this reach and at most
        terms terms stays within the fixed limits."""
        if reach > MAX_PARSE_DEGREE:
            raise ParseError(f"degree above {MAX_PARSE_DEGREE}", self.pos)
        monomials = math.comb(reach + len(self.variables), reach)
        if min(terms, monomials) > MAX_PARSE_TERMS:
            raise ParseError(f"more than {MAX_PARSE_TERMS} terms", self.pos)

    def parse(self) -> MPoly:
        p, _reach = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return p

    def expr(self):
        # allow a leading sign on the first term
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        elif self.peek() == "+":
            self.pos += 1
        p, reach = self.term()
        if sign < 0:
            p = -p
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            q, r = self.term()
            p = p + q if op == "+" else p - q
            reach = max(reach, r)
        return p, reach

    def term(self):
        p, reach = self.factor()
        while self.peek() == "*":
            self.pos += 1
            q, r = self.factor()
            self.bound(reach + r, len(p.pairs) * len(q.pairs))
            p, reach = p * q, reach + r
        return p, reach

    def factor(self):
        p, reach = self.base()
        if self.peek() == "^":
            self.pos += 1
            n = self.natural()
            self.bound(reach * n, math.comb(n + max(len(p.pairs), 1) - 1, n))
            p, reach = p**n, reach * n
        return p, reach

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected exponent", self.pos)
        digits = self.text[start : self.pos].lstrip("0")
        if len(digits) > len(str(MAX_PARSE_DEGREE)) or int(digits or 0) > MAX_PARSE_DEGREE:
            raise ParseError(f"exponent above {MAX_PARSE_DEGREE}", start)
        return int(digits or 0)

    def base(self):
        ch = self.peek()
        if ch == "(":
            self.depth += 1
            if self.depth > MAX_PARSE_DEPTH:
                raise ParseError(f"more than {MAX_PARSE_DEPTH} nested parentheses", self.pos)
            self.pos += 1
            p = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            self.depth -= 1
            return p
        if ch.isdigit() or ch == "-":
            return MPoly.const(self.variables, self.rational()), 1
        if ch.isalpha() or ch == "_":
            name = self.identifier()
            if name == "w":
                return MPoly.const(self.variables, OMEGA), 1
            if name not in self.variables:
                raise ParseError(f"unknown variable {name!r}", self.pos)
            return MPoly.variable(name, self.variables), 1
        raise ParseError("expected a value", self.pos)

    def identifier(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def digits(self, start) -> int:
        """The integer written from start to pos, of at most
        MAX_PARSE_DIGITS digits."""
        if self.pos - start > MAX_PARSE_DIGITS:
            raise ParseError(f"number above {MAX_PARSE_DIGITS} digits", start)
        return int(self.text[start : self.pos])

    def rational(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ParseError("expected integer", start)
        num = self.digits(start)
        if self.peek() == "/":
            save = self.pos
            self.pos += 1
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == dstart:
                self.pos = save
                return Fraction(num)
            den = self.digits(dstart)
            if den == 0:
                raise ParseError("zero denominator", dstart)
            return Fraction(num, den)
        return Fraction(num)


def parse_poly(text: str, variables) -> MPoly:
    """Parse a polynomial expression; 'w' denotes the cube root of unity."""
    return _Parser(text, variables).parse()


def render(p: MPoly) -> str:
    """Canonical string form; parse_poly(render(p), p.vars) == p."""
    if p.is_zero():
        return "0"
    out = ""
    for e in sorted(p.pairs, key=_grlex_key, reverse=True):
        a, b = p.pairs[e]
        mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(p.vars, e) if k > 0)
        # a negative rational or pure-w coefficient is written as "-" and
        # its negation
        sign = "-" if (a < 0 if b == 0 else a == 0 and b < 0) else "+"
        a, b = (-a, -b) if sign == "-" else (a, b)
        co = render_coeff(a, b, p.den)
        body = mono if mono and (a, b) == (p.den, 0) else f"{co}*{mono}" if mono else co
        out += f" {sign} {body}"
    return out[3:] if out[1] == "+" else "-" + out[3:]


# ---------------------------------------------------------------------------
# Determinants and resultants
# ---------------------------------------------------------------------------


def _zw_lift(cs):
    """Scale Q(w) entries (Cyclo, int or Fraction) by the lcm of their
    denominators into Z[w]; returns (a parts, b parts, lcm) as ints."""
    cs = [c if type(c) is Cyclo else Cyclo(c) for c in cs]
    lcm = math.lcm(*(c.d for c in cs))
    return [c.p * (lcm // c.d) for c in cs], [c.q * (lcm // c.d) for c in cs], lcm


def _zw_conj_norm(a, b):
    """conj(p) = (a - b) - b*w and N(p) = a^2 - a*b + b^2 of p = a + b*w:
    p divides x in Z[w] exactly when N(p) divides both parts of x*conj(p)."""
    return a - b, -b, a * a - a * b + b * b


def _zw_mul(x, y):
    """Product of two Z[w] int pairs."""
    t = x[1] * y[1]
    return x[0] * y[0] - t, x[0] * y[1] + x[1] * y[0] - t


def _zw_convolve(f, g):
    """Product of two polynomials over Z[w] held as dicts exps -> (a, b) of
    ints on one variable list.  Each exponent vector is packed into one int
    with a slot per variable wide enough for the product's largest
    exponent (Kronecker substitution), so the double loop adds ints; each
    output key is unpacked once and zero pairs are dropped."""
    if not f or not g:
        return {}
    top = max(max(e, default=0) for e in f) + max(max(e, default=0) for e in g)
    width = max(top.bit_length(), 1)
    shifts = range(0, width * len(next(iter(f))), width)

    def pack(e):
        return sum(k << s for k, s in zip(e, shifts))

    gs = [(pack(e), a, b) for e, (a, b) in g.items()]
    out = {}
    for e, (a1, b1) in f.items():
        k1 = pack(e)
        for k2, a2, b2 in gs:
            k = k1 + k2
            t = b1 * b2
            a, b = a1 * a2 - t, a1 * b2 + b1 * a2 - t
            old = out.get(k)
            out[k] = (a, b) if old is None else (old[0] + a, old[1] + b)
    mask = (1 << width) - 1
    return {
        tuple(k >> s & mask for s in shifts): ab
        for k, ab in out.items()
        if ab != (0, 0)
    }


def _zw_divide(xs, d):
    """Each Z[w] pair of xs divided exactly by the pair d; InvariantError
    on a remainder."""
    if d == (1, 0):
        return list(xs)
    ca, cb, norm = _zw_conj_norm(*d)
    out = []
    for xa, xb in xs:
        t = xb * cb
        qa, ea = divmod(xa * ca - t, norm)
        qb, eb = divmod(xa * cb + xb * ca - t, norm)
        if ea or eb:
            raise InvariantError("inexact division in Z[w]")
        out.append((qa, qb))
    return out


def _zw_gcd(x, y):
    """A gcd of two Z[w] pairs by Euclid's algorithm: Z[w] is
    norm-Euclidean, rounding both parts of x/y to the nearest integer."""
    while y != (0, 0):
        ca, cb, norm = _zw_conj_norm(*y)
        q = tuple((2 * v + norm) // (2 * norm) for v in _zw_mul(x, (ca, cb)))
        m = _zw_mul(q, y)
        x, y = y, (x[0] - m[0], x[1] - m[1])
    return x


def _zw_pow(x, e):
    """The Z[w] pair x to the power e >= 0."""
    return functools.reduce(_zw_mul, [x] * e, (1, 0))


def _zw_power_table(values, tops):
    """The one power table of evaluation: for values (a_i + b_i*w) / d over
    one denominator d, rows of Z[w] pairs row_i[k] = (a_i + b_i*w)^k *
    d^(top_i - k), k = 0..top_i, and their one denominator d^sum(tops)."""
    A, B, d = _zw_lift(values)
    rows, tops = [], list(tops)
    for a, b, top in zip(A, B, tops):
        row = [(d**top, 0)]
        for _ in range(top):
            x, y = _zw_mul(row[-1], (a, b))
            row.append((x // d, y // d))
        rows.append(row)
    return rows, d ** sum(tops)


def _zw_at(ab, rows, exps):
    """ab * prod rows[i][exps[i]] over a power table (_zw_mul, inlined)."""
    a, b = ab
    for row, k in zip(rows, exps):
        c, d = row[k]
        t = b * d
        a, b = a * c - t, a * d + b * c - t
    return a, b


def monomials(degree, weights) -> list:
    """The exponent tuples of a weighted degree, the first exponent
    ascending and the rest in the same order."""
    w, *rest = weights
    if not rest:
        return [(degree // w,)] if degree >= 0 and not degree % w else []
    return [(i, *e) for i in range(degree // w + 1) for e in monomials(degree - i * w, rest)]


def monomial_values(values, exps, order=None) -> list:
    """One Cyclo per exponent tuple of exps: the monomial, or its
    derivative of the given order (one count per variable), at the point
    values.  The derivative of x^e of order k is the falling factorial
    e!/(e - k)! times x^(e - k), and 0 when some k_i > e_i."""
    order = tuple(order or (0,) * len(values))
    if any(len(e) != len(values) for e in [order, *exps]):
        raise AlgebraError("monomial values need one exponent per coordinate")
    rows, den = _zw_power_table(values, map(max, zip(order, *exps)))
    return [  # the falling factorial c is 0 when some k_i > e_i
        Cyclo(*_zw_at((c, 0), rows, [max(x - k, 0) for x, k in zip(e, order)]), den)
        for e in exps
        for c in [math.prod(map(math.perm, e, order))]
    ]


def _zw_prs(f, g):
    """The subresultant PRS (Collins, JACM 14, 1967; Brown-Traub, JACM 18,
    1971) of f and g, polynomials over Z[w] held as lists of int pairs
    low -> high without zero leading pairs, deg f >= deg g >= 0.  While
    deg g > 0, each pseudo-remainder lc(g)^(delta+1) * f mod g, delta =
    deg f - deg g, is divided by s * h^delta, exactly (InvariantError
    otherwise), and replaces (f, g) by (g, quotient); then s = lc(g) and
    h = s^delta / h^(delta-1).  A zero pseudo-remainder ends the sequence.

    Returns (f, g, h, sign): the last pair, whose g is then a gcd of the
    inputs (when deg g > 0, g divides f), the last h, and the product of
    (-1)^(deg f * deg g) over the steps taken."""
    s = h = (1, 0)
    sign = 1
    while len(g) > 1:
        m, n = len(f) - 1, len(g) - 1
        delta = m - n
        if m * n % 2:
            sign = -sign
        # pseudo-remainder: r <- lc(g) * r - r[k] * x^(k-n) * g, k = m..n,
        # with the pair products written out (w^2 = -1 - w)
        la, lb = g[-1]
        low = g[:-1]
        r = f
        for k in range(m, n - 1, -1):
            ca, cb = r[-1]
            r = [(la * xa - (t := lb * xb), la * xb + lb * xa - t) for xa, xb in r[:-1]]
            for j, (ya, yb) in enumerate(low, k - n):
                t = cb * yb
                xa, xb = r[j]
                r[j] = xa - ca * ya + t, xb - ca * yb - cb * ya + t
        while r and r[-1] == (0, 0):
            r.pop()
        if not r:
            break
        f, g = g, _zw_divide(r, _zw_mul(s, _zw_pow(h, delta)))
        s = f[-1]
        if delta:
            h = _zw_divide([_zw_pow(s, delta)], _zw_pow(h, delta - 1))[0]
    return f, g, h, sign


def _zw_res(pv, qv):
    """The resultant of two polynomials over Z[w], lists of int pairs
    low -> high at the formal degrees m = len(pv) - 1 and
    n = len(qv) - 1, in the Sylvester convention (p rows first), as an
    int pair.

    At a formal degree 0 the Sylvester matrix is the constant times the
    identity, so the result is pv[0]^n (or qv[0]^m) whatever the other
    side is, all zero pairs included.  Otherwise zero leading pairs are
    dropped first: if both sides drop, the first Sylvester column is
    zero and so is the result; if p drops by k the result gains
    (-1)^(n*k) * lc(q)^k, if q drops by k it gains lc(p)^k.  At the
    actual degrees the inputs are ordered deg A >= deg B (swapping
    them gives (-1)^(deg p * deg q)) and run through _zw_prs, each step
    giving (-1)^(deg A * deg B).  A zero remainder (a common factor)
    makes the result 0; otherwise the sequence ends at a constant B and
    the result is lc(B)^(deg A) / h^(deg A - 1) (c^(deg A) when the input
    B already has degree 0)."""
    m, n = len(pv) - 1, len(qv) - 1
    if not m:
        return _zw_pow(pv[0], n)
    if not n:
        return _zw_pow(qv[0], m)
    p, q = list(pv), list(qv)
    for u in (p, q):
        while u and u[-1] == (0, 0):
            u.pop()
    kp, kq = m + 1 - len(p), n + 1 - len(q)
    if not p or not q or kp and kq:
        return (0, 0)
    scale, sign = (1, 0), 1
    if kp:
        scale, sign = _zw_pow(q[-1], kp), (-1) ** (n * kp)
    elif kq:
        scale = _zw_pow(p[-1], kq)
    if len(p) < len(q):
        p, q = q, p
        sign *= (-1) ** ((len(p) - 1) * (len(q) - 1))
    f, g, h, s = _zw_prs(p, q)
    if len(g) > 1:
        return (0, 0)
    d = len(f) - 1
    res = _zw_divide([_zw_mul(scale, _zw_pow(g[0], d))], _zw_pow(h, d - 1))[0]
    return res if sign * s > 0 else (-res[0], -res[1])


def echelon_zw(rows, reduced=False):
    """Fraction-free row echelon form over Z[w] of a matrix over Q(w) with
    entries Cyclo, int or Fraction, exact on any shape and rank.

    Each row is scaled by the lcm of its denominators (_zw_lift), so the
    matrix has the entries A[i][j] + B[i][j]*w in Z[w], held as int rows A
    and B and eliminated in place.  Columns are taken left to right
    and a column with no nonzero entry at or below the current row is
    skipped.  Bareiss elimination (Math. Comp. 22, 1968) makes every entry
    a minor of the matrix, so the division by the previous pivot p is
    exact in Z[w]: multiply by conj(p) and divide both parts by N(p).  A
    remainder raises InvariantError.

    With reduced=True the rows above each pivot are eliminated as well
    (fraction-free Gauss-Jordan): each pivot column then holds the last
    pivot d in its own row and 0 elsewhere, so the reduced row echelon
    form is the first len(pivots) rows divided by d.

    Returns (A, B, pivots, sign, den): the a and b parts of the
    eliminated matrix, the pivot columns, the sign of the row permutation
    and den, the product of the row scales.
    """
    den = 1
    A, B = [], []
    for r in rows:
        ra, rb, lcm = _zw_lift(r)
        den *= lcm
        A.append(ra)
        B.append(rb)
    nrows = len(A)
    ncols = len(A[0]) if A else 0
    pivots = []
    sign = 1
    k = 0  # the current row
    for c in range(ncols):
        if k == nrows:
            break
        if A[k][c] == 0 and B[k][c] == 0:
            for i in range(k + 1, nrows):
                if A[i][c] or B[i][c]:
                    A[k], A[i] = A[i], A[k]
                    B[k], B[i] = B[i], B[k]
                    sign = -sign
                    break
            else:
                continue
        Ak, Bk = A[k], B[k]
        pa, pb = Ak[c], Bk[c]
        if k:
            ra, rb, norm = _zw_conj_norm(qa, qb)
        for i in range(0 if reduced else k + 1, nrows):
            if i == k:
                continue
            Ai, Bi = A[i], B[i]
            ca, cb = Ai[c], Bi[c]
            # below row k every column left of c is already zero
            for j in range(0 if i < k else c + 1, ncols):
                # (p * m[i][j] - c * m[k][j]), with w^2 = -1 - w
                xa, xb, ya, yb = Ai[j], Bi[j], Ak[j], Bk[j]
                t = pb * xb - cb * yb
                na = pa * xa - ca * ya - t
                nb = pa * xb + pb * xa - ca * yb - cb * ya - t
                if k:
                    t = nb * rb
                    na, nb = na * ra - t, na * rb + nb * ra - t
                    na, ea = divmod(na, norm)
                    nb, eb = divmod(nb, norm)
                    if ea or eb:
                        raise InvariantError("inexact Bareiss division in Z[w]")
                Ai[j], Bi[j] = na, nb
            Ai[c] = Bi[c] = 0
        pivots.append(c)
        qa, qb = pa, pb  # the previous pivot
        k += 1
    return A, B, pivots, sign, den


def echelon_det(rows) -> Cyclo:
    """Determinant of a square matrix over Q(w) from echelon_zw: the sign
    times the last pivot over the row scales, or 0 below full rank."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise AlgebraError("determinant of a non-square matrix")
    A, B, pivots, sign, den = echelon_zw(rows)
    if len(pivots) < n:
        return C_ZERO
    return Cyclo(sign * A[-1][-1], sign * B[-1][-1], den)


def det_cyclo(rows) -> Cyclo:
    """Determinant of a square matrix over Q(w), by fraction-free Bareiss
    over Z[w] (echelon_zw)."""
    if not rows:
        raise AlgebraError("empty matrix")
    return echelon_det(rows)


def _interp_points(n):
    pts = [0]
    k = 1
    while len(pts) < n:
        pts.append(k)
        if len(pts) < n:
            pts.append(-k)
        k += 1
    return pts[:n]


def _interpolate(xs, columns):
    """Coefficients, low -> high, of the polynomials taking the integer
    values of each column at the integer nodes xs, by Newton's divided
    differences.  The divided differences of t^n at integer nodes are
    complete homogeneous symmetric polynomials in the nodes, so those of a
    polynomial over Z are integers and every division is exact; a
    remainder raises InvariantError."""
    n = len(xs)
    basis = [[1]]  # prod_{i<j} (t - xs[i]), integer coefficients low -> high
    for x in xs[:-1]:
        b = basis[-1]
        basis.append([u - v * x for u, v in zip([0] + b, b + [0])])
    out = []
    for ys in columns:
        d = list(ys)
        for j in range(1, n):
            for i in range(n - 1, j - 1, -1):
                d[i], r = divmod(d[i] - d[i - 1], xs[i] - xs[i - j])
                if r:
                    raise InvariantError("inexact divided difference in Z[w]")
        coeffs = [0] * n
        for dj, b in zip(d, basis):
            if dj:
                for i, c in enumerate(b):
                    coeffs[i] += dj * c
        out.append(coeffs)
    return out


def resultant(p: MPoly, q: MPoly, var) -> UPoly:
    """Resultant with respect to var, in the Sylvester determinant
    convention, of two polynomials in var and at most one other active
    variable s, as a UPoly in s; a second other variable raises.

    p and q are held as Z[w] int pairs (a, b) = a + b*w over their
    denominators Lp, Lq; the determinant of the Sylvester matrix of the
    pairs at the formal degrees dp, dq is Lp^dq * Lq^dp times the
    resultant.  It is taken by evaluation and interpolation (Collins,
    JACM 18, 1971): each coefficient of var, a dense pair list in s, is
    evaluated at integer samples of s, each sample's determinant is the
    last subresultant of the PRS that UPoly.gcd runs (_zw_res), and both
    parts are interpolated in s at once; no Sylvester matrix is built.

    The number of samples is one more than the smaller of two bounds on
    the degree in s: the column bound dq*max deg_s(pc) + dp*max deg_s(qc),
    and the total-degree bound Dp*dq + Dq*dp - dp*dq, D the total degree
    (scaling var and s by u makes the k-th coefficient u^k * pc[k](u*s),
    of degree at most Dp in u, and the determinant gains u^(dp*dq))."""
    if p.is_zero() or q.is_zero():
        raise AlgebraError("resultant of the zero polynomial")
    p._check_same_vars(q)
    dp, dq = p.degree_in(var), q.degree_in(var)
    if dp == 0 and dq == 0:
        raise AlgebraError("resultant needs positive degree in the variable")
    i = p.vars.index(var)
    if len({j for f in (p, q) for e in f.pairs for j, k in enumerate(e) if k and j != i}) > 1:
        raise AlgebraError("resultant needs at most one variable besides the eliminated one")
    pc, qc = ([[] for _ in range(d + 1)] for d in (dp, dq))
    for f, cs in ((p, pc), (q, qc)):
        for e, ab in f.pairs.items():
            c, k = cs[e[i]], sum(e) - e[i]  # the degree in s
            c.extend([(0, 0)] * (k + 1 - len(c)))
            c[k] = ab
    sp, sq = (max(map(len, cs)) - 1 for cs in (pc, qc))
    bound = min(dq * sp + dp * sq, p.degree() * dq + q.degree() * dp - dp * dq)
    xs = _interp_points(bound + 1)
    values = []
    for x in xs:
        at_x = []
        for c in pc + qc:
            a = b = 0
            for ca, cb in reversed(c):
                a, b = a * x + ca, b * x + cb
            at_x.append((a, b))
        values.append(_zw_res(at_x[: dp + 1], at_x[dp + 1 :]))
    return UPoly._new(zip(*_interpolate(xs, zip(*values))), p.den**dq * q.den**dp)


# ---------------------------------------------------------------------------
# Univariate polynomials over Q(w) (internal helper representation); gcd
# from one image mod P, certified by exact division, else by the
# fraction-free subresultant PRS over Z[w] (_zw_prs, shared with the
# resultant's samples)
# ---------------------------------------------------------------------------

# The one prime of the modular images (UPoly.gcd here, linalg.rank's
# elimination); P = 1 mod 3, so w has an image in F_P.
_P = (1 << 61) - 1


@functools.cache
def _p_image():
    """(r, basis): w -> r, a primitive cube root of 1 mod P, and the
    Gauss-reduced basis of the pairs that map to 0 mod P (_gauss_basis)."""
    r = _cube_root_of_unity(_P)
    return r, _gauss_basis(r, _P)


def _zw_quotient(f, d):
    """f / d for polynomials over Z[w] (int-pair lists low -> high, d with
    a nonzero leading pair) when d divides f over Z[w], else None: long
    division whose every quotient coefficient is an exact Z[w] division by
    lc(d), stopped at the first remainder."""
    ca, cb, norm = _zw_conj_norm(*d[-1])
    low = d[:-1]
    r = list(f)
    q = [None] * (len(r) - len(d) + 1)
    for i in range(len(q) - 1, -1, -1):
        xa, xb = r.pop()
        t = xb * cb
        qa, ea = divmod(xa * ca - t, norm)
        qb, eb = divmod(xa * cb + xb * ca - t, norm)
        if ea or eb:
            return None
        q[i] = qa, qb
        for j, (ya, yb) in enumerate(low, i):
            t = qb * yb
            xa, xb = r[j]
            r[j] = xa - qa * ya + t, xb - qa * yb - qb * ya + t
    if any(x != (0, 0) for x in r):
        return None
    return q


def _modular_gcd(f, g):
    """A gcd of f and g (int-pair lists, nonzero leading pairs) read from
    their images mod P, w -> r, or None where it is not certified.

    When neither leading coefficient vanishes mod P, the images keep their
    degrees and the image of the true gcd divides the image gcd h, so deg h
    bounds the true degree: h = 1 certifies 1.  Otherwise each coefficient
    of h, then of h times gamma, is read as its shortest Z[w]
    representative (_zw_shortest).  gamma is the gcd of the leading
    coefficients of the primitive parts of f and g (_zw_primitive), a
    multiple of the leading coefficient of their primitive gcd that leaves
    out the inputs' Z[w] content.  A candidate of degree deg h that divides
    both f and g exactly is a gcd, and a primitive one: the first has the
    leading pair _zw_shortest(1) = (1, 0), the second is made primitive.
    """
    r, basis = _p_image()
    fp, gp = ([(a + b * r) % _P for a, b in u] for u in (f, g))
    if not (fp[-1] and gp[-1]):
        return None
    h = _fp_gcd(fp, gp, _P)
    if len(h) == 1:
        return [(1, 0)]

    def divides_both(d):
        return _zw_quotient(f, d) is not None and _zw_quotient(g, d) is not None

    cand = [_zw_shortest(c, basis) for c in h]
    if divides_both(cand):
        return cand
    gamma = _zw_gcd(_zw_primitive(f)[-1], _zw_primitive(g)[-1])
    if _zw_conj_norm(*gamma)[2] == 1:  # a unit: the same candidate again
        return None
    s = (gamma[0] + gamma[1] * r) % _P
    cand = _zw_primitive([_zw_shortest(c * s % _P, basis) for c in h])
    return cand if divides_both(cand) else None


def _zw_primitive(f):
    """f (int pairs, a nonzero leading pair) divided by its Z[w] content, a
    gcd of its pairs; f itself once that gcd, taken from the leading pair
    down, reaches a unit, where most inputs stop at once."""
    c = (0, 0)
    for x in reversed(f):
        c = _zw_gcd(x, c)
        if _zw_conj_norm(*c)[2] == 1:
            return f
    return _zw_divide(f, c)


def _zw_poly_gcd(f, g):
    """A primitive gcd of f and g, int-pair lists with nonzero leading pairs
    and deg f >= deg g: the image mod P certified by exact division
    (_modular_gcd), else the last remainder of the subresultant PRS made
    primitive."""
    return _modular_gcd(f, g) or _zw_primitive(_zw_prs(f, g)[1])


def _zw_derivative(f):
    """f' for f an int-pair list low -> high."""
    return [(k * a, k * b) for k, (a, b) in enumerate(f)][1:]


def _zw_poly_mul(f, g):
    """f * g for int-pair lists low -> high."""
    out = [(0, 0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g, i):
            a, b = _zw_mul(x, y)
            out[j] = (out[j][0] + a, out[j][1] + b)
    return out


def _zw_exact(u, d):
    """u / d over Z[w] where the mathematics makes the division exact (d a
    primitive divisor); a remainder raises InvariantError."""
    q = _zw_quotient(u, d)
    if q is None:
        raise InvariantError("squarefree decomposition: a primitive gcd does not divide")
    return q


def _zw_squarefree(f):
    """(s, g) for f an int-pair list low -> high without a zero leading
    pair: g = gcd(f, f'), primitive, and s = f / g, the squarefree part,
    whose degree is the number of distinct roots of f (f and 1 for a
    constant f).  The first step of _zw_yun, on its own for callers that
    read only s."""
    if len(f) < 2:
        return f, [(1, 0)]
    g = _zw_poly_gcd(f, _zw_derivative(f))
    return _zw_exact(f, g), g


def _zw_yun(f):
    """Yun's squarefree decomposition (SYMSAC 1976) of f, an int-pair list
    low -> high without a zero leading pair: (s, {i: a_i}) with s = f /
    gcd(f, f') the squarefree part and f = c * prod a_i^i, the a_i
    nonconstant, primitive, squarefree and pairwise coprime (none for a
    constant f).  From b = s and c = f' / gcd(f, f'), each step takes
    d = c - b', a_i = gcd(b, d), b <- b / a_i and c <- d / a_i; d = 0
    exactly when b = a_i, the last factor (i <= deg f), and d != 0 has
    degree deg b - 1.  The gcds are primitive, so by Gauss's lemma every
    quotient is an exact Z[w] division (_zw_exact)."""
    if len(f) < 2:
        return f, {}
    s, g = _zw_squarefree(f)
    b, c = s, _zw_exact(_zw_derivative(f), g)
    parts = {}
    for i in range(1, len(f)):
        d = [(x - k * u, y - k * v) for k, ((x, y), (u, v)) in enumerate(zip(c, b[1:]), 1)]
        if all(t == (0, 0) for t in d):
            parts[i] = _zw_primitive(b)
            return s, parts
        a = _zw_poly_gcd(b, d)
        if len(a) > 1:
            parts[i] = a
        b, c = _zw_exact(b, a), _zw_exact(d, a)
    raise InvariantError("Yun decomposition: no multiplicity up to deg f ends it")


@dataclass(frozen=True, slots=True)
class UPoly:
    """Dense univariate polynomial over Q(w): the coefficient of t^k is
    pairs[k] / den, pairs a tuple of Z[w] int pairs low -> high without a
    zero leading pair, in MPoly's canonical form (den > 0, gcd(den, every
    part) = 1), so equal polynomials have equal pairs and den.  coeffs is
    the read-only tuple of Cyclo coefficients, built at most once."""

    pairs: tuple
    den: int
    _view: object = field(default=None, compare=False, repr=False)

    def __init__(self, coeffs):
        """The polynomial with coefficients coeffs (Cyclo, int or Fraction),
        low -> high."""
        A, B, den = _zw_lift(coeffs)
        self._store(zip(A, B), den)

    @staticmethod
    def _new(pairs, den=1) -> "UPoly":
        """The polynomial with coefficients pairs[k] / den, pairs an
        iterable of int pairs low -> high."""
        u = object.__new__(UPoly)
        u._store(pairs, den)
        return u

    def _store(self, pairs, den):
        """Set the fields to the canonical form of pairs / den."""
        pairs = list(pairs)
        while pairs and pairs[-1] == (0, 0):
            pairs.pop()
        if not pairs:
            den = 1
        elif den != 1:
            g = _reduced(pairs, den)
            if g != 1:
                pairs = [(a // g, b // g) for a, b in pairs]
                den //= g
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_view", None)

    @property
    def coeffs(self):
        """The coefficients low -> high as a tuple of Cyclo."""
        if self._view is None:
            object.__setattr__(self, "_view", tuple(Cyclo(*ab, self.den) for ab in self.pairs))
        return self._view

    @staticmethod
    def from_mpoly(p: MPoly, var) -> "UPoly":
        i = p.vars.index(var)
        if any(e[j] for e in p.pairs for j in range(len(p.vars)) if j != i):
            raise AlgebraError("polynomial is not univariate in the given variable")
        pairs = [(0, 0)] * (p.degree_in(var) + 1)
        for e, ab in p.pairs.items():
            pairs[e[i]] = ab
        return UPoly._new(pairs, p.den)

    def to_mpoly(self, var, variables) -> MPoly:
        variables = tuple(variables)
        i = variables.index(var)
        exps = [(0,) * i + (k,) + (0,) * (len(variables) - i - 1) for k in range(len(self.pairs))]
        return MPoly._new(variables, dict(zip(exps, self.pairs)), self.den)

    def degree(self) -> int:
        return len(self.pairs) - 1

    def is_zero(self) -> bool:
        return not self.pairs

    # sums, products, monic and evaluation are MPoly's, in the one variable t
    def _in_t(self) -> MPoly:
        return self.to_mpoly("t", ("t",))

    def __add__(self, other):
        return UPoly.from_mpoly(self._in_t() + other._in_t(), "t")

    def __neg__(self):
        return UPoly._new([(-a, -b) for a, b in self.pairs], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = other._in_t() if isinstance(other, UPoly) else other
        return UPoly.from_mpoly(self._in_t() * other, "t")

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("univariate division by zero")
        r = list(self.coeffs)
        d = other.degree()
        lc = other.coeffs[-1]
        q = [C_ZERO] * max(len(r) - d, 0)
        for i in range(len(r) - 1, d - 1, -1):
            if r[i].is_zero():
                continue
            f = r[i] / lc
            q[i - d] = f
            for j, b in enumerate(other.coeffs):
                r[i - d + j] = r[i - d + j] - f * b
        return UPoly(q), UPoly(r)

    def monic(self) -> "UPoly":
        return UPoly.from_mpoly(self._in_t().monic(), "t")

    def eval(self, x) -> Cyclo:
        return self._in_t().eval((x,))

    def conjugate(self) -> "UPoly":
        return UPoly._new([(a - b, -b) for a, b in self.pairs], self.den)

    def gcd(self, other) -> "UPoly":
        """Monic gcd of the inputs, from their Z[w] int pairs (a, b) =
        a + b*w.  The gcd is read from one image mod P and certified by
        exact division (_modular_gcd); where that declines it is the last
        nonzero remainder of the subresultant PRS (_zw_prs, the one the
        resultant's samples run)."""
        f, g = (self, other) if self.degree() >= other.degree() else (other, self)
        if g.is_zero():
            return f.monic()
        return UPoly._new(_zw_poly_gcd(f.pairs, g.pairs)).monic()

    def squarefree_part(self) -> "UPoly":
        """Monic self / gcd(self, self'): _zw_squarefree on the pairs."""
        return UPoly._new(_zw_squarefree(self.pairs)[0]).monic()

    def squarefree_factors(self) -> dict:
        """Yun's squarefree decomposition (_zw_yun) {i: monic a_i}: self is
        its leading coefficient times prod a_i^i, the a_i nonconstant,
        squarefree and pairwise coprime; empty for a constant."""
        return {i: UPoly._new(a).monic() for i, a in _zw_yun(self.pairs)[1].items()}


# ---------------------------------------------------------------------------
# Roots inside Q(w): p-adic lifting, every root checked exactly
# ---------------------------------------------------------------------------


def _fp_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _fp_sub(f, g, p):
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return _fp_trim([(x - y) % p for x, y in zip(f, g)])


def _fp_mul(f, g, p):
    return [c % p for c in _convolve(f, g)]


def _fp_divmod(f, g, p):
    """Quotient and remainder of f by g != 0 over F_p, lists low -> high."""
    r = list(f)
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(r) - len(g) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r.pop() * inv % p
        for j, y in enumerate(g[:-1], i):
            r[j] = (r[j] - c * y) % p
    return _fp_trim(q), _fp_trim(r)


def _fp_gcd(f, g, p):
    """Monic gcd over F_p of f != 0 and g."""
    while g:
        f, g = g, _fp_divmod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _fp_powmod(f, e, m, p):
    """f^e mod m over F_p, by repeated squaring."""
    out = [1]
    while e:
        if e & 1:
            out = _fp_divmod(_fp_mul(out, f, p), m, p)[1]
        f = _fp_divmod(_fp_mul(f, f, p), m, p)[1]
        e >>= 1
    return out


def _fp_roots(f, p):
    """The roots in F_p of f, squarefree over F_p (odd p).  g = gcd(f,
    t^p - t) is the product of t - x over them; g is split by its gcd with
    (t + delta)^((p-1)/2) - 1 for delta = 0, 1, 2, ... (Cantor-Zassenhaus,
    Math. Comp. 36, 1981, with the shifts taken in turn: among any p
    consecutive shifts one separates two given roots)."""
    x = [0, 1]
    todo = [_fp_gcd(f, _fp_sub(_fp_powmod(x, p, f, p), x, p), p)]
    roots, shifts = [], itertools.count()
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) > 2:
            h = g
            while not 1 < len(h) < len(g):
                t = _fp_powmod([next(shifts) % p, 1], (p - 1) // 2, g, p)
                h = _fp_gcd(g, _fp_sub(t, [1], p), p)
            todo += [h, _fp_divmod(g, h, p)[0]]
    return roots


def _cube_root_of_unity(q):
    """A primitive cube root of 1 mod the prime q = 1 mod 3."""
    return next(x for x in (pow(c, (q - 1) // 3, q) for c in itertools.count(2)) if x != 1)


def _hensel(cs, x, p, modulus):
    """Lift a simple root x mod p of the integer polynomial cs (low ->
    high) to a root mod modulus, a power of p, by Newton steps that double
    the precision."""
    m = p
    while m < modulus:
        m = min(m * m, modulus)
        fx = dfx = 0
        for c in reversed(cs):
            dfx = (dfx * x + fx) % m
            fx = (fx * x + c) % m
        x = (x - fx * pow(dfx, -1, m)) % m
    return x


def _zw_dot(s, t):
    """Twice the bilinear form of the norm |a + b*w|^2 = a^2 - a*b + b^2."""
    return 2 * s[0] * t[0] - s[0] * t[1] - s[1] * t[0] + 2 * s[1] * t[1]


def _gauss_basis(r, modulus):
    """A Gauss-reduced basis (u, v), |u| <= |v|, of the lattice {(a, b) :
    a + b*r = 0 mod modulus} under the norm of Z[w]: the pairs that map to
    0 when w -> r."""
    u, v = (modulus, 0), (-r, 1)
    if _zw_dot(u, u) > _zw_dot(v, v):
        u, v = v, u
    while True:
        k = (2 * _zw_dot(u, v) + _zw_dot(u, u)) // (2 * _zw_dot(u, u))
        v = (v[0] - k * u[0], v[1] - k * u[1])
        if _zw_dot(v, v) >= _zw_dot(u, u):
            return u, v
        u, v = v, u


def _zw_shortest(y, basis):
    """A pair (a, b) with a + b*r = y mod modulus, basis = _gauss_basis(r,
    modulus), of least norm whenever the class holds a pair shorter than
    half the minimum of the lattice.  Such a pair is unique, and its
    coordinates in the Gauss-reduced basis (u, v) are below 1/sqrt(3) in
    size, so it is (y, 0) minus one of the four lattice points whose
    coordinates are floors or ceilings of (y, 0)'s; the shortest of the
    four is returned."""
    u, v = basis
    det = u[0] * v[1] - u[1] * v[0]
    c1, c2 = y * v[1], -y * u[1]
    return min(
        (
            (y - k1 * u[0] - k2 * v[0], -k1 * u[1] - k2 * v[1])
            for k1 in (c1 // det, -(-c1 // det))
            for k2 in (c2 // det, -(-c2 // det))
        ),
        key=lambda w: _zw_dot(w, w),
    )


def _root_order_key(root, mults):
    """Sort key of a root: its minimal polynomial over Q by degree, by that
    factor's multiplicity in p * conj(p), then by its primitive integer
    coefficients from the leading one down; of a conjugate pair the root
    with positive w part first."""
    p, q, d = root.p, root.q, root.d
    if q == 0:
        return 1, 2 * mults[root], [d, -p], 0
    # d^2 t^2 - (2p - q) d t + N(p + q*w), over its content
    coeffs = [d * d, (q - 2 * p) * d, p * p - p * q + q * q]
    g = math.gcd(*coeffs)
    mult = mults[root] + mults.get(root.conjugate(), 0)
    return 2, mult, [c // g for c in coeffs], 0 if q > 0 else 1


def qomega_roots(p: UPoly):
    """All roots of p inside Q(w), with multiplicities.

    Returns (roots, missing) where roots is a list of (Cyclo, multiplicity)
    and missing counts the remaining distinct roots that lie outside Q(w)
    (degree of the squarefree part not accounted for by found roots).

    _zw_yun splits the Z[w] pairs of p into its squarefree part f and the
    Yun factors a = a_i, whose roots have multiplicity i.  Take the first
    prime q = 1 mod 3, with w -> r a cube root of unity mod q, at which
    lc(f) does not vanish and f, so each a, is squarefree over F_q.  Every
    root alpha of a in Q(w) then reduces to a distinct simple root mod q,
    and lc(a)*alpha lies in Z[w].  Each root mod q is Hensel-lifted mod
    q^k > 16 max N(a_j) >= 2 (|lc(a)| + max |a_j|)^2, which exceeds
    4 |lc(a)*alpha|^2 by Cauchy's bound, and lc(a)*alpha is read off as the
    shortest element of its class (_zw_shortest): the class's differences
    form the ideal (q, w - r)^k, whose nonzero elements have norm >= q^k.
    Every candidate is checked by exact division, so missing is exact.

    Roots are ordered by _root_order_key.
    """
    if p.is_zero():
        raise AlgebraError("root-finding on the zero polynomial")
    f, parts = _zw_yun(p.pairs)
    if not parts:
        return [], 0
    for q in itertools.count(7, 6):
        if not isprime(q):
            continue
        r = _cube_root_of_unity(q)
        fq = _fp_trim([(a + b * r) % q for a, b in f])
        df = _fp_trim([k * c % q for k, c in enumerate(fq)][1:])
        if len(fq) == len(f) and len(_fp_gcd(fq, df, q)) == 1:
            break
    bound = 16 * max(a * a - a * b + b * b for u in parts.values() for a, b in u)
    modulus = q
    while modulus <= bound:
        modulus *= q
    r = _hensel([1, 1, 1], r, q, modulus)
    basis = _gauss_basis(r, modulus)
    mults = {}
    for i, u in parts.items():
        lifted = [(a + b * r) % modulus for a, b in u]
        for x in _fp_roots([c % q for c in lifted], q):
            x = _hensel(lifted, x, q, modulus)
            beta = _zw_shortest(lifted[-1] * x % modulus, basis)
            # beta / lc(u) is a root when the primitive lc(u)*t - beta divides u
            if _zw_quotient(u, _zw_primitive([(-beta[0], -beta[1]), u[-1]])) is not None:
                mults[Cyclo(*beta) / Cyclo(*u[-1])] = i
    roots = sorted(mults.items(), key=lambda item: _root_order_key(item[0], mults))
    return roots, len(f) - 1 - len(roots)


def _least_nonnegative(f, lo, hi):
    """The least int x in [lo, hi] with f(x) >= 0, f nondecreasing there
    (hi when there is none), by integer bisection."""
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if f(mid) < 0 else (lo, mid)
    return lo


def _exact_root(k, n):
    """The int r >= 0 with r^n = k, or None."""
    r = _least_nonnegative(lambda r: r**n - k, 0, 1 << (k.bit_length() // n + 1))
    return r if r**n == k else None


def cyclo_nth_roots(c: Cyclo, n: int):
    """All x in Q(w) with x^n = c, for n = 2 or 3, in _root_order_key order.

    x = y / d for c = (p + q*w) / d, where y^n = e = (p + q*w) d^(n-1) lies
    in Z[w], so y does too (Z[w] is integrally closed).  The norm N of y is
    the integer n-th root of N(e).  Its trace s solves s^2 = Tr(e) + 2N for
    n = 2 (as y^2 = s y - N); for n = 3 the largest trace of the three
    cube roots solves s^3 - 3N s = Tr(e) in [sqrt(N), 2 sqrt(N)], where the
    cubic rises, so one integer bisection finds it.  y = a + b*w with
    2a - b = s and a^2 - ab + b^2 = N gives 6a = 3s +- sqrt(3(4N - s^2)),
    and the candidate y^n = e is checked exactly; the other roots are y
    times the n-th roots of unity.
    """
    if n not in (2, 3):
        raise AlgebraError("cyclo_nth_roots takes square and cube roots only")
    if c.is_zero():
        return [C_ZERO]
    e = c * c.d**n
    N = _exact_root(int(e.norm()), n)
    if N is None:
        return []
    T = 2 * e.p - e.q
    if n == 2:
        s = _exact_root(T + 2 * N, 2)
        units = (C_ONE, -C_ONE)
    else:
        r = math.isqrt(N)
        s = _least_nonnegative(lambda s: s**3 - 3 * N * s - T, r + (r * r < N), 2 * r + 2)
        units = (C_ONE, OMEGA, OMEGA * OMEGA)
    d = None if s is None else _exact_root(3 * (4 * N - s * s), 2)
    ys = [] if d is None else [Cyclo(3 * s + k * d, 2 * k * d, 6) for k in (1, -1)]
    for y in ys:
        if y**n == e:
            roots = [y * u / c.d for u in units]
            mults = dict.fromkeys(roots, 1)
            return sorted(roots, key=lambda x: _root_order_key(x, mults))
    return []


# ---------------------------------------------------------------------------
# Exact polynomial square root
# ---------------------------------------------------------------------------


def poly_sqrt(p: MPoly):
    """Exact square root in Q(w)[x...], or NOT_A_SQUARE.

    The result's leading coefficient is normalized to the half-plane with
    rational part positive (or zero rational part and positive w part).

    p = lc * m with m monic, stored as pairs M over E.  A square root u of m
    has U = E*u in Z[w][x], because U^2 = E*M does (Gauss's lemma over the
    UFD Z[w]), so U is built on the pairs from its leading term E*x^h down:
    each next term is the remainder's leading pair over 2E, which must be
    exact.
    """
    if p.is_zero():
        return MPoly.zero(p.vars)
    lead = p.leading_exponents()
    if any(e % 2 for e in lead):
        return NOT_A_SQUARE
    lc = p.leading_coeff()
    lc_roots = [C_ONE] if lc == 1 else cyclo_nth_roots(lc, 2)
    if not lc_roots:
        return NOT_A_SQUARE
    m = p.monic()
    E = m.den
    half = tuple(e // 2 for e in lead)
    U = {half: (E, 0)}
    # the remainder E*M - (E x^h)^2, keyed by grlex order
    rem = {_grlex_key(e): (a * E, b * E) for e, (a, b) in m.pairs.items() if e != lead}
    while rem:
        key = max(rem)
        (ta, ea), (tb, eb) = (divmod(x, 2 * E) for x in rem.pop(key))
        ne = tuple(a - b for a, b in zip(key[1], half))
        if any(k < 0 for k in ne) or _grlex_key(ne) >= _grlex_key(half) or ea or eb:
            return NOT_A_SQUARE
        # rem -= t * (2 (U - E x^h) + t): every exponent lands below key
        twice = [(f, (2 * a, 2 * b)) for f, (a, b) in U.items() if f != half]
        for f, v in twice + [(ne, (ta, tb))]:
            k = _grlex_key(tuple(x + y for x, y in zip(ne, f)))
            x, y = _zw_mul((ta, tb), v)
            a, b = rem.pop(k, (0, 0))
            if (a, b) != (x, y):
                rem[k] = (a - x, b - y)
        U[ne] = (ta, tb)
    c = lc_roots[0] if cyclo_conj_sign_canonical(lc_roots[0]) else -lc_roots[0]
    return MPoly._new(p.vars, {e: _zw_mul(u, (c.p, c.q)) for e, u in U.items()}, E * c.d)


# ---------------------------------------------------------------------------
# Weighted degrees
# ---------------------------------------------------------------------------


def weighted_degree(p: MPoly, weights):
    """Maximum weighted degree over terms; sentinel for the zero polynomial."""
    if len(weights) != len(p.vars):
        raise AlgebraError("weights length must match variable count")
    if p.is_zero():
        return DEGREE_ZERO_POLY
    return max(sum(w * e for w, e in zip(weights, exps)) for exps in p.pairs)


def is_weighted_homogeneous(p: MPoly, weights) -> bool:
    if len(weights) != len(p.vars):
        raise AlgebraError("weights length must match variable count")
    degs = {sum(w * e for w, e in zip(weights, exps)) for exps in p.pairs}
    return len(degs) <= 1


# ---------------------------------------------------------------------------
# Projective points
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ProjPoint:
    """Point of P^2 over Q(w); canonical form scales the last nonzero
    coordinate to 1."""

    coords: tuple

    def __init__(self, coords):
        cs = [Cyclo._coerce(c) for c in coords]
        if len(cs) != 3:
            raise AlgebraError("projective points need 3 coordinates")
        last = None
        for i in range(2, -1, -1):
            if not cs[i].is_zero():
                last = i
                break
        if last is None:
            raise AlgebraError("(0:0:0) is not a projective point")
        inv = cs[last].inverse()
        object.__setattr__(self, "coords", tuple(c * inv for c in cs))

    def __repr__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"
