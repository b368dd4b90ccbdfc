"""Exact arithmetic over Q(w) and sparse multivariate polynomials.

The coefficient field is Q(w) where w is a primitive third root of unity,
so w^2 + w + 1 = 0.  Elements are stored as a + b*w with rational a, b.
Polynomials are sparse maps from exponent vectors to nonzero coefficients,
ordered by graded lexicographic order on the declared variable list.

Provides: parsing/rendering of polynomial expressions, the fraction-free
Z[w] elimination behind every determinant, rank and kernel of a Q(w)
matrix, Sylvester-determinant resultants by evaluation and
interpolation, the univariate subresultant gcd over Z[w] (the one gcd:
multivariate gcd degrees are read from it on lines, see
adjunction.gcd_degree), exact square roots of polynomials, and root
extraction of univariate polynomials inside Q(w) (a p-adic root finder
whose every answer is verified exactly).  The elimination, the
resultant from its inputs to its output, the gcd, the root finder's
multiplicities and MPoly multiply, substitution (so evaluation) and
composition work on Z[w] int pairs (a, b) = a + b*w, lifted once from
Q(w) by the lcm of the denominators (_zw_lift; for an MPoly, the seam
MPoly._zw / MPoly._from_zw).  Only the standard library is used.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


class AlgebraError(ValueError):
    """Base class for exact-arithmetic failures."""


class NotDivisible(AlgebraError):
    """Raised when an exact polynomial division leaves a remainder."""


class NotASquare:
    """Returned by poly_sqrt when the input has no square root in Q(w)[x]."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotASquare"

    def __bool__(self):
        return False


NOT_A_SQUARE = NotASquare()


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def isprime(n: int) -> bool:
    """Deterministic Miller-Rabin.  The prime bases up to 41 decide every
    n < 3317044064679887385961981 (Sorenson-Webster, Math. Comp. 86,
    2017); above that, every base below 2 ln(n)^2 is tried, which decides
    n under the generalized Riemann hypothesis (Bach, Math. Comp. 55,
    1990)."""
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
        bases = range(2, int(2 * math.log(n) ** 2) + 1)
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
    """An element a + b*w of Q(w), with w^2 = -w - 1."""

    a: Fraction
    b: Fraction

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    # -- ring operations --------------------------------------------------
    @staticmethod
    def _coerce(x) -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        return Cyclo(_as_fraction(x))

    def __add__(self, other):
        o = Cyclo._coerce(other)
        return Cyclo(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-Cyclo._coerce(other))

    def __rsub__(self, other):
        return Cyclo._coerce(other) + (-self)

    def __mul__(self, other):
        o = Cyclo._coerce(other)
        # (a + bw)(c + dw) = ac + (ad + bc)w + bd w^2,  w^2 = -1 - w
        a, b, c, d = self.a, self.b, o.a, o.b
        bd = b * d
        return Cyclo(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclo":
        """The image under w -> w^2 (complex conjugation on Q(w))."""
        return Cyclo(self.a - self.b, -self.b)

    def norm(self) -> Fraction:
        """Field norm a^2 - a*b + b^2; zero only for the zero element."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "Cyclo":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        c = self.conjugate()
        return Cyclo(c.a / n, c.b / n)

    def __truediv__(self, other):
        return self * Cyclo._coerce(other).inverse()

    def __rtruediv__(self, other):
        return Cyclo._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyclo(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing --------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclo(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"Cyclo({self.a}, {self.b})"

    def __str__(self):
        return render_coeff(self)


C_ZERO = Cyclo(0)
C_ONE = Cyclo(1)
OMEGA = Cyclo(0, 1)


def render_coeff(c: Cyclo) -> str:
    """Render a Q(w) element in the polynomial grammar."""
    if c.b == 0:
        return str(c.a)
    if c.a == 0:
        if c.b == 1:
            return "w"
        return f"{c.b}*w"
    if c.b > 0:
        return f"({c.a} + {c.b}*w)" if c.b != 1 else f"({c.a} + w)"
    return f"({c.a} - {-c.b}*w)" if c.b != -1 else f"({c.a} - w)"


def cyclo_conj_sign_canonical(c: Cyclo) -> bool:
    """True when c lies in the canonical half-plane (a > 0, or a == 0, b > 0)."""
    return c.a > 0 or (c.a == 0 and c.b > 0)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------

DEGREE_ZERO_POLY = -1  # degree sentinel for the zero polynomial


def _grlex_key(exps):
    return (sum(exps), exps)


@dataclass(frozen=True, slots=True)
class MPoly:
    """Sparse multivariate polynomial over Q(w).

    terms maps exponent tuples to nonzero Cyclo coefficients.  Instances
    are treated as immutable; all operations return new polynomials.
    """

    vars: tuple
    terms: dict

    def __init__(self, variables, terms=None):
        object.__setattr__(self, "vars", tuple(variables))
        clean = {}
        if terms:
            for exps, c in terms.items():
                if not isinstance(c, Cyclo):
                    c = Cyclo._coerce(c)
                if c.is_zero():
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != len(self.vars):
                    raise AlgebraError("exponent vector length mismatch")
                clean[exps] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero(variables) -> "MPoly":
        return MPoly(variables)

    @staticmethod
    def const(variables, c) -> "MPoly":
        variables = tuple(variables)
        return MPoly(variables, {(0,) * len(variables): Cyclo._coerce(c)})

    @staticmethod
    def variable(name, variables) -> "MPoly":
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return MPoly(variables, {exps: C_ONE})

    @staticmethod
    def monomial(variables, exps, c=C_ONE) -> "MPoly":
        return MPoly(variables, {tuple(exps): Cyclo._coerce(c)})

    # -- basic queries ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return DEGREE_ZERO_POLY
        return max(sum(e) for e in self.terms)

    def degree_in(self, var) -> int:
        if not self.terms:
            return DEGREE_ZERO_POLY
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading_exponents(self):
        return max(self.terms, key=_grlex_key)

    def leading_coeff(self) -> Cyclo:
        return self.terms[self.leading_exponents()]

    def constant_coeff(self) -> Cyclo:
        return self.terms.get((0,) * len(self.vars), C_ZERO)

    def monic(self) -> "MPoly":
        """Scale so the graded-lex leading coefficient is 1."""
        if not self.terms:
            return self
        inv = self.leading_coeff().inverse()
        return self.scale(inv)

    # -- Z[w] int pairs ---------------------------------------------------
    def _zw(self):
        """The lift onto Z[w] int pairs: ({exps: (a, b)}, L) with each
        coefficient (a + b*w) / L, L the lcm of the denominators."""
        A, B, lcm = _zw_lift(self.terms.values())
        return dict(zip(self.terms, zip(A, B))), lcm

    @staticmethod
    def _from_zw(variables, terms, den) -> "MPoly":
        """The polynomial sum (a + b*w) / den * x^exps over terms, a dict
        exps -> (a, b) of ints; zero pairs are dropped and each other term
        makes one Cyclo."""
        p = object.__new__(MPoly)
        object.__setattr__(p, "vars", tuple(variables))
        object.__setattr__(
            p,
            "terms",
            {
                e: Cyclo(Fraction(a, den), Fraction(b, den))
                for e, (a, b) in terms.items()
                if a or b
            },
        )
        return p

    # -- arithmetic -------------------------------------------------------
    def _check_same_vars(self, other):
        if self.vars != other.vars:
            raise AlgebraError(f"variable lists differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = MPoly.const(self.vars, other)
        self._check_same_vars(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, C_ZERO) + c
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
        return MPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = MPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "MPoly":
        c = Cyclo._coerce(c)
        if c.is_zero():
            return MPoly.zero(self.vars)
        return MPoly(self.vars, {e: v * c for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return self.scale(other)
        self._check_same_vars(other)
        (f, lf), (g, lg) = self._zw(), other._zw()
        return MPoly._from_zw(self.vars, _zw_convolve(f, g), lf * lg)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise AlgebraError("negative polynomial power")
        result = MPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MPoly({render(self)!r})"

    # -- calculus / substitution -----------------------------------------
    def derivative(self, var) -> "MPoly":
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
        return MPoly(self.vars, terms)

    def eval(self, values) -> Cyclo:
        """Full evaluation at a point (sequence of Cyclo/rational values)."""
        return self.subs(dict(zip(self.vars, values))).constant_coeff()

    def subs(self, assignment) -> "MPoly":
        """Partial substitution var name -> Cyclo value; keeps the var list.

        On the Z[w] lift, coefficients (a, b) / L: a value (va + vb*w) / dv
        for a variable of top degree D gives the row v^k * dv^(D - k),
        k = 0..D, of Z[w] pairs, so every term's product lies over the one
        denominator L * prod dv^D."""
        terms, den = self._zw()
        rows = []
        for name, v in assignment.items():
            i = self.vars.index(name)
            (va,), (vb,), dv = _zw_lift([v])
            top = max((e[i] for e in terms), default=0)
            row = [(dv**top, 0)]  # row[k] = v^k * dv^(top - k), exact in Z[w]
            for _ in range(top):
                x, y = _zw_mul(row[-1], (va, vb))
                row.append((x // dv, y // dv))
            rows.append((i, row))
            den *= dv**top
        out = {}
        for e, ab in terms.items():
            ne = list(e)
            for i, row in rows:
                ab = _zw_mul(ab, row[e[i]])
                ne[i] = 0
            ne = tuple(ne)
            old = out.get(ne)
            out[ne] = ab if old is None else (old[0] + ab[0], old[1] + ab[1])
        return MPoly._from_zw(self.vars, out, den)

    def compose(self, images) -> "MPoly":
        """Substitute images[i] (MPoly over a common var list) for vars[i].

        On the Z[w] lifts, self's coefficients (a, b) / L and image i as
        P_i / d_i: with E_i the top exponent of vars[i], a term
        (a, b) / L * prod (P_i / d_i)^k_i is (a, b) * prod d_i^(E_i - k_i)
        * P_i^k_i over the one denominator L * prod d_i^E_i.  The powers
        P_i^k are cached and the terms summed in one dict of pairs."""
        if len(images) != len(self.vars):
            raise AlgebraError("compose needs one image per variable")
        target_vars = images[0].vars
        for img in images:
            img._check_same_vars(images[0])
        terms, den = self._zw()
        lifted = [img._zw() for img in images]
        tops = [max((e[i] for e in terms), default=0) for i in range(len(images))]
        for (_f, d), top in zip(lifted, tops):
            den *= d**top
        zero = (0,) * len(target_vars)
        pows = [[{zero: (1, 0)}] for _ in images]  # pows[i][k] = P_i^k
        total = {}
        for e, (a, b) in terms.items():
            s = math.prod(d ** (top - k) for (_f, d), top, k in zip(lifted, tops, e))
            t = {zero: (a * s, b * s)}
            for i, k in enumerate(e):
                if k:
                    cache = pows[i]
                    while len(cache) <= k:
                        cache.append(_zw_convolve(cache[-1], lifted[i][0]))
                    t = _zw_convolve(t, cache[k])
            for key, (x, y) in t.items():
                old = total.get(key)
                total[key] = (x, y) if old is None else (old[0] + x, old[1] + y)
        return MPoly._from_zw(target_vars, total, den)

    def coeffs_in(self, var):
        """Coefficients of powers of var, as polynomials with var removed.

        Returns (exp -> MPoly over remaining vars, remaining var tuple).
        """
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            re = e[:i] + e[i + 1 :]
            d = out.setdefault(k, {})
            d[re] = c
        return {k: MPoly(rest, d) for k, d in out.items()}, rest

    def divide_exact(self, d: "MPoly") -> "MPoly":
        """Exact division; raises NotDivisible when a remainder survives."""
        self._check_same_vars(d)
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.terms)
        qterms = {}
        dlead = d.leading_exponents()
        dlc = d.terms[dlead]
        while rem:
            e = max(rem, key=_grlex_key)
            c = rem[e]
            qe = tuple(a - b for a, b in zip(e, dlead))
            if any(k < 0 for k in qe):
                raise NotDivisible(render(self))
            qc = c / dlc
            qterms[qe] = qterms.get(qe, C_ZERO) + qc
            for de, dc in d.terms.items():
                ke = tuple(a + b for a, b in zip(qe, de))
                s = rem.get(ke, C_ZERO) - qc * dc
                if s.is_zero():
                    rem.pop(ke, None)
                else:
                    rem[ke] = s
        return MPoly(self.vars, qterms)


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
            self.bound(reach + r, len(p.terms) * len(q.terms))
            p, reach = p * q, reach + r
        return p, reach

    def factor(self):
        p, reach = self.base()
        if self.peek() == "^":
            self.pos += 1
            n = self.natural()
            self.bound(reach * n, math.comb(n + max(len(p.terms), 1) - 1, n))
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
    pieces = []
    for e in sorted(p.terms, key=_grlex_key, reverse=True):
        c = p.terms[e]
        mono = "*".join(
            f"{v}^{k}" if k > 1 else v for v, k in zip(p.vars, e) if k > 0
        )
        if c.b == 0:
            sign = "-" if c.a < 0 else "+"
            mag = abs(c.a)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
        elif c.a == 0 and c.b > 0:
            sign = "+"
            co = "w" if c.b == 1 else f"{c.b}*w"
            body = f"{co}*{mono}" if mono else co
        elif c.a == 0:  # c.b < 0
            sign = "-"
            co = "w" if c.b == -1 else f"{-c.b}*w"
            body = f"{co}*{mono}" if mono else co
        else:
            sign = "+"
            inner_sign = "+" if c.b > 0 else "-"
            bmag = abs(c.b)
            wpart = "w" if bmag == 1 else f"{bmag}*w"
            co = f"({c.a} {inner_sign} {wpart})"
            body = f"{co}*{mono}" if mono else co
        pieces.append((sign, body))
    sign0, body0 = pieces[0]
    out = body0 if sign0 == "+" else f"-{body0}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# Determinants and resultants
# ---------------------------------------------------------------------------


def _zw_lift(cs):
    """Scale Q(w) entries (Cyclo, int or Fraction) by the lcm of their
    denominators into Z[w]; returns (a parts, b parts, lcm) as ints."""
    cs = [c if isinstance(c, Cyclo) else Cyclo._coerce(c) for c in cs]
    lcm = math.lcm(*(c.a.denominator for c in cs), *(c.b.denominator for c in cs))
    return (
        [c.a.numerator * (lcm // c.a.denominator) for c in cs],
        [c.b.numerator * (lcm // c.b.denominator) for c in cs],
        lcm,
    )


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
    """Each Z[w] pair of xs divided exactly by the pair d; AlgebraError
    on a remainder."""
    ca, cb, norm = _zw_conj_norm(*d)
    out = []
    for x in xs:
        (qa, ea), (qb, eb) = (divmod(v, norm) for v in _zw_mul(x, (ca, cb)))
        if ea or eb:
            raise AlgebraError("inexact division in Z[w]")
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


def echelon_zw_pairs(A, B, reduced=False):
    """Fraction-free row echelon form over Z[w], exact on any shape and rank.

    The matrix has the entries A[i][j] + B[i][j]*w, held as int rows A
    and B, which are eliminated in place.  Columns are taken left to right
    and a column with no nonzero entry at or below the current row is
    skipped.  Bareiss elimination (Math. Comp. 22, 1968) makes every entry
    a minor of the matrix, so the division by the previous pivot p is
    exact in Z[w]: multiply by conj(p) and divide both parts by N(p).  A
    remainder raises AlgebraError.

    With reduced=True the rows above each pivot are eliminated as well
    (fraction-free Gauss-Jordan): each pivot column then holds the last
    pivot d in its own row and 0 elsewhere, so the reduced row echelon
    form is the first len(pivots) rows divided by d.

    Returns (A, B, pivots, sign): the a and b parts of the eliminated
    matrix, the pivot columns and the sign of the row permutation.
    """
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
                        raise AlgebraError("inexact Bareiss division in Z[w]")
                Ai[j], Bi[j] = na, nb
            Ai[c] = Bi[c] = 0
        pivots.append(c)
        qa, qb = pa, pb  # the previous pivot
        k += 1
    return A, B, pivots, sign


def echelon_zw(rows, reduced=False):
    """echelon_zw_pairs of a matrix over Q(w) with entries Cyclo, int or
    Fraction: each row is scaled by the lcm of its denominators, so the
    entries lie in Z[w].  Returns (A, B, pivots, sign, den), den the
    product of the row scales.
    """
    den = 1
    A, B = [], []
    for r in rows:
        ra, rb, lcm = _zw_lift(r)
        den *= lcm
        A.append(ra)
        B.append(rb)
    return (*echelon_zw_pairs(A, B, reduced), den)


def echelon_det(rows) -> Cyclo:
    """Determinant of a square matrix over Q(w) from echelon_zw: the sign
    times the last pivot over the row scales, or 0 below full rank."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise AlgebraError("determinant of a non-square matrix")
    A, B, pivots, sign, den = echelon_zw(rows)
    if len(pivots) < n:
        return C_ZERO
    return Cyclo(Fraction(sign * A[-1][-1], den), Fraction(sign * B[-1][-1], den))


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
    remainder raises AlgebraError."""
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
                    raise AlgebraError("inexact divided difference in Z[w]")
        coeffs = [0] * n
        for dj, b in zip(d, basis):
            if dj:
                for i, c in enumerate(b):
                    coeffs[i] += dj * c
        out.append(coeffs)
    return out


def resultant(p: MPoly, q: MPoly, var) -> MPoly:
    """Resultant with respect to var; Sylvester determinant convention.

    p and q are lifted once each into Z[w] int pairs (a, b) = a + b*w,
    scaled by the lcm Lp, Lq of their denominators; the determinant of the
    Sylvester matrix of the lifted pair at the formal degrees dp, dq is
    Lp^dq * Lq^dp times the resultant.  It is taken on the pairs by
    evaluation and interpolation (Collins, JACM 18, 1971), one remaining
    active variable at a time, down to scalar matrices for
    echelon_zw_pairs, and the scale is divided out once at the end.
    """
    if p.is_zero() or q.is_zero():
        raise AlgebraError("resultant of the zero polynomial")
    p._check_same_vars(q)
    dp, dq = p.degree_in(var), q.degree_in(var)
    if dp == 0 and dq == 0:
        raise AlgebraError("resultant needs positive degree in the variable")
    # deg 0 in var: Res(c, q) = c^{deg q}
    if dp == 0:
        return p.coeffs_in(var)[0][0] ** dq
    if dq == 0:
        return q.coeffs_in(var)[0][0] ** dp
    i = p.vars.index(var)
    sides = []
    for f, d in ((p, dp), (q, dq)):
        terms, lcm = f._zw()
        cs = [{} for _ in range(d + 1)]
        for e, ab in terms.items():
            cs[e[i]][e[:i] + e[i + 1 :]] = ab
        sides.append((cs, lcm))
    (pc, lp), (qc, lq) = sides
    scale = lp**dq * lq**dp
    det = _sylvester_det_zw(pc, qc)
    return MPoly._from_zw(p.vars[:i] + p.vars[i + 1 :], det, scale)


def _sylvester_det_zw(pc, qc):
    """The determinant of the Sylvester matrix of the coefficient lists pc
    and qc (low -> high, at the formal degrees len - 1, the p rows before
    the q rows).  Each coefficient is a polynomial over Z[w] held as a
    dict exps -> (a, b) without zero pairs, all over one variable list;
    the determinant is returned in the same form.  The first active
    variable t is set to integer samples in the dp+dq+2 coefficients
    (never in the matrix entries), each sample recurses, and each
    monomial's values are interpolated in t.

    The number of samples is one more than the smaller of two bounds on
    the degree in t: the column bound dq*max deg_t(pc) + dp*max deg_t(qc),
    and the total-degree bound Dp*dq + Dq*dp - dp*dq, where D is the total
    degree of the polynomial whose coefficients are listed (scaling every
    remaining variable by s makes the k-th coefficient s^k * pc[k] of
    degree at most Dp in s, and the determinant gains s^(dp*dq))."""
    dp, dq = len(pc) - 1, len(qc) - 1
    coeffs = pc + qc
    t = min((j for c in coeffs for e in c for j, k in enumerate(e) if k), default=None)
    if t is None:
        zero = next((e for c in coeffs for e in c), None)
        n = dp + dq
        A, B = [], []
        for cs, d, shifts in ((pc, dp, dq), (qc, dq, dp)):
            vals = [c.get(zero, (0, 0)) for c in cs]
            for s in range(shifts):
                ra, rb = [0] * n, [0] * n
                for k, (a, b) in enumerate(vals):
                    ra[s + d - k], rb[s + d - k] = a, b
                A.append(ra)
                B.append(rb)
        A, B, pivots, sign = echelon_zw_pairs(A, B)
        if len(pivots) < n:
            return {}
        return {zero: (sign * A[-1][-1], sign * B[-1][-1])}
    # total degrees Dp, Dq; None when a sample zeroed every coefficient of
    # one side, whose Sylvester rows are then all zero
    tp, tq = (
        max((k + max(map(sum, c)) for k, c in enumerate(cs) if c), default=None)
        for cs in (pc, qc)
    )
    if tp is None or tq is None:
        return {}

    def deg_t(cs):
        return max((e[t] for c in cs for e in c), default=0)

    bound = min(dq * deg_t(pc) + dp * deg_t(qc), tp * dq + tq * dp - dp * dq)
    xs = _interp_points(bound + 1)
    top = max(deg_t(pc), deg_t(qc))
    values = []
    for x in xs:
        pows = [x**k for k in range(top + 1)]
        at_x = []
        for c in coeffs:
            sub = {}
            for e, (a, b) in c.items():
                k = e[t]
                if k:
                    a, b = a * pows[k], b * pows[k]
                    e = e[:t] + (0,) + e[t + 1 :]
                old = sub.get(e)
                sub[e] = (a, b) if old is None else (old[0] + a, old[1] + b)
            at_x.append({e: v for e, v in sub.items() if v != (0, 0)})
        values.append(_sylvester_det_zw(at_x[: dp + 1], at_x[dp + 1 :]))
    keys = list(dict.fromkeys(e for v in values for e in v))
    columns = [[v.get(e, (0, 0))[part] for v in values] for e in keys for part in (0, 1)]
    coeffs_t = _interpolate(xs, columns)
    terms = {}
    for j, e in enumerate(keys):
        for k, ab in enumerate(zip(coeffs_t[2 * j], coeffs_t[2 * j + 1])):
            if ab != (0, 0):
                terms[e[:t] + (k,) + e[t + 1 :]] = ab
    return terms


# ---------------------------------------------------------------------------
# Univariate polynomials over Q(w) (internal helper representation); gcd
# and squarefree part by the fraction-free subresultant PRS over Z[w]
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class UPoly:
    """Dense univariate polynomial over Q(w), coefficients low -> high;
    equal coefficient tuples make equal polynomials."""

    coeffs: tuple

    def __init__(self, coeffs):
        cs = [Cyclo._coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def from_mpoly(p: MPoly, var) -> "UPoly":
        i = p.vars.index(var)
        if any(e[j] for e in p.terms for j in range(len(p.vars)) if j != i):
            raise AlgebraError("polynomial is not univariate in the given variable")
        d = p.degree_in(var)
        cs = [C_ZERO] * (d + 1) if d >= 0 else []
        for e, c in p.terms.items():
            cs[e[i]] = c
        return UPoly(cs)

    def to_mpoly(self, var, variables) -> MPoly:
        variables = tuple(variables)
        i = variables.index(var)
        terms = {}
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                e = [0] * len(variables)
                e[i] = k
                terms[tuple(e)] = c
        return MPoly(variables, terms)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else C_ZERO)
                + (other.coeffs[i] if i < len(other.coeffs) else C_ZERO)
                for i in range(n)
            ]
        )

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            c = Cyclo._coerce(other)
            return UPoly([x * c for x in self.coeffs])
        out = [C_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UPoly(out)

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
        if self.is_zero():
            return self
        inv = self.coeffs[-1].inverse()
        return self * inv

    def derivative(self) -> "UPoly":
        return UPoly([c * k for k, c in enumerate(self.coeffs)][1:])

    def eval(self, x) -> Cyclo:
        if not self.coeffs:
            return C_ZERO
        x = Cyclo._coerce(x)
        total = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            total = total * x + c
        return total

    def conjugate(self) -> "UPoly":
        return UPoly([c.conjugate() for c in self.coeffs])

    def gcd(self, other) -> "UPoly":
        """Monic gcd by the subresultant PRS (Collins, JACM 14, 1967;
        Brown-Traub, JACM 18, 1971).  Each input is scaled by the lcm of
        its denominators into Z[w] int pairs (a, b) = a + b*w.  Each
        pseudo-remainder lc(g)^(delta+1) * f mod g is divided by
        s * h^delta, exactly (AlgebraError otherwise); then s = lc(g) and
        h = s^delta / h^(delta-1).  Only the result becomes Cyclo."""
        f, g = (self, other) if self.degree() >= other.degree() else (other, self)
        if g.is_zero():
            return f.monic()

        def power(x, e):
            return functools.reduce(_zw_mul, [x] * e, (1, 0))

        f, g = (list(zip(*_zw_lift(u.coeffs)[:2])) for u in (f, g))
        s = h = (1, 0)
        while len(g) > 1:
            n, delta = len(g) - 1, len(f) - len(g)
            # pseudo-remainder: f <- lc(g) * f - f[k] * x^(k-n) * g, k = deg f..n
            for k in range(len(f) - 1, n - 1, -1):
                c = f.pop()
                f = [_zw_mul(g[-1], x) for x in f]
                for j, y in enumerate(g[:-1], k - n):
                    cy = _zw_mul(c, y)
                    f[j] = f[j][0] - cy[0], f[j][1] - cy[1]
            while f and f[-1] == (0, 0):
                f.pop()
            if not f:
                break
            f, g = g, _zw_divide(f, _zw_mul(s, power(h, delta)))
            s = f[-1]
            if delta:
                h = _zw_divide([power(s, delta)], power(h, delta - 1))[0]
        return UPoly([Cyclo(a, b) for a, b in g]).monic()

    def squarefree_part(self) -> "UPoly":
        """Monic self / gcd(self, self'), divided on Z[w] int pairs: the gcd
        is made primitive (its Z[w] content divided out), so by Gauss's
        lemma each quotient coefficient is an exact Z[w] division by its
        leading coefficient; a remainder raises AlgebraError."""
        if self.degree() <= 0:
            return self.monic()
        g = list(zip(*_zw_lift(self.gcd(self.derivative()).coeffs)[:2]))
        g = _zw_divide(g, functools.reduce(_zw_gcd, g))
        r = list(zip(*_zw_lift(self.coeffs)[:2]))
        q = [None] * (len(r) - len(g) + 1)
        for i in range(len(q) - 1, -1, -1):
            q[i] = c = _zw_divide([r.pop()], g[-1])[0]
            for j, y in enumerate(g[:-1], i):
                cy = _zw_mul(c, y)
                r[j] = r[j][0] - cy[0], r[j][1] - cy[1]
        if any(x != (0, 0) for x in r):
            raise AlgebraError("squarefree part: the gcd does not divide")
        return UPoly([Cyclo(a, b) for a, b in q]).monic()


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
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, x in enumerate(f):
        for j, y in enumerate(g, i):
            out[j] += x * y
    return [c % p for c in out]


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


def _zw_shortest(y, r, modulus):
    """A pair (a, b) with a + b*r = y mod modulus, of least norm
    |a + b*w|^2 = a^2 - a*b + b^2 whenever the class holds a pair shorter
    than half the minimum of the lattice {(a, b) : a + b*r = 0 mod
    modulus}.  Such a pair is unique, and its coordinates in a
    Gauss-reduced basis (u, v) are below 1/sqrt(3) in size, so it is
    (y, 0) minus one of the four lattice points whose coordinates are
    floors or ceilings of (y, 0)'s; the shortest of the four is returned."""

    def dot(s, t):  # twice the bilinear form of the norm
        return 2 * s[0] * t[0] - s[0] * t[1] - s[1] * t[0] + 2 * s[1] * t[1]

    u, v = (modulus, 0), (-r, 1)
    if dot(u, u) > dot(v, v):
        u, v = v, u
    while True:
        k = (2 * dot(u, v) + dot(u, u)) // (2 * dot(u, u))
        v = (v[0] - k * u[0], v[1] - k * u[1])
        if dot(v, v) >= dot(u, u):
            break
        u, v = v, u
    det = u[0] * v[1] - u[1] * v[0]
    c1, c2 = y * v[1], -y * u[1]
    return min(
        (
            (y - k1 * u[0] - k2 * v[0], -k1 * u[1] - k2 * v[1])
            for k1 in (c1 // det, -(-c1 // det))
            for k2 in (c2 // det, -(-c2 // det))
        ),
        key=lambda w: dot(w, w),
    )


def _root_order_key(root, mults):
    """Sort key of a root: its minimal polynomial over Q by degree, by that
    factor's multiplicity in p * conj(p), then by its primitive integer
    coefficients from the leading one down; of a conjugate pair the root
    with positive w part first."""
    a, b = root.a, root.b
    if b == 0:
        return 1, 2 * mults[root], [a.denominator, -a.numerator], 0
    trace, norm = 2 * a - b, a * a - a * b + b * b
    den = math.lcm(trace.denominator, norm.denominator)
    mult = mults[root] + mults.get(root.conjugate(), 0)
    return 2, mult, [den, int(-trace * den), int(norm * den)], 0 if b > 0 else 1


def qomega_roots(p: UPoly):
    """All roots of p inside Q(w), with multiplicities.

    Returns (roots, missing) where roots is a list of (Cyclo, multiplicity)
    and missing counts the remaining distinct roots that lie outside Q(w)
    (degree of the squarefree part not accounted for by found roots).

    The squarefree part f is lifted to Z[w], with leading coefficient lc.
    Take the first prime q = 1 mod 3, with w -> r a cube root of unity
    mod q, at which lc does not vanish and f is squarefree (gcd(f, f') = 1
    over F_q).  Every root alpha of f in Q(w) then reduces to a distinct
    simple root mod q, and lc*alpha lies in Z[w].  Each root mod q is
    Hensel-lifted mod q^k > 16 max N(f_i) >= 2 (|lc| + max |f_i|)^2, which
    exceeds 4 |lc*alpha|^2 by Cauchy's bound, and lc*alpha is read off as the
    shortest element of its class (_zw_shortest): the class's differences
    form the ideal (q, w - r)^k, whose nonzero elements have norm >= q^k.
    Every candidate is checked by exact division, so missing is exact.

    Roots are ordered by _root_order_key.
    """
    if p.is_zero():
        raise AlgebraError("root-finding on the zero polynomial")
    sf = p.squarefree_part()
    if sf.degree() == 0:
        return [], 0
    f = list(zip(*_zw_lift(sf.coeffs)[:2]))
    for q in itertools.count(7, 6):
        if not isprime(q):
            continue
        r = next(x for x in (pow(c, (q - 1) // 3, q) for c in itertools.count(2)) if x != 1)
        fq = _fp_trim([(a + b * r) % q for a, b in f])
        df = _fp_trim([k * c % q for k, c in enumerate(fq)][1:])
        if len(fq) == len(f) and len(_fp_gcd(fq, df, q)) == 1:
            break
    bound = 16 * max(a * a - a * b + b * b for a, b in f)
    modulus = q
    while modulus <= bound:
        modulus *= q
    r = _hensel([1, 1, 1], r, q, modulus)
    lifted = [(a + b * r) % modulus for a, b in f]
    lc = f[-1]
    # S(s) = lc^n * P(s / lc), P = p lifted to Z[w] and n = deg P: beta is
    # a root of S of multiplicity m exactly when beta / lc is one of p
    P = list(zip(*_zw_lift(p.coeffs)[:2]))
    S, lc_k = [], (1, 0)
    for c in reversed(P):
        S.append(_zw_mul(c, lc_k))
        lc_k = _zw_mul(lc_k, lc)
    S.reverse()
    mults = {}
    for x in _fp_roots(fq, q):
        x = _hensel(lifted, x, q, modulus)
        beta = _zw_shortest(lifted[-1] * x % modulus, r, modulus)
        m, cur = 0, S
        while len(cur) > 1:
            # synthetic division by s - beta: the quotient high -> low,
            # then the remainder S(beta)
            acc = [cur[-1]]
            for c in reversed(cur[:-1]):
                y = _zw_mul(acc[-1], beta)
                acc.append((c[0] + y[0], c[1] + y[1]))
            if acc[-1] != (0, 0):
                break
            m, cur = m + 1, acc[-2::-1]
        if m:
            mults[Cyclo(*beta) / Cyclo(*lc)] = m
    roots = sorted(mults.items(), key=lambda item: _root_order_key(item[0], mults))
    return roots, sf.degree() - len(roots)


def cyclo_nth_roots(c: Cyclo, n: int):
    """All x in Q(w) with x^n = c."""
    if c.is_zero():
        return [C_ZERO]
    coeffs = [-c] + [C_ZERO] * (n - 1) + [C_ONE]
    roots, _missing = qomega_roots(UPoly(coeffs))
    return [r for r, _m in roots]


# ---------------------------------------------------------------------------
# Exact polynomial square root
# ---------------------------------------------------------------------------


def poly_sqrt(p: MPoly):
    """Exact square root in Q(w)[x...], or NOT_A_SQUARE.

    The result's leading coefficient is normalized to the half-plane with
    rational part positive (or zero rational part and positive w part).
    """
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
    lead_key = _grlex_key(half)
    twice_lc = s.leading_coeff() * 2
    while True:
        rem = p - s * s
        if rem.is_zero():
            break
        e = max(rem.terms, key=_grlex_key)
        ne = tuple(a - b for a, b in zip(e, half))
        if any(k < 0 for k in ne) or _grlex_key(ne) >= lead_key:
            return NOT_A_SQUARE
        c = rem.terms[e] / twice_lc
        s = s + MPoly.monomial(p.vars, ne, c)
    lc = s.leading_coeff()
    if not cyclo_conj_sign_canonical(lc):
        s = -s
    return s


# ---------------------------------------------------------------------------
# Weighted degrees
# ---------------------------------------------------------------------------


def weighted_degree(p: MPoly, weights):
    """Maximum weighted degree over terms; sentinel for the zero polynomial."""
    if len(weights) != len(p.vars):
        raise AlgebraError("weights length must match variable count")
    if p.is_zero():
        return DEGREE_ZERO_POLY
    return max(sum(w * e for w, e in zip(weights, exps)) for exps in p.terms)


def is_weighted_homogeneous(p: MPoly, weights) -> bool:
    if len(weights) != len(p.vars):
        raise AlgebraError("weights length must match variable count")
    degs = {sum(w * e for w, e in zip(weights, exps)) for exps in p.terms}
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
