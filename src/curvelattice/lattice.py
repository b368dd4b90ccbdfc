"""Exact lattice analytics: shortest vectors, root-lattice identification,
Q-equivalence of quadratic forms, and Zariski-pair certification.

Shortest vectors are enumerated with exact rational arithmetic
(Fincke-Pohst, Math. Comp. 44, 1985: integer bounds from the LDL^T factor
of linalg.ldl, the one symmetric elimination, which also diagonalizes forms
for the Hasse invariants); an enumeration tree with possibly more than
ENUMERATION_LIMIT leaves is refused before it starts.  Root lattices
are identified by matching the evidence tuple (rank, determinant,
minimal norm, kissing number) against a built-in table; this is
invariant matching, not an isometry proof, and every report says so.

Hasse invariant convention: the product of Hilbert symbols (d_i, d_j)_p
over i < j on the diagonalized form.  At an odd prime p the symbol reads
the Legendre symbols of the p-adic units by Euler's criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import DomainError, MPoly, isprime
from .linalg import det_fraction, ldl

# the product of the per-coordinate range lengths bounds the leaves of the
# enumeration tree; E8 in its root basis reaches 19,683
ENUMERATION_LIMIT = 10**6
# trial division stops here, so every n < FACTOR_LIMIT^2 factors
FACTOR_LIMIT = 10**6


class NotPositiveDefinite(DomainError):
    """The Gram matrix is not positive definite: its LDL^T diagonal has an
    entry <= 0."""


class Degenerate(DomainError):
    """The quadratic form is singular."""


class PrereqFailed(DomainError):
    """A Zariski-certificate precondition is violated."""


@dataclass(frozen=True, slots=True)
class QuadForm:
    """A symmetric rational matrix viewed as a quadratic form."""

    m: list

    def __post_init__(self):
        m = [[Fraction(x) for x in row] for row in self.m]
        n = len(m)
        if any(len(row) != n for row in m):
            raise DomainError("matrix must be square")
        for i in range(n):
            for j in range(n):
                if m[i][j] != m[j][i]:
                    raise DomainError("matrix must be symmetric")
        object.__setattr__(self, "m", m)

    @property
    def n(self):
        return len(self.m)

    def det(self) -> Fraction:
        return det_fraction(self.m)

    def scaled(self, c) -> "QuadForm":
        c = Fraction(c)
        return QuadForm([[x * c for x in row] for row in self.m])


def _range_for(c, s):
    """All integers x with (x + c)^2 <= s, for rational c and s >= 0: with
    c = p/q, s = a/b and r = isqrt(a b q^2), x lies between
    -(sqrt(s) + c) and sqrt(s) - c, whose floors need only r."""
    p, q, a, b = c.numerator, c.denominator, s.numerator, s.denominator
    r = math.isqrt(a * b * q * q)
    return range(-((r + p * b) // (b * q)), (r - p * b) // (b * q) + 1)


def _enumerate_upto(gram, bound):
    """All nonzero integer vectors v with v^T G v <= bound, as
    (norm, vector) pairs; exact arithmetic throughout."""
    n = len(gram)
    d, u = ldl(gram)
    if min(d) <= 0:
        raise NotPositiveDefinite(f"LDL^T diagonal entry {min(d)} <= 0")
    # coordinate i ranges over at most 2 sqrt(bound / d_i) + 1 integers
    leaves = math.prod(math.isqrt(4 * bound // x) + 1 for x in d)
    if leaves > ENUMERATION_LIMIT:
        raise DomainError(
            f"enumeration bound {leaves} exceeds the limit {ENUMERATION_LIMIT}"
        )
    out = []
    vec = [0] * n

    def descend(i, remaining):
        if i < 0:
            if any(vec):
                norm = bound - remaining
                out.append((norm, tuple(vec)))
            return
        c = sum(u[i][j] * vec[j] for j in range(i + 1, n))
        for x in _range_for(c, remaining / d[i]):
            vec[i] = x
            descend(i - 1, remaining - d[i] * (x + c) ** 2)
        vec[i] = 0

    descend(n - 1, Fraction(bound))
    return out


def shortest_vectors(gram):
    """(min_norm, count, vectors) of the lattice with this Gram matrix."""
    rows = (gram if isinstance(gram, QuadForm) else QuadForm(gram)).m
    n = len(rows)
    if n == 0 or n > 8:
        raise DomainError("rank must be between 1 and 8")
    bound = min(rows[i][i] for i in range(n))
    cands = _enumerate_upto(rows, bound)
    min_norm = min(norm for norm, _v in cands)
    vectors = sorted(v for norm, v in cands if norm == min_norm)
    return min_norm, len(vectors), vectors


_NOTE = "identification by invariant matching, not an isometry proof"


@dataclass(frozen=True, slots=True)
class LatticeId:
    """Identification verdict with its evidence tuple."""

    tag: str
    evidence: tuple
    note: str = field(default=_NOTE, init=False)


def _table():
    rows = [
        ("D4", 4, Fraction(4), Fraction(2), 24),
        ("E6", 6, Fraction(3), Fraction(2), 72),
        ("E8", 8, Fraction(1), Fraction(2), 240),
    ]
    for k in range(1, 9):
        rows.append((f"A2({k})", 2, Fraction(3 * k * k), Fraction(2 * k), 6))
        for m in range(2, 5):
            rows.append(
                (
                    f"A2^{m}({k})",
                    2 * m,
                    Fraction(3 * k * k) ** m,
                    Fraction(2 * k),
                    6 * m,
                )
            )
    return rows


def evidence_tuple(gram):
    """(rank, determinant, minimal norm, kissing number) of a Gram matrix."""
    q = gram if isinstance(gram, QuadForm) else QuadForm(gram)
    min_norm, count, _vecs = shortest_vectors(q)
    return (q.n, q.det(), min_norm, count)


def identify(gram) -> LatticeId:
    """Match the evidence tuple against the built-in root-lattice table."""
    ev = evidence_tuple(gram)
    for tag, rank, det, mn, kiss in _table():
        if ev == (rank, det, mn, kiss):
            return LatticeId(tag, ev)
    return LatticeId("Unknown", ev)


def identify_saturation(gram) -> LatticeId:
    """Identify the saturation of the lattice the Gram matrix generates.

    A sublattice of index f scales the determinant by f^2, so a table row
    with the same rank is a possible saturation when det/tdet is the
    square of an integer f >= 1, read off with isqrt, and either f = 1
    with the same minimal norm and kissing number, or f > 1 with minimal
    norm at most the observed one.  The verdict is only definite when
    exactly one row survives; otherwise Unknown with the evidence.
    """
    ev = evidence_tuple(gram)
    rank, det, mn, kiss = ev
    candidates = []
    for tag, trank, tdet, tmn, tkiss in _table():
        ratio = det / tdet
        if trank != rank or ratio.denominator != 1:
            continue
        f = math.isqrt(ratio.numerator)
        if f * f != ratio:
            continue
        if ((tmn, tkiss) == (mn, kiss)) if f == 1 else (tmn <= mn):
            candidates.append(tag)
    if len(candidates) == 1:
        return LatticeId(candidates[0], ev)
    return LatticeId("Unknown", ev)


# ---------------------------------------------------------------------------
# Quadratic forms over Q
# ---------------------------------------------------------------------------


def diagonalize(q: QuadForm):
    """Congruence diagonalization, entries reduced modulo squares.

    Returns a list of square-reduced nonzero integers (one per dimension);
    raises Degenerate on singular input.
    """
    # a zero in the diagonal (a singular form) raises in _square_reduce
    return [_square_reduce(x) for x in ldl(q.m)[0]]


def factorint(n: int) -> dict:
    """{prime: exponent} of n >= 1, by trial division while the cofactor
    is composite; a prime cofactor is the last factor.  A composite
    cofactor with no prime factor up to FACTOR_LIMIT raises DomainError."""
    out = {}
    d = 2
    while n > 1 and not isprime(n):
        while n % d:
            d += 1 if d == 2 else 2
            if d > FACTOR_LIMIT:
                raise DomainError(f"{n} has no prime factor up to the limit {FACTOR_LIMIT}")
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if n > 1:
        out[n] = 1
    return out


def _square_reduce(x: Fraction) -> int:
    """The square class representative of a nonzero rational: the signed
    squarefree part of numerator * denominator."""
    if x == 0:
        raise Degenerate("form is singular")
    n = x.numerator * x.denominator
    sign = -1 if n < 0 else 1
    out = 1
    for p, e in factorint(abs(n)).items():
        if e % 2:
            out *= p
    return sign * out


def _split_valuation(x: Fraction, p: int):
    """x = p^v * u with u a p-adic unit; returns (v, u)."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def hilbert_symbol(a, b, p) -> int:
    """The Hilbert symbol (a, b)_p for p an int prime or the string 'inf'."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise DomainError("arguments must be nonzero")
    if p == "inf":
        return -1 if a < 0 and b < 0 else 1
    if type(p) is not int or not isprime(p):
        raise DomainError(f"{p!r} is neither 'inf' nor an int prime")
    alpha, u = _split_valuation(a, p)
    beta, v = _split_valuation(b, p)
    if p == 2:
        um = (u.numerator * pow(u.denominator, -1, 8)) % 8
        vm = (v.numerator * pow(v.denominator, -1, 8)) % 8
        eps_u, eps_v = (um - 1) // 2 % 2, (vm - 1) // 2 % 2
        om_u, om_v = (um * um - 1) // 8 % 2, (vm * vm - 1) // 8 % 2
        exp = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if exp % 2 else 1
    # Euler's criterion: the unit n/d is a non-residue mod p iff
    # (n*d)^((p-1)/2) is not 1 mod p
    non_u, non_v = (pow(x.numerator * x.denominator, (p - 1) // 2, p) != 1 for x in (u, v))
    exp = alpha * beta * ((p - 1) // 2) + beta * non_u + alpha * non_v
    return -1 if exp % 2 else 1


def hasse_invariant(diag, p) -> int:
    """Product of (d_i, d_j)_p over i < j for a diagonalized form."""
    out = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            out *= hilbert_symbol(diag[i], diag[j], p)
    return out


def _relevant_primes(diag_a, diag_b):
    primes = {2}
    for d in list(diag_a) + list(diag_b):
        primes |= set(factorint(abs(int(d))))
    return sorted(primes)


def q_compare(q1: QuadForm, q2: QuadForm) -> dict:
    """Full comparison report for Q-equivalence of two quadratic forms."""
    d1, d2 = diagonalize(q1), diagonalize(q2)
    report = {
        "rank": [len(d1), len(d2)],
        "diagonals": [d1, d2],
        "signature": [sum(1 if x > 0 else -1 for x in d1),
                      sum(1 if x > 0 else -1 for x in d2)],
        "discriminant_class": [
            _square_reduce(Fraction(math.prod(d1))),
            _square_reduce(Fraction(math.prod(d2))),
        ],
        "hasse": {},
        "witness_prime": None,
    }
    equivalent = report["rank"][0] == report["rank"][1]
    if equivalent and report["signature"][0] != report["signature"][1]:
        equivalent = False
        report["witness_prime"] = "inf"
    if equivalent and report["discriminant_class"][0] != report["discriminant_class"][1]:
        equivalent = False
    if report["rank"][0] == report["rank"][1]:
        differing = []
        for p in _relevant_primes(d1, d2):
            h1, h2 = hasse_invariant(d1, p), hasse_invariant(d2, p)
            report["hasse"][p] = [h1, h2]
            if h1 != h2:
                differing.append(p)
                equivalent = False
        if differing and report["witness_prime"] is None:
            # prefer an odd witness prime: the odd-place symbol is the
            # easiest to audit by reduction modulo p
            odd = [p for p in differing if p != 2]
            report["witness_prime"] = odd[0] if odd else 2
    report["equivalent"] = equivalent
    return report


def q_equivalent(q1: QuadForm, q2: QuadForm) -> bool:
    """Rational equivalence of quadratic forms: rank, signature,
    discriminant square class, and all Hasse invariants agree."""
    return q_compare(q1, q2)["equivalent"]


# ---------------------------------------------------------------------------
# Zariski-pair certification
# ---------------------------------------------------------------------------


INDEX_ASSUMPTION = (
    "point-generated sublattice assumed to have finite index whose square "
    "divides the determinant; saturation index > 1 would change the "
    "determinant but is not excluded by the rank check"
)


@dataclass(frozen=True, slots=True)
class CurveSummary:
    """Deformation-invariant data of a curve used for certification.

    alexander_orders maps Fraction alpha to an int order."""

    degree: int
    inventory: dict
    alexander_orders: dict
    delta_one_sixth: int
    rank_prediction: int

    @classmethod
    def from_profile(cls, profile):
        """Summary for the elliptic model y^2 = x^3 + g (f = x^2 + y^3)."""
        from .adjunction import alexander, defect
        from .mordellweil import mw_rank
        from .spectrum import WeightedPoly

        xy = ("x", "y")
        f = WeightedPoly(
            MPoly.monomial(xy, (2, 0)) + MPoly.monomial(xy, (0, 3)), (3, 2)
        )
        delta = alexander(profile)
        d16 = defect(profile, Fraction(1, 6))[2]
        rank = mw_rank(f, profile).rank
        return cls(
            profile.d,
            profile.singularity_inventory(),
            delta.orders,
            d16,
            rank,
        )


def zariski_certificate(summary_a: CurveSummary, gram_a,
                        summary_b: CurveSummary, gram_b) -> dict:
    """Certificate that two equisingular curves are topologically distinct.

    Preconditions (PrereqFailed otherwise): equal degree divisible by 6,
    equal singularity inventory, equal Alexander orders, delta_(1/6) = 0
    on both sides, equal rank predictions.  A certificate is emitted only
    when both sublattices have the full predicted rank and their Q-spans
    are inequivalent; otherwise the verdict is inconclusive.
    """
    if summary_a.degree != summary_b.degree:
        raise PrereqFailed("degrees differ")
    if summary_a.degree % 6:
        raise PrereqFailed("degree is not divisible by 6")
    if summary_a.inventory != summary_b.inventory:
        raise PrereqFailed("singularity inventories differ")
    if summary_a.alexander_orders != summary_b.alexander_orders:
        raise PrereqFailed("Alexander polynomials differ")
    if summary_a.delta_one_sixth or summary_b.delta_one_sixth:
        raise PrereqFailed("delta at 1/6 must vanish on both sides")
    qa = gram_a if isinstance(gram_a, QuadForm) else QuadForm(gram_a)
    qb = gram_b if isinstance(gram_b, QuadForm) else QuadForm(gram_b)
    expected = summary_a.rank_prediction
    if expected != summary_b.rank_prediction:
        raise PrereqFailed(
            f"rank predictions differ: {expected} and {summary_b.rank_prediction}"
        )
    doc = {
        "degree": summary_a.degree,
        "inventory": {k: v for k, v in sorted(summary_a.inventory.items())},
        "alexander_orders": {
            str(a): o for a, o in sorted(summary_a.alexander_orders.items())
        },
        "rank_prediction": expected,
        "grams": [qa.m, qb.m],
        "deviations": [],
    }
    if qa.n != expected or qb.n != expected or qa.det() == 0 or qb.det() == 0:
        doc["verdict"] = "inconclusive"
        doc["reason"] = "sublattice rank does not match the predicted rank"
        return doc
    cmp = q_compare(qa, qb)
    doc["comparison"] = cmp
    if cmp["equivalent"]:
        doc["verdict"] = "inconclusive"
        doc["reason"] = "sublattice Q-spans are equivalent"
        return doc
    doc["verdict"] = "certificate"
    doc["reason"] = (
        "equal deformation invariants but inequivalent height-pairing "
        "lattices of full predicted rank"
    )
    doc["deviations"] = [INDEX_ASSUMPTION]
    return doc
