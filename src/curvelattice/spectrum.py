"""Singularity spectra of weighted-homogeneous curve singularities.

For f(x1, x2) weighted homogeneous of weighted degree d with weights
(w1, w2) and an isolated critical point at the origin, the spectrum
multiplicity at a rational alpha is the dimension of the graded piece of
the Milnor algebra M(f) = C[x1,x2]/(f_x1, f_x2) in weighted degree
(alpha + 1)*d - w1 - w2.  The total dimension is the Milnor number
mu = (d - w1)(d - w2)/(w1 w2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd as int_gcd

from .algebra import (
    C_ZERO,
    DomainError,
    MPoly,
    UPoly,
    is_weighted_homogeneous,
    monomials,
    weighted_degree,
)
from .linalg import rank as matrix_rank


class NotIsolated(DomainError):
    """The Jacobian ideal does not have finite colength."""


@dataclass(frozen=True, slots=True)
class WeightedPoly:
    """A weighted-homogeneous polynomial in two variables with its integer
    weights (w1, w2) and its weighted degree wdeg."""

    f: MPoly
    weights: tuple
    wdeg: int = field(init=False)

    def __post_init__(self):
        f = self.f
        if len(f.vars) != 2:
            raise DomainError("weighted polynomials live in two variables")
        w1, w2 = self.weights
        if w1 <= 0 or w2 <= 0:
            raise DomainError("weights must be positive")
        if f.is_zero():
            raise DomainError("the zero polynomial has no spectrum")
        if not is_weighted_homogeneous(f, (w1, w2)):
            raise DomainError("polynomial is not weighted homogeneous")
        object.__setattr__(self, "wdeg", weighted_degree(f, (w1, w2)))

    def milnor_number(self) -> int:
        d, (w1, w2) = self.wdeg, self.weights
        num = (d - w1) * (d - w2)
        if num % (w1 * w2):
            raise NotIsolated("Milnor number formula is not an integer")
        return num // (w1 * w2)


def milnor_graded_dims(wp: WeightedPoly):
    """Weighted-graded dimensions of the Milnor algebra, as {degree: dim}.

    Checks that the total equals the Milnor number and that the algebra
    vanishes above its socle degree; raises NotIsolated otherwise.
    """
    f, (w1, w2), d = wp.f, wp.weights, wp.wdeg
    fx = f.derivative(f.vars[0])
    fy = f.derivative(f.vars[1])
    top = (d - 2 * w1) + (d - 2 * w2)
    dims = {}
    for m in range(0, top + w1 + w2 + 1):
        dim = _graded_quotient_dim(m, fx, fy, (w1, w2), d)
        if dim:
            dims[m] = dim
    if any(m > top for m in dims):
        raise NotIsolated("Milnor algebra does not vanish above the socle degree")
    if sum(dims.values()) != wp.milnor_number():
        raise NotIsolated("graded dimensions do not sum to the Milnor number")
    return dims


def _graded_quotient_dim(m, fx, fy, weights, d):
    w1, w2 = weights
    monos = monomials(m, weights)
    if not monos:
        return 0
    index = {e: k for k, e in enumerate(monos)}
    rows = []
    for g, gw in ((fx, d - w1), (fy, d - w2)):
        if g.is_zero():
            continue
        for i, j in monomials(m - gw, weights):
            row = [C_ZERO] * len(monos)
            for e, c in g.terms.items():
                key = (e[0] + i, e[1] + j)
                row[index[key]] = c
            rows.append(row)
    r = matrix_rank(rows) if rows else 0
    return len(monos) - r


def spectrum(wp: WeightedPoly):
    """Spectrum multiset {alpha: nu(alpha)} via the Milnor algebra grading."""
    d, (w1, w2) = wp.wdeg, wp.weights
    dims = milnor_graded_dims(wp)
    out = {}
    for m, dim in dims.items():
        alpha = Fraction(m + w1 + w2, d) - 1
        out[alpha] = out.get(alpha, 0) + dim
    return out


def eigen_dim(wp: WeightedPoly, alpha) -> int:
    """nu(alpha) + nu(alpha - 1): the monodromy eigenspace dimension used
    as the weight at alpha in the rank formula."""
    alpha = Fraction(alpha)
    if not 0 <= alpha < 1:
        raise DomainError("alpha must lie in [0, 1)")
    sp = spectrum(wp)
    return sp.get(alpha, 0) + sp.get(alpha - 1, 0)


def branch_count(wp: WeightedPoly) -> int:
    """Number of local branches of f = 0 at the origin.

    Counted without extracting roots: strip the x- and y-axis factors,
    write the rest as psi(u) with u the basic weighted monomial direction,
    and take the degree of the squarefree part of psi, adding one for each
    stripped axis.
    """
    f, (w1, w2) = wp.f, wp.weights
    i0 = min(e[0] for e in f.terms)
    j0 = min(e[1] for e in f.terms)
    stripped = {(e[0] - i0, e[1] - j0): c for e, c in f.terms.items()}
    g = int_gcd(w1, w2)
    a, b = w1 // g, w2 // g
    # remaining monomials are x^(b*m) y^(a*(M-m)); collect psi coefficients
    psi = {}
    for (i, j), c in stripped.items():
        if i % b or j % a:
            raise NotIsolated("unexpected monomial support for a weighted form")
        psi[i // b] = c
    M = max(psi)
    coeffs = [psi.get(k, C_ZERO) for k in range(M + 1)]
    eps = UPoly(coeffs).squarefree_part().degree()
    return eps + (1 if i0 > 0 else 0) + (1 if j0 > 0 else 0)
