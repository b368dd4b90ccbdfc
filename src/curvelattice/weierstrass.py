"""Weierstrass models y^2 = x^3 + A x + B over a line, and height formulas.

A and B are univariate polynomials over Q(w) of degrees at most 4k and
6k.  Minimality and the no-reducible-fibers criterion are checked place
by place, where places are the irreducible factors of the relevant
polynomial (handled through squarefree decompositions, never through
irreducible factorization) together with the place at infinity, whose
valuations are the degree deficits 4k - deg A and 6k - deg B.

The height formulas are <S,S> = 2*chi + 2*(S.Z) and
<S,S'> = chi + (S.Z) + (S'.Z) - (S.S').
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import DomainError, MPoly, UPoly


class Degenerate(DomainError):
    """The discriminant 4A^3 + 27B^2 vanishes identically."""


class NotMinimal(DomainError):
    """The model must be minimal before fiber checks."""


def _rad_at_least(parts, m: int) -> UPoly:
    """Product of the squarefree factors of multiplicity at least m."""
    out = UPoly([1])
    for i, p in parts.items():
        if i >= m:
            out = out * p
    return out


@dataclass(frozen=True, slots=True)
class WeierstrassData:
    """Coefficients (A, B) of y^2 = x^3 + A x + B with the twist degree k.

    A and B may be given as UPoly or as MPoly in one variable.  disc is
    the discriminant 4A^3 + 27B^2, computed once and never zero."""

    A: UPoly
    B: UPoly
    k: int
    disc: UPoly = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A, B = (
            UPoly.from_mpoly(p, *p.vars) if isinstance(p, MPoly) and len(p.vars) == 1 else p
            for p in (self.A, self.B)
        )
        if not (isinstance(A, UPoly) and isinstance(B, UPoly)):
            raise DomainError("A and B must be UPoly or MPoly in one variable")
        k = self.k
        if k <= 0:
            raise DomainError("k must be positive")
        if A.degree() > 4 * k or B.degree() > 6 * k:
            raise DomainError("degrees exceed the 4k/6k bounds")
        disc = A * A * A * 4 + B * B * 27
        if disc.is_zero():
            raise Degenerate("discriminant vanishes identically")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "disc", disc)


def is_minimal(w: WeierstrassData) -> bool:
    """No place has v(A) >= 4 and v(B) >= 6 simultaneously."""
    A, B, k = w.A, w.B, w.k
    # place at infinity
    v_inf_a = None if A.is_zero() else 4 * k - A.degree()
    v_inf_b = None if B.is_zero() else 6 * k - B.degree()
    if (v_inf_a is None or v_inf_a >= 4) and (v_inf_b is None or v_inf_b >= 6):
        return False
    # finite places; at every place an identically zero A or B has v = oo
    ra, rb = (
        u if u.is_zero() else _rad_at_least(u.squarefree_factors(), m)
        for u, m in ((A, 4), (B, 6))
    )
    return ra.gcd(rb).degree() == 0


def no_reducible_fibers(w: WeierstrassData) -> bool:
    """Every fiber is irreducible: at each place of the discriminant,
    v(disc) <= 1, or v(disc) = 2 with v(B) = 1.  At v(disc) = 2, v(B) is 0
    or 1 (v(B) >= 2 would need 3 v(A) = 2); Tate's algorithm gives Kodaira
    type II, a cuspidal cubic, for v(B) = 1 and I2, two components, for
    v(B) = 0.  A finite place with v(B) = 1 is a root of B's multiplicity-1
    Yun factor; at infinity v(B) = 6k - deg B.
    """
    if not is_minimal(w):
        raise NotMinimal("model is not minimal")
    B, k, disc = w.B, w.k, w.disc
    dparts = disc.squarefree_factors()
    if _rad_at_least(dparts, 3).degree() > 0:
        return False
    d2 = dparts.get(2)
    # B = 0 makes every v(disc) = 3 v(A), so a v(disc) = 2 place has B != 0
    if d2 is not None and d2.gcd(B.squarefree_factors().get(1, UPoly([1]))) != d2:
        return False
    v_d = 12 * k - disc.degree()
    return v_d <= 1 or v_d == 2 and 6 * k - B.degree() == 1


def height_from_intersections(chi: int, sz: int) -> int:
    """<S,S> = 2*chi + 2*(S.Z)."""
    if chi < 1:
        raise DomainError("chi must be positive")
    if sz < 0:
        raise DomainError("intersection numbers are non-negative")
    return 2 * chi + 2 * sz


def pairing_from_intersections(chi: int, sz: int, spz: int, ssp: int) -> int:
    """<S,S'> = chi + (S.Z) + (S'.Z) - (S.S')."""
    if chi < 1:
        raise DomainError("chi must be positive")
    return chi + sz + spz - ssp
