"""Mordell-Weil rank predictions for isotrivial fibrations over the plane.

For a weighted-homogeneous f(x1, x2) and a plane curve profile, the rank
of the group of sections is

    rank = sum over alpha in (0, 1) of (nu(alpha) + nu(alpha - 1)) *
           ord at zeta(alpha) of the curve's Alexander polynomial,

valid when the (reduced) weighted degree e of f divides the curve degree
d and sum over 0 <= alpha < 1 of nu(alpha) * delta_alpha vanishes
(delta_0 = 0 by convention).  An equivalent closed form is
2 * sum nu(alpha) * delta_(1 - alpha); both are computed and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd

from .adjunction import CurveProfile, alexander, defect, ord_at
from .algebra import DomainError, InvariantError, MPoly
from .spectrum import WeightedPoly, spectrum


class NotApplicable(DomainError):
    """The rank formula's hypotheses fail; carries the obstruction."""

    def __init__(self, message, obstruction=None):
        super().__init__(message)
        self.obstruction = dict(obstruction or {})


class DegreeParity(DomainError):
    """The hyperelliptic formula needs an even curve degree."""


@dataclass(frozen=True, slots=True)
class RankReport:
    """Outcome of a rank computation.

    obstruction maps alpha to the nonzero nu(alpha)*delta_alpha products
    (empty when applicable); contributions maps alpha in (0,1) to
    (nu(alpha)+nu(alpha-1)) * ord(alpha).
    """

    applicable: bool
    obstruction: dict
    rank: int
    contributions: dict

    def __post_init__(self):
        if self.applicable and self.rank != sum(self.contributions.values()):
            raise InvariantError(
                f"rank {self.rank} is not the sum of the contributions "
                f"{self.contributions}"
            )


def effective_wdeg(f: WeightedPoly) -> int:
    """Weighted degree after reducing the weights to be coprime."""
    w1, w2 = f.weights
    return f.wdeg // int_gcd(w1, w2)


def applicability(f: WeightedPoly, profile: CurveProfile):
    """(ok, obstruction): divisibility of degrees plus vanishing of the
    spectrum/defect pairing at every alpha in [0, 1)."""
    e = effective_wdeg(f)
    sp = spectrum(f)
    products = {}
    for alpha, nu in sp.items():
        if not 0 < alpha < 1:
            continue
        if (alpha * profile.d).denominator != 1:
            # only possible when e does not divide d, which already
            # blocks applicability
            continue
        d = defect(profile, alpha)[2]
        if nu * d:
            products[alpha] = nu * d
    ok = (profile.d % e == 0) and not products
    return ok, products


def mw_rank(f: WeightedPoly, profile: CurveProfile) -> RankReport:
    """Predicted Mordell-Weil rank; raises NotApplicable with the
    obstruction when the hypotheses fail."""
    ok, products = applicability(f, profile)
    if not ok:
        if products:
            raise NotApplicable(
                f"nonzero spectrum/defect products: {products}", products
            )
        raise NotApplicable(
            f"weighted degree {effective_wdeg(f)} does not divide {profile.d}"
        )
    sp = spectrum(f)
    delta = alexander(profile)
    alphas = {a for a in sp if 0 < a < 1} | {a + 1 for a in sp if -1 < a < 0}
    contributions = {}
    for a in sorted(alphas):
        eig = sp.get(a, 0) + sp.get(a - 1, 0)
        o = ord_at(delta, a)
        if eig and o:
            contributions[a] = eig * o
    rank = sum(contributions.values())
    alt = 2 * sum(
        nu * defect(profile, 1 - a)[2] for a, nu in sp.items() if 0 < a < 1
    )
    if rank != alt:
        raise InvariantError(
            f"rank formulas disagree: eigenspace/order sum gives {rank}, "
            f"defect form gives {alt}"
        )
    return RankReport(True, {}, rank, contributions)


def mw_rank_hyperelliptic(e: int, profile: CurveProfile) -> RankReport:
    """Rank for the hyperelliptic model y^2 = x^e + g via

        2 * sum over i = 1 .. floor((e-1)/2) of ord(1/2 + i/e),

    delegating to mw_rank with f = x^2 + y^e and checking agreement."""
    if e < 2:
        raise DomainError("e must be at least 2")
    if profile.d % 2:
        raise DegreeParity(f"curve degree {profile.d} is odd")
    if profile.d % e:
        raise NotApplicable(f"e = {e} does not divide the degree {profile.d}")
    if profile.points is not None:
        for p in profile.points:
            if not p.ade:
                raise NotApplicable(
                    f"{p.point!r} is not declared of ADE type"
                )
    delta = alexander(profile)
    total = 2 * sum(
        ord_at(delta, Fraction(1, 2) + Fraction(i, e))
        for i in range(1, (e - 1) // 2 + 1)
    )
    xy = ("x", "y")
    f = WeightedPoly(
        MPoly.monomial(xy, (2, 0)) + MPoly.monomial(xy, (0, e)), (e, 2)
    )
    rep = mw_rank(f, profile)
    if rep.rank != total:
        raise InvariantError(
            f"rank formulas disagree: mw_rank gives {rep.rank}, "
            f"the hyperelliptic sum gives {total}"
        )
    return rep
