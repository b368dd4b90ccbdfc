"""The package's value types are frozen, slotted dataclasses."""

import dataclasses

import pytest

from curvelattice.adjunction import (
    AlexanderPoly,
    ClassifiedPoint,
    CurveProfile,
    CuspScheme,
    Functional,
)
from curvelattice.algebra import Cyclo, MPoly, ProjPoint, UPoly, parse_poly
from curvelattice.lattice import CurveSummary, LatticeId, QuadForm
from curvelattice.mordellweil import RankReport
from curvelattice.spectrum import WeightedPoly
from curvelattice.torus import GramMatrix, QuasiToricPoint, ToricSearchResult
from curvelattice.weierstrass import WeierstrassData

XYZ = ("x", "y", "z")


def poly(text):
    return parse_poly(text, XYZ)


def quasi_toric_point():
    q, c = poly("x^2 + y*z"), poly("x^3 + y^3 + z^3")
    return QuasiToricPoint(q.scale(-1), c, MPoly.const(XYZ, 1), q * q * q + c * c, 1)


SMALL = {
    "Cyclo": lambda: Cyclo(1, 2),
    "MPoly": lambda: poly("x + w*y"),
    "UPoly": lambda: UPoly([1, 2]),
    "ProjPoint": lambda: ProjPoint((1, 2, 1)),
    "Functional": lambda: Functional(ProjPoint((0, 0, 1))),
    "ClassifiedPoint": lambda: ClassifiedPoint(ProjPoint((0, 0, 1)), "cusp"),
    "CuspScheme": lambda: CuspScheme(
        poly("x^2 + y*z"), poly("x^3 + y^3 + z^3"), "z"
    ),
    "CurveProfile": lambda: CurveProfile(poly("x^4 + y^4 + z^4"), points=[]),
    "AlexanderPoly": lambda: AlexanderPoly({}, "1"),
    "QuasiToricPoint": quasi_toric_point,
    "GramMatrix": lambda: GramMatrix([], []),
    "ToricSearchResult": lambda: ToricSearchResult([], False, 0, True),
    "QuadForm": lambda: QuadForm([[2, -1], [-1, 2]]),
    "LatticeId": lambda: LatticeId("A2", (2, 3, 2, 6)),
    "CurveSummary": lambda: CurveSummary(12, {"cusp": 30}, {}, 0, 2),
    "RankReport": lambda: RankReport(True, {}, 0, {}),
    "WeightedPoly": lambda: WeightedPoly(parse_poly("x^2 + y^3", ("x", "y")), (3, 2)),
    "WeierstrassData": lambda: WeierstrassData(UPoly([0]), UPoly([1]), 1),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_fields_are_frozen(name):
    value = SMALL[name]()
    assert type(value).__name__ == name
    assert not hasattr(value, "__dict__")
    fields = dataclasses.fields(value)
    assert fields
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f.name, getattr(value, f.name))
