"""Shared exact linear algebra over Q(w) (and plain rationals).

Matrices are lists of rows of Cyclo, int or Fraction values.  Rank,
determinant and kernel all read the one fraction-free elimination over
Z[w], algebra.echelon_zw.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import C_ONE, C_ZERO, AlgebraError, Cyclo, echelon_det, echelon_zw


def rank(rows) -> int:
    return len(echelon_zw(rows)[2])


def kernel_basis(rows):
    """Basis of the right kernel, as lists of Cyclo: one vector per free
    column of the reduced row echelon form, 1 there and 0 at the other
    free columns."""
    if not rows:
        return []
    A, B, pivots, _sign, _den = echelon_zw(rows, reduced=True)
    ncols = len(A[0])
    if pivots:
        # the reduced form is the eliminated rows over the last pivot d
        k = len(pivots) - 1
        minus_inv = -Cyclo(A[k][pivots[k]], B[k][pivots[k]]).inverse()
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [C_ZERO] * ncols
        v[fc] = C_ONE
        for r, pc in enumerate(pivots):
            v[pc] = Cyclo(A[r][fc], B[r][fc]) * minus_inv
        basis.append(v)
    return basis


def det_fraction(rows) -> Fraction:
    """Determinant of a rational matrix; 1 for the empty matrix."""
    if not rows:
        return Fraction(1)
    d = echelon_det(rows)
    if d.b:
        raise AlgebraError("determinant is not rational")
    return d.a
