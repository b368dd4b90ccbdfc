"""Shared exact linear algebra over Q(w) (and plain rationals).

Matrices are lists of rows of Cyclo, int or Fraction values.  Determinant
and kernel read the one fraction-free elimination over Z[w],
algebra.echelon_zw.  The rank of a rational matrix is one Gauss-Jordan
elimination modulo the prime p = 2^61 - 1 (algebra._P, also the prime of
UPoly.gcd's images) on the integer rows, certified exactly by the kernel it
reconstructs as fractions with numerator and denominator of at most
sqrt(p/2), about 2^30, by Wang's step (algebra._wang, which UPoly.gcd
shares); the rank of a matrix with w parts, or where the certificate
fails, is echelon_zw's pivot count.  Every quadratic-form question
(positive definiteness, semidefiniteness, a diagonal form) reads the one
congruence elimination, ldl.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import (
    C_ONE,
    C_ZERO,
    AlgebraError,
    Cyclo,
    _P,
    _wang,
    _zw_lift,
    echelon_det,
    echelon_zw,
)


def rank(rows) -> int:
    """Rank over Q(w), certified exactly.

    A matrix with a nonzero w part takes the exact elimination: its rank
    is len(echelon_zw(rows)[2]).  A rational matrix has its rows scaled
    into Z, which keeps the rank.  Gauss-Jordan mod p gives r pivots, so
    the rank is at least r: a minor nonzero mod p is a nonzero integer.
    For each free column the kernel vector of the reduced form mod p is
    lifted to Q by rational reconstruction (algebra._wang) and checked
    exactly on the integer rows; with 1 at its own free column and 0 at
    the others, these are independent, so the rank is at most r.  If a
    reconstruction or a check fails, the rank is echelon_zw's too.
    """
    ints = _integer_rows(rows)
    if ints is not None:
        if not ints or not ints[0]:
            return 0
        sparse = [{j: x for j, x in enumerate(r) if x} for r in ints]
        pivots = _rref_mod_p(sparse)
        if _kernel_checks(sparse, pivots, len(ints[0])):
            return len(pivots)
    return len(echelon_zw(rows)[2])


def _integer_rows(rows):
    """The rows scaled into Z, or None when an entry has a nonzero w part."""
    out = []
    for r in rows:
        if all(type(x) is int for x in r):
            out.append(r)
            continue
        a, b = _zw_lift(r)[:2]
        if any(b):
            return None
        out.append(a)
    return out


def _rref_mod_p(rows):
    """Reduced row echelon form mod p of sparse integer rows ({column: value}):
    {pivot column: row}, each row a {column: residue} map holding 1 at its
    pivot and nothing at the other pivot columns."""
    pivots = {}
    for row in rows:
        r = {j: x % _P for j, x in row.items() if x % _P}
        # a reduced pivot row changes no other pivot column of r
        for c in [c for c in r if c in pivots]:
            _subtract(r, r[c], pivots[c])
        if not r:
            continue
        c = min(r)
        inv = pow(r[c], -1, _P)
        r = {j: x * inv % _P for j, x in r.items()}
        for other in pivots.values():
            if c in other:
                _subtract(other, other[c], r)
        pivots[c] = r
    return pivots


def _subtract(r, f, row):
    """r -= f * row mod p, in place, keeping only nonzero residues."""
    for j, y in row.items():
        x = (r.get(j, 0) - f * y) % _P
        if x:
            r[j] = x
        else:
            r.pop(j, None)


def _kernel_checks(rows, pivots, ncols) -> bool:
    """Whether every free column's kernel vector of the reduced form mod p
    reconstructs to a rational vector that the integer rows annihilate."""
    for f in range(ncols):
        if f in pivots:
            continue
        v = {f: Fraction(1)}
        for c, prow in pivots.items():
            if f in prow:
                q = _wang(-prow[f] % _P)
                if q is None:
                    return False
                v[c] = Fraction(*q)
        den = math.lcm(*(q.denominator for q in v.values()))
        v = {j: q.numerator * (den // q.denominator) for j, q in v.items()}
        for row in rows:
            if sum(x * v[j] for j, x in row.items() if j in v):
                return False
    return True


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
    if d.q:
        raise AlgebraError("determinant is not rational")
    return Fraction(d.p, d.d)


def ldl(rows):
    """Congruence LDL^T of a symmetric rational matrix m: (d, u), d the
    diagonal and u the strict upper part of the unit upper factor, so
    Q(x) = sum d_i (x_i + sum_{j>i} u[i][j] x_j)^2 when no pivot moves.

    Only a zero diagonal pivots, on the trailing block: swap with the first
    later nonzero diagonal, else add row and column j (the first with
    m[i][j] != 0) to row and column i, else d_i = 0.  By Sylvester's law of
    inertia m is positive definite iff every d_i > 0 (no pivot moves then),
    semidefinite iff every d_i >= 0 and singular iff some d_i = 0.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, n) if a[j][j]), None)
            if j is not None:
                a[i], a[j] = a[j], a[i]
                for row in a[i:]:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((j for j in range(i + 1, n) if a[i][j]), None)
                if j is not None:
                    for k in range(i, n):
                        a[i][k] += a[j][k]
                    for row in a[i:]:
                        row[i] += row[j]
        d[i] = a[i][i]
        if d[i] == 0:
            continue
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= a[i][j] * u[i][k]
                a[k][j] = a[j][k]
    return d, u
