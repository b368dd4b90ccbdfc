"""Differential tests of linalg's rank, kernel and determinant against
sympy's DomainMatrix over QQ and over QQ(sqrt(-3)), w = (-1 + sqrt(-3))/2,
of the certified modular rank against echelon_zw, and of the congruence
LDL^T against the two eliminations it replaced and the principal minors."""

from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from curvelattice import algebra, linalg
from curvelattice.algebra import C_ONE, C_ZERO, OMEGA, AlgebraError, Cyclo, det_cyclo, echelon_zw
from curvelattice.linalg import det_fraction, kernel_basis, ldl, rank

QW = QQ.algebraic_field(sympy.sqrt(-3))
W = QW.from_sympy((-1 + sympy.sqrt(-3)) / 2)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def to_domain(c: Cyclo, domain):
    a = QQ(c.a.numerator, c.a.denominator)
    if domain == QQ:
        assert c.b == 0
        return a
    return QW.convert(a) + QW.convert(QQ(c.b.numerator, c.b.denominator)) * W


def domain_matrix(rows, domain):
    ncols = len(rows[0]) if rows else 0
    return DomainMatrix(
        [[to_domain(c, domain) for c in r] for r in rows], (len(rows), ncols), domain
    )


@st.composite
def matrices(draw):
    """(rows, domain): tall, wide or square matrices of size up to 7 with
    rational or w entries, some with a zero row or column, a dependent
    row, a rank of at most 2 or a zero leading entry that forces a row
    swap."""
    shape = draw(st.sampled_from(["tall", "wide", "square"]))
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 7))
    if shape == "square":
        m = n
    elif (shape == "tall") != (n > m):
        n, m = m, n
    omega = draw(st.booleans())
    sparse = draw(st.booleans())
    value = st.builds(Cyclo, rationals, rationals if omega else st.just(0))
    entry = st.one_of(st.just(C_ZERO), value) if sparse else value
    rows = [[draw(entry) for _ in range(m)] for _ in range(n)]
    kind = draw(
        st.sampled_from(
            ["generic", "zero row", "zero column", "dependent row", "low rank", "row swap"]
        )
    )
    if kind == "zero row":
        rows[draw(st.integers(0, n - 1))] = [C_ZERO] * m
    elif kind == "zero column":
        j = draw(st.integers(0, m - 1))
        for r in rows:
            r[j] = C_ZERO
    elif kind == "low rank":
        # every row a combination of the first two
        rows = rows[:2] + [
            [draw(value) * x + draw(value) * y for x, y in zip(rows[0], rows[1])]
            for _ in range(n - 2)
        ]
    elif kind == "dependent row":
        # the last row is a combination of the first two (zero for one row)
        s, t = draw(value), draw(value)
        second = rows[1] if n > 2 else [C_ZERO] * m
        rows[-1] = [s * x + t * y for x, y in zip(rows[0], second)] if n > 1 else [C_ZERO] * m
    elif kind == "row swap":
        rows[0][0] = C_ZERO
        if n > 1:
            rows[1][0] = draw(value.filter(lambda c: not c.is_zero()))
    return rows, QW if omega else QQ


class TestAgainstDomainMatrix:
    @given(matrices())
    @example(([[C_ZERO, OMEGA], [C_ONE, C_ZERO]], QW))
    @example(([[C_ZERO, C_ZERO, C_ONE], [C_ZERO, C_ZERO, Cyclo(2)]], QQ))
    @settings(max_examples=150, deadline=None)
    def test_rank(self, case):
        rows, domain = case
        assert rank(rows) == domain_matrix(rows, domain).rank() == len(echelon_zw(rows)[2])

    @given(matrices())
    @example(([[C_ZERO, OMEGA, C_ONE], [C_ZERO, C_ONE, OMEGA * OMEGA]], QW))
    @example(([[Cyclo(0), Cyclo(Fraction(1, 2)), Cyclo(3)]], QQ))
    @settings(max_examples=150, deadline=None)
    def test_kernel_basis(self, case):
        rows, domain = case
        ncols = len(rows[0])
        rref, pivots = domain_matrix(rows, domain).rref()
        rref = rref.to_list()
        free = [c for c in range(ncols) if c not in pivots]
        basis = kernel_basis(rows)
        assert len(basis) == ncols - rank(rows) == len(free)
        for fc, v in zip(free, basis):
            for r in rows:
                assert sum((a * x for a, x in zip(r, v)), C_ZERO) == C_ZERO
            assert [v[c] for c in free] == [C_ONE if c == fc else C_ZERO for c in free]
            # the reduced row echelon form's null-space vector, entry by entry
            for i, pc in enumerate(pivots):
                assert to_domain(v[pc], domain) == -rref[i][fc]

    @given(matrices().filter(lambda case: len(case[0]) == len(case[0][0])))
    @example(([[C_ZERO, C_ONE], [C_ONE, C_ZERO]], QQ))
    @example(([[Cyclo(Fraction(1, 2)), C_ONE], [C_ONE, Cyclo(2)]], QQ))
    @settings(max_examples=150, deadline=None)
    def test_det_fraction(self, case):
        rows, _domain = case
        rational = [[c.a for c in r] for r in rows]
        det = domain_matrix([[Cyclo(x) for x in r] for r in rational], QQ).det()
        assert det_fraction(rational) == Fraction(int(det.numerator), int(det.denominator))


class TestEdgeValues:
    def test_empty(self):
        assert det_fraction([]) == 1
        assert rank([]) == rank([[]]) == 0
        assert kernel_basis([]) == []
        with pytest.raises(AlgebraError):
            det_cyclo([])

    def test_det_fraction_of_an_omega_matrix(self):
        # det [[w, 0], [0, w^2]] = w^3 = 1, det [[w, 0], [0, 1]] = w
        assert det_fraction([[OMEGA, C_ZERO], [C_ZERO, OMEGA * OMEGA]]) == 1
        with pytest.raises(AlgebraError):
            det_fraction([[OMEGA, C_ZERO], [C_ZERO, C_ONE]])


class TestCertifiedRank:
    """Matrices on which the mod-p certificate fails, so linalg.rank must
    reach the exact elimination (counted through linalg.echelon_zw)."""

    def counted(self, monkeypatch):
        calls = []
        real = linalg.echelon_zw
        monkeypatch.setattr(linalg, "echelon_zw", lambda rows: calls.append(rows) or real(rows))
        return calls

    def test_prime_divides_a_minor(self, monkeypatch):
        # rank 1 mod p = 2^61 - 1 with kernel vector (-1, 1), but the
        # determinant is p: the exact check of (-1, 1) fails
        calls = self.counted(monkeypatch)
        rows = [[1, 1], [1, 1 + (2**61 - 1)]]
        assert rank(rows) == 2
        assert calls == [rows]

    def test_kernel_entry_beyond_the_reconstruction_bound(self, monkeypatch):
        # the kernel vector (3^30, 1) has an entry above sqrt(p/2), and its
        # residue has no fraction with numerator and denominator below it
        calls = self.counted(monkeypatch)
        rows = [[1, -(3**30)]]
        assert algebra._wang(3**30) is None
        assert rank(rows) == 1
        assert calls == [rows]

    def test_certified_without_fallback(self, monkeypatch):
        calls = self.counted(monkeypatch)
        rows = [[3, 1, 0], [-6, -2, 0], [Fraction(1, 3), 2, 5]]
        # row 2 is -2 times row 1, so the rank is 2, certified mod p
        assert rank(rows) == 2
        assert calls == []

    def test_omega_matrix_takes_the_exact_elimination(self, monkeypatch):
        calls = self.counted(monkeypatch)
        rows = [[OMEGA, C_ONE, C_ZERO], [C_ONE, OMEGA * OMEGA, C_ZERO], [Fraction(1, 3), 2, 5]]
        # row 2 is w^2 times row 1, so the rank over Q(w) is 2
        assert rank(rows) == 2
        assert calls == [rows]


# ---------------------------------------------------------------------------
# the congruence LDL^T
# ---------------------------------------------------------------------------


def diagonalize_reference(m):
    """The diagonal of lattice.diagonalize's own elimination before it read
    linalg.ldl (before square reduction), or None where it raised on a
    singular form."""
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    for i in range(n):
        if m[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if swap is not None:
                for k in range(n):
                    m[i][k], m[swap][k] = m[swap][k], m[i][k]
                for k in range(n):
                    m[k][i], m[k][swap] = m[k][swap], m[k][i]
            else:
                j = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if j is None:
                    return None
                for k in range(n):
                    m[i][k] += m[j][k]
                for k in range(n):
                    m[k][i] += m[k][j]
        piv = m[i][i]
        for j in range(i + 1, n):
            if m[j][i] != 0:
                f = m[j][i] / piv
                for k in range(n):
                    m[j][k] -= f * m[i][k]
                for k in range(n):
                    m[k][j] -= f * m[k][i]
    return [m[i][i] for i in range(n)]


def ldl_reference(m):
    """lattice._ldl before it became linalg.ldl: (d, u) of a positive
    definite m, or None at the first non-positive pivot."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            return None
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= d[i] * u[i][j] * u[i][k]
                a[k][j] = a[j][k]
    return d, u


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices of size 1-5: generic, with zero
    diagonal entries (pivots that swap or add), singular (the last row and
    column a multiple of the first) or positive definite (L^T D L with L
    unit lower triangular and D > 0)."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["generic", "zero diagonal", "singular", "definite"]))
    if shape == "definite":
        low = [[draw(rationals) if j < i else int(i == j) for j in range(n)] for i in range(n)]
        dia = [draw(rationals.filter(lambda x: x > 0)) for _ in range(n)]
        return [
            [sum(low[k][i] * dia[k] * low[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(rationals)
    if shape == "zero diagonal":
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)):
            m[i][i] = Fraction(0)
    elif shape == "singular":
        c = draw(rationals) if n > 1 else Fraction(0)
        for j in range(n - 1):
            m[-1][j] = m[j][-1] = c * m[0][j]
        m[-1][-1] = c * m[0][-1]
    return m


def principal_minors(m):
    n = len(m)
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            yield det_fraction([[m[i][j] for j in idx] for i in idx])


class TestLdl:
    @given(symmetric_matrices())
    @example([[0, 1], [1, 0]])
    @example([[0, 0, 1], [0, 0, 2], [1, 2, 0]])
    @example([[1, 1], [1, 1]])
    @example([[0, 0], [0, 0]])
    @settings(max_examples=300, deadline=None)
    def test_diagonal_matches_the_diagonalize_elimination(self, m):
        d, _u = ldl(m)
        ref = diagonalize_reference(m)
        if ref is None:
            assert 0 in d
        else:
            assert d == ref

    @given(symmetric_matrices())
    @example([[2, -1], [-1, 2]])
    @settings(max_examples=300, deadline=None)
    def test_factor_matches_the_enumeration_ldl(self, m):
        ref = ldl_reference(m)
        d, u = ldl(m)
        assert (ref is not None) == (min(d) > 0)
        if ref is not None:
            assert (d, u) == ref
            # Q(x) = sum d_i (x_i + sum_{j>i} u_ij x_j)^2
            n = len(m)
            unit = [[u[i][j] + (i == j) for j in range(n)] for i in range(n)]
            rebuilt = [
                [sum(d[k] * unit[k][i] * unit[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert rebuilt == m

    @given(symmetric_matrices())
    @example([[2, 2, 3], [2, 2, 3], [3, 3, 2]])
    @example([[0, 0], [0, -1]])
    @settings(max_examples=300, deadline=None)
    def test_semidefinite_iff_principal_minors(self, m):
        assert (min(ldl(m)[0]) >= 0) == all(x >= 0 for x in principal_minors(m))

    def test_empty(self):
        assert ldl([]) == ([], [])
