"""Tests for shortest vectors, lattice identification, and Q-equivalence."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curvelattice import lattice
from curvelattice.algebra import DomainError, isprime
from curvelattice.lattice import (
    INDEX_ASSUMPTION,
    CurveSummary,
    Degenerate,
    LatticeId,
    NotPositiveDefinite,
    PrereqFailed,
    QuadForm,
    diagonalize,
    evidence_tuple,
    factorint,
    hasse_invariant,
    hilbert_symbol,
    identify,
    identify_saturation,
    q_compare,
    q_equivalent,
    _range_for,
    shortest_vectors,
    zariski_certificate,
)

A2 = [[2, -1], [-1, 2]]
A2_2 = [[4, -2], [-2, 4]]
A2_3 = [[6, -3], [-3, 6]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
E6 = [
    [2, -1, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0],
    [0, -1, 2, -1, 0, -1],
    [0, 0, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, 0],
    [0, 0, -1, 0, 0, 2],
]
E8 = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


def direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                out[off + i][off + j] = b[i][j]
        off += len(b)
    return out


A2_CUBED = direct_sum(A2, A2, A2)


class TestShortestVectors:
    def test_a2(self):
        norm, count, vecs = shortest_vectors(A2)
        assert (norm, count) == (2, 6)
        assert len(vecs) == 6 and all(len(v) == 2 for v in vecs)

    def test_kissing_numbers(self):
        # oracle: classical kissing numbers of the root lattices
        for gram, expected in [(A2, 6), (D4, 24), (E6, 72), (E8, 240), (A2_CUBED, 18)]:
            norm, count, _v = shortest_vectors(gram)
            assert (norm, count) == (2, expected)

    def test_scaled_a2(self):
        norm, count, _v = shortest_vectors(A2_3)
        assert (norm, count) == (6, 6)

    def test_count_even(self):
        rng = random.Random(5)
        for _ in range(10):
            b = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            g = [
                [sum(b[i][k] * b[j][k] for k in range(3)) for j in range(3)]
                for i in range(3)
            ]
            try:
                _norm, count, vecs = shortest_vectors(g)
            except NotPositiveDefinite:
                continue
            assert count % 2 == 0
            for v in vecs:
                assert tuple(-x for x in v) in set(vecs)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            shortest_vectors([[1, 0], [0, -1]])

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            shortest_vectors([[2 if i == j else 0 for j in range(9)] for i in range(9)])

    def test_rejects_asymmetric_rows(self):
        # raw rows go through QuadForm's checks, as in evidence_tuple
        with pytest.raises(DomainError, match="symmetric"):
            shortest_vectors([[2, 1], [0, 2]])

    def test_skewed_form_refused_before_enumerating(self):
        # positive definite, but about 6 * 10^15 leaves under the bound
        skewed = [[1, 1], [1, Fraction(10**30 + 1, 10**30)]]
        with pytest.raises(DomainError, match="limit"):
            shortest_vectors(skewed)


def range_for_reference(c, s):
    """lattice._range_for before the exact bounds: a float estimate
    corrected by four exact loops."""
    if s < 0:
        return range(0, 0)

    def below_upper(x):
        v = x + c
        return v <= 0 or v * v <= s

    def above_lower(x):
        v = x + c
        return v >= 0 or v * v <= s

    root = math.sqrt(float(s))
    hi = math.floor(root - float(c))
    while below_upper(hi + 1):
        hi += 1
    while not below_upper(hi):
        hi -= 1
    lo = math.ceil(-root - float(c))
    while above_lower(lo - 1):
        lo -= 1
    while not above_lower(lo):
        lo += 1
    return range(lo, hi + 1)


class TestRangeFor:
    @given(
        st.fractions(-10**6, 10**6, max_denominator=10**6),
        st.fractions(0, 10**8, max_denominator=10**6),
    )
    @example(Fraction(0), Fraction(0))
    @example(Fraction(1, 2), Fraction(1, 4))
    @example(Fraction(-7, 3), Fraction(49, 9))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_float_bounds(self, c, s):
        assert _range_for(c, s) == range_for_reference(c, s)

    def test_beyond_float_range(self):
        s = Fraction(10**400)
        with pytest.raises(OverflowError):
            range_for_reference(Fraction(0), s)
        assert _range_for(0, s) == range(-(10**200), 10**200 + 1)
        r = _range_for(Fraction(1, 3), s + 1)
        for x in (r[0], r[-1]):
            assert (x + Fraction(1, 3)) ** 2 <= s + 1
        for x in (r[0] - 1, r[-1] + 1):
            assert (x + Fraction(1, 3)) ** 2 > s + 1


def scaled(gram, k):
    return [[k * x for x in row] for row in gram]


def test_every_table_lattice_within_the_enumeration_limit():
    # E8 in its root basis is the largest: 19,683 leaves
    for k in range(1, 9):
        assert identify(scaled(A2, k)).tag == f"A2({k})"
        for m in range(2, 5):
            assert identify(scaled(direct_sum(*[A2] * m), k)).tag == f"A2^{m}({k})"
    for tag, gram in [("D4", D4), ("E6", E6), ("E8", E8)]:
        assert identify(gram).tag == tag


class TestIdentify:
    def test_named_lattices(self):
        assert identify(A2_3).tag == "A2(3)"
        assert identify(A2_2).tag == "A2(2)"
        assert identify(D4).tag == "D4"
        assert identify(E6).tag == "E6"
        assert identify(E8).tag == "E8"
        assert identify(A2_CUBED).tag == "A2^3(1)"

    def test_unknown(self):
        lid = identify([[1, 0], [0, 1]])
        assert lid.tag == "Unknown"
        assert lid.evidence == (2, 1, 1, 4)

    def test_evidence_recorded(self):
        lid = identify(E6)
        assert lid.evidence == (6, 3, 2, 72)
        assert "not an isometry proof" in lid.note

    def test_saturation_ambiguous_a2_cubed(self):
        # determinant 27 = 3^2 * 3 admits an index-3 saturation with
        # determinant 3 (the rank-6 root lattice with 72 minimal vectors),
        # so the verdict must stay open
        lid = identify_saturation(A2_CUBED)
        assert lid.tag == "Unknown"
        assert lid.evidence == (6, 27, 2, 18)

    def test_saturation_forced(self):
        lid = identify_saturation(E6)
        assert lid.tag == "E6"

    def test_saturation_squarefree_det(self):
        assert identify_saturation(A2).tag == "A2(1)"


def saturation_by_loop(ev):
    """Test-local copy of the former identify_saturation search on an
    evidence tuple: every f with f^2 <= det, each against every row."""
    rank, det, mn, kiss = ev
    candidates = []
    f = 1
    while f * f <= det:
        if det % (f * f) == 0:
            target = det / (f * f)
            for tag, trank, tdet, tmn, tkiss in lattice._table():
                if trank != rank or tdet != target:
                    continue
                if f == 1 and (tmn, tkiss) != (mn, kiss):
                    continue
                if f > 1 and tmn > mn:
                    continue
                candidates.append(tag)
        f += 1
    return candidates[0] if len(candidates) == 1 else "Unknown"


@st.composite
def saturation_evidence(draw):
    """(rank, det, min norm, kissing number) near a table row: its
    determinant times f^2 and a square or non-square (possibly
    fractional) factor, with the row's or a nearby norm and count."""
    _tag, rank, tdet, tmn, tkiss = draw(st.sampled_from(lattice._table()))
    f = draw(st.integers(1, 6))
    factor = draw(st.sampled_from([1, 2, 3, 4, 6, 9, Fraction(1, 2), Fraction(9, 4), Fraction(4, 3)]))
    det = tdet * f * f * factor
    assume(det <= 10**8)  # the loop's cost grows with sqrt(det)
    mn = draw(st.sampled_from([tmn, tmn - 1, tmn + 1, 2 * tmn, tmn / 2]))
    kiss = draw(st.sampled_from([tkiss, tkiss + 2, 2]))
    return (rank, det, mn, kiss)


class TestSaturationIndex:
    """identify_saturation reads each row's index from det / tdet."""

    @settings(max_examples=400, deadline=None)
    @given(saturation_evidence())
    def test_matches_former_loop(self, ev):
        with mock.patch.object(lattice, "evidence_tuple", lambda gram: ev):
            lid = identify_saturation(None)
        assert lid.tag == saturation_by_loop(ev)
        assert lid.evidence == ev

    def test_large_determinant(self):
        # det 10^30 matches no row; the former loop would try 10^15 f
        lid = identify_saturation([[10**30]])
        assert lid.tag == "Unknown"
        assert lid.evidence == (1, 10**30, 10**30, 2)

    def test_index_two_sublattice(self):
        # A2(2) has index 2 in A2(1) and is a table row itself: two
        # candidates, so the verdict stays open
        assert identify_saturation(A2_2).tag == "Unknown"


class TestDiagonalize:
    def test_a2_2(self):
        assert diagonalize(QuadForm(A2_2)) == [1, 3]

    def test_a2_3(self):
        assert diagonalize(QuadForm(A2_3)) == [6, 2]

    def test_already_diagonal(self):
        assert diagonalize(QuadForm([[5, 0], [0, 7]])) == [5, 7]

    def test_square_reduction(self):
        assert diagonalize(QuadForm([[4, 0], [0, Fraction(9, 2)]])) == [1, 2]

    def test_congruence_witness(self):
        # reconstruct: diagonal entries must agree with P^T Q P for the
        # elimination P implied by re-running the reduction on a random form
        rng = random.Random(11)
        for _ in range(10):
            b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            q = [
                [sum(b[i][k] * b[j][k] for k in range(3)) for j in range(3)]
                for i in range(3)
            ]
            try:
                diag = diagonalize(QuadForm(q))
            except Degenerate:
                continue
            # same signature and discriminant class as the original
            det = QuadForm(q).det()
            prod = Fraction(1)
            for d in diag:
                prod *= d
            assert (det > 0) == (prod > 0)

    def test_zero_pivot_handled(self):
        # the hyperbolic plane diagonalizes to opposite square classes
        diag = sorted(diagonalize(QuadForm([[0, 1], [1, 0]])))
        assert diag in ([-1, 1], [-2, 2])

    def test_degenerate(self):
        with pytest.raises(Degenerate):
            diagonalize(QuadForm([[1, 1], [1, 1]]))


class TestHilbertSymbol:
    def test_identities(self):
        assert hilbert_symbol(-1, -1, "inf") == -1
        for p in (2, 3, 5, 7, "inf"):
            for b in (2, 3, -5, Fraction(7, 3)):
                assert hilbert_symbol(1, b, p) == 1

    def test_known_values(self):
        # (2,3)_3: v(2)=0, v(3)=1 -> legendre(2|3) = -1
        assert hilbert_symbol(2, 3, 3) == -1
        assert hilbert_symbol(6, 2, 3) == -1
        assert hilbert_symbol(1, 3, 3) == 1
        # (-1,-1)_2 = -1 classically
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(2, 2, 2) == 1
        assert hilbert_symbol(2, 3, 2) == -1

    @pytest.mark.parametrize("p", [3.9, 3.0, "infinity", math.inf, True, 4, Fraction(3)])
    def test_place_is_inf_or_an_int_prime(self, p):
        # 3.9 was once read as 3, and "infinity" and math.inf as "inf"
        with pytest.raises(DomainError):
            hilbert_symbol(2, 3, p)

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(17)
        vals = [v for v in range(-9, 10) if v]
        for _ in range(60):
            a, b1, b2 = rng.choice(vals), rng.choice(vals), rng.choice(vals)
            for p in (2, 3, 5, 7, "inf"):
                assert hilbert_symbol(a, b1, p) == hilbert_symbol(b1, a, p)
                assert hilbert_symbol(a, b1 * b2, p) == hilbert_symbol(
                    a, b1, p
                ) * hilbert_symbol(a, b2, p)

    def test_product_formula(self):
        rng = random.Random(23)
        for _ in range(200):
            a = rng.randint(-30, 30) or 1
            b = rng.randint(-30, 30) or 1
            primes = {2} | set(sympy.factorint(abs(a))) | set(sympy.factorint(abs(b)))
            prod = hilbert_symbol(a, b, "inf")
            for p in primes:
                prod *= hilbert_symbol(a, b, p)
            assert prod == 1


class TestQEquivalence:
    def test_a2_scalings_inequivalent(self):
        rep = q_compare(QuadForm(A2_2), QuadForm(A2_3))
        assert rep["equivalent"] is False
        assert rep["witness_prime"] == 3

    def test_square_scaling_equivalent(self):
        q = QuadForm(A2_3)
        assert q_equivalent(q, q.scaled(4))
        assert q_equivalent(q, q.scaled(Fraction(1, 9)))

    def test_equivalence_relation(self):
        forms = [QuadForm(A2), QuadForm(A2_2), QuadForm(A2_3), QuadForm(A2).scaled(9)]
        for q in forms:
            assert q_equivalent(q, q)
        for q1 in forms:
            for q2 in forms:
                assert q_equivalent(q1, q2) == q_equivalent(q2, q1)
        for q1 in forms:
            for q2 in forms:
                for q3 in forms:
                    if q_equivalent(q1, q2) and q_equivalent(q2, q3):
                        assert q_equivalent(q1, q3)

    def test_signature_detects(self):
        assert not q_equivalent(QuadForm([[1, 0], [0, 1]]), QuadForm([[1, 0], [0, -1]]))


def summary(rank=2):
    return CurveSummary(
        12,
        {"cusp": 30},
        {Fraction(1, 6): 1, Fraction(5, 6): 1},
        0,
        rank,
    )


class TestZariskiCertificate:
    def test_certificate_emitted(self):
        doc = zariski_certificate(summary(), A2_3, summary(), A2_2)
        assert doc["verdict"] == "certificate"
        assert doc["deviations"] == [INDEX_ASSUMPTION]
        assert doc["comparison"]["witness_prime"] == 3

    def test_envelope_left_to_cli(self):
        # cli._emit adds "schema" to every report
        assert "schema" not in zariski_certificate(summary(), A2_3, summary(), A2_2)

    def test_identical_inconclusive(self):
        doc = zariski_certificate(summary(), A2_3, summary(), A2_3)
        assert doc["verdict"] == "inconclusive"
        assert doc["deviations"] == []

    def test_rank_deficient_inconclusive(self):
        doc = zariski_certificate(summary(rank=4), A2_3, summary(rank=4), A2_2)
        assert doc["verdict"] == "inconclusive"

    def test_prereq_failures(self):
        other = CurveSummary(
            12, {"cusp": 27}, {Fraction(1, 6): 1, Fraction(5, 6): 1}, 0, 2
        )
        with pytest.raises(PrereqFailed):
            zariski_certificate(summary(), A2_3, other, A2_2)
        bad_delta = CurveSummary(
            12, {"cusp": 30}, {Fraction(1, 6): 1, Fraction(5, 6): 1}, 1, 2
        )
        with pytest.raises(PrereqFailed):
            zariski_certificate(summary(), A2_3, bad_delta, A2_2)


class TestNumberTheory:
    """The stdlib factorint against sympy's, and the Legendre symbol that
    hilbert_symbol reads by Euler's criterion against reciprocity."""

    def test_factorint_matches_sympy(self):
        rng = random.Random(11)
        ns = list(range(1, 3000)) + [rng.randrange(1, 10**12) for _ in range(200)]
        ns += [2**40 * 3**5, 97**4 * 101, 999983 * 1000003, 2**61 - 1]
        for n in ns:
            assert factorint(n) == sympy.factorint(n), n

    @staticmethod
    def reciprocity_jacobi(a, n):
        """The Jacobi symbol (a / n) for odd n > 0 by quadratic
        reciprocity, the package's former route to the Legendre symbol."""
        a %= n
        out = 1
        while a:
            while a % 2 == 0:
                a //= 2
                if n % 8 in (3, 5):
                    out = -out
            a, n = n, a
            if a % 4 == 3 and n % 4 == 3:
                out = -out
            a %= n
        return out if n == 1 else 0

    def test_legendre_by_euler_matches_reciprocity(self):
        # for a unit u = a/b at an odd prime p, (u, p)_p is the Legendre
        # symbol (u / p), which is (a*b / p)
        for p in filter(isprime, range(3, 400, 2)):
            for a in range(-40, 80):
                for b in (1, 2, 7):
                    if a % p and b % p:
                        want = self.reciprocity_jacobi(a * b, p)
                        assert hilbert_symbol(Fraction(a, b), p, p) == want, (a, b, p)
