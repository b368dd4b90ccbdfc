"""Invariance of the answers under changes that keep the curve.

A unimodular coordinate change g(M v), M in GL3(Z) with entries in
[-2, 2], and a scalar c * g, c in Q(w)*, describe the curve g = 0 again.
So the singular inventory, the defect table and the Alexander polynomial
may not move.  The toric decompositions move with the curve: under M they
are X(M v), Y(M v), Z(M v), and under a sixth power c = t^6 they are
t^2 X, t^3 Y, Z, so the count, missing and the flags stay the same and
the Gram matrix of the first two points too.  Under any other c they may
need sqrt(c) or cbrt(c): the search then either finds the same number of
points or is field-exhausted and counts at least as many missing.

Each operation solves a seeded torus sextic (seeds 0-5) once more, so the
examples are few; the module keeps to a few seconds.
"""

import functools
import random
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvelattice.adjunction import CurveProfile, alexander, defect_table
from curvelattice.algebra import Cyclo, MPoly
from curvelattice.torus import find_toric_sextic, gram, seeded_torus_sextic

XYZ = ("x", "y", "z")

seeds = st.integers(0, 5)
rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
scalars = st.builds(Cyclo, rationals, rationals).filter(lambda c: not c.is_zero())


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def unimodular(key):
    """A 3x3 integer matrix with entries in [-2, 2] and determinant +/-1,
    drawn by rejection from a generator seeded by key (about 7% of such
    matrices are unimodular)."""
    rng = random.Random(key)
    while True:
        m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if _det3(m) in (1, -1):
            return m


def curve_answers(profile):
    """What depends only on the curve: the singular inventory, the defect
    table and the Alexander polynomial."""
    kinds = Counter(p.kind for p in profile.points)
    return kinds, defect_table(profile), alexander(profile).rendered


def toric_answers(result):
    return len(result.points), result.missing, result.field_exhausted, result.complete


@functools.lru_cache(maxsize=None)
def seeded(seed):
    profile = seeded_torus_sextic(seed)[0]
    return profile, curve_answers(profile), find_toric_sextic(profile)


def check_moved(seed, g, move):
    """g is the seeded curve moved; move maps an original decomposition's
    (X, Y, Z) to the moved curve's."""
    profile, answers, found = seeded(seed)
    moved = CurveProfile(g)
    assert curve_answers(moved) == answers
    result = find_toric_sextic(moved)
    assert toric_answers(result) == toric_answers(found)
    assert {(p.X, p.Y, p.Z) for p in result.points} == {move(p.X, p.Y, p.Z) for p in found.points}
    assert gram(result.points[:2]).entries == gram(found.points[:2]).entries


@given(seeds, st.integers(0, 2**32).map(unimodular))
@settings(max_examples=12, deadline=None)
def test_unimodular_change(seed, m):
    v = [MPoly.variable(x, XYZ) for x in XYZ]
    images = [sum((v[k].scale(row[k]) for k in range(3)), MPoly.zero(XYZ)) for row in m]
    g = seeded(seed)[0].g.compose(images)
    check_moved(seed, g, lambda X, Y, Z: tuple(f.compose(images) for f in (X, Y, Z)))


@given(seeds, scalars)
@settings(max_examples=8, deadline=None)
def test_sixth_power_scalar(seed, t):
    g = seeded(seed)[0].g.scale(t**6)
    check_moved(seed, g, lambda X, Y, Z: (X.scale(t**2), Y.scale(t**3), Z))


@given(seeds, scalars)
@example(0, Cyclo(2))  # g - m0 q^3 is 2 c^2: the orbit needs sqrt(2)
@settings(max_examples=12, deadline=None)
def test_any_scalar(seed, c):
    profile, answers, found = seeded(seed)
    scaled = CurveProfile(profile.g.scale(c))
    assert curve_answers(scaled) == answers
    result = find_toric_sextic(scaled)
    n = len(found.points)
    assert result.complete
    assert len(result.points) == n or (
        result.field_exhausted and len(result.points) + result.missing >= n
    )
