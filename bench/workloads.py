"""The four benchmark workloads: seeded inputs, one operation, exact oracle.

Each workload maps the workload seed to one *pass*: a list of inputs that
the closed loop runs in order, one operation at a time.  An operation is
one checked solve of one input; it raises CheckFailed when an exact answer
differs from the expected one.  Why each workload exists, and why its seed
maps to inputs the way it does, is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from curvelattice.adjunction import CurveProfile, CuspScheme, alexander
from curvelattice.algebra import C_ONE, C_ZERO, OMEGA, MPoly, ProjPoint, parse_poly
from curvelattice.lattice import INDEX_ASSUMPTION, CurveSummary, zariski_certificate
from curvelattice.torus import (
    Y_VARS,
    QuasiToricPoint,
    find_toric_sextic,
    gram,
    mu6_orbit,
    omega_point,
    seeded_torus_sextic,
    table1_construct,
    verify_decomposition,
)

ROOT = Path(__file__).resolve().parent.parent

A2 = [[2, -1], [-1, 2]]
A2_2 = [[4, -2], [-2, 4]]
A2_3 = [[6, -3], [-3, 6]]
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
ALEXANDER_1_6 = {Fraction(1, 6): 1, Fraction(5, 6): 1}


class CheckFailed(Exception):
    """An exact answer differs from the workload's oracle."""


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# nine-cusp: criterion 2, the only workload with genuine Q(w) scalars
# ---------------------------------------------------------------------------

XYZ = ("x", "y", "z")
NINE_CUSP = parse_poly("x^6 - 2*x^3*y^3 - 2*x^3*z^3 + y^6 - 2*y^3*z^3 + z^6", XYZ)


def _nine_cusps():
    w2 = OMEGA * OMEGA
    pts = []
    for e in (C_ONE, OMEGA, w2):
        pts += [(C_ZERO, e, C_ONE), (e, C_ZERO, C_ONE), (e, C_ONE, C_ZERO)]
    return pts


def _unimodular(seed):
    """Seed 0: the identity.  Otherwise E*D: sign flips D of x and y, then
    the shear x -> x + c*y with a seeded sign c.  The curve is invariant
    under permutations and w-scalings, so the shear is what makes the input
    new.  The shear always acts on x: shearing z costs up to 1.4x more per
    solve (z = 1 is the elimination chart), which would make the cost
    depend on the seed."""
    if seed == 0:
        return [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rng = random.Random(f"nine-cusp:{seed}")
    d1, d2, c = (rng.choice((1, -1)) for _ in range(3))
    return [[d1, c * d2, 0], [0, d2, 0], [0, 0, 1]]


def _inverse3(m):
    """Exact inverse of an integer 3x3 matrix with determinant +-1."""
    cof = [
        [
            m[(r + 1) % 3][(c + 1) % 3] * m[(r + 2) % 3][(c + 2) % 3]
            - m[(r + 1) % 3][(c + 2) % 3] * m[(r + 2) % 3][(c + 1) % 3]
            for c in range(3)
        ]
        for r in range(3)
    ]
    det = sum(m[0][c] * cof[0][c] for c in range(3))
    check(abs(det) == 1, "coordinate change is not unimodular")
    return [[Fraction(cof[c][r], det) for c in range(3)] for r in range(3)]


def nine_cusp_pass(seed):
    """One input: the nine-cusp sextic g(M v) and its nine cusps M^-1 p."""
    m = _unimodular(seed)
    variables = [MPoly.variable(v, XYZ) for v in XYZ]
    images = [
        sum((variables[k].scale(m[r][k]) for k in range(3) if m[r][k]), MPoly.zero(XYZ))
        for r in range(3)
    ]
    inv = _inverse3(m)
    cusps = {
        ProjPoint(tuple(sum((p[k] * inv[r][k] for k in range(3)), C_ZERO) for r in range(3)))
        for p in _nine_cusps()
    }
    return [(NINE_CUSP.compose(images), cusps)]


def nine_cusp_op(inp):
    g, cusps = inp
    profile = CurveProfile(g)
    check(len(profile.points) == 9, f"{len(profile.points)} singular points, expected 9")
    check(all(p.kind == "cusp" for p in profile.points), "a singular point is not a cusp")
    check({p.point for p in profile.points} == cusps, "cusps are not the images of the nine")
    result = find_toric_sextic(profile)
    check(result.points == [], f"{len(result.points)} toric points, expected 0")
    check(result.complete and result.field_exhausted, "search not complete and field-exhausted")
    check(result.missing == 60, f"missing {result.missing}, expected 60")
    check(alexander(profile).rendered == "(t^2 - t + 1)^3", "Alexander polynomial")


# ---------------------------------------------------------------------------
# torus-sextics: criterion 3, generation included
# ---------------------------------------------------------------------------

TORUS_POOL = 12


def torus_pass(seed):
    """The generator seeds 0..11, rotated to start at seed mod 12.

    Per-seed cost spreads 0.75-2.4 s, and a run holds only about twelve
    solves, so a seed-dependent set of generator seeds would move the
    median by more than the bound; the rotation keeps the set fixed."""
    start = seed % TORUS_POOL
    return [(start + i) % TORUS_POOL for i in range(TORUS_POOL)]


def torus_op(t):
    profile, q, c = seeded_torus_sextic(t)
    check(profile.g == q * q * q + c * c, "curve is not q^3 + c^2")
    check(
        len(profile.points) == 6 and all(p.kind == "cusp" for p in profile.points),
        "generated curve does not have exactly six cusps",
    )
    points = find_toric_sextic(profile).points
    check(len(points) == 6, f"{len(points)} toric points, expected 6")
    check(set(mu6_orbit(points[0])) == set(points), "points are not one mu6 orbit")
    check(gram([points[0], omega_point(points[0])]).entries == A2, "Gram [p, wp] is not A2")


# ---------------------------------------------------------------------------
# cusp-scheme-deg12: criterion 9 on the Table-1 k = 2 construction
# ---------------------------------------------------------------------------

# sign changes of (y0, y1, y2): projective automorphisms that keep every
# coefficient's size, so one solve costs the same for every seed (seeds of
# the construction itself differ 1.6x in cost, 14.5-23 s measured)
SCHEME_SIGNS = [(1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, 1, 1)]


def cusp_scheme_pass(seed):
    return [SCHEME_SIGNS[seed % len(SCHEME_SIGNS)]]


def cusp_scheme_op(signs):
    f, g, F = table1_construct(2, None, seed=0)
    images = [MPoly.variable(v, Y_VARS).scale(s) for v, s in zip(Y_VARS, signs)]
    f, g, F = f.compose(images), g.compose(images), F.compose(images)
    curve = F.scale(-1)
    scheme = CuspScheme(f, g, "y0", include_line=True)
    check(scheme.count() == 30, f"{scheme.count()} cusps, expected 30")
    summary = CurveSummary.from_profile(CurveProfile(curve, scheme=scheme))
    check(summary.degree == 12, "degree")
    check(summary.inventory == {"cusp": 30}, f"inventory {summary.inventory}")
    check(summary.alexander_orders == ALEXANDER_1_6, "Alexander orders")
    check(summary.delta_one_sixth == 0, "delta at 1/6")
    check(summary.rank_prediction == 2, f"rank {summary.rank_prediction}, expected 2")
    point = QuasiToricPoint(f, g, images[0], curve, 2)
    ok, detail = verify_decomposition(point)
    check(ok, f"(f, g, y0) is not a decomposition: {detail}")
    gram_a = gram([point, omega_point(point)]).entries
    check(gram_a == A2_3, f"Gram {gram_a}, expected A2(3)")
    fixture = CurveSummary(12, {"cusp": 30}, ALEXANDER_1_6, 0, 2)
    doc = zariski_certificate(summary, gram_a, fixture, A2_2)
    check(doc["verdict"] == "certificate", f"verdict {doc['verdict']}")
    check(doc["deviations"] == [INDEX_ASSUMPTION], "certificate deviations")


# ---------------------------------------------------------------------------
# cli-batch: short commands, each in a fresh process
# ---------------------------------------------------------------------------

CLI_MAIN = 'import sys; from curvelattice.cli import main; sys.argv[0] = "curvelattice"; main()'


def _squarefree(n):
    out, d = 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            out *= d
            n //= d
        d += 1
    return out * n


def _permuted(gram_rows, rng):
    perm = rng.sample(range(len(gram_rows)), len(gram_rows))
    return [[gram_rows[i][j] for j in perm] for i in perm]


def _summary_doc(gram_rows):
    return json.dumps(
        {
            "degree": 12,
            "inventory": {"cusp": 30},
            "alexander_orders": {"1/6": 1, "5/6": 1},
            "delta_one_sixth": 0,
            "rank_prediction": 2,
            "gram": gram_rows,
        }
    )


def cli_pass(seed):
    """The twelve commands twice, each time with seeded parameters, in a
    seeded order: 24 (argv, oracle) pairs.  Twenty-four, not twelve,
    because the commands differ up to 2x in cost and the median of one run
    sat on whichever one or two commands fell in the middle."""
    rng = random.Random(f"cli-batch:{seed}")
    cmds = _cli_commands(rng) + _cli_commands(rng)
    rng.shuffle(cmds)
    return cmds


def _cli_commands(rng):
    """One (argv, oracle) pair per command; rng picks cost-neutral
    parameters: exponents, basis orders, scalings, roots."""
    cmds = []

    e = rng.randint(3, 8)
    spec = {str(Fraction(-1, 2) + Fraction(i, e)): 1 for i in range(1, e)}
    cmds.append((
        ["spectrum", "--f", f"x^2+y^{e}", "--weights", f"{e},2"],
        lambda d: d["spectrum"] == spec and d["milnor_number"] == e - 1,
    ))

    e8 = json.dumps({"gram": _permuted(E8, rng)})
    cmds.append((
        ["lattice", "minvec", "--gram", e8],
        lambda d: d["min_norm"] == 2 and d["count"] == 240,
    ))

    e6 = json.dumps({"gram": _permuted(E6, rng)})
    cmds.append((
        ["lattice", "id", "--saturation", "--gram", e6],
        lambda d: d["tag"] == "E6" and [int(x) for x in d["evidence"]] == [6, 3, 2, 72],
    ))

    s = rng.randint(2, 7)
    diag = [_squarefree(2 * s), _squarefree(6 * s)]
    a2s = json.dumps({"gram": [[2 * s, -s], [-s, 2 * s]]})
    cmds.append((
        ["lattice", "diag", "--gram", a2s],
        lambda d: d["diagonal"] == diag,
    ))

    cmds.append((
        ["lattice", "qequiv", "--a", json.dumps({"gram": A2_2}), "--b", json.dumps({"gram": A2_3})],
        lambda d: d["equivalent"] is False and d["witness_prime"] == 3,
    ))

    b = rng.randint(1, 5)
    disc = f"27*t^10 + {54 * b}*t^5 + {27 * b * b}"
    cmds.append((
        ["weier", "check", "--A", "0", "--B", f"t^5 + {b}", "--k", "1"],
        lambda d: d["minimal"] is True and d["no_reducible_fibers"] is True
        and d["discriminant"] == disc,
    ))

    # torus sextic (xz - y^2)^3 + prod (z - r^2 x)^2: six cusps (1 : +-r : r^2)
    roots = sorted(rng.sample(range(1, 6), 3))
    cubic = "*".join(f"(z - {r * r}*x)" for r in roots)
    curve = json.dumps({"g": f"(x*z - y^2)^3 + ({cubic})^2"})
    cusps = sorted(
        [str(Fraction(1, r * r)), str(Fraction(sg, r)), "1"] for r in roots for sg in (1, -1)
    )
    cmds.append((
        ["singular", "--curve", curve],
        lambda d: d["inventory"] == {"cusp": 6} and d["degree"] == 6
        and sorted(p["point"] for p in d["points"]) == cusps,
    ))
    cmds.append((
        ["defects", "--curve", curve],
        lambda d: d["defects"]["5/6"] == {"l": 6, "h": 5, "delta": 1}
        and all(v["delta"] == 0 for k, v in d["defects"].items() if k != "5/6"),
    ))
    cmds.append((
        ["alexander", "--curve", curve],
        lambda d: d["polynomial"] == "(t^2 - t + 1)" and d["orders"] == {"1/6": 1, "5/6": 1},
    ))
    cmds.append((
        ["mwrank", "--f", "x^2+y^3", "--weights", "3,2", "--curve", curve],
        lambda d: d["applicable"] is True and d["rank"] == 2
        and d["contributions"] == {"1/6": 1, "5/6": 1},
    ))

    t1 = rng.randint(0, 9)
    cmds.append((
        ["--seed", str(t1), "table1", "--k", "1"],
        lambda d: d["verified"] is True and d["height"] == 4 and d["k"] == 1,
    ))

    cmds.append((
        ["zariski", "--a", _summary_doc(A2_3), "--b", _summary_doc(A2_2)],
        lambda d: d["verdict"] == "certificate" and d["comparison"]["witness_prime"] == 3
        and len(d["deviations"]) == 1,
    ))

    return cmds


def cli_op(inp, prefix=None):
    """Run one command in a fresh process and check its report.  The
    process inherits PYTHONPATH, which run.py points at src/.

    prefix replaces the plain entry point, e.g. by the traced one."""
    argv, oracle = inp
    cmd = (prefix or [sys.executable, "-c", CLI_MAIN]) + argv
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    check(proc.returncode == 0, f"{argv[0]}: exit {proc.returncode}: {proc.stderr[-300:]}")
    doc = json.loads(proc.stdout)
    check(doc.get("schema") == "curvelattice/1", f"{argv[0]}: schema")
    check(oracle(doc), f"{' '.join(argv[:2])}: report differs from the oracle")


WORKLOADS = {
    "nine-cusp": (nine_cusp_pass, nine_cusp_op),
    "torus-sextics": (torus_pass, torus_op),
    "cusp-scheme-deg12": (cusp_scheme_pass, cusp_scheme_op),
    "cli-batch": (cli_pass, cli_op),
}
