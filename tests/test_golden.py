"""Golden CLI corpus: a fixed command set whose reports must stay byte for
byte what tests/golden/ holds.

Each case runs in-process through cli.run.  To record the corpus anew
(only when a report is meant to change), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from curvelattice.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"

NINE_CUSP = json.dumps({"g": "x^6 - 2*x^3*y^3 - 2*x^3*z^3 + y^6 - 2*y^3*z^3 + z^6"})
# (xz - y^2)^3 + prod (z - r^2 x)^2 for r = 1, 2, 3: six cusps (1 : +-r : r^2)
TORUS = json.dumps({"g": "(x*z - y^2)^3 + ((z - x)*(z - 4*x)*(z - 9*x))^2"})

A2 = [[2, -1], [-1, 2]]
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


def _gram(rows, scale=1):
    return json.dumps({"gram": [[scale * x for x in r] for r in rows]})


def _summary(gram):
    return json.dumps(
        {
            "degree": 12,
            "inventory": {"cusp": 30},
            "alexander_orders": {"1/6": 1, "5/6": 1},
            "delta_one_sixth": 0,
            "rank_prediction": 2,
            "gram": gram,
        }
    )


def _cases():
    cases = {}
    for curve_name, curve in (("nine-cusp", NINE_CUSP), ("torus", TORUS)):
        for cmd in ("singular", "defects", "alexander"):
            cases[f"{cmd}-{curve_name}"] = [cmd, "--curve", curve]
        cases[f"mwrank-{curve_name}"] = [
            "mwrank", "--f", "x^2+y^3", "--weights", "3,2", "--curve", curve,
        ]
    cases["toric-find-torus"] = ["toric", "find", "--curve", TORUS]
    for name, gram in (("A2", A2), ("E6", E6), ("E8", E8)):
        cases[f"lattice-minvec-{name}"] = ["lattice", "minvec", "--gram", _gram(gram)]
        cases[f"lattice-id-{name}"] = ["lattice", "id", "--gram", _gram(gram)]
        cases[f"lattice-diag-{name}"] = ["lattice", "diag", "--gram", _gram(gram)]
        cases[f"lattice-qequiv-{name}"] = [
            "lattice", "qequiv", "--a", _gram(gram), "--b", _gram(gram, 2),
        ]
    cases["zariski"] = [
        "zariski", "--a", _summary([[6, -3], [-3, 6]]), "--b", _summary([[4, -2], [-2, 4]]),
    ]
    cases["table1-k1-seed0"] = ["--seed", "0", "table1", "--k", "1"]
    cases["weier-check"] = ["weier", "check", "--A", "0", "--B", "t^5 + 1", "--k", "1"]
    return cases


CASES = _cases()


def report(argv):
    """(exit code, stdout bytes) of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, out = report(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = report(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.json").write_bytes(out)
