"""End-to-end tests of the command-line interface and its JSON reports."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curvelattice.cli import run

NINE_CUSP_DOC = (
    '{"g": "x^6 - 2*x^3*y^3 - 2*x^3*z^3 + y^6 - 2*y^3*z^3 + z^6"}'
)
A2_2 = '{"gram": [[4, -2], [-2, 4]]}'
A2_3 = '{"gram": [[6, -3], [-3, 6]]}'


def invoke(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    text = buf.getvalue()
    return code, json.loads(text) if text else None


class TestPlumbing:
    def test_schema_and_deviations_everywhere(self):
        code, doc = invoke(["spectrum", "--f", "x^2+y^3", "--weights", "3,2"])
        assert code == 0
        assert doc["schema"] == "curvelattice/1"
        assert doc["deviations"] == []

    def test_usage_error_exit_1(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["spectrum", "--f", "x^2+y^3"])
        assert code == 1

    def test_unknown_command_exit_1(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["frobnicate"])
        assert code == 1

    def test_domain_error_exit_2(self):
        # weights that do not make the polynomial weighted-homogeneous
        code, doc = invoke(["spectrum", "--f", "x^2+y^3", "--weights", "2,2"])
        assert code == 2
        assert "error" in doc

    def test_byte_identical_reports(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code = run(
                ["--out", str(out), "--seed", "3", "table1", "--k", "1"]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            ["--out", str(out), "spectrum", "--f", "x^2+y^3", "--weights", "3,2"]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["spectrum"] == {"-1/6": 1, "1/6": 1}

    def test_field_flag_fixed(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(
                ["--field", "Q", "spectrum", "--f", "x^2+y^3", "--weights", "3,2"]
            )
        assert code == 1


class TestExitContract:
    def usage_error(self, argv, capsys):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: ")
        return lines[0]

    def test_curve_without_g(self, capsys):
        line = self.usage_error(["singular", "--curve", '{"h": "x^2"}'], capsys)
        assert '"g"' in line

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        line = self.usage_error(["defects", "--curve", missing], capsys)
        assert missing in line

    def test_malformed_json(self, tmp_path, capsys):
        self.usage_error(["alexander", "--curve", '{"g": "x^2"'], capsys)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        self.usage_error(["singular", "--curve", str(bad)], capsys)

    def test_threads_option_is_gone(self, capsys):
        self.usage_error(
            ["--threads", "2", "spectrum", "--f", "x^2+y^3", "--weights", "3,2"], capsys
        )

    def test_module_entry_point(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "curvelattice.cli", "spectrum", "--f", "x^2+y^3",
             "--weights", "3,2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["spectrum"] == {"-1/6": 1, "1/6": 1}


class TestCurveCommands:
    def test_spectrum_example(self):
        code, doc = invoke(["spectrum", "--f", "x^2+y^3", "--weights", "3,2"])
        assert code == 0
        assert doc["spectrum"] == {"-1/6": 1, "1/6": 1}

    def test_singular_nine_cusp(self):
        code, doc = invoke(["singular", "--curve", NINE_CUSP_DOC])
        assert code == 0
        assert doc["inventory"] == {"cusp": 9}
        assert len(doc["points"]) == 9

    def test_defects_nine_cusp(self):
        code, doc = invoke(["defects", "--curve", NINE_CUSP_DOC])
        assert code == 0
        assert doc["defects"]["5/6"] == {"l": 9, "h": 6, "delta": 3}

    def test_alexander_nine_cusp(self):
        code, doc = invoke(["alexander", "--curve", NINE_CUSP_DOC])
        assert code == 0
        assert doc["polynomial"] == "(t^2 - t + 1)^3"

    def test_mwrank_nine_cusp(self):
        code, doc = invoke(
            ["mwrank", "--f", "x^2+y^3", "--weights", "3,2", "--curve", NINE_CUSP_DOC]
        )
        assert code == 0
        assert doc == {
            "applicable": True,
            "contributions": {"1/6": 3, "5/6": 3},
            "deviations": [],
            "rank": 6,
            "schema": "curvelattice/1",
        }

    def test_mwrank_not_applicable_exit_2(self):
        # quintic degree is not divisible by the weighted degree 6
        code, doc = invoke(
            [
                "mwrank",
                "--f",
                "x^2+y^3",
                "--weights",
                "3,2",
                "--curve",
                '{"g": "x^5 + y^5 + z^5 + x*y*z*(x + y - z)*(x - y + z)"}',
            ]
        )
        # exact curve content irrelevant; either inapplicability (2) or a
        # profile-validation domain error (2) is acceptable here
        assert code == 2


class TestToricCommands:
    def test_table1_then_verify_orbit_gram(self):
        code, doc = invoke(["--seed", "1", "table1", "--k", "1"])
        assert code == 0
        assert doc["verified"] and doc["height"] == 4
        point = json.dumps(doc["point"])

        code, vdoc = invoke(["toric", "verify", "--point", point])
        assert code == 0 and vdoc["ok"] and vdoc["height"] == 4

        code, odoc = invoke(["toric", "orbit", "--point", point])
        assert code == 0 and len(odoc["orbit"]) == 6

        pts = json.dumps([odoc["orbit"][0], odoc["orbit"][1]])
        code, gdoc = invoke(["toric", "gram", "--points", pts])
        assert code == 0
        assert gdoc["size"] == 2
        assert len(gdoc["deviations"]) == 2

    def test_toric_find_on_nine_cusp(self):
        code, doc = invoke(["toric", "find", "--curve", NINE_CUSP_DOC])
        assert code == 0
        assert doc["count"] == 0
        assert doc["field_exhausted"] is True
        assert doc["complete"] is True


class TestLatticeCommands:
    def test_minvec(self):
        code, doc = invoke(["lattice", "minvec", "--gram", A2_2])
        assert code == 0
        assert doc["min_norm"] == 4 and doc["count"] == 6

    def test_id(self):
        code, doc = invoke(["lattice", "id", "--gram", A2_3])
        assert code == 0 and doc["tag"] == "A2(3)"

    def test_diag(self):
        code, doc = invoke(["lattice", "diag", "--gram", A2_3])
        assert code == 0 and doc["diagonal"] == [6, 2]

    def test_qequiv_example(self):
        code, doc = invoke(["lattice", "qequiv", "--a", A2_2, "--b", A2_3])
        assert code == 0
        assert doc["equivalent"] is False
        assert doc["witness_prime"] == 3

    def test_degenerate_exit_2(self):
        code, doc = invoke(["lattice", "diag", "--gram", '{"gram": [[1,1],[1,1]]}'])
        assert code == 2


class TestZariski:
    def summary(self, gram):
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

    def test_certificate(self):
        code, doc = invoke(
            [
                "zariski",
                "--a",
                self.summary([[6, -3], [-3, 6]]),
                "--b",
                self.summary([[4, -2], [-2, 4]]),
            ]
        )
        assert code == 0
        assert doc["verdict"] == "certificate"
        assert len(doc["deviations"]) == 1

    def test_prereq_failure_exit_2(self):
        bad = json.loads(self.summary([[4, -2], [-2, 4]]))
        bad["inventory"] = {"cusp": 27}
        code, doc = invoke(
            [
                "zariski",
                "--a",
                self.summary([[6, -3], [-3, 6]]),
                "--b",
                json.dumps(bad),
            ]
        )
        assert code == 2

    def test_unequal_rank_predictions_exit_2(self):
        other = json.loads(self.summary([[4, -2], [-2, 4]]))
        other["rank_prediction"] = 3
        code, doc = invoke(
            [
                "zariski",
                "--a",
                self.summary([[6, -3], [-3, 6]]),
                "--b",
                json.dumps(other),
            ]
        )
        assert code == 2
        assert doc["error"] == "PrereqFailed"
        assert "rank predictions differ" in doc["message"]


# ---------------------------------------------------------------------------
# fuzzing the curve document
# ---------------------------------------------------------------------------


HUGE_EXPONENTS = st.sampled_from(["101", "1000000000", "9" * 40, "0" * 5 + "123"])
JUNK = st.sampled_from(list("^*/+-()) (w_.,;é\u0000\t") + ["^^", "1/0", "--", "((", "9" * 30])


@st.composite
def polynomial_texts(draw, depth=0):
    """A string shaped by the polynomial grammar, of degree at most 4,
    sometimes with an exponent far above the parser's limit."""
    kind = draw(st.sampled_from(["atom", "atom", "sum", "product"] if depth < 2 else ["atom"]))
    if kind == "atom":
        text = draw(
            st.one_of(
                st.sampled_from(["x", "y", "z", "w"]),
                st.integers(-50, 50).map(str),
                st.tuples(st.integers(-9, 9), st.integers(0, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
            )
        )
        degree = 1 if text in ("x", "y", "z") else 0
    else:
        parts = draw(st.lists(polynomial_texts(depth + 1), min_size=2, max_size=3))
        if kind == "sum":
            ops = draw(st.lists(st.sampled_from(["+", "-"]), min_size=len(parts), max_size=len(parts)))
            text = "".join(f" {op} {t}" for op, (t, _d) in zip(ops, parts)).lstrip(" +")
            degree = max(d for _t, d in parts)
        else:
            text = "*".join(f"({t})" for t, _d in parts)
            degree = sum(d for _t, d in parts)
    if draw(st.integers(0, 3)) == 0:
        n = draw(st.one_of(st.integers(0, 2).map(str), HUGE_EXPONENTS))
        text, degree = f"({text})^{n}", degree * int(n)
    assume(degree <= 4)
    return text, degree


@st.composite
def curve_texts(draw):
    text, _degree = draw(polynomial_texts())
    if draw(st.booleans()):
        text = f"({text})^{draw(HUGE_EXPONENTS)}"
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(JUNK) + text[i:]
    return text


JSON_JUNK = st.one_of(st.none(), st.integers(), st.lists(st.sampled_from(["x", "y", 1]), max_size=3))


@st.composite
def curve_documents(draw):
    """A --curve document: mostly a grammar-shaped g, sometimes a g or a
    variable list of the wrong JSON type."""
    doc = {"g": draw(st.one_of(curve_texts(), curve_texts(), curve_texts(), JSON_JUNK))}
    if draw(st.integers(0, 4)) == 0:
        doc["vars"] = draw(st.one_of(JSON_JUNK, st.just(["x", "y", "z"])))
    return doc


class TestCurveFuzz:
    @given(curve_documents())
    @example({"g": "(x + y + z)^1000000000"})
    @example({"g": "(" * 400 + "x" + ")" * 400})
    @example({"g": 5})
    @settings(max_examples=40, deadline=10_000)
    def test_exit_code_without_traceback(self, doc):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["singular", "--curve", json.dumps(doc)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
