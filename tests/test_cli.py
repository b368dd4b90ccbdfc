"""End-to-end tests of the command-line interface and its JSON reports."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curvelattice import algebra, cli
from curvelattice.cli import DOMAIN_ERRORS, INVARIANT_EXIT, run

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

    def test_invariant_failure_exit_3(self, monkeypatch):
        # an exact kernel whose division leaves a remainder is a fault in
        # the program, not a domain error: one resultant leaf off by one
        # makes the interpolation's divided difference inexact
        real, calls = algebra._zw_res, []

        def corrupted(pv, qv):
            a, b = real(pv, qv)
            calls.append(len(pv))
            return (a + 1, b) if len(calls) == 4 else (a, b)

        monkeypatch.setattr(algebra, "_zw_res", corrupted)
        assert not issubclass(algebra.InvariantError, DOMAIN_ERRORS)
        code, doc = invoke(["singular", "--curve", NINE_CUSP_DOC])
        assert code == INVARIANT_EXIT == 3
        assert doc["error"] == "InvariantError"
        assert "divided difference" in doc["message"]

    def test_rank_formulas_disagreeing_exit_3(self, monkeypatch):
        # with every defect 0 the curve passes the applicability test, but
        # the defect form of the rank reads 0 against the eigenspace sum 6:
        # an internal inconsistency, not a domain error
        from curvelattice import mordellweil

        monkeypatch.setattr(mordellweil, "defect", lambda profile, alpha: (0, 0, 0))
        code, doc = invoke(
            ["mwrank", "--f", "x^2+y^3", "--weights", "3,2", "--curve", NINE_CUSP_DOC]
        )
        assert code == INVARIANT_EXIT == 3
        assert doc["error"] == "InvariantError"
        assert "rank formulas disagree" in doc["message"]

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
        # there is no --field option: the field is Q(w), named or not
        for field in ("Q", "Q(w)"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(
                    ["--field", field, "spectrum", "--f", "x^2+y^3", "--weights", "3,2"]
                )
            assert code == 1
            assert err.getvalue().startswith("usage error: ")


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

    def test_undecodable_documents(self, tmp_path, capsys):
        # text that is not UTF-8, nesting far past the recursion limit and
        # an integer literal past the 4,300-digit conversion limit are
        # usage errors, from a file or inline, never a traceback
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"g": "x^2 + y^2 - z^2", "name": "\u00e9"}'.encode("latin-1"))
        line = self.usage_error(["singular", "--curve", str(bad)], capsys)
        assert "utf-8" in line
        deep = '{"g": "x^2", "vars": ' + "[" * 10**5 + "]" * 10**5 + "}"
        long_int = '{"g": "x^2", "components": ' + "7" * 5000 + "}"
        for i, text in enumerate((deep, long_int)):
            path = tmp_path / f"doc{i}.json"
            path.write_text(text, encoding="utf-8")
            self.usage_error(["alexander", "--curve", str(path)], capsys)
            self.usage_error(["alexander", "--curve", text], capsys)

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_out(self, where, tmp_path, capsys):
        # a report that cannot be written is a usage error, for a success
        # report and a domain-error report alike
        out = tmp_path if where == "directory" else tmp_path / "absent" / "r.json"
        for argv in (
            ["spectrum", "--f", "x^2+y^3", "--weights", "3,2"],
            ["alexander", "--curve", json.dumps({"g": "x^6 + y^6 + z^6", "components": 0})],
        ):
            line = self.usage_error(["--out", str(out), *argv], capsys)
            assert str(out) in line

    def test_malformed_weights(self, capsys):
        for weights in ("a,b", "3", "3,2,1", ""):
            line = self.usage_error(["spectrum", "--f", "x^2+y^3", "--weights", weights], capsys)
            assert "--weights" in line
        self.usage_error(
            ["mwrank", "--f", "x^2+y^3", "--weights", "a,b", "--curve", NINE_CUSP_DOC], capsys
        )

    # an integer field reads a JSON integer or a decimal integer string; a
    # float or a boolean is a usage error, never truncated or read as 0/1
    TORUS_DOC = {"g": "(x*z - y^2)^3 + (z - x)^2*(z - 4*x)^2*(z - 9*x)^2"}

    @pytest.mark.parametrize("value", [1.9, 1.0, True, False])
    def test_components_float_or_boolean(self, value, capsys):
        doc = json.dumps({**self.TORUS_DOC, "components": value})
        line = self.usage_error(["alexander", "--curve", doc], capsys)
        assert '"components"' in line

    @pytest.mark.parametrize("value", [1.5, True])
    def test_point_k_float_or_boolean(self, value, capsys):
        doc = {"g": "x^6 + y^6 + z^6", "X": "x^2", "Y": "y^3", "Z": "1", "k": value}
        line = self.usage_error(["toric", "verify", "--point", json.dumps(doc)], capsys)
        assert '"k"' in line

    @pytest.mark.parametrize(
        "fields",
        [
            {"degree": 12.7},
            {"rank_prediction": 2.9},
            {"inventory": {"cusp": 30.4}},
            {"alexander_orders": {"1/6": True, "5/6": 1}},
            {"delta_one_sixth": False},
            {"gram": [[4.0, -2], [-2, 4]]},
            {"gram": [[4, -2], [-2, True]]},
            {
                "degree": 12.7,
                "rank_prediction": 2.9,
                "inventory": {"cusp": 30.4},
                "alexander_orders": {"1/6": True, "5/6": 1},
                "delta_one_sixth": False,
            },
        ],
    )
    def test_summary_float_or_boolean(self, fields, capsys):
        a = json.dumps(summary_doc(gram=[[6, -3], [-3, 6]]))
        self.usage_error(["zariski", "--a", a, "--b", json.dumps(summary_doc(**fields))], capsys)

    def test_integer_strings_still_read(self):
        code, doc = invoke(["alexander", "--curve", json.dumps({**self.TORUS_DOC, "components": "1"})])
        assert code == 0 and doc["polynomial"] == "(t^2 - t + 1)"
        a = json.dumps(summary_doc(gram=[["6", -3], [-3, "6"]], degree="12"))
        b = json.dumps(summary_doc(inventory={"cusp": "30"}, rank_prediction="2"))
        code, doc = invoke(["zariski", "--a", a, "--b", b])
        assert code == 0 and doc["verdict"] == "certificate"

    def test_repeated_vars(self, capsys):
        # "x" naming two axes would put the point (0 : 1 : 0) in ambiguous
        # coordinates
        doc = json.dumps({"g": "x^2*y - y^3 + x^3", "vars": ["x", "x", "y"]})
        line = self.usage_error(["singular", "--curve", doc], capsys)
        assert '"vars"' in line

    @pytest.mark.parametrize("value", [0, -2, 7])
    def test_components_out_of_range_exit_2(self, value):
        # between 1 and the degree 6; 0 once gave the order -1 at t = 1
        doc = json.dumps({"g": "x^6 + y^6 + z^6", "components": value})
        code, report = invoke(["alexander", "--curve", doc])
        assert code == 2 and report["error"] == "DomainError"
        assert "components" in report["message"]

    @pytest.mark.parametrize("text", ["5", "null", "{}", '{"g": "x"}', '"points"'])
    def test_gram_points_not_a_list(self, text, tmp_path, capsys):
        # a document that is not a list of points is a usage error, from a
        # file or inline; once a number ended in a TypeError traceback and
        # {} in a 0x0 Gram matrix
        path = tmp_path / "points.json"
        path.write_text(text, encoding="utf-8")
        line = self.usage_error(["toric", "gram", "--points", str(path)], capsys)
        assert "--points" in line
        if text.startswith("{"):
            self.usage_error(["toric", "gram", "--points", text], capsys)

    def test_gram_of_no_points(self):
        code, doc = invoke(["toric", "gram", "--points", "[]"])
        assert code == 0 and doc["size"] == 0 and doc["entries"] == []

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

    def test_table1_degree_limit(self):
        # 6k = 102 exceeds the parser's degree limit 100; refused before
        # anything is built
        t0 = time.monotonic()
        code, doc = invoke(["table1", "--k", "17"])
        assert time.monotonic() - t0 < 1
        assert code == 2 and doc["error"] == "DomainError"
        assert "102" in doc["message"]

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

    def test_minvec_rational_min_norm(self):
        for gram, norm, count in [('[["3/2"]]', "3/2", 2), ('[[2,1],[1,"5/4"]]', "5/4", 4)]:
            code, doc = invoke(["lattice", "minvec", "--gram", gram])
            assert code == 0
            assert (doc["min_norm"], doc["count"]) == (norm, count)

    def test_skewed_form_refused_quickly(self):
        # positive definite, but about 6 * 10^15 candidates under the bound
        gram = json.dumps([[1, 1], [1, f"{10**30 + 1}/{10**30}"]])
        for command in ("minvec", "id"):
            t0 = time.monotonic()
            code, doc = invoke(["lattice", command, "--gram", gram])
            assert time.monotonic() - t0 < 1
            assert code == 2 and doc["error"] == "DomainError"


    def test_entry_with_two_large_prime_factors_refused(self):
        # 1000003 * 1000033: trial division stops at 10^6, so the
        # composite entry is refused instead of factored by ever longer
        # trial division (1000000007 * 1000000009 took 35 s that way)
        for argv in (
            ["lattice", "diag", "--gram", "[[1000036000099]]"],
            ["lattice", "qequiv", "--a", "[[1000036000099]]", "--b", "[[1]]"],
            ["lattice", "diag", "--gram", "[[1000000016000000063]]"],
        ):
            t0 = time.monotonic()
            code, doc = invoke(argv)
            assert time.monotonic() - t0 < 2
            assert code == 2 and doc["error"] == "DomainError"

    def test_saturation_of_a_large_determinant_quick(self):
        # the index is read from det / tdet per table row, not searched
        # among every f with f^2 <= det
        t0 = time.monotonic()
        code, doc = invoke(["lattice", "id", "--saturation", "--gram", "[[100000000000000]]"])
        assert time.monotonic() - t0 < 1
        assert code == 0 and doc["tag"] == "Unknown"
        assert doc["evidence"] == [1, 10**14, 10**14, 2]


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


# ---------------------------------------------------------------------------
# fuzzing the lattice and summary documents
# ---------------------------------------------------------------------------


ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.sampled_from(["2", "-3", "2/3", "1/0", "abc", "", "nan", "1e400", 1.5, True]),
    JSON_JUNK,
    st.just({"a": 1}),
)
ROWS = st.lists(st.one_of(st.lists(ENTRIES, max_size=3), ENTRIES), max_size=3)
GRAMS = st.one_of(ROWS, ROWS, JSON_JUNK, st.text(max_size=3))


def summary_doc(**fields):
    doc = {
        "degree": 12,
        "inventory": {"cusp": 30},
        "alexander_orders": {"1/6": 1, "5/6": 1},
        "delta_one_sixth": 0,
        "rank_prediction": 2,
        "gram": [[4, -2], [-2, 4]],
    }
    doc.update(fields)
    return doc


@st.composite
def summary_documents(draw):
    """A zariski summary with some fields replaced by junk: junk JSON
    types, ragged Gram rows, non-integer counts, unparseable keys."""
    junk = {
        "degree": st.one_of(JSON_JUNK, st.sampled_from(["12", "abc", 12.5])),
        "inventory": st.one_of(
            JSON_JUNK, st.dictionaries(st.sampled_from(["cusp", "node"]), ENTRIES, max_size=2)
        ),
        "alexander_orders": st.one_of(
            JSON_JUNK,
            st.dictionaries(st.sampled_from(["1/6", "5/6", "1/0", "abc"]), ENTRIES, max_size=2),
        ),
        "delta_one_sixth": ENTRIES,
        "rank_prediction": ENTRIES,
        "gram": GRAMS,
    }
    keys = draw(st.lists(st.sampled_from(sorted(junk)), min_size=1, max_size=3, unique=True))
    doc = summary_doc(**{k: draw(junk[k]) for k in keys})
    for k in draw(st.lists(st.sampled_from(sorted(junk)), max_size=1)):
        del doc[k]
    return doc


class TestDocumentFuzz:
    @staticmethod
    def exit_code(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        return code

    @given(
        st.sampled_from(["diag", "minvec", "id"]),
        st.one_of(GRAMS.map(lambda g: {"gram": g}), ROWS, st.just({"nogram": 1})),
    )
    @example("diag", {"gram": 5})
    @example("diag", {"nogram": 1})
    @example("diag", [5])
    @settings(max_examples=60, deadline=10_000)
    def test_gram_documents(self, command, doc):
        self.exit_code(["lattice", command, "--gram", json.dumps(doc)])

    @given(summary_documents())
    @example(summary_doc(gram=5))
    @example(summary_doc(inventory=5))
    @settings(max_examples=60, deadline=10_000)
    def test_summary_documents(self, doc):
        self.exit_code(["zariski", "--a", json.dumps(summary_doc()), "--b", json.dumps(doc)])

    @pytest.mark.parametrize(
        "argv",
        [
            ["lattice", "diag", "--gram", '{"gram": 5}'],
            ["lattice", "diag", "--gram", '{"nogram": 1}'],
            ["lattice", "diag", "--gram", "[5]"],
            ["zariski", "--a", json.dumps(summary_doc()), "--b", json.dumps(summary_doc(gram=5))],
            ["zariski", "--a", json.dumps(summary_doc()), "--b", json.dumps(summary_doc(inventory=5))],
        ],
    )
    def test_wrong_shape_is_a_usage_error(self, argv):
        assert self.exit_code(argv) == 1

    def test_well_formed_gram_as_rows_or_strings(self):
        for gram in ('[[6, -3], [-3, 6]]', '{"gram": [["6", "-3"], ["-3", 6]]}'):
            code, doc = invoke(["lattice", "diag", "--gram", gram])
            assert code == 0 and doc["diagonal"] == [6, 2]


# ---------------------------------------------------------------------------
# one error base, and imports per command
# ---------------------------------------------------------------------------


def test_domain_errors_share_one_base():
    from curvelattice import adjunction, lattice, mordellweil, spectrum, torus, weierstrass

    classes = [
        adjunction.IncompleteLocus, adjunction.UnclassifiedPoint,
        mordellweil.NotApplicable, mordellweil.DegreeParity,
        weierstrass.Degenerate, weierstrass.NotMinimal,
        lattice.NotPositiveDefinite, lattice.Degenerate, lattice.PrereqFailed,
        torus.DivisibilityFailure, torus.ConventionMismatch,
        algebra.AlgebraError, spectrum.NotIsolated, algebra.ParseError,
    ]
    assert all(issubclass(c, algebra.DomainError) for c in classes)
    assert issubclass(algebra.DomainError, DOMAIN_ERRORS)
    assert not issubclass(algebra.InvariantError, algebra.DomainError)


@pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
def test_bare_value_or_arithmetic_error_is_a_fault(error, monkeypatch):
    # only a DomainError reports as exit 2: a bare ValueError or
    # ArithmeticError raised inside a command is a fault and propagates
    def broken(args):
        raise error("a fault in the program")

    monkeypatch.setattr(cli, "_cmd_spectrum", broken)
    with pytest.raises(error, match="a fault in the program"):
        run(["spectrum", "--f", "x^2+y^3", "--weights", "3,2"])


LOADED_MODULES = (
    "import json, sys\n"
    "from curvelattice.cli import run\n"
    "code = run(sys.argv[1:])\n"
    "sys.stderr.write(json.dumps(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["lattice", "diag", "--gram", A2_3],
         {"adjunction", "mordellweil", "spectrum", "torus", "weierstrass"}),
        (["spectrum", "--f", "x^2+y^3", "--weights", "3,2"],
         {"adjunction", "lattice", "torus"}),
        (["weier", "check", "--A", "0", "--B", "t^5 + 1", "--k", "1"],
         {"adjunction", "lattice", "torus"}),
    ],
)
def test_command_imports_only_its_modules(argv, absent):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    loaded = {m.split(".", 1)[1] for m in json.loads(proc.stderr) if m.startswith("curvelattice.")}
    assert {"cli", "algebra"} <= loaded
    assert not loaded & absent
