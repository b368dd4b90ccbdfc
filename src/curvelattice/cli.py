"""Command-line front end: JSON reports binding all modules together.

Every report is UTF-8 JSON with sorted keys, a "schema" version tag, and
a "deviations" array listing which documented convention resolutions the
computation relied on (empty means none were needed).  Polynomials are
rendered as grammar strings, never as coefficient arrays.

Exit codes: 0 success, 2 domain errors (inapplicable rank formula,
incomplete singular locus, degenerate input, ...), 1 usage errors, 3 a
broken internal invariant (algebra.InvariantError: an exact division in a
kernel left a remainder), which is a fault in the program, not in its input.
Every domain error subclasses algebra.DomainError; any other exception is
a fault too and is not caught.

Each command imports the modules it uses when it runs, so a process loads
and compiles only those: the module itself imports nothing beyond algebra.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import DomainError, InvariantError, parse_poly, render

SCHEMA = "curvelattice/1"

PAIRING_CONVENTION = (
    "pairing exponents fixed as gcd(Zq^3*Yp - Zp^3*Yq, Zq^2*Xp - Zp^2*Xq), "
    "the homogeneous assignment, validated by symmetry/self-pairing checks"
)
ORBIT_PAIRING_LEMMA = (
    "orbit-related pairs evaluated by h*cos(a*pi/3) instead of the gcd "
    "formula, which overcounts the shared Z on such pairs"
)

DOMAIN_ERRORS = (DomainError,)

INVARIANT_EXIT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# document plumbing
# ---------------------------------------------------------------------------


def _load_doc(value):
    """Inline JSON object or a path to a JSON file."""
    text = value.strip()
    try:
        if text.startswith("{") or text.startswith("["):
            return json.loads(text)
        with open(value, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read {value}: {err.strerror}") from None
    except json.JSONDecodeError as err:
        raise UsageError(f"malformed JSON: {err}") from None
    except (ValueError, RecursionError) as err:
        # text that is not UTF-8, nesting past the recursion limit, an
        # integer literal past the int conversion limit
        raise UsageError(f"unreadable document: {err}") from None


def _require(doc, *keys):
    """A usage error unless doc is a JSON object with every key."""
    if not isinstance(doc, dict):
        raise UsageError("expected a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise UsageError("document has no " + ", ".join(f'"{k}"' for k in missing))


def _variables(doc):
    """The document's variable names, x, y, z unless it lists them."""
    variables = doc.get("vars", ["x", "y", "z"])
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise UsageError('"vars" must be a list of names')
    if len(set(variables)) != len(variables):
        raise UsageError('"vars" names must be distinct')
    return tuple(variables)


def _poly(doc, key, variables):
    if not isinstance(doc[key], str):
        raise UsageError(f'"{key}" must be a polynomial string')
    return parse_poly(doc[key], variables)


def _int(value) -> int:
    """A JSON integer or a decimal integer string as an int.  A float or a
    boolean raises TypeError: int() would truncate 1.9 to 1 and read true
    as 1."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _integer(doc, key, default):
    try:
        return _int(doc.get(key, default))
    except (TypeError, ValueError):
        raise UsageError(f'"{key}" must be an integer') from None


def _rows(value, key, entry):
    """[[entry(x) for x in row] for row in value], a usage error unless
    value is a list of rows, each a list of numbers or number strings."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise UsageError(f'"{key}" must be a list of rows')
    try:
        return [[entry(x) for x in row] for row in value]
    except (TypeError, ValueError, ArithmeticError):
        raise UsageError(f'"{key}" entries must be numbers') from None


def _curve_from_doc(doc):
    from .adjunction import CurveProfile

    _require(doc, "g")
    g = _poly(doc, "g", _variables(doc))
    return CurveProfile(g, components=_integer(doc, "components", 1))


def _point_from_doc(doc):
    from .torus import QuasiToricPoint

    _require(doc, "g", "X", "Y", "Z")
    variables = _variables(doc)
    g = _poly(doc, "g", variables)
    return QuasiToricPoint(
        *(_poly(doc, key, variables) for key in ("X", "Y", "Z")),
        g,
        _integer(doc, "k", g.degree() // 6),
    )


def _point_doc(p) -> dict:
    return {
        "X": render(p.X),
        "Y": render(p.Y),
        "Z": render(p.Z),
        "g": render(p.curve),
        "k": p.k,
        "vars": list(p.curve.vars),
    }


def _quadform(doc):
    """A --gram document: {"gram": rows} or the rows themselves."""
    from .lattice import QuadForm

    if isinstance(doc, dict):
        _require(doc, "gram")
        doc = doc["gram"]
    return QuadForm(_rows(doc, "gram", lambda x: Fraction(str(x))))


def _weighted(args):
    from .spectrum import WeightedPoly

    try:
        weights = tuple(int(w) for w in args.weights.split(","))
    except ValueError:
        weights = ()
    if len(weights) != 2:
        raise UsageError("--weights expects two comma-separated integers")
    f = parse_poly(args.f, ("x", "y"))
    return WeightedPoly(f, weights)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_spectrum(args):
    from .spectrum import spectrum

    wp = _weighted(args)
    sp = spectrum(wp)
    return {"spectrum": sp, "milnor_number": wp.milnor_number()}


def _cmd_singular(args):
    profile = _curve_from_doc(_load_doc(args.curve))
    pts = []
    for p in profile.points:
        pts.append(
            {
                "point": [str(c) for c in p.point.coords],
                "kind": p.kind,
            }
        )
    return {
        "degree": profile.d,
        "points": pts,
        "inventory": profile.singularity_inventory(),
    }


def _cmd_defects(args):
    from .adjunction import defect_table

    profile = _curve_from_doc(_load_doc(args.curve))
    table = defect_table(profile)
    return {
        "defects": {
            a: {"l": l, "h": h, "delta": delta} for a, (l, h, delta) in table.items()
        }
    }


def _cmd_alexander(args):
    from .adjunction import alexander

    profile = _curve_from_doc(_load_doc(args.curve))
    alex = alexander(profile)
    return {"orders": alex.orders, "polynomial": alex.rendered}


def _cmd_mwrank(args):
    from .mordellweil import NotApplicable, mw_rank

    profile = _curve_from_doc(_load_doc(args.curve))
    wp = _weighted(args)
    try:
        report = mw_rank(wp, profile)
    except NotApplicable as err:
        return {
            "applicable": False,
            "obstruction": err.obstruction,
            "rank": None,
            "exit": 2,
        }
    return {
        "applicable": True,
        "rank": report.rank,
        "contributions": report.contributions,
    }


def _cmd_toric_find(args):
    from .torus import find_toric_sextic

    profile = _curve_from_doc(_load_doc(args.curve))
    result = find_toric_sextic(profile)
    return {
        "points": [_point_doc(p) for p in result.points],
        "count": len(result.points),
        "complete": result.complete,
        "field_exhausted": result.field_exhausted,
        "missing_upper_bound": result.missing,
    }


def _cmd_toric_verify(args):
    from .torus import height, verify_decomposition

    p = _point_from_doc(_load_doc(args.point))
    ok, detail = verify_decomposition(p)
    return {
        "ok": ok,
        "detail": detail,
        "height": height(p) if ok else None,
    }


def _cmd_toric_gram(args):
    from .torus import gram

    docs = _load_doc(args.points)
    if not isinstance(docs, list):
        raise UsageError("--points must be a JSON list of points")
    points = [_point_from_doc(d) for d in docs]
    m = gram(points)
    return {
        "size": m.size,
        "entries": m.entries,
        "deviations": [PAIRING_CONVENTION, ORBIT_PAIRING_LEMMA],
    }


def _cmd_toric_orbit(args):
    from .torus import mu6_orbit

    p = _point_from_doc(_load_doc(args.point))
    return {"orbit": [_point_doc(q) for q in mu6_orbit(p)]}


def _cmd_table1(args):
    from .torus import height, table1_construct, table1_section, verify_decomposition

    k = args.k
    seed = args.seed if args.seed is not None else 0
    f, gp, F = table1_construct(k, None, seed=seed)
    point, _curve = table1_section(k, f, gp, F)
    ok, detail = verify_decomposition(point)
    return {
        "k": k,
        "seed": seed,
        "f": render(f),
        "g": render(gp),
        "F": render(F),
        "point": _point_doc(point),
        "verified": ok,
        "height": height(point),
    }


def _cmd_weier_check(args):
    from .weierstrass import WeierstrassData, is_minimal, no_reducible_fibers

    A = parse_poly(args.A, ("t",))
    B = parse_poly(args.B, ("t",))
    w = WeierstrassData(A, B, args.k)
    minimal = is_minimal(w)
    doc = {
        "discriminant": render(w.disc.to_mpoly("t", ("t",))),
        "minimal": minimal,
    }
    if minimal:
        doc["no_reducible_fibers"] = no_reducible_fibers(w)
    return doc


def _cmd_lattice_minvec(args):
    from .lattice import shortest_vectors

    q = _quadform(_load_doc(args.gram))
    norm, count, vectors = shortest_vectors(q)
    return {
        "min_norm": norm,
        "count": count,
        "vectors": [list(v) for v in vectors],
    }


def _cmd_lattice_id(args):
    from .lattice import identify, identify_saturation

    q = _quadform(_load_doc(args.gram))
    fn = identify_saturation if args.saturation else identify
    lid = fn(q.m)
    return {
        "tag": lid.tag,
        "evidence": list(lid.evidence),
        "note": lid.note,
    }


def _cmd_lattice_diag(args):
    from .lattice import diagonalize

    q = _quadform(_load_doc(args.gram))
    return {"diagonal": diagonalize(q)}


def _cmd_lattice_qequiv(args):
    from .lattice import q_compare

    qa = _quadform(_load_doc(args.a))
    qb = _quadform(_load_doc(args.b))
    return q_compare(qa, qb)


def _summary_from_doc(doc):
    """(CurveSummary, integer Gram rows) of a zariski summary document."""
    from .lattice import CurveSummary

    _require(
        doc, "degree", "inventory", "alexander_orders", "delta_one_sixth",
        "rank_prediction", "gram",
    )
    if not all(isinstance(doc[k], dict) for k in ("inventory", "alexander_orders")):
        raise UsageError('"inventory" and "alexander_orders" must be objects')
    try:
        summary = CurveSummary(
            _int(doc["degree"]),
            {str(k): _int(v) for k, v in doc["inventory"].items()},
            {Fraction(str(k)): _int(v) for k, v in doc["alexander_orders"].items()},
            _int(doc["delta_one_sixth"]),
            _int(doc["rank_prediction"]),
        )
    except (TypeError, ValueError, ArithmeticError):
        raise UsageError("summary entries must be integers and rational keys") from None
    return summary, _rows(doc["gram"], "gram", _int)


def _cmd_zariski(args):
    from .lattice import zariski_certificate

    da, db = _load_doc(args.a), _load_doc(args.b)
    return zariski_certificate(*_summary_from_doc(da), *_summary_from_doc(db))


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="curvelattice", description=__doc__)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="spectrum of a weighted-homogeneous polynomial")
    p.add_argument("--f", required=True)
    p.add_argument("--weights", required=True)
    p.set_defaults(run=_cmd_spectrum)

    for name, fn, help_text in (
        ("singular", _cmd_singular, "classified singular points of a plane curve"),
        ("defects", _cmd_defects, "defect table of a cuspidal curve"),
        ("alexander", _cmd_alexander, "Alexander polynomial orders"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--curve", required=True, help="curve document (path or inline JSON)")
        p.set_defaults(run=fn)

    p = sub.add_parser("mwrank", help="Mordell-Weil rank from spectrum and defects")
    p.add_argument("--f", required=True)
    p.add_argument("--weights", default="3,2")
    p.add_argument("--curve", required=True)
    p.set_defaults(run=_cmd_mwrank)

    toric = sub.add_parser("toric", help="quasi-toric decompositions").add_subparsers(
        dest="subcommand", required=True
    )
    p = toric.add_parser("find")
    p.add_argument("--curve", required=True)
    p.set_defaults(run=_cmd_toric_find)
    p = toric.add_parser("verify")
    p.add_argument("--point", required=True)
    p.set_defaults(run=_cmd_toric_verify)
    p = toric.add_parser("gram")
    p.add_argument("--points", required=True)
    p.set_defaults(run=_cmd_toric_gram)
    p = toric.add_parser("orbit")
    p.add_argument("--point", required=True)
    p.set_defaults(run=_cmd_toric_orbit)

    p = sub.add_parser("table1", help="seeded degree-6k construction")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(run=_cmd_table1)

    weier = sub.add_parser("weier", help="Weierstrass data checks").add_subparsers(
        dest="subcommand", required=True
    )
    p = weier.add_parser("check")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(run=_cmd_weier_check)

    lat = sub.add_parser("lattice", help="lattice and quadratic-form tools").add_subparsers(
        dest="subcommand", required=True
    )
    p = lat.add_parser("minvec")
    p.add_argument("--gram", required=True)
    p.set_defaults(run=_cmd_lattice_minvec)
    p = lat.add_parser("id")
    p.add_argument("--gram", required=True)
    p.add_argument("--saturation", action="store_true")
    p.set_defaults(run=_cmd_lattice_id)
    p = lat.add_parser("diag")
    p.add_argument("--gram", required=True)
    p.set_defaults(run=_cmd_lattice_diag)
    p = lat.add_parser("qequiv")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(run=_cmd_lattice_qequiv)

    p = sub.add_parser("zariski", help="equisingular-invariance certificate")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(run=_cmd_zariski)

    return parser


def _jsonable(value):
    """Stringify dict keys and exact rationals so sorted-key JSON works."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return str(value)


def _emit(doc, out_path) -> None:
    doc = dict(doc)
    doc["schema"] = SCHEMA
    doc.setdefault("deviations", [])
    doc = _jsonable(doc)
    text = json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise UsageError(f"cannot write {out_path}: {err.strerror}") from None
    else:
        sys.stdout.write(text)


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            doc = args.run(args)
            code = doc.pop("exit", 0)
        except (InvariantError, *DOMAIN_ERRORS) as err:
            doc = {"error": type(err).__name__, "message": str(err)}
            code = INVARIANT_EXIT if isinstance(err, InvariantError) else 2
        _emit(doc, args.out)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
