"""Command-line front end: JSON reports binding all modules together.

Every report is UTF-8 JSON with sorted keys, a "schema" version tag, and
a "deviations" array listing which documented convention resolutions the
computation relied on (empty means none were needed).  Polynomials are
rendered as grammar strings, never as coefficient arrays.

Exit codes: 0 success, 2 domain errors (inapplicable rank formula,
incomplete singular locus, degenerate input, ...), 1 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import adjunction, lattice, mordellweil, spectrum, torus, weierstrass
from .algebra import AlgebraError, parse_poly, render

SCHEMA = "curvelattice/1"

PAIRING_CONVENTION = (
    "pairing exponents fixed as gcd(Zq^3*Yp - Zp^3*Yq, Zq^2*Xp - Zp^2*Xq), "
    "the homogeneous assignment, validated by symmetry/self-pairing checks"
)
ORBIT_PAIRING_LEMMA = (
    "orbit-related pairs evaluated by h*cos(a*pi/3) instead of the gcd "
    "formula, which overcounts the shared Z on such pairs"
)
KODAIRA_II_CLAUSE = (
    "for A identically zero, v(disc)=2 places with v(B)=1 are accepted as "
    "irreducible (cuspidal) fibers"
)

DOMAIN_ERRORS = (
    adjunction.IncompleteLocus,
    adjunction.UnclassifiedPoint,
    mordellweil.NotApplicable,
    mordellweil.DegreeParity,
    weierstrass.Degenerate,
    weierstrass.NotMinimal,
    lattice.NotPositiveDefinite,
    lattice.Degenerate,
    lattice.PrereqFailed,
    torus.DivisibilityFailure,
    torus.ConventionMismatch,
    AlgebraError,
    ValueError,
    ArithmeticError,
)


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
    return tuple(variables)


def _poly(doc, key, variables):
    if not isinstance(doc[key], str):
        raise UsageError(f'"{key}" must be a polynomial string')
    return parse_poly(doc[key], variables)


def _integer(doc, key, default):
    try:
        return int(doc.get(key, default))
    except (TypeError, ValueError):
        raise UsageError(f'"{key}" must be an integer') from None


def _curve_from_doc(doc) -> adjunction.CurveProfile:
    _require(doc, "g")
    g = _poly(doc, "g", _variables(doc))
    return adjunction.CurveProfile(g, components=_integer(doc, "components", 1))


def _point_from_doc(doc) -> torus.QuasiToricPoint:
    _require(doc, "g", "X", "Y", "Z")
    variables = _variables(doc)
    g = _poly(doc, "g", variables)
    return torus.QuasiToricPoint(
        *(_poly(doc, key, variables) for key in ("X", "Y", "Z")),
        g,
        _integer(doc, "k", g.degree() // 6),
    )


def _point_doc(p: torus.QuasiToricPoint) -> dict:
    return {
        "X": render(p.X),
        "Y": render(p.Y),
        "Z": render(p.Z),
        "g": render(p.curve),
        "k": p.k,
        "vars": list(p.curve.vars),
    }


def _quadform(doc) -> lattice.QuadForm:
    rows = doc["gram"] if isinstance(doc, dict) else doc
    return lattice.QuadForm([[Fraction(str(x)) for x in row] for row in rows])


def _weighted(args) -> spectrum.WeightedPoly:
    weights = tuple(int(w) for w in args.weights.split(","))
    if len(weights) != 2:
        raise UsageError("--weights expects two comma-separated integers")
    f = parse_poly(args.f, ("x", "y"))
    return spectrum.WeightedPoly(f, weights)


def _frac_key(a: Fraction) -> str:
    return str(a)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_spectrum(args):
    wp = _weighted(args)
    sp = spectrum.spectrum(wp)
    return {
        "spectrum": {_frac_key(a): n for a, n in sorted(sp.items())},
        "milnor_number": wp.milnor_number(),
        "deviations": [],
    }


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
        "deviations": [],
    }


def _cmd_defects(args):
    profile = _curve_from_doc(_load_doc(args.curve))
    table = adjunction.defect_table(profile)
    return {
        "defects": {
            _frac_key(a): {"l": l, "h": h, "delta": delta}
            for a, (l, h, delta) in sorted(table.items())
        },
        "deviations": [],
    }


def _cmd_alexander(args):
    profile = _curve_from_doc(_load_doc(args.curve))
    alex = adjunction.alexander(profile)
    return {
        "orders": {_frac_key(a): o for a, o in sorted(alex.orders.items())},
        "polynomial": alex.rendered,
        "deviations": [],
    }


def _cmd_mwrank(args):
    profile = _curve_from_doc(_load_doc(args.curve))
    wp = _weighted(args)
    try:
        report = mordellweil.mw_rank(wp, profile)
    except mordellweil.NotApplicable as err:
        return {
            "applicable": False,
            "obstruction": {_frac_key(a): v for a, v in err.obstruction.items()},
            "rank": None,
            "deviations": [],
            "exit": 2,
        }
    return {
        "applicable": True,
        "rank": report.rank,
        "contributions": {
            _frac_key(a): v for a, v in sorted(report.contributions.items())
        },
        "deviations": [],
    }


def _cmd_toric_find(args):
    profile = _curve_from_doc(_load_doc(args.curve))
    result = torus.find_toric_sextic(profile)
    return {
        "points": [_point_doc(p) for p in result.points],
        "count": len(result.points),
        "complete": result.complete,
        "field_exhausted": result.field_exhausted,
        "missing_upper_bound": result.missing,
        "deviations": [],
    }


def _cmd_toric_verify(args):
    p = _point_from_doc(_load_doc(args.point))
    ok, detail = torus.verify_decomposition(p)
    return {
        "ok": ok,
        "detail": detail,
        "height": torus.height(p) if ok else None,
        "deviations": [],
    }


def _cmd_toric_gram(args):
    docs = _load_doc(args.points)
    points = [_point_from_doc(d) for d in docs]
    m = torus.gram(points)
    return {
        "size": m.size,
        "entries": m.entries,
        "deviations": [PAIRING_CONVENTION, ORBIT_PAIRING_LEMMA],
    }


def _cmd_toric_orbit(args):
    p = _point_from_doc(_load_doc(args.point))
    return {
        "orbit": [_point_doc(q) for q in torus.mu6_orbit(p)],
        "deviations": [],
    }


def _cmd_table1(args):
    k = args.k
    seed = args.seed if args.seed is not None else 0
    f, gp, F = torus.table1_construct(k, None, seed=seed)
    point, _curve = torus.table1_section(k, f, gp, F)
    ok, detail = torus.verify_decomposition(point)
    return {
        "k": k,
        "seed": seed,
        "f": render(f),
        "g": render(gp),
        "F": render(F),
        "point": _point_doc(point),
        "verified": ok,
        "height": torus.height(point),
        "deviations": [],
    }


def _cmd_weier_check(args):
    A = parse_poly(args.A, ("t",))
    B = parse_poly(args.B, ("t",))
    w = weierstrass.WeierstrassData(A, B, args.k)
    minimal = weierstrass.is_minimal(w)
    doc = {
        "discriminant": render(weierstrass.discriminant(w).to_mpoly("t", ("t",))),
        "minimal": minimal,
        "deviations": [],
    }
    if minimal:
        doc["no_reducible_fibers"] = weierstrass.no_reducible_fibers(w)
        if A.is_zero():
            doc["deviations"] = [KODAIRA_II_CLAUSE]
    return doc


def _cmd_lattice_minvec(args):
    q = _quadform(_load_doc(args.gram))
    norm, count, vectors = lattice.shortest_vectors(q)
    return {
        "min_norm": int(norm),
        "count": count,
        "vectors": [list(v) for v in vectors],
        "deviations": [],
    }


def _cmd_lattice_id(args):
    q = _quadform(_load_doc(args.gram))
    fn = lattice.identify_saturation if args.saturation else lattice.identify
    lid = fn(q.m)
    return {
        "tag": lid.tag,
        "evidence": list(lid.evidence),
        "note": lid.note,
        "deviations": [],
    }


def _cmd_lattice_diag(args):
    q = _quadform(_load_doc(args.gram))
    return {"diagonal": lattice.diagonalize(q), "deviations": []}


def _cmd_lattice_qequiv(args):
    qa = _quadform(_load_doc(args.a))
    qb = _quadform(_load_doc(args.b))
    rep = dict(lattice.q_compare(qa, qb))
    rep["deviations"] = []
    return rep


def _summary_from_doc(doc) -> lattice.CurveSummary:
    _require(
        doc, "degree", "inventory", "alexander_orders", "delta_one_sixth",
        "rank_prediction", "gram",
    )
    return lattice.CurveSummary(
        int(doc["degree"]),
        {str(k): int(v) for k, v in doc["inventory"].items()},
        {Fraction(str(k)): int(v) for k, v in doc["alexander_orders"].items()},
        int(doc["delta_one_sixth"]),
        int(doc["rank_prediction"]),
    )


def _cmd_zariski(args):
    da, db = _load_doc(args.a), _load_doc(args.b)
    doc = lattice.zariski_certificate(
        _summary_from_doc(da),
        [[int(x) for x in row] for row in da["gram"]],
        _summary_from_doc(db),
        [[int(x) for x in row] for row in db["gram"]],
    )
    return doc


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="curvelattice", description=__doc__)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--field", default="Q(w)", choices=["Q(w)"])
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
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        doc = args.run(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except DOMAIN_ERRORS as err:
        _emit(
            {
                "error": type(err).__name__,
                "message": str(err),
                "deviations": [],
            },
            args.out,
        )
        return 2
    code = doc.pop("exit", 0)
    _emit(doc, args.out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
