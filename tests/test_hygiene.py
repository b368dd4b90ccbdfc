"""Source hygiene of src/curvelattice, checked on the syntax tree.

No module imports a name it never uses, and no module uses an `assert`
statement, because asserts vanish under `python -O` and the package's
runtime invariants must raise.  The runtime is the standard library alone:
no module imports sympy, and every golden CLI case gives its recorded
bytes in a process where sympy cannot be imported.  Every function the
benchmark tracer wraps (bench/tracer.py TARGETS, read as text) still
exists in the package, so a deletion or rename cannot break
`bench/run.py --trace 1` unnoticed.  Polynomials store Z[w] int pairs
once, so the pair kernels (`_zw_*`) stay inside algebra and linalg and no
conversion seam (`_zw`, `_from_zw`, `_monic_from_zw`) comes back.  A
monomial's value at a point has one evaluator, `algebra.monomial_values`:
no module builds an `MPoly.monomial(...)` only to call `.eval` on it.  A
Cyclo is ints over one denominator: no module builds one from `Fraction`
arguments or reads `.a`/`.b` back as numerator and denominator.  The
exponents of a degree have one enumerator, `algebra.monomials`, and a
polynomial on a line has one restriction, `algebra.restrict`: no other
module defines a `*monomials*` function, and no module converts a
substituted polynomial with `UPoly.from_mpoly(p.subs(...), var)`.  No
floating point: no module calls `float(...)` or a float function of `math`
(`sqrt`, `log`, `exp`, `pow`, `floor`, `ceil`, ...), reads `math.inf` or
`math.nan`, or writes a float literal, so every bound on an answer is an
exact integer or rational.  Polynomial division stays on the int pairs: no
module but algebra calls a `.divmod(...)` method (`UPoly.divmod`, kept only
for the benchmark tracer); the builtin `divmod` of two ints is fine.
Every module stays below 2^14 tokens, comments and blank lines not
counted: compiling algebra.py takes a step up in memory near that size
(tracemalloc: 5.25 MiB at 15,818 tokens, 6.36 MiB at 16,458), and a run
without a bytecode cache compiles it on every import.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from test_golden import CASES, GOLDEN

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "curvelattice"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree):
    """Names bound by import statements, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree):
    """Names read anywhere, including inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {
                n.id
                for n in ast.walk(ast.parse(ann.value, mode="eval"))
                if isinstance(n, ast.Name)
            }
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used(tree)
    unused = {n: line for n, line in _imported(tree).items() if n not in used}
    assert unused == {}, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_sympy_import(path):
    imported = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not {n for n in imported if n.split(".")[0] == "sympy"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_below_token_budget(path):
    with open(path, encoding="utf-8") as fh:
        tokens = tokenize.generate_tokens(fh.readline)
        n = sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)
    assert n < 2**14, f"{path.name} has {n} tokens"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case_without_sympy(name):
    # sys.modules["sympy"] = None makes every `import sympy` raise
    code = "import sys; sys.modules['sympy'] = None; from curvelattice.cli import main; main()"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *CASES[name]],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes()


def _private_defs(tree):
    """(name, line) of each _-prefixed, non-dunder function at module level
    or in a class body at module level."""
    bodies = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    return [
        (node.name, node.lineno)
        for body in bodies
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def test_no_unreferenced_private_functions():
    # a private function is referenced by a name, an attribute or an
    # import somewhere in src/ besides its own def: nothing left uncalled
    trees = {path: _tree(path) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    unreferenced = [
        f"{path.name}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _private_defs(tree)
        if name not in referenced
    ]
    assert unreferenced == [], f"private functions nothing in src/ refers to: {unreferenced}"


PAIR_KERNEL_MODULES = {"algebra.py", "linalg.py"}
CONVERSION_SEAMS = {"_zw", "_from_zw", "_monic_from_zw"}


def test_pair_kernels_stay_in_algebra():
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and path.name not in PAIR_KERNEL_MODULES:
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_zw")
                ]
            elif isinstance(node, ast.Attribute) and node.attr in CONVERSION_SEAMS:
                found.append(f"{path.name}:{node.lineno} refers to .{node.attr}")
    assert found == [], f"Z[w] pair kernels or conversion seams outside algebra: {found}"


def test_no_polynomial_divmod_outside_algebra():
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name != "algebra.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "divmod"
    ]
    assert found == [], f"polynomial division by .divmod outside algebra: {found}"


def _fraction_seam(node):
    """Whether node builds a Cyclo from Fraction(...) arguments or reads a
    Fraction part of a Cyclo: .a or .b followed by .numerator or
    .denominator."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Cyclo":
        return any(
            isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id == "Fraction"
            for arg in node.args
        )
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("numerator", "denominator")
        and isinstance(node.value, ast.Attribute)
        and node.value.attr in ("a", "b")
    )


def test_cyclo_stays_on_ints():
    # Cyclo stores (p + q*w) / d as ints; a and b are read-only Fraction
    # views, so the package neither builds a Cyclo from Fractions nor takes
    # a view apart again
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if _fraction_seam(node)
    ]
    assert found == [], f"Cyclo built from or read back as Fractions: {found}"


def _is_monomial_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "monomial"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "MPoly"
    )


def test_one_monomial_evaluator():
    # a monomial's value at a point is algebra.monomial_values: no module
    # builds an MPoly.monomial(...) to evaluate it, directly or through a
    # name bound to one in the same function
    found = []
    for path in MODULES:
        for func in ast.walk(_tree(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = {
                target.id
                for node in ast.walk(func)
                if isinstance(node, ast.Assign) and _is_monomial_call(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            found += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "eval"
                and (
                    _is_monomial_call(node.func.value)
                    or isinstance(node.func.value, ast.Name) and node.func.value.id in bound
                )
            ]
    assert found == [], f"monomials built as MPoly to be evaluated: {sorted(set(found))}"


def _from_mpoly_of_subs(node):
    """Whether node is a call UPoly.from_mpoly(<...>.subs(...), ...)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "from_mpoly"
        and bool(node.args)
        and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Attribute)
        and node.args[0].func.attr == "subs"
    )


def test_one_enumerator_and_one_restriction():
    # monomials of a degree come from algebra.monomials, and a polynomial
    # on a line from algebra.restrict, never from a substitution chain
    found = []
    for path in MODULES:
        for func in ast.walk(_tree(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if "monomials" in func.name and path.name != "algebra.py":
                found.append(f"{path.name}:{func.lineno} {func.name} enumerates monomials")
            if any(_from_mpoly_of_subs(node) for node in ast.walk(func)):
                found.append(f"{path.name}:{func.lineno} {func.name} converts a subs result")
    assert found == [], f"a second enumerator or line restriction: {found}"


FLOAT_FUNCTIONS = {"sqrt", "log", "log2", "log10", "exp", "pow", "floor", "ceil"}
FLOAT_CONSTANTS = {"inf", "nan"}


def _math_attribute(node, names):
    """Whether node is math.<one of names>."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in names
        and isinstance(node.value, ast.Name)
        and node.value.id == "math"
    )


def _floating(node):
    """Whether node calls float(...) or math.<a float function>(...), reads
    math.inf or math.nan, or is a float (or complex) literal."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if _math_attribute(node, FLOAT_CONSTANTS):
        return True
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Name):
        return f.id == "float"
    return _math_attribute(f, FLOAT_FUNCTIONS)


def test_no_floating_point():
    found = sorted({
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if _floating(node)
    })
    assert found == [], f"floating-point calls, constants or literals: {found}"


def test_modules_found():
    assert MODULES, f"no modules under {SRC}"


def _tracer_targets():
    """(module, attribute path) of each TARGETS entry in bench/tracer.py."""
    tree = _tree(ROOT / "bench" / "tracer.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [
                (entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts
            ]
    raise AssertionError("bench/tracer.py has no TARGETS list")


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    unresolved = []
    for module, path in targets:
        obj = importlib.import_module(f"curvelattice.{module}")
        for name in path.split("."):
            obj = getattr(obj, name, None)
        obj = getattr(obj, "__func__", obj)  # a classmethod binds its function
        if not (
            inspect.isfunction(obj)
            and Path(inspect.getsourcefile(obj)).resolve().parent == SRC.resolve()
        ):
            unresolved.append(f"{module}.{path}")
    assert unresolved == [], f"tracer targets not found in src/: {unresolved}"
