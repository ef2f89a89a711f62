"""Only ``arith`` builds polynomial terms, canonical numerator/denominator
pairs and denominator factorizations, and only it reads a polynomial's
integer numerators ``ints`` and their common denominator ``denom``; the other
modules of the package reach them through public methods such as
``RatFunc.map``.  No module imports another module's private names, apart
from the few arith shares.  No module imports ``dataclasses`` or ``inspect``,
which would add their import chain (``ast``, ``dis``, ``tokenize``) to every
start of the package."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "skewmon"

#: Private arith names other modules may import: the sparse accumulator of
#: skew sums and reducer rows, and the factor stripping of membership checks.
SHARED_PRIVATE = {"_accumulate", "_strip"}

#: Attributes only arith reads: the rational view of a polynomial, its integer
#: numerators and their denominator, and a denominator's factorization.
PRIVATE_SLOTS = ("terms", "ints", "denom", "fac")

#: Standard-library modules the package must not import, directly or not.
HEAVY_IMPORTS = ("dataclasses", "inspect")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _violations(path):
    out = []
    for node in ast.walk(_tree(path)):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_SLOTS:
            out.append(f"{where} reads .{node.attr}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_raw"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("Polynomial", "RatFunc")
        ):
            out.append(f"{where} calls {node.func.value.id}._raw")
    return out


def test_only_arith_builds_terms_pairs_and_factorizations():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "arith.py")
    assert len(modules) > 5
    violations = [v for p in modules for v in _violations(p)]
    assert not violations, violations


def test_no_module_imports_private_names_but_the_shared_arith_ones():
    violations = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.ImportFrom):
                continue
            shared = SHARED_PRIVATE if node.module in ("arith", "skewmon.arith") else ()
            violations += [
                f"{path.name}:{node.lineno} imports {node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")
                and alias.name not in shared
            ]
    assert not violations, violations


def test_inside_arith_only_repr_and_substitution_read_the_rational_view():
    # every kernel runs on the integer numerators; the rational view is for
    # display and for the coefficient-by-coefficient substitution
    readers = {
        fn.name
        for fn in ast.walk(_tree(SRC / "arith.py"))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "terms"
    }
    assert readers == {"__repr__", "_ratfunc_substitute"}


def test_no_module_imports_dataclasses_or_inspect():
    violations = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            violations += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.partition(".")[0] in HEAVY_IMPORTS
            ]
    assert not violations, violations


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # compare the module sets around the import: site may load either itself
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import skewmon\n"
        f"print(sorted((set(sys.modules) - before) & {set(HEAVY_IMPORTS)!r}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=SRC.parent, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]", out.stdout + out.stderr
