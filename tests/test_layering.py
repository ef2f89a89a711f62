"""Only ``arith`` builds polynomial terms, canonical numerator/denominator
pairs and denominator factorizations, and only it reads a polynomial's
integer numerators ``ints`` and their common denominator ``denom``; the other
modules of the package reach them through public methods such as
``RatFunc.map``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "skewmon"

#: Private arith names other modules may import: the sparse accumulator of
#: skew sums and reducer rows, and the factor stripping of membership checks.
SHARED_PRIVATE = {"_accumulate", "_strip"}

#: Attributes only arith reads: the rational view of a polynomial, its integer
#: numerators and their denominator, and a denominator's factorization.
PRIVATE_SLOTS = ("terms", "ints", "denom", "fac")


def _violations(path):
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
        elif isinstance(node, ast.ImportFrom) and node.module in ("arith", "skewmon.arith"):
            for alias in node.names:
                if alias.name.startswith("_") and alias.name not in SHARED_PRIVATE:
                    out.append(f"{where} imports arith.{alias.name}")
    return out


def test_only_arith_builds_terms_pairs_and_factorizations():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "arith.py")
    assert len(modules) > 5
    violations = [v for p in modules for v in _violations(p)]
    assert not violations, violations
