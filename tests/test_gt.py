"""Full relation suites for the rational gl_n realization, plus the
commutative-subring properties: commutation with the diagonal images and
algebraic independence of the row power sums."""

import random
import time
from fractions import Fraction

import pytest

from skewmon import arith
from skewmon.arith import QQ
from skewmon.constructors import gt_embedding
from skewmon.skewring import SkewElement, commutator
from skewmon.analysis import gl_relation_set, support_lattice_rank, verify_relations


@pytest.fixture(scope="module")
def gt2():
    return gt_embedding(2)


@pytest.fixture(scope="module")
def gt3():
    return gt_embedding(3)


def test_gl2_relation_suite(gt2):
    t0 = time.perf_counter()
    report = verify_relations(gt2, gl_relation_set(2))
    assert report.passed, report.failures()
    assert time.perf_counter() - t0 < 5.0


def test_gl3_relation_suite(gt3):
    t0 = time.perf_counter()
    report = verify_relations(gt3, gl_relation_set(3))
    assert report.passed, report.failures()
    assert time.perf_counter() - t0 < 300.0


def test_gl3_relation_suite_needs_no_polynomial_gcd(monkeypatch):
    # every denominator is a product of root forms x_ki - x_kj, so sums and
    # products cancel them by synthetic division, from construction on
    calls = []
    gcd = arith._gcd_primitive_parts
    monkeypatch.setattr(arith, "_gcd_primitive_parts", lambda p, q: calls.append(1) or gcd(p, q))
    assert verify_relations(gt_embedding(3), gl_relation_set(3)).passed
    assert len(calls) == 0


def test_relation_count_n3():
    rels = gl_relation_set(3)
    names = [r["name"] for r in rels]
    assert len(names) == len(set(names))
    assert sum(1 for n in names if n.startswith("Serre")) == 4


def test_gamma_commutes_with_diagonal(gt3):
    for gamma in gt3.gamma_generators:
        gamma_elem = SkewElement.scalar(gt3.context, gamma)
        for k in (1, 2, 3):
            assert commutator(gamma_elem, gt3.generators[f"E{k}{k}"]).is_zero()


def test_row_power_sums_algebraically_independent(gt3):
    # Jacobian of the 6 power sums w.r.t. the 6 variables has full rank at a
    # random rational point
    rng = random.Random(20240601)
    nv = gt3.context.table.nvars
    point = [QQ(rng.randint(1, 50)) + QQ(rng.randint(1, 9), 10) for _ in range(nv)]
    jac = []
    for gamma in gt3.gamma_generators:
        assert gamma.is_polynomial()
        jac.append([gamma.num.derivative(i).evaluate(point) for i in range(nv)])
    assert _rank_fraction_matrix(jac) == len(gt3.gamma_generators)


def _rank_fraction_matrix(rows):
    m = [list(map(Fraction, (str(x) for x in row))) for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row_i = 0
    for col in range(cols):
        pivot = None
        for i in range(row_i, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[row_i], m[pivot] = m[pivot], m[row_i]
        inv = 1 / m[row_i][col]
        m[row_i] = [x * inv for x in m[row_i]]
        for i in range(len(m)):
            if i != row_i and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row_i])]
        row_i += 1
        rank += 1
    return rank


def test_support_lattice_generation(gt3):
    rank, divisors = support_lattice_rank(list(gt3.generators.values()))
    assert rank == 3
    assert divisors == [1, 1, 1]


def test_supports_are_unit_vectors(gt3):
    keys = {key for u in gt3.generators.values() for key in u.coeffs}
    units = {tuple(1 if j == i else 0 for j in range(3)) for i in range(3)}
    neg_units = {tuple(-x for x in u) for u in units}
    assert units <= keys and neg_units <= keys
