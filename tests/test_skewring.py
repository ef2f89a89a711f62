import random

import pytest

from skewmon.arith import Polynomial, RatFunc
from skewmon.actions import MonoidElement
from skewmon.errors import InvarianceError, StabilizerInvarianceError
from skewmon import skewring
from skewmon.constructors import build_shift_algebra, gt_embedding
from skewmon.skewring import (
    SkewElement,
    commutator,
    decompose_orbits,
    g_action,
    is_invariant,
    kpart,
    orbit_sum,
    support,
)


@pytest.fixture(scope="module")
def s11():
    return build_shift_algebra(1, 1)


@pytest.fixture(scope="module")
def s22():
    return build_shift_algebra(2, 2, group_generators=[(1, 0)])


def rand_elem(rng, ctx, max_keys=2):
    rank = ctx.rank
    nv = ctx.table.nvars
    coeffs = {}
    for _ in range(rng.randint(1, max_keys)):
        key = tuple(rng.randint(-2, 2) for _ in range(rank))
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * nv
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(nv)] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-3, 3)
        coeffs[key] = RatFunc(Polynomial(nv, terms))
    return SkewElement(ctx, coeffs)


class TestProduct:
    def test_shift_past_coefficient(self, s11):
        x = SkewElement.scalar(s11, s11.table.var("x1"))
        eps = SkewElement.generator(s11, (1,))
        moved = eps * x
        assert moved == SkewElement.generator(
            s11, (1,), s11.table.var("x1") - s11.table.poly("1")
        )

    def test_identity(self, s11):
        u = SkewElement.generator(s11, (3,), s11.table.var("x1"))
        assert SkewElement.one(s11) * u == u
        assert u * SkewElement.one(s11) == u

    def test_commutator_example(self, s11):
        x = SkewElement.scalar(s11, s11.table.var("x1"))
        eps = SkewElement.generator(s11, (1,))
        assert commutator(eps, x) == -eps

    def test_associativity_distributivity(self, s22):
        rng = random.Random(17)
        for _ in range(12):
            u, v, w = (rand_elem(rng, s22) for _ in range(3))
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert (u + v) * w == u * w + v * w

    def test_support_of_product(self, s22):
        rng = random.Random(19)
        for _ in range(10):
            u, v = rand_elem(rng, s22), rand_elem(rng, s22)
            allowed = {
                tuple(a + b for a, b in zip(mu, nu))
                for mu in u.coeffs
                for nu in v.coeffs
            }
            assert set((u * v).coeffs) <= allowed

    def test_scalar_coercion(self, s11):
        eps = SkewElement.generator(s11, (1,))
        x = s11.table.var("x1")
        # u * gamma applies the key automorphism to gamma
        assert eps * x == SkewElement.generator(s11, (1,), x - s11.table.poly("1"))
        assert x * eps == SkewElement.generator(s11, (1,), x)
        assert (2 * eps - eps) == eps

    def test_power(self, s22):
        u = rand_elem(random.Random(23), s22)
        assert u**3 == u * u * u
        assert u**0 == SkewElement.one(s22)
        with pytest.raises(ValueError):
            u ** -1


class TestGAction:
    def test_swap_moves_key_and_coefficient(self, s22):
        g = list(s22.group)[1]
        u = SkewElement.generator(s22, (1, 0), s22.table.var("x1"))
        assert g_action(g, u) == SkewElement.generator(s22, (0, 1), s22.table.var("x2"))

    def test_identity_action(self, s22):
        rng = random.Random(23)
        u = rand_elem(rng, s22)
        assert g_action(s22.group.identity, u) == u

    def test_invariant_scalar(self, s22):
        sym = s22.table.var("x1") + s22.table.var("x2")
        u = SkewElement.scalar(s22, sym)
        g = list(s22.group)[1]
        assert g_action(g, u) == u

    def test_algebra_automorphism(self, s22):
        rng = random.Random(29)
        g = list(s22.group)[1]
        for _ in range(10):
            u, v = rand_elem(rng, s22), rand_elem(rng, s22)
            assert g_action(g, u * v) == g_action(g, u) * g_action(g, v)
            assert g_action(g, u + v) == g_action(g, u) + g_action(g, v)


class TestOrbitSum:
    def test_two_cosets(self, s22):
        mu = MonoidElement(s22, (1, 0))
        os = orbit_sum(s22.table.var("x1"), mu)
        expected = SkewElement(
            s22,
            {(1, 0): s22.table.var("x1"), (0, 1): s22.table.var("x2")},
        )
        assert os == expected

    def test_identity_key_degenerates(self, s22):
        sym = s22.table.var("x1") * s22.table.var("x2")
        os = orbit_sum(sym, MonoidElement(s22, (0, 0)))
        assert os == SkewElement.scalar(s22, sym)

    def test_symmetric_coefficient_distinct_keys(self, s22):
        a = s22.table.var("x1") * s22.table.var("x2")
        os = orbit_sum(a, MonoidElement(s22, (1, 0)))
        assert os == SkewElement(s22, {(1, 0): a, (0, 1): a})

    def test_stabilizer_invariance_required(self, s22):
        with pytest.raises(StabilizerInvarianceError):
            orbit_sum(s22.table.var("x1"), MonoidElement(s22, (1, 1)))

    def test_zero_coefficient_rejected(self, s22):
        with pytest.raises(StabilizerInvarianceError):
            orbit_sum(RatFunc.zero(2), MonoidElement(s22, (1, 0)))

    def test_always_invariant(self, s22):
        rng = random.Random(31)
        from skewmon.actions import stabilizer as stab_of
        from skewmon.randomized import random_ratfunc

        count = 0
        while count < 15:
            vec = tuple(rng.randint(-2, 2) for _ in range(2))
            mu = MonoidElement(s22, vec)
            stab = stab_of(s22.group, mu)
            seed_fn = random_ratfunc(rng, 2)
            a = RatFunc.zero(2)
            for g in stab:
                a = a + g.apply(seed_fn)
            if a.is_zero():
                continue
            count += 1
            assert is_invariant(orbit_sum(a, mu))

    def test_representative_independence(self):
        # two different enumerations of the same group give the same sum
        ctx1 = build_shift_algebra(3, 3, group_generators=[(1, 0, 2), (0, 2, 1)])
        ctx2 = build_shift_algebra(3, 3, group_generators=[(0, 2, 1), (2, 1, 0), (1, 0, 2)])
        assert [g.perm for g in ctx1.group] != [g.perm for g in ctx2.group]
        a1 = ctx1.table.var("x2") + ctx1.table.var("x3")
        a2 = ctx2.table.var("x2") + ctx2.table.var("x3")
        os1 = orbit_sum(a1, MonoidElement(ctx1, (1, 0, 0)))
        os2 = orbit_sum(a2, MonoidElement(ctx2, (1, 0, 0)))
        assert {k: (v.num.terms, v.den.terms) for k, v in os1.coeffs.items()} == {
            k: (v.num.terms, v.den.terms) for k, v in os2.coeffs.items()
        }


class TestInvariance:
    def test_orbit_sum_output(self, s22):
        os = orbit_sum(s22.table.var("x1"), MonoidElement(s22, (1, 0)))
        assert is_invariant(os)

    def test_asymmetric_scalar(self, s22):
        assert not is_invariant(SkewElement.scalar(s22, s22.table.var("x1")))

    def test_zero(self, s22):
        assert is_invariant(SkewElement.zero(s22))

    def test_checks_group_generators_only(self, monkeypatch):
        alg = gt_embedding(3)  # |G| = 12, three generators
        calls = []

        def counted(g, u):
            calls.append(g)
            return g_action(g, u)

        monkeypatch.setattr(skewring, "g_action", counted)
        assert is_invariant(alg.generators["E23"])
        assert len(calls) <= 3

    def test_group_without_generators(self, s22):
        # a stabilizer is built without generators: every element is checked
        from skewmon.actions import stabilizer

        stab = stabilizer(s22.group, MonoidElement(s22, (1, 1)))
        assert len(stab) == 2 and not stab.gen_perms
        x1, x2 = s22.table.var("x1"), s22.table.var("x2")
        assert not is_invariant(SkewElement.scalar(s22, x1), stab)
        assert is_invariant(SkewElement.scalar(s22, x1 + x2), stab)


class TestStructure:
    def test_support(self, s22):
        u = SkewElement(
            s22,
            {(1, 0): s22.table.var("x1"), (-1, 0): RatFunc.const(2, 1)},
        )
        assert {m.vector for m in support(u)} == {(1, 0), (-1, 0)}
        assert support(SkewElement.zero(s22)) == set()

    def test_kpart(self, s22):
        x = s22.table.var("x1")
        u = SkewElement.scalar(s22, x) + SkewElement.generator(s22, (0, 1), s22.table.var("x2"))
        assert kpart(u) == x
        assert kpart(SkewElement.generator(s22, (1, 0))).is_zero()

    def test_decompose_orbits(self, s22):
        os1 = orbit_sum(s22.table.var("x1"), MonoidElement(s22, (1, 0)))
        os2 = orbit_sum(RatFunc.const(2, 1), MonoidElement(s22, (0, 0)))
        both = os1 + os2
        comps = decompose_orbits(both)
        assert [rep.vector for rep, _ in comps] == [(0, 0), (0, 1)]
        total = SkewElement.zero(s22)
        supports = []
        for _, comp in comps:
            total = total + comp
            supports.append(set(comp.coeffs))
        assert total == both
        assert supports[0] & supports[1] == set()

    def test_decompose_single_orbit(self, s22):
        os1 = orbit_sum(s22.table.var("x1"), MonoidElement(s22, (1, 0)))
        comps = decompose_orbits(os1)
        assert len(comps) == 1 and comps[0][1] == os1

    def test_decompose_zero(self, s22):
        assert decompose_orbits(SkewElement.zero(s22)) == []

    def test_decompose_requires_invariance(self, s22):
        with pytest.raises(InvarianceError):
            decompose_orbits(SkewElement.scalar(s22, s22.table.var("x1")))

    def test_text_and_json_round_trip(self, s22):
        u = SkewElement(
            s22,
            {(1, 0): RatFunc(Polynomial.variable(2, 0), Polynomial.variable(2, 1)),
             (-1, 2): RatFunc.const(2, "3/2")},
        )
        assert u.to_text() == "3/2 ⊗ [-1,2] + (1*x1)/(1*x2) ⊗ [1,0]"
        assert SkewElement.from_json(s22, u.to_json()) == u


class TestBimoduleIdentities:
    def test_orbit_sum_identities(self, s22):
        from skewmon.randomized import orbit_identity_trials

        report = orbit_identity_trials(s22, 25, seed=123)
        assert report.passed, report.failures()
