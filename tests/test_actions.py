import random
from fractions import Fraction

import pytest

from skewmon.arith import Polynomial, QQ, RatFunc
from skewmon.actions import (
    FINITE_GROUP,
    Context,
    GeneralAut,
    Group,
    LATTICE,
    MonoidElement,
    PermutationAut,
    ScalingAut,
    ShiftAut,
    VariableTable,
    _ChainAut,
    _perm_compose,
    act,
    compose,
    conjugate,
    inverse,
    orbit,
    stabilizer,
)
from skewmon.errors import (
    ContextMismatchError,
    NormalizationViolationError,
    NotInvertibleError,
    PreconditionError,
    ResourceCapError,
)
from skewmon.constructors import (
    GWASpec,
    build_qshift_algebra,
    build_shift_algebra,
    demazure_elements,
    gt_embedding,
    symmetric_group_context,
)
from skewmon.skewring import SkewElement, g_action, is_invariant


def swap_context():
    ctx = build_shift_algebra(2, 2, group_generators=[(1, 0)])
    return ctx


class TestVariableTable:
    def test_blocks(self):
        t = VariableTable(["a", "b"], ["c"], ["q"])
        assert t.nvars == 4
        assert t.is_acted(0) and t.is_acted(1)
        assert not t.is_acted(2)
        assert t.is_param(3)
        assert list(t.param_indices()) == [3]

    def test_duplicate_names(self):
        with pytest.raises(PreconditionError):
            VariableTable(["a", "a"])


class TestAutomorphisms:
    def test_shift_on_acted(self):
        ctx = build_shift_algebra(2, 1)
        x1, x2 = ctx.table.var("x1"), ctx.table.var("x2")
        mu = MonoidElement(ctx, (1,))
        assert mu.act(x1) == x1 - ctx.table.poly("1")
        assert mu.act(x2) == x2

    def test_qscaling(self):
        ctx = build_qshift_algebra(2, 1)
        x1, x2 = ctx.table.var("x1"), ctx.table.var("x2")
        q = ctx.table.var("q")
        mu = MonoidElement(ctx, (1,))
        assert mu.act(x1) == q * x1
        assert mu.act(x2) == x2
        assert inverse(mu).act(x1) == x1 / q

    def test_shift_offset_on_fixed_rejected(self):
        t = VariableTable(["a"], ["b"])
        with pytest.raises(PreconditionError):
            ShiftAut(t, [QQ(0), QQ(1)])

    def test_permutation_fixes_params(self):
        t = VariableTable(["a", "b"], [], ["q"])
        with pytest.raises(PreconditionError):
            PermutationAut(t, (2, 1, 0))

    def test_general_aut_certified_inverse(self):
        t = VariableTable(["a", "b"])
        a, b = t.var("a"), t.var("b")
        # a -> a+b, b -> b  with inverse a -> a-b, b -> b
        g = GeneralAut(t, {0: a + b}, {0: a - b})
        assert g.apply(a) == a + b
        assert g.inverse().apply(g.apply(a + b * b)) == a + b * b
        with pytest.raises(PreconditionError):
            GeneralAut(t, {0: a + b}, {0: a + b})

    def test_general_aut_swap(self):
        t = VariableTable(["a", "b"])
        a, b = t.var("a"), t.var("b")
        g = GeneralAut(t, {0: b, 1: a}, {0: b, 1: a})
        assert g.apply(a * a + b) == b * b + a

    def test_general_aut_polynomial_images_roundtrip(self):
        ctx = build_shift_algebra(2, 2)
        a, b = ctx.table.var("x1"), ctx.table.var("x2")
        # a -> b, b -> a+b  with inverse a -> b-a, b -> a
        g = GeneralAut(ctx.table, {0: b, 1: a + b}, {0: b - a, 1: a})
        assert g.apply(a * b) == a * b + b * b
        rng = random.Random(29)
        for _ in range(10):
            f = _rand_rf(rng, ctx)
            assert g.inverse().apply(g.apply(f)) == f
            assert g.apply(g.inverse().apply(f)) == f

    def test_act_is_ring_homomorphism(self):
        rng = random.Random(11)
        ctx = build_shift_algebra(2, 2)
        mu = MonoidElement(ctx, (2, -1))
        for _ in range(10):
            f = _rand_rf(rng, ctx)
            g = _rand_rf(rng, ctx)
            assert mu.act(f + g) == mu.act(f) + mu.act(g)
            assert mu.act(f * g) == mu.act(f) * mu.act(g)

    def test_act_compose(self):
        rng = random.Random(23)
        ctx = build_shift_algebra(2, 2)
        a = MonoidElement(ctx, (1, -2))
        b = MonoidElement(ctx, (0, 3))
        for _ in range(5):
            f = _rand_rf(rng, ctx)
            assert compose(a, b).act(f) == a.act(b.act(f))

    def test_scaling_act_compose_with_inverses(self):
        rng = random.Random(29)
        ctx = build_qshift_algebra(2, 2)
        a = MonoidElement(ctx, (1, -1))
        b = MonoidElement(ctx, (-2, 1))
        for _ in range(5):
            f = _rand_rf(rng, ctx)
            assert compose(a, b).act(f) == a.act(b.act(f))

    def test_negative_scaling_multiplier(self):
        from skewmon.actions import ScalingAut

        t = VariableTable(["h"])
        s = ScalingAut(t, (QQ(-1),), ((0,),))
        h = t.var("h")
        one = t.poly("1")
        image = s.apply(one / (h + one))
        assert image == (h - one).invert().scale(-1)
        assert s.apply(image) == one / (h + one)
        assert image.den.leading_term()[1] == 1

    def test_scaling_keeps_only_polynomial_factor_images(self):
        # y -> y/q maps the factor x*y + q of 1/(q*(x*y + q)) to x*y/q + q,
        # which is no polynomial, although the image pair shares no monomial;
        # kept as a factor, it broke the product below
        t = VariableTable(["x", "y"], [], ["q"])
        g = ScalingAut(t, (1, 1, 1), ((0, 0, 0), (0, 0, -1), (0, 0, 0)))
        x, y, q = (t.var(n) for n in t.names)
        image = g.apply(q.invert() * (x * y + q).invert())
        assert image == (x * y + q * q).invert()
        assert image * (x * y + q * q) == t.poly("1")

    def test_scaling_that_clears_the_denominator_keeps_the_empty_factorization(self):
        # y -> q*y maps y/q to q*y/q: the shared monomial q leaves the
        # canonical y, whose constant denominator has the empty factorization
        t = VariableTable(["x", "y"], [], ["q"])
        g = ScalingAut(t, (1, 1, 1), ((0, 0, 0), (0, 0, 1), (0, 0, 0)))
        y, q = t.var("y"), t.var("q")
        image = g.apply(y / q)
        assert image == y and image.fac == {}

    def test_integer_scaling_inverse_and_negative_power_are_exact(self):
        t = VariableTable(["h"])
        g = ScalingAut(t, (2,), ((0,),))
        assert g.inverse().coeffs == (Fraction(1, 2),)
        assert g.power(-2).coeffs == (Fraction(1, 4),)
        assert type(g.inverse().coeffs[0]) is type(g.power(-2).coeffs[0]) is Fraction
        h, one = t.var("h"), t.poly("1")
        r = (h * h + one) / (h.scale(3) - one)
        assert g.inverse().apply(g.apply(r)) == r
        assert g.power(-2).apply(g.power(2).apply(r)) == r

    def test_params_and_fixed_are_fixed(self):
        ctx = build_qshift_algebra(3, 2)
        q = ctx.table.var("q")
        x3 = ctx.table.var("x3")
        for vec in [(1, 0), (0, -2), (3, 5)]:
            mu = MonoidElement(ctx, vec)
            assert mu.act(q) == q
            assert mu.act(x3) == x3


class TestMonoid:
    def test_compose_and_inverse(self):
        ctx = build_shift_algebra(2, 2)
        a = MonoidElement(ctx, (1, 0))
        b = MonoidElement(ctx, (0, 1))
        assert compose(a, b).vector == (1, 1)
        assert inverse(MonoidElement(ctx, (2, -1))).vector == (-2, 1)

    def test_monoid_mode_not_invertible(self):
        t = VariableTable(["x1", "x2"])
        gens = [ShiftAut(t, (QQ(-1), QQ(0))), ShiftAut(t, (QQ(0), QQ(-1)))]
        ctx = Context(t, LATTICE, gens, nonneg=True, coord_vars=(0, 1))
        with pytest.raises(NotInvertibleError):
            inverse(MonoidElement(ctx, (1, 0)))
        assert inverse(MonoidElement(ctx, (0, 0))).vector == (0, 0)
        with pytest.raises(PreconditionError):
            MonoidElement(ctx, (-1, 0))

    @pytest.mark.parametrize("vector", [(0.5,), ("1",), (True,)], ids=["float", "string", "bool"])
    def test_a_vector_of_non_integers_is_rejected_not_truncated(self, vector):
        with pytest.raises(PreconditionError, match="is not a valid monoid element"):
            MonoidElement(build_shift_algebra(1, 1), vector)

    def test_keys_are_tuples_of_integers_in_both_modes(self):
        lattice = build_shift_algebra(1, 1)
        nilhecke = demazure_elements(2)[0].context
        for ctx, key in [(lattice, (0.5,)), (lattice, ("1",)), (nilhecke, (1.0, 0.0))]:
            one = RatFunc.const(ctx.table.nvars, 1)
            with pytest.raises(ContextMismatchError, match="invalid key"):
                SkewElement(ctx, {key: one})


class TestGroup:
    def test_closure_s3(self):
        t = VariableTable(["a", "b", "c"])
        g = Group.from_generators(t, [(1, 0, 2), (0, 2, 1)])
        assert len(g) == 6

    @staticmethod
    def _reference_closure(nvars, gens):
        """Breadth-first closure from the identity, composing p o g in the
        order of the generators."""
        identity = tuple(range(nvars))
        seen, order, frontier = {identity}, [identity], [identity]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = _perm_compose(p, g)
                    if q not in seen:
                        seen.add(q)
                        order.append(q)
                        nxt.append(q)
            frontier = nxt
        return order

    @pytest.mark.parametrize("n, size", [(3, 12), (4, 288)])
    def test_closure_order_matches_a_reference_bfs(self, n, size):
        ctx = gt_embedding(n).context
        gens = ctx.group.gen_perms
        closed = Group.from_generators(ctx.table, gens)
        assert list(closed.perms) == self._reference_closure(ctx.table.nvars, gens)
        assert len(closed) == size

    def test_closure_on_one_variable(self):
        t = VariableTable(["x"])
        assert list(Group.from_generators(t, [(0,)]).perms) == [(0,)]

    def test_closure_cap(self):
        t = VariableTable([f"v{i}" for i in range(8)])
        cycle = tuple(list(range(1, 8)) + [0])
        swap = (1, 0) + tuple(range(2, 8))
        with pytest.raises(ResourceCapError):
            Group.from_generators(t, [cycle, swap], cap=100)

    def test_conjugate_swap(self):
        ctx = swap_context()
        g = list(ctx.group)[1]
        mu = MonoidElement(ctx, (1, 0))
        assert conjugate(g, mu).vector == (0, 1)

    def test_conjugate_identity(self):
        ctx = swap_context()
        mu = MonoidElement(ctx, (3, -2))
        assert conjugate(ctx.group.identity, mu).vector == (3, -2)

    def test_conjugate_fixing_acted(self):
        # a group moving only fixed variables leaves lattice vectors alone
        ctx = build_shift_algebra(4, 2, group_generators=[(0, 1, 3, 2)])
        g = list(ctx.group)[1]
        mu = MonoidElement(ctx, (3, -2))
        assert conjugate(g, mu).vector == (3, -2)

    def test_conjugation_homomorphism(self):
        ctx = build_shift_algebra(3, 3, group_generators=[(1, 0, 2), (0, 2, 1)])
        mu = MonoidElement(ctx, (1, 2, -1))
        for g in ctx.group:
            for h in ctx.group:
                gh = ctx.group.compose(g, h)
                assert conjugate(gh, mu) == conjugate(g, conjugate(h, mu))

    def test_orbit_stabilizer(self):
        ctx = swap_context()
        mu = MonoidElement(ctx, (1, 0))
        assert {m.vector for m in orbit(ctx.group, mu)} == {(1, 0), (0, 1)}
        assert len(stabilizer(ctx.group, mu)) == 1
        sym = MonoidElement(ctx, (1, 1))
        assert {m.vector for m in orbit(ctx.group, sym)} == {(1, 1)}
        assert len(stabilizer(ctx.group, sym)) == 2
        zero = MonoidElement(ctx, (0, 0))
        assert {m.vector for m in orbit(ctx.group, zero)} == {(0, 0)}
        assert len(stabilizer(ctx.group, zero)) == len(ctx.group)

    def test_orbit_stabilizer_counting(self):
        ctx = build_shift_algebra(3, 3, group_generators=[(1, 0, 2), (0, 2, 1)])
        for vec in [(1, 0, 0), (1, 1, 0), (2, 1, 0), (1, 1, 1)]:
            mu = MonoidElement(ctx, vec)
            assert len(orbit(ctx.group, mu)) * len(stabilizer(ctx.group, mu)) == len(ctx.group)

    def test_normalization_violation(self):
        # swap moves an acted variable to a fixed one: shifts do not conjugate
        ctx = build_shift_algebra(2, 1, group_generators=[(1, 0)])
        g = list(ctx.group)[1]
        with pytest.raises(NormalizationViolationError):
            conjugate(g, MonoidElement(ctx, (1,)))

    def test_invalid_permutation_fails_at_construction(self):
        t = VariableTable(["a", "b", "c"])
        with pytest.raises(PreconditionError):
            Group(t, [(0, 1, 2), (0, 0, 1)])

    def test_element_is_its_own_automorphism(self):
        ctx = build_shift_algebra(3, 3, group_generators=[(1, 0, 2), (0, 2, 1)])
        f = ctx.table.var("x1") ** 2 / (ctx.table.var("x2") + ctx.table.var("x3").scale(3))
        for g in ctx.group:
            assert isinstance(g, PermutationAut)
            assert act(g, f) == g.apply(f)
            assert g.apply(f) == PermutationAut(ctx.table, g.perm).apply(f)

    def test_act_dispatch(self):
        ctx = build_shift_algebra(2, 1)
        x1 = ctx.table.var("x1")
        assert act(MonoidElement(ctx, (2,)), x1) == x1 - ctx.table.poly("2")
        aut = ShiftAut(ctx.table, (QQ(5), QQ(0)))
        assert act(aut, x1) == x1 + ctx.table.poly("5")


def uneven_shift_context():
    """x1 -> x1 - 1, x2 -> x2 - 2 under the swap: conjugation leaves the lattice."""
    t = VariableTable(["x1", "x2"])
    gens = [ShiftAut(t, (QQ(-1), QQ(0))), ShiftAut(t, (QQ(0), QQ(-2)))]
    group = Group.from_generators(t, [(1, 0)])
    return Context(t, LATTICE, gens, group=group, coord_vars=range(2))


def collapsed_shift_context():
    """Both generators shift x1, so a key acts through its coordinate sum: the
    swap conjugates no unit vector into the lattice, but every key of sum 0."""
    t = VariableTable(["x1", "x2"])
    gens = [ShiftAut(t, (QQ(-1), QQ(0))), ShiftAut(t, (QQ(-1), QQ(0)))]
    group = Group.from_generators(t, [(1, 0)])
    return Context(t, LATTICE, gens, group=group, coord_vars=range(2))


class TestConjugationCertificate:
    def test_violation_names_the_key_and_spares_zero(self):
        ctx = uneven_shift_context()
        swap = list(ctx.group)[1]
        assert ctx.conjugate_key(swap, (0, 0)) == (0, 0)
        with pytest.raises(NormalizationViolationError, match=r"conjugation of \(1, 0\)"):
            ctx.conjugate_key(swap, (1, 0))
        assert ctx.conjugate_key(swap, (0, 0)) == (0, 0)
        with pytest.raises(NormalizationViolationError, match=r"conjugation of \(2, -1\)"):
            conjugate(swap, MonoidElement(ctx, (2, -1)))

    def test_foreign_violation_names_the_key(self):
        ctx = uneven_shift_context()
        swap = PermutationAut(ctx.table, (1, 0))
        with pytest.raises(NormalizationViolationError, match=r"conjugation of \(2, -1\)"):
            ctx.conjugate_key(swap, (2, -1))
        assert ctx.conjugate_key(swap, (0, 0)) == (0, 0)

    def test_invariance_verifies_generators_on_unit_vectors_only(self, monkeypatch):
        alg = gt_embedding(3)
        ctx = alg.context
        calls = []
        verify = Context._verify_conjugation

        def counted(self, g, key, candidate, xs=None):
            calls.append(key)
            return verify(self, g, key, candidate, xs)

        monkeypatch.setattr(Context, "_verify_conjugation", counted)
        for u in alg.generators.values():
            is_invariant(u)
        assert 0 < len(calls) <= len(ctx.group.generator_elements()) * ctx.rank

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gt_embedding(3).context,
            lambda: build_shift_algebra(3, 3, group_generators=[(1, 0, 2), (0, 2, 1)]),
            lambda: build_qshift_algebra(3, 3, group_generators=[(1, 0, 2), (0, 2, 1)]),
        ],
        ids=["gt3", "shift-s3", "qshift-s3"],
    )
    def test_certified_keys_pass_the_per_key_check(self, build):
        ctx = build()
        keys = [(0, 0, 0), (1, 0, 0), (0, 1, -1), (2, -1, 3)]
        for g in ctx.group:
            for key in keys:
                ctx._verify_conjugation(g, key, ctx.conjugate_key(g, key))

    @pytest.mark.parametrize("n, bound", [(3, 72), (4, 420)])
    def test_certificate_maps_each_unit_image_once(self, monkeypatch, n, bound):
        # rank * nvars images act(e_i)(x_k), then one image under s per
        # (generator s, unit e_i, variable): 3*6 + 3*3*6 and 6*10 + 6*6*10
        ctx = gt_embedding(n).context
        maps = _counted_maps(monkeypatch)
        unit = (1,) + (0,) * (ctx.rank - 1)
        g = ctx.group.generator_elements()[0]
        assert ctx.conjugate_key(g, unit) == ctx._coord_image(g.perm, unit)
        assert 0 < len(maps) <= bound

    def test_failed_certificate_falls_back_to_each_key(self, monkeypatch):
        ctx = collapsed_shift_context()
        swap = list(ctx.group)[1]
        shared = []
        verify = Context._verify_conjugation

        def recorded(self, g, key, candidate, xs=None):
            shared.append(xs is not None)
            return verify(self, g, key, candidate, xs)

        monkeypatch.setattr(Context, "_verify_conjugation", recorded)
        assert ctx.conjugate_key(swap, (1, -1)) == (-1, 1)
        with pytest.raises(NormalizationViolationError, match=r"conjugation of \(1, 0\)"):
            ctx.conjugate_key(swap, (1, 0))
        # each call fails the certificate on e_1, then checks its key with
        # variables of its own
        assert shared == [True, False, True, False]

    def test_foreign_permutations(self):
        ctx = build_shift_algebra(3, 3, group_generators=[(1, 0, 2), (0, 2, 1)])
        cycle = PermutationAut(ctx.table, (2, 0, 1))
        assert ctx.conjugate_key(cycle, (1, 2, -1)) == (2, -1, 1)
        assert ctx.conjugate_key(ctx.group.element_of((2, 0, 1)), (1, 2, -1)) == (2, -1, 1)
        mu = MonoidElement(ctx, (1, 1, 0))
        stab = stabilizer(ctx.group, mu)
        assert len(stab) == 2
        assert all(conjugate(h, mu) == mu for h in stab)
        assert conjugate(list(stab)[1], MonoidElement(ctx, (3, 0, 1))).vector == (0, 3, 1)
        # a foreign permutation moving an acted variable onto a fixed one
        partial = build_shift_algebra(3, 2)
        with pytest.raises(NormalizationViolationError, match="outside the lattice"):
            partial.conjugate_key(PermutationAut(partial.table, (2, 1, 0)), (1, 0))

    def test_keys_stay_put_without_coordinate_variables(self):
        # the swap of x and y commutes with the shift of z
        t = VariableTable(["x", "y", "z"])
        group = Group.from_generators(t, [(1, 0, 2)])
        ctx = Context(t, LATTICE, [ShiftAut(t, (0, 0, -1))], group=group)
        assert ctx.coord_vars is None
        assert ctx.conjugate_key(list(group)[1], (3,)) == (3,)

    def test_finite_group_keys_conjugate_by_the_group(self):
        # S_3 acting on its own keys: g_action is multiplicative, and a sum
        # over the group is invariant (that of theta1 alone is zero)
        W = symmetric_group_context(3).key_group
        ctx = Context(W.table, FINITE_GROUP, group=W, key_group=W)
        th1, th2 = (SkewElement(ctx, dict(th.coeffs)) for th in demazure_elements(3))
        for g in W:
            assert g_action(g, th1 * th2) == g_action(g, th1) * g_action(g, th2)
        u = SkewElement.scalar(ctx, ctx.table.var("x1")) * th1
        symmetrized = SkewElement.zero(ctx)
        for g in W:
            symmetrized = symmetrized + g_action(g, u)
        assert not is_invariant(u)
        assert not symmetrized.is_zero() and is_invariant(symmetrized)

    def test_finite_group_key_conjugated_out_of_its_group(self):
        t = VariableTable(["x1", "x2", "x3"])
        ctx = Context(t, FINITE_GROUP, key_group=Group.from_generators(t, [(1, 0, 2)]))
        with pytest.raises(NormalizationViolationError, match="left the key group"):
            ctx.conjugate_key(PermutationAut(t, (0, 2, 1)), (1, 0, 2))


def mixed_context():
    """A shift of u and a scaling of v: a commuting pair of different kinds."""
    t = VariableTable(["u", "v"])
    gens = [ShiftAut(t, [QQ(-1), QQ(0)]), ScalingAut(t, (QQ(1), QQ(3)), ((0, 0), (0, 0)))]
    return Context(t, LATTICE, gens)


def general_context():
    """h -> 2h + 1 next to a shift of k."""
    t = VariableTable(["h", "k"])
    h, one = t.var("h"), t.poly("1")
    gens = [
        GeneralAut(t, {0: h.scale(2) + one}, {0: (h - one).scale(QQ(1, 2))}),
        ShiftAut(t, [QQ(0), QQ(-1)]),
    ]
    return Context(t, LATTICE, gens)


def _act_by_iteration(ctx, key, f):
    for s, k in zip(ctx.generators, key):
        step = s if k > 0 else s.inverse()
        for _ in range(abs(k)):
            f = step.apply(f)
    return f


class TestLatticeAction:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_shift_algebra(2, 2),
            lambda: build_qshift_algebra(2, 2),
            mixed_context,
            general_context,
        ],
        ids=["shift", "qshift", "mixed", "general"],
    )
    def test_act_key_equals_iterated_generators(self, build):
        ctx = build()
        rng = random.Random(41)
        for _ in range(12):
            key = tuple(rng.randint(-2, 2) for _ in range(ctx.rank))
            f = _rand_rf(rng, ctx)
            assert ctx.act_key(key, f) == _act_by_iteration(ctx, key, f)

    def test_each_key_is_built_once(self, monkeypatch):
        ctx = build_shift_algebra(2, 2)
        built = []
        init = ShiftAut.__init__

        def counted(self, table, offsets):
            built.append(offsets)
            init(self, table, offsets)

        monkeypatch.setattr(ShiftAut, "__init__", counted)
        x1 = ctx.table.var("x1")
        for i in range(50):
            ctx.act_key((1, -2) if i % 2 else (2, 1), x1)
        assert len(built) <= 2 * ctx.rank

    def test_noncommuting_generators_rejected(self):
        t = VariableTable(["x"])
        x = t.var("x")
        gens = (ShiftAut(t, [QQ(-1)]), ScalingAut(t, (QQ(2),), ((0,),)))
        with pytest.raises(PreconditionError, match="must commute"):
            Context(t, LATTICE, gens)
        with pytest.raises(PreconditionError, match="must commute"):
            GWASpec(t, gens, (x, x))
        assert mixed_context().rank == 2

    def test_commutation_maps_each_generator_image_once(self, monkeypatch):
        # 6 generators on 10 variables: 60 images x_k -> s(x_k), then two
        # images per pair and variable, 2 * 15 * 10
        gens = gt_embedding(4).context.generators
        maps = _counted_maps(monkeypatch)
        Context(gens[0].table, LATTICE, gens)
        assert 0 < len(maps) <= 360


def _counted_applies(monkeypatch, *classes):
    """Record every (automorphism, argument) pair that ``apply`` of the given
    classes sees; the list keeps the arguments alive, so identities stay
    distinct."""
    seen = []
    for cls in classes:
        def counted(self, f, orig=cls.apply):
            seen.append((self, f))
            return orig(self, f)

        monkeypatch.setattr(cls, "apply", counted)
    return seen


def _counted_maps(monkeypatch):
    """Record the argument of every ``RatFunc.map`` call."""
    seen = []

    def counted(self, image, orig=RatFunc.map):
        seen.append(self)
        return orig(self, image)

    monkeypatch.setattr(RatFunc, "map", counted)
    return seen


class TestImageMemo:
    @pytest.mark.parametrize("build, keys", [
        (lambda: build_shift_algebra(2, 2), [(1, 0), (0, -1), (2, 1), (-1, 3)]),
        (lambda: symmetric_group_context(3), [(1, 0, 2), (2, 0, 1), (0, 1, 2)]),
    ], ids=["lattice", "nilhecke"])
    def test_each_automorphism_maps_a_coefficient_once(self, monkeypatch, build, keys):
        ctx = build()
        rng = random.Random(7)
        fs = [_rand_rf(rng, ctx) for _ in range(3)]
        want = {(key, i): ctx.act_key(key, f) for key in keys for i, f in enumerate(fs)}
        ctx = build()
        seen = _counted_applies(monkeypatch, ShiftAut, PermutationAut, _ChainAut)
        got = {(key, i): ctx.act_key(key, f) for key in keys for i, f in enumerate(fs)}
        first_round = len(seen)
        for _ in range(3):
            for key in keys:
                for i, f in enumerate(fs):
                    assert ctx.act_key(key, f) is got[key, i]
        assert len(seen) == first_round
        assert got == want
        # no automorphism was ever applied twice to one object
        assert len({(id(a), id(f)) for a, f in seen}) == len(seen)

    def test_one_coefficient_in_two_contexts_gets_each_image(self):
        t = VariableTable(["x"])
        by_one = Context(t, LATTICE, [ShiftAut(t, [QQ(-1)])])
        by_two = Context(t, LATTICE, [ShiftAut(t, [QQ(-2)])])
        x = t.var("x")
        for _ in range(2):
            assert by_one.act_key((1,), x) == t.poly("x - 1")
            assert by_two.act_key((1,), x) == t.poly("x - 2")
            assert by_two.act_key((-1,), x) == t.poly("x + 2")

    def test_identity_key_returns_the_coefficient_itself(self):
        ctx = build_shift_algebra(2, 2)
        f = _rand_rf(random.Random(3), ctx)
        assert ctx.act_key((0, 0), f) is f
        ctx.act_key((1, 0), f)
        assert ctx.act_key((0, 0), f) is f


def _rand_rf(rng, ctx):
    nv = ctx.table.nvars
    num = {}
    for _ in range(3):
        e = [0] * nv
        for _ in range(rng.randint(0, 2)):
            e[rng.randrange(nv)] += 1
        num[tuple(e)] = num.get(tuple(e), 0) + rng.randint(-4, 4)
    den = {}
    e = [0] * nv
    e[rng.randrange(nv)] = 1
    den[tuple(e)] = 1
    den[(0,) * nv] = rng.randint(1, 3)
    return RatFunc(Polynomial(nv, num), Polynomial(nv, den))
