import json
import random

import pytest

from skewmon.arith import Polynomial, QQ, RatFunc, poly_to_text
from skewmon.actions import MonoidElement, ScalingAut, ShiftAut, VariableTable
from skewmon.errors import PreconditionError, ResourceCapError, UnsupportedModeError
from skewmon.skewring import SkewElement, commutator, is_invariant, kpart
from skewmon.cli import run_scenario
from skewmon.constructors import (
    AlgebraSpec,
    GWASpec,
    _gwa_relations,
    build_qshift_algebra,
    build_shift_algebra,
    demazure_elements,
    gt_embedding,
    gwa_embed,
    hecke_membership_check,
    symmetric_group_context,
    verify_gwa,
    witten_woronowicz_spec,
)


class TestShiftAlgebras:
    def test_s11(self):
        ctx = build_shift_algebra(1, 1)
        x = ctx.table.var("x1")
        assert MonoidElement(ctx, (1,)).act(x) == x - ctx.table.poly("1")

    def test_commutative_trivial_monoid(self):
        ctx = build_shift_algebra(2, 0)
        assert ctx.rank == 0
        u = SkewElement.scalar(ctx, ctx.table.var("x1"))
        v = SkewElement.scalar(ctx, ctx.table.var("x2"))
        assert commutator(u, v).is_zero()

    def test_fixed_block(self):
        ctx = build_shift_algebra(3, 2)
        x3 = ctx.table.var("x3")
        assert MonoidElement(ctx, (1, 0)).act(x3) == x3

    def test_bad_rank(self):
        with pytest.raises(PreconditionError):
            build_shift_algebra(2, 3)

    def test_qshift(self):
        ctx = build_qshift_algebra(2, 1)
        x1, x2, q = ctx.table.var("x1"), ctx.table.var("x2"), ctx.table.var("q")
        e1 = MonoidElement(ctx, (1,))
        assert e1.act(x1) == q * x1
        assert e1.act(x2) == x2
        from skewmon.actions import inverse

        assert inverse(e1).act(x1) == x1 / q


class TestGWA:
    def weyl_like(self):
        t = VariableTable(["h"])
        return GWASpec(t, (ShiftAut(t, [QQ(-1)]),), (Polynomial.variable(1, 0),))

    def test_weyl_like_relations(self):
        rep = verify_gwa(self.weyl_like())
        assert rep.passed, rep.failures()

    def test_weyl_like_bracket(self):
        alg = gwa_embed(self.weyl_like())
        xp, xm = alg.generator("X1+"), alg.generator("X1-")
        bracket = xp * xm - xm * xp
        assert bracket == SkewElement.scalar(alg.context, RatFunc.const(1, -1))

    def test_degenerate_identity_sigma(self):
        t = VariableTable(["h"])
        spec = GWASpec(t, (ShiftAut(t, [QQ(0)]),), (Polynomial.const(1, 1),))
        alg = gwa_embed(spec)
        xp, xm = alg.generator("X1+"), alg.generator("X1-")
        one = SkewElement.scalar(alg.context, RatFunc.const(1, 1))
        assert xp * xm == one  # note: X+X- lands at the identity key
        assert xm * xp == one

    def test_rank2_disjoint_shifts(self):
        t = VariableTable(["u", "v"])
        spec = GWASpec(
            t,
            (ShiftAut(t, [QQ(-1), QQ(0)]), ShiftAut(t, [QQ(0), QQ(-1)])),
            (Polynomial.variable(2, 0), Polynomial.variable(2, 1)),
        )
        rep = verify_gwa(spec)
        assert rep.passed, rep.failures()

    def test_cross_invariance_rejected(self):
        t = VariableTable(["u", "v"])
        with pytest.raises(PreconditionError):
            GWASpec(
                t,
                (ShiftAut(t, [QQ(-1), QQ(0)]), ShiftAut(t, [QQ(0), QQ(-1)])),
                (Polynomial.variable(2, 1), Polynomial.variable(2, 0)),
            )

    def test_zero_a_rejected(self):
        t = VariableTable(["h"])
        with pytest.raises(PreconditionError):
            GWASpec(t, (ShiftAut(t, [QQ(-1)]),), (Polynomial.zero(1),))

    def test_witten_woronowicz(self):
        rep = verify_gwa(witten_woronowicz_spec())
        assert rep.passed, rep.failures()

    def test_witten_woronowicz_data(self):
        spec = witten_woronowicz_spec()
        names = spec.table.names
        s = spec.sigma[0]
        H = RatFunc.variable(3, 0)
        Z = RatFunc.variable(3, 1)
        sv = RatFunc.variable(3, 2)
        assert s.apply(H) == sv**4 * H
        assert s.apply(Z) == sv**2 * Z
        # a = Z + alpha H + beta with alpha = -1/(s - s^3), beta = s/(1 - s^4)
        alpha = (sv - sv**3).invert().scale(-1)
        beta = sv / (RatFunc.const(3, 1) - sv**4)
        assert spec.a[0] == Z + alpha * H + beta

    def test_random_shift_specs(self):
        rng = random.Random(77)
        for _ in range(6):
            t = VariableTable(["u", "v"])
            off1 = QQ(rng.randint(-3, -1))
            off2 = QQ(rng.randint(-3, -1))
            a1 = Polynomial(2, {(rng.randint(0, 2), 0): rng.randint(1, 3), (0, 0): rng.randint(0, 4)})
            a2 = Polynomial(2, {(0, rng.randint(0, 2)): rng.randint(1, 3), (0, 0): rng.randint(0, 4)})
            if a1.is_zero() or a2.is_zero():
                continue
            spec = GWASpec(
                t,
                (ShiftAut(t, [off1, QQ(0)]), ShiftAut(t, [QQ(0), off2])),
                (a1, a2),
            )
            rep = verify_gwa(spec)
            assert rep.passed, rep.failures()

    def test_gamma_generators(self):
        alg = gwa_embed(self.weyl_like())
        assert alg.gamma_generators == [RatFunc.variable(1, 0)]

    def test_rational_scaling_sigma(self):
        # sigma(h) = 2h: a scaling twist with a plain rational multiplier
        t = VariableTable(["h"])
        h = Polynomial.variable(1, 0)
        sigma = ScalingAut(t, (QQ(2),), ((0,),))
        spec = GWASpec(t, (sigma,), (h * h + Polynomial.const(1, 1),))
        rep = verify_gwa(spec)
        assert rep.passed, rep.failures()
        alg = gwa_embed(spec)
        xp, xm = alg.generator("X1+"), alg.generator("X1-")
        assert xp * xm == SkewElement.scalar(
            alg.context, (h * h).scale(4) + Polynomial.const(1, 1)
        )

    def test_general_aut_sigma(self):
        # sigma(h) = 2h + 1 with a certified inverse: exercises the general
        # substitution path through the lattice action
        from skewmon.actions import GeneralAut

        t = VariableTable(["h"])
        h = t.var("h")
        one = t.poly("1")
        sigma = GeneralAut(
            t,
            {0: h.scale(2) + one},
            {0: (h - one).scale(QQ(1, 2))},
        )
        spec = GWASpec(t, (sigma,), (Polynomial.variable(1, 0),))
        rep = verify_gwa(spec)
        assert rep.passed, rep.failures()

    def test_mixed_kind_rank2(self):
        # one shift twist, one scaling twist, acting on disjoint variables
        t = VariableTable(["u", "v"])
        sig1 = ShiftAut(t, [QQ(-1), QQ(0)])
        sig2 = ScalingAut(t, (QQ(1), QQ(3)), ((0, 0), (0, 0)))
        spec = GWASpec(
            t,
            (sig1, sig2),
            (Polynomial.variable(2, 0), Polynomial.variable(2, 1)),
        )
        rep = verify_gwa(spec)
        assert rep.passed, rep.failures()
        # per sigma_i: the base-variable pairs, then a_i and sigma_i(a_i); then
        # the commutators, with ++ and -- only for i < j
        assert [c.name for c in rep.checks] == [
            "X1+ u = sigma_1(u) X1+", "X1- u = sigma_1^-1(u) X1-",
            "X1+ v = sigma_1(v) X1+", "X1- v = sigma_1^-1(v) X1-",
            "X1- X1+ = a_1", "X1+ X1- = sigma_1(a_1)",
            "X2+ u = sigma_2(u) X2+", "X2- u = sigma_2^-1(u) X2-",
            "X2+ v = sigma_2(v) X2+", "X2- v = sigma_2^-1(v) X2-",
            "X2- X2+ = a_2", "X2+ X2- = sigma_2(a_2)",
            "[X1+, X2+] = 0", "[X1-, X2-] = 0", "[X1+, X2-] = 0", "[X2+, X1-] = 0",
        ]

    def test_relation_table_is_plain_json_and_runs_inline(self):
        spec = witten_woronowicz_spec()
        alg = gwa_embed(spec)
        assert alg.relations == _gwa_relations(spec, alg.context)
        table = json.loads(json.dumps(alg.relations))
        scenario = {"algebra": {"kind": "gwa", "preset": "witten-woronowicz"},
                    "jobs": [{"op": "verify_gwa"},
                             {"op": "verify_relations", "relations": table}]}
        built_in, inline = run_scenario(scenario)["jobs"]
        assert [(c["name"], c["status"]) for c in inline["checks"]] == [
            (c["name"], c["status"]) for c in built_in["checks"]
        ]
        assert len(inline["checks"]) == 6 and inline["status"] == "pass"


class TestGT:
    def test_rank1(self):
        alg = gt_embedding(1)
        assert set(alg.generators) == {"E11"}
        e11 = alg.generators["E11"]
        assert set(e11.coeffs) == {()}
        assert kpart(e11) == alg.context.table.var("x11")

    def test_n2_commutator_forces_constants(self):
        alg = gt_embedding(2)
        E = alg.generators
        lhs = commutator(E["E12"], E["E21"])
        assert lhs == E["E11"] - E["E22"]

    def test_generators_invariant(self):
        for n in (2, 3):
            alg = gt_embedding(n)
            for name, u in alg.generators.items():
                assert is_invariant(u), name

    def test_gamma_row_power_sums(self):
        alg = gt_embedding(3)
        assert len(alg.gamma_generators) == 6
        names = alg.context.table.names
        texts = {poly_to_text(g.num, names) for g in alg.gamma_generators}
        assert "1*x11" in texts
        assert "1*x21 + 1*x22" in texts
        assert "1*x21^2 + 1*x22^2" in texts

    def test_variable_layout(self):
        alg = gt_embedding(3)
        t = alg.context.table
        assert t.names == ("x11", "x21", "x22", "x31", "x32", "x33")
        assert t.n_acted == 3 and t.n_fixed == 3
        assert len(alg.context.group) == 12  # S_1 x S_2 x S_3

    def test_group_cap(self):
        with pytest.raises(ResourceCapError):
            gt_embedding(3, group_cap=5)

    def test_row_group_generator_order(self):
        # the order of the generators fixes the group enumeration order
        assert gt_embedding(4).context.group.gen_perms == (
            (0, 2, 1, 3, 4, 5, 6, 7, 8, 9),
            (0, 1, 2, 4, 3, 5, 6, 7, 8, 9),
            (0, 1, 2, 3, 5, 4, 6, 7, 8, 9),
            (0, 1, 2, 3, 4, 5, 7, 6, 8, 9),
            (0, 1, 2, 3, 4, 5, 6, 8, 7, 9),
            (0, 1, 2, 3, 4, 5, 6, 7, 9, 8),
        )


class TestDemazure:
    def test_theta1_form(self):
        th = demazure_elements(2)
        assert len(th) == 1
        text = th[0].to_text()
        assert text == "(-1)/(1*x1 + -1*x2) ⊗ [0,1] + (1)/(1*x1 + -1*x2) ⊗ [1,0]"

    def test_group_cap(self):
        with pytest.raises(ResourceCapError):
            demazure_elements(4, group_cap=5)  # |S_4| = 24

    def test_key_group_enumeration_order(self):
        assert symmetric_group_context(4).key_group.perms == (
            (0, 1, 2, 3), (1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (1, 2, 0, 3),
            (1, 0, 3, 2), (2, 0, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (2, 1, 0, 3),
            (1, 2, 3, 0), (1, 3, 0, 2), (2, 0, 3, 1), (0, 3, 2, 1), (3, 0, 1, 2),
            (2, 1, 3, 0), (1, 3, 2, 0), (3, 1, 0, 2), (2, 3, 0, 1), (3, 0, 2, 1),
            (2, 3, 1, 0), (3, 1, 2, 0), (3, 2, 0, 1), (3, 2, 1, 0),
        )

    def test_theta_keys(self):
        assert [list(th.coeffs) for th in demazure_elements(4)] == [
            [(1, 0, 2, 3), (0, 1, 2, 3)],
            [(0, 2, 1, 3), (0, 1, 2, 3)],
            [(0, 1, 3, 2), (0, 1, 2, 3)],
        ]

    def test_square_zero(self):
        for n in (2, 3, 4):
            for th in demazure_elements(n):
                assert (th * th).is_zero()

    def test_braid_and_commuting(self):
        th = demazure_elements(4)
        for i in range(2):
            assert th[i] * th[i + 1] * th[i] == th[i + 1] * th[i] * th[i + 1]
        assert commutator(th[0], th[2]).is_zero()

    def test_divided_difference_coefficient(self):
        # [theta_1, f] = ((s_1(f) - f)/alpha) s_1: a polynomial coefficient
        rng = random.Random(5)
        th = demazure_elements(3)[0]
        ctx = th.context
        nv = 3
        alpha = Polynomial.variable(nv, 0) - Polynomial.variable(nv, 1)
        s1 = (1, 0, 2)
        for _ in range(8):
            f = Polynomial(nv, {
                tuple(rng.randint(0, 2) for _ in range(nv)): rng.randint(-3, 3)
                for _ in range(3)
            })
            u = SkewElement.scalar(ctx, f)
            bracket = commutator(th, u)
            coeff = bracket.coefficient(s1)
            assert coeff.is_polynomial()
            sf = f.permute_vars(s1)
            expected = (sf - f).divide_exact(alpha)
            assert expected is not None
            assert coeff == RatFunc.from_poly(expected)
            assert bracket.coefficient(ctx.key_identity()).is_zero()

    def test_symmetric_function_commutes(self):
        th = demazure_elements(2)[0]
        ctx = th.context
        sym = ctx.table.var("x1") + ctx.table.var("x2")
        assert commutator(th, SkewElement.scalar(ctx, sym)).is_zero()


class TestHeckeCheck:
    def test_theta_passes_degenerate(self):
        th = demazure_elements(2)[0]
        report = hecke_membership_check(th)
        assert report.passed, report.failures()

    def test_broken_element_fails_condition3(self):
        ctx = symmetric_group_context(2)
        alpha = Polynomial.variable(2, 0) - Polynomial.variable(2, 1)
        broken = SkewElement(ctx, {(1, 0): RatFunc.from_poly(alpha).invert()})
        report = hecke_membership_check(broken)
        assert not report.passed
        assert any("cond3" in c.name for c in report.failures())

    def test_constant_passes_vacuously(self):
        ctx = symmetric_group_context(3)
        report = hecke_membership_check(SkewElement.one(ctx))
        assert report.passed

    def test_higher_order_pole_is_condition1_failure(self):
        ctx = symmetric_group_context(2)
        alpha = Polynomial.variable(2, 0) - Polynomial.variable(2, 1)
        bad = SkewElement(ctx, {(1, 0): RatFunc.from_poly(alpha * alpha).invert()})
        report = hecke_membership_check(bad)
        assert not report.passed
        names = [c.name for c in report.failures()]
        assert any("cond1" in n and "pole order" in n for n in names)

    def test_off_root_pole_fails_condition1(self):
        ctx = symmetric_group_context(2)
        x1 = Polynomial.variable(2, 0)
        bad = SkewElement(ctx, {(0, 1): RatFunc.from_poly(x1).invert()})
        report = hecke_membership_check(bad)
        assert any("root hyperplanes" in c.name for c in report.failures())

    def test_off_root_pole_residual_is_canonical_text(self):
        ctx = symmetric_group_context(3)
        x1, x2 = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
        bad = SkewElement(ctx, {(0, 1, 2): RatFunc.from_poly(x1 + x2).invert()})
        [failure] = hecke_membership_check(bad).failures()
        assert failure.name == "cond1: poles of f_(1 2 3) lie on root hyperplanes"
        assert failure.residual == "leftover denominator 1*x1 + 1*x2"

    def test_q_mode_vanishing(self):
        # f_{s_alpha} supported on alpha = 1 must vanish there in q mode:
        # take f_w = alpha - 1 poles nowhere, w^{-1}(alpha) negative for w = s
        ctx = symmetric_group_context(2)
        alpha = Polynomial.variable(2, 0) - Polynomial.variable(2, 1)
        one = Polynomial.const(2, 1)
        ok_elem = SkewElement(ctx, {(1, 0): RatFunc.from_poly(alpha - one)})
        report = hecke_membership_check(ok_elem, mode="q", vanishing_value=1)
        assert report.passed, report.failures()
        bad_elem = SkewElement(ctx, {(1, 0): RatFunc.from_poly(alpha + one)})
        report2 = hecke_membership_check(bad_elem, mode="q", vanishing_value=1)
        assert any("cond4" in c.name for c in report2.failures())

    @pytest.mark.parametrize("shifted, status, residual", [
        (False, "fail", "1"), (True, "pass", None)], ids=["fails", "vanishes"])
    def test_q_mode_restricts_a_double_pole(
            self, shifted, status, residual):
        # cond4 restricts f_(2 1) to x1-x2 = 1, where a double pole along
        # x1-x2 = 0 is regular: 1/(x1-x2)^2 is 1 there, (x1-x2-1)/(x1-x2)^2 is 0
        ctx = symmetric_group_context(2)
        x1 = Polynomial.variable(2, 0)
        alpha = x1 - Polynomial.variable(2, 1)
        num = alpha - Polynomial.const(2, 1) if shifted else Polynomial.const(2, 1)
        elem = SkewElement(ctx, {(1, 0): RatFunc(num, alpha * alpha),
                                 (0, 1): RatFunc.from_poly(x1)})
        report = hecke_membership_check(elem, mode="q", vanishing_value=1)
        cond4 = [c for c in report.checks if c.name.startswith("cond4")]
        assert [(c.name, c.status, c.residual) for c in cond4] == [
            ("cond4: f_(2 1) vanishes on x1-x2 = 1", status, residual),
        ]

    @pytest.mark.parametrize("mode", ["degenerate", "q"])
    def test_every_check_of_a_double_pole_is_pinned(self, mode):
        # f_(2 1 3) = 1/(x1-x2)^2 and f_(1 2 3) = x1: every name, status and
        # residual, the failure paths of conditions 1, 3 and 4 included
        ctx = symmetric_group_context(3)
        x1 = Polynomial.variable(3, 0)
        alpha = x1 - Polynomial.variable(3, 1)
        elem = SkewElement(ctx, {(1, 0, 2): RatFunc.from_poly(alpha * alpha).invert(),
                                 (0, 1, 2): RatFunc.from_poly(x1)})
        kwargs = {"mode": "q", "vanishing_value": 1} if mode == "q" else {}
        report = hecke_membership_check(elem, **kwargs)
        cond4 = [("cond4: f_(2 1 3) vanishes on x1-x2 = 1", "fail", "1")] if mode == "q" else []
        assert [(c.name, c.status, c.residual) for c in report.checks] == [
            ("cond1: poles of f_(1 2 3) lie on root hyperplanes", "pass", None),
            ("cond1: poles of f_(2 1 3) lie on root hyperplanes", "pass", None),
            ("cond1: pole order of f_(1 2 3) along x1-x2 <= 1", "pass", None),
            ("cond1: pole order of f_(2 1 3) along x1-x2 <= 1", "fail", "pole order 2"),
            ("cond3: residues along x1-x2 for (1 2 3),(2 1 3)", "fail",
             "higher-order pole; residue undefined"),
        ] + cond4 + [
            ("cond1: pole order of f_(1 2 3) along x1-x3 <= 1", "pass", None),
            ("cond1: pole order of f_(2 1 3) along x1-x3 <= 1", "pass", None),
            ("cond3: Res f_(1 2 3) + Res f_(3 2 1) = 0 along x1-x3", "pass", None),
            ("cond3: Res f_(2 1 3) + Res f_(2 3 1) = 0 along x1-x3", "pass", None),
            ("cond1: pole order of f_(1 2 3) along x2-x3 <= 1", "pass", None),
            ("cond1: pole order of f_(2 1 3) along x2-x3 <= 1", "pass", None),
            ("cond3: Res f_(1 2 3) + Res f_(1 3 2) = 0 along x2-x3", "pass", None),
            ("cond3: Res f_(2 1 3) + Res f_(3 1 2) = 0 along x2-x3", "pass", None),
        ]

    def test_q_mode_pole_on_the_shifted_hyperplane_fails_condition4(self):
        # 1/(x1 - x2 - 1) has its pole on x1-x2 = 1, where condition 4 restricts
        ctx = symmetric_group_context(2)
        alpha = Polynomial.variable(2, 0) - Polynomial.variable(2, 1)
        elem = SkewElement(ctx, {(1, 0): RatFunc.from_poly(alpha - Polynomial.const(2, 1))
                                 .invert()})
        report = hecke_membership_check(elem, mode="q", vanishing_value=1)
        assert [(c.name, c.residual) for c in report.failures()] == [
            ("cond1: poles of f_(2 1) lie on root hyperplanes",
             "leftover denominator 1*x1 + -1*x2 + -1"),
            ("cond4: f_(2 1) vanishes on x1-x2 = 1", "pole on x1-x2 = 1"),
        ]

    def test_q_mode_requires_level(self):
        th = demazure_elements(2)[0]
        with pytest.raises(PreconditionError):
            hecke_membership_check(th, mode="q")

    def test_lattice_context_rejected(self):
        ctx = build_shift_algebra(2, 2)
        with pytest.raises(UnsupportedModeError):
            hecke_membership_check(SkewElement.one(ctx))


class TestRelationTables:
    def test_each_builder_fills_the_table_of_its_algebra(self):
        from skewmon.actions import DEFAULT_GROUP_CAP
        from skewmon.analysis import gl_relation_set, theta_relation_set
        from skewmon.cli import _nilhecke

        assert gt_embedding(3).relations == gl_relation_set(3)
        assert _nilhecke(4, DEFAULT_GROUP_CAP).relations == theta_relation_set(4)
        assert AlgebraSpec(build_shift_algebra(2, 2), {}, []).relations == ()
        spec = witten_woronowicz_spec()
        assert [r["name"] for r in gwa_embed(spec).relations] == [
            c.name for c in verify_gwa(spec).checks]

    @pytest.mark.parametrize("builder, build", [
        ("gl_relation_set", lambda: gt_embedding(4)),
        ("_gwa_relations", lambda: gwa_embed(witten_woronowicz_spec())),
    ], ids=["gt", "gwa"])
    def test_each_table_is_built_on_first_read(self, monkeypatch, builder, build):
        import skewmon.constructors as constructors

        built = []
        orig = getattr(constructors, builder)

        def counted(*args):
            built.append(args)
            return orig(*args)

        monkeypatch.setattr(constructors, builder, counted)
        alg = build()
        assert built == []
        assert alg.relations is alg.relations
        assert len(built) == 1
