"""Builders for the named operator algebras and embeddings.

* shift / q-shift operator algebras: the rational function field in n
  variables with Z^m acting on the first m variables by unit shifts
  (x_i -> x_i - 1) or by q-scalings (x_i -> q x_i, q a symbolic parameter).
* generalized Weyl algebras D(a, sigma), embedded into Frac(D) * Z^r by
  X_i^+ -> 1 * sigma_i and X_i^- -> a_i * sigma_i^{-1}.
* the rational raising/lowering realization of the gl_n generators on
  triangular tableau variables, with the row-permutation group attached.
* divided-difference (nilHecke) elements theta_i = (x_i - x_{i+1})^{-1}(s_i - 1)
  over finite-group keys, and the pole/residue membership conditions for
  Hecke-type subalgebras in additive type-A coordinates.
"""

from .arith import (
    QQ,
    Polynomial,
    RatFunc,
    _strip,
    pole_order,
    poly_to_text,
    ratfunc_to_text,
    residue_along,
    restrict_to_hyperplane,
)
from .actions import (
    DEFAULT_GROUP_CAP,
    FINITE_GROUP,
    LATTICE,
    Context,
    Group,
    ScalingAut,
    ShiftAut,
    VariableTable,
)
from .analysis import comm, gen, prod, sum_of, verify_relations
from .errors import PreconditionError, UnsupportedModeError
from .reports import Report
from .skewring import SkewElement


class AlgebraSpec:
    """A context plus named generators and the commutative-subring generators."""

    __slots__ = ("context", "generators", "gamma_generators")

    def __init__(self, context, generators, gamma_generators):
        for name, u in generators.items():
            if u.context is not context:
                raise PreconditionError(f"generator {name} built over a foreign context")
        for gamma in gamma_generators:
            for g in context.group.generator_elements():
                if g.apply(gamma) != gamma:
                    raise PreconditionError("gamma generator is not G-invariant")
        self.context = context
        self.generators = generators
        self.gamma_generators = gamma_generators

    def generator(self, name):
        return self.generators[name]


def _swap(n, i, j):
    """The transposition of i and j in one-line notation on range(n)."""
    perm = list(range(n))
    perm[i], perm[j] = j, i
    return tuple(perm)


def _unit(n, i, value=1):
    """The lattice vector of length n with ``value`` at i and 0 elsewhere."""
    return tuple(value if c == i else 0 for c in range(n))


def _unit_shifts(table, m):
    """The shifts x_c -> x_c - 1 of the first m variables, in order."""
    return [ShiftAut(table, _unit(table.nvars, c, -1)) for c in range(m)]


# ---------------------------------------------------------------------------
# Shift and q-shift operator algebras
# ---------------------------------------------------------------------------


def build_shift_algebra(n, m, group_generators=None, group_cap=DEFAULT_GROUP_CAP):
    """k(x_1..x_n) * Z^m with epsilon_i(x_j) = x_j - delta_ij on the first m.

    ``group_generators`` optionally attaches a finite permutation group G
    (one-line notation over the n variables, 0-indexed).
    """
    table, group = _shift_table(n, m, (), group_generators, group_cap)
    gens = _unit_shifts(table, m)
    return Context(table, LATTICE, gens, group=group, coord_vars=range(m))


def build_qshift_algebra(n, m, group_generators=None, group_cap=DEFAULT_GROUP_CAP):
    """k(x_1..x_n) * Z^m with epsilon_i(x_j) = q^{delta_ij} x_j, q symbolic.

    The deformation parameter q is a genuine variable of the coefficient
    field, hence transcendental and in particular not a root of unity.
    """
    table, group = _shift_table(n, m, ("q",), group_generators, group_cap)
    nv = table.nvars
    gens = [  # x_i picks up one power of q, the variable at index n
        ScalingAut(table, (QQ(1),) * nv,
                   tuple(_unit(nv, n) if j == i else (0,) * nv for j in range(nv)))
        for i in range(m)
    ]
    return Context(table, LATTICE, gens, group=group, coord_vars=range(m))


def _shift_table(n, m, params, group_generators, group_cap):
    if not 0 <= m <= n:
        raise PreconditionError(f"need 0 <= m <= n, got n={n}, m={m}")
    names = [f"x{i}" for i in range(1, n + 1)]
    table = VariableTable(names[:m], names[m:], params)
    padded = [tuple(g) + tuple(range(n, table.nvars)) for g in group_generators or ()]
    return table, Group.from_generators(table, padded, cap=group_cap)


# ---------------------------------------------------------------------------
# Generalized Weyl algebras
# ---------------------------------------------------------------------------


class GWASpec:
    """Data (D, a, sigma) for a generalized Weyl algebra of finite rank.

    The base ring D is a polynomial ring in the table's acted variables over
    the parameter field.  Construction verifies, symbolically:

    * the sigma_i commute pairwise,
    * sigma_i(a_j) = a_j for i != j,
    * every a_i is nonzero and polynomial in the base variables.
    """

    def __init__(self, table, sigma, a):
        sigma = tuple(sigma)
        a = tuple(x if isinstance(x, RatFunc) else RatFunc.from_poly(x) for x in a)
        if len(sigma) != len(a):
            raise PreconditionError("need one a_i per automorphism")
        self.context = Context(table, LATTICE, sigma)  # checks that the sigma_i commute
        param_ok = set(table.param_indices())
        for i, x in enumerate(a):
            if x.is_zero():
                raise PreconditionError(f"a_{i + 1} is zero")
            if not x.den.variables_present() <= param_ok:
                raise PreconditionError(f"a_{i + 1} is not polynomial in the base variables")
            for j, s in enumerate(sigma):
                if j != i and s.apply(x) != x:
                    raise PreconditionError(f"sigma_{j + 1}(a_{i + 1}) != a_{i + 1}")
        self.table = table
        self.sigma = sigma
        self.a = a

    @property
    def rank(self):
        return len(self.sigma)


def gwa_embed(spec):
    """Embed the GWA into Frac(D) * Z^r: X_i^+ -> 1*e_i, X_i^- -> a_i*e_i^{-1}."""
    ctx = spec.context
    rank = spec.rank
    gens = {}
    for i in range(rank):
        gens[f"X{i + 1}+"] = SkewElement.generator(ctx, _unit(rank, i))
        gens[f"X{i + 1}-"] = SkewElement.generator(ctx, _unit(rank, i, -1), spec.a[i])
    gamma = [
        RatFunc.variable(spec.table.nvars, i)
        for i in range(spec.table.n_acted + spec.table.n_fixed)
    ]
    return AlgebraSpec(ctx, gens, gamma)


def _gwa_relations(spec, ctx):
    """The defining relations of the GWA as a relation table for
    ``verify_relations`` over ``ctx``, the context of ``gwa_embed(spec)``.

    Each expression is lhs - rhs.  A computed coefficient (a base variable,
    its images under sigma_i and sigma_i^-1, a_i and sigma_i(a_i)) is a
    ``{"terms": ...}`` literal, so the table is plain JSON.
    """
    table = ctx.table
    base = [(table.names[v], RatFunc.variable(table.nvars, v))
            for v in range(table.n_acted + table.n_fixed)]

    def lit(r):
        return SkewElement.scalar(ctx, r).to_json()

    rels = []
    for i, (s, a) in enumerate(zip(spec.sigma, spec.a), start=1):
        xp, xm, s_inv = gen(f"X{i}+"), gen(f"X{i}-"), s.inverse()
        for name, d in base:
            rels.append((f"X{i}+ {name} = sigma_{i}({name}) X{i}+",
                         sum_of(prod(xp, lit(d)), prod(lit(-s.apply(d)), xp))))
            rels.append((f"X{i}- {name} = sigma_{i}^-1({name}) X{i}-",
                         sum_of(prod(xm, lit(d)), prod(lit(-s_inv.apply(d)), xm))))
        rels.append((f"X{i}- X{i}+ = a_{i}", sum_of(prod(xm, xp), lit(-a))))
        rels.append((f"X{i}+ X{i}- = sigma_{i}(a_{i})", sum_of(prod(xp, xm), lit(-s.apply(a)))))
    for i in range(1, spec.rank + 1):
        for j in range(1, spec.rank + 1):
            if i != j:
                pairs = [("+", "+"), ("-", "-")] if i < j else []
                for si, sj in pairs + [("+", "-")]:
                    rels.append((f"[X{i}{si}, X{j}{sj}] = 0",
                                 comm(gen(f"X{i}{si}"), gen(f"X{j}{sj}"))))
    return [{"name": name, "expr": expr} for name, expr in rels]


def verify_gwa(spec):
    """Check every defining relation of the GWA against the embedding."""
    alg = gwa_embed(spec)
    return verify_relations(alg, _gwa_relations(spec, alg.context))


def witten_woronowicz_spec():
    """The rank-1 GWA with sigma(H) = s^4 H, sigma(Z) = s^2 Z and
    a = Z - (1 + s^2)/(s - s^5) * H + s^2/(s - s^5), s a symbolic parameter."""
    table = VariableTable(["H", "Z"], (), ("s",))
    nv = table.nvars
    sigma = ScalingAut(
        table,
        (QQ(1), QQ(1), QQ(1)),
        ((0, 0, 4), (0, 0, 2), (0, 0, 0)),
    )
    H = Polynomial.variable(nv, 0)
    Z = Polynomial.variable(nv, 1)
    s = Polynomial.variable(nv, 2)
    one = Polynomial.const(nv, 1)
    denom = s - s**5  # s(1-s^2)(1+s^2)
    # a = Z + alpha*H + beta, alpha = -1/(s(1-s^2)), beta = s/(1-s^4)
    num = denom * Z - (one + s**2) * H + s**2
    a = RatFunc(num, denom)
    return GWASpec(table, (sigma,), (a,))


# ---------------------------------------------------------------------------
# The rational realization of gl_n on triangular tableaux
# ---------------------------------------------------------------------------


def gt_embedding(n, group_cap=DEFAULT_GROUP_CAP):
    """Row-variable realization of the gl_n generators.

    Variables x_{ki} (1 <= i <= k <= n) in row-major order; the lattice
    Z^{n(n-1)/2} shifts the variables of rows 1..n-1 by -1; the group is the
    product of the row-wise symmetric groups.  Generator images::

        E_{k,k+1} -> -sum_i  prod_j (x_ki - x_{k+1,j}) / prod_{j!=i} (x_ki - x_kj) * d_ki
        E_{k+1,k} ->  sum_i  prod_j (x_ki - x_{k-1,j}) / prod_{j!=i} (x_ki - x_kj) * d_ki^{-1}
        E_{kk}   ->  (1-k) + sum_i x_ki - sum_i x_{k-1,i}

    with d_ki the unit lattice vector shifting x_ki.  The additive constants
    are pinned by the commutation relations (the full relation suite is the
    convention oracle).  The commutative subring generators are the row power
    sums, which are invariant under the row permutations.
    """
    if n < 1:
        raise PreconditionError("rank must be at least 1")
    acted = [f"x{k}{i}" for k in range(1, n) for i in range(1, k + 1)]
    fixed = [f"x{n}{i}" for i in range(1, n + 1)]
    table = VariableTable(acted, fixed)
    nv = table.nvars
    m = len(acted)

    def pos(k, i):  # index of x_{ki} (1-indexed): rows 1..k-1 hold k(k-1)/2 variables
        return k * (k - 1) // 2 + i - 1

    group_gens = [
        _swap(nv, pos(k, i), pos(k, i + 1)) for k in range(2, n + 1) for i in range(1, k)
    ]
    group = Group.from_generators(table, group_gens, cap=group_cap)
    ctx = Context(table, LATTICE, _unit_shifts(table, m), group=group, coord_vars=range(m))

    def x(k, i):
        return Polynomial.variable(nv, pos(k, i))

    gens = {}
    for k in range(1, n):
        up = SkewElement.zero(ctx)
        down = SkewElement.zero(ctx)
        for i in range(1, k + 1):
            # a product of inverses keeps the denominator factored
            inv_den = RatFunc.const(nv, 1)
            for j in range(1, k + 1):
                if j != i:
                    inv_den = inv_den / RatFunc.from_poly(x(k, i) - x(k, j))
            num_up = Polynomial.const(nv, -1)
            for j in range(1, k + 2):
                num_up = num_up * (x(k, i) - x(k + 1, j))
            up = up + SkewElement.generator(
                ctx, _unit(m, pos(k, i)), RatFunc.from_poly(num_up) * inv_den
            )
            num_down = Polynomial.const(nv, 1)
            for j in range(1, k):
                num_down = num_down * (x(k, i) - x(k - 1, j))
            down = down + SkewElement.generator(
                ctx, _unit(m, pos(k, i), -1), RatFunc.from_poly(num_down) * inv_den
            )
        gens[f"E{k}{k + 1}"] = up
        gens[f"E{k + 1}{k}"] = down
    for k in range(1, n + 1):
        diag = Polynomial.const(nv, 1 - k)
        for i in range(1, k + 1):
            diag = diag + x(k, i)
        for i in range(1, k):
            diag = diag - x(k - 1, i)
        gens[f"E{k}{k}"] = SkewElement.scalar(ctx, diag)

    gamma = []
    for k in range(1, n + 1):
        for s in range(1, k + 1):
            p = Polynomial.zero(nv)
            for i in range(1, k + 1):
                p = p + x(k, i) ** s
            gamma.append(RatFunc.from_poly(p))
    return AlgebraSpec(ctx, gens, gamma)


# ---------------------------------------------------------------------------
# Divided-difference elements over finite-group keys
# ---------------------------------------------------------------------------


def symmetric_group_context(n, group_cap=DEFAULT_GROUP_CAP):
    """L = k(x_1..x_n) with keys the symmetric group S_n permuting the variables."""
    if n < 2:
        raise PreconditionError("need at least two variables")
    table = VariableTable([f"x{i}" for i in range(1, n + 1)])
    gens = [_swap(n, i, i + 1) for i in range(n - 1)]
    key_group = Group.from_generators(table, gens, cap=group_cap)
    return Context(table, FINITE_GROUP, key_group=key_group)


def demazure_elements(n, group_cap=DEFAULT_GROUP_CAP):
    """theta_i = (x_i - x_{i+1})^{-1} (s_i - 1) for i = 1..n-1, as skew elements."""
    ctx = symmetric_group_context(n, group_cap=group_cap)
    nv = ctx.table.nvars
    out = []
    for i in range(n - 1):
        alpha = Polynomial.variable(nv, i) - Polynomial.variable(nv, i + 1)
        inv_alpha = RatFunc.from_poly(alpha).invert()
        out.append(
            SkewElement(ctx, {_swap(n, i, i + 1): inv_alpha, ctx.key_identity(): -inv_alpha})
        )
    return out


def hecke_membership_check(element, mode="degenerate", vanishing_value=None):
    """Pole, residue and vanishing conditions for Hecke-type membership.

    Works over finite-group keys in additive type-A coordinates.  For each
    positive root alpha = x_i - x_j (i < j) and each relevant w:

    * condition 1: f_w has at most a first-order pole along alpha = 0, and no
      pole anywhere off the root hyperplanes;
    * condition 3: Res(f_w) + Res(f_{s_alpha w}) = 0 along alpha = 0;
    * condition 4 (mode="q" only): f_w vanishes on alpha = vanishing_value
      whenever w^{-1}(alpha) is a negative root.

    Higher-order poles are reported as condition-1 failures, not raised.
    """
    ctx = element.context
    if ctx.mode != FINITE_GROUP:
        raise UnsupportedModeError("membership conditions need finite-group keys")
    n = ctx.table.nvars
    if n > 4:
        raise PreconditionError("membership check supports rank <= 3 (n <= 4)")
    if mode not in ("degenerate", "q"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if mode == "q" and vanishing_value is None:
        raise PreconditionError("q mode needs the vanishing level of the shifted divisor")
    roots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    hyperplanes = [Polynomial.variable(n, i) - Polynomial.variable(n, j) for i, j in roots]

    names = ctx.table.names
    report = Report(f"Hecke membership conditions ({mode})")
    support = sorted(element.coeffs)

    def perm_name(w):
        return "(" + " ".join(str(x + 1) for x in w) + ")"

    def zero_or_text(r):
        return None if r.is_zero() else ratfunc_to_text(r, names)

    # condition 1b: poles only along root hyperplanes
    def leftover_denominator(w):
        den = element.coeffs[w].den
        for h in hyperplanes:
            den = _strip(den, h.monic())[1]
        return None if den.is_constant() else f"leftover denominator {poly_to_text(den, names)}"

    for w in support:
        report.check(
            f"cond1: poles of f_{perm_name(w)} lie on root hyperplanes",
            lambda w=w: leftover_denominator(w),
        )

    for (i, j), h in zip(roots, hyperplanes):
        alpha_name = f"{names[i]}-{names[j]}"
        s_alpha = _swap(n, i, j)

        orders = {}

        def order_at_most_one(w):
            orders[w] = pole_order(element.coeffs[w], h, 0)
            return None if orders[w] <= 1 else f"pole order {orders[w]}"

        for w in support:
            report.check(
                f"cond1: pole order of f_{perm_name(w)} along {alpha_name} <= 1",
                lambda w=w: order_at_most_one(w),
            )

        for w in support:
            partner = ctx.key_compose(s_alpha, w)
            if partner in orders and partner < w:
                continue  # checked from the smaller member of the pair
            if orders[w] > 1 or orders.get(partner, 0) > 1:
                report.add(
                    f"cond3: residues along {alpha_name} for {perm_name(w)},{perm_name(partner)}",
                    "fail",
                    residual="higher-order pole; residue undefined",
                )
                continue
            report.check(
                f"cond3: Res f_{perm_name(w)} + Res f_{perm_name(partner)} = 0 along {alpha_name}",
                lambda w=w, partner=partner: zero_or_text(
                    residue_along(element.coefficient(w), h, 0)
                    + residue_along(element.coefficient(partner), h, 0)
                ),
            )

        if mode == "q":
            for w in support:
                winv = ctx.key_inverse(w)
                # w^{-1}(alpha) = x_{w^{-1}(i)} - x_{w^{-1}(j)} is negative iff
                # the indices come out of order
                if winv[i] < winv[j]:
                    continue
                if orders.get(w, 0) > 1:
                    report.add(
                        f"cond4: f_{perm_name(w)} vanishes on {alpha_name} = {vanishing_value}",
                        "fail",
                        residual="higher-order pole; restriction undefined",
                    )
                    continue
                report.check(
                    f"cond4: f_{perm_name(w)} vanishes on {alpha_name} = {vanishing_value}",
                    lambda w=w: zero_or_text(
                        restrict_to_hyperplane(element.coefficient(w), h, QQ(vanishing_value))
                    ),
                )
    return report
