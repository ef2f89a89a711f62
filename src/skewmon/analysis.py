"""Verification algorithms over skew-ring elements.

Everything here is exact: relation residuals are normalized skew elements,
lattice computations use integer Smith normal form, and span dimensions are
computed by Gaussian elimination over the coefficient field after clearing
coefficient denominators per monoid key.  That field is Q, with plain
``int``/``Fraction`` entries, when the table has no parameter variables, and
the parameter fraction field, with RatFunc entries, otherwise.  A growth
profile keeps one reducer for the whole run and multiplies only the basis
elements that entered at the last layer by the frame; the per-key
denominators only grow, and when one grows the stored basis is
re-coordinatized into a fresh reducer.

The one approximate quantity in the package is the fitted log-log growth
slope, which is reported as a rational approximation (``slope``) and as a
float (``slope_float``), and is only ever tested against intervals.
"""

import math
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement

from .arith import QQ, Polynomial, RatFunc, _accumulate, poly_lcm
from .actions import LATTICE
from .errors import (
    ContextMismatchError,
    DefinitionError,
    PreconditionError,
    ResourceCapError,
    UnsupportedModeError,
    WitnessVerificationError,
)
from .reports import Report
from .skewring import SkewElement, commutator

DEFAULT_SI_CAP = 6
DEFAULT_DIM_CAP = 4096


# ---------------------------------------------------------------------------
# Relation expressions
# ---------------------------------------------------------------------------
#
# Every element a scenario names -- a relation, a growth frame entry, a
# standard-identity argument, a Hecke-check element -- is an expression tree
# in JSON-able form:
#   "E12" or {"gen": "E12"}   a named generator
#   {"terms": [...]}          a literal skew element (SkewElement.to_json form)
#   {"const": "3/2"}          a scalar at the identity key
#   {"scale": [c, expr]}      scalar multiple
#   {"sum": [e1, e2, ...]}    sum
#   {"prod": [e1, e2, ...]}   noncommutative product, left to right
#   {"comm": [e1, e2]}        commutator
# A relation passes when its expression evaluates to the zero element.


def gen(name):
    return {"gen": name}


def comm(a, b):
    return {"comm": [a, b]}


def prod(*args):
    return {"prod": list(args)}


def lincomb(*pairs):
    return {"sum": [{"scale": [str(c), e]} for c, e in pairs]}


def scaled(c, e):
    return {"scale": [str(c), e]}


def sum_of(*args):
    return {"sum": list(args)}


def evaluate_expression(spec, expr):
    """The skew element that ``expr`` (see above) denotes over ``spec``; a
    generator name missing from ``spec.generators``, a node of any other
    form, or a node whose operands do not parse raises DefinitionError."""
    ctx = spec.context
    if isinstance(expr, str):
        expr = {"gen": expr}
    elif not isinstance(expr, dict):
        raise DefinitionError(f"unrecognized expression node {expr!r}")
    if "gen" in expr:
        name = expr["gen"]
        if name not in spec.generators:
            raise DefinitionError(f"unknown generator {name!r}")
        return spec.generators[name]
    # reading the node's own operands; evaluating them comes after
    try:
        if "terms" in expr:
            return SkewElement.from_json(ctx, expr)
        if "const" in expr:
            return SkewElement.scalar(ctx, RatFunc.const(ctx.table.nvars, expr["const"]))
        if "scale" in expr:
            c, inner = expr["scale"]
            scalar = SkewElement.scalar(ctx, RatFunc.const(ctx.table.nvars, c))
        elif "sum" in expr or "prod" in expr:
            operands = list(expr["sum"] if "sum" in expr else expr["prod"])
        elif "comm" in expr:
            a, b = expr["comm"]
            operands = [a, b]
        else:
            raise DefinitionError(f"unrecognized expression node {expr!r}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DefinitionError(f"malformed expression node {expr!r}: {exc!r}") from exc
    if "scale" in expr:
        return scalar * evaluate_expression(spec, inner)
    values = [evaluate_expression(spec, inner) for inner in operands]
    if "sum" in expr:
        total = SkewElement.zero(ctx)
        for u in values:
            total = total + u
        return total
    if "prod" in expr:
        out = values[0] if values else SkewElement.one(ctx)
        for u in values[1:]:
            out = out * u
        return out
    return commutator(*values)


def verify_relations(spec, relations):
    """Evaluate each named relation; pass iff the residual is the zero element."""
    report = Report("relation suite")
    for rel in relations:
        name, expr = rel["name"], rel["expr"]
        report.check_zero(name, lambda expr=expr: evaluate_expression(spec, expr))
    return report


def gl_relation_set(n):
    """The full gl_n generator relation table plus the Serre relations."""
    E = lambda i, j: gen(f"E{i}{j}")  # noqa: E731
    rels = []
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            rels.append((f"[E{k}{k},E{l}{l}] = 0", comm(E(k, k), E(l, l))))
    for k in range(1, n + 1):
        for l in range(1, n):
            c = (k == l) - (k == l + 1)
            e_l, f_l = E(l, l + 1), E(l + 1, l)
            rels.append((f"[E{k}{k},E{l}{l + 1}] = {c}*E{l}{l + 1}",
                         sum_of(comm(E(k, k), e_l), scaled(-c, e_l))))
            rels.append((f"[E{k}{k},E{l + 1}{l}] = {-c}*E{l + 1}{l}",
                         sum_of(comm(E(k, k), f_l), scaled(c, f_l))))
    for k in range(1, n):
        for l in range(1, n):
            expr = comm(E(k, k + 1), E(l + 1, l))
            if k == l:
                rels.append((f"[E{k}{k + 1},E{l + 1}{l}] = E{k}{k} - E{k + 1}{k + 1}",
                             sum_of(expr, scaled(-1, E(k, k)), scaled(1, E(k + 1, k + 1)))))
            else:
                rels.append((f"[E{k}{k + 1},E{l + 1}{l}] = 0", expr))
    for k in range(1, n):
        for l in range(1, n):
            ek, el, fk, fl = E(k, k + 1), E(l, l + 1), E(k + 1, k), E(l + 1, l)
            if abs(k - l) == 1:
                rels.append((f"Serre [e{k},[e{k},e{l}]] = 0", comm(ek, comm(ek, el))))
                rels.append((f"Serre [f{k},[f{k},f{l}]] = 0", comm(fk, comm(fk, fl))))
            elif k < l:
                rels.append((f"[e{k},e{l}] = 0", comm(ek, el)))
                rels.append((f"[f{k},f{l}] = 0", comm(fk, fl)))
    return [{"name": name, "expr": expr} for name, expr in rels]


def theta_relation_set(n):
    """The nilHecke relations of theta_1..theta_{n-1} over S_n: square zero,
    braid, and far commutation."""
    t = lambda i: gen(f"theta{i}")  # noqa: E731
    rels = [(f"theta{i}^2 = 0", prod(t(i), t(i))) for i in range(1, n)]
    for i in range(1, n - 1):
        a, b = t(i), t(i + 1)
        rels.append((f"braid theta{i} theta{i + 1}",
                     sum_of(prod(a, b, a), scaled(-1, prod(b, a, b)))))
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append((f"[theta{i}, theta{j}] = 0", comm(t(i), t(j))))
    return [{"name": name, "expr": expr} for name, expr in rels]


# ---------------------------------------------------------------------------
# Integer lattices: Smith normal form
# ---------------------------------------------------------------------------


def _int_vectors(vectors, what):
    """The vectors as tuples; PreconditionError at the first vector with an
    entry that is not a Python ``int`` or of another length than the first."""
    out = [tuple(v) for v in vectors]
    for i, v in enumerate(out, start=1):
        for x in v:
            if type(x) is not int:
                raise PreconditionError(f"{what} {i} has the entry {x!r}, not an integer")
        if len(v) != len(out[0]):
            raise PreconditionError(
                f"{what} {i} has length {len(v)}, {what} 1 has length {len(out[0])}"
            )
    return out


def smith_normal_form(rows):
    """Exact Smith normal form data of an integer matrix.

    Returns (rank, divisors): the positive elementary divisors in their
    divisibility chain d_1 | d_2 | ... | d_rank.  Each round clears the row
    and column of an entry p of least absolute value.  A nonzero remainder
    is a smaller least entry for the next round.  A row with an entry that p
    does not divide is added to p's row, which leaves a remainder in the
    next round.  Otherwise |p| divides every other entry: it is the next
    divisor, and p's row and column go.
    """
    a = [list(v) for v in _int_vectors(rows, "row")]
    divisors = []
    while True:
        entries = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not entries:
            return len(divisors), divisors
        _, i, j = min(entries)
        pivot, p = a[i], a[i][j]
        others = a[:i] + a[i + 1 :]
        for row in others:
            q = row[j] // p
            row[:] = [x - q * y for x, y in zip(row, pivot)]
        for c, x in enumerate(pivot):
            if c != j and x:
                q = x // p
                for row in a:
                    row[c] -= q * row[j]
        if any(row[j] for row in others) or any(pivot[:j] + pivot[j + 1 :]):
            continue
        for row in others:
            if any(x % p for x in row):
                pivot[:] = [x + y for x, y in zip(pivot, row)]
                break
        else:
            divisors.append(abs(p))
            a = [row[:j] + row[j + 1 :] for row in others]


def lattice_contains(rows, target):
    """True iff target is an integer combination of the rows.

    Uses the invariant-factor comparison: the row lattice of [rows; target]
    equals the row lattice of rows iff both have the same rank and elementary
    divisors (equal rank gives a finite index, which the divisor products
    measure).
    """
    rows = list(rows)
    return smith_normal_form(rows) == smith_normal_form(rows + [target])


def support_lattice_rank(elements):
    """Rank and elementary divisors of the lattice spanned by all supports."""
    if not elements:
        return 0, []
    ctx = elements[0].context
    if ctx.mode != LATTICE:
        raise UnsupportedModeError("support lattice rank needs a lattice-mode context")
    return smith_normal_form(sorted({key for u in elements for key in u.coeffs}))


# ---------------------------------------------------------------------------
# Linear algebra over the coefficient field
# ---------------------------------------------------------------------------


class _SpanReducer:
    """Incremental row echelon form over the coefficient field.

    Vectors are dicts mapping sortable coordinates to entries of one field:
    exact rationals (``int`` or ``Fraction``) when the table has no parameter
    variables, else RatFunc entries whose numerator and denominator involve
    parameter variables only.  A stored row with pivot p is e_p + tail, where
    every coordinate of the tail is larger than p; ``pivot_rows[p]`` holds
    only the tail, so eliminating a coordinate removes it outright.

    ``add`` keeps the rows in echelon form: it reduces the new vector against
    the stored rows and never the stored rows against it.  That decides
    independence, hence the rank and every accept/reject decision, exactly as
    a fully reduced basis would.  ``center_candidates`` reads its kernel off
    the remainders that ``_reduce`` leaves, never off the rows.
    """

    def __init__(self):
        self.pivot_rows = {}  # pivot coordinate -> tail of its row

    def _reduce(self, vec):
        # a tail holds only coordinates above its pivot, so eliminating the
        # smallest pivot coordinate can only introduce larger ones, and this
        # loop terminates
        vec = dict(vec)
        pivot_rows = self.pivot_rows
        while True:
            hit = min((c for c in vec if c in pivot_rows), default=None)
            if hit is None:
                return vec
            _accumulate(vec, pivot_rows[hit].items(), coeff=-vec.pop(hit))

    def add(self, vec):
        """Reduce vec against the span; extend the basis if independent."""
        vec = self._reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        c = vec.pop(pivot)
        inv = c.invert() if isinstance(c, RatFunc) else QQ(1, c)
        self.pivot_rows[pivot] = {k: v * inv for k, v in vec.items()}
        return True


def _element_vectors(coeff_maps, table, common=None):
    """Coordinate vectors of key -> RatFunc maps against per-key common denominators.

    Coordinates are (key, non-parameter exponent tuple); entries live in the
    parameter fraction field, as RatFuncs, or in Q, as ``int`` or
    ``Fraction``, when the table has no parameter variables.  The per-key
    denominator is the lcm over all the given maps and over ``common``, the
    per-key denominators of earlier calls, which is updated in place; so the
    map to coordinates is linear on every set coordinatized against the same
    ``common``.  A coefficient whose denominator is its key's common one is
    cleared to its numerator with no division.  Returns the vectors and
    whether a key already in ``common`` got a larger denominator, which makes
    vectors from earlier calls stale.
    """
    one = Polynomial.const(table.nvars, 1)
    np_count = table.n_acted + table.n_fixed
    params = np_count < table.nvars
    common = {} if common is None else common
    held = set(common)
    grown = False
    for coeffs in coeff_maps:
        for key, c in coeffs.items():
            cur = common.get(key, one)
            if not c.den.is_constant():
                lcm = poly_lcm(cur, c.den)
                grown = grown or (key in held and lcm != cur)
                cur = lcm
            common[key] = cur
    vectors = []
    for coeffs in coeff_maps:
        vec = {}
        for key, c in coeffs.items():
            den = common[key]
            cleared = c.num if c.den == den else c.num * den.divide_exact(c.den)
            if params:
                for head, tail in cleared.split_head(np_count).items():
                    vec[(key, head)] = RatFunc.from_poly(tail)
            else:  # each exponent is a whole head, and its coefficient the entry
                for head, entry in cleared.coefficients().items():
                    vec[(key, head)] = entry
        vectors.append(vec)
    return vectors, grown


# ---------------------------------------------------------------------------
# Center search and commutant filtering
# ---------------------------------------------------------------------------


def _monomials_up_to(table, degree):
    """Exponents of the monomials of degree at most ``degree`` in the
    non-parameter variables, in grlex order.  A multiset of ``degree``
    picks from those variables and one slack index names one monomial; the
    slack index counts the degree the monomial leaves unused."""
    slack = table.nvars
    indices = [*range(table.n_acted + table.n_fixed), slack]
    monos = []
    for picks in combinations_with_replacement(indices, degree):
        e = [0] * (slack + 1)
        for i in picks:
            e[i] += 1
        monos.append(tuple(e[:slack]))
    return sorted(monos, key=lambda e: (sum(e), e))


def center_candidates(spec, degree_bound):
    """Basis of G-invariant polynomials of bounded degree fixed by the monoid.

    Solves the exact linear system on monomial coefficients over the
    parameter fraction field and returns canonical representatives (grlex
    leading coefficient 1).  The constants are always present.
    """
    if degree_bound < 0:
        raise PreconditionError("degree bound must be nonnegative")
    ctx = spec.context
    table = ctx.table
    np_count = table.n_acted + table.n_fixed
    # the substitutions a central polynomial must be fixed by
    if ctx.mode == LATTICE:
        keys = [tuple(1 if j == i else 0 for j in range(ctx.rank)) for i in range(ctx.rank)]
    else:
        keys = ctx.key_group.gen_perms or ctx.key_group.perms
    fixers = [partial(ctx.act_key, key) for key in keys]
    fixers += [g.apply for g in ctx.group.generator_elements()]

    # column e holds fix(x^e) - x^e at each fixer's index, and x^e itself at
    # the tag, whose coordinates sort after every constraint coordinate
    tag = len(fixers)
    columns, monomial_of = [], {}
    for e in _monomials_up_to(table, degree_bound):
        x_e = RatFunc.from_poly(Polynomial.monomial(table.nvars, e))
        column = {ai: fix(x_e) - x_e for ai, fix in enumerate(fixers)}
        column[tag] = monomial_of[e[:np_count]] = x_e
        columns.append(column)

    # In grlex column order, a column independent on the constraints keeps a
    # constraint pivot and is stored, so stored rows tag only earlier
    # independent columns.  A dependent column reduces to its tag part
    # alone: the kernel vector with 1 at x^e, its grlex-leading monomial,
    # and 0 at every other dependent one.  It is never stored, since later
    # columns reduced against a tag pivot would give another kernel basis.
    reducer = _SpanReducer()
    basis = []
    for vec in _element_vectors(columns, table)[0]:
        rest = reducer._reduce(vec)
        if min(rest)[0] != tag:
            reducer.add(rest)
            continue
        p = RatFunc.zero(table.nvars)
        for (_, head), v in rest.items():
            if not isinstance(v, RatFunc):
                v = RatFunc.const(table.nvars, v)
            p = p + v * monomial_of[head]
        basis.append(p)
    return basis


def commutant_filter(spec, candidates):
    """Those candidates commuting exactly with every named generator."""
    out = []
    for cand in candidates:
        if isinstance(cand, (RatFunc, Polynomial)):
            cand = SkewElement.scalar(spec.context, cand)
        if all(
            commutator(cand, g).is_zero() for g in spec.generators.values()
        ):
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# Ore witnesses
# ---------------------------------------------------------------------------


def ore_witness(s, u):
    """Produce (u', r) with u*r = s*u', r a G-invariant "denominator" for s^{-1}u.

    Construction: for v = s^{-1} u with coefficients l_mu, let
    d = prod_mu mu^{-1}(s * den(l_mu)) and r = prod_{g in G} g(d); then
    u' = v * r has coefficients polynomial in the non-parameter variables.
    The identity u*r = s*u' is re-verified by an actual skew product before
    returning; a failed re-check raises WitnessVerificationError.
    """
    ctx = u.context
    nvars = ctx.table.nvars
    if isinstance(s, Polynomial):
        s = RatFunc.from_poly(s)
    param_ok = set(ctx.table.param_indices())
    if s.is_zero():
        raise PreconditionError("s must be a nonzero element of the invariant subring")
    if not s.den.variables_present() <= param_ok:
        raise PreconditionError("s must be polynomial in the non-parameter variables")
    for g in ctx.group.generator_elements():
        if g.apply(s) != s:
            raise PreconditionError("s must be G-invariant")

    v = SkewElement.scalar(ctx, s.invert()) * u
    d = RatFunc.const(nvars, 1)
    for key in sorted(v.coeffs):
        t = RatFunc.from_poly(v.coeffs[key].den) * s
        d = d * ctx.act_key(ctx.key_inverse(key), t)
    r = RatFunc.const(nvars, 1)
    for g in ctx.group:
        r = r * g.apply(d)
    u_prime = v * SkewElement.scalar(ctx, r)

    lhs = u * SkewElement.scalar(ctx, r)
    rhs = SkewElement.scalar(ctx, s) * u_prime
    if lhs != rhs:
        raise WitnessVerificationError("ore witness identity u*r = s*u' failed to verify")
    for c in u_prime.coeffs.values():
        if not c.den.variables_present() <= param_ok:
            raise WitnessVerificationError("ore witness produced a non-polynomial coefficient")
    return u_prime, r


# ---------------------------------------------------------------------------
# Standard polynomial identities
# ---------------------------------------------------------------------------


def standard_identity(n, elements):
    """s_n(a_1..a_n) = sum over permutations of sgn(sigma) a_{sigma(1)}...a_{sigma(n)},
    expanded by the first factor: s(S) = sum over i in S of (-1)^#{j in S : j < i}
    a_i s(S - {i}), one subset of indices at a time (n 2^(n-1) - n products)."""
    if len(elements) != n:
        raise PreconditionError(f"expected {n} elements, got {len(elements)}")
    if n > DEFAULT_SI_CAP:
        raise ResourceCapError(f"standard identity degree {n} exceeds the cap {DEFAULT_SI_CAP}")
    if n == 0:
        raise PreconditionError("empty standard identity")
    ctx = elements[0].context
    for u in elements:
        if u.context is not ctx:
            raise ContextMismatchError("elements from different contexts")
    level = {(i,): u for i, u in enumerate(elements)}  # keyed by index sets, not elements
    for k in range(2, n + 1):
        below, level = level, {}
        for subset in combinations(range(n), k):
            total = SkewElement.zero(ctx)
            for j, i in enumerate(subset):
                prod_elem = elements[i] * below[subset[:j] + subset[j + 1 :]]
                total = total + (-prod_elem if j & 1 else prod_elem)
            level[subset] = total
    return level[tuple(range(n))]


# ---------------------------------------------------------------------------
# Growth
# ---------------------------------------------------------------------------


class GrowthProfile:
    """Frame-span dimensions d(k) for k = 1..k_max and a fitted log-log slope."""

    __slots__ = ("dims", "slope")

    def __init__(self, dims, slope):
        for i in range(1, len(dims)):
            if dims[i] < dims[i - 1]:
                raise PreconditionError("growth dimensions must be nondecreasing")
        for i in range(1, len(dims) + 1):
            for j in range(1, len(dims) + 1 - i):
                if dims[i + j - 1] > dims[i - 1] * dims[j - 1]:
                    raise PreconditionError("growth dimensions must be submultiplicative")
        self.dims = dims
        self.slope = slope


def fit_loglog_slope(values):
    """Least-squares slope of log(value) against log(k) on the tail window
    k = max(1, k_max // 2) .. k_max.

    Values are indexed k = 1..k_max = len(values).  Returns a rational
    approximation; callers compare against intervals, never for exact
    equality.
    """
    k_max = len(values)
    points = [
        (math.log(k), math.log(values[k - 1]))
        for k in range(max(1, k_max // 2), k_max + 1)
        if values[k - 1] > 0
    ]
    if len(points) < 2:
        raise PreconditionError("slope fit needs at least two points")
    xbar = sum(x for x, _ in points) / len(points)
    ybar = sum(y for _, y in points) / len(points)
    sxx = sum((x - xbar) ** 2 for x, _ in points)
    sxy = sum((x - xbar) * (y - ybar) for x, y in points)
    return Fraction(sxy / sxx).limit_denominator(10**6)


def growth_profile(frame, k_max, dim_cap=DEFAULT_DIM_CAP):
    """Dimensions d(k) of spans of products of at most k frame elements.

    The frame must contain the identity, so products of lower length are
    included automatically.  Dimension is over the coefficient field of the
    parameters; the computation clears denominators per key and row-reduces
    exactly.

    The layers are semi-naive: one reducer holds the basis of span(F^k) for
    the whole run, and since 1 is in F, span(F^(k+1)) = span(F^k) +
    span(new * F), where new are the basis elements that entered at layer k.
    So only those are multiplied, and only by the frame elements other than
    1: new * 1 = new is in the span already.  When a later product raises
    the common denominator of a key, the stored basis elements are
    re-coordinatized against the new denominators into a fresh reducer
    before the product's layer is added.

    A span dimension above ``dim_cap`` raises ResourceCapError before the next
    layer's products; ``partial`` is the profile so far, or None when d(1) is
    already over the cap (a one-point profile has no slope).
    """
    if k_max < 2:
        raise PreconditionError("k_max must be at least 2")
    if not frame:
        raise PreconditionError("empty frame")
    one = SkewElement.one(frame[0].context)
    if one not in frame:
        raise PreconditionError("frame must contain the identity element")
    others = [v for v in frame if v != one]
    table = one.context.table
    common = {}  # key -> common denominator of every element coordinatized so far
    reducer = _SpanReducer()
    basis = []

    def add_layer(elements):
        nonlocal reducer
        vectors, grown = _element_vectors([x.coeffs for x in elements], table, common)
        if grown:
            reducer = _SpanReducer()
            for vec in _element_vectors([x.coeffs for x in basis], table, common)[0]:
                reducer.add(vec)
        new = [u for u, vec in zip(elements, vectors) if reducer.add(vec)]
        basis.extend(new)
        return new

    new = add_layer(list(frame))
    dims = [len(basis)]
    while dims[-1] <= dim_cap:
        if len(dims) == k_max:
            return GrowthProfile(dims, fit_loglog_slope(dims))
        new = add_layer([b * v for b in new for v in others])
        dims.append(len(basis))
    raise ResourceCapError(
        f"span dimension {dims[-1]} exceeded the cap {dim_cap}",
        partial=GrowthProfile(dims, fit_loglog_slope(dims)) if len(dims) > 1 else None,
    )


def monoid_growth(generators, k_max, dim_cap=DEFAULT_DIM_CAP):
    """Word-metric ball sizes |B_k| for k = 1..k_max in the lattice monoid.

    |B_k| is the span dimension of F^k in the monoid algebra, so a ball over
    ``dim_cap`` raises ResourceCapError with the sizes so far as ``partial``.
    """
    if not generators:
        raise PreconditionError("need at least one generator")
    if any(hasattr(g, "context") and g.context.mode != LATTICE for g in generators):
        raise UnsupportedModeError("monoid growth needs a lattice-mode monoid")
    vectors = _int_vectors([getattr(g, "vector", g) for g in generators], "generator")
    ball = {(0,) * len(vectors[0])}
    frontier = set(ball)
    sizes = []
    for _ in range(k_max):
        new = set()
        for b in frontier:
            for v in vectors:
                w = tuple(x + y for x, y in zip(b, v))
                if w not in ball:
                    new.add(w)
        ball |= new
        frontier = new
        sizes.append(len(ball))
        if len(ball) > dim_cap:
            raise ResourceCapError(f"ball size {len(ball)} exceeded the cap {dim_cap}",
                                   partial=sizes)
    return sizes
