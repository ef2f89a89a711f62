"""Seeded randomized verification batteries.

These back both the command-line suites and the acceptance tests, so they are
deterministic given (count, seed) and return Reports rather than raising on
mathematical failure.
"""

import random

from .arith import Polynomial, QQ, RatFunc
from .actions import MonoidElement, stabilizer
from .errors import PreconditionError, WitnessVerificationError
from .reports import Report
from .skewring import SkewElement, orbit_sum
from .analysis import ore_witness, standard_identity


#: Most terms of a random polynomial, and the bound on its integer coefficients.
MAX_TERMS, COEFF_BOUND = 3, 4


def random_polynomial(rng, nvars, max_degree=2, nonzero=False):
    while True:
        terms = {}
        for _ in range(rng.randint(1, MAX_TERMS)):
            exps = [0] * nvars
            budget = rng.randint(0, max_degree)
            for _ in range(budget):
                exps[rng.randrange(nvars)] += 1
            c = rng.randint(-COEFF_BOUND, COEFF_BOUND)
            if c:
                e = tuple(exps)
                terms[e] = terms.get(e, 0) + c
        p = Polynomial(nvars, {e: QQ(c) for e, c in terms.items() if c})
        if not (nonzero and p.is_zero()):
            return p


def random_ratfunc(rng, nvars):
    num = random_polynomial(rng, nvars)
    return RatFunc(num, random_polynomial(rng, nvars, max_degree=1, nonzero=True))


def _symmetrize(ctx, f, group=None):
    group = group if group is not None else ctx.group
    total = RatFunc.zero(ctx.table.nvars)
    for g in group:
        total = total + g.apply(f)
    return total


def orbit_identity_trials(ctx, count, seed):
    """Randomized instances of the two-sided orbit-sum module identities:
    gamma*[a mu] = [gamma*a mu]  and  [a mu]*gamma = [a*mu(gamma) mu]."""
    rng = random.Random(seed)
    nv = ctx.table.nvars
    report = Report("orbit-sum bimodule identities")
    rank = ctx.rank
    trial = 0
    while trial < count:
        vec = tuple(rng.randint(-2, 2) for _ in range(rank))
        mu = MonoidElement(ctx, vec)
        stab = stabilizer(ctx.group, mu)
        a = _symmetrize(ctx, random_ratfunc(rng, nv), stab)
        if a.is_zero():
            continue
        gamma = _symmetrize(ctx, random_ratfunc(rng, nv))
        if gamma.is_zero():
            continue
        trial += 1
        base = orbit_sum(a, mu)
        lhs1 = SkewElement.scalar(ctx, gamma) * base
        rhs1 = orbit_sum(gamma * a, mu)
        ok1 = lhs1 == rhs1
        mu_gamma = ctx.act_key(vec, gamma)
        lhs2 = base * SkewElement.scalar(ctx, gamma)
        rhs2 = orbit_sum(a * mu_gamma, mu)
        ok2 = lhs2 == rhs2
        report.add(
            f"trial {trial}: gamma*[a mu] = [gamma*a mu] and [a mu]*gamma = [a*mu(gamma) mu]",
            "pass" if (ok1 and ok2) else "fail",
            residual=None
            if (ok1 and ok2)
            else f"left={'ok' if ok1 else (lhs1 - rhs1).to_text()} "
            f"right={'ok' if ok2 else (lhs2 - rhs2).to_text()}",
        )
    return report


def ore_witness_trials(ctx, count, seed):
    """Random (s, u) pairs; each witness is verified by the skew product."""
    rng = random.Random(seed)
    nv = ctx.table.nvars
    report = Report("Ore witness construction")
    rank = ctx.rank
    trial = 0
    while trial < count:
        s = _symmetrize(ctx, RatFunc.from_poly(random_polynomial(rng, nv)))
        if s.is_zero() or not s.is_polynomial():
            continue
        keys = {tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, 3))}
        coeffs = {k: random_ratfunc(rng, nv) for k in keys}
        u = SkewElement(ctx, coeffs)
        if u.is_zero():
            continue
        trial += 1
        try:
            u_prime, r = ore_witness(s, u)
        except (WitnessVerificationError, PreconditionError) as exc:
            report.add(f"trial {trial}", "fail", residual=str(exc))
            continue
        ok = not r.is_zero() and all(
            g.apply(r) == r for g in ctx.group.generator_elements()
        )
        report.add(
            f"trial {trial}: u*r = s*u' with r invariant and nonzero",
            "pass" if ok else "fail",
            residual=None if ok else "witness r failed invariance",
        )
    return report


def repeated_argument_trials(ctx, count, seed, degree=3):
    """s_degree with a repeated argument vanishes: alternation check on random data."""
    rng = random.Random(seed)
    nv = ctx.table.nvars
    report = Report("standard identity with repeated arguments")
    rank = ctx.rank
    for trial in range(1, count + 1):
        def rand_elem():
            keys = {tuple(rng.randint(-1, 1) for _ in range(rank)) for _ in range(rng.randint(1, 2))}
            return SkewElement(ctx, {k: random_ratfunc(rng, nv) for k in keys})

        a = rand_elem()
        b = rand_elem()
        args = [a] * (degree - 1) + [b]
        rng.shuffle(args)
        report.check_zero(
            f"trial {trial}: s_{degree} with a repeated argument = 0",
            lambda args=args: standard_identity(degree, args),
        )
    return report
