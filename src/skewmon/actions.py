"""Automorphisms of the rational function field, the acting lattice monoid,
and the finite permutation group with its conjugation action on the monoid.

The variable table is split into three blocks: acted variables (moved by the
monoid), fixed variables (moved by the group only), and parameter variables
(fixed by everything; they are transcendental constants such as q or s).

Supported monoids are abelian lattices Z^m or N^m whose generators act by
shifts, by parameter-monomial scalings, or by general certified-invertible
substitutions.  Supported groups are finite groups of variable permutations,
enumerated eagerly at construction up to a hard cap.
"""

from operator import itemgetter

from .arith import QQ, RatFunc, poly_from_text, substitute
from .errors import (
    ContextMismatchError,
    NormalizationViolationError,
    NotInvertibleError,
    PreconditionError,
    ResourceCapError,
)

DEFAULT_GROUP_CAP = 10080


class VariableTable:
    """Ordered variable names partitioned into acted / fixed / parameter blocks."""

    __slots__ = ("names", "n_acted", "n_fixed", "_index")

    def __init__(self, acted, fixed=(), params=()):
        names = tuple(acted) + tuple(fixed) + tuple(params)
        if len(set(names)) != len(names):
            raise PreconditionError(f"duplicate variable names in {names}")
        self.names = names
        self.n_acted = len(tuple(acted))
        self.n_fixed = len(tuple(fixed))
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def nvars(self):
        return len(self.names)

    def index(self, name):
        return self._index[name]

    def is_param(self, i):
        return i >= self.n_acted + self.n_fixed

    def is_acted(self, i):
        return i < self.n_acted

    def param_indices(self):
        return range(self.n_acted + self.n_fixed, self.nvars)

    def var(self, name):
        return RatFunc.variable(self.nvars, self.index(name))

    def poly(self, text):
        return RatFunc.from_poly(poly_from_text(text, self.names))

    def __eq__(self, other):
        if not isinstance(other, VariableTable):
            return NotImplemented
        return (self.names, self.n_acted, self.n_fixed) == (
            other.names,
            other.n_acted,
            other.n_fixed,
        )

    def __hash__(self):
        return hash((self.names, self.n_acted, self.n_fixed))

    def __repr__(self):
        return (
            f"VariableTable(acted={self.names[:self.n_acted]}, "
            f"fixed={self.names[self.n_acted:self.n_acted + self.n_fixed]}, "
            f"params={self.names[self.n_acted + self.n_fixed:]})"
        )


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


class Automorphism:
    """A field automorphism of L = Frac(polynomial ring) fixing the parameters."""

    table: VariableTable

    def apply(self, f):
        raise NotImplementedError

    def inverse(self):
        raise NotImplementedError

    def power(self, k):
        base = self if k > 0 else self.inverse()
        return _ChainAut(self.table, (base,) * abs(k))

    def commutes_with(self, other):
        """Symbolic check on every variable."""
        nv = self.table.nvars
        for i in range(nv):
            x = RatFunc.variable(nv, i)
            if self.apply(other.apply(x)) != other.apply(self.apply(x)):
                return False
        return True


class ShiftAut(Automorphism):
    """x_i -> x_i + offset_i on acted variables; everything else fixed."""

    __slots__ = ("table", "offsets", "shifts")

    def __init__(self, table, offsets):
        if len(offsets) != table.nvars:
            raise ContextMismatchError("offset vector length mismatch")
        offsets = tuple(QQ(c) for c in offsets)
        for i, c in enumerate(offsets):
            if c != 0 and not table.is_acted(i):
                raise PreconditionError("shift offset on a non-acted variable")
        self.table = table
        self.offsets = offsets
        self.shifts = tuple((i, c) for i, c in enumerate(offsets) if c != 0)

    def apply_poly(self, p):
        return p.shift_vars(self.shifts)

    def apply(self, f):
        return f.map(self.apply_poly)

    def inverse(self):
        return self.power(-1)

    def power(self, k):
        return ShiftAut(self.table, tuple(c * k for c in self.offsets))

    def __repr__(self):
        return f"ShiftAut({self.offsets})"


class ScalingAut(Automorphism):
    """x_i -> m_i * x_i with m_i a rational multiple of a parameter monomial."""

    __slots__ = ("table", "coeffs", "exps")

    def __init__(self, table, coeffs, exps):
        nv = table.nvars
        if len(coeffs) != nv or len(exps) != nv:
            raise ContextMismatchError("multiplier length mismatch")
        coeffs = tuple(QQ(c) for c in coeffs)
        exps = tuple(tuple(e) for e in exps)
        for i in range(nv):
            trivial = coeffs[i] == 1 and not any(exps[i])
            if not trivial and not table.is_acted(i):
                raise PreconditionError("scaling multiplier on a non-acted variable")
            if coeffs[i] == 0:
                raise PreconditionError("zero scaling multiplier")
            for j, e in enumerate(exps[i]):
                if e and not table.is_param(j):
                    raise PreconditionError("multiplier must be a parameter monomial")
        self.table = table
        self.coeffs = coeffs
        self.exps = exps

    def apply(self, f):
        return f.scale_vars(self.coeffs, self.exps)

    def inverse(self):
        return self.power(-1)

    def power(self, k):
        return ScalingAut(
            self.table,
            tuple(c**k if k >= 0 else QQ(1, c**-k) for c in self.coeffs),
            tuple(tuple(x * k for x in e) for e in self.exps),
        )

    def __repr__(self):
        return f"ScalingAut(coeffs={self.coeffs}, exps={self.exps})"


class PermutationAut(Automorphism):
    """x_i -> x_{images[i]}; parameters must be fixed."""

    __slots__ = ("table", "images")

    def __init__(self, table, images):
        images = tuple(images)
        if sorted(images) != list(range(table.nvars)):
            raise PreconditionError(f"not a permutation of the table: {images}")
        for i in table.param_indices():
            if images[i] != i:
                raise PreconditionError("permutation must fix parameter variables")
        self.table = table
        self.images = images

    def apply(self, f):
        return f.map(lambda p: p.permute_vars(self.images))

    def inverse(self):
        return PermutationAut(self.table, _perm_inverse(self.images))

    def __repr__(self):
        return f"PermutationAut({self.images})"


class GeneralAut(Automorphism):
    """Arbitrary substitution with a certified inverse, checked at construction."""

    __slots__ = ("table", "images", "inverse_images")

    def __init__(self, table, images, inverse_images):
        nv = table.nvars
        images = dict(images)
        inverse_images = dict(inverse_images)
        for imgs in (images, inverse_images):
            for i in imgs:
                if table.is_param(i):
                    raise PreconditionError("substitution moves a parameter variable")
        for i in range(nv):
            x = RatFunc.variable(nv, i)
            roundtrip = substitute(substitute(x, images), inverse_images)
            if roundtrip != x:
                raise PreconditionError(
                    f"inverse images do not invert the map on variable {i}"
                )
            roundtrip = substitute(substitute(x, inverse_images), images)
            if roundtrip != x:
                raise PreconditionError(
                    f"images do not invert the inverse map on variable {i}"
                )
        self.table = table
        self.images = images
        self.inverse_images = inverse_images

    def apply(self, f):
        return substitute(f, self.images)

    def inverse(self):
        out = object.__new__(GeneralAut)
        out.table = self.table
        out.images = self.inverse_images
        out.inverse_images = self.images
        return out

    def __repr__(self):
        return f"GeneralAut({self.images})"


class _ChainAut(Automorphism):
    """A composite of automorphisms, applied first to last."""

    __slots__ = ("table", "factors")

    def __init__(self, table, factors):
        self.table = table
        self.factors = factors

    def apply(self, f):
        for a in self.factors:
            f = a.apply(f)
        return f

    def inverse(self):
        return _ChainAut(self.table, tuple(a.inverse() for a in reversed(self.factors)))


# ---------------------------------------------------------------------------
# Finite permutation group
# ---------------------------------------------------------------------------


def _perm_compose(a, b):
    # (a o b)(i) = a[b[i]]
    return tuple(a[j] for j in b)


def _perm_inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


class Group:
    """A finite group of variable permutations, eagerly enumerated.

    The enumeration order (identity first, then breadth-first products with
    the generators in their given order) is deterministic and is the order
    used for coset-representative choices downstream.  Every element is built
    and validated once, here.
    """

    __slots__ = ("table", "perms", "gen_perms", "_pos", "_elements")

    def __init__(self, table, perms, gen_perms=()):
        self.table = table
        self.perms = tuple(perms)
        self.gen_perms = tuple(gen_perms)
        self._pos = {p: i for i, p in enumerate(self.perms)}
        self._elements = tuple(GroupElement(self, i) for i in range(len(self.perms)))

    @classmethod
    def trivial(cls, table):
        return cls(table, (tuple(range(table.nvars)),))

    @classmethod
    def from_generators(cls, table, generators, cap=DEFAULT_GROUP_CAP):
        gens = []
        for g in generators:
            if isinstance(g, PermutationAut):
                gens.append(g.images)
            else:
                gens.append(PermutationAut(table, tuple(g)).images)
        identity = tuple(range(table.nvars))
        # p o g is itemgetter(*g)(p); on one variable, where every permutation
        # is the identity, itemgetter would return an int, not a tuple
        steps = [itemgetter(*g) for g in gens] if len(identity) > 1 else []
        seen = {identity}
        order = [identity]
        frontier = [identity]
        while frontier:
            nxt = []
            for p in frontier:
                for step in steps:
                    q = step(p)
                    if q not in seen:
                        seen.add(q)
                        order.append(q)
                        nxt.append(q)
                        if len(order) > cap:
                            raise ResourceCapError(
                                f"group closure exceeded the cap of {cap} elements"
                            )
            frontier = nxt
        return cls(table, order, gen_perms=tuple(gens))

    def __len__(self):
        return len(self.perms)

    def __iter__(self):
        return iter(self._elements)

    @property
    def identity(self):
        return self._elements[0]

    def element_of(self, perm):
        i = self._pos.get(tuple(perm))
        if i is None:
            raise PreconditionError(f"{perm} is not an element of the group")
        return self._elements[i]

    def compose(self, g, h):
        return self.element_of(_perm_compose(g.perm, h.perm))

    def inverse(self, g):
        return self.element_of(_perm_inverse(g.perm))

    def generator_elements(self):
        """Generators when known, otherwise every non-identity element."""
        if self.gen_perms:
            return [self.element_of(p) for p in self.gen_perms]
        return list(self._elements[1:])

    def __repr__(self):
        return f"Group(order={len(self.perms)})"


class GroupElement(PermutationAut):
    """An element of an enumerated permutation group: its own automorphism.

    A group builds each of its elements once, so equality is identity.
    """

    __slots__ = ("group", "index")

    def __init__(self, group, index):
        super().__init__(group.table, group.perms[index])
        self.group = group
        self.index = index

    @property
    def perm(self):
        return self.images

    def inverse(self):
        return self.group.inverse(self)

    def is_identity(self):
        return self.index == 0

    def __repr__(self):
        return f"GroupElement({self.perm})"


# ---------------------------------------------------------------------------
# Context: the shared algebra descriptor
# ---------------------------------------------------------------------------

LATTICE = "lattice"
FINITE_GROUP = "finite_group"


class Context:
    """Shared descriptor: variable table, monoid action, finite group G.

    ``lattice`` mode: keys of skew elements are integer vectors of length
    ``rank``; vector v acts as the product of the i-th generator to the power
    v_i.  ``coord_vars`` optionally records which acted variable each lattice
    coordinate is attached to (needed for conjugation by variable
    permutations).

    ``finite_group`` mode: keys are the permutations of a finite group W
    acting on the variables, and the "monoid" is W itself.
    """

    __slots__ = (
        "table", "mode", "generators", "nonneg", "group", "coord_vars", "key_group",
        "_coord_of", "_certified", "_auts",
    )

    def __init__(
        self,
        table,
        mode=LATTICE,
        generators=(),
        nonneg=False,
        group=None,
        coord_vars=None,
        key_group=None,
    ):
        self.table = table
        self.mode = mode
        self.generators = tuple(generators)
        self.nonneg = nonneg
        self.group = group if group is not None else Group.trivial(table)
        self.coord_vars = tuple(coord_vars) if coord_vars is not None else None
        self.key_group = key_group
        # acted variable -> the lattice coordinate attached to it
        self._coord_of = {v: i for i, v in enumerate(self.coord_vars or ())}
        self._certified = set()  # permutations whose lattice conjugation is proven
        self._auts = {}  # lattice key -> its automorphism, built on first use
        if mode == LATTICE:
            for i, a in enumerate(self.generators):
                for b in self.generators[i + 1 :]:
                    if not a.commutes_with(b):
                        raise PreconditionError(
                            "lattice generators must commute (checked symbolically)"
                        )
        elif mode == FINITE_GROUP:
            if key_group is None:
                raise PreconditionError("finite-group mode requires a key group")
        else:
            raise PreconditionError(f"unknown context mode {mode!r}")

    @property
    def rank(self):
        if self.mode != LATTICE:
            raise PreconditionError("rank is defined for lattice mode only")
        return len(self.generators)

    # -- key algebra ---------------------------------------------------------

    def key_identity(self):
        if self.mode == LATTICE:
            return (0,) * self.rank
        return tuple(range(self.table.nvars))

    def key_compose(self, a, b):
        if self.mode == LATTICE:
            return tuple(x + y for x, y in zip(a, b))
        return _perm_compose(a, b)

    def key_inverse(self, a):
        if self.mode == LATTICE:
            if self.nonneg and any(a):
                raise NotInvertibleError(
                    f"{a} is not invertible in the N^m monoid"
                )
            return tuple(-x for x in a)
        return _perm_inverse(a)

    def key_valid(self, a):
        """True iff a, a tuple of Python ints, names an element of the monoid
        (lattice mode) or of the key group."""
        if any(type(x) is not int for x in a):
            return False
        if self.mode == LATTICE:
            return len(a) == self.rank and (not self.nonneg or all(x >= 0 for x in a))
        return tuple(a) in self.key_group._pos

    def act_key(self, key, f):
        """Apply the automorphism named by a key (always a tuple) to f.

        A lattice key v names the product of the generator powers
        sigma_i^{v_i}; it is built once, from the generators' own ``power``.
        A finite-group key names its group element.  Either automorphism maps
        f once: ``RatFunc.image`` keeps the result on f.
        """
        if self.mode == FINITE_GROUP:
            aut = self.key_group.element_of(key)
        elif not any(key):
            return f
        else:
            aut = self._auts.get(key)
            if aut is None:
                factors = tuple(self.generators[i].power(k) for i, k in enumerate(key) if k)
                aut = factors[0] if len(factors) == 1 else _ChainAut(self.table, factors)
                self._auts[key] = aut
        return f.image(aut)

    def conjugate_key(self, g, key):
        """g.key = g key g^{-1} for a PermutationAut g, verified symbolically.

        In lattice mode the coordinate rule is certified once per permutation,
        not once per key: see ``_certify``.  When the certificate fails,
        nothing is cached and each key is verified on its own.
        """
        perm = g.images
        if self.mode == FINITE_GROUP:
            out = _perm_compose(perm, _perm_compose(key, _perm_inverse(perm)))
            if not self.key_valid(out):
                raise NormalizationViolationError(
                    f"conjugated key {out} left the key group"
                )
            return out
        if perm == tuple(range(self.table.nvars)):
            return tuple(key)
        candidate = self._coord_image(perm, key)
        if perm not in self._certified and not self._certify(g):
            self._verify_conjugation(g, key, candidate)
        if not self.key_valid(candidate):
            raise NormalizationViolationError(
                f"conjugated key {candidate} left the monoid"
            )
        return candidate

    def _coord_image(self, perm, key):
        """The lattice key whose coordinates are those of key, moved by perm."""
        if self.coord_vars is None:
            return tuple(key)
        out = [0] * len(key)
        for i, v in enumerate(self.coord_vars):
            j = self._coord_of.get(perm[v])
            if j is None:
                raise NormalizationViolationError(
                    "permutation moves an acted variable outside the lattice"
                )
            out[j] = key[i]
        return tuple(out)

    def _certify(self, g):
        """Prove s act(e_i) s^{-1} = act(sigma_s e_i) on every unit vector e_i.

        ``act_key`` and conjugation are homomorphisms of the lattice, and the
        coordinate rule sigma composes like the permutations, so checking the
        generators of ``self.group`` certifies every element of it on every
        key.  A permutation from another group is checked by itself.
        """
        own = getattr(g, "group", None) is self.group
        checked = self.group.generator_elements() if own else [g]
        try:
            for s in checked:
                for i in range(self.rank):
                    unit = tuple(int(j == i) for j in range(self.rank))
                    self._verify_conjugation(s, unit, self._coord_image(s.images, unit))
        except NormalizationViolationError:
            return False
        self._certified.update(self.group.perms if own else [g.images])
        return True

    def _verify_conjugation(self, g, key, candidate):
        g_inv = g.inverse()
        nv = self.table.nvars
        for i in range(nv):
            lhs = g.apply(self.act_key(key, g_inv.apply(RatFunc.variable(nv, i))))
            rhs = self.act_key(candidate, RatFunc.variable(nv, i))
            if lhs != rhs:
                raise NormalizationViolationError(
                    f"conjugation of {key} by {g.images} is not a lattice element"
                )

    def render_key(self, key):
        return "[" + ",".join(str(x) for x in key) + "]"

    def __repr__(self):
        if self.mode == LATTICE:
            kind = "N" if self.nonneg else "Z"
            return f"Context({self.table!r}, {kind}^{self.rank}, |G|={len(self.group)})"
        return f"Context({self.table!r}, finite-group keys, |W|={len(self.key_group)})"


# ---------------------------------------------------------------------------
# Monoid elements and the public action operations
# ---------------------------------------------------------------------------


class MonoidElement:
    """An element of the acting monoid: an integer lattice vector."""

    __slots__ = ("context", "vector")

    def __init__(self, context, vector):
        vector = tuple(vector)
        if not context.key_valid(vector):
            raise PreconditionError(f"{vector} is not a valid monoid element")
        self.context = context
        self.vector = vector

    def act(self, f):
        return self.context.act_key(self.vector, f)

    def __eq__(self, other):
        if not isinstance(other, MonoidElement):
            return NotImplemented
        return self.context is other.context and self.vector == other.vector

    def __hash__(self):
        return hash((id(self.context), self.vector))

    def __repr__(self):
        return f"MonoidElement({self.vector})"


def act(a, f):
    """Apply an automorphism or a monoid element to a rational function."""
    if isinstance(a, Automorphism):
        return a.apply(f)
    if isinstance(a, MonoidElement):
        return a.act(f)
    raise PreconditionError(f"cannot act with {a!r}")


def compose(a, b):
    if a.context is not b.context:
        raise ContextMismatchError("monoid elements from different contexts")
    return MonoidElement(a.context, a.context.key_compose(a.vector, b.vector))


def inverse(a):
    return MonoidElement(a.context, a.context.key_inverse(a.vector))


def conjugate(g, mu):
    """g.mu = g mu g^{-1}, verified symbolically on all variables.

    In lattice mode the verification is a certificate per group, proven on
    the group generators and the unit vectors (``Context.conjugate_key``).
    """
    return MonoidElement(mu.context, mu.context.conjugate_key(g, mu.vector))


def orbit(group, mu):
    """The G-orbit of a monoid element under conjugation."""
    return {conjugate(g, mu) for g in group}


def stabilizer(group, mu):
    """The stabilizer subgroup {g : g.mu = mu}."""
    members = [g.perm for g in group if conjugate(g, mu).vector == mu.vector]
    return Group(group.table, members)
