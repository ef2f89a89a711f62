"""Exact symbolic computation in skew monoid rings over rational function
fields: shift and q-shift operator algebras, generalized Weyl algebras,
rational gl_n realizations, divided-difference elements, and the verification
machinery around them (relations, orbit sums, centers, Ore witnesses,
polynomial identities, growth profiles)."""

__version__ = "0.1.0"

from .arith import (
    NEG_INF,
    Polynomial,
    QQ,
    RatFunc,
    poly_from_text,
    poly_gcd,
    poly_lcm,
    poly_to_text,
    pole_order,
    residue_along,
    restrict_to_hyperplane,
    substitute,
)
from .actions import (
    Automorphism,
    Context,
    FINITE_GROUP,
    GeneralAut,
    Group,
    GroupElement,
    LATTICE,
    MonoidElement,
    PermutationAut,
    ScalingAut,
    ShiftAut,
    VariableTable,
    act,
    compose,
    conjugate,
    inverse,
    orbit,
    stabilizer,
)
from .skewring import (
    SkewElement,
    commutator,
    decompose_orbits,
    g_action,
    is_invariant,
    kpart,
    orbit_sum,
    support,
)
from .constructors import (
    AlgebraSpec,
    GWASpec,
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
from .analysis import (
    GrowthProfile,
    center_candidates,
    commutant_filter,
    fit_loglog_slope,
    gl_relation_set,
    growth_profile,
    lattice_contains,
    monoid_growth,
    ore_witness,
    smith_normal_form,
    standard_identity,
    support_lattice_rank,
    theta_relation_set,
    verify_relations,
)
from .reports import CheckResult, Report, dump_json
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
