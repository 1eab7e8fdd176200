"""Exact computations with preordered groups.

A preordered group is a group G with a submonoid P (the positive cone)
closed under conjugation.  This package constructs and validates such
pairs over two exact backends (finite Cayley tables and finitely generated
abelian groups), decomposes every object through its canonical torsion and
pretorsion sequences, computes the reflective and monotone-light
factorizations of any morphism, classifies coverings, and checks every
universal property against a brute-force oracle at desk scale.
"""

from .cones import (
    Cone,
    CoverCone,
    ExplicitCone,
    GeneratorCone,
    MembershipVerdict,
    check_cone_axioms,
    cone_contains,
    explicit_cone,
    generated_subgroup,
    generator_cone,
    is_reduced,
    total_cone,
    trivial_cone,
    units,
)
from .descent import (
    InternalEquivRelation,
    canonical_cover,
    is_covering,
    is_covering_along,
    is_discrete_fibration,
    kernel_pair,
)
from .factor import (
    FactorizationResult,
    check_orthogonality,
    check_stable_units_instance,
    e_conditions,
    em_factor,
    in_class,
    lemma_M_instance,
    ml_factor,
)
from .groups import (
    FgAbGroup,
    FiniteGroup,
    GroupElement,
    GroupHom,
    GroupObject,
    Subgroup,
    cyclic_group,
    direct_product,
    fgab_from_finite_abelian,
    group_kernel,
    group_pullback,
    identity_hom,
    make_fgab_group,
    make_finite_group,
    make_hom,
    quotient,
    subgroup,
    subgroup_to_group,
    zero_hom,
)
from .intlinalg import smith_normal_form
from .oracle import (
    UniversalPropertyQuery,
    enumerate_cones,
    enumerate_pog_morphisms,
    search_counterexample,
    verify_universal_property,
)
from .pog import (
    POGMorphism,
    PreorderedGroup,
    classify,
    identity_morphism,
    is_short_exact,
    make_pog,
    make_pog_morphism,
    morphism_class,
    pog_coequalizer,
    pog_cokernel,
    pog_equalizer,
    pog_kernel,
    pog_product,
    pog_pullback,
    zero_morphism,
    zero_object,
)
from .schreier import is_special_schreier
from .torsion import (
    TorsionDecomposition,
    coreflect_T,
    hom_torsion_to_free_is_zero,
    is_z_trivial,
    pretorsion_sequence,
    proto_coreflect,
    proto_reflect,
    reflect_F,
    torsion_sequence,
    uniqueness_check,
)

__version__ = "0.1.0"
