"""Exact computations with preordered groups.

A preordered group is a group G with a submonoid P (the positive cone)
closed under conjugation.  This package constructs and validates such
pairs over two exact backends (finite Cayley tables and finitely generated
abelian groups), decomposes every object through its canonical torsion and
pretorsion sequences, computes the reflective and monotone-light
factorizations of any morphism, classifies coverings, and checks every
universal property against a brute-force oracle at desk scale.

The names below are imported from their modules on first use (PEP 562),
so ``import preordgrp.cli`` loads only the modules a command needs.
"""

import importlib

# Every command needs groups, the largest module.  Without written bytecode
# each cold process compiles its modules from source, and compiling groups
# first, while little else is resident, keeps a command's peak memory low.
from . import groups  # noqa: F401

_EXPORTS = {
    "cones": (
        "Cone", "CoverCone", "GeneratorCone", "MembershipVerdict",
        "SubgroupCone", "check_cone_axioms", "cone_contains", "explicit_cone",
        "generated_subgroup", "generator_cone", "is_reduced", "total_cone",
        "trivial_cone", "units",
    ),
    "descent": (
        "InternalEquivRelation", "canonical_cover", "is_covering",
        "is_covering_along", "is_discrete_fibration", "kernel_pair",
    ),
    "factor": (
        "FactorizationResult", "check_orthogonality",
        "check_stable_units_instance", "e_conditions", "em_factor", "in_class",
        "lemma_M_instance", "ml_factor",
    ),
    "groups": (
        "FgAbGroup", "FiniteGroup", "GroupElement", "GroupHom", "GroupObject",
        "Subgroup", "cyclic_group", "direct_product",
        "fgab_from_finite_abelian", "group_kernel", "group_pullback",
        "identity_hom", "make_fgab_group", "make_finite_group", "make_hom",
        "quotient", "subgroup", "subgroup_to_group", "zero_hom",
    ),
    "intlinalg": ("smith_normal_form",),
    "oracle": (
        "UniversalPropertyQuery", "enumerate_cones", "enumerate_pog_morphisms",
        "search_counterexample", "verify_universal_property",
    ),
    "pog": (
        "POGMorphism", "PreorderedGroup", "classify", "identity_morphism",
        "is_short_exact", "make_pog", "make_pog_morphism", "morphism_class",
        "pog_coequalizer", "pog_cokernel", "pog_equalizer", "pog_kernel",
        "pog_product", "pog_pullback", "zero_morphism", "zero_object",
    ),
    "schreier": ("is_special_schreier",),
    "torsion": (
        "TorsionDecomposition", "coreflect_T", "hom_torsion_to_free_is_zero",
        "is_z_trivial", "pretorsion_sequence", "proto_coreflect",
        "proto_reflect", "reflect_F", "torsion_sequence", "uniqueness_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
