"""The canonical partially ordered cover and the covering predicate.

Every (G, P) is covered by Z x G ordered by strict positivity in the new
coordinate; the projection is an effective descent morphism.  Coverings
are exactly the morphisms whose kernel is partially ordered, and kernel
pairs of morphisms package into internal equivalence relations whose
identities the engine verifies on the nose.

Run:  python demos/coverings_and_descent.py
"""

from preordgrp import (
    canonical_cover,
    classify,
    generator_cone,
    is_covering,
    kernel_pair,
    make_fgab_group,
    make_hom,
    make_pog,
    make_pog_morphism,
    morphism_class,
    total_cone,
)


def main():
    Z = make_fgab_group(1, [])
    Z2 = make_fgab_group(0, [2])
    ZN = make_pog(Z, generator_cone(Z, [Z.elem([1])]))
    Z2tot = make_pog(Z2, total_cone(Z2))

    print("== canonical cover of (Z, naturals)")
    cover = canonical_cover(ZN)
    print(f"  realized carrier: {cover.realized.group!r}")
    print(f"  cover flags:      {sorted(classify(cover.realized).flags)}")
    print(f"  cone axioms:      {cover.axioms.ok} (the base's decide the "
          f"cover's; reduced by construction)")
    rep = morphism_class(cover.projection)
    print(f"  projection normal epi / effective descent: "
          f"{rep.normal_epi} / {rep.effective_descent}")
    print(f"  {cover.surjectivity_note}")
    print()

    print("== mod 2 is a covering (its kernel is partially ordered)")
    mod2 = make_pog_morphism(make_hom(Z, Z2, [Z2.elem([1])]), ZN, Z2tot)
    print(f"  is_covering: {is_covering(mod2)}")
    R = kernel_pair(mod2)
    checks = R.verify_identities()
    print(f"  kernel pair identities: {all(checks.values())} "
          f"({len(checks)} equations)")
    print(f"  relation carrier flags: {sorted(classify(R.carrier).flags)}")
    print()

    print("== the cover's own kernel pair is the Galois relation")
    Rcov = kernel_pair(cover.projection)
    print(f"  carrier flags: {sorted(classify(Rcov.carrier).flags)}")
    print("  (it lies in the partially ordered subcategory, so reflecting "
          "it changes nothing)")


if __name__ == "__main__":
    main()
