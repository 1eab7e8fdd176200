"""Factor one morphism two ways and classify the pieces.

The reflective system (E, M) factors through a pullback along the unit of
the torsion-free reflection; the monotone-light system (E', M*) quotients
by the units of the kernel first and what remains is a covering.

Run:  python demos/monotone_light.py
"""

from preordgrp import (
    em_factor,
    generator_cone,
    in_class,
    make_fgab_group,
    make_hom,
    make_pog,
    make_pog_morphism,
    ml_factor,
    total_cone,
)
from preordgrp.cones import transport_product
from preordgrp.groups import direct_product


def describe(tag, fr):
    print(f"  {fr.system} factorization {tag}:")
    print(f"    mid object: {fr.mid.group!r}")
    print(f"    e in {fr.e_class.cls}: {fr.e_class.holds}")
    print(f"    m in {fr.m_class.cls}: {fr.m_class.holds}")


def main():
    Z = make_fgab_group(1, [])
    Z2 = make_fgab_group(0, [2])
    ZN = make_pog(Z, generator_cone(Z, [Z.elem([1])]))
    Z2tot = make_pog(Z2, total_cone(Z2))

    print("== reduction mod 2 from (Z, naturals) onto (Z/2, total)")
    mod2 = make_pog_morphism(make_hom(Z, Z2, [Z2.elem([1])]), ZN, Z2tot)
    for cls in ("E", "M", "Eprime", "Mstar"):
        print(f"  in {cls}: {in_class(mod2, cls).holds}")
    describe("of mod 2", em_factor(mod2))
    describe("of mod 2", ml_factor(mod2))
    print()

    print("== projection (Z^2, Z x N) -> (Z, N): inverted by the reflector")
    pr = direct_product(Z, Z)
    cone = transport_product(total_cone(Z), generator_cone(Z, [Z.elem([1])]),
                             pr.group, pr.proj1, pr.proj2)
    dom = make_pog(pr.group, cone)
    proj = make_pog_morphism(
        make_hom(pr.group, Z, [Z.elem([0]), Z.elem([1])]), dom, ZN)
    for cls in ("E", "M", "Eprime", "Mstar"):
        print(f"  in {cls}: {in_class(proj, cls).holds}")
    describe("of the projection", ml_factor(proj))


if __name__ == "__main__":
    main()
