"""Canonical covers, kernel pairs, discrete fibrations, coverings."""

import pytest
from conftest import deadline, group_window

from preordgrp.cones import (
    cone_contains,
    explicit_cone,
    generator_cone,
    total_cone,
    transport_product,
)
from preordgrp.descent import (
    canonical_cover,
    is_covering,
    is_covering_along,
    is_discrete_fibration,
    kernel_pair,
)
from preordgrp.groups import (
    cyclic_group,
    direct_product,
    factor_through_legs,
    make_fgab_group,
    make_hom,
)
from preordgrp.pog import (
    PreorderedGroup,
    classify,
    compose_pog,
    identity_morphism,
    make_pog,
    make_pog_morphism,
    morphism_class,
    pog_pullback,
    structural_morphism,
    zero_morphism,
    zero_object,
)

Z = make_fgab_group(1, [])
Zmod2 = make_fgab_group(0, [2])
ZN = make_pog(Z, generator_cone(Z, [Z.elem([1])]))
Z2tot = make_pog(Zmod2, total_cone(Zmod2))


def mod2():
    return make_pog_morphism(make_hom(Z, Zmod2, [Zmod2.elem([1])]), ZN, Z2tot)


class TestCanonicalCover:
    def test_predicate_on_z2_total(self):
        cone = canonical_cover(Z2tot).realized.cone
        H = cone.group  # Z x Z/2, the new free coordinate first
        assert cone_contains(cone, H.elem([1, 1]))
        assert not cone_contains(cone, H.elem([0, 1]))
        assert not cone_contains(cone, H.elem([-1, 0]))
        assert cone_contains(cone, H.elem([0, 0]))

    def test_reducedness_window_scan(self):
        # a reference scan through membership alone, not through units
        cone = canonical_cover(Z2tot).realized.cone
        for x in group_window(cone.group, 3):
            if not x.is_zero():
                assert not (cone_contains(cone, x)
                            and cone_contains(cone, -x)), x

    def test_projection_cone_surjectivity(self):
        cover = canonical_cover(ZN)
        H = cover.realized.group
        # 7 in the naturals lifts to (1, 7)
        assert cone_contains(cover.realized.cone, H.elem([1, 7]))
        rep = morphism_class(cover.projection)
        assert rep.normal_epi and rep.effective_descent

    def test_cover_is_partially_ordered(self):
        for P in (ZN, Z2tot):
            cover = canonical_cover(P)
            cls = classify(cover.realized)
            assert "partially_ordered" in cls
            assert "total" not in cls

    def test_corpus_covers_clean_and_normal_epi(self):
        from preordgrp.corpus import corpus_objects
        for name, P in corpus_objects().items():
            cover = canonical_cover(P)
            assert cover.axioms.ok, name
            if cover.realized is not None:
                assert morphism_class(cover.projection).normal_epi, name

    def test_nonabelian_base_stays_virtual(self):
        from preordgrp.corpus import symmetric_group_3
        S3 = symmetric_group_3()
        P = make_pog(S3, explicit_cone(S3, [S3.zero]))
        cover = canonical_cover(P)
        assert cover.realized is None
        assert cover.axioms.ok

    # the cover is closed exactly where its base is, so a base that is not
    # a cone (built without make_pog's validation) shows in the report
    def test_unclosed_base_fails_closure(self):
        Z4 = cyclic_group(4)
        P = PreorderedGroup(Z4, explicit_cone(Z4, [Z4.elem(0), Z4.elem(1)]))
        axioms = canonical_cover(P).axioms
        assert axioms.ok is False
        assert axioms.first_witness() == ("closure", (Z4.elem(1), Z4.elem(1)))

    def test_non_normal_base_fails_conjugation(self):
        from preordgrp.corpus import symmetric_group_3
        S3 = symmetric_group_3()
        P = PreorderedGroup(S3, explicit_cone(S3, [S3.zero, S3.elem("102")]))
        axioms = canonical_cover(P).axioms
        assert axioms.ok is False
        assert {kind for kind, _ in axioms.failures} == {"conjugation"}


class TestKernelPairs:
    def test_identity_gives_diagonal(self):
        R = kernel_pair(identity_morphism(ZN))
        assert all(R.verify_identities().values())
        # diagonal relation: projections agree everywhere
        for a in range(-2, 3):
            x = R.carrier.group.elem([a])
            assert R.r1.hom(x) == R.r2.hom(x)

    def test_mod2_pairs(self):
        R = kernel_pair(mod2())
        assert all(R.verify_identities().values())
        assert R.carrier.group.rank == 2

    def test_zero_map_total_relation(self):
        R = kernel_pair(zero_morphism(ZN, zero_object()))
        assert R.carrier.group.rank == 2
        assert all(R.verify_identities().values())

    def test_finite_kernel_pair(self):
        G = cyclic_group(4)
        H = cyclic_group(2)
        P = make_pog(G, explicit_cone(G, [G.elem(0), G.elem(2)]))
        Q = make_pog(H, explicit_cone(H, [H.zero]))
        m = make_pog_morphism(
            make_hom(G, H, [H.elem(i % 2) for i in range(4)]), P, Q)
        R = kernel_pair(m)
        assert R.carrier.group.order() == 8
        assert all(R.verify_identities().values())

    def test_finite_into_fgab_kernel_pair(self):
        # the pullback is computed in fgab form with legs into C2
        C2, Zmod2 = cyclic_group(2), make_fgab_group(0, [2])
        m = make_pog_morphism(
            make_hom(C2, Zmod2, [Zmod2.elem([0]), Zmod2.elem([1])]),
            make_pog(C2, total_cone(C2)), make_pog(Zmod2, total_cone(Zmod2)))
        R = kernel_pair(m)
        assert all(R.verify_identities().values())


class TestDiscreteFibrations:
    def test_identity_fibration(self):
        R = kernel_pair(mod2())
        rep = is_discrete_fibration(identity_morphism(R.carrier),
                                    identity_morphism(ZN), R, R)
        assert rep.holds

    def test_canonical_fibration_of_pullback(self):
        # pulling a morphism back along itself induces a discrete fibration
        # between the kernel pairs of the projections
        m = mod2()
        lim = pog_pullback(m, m)
        Eq = kernel_pair(m)
        pairs2 = kernel_pair(lim.legs[1])
        f1_hom = factor_through_legs(
            [leg.hom for leg in pog_pullback(m, m).legs],
            [compose_pog(lim.legs[0], pairs2.r1).hom,
             compose_pog(lim.legs[0], pairs2.r2).hom])
        f1 = structural_morphism(f1_hom, pairs2.carrier, Eq.carrier, "induced")
        rep = is_discrete_fibration(f1, lim.legs[0], pairs2, Eq)
        assert rep.holds

    def test_collapse_fails(self):
        Rz = kernel_pair(zero_morphism(ZN, zero_object()))
        Rid = kernel_pair(identity_morphism(ZN))
        f1_hom = factor_through_legs(
            [leg.hom for leg in pog_pullback(identity_morphism(ZN),
                                             identity_morphism(ZN)).legs],
            [Rz.r1.hom, Rz.r1.hom])
        f1 = structural_morphism(f1_hom, Rz.carrier, Rid.carrier, "collapse")
        rep = is_discrete_fibration(f1, identity_morphism(ZN), Rz, Rid)
        assert not rep.holds

    def test_first_square_must_commute(self):
        # the swap of Eq(mod 2) over the identity: r1 . sigma = r2 != r1
        R = kernel_pair(mod2())
        rep = is_discrete_fibration(R.sigma, identity_morphism(ZN), R, R)
        assert (rep.holds, rep.detail) == (False,
                                           "first square does not commute")

    def test_square_must_be_a_pullback(self):
        # the discrete relation on ZN inside the total one: both squares
        # commute, but the diagonal is not all pairs
        Rid = kernel_pair(identity_morphism(ZN))
        Rz = kernel_pair(zero_morphism(ZN, zero_object()))
        f1_hom = factor_through_legs([Rz.r1.hom, Rz.r2.hom],
                                     [Rid.r1.hom, Rid.r2.hom])
        f1 = structural_morphism(f1_hom, Rid.carrier, Rz.carrier, "diagonal")
        rep = is_discrete_fibration(f1, identity_morphism(ZN), Rid, Rz)
        assert (rep.holds, rep.detail) == (False, "square is not a pullback")

    def test_galois_relation_of_cover_is_partially_ordered(self):
        # the kernel pair of the realized cover projection lies in the
        # partially ordered subcategory
        cover = canonical_cover(ZN)
        R = kernel_pair(cover.projection)
        assert "partially_ordered" in classify(R.carrier)

    @pytest.mark.parametrize("torsion", [8, 3])
    def test_cover_side_fibration_is_exact(self, torsion):
        # the comparison into the pullback over the cover cone has no
        # generators, so its iso verdict is an inclusion of linear pieces,
        # whatever torsion the base carries.  The base is ZN with a
        # Z/torsion summand in its group of units.
        G = make_fgab_group(1, [torsion])
        cover = canonical_cover(make_pog(G, generator_cone(G, [G.elem([1, 0])])))
        R = kernel_pair(cover.projection)
        rep = is_discrete_fibration(identity_morphism(R.carrier),
                                    identity_morphism(cover.realized), R, R)
        assert rep.holds

    def test_identity_fibrations_over_every_cover(self):
        # over Z2_ZxN this once took 8.9 s, a width-8 window of 17^4
        # points over a rank-4 pullback of cover cones; 2-7 ms each now
        from preordgrp.corpus import fgab_corpus_objects
        from preordgrp.pog import _is_iso
        pog_pullback.cache_clear()
        _is_iso.cache_clear()
        with deadline(2):
            for name, P in sorted(fgab_corpus_objects().items()):
                cover = canonical_cover(P)
                R = kernel_pair(cover.projection)
                rep = is_discrete_fibration(
                    identity_morphism(R.carrier),
                    identity_morphism(cover.realized), R, R)
                assert rep.holds, name


class TestCoverings:
    def test_mod2_is_covering(self):
        assert is_covering(mod2())

    def test_projection_is_not(self):
        pr = direct_product(Z, Z)
        cone = transport_product(total_cone(Z),
                                 generator_cone(Z, [Z.elem([1])]),
                                 pr.group, pr.proj1, pr.proj2)
        dom = make_pog(pr.group, cone)
        m = make_pog_morphism(
            make_hom(pr.group, Z, [Z.elem([0]), Z.elem([1])]), dom, ZN)
        assert not is_covering(m)

    def test_identity_is_covering(self):
        assert is_covering(identity_morphism(ZN))


class TestCoveringAlong:
    def test_mod2_along_cover_of_its_codomain(self):
        cover = canonical_cover(Z2tot)
        assert is_covering_along(mod2(), cover.projection)

    def test_identity_along_any_normal_epi(self):
        cover = canonical_cover(Z2tot)
        assert is_covering_along(identity_morphism(Z2tot), cover.projection)

    def test_non_covering_detected(self):
        pr = direct_product(Z, Z)
        cone = transport_product(total_cone(Z),
                                 generator_cone(Z, [Z.elem([1])]),
                                 pr.group, pr.proj1, pr.proj2)
        dom = make_pog(pr.group, cone)
        m = make_pog_morphism(
            make_hom(pr.group, Z, [Z.elem([0]), Z.elem([1])]), dom, ZN)
        coverN = canonical_cover(ZN)
        assert not is_covering_along(m, coverN.projection)

    def test_rejects_non_normal_epi(self):
        with pytest.raises(ValueError):
            is_covering_along(identity_morphism(ZN),
                              make_pog_morphism(
                                  make_hom(Z, Z, [Z.elem([2])]), ZN, ZN))


class TestImageOfKFibrations:
    def test_corpus_pullback_diagrams_are_fibrations(self):
        """For normal epis p and arbitrary f with the same codomain, the
        induced map between the kernel pairs of pi2 and of p is a discrete
        fibration over the first projection."""
        from preordgrp.corpus import finite_corpus_objects_up_to
        from preordgrp.oracle import enumerate_pog_morphisms
        from preordgrp.pog import morphism_class
        objs = sorted(finite_corpus_objects_up_to(4).items())[:6]
        checked = 0
        for pn, P in objs:
            for qn, Q in objs:
                for p in enumerate_pog_morphisms(P, Q):
                    if not morphism_class(p).normal_epi:
                        continue
                    for an, A in objs[:3]:
                        for f in enumerate_pog_morphisms(A, Q)[:2]:
                            lim = pog_pullback(p, f)
                            Eq_p = kernel_pair(p)
                            Eq_pi2 = kernel_pair(lim.legs[1])
                            f1_hom = factor_through_legs(
                                [leg.hom for leg in pog_pullback(p, p).legs],
                                [compose_pog(lim.legs[0], Eq_pi2.r1).hom,
                                 compose_pog(lim.legs[0], Eq_pi2.r2).hom])
                            f1 = structural_morphism(
                                f1_hom, Eq_pi2.carrier, Eq_p.carrier, "induced")
                            rep = is_discrete_fibration(
                                f1, lim.legs[0], Eq_pi2, Eq_p)
                            assert rep.holds, (pn, qn, an)
                            checked += 1
                    if checked > 40:
                        return
        assert checked > 0


class TestBaseComesBackFromItsCover:
    """The coequalizer of the kernel pair of a cover projection is the base
    again.  Its cone is the image of the cover cone, which the pieces of
    that image show to be generated by the base's generators, so it is
    classified and decomposed like the base."""

    def test_coequalizer_of_the_kernel_pair(self):
        from preordgrp.cones import ImageCone, extract_generators
        from preordgrp.corpus import fgab_corpus_objects
        from preordgrp.groups import factor_through_epi
        from preordgrp.pog import pog_coequalizer, pog_is_iso
        from preordgrp.torsion import pretorsion_sequence, torsion_sequence
        for name, P in sorted(fgab_corpus_objects().items()):
            p = canonical_cover(P).projection
            R = kernel_pair(p)
            Q, q = pog_coequalizer(R.r1, R.r2)
            assert isinstance(Q.cone, ImageCone), name
            cmp = structural_morphism(factor_through_epi(q.hom, p.hom), Q, P,
                                      "comparison")
            assert sorted(cmp.hom(g).coords
                          for g in extract_generators(Q.cone)) == \
                sorted(g.coords for g in extract_generators(P.cone)), name
            assert classify(Q) == classify(P).flags, name
            assert torsion_sequence(Q).certificate.holds, name
            assert pretorsion_sequence(Q).certificate.holds, name
            assert pog_is_iso(cmp), name

    def test_cokernel_of_a_non_surjection_out_of_the_cover(self):
        # (n, g) -> (n, 0) on the cover of (Z, N) has image Z x 0, and
        # e = (1, 0) is no unit of the cover cone; the cokernel cone is N
        from preordgrp.pog import pog_cokernel
        from preordgrp.torsion import torsion_sequence
        cover = canonical_cover(ZN).realized
        H = cover.group
        m = structural_morphism(make_hom(H, H, [H.elem([1, 0]), H.zero]),
                                cover, cover, "(n, g) -> (n, 0)")
        Q, proj = pog_cokernel(m)
        assert classify(Q) == classify(ZN).flags
        assert torsion_sequence(Q).certificate.holds
