"""Torsion and pretorsion decompositions, their functors and units."""

import itertools

import pytest
from conftest import deadline

from preordgrp.cones import (
    cone_contains,
    explicit_cone,
    generator_cone,
    total_cone,
    units,
)
from preordgrp.errors import NotComparable
from preordgrp.groups import (
    cyclic_group,
    identity_hom,
    make_fgab_group,
    make_hom,
)
from preordgrp.pog import (
    classify,
    compose_pog,
    identity_morphism,
    make_pog,
    make_pog_morphism,
    morphism_class,
    pog_is_iso,
    zero_morphism,
    zero_object,
)
from preordgrp.torsion import (
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

Z = make_fgab_group(1, [])
Z2 = make_fgab_group(2, [])
Zmod2 = make_fgab_group(0, [2])
Zmod4 = make_fgab_group(0, [4])

ZN = make_pog(Z, generator_cone(Z, [Z.elem([1])]))
ZZ = make_pog(Z, total_cone(Z))
Zdisc = make_pog(Z, generator_cone(Z, []))
Z2tot = make_pog(Zmod2, total_cone(Zmod2))
P42 = make_pog(Zmod4, generator_cone(Zmod4, [Zmod4.elem([2])]))


def mod2():
    return make_pog_morphism(make_hom(Z, Zmod2, [Zmod2.elem([1])]), ZN, Z2tot)


class TestTorsionSequence:
    def test_naturals(self):
        dec = torsion_sequence(ZN)
        assert dec.torsion_part.group.order() == 1
        assert dec.free_part.group.rank == 1
        assert dec.certificate.holds

    def test_half_cone_fgab(self):
        dec = torsion_sequence(P42)
        assert dec.torsion_part.group.order() == 2
        assert dec.free_part.group.torsion == (2,)
        assert not cone_contains(dec.free_part.cone,
                                 dec.free_part.group.elem([1]))
        assert dec.certificate.holds

    def test_all_units_plane(self):
        c = generator_cone(Z2, [Z2.elem([1, 0]), Z2.elem([0, 1]),
                                Z2.elem([-1, -1])])
        dec = torsion_sequence(make_pog(Z2, c))
        assert dec.torsion_part.group.rank == 2
        assert dec.free_part.group.order() == 1

    def test_corpus_wide_properties(self):
        from preordgrp.corpus import corpus_objects
        for name, P in corpus_objects().items():
            dec = torsion_sequence(P)
            assert dec.certificate.holds, name
            assert "total" in classify(dec.torsion_part), name
            assert "partially_ordered" in classify(dec.free_part), name
            # reducedness of the quotient cone re-verified through units
            assert units(dec.free_part.cone).is_trivial(), name

    def test_unit_normal_epi_counit_normal_mono(self):
        from preordgrp.corpus import corpus_objects
        for name, P in corpus_objects().items():
            dec = torsion_sequence(P)
            assert morphism_class(dec.unit).normal_epi, name
            assert morphism_class(dec.counit).normal_mono, name

    def test_cone_with_mixed_signs(self):
        # the box search once crawled here: the sign-definite rows left
        # the multiplicities unbounded
        G = make_fgab_group(2, [2])
        P = make_pog(G, generator_cone(G, [G.elem(v) for v in (
            [-2, 0, 0], [-2, -1, 0], [2, 2, 1])]))
        with deadline(5):
            dec = torsion_sequence(P)
            assert dec.certificate.holds

    def test_one_decomposition_per_object(self):
        # the factorization classes and the pretorsion sequence reuse the
        # cached torsion sequence instead of keying a second entry
        from preordgrp.corpus import corpus_objects
        from preordgrp.factor import in_class
        objects = list(corpus_objects().values())
        torsion_sequence.cache_clear()
        pretorsion_sequence.cache_clear()
        for P in objects:
            torsion_sequence(P)
        for P in objects:
            assert in_class(identity_morphism(P), "E").holds
            assert pretorsion_sequence(P).certificate.holds
        assert torsion_sequence.cache_info().misses == len(set(objects))


class TestReflectorFunctor:
    def test_reflect_identity(self):
        Fm = reflect_F(identity_morphism(ZN))
        assert Fm.hom.images == identity_hom(Z).images

    def test_reflect_mod2_collapses(self):
        Fm = reflect_F(mod2())
        assert Fm.cod.group.order() == 1
        assert Fm.is_zero()

    def test_reflect_doubling_on_total(self):
        dbl = make_pog_morphism(make_hom(Z, Z, [Z.elem([2])]), ZZ, ZZ)
        Fm = reflect_F(dbl)
        assert Fm.dom.group.order() == 1 and Fm.cod.group.order() == 1

    def test_functoriality_on_composites(self):
        from preordgrp.oracle import enumerate_pog_morphisms
        ms = enumerate_pog_morphisms(ZN, ZN, 2)
        for m1 in ms:
            for m2 in ms:
                lhs = reflect_F(compose_pog(m2, m1))
                rhs = compose_pog(reflect_F(m2), reflect_F(m1))
                assert lhs.hom.images == rhs.hom.images

    def test_idempotence(self):
        from preordgrp.corpus import corpus_objects
        for name, P in corpus_objects().items():
            dec = torsion_sequence(P)
            dec2 = torsion_sequence(dec.free_part)
            assert pog_is_iso(dec2.unit), name


class TestCoreflector:
    def test_restriction_of_mod2(self):
        Tm = coreflect_T(mod2())
        assert Tm.dom.group.order() == 1
        assert Tm.cod.group.order() == 2

    def test_half_cone_into_total(self):
        m = make_pog_morphism(identity_hom(Zmod4), P42,
                              make_pog(Zmod4, total_cone(Zmod4)))
        Tm = coreflect_T(m)
        assert Tm.dom.group.order() == 2 and Tm.cod.group.order() == 4
        assert morphism_class(Tm).mono

    def test_identity(self):
        Tm = coreflect_T(identity_morphism(P42))
        assert Tm.hom.images == identity_hom(Tm.dom.group).images


class TestHomZero:
    def test_fgab_pairs(self):
        rep = hom_torsion_to_free_is_zero(ZZ, ZN)
        assert rep.holds and rep.bound == 10
        rep2 = hom_torsion_to_free_is_zero(ZZ, Zdisc)
        assert rep2.holds

    def test_finite_example_counts(self):
        G = cyclic_group(4)
        total = make_pog(G, explicit_cone(G, G.elements()))
        disc = make_pog(G, explicit_cone(G, [G.zero]))
        rep = hom_torsion_to_free_is_zero(total, disc)
        assert rep.holds and rep.morphisms_found == 1

    def test_zero_source(self):
        rep = hom_torsion_to_free_is_zero(zero_object(), ZN)
        assert rep.holds

    def test_rejects_wrong_classification(self):
        with pytest.raises(ValueError):
            hom_torsion_to_free_is_zero(ZN, ZN)


class TestUniqueness:
    def test_canonical_vs_canonical(self):
        dec = torsion_sequence(P42)
        t, f = uniqueness_check(P42, dec.counit, dec.unit)
        assert pog_is_iso(t) and pog_is_iso(f)

    def test_relabeled_copy_finite(self):
        # relabel the canonical sequence of (Z/4, {0,2}) through a coset
        # permutation of the quotient and verify a (possibly nonidentity)
        # comparison iso is produced
        G = cyclic_group(4)
        P = make_pog(G, explicit_cone(G, [G.elem(0), G.elem(2)]))
        dec = torsion_sequence(P)
        Q = dec.free_part
        # automorphism of the quotient group (Z/2 has only the identity,
        # so relabel through an isomorphic copy with swapped element order)
        H = cyclic_group(2)
        iso = make_hom(Q.group, H, [H.elem(i) for i in
                                    range(2)]) if Q.group.order() == 2 else None
        relabeled_cod = make_pog(H, explicit_cone(
            H, [iso(x) for x in _members(Q.cone)]))
        alt_f = make_pog_morphism(
            make_hom(P.group, H, [iso(dec.unit.hom(x)) for x in
                                  P.group.elements()]), P, relabeled_cod)
        t, f = uniqueness_check(P, dec.counit, alt_f)
        assert pog_is_iso(f)

    def test_gate_rejects_non_total_kernel(self):
        # the discrete inclusion is not a torsion part
        zinc = make_pog_morphism(identity_hom(Z), Zdisc, ZN)
        with pytest.raises(NotComparable):
            uniqueness_check(ZN, zinc, zero_morphism(ZN, zero_object()))


def _members(cone):
    from preordgrp.cones import SubgroupCone
    assert isinstance(cone, SubgroupCone)
    return sorted(cone.members, key=lambda e: e.coords)


class TestZTrivial:
    def test_zero_morphism(self):
        rep = is_z_trivial(zero_morphism(ZN, ZN))
        assert rep.holds and rep.through.group.order() == 1

    def test_total_to_reduced_forced(self):
        # any morphism from a total object to a reduced one factors through
        # the discretely ordered image
        from preordgrp.oracle import enumerate_pog_morphisms
        for m in enumerate_pog_morphisms(ZZ, ZN, 3):
            rep = is_z_trivial(m)
            assert rep.holds
            assert "discrete" in classify(rep.through)

    def test_identity_not_trivial(self):
        rep = is_z_trivial(identity_morphism(ZN))
        assert not rep.holds and rep.witness is not None

    def test_cover_verdict_kills_offsets_and_periods(self):
        from preordgrp.descent import canonical_cover
        cover = canonical_cover(ZN)
        assert is_z_trivial(zero_morphism(cover.realized, zero_object()))
        # the projection kills the offset (1, 0) but not the period (0, 1)
        rep = is_z_trivial(cover.projection)
        assert not rep.holds and rep.witness.coords == (0, 1)
        assert pretorsion_sequence(ZN).certificate.holds

    def test_factorization_recomposes(self):
        m = zero_morphism(P42, P42)
        rep = is_z_trivial(m)
        comp = compose_pog(rep.right, rep.left)
        assert comp.hom.images == m.hom.images


class TestPretorsion:
    def test_half_cone(self):
        dec = pretorsion_sequence(P42)
        assert dec.certificate.holds
        assert dec.torsion_part.group == Zmod4
        assert "protomodular" in classify(dec.torsion_part)
        assert "partially_ordered" in classify(dec.free_part)
        # N = P here: the counit is the identity on the cone level
        assert units(P42.cone).contains(Zmod4.elem([2]))

    def test_naturals(self):
        dec = pretorsion_sequence(ZN)
        assert "discrete" in classify(dec.torsion_part)
        assert dec.free_part.group.rank == 1

    def test_total(self):
        dec = pretorsion_sequence(ZZ)
        assert "total" in classify(dec.torsion_part)
        assert dec.free_part.group.order() == 1

    def test_composite_z_trivial_corpus_wide(self):
        from preordgrp.corpus import corpus_objects
        for name, P in corpus_objects().items():
            dec = pretorsion_sequence(P)
            comp = compose_pog(dec.unit, dec.counit)
            assert is_z_trivial(comp).holds, name


class TestProtoReflect:
    def test_naturals_reflect_to_total(self):
        EP, unit = proto_reflect(ZN)
        assert classify(EP) == {"total", "protomodular"}

    def test_discrete_fixed(self):
        EP, _ = proto_reflect(Zdisc)
        assert "discrete" in classify(EP)

    def test_skew_plane(self):
        c = generator_cone(Z2, [Z2.elem([1, 0]), Z2.elem([1, 1])])
        EP, _ = proto_reflect(make_pog(Z2, c))
        assert "total" in classify(EP)

    def test_minimality_on_finite_backend(self):
        """No proper subgroup between the cone and its generated subgroup."""
        from preordgrp.corpus import finite_corpus_objects
        from preordgrp.cones import generated_subgroup
        for name, P in finite_corpus_objects().items():
            M = generated_subgroup(P.cone)
            G = P.group
            members = set(_cone_members(P.cone))
            rest = [x for x in G.elements() if x != G.zero]
            for r in range(len(rest) + 1):
                for combo in itertools.combinations(rest, r):
                    S = set(combo) | {G.zero}
                    if not members <= S:
                        continue
                    if any(a + b not in S for a in S for b in S):
                        continue
                    if any(-a not in S for a in S):
                        continue
                    # S is a subgroup containing the cone: M must sit inside
                    assert all(x in S for x in M.elements), name

    def test_universal_property_against_protomodular_targets(self):
        from preordgrp.corpus import corpus_objects
        from preordgrp.oracle import enumerate_pog_morphisms
        targets = [P for P in corpus_objects().values()
                   if "protomodular" in classify(P)
                   and P.group.backend == "fgab"]
        for P in (ZN, Zdisc):
            EP, unit = proto_reflect(P)
            for T in targets:
                for m in enumerate_pog_morphisms(P, T, 1):
                    # factorization through the unit: same group map, and
                    # it must preserve the bigger cone
                    phi = m.hom
                    from preordgrp.pog import cone_preservation
                    ok, bad, _ = cone_preservation(phi, EP.cone, T.cone)
                    assert ok, (P, T, phi)


def _cone_members(cone):
    from preordgrp.cones import SubgroupCone
    if isinstance(cone, SubgroupCone):
        return cone.members
    raise AssertionError


class TestProtoCoreflect:
    def test_naturals(self):
        TP, counit = proto_coreflect(ZN)
        assert "discrete" in classify(TP)

    def test_half_cone_already_group(self):
        TP, _ = proto_coreflect(P42)
        assert cone_contains(TP.cone, Zmod4.elem([2]))
        assert "protomodular" in classify(TP)

    def test_halfplane_units(self):
        c = generator_cone(Z2, [Z2.elem([2, 0]), Z2.elem([-1, 0]),
                                Z2.elem([0, 1])])
        TP, _ = proto_coreflect(make_pog(Z2, c))
        assert cone_contains(TP.cone, Z2.elem([-3, 0]))
        assert not cone_contains(TP.cone, Z2.elem([0, 1]))
