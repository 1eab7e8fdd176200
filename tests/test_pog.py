"""Objects and morphisms of the category, limits, colimits, classification."""

import pytest

import preordgrp.groups as groups_module
from preordgrp.cones import (
    _units,
    cone_contains,
    explicit_cone,
    generator_cone,
    total_cone,
)
from preordgrp.descent import canonical_cover
from preordgrp.errors import (
    ConeAxiomViolation,
    ConeNotPreserved,
    ImageNotNormal,
)
from preordgrp.groups import (
    cyclic_group,
    identity_hom,
    make_fgab_group,
    make_hom,
)
from preordgrp.pog import (
    SequenceCertificate,
    _cone_map_surjective,
    _is_iso,
    classify,
    compose_pog,
    cone_map_surjective,
    cone_square_is_pullback,
    identity_morphism,
    induced_morphism,
    is_normal_epi,
    is_short_exact,
    make_pog,
    make_pog_morphism,
    morphism_class,
    pog_coequalizer,
    pog_cokernel,
    pog_equalizer,
    pog_is_iso,
    pog_kernel,
    pog_product,
    pog_pullback,
    structural_morphism,
    zero_morphism,
    zero_object,
)

Z = make_fgab_group(1, [])
Z2 = make_fgab_group(2, [])
Zmod2 = make_fgab_group(0, [2])
Zmod4 = make_fgab_group(0, [4])

ZN = make_pog(Z, generator_cone(Z, [Z.elem([1])]))
ZZ = make_pog(Z, total_cone(Z))
Zdisc = make_pog(Z, generator_cone(Z, []))
Z2tot = make_pog(Zmod2, total_cone(Zmod2))


def mod2():
    return make_pog_morphism(make_hom(Z, Zmod2, [Zmod2.elem([1])]), ZN, Z2tot)


class TestMakePog:
    def test_valid(self):
        assert make_pog(Z, generator_cone(Z, [Z.elem([1])])).group == Z

    def test_s3_closure_failure(self):
        from preordgrp.corpus import symmetric_group_3
        S3 = symmetric_group_3()
        r = next(x for x in S3.elements()
                 if x + x != S3.zero and x + x + x == S3.zero)
        with pytest.raises(ConeAxiomViolation) as exc:
            make_pog(S3, explicit_cone(S3, [S3.zero, r]))
        assert exc.value.witness is not None

    def test_z4_half_cone_valid(self):
        G = cyclic_group(4)
        P = make_pog(G, explicit_cone(G, [G.elem(0), G.elem(2)]))
        assert P.group.order() == 4


class TestClassify:
    def test_naturals(self):
        assert classify(ZN) == {"partially_ordered"}

    def test_total(self):
        assert classify(ZZ) == {"total", "protomodular"}

    def test_discrete(self):
        assert classify(Zdisc) == {"partially_ordered", "protomodular",
                                   "discrete"}

    def test_half_cone(self):
        P = make_pog(Zmod4, generator_cone(Zmod4, [Zmod4.elem([2])]))
        cls = classify(P)
        assert "protomodular" in cls
        assert "partially_ordered" not in cls and "total" not in cls

    def test_discrete_implies_both(self):
        from preordgrp.corpus import corpus_objects
        for name, P in corpus_objects().items():
            cls = classify(P)
            if "discrete" in cls:
                assert "protomodular" in cls and "partially_ordered" in cls


class TestMorphisms:
    def test_identity_valid(self):
        m = make_pog_morphism(identity_hom(Z), ZN, ZN)
        assert m.certificate.kind == "generators"

    def test_cone_not_preserved(self):
        with pytest.raises(ConeNotPreserved) as exc:
            make_pog_morphism(identity_hom(Z), ZZ, ZN)
        assert exc.value.generator is not None

    def test_mod2_valid(self):
        assert mod2().certificate.kind == "generators"

    def test_composition_certificates(self):
        m = mod2()
        comp = compose_pog(identity_morphism(Z2tot), m)
        assert comp.hom.images == m.hom.images
        assert comp.certificate.kind == "generators"

    def test_induced_morphism_certificates(self):
        m = induced_morphism(mod2().hom, ZN, Z2tot, "unused")
        assert m.certificate.kind == "generators"
        assert [bool(v) for _, v in m.certificate.verdicts] == [True]
        # a pullback of cover cones has no generators to certify on
        cover = canonical_cover(ZN)
        lim = pog_pullback(cover.projection, cover.projection)
        s = induced_morphism(lim.legs[0].hom, lim.obj, cover.realized, "leg")
        assert s.certificate.kind == "structural"
        assert s.certificate.note == "leg"

    def test_pullback_leg_certified_on_generators(self):
        lim = pog_pullback(mod2(), mod2())
        s = induced_morphism(lim.legs[0].hom, lim.obj, ZN, "leg")
        assert s.certificate.kind == "generators"
        assert classify(lim.obj).exact


class TestKernelCokernel:
    def test_kernel_of_mod2(self):
        K, inj = pog_kernel(mod2())
        assert K.group.rank == 1
        assert classify(K) == {"partially_ordered"}
        rep = morphism_class(inj)
        assert rep.mono and rep.normal_mono

    def test_kernel_of_identity(self):
        K, _ = pog_kernel(identity_morphism(ZN))
        assert K.group.order() == 1

    def test_kernel_of_projection_is_total(self):
        lim = pog_product(ZZ, ZN)
        K, inj = pog_kernel(lim.legs[1])
        assert "total" in classify(K)
        assert K.group.rank == 1

    def test_cokernel_of_even_inclusion(self):
        K, inj = pog_kernel(mod2())
        Q, proj = pog_cokernel(inj)
        assert Q.group.torsion == (2,)
        assert classify(Q) == {"total", "protomodular"}
        assert morphism_class(proj).normal_epi

    def test_cokernel_of_zero(self):
        z = zero_morphism(zero_object(), ZN)
        Q, _ = pog_cokernel(z)
        assert Q.group.rank == 1
        assert classify(Q) == {"partially_ordered"}

    def test_finite_cokernel_coset(self):
        # ({0,2} total) into (Z/4, {0,2}): cokernel is (Z/2, {0})
        G = cyclic_group(4)
        P = make_pog(G, explicit_cone(G, [G.elem(0), G.elem(2)]))
        K, inj = pog_kernel(make_pog_morphism(
            make_hom(G, cyclic_group(2),
                     [cyclic_group(2).elem(i % 2) for i in range(4)]),
            P, make_pog(cyclic_group(2),
                        explicit_cone(cyclic_group(2), [cyclic_group(2).zero]))))
        Q, proj = pog_cokernel(inj)
        assert Q.group.order() == 2
        assert classify(Q) == {"partially_ordered", "protomodular", "discrete"}

    def test_cokernel_of_non_normal_image(self):
        from preordgrp.corpus import symmetric_group_3
        S3 = symmetric_group_3()
        flip = next(x for x in S3.elements()
                    if x + x == S3.zero and x != S3.zero)
        C2 = cyclic_group(2)
        inc = make_hom(C2, S3, [S3.zero, flip])
        m = make_pog_morphism(inc, make_pog(C2, explicit_cone(C2, [C2.zero])),
                              make_pog(S3, explicit_cone(S3, [S3.zero])))
        with pytest.raises(ImageNotNormal,
                           match="image is not normal in the codomain"):
            pog_cokernel(m)


class TestLimits:
    def test_product(self):
        lim = pog_product(ZN, ZN)
        assert lim.obj.group.rank == 2
        assert cone_contains(lim.obj.cone, lim.obj.group.elem([1, 2]))
        assert not cone_contains(lim.obj.cone, lim.obj.group.elem([1, -2]))

    def test_equalizer_of_id_and_negation(self):
        neg = make_pog_morphism(make_hom(Z, Z, [Z.elem([-1])]), ZZ, ZZ)
        lim = pog_equalizer(identity_morphism(ZZ), neg)
        assert lim.obj.group.order() == 1

    def test_pullback_of_mod2_pair(self):
        m = mod2()
        lim = pog_pullback(m, m)
        P = lim.obj
        assert P.group.rank == 2
        # cone = pairs of naturals with matching parity
        for a in range(-2, 3):
            for b in range(-2, 3):
                x = P.group.elem([a, b])
                p, q = lim.legs[0].hom(x), lim.legs[1].hom(x)
                expected = p.coords[0] >= 0 and q.coords[0] >= 0
                assert bool(cone_contains(P.cone, x)) == expected

    def test_projections_jointly_monic(self):
        lim = pog_product(ZN, Z2tot)
        seen = set()
        for a in range(-2, 3):
            for t in range(2):
                x = lim.obj.group.elem([a, t])
                key = (lim.legs[0].hom(x).coords, lim.legs[1].hom(x).coords)
                assert key not in seen
                seen.add(key)


class TestBuiltOnce:
    @pytest.mark.parametrize("cache", [classify, pog_pullback, _is_iso,
                                       _units, _cone_map_surjective])
    def test_cache_is_bounded(self, cache):
        assert cache.cache_info().maxsize == 256

    def test_certificate_is_no_part_of_a_morphism(self):
        h = make_hom(Z, Z, [Z.elem([2])])
        certified = make_pog_morphism(h, ZN, ZN)
        plain = structural_morphism(h, ZN, ZN, "doubling")
        assert certified.certificate != plain.certificate
        assert certified == plain and hash(certified) == hash(plain)
        assert certified != structural_morphism(h, ZN, ZZ, "doubling")

    def test_cone_surjectivity_is_decided_once_per_morphism(self):
        # morphism_class and in_class(m, "Eprime") both ask whether m is a
        # normal epi; an equal morphism asks it again
        from preordgrp.factor import in_class
        _cone_map_surjective.cache_clear()
        assert morphism_class(mod2()).normal_epi
        assert in_class(mod2(), "Eprime").detail == (
            "kernel has a non-unit positive element")
        info = _cone_map_surjective.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_equal_arguments_share_one_result(self):
        # mod2() builds a new, equal morphism on each call
        assert pog_pullback(mod2(), mod2()) is pog_pullback(mod2(), mod2())
        P = make_pog(Zmod4, generator_cone(Zmod4, [Zmod4.elem([2])]))
        Q = make_pog(Zmod4, generator_cone(Zmod4, [Zmod4.elem([2])]))
        assert classify(P) is classify(Q)

    def test_equal_morphisms_share_one_iso_verdict(self, monkeypatch):
        inverses, inverse_hom = [], groups_module.inverse_hom

        def counting(h):
            inverses.append(h)
            return inverse_hom(h)
        monkeypatch.setattr(groups_module, "inverse_hom", counting)
        _is_iso.cache_clear()
        for _ in range(2):
            neg = make_pog_morphism(make_hom(Z, Z, [Z.elem([-1])]), ZZ, ZZ)
            assert pog_is_iso(neg)
        assert len(inverses) == 1


class TestCoequalizer:
    def test_coeq_id_id(self):
        Q, proj = pog_coequalizer(identity_morphism(ZN), identity_morphism(ZN))
        assert Q.group == Z
        assert classify(Q) == {"partially_ordered"}

    def test_coeq_zero_and_double(self):
        dbl = make_pog_morphism(make_hom(Z, Z, [Z.elem([2])]), ZN, ZN)
        Q, proj = pog_coequalizer(zero_morphism(ZN, ZN), dbl)
        assert Q.group.torsion == (2,)
        assert classify(Q) == {"total", "protomodular"}

    def test_coeq_zero_zero(self):
        Q, _ = pog_coequalizer(zero_morphism(ZN, ZN), zero_morphism(ZN, ZN))
        assert Q.group == Z

    def test_coeq_from_fgab_into_a_finite_group(self):
        # x -> x mod 2 and zero, (Z, N) -> (Z/2, total): the differences of
        # the generator images already generate Z/2
        C2 = cyclic_group(2)
        C2tot = make_pog(C2, explicit_cone(C2, C2.elements()))
        one = make_pog_morphism(make_hom(Z, C2, [C2.elem(1)]), ZN, C2tot)
        Q, proj = pog_coequalizer(one, zero_morphism(ZN, C2tot))
        assert Q.group.order() == 1 and proj.hom.cod == Q.group


class TestMorphismClass:
    def test_mod2_normal_epi(self):
        rep = morphism_class(mod2())
        assert rep.epi and rep.normal_epi and rep.effective_descent
        assert not rep.mono and rep.exact
        assert is_normal_epi(mod2()) is True

    def test_is_normal_epi_agrees_with_morphism_class(self):
        from preordgrp.corpus import finite_corpus_objects_up_to
        from preordgrp.oracle import enumerate_pog_morphisms
        objs = list(finite_corpus_objects_up_to(4).values())
        for P in objs:
            for Q in objs:
                for m in enumerate_pog_morphisms(P, Q):
                    assert is_normal_epi(m) == morphism_class(m).normal_epi

    def test_even_inclusion_normal_mono(self):
        K, inj = pog_kernel(mod2())
        rep = morphism_class(inj)
        assert rep.mono and rep.normal_mono and not rep.epi

    def test_discrete_inclusion_not_normal_mono(self):
        m = make_pog_morphism(identity_hom(Z), Zdisc, ZN)
        rep = morphism_class(m)
        assert rep.mono and not rep.normal_mono

    def test_effective_descent_equals_normal_epi_everywhere(self):
        from preordgrp.corpus import finite_corpus_objects_up_to
        from preordgrp.oracle import enumerate_pog_morphisms
        objs = list(finite_corpus_objects_up_to(4).values())
        for P in objs:
            for Q in objs:
                for m in enumerate_pog_morphisms(P, Q):
                    rep = morphism_class(m)
                    assert rep.effective_descent == rep.normal_epi
                    if rep.normal_epi:
                        assert rep.epi
                    if rep.normal_mono:
                        assert rep.mono

    def test_normal_mono_decided_on_generators(self):
        # x -> 2x with N on both sides: the preimage of N is N again, a
        # reverse inclusion read off the preimage cone's generators
        double = make_pog_morphism(make_hom(Z, Z, [Z.elem([2])]), ZN, ZN)
        assert cone_square_is_pullback(double.hom, ZN.cone, ZN.cone) is True
        assert cone_square_is_pullback(double.hom, Zdisc.cone,
                                       ZN.cone) is False
        rep = morphism_class(double)
        assert rep.mono and rep.normal_mono and rep.exact


class TestWindowFallbacks:
    """The cover cone of (Z, N) has no generators: a predicate over it, once
    a window scan, is decided exactly on its linear pieces {0} and
    (1, 0) + N x N."""

    cover = canonical_cover(ZN).realized

    def test_cover_square_with_itself(self):
        C = self.cover
        assert cone_square_is_pullback(identity_hom(C.group), C.cone,
                                       C.cone) is True

    def test_cover_square_against_its_hull(self):
        # N x N holds (0, 1), which the cover cone does not
        H = self.cover.group
        hull = generator_cone(H, [H.elem([1, 0]), H.elem([0, 1])])
        assert cone_square_is_pullback(identity_hom(H), self.cover.cone,
                                       hull) is False

    def test_cover_cone_map_surjective(self):
        assert cone_map_surjective(identity_morphism(self.cover)) is True
        # the shear (n, g) -> (n, g + n) preserves the cover cone, but the
        # only preimage of (1, 0), (1, -1), lies outside it
        H = self.cover.group
        shear = make_hom(H, H, [H.elem([1, 1]), H.elem([0, 1])])
        assert cone_map_surjective(structural_morphism(
            shear, self.cover, self.cover, "shear")) is False

    def test_reverified_preexact_certificate_holds(self):
        C = self.cover
        cert = SequenceCertificate("ZPreexact", identity_morphism(C),
                                   zero_morphism(C, zero_object()), True)
        assert cert.reverify().holds
        cert = SequenceCertificate("ZPreexact", identity_morphism(C),
                                   identity_morphism(C), True)
        assert not cert.reverify().holds


class TestShortExact:
    def test_canonical_even_sequence(self):
        K, inj = pog_kernel(mod2())
        cert = is_short_exact(inj, mod2())
        assert cert.holds

    def test_failing_cone_square(self):
        # (Z, {0}) -> (Z, N) -> 0: group-exactness holds downstairs but the
        # kernel cone square is not a pullback
        zinc = make_pog_morphism(identity_hom(Z), Zdisc, ZN)
        cert = is_short_exact(zinc, zero_morphism(ZN, zero_object()))
        assert not cert.holds
        assert "pullback" in " ".join(cert.reasons)

    def test_trivial_sequence(self):
        cert = is_short_exact(zero_morphism(zero_object(), ZN),
                              identity_morphism(ZN))
        assert cert.holds


def test_zero_object_unique_flags():
    P = zero_object()
    assert classify(P) == {"total", "protomodular", "partially_ordered",
                           "discrete"}


def test_sequence_certificate_reverifies():
    m = mod2()
    K, inj = pog_kernel(m)
    cert = is_short_exact(inj, m)
    again = cert.reverify()
    assert again.holds == cert.holds and again.reasons == cert.reasons
