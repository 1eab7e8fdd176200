"""Cone membership, axioms, unit groups, transports, degeneracy facts."""

import random

import pytest
from conftest import (clear_package_caches, cone_window, deadline,
                      group_window)

from preordgrp.cones import (
    CoverCone,
    GeneratorCone,
    ImageCone,
    ProductCone,
    SubgroupCone,
    check_cone_axioms,
    cone_contains,
    cone_is_subgroup,
    cone_outside,
    explicit_cone,
    extract_generators,
    generated_subgroup,
    generator_cone,
    is_reduced,
    linear_pieces,
    subgroup_cone,
    total_cone,
    transport_image,
    transport_preimage,
    transport_product,
    trivial_cone,
    units,
)
from preordgrp.errors import ImageNotComputable, UnitExtractionUnsupported
from preordgrp.groups import (
    cyclic_group,
    direct_product,
    group_pullback,
    identity_hom,
    make_fgab_group,
    make_hom,
    quotient,
    subgroup,
    subgroup_equal,
    subgroup_from_elements,
)

Z = make_fgab_group(1, [])
Z2 = make_fgab_group(2, [])
Zmod2 = make_fgab_group(0, [2])
Zmod4 = make_fgab_group(0, [4])

N = generator_cone(Z, [Z.elem([1])])


def halfplane_cone():
    return generator_cone(Z2, [Z2.elem([2, 0]), Z2.elem([-1, 0]),
                               Z2.elem([0, 1])])


class TestMembership:
    def test_naturals(self):
        v = cone_contains(N, Z.elem([5]))
        assert v.value == "In" and v.witness == (5,)
        assert cone_contains(N, Z.elem([-1])).value == "Out"

    def test_halfplane_example(self):
        c = halfplane_cone()
        assert cone_contains(c, Z2.elem([0, -1])).value == "Out"
        assert cone_contains(c, Z2.elem([-5, 3])).value == "In"

    def test_witness_recombines(self):
        c = halfplane_cone()
        gens = c.cone_generators
        for x in cone_window(c, 4):
            v = cone_contains(c, x)
            assert v.value == "In"
            acc = Z2.zero
            for coeff, g in zip(v.witness, gens):
                acc = acc + Z2.scale(g, coeff)
            assert acc == x

    def test_out_answer_on_unit_pairs(self):
        # lifted generators of the preimage of N(2,0) + N(-1,0) + N(0,1)
        # along (x, y) -> (2x - y, x + y); the box search once crawled here
        c = generator_cone(Z2, [Z2.elem(v) for v in (
            [1, 0], [0, 1], [1, 2], [2, -2], [1, -1], [-1, 1])])
        with deadline(5):
            assert cone_contains(c, Z2.elem([-2, -2])).value == "Out"
            assert cone_contains(c, Z2.elem([3, -4])).value == "Out"
            assert cone_contains(c, Z2.elem([3, -2])).value == "In"
            U = units(c)
        assert U.contains(Z2.elem([1, -1]))
        assert not U.contains(Z2.elem([1, 0]))

    def test_torsion_cone(self):
        c = generator_cone(Zmod4, [Zmod4.elem([2])])
        assert cone_contains(c, Zmod4.elem([2]))
        assert cone_contains(c, Zmod4.elem([0]))
        assert not cone_contains(c, Zmod4.elem([1]))


class TestAxioms:
    def test_explicit_pass(self):
        G = cyclic_group(4)
        rep = check_cone_axioms(explicit_cone(G, [G.elem(0), G.elem(2)]))
        assert rep.ok

    def test_s3_closure_failure(self):
        from preordgrp.corpus import symmetric_group_3
        S3 = symmetric_group_3()
        r = next(x for x in S3.elements()
                 if x + x != S3.zero and x + x + x == S3.zero)
        rep = check_cone_axioms(explicit_cone(S3, [S3.zero, r]))
        assert not rep.ok
        kind, witness = rep.first_witness()
        assert kind == "closure"

    def test_s3_conjugation_failure(self):
        from preordgrp.corpus import symmetric_group_3
        S3 = symmetric_group_3()
        flip = next(x for x in S3.elements()
                    if x + x == S3.zero and x != S3.zero)
        rep = check_cone_axioms(explicit_cone(S3, [S3.zero, flip]))
        assert not rep.ok
        assert any(kind == "conjugation" for kind, _ in rep.failures)

    def test_generator_cones_closed_by_construction(self):
        assert check_cone_axioms(halfplane_cone()).ok

    def test_generator_cone_refuses_finite_carrier(self):
        # a finite cone is an explicit element set; a generator list there
        # would have no coordinates to solve membership in
        G = cyclic_group(4)
        with pytest.raises(ValueError):
            generator_cone(G, [G.elem(1)])


class TestUnits:
    def test_naturals_reduced(self):
        assert units(N).is_trivial()
        assert is_reduced(N)

    def test_halfplane_units(self):
        # -(2,0) = 2*(-1,0) and (1,0) = (2,0)+(-1,0), so units = Z x 0
        U = units(halfplane_cone())
        assert U.contains(Z2.elem([1, 0]))
        assert not U.contains(Z2.elem([0, 1]))

    def test_all_units(self):
        c = generator_cone(Z2, [Z2.elem([1, 0]), Z2.elem([0, 1]),
                                Z2.elem([-1, -1])])
        assert units(c).is_whole()
        assert not is_reduced(c)

    def test_skew_cone_reduced(self):
        c = generator_cone(Z2, [Z2.elem([1, 0]), Z2.elem([1, 1])])
        assert is_reduced(c)

    def test_explicit_units_brute_force(self):
        G = cyclic_group(4)
        c = explicit_cone(G, [G.elem(0), G.elem(2)])
        U = units(c)
        expected = {x for x in c.members if -x in c.members}
        assert U.elements == expected

    def test_units_past_the_hilbert_cap(self, monkeypatch):
        # past the cap the solver has no unit columns, and the units are
        # generated by the generators whose negatives are members
        from preordgrp import cones, intlinalg
        from preordgrp.corpus import fgab_corpus_objects
        cases = [halfplane_cone()] + [
            P.cone for _, P in sorted(fgab_corpus_objects().items())
            if isinstance(P.cone, GeneratorCone)]
        assert len(cases) == 7  # Z_discrete holds the trivial SubgroupCone
        uncapped = [units(c) for c in cases]
        clear_package_caches()
        monkeypatch.setattr(intlinalg, "HILBERT_FRONTIER_CAP", 1)
        try:
            capped = 0
            for c, U in zip(cases, uncapped):
                capped += cones._generator_solver(c).unit_columns is None
                assert subgroup_equal(units(c), U), c
            assert capped >= 5
        finally:
            clear_package_caches()  # nothing capped outlives the test

    def test_finite_units_match_brute_force_everywhere(self):
        from preordgrp.oracle import enumerate_cones
        from preordgrp.corpus import finite_corpus_groups
        for G in finite_corpus_groups().values():
            for c in enumerate_cones(G):
                brute = {x for x in c.members if -x in c.members}
                assert units(c).elements == brute


class TestGeneratedSubgroup:
    def test_naturals_generate_z(self):
        assert generated_subgroup(N).is_whole()

    def test_skew_generates_plane(self):
        c = generator_cone(Z2, [Z2.elem([1, 0]), Z2.elem([1, 1])])
        assert generated_subgroup(c).is_whole()

    def test_trivial(self):
        assert generated_subgroup(trivial_cone(Z2)).is_trivial()

    def test_cones_without_generators_generate_through_their_pieces(self):
        # the cover cone of (Z, N) is not finitely generated, nor is its
        # preimage along the coordinate swap, yet both generate Z^2
        swap = make_hom(Z2, Z2, [Z2.elem([0, 1]), Z2.elem([1, 0])])
        pre = transport_preimage(swap, CoverCone(Z2, N))
        assert extract_generators(pre) is None
        for cone in (CoverCone(Z2, N), pre):
            S = generated_subgroup(cone)
            assert S.is_whole()
            assert all(cone.contains(g) for g in S.generators)
        # over the trivial base the cover cone is {0} and e + N e
        S = generated_subgroup(CoverCone(Z2, trivial_cone(Z)))
        assert S.contains(Z2.elem([1, 0])) and not S.contains(Z2.elem([0, 1]))


class TestTransport:
    def test_product_membership(self):
        pr = direct_product(Z, Z)
        c = transport_product(N, N, pr.group, pr.proj1, pr.proj2)
        assert cone_contains(c, pr.group.elem([2, 3]))
        assert not cone_contains(c, pr.group.elem([2, -3]))
        assert extract_generators(c) is not None

    def test_preimage_parity(self):
        h = make_hom(Z, Zmod2, [Zmod2.elem([1])])
        pre = transport_preimage(h, trivial_cone(Zmod2))
        assert cone_contains(pre, Z.elem([4]))
        assert not cone_contains(pre, Z.elem([3]))

    def test_even_naturals_as_conjunction(self):
        # parity preimage restricted to the naturals: contains 4, not 3
        h = make_hom(Z, Zmod2, [Zmod2.elem([1])])
        pre = transport_preimage(h, trivial_cone(Zmod2))
        idh = identity_hom(Z)
        evens = transport_product(N, pre, Z, idh, idh)
        assert cone_contains(evens, Z.elem([4]))
        assert not cone_contains(evens, Z.elem([3]))
        assert not cone_contains(evens, Z.elem([-2]))

    def test_image_projection(self):
        pr = direct_product(Z, Z)
        ZxN = transport_product(total_cone(Z), N, pr.group,
                                pr.proj1, pr.proj2)
        h = make_hom(pr.group, Z, [Z.elem([0]), Z.elem([1])])
        img = transport_image(h, ZxN)
        assert isinstance(img, GeneratorCone)
        assert cone_contains(img, Z.elem([5]))
        assert not cone_contains(img, Z.elem([-5]))

    def test_finite_transport_materializes(self):
        G = cyclic_group(4)
        H = cyclic_group(2)
        h = make_hom(G, H, [H.elem(i % 2) for i in range(4)])
        img = transport_image(h, explicit_cone(G, [G.elem(0), G.elem(2)]))
        assert img.members == frozenset({H.elem(0)})

    def test_image_of_a_generated_cone_in_a_finite_group(self):
        # the subgroup the generator images generate: 1 -> 1 in Z/4 gives
        # all of Z/4, not just {0, 1}
        C4 = cyclic_group(4)
        h = make_hom(Z, C4, [C4.elem(1)])
        assert transport_image(h, N).members == frozenset(C4.elements())
        h2 = make_hom(Z, C4, [C4.elem(2)])
        assert transport_image(h2, N).members == {C4.elem(0), C4.elem(2)}

    def test_morphism_class_from_fgab_into_a_finite_group(self):
        # (Z, N) -> (Z/2, total), x -> x mod 2: the cone map is onto
        from preordgrp.pog import make_pog, make_pog_morphism, morphism_class
        C2 = cyclic_group(2)
        m = make_pog_morphism(make_hom(Z, C2, [C2.elem(1)]), make_pog(Z, N),
                              make_pog(C2, total_cone(C2)))
        rep = morphism_class(m)
        assert rep.epi and rep.normal_epi and rep.exact and not rep.mono

    def test_image_without_generators_in_a_finite_group_is_a_subgroup(self):
        # h(R) is a submonoid of a finite group, so the subgroup h(<R>)
        C2 = cyclic_group(2)
        h = make_hom(Z2, C2, [C2.elem(1), C2.elem(0)])
        cover = CoverCone(Z2, N)
        img = transport_image(h, cover)
        assert isinstance(img, SubgroupCone)
        assert img.members == frozenset(C2.elements())
        for x in cone_window(cover, 3):
            assert h(x) in img.members, x

    def test_image_of_a_kernel_pair_cone_is_the_cover_cone(self):
        # membership in the image walks the ProductCone of the kernel pair
        # of the canonical cover of (Z, N) along its first leg
        from preordgrp.descent import canonical_cover, kernel_pair
        from preordgrp.pog import make_pog
        cover = canonical_cover(make_pog(Z, N))
        R = kernel_pair(cover.projection)
        img = transport_image(R.r1.hom, R.carrier.cone)
        assert isinstance(img, ImageCone)
        assert isinstance(img.inner, ProductCone)
        base = cover.realized.cone
        for x in group_window(base.group, 2):
            assert cone_contains(img, x).value == \
                cone_contains(base, x).value, x

    def test_image_of_nonextractable_uses_units_rule(self):
        # {(x, n, y) : (n, y) in the cover cone of (Z, N)} modulo its unit
        # line Z x 0 x 0 becomes that cover cone
        Z3 = make_fgab_group(3, [])
        h = make_hom(Z3, Z2, [Z2.elem([0, 0]), Z2.elem([1, 0]),
                              Z2.elem([0, 1])])
        pre = transport_preimage(h, CoverCone(Z2, N))
        Q, q = quotient(Z3, subgroup(Z3, [Z3.elem([1, 0, 0])]))
        img = transport_image(q, pre)
        assert isinstance(img, ImageCone)
        assert cone_contains(img, Q.elem([2, 3]))
        assert not cone_contains(img, Q.elem([2, -3]))
        assert not cone_contains(img, Q.elem([-2, 0]))
        assert units(img).is_trivial()

    def test_image_along_a_non_surjection(self):
        # along (n, g) -> (n, 0) the cover cone of (Z, N) becomes
        # {0} u {(n, 0) : n >= 1}
        C = CoverCone(Z2, N)
        h = make_hom(Z2, Z2, [Z2.elem([1, 0]), Z2.elem([0, 0])])
        img = transport_image(h, C)
        for y in group_window(Z2, 3):
            a, b = y.coords
            assert bool(cone_contains(img, y)) == (a >= 0 and b == 0), y

    def test_image_over_an_image_leaf(self):
        # the image leaf {(n, 0) : n >= 0} of the cover of (Z, N) is
        # pulled back along the swap to {(0, b) : b >= 0}, whose first
        # coordinates are {0}
        C = CoverCone(Z2, N)
        inner = transport_image(
            make_hom(Z2, Z2, [Z2.elem([1, 0]), Z2.elem([0, 0])]), C)
        swap = make_hom(Z2, Z2, [Z2.elem([0, 1]), Z2.elem([1, 0])])
        img = transport_image(make_hom(Z2, Z, [Z.elem([1]), Z.elem([0])]),
                              transport_preimage(swap, inner))
        for y in group_window(Z, 3):
            assert bool(cone_contains(img, y)) == y.is_zero(), y


class TestImageMembership:
    """Membership in the image of each fgab corpus cover, against the
    images of the cover's members in a coordinate window: every image
    found there is In, and every In query has a preimage there."""

    BRUTE_WIDTH = 4

    @staticmethod
    def assert_agrees(img, hom, members):
        reached = {hom(x) for x in members}
        for y in group_window(img.group, 1):
            assert bool(cone_contains(img, y)) == (y in reached), (hom, y)

    def test_corpus_covers_along_bounded_homs_and_kernel_pair_legs(self):
        from preordgrp.corpus import fgab_corpus_objects
        from preordgrp.descent import canonical_cover, kernel_pair
        from preordgrp.groups import enumerate_homs_bounded, is_surjective
        surjective = set()
        with deadline(15):
            for _, P in sorted(fgab_corpus_objects().items()):
                cover = canonical_cover(P)
                C = cover.realized.cone
                members = [x for x in group_window(C.group, self.BRUTE_WIDTH)
                           if cone_contains(C, x)]
                for cod in (Z, Z2):
                    for h in enumerate_homs_bounded(C.group, cod, 1)[::13]:
                        surjective.add(is_surjective(h))
                        self.assert_agrees(transport_image(h, C), h, members)
                pair = kernel_pair(cover.projection)
                R = pair.carrier
                members = [x for x in group_window(R.group, 2)
                           if cone_contains(R.cone, x)]
                for leg in pair.r1.hom, pair.r2.hom:
                    self.assert_agrees(transport_image(leg, R.cone), leg,
                                       members)
        assert surjective == {True, False}

    def test_restriction_of_a_restriction(self):
        # the cover cone of (Z, N) pulled back twice along the shear
        # (n, g) -> (n, g + n): one leaf along the composite shear
        C = CoverCone(Z2, N)
        shear = make_hom(Z2, Z2, [Z2.elem([1, 1]), Z2.elem([0, 1])])
        inner = transport_preimage(shear, transport_preimage(shear, C))
        members = [x for x in group_window(Z2, self.BRUTE_WIDTH)
                   if cone_contains(inner, x)]
        for images in ([1], [0]), ([0], [1]), ([1], [1]):
            h = make_hom(Z2, Z, [Z.elem(v) for v in images])
            self.assert_agrees(transport_image(h, inner), h, members)


class TestImageRulesCanFail:
    """A wrong version of either image rule gives a wrong verdict."""

    @pytest.fixture(autouse=True)
    def fresh_verdicts(self):
        # no verdict of the right rules may hide the patch, and no wrong
        # verdict may outlive the test
        clear_package_caches()
        yield
        clear_package_caches()

    def test_kernel_outside_the_units_taken_as_inside(self, monkeypatch):
        # the units rule then reads (0, g), the one lift of g with n = 0,
        # which is no cover positive: the cover projection stops being a
        # normal epi wherever the base has a non-zero positive
        from preordgrp import cones
        from preordgrp.corpus import fgab_corpus_objects
        from preordgrp.descent import canonical_cover
        from preordgrp.pog import is_normal_epi
        objs = sorted(fgab_corpus_objects().items())
        assert all(is_normal_epi(canonical_cover(P).projection)
                   for _, P in objs)
        clear_package_caches()
        monkeypatch.setattr(cones.ImageCone, "kernel_in_units",
                            property(lambda self: True))
        still = {name for name, P in objs
                 if is_normal_epi(canonical_cover(P).projection)}
        assert still == {"Z_discrete"}

    def test_cover_without_its_zero_piece(self, monkeypatch):
        # q(n, g) = n on the cover of (Z, N) reaches 0 only from (0, 0)
        from preordgrp import cones
        C = CoverCone(Z2, N)
        q = make_hom(Z2, Z, [Z.elem([1]), Z.elem([0])])
        assert cone_contains(transport_image(q, C), Z.zero)
        clear_package_caches()
        right = cones.linear_pieces
        monkeypatch.setattr(cones, "linear_pieces", lambda cone: tuple(
            (o, qs) for o, qs in right(cone)
            if not (isinstance(cone, CoverCone) and o.is_zero())))
        assert not cone_contains(transport_image(q, C), Z.zero)
        assert cone_contains(transport_image(q, C), Z.elem([1]))


class TestLiftedGenerators:
    """Pullback and preimage cones get generators from a Hilbert basis;
    the generated cone must have the recipe's members on a window."""

    @staticmethod
    def assert_agrees(cone, width=2):
        # the generated cone and the recipe must agree on the window
        gens = extract_generators(cone)
        assert gens is not None
        assert all(cone_contains(cone, g) for g in gens)
        lifted = generator_cone(cone.group, gens)
        for x in group_window(cone.group, width):
            assert cone_contains(cone, x).value == \
                cone_contains(lifted, x).value, x
        return gens

    def test_pullback_over_a_torsion_codomain(self):
        ZxZ2 = make_fgab_group(1, [2])
        f = make_hom(Z, Zmod2, [Zmod2.elem([1])])
        g = make_hom(ZxZ2, Zmod2, [Zmod2.elem([0]), Zmod2.elem([1])])
        P, p1, p2 = group_pullback(f, g)
        skew = generator_cone(ZxZ2, [ZxZ2.elem([1, 1]), ZxZ2.elem([-1, 0])])
        self.assert_agrees(transport_product(N, skew, P, p1, p2))

    def test_pullback_of_plane_cones_over_z(self):
        f = make_hom(Z2, Z, [Z.elem([1]), Z.elem([-1])])
        P, p1, p2 = group_pullback(f, identity_hom(Z))
        skew = generator_cone(Z2, [Z2.elem([1, 0]), Z2.elem([1, 1])])
        self.assert_agrees(transport_product(skew, N, P, p1, p2))

    def test_pullback_with_a_finite_part(self):
        C2 = cyclic_group(2)
        f = make_hom(C2, Zmod2, [Zmod2.elem([0]), Zmod2.elem([1])])
        g = make_hom(Z, Zmod2, [Zmod2.elem([1])])
        P, p1, p2 = group_pullback(f, g)
        cone = transport_product(total_cone(C2), N, P, p1, p2)
        assert P.backend == "fgab" and p1.cod == C2
        self.assert_agrees(cone)

    def test_preimage_generators(self):
        h = make_hom(Z2, Z, [Z.elem([0]), Z.elem([1])])
        gens = self.assert_agrees(transport_preimage(h, N))
        assert {g.coords for g in gens} == {(0, 1), (1, 0), (-1, 0)}
        q = make_hom(Z2, Zmod4, [Zmod4.elem([1]), Zmod4.elem([2])])
        self.assert_agrees(
            transport_preimage(q, generator_cone(Zmod4, [Zmod4.elem([2])])))
        s = make_hom(Z2, Z2, [Z2.elem([2, 1]), Z2.elem([-1, 1])])
        self.assert_agrees(transport_preimage(s, halfplane_cone()))

    def test_em_pullbacks_and_kernels_of_the_fgab_corpus(self):
        from preordgrp.corpus import fgab_corpus_objects
        from preordgrp.factor import em_factor
        from preordgrp.oracle import enumerate_pog_morphisms
        from preordgrp.pog import pog_kernel
        objs = sorted(fgab_corpus_objects().items())
        morphisms = [m for _, P in objs for _, Q in objs
                     for m in enumerate_pog_morphisms(P, Q, 1)]
        for m in random.Random(3).sample(morphisms, 12):
            self.assert_agrees(em_factor(m).mid.cone)
            self.assert_agrees(pog_kernel(m)[0].cone)

    def test_hostile_coefficients_fall_back(self):
        # {(a, b) : 40000 b - a >= 0, b >= 0}: the Hilbert basis element
        # (40000, 1) of the pullback lies past the cap
        h = make_hom(Z2, Z, [Z.elem([-1]), Z.elem([40000])])
        k = make_hom(Z2, Z, [Z.elem([0]), Z.elem([1])])
        pre = transport_product(transport_preimage(h, N),
                                transport_preimage(k, N), Z2,
                                identity_hom(Z2), identity_hom(Z2))
        assert extract_generators(pre) is None
        assert cone_contains(pre, Z2.elem([40000, 1]))
        assert not cone_contains(pre, Z2.elem([40001, 1]))


class TestDecidingMembers:
    """The members that decide a predicate quantified over a cone are its
    linear pieces: a cone with generators is one piece at 0."""

    def test_explicit_cone_gives_its_subgroup_generators(self):
        G = cyclic_group(4)
        c = explicit_cone(G, [G.elem(2), G.elem(0)])
        assert linear_pieces(c) == ((G.zero, (G.elem(2),)),)

    def test_generated_cone_gives_its_generators(self):
        assert linear_pieces(halfplane_cone()) == \
            ((Z2.zero, halfplane_cone().cone_generators),)

    def test_pullback_cone_gives_its_lifted_generators(self):
        h = make_hom(Z2, Z, [Z.elem([0]), Z.elem([1])])
        pre = transport_preimage(h, N)
        assert linear_pieces(pre) == ((Z2.zero, extract_generators(pre)),)

    def test_cover_cone_gives_its_two_pieces(self):
        e, p = Z2.elem([1, 0]), Z2.elem([0, 1])
        assert linear_pieces(CoverCone(Z2, N)) == ((Z2.zero, ()), (e, (e, p)))


class TestSubgroupTest:
    def test_generator_cases(self):
        assert cone_is_subgroup(total_cone(Z2))
        assert not cone_is_subgroup(N)
        c = generator_cone(Zmod4, [Zmod4.elem([2])])
        assert cone_is_subgroup(c) is True

    def test_preimage_kernel_style(self):
        h = make_hom(Z2, Z, [Z.elem([0]), Z.elem([1])])
        pre = transport_preimage(h, N)  # {(x, y) : y >= 0}, not a subgroup
        assert cone_is_subgroup(pre) is False


class TestDegeneracy:
    """Every submonoid of a finite group is a subgroup, and closure under
    conjugation is normality; checked for every corpus group of order <= 8
    against independently enumerated normal subgroups."""

    def brute_normal_subgroups(self, G):
        import itertools
        els = G.elements()
        out = []
        rest = [x for x in els if x != G.zero]
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                S = set(combo) | {G.zero}
                if any(a + b not in S for a in S for b in S):
                    continue
                if any(-a not in S for a in S):
                    continue
                if any(G.conjugate(g, x) not in S for g in els for x in S):
                    continue
                out.append(frozenset(S))
        return sorted(out, key=lambda s: (len(s), sorted(x.coords for x in s)))

    def test_cones_are_exactly_normal_subgroups(self):
        from preordgrp.corpus import finite_corpus_groups
        from preordgrp.oracle import enumerate_cones
        for name, G in finite_corpus_groups().items():
            assert G.order() <= 8
            cones = enumerate_cones(G)
            normal = self.brute_normal_subgroups(G)
            assert [c.members for c in cones] == normal, name
            for c in cones:
                S = subgroup_from_elements(G, c.members)
                assert S.is_normal()


class TestFiniteConesDecideOnGenerators:
    """A finite cone is a subgroup, and decides a predicate on its greedy
    generating set; products lift their generators like pullbacks."""

    def test_preservation_witness_is_the_first_failing_member(self):
        # the members that pass form a subgroup, and the greedy set takes
        # the lowest index outside the subgroup generated so far
        from preordgrp.corpus import finite_corpus_objects_up_to
        from preordgrp.groups import enumerate_group_homs
        from preordgrp.pog import cone_preservation
        objs = list(finite_corpus_objects_up_to(8).values())
        homs = {}
        triples = failing = 0
        for P in objs:
            members = sorted(P.cone.members, key=lambda e: e.coords)
            for Q in objs:
                key = (P.group, Q.group)
                if key not in homs:
                    homs[key] = enumerate_group_homs(*key)
                for h in homs[key]:
                    ok, bad, _ = cone_preservation(h, P.cone, Q.cone)
                    first = next((x for x in members
                                  if h(x) not in Q.cone.members), None)
                    assert ok == (first is None) and bad == first
                    triples += 1
                    failing += not ok
        assert (triples, failing) == (8550, 2564)

    def test_generators_reach_exactly_the_members(self):
        from preordgrp.corpus import finite_corpus_objects
        from preordgrp.groups import _words
        for name, P in finite_corpus_objects().items():
            c = P.cone
            gens = extract_generators(c)
            reached = _words(c.group, gens)
            assert {c.group.elem(i) for i in reached} == c.members, name
            assert len(gens) <= len(c.members).bit_length() - 1, name

    def test_product_generators_are_the_injected_part_generators(self):
        from preordgrp.corpus import fgab_corpus_objects
        from preordgrp.pog import pog_product
        objs = sorted(fgab_corpus_objects().items())
        for _, P1 in objs:
            for _, P2 in objs:
                pr = direct_product(P1.group, P2.group)
                injected = tuple(
                    [pr.inj1(g) for g in extract_generators(P1.cone)]
                    + [pr.inj2(g) for g in extract_generators(P2.cone)])
                assert extract_generators(pog_product(P1, P2).obj.cone) \
                    == injected


class TestPieceInclusionCanFail:
    """A wrong rule in the inclusion of a linear piece gives a wrong
    verdict."""

    @pytest.fixture(autouse=True)
    def fresh_verdicts(self):
        clear_package_caches()
        yield
        clear_package_caches()

    def test_box_lemma_without_the_box(self, monkeypatch):
        # (n, g) -> 2n + g sends the cover of (Z, N) onto {0} u (2 + N),
        # inside <2, 3> although 1 is not: the box {2, 3} proves it
        from preordgrp import cones
        f = make_hom(Z2, Z, [Z.elem([2]), Z.elem([1])])
        C = CoverCone(Z2, N)
        assert cone_outside(f, C, generator_cone(Z, [Z.elem([2]),
                                                     Z.elem([3])])) is None
        assert cone_outside(f, C, generator_cone(Z, [Z.elem([2]),
                                                     Z.elem([5])])) is not None
        # without the box, every period of the piece must lie in D
        monkeypatch.setattr(cones, "_box_outside", lambda o, qs, D, gens: next(
            ({i: 1} for i, q in enumerate(qs) if not D.contains(q)), None))
        assert cone_outside(f, C, generator_cone(Z, [Z.elem([2]),
                                                     Z.elem([3])])) is not None

    def test_no_multiple_rule_on_a_target_without_generators(self,
                                                             monkeypatch):
        # (1, c, 1) lies in the kernel-pair cone of the cover of (Z, N) for
        # every c >= 0, yet no multiple of (0, 1, 0) does: "no multiple of
        # q in D refutes" holds only for a generated D
        from preordgrp import cones
        from preordgrp.descent import canonical_cover, kernel_pair
        from preordgrp.pog import make_pog
        R = kernel_pair(canonical_cover(make_pog(Z, N)).projection).carrier
        assert cone_outside(None, R.cone, R.cone) is None
        right = cones._piece_outside

        def trap(o, qs, D):
            for i, q in enumerate(qs):
                if not (o.is_zero() or any(D.contains(D.group.scale(q, m))
                                           for m in range(1, 9))):
                    return {i: 1}
            return right(o, qs, D)
        monkeypatch.setattr(cones, "_piece_outside", trap)
        bad = cone_outside(None, R.cone, R.cone)
        assert bad is not None and R.cone.contains(bad)

    def test_what_no_rule_decides_is_a_package_error(self):
        # the image of the cover of (Z^2, N^2) along (n, a, b) -> (n, a) is
        # {0} u {(n, a) : n >= 1, a >= 0}: its map's kernel is no unit and
        # it has no generators
        Z3 = make_fgab_group(3, [])
        img = transport_image(
            make_hom(Z3, Z2, [Z2.elem([1, 0]), Z2.elem([0, 1]), Z2.zero]),
            CoverCone(Z3, generator_cone(Z2, [Z2.elem([1, 0]),
                                              Z2.elem([0, 1])])))
        assert extract_generators(img) is None
        with pytest.raises(UnitExtractionUnsupported):
            units(img)
        assert cone_outside(None, CoverCone(Z2, N), img) is None
        # (1, 2) + N (0, -1) leaves img only at (1, -1), past o and o + q,
        # and lies in no piece of img
        shear = make_hom(Z2, Z2, [Z2.elem([1, 2]), Z2.elem([0, 1])])
        with pytest.raises(ImageNotComputable):
            cone_outside(shear, CoverCone(Z2, generator_cone(
                Z, [Z.elem([-1])])), img)
        # a huge box is refused, not scanned
        f = make_hom(Z2, Z, [Z.elem([40000]), Z.elem([1])])
        with pytest.raises(ImageNotComputable):
            cone_outside(f, CoverCone(Z2, N), generator_cone(
                Z, [Z.elem([40000]), Z.elem([40001])]))


class TestPiecesAgainstAWindow:
    """Every predicate decided on linear pieces against the members of a
    coordinate window: a clean verdict leaves the window clean, a failure
    the window shows is a failing verdict, and a refutation names a member
    of C that f sends outside D."""

    @staticmethod
    def cones():
        from preordgrp.corpus import fgab_corpus_objects
        from preordgrp.descent import canonical_cover, kernel_pair
        out = []
        for name in ("Z_nat", "Z_total", "Z2_skew", "Z2_halfplane_units"):
            P = fgab_corpus_objects()[name]
            cover = canonical_cover(P)
            R = kernel_pair(cover.projection)
            out.append((P.cone, cover.realized.cone, R.carrier.cone,
                        [(cover.projection.hom, cover.realized.cone, P.cone),
                         (R.r1.hom, R.carrier.cone, cover.realized.cone),
                         (R.r2.hom, R.carrier.cone, cover.realized.cone),
                         (R.delta.hom, cover.realized.cone, R.carrier.cone)]))
        return out

    def test_random_inclusions(self):
        rng = random.Random(7)
        cs = [c for base, cover, pair, _ in self.cones()
              for c in (base, cover, pair)]
        verdicts = []
        with deadline(30):
            for _ in range(300):
                C, D = rng.choice(cs), rng.choice(cs)
                f = make_hom(C.group, D.group, [D.group.elem(
                    [rng.randint(-1, 2) for _ in range(D.group.ncoords)])
                    for _ in range(C.group.ncoords)])
                w = cone_outside(f, C, D)
                verdicts.append(w is None)
                if w is None:
                    assert all(D.contains(f(x)) for x in cone_window(C, 2))
                else:
                    assert C.contains(w) and not D.contains(f(w))
        assert 20 < sum(verdicts) < 280

    def test_predicates(self):
        from preordgrp.groups import enumerate_homs_bounded
        from preordgrp.pog import (
            PreorderedGroup,
            cone_map_surjective,
            cone_square_is_pullback,
            structural_morphism,
        )
        from preordgrp.torsion import is_z_trivial

        def arrow(f, C, D):
            return structural_morphism(f, PreorderedGroup(C.group, C),
                                       PreorderedGroup(D.group, D), "test")
        seen = set()
        with deadline(30):
            for base, cover, pair, arrows in self.cones():
                for C in base, cover, pair:
                    members = cone_window(C, 2)
                    assert cone_is_subgroup(C) == all(
                        C.contains(-x) for x in members)
                    for f in enumerate_homs_bounded(C.group, Z, 1):
                        assert is_z_trivial(arrow(f, C, N)).holds == all(
                            f(x).is_zero() for x in members)
                for f, C, D in arrows:
                    img = transport_image(f, C)
                    onto = cone_map_surjective(arrow(f, C, D))
                    assert onto == all(img.contains(y)
                                       for y in cone_window(D, 2))
                    pb = cone_square_is_pullback(f, C, D)
                    assert pb == all(C.contains(x) == D.contains(f(x))
                                     for x in group_window(C.group, 2))
                    seen |= {("onto", onto), ("pullback", pb)}
        assert len(seen) == 4


def _kernel_pairs_of_covers():
    """Eq(p) for the canonical cover p of each fgab corpus base."""
    from preordgrp.corpus import fgab_corpus_objects
    from preordgrp.descent import canonical_cover, kernel_pair
    return [(name, kernel_pair(canonical_cover(P).projection).carrier)
            for name, P in sorted(fgab_corpus_objects().items())]


class TestSubgroupCones:
    """A cone that is a subgroup is decided as a subgroup on both backends:
    membership is a lattice solve, and a piece lies in it when its offset
    and each offset plus period do."""

    def test_kernel_pairs_of_covers_decompose(self):
        # the unit into (G, <P>) once ran the box lemma over Hilbert bases
        # against the +-generator encoding, past 8 s on six of the eight
        from preordgrp import torsion
        for f in (torsion.proto_reflect, torsion.proto_coreflect,
                  torsion.pretorsion_sequence, torsion.torsion_sequence):
            f.cache_clear()
        with deadline(5):
            for name, E in _kernel_pairs_of_covers():
                EP, unit = torsion.proto_reflect(E)
                assert isinstance(EP.cone, SubgroupCone), name
                assert unit.certificate.kind == "pieces", name
                assert torsion.pretorsion_sequence(E).certificate.holds, name
                assert torsion.torsion_sequence(E).certificate.holds, name

    def test_membership_builds_no_solver(self, monkeypatch):
        from preordgrp import cones, intlinalg
        from preordgrp.torsion import proto_reflect, torsion_sequence
        found = []
        for _, E in _kernel_pairs_of_covers():
            dec = torsion_sequence(E)
            for P in (proto_reflect(E)[0], dec.torsion_part, dec.free_part):
                if isinstance(P.cone, SubgroupCone):
                    found.append(P.cone)
        assert len(found) >= 16
        built = []
        init = intlinalg.NonnegSolver.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        cones._generator_solver.cache_clear()
        cones._cone_contains_cached.cache_clear()
        monkeypatch.setattr(intlinalg.NonnegSolver, "__init__", counting)
        answers = set()
        for c in found:
            assert c.group.backend == "fgab" and c.members is None
            for x in group_window(c.group, 1):
                answers.add(cone_contains(c, x).value)
                assert c.contains(x) == c.subgroup.contains(x)
        assert answers == {"In", "Out"}
        assert built == []

    def test_witness_recombines(self):
        from preordgrp.corpus import fgab_corpus_objects
        ZxZ4 = make_fgab_group(1, [4])
        cases = [fgab_corpus_objects()["Z_total"].cone,
                 subgroup_cone(subgroup(ZxZ4, [ZxZ4.elem([2, 1]),
                                               ZxZ4.elem([0, 2])]))]
        for c in cases:
            assert isinstance(c, SubgroupCone)
            gens = extract_generators(c)
            members = cone_window(c, 4)
            assert len(members) > 4
            for x in members:
                v = cone_contains(c, x)
                assert len(v.witness) == len(gens) and min(v.witness) >= 0
                acc = c.group.zero
                for coeff, g in zip(v.witness, gens):
                    acc = acc + c.group.scale(g, coeff)
                assert acc == x
        assert not cases[1].contains(ZxZ4.elem([1, 0]))
