"""Groups, homs, kernels, quotients, pullbacks on both backends."""

import copy
import gc
import itertools
import math
import pickle
import random
import weakref
from functools import lru_cache

import pytest

import preordgrp.groups as groups_module
from preordgrp.cones import SubgroupCone, generator_cone
from preordgrp.errors import (
    BackendMismatch,
    BadInvariantFactors,
    EnumerationUnbounded,
    NotAGroup,
    NotNormal,
)
from preordgrp.corpus import (
    finite_corpus_groups,
    klein_four_group,
    symmetric_group_3,
)
from preordgrp.groups import (
    FgAbGroup,
    FiniteGroup,
    GroupElement,
    GroupHom,
    Subgroup,
    _factoring_through_epi,
    _factoring_through_legs,
    _generated,
    _lattice_intersection,
    _lattice_preimage,
    _on_elements,
    _preimage_lookup,
    _subgroup_snf,
    compose,
    cyclic_group,
    direct_product,
    enumerate_group_homs,
    enumerate_homs_bounded,
    factor_through_epi,
    factor_through_legs,
    factor_through_mono,
    fgab_from_finite_abelian,
    group_kernel,
    group_pullback,
    identity_hom,
    image_subgroup,
    inverse_hom,
    is_injective,
    is_isomorphism,
    is_surjective,
    kernel_subgroup,
    make_fgab_group,
    make_finite_group,
    make_hom,
    normal_closure,
    quotient,
    subgroup,
    subgroup_equal,
    subgroup_from_elements,
    subgroup_intersection,
    subgroup_preimage,
    subgroup_to_group,
    trivial_subgroup,
    zero_hom,
)
from preordgrp.intlinalg import lattice_preimage
from preordgrp.pog import PreorderedGroup

Z = make_fgab_group(1, [])
Z2 = make_fgab_group(2, [])
Zmod2 = make_fgab_group(0, [2])
Zmod4 = make_fgab_group(0, [4])


def mod2_hom():
    return make_hom(Z, Zmod2, [Zmod2.elem([1])])


class TestMakeGroup:
    def test_smallest_table(self):
        G = make_finite_group(["0", "1"], [[0, 1], [1, 0]])
        assert G.order() == 2

    def test_free_rank_one(self):
        G = make_fgab_group(1, [])
        assert G.rank == 1 and G.torsion == ()

    def test_normalization(self):
        # the group Z/4 + Z/2 has exponent 4 and order 8: factors (2, 4)
        G = make_fgab_group(0, [4, 2])
        assert G.torsion == (2, 4)

    def test_not_a_group(self):
        with pytest.raises(NotAGroup) as exc:
            make_finite_group(["0", "1"], [[0, 1], [1, 1]])
        assert exc.value.witness is not None or "identity" in str(exc.value) \
            or "inverse" in str(exc.value)

    def test_nonassociative_table(self):
        # left translations are permutations but association fails
        table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(NotAGroup):
            make_finite_group(["a", "b", "c"], table)

    def test_bad_invariant_factors(self):
        with pytest.raises(BadInvariantFactors):
            make_fgab_group(0, [0])
        with pytest.raises(BadInvariantFactors):
            make_fgab_group(-1, [])


class TestInterning:
    """One live FiniteGroup per (element names, Cayley table), one live
    FgAbGroup per (rank, torsion)."""

    def test_same_data_same_object(self):
        a = make_finite_group(["0", "1"], [[0, 1], [1, 0]])
        b = make_finite_group(("0", "1"), ((0, 1), (1, 0)))
        assert a is b
        assert cyclic_group(4) is cyclic_group(4)
        assert symmetric_group_3() is symmetric_group_3()

    def test_constructions_built_twice(self):
        C4, C2 = cyclic_group(4), cyclic_group(2)
        half = subgroup(C4, [C4.elem(2)])
        assert quotient(C4, half)[0] is quotient(C4, half)[0]
        S3, V4 = symmetric_group_3(), klein_four_group()
        assert direct_product(V4, S3).group is direct_product(V4, S3).group
        h = make_hom(C4, C2, [C2.elem(i % 2) for i in range(4)])
        assert group_pullback(h, h)[0] is group_pullback(h, h)[0]
        assert group_kernel(h)[0] is group_kernel(h)[0]

    def test_names_tell_tables_apart(self):
        a, b = cyclic_group(3), cyclic_group(3, name_prefix="g")
        assert a.table == b.table
        assert a is not b and a != b
        assert a.elem(1) != b.elem(1)

    def test_direct_construction_is_interned(self):
        G = symmetric_group_3()
        H = FiniteGroup(list(G.element_names), [list(r) for r in G.table],
                        G.identity_index, list(G.inverse))
        assert H is G
        assert H.elem(1) == G.elem(1) and hash(H) == hash(G)

    def test_copies_keep_identity(self):
        G = klein_four_group()
        assert copy.deepcopy(G) is G
        assert pickle.loads(pickle.dumps(G)) is G

    def test_fgab_same_data_same_object(self):
        assert FgAbGroup(1, [2]) is FgAbGroup(1, (2,))
        assert make_fgab_group(0, [4, 2]) is FgAbGroup(0, (2, 4))
        assert FgAbGroup(1, ()) is not FgAbGroup(0, ())

    def test_fgab_copies_keep_identity(self):
        G = make_fgab_group(1, [2, 6])
        assert copy.copy(G) is G and copy.deepcopy(G) is G
        assert pickle.loads(pickle.dumps(G)) is G
        x = G.elem([3, 1, 5])
        assert pickle.loads(pickle.dumps(x)).group is G

    def test_unreferenced_group_is_released(self):
        G = make_finite_group(["p", "q"], [[0, 1], [1, 0]])
        ref = weakref.ref(G)
        del G
        gc.collect()
        assert ref() is None

    def test_malformed_tables_raise_before_interning(self):
        with pytest.raises(NotAGroup):
            make_finite_group(["0", "1"], [[0, 1], [1, 1]])
        for names, table in [(["0"], 5), (["0"], [5]), (["0"], "0"),
                             (5, [[0]]), ([["0"]], [[0]]), ([0], [[0]]),
                             (["0", "1"], [[False, True], [True, False]])]:
            with pytest.raises(NotAGroup):
                make_finite_group(names, table)


class TestElements:
    def test_fgab_arithmetic(self):
        a = Z2.elem([3, -1])
        b = Z2.elem([-1, 4])
        assert (a + b).coords == (2, 3)
        assert (-a).coords == (-3, 1)
        assert (2 * a).coords == (6, -2)

    def test_torsion_reduction(self):
        x = Zmod4.elem([7])
        assert x.coords == (3,)
        assert (x + x).coords == (2,)

    def test_finite_arithmetic(self):
        G = cyclic_group(4)
        assert (G.elem(3) + G.elem(2)) == G.elem(1)
        assert -G.elem(1) == G.elem(3)
        assert G.scale(G.elem(3), 5) == G.elem(3)

    def test_unknown_finite_element(self):
        G = cyclic_group(2)
        assert G.elem("1") == G.elem(1)
        with pytest.raises(ValueError, match="no element 'b'"):
            G.elem("b")
        with pytest.raises(ValueError, match="no element 2"):
            G.elem(2)


def _closure(G, seed):
    """Reference: close a set under + and negation until it stops growing."""
    out = {G.zero} | set(seed)
    while True:
        new = out | {a + b for a in out for b in out} | {-a for a in out}
        if new == out:
            return frozenset(out)
        out = new


class TestFiniteClosure:
    """Subgroups, normal closures and generating sets of every finite corpus
    group of order <= 8 against the fixpoint definitions."""

    GROUPS = [G for G in finite_corpus_groups().values() if G.order() <= 8]

    def test_subgroups_of_pairs(self):
        for G in self.GROUPS:
            for x, y in itertools.product(G.elements(), repeat=2):
                assert subgroup(G, [x, y]).elements == _closure(G, [x, y])

    def test_normal_closures(self):
        for G in self.GROUPS:
            for x in G.elements():
                S = _closure(G, [x])
                while True:
                    T = _closure(G, [G.conjugate(g, s)
                                     for g in G.elements() for s in S])
                    if T == S:
                        break
                    S = T
                N = normal_closure(G, [x])
                assert N.elements == S and N.is_normal()
                assert list(N.generators) == sorted(
                    N.generators, key=lambda e: e.coords)

    def test_generators_take_the_lowest_unreached_index(self):
        for G in self.GROUPS:
            gens, reached = [], _closure(G, [])
            for x in G.elements():
                if x not in reached:
                    gens.append(x)
                    reached = _closure(G, gens)
            assert G.generators() == gens


class TestHoms:
    def test_validation_rejects_bad_torsion_image(self):
        with pytest.raises(ValueError):
            make_hom(Zmod2, Z, [Z.elem([1])])

    def test_mod2(self):
        h = mod2_hom()
        assert h(Z.elem([5])) == Zmod2.elem([1])
        assert h(Z.elem([-4])) == Zmod2.elem([0])

    def test_finite_law_check(self):
        G = cyclic_group(4)
        H = cyclic_group(2)
        images = [H.elem(i % 2) for i in range(4)]
        h = make_hom(G, H, images)
        assert h(G.elem(3)) == H.elem(1)
        with pytest.raises(ValueError):
            make_hom(G, H, [H.elem(0), H.elem(1), H.elem(1), H.elem(0)])

    def test_injective_surjective(self):
        h = mod2_hom()
        assert is_surjective(h) and not is_injective(h)
        d = make_hom(Z, Z, [Z.elem([2])])
        assert is_injective(d) and not is_surjective(d)
        assert is_isomorphism(identity_hom(Z2))

    def test_inverse(self):
        swap = make_hom(Z2, Z2, [Z2.elem([0, 1]), Z2.elem([1, 0])])
        inv = inverse_hom(swap)
        assert inv(swap(Z2.elem([3, 5]))) == Z2.elem([3, 5])

    def test_preimage_element(self):
        # a preimage of 1 along the non-injective mod 2 map gives w = id
        h = mod2_hom()
        w = factor_through_epi(h, h)
        assert w is not None and w.images == (Zmod2.elem([1]),)
        # doubling Z/3 -> Z/6 misses 1, and 2 is the image of 1
        G, H = cyclic_group(3), cyclic_group(6)
        dbl = make_hom(G, H, [H.elem((2 * i) % 6) for i in range(3)])
        assert factor_through_mono(dbl, identity_hom(H)) is None
        w = factor_through_mono(dbl, dbl)
        assert w is not None and w(G.elem(1)) == G.elem(1)


@lru_cache(maxsize=None)
def _validated_maps(dom, cod):
    """Every map dom -> cod that make_hom accepts."""
    out = []
    for images in itertools.product(cod.elements(), repeat=dom.order()):
        try:
            out.append(make_hom(dom, cod, images))
        except ValueError:
            pass
    return out


class TestApplyFgab:
    """An fgab -> fgab hom applied in one pass agrees with summing the
    scaled generator images one at a time."""

    @staticmethod
    def random_hom(rng, G, H):
        images = [H.elem([rng.randint(-5, 5) for _ in range(H.ncoords)])
                  for _ in range(G.rank)]
        for d in G.torsion:
            # zero free part, torsion coordinates killed by d
            images.append(H.elem([0] * H.rank + [
                rng.randint(-3, 3) * (t // math.gcd(t, d))
                for t in H.torsion]))
        return make_hom(G, H, images)

    def test_matches_reference_sum(self):
        rng = random.Random(17)
        groups = [make_fgab_group(*rt) for rt in
                  [(2, []), (1, [2]), (0, [2, 4]), (1, [4]), (2, [6]), (0, [3])]]
        for G, H in itertools.product(groups, repeat=2):
            for _ in range(5):
                h = self.random_hom(rng, G, H)
                for _ in range(5):
                    x = G.elem([rng.randint(-9, 9) for _ in range(G.ncoords)])
                    ref = H.zero
                    for c, img in zip(x.coords, h.images):
                        ref = H.add(ref, H.scale(img, c))
                    assert h(x) == ref

    def test_kernel_cache_is_bounded(self):
        assert kernel_subgroup.cache_info().maxsize == 256


def _calls(monkeypatch, name):
    """The argument tuples of every later call of ``groups.<name>``."""
    calls, fn = [], getattr(groups_module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(groups_module, name, counting)
    return calls


C4 = cyclic_group(4)
G2x4 = make_fgab_group(2, [4])


def _half():
    """{0, 2} of Z/4, a new frozenset on every call."""
    return frozenset([C4.elem(0), C4.elem(2)])


def _two_gens():
    return (G2x4.elem([2, 1, 1]), G2x4.elem([0, 3, 2]))


# each builds a new value from newly built fields, by the constructor
INTERNED = {
    "subgroup-finite": lambda: Subgroup(C4, (C4.elem(2),), _half()),
    "subgroup-fgab": lambda: Subgroup(G2x4, _two_gens()),
    "cone-finite": lambda: SubgroupCone(C4, _half()),
    "cone-fgab": lambda: SubgroupCone(G2x4, generators=_two_gens()),
    "object-finite": lambda: PreorderedGroup(C4, SubgroupCone(C4, _half())),
    "object-fgab": lambda: PreorderedGroup(
        G2x4, generator_cone(G2x4, [G2x4.elem([1, 0, 0])])),
}


class TestInternedValues:
    """One live Subgroup, SubgroupCone and PreorderedGroup per tuple of
    field values, on both backends."""

    @pytest.mark.parametrize("build", INTERNED.values(), ids=INTERNED)
    def test_equal_values_are_one_object(self, build):
        x, y = build(), build()
        assert x is y and x == y and hash(x) == object.__hash__(y)

    @pytest.mark.parametrize("build", INTERNED.values(), ids=INTERNED)
    def test_copies_return_the_interned_instance(self, build):
        x = build()
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x

    def test_different_fields_stay_apart(self):
        # the same members under other generators are another value
        S = Subgroup(C4, (C4.elem(2),), _half())
        assert Subgroup(C4, (C4.elem(2), C4.elem(2)), _half()) is not S
        assert SubgroupCone(C4, _half()) is not SubgroupCone(C4, None)
        assert SubgroupCone(G2x4, generators=_two_gens()[::-1]) \
            is not SubgroupCone(G2x4, generators=_two_gens())

    def test_cached_properties_are_computed_once_per_value(self):
        c = SubgroupCone(G2x4, generators=_two_gens())
        assert SubgroupCone(G2x4, generators=_two_gens()).subgroup \
            is c.subgroup
        assert "signed_generators" not in vars(c)
        c.signed_generators
        assert "signed_generators" in vars(
            SubgroupCone(G2x4, generators=_two_gens()))

    def test_unreferenced_value_is_released(self):
        ref = weakref.ref(Subgroup(G2x4, (G2x4.elem([5, 7, 1]),)))
        gc.collect()
        assert ref() is None

    def test_finite_subgroup_is_built_once(self, monkeypatch):
        S3 = symmetric_group_3()
        _on_elements.cache_clear()
        _generated.cache_clear()
        built = _calls(monkeypatch, "_generating_set")
        walked = _calls(monkeypatch, "_words")
        rotations = [x for x in S3.elements() if (x + x + x).is_zero()]
        S = subgroup_from_elements(S3, rotations)
        assert subgroup_from_elements(S3, rotations[::-1]) is S
        assert len(built) == 1 and len(S.elements) == 3
        walked.clear()
        T = subgroup(S3, [rotations[1]])
        assert subgroup(S3, [rotations[1]]) is T and len(walked) == 1
        assert T.elements == S.elements


class TestTupleValues:
    """Elements and homs are tuple values: C-level hash and ==, value
    semantics across copies, and arithmetic in place of tuple operators."""

    def test_hash_and_equality_are_the_tuple_ones(self):
        for cls in (GroupElement, GroupHom):
            assert cls.__hash__ is tuple.__hash__
            assert cls.__eq__ is tuple.__eq__

    def test_equal_coordinates_in_two_groups_are_unequal(self):
        Z2, Z2x4 = make_fgab_group(2, []), make_fgab_group(1, [4])
        assert Z2.elem([1, 1]) == Z2.elem([1, 1])
        assert Z2.elem([1, 1]) != Z2x4.elem([1, 1])
        assert C4.elem(1) != cyclic_group(4, "c").elem(1)

    def test_an_element_never_equals_a_hom(self):
        Z = make_fgab_group(1, [])
        h = identity_hom(Z)
        assert all(x != h for x in (Z.zero, Z.elem([1]), h.images[0]))
        assert h != identity_hom(make_fgab_group(2, []))

    @pytest.mark.parametrize("x", [G2x4.elem([2, -1, 3]), C4.elem(3)],
                             ids=["fgab", "finite"])
    def test_integer_multiples_are_scaling(self, x):
        assert x * 3 == 3 * x == x + x + x
        assert x * 0 == 0 * x == x.group.zero
        assert x * -2 == -(x + x)

    @pytest.mark.parametrize("value", [
        G2x4.elem([2, -1, 3]), C4.elem(3), identity_hom(G2x4),
        make_hom(C4, C4, [C4.elem(2 * i % 4) for i in range(4)])],
        ids=["fgab-element", "finite-element", "fgab-hom", "finite-hom"])
    def test_copies_are_equal_values(self, value):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
            assert type(twin) is type(value) and repr(twin) == repr(value)

    def test_repr_keeps_its_form(self):
        Z = make_fgab_group(1, [])
        assert repr(Z.elem([-3])) == "<(-3)>"
        assert repr(identity_hom(Z)) == (
            "GroupHom(dom=FgAbGroup(Z), cod=FgAbGroup(Z), images=(<(1)>,))")


class TestBuiltOnce:
    """Each derived group and preimage lookup is built once per value."""

    @pytest.mark.parametrize("cache", [
        quotient, subgroup_to_group, direct_product, image_subgroup,
        _factoring_through_epi, _factoring_through_legs, _subgroup_snf,
        _lattice_intersection, _lattice_preimage, _generated, _on_elements])
    def test_cache_is_bounded(self, cache):
        assert cache.cache_info().maxsize == 256

    def test_quotient_by_equal_subgroups(self, monkeypatch):
        G = cyclic_group(6)
        quotient.cache_clear()
        built = _calls(monkeypatch, "_finite_group_on")
        Q, q = quotient(G, subgroup(G, [G.elem(2)]))
        assert quotient(G, subgroup(G, [G.elem(2)])) == (Q, q)
        assert Q.order() == 2 and len(built) == 1

    def test_quotient_by_a_non_normal_subgroup_raises_every_time(self):
        S3 = symmetric_group_3()
        flip = next(x for x in S3.elements()
                    if x + x == S3.zero and x != S3.zero)
        for _ in range(2):
            with pytest.raises(NotNormal):
                quotient(S3, subgroup(S3, [flip]))

    def test_epi_lookup_serves_every_target(self, monkeypatch):
        p = make_hom(Z2, Z, [Z.elem([1]), Z.elem([0])])
        t = make_hom(Z2, Zmod2, [Zmod2.elem([1]), Zmod2.elem([0])])
        _factoring_through_epi.cache_clear()
        built = _calls(monkeypatch, "_stacked_legs")
        w = factor_through_epi(p, t)
        assert compose(w, p).images == t.images
        assert factor_through_epi(p, identity_hom(Z2)) is None
        assert len(built) == 1

    def test_multi_column_find_factors_once(self, monkeypatch):
        P, p1, p2 = group_pullback(mod2_hom(), mod2_hom())
        factorings = _calls(monkeypatch, "factored")
        ks = [Z.elem([k]) for k in range(-3, 4)]
        xs = _preimage_lookup([p1, p2])([ks, ks])
        assert [(p1(x), p2(x)) for x in xs] == list(zip(ks, ks))
        assert len(factorings) == 1

    def test_equal_leg_lists_build_one_lookup(self, monkeypatch):
        # two pullbacks of equal maps give equal, separately built legs
        legs = [list(group_pullback(mod2_hom(), mod2_hom())[1:])
                for _ in range(2)]
        one = identity_hom(Z)
        _factoring_through_legs.cache_clear()
        built = _calls(monkeypatch, "_stacked_legs")
        for p1, p2 in legs:
            w = factor_through_legs([p1, p2], [one, one])
            assert compose(p1, w).images == one.images
        assert factor_through_legs(legs[0], [one, zero_hom(Z, Z)]) is None
        assert len(built) == 1

    def test_equal_subgroups_share_one_factorization(self, monkeypatch):
        G = make_fgab_group(2, [4])
        S, T = (subgroup(G, [G.elem([2, 1, 1]), G.elem([0, 3, 2])])
                for _ in range(2))
        _subgroup_snf.cache_clear()
        factorings = _calls(monkeypatch, "factored")
        assert S is T
        assert S.contains(G.elem([2, 4, 3])) and T.contains(G.elem([4, 2, 2]))
        assert not T.contains(G.elem([1, 0, 0]))
        assert not S.is_whole() and not T.is_whole()
        assert len(factorings) == 1


class TestMediatingMaps:
    def test_epi_none_when_kernel_not_killed(self):
        G, H = cyclic_group(4), cyclic_group(2)
        p = make_hom(G, H, [H.elem(i % 2) for i in range(4)])
        assert factor_through_epi(p, identity_hom(G)) is None
        w = factor_through_epi(p, p)
        assert w is not None and compose(w, p).images == p.images

    def test_epi_none_when_generator_agreement_is_not_enough(self):
        # Z -> Z/2 and t = id_Z agree on the generator through w(1) = 1,
        # but that w is no hom: 2 * w(1) = 2 is not w(0) = 0
        assert factor_through_epi(mod2_hom(), identity_hom(Z)) is None

    def test_epi_fgab(self):
        p = make_hom(Z2, Z, [Z.elem([1]), Z.elem([0])])
        t = make_hom(Z2, Zmod2, [Zmod2.elem([1]), Zmod2.elem([0])])
        w = factor_through_epi(p, t)
        assert w is not None and compose(w, p).images == t.images
        assert factor_through_epi(p, identity_hom(Z2)) is None

    def test_epi_from_fgab_onto_finite_is_refused(self):
        # generators of Z cannot show that w on a finite Z/2 is a hom
        G = cyclic_group(2)
        p = make_hom(Z, G, [G.elem(1)])
        with pytest.raises(BackendMismatch):
            factor_through_epi(p, identity_hom(Z))

    def test_mono_fgab(self):
        dbl = make_hom(Z, Z, [Z.elem([2])])
        w = factor_through_mono(dbl, make_hom(Z, Z, [Z.elem([6])]))
        assert w is not None and w.images == (Z.elem([3]),)
        assert factor_through_mono(dbl, identity_hom(Z)) is None

    def test_legs_of_a_pullback(self):
        C4, C2 = cyclic_group(4), cyclic_group(2)
        for f, X in ((make_hom(C4, C2, [C2.elem(i % 2) for i in range(4)]), C4),
                     (mod2_hom(), Z)):
            P, p1, p2 = group_pullback(f, f)
            one = identity_hom(X)
            w = factor_through_legs([p1, p2], [one, one])
            assert compose(p1, w).images == one.images
            assert compose(p2, w).images == one.images
            # f . 1 differs from f . 0: no map into the pullback
            zero = zero_hom(X, X)
            assert factor_through_legs([p1, p2], [one, zero]) is None

    def test_finite_pairs_agree_with_make_hom(self):
        groups = [cyclic_group(2), cyclic_group(4), klein_four_group(),
                  symmetric_group_3()]
        epis = monos = 0
        for G, Q, C in itertools.product(groups, repeat=3):
            if Q.order() > G.order() or C.order() ** Q.order() > 1296:
                continue
            for p in enumerate_group_homs(G, Q):
                if not is_surjective(p):
                    continue
                for t in enumerate_group_homs(G, C):
                    found = factor_through_epi(p, t)
                    expected = [w for w in _validated_maps(Q, C)
                                if compose(w, p).images == t.images]
                    assert expected == ([] if found is None else [found])
                    epis += 1
        for X, K, C in itertools.product(groups, repeat=3):
            if K.order() > C.order() or K.order() ** X.order() > 1296:
                continue
            for i in enumerate_group_homs(K, C):
                if not is_injective(i):
                    continue
                for t in enumerate_group_homs(X, C):
                    found = factor_through_mono(i, t)
                    expected = [w for w in _validated_maps(X, K)
                                if compose(i, w).images == t.images]
                    assert expected == ([] if found is None else [found])
                    monos += 1
        assert epis > 0 and monos > 0


class TestKernelQuotient:
    def test_kernel_of_mod2_is_even_integers(self):
        K, inj = group_kernel(mod2_hom())
        assert K.rank == 1 and K.torsion == ()
        img = inj(K.generators()[0])
        assert img.coords in ((2,), (-2,))

    def test_image_of_fgab_into_finite(self):
        # the generator images are closed up, not taken as the image
        C4 = cyclic_group(4)
        assert image_subgroup(make_hom(Z, C4, [C4.elem(1)])).elements == \
            frozenset(C4.elements())
        assert image_subgroup(make_hom(Z2, C4, [C4.elem(2), C4.elem(0)])
                              ).elements == {C4.elem(0), C4.elem(2)}

    def test_kernel_of_fgab_into_finite(self):
        C2 = cyclic_group(2)
        K = kernel_subgroup(make_hom(Z, C2, [C2.elem(1)]))
        assert subgroup_equal(K, subgroup(Z, [Z.elem([2])]))

    def test_kernel_of_identity_trivial(self):
        K, _ = group_kernel(identity_hom(Zmod4))
        assert K.order() == 1

    def test_kernel_of_projection(self):
        # (x, y) |-> y has kernel Z embedded as (x, 0); derived from the
        # Smith form of the one-row matrix [0 1]
        pr = make_hom(Z2, Z, [Z.elem([0]), Z.elem([1])])
        K, inj = group_kernel(pr)
        assert K.rank == 1
        assert inj(K.generators()[0]).coords in ((1, 0), (-1, 0))

    def test_quotient_z_mod_2z(self):
        Q, q = quotient(Z, subgroup(Z, [Z.elem([2])]))
        assert Q.rank == 0 and Q.torsion == (2,)
        assert q(Z.elem([3])) == q(Z.elem([1]))
        assert q(Z.elem([4])) == Q.zero

    def test_quotient_finite_coset_enumeration(self):
        G = cyclic_group(4)
        Q, q = quotient(G, subgroup(G, [G.elem(2)]))
        assert Q.order() == 2
        assert q(G.elem(2)) == Q.zero and q(G.elem(1)) != Q.zero

    def test_quotient_z2_by_relation(self):
        Q, _ = quotient(Z2, subgroup(Z2, [Z2.elem([2, 0])]))
        assert (Q.rank, Q.torsion) == (1, (2,))

    def test_quotient_not_normal(self):
        from preordgrp.corpus import symmetric_group_3
        S3 = symmetric_group_3()
        flip = next(x for x in S3.elements()
                    if x + x == S3.zero and x != S3.zero)
        with pytest.raises(NotNormal):
            quotient(S3, subgroup(S3, [flip]))

    def test_cokernel(self):
        dbl = make_hom(Z, Z, [Z.elem([2])])
        Q, _ = quotient(Z, image_subgroup(dbl))
        assert Q.torsion == (2,) and Q.rank == 0

    def test_quotient_normalization_idempotent(self):
        S = subgroup(Z2, [Z2.elem([2, 0]), Z2.elem([0, 3])])
        Q1, _ = quotient(Z2, S)
        # renormalizing the resulting presentation changes nothing
        Q2 = make_fgab_group(Q1.rank, list(Q1.torsion))
        assert Q1 == Q2


class TestSubgroups:
    def test_membership(self):
        S = subgroup(Z2, [Z2.elem([2, 0]), Z2.elem([0, 3])])
        assert S.contains(Z2.elem([4, -3]))
        assert not S.contains(Z2.elem([1, 0]))

    def test_trivial_whole(self):
        assert trivial_subgroup(Z2).is_trivial()
        assert subgroup(Z2, Z2.generators()).is_whole()
        assert not subgroup(Z2, [Z2.elem([2, 0])]).is_whole()

    def test_preimage_and_intersection(self):
        h = mod2_hom()
        pre = subgroup_preimage(h, trivial_subgroup(Zmod2))
        assert pre.contains(Z.elem([-6])) and not pre.contains(Z.elem([1]))
        meet = subgroup_intersection(subgroup(Z, [Z.elem([2])]),
                                     subgroup(Z, [Z.elem([3])]))
        assert meet.contains(Z.elem([6])) and not meet.contains(Z.elem([2]))

    def test_preimage_along_map_into_zero_group(self):
        Z0 = make_fgab_group(0, [])
        pre = subgroup_preimage(zero_hom(Z, Z0), trivial_subgroup(Z0))
        assert pre.is_whole()
        assert lattice_preimage([], [], 2, 0) == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("rank", range(4))
    @pytest.mark.parametrize("torsion", [(), (2,), (2, 4), (3,)])
    def test_closed_form_is_whole_matches_membership(self, rank, torsion):
        # the closed form against the per-generator membership test it
        # replaced, on generated subgroups of every size: none, a few
        # random elements, the canonical generators and a unimodular mix
        G = make_fgab_group(rank, list(torsion))
        rng = random.Random(rank * 100 + sum(torsion))

        def elem():
            return G.elem([rng.randint(-3, 3) for _ in range(rank)]
                          + [rng.randrange(d) for d in torsion])

        gens = list(G.generators())
        mixed = [a + b for a, b in zip(gens, gens[1:])] + gens[-1:]
        cases = [[], gens, mixed, gens[1:], [g + g for g in gens]]
        cases += [[elem() for _ in range(k)] for k in range(1, 5)
                  for _ in range(6)]
        verdicts = set()
        for gs in cases:
            S = subgroup(G, gs)
            old = all(S.contains(g) for g in G.generators())
            assert S.is_whole() == old, (G, gs)
            verdicts.add(old)
        assert verdicts == ({True} if G.ncoords == 0 else {True, False})

    def test_subgroup_to_group_roundtrip(self):
        S = subgroup(Zmod4, [Zmod4.elem([2])])
        K, inj = subgroup_to_group(S)
        assert K.order() == 2
        assert inj(K.generators()[0]).coords == (2,)

    def test_finite_subgroup_presentation(self):
        G = cyclic_group(6)
        S = subgroup_from_elements(G, [G.elem(0), G.elem(2), G.elem(4)])
        K, inj = subgroup_to_group(S)
        assert K.order() == 3
        assert {inj(x) for x in K.elements()} == set(S.elements)


class TestProductsPullbacks:
    def test_product_over_trivial_is_plane(self):
        T = make_fgab_group(0, [])
        z1 = zero_hom(Z, T)
        P, p1, p2 = group_pullback(z1, z1)
        assert P.rank == 2

    def test_pullback_of_mod2_pair(self):
        h = mod2_hom()
        P, p1, p2 = group_pullback(h, h)
        assert P.rank == 2 and P.torsion == ()
        for g in P.generators():
            assert h(p1(g)) == h(p2(g))
        # (x, y) in P forces x = y mod 2; brute-force the small window
        seen = set()
        for a in range(-2, 3):
            for b in range(-2, 3):
                x = P.elem([a, b])
                seen.add((p1(x).coords[0] - p2(x).coords[0]) % 2)
        assert seen == {0}

    def test_pullback_of_identity(self):
        h = mod2_hom()
        P, p1, p2 = group_pullback(identity_hom(Zmod2), h)
        assert (P.rank, P.torsion) == (1, ())
        assert is_isomorphism(p2)

    def test_finite_pullback(self):
        G = cyclic_group(2)
        h = make_hom(cyclic_group(4), G, [G.elem(i % 2) for i in range(4)])
        P, p1, p2 = group_pullback(h, h)
        assert P.order() == 8

    def test_product_names_and_projections(self):
        pr = direct_product(cyclic_group(2), cyclic_group(3))
        assert pr.group.order() == 6
        x = pr.inj1(cyclic_group(2).elem(1))
        assert pr.proj1(x) == cyclic_group(2).elem(1)
        assert pr.proj2(x) == cyclic_group(3).zero


class TestConversion:
    def test_cyclic(self):
        G = cyclic_group(4)
        H, to_h, from_h = fgab_from_finite_abelian(G)
        assert H.rank == 0 and H.torsion == (4,)
        for x in G.elements():
            assert from_h(to_h(x)) == x
        for y in H.elements():
            assert to_h(from_h(y)) == y

    def test_klein(self):
        from preordgrp.corpus import klein_four_group
        H, to_h, from_h = fgab_from_finite_abelian(klein_four_group())
        assert H.torsion == (2, 2)


class TestHomEnumeration:
    def test_finite_counts(self):
        # Hom(Z/4, Z/2) has 2 elements, Hom(Z/2, Z/4) has 2
        assert len(enumerate_group_homs(cyclic_group(4), cyclic_group(2))) == 2
        assert len(enumerate_group_homs(cyclic_group(2), cyclic_group(4))) == 2
        # Hom(Z/3, Z/4) is trivial
        assert len(enumerate_group_homs(cyclic_group(3), cyclic_group(4))) == 1

    def test_s3_endomorphisms(self):
        # |End(S3)| = 10: 1 zero, 3 sign-like maps onto {e, transposition},
        # 6 automorphisms... sign maps: 3 choices of transposition + zero +
        # 6 inner = 10
        from preordgrp.corpus import symmetric_group_3
        S3 = symmetric_group_3()
        assert len(enumerate_group_homs(S3, S3)) == 10

    def test_bounded_fgab(self):
        homs = enumerate_homs_bounded(Z, Z, 2)
        assert len(homs) == 5
        homs2 = enumerate_homs_bounded(Z, Zmod4, 1)
        assert len(homs2) == 4
        # torsion respects orders: Z/2 -> Z/4 lands in {0, 2}
        homs3 = enumerate_homs_bounded(Zmod2, Zmod4, 1)
        assert len(homs3) == 2

    def test_bounded_fgab_refuses_past_the_cap(self):
        # 21^4 = 194,481 homs Z^2 -> Z^2 within bound 10: refused before
        # any is built
        with pytest.raises(EnumerationUnbounded) as exc:
            enumerate_homs_bounded(Z2, Z2, 10)
        assert exc.value.bound == 10 and "194481 homs" in str(exc.value)
        assert len(enumerate_homs_bounded(Z2, Z2, 8)) == 17 ** 4


def _obeys_full_law(G, images):
    """Reference: h(a + b) = h(a) + h(b) on every pair of elements."""
    h = dict(zip(G.elements(), images))
    return all(h[a + b] == h[a] + h[b]
               for a in G.elements() for b in G.elements())


def _homs_by_full_law(G, H):
    """Reference enumeration: generator images in ``itertools.product``
    order, extended along a breadth-first spanning tree of the Cayley
    graph, kept iff the full law holds."""
    gens = G.generators()
    out = []
    for combo in itertools.product(H.elements(), repeat=len(gens)):
        images = {G.zero: H.zero}
        frontier = [G.zero]
        while frontier:
            reached = []
            for x in frontier:
                for g, y in zip(gens, combo):
                    if x + g not in images:
                        images[x + g] = images[x] + y
                        reached.append(x + g)
            frontier = reached
        images = [images[x] for x in G.elements()]
        if _obeys_full_law(G, images):
            out.append(tuple(images))
    return out


class TestCayleyGraphLaw:
    @pytest.mark.parametrize("dom, cod", [(4, 2), ("V4", "V4"), ("S3", 3),
                                          ("S3", 2), (1, 2)])
    def test_make_hom_accepts_exactly_the_full_law(self, dom, cod):
        G, H = [finite_corpus_groups()[g] if isinstance(g, str)
                else cyclic_group(g) for g in (dom, cod)]
        accepted = 0
        for images in itertools.product(H.elements(), repeat=G.order()):
            try:
                make_hom(G, H, images)
                ok = True
            except ValueError:
                ok = False
            assert ok == _obeys_full_law(G, images), images
            accepted += ok
        assert accepted == len(enumerate_group_homs(G, H))

    def test_enumeration_matches_the_full_law(self):
        groups = finite_corpus_groups()
        for gn, G in groups.items():
            for hn, H in groups.items():
                got = [h.images for h in enumerate_group_homs(G, H)]
                assert got == _homs_by_full_law(G, H), (gn, hn)


class TestMixedBackendPullback:
    def test_finite_abelian_converts(self):
        # mod-2 from the finite C4 and from the fgab Z, over the finite C2
        C4 = cyclic_group(4)
        C2 = cyclic_group(2)
        f = make_hom(C4, C2, [C2.elem(i % 2) for i in range(4)])
        g = make_hom(Z, C2, [C2.elem(1)])
        P, p1, p2 = group_pullback(f, g)
        assert P.backend == "fgab"
        assert p1.cod == C4 and p2.cod == Z
        for gen in P.generators():
            assert f(p1(gen)) == g(p2(gen))

    def test_nonabelian_mixing_rejected(self):
        from preordgrp.corpus import symmetric_group_3
        from preordgrp.errors import BackendMismatch
        S3 = symmetric_group_3()
        f = make_hom(S3, S3, S3.elements())
        g = zero_hom(Z, S3)
        with pytest.raises(BackendMismatch):
            group_pullback(f, g)

    def test_mixed_pog_pullback_with_cones(self):
        from preordgrp.cones import explicit_cone, units
        from preordgrp.pog import make_pog, make_pog_morphism, pog_pullback
        C4 = cyclic_group(4)
        C2 = cyclic_group(2)
        Pdom = make_pog(C4, explicit_cone(C4, [C4.elem(0), C4.elem(2)]))
        Pcod = make_pog(C2, explicit_cone(C2, C2.elements()))
        from preordgrp.cones import generator_cone
        ZN = make_pog(Z, generator_cone(Z, [Z.elem([1])]))
        f = make_pog_morphism(
            make_hom(C4, C2, [C2.elem(i % 2) for i in range(4)]), Pdom, Pcod)
        g = make_pog_morphism(make_hom(Z, C2, [C2.elem(1)]), ZN, Pcod)
        lim = pog_pullback(f, g)
        assert lim.obj.group.backend == "fgab"
        # membership joins the explicit half-cone with the naturals
        found_in = found_out = False
        from preordgrp.cones import cone_contains
        for a in range(-2, 3):
            for b in range(-2, 3):
                x = lim.obj.group.elem([a, b])
                inside = bool(cone_contains(lim.obj.cone, x))
                expected = (lim.legs[0].hom(x) in Pdom.cone.members
                            and lim.legs[1].hom(x).coords[0] >= 0)
                assert inside == expected
                found_in |= inside
                found_out |= not inside
        assert found_in and found_out
        U = units(lim.obj.cone)
        assert not U.is_whole()
