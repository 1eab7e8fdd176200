"""Enumeration and universal-property verification."""

import itertools

import pytest
from conftest import clear_package_caches

from preordgrp import cones, factor, groups, oracle, pog, torsion
from preordgrp.cones import explicit_cone, trivial_cone
from preordgrp.corpus import (
    finite_corpus_groups,
    finite_corpus_objects,
    finite_corpus_objects_up_to,
    symmetric_group_3,
)
from preordgrp.errors import ImageNotNormal, UnknownLaw
from preordgrp.groups import (
    cyclic_group,
    direct_product,
    identity_hom,
    make_fgab_group,
    make_hom,
)
from preordgrp.oracle import (
    LAW_REGISTRY,
    UniversalPropertyQuery,
    _composite,
    enumerate_cones,
    enumerate_pog_morphisms,
    search_counterexample,
    verify_universal_property,
)
from preordgrp.pog import (
    PreorderedGroup,
    identity_morphism,
    make_pog,
    make_pog_morphism,
    pog_cokernel,
    pog_equalizer,
    pog_kernel,
    pog_product,
    pog_pullback,
    structural_morphism,
    zero_morphism,
)


@pytest.fixture(autouse=True)
def _fresh_test_verdicts():
    """Each test runs its own test-arrow loops: a verdict cached by an
    earlier test must not answer for it, nor one it made outlive it."""
    oracle._test_verdict.cache_clear()
    yield
    oracle._test_verdict.cache_clear()


def _patch(monkeypatch, target, name, value):
    """Patch an oracle internal and forget the verdicts made without it."""
    monkeypatch.setattr(target, name, value)
    oracle._test_verdict.cache_clear()


class TestEnumerateCones:
    def test_z4(self):
        cs = enumerate_cones(cyclic_group(4))
        assert [len(c.members) for c in cs] == [1, 2, 4]

    def test_s3_normal_subgroups(self):
        cs = enumerate_cones(symmetric_group_3())
        assert [len(c.members) for c in cs] == [1, 3, 6]

    def test_trivial_group(self):
        assert len(enumerate_cones(cyclic_group(1))) == 1

    def test_determinism(self):
        a = enumerate_cones(cyclic_group(6))
        b = enumerate_cones(cyclic_group(6))
        assert [c.members for c in a] == [c.members for c in b]

    def test_counts_match_normal_subgroup_counts(self):
        expected = {"Z2": 2, "Z3": 2, "Z4": 3, "V4": 5, "S3": 3,
                    "D4": 6, "Q8": 6, "Z6": 4}
        for name, G in finite_corpus_groups().items():
            assert len(enumerate_cones(G)) == expected[name], name


def _cones_by_subset_scan(G):
    """Reference: every subset containing zero that is closed under sums
    and conjugation, in the order ``enumerate_cones`` promises."""
    els = G.elements()
    rest = [x for x in els if x != G.zero]
    found = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            members = frozenset(combo) | {G.zero}
            if all(a + b in members for a in members for b in members) \
                    and all(G.conjugate(g, x) in members
                            for g in els for x in members):
                found.append(members)
    found.sort(key=lambda m: (len(m), sorted(x.coords for x in m)))
    return found


def _reference_groups():
    groups = dict(finite_corpus_groups())
    C2, C4 = cyclic_group(2), cyclic_group(4)
    groups["Z8"] = cyclic_group(8)
    groups["Z2xZ4"] = direct_product(C2, C4).group
    groups["Z2^3"] = direct_product(groups["V4"], C2).group
    groups["S3xZ2"] = direct_product(groups["S3"], C2).group
    groups["D4xZ2"] = direct_product(groups["D4"], C2).group
    return groups


@pytest.mark.parametrize("name", sorted(_reference_groups()))
def test_enumerate_cones_matches_subset_scan(name):
    G = _reference_groups()[name]
    assert [c.members for c in enumerate_cones(G)] == _cones_by_subset_scan(G)


class TestEnumerateMorphisms:
    def test_total_to_discrete_only_zero(self):
        G = cyclic_group(4)
        P = PreorderedGroup(G, explicit_cone(G, G.elements()))
        Q = PreorderedGroup(G, explicit_cone(G, [G.zero]))
        ms = enumerate_pog_morphisms(P, Q)
        assert len(ms) == 1 and ms[0].is_zero()

    def test_discrete_to_total_all_homs(self):
        G = cyclic_group(2)
        P = PreorderedGroup(G, explicit_cone(G, [G.zero]))
        Q = PreorderedGroup(G, explicit_cone(G, G.elements()))
        assert len(enumerate_pog_morphisms(P, Q)) == 2

    def test_identity_always_listed(self):
        for name, P in list(finite_corpus_objects_up_to(4).items())[:8]:
            ms = enumerate_pog_morphisms(P, P)
            assert any(m.hom.images == identity_hom(P.group).images
                       for m in ms), name


Z = make_fgab_group(1, [])
Zmod2 = make_fgab_group(0, [2])


def _test_objects():
    return tuple(finite_corpus_objects_up_to(4).values())


class TestUniversalProperties:
    def test_kernel_query(self):
        G = cyclic_group(4)
        H = cyclic_group(2)
        P = make_pog(G, explicit_cone(G, [G.elem(0), G.elem(2)]))
        Q = make_pog(H, explicit_cone(H, [H.zero]))
        m = make_pog_morphism(
            make_hom(G, H, [H.elem(i % 2) for i in range(4)]), P, Q)
        K, inj = pog_kernel(m)
        rep = verify_universal_property(
            UniversalPropertyQuery("Kernel", (m, K, inj), _test_objects()))
        assert rep.holds and rep.tested > 0

    def test_cokernel_query_and_sabotage(self):
        G = cyclic_group(4)
        H = cyclic_group(2)
        P = make_pog(G, explicit_cone(G, [G.elem(0), G.elem(2)]))
        Q = make_pog(H, explicit_cone(H, [H.zero]))
        m = make_pog_morphism(
            make_hom(G, H, [H.elem(i % 2) for i in range(4)]), P, Q)
        K, inj = pog_kernel(m)
        Qc, proj = pog_cokernel(inj)
        ok = verify_universal_property(
            UniversalPropertyQuery("Cokernel", (inj, Qc, proj), _test_objects()))
        assert ok.holds
        # candidate with a deliberately wrong (total) cone: the mediating
        # map to the true cokernel cannot preserve cones
        bad = PreorderedGroup(Qc.group, explicit_cone(Qc.group,
                                                      Qc.group.elements()))
        bad_proj = structural_morphism(proj.hom, inj.cod, bad, "sabotaged")
        rep = verify_universal_property(
            UniversalPropertyQuery("Cokernel", (inj, bad, bad_proj),
                                   _test_objects()))
        assert not rep.holds and rep.counterexample

    def test_product_query(self):
        G = cyclic_group(2)
        P = make_pog(G, explicit_cone(G, G.elements()))
        lim = pog_product(P, P)
        rep = verify_universal_property(
            UniversalPropertyQuery(
                "Product", (P, P, lim.obj, lim.legs[0], lim.legs[1]),
                _test_objects()))
        assert rep.holds

    def test_pullback_query(self):
        G = cyclic_group(4)
        H = cyclic_group(2)
        P = make_pog(G, explicit_cone(G, G.elements()))
        Q = make_pog(H, explicit_cone(H, H.elements()))
        m = make_pog_morphism(
            make_hom(G, H, [H.elem(i % 2) for i in range(4)]), P, Q)
        lim = pog_pullback(m, m)
        rep = verify_universal_property(
            UniversalPropertyQuery(
                "Pullback", (m, m, lim.obj, lim.legs[0], lim.legs[1]),
                _test_objects()))
        assert rep.holds

    def test_equalizer_query(self):
        G = cyclic_group(4)
        P = make_pog(G, explicit_cone(G, G.elements()))
        dbl = make_pog_morphism(
            make_hom(G, G, [G.elem((2 * i) % 4) for i in range(4)]), P, P)
        lim = pog_equalizer(identity_morphism(P), dbl)
        rep = verify_universal_property(
            UniversalPropertyQuery(
                "Equalizer", (identity_morphism(P), dbl, lim.obj, lim.legs[0]),
                _test_objects()))
        assert rep.holds

    def test_reflection_unit_query(self):
        from preordgrp.torsion import torsion_sequence
        G = cyclic_group(4)
        P = make_pog(G, explicit_cone(G, [G.elem(0), G.elem(2)]))
        dec = torsion_sequence(P)
        rep = verify_universal_property(
            UniversalPropertyQuery("ReflectionUnit",
                                   (dec.unit, "partially_ordered"),
                                   _test_objects()))
        assert rep.holds and rep.tested > 0

    def test_coreflection_counit_query(self):
        from preordgrp.torsion import torsion_sequence
        G = cyclic_group(4)
        P = make_pog(G, explicit_cone(G, [G.elem(0), G.elem(2)]))
        dec = torsion_sequence(P)
        rep = verify_universal_property(
            UniversalPropertyQuery("CoreflectionCounit",
                                   (dec.counit, "total"), _test_objects()))
        assert rep.holds and rep.tested > 0

    def test_coequalizer_rejects_non_surjective_candidate(self):
        objs = finite_corpus_objects()
        P = objs["V4/cone0"]
        one = identity_morphism(P)
        for name, Q in objs.items():
            if Q.group.order() != 2:
                continue
            rep = verify_universal_property(UniversalPropertyQuery(
                "Coequalizer", (one, one, Q, zero_morphism(P, Q)),
                _test_objects()))
            assert not rep.holds and rep.counterexample == "candidate not epic", name

    def test_z_pre_queries(self):
        from preordgrp.torsion import pretorsion_sequence
        G = cyclic_group(4)
        P = make_pog(G, explicit_cone(G, [G.elem(0), G.elem(2)]))
        dec = pretorsion_sequence(P)
        rep1 = verify_universal_property(
            UniversalPropertyQuery("ZPrekernel",
                                   (dec.unit, dec.torsion_part, dec.counit),
                                   _test_objects()))
        rep2 = verify_universal_property(
            UniversalPropertyQuery("ZPrecokernel",
                                   (dec.counit, dec.free_part, dec.unit),
                                   _test_objects()))
        assert rep1.holds and rep2.holds


def _mod2():
    G, H = cyclic_group(4), cyclic_group(2)
    P = make_pog(G, explicit_cone(G, [G.elem(0), G.elem(2)]))
    Q = make_pog(H, explicit_cone(H, [H.zero]))
    return make_pog_morphism(
        make_hom(G, H, [H.elem(i % 2) for i in range(4)]), P, Q)


class TestCompositeTests:
    """The handlers that only test a composite skip its cone certificate;
    their verdicts and refusals stay those of the certified composite."""

    def test_kernel_rejects_candidate_not_composing_to_zero(self):
        m = _mod2()
        one = identity_morphism(m.dom)
        rep = verify_universal_property(
            UniversalPropertyQuery("Kernel", (m, m.dom, one), _test_objects()))
        assert not rep.holds
        assert rep.counterexample == "candidate does not compose to zero"

    def test_cokernel_rejects_candidate_not_killing_the_image(self):
        m = _mod2()
        one = identity_morphism(m.cod)
        rep = verify_universal_property(
            UniversalPropertyQuery("Cokernel", (m, m.cod, one), _test_objects()))
        assert not rep.holds
        assert rep.counterexample == "candidate does not kill the image"

    def test_equalizer_rejects_candidate_not_equalizing(self):
        m = _mod2()
        P = m.dom
        one = identity_morphism(P)
        dbl = make_pog_morphism(make_hom(P.group, P.group, [
            P.group.elem((2 * i) % 4) for i in range(4)]), P, P)
        rep = verify_universal_property(UniversalPropertyQuery(
            "Equalizer", (one, dbl, P, one), _test_objects()))
        assert not rep.holds and rep.counterexample == "candidate does not equalize"

    def test_composite_refuses_non_composable_pair(self):
        m = _mod2()
        with pytest.raises(ValueError):
            _composite(m, m)
        # the composite at the generators of Z/4, here the one element 1
        assert _composite(m, identity_morphism(m.dom)) == (m.hom.images[1],)
        # same group, other cone: the groups compose, the objects do not
        G = m.dom.group
        total = make_pog(G, explicit_cone(G, G.elements()))
        with pytest.raises(ValueError):
            _composite(identity_morphism(total), identity_morphism(m.dom))
        # a candidate into the wrong object is refused, not misjudged
        with pytest.raises(ValueError):
            verify_universal_property(UniversalPropertyQuery(
                "Kernel", (m, m.cod, identity_morphism(m.cod)), _test_objects()))


def _z4_mod2(dom_cone, cod_cone):
    """Z/4 -> Z/2, x -> x mod 2, between the objects with the given cones
    (member indices)."""
    G, H = cyclic_group(4), cyclic_group(2)
    P = make_pog(G, explicit_cone(G, [G.elem(i) for i in dom_cone]))
    Q = make_pog(H, explicit_cone(H, [H.elem(i) for i in cod_cone]))
    return make_pog_morphism(
        make_hom(G, H, [H.elem(i % 2) for i in range(4)]), P, Q)


def _assert_refused(kind, data, reason):
    """The query fails before any test arrow, for the given reason."""
    rep = verify_universal_property(
        UniversalPropertyQuery(kind, data, _test_objects()))
    assert (rep.holds, rep.tested, rep.counterexample) == (False, 0, reason)


class TestSoundCandidates:
    """A mediating map found by exact preimages is a hom, and the only one,
    when the candidate is mono, epi or has jointly monic legs; any other
    candidate is refused before a test arrow is tried."""

    def test_pullback_legs_must_be_jointly_monic(self):
        # (Z/4, mod 2, mod 2) over id of Z/2, all total: Z/2 -> Z/2 does
        # not factor through Z/4 -> Z/2 by any hom
        m = _z4_mod2(range(4), [0, 1])
        one = identity_morphism(m.cod)
        _assert_refused("Pullback", (one, one, m.dom, m, m),
                        "legs not jointly monic")

    def test_product_legs_must_be_jointly_monic(self):
        m = _z4_mod2([0], [0])
        _assert_refused("Product", (m.cod, m.cod, m.dom, m, m),
                        "legs not jointly monic")

    def test_coreflection_counit_must_be_monic(self):
        # the same map as a counit from the total objects
        m = _z4_mod2(range(4), [0, 1])
        _assert_refused("CoreflectionCounit", (m, "total"),
                        "candidate not monic")

    def test_reflection_unit_must_be_epic(self):
        G, H = cyclic_group(2), cyclic_group(4)
        incl = make_pog_morphism(
            make_hom(G, H, [H.elem(0), H.elem(2)]),
            make_pog(G, explicit_cone(G, [G.zero])),
            make_pog(H, explicit_cone(H, [H.zero])))
        _assert_refused("ReflectionUnit", (incl, "partially_ordered"),
                        "candidate not epic")


class TestCandidatesOfTheRightForm:
    """A candidate whose legs miss the diagram, that is not a pullback
    square, or whose unit or counit leaves the class, is refused before a
    test arrow is tried."""

    def test_pullback_square_must_commute(self):
        # the product of Z/2 with itself over id of Z/2 is not its pullback
        H = cyclic_group(2)
        T = make_pog(H, explicit_cone(H, H.elements()))
        one = identity_morphism(T)
        lim = pog_product(T, T)
        _assert_refused("Pullback", (one, one, lim.obj, *lim.legs),
                        "candidate square does not commute")

    def test_product_legs_must_reach_the_factors(self):
        # the product of Z/2 with itself offered as that of Z/2 and Z/3
        objs = finite_corpus_objects_up_to(4)
        A, B = objs["Z2/cone0"], objs["Z3/cone0"]
        lim = pog_product(A, A)
        _assert_refused("Product", (A, B, lim.obj, *lim.legs),
                        "legs do not reach the factors")

    def test_reflection_unit_must_land_in_the_class(self):
        # (Z/4, {0, 2}) is not partially ordered, so its identity is not
        # its reflection
        one = identity_morphism(_mod2().dom)
        _assert_refused("ReflectionUnit", (one, "partially_ordered"),
                        "unit codomain is not partially_ordered")

    def test_coreflection_counit_must_start_in_the_class(self):
        one = identity_morphism(_mod2().dom)
        _assert_refused("CoreflectionCounit", (one, "total"),
                        "counit domain is not total")


class TestGeneratorRulesCanFail:
    """A wrong version of a generator rule of the oracle gives a wrong
    verdict on a named query."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        # no result made under a patch outlives the test
        yield
        clear_package_caches()

    def test_on_generators_without_its_last_generator(self, monkeypatch):
        # the identity of Z/4 passes for the kernel of x -> x mod 2 once the
        # one generator of Z/4 is dropped: its composite is then empty
        m = _mod2()
        data = (m, m.dom, identity_morphism(m.dom))
        _assert_refused("Kernel", data, "candidate does not compose to zero")
        right = oracle._on_generators
        _patch(monkeypatch, oracle, "_on_generators", lambda h: right(h)[:-1])
        rep = verify_universal_property(
            UniversalPropertyQuery("Kernel", data, _test_objects()))
        assert rep.holds and rep.tested > 0

    def test_epi_mediator_without_the_kernel_check(self, monkeypatch):
        # the zero map onto the trivial object is no reflection of the
        # discrete Z/2: its identity does not factor through it
        objs = finite_corpus_objects_up_to(4)
        P = objs["Z2/cone0"]
        T = cyclic_group(1)
        O = make_pog(T, explicit_cone(T, [T.zero]))
        data = (zero_morphism(P, O), "partially_ordered")
        rep = verify_universal_property(
            UniversalPropertyQuery("ReflectionUnit", data, _test_objects()))
        assert not rep.holds and rep.counterexample.startswith(
            "no factorization through the unit")
        _patch(monkeypatch, oracle, "kernel_subgroup",
               lambda h: groups.trivial_subgroup(h.dom))
        assert verify_universal_property(
            UniversalPropertyQuery("ReflectionUnit", data, _test_objects()))

    def test_mono_mediator_without_the_cone_check(self, monkeypatch):
        # the kernel {0, 2} of Z/4 -> Z/2, all total, offered with the
        # discrete cone: Z/2 -> {0, 2}, 1 -> 2 does not preserve the order
        m = _z4_mod2(range(4), [0, 1])
        data = (m, *_kernel_with_discrete_cone(m))
        rep = verify_universal_property(
            UniversalPropertyQuery("Kernel", data, _test_objects()))
        assert not rep.holds and rep.tested > 0
        _patch(monkeypatch, oracle, "extract_generators", lambda cone: ())
        assert verify_universal_property(
            UniversalPropertyQuery("Kernel", data, _test_objects()))


def test_finite_queries_build_no_hom(monkeypatch):
    # a kernel and a cokernel query decide every test arrow on generators:
    # once the test arrows are listed, no GroupHom is built
    m = _mod2()
    K, inj = pog_kernel(m)
    Q, proj = pog_cokernel(inj)
    queries = [UniversalPropertyQuery("Kernel", (m, K, inj), _test_objects()),
               UniversalPropertyQuery("Cokernel", (inj, Q, proj),
                                      _test_objects())]
    for X in _test_objects():
        enumerate_pog_morphisms(X, m.dom)
        enumerate_pog_morphisms(inj.cod, X)
    built = []
    init = groups.GroupHom.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(groups.GroupHom, "__init__", counting)
    reports = [verify_universal_property(q) for q in queries]
    assert all(rep.holds and rep.tested > 0 for rep in reports)
    assert built == []
    # both loops ran under the patch, neither answered from the cache
    assert oracle._test_verdict.cache_info().misses == 2


class TestOneLoopPerFilterValue:
    """The test-arrow loop runs once per kind, candidate, value its filter
    reads, test objects and bound, and serves the same reports."""

    def test_one_loop_per_kernel_and_image(self):
        objs = finite_corpus_objects_up_to(4)
        test = _test_objects()
        queries, values = [], set()
        for P in objs.values():
            for Q in objs.values():
                for m in enumerate_pog_morphisms(P, Q):
                    images = m.hom.images
                    K, inj = pog_kernel(m)
                    queries.append(UniversalPropertyQuery(
                        "Kernel", (m, K, inj), test))
                    values.add(("Kernel", inj, frozenset(
                        i for i, y in enumerate(images) if y.is_zero())))
                    try:
                        C, proj = pog_cokernel(m)
                    except ImageNotNormal:
                        continue
                    queries.append(UniversalPropertyQuery(
                        "Cokernel", (m, C, proj), test))
                    values.add(("Cokernel", proj, frozenset(images)))
        # all 513 images are normal, each gives a cokernel query
        assert len(queries) == 2 * 513
        alone = []
        for q in queries:
            oracle._test_verdict.cache_clear()
            alone.append(verify_universal_property(q))
        oracle._test_verdict.cache_clear()
        shared = [verify_universal_property(q) for q in queries]
        assert shared == alone
        info = oracle._test_verdict.cache_info()
        assert (info.misses, info.hits) == (len(values),
                                            len(queries) - len(values))

    @pytest.mark.parametrize("zero_first", [False, True])
    def test_one_candidate_two_filters(self, zero_first):
        # the cokernel of Z/2 -> Z/4, 1 -> 2, offered for the zero map too:
        # a test arrow out of Z/4 that kills only the zero image need not
        # factor through it
        objs = finite_corpus_objects_up_to(4)
        maps = enumerate_pog_morphisms(objs["Z2/cone0"], objs["Z4/cone0"])
        zero = next(f for f in maps if f.is_zero())
        m = next(f for f in maps if not f.is_zero())
        Q, proj = pog_cokernel(m)
        refusal = f"no mediating map to {objs['Z4/cone0'].describe()}"
        expected = {m: (True, 32, ""), zero: (False, 8, refusal)}
        for f in (zero, m) if zero_first else (m, zero):
            rep = verify_universal_property(UniversalPropertyQuery(
                "Cokernel", (f, Q, proj), _test_objects()))
            assert (rep.holds, rep.tested, rep.counterexample) == expected[f]
        assert oracle._test_verdict.cache_info().misses == 2

    def test_list_of_test_objects(self):
        m = _mod2()
        K, inj = pog_kernel(m)
        listed = verify_universal_property(UniversalPropertyQuery(
            "Kernel", (m, K, inj), list(_test_objects())))
        paired = verify_universal_property(UniversalPropertyQuery(
            "Kernel", (m, K, inj), _test_objects()))
        assert listed == paired and listed.holds and listed.tested > 0
        info = oracle._test_verdict.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def test_one_hom_list_per_group_pair():
    # groups carrying several cones share one hom list per group pair
    objs = list(finite_corpus_objects_up_to(8).values())
    enumerate_pog_morphisms.cache_clear()
    groups.enumerate_group_homs.cache_clear()
    for P in objs:
        for Q in objs:
            enumerate_pog_morphisms(P, Q)
    pairs = {(P.group, Q.group) for P in objs for Q in objs}
    assert (len(objs), len(pairs)) == (31, 64)
    assert groups.enumerate_group_homs.cache_info().misses == 64


def test_one_enumeration_per_finite_pair():
    objs = list(finite_corpus_objects_up_to(4).values())
    enumerate_pog_morphisms.cache_clear()
    for P in objs:
        for Q in objs:
            assert (enumerate_pog_morphisms(P, Q)
                    is enumerate_pog_morphisms(P, Q, 2)
                    is enumerate_pog_morphisms(P, Q, 10))
    info = enumerate_pog_morphisms.cache_info()
    assert info.misses == len(objs) ** 2 == 144
    assert info.hits == 2 * 144
    # an fgab pair is cached per bound
    A = make_pog(Z, trivial_cone(Z))
    assert len(enumerate_pog_morphisms(A, A, 1)) == 3
    assert len(enumerate_pog_morphisms(A, A, 2)) == 5
    assert enumerate_pog_morphisms.cache_info().misses == 144 + 2


class TestSearch:
    def test_laws_hold_at_order_4(self):
        for law in ("mono_iff_trivial_kernel", "eprime_subset_e",
                    "m_subset_mstar", "torsion_sequence"):
            assert search_counterexample(law, 4) is None, law

    def test_falsified_law_produces_witness(self):
        w = search_counterexample("every_morphism_is_covering", 4)
        assert w is not None and "covering" in w

    def test_mono_law_can_fail(self, monkeypatch):
        # a kernel that is always trivial makes every hom look injective;
        # the law must see the non-injective homs of the corpus
        assert search_counterexample("mono_iff_trivial_kernel", 4) is None
        from preordgrp import groups, oracle
        wrong = lambda h: groups.trivial_subgroup(h.dom)  # noqa: E731
        clear_package_caches()
        monkeypatch.setattr(groups, "kernel_subgroup", wrong)
        monkeypatch.setattr(oracle, "kernel_subgroup", wrong)
        try:
            w = search_counterexample("mono_iff_trivial_kernel", 4)
            assert w is not None and "mono=False but trivial kernel=True" in w
        finally:
            clear_package_caches()

    def test_unknown_law(self):
        with pytest.raises(UnknownLaw):
            search_counterexample("nonsense_law")

    def test_registry_covers_spec_laws(self):
        needed = {"mono_iff_trivial_kernel", "mono_pullback_square",
                  "kernel_characterization", "cokernel_characterization",
                  "short_exact_characterization", "eprime_subset_e",
                  "m_subset_mstar", "hom_total_to_reduced_zero",
                  "torsion_sequence", "stable_units", "prekernel_clause",
                  "precokernel_clause"}
        assert needed <= set(LAW_REGISTRY)


def _kernel_with_discrete_cone(m):
    """The kernel that forgets to restrict the domain cone."""
    K, inj = pog.pog_kernel(m)
    K0 = pog.PreorderedGroup(K.group, trivial_cone(K.group))
    return K0, pog.structural_morphism(inj.hom, K0, m.dom, "kernel")


def _cokernel_with_total_cone(m):
    """The cokernel whose cone is the whole quotient."""
    Q, proj = pog.pog_cokernel(m)
    Q1 = pog.PreorderedGroup(Q.group, cones.total_cone(Q.group))
    return Q1, pog.structural_morphism(proj.hom, m.cod, Q1, "cokernel")


# One plausible wrong version of an engine function per registered law:
# (law, module, attribute, wrong version).
_WRONG = [
    # the preimage of the codomain units taken as the kernel
    ("mono_pullback_square", oracle, "subgroup_preimage",
     lambda h, S: groups.kernel_subgroup(h)),
    # every kernel trivial
    ("kernel_characterization", pog, "group_kernel",
     lambda h: groups.subgroup_to_group(groups.trivial_subgroup(h.dom))),
    ("cokernel_characterization", oracle, "pog_cokernel",
     _cokernel_with_total_cone),
    ("short_exact_characterization", oracle, "pog_kernel",
     _kernel_with_discrete_cone),
    # a normal epi tested on groups only, not on cones
    ("eprime_subset_e", factor, "is_normal_epi",
     lambda m: (groups.is_surjective(m.hom), True)),
    # every unit restriction taken as injective
    ("m_subset_mstar", factor, "is_injective", lambda h: True),
    # a cone check that passes every hom
    ("hom_total_to_reduced_zero", oracle, "cone_preservation",
     lambda hom, dom_cone, cod_cone: (True, None, None)),
    # every cone taken as reduced
    ("torsion_sequence", torsion, "units",
     lambda cone: groups.trivial_subgroup(cone.group)),
    # a pullback that carries the trivial cone
    ("stable_units", pog, "transport_product",
     lambda c1, c2, carrier, p1, p2: trivial_cone(carrier)),
    # a subgroup viewed as the trivial cone instead of the total one
    ("prekernel_clause", torsion, "subgroup_cone",
     lambda S: trivial_cone(S.group)),
    # the quotient cone taken as the total cone, not the image
    ("precokernel_clause", torsion, "transport_image",
     lambda hom, inner: cones.total_cone(hom.cod)),
    # the units rule of an image applied whatever its map's kernel
    ("normal_epi_coequalizes_kernel_pair", cones.ImageCone,
     "kernel_in_units", property(lambda self: True)),
]


class TestLawsCanFail:
    """Each registered law, except the deliberately false one, finds a
    witness once one engine function it rests on is wrong (ROADMAP item
    2).  ``mono_iff_trivial_kernel`` is covered by
    ``TestSearch::test_mono_law_can_fail``."""

    def test_every_law_has_a_wrong_engine(self):
        patched = {law for law, *_ in _WRONG} | {"mono_iff_trivial_kernel"}
        assert patched == set(LAW_REGISTRY) - {"every_morphism_is_covering"}

    @pytest.mark.parametrize("law, module, name, wrong", _WRONG,
                             ids=[w[0] for w in _WRONG])
    def test_law_can_fail(self, monkeypatch, law, module, name, wrong):
        finite_corpus_objects()  # built right, before the patch
        assert search_counterexample(law, 4) is None
        clear_package_caches()
        monkeypatch.setattr(module, name, wrong)
        try:
            assert search_counterexample(law, 4) is not None
        finally:
            clear_package_caches()
