"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  Everything is exact-integer; checks that quantify over
infinite carriers use the documented window (8) or matrix-entry bounds and
say so.  The whole suite targets well under sixty seconds.

The morphism corpus used by several criteria is the full enumeration
between finite corpus objects of order <= 4 plus all bound-1 fgab corpus
morphisms; it comfortably exceeds one hundred morphisms.

Finite cones are normal subgroups, so every finite object is protomodular
and the exhaustive finite checks cover only that case; cones that are not
subgroups are reached through the fgab corpus alone.
"""

import itertools
import random
import time
from functools import lru_cache


from preordgrp.corpus import (
    corpus_objects,
    fgab_corpus_objects,
    finite_corpus_objects,
    finite_corpus_objects_up_to,
)
from preordgrp.oracle import enumerate_pog_morphisms
from preordgrp.pog import classify


def _criterion(number, budget_s, started, description):
    elapsed = time.perf_counter() - started
    passed = elapsed < budget_s
    verdict, relation = ("PASS", "<") if passed else ("FAIL", ">=")
    print(f"criterion {number:>2} {verdict} ({elapsed:6.2f} s {relation} "
          f"{budget_s} s): {description}")
    assert passed, f"criterion {number} exceeded {budget_s}s"


@lru_cache(maxsize=1)
def finite_morphism_corpus():
    objs = sorted(finite_corpus_objects_up_to(4).items())
    out = []
    for pname, P in objs:
        for qname, Q in objs:
            for m in enumerate_pog_morphisms(P, Q):
                out.append((f"{pname}->{qname}", m))
    return out


@lru_cache(maxsize=1)
def fgab_morphism_corpus():
    objs = sorted(fgab_corpus_objects().items())
    out = []
    for pname, P in objs:
        for qname, Q in objs:
            for m in enumerate_pog_morphisms(P, Q, 1):
                out.append((f"{pname}->{qname}", m))
    return out


def test_criterion_01_torsion_theory_axioms():
    from preordgrp.torsion import torsion_sequence
    t0 = time.perf_counter()
    objs = corpus_objects()
    assert len(finite_corpus_objects()) >= 20
    for name, P in objs.items():
        dec = torsion_sequence(P)
        assert dec.certificate.holds, name
        assert "total" in classify(dec.torsion_part), name
        assert "partially_ordered" in classify(dec.free_part), name
    _criterion(1, 5, t0, f"torsion sequences short exact on {len(objs)} objects")


def test_criterion_02_hom_torsion_to_free_zero():
    from preordgrp.torsion import hom_torsion_to_free_is_zero
    t0 = time.perf_counter()
    finite = finite_corpus_objects().items()
    totals = [(n, P) for n, P in finite if "total" in classify(P)]
    reduceds = [(n, P) for n, P in finite
                if "partially_ordered" in classify(P)]
    pairs = 0
    for tn, T in totals:
        for rn, R in reduceds:
            rep = hom_torsion_to_free_is_zero(T, R)
            assert rep.holds, (tn, rn, rep.witness)
            pairs += 1
    fg = fgab_corpus_objects().items()
    fg_totals = [(n, P) for n, P in fg if "total" in classify(P)]
    fg_reduceds = [(n, P) for n, P in fg if "partially_ordered" in classify(P)]
    for tn, T in fg_totals:
        for rn, R in fg_reduceds:
            rep = hom_torsion_to_free_is_zero(T, R, bound=10)
            assert rep.holds, (tn, rn)
            assert rep.bound == 10
            pairs += 1
    _criterion(2, 5, t0, f"only zero morphisms on {pairs} total->reduced pairs")


def _relabeled_cokernel(P, dec):
    """The canonical sequence with its cokernel relabeled through a
    permutation of the non-identity elements."""
    from preordgrp.cones import ExplicitCone, explicit_cone
    from preordgrp.groups import GroupElement, make_finite_group, make_hom
    from preordgrp.pog import PreorderedGroup, make_pog_morphism
    Q = dec.free_part.group
    n = Q.order()
    perm = [0] + [1 + (i + 1) % (n - 1) for i in range(n - 1)] if n > 1 else [0]
    # perm maps old index -> new index, fixing the identity slot 0 layout
    old_names = list(Q.element_names)
    zero_idx = Q.identity_index
    order = [zero_idx] + [i for i in range(n) if i != zero_idx]
    relabel = {order[i]: perm[i] for i in range(n)}
    names = [None] * n
    for old, new in relabel.items():
        names[new] = old_names[old] + "'"
    table = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[relabel[a]][relabel[b]] = relabel[Q.table[a][b]]
    Q2 = make_finite_group(names, table)
    iso = make_hom(Q, Q2, [GroupElement(Q2, (relabel[i],)) for i in range(n)])
    assert isinstance(dec.free_part.cone, ExplicitCone)
    cone2 = explicit_cone(Q2, [iso(x) for x in dec.free_part.cone.members])
    cod2 = PreorderedGroup(Q2, cone2)
    alt_f_hom = make_hom(P.group, Q2, [iso(dec.unit.hom(x))
                                       for x in P.group.elements()])
    alt_f = make_pog_morphism(alt_f_hom, P, cod2)
    return dec.counit, alt_f


def test_criterion_03_uniqueness_of_torsion_sequence():
    from preordgrp.pog import pog_is_iso
    from preordgrp.torsion import torsion_sequence, uniqueness_check
    t0 = time.perf_counter()
    count = 0
    for name, P in finite_corpus_objects().items():
        dec = torsion_sequence(P)
        alt_k, alt_f = _relabeled_cokernel(P, dec)
        t, f = uniqueness_check(P, alt_k, alt_f)
        assert pog_is_iso(t)[0] and pog_is_iso(f)[0], name
        count += 1
    _criterion(3, 2, t0, f"comparison isos built for {count} relabeled sequences")


def test_criterion_04_stable_units():
    from preordgrp.factor import check_stable_units_instance
    from preordgrp.torsion import torsion_sequence
    t0 = time.perf_counter()
    instances = 0
    small_finite = sorted(finite_corpus_objects_up_to(4).items())
    for bname, B in sorted(corpus_objects().items()):
        FB = torsion_sequence(B).free_part
        sources = (small_finite if B.group.backend == "finite"
                   else sorted(fgab_corpus_objects().items()))
        for cname, C in sources:
            for g in enumerate_pog_morphisms(C, FB, 1):
                rep = check_stable_units_instance(B, g)
                assert rep.holds, (bname, cname)
                instances += 1
    assert instances >= 50
    _criterion(4, 10, t0, f"reflector preserved {instances} unit pullbacks")


def test_criterion_05_monotone_light_system():
    from preordgrp.factor import check_orthogonality, in_class, ml_factor
    from preordgrp.groups import compose, factor_through_epi
    from preordgrp.pog import POGMorphism, cone_preservation
    t0 = time.perf_counter()
    morphisms = finite_morphism_corpus() + fgab_morphism_corpus()
    assert len(morphisms) >= 100
    eprime, mstar = [], []
    for desc, m in morphisms:
        fr = ml_factor(m)
        assert fr.recomposes(m), desc
        assert fr.e_class.holds and fr.m_class.holds, desc
        if in_class(m, "Eprime").holds:
            assert in_class(m, "E").holds, desc
            if m.dom.group.backend == "finite":
                eprime.append(m)
        if in_class(m, "M").holds:
            assert in_class(m, "Mstar").holds, desc
        if m.dom.group.backend == "finite" and in_class(m, "Mstar").holds:
            mstar.append(m)
    # orthogonality across enumerated finite-backend squares
    squares = 0
    for e in eprime[:40]:
        for m in mstar[:40]:
            for a in enumerate_pog_morphisms(e.dom, m.dom):
                b_hom = factor_through_epi(e.hom, compose(m.hom, a.hom))
                if b_hom is None:
                    continue
                ok, _, cert = cone_preservation(b_hom, e.cod.cone, m.cod.cone)
                if not ok:
                    continue
                b = POGMorphism(e.cod, m.cod, b_hom, cert)
                rep = check_orthogonality(e, m, a, b)
                assert rep.holds, (e, m)
                squares += 1
    assert squares > 0
    _criterion(5, 15, t0, f"{len(morphisms)} factorizations, "
                          f"{squares} orthogonal squares")


def test_criterion_06_e_characterization_consistency():
    from preordgrp.factor import e_conditions, in_class
    t0 = time.perf_counter()
    checked = 0
    for desc, m in finite_morphism_corpus():
        a, b, c = e_conditions(m)
        assert (a and b and c) == in_class(m, "E").holds, desc
        checked += 1
    _criterion(6, 5, t0, f"both E decision paths agree on {checked} morphisms")


def test_criterion_07_canonical_cover():
    from preordgrp.descent import canonical_cover
    from preordgrp.pog import morphism_class
    t0 = time.perf_counter()
    for name, P in corpus_objects().items():
        cover = canonical_cover(P, width=8)
        assert cover.scan.clean, name
        assert cover.scan.window == 8
        if cover.realized is not None:
            rep = morphism_class(cover.projection)
            assert rep.normal_epi and rep.effective_descent, name
    _criterion(7, 5, t0, "covers scan clean at W=8, projections normal epi")


def test_criterion_08_covering_equivalence():
    # is_covering decides M*; the independent routes are the definitions:
    # a finite cone is a subgroup, so M* asks for no nonzero positive
    # element in the kernel, and an fgab morphism is a covering iff its
    # pullback along the canonical cover of its codomain is a trivial
    # covering (the width only sizes the cover's confirmation scan)
    from preordgrp.descent import canonical_cover, is_covering, \
        is_covering_along
    t0 = time.perf_counter()
    checked = 0
    for desc, m in finite_morphism_corpus():
        positive_kernel = any(
            not x.is_zero() and m.hom(x).is_zero() and m.dom.cone.contains(x)
            for x in m.dom.group.elements())
        assert is_covering(m) == (not positive_kernel), desc
        checked += 1
    covers = {}
    for desc, m in fgab_morphism_corpus():
        if m.cod not in covers:
            covers[m.cod] = canonical_cover(m.cod, width=1).projection
        assert is_covering(m) == is_covering_along(m, covers[m.cod]), desc
        checked += 1
    _criterion(8, 2, t0, f"covering = no positive kernel element (finite) "
               f"= split by the canonical cover (fgab) on {checked} "
               f"morphisms")


def test_criterion_09_special_schreier():
    from preordgrp.groups import make_fgab_group, make_hom
    from preordgrp.cones import generator_cone
    from preordgrp.schreier import is_special_schreier
    from preordgrp.torsion import torsion_sequence
    t0 = time.perf_counter()
    for name, P in corpus_objects().items():
        dec = torsion_sequence(P)
        assert is_special_schreier(P.cone, dec.unit.hom).holds, name
    # designed negative: mod 2 restricted to the naturals is not of
    # torsion-kernel shape and must fail
    Z = make_fgab_group(1, [])
    Z2 = make_fgab_group(0, [2])
    N = generator_cone(Z, [Z.elem([1])])
    bad = is_special_schreier(N, make_hom(Z, Z2, [Z2.elem([1])]))
    assert not bad.holds
    _criterion(9, 5, t0, "cone-level extensions Schreier; designed negative fails")


def test_criterion_10_pretorsion_theory():
    from preordgrp.cones import generated_subgroup
    from preordgrp.oracle import UniversalPropertyQuery, verify_universal_property
    from preordgrp.torsion import pretorsion_sequence, proto_reflect
    t0 = time.perf_counter()
    test_objs = tuple(finite_corpus_objects_up_to(4).values())
    for name, P in finite_corpus_objects().items():
        dec = pretorsion_sequence(P)
        assert dec.certificate.holds, name
        pre = verify_universal_property(UniversalPropertyQuery(
            "ZPrekernel", (dec.unit, dec.torsion_part, dec.counit), test_objs))
        post = verify_universal_property(UniversalPropertyQuery(
            "ZPrecokernel", (dec.counit, dec.free_part, dec.unit), test_objs))
        assert pre.holds, (name, pre.counterexample)
        assert post.holds, (name, post.counterexample)
    units_checked = 0
    for name, P in finite_corpus_objects().items():
        EP, unit = proto_reflect(P)
        rep = verify_universal_property(UniversalPropertyQuery(
            "ReflectionUnit", (unit, "protomodular"), test_objs))
        assert rep.holds, (name, rep.counterexample)
        units_checked += 1
        # generated subgroup against an independent brute-force closure
        M = generated_subgroup(P.cone)
        closure = set(P.cone.members)
        changed = True
        while changed:
            new = set(closure)
            new |= {-x for x in closure}
            new |= {x + y for x in closure for y in closure}
            changed = new != closure
            closure = new
        assert closure == set(M.elements), name
    _criterion(10, 10, t0,
               f"pretorsion clauses + {units_checked} reflection units verified")


def test_criterion_11_oracle_supremacy():
    from preordgrp.oracle import (
        LAW_REGISTRY,
        UniversalPropertyQuery,
        search_counterexample,
        verify_universal_property,
    )
    from preordgrp.pog import (
        pog_coequalizer,
        pog_cokernel,
        pog_equalizer,
        pog_kernel,
        pog_product,
        pog_pullback,
    )
    from preordgrp.errors import ImageNotNormal
    t0 = time.perf_counter()
    test_objs = tuple(finite_corpus_objects_up_to(4).values())
    verified = 0
    for desc, m in finite_morphism_corpus():
        K, inj = pog_kernel(m)
        rep = verify_universal_property(UniversalPropertyQuery(
            "Kernel", (m, K, inj), test_objs))
        assert rep.holds, (desc, rep.counterexample)
        try:
            Q, proj = pog_cokernel(m)
        except ImageNotNormal:
            Q = None
        if Q is not None:
            rep = verify_universal_property(UniversalPropertyQuery(
                "Cokernel", (m, Q, proj), test_objs))
            assert rep.holds, (desc, rep.counterexample)
        verified += 1
    # limits and colimits on a deterministic sample of parallel pairs
    objs = sorted(finite_corpus_objects_up_to(4).items())[:6]
    sampled = 0
    for (pn, P), (qn, Q) in itertools.combinations(objs, 2):
        lim = pog_product(P, Q)
        rep = verify_universal_property(UniversalPropertyQuery(
            "Product", (P, Q, lim.obj, lim.legs[0], lim.legs[1]), test_objs))
        assert rep.holds, (pn, qn, rep.counterexample)
        pairs = enumerate_pog_morphisms(P, Q)
        for m1 in pairs[:2]:
            for m2 in pairs[:2]:
                pb = pog_pullback(m1, m2)
                rep = verify_universal_property(UniversalPropertyQuery(
                    "Pullback", (m1, m2, pb.obj, pb.legs[0], pb.legs[1]),
                    test_objs))
                assert rep.holds, (pn, qn)
                eq = pog_equalizer(m1, m2)
                rep = verify_universal_property(UniversalPropertyQuery(
                    "Equalizer", (m1, m2, eq.obj, eq.legs[0]), test_objs))
                assert rep.holds, (pn, qn)
                C, proj = pog_coequalizer(m1, m2)
                rep = verify_universal_property(UniversalPropertyQuery(
                    "Coequalizer", (m1, m2, C, proj), test_objs))
                assert rep.holds, (pn, qn)
                sampled += 1
    genuine = [law for law in LAW_REGISTRY if law != "every_morphism_is_covering"]
    for law in genuine:
        assert search_counterexample(law, 6) is None, law
    assert search_counterexample("every_morphism_is_covering", 6) is not None
    _criterion(11, 15, t0,
               f"{verified} kernel/cokernel pairs, {sampled} limit samples, "
               f"{len(genuine)} laws clean at order <= 6")


def test_criterion_12_smith_normal_form():
    from preordgrp.intlinalg import (
        identity_matrix,
        mat_mul,
        smith_normal_form,
    )
    t0 = time.perf_counter()
    rng = random.Random(31415)
    for _ in range(100):
        M = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        s = smith_normal_form(M)
        assert mat_mul(mat_mul(s.U, M), s.V) == s.D
        assert mat_mul(s.U, s.U_inv) == identity_matrix(3)
        assert mat_mul(s.V, s.V_inv) == identity_matrix(4)
        nz = [d for d in s.diagonal if d]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert all(d >= 0 for d in s.diagonal)
    _criterion(12, 1, t0, "100 seeded 3x4 matrices decompose exactly")
