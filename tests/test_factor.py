"""Morphism classes, both factorizations, orthogonality, stable units."""

import pytest

from preordgrp.cones import generator_cone, total_cone, transport_product
from preordgrp.errors import NotACommutingSquare, RowsNotSchreier
from preordgrp.factor import (
    check_orthogonality,
    check_stable_units_instance,
    e_conditions,
    em_factor,
    in_class,
    lemma_M_instance,
    ml_factor,
)
from preordgrp.groups import (
    cyclic_group,
    direct_product,
    identity_hom,
    is_isomorphism,
    make_fgab_group,
    make_hom,
)
from preordgrp.pog import (
    identity_morphism,
    make_pog,
    make_pog_morphism,
    pog_is_iso,
    zero_morphism,
)
from preordgrp.torsion import coreflect_T, reflect_F, torsion_sequence

Z = make_fgab_group(1, [])
Zmod2 = make_fgab_group(0, [2])
ZN = make_pog(Z, generator_cone(Z, [Z.elem([1])]))
ZZ = make_pog(Z, total_cone(Z))
Z2tot = make_pog(Zmod2, total_cone(Zmod2))
Z2 = make_fgab_group(2, [])
NxZ = make_pog(Z2, generator_cone(Z2, [Z2.elem([1, 0]), Z2.elem([0, 1]),
                                       Z2.elem([0, -1])]))


def mod2():
    return make_pog_morphism(make_hom(Z, Zmod2, [Zmod2.elem([1])]), ZN, Z2tot)


def plane_projection():
    pr = direct_product(Z, Z)
    cone = transport_product(total_cone(Z), generator_cone(Z, [Z.elem([1])]),
                             pr.group, pr.proj1, pr.proj2)
    dom = make_pog(pr.group, cone)
    return make_pog_morphism(
        make_hom(pr.group, Z, [Z.elem([0]), Z.elem([1])]), dom, ZN)


class TestClasses:
    def test_projection_in_eprime_and_e(self):
        m = plane_projection()
        assert in_class(m, "Eprime").holds
        assert in_class(m, "E").holds
        assert not in_class(m, "M").holds
        assert not in_class(m, "Mstar").holds

    def test_mod2_in_mstar_not_m(self):
        m = mod2()
        assert in_class(m, "Mstar").holds
        assert not in_class(m, "M").holds
        assert not in_class(m, "Eprime").holds

    def test_identity_in_all(self):
        m = identity_morphism(ZN)
        assert all(in_class(m, cls).holds
                   for cls in ("E", "M", "Eprime", "Mstar"))

    def test_inclusions_on_finite_corpus(self):
        from preordgrp.corpus import finite_corpus_objects_up_to
        from preordgrp.oracle import enumerate_pog_morphisms
        objs = list(finite_corpus_objects_up_to(4).values())
        for P in objs:
            for Q in objs:
                for m in enumerate_pog_morphisms(P, Q):
                    if in_class(m, "Eprime").holds:
                        assert in_class(m, "E").holds
                    if in_class(m, "M").holds:
                        assert in_class(m, "Mstar").holds

    def test_e_characterization_agrees(self):
        from preordgrp.corpus import finite_corpus_objects_up_to
        from preordgrp.oracle import enumerate_pog_morphisms
        objs = list(finite_corpus_objects_up_to(4).values())
        for P in objs:
            for Q in objs:
                for m in enumerate_pog_morphisms(P, Q):
                    a, b, c = e_conditions(m)
                    assert (a and b and c) == in_class(m, "E").holds

    def test_e_characterization_agrees_on_fgab_corpus(self):
        # fgab codomains decide condition (c) on linear pieces
        checked = 0
        for m in _fgab_morphisms():
            assert all(e_conditions(m)) == in_class(m, "E").holds
            checked += 1
        assert checked == 911

    def test_e_characterization_agrees_on_cover_morphisms(self):
        # the cover cone has no generators; (c) is decided on its pieces
        for m in _cover_morphisms():
            assert all(e_conditions(m)) == pog_is_iso(reflect_F(m))


def _fgab_morphisms():
    from preordgrp.corpus import fgab_corpus_objects
    from preordgrp.oracle import enumerate_pog_morphisms
    objs = fgab_corpus_objects().values()
    return [m for P in objs for Q in objs
            for m in enumerate_pog_morphisms(P, Q, 1)]


def _cover_morphisms():
    """Each fgab base's cover projection, kernel-pair leg and diagonal."""
    from preordgrp.corpus import fgab_corpus_objects
    from preordgrp.descent import canonical_cover, kernel_pair
    out = []
    for P in fgab_corpus_objects().values():
        p = canonical_cover(P).projection
        R = kernel_pair(p)
        out += [p, R.r1, R.delta]
    assert len(out) == 24
    return out


class TestMOnUnitGroups:
    """M decided on the unit-group restriction agrees with the
    coreflector's definition: T(m) is an isomorphism."""

    @staticmethod
    def _agrees(morphisms):
        for m in morphisms:
            assert in_class(m, "M").holds == is_isomorphism(coreflect_T(m).hom)

    def test_finite_corpus(self):
        from preordgrp.corpus import finite_corpus_objects_up_to
        from preordgrp.oracle import enumerate_pog_morphisms
        objs = list(finite_corpus_objects_up_to(4).values())
        self._agrees(m for P in objs for Q in objs
                     for m in enumerate_pog_morphisms(P, Q))

    def test_fgab_corpus(self):
        self._agrees(_fgab_morphisms())

    def test_cover_morphisms(self):
        self._agrees(_cover_morphisms())

    def test_no_torsion_sequence_is_built(self):
        # the legs is_covering_along tests: the pullback of m along the
        # canonical cover of its codomain
        from preordgrp.corpus import fgab_corpus_objects
        from preordgrp.descent import canonical_cover
        from preordgrp.oracle import enumerate_pog_morphisms
        from preordgrp.pog import pog_pullback
        objs = fgab_corpus_objects()
        legs = []
        for Q in objs.values():
            p = canonical_cover(Q).projection
            legs += [pog_pullback(p, m).legs[0]
                     for P in objs.values()
                     for m in enumerate_pog_morphisms(P, Q, 1)]
        torsion_sequence.cache_clear()
        for leg in legs:
            in_class(leg, "M")
        assert torsion_sequence.cache_info().misses == 0


class TestEprimeExactness:
    """Normal epi is decided exactly whenever the codomain cone is finitely
    generated, so no Eprime verdict on the fgab corpus is a window check."""

    def test_identity_of_z_nat(self):
        from preordgrp.corpus import fgab_corpus_objects
        rep = in_class(identity_morphism(fgab_corpus_objects()["Z_nat"]),
                       "Eprime")
        assert rep.holds and rep.exact

    def test_z_nat_into_plane_is_no_normal_epi(self):
        from preordgrp.corpus import fgab_corpus_objects
        from preordgrp.oracle import enumerate_pog_morphisms
        objs = fgab_corpus_objects()
        ms = enumerate_pog_morphisms(objs["Z_nat"], objs["Z2_nat2"], 1)
        assert ms
        for m in ms:
            rep = in_class(m, "Eprime")
            assert not rep.holds and rep.exact

    def test_bound_one_fgab_corpus(self):
        from preordgrp.corpus import fgab_corpus_objects
        from preordgrp.oracle import enumerate_pog_morphisms
        objs = fgab_corpus_objects()
        for pn, P in objs.items():
            for qn, Q in objs.items():
                for m in enumerate_pog_morphisms(P, Q, 1):
                    assert in_class(m, "Eprime").exact, (pn, qn)


class TestEMExactness:
    """The middle object of an (E, M) factorization is a pullback whose
    cone has generators, so its E verdict is decided exactly."""

    def test_bound_one_fgab_corpus(self):
        from preordgrp.corpus import fgab_corpus_objects
        from preordgrp.oracle import enumerate_pog_morphisms
        from preordgrp.pog import morphism_class
        objs = fgab_corpus_objects()
        checked = 0
        for pn, P in objs.items():
            for qn, Q in objs.items():
                for m in enumerate_pog_morphisms(P, Q, 1):
                    fr = em_factor(m)
                    assert fr.e_class.holds and fr.e_class.exact, (pn, qn)
                    assert fr.m_class.holds and fr.m_class.exact, (pn, qn)
                    assert morphism_class(m).exact, (pn, qn)
                    checked += 1
        assert checked == 911

    def test_finite_to_fgab_morphism(self):
        C2 = cyclic_group(2)
        f = make_pog_morphism(
            make_hom(C2, Zmod2, [Zmod2.elem([0]), Zmod2.elem([1])]),
            make_pog(C2, total_cone(C2)), Z2tot)
        fr = em_factor(f)
        assert fr.e_class.holds and fr.e_class.exact
        assert fr.m_class.holds and fr.m_class.exact
        assert fr.recomposes(f)


class TestEMFactorization:
    def test_mod2(self):
        fr = em_factor(mod2())
        assert fr.system == "EM"
        assert fr.e_class.holds and fr.m_class.holds
        assert fr.recomposes(mod2())
        assert fr.mid.group.rank == 1 and fr.mid.group.torsion == (2,)

    def test_m_morphism_gives_iso_e_part(self):
        fr = em_factor(identity_morphism(ZN))
        assert pog_is_iso(fr.e)

    def test_identity_of_objects_with_total_units(self):
        # the middle object is a pullback over the zero group F(B) = 0
        from preordgrp.corpus import fgab_corpus_objects
        for name in ("Z_total", "Z2_allunits"):
            m = identity_morphism(fgab_corpus_objects()[name])
            fr = em_factor(m)
            assert fr.e_class.holds and fr.m_class.holds, name
            assert fr.recomposes(m)

    def test_e_morphism_gives_iso_m_part(self):
        fr = em_factor(plane_projection())
        assert pog_is_iso(fr.m)
        assert fr.recomposes(plane_projection())

    def test_each_morphism_is_reflected_once(self):
        # in_class(m, "E") and em_factor(m) share the reflection of m; the
        # factorization reflects e besides, two reflections in all
        from preordgrp.torsion import _reflect
        _reflect.cache_clear()
        m = plane_projection()
        assert in_class(m, "E").holds
        fr = em_factor(m)
        assert fr.e_class.holds and fr.recomposes(m)
        info = _reflect.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (2, 1, 256)


class TestMLFactorization:
    def test_mod2_is_already_covering(self):
        fr = ml_factor(mod2())
        assert fr.e_class.holds and fr.m_class.holds
        assert pog_is_iso(fr.e)

    def test_projection_quotients_fully(self):
        m = plane_projection()
        fr = ml_factor(m)
        assert pog_is_iso(fr.m)
        assert fr.e_class.holds

    def test_identity(self):
        fr = ml_factor(identity_morphism(ZN))
        assert pog_is_iso(fr.e) and pog_is_iso(fr.m)

    def test_finite_corpus_factorizations(self):
        from preordgrp.corpus import finite_corpus_objects_up_to
        from preordgrp.oracle import enumerate_pog_morphisms
        objs = list(finite_corpus_objects_up_to(4).values())
        count = 0
        for P in objs:
            for Q in objs:
                for m in enumerate_pog_morphisms(P, Q):
                    fr = ml_factor(m)
                    assert fr.recomposes(m)
                    assert fr.e_class.holds and fr.m_class.holds
                    count += 1
        assert count >= 50


class TestOrthogonality:
    def test_ml_factors_are_orthogonal(self):
        fr = ml_factor(mod2())
        rep = check_orthogonality(fr.e, fr.m, fr.e, fr.m)
        assert rep.holds and rep.unique

    def test_identity_e_gives_diagonal_a(self):
        rep = check_orthogonality(identity_morphism(ZN), mod2(),
                                  identity_morphism(ZN), mod2())
        assert rep.holds
        assert rep.diagonal.hom.images == identity_hom(Z).images

    def test_cover_diagonal_is_certified_on_pieces(self):
        # the diagonal out of the cover cone of (Z, N) is checked on its
        # linear pieces, since that cone has no generators
        from preordgrp.descent import canonical_cover
        one = identity_morphism(canonical_cover(ZN).realized)
        rep = check_orthogonality(one, one, one, one)
        assert rep.holds
        assert rep.diagonal.certificate.kind == "pieces"

    def test_incompatible_kernels_fail(self):
        # e = mod-2 quotient of (Z, total), m with trivial kernel: a square
        # with a = identity-ish map admits no diagonal
        e = make_pog_morphism(make_hom(Z, Zmod2, [Zmod2.elem([1])]), ZZ, Z2tot)
        m = identity_morphism(ZZ)
        a = identity_morphism(ZZ)
        # b must satisfy m a = b e; no such b exists unless a kills 2Z,
        # so build the only commuting square available: a = zero
        a0 = zero_morphism(ZZ, ZZ)
        b0 = zero_morphism(Z2tot, ZZ)
        rep = check_orthogonality(e, m, a0, b0)
        assert rep.holds  # diagonal zero works here
        # now force failure: a = id has no commuting b at all
        with pytest.raises(NotACommutingSquare):
            check_orthogonality(e, m, a, b0)

    def test_noncommuting_square_rejected(self):
        with pytest.raises(NotACommutingSquare):
            check_orthogonality(mod2(), identity_morphism(Z2tot),
                                mod2(), zero_morphism(Z2tot, Z2tot))

    def test_kernel_obstruction(self):
        # e = mod2 on (Z, total): diagonal needs ker e inside ker a
        e = make_pog_morphism(make_hom(Z, Zmod2, [Zmod2.elem([1])]), ZZ, Z2tot)
        a = make_pog_morphism(make_hom(Z, Z, [Z.elem([1])]), ZZ, ZZ)
        # m: (Z, total) -> (Z/2, total): b = mod2-style map so square commutes
        m = make_pog_morphism(make_hom(Z, Zmod2, [Zmod2.elem([1])]), ZZ, Z2tot)
        b = identity_morphism(Z2tot)
        rep = check_orthogonality(e, m, a, b)
        assert not rep.holds

    def test_finite_non_epi_enumerates_diagonals(self):
        from preordgrp.corpus import finite_corpus_objects
        from preordgrp.oracle import enumerate_pog_morphisms
        V = finite_corpus_objects()["V4/cone0"]
        zero, one = zero_morphism(V, V), identity_morphism(V)
        rep = check_orthogonality(zero, one, zero, zero)
        assert rep.holds and rep.unique and rep.diagonal.hom.is_zero()
        b = next(f for f in enumerate_pog_morphisms(V, V)
                 if not f.hom.is_zero())
        rep = check_orthogonality(zero, zero, zero, b)
        assert (rep.holds, rep.unique) == (False, True)
        assert rep.detail == "0 diagonals found"
        rep = check_orthogonality(zero, zero, zero, zero)
        assert (rep.holds, rep.unique) == (False, False)
        assert rep.detail == "16 diagonals found"


class TestStableUnits:
    def test_total_base_with_product_pullback(self):
        dec = torsion_sequence(ZZ)
        g = zero_morphism(ZN, dec.free_part)
        rep = check_stable_units_instance(ZZ, g)
        assert rep.holds

    def test_torsion_free_base_identity(self):
        dec = torsion_sequence(ZN)
        g = identity_morphism(dec.free_part)
        rep = check_stable_units_instance(ZN, g)
        assert rep.holds

    def test_half_cone_base(self):
        Zmod4 = make_fgab_group(0, [4])
        P42 = make_pog(Zmod4, generator_cone(Zmod4, [Zmod4.elem([2])]))
        dec = torsion_sequence(P42)
        g = identity_morphism(dec.free_part)
        rep = check_stable_units_instance(P42, g)
        assert rep.holds

    def test_finite_instances(self):
        from preordgrp.corpus import finite_corpus_objects_up_to
        from preordgrp.oracle import enumerate_pog_morphisms
        objs = list(finite_corpus_objects_up_to(4).values())
        count = 0
        for B in objs[:6]:
            FB = torsion_sequence(B).free_part
            for C in objs[:6]:
                for g in enumerate_pog_morphisms(C, FB):
                    rep = check_stable_units_instance(B, g)
                    assert rep.holds
                    count += 1
        assert count >= 20


def exhaustive_lemma_M(row1, row2, a, b, c):
    """Lemma M by its definition over finite carriers: the error the
    instance must raise, else whether x |-> (b(x), f1(x)) maps cone1
    bijectively onto the pullback cone { (u, v) in cone2 x f1(cone1) :
    f2(u) = c(v) }."""
    (cone1, f1), (cone2, f2) = row1, row2
    K1 = [x for x in cone1.members if f1(x).is_zero()]
    K2 = {x for x in cone2.members if f2(x).is_zero()}
    aK1 = {a(x) for x in K1}
    if len(aK1) != len(K1) or aK1 != K2:
        return ValueError
    if any(f2(b(x)) != c(f1(x)) for x in f1.dom.elements()):
        return NotACommutingSquare
    pairs = {(b(x), f1(x)) for x in cone1.members}
    target = {(u, f1(x)) for u in cone2.members for x in cone1.members
              if f2(u) == c(f1(x))}
    return len(pairs) == len(cone1.members) and pairs == target


class TestLemmaM:
    def rows_for(self, P):
        dec = torsion_sequence(P)
        return (P.cone, dec.unit.hom), dec

    def test_identity_ladder(self):
        G = cyclic_group(4)
        from preordgrp.cones import explicit_cone
        P = make_pog(G, explicit_cone(G, [G.elem(0), G.elem(2)]))
        row, dec = self.rows_for(P)
        rep = lemma_M_instance(row, row, identity_hom(G), identity_hom(G),
                               identity_hom(dec.free_part.group))
        assert rep.holds

    def test_negation_ladder_on_total(self):
        row, dec = self.rows_for(ZZ)
        neg = make_hom(Z, Z, [Z.elem([-1])])
        Q = dec.free_part.group
        rep = lemma_M_instance(row, row, neg, neg, identity_hom(Q))
        assert rep.holds

    def test_shear_on_total(self):
        # a window scan sees the shear's image of the box leave the box
        P = make_pog(Z2, total_cone(Z2))
        row, dec = self.rows_for(P)
        shear = make_hom(Z2, Z2, [Z2.elem([1, 0]), Z2.elem([1, 1])])
        rep = lemma_M_instance(row, row, shear, shear,
                               identity_hom(dec.free_part.group))
        assert rep.holds

    def test_automorphism_of_N_times_Z(self):
        # (x, y) |-> (x, x + y); the preimage (1, -9) of the pullback pair
        # ((1, -8), 1) lies outside a width-8 box
        row, dec = self.rows_for(NxZ)
        m = make_pog_morphism(
            make_hom(Z2, Z2, [Z2.elem([1, 1]), Z2.elem([0, 1])]), NxZ, NxZ)
        rep = lemma_M_instance(row, row, m.hom, m.hom, reflect_F(m).hom)
        assert rep.holds

    def test_b_not_order_preserving(self):
        row, dec = self.rows_for(NxZ)
        flip = make_hom(Z2, Z2, [Z2.elem([-1, 0]), Z2.elem([0, 1])])
        Q = dec.free_part.group
        rep = lemma_M_instance(row, row, flip, flip,
                               make_hom(Q, Q, [Q.elem([-1])]))
        assert not rep.holds
        assert "not order preserving" in rep.detail

    def test_square_must_commute(self):
        row, dec = self.rows_for(NxZ)
        Q = dec.free_part.group
        with pytest.raises(NotACommutingSquare):
            lemma_M_instance(row, row, identity_hom(Z2), identity_hom(Z2),
                             make_hom(Q, Q, [Q.elem([2])]))

    def test_finite_ladders_match_exhaustive_reference(self):
        from preordgrp.corpus import finite_corpus_objects_up_to
        from preordgrp.groups import enumerate_group_homs
        verdicts = set()
        for P in finite_corpus_objects_up_to(4).values():
            row, dec = self.rows_for(P)
            endos = enumerate_group_homs(P.group, P.group)
            B = dec.free_part.group
            for a in endos:
                for b in endos:
                    for c in enumerate_group_homs(B, B):
                        expected = exhaustive_lemma_M(row, row, a, b, c)
                        verdicts.add(expected)
                        if expected in (ValueError, NotACommutingSquare):
                            with pytest.raises(expected):
                                lemma_M_instance(row, row, a, b, c)
                        else:
                            rep = lemma_M_instance(row, row, a, b, c)
                            assert rep.holds == expected
        assert verdicts == {True, False, ValueError, NotACommutingSquare}

    def test_gate_rejects_non_iso_kernel_map(self):
        G = cyclic_group(4)
        from preordgrp.cones import explicit_cone
        P = make_pog(G, explicit_cone(G, [G.elem(0), G.elem(2)]))
        row, dec = self.rows_for(P)
        from preordgrp.groups import zero_hom
        with pytest.raises(ValueError):
            lemma_M_instance(row, row, zero_hom(G, G), identity_hom(G),
                             identity_hom(dec.free_part.group))

    def test_gate_rejects_non_schreier_rows(self):
        # mod-2 restricted to the naturals is not special Schreier
        bad_row = (ZN.cone, make_hom(Z, Zmod2, [Zmod2.elem([1])]))
        with pytest.raises(RowsNotSchreier):
            lemma_M_instance(bad_row, bad_row, identity_hom(Z),
                             identity_hom(Z), identity_hom(Zmod2))
