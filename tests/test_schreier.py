"""Special Schreier morphisms."""

from conftest import cone_window

from preordgrp.cones import CoverCone, explicit_cone, generator_cone
from preordgrp.corpus import corpus_objects, fgab_corpus_objects
from preordgrp.groups import cyclic_group, make_fgab_group, make_hom
from preordgrp.oracle import enumerate_pog_morphisms
from preordgrp.schreier import is_special_schreier
from preordgrp.torsion import torsion_sequence

Z = make_fgab_group(1, [])
Zmod2 = make_fgab_group(0, [2])
N = generator_cone(Z, [Z.elem([1])])


def test_cone_level_of_z4_half_cone():
    # the kernel pair of {0, 2} -> {0} is all four pairs; each splits
    G = cyclic_group(4)
    H = cyclic_group(2)
    half = explicit_cone(G, [G.elem(0), G.elem(2)])
    h = make_hom(G, H, [H.elem(i % 2) for i in range(4)])
    assert is_special_schreier(half, h).holds


def test_mod2_on_naturals_fails():
    mod2 = make_hom(Z, Zmod2, [Zmod2.elem([1])])
    rep = is_special_schreier(N, mod2)
    assert not rep.holds
    a, b = rep.witness
    # the witness pair has no kernel-part decomposition inside the naturals
    assert mod2(a) == mod2(b)
    assert (b - a).coords[0] < 0


def test_identity_on_any_cone():
    assert is_special_schreier(N, make_hom(Z, Z, [Z.elem([1])])).holds


def test_total_cone_quotient_is_special_schreier():
    # total cone on Z/4 mapped onto Z/4 / {0, 2}
    G = cyclic_group(4)
    H = cyclic_group(2)
    h = make_hom(G, H, [H.elem(i % 2) for i in range(4)])
    assert is_special_schreier(explicit_cone(G, G.elements()), h).holds


def test_cover_cone_has_a_closed_form():
    # the cover of (Z, N) generates Z^2 through the members o and o + q of
    # its pieces, so the closed form decides it as the kernel-pair scan does
    H = make_fgab_group(2, [])
    cover = CoverCone(H, N)
    cases = [((0, 1), ((1, 0), (0, 0))),    # (n, g) -> g: (-1, 0) leaves C
             ((1, 0), ((1, 0), (1, 1)))]    # (n, g) -> n: (0, 1) leaves C
    for images, witness in cases:
        f = make_hom(H, Z, [Z.elem([v]) for v in images])
        rep = is_special_schreier(cover, f)
        assert not rep.holds and not _kernel_pair_scan(cover, f, 2)
        a, b = rep.witness
        assert (a.coords, b.coords) == witness
        assert cover.contains(a) and cover.contains(b) and f(a) == f(b)
        assert not cover.contains(b - a)


def test_torsion_sequence_cone_rows_over_corpus():
    """The cone-level extension of every corpus torsion sequence is special
    Schreier."""
    for name, P in corpus_objects().items():
        dec = torsion_sequence(P)
        assert is_special_schreier(P.cone, dec.unit.hom).holds, name


def _kernel_pair_scan(cone, hom, width):
    """Reference: every pair (a, b) of cone members in the window with
    f(a) = f(b) splits as (0, b - a) + (a, a) inside the kernel pair."""
    by_image = {}
    for a in cone_window(cone, width):
        by_image.setdefault(hom(a), []).append(a)
    return all(cone.contains(b - a)
               for bucket in by_image.values() for a in bucket for b in bucket)


def test_closed_form_matches_kernel_pair_scan():
    """On the bound-1 fgab corpus morphisms the closed form agrees with the
    window scan of the kernel pair, and each False verdict carries a pair of
    cone members with equal images whose difference leaves the cone."""
    objs = sorted(fgab_corpus_objects().items())
    failures = 0
    for pname, P in objs:
        for qname, Q in objs:
            for m in enumerate_pog_morphisms(P, Q, 1):
                desc = f"{pname}->{qname}"
                C, f = P.cone, m.hom
                rep = is_special_schreier(C, f)
                assert rep.holds == _kernel_pair_scan(C, f, 2), desc
                if not rep.holds:
                    failures += 1
                    a, b = rep.witness
                    assert C.contains(a) and C.contains(b), desc
                    assert f(a) == f(b), desc
                    assert not C.contains(b - a), desc
    assert failures > 0
