"""The two backends against each other: every abelian finite corpus object
of order at most 6 in its invariant-factor fgab form, with every
order-preserving morphism between them carried across, gets the same
classification, the same four class verdicts and the same E conditions.
On the fgab side each cone is a subgroup cone, so this checks that
encoding against the finite backend."""

from conftest import deadline

from preordgrp.cones import subgroup_cone, units
from preordgrp.corpus import finite_corpus_objects_up_to
from preordgrp.factor import e_conditions, in_class
from preordgrp.groups import compose, fgab_from_finite_abelian, subgroup_image
from preordgrp.oracle import enumerate_pog_morphisms
from preordgrp.pog import PreorderedGroup, classify, make_pog_morphism

CLASSES = ("E", "M", "Eprime", "Mstar")


def _converted():
    """name -> (finite object, fgab object, to fgab, from fgab)."""
    out = {}
    for name, P in sorted(finite_corpus_objects_up_to(6).items()):
        if P.group.is_abelian():
            H, to_h, from_h = fgab_from_finite_abelian(P.group)
            cone = subgroup_cone(subgroup_image(to_h, units(P.cone)))
            out[name] = (P, PreorderedGroup(H, cone), to_h, from_h)
    return out


def test_backends_agree_on_small_abelian_objects():
    with deadline(10):
        objects = _converted()
        assert len(objects) == 16
        for P, PH, _, _ in objects.values():
            assert classify(P).flags == classify(PH).flags, P
        verdicts = 0
        for A, AH, _, from_a in objects.values():
            for B, BH, to_b, _ in objects.values():
                for m in enumerate_pog_morphisms(A, B):
                    hom = compose(to_b, compose(m.hom, from_a))
                    mH = make_pog_morphism(hom, AH, BH)
                    for c in CLASSES:
                        assert in_class(m, c).holds == in_class(mH, c).holds, \
                            (c, m.hom.images)
                        verdicts += 1
                    assert tuple(e_conditions(m)) == tuple(e_conditions(mH))
    assert verdicts == 3276
