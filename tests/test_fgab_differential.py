"""Generated fgab objects: the torsion sequence, the classification, two
routes to coverings and the special Schreier row, on cones the bundled
corpus does not reach; and subgroup membership on the same generators
against a walk that uses no integer linear algebra."""

import itertools

import pytest
from conftest import deadline

from preordgrp.cones import generator_cone
from preordgrp.descent import canonical_cover, is_covering, is_covering_along
from preordgrp.groups import make_fgab_group, subgroup
from preordgrp.pog import classify, identity_morphism, make_pog
from preordgrp.schreier import is_special_schreier
from preordgrp.torsion import torsion_sequence

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def fgab_generators(draw):
    """Z^r + Z/d with r in {1, 2}, d in {2, 3, 4}, and one to four elements
    with entries in [-2, 2]."""
    rank = draw(st.integers(1, 2))
    G = make_fgab_group(rank, [draw(st.sampled_from([2, 3, 4]))])
    coords = st.lists(st.integers(-2, 2), min_size=rank + 1, max_size=rank + 1)
    gens = draw(st.lists(coords, min_size=1, max_size=4))
    return G, [G.elem(v) for v in gens]


def fgab_objects():
    """The cone those elements generate."""
    return fgab_generators().map(
        lambda drawn: make_pog(drawn[0], generator_cone(*drawn)))


@hypothesis.settings(max_examples=60, derandomize=True, deadline=None)
@hypothesis.given(fgab_objects())
def test_generated_objects(P):
    with deadline(5):
        dec = torsion_sequence(P)
        assert dec.certificate.holds
        # the reflection unit's kernel is the unit group, inside the cone
        assert is_special_schreier(P.cone, dec.unit.hom).holds
        classify(P)
        for m in (identity_morphism(P), dec.unit):
            along = canonical_cover(m.cod).projection
            assert is_covering(m) == is_covering_along(m, along)


BOX = 2  # free coordinates of the queried elements lie in [-BOX, BOX]


def _walk(G, gens):
    """The elements a walk of steps +g and -g, g in gens, reaches from 0
    without a free coordinate leaving [-R, R], R = 2 rank + BOX.

    Every member x of <gens> in the box is reached.  Take steps of some
    word for x, each of free norm at most 2, and one more step -x: they
    sum to 0, so by Steinitz's lemma, with the constant rank of Grinberg
    and Sevastyanov (1980) for the max norm, some order keeps each partial
    sum within 2 rank.  Walking that order without the step -x shifts the
    sums after it by x, so within 2 rank + BOX.
    """
    bound = 2 * G.rank + BOX
    steps = [s for g in gens for s in (g, -g)]
    seen, queue = {G.zero}, [G.zero]
    for x in queue:  # grows while it is read
        for s in steps:
            y = x + s
            if y not in seen and all(abs(c) <= bound
                                     for c in y.coords[:G.rank]):
                seen.add(y)
                queue.append(y)
    return seen


@hypothesis.settings(max_examples=60, derandomize=True, deadline=None)
@hypothesis.given(fgab_generators())
def test_subgroup_membership_against_a_walk(drawn):
    G, gens = drawn
    S, members = subgroup(G, gens), _walk(G, gens)
    box = itertools.product(*[range(-BOX, BOX + 1)] * G.rank,
                            *[range(d) for d in G.torsion])
    for coords in box:
        x = G.elem(coords)
        assert S.contains(x) == (x in members), (gens, x)
    assert S.is_whole() == all(g in members for g in G.generators())
