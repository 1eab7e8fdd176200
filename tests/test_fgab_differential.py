"""Generated fgab objects: the torsion sequence, the classification, two
routes to coverings and the special Schreier row, on cones the bundled
corpus does not reach."""

import pytest
from conftest import deadline

from preordgrp.cones import generator_cone
from preordgrp.descent import canonical_cover, is_covering, is_covering_along
from preordgrp.groups import make_fgab_group
from preordgrp.pog import classify, identity_morphism, make_pog
from preordgrp.schreier import is_special_schreier
from preordgrp.torsion import torsion_sequence

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def fgab_objects(draw):
    """Z^r + Z/d with r in {1, 2}, d in {2, 3, 4}, and a cone on one to
    four generators with entries in [-2, 2]."""
    rank = draw(st.integers(1, 2))
    G = make_fgab_group(rank, [draw(st.sampled_from([2, 3, 4]))])
    coords = st.lists(st.integers(-2, 2), min_size=rank + 1, max_size=rank + 1)
    gens = draw(st.lists(coords, min_size=1, max_size=4))
    return make_pog(G, generator_cone(G, [G.elem(v) for v in gens]))


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
