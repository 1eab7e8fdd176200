"""Every unbounded cache in the package is a listed one (ROADMAP item 13).

An ``lru_cache(maxsize=None)`` grows for the life of the process.  The
eleven below predate this guard; a cache added later is bounded, or this
test fails before its growth shows up as resident memory.  Bounding one of
the eleven takes it off the list.
"""

from conftest import package_caches

UNBOUNDED = {
    "preordgrp.cones._generator_solver",
    "preordgrp.cones._cone_contains_cached",
    "preordgrp.cones.linear_pieces",
    "preordgrp.cones._recipe_generators",
    "preordgrp.groups._subgroup_lattice",
    "preordgrp.groups._fgab_conversion",
    "preordgrp.oracle._pog_morphisms",
    "preordgrp.torsion.torsion_sequence",
    "preordgrp.torsion.proto_coreflect",
    "preordgrp.torsion.proto_reflect",
    "preordgrp.torsion.pretorsion_sequence",
}


def test_unbounded_caches_are_the_listed_ones():
    sizes = {name: fn.cache_parameters()["maxsize"]
             for name, fn in package_caches()}
    assert "preordgrp.groups.kernel_subgroup" in sizes
    assert {name for name, size in sizes.items() if size is None} == UNBOUNDED
