"""Every unbounded cache in the package is a listed one (ROADMAP item 13).

An ``lru_cache(maxsize=None)`` grows for the life of the process.  The
eleven below predate this guard; a cache added later is bounded, or this
test fails before its growth shows up as resident memory.  Bounding one of
the eleven takes it off the list.
"""

import importlib
import pkgutil

import preordgrp

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


def _cache_sizes():
    """The maxsize of every lru_cache wrapper in a module's namespace, by
    the qualified name of the function it wraps."""
    sizes = {}
    for info in pkgutil.iter_modules(preordgrp.__path__, "preordgrp."):
        if info.name == "preordgrp.__main__":  # runs the command line
            continue
        for fn in vars(importlib.import_module(info.name)).values():
            if callable(getattr(fn, "cache_parameters", None)):
                name = f"{fn.__module__}.{fn.__qualname__}"
                sizes[name] = fn.cache_parameters()["maxsize"]
    return sizes


def test_unbounded_caches_are_the_listed_ones():
    sizes = _cache_sizes()
    assert "preordgrp.groups.kernel_subgroup" in sizes
    assert {name for name, size in sizes.items() if size is None} == UNBOUNDED
