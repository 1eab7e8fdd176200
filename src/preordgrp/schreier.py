"""Special Schreier morphisms at the cone level, decided in closed form.

Let f be a hom and C a cone on its domain.  The kernel pair
Eq(f) = { (a, b) in C x C : f(a) = f(b) }, with its first projection and
diagonal section a |-> (a, a), is a Schreier point when every pair splits
as a kernel element plus the section of its projection.  Inside the group
the kernel part is forced, (a, b) = (0, b - a) + (a, a), so uniqueness is
automatic and the condition reads: b - a lies in C whenever a, b in C and
f(a) = f(b).  The differences b - a of such pairs are exactly
(C - C) ∩ ker f, so f restricted to C is special Schreier iff

    (C - C) ∩ ker f ⊆ C.

On an abelian carrier C - C is the subgroup <C> generated by the cone; on
a finite carrier C is a normal subgroup, so C - C = C = <C>.  Either way
the left-hand side is a subgroup, so it lies in C iff it lies in the unit
group of C, iff each of its generators does.  No window is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import generated_subgroup, units
from .groups import _subgroup_snf, kernel_subgroup, subgroup_intersection


@dataclass(frozen=True)
class SchreierReport:
    holds: bool
    witness: object = None      # a pair (a, b) of Eq(f) with b - a not in C

    def __bool__(self):
        return self.holds


def is_special_schreier(cone, hom):
    """Special Schreier test for the restriction of ``hom`` to ``cone``.

    Exact on every cone, with or without generators, as far as its units
    and linear pieces are computable.  A False verdict carries a pair
    (a, b) of the kernel pair whose difference b - a leaves the cone.

    >>> from .groups import make_fgab_group, make_hom
    >>> from .cones import generator_cone
    >>> Z = make_fgab_group(1, [])
    >>> Z2 = make_fgab_group(0, [2])
    >>> N = generator_cone(Z, [Z.elem([1])])
    >>> mod2 = make_hom(Z, Z2, [Z2.elem([1])])
    >>> [x.coords for x in is_special_schreier(N, mod2).witness]
    [(2,), (0,)]
    """
    span = generated_subgroup(cone)
    unit_group = units(cone)
    meet = subgroup_intersection(span, kernel_subgroup(hom))
    for g in meet.generators:
        if not unit_group.contains(g):
            return SchreierReport(False, witness=_split_pair(cone, span, g))
    return SchreierReport(True)


def _split_pair(cone, span, g):
    """Cone members (a, b) with f(a) = f(b) and b - a outside the cone,
    from a non-unit g of <C> ∩ ker f.  Only reached on an fgab carrier:
    on a finite one <C> = C is a group, so every element of it is a unit."""
    G = cone.group
    coeffs = _subgroup_snf(span).solve(list(g.coords))
    b, a = G.zero, G.zero
    for gen, k in zip(span.generators, coeffs):
        if k > 0:
            b = b + G.scale(gen, k)
        elif k < 0:
            a = a + G.scale(gen, -k)
    return (a, b) if not cone.contains(g) else (b, a)
