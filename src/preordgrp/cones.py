"""Positive cones: submonoids closed under conjugation, with decidable
membership.

A cone is either explicit (finite carrier), generated (fgab carrier), or
a recipe node on an fgab carrier remembering how it was built from other
cones: ``ProductCone``, the restriction along one leg (a preimage) or
the two projections of a product or pullback, and ``ImageCone``, a direct
image.  On a finite carrier every transport computes its members
directly: a cone there is a normal subgroup, ``ExplicitCone.subgroup``,
and its generators are that subgroup's greedy generating set, at most
log2 of its order.  Recipe cones keep their construction tree:
membership is decided on it, and unit groups are computed
compositionally.  Membership in an image is one preimage lookup when the
map's kernel lies in the inner units, else one non-negative integer
feasibility problem per choice of a linear piece of each leaf (a cover
cone has two).  Generators are extracted on demand; a restriction of
finitely generated cones is finitely generated, by a Hilbert basis
lifted along its legs.  The cone a subgroup carries, ``subgroup_cone``,
gives the total and the trivial cone too.

The ``CoverCone`` leaf is the positive cone of the canonical partially
ordered cover Z x G; it is provably reduced and not finitely generated,
but it is the union of two linear sets, which decide its images.  A
predicate quantified over a cone runs over ``deciding_members``: the
generators, or else the members in the fixed window ``WINDOW``, marked
inexact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (
    ImageNotComputable,
    UnitExtractionUnsupported,
)
from .groups import (
    GroupHom,
    _bounded_elements,
    _preimage_lookup,
    _stacked_legs,
    compose,
    identity_hom,
    kernel_subgroup,
    subgroup,
    subgroup_from_elements,
    subgroup_image,
    subgroup_intersection,
    subgroup_preimage,
    trivial_subgroup,
)
from .intlinalg import NonnegSolver, from_columns, hilbert_basis

WINDOW = 8


@dataclass(frozen=True)
class MembershipVerdict:
    """Definitive membership answer with its evidence.

    An ``In`` verdict on a generated cone carries the non-negative
    combination realizing the element; on a restriction or an image it
    carries none, its parts' combinations being over other cones'
    generators.  An ``Out`` verdict carries nothing: the solver behind it
    is complete, so its failure is the proof.
    """

    value: str  # "In" | "Out"
    witness: tuple = None

    def __bool__(self):
        return self.value == "In"


class Cone:
    """Base for the cone variants; ``group`` is the carrier."""

    def contains(self, x):
        return bool(cone_contains(self, x))


@dataclass(frozen=True)
class ExplicitCone(Cone):
    """The cone of every finite carrier.  A submonoid of a finite group is
    a subgroup (-x = (ord x - 1)x), so the members form a normal subgroup."""

    group: object
    members: frozenset

    @cached_property
    def subgroup(self):
        """The members as a subgroup, with a greedy generating set."""
        return subgroup_from_elements(self.group, self.members)


@dataclass(frozen=True)
class GeneratorCone(Cone):
    group: object
    cone_generators: tuple


@dataclass(frozen=True)
class ProductCone(Cone):
    """Restriction along legs: x is positive iff ``projections[k](x)`` lies
    in ``parts[k]`` for every k.  One leg is a preimage; two are the
    jointly injective projections of a product or pullback."""

    group: object
    parts: tuple
    projections: tuple


@dataclass(frozen=True)
class ImageCone(Cone):
    """Direct image h(R) along any hom into an fgab carrier.

    Only constructed when the inner cone has no generators, so it has none
    either; the image of a generated cone is generated by their images.
    Membership of y is decided exactly by one of two rules.  When ker h
    lies in the units of R, R + ker h = R, so y is in h(R) iff one preimage
    of y is in R.  Otherwise R is a restriction of leaves along legs, each
    leaf a union of linear sets (``_linear_pieces``), and y is in h(R) iff
    one stacked system over some choice of pieces is feasible.
    """

    group: object
    hom: GroupHom
    inner: Cone

    @cached_property
    def kernel_in_units(self):
        """Whether ker h lies in the units of the inner cone."""
        inner_units = units(self.inner)
        return all(inner_units.contains(k)
                   for k in kernel_subgroup(self.hom).generators)

    @cached_property
    def pieces(self):
        """One (offset, solver) pair per choice of a linear piece
        o_k + <gens_k> of each leaf k, restricted along leg_k.  y is in
        the image iff some x and n >= 0 have (h, leg_1, ...)(x) =
        (y, o_1 + gens_1 n_1, ...), that is iff some pair's solver finds
        n and a free v with M v - gens n = (y, offset), M the stacked
        matrix of (h, leg_1, ...) and offset = (o_1, ...)."""
        leaves = _leaves(self.inner, identity_hom(self.inner.group))
        to_fgab, M = _stacked_legs([self.hom] + [leg for _, leg in leaves])
        nrows = len(M)
        out = []
        for choice in itertools.product(
                *[_linear_pieces(leaf) for leaf, _ in leaves]):
            offset, cols = [], []
            for (o, gens), to in zip(choice, to_fgab[1:]):
                o, *gens = [list((g if to is None else to(g)).coords)
                            for g in (o, *gens)]
                top = self.group.ncoords + len(offset)
                cols += [[0] * top + [-a for a in g]
                         + [0] * (nrows - top - len(o)) for g in gens]
                offset += o
            A = from_columns(cols, nrows=nrows)
            out.append((offset, NonnegSolver(A, M)))
        return tuple(out)


@dataclass(frozen=True)
class CoverCone(Cone):
    """(n, g) is positive iff n >= 1 and g is positive, or (n, g) = (0, 0).

    The carrier is the realized group Z x G with the new free coordinate
    first; ``base_cone`` lives on G.
    """

    group: object
    base_cone: Cone

    def split(self, x):
        g = self.base_cone.group
        return x.coords[0], g.elem(x.coords[1:])


def explicit_cone(group, elements):
    return ExplicitCone(group, frozenset(elements))


def generator_cone(group, generators):
    if group.backend != "fgab":
        raise ValueError("generator cones need an fgab carrier")
    gens = tuple(g for g in generators if not g.is_zero())
    return GeneratorCone(group, gens)


def subgroup_cone(S):
    """The total cone a subgroup carries inside its ambient group: its
    members, or its generators each followed by its negative."""
    G = S.group
    if G.backend == "finite":
        return explicit_cone(G, S.elements)
    gens = []
    for g in S.generators:
        gens.extend([g, -g])
    return generator_cone(G, gens)


def trivial_cone(group):
    return subgroup_cone(trivial_subgroup(group))


def total_cone(group):
    return subgroup_cone(subgroup(group, group.generators()))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _generator_solver(cone):
    cols = [list(g.coords) for g in cone.cone_generators]
    n = cone.group.ncoords
    A = from_columns(cols, nrows=n) if cols else [[] for _ in range(n)]
    rels = cone.group.relation_columns()
    B = from_columns(rels, nrows=n) if rels else [[] for _ in range(n)]
    return NonnegSolver(A, B)


def cone_contains(cone, x):
    """Complete membership decision; never returns "unknown".

    >>> from .groups import make_fgab_group
    >>> Z = make_fgab_group(1, [])
    >>> N = generator_cone(Z, [Z.elem([1])])
    >>> cone_contains(N, Z.elem([5])).witness
    (5,)
    >>> cone_contains(N, Z.elem([-1])).value
    'Out'
    """
    if x.group != cone.group:
        raise ValueError("element not on the cone's carrier")
    return _cone_contains_cached(cone, x)


@lru_cache(maxsize=None)
def _cone_contains_cached(cone, x):
    if isinstance(cone, ExplicitCone):
        return MembershipVerdict("In" if x in cone.members else "Out")
    if isinstance(cone, CoverCone):
        n, g = cone.split(x)
        ok = (n >= 1 and cone.base_cone.contains(g)) or (n == 0 and g.is_zero())
        return MembershipVerdict("In" if ok else "Out")
    if isinstance(cone, GeneratorCone):
        w = _generator_solver(cone).solve(list(x.coords))
        if w is None:
            return MembershipVerdict("Out")
        return MembershipVerdict("In", witness=tuple(w))
    if isinstance(cone, ProductCone):
        for part, proj in zip(cone.parts, cone.projections):
            v = cone_contains(part, proj(x))
            if not v:
                return v
        return MembershipVerdict("In")
    if isinstance(cone, ImageCone):
        if cone.kernel_in_units:
            lift = _preimage_lookup([cone.hom])([[x]])
            ok = lift is not None and cone_contains(cone.inner, lift[0])
        else:
            ok = any(solver.solve(list(x.coords) + offset) is not None
                     for offset, solver in cone.pieces)
        return MembershipVerdict("In" if ok else "Out")
    raise TypeError(f"unknown cone kind {type(cone)!r}")


def _leaves(cone, leg):
    """The cone restricted along ``leg`` as (leaf, leg) pairs: a restriction
    of restrictions is one restriction along the composite legs."""
    if isinstance(cone, ProductCone):
        return [pair for part, proj in zip(cone.parts, cone.projections)
                for pair in _leaves(part, compose(proj, leg))]
    return [(cone, leg)]


def _linear_pieces(leaf):
    """The leaf as a union of linear sets o + N g1 + ... + N gk, as
    (o, (g1, ..., gk)) pairs: one for a leaf with generators, two for a
    cover cone, {0} and e + <e, (0, p) for p generating the base cone>."""
    if isinstance(leaf, CoverCone):
        base = extract_generators(leaf.base_cone)
        if base is None:
            raise ImageNotComputable(
                "image of a cover cone over a cone without generators")
        H = leaf.group
        e = H.elem([1] + [0] * (H.ncoords - 1))
        lifts = tuple(H.elem((0, *p.coords)) for p in base)
        return [(H.zero, ()), (e, (e, *lifts))]
    gens = extract_generators(leaf)
    if gens is None:
        raise ImageNotComputable(f"membership under an image of "
                                 f"{type(leaf).__name__} is not supported")
    return [(leaf.group.zero, gens)]


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeAxiomReport:
    ok: bool
    failures: tuple = ()

    def first_witness(self):
        return self.failures[0] if self.failures else None


def check_cone_axioms(cone):
    """Submonoid closure plus conjugation closure.

    Explicit cones are checked exhaustively; generated and recipe cones are
    closed by construction (the carrier of a generated cone is abelian, and
    each recipe rule preserves both closures).
    """
    if isinstance(cone, ExplicitCone):
        failures = []
        G = cone.group
        if G.zero not in cone.members:
            failures.append(("identity", G.zero))
        members = sorted(cone.members, key=lambda e: e.coords)
        for a in members:
            for b in members:
                if a + b not in cone.members:
                    failures.append(("closure", (a, b)))
        if not G.is_abelian():
            for g in G.elements():
                for x in members:
                    if G.conjugate(g, x) not in cone.members:
                        failures.append(("conjugation", (g, x)))
        return ConeAxiomReport(not failures, tuple(failures))
    return ConeAxiomReport(True)


# ---------------------------------------------------------------------------
# unit groups, reducedness, generated subgroup
# ---------------------------------------------------------------------------

def units(cone):
    """Subgroup of elements x with both x and -x in the cone.

    The subgroup an explicit cone is (a normal subgroup), from unit
    generators on generated cones (a generator is a unit exactly when it
    takes part in a vanishing non-negative combination, read off the
    solver's Hilbert basis of those), and compositionally on recipe cones.
    """
    if isinstance(cone, ExplicitCone):
        return cone.subgroup
    if isinstance(cone, GeneratorCone):
        unit_cols = _generator_solver(cone).unit_columns
        if unit_cols is None:
            unit_gens = [g for g in cone.cone_generators if cone.contains(-g)]
        else:
            unit_gens = [cone.cone_generators[j] for j in unit_cols]
        return subgroup(cone.group, unit_gens)
    if isinstance(cone, CoverCone):
        return trivial_subgroup(cone.group)
    if isinstance(cone, ProductCone):
        out = None
        for part, proj in zip(cone.parts, cone.projections):
            s = subgroup_preimage(proj, units(part))
            out = s if out is None else subgroup_intersection(out, s)
        return out
    if isinstance(cone, ImageCone):
        if cone.kernel_in_units:
            return subgroup_image(cone.hom, units(cone.inner))
        raise UnitExtractionUnsupported(
            "image cone whose map does not collapse into the inner units")
    raise TypeError(f"unknown cone kind {type(cone)!r}")


def is_reduced(cone):
    return units(cone).is_trivial()


def extract_generators(cone):
    """Monoid generators of the cone, or None: the cover cone is not
    finitely generated, nor are cones built over it (an ``ImageCone`` among
    them), and a Hilbert basis past its cap is given up."""
    if isinstance(cone, ExplicitCone):
        return cone.subgroup.generators
    if isinstance(cone, GeneratorCone):
        return cone.cone_generators
    if isinstance(cone, ProductCone):
        return _lifted_generators(cone)
    return None


@lru_cache(maxsize=None)
def _lifted_generators(cone):
    """Generators of a restriction cone, or None.

    The cone is { x : legs[k](x) in parts[k] for every k }.  With S_k the
    generators of parts[k], the multiplicities n >= 0 for which (S_k n_k)_k
    is some (legs[k](x))_k form the non-negative part of a lattice, whose
    Hilbert basis is finite; its elements lift along the legs to
    generators, joined by +- a basis of the kernel of a single leg (two
    legs are the jointly injective projections of a product or pullback).
    A finite abelian part takes part in its fgab form.  None when a part
    has no generators or the Hilbert basis passes its cap.
    """
    legs, parts = cone.projections, cone.parts
    kernel = kernel_subgroup(legs[0]).generators if len(legs) == 1 else ()
    part_gens = [extract_generators(p) for p in parts]
    if any(gens is None for gens in part_gens):
        return None
    to_fgab, M = _stacked_legs(legs)
    nrows = len(M)
    cols, owners = [], []
    top = 0
    for k, (gens, to) in enumerate(zip(part_gens, to_fgab)):
        dim = (legs[k].cod if to is None else to.cod).ncoords
        for g in gens:
            coords = list((g if to is None else to(g)).coords)
            col = [0] * top + coords + [0] * (nrows - top - dim)
            if any(coords) and col not in cols:
                cols.append(col)
                owners.append((k, g))
        top += dim
    basis = hilbert_basis(from_columns(cols, nrows=nrows), M)
    if basis is None:
        return None
    targets = [[leg.cod.zero for _ in basis] for leg in legs]
    for i, n in enumerate(basis):
        for (k, g), mult in zip(owners, n):
            if mult:
                targets[k][i] = targets[k][i] + legs[k].cod.scale(g, mult)
    out = []
    for x in _preimage_lookup(legs)(targets) + [
            x for g in kernel for x in (g, -g)]:
        if not x.is_zero() and x not in out:
            out.append(x)
    return tuple(out)


def generated_subgroup(cone):
    """Subgroup generated by the cone together with its negatives; an
    explicit cone is that subgroup already."""
    if isinstance(cone, ExplicitCone):
        return cone.subgroup
    gens = extract_generators(cone)
    if gens is None:
        raise UnitExtractionUnsupported(
            "generated subgroup of a non-finitely-generated cone")
    return subgroup(cone.group, gens)


def deciding_members(cone):
    """The members that decide a predicate quantified over the cone, as
    ``(members, exact)``: its generators with ``exact=True`` when it has
    them, else its members in the window ``WINDOW`` with ``exact=False``.
    A member that fails the predicate refutes it either way."""
    gens = extract_generators(cone)
    if gens is not None:
        return gens, True
    return cone_window(cone, WINDOW), False


def cone_is_subgroup(cone):
    """Whether the cone equals its own unit group (protomodularity).

    Returns (answer, exact): every deciding member must be a unit, and
    one that is not refutes definitively.  The cover cone is decided
    exactly.
    """
    if isinstance(cone, CoverCone):
        return False, True  # contains (1, 0) but never its inverse
    members, exact = deciding_members(cone)
    if not all(cone.contains(-x) for x in members):
        return False, True
    return True, exact


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def transport_product(c1, c2, carrier, proj1, proj2):
    """Cone of the elements whose projections lie in c1 and c2; on a finite
    carrier the parts are explicit and so is the result."""
    if carrier.backend == "finite":
        return explicit_cone(carrier, [
            x for x, a, b in zip(carrier.elements(), proj1.images,
                                 proj2.images)
            if a in c1.members and b in c2.members])
    return ProductCone(carrier, (c1, c2), (proj1, proj2))


def transport_preimage(hom, inner):
    if hom.dom.backend == "finite":
        return explicit_cone(hom.dom, [
            x for x, y in zip(hom.dom.elements(), hom.images)
            if cone_contains(inner, y)])
    return ProductCone(hom.dom, (inner,), (hom,))


def transport_image(hom, inner):
    """Direct image cone: generated by the generator images (in a finite
    codomain, the subgroup they generate), else an ``ImageCone`` into an
    fgab codomain; the image of an image is one image along the composite."""
    gens = extract_generators(inner)
    if gens is not None:
        images = [hom(g) for g in gens]
        if hom.cod.backend == "finite":
            return explicit_cone(hom.cod, subgroup(hom.cod, images).elements)
        return generator_cone(hom.cod, images)
    if hom.cod.backend == "finite":
        raise ImageNotComputable(
            "image of a non-finitely-generated cone into a finite group")
    if isinstance(inner, ImageCone):
        hom, inner = compose(hom, inner.hom), inner.inner
    return ImageCone(hom.cod, hom, inner)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def group_window(group, width):
    """All elements with free coordinates in [-width, width]."""
    if group.backend == "finite":
        return group.elements()
    return _bounded_elements(group, width)


def cone_window(cone, width):
    """Cone members in the coordinate window; exhaustive iff carrier finite."""
    return [x for x in group_window(cone.group, width)
            if cone_contains(cone, x)]
