"""Positive cones: submonoids closed under conjugation, with decidable
membership and inclusion.

A cone is a subgroup (``SubgroupCone``, either backend), generated (fgab
carrier), or a recipe node on an fgab carrier remembering how it was
built from other cones: ``ProductCone``, the restriction along one leg (a
preimage) or the two projections of a product or pullback, and
``ImageCone``, a direct image.  A cone on a finite carrier is a normal
subgroup held by its members, which every transport computes directly.
A subgroup cone on an fgab carrier holds the subgroup's generators g, is
generated as a monoid by each g and -g, and decides membership by one
lattice solve.  The ``CoverCone`` leaf is the positive cone of the
canonical partially ordered cover Z x G; it is provably reduced and not
finitely generated.

Every cone is a finite union of linear sets o + N q1 + ... + N qk
(Ginsburg and Spanier, Pacific J. Math. 16, 1966), its ``linear_pieces``,
and a predicate quantified over a cone is an inclusion of its pieces,
``cone_outside``; no predicate scans a window.  Membership in an image is
one preimage lookup when the map's kernel lies in the inner units, else
membership in one of its pieces.  A restriction of finitely generated
cones is one piece at 0, so it has generators; an image has them when
its pieces lie in the cone its offsets and periods generate.  The cone a
subgroup carries, ``subgroup_cone``, gives the total and the trivial cone
too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (
    ImageNotComputable,
    UnitExtractionUnsupported,
)
from .groups import (
    GroupHom,
    _preimage_lookup,
    _stacked_legs,
    compose,
    interned,
    kernel_subgroup,
    subgroup,
    subgroup_from_elements,
    subgroup_image,
    subgroup_intersection,
    subgroup_preimage,
    trivial_subgroup,
)
from .intlinalg import (
    HILBERT_FRONTIER_CAP,
    NonnegSolver,
    from_columns,
    hilbert_basis,
)


@dataclass(frozen=True)
class MembershipVerdict:
    """Definitive membership answer with its evidence.

    An ``In`` verdict on a generated or an fgab subgroup cone carries the
    non-negative combination of ``extract_generators`` realizing the
    element; on a restriction or an image it carries none, its parts'
    combinations being over other cones' generators.  An ``Out`` verdict
    carries nothing: the solver behind it is complete, so its failure is
    the proof.
    """

    value: str  # "In" | "Out"
    witness: tuple = None

    def __bool__(self):
        return self.value == "In"


class Cone:
    """Base for the cone variants; ``group`` is the carrier."""

    def contains(self, x):
        return bool(cone_contains(self, x))


@interned
@dataclass(frozen=True, eq=False)
class SubgroupCone(Cone):
    """A cone that is a subgroup: its ``members`` on a finite carrier, where
    every cone is one (-x = (ord x - 1)x), else its ``generators``.
    Interned, so its subgroup is built once per value."""

    group: object
    members: frozenset = None
    generators: tuple = ()

    @cached_property
    def subgroup(self):
        """The cone as a subgroup; on a finite carrier with a greedy
        generating set."""
        if self.members is not None:
            return subgroup_from_elements(self.group, self.members)
        return subgroup(self.group, self.generators)

    @cached_property
    def signed_generators(self):
        """Each generator g of the subgroup, then -g: monoid generators."""
        return tuple(x for g in self.subgroup.generators for x in (g, -g))


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

    Only constructed when the inner cone has no generators.  Membership of
    y is decided exactly by one of two rules.  When ker h lies in the
    units of R, R + ker h = R, so y is in h(R) iff one preimage of y is in
    R.  Otherwise y is in h(R) iff y - h(o) is in <h(q)> for some linear
    piece o + <q> of R.
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
    return SubgroupCone(group, frozenset(elements))


def generator_cone(group, generators):
    """The cone the generators span; without non-zero ones the trivial
    cone, which has one encoding."""
    if group.backend != "fgab":
        raise ValueError("generator cones need an fgab carrier")
    gens = tuple(g for g in generators if not g.is_zero())
    return GeneratorCone(group, gens) if gens else trivial_cone(group)


def subgroup_cone(S):
    """The total cone a subgroup carries inside its ambient group."""
    if S.elements is not None:
        return SubgroupCone(S.group, S.elements)
    return SubgroupCone(S.group, generators=S.generators)


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
    if isinstance(cone, SubgroupCone):
        if cone.members is not None:
            return MembershipVerdict("In" if x in cone.members else "Out")
        c = cone.subgroup.coefficients(x)  # split by sign over g_i, -g_i
        return MembershipVerdict("Out") if c is None else MembershipVerdict(
            "In", tuple(n for a in c for n in (max(a, 0), -min(a, 0))))
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
            lift = _preimage_lookup((cone.hom,))([[x]])
            ok = lift is not None and cone_contains(cone.inner, lift[0])
        else:
            ok = any(cone_contains(generator_cone(cone.group, qs), x - o)
                     for o, qs in linear_pieces(cone))
        return MembershipVerdict("In" if ok else "Out")
    raise TypeError(f"unknown cone kind {type(cone)!r}")


# ---------------------------------------------------------------------------
# linear pieces
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def linear_pieces(cone):
    """The cone as a union of linear sets o + N q1 + ... + N qk, as
    (o, (q1, ..., qk)) pairs: one at 0 for a generated or subgroup cone;
    {0} and e + (0, o) + <e, (0, q)> for each piece o + <q> of a cover
    cone's base, e the new coordinate; the images of the inner pieces for
    an image; and for a restriction the ``_restricted_pieces`` of each
    choice of a piece per part, past their cap ``ImageNotComputable``."""
    if isinstance(cone, (SubgroupCone, GeneratorCone)):
        return ((cone.group.zero, extract_generators(cone)),)
    if isinstance(cone, CoverCone):
        e, *rest = cone.group.generators()
        lift = GroupHom(cone.base_cone.group, cone.group, tuple(rest))
        return ((cone.group.zero, ()),) + tuple(
            (e + lift(o), (e, *map(lift, qs)))
            for o, qs in linear_pieces(cone.base_cone))
    if isinstance(cone, ImageCone):
        h = cone.hom
        return tuple((h(o), tuple(map(h, qs)))
                     for o, qs in linear_pieces(cone.inner))
    if isinstance(cone, ProductCone):
        return tuple(piece for choice in itertools.product(
            *map(linear_pieces, cone.parts))
            for piece in _restricted_pieces(cone, choice))
    raise TypeError(f"unknown cone kind {type(cone)!r}")


def _restricted_pieces(cone, choice):
    """The pieces of { x : legs[k](x) in o_k + <S_k> for every k }, for one
    piece (o_k, S_k) per part.  The n, t >= 0 with (o_k t + S_k n_k)_k some
    (legs[k](x))_k have a finite Hilbert basis; a solution with t = 1 is one
    basis element with t = 1 plus some with t = 0, which lift along the legs
    to the offsets and the periods, with +- the kernel of a single leg (two
    legs are jointly injective).  Without offsets t is left out: one piece
    at 0.  A finite abelian part takes its fgab form."""
    legs = cone.projections
    kernel = kernel_subgroup(legs[0]).generators if len(legs) == 1 else ()
    to_fgab, M = _stacked_legs(legs)
    nrows = len(M)
    cols, owners, offset = [], [], []
    for k, ((o, gens), to) in enumerate(zip(choice, to_fgab)):
        at, *coords = [list((g if to is None else to(g)).coords)
                       for g in (o, *gens)]
        top = len(offset)
        for g, c in zip(gens, coords):
            col = [0] * top + c + [0] * (nrows - top - len(at))
            if any(c) and col not in cols:
                cols.append(col)
                owners.append([(k, g)])
        offset += at
    affine = any(offset)
    if affine:
        cols.append(offset)
        owners.append([(k, o) for k, (o, _) in enumerate(choice)])
    basis = hilbert_basis(from_columns(cols, nrows=nrows), M)
    if basis is None:
        raise ImageNotComputable("restriction past its Hilbert-basis cap")
    targets = [[leg.cod.zero for _ in basis] for leg in legs]
    for i, n in enumerate(basis):
        for owned, mult in zip(owners, n):
            if mult:
                for k, g in owned:
                    targets[k][i] = targets[k][i] + legs[k].cod.scale(g, mult)
    lifts = _preimage_lookup(legs)(targets)
    kernel = [x for g in kernel for x in (g, -g)]
    if not affine:
        return ((cone.group.zero, _distinct(lifts + kernel)),)
    periods = _distinct([x for x, n in zip(lifts, basis) if n[-1] == 0]
                        + kernel)
    return tuple((x, periods) for x, n in zip(lifts, basis) if n[-1] == 1)


def _distinct(xs):
    return tuple(x for x in dict.fromkeys(xs) if not x.is_zero())


# ---------------------------------------------------------------------------
# inclusion
# ---------------------------------------------------------------------------

def cone_outside(f, C, D):
    """A member of C that f sends outside D, or None when f(C) lies in D.

    f is a hom out of C's carrier or a callable agreeing with one, such as
    a lift through preimages; None is the identity.  C is read through its
    ``extract_generators`` (D is a monoid), else through its linear pieces:
    f maps o + <q> onto f(o) + <f(q)>, which ``_piece_outside`` decides."""
    f = f or (lambda x: x)
    gens = extract_generators(C)
    if gens is not None:
        return next((g for g in gens if not cone_contains(D, f(g))), None)
    for o, qs in linear_pieces(C):
        r = _piece_outside(f(o), tuple(map(f, qs)), D)
        if r is not None:
            return _combine(o, qs, r)
    return None


def _combine(o, qs, r):
    """o + sum r_i q_i, for multiplicities r = {i: r_i}."""
    for i, n in r.items():
        o = o + o.group.scale(qs[i], n)
    return o


def _piece_outside(o, qs, D):
    """Multiplicities {i: r_i} that put o + sum r_i q_i outside the cone
    D, or None when the piece o + <q> lies in D.

    Testing o and each o + q_i decides a piece at 0, as D is a monoid, and
    one in a subgroup cone D, a group.  Else o is a non-zero member, and the
    piece lies in a restriction iff in every part; in a cover cone iff
    every q_i has first coordinate >= 0 and its base part lies in the base;
    in an image whose map's kernel lies in the inner units iff a lift does;
    in any image if it lies in one of the image's pieces; and in a cone with
    generators by the box lemma.  Anything else raises
    ``ImageNotComputable``, as does the box past its cap.
    """
    at_zero = o.is_zero()
    if not (at_zero or cone_contains(D, o)):
        return {}
    for i, q in enumerate(qs):
        if not cone_contains(D, q if at_zero else o + q):
            return {i: 1}
    if at_zero or isinstance(D, SubgroupCone):
        return None
    if isinstance(D, ProductCone):
        for part, proj in zip(D.parts, D.projections):
            r = _piece_outside(proj(o), tuple(map(proj, qs)), part)
            if r is not None:
                return r
        return None
    if isinstance(D, CoverCone):
        for i, q in enumerate(qs):
            if q.coords[0] < 0:
                return {i: o.coords[0] // -q.coords[0] + 1}
        return _piece_outside(D.split(o)[1],
                              tuple(D.split(q)[1] for q in qs), D.base_cone)
    if isinstance(D, ImageCone) and D.kernel_in_units:
        lift = _preimage_lookup((D.hom,))([[o, *qs]])
        return _piece_outside(lift[0], tuple(lift[1:]), D.inner)
    if isinstance(D, ImageCone) and any(
            all(generator_cone(D.group, qs2).contains(x) for x in (o - o2, *qs))
            for o2, qs2 in linear_pieces(D)):
        return None  # inside one piece of the image
    gens = extract_generators(D)
    if gens is None:
        raise ImageNotComputable(
            f"inclusion in a {type(D).__name__} without generators")
    return _box_outside(o, qs, D, gens)


def _box_outside(o, qs, D, gens):
    """The box lemma in D generated by ``gens``: with c_i q_i in D, o + <q>
    lies in D iff o + sum r_i q_i does for every 0 <= r_i < c_i (write
    m_i = r_i + c_i t_i; D is a monoid).  The least c_i is the least
    positive first entry of a Hilbert basis of [q_i | -gens].  With none, a
    Farkas functional >= 0 on D and < 0 at q_i puts o + m q_i outside D for
    all large m, which doubling m finds."""
    c = []
    for i, q in enumerate(qs):
        basis = _generator_solver(
            GeneratorCone(D.group, (q, *(-g for g in gens)))).relations
        if basis is None:
            raise ImageNotComputable("box lemma past its Hilbert-basis cap")
        c.append(min((v[0] for v in basis if v[0] > 0), default=0))
        if not c[-1]:
            m = 2
            while cone_contains(D, o + D.group.scale(q, m)):
                m *= 2
            return {i: m}
    if math.prod(c) > HILBERT_FRONTIER_CAP:
        raise ImageNotComputable(f"box of {math.prod(c)} points past its cap")
    for r in itertools.product(*map(range, c)):
        if not cone_contains(D, _combine(o, qs, dict(enumerate(r)))):
            return dict(enumerate(r))
    return None


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

    Cones on a finite carrier are checked exhaustively; the others are
    closed by construction (their carrier is abelian, and each recipe rule
    preserves both closures).
    """
    if cone.group.backend == "finite":
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

    The subgroup a subgroup cone is, from unit generators on generated
    cones (a generator is a unit exactly when it takes part in a vanishing
    non-negative combination, read off the solver's Hilbert basis of
    those), and compositionally on recipe cones.
    """
    if isinstance(cone, SubgroupCone):
        return cone.subgroup
    return _units(cone)


@lru_cache(maxsize=256)
def _units(cone):
    """``units`` of a cone on an fgab carrier, once per cone value."""
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
        gens = extract_generators(cone)
        if gens is None:
            raise UnitExtractionUnsupported(
                "image cone without generators whose map does not collapse "
                "into the inner units")
        return units(GeneratorCone(cone.group, gens))
    raise TypeError(f"unknown cone kind {type(cone)!r}")


def is_reduced(cone):
    return units(cone).is_trivial()


def extract_generators(cone):
    """Monoid generators of the cone, or None: the cover cone is not
    finitely generated, nor are most cones built over it, and a Hilbert
    basis past its cap is given up."""
    if isinstance(cone, SubgroupCone):  # finite: a submonoid is a subgroup
        return (cone.subgroup.generators if cone.members is not None
                else cone.signed_generators)
    if isinstance(cone, GeneratorCone):
        return cone.cone_generators
    if isinstance(cone, (ProductCone, ImageCone)):
        return _recipe_generators(cone)
    return None


@lru_cache(maxsize=None)
def _recipe_generators(cone):
    """The periods of a restriction or image that is one piece at 0, else
    the members among an image's offsets and periods, if every piece lies
    in the cone they generate; None past a cap."""
    try:
        pieces = linear_pieces(cone)
        if len(pieces) == 1 and pieces[0][0].is_zero():
            return pieces[0][1]
        if isinstance(cone, ImageCone):
            gens = tuple(x for x in _distinct(
                x for o, qs in pieces for x in (o, *qs)) if cone.contains(x))
            span = GeneratorCone(cone.group, gens)
            if all(_piece_outside(o, qs, span) is None for o, qs in pieces):
                return gens
    except ImageNotComputable:
        pass
    return None


def generated_subgroup(cone):
    """Subgroup generated by the cone together with its negatives: by the
    members o and o + q of each piece o + <q>, as q = (o + q) - o; a
    subgroup cone is that subgroup already."""
    if isinstance(cone, SubgroupCone):
        return cone.subgroup
    return subgroup(cone.group, [x for o, qs in linear_pieces(cone)
                                 for x in (o, *(o + q for q in qs))])


def cone_is_subgroup(cone):
    """Whether the cone equals its own unit group (protomodularity).

    A subgroup cone is one.  Any other is one iff it holds -o and
    every -q for each piece o + <q>, since then q = (o + q) + (-o) is in it
    too: every offset and period is a unit.
    """
    if isinstance(cone, SubgroupCone):
        return True
    return all(cone.contains(-x) for o, qs in linear_pieces(cone)
               for x in (o, *qs))


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def transport_product(c1, c2, carrier, proj1, proj2):
    """Cone of the elements whose projections lie in c1 and c2; on a finite
    carrier the parts hold their members and so does the result."""
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
    """Direct image cone: the image subgroup of a subgroup cone, or in a
    finite codomain of any cone (h(R) is a submonoid of a finite group, so
    the subgroup h(<R>)); else generated by the generator images, else an
    ``ImageCone``; the image of an image is one image along the composite."""
    if hom.cod.backend == "finite" or isinstance(inner, SubgroupCone):
        return subgroup_cone(subgroup_image(hom, generated_subgroup(inner)))
    gens = extract_generators(inner)
    if gens is not None:
        return generator_cone(hom.cod, [hom(g) for g in gens])
    if isinstance(inner, ImageCone):
        hom, inner = compose(hom, inner.hom), inner.inner
    return ImageCone(hom.cod, hom, inner)
