"""Groups, homomorphisms and the constructions every other module consumes.

Two backends share one element interface:

* ``FiniteGroup`` -- an explicit Cayley table, possibly non-abelian;
* ``FgAbGroup``   -- a finitely generated abelian group in invariant-factor
  normal form Z^r + Z/d1 + ... + Z/dk with d1 | d2 | ... and every di >= 2.

Elements are immutable coordinate tuples; all arithmetic is exact.  Groups
are written additively throughout (conjugation of x by g is g + x - g),
which matches the usual convention for preordered groups even when the
group is non-abelian.

Both backends intern their groups: one live object per Cayley table, one
per ``(rank, torsion)``.  Group ``==`` and ``hash`` are therefore the
identity ones, and run no Python code inside the hash of an element, a
hom, a cone or an ``lru_cache`` key.  An element, ``GroupElement(group,
coords)``, and a hom, ``GroupHom(dom, cod, images)``, are tuple values
(``typing.NamedTuple``): their ``==``, ``hash`` and field access run in C,
an element equals no element of another group and no hom, and ``x * n``
scales x rather than repeating the tuple.  The values built on top of groups
are interned the same way by one class decorator, ``interned``: one live
``Subgroup`` per (group, generators, elements), and in the modules above,
one ``cones.SubgroupCone`` per (group, members, generators) and one
``pog.PreorderedGroup`` per (group, cone).  Equal fields mean the same
object, so their ``==`` and ``hash`` are the identity ones too, and what
they cache is computed once per value.  A finite group keeps its elements
as one tuple; ``subgroup`` is built once per generator tuple and
``subgroup_from_elements`` once per element set, while they stay among
the 256 most recent.  On the finite backend one
breadth-first closure, ``_words``, generates every subgroup, one greedy
loop, ``_generating_set``, picks the generators of a group and of a
subgroup given by its elements, and one table builder,
``_finite_group_on``, builds every derived group.  Each derived group --
quotient, subgroup, image, product -- is built once per (group, subgroup)
or group pair while it stays among the 256 most recent, and so is the
preimage lookup that factors maps through an epi or through a tuple of
legs.  On the fgab backend the lattice facts are kept the same way, per
value: one Smith normal form per subgroup, which every membership and
wholeness query solves against, the intersection of two subgroups and
the preimage of a subgroup.  Elements are plain tuples, so the values
these caches hold stay small.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import (BackendMismatch, BadInvariantFactors,
                     EnumerationUnbounded, NotAGroup, NotNormal)
from .intlinalg import (
    factored,
    from_columns,
    invariant_factors_of_diagonal,
    lattice_basis,
    lattice_intersection,
    lattice_preimage,
    mat_vec,
)


def interned(cls):
    """Intern a frozen dataclass declared with ``eq=False``.

    Constructing a value whose fields equal those of a live instance
    returns that instance, which a weak table keeps per tuple of field
    values, as ``FiniteGroup`` and ``FgAbGroup`` keep their groups.  Equal
    fields mean the same object, so the identity ``==`` and ``hash`` still
    mean equal fields, an ``lru_cache`` key runs no Python code, and a
    cached property is computed once per value.  ``__reduce__`` sends
    pickle and copy back through the table.
    """
    init, table = cls.__init__, weakref.WeakValueDictionary()
    key = operator.attrgetter(*[f.name for f in dataclasses.fields(cls)])

    def __new__(klass, *args, **kwargs):
        self = object.__new__(klass)
        init(self, *args, **kwargs)
        return table.setdefault(key(self), self)

    cls.__new__ = staticmethod(__new__)
    cls.__init__ = object.__init__  # __new__ has set the fields
    cls.__reduce__ = lambda self: (cls, key(self))
    return cls


class GroupElement(NamedTuple):
    """An element: its group and its coordinate tuple, one tuple value."""

    group: "GroupObject"
    coords: tuple

    def __add__(self, other):
        if other.group != self.group:
            raise ValueError("elements of different groups")
        return self.group.add(self, other)

    def __neg__(self):
        return self.group.neg(self)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, n):
        # n times the element, not the tuple repeated n times
        return self.group.scale(self, n)

    __rmul__ = __mul__

    def is_zero(self):
        if self.group.backend == "finite":
            return self.coords[0] == self.group.identity_index
        return not any(self.coords)

    def __repr__(self):
        return f"<{self.group.describe_element(self)}>"


class GroupObject:
    """Shared code of the two backends; each supplies ``zero``, ``add``,
    ``neg``, ``order``, ``elements``, ``generators`` and ``is_abelian``."""

    backend = None

    def scale(self, a, n):
        if n < 0:
            return self.neg(self.scale(a, -n))
        out = self.zero
        acc = a
        while n:
            if n & 1:
                out = self.add(out, acc)
            acc = self.add(acc, acc)
            n >>= 1
        return out

    def conjugate(self, g, x):
        """g + x - g."""
        return self.add(self.add(g, x), self.neg(g))


class FiniteGroup(GroupObject):
    """A Cayley table over named elements.

    Instances are interned: constructing a group whose element names and
    table equal those of a live one returns that object, so ``==`` and
    ``hash`` are the identity ones and never touch the table.  Build
    groups from outside input with ``make_finite_group``, which validates
    the table before it is interned.
    """

    backend = "finite"
    _interned = weakref.WeakValueDictionary()

    def __new__(cls, element_names, table, identity_index, inverse):
        element_names = tuple(element_names)
        table = tuple(tuple(row) for row in table)
        key = (element_names, table)
        self = cls._interned.get(key)
        if self is None:
            self = super().__new__(cls)
            self.element_names = element_names
            self.table = table
            self.identity_index = identity_index
            self.inverse = tuple(inverse)
            self._elements = tuple(GroupElement(self, (i,))
                                   for i in range(len(element_names)))
            self._generators = None
            self._abelian = all(table[i][j] == table[j][i]
                                for i in range(len(table)) for j in range(i))
            cls._interned[key] = self
        return self

    def __reduce__(self):
        # copies and unpickled groups go through interning as well
        return FiniteGroup, (self.element_names, self.table,
                             self.identity_index, self.inverse)

    @property
    def zero(self):
        return self._elements[self.identity_index]

    def elem(self, key):
        """Element by index or by name."""
        i = self.element_names.index(key) if key in self.element_names else key
        if not isinstance(i, int) or not 0 <= i < len(self.element_names):
            raise ValueError(f"no element {key!r}")
        return self._elements[i]

    def add(self, a, b):
        return self._elements[self.table[a.coords[0]][b.coords[0]]]

    def neg(self, a):
        return self._elements[self.inverse[a.coords[0]]]

    def order(self):
        return len(self.element_names)

    def elements(self):
        # one tuple per interned group, like its generators
        return self._elements

    def generators(self):
        # computed once per interned group, so it lives as long as the group
        if self._generators is None:
            self._generators = tuple(_generating_set(self, range(self.order())))
        return list(self._generators)

    def is_abelian(self):
        return self._abelian

    def describe_element(self, x):
        return self.element_names[x.coords[0]]

    def __repr__(self):
        return f"FiniteGroup(order {len(self.element_names)})"


class FgAbGroup(GroupObject):
    """Z^rank + Z/d1 + ... + Z/dk, interned on ``(rank, torsion)`` like
    ``FiniteGroup``; ``make_fgab_group`` normalizes outside input first."""

    backend = "fgab"
    _interned = weakref.WeakValueDictionary()

    def __new__(cls, rank, torsion):
        key = (rank, tuple(torsion))
        self = cls._interned.get(key)
        if self is None:
            self = super().__new__(cls)
            self.rank, self.torsion = key
            self.ncoords = rank + len(self.torsion)
            cls._interned[key] = self
        return self

    def __reduce__(self):
        return FgAbGroup, (self.rank, self.torsion)

    def reduce(self, coords):
        if not self.torsion:
            return tuple(coords)
        r = self.rank
        return (*coords[:r], *map(operator.mod, coords[r:], self.torsion))

    @property
    def zero(self):
        return GroupElement(self, (0,) * self.ncoords)

    def elem(self, coords):
        coords = tuple(map(int, coords))
        if len(coords) != self.ncoords:
            raise ValueError(f"expected {self.ncoords} coordinates")
        return GroupElement(self, self.reduce(coords))

    def add(self, a, b):
        return GroupElement(self, self.reduce(
            tuple(map(operator.add, a.coords, b.coords))))

    def neg(self, a):
        return GroupElement(self, self.reduce(
            tuple(map(operator.neg, a.coords))))

    def scale(self, a, n):
        return GroupElement(self, self.reduce(
            tuple(map(operator.mul, a.coords, itertools.repeat(n)))))

    def order(self):
        if self.rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def elements(self):
        if self.rank:
            raise ValueError("infinite group has no element list")
        return [GroupElement(self, c)
                for c in itertools.product(*[range(d) for d in self.torsion])]

    def generators(self):
        out = []
        for i in range(self.ncoords):
            c = [0] * self.ncoords
            c[i] = 1
            out.append(GroupElement(self, tuple(c)))
        return out

    def is_abelian(self):
        return True

    def relation_columns(self):
        """Columns spanning the lattice identified with zero in Z^ncoords."""
        cols = []
        for j, d in enumerate(self.torsion):
            c = [0] * self.ncoords
            c[self.rank + j] = d
            cols.append(c)
        return cols

    def describe_element(self, x):
        return "(" + ",".join(str(v) for v in x.coords) + ")"

    def describe(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FgAbGroup({self.describe()})"


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def make_finite_group(element_names, table):
    """Validated finite group from a Cayley table of element indices.

    >>> make_finite_group(["0", "1"], [[0, 1], [1, 0]]).order()
    2
    """
    if not isinstance(element_names, (list, tuple)) or not all(
            isinstance(x, str) for x in element_names):
        raise NotAGroup("element names must be a list of strings")
    if not isinstance(table, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in table):
        raise NotAGroup("table must be a list of rows")
    n = len(element_names)
    if len(set(element_names)) != n:
        raise NotAGroup("duplicate element names")
    if len(table) != n or any(len(row) != n for row in table):
        raise NotAGroup("table is not square")
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if (isinstance(v, bool) or not isinstance(v, int)
                    or not 0 <= v < n):
                raise NotAGroup(f"entry ({i},{j}) is not an element index",
                                witness=(i, j))
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAGroup("associativity fails", witness=(a, b, c))
    inverse = [None] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                inverse[a] = b
                break
        if inverse[a] is None:
            raise NotAGroup(f"element {a} has no inverse", witness=a)
    return FiniteGroup(element_names, table, identity, inverse)


def _finite_group_on(keys, add, name):
    """The finite group on ``keys`` in their order under ``add``, element i
    named ``name(keys[i])``, with the index of each key.  ``add`` is a group
    law on the keys by construction (subgroups, quotients, products and
    pullbacks of validated groups), so the table is not checked."""
    index = {k: i for i, k in enumerate(keys)}
    table = [[index[add(a, b)] for b in keys] for a in keys]
    identity = table.index(list(range(len(keys))))  # the row fixing all
    inverse = [row.index(identity) for row in table]
    return FiniteGroup([name(k) for k in keys], table, identity,
                       inverse), index


def _pair_group(A, B, pairs):
    """``_finite_group_on`` pairs (a, b) of A x B under componentwise
    addition, with the projections onto A and B."""
    P, index = _finite_group_on(
        pairs, lambda p, q: (A.add(p[0], q[0]), B.add(p[1], q[1])),
        lambda p: f"({A.describe_element(p[0])}|{B.describe_element(p[1])})")
    return (P, index, GroupHom(P, A, tuple(p[0] for p in pairs)),
            GroupHom(P, B, tuple(p[1] for p in pairs)))


@dataclass(frozen=True)
class Presentation:
    """Quotient of Z^ncoords by a relation lattice, in normal form.

    ``project`` sends a coordinate vector to its class; ``gen_lifts[k]`` is
    a preimage vector of the k-th canonical generator of ``group``.
    """

    group: FgAbGroup
    ncoords: int
    _U: tuple
    _free_idx: tuple
    _tor_idx: tuple
    _lifts: tuple

    def project(self, vec):
        y = mat_vec(self._U, list(vec))
        coords = [y[i] for i in self._free_idx]
        coords += [y[i] % d for i, d in self._tor_idx]
        return GroupElement(self.group, tuple(coords))

    @property
    def gen_lifts(self):
        return [list(v) for v in self._lifts]


def fgab_presentation(ncoords, relation_columns):
    """Normal form of Z^ncoords modulo the given relation columns."""
    if relation_columns:
        R = from_columns([list(c) for c in relation_columns], nrows=ncoords)
    else:
        R = [[0] for _ in range(ncoords)] if ncoords else []
    if ncoords == 0:
        return Presentation(FgAbGroup(0, ()), 0, (), (), (), ())
    s = factored(R)
    diag = s.diagonal
    free_idx, tor_idx = [], []
    for i in range(ncoords):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            free_idx.append(i)
        elif d >= 2:
            tor_idx.append((i, d))
    group = FgAbGroup(len(free_idx), tuple(d for _, d in tor_idx))
    ui_cols = [[s.U_inv[r][i] for r in range(ncoords)]
               for i in free_idx + [i for i, _ in tor_idx]]
    return Presentation(group, ncoords, s.U, tuple(free_idx), tuple(tor_idx),
                        tuple(tuple(c) for c in ui_cols))


def make_fgab_group(rank, torsion):
    """F.g. abelian group, normalizing the torsion part.

    >>> make_fgab_group(0, [4, 2]).torsion
    (2, 4)
    """
    if rank < 0:
        raise BadInvariantFactors("rank must be non-negative")
    for d in torsion:
        if not isinstance(d, int) or d <= 0:
            raise BadInvariantFactors(f"torsion coefficient {d} is not positive")
    return FgAbGroup(rank, tuple(invariant_factors_of_diagonal(list(torsion))))


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class GroupHom(NamedTuple):
    """Homomorphism given by images: one per element for a finite domain,
    one per canonical generator for an fgab domain; one tuple value."""

    dom: GroupObject
    cod: GroupObject
    images: tuple

    def __call__(self, x):
        """Image of x; an fgab -> fgab hom sums the generator images with
        x's coordinates as coefficients and reduces once.

        >>> Z, ZxZ4 = make_fgab_group(1, []), make_fgab_group(1, [4])
        >>> h = make_hom(Z, ZxZ4, [ZxZ4.elem([2, 3])])
        >>> h(Z.elem([-3])).coords
        (-6, 3)
        """
        if x.group != self.dom:
            raise ValueError("element not in the domain")
        if self.dom.backend == "finite":
            return self.images[x.coords[0]]
        cod = self.cod
        if cod.backend == "fgab":
            out = (0,) * cod.ncoords
            for c, img in zip(x.coords, self.images):
                if c:
                    col = img.coords if c == 1 else map(
                        operator.mul, img.coords, itertools.repeat(c))
                    out = map(operator.add, out, col)
            return GroupElement(cod, cod.reduce(tuple(out)))
        out = cod.zero
        for c, img in zip(x.coords, self.images):
            if c:
                out = out + cod.scale(img, c)
        return out

    def is_zero(self):
        return all(y.is_zero() for y in self.images)


def make_hom(dom, cod, images):
    """Validated hom from outside input: the hom law is checked along the
    Cayley graph of a finite domain, and on the generator relations of an
    fgab one."""
    images = tuple(images)
    for img in images:
        if img.group != cod:
            raise ValueError("image outside the codomain")
    if dom.backend == "finite":
        if len(images) != dom.order():
            raise ValueError("finite domain needs one image per element")
        bad = _cayley_failure(dom, images, dom.generators())
        if bad:
            raise ValueError(f"not a homomorphism at {bad[0]}, {bad[1]}")
        return GroupHom(dom, cod, images)
    if len(images) != dom.ncoords:
        raise ValueError("fgab domain needs one image per canonical generator")
    h = GroupHom(dom, cod, images)
    bad = _relation_failure(h)
    if bad:
        raise ValueError(bad)
    return h


def _cayley_failure(G, images, gens):
    """A pair (x, y) of the finite group G with images[x + y] !=
    images[x] + images[y], or None when the images form a hom.

    Only zero and the edges x -> x + g of the Cayley graph, g in gens, are
    checked: |G|·k comparisons instead of |G|².  That is complete because
    the generators of a finite group generate it as a monoid (Holt, Eick
    and O'Brien, *Handbook of Computational Group Theory*, 2005).
    """
    if not images[G.identity_index].is_zero():
        return G.zero, G.zero
    for x in G.elements():
        hx = images[x.coords[0]]
        for g in gens:
            if images[(x + g).coords[0]] != hx + images[g.coords[0]]:
                return x, g
    return None


def _relation_failure(h):
    """Why generator images of an fgab domain define no hom, or None."""
    images, dom = h.images, h.dom
    if not h.cod.is_abelian():
        for i in range(len(images)):
            for j in range(i):
                if images[i] + images[j] != images[j] + images[i]:
                    return "generator images do not commute"
    for j, d in enumerate(dom.torsion):
        if not h.cod.scale(images[dom.rank + j], d).is_zero():
            return f"torsion generator {j} image has wrong order"
    return None


def identity_hom(G):
    if G.backend == "finite":
        return GroupHom(G, G, tuple(G.elements()))
    return GroupHom(G, G, tuple(G.generators()))


def zero_hom(dom, cod):
    if dom.backend == "finite":
        return GroupHom(dom, cod, tuple(cod.zero for _ in range(dom.order())))
    return GroupHom(dom, cod, tuple(cod.zero for _ in range(dom.ncoords)))


def compose(g, f):
    """g after f; validity is inherited, no re-validation."""
    if f.cod != g.dom:
        raise ValueError("homs do not compose")
    return GroupHom(f.dom, g.cod, tuple(map(g, f.images)))


def hom_sub(f, g):
    """Pointwise difference (abelian codomain)."""
    if not f.cod.is_abelian():
        raise BackendMismatch("difference needs an abelian codomain")
    return GroupHom(f.dom, f.cod,
                    tuple(a - b for a, b in zip(f.images, g.images)))


def is_injective(h):
    return kernel_subgroup(h).is_trivial()


def is_surjective(h):
    return image_subgroup(h).is_whole()


def is_isomorphism(h):
    return is_injective(h) and is_surjective(h)


def inverse_hom(h):
    """Inverse of an isomorphism; None when h is not onto."""
    return factor_through_mono(h, identity_hom(h.cod))


def _preimage_lookup(legs):
    """Exact preimages along homs out of one domain D.

    Returns ``find(columns)``: ``columns[k]`` lists elements of
    ``legs[k].cod``, all lists of one length, and ``find`` returns per
    position some x in D with ``legs[k](x) = columns[k][j]`` for every k,
    or None when some position has no such x.  A finite D is looked up in
    one dict keyed on the legs' image coordinates; an fgab D solves one
    stacked integer system, a finite abelian codomain taking part in its
    fgab form.
    """
    D = legs[0].dom
    if D.backend == "finite":
        table = {}
        for i, key in enumerate(zip(*[[y.coords for y in leg.images]
                                      for leg in legs])):
            table.setdefault(key, i)

        def find(columns):
            try:
                return [GroupElement(D, (table[key],)) for key in zip(
                    *[[y.coords for y in col] for col in columns])]
            except KeyError:
                return None
        return find
    to_fgab, M = _stacked_legs(legs)
    snf = factored(M)

    def find(columns):
        out = []
        for ys in zip(*columns):
            z = snf.solve([c for y, to in zip(ys, to_fgab)
                           for c in (y if to is None else to(y)).coords])
            if z is None:
                return None
            # a system without rows (zero codomains) solves to []
            out.append(D.elem((z + [0] * D.ncoords)[: D.ncoords]))
        return out
    return find


def _stacked_legs(legs):
    """Homs out of one fgab domain as one integer matrix.

    Returns ``(to_fgab, M)``: ``to_fgab[k]`` puts a finite abelian
    ``legs[k].cod`` in its fgab form (None for an fgab codomain), and the
    columns of M, the legs' stacked generator images followed by each
    codomain's relation columns, span the coordinate vectors of
    ``(legs[k](x))_k`` in the stacked (converted) codomain coordinates.
    """
    to_fgab = [_fgab_conversion(leg.cod)[1] if leg.cod.backend == "finite"
               else None for leg in legs]
    legs = [leg if to is None else compose(to, leg)
            for leg, to in zip(legs, to_fgab)]
    nrows = sum(leg.cod.ncoords for leg in legs)
    cols = [[c for leg in legs for c in leg.images[j].coords]
            for j in range(legs[0].dom.ncoords)]
    top = 0
    for leg in legs:
        for rel in leg.cod.relation_columns():
            cols.append([0] * top + rel + [0] * (nrows - top - len(rel)))
        top += leg.cod.ncoords
    return to_fgab, from_columns(cols, nrows=nrows)


def factor_through_epi(p, t):
    """The w with w . p = t, or None when t does not factor through p.

    p must be surjective.  If w . p = t, then w is a hom because t is one
    and p is onto, so the candidate is only compared with t: on every
    element of a finite domain of p, on the generators of an fgab one.
    Generators alone prove w . p = t only if w is a hom already, which
    the relation check on an fgab codomain of p ensures (p: Z -> Z/2 with
    t = id_Z agrees on the generator, yet no w exists).
    """
    return _factoring_through_epi(p)(t)


@lru_cache(maxsize=256)
def _factoring_through_epi(p):
    """``factor_through_epi`` along p as a function of t: the preimages of
    p's codomain are looked up once per p, for every t."""
    Q = p.cod
    if Q.backend == "finite" and p.dom.backend != "finite":
        raise BackendMismatch("factoring through an fgab -> finite epi")
    xs = _preimage_lookup([p])(
        [Q.elements() if Q.backend == "finite" else Q.generators()])

    def factor(t):
        if xs is None:
            return None
        w = GroupHom(Q, t.cod, tuple(map(t, xs)))
        if Q.backend == "fgab" and _relation_failure(w):
            return None
        if compose(w, p).images != t.images:
            return None
        return w
    return factor


def factor_through_legs(legs, targets):
    """The w with legs[k] . w = targets[k] for every k, or None.

    The legs share a domain and are jointly injective: a mono is a family
    of one, the projections of a pullback a family of two.  Exact
    preimages then make w a hom on both backends (the legs reflect sums
    and orders), so nothing is re-checked.
    """
    return _factoring_through_legs(tuple(legs))(targets)


@lru_cache(maxsize=256)
def _factoring_through_legs(legs):
    """``factor_through_legs`` along a tuple of legs as a function of the
    targets: the lookup of preimages is built once per leg family, for
    every target family."""
    find = _preimage_lookup(legs)

    def factor(targets):
        xs = find([t.images for t in targets])
        if xs is None:
            return None
        return GroupHom(targets[0].dom, legs[0].dom, tuple(xs))
    return factor


def factor_through_mono(i, t):
    """The w with i . w = t, or None when t does not land in the image of i.

    i must be injective.
    """
    return factor_through_legs([i], [t])


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

@interned
@dataclass(frozen=True, eq=False)
class Subgroup:
    group: GroupObject
    generators: tuple
    elements: frozenset = None  # materialized on the finite backend

    def contains(self, x):
        if x.group != self.group:
            raise ValueError("element of a different group")
        if self.elements is not None:
            return x in self.elements
        return self.coefficients(x) is not None

    def coefficients(self, x):
        """Integers c with x = sum c_i generators[i], or None when x is not
        in the subgroup (fgab)."""
        if not any(x.coords):
            return [0] * len(self.generators)
        snf = _subgroup_snf(self)
        sol = None if snf is None else snf.solve(list(x.coords))
        return None if sol is None else sol[:len(self.generators)]

    def is_trivial(self):
        if self.elements is not None:
            return len(self.elements) == 1
        return all(g.is_zero() for g in self.generators)

    def is_whole(self):
        if self.elements is not None:
            return len(self.elements) == self.group.order()
        # the lattice of generators and relations is all of Z^n exactly
        # when its Smith normal form has n diagonal entries, each 1
        n = self.group.ncoords
        snf = _subgroup_snf(self)
        if snf is None:
            return not n
        diag = snf.diagonal
        return len(diag) == n and all(d == 1 for d in diag)

    def is_normal(self):
        if self.elements is None:
            return True
        G = self.group
        return all(G.conjugate(g, x) in self.elements
                   for g in G.elements() for x in self.elements)

    def sorted_elements(self):
        return sorted(self.elements, key=lambda e: e.coords)


@lru_cache(maxsize=None)
def _subgroup_lattice(S):
    """Columns spanning { coords of members } in Z^ncoords (fgab)."""
    cols = [list(g.coords) for g in S.generators]
    cols += S.group.relation_columns()
    return tuple(tuple(c) for c in cols)


@lru_cache(maxsize=256)
def _subgroup_snf(S):
    """The Smith normal form of S's lattice columns (fgab), factored once
    for every membership and wholeness query on S; None when the lattice
    has no columns or the group no coordinates.  Solving against it gives
    the coefficients of a member over ``_subgroup_lattice(S)``."""
    cols, n = _subgroup_lattice(S), S.group.ncoords
    return factored(from_columns(cols, nrows=n)) if cols and n else None


def subgroup(group, generators):
    """Subgroup generated by the listed elements."""
    return _generated(group, tuple(g for g in generators if not g.is_zero()))


@lru_cache(maxsize=256)
def _generated(group, gens):
    """``subgroup`` once per generator tuple."""
    if group.backend == "finite":
        els = group.elements()
        return Subgroup(group, gens, frozenset(
            [els[i] for i in _words(group, gens)]))
    return Subgroup(group, gens)


def _words(G, gens):
    """Breadth-first words in ``gens`` over the finite group G: each element
    index that x -> x + g, g in gens, reaches from zero, mapped to the first
    word of generator positions reaching it.  The monoid a set generates in
    a finite group is the subgroup it generates (-x = (ord x - 1)x), so the
    keys are that subgroup."""
    table, steps = G.table, [g.coords[0] for g in gens]
    words = {G.identity_index: ()}
    queue = [G.identity_index]
    for x in queue:  # grows while it is read
        for k, g in enumerate(steps):
            y = table[x][g]
            if y not in words:
                words[y] = words[x] + (k,)
                queue.append(y)
    return words


def _generating_set(G, indices):
    """A small generating set of the subgroup of the finite group G whose
    element indices are listed, greedily grown: the lowest index not yet
    reached comes next.  Each new generator at least doubles the subgroup
    reached, so there are at most log2 of its order."""
    gens, reached = [], _words(G, ())
    for i in sorted(indices):
        if i not in reached:
            gens.append(G.elements()[i])
            reached = _words(G, gens)
    return gens


def subgroup_from_elements(group, elements):
    """Finite-backend subgroup from an explicit element set (must be closed)."""
    return _on_elements(group, frozenset(elements))


@lru_cache(maxsize=256)
def _on_elements(group, els):
    """``subgroup_from_elements`` once per element set."""
    return Subgroup(group, tuple(_generating_set(
        group, [x.coords[0] for x in els])), els)


def trivial_subgroup(group):
    return subgroup(group, ())


def subgroup_image(h, S):
    return subgroup(h.cod, [h(g) for g in S.generators])


def subgroup_preimage(h, S):
    """{ x : h(x) in S } as a subgroup of the domain."""
    if h.dom.backend == "finite":
        els = [x for x, y in zip(h.dom.elements(), h.images) if S.contains(y)]
        return subgroup_from_elements(h.dom, els)
    if h.cod.backend != "fgab":
        if not h.cod.is_abelian():
            raise BackendMismatch("preimage across a non-abelian codomain")
        _, to_b, _ = _fgab_conversion(h.cod)
        converted = subgroup(to_b.cod, [to_b(x) for x in S.generators])
        return subgroup_preimage(compose(to_b, h), converted)
    return _lattice_preimage(h, S)


@lru_cache(maxsize=256)
def _lattice_preimage(h, S):
    """``subgroup_preimage`` across an fgab -> fgab hom."""
    M = from_columns([list(i.coords) for i in h.images], nrows=h.cod.ncoords)
    target = [list(c) for c in _subgroup_lattice(S)]
    gens = lattice_preimage(M, target, h.dom.ncoords, h.cod.ncoords)
    return subgroup(h.dom, [h.dom.elem(g) for g in gens])


def subgroup_intersection(S1, S2):
    if S1.group != S2.group:
        raise ValueError("subgroups of different groups")
    if S1.elements is not None:
        return subgroup_from_elements(S1.group, S1.elements & S2.elements)
    return _lattice_intersection(S1, S2)


@lru_cache(maxsize=256)
def _lattice_intersection(S1, S2):
    """``subgroup_intersection`` of two fgab subgroups."""
    dim = S1.group.ncoords
    gens = lattice_intersection([list(c) for c in _subgroup_lattice(S1)],
                                [list(c) for c in _subgroup_lattice(S2)], dim)
    return subgroup(S1.group, [S1.group.elem(g) for g in gens])


def subgroup_sum(S1, S2):
    return subgroup(S1.group, list(S1.generators) + list(S2.generators))


def subgroup_equal(S1, S2):
    if S1.group != S2.group:
        return False
    if S1.elements is not None:
        return S1.elements == S2.elements
    return (all(S2.contains(g) for g in S1.generators)
            and all(S1.contains(g) for g in S2.generators))


def normal_closure(group, elements):
    """Smallest normal subgroup containing the elements: on the finite
    backend the subgroup their conjugates generate, which conjugation maps
    onto itself."""
    if group.backend == "fgab":
        return subgroup(group, elements)
    conjugates = {group.conjugate(g, x)
                  for g in group.elements() for x in elements}
    return subgroup(group, sorted(conjugates, key=lambda e: e.coords))


# ---------------------------------------------------------------------------
# kernels, quotients, subgroup presentation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def kernel_subgroup(h):
    """Kernel of h; homs and subgroups are frozen, so one cached result
    serves every caller."""
    return subgroup_preimage(h, trivial_subgroup(h.cod))


@lru_cache(maxsize=256)
def image_subgroup(h):
    if h.dom.backend == "finite":
        return subgroup(h.cod, sorted({h(x) for x in h.dom.elements()},
                                      key=lambda e: e.coords))
    return subgroup(h.cod, list(h.images))


@lru_cache(maxsize=256)
def subgroup_to_group(S):
    """Present a subgroup as a group in its own right, with the injection.

    >>> Z = make_fgab_group(1, [])
    >>> K, inj = subgroup_to_group(subgroup(Z, [Z.elem([2])]))
    >>> K.describe(), inj(K.generators()[0]).coords
    ('Z', (2,))
    """
    G = S.group
    if G.backend == "finite":
        els = S.sorted_elements()
        K, _ = _finite_group_on(els, G.add, G.describe_element)
        return K, GroupHom(K, G, tuple(els))
    dim = G.ncoords
    basis = lattice_basis([list(c) for c in _subgroup_lattice(S)], dim)
    if not basis:
        K = FgAbGroup(0, ())
        return K, GroupHom(K, G, ())
    B = from_columns(basis, nrows=dim)
    snf = factored(B)
    pres = fgab_presentation(len(basis),
                             [snf.solve(r) for r in G.relation_columns()])
    K = pres.group
    images = []
    for lift in pres.gen_lifts:
        images.append(G.elem(mat_vec(B, lift)))
    return K, GroupHom(K, G, tuple(images))


@lru_cache(maxsize=256)
def quotient(G, S):
    """Quotient group with the projection; S must be normal.

    >>> Z2xZ = quotient(make_fgab_group(2, []),
    ...     subgroup(make_fgab_group(2, []), [make_fgab_group(2, []).elem([2, 0])]))[0]
    >>> Z2xZ.rank, Z2xZ.torsion
    (1, (2,))
    """
    if G.backend == "finite":
        if not S.is_normal():
            bad = next((g, x) for g in G.elements()
                       for x in S.sorted_elements()
                       if G.conjugate(g, x) not in S.elements)
            raise NotNormal("subgroup is not normal", witness=bad)
        cosets = {}
        reps = []
        for x in sorted(G.elements(), key=lambda e: e.coords):
            if x in cosets:
                continue
            rep = len(reps)
            for s in S.elements:
                cosets[x + s] = rep
            reps.append(x)
        Q, _ = _finite_group_on(reps, lambda a, b: reps[cosets[a + b]],
                                lambda r: f"[{G.describe_element(r)}]")
        proj = GroupHom(G, Q, tuple(
            GroupElement(Q, (cosets[x],)) for x in G.elements()))
        return Q, proj
    pres = fgab_presentation(G.ncoords,
                             [list(c) for c in _subgroup_lattice(S)])
    Q = pres.group
    images = [pres.project(list(g.coords)) for g in G.generators()]
    return Q, GroupHom(G, Q, tuple(images))


def group_kernel(h):
    """Kernel as a group plus its injection into the domain."""
    return subgroup_to_group(kernel_subgroup(h))


# ---------------------------------------------------------------------------
# products and pullbacks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductResult:
    group: GroupObject
    inj1: GroupHom
    inj2: GroupHom
    proj1: GroupHom
    proj2: GroupHom


@lru_cache(maxsize=256)
def direct_product(A, B):
    if A.backend != B.backend:
        raise BackendMismatch("mixed-backend product; convert first")
    if A.backend == "finite":
        P, index, proj1, proj2 = _pair_group(
            A, B, [(a, b) for a in A.elements() for b in B.elements()])
        inj1 = GroupHom(A, P, tuple(GroupElement(P, (index[(a, B.zero)],))
                                    for a in A.elements()))
        inj2 = GroupHom(B, P, tuple(GroupElement(P, (index[(A.zero, b)],))
                                    for b in B.elements()))
        return ProductResult(P, inj1, inj2, proj1, proj2)
    n = A.ncoords + B.ncoords
    rels = [c + [0] * B.ncoords for c in A.relation_columns()]
    rels += [[0] * A.ncoords + c for c in B.relation_columns()]
    pres = fgab_presentation(n, rels)
    P = pres.group
    inj1 = GroupHom(A, P, tuple(
        pres.project(list(g.coords) + [0] * B.ncoords) for g in A.generators()))
    inj2 = GroupHom(B, P, tuple(
        pres.project([0] * A.ncoords + list(g.coords)) for g in B.generators()))
    proj1 = GroupHom(P, A, tuple(
        A.elem(lift[: A.ncoords]) for lift in pres.gen_lifts))
    proj2 = GroupHom(P, B, tuple(
        B.elem(lift[A.ncoords:]) for lift in pres.gen_lifts))
    return ProductResult(P, inj1, inj2, proj1, proj2)


def group_pullback(f, g):
    """P = {(a, c) : f(a) = g(c)} with its two projections.

    A finite abelian participant in a mixed-backend pullback is converted
    to fgab normal form behind the scenes; the projections still target
    the original groups.  Mixing a finite non-abelian group with an fgab
    one is unsupported.
    """
    if f.cod != g.cod:
        raise ValueError("pullback needs a common codomain")
    A, C = f.dom, g.dom
    if A.backend == "finite" and C.backend == "finite" \
            and f.cod.backend == "finite":
        P, _, proj1, proj2 = _pair_group(
            A, C, [(a, c) for a in A.elements() for c in C.elements()
                   if f(a) == g(c)])
        return P, proj1, proj2
    if A.backend != "fgab" or C.backend != "fgab" or f.cod.backend != "fgab":
        # the conversion cache hands both homs the same codomain copy
        f, back_f = _fgabized_hom(f)
        g, back_g = _fgabized_hom(g)
        A, C = f.dom, g.dom
    else:
        back_f = back_g = None
    prod = direct_product(A, C)
    delta = hom_sub(compose(f, prod.proj1), compose(g, prod.proj2))
    K, inj = group_kernel(delta)
    proj1 = compose(prod.proj1, inj)
    proj2 = compose(prod.proj2, inj)
    if back_f is not None:
        proj1 = compose(back_f, proj1)
    if back_g is not None:
        proj2 = compose(back_g, proj2)
    return K, proj1, proj2


@lru_cache(maxsize=None)
def _fgab_conversion(G):
    return fgab_from_finite_abelian(G)


def _fgabized_hom(h):
    """(equivalent fgab -> fgab hom, iso back onto the original domain).

    The iso is None when the domain was already fgab.
    """
    if h.cod.backend == "finite":
        if not h.cod.is_abelian():
            raise BackendMismatch("cannot mix a finite non-abelian group "
                                  "with an fgab one")
        _, to_b, _ = _fgab_conversion(h.cod)
        h = compose(to_b, h)
    if h.dom.backend == "finite":
        if not h.dom.is_abelian():
            raise BackendMismatch("cannot mix a finite non-abelian group "
                                  "with an fgab one")
        _, _, from_a = _fgab_conversion(h.dom)
        return compose(h, from_a), from_a
    return h, None


# ---------------------------------------------------------------------------
# finite abelian -> fgab conversion
# ---------------------------------------------------------------------------

def fgab_from_finite_abelian(G):
    """Invariant-factor form of a finite abelian group with both isos.

    >>> Z4 = make_finite_group([str(i) for i in range(4)],
    ...     [[(i + j) % 4 for j in range(4)] for i in range(4)])
    >>> H, to_h, from_h = fgab_from_finite_abelian(Z4)
    >>> H.torsion
    (4,)
    """
    if not G.is_abelian():
        raise BackendMismatch("only abelian groups convert to fgab form")
    n = G.order()
    rels = []
    for i in range(n):
        for j in range(i, n):
            k = G.table[i][j]
            col = [0] * n
            col[i] += 1
            col[j] += 1
            col[k] -= 1
            rels.append(col)
    pres = fgab_presentation(n, rels)
    H = pres.group
    to_h = GroupHom(G, H, tuple(
        pres.project([1 if t == i else 0 for t in range(n)])
        for i in range(n)))
    from_images = []
    for lift in pres.gen_lifts:
        acc = G.zero
        for i, mult in enumerate(lift):
            if mult:
                acc = acc + G.scale(G.elem(i), mult)
        from_images.append(acc)
    from_h = GroupHom(H, G, tuple(from_images))
    return H, to_h, from_h


def cyclic_group(n, name_prefix=""):
    """Z/n as a finite group with elements named 0..n-1."""
    names = [f"{name_prefix}{i}" for i in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return make_finite_group(names, table)


# ---------------------------------------------------------------------------
# hom enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def enumerate_group_homs(G, H):
    """All homomorphisms between two finite groups, deterministically ordered.

    Generator images range over H; each candidate extends along generator
    words and is kept iff the hom law holds along the Cayley graph.  Groups
    are interned, so one tuple serves every pair of cones on G and H.
    """
    gens = G.generators()
    words = _words(G, gens)
    out = []
    for combo in itertools.product(H.elements(), repeat=len(gens)):
        images = []
        for x in range(G.order()):
            acc = H.zero
            for k in words[x]:
                acc = acc + combo[k]
            images.append(acc)
        if _cayley_failure(G, images, gens) is None:
            out.append(GroupHom(G, H, tuple(images)))
    return tuple(out)


def _bounded_elements(H, bound):
    ranges = [range(-bound, bound + 1)] * H.rank + [range(d) for d in H.torsion]
    return [H.elem(c) for c in itertools.product(*ranges)]


HOM_ENUMERATION_CAP = 100_000


def enumerate_homs_bounded(G, H, bound):
    """All fgab -> fgab homs whose free-part coordinates lie in [-bound, bound].

    Torsion generators only range over images of compatible order, so the
    list is exactly the set of homs representable within the bound.  The
    homs are counted before any is built: past ``HOM_ENUMERATION_CAP`` of
    them the call raises ``EnumerationUnbounded``.

    >>> Z2 = make_fgab_group(2, [])
    >>> len(enumerate_homs_bounded(Z2, Z2, 1))
    81
    """
    # a free generator goes anywhere in the box; one of order d goes to
    # the d-torsion, prod gcd(d, t) elements, with a zero free part
    per_free = (2 * bound + 1) ** H.rank * math.prod(H.torsion)
    count = per_free ** G.rank * math.prod(
        math.prod(math.gcd(d, t) for t in H.torsion) for d in G.torsion)
    if count > HOM_ENUMERATION_CAP:
        raise EnumerationUnbounded(
            f"{count} homs {G!r} -> {H!r} within bound {bound} exceed the "
            f"enumeration cap of {HOM_ENUMERATION_CAP}",
            bound=bound)
    free_candidates = _bounded_elements(H, bound)
    per_gen = [free_candidates] * G.rank + [
        [h for h in free_candidates if H.scale(h, d).is_zero()]
        for d in G.torsion]
    return [GroupHom(G, H, combo) for combo in itertools.product(*per_gen)]
