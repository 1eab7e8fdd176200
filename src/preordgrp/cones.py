"""Positive cones: submonoids closed under conjugation, with decidable
membership.

A cone is either explicit (finite carrier), generated (fgab carrier), or
a recipe node remembering how it was built from other cones (product,
pullback, preimage, direct image, restriction to a subgroup).  Recipe cones
keep their construction tree: membership is decided on it, compiled into
one non-negative integer feasibility problem where needed, and unit groups
are computed compositionally.  Generators are extracted on demand; a
pullback or preimage of finitely generated cones is finitely generated,
by a Hilbert basis lifted along its legs.

The ``CoverCone`` leaf is the positive cone of the canonical partially
ordered cover Z x G; it is provably reduced and not finitely generated, so
it only supports predicate evaluation and window scans.  A predicate that
falls back to a scan reads the fixed width ``WINDOW``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    ImageNotComputable,
    UnitExtractionUnsupported,
)
from .groups import (
    GroupHom,
    _preimage_lookup,
    _stacked_legs,
    kernel_subgroup,
    subgroup,
    subgroup_from_elements,
    subgroup_image,
    subgroup_intersection,
    subgroup_preimage,
    trivial_subgroup,
)
from .intlinalg import NonnegSolver, from_columns, hilbert_basis, mat_vec

WINDOW = 8


@dataclass(frozen=True)
class MembershipVerdict:
    """Definitive membership answer with its evidence.

    An ``In`` verdict on a generated cone carries the non-negative
    combination realizing the element.  An ``Out`` verdict carries nothing:
    the solver behind it is complete, so its failure is the proof.
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

    def sorted_members(self):
        return sorted(self.members, key=lambda e: e.coords)


@dataclass(frozen=True)
class GeneratorCone(Cone):
    group: object
    cone_generators: tuple


@dataclass(frozen=True)
class ProductCone(Cone):
    """Componentwise cone on a product or pullback carrier.

    Membership is the conjunction of the two projected memberships; when
    the carrier is a plain product the injections are kept, and carry the
    parts' generators over directly.
    """

    group: object
    parts: tuple
    projections: tuple
    injections: tuple = None  # present for products, absent for pullbacks


@dataclass(frozen=True)
class PreimageCone(Cone):
    group: object
    hom: GroupHom
    inner: Cone


@dataclass(frozen=True)
class ImageCone(Cone):
    """Direct image q(P) along a surjective carrier map.

    Only constructed when the inner cone is not finitely generated; the
    extractable case collapses to a :class:`GeneratorCone` on the nose.
    """

    group: object
    hom: GroupHom
    inner: Cone


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


def trivial_cone(group):
    if group.backend == "finite":
        return explicit_cone(group, [group.zero])
    return GeneratorCone(group, ())


def total_cone(group):
    if group.backend == "finite":
        return explicit_cone(group, group.elements())
    gens = []
    for g in group.generators():
        gens.extend([g, -g])
    return generator_cone(group, gens)


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
    if isinstance(cone, PreimageCone):
        return cone_contains(cone.inner, cone.hom(x))
    if isinstance(cone, ProductCone):
        for part, proj in zip(cone.parts, cone.projections):
            v = cone_contains(part, proj(x))
            if not v:
                return v
        return MembershipVerdict("In")
    if isinstance(cone, ImageCone):
        # existential lift: some preimage of x lies in the inner cone
        compiler = _Compiler()
        compiler.walk(cone, _AffineExpr.constant(x.coords))
        w = compiler.solve()
        if w is None:
            return MembershipVerdict("Out")
        return MembershipVerdict("In", witness=tuple(w))
    raise TypeError(f"unknown cone kind {type(cone)!r}")


class _AffineExpr:
    """Carrier-coordinate vector of the form const + sum v_j * col_j."""

    def __init__(self, const, cols):
        self.const = list(const)
        self.cols = dict(cols)  # var index -> column

    @staticmethod
    def constant(vec):
        return _AffineExpr(vec, {})

    @staticmethod
    def variables(dim, var_idx):
        cols = {}
        for k, j in enumerate(var_idx):
            col = [0] * dim
            col[k] = 1
            cols[j] = col
        return _AffineExpr([0] * dim, cols)

    def apply(self, matrix_cols, out_dim):
        """Image under the hom with the given matrix columns."""
        if out_dim == 0:
            return _AffineExpr([], {j: [] for j in self.cols})
        M = from_columns(matrix_cols, nrows=out_dim) if matrix_cols \
            else [[] for _ in range(out_dim)]
        const = mat_vec(M, self.const) if self.const else [0] * out_dim
        cols = {j: mat_vec(M, c) for j, c in self.cols.items()}
        return _AffineExpr(const, cols)


class _Compiler:
    """Joins the atoms of a recipe tree into one feasibility system.

    Cover cones are disjunctive (strictly positive first coordinate with a
    positive base part, or the zero element), so each occurrence doubles
    the number of systems tried; covers appear at most a couple of times
    per query.
    """

    def __init__(self):
        self.nfree = 0
        self.gen_atoms = []   # (generator columns, relation columns, expr)
        self.lin_atoms = []   # (expr, relation columns): expr == 0 mod lattice
        self.cover_atoms = []  # (expr over the cover carrier, CoverCone)

    def new_vars(self, k):
        out = list(range(self.nfree, self.nfree + k))
        self.nfree += k
        return out

    def add_linear(self, expr, relations):
        self.lin_atoms.append((expr, relations))

    def walk(self, cone, expr):
        if isinstance(cone, GeneratorCone):
            gens = [list(g.coords) for g in cone.cone_generators]
            self.gen_atoms.append((gens, cone.group.relation_columns(), expr))
            return
        if isinstance(cone, PreimageCone):
            self.walk(cone.inner,
                      expr.apply(cone.hom.matrix_columns(),
                                 cone.hom.cod.ncoords))
            return
        if isinstance(cone, ProductCone):
            for part, proj in zip(cone.parts, cone.projections):
                self.walk(part, expr.apply(proj.matrix_columns(),
                                           proj.cod.ncoords))
            return
        if isinstance(cone, ImageCone):
            u = self.new_vars(cone.hom.dom.ncoords)
            expr_u = _AffineExpr.variables(cone.hom.dom.ncoords, u)
            lhs = expr_u.apply(cone.hom.matrix_columns(), cone.hom.cod.ncoords)
            self.add_linear(
                _AffineExpr([a - b for a, b in zip(lhs.const, expr.const)],
                            _merge_cols(lhs.cols, expr.cols, cone.hom.cod.ncoords)),
                cone.hom.cod.relation_columns())
            self.walk(cone.inner, expr_u)
            return
        if isinstance(cone, CoverCone):
            self.cover_atoms.append((expr, cone))
            return
        raise ImageNotComputable(
            f"membership under an image of {type(cone).__name__} is not supported")

    def solve(self):
        branches = list(itertools.product((1, 0), repeat=len(self.cover_atoms)))
        for choice in branches:
            gen_atoms = list(self.gen_atoms)
            lin_atoms = list(self.lin_atoms)
            for (expr, cover), positive_branch in zip(self.cover_atoms, choice):
                scalar = _AffineExpr([expr.const[0] - 1],
                                     {j: [c[0]] for j, c in expr.cols.items()})
                base_dim = len(expr.const) - 1
                base = _AffineExpr(expr.const[1:],
                                   {j: c[1:] for j, c in expr.cols.items()})
                if positive_branch:
                    # first coordinate = 1 + s with s >= 0; base part positive
                    gen_atoms.append(([[1]], [], scalar))
                    sub = _Compiler()
                    sub.nfree = self.nfree
                    sub.walk(cover.base_cone, base)
                    if sub.cover_atoms:
                        raise ImageNotComputable("nested cover cones")
                    self.nfree = sub.nfree
                    gen_atoms.extend(sub.gen_atoms)
                    lin_atoms.extend(sub.lin_atoms)
                else:
                    lin_atoms.append((expr, cover.group.relation_columns()))
            w = self._assemble_and_solve(gen_atoms, lin_atoms)
            if w is not None:
                return w
        return None

    def _assemble_and_solve(self, gen_atoms, lin_atoms):
        rows = 0
        blocks = []
        for gens, rels, expr in gen_atoms:
            dim = len(expr.const)
            blocks.append(("gen", gens, rels, expr, rows, dim))
            rows += dim
        for expr, rels in lin_atoms:
            dim = len(expr.const)
            blocks.append(("lin", None, rels, expr, rows, dim))
            rows += dim
        nneg = sum(len(b[1]) for b in blocks if b[0] == "gen")
        free_cols = []
        for j in range(self.nfree):
            col = [0] * rows
            for kind, gens, rels, expr, off, dim in blocks:
                c = expr.cols.get(j)
                if c:
                    for i in range(dim):
                        col[off + i] -= c[i]
            free_cols.append(col)
        for kind, gens, rels, expr, off, dim in blocks:
            for rc in rels:
                col = [0] * rows
                for i in range(dim):
                    col[off + i] = rc[i]
                free_cols.append(col)
        A = [[0] * nneg for _ in range(rows)]
        c = [0] * rows
        pos = 0
        for kind, gens, rels, expr, off, dim in blocks:
            for i in range(dim):
                c[off + i] = expr.const[i]
            if kind == "gen":
                for g in gens:
                    for i in range(dim):
                        A[off + i][pos] = g[i]
                    pos += 1
        B = [[col[i] for col in free_cols] for i in range(rows)] \
            if free_cols else [[] for _ in range(rows)]
        return NonnegSolver(A, B).solve(c)


def _merge_cols(cols_a, cols_b, dim):
    """Columns of (a - b), indexed by variable."""
    out = {}
    for j, c in cols_a.items():
        out[j] = list(c)
    for j, c in cols_b.items():
        if j in out:
            out[j] = [x - y for x, y in zip(out[j], c)]
        else:
            out[j] = [-y for y in c]
    return out


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
        for a in cone.sorted_members():
            for b in cone.sorted_members():
                if a + b not in cone.members:
                    failures.append(("closure", (a, b)))
        if not G.is_abelian():
            for g in G.elements():
                for x in cone.sorted_members():
                    if G.conjugate(g, x) not in cone.members:
                        failures.append(("conjugation", (g, x)))
        return ConeAxiomReport(not failures, tuple(failures))
    return ConeAxiomReport(True)


# ---------------------------------------------------------------------------
# unit groups, reducedness, generated subgroup
# ---------------------------------------------------------------------------

def units(cone):
    """Subgroup of elements x with both x and -x in the cone.

    Every member of an explicit cone (a normal subgroup), from unit
    generators on generated cones (a generator is a unit exactly when it
    takes part in a vanishing non-negative combination, read off the
    solver's Hilbert basis of those), and compositionally on recipe cones.
    """
    if isinstance(cone, ExplicitCone):
        return subgroup_from_elements(cone.group, cone.members)
    if isinstance(cone, GeneratorCone):
        unit_cols = _generator_solver(cone).unit_columns
        if unit_cols is None:
            unit_gens = [g for g in cone.cone_generators if cone.contains(-g)]
        else:
            unit_gens = [cone.cone_generators[j] for j in unit_cols]
        return subgroup(cone.group, unit_gens)
    if isinstance(cone, CoverCone):
        return trivial_subgroup(cone.group)
    if isinstance(cone, PreimageCone):
        return subgroup_preimage(cone.hom, units(cone.inner))
    if isinstance(cone, ProductCone):
        out = None
        for part, proj in zip(cone.parts, cone.projections):
            s = subgroup_preimage(proj, units(part))
            out = s if out is None else subgroup_intersection(out, s)
        return out
    if isinstance(cone, ImageCone):
        inner_units = units(cone.inner)
        ker = kernel_subgroup(cone.hom)
        if all(inner_units.contains(k) for k in ker.generators):
            return subgroup_image(cone.hom, inner_units)
        raise UnitExtractionUnsupported(
            "image cone whose map does not collapse into the inner units")
    raise TypeError(f"unknown cone kind {type(cone)!r}")


def is_reduced(cone):
    return units(cone).is_trivial()


def extract_generators(cone):
    """Monoid generators of the cone, or None: the cover cone is not
    finitely generated, nor are cones built over it, and a Hilbert basis
    past its cap is given up."""
    if isinstance(cone, ExplicitCone):
        return tuple(cone.sorted_members())
    if isinstance(cone, GeneratorCone):
        return cone.cone_generators
    if isinstance(cone, ImageCone):
        inner = extract_generators(cone.inner)
        if inner is not None:
            return tuple(cone.hom(g) for g in inner)
        return None
    if isinstance(cone, ProductCone) and cone.injections is not None:
        parts = [extract_generators(p) for p in cone.parts]
        if any(p is None for p in parts):
            return None
        out = []
        for part_gens, inj in zip(parts, cone.injections):
            out.extend(inj(g) for g in part_gens)
        return tuple(out)
    if isinstance(cone, (ProductCone, PreimageCone)):
        return _lifted_generators(cone)
    return None


@lru_cache(maxsize=None)
def _lifted_generators(cone):
    """Generators of a pullback or preimage cone, or None.

    The cone is { x : legs[k](x) in parts[k] for every k }.  With S_k the
    generators of parts[k], the multiplicities n >= 0 for which (S_k n_k)_k
    is some (legs[k](x))_k form the non-negative part of a lattice, whose
    Hilbert basis is finite; its elements lift along the legs to
    generators, joined by +- a basis of the kernel of the legs (trivial for
    the jointly injective projections of a pullback).  A finite abelian
    part takes part in its fgab form.  None when a part has no generators
    or the Hilbert basis passes its cap.
    """
    if isinstance(cone, PreimageCone):
        legs, parts = (cone.hom,), (cone.inner,)
        kernel = kernel_subgroup(cone.hom).generators
    else:
        legs, parts = cone.projections, cone.parts
        kernel = ()
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
    """Subgroup generated by the cone together with its negatives; the
    members of an explicit cone are that subgroup already."""
    if isinstance(cone, ExplicitCone):
        return subgroup_from_elements(cone.group, cone.members)
    gens = extract_generators(cone)
    if gens is None:
        raise UnitExtractionUnsupported(
            "generated subgroup of a non-finitely-generated cone")
    return subgroup(cone.group, gens)


def cone_is_subgroup(cone):
    """Whether the cone equals its own unit group (protomodularity).

    Returns (answer, exact).  Exact on every finitely generated cone (each
    generator must be a unit) and on the cover cone; a cone built over a
    cover cone falls back to a coordinate window, where a member that is
    not a unit refutes definitively and a clean scan passes with
    ``exact=False``.
    """
    gens = extract_generators(cone)
    if gens is not None:
        return all(cone.contains(-g) for g in gens), True
    if isinstance(cone, CoverCone):
        return False, True  # contains (1, 0) but never its inverse
    N = units(cone)
    for x in cone_window(cone, WINDOW):
        if not N.contains(x):
            return False, True
    return True, False


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def _materialize(cone):
    """Explicit form of a recipe cone on a finite carrier."""
    members = [x for x in cone.group.elements() if cone_contains(cone, x)]
    return explicit_cone(cone.group, members)


def transport_product(c1, c2, carrier, proj1, proj2, inj1=None, inj2=None):
    cone = ProductCone(carrier, (c1, c2), (proj1, proj2),
                       (inj1, inj2) if inj1 is not None else None)
    if carrier.backend == "finite":
        return _materialize(cone)
    return cone


def transport_preimage(hom, inner):
    cone = PreimageCone(hom.dom, hom, inner)
    if hom.dom.backend == "finite":
        return _materialize(cone)
    return cone


def transport_image(hom, inner):
    """Direct image cone along a surjective carrier map."""
    from .groups import is_surjective
    gens = extract_generators(inner)
    if gens is not None:
        if hom.cod.backend == "finite":
            if inner.group.backend == "finite":
                members = sorted({hom(x) for x in inner.members},
                                 key=lambda e: e.coords)
                return explicit_cone(hom.cod, members)
            cone = ImageCone(hom.cod, hom, inner)
            return _materialize(cone)
        return generator_cone(hom.cod, [hom(g) for g in gens])
    if not is_surjective(hom):
        raise ImageNotComputable(
            "image of a non-finitely-generated cone along a non-surjection")
    cone = ImageCone(hom.cod, hom, inner)
    if hom.cod.backend == "finite":
        return _materialize(cone)
    return cone


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def group_window(group, width):
    """All elements with free coordinates in [-width, width]."""
    if group.backend == "finite":
        return group.elements()
    ranges = [range(-width, width + 1)] * group.rank
    ranges += [range(d) for d in group.torsion]
    return [group.elem(c) for c in itertools.product(*ranges)]


def cone_window(cone, width):
    """Cone members in the coordinate window; exhaustive iff carrier finite."""
    if isinstance(cone, ExplicitCone):
        return cone.sorted_members()
    return [x for x in group_window(cone.group, width)
            if cone_contains(cone, x)]
