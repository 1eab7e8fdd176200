"""Factorization systems induced by the torsion-free reflector.

The reflective factorization system (E, M): a morphism is in E when the
reflector inverts it, in M (the trivial coverings) when its restriction to
unit groups is an isomorphism.  Stabilizing yields the monotone-light
system (E', M*): normal epimorphisms with totally ordered kernel, and
morphisms with partially ordered kernel (the coverings).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import (
    cone_outside,
    generated_subgroup,
    transport_image,
    transport_product,
    units,
)
from .errors import EnumerationUnbounded, NotACommutingSquare, RowsNotSchreier
from .groups import (
    compose,
    factor_through_epi,
    factor_through_legs,
    group_pullback,
    image_subgroup,
    is_injective,
    is_surjective,
    kernel_subgroup,
    quotient,
    subgroup_equal,
    subgroup_image,
    subgroup_intersection,
    subgroup_preimage,
    subgroup_sum,
    subgroup_to_group,
)
from .pog import (
    POGMorphism,
    PreorderedGroup,
    compose_pog,
    cone_preservation,
    induced_morphism,
    is_normal_epi,
    pog_is_iso,
    pog_pullback,
    structural_morphism,
)
from .schreier import is_special_schreier
from .torsion import reflect_F, torsion_sequence

CLASS_NAMES = ("E", "M", "Eprime", "Mstar")


@dataclass(frozen=True)
class ClassReport:
    cls: str
    holds: bool
    exact: bool = True
    detail: str = ""

    def __bool__(self):
        return self.holds


def in_class(m, cls):
    """Membership in E, M, Eprime or Mstar.

    E: the reflector inverts the morphism.  M: the unit-group restriction
    is an isomorphism.  Eprime: normal epimorphism with totally ordered
    kernel.  Mstar: the kernel is partially ordered.
    """
    if cls == "E":
        iso = pog_is_iso(reflect_F(m))
        return ClassReport("E", iso, detail="reflected morphism iso" if iso
                           else "reflected morphism is not an isomorphism")
    if cls == "M":
        on_units = compose(m.hom, subgroup_to_group(units(m.dom.cone))[1])
        iso = (is_injective(on_units) and subgroup_equal(
            image_subgroup(on_units), units(m.cod.cone)))
        return ClassReport("M", iso, detail="unit restriction iso" if iso
                           else "unit restriction is not an isomorphism")
    ker = kernel_subgroup(m.hom)
    N = units(m.dom.cone)
    if cls == "Eprime":
        if not is_normal_epi(m):
            return ClassReport("Eprime", False,
                               detail="not a normal epimorphism")
        total = all(N.contains(k) for k in ker.generators)
        return ClassReport("Eprime", total,
                           detail="kernel totally ordered" if total
                           else "kernel has a non-unit positive element")
    if cls == "Mstar":
        reduced = subgroup_intersection(ker, N).is_trivial()
        return ClassReport("Mstar", reduced,
                           detail="kernel partially ordered" if reduced
                           else "kernel has nontrivial units")
    raise ValueError(f"unknown class {cls!r}")


def e_conditions(m):
    """The three elementary conditions equivalent to membership in E, as
    booleans (a, b, c), an independent check of ``in_class(m, "E")``:

    (a) the unit group of the domain is the full preimage of the codomain's;
    (b) the group map is surjective up to codomain units;
    (c) every positive element of the codomain is, up to codomain units,
        the image of a positive element: one cone inclusion in the
        codomain's torsion-free quotient.
    """
    N_cod = units(m.cod.cone)
    q = torsion_sequence(m.cod).unit.hom
    qm = compose(q, m.hom)
    a = subgroup_equal(subgroup_preimage(m.hom, N_cod), units(m.dom.cone))
    b = subgroup_sum(image_subgroup(m.hom), N_cod).is_whole()
    c = cone_outside(q, m.cod.cone, transport_image(qm, m.dom.cone)) is None
    return a, b, c


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorizationResult:
    e: POGMorphism
    m: POGMorphism
    mid: PreorderedGroup
    system: str                # "EM" | "MonotoneLight"
    e_class: ClassReport
    m_class: ClassReport

    def recomposes(self, f):
        return compose(self.m.hom, self.e.hom).images == f.hom.images


def em_factor(f):
    """Reflective (E, M) factorization through B x_{F(B)} F(A).

    >>> from .corpus import fgab_corpus_objects
    >>> from .pog import identity_morphism
    >>> f = identity_morphism(fgab_corpus_objects()["Z_nat"])
    >>> em_factor(f).recomposes(f)
    True
    """
    dec_A = torsion_sequence(f.dom)
    dec_B = torsion_sequence(f.cod)
    Ff = reflect_F(f)
    lim = pog_pullback(dec_B.unit, Ff)
    mid = lim.obj
    e_hom = factor_through_legs([leg.hom for leg in lim.legs],
                                [f.hom, dec_A.unit.hom])
    e = induced_morphism(e_hom, f.dom, mid,
                         "mediating map of certified cone maps")
    m = lim.legs[0]
    return FactorizationResult(e, m, mid, "EM",
                               in_class(e, "E"), in_class(m, "M"))


def ml_factor(f):
    """Monotone-light factorization: quotient by the units of the kernel,
    then a covering."""
    ker = kernel_subgroup(f.hom)
    NK = subgroup_intersection(ker, units(f.dom.cone))
    Q, proj = quotient(f.dom.group, NK)
    qcone = transport_image(proj, f.dom.cone)
    mid = PreorderedGroup(Q, qcone)
    e = induced_morphism(proj, f.dom, mid, "quotient projection")
    mstar = induced_morphism(factor_through_epi(proj, f.hom), mid, f.cod,
                             "induced on the quotient by kernel units")
    result = FactorizationResult(e, mstar, mid, "MonotoneLight",
                                 in_class(e, "Eprime"),
                                 in_class(mstar, "Mstar"))
    if not result.recomposes(f):
        raise AssertionError("monotone-light factors do not recompose")
    return result


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthogonalityReport:
    holds: bool
    diagonal: POGMorphism = None
    unique: bool = True
    detail: str = ""

    def __bool__(self):
        return self.holds


def check_orthogonality(e, m, a, b):
    """Unique diagonal for a commuting square m . a = b . e.

    With e an epimorphism the diagonal is forced on the image, so existence
    reduces to well-definedness plus cone preservation; the finite non-epi
    case falls back to enumeration.
    """
    lhs = compose_pog(m, a)
    rhs = compose_pog(b, e)
    if lhs.hom.images != rhs.hom.images:
        raise NotACommutingSquare("m.a differs from b.e")
    B, C = e.cod, m.dom
    if is_surjective(e.hom):
        phi_hom = factor_through_epi(e.hom, a.hom)
        if phi_hom is None:
            return OrthogonalityReport(
                False, detail="kernel of e is not killed by a")
        ok, bad, cert = cone_preservation(phi_hom, B.cone, C.cone)
        if not ok:
            return OrthogonalityReport(
                False, detail=f"forced diagonal not order preserving at {bad}")
        phi = POGMorphism(B, C, phi_hom, cert)
        return OrthogonalityReport(True, phi, unique=True)
    if B.group.backend == "finite" and C.group.backend == "finite":
        from .oracle import enumerate_pog_morphisms
        found = [phi for phi in enumerate_pog_morphisms(B, C)
                 if compose(phi.hom, e.hom).images == a.hom.images
                 and compose(m.hom, phi.hom).images == b.hom.images]
        if len(found) == 1:
            return OrthogonalityReport(True, found[0], unique=True)
        return OrthogonalityReport(False, unique=len(found) <= 1,
                                   detail=f"{len(found)} diagonals found")
    raise EnumerationUnbounded(
        "orthogonality against a non-epimorphism on infinite carriers")


# ---------------------------------------------------------------------------
# stable units and the short-five square
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StableUnitsReport:
    holds: bool
    detail: str = ""

    def __bool__(self):
        return self.holds


def check_stable_units_instance(B, g):
    """The reflector preserves the pullback of g along the unit of B.

    Forms P = B x_{F(B)} C, reflects the square and tests that the induced
    comparison into F(B) x_{F(B)} F(C) is an isomorphism.
    """
    dec_B = torsion_sequence(B)
    if g.cod != dec_B.free_part:
        raise ValueError("g must land in the torsion-free part of B")
    lim = pog_pullback(dec_B.unit, g)
    Feta = reflect_F(dec_B.unit)
    Fg = reflect_F(g)
    FP = torsion_sequence(lim.obj).free_part
    Fp1 = reflect_F(lim.legs[0])
    Fp2 = reflect_F(lim.legs[1])
    ref_lim = pog_pullback(Feta, Fg)
    u_hom = factor_through_legs([leg.hom for leg in ref_lim.legs],
                                [Fp1.hom, Fp2.hom])
    u = structural_morphism(u_hom, FP, ref_lim.obj, "comparison into the "
                            "reflected pullback")
    iso = pog_is_iso(u)
    return StableUnitsReport(iso, "comparison map iso" if iso else
                             "reflected square is not a pullback")


@dataclass(frozen=True)
class LemmaMReport:
    holds: bool
    detail: str = ""

    def __bool__(self):
        return self.holds


def lemma_M_instance(row1, row2, a_hom, b_hom, c_hom):
    """Pullback conclusion of the short-five square for special Schreier rows.

    ``row1 = (cone1, f1)`` and ``row2 = (cone2, f2)`` present the cone-level
    extensions Ker -> cone -> image, and the square f2 . b = c . f1 must
    commute.  On a special Schreier row the kernel monoid C ∩ ker f is
    (C - C) ∩ ker f, the group units(C) ∩ ker f, so ``a_hom`` restricts to
    an isomorphism of the kernel monoids iff it maps the first group onto
    the second with trivial kernel.  The right-hand square is a pullback
    iff the comparison x |-> (b(x), f1(x)) maps cone1 bijectively onto the
    pullback cone, decided by two cone inclusions: the comparison sends
    cone1 into the pullback cone, its kernel meets <cone1> trivially
    (x - y lies in <cone1> for x, y in cone1), and the pullback cone lies
    in the image of cone1.
    """
    cone1, f1 = row1
    cone2, f2 = row2
    if not is_special_schreier(cone1, f1) or not is_special_schreier(cone2, f2):
        raise RowsNotSchreier("a row is not a special Schreier extension")
    K1, K2 = (subgroup_intersection(units(cone), kernel_subgroup(f))
              for cone, f in (row1, row2))
    if not (subgroup_equal(subgroup_image(a_hom, K1), K2)
            and subgroup_intersection(kernel_subgroup(a_hom), K1).is_trivial()):
        raise ValueError("a is not an isomorphism of the kernel monoids")
    if compose(f2, b_hom).images != compose(c_hom, f1).images:
        raise NotACommutingSquare("f2.b differs from c.f1")
    P, p1, p2 = group_pullback(f2, c_hom)
    comparison = factor_through_legs([p1, p2], [b_hom, f1])
    pullback_cone = transport_product(cone2, transport_image(f1, cone1),
                                      P, p1, p2)
    x = cone_outside(comparison, cone1, pullback_cone)
    if x is not None:
        return LemmaMReport(False, f"b is not order preserving at {x}")
    meet = subgroup_intersection(kernel_subgroup(comparison),
                                 generated_subgroup(cone1))
    if not meet.is_trivial():
        return LemmaMReport(False, "comparison is not injective")
    y = cone_outside(None, pullback_cone, transport_image(comparison, cone1))
    if y is not None:
        return LemmaMReport(False, f"pair ({p1(y)}, {p2(y)}) has no preimage")
    return LemmaMReport(True)
