"""Effective descent data: the canonical partially ordered cover of any
preordered group, kernel pairs as internal equivalence relations, discrete
fibrations, and coverings.

Every (G, P) is covered by H = Z x G with positive cone

    { (n, g) : n >= 1 and g in P }  together with  (0, 0),

which is provably not finitely generated (no element (1, p) decomposes),
but is the union of the linear sets {0} and (1, 0) + N x P, on which
cover-side predicates are decided exactly.  The cover's cone axioms need
no scan either: a sum of two non-zero positives has first coordinate
>= 2 and base part g1 + g2, and conjugating (n, g) by (z, k) gives
(n, k + g - k), so the cover cone is closed exactly where P is, and the
base's ``check_cone_axioms`` report is the cover's proof.  It is reduced
by construction: the negative of a non-zero positive has first
coordinate <= -1.  The projection (n, g) |-> g is a normal epimorphism:
every g lifts to (0, g) and every positive p lifts to (1, p).

A covering is a morphism in the class M* (its kernel is partially
ordered); ``is_covering_along`` tests the definition instead, a morphism
whose pullback along an effective descent morphism is a trivial covering.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import ConeAxiomReport, CoverCone, check_cone_axioms
from .groups import (
    FgAbGroup,
    GroupHom,
    compose,
    factor_through_legs,
    identity_hom,
)
from .pog import (
    POGMorphism,
    PreorderedGroup,
    is_normal_epi,
    pog_is_iso,
    pog_pullback,
    structural_morphism,
)
from .factor import in_class


# ---------------------------------------------------------------------------
# the canonical cover
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverResult:
    axioms: ConeAxiomReport               # the base's, which decide the cover's
    realized: PreorderedGroup = None      # fgab bases only
    projection: POGMorphism = None
    surjectivity_note: str = ""


def canonical_cover(P):
    """The effective descent morphism (Z x G, cover cone) -->> (G, P).

    For an fgab base the group level is realized exactly (new free
    coordinate first); the cone stays predicate-only since it is not
    finitely generated.

    >>> from .groups import make_fgab_group
    >>> from .cones import generator_cone
    >>> Z = make_fgab_group(1, [])
    >>> ZN = PreorderedGroup(Z, generator_cone(Z, [Z.elem([1])]))
    >>> cover = canonical_cover(ZN)
    >>> cover.realized.group.rank
    2
    """
    axioms = check_cone_axioms(P.cone)
    note = ("group level splits by g |-> (0, g); "
            "every positive p lifts to (1, p)")
    if P.group.backend != "fgab":
        return CoverResult(axioms, surjectivity_note=note)
    G = P.group
    H = FgAbGroup(G.rank + 1, G.torsion)  # new free coordinate first
    proj = GroupHom(H, G, (G.zero, *G.generators()))
    cover_pog = PreorderedGroup(H, CoverCone(H, P.cone))
    morphism = structural_morphism(
        proj, cover_pog, P, "cover projection: (n, g) |-> g")
    return CoverResult(axioms, cover_pog, morphism, note)


# ---------------------------------------------------------------------------
# internal equivalence relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InternalEquivRelation:
    """Kernel-pair style relation with all structure maps.

    carrier R with jointly monic projections r1, r2 to the base X, the
    reflexivity section delta, the symmetry swap sigma, and the
    transitivity composite tau defined on R x_X R.
    """

    carrier: PreorderedGroup
    base: PreorderedGroup
    r1: POGMorphism
    r2: POGMorphism
    delta: POGMorphism
    sigma: POGMorphism
    pairs: object             # LimitResult for R x_X R
    tau: POGMorphism

    def verify_identities(self):
        """Reflexivity, symmetry and transitivity as morphism equalities."""
        checks = {
            "r1 . delta = 1": compose(self.r1.hom, self.delta.hom).images
            == _identity_images(self.base.group),
            "r2 . delta = 1": compose(self.r2.hom, self.delta.hom).images
            == _identity_images(self.base.group),
            "r1 . sigma = r2": compose(self.r1.hom, self.sigma.hom).images
            == self.r2.hom.images,
            "r2 . sigma = r1": compose(self.r2.hom, self.sigma.hom).images
            == self.r1.hom.images,
            "r1 . p1 = r1 . tau": compose(self.r1.hom, self.pairs.legs[0].hom).images
            == compose(self.r1.hom, self.tau.hom).images,
            "r2 . p2 = r2 . tau": compose(self.r2.hom, self.pairs.legs[1].hom).images
            == compose(self.r2.hom, self.tau.hom).images,
        }
        return checks


def _identity_images(G):
    return identity_hom(G).images


def kernel_pair(f):
    """Eq(f) with both projections, diagonal, symmetry and transitivity."""
    lim = pog_pullback(f, f)
    R = lim.obj
    r1, r2 = lim.legs
    legs = [r1.hom, r2.hom]
    one = identity_hom(f.dom.group)
    delta = structural_morphism(factor_through_legs(legs, [one, one]),
                                f.dom, R, "diagonal")
    sigma = structural_morphism(factor_through_legs(legs, [r2.hom, r1.hom]),
                                R, R, "swap")
    pairs = pog_pullback(r2, r1)
    tau_hom = factor_through_legs(legs, [compose(r1.hom, pairs.legs[0].hom),
                                         compose(r2.hom, pairs.legs[1].hom)])
    tau = structural_morphism(tau_hom, pairs.obj, R, "transitivity composite")
    return InternalEquivRelation(R, f.dom, r1, r2, delta, sigma, pairs, tau)


@dataclass(frozen=True)
class FibrationReport:
    holds: bool
    detail: str = ""

    def __bool__(self):
        return self.holds


def is_discrete_fibration(f1, f0, R, Rp):
    """(f1, f0) is a discrete fibration of equivalence relations.

    Both projection squares must commute and the square over the second
    projections must be a pullback; the pullback is tested through the
    induced comparison map being an isomorphism.
    """
    if compose(Rp.r1.hom, f1.hom).images != compose(f0.hom, R.r1.hom).images:
        return FibrationReport(False, "first square does not commute")
    if compose(Rp.r2.hom, f1.hom).images != compose(f0.hom, R.r2.hom).images:
        return FibrationReport(False, "second square does not commute")
    lim = pog_pullback(Rp.r2, f0)
    cmp_hom = factor_through_legs([leg.hom for leg in lim.legs],
                                  [f1.hom, R.r2.hom])
    cmp = structural_morphism(cmp_hom, R.carrier, lim.obj, "fibration comparison")
    iso = pog_is_iso(cmp)
    return FibrationReport(iso, "comparison iso" if iso
                           else "square is not a pullback")


# ---------------------------------------------------------------------------
# covering predicates
# ---------------------------------------------------------------------------

def is_covering(m):
    """A morphism is a covering iff it lies in M*: its kernel is partially
    ordered, i.e. meets the unit group trivially."""
    return in_class(m, "Mstar").holds


def is_covering_along(m, p):
    """Pull m back along the normal epimorphism p and test for a trivial
    covering there (unit-group restriction an isomorphism)."""
    if not is_normal_epi(p):
        raise ValueError("p must be a normal epimorphism")
    if m.cod != p.cod:
        raise ValueError("codomains must match")
    lim = pog_pullback(p, m)
    return bool(in_class(lim.legs[0], "M"))
