"""Effective descent data: the canonical partially ordered cover of any
preordered group, kernel pairs as internal equivalence relations, discrete
fibrations, and the covering predicates.

Every (G, P) is covered by H = Z x G with positive cone

    { (n, g) : n >= 1 and g in P }  together with  (0, 0),

a reduced cone that is provably not finitely generated (no element (1, p)
decomposes).  Cover-side predicates therefore fall back to the fixed window
``cones.WINDOW`` and mark those verdicts inexact; only the confirmation
scan of the cover's axioms takes its width from the caller.  The
projection (n, g) |-> g is a normal epimorphism: every g lifts to (0, g)
and every positive p lifts to (1, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cones import (
    WINDOW,
    CoverCone,
    cone_contains,
    cone_window,
    units,
)
from .errors import EnumerationUnbounded
from .groups import (
    FgAbGroup,
    GroupHom,
    compose,
    factor_through_legs,
    identity_hom,
    kernel_subgroup,
    subgroup_intersection,
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
class VirtualPOG:
    """Z x G with the cover order, independent of any coordinate realization.

    Elements are pairs (n, g) of a Python integer and a group element of
    the base; only the positivity predicate is offered.
    """

    base: PreorderedGroup

    def positive(self, n, g):
        if n >= 1:
            return bool(cone_contains(self.base.cone, g))
        return n == 0 and g.is_zero()


@dataclass(frozen=True)
class CoverScanReport:
    submonoid_violations: int
    conjugation_violations: int
    reducedness_violations: int
    window: int
    positives_checked: int

    @property
    def clean(self):
        return (self.submonoid_violations == 0
                and self.conjugation_violations == 0
                and self.reducedness_violations == 0)


COVER_SCAN_CAP = 2_000_000


def scan_cover(virtual, width=WINDOW):
    """Window confirmation of the cover's cone axioms and reducedness.

    All three hold analytically (the first coordinate of a sum of two
    positives is either >= 2 or both summands are zero), so any violation
    here is a bug, not a mathematical discovery.  Positivity of a sum or a
    conjugate only depends on its base part, so the quadratic scans run
    over base-window pairs rather than cover-window pairs.  The checks are
    counted on the whole base window before anything is built: past
    ``COVER_SCAN_CAP`` of them the call raises ``EnumerationUnbounded``.
    """
    base = virtual.base
    G = base.group
    if G.backend == "finite":
        points = G.order()
    else:
        points = (2 * width + 1) ** G.rank * math.prod(G.torsion)
    # base pairs, reducedness levels and, off abelian bases, conjugates
    checks = points * (points + width + (0 if G.is_abelian() else G.order()))
    if checks > COVER_SCAN_CAP:
        raise EnumerationUnbounded(
            f"the cover scan at window {width} needs up to {checks} checks, "
            f"past the cap of {COVER_SCAN_CAP}")
    base_pos = list(cone_window(base.cone, width))
    n_levels = width  # positives pair with first coordinates 1..width
    positives = n_levels * len(base_pos) + 1
    sub = conj = red = 0
    # reducedness: -(n, g) has first coordinate <= -1 for every positive
    # except the zero pair, which the predicate itself accepts
    for g in base_pos:
        for n in range(1, width + 1):
            if virtual.positive(-n, -g):
                red += 1
    # submonoid closure: (n1+n2, g1+g2) with n1+n2 >= 2 needs g1+g2 positive
    for g1 in base_pos:
        for g2 in base_pos:
            if not cone_contains(base.cone, g1 + g2):
                sub += 1
    # conjugation: (z, k) + (n, g) - (z, k) = (n, k + g - k)
    if not base.group.is_abelian():
        for k in base.group.elements():
            for g in base_pos:
                if not cone_contains(base.cone, base.group.conjugate(k, g)):
                    conj += 1
    return CoverScanReport(sub, conj, red, width, positives)


@dataclass(frozen=True)
class CoverResult:
    virtual: VirtualPOG
    scan: CoverScanReport
    realized: PreorderedGroup = None      # fgab bases only
    projection: POGMorphism = None
    surjectivity_note: str = ""


def canonical_cover(P, width=WINDOW):
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
    virtual = VirtualPOG(P)
    scan = scan_cover(virtual, width)
    note = ("group level splits by g |-> (0, g); "
            "every positive p lifts to (1, p)")
    if P.group.backend != "fgab":
        return CoverResult(virtual, scan, surjectivity_note=note)
    G = P.group
    H = FgAbGroup(G.rank + 1, G.torsion)  # new free coordinate first
    proj = GroupHom(H, G, (G.zero, *G.generators()))
    cover_pog = PreorderedGroup(H, CoverCone(H, P.cone))
    morphism = structural_morphism(
        proj, cover_pog, P, "cover projection: (n, g) |-> g")
    return CoverResult(virtual, scan, cover_pog, morphism, note)


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
    exact: bool
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
        return FibrationReport(False, True, detail="first square does not commute")
    if compose(Rp.r2.hom, f1.hom).images != compose(f0.hom, R.r2.hom).images:
        return FibrationReport(False, True, detail="second square does not commute")
    lim = pog_pullback(Rp.r2, f0)
    cmp_hom = factor_through_legs([leg.hom for leg in lim.legs],
                                  [f1.hom, R.r2.hom])
    cmp = structural_morphism(cmp_hom, R.carrier, lim.obj, "fibration comparison")
    iso, exact = pog_is_iso(cmp)
    return FibrationReport(iso, exact, "comparison iso" if iso
                           else "square is not a pullback")


# ---------------------------------------------------------------------------
# covering predicates
# ---------------------------------------------------------------------------

def is_covering(m):
    """A morphism is a covering iff its kernel is partially ordered,
    i.e. the kernel meets the unit group trivially."""
    ker = kernel_subgroup(m.hom)
    N = units(m.dom.cone)
    return subgroup_intersection(ker, N).is_trivial()


def is_covering_along(m, p):
    """Pull m back along the normal epimorphism p and test for a trivial
    covering there (unit-group restriction an isomorphism)."""
    if not is_normal_epi(p)[0]:
        raise ValueError("p must be a normal epimorphism")
    if m.cod != p.cod:
        raise ValueError("codomains must match")
    lim = pog_pullback(p, m)
    return bool(in_class(lim.legs[0], "M"))
