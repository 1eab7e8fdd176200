"""The torsion theory (groups-with-total-order, partially ordered groups)
and the pretorsion theory (protomodular objects, partially ordered groups)
on preordered groups.

For an object (G, P) the unit group N of the cone is a normal subgroup of
G, and

    (N, N)  >-->  (G, P)  -->>  (G/N, P/N)

is the canonical short exact sequence: its kernel carries the total order,
its cokernel the reduced (partial) order.  Replacing the kernel by
(G, N) and "zero" by the class of discretely ordered objects turns the same
quotient construction into a short preexact sequence for the pretorsion
theory, whose torsion part is the subcategory of protomodular objects.
Its triviality test runs over ``cones.deciding_members`` and reports a
window verdict through ``exact``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cones import (
    deciding_members,
    subgroup_cone,
    total_cone,
    transport_image,
    trivial_cone,
    units,
)
from .errors import NotComparable
from .groups import (
    compose,
    factor_through_epi,
    factor_through_mono,
    identity_hom,
    quotient,
    subgroup_to_group,
)
from .pog import (
    POGMorphism,
    PreorderedGroup,
    SequenceCertificate,
    classify,
    compose_pog,
    induced_morphism,
    is_short_exact,
    make_pog_morphism,
    pog_is_iso,
    structural_morphism,
)

DEFAULT_HOM_BOUND = 10


@dataclass(frozen=True)
class TorsionDecomposition:
    obj: PreorderedGroup
    torsion_part: PreorderedGroup
    free_part: PreorderedGroup
    counit: POGMorphism        # torsion part -> object
    unit: POGMorphism          # object -> torsion-free part
    certificate: SequenceCertificate
    kind: str                  # "torsion" | "pretorsion"


@lru_cache(maxsize=None)
def torsion_sequence(P):
    """Canonical short exact sequence of the torsion theory.

    >>> from .groups import make_fgab_group
    >>> from .cones import generator_cone
    >>> Z = make_fgab_group(1, [])
    >>> ZN = PreorderedGroup(Z, generator_cone(Z, [Z.elem([1])]))
    >>> d = torsion_sequence(ZN)
    >>> d.torsion_part.group.order(), d.free_part.group.rank
    (1, 1)
    """
    N = units(P.cone)
    NG, inj = subgroup_to_group(N)
    T = PreorderedGroup(NG, total_cone(NG))
    counit = make_pog_morphism(inj, T, P)
    Q, proj = quotient(P.group, N)
    qcone = transport_image(proj, P.cone)
    F = PreorderedGroup(Q, qcone)
    unit = induced_morphism(proj, P, F, "quotient pushes the cone forward")
    cert = is_short_exact(counit, unit)
    return TorsionDecomposition(P, T, F, counit, unit, cert, "torsion")


def reflect_F(m):
    """Image of a morphism under the torsion-free reflector."""
    dec_dom = torsion_sequence(m.dom)
    dec_cod = torsion_sequence(m.cod)
    # the map induced between the quotients
    h = factor_through_epi(dec_dom.unit.hom,
                           compose(dec_cod.unit.hom, m.hom))
    if h is None:
        raise ValueError("morphism does not map units to units")
    return induced_morphism(h, dec_dom.free_part, dec_cod.free_part,
                            "induced between quotients of a certified map")


def coreflect_T(m):
    """Restriction of a morphism to the torsion parts (unit groups)."""
    dec_dom = torsion_sequence(m.dom)
    dec_cod = torsion_sequence(m.cod)
    h = factor_through_mono(dec_cod.counit.hom,
                            compose(m.hom, dec_dom.counit.hom))
    if h is None:
        raise ValueError("morphism does not map units to units")
    return make_pog_morphism(h, dec_dom.torsion_part, dec_cod.torsion_part)


@dataclass(frozen=True)
class ZeroHomReport:
    holds: bool
    morphisms_found: int
    bound: int = None          # None when the enumeration was exhaustive
    witness: object = None

    def __bool__(self):
        return self.holds


def hom_torsion_to_free_is_zero(src, dst, bound=DEFAULT_HOM_BOUND):
    """Only the zero morphism is order preserving from a totally ordered
    object to a partially ordered one.

    Exhaustive on finite groups.  On fgab groups a homomorphism from a
    total object preserves cones iff every generator image is a unit of the
    target cone, so the per-generator candidate count multiplies out to the
    number of cone-preserving homs within the bound.
    """
    if "total" not in classify(src):
        raise ValueError("source must be totally ordered")
    if "partially_ordered" not in classify(dst):
        raise ValueError("target must be partially ordered")
    G, H = src.group, dst.group
    if G.backend == "finite" and H.backend == "finite":
        from .oracle import enumerate_pog_morphisms
        found = enumerate_pog_morphisms(src, dst)
        nonzero = [m.hom for m in found if not m.is_zero()]
        return ZeroHomReport(not nonzero, len(found),
                             witness=nonzero[0] if nonzero else None)
    Ndst = units(dst.cone)
    from .groups import _bounded_elements
    candidates = _bounded_elements(H, bound)
    count = 1
    witness_img = None
    for i in range(G.ncoords):
        if i >= G.rank:
            d = G.torsion[i - G.rank]
            pool = [h for h in candidates if H.scale(h, d).is_zero()]
        else:
            pool = candidates
        good = [h for h in pool if Ndst.contains(h)]
        bad = [h for h in good if not h.is_zero()]
        if bad and witness_img is None:
            witness_img = bad[0]
        count *= len(good)
    return ZeroHomReport(witness_img is None, count, bound=bound,
                         witness=witness_img)


def uniqueness_check(P, alt_k, alt_f):
    """Comparison isomorphisms between the canonical torsion sequence of P
    and an alternative one (kernel total, cokernel partially ordered).

    Returns (t, f) with t between the torsion parts and f between the
    torsion-free parts, both verified isomorphisms.
    """
    cert = is_short_exact(alt_k, alt_f)
    if not cert:
        raise NotComparable("alternative sequence is not short exact: "
                            + "; ".join(cert.reasons))
    if "total" not in classify(alt_k.dom):
        raise NotComparable("alternative kernel is not totally ordered")
    if "partially_ordered" not in classify(alt_f.cod):
        raise NotComparable("alternative cokernel is not partially ordered")
    if alt_k.cod != P or alt_f.dom != P:
        raise NotComparable("alternative sequence is not over this object")
    dec = torsion_sequence(P)
    # f with f . eta = eta_alt, induced by the cokernel property of eta
    f_hom = factor_through_epi(dec.unit.hom, alt_f.hom)
    if f_hom is None:
        raise NotComparable("alternative cokernel does not factor through "
                            "the canonical one")
    f = induced_morphism(f_hom, dec.free_part, alt_f.cod, "induced")
    # t with eps_alt . t = eps, induced by the kernel property of eps_alt
    t_hom = factor_through_mono(alt_k.hom, dec.counit.hom)
    if t_hom is None:
        raise NotComparable("canonical torsion part does not factor "
                            "through the alternative kernel")
    t = make_pog_morphism(t_hom, dec.torsion_part, alt_k.dom)
    t_iso, t_exact = pog_is_iso(t)
    f_iso, f_exact = pog_is_iso(f)
    if not (t_iso and f_iso):
        raise NotComparable("comparison maps are not isomorphisms")
    return t, f


# ---------------------------------------------------------------------------
# the pretorsion theory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZTrivialReport:
    holds: bool
    through: PreorderedGroup = None
    left: POGMorphism = None   # dom -> through
    right: POGMorphism = None  # through -> cod
    witness: object = None
    exact: bool = True         # False when a window stood in for a proof

    def __bool__(self):
        return self.holds


def is_z_trivial(m):
    """A morphism is trivial for the pretorsion theory iff its cone map is
    zero, decided on the deciding members of the domain cone; it then
    factors through its image carrying the discrete order."""
    members, exact = deciding_members(m.dom.cone)
    bad = [x for x in members if not m.hom(x).is_zero()]
    if bad:
        return ZTrivialReport(False, witness=bad[0])
    from .groups import image_subgroup
    I, inj = subgroup_to_group(image_subgroup(m.hom))
    mid = PreorderedGroup(I, trivial_cone(I))
    a_hom = factor_through_mono(inj, m.hom)
    left = structural_morphism(a_hom, m.dom, mid, "cone map is zero")
    right = make_pog_morphism(inj, mid, m.cod)
    return ZTrivialReport(True, mid, left, right, exact=exact)


@lru_cache(maxsize=None)
def proto_coreflect(P):
    """Pretorsion torsion part (G, N) with its counit into (G, P)."""
    N = units(P.cone)
    TP = PreorderedGroup(P.group, subgroup_cone(N))
    counit = make_pog_morphism(identity_hom(P.group), TP, P)
    return TP, counit


@lru_cache(maxsize=None)
def proto_reflect(P):
    """Protomodular reflection (G, M) with its unit from (G, P); M is the
    subgroup generated by the cone and its negatives."""
    from .cones import generated_subgroup
    M = generated_subgroup(P.cone)
    EP = PreorderedGroup(P.group, subgroup_cone(M))
    unit = make_pog_morphism(identity_hom(P.group), P, EP)
    return EP, unit


@lru_cache(maxsize=None)
def pretorsion_sequence(P):
    """Short preexact sequence (G, N) >--> (G, P) -->> (G/N, P/N).

    The composite has zero cone map, the left arrow is the prekernel of the
    right one and the right arrow its precokernel; those universal
    properties are verified against enumerated morphisms by the oracle.
    """
    TP, counit = proto_coreflect(P)
    dec = torsion_sequence(P)
    composite = compose_pog(dec.unit, counit)
    zrep = is_z_trivial(composite)
    cert = SequenceCertificate(
        "ZPreexact", counit, dec.unit, bool(zrep), zrep.exact,
        reasons=() if zrep else ("composite is not trivial",))
    return TorsionDecomposition(P, TP, dec.free_part, counit, dec.unit,
                                cert, "pretorsion")
