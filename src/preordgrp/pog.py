"""The category of preordered groups.

Objects are pairs (G, P) of a group with a validated positive cone;
morphisms are group homomorphisms carrying a certificate that the cone is
preserved.  Kernels restrict the cone, cokernels push it forward, limits
are computed componentwise at the group and cone level, and morphisms are
classified against the characterizations of normal epi- and monomorphisms
(surjective on both levels, respectively kernel-style cone restriction).

Cone comparisons are inclusions, decided exactly: on the generators of a
finitely generated cone, and on the linear pieces of one without them
(the cover cone and cones built over it) by ``cones.cone_outside``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .cones import (
    Cone,
    ImageCone,
    cone_contains,
    cone_is_subgroup,
    cone_outside,
    check_cone_axioms,
    extract_generators,
    transport_image,
    transport_preimage,
    transport_product,
    trivial_cone,
    units,
)
from .errors import (
    ConeAxiomViolation,
    ConeNotPreserved,
    ImageNotNormal,
    NotNormal,
)
from .groups import (
    FgAbGroup,
    GroupHom,
    compose,
    direct_product,
    group_kernel,
    group_pullback,
    hom_sub,
    identity_hom,
    image_subgroup,
    interned,
    is_injective,
    is_surjective,
    kernel_subgroup,
    normal_closure,
    quotient,
    subgroup_from_elements,
    subgroup_to_group,
    zero_hom,
)

@interned
@dataclass(frozen=True, eq=False)
class PreorderedGroup:
    """A group with a positive cone, interned on the pair."""

    group: object
    cone: Cone

    def describe(self):
        if self.group.backend == "finite":
            return f"(finite group of order {self.group.order()}, " \
                   f"cone of size {len(self.cone.members)})"
        return f"({self.group.describe()}, cone)"


def make_pog(group, cone):
    """Validated preordered group.

    >>> from .groups import make_fgab_group
    >>> from .cones import generator_cone
    >>> Z = make_fgab_group(1, [])
    >>> make_pog(Z, generator_cone(Z, [Z.elem([1])])).group.rank
    1
    """
    if cone.group != group:
        raise ConeAxiomViolation("cone lives on a different group")
    report = check_cone_axioms(cone)
    if not report.ok:
        raise ConeAxiomViolation("cone axioms fail", witness=report.first_witness())
    return PreorderedGroup(group, cone)


def zero_object():
    """The zero object (trivial group, trivial cone), one interned value."""
    G = FgAbGroup(0, ())
    return PreorderedGroup(G, trivial_cone(G))


@dataclass(frozen=True)
class Classification:
    """Non-exclusive flags; every derivation is exact."""

    flags: frozenset
    exact: bool = True

    def __contains__(self, flag):
        return flag in self.flags

    def __eq__(self, other):
        if isinstance(other, (set, frozenset)):
            return self.flags == other
        return isinstance(other, Classification) and self.flags == other.flags


@lru_cache(maxsize=256)
def classify(P):
    """Flags among total / protomodular / partially_ordered / discrete.

    Total means the cone is the whole group (its unit group is everything);
    partially ordered means the cone is reduced; protomodular means the
    cone is a subgroup; discrete means the cone is trivial.
    """
    N = units(P.cone)
    flags = set()
    if N.is_whole():
        flags.add("total")
    if N.is_trivial():
        flags.add("partially_ordered")
    if cone_is_subgroup(P.cone):
        flags.add("protomodular")
        if N.is_trivial():
            flags.add("discrete")
    return Classification(frozenset(flags))


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeCertificate:
    """How cone preservation was established."""

    kind: str                 # "generators" | "structural" | "pieces"
    verdicts: tuple = ()
    note: str = ""


@dataclass(frozen=True)
class POGMorphism:
    """A morphism is its (dom, cod, hom); the certificate is evidence only,
    so ``==`` and ``hash`` never walk its membership verdicts."""

    dom: PreorderedGroup
    cod: PreorderedGroup
    hom: GroupHom
    certificate: ConeCertificate = field(compare=False)

    def is_zero(self):
        return self.hom.is_zero()


def cone_preservation(hom, dom_cone, cod_cone):
    """(ok, offending member or None, certificate): one In-verdict per
    generator of the domain cone, or, for a cone without generators, the
    inclusion of its linear pieces."""
    gens = extract_generators(dom_cone)
    if gens is None:
        bad = cone_outside(hom, dom_cone, cod_cone)
        cert = ConeCertificate("pieces") if bad is None else None
        return bad is None, bad, cert
    verdicts = []
    for x in gens:
        v = cone_contains(cod_cone, hom(x))
        if not v:
            return False, x, None
        verdicts.append((x, v))
    return True, None, ConeCertificate("generators", tuple(verdicts))


def make_pog_morphism(hom, dom, cod):
    """Certified morphism; the certificate stores one In-verdict per
    domain-cone generator.

    >>> from .groups import make_fgab_group, identity_hom
    >>> from .cones import generator_cone, total_cone
    >>> Z = make_fgab_group(1, [])
    >>> ZN = make_pog(Z, generator_cone(Z, [Z.elem([1])]))
    >>> ZZ = make_pog(Z, total_cone(Z))
    >>> make_pog_morphism(identity_hom(Z), ZN, ZZ).certificate.kind
    'generators'
    """
    if hom.dom != dom.group or hom.cod != cod.group:
        raise ValueError("hom endpoints do not match the objects")
    ok, bad, cert = cone_preservation(hom, dom.cone, cod.cone)
    if not ok:
        raise ConeNotPreserved(f"cone generator {bad} maps outside the cone",
                               generator=bad)
    return POGMorphism(dom, cod, hom, cert)


def structural_morphism(hom, dom, cod, note):
    """Morphism whose cone preservation holds by construction."""
    return POGMorphism(dom, cod, hom, ConeCertificate("structural", note=note))


def induced_morphism(hom, dom, cod, note):
    """Morphism induced from certified ones: its cone preservation holds
    by construction, and is certified on generators when the domain cone
    has them; otherwise it is structural with ``note``."""
    if extract_generators(dom.cone) is not None:
        return make_pog_morphism(hom, dom, cod)
    return structural_morphism(hom, dom, cod, note)


def identity_morphism(P):
    return structural_morphism(identity_hom(P.group), P, P, "identity")


def zero_morphism(dom, cod):
    return structural_morphism(zero_hom(dom.group, cod.group), dom, cod, "zero")


def compose_pog(g, f):
    """g after f; the composite certificate is re-derived cheaply."""
    if f.cod != g.dom:
        raise ValueError("morphisms do not compose")
    return induced_morphism(compose(g.hom, f.hom), f.dom, g.cod,
                            "composite of certified maps")


# ---------------------------------------------------------------------------
# kernels and cokernels
# ---------------------------------------------------------------------------

def pog_kernel(m):
    """Kernel object with its injection; the kernel cone is the restriction
    of the domain cone, so its square over the group level is a pullback by
    construction."""
    K, inj = group_kernel(m.hom)
    cone = transport_preimage(inj, m.dom.cone)
    Kpog = PreorderedGroup(K, cone)
    return Kpog, structural_morphism(inj, Kpog, m.dom,
                                     "kernel inclusion restricts the cone")


def pog_cokernel(m):
    """Cokernel object with its projection (a normal epimorphism)."""
    try:
        Q, proj = quotient(m.cod.group, image_subgroup(m.hom))
    except NotNormal as exc:
        raise ImageNotNormal("image is not normal in the codomain") from exc
    cone = transport_image(proj, m.cod.cone)
    Qpog = PreorderedGroup(Q, cone)
    return Qpog, structural_morphism(proj, m.cod, Qpog,
                                     "cokernel projection pushes the cone forward")


# ---------------------------------------------------------------------------
# limits and colimits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitResult:
    obj: PreorderedGroup
    legs: tuple


def pog_product(P1, P2):
    prod = direct_product(P1.group, P2.group)
    cone = transport_product(P1.cone, P2.cone, prod.group,
                             prod.proj1, prod.proj2)
    P = PreorderedGroup(prod.group, cone)
    legs = (structural_morphism(prod.proj1, P, P1, "product projection"),
            structural_morphism(prod.proj2, P, P2, "product projection"))
    return LimitResult(P, legs)


@lru_cache(maxsize=256)
def pog_pullback(m1, m2):
    if m1.cod != m2.cod:
        raise ValueError("pullback needs a common codomain")
    P, p1, p2 = group_pullback(m1.hom, m2.hom)
    cone = transport_product(m1.dom.cone, m2.dom.cone, P, p1, p2)
    Ppog = PreorderedGroup(P, cone)
    legs = (structural_morphism(p1, Ppog, m1.dom, "pullback projection"),
            structural_morphism(p2, Ppog, m2.dom, "pullback projection"))
    return LimitResult(Ppog, legs)


def pog_equalizer(m1, m2):
    if m1.dom != m2.dom or m1.cod != m2.cod:
        raise ValueError("equalizer needs a parallel pair")
    G = m1.dom.group
    if G.backend == "finite":
        els = [x for x in G.elements() if m1.hom(x) == m2.hom(x)]
        S = subgroup_from_elements(G, els)
    else:
        S = kernel_subgroup(hom_sub(m1.hom, m2.hom))
    E, inj = subgroup_to_group(S)
    cone = transport_preimage(inj, m1.dom.cone)
    Epog = PreorderedGroup(E, cone)
    return LimitResult(Epog, (structural_morphism(
        inj, Epog, m1.dom, "equalizer inclusion restricts the cone"),))


def pog_coequalizer(m1, m2):
    """Quotient by the normal closure of the differences of the images (of
    the elements, or of the generators of an fgab domain), with image cone."""
    if m1.dom != m2.dom or m1.cod != m2.cod:
        raise ValueError("coequalizer needs a parallel pair")
    H = m1.cod.group
    diffs = [a - b for a, b in zip(m1.hom.images, m2.hom.images)]
    Q, proj = quotient(H, normal_closure(H, diffs))
    cone = transport_image(proj, m1.cod.cone)
    Qpog = PreorderedGroup(Q, cone)
    return Qpog, structural_morphism(proj, m1.cod, Qpog,
                                     "coequalizer projection pushes the cone forward")


# ---------------------------------------------------------------------------
# classification of morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MorphismClassReport:
    mono: bool
    epi: bool
    normal_mono: bool
    normal_epi: bool
    effective_descent: bool
    exact: bool = True        # every verdict is a proof
    details: tuple = ()


def cone_map_surjective(m):
    """Does every positive element of the codomain lift into the domain cone?

    The codomain cone must lie in the direct image of the domain cone.  The
    verdict is kept per (hom, domain cone, codomain cone), like
    ``pog_is_iso``'s.
    """
    return _cone_map_surjective(m.hom, m.dom.cone, m.cod.cone)


@lru_cache(maxsize=256)
def _cone_map_surjective(hom, dom_cone, cod_cone):
    if isinstance(cod_cone, ImageCone) and cod_cone.hom == hom \
            and cod_cone.inner == dom_cone:
        return True  # codomain cone is this map's direct image
    return cone_outside(None, cod_cone,
                        transport_image(hom, dom_cone)) is None


def cone_square_is_pullback(hom, dom_cone, cod_cone):
    """Is dom_cone exactly the preimage of cod_cone along hom?

    Two inclusions: dom_cone maps into cod_cone, and the preimage of
    cod_cone lies in dom_cone.
    """
    if cone_outside(hom, dom_cone, cod_cone) is not None:
        return False
    # a total domain cone leaves nothing outside itself: the forward
    # inclusion just checked is the whole condition
    if units(dom_cone).is_whole():
        return True
    return cone_outside(None, transport_preimage(hom, cod_cone),
                        dom_cone) is None


def is_normal_epi(m):
    """Surjective on groups and on cones."""
    return is_surjective(m.hom) and cone_map_surjective(m)


def morphism_class(m):
    """Mono/epi/normal mono/normal epi/effective descent flags.

    Effective descent equals normal epi in this category, so the report
    simply aliases the flag.
    """
    mono = is_injective(m.hom)
    epi = is_surjective(m.hom)
    details = []
    normal_epi = epi and is_normal_epi(m)
    if epi:
        details.append(("cone_surjective", normal_epi))
    normal_mono = False
    if mono and image_subgroup(m.hom).is_normal():
        normal_mono = cone_square_is_pullback(m.hom, m.dom.cone, m.cod.cone)
        details.append(("cone_square_pullback", normal_mono))
    return MorphismClassReport(
        mono=mono, epi=epi, normal_mono=normal_mono, normal_epi=normal_epi,
        effective_descent=normal_epi, details=tuple(details))


def pog_is_iso(m):
    """Isomorphism test: group-level iso plus order-reflecting inverse.

    The inverse's cone preservation is checked on the generators of the
    codomain cone, or on its linear pieces when it has none.  The verdict
    is kept per (hom, domain cone, codomain cone).
    """
    return _is_iso(m.hom, m.dom.cone, m.cod.cone)


@lru_cache(maxsize=256)
def _is_iso(hom, dom_cone, cod_cone):
    from .groups import inverse_hom, is_isomorphism
    if not is_isomorphism(hom):
        return False
    return cone_preservation(inverse_hom(hom), cod_cone, dom_cone)[0]


# ---------------------------------------------------------------------------
# short exact sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceCertificate:
    kind: str                  # "ShortExact" | "ZPreexact"
    k: POGMorphism
    f: POGMorphism
    holds: bool
    reasons: tuple = ()

    def __bool__(self):
        return self.holds

    def reverify(self):
        """Recompute every recorded check from the stored arrows."""
        if self.kind == "ShortExact":
            return is_short_exact(self.k, self.f)
        from .torsion import is_z_trivial
        zrep = is_z_trivial(compose_pog(self.f, self.k))
        return SequenceCertificate(
            self.kind, self.k, self.f, bool(zrep),
            () if zrep else ("composite is not trivial",))


def is_short_exact(k, f):
    """k then f is short exact: group-exact, kernel cone square a pullback,
    and the cone map of f surjective.

    >>> # built sequences are checked in the test-suite; trivial instance:
    >>> P = zero_object()
    >>> cert = is_short_exact(identity_morphism(P), identity_morphism(P))
    >>> bool(cert)
    True
    """
    if k.cod != f.dom:
        raise ValueError("arrows do not compose")
    reasons = []
    holds = True
    if not compose(f.hom, k.hom).is_zero():
        holds = False
        reasons.append("composite is not zero")
    ker = kernel_subgroup(f.hom)
    img = image_subgroup(k.hom)
    from .groups import subgroup_equal
    if not subgroup_equal(ker, img):
        holds = False
        reasons.append("image of k differs from kernel of f")
    if holds and not is_injective(k.hom):
        holds = False
        reasons.append("k is not injective")
    if holds and not is_surjective(f.hom):
        holds = False
        reasons.append("f is not surjective")
    if holds and not cone_square_is_pullback(k.hom, k.dom.cone, k.cod.cone):
        holds = False
        reasons.append("kernel cone square is not a pullback")
    if holds and not cone_map_surjective(f):
        holds = False
        reasons.append("cone map of f is not surjective")
    return SequenceCertificate("ShortExact", k, f, holds, tuple(reasons))
