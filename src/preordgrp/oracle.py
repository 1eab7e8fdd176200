"""Brute-force ground truth: exhaustive enumeration on the finite backend,
bounded enumeration on the fgab backend, and universal-property
verification for every construction the other modules produce.

The verifier quantifies over test morphisms drawn from a fixed list of
source objects; on finite groups the quantification is complete, on fgab
groups it runs up to a matrix-entry bound that every report records.

Finite cones are enumerated as the normal subgroups, since a submonoid of
a finite group is a subgroup.  Every finite object is thus protomodular,
and the exhaustive finite checks test only that case (there a partially
ordered object is discrete); cones that are not subgroups live on the
fgab backend only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cones import (
    explicit_cone,
)
from .errors import UnknownLaw
from .groups import (
    compose,
    enumerate_group_homs,
    enumerate_homs_bounded,
    factor_through_epi,
    factor_through_legs,
    factor_through_mono,
    is_injective,
    is_surjective,
    subgroup,
)
from .pog import (
    POGMorphism,
    cone_map_surjective,
    cone_preservation,
    compose_pog,
    is_normal_epi,
)

DEFAULT_TEST_BOUND = 2


def enumerate_cones(G):
    """All positive cones on a finite group, ordered by size then
    lexicographically.

    A submonoid of a finite group is a subgroup, since -x = (ord x - 1)x,
    so the cones are exactly the normal subgroups: the joins of the normal
    closures of conjugacy classes (each such closure is the subgroup a
    class generates).

    >>> from .groups import cyclic_group
    >>> [len(c.members) for c in enumerate_cones(cyclic_group(4))]
    [1, 2, 4]
    """
    els = G.elements()
    atoms = {subgroup(G, {G.conjugate(g, x) for g in els}).elements
             for x in els}
    found, frontier = set(atoms), set(atoms)
    while frontier:
        frontier = {frozenset(a + c for a in A for c in C)
                    for A in frontier for C in atoms} - found
        found |= frontier
    cones = [explicit_cone(G, members) for members in found]
    cones.sort(key=lambda c: (len(c.members),
                              sorted(x.coords for x in c.members)))
    return cones


@lru_cache(maxsize=None)
def enumerate_pog_morphisms(P, Q, bound=DEFAULT_TEST_BOUND):
    """All order-preserving morphisms P -> Q.

    Complete between finite objects; bound-complete (matrix entries in
    [-bound, bound]) between fgab objects.
    """
    if P.group.backend == "finite" and Q.group.backend == "finite":
        homs = enumerate_group_homs(P.group, Q.group)
    elif P.group.backend == "fgab" and Q.group.backend == "fgab":
        homs = enumerate_homs_bounded(P.group, Q.group, bound)
    else:
        from .errors import BackendMismatch
        raise BackendMismatch("morphism enumeration needs matching backends")
    out = []
    for h in homs:
        ok, _, cert = cone_preservation(h, P.cone, Q.cone)
        if ok:
            out.append(POGMorphism(P, Q, h, cert))
    return tuple(out)


# ---------------------------------------------------------------------------
# universal properties
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniversalPropertyQuery:
    kind: str
    data: tuple                  # kind-specific (see verify_universal_property)
    test_objects: tuple
    bound: int = DEFAULT_TEST_BOUND


@dataclass(frozen=True)
class VerificationReport:
    holds: bool
    kind: str
    tested: int
    bound: int
    counterexample: str = ""

    def __bool__(self):
        return self.holds


def verify_universal_property(query):
    """Check existence and uniqueness of mediating morphisms.

    ``query.data`` by kind:
      Kernel / Equalizer:     (morphism(s)..., candidate object, candidate arrow into dom)
      Cokernel / Coequalizer: (morphism(s)..., candidate object, candidate arrow out of cod)
      Product:                (A, B, candidate, leg1, leg2)
      Pullback:               (f, g, candidate, leg1, leg2)
      ZPrekernel:             (f, candidate, arrow k)
      ZPrecokernel:           (f, candidate, arrow c)
      ReflectionUnit:         (unit arrow, target flag)
      CoreflectionCounit:     (counit arrow, source flag)
    """
    kind = query.kind
    handler = _HANDLERS.get(kind)
    if handler is None:
        raise ValueError(f"unknown universal property kind {kind!r}")
    return handler(query)


def _report(kind, ok, tested, bound, why=""):
    return VerificationReport(ok, kind, tested, bound, why)


def _arrows(X, A, bound):
    """Test morphisms X -> A; objects on the other backend contribute none."""
    if X.group.backend != A.group.backend:
        return ()
    return enumerate_pog_morphisms(X, A, bound)


def _composite(g, f):
    """The group hom of g after f.  The handlers that only test a
    composite (zero, or equal to another) skip the cone certificate
    ``compose_pog`` would derive for it."""
    if f.cod != g.dom:
        raise ValueError("morphisms do not compose")
    return compose(g.hom, f.hom)


def _certified(w_hom, dom, cod):
    """The group hom w_hom as a morphism dom -> cod, or None when there is
    no hom or it does not preserve the order."""
    if w_hom is None:
        return None
    ok, _, cert = cone_preservation(w_hom, dom.cone, cod.cone)
    return POGMorphism(dom, cod, w_hom, cert) if ok else None


def _mediate_into(candidate_arrow, alpha, X):
    """Mediating morphism for limit-style properties, as a POGMorphism."""
    return _certified(factor_through_mono(candidate_arrow.hom, alpha.hom),
                      X, candidate_arrow.dom)


def _mediate_out_of(candidate_arrow, alpha):
    return _certified(factor_through_epi(candidate_arrow.hom, alpha.hom),
                      candidate_arrow.cod, alpha.cod)


def _mediate_pair(P, p1, p2, u1, u2, X):
    return _certified(factor_through_legs([p1.hom, p2.hom], [u1.hom, u2.hom]),
                      X, P)


def _verify_kernel(query):
    m, K, inj = query.data
    if not is_injective(inj.hom):
        return _report("Kernel", False, 0, query.bound, "candidate is not monic")
    if not _composite(m, inj).is_zero():
        return _report("Kernel", False, 0, query.bound,
                       "candidate does not compose to zero")
    tested = 0
    for X in query.test_objects:
        for alpha in _arrows(X, m.dom, query.bound):
            if not _composite(m, alpha).is_zero():
                continue
            tested += 1
            if _mediate_into(inj, alpha, X) is None:
                return _report("Kernel", False, tested, query.bound,
                               f"no mediating map for a test arrow from {X.describe()}")
    return _report("Kernel", True, tested, query.bound)


def _verify_equalizer(query):
    m1, m2, E, inj = query.data
    tested = 0
    if _composite(m1, inj).images != _composite(m2, inj).images:
        return _report("Equalizer", False, 0, query.bound,
                       "candidate does not equalize")
    if not is_injective(inj.hom):
        return _report("Equalizer", False, 0, query.bound, "candidate not monic")
    for X in query.test_objects:
        for alpha in _arrows(X, m1.dom, query.bound):
            if _composite(m1, alpha).images != _composite(m2, alpha).images:
                continue
            tested += 1
            if _mediate_into(inj, alpha, X) is None:
                return _report("Equalizer", False, tested, query.bound,
                               "no mediating map")
    return _report("Equalizer", True, tested, query.bound)


def _verify_cokernel(query):
    m, Q, proj = query.data
    if not is_surjective(proj.hom):
        return _report("Cokernel", False, 0, query.bound, "candidate not epic")
    if not _composite(proj, m).is_zero():
        return _report("Cokernel", False, 0, query.bound,
                       "candidate does not kill the image")
    surj, _ = cone_map_surjective(proj)
    if not surj:
        return _report("Cokernel", False, 0, query.bound,
                       "candidate cone map is not surjective")
    tested = 0
    for X in query.test_objects:
        for alpha in _arrows(m.cod, X, query.bound):
            if not _composite(alpha, m).is_zero():
                continue
            tested += 1
            if _mediate_out_of(proj, alpha) is None:
                return _report("Cokernel", False, tested, query.bound,
                               f"no mediating map to {X.describe()}")
    return _report("Cokernel", True, tested, query.bound)


def _verify_coequalizer(query):
    m1, m2, Q, proj = query.data
    if not is_surjective(proj.hom):
        return _report("Coequalizer", False, 0, query.bound, "candidate not epic")
    if _composite(proj, m1).images != _composite(proj, m2).images:
        return _report("Coequalizer", False, 0, query.bound,
                       "candidate does not coequalize")
    tested = 0
    for X in query.test_objects:
        for alpha in _arrows(m1.cod, X, query.bound):
            if _composite(alpha, m1).images != _composite(alpha, m2).images:
                continue
            tested += 1
            if _mediate_out_of(proj, alpha) is None:
                return _report("Coequalizer", False, tested, query.bound,
                               "no mediating map")
    return _report("Coequalizer", True, tested, query.bound)


def _verify_product(query):
    A, B, P, p1, p2 = query.data
    tested = 0
    for X in query.test_objects:
        arrows1 = _arrows(X, A, query.bound)
        arrows2 = _arrows(X, B, query.bound)
        for u1 in arrows1:
            for u2 in arrows2:
                tested += 1
                w = _mediate_pair(P, p1, p2, u1, u2, X)
                if w is None:
                    return _report("Product", False, tested, query.bound,
                                   "no mediating map into the product")
    return _report("Product", True, tested, query.bound)


def _verify_pullback(query):
    f, g, P, p1, p2 = query.data
    tested = 0
    for X in query.test_objects:
        arrows1 = _arrows(X, f.dom, query.bound)
        arrows2 = _arrows(X, g.dom, query.bound)
        for u1 in arrows1:
            comp1 = _composite(f, u1).images
            for u2 in arrows2:
                if comp1 != _composite(g, u2).images:
                    continue
                tested += 1
                if _mediate_pair(P, p1, p2, u1, u2, X) is None:
                    return _report("Pullback", False, tested, query.bound,
                                   "no mediating map into the pullback")
    return _report("Pullback", True, tested, query.bound)


def _verify_z_prekernel(query):
    from .torsion import is_z_trivial
    f, K, k = query.data
    if not is_injective(k.hom):
        return _report("ZPrekernel", False, 0, query.bound, "candidate not monic")
    if not is_z_trivial(compose_pog(f, k)):
        return _report("ZPrekernel", False, 0, query.bound,
                       "composite is not trivial")
    tested = 0
    for X in query.test_objects:
        for alpha in _arrows(X, f.dom, query.bound):
            if not is_z_trivial(compose_pog(f, alpha)):
                continue
            tested += 1
            if _mediate_into(k, alpha, X) is None:
                return _report("ZPrekernel", False, tested, query.bound,
                               "no mediating map")
    return _report("ZPrekernel", True, tested, query.bound)


def _verify_z_precokernel(query):
    from .torsion import is_z_trivial
    f, C, c = query.data
    if not is_surjective(c.hom):
        return _report("ZPrecokernel", False, 0, query.bound, "candidate not epic")
    if not is_z_trivial(compose_pog(c, f)):
        return _report("ZPrecokernel", False, 0, query.bound,
                       "composite is not trivial")
    tested = 0
    for X in query.test_objects:
        for alpha in _arrows(f.cod, X, query.bound):
            if not is_z_trivial(compose_pog(alpha, f)):
                continue
            tested += 1
            if _mediate_out_of(c, alpha) is None:
                return _report("ZPrecokernel", False, tested, query.bound,
                               "no mediating map")
    return _report("ZPrecokernel", True, tested, query.bound)


def _verify_reflection_unit(query):
    from .pog import classify
    unit, target_flag = query.data
    tested = 0
    for X in query.test_objects:
        if target_flag not in classify(X):
            continue
        for m in _arrows(unit.dom, X, query.bound):
            tested += 1
            if _mediate_out_of(unit, m) is None:
                return _report("ReflectionUnit", False, tested, query.bound,
                               f"no factorization through the unit to {X.describe()}")
    return _report("ReflectionUnit", True, tested, query.bound)


def _verify_coreflection_counit(query):
    from .pog import classify
    counit, source_flag = query.data
    tested = 0
    for X in query.test_objects:
        if source_flag not in classify(X):
            continue
        for m in _arrows(X, counit.cod, query.bound):
            tested += 1
            if _mediate_into(counit, m, X) is None:
                return _report("CoreflectionCounit", False, tested, query.bound,
                               f"no corestriction from {X.describe()}")
    return _report("CoreflectionCounit", True, tested, query.bound)


_HANDLERS = {
    "Kernel": _verify_kernel,
    "Equalizer": _verify_equalizer,
    "Cokernel": _verify_cokernel,
    "Coequalizer": _verify_coequalizer,
    "Product": _verify_product,
    "Pullback": _verify_pullback,
    "ZPrekernel": _verify_z_prekernel,
    "ZPrecokernel": _verify_z_precokernel,
    "ReflectionUnit": _verify_reflection_unit,
    "CoreflectionCounit": _verify_coreflection_counit,
}


# ---------------------------------------------------------------------------
# counterexample search over registered laws
# ---------------------------------------------------------------------------

def _finite_objects(order_bound):
    from .corpus import finite_corpus_objects_up_to
    return list(finite_corpus_objects_up_to(order_bound).items())


def _all_corpus_morphisms(order_bound):
    objs = _finite_objects(order_bound)
    for pname, P in objs:
        for qname, Q in objs:
            for m in enumerate_pog_morphisms(P, Q):
                yield f"{pname} -> {qname}", m


def _law_mono_iff_trivial_kernel(order_bound):
    from .groups import kernel_subgroup
    for desc, m in _all_corpus_morphisms(order_bound):
        mono = is_injective(m.hom)
        trivial = kernel_subgroup(m.hom).is_trivial()
        if mono != trivial:
            return f"{desc}: mono={mono} but trivial kernel={trivial}"
    return None


def _law_mono_pullback_square(order_bound):
    """Right map mono iff the left square of a morphism of torsion
    sequences is a pullback."""
    from .torsion import reflect_F
    from .groups import subgroup_equal, subgroup_preimage
    from .cones import units as cone_units
    for desc, m in _all_corpus_morphisms(order_bound):
        Fm = reflect_F(m)
        mono = is_injective(Fm.hom)
        # left square over the group level is a pullback iff the units of
        # the domain are the full preimage of the units of the codomain
        pb = subgroup_equal(subgroup_preimage(m.hom, cone_units(m.cod.cone)),
                            cone_units(m.dom.cone))
        if mono != pb:
            return f"{desc}: F(m) mono={mono} but left square pullback={pb}"
    return None


def _law_kernel_characterization(order_bound):
    from .pog import pog_kernel, cone_square_is_pullback
    from .groups import kernel_subgroup, image_subgroup, subgroup_equal
    for desc, m in _all_corpus_morphisms(order_bound):
        K, inj = pog_kernel(m)
        if not subgroup_equal(image_subgroup(inj.hom), kernel_subgroup(m.hom)):
            return f"{desc}: kernel image mismatch"
        pb, _ = cone_square_is_pullback(inj.hom, K.cone, m.dom.cone)
        if not pb:
            return f"{desc}: kernel cone square is not a pullback"
    return None


def _law_cokernel_characterization(order_bound):
    from .pog import pog_cokernel
    from .errors import ImageNotNormal
    for desc, m in _all_corpus_morphisms(order_bound):
        try:
            Q, proj = pog_cokernel(m)
        except ImageNotNormal:
            continue
        if not is_normal_epi(proj)[0]:
            return f"{desc}: cokernel projection is not a normal epi"
    return None


def _law_short_exact_characterization(order_bound):
    from .pog import pog_kernel, pog_cokernel, is_short_exact
    from .errors import ImageNotNormal
    for desc, m in _all_corpus_morphisms(order_bound):
        K, inj = pog_kernel(m)
        try:
            Q, proj = pog_cokernel(inj)
        except ImageNotNormal:
            continue
        cert = is_short_exact(inj, proj)
        if not cert.holds:
            return f"{desc}: kernel/cokernel pair is not short exact: {cert.reasons}"
    return None


def _law_eprime_subset_e(order_bound):
    from .factor import in_class
    for desc, m in _all_corpus_morphisms(order_bound):
        if in_class(m, "Eprime").holds and not in_class(m, "E").holds:
            return f"{desc}: in Eprime but not in E"
    return None


def _law_m_subset_mstar(order_bound):
    from .factor import in_class
    for desc, m in _all_corpus_morphisms(order_bound):
        if in_class(m, "M").holds and not in_class(m, "Mstar").holds:
            return f"{desc}: in M but not in Mstar"
    return None


def _law_hom_total_to_reduced_zero(order_bound):
    from .pog import classify
    from .torsion import hom_torsion_to_free_is_zero
    objs = _finite_objects(order_bound)
    for pname, P in objs:
        if "total" not in classify(P):
            continue
        for qname, Q in objs:
            if "partially_ordered" not in classify(Q):
                continue
            rep = hom_torsion_to_free_is_zero(P, Q)
            if not rep.holds:
                return f"{pname} -> {qname}: nonzero morphism {rep.witness}"
    return None


def _law_torsion_sequence(order_bound):
    from .pog import classify
    from .torsion import torsion_sequence
    for pname, P in _finite_objects(order_bound):
        dec = torsion_sequence(P)
        if not dec.certificate.holds:
            return f"{pname}: torsion sequence is not short exact"
        if "total" not in classify(dec.torsion_part):
            return f"{pname}: torsion part is not total"
        if "partially_ordered" not in classify(dec.free_part):
            return f"{pname}: torsion-free part is not reduced"
    return None


def _law_stable_units(order_bound):
    from .factor import check_stable_units_instance
    from .torsion import torsion_sequence
    objs = _finite_objects(order_bound)
    for bname, B in objs:
        FB = torsion_sequence(B).free_part
        for cname, C in objs:
            for g in enumerate_pog_morphisms(C, FB):
                rep = check_stable_units_instance(B, g)
                if not rep.holds:
                    return f"{bname}, g: {cname} -> F(B): reflector breaks the pullback"
    return None


def _law_prekernel_clause(order_bound):
    from .torsion import pretorsion_sequence
    objs = _finite_objects(order_bound)
    test = tuple(P for _, P in objs)
    for pname, P in objs:
        dec = pretorsion_sequence(P)
        q = UniversalPropertyQuery("ZPrekernel", (dec.unit, dec.torsion_part,
                                                  dec.counit), test)
        rep = verify_universal_property(q)
        if not rep.holds:
            return f"{pname}: prekernel clause fails: {rep.counterexample}"
    return None


def _law_precokernel_clause(order_bound):
    from .torsion import pretorsion_sequence
    objs = _finite_objects(order_bound)
    test = tuple(P for _, P in objs)
    for pname, P in objs:
        dec = pretorsion_sequence(P)
        q = UniversalPropertyQuery("ZPrecokernel", (dec.counit, dec.free_part,
                                                    dec.unit), test)
        rep = verify_universal_property(q)
        if not rep.holds:
            return f"{pname}: precokernel clause fails: {rep.counterexample}"
    return None


def _law_every_morphism_is_covering(order_bound):
    """Deliberately false; the search must produce a witness."""
    from .descent import is_covering
    for desc, m in _all_corpus_morphisms(order_bound):
        if not is_covering(m):
            return f"{desc} is not a covering (kernel has nontrivial units)"
    return None


LAW_REGISTRY = {
    "mono_iff_trivial_kernel": _law_mono_iff_trivial_kernel,
    "mono_pullback_square": _law_mono_pullback_square,
    "kernel_characterization": _law_kernel_characterization,
    "cokernel_characterization": _law_cokernel_characterization,
    "short_exact_characterization": _law_short_exact_characterization,
    "eprime_subset_e": _law_eprime_subset_e,
    "m_subset_mstar": _law_m_subset_mstar,
    "hom_total_to_reduced_zero": _law_hom_total_to_reduced_zero,
    "torsion_sequence": _law_torsion_sequence,
    "stable_units": _law_stable_units,
    "prekernel_clause": _law_prekernel_clause,
    "precokernel_clause": _law_precokernel_clause,
    "every_morphism_is_covering": _law_every_morphism_is_covering,
}


def search_counterexample(law_id, order_bound=6):
    """First counterexample to a registered law on the finite corpus, or None.

    >>> search_counterexample("mono_iff_trivial_kernel", 4) is None
    True
    """
    law = LAW_REGISTRY.get(law_id)
    if law is None:
        raise UnknownLaw(f"no law registered under {law_id!r}")
    return law(order_bound)
