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
from functools import lru_cache, partial, reduce
from itertools import product
from typing import NamedTuple

from .cones import explicit_cone, units
from .descent import canonical_cover, is_covering, kernel_pair
from .errors import BackendMismatch, ImageNotNormal, UnknownLaw
from .factor import check_stable_units_instance, in_class
from .groups import (
    _factoring_through_epi,
    _factoring_through_legs,
    compose,
    enumerate_group_homs,
    enumerate_homs_bounded,
    factor_through_epi,
    image_subgroup,
    is_injective,
    is_surjective,
    kernel_subgroup,
    normal_closure,
    subgroup_equal,
    subgroup_intersection,
    subgroup_preimage,
)
from .pog import (
    POGMorphism,
    classify,
    cone_map_surjective,
    cone_preservation,
    cone_square_is_pullback,
    compose_pog,
    is_normal_epi,
    is_short_exact,
    pog_coequalizer,
    pog_cokernel,
    pog_is_iso,
    pog_kernel,
    structural_morphism,
)
from .torsion import (
    is_z_trivial,
    pretorsion_sequence,
    reflect_F,
    torsion_sequence,
)

DEFAULT_TEST_BOUND = 2


def enumerate_cones(G):
    """All positive cones on a finite group, ordered by size then
    lexicographically.

    A submonoid of a finite group is a subgroup, since -x = (ord x - 1)x,
    so the cones are exactly the normal subgroups: the joins of the normal
    closures of single elements.

    >>> from .groups import cyclic_group
    >>> [len(c.members) for c in enumerate_cones(cyclic_group(4))]
    [1, 2, 4]
    """
    atoms = {normal_closure(G, [x]).elements for x in G.elements()}
    found, frontier = set(atoms), set(atoms)
    while frontier:
        frontier = {frozenset(a + c for a in A for c in C)
                    for A in frontier for C in atoms} - found
        found |= frontier
    cones = [explicit_cone(G, members) for members in found]
    cones.sort(key=lambda c: (len(c.members),
                              sorted(x.coords for x in c.members)))
    return cones


def enumerate_pog_morphisms(P, Q, bound=DEFAULT_TEST_BOUND):
    """All order-preserving morphisms P -> Q.

    Complete between finite objects, whatever the bound; bound-complete
    (matrix entries in [-bound, bound]) between fgab objects.  The lists
    are cached once per finite pair and once per fgab pair and bound.
    """
    finite = P.group.backend == "finite" and Q.group.backend == "finite"
    return _pog_morphisms(P, Q, None if finite else bound)


@lru_cache(maxsize=None)
def _pog_morphisms(P, Q, bound):
    if bound is None:
        homs = enumerate_group_homs(P.group, Q.group)
    elif P.group.backend == "fgab" and Q.group.backend == "fgab":
        homs = enumerate_homs_bounded(P.group, Q.group, bound)
    else:
        raise BackendMismatch("morphism enumeration needs matching backends")
    found = (_certified(h, P, Q) for h in homs)
    return tuple(m for m in found if m is not None)


enumerate_pog_morphisms.cache_info = _pog_morphisms.cache_info
enumerate_pog_morphisms.cache_clear = _pog_morphisms.cache_clear


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

    Each kind has one of three shapes: test arrows factor into a mono, out
    of an epi, or into a pair of jointly monic legs.  Only then is a found
    mediating map a hom and the only one, so any other candidate is
    refused before a test arrow, as are those the kind's preconditions fail.
    """
    kind = _KINDS.get(query.kind)
    if kind is None:
        raise ValueError(f"unknown universal property kind {query.kind!r}")
    shape, data = kind.shape, query.data
    legs = data[kind.legs]
    sound = shape.sound(legs)
    why = kind.preconditions(sound, *data) or (None if sound else shape.unsound)
    if why:
        return VerificationReport(False, query.kind, 0, query.bound, why)
    mediate = shape.mediator(legs)
    tested = 0
    for X in query.test_objects:
        if not kind.admits_object(X, *data):
            continue
        for test in shape.tests(legs, X, query.bound):
            if not kind.admits(test, *data):
                continue
            tested += 1
            if mediate(test, X) is None:
                return VerificationReport(False, query.kind, tested, query.bound,
                                          kind.failure.format(X.describe()))
    return VerificationReport(True, query.kind, tested, query.bound)


def _arrows(X, A, bound):
    """Test morphisms X -> A; objects on the other backend contribute none."""
    if X.group.backend != A.group.backend:
        return ()
    return enumerate_pog_morphisms(X, A, bound)


def _composite(g, f):
    """The group hom of g after f.  The kinds that only test a composite
    (zero, or equal to another) skip the cone certificate ``compose_pog``
    would derive for it."""
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


# The shapes.  A candidate is a tuple of legs: the one arrow of a mono or
# an epi, the two arrows of a pair.  A test into it is one arrow X -> cod
# per leg, a test out of it one arrow dom -> X.

def _jointly_monic(legs):
    """Legs with trivially intersecting kernels, along which
    ``factor_through_legs`` finds a hom; one such leg is a mono."""
    kernels = [kernel_subgroup(leg.hom) for leg in legs]
    return reduce(subgroup_intersection, kernels).is_trivial()


def _tests_into(legs, X, bound):
    return product(*[_arrows(X, leg.cod, bound) for leg in legs])


def _mediator_into(legs):
    factor = _factoring_through_legs([leg.hom for leg in legs])
    return lambda test, X: _certified(factor([t.hom for t in test]),
                                      X, legs[0].dom)


def _epic(legs):
    """An onto leg; ``factor_through_epi`` finds a hom along it."""
    return is_surjective(legs[0].hom)


def _tests_out_of(legs, X, bound):
    return _arrows(legs[0].dom, X, bound)


def _mediator_out_of(legs):
    factor = _factoring_through_epi(legs[0].hom)
    return lambda alpha, X: _certified(factor(alpha.hom), legs[0].cod, X)


class _Shape(NamedTuple):
    sound: object      # legs -> whether a found mediating map is a unique hom
    unsound: str       # the refusal when it is not
    tests: object      # (legs, X, bound) -> test arrows between X and legs
    mediator: object   # legs -> ((test, X) -> mediating morphism, or None),
                       # the legs' preimage lookup built once per query


_INTO_MONO = _Shape(_jointly_monic, "candidate not monic",
                    _tests_into, _mediator_into)
_INTO_LEGS = _Shape(_jointly_monic, "legs not jointly monic",
                    _tests_into, _mediator_into)
_OUT_OF_EPI = _Shape(_epic, "candidate not epic",
                     _tests_out_of, _mediator_out_of)


# The kinds.  A kind's preconditions see the shape's verdict, so that a
# kind that checked the candidate's mono or epi before keeps its order and
# its words; the shape refuses an unsound candidate the kind let pass.

def _every(_, *data):
    return True


def _kernel_preconditions(monic, m, K, inj):
    if not monic:
        return "candidate is not monic"
    if not _composite(m, inj).is_zero():
        return "candidate does not compose to zero"
    return None


def _kernel_admits(test, m, K, inj):
    return _composite(m, test[0]).is_zero()


def _equalizer_preconditions(monic, m1, m2, E, inj):
    if _composite(m1, inj).images != _composite(m2, inj).images:
        return "candidate does not equalize"
    if not monic:
        return "candidate not monic"
    return None


def _equalizer_admits(test, m1, m2, E, inj):
    return _composite(m1, test[0]).images == _composite(m2, test[0]).images


def _z_prekernel_preconditions(monic, f, K, k):
    if not monic:
        return "candidate not monic"
    if not is_z_trivial(compose_pog(f, k)):
        return "composite is not trivial"
    return None


def _z_prekernel_admits(test, f, K, k):
    return is_z_trivial(compose_pog(f, test[0]))


def _cokernel_preconditions(epic, m, Q, proj):
    if not epic:
        return "candidate not epic"
    if not _composite(proj, m).is_zero():
        return "candidate does not kill the image"
    if not cone_map_surjective(proj):
        return "candidate cone map is not surjective"
    return None


def _cokernel_admits(alpha, m, Q, proj):
    return _composite(alpha, m).is_zero()


def _coequalizer_preconditions(epic, m1, m2, Q, proj):
    if not epic:
        return "candidate not epic"
    if _composite(proj, m1).images != _composite(proj, m2).images:
        return "candidate does not coequalize"
    return None


def _coequalizer_admits(alpha, m1, m2, Q, proj):
    return _composite(alpha, m1).images == _composite(alpha, m2).images


def _z_precokernel_preconditions(epic, f, C, c):
    if not epic:
        return "candidate not epic"
    if not is_z_trivial(compose_pog(c, f)):
        return "composite is not trivial"
    return None


def _z_precokernel_admits(alpha, f, C, c):
    return is_z_trivial(compose_pog(alpha, f))


def _product_preconditions(jointly_monic, A, B, P, p1, p2):
    if (p1.cod, p2.cod) != (A, B):
        return "legs do not reach the factors"
    return None


def _pullback_preconditions(jointly_monic, f, g, P, p1, p2):
    if _composite(f, p1).images != _composite(g, p2).images:
        return "candidate square does not commute"
    return None


def _pullback_admits(test, f, g, P, p1, p2):
    return _composite(f, test[0]).images == _composite(g, test[1]).images


def _reflection_preconditions(epic, unit, flag):
    if flag not in classify(unit.cod):
        return f"unit codomain is not {flag}"
    return None


def _coreflection_preconditions(monic, counit, flag):
    if flag not in classify(counit.dom):
        return f"counit domain is not {flag}"
    return None


def _flagged(X, arrow, flag):
    return flag in classify(X)


class _Kind(NamedTuple):
    shape: _Shape
    legs: slice               # where the candidate's legs sit in query.data
    preconditions: object     # (sound, *data) -> reason, or None
    failure: str              # for a test arrow without mediating map; {} is X
    admits: object = _every   # (test, *data) -> whether the test arrow counts
    admits_object: object = _every  # (X, *data) -> whether X gives test arrows


_FIRST, _LAST, _LAST_TWO = slice(0, 1), slice(-1, None), slice(-2, None)

_KINDS = {
    "Kernel": _Kind(_INTO_MONO, _LAST, _kernel_preconditions,
                    "no mediating map for a test arrow from {}",
                    _kernel_admits),
    "Equalizer": _Kind(_INTO_MONO, _LAST, _equalizer_preconditions,
                       "no mediating map", _equalizer_admits),
    "ZPrekernel": _Kind(_INTO_MONO, _LAST, _z_prekernel_preconditions,
                        "no mediating map", _z_prekernel_admits),
    "CoreflectionCounit": _Kind(_INTO_MONO, _FIRST, _coreflection_preconditions,
                                "no corestriction from {}",
                                admits_object=_flagged),
    "Cokernel": _Kind(_OUT_OF_EPI, _LAST, _cokernel_preconditions,
                      "no mediating map to {}", _cokernel_admits),
    "Coequalizer": _Kind(_OUT_OF_EPI, _LAST, _coequalizer_preconditions,
                         "no mediating map", _coequalizer_admits),
    "ZPrecokernel": _Kind(_OUT_OF_EPI, _LAST, _z_precokernel_preconditions,
                          "no mediating map", _z_precokernel_admits),
    "ReflectionUnit": _Kind(_OUT_OF_EPI, _FIRST, _reflection_preconditions,
                            "no factorization through the unit to {}",
                            admits_object=_flagged),
    "Product": _Kind(_INTO_LEGS, _LAST_TWO, _product_preconditions,
                     "no mediating map into the product"),
    "Pullback": _Kind(_INTO_LEGS, _LAST_TWO, _pullback_preconditions,
                      "no mediating map into the pullback", _pullback_admits),
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


def _first_failing_morphism(check, order_bound):
    """The search of a per-morphism law: the witness ``check(desc, m)``
    gives for the first corpus morphism m that breaks it, or None."""
    for desc, m in _all_corpus_morphisms(order_bound):
        witness = check(desc, m)
        if witness:
            return witness
    return None


def _mono_iff_trivial_kernel(desc, m):
    """A hom on a finite domain is mono iff its images are pairwise
    distinct; ``is_injective`` decides it by a trivial kernel."""
    mono = len(set(m.hom.images)) == len(m.hom.images)
    trivial = is_injective(m.hom)
    if mono != trivial:
        return f"{desc}: mono={mono} but trivial kernel={trivial}"
    return None


def _mono_pullback_square(desc, m):
    """Right map mono iff the left square of a morphism of torsion
    sequences is a pullback."""
    mono = is_injective(reflect_F(m).hom)
    # left square over the group level is a pullback iff the units of
    # the domain are the full preimage of the units of the codomain
    pb = subgroup_equal(subgroup_preimage(m.hom, units(m.cod.cone)),
                        units(m.dom.cone))
    if mono != pb:
        return f"{desc}: F(m) mono={mono} but left square pullback={pb}"
    return None


def _kernel_characterization(desc, m):
    K, inj = pog_kernel(m)
    if not subgroup_equal(image_subgroup(inj.hom), kernel_subgroup(m.hom)):
        return f"{desc}: kernel image mismatch"
    if not cone_square_is_pullback(inj.hom, K.cone, m.dom.cone):
        return f"{desc}: kernel cone square is not a pullback"
    return None


def _cokernel_characterization(desc, m):
    try:
        Q, proj = pog_cokernel(m)
    except ImageNotNormal:
        return None
    if not is_normal_epi(proj):
        return f"{desc}: cokernel projection is not a normal epi"
    return None


def _short_exact_characterization(desc, m):
    K, inj = pog_kernel(m)
    try:
        Q, proj = pog_cokernel(inj)
    except ImageNotNormal:
        return None
    cert = is_short_exact(inj, proj)
    if not cert.holds:
        return f"{desc}: kernel/cokernel pair is not short exact: {cert.reasons}"
    return None


def _eprime_subset_e(desc, m):
    if in_class(m, "Eprime").holds and not in_class(m, "E").holds:
        return f"{desc}: in Eprime but not in E"
    return None


def _m_subset_mstar(desc, m):
    if in_class(m, "M").holds and not in_class(m, "Mstar").holds:
        return f"{desc}: in M but not in Mstar"
    return None


def _hom_total_to_reduced_zero(desc, m):
    if ("total" in classify(m.dom) and "partially_ordered" in classify(m.cod)
            and not m.is_zero()):
        return f"{desc}: nonzero morphism {m.hom}"
    return None


def _every_morphism_is_covering(desc, m):
    """Deliberately false; the search must produce a witness."""
    if not is_covering(m):
        return f"{desc} is not a covering (kernel has nontrivial units)"
    return None


def _law_torsion_sequence(order_bound):
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
    objs = _finite_objects(order_bound)
    for bname, B in objs:
        FB = torsion_sequence(B).free_part
        for cname, C in objs:
            for g in enumerate_pog_morphisms(C, FB):
                rep = check_stable_units_instance(B, g)
                if not rep.holds:
                    return f"{bname}, g: {cname} -> F(B): reflector breaks the pullback"
    return None


def _law_pretorsion_clause(clause, order_bound):
    """The Z-prekernel or the Z-precokernel clause of every pretorsion
    sequence."""
    objs = _finite_objects(order_bound)
    test = tuple(P for _, P in objs)
    for pname, P in objs:
        dec = pretorsion_sequence(P)
        if clause == "prekernel":
            q = UniversalPropertyQuery("ZPrekernel", (dec.unit, dec.torsion_part,
                                                      dec.counit), test)
        else:
            q = UniversalPropertyQuery("ZPrecokernel", (dec.counit, dec.free_part,
                                                        dec.unit), test)
        rep = verify_universal_property(q)
        if not rep.holds:
            return f"{pname}: {clause} clause fails: {rep.counterexample}"
    return None


def _law_coequalizer_of_kernel_pair(order_bound):
    """On the fgab corpus, whatever the bound: the cover projection of each
    object, a normal epi, is the coequalizer of its kernel pair."""
    from .corpus import fgab_corpus_objects
    for name, P in sorted(fgab_corpus_objects().items()):
        p = canonical_cover(P).projection
        R = kernel_pair(p)
        Q, q = pog_coequalizer(R.r1, R.r2)
        cmp = factor_through_epi(q.hom, p.hom)
        if not pog_is_iso(structural_morphism(cmp, Q, P, "comparison")):
            return f"{name}: the cover projection does not coequalize its kernel pair"
    return None


_MORPHISM_LAWS = {
    "mono_iff_trivial_kernel": _mono_iff_trivial_kernel,
    "mono_pullback_square": _mono_pullback_square,
    "kernel_characterization": _kernel_characterization,
    "cokernel_characterization": _cokernel_characterization,
    "short_exact_characterization": _short_exact_characterization,
    "eprime_subset_e": _eprime_subset_e,
    "m_subset_mstar": _m_subset_mstar,
    "hom_total_to_reduced_zero": _hom_total_to_reduced_zero,
    "every_morphism_is_covering": _every_morphism_is_covering,
}

LAW_REGISTRY = {
    **{law: partial(_first_failing_morphism, check)
       for law, check in _MORPHISM_LAWS.items()},
    "torsion_sequence": _law_torsion_sequence,
    "stable_units": _law_stable_units,
    "normal_epi_coequalizes_kernel_pair": _law_coequalizer_of_kernel_pair,
    "prekernel_clause": partial(_law_pretorsion_clause, "prekernel"),
    "precokernel_clause": partial(_law_pretorsion_clause, "precokernel"),
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
