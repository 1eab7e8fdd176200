"""Brute-force ground truth: morphism enumeration, exhaustive on the finite
backend and bounded on the fgab one, and universal-property verification
for every construction the other modules produce.

The verifier quantifies over test morphisms from a fixed list of source
objects: completely on finite groups, up to a matrix-entry bound that every
report records on fgab groups.  A hom is fixed by its images on generators,
so each test arrow is decided there, with no composite hom built.  A
query's preconditions are checked per query; its test-arrow loop is decided
once per (kind, candidate, value its filter reads, test objects, bound):
a kernel's filter reads only ker m, a cokernel's only im m.

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

from .cones import (cone_contains, cone_outside, explicit_cone,
                    extract_generators, units)
from .descent import canonical_cover, is_covering, kernel_pair
from .errors import BackendMismatch, ImageNotNormal, UnknownLaw
from .factor import check_stable_units_instance, in_class
from .groups import (
    GroupHom,
    _preimage_lookup,
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
    found = ((h, cone_preservation(h, P.cone, Q.cone)) for h in homs)
    return tuple(POGMorphism(P, Q, h, cert) for h, (ok, _, cert) in found if ok)


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
    Both checks run per query; the test arrows are then decided once per
    kind, candidate, value the kind's filter reads, test objects and bound.
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
    holds, tested, failure = _test_verdict(
        query.kind, legs, kind.reads(*data), tuple(query.test_objects),
        query.bound)
    return VerificationReport(holds, query.kind, tested, query.bound, failure)


@lru_cache(maxsize=256)
def _test_verdict(kind_name, legs, reads, test_objects, bound):
    """(holds, tested, failure): whether every test arrow the kind's filter
    admits has a mediating map, how many were tried, and the refusal at the
    first that has none.  The loop sees a query only through these
    arguments, so the queries of one candidate and filter value share it."""
    kind = _KINDS[kind_name]
    shape = kind.shape
    mediates = shape.mediator(legs)
    admits = kind.admits(*reads)
    tested = 0
    for X in test_objects:
        if not kind.admits_object(X, *reads):
            continue
        for test in shape.tests(legs, X, bound):
            if not admits(test):
                continue
            tested += 1
            if not mediates(test, X):
                return False, tested, kind.failure.format(X.describe())
    return True, tested, ""


def _arrows(X, A, bound):
    """Test morphisms X -> A; objects on the other backend contribute none."""
    if X.group.backend != A.group.backend:
        return ()
    return enumerate_pog_morphisms(X, A, bound)


def _on_generators(h):
    """h at the generators of its domain, which fix it: the greedy ones of
    a finite domain, the canonical ones (h's own images) of an fgab one."""
    if h.dom.backend == "finite":
        return tuple([h.images[g.coords[0]] for g in h.dom.generators()])
    return h.images


def _composite(g, f):
    """g after f at the generators of f's domain, all a test reads."""
    if f.cod != g.dom:
        raise ValueError("morphisms do not compose")
    return tuple(map(g.hom, _on_generators(f.hom)))


# The shapes.  A candidate is a tuple of legs: the one arrow of a mono or
# an epi, the two arrows of a pair.  A test into it is one arrow X -> cod
# per leg, a test out of it one arrow dom -> X.  A mediator decides on
# generators; it builds a hom only for a cone without any, on an fgab
# carrier, where the canonical generators' images are the whole hom.

def _jointly_monic(legs):
    """Legs with trivially intersecting kernels, along which exact
    preimages give a hom; one such leg is a mono."""
    kernels = [kernel_subgroup(leg.hom) for leg in legs]
    return reduce(subgroup_intersection, kernels).is_trivial()


def _tests_into(legs, X, bound):
    return product(*[_arrows(X, leg.cod, bound) for leg in legs])


def _mediator_into(legs):
    """The legs' joint image is a subgroup, the preimage map on it a hom:
    w with legs[k] . w = test[k] exists iff X's generators have preimages,
    and is monotone iff those of X's cone generators lie in C's cone."""
    find = _preimage_lookup([leg.hom for leg in legs])
    C = legs[0].dom

    def mediates(test, X):
        positives = extract_generators(X.cone)
        if positives is None:
            xs = find([_on_generators(t.hom) for t in test])
            return xs is not None and cone_outside(GroupHom(
                X.group, C.group, tuple(xs)), X.cone, C.cone) is None
        xs = find([(*_on_generators(t.hom), *map(t.hom, positives))
                   for t in test])
        return xs is not None and all(cone_contains(C.cone, x)
                                      for x in xs[len(xs) - len(positives):])
    return mediates


def _epic(legs):
    """An onto leg; a mediating map out of it is unique."""
    return is_surjective(legs[0].hom)


def _tests_out_of(legs, X, bound):
    return _arrows(legs[0].dom, X, bound)


def _mediator_out_of(legs):
    """p is onto, so w with w . p = alpha exists iff alpha kills the
    generators of ker p, and preserves the order iff alpha sends one
    preimage of each generator of Q's cone into X's cone."""
    p, Q = legs[0].hom, legs[0].cod
    killed = kernel_subgroup(p).generators
    positives = extract_generators(Q.cone)
    lifts = _preimage_lookup([p])(
        [Q.group.generators() if positives is None else positives])

    def mediates(alpha, X):
        if not all(alpha.hom(k).is_zero() for k in killed):
            return False
        images = tuple(map(alpha.hom, lifts))
        if positives is None:
            return cone_outside(GroupHom(Q.group, X.group, images),
                                Q.cone, X.cone) is None
        return all(cone_contains(X.cone, y) for y in images)
    return mediates


class _Shape(NamedTuple):
    sound: object      # legs -> whether a found mediating map is a unique hom
    unsound: str       # the refusal when it is not
    tests: object      # (legs, X, bound) -> test arrows between X and legs
    mediator: object   # legs -> ((test, X) -> whether a mediator exists)


_INTO_MONO = _Shape(_jointly_monic, "candidate not monic",
                    _tests_into, _mediator_into)
_INTO_LEGS = _Shape(_jointly_monic, "legs not jointly monic",
                    _tests_into, _mediator_into)
_OUT_OF_EPI = _Shape(_epic, "candidate not epic",
                     _tests_out_of, _mediator_out_of)


# The kinds.  A kind's preconditions see the shape's verdict, so that a
# kind that checked the candidate's mono or epi before keeps its order and
# its words; the shape refuses an unsound candidate the kind let pass.  A
# kind's test-arrow filter is built from the value it reads of the query's
# data, the data itself unless the kind names a smaller value.

def _every(*args):
    return True


def _kernel_preconditions(monic, m, K, inj):
    if not monic:
        return "candidate is not monic"
    if not all(y.is_zero() for y in _composite(m, inj)):
        return "candidate does not compose to zero"
    return None


def _kernel_reads(m, K, inj):
    return (kernel_subgroup(m.hom),)


def _kernel_admits(zeros):
    return lambda test: all(map(zeros.contains, _on_generators(test[0].hom)))


def _equalizer_preconditions(monic, m1, m2, E, inj):
    if _composite(m1, inj) != _composite(m2, inj):
        return "candidate does not equalize"
    if not monic:
        return "candidate not monic"
    return None


def _z_prekernel_preconditions(monic, f, K, k):
    if not monic:
        return "candidate not monic"
    if not is_z_trivial(compose_pog(f, k)):
        return "composite is not trivial"
    return None


def _z_prekernel_admits(f, K, k):
    return lambda test: is_z_trivial(compose_pog(f, test[0]))


def _cokernel_preconditions(epic, m, Q, proj):
    if not epic:
        return "candidate not epic"
    if not all(y.is_zero() for y in _composite(proj, m)):
        return "candidate does not kill the image"
    if not cone_map_surjective(proj):
        return "candidate cone map is not surjective"
    return None


def _cokernel_reads(m, Q, proj):
    """im m: alpha kills m's generator images iff it kills the subgroup
    they generate."""
    return (image_subgroup(m.hom),)


def _cokernel_admits(image):
    return lambda alpha: all(alpha.hom(y).is_zero() for y in image.generators)


def _coequalizer_preconditions(epic, m1, m2, Q, proj):
    if not epic:
        return "candidate not epic"
    if _composite(proj, m1) != _composite(proj, m2):
        return "candidate does not coequalize"
    return None


def _coequalizer_admits(m1, m2, Q, proj):
    images1, images2 = _on_generators(m1.hom), _on_generators(m2.hom)
    return lambda alpha: (tuple(map(alpha.hom, images1))
                          == tuple(map(alpha.hom, images2)))


def _z_precokernel_preconditions(epic, f, C, c):
    if not epic:
        return "candidate not epic"
    if not is_z_trivial(compose_pog(c, f)):
        return "composite is not trivial"
    return None


def _z_precokernel_admits(f, C, c):
    return lambda alpha: is_z_trivial(compose_pog(alpha, f))


def _product_preconditions(jointly_monic, A, B, P, p1, p2):
    if (p1.cod, p2.cod) != (A, B):
        return "legs do not reach the factors"
    return None


def _pullback_preconditions(jointly_monic, f, g, P, p1, p2):
    if _composite(f, p1) != _composite(g, p2):
        return "candidate square does not commute"
    return None


def _commutes(f, g, *candidate):
    """Tests on which f and g agree: f . t = g . t for an equalizer, f . t1
    = g . t2 for a pullback."""
    return lambda test: _composite(f, test[0]) == _composite(g, test[-1])


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
    admits: object = lambda *reads: _every  # (*reads) -> test filter
    admits_object: object = _every  # (X, *reads) -> whether X gives test arrows
    reads: object = lambda *data: data  # (*data) -> what the filters read


_FIRST, _LAST, _LAST_TWO = slice(0, 1), slice(-1, None), slice(-2, None)

_KINDS = {
    "Kernel": _Kind(_INTO_MONO, _LAST, _kernel_preconditions,
                    "no mediating map for a test arrow from {}",
                    _kernel_admits, reads=_kernel_reads),
    "Equalizer": _Kind(_INTO_MONO, _LAST, _equalizer_preconditions,
                       "no mediating map", _commutes),
    "ZPrekernel": _Kind(_INTO_MONO, _LAST, _z_prekernel_preconditions,
                        "no mediating map", _z_prekernel_admits),
    "CoreflectionCounit": _Kind(_INTO_MONO, _FIRST, _coreflection_preconditions,
                                "no corestriction from {}",
                                admits_object=_flagged),
    "Cokernel": _Kind(_OUT_OF_EPI, _LAST, _cokernel_preconditions,
                      "no mediating map to {}", _cokernel_admits,
                      reads=_cokernel_reads),
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
                      "no mediating map into the pullback", _commutes),
}


# ---------------------------------------------------------------------------
# counterexample search over registered laws
# ---------------------------------------------------------------------------

def _finite_objects(order_bound):
    from .corpus import finite_corpus_objects_up_to
    return list(finite_corpus_objects_up_to(order_bound).items())


def _first_failing_morphism(check, order_bound):
    """The search of a per-morphism law: the witness ``check(desc, m)``
    gives for the first corpus morphism m that breaks it, or None."""
    objs = _finite_objects(order_bound)
    for pname, P in objs:
        for qname, Q in objs:
            for m in enumerate_pog_morphisms(P, Q):
                witness = check(f"{pname} -> {qname}", m)
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


def _class_inclusion(small, big, desc, m):
    if in_class(m, small).holds and not in_class(m, big).holds:
        return f"{desc}: in {small} but not in {big}"
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
        kind, data = (("ZPrekernel", (dec.unit, dec.torsion_part, dec.counit))
                      if clause == "prekernel" else
                      ("ZPrecokernel", (dec.counit, dec.free_part, dec.unit)))
        rep = verify_universal_property(UniversalPropertyQuery(kind, data, test))
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
    "eprime_subset_e": partial(_class_inclusion, "Eprime", "E"),
    "m_subset_mstar": partial(_class_inclusion, "M", "Mstar"),
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
