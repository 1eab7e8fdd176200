"""Command-line interface: one JSON document in, one JSON report out.

The workspace document has four top-level maps: ``groups``, ``cones``,
``objects`` and ``morphisms``.  Finite groups are Cayley tables over named
elements, f.g. abelian groups are (rank, torsion) pairs; cones are element
lists (finite) or integer generator vectors (fgab); morphisms are element
maps (finite) or matrix blocks "free", "mixed", "torsion" (fgab).

Reports are deterministic: keys sorted, no timestamps, bounds and window
sizes echoed.  ``--window`` is validated and echoed, but no computation
reads it: every verdict is exact.  Exit codes: 0 success, 1 input error,
2 property failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import errors
from .cones import (
    GeneratorCone,
    SubgroupCone,
    explicit_cone,
    extract_generators,
    generator_cone,
    is_reduced,
)
from .groups import (
    fgab_presentation,
    make_finite_group,
    make_hom,
)
from .pog import (
    classify,
    is_normal_epi,
    is_short_exact,
    make_pog,
    make_pog_morphism,
    pog_coequalizer,
    pog_cokernel,
    pog_equalizer,
    pog_kernel,
    pog_product,
    pog_pullback,
)


# fgab_presentation builds n x n matrices for n = rank + len(torsion)
# coordinates, so memory grows quadratically: about 57 MiB at n = 1000
MAX_FGAB_COORDS = 256


@dataclass
class Workspace:
    groups: dict
    presentations: dict       # fgab name -> Presentation (declared coords)
    cones: dict
    objects: dict
    morphisms: dict


def _fail_parse(path, why):
    raise errors.ParseError(f"at {path}: {why}")


def _entries(document, key):
    """The (name, spec) pairs of a top-level map; every spec an object."""
    section = document.get(key, {})
    if not isinstance(section, dict):
        _fail_parse(f"$.{key}", "must be a JSON object")
    for name, spec in section.items():
        if not isinstance(spec, dict):
            _fail_parse(f"$.{key}.{name}", "must be a JSON object")
    return section.items()


def _lookup(table, key, path, what):
    if not isinstance(key, str) or key not in table:
        _fail_parse(path, f"unknown {what} {key!r}")
    return table[key]


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_rows(v):
    return isinstance(v, list) and all(
        isinstance(row, list) and all(_is_int(x) for x in row) for row in v)


def _is_element_refs(v):
    """A list of element names or indices (finite backend)."""
    return isinstance(v, list) and all(isinstance(x, str) or _is_int(x)
                                       for x in v)


def parse_workspace(document):
    """Validated workspace from a parsed JSON document.

    >>> ws = parse_workspace({"groups": {"Z": {"kind": "fgab", "rank": 1,
    ...     "torsion": []}}, "cones": {"N": {"group": "Z",
    ...     "generators": [[1]]}}, "objects": {"X": {"group": "Z",
    ...     "cone": "N"}}, "morphisms": {}})
    >>> ws.objects["X"].group.rank
    1
    """
    if not isinstance(document, dict):
        _fail_parse("$", "document must be a JSON object")
    groups, presentations = {}, {}
    for name, spec in _entries(document, "groups"):
        path = f"$.groups.{name}"
        kind = spec.get("kind")
        try:
            if kind == "finite":
                groups[name] = make_finite_group(spec["elements"], spec["table"])
            elif kind == "fgab":
                rank = spec.get("rank", 0)
                torsion = spec.get("torsion", [])
                if not _is_int(rank) or not isinstance(torsion, list):
                    _fail_parse(path, "'rank' must be an integer and "
                                "'torsion' a list")
                if rank < 0 or any(not _is_int(d) or d <= 0
                                   for d in torsion):
                    raise errors.BadInvariantFactors(
                        "rank must be >= 0 and torsion positive integers")
                n = rank + len(torsion)
                if n > MAX_FGAB_COORDS:
                    raise errors.ValidationError(
                        f"group {name}: {n} coordinates exceed the limit "
                        f"of {MAX_FGAB_COORDS}")
                rels = []
                for j, d in enumerate(torsion):
                    col = [0] * n
                    col[rank + j] = d
                    rels.append(col)
                pres = fgab_presentation(n, rels)
                groups[name] = pres.group
                presentations[name] = pres
            else:
                _fail_parse(path, f"unknown kind {kind!r}")
        except (errors.NotAGroup, errors.BadInvariantFactors) as exc:
            raise errors.ValidationError(f"group {name}: {exc}") from exc
        except KeyError as exc:
            _fail_parse(path, f"missing key {exc}")
    cones = {}
    for name, spec in _entries(document, "cones"):
        path = f"$.cones.{name}"
        gname = spec.get("group")
        G = _lookup(groups, gname, path, "group")
        try:
            if "elements" in spec:
                if G.backend != "finite":
                    _fail_parse(path, "element lists need a finite group")
                if not _is_element_refs(spec["elements"]):
                    _fail_parse(path, "'elements' must list element names")
                cones[name] = explicit_cone(
                    G, [G.elem(e) for e in spec["elements"]])
            elif "generators" in spec:
                if G.backend != "fgab":
                    _fail_parse(path, "generator vectors need an fgab group")
                if not _is_int_rows(spec["generators"]):
                    _fail_parse(path, "'generators' must be integer vectors")
                pres = presentations.get(gname)
                gens = []
                for vec in spec["generators"]:
                    if pres is not None and len(vec) == pres.ncoords:
                        gens.append(pres.project(vec))
                    else:
                        gens.append(G.elem(vec))
                cones[name] = generator_cone(G, gens)
            else:
                _fail_parse(path, "need either 'elements' or 'generators'")
        except (ValueError, IndexError) as exc:
            raise errors.ValidationError(f"cone {name}: {exc}") from exc
    objects = {}
    for name, spec in _entries(document, "objects"):
        path = f"$.objects.{name}"
        G = _lookup(groups, spec.get("group"), path, "group")
        cone = _lookup(cones, spec.get("cone"), path, "cone")
        try:
            objects[name] = make_pog(G, cone)
        except errors.ConeAxiomViolation as exc:
            raise errors.ValidationError(
                f"object {name}: cone axioms fail "
                f"(witness {exc.witness})") from exc
    morphisms = {}
    for name, spec in _entries(document, "morphisms"):
        path = f"$.morphisms.{name}"
        src, dst = spec.get("from"), spec.get("to")
        if not all(isinstance(x, str) and x in objects for x in (src, dst)):
            _fail_parse(path, "unknown endpoint object")
        dom, cod = objects[src], objects[dst]
        try:
            if "map" in spec:
                if dom.group.backend != "finite":
                    _fail_parse(path, "'map' needs a finite domain")
                images = spec["map"]
                if not (_is_element_refs(images)
                        if cod.group.backend == "finite"
                        else _is_int_rows(images)):
                    _fail_parse(path, "'map' must list codomain elements")
                images = [cod.group.elem(i) for i in images]
                hom = make_hom(dom.group, cod.group, images)
            elif "matrix" in spec:
                hom = _hom_from_blocks(dom.group, cod.group, spec["matrix"])
            else:
                _fail_parse(path, "need either 'map' or 'matrix'")
            morphisms[name] = make_pog_morphism(hom, dom, cod)
        except errors.ConeNotPreserved as exc:
            raise errors.ValidationError(
                f"morphism {name}: cone not preserved at generator "
                f"{exc.generator}") from exc
        except ValueError as exc:
            raise errors.ValidationError(f"morphism {name}: {exc}") from exc
    return Workspace(groups, presentations, cones, objects, morphisms)


def _hom_from_blocks(dom, cod, blocks):
    """Assemble an fgab -> fgab hom from 'free' / 'mixed' / 'torsion' blocks."""
    if dom.backend != "fgab" or cod.backend != "fgab":
        raise ValueError("matrix blocks need fgab groups on both sides")
    if not isinstance(blocks, dict) or not all(
            _is_int_rows(blocks.get(k, [])) for k in ("free", "mixed", "torsion")):
        raise ValueError("matrix blocks must be integer matrices")
    free = blocks.get("free", [])
    mixed = blocks.get("mixed", [])
    tors = blocks.get("torsion", [])
    if any(len(row) > dom.rank for row in free + mixed) or any(
            len(row) > len(dom.torsion) for row in tors):
        raise ValueError("a matrix row is longer than its domain block")
    images = []
    for j in range(dom.rank):
        coords = [row[j] if j < len(row) else 0 for row in free]
        coords += [row[j] if j < len(row) else 0 for row in mixed]
        coords = coords + [0] * (cod.ncoords - len(coords))
        images.append(cod.elem(coords))
    for j in range(len(dom.torsion)):
        coords = [0] * cod.rank
        coords += [row[j] if j < len(row) else 0 for row in tors]
        coords = coords + [0] * (cod.ncoords - len(coords))
        images.append(cod.elem(coords))
    return make_hom(dom, cod, images)


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

def group_json(G):
    if G.backend == "finite":
        return {"kind": "finite", "order": G.order()}
    return {"kind": "fgab", "rank": G.rank, "torsion": list(G.torsion)}


def cone_json(c):
    if c.group.backend == "finite":
        return {"kind": "elements", "size": len(c.members)}
    gens = extract_generators(c)
    out = ({"kind": "generators"}
           if isinstance(c, (GeneratorCone, SubgroupCone))
           else {"kind": "recipe", "node": type(c).__name__})
    if gens is not None:
        out["generators"] = [list(g.coords) for g in gens]
    return out


def object_json(P):
    return {"group": group_json(P.group), "cone": cone_json(P.cone)}


def classification_json(cls):
    return {"flags": sorted(cls.flags), "exact": cls.exact, "window": None}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _need(ws, mapping, name, what):
    store = getattr(ws, mapping)
    if name not in store:
        raise errors.ValidationError(f"unknown {what} {name!r}")
    return store[name]


def cmd_validate(ws, args, opts):
    return {"valid": True,
            "groups": sorted(ws.groups),
            "objects": sorted(ws.objects),
            "morphisms": sorted(ws.morphisms)}, 0


def cmd_classify(ws, args, opts):
    P = _need(ws, "objects", args.object, "object")
    cls = classify(P)
    return {"object": args.object,
            "classification": classification_json(cls)}, 0


def cmd_torsion(ws, args, opts):
    from .torsion import torsion_sequence
    P = _need(ws, "objects", args.object, "object")
    dec = torsion_sequence(P)
    report = {
        "object": args.object,
        "torsion_part": {"order": dec.torsion_part.group.order(),
                         "group": group_json(dec.torsion_part.group)},
        "torsion_free": {"group": group_json(dec.free_part.group),
                         "reduced": is_reduced(dec.free_part.cone)},
        "short_exact": dec.certificate.holds,
        "exact_checks": True, "window": None,
    }
    if dec.free_part.group.backend == "finite":
        report["torsion_free"]["cone_size"] = len(dec.free_part.cone.members)
    return report, 0 if dec.certificate.holds else 2


def cmd_pretorsion(ws, args, opts):
    from .torsion import pretorsion_sequence
    P = _need(ws, "objects", args.object, "object")
    dec = pretorsion_sequence(P)
    report = {
        "object": args.object,
        "torsion_part": object_json(dec.torsion_part),
        "torsion_part_classification":
            classification_json(classify(dec.torsion_part)),
        "torsion_free": object_json(dec.free_part),
        "preexact": dec.certificate.holds,
    }
    return report, 0 if dec.certificate.holds else 2


def cmd_reflect(ws, args, opts):
    from .torsion import reflect_F, torsion_sequence
    name = args.name
    if name in ws.morphisms:
        Fm = reflect_F(ws.morphisms[name])
        from .pog import pog_is_iso
        return {"morphism": name,
                "reflected": {"from": object_json(Fm.dom),
                              "to": object_json(Fm.cod)},
                "iso": pog_is_iso(Fm), "exact": True}, 0
    P = _need(ws, "objects", name, "object or morphism")
    dec = torsion_sequence(P)
    return {"object": name,
            "torsion_free": object_json(dec.free_part),
            "unit_normal_epi": is_normal_epi(dec.unit)}, 0


def cmd_proto_reflect(ws, args, opts):
    from .torsion import proto_reflect
    P = _need(ws, "objects", args.object, "object")
    EP, unit = proto_reflect(P)
    return {"object": args.object,
            "reflection": object_json(EP),
            "classification": classification_json(classify(EP))}, 0


def cmd_factor(ws, args, opts):
    from .factor import em_factor, ml_factor
    m = _need(ws, "morphisms", args.morphism, "morphism")
    fr = (em_factor if args.system == "em" else ml_factor)(m)
    ok = fr.e_class.holds and fr.m_class.holds and fr.recomposes(m)
    return {"morphism": args.morphism,
            "system": fr.system,
            "mid": object_json(fr.mid),
            "e_class": {"name": fr.e_class.cls, "holds": fr.e_class.holds},
            "m_class": {"name": fr.m_class.cls, "holds": fr.m_class.holds},
            "recomposes": fr.recomposes(m)}, 0 if ok else 2


def cmd_class(ws, args, opts):
    from .factor import in_class
    m = _need(ws, "morphisms", args.morphism, "morphism")
    rep = in_class(m, args.of)
    return {"morphism": args.morphism, "class": args.of,
            "in_class": rep.holds, "exact": rep.exact,
            "detail": rep.detail}, 0 if rep.holds else 2


def cmd_covering(ws, args, opts):
    from .descent import is_covering
    m = _need(ws, "morphisms", args.morphism, "morphism")
    ok = is_covering(m)
    return {"morphism": args.morphism, "covering": ok}, 0 if ok else 2


def cmd_cover(ws, args, opts):
    from .descent import canonical_cover
    P = _need(ws, "objects", args.object, "object")
    cover = canonical_cover(P)
    kinds = [kind for kind, _ in cover.axioms.failures]
    report = {
        "object": args.object,
        "scan": {
            "submonoid_violations": kinds.count("identity")
            + kinds.count("closure"),
            "conjugation_violations": kinds.count("conjugation"),
            # the negative of a non-zero cover positive has n <= -1
            "reducedness_violations": 0,
        },
        "surjectivity": cover.surjectivity_note,
        "realized": cover.realized is not None,
    }
    if cover.projection is not None:
        # effective descent morphisms are exactly the normal epis here
        normal_epi = is_normal_epi(cover.projection)
        report["projection_normal_epi"] = normal_epi
        report["effective_descent"] = normal_epi
    return report, 0 if cover.axioms.ok else 2


def cmd_kernel(ws, args, opts):
    m = _need(ws, "morphisms", args.morphism, "morphism")
    K, inj = pog_kernel(m)
    return {"morphism": args.morphism,
            "kernel": object_json(K),
            "classification": classification_json(classify(K))}, 0


def cmd_cokernel(ws, args, opts):
    m = _need(ws, "morphisms", args.morphism, "morphism")
    Q, proj = pog_cokernel(m)
    return {"morphism": args.morphism,
            "cokernel": object_json(Q),
            "projection_normal_epi": is_normal_epi(proj)}, 0


def _inputs(ws, kind, names):
    """The named inputs of a construction, checked to fit it: one morphism
    for a kernel or cokernel, two objects for a product, two morphisms
    with a common codomain for a pullback, a parallel pair otherwise."""
    want = 1 if kind in ("kernel", "cokernel") else 2
    if len(names) != want:
        raise errors.ValidationError(
            f"{kind} needs {want} {'name' if want == 1 else 'names'}, "
            f"got {len(names)}")
    if kind == "product":
        return [_need(ws, "objects", name, "object") for name in names]
    ms = [_need(ws, "morphisms", name, "morphism") for name in names]
    if kind == "pullback" and ms[0].cod != ms[1].cod:
        raise errors.ValidationError("pullback needs a common codomain")
    if kind in ("equalizer", "coequalizer") and (ms[0].dom != ms[1].dom
                                                 or ms[0].cod != ms[1].cod):
        raise errors.ValidationError(f"{kind} needs a parallel pair")
    return ms


_LIMITS = {"product": pog_product, "pullback": pog_pullback,
           "equalizer": pog_equalizer}


def cmd_limit(ws, args, opts):
    if args.kind not in _LIMITS:
        raise errors.UnknownCommand(f"unknown limit kind {args.kind!r}")
    lim = _LIMITS[args.kind](*_inputs(ws, args.kind, args.args))
    return {"kind": args.kind, "inputs": list(args.args),
            "limit": object_json(lim.obj)}, 0


def cmd_sequence_check(ws, args, opts):
    k = _need(ws, "morphisms", args.k, "morphism")
    f = _need(ws, "morphisms", args.f, "morphism")
    if k.cod != f.dom:
        raise errors.ValidationError("arrows do not compose")
    cert = is_short_exact(k, f)
    return {"k": args.k, "f": args.f, "short_exact": cert.holds,
            "exact_checks": True, "window": None,
            "reasons": list(cert.reasons)}, 0 if cert.holds else 2


def cmd_stable_units(ws, args, opts):
    from .factor import check_stable_units_instance
    from .torsion import torsion_sequence
    B = _need(ws, "objects", args.object, "object")
    g = _need(ws, "morphisms", args.morphism, "morphism")
    if g.cod != torsion_sequence(B).free_part:
        raise errors.ValidationError(
            "g must land in the torsion-free part of B")
    rep = check_stable_units_instance(B, g)
    return {"object": args.object, "morphism": args.morphism,
            "preserved": rep.holds, "exact": True,
            "window": None}, 0 if rep.holds else 2


def cmd_orthogonal(ws, args, opts):
    from .factor import check_orthogonality
    e = _need(ws, "morphisms", args.e, "morphism")
    m = _need(ws, "morphisms", args.m, "morphism")
    a = _need(ws, "morphisms", args.a, "morphism")
    b = _need(ws, "morphisms", args.b, "morphism")
    if a.cod != m.dom or e.cod != b.dom:
        raise errors.ValidationError("morphisms do not compose")
    rep = check_orthogonality(e, m, a, b)
    return {"e": args.e, "m": args.m,
            "orthogonal": rep.holds, "unique": rep.unique,
            "detail": rep.detail}, 0 if rep.holds else 2


def cmd_schreier(ws, args, opts):
    from .schreier import is_special_schreier
    m = _need(ws, "morphisms", args.morphism, "morphism")
    rep = is_special_schreier(m.dom.cone, m.hom)
    return {"morphism": args.morphism,
            "special_schreier": rep.holds,
            "window": None,
            "exhaustive": True}, 0 if rep.holds else 2


def cmd_enumerate(ws, args, opts):
    from .oracle import enumerate_cones, enumerate_pog_morphisms
    if args.cones:
        G = _need(ws, "groups", args.cones, "group")
        if G.backend != "finite":
            raise errors.ValidationError("cone enumeration needs a finite group")
        cones = enumerate_cones(G)
        return {"group": args.cones,
                "cones": [sorted(G.describe_element(x) for x in c.members)
                          for c in cones]}, 0
    src = _need(ws, "objects", args.morphisms[0], "object")
    dst = _need(ws, "objects", args.morphisms[1], "object")
    ms = enumerate_pog_morphisms(src, dst, opts["hom_bound"])
    return {"from": args.morphisms[0], "to": args.morphisms[1],
            "bound": opts["hom_bound"], "count": len(ms)}, 0


def cmd_oracle(ws, args, opts):
    from .oracle import UniversalPropertyQuery, verify_universal_property
    test = tuple(ws.objects[k] for k in sorted(ws.objects))
    kind = args.kind
    if kind not in ("kernel", "cokernel", "product", "pullback",
                    "coequalizer"):
        raise errors.UnknownCommand(f"unknown oracle kind {kind!r}")
    inputs = _inputs(ws, kind, args.args)
    if kind == "kernel":
        candidate = pog_kernel(*inputs)
    elif kind == "cokernel":
        candidate = pog_cokernel(*inputs)
    elif kind == "coequalizer":
        candidate = pog_coequalizer(*inputs)
    else:
        lim = _LIMITS[kind](*inputs)
        candidate = (lim.obj, *lim.legs)
    q = UniversalPropertyQuery(kind.capitalize(), (*inputs, *candidate),
                               test, opts["hom_bound"])
    rep = verify_universal_property(q)
    return {"kind": rep.kind, "holds": rep.holds, "tested": rep.tested,
            "bound": rep.bound,
            "counterexample": rep.counterexample}, 0 if rep.holds else 2


def cmd_search(ws, args, opts):
    from .corpus import finite_corpus_objects_up_to
    from .oracle import search_counterexample
    # the corpus stops short of most bounds; say how far the search went
    checked = max((P.group.order() for P in
                   finite_corpus_objects_up_to(args.bound).values()),
                  default=None)
    if checked is None:
        raise errors.ValidationError(
            f"--bound {args.bound} reaches no corpus object")
    witness = search_counterexample(args.law, args.bound)
    return {"law": args.law, "bound": args.bound, "checked_order": checked,
            "counterexample": witness}, 0 if witness is None else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _corpus_workspace():
    from .corpus import corpus_objects, finite_corpus_groups
    objects = dict(corpus_objects())
    groups = dict(finite_corpus_groups())
    for name, P in objects.items():
        groups.setdefault(name.split("/")[0], P.group)
    return Workspace(groups, {}, {}, objects, {})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="preordgrp",
        description="exact computations with preordered groups")
    parser.add_argument("--workspace", help="path to a JSON workspace document")
    parser.add_argument("--corpus", action="store_true",
                        help="use the bundled corpus as the workspace")
    parser.add_argument("--window", type=int, default=8,
                        help="echoed in every report; no computation "
                             "reads it")
    parser.add_argument("--hom-bound", type=int, default=10,
                        help="matrix-entry bound for fgab hom enumeration")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate")
    p = sub.add_parser("classify"); p.add_argument("object")
    p = sub.add_parser("torsion"); p.add_argument("object")
    p = sub.add_parser("pretorsion"); p.add_argument("object")
    p = sub.add_parser("reflect"); p.add_argument("name")
    p = sub.add_parser("proto-reflect"); p.add_argument("object")
    p = sub.add_parser("factor")
    p.add_argument("--system", choices=("em", "ml"), required=True)
    p.add_argument("morphism")
    p = sub.add_parser("class")
    p.add_argument("--of", choices=("E", "M", "Eprime", "Mstar"), required=True)
    p.add_argument("morphism")
    p = sub.add_parser("covering"); p.add_argument("morphism")
    p = sub.add_parser("cover"); p.add_argument("object")
    p = sub.add_parser("kernel"); p.add_argument("morphism")
    p = sub.add_parser("cokernel"); p.add_argument("morphism")
    p = sub.add_parser("limit")
    p.add_argument("--kind", choices=("product", "pullback", "equalizer"),
                   required=True)
    p.add_argument("args", nargs=2)
    p = sub.add_parser("sequence-check")
    p.add_argument("k"); p.add_argument("f")
    p = sub.add_parser("stable-units")
    p.add_argument("object"); p.add_argument("morphism")
    p = sub.add_parser("orthogonal")
    p.add_argument("e"); p.add_argument("m"); p.add_argument("a"); p.add_argument("b")
    p = sub.add_parser("schreier"); p.add_argument("morphism")
    p = sub.add_parser("enumerate")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--cones", metavar="GROUP")
    g.add_argument("--morphisms", nargs=2, metavar=("FROM", "TO"))
    p = sub.add_parser("oracle")
    p.add_argument("--kind", required=True,
                   choices=("kernel", "cokernel", "product", "pullback",
                            "coequalizer"))
    p.add_argument("args", nargs="+")
    p = sub.add_parser("search")
    p.add_argument("law")
    p.add_argument("--bound", type=int, default=6)
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "torsion": cmd_torsion,
    "pretorsion": cmd_pretorsion,
    "reflect": cmd_reflect,
    "proto-reflect": cmd_proto_reflect,
    "factor": cmd_factor,
    "class": cmd_class,
    "covering": cmd_covering,
    "cover": cmd_cover,
    "kernel": cmd_kernel,
    "cokernel": cmd_cokernel,
    "limit": cmd_limit,
    "sequence-check": cmd_sequence_check,
    "stable-units": cmd_stable_units,
    "orthogonal": cmd_orthogonal,
    "schreier": cmd_schreier,
    "enumerate": cmd_enumerate,
    "oracle": cmd_oracle,
    "search": cmd_search,
}


def run_command(ws, command, args, opts):
    handler = _COMMANDS.get(command)
    if handler is None:
        raise errors.UnknownCommand(f"unknown command {command!r}")
    report, code = handler(ws, args, opts)
    report = {"command": command, "window": opts["window"],
              "hom_bound": opts["hom_bound"], **report}
    return report, code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    opts = {"window": args.window, "hom_bound": args.hom_bound}
    try:
        if args.window < 1:
            raise errors.ValidationError("--window must be at least 1")
        if args.hom_bound < 0:
            raise errors.ValidationError("--hom-bound must be at least 0")
        if args.command == "search" and args.bound < 1:
            raise errors.ValidationError("--bound must be at least 1")
        if args.corpus:
            ws = _corpus_workspace()
        elif args.workspace:
            with open(args.workspace, encoding="utf-8") as fh:
                try:
                    document = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise errors.ParseError(f"invalid JSON: {exc}") from exc
            ws = parse_workspace(document)
        else:
            try:
                document = json.load(sys.stdin)
            except json.JSONDecodeError as exc:
                raise errors.ParseError(f"invalid JSON: {exc}") from exc
            ws = parse_workspace(document)
        report, code = run_command(ws, args.command, args, opts)
    except errors.PreordGrpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, sort_keys=True, separators=(",", ": "),
                     indent=1))
    return code


if __name__ == "__main__":
    sys.exit(main())
