"""Golden oracle verdicts on the finite corpus of order at most 4.

The fixture ``data/oracle_reports.json`` holds ``(kind, holds, tested,
bound, counterexample)`` of ``verify_universal_property`` for the queries
below, with the 12 finite corpus objects of order at most 4 as both the
corpus and the test objects, and the witness of
``search_counterexample(law, 4)`` for every registered law:

- Kernel and Cokernel of every corpus morphism, Equalizer and Coequalizer
  of every morphism with its zero morphism;
- Product of every object pair, Pullback of every 32nd morphism with
  itself and with its zero morphism;
- the unit and counit of every torsion and pretorsion sequence, the unit
  of every protomodular reflection, and the Z-prekernel and
  Z-precokernel queries of every pretorsion sequence;
- failing candidates: the identity as a kernel or cokernel, every
  cokernel whose candidate cone is replaced by the total cone, the
  kernel of every 16th morphism with its cone replaced by the discrete
  one, and the zero map onto the trivial object as the cokernel of every
  morphism with a nontrivial codomain, which only the epi mediator's
  check on the generators of the candidate's kernel can refuse.

Any change to these verdicts must be deliberate: regenerate the fixture
with

    PYTHONPATH=src python tests/test_oracle_reports.py

and review the diff.
"""

import functools
import json
import pathlib

import pytest

from preordgrp.cones import explicit_cone
from preordgrp.corpus import finite_corpus_objects_up_to
from preordgrp.errors import ImageNotNormal
from preordgrp.groups import cyclic_group
from preordgrp.oracle import (
    LAW_REGISTRY,
    UniversalPropertyQuery,
    enumerate_pog_morphisms,
    search_counterexample,
    verify_universal_property,
)
from preordgrp.pog import (
    PreorderedGroup,
    identity_morphism,
    pog_coequalizer,
    pog_cokernel,
    pog_equalizer,
    pog_kernel,
    pog_product,
    pog_pullback,
    structural_morphism,
    zero_morphism,
)
from preordgrp.torsion import (
    pretorsion_sequence,
    proto_reflect,
    torsion_sequence,
)

FIXTURE = pathlib.Path(__file__).parent / "data" / "oracle_reports.json"
ORDER = 4
SAMPLE_STRIDE = 16
PULLBACK_STRIDE = 32


def _objects():
    return finite_corpus_objects_up_to(ORDER)


def _test_objects():
    return tuple(_objects().values())


def _morphisms():
    objs = _objects()
    for pn, P in objs.items():
        for qn, Q in objs.items():
            for i, m in enumerate(enumerate_pog_morphisms(P, Q)):
                yield f"{pn} -> {qn} #{i}", m


def _report(kind, *data):
    rep = verify_universal_property(
        UniversalPropertyQuery(kind, data, _test_objects()))
    return [rep.kind, rep.holds, rep.tested, rep.bound, rep.counterexample]


def kernel_reports():
    out = {}
    for i, (desc, m) in enumerate(_morphisms()):
        K, inj = pog_kernel(m)
        out[f"Kernel {desc}"] = _report("Kernel", m, K, inj)
        out[f"Kernel {desc} identity"] = _report(
            "Kernel", m, m.dom, identity_morphism(m.dom))
        if i % SAMPLE_STRIDE == 0:
            discrete = PreorderedGroup(K.group, explicit_cone(K.group,
                                                              [K.group.zero]))
            out[f"Kernel {desc} discrete cone"] = _report(
                "Kernel", m, discrete,
                structural_morphism(inj.hom, discrete, m.dom, "discrete cone"))
    return out


def cokernel_reports():
    T = cyclic_group(1)
    trivial = PreorderedGroup(T, explicit_cone(T, [T.zero]))
    out = {}
    for desc, m in _morphisms():
        out[f"Cokernel {desc} identity"] = _report(
            "Cokernel", m, m.cod, identity_morphism(m.cod))
        if m.cod.group.order() > 1:
            out[f"Cokernel {desc} trivial object"] = _report(
                "Cokernel", m, trivial, zero_morphism(m.cod, trivial))
        try:
            Q, proj = pog_cokernel(m)
        except ImageNotNormal:
            continue
        out[f"Cokernel {desc}"] = _report("Cokernel", m, Q, proj)
        total = PreorderedGroup(Q.group, explicit_cone(Q.group,
                                                       Q.group.elements()))
        out[f"Cokernel {desc} total cone"] = _report(
            "Cokernel", m, total,
            structural_morphism(proj.hom, m.cod, total, "total cone"))
    return out


def equalizer_reports():
    out = {}
    for desc, m in _morphisms():
        zero = zero_morphism(m.dom, m.cod)
        eq = pog_equalizer(m, zero)
        out[f"Equalizer {desc} zero"] = _report(
            "Equalizer", m, zero, eq.obj, eq.legs[0])
        try:
            C, proj = pog_coequalizer(m, zero)
        except ImageNotNormal:
            continue
        out[f"Coequalizer {desc} zero"] = _report(
            "Coequalizer", m, zero, C, proj)
    return out


def product_reports():
    objs = _objects()
    out = {}
    for pn, P in objs.items():
        for qn, Q in objs.items():
            lim = pog_product(P, Q)
            out[f"Product {pn} x {qn}"] = _report(
                "Product", P, Q, lim.obj, lim.legs[0], lim.legs[1])
    return out


def pullback_reports():
    out = {}
    for desc, m in list(_morphisms())[::PULLBACK_STRIDE]:
        for other, g in (("itself", m), ("zero", zero_morphism(m.dom, m.cod))):
            pb = pog_pullback(m, g)
            out[f"Pullback {desc} with {other}"] = _report(
                "Pullback", m, g, pb.obj, pb.legs[0], pb.legs[1])
    return out


def sequence_reports():
    out = {}
    for name, P in _objects().items():
        dec = torsion_sequence(P)
        out[f"ReflectionUnit torsion {name}"] = _report(
            "ReflectionUnit", dec.unit, "partially_ordered")
        out[f"CoreflectionCounit torsion {name}"] = _report(
            "CoreflectionCounit", dec.counit, "total")
        out[f"ReflectionUnit protomodular {name}"] = _report(
            "ReflectionUnit", proto_reflect(P)[1], "protomodular")
        dec = pretorsion_sequence(P)
        out[f"ReflectionUnit pretorsion {name}"] = _report(
            "ReflectionUnit", dec.unit, "partially_ordered")
        out[f"CoreflectionCounit pretorsion {name}"] = _report(
            "CoreflectionCounit", dec.counit, "protomodular")
        out[f"ZPrekernel {name}"] = _report(
            "ZPrekernel", dec.unit, dec.torsion_part, dec.counit)
        out[f"ZPrecokernel {name}"] = _report(
            "ZPrecokernel", dec.counit, dec.free_part, dec.unit)
    return out


def law_reports():
    return {f"search {law}": search_counterexample(law, ORDER)
            for law in sorted(LAW_REGISTRY)}


FAMILIES = {
    "kernel": kernel_reports,
    "cokernel": cokernel_reports,
    "equalizer": equalizer_reports,
    "product": product_reports,
    "pullback": pullback_reports,
    "sequence": sequence_reports,
    "law": law_reports,
}


@functools.lru_cache(maxsize=1)
def _load():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_keys_are_the_families():
    assert sorted(_load()) == sorted(FAMILIES)


def test_fixture_fails_before_and_inside_the_loop():
    reports = [r for family, found in _load().items() if family != "law"
               for r in found.values()]
    assert any(not holds and tested == 0 for _, holds, tested, _, _ in reports)
    assert any(not holds and tested > 0 for _, holds, tested, _, _ in reports)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_oracle_reports_are_unchanged(family):
    assert FAMILIES[family]() == _load()[family]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    reports = {family: build() for family, build in FAMILIES.items()}
    FIXTURE.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {sum(map(len, reports.values()))} reports to {FIXTURE}")
