"""Self-tests of the benchmark's independent checkers.

    python3 -m pytest bench/test_checks.py -q

Each checker must accept the package's real answer and reject a
deliberately wrong one; one seed must always give the same inputs.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from run import _percentile_with_tail  # noqa: E402
from tracing import Tracer  # noqa: E402


def _cli_report(document, *argv):
    """A CLI report computed in-process, as the command line prints it."""
    from preordgrp.cli import build_parser, parse_workspace, run_command
    args = build_parser().parse_args(list(argv))
    opts = {"window": args.window, "hom_bound": args.hom_bound}
    return run_command(parse_workspace(document), args.command, args, opts)


def test_flipped_covering_verdict_is_rejected():
    wl = workloads.OracleSweep(0, Tracer(False))
    item = next(it for it in wl.items if it[0] == "Z4/cone2->Z2/cone1")
    out = wl.run(item)
    assert wl.check(item, out) == (False, [])
    *rest, cov = out
    _, errors = wl.check(item, (*rest, not cov))
    assert any("is_covering" in e for e in errors)


def test_flipped_class_verdicts_are_rejected():
    from preordgrp.factor import ClassReport
    wl = workloads.OracleSweep(0, Tracer(False))
    item = next(it for it in wl.items if it[0] == "Z6/cone3->Z3/cone1")
    out = list(wl.run(item))
    for c in ("E", "M", "Eprime", "Mstar"):
        cls = dict(out[5])
        cls[c] = ClassReport(c, not cls[c].holds)
        _, errors = wl.check(item, tuple(out[:5] + [cls] + out[6:]))
        assert any(f"{c} verdict" in e for e in errors), c


def test_wrong_snf_diagonal_is_rejected():
    from preordgrp.intlinalg import smith_normal_form
    M = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    s = smith_normal_form(M)
    assert checks.check_snf(M, s.U, s.D, s.V, [2, 6, 12]) is None
    D = [row[:] for row in s.D]
    D[1][1] += 6
    assert "differs" in checks.check_snf(M, s.U, D, s.V, [2, 6, 12])
    # a consistent decomposition whose factors disagree with the reference
    assert "reference" in checks.check_snf([[4]], [[1]], [[4]], [[1]], [2])
    assert "unimodular" in checks.check_snf([[4]], [[2]], [[8]], [[1]], [8])


def test_wrong_torsion_part_order_is_rejected():
    Z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    report = {"torsion_part": {"order": 2},
              "torsion_free": {"group": {"order": 2}, "cone_size": 1,
                               "reduced": True}}
    assert checks.check_torsion_finite(report, Z4, {0, 2}) is None
    report["torsion_part"]["order"] = 4
    assert "torsion part order" in checks.check_torsion_finite(report, Z4, {0, 2})

    rank, gens = inputs.FGAB_SHAPES["Z2_halfplane_units"]
    doc = inputs._assemble({}, {"X": inputs.FgabObject(rank, gens)}, {}).document
    report, _ = _cli_report(doc, "torsion", "X")
    assert checks.check_torsion_fgab(report, rank, gens) is None
    report["torsion_part"]["group"]["rank"] = 2
    assert checks.check_torsion_fgab(report, rank, gens) is not None


def test_bad_membership_witness_is_rejected():
    from preordgrp.cones import cone_contains, generator_cone
    from preordgrp.groups import make_fgab_group
    Z2 = make_fgab_group(2, [])
    gens = [[1, 0], [1, 1]]
    cone = generator_cone(Z2, [Z2.elem(g) for g in gens])
    verdict = cone_contains(cone, Z2.elem([5, 2]))
    assert checks.check_witness([5, 2], gens, verdict.witness, 2, ()) is None
    w = list(verdict.witness)
    assert "recombines" in checks.check_witness([5, 2], gens, [w[0] + 1, w[1]], 2, ())
    assert "negative" in checks.check_witness([0, 0], gens, [1, -1], 2, ())
    assert checks.check_witness([1, 0], gens, None, 2, ()) is not None


def test_cli_checks_reject_wrong_flags_and_exit_codes():
    report = {"classification": {"flags": ["protomodular"]}}
    Z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    assert checks.check_classification(report, checks.finite_flags(Z4, {0, 2})) is None
    assert checks.check_classification(report, checks.finite_flags(Z4, {0})) is not None
    assert checks.check_exit({}, 0, True) is None
    assert checks.check_exit({}, 0, False) is not None


def test_fgab_flags_match_the_cone_shapes():
    want = {"Z_nat": {"partially_ordered"},
            "Z_total": {"total", "protomodular"},
            "Z_discrete": {"partially_ordered", "protomodular", "discrete"},
            "Z2_nat2": {"partially_ordered"},
            "Z2_skew": {"partially_ordered"},
            "Z2_allunits": {"total", "protomodular"},
            "Z2_halfplane_units": set(),
            "Z2_ZxN": set()}
    for shape, (rank, gens) in inputs.FGAB_SHAPES.items():
        assert checks.fgab_flags(rank, gens) == want[shape], shape
    assert checks.fgab_flags(2, inputs.CRAWL_CLASSIFY) == set()
    assert checks.fgab_flags(2, inputs.CRAWL_COVER) == {"partially_ordered"}


def test_one_seed_gives_the_same_inputs(tmp_path):
    for make in (inputs.main_workspace, inputs.small_workspace):
        assert make(5).document == make(5).document
        assert make(5).document != make(6).document
    assert inputs.shuffled(range(100), 3) == inputs.shuffled(range(100), 3)
    a = workloads.CliSession(5, str(tmp_path / "a"), "src", None)
    b = workloads.CliSession(5, str(tmp_path / "b"), "src", None)
    strip = lambda items: [(label, [x.split(os.sep)[-1] for x in argv])
                           for label, argv, _ in items]
    assert strip(a.items) == strip(b.items)


def test_seeds_differ_only_by_relabeling():
    def shape(ws):
        return sorted((ws.groups[o.group].order, len(o.members))
                      for o in ws.objects.values()
                      if isinstance(o, inputs.FiniteObject))
    assert shape(inputs.main_workspace(1)) == shape(inputs.main_workspace(2))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert _percentile_with_tail(list(range(1208)))[0] == 99
    assert _percentile_with_tail(list(range(911)))[0] == 98
    assert _percentile_with_tail(list(range(9))) is None
