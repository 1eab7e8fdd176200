"""Workspace parsing, command reports, determinism, exit codes."""

import json
import os
import pathlib
import subprocess
import sys
from argparse import Namespace

import pytest
from conftest import deadline

from preordgrp.cli import Workspace, main, parse_workspace, run_command
from preordgrp.cones import explicit_cone
from preordgrp.corpus import symmetric_group_3
from preordgrp.errors import ParseError, ValidationError
from preordgrp.groups import cyclic_group
from preordgrp.pog import PreorderedGroup


def basic_document():
    return {
        "groups": {
            "Z": {"kind": "fgab", "rank": 1, "torsion": []},
            "Z2": {"kind": "fgab", "rank": 0, "torsion": [2]},
            "C4": {"kind": "finite", "elements": ["0", "1", "2", "3"],
                   "table": [[0, 1, 2, 3], [1, 2, 3, 0],
                             [2, 3, 0, 1], [3, 0, 1, 2]]},
        },
        "cones": {
            "N": {"group": "Z", "generators": [[1]]},
            "Ztot": {"group": "Z", "generators": [[1], [-1]]},
            "Z2tot": {"group": "Z2", "generators": [[1]]},
            "half": {"group": "C4", "elements": ["0", "2"]},
        },
        "objects": {
            "ZN": {"group": "Z", "cone": "N"},
            "ZZ": {"group": "Z", "cone": "Ztot"},
            "Z2T": {"group": "Z2", "cone": "Z2tot"},
            "C4half": {"group": "C4", "cone": "half"},
        },
        "morphisms": {
            "mod2": {"from": "ZN", "to": "Z2T",
                     "matrix": {"free": [], "mixed": [[1]], "torsion": []}},
            "idZN": {"from": "ZN", "to": "ZN",
                     "matrix": {"free": [[1]], "mixed": [], "torsion": []}},
        },
    }


class TestParse:
    def test_minimal_document(self):
        ws = parse_workspace({
            "groups": {"Z": {"kind": "fgab", "rank": 1, "torsion": []}},
            "cones": {"N": {"group": "Z", "generators": [[1]]}},
            "objects": {"X": {"group": "Z", "cone": "N"}},
        })
        assert ws.objects["X"].group.rank == 1

    def test_full_document(self):
        ws = parse_workspace(basic_document())
        assert set(ws.morphisms) == {"mod2", "idZN"}

    def test_nonassociative_table_rejected(self):
        doc = {"groups": {"B": {
            "kind": "finite", "elements": ["a", "b", "c"],
            "table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]}}}
        with pytest.raises(ValidationError):
            parse_workspace(doc)

    def test_cone_generator_dropped_by_morphism(self):
        doc = basic_document()
        doc["morphisms"]["bad"] = {
            "from": "ZZ", "to": "ZN",
            "matrix": {"free": [[1]], "mixed": [], "torsion": []}}
        with pytest.raises(ValidationError) as exc:
            parse_workspace(doc)
        assert "cone not preserved" in str(exc.value)

    def test_unknown_reference(self):
        doc = basic_document()
        doc["cones"]["bad"] = {"group": "missing", "generators": [[1]]}
        with pytest.raises(ParseError):
            parse_workspace(doc)

    def test_declared_torsion_gets_normalized(self):
        ws = parse_workspace({
            "groups": {"G": {"kind": "fgab", "rank": 0, "torsion": [4, 2]}},
            "cones": {"c": {"group": "G", "generators": [[1, 0]]}},
            "objects": {"X": {"group": "G", "cone": "c"}},
        })
        assert ws.objects["X"].group.torsion == (2, 4)


def run_main(*argv):
    import io
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_cli(tmp_path, doc, *argv):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return run_main("--workspace", str(path), *argv)


class TestCommands:
    def test_validate(self, tmp_path):
        code, out = run_cli(tmp_path, basic_document(), "validate")
        report = json.loads(out)
        assert code == 0 and report["valid"] is True

    def test_torsion_report_shape(self, tmp_path):
        code, out = run_cli(tmp_path, basic_document(), "torsion", "C4half")
        report = json.loads(out)
        assert code == 0
        assert report["torsion_part"]["order"] == 2
        assert report["torsion_free"]["cone_size"] == 1
        assert report["short_exact"] is True

    def test_factor_ml(self, tmp_path):
        code, out = run_cli(tmp_path, basic_document(),
                            "factor", "--system", "ml", "mod2")
        report = json.loads(out)
        assert code == 0
        assert report["e_class"]["holds"] and report["m_class"]["holds"]
        assert report["recomposes"] is True

    def test_class_exit_codes(self, tmp_path):
        code, out = run_cli(tmp_path, basic_document(),
                            "class", "--of", "Mstar", "mod2")
        assert code == 0 and json.loads(out)["in_class"] is True
        code2, out2 = run_cli(tmp_path, basic_document(),
                              "class", "--of", "M", "mod2")
        assert code2 == 2 and json.loads(out2)["in_class"] is False

    def test_covering(self, tmp_path):
        code, out = run_cli(tmp_path, basic_document(), "covering", "mod2")
        assert code == 0 and json.loads(out)["covering"] is True

    def test_cover_echoes_window(self, tmp_path):
        code, out = run_cli(tmp_path, basic_document(),
                            "--window", "4", "cover", "ZN")
        report = json.loads(out)
        assert code == 0
        assert report["window"] == 4
        assert report["scan"]["reducedness_violations"] == 0

    def test_cover_answers_at_any_window_and_torsion(self, tmp_path):
        # the cover's axioms are its base's, so neither a wide window on a
        # Z^2 base nor a base carrying Z/10^30 sizes any work
        doc = {
            "groups": {"G": {"kind": "fgab", "rank": 1,
                             "torsion": [10 ** 30]}},
            "cones": {"C": {"group": "G", "generators": [[1, 0]]}},
            "objects": {"P": {"group": "G", "cone": "C"}},
        }
        with deadline(5):
            runs = [run_main("--corpus", "--window", "60", "cover",
                             "Z2_ZxN"),
                    run_cli(tmp_path, doc, "cover", "P")]
        for code, out in runs:
            assert code == 0
            assert set(json.loads(out)["scan"].values()) == {0}

    def test_cover_counts_the_base_axiom_failures(self):
        # bases that are not cones, built past make_pog's validation
        Z4, S3 = cyclic_group(4), symmetric_group_3()
        objects = {
            "unclosed": PreorderedGroup(
                Z4, explicit_cone(Z4, [Z4.elem(0), Z4.elem(1)])),
            "non_normal": PreorderedGroup(
                S3, explicit_cone(S3, [S3.zero, S3.elem("102")])),
        }
        ws = Workspace({}, {}, {}, objects, {})
        opts = {"window": 8, "hom_bound": 10}
        scans = {}
        for name in objects:
            report, code = run_command(ws, "cover", Namespace(object=name),
                                       opts)
            assert code == 2
            scans[name] = report["scan"]
        assert scans["unclosed"] == {"submonoid_violations": 1,
                                     "conjugation_violations": 0,
                                     "reducedness_violations": 0}
        # a transposition has four conjugates outside {e, flip}
        assert scans["non_normal"] == {"submonoid_violations": 0,
                                       "conjugation_violations": 4,
                                       "reducedness_violations": 0}

    def test_window_reaches_classify_only_in_the_envelope(self):
        reports = {}
        for width in (4, 8):
            code, out = run_main("--corpus", "--window", str(width),
                                 "classify", "Z_nat")
            assert code == 0
            reports[width] = json.loads(out)
            assert reports[width].pop("window") == width
        assert reports[4] == reports[8]

    def test_classify_and_cover_on_unit_pairs(self, tmp_path):
        # two Z^2 objects on which both commands once crawled
        doc = {
            "groups": {"Z2": {"kind": "fgab", "rank": 2, "torsion": []}},
            "cones": {
                "lines": {"group": "Z2", "generators": [
                    [-1, 1], [1, -1], [2, -2], [-1, 0]]},
                "pair": {"group": "Z2", "generators": [[1, 2], [-2, -1]]},
            },
            "objects": {
                "crawl_classify": {"group": "Z2", "cone": "lines"},
                "crawl_cover": {"group": "Z2", "cone": "pair"},
            },
        }
        with deadline(5):
            code, out = run_cli(tmp_path, doc, "classify", "crawl_classify")
            classification = json.loads(out)["classification"]
            assert code == 0
            assert classification["flags"] == []
            assert classification["exact"] is True
            code, out = run_cli(tmp_path, doc, "cover", "crawl_cover")
            assert code == 0
            assert json.loads(out)["effective_descent"] is True

    def test_cone_on_a_torsion_generator_of_huge_order(self, tmp_path):
        # (Z + Z/10^30, <(0, 1)>): the solver once searched the multiples
        # of (0, 1) one by one
        doc = {
            "groups": {"G": {"kind": "fgab", "rank": 1,
                             "torsion": [10 ** 30]}},
            "cones": {"C": {"group": "G", "generators": [[0, 1]]}},
            "objects": {"X": {"group": "G", "cone": "C"}},
        }
        with deadline(5):
            reports = {cmd: run_cli(tmp_path, doc, cmd, "X")
                       for cmd in ("classify", "torsion", "pretorsion")}
        assert {code for code, _ in reports.values()} == {0}
        report = {cmd: json.loads(out) for cmd, (_, out) in reports.items()}
        assert report["classify"]["classification"]["flags"] == \
            ["protomodular"]
        assert report["torsion"]["short_exact"] is True
        assert report["pretorsion"]["preexact"] is True

    def test_kernel_cokernel(self, tmp_path):
        code, out = run_cli(tmp_path, basic_document(), "kernel", "mod2")
        report = json.loads(out)
        assert code == 0
        assert "partially_ordered" in report["classification"]["flags"]
        code2, out2 = run_cli(tmp_path, basic_document(), "cokernel", "idZN")
        assert code2 == 0

    def test_limit_product(self, tmp_path):
        code, out = run_cli(tmp_path, basic_document(),
                            "limit", "--kind", "product", "ZN", "ZN")
        report = json.loads(out)
        assert code == 0 and report["limit"]["group"]["rank"] == 2

    def test_product_lists_a_repeated_generator_once(self, tmp_path):
        # a product lifts its generators like a pullback: the part cone
        # (Z, <1, 1, 2>) gives (1, 0) once, and keeps the redundant (2, 0)
        doc = basic_document()
        doc["cones"]["rep"] = {"group": "Z", "generators": [[1], [1], [2]]}
        doc["objects"]["R"] = {"group": "Z", "cone": "rep"}
        code, out = run_cli(tmp_path, doc,
                            "limit", "--kind", "product", "R", "ZN")
        cone = json.loads(out)["limit"]["cone"]
        assert code == 0 and cone["node"] == "ProductCone"
        assert cone["generators"] == [[1, 0], [2, 0], [0, 1]]

    def test_sequence_check(self, tmp_path):
        doc = basic_document()
        code, out = run_cli(tmp_path, doc, "sequence-check", "idZN", "mod2")
        assert code == 2  # identity is not the kernel of mod2

    def test_schreier(self, tmp_path):
        # decided in closed form: no window, even on an infinite carrier
        for name, holds in (("mod2", False), ("idZN", True)):
            code, out = run_cli(tmp_path, basic_document(), "schreier", name)
            report = json.loads(out)
            assert report["special_schreier"] is holds
            assert report["exhaustive"] is True and report["window"] is None
            assert code == (0 if holds else 2)

    def test_enumerate_and_oracle(self, tmp_path):
        code, out = run_cli(tmp_path, basic_document(),
                            "enumerate", "--cones", "C4")
        report = json.loads(out)
        assert code == 0 and len(report["cones"]) == 3
        code2, out2 = run_cli(tmp_path, basic_document(),
                              "--hom-bound", "2",
                              "oracle", "--kind", "kernel", "mod2")
        report2 = json.loads(out2)
        assert code2 == 0 and report2["holds"] is True
        assert report2["bound"] == 2

    def test_unbounded_hom_enumeration_is_refused(self, tmp_path, capsys):
        # the test arrows Z^2 -> Z^2 at the default --hom-bound 10 are
        # 21^4 = 194,481 homs, past the enumeration cap; this used to hang
        doc = basic_document()
        doc["groups"]["Zsq"] = {"kind": "fgab", "rank": 2, "torsion": []}
        doc["cones"]["Nsq"] = {"group": "Zsq", "generators": [[1, 0], [0, 1]]}
        doc["objects"]["NN"] = {"group": "Zsq", "cone": "Nsq"}
        doc["morphisms"]["idNN"] = {
            "from": "NN", "to": "NN",
            "matrix": {"free": [[1, 0], [0, 1]], "mixed": [], "torsion": []}}
        argv = ("oracle", "--kind", "coequalizer", "idNN", "idNN")
        with deadline(5):
            code, out = run_cli(tmp_path, doc, *argv)
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("error: 194481 homs")
        code, out = run_cli(tmp_path, doc, "--hom-bound", "2", *argv)
        report = json.loads(out)
        assert code == 0 and report["holds"] is True and report["bound"] == 2

    def test_search(self, tmp_path):
        from preordgrp.corpus import finite_corpus_objects
        orders = [P.group.order() for P in finite_corpus_objects().values()]
        code, out = run_cli(tmp_path, basic_document(),
                            "search", "mono_iff_trivial_kernel",
                            "--bound", "4")
        report = json.loads(out)
        assert code == 0 and report["counterexample"] is None
        assert report["checked_order"] == max(n for n in orders if n <= 4)
        # the corpus stops well short of 32; the report says where
        code, out = run_main("--corpus", "search", "mono_iff_trivial_kernel",
                             "--bound", "32")
        report = json.loads(out)
        assert code == 0 and report["bound"] == 32
        assert report["checked_order"] == max(orders) < 32

    def test_input_error_exit_code(self, tmp_path):
        doc = basic_document()
        del doc["groups"]["Z"]
        code, out = run_cli(tmp_path, doc, "validate")
        assert code == 1

    def test_report_determinism(self, tmp_path):
        _, out1 = run_cli(tmp_path, basic_document(), "torsion", "C4half")
        _, out2 = run_cli(tmp_path, basic_document(), "torsion", "C4half")
        assert out1 == out2

    @pytest.mark.parametrize("command", [
        ["classify", "Z2_ZxN"],
        ["--hom-bound", "1", "oracle", "--kind", "product", "S3/cone1",
         "Z2/cone1"],
        ["enumerate", "--cones", "D4"],
    ], ids=["classify", "oracle", "cones"])
    def test_reports_agree_across_processes(self, command):
        # groups, subgroups, subgroup cones and objects hash by address,
        # which differs between processes, as the string hash seed does:
        # a set of them iterated into a report would show here
        src = pathlib.Path(__file__).parent.parent / "src"
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
            outs.append(subprocess.run(
                [sys.executable, "-m", "preordgrp", "--corpus", *command],
                env=env, capture_output=True, check=True).stdout)
        assert outs[0] and outs[0] == outs[1]

    def test_cold_start_loads_only_what_parsing_needs(self):
        # the package exports its names lazily: the command line loads the
        # modules of parsing and of validate and classify, and every other
        # command imports its own
        src = pathlib.Path(__file__).parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", "import json, sys, preordgrp.cli; print("
             "json.dumps(sorted(m for m in sys.modules "
             "if m.startswith('preordgrp.'))))"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert json.loads(out) == [f"preordgrp.{m}" for m in (
            "cli", "cones", "errors", "groups", "intlinalg", "pog")]

    def test_package_names_resolve_on_first_use(self):
        import preordgrp
        from preordgrp import em_factor, torsion_sequence
        from preordgrp.factor import em_factor as defined
        assert em_factor is defined and torsion_sequence.__module__ == (
            "preordgrp.torsion")
        assert set(preordgrp.__all__) <= set(dir(preordgrp))
        assert all(getattr(preordgrp, name) for name in preordgrp.__all__)
        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            preordgrp.nothing

    def test_classify_proto_reflect_pretorsion(self, tmp_path):
        code, out = run_cli(tmp_path, basic_document(), "classify", "ZN")
        assert code == 0
        assert json.loads(out)["classification"]["flags"] == ["partially_ordered"]
        code2, out2 = run_cli(tmp_path, basic_document(),
                              "proto-reflect", "ZN")
        rep2 = json.loads(out2)
        assert code2 == 0 and "total" in rep2["classification"]["flags"]
        code3, out3 = run_cli(tmp_path, basic_document(), "pretorsion", "C4half")
        assert code3 == 0 and json.loads(out3)["preexact"] is True

    def test_stable_units_and_orthogonal(self, tmp_path):
        doc = basic_document()
        # g: C -> F(B) with B = ZZ (total): F(B) is the zero object; build
        # it explicitly so the workspace contains the needed arrows
        doc["groups"]["T"] = {"kind": "fgab", "rank": 0, "torsion": []}
        doc["cones"]["tz"] = {"group": "T", "generators": []}
        doc["objects"]["Zero"] = {"group": "T", "cone": "tz"}
        doc["morphisms"]["gz"] = {"from": "ZN", "to": "Zero",
                                  "matrix": {"free": [], "mixed": [],
                                             "torsion": []}}
        code, out = run_cli(tmp_path, doc, "stable-units", "ZZ", "gz")
        assert code == 0 and json.loads(out)["preserved"] is True
        doc["morphisms"]["e"] = {"from": "ZN", "to": "ZN",
                                 "matrix": {"free": [[1]], "mixed": [],
                                            "torsion": []}}
        code2, out2 = run_cli(tmp_path, doc, "orthogonal",
                              "e", "mod2", "idZN", "mod2")
        assert code2 == 0 and json.loads(out2)["orthogonal"] is True

    @pytest.mark.parametrize("argv, why", [
        (("orthogonal", "mod2", "idZN", "idZN", "mod2"),
         "morphisms do not compose"),
        (("stable-units", "ZZ", "idZN"),
         "g must land in the torsion-free part of B"),
        (("limit", "--kind", "pullback", "mod2", "idZN"),
         "pullback needs a common codomain"),
        (("limit", "--kind", "equalizer", "mod2", "idZN"),
         "equalizer needs a parallel pair"),
        (("sequence-check", "mod2", "idZN"), "arrows do not compose"),
        (("oracle", "--kind", "coequalizer", "idZN", "mod2"),
         "coequalizer needs a parallel pair"),
        (("oracle", "--kind", "product", "ZN"), "product needs 2 names, got 1"),
        (("oracle", "--kind", "kernel", "mod2", "idZN"),
         "kernel needs 1 name, got 2"),
    ])
    def test_arguments_that_do_not_fit(self, tmp_path, capsys, argv, why):
        code, out = run_cli(tmp_path, basic_document(), *argv)
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"error: {why}\n"

    @pytest.mark.parametrize("argv, why", [
        (("--window", "-1", "classify", "ZN"), "--window must be at least 1"),
        (("--window", "0", "classify", "ZN"), "--window must be at least 1"),
        (("--hom-bound", "-1", "enumerate", "--morphisms", "ZN", "ZN"),
         "--hom-bound must be at least 0"),
        (("search", "mono_iff_trivial_kernel", "--bound", "-3"),
         "--bound must be at least 1"),
        (("search", "mono_iff_trivial_kernel", "--bound", "0"),
         "--bound must be at least 1"),
        # the finite corpus starts at order 2: a search checking no object
        # must not pass
        (("search", "mono_iff_trivial_kernel", "--bound", "1"),
         "--bound 1 reaches no corpus object"),
    ])
    def test_out_of_range_options(self, tmp_path, capsys, argv, why):
        code, out = run_cli(tmp_path, basic_document(), *argv)
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"error: {why}\n"

    def test_em_factor_of_a_finite_to_fgab_morphism(self, tmp_path):
        # the factorization crosses backends: the finite abelian side takes
        # part in the pullback generators in its fgab form
        doc = basic_document()
        doc["groups"]["C2"] = {"kind": "finite", "elements": ["0", "1"],
                               "table": [[0, 1], [1, 0]]}
        doc["cones"]["C2tot"] = {"group": "C2", "elements": ["0", "1"]}
        doc["objects"]["C2T"] = {"group": "C2", "cone": "C2tot"}
        doc["morphisms"]["f"] = {"from": "C2T", "to": "Z2T",
                                 "map": [[0], [1]]}
        code, out = run_cli(tmp_path, doc, "factor", "--system", "em", "f")
        report = json.loads(out)
        assert code == 0
        assert report["e_class"]["holds"] and report["m_class"]["holds"]
        assert report["recomposes"]

    def test_corpus_mode(self):
        import io
        import contextlib
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["--corpus", "classify", "Z4/cone1"])
        assert code == 0
        assert "protomodular" in json.loads(buf.getvalue())["classification"]["flags"]

    def test_reflect_morphism(self, tmp_path):
        code, out = run_cli(tmp_path, basic_document(), "reflect", "mod2")
        report = json.loads(out)
        assert code == 0 and report["iso"] is False


class TestMalformedWorkspace:
    """A malformed document gets ``error:`` and exit 1, never a traceback."""

    CASES = {
        "groups_list": {"groups": []},
        "rank_string": {"groups": {"Z": {"kind": "fgab", "rank": "1",
                                         "torsion": []}}},
        "table_int": {"groups": {"G": {"kind": "finite", "elements": ["0"],
                                       "table": 5}}},
        "table_rows_int": {"groups": {"G": {"kind": "finite",
                                            "elements": ["0"], "table": [5]}}},
        "elements_int": {"groups": {"G": {"kind": "finite", "elements": 5,
                                          "table": [[0]]}}},
        "elements_nested": {"groups": {"G": {"kind": "finite",
                                             "elements": [["0"]],
                                             "table": [[0]]}}},
        "torsion_bool": {"groups": {"T": {"kind": "fgab", "rank": 0,
                                          "torsion": [True]}}},
        "table_bool": {"groups": {"C2": {"kind": "finite",
                                         "elements": ["0", "1"],
                                         "table": [[False, True],
                                                   [True, False]]}}},
        "matrix_row_past_domain": {
            "groups": {"Z": {"kind": "fgab", "rank": 1, "torsion": []}},
            "cones": {"N": {"group": "Z", "generators": [[1]]}},
            "objects": {"ZN": {"group": "Z", "cone": "N"}},
            "morphisms": {"m": {"from": "ZN", "to": "ZN",
                                "matrix": {"free": [[1, 2]]}}}},
        "unknown_element_name": {
            "groups": {"C2": {"kind": "finite", "elements": ["0", "1"],
                              "table": [[0, 1], [1, 0]]}},
            "cones": {"c": {"group": "C2", "elements": ["b"]}}},
    }

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_error_and_exit_1(self, tmp_path, capsys, label):
        code, out = run_cli(tmp_path, self.CASES[label], "validate")
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("error:")

    def test_huge_rank_is_refused_before_presenting(self, tmp_path, capsys):
        import time
        doc = {"groups": {"Z": {"kind": "fgab", "rank": 1000000}}}
        start = time.perf_counter()
        code, out = run_cli(tmp_path, doc, "validate")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("error:")

    def test_fuzzed_documents(self):
        """Replace one value of a valid document by junk, many times over:
        parsing either succeeds or raises a package error."""
        import random
        from preordgrp.errors import PreordGrpError
        junk = [None, True, 5, -1, 2.5, "1", "x", [], [5], [[]], [["0"]],
                {}, {"a": 1}, [[0, 1], [1]]]
        rng = random.Random(0)

        def paths(node, prefix=()):
            yield prefix
            items = (node.items() if isinstance(node, dict)
                     else enumerate(node) if isinstance(node, list) else ())
            for k, v in items:
                yield from paths(v, prefix + (k,))

        all_paths = list(paths(basic_document()))
        for _ in range(400):
            doc = basic_document()
            path = rng.choice(all_paths)
            value = rng.choice(junk)
            if not path:
                doc = value
            else:
                node = doc
                for k in path[:-1]:
                    node = node[k]
                node[path[-1]] = value
            try:
                parse_workspace(doc)
            except PreordGrpError:
                pass
