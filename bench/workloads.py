"""The three workloads: their inputs, their operations and their checks.

Each workload has ``items`` (one round of operations, in seeded order),
``run(item)`` (the package calls of one operation, the only timed part),
``check(item, out)`` (the independent checks of that operation, untimed;
returns ``(failed, errors)``) and ``finish()`` (checks deferred until the
timed phase is over and peak memory has been read).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import checks
import inputs


def _exact_count(flags):
    exact = sum(1 for f in flags if f)
    return exact, len(flags) - exact


# ---------------------------------------------------------------------------
# oracle_sweep
# ---------------------------------------------------------------------------

class OracleSweep:
    """Verify every order-preserving morphism between finite corpus objects
    of order <= 6, as the acceptance criteria on the oracle do."""

    def __init__(self, seed, tr):
        from preordgrp.corpus import finite_corpus_objects_up_to
        from preordgrp.oracle import enumerate_pog_morphisms
        self.tr = tr
        objs = tr.call("corpus.build", finite_corpus_objects_up_to, 6)
        self.test = tuple(tr.call("corpus.build",
                                  finite_corpus_objects_up_to, 4).values())
        morphisms = []
        for pn, P in sorted(objs.items()):
            for qn, Q in sorted(objs.items()):
                for m in tr.call("oracle.enumerate", enumerate_pog_morphisms,
                                 P, Q):
                    morphisms.append((f"{pn}->{qn}", m))
        self.items = inputs.shuffled(morphisms, seed)

    def run(self, item):
        from preordgrp.descent import is_covering
        from preordgrp.errors import ImageNotNormal
        from preordgrp.factor import e_conditions, in_class, ml_factor
        from preordgrp.oracle import (UniversalPropertyQuery,
                                      enumerate_pog_morphisms,
                                      verify_universal_property)
        from preordgrp.pog import pog_cokernel, pog_kernel
        from preordgrp.torsion import torsion_sequence
        tr = self.tr
        _, m = item
        decs = [tr.call("torsion.sequence", torsion_sequence, X)
                for X in (m.dom, m.cod)]
        arrows = 0
        for X in self.test:
            arrows += len(tr.call("oracle.enumerate", enumerate_pog_morphisms,
                                  X, m.dom))
        K, inj = tr.call("pog.limits", pog_kernel, m)
        kernel = tr.call("oracle.verify", verify_universal_property,
                         UniversalPropertyQuery("Kernel", (m, K, inj), self.test))
        try:
            Q, proj = tr.call("pog.limits", pog_cokernel, m)
        except ImageNotNormal:
            cokernel = None
        else:
            for X in self.test:
                arrows += len(tr.call("oracle.enumerate",
                                      enumerate_pog_morphisms, m.cod, X))
            cokernel = tr.call(
                "oracle.verify", verify_universal_property,
                UniversalPropertyQuery("Cokernel", (m, Q, proj), self.test))
        tr.count("oracle.enumerate.morphisms", arrows)
        fr = tr.call("factor.ml", ml_factor, m)
        cond = tr.call("factor.e_conditions", e_conditions, m)
        cls = {c: tr.call(f"factor.{c}", in_class, m, c)
               for c in ("E", "M", "Eprime", "Mstar")}
        cov = tr.call("descent.covering", is_covering, m)
        return decs, kernel, cokernel, fr, cond, cls, cov

    def check(self, item, out):
        desc, m = item
        decs, kernel, cokernel, fr, cond, cls, cov = out
        facts = checks.FiniteFacts(
            m.dom.group.table, _indices(m.dom.cone.members),
            m.cod.group.table, _indices(m.cod.cone.members),
            [y.coords[0] for y in m.hom.images])
        errors = []

        def expect(ok, what):
            if not ok:
                errors.append(f"{desc}: {what}")

        err = facts.hom_law_error()
        expect(err is None, err)
        for dec, N in zip(decs, (facts.NG, facts.NH)):
            expect(dec.certificate.holds, "torsion sequence not short exact")
            expect(dec.torsion_part.group.order() == len(N),
                   "torsion part order differs from the unit group's")
        expect(kernel.holds, f"kernel property fails: {kernel.counterexample}")
        expect((cokernel is None) == (not facts.image_normal),
               "cokernel raised iff the image is not normal")
        expect(cokernel is None or cokernel.holds, "cokernel property fails")
        expect(cov == facts.covering, "is_covering differs from ker & units")
        expect(cls["Mstar"].holds == facts.covering, "Mstar verdict")
        expect(cls["M"].holds == facts.in_M, "M verdict")
        expect(cls["E"].holds == facts.in_E, "E verdict")
        expect(cls["Eprime"].holds == facts.in_Eprime, "Eprime verdict")
        expect(all(cond) == cls["E"].holds, "e_conditions differ from E")
        expect(not cls["Eprime"].holds or cls["E"].holds, "Eprime not in E")
        expect(not cls["M"].holds or cls["Mstar"].holds, "M not in Mstar")
        expect(fr.mid.group.order() == facts.ml_mid_order,
               "ml middle object order differs from |G| / |ker & N|")
        expect(checks.recomposes([y.coords[0] for y in fr.e.hom.images],
                                 [y.coords[0] for y in fr.m.hom.images],
                                 facts.img), "ml factors do not recompose")
        expect(fr.e_class.holds and fr.m_class.holds, "ml factor classes")
        return False, errors

    def verdicts(self, out):
        _, _, _, fr, _, cls, _ = out
        return _exact_count([r.exact for r in cls.values()]
                            + [fr.e_class.exact, fr.m_class.exact])

    def finish(self):
        return []

    def layer_metrics(self, tr):
        from preordgrp.torsion import torsion_sequence
        return _torsion_cache(torsion_sequence) | {
            "oracle.enumerate.morphisms": ("count",
                                           tr.counts["oracle.enumerate.morphisms"])}


def _indices(members):
    return {x.coords[0] for x in members}


def _torsion_cache(fn):
    info = fn.cache_info()
    return {"torsion.sequence.cache_hits": ("count", info.hits),
            "torsion.sequence.cache_misses": ("count", info.misses)}


# ---------------------------------------------------------------------------
# fgab_analysis
# ---------------------------------------------------------------------------

class FgabAnalysis:
    """Full analysis of every bound-1 order-preserving morphism between the
    eight bundled f.g. abelian objects."""

    CLASSES = ("E", "M", "Eprime", "Mstar")

    def __init__(self, seed, tr):
        from preordgrp.corpus import fgab_corpus_objects
        from preordgrp.oracle import enumerate_pog_morphisms
        self.tr = tr
        objs = tr.call("corpus.build", fgab_corpus_objects)
        morphisms = []
        for pn, P in sorted(objs.items()):
            for qn, Q in sorted(objs.items()):
                for m in tr.call("oracle.enumerate", enumerate_pog_morphisms,
                                 P, Q, 1):
                    morphisms.append((f"{pn}->{qn}", m))
        self.items = inputs.shuffled(morphisms, seed)
        self.snf_checks = []

    def run(self, item):
        from preordgrp.cones import cone_contains, units
        from preordgrp.descent import is_covering
        from preordgrp.factor import e_conditions, em_factor, in_class, ml_factor
        from preordgrp.intlinalg import smith_normal_form
        from preordgrp.pog import classify, morphism_class
        from preordgrp.torsion import torsion_sequence
        tr = self.tr
        _, m = item
        decs = []
        for X in (m.dom, m.cod):
            tr.call("cones.units", units, X.cone)
            decs.append(tr.call("torsion.sequence", torsion_sequence, X))
        flags = [tr.call("pog.classify", classify, X) for X in (m.dom, m.cod)]
        mclass = tr.call("pog.morphism_class", morphism_class, m)
        cls = {c: tr.call(f"factor.{c}", in_class, m, c) for c in self.CLASSES}
        cond = tr.call("factor.e_conditions", e_conditions, m)
        ml = tr.call("factor.ml", ml_factor, m)
        em = tr.call("factor.em", em_factor, m)
        cov = tr.call("descent.covering", is_covering, m)
        cols = _columns(m.hom)
        matrix = [[col[i] for col in cols] for i in range(m.cod.group.ncoords)]
        snf = tr.call("intlinalg.snf", smith_normal_form, matrix)
        cod = m.cod.group
        members = []
        for g in _cone_generators(m.dom.cone):
            y = cod.elem(checks.apply_matrix(cols, g, cod.rank, cod.torsion))
            members.append((y.coords, tr.call("cones.contains", cone_contains,
                                              m.cod.cone, y)))
        return decs, flags, mclass, cls, cond, ml, em, cov, matrix, snf, members

    def check(self, item, out):
        desc, m = item
        decs, flags, mclass, cls, cond, ml, em, cov, matrix, snf, members = out
        errors = []

        def expect(ok, what):
            if not ok:
                errors.append(f"{desc}: {what}")

        for X, dec in zip((m.dom, m.cod), decs):
            expect(dec.certificate.holds, "torsion sequence not short exact")
            expect(_composite_zero(dec), "unit after counit is not zero")
            T, F = dec.torsion_part, dec.free_part
            expect(T.group.rank + F.group.rank == X.group.rank,
                   "ranks of the torsion sequence do not add up")
            expect(_is_total(T), "torsion part is not total")
            expect(checks.reduced_by_functional(
                F.group.rank, F.group.torsion, _cone_generators(F.cone)),
                "torsion-free part is not reduced")
        for f, X in zip(flags, (m.dom, m.cod)):
            expect(set(f.flags) == checks.fgab_flags(
                X.group.rank, _cone_generators(X.cone)), "classification flags")
        expect(all(cond) == cls["E"].holds, "e_conditions differ from E")
        expect(not cls["Eprime"].holds or cls["E"].holds, "Eprime not in E")
        expect(not cls["M"].holds or cls["Mstar"].holds, "M not in Mstar")
        expect(cov == cls["Mstar"].holds, "covering differs from Mstar")
        expect(mclass.normal_epi or not cls["Eprime"].holds,
               "Eprime without a normal epimorphism")
        for fr in (ml, em):
            expect(_recomposes(fr, m), f"{fr.system} factors do not recompose")
        expect(ml.e_class.holds and ml.m_class.holds, "ml factor classes")
        cod = m.cod.group
        gens = _cone_generators(m.cod.cone)
        for target, verdict in members:
            expect(verdict.value == "In", f"image {target} not in the cone")
            err = checks.check_witness(target, gens, verdict.witness,
                                       cod.rank, cod.torsion)
            expect(err is None, err)
        for g, verdict in m.certificate.verdicts:
            err = checks.check_witness(m.hom(g).coords, gens, verdict.witness,
                                       cod.rank, cod.torsion)
            expect(err is None, f"certificate: {err}")
        self.snf_checks.append((desc, matrix, snf.U, snf.D, snf.V))
        return False, errors

    def verdicts(self, out):
        _, flags, mclass, cls, _, ml, em, _, _, _, _ = out
        return _exact_count([f.exact for f in flags] + [mclass.exact]
                            + [r.exact for r in cls.values()]
                            + [fr.e_class.exact for fr in (ml, em)]
                            + [fr.m_class.exact for fr in (ml, em)])

    def finish(self):
        """Invariant factors against sympy, after peak memory was read."""
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors
        errors = []
        for desc, M, U, D, V in self.snf_checks:
            ref = [int(d) for d in invariant_factors(Matrix(M), domain=ZZ)]
            err = checks.check_snf(M, U, D, V, ref)
            if err:
                errors.append(f"{desc}: snf: {err}")
        return errors

    def layer_metrics(self, tr):
        from preordgrp.torsion import torsion_sequence
        return _torsion_cache(torsion_sequence)


def _columns(hom):
    return [list(y.coords) for y in hom.images]


def _cone_generators(cone):
    from preordgrp.cones import extract_generators
    return [list(g.coords) for g in extract_generators(cone)]


def _composite_zero(dec):
    unit = dec.unit.hom
    F = unit.cod
    for y in dec.counit.hom.images:
        z = checks.apply_matrix(_columns(unit), y.coords, F.rank, F.torsion)
        if any(z):
            return False
    return True


def _is_total(T):
    """Every canonical generator and its negative is a cone generator, so
    the cone is the whole group."""
    G = T.group
    gens = {tuple(checks.reduce_coords(g, G.rank, G.torsion))
            for g in _cone_generators(T.cone)}
    n = G.ncoords
    for i in range(n):
        e = [0] * n
        e[i] = 1
        neg = checks.reduce_coords([-c for c in e], G.rank, G.torsion)
        if tuple(e) not in gens or tuple(neg) not in gens:
            return False
    return True


def _recomposes(fr, f):
    """second . first == f, by the benchmark's own matrix products."""
    e, m = fr.e.hom, fr.m.hom
    mid, cod = e.cod, m.cod
    for col, x in zip(_columns(f.hom), e.dom.generators()):
        y = checks.apply_matrix(_columns(e), x.coords, mid.rank, mid.torsion)
        z = checks.apply_matrix(_columns(m), y, cod.rank, cod.torsion)
        if z != checks.reduce_coords(col, cod.rank, cod.torsion):
            return False
    return True


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

# A command that has not finished after this many seconds is stopped and
# counted as failed.  The slowest command that finishes takes well under
# half a second; the two that crawl take more than 40 s.
DEADLINE_S = 3.0


class CliSession:
    """One ``preordgrp`` process per operation against seeded workspaces."""

    def __init__(self, seed, work_dir, src_dir, shim):
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.shim = shim
        self.span_file = os.path.join(work_dir, "cli_spans.json")
        self.files = inputs.write_workspaces(seed, work_dir)
        self.items = inputs.shuffled(self._commands(), seed)
        self.first_report = {}
        self.report_bytes = 0
        self.parse_s = self.command_s = 0.0
        self.startups = []

    # -- the command list ---------------------------------------------------

    def _commands(self):
        main_path, ws = self.files["main"]
        small_path, small = self.files["small"]
        faults_path, _ = self.files["faults"]
        # everything below is picked in catalogue order, so every seed runs
        # the same commands on isomorphic inputs
        fin_m = [n for n, m in ws.morphisms.items()
                 if isinstance(m, inputs.FiniteMorphism)]
        fg_m = [n for n, m in ws.morphisms.items()
                if isinstance(m, inputs.FgabMorphism)]
        fg = list(ws.shapes.values())
        W = ["--workspace", main_path]
        cmds = [("validate", W + ["validate"], None)]
        # one finite object per group: its second-largest cone
        picked = [names[-2] for _, names in sorted(ws.cones_of.items())]
        for n in picked + fg:
            cmds.append(("classify", W + ["classify", n], n))
        for n in picked[:4] + fg[:4]:
            cmds.append(("torsion", W + ["torsion", n], n))
        for n in picked[4:7]:
            cmds.append(("pretorsion", W + ["pretorsion", n], n))
        for i, n in enumerate(fin_m + fg_m):
            system = "ml" if i % 2 == 0 else "em"
            cmds.append(("factor", W + ["factor", "--system", system, n], n))
        for i, n in enumerate(fin_m):
            cls = ("E", "M", "Eprime", "Mstar")[i % 4]
            cmds.append(("class", W + ["class", "--of", cls, n], (n, cls)))
            cmds.append(("covering", W + ["covering", n], n))
        for n in fin_m[:4]:
            cmds.append(("kernel", W + ["kernel", n], n))
            cmds.append(("cokernel", W + ["cokernel", n], n))
        for n in fin_m[4:6] + fg_m[:2]:
            cmds.append(("schreier", W + ["schreier", n], n))
        for n in fg[4:6]:
            cmds.append(("cover", W + ["cover", n], n))
        small_pair = (ws.cones_of["Z4"][-2], ws.cones_of["Z4Z2"][-2])
        cmds.append(("limit", W + ["limit", "--kind", "product", *small_pair],
                     small_pair))
        pb = self._pullback_pair(ws)
        cmds.append(("limit", W + ["limit", "--kind", "pullback", *pb], pb))
        S = ["--workspace", small_path]
        for n in small.morphisms:
            cmds.append(("oracle", S + ["oracle", "--kind", "kernel", n], n))
            cmds.append(("oracle", S + ["oracle", "--kind", "cokernel", n], n))
        cmds.append(("search", ["--corpus", "search", "m_subset_mstar",
                                "--bound", "4"], False))
        cmds.append(("search", ["--corpus", "search",
                                "every_morphism_is_covering", "--bound", "4"],
                     True))
        for n in ("Z4/cone1", "Z6/cone2"):
            cmds.append(("corpus_classify", ["--corpus", "classify", n], n))
        # repeats: the report must be byte-identical to the first run
        cmds.extend(cmds[1:4])
        F = ["--workspace", faults_path]
        cmds.append(("crawl", F + ["classify", "crawl_classify"], None))
        cmds.append(("crawl", F + ["cover", "crawl_cover"], None))
        for label in inputs.MALFORMED:
            cmds.append(("malformed", ["--workspace", self.files[label][0],
                                       "validate"], None))
        return cmds

    @staticmethod
    def _pullback_pair(ws):
        """Two finite morphisms with the same codomain object."""
        by_cod = {}
        for n, m in ws.morphisms.items():
            if isinstance(m, inputs.FiniteMorphism):
                by_cod.setdefault(m.cod, []).append(n)
        return next(names[:2] for names in by_cod.values() if len(names) >= 2)

    # -- running ------------------------------------------------------------

    def run(self, item):
        _, argv, _ = item
        if self.shim:
            cmd = [sys.executable, self.shim, self.span_file] + argv
        else:
            cmd = [sys.executable, "-m", "preordgrp"] + argv
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, env=self.env,
                                  timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            return None
        if self.shim:
            self._collect_spans(spawned)
        return proc.returncode, proc.stdout, proc.stderr

    def _collect_spans(self, spawned):
        try:
            with open(self.span_file, encoding="utf-8") as fh:
                spans = json.load(fh)
            os.remove(self.span_file)
        except FileNotFoundError:
            return
        self.startups.append(spans["imported"] - spawned)
        self.parse_s += spans.get("parse", 0.0)
        self.command_s += spans.get("command", 0.0)

    def check(self, item, out):
        label, argv, arg = item
        if label == "crawl":
            # a crawl that finishes must be correct: see _check_crawl
            return (out is None), ([] if out is None else
                                   self._check_crawl(argv, out))
        if label == "malformed":
            code, _, err = out
            ok = code == 1 and err.startswith(b"error:")
            return (not ok), []
        if out is None:
            return True, []
        code, stdout, stderr = out
        self.report_bytes += len(stdout)
        try:
            report = json.loads(stdout)
        except ValueError:
            return False, [f"{argv}: no JSON report (exit {code}): "
                           f"{stderr.decode(errors='replace')[-200:]}"]
        key = tuple(argv)
        if key in self.first_report and self.first_report[key] != stdout:
            return False, [f"{argv}: repeated report differs"]
        self.first_report[key] = stdout
        err = getattr(self, f"_check_{label}")(report, code, arg)
        return False, ([] if err is None else [f"{' '.join(argv)}: {err}"])

    def verdicts(self, out):
        if not out or not out[1]:
            return 0, 0
        try:
            report = json.loads(out[1])
        except ValueError:
            return 0, 0
        flags = list(_exact_fields(report))
        return _exact_count(flags)

    def finish(self):
        return []

    def layer_metrics(self, tr):
        import statistics
        return {
            "cli.startup_s": ("s", statistics.median(self.startups)
                              if self.startups else 0.0),
            "cli.parse.self_s": ("s", self.parse_s),
            "cli.command.self_s": ("s", self.command_s),
            "cli.report_bytes": ("bytes", self.report_bytes),
        }

    # -- per-command checks -------------------------------------------------

    def _ws(self):
        return self.files["main"][1]

    def _object(self, name):
        ws = self._ws()
        obj = ws.objects[name]
        if isinstance(obj, inputs.FiniteObject):
            return ws.groups[obj.group].table, obj.members
        return None, obj

    def _facts(self, mname, ws=None):
        ws = ws or self._ws()
        m = ws.morphisms[mname]
        d, c = ws.objects[m.dom], ws.objects[m.cod]
        return checks.FiniteFacts(ws.groups[d.group].table, d.members,
                                  ws.groups[c.group].table, c.members, m.images)

    def _check_validate(self, report, code, _):
        ws = self._ws()
        if (report["objects"] != sorted(ws.objects)
                or report["morphisms"] != sorted(ws.morphisms)):
            return "validate lists other names"
        return checks.check_exit(report, code, True)

    def _check_classify(self, report, code, name):
        t, obj = self._object(name)
        flags = (checks.finite_flags(t, obj) if t is not None
                 else checks.fgab_flags(obj.rank, obj.generators))
        return (checks.check_classification(report, flags)
                or checks.check_exit(report, code, True))

    def _check_corpus_classify(self, report, code, name):
        """Corpus cones on Z/n are its subgroups, ordered by size then by
        members; Z/n has elements 0..n-1 with addition mod n."""
        gname, cone = name.split("/cone")
        n = int(gname[1:])
        t = [[(a + b) % n for b in range(n)] for a in range(n)]
        subs = sorted({frozenset(range(0, n, d)) for d in range(1, n + 1)
                       if n % d == 0}, key=lambda S: (len(S), sorted(S)))
        return (checks.check_classification(
                    report, checks.finite_flags(t, subs[int(cone)]))
                or checks.check_exit(report, code, True))

    def _check_torsion(self, report, code, name):
        t, obj = self._object(name)
        err = (checks.check_torsion_finite(report, t, obj) if t is not None
               else checks.check_torsion_fgab(report, obj.rank, obj.generators))
        return err or checks.check_exit(report, code, report["short_exact"])

    def _check_pretorsion(self, report, code, name):
        t, members = self._object(name)
        N = checks.units_of(t, members)
        if report["torsion_part"]["group"]["order"] != len(t):
            return "pretorsion torsion part is not the whole group"
        if report["torsion_part"]["cone"]["size"] != len(N):
            return "pretorsion torsion part cone is not the unit group"
        if "protomodular" not in report["torsion_part_classification"]["flags"]:
            return "pretorsion torsion part is not protomodular"
        if report["torsion_free"]["group"]["order"] != len(t) // len(N):
            return "pretorsion free part has the wrong order"
        return checks.check_exit(report, code, report["preexact"])

    def _check_factor(self, report, code, name):
        m = self._ws().morphisms[name]
        if not report["recomposes"]:
            return "factors do not recompose"
        holds = (report["e_class"]["holds"] and report["m_class"]["holds"])
        if isinstance(m, inputs.FiniteMorphism) and report["system"] == "MonotoneLight":
            facts = self._facts(name)
            if report["mid"]["group"]["order"] != facts.ml_mid_order:
                return "ml middle order differs from |G| / |ker & N|"
            if not holds:
                return "ml factors are not in E' and M*"
        return checks.check_exit(report, code, holds)

    def _check_class(self, report, code, arg):
        name, cls = arg
        facts = self._facts(name)
        want = {"E": facts.in_E, "M": facts.in_M, "Eprime": facts.in_Eprime,
                "Mstar": facts.covering}[cls]
        if report["in_class"] != want:
            return f"{cls} verdict {report['in_class']}, expected {want}"
        return checks.check_exit(report, code, want)

    def _check_covering(self, report, code, name):
        want = self._facts(name).covering
        if report["covering"] != want:
            return f"covering {report['covering']}, expected {want}"
        return checks.check_exit(report, code, want)

    def _check_kernel(self, report, code, name):
        f = self._facts(name)
        K = f.ker
        KP = K & f.P
        sub = _subtable(f.tG, K)
        if report["kernel"]["group"]["order"] != len(K):
            return "kernel order"
        if report["kernel"]["cone"]["size"] != len(KP):
            return "kernel cone size"
        flags = checks.finite_flags(sub, {sorted(K).index(x) for x in KP})
        return (checks.check_classification(report, flags)
                or checks.check_exit(report, code, True))

    def _check_cokernel(self, report, code, name):
        f = self._facts(name)
        t = f.tH
        if report["cokernel"]["group"]["order"] != len(t) // len(f.image):
            return "cokernel order"
        cosets = {frozenset(t[q][i] for i in f.image) for q in f.Q}
        if report["cokernel"]["cone"]["size"] != len(cosets):
            return "cokernel cone size"
        if not report["projection_normal_epi"]:
            return "cokernel projection is not a normal epimorphism"
        return checks.check_exit(report, code, True)

    def _check_schreier(self, report, code, name):
        if isinstance(self._ws().morphisms[name], inputs.FiniteMorphism) \
                and not report["exhaustive"]:
            return "finite Schreier check is not exhaustive"
        return checks.check_exit(report, code, report["special_schreier"])

    def _check_cover(self, report, code, name):
        if any(report["scan"][k] for k in ("submonoid_violations",
                                           "conjugation_violations",
                                           "reducedness_violations")):
            return "cover scan found violations"
        if not report["realized"] or not report["projection_normal_epi"]:
            return "fgab cover not realized as a normal epimorphism"
        return checks.check_exit(report, code, True)

    def _check_limit(self, report, code, arg):
        if report["kind"] == "product":
            (t1, P1), (t2, P2) = (self._object(n) for n in arg)
            order, size = len(t1) * len(t2), len(P1) * len(P2)
        else:
            f1, f2 = (self._facts(n) for n in arg)
            pairs = [(a, b) for a in range(len(f1.tG)) for b in range(len(f2.tG))
                     if f1.img[a] == f2.img[b]]
            order = len(pairs)
            size = sum(1 for a, b in pairs if a in f1.P and b in f2.P)
        lim = report["limit"]
        if lim["group"]["order"] != order or lim["cone"]["size"] != size:
            return f"limit order/cone {lim}, expected {order}/{size}"
        return checks.check_exit(report, code, True)

    def _check_oracle(self, report, code, name):
        small = self.files["small"][1]
        f = self._facts(name, small)
        if report["kind"] == "Cokernel" and not f.image_normal:
            return "cokernel reported for a non-normal image"
        return checks.check_exit(report, code, report["holds"]) or \
            (None if report["holds"] else "universal property fails")

    def _check_search(self, report, code, expect_witness):
        found = report["counterexample"] is not None
        if found != expect_witness:
            return f"counterexample {report['counterexample']!r}"
        return checks.check_exit(report, code, not found)

    def _check_crawl(self, argv, out):
        """Answers the crawling commands must give once they finish."""
        code, stdout, _ = out
        report = json.loads(stdout)
        if "classify" in argv:
            err = checks.check_classification(
                report, checks.fgab_flags(2, inputs.CRAWL_CLASSIFY))
        else:
            err = self._check_cover(report, code, None)
        return [] if err is None else [f"{' '.join(argv)}: {err}"]


def _subtable(t, S):
    """Cayley table of the subgroup S, reindexed by sorted members."""
    els = sorted(S)
    idx = {x: i for i, x in enumerate(els)}
    return [[idx[t[a][b]] for b in els] for a in els]


def _exact_fields(report):
    """Truth values of every "exact" / "exact_checks" field in a report."""
    if isinstance(report, dict):
        for k, v in report.items():
            if k in ("exact", "exact_checks") and isinstance(v, bool):
                yield v
            else:
                yield from _exact_fields(v)
    elif isinstance(report, list):
        for v in report:
            yield from _exact_fields(v)
