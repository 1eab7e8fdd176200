"""Golden CLI reports on the bundled corpus.

The fixture ``data/corpus_reports.json`` holds the stdout and exit code of
``classify``, ``torsion``, ``pretorsion``, ``reflect``, ``proto-reflect``
and ``cover`` for every corpus object, of ``enumerate --cones`` for every
finite corpus group, and of ``limit --kind product`` for every ordered pair
of f.g. abelian corpus objects.  Any change to these reports must be
deliberate: regenerate the fixture with

    PYTHONPATH=src python tests/test_reports.py

and review the diff.
"""

import contextlib
import functools
import io
import json
import pathlib

import pytest

from preordgrp.cli import main
from preordgrp.corpus import (corpus_objects, fgab_corpus_objects,
                              finite_corpus_groups)

FIXTURE = pathlib.Path(__file__).parent / "data" / "corpus_reports.json"
OBJECT_COMMANDS = ("classify", "torsion", "pretorsion", "reflect",
                   "proto-reflect", "cover")


def corpus_commands():
    cmds = [(c, name) for name in sorted(corpus_objects())
            for c in OBJECT_COMMANDS]
    cmds += [("enumerate", "--cones", name)
             for name in sorted(finite_corpus_groups())]
    cmds += [("limit", "--kind", "product", a, b)
             for a in sorted(fgab_corpus_objects())
             for b in sorted(fgab_corpus_objects())]
    return cmds


def run_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["--corpus", *argv])
    return {"stdout": out.getvalue(), "exit": code}


@functools.lru_cache(maxsize=1)
def _load():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_command():
    assert sorted(_load()) == sorted(" ".join(c) for c in corpus_commands())


@pytest.mark.parametrize("argv", corpus_commands(), ids=" ".join)
def test_report_is_byte_identical(argv):
    assert run_report(argv) == _load()[" ".join(argv)]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    reports = {" ".join(c): run_report(c) for c in corpus_commands()}
    FIXTURE.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(reports)} reports to {FIXTURE}")
