"""The demos run in-process and print the same text on a second run, so a
removed export or a nondeterministic report shows up in the suite."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def _run(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_every_demo_is_collected():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_prints_the_same_text_twice(path):
    first = _run(path)
    assert first.strip()
    assert _run(path) == first
