"""The callables the benchmark's per-layer spans wrap must exist.

`perfbench/spans.py` wraps public callables at the names their callers look
them up under.  A renamed or deleted one is only recorded as absent there,
and its per-layer metrics drop out of the bench result; this test fails on
it instead.
"""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_callable_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    names = [(owner, attr) for owner, attr, _, _ in spans.TIMED]
    names += [(owner, attr) for owner, attr, _ in spans.COUNTED]
    missing = [spans._label(owner, attr) for owner, attr in names
               if getattr(owner, attr, None) is None]
    assert missing == []
