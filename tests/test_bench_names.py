"""The callables the benchmark's per-layer spans wrap must exist and fire.

`perfbench/spans.py` wraps public callables at the names their callers look
them up under.  A renamed or deleted one is only recorded as absent there,
and its per-layer metrics drop out of the bench result; a training callable
that is no longer called is seen only by a traced bench run.  These tests
fail on either instead.
"""
import importlib
from collections import Counter
from pathlib import Path

import fedcell.fl
from fedcell.config import load_config
from fedcell.data import load_dataset
from fedcell.harness import allocate
from fedcell.mlp import Mlp
from fedcell.topology import generate_topology

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def import_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_wrapped_callable_exists(monkeypatch):
    spans = import_spans(monkeypatch)
    names = [(owner, attr) for owner, attr, _, _ in spans.TIMED]
    names += [(owner, attr) for owner, attr, _ in spans.COUNTED]
    missing = [spans._label(owner, attr) for owner, attr in names
               if getattr(owner, attr, None) is None]
    assert missing == []


def test_every_wrapped_training_callable_fires(monkeypatch):
    spans = import_spans(monkeypatch)
    wrapped = [(owner, attr) for owner, attr, _, _ in spans.TIMED
               if owner is fedcell.fl or owner is Mlp]
    assert len(wrapped) >= 2
    calls = Counter()

    def counting(label, original):
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return original(*args, **kwargs)
        return wrapper

    for owner, attr in wrapped:
        label = spans._label(owner, attr)
        monkeypatch.setattr(owner, attr, counting(label, getattr(owner, attr)))

    config = load_config(ROOT / "configs" / "desk_train_r5.yaml").replace(rounds=1)
    topo = generate_topology(config, config.seed)
    alloc = allocate("opt+dp", topo, config, config.seed)
    assert (alloc.sigmas > 0.0).any()
    fedcell.fl.train(topo, alloc, load_dataset(config), config, config.seed)
    never = [spans._label(owner, attr) for owner, attr in wrapped
             if calls[spans._label(owner, attr)] == 0]
    assert never == []
