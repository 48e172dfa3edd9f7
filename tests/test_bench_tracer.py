"""The benchmark's layer tracer must still find every entry point it wraps.

``bench/layer_trace.py`` names the program's functions and methods in
``SPANS`` and ``LEAVES`` and patches them when a traced run starts.  A name
that is deleted or renamed in ``src/`` would fail only then, so this test
loads the tracer (reading its source, writing nothing under ``bench/``) and
resolves each entry the way ``Tracer._patch`` does.
"""

import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "layer_trace.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("layer_trace")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    return module


layer_trace = load_tracer()
ENTRIES = layer_trace.SPANS + layer_trace.LEAVES


def entry_id(entry) -> str:
    _name, _layer, owner, attr = entry
    return f"{owner.__name__.removeprefix('epitrace.')}.{attr}"


def test_tracer_lists_entries():
    assert layer_trace.SPANS and layer_trace.LEAVES


@pytest.mark.parametrize("entry", ENTRIES, ids=map(entry_id, ENTRIES))
def test_entry_resolves_to_a_callable(entry):
    _name, _layer, owner, attr = entry
    # a class is patched through its own __dict__, a module through getattr
    target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(target), f"{entry_id(entry)} is not a callable the tracer can wrap"
