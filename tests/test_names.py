"""Every exported name and every function the perfbench tracer wraps resolves.

A renamed or deleted function would otherwise vanish from the traced
layer counts without an error.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import seqmeas

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer,module_name,attr", tracer_targets())
def test_tracer_target_resolves(layer, module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, fn_name = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    # the tracer wraps the attribute where it is defined, not an inherited one
    assert fn_name in vars(owner), f"{layer}: {module_name}.{attr} is gone"
    assert callable(getattr(owner, fn_name))


def test_exported_names_resolve():
    missing = [name for name in seqmeas.__all__ if not hasattr(seqmeas, name)]
    assert missing == []
    assert len(set(seqmeas.__all__)) == len(seqmeas.__all__)
