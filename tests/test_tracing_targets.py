"""Every function that ``perfbench/tracing.py`` wraps still exists.

``Tracer.installed`` looks each ``TARGETS`` entry up with
``vars(owner)[name]``, so a renamed or removed function makes
``perfbench/run.py --trace 1`` fail with ``KeyError``.  The file is read,
not imported, so no bytecode cache is written beside it.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("span, module, attr",
                         [entry[:3] for entry in tracing.TARGETS],
                         ids=[entry[0] for entry in tracing.TARGETS])
def test_target_resolves(span, module, attr):
    importlib.import_module(module)
    owner, name = tracing._lookup(module, attr)
    assert name in vars(owner), f"{span}: {module}.{attr} is gone"
    assert callable(vars(owner)[name]), f"{span}: {module}.{attr} is not callable"
