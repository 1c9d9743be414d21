"""The benchmark tracer wraps library functions by name; each must still exist.

``benchmarks/tracing.py`` looks every name in ``WRAPPED`` up on its
``hardyconj.<layer>`` module with no default, so a removed or renamed
function breaks ``benchmarks/run.py --trace 1``. This test reads the list
without installing the tracer.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.tracing import WRAPPED  # noqa: E402


def test_every_wrapped_name_is_a_function_of_its_layer():
    assert WRAPPED
    for layer, names in WRAPPED.items():
        module = importlib.import_module(f"hardyconj.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"hardyconj.{layer}.{name} is gone"
            assert fn.__module__ == module.__name__, f"{layer}.{name} is defined elsewhere"
