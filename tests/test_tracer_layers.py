"""The benchmark's per-layer tracer names package callables by string and
raises on a missing one, so a rename in the package would break the traced
benchmark.  This check loads bench/tracer.py without installing it."""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_callable_resolves():
    qualnames = [q for names, _span in _layers().values() for q in names]
    assert qualnames
    for qualname in qualnames:
        mod_name, attr = qualname.split(".")
        module = importlib.import_module(f"dnareads.{mod_name}")
        assert callable(getattr(module, attr, None)), qualname
