"""The per-layer benchmark finds every hooked function in the package.

``bench/tracing.py`` skips a hook whose attribute is missing, so a rename in
``esln`` would silently drop that layer's spans.  This test reads the hook
table (without changing the file) and resolves each entry.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_benchmark_hook_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("esln_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # its dataclasses look it up
    spec.loader.exec_module(module)
    hooks = module.HOOKS
    assert hooks
    for module_name, attr, span, _ in hooks:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} (span {span}) is missing"
