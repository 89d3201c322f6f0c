"""The per-layer benchmark finds every hooked function in the package, and
each one runs where the benchmark expects it.

``bench/tracing.py`` skips a hook whose attribute is missing, so a rename in
``esln`` would silently drop that layer's spans; and a refactor that called a
layer directly instead of through the hooked module attribute would leave the
hook resolvable while its spans read 0.  These tests read the hook table
(without changing the file), resolve each entry, and count each hook's calls.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from esln import ensemble, parse_config, run_ensemble

from conftest import small_doc

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
# the hooks a run calls once per block; the others run while the pipeline is built
PER_BLOCK = {"_run_batch", "derive_seed", "draw_normal", "equilibrate_batch", "evolve_batch",
             "_pairwise_stats"}
# noise.py imports site_kernel only for its hook, and the noise path no longer
# calls it, so its kernels.evals count reads 0 (ROADMAP, "bench/ stays fixed")
NEVER_CALLED = {("esln.noise", "site_kernel")}


@pytest.fixture
def hooks(monkeypatch):
    spec = importlib.util.spec_from_file_location("esln_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # its dataclasses look it up
    spec.loader.exec_module(module)
    assert module.HOOKS
    return module.HOOKS


def test_every_benchmark_hook_resolves(hooks):
    for module_name, attr, span, _ in hooks:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} (span {span}) is missing"


def test_every_hooked_layer_runs_once_per_block(hooks, monkeypatch):
    # a two-block run calls each per-block hook twice and each set-up hook at
    # least once, all through the module attributes the benchmark replaces
    calls = {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for module_name, attr, _, _ in hooks:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counted((module_name, attr), getattr(module, attr)))
    run_ensemble(parse_config(small_doc(n_traj=ensemble.BATCH_SIZE + 6)))
    for module_name, attr, span, _ in hooks:
        n = calls.get((module_name, attr), 0)
        if (module_name, attr) in NEVER_CALLED:
            assert n == 0, f"{module_name}.{attr} runs again: drop it from NEVER_CALLED"
        elif attr in PER_BLOCK:
            assert n == 2, f"{module_name}.{attr} (span {span}) ran {n} times in 2 blocks"
        else:
            assert n >= 1, f"{module_name}.{attr} (span {span}) never ran"
