"""The per-layer benchmark can size the pipeline the package builds, and its
workloads have the shape its figures assume.

``bench/run.py --trace 1`` calls its ``pipeline_sizes`` on a built pipeline;
a noise covariance or factor of a shape it cannot handle would make the traced
run raise.  These tests load the harness (without changing its files), size a
small two-mode pipeline and count each workload's coupling channels.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from esln import build_pipeline, coupling_channels, diagonalize_bath, mode_couplings, parse_config

from conftest import small_doc

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"esln_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_pipeline_sizes_of_a_two_mode_pipeline(monkeypatch):
    module = _load(monkeypatch, "run")
    doc = small_doc()
    doc["system"]["couplings"] = [[[0.3, 0.0], [0.0, -0.3]], [[0.2, 0.0], [0.0, -0.2]]]
    doc["bath"] = {"masses": [1.0, 1.0], "lambda": [[2.0, -0.5], [-0.5, 3.0]]}
    pipe = build_pipeline(parse_config(doc))
    sizes = module.pipeline_sizes(pipe)
    assert sizes["cov_dim"] == pipe.cov.dim
    assert sizes["rank"] == pipe.factor.rank > 0


@pytest.mark.parametrize("name", ["headline", "driven", "many_modes"])
def test_every_workload_couples_through_one_channel(monkeypatch, name):
    # every site couples through sigma_z, so however many modes a workload
    # has, its noise is one channel's: the premise of sampling per channel
    workloads = _load(monkeypatch, "workloads")
    cfg = workloads.load(name, BENCH.parent, seed=2718).cfg
    modes = diagonalize_bath(cfg.bath)
    channels, weights = coupling_channels(mode_couplings(modes, cfg.bath, cfg.system))
    assert len(channels) == 1
    assert weights.shape == (1, modes.n_modes) and (weights != 0).all()
