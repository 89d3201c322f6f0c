"""The per-layer benchmark can size the pipeline the package builds.

``bench/run.py --trace 1`` calls its ``pipeline_sizes`` on a built pipeline;
a noise covariance or factor of a shape it cannot handle would make the traced
run raise.  This test loads the harness (without changing the file) and sizes
a small two-mode pipeline.
"""

import importlib.util
import sys
from pathlib import Path

from esln import build_pipeline, parse_config

from conftest import small_doc

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_pipeline_sizes_of_a_two_mode_pipeline(monkeypatch):
    spec = importlib.util.spec_from_file_location("esln_bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # its dataclasses look it up
    spec.loader.exec_module(module)
    doc = small_doc()
    doc["system"]["couplings"] = [[[0.3, 0.0], [0.0, -0.3]], [[0.2, 0.0], [0.0, -0.2]]]
    doc["bath"] = {"masses": [1.0, 1.0], "lambda": [[2.0, -0.5], [-0.5, 3.0]]}
    pipe = build_pipeline(parse_config(doc))
    sizes = module.pipeline_sizes(pipe)
    assert sizes["cov_dim"] == pipe.cov.dim
    assert sizes["rank"] == pipe.factor.rank > 0
