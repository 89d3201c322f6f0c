"""The benchmark's workloads: each is a validated esln run configuration plus
the worker count it runs with and how its result is checked.

* ``headline``: ``configs/two_mode_reference.json`` as shipped (2 modes,
  401x101 grid, 10^4 trajectories).  The validated acceptance case; every
  layer does real work, and the 1806-dim Takagi factorisation dominates
  set-up.
* ``driven``: the ``quick_demo`` system (1 mode, 81x41 grid) with a sigma_x
  drive 0.3 sin(2t), 32768 trajectories on 2 workers.  Set-up is ~10 ms, so a
  factorisation change must not move it; the 2x2 matrices make it bound by
  per-call overhead in the propagation loop.
* ``many_modes``: a 4-mode chain bath on a 201x51 grid, 2048 trajectories.
  Same covariance size as ``headline`` but M = 4, so set-up dominates the wall
  time and a per-mode factorisation shows most here.  It is undriven and hence
  stationary, so it is checked against the oracle's t = 0 state at every t:
  the full-grid oracle of a 4-mode bath costs tens of seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from esln import (RunConfig, TruncatedBath, build_total_hamiltonian, diagonalize_bath,
                  exact_reduced_dynamics, mode_couplings, parse_config)
from esln.oracle import partial_trace_bath, thermal_state, total_dimension


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: RunConfig
    workers: int
    oracle_full_grid: bool      # False: compare every t against the exact t = 0 state


def _shipped(root: Path, name: str) -> dict:
    with open(root / "configs" / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _headline(root: Path) -> tuple[dict, int, bool]:
    return _shipped(root, "two_mode_reference.json"), 1, True


def _driven(root: Path) -> tuple[dict, int, bool]:
    doc = _shipped(root, "quick_demo.json")
    grids = doc["grids"]
    t = np.linspace(0.0, grids["t_f"], grids["n_t"])
    doc["system"]["drives"] = [{"matrix": [[0.0, 1.0], [1.0, 0.0]],
                                "amplitudes": [float(a) for a in 0.3 * np.sin(2.0 * t)]}]
    doc["ensemble"]["n_traj"] = 32768
    return doc, 2, True


def _many_modes(root: Path) -> tuple[dict, int, bool]:
    lam = np.diag([2.0, 3.0, 2.5, 3.5])
    for i in range(3):
        lam[i, i + 1] = lam[i + 1, i] = -0.5
    doc = {
        "system": {"dim": 2, "h0": [[0.0, 0.5], [0.5, 0.0]],
                   "couplings": [[[c, 0.0], [0.0, -c]] for c in (0.2, 0.15, 0.15, 0.1)],
                   "hbar": 1.0, "beta": 1.0},
        "bath": {"masses": [1.0] * 4, "lambda": lam.tolist()},
        "grids": {"t_f": 2.0, "n_t": 201, "n_tau": 51},
        "ensemble": {"n_traj": 2048, "master_seed": 0},
        "oracle": {"n_levels": 5},
    }
    return doc, 1, False


_BUILDERS = {"headline": _headline, "driven": _driven, "many_modes": _many_modes}
NAMES = tuple(_BUILDERS)


def load(name: str, root: Path, seed: int) -> Workload:
    """The workload ``name`` with its master seed set to ``seed`` mod 2**64.

    The override is applied to the config before any pipeline is built, so
    ``run_ensemble(cfg, pipeline=build_pipeline(cfg))`` reuses the pipeline.
    """
    doc, workers, full_grid = _BUILDERS[name](root)
    cfg = parse_config(doc).with_overrides(master_seed=seed % 2 ** 64)
    return Workload(name=name, cfg=cfg, workers=workers, oracle_full_grid=full_grid)


def exact_reference(cfg: RunConfig, full_grid: bool) -> tuple[np.ndarray, int]:
    """Exact reduced states to compare against, shape (n_t, d, d) or (1, d, d),
    and the oracle's total Hilbert dimension.

    With ``full_grid`` False only the t = 0 canonical state is computed; an
    undriven system is stationary, so it is the reference at every t.
    """
    modes = diagonalize_bath(cfg.bath)
    g_ops = mode_couplings(modes, cfg.bath, cfg.system)
    trunc = TruncatedBath(cfg.oracle_n_levels, cap=cfg.oracle_cap)
    dim = total_dimension(cfg.system, modes, trunc)
    if full_grid:
        return exact_reduced_dynamics(cfg.system, modes, g_ops, trunc, cfg.grids), dim
    if cfg.system.drive:
        raise ValueError("a driven system is not stationary; use the full grid")
    h_tot = build_total_hamiltonian(cfg.system, modes, g_ops, trunc)
    rho0 = partial_trace_bath(thermal_state(h_tot, cfg.system.beta), cfg.system.dim)
    return rho0[None], dim
