"""Run configuration: parsing, validation, and canonical emission.

The document is JSON-compatible.  Matrices are nested arrays whose entries are
either plain reals or two-element [re, im] pairs.  Unknown keys anywhere in the
document are errors; every validation failure names the offending field path.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, ValidationError
from .model import BathSpec, Drive, SystemSpec, check_hermitian
from .noise import DEFAULT_DIM_CAP, TimeGrids
from .oracle import DEFAULT_CAP as ORACLE_DEFAULT_CAP

@dataclass(frozen=True)
class RunConfig:
    """Everything a full run needs, validated."""

    system: SystemSpec
    bath: BathSpec
    grids: TimeGrids
    n_traj: int
    master_seed: int
    dim_cap: int
    oracle_n_levels: int
    oracle_cap: int
    output_document: str | None
    output_csv: str | None

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


def _expect_map(node, path):
    if not isinstance(node, dict):
        raise ValidationError(path, "expected an object")
    return node


def _take(node: dict, key: str, path: str, required=True, default=None):
    if key in node:
        return node.pop(key)
    if required:
        raise ValidationError(f"{path}.{key}", "missing required key")
    return default


def _no_extras(node: dict, path: str):
    if node:
        key = sorted(node)[0]
        raise ValidationError(f"{path}.{key}", "unknown key")


def _scalar(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, "expected a number")
    if not abs(value) <= sys.float_info.max:    # NaN, Infinity, or an int past the floats
        raise ValidationError(path, "must be finite")
    return float(value)


def _positive_scalar(value, path) -> float:
    x = _scalar(value, path)
    if x <= 0:
        raise ValidationError(path, "must be positive")
    return x


def _integer(value, path, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(path, f"must be >= {minimum}")
    return value


def _entry(value, path) -> complex:
    """A matrix entry: plain real or [re, im] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_scalar(value, path))
    if isinstance(value, list) and len(value) == 2:
        return complex(_scalar(value[0], f"{path}[0]"), _scalar(value[1], f"{path}[1]"))
    raise ValidationError(path, "expected a real number or an [re, im] pair")


def _matrix(value, path, shape) -> np.ndarray:
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ValidationError(path, f"expected {shape[0]} rows")
    out = np.zeros(shape, dtype=complex)
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise ValidationError(f"{path}[{r}]", f"expected {shape[1]} entries")
        for c, v in enumerate(row):
            out[r, c] = _entry(v, f"{path}[{r}][{c}]")
    return out


def _real_vector(value, path, length=None) -> np.ndarray:
    if not isinstance(value, list):
        raise ValidationError(path, "expected an array")
    if length is not None and len(value) != length:
        raise ValidationError(path, f"expected {length} entries")
    return np.array([_scalar(v, f"{path}[{i}]") for i, v in enumerate(value)], dtype=float)


def parse_config(document) -> RunConfig:
    """Validate a configuration document (dict) into a RunConfig.

    Raises ValidationError with a field-precise path on any problem.
    """
    doc = dict(_expect_map(document, "config"))

    sys_node = dict(_expect_map(_take(doc, "system", "config"), "system"))
    dim = _integer(_take(sys_node, "dim", "system"), "system.dim", minimum=1)
    h0 = _matrix(_take(sys_node, "h0", "system"), "system.h0", (dim, dim))
    hbar = _positive_scalar(_take(sys_node, "hbar", "system"), "system.hbar")
    beta = _positive_scalar(_take(sys_node, "beta", "system"), "system.beta")
    couplings_node = _take(sys_node, "couplings", "system")
    if not isinstance(couplings_node, list):
        raise ValidationError("system.couplings", "expected an array of matrices")
    couplings = [_matrix(mat, f"system.couplings[{i}]", (dim, dim))
                 for i, mat in enumerate(couplings_node)]
    drives_node = _take(sys_node, "drives", "system", required=False, default=[])
    _no_extras(sys_node, "system")

    bath_node = dict(_expect_map(_take(doc, "bath", "config"), "bath"))
    masses = _real_vector(_take(bath_node, "masses", "bath"), "bath.masses")
    m = masses.size
    lam = _matrix(_take(bath_node, "lambda", "bath"), "bath.lambda", (m, m))
    if np.abs(lam.imag).max(initial=0.0) > 0:
        raise ValidationError("bath.lambda", "must be real")
    lam = lam.real
    if m and np.abs(lam - lam.T).max() > 1e-12 * max(np.abs(lam).max(), 1.0):
        raise ValidationError("bath.lambda", "must be symmetric")
    _no_extras(bath_node, "bath")
    if len(couplings) != m:
        raise ValidationError("system.couplings",
                              f"need one coupling per bath site ({m}), got {len(couplings)}")

    grids_node = dict(_expect_map(_take(doc, "grids", "config"), "grids"))
    t_f = _positive_scalar(_take(grids_node, "t_f", "grids"), "grids.t_f")
    n_t = _integer(_take(grids_node, "n_t", "grids"), "grids.n_t", minimum=2)
    n_tau = _integer(_take(grids_node, "n_tau", "grids"), "grids.n_tau", minimum=2)
    _no_extras(grids_node, "grids")
    grids = TimeGrids(t_f=t_f, n_t=n_t, hbar_beta=hbar * beta, n_tau=n_tau)

    ens_node = dict(_expect_map(_take(doc, "ensemble", "config"), "ensemble"))
    n_traj = _integer(_take(ens_node, "n_traj", "ensemble"), "ensemble.n_traj", minimum=3)
    master_seed = _integer(_take(ens_node, "master_seed", "ensemble"),
                           "ensemble.master_seed", minimum=0)
    _no_extras(ens_node, "ensemble")

    noise_node = dict(_expect_map(
        _take(doc, "noise", "config", required=False, default={}), "noise"))
    dim_cap = _integer(_take(noise_node, "dim_cap", "noise", required=False,
                             default=DEFAULT_DIM_CAP), "noise.dim_cap", minimum=1)
    _no_extras(noise_node, "noise")
    if 2 * n_t + n_tau > dim_cap:
        raise ValidationError(
            "grids", f"per-channel covariance dimension {2 * n_t + n_tau} exceeds "
                     f"noise.dim_cap = {dim_cap}")

    oracle_node = dict(_expect_map(
        _take(doc, "oracle", "config", required=False, default={}), "oracle"))
    n_levels = _integer(_take(oracle_node, "n_levels", "oracle", required=False, default=8),
                        "oracle.n_levels", minimum=2)
    oracle_cap = _integer(_take(oracle_node, "cap", "oracle", required=False,
                                default=ORACLE_DEFAULT_CAP), "oracle.cap", minimum=2)
    _no_extras(oracle_node, "oracle")

    out_node = dict(_expect_map(
        _take(doc, "output", "config", required=False, default={}), "output"))
    output_document = _take(out_node, "document", "output", required=False)
    output_csv = _take(out_node, "csv", "output", required=False)
    for name, val in (("document", output_document), ("csv", output_csv)):
        if val is not None and not isinstance(val, str):
            raise ValidationError(f"output.{name}", "expected a path string")
    _no_extras(out_node, "output")
    _no_extras(doc, "config")

    drives = []
    if not isinstance(drives_node, list):
        raise ValidationError("system.drives", "expected an array")
    for i, dnode in enumerate(drives_node):
        dnode = dict(_expect_map(dnode, f"system.drives[{i}]"))
        mat = _matrix(_take(dnode, "matrix", f"system.drives[{i}]"),
                      f"system.drives[{i}].matrix", (dim, dim))
        amps = _real_vector(_take(dnode, "amplitudes", f"system.drives[{i}]"),
                            f"system.drives[{i}].amplitudes", length=n_t)
        _no_extras(dnode, f"system.drives[{i}]")
        check_hermitian(mat, f"system.drives[{i}].matrix")
        drives.append(Drive(matrix=mat, amplitudes=amps))
    try:
        system = SystemSpec(dim=dim, h0=h0, couplings=tuple(couplings), hbar=hbar,
                            beta=beta, drive=tuple(drives))
        bath = BathSpec(masses=masses, lam=lam)
    except ValidationError:
        raise
    except Exception as exc:  # Hermiticity / shape problems surface with paths
        raise ValidationError("system", str(exc)) from exc

    return RunConfig(system=system, bath=bath, grids=grids, n_traj=n_traj,
                     master_seed=master_seed, dim_cap=dim_cap, oracle_n_levels=n_levels,
                     oracle_cap=oracle_cap, output_document=output_document, output_csv=output_csv)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(document)


def _emit_matrix(mat: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, complex)]


def emit_config(cfg: RunConfig) -> dict:
    """Canonical document form; parse(emit(cfg)) reproduces cfg."""
    doc = {
        "system": {
            "dim": cfg.system.dim,
            "h0": _emit_matrix(cfg.system.h0),
            "couplings": [_emit_matrix(f) for f in cfg.system.couplings],
            "hbar": cfg.system.hbar,
            "beta": cfg.system.beta,
        },
        "bath": {
            "masses": [float(v) for v in cfg.bath.masses],
            "lambda": [[float(v) for v in row] for row in cfg.bath.lam],
        },
        "grids": {"t_f": cfg.grids.t_f, "n_t": cfg.grids.n_t, "n_tau": cfg.grids.n_tau},
        "ensemble": {"n_traj": cfg.n_traj, "master_seed": cfg.master_seed},
        "noise": {"dim_cap": cfg.dim_cap},
        "oracle": {"n_levels": cfg.oracle_n_levels, "cap": cfg.oracle_cap},
    }
    if cfg.system.drive:
        doc["system"]["drives"] = [
            {"matrix": _emit_matrix(dr.matrix),
             "amplitudes": [float(a) for a in dr.amplitudes]}
            for dr in cfg.system.drive]
    output = {}
    if cfg.output_document is not None:
        output["document"] = cfg.output_document
    if cfg.output_csv is not None:
        output["csv"] = cfg.output_csv
    if output:
        doc["output"] = output
    return doc
