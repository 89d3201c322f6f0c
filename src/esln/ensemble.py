"""Trajectory orchestration, noise averaging, and statistical error.

One estimator: trajectories stay unnormalized through real time, and every
output is scaled once by 1 / Tr <rho_bar(hbar*beta)>, the noise-averaged
partition function.  By linearity of the noise average this is exact.

Trajectories run in antithetic pairs: one draw w gives the fields z of one
trajectory and -z of its partner.  w and -w have the same law, so the pair
mean is an exact, unbiased sample in which the odd orders of the noise
cancel; the statistics are taken over pair means.  A run of an odd number of
trajectories runs one more, to whole pairs.

The one unit of work is the block of BATCH_SIZE trajectories.  Each block
draws its noise in one call from the stream keyed by (master_seed, block
index), one row per pair, propagates all its trajectories together and takes
the (mean, M2) of the real view of one row per completed pair in two passes;
block partials are then folded in block order with Chan's merge.  All of it
depends only on block indices, so results are bit-identical for any worker
count, and a checkpoint taken between blocks resumes to the same bits.

One worker runs the blocks on the calling thread.  More run them on that
many spawned processes, each sent the config, the system and the noise factor
once; the calling process only merges and checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import pickle
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .config import RunConfig, emit_config
from .errors import NumericalError, TooManyFailures, ValidationError, WorkerLost
from .kernels import KernelContext
from .model import (NormalModes, SystemSpec, coupling_channels, diagonalize_bath,
                    mode_couplings)
from .noise import (NoiseCovariance, NoiseFactor, build_covariance, derive_seed,
                    draw_normal, factorize, synthesize)
from .propagate import equilibrate_batch, evolve_batch

BATCH_SIZE = 512            # trajectories per block, the one unit of work
FAILURE_FRACTION = 0.01
CHECKPOINT_EVERY = 16       # blocks between checkpoint writes; the last block writes too
DOCUMENT_SCHEMA = "esln-result/4"
# the config sections that fix a run's numbers: documents and checkpoints echo these alone
ECHOED_SECTIONS = ("system", "bath", "grids", "ensemble")


# ---------------------------------------------------------------------------
# pipeline assembly

@dataclass(frozen=True)
class Pipeline:
    """All derived objects a run needs, built once from the config; the noise
    lives on the coupling channels."""

    config: RunConfig
    modes: NormalModes
    ctx: KernelContext
    system: SystemSpec      # the config's system with one coupling G_k per channel
    cov: NoiseCovariance
    factor: NoiseFactor


def build_pipeline(cfg: RunConfig) -> Pipeline:
    """Diagonalise the bath, group the mode couplings into coupling channels
    (modes with parallel couplings share one), and build and factor each
    channel's noise covariance."""
    modes = diagonalize_bath(cfg.bath)
    ctx = KernelContext.from_bath(cfg.bath, modes, cfg.system.hbar, cfg.system.beta)
    channels, weights = coupling_channels(mode_couplings(modes, cfg.bath, cfg.system))
    system = replace(cfg.system, couplings=channels)
    cov = build_covariance(ctx, cfg.grids, dim_cap=cfg.dim_cap, weights=weights)
    factor = factorize(cov)
    return Pipeline(config=cfg, modes=modes, ctx=ctx, system=system, cov=cov, factor=factor)


def _built_for(pipe: Pipeline, cfg: RunConfig) -> bool:
    """True when ``pipe`` was built from the system, bath, grids and cap of
    ``cfg``.  ``with_overrides`` keeps those objects, so a run with another
    seed or trajectory count reuses the pipeline."""
    built = pipe.config
    return (built.system is cfg.system and built.bath is cfg.bath
            and built.grids is cfg.grids and built.dim_cap == cfg.dim_cap)


# ---------------------------------------------------------------------------
# streaming statistics (Chan's parallel mean/M2 merge)

@dataclass
class _Stats:
    """Count, mean and M2 of real columns; a complex column is two, re then im."""

    n: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def empty(cls, shape) -> "_Stats":
        return cls(0, np.zeros(shape), np.zeros(shape))

    def merge(self, other: "_Stats") -> "_Stats":
        if self.n == 0:
            return other
        if other.n == 0:
            return self
        return _chan(self, other)

    def se(self) -> np.ndarray:
        """Standard error of the mean."""
        if self.n < 2:
            return np.zeros_like(self.m2)
        return np.sqrt(self.m2 * (1.0 / (self.n * (self.n - 1))))


def _chan(a: _Stats, b: _Stats) -> _Stats:
    """Chan's merge of two nonempty partials."""
    n = a.n + b.n
    delta = b.mean - a.mean
    corr = a.n * b.n / n
    return _Stats(n, a.mean + delta * (b.n / n), a.m2 + b.m2 + delta ** 2 * corr)


def _pairwise_stats(values: np.ndarray) -> _Stats:
    """(mean, M2) of real values along axis 0, in two passes.

    The mean is taken relative to the first row, so identical rows give a mean
    equal to that row and an M2 of exactly 0.  The sum is scaled by 1 / k, as
    numpy's complex mean does, so a complex array's real view keeps its bits.
    """
    k = values.shape[0]
    if k == 0:
        return _Stats.empty(values.shape[1:])
    mean = values[0] + (values - values[0]).sum(axis=0) * (1.0 / k)
    dev = values - mean
    return _Stats(k, mean, np.square(dev, out=dev).sum(axis=0))


# ---------------------------------------------------------------------------
# batch execution

def _row_layout(n_t: int, d: int) -> tuple:
    """(columns, shape) of each part of a pair row, in row order: the pair
    mean's series (n_t, d, d), its z-factor Tr / d, and its residuals (n_t, k)
    of _residuals.  The last part ends the row."""
    m, k = n_t * d * d, d * (d + 1) // 2 + 1
    return ((slice(0, m), (n_t, d, d)), (slice(m, m + 1), ()),
            (slice(m + 1, m + 1 + n_t * k), (n_t, k)))


def _residuals(values: np.ndarray, out: np.ndarray):
    """Write to the (B, n_t, k) ``out`` the (B, n_t, d, d) ``values``'
    deviations from a Hermitian, trace-preserving average: v_ij - conj(v_ji)
    for i <= j, then Tr v(t) - Tr v(0).  The noise average of each is 0."""
    d = values.shape[-1]
    upper = [(i, j) for i in range(d) for j in range(i, d)]
    for k, (i, j) in enumerate(upper):      # basic slices: fancy indexing is 3x slower
        np.subtract(values[..., i, j], values[..., j, i].conj(), out=out[..., k])
    trace = values[..., 0, 0].copy()
    for i in range(1, d):
        trace += values[..., i, i]
    np.subtract(trace, trace[:, :1], out=out[..., -1])


def _trajectories(n_traj: int) -> int:
    """How many trajectories a run of ``n_traj`` runs: whole pairs."""
    return n_traj + n_traj % 2


def _run_batch(system: SystemSpec, factor: NoiseFactor, cfg: RunConfig, block: int,
               real_time: bool) -> _Stats:
    """Draw, quench and (with ``real_time``) evolve block ``block``, and
    reduce its completed pairs' rows (_row_layout), viewed as reals, to _Stats.

    The block holds trajectories block * BATCH_SIZE onwards, up to BATCH_SIZE
    of them and none past the run's whole pairs.  Its n trajectories are n / 2
    antithetic pairs, drawn in one call from the stream keyed by
    (``cfg.master_seed``, ``block``), one row per pair.  The fields z of the
    rows are synthesized once, and the legs [z; -z] propagate together.  A
    pair fails if either leg fails, and its row is dropped.  Without real time
    the series is the single t = 0 entry, the unnormalized rho_bar(hbar*beta).
    """
    grids = cfg.grids
    n = min(BATCH_SIZE, _trajectories(cfg.n_traj) - block * BATCH_SIZE) // 2
    # the draws and their synthesis are not kept: only the legs live on
    eta, nu, mu = (np.concatenate([f, -f]) for f in synthesize(
        factor, draw_normal(factor, derive_seed(cfg.master_seed, block), n)))

    rho_end, div_imag = equilibrate_batch(system, mu, grids)
    del mu                  # spent: not held through the real-time phase
    traces = np.trace(rho_end, axis1=1, axis2=2)
    degenerate = np.abs(traces) < 1e-300
    failed = div_imag | degenerate
    if real_time:
        series, div_real = evolve_batch(system, eta, nu, grids, rho_end)
        failed |= div_real
    else:
        series = rho_end[:, None]
    (s_cols, s_shape), (z_cols, _), (r_cols, r_shape) = _row_layout(series.shape[1], system.dim)
    rows = np.empty((n, r_cols.stop), complex)
    values = rows[:, s_cols].reshape(n, *s_shape)       # views of the rows
    np.add(series[:n], series[n:], out=values)
    values *= 0.5
    rows[:, z_cols.start] = 0.5 * (traces[:n] + traces[n:]) / system.dim
    del series, eta, nu     # spent: not held through the reduction
    _residuals(values, rows[:, r_cols].reshape(n, *r_shape))
    ok = ~(failed[:n] | failed[n:])
    return _pairwise_stats((rows if ok.all() else rows[ok]).view(float))


# the arguments every block of a pooled run shares, set once in each worker process
_worker_args: tuple = ()


def _exit_with_parent():
    """End this worker process as soon as the process that started it is gone,
    so that a run killed from outside leaves no worker behind."""
    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _init_worker(path: str):
    global _worker_args
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    with open(path, "rb") as fh:
        _worker_args = pickle.load(fh)


def _worker_block(block: int) -> _Stats:
    run_batch, system, factor, cfg, real_time = _worker_args
    return run_batch(system, factor, cfg, block, real_time)


@contextmanager
def _blas_threads_sleep_at_once():
    """OPENBLAS_THREAD_TIMEOUT=4 in os.environ for the block, then the caller's value.

    Workers keep the caller's BLAS thread count: with one BLAS thread the noise
    synthesis rounds differently, so a pooled run would change bits.  The
    shortest timeout (2**4 cycles, against 2**28, about 0.1 s) makes OpenBLAS's
    helper threads sleep right after each call instead of spinning on the
    cores the other workers need.
    """
    saved = os.environ.get("OPENBLAS_THREAD_TIMEOUT")
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["OPENBLAS_THREAD_TIMEOUT"]
        else:
            os.environ["OPENBLAS_THREAD_TIMEOUT"] = saved


@contextmanager
def _batch_results(run_batch, pipe: Pipeline, cfg: RunConfig, blocks: range,
                   workers: int, real_time: bool):
    """An iterator over ``run_batch``'s results for ``blocks``, in block order.

    One worker runs the blocks on the calling thread.  More run them on
    min(workers, len(blocks)) spawned processes (spawned, not forked, since
    this process may already run BLAS threads), whose BLAS threads sleep
    between calls.  Each reads what ``run_batch`` reads, once, from a file.
    Passed as initializer arguments, that payload would go down each worker's
    start-up pipe, and a worker that dies while starting (re-running a script
    that has no main guard, say) would leave this process blocked on a payload
    larger than the pipe buffer; read from a file, the pool breaks instead.
    On leaving the block the pool is shut down, its queued blocks cancelled
    and its processes joined.
    """
    if workers == 1 or not blocks:
        yield (run_batch(pipe.system, pipe.factor, cfg, b, real_time) for b in blocks)
        return
    with tempfile.TemporaryDirectory(prefix="esln-") as tmp:
        args_path = os.path.join(tmp, "batch-args.pickle")
        with open(args_path, "wb") as fh:
            pickle.dump((run_batch, pipe.system, pipe.factor, cfg, real_time), fh,
                        protocol=pickle.HIGHEST_PROTOCOL)
        pool = ProcessPoolExecutor(max_workers=min(workers, len(blocks)),
                                   mp_context=multiprocessing.get_context("spawn"),
                                   initializer=_init_worker, initargs=(args_path,))
        try:
            with _blas_threads_sleep_at_once():     # the workers start inside map's submits
                outs = pool.map(_worker_block, blocks)
            yield outs
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# results

@dataclass
class EnsembleResult:
    """Noise-averaged reduced density matrix with per-element standard errors."""

    times: np.ndarray           # (n_t,)
    mean_rho: np.ndarray        # (n_t, d, d) complex
    se_re: np.ndarray           # (n_t, d, d)
    se_im: np.ndarray           # (n_t, d, d)
    n_traj: int                 # trajectories run, whole pairs
    n_ok: int                   # trajectories, two per completed pair
    n_failed: int
    master_seed: int
    z_factor_mean: complex
    z_factor_se: float
    # statistics of the pair means' residuals (see _residuals), (n_t, k, re/im),
    # scaled like mean_rho by 1 / |Tr <rho_bar(hbar*beta)>|; not in the document
    residuals: _Stats
    config_echo: dict = field(default_factory=dict)

    @property
    def mean_rho0(self) -> np.ndarray:     # (d, d), the averaged initial state
        return self.mean_rho[0]

    @property
    def stderr_rho(self) -> np.ndarray:
        """Per-element standard error, real and imaginary parts in quadrature."""
        return np.sqrt(self.se_re ** 2 + self.se_im ** 2)


@dataclass(frozen=True)
class HermiticityReport:
    """How far the averaged state is from Hermitian, unit trace, and positivity,
    in units of its own standard error."""

    max_hermiticity_z: float
    max_trace_z: float
    min_eigenvalue: float
    n_ok: int
    threshold: float = 5.0
    inconclusive_below: int = 100

    @property
    def status(self) -> str:
        if max(self.max_hermiticity_z, self.max_trace_z) < self.threshold:
            return "PASS"
        if self.n_ok < self.inconclusive_below:
            return "INCONCLUSIVE"
        return "FAIL"

    def lines(self):
        return [
            f"hermiticity: worst |rho - rho^dag| = {self.max_hermiticity_z:.3f} stderr units",
            f"trace:       worst |Tr rho - 1|   = {self.max_trace_z:.3f} stderr units",
            f"min eigenvalue of the Hermitized mean: {self.min_eigenvalue:.3e}",
            f"status: {self.status} (threshold {self.threshold:g}, n_ok = {self.n_ok})",
        ]


def hermiticity_trace_report(result: EnsembleResult) -> HermiticityReport:
    """z-scores of the residuals' means in units of their own standard errors.

    The residuals are taken per pair mean (see _residuals), because the
    entries of one pair mean are correlated, some of them perfectly: adding
    up the separate errors of rho_ij and rho_ji would misstate the error of
    rho_ij - conj(rho_ji).  Real and imaginary parts are scored apart.
    """
    res = result.residuals
    z = _safe_ratio(np.abs(res.mean), res.se()).max(axis=-1)
    mean = result.mean_rho
    hermitized = 0.5 * (mean + np.conj(np.swapaxes(mean, -1, -2)))
    min_eig = min(float(np.linalg.eigvalsh(h).min()) for h in hermitized)
    return HermiticityReport(max_hermiticity_z=float(z[:, :-1].max()),
                             max_trace_z=float(z[:, -1].max()),
                             min_eigenvalue=min_eig,
                             n_ok=result.n_ok)


def _safe_ratio(num, den):
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.where(num <= 1e-14, 0.0, num / np.maximum(den, 1e-300))
    return out


# ---------------------------------------------------------------------------
# checkpointing

def _count(doc: dict, key: str) -> int:
    """``doc[key]`` if it is a non-negative int (a bool is not), else ValueError."""
    value = doc[key]
    if type(value) is not int or value < 0:
        raise ValueError(f"{key} {value!r} is not a non-negative integer")
    return value


def _layout(pipe: Pipeline) -> dict:
    """What fixes each trajectory's bits besides the config: the batch size,
    the per-channel noise factors, bit for bit, and the package version (the
    propagator's rounding and the noise streams' keying change with it)."""
    digest = hashlib.sha256(b"".join(a.tobytes() for a in pipe.factor.a)).hexdigest()
    return {"batch_size": BATCH_SIZE, "factor_sha256": digest, "version": __version__}


def _n_failed(acc: _Stats, blocks: int, n_run: int) -> int:
    """Failed trajectories of the first ``blocks`` blocks of a run of ``n_run``:
    those of no pair in ``acc``, since a failed pair counts against its block."""
    return min(blocks * BATCH_SIZE, n_run) - 2 * acc.n


def _write_checkpoint(path: str, cfg_echo: dict, layout: dict, next_batch: int,
                      acc: _Stats, n_run: int):
    doc = {"schema": DOCUMENT_SCHEMA + "+checkpoint",
           "config": cfg_echo,
           "layout": layout,
           "next_batch": next_batch,
           "n_failed": _n_failed(acc, next_batch, n_run),
           "pairs": {"n": acc.n, "mean": acc.mean.tolist(), "m2": acc.m2.tolist()}}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())       # on disk before it takes the final name
    os.replace(tmp, path)


def _read_checkpoint(path: str, cfg_echo: dict, layout: dict, n_run: int, width: int):
    """(next batch, folded statistics) from ``path``, for a run of ``n_run``
    trajectories whose pair rows have ``width`` complex columns; a torn or
    malformed checkpoint, one of another run, or one whose counts do not add
    up to its batches raises ValidationError."""
    n_batches = -(-n_run // BATCH_SIZE)
    schema = DOCUMENT_SCHEMA + "+checkpoint"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = dict(json.load(fh))
        if doc.get("schema") != schema:
            raise ValidationError("checkpoint", f"schema {doc.get('schema')!r} is not {schema!r}")
        if doc.get("config") != cfg_echo:
            raise ValidationError("checkpoint", "checkpoint belongs to a different configuration")
        if doc.get("layout") != layout:
            raise ValidationError("checkpoint", "checkpoint was written with a different noise "
                                                "factor, batch size or esln version")
        next_batch, n_failed = _count(doc, "next_batch"), _count(doc, "n_failed")
        pairs = doc["pairs"]
        stats = np.array([pairs["mean"], pairs["m2"]], dtype=float)
        if stats.shape != (2, 2 * width) or not np.isfinite(stats).all() or (stats[1] < 0).any():
            raise ValueError(f"pair statistics are not {2 * width} finite values each, M2 >= 0")
        acc = _Stats(_count(pairs, "n"), *stats)
    except (KeyError, TypeError, ValueError) as exc:     # torn JSON, missing or bad fields
        raise ValidationError("checkpoint", f"{path} is torn or malformed: {exc!r}") from exc
    if next_batch > n_batches:
        raise ValidationError("checkpoint", f"next_batch {next_batch} is not in [0, {n_batches}]")
    if _n_failed(acc, next_batch, n_run) != n_failed:
        raise ValidationError("checkpoint", f"2 * pairs.n {acc.n} + n_failed {n_failed} is not "
                                            f"the trajectories of {next_batch} batches")
    return next_batch, acc


# ---------------------------------------------------------------------------
# the ensemble run

def _check_finite(acc: _Stats, parts: tuple):
    """Raise NumericalError, naming the z-factor or the time index of the first
    bad column, unless every folded mean and M2 of the pair rows is finite and
    Tr mean[0] is finite and nonzero; ``parts`` is the rows' _row_layout."""
    (series, shape), (zfac, _), (residuals, _) = parts
    finite = np.isfinite(acc.mean) & np.isfinite(acc.m2)
    if not finite.all():
        col = int(np.argmin(finite)) // 2
        if col == zfac.start:
            raise NumericalError("non-finite z-factor mean or variance")
        cols = series if col < zfac.start else residuals     # both lead with time
        raise NumericalError(f"non-finite ensemble mean or variance at time index "
                             f"{(col - cols.start) * shape[0] // (cols.stop - cols.start)}")
    trace = np.trace(acc.mean.view(complex)[series].reshape(shape)[0])
    if trace == 0 or not np.isfinite(trace):
        raise NumericalError(f"averaged partition function Tr rho_bar(hbar*beta) = {trace} "
                             f"at time index 0")


def run_ensemble(cfg: RunConfig, workers: int = 1, checkpoint_path: str | None = None,
                 pipeline: Pipeline | None = None,
                 real_time: bool = True) -> EnsembleResult:
    """Run the full two-time Monte Carlo and average it.

    The trajectories run in antithetic pairs, an odd ``n_traj`` rounded up
    to whole pairs, and the standard errors are those of the pair means.
    Deterministic in the config: the noise keys, the reduction and the merge
    order are functions of block indices alone (a block is BATCH_SIZE
    trajectories, the last one possibly fewer), so the worker count (at
    least 1) cannot change any output bit.  ``workers`` = 1 runs the blocks
    on the calling thread; more run them on min(workers, blocks left)
    spawned worker processes, which take about 0.5 s to start.  Each worker
    imports the caller's main module, so a script that calls this needs an
    ``if __name__ == "__main__":`` guard.  A worker that dies raises
    WorkerLost, naming the first block not merged.  A ``pipeline`` built from
    the same system, bath, grids and cap is reused; any other is rebuilt.  A
    checkpoint is written every CHECKPOINT_EVERY blocks and after the last,
    and resumes only with the echoed config, schema, batch size, noise factor
    and version that wrote it.  A non-finite folded mean or M2, or an
    averaged Tr rho_bar(hbar*beta) that is zero or non-finite, raises
    NumericalError.

    With ``real_time`` False only the imaginary-time phase runs and the result
    holds the statistics of the initial reduced density on the single time
    t = 0.  Checkpoints belong to full runs, so that phase refuses one.
    """
    if workers < 1:
        raise ValidationError("workers", "must be >= 1")
    if checkpoint_path and not real_time:
        raise ValidationError("checkpoint",
                              "only full (real-time) runs write or resume checkpoints")
    pipe = pipeline if pipeline is not None and _built_for(pipeline, cfg) \
        else build_pipeline(cfg)
    cfg_echo = {key: val for key, val in emit_config(cfg).items() if key in ECHOED_SECTIONS}
    layout = _layout(pipe) if checkpoint_path else None
    n_run = _trajectories(cfg.n_traj)
    n_batches = -(-n_run // BATCH_SIZE)
    times = cfg.grids.t if real_time else cfg.grids.t[:1]
    parts = _row_layout(times.size, cfg.system.dim)
    width = parts[-1][0].stop
    acc = _Stats.empty((2 * width,))
    start_batch = 0
    if checkpoint_path and os.path.exists(checkpoint_path):
        start_batch, acc = _read_checkpoint(checkpoint_path, cfg_echo, layout, n_run, width)

    # _run_batch is looked up now, so a replacement set on the module reaches
    # the workers too
    done_batches = start_batch
    try:
        with _batch_results(_run_batch, pipe, cfg, range(start_batch, n_batches),
                            workers, real_time) as outs:
            for out in outs:
                acc = acc.merge(out)
                done_batches += 1
                if checkpoint_path and (done_batches % CHECKPOINT_EVERY == 0
                                        or done_batches == n_batches):
                    _write_checkpoint(checkpoint_path, cfg_echo, layout, done_batches, acc,
                                      n_run)
    except BrokenProcessPool as exc:
        raise WorkerLost(f"a worker process died; batch {done_batches} and later "
                         f"were not merged") from exc

    n_failed = _n_failed(acc, done_batches, n_run)
    if n_failed > FAILURE_FRACTION * n_run:
        raise TooManyFailures(
            f"{n_failed} of {n_run} trajectories diverged "
            f"(> {FAILURE_FRACTION:.0%})")
    if acc.n < 2:
        raise TooManyFailures("fewer than two pairs of trajectories completed")
    _check_finite(acc, parts)

    (s_cols, s_shape), (z_cols, _), (r_cols, r_shape) = parts
    mean, se = acc.mean.view(complex), acc.se().reshape(width, 2)
    series = mean[s_cols].reshape(s_shape)
    scale = 1.0 / np.trace(series[0])
    se_re, se_im = (se[s_cols, part].reshape(s_shape) * abs(scale) for part in (0, 1))
    res_mean, res_m2 = (a.reshape(width, 2)[r_cols].reshape(*r_shape, 2)
                        for a in (acc.mean, acc.m2))
    return EnsembleResult(
        times=times, mean_rho=series * scale, se_re=se_re, se_im=se_im,
        n_traj=n_run, n_ok=2 * acc.n, n_failed=n_failed,
        master_seed=cfg.master_seed, z_factor_mean=complex(mean[z_cols.start]),
        z_factor_se=float(np.hypot(*se[z_cols.start])),
        residuals=_Stats(acc.n, res_mean * abs(scale), res_m2 * abs(scale) ** 2),
        config_echo=cfg_echo)


# ---------------------------------------------------------------------------
# output document and CSV

def result_document(result: EnsembleResult) -> dict:
    """JSON-compatible output document (deterministic for identical results)."""
    return {
        "schema": DOCUMENT_SCHEMA,
        "version": __version__,
        "config": result.config_echo,
        "master_seed": result.master_seed,
        "n_traj": result.n_traj,
        "n_ok": result.n_ok,
        "n_failed": result.n_failed,
        "grid": {"n_t": int(result.times.size),
                 "dt": float(result.times[1] - result.times[0]) if result.times.size > 1 else 0.0},
        "times": [float(t) for t in result.times],
        "z_factor": {"mean_re": result.z_factor_mean.real,
                     "mean_im": result.z_factor_mean.imag,
                     "se": result.z_factor_se},
        "mean_rho": [[[[float(v.real), float(v.imag)] for v in row] for row in mat]
                     for mat in result.mean_rho],
        "stderr_re": [[[float(v) for v in row] for row in mat] for mat in result.se_re],
        "stderr_im": [[[float(v) for v in row] for row in mat] for mat in result.se_im],
    }


def document_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_document(result: EnsembleResult, path: str):
    with open(path, "wb") as fh:
        fh.write(document_bytes(result_document(result)))


def csv_lines(times, mean, se_re, se_im):
    """Shared CSV schema: one row per (t, row, col)."""
    yield "t,row,col,re,im,se_re,se_im"
    d = mean.shape[1]
    for k, t in enumerate(times):
        for r in range(d):
            for c in range(d):
                v = mean[k, r, c]
                yield (f"{float(t)!r},{r},{c},{float(v.real)!r},{float(v.imag)!r},"
                       f"{float(se_re[k, r, c])!r},{float(se_im[k, r, c])!r}")


def write_csv(result: EnsembleResult, path: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in csv_lines(result.times, result.mean_rho, result.se_re, result.se_im):
            fh.write(line + "\n")


def read_csv(path: str):
    """Read the CSV schema back into (times, mean, se_re, se_im).

    A non-numeric or non-finite field, a row or col outside [0, d) (d is the
    largest row plus one), or a (t, row, col) entry that is missing or
    repeated raises ValidationError."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,row,col,re,im,se_re,se_im":
            raise ValidationError(path, f"unexpected CSV header {header!r}")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != 7:
                raise ValidationError(path, f"malformed CSV row {line.strip()!r}")
            try:
                rows.append((float(parts[0]), int(parts[1]), int(parts[2]),
                             *(float(x) for x in parts[3:])))
                if not np.isfinite(rows[-1]).all():
                    raise ValueError
            except ValueError:
                raise ValidationError(path, f"non-numeric or non-finite field in CSV row "
                                            f"{line.strip()!r}") from None
    if not rows:
        raise ValidationError(path, "empty CSV")
    d = max(r[1] for r in rows) + 1
    bad = next((r for r in rows if not (0 <= r[1] < d and 0 <= r[2] < d)), None)
    if bad is not None:
        raise ValidationError(path, f"row {bad[1]}, col {bad[2]} at t = {bad[0]!r} "
                                    f"is outside [0, {d})")
    times = sorted({r[0] for r in rows})
    t_index = {t: i for i, t in enumerate(times)}
    n_t = len(times)
    if len({r[:3] for r in rows}) != len(rows) or len(rows) != n_t * d * d:
        raise ValidationError(path, f"{len(rows)} rows do not hold each (t, row, col) of "
                                    f"{n_t} times and d = {d} exactly once")
    mean = np.zeros((n_t, d, d), complex)
    se_re = np.zeros((n_t, d, d))
    se_im = np.zeros((n_t, d, d))
    for t, r, c, re, im, sr, si in rows:
        k = t_index[t]
        mean[k, r, c] = re + 1j * im
        se_re[k, r, c] = sr
        se_im[k, r, c] = si
    return np.array(times), mean, se_re, se_im


def compare_series(path_a: str, path_b: str):
    """Per-element z-scores between two CSV series on the same grid.

    z = |mean_a - mean_b| / sqrt(se_a^2 + se_b^2) with the standard errors of
    each element's real and imaginary parts combined in quadrature.
    Returns (max_z, z_array) with z_array shaped (n_t, d, d).
    """
    times_a, mean_a, se_re_a, se_im_a = read_csv(path_a)
    times_b, mean_b, se_re_b, se_im_b = read_csv(path_b)
    if times_a.shape != times_b.shape or np.abs(times_a - times_b).max() > 1e-9:
        raise ValidationError(path_b, "time grids differ between the two series")
    if mean_a.shape != mean_b.shape:
        raise ValidationError(path_b, "matrix dimensions differ between the two series")
    diff = np.abs(mean_a - mean_b)
    scale = np.sqrt(se_re_a ** 2 + se_im_a ** 2 + se_re_b ** 2 + se_im_b ** 2)
    z = _safe_ratio(diff, scale)
    return float(z.max()), z
