"""Trajectory orchestration, noise averaging, and statistical error.

One estimator: trajectories stay unnormalized through real time, and every
output is scaled once by 1 / Tr <rho_bar(hbar*beta)>, the noise-averaged
partition function.  By linearity of the noise average this is exact.

Trajectories are processed in fixed-size batches.  Each batch draws its noise
in one call from the stream keyed by (master_seed, batch index), one row per
trajectory, and takes its (mean, M2) statistics in two passes; batch partials
are then folded in batch order with Chan's merge.  All of it depends only on
batch indices, so results are bit-identical for any worker count, and a
checkpoint taken between batches resumes to the same bits.

One worker runs the batches on the calling thread.  More run them on that
many spawned processes, each sent the config, the system and the noise factor
once; the calling process only merges and checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .config import RunConfig, emit_config
from .errors import NumericalError, TooManyFailures, ValidationError, WorkerLost
from .kernels import KernelContext
from .model import NormalModes, SystemSpec, diagonalize_bath, mode_couplings
from .noise import (NoiseCovariance, NoiseFactor, build_covariance, derive_seed,
                    draw_normal, factorize, synthesize)
from .propagate import equilibrate_batch, evolve_batch

BATCH_SIZE = 256
FAILURE_FRACTION = 0.01
CHECKPOINT_EVERY = 16       # batches between checkpoint writes; the last batch writes too
DOCUMENT_SCHEMA = "esln-result/3"
# the config sections that fix a run's numbers: documents and checkpoints echo these alone
ECHOED_SECTIONS = ("system", "bath", "grids", "ensemble")


# ---------------------------------------------------------------------------
# pipeline assembly

@dataclass(frozen=True)
class Pipeline:
    """All derived objects a run needs, built once from the config."""

    config: RunConfig
    modes: NormalModes
    ctx: KernelContext
    system: SystemSpec      # the config's system with one coupling g_lam per mode
    cov: NoiseCovariance
    factor: NoiseFactor


def build_pipeline(cfg: RunConfig) -> Pipeline:
    modes = diagonalize_bath(cfg.bath)
    ctx = KernelContext.from_bath(cfg.bath, modes, cfg.system.hbar, cfg.system.beta)
    system = replace(cfg.system, couplings=tuple(mode_couplings(modes, cfg.bath, cfg.system)))
    cov = build_covariance(ctx, cfg.grids, dim_cap=cfg.dim_cap)
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
# streaming statistics (Chan's parallel mean/M2 merge, complex-valued)

@dataclass
class _Stats:
    n: int
    mean: np.ndarray        # complex
    m2_re: np.ndarray       # real
    m2_im: np.ndarray       # real

    @classmethod
    def empty(cls, shape) -> "_Stats":
        return cls(0, np.zeros(shape, complex), np.zeros(shape), np.zeros(shape))

    def merge(self, other: "_Stats") -> "_Stats":
        if self.n == 0:
            return other
        if other.n == 0:
            return self
        return _chan(self, other)

    def se(self):
        """Standard error of the mean, (re, im) parts."""
        if self.n < 2:
            z = np.zeros_like(self.m2_re)
            return z, z.copy()
        f = 1.0 / (self.n * (self.n - 1))
        return np.sqrt(self.m2_re * f), np.sqrt(self.m2_im * f)


def _chan(a: _Stats, b: _Stats) -> _Stats:
    """Chan's merge of two nonempty partials."""
    n = a.n + b.n
    delta = b.mean - a.mean
    corr = a.n * b.n / n
    return _Stats(n, a.mean + delta * (b.n / n),
                  a.m2_re + b.m2_re + delta.real ** 2 * corr,
                  a.m2_im + b.m2_im + delta.imag ** 2 * corr)


def _pairwise_stats(values: np.ndarray) -> _Stats:
    """(mean, M2) of complex values along axis 0, in two passes.

    The mean is taken relative to the first row, so identical rows give a mean
    equal to that row and an M2 of exactly 0.
    """
    k = values.shape[0]
    if k == 0:
        return _Stats.empty(values.shape[1:])
    mean = values[0] + (values - values[0]).mean(axis=0)
    dev = values - mean
    return _Stats(k, mean, (dev.real ** 2).sum(axis=0), (dev.imag ** 2).sum(axis=0))


# ---------------------------------------------------------------------------
# batch execution

@dataclass
class _BatchResult:
    series: _Stats          # (n_t, d, d) trajectory statistics; (1, d, d) without real time
    zfac: _Stats            # scalar z-factor statistics
    n_failed: int


def _run_batch(system: SystemSpec, factor: NoiseFactor, cfg: RunConfig, batch: int,
               real_time: bool) -> _BatchResult:
    """Draw, quench and (with ``real_time``) evolve batch ``batch`` of the run.

    The batch holds trajectories batch * BATCH_SIZE onwards, up to BATCH_SIZE
    of them and none past ``cfg.n_traj``; their noise is one draw from the
    stream keyed by (``cfg.master_seed``, batch).  Without real time the series
    is the single t = 0 entry, the unnormalized rho_bar(hbar*beta).
    """
    grids = cfg.grids
    n = min(BATCH_SIZE, cfg.n_traj - batch * BATCH_SIZE)
    w = draw_normal(factor, derive_seed(cfg.master_seed, batch), n)
    eta, nu, mu = synthesize(factor, w)

    rho_end, div_imag = equilibrate_batch(system, mu, grids)
    traces = np.trace(rho_end, axis1=1, axis2=2)
    degenerate = np.abs(traces) < 1e-300
    failed = div_imag | degenerate
    if real_time:
        series, div_real = evolve_batch(system, eta, nu, grids, rho_end)
        failed |= div_real
    else:
        series = rho_end[:, None]
    ok = ~failed
    zfac = traces[ok] / system.dim
    return _BatchResult(series=_pairwise_stats(series[ok]),
                        zfac=_pairwise_stats(zfac),
                        n_failed=int(failed.sum()))


# the arguments every batch of a pooled run shares, set once in each worker process
_worker_args: tuple = ()


def _init_worker(path: str):
    global _worker_args
    with open(path, "rb") as fh:
        _worker_args = pickle.load(fh)


def _worker_batch(batch: int) -> _BatchResult:
    run_batch, system, factor, cfg, real_time = _worker_args
    return run_batch(system, factor, cfg, batch, real_time)


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
def _batch_results(run_batch, pipe: Pipeline, cfg: RunConfig, batches: range,
                   workers: int, real_time: bool):
    """An iterator over ``run_batch``'s results for ``batches``, in batch order.

    One worker runs them on the calling thread.  More run them on
    min(workers, len(batches)) spawned processes (spawned, not forked, since
    this process may already run BLAS threads), whose BLAS threads sleep
    between calls.  Each reads what ``run_batch`` reads, once, from a file.
    Passed as initializer arguments, that payload would go down each worker's
    start-up pipe, and a worker that dies while starting (re-running a script
    that has no main guard, say) would leave this process blocked on a payload
    larger than the pipe buffer; read from a file, the pool breaks instead.
    On leaving the block the pool is shut down, its queued batches cancelled
    and its processes joined.
    """
    if workers == 1 or not batches:
        yield (run_batch(pipe.system, pipe.factor, cfg, batch, real_time) for batch in batches)
        return
    with tempfile.TemporaryDirectory(prefix="esln-") as tmp:
        args_path = os.path.join(tmp, "batch-args.pickle")
        with open(args_path, "wb") as fh:
            pickle.dump((run_batch, pipe.system, pipe.factor, cfg, real_time), fh,
                        protocol=pickle.HIGHEST_PROTOCOL)
        pool = ProcessPoolExecutor(max_workers=min(workers, len(batches)),
                                   mp_context=multiprocessing.get_context("spawn"),
                                   initializer=_init_worker, initargs=(args_path,))
        try:
            with _blas_threads_sleep_at_once():     # the workers start inside map's submits
                outs = pool.map(_worker_batch, batches)
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
    n_traj: int
    n_ok: int
    n_failed: int
    master_seed: int
    z_factor_mean: complex
    z_factor_se: float
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
    mean = result.mean_rho
    ser, sei = result.se_re, result.se_im
    anti = mean - np.conj(np.swapaxes(mean, -1, -2))
    scale_re = np.sqrt(ser ** 2 + np.swapaxes(ser, -1, -2) ** 2)
    scale_im = np.sqrt(sei ** 2 + np.swapaxes(sei, -1, -2) ** 2)
    herm_z = _safe_ratio(np.abs(anti.real), scale_re)
    herm_z = np.maximum(herm_z, _safe_ratio(np.abs(anti.imag), scale_im))
    trace_dev = np.abs(np.einsum("tii->t", mean) - 1.0)
    trace_scale = np.sqrt(np.einsum("tii->t", ser ** 2) + np.einsum("tii->t", sei ** 2))
    trace_z = _safe_ratio(trace_dev, trace_scale)
    hermitized = 0.5 * (mean + np.conj(np.swapaxes(mean, -1, -2)))
    min_eig = min(float(np.linalg.eigvalsh(h).min()) for h in hermitized)
    return HermiticityReport(max_hermiticity_z=float(herm_z.max()),
                             max_trace_z=float(trace_z.max()),
                             min_eigenvalue=min_eig,
                             n_ok=result.n_ok)


def _safe_ratio(num, den):
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.where(num <= 1e-14, 0.0, num / np.maximum(den, 1e-300))
    return out


# ---------------------------------------------------------------------------
# checkpointing

def _stats_to_doc(st: _Stats) -> dict:
    return {"n": st.n,
            "mean_re": st.mean.real.tolist(), "mean_im": st.mean.imag.tolist(),
            "m2_re": st.m2_re.tolist(), "m2_im": st.m2_im.tolist()}


def _stats_from_doc(doc: dict, shape: tuple) -> _Stats:
    re, im, m2_re, m2_im = (np.array(doc[key], dtype=float)
                            for key in ("mean_re", "mean_im", "m2_re", "m2_im"))
    if {re.shape, im.shape, m2_re.shape, m2_im.shape} != {shape}:
        raise ValueError(f"statistics are not of shape {shape}")
    return _Stats(int(doc["n"]), re + 1j * im, m2_re, m2_im)


def _layout(pipe: Pipeline) -> dict:
    """What fixes each trajectory's bits besides the config: the batch size,
    the mode factors, bit for bit, and the package version (the propagator's
    rounding and the keying of the noise streams change between versions)."""
    digest = hashlib.sha256(b"".join(a.tobytes() for a in pipe.factor.a)).hexdigest()
    return {"batch_size": BATCH_SIZE, "factor_sha256": digest, "version": __version__}


def _write_checkpoint(path: str, cfg_echo: dict, layout: dict, next_batch: int,
                      series: _Stats, zfac: _Stats, n_failed: int):
    doc = {"schema": DOCUMENT_SCHEMA + "+checkpoint",
           "config": cfg_echo,
           "layout": layout,
           "next_batch": next_batch,
           "n_failed": n_failed,
           "series": _stats_to_doc(series),
           "z_factor": _stats_to_doc(zfac)}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())       # on disk before it takes the final name
    os.replace(tmp, path)


def _read_checkpoint(path: str, cfg_echo: dict, layout: dict, n_traj: int, shape: tuple):
    """(next batch, series, z-factor, failure count) from ``path``; a torn or
    malformed checkpoint, one of another run, or one whose counts do not add
    up to its batches raises ValidationError."""
    n_batches = -(-n_traj // BATCH_SIZE)
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
        next_batch, n_failed = doc["next_batch"], int(doc["n_failed"])
        series, zfac = _stats_from_doc(doc["series"], shape), _stats_from_doc(doc["z_factor"], ())
    except (KeyError, TypeError, ValueError) as exc:     # torn JSON, missing or bad fields
        raise ValidationError("checkpoint", f"{path} is torn or malformed: {exc!r}") from exc
    if type(next_batch) is not int or not 0 <= next_batch <= n_batches:
        raise ValidationError("checkpoint", f"next_batch {next_batch!r} is not in [0, {n_batches}]")
    if series.n != zfac.n:
        raise ValidationError("checkpoint", f"series.n {series.n} is not z_factor.n {zfac.n}")
    n_run = min(next_batch * BATCH_SIZE, n_traj)
    if series.n + n_failed != n_run:
        raise ValidationError("checkpoint", f"series.n {series.n} + n_failed {n_failed} is not "
                                            f"the {n_run} trajectories of {next_batch} batches")
    return next_batch, series, zfac, n_failed


# ---------------------------------------------------------------------------
# the ensemble run

def _check_finite(series: _Stats, zfac: _Stats):
    """Raise NumericalError, naming the first bad time index, unless every
    folded mean and M2 is finite and Tr mean[0] is finite and nonzero."""
    finite = (np.isfinite(series.mean) & np.isfinite(series.m2_re)
              & np.isfinite(series.m2_im)).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(f"non-finite ensemble mean or variance at time index "
                             f"{int(np.argmin(finite))}")
    if not (np.isfinite(zfac.mean) and np.isfinite(zfac.m2_re) and np.isfinite(zfac.m2_im)):
        raise NumericalError("non-finite z-factor mean or variance")
    trace = np.trace(series.mean[0])
    if trace == 0 or not np.isfinite(trace):
        raise NumericalError(f"averaged partition function Tr rho_bar(hbar*beta) = {trace} "
                             f"at time index 0")


def run_ensemble(cfg: RunConfig, workers: int = 1, checkpoint_path: str | None = None,
                 pipeline: Pipeline | None = None,
                 real_time: bool = True) -> EnsembleResult:
    """Run the full two-time Monte Carlo and average it.

    Deterministic in the config: the per-batch noise keys, the batch layout,
    and the reduction are all functions of batch indices alone, and
    batches are merged in batch order, so the worker count (at least 1)
    cannot change any output bit.  ``workers`` = 1 runs the batches on the
    calling thread; more run them on that many spawned worker processes,
    which take about 0.5 s to start.  Each worker imports the caller's main
    module, so a script that calls this needs an ``if __name__ == "__main__":``
    guard.  A worker that dies raises WorkerLost, naming the first batch not
    merged.  A ``pipeline`` built from the same system,
    bath, grids and cap is reused; any other is rebuilt.  A checkpoint is
    written every CHECKPOINT_EVERY batches and after the last, and resumes
    only with the echoed config, schema, batch size, noise factor and version
    that wrote it.  A non-finite folded mean or M2, or an averaged
    Tr rho_bar(hbar*beta) that is zero or non-finite, raises NumericalError.

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
    n_batches = -(-cfg.n_traj // BATCH_SIZE)
    d = cfg.system.dim
    times = cfg.grids.t if real_time else cfg.grids.t[:1]
    series_acc = _Stats.empty((times.size, d, d))
    zfac_acc = _Stats.empty(())
    n_failed = 0
    start_batch = 0
    if checkpoint_path and os.path.exists(checkpoint_path):
        start_batch, series_acc, zfac_acc, n_failed = _read_checkpoint(
            checkpoint_path, cfg_echo, layout, cfg.n_traj, series_acc.mean.shape)

    # _run_batch is looked up now, so a replacement set on the module reaches
    # the workers too
    done_batches = start_batch
    try:
        with _batch_results(_run_batch, pipe, cfg, range(start_batch, n_batches),
                            workers, real_time) as outs:
            for out in outs:
                series_acc = series_acc.merge(out.series)
                zfac_acc = zfac_acc.merge(out.zfac)
                n_failed += out.n_failed
                done_batches += 1
                if checkpoint_path and (done_batches % CHECKPOINT_EVERY == 0
                                        or done_batches == n_batches):
                    _write_checkpoint(checkpoint_path, cfg_echo, layout, done_batches,
                                      series_acc, zfac_acc, n_failed)
    except BrokenProcessPool as exc:
        raise WorkerLost(f"a worker process died; batch {done_batches} and later "
                         f"were not merged") from exc

    n_ok = series_acc.n
    if n_failed > FAILURE_FRACTION * cfg.n_traj:
        raise TooManyFailures(
            f"{n_failed} of {cfg.n_traj} trajectories diverged "
            f"(> {FAILURE_FRACTION:.0%})")
    if n_ok < 2:
        raise TooManyFailures("fewer than two trajectories completed")
    _check_finite(series_acc, zfac_acc)

    scale = 1.0 / np.trace(series_acc.mean[0])
    mean = series_acc.mean * scale
    se_re, se_im = (se * abs(scale) for se in series_acc.se())
    zf_se_re, zf_se_im = zfac_acc.se()
    return EnsembleResult(
        times=times, mean_rho=mean, se_re=se_re, se_im=se_im,
        n_traj=cfg.n_traj, n_ok=n_ok, n_failed=n_failed,
        master_seed=cfg.master_seed, z_factor_mean=complex(zfac_acc.mean),
        z_factor_se=float(np.hypot(zf_se_re, zf_se_im)), config_echo=cfg_echo)


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
    """Read the CSV schema back into (times, mean, se_re, se_im)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,row,col,re,im,se_re,se_im":
            raise ValidationError(path, f"unexpected CSV header {header!r}")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != 7:
                raise ValidationError(path, f"malformed CSV row {line.strip()!r}")
            rows.append((float(parts[0]), int(parts[1]), int(parts[2]),
                         float(parts[3]), float(parts[4]), float(parts[5]),
                         float(parts[6])))
    if not rows:
        raise ValidationError(path, "empty CSV")
    d = max(r[1] for r in rows) + 1
    times = sorted({r[0] for r in rows})
    t_index = {t: i for i, t in enumerate(times)}
    n_t = len(times)
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
