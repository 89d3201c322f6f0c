"""Trajectory orchestration, noise averaging, and statistical error.

One estimator: trajectories stay unnormalized through real time, and every
output is scaled once by 1 / Tr <rho_bar(hbar*beta)>, the noise-averaged
partition function.  By linearity of the noise average this is exact.

Trajectories run in antithetic pairs: one draw w gives the fields z of one
trajectory and -z of its partner.  w and -w have the same law, so the pair
mean is an exact, unbiased sample in which the odd orders of the noise
cancel; the statistics are taken over pair means.  A run of an odd number of
trajectories runs one more, to whole pairs.

The leading fluctuation of a pair mean is then a quadratic form in w, and the
next is quartic; control variates remove most of both.  The controls are the
multivariate Hermite polynomials of the draws of the CONTROL_COLUMNS Takagi
columns of largest norm, each of noise average 0 and all orthogonal: the 36
products q_kl = w_k w_l - delta_kl (k <= l) over all K = 8 of them, and the
degree-4 products (He_4(w_a), He_3(w_a) w_b, He_2(w_a) He_2(w_b), He_2(w_a)
w_b w_c and w_a w_b w_c w_d over distinct columns) over the first K_4 of
them by norm, 35 for K_4 = 4 and 126 for K_4 = 6.  They end each pair's row,
ordered so that each tier of 0, 36, 71 or 162 controls is a suffix of it.
Every column y of the pair rows is regressed on the controls of one tier:
the estimate is y_bar - beta^T q_bar with beta = C_qq^-1 C_qy, and its
standard error that of a least-squares intercept on n - p - 1 degrees of
freedom (_estimate).  A run uses the largest tier whose PAIRS_PER_CONTROL
pairs per control it has completed; on no controls the same formula is the
plain pair mean, whose bits it keeps.  The errors of mean_rho are the
numerator's over |Tr| plus the trace's own error (_ratio_errors), at every
pair count.

The one unit of work is the block of BATCH_SIZE trajectories.  Each block
draws its noise in one call from the stream keyed by (master_seed, block
index), one row per pair, and propagates all its trajectories together,
trajectory-last from the synthesized fields to the series, so that every pass
over the block reads contiguous rows of trajectories.  It then copies the
pair means into one row per pair, which ends in the controls of the largest
tier the run's pairs can reach, and takes the (mean, M2) of the rows' real
view in two passes, and the co-moments of the controls with the series, the
z-factor and the controls by one matrix product (the report's residuals,
real-linear in the series, take theirs from the series' after the fold);
block partials are then folded in block order with Chan's merge, whose
co-moment terms are added in one product every CHECKPOINT_EVERY blocks and
after the last, where checkpoints are written, and the calling process solves
for beta once, after the fold.  All of it depends only on block indices and
on the completed pair count, so results are bit-identical for any worker
count, and a checkpoint resumes to the same bits.

Every process that runs blocks, merges or estimates does so on one BLAS
thread (_one_blas_thread), so no matrix product rounds by the machine's core
count and no idle BLAS thread spins on a core; only the pipeline's set-up,
whose Takagi factor is most of it, keeps the caller's BLAS threads.
One worker runs the blocks on the calling thread.  More run them on that
many spawned processes, each sent the config, the system and the noise factor
once, which write each block's partial to a file; the calling process only
merges and checkpoints.  Each process that runs
blocks makes one Workspace for the run and passes it to every block: a block's
draws, synthesis products, fields, propagation windows, series, pair rows and
deviations are made once, in memory that arrays of disjoint lifetimes share
(BLOCK_SHARED_MEMORY), and every later block writes over them with the same
arithmetic in the same order.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import hashlib
import itertools
import json
import math
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
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, emit_config
from .errors import NumericalError, TooManyFailures, ValidationError, WorkerLost
from .kernels import KernelContext
from .model import (NormalModes, SystemSpec, coupling_channels, diagonalize_bath,
                    mode_couplings)
from .noise import (Z_LIMIT, NoiseCovariance, NoiseFactor, _safe_ratio, build_covariance,
                    derive_seed, draw_normal, factorize, synthesize)
from .propagate import equilibrate_batch, evolve_batch
from .workspace import Workspace

BATCH_SIZE = 512            # trajectories per block, the one unit of work
# The arrays of a block that share memory, by the names their functions give
# them (Workspace): each uses the memory of an array spent before it is made.
# Each channel's synthesis product is spent once its fields are copied out,
# the fields once made into the fields+-, the generators and the fields+- once
# the series is complete, the series once the rows hold it, and the pair means
# before the co-moments are made; these last until the block is folded or
# sent, before the next block runs.  A block's resident set then stays below
# the set-up peak of in-process runs.
BLOCK_SHARED_MEMORY = {"synthesis": "fields+-", "fields": "series", "pair means": "fields+-",
                       "rows": "generators", "deviations": "series", "co-moments": "fields+-"}
FAILURE_FRACTION = 0.01
INCONCLUSIVE_BELOW = 100    # a report that fails on fewer completed trajectories is inconclusive
CONTROL_COLUMNS = 8         # K: the draws whose products w_k w_l are the quadratic controls
QUARTIC_COLUMNS = (4, 6)    # K_4 of each quartic tier: the first K_4 of those draws by norm
PAIRS_PER_CONTROL = 20      # a tier of controls applies from 20 completed pairs per control on
CHECKPOINT_EVERY = 16       # blocks between settles of the fold, which fix where the co-moments
                            # round, and checkpoint writes; the last block settles and writes too
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
    """Count, mean and M2 of real columns, a complex column being two, re then
    im, and the co-moments of the last p columns, the controls, with the last
    m columns: ``cross`` (p, m) plus u_q u^T, u_q its last p entries and u its
    last m, for each row u of ``pending``, the merges not yet added in: a run
    settles its fold before each checkpoint, which never holds them."""

    n: int
    mean: np.ndarray
    m2: np.ndarray
    cross: np.ndarray
    pending: tuple = ()

    @classmethod
    def empty(cls, shape, p: int = 0, m: int | None = None) -> "_Stats":
        m = math.prod(shape) if m is None else m
        return cls(0, np.zeros(shape), np.zeros(shape), np.zeros((p, m)))

    def merge(self, other: "_Stats") -> "_Stats":
        """The fold of both, which adds ``other``'s co-moments to this fold's in
        place: a fold is used only through what it is merged into.  A block's
        co-moments live in its workspace, which the next block writes over, so
        a fold that would keep them copies them."""
        if other.n == 0:
            return self
        if self.n == 0:
            return replace(other, cross=other.cross.copy())
        return _chan(self, other)

    def settled(self) -> "_Stats":
        """The same statistics with no merge pending: one product adds them
        in, and the controls' own block is made symmetric again."""
        if not self.pending:
            return self
        rows, (p, m) = np.array(self.pending), self.cross.shape
        cross = self.cross + rows[:, rows.shape[1] - p:].T @ rows[:, rows.shape[1] - m:]
        _symmetrize(cross, p)
        return replace(self, cross=cross, pending=())


def _chan(a: _Stats, b: _Stats) -> _Stats:
    """Chan's merge of two nonempty partials.  The co-moments gain
    (delta_q s)(delta s)^T with s^2 = n_a n_b / n: the row delta s joins the
    pending ones, which settled() adds in by one product, a fraction of an
    outer product per merge."""
    n = a.n + b.n
    delta = b.mean - a.mean
    corr = a.n * b.n / n
    return _Stats(n, a.mean + delta * (b.n / n), a.m2 + b.m2 + delta ** 2 * corr,
                  np.add(a.cross, b.cross, out=a.cross),
                  a.pending + b.pending + (delta.reshape(-1) * math.sqrt(corr),))


def _symmetrize(cross: np.ndarray, p: int):
    """Make the controls' own block, the last p columns of ``cross``,
    symmetric bit for bit from its upper triangle."""
    block = cross[:, cross.shape[1] - p:]
    lower = np.tril_indices(p, -1)
    block[lower] = block.T[lower]


def _pairwise_stats(values: np.ndarray, work: Workspace | None = None, p: int = 0,
                    first: int = 0) -> _Stats:
    """(mean, M2) of real values along axis 0, in two passes, and the
    co-moments of the last p columns, the controls, with every column from
    ``first`` on.

    The mean is taken relative to the first row, so identical rows give a mean
    equal to that row and an M2 of exactly 0.  The sum is scaled by 1 / k, as
    numpy's complex mean does, so a complex array's real view keeps its bits.
    The co-moments are one matrix product of the deviations, and their
    control block is made symmetric from its upper triangle.  The
    deviations are ``work``'s "deviations" and the co-moments its
    "co-moments" (a new workspace by default).
    """
    k, width = values.shape[0], math.prod(values.shape[1:])
    if k == 0:
        return _Stats.empty(values.shape[1:], p, width - first)
    work = Workspace() if work is None else work
    dev = work.array("deviations", values.shape, float)
    mean = values[0] + np.subtract(values, values[0], out=dev).sum(axis=0) * (1.0 / k)
    np.subtract(values, mean, out=dev)
    flat = dev.reshape(k, width)
    cross = work.array("co-moments", (p, width - first), float)
    np.matmul(flat[:, width - p:].T, flat[:, first:], out=cross)
    _symmetrize(cross, p)
    return _Stats(k, mean, np.square(dev, out=dev).sum(axis=0), cross)


def _estimate(acc: _Stats, p: int) -> tuple:
    """(mean, se) of the folded rows' real columns, each column y regressed on
    the last p of the controls q, whose noise average is 0.

    beta = C_qq^-1 C_qy, the mean is y_bar - beta^T q_bar, and the residual M2
    is M2 - beta^T C_qy, clamped at 0.  The standard error is that of the
    least-squares intercept, sqrt(M2_res / (n - p - 1) * (1 / n + q_bar^T
    C_qq^-1 q_bar)).  With p = 0 this is the plain fold: the mean's bits are
    y_bar's, and the standard error is sqrt(M2 / (n - 1) / n).
    """
    acc = acc.settled()
    n, cross = acc.n, acc.cross[len(acc.cross) - p:]
    q = slice(acc.mean.size - p, None)
    c_qq, q_bar = cross[:, q], acc.mean[q]
    inverse = np.linalg.solve(c_qq, np.eye(p))
    beta = inverse @ cross
    m2 = np.maximum(acc.m2 - np.einsum("ij,ij->j", beta, cross), 0.0)
    leverage = 1.0 / n + np.einsum("i,ij,j", q_bar, inverse, q_bar)
    return acc.mean - np.einsum("i,ij->j", q_bar, beta), np.sqrt(m2 * (leverage / (n - p - 1)))


# ---------------------------------------------------------------------------
# batch execution

def _row_layout(n_t: int, d: int, p: int) -> tuple:
    """(columns, shape) of each part of a pair row, in row order: the pair
    mean's residuals (n_t, k) of _residuals, its series (n_t, d, d), its
    z-factor Tr / d, and its (p,) controls (_controls).  The controls are
    reals, stored in ceil(p / 2) columns: they end the row, and a zero before
    them pads an odd p.  The co-moments cover the row from the series on."""
    k, m = d * (d - 1) // 2 + 1, n_t * d * d
    r = n_t * k
    return ((slice(0, r), (n_t, k)), (slice(r, r + m), (n_t, d, d)),
            (slice(r + m, r + m + 1), ()), (slice(r + m + 1, r + m + 1 + (p + 1) // 2), (p,)))


def _control_columns(factor: NoiseFactor) -> np.ndarray:
    """The draws of the controls, by descending norm: the CONTROL_COLUMNS
    Takagi columns of largest balanced norm across all channels, a rule of
    the factor alone in any unit of action.  A channel's columns come in
    descending singular value, so only its first CONTROL_COLUMNS are
    compared; equal norms go to the earlier column."""
    norms, columns, start = [np.zeros(0)], [np.zeros(0, int)], 0
    for a_norms in factor.norms:
        norms.append(a_norms[:CONTROL_COLUMNS])
        columns.append(start + np.arange(len(norms[-1])))
        start += len(a_norms)
    top = np.argsort(-np.concatenate(norms), kind="stable")[:CONTROL_COLUMNS]
    return np.concatenate(columns)[top]


@functools.cache
def _hermite_products(k: int) -> tuple:
    """(factors, tiers) of the controls of k draws, in row order.

    Control j is the product of the four entries factors[:, j] (4, p) of the
    table [1, He_1(w), He_2(w), He_3(w), He_4(w)] of the draws (_controls):
    the Hermite polynomial of the multi-index that counts each draw in a
    multiset of draws.  The row ends in the quadratic multisets over all k
    draws, in row order of the upper triangle; before them come the quartic
    ones over the first K_4 draws of each QUARTIC_COLUMNS, each quartic tier
    before the one it extends.  ``tiers`` are the control counts a run can
    use, each a suffix of the row: (0, 36, 71, 162) for k = 8.
    """
    sets = list(itertools.combinations_with_replacement(range(k), 2))
    tiers, done = [0, len(sets)], 0
    for k4 in QUARTIC_COLUMNS:
        k4 = min(k4, k)
        sets = [c for c in itertools.combinations_with_replacement(range(k4), 4)
                if c[-1] >= done] + sets
        tiers.append(len(sets))
        done = k4
    factors = np.zeros((4, len(sets)), int)
    for j, c in enumerate(sets):
        for slot, a in enumerate(sorted(set(c))):
            factors[slot, j] = 1 + (c.count(a) - 1) * k + a
    factors.flags.writeable = False         # one array serves every call
    return factors, tuple(tiers)


def _controls(w: np.ndarray, out: np.ndarray, work: Workspace | None = None):
    """Write to the (B, p) ``out`` the last p controls of the (B, k) draws
    ``w``, in the order of _hermite_products(k), each of noise average 0.
    The Hermite table is ``work``'s "hermite table", the products "control
    products" and their factors "control factors" (a new workspace by
    default)."""
    work = Workspace() if work is None else work
    k = w.shape[1]
    factors, _ = _hermite_products(k)
    factors = factors[:, factors.shape[1] - out.shape[1]:]
    table = work.array("hermite table", (len(w), 1 + 4 * k), float)
    table[:, 0] = 1.0
    he = [table[:, 1 + m * k:1 + (m + 1) * k] for m in range(4)]      # He_1 ... He_4
    he[0][...] = w
    np.multiply(w, w, out=he[1])
    he[1] -= 1.0
    for m in (2, 3):                        # He_m+1 = w He_m - m He_m-1
        np.multiply(w, he[m - 1], out=he[m])
        he[m] -= m * he[m - 2]
    product = work.array("control products", out.shape, float)
    factor = work.array("control factors", out.shape, float)
    np.take(table, factors[0], axis=1, out=product, mode="clip")
    for f in factors[1:]:
        np.take(table, f, axis=1, out=factor, mode="clip")
        product *= factor
    out[...] = product


def _residuals(values: np.ndarray, out: np.ndarray):
    """Write to the (B, n_t, k) ``out`` the (B, n_t, d, d) ``values``'
    deviations from a Hermitian, trace-preserving average: v_ij - conj(v_ji)
    for i < j, then Tr v(t) - Tr v(0).  The noise average of each is 0.  The
    diagonal ones, v_ii - conj(v_ii) = 2i Im v_ii exactly, are left out: the
    series holds them (_report_residuals)."""
    d = values.shape[-1]
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for k, (i, j) in enumerate(upper):      # basic slices: fancy indexing is 3x slower
        np.conj(values[..., j, i], out=out[..., k])
        np.subtract(values[..., i, j], out[..., k], out=out[..., k])
    trace = out[..., -1]
    trace[...] = values[..., 0, 0]
    for i in range(1, d):
        trace += values[..., i, i]
    np.subtract(trace, trace[:, :1].copy(), out=trace)


def _trajectories(n_traj: int) -> int:
    """How many trajectories a run of ``n_traj`` runs: whole pairs."""
    return n_traj + n_traj % 2


def _tier(factor: NoiseFactor, pairs: int) -> int:
    """The largest tier of controls whose PAIRS_PER_CONTROL pairs per control
    ``pairs`` reach.  Of a run's whole pairs, it is the controls that end its
    pair rows, a rule of the config alone (``factor`` is the config's): no
    tier the run can use is left out, and no control it cannot use is made."""
    tiers = _hermite_products(len(_control_columns(factor)))[1]
    return max(t for t in tiers if pairs >= PAIRS_PER_CONTROL * t)


def _run_batch(system: SystemSpec, factor: NoiseFactor, cfg: RunConfig, block: int,
               work: Workspace | None = None) -> _Stats:
    """Draw, quench and evolve block ``block``, and reduce its completed
    pairs' rows (_row_layout), viewed as reals, to _Stats.

    The block holds trajectories block * BATCH_SIZE onwards, up to BATCH_SIZE
    of them and none past the run's whole pairs.  Its 2n trajectories are n
    antithetic pairs, drawn in one call from the stream keyed by
    (``cfg.master_seed``, ``block``), one row per pair.  The block runs
    trajectory-last: the fields z of the rows are synthesized once into the
    first half of ``work``'s (r, D, 2n) "fields", their negation fills the
    second, and the legs [z; -z] propagate together.  The pair means are made
    from the two halves of the (n_t, d, d, 2n) series and copied, transposed,
    into the rows, which end in the controls of the run's whole pairs (_tier).  A pair
    fails if either leg fails, and its row, its controls with it, is
    dropped.  Every large array lives in ``work`` (a new workspace by
    default), which a run passes to all its blocks; nothing of one block
    carries into the next.
    """
    work = Workspace(BLOCK_SHARED_MEMORY) if work is None else work
    grids = cfg.grids
    n = min(BATCH_SIZE, _trajectories(cfg.n_traj) - block * BATCH_SIZE) // 2
    columns = _control_columns(factor)
    # Spent arrays are deleted as they go: memory that the first block outgrows
    # is freed only with its last view.
    w = draw_normal(factor, derive_seed(cfg.master_seed, block), n, work=work)
    drawn = w[:, columns]
    fields = work.array("fields", (len(factor.a), factor.dim, 2 * n))
    synthesize(factor, w, work=work, out=fields[..., :n])
    del w
    np.negative(fields[..., :n], out=fields[..., n:])
    eta, nu, mu = np.split(fields, [grids.n_t, 2 * grids.n_t], axis=1)
    rho_end, div_imag = equilibrate_batch(system, mu, grids, work=work)
    traces = np.trace(rho_end)
    series, div_real = evolve_batch(system, eta, nu, grids, rho_end, work=work)
    del fields, eta, nu, mu         # spent: the series took their memory
    failed = div_imag | (np.abs(traces) < 1e-300) | div_real
    (r_cols, r_shape), (s_cols, s_shape), (z_cols, _), (c_cols, (p,)) = _row_layout(
        grids.n_t, system.dim, _tier(factor, _trajectories(cfg.n_traj) // 2))
    # the pair means are made apart from the rows: numpy copies an operand that
    # may overlap the output, and the parts of one row interleave
    means = work.array("pair means", s_shape + (n,))
    np.add(series[..., :n], series[..., n:], out=means)
    means *= 0.5
    means = means.transpose(3, 0, 1, 2)
    rows = work.array("rows", (n, c_cols.stop))
    rows[:, s_cols].reshape(n, *s_shape)[...] = means
    rows[:, z_cols.start] = 0.5 * (traces[:n] + traces[n:]) / system.dim
    _residuals(means, rows[:, r_cols].reshape(n, *r_shape))
    controls = rows[:, c_cols].view(float)
    controls[:, :controls.shape[1] - p] = 0.0
    _controls(drawn, controls[:, controls.shape[1] - p:], work)
    del series, means
    ok = ~(failed[:n] | failed[n:])
    return _pairwise_stats((rows if ok.all() else rows[ok]).view(float), work, p,
                           2 * s_cols.start)


# the arguments every block of a pooled run shares, then its Workspace, the
# directory its results go to and the process's _one_blas_thread, entered for
# its lifetime, set once in each worker process
_worker_args: tuple = ()


def _exit_with_parent():
    """End this worker process as soon as the process that started it is gone,
    so that a run killed from outside leaves no worker behind."""
    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _init_worker(path: str):
    global _worker_args
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    one_thread = _one_blas_thread()
    one_thread.__enter__()
    with open(path, "rb") as fh:
        _worker_args = pickle.load(fh) + (Workspace(BLOCK_SHARED_MEMORY), os.path.dirname(path),
                                          one_thread)


def _worker_block(block: int) -> str:
    """Run ``block`` and write its _Stats to a file in the run's directory,
    whose path it returns.  Sent back down the pool's pipe, a result of a
    megabyte crosses in pieces of the pipe buffer, and the calling process
    spends twice the time of a file read on them."""
    run_batch, system, factor, cfg, work, directory, _ = _worker_args
    path = os.path.join(directory, f"block-{block}.pickle")
    with open(path, "wb") as fh:
        pickle.dump(run_batch(system, factor, cfg, block, work), fh,
                    protocol=pickle.HIGHEST_PROTOCOL)
    return path


def _read_block(path: str) -> _Stats:
    with open(path, "rb") as fh:
        out = pickle.load(fh)
    os.remove(path)
    return out


@functools.cache
def _blas_threads_api():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy,
    found through ctypes, or None where there is none."""
    for path in glob.glob(str(Path(np.__file__).resolve().parent.parent / "numpy.libs"
                              / "*openblas*")):
        lib = ctypes.CDLL(path)
        get, set_ = (getattr(lib, f"scipy_openblas_{op}_num_threads64_", None)
                     for op in ("get", "set"))
        if get is not None and set_ is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


_one_thread_lock = threading.Lock()
_one_thread_users = 0       # the uses of _one_blas_thread open in this process
_threads_before = 0         # the thread count the last of them to close restores


@contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread for the block, then on the count it had.

    A product spread over OpenBLAS's threads rounds by where they split it,
    so by the core count, and each helper thread spins for about 0.1 s of
    CPU after a call, about the length of a block.  Nested and concurrent
    uses in one process share one count under a lock: the first sets 1 and
    the last to leave restores it.  Where no thread API is found
    (_blas_threads_api) this does nothing.
    """
    global _one_thread_users, _threads_before
    get, set_ = _blas_threads_api() or (lambda: 0, lambda threads: None)
    with _one_thread_lock:
        if _one_thread_users == 0:
            _threads_before = get()
            set_(1)
        _one_thread_users += 1
    try:
        yield
    finally:
        with _one_thread_lock:
            _one_thread_users -= 1
            if _one_thread_users == 0:
                set_(_threads_before)


@contextmanager
def _batch_results(run_batch, pipe: Pipeline, cfg: RunConfig, blocks: range, workers: int):
    """An iterator over ``run_batch``'s results for ``blocks``, in block order.

    One worker runs the blocks on the calling thread.  More run them on
    min(workers, len(blocks)) spawned processes (spawned, not forked, since
    this process may already run BLAS threads), each on one BLAS thread for
    its lifetime.  Each reads what ``run_batch`` reads, once, from a file,
    and writes each result to a file that this process reads and removes.
    Each process running blocks makes one Workspace for all of them, and it
    is dropped when the run ends.
    Passed as initializer arguments, that payload would go down each worker's
    start-up pipe, and a worker that dies while starting (re-running a script
    that has no main guard, say) would leave this process blocked on a payload
    larger than the pipe buffer; read from a file, the pool breaks instead.
    On leaving the block the pool is shut down, its queued blocks cancelled
    and its processes joined.
    """
    if workers == 1 or not blocks:
        work = Workspace(BLOCK_SHARED_MEMORY)
        yield (run_batch(pipe.system, pipe.factor, cfg, b, work) for b in blocks)
        return
    with tempfile.TemporaryDirectory(prefix="esln-") as tmp:
        args_path = os.path.join(tmp, "batch-args.pickle")
        with open(args_path, "wb") as fh:
            pickle.dump((run_batch, pipe.system, pipe.factor, cfg), fh,
                        protocol=pickle.HIGHEST_PROTOCOL)
        pool = ProcessPoolExecutor(max_workers=min(workers, len(blocks)),
                                   mp_context=multiprocessing.get_context("spawn"),
                                   initializer=_init_worker, initargs=(args_path,))
        try:
            yield map(_read_block, pool.map(_worker_block, blocks))
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
    # mean and standard error of the pair means' residuals (see _residuals),
    # (n_t, k, re/im), scaled like mean_rho by 1 / |Tr <rho_bar(hbar*beta)>|
    residual_mean: np.ndarray
    residual_se: np.ndarray
    # the controls in the estimate, the largest tier with PAIRS_PER_CONTROL pairs
    # per control, and the share of the worst t_f element's variance they
    # removed: neither is in the document
    n_controls: int
    variance_removed_tf: float
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

    @property
    def status(self) -> str:
        if max(self.max_hermiticity_z, self.max_trace_z) < Z_LIMIT:
            return "PASS"
        if self.n_ok < INCONCLUSIVE_BELOW:
            return "INCONCLUSIVE"
        return "FAIL"

    def lines(self):
        return [
            f"hermiticity: worst |rho - rho^dag| = {self.max_hermiticity_z:.3f} stderr units",
            f"trace:       worst |Tr rho - 1|   = {self.max_trace_z:.3f} stderr units",
            f"min eigenvalue of the Hermitized mean: {self.min_eigenvalue:.3e}",
            f"status: {self.status} (threshold {Z_LIMIT:g}, n_ok = {self.n_ok})",
        ]


def hermiticity_trace_report(result: EnsembleResult) -> HermiticityReport:
    """z-scores of the residuals' means in units of their own standard errors.

    The residuals are taken per pair mean (see _residuals), because the
    entries of one pair mean are correlated, some of them perfectly: adding
    up the separate errors of rho_ij and rho_ji would misstate the error of
    rho_ij - conj(rho_ji).  Real and imaginary parts are scored apart.
    """
    z = _safe_ratio(np.abs(result.residual_mean), result.residual_se).max(axis=-1)
    mean = result.mean_rho
    hermitized = 0.5 * (mean + np.conj(np.swapaxes(mean, -1, -2)))
    min_eig = min(float(np.linalg.eigvalsh(h).min()) for h in hermitized)
    return HermiticityReport(max_hermiticity_z=float(z[:, :-1].max()),
                             max_trace_z=float(z[:, -1].max()),
                             min_eigenvalue=min_eig,
                             n_ok=result.n_ok)


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
    """Write the settled fold ``acc`` of the first ``next_batch`` blocks: one
    line of sorted-key JSON, then the little-endian float64 bytes of its mean,
    M2 and co-moments, whose sizes the config fixes and whose SHA-256 the
    line records."""
    payload = b"".join(a.astype("<f8").tobytes() for a in (acc.mean, acc.m2, acc.cross))
    header = {"schema": DOCUMENT_SCHEMA + "+checkpoint", "config": cfg_echo, "layout": layout,
              "next_batch": next_batch, "n_failed": _n_failed(acc, next_batch, n_run),
              "n": acc.n, "sha256": hashlib.sha256(payload).hexdigest()}
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())       # on disk before it takes the final name
    os.replace(tmp, path)


def _read_checkpoint(path: str, cfg_echo: dict, layout: dict, n_run: int, width: int,
                     cross_shape: tuple):
    """(next batch, folded statistics) from ``path``, for a run of ``n_run``
    trajectories whose pair rows have ``width`` complex columns and whose
    co-moments are ``cross_shape``, (controls, real columns covered); a torn
    or malformed checkpoint, one of another run, or one whose counts do not
    add up to its batches raises ValidationError."""
    n_batches = -(-n_run // BATCH_SIZE)
    schema = DOCUMENT_SCHEMA + "+checkpoint"
    (p, m) = cross_shape
    try:
        with open(path, "rb") as fh:
            doc = dict(json.loads(fh.readline()))
            payload = fh.read()
        if doc.get("schema") != schema:
            raise ValidationError("checkpoint", f"schema {doc.get('schema')!r} is not {schema!r}")
        if doc.get("config") != cfg_echo:
            raise ValidationError("checkpoint", "checkpoint belongs to a different configuration")
        if doc.get("layout") != layout:
            raise ValidationError("checkpoint", f"checkpoint layout {doc.get('layout')} (noise "
                                                f"factor, batch size, version) is not {layout}")
        next_batch, n_failed = _count(doc, "next_batch"), _count(doc, "n_failed")
        if len(payload) != 8 * (4 * width + p * m):
            raise ValueError(f"{len(payload)} bytes are not {4 * width + p * m} float64")
        if hashlib.sha256(payload).hexdigest() != doc["sha256"]:
            raise ValueError("the payload does not match its SHA-256")
        # a writable copy: a merge adds into the co-moments in place
        values = np.frombuffer(payload, "<f8").astype(float)
        mean, m2, cross = np.split(values, [2 * width, 4 * width])
        if not np.isfinite(values).all() or (m2 < 0).any():
            raise ValueError("pair statistics are not finite, or an M2 is negative")
        cross = cross.reshape(p, m)
        block = cross[:, m - p:]
        if not np.array_equal(block, block.T):
            raise ValueError("the controls' own co-moments are not symmetric")
        acc = _Stats(_count(doc, "n"), mean, m2, cross)
    except (KeyError, TypeError, ValueError) as exc:     # a torn file, missing or bad fields
        raise ValidationError("checkpoint", f"{path} is torn or malformed: {exc!r}") from exc
    if next_batch > n_batches:
        raise ValidationError("checkpoint", f"next_batch {next_batch} is not in [0, {n_batches}]")
    if _n_failed(acc, next_batch, n_run) != n_failed:
        raise ValidationError("checkpoint", f"2 * n {acc.n} + n_failed {n_failed} is not "
                                            f"the trajectories of {next_batch} batches")
    return next_batch, acc


# ---------------------------------------------------------------------------
# the ensemble run

def _check_finite(acc: _Stats, parts: tuple):
    """Raise NumericalError, naming the z-factor or the time index of the first
    bad column, unless every folded mean and M2 of the pair rows is finite and
    Tr mean[0] is finite and nonzero; ``parts`` is the rows' _row_layout (the
    controls, products of finite draws, are never the first bad column)."""
    (residuals, _), (series, shape), (zfac, _), _ = parts
    finite = np.isfinite(acc.mean) & np.isfinite(acc.m2)
    if not finite.all():
        col = int(np.argmin(finite)) // 2
        if col == zfac.start:
            raise NumericalError("non-finite z-factor mean or variance")
        cols = series if col >= series.start else residuals     # both lead with time
        raise NumericalError(f"non-finite ensemble mean or variance at time index "
                             f"{(col - cols.start) * shape[0] // (cols.stop - cols.start)}")
    trace = np.trace(acc.mean.view(complex)[series].reshape(shape)[0])
    if trace == 0 or not np.isfinite(trace):
        raise NumericalError(f"averaged partition function Tr rho_bar(hbar*beta) = {trace} "
                             f"at time index 0")


def _ratio_errors(se: np.ndarray, mean_rho: np.ndarray, scale: complex, parts: tuple) -> tuple:
    """(se_re, se_im) of mean_rho = N / D, D = Tr N(0) = d * z-factor, from the
    pair rows' standard errors ``se`` (width, re/im) and ``scale`` = 1 / D.

    Each is the numerator's error over |D| plus |mean_rho| se(D) / |D|, a bound
    on the ratio's linearised error whatever the correlation of N and D.
    Without the trace term the errors understate the ratio's where the
    partition function fluctuates more than the numerator: at early times,
    and wherever the controls shrink the numerator's spread.
    """
    _, (s_cols, s_shape), (z_cols, _), _ = parts
    trace_part = np.abs(mean_rho) * (mean_rho.shape[-1] * np.hypot(*se[z_cols.start]))
    return tuple((se[s_cols, part].reshape(s_shape) + trace_part) * abs(scale)
                 for part in (0, 1))


def _widened(acc: _Stats, parts: tuple, p: int) -> _Stats:
    """``acc``, settled, with the co-moments of its last p controls with
    every column.

    The residuals are real-linear in the series, so their co-moments are
    _residuals applied to the series', read as complex (p, n_t, d, d): the
    same sums in another order, equal to rounding.
    """
    (r_cols, r_shape), (s_cols, s_shape), _, _ = parts
    acc = acc.settled()
    cross = np.empty((p, acc.mean.size))
    cross[:, 2 * s_cols.start:] = acc.cross[len(acc.cross) - p:]
    _residuals(cross[:, 2 * s_cols.start:2 * s_cols.stop].view(complex).reshape(p, *s_shape),
               cross[:, 2 * r_cols.start:2 * r_cols.stop].view(complex).reshape(p, *r_shape))
    return replace(acc, cross=cross)


def _report_residuals(a: np.ndarray, parts: tuple) -> np.ndarray:
    """The (n_t, k, re/im) report residuals of the pair rows' (width, re/im)
    ``a``, a mean or its standard errors: v_ij - conj(v_ji) for i <= j, then
    the trace's.  The rows hold those of _residuals; the diagonal ones are
    2i Im v_ii, whose mean and error are the series' imaginary part's times
    2, an exact scaling."""
    (r_cols, r_shape), (s_cols, s_shape), _, _ = parts
    n_t, d = s_shape[0], s_shape[-1]
    upper = [(i, j) for i in range(d) for j in range(i, d)]
    diagonal = [k for k, (i, j) in enumerate(upper) if i == j]
    out = np.zeros((n_t, len(upper) + 1, 2))
    out[:, np.setdiff1d(np.arange(len(upper) + 1), diagonal)] = a[r_cols].reshape(*r_shape, 2)
    series = a[s_cols].reshape(*s_shape, 2)
    out[:, diagonal, 1] = 2.0 * series[:, range(d), range(d), 1]
    return out


def run_ensemble(cfg: RunConfig, workers: int = 1, checkpoint_path: str | None = None,
                 pipeline: Pipeline | None = None) -> EnsembleResult:
    """Run the full two-time Monte Carlo and average it.

    The trajectories run in antithetic pairs, an odd ``n_traj`` rounded up
    to whole pairs, and the standard errors are those of the pair means,
    carrying the error of the partition function they are divided by.  The
    estimate is the regression of the pair means on the Hermite control
    variates (_estimate): on the largest tier of them whose PAIRS_PER_CONTROL
    completed pairs per control the run has, and the result's ``n_controls``
    says which.
    Deterministic in the config: the noise keys, the reduction and the merge
    order are functions of block indices alone (a block is BATCH_SIZE
    trajectories, the last one possibly fewer), so the worker count (at
    least 1) cannot change any output bit.  Once the pipeline is built, the
    blocks, the merges and the estimate run on one BLAS thread in every
    process (_one_blas_thread), so neither can the core count; only the
    Takagi factor of the set-up rounds by it.  ``workers`` = 1 runs the blocks
    on the calling thread; more run them on min(workers, blocks left)
    spawned worker processes, which take about 0.3 s to start.  Each worker
    imports the caller's main module, so a script that calls this needs an
    ``if __name__ == "__main__":`` guard.  A worker that dies raises
    WorkerLost, naming the first block not merged.  A ``pipeline`` built from
    the same system, bath, grids and cap is reused; any other is rebuilt.  A
    checkpoint is written every CHECKPOINT_EVERY blocks and after the last,
    and resumes only with the echoed config, schema, batch size, noise factor
    and version that wrote it.  A non-finite folded mean or M2, or an
    averaged Tr rho_bar(hbar*beta) that is zero or non-finite, raises
    NumericalError.

    The initial state alone is the t = 0 entry of a run whose real-time grid
    is cut to one interval (``esln equilibrate``): the law of the
    imaginary-time noise, and so of rho_bar(hbar*beta), depends only on the
    tau grid.
    """
    if workers < 1:
        raise ValidationError("workers", "must be >= 1")
    pipe = pipeline if pipeline is not None and _built_for(pipeline, cfg) \
        else build_pipeline(cfg)
    with _one_blas_thread():
        cfg_echo = {key: val for key, val in emit_config(cfg).items() if key in ECHOED_SECTIONS}
        layout = _layout(pipe) if checkpoint_path else None
        n_run = _trajectories(cfg.n_traj)
        n_batches = -(-n_run // BATCH_SIZE)
        parts = _row_layout(cfg.grids.n_t, cfg.system.dim, _tier(pipe.factor, n_run // 2))
        _, (s_cols, s_shape), (z_cols, _), (c_cols, (p,)) = parts
        width = c_cols.stop
        acc = _Stats.empty((2 * width,), p, 2 * (width - s_cols.start))
        start_batch = 0
        if checkpoint_path and os.path.exists(checkpoint_path):
            start_batch, acc = _read_checkpoint(checkpoint_path, cfg_echo, layout, n_run, width,
                                                acc.cross.shape)

        # _run_batch is looked up now, so a replacement set on the module reaches
        # the workers too
        done_batches = start_batch
        try:
            with _batch_results(_run_batch, pipe, cfg, range(start_batch, n_batches),
                                workers) as outs:
                for out in outs:
                    acc = acc.merge(out)
                    done_batches += 1
                    if done_batches % CHECKPOINT_EVERY == 0 or done_batches == n_batches:
                        acc = acc.settled()
                        if checkpoint_path:
                            _write_checkpoint(checkpoint_path, cfg_echo, layout, done_batches,
                                              acc, n_run)
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

        n_controls = _tier(pipe.factor, acc.n)
        acc = _widened(acc, parts, n_controls)
        mean, se = _estimate(acc, n_controls)
        mean, se = mean.view(complex), se.reshape(width, 2)
        series = mean[s_cols].reshape(s_shape)
        scale = 1.0 / np.trace(series[0])
        mean_rho = series * scale
        se_re, se_im = _ratio_errors(se, mean_rho, scale, parts)
        worst_tf = np.hypot(se_re, se_im)[-1].max()
        plain_tf = np.hypot(*_ratio_errors(_estimate(acc, 0)[1].reshape(width, 2), mean_rho, scale,
                                           parts))[-1].max()
        residual_mean, residual_se = (_report_residuals(a.reshape(width, 2), parts) * abs(scale)
                                      for a in (mean.view(float), se))
        return EnsembleResult(
            times=cfg.grids.t, mean_rho=mean_rho, se_re=se_re, se_im=se_im,
            n_traj=n_run, n_ok=2 * acc.n, n_failed=n_failed,
            master_seed=cfg.master_seed, z_factor_mean=complex(mean[z_cols.start]),
            z_factor_se=float(np.hypot(*se[z_cols.start])),
            residual_mean=residual_mean, residual_se=residual_se, n_controls=n_controls,
            variance_removed_tf=float(1.0 - (worst_tf / plain_tf) ** 2) if plain_tf else 0.0,
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
        "times": result.times.tolist(),
        "z_factor": {"mean_re": result.z_factor_mean.real,
                     "mean_im": result.z_factor_mean.imag,
                     "se": result.z_factor_se},
        "mean_rho": np.stack([result.mean_rho.real, result.mean_rho.imag], -1).tolist(),
        "stderr_re": result.se_re.tolist(),
        "stderr_im": result.se_im.tolist(),
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
    # relative to the grid's span, so that times in small units are compared too
    if times_a.shape != times_b.shape or np.abs(times_a - times_b).max() > 1e-9 * np.ptp(times_a):
        raise ValidationError(path_b, "time grids differ between the two series")
    if mean_a.shape != mean_b.shape:
        raise ValidationError(path_b, "matrix dimensions differ between the two series")
    diff = np.abs(mean_a - mean_b)
    scale = np.sqrt(se_re_a ** 2 + se_im_a ** 2 + se_re_b ** 2 + se_im_b ** 2)
    z = _safe_ratio(diff, scale)
    return float(z.max()), z
