import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import esln
from esln import ensemble
from esln import (build_covariance, build_pipeline, coupling_channels, diagonalize_bath,
                  exact_reduced_dynamics, factorize, hermiticity_trace_report, k_complex,
                  mode_couplings, parse_config, run_ensemble, TruncatedBath, write_csv,
                  write_document)
from esln.ensemble import (EnsembleResult, HermiticityReport, _pairwise_stats, _Stats,
                           compare_series, document_bytes, read_csv, result_document)
from esln.cli import _one_interval, main
from esln.errors import NumericalError, TooManyFailures, ValidationError, WorkerLost
from esln.noise import NoiseCovariance, draw_normal, synthesize
from esln.workspace import Workspace

from conftest import small_doc

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Stand-ins for ensemble._run_batch live at module level: at workers > 1 they
# are pickled by name into spawned processes, which see no monkeypatch and no
# list of this process, so what they record goes through a file.
_real_run_batch = ensemble._run_batch
_real_evolve_batch = ensemble.evolve_batch
_blas_api = ensemble._blas_threads_api()       # (get, set) of OpenBLAS's thread count, or None
needs_blas_api = pytest.mark.skipif(_blas_api is None, reason="needs OpenBLAS's thread API")


class Killed(Exception):
    """Stands in for a run stopped from outside."""


@dataclasses.dataclass(frozen=True)
class _Logged:
    """Runs the real block after appending ``record(block)`` to the file ``log``."""

    log: str
    record: object = str

    def __call__(self, system, factor, run_cfg, block, work=None):
        with open(self.log, "a", encoding="utf-8") as fh:
            fh.write(f"{self.record(block)}\n")
        return _real_run_batch(system, factor, run_cfg, block, work)

    def lines(self) -> list:
        return Path(self.log).read_text().split() if os.path.exists(self.log) else []


def _slow_first(system, factor, run_cfg, block, work=None):
    if block == 0:
        time.sleep(0.2)
    return _real_run_batch(system, factor, run_cfg, block, work)


def _killed_at_batch_2(system, factor, run_cfg, block, work=None):
    if block == 2:
        raise Killed
    return _real_run_batch(system, factor, run_cfg, block, work)


@dataclasses.dataclass(frozen=True)
class _KilledAt:
    """Runs the real block, but stops the run at block ``block``."""

    block: int

    def __call__(self, system, factor, run_cfg, block, work=None):
        if block == self.block:
            raise Killed
        return _real_run_batch(system, factor, run_cfg, block, work)


def _first_row_diverges(*evolve_args, **evolve_kwargs):
    """evolve_batch, but the first row of each block diverges."""
    series, diverged = _real_evolve_batch(*evolve_args, **evolve_kwargs)
    series[..., 0] = np.nan
    diverged[0] = True
    return series, diverged


def _blas_threads(batch=None) -> int:
    """The thread count of the OpenBLAS this process runs on."""
    return _blas_api[0]()


@contextlib.contextmanager
def _at_blas_threads(threads: int):
    """OpenBLAS on ``threads`` threads for the block, then on the count it had."""
    before = _blas_threads()
    _blas_api[1](threads)
    try:
        yield
    finally:
        _blas_api[1](before)


@dataclasses.dataclass(frozen=True)
class _Nested:
    """Runs ``cfg`` to the end in block 0 of another run, logs the BLAS thread
    count after it, and then runs the real block."""

    log: str
    cfg: object

    def __call__(self, system, factor, run_cfg, block, work=None):
        if block == 0 and run_cfg is not self.cfg:
            run_ensemble(self.cfg)
            with open(self.log, "a", encoding="utf-8") as fh:
                fh.write(f"{_blas_threads()}\n")
        return _real_run_batch(system, factor, run_cfg, block, work)


@dataclasses.dataclass(frozen=True)
class _AtThreads:
    """Runs the real block on ``threads`` BLAS threads, as a process that
    finds no thread API runs it on the count it has."""

    threads: int

    def __call__(self, system, factor, run_cfg, block, work=None):
        with _at_blas_threads(self.threads):
            return _real_run_batch(system, factor, run_cfg, block, work)


def _pid(batch):
    return os.getpid()


def _header(path) -> dict:
    """The JSON header line of the checkpoint at ``path``."""
    with open(path, "rb") as fh:
        return json.loads(fh.readline())


def _parts(data: bytes) -> tuple:
    """(header, payload) of a checkpoint's bytes."""
    line, _, payload = data.partition(b"\n")
    return json.loads(line), payload


def _joined(header: dict, payload: bytes) -> bytes:
    """A checkpoint of ``header``, written as the run writes it, and ``payload``."""
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + payload


def _checkpoint_sizes(cfg, pipe) -> tuple:
    """(width, (p, m)) of a run's checkpoint: its pair rows' complex columns,
    and its co-moments' controls and real columns covered."""
    p = ensemble._tier(pipe.factor, ensemble._trajectories(cfg.n_traj) // 2)
    _, (s_cols, _), _, (c_cols, _) = ensemble._row_layout(cfg.grids.n_t, cfg.system.dim, p)
    return c_cols.stop, (p, 2 * (c_cols.stop - s_cols.start))


@dataclasses.dataclass(frozen=True)
class _DiesAtBatch2:
    """Ends its process, as an out-of-memory kill would, on batch 2, once the
    checkpoint shows batches 0 and 1 merged."""

    checkpoint: str

    def __call__(self, system, factor, run_cfg, block, work=None):
        if block == 2:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    if _header(self.checkpoint)["next_batch"] == 2:
                        break
                except (OSError, ValueError):
                    pass
                time.sleep(0.01)
            os._exit(1)
        return _real_run_batch(system, factor, run_cfg, block, work)


def test_pairwise_stats_match_two_pass():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((37, 4)) + 1j * rng.standard_normal((37, 4))
    st = _pairwise_stats(vals.view(float))
    assert st.n == 37
    assert np.abs(st.mean.view(complex) - vals.mean(axis=0)).max() < 1e-12
    var = vals.view(float).var(axis=0, ddof=1)      # real and imaginary parts
    assert np.abs(st.m2 / 36 - var).max() < 1e-12
    assert st.cross.shape == (0, 8)
    # the last p = 3 real columns are controls: their co-moments with every
    # column are the two-pass ones, and their own block is symmetric bit for bit
    with_controls = _pairwise_stats(vals.view(float), p=3)
    assert np.array_equal(with_controls.mean, st.mean) and np.array_equal(with_controls.m2, st.m2)
    dev = vals.view(float) - vals.view(float).mean(axis=0)
    assert np.abs(with_controls.cross - dev[:, 5:].T @ dev).max() < 1e-12
    block = with_controls.cross[:, 5:]
    assert np.array_equal(block, block.T)
    # from column 2 on only: the same co-moments of those columns
    covered = _pairwise_stats(vals.view(float), p=3, first=2)
    assert np.array_equal(covered.mean, st.mean) and np.array_equal(covered.m2, st.m2)
    assert np.array_equal(covered.cross, with_controls.cross[:, 2:])


def test_pairwise_stats_slices_at_least_one_column():
    # 3,240 rows at p = 162, the co-moments of the top tier over the most
    # pairs a run reaches it with: the product equals the one-pass one
    rows = np.random.default_rng(7).standard_normal((3240, 170))
    acc = _pairwise_stats(rows, p=162)
    dev = rows - rows.mean(axis=0)
    assert np.abs(acc.cross - dev[:, 8:].T @ dev).max() < 1e-12 * len(rows)


@pytest.mark.parametrize("k", [37, 255, 256])
def test_real_view_stats_keep_the_bits_of_the_complex_two_pass(k):
    # the real view of complex rows gives, bit for bit, the complex mean and
    # the M2 of the real and imaginary parts that the complex reduction gave
    rng = np.random.default_rng(k)
    vals = 0.3 + rng.standard_normal((k, 50)) + 1j * rng.standard_normal((k, 50))
    mean = vals[0] + (vals - vals[0]).mean(axis=0)
    dev = vals - mean
    st = _pairwise_stats(vals.view(float))
    assert st.n == k
    assert np.array_equal(st.mean.view(complex), mean)
    assert np.array_equal(st.m2[0::2], (dev.real ** 2).sum(axis=0))
    assert np.array_equal(st.m2[1::2], (dev.imag ** 2).sum(axis=0))


def _fold(values, cuts, p=0):
    """Chan-fold the two-pass statistics of values split at ``cuts``, in order,
    the last p columns of a row being controls."""
    acc = _Stats.empty(values.shape[1:], p)
    for part in np.split(values, cuts):
        acc = acc.merge(_pairwise_stats(part, p=p))
    return acc.settled()


@settings(max_examples=80)
@given(data=st.data(), n=st.integers(1, 48), t=st.integers(1, 3), d=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), offset=st.floats(-3.0, 3.0),
       spread=st.floats(0.1, 1.0))
def test_stats_fold_under_any_batch_split(data, n, t, d, seed, offset, spread):
    # any consecutive batching folds to the statistics of the whole array, and
    # identical rows keep an M2 of exactly 0 under every split
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    p = data.draw(st.integers(0, min(3, 2 * t * d * d)))    # the last p reals are controls
    rng = np.random.default_rng(seed)
    shape = (n, t, d, d)
    values = offset + spread * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    folded, whole = _fold(values.view(float), cuts, p), _pairwise_stats(values.view(float), p=p)
    assert folded.n == whole.n == n
    scale = np.abs(values).max()
    assert np.abs(folded.mean.view(complex) - whole.mean.view(complex)).max() <= 1e-12 * scale
    for part in (0, 1):                 # real parts, then imaginary parts
        got, ref = folded.m2[..., part::2], whole.m2[..., part::2]
        assert np.abs(got - ref).max() <= 1e-12 * max(ref.max(), scale ** 2)
    cross = folded.cross.reshape(p, 2 * t * d * d)
    assert np.abs(cross - whole.cross.reshape(cross.shape)).max(initial=0.0) <= 1e-12 * scale ** 2 * n
    assert np.array_equal(cross[:, cross.shape[1] - p:], cross[:, cross.shape[1] - p:].T)
    same = np.broadcast_to(values[0], shape).copy()
    folded = _fold(same.view(float), cuts, p)
    assert np.array_equal(folded.mean, values[0].view(float))
    assert np.all(folded.m2 == 0.0) and np.all(folded.cross == 0.0)


# synthetic pair rows for the estimator: responses that are known forms of 8
# draws w, three quadratic and one quartic, plus independent noise, followed by
# the 162 controls of w, whose tiers are the last 36, 71 or all 162
_TIERS = (0, 36, 71, 162)
_P, _Y = _TIERS[-1], 4
_FORMS = np.random.default_rng(2024).standard_normal((_Y, 8, 8)) * 0.3
# y_3 = (v^T A v)^2 / 4 of the first 4 draws v, A symmetric: the quartic tiers span it
_FORMS[-1] = 0.0
_FORMS[-1, :4, :4] = np.random.default_rng(2025).standard_normal((4, 4)) * 0.2
_FORMS[-1] += _FORMS[-1].T
# <w^T A w> = Tr A, and by Isserlis <(w^T A w)^2> = (Tr A)^2 + 2 Tr A^2
_TRUE_MEANS = 1.5 + np.append(np.trace(_FORMS[:3], axis1=1, axis2=2),
                              (np.trace(_FORMS[-1]) ** 2 + 2 * np.sum(_FORMS[-1] ** 2)) / 4)


def _synthetic_rows(n, seed, noise=1.0):
    """(n, 4 + 162) real rows: y_c = 1.5 + w^T A_c w + noise for c < 3, then
    y_3 = 1.5 + (w^T A_3 w)^2 / 4 + noise, then q(w)."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, 8))
    rows = np.empty((n, _Y + _P))
    rows[:, :_Y] = np.einsum("ni,cij,nj->nc", w, _FORMS, w)
    rows[:, _Y - 1] **= 2
    rows[:, _Y - 1] /= 4
    rows[:, :_Y] += 1.5 + noise * (rng.exponential(size=(n, _Y)) - 1.0)    # skewed, mean 0
    ensemble._controls(w, rows[:, _Y:])
    return rows


def _hermite(m, w):
    """The probabilists' Hermite polynomial He_m(w), m <= 4, by its coefficients."""
    return np.polynomial.hermite_e.hermeval(w, np.eye(5)[m])


def test_controls_are_the_quadratic_forms_of_the_draws():
    # the row ends in the 36 q_kl = w_k w_l - delta_kl (k <= l)
    w = np.random.default_rng(1).standard_normal((5, 8))
    q = np.empty((5, _P))
    ensemble._controls(w, q)
    upper = np.triu_indices(8)
    assert np.array_equal(q[:, -36:], w[:, upper[0]] * w[:, upper[1]] - np.eye(8)[upper])


def test_the_quartic_controls_are_hermite_products_of_the_draws():
    # before the 36 quadratic controls come the 35 quartic products over the
    # first 4 draws, and first the 91 over the first 6 that use draw 5 or 6:
    # each the product of He_m over the draws of a multiset, m counting each
    w = np.random.default_rng(1).standard_normal((5, 8))
    q = np.empty((5, _P))
    ensemble._controls(w, q)
    quartic = [c for k4 in (6, 4) for c in itertools.combinations_with_replacement(range(k4), 4)
               if k4 == 4 or max(c) >= 4]
    assert len(quartic) == 126
    for j, c in enumerate(quartic):
        want = np.prod([_hermite(c.count(a), w[:, a]) for a in set(c)], axis=0)
        assert np.allclose(q[:, j], want, rtol=1e-12, atol=1e-12)
    assert ensemble._hermite_products(8)[1] == _TIERS


def test_controls_have_mean_zero_and_are_orthogonal_by_isserlis():
    # each of the 162 controls of 8 draws is a polynomial of degree <= 4 with
    # integer coefficients, read off the implementation on 1,000 points; with
    # Isserlis' theorem, <prod_a w_a^n_a> = prod_a (n_a - 1)!! (0 if an n_a is
    # odd), each has mean 0 and the Gram matrix is diagonal in closed form:
    # the quartic controls are orthogonal to the quadratic ones and to each
    # other, and <He_a(w)^2> = a! for each multi-index a
    k = 8
    exponents = np.array([np.bincount(c, minlength=k) for degree in range(5)
                          for c in itertools.combinations_with_replacement(range(k), degree)])
    points = np.random.default_rng(11).uniform(-2.0, 2.0, (1000, k))
    q = np.empty((len(points), _P))
    ensemble._controls(points, q)
    design = np.prod(points[:, None, :] ** exponents, axis=-1)
    coef = np.linalg.lstsq(design, q, rcond=None)[0]
    assert np.abs(coef - np.round(coef)).max() < 1e-6
    coef = np.round(coef).astype(np.int64)
    assert np.abs(design @ coef - q).max() < 1e-9 * np.abs(q).max()
    double_factorial = np.array([1, 0, 1, 0, 3, 0, 15, 0, 105])     # (n - 1)!!, 0 for odd n
    moments = np.prod(double_factorial[exponents[:, None, :] + exponents[None, :, :]], axis=-1)
    assert np.array_equal(coef.T @ moments[0], np.zeros(_P, np.int64))     # moments[0]: <m>
    gram = coef.T @ moments @ coef
    leading = exponents[[np.flatnonzero(c)[-1] for c in coef.T]]    # degree-sorted basis
    norms = [math.prod(math.factorial(int(n)) for n in a) for a in leading]
    assert np.array_equal(gram, np.diag(norms))


@pytest.mark.parametrize("k", range(9))
def test_a_factor_with_few_columns_gets_the_products_of_those_it_has(k):
    # k draws give the quadratic products of all k, and the quartic ones of
    # the first min(K_4, k): tiers C(k + 1, 2), then C(min(K_4, k) + 3, 4) more
    quadratic = math.comb(k + 1, 2)
    tiers = (0, quadratic) + tuple(quadratic + math.comb(min(k4, k) + 3, 4) for k4 in (4, 6))
    factors, got = ensemble._hermite_products(k)
    assert got == tiers and factors.shape == (4, tiers[-1])
    w = np.random.default_rng(k).standard_normal((3, k))
    q = np.empty((3, tiers[-1]))
    ensemble._controls(w, q)
    assert np.isfinite(q).all()


@settings(max_examples=20)
@given(data=st.data(), n=st.integers(20 * 36, 1100), seed=st.integers(0, 2 ** 32 - 1),
       p=st.sampled_from(_TIERS))
def test_controlled_fold_equals_one_pass_least_squares(data, n, seed, p):
    # whatever the cut into blocks, the folded estimate is the intercept of a
    # least-squares fit of each response on [1, q] at q = 0, q the last p
    # controls, and its standard error that intercept's, on n - p - 1 degrees
    # of freedom; on no controls the fit is on the intercept alone
    rows = _synthetic_rows(n, seed)
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=12)))
    mean, se = ensemble._estimate(_fold(rows, cuts, _P), p)
    design = np.hstack([np.ones((n, 1)), rows[:, rows.shape[1] - p:]])
    coef, rss, _, _ = np.linalg.lstsq(design, rows[:, :_Y], rcond=None)
    intercept_se = np.sqrt(rss / (n - p - 1) * np.linalg.inv(design.T @ design)[0, 0])
    assert np.abs(mean[:_Y] - coef[0]).max() <= 1e-12 * np.abs(rows[:, :_Y]).max()
    assert np.abs(se[:_Y] / intercept_se - 1.0).max() <= 1e-12 * n
    if p:       # the controls' own estimates are their known mean, 0, with no spread
        used = slice(rows.shape[1] - p, None)
        assert np.abs(mean[used]).max() < 1e-12 and np.all(se[used] >= 0.0)


def _assert_unbiased_and_covered(n, p, seeds):
    """Over ``seeds`` seeds of n pairs folded in blocks of 256, on the tier of
    p controls, the errors of the quadratic and quartic responses in units of
    the reported standard error have mean 0 and spread 1, and cover at the
    normal rate."""
    z = []
    for seed in range(seeds):
        acc = _fold(_synthetic_rows(n, seed), list(range(256, n, 256)), _P)
        mean, se = ensemble._estimate(acc, p)
        z.extend((mean[:_Y] - _TRUE_MEANS) / se[:_Y])
    z = np.array(z)
    assert abs(z.mean()) < 0.2
    assert 0.9 < z.std() < 1.1
    assert 0.92 <= np.mean(np.abs(z) < 1.96) <= 0.98


def test_controlled_mean_is_unbiased_and_its_errors_cover():
    # 200 seeds of 800 pairs on the 36 quadratic controls: the quartic
    # response's quartic part stays in its residual
    _assert_unbiased_and_covered(800, 36, 200)


def test_the_top_tier_is_unbiased_and_its_errors_cover():
    # 100 seeds of 3,240 pairs on all 162 controls, which span the quartic form
    _assert_unbiased_and_covered(3240, _P, 100)


def test_below_the_threshold_the_estimate_is_the_plain_fold():
    # on no controls the mean and M2 are the bits of a fold without controls,
    # and the standard error is sqrt(M2 / (n (n - 1))) but for its rounding:
    # the regression scales M2 by (1 / n) / (n - 1), at most 2 ulp away
    assert ensemble.PAIRS_PER_CONTROL * _TIERS[1] == 720
    rows = _synthetic_rows(720, 3)
    for n, cuts in ((2, [1]), (719, [256, 512]), (720, [256, 512])):
        controlled, plain = _fold(rows[:n], cuts, _P), _fold(rows[:n, :_Y], cuts)
        assert np.array_equal(controlled.mean[:_Y], plain.mean)
        assert np.array_equal(controlled.m2[:_Y], plain.m2)
        mean, se = ensemble._estimate(controlled, 0)
        assert np.array_equal(mean, controlled.mean)
        plain_se = np.sqrt(plain.m2 * (1.0 / (n * (n - 1))))
        assert np.all(np.abs(se[:_Y] - plain_se) <= 2 * np.spacing(plain_se))


@pytest.mark.parametrize("pairs, tier", [(719, 0), (720, 36), (1419, 36), (1420, 71),
                                         (3239, 71), (3240, 162)])
def test_the_tier_switches_at_twenty_pairs_per_control(pairs, tier):
    # a run uses the largest tier whose 20 pairs per control it has completed,
    # read from the completed pair count alone: both sides of each tier
    doc = small_doc(n_traj=2 * pairs, master_seed=2)
    doc["grids"] = {"t_f": 0.5, "n_t": 5, "n_tau": 3}
    assert run_ensemble(parse_config(doc)).n_controls == tier


def test_residual_m2_is_clamped_at_zero():
    # a column that is a control itself leaves a residual M2 of rounding size,
    # negative for some; the estimate clamps it, so no error is NaN
    acc = _pairwise_stats(_synthetic_rows(900, 5), p=_P)
    beta = np.linalg.solve(acc.cross[:, _Y:], np.eye(_P)) @ acc.cross
    raw = acc.m2 - np.einsum("ij,ij->j", beta, acc.cross)
    assert (raw[_Y:] < 0.0).any()
    _, se = ensemble._estimate(acc, _P)
    assert np.isfinite(se).all() and np.all(se[_Y:] >= 0.0)
    assert np.all(se[raw < 0.0] == 0.0)


def test_errors_below_the_threshold_cover_the_scatter_over_seeds():
    # at 700 pairs no control applies; over 40 seeds each element's scatter
    # stays within its mean reported error at every time, which it does only
    # if the errors carry the partition function's own error
    doc = small_doc(n_traj=1400, master_seed=0)
    doc["grids"] = {"t_f": 0.5, "n_t": 11, "n_tau": 9}
    cfg = parse_config(doc)
    pipe = build_pipeline(cfg)
    runs = [run_ensemble(cfg.with_overrides(master_seed=seed), pipeline=pipe)
            for seed in range(40)]
    assert {res.n_controls for res in runs} == {0}
    mean = np.array([res.mean_rho for res in runs])
    scatter = np.hypot(mean.real.std(axis=0, ddof=1), mean.imag.std(axis=0, ddof=1))
    reported = np.mean([res.stderr_rho for res in runs], axis=0)
    assert np.all(scatter <= reported)


def test_run_draws_each_batch_in_one_call(monkeypatch):
    # one draw per batch, keyed by (master_seed, batch index), one row per pair
    # of trajectories: the 5-trajectory last batch draws ceil(5 / 2) = 3 rows,
    # the first 3 rows of a full batch's draw from the same key
    cfg = parse_config(small_doc(n_traj=2 * ensemble.BATCH_SIZE + 5, master_seed=9))
    real_draw = ensemble.draw_normal
    calls, rows = [], []

    def counted(factor, seed, n, **kwargs):
        calls.append((seed, n))
        w = real_draw(factor, seed, n, **kwargs)
        rows.append(w.copy())           # the next block reuses the memory of w
        return w

    monkeypatch.setattr(ensemble, "draw_normal", counted)
    run_ensemble(cfg, workers=1)
    half = ensemble.BATCH_SIZE // 2
    assert calls == [(ensemble.derive_seed(9, b), n) for b, n in enumerate((half, half, 3))]
    full = real_draw(build_pipeline(cfg).factor, ensemble.derive_seed(9, 2), half)
    assert np.array_equal(rows[2], full[:3])


def test_zero_coupling_is_deterministic_unitary():
    doc = small_doc(n_traj=16)
    doc["system"]["couplings"] = [[[0.0, 0.0], [0.0, 0.0]]]
    doc["grids"] = {"t_f": 1.0, "n_t": 41, "n_tau": 41}
    cfg = parse_config(doc)
    res = run_ensemble(cfg)
    assert res.n_failed == 0
    assert np.all(res.se_re == 0.0) and np.all(res.se_im == 0.0)
    h0 = np.array([[0, 0.5], [0.5, 0]], complex)
    gibbs = scipy.linalg.expm(-h0)
    gibbs /= np.trace(gibbs)
    for k, t in enumerate(res.times):
        u = scipy.linalg.expm(-1j * h0 * t)
        assert np.abs(res.mean_rho[k] - u @ gibbs @ u.conj().T).max() < 1e-8
    report = hermiticity_trace_report(res)
    assert report.status == "PASS"
    assert report.max_hermiticity_z == 0.0 and report.max_trace_z == 0.0


def test_mean_rho_starts_at_mean_rho0():
    cfg = parse_config(small_doc(n_traj=64))
    res = run_ensemble(cfg)
    assert np.array_equal(res.mean_rho[0], res.mean_rho0)
    assert abs(np.trace(res.mean_rho0) - 1.0) < 1e-12


def test_worker_count_never_changes_bits():
    cfg = parse_config(small_doc(n_traj=600))
    res1 = run_ensemble(cfg, workers=1)
    res3 = run_ensemble(cfg, workers=3)
    assert np.array_equal(res1.mean_rho, res3.mean_rho)
    assert np.array_equal(res1.se_re, res3.se_re)
    assert np.array_equal(res1.se_im, res3.se_im)
    assert document_bytes(result_document(res1)) == document_bytes(result_document(res3))


def test_batches_merge_in_batch_order(monkeypatch):
    # at workers = 3 batch 0 finishes after the others, and the short last
    # batch runs before it ends; the merge must still take batch 0 first
    cfg = parse_config(small_doc(n_traj=3 * ensemble.BATCH_SIZE + 17))
    ref = document_bytes(result_document(run_ensemble(cfg, workers=1)))
    monkeypatch.setattr(ensemble, "_run_batch", _slow_first)
    assert document_bytes(result_document(run_ensemble(cfg, workers=3))) == ref


def _driven_61x21(n_traj):
    doc = small_doc(n_traj=n_traj, master_seed=13)
    doc["grids"] = {"t_f": 4.0, "n_t": 61, "n_tau": 21}
    t = np.linspace(0.0, 4.0, 61)
    doc["system"]["drives"] = [{"matrix": [[0.0, 1.0], [1.0, 0.0]],
                                "amplitudes": (0.3 * np.sin(2.0 * t)).tolist()}]
    return parse_config(doc)


def test_each_block_runs_once_whatever_the_worker_count(tmp_path, monkeypatch):
    # _run_batch receives each block 0 ... n - 1 exactly once, a short last
    # block included, and the bytes do not depend on the worker count
    cfg = _driven_61x21(3 * ensemble.BATCH_SIZE + 1)
    pipe = build_pipeline(cfg)
    docs = set()
    for workers in (1, 3):
        seen = _Logged(str(tmp_path / f"blocks-{workers}.txt"))
        monkeypatch.setattr(ensemble, "_run_batch", seen)
        res = run_ensemble(cfg, workers=workers, pipeline=pipe)
        assert sorted(int(block) for block in seen.lines()) == [0, 1, 2, 3]
        docs.add(document_bytes(result_document(res)))
    assert len(docs) == 1


def test_a_failed_row_counts_against_its_own_block(monkeypatch):
    # a leg of pair 7 that diverges, in either phase and on either leg, fails
    # that pair: it counts 2 against the block, and every other pair reaches
    # the reduction with the bits it had
    cfg = _driven_61x21(ensemble.BATCH_SIZE)
    pipe = build_pipeline(cfg)
    args = (pipe.system, pipe.factor, cfg)
    reduced = []
    real_stats = ensemble._pairwise_stats
    monkeypatch.setattr(ensemble, "_pairwise_stats",
                        lambda values, *args: reduced.append(values.copy())
                        or real_stats(values, *args))
    ensemble._run_batch(*args, 0)
    clean_inputs = list(reduced)
    half = ensemble.BATCH_SIZE // 2
    for phase in ("equilibrate_batch", "evolve_batch"):
        real_phase = getattr(ensemble, phase)
        for leg in (0, 1):
            # the block's trajectories are the + legs of its pairs, then their - legs
            bad_row = leg * half + 7

            def one_row_diverges(*phase_args, real_phase=real_phase, bad_row=bad_row, **kwargs):
                out, diverged = real_phase(*phase_args, **kwargs)
                out[..., bad_row] = np.nan
                diverged[bad_row] = True
                return out, diverged

            reduced.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ensemble, phase, one_row_diverges)
                out = ensemble._run_batch(*args, 0)
            assert out.n == half - 1            # 2 * (half - out.n) == 2 failed
            assert np.isfinite(out.mean).all() and np.isfinite(out.m2).all()
            # one row per pair, its series, z-factor and residuals: the clean
            # pairs' rows without pair 7
            assert len(reduced) == len(clean_inputs) == 1
            assert np.array_equal(reduced[0], np.delete(clean_inputs[0], 7, axis=0))


def test_a_failed_pair_drops_its_controls(monkeypatch):
    # each reduced row of a run that reaches the top tier ends in the 162
    # controls of its pair's draws; the first pair of the block fails, and its
    # row goes with its controls
    cfg = _driven_61x21(2 * ensemble.PAIRS_PER_CONTROL * _P)
    pipe = build_pipeline(cfg)
    reduced = []
    real_stats = ensemble._pairwise_stats
    monkeypatch.setattr(ensemble, "_pairwise_stats",
                        lambda values, *args: reduced.append(values.copy())
                        or real_stats(values, *args))
    monkeypatch.setattr(ensemble, "evolve_batch", _first_row_diverges)
    out = ensemble._run_batch(pipe.system, pipe.factor, cfg, 0)
    half = ensemble.BATCH_SIZE // 2
    series = ensemble._row_layout(61, 2, _P)[1][0]
    assert out.n == half - 1
    assert out.cross.shape == (_P, reduced[0].shape[1] - 2 * series.start)
    w = draw_normal(pipe.factor, ensemble.derive_seed(13, 0), half)
    q = np.empty((half, _P))
    ensemble._controls(w[:, ensemble._control_columns(pipe.factor)], q)
    assert np.array_equal(reduced[0][:, -_P:], q[1:])


def test_an_odd_number_of_controls_is_padded_with_a_zero():
    # a rank-5 factor gives 5 draws, fewer than K_4 = 6, and 15 + 35 + 35 = 85
    # controls in 43 complex columns in a run that reaches them; the spare real
    # is 0 in every block, also in memory a previous block used, and each tier
    # applies at 20 pairs per control
    doc = small_doc(n_traj=2 * 20 * 85, master_seed=3)
    doc["grids"] = {"t_f": 0.5, "n_t": 3, "n_tau": 2}
    cfg = parse_config(doc)
    pipe = build_pipeline(cfg)
    assert pipe.factor.rank == 5
    args = (pipe.system, pipe.factor, cfg)
    work = Workspace(ensemble.BLOCK_SHARED_MEMORY)
    for block in (0, 1, 0):
        reused = ensemble._run_batch(*args, block, work)
        assert reused.cross.shape[0] == 85 and reused.mean[-86] == 0.0 == reused.m2[-86]
    assert ensemble._hermite_products(5)[1] == (0, 15, 50, 85)
    for tier in (15, 50, 85):
        res = run_ensemble(cfg.with_overrides(n_traj=2 * 20 * tier), pipeline=pipe)
        assert res.n_controls == tier and np.isfinite(res.stderr_rho).all()


def test_control_columns_are_the_largest_takagi_columns():
    # across channels, the 8 columns of largest norm, by norm: on a
    # two-channel factor the rule over each channel's first 8 columns picks
    # the columns that a sort of every column's norm picks
    doc = small_doc()
    doc["system"]["couplings"] = [[[0.6, 0.0], [0.0, -0.6]], [[0.0, 0.3], [0.3, 0.0]]]
    doc["bath"] = {"masses": [1.0, 1.0], "lambda": [[3.5, 0.0], [0.0, 3.3]]}
    factor = build_pipeline(parse_config(doc)).factor
    assert len(factor.a) == 2
    norms = np.concatenate([np.linalg.norm(a, axis=0) for a in factor.a])
    columns = ensemble._control_columns(factor)
    assert np.array_equal(columns, np.argsort(-norms, kind="stable")[:8])
    assert (columns >= factor.a[0].shape[1]).any() and (columns < factor.a[0].shape[1]).any()


@pytest.mark.parametrize("evolve", [_real_evolve_batch, _first_row_diverges],
                         ids=["real-time", "failed-pair"])
def test_reused_arrays_carry_nothing_into_the_next_block(monkeypatch, evolve):
    # one workspace runs blocks 0, 1 and 2, the short last block and block 0
    # again, as a run's blocks do; each gives the bits of a block whose arrays
    # all have memory of their own, so no entry of the sharing map lets two
    # live arrays overlap
    monkeypatch.setattr(ensemble, "evolve_batch", evolve)
    cfg = _driven_61x21(3 * ensemble.BATCH_SIZE + 10)
    pipe = build_pipeline(cfg)
    args = (pipe.system, pipe.factor, cfg)
    work = Workspace(ensemble.BLOCK_SHARED_MEMORY)
    for block in (0, 1, 2, 3, 0):
        reused = ensemble._run_batch(*args, block, work)
        fresh = ensemble._run_batch(*args, block, Workspace())
        pairs = 5 if block == 3 else ensemble.BATCH_SIZE // 2
        assert reused.n == fresh.n == pairs - (evolve is _first_row_diverges)
        assert np.array_equal(reused.mean, fresh.mean) and np.array_equal(reused.m2, fresh.m2)
        assert np.array_equal(reused.cross, fresh.cross)


def test_a_block_allocates_nothing_large_once_the_run_arrays_exist():
    # after the first block of a quick_demo run, a block makes no array larger
    # than a small fraction of one generator window (2.1 MiB here), and the
    # workspace keeps the memory it had.  A scratch array whose memory overlaps
    # an operand of the call that writes it (the synthesis product in the
    # complex draws' or the fields' memory, say) shows here: numpy copies the
    # operand
    cfg = parse_config(json.loads((CONFIGS / "quick_demo.json").read_text()))
    pipe = build_pipeline(cfg)
    args = (pipe.system, pipe.factor, cfg)
    work = Workspace(ensemble.BLOCK_SHARED_MEMORY)
    ensemble._run_batch(*args, 0, work)
    memory = {name: m.ctypes.data for name, m in work._memory.items()}
    tracemalloc.start()
    try:
        ensemble._run_batch(*args, 1, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024
    assert {name: m.ctypes.data for name, m in work._memory.items()} == memory


def test_the_second_leg_runs_on_the_negated_noise(monkeypatch):
    # each block propagates [z; -z]: the second half of every field is the
    # first half negated, bit for bit, and the first half is synthesized from
    # the block's ceil(n / 2) rows
    cfg = parse_config(small_doc(n_traj=ensemble.BATCH_SIZE + 5, master_seed=3))
    pipe = build_pipeline(cfg)
    fields = []
    real_equilibrate, real_evolve = ensemble.equilibrate_batch, ensemble.evolve_batch

    def equilibrate(system, mu, *rest, **kwargs):
        fields.append(("mu", mu.copy()))        # the next block reuses the legs' memory
        return real_equilibrate(system, mu, *rest, **kwargs)

    def evolve(system, eta, nu, *rest, **kwargs):
        fields.extend((("eta", eta.copy()), ("nu", nu.copy())))
        return real_evolve(system, eta, nu, *rest, **kwargs)

    monkeypatch.setattr(ensemble, "equilibrate_batch", equilibrate)
    monkeypatch.setattr(ensemble, "evolve_batch", evolve)
    run_ensemble(cfg, pipeline=pipe)
    assert [f.shape[-1] for _, f in fields] == [ensemble.BATCH_SIZE] * 3 + [6] * 3
    for _, f in fields:
        n = f.shape[-1] // 2
        assert np.array_equal(f[..., n:], -f[..., :n])
    for block, n in enumerate((ensemble.BATCH_SIZE // 2, 3)):
        w = draw_normal(pipe.factor, ensemble.derive_seed(3, block), n)
        synthesized = dict(zip(("eta", "nu", "mu"), synthesize(pipe.factor, w)))
        for name, f in fields[3 * block:3 * block + 3]:
            assert np.array_equal(f[..., :n], synthesized[name])


def test_document_counts_add_up_to_the_trajectories_run(monkeypatch):
    # an odd n_traj runs whole pairs, 3 * 512 + 17 = 1553 runs 1554, and a
    # diverged leg counts its pair's two trajectories as failed: the first row
    # of each of the run's four blocks fails here
    cfg = parse_config(small_doc(n_traj=3 * ensemble.BATCH_SIZE + 17))
    monkeypatch.setattr(ensemble, "evolve_batch", _first_row_diverges)
    doc = result_document(run_ensemble(cfg))
    assert doc["config"]["ensemble"]["n_traj"] == 3 * ensemble.BATCH_SIZE + 17
    assert doc["n_traj"] == 3 * ensemble.BATCH_SIZE + 18
    assert doc["n_failed"] == 2 * 4
    assert doc["n_ok"] + doc["n_failed"] == doc["n_traj"]


def test_at_least_two_pairs_run():
    # n_traj = 3 is the least a config takes, and it runs two pairs; a library
    # call that asks for one pair only is refused after it ran
    with pytest.raises(ValidationError) as err:
        parse_config(small_doc(n_traj=2))
    assert err.value.path == "ensemble.n_traj"
    cfg = parse_config(small_doc(n_traj=3))
    res = run_ensemble(cfg)
    assert (res.n_traj, res.n_ok, res.n_failed) == (4, 4, 0)
    for n_traj in (1, 2):
        with pytest.raises(TooManyFailures, match="fewer than two pairs"):
            run_ensemble(cfg.with_overrides(n_traj=n_traj))


def test_single_worker_runs_batches_on_calling_thread(monkeypatch):
    # at workers = 1 no pool thread (and no malloc arena of its own) is used
    cfg = parse_config(small_doc(n_traj=2 * ensemble.BATCH_SIZE + 5))
    real_batch = ensemble._run_batch
    threads = []

    def recorded(system, factor, run_cfg, block, work=None):
        threads.append(threading.current_thread())
        return real_batch(system, factor, run_cfg, block, work)

    monkeypatch.setattr(ensemble, "_run_batch", recorded)
    run_ensemble(cfg, workers=1)
    assert threads == [threading.main_thread()] * 3


# the complex columns of a pair row on the 11-point grid below, d = 2; the
# statistics hold the real part of column c at 2 * c and its imaginary part next
_RESIDUALS, _SERIES, _ZFAC, _ = (cols for cols, _ in ensemble._row_layout(11, 2, _P))


@pytest.mark.parametrize("corrupt, message", [
    (lambda out: out.m2.__setitem__(2 * (_SERIES.start + 5 * 4 + 1), np.inf), "time index 5"),
    (lambda out: out.mean.__setitem__(slice(2 * _SERIES.start, 2 * _SERIES.start + 8), 0.0),
     "time index 0"),
    (lambda out: out.mean.__setitem__(2 * _ZFAC.start, np.nan), "z-factor"),
    (lambda out: out.m2.__setitem__(2 * (_RESIDUALS.start + 7 * 2 + 1) + 1, np.inf),
     "time index 7"),
], ids=["series_m2_inf", "zero_partition_function", "zfac_mean_nan", "residual_m2_inf"])
def test_non_finite_statistics_raise(tmp_path, monkeypatch, corrupt, message):
    # one batch (n_traj <= BATCH_SIZE) so no merge arithmetic touches the bad
    # value; the message names the time index of a series or residual column
    doc = small_doc(n_traj=64)
    doc["grids"] = {"t_f": 0.5, "n_t": 11, "n_tau": 9}
    real_batch = ensemble._run_batch

    def corrupted(*args):
        out = real_batch(*args)
        corrupt(out)
        return out

    monkeypatch.setattr(ensemble, "_run_batch", corrupted)
    with pytest.raises(NumericalError, match=message):
        run_ensemble(parse_config(doc))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["run", "--config", str(cfg_path), "--output", str(out)]) == 3
    assert not out.exists()


def test_report_scores_each_residual_by_its_own_standard_error(monkeypatch):
    # the entries of one pair mean are correlated, so the report takes the
    # errors of rho - rho^dag and of Tr rho(t) - Tr rho(0) from their values
    # per pair mean, not from the separate errors of the entries
    cfg = _driven_61x21(ensemble.BATCH_SIZE)
    reduced = []
    real_stats = ensemble._pairwise_stats
    monkeypatch.setattr(ensemble, "_pairwise_stats",
                        lambda values, *args: reduced.append(values.copy())
                        or real_stats(values, *args))
    report = hermiticity_trace_report(run_ensemble(cfg))
    cols, shape = ensemble._row_layout(61, 2, _P)[1]
    v = reduced[0].view(complex)[:, cols].reshape(-1, *shape)   # the block's pair means

    def worst_z(residual):
        zs = []
        for part in (residual.real, residual.imag):
            mean = part.mean(axis=0)
            se = part.std(axis=0, ddof=1) / np.sqrt(len(part))
            moved = np.abs(mean) > 1e-12                # exact zeros score 0
            zs.append((np.abs(mean[moved]) / se[moved]).max(initial=0.0))
        return max(zs)

    trace = np.einsum("ptii->pt", v)
    assert report.max_hermiticity_z == pytest.approx(
        worst_z(v - np.conj(np.swapaxes(v, -1, -2))), rel=1e-6)
    assert report.max_trace_z == pytest.approx(worst_z(trace - trace[:, :1]), rel=1e-6)
    assert report.max_hermiticity_z > 0.0 and report.max_trace_z > 0.0


def test_report_residuals_equal_the_direct_computation(monkeypatch):
    # at the top tier the report's residuals equal those of rows that hold
    # every residual with its own co-moments, folded and estimated on one BLAS
    # thread as a run's are: the diagonal ones, read from the series'
    # imaginary parts times 2, bit for bit, and the others, whose co-moments
    # come from the series', to rounding
    cfg = _driven_61x21(2 * 3240)
    reduced = []
    real_stats = ensemble._pairwise_stats
    monkeypatch.setattr(ensemble, "_pairwise_stats",
                        lambda values, *args: reduced.append(values.copy())
                        or real_stats(values, *args))
    res = run_ensemble(cfg)
    assert res.n_controls == _P
    _, (series, shape), _, _ = ensemble._row_layout(61, 2, _P)
    k = 4 * 61          # the direct rows' residual columns: v_00, v_01, v_11 and the trace's
    acc = _Stats.empty((reduced[0].shape[1] + 2 * (k - series.start),), _P)
    with ensemble._one_blas_thread():
        for rows in reduced:
            rows = rows.view(complex)
            v = rows[:, series].reshape(-1, *shape)
            upper = [v[..., i, j] - np.conj(v[..., j, i]) for i in range(2) for j in range(i, 2)]
            trace = np.einsum("ptii->pt", v)
            direct = np.concatenate([np.stack(upper + [trace - trace[:, :1]], axis=-1)
                                     .reshape(len(v), -1), rows[:, series.start:]], axis=1)
            acc = acc.merge(real_stats(direct.view(float), p=_P))
        mean, se = ensemble._estimate(acc, _P)
    scale = abs(1.0 / np.trace(mean.view(complex)[k:2 * k].reshape(shape)[0]))
    want = [a.reshape(-1, 2)[:k].reshape(61, 4, 2) * scale for a in (mean, se)]
    for got, ref in zip((res.residual_mean, res.residual_se), want):
        assert np.array_equal(got[:, [0, 2]], ref[:, [0, 2]])              # diagonal
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_stderr_shrinks_with_more_trajectories():
    cfg = parse_config(small_doc(n_traj=256, master_seed=5))
    res_a = run_ensemble(cfg)
    res_b = run_ensemble(cfg.with_overrides(n_traj=1024))
    ratio = res_b.stderr_rho[1:].mean() / res_a.stderr_rho[1:].mean()
    assert 0.35 <= ratio <= 0.65          # expect ~ 1/2 for 4x trajectories


def test_stationarity_against_oracle():
    cfg = parse_config(small_doc(n_traj=3000, master_seed=31))
    res = run_ensemble(cfg)
    modes = diagonalize_bath(cfg.bath)
    g = mode_couplings(modes, cfg.bath, cfg.system)
    exact = exact_reduced_dynamics(cfg.system, modes, g, TruncatedBath(14), cfg.grids)
    z = np.abs(res.mean_rho - exact) / np.maximum(res.stderr_rho, 1e-30)
    assert z.max() < 5.0, z.max()
    drift = np.abs(res.mean_rho - res.mean_rho[0]) / np.maximum(res.stderr_rho, 1e-30)
    assert drift.max() < 5.0
    report = hermiticity_trace_report(res)
    assert report.status == "PASS"


SIGMA_Z, SIGMA_X = [[1, 0], [0, -1]], [[0, 1], [1, 0]]


@pytest.mark.parametrize("couplings", [[(0.4, SIGMA_Z)], [(0.6, SIGMA_Z), (0.3, SIGMA_X)]],
                         ids=["one-channel", "two-channels"])
def test_results_do_not_depend_on_the_unit_of_action(couplings):
    # one physics in units where the action is hbar: h0 = 0.5 hbar sx, the
    # couplings c sqrt(hbar) G and beta = 1 / hbar give the hbar = 1 run; on
    # two channels, sz and sx, the controls are ranked across channels
    def run(hbar):
        doc = small_doc(n_traj=4000, master_seed=7)
        doc["system"].update(h0=[[0, 0.5 * hbar], [0.5 * hbar, 0]], hbar=hbar, beta=1 / hbar,
                             couplings=[(c * hbar ** 0.5 * np.array(g)).tolist()
                                        for c, g in couplings])
        if len(couplings) == 2:
            doc["bath"] = {"masses": [1.0, 1.0], "lambda": [[3.5, 0.0], [0.0, 3.3]]}
        doc["grids"] = {"t_f": 2.0, "n_t": 41, "n_tau": 21}
        return run_ensemble(parse_config(doc))

    ref = run(1.0)
    for hbar in (1e-8, 1e4):
        res = run(hbar)
        assert np.abs(res.mean_rho - ref.mean_rho).max() <= 1e-12, hbar
        for got, want in ((res.se_re, ref.se_re), (res.se_im, ref.se_im)):
            assert np.all(np.abs(got - want) <= 1e-12 * want), hbar


def test_printed_cross_kernel_breaks_stationarity():
    # Flipping the eta-mu block to -hbar L(t - i tau) makes the average drift
    # visibly from the exact equilibrium; this pins down why the package uses
    # +hbar L(t - i(hbar*beta - tau)).
    doc = small_doc(n_traj=3000, master_seed=31)
    doc["grids"] = {"t_f": 2.0, "n_t": 41, "n_tau": 11}
    cfg = parse_config(doc)
    pipe = build_pipeline(cfg)
    cov = pipe.cov
    grids = cfg.grids
    blk = -k_complex(pipe.ctx, grids.t[:, None], grids.tau[None, :])    # balanced
    sigma = cov.sigma.copy()
    sigma[:, cov.field_slice("eta"), cov.field_slice("mu")] = blk
    sigma[:, cov.field_slice("mu"), cov.field_slice("eta")] = blk.mT
    flipped = NoiseCovariance(sigma=sigma, n_t=cov.n_t, n_tau=cov.n_tau, hbar=cov.hbar)
    res = run_ensemble(cfg, pipeline=dataclasses.replace(
        pipe, cov=flipped, factor=factorize(flipped)))
    modes = diagonalize_bath(cfg.bath)
    g = mode_couplings(modes, cfg.bath, cfg.system)
    exact = exact_reduced_dynamics(cfg.system, modes, g, TruncatedBath(14), cfg.grids)
    z = np.abs(res.mean_rho - exact) / np.maximum(res.stderr_rho, 1e-30)
    assert z.max() > 8.0, z.max()


def test_unequal_masses_match_oracle():
    # with masses (1, 2.5) the site weights are not orthogonal, so the mode
    # factors give another <z z^dagger> than a dense site factor would; the
    # estimator must stay exact all the same
    doc = small_doc(n_traj=2048, master_seed=23)
    doc["system"]["couplings"] = [[[0.3, 0.0], [0.0, -0.3]], [[0.2, 0.0], [0.0, -0.2]]]
    doc["bath"] = {"masses": [1.0, 2.5], "lambda": [[2.0, -0.5], [-0.5, 3.0]]}
    doc["grids"] = {"t_f": 2.0, "n_t": 41, "n_tau": 21}
    cfg = parse_config(doc)
    pipe = build_pipeline(cfg)
    res = run_ensemble(cfg, pipeline=pipe)
    g = mode_couplings(pipe.modes, cfg.bath, cfg.system)
    exact = exact_reduced_dynamics(cfg.system, pipe.modes, g, TruncatedBath(12), cfg.grids)
    z = np.abs(res.mean_rho - exact) / np.maximum(res.stderr_rho, 1e-30)
    assert z.max() < 5.0, z.max()


def test_parallel_modes_share_one_channel_in_the_pipeline():
    # two modes coupling through sigma_z: one operator, one covariance, one factor
    doc = small_doc()
    doc["system"]["couplings"] = [[[0.3, 0.0], [0.0, -0.3]], [[0.2, 0.0], [0.0, -0.2]]]
    doc["bath"] = {"masses": [1.0, 1.0], "lambda": [[2.0, -0.5], [-0.5, 3.0]]}
    pipe = build_pipeline(parse_config(doc))
    g = mode_couplings(pipe.modes, pipe.config.bath, pipe.config.system)
    (op,) = pipe.system.couplings
    assert np.array_equal(op, g[0])
    assert pipe.cov.sigma.shape == (1, pipe.cov.dim, pipe.cov.dim)
    assert len(pipe.factor.a) == 1


def test_mixed_channels_match_oracle():
    # sites 0 and 1 share a sub-bath and couple through sigma_z; site 2 has its
    # own and couples through sigma_x: three modes in two channels, one merged
    doc = small_doc(n_traj=2048, master_seed=29)
    doc["system"]["couplings"] = [[[0.6, 0.0], [0.0, -0.6]], [[0.2, 0.0], [0.0, -0.2]],
                                  [[0.0, 0.3], [0.3, 0.0]]]
    doc["bath"] = {"masses": [1.0, 1.0, 1.0],
                   "lambda": [[3.5, -0.5, 0.0], [-0.5, 3.5, 0.0], [0.0, 0.0, 3.3]]}
    doc["grids"] = {"t_f": 2.0, "n_t": 41, "n_tau": 21}
    cfg = parse_config(doc)
    pipe = build_pipeline(cfg)
    g = mode_couplings(pipe.modes, cfg.bath, cfg.system)
    channels, weights = coupling_channels(g)
    assert len(pipe.system.couplings) == len(channels) == 2
    assert sorted((weights != 0).sum(axis=1).tolist()) == [1, 2]     # g_1 = 0.5 g_0
    res = run_ensemble(cfg, pipeline=pipe)
    exact = exact_reduced_dynamics(cfg.system, pipe.modes, g, TruncatedBath(7), cfg.grids)
    z = np.abs(res.mean_rho - exact) / np.maximum(res.stderr_rho, 1e-30)
    assert z.max() < 5.0, z.max()


def test_merged_channel_matches_one_channel_per_mode():
    # sites coupling through sigma_z with opposite signs: two modes in one
    # channel, g_1 = W g_0 with W near -2.  A run through the merged channel
    # (covariance sum_lam W^2 sigma_lam) must agree with a run through one
    # channel per mode (each mode's own coupling and covariance).  A merged
    # covariance of sum_lam W sigma_lam, which flips mode 1's sign, lies
    # about 30 standard errors off here
    doc = small_doc(n_traj=2048, master_seed=43)
    doc["system"]["couplings"] = [[[0.8, 0.0], [0.0, -0.8]], [[-0.4, 0.0], [0.0, 0.4]]]
    doc["bath"] = {"masses": [1.0, 1.0], "lambda": [[2.0, -0.8], [-0.8, 2.5]]}
    doc["grids"] = {"t_f": 2.0, "n_t": 41, "n_tau": 21}
    cfg = parse_config(doc)
    merged = build_pipeline(cfg)
    g = mode_couplings(merged.modes, cfg.bath, cfg.system)
    _, weights = coupling_channels(g)
    assert weights.shape == (1, 2) and weights[0, 1] < -1.5
    cov = build_covariance(merged.ctx, cfg.grids)
    per_mode = dataclasses.replace(
        merged, system=dataclasses.replace(cfg.system, couplings=tuple(g)), cov=cov,
        factor=factorize(cov))
    a = run_ensemble(cfg, pipeline=merged)
    b = run_ensemble(cfg.with_overrides(master_seed=44), pipeline=per_mode)
    z = np.abs(a.mean_rho - b.mean_rho) / np.sqrt(a.stderr_rho ** 2 + b.stderr_rho ** 2 + 1e-300)
    assert z.max() < 5.0, z.max()


def test_sixteen_mode_bath_stays_stationary():
    # as one dense site covariance, 16 * (2 * 201 + 51) = 7248 would exceed
    # noise.dim_cap = 6000; undriven, the partition-free average must keep
    # its t = 0 value at every t (exact for any bath, so no oracle is needed)
    m = 16
    lam = np.diag(2.0 + 0.1 * np.arange(m))
    for i in range(m - 1):
        lam[i, i + 1] = lam[i + 1, i] = -0.5
    doc = small_doc(n_traj=512, master_seed=16)
    doc["system"]["couplings"] = [[[0.05, 0.0], [0.0, -0.05]]] * m
    doc["bath"] = {"masses": [1.0] * m, "lambda": lam.tolist()}
    doc["grids"] = {"t_f": 2.0, "n_t": 201, "n_tau": 51}
    res = run_ensemble(parse_config(doc))
    assert res.n_failed == 0
    scale = np.sqrt(res.stderr_rho ** 2 + res.stderr_rho[:1] ** 2)
    z = np.abs(res.mean_rho - res.mean_rho[0]) / np.maximum(scale, 1e-30)
    assert z.max() < 5.0, z.max()


def test_driven_dynamics_matches_oracle():
    # a smooth ramp perturbs the equilibrated system; the noise average must
    # track the exact driven reduced dynamics, not just the stationary state
    doc = small_doc(n_traj=3000, master_seed=17)
    doc["grids"] = {"t_f": 2.0, "n_t": 81, "n_tau": 41}
    amps = (0.5 * np.sin(np.pi * np.linspace(0.0, 1.0, 81)) ** 2).tolist()
    doc["system"]["drives"] = [{"matrix": [[0.4, 0.0], [0.0, -0.4]],
                                "amplitudes": amps}]
    cfg = parse_config(doc)
    res = run_ensemble(cfg)
    modes = diagonalize_bath(cfg.bath)
    g = mode_couplings(modes, cfg.bath, cfg.system)
    exact = exact_reduced_dynamics(cfg.system, modes, g, TruncatedBath(12), cfg.grids)
    assert np.abs(exact[-1] - exact[0]).max() > 0.01   # the drive really acts
    z = np.abs(res.mean_rho - exact) / np.maximum(res.stderr_rho, 1e-30)
    assert z.max() < 5.0, z.max()


def test_equilibration_only():
    # the initial state alone is the t = 0 entry of the run that `esln
    # equilibrate` makes, on the config cut to one real-time interval
    cfg = parse_config(small_doc(n_traj=2000, master_seed=9))
    res = run_ensemble(_one_interval(cfg))
    modes = diagonalize_bath(cfg.bath)
    g = mode_couplings(modes, cfg.bath, cfg.system)
    exact = exact_reduced_dynamics(cfg.system, modes, g, TruncatedBath(14), cfg.grids)
    z = np.abs(res.mean_rho0 - exact[0]) / np.maximum(res.stderr_rho[0], 1e-30)
    assert z.max() < 5.0
    assert res.times.tolist() == [0.0, cfg.grids.dt]


def test_too_many_failures_aborts():
    # an absurd coupling amplifies every RK4 step past the overflow threshold
    doc = small_doc(n_traj=64)
    doc["system"]["couplings"] = [[[1e10, 0.0], [0.0, 1e10]]]
    cfg = parse_config(doc)
    with pytest.raises(TooManyFailures):
        run_ensemble(cfg)


def test_hermiticity_report_thresholds():
    base = dict(max_trace_z=0.0, min_eigenvalue=0.0)
    assert HermiticityReport(max_hermiticity_z=1.0, n_ok=10, **base).status == "PASS"
    assert HermiticityReport(max_hermiticity_z=9.0, n_ok=10, **base).status == "INCONCLUSIVE"
    assert HermiticityReport(max_hermiticity_z=9.0, n_ok=10_000, **base).status == "FAIL"


def test_checkpoint_resume_is_bit_identical(tmp_path):
    cfg = parse_config(small_doc(n_traj=600, master_seed=21))
    ref = run_ensemble(cfg)

    ckpt = tmp_path / "state.json"
    first = run_ensemble(cfg, checkpoint_path=str(ckpt))
    assert np.array_equal(first.mean_rho, ref.mean_rho)
    assert ckpt.exists()
    assert _header(ckpt)["next_batch"] == 2     # written after the last of 2 batches too

    # a rerun picks up the finished run's checkpoint, runs no batch, and lands
    # on the same bits as the uninterrupted run (a mid-run resume is
    # test_checkpoint_resumes_mid_run)
    resumed = run_ensemble(cfg, checkpoint_path=str(ckpt))
    assert np.array_equal(resumed.mean_rho, ref.mean_rho)
    assert np.array_equal(resumed.se_re, ref.se_re)
    assert resumed.n_ok == ref.n_ok


@pytest.mark.parametrize("workers, evolve", [(1, _real_evolve_batch), (2, _real_evolve_batch),
                                             (1, _first_row_diverges)],
                         ids=["1", "2", "failed-pairs"])
def test_checkpoint_resumes_mid_run(tmp_path, monkeypatch, workers, evolve):
    # a run killed in its third of four batches resumes from the checkpoint
    # after batch 2, runs exactly batches 2 and 3, and writes the same bytes;
    # with a failed pair in every block, the failures of batches 0 and 1 come
    # back from the checkpoint's pair count
    monkeypatch.setattr(ensemble, "CHECKPOINT_EVERY", 1)
    monkeypatch.setattr(ensemble, "evolve_batch", evolve)
    cfg = parse_config(small_doc(n_traj=4 * ensemble.BATCH_SIZE, master_seed=21))
    uninterrupted = run_ensemble(cfg, workers=workers)
    ref = document_bytes(result_document(uninterrupted))
    counted = _Logged(str(tmp_path / "ran.txt"))

    ckpt = tmp_path / "state.json"
    monkeypatch.setattr(ensemble, "_run_batch", _killed_at_batch_2)
    with pytest.raises(Killed):
        run_ensemble(cfg, workers=workers, checkpoint_path=str(ckpt))
    assert _header(ckpt)["next_batch"] == 2
    monkeypatch.setattr(ensemble, "_run_batch", counted)
    resumed = run_ensemble(cfg, workers=workers, checkpoint_path=str(ckpt))
    ran = [int(batch) for batch in counted.lines()]
    assert sorted(ran) == [2, 3]
    assert resumed.n_failed == uninterrupted.n_failed == (8 if evolve is _first_row_diverges
                                                           else 0)
    assert document_bytes(result_document(resumed)) == ref


def test_controlled_quick_demo_bytes_whatever_the_workers_or_a_resume(tmp_path, monkeypatch):
    # quick_demo at 3,240 pairs uses the top tier of controls; their estimate
    # is solved once after the fold, so the bytes are the same at 1, 2 and 3
    # workers, and a run killed in its third block resumes from its
    # checkpoint to the bytes of the uninterrupted run that settles its fold
    # every block, as it does
    cfg = parse_config(json.loads((CONFIGS / "quick_demo.json").read_text()))
    cfg = cfg.with_overrides(n_traj=2 * 3240)
    pipe = build_pipeline(cfg)
    ref = run_ensemble(cfg, pipeline=pipe)
    assert ref.n_controls == _P and ref.variance_removed_tf > 0.5
    ref_bytes = document_bytes(result_document(ref))
    for workers in (2, 3):
        res = run_ensemble(cfg, workers=workers, pipeline=pipe)
        assert document_bytes(result_document(res)) == ref_bytes
    monkeypatch.setattr(ensemble, "CHECKPOINT_EVERY", 1)
    every_block = document_bytes(result_document(run_ensemble(cfg, pipeline=pipe)))
    ckpt = tmp_path / "state.json"
    monkeypatch.setattr(ensemble, "_run_batch", _killed_at_batch_2)
    with pytest.raises(Killed):
        run_ensemble(cfg, pipeline=pipe, checkpoint_path=str(ckpt))
    monkeypatch.setattr(ensemble, "_run_batch", _real_run_batch)
    resumed = run_ensemble(cfg, workers=2, pipeline=pipe, checkpoint_path=str(ckpt))
    assert document_bytes(result_document(resumed)) == every_block


def test_a_resume_from_the_settled_fold_keeps_the_bytes(tmp_path, monkeypatch):
    # 20 blocks at the shipped constants: the fold settles after blocks 16
    # and 20, where the checkpoints are written, so a run killed in block 18
    # resumes from the fold of 16 blocks, on two workers, to the bytes of the
    # uninterrupted run; the file is its header line and the fold's float64s
    doc = small_doc(n_traj=20 * ensemble.BATCH_SIZE, master_seed=5)
    doc["grids"] = {"t_f": 0.5, "n_t": 5, "n_tau": 3}
    cfg = parse_config(doc)
    pipe = build_pipeline(cfg)
    ref = document_bytes(result_document(run_ensemble(cfg, pipeline=pipe)))
    ckpt = tmp_path / "state.json"
    monkeypatch.setattr(ensemble, "_run_batch", _KilledAt(18))
    with pytest.raises(Killed):
        run_ensemble(cfg, pipeline=pipe, checkpoint_path=str(ckpt))
    header = _header(ckpt)
    assert header["next_batch"] == 16
    width, (p, m) = _checkpoint_sizes(cfg, pipe)
    assert p > 0
    data = ckpt.read_bytes()
    assert len(data) == data.index(b"\n") + 1 + 8 * (4 * width + p * m)
    monkeypatch.setattr(ensemble, "_run_batch", _real_run_batch)
    resumed = run_ensemble(cfg, workers=2, pipeline=pipe, checkpoint_path=str(ckpt))
    assert document_bytes(result_document(resumed)) == ref


def test_checkpoint_bytes_whatever_the_workers(tmp_path):
    # the checkpoint holds the settled fold, a function of block indices
    # alone: its bytes are the same at 1, 2 and 3 workers and on a repeat, and
    # a run writing one leaves the document's bytes alone
    cfg = parse_config(small_doc(n_traj=3 * ensemble.BATCH_SIZE, master_seed=8))
    pipe = build_pipeline(cfg)
    ref = document_bytes(result_document(run_ensemble(cfg, pipeline=pipe)))
    written = set()
    for i, workers in enumerate((1, 2, 3, 1)):
        ckpt = tmp_path / f"state-{i}.json"
        res = run_ensemble(cfg, workers=workers, pipeline=pipe, checkpoint_path=str(ckpt))
        assert document_bytes(result_document(res)) == ref
        written.add(ckpt.read_bytes())
    assert len(written) == 1
    assert _checkpoint_sizes(cfg, pipe)[1][0] == 36


@needs_blas_api
def test_blocks_run_on_one_blas_thread(tmp_path, monkeypatch):
    # every block runs on one BLAS thread, in the calling process and in each
    # worker, and the caller's thread count is back after the run, after a
    # block that raises and after a run nested in a block
    cfg = parse_config(small_doc(n_traj=2 * ensemble.BATCH_SIZE))
    with _at_blas_threads(2):
        for workers in (1, 2):
            seen = _Logged(str(tmp_path / f"threads-{workers}.txt"), _blas_threads)
            monkeypatch.setattr(ensemble, "_run_batch", seen)
            run_ensemble(cfg, workers=workers)
            assert seen.lines() == ["1", "1"]
            assert _blas_threads() == 2
        monkeypatch.setattr(ensemble, "_run_batch", _killed_at_batch_2)
        with pytest.raises(Killed):
            run_ensemble(parse_config(small_doc(n_traj=3 * ensemble.BATCH_SIZE)))
        assert _blas_threads() == 2
        nested = _Nested(str(tmp_path / "nested.txt"), cfg.with_overrides(master_seed=1))
        monkeypatch.setattr(ensemble, "_run_batch", nested)
        run_ensemble(cfg)
        assert Path(nested.log).read_text().split() == ["1"]
        assert _blas_threads() == 2


@needs_blas_api
def test_overlapping_runs_share_one_blas_thread_count():
    # two threads whose uses of _one_blas_thread overlap: the count is 1 from
    # the first entry until the last exit, whichever thread leaves last, and
    # then back at the count before the first
    entered, leave_first = threading.Event(), threading.Event()
    seen = []

    def other():
        with ensemble._one_blas_thread():
            entered.set()
            leave_first.wait(30)
        seen.append(_blas_threads())

    with _at_blas_threads(2):
        worker = threading.Thread(target=other)
        with ensemble._one_blas_thread():
            worker.start()
            assert entered.wait(30)
            assert _blas_threads() == 1
            leave_first.set()
            worker.join(30)
            assert seen == [1] and _blas_threads() == 1
        assert _blas_threads() == 2


@needs_blas_api
def test_one_blas_thread_holds_under_many_overlapping_threads():
    # eight threads, more than the cores, enter and leave _one_blas_thread
    # 200 times each with a short switch interval: inside, every one reads 1,
    # and once all have left the count before them is back; a lost update of
    # the shared count would restore it early or never
    inside, interval = [], sys.getswitchinterval()

    def enter_and_leave():
        for _ in range(200):
            with ensemble._one_blas_thread():
                inside.append(_blas_threads())

    sys.setswitchinterval(1e-6)
    try:
        with _at_blas_threads(2):
            threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert inside == [1] * 1600 and _blas_threads() == 2
    finally:
        sys.setswitchinterval(interval)


def _blas_grid_cfg(n_traj: int):
    """small_doc on a grid whose noise synthesis rounds differently on one
    BLAS thread than on two."""
    doc = small_doc(n_traj=n_traj)
    doc["grids"] = {"t_f": 4.0, "n_t": 61, "n_tau": 21}
    return parse_config(doc)


def test_workers_round_blas_calls_as_the_caller():
    # every block runs on one BLAS thread, in the caller and in the workers,
    # so the bytes are the same at 1 and 2 workers, and one pipeline gives
    # them with the caller on its own count, inside _one_blas_thread or on two
    cfg = _blas_grid_cfg(ensemble.BATCH_SIZE)
    pipe = build_pipeline(cfg)
    ref = document_bytes(result_document(run_ensemble(cfg, pipeline=pipe)))
    assert document_bytes(result_document(run_ensemble(cfg, workers=2, pipeline=pipe))) == ref
    with ensemble._one_blas_thread():
        assert document_bytes(result_document(run_ensemble(cfg, pipeline=pipe))) == ref
    if _blas_api is not None:
        with _at_blas_threads(2):
            assert document_bytes(result_document(run_ensemble(cfg, pipeline=pipe))) == ref


@needs_blas_api
def test_runs_without_a_blas_thread_api_keep_the_bytes_across_workers(tmp_path, monkeypatch):
    # where no thread API is found, one BLAS thread is not set: the caller's
    # blocks run on its count, and a worker, which finds none either (here
    # _AtThreads stands in for it), on the count it starts with, the caller's
    cfg = _blas_grid_cfg(2 * ensemble.BATCH_SIZE)
    pipe = build_pipeline(cfg)
    monkeypatch.setattr(ensemble, "_blas_threads_api", lambda: None)
    with _at_blas_threads(2):
        seen = _Logged(str(tmp_path / "threads.txt"), _blas_threads)
        monkeypatch.setattr(ensemble, "_run_batch", seen)
        ref = document_bytes(result_document(run_ensemble(cfg, pipeline=pipe)))
        assert seen.lines() == ["2", "2"]
        monkeypatch.setattr(ensemble, "_run_batch", _AtThreads(2))
        res = run_ensemble(cfg, workers=2, pipeline=pipe)
    assert document_bytes(result_document(res)) == ref


def test_pool_leaves_no_processes(monkeypatch):
    cfg = parse_config(small_doc(n_traj=3 * ensemble.BATCH_SIZE))
    run_ensemble(cfg, workers=2)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(ensemble, "_run_batch", _killed_at_batch_2)
    with pytest.raises(Killed):
        run_ensemble(cfg, workers=2)
    assert multiprocessing.active_children() == []


def _live_in_session(sid: int) -> list:
    """The pids of the processes of session ``sid`` that have not exited."""
    out = subprocess.run(["ps", "-e", "-o", "pid=,sid=,stat="], capture_output=True,
                         text=True, check=True).stdout
    return [int(pid) for pid, s, stat in (line.split() for line in out.splitlines())
            if int(s) == sid and not stat.startswith("Z")]


@pytest.mark.skipif(shutil.which("ps") is None, reason="needs ps to list a session")
def test_killed_run_leaves_no_worker(tmp_path):
    # a pooled `esln run` killed with SIGKILL (as an out-of-memory kill would
    # end it) takes its workers and the resource tracker with it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_doc(n_traj=10 ** 6)))
    env = dict(os.environ, PYTHONPATH=str(Path(esln.__file__).resolve().parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "esln.cli", "run", "--config", str(cfg),
                             "--workers", "2", "--output", str(tmp_path / "out.json")],
                            env=env, start_new_session=True, stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while len(_live_in_session(proc.pid)) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(_live_in_session(proc.pid)) >= 3, "the two workers never started"
        time.sleep(1.0)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while _live_in_session(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _live_in_session(proc.pid) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def test_pool_starts_one_process_per_remaining_batch(tmp_path, monkeypatch):
    # workers = 4 on a 2-batch run starts 2 processes; a resume with no batch
    # left starts none
    sizes = []

    def spy(*args, max_workers, **kwargs):
        sizes.append(max_workers)
        return ProcessPoolExecutor(*args, max_workers=max_workers, **kwargs)

    cfg = parse_config(small_doc(n_traj=2 * ensemble.BATCH_SIZE, master_seed=21))
    pids = _Logged(str(tmp_path / "pids.txt"), _pid)
    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", spy)
    monkeypatch.setattr(ensemble, "_run_batch", pids)
    ckpt = tmp_path / "state.json"
    run_ensemble(cfg, workers=4, checkpoint_path=str(ckpt))
    assert sizes == [2]
    assert len(pids.lines()) == 2 and len(set(pids.lines())) <= 2
    run_ensemble(cfg, workers=4, checkpoint_path=str(ckpt))
    assert sizes == [2]
    assert len(pids.lines()) == 2


def test_dead_worker_is_a_typed_failure(tmp_path, monkeypatch, capsys):
    # a worker process that dies (os._exit, as an out-of-memory kill would end
    # it) raises WorkerLost naming the first batch not merged, exit 3 on the
    # command line; the checkpoint it leaves resumes to the reference bytes
    monkeypatch.setattr(ensemble, "CHECKPOINT_EVERY", 1)
    doc = small_doc(n_traj=4 * ensemble.BATCH_SIZE, master_seed=21)
    cfg = parse_config(doc)
    ref = document_bytes(result_document(run_ensemble(cfg)))
    ckpt = tmp_path / "state.json"
    monkeypatch.setattr(ensemble, "_run_batch", _DiesAtBatch2(str(ckpt)))
    with pytest.raises(WorkerLost) as err:
        run_ensemble(cfg, workers=2, checkpoint_path=str(ckpt))
    assert "batch 2 and later were not merged" in str(err.value)
    assert _header(ckpt)["next_batch"] == 2
    assert multiprocessing.active_children() == []

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    cli_ckpt = tmp_path / "cli_state.json"
    monkeypatch.setattr(ensemble, "_run_batch", _DiesAtBatch2(str(cli_ckpt)))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out.json"),
                 "--workers", "2", "--checkpoint", str(cli_ckpt)]) == 3
    assert "batch 2" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()

    monkeypatch.setattr(ensemble, "_run_batch", _real_run_batch)
    resumed = run_ensemble(cfg, workers=2, checkpoint_path=str(ckpt))
    assert document_bytes(result_document(resumed)) == ref


def test_script_without_main_guard_fails_instead_of_hanging(tmp_path):
    # each spawned worker re-runs an unguarded script, whose run_ensemble cannot
    # start processes while the worker is still starting, so the worker dies;
    # the caller gets WorkerLost.  quick_demo's noise factor is larger than a
    # pipe buffer, which is what once left the caller blocked for good.
    script = tmp_path / "unguarded.py"
    config = Path(__file__).resolve().parent.parent / "configs" / "quick_demo.json"
    script.write_text("import esln\n"
                      f"cfg = esln.load_config({str(config)!r}).with_overrides(n_traj=512)\n"
                      "esln.run_ensemble(cfg, workers=2)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(esln.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 1
    assert "WorkerLost: a worker process died; batch 0" in done.stderr


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_must_be_positive(workers):
    cfg = parse_config(small_doc(n_traj=64))
    with pytest.raises(ValidationError) as err:
        run_ensemble(cfg, workers=workers)
    assert err.value.path == "workers"


def test_checkpoint_refuses_other_layout(tmp_path):
    # a checkpoint resumes only into the noise streams that wrote it: the same
    # noise factor, bit for bit, the same batch size and the same package version
    cfg = parse_config(small_doc(n_traj=600, master_seed=21))
    ckpt = tmp_path / "state.json"
    run_ensemble(cfg, checkpoint_path=str(ckpt))
    written, payload = _parts(ckpt.read_bytes())
    assert written["layout"]["batch_size"] == ensemble.BATCH_SIZE
    for key, value in (("factor_sha256", "0" * 64), ("batch_size", 128), ("batch_size", 256),
                       ("version", "0.1.0"), ("version", "0.4.0"), ("version", "0.6.0"),
                       ("version", "0.7.0"), ("version", "0.8.0"), ("version", "0.9.0"),
                       ("version", "0.10.0"), ("version", "0.11.0"), ("version", "0.12.0"),
                       ("version", "0.13.0"), ("version", "0.14.0"), ("version", "0.15.0"),
                       (None, None)):
        data = json.loads(json.dumps(written))
        if key is None:
            del data["layout"]                  # written before the layout was recorded
        else:
            data["layout"][key] = value
        ckpt.write_bytes(_joined(data, payload))
        with pytest.raises(ValidationError) as err:
            run_ensemble(cfg, checkpoint_path=str(ckpt))
        assert err.value.path == "checkpoint"
        if key == "version":
            assert f"'version': {value!r}" in err.value.message


def test_a_json_checkpoint_of_0_15_is_refused_by_its_version(tmp_path, capsys):
    # 0.15.0 wrote a checkpoint as one line of JSON, its fold in a "pairs"
    # record; that line is all a header read takes, and its layout's version
    # refuses it, named in the message, in the library and on the command line
    doc = small_doc(n_traj=600, master_seed=21)
    cfg = parse_config(doc)
    ckpt = tmp_path / "state.json"
    run_ensemble(cfg, checkpoint_path=str(ckpt))
    header, payload = _parts(ckpt.read_bytes())
    mean, m2 = np.split(np.frombuffer(payload, "<f8"), 2)     # no controls at 300 pairs
    old = {key: header[key] for key in ("schema", "config", "next_batch", "n_failed")}
    old["layout"] = dict(header["layout"], version="0.15.0")
    old["pairs"] = {"n": header["n"], "mean": mean.tolist(), "m2": m2.tolist(), "cross": [],
                    "pending": []}
    ckpt.write_text(json.dumps(old, sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(ValidationError) as err:
        run_ensemble(cfg, checkpoint_path=str(ckpt))
    assert err.value.path == "checkpoint" and "'version': '0.15.0'" in err.value.message
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out.json"),
                 "--checkpoint", str(ckpt)]) == 2
    assert "'version': '0.15.0'" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_a_fortran_ordered_factor_hashes_as_its_c_ordered_copy():
    # each channel's factor is built in Fortran order, for the synthesis's
    # real operand, and a checkpoint's factor hash reads its values in C
    # order: a C-ordered copy of the same values gives the same layout
    pipe = build_pipeline(parse_config(small_doc()))
    assert all(a.flags.f_contiguous and not a.flags.c_contiguous for a in pipe.factor.a)
    copied = tuple(np.ascontiguousarray(a) for a in pipe.factor.a)
    c_ordered = dataclasses.replace(pipe, factor=dataclasses.replace(pipe.factor, a=copied))
    assert ensemble._layout(c_ordered) == ensemble._layout(pipe)


def _edit(change):
    """A damage that decodes the checkpoint's header, applies ``change`` and
    encodes it again."""
    def damage(data, width, cross_shape):
        header, payload = _parts(data)
        change(header)
        return _joined(header, payload)
    return damage


def _rehashed(change):
    """A damage that writes the arrays ``change`` returns from the payload's
    (mean, m2, cross) in their place, and the SHA-256 of the new payload in
    the header: the size and value checks refuse it, not the digest."""
    def damage(data, width, cross_shape):
        header, payload = _parts(data)
        mean, m2, cross = np.split(np.frombuffer(payload, "<f8").copy(), [2 * width, 4 * width])
        payload = b"".join(np.asarray(a, "<f8").tobytes()
                           for a in change(mean, m2, cross.reshape(cross_shape)))
        header["sha256"] = hashlib.sha256(payload).hexdigest()
        return _joined(header, payload)
    return damage


def _set(a: np.ndarray, index, value) -> np.ndarray:
    a[index] = value
    return a


def _flip_first_payload_byte(data, width, cross_shape):
    """The lowest bit of the first payload byte flipped: the values stay
    finite, and the header keeps the digest of the bytes written."""
    start = data.index(b"\n") + 1
    return data[:start] + bytes([data[start] ^ 1]) + data[start + 1:]


_DAMAGES = {
    "truncated": lambda data, *sizes: data[:len(data) // 2],        # inside the payload
    "truncated-in-header": lambda data, *sizes: data[:data.index(b"\n") // 2],
    "truncated-at-newline": lambda data, *sizes: data[:data.index(b"\n")],
    "flipped-payload-byte": _flip_first_payload_byte,
    "not-an-object": lambda data, *sizes: b"[]\n" + _parts(data)[1],
    "no-digest": _edit(lambda header: header.pop("sha256")),
    "no-series": _rehashed(lambda mean, m2, cross: ()),     # an empty payload
    "three-rows": _rehashed(lambda mean, m2, cross: (mean[:3], m2[:3], cross[:3])),
    "next-batch-negative": _edit(lambda header: header.update(next_batch=-5)),
    "next-batch-past-end": _edit(lambda header: header.update(next_batch=99)),
    "next-batch-string": _edit(lambda header: header.update(next_batch="2")),
    "counts-short-of-batches": _edit(lambda header: header.update(n=5, n_failed=2)),
    # 600 trajectories: 2 * 299.5 + 2 and 2 * -1 + 602 add up, but are no counts
    "n-fractional": _edit(lambda header: header.update(n=299.5, n_failed=2)),
    "n-negative": _edit(lambda header: header.update(n=-1, n_failed=602)),
    "n-failed-bool": _edit(lambda header: header.update(n_failed=False)),
    # a negative M2 would put NaN standard errors into the document, a NaN
    # mean would end the run as a numerical failure
    "m2-negative": _rehashed(lambda mean, m2, cross: (mean, _set(m2, 10, -1.0), cross)),
    "mean-nan": _rehashed(lambda mean, m2, cross: (_set(mean, 11, np.nan), m2, cross)),
    # the controls' co-moments: a row per control of every column from the
    # series on, finite, their own block (the last columns) symmetric; a row
    # that also covers the residuals, as before 0.13.0, is refused
    "no-cross": _rehashed(lambda mean, m2, cross: (mean, m2)),
    "cross-wide": _rehashed(lambda mean, m2, cross: (mean, m2, np.pad(cross, ((0, 0), (8, 0))))),
    "cross-short": _rehashed(lambda mean, m2, cross: (mean, m2, cross[:-1])),
    "cross-narrow": _rehashed(lambda mean, m2, cross: (mean, m2,
                                                       np.delete(cross, 5 * cross.shape[1]))),
    "cross-inf": _rehashed(lambda mean, m2, cross: (mean, m2, _set(cross, (3, 7), np.inf))),
    "cross-not-symmetric": _rehashed(lambda mean, m2, cross: (
        mean, m2, _set(cross, (0, -35), cross[0, -35] + 1.0))),
}


# the damages to the controls' co-moments, which need a run whose rows carry
# controls: 1,440 trajectories reach the 36 quadratic ones
_CONTROL_DAMAGES = {"no-cross", "cross-wide", "cross-short", "cross-narrow", "cross-inf",
                    "cross-not-symmetric"}


@pytest.mark.parametrize("damage", _DAMAGES)
def test_damaged_checkpoint_is_refused(tmp_path, capsys, damage):
    # a torn or malformed checkpoint is a configuration error (exit 2) in the
    # library and on the command line, never a traceback
    n_traj = 2 * ensemble.PAIRS_PER_CONTROL * 36 if damage in _CONTROL_DAMAGES else 600
    doc = small_doc(n_traj=n_traj, master_seed=21)
    cfg = parse_config(doc)
    pipe = build_pipeline(cfg)
    ckpt = tmp_path / "state.json"
    run_ensemble(cfg, pipeline=pipe, checkpoint_path=str(ckpt))
    width, cross_shape = _checkpoint_sizes(cfg, pipe)
    assert cross_shape[0] == (36 if damage in _CONTROL_DAMAGES else 0)
    ckpt.write_bytes(_DAMAGES[damage](ckpt.read_bytes(), width, cross_shape))
    with pytest.raises(ValidationError) as err:
        run_ensemble(cfg, pipeline=pipe, checkpoint_path=str(ckpt))
    assert err.value.path == "checkpoint"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out.json"),
                 "--checkpoint", str(ckpt)]) == 2
    assert "checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_settings_that_fix_no_number_leave_the_bytes_alone(tmp_path):
    # the output paths, the oracle and the covariance cap are not echoed: two
    # runs that differ only there write the same bytes, and a checkpoint
    # written by one resumes under the other
    doc_a = small_doc(n_traj=600, master_seed=21,
                      output={"document": "a.json", "csv": "a.csv"},
                      oracle={"n_levels": 12}, noise={"dim_cap": 100})
    doc_b = small_doc(n_traj=600, master_seed=21, output={"document": "b.json"},
                      oracle={"n_levels": 5, "cap": 64})
    cfg_a, cfg_b = parse_config(doc_a), parse_config(doc_b)
    assert cfg_a.dim_cap != cfg_b.dim_cap
    ref = document_bytes(result_document(run_ensemble(cfg_a)))
    assert document_bytes(result_document(run_ensemble(cfg_b))) == ref
    assert set(json.loads(ref)["config"]) == {"system", "bath", "grids", "ensemble"}
    ckpt = tmp_path / "state.json"
    run_ensemble(cfg_a, checkpoint_path=str(ckpt))
    resumed = run_ensemble(cfg_b, checkpoint_path=str(ckpt))
    assert document_bytes(result_document(resumed)) == ref


def test_package_version_matches_pyproject():
    # the version is part of a checkpoint's layout, so both places must agree
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == esln.__version__


def test_checkpoint_refuses_other_schema(tmp_path):
    cfg = parse_config(small_doc(n_traj=300, master_seed=21))
    ckpt = tmp_path / "state.json"
    run_ensemble(cfg, checkpoint_path=str(ckpt))
    data, payload = _parts(ckpt.read_bytes())
    assert data["schema"] == ensemble.DOCUMENT_SCHEMA + "+checkpoint"
    data["schema"] = "esln-result/1+checkpoint"
    ckpt.write_bytes(_joined(data, payload))
    with pytest.raises(ValidationError) as err:
        run_ensemble(cfg, checkpoint_path=str(ckpt))
    assert err.value.path == "checkpoint"


def test_pipeline_reused_across_seed_and_count_overrides(monkeypatch):
    cfg = parse_config(small_doc(n_traj=64))
    pipe = build_pipeline(cfg)
    run_cfg = cfg.with_overrides(n_traj=32, master_seed=5)
    ref = run_ensemble(run_cfg)
    calls = []
    monkeypatch.setattr(ensemble, "build_pipeline",
                        lambda c: calls.append(c) or build_pipeline(c))
    res = run_ensemble(run_cfg, pipeline=pipe)
    assert calls == []
    assert res.n_traj == 32
    assert document_bytes(result_document(res)) == document_bytes(result_document(ref))
    # a config parsed anew holds new system and bath objects, so it is rebuilt
    run_ensemble(parse_config(small_doc(n_traj=32)), pipeline=pipe)
    assert len(calls) == 1


def test_document_and_csv_roundtrip(tmp_path):
    cfg = parse_config(small_doc(n_traj=64))
    res = run_ensemble(cfg)
    doc_path = tmp_path / "out.json"
    csv_path = tmp_path / "out.csv"
    write_document(res, str(doc_path))
    write_csv(res, str(csv_path))
    doc = json.loads(doc_path.read_text())
    assert doc["n_ok"] == res.n_ok
    mr = np.array(doc["mean_rho"])
    assert np.abs(mr[..., 0] + 1j * mr[..., 1] - res.mean_rho).max() == 0.0
    times, mean, se_re, se_im = read_csv(str(csv_path))
    assert np.array_equal(mean, res.mean_rho)
    assert np.array_equal(se_re, res.se_re)
    max_z, _ = compare_series(str(csv_path), str(csv_path))
    assert max_z == 0.0
