import dataclasses
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import esln
from esln import ensemble
from esln import (build_pipeline, diagonalize_bath, exact_reduced_dynamics, factorize,
                  hermiticity_trace_report, k_complex, mode_couplings, parse_config,
                  run_ensemble, TruncatedBath, write_csv, write_document)
from esln.ensemble import (EnsembleResult, HermiticityReport, _pairwise_stats, _Stats,
                           compare_series, document_bytes, read_csv, result_document)
from esln.cli import main
from esln.errors import NumericalError, TooManyFailures, ValidationError
from esln.noise import NoiseCovariance

from conftest import small_doc


def test_pairwise_stats_match_two_pass():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((37, 4)) + 1j * rng.standard_normal((37, 4))
    st = _pairwise_stats(vals)
    assert st.n == 37
    assert np.abs(st.mean - vals.mean(axis=0)).max() < 1e-12
    var_re = vals.real.var(axis=0, ddof=1)
    assert np.abs(st.m2_re / 36 - var_re).max() < 1e-12


def _fold(values, cuts):
    """Chan-fold the two-pass statistics of values split at ``cuts``, in order."""
    acc = _Stats.empty(values.shape[1:])
    for part in np.split(values, cuts):
        acc = acc.merge(_pairwise_stats(part))
    return acc


@settings(max_examples=80)
@given(data=st.data(), n=st.integers(1, 48), t=st.integers(1, 3), d=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), offset=st.floats(-3.0, 3.0),
       spread=st.floats(0.1, 1.0))
def test_stats_fold_under_any_batch_split(data, n, t, d, seed, offset, spread):
    # any consecutive batching folds to the statistics of the whole array, and
    # identical rows keep an M2 of exactly 0 under every split
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    rng = np.random.default_rng(seed)
    shape = (n, t, d, d)
    values = offset + spread * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    folded, whole = _fold(values, cuts), _pairwise_stats(values)
    assert folded.n == whole.n == n
    scale = np.abs(values).max()
    assert np.abs(folded.mean - whole.mean).max() <= 1e-12 * scale
    for got, ref in ((folded.m2_re, whole.m2_re), (folded.m2_im, whole.m2_im)):
        assert np.abs(got - ref).max() <= 1e-12 * max(ref.max(), scale ** 2)
    same = np.broadcast_to(values[0], shape).copy()
    folded = _fold(same, cuts)
    assert np.array_equal(folded.mean, values[0])
    assert np.all(folded.m2_re == 0.0) and np.all(folded.m2_im == 0.0)


def test_run_draws_each_batch_in_one_call(monkeypatch):
    # one draw per batch, keyed by (master_seed, batch index), one row per trajectory
    cfg = parse_config(small_doc(n_traj=2 * ensemble.BATCH_SIZE + 5, master_seed=9))
    real_draw = ensemble.draw_normal
    calls = []

    def counted(factor, seed, n):
        calls.append((seed, n))
        return real_draw(factor, seed, n)

    monkeypatch.setattr(ensemble, "draw_normal", counted)
    run_ensemble(cfg, workers=1)
    assert calls == [(ensemble.derive_seed(9, b), n)
                     for b, n in enumerate((ensemble.BATCH_SIZE, ensemble.BATCH_SIZE, 5))]


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
    real_batch = ensemble._run_batch

    def slow_first(pipe, run_cfg, batch, real_time):
        if batch == 0:
            time.sleep(0.2)
        return real_batch(pipe, run_cfg, batch, real_time)

    monkeypatch.setattr(ensemble, "_run_batch", slow_first)
    assert document_bytes(result_document(run_ensemble(cfg, workers=3))) == ref


def test_single_worker_runs_batches_on_calling_thread(monkeypatch):
    # at workers = 1 no pool thread (and no malloc arena of its own) is used
    cfg = parse_config(small_doc(n_traj=2 * ensemble.BATCH_SIZE + 5))
    real_batch = ensemble._run_batch
    threads = []

    def recorded(*args):
        threads.append(threading.current_thread())
        return real_batch(*args)

    monkeypatch.setattr(ensemble, "_run_batch", recorded)
    run_ensemble(cfg, workers=1)
    assert threads == [threading.main_thread()] * 3


@pytest.mark.parametrize("corrupt, message", [
    (lambda out: out.series.m2_re.__setitem__((5, 0, 1), np.inf), "time index 5"),
    (lambda out: out.series.mean.__setitem__(0, 0.0), "time index 0"),
    (lambda out: setattr(out.zfac, "mean", np.complex128(np.nan)), "z-factor"),
], ids=["series_m2_inf", "zero_partition_function", "zfac_mean_nan"])
def test_non_finite_statistics_raise(tmp_path, monkeypatch, corrupt, message):
    # one batch (n_traj <= BATCH_SIZE) so no merge arithmetic touches the bad value
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
    blk = -pipe.ctx.hbar * k_complex(pipe.ctx, grids.t[:, None], grids.tau[None, :])
    sigma = cov.sigma.copy()
    sigma[:, cov.field_slice("eta"), cov.field_slice("mu")] = blk
    sigma[:, cov.field_slice("mu"), cov.field_slice("eta")] = blk.mT
    flipped = NoiseCovariance(sigma=sigma, n_t=cov.n_t, n_tau=cov.n_tau)
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
    exact = exact_reduced_dynamics(cfg.system, modes, g, TruncatedBath(12),
                                   cfg.grids, drive_substeps=8)
    assert np.abs(exact[-1] - exact[0]).max() > 0.01   # the drive really acts
    z = np.abs(res.mean_rho - exact) / np.maximum(res.stderr_rho, 1e-30)
    assert z.max() < 5.0, z.max()


def test_equilibration_only(tmp_path):
    cfg = parse_config(small_doc(n_traj=2000, master_seed=9))
    res = run_ensemble(cfg, real_time=False)
    modes = diagonalize_bath(cfg.bath)
    g = mode_couplings(modes, cfg.bath, cfg.system)
    exact = exact_reduced_dynamics(cfg.system, modes, g, TruncatedBath(14), cfg.grids)
    z = np.abs(res.mean_rho0 - exact[0]) / np.maximum(res.stderr_rho[0], 1e-30)
    assert z.max() < 5.0
    assert res.times.size == 1
    # only full runs write checkpoints, so this phase can resume none
    with pytest.raises(ValidationError):
        run_ensemble(cfg, real_time=False, checkpoint_path=str(tmp_path / "state.json"))


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
    data = json.loads(ckpt.read_text())
    assert data["next_batch"] == 3          # written after the last of 3 batches too

    # a rerun picks up the finished run's checkpoint, runs no batch, and lands
    # on the same bits as the uninterrupted run (a mid-run resume is
    # test_checkpoint_resumes_mid_run)
    resumed = run_ensemble(cfg, checkpoint_path=str(ckpt))
    assert np.array_equal(resumed.mean_rho, ref.mean_rho)
    assert np.array_equal(resumed.se_re, ref.se_re)
    assert resumed.n_ok == ref.n_ok


class Killed(Exception):
    """Stands in for a run stopped from outside."""


@pytest.mark.parametrize("workers", [1, 2])
def test_checkpoint_resumes_mid_run(tmp_path, monkeypatch, workers):
    # a run killed in its third of four batches resumes from the checkpoint
    # after batch 2, runs exactly batches 2 and 3, and writes the same bytes
    monkeypatch.setattr(ensemble, "CHECKPOINT_EVERY", 1)
    cfg = parse_config(small_doc(n_traj=4 * ensemble.BATCH_SIZE, master_seed=21))
    ref = document_bytes(result_document(run_ensemble(cfg, workers=workers)))
    real_batch = ensemble._run_batch
    ran = []

    def killed_at_batch_2(pipe, run_cfg, batch, real_time):
        if batch == 2:
            raise Killed
        return real_batch(pipe, run_cfg, batch, real_time)

    def counted(pipe, run_cfg, batch, real_time):
        ran.append(batch)
        return real_batch(pipe, run_cfg, batch, real_time)

    ckpt = tmp_path / "state.json"
    monkeypatch.setattr(ensemble, "_run_batch", killed_at_batch_2)
    with pytest.raises(Killed):
        run_ensemble(cfg, workers=workers, checkpoint_path=str(ckpt))
    assert json.loads(ckpt.read_text())["next_batch"] == 2
    monkeypatch.setattr(ensemble, "_run_batch", counted)
    resumed = run_ensemble(cfg, workers=workers, checkpoint_path=str(ckpt))
    assert sorted(ran) == [2, 3]
    assert document_bytes(result_document(resumed)) == ref


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
    written = json.loads(ckpt.read_text())
    assert written["layout"]["batch_size"] == ensemble.BATCH_SIZE
    for key, value in (("factor_sha256", "0" * 64), ("batch_size", 128),
                       ("version", "0.1.0"), (None, None)):
        data = json.loads(json.dumps(written))
        if key is None:
            del data["layout"]                  # written before the layout was recorded
        else:
            data["layout"][key] = value
        ckpt.write_text(json.dumps(data))
        with pytest.raises(ValidationError) as err:
            run_ensemble(cfg, checkpoint_path=str(ckpt))
        assert err.value.path == "checkpoint"


def _edit(change):
    """A damage that decodes the checkpoint, applies ``change`` and encodes it again."""
    def damage(text):
        data = json.loads(text)
        change(data)
        return json.dumps(data)
    return damage


_DAMAGES = {
    "truncated": lambda text: text[:len(text) // 2],
    "not-an-object": lambda text: "[]",
    "no-series": _edit(lambda data: data.pop("series")),
    "three-rows": _edit(lambda data: data["series"].update(
        {key: rows[:3] for key, rows in data["series"].items() if key != "n"})),
    "next-batch-negative": _edit(lambda data: data.update(next_batch=-5)),
    "next-batch-past-end": _edit(lambda data: data.update(next_batch=99)),
    "next-batch-string": _edit(lambda data: data.update(next_batch="2")),
}


@pytest.mark.parametrize("damage", _DAMAGES.values(), ids=_DAMAGES.keys())
def test_damaged_checkpoint_is_refused(tmp_path, capsys, damage):
    # a torn or malformed checkpoint is a configuration error (exit 2) in the
    # library and on the command line, never a traceback
    doc = small_doc(n_traj=600, master_seed=21)
    cfg = parse_config(doc)
    ckpt = tmp_path / "state.json"
    run_ensemble(cfg, checkpoint_path=str(ckpt))
    ckpt.write_text(damage(ckpt.read_text()))
    with pytest.raises(ValidationError) as err:
        run_ensemble(cfg, checkpoint_path=str(ckpt))
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
    data = json.loads(ckpt.read_text())
    assert data["schema"] == ensemble.DOCUMENT_SCHEMA + "+checkpoint"
    data["schema"] = "esln-result/1+checkpoint"
    ckpt.write_text(json.dumps(data))
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
