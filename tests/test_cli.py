import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import esln
from esln.cli import main
from esln.errors import ValidationError

from conftest import small_doc

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tiny_doc(**over):
    doc = small_doc(n_traj=128, master_seed=4)
    doc["grids"] = {"t_f": 0.5, "n_t": 11, "n_tau": 9}
    for key, val in over.items():
        doc[key] = val
    return doc


def test_run_outputs_are_byte_identical_across_workers(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tiny_doc())
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--output", str(out1), "--csv", str(csv1),
                 "--workers", "1"]) == 0
    assert main(["run", "--config", cfg, "--output", str(out2), "--csv", str(csv2),
                 "--workers", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert csv1.read_bytes() == csv2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["schema"] == "esln-result/4"
    assert doc["version"] == esln.__version__
    assert doc["n_ok"] == 128


@pytest.mark.parametrize("n_traj, line", [
    (1438, "controls: 0 used, 0.0% of the worst t_f variance removed"),
    (1440, "controls: 36 used, "),
], ids=["719-pairs", "720-pairs"])
def test_run_prints_the_controls_used(tmp_path, capsys, n_traj, line):
    # from 20 completed pairs per control on, the run says how many controls
    # it used and what share of the worst t_f variance they removed; neither
    # goes into the document
    cfg = write_cfg(tmp_path, tiny_doc(ensemble={"n_traj": n_traj, "master_seed": 4}))
    out = tmp_path / "out.json"
    assert main(["run", "--config", cfg, "--output", str(out)]) == 0
    printed = [text for text in capsys.readouterr().out.splitlines()
               if text.startswith("controls: ")]
    assert len(printed) == 1 and printed[0].startswith(line)
    if n_traj == 1440:
        removed = float(printed[0].split(", ")[1].split("%")[0])
        assert 50.0 < removed < 100.0
    assert "controls" not in out.read_text()


def test_seed_flag_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, tiny_doc())
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["run", "--config", cfg, "--output", str(out1), "--seed", "1"]) == 0
    assert main(["run", "--config", cfg, "--output", str(out2), "--seed", "2"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_equilibrate_reports_mean_initial_density(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tiny_doc())
    assert main(["equilibrate", "--config", cfg, "--n-traj", "256"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rho = np.array(doc["mean_rho0"])
    assert rho.shape == (2, 2, 2)
    trace = rho[0, 0, 0] + rho[1, 1, 0]
    assert trace == pytest.approx(1.0, abs=1e-9)


def test_equilibrate_runs_the_config_cut_to_one_interval(tmp_path, monkeypatch):
    # the cut keeps dt and the tau grid and drops the drives, which act in
    # real time only; its covariance is the full one's on [eta(0), eta(dt),
    # nu(0), nu(dt), mu(tau)], bit for bit
    doc = json.loads((CONFIGS / "quick_demo.json").read_text())
    n_t = doc["grids"]["n_t"]
    doc["system"]["drives"] = [{"matrix": [[0.0, 0.3], [0.3, 0.0]],
                                "amplitudes": np.linspace(0.0, 0.5, n_t).tolist()}]
    run, real_run = [], esln.ensemble.run_ensemble

    def recorded(cfg, **kwargs):
        run.append(cfg)
        return real_run(cfg, **kwargs)

    monkeypatch.setattr(esln.ensemble, "run_ensemble", recorded)
    assert main(["equilibrate", "--config", write_cfg(tmp_path, doc), "--n-traj", "64"]) == 0
    cfg, (cut,) = esln.parse_config(doc), run
    assert cut.grids.n_t == 2 and cut.grids.dt == cfg.grids.dt and cut.system.drive == ()
    assert (cut.grids.n_tau, cut.grids.hbar_beta) == (cfg.grids.n_tau, cfg.grids.hbar_beta)
    keep = np.r_[0, 1, n_t, n_t + 1, 2 * n_t:2 * n_t + cfg.grids.n_tau]
    full = esln.build_pipeline(cfg).cov.sigma
    assert np.array_equal(esln.build_pipeline(cut).cov.sigma, full[:, keep][:, :, keep])


def test_verify_noise_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tiny_doc())
    csv = tmp_path / "blocks.csv"
    assert main(["verify-noise", "--config", cfg, "--samples", "20000",
                 "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "block,row,col,target_re,target_im,empirical_re,empirical_im,z"
    assert any(line.startswith("eta-mu,") for line in lines[1:])
    for line in lines[1:]:
        [float(v) for v in line.split(",")[3:]]          # plain numbers, no np.float64(...)


def test_verify_noise_on_a_bath_with_no_coupling_channel(tmp_path, capsys):
    # no site, no channel: every covariance block and the factor are empty,
    # and each characteristic function is exactly 1
    doc = tiny_doc(bath={"masses": [], "lambda": []})
    doc["system"]["couplings"] = []
    cfg = write_cfg(tmp_path, doc)
    assert main(["verify-noise", "--config", cfg, "--samples", "1000",
                 "--hs-vectors", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert [line.split("|z| = ")[1].split()[0] for line in out.splitlines()
            if "characteristic function vector" in line] == ["0.000"] * 3


def test_kernels_dump(tmp_path):
    cfg = write_cfg(tmp_path, tiny_doc())
    out = tmp_path / "kernels.csv"
    assert main(["kernels", "--config", cfg, "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "i,j,t,l_r,l_i,tau,l_e,l_o"
    assert len(lines) == 1 + 11       # one site pair, max(n_t, n_tau) rows


def test_oracle_and_compare_pass(tmp_path):
    doc = tiny_doc()
    doc["ensemble"]["n_traj"] = 2000
    cfg = write_cfg(tmp_path, doc)
    ens_csv = tmp_path / "ens.csv"
    orc_csv = tmp_path / "orc.csv"
    assert main(["run", "--config", cfg, "--csv", str(ens_csv)]) == 0
    assert main(["oracle", "--config", cfg, "--csv", str(orc_csv),
                 "--n-levels", "12"]) == 0
    assert main(["compare", str(ens_csv), str(orc_csv)]) == 0


def test_compare_fails_on_wrong_reference(tmp_path):
    doc = tiny_doc()
    doc["ensemble"]["n_traj"] = 2000
    cfg = write_cfg(tmp_path, doc)
    wrong = tiny_doc()
    wrong["system"]["couplings"] = [[[1.2, 0.0], [0.0, -1.2]]]
    wrong["system"]["h0"] = [[0.3, 0.5], [0.5, -0.3]]
    cfg_wrong = write_cfg(tmp_path, wrong, name="wrong.json")
    ens_csv = tmp_path / "ens.csv"
    orc_csv = tmp_path / "orc.csv"
    assert main(["run", "--config", cfg, "--csv", str(ens_csv)]) == 0
    assert main(["oracle", "--config", cfg_wrong, "--csv", str(orc_csv),
                 "--n-levels", "12"]) == 0
    assert main(["compare", str(ens_csv), str(orc_csv)]) == 4


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
def test_compare_refuses_a_threshold_that_is_not_finite_and_positive(tmp_path, capsys,
                                                                      threshold):
    # a NaN or infinite threshold would pass any pair of series, a negative
    # one would fail any
    _good_csv(tmp_path)
    good = str(tmp_path / "good.csv")
    assert main(["compare", good, good, "--threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert "--threshold" in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize("t_f", [1.0, 1e-12], ids=["unit", "seconds"])
def test_compare_refuses_grids_of_another_span_in_any_unit(tmp_path, capsys, t_f):
    # the grids 0..t_f and 0..3 t_f differ whatever the unit of time: at
    # t_f = 1e-12, a run in seconds, as at t_f = 1
    mean, se = np.arange(12).reshape(3, 2, 2) * (1.0 + 0.5j), np.ones((3, 2, 2))
    for name, span in (("a", t_f), ("b", 3 * t_f)):
        lines = esln.ensemble.csv_lines(np.linspace(0.0, span, 3), mean, se, se)
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert esln.ensemble.compare_series(a, a)[0] == 0.0
    with pytest.raises(ValidationError, match="time grids differ"):
        esln.ensemble.compare_series(a, b)
    capsys.readouterr()
    assert main(["compare", a, b]) == 2
    assert "time grids differ" in capsys.readouterr().err


def _good_csv(tmp_path) -> list:
    times = np.linspace(0.0, 1.0, 3)
    mean = np.arange(12).reshape(3, 2, 2) * (1.0 + 0.5j)
    lines = list(esln.ensemble.csv_lines(times, mean, np.ones((3, 2, 2)), np.ones((3, 2, 2))))
    (tmp_path / "good.csv").write_text("\n".join(lines) + "\n")
    return lines


def _with_field(line: str, k: int, value: str) -> str:
    parts = line.split(",")
    parts[k] = value
    return ",".join(parts)


_BAD_CSVS = {
    "non-numeric-value": lambda lines: lines[:3] + [_with_field(lines[3], 3, "abc")] + lines[4:],
    "non-numeric-col": lambda lines: lines[:3] + [_with_field(lines[3], 2, "x")] + lines[4:],
    "col-past-d": lambda lines: lines[:4] + [_with_field(lines[4], 2, "2")] + lines[5:],
    "negative-row": lambda lines: lines[:4] + [_with_field(lines[4], 1, "-1")] + lines[5:],
    "missing-entry": lambda lines: lines[:5] + lines[6:],
    "duplicate-entry": lambda lines: lines[:5] + [lines[4]] + lines[6:],
    "nan-mean": lambda lines: lines[:3] + [_with_field(lines[3], 3, "nan")] + lines[4:],
    "inf-se": lambda lines: lines[:3] + [_with_field(lines[3], 5, "inf")] + lines[4:],
}


@pytest.mark.parametrize("damage", _BAD_CSVS.values(), ids=_BAD_CSVS.keys())
def test_compare_refuses_a_malformed_csv(tmp_path, capsys, damage):
    # a field that is no finite number, an index outside [0, d), or a
    # (t, row, col) entry missing or repeated is a configuration error (exit 2),
    # not a traceback or a z-score of nan
    good = _good_csv(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(damage(good)) + "\n")
    assert main(["compare", str(tmp_path / "good.csv"), str(tmp_path / "good.csv")]) == 0
    capsys.readouterr()
    assert main(["compare", str(bad), str(tmp_path / "good.csv")]) == 2
    assert "bad.csv" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    doc = tiny_doc()
    doc["grids"]["n_t"] = 1
    cfg = write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg]) == 2
    assert "grids.n_t" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    good = write_cfg(tmp_path, tiny_doc(), name="good.json")
    assert main(["run", "--config", good, "--seed", "-3"]) == 2
    assert main(["run", "--config", good, "--n-traj", "1"]) == 2
    assert main(["run", "--config", good, "--workers", "-1"]) == 2
    assert main(["equilibrate", "--config", good, "--workers", "0"]) == 2
    assert main(["verify-noise", "--config", good, "--samples", "10"]) == 2
    assert main(["oracle", "--config", good, "--n-levels", "1"]) == 2
    capsys.readouterr()
    # a negative count is refused, not taken as "no check"
    assert main(["verify-noise", "--config", good, "--hs-vectors", "-1"]) == 2
    refused = capsys.readouterr()
    assert "--hs-vectors" in refused.err and refused.out == ""


def test_seed_is_refused_where_no_noise_is_drawn(tmp_path, capsys):
    # kernels and oracle draw nothing, so a seed would fix nothing in them
    cfg = write_cfg(tmp_path, tiny_doc())
    for command in ("kernels", "oracle"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--seed", "5"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def test_non_finite_config_number_exits_2(tmp_path, capsys):
    doc = tiny_doc()
    doc["grids"]["t_f"] = float("nan")
    cfg = write_cfg(tmp_path, doc)
    assert '"t_f": NaN' in Path(cfg).read_text()          # the literal json writes
    assert main(["run", "--config", cfg]) == 2
    assert "grids.t_f" in capsys.readouterr().err


def test_numerical_error_exit_code(tmp_path):
    doc = tiny_doc()
    doc["system"]["couplings"] = [[[1e10, 0.0], [0.0, 1e10]]]
    cfg = write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg]) == 3


def test_output_paths(tmp_path, monkeypatch):
    # the config's output paths resolve against the config file's directory;
    # --output or --csv replaces the config's whole output section
    (tmp_path / "conf").mkdir()
    cfg = write_cfg(tmp_path / "conf", tiny_doc(output={"document": "r.json", "csv": "r.csv"}))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["run", "--config", cfg]) == 0
    assert sorted(p.name for p in (tmp_path / "conf").iterdir()) == ["cfg.json", "r.csv", "r.json"]
    assert main(["run", "--config", cfg, "--output", "only.json"]) == 0
    assert sorted(p.name for p in elsewhere.iterdir()) == ["only.json"]
    assert main(["oracle", "--config", cfg, "--csv", "o.csv", "--n-levels", "12"]) == 0
    assert sorted(p.name for p in elsewhere.iterdir()) == ["o.csv", "only.json"]
    assert len(list((tmp_path / "conf").iterdir())) == 3


def test_run_does_not_mutate_config(tmp_path):
    cfg = write_cfg(tmp_path, tiny_doc())
    before = open(cfg, "rb").read()
    main(["run", "--config", cfg, "--output", str(tmp_path / "o.json")])
    assert open(cfg, "rb").read() == before


def test_checkpoint_flag(tmp_path, capsys):
    # --checkpoint alone writes a checkpoint, and a rerun resumes to the same bytes
    doc = tiny_doc()
    doc["ensemble"]["n_traj"] = 600
    cfg = write_cfg(tmp_path, doc)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    ckpt = tmp_path / "state.ckpt"
    assert main(["run", "--config", cfg, "--output", str(out1),
                 "--checkpoint", str(ckpt)]) == 0
    assert ckpt.exists()
    assert main(["run", "--config", cfg, "--output", str(out2),
                 "--checkpoint", str(ckpt)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the removed checkpoint_interval setting is an unknown key
    doc["ensemble"]["checkpoint_interval"] = 256
    old = write_cfg(tmp_path, doc, name="old.json")
    capsys.readouterr()
    assert main(["run", "--config", old, "--checkpoint", str(ckpt)]) == 2
    assert "ensemble.checkpoint_interval" in capsys.readouterr().err


def test_oracle_without_csv_prints_and_keeps_the_run_csv(tmp_path, capsys):
    # the config's output.csv is the ensemble's file; the oracle writes only
    # to --csv, else to stdout
    cfg = str(tmp_path / "quick_demo.json")
    shutil.copy(CONFIGS / "quick_demo.json", cfg)
    assert main(["run", "--config", cfg, "--n-traj", "64"]) == 0
    before = (tmp_path / "demo_result.csv").read_bytes()
    capsys.readouterr()
    assert main(["oracle", "--config", cfg]) == 0
    assert (tmp_path / "demo_result.csv").read_bytes() == before
    assert capsys.readouterr().out.startswith("t,row,col,")


def test_closed_stdout_exits_1(tmp_path):
    # `esln run ... | head` closes stdout early: exit 1, no configuration error
    doc = json.loads((CONFIGS / "quick_demo.json").read_text())
    del doc["output"]
    cfg = write_cfg(tmp_path, doc)
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(esln.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "esln.cli", "run", "--config", cfg,
                               "--n-traj", "64"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == b""
