"""Command-line interface: configuration in, documents and CSV out.

Subcommands
-----------
run          full pipeline: diagonalise, build noise, propagate, average, write
equilibrate  the config cut to one real-time interval; prints the mean initial density
verify-noise Monte Carlo check of every noise correlation block
kernels      dump kernel tables to CSV for plotting
oracle       exact reduced dynamics of the truncated total system, as CSV
compare      diff two result CSVs (ensemble vs oracle) in stderr units

Exit codes: 0 success, 1 standard output closed early, 2 configuration
error, 3 numerical failure or a lost worker process, 4 comparison failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import ensemble as ens
from .config import RunConfig, load_config
from .errors import ConfigError, EslnError, NumericalError, ValidationError
from .kernels import KernelContext, l_matrix
from .model import diagonalize_bath, mode_couplings
from .noise import BLOCKS, Z_LIMIT, hs_identity_check, verify_empirical
from .oracle import TruncatedBath, exact_reduced_dynamics

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_COMPARISON = 4


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="esln",
                                description="Stochastic open-system dynamics from "
                                            "equilibrated initial conditions")
    sub = p.add_subparsers(dest="command", required=True)

    def add_config(sp, seeded=False):
        sp.add_argument("--config", required=True, help="JSON configuration file")
        if seeded:
            sp.add_argument("--seed", type=int, default=None,
                            help="override ensemble.master_seed")

    run = sub.add_parser("run", help="full two-time Monte Carlo pipeline")
    add_config(run, seeded=True)
    run.add_argument("--n-traj", type=int, default=None, help="override ensemble.n_traj")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes (never affects results)")
    run.add_argument("--output", default=None, help="output document path (see --csv)")
    run.add_argument("--csv", default=None,
                     help="output CSV path; either flag replaces the config's output")
    run.add_argument("--checkpoint", default=None,
                     help=f"checkpoint file, written every {ens.CHECKPOINT_EVERY} blocks "
                          "and after the last; resumed when present")

    eq = sub.add_parser("equilibrate", help="initial state only")
    add_config(eq, seeded=True)
    eq.add_argument("--n-traj", type=int, default=None)
    eq.add_argument("--workers", type=int, default=1, help="worker processes")

    vn = sub.add_parser("verify-noise", help="empirical covariance z-score report")
    add_config(vn, seeded=True)
    vn.add_argument("--samples", type=int, default=100_000)
    vn.add_argument("--hs-vectors", type=int, default=0,
                    help="also check this many random characteristic-function vectors")
    vn.add_argument("--csv", default=None,
                    help="dump every coupling channel's empirical vs target blocks to CSV")

    ker = sub.add_parser("kernels", help="dump kernel tables to CSV")
    add_config(ker)
    ker.add_argument("--output", default=None, help="CSV path (default stdout)")

    orc = sub.add_parser("oracle", help="exact reduced dynamics (truncated bath)")
    add_config(orc)
    orc.add_argument("--csv", default=None, help="CSV path (default stdout)")
    orc.add_argument("--n-levels", type=int, default=None, help="override oracle.n_levels")

    cmp_ = sub.add_parser("compare", help="diff two result CSVs in stderr units")
    cmp_.add_argument("series_a")
    cmp_.add_argument("series_b")
    cmp_.add_argument("--threshold", type=float, default=Z_LIMIT)
    return p


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ValidationError("--seed", "must be >= 0")
        cfg = cfg.with_overrides(master_seed=args.seed)
    if getattr(args, "n_traj", None) is not None:
        if args.n_traj < 3:
            raise ValidationError("--n-traj", "must be >= 3")
        cfg = cfg.with_overrides(n_traj=args.n_traj)
    return cfg


def _outputs(args, cfg: RunConfig):
    """(document, csv) paths: ``--output``/``--csv`` when either is given (they
    replace the config's whole output section), else the config's own, read
    relative to the config file."""
    flags = (args.output, args.csv)
    if any(flags):
        return flags
    base = os.path.dirname(args.config)
    return tuple(path and os.path.join(base, path)
                 for path in (cfg.output_document, cfg.output_csv))


def _write_text(text: str, path: str | None):
    """Write ``text`` to ``path`` and say so, or to stdout when there is no path."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    cfg = _load(args)
    result = ens.run_ensemble(cfg, workers=args.workers, checkpoint_path=args.checkpoint)
    out_doc, out_csv = _outputs(args, cfg)
    if out_doc:
        ens.write_document(result, out_doc)
        print(f"wrote {out_doc}")
    if out_csv:
        ens.write_csv(result, out_csv)
        print(f"wrote {out_csv}")
    report = ens.hermiticity_trace_report(result)
    for line in report.lines():
        print(line)
    print(f"n_ok = {result.n_ok}, n_failed = {result.n_failed}, "
          f"worst stderr = {result.stderr_rho.max():.3e}")
    print(f"controls: {result.n_controls} used, "
          f"{result.variance_removed_tf:.1%} of the worst t_f variance removed")
    if not out_doc and not out_csv:
        sys.stdout.write(ens.document_bytes(ens.result_document(result)).decode())
    return EXIT_OK


def _one_interval(cfg: RunConfig) -> RunConfig:
    """``cfg`` with its real-time grid cut to the first interval, dt unchanged,
    and without the drives, which act in real time only.  The noise covariance
    is the full one's on [eta(0), eta(dt), nu(0), nu(dt), mu(tau)], so the
    initial state rho_bar(hbar*beta) has the same law."""
    return cfg.with_overrides(system=replace(cfg.system, drive=()),
                              grids=replace(cfg.grids, t_f=cfg.grids.dt, n_t=2))


def _cmd_equilibrate(args) -> int:
    cfg = _load(args)
    result = ens.run_ensemble(_one_interval(cfg), workers=args.workers)
    full = ens.result_document(result)      # the initial state is its t = 0
    doc = {"schema": "esln-equilibrate/1", "n_ok": full["n_ok"], "n_failed": full["n_failed"],
           "mean_rho0": full["mean_rho"][0], "stderr_re": full["stderr_re"][0],
           "stderr_im": full["stderr_im"][0], "z_factor": full["z_factor"]}
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return EXIT_OK


def _cmd_verify_noise(args) -> int:
    if args.samples < 100:
        raise ValidationError("--samples", "must be >= 100")
    if args.hs_vectors < 0:
        raise ValidationError("--hs-vectors", "must be >= 0")
    cfg = _load(args)
    pipe = ens.build_pipeline(cfg)
    cov, factor = pipe.cov, pipe.factor
    report = verify_empirical(factor, cov, args.samples, seed=cfg.master_seed)
    for line in report.lines():
        print(line)
    ok = report.passed
    if args.hs_vectors > 0:
        checks = hs_identity_check(cov, factor, n_vectors=args.hs_vectors,
                                   n_samples=args.samples, seed=cfg.master_seed)
        for i, chk in enumerate(checks):
            mark = "ok" if chk.z < Z_LIMIT else "FAIL"
            print(f"  characteristic function vector {i}: |z| = {chk.z:.3f}   {mark}")
            ok = ok and chk.z < Z_LIMIT
    if args.csv:
        # Each coupling channel's own blocks (channels are independent); row
        # and col index channel * n + k within the block.
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("block,row,col,target_re,target_im,empirical_re,empirical_im,z\n")
            for fa, fb in BLOCKS:
                sa, sb = cov.field_slice(fa), cov.field_slice(fb)
                tgt, emp, zs = (x[:, sa, sb] for x in (cov.sigma, report.empirical, report.z))
                _, n_a, n_b = tgt.shape
                for (ch, r, c), t, e, z in zip(np.ndindex(tgt.shape), tgt.ravel().tolist(),
                                               emp.ravel().tolist(), zs.ravel().tolist()):
                    fh.write(f"{fa}-{fb},{ch * n_a + r},{ch * n_b + c},{t.real!r},"
                             f"{t.imag!r},{e.real!r},{e.imag!r},{z!r}\n")
        print(f"wrote {args.csv}")
    if not ok:
        print("verify-noise FAILED")
        return EXIT_COMPARISON
    return EXIT_OK


def _cmd_kernels(args) -> int:
    cfg = _load(args)
    modes = diagonalize_bath(cfg.bath)
    ctx = KernelContext.from_bath(cfg.bath, modes, cfg.system.hbar, cfg.system.beta)
    t = cfg.grids.t
    tau = cfg.grids.tau
    m = modes.n_modes
    l_t = l_matrix(ctx, t=t)                       # L(t) = L^R + i L^I
    l_up = l_matrix(ctx, tau=-tau)                 # L(i tau) = L^e + L^o
    l_down = l_matrix(ctx, tau=tau)                # L(-i tau) = L^e - L^o
    l_r, l_i = l_t.real, l_t.imag
    l_e, l_o = (0.5 * (l_up + l_down)).real, (0.5 * (l_up - l_down)).real
    lines = ["i,j,t,l_r,l_i,tau,l_e,l_o"]
    n_rows = max(t.size, tau.size)
    for i in range(m):
        for j in range(m):
            for k in range(n_rows):
                t_part = (f"{float(t[k])!r},{float(l_r[k, i, j])!r},"
                          f"{float(l_i[k, i, j])!r}") if k < t.size else ",,"
                tau_part = (f"{float(tau[k])!r},{float(l_e[k, i, j])!r},"
                            f"{float(l_o[k, i, j])!r}") if k < tau.size else ",,"
                lines.append(f"{i},{j},{t_part},{tau_part}")
    _write_text("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.n_levels is not None and args.n_levels < 2:
        raise ValidationError("--n-levels", "must be >= 2")
    cfg = _load(args)
    modes = diagonalize_bath(cfg.bath)
    g_ops = mode_couplings(modes, cfg.bath, cfg.system)
    n_levels = args.n_levels if args.n_levels is not None else cfg.oracle_n_levels
    trunc = TruncatedBath(n_levels=n_levels, cap=cfg.oracle_cap)
    series = exact_reduced_dynamics(cfg.system, modes, g_ops, trunc, cfg.grids)
    zeros = np.zeros_like(series, dtype=float)
    lines = ens.csv_lines(cfg.grids.t, series, zeros, zeros)
    _write_text("".join(line + "\n" for line in lines), args.csv)
    return EXIT_OK


def _cmd_compare(args) -> int:
    if not 0 < args.threshold < np.inf:
        raise ValidationError("--threshold", "must be finite and positive")
    max_z, _ = ens.compare_series(args.series_a, args.series_b)
    print(f"max z-score = {max_z:.3f} (threshold {args.threshold:g})")
    if max_z >= args.threshold:
        print("COMPARISON FAILED")
        return EXIT_COMPARISON
    print("PASS")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "equilibrate": _cmd_equilibrate,
    "verify-noise": _cmd_verify_noise,
    "kernels": _cmd_kernels,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()          # a closed stdout fails here, inside the try
        return code
    except BrokenPipeError:
        # the reader went away (``esln run ... | head``): no configuration
        # error.  Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except EslnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
