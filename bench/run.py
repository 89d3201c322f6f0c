"""esln benchmark: cost per accuracy of ``esln run``, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload headline --seed 2718 --seconds 40 --trace 0

``--trace 0`` repeats the library calls ``esln run`` makes (``build_pipeline``,
``run_ensemble``, writing the result document) for ``--seconds`` seconds and
reports the end-to-end metrics as medians over the repetitions.  ``--trace 1``
runs the ensemble untraced at 1 and 2 workers, then makes the same calls once
more with spans around the package's own layer functions (``tracing.py``),
and reports per-layer numbers.  Every run checks the averaged reduced density
matrix against the exact oracle (max z < 5), the diverged fraction (<= 1%)
and that the result document's hash repeats; the last stdout line is one JSON
object.

The seed is the ensemble's master seed, taken modulo 2**64.  Spans (trace
runs) and a record of each result with its environment are written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
Z_LIMIT = 5.0               # acceptance threshold on |mean - exact| / stderr
FAILED_FRAC_LIMIT = 0.01    # the ensemble's own failure budget
TARGET_SE = 1e-3            # accuracy that time_to_accuracy_s extrapolates to


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": threads, "commit": _git_commit()}


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def gate(result, exact) -> tuple[bool, str, float]:
    """The correctness gate: worst |mean_rho - exact| in stderr units below
    Z_LIMIT and at most FAILED_FRAC_LIMIT of the trajectories diverged."""
    z = float((np.abs(result.mean_rho - exact)
               / np.maximum(result.stderr_rho, 1e-30)).max())
    ok = z < Z_LIMIT and result.n_failed <= FAILED_FRAC_LIMIT * result.n_traj
    return ok, (f"gate: max z {z:.3f} < {Z_LIMIT:g}, "
                f"{result.n_failed} of {result.n_traj} trajectories failed"), z


@dataclass
class Outcome:
    metrics: dict               # name -> (value, unit)
    checks: list                # (description, passed)
    attempted: int
    failed: int
    fingerprint: str            # sha256 of the result document
    record: dict = field(default_factory=dict)     # extra fields for the result file
    spans: list = field(default_factory=list)      # trace runs only


# ---------------------------------------------------------------------------
# untraced: what one `esln run` costs

def timed_run(wl, doc_path: Path) -> dict:
    from esln import build_pipeline, run_ensemble
    from esln.ensemble import document_bytes, result_document
    cfg = wl.cfg
    c0 = time.process_time()
    t0 = time.perf_counter()
    pipe = build_pipeline(cfg)
    t1 = time.perf_counter()
    result = run_ensemble(cfg, pipeline=pipe, workers=wl.workers)
    t2 = time.perf_counter()
    data = document_bytes(result_document(result))
    with open(doc_path, "wb") as fh:
        fh.write(data)
    t3 = time.perf_counter()
    return {"setup": t1 - t0, "ensemble": t2 - t1, "document": t3 - t2,
            "wall": t3 - t0, "cpu": time.process_time() - c0,
            "hash": _sha256(data), "result": result}


def end_to_end(wl, seconds: float) -> Outcome:
    from workloads import exact_reference
    doc_path = OUT / f"document-{wl.name}.json"
    deadline = time.perf_counter() + seconds
    reps = []
    while True:
        rep = timed_run(wl, doc_path)
        if reps:
            rep["result"] = None        # identical bytes are checked by hash
        reps.append(rep)
        if time.perf_counter() + median([r["wall"] for r in reps]) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = reps[0]["result"]
    exact, _ = exact_reference(wl.cfg, wl.oracle_full_grid)
    ok, gate_text, _ = gate(result, exact)
    setup = median([r["setup"] for r in reps])
    ensemble = median([r["ensemble"] for r in reps])
    se_tf = float(result.stderr_rho[-1].max())
    metrics = {
        "wall_s": (median([r["wall"] for r in reps]), "s"),
        "setup_s": (setup, "s"),
        "traj_per_s": (result.n_traj / ensemble, "1/s"),
        "time_to_accuracy_s": (setup + ensemble * (se_tf / TARGET_SE) ** 2, "s"),
        "worst_se_tf": (se_tf, "1"),
        "cpu_s": (median([r["cpu"] for r in reps]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "ok_frac": (result.n_ok / result.n_traj, "1"),
    }
    fingerprint = reps[0]["hash"]
    repeat = [r["hash"] == fingerprint for r in reps]
    return Outcome(
        metrics=metrics,
        checks=[(gate_text, ok),
                (f"document hash repeats over {len(reps)} runs", all(repeat))],
        attempted=len(reps), failed=sum(1 for same in repeat if not (same and ok)),
        fingerprint=fingerprint,
        record={"repetitions": [{k: r[k] for k in ("setup", "ensemble", "document",
                                                   "wall", "cpu")} for r in reps]})


# ---------------------------------------------------------------------------
# traced: where the time goes

ENSEMBLE_LAYERS = ("noise.draw", "propagate.imag", "propagate.real", "ensemble.reduce")


def _med(values) -> float:
    return median(values) if values else 0.0


def pipeline_sizes(pipe) -> dict:
    """Sizes of the noise covariance and its factor a (a a^T = sigma), and the
    factor's relative residual.  A figure the pipeline has no array for, say
    a dense sigma, reads 0."""
    cov = getattr(pipe, "cov", None)
    sigma = getattr(cov, "sigma", None)
    factor = pipe.factor
    a = getattr(factor, "a", None)
    residual_rel = 0.0
    if isinstance(sigma, np.ndarray) and isinstance(a, np.ndarray) and sigma.size:
        residual_rel = float(np.abs(a @ a.T - sigma).max() / np.abs(sigma).max())
    return {"cov_dim": getattr(cov, "dim", 0),
            "cov_bytes": sigma.nbytes if isinstance(sigma, np.ndarray) else 0,
            "dim": getattr(factor, "dim", 0), "rank": getattr(factor, "rank", 0),
            "factor_bytes": sum(v.nbytes for v in vars(factor).values()
                                if isinstance(v, np.ndarray)),
            "residual_rel": residual_rel}


def per_layer(wl, seconds: float) -> Outcome:
    from esln import build_pipeline, run_ensemble
    from esln.ensemble import BATCH_SIZE, document_bytes, result_document
    from tracing import Tracer, instrument
    from workloads import exact_reference
    cfg = wl.cfg
    doc_path = OUT / f"document-{wl.name}.json"
    deadline = time.perf_counter() + seconds
    pipe = build_pipeline(cfg)
    tr = Tracer()
    # Each round runs the ensemble untraced at 1 and 2 workers, then makes the
    # calls of one `esln run` again, traced at workers = 1; all three must give
    # the same document bytes.  Interleaving them lets the tracing overhead and
    # the worker speed-up compare runs made under the same machine load.
    untraced = {1: [], 2: []}
    hashes, rounds = [], []
    result = None
    while True:
        t_round = time.perf_counter()
        for workers in (1, 2):
            t0 = time.perf_counter()
            res = run_ensemble(cfg, pipeline=pipe, workers=workers)
            untraced[workers].append(time.perf_counter() - t0)
            hashes.append(_sha256(document_bytes(result_document(res))))
            if result is None:
                result = res
        tr.run = len(rounds)
        with instrument(tr):
            with tr.span("setup"):
                traced_pipe = build_pipeline(cfg)
            with tr.span("ensemble"):
                res = run_ensemble(cfg, pipeline=traced_pipe, workers=1)
            with tr.span("ensemble.document"):
                data = document_bytes(result_document(res))
        del traced_pipe, res
        with open(doc_path, "wb") as fh:
            fh.write(data)
        hashes.append(_sha256(data))
        rounds.append(time.perf_counter() - t_round)
        if time.perf_counter() + median(rounds) > deadline:
            break

    tr.run = len(rounds)
    with tr.span("oracle.exact"):
        exact, oracle_dim = exact_reference(cfg, wl.oracle_full_grid)
    oracle_s = tr.spans[-1].duration
    ok, gate_text, z = gate(result, exact)
    sizes = pipeline_sizes(pipe)

    runs = range(len(rounds))
    self_times = tr.self_times()

    def per_run(name, own=False):
        """Per traced run: summed durations, or self times, of the spans `name`."""
        total = dict.fromkeys(runs, 0.0)
        for s, own_s in zip(tr.spans, self_times):
            if s.name == name and s.run in total:
                total[s.run] += own_s if own else s.duration
        return list(total.values())

    batch_ids = [i for i, s in enumerate(tr.spans) if s.name == "ensemble.batch"]
    in_batch = {i: {} for i in batch_ids}          # batch -> {child name: seconds}
    for s in tr.spans:
        if s.parent in in_batch:
            in_batch[s.parent][s.name] = in_batch[s.parent].get(s.name, 0.0) + s.duration

    def batch_ms(name):
        return _med([c.get(name, 0.0) * 1e3 for c in in_batch.values()])

    batches = [tr.spans[i].duration * 1e3 for i in batch_ids]
    batch_q = quantiles(batches, n=4, method="inclusive") if len(batches) > 1 else [0.0] * 3
    counts = [tr.counts.get(r, {}) for r in runs]
    ens_wall = _med(per_run("ensemble"))
    ens_self = _med(per_run("ensemble", own=True))
    grids = cfg.grids
    metrics = {
        "model.diagonalize_ms": (_med(per_run("model.diagonalize")) * 1e3, "ms"),
        "kernels.eval_ms": (_med(per_run("kernels.eval")) * 1e3, "ms"),
        "kernels.evals": (counts[0].get("kernels.evals", 0), "count"),
        "noise.covariance_ms": (_med(per_run("noise.covariance", own=True)) * 1e3, "ms"),
        "noise.cov_dim": (sizes["cov_dim"], "count"),
        "noise.cov_mb": (sizes["cov_bytes"] / 2 ** 20, "MiB"),
        "noise.takagi_s": (_med(per_run("noise.takagi")), "s"),
        "noise.residual_s": (_med(per_run("noise.factorize", own=True)), "s"),
        "noise.factor_residual_rel": (sizes["residual_rel"], "1"),
        "noise.factor_rank": (sizes["rank"], "count"),
        "noise.factor_mb": (sizes["factor_bytes"] / 2 ** 20, "MiB"),
        "noise.draw_ms": (batch_ms("noise.draw"), "ms"),
        "noise.synth_ms": (_med([self_times[i] * 1e3 for i in batch_ids]), "ms"),
        "noise.synth_gflop": (8.0 * sizes["dim"] * sizes["rank"] * BATCH_SIZE / 1e9, "GFLOP"),
        "propagate.imag_ms": (batch_ms("propagate.imag"), "ms"),
        "propagate.real_ms": (batch_ms("propagate.real"), "ms"),
        "propagate.rk4_steps": (cfg.n_traj * (grids.n_t - 1 + grids.n_tau - 1), "count"),
        "propagate.real_ns_per_traj_step": (
            _med(per_run("propagate.real")) / (cfg.n_traj * (grids.n_t - 1)) * 1e9, "ns"),
        "propagate.diverged_imag": (counts[0].get("propagate.diverged_imag", 0), "count"),
        "propagate.diverged_real": (counts[0].get("propagate.diverged_real", 0), "count"),
        "ensemble.reduce_ms": (batch_ms("ensemble.reduce"), "ms"),
        "ensemble.batch_ms.p50": (batch_q[1], "ms"),
        "ensemble.batch_ms.p75": (batch_q[2], "ms"),
        "ensemble.batch_samples": (len(batches), "count"),
        "ensemble.self_s": (ens_self, "s"),
        "ensemble.traced_s": (ens_wall, "s"),
        "ensemble.trace_overhead_s": (ens_wall - median(untraced[1]), "s"),
        "ensemble.document_ms": (_med(per_run("ensemble.document")) * 1e3, "ms"),
        "ensemble.workers_speedup": (median(untraced[1]) / median(untraced[2]), "x"),
        "ensemble.failed_frac": (result.n_failed / result.n_traj, "1"),
        "oracle.exact_s": (oracle_s, "s"),
        "oracle.dim": (oracle_dim, "count"),
        "oracle.max_z": (z, "1"),
    }
    share = {n: _med(per_run(n)) / ens_wall for n in ENSEMBLE_LAYERS}
    share["noise.synth (batch self time)"] = _med(per_run("ensemble.batch", own=True)) / ens_wall
    # What no layer span covers; the layer shares and this sum to 100%.
    share["ensemble.self"] = ens_self / ens_wall
    repeat = [h == hashes[0] for h in hashes]
    return Outcome(
        metrics=metrics,
        checks=[(gate_text, ok),
                (f"document hash equal at workers 1 and 2 and traced "
                 f"({len(rounds)} rounds)", all(repeat)),
                (f"traced counts repeat over {len(rounds)} rounds",
                 all(c == counts[0] for c in counts))],
        attempted=len(hashes), failed=sum(1 for same in repeat if not (same and ok)),
        fingerprint=hashes[0],
        record={"ensemble_share": share, "traced_counts": counts[0]}, spans=tr.records())


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2718)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "esln" / "__init__.py").is_file():
        print(f"no esln sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = workloads.load(args.workload, ROOT, args.seed)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    out = (per_layer if args.trace else end_to_end)(wl, args.seconds)
    if out.spans:
        with open(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl", "w",
                  encoding="utf-8") as fh:
            for rec in out.spans:
                fh.write(json.dumps(rec) + "\n")
    for name, frac in out.record.get("ensemble_share", {}).items():
        print(f"share of traced ensemble wall: {name} {frac:.1%}")
    print(f"fingerprint {wl.name} seed {args.seed}: sha256 {out.fingerprint}")
    for text, passed in out.checks:
        print(f"check {'PASS' if passed else 'FAIL'}: {text}")
    for name, (value, unit) in out.metrics.items():
        print(f"{name} = {value!r} {unit}")
    correct = all(passed for _, passed in out.checks) and out.failed == 0
    line = {"correct": correct, "attempted": out.attempted, "failed": out.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in out.metrics.items()}}
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "fingerprint": out.fingerprint, **out.record, **line}
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
