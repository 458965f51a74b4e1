"""Benchmark of the kcca CLI pipeline: one workload per invocation.

    python3 perfbench/run.py --workload paper_sizes --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout (it imports `src/kcca`, no install
needed).  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the BLAS library, its version and thread count, the round counts and the
timings before they were scaled to the reference machine speed.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
Without `src/kcca` it exits with code 2 and prints no result.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is imported here or in a worker.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from calibration import REFERENCE_S  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TIME_LIMIT_S = 170.0
TIMINGS = ("fit_s", "eval_s", "transform_s", "pipeline_s")
UNITS = {"setup_s": "s", "fit_s": "s", "eval_s": "s", "transform_s": "s",
         "pipeline_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"kernels.entries": "count", "linalg.cholesky_calls": "count",
               "linalg.cholesky_useful_ratio": "ratio", "cli.bytes_read": "bytes",
               "cli.bytes_written": "bytes", "cca.fit_kcca_peak_mb": "MB",
               "cca.project_peak_mb": "MB"}


class BenchError(Exception):
    pass


def start_worker(run_dir, summary, extra, deadline):
    """Run worker.py in a fresh process and return its summary dict."""
    path = os.path.join(run_dir, summary)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--summary", path,
           "--t0", repr(time.monotonic())] + extra
    # A session of its own, so that a timeout also stops its set-up probes.
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker did not finish within {TIME_LIMIT_S:g} s") from None
    if rc != 0:
        raise BenchError(f"worker exited with code {rc}")
    with open(path) as fh:
        return json.load(fh)


def check_rounds(run_dir, experiments, rounds):
    import checks  # numpy and scipy, under the pinned thread count

    failures, checked = [], 0
    for rnd in rounds:
        if not rnd["ok"]:
            continue
        for exp in experiments:
            directory = os.path.join(run_dir, f"r{rnd['index']:04d}", exp.name)
            failures += [f"round {rnd['index']} {exp.name}: {msg}"
                         for msg in checks.check_experiment(directory, exp, rnd.get("warmup", False))]
            checked += 1
    return failures, checked


def end_to_end(summary, timed, setups):
    """Median timings of the run, scaled to the reference machine speed by
    REFERENCE_S over the mean calibration time of the timed rounds."""
    scale = REFERENCE_S / statistics.fmean(c for r in timed for c in r["cals"])
    metrics = {"setup_s": statistics.median(setups) * scale}
    for key in TIMINGS:
        metrics[key] = statistics.median(r[key] for r in timed) * scale
    metrics["peak_rss_mb"] = summary["peak_rss_mb"]
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def unscaled(timed, setups):
    """The same medians before scaling, and the mean calibration time."""
    out = {k: statistics.median(r[k] for r in timed) for k in TIMINGS}
    out["setup_s"] = statistics.median(setups) if setups else None
    cals = [c for r in timed for c in r["cals"]]
    out["calibration_s"] = statistics.fmean(cals)
    out["calibrations"] = len(cals)
    return out


def per_layer(summary, timed):
    traced = [r for r in timed if r["traced"]]
    plain = {r["unit"]: r["pipeline_s"] for r in timed if not r["traced"]}
    # Overhead per pair of adjacent rounds, so that drift of the machine's
    # speed between pairs cancels.
    overheads = [r["pipeline_s"] - plain[r["unit"]] for r in traced if r["unit"] in plain]
    if not overheads:
        raise BenchError("a traced run needs a pair of completed traced and untraced rounds")
    metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    metrics.update(summary["peaks"])
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return {k: {"value": v, "unit": LAYER_UNITS.get(k, "s")} for k, v in metrics.items()}


def run(args):
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        summary = start_worker(run_dir, "summary.json", [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        setups = summary["setup_samples"]
        rounds = summary["rounds"]
        failures, checked = check_rounds(run_dir, wl.WORKLOADS[args.workload], rounds)
        timed = [r for r in rounds if r["ok"] and not r.get("warmup")]
        if not timed:
            raise BenchError("no timed round completed")
        metrics = per_layer(summary, timed) if args.trace else end_to_end(summary, timed, setups)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "timed_rounds": len(timed), "traced_rounds": sum(r["traced"] for r in timed),
            "checked_experiments": checked, "check_failures": len(failures),
            "setup_samples": len(setups), "unscaled": unscaled(timed, setups),
            "blas": summary["blas"]}
    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": len(rounds),
                      "failed": sum(not r["ok"] for r in rounds), "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kcca", "cli.py")):
        print(f"error: {os.path.join(ROOT, 'src', 'kcca')} not found; "
              "run from the root of a kcca source checkout", file=sys.stderr)
        return 2
    try:
        run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
