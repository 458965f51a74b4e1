"""One workload in a fresh process: warm-up, timed rounds, summary file.

Started by run.py, which pins BLAS/OpenMP threads in the environment before
this interpreter starts.  A single in-process caller drives the real CLI
through `kcca.cli.main([...])`, one command at a time (closed loop).  Between
commands it times `calibration.calibrate()`, so that run.py can scale each
timing to a reference machine speed.

    worker.py --summary FILE --t0 T --probe
        import kcca, write {"setup_s": ...} and exit (a set-up sample, started
        by an untraced workload process between its rounds)
    worker.py --summary FILE --t0 T --workload W --seed S --seconds N --trace 0|1
        run the workload in the current directory

T is the launcher's time.monotonic() just before it started this process;
CLOCK_MONOTONIC is shared by all processes, so the set-up time is the
interpreter start plus `import kcca` (numpy and scipy with it).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import kcca.cli  # noqa: E402  (numpy and scipy come with it)
import numpy  # noqa: E402

import workloads as wl  # noqa: E402
from calibration import calibrate  # noqa: E402
from tracing import Tracer  # noqa: E402

READY = time.monotonic()

INPUT_FLAGS = ("--data", "--train", "--test")
OUTPUT_FLAGS = ("--out-train", "--out-test", "--out", "--report", "--plot-dir")
SETUP_PROBES = 16  # fresh-process set-up samples per untraced run
CAL_EVERY_S = 0.03  # one calibration per this much command time ...
CAL_MAX = 8  # ... but at most this many in one gap between commands


def _flag_paths(argv, flags):
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in flags]


def _size(path):
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
    return os.path.getsize(path) if os.path.exists(path) else 0


def _io_paths(argv):
    """(files the command reads, files it writes); --model is written only by fit."""
    model = _flag_paths(argv, ("--model",))
    reads = _flag_paths(argv, INPUT_FLAGS) + (model if argv[0] != "fit" else [])
    writes = _flag_paths(argv, OUTPUT_FLAGS) + (model if argv[0] == "fit" else [])
    return reads, writes


def run_round(experiments, seed, index, tracer=None):
    """Run one round; returns its timings and, when traced, layer metrics."""
    data_seed = wl.dataset_seed(seed, index)
    cmds = []
    for exp in experiments:
        directory = f"r{index:04d}/{exp.name}"
        os.makedirs(directory)
        cmds += [(kind, argv, exp.repeats if kind in wl.REPEATED else 1)
                 for kind, argv in wl.commands(exp, directory, data_seed)]
    out = {"index": index, "ok": True, "traced": tracer is not None,
           "fit_s": 0.0, "eval_s": 0.0, "transform_s": 0.0, "pipeline_s": 0.0}
    bytes_read = bytes_written = 0
    cals, owed = [], 0.0
    for kind, argv, repeats in cmds:
        if tracer is not None:
            reads, writes = _io_paths(argv)
            bytes_read += sum(_size(p) for p in reads)
        t = time.perf_counter()
        try:
            rc = tracer.call("cli", kcca.cli.main, argv) if tracer else kcca.cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a benchmark crash
            traceback.print_exc()
            rc = None
        dt = time.perf_counter() - t
        out["pipeline_s"] += dt / repeats
        if rc != 0:
            print(f"round {index}: `kcca {' '.join(argv)}` returned {rc}", file=sys.stderr)
            out["ok"] = False
            break
        if kind != "simulate":
            out[f"{kind}_s"] += dt / repeats
        if tracer is not None:
            bytes_written += sum(_size(p) for p in writes)
        # Calibrate between commands, in proportion to the time they took.
        owed += dt
        n = min(int(owed / CAL_EVERY_S), CAL_MAX)
        cals += [calibrate() for _ in range(n)]
        owed = owed - n * CAL_EVERY_S if n < CAL_MAX else 0.0
    cals = cals or [calibrate()]
    out["cals"] = cals
    if tracer is not None:
        out["layers"] = dict(tracer.metrics(), **{"cli.bytes_read": bytes_read,
                                                  "cli.bytes_written": bytes_written})
    return out


def setup_probe(index):
    """Set-up time of a fresh interpreter that imports kcca and exits."""
    path = f"probe{index}.json"
    subprocess.run([sys.executable, os.path.abspath(__file__), "--summary", path,
                    "--t0", repr(time.monotonic()), "--probe"], check=True)
    with open(path) as fh:
        return json.load(fh)["setup_s"]


def repeat_eval(experiments, index):
    """Second eval of the round's model, for the byte-identity check."""
    for exp in experiments:
        argv = wl.eval_argv(f"r{index:04d}/{exp.name}", wl.REPORT_AGAIN, wl.PLOTS_AGAIN)
        if kcca.cli.main(argv) != 0:
            return False
    return True


def _is_blas(name):
    return name.startswith("lib") and "blas" in name


def blas_info():
    """BLAS libraries loaded in this process, with their config and thread count."""
    import scipy

    libs = []
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if _is_blas(ln.rsplit("/", 1)[-1])})
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            libs.append(entry)
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
                    break
            if "threads" in entry:
                break
        libs.append(entry)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        numpy_blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode argument
        numpy_blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": numpy_blas, "loaded": libs,
            "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")}}


def run_workload(name, seed, seconds, trace):
    experiments = wl.WORKLOADS[name]
    summary = {"rounds": []}

    # Untimed warm-up of every operation.  In a traced run it also records
    # the tracemalloc peaks, which would distort any timing taken with it.
    warm_tracer = Tracer(measure_memory=True) if trace else None
    if warm_tracer is not None:
        with warm_tracer.installed():
            summary["rounds"].append(run_round(experiments, seed, 0, warm_tracer))
        summary["peaks"] = warm_tracer.peaks_mb()
    else:
        summary["rounds"].append(run_round(experiments, seed, 0))
    summary["rounds"][0]["warmup"] = True
    summary["rounds"][0]["ok"] &= repeat_eval(experiments, 0)

    # Untraced: one round per unit.  Traced: a pair of rounds per unit, one
    # untraced and one traced, in alternating order, so the tracing overhead
    # is measured under the same conditions.
    #
    # An untraced run also takes SETUP_PROBES set-up samples, spread evenly
    # over the timed window between rounds, so that their median sees the
    # same state of the machine as the rounds do.
    probes = SETUP_PROBES if not trace else 0
    samples = summary["setup_samples"] = []

    def probe_until(count):
        while len(samples) < count:
            samples.append(setup_probe(len(samples)))

    index, unit = 1, 0
    start = time.perf_counter()
    while unit == 0 or time.perf_counter() - start < seconds:
        probe_until(min(probes, int((time.perf_counter() - start) * probes / seconds) + 1))
        kinds = (False,) if not trace else ((False, True) if unit % 2 == 0 else (True, False))
        for traced in kinds:
            if traced:
                tracer = Tracer()
                with tracer.installed():
                    summary["rounds"].append(run_round(experiments, seed, index, tracer))
            else:
                summary["rounds"].append(run_round(experiments, seed, index))
            summary["rounds"][-1]["unit"] = unit
            index += 1
        unit += 1
    probe_until(probes)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    summary["blas"] = blas_info()
    return summary


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--summary", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    args = p.parse_args(argv)
    summary = {"setup_s": READY - args.t0}
    if not args.probe:
        summary.update(run_workload(args.workload, args.seed, args.seconds, args.trace))
    with open(args.summary, "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
