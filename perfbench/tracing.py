"""Per-layer spans recorded from outside the package.

`Tracer.installed()` replaces the module attributes the program calls
through with timing wrappers and puts the originals back on exit.  The
attribute is the one the caller looks up: `cca` imports `gram_matrix` and
`cross_kernel` by name, so those are wrapped on `kcca.cca`; `cli` imports
`gen_sim1`/`gen_sim2` by name, so those are wrapped on `kcca.cli`.  Nothing
under `src/` changes.

A span's self time is its duration minus the time of the spans it directly
encloses.  With `measure_memory`, the spans in MEMORY_SPANS also record
their tracemalloc peak; tracemalloc slows Python-level allocation-heavy
loops about twofold, so timings are never taken from a tracer that
measures memory.
"""

from __future__ import annotations

import contextlib
import importlib
import time
import tracemalloc

# (module, attribute, span name)
WRAPPED = (
    ("kcca.cli", "gen_sim1", "datagen.gen"),
    ("kcca.cli", "gen_sim2", "datagen.gen"),
    ("kcca.cli", "read_dataset", "cli.read_dataset"),
    ("kcca.cli", "write_dataset", "cli.write_dataset"),
    ("kcca.cca", "gram_matrix", "kernels.gram_matrix"),
    ("kcca.cca", "cross_kernel", "kernels.cross_kernel"),
    ("kcca.cca", "build_mln", "cca.build_mln"),
    ("kcca.cca", "fit_kcca", "cca.fit_kcca"),
    ("kcca.cca", "fit_linear_cca", "cca.fit_linear_cca"),
    ("kcca.cca", "project", "cca.project"),
    ("kcca.cca", "project_linear", "cca.project"),
    ("kcca.cca", "correlation_table", "cca.correlation_table"),
    ("kcca.cca", "save_model", "cca.save_model"),
    ("kcca.cca", "load_model", "cca.load_model"),
    ("kcca.linalg", "solve_paired_eig", "linalg.solve_paired_eig"),
    ("kcca.linalg", "cholesky", "linalg.cholesky"),
    ("kcca.linalg", "solve_lower_triangular", "linalg.triangular_solve"),
    ("kcca.linalg", "solve_lower_transposed", "linalg.triangular_solve"),
    ("kcca.linalg", "svd", "linalg.svd"),
)
ROOT_SPAN = "cli"
MEMORY_SPANS = ("cca.fit_kcca", "cca.project")

# metric name -> (span name, "total" or "self")
TIME_METRICS = {
    "datagen.gen_s": ("datagen.gen", "total"),
    "kernels.gram_matrix_s": ("kernels.gram_matrix", "total"),
    "kernels.cross_kernel_s": ("kernels.cross_kernel", "total"),
    "cca.build_mln_s": ("cca.build_mln", "total"),
    "cca.fit_kcca_self_s": ("cca.fit_kcca", "self"),
    "cca.fit_linear_cca_s": ("cca.fit_linear_cca", "total"),
    "cca.project_self_s": ("cca.project", "self"),
    "cca.correlation_table_s": ("cca.correlation_table", "total"),
    "cca.save_model_s": ("cca.save_model", "total"),
    "cca.load_model_s": ("cca.load_model", "total"),
    "linalg.solve_paired_eig_self_s": ("linalg.solve_paired_eig", "self"),
    "linalg.cholesky_s": ("linalg.cholesky", "total"),
    "linalg.triangular_solve_s": ("linalg.triangular_solve", "total"),
    "linalg.svd_s": ("linalg.svd", "total"),
    "cli.read_dataset_s": ("cli.read_dataset", "total"),
    "cli.write_dataset_s": ("cli.write_dataset", "total"),
    "cli.self_s": (ROOT_SPAN, "self"),
}


class Tracer:
    def __init__(self, measure_memory=False):
        self.measure_memory = measure_memory
        self.total = {}
        self.self_time = {}
        self.calls = {}
        self.ok_calls = {}
        self.kernel_entries = 0
        self.peak_bytes = {}
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        frame = [0.0]  # time of the spans this one encloses
        self._stack.append(frame)
        memory = self.measure_memory and name in MEMORY_SPANS and not tracemalloc.is_tracing()
        if memory:
            tracemalloc.start()
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            duration = time.perf_counter() - start
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame[0]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.ok_calls[name] = self.ok_calls.get(name, 0) + ok
        if name.startswith("kernels."):
            shape = getattr(result, "entries", result).shape
            self.kernel_entries += shape[0] * shape[1]
        return result

    def _wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def metrics(self):
        """Per-layer values of everything this tracer recorded."""
        out = {}
        for metric, (span, kind) in TIME_METRICS.items():
            out[metric] = (self.total if kind == "total" else self.self_time).get(span, 0.0)
        calls = self.calls.get("linalg.cholesky", 0)
        out["kernels.entries"] = self.kernel_entries
        out["linalg.cholesky_calls"] = calls
        out["linalg.cholesky_useful_ratio"] = self.ok_calls.get("linalg.cholesky", 0) / calls if calls else 0.0
        return out

    def peaks_mb(self):
        return {f"{span}_peak_mb": self.peak_bytes.get(span, 0) / 1e6 for span in MEMORY_SPANS}
