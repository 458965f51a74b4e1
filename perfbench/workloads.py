"""Workload definitions shared by the benchmark worker and its checkers.

A workload is a tuple of experiments.  One round of a workload runs, for
each experiment, the CLI commands of `commands()` in a fresh directory;
every experiment of a round uses the same dataset seed.  This module
imports neither numpy nor kcca, so the launcher, the worker and the
checkers can all use it.
"""

from __future__ import annotations

from dataclasses import dataclass

LINEAR_RIDGE = 1e-10
REPEATED = ("eval", "transform")

# File names inside one experiment directory.
TRAIN = "train.csv"
TEST = "test.csv"
MODEL = "model.json"
LINEAR_MODEL = "linear.json"
REPORT = "report.json"
PLOTS = "plots"
LINEAR_REPORT = "linear_report.json"
FEATURES = {"x": "features_x.csv", "y": "features_y.csv"}
# Written once per run, by a repeated eval of the warm-up round's model.
REPORT_AGAIN = "report_again.json"
PLOTS_AGAIN = "plots_again"


@dataclass(frozen=True)
class Experiment:
    """One simulate -> fit -> eval -> transform sequence with fixed settings.

    Both kernels are Gaussian with bandwidth `sigma`; `eta` sets eta1 and
    eta2.  The linear baseline is fitted on every experiment; its eval
    runs only where `linear_eval` is set.  The eval and transform commands
    (REPEATED) run `repeats` times in a row, so that a workload whose round
    is one long fit still takes many samples of them; the worker counts
    each of them as 1/`repeats` of a command.
    """

    name: str
    scenario: str
    n_train: int
    n_test: int
    sigma: float
    eta: float
    reg: str = "rkhs"
    d: int = 2
    linear_eval: bool = False
    repeats: int = 1

    @property
    def kernel(self):
        return f"gaussian:sigma={self.sigma!r}"


WORKLOADS = {
    # The paper's two experiments at paper scale.
    "paper_sizes": (
        Experiment("sim1", "sim1", 40, 100, sigma=1.0, eta=1.0, linear_eval=True),
        Experiment("sim2", "sim2", 10, 100, sigma=0.1, eta=0.1),
    ),
    # Dense O(n^3) solve: full SVD, M/L/N assembly, jitter fallback.
    "fit_dense_n2000": (Experiment("sim1", "sim1", 2000, 200, sigma=1.0, eta=1.0, repeats=4),),
}


def dataset_seed(seed, round_index):
    """Dataset seed of one round; round 0 is the untimed warm-up."""
    return seed * 100_000 + round_index


def commands(exp, directory, data_seed):
    """(kind, argv) pairs of one experiment, all files under `directory`."""

    def path(name):
        return f"{directory}/{name}"

    train, test = path(TRAIN), path(TEST)
    cmds = [
        ("simulate", ["simulate", "--scenario", exp.scenario, "--train", str(exp.n_train),
                      "--test", str(exp.n_test), "--seed", str(data_seed),
                      "--out-train", train, "--out-test", test]),
        ("fit", ["fit", "--data", train, "--kernel-x", exp.kernel, "--kernel-y", exp.kernel,
                 "--eta", repr(exp.eta), "--reg", exp.reg, "--components", str(exp.d),
                 "--model", path(MODEL)]),
        ("fit", ["fit", "--data", train, "--method", "linear", "--ridge", repr(LINEAR_RIDGE),
                 "--components", str(exp.d), "--model", path(LINEAR_MODEL)]),
    ]
    for _ in range(exp.repeats):
        cmds.append(("eval", eval_argv(directory, REPORT, PLOTS)))
        if exp.linear_eval:
            cmds.append(("eval", ["eval", "--model", path(LINEAR_MODEL), "--train", train,
                                  "--test", test, "--report", path(LINEAR_REPORT)]))
    for _ in range(exp.repeats):
        for side in ("x", "y"):
            cmds.append(("transform", ["transform", "--model", path(MODEL), "--data", test,
                                       "--side", side, "--out", path(FEATURES[side])]))
    return cmds


def eval_argv(directory, report, plots):
    return ["eval", "--model", f"{directory}/{MODEL}", "--train", f"{directory}/{TRAIN}",
            "--test", f"{directory}/{TEST}", "--report", f"{directory}/{report}",
            "--plot-dir", f"{directory}/{plots}"]
