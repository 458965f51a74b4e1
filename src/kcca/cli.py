"""Command-line surface: simulate, fit, eval, transform.

Exit codes: 0 success, 2 I/O failure, 3 numerical/domain failure, 64 usage
error.  Every failure prints a single line to stderr with a greppable
class prefix: error[usage], error[io] or error[domain].
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import cca
from .datagen import PairedDataset, SimSpec, gen_sim1, gen_sim2
from .errors import InputError, NumericalError
from .kernels import parse_kernel_spec

REPORT_SCHEMA = "kcca-report/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_csv(path, header, fmt, rows):
    """Header line, then `fmt % tuple(row)` per row; floats go through %.17g."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % tuple(row) + "\n" for row in rows)


def write_dataset(path, dataset):
    """CSV with header x1..x{nx},y1..y{ny}[,label], 17-significant-digit floats."""
    x, y = dataset.x, dataset.y
    cols = [f"x{i+1}" for i in range(x.shape[1])] + [f"y{i+1}" for i in range(y.shape[1])]
    fmt = ",".join(["%.17g"] * len(cols))
    rows = np.hstack([x, y]).tolist()
    if dataset.labels is not None:
        cols.append("label")
        fmt += ",%d"
        rows = [row + [label] for row, label in zip(rows, dataset.labels.tolist())]
    _write_csv(path, cols, fmt, rows)


def read_dataset(path):
    # undecodable bytes become U+FFFD, which the header and float checks reject
    with open(path, errors="replace") as fh:
        lines = [ln for ln in (l.strip() for l in fh) if ln]
    if not lines:
        raise UsageError(f"{path}: empty data file")
    header = lines[0].split(",")
    n_x = 0
    while n_x < len(header) and header[n_x] == f"x{n_x+1}":
        n_x += 1
    n_y = 0
    while n_x + n_y < len(header) and header[n_x + n_y] == f"y{n_y+1}":
        n_y += 1
    has_label = header[n_x + n_y :] == ["label"]
    if n_x == 0 or n_y == 0 or (not has_label and len(header) != n_x + n_y):
        raise InputError(f"{path}: unrecognized CSV header {lines[0]!r}")
    rows = lines[1:]
    if not rows:
        raise UsageError(f"{path}: no data rows")
    n_xy = n_x + n_y
    width = n_xy + (1 if has_label else 0)
    # one split of the joined body: once every row has `width` fields, column j is fields[j::width]
    fields = ",".join(rows).split(",")
    try:
        if any(row.count(",") != width - 1 for row in rows):
            raise ValueError
        cols = [np.fromiter(map(float, fields[j::width]), float, len(rows)) for j in range(n_xy)]
        labels = np.fromiter(map(int, fields[n_xy::width]), int, len(rows)) if has_label else None
    except (ValueError, OverflowError):
        raise InputError(f"{path}: {_first_bad_row(rows, width, n_xy)}") from None
    return PairedDataset(x=np.column_stack(cols[:n_x]), y=np.column_stack(cols[n_x:]), labels=labels)


def _first_bad_row(rows, width, n_xy):
    """Describe the first row read_dataset rejects (the header is row 1; blank lines do not count)."""
    for i, row in enumerate(rows, start=2):
        fields = row.split(",")
        try:
            if len(fields) != width:
                raise ValueError(f"has {len(fields)} fields, expected {width}")
            list(map(float, fields[:n_xy]))
            np.fromiter(map(int, fields[n_xy:]), int)
        except (ValueError, OverflowError) as exc:
            return f"row {i} {exc}"


def cmd_simulate(args):
    if args.train < 1 or args.test < 1:
        raise UsageError("--train and --test must be >= 1")
    if args.noise < 0:
        raise UsageError("--noise must be >= 0")
    spec = SimSpec(
        scenario=args.scenario,
        n_train=args.train,
        n_test=args.test,
        noise_std=args.noise,
        seed=args.seed,
    )
    if args.scenario == "sim1":
        train, test, _ = gen_sim1(spec)
    else:
        train, test = gen_sim2(spec)
    write_dataset(args.out_train, train)
    write_dataset(args.out_test, test)
    print(f"wrote {train.n} train rows to {args.out_train}, {test.n} test rows to {args.out_test}")
    return 0


def _resolve_etas(args):
    eta = 1.0 if args.eta is None else args.eta
    return (eta if args.eta1 is None else args.eta1), (eta if args.eta2 is None else args.eta2)


def cmd_fit(args):
    data = read_dataset(args.data)
    if args.method == "kcca":
        eta1, eta2 = _resolve_etas(args)
        config = cca.KccaConfig(
            kernel_x=parse_kernel_spec(args.kernel_x),
            kernel_y=parse_kernel_spec(args.kernel_y),
            eta1=eta1,
            eta2=eta2,
            regularizer=args.reg.replace("-", "_"),
            d=args.components,
            jitter=args.jitter,
        )
        model = cca.fit_kcca(data, config)
        print("lambdas: " + " ".join(f"{v:.6f}" for v in model.lambdas))
    else:
        model = cca.fit_linear_cca(data, d=args.components, ridge=args.ridge)
        print("rhos: " + " ".join(f"{v:.6f}" for v in model.rhos))
    cca.save_model(model, args.model)
    return 0


def _project_split(model, data):
    return cca.project(model, "x", data.x), cca.project(model, "y", data.y)


def _render_bracket_table(train, test):
    d = train.shape[0]
    lines = ["      " + "  ".join(f"{'v' + str(k+1):>12s}" for k in range(d))]
    for j in range(d):
        # a cell that rounds to zero prints unsigned, so round-off cannot flip its sign
        cells = [f"{train[j, k]:.2f} ({test[j, k]:.2f})".replace("-0.00", "0.00") for k in range(d)]
        lines.append(f"u{j+1}:  " + "  ".join(f"{c:>12s}" for c in cells))
    return "\n".join(lines)


def cmd_eval(args):
    model = cca.load_model(args.model)
    train = read_dataset(args.train)
    test = read_dataset(args.test)
    u_tr, v_tr = _project_split(model, train)
    u_te, v_te = _project_split(model, test)
    table_tr = cca.correlation_table(u_tr, v_tr)
    table_te = cca.correlation_table(u_te, v_te)

    doc = cca.model_to_dict(model)
    echo = ("method", "config", "lambdas", "ridge", "rhos")
    report = {key: doc[key] for key in echo if key in doc}
    report["schema"] = REPORT_SCHEMA
    report["train_table"] = table_tr.tolist()
    report["test_table"] = table_te.tolist()
    report["train_diag"] = np.diag(table_tr).tolist()
    report["test_diag"] = np.diag(table_te).tolist()

    print(_render_bracket_table(table_tr, table_te))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.plot_dir:
        _emit_plot_data(args.plot_dir, train, test, (u_tr, v_tr), (u_te, v_te))
    return 0


def _emit_plot_data(plot_dir, train, test, feats_tr, feats_te):
    """Per-component u-v scatter CSVs, train rows then test rows; `order` ranks
    a split's samples by their first x coordinate (the curve's angle rank)."""
    os.makedirs(plot_dir, exist_ok=True)
    u, v = (np.vstack(pair) for pair in zip(feats_tr, feats_te))
    split = ["train"] * train.n + ["test"] * test.n
    order = np.concatenate([np.argsort(np.argsort(s.x[:, 0])) + 1 for s in (train, test)]).tolist()
    for k in range(u.shape[1]):
        rows = zip(u[:, k].tolist(), v[:, k].tolist(), split, order)
        path = os.path.join(plot_dir, f"component_{k+1}.csv")
        _write_csv(path, ["u", "v", "split", "order"], "%.17g,%.17g,%s,%d", rows)


def cmd_transform(args):
    model = cca.load_model(args.model)
    data = read_dataset(args.data)
    points = data.x if args.side == "x" else data.y
    feats = cca.project(model, args.side, points)
    prefix = "u" if args.side == "x" else "v"
    header = [f"{prefix}{k+1}" for k in range(feats.shape[1])]
    _write_csv(args.out, header, ",".join(["%.17g"] * feats.shape[1]), feats.tolist())
    print(f"wrote {feats.shape[0]} rows x {feats.shape[1]} components to {args.out}")
    return 0


def build_parser():
    parser = _Parser(prog="kcca", description="Kernel and linear CCA toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic paired dataset")
    p.add_argument("--scenario", required=True, choices=["sim1", "sim2"])
    p.add_argument("--train", required=True, type=int)
    p.add_argument("--test", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a model on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=["kcca", "linear"], default="kcca")
    p.add_argument("--kernel-x", default="gaussian:sigma=1.0")
    p.add_argument("--kernel-y", default="gaussian:sigma=1.0")
    p.add_argument("--eta", type=float, default=None, help="sets both --eta1 and --eta2")
    p.add_argument("--eta1", type=float, default=None)
    p.add_argument("--eta2", type=float, default=None)
    p.add_argument("--reg", choices=["rkhs", "dual-l2"], default="rkhs")
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="correlation tables for train and test splits")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--plot-dir", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transform", help="project a dataset to canonical features")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--side", required=True, choices=["x", "y"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):  # non-finite results end in one error[domain] line
            return args.func(args)
    except UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 64
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except (InputError, NumericalError) as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
