"""Command-line front end: every experiment becomes deterministic CSV output.

Each subcommand computes its whole result and returns its artifacts, an
ordered mapping of file name to ``(header, columns)`` or to report text.
Only then does ``main`` create ``--out`` and write a ``manifest.txt`` holding
the fully resolved flag set, derived from the parsed namespace
(``write_manifest``), followed by each artifact. So a data error (exit 2)
writes nothing, and an I/O error (exit 3) may leave the files written before
it. Replaying the manifest (``argv_from_manifest``) reproduces every CSV byte
for byte. The parser validates what it can (counts, seeds, probabilities,
batch sizes) before any input is read. Numbers are serialized with 10
significant digits, missing values as the literal token "NA", lines end
with LF.

CSV is written a bounded chunk of rows at a time: ``write_csv`` takes one
1-D array per column and spells each chunk with one printf template, whose
conversion for a column is chosen by its dtype (``%.10g`` for floats, ``%d``
for integers, ``format_value`` for anything else). ``mcse --input`` parses its file in one bulk ``np.loadtxt``
pass. A file that pass rejects (a whitespace-only line, say) is read again
by the line loop, so the rules and the error messages are those of the
line-by-line reader; one trailing whitespace-only line takes a 10^6-row
``mcse`` run from about 0.95 s to 2.25 s on 2 vCPUs. An input with fewer
than 10 values is a data error like any other:
``error: insufficient samples: need at least 10, got N``.

Exit codes: 0 success, 1 usage error, 2 data/domain error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import ctypes
import functools
import itertools
import math
import os
import sys
import warnings
from typing import Optional, Sequence

import numpy as np

from .diagnostics import (
    acf,
    kde_1d,
    kde_2d,
    rb_marginal_mu,
    rb_second_moment,
    running_mcse,
    running_mean,
    running_quantile_se,
    running_quantiles,
)
from .distributions import t_quantiles
from .mcse import MIN_SAMPLES, _batch_count, ci_mean, ci_quantiles, quantiles_type1
from .rng import Rng
from .samplers import Ar1Params, Ar1Source, NormalPosteriorParams, ar1_run, nv_gibbs_run, tda_run
from .stopping import StoppingConfig, fixed_width_mean, fixed_width_quantiles

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3

# confidence machinery in the running/interval columns uses the one-sided
# t level 0.9, i.e. two-sided 80% intervals
_RUNNING_LEVEL = 0.9

_TRANSFORMS = {"id": None, "square": np.square}
_BATCH_RULES = ("sqroot", "cuberoot")

_KDE2D_LIMS = (-1.5, 3.5, 1.0, 15.0)
_RB_GRID = (-3.0, 4.0, 701)

_POOL_MIN_REPLICATIONS = 16

# glibc's mallopt parameters (malloc.h) and the values the CLI sets: blocks
# below 32 MiB come from the heap, and up to 64 MiB of free heap top stays
# mapped. 32 MiB is the 64-bit ceiling of glibc's own sliding threshold, and
# older glibc rejects more. The stopping kernels' temporaries are at most
# about 1 MiB.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOPT_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))

# rows formatted and written per step: the per-chunk work is already negligible
# at this size, and larger chunks only raise peak memory (1024 rows of the
# 10-column running.csv add about 2 MB to an ar1 run)
_WRITE_CHUNK_ROWS = 128


def _keep_freed_heap() -> tuple:
    """Keep freed heap pages in this process, where the C library has mallopt.

    By default glibc returns the heap top to the system whenever a stopping
    check frees its numpy temporaries, so the next check faults and zeroes
    those pages again. Fixed thresholds keep them for reuse. Returns what
    each mallopt call returned (1 where glibc took the value), or () where
    there is no mallopt (macOS, Windows).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return ()
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return tuple(mallopt(param, value) for param, value in _MALLOPT_SETTINGS)


# serialization helpers ------------------------------------------------------


def _tag(p: float) -> str:
    """Probability ``p`` as it names columns and report keys: 6 significant digits."""
    return f"{p:g}"


def format_value(v) -> str:
    if v is None:
        return "NA"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return "NA"
    return f"{f:.10g}"


def _cell_format(column) -> str:
    # the printf conversion that spells a column's cells as format_value does, NaN aside
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    return "%.10g" if kind == "f" else "%d" if kind in ("i", "u") else "%s"


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns (1-D arrays or sequences) as CSV rows under ``header``.

    One printf template per file spells a row: ``%.10g`` for float arrays,
    ``%d`` for integer arrays, and ``%s`` of ``format_value`` for anything
    else. Each chunk of rows is one ``%`` of the template repeated per row;
    ``%g`` spells NaN ``nan``, which no other cell contains, so one replace
    turns it into ``NA``.
    """
    n = len(columns[0]) if len(columns) else 0
    if any(len(column) != n for column in columns):
        raise ValueError(f"columns of {path} differ in length: {[len(c) for c in columns]}")
    formats = [_cell_format(column) for column in columns]
    row = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _WRITE_CHUNK_ROWS):
            stop = min(start + _WRITE_CHUNK_ROWS, n)
            cells = [column[start:stop].tolist() if spec != "%s" else [format_value(v) for v in column[start:stop]]
                     for column, spec in zip(columns, formats)]
            fh.write((row * (stop - start) % tuple(itertools.chain.from_iterable(zip(*cells)))).replace("nan", "NA"))


def _manifest_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ",".join(repr(float(p)) for p in v)
    return str(v)


def write_manifest(args) -> None:
    """Create ``args.out`` and record the run's flags in its ``manifest.txt``.

    ``command=`` comes first, then every option of the namespace that has a
    value, in the parser's declaration order (argparse sets the defaults in
    that order before it parses).
    """
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "manifest.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"command={args.command}\n")
        for key, value in vars(args).items():
            if key not in ("command", "func") and value is not None:
                fh.write(f"{key}={_manifest_value(value)}\n")


def argv_from_manifest(path: str, out: Optional[str] = None) -> list[str]:
    """Rebuild the argv of a recorded run, optionally redirecting --out.

    Each recorded key is looked up among the recorded subcommand's own
    parser actions. A flag that takes no value (``store_true``) replays as
    its option string when recorded ``true`` and as nothing when ``false``;
    every other option replays as one ``--name=value`` token, so a value that
    starts with a dash or reads ``true`` stays a value. Values are taken as
    written, with only the line end removed. A command or key the parser
    does not know raises ValueError.
    """
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        lines = [line.removesuffix("\n") for line in fh]
    key, _, command = (lines or [""])[0].partition("=")
    if key != "command":
        raise ValueError(f"manifest {path} has no command line")
    commands = next(action for action in build_parser()._actions if action.dest == "command").choices
    if command not in commands:
        raise ValueError(f"manifest {path}: unknown command {command!r}")
    actions = {action.dest: action for action in commands[command]._actions if action.option_strings}
    argv = [command]
    for key, _, value in (line.partition("=") for line in lines[1:]):
        if key not in actions:
            raise ValueError(f"manifest {path}: unknown option {key!r} for {command}")
        flag = actions[key].option_strings[-1]
        if actions[key].nargs != 0:
            argv.append(f"{flag}={out if key == 'out' and out is not None else value}")
        elif value == "true":
            argv.append(flag)
        elif value != "false":
            raise ValueError(f"manifest {path}: {key} must be true or false, got {value!r}")
    return argv


# subcommands ----------------------------------------------------------------


def run_ar1(args) -> dict:
    probs = args.probabilities
    x = ar1_run(args.n, Ar1Params(args.rho, args.tau), Rng(args.seed)).values
    n = x.size

    iters = np.arange(1, n + 1)

    means = running_mean(x)
    se_bm = running_mcse(x, "BM")
    se_obm = running_mcse(x, "OBM")
    qs = running_quantiles(x, probs)
    q_ses = running_quantile_se(x, probs)
    # each prefix's OBM df, k - isqrt(k) + 1; float sqrt gives isqrt exactly below 2^52
    k = iters[MIN_SAMPLES - 1 :]
    crit = np.full(n, np.nan)
    crit[MIN_SAMPLES - 1 :] = t_quantiles(_RUNNING_LEVEL, _batch_count(k, np.sqrt(k).astype(np.int64), "OBM"))
    lcl = means - crit * se_obm
    ucl = means + crit * se_obm

    header = (
        ["iter", "mean", "se_bm", "se_obm"]
        + [f"q_{_tag(p)}" for p in probs]
        + [f"se_q_{_tag(p)}" for p in probs]
        + ["mean_lcl_obm", "mean_ucl_obm"]
    )

    if x.min() < x.max():
        rs = acf(x)
        acf_columns = [np.arange(rs.size), rs]
    else:  # a constant chain has no autocorrelation
        acf_columns = [[0], [None]]
    return {
        "chain.csv": (["iter", "value"], [iters, x]),
        "running.csv": (header, [iters, means, se_bm, se_obm, *qs.T, *q_ses.T, lcl, ucl]),
        "acf.csv": (["lag", "r"], acf_columns),
    }


def run_tda(args) -> dict:
    chain = tda_run(args.n, Rng(args.seed))
    x = chain.values[:, 0]
    y = chain.values[:, 1]
    n = x.size

    iters = np.arange(1, n + 1)
    x_mean = running_mean(x)
    x2_mean = running_mean(np.square(x))
    rb_mean = rb_second_moment(y)
    se_x = running_mcse(x, "OBM")
    se_x2 = running_mcse(x, "OBM", g=np.square)
    se_rb = running_mcse(1.0 / y, "OBM")
    return {
        "chain.csv": (["iter", "x", "y"], [iters, x, y]),
        "moments.csv": (
            ["iter", "x_mean", "x2_mean", "rb_mean", "se_obm_x", "se_obm_x2", "se_obm_rb"],
            [iters, x_mean, x2_mean, rb_mean, se_x, se_x2, se_rb],
        ),
    }


def run_gibbs_normal(args) -> dict:
    params = NormalPosteriorParams(args.m, args.y_bar, args.s2)
    chain = nv_gibbs_run(args.n, params, Rng(args.seed))
    mu = chain.values[:, 0]
    theta = chain.values[:, 1]
    n = mu.size

    artifacts = {"chain.csv": (["iter", "mu", "theta"], [np.arange(1, n + 1), mu, theta])}

    for name, series in (("kde_mu.csv", mu), ("kde_theta.csv", theta)):
        est = kde_1d(series)
        artifacts[name] = (["x", "density"], [est.x, est.density])

    k2 = kde_2d(mu, theta, n_grid=50, lims=_KDE2D_LIMS)
    # row (x[i], y[j]) for i outer, j inner: density's C order
    artifacts["kde2d.csv"] = (
        ["x", "y", "density"],
        [np.repeat(k2.x, k2.y.size), np.tile(k2.y, k2.x.size), k2.density.reshape(-1)],
    )

    grid = np.linspace(_RB_GRID[0], _RB_GRID[1], _RB_GRID[2])
    rb = rb_marginal_mu(theta, grid, params.m, params.y_bar, variant=args.rb_variant)
    artifacts["rb_mu.csv"] = (["x", "density"], [rb.x, rb.density])
    return artifacts


def _first_field(line: str) -> str:
    return line.strip().split(",")[0]


def _read_lines(path: str) -> np.ndarray:
    # the input rules, applied line by line: blank lines and lines whose first
    # field is empty are skipped, a first line that does not parse is a header
    values = []
    isfinite = math.isfinite
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            token = _first_field(raw)
            if token == "":
                continue
            try:
                value = float(token)
            except ValueError:
                if lineno == 1:  # header row
                    continue
                raise ValueError(f"{path}:{lineno}: cannot parse {token!r} as a number")
            if not isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite value {token!r}")
            values.append(value)
    return np.asarray(values, dtype=float)


def _read_single_column(path: str) -> np.ndarray:
    """The first comma-separated field of every line of ``path`` as finite floats.

    One bulk ``np.loadtxt`` pass covers well-formed files. It takes a subset
    of what ``_read_lines`` takes (not whitespace-only lines, empty first
    fields, digit underscores or non-ASCII digits) and parses it to the same
    doubles. When it rejects the file, or the file holds a non-finite value,
    ``_read_lines`` gives the result or names the line at fault.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        first = fh.readline()
    try:
        float(_first_field(first))
        skip = 0
    except ValueError:  # a header, an empty first field, or a blank first line
        skip = 1
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(path, delimiter=",", usecols=0, comments=None, ndmin=1, skiprows=skip,
                                encoding="utf-8-sig")
    except ValueError:
        return _read_lines(path)
    return values if np.isfinite(values).all() else _read_lines(path)


def run_mcse(args) -> dict:
    """Print the report and return it as ``report.txt``."""
    values = _read_single_column(args.input)
    if values.size < MIN_SAMPLES:
        raise ValueError(f"insufficient samples: need at least {MIN_SAMPLES}, got {values.size}")

    lines: list[str] = [f"n={values.size}"]
    if args.probabilities is not None:
        intervals = ci_quantiles(values, args.probabilities, level=_RUNNING_LEVEL)
        lines += [
            "method=subsampling",
            f"b={intervals[0].b}",
            f"a={intervals[0].a}",
            f"df={intervals[0].df}",
            f"level={format_value(_RUNNING_LEVEL)}",
        ]
        for iv in intervals:
            tag = _tag(iv.probability)
            lines += [
                f"q_{tag}={format_value(iv.center)}",
                f"se_q_{tag}={format_value(iv.se)}",
                f"lower_q_{tag}={format_value(iv.lower)}",
                f"upper_q_{tag}={format_value(iv.upper)}",
            ]
    else:
        policy = args.batch if args.batch in _BATCH_RULES else float(args.batch)
        g = _TRANSFORMS[args.transform]
        interval = ci_mean(values, args.method, level=_RUNNING_LEVEL, policy=policy, g=g)
        lines += [
            f"method={interval.method}",
            f"batch={args.batch}",
            f"transform={args.transform}",
            f"b={interval.b}",
            f"a={interval.a}",
            f"df={interval.df}",
            f"mean={format_value(interval.center)}",
            f"se={format_value(interval.se)}",
            f"level={format_value(_RUNNING_LEVEL)}",
            f"half_width={format_value(interval.half_width)}",
            f"lower={format_value(interval.lower)}",
            f"upper={format_value(interval.upper)}",
        ]

    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    return {"report.txt": report}


def _stop_replicate(args, config: StoppingConfig, source: Ar1Source, truths: list, index: int) -> list[tuple]:
    """Rows ``(replicate, probability, terminal_n, half, estimate, converged, covered)``
    of replicate ``index``, one per ``(probability, truth)`` target; the
    probability is None for the mean."""
    rng = Rng(args.seed).spawn(index)
    if args.target == "mean":
        res = fixed_width_mean(source, config, rng)
    else:
        res = fixed_width_quantiles(source, args.probabilities, config, rng, args.bonferroni)
    return [
        (index, p, res.terminal_n, h, est, res.converged, bool(abs(est - truth) <= h))
        for (p, truth), est, h in zip(truths, res.estimates, res.half_widths)
    ]


def run_stop(args) -> dict:
    if args.step is None:
        args.step = 1000 if args.target == "mean" else 2000
    # validate up front so a bad config fails before any replicate runs
    config = StoppingConfig(epsilon=args.epsilon, level=args.level, step=args.step, pilot_n=args.pilot,
                            max_n=args.max_n)
    source = Ar1Source(Ar1Params(args.rho, args.tau))
    # the covered column needs each true value; p = 1 has no true quantile
    if args.target == "mean":
        truths = [(None, source.truth_mean())]
    else:
        truths = [(p, source.truth_quantile(p)) for p in args.probabilities]

    reps = args.replications
    replicate = functools.partial(_stop_replicate, args, config, source, truths)
    results = None
    if reps >= _POOL_MIN_REPLICATIONS and (os.cpu_count() or 1) > 1:
        try:
            # spawn and forkserver workers do not inherit the heap settings
            with concurrent.futures.ProcessPoolExecutor(initializer=_keep_freed_heap) as pool:
                results = list(pool.map(replicate, range(reps), chunksize=4))
        except (OSError, concurrent.futures.process.BrokenProcessPool):
            results = None
    if results is None:
        results = [replicate(i) for i in range(reps)]

    header = ["replicate", "probability", "terminal_n", "half", "estimate", "converged", "covered"]
    columns = list(zip(*(row for rows in results for row in rows)))
    if args.target == "mean":
        del header[1], columns[1]
    artifacts = {"results.csv": (header, columns)}

    if reps > 1:
        terminal = np.array([rows[0][2] for rows in results], dtype=float)
        t_q = quantiles_type1(terminal, (0.25, 0.5, 0.75))
        summary = {
            "replications": reps,
            "converged_count": sum(rows[0][5] for rows in results),
            "coverage": sum(all(row[6] for row in rows) for rows in results) / reps,
            "terminal_n_min": int(terminal.min()),
            "terminal_n_q25": int(t_q[0]),
            "terminal_n_median": int(t_q[1]),
            "terminal_n_q75": int(t_q[2]),
            "terminal_n_max": int(terminal.max()),
        }
        artifacts["summary.csv"] = (list(summary), [[v] for v in summary.values()])
    return artifacts


# parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1 (argparse's default is 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _batch(text: str) -> str:
    # the text as typed, so the report and the manifest repeat it
    if text in _BATCH_RULES:
        return text
    try:
        size = float(text)
    except ValueError:
        size = math.nan
    if not (math.isfinite(size) and size >= 2.0):
        raise argparse.ArgumentTypeError(f"expected sqroot, cuberoot or a finite size of at least 2, got {text!r}")
    return text


def _seed(text: str) -> int:
    try:
        return Rng.check_seed(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _probabilities(text: str) -> tuple:
    try:
        probs = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse probabilities from {text!r}") from None
    if not probs:
        raise argparse.ArgumentTypeError("need at least one probability")
    if not all(0.0 < p <= 1.0 for p in probs):
        raise argparse.ArgumentTypeError(f"probabilities must lie in (0, 1], got {text!r}")
    if len({_tag(p) for p in probs}) < len(probs):
        raise argparse.ArgumentTypeError(f"probabilities must differ in their first 6 significant digits, got {text!r}")
    return probs


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mcmc-confidence",
        description="Monte Carlo error assessment: simulate, estimate, and stop with confidence.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="<command>", parser_class=_Parser)

    p = sub.add_parser("ar1", help="AR(1) chain with running estimates, errors, and ACF")
    p.add_argument("--rho", type=float, default=0.5, help="autoregression coefficient, |rho| < 1")
    p.add_argument("--tau", type=float, default=1.0, help="innovation standard deviation")
    p.add_argument("--n", type=_positive_int, default=2000, help="chain length")
    p.add_argument("--seed", type=_seed, default=1976)
    p.add_argument("--probabilities", type=_probabilities, default=(0.25, 0.75),
                   help="comma-separated quantile probabilities")
    p.add_argument("--out", default="out/ar1")
    p.set_defaults(func=run_ar1)

    p = sub.add_parser("tda",
                       help="data-augmentation chain for the 4-df t target with moment series")
    p.add_argument("--n", type=_positive_int, default=2000)
    p.add_argument("--seed", type=_seed, default=100)
    p.add_argument("--out", default="out/tda")
    p.set_defaults(func=run_tda)

    p = sub.add_parser("gibbs-normal",
                       help="normal mean/variance Gibbs sampler with marginal density estimates")
    p.add_argument("--m", type=int, default=11, help="observed sample size (>= 3)")
    p.add_argument("--y-bar", type=float, default=1.0, help="observed sample mean")
    p.add_argument("--s2", type=float, default=4.0, help="observed (biased) sample variance")
    p.add_argument("--n", type=_positive_int, default=2000)
    p.add_argument("--seed", type=_seed, default=100)
    p.add_argument("--rb-variant", choices=("plugin", "mixture"), default="plugin",
                   help="conditional-density estimate of the mu marginal")
    p.add_argument("--out", default="out/gibbs-normal")
    p.set_defaults(func=run_gibbs_normal)

    p = sub.add_parser("mcse",
                       help="standard errors and intervals for a chain stored as single-column CSV")
    p.add_argument("--input", required=True, help="path to a single-column CSV (header optional)")
    p.add_argument("--method", choices=("bm", "obm"), default="bm")
    p.add_argument("--batch", type=_batch, default="sqroot",
                   help="sqroot, cuberoot, or an explicit batch size (its floor, at least 2)")
    p.add_argument("--transform", choices=sorted(_TRANSFORMS), default="id")
    p.add_argument("--probabilities", type=_probabilities, default=None,
                   help="report subsampling quantile errors instead of the mean")
    p.add_argument("--out", default=None, help="also write report.txt and manifest.txt here")
    p.set_defaults(func=run_mcse)

    p = sub.add_parser("stop", help="fixed-width sequential stopping study")
    p.add_argument("--target", choices=("mean", "quantiles"), default="mean")
    p.add_argument("--rho", type=float, default=0.95)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.1, help="target half-width")
    p.add_argument("--level", type=float, default=0.9, help="one-sided t level per interval")
    p.add_argument("--step", type=_positive_int, default=None,
                   help="iterations added per check (default 1000 for mean, 2000 for quantiles)")
    p.add_argument("--pilot", type=_int_at_least(MIN_SAMPLES), default=2000, help="pilot chain length")
    p.add_argument("--max-n", type=_int_at_least(MIN_SAMPLES), default=200_000, help="simulation budget")
    p.add_argument("--bonferroni", action="store_true",
                   help="inflate the level so the quantile intervals hold jointly")
    p.add_argument("--probabilities", type=_probabilities, default=(0.25, 0.75))
    p.add_argument("--replications", type=_positive_int, default=1)
    p.add_argument("--seed", type=_seed, default=1976)
    p.add_argument("--out", default="out/stop")
    p.set_defaults(func=run_stop)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _keep_freed_heap()
    try:
        artifacts = args.func(args)
        if args.out is not None:
            write_manifest(args)
            for name, artifact in artifacts.items():
                path = os.path.join(args.out, name)
                if isinstance(artifact, str):
                    with open(path, "w", encoding="utf-8", newline="\n") as fh:
                        fh.write(artifact)
                else:
                    write_csv(path, *artifact)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def console() -> None:
    sys.exit(main())
