"""Checks of the CLI's artifacts against direct library calls, and artifact digests.

Each check returns a list of problems; an empty list means the artifact is
right. Expected numbers are formatted the way the CLI documents its output
(10 significant digits, ``NA`` for absent values), so a check compares text.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os


def fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    f = float(value)
    return "NA" if math.isnan(f) else f"{f:.10g}"


def digests(root: str) -> dict:
    """SHA-256 of every file under ``root``, keyed by its path relative to ``root``."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root).replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def _rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _compare(where: str, got: dict, expected: dict) -> list:
    return [
        f"{where}: {key}={got.get(key)!r}, expected {want!r}"
        for key, want in expected.items()
        if got.get(key) != want
    ]


def check_running_last_row(path: str, n: int, probabilities, obm, qset) -> list:
    """The last row of ``running.csv`` against direct ``mcse_obm`` and
    ``subsample_quantile_se`` results on the whole chain of ``n`` states."""
    rows = _rows(path)
    if len(rows) != n:
        return [f"{path}: {len(rows)} rows, expected {n}"]
    expected = {"iter": str(n), "se_obm": fmt(obm.se)}
    for p, se in zip(probabilities, qset.ses):
        expected[f"se_q_{p:g}"] = fmt(float(se))
    return _compare(f"{path} last row", rows[-1], expected)


def check_stop_replicate(path: str, replicate: int, probabilities, result) -> list:
    """The rows of one replicate in ``results.csv`` against a direct
    ``fixed_width_quantiles`` result for that replicate's seed."""
    rows = [r for r in _rows(path) if r.get("replicate") == str(replicate)]
    if len(rows) != len(probabilities):
        return [f"{path}: {len(rows)} rows for replicate {replicate}, expected {len(probabilities)}"]
    problems = []
    for row, p, half in zip(rows, probabilities, result.half_widths):
        expected = {"probability": fmt(p), "terminal_n": str(result.terminal_n), "half": fmt(float(half))}
        problems += _compare(f"{path} replicate {replicate}", row, expected)
    return problems


def read_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").partition("=")[::2] for line in fh if line.strip())


def check_mcse_report(path: str, n: int, interval) -> list:
    """A ``mcse`` report against a direct ``ci_mean`` interval."""
    expected = {
        "n": str(n),
        "df": fmt(interval.df),
        "mean": fmt(interval.center),
        "se": fmt(interval.se),
        "half_width": fmt(interval.half_width),
        "lower": fmt(interval.lower),
        "upper": fmt(interval.upper),
    }
    return _compare(path, read_report(path), expected)


def states(invocation) -> int:
    """Chain states the invocation simulated or assessed, read from its artifacts."""
    command, out = invocation.argv[0], invocation.out
    if command == "stop":
        return sum({r["replicate"]: int(r["terminal_n"]) for r in _rows(os.path.join(out, "results.csv"))}.values())
    if command == "mcse":
        return int(read_report(os.path.join(out, "report.txt"))["n"])
    return int(invocation.argv[invocation.argv.index("--n") + 1])
