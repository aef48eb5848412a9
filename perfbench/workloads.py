"""The benchmark's workloads: which CLI invocations each one runs, and the
inputs it writes before them.

Every invocation spells out its flags, so a change of a CLI default does not
silently change the work a workload does. Seeds are derived from the
benchmark seed alone; the same seed gives the same argv and the same input
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RHO = "0.95"
PROBABILITIES = "0.25,0.75"

RUNNING_N = 3000
STOP_EPSILON = "0.2"
STOP_STEP = 2000
STOP_PILOT = 2000
STOP_MAX_N = 200_000
STOP_REPLICATIONS = 16
GIBBS_N = 100_000
INPUT_N = 1_000_000
INPUT_FILE = "chain.csv"
_INPUT_CHUNK = 100_000


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``argv`` for ``mcmc_confidence.cli.main``."""

    name: str
    argv: tuple

    @property
    def out(self) -> str:
        """The output directory the call writes, relative to the pass directory."""
        return self.argv[self.argv.index("--out") + 1]


def _seed(seed: int, offset: int = 0) -> str:
    return str((seed + offset) % 2**32)


def running_study(seed: int) -> list:
    return [
        Invocation("ar1", ("ar1", "--rho", RHO, "--tau", "1.0", "--n", str(RUNNING_N),
                           "--probabilities", PROBABILITIES, "--seed", _seed(seed), "--out", "ar1")),
        Invocation("tda", ("tda", "--n", str(RUNNING_N), "--seed", _seed(seed, 1), "--out", "tda")),
    ]


def stopping_study(seed: int) -> list:
    return [
        Invocation("stop", ("stop", "--target", "quantiles", "--bonferroni", "--rho", RHO, "--tau", "1.0",
                            "--epsilon", STOP_EPSILON, "--level", "0.9", "--step", str(STOP_STEP),
                            "--pilot", str(STOP_PILOT), "--max-n", str(STOP_MAX_N),
                            "--probabilities", PROBABILITIES, "--replications", str(STOP_REPLICATIONS),
                            "--seed", _seed(seed), "--out", "stop")),
    ]


def posterior_summary(seed: int) -> list:
    return [
        Invocation("gibbs-normal", ("gibbs-normal", "--m", "11", "--y-bar", "1.0", "--s2", "4.0",
                                    "--n", str(GIBBS_N), "--rb-variant", "mixture",
                                    "--seed", _seed(seed), "--out", "gibbs")),
        Invocation("mcse-obm", ("mcse", "--input", INPUT_FILE, "--method", "obm", "--batch", "sqroot",
                                "--transform", "id", "--out", "mcse-obm")),
        Invocation("mcse-bm", ("mcse", "--input", INPUT_FILE, "--method", "bm", "--batch", "cuberoot",
                               "--transform", "square", "--out", "mcse-bm")),
    ]


# name -> the invocations a seed gives; BENCHMARK.json says why each was chosen
WORKLOADS = {
    "running-study": running_study,
    "stopping-study": stopping_study,
    "posterior-summary": posterior_summary,
}

# workloads whose invocations fan out over the CLI's process pool
POOLED = {"stopping-study"}


def ar1_input(seed: int, n: int = INPUT_N, rho: float = float(RHO)) -> np.ndarray:
    """A stationary-scale AR(1) chain drawn by the benchmark itself, not the package,
    so that set-up cost does not move with the package's samplers."""
    eps = np.random.Generator(np.random.PCG64(int(_seed(seed, 2)))).standard_normal(n)
    out = np.empty(n)
    x = 0.0
    for i, e in enumerate(eps.tolist()):
        x = rho * x + e
        out[i] = x
    return out


def write_inputs(workload: str, seed: int):
    """Write the workload's input files into the current directory.

    Returns the values behind them (``None`` when the workload reads no
    input), so checks can compare against the exact chain the CLI read.
    """
    if workload != "posterior-summary":
        return None
    values = ar1_input(seed)
    with open(INPUT_FILE, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("value\n")
        for start in range(0, values.size, _INPUT_CHUNK):
            # repr round-trips, so the CLI reads back exactly these doubles
            fh.write("\n".join(map(repr, values[start:start + _INPUT_CHUNK].tolist())) + "\n")
    return values
