"""One pass of a workload, run by ``run.py`` in a fresh interpreter.

A pass imports the package, writes the workload's inputs, drives
``mcmc_confidence.cli.main`` through each invocation, digests the artifacts
(with ``--check``, also compares them with direct library calls) and writes
``pass.json`` into its directory. Only the invocations
are timed as the study; interpreter start, import and inputs are set-up.

    python3 perfbench/study.py --workload W --seed S --dir D --src SRC --spawned-at T
                               [--trace] [--serial] [--check]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this interpreter. ``--serial`` keeps the ``stop`` replicates in this process
instead of the CLI's process pool, so that their spans are recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import mcmc_confidence.cli as cli  # set-up time runs from interpreter start to the end of this import

IMPORTED_AT = time.monotonic()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mcmc_confidence import diagnostics, distributions, mcse, samplers, stopping  # noqa: E402
from mcmc_confidence.rng import Rng  # noqa: E402

_SERIAL_POOL_MIN = 2**62
_PROBS = tuple(float(p) for p in workloads.PROBABILITIES.split(","))


def _cpu() -> tuple:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def _invoke(invocation, tracer) -> dict:
    sink = io.StringIO()
    cpu0, kids0 = _cpu()
    t0 = time.perf_counter()
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        idx = tracer.open("cli") if tracer else None
        try:
            code = cli.main(list(invocation.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash in the program is a failed operation, not a benchmark crash
            code, error = None, traceback.format_exc()
        finally:
            if tracer:
                tracer.close(idx)
    wall = time.perf_counter() - t0
    cpu1, kids1 = _cpu()
    problems = [] if code == 0 else [f"{invocation.name}: exit code {code}: {error or sink.getvalue()[-2000:]}"]
    return {
        "name": invocation.name,
        "argv": list(invocation.argv),
        "exit": code,
        "wall_s": wall,
        "cpu_s": (cpu1 - cpu0) + (kids1 - kids0),
        "pool_cpu_s": kids1 - kids0,
        "problems": problems,
    }


def _check(invocation, values) -> list:
    """Compare the invocation's artifacts with direct library calls."""
    out = invocation.out
    argv = invocation.argv
    if invocation.name == "ar1":
        chain = samplers.ar1_run(workloads.RUNNING_N, samplers.Ar1Params(float(workloads.RHO), 1.0),
                                 Rng(int(argv[argv.index("--seed") + 1])))
        return checks.check_running_last_row(os.path.join(out, "running.csv"), workloads.RUNNING_N, _PROBS,
                                             mcse.mcse_obm(chain.values), mcse.subsample_quantile_se(chain.values, _PROBS))
    if invocation.name == "stop":
        config = stopping.StoppingConfig(epsilon=float(workloads.STOP_EPSILON), level=0.9, step=workloads.STOP_STEP,
                                         pilot_n=workloads.STOP_PILOT, max_n=workloads.STOP_MAX_N)
        result = stopping.fixed_width_quantiles(
            samplers.Ar1Source(samplers.Ar1Params(float(workloads.RHO), 1.0)), _PROBS, config,
            Rng(int(argv[argv.index("--seed") + 1])), bonferroni=True)
        return checks.check_stop_replicate(os.path.join(out, "results.csv"), 0, _PROBS, result)
    if invocation.name == "mcse-obm":
        return checks.check_mcse_report(os.path.join(out, "report.txt"), values.size,
                                        mcse.ci_mean(values, "OBM", 0.9, "sqroot"))
    if invocation.name == "mcse-bm":
        return checks.check_mcse_report(os.path.join(out, "report.txt"), values.size,
                                        mcse.ci_mean(values, "BM", 0.9, "cuberoot", np.square))
    return []


def run_pass(workload: str, seed: int, trace: bool, serial: bool, check: bool) -> dict:
    t0 = time.perf_counter()
    values = workloads.write_inputs(workload, seed)
    inputs_s = time.perf_counter() - t0
    input_digests = checks.digests(".")

    if serial:
        if not hasattr(cli, "_POOL_MIN_REPLICATIONS"):
            raise RuntimeError("cli._POOL_MIN_REPLICATIONS is gone: cannot keep the stop replicates in-process")
        cli._POOL_MIN_REPLICATIONS = _SERIAL_POOL_MIN
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.patch_package((cli, diagnostics, mcse, stopping), methods=((samplers.Ar1Source, ("start", "extend")),))
    cache0 = distributions.t_quantile.cache_info()
    try:
        invocations = [_invoke(inv, tracer) for inv in workloads.WORKLOADS[workload](seed)]
    finally:
        if tracer:
            tracer.restore()
    cache1 = distributions.t_quantile.cache_info()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    for record, inv in zip(invocations, workloads.WORKLOADS[workload](seed)):
        record["digests"] = {f"{inv.out}/{k}": v for k, v in checks.digests(inv.out).items()}
        if record["exit"] != 0:
            record["states"] = 0
            continue
        try:
            if check:
                record["problems"] += _check(inv, values)
            record["states"] = checks.states(inv)
        except (OSError, KeyError, ValueError) as exc:
            record["problems"].append(f"{inv.name}: unreadable artifact: {exc!r}")
            record["states"] = 0

    result = {
        "numpy": np.__version__,
        "package": getattr(sys.modules["mcmc_confidence"], "__version__", None),
        "imported_at": IMPORTED_AT,
        "inputs_s": inputs_s,
        "input_digests": {f"inputs/{k}": v for k, v in input_digests.items()},
        "invocations": invocations,
        "peak_rss_mb": rss_kb / 1024.0,
        "t_quantile_hits": cache1.hits - cache0.hits,
        "t_quantile_misses": cache1.misses - cache0.misses,
    }
    if tracer:
        result["groups"] = spans.group_totals(tracer.spans)
        result["top_level_s"] = spans.top_level_time(tracer.spans)
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--serial", action="store_true")
    parser.add_argument("--check", action="store_true", help="compare the artifacts with direct library calls")
    parser.add_argument("--src", required=True, help="the src/ directory the package must come from")
    args = parser.parse_args()

    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if os.path.realpath(package_dir) != os.path.realpath(args.src):
        print(f"package imported from {package_dir}, not {args.src}", file=sys.stderr)
        return 2
    os.chdir(args.dir)
    result = run_pass(args.workload, args.seed, args.trace, args.serial, args.check)
    result["setup_import_s"] = IMPORTED_AT - args.spawned_at
    with open("pass.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
