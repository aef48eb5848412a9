"""Benchmark of the mcmc-confidence CLI studies, end to end and per layer.

    python3 perfbench/run.py --workload running-study --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --compare A.json B.json

Each pass of a workload runs ``perfbench/study.py`` in a fresh interpreter
against the package under ``src/``, so every pass pays what a CLI user pays:
interpreter start, import, a cold ``t_quantile`` cache and its own peak RSS.
Passes repeat while the next one is expected to end within ``--seconds``
(with at least three untraced passes), and each metric is the median over
passes.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics
of the traced pass with the median wall time, plus the tracing overhead
against the untraced passes. Traced ``stop`` studies keep their replicates
in-process, since pool workers would keep their spans; their overhead is
taken against untraced passes that run serially too.

The first pass checks its artifacts against direct library calls. Every pass
records a SHA-256 digest of each artifact, and all passes of a run must
produce the same bytes as the first.
The run writes a result file (default ``.perfbench/results/``) with the
environment, the digests and every pass. ``--compare`` lists the artifacts
whose digests differ between two result files and exits 1 if any do.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

MIN_UNTRACED_PASSES = 3
# a run must end within 180 s; stop starting passes well before that
RUN_BUDGET_S = 160.0

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("states_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ops_ok_frac", "ratio"),
]

# (metric, unit, span group, field); fields are "calls", "self_s" or a span counter
PER_LAYER = [
    ("cli.self_s", "s", "cli", "self_s"),
    ("cli.write_csv.calls", "count", "cli.write_csv", "calls"),
    ("cli.write_csv.bytes", "bytes", "cli.write_csv", "bytes"),
    ("cli.write_csv.self_s", "s", "cli.write_csv", "self_s"),
    ("samplers.calls", "count", "samplers", "calls"),
    ("samplers.states", "count", "samplers", "states"),
    ("samplers.bytes_copied", "bytes", "samplers", "bytes_copied"),
    ("samplers.self_s", "s", "samplers", "self_s"),
    ("mcse.subsample_quantile_se.calls", "count", "mcse.subsample_quantile_se", "calls"),
    ("mcse.subsample_quantile_se.windows", "count", "mcse.subsample_quantile_se", "windows"),
    ("mcse.subsample_quantile_se.window_elems", "count", "mcse.subsample_quantile_se", "window_elems"),
    ("mcse.subsample_quantile_se.self_s", "s", "mcse.subsample_quantile_se", "self_s"),
    ("mcse.mcse_obm.calls", "count", "mcse.mcse_obm", "calls"),
    ("mcse.mcse_obm.self_s", "s", "mcse.mcse_obm", "self_s"),
    ("mcse.mcse_bm.calls", "count", "mcse.mcse_bm", "calls"),
    ("mcse.mcse_bm.self_s", "s", "mcse.mcse_bm", "self_s"),
    ("mcse.other.self_s", "s", "mcse.other", "self_s"),
    ("diagnostics.running_quantile_se.self_s", "s", "diagnostics.running_quantile_se", "self_s"),
    ("diagnostics.running_mcse.self_s", "s", "diagnostics.running_mcse", "self_s"),
    ("diagnostics.running_quantiles.self_s", "s", "diagnostics.running_quantiles", "self_s"),
    ("diagnostics.kde.calls", "count", "diagnostics.kde", "calls"),
    ("diagnostics.kde.kernel_evals", "count", "diagnostics.kde", "kernel_evals"),
    ("diagnostics.kde.self_s", "s", "diagnostics.kde", "self_s"),
    ("diagnostics.kde_2d.peak_alloc_mb", "MB", "diagnostics.kde", "peak_alloc_mb"),
    ("diagnostics.other.self_s", "s", "diagnostics.other", "self_s"),
    ("distributions.t_quantile.calls", "count", "distributions.t_quantile", "calls"),
    ("distributions.t_quantile.cache_hit_ratio", "ratio", None, None),
    ("distributions.t_quantile.self_s", "s", "distributions.t_quantile", "self_s"),
    ("stopping.calls", "count", "stopping", "calls"),
    ("stopping.checks", "count", "stopping", "checks"),
    ("stopping.terminal_n", "count", "stopping", "terminal_n"),
    ("stopping.self_s", "s", "stopping", "self_s"),
    ("cli.pool.busy_frac", "ratio", None, None),
    ("trace.wall_s", "s", None, None),
    ("trace.unattributed_s", "s", None, None),
    ("trace.overhead_s", "s", None, None),
]


def _pool_workers() -> int:
    # the CLI's ProcessPoolExecutor() starts this many workers by default
    return (getattr(os, "process_cpu_count", None) or os.cpu_count)() or 1


def run_pass(workload: str, seed: int, kind: str, workdir: Path, deadline: float, check: bool) -> dict:
    """Run one pass in a fresh interpreter; ``kind`` is plain, serial or traced."""
    workdir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "study.py"), "--workload", workload, "--seed", str(seed),
            "--dir", str(workdir), "--src", str(SRC)]
    if check:
        argv.append("--check")
    if kind != "plain" and workload in workloads.POOLED:
        argv.append("--serial")
    if kind == "traced":
        argv.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawned = time.monotonic()
    proc = subprocess.Popen(argv + ["--spawned-at", repr(spawned)], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        output, _ = proc.communicate()
        return {"kind": kind, "crashed": f"pass killed at the run's time limit: {output.decode(errors='replace')[-2000:]}"}
    result_path = workdir / "pass.json"
    if proc.returncode != 0 or not result_path.exists():
        return {"kind": kind, "crashed": f"exit {proc.returncode}: {output.decode(errors='replace')[-2000:]}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["kind"] = kind
    result["wall_s"] = sum(inv["wall_s"] for inv in result["invocations"])
    return result


def _is_count(field: str) -> bool:
    return field != "self_s" and not field.startswith("peak_")


def _counts(p: dict) -> dict:
    return {(g, f): v for g, fields in p["groups"].items() for f, v in fields.items() if _is_count(f)}


def summarize(workload: str, passes: list, trace: bool) -> dict:
    """Correctness, failure counts and metrics of a run's passes."""
    per_pass = len(workloads.WORKLOADS[workload](0))
    problems: list = []
    attempted = failed = 0
    reference = None
    for i, p in enumerate(passes):
        attempted += per_pass
        if "crashed" in p:
            problems.append(f"pass {i} ({p['kind']}): {p['crashed']}")
            failed += per_pass
            continue
        if reference is None:
            reference = p
        pass_problems = []
        if p["input_digests"] != reference["input_digests"]:
            pass_problems.append(f"pass {i}: input files differ from the first pass")
        for inv, ref in zip(p["invocations"], reference["invocations"]):
            inv_problems = list(inv["problems"])
            if inv["digests"] != ref["digests"]:
                inv_problems.append(f"{inv['name']}: artifacts differ from the first pass")
            elif p is not reference and ref["problems"]:
                inv_problems.append(f"{inv['name']}: same artifacts as the first pass, which failed its check")
            if inv_problems or pass_problems:
                failed += 1
            problems += [f"pass {i} ({p['kind']}): {msg}" for msg in pass_problems + inv_problems]

    ok = [p for p in passes if "crashed" not in p]
    plain = [p for p in ok if p["kind"] == "plain"]
    traced = [p for p in ok if p["kind"] == "traced"]
    if trace and traced:
        if any(_counts(p) != _counts(traced[0]) for p in traced):
            problems.append("traced passes disagree on a count")
    metrics = end_to_end(plain, attempted, failed) if not trace else per_layer(ok, plain, traced)
    chosen = _median_pass(traced)
    return {
        "layers_self_s": sum(g["self_s"] for g in chosen["groups"].values()) if chosen else None,
        "correct": not problems and bool(plain) and (bool(traced) or not trace),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "digests": {**reference["input_digests"], **{k: v for inv in reference["invocations"]
                                                      for k, v in inv["digests"].items()}} if reference else {},
        "numpy": reference["numpy"] if reference else None,
        "package": reference["package"] if reference else None,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(plain: list, attempted: int, failed: int) -> dict:
    return {
        "wall_s": _median([p["wall_s"] for p in plain]),
        "cpu_s": _median([sum(inv["cpu_s"] for inv in p["invocations"]) for p in plain]),
        "states_per_s": _median([sum(inv["states"] for inv in p["invocations"]) / p["wall_s"] for p in plain]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
        "setup_s": _median([p["setup_import_s"] + p["inputs_s"] for p in plain]),
        "ops_ok_frac": (attempted - failed) / attempted if attempted else 0.0,
    }


def _busy_frac(p: dict) -> float:
    pooled = [inv for inv in p["invocations"] if inv["pool_cpu_s"] > 0]
    if not pooled:
        return 0.0
    return sum(inv["pool_cpu_s"] for inv in pooled) / (_pool_workers() * sum(inv["wall_s"] for inv in pooled))


def _median_pass(traced: list):
    # the traced pass with the (lower) median wall time; its layers add up to its own wall time
    return sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2] if traced else None


def per_layer(ok: list, plain: list, traced: list) -> dict:
    chosen = _median_pass(traced)
    if chosen is None:
        return {name: 0.0 for name, *_ in PER_LAYER}
    untraced = [p for p in ok if p["kind"] == ("serial" if any(q["kind"] == "serial" for q in ok) else "plain")]
    groups = chosen["groups"]
    lookups = chosen["t_quantile_hits"] + chosen["t_quantile_misses"]
    metrics = {}
    for name, _, group, field in PER_LAYER:
        if group is not None:
            metrics[name] = groups.get(group, {}).get(field, 0)
    metrics["distributions.t_quantile.cache_hit_ratio"] = chosen["t_quantile_hits"] / lookups if lookups else 0.0
    metrics["cli.pool.busy_frac"] = _median([_busy_frac(p) for p in plain])
    metrics["trace.wall_s"] = chosen["wall_s"]
    metrics["trace.unattributed_s"] = chosen["wall_s"] - chosen["top_level_s"]
    metrics["trace.overhead_s"] = chosen["wall_s"] - _median([p["wall_s"] for p in untraced])
    return {name: metrics[name] for name, *_ in PER_LAYER}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple:
    if not trace:
        kinds = ["plain"]
    elif workload in workloads.POOLED:
        kinds = ["plain", "serial", "traced"]
    else:
        kinds = ["plain", "traced"]
    min_cycles = 1 if trace else MIN_UNTRACED_PASSES
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    passes: list = []
    cycles = 0
    while True:
        cycle_start = time.monotonic()
        for kind in kinds:
            # the first pass checks its artifacts against the library; later ones must match its bytes
            passes.append(run_pass(workload, seed, kind, workdir / f"pass-{len(passes)}", deadline, not passes))
        cycles += 1
        now = time.monotonic()
        # start another cycle only if it is expected to end within --seconds
        expected_end = now + (now - cycle_start)
        if (cycles >= min_cycles and expected_end > start + seconds) or expected_end > deadline:
            break
    return passes, time.monotonic() - start


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(summary: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": summary["numpy"],
        "package": summary["package"],
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def _specs(trace: bool) -> list:
    return [(name, unit) for name, unit, *_ in (PER_LAYER if trace else END_TO_END)]


def measure(workload: str, seed: int, seconds: float, trace: bool, result_path: Path | None) -> dict:
    workdir = STATE / f"work-{os.getpid()}" / workload
    try:
        passes, elapsed = run_workload(workload, seed, seconds, trace, workdir)
        traced = [i for i, p in enumerate(passes) if p["kind"] == "traced"]
        spans_file = workdir / f"pass-{traced[-1]}" / "spans.json" if traced else None
        summary = summarize(workload, passes, trace)
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "elapsed_s": elapsed,
            "environment": environment(summary), **summary,
            "passes": [{k: v for k, v in p.items() if k != "groups"} for p in passes],
        }
        if result_path is None:
            result_path = STATE / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
        result_path.parent.mkdir(parents=True, exist_ok=True)
        result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
        if spans_file and spans_file.exists():
            shutil.copyfile(spans_file, result_path.with_suffix(".spans.json"))
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    for problem in summary["problems"]:
        print(f"{workload}: FAILED {problem}")
    for name, unit in _specs(trace):
        print(f"{workload:18s} {name:42s} {summary['metrics'][name]:>16.6g} {unit}")
    if trace:
        m = summary["metrics"]
        print(f"{workload:18s} layers' self time {summary['layers_self_s']:.6f} s + unattributed"
              f" {m['trace.unattributed_s']:.6f} s = traced wall {m['trace.wall_s']:.6f} s")
    print(f"{workload:18s} result file {result_path}")
    return summary


def compare(a: Path, b: Path) -> int:
    ra, rb = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
    da, db = ra["digests"], rb["digests"]
    differ = 0
    for key in sorted(set(da) | set(db)):
        if key not in db:
            print(f"only in {a}: {key}")
        elif key not in da:
            print(f"only in {b}: {key}")
        elif da[key] != db[key]:
            print(f"differs: {key}")
        else:
            continue
        differ += 1
    for key in ("numpy", "python", "git_commit"):
        if ra["environment"].get(key) != rb["environment"].get(key):
            print(f"environment {key}: {ra['environment'].get(key)} vs {rb['environment'].get(key)}")
    print(f"{differ} of {len(set(da) | set(db))} artifacts differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path,
                        help="result file of a single-workload run (default under .perfbench/results/)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="list the artifacts whose digests differ between two result files")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "mcmc_confidence" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'mcmc_confidence'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    summaries = {name: measure(name, args.seed, args.seconds, trace,
                               args.result if len(names) == 1 else None) for name in names}
    prefix = len(names) > 1
    metrics = {(f"{w}." if prefix else "") + k: {"value": s["metrics"][k], "unit": u}
               for w, s in summaries.items() for k, u in _specs(trace)}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
