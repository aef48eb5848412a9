"""Tests of the benchmark's own logic: span arithmetic, output checks, inputs.

    python -m pytest perfbench/tests
"""

import json
import os
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from mcmc_confidence import cli, diagnostics, mcse, samplers, stopping
from mcmc_confidence.rng import Rng

ROOT = Path(__file__).resolve().parents[2]


# spans ---------------------------------------------------------------------


def _span(group, parent, start, end, counts=None):
    return [group, parent, start, end, counts]


def test_self_time_subtracts_child_spans_at_every_depth():
    tree = [
        _span("cli", None, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("b", 1, 2.0, 3.0),
        _span("c", 0, 5.0, 9.0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(spans.self_times(tree)) == pytest.approx(spans.top_level_time(tree))


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [
        _span("p", None, 0.0, 10.0),
        _span("x", 0, 1.0, 4.0),
        _span("y", 0, 3.0, 6.0),
        _span("z", 0, 8.0, 12.0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_group_totals_sum_counts_and_take_peak_maxima():
    tree = [
        _span("g", None, 0.0, 2.0, {"states": 3, "peak_alloc_mb": 5.0}),
        _span("g", None, 2.0, 3.0, {"states": 4, "peak_alloc_mb": 2.0}),
        _span("h", 0, 0.5, 1.0),
    ]
    totals = spans.group_totals(tree)
    assert totals["g"] == {"calls": 2, "self_s": pytest.approx(2.5), "states": 7, "peak_alloc_mb": 5.0}
    assert totals["h"] == {"calls": 1, "self_s": pytest.approx(0.5)}


def test_tracer_nests_spans_by_lookup_site_and_restores_names():
    inner_mod = types.ModuleType("mcmc_confidence.fake_inner")

    def leaf(n):
        return n

    leaf.__module__ = inner_mod.__name__
    outer_mod = types.ModuleType("mcmc_confidence.fake_outer")
    outer_mod.leaf = leaf

    def outer(n):
        return outer_mod.leaf(n) + outer_mod.leaf(n)

    outer.__module__ = outer_mod.__name__
    top = types.ModuleType("mcmc_confidence.fake_top")
    top.outer = outer

    tracer = spans.Tracer()
    tracer.patch_package((top, outer_mod))
    assert top.outer(2) == 4
    tracer.restore()
    assert top.outer is outer and outer_mod.leaf is leaf
    assert [(s[0], s[1]) for s in tracer.spans] == [
        ("fake_outer.other", None), ("fake_inner.other", 0), ("fake_inner.other", 0)
    ]


def test_traced_cli_run_attributes_all_time_and_counts_work(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tracer = spans.Tracer()
    tracer.patch_package((cli, diagnostics, mcse, stopping), methods=((samplers.Ar1Source, ("start", "extend")),))
    try:
        idx = tracer.open("cli")
        assert cli.main(["ar1", "--n", "120", "--seed", "3", "--out", "ar1"]) == 0
        tracer.close(idx)
    finally:
        tracer.restore()
    assert cli.running_quantile_se is diagnostics.running_quantile_se
    totals = spans.group_totals(tracer.spans)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(spans.top_level_time(tracer.spans))
    assert totals["samplers"]["states"] == 120
    assert totals["mcse.subsample_quantile_se"]["calls"] == 120 - mcse.MIN_SAMPLES + 1
    windows = sum(k - int(np.sqrt(k)) + 1 for k in range(mcse.MIN_SAMPLES, 121))
    assert totals["mcse.subsample_quantile_se"]["windows"] == windows
    assert totals["cli.write_csv"]["bytes"] == sum(os.path.getsize(f"ar1/{f}") for f in
                                                   ("chain.csv", "running.csv", "acf.csv"))


# output checks ------------------------------------------------------------


def _rewrite(path, old, new):
    text = Path(path).read_text()
    assert old in text
    Path(path).write_text(text.replace(old, new))


def test_running_check_flags_a_corrupted_last_row(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["ar1", "--rho", "0.95", "--n", "150", "--seed", "7", "--out", "ar1"]) == 0
    x = samplers.ar1_run(150, samplers.Ar1Params(0.95), Rng(7)).values
    probs = (0.25, 0.75)
    obm, qset = mcse.mcse_obm(x), mcse.subsample_quantile_se(x, probs)
    assert checks.check_running_last_row("ar1/running.csv", 150, probs, obm, qset) == []
    se = checks.fmt(obm.se)
    _rewrite("ar1/running.csv", f",{se},", f",{checks.fmt(obm.se * 1.001)},")
    assert checks.check_running_last_row("ar1/running.csv", 150, probs, obm, qset)


def test_stop_check_flags_a_corrupted_replicate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["stop", "--target", "quantiles", "--bonferroni", "--epsilon", "0.6", "--step", "500",
            "--pilot", "500", "--replications", "2", "--seed", "4", "--out", "stop"]
    assert cli.main(argv) == 0
    probs = (0.25, 0.75)
    config = stopping.StoppingConfig(epsilon=0.6, level=0.9, step=500, pilot_n=500)
    direct = stopping.fixed_width_quantiles(samplers.Ar1Source(samplers.Ar1Params(0.95)), probs, config,
                                            Rng(4), bonferroni=True)
    assert checks.check_stop_replicate("stop/results.csv", 0, probs, direct) == []
    assert checks.states(workloads.Invocation("stop", tuple(argv))) >= 2 * 500
    _rewrite("stop/results.csv", f"0,0.25,{direct.terminal_n},", f"0,0.25,{direct.terminal_n + 500},")
    assert checks.check_stop_replicate("stop/results.csv", 0, probs, direct)


def test_mcse_check_flags_a_corrupted_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    x = workloads.ar1_input(5, n=2000)
    Path("chain.csv").write_text("value\n" + "\n".join(map(repr, x.tolist())) + "\n")
    assert cli.main(["mcse", "--input", "chain.csv", "--method", "bm", "--batch", "cuberoot",
                     "--transform", "square", "--out", "m"]) == 0
    interval = mcse.ci_mean(x, "BM", 0.9, "cuberoot", np.square)
    assert checks.check_mcse_report("m/report.txt", 2000, interval) == []
    _rewrite("m/report.txt", f"se={checks.fmt(interval.se)}\n", f"se={checks.fmt(interval.se * 2)}\n")
    assert checks.check_mcse_report("m/report.txt", 2000, interval)


# inputs and result files ---------------------------------------------------


def test_inputs_are_a_function_of_the_seed(tmp_path, monkeypatch):
    assert np.array_equal(workloads.ar1_input(9, n=500), workloads.ar1_input(9, n=500))
    assert not np.array_equal(workloads.ar1_input(9, n=500), workloads.ar1_input(10, n=500))
    found = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        values = workloads.write_inputs("posterior-summary", 9)
        assert np.array_equal(np.loadtxt(workloads.INPUT_FILE, skiprows=1, max_rows=1000), values[:1000])
        found.append(checks.digests("."))
    assert found[0] == found[1]
    assert workloads.write_inputs("running-study", 9) is None
    assert [inv.argv for inv in workloads.stopping_study(3)] == [inv.argv for inv in workloads.stopping_study(3)]


def test_compare_lists_the_artifacts_that_differ(tmp_path, capsys):
    env = {"numpy": "2", "python": "3", "git_commit": "x"}
    a = {"digests": {"ar1/chain.csv": "1", "ar1/running.csv": "2"}, "environment": env}
    b = {"digests": {"ar1/chain.csv": "1", "ar1/running.csv": "3"}, "environment": env}
    for name, record in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(record))
    assert run.compare(tmp_path / "a.json", tmp_path / "a.json") == 0
    assert run.compare(tmp_path / "a.json", tmp_path / "b.json") == 1
    out = capsys.readouterr().out
    assert "differs: ar1/running.csv" in out and "differs: ar1/chain.csv" not in out


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, u) for n, u in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, *_ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
