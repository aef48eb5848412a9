import errno
import inspect
import math
import os
import platform
import warnings

import numpy as np
import pytest

from mcmc_confidence import Rng
from mcmc_confidence.cli import argv_from_manifest, main


def run_cli(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    assert lines[-1] == ""  # trailing LF
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_ar1_outputs(tmp_path):
    out = tmp_path / "a"
    assert run_cli(["ar1", "--rho", 0.5, "--n", 200, "--seed", 7, "--out", out]) == 0
    for name in ("chain.csv", "running.csv", "acf.csv", "manifest.txt"):
        assert (out / name).exists()

    header, rows = read_csv(out / "chain.csv")
    assert header == ["iter", "value"]
    assert len(rows) == 200
    assert rows[0][0] == "1" and rows[0][1] == "1"  # starts at x0 = 1

    header, rows = read_csv(out / "running.csv")
    assert header == [
        "iter",
        "mean",
        "se_bm",
        "se_obm",
        "q_0.25",
        "q_0.75",
        "se_q_0.25",
        "se_q_0.75",
        "mean_lcl_obm",
        "mean_ucl_obm",
    ]
    assert len(rows) == 200
    for row in rows[:9]:
        assert row[2] == "NA" and row[3] == "NA"
        assert row[6] == "NA" and row[7] == "NA"
        assert row[8] == "NA" and row[9] == "NA"
    for row in rows[9:]:
        assert row[2] != "NA" and row[3] != "NA"

    _, chain_rows = read_csv(out / "chain.csv")
    values = np.array([float(r[1]) for r in chain_rows])
    assert abs(float(rows[-1][1]) - float(np.mean(values))) <= 1e-10

    header, acf_rows = read_csv(out / "acf.csv")
    assert header == ["lag", "r"]
    assert len(acf_rows) == int(math.floor(10 * math.log10(200))) + 1
    assert float(acf_rows[0][1]) == 1.0


def test_ar1_deterministic_and_replayable(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    args = ["ar1", "--rho", 0.95, "--n", 150, "--seed", 1976]
    assert run_cli(args + ["--out", a]) == 0
    assert run_cli(args + ["--out", b]) == 0
    for name in ("chain.csv", "running.csv", "acf.csv"):
        assert read_bytes(a / name) == read_bytes(b / name)

    replay = argv_from_manifest(a / "manifest.txt", out=str(c))
    assert run_cli(replay) == 0
    for name in ("chain.csv", "running.csv", "acf.csv"):
        assert read_bytes(a / name) == read_bytes(c / name)


def _replay_content(path):
    # a replay writes elsewhere, so the manifest's out= line is the one that may differ
    lines = read_bytes(path).splitlines(keepends=True)
    return b"".join(line for line in lines if not (path.name == "manifest.txt" and line.startswith(b"out=")))


@pytest.mark.parametrize(
    "argv",
    [
        ["tda", "--n", 150, "--seed", 100],
        ["gibbs-normal", "--n", 300, "--seed", 100],
        ["gibbs-normal", "--n", 300, "--seed", 100, "--rb-variant", "mixture"],
        ["mcse", "--method", "obm", "--probabilities", "0.5"],
        ["stop", "--target", "mean", "--rho", 0.5, "--replications", 2, "--seed", 5],
    ],
    ids=["tda", "gibbs-normal-plugin", "gibbs-normal-mixture", "mcse", "stop-mean"],
)
def test_manifest_replay_rewrites_every_file(tmp_path, argv):
    a, b = tmp_path / "a", tmp_path / "b"
    if argv[0] == "mcse":
        chain = tmp_path / "chain.csv"
        chain.write_text("".join(f"{v!r}\n" for v in Rng(3).normals(500).tolist()))
        argv = argv + ["--input", chain]
    assert run_cli(argv + ["--out", a]) == 0
    assert run_cli(argv_from_manifest(a / "manifest.txt", out=str(b))) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert len(names) > 1
    for name in names:
        assert _replay_content(a / name) == _replay_content(b / name), name


def test_tda_outputs(tmp_path):
    out = tmp_path / "t"
    assert run_cli(["tda", "--n", 150, "--seed", 100, "--out", out]) == 0
    header, rows = read_csv(out / "chain.csv")
    assert header == ["iter", "x", "y"]
    assert len(rows) == 150
    assert all(float(r[2]) > 0.0 for r in rows)

    header, rows = read_csv(out / "moments.csv")
    assert header == ["iter", "x_mean", "x2_mean", "rb_mean", "se_obm_x", "se_obm_x2", "se_obm_rb"]
    assert len(rows) == 150
    assert rows[0][4] == "NA" and rows[9][4] != "NA"
    # running second-moment columns agree with a direct recomputation
    _, chain_rows = read_csv(out / "chain.csv")
    x = np.array([float(r[1]) for r in chain_rows])
    assert float(rows[-1][2]) == pytest.approx(float(np.mean(x * x)), rel=1e-9)


def test_tda_reference_length_moments(tmp_path):
    out = tmp_path / "t2000"
    assert run_cli(["tda", "--n", 2000, "--seed", 100, "--out", out]) == 0
    header, rows = read_csv(out / "moments.csv")
    assert len(rows) == 2000
    final = dict(zip(header, rows[-1]))
    assert abs(float(final["rb_mean"]) - 2.0) < 0.25
    assert float(final["se_obm_rb"]) < float(final["se_obm_x2"])  # RB series mixes tighter


def test_gibbs_normal_outputs(tmp_path):
    out = tmp_path / "g"
    assert run_cli(["gibbs-normal", "--n", 300, "--seed", 100, "--out", out]) == 0
    header, rows = read_csv(out / "chain.csv")
    assert header == ["iter", "mu", "theta"]
    assert len(rows) == 300
    assert all(float(r[2]) > 0.0 for r in rows)

    for name in ("kde_mu.csv", "kde_theta.csv"):
        header, rows = read_csv(out / name)
        assert header == ["x", "density"]
        assert len(rows) == 512

    header, rows = read_csv(out / "kde2d.csv")
    assert header == ["x", "y", "density"]
    assert len(rows) == 2500
    assert all(float(r[2]) >= 0.0 for r in rows)

    header, rows = read_csv(out / "rb_mu.csv")
    assert header == ["x", "density"]
    assert len(rows) == 701
    assert float(rows[0][0]) == -3.0 and float(rows[-1][0]) == 4.0


def test_gibbs_normal_mixture_variant_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["gibbs-normal", "--n", 200, "--seed", 5, "--out", a])
    run_cli(["gibbs-normal", "--n", 200, "--seed", 5, "--rb-variant", "mixture", "--out", b])
    assert read_bytes(a / "chain.csv") == read_bytes(b / "chain.csv")
    assert read_bytes(a / "rb_mu.csv") != read_bytes(b / "rb_mu.csv")


@pytest.fixture
def fixture_16(tmp_path):
    path = tmp_path / "x16.csv"
    path.write_text("\n".join(str(v) for v in range(1, 17)) + "\n")
    return path


def parse_report(text):
    out = {}
    for line in text.strip().split("\n"):
        key, _, value = line.partition("=")
        out[key] = value
    return out


def test_mcse_subcommand_obm(fixture_16, capsys):
    assert run_cli(["mcse", "--input", fixture_16, "--method", "obm", "--batch", 4]) == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["se"]) == pytest.approx(2.160246899469287, rel=1e-9)
    assert report["method"] == "OBM"
    assert report["b"] == "4" and report["a"] == "13" and report["df"] == "13"
    assert float(report["mean"]) == 8.5
    assert float(report["half_width"]) == pytest.approx(
        1.3501712887800512 * 2.160246899469287, rel=1e-8
    )


def test_mcse_subcommand_bm(fixture_16, capsys):
    assert run_cli(["mcse", "--input", fixture_16, "--method", "bm", "--batch", 4]) == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["se"]) == pytest.approx(2.581988897471611, rel=1e-9)
    assert report["df"] == "3"


def test_mcse_subcommand_transform(fixture_16, capsys):
    assert run_cli(["mcse", "--input", fixture_16, "--batch", 4, "--transform", "square"]) == 0
    report = parse_report(capsys.readouterr().out)
    x = np.arange(1.0, 17.0)
    from mcmc_confidence import mcse_bm

    assert float(report["se"]) == pytest.approx(mcse_bm(x, 4, np.square).se, rel=1e-9)


def test_mcse_subcommand_quantiles(fixture_16, capsys):
    assert run_cli(["mcse", "--input", fixture_16, "--probabilities", "0.25,0.75"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert report["method"] == "subsampling"
    assert float(report["q_0.25"]) == 4.0
    assert float(report["q_0.75"]) == 12.0
    assert float(report["se_q_0.25"]) > 0.0


def test_mcse_subcommand_header_row(tmp_path, capsys):
    path = tmp_path / "with_header.csv"
    path.write_text("value\n" + "\n".join(str(v) for v in range(1, 17)) + "\n")
    assert run_cli(["mcse", "--input", path, "--method", "obm", "--batch", 4]) == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["se"]) == pytest.approx(2.160246899469287, rel=1e-9)


def test_mcse_subcommand_insufficient_samples(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("1\n2\n3\n4\n5\n")
    assert run_cli(["mcse", "--input", path]) == 2
    assert "insufficient samples" in capsys.readouterr().err


def test_mcse_subcommand_writes_report(fixture_16, tmp_path, capsys):
    out = tmp_path / "report"
    assert run_cli(["mcse", "--input", fixture_16, "--batch", 4, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert (out / "report.txt").read_text() == stdout
    assert (out / "manifest.txt").exists()


def test_stop_mean_single_run(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["stop", "--target", "mean", "--rho", 0.95, "--seed", 1976, "--out", out]) == 0
    header, rows = read_csv(out / "results.csv")
    assert header == ["replicate", "terminal_n", "half", "estimate", "converged", "covered"]
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["converged"] == "true"
    assert float(row["half"]) <= 0.1
    assert (int(row["terminal_n"]) - 2000) % 1000 == 0
    assert not (out / "summary.csv").exists()


def test_stop_replication_summary(tmp_path):
    out = tmp_path / "r"
    assert (
        run_cli(
            ["stop", "--rho", 0.5, "--replications", 200, "--seed", 11, "--out", out]
        )
        == 0
    )
    header, rows = read_csv(out / "results.csv")
    assert len(rows) == 200
    assert [r[0] for r in rows] == [str(i) for i in range(200)]

    header, rows = read_csv(out / "summary.csv")
    summary = dict(zip(header, rows[0]))
    assert summary["replications"] == "200"
    assert summary["converged_count"] == "200"
    assert 0.74 <= float(summary["coverage"]) <= 0.86
    assert int(summary["terminal_n_min"]) >= 2000
    assert int(summary["terminal_n_median"]) >= int(summary["terminal_n_min"])


def test_stop_quantiles_schema(tmp_path):
    plain, bonf = tmp_path / "q", tmp_path / "qb"
    args = ["stop", "--target", "quantiles", "--rho", 0.5, "--seed", 3]
    assert run_cli(args + ["--out", plain]) == 0
    assert run_cli(args + ["--bonferroni", "--out", bonf]) == 0

    header, rows = read_csv(plain / "results.csv")
    assert header == [
        "replicate",
        "probability",
        "terminal_n",
        "half",
        "estimate",
        "converged",
        "covered",
    ]
    assert [r[1] for r in rows] == ["0.25", "0.75"]

    _, bonf_rows = read_csv(bonf / "results.csv")
    assert int(bonf_rows[0][2]) >= int(rows[0][2])  # never stops earlier
    if int(bonf_rows[0][2]) == int(rows[0][2]):
        for r_plain, r_bonf in zip(rows, bonf_rows):
            assert float(r_bonf[3]) > float(r_plain[3])  # wider at the same length


def test_stop_manifest_replay(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["stop", "--rho", 0.5, "--replications", 20, "--seed", 5, "--out", a]) == 0
    replay = argv_from_manifest(a / "manifest.txt", out=str(b))
    assert run_cli(replay) == 0
    assert read_bytes(a / "results.csv") == read_bytes(b / "results.csv")
    assert read_bytes(a / "summary.csv") == read_bytes(b / "summary.csv")


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        run_cli(["ar1", "--bogus-flag", 1])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 1


def test_domain_errors_exit_two(tmp_path, capsys):
    # a data error writes nothing, wherever in the run it is found
    bad = tmp_path / "bad.csv"
    bad.write_text("value\n1\nx\n")
    overflow = (errno.ERANGE, os.strerror(errno.ERANGE))
    # finite values whose squares overflow
    big = tmp_path / "big.csv"
    big.write_text("".join(f"{v!r}\n" for v in (-1e200 * np.cos(np.arange(2000.0))).tolist()))
    sigma2 = "sigma2 overflows the float range: the chain's squared deviations are too large (batch size {})"
    cases = [
        (["ar1", "--rho", 1.5], "need |rho| < 1 for stationarity, got 1.5"),
        (["gibbs-normal", "--m", 2], "sample size m must be at least 3, got 2"),
        (["stop", "--epsilon", -1], "target half-width epsilon must be positive, got -1.0"),
        (["stop", "--epsilon", "nan"], "target half-width epsilon must be positive, got nan"),
        (["gibbs-normal", "--n", 1], "density estimation needs at least two samples"),
        (["gibbs-normal", "--n", 3, "--s2", 1e-300], "sample is constant; kernel bandwidth would be zero"),
        (["ar1", "--n", 50, "--rho", 0.9, "--tau", 1e308], "chain holds a non-finite value (inf) at index 8"),
        (["gibbs-normal", "--n", 50, "--y-bar", 1e300], str(overflow)),
        (["mcse", "--input", bad], f"{bad}:3: cannot parse 'x' as a number"),
        (["ar1", "--n", 50, "--rho", 0.9, "--tau", 1e200], sigma2.format(3)),
        (["stop", "--tau", 1e300, "--pilot", 2000, "--max-n", 4000], sigma2.format(44)),
        (["stop", "--target", "quantiles", "--tau", 1e300, "--pilot", 2000, "--max-n", 4000], sigma2.format(44)),
        (["mcse", "--input", big, "--method", "obm"], sigma2.format(44)),
        (["mcse", "--input", big, "--method", "bm", "--transform", "square"],
         "transform overflows or is undefined at index 0: g(-1e+200) = inf"),
        (["mcse", "--input", big, "--probabilities", 0.5], sigma2.format(44)),
    ]
    for k, (argv, message) in enumerate(cases):
        out = tmp_path / str(k)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(argv + ["--out", out]) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists(), argv


def test_io_errors_exit_three(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    assert run_cli(["ar1", "--n", 50, "--out", blocker / "sub"]) == 3
    assert run_cli(["mcse", "--input", tmp_path / "missing.csv"]) == 3


def test_help_exits_zero():
    for argv in (["--help"], ["ar1", "--help"], ["stop", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 0


def test_default_flags_reproduce_reference_settings():
    from mcmc_confidence.cli import build_parser

    parser = build_parser()
    ar1 = parser.parse_args(["ar1"])
    assert (ar1.rho, ar1.tau, ar1.n, ar1.seed) == (0.5, 1.0, 2000, 1976)
    assert ar1.probabilities == (0.25, 0.75)
    tda = parser.parse_args(["tda"])
    assert (tda.n, tda.seed) == (2000, 100)
    gibbs = parser.parse_args(["gibbs-normal"])
    assert (gibbs.m, gibbs.y_bar, gibbs.s2, gibbs.n, gibbs.seed) == (11, 1.0, 4.0, 2000, 100)
    stop = parser.parse_args(["stop"])
    assert (stop.rho, stop.epsilon, stop.level, stop.pilot, stop.max_n) == (
        0.95,
        0.1,
        0.9,
        2000,
        200_000,
    )
    assert stop.step is None  # resolved per target: 1000 for mean, 2000 for quantiles


def test_manifest_records_resolved_defaults(tmp_path):
    out = tmp_path / "m"
    run_cli(["gibbs-normal", "--n", 50, "--out", out])
    text = (out / "manifest.txt").read_text()
    assert "command=gibbs-normal" in text
    assert "m=11" in text
    assert "y_bar=1.0" in text
    assert "s2=4.0" in text
    assert "rb_variant=plugin" in text


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_mcse_subcommand_rejects_non_finite_values(tmp_path, capsys, token):
    path = tmp_path / "bad.csv"
    rows = [str(v) for v in range(1, 41)]
    rows[37] = token
    path.write_text("\n".join(rows) + "\n")
    for extra in ([], ["--probabilities", "0.5"]):
        assert run_cli(["mcse", "--input", path] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:38: non-finite value" in captured.err


@pytest.mark.parametrize("count", [-3, 0])
def test_stop_replications_below_one_is_a_usage_error(tmp_path, count):
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as exc:
        run_cli(["stop", "--replications", count, "--out", out])
    assert exc.value.code == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["ar1", "tda", "gibbs-normal"])
@pytest.mark.parametrize("count", [-5, 0])
def test_chain_length_below_one_is_a_usage_error(tmp_path, command, count):
    out = tmp_path / "n"
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--n", count, "--out", out])
    assert exc.value.code == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--y-bar", "--s2"])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_gibbs_normal_rejects_non_finite_statistics(tmp_path, capsys, flag, token):
    out = tmp_path / "g"
    assert run_cli(["gibbs-normal", f"{flag}={token}", "--n", 50, "--out", out]) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["ar1", "--n", 50], ["stop"]])
@pytest.mark.parametrize("token", ["nan", "inf"])
def test_non_finite_tau_writes_nothing(tmp_path, capsys, argv, token):
    out = tmp_path / "t"
    assert run_cli(argv + [f"--tau={token}", "--out", out]) == 2
    assert "tau" in capsys.readouterr().err
    assert not out.exists()


def test_stop_quantile_without_a_true_value_writes_nothing(tmp_path, capsys):
    out = tmp_path / "q"
    assert run_cli(["stop", "--target", "quantiles", "--probabilities", "0.5,1", "--out", out]) == 2
    assert "probability" in capsys.readouterr().err
    assert not out.exists()


def test_every_csv_artifact_goes_through_write_csv(tmp_path, monkeypatch):
    # the benchmark's write counter wraps cli.write_csv by name and reads its path argument
    from mcmc_confidence import cli

    assert next(iter(inspect.signature(cli.write_csv).parameters)) == "path"
    written = []
    real = cli.write_csv

    def counting(path, *args, **kwargs):
        written.append(os.path.abspath(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(cli, "write_csv", counting)
    runs = [
        ["ar1", "--n", 60],
        ["tda", "--n", 60],
        ["gibbs-normal", "--n", 60],
        ["stop", "--replications", 2, "--max-n", 4000],
    ]
    for k, argv in enumerate(runs):
        out = tmp_path / str(k)
        assert run_cli(argv + ["--out", out]) == 0
        files = {os.path.abspath(out / name) for name in os.listdir(out) if name != "manifest.txt"}
        assert files and files == set(written)
        written.clear()


@pytest.mark.parametrize("extra", [[], ["--method", "obm"], ["--probabilities", "0.25,0.75"]])
def test_mcse_subcommand_computes_each_estimator_once(fixture_16, capsys, monkeypatch, extra):
    from mcmc_confidence import cli, mcse

    calls = []
    for name in ("mcse_bm", "mcse_obm", "subsample_quantile_se"):
        real = getattr(mcse, name)

        def counting(*args, _real=real, **kwargs):
            calls.append(_real.__name__)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mcse, name, counting)
        monkeypatch.setattr(cli, name, counting, raising=False)
    assert run_cli(["mcse", "--input", fixture_16, "--batch", 4] + extra) == 0
    assert len(calls) == 1


_STOP_SMALL = ["--rho", 0.5, "--max-n", 2000]


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["ar1", "--n", 50], ["command=ar1", "rho=0.5", "tau=1.0", "n=50", "seed=1976",
                              "probabilities=0.25,0.75"]),
        (["tda", "--n", 50, "--seed", 18446744073709551615],
         ["command=tda", "n=50", "seed=18446744073709551615"]),
        (["gibbs-normal", "--n", 50, "--y-bar", 2, "--rb-variant", "mixture"],
         ["command=gibbs-normal", "m=11", "y_bar=2.0", "s2=4.0", "n=50", "seed=100", "rb_variant=mixture"]),
        (["mcse", "--input", "IN", "--batch", 4],
         ["command=mcse", "input=IN", "method=bm", "batch=4", "transform=id"]),
        (["mcse", "--input", "IN", "--method", "obm", "--probabilities", "0.1,0.5"],
         ["command=mcse", "input=IN", "method=obm", "batch=sqroot", "transform=id", "probabilities=0.1,0.5"]),
        (["stop", *_STOP_SMALL],
         ["command=stop", "target=mean", "rho=0.5", "tau=1.0", "epsilon=0.1", "level=0.9", "step=1000",
          "pilot=2000", "max_n=2000", "bonferroni=false", "probabilities=0.25,0.75", "replications=1",
          "seed=1976"]),
        (["stop", "--target", "quantiles", *_STOP_SMALL],
         ["command=stop", "target=quantiles", "rho=0.5", "tau=1.0", "epsilon=0.1", "level=0.9", "step=2000",
          "pilot=2000", "max_n=2000", "bonferroni=false", "probabilities=0.25,0.75", "replications=1",
          "seed=1976"]),
        (["stop", "--target", "quantiles", "--bonferroni", "--step", 300, "--replications", 2, *_STOP_SMALL],
         ["command=stop", "target=quantiles", "rho=0.5", "tau=1.0", "epsilon=0.1", "level=0.9", "step=300",
          "pilot=2000", "max_n=2000", "bonferroni=true", "probabilities=0.25,0.75", "replications=2",
          "seed=1976"]),
    ],
)
def test_manifest_text_is_pinned(tmp_path, fixture_16, argv, lines):
    # the exact text, flag order included: replay and byte identity depend on it
    out = tmp_path / "m"
    argv = [fixture_16 if a == "IN" else a for a in argv]
    lines = [f"input={fixture_16}" if line == "input=IN" else line for line in lines]
    assert run_cli(argv + ["--out", out]) == 0
    assert (out / "manifest.txt").read_text(encoding="utf-8") == "\n".join(lines + [f"out={out}"]) + "\n"


@pytest.mark.parametrize("seed", [-1, 2**64, "1.5"])
@pytest.mark.parametrize("command", ["ar1", "tda", "gibbs-normal", "stop"])
def test_bad_seed_is_a_usage_error(tmp_path, capsys, command, seed):
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--seed", seed, "--out", out])
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["mcse", "--batch", "foo"], "--batch"),
        (["mcse", "--batch", "1.5"], "--batch"),
        (["mcse", "--batch", "inf"], "--batch"),
        (["mcse", "--batch", "nan"], "--batch"),
        (["stop", "--step", 0], "--step"),
        (["stop", "--pilot", 5], "--pilot"),
        (["ar1", "--n", 50, "--probabilities", "0,0.5"], "--probabilities"),
        (["ar1", "--probabilities", "0.5,nan"], "--probabilities"),
        (["stop", "--probabilities", "-0.25"], "--probabilities"),
        (["mcse", "--probabilities", "1.5"], "--probabilities"),
    ],
)
def test_bad_batch_step_or_pilot_is_a_usage_error(tmp_path, capsys, argv, flag):
    # the input does not exist: a usage error must be found before it is read
    if argv[0] == "mcse":
        argv = argv + ["--input", tmp_path / "missing.csv"]
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--out", out])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("batch", ["2", "4.5", "cuberoot"])
def test_batch_is_recorded_as_typed(tmp_path, fixture_16, capsys, batch):
    out = tmp_path / "m"
    assert run_cli(["mcse", "--input", fixture_16, "--batch", batch, "--out", out]) == 0
    assert f"batch={batch}\n" in capsys.readouterr().out
    assert f"batch={batch}\n" in (out / "manifest.txt").read_text(encoding="utf-8")


def test_mcse_takes_no_seed(tmp_path, fixture_16, capsys):
    out = tmp_path / "m"
    with pytest.raises(SystemExit) as exc:
        run_cli(["mcse", "--input", fixture_16, "--seed", 5, "--out", out])
    assert exc.value.code == 1
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_stop_replicate_seeds_wrap_past_the_largest_seed(tmp_path):
    # replicate i runs Rng(seed).spawn(i): seed 2**64 - 1 is followed by seed 0
    last, zero = tmp_path / "last", tmp_path / "zero"
    assert run_cli(["stop", "--seed", 2**64 - 1, "--replications", 2, *_STOP_SMALL, "--out", last]) == 0
    assert run_cli(["stop", "--seed", 0, *_STOP_SMALL, "--out", zero]) == 0
    _, rows = read_csv(last / "results.csv")
    _, zero_rows = read_csv(zero / "results.csv")
    assert rows[1][0] == "1" and rows[1][1:] == zero_rows[0][1:]
    assert rows[0][1:] != zero_rows[0][1:]


@pytest.mark.parametrize("target", ["mean", "quantiles"])
def test_stop_rows_match_direct_stopping_runs(tmp_path, target):
    # each row against the library rule run on that replicate's stream and the analytic truth
    from mcmc_confidence import (Ar1Params, Ar1Source, Rng, StoppingConfig, fixed_width_mean,
                                 fixed_width_quantiles, normal_quantile)
    from mcmc_confidence.cli import format_value

    out = tmp_path / "s"
    assert run_cli(["stop", "--target", target, "--rho", 0.5, "--replications", 3, "--seed", 9, "--out", out]) == 0
    _, rows = read_csv(out / "results.csv")
    source = Ar1Source(Ar1Params(0.5))
    sd = 1.0 / math.sqrt(1.0 - 0.25)
    expected = []
    for i in range(3):
        if target == "mean":
            res = fixed_width_mean(source, StoppingConfig(step=1000), Rng(9).spawn(i))
            truths = [(None, 0.0)]
        else:
            res = fixed_width_quantiles(source, (0.25, 0.75), StoppingConfig(step=2000), Rng(9).spawn(i))
            truths = [(p, normal_quantile(p) * sd) for p in (0.25, 0.75)]
        for (p, truth), est, half in zip(truths, res.estimates, res.half_widths):
            row = [i, p, res.terminal_n, half, est, res.converged, abs(est - truth) <= half]
            expected.append([format_value(v) for v in row if v is not None])
    assert rows == expected


def test_pooled_stop_writes_the_same_bytes_as_serial_stop(tmp_path, monkeypatch):
    from mcmc_confidence import cli

    pools = []
    real_pool = cli.concurrent.futures.ProcessPoolExecutor

    def recording_pool(*args, **kwargs):
        pools.append(kwargs)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", recording_pool)
    # several checks per replicate (terminal n from 4000 to 8000)
    argv = ["stop", "--target", "quantiles", "--rho", 0.8, "--replications", 16, "--seed", 21]
    pooled, serial = tmp_path / "pooled", tmp_path / "serial"
    assert run_cli(argv + ["--out", pooled]) == 0
    if (os.cpu_count() or 1) > 1:
        # every worker sets the heap thresholds itself, whatever its start method
        assert pools == [{"initializer": cli._keep_freed_heap}]
    pooled_runs = len(pools)
    monkeypatch.setattr(cli, "_POOL_MIN_REPLICATIONS", 17)
    assert run_cli(argv + ["--out", serial]) == 0
    assert len(pools) == pooled_runs  # the serial run made no pool
    for name in ("results.csv", "summary.csv"):
        assert read_bytes(pooled / name) == read_bytes(serial / name)


class _LibcWithoutMallopt:
    def __init__(self, name):
        pass


def _libc_missing(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_LibcWithoutMallopt, _libc_missing])
def test_heap_settings_fall_back_without_mallopt(tmp_path, monkeypatch, cdll):
    from mcmc_confidence import cli

    ref, out = tmp_path / "ref", tmp_path / "out"
    assert run_cli(["ar1", "--n", 200, "--out", ref]) == 0
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli._keep_freed_heap() == ()
    assert run_cli(["ar1", "--n", 200, "--out", out]) == 0
    for name in ("chain.csv", "running.csv", "acf.csv"):
        assert read_bytes(ref / name) == read_bytes(out / name)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt's return values are glibc's")
def test_glibc_takes_both_heap_settings():
    # mallopt returns 0, and leaves the setting alone, for a value over its glibc's limit
    # (an mmap threshold above 32 MiB on older 64-bit glibc)
    from mcmc_confidence import cli

    assert cli._keep_freed_heap() == (1, 1)
