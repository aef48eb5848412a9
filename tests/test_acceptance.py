"""End-to-end acceptance checks for the package's core guarantees.

Each test prints one PASS/FAIL line (run ``pytest -s tests/test_acceptance.py``
to see them) and asserts the stated tolerance. Statistical checks run on
pinned seeds so the whole suite is deterministic.
"""

import math

import numpy as np

from mcmc_confidence import (
    Ar1Params,
    Ar1Source,
    Rng,
    StoppingConfig,
    ar1_run,
    ci_mean,
    ci_quantiles,
    fixed_width_mean,
    mcse_bm,
    mcse_obm,
    nv_gibbs_run,
    NormalPosteriorParams,
    quantiles_type1,
    subsample_quantile_se,
    t_cdf,
    t_quantile,
    tda_run,
)
from mcmc_confidence.cli import argv_from_manifest, main as cli_main


def report(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name}: {detail}"


def test_01_estimator_oracles():
    x16 = np.arange(1.0, 17.0)
    bm = mcse_bm(x16, 4).se
    obm = mcse_obm(x16, 4).se
    sub = float(subsample_quantile_se(x16, (0.5,)).ses[0])
    q25, q75 = quantiles_type1(np.arange(1.0, 11.0), (0.25, 0.75))

    bm_expect = math.sqrt(320.0 / 3.0 / 16.0)
    obm_expect = math.sqrt(16.0 * 4.0 * 182.0 / (12.0 * 13.0) / 16.0)
    ok = (
        abs(bm / bm_expect - 1.0) <= 1e-9
        and abs(obm / obm_expect - 1.0) <= 1e-9
        and abs(sub / obm_expect - 1.0) <= 1e-9
        and q25 == 3.0
        and q75 == 8.0
    )
    report(
        "01 estimator oracles",
        ok,
        f"bm={bm:.10f} obm={obm:.10f} sub={sub:.10f} q=({q25:g},{q75:g})",
    )


def test_02_long_run_variance_recovery():
    n = 10**5
    details = []
    ok = True
    for rho, target, tol, base in ((0.5, 2.0, 0.10, 52_000), (0.95, 20.0, 0.20, 95_000)):
        params = Ar1Params(rho)
        scaled = [
            mcse_obm(ar1_run(n, params, Rng(base + i)).values).se * math.sqrt(n)
            for i in range(20)
        ]
        avg = float(np.mean(scaled))
        ok = ok and abs(avg / target - 1.0) <= tol
        details.append(f"rho={rho}: {avg:.3f} vs {target}")
    report("02 long-run variance recovery", ok, "; ".join(details))


def test_03_mean_interval_coverage():
    covered = 0
    reps = 500
    params = Ar1Params(0.5)
    for i in range(reps):
        chain = ar1_run(2000, params, Rng(530_000 + i))
        iv = ci_mean(chain.values, "OBM", level=0.9)
        if iv.lower <= 0.0 <= iv.upper:
            covered += 1
    rate = covered / reps
    report("03 mean interval coverage", 0.75 <= rate <= 0.85, f"coverage={rate:.3f} over {reps}")


def test_04_quantile_interval_coverage():
    reps = 300
    params = Ar1Params(0.5)
    sd = math.sqrt(1.0 / (1.0 - 0.25))
    truth = {0.25: -0.6744897501960817 * sd, 0.75: 0.6744897501960817 * sd}
    covered = {0.25: 0, 0.75: 0}
    for i in range(reps):
        chain = ar1_run(4000, params, Rng(640_000 + i))
        for iv in ci_quantiles(chain.values, (0.25, 0.75), level=0.9):
            if iv.lower <= truth[iv.probability] <= iv.upper:
                covered[iv.probability] += 1
    rates = {p: c / reps for p, c in covered.items()}
    ok = all(0.72 <= r <= 0.88 for r in rates.values())
    report(
        "04 quantile interval coverage",
        ok,
        f"q25={rates[0.25]:.3f} q75={rates[0.75]:.3f} over {reps}",
    )


def test_05_fixed_width_stopping():
    source = Ar1Source(Ar1Params(0.95))
    config = StoppingConfig(epsilon=0.1, level=0.9, step=1000, pilot_n=2000, max_n=200_000)
    terminals, halves, covers = [], [], []
    for i in range(20):
        res = fixed_width_mean(source, config, Rng(751_000 + i))
        assert res.converged
        terminals.append(res.terminal_n)
        halves.append(res.half_width)
        covers.append(abs(float(res.estimates[0])) <= res.half_width)
    median_n = quantiles_type1(np.array(terminals, dtype=float), (0.5,))[0]
    cover_rate = sum(covers) / len(covers)
    ok = (
        all(h <= 0.1 for h in halves)
        and 35_000 <= median_n <= 120_000
        and cover_rate >= 0.70
    )
    report(
        "05 fixed-width stopping",
        ok,
        f"median N={median_n:.0f}, max half={max(halves):.4f}, coverage={cover_rate:.2f}",
    )


def test_06_t4_target_moments():
    n = 10**5
    means_x, means_x2, means_rb = [], [], []
    for i in range(5):
        vals = tda_run(n, Rng(860_000 + i)).values
        means_x.append(float(np.mean(vals[:, 0])))
        means_x2.append(float(np.mean(vals[:, 0] ** 2)))
        means_rb.append(float(np.mean(1.0 / vals[:, 1])))
    m_x = float(np.mean(means_x))
    m_x2 = float(np.mean(means_x2))
    m_rb = float(np.mean(means_rb))
    ok = abs(m_x) < 0.03 and abs(m_x2 - 2.0) < 0.1 and abs(m_rb - 2.0) < 0.07
    report(
        "06 t4 target moments",
        ok,
        f"mean(x)={m_x:.4f}, mean(x^2)={m_x2:.4f}, mean(1/y)={m_rb:.4f}",
    )


def ig_mean_by_quadrature(shape, scale):
    """E[theta] for the inverse gamma via quadrature on the precision scale."""
    ln_norm = shape * math.log(scale) - math.lgamma(shape)

    def integrand(u):  # theta = 1/u; E[theta] = int u^(shape-2) e^(-scale u) ...
        return math.exp(ln_norm + (shape - 2.0) * math.log(u) - scale * u)

    grid = np.linspace(1e-9, 3.0, 400_001)
    vals = np.array([integrand(float(u)) for u in grid])
    return float(np.trapezoid(vals, grid))


def test_07_conjugate_posterior_moments():
    # independent quadrature oracle for the marginal posterior mean of theta
    oracle = ig_mean_by_quadrature(4.5, 22.0)
    assert abs(oracle - 44.0 / 7.0) < 1e-6

    chain = nv_gibbs_run(10**5, NormalPosteriorParams(m=11, y_bar=1.0, s2=4.0), Rng(970_000))
    m_mu = float(np.mean(chain.values[:, 0]))
    m_theta = float(np.mean(chain.values[:, 1]))
    ok = abs(m_mu - 1.0) < 0.03 and abs(m_theta - 44.0 / 7.0) < 0.2
    report(
        "07 conjugate posterior moments",
        ok,
        f"mean(mu)={m_mu:.4f} (target 1), mean(theta)={m_theta:.4f} (target {44/7:.4f})",
    )


def test_08_special_functions():
    worst = 0.0
    for df in (1.0, 2.0, 5.0, 44.0, 1954.0):
        for i in range(1, 100):
            p = i / 100.0
            worst = max(worst, abs(t_cdf(t_quantile(p, df), df) - p))
    cauchy_err = abs(t_quantile(0.9, 1.0) - math.tan(0.4 * math.pi))
    ok = worst <= 1e-9 and cauchy_err <= 1e-6
    report(
        "08 special functions",
        ok,
        f"round-trip worst={worst:.2e}, cauchy error={cauchy_err:.2e}",
    )


def test_09_cli_determinism(tmp_path):
    outs = [tmp_path / name for name in ("a", "b", "c")]
    args = ["ar1", "--rho", "0.95", "--n", "400", "--seed", "1976"]
    assert cli_main(args + ["--out", str(outs[0])]) == 0
    assert cli_main(args + ["--out", str(outs[1])]) == 0
    replay = argv_from_manifest(str(outs[0] / "manifest.txt"), out=str(outs[2]))
    assert cli_main(replay) == 0

    identical = True
    for name in ("chain.csv", "running.csv", "acf.csv"):
        blobs = [(out / name).read_bytes() for out in outs]
        identical = identical and blobs[0] == blobs[1] == blobs[2]

    stop_outs = [tmp_path / name for name in ("s1", "s2")]
    stop_args = ["stop", "--rho", "0.5", "--replications", "20", "--seed", "7"]
    assert cli_main(stop_args + ["--out", str(stop_outs[0])]) == 0
    replay = argv_from_manifest(str(stop_outs[0] / "manifest.txt"), out=str(stop_outs[1]))
    assert cli_main(replay) == 0
    for name in ("results.csv", "summary.csv"):
        identical = identical and (stop_outs[0] / name).read_bytes() == (stop_outs[1] / name).read_bytes()

    report("09 CLI determinism", identical, "repeat and manifest replay byte-identical")


def test_10_rao_blackwell_variance_reduction():
    std_estimates, rb_estimates = [], []
    for i in range(100):
        vals = tda_run(2000, Rng(100_500 + i)).values
        std_estimates.append(float(np.mean(vals[:, 0] ** 2)))
        rb_estimates.append(float(np.mean(1.0 / vals[:, 1])))
    var_std = float(np.var(std_estimates, ddof=1))
    var_rb = float(np.var(rb_estimates, ddof=1))
    report(
        "10 Rao-Blackwell variance reduction",
        var_rb < var_std,
        f"var(RB)={var_rb:.5f} < var(Std)={var_std:.5f}",
    )
