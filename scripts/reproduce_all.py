#!/usr/bin/env python3
"""Run the full bundled experiment set and drop every CSV under --out.

Covers the AR(1) running-estimate studies at both persistence levels, the
data-augmentation sampler for the 4-df t target, the normal mean/variance
Gibbs sampler with its density estimates, and the fixed-width stopping run
for the mean. The quantile stopping runs (plain and Bonferroni) add about
8 s on a 2-vCPU Xeon (0.3-0.5 s and 7-9 s), almost all of it the Bonferroni
run, whose chain grows to 266k states with a window-quantile check every
2000, so they only run with --full.

Each output directory contains a manifest.txt; replaying a manifest
reproduces its CSVs byte for byte.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mcmc_confidence.cli import main as cli_main  # noqa: E402


def run(argv):
    print(f"$ mcmc-confidence {' '.join(argv)}")
    start = time.perf_counter()
    rc = cli_main(argv)
    print(f"  -> exit {rc} in {time.perf_counter() - start:.1f}s")
    if rc != 0:
        sys.exit(rc)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="root directory for all experiment output")
    parser.add_argument("--full", action="store_true",
                        help="also run the long quantile stopping studies")
    args = parser.parse_args()
    root = Path(args.out)

    run(["ar1", "--rho", "0.5", "--seed", "1976", "--out", str(root / "ar1-rho05")])
    run(["ar1", "--rho", "0.95", "--seed", "1976", "--out", str(root / "ar1-rho95")])
    run(["tda", "--seed", "100", "--out", str(root / "tda")])
    run(["gibbs-normal", "--seed", "100", "--out", str(root / "gibbs-normal")])
    run(["gibbs-normal", "--seed", "100", "--rb-variant", "mixture",
         "--out", str(root / "gibbs-normal-mixture")])
    run(["stop", "--target", "mean", "--rho", "0.95", "--seed", "1976",
         "--out", str(root / "stop-mean")])

    if args.full:
        run(["stop", "--target", "quantiles", "--rho", "0.95", "--seed", "1976",
             "--out", str(root / "stop-quantiles")])
        # the simultaneous-coverage run needs a little more than the default
        # 200k budget at this persistence level
        run(["stop", "--target", "quantiles", "--rho", "0.95", "--seed", "1976",
             "--level", "0.975", "--bonferroni", "--max-n", "400000",
             "--out", str(root / "stop-quantiles-bonferroni")])

    print(f"done; everything under {root}/")


if __name__ == "__main__":
    main()
