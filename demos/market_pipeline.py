"""End-to-end daily-data pipeline on the bundled market-like fixture.

Mirrors a study of volatility versus traded volume: absolute returns proxy
volatility, volumes are detrended into relative deviations from their
trailing two-year average, and the pair is estimated with the real-data
preset (tau_max varied 5..20, q in [0.1, 3], linear filtering).

Uses the CLI entry points end to end; run from the repository root.
"""

import sys
import tempfile
from pathlib import Path

from mfhxa.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
PRICES = FIXTURES / "market_prices.csv"
VOLUMES = FIXTURES / "market_volumes.csv"

if not PRICES.exists():
    sys.exit("fixture missing; run demos/make_market_fixture.py first")

with tempfile.TemporaryDirectory(prefix="mfhxa_market_") as tmp:
    work = Path(tmp)
    volatility = work / "volatility.csv"
    activity = work / "volume_deviation.csv"

    print(f"working directory (removed at exit): {work}")
    assert main(["transform", "abs-returns", "--in", str(PRICES),
                 "--out", str(volatility)]) == 0
    assert main(["transform", "volume-deviation", "window=500", "--in", str(VOLUMES),
                 "--out", str(activity)]) == 0
    print("transforms written: volatility (abs log returns), "
          "volume relative deviation (window 500)")

    # the transformed series are stationary activity measures; input=increments
    # integrates them to a profile before the lagged differences are taken
    prefix = work / "market"
    code = main(["estimate", "preset=real", "input=increments", "--in", str(volatility),
                 "--in", str(activity), "--out", str(prefix)])
    print(f"estimate exit code: {code}")

    print(f"\ncurve table ({prefix}.curve.tsv), every third q:")
    lines = [l for l in Path(f"{prefix}.curve.tsv").read_text().splitlines()
             if not l.startswith("#")]
    print(lines[0])
    for line in lines[1::3]:
        print(line)
    print("\nColumns h_x (volatility), h_y (volume) and h_xy are the univariate and"
          "\njoint exponents; values above 0.5 indicate persistence, and h_avg inside"
          "\n[ci_low, ci_high] means the joint scaling is explained by the separate"
          "\nprocesses plus their correlation.")
