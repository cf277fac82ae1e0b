"""Layer timings at n = 2, 10, 100 and 1000 (ROADMAP Direction 1).

Times each layer entry point on the contest used by the ROADMAP's
baseline table (prizes linearly spaced from 1 to 0, cost
``linear:c0=0.25,slope=1``) and prints a markdown table in ms, the best
of a few repeats.  Run from the root of a source checkout:

    python3 bench/baseline.py

It takes a few minutes, nearly all of it in the grid-route quality
integrals at n = 1000.  The simulator runs 1,000 trials instead of the
table's 10,000, and not at n = 1000, to keep its memory near 160 MB.
"""

import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import rankcontest as rc  # noqa: E402

SIZES = (2, 10, 100, 1000)
COST = rc.LinearCost(c0=0.25, slope=1.0)


def best_ms(fn, budget_s=2.0, most=5) -> float:
    """Best of up to ``most`` calls, fewer when one call is slow."""
    times = []
    started = time.perf_counter()
    while len(times) < most and (not times or time.perf_counter() - started < budget_s):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def layer_rows():
    rows = {}
    for n in SIZES:
        rewards = rc.RewardVector(tuple(np.linspace(1.0, 0.0, n)))
        sol = rc.solve(rewards, COST)
        q = np.linspace(0.0, sol.qbar, 512)
        u = np.linspace(0.0, 1.0, 512)
        cells = {
            "`solve`": lambda: rc.solve(rewards, COST),
            "`pressure`, 512 points": lambda: sol.pressure(q),
            "`quantile`, 512 points": lambda: sol.quantile(u),
            "`expected_max_quality`, default grid route": lambda: rc.expected_max_quality(sol),
            "`expected_max_quality`, substitution route":
                lambda: rc.expected_max_quality(sol, method="substitution"),
            "`contest_metrics`": lambda: rc.contest_metrics(sol),
        }
        if n < 1000:
            cells["`run`, 1k trials"] = lambda: rc.run(sol, 1000, 1)
        for name, fn in cells.items():
            rows.setdefault(name, {})[n] = best_ms(fn)
            print(f"n={n} {name}: {rows[name][n]:.3g} ms", file=sys.stderr)
    return rows


def design_rows():
    caps = rc.AttentionCaps((1.0, 0.5, 0.4))
    return {
        "`budget_matched_derivative`, 3-rank winner-take-all":
            best_ms(lambda: rc.budget_matched_derivative(rc.winner_take_all(3, 1.0), COST, 2)),
        "`attention_certificate`, 3 ranks":
            best_ms(lambda: rc.attention_certificate(caps, rc.LinearCost(c0=0.3, slope=1.0))),
        "`wta_dominance_trial`, n=4, 20 trials":
            best_ms(lambda: rc.wta_dominance_trial(4, 1.0, COST, 20, 1)),
    }


def main():
    print("| layer | " + " | ".join(f"n={n}" for n in SIZES) + " |")
    print("| --- |" + " --- |" * len(SIZES))
    for name, by_n in layer_rows().items():
        cells = [f"{by_n[n]:,.3g}" if n in by_n else "not run" for n in SIZES]
        print(f"| {name} | " + " | ".join(cells) + " |")
    print()
    for name, ms in design_rows().items():
        print(f"- {name}: {ms:,.3g} ms")


if __name__ == "__main__":
    main()
