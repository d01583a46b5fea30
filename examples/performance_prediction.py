#!/usr/bin/env python
"""Performance prediction without sorting anything.

Implements the paper's stated future work ("developing a formula ... to
predict performance for each programming model"): closed-form per-model
time predictions for uniform random keys, instantly, for any (n, p, r) --
including configurations far beyond what the paper measured.

Run:  python examples/performance_prediction.py
"""

import repro
from repro.machine.costs import DEFAULT_COSTS
from repro.predict import predict_outcome, sequential_time_ns, uniform_stats
from repro.report import format_table
from repro.sorts.radix import default_machine

MODELS = ["ccsas", "ccsas-new", "mpi-new", "mpi-sgi", "shmem"]


def predict_time(model: str, n: int, p: int, radix: int) -> float:
    """Closed-form radix-sort time (ns) for n uniform keys on p procs."""
    stats = uniform_stats("radix", n, p, radix)
    return predict_outcome(stats, model, machine=default_machine(p)).time_ns


def main() -> None:
    rows = []
    for label in ("1M", "16M", "256M"):
        n = repro.SIZES[label]
        for p in (16, 64):
            row = [f"{label}/{p}p"]
            for m in MODELS:
                t = predict_time(m, n, p, 8)
                row.append(f"{t / 1e6:,.0f}")
            rows.append(row)
    print(
        format_table(
            ["cell"] + MODELS, rows,
            title="Predicted radix-sort times (ms), uniform keys",
        )
    )

    print("\nExtrapolating beyond the paper's grid:")
    for n_log, label in ((28, "256M"), (30, "1G"), (32, "4G")):
        t = predict_time("shmem", 1 << n_log, 64, 12)
        print(f"  {label:>4} keys, radix 12, 64p:  {t / 1e9:6.1f} s")
    print("\nThe paper measured 30 s for 1G keys at radix 12 (Section 4.2.3);")
    print("the calibrated formula predicts ~38 s.")

    print("\n128-processor what-if (the machine the paper's reference [8]")
    print("studied):")
    for m in ("ccsas", "shmem"):
        n = repro.SIZES["256M"]
        s = sequential_time_ns(n, 8, DEFAULT_COSTS) / predict_time(m, n, 128, 12)
        print(f"  radix/{m:<6} 256M keys on 128p: predicted speedup {s:6.1f}x")


if __name__ == "__main__":
    main()
