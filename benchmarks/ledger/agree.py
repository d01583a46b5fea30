"""Compare two ledger result sets row by row against the benchmark's bounds.

    python3 benchmarks/ledger/agree.py A.json B.json

``A`` is the base and ``B`` the candidate.  Each file holds one
``ledger.json`` document (as ``run.py --out DIR`` writes it) or a JSON
list of such documents -- several runs of the same commit.  For every
workload x end-to-end metric the row shows both medians, the ratio with
its base, and a verdict:

``agree``       B's median is no worse than A's by more than the bound
``unresolved``  it is within the bound, but the run-to-run spread of a
                side (max - min of its runs, as a share of A's median) is
                wider than the bound, so "unchanged" is not shown
``worse``       B's median is worse than A's by more than the bound

A bound of 0 means the metric may not worsen at all (``failed_frac``,
``pred_err_pct_p50``); a metric that is exact given the inputs is compared
only when both sides ran the same seeds.  Exits non-zero when any row is
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

import metrics


def load(path: str) -> list[dict]:
    with open(path) as f:
        doc = json.load(f)
    return doc if isinstance(doc, list) else [doc]


def values(docs: list[dict], workload: str, metric: str) -> list[float]:
    out = []
    for doc in docs:
        row = doc["workloads"].get(workload, {}).get("end_to_end", {}).get(metric)
        if row is not None:
            out.append(row["value"])
    return out


def verdict(spec: metrics.EndToEnd, a: list[float], b: list[float]) -> str:
    base, cand = statistics.median(a), statistics.median(b)
    delta = cand - base if spec.better == "lower" else base - cand
    if delta > spec.bound * abs(base):
        return "worse"
    spread = max(max(v) - min(v) for v in (a, b))
    return "unresolved" if spread > spec.bound * abs(base) else "agree"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_docs, cand_docs = load(argv[0]), load(argv[1])
    same_seeds = ({d["meta"]["seed"] for d in base_docs}
                  == {d["meta"]["seed"] for d in cand_docs})
    print(f"{'workload':14s} {'metric':18s} {'A (base)':>12s} {'B':>12s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    any_worse = False
    for workload in metrics.WORKLOADS:
        for spec in metrics.END_TO_END:
            if workload not in spec.workloads:
                continue
            if spec.per_seed and not same_seeds:
                print(f"{workload:14s} {spec.name:18s} not compared: seeds differ")
                continue
            a = values(base_docs, workload, spec.name)
            b = values(cand_docs, workload, spec.name)
            if not a or not b:
                print(f"{workload:14s} {spec.name:18s} missing from "
                      f"{'A' if not a else 'B'}")
                any_worse = True
                continue
            word = verdict(spec, a, b)
            base, cand = statistics.median(a), statistics.median(b)
            ratio = f"{cand / base:8.3f}" if base else f"{'-':>8s}"
            print(f"{workload:14s} {spec.name:18s} {base:12.5g} {cand:12.5g} "
                  f"{ratio} {spec.bound:6.2f}  {word}")
            any_worse = any_worse or word == "worse"
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
