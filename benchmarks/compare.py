#!/usr/bin/env python
"""Hold a regenerated experiment-results JSON (``python -m repro ...
--json``) against a checked-in ``BENCH_n.json`` baseline.

Two checks, both driven by the one experiment registry
(``repro.report.experiments.EXPERIMENTS``):

* **Drift diff.**  Per experiment id present in both files, the shared
  numeric leaves of ``data`` (dotted paths) must agree within ``--rtol``.
  Everything diffed is deterministic simulator/predictor output.  Wall
  clocks (``wall_s``) and near-zero predictor error measures
  (``rel_err``, ``abs_rel``) are never diffed.
* **Gates.**  Every result in the current file whose registry record
  declares a ``gate`` has it run on the result's ``data``.

    PYTHONPATH=src python benchmarks/compare.py benchmarks/BENCH_0.json fresh.json
    PYTHONPATH=src python benchmarks/compare.py benchmarks/BENCH_1.json fresh.json --rtol 0.25

Exit code 0 iff something was compared, every shared value is within
tolerance and every gate holds.  Wall-clock numbers are not this tool's
business: they come from ``benchmarks/ledger`` only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.report.experiments import EXPERIMENTS

#: Leaf-path fragments excluded from the relative drift diff: wall
#: clocks are machine dependent, and predictor error measures are
#: near-zero values the ``predict_compare`` gate bounds absolutely.
SKIP_FRAGMENTS = ("wall_s", "rel_err", "abs_rel")


def numeric_leaves(value, prefix=""):
    """Flatten nested dicts/lists into {dotted.path: float}."""
    out = {}
    if isinstance(value, dict):
        for k, v in value.items():
            out.update(numeric_leaves(v, f"{prefix}{k}." if prefix or k else k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            out.update(numeric_leaves(v, f"{prefix}{i}."))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[prefix.rstrip(".")] = float(value)
    return out


def load_results(path):
    with open(path) as fh:
        doc = json.load(fh)
    return {r["exp_id"]: r for r in doc.get("results", [])}


def diffed_ids(baseline, current):
    """Experiment ids present in both documents: what the diff covers."""
    return sorted(set(baseline) & set(current))


def diff_shared(baseline, current, rtol):
    """Yield (exp_id, path, base, cur, rel) for out-of-tolerance leaves."""
    for exp_id in diffed_ids(baseline, current):
        base = numeric_leaves(baseline[exp_id].get("data", {}))
        cur = numeric_leaves(current[exp_id].get("data", {}))
        for path in sorted(set(base) & set(cur)):
            if any(fragment in path for fragment in SKIP_FRAGMENTS):
                continue
            b, c = base[path], cur[path]
            if b == c:
                continue
            scale = max(abs(b), abs(c))
            rel = abs(c - b) / scale if scale > 0 else math.inf
            if rel > rtol:
                yield exp_id, path, b, c, rel


def gated_ids(current):
    """Experiment ids in ``current`` whose registry record has a gate."""
    return sorted(
        exp_id
        for exp_id in current
        if exp_id in EXPERIMENTS and EXPERIMENTS[exp_id].gate is not None
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline results JSON")
    parser.add_argument("current", help="freshly generated results JSON")
    parser.add_argument(
        "--rtol", type=float, default=0.05,
        help="relative tolerance for shared numeric values (default 0.05)",
    )
    args = parser.parse_args(argv)

    baseline = load_results(args.baseline)
    current = load_results(args.current)
    diffed = diffed_ids(baseline, current)
    gated = gated_ids(current)
    print(
        f"comparing {args.current} against {args.baseline}: "
        f"diffing {', '.join(diffed) or '(none)'}; "
        f"gating {', '.join(gated) or '(none)'}"
    )
    if not diffed and not gated:
        print(
            "  FAIL nothing to compare: the files share no diffable "
            "experiment and the current file holds no gated result "
            "(wrong path or empty document?)"
        )
        return 1

    failures = 0
    for exp_id, path, b, c, rel in diff_shared(baseline, current, args.rtol):
        failures += 1
        print(
            f"  DRIFT {exp_id}:{path}: {b:g} -> {c:g} "
            f"({rel:+.2%} vs rtol {args.rtol:.0%})"
        )
    for exp_id in gated:
        for message in EXPERIMENTS[exp_id].gate(current[exp_id].get("data", {})):
            failures += 1
            print(f"  FAIL {message}")
    if failures:
        print(f"{failures} failure(s)")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
