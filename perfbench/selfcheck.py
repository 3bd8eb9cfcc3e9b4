#!/usr/bin/env python3
"""Fast self-check of the benchmark harness, at tiny input sizes.

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced on small inputs, five passes each,
and checks that the run emits exactly the metrics BENCHMARK.json names,
each with its unit, that it also prints verify_s (synth workloads) and
failed_frac, and that no decision failed. Takes a few seconds.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, WORKLOAD_NAMES, measure

TINY = {
    "atom-hs": {"cheap": ("1.1", "1.2"), "costly": (), "drawn": 1},
    "synth-hs": {"yes": ("tiny-yes.hs", 2), "no": "tiny-no.hs"},
    "synth-line": {"lines": 2, "states": 8},
}


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"self-check failed: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOAD_NAMES:
        for trace, wanted in ((False, spec["end_to_end"]),
                              (True, spec["per_layer"])):
            lines, result = measure(workload, seed=1, seconds=0, trace=trace,
                                    params=TINY[workload])
            where = f"{workload} trace={int(trace)}"
            metrics = result["metrics"]
            check([m["name"] for m in wanted] == list(metrics),
                  f"{where}: metrics {sorted(metrics)}")
            for m in wanted:
                check(metrics[m["name"]]["unit"] == m["unit"],
                      f"{where}: unit of {m['name']}")
            check(result["failed"] == 0 and result["correct"],
                  f"{where}: {result['failed']} decisions failed")
            check(result["attempted"] > 0, f"{where}: nothing attempted")
            printed = {line.split()[0] for line in lines[1:]}
            check("failed_frac" in printed, f"{where}: no failed_frac")
            check(("verify_s" in printed) == (workload != "atom-hs"),
                  f"{where}: verify_s")
            if trace and workload == "atom-hs":
                check(metrics["regions.atom_checks"]["value"] == 0,
                      f"{where}: atom queries made atom checks")
            print(f"{where}: ok")
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
