#!/usr/bin/env python3
"""Benchmark the compiled atom query at the compiled bound and just below.

For each construction the instance is compiled to a transition system, and
the distinguished atom is solved twice: at the compiled bound d (answer
must match the brute-force hitting-set oracle) and at d-1 (a strictly
harder budget that flips sufficiently tight instances to no). Wall-clock
times and examined-candidate counts are printed per query.
"""

import argparse
import time

import bnetsynth as b

CONSTRUCTIONS = ("1.1", "1.2", "1.3", "1.4")

DEMO_UNIVERSE = ["X1", "X2", "X3", "X4"]
DEMO_SETS = [["X1", "X2"], ["X2", "X3"], ["X1", "X4"], ["X1", "X3", "X4"]]


def timed_query(art, d):
    """Solve the distinguished atom at bound d: (region or None, summary)."""
    stats = b.EnumerationStats()
    start = time.perf_counter()
    region = b.solve_atom(art.ts, art.default_type, d, art.alpha, stats=stats)
    elapsed = time.perf_counter() - start
    answer = "yes" if region is not None else "no"
    return region, f"{answer:>3} {elapsed:8.3f}s {stats.candidates_examined:>9}"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="time the atom query across all four constructions")
    parser.add_argument("--hs", help="instance file; default is a built-in "
                                     "four-element demo instance")
    parser.add_argument("--kappa", type=int, default=2,
                        help="budget override for the demo instance")
    parser.add_argument("--construction", choices=CONSTRUCTIONS + ("all",),
                        default="all")
    args = parser.parse_args(argv)

    if args.hs:
        inst = b.read_hs(args.hs)
    else:
        inst = b.build_hs_instance(DEMO_UNIVERSE, DEMO_SETS, args.kappa)
    oracle = b.hs_brute_force(inst)
    print(f"instance: {len(inst.universe)} elements, {len(inst.sets)} sets, "
          f"kappa {inst.kappa}")
    print(f"oracle: {' '.join(oracle) if oracle is not None else 'no'}")

    chosen = CONSTRUCTIONS if args.construction == "all" \
        else (args.construction,)
    print(f"{'constr':>6} {'states':>6} {'events':>6} {'d':>3}  "
          f"{'at d':>22}  {'at d-1':>22}")
    for construction in chosen:
        art = b.reduce_instance(construction, inst)
        region, at_d = timed_query(art, art.d)
        below = timed_query(art, art.d - 1)[1] if art.d > 0 else "-"
        print(f"{construction:>6} {len(art.ts.states):>6} "
              f"{len(art.ts.events):>6} {art.d:>3}  {at_d:>22}  {below:>22}")
        if (region is not None) != (oracle is not None):
            print(f"  WARNING: {construction} disagrees with the oracle")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
