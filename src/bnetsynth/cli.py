"""Command-line front end.

Exit codes: 0 for a positive decision, 1 for a negative one, 2 for
usage, parse, or validation errors and for any other failure inside a
subcommand, so a crash never reads as a decision. Decision subcommands
never exit 2 on well-formed inputs they can decide. Diagnostics go to
stderr; results go to stdout or to the file named by an output flag. All
output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Optional, Sequence

# synthesize_net is not called here, but stays a name of this module:
# perfbench/spans.py wraps cli.synthesize_net in its traced runs
from .engine import (EnumerationStats, region_solves, solve_atom, solve_drts,
                     synthesize_net, verify_lemma1)
from .interactions import parse_type
from .nets import DEFAULT_REACH_CAP, reachability_graph, read_net, write_net
from .reductions import (CONSTRUCTIONS, hs_brute_force, read_hs,
                         reduce_instance, render_meta)
from .regions import (diagnose_expansion, parse_region, render_region,
                      render_region_of, restriction_count)
from .ts import (enumerate_atoms, parse_atom, read_ts, render_ts,
                 spanning_tree, validate_atom)


def _print_stats(stats: EnumerationStats) -> None:
    print(f"candidates_examined={stats.candidates_examined}", file=sys.stderr)
    print(f"valid_regions={stats.valid_regions}", file=sys.stderr)
    print(f"elapsed={stats.elapsed:.3f}", file=sys.stderr)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _render_witnesses(outcome) -> str:
    return "\n".join(f"# region {idx}\n" + render_region(bit, signature)
                     for idx, (bit, signature) in enumerate(outcome.forms()))


def _render_report(ts, outcome) -> str:
    atoms = enumerate_atoms(ts)
    lines = [
        "verdict " + ("solvable" if outcome.solvable else "unsolvable"),
        f"atoms {len(atoms)}",
        f"regions {len(outcome.solvers)}",
    ]
    for atom in atoms:
        idx = outcome.witness_map.get(atom)
        if idx is None:
            lines.append(f"atom {atom} unsolved")
        else:
            lines.append(f"atom {atom} region {idx}")
    for idx, (bit, signature) in enumerate(outcome.forms()):
        lines.append(f"region {idx}")
        lines.append(render_region(bit, signature).rstrip("\n"))
    lines.append(f"candidates_examined={outcome.stats.candidates_examined}")
    lines.append(f"valid_regions={outcome.stats.valid_regions}")
    return "\n".join(lines) + "\n"


def cmd_synth(args: argparse.Namespace) -> int:
    ts = read_ts(args.ts)
    net_type = parse_type(args.type)
    outcome = solve_drts(ts, net_type, args.d, shrink=args.shrink)
    if args.stats:
        _print_stats(outcome.stats)
    if args.witnesses:
        _write_text(args.witnesses, _render_witnesses(outcome))
    if args.report:
        _write_text(args.report, _render_report(ts, outcome))
    if outcome.solvable:
        print("solvable")
        if args.net:
            write_net(args.net, outcome.net())
        return 0
    # the unsolved atoms' text, read off the open rows of the atom index
    print("\n".join(["unsolvable"] + [f"unsolved {atom}" for atom
                                       in outcome.index.open_text()]))
    return 1


def cmd_atom(args: argparse.Namespace) -> int:
    ts = read_ts(args.ts)
    net_type = parse_type(args.type)
    atom = parse_atom(args.atom)
    stats = EnumerationStats()
    region = solve_atom(ts, net_type, args.d, atom, stats=stats)
    if args.stats:
        _print_stats(stats)
    if region is None:
        return 1
    print(render_region_of(region, ts), end="")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    inst = read_hs(args.hs)
    artifact = reduce_instance(args.construction, inst)
    _write_text(args.out, render_ts(artifact.ts))
    if args.meta:
        _write_text(args.meta, render_meta(artifact))
    return 0


def cmd_hs(args: argparse.Namespace) -> int:
    inst = read_hs(args.hs)
    result = hs_brute_force(inst)
    if result is None:
        return 1
    print(" ".join(result))
    return 0


def cmd_check_region(args: argparse.Namespace) -> int:
    ts = read_ts(args.ts)
    net_type = parse_type(args.type)
    with open(args.region, "r", encoding="utf-8") as fh:
        sup_initial, sparse_sig = parse_region(fh.read())
    sig = {e: "nop" for e in ts.events}
    sig.update(sparse_sig)
    region, bad = diagnose_expansion(ts, net_type, sup_initial, sig,
                                     spanning_tree(ts))
    if region is None:
        assert bad is not None
        print(f"violating edge {bad[0]} {bad[1]} {bad[2]}", file=sys.stderr)
        return 1
    if args.atom:
        atom = parse_atom(args.atom)
        validate_atom(ts, atom)
        if not region_solves(region, net_type, atom):
            print(f"region does not solve {atom}", file=sys.stderr)
            return 1
    print(restriction_count(region))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    ts = read_ts(args.ts)
    net = read_net(args.net)
    if verify_lemma1(ts, net):
        return 0
    print("reachability graph is not isomorphic to the transition system",
          file=sys.stderr)
    return 1


def cmd_reach(args: argparse.Namespace) -> int:
    net = read_net(args.net)
    rg = reachability_graph(net, cap=args.cap)
    _write_text(args.out, render_ts(rg))
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bnetsynth",
        description="Boolean net synthesis, region checking, and "
                    "hitting-set reductions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="decide d-restricted synthesizability")
    p.add_argument("--ts", required=True, help="transition system file")
    p.add_argument("--type", required=True, help="comma-separated net type")
    p.add_argument("--d", required=True, type=int, help="restriction bound")
    p.add_argument("--net", help="write the synthesized net here")
    p.add_argument("--witnesses", help="write the witness regions here")
    p.add_argument("--report", help="write a full report here")
    p.add_argument("--shrink", action="store_true",
                   help="greedily re-cover with fewer regions")
    p.add_argument("--stats", action="store_true",
                   help="print search statistics to stderr")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("atom", help="solve one separation atom")
    p.add_argument("--ts", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--atom", required=True,
                   help="ssp:s1,s2 or essp:event,state")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_atom)

    p = sub.add_parser("reduce",
                       help="compile a hitting-set instance to a TS")
    p.add_argument("--construction", required=True, choices=CONSTRUCTIONS)
    p.add_argument("--hs", required=True, help="hitting-set instance file")
    p.add_argument("--out", required=True, help="output TS file")
    p.add_argument("--meta", help="write reduction metadata here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("hs", help="brute-force a bounded hitting set")
    p.add_argument("--hs", required=True)
    p.set_defaults(func=cmd_hs)

    p = sub.add_parser("check-region", help="validate an implicit region")
    p.add_argument("--ts", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--region", required=True, help="region file")
    p.add_argument("--atom", help="also require solving this atom")
    p.set_defaults(func=cmd_check_region)

    p = sub.add_parser("verify",
                       help="check a net's reachability graph against a TS")
    p.add_argument("--ts", required=True)
    p.add_argument("--net", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reach", help="write a net's reachability graph")
    p.add_argument("--net", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_REACH_CAP,
                   help="abort beyond this many markings")
    p.set_defaults(func=cmd_reach)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault, not a verdict: never exit 0 or 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
