#!/usr/bin/env python3
"""The bnetsynth benchmark: time to a verdict through the real CLI.

    python3 perfbench/run.py --workload atom-hs --seed 1 --seconds 40 --trace 0

Makes the workload's inputs from --seed, then runs its fixed list of
decisions (`atom` or `synth` calls into `bnetsynth.cli.main`, in this
process) pass after pass until --seconds are used, and at least five
times. Before each of the first five passes it repeats the whole set-up,
a fresh import of bnetsynth included. Every verdict is checked against an oracle that does
not use the engine, and every pass must write the same stdout and files as
the first.

With --trace 0 it reports the end-to-end metrics: yes_s, no_s, verify_s
(synth workloads), setup_s, peak_rss_mb and failed_frac. With --trace 1,
untraced passes alternate with traced passes of the same decisions, and it
reports the per-layer metrics and the tracing overhead; the spans go to
perfbench/out/. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. README.md next to this file says
why the workloads are what they are and which metric each layer moves.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import shutil
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SETUPS_PER_PASS = 3  # set-ups before each of the first MIN_PASSES passes
MIN_PASSES = 5  # fewest passes a run makes; the times are their medians
WORKLOAD_NAMES = ("atom-hs", "synth-hs", "synth-line")


def load_program():
    """Import bnetsynth afresh from this checkout's src/, never from
    elsewhere, and the benchmark modules that use it."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [m for m in sys.modules
                 if m.split(".")[0] in ("bnetsynth", "spans", "workloads")]:
        del sys.modules[name]
    try:
        import bnetsynth.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import bnetsynth from {ROOT / 'src'}: {exc}")
    if Path(bnetsynth.cli.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"error: bnetsynth was imported from {bnetsynth.cli.__file__}")
    import spans
    import workloads
    return bnetsynth.cli, spans, workloads


def set_up(workload: str, seed: int, work: Path, trace: bool, params):
    """One whole set-up, timed: import bnetsynth afresh, then make the
    inputs. Returns (seconds, modules, decisions, set-up tracer)."""
    start = perf_counter()
    cli, spans, workloads = load_program()
    tracer = spans.Tracer("setup") if trace else spans.NullTracer()
    decisions = workloads.WORKLOADS[workload](
        workloads.Setup(work, seed, tracer), **(params or {}))
    return perf_counter() - start, (cli, spans), decisions, tracer


@dataclass
class Pass:
    tracer: object = None  # the Tracer of a traced pass
    yes_s: float = 0.0
    no_s: float = 0.0
    verify_s: float = 0.0
    # per decision: (exit code or a description of what was raised,
    # stdout, contents of each output file)
    records: list[tuple] = field(default_factory=list)
    same: list[bool] = field(default_factory=list)  # records equal pass 0's
    verify_codes: list = field(default_factory=list)

    @property
    def traced(self) -> bool:
        return self.tracer is not None


def _call(fn, *args):
    """Run fn with stdout and stderr captured: (result, stdout, stderr).

    A call that raises yields a description of the exception as its result,
    which no check accepts: a decision that raises is a failed decision.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            result = fn(*args)
    except SystemExit as exc:
        result = exc.code
    except Exception as exc:
        traceback.print_exc()
        result = f"raised {type(exc).__name__}"
    return result, out.getvalue(), err.getvalue()


def _cli(cli, argv, tracer, span: str):
    """Exit code and stdout of cli.main(argv), traced when a tracer is
    given."""
    if tracer is None:
        code, out, _ = _call(cli.main, argv)
    else:
        with tracer.active():
            code, out, _ = _call(tracer.call, span, cli.main, argv)
    return code, out


def run_pass(cli, decisions, tracer=None) -> Pass:
    """Run every decision once through cli.main, traced when a tracer is
    given."""
    p = Pass(tracer=tracer)
    for dec in decisions:
        for path in dec.outputs():
            Path(path).unlink(missing_ok=True)
        if tracer is not None:
            tracer.decision = dec.label
        start = perf_counter()
        code, out = _cli(cli, dec.argv(), tracer, f"decision {dec.label}")
        elapsed = perf_counter() - start
        if dec.expect_yes:
            p.yes_s += elapsed
        else:
            p.no_s += elapsed
        vcode = None
        if dec.command == "synth" and dec.expect_yes \
                and Path(dec.net).exists():
            start = perf_counter()
            vcode, _ = _cli(cli, ["verify", "--ts", dec.ts, "--net", dec.net],
                            tracer, f"verify {dec.label}")
            p.verify_s += perf_counter() - start
        p.records.append((code, out, tuple(
            Path(f).read_bytes() if Path(f).exists() else None
            for f in dec.outputs())))
        p.verify_codes.append(vcode)
    return p


def check_first(cli, dec, record, work: Path) -> list[str]:
    """Problems with a decision's outputs, judged against its oracle.

    Run on the first pass only; later passes must repeat those outputs
    byte for byte.
    """
    code, out, files = record
    if code not in (0, 1):
        return [f"exit {code}"]
    problems = []
    if (code == 0) != dec.expect_yes:
        problems.append(f"answered {'yes' if code == 0 else 'no'}, "
                        f"oracle says {'yes' if dec.expect_yes else 'no'}")
    if dec.command == "synth" and code == 1:
        listed = {line.removeprefix("unsolved ")
                  for line in out.splitlines()[1:]}
        missing = dec.must_be_unsolved - listed
        if missing:
            problems.append(f"{len(missing)} atoms not listed as unsolved, "
                            f"such as {min(missing)}")
        if dec.exact_unsolved and listed - dec.must_be_unsolved:
            problems.append("lists atoms as unsolved that the oracle solves")
    if dec.command == "synth" and code == 0:
        if None in files:
            return problems + ["wrote no net or no witness file"]
        # each witness region must pass check-region on its own
        blocks = files[1].decode().split("# region ")[1:]
        for idx, block in enumerate(blocks):
            path = work / "check.region"
            path.write_text(block.split("\n", 1)[1], encoding="utf-8")
            rcode, _, err = _call(cli.main, [
                "check-region", "--ts", dec.ts, "--type", dec.net_type,
                "--region", str(path)])
            if rcode != 0:
                problems.append(f"witness region {idx} fails check-region: "
                                f"{err.strip()}")
                break
    return problems


def find_failures(cli, decisions, passes: list[Pass], work: Path) -> list[str]:
    """One line per failed decision of each pass.

    The first pass is judged against the oracles; every later pass, traced
    or not, must repeat its outputs byte for byte.
    """
    first = [check_first(cli, dec, rec, work)
             for dec, rec in zip(decisions, passes[0].records)]
    failures = []
    for n, p in enumerate(passes):
        for i, dec in enumerate(decisions):
            problems = list(first[i])
            if not p.same[i]:
                problems.append("outputs differ from the first pass")
            if dec.command == "synth" and dec.expect_yes \
                    and p.verify_codes[i] != 0:
                problems.append(f"verify exits {p.verify_codes[i]}")
            if problems:
                failures.append(f"pass {n} {dec.label}: " + "; ".join(problems))
    return failures


def measure(workload: str, seed: int, seconds: float, trace: bool,
            params=None) -> tuple[list[str], dict]:
    """Run one workload; return the summary lines and the result object."""
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    try:
        setup_times, setup_tracers = [], []
        passes: list[Pass] = []
        longest = 0.0
        begun = perf_counter()
        while len(passes) < MIN_PASSES or \
                perf_counter() - begun + longest <= seconds:
            # set-ups spread over the run, so a slow stretch of the machine
            # moves few of them; the last one's program and inputs are used.
            # Their number is fixed, as each leaves some memory behind.
            if len(passes) < MIN_PASSES:
                for _ in range(SETUPS_PER_PASS):
                    took, (cli, spans), decisions, tracer = set_up(
                        workload, seed, work, trace, params)
                    setup_times.append(took)
                    setup_tracers.append(tracer)
            traced = trace and len(passes) % 2 == 1
            gc.collect()
            start = perf_counter()
            p = run_pass(cli, decisions,
                         spans.Tracer(f"pass {len(passes)}") if traced
                         else None)
            longest = max(longest, perf_counter() - start)
            first = passes[0] if passes else p
            p.same = [r == f for r, f in zip(p.records, first.records)]
            if passes:  # keep only the first pass's outputs in memory
                p.records = []
            passes.append(p)
        # after the timed passes, so the oracle checks do not shorten them
        failures = find_failures(cli, decisions, passes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(decisions) * len(passes)
    failed = len(failures)
    for line in failures[:20]:
        print("FAILED " + line, file=sys.stderr)
    plain = [p for p in passes if not p.traced]
    is_synth = any(dec.command == "synth" for dec in decisions)
    lines = [f"{workload} seed {seed}: {len(decisions)} decisions, "
             f"{len(plain)} untraced and {len(passes) - len(plain)} traced "
             f"passes, set-up x{len(setup_times)}; {attempted} attempted, "
             f"{failed} failed"]
    end_to_end = {
        "yes_s": (median(p.yes_s for p in plain), "s"),
        "no_s": (median(p.no_s for p in plain), "s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
    }
    shown = dict(end_to_end)
    if is_synth:
        shown["verify_s"] = (median(p.verify_s for p in plain), "s")
    shown["failed_frac"] = (failed / attempted, "ratio")
    lines += [f"  {name:<12} {value:.6g} {unit}" for name, (value, unit)
              in shown.items()]
    if trace:
        metrics = per_layer(passes, setup_tracers)
        lines.append("  per layer (traced passes; set-up layers per set-up):")
        lines += [f"  {name:<30} {value if unit == 'count' else f'{value:.6g}'}"
                  f" {unit}" for name, (value, unit) in metrics.items()]
        first_traced = next(p.tracer for p in passes if p.traced)
        lines += [f"  count {label}: " + " ".join(
            f"{k}={v}" for k, v in counts.items())
            for label, counts in first_traced.per_decision.items()]
        spans = out_dir / f"{workload}-seed{seed}-spans.json"
        spans.write_text(json.dumps(
            [s for t in setup_tracers + [p.tracer for p in passes if p.traced]
             for s in t.dump()]), encoding="utf-8")
        lines.append(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return lines, result


def per_layer(passes: list[Pass], setup_tracers) -> dict:
    """Per-layer metrics: set-up layers per set-up, the rest per traced pass,
    each the median over its repetitions; counts from the first traced pass."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    setup = [t.layer_times() for t in setup_tracers]
    timed = [p.tracer.layer_times() for p in traced]
    times = {name: median(s[name] for s in setup)
             + median(t[name] for t in timed) for name in timed[0]}
    first = traced[0].tracer
    counts = first.counts
    engine_s = times["engine.solve_atom_s"] + times["engine.solve_drts_s"]
    checks = first.atom_checks

    def ratio(num, den):
        return num / den if den else 0.0

    def s(name):
        return (times[name], "s")

    return {
        "cli.parse_s": s("cli.parse_s"),
        "cli.write_s": s("cli.write_s"),
        "reductions.reduce_s": s("reductions.reduce_s"),
        "reductions.oracle_s": s("reductions.oracle_s"),
        "ts.atoms": (counts["ts.atoms"], "count"),
        "ts.enumerate_atoms_s": s("ts.enumerate_atoms_s"),
        "engine.solve_atom_s": s("engine.solve_atom_s"),
        "engine.solve_drts_s": s("engine.solve_drts_s"),
        "engine.candidates_examined": (
            counts["engine.candidates_examined"], "count"),
        "engine.candidates_per_s": (
            ratio(counts["engine.candidates_examined"], engine_s), "1/s"),
        "engine.valid_regions": (counts["engine.valid_regions"], "count"),
        "engine.region_yield": (
            ratio(counts["regions.admissible"],
                  counts["engine.valid_regions"]), "ratio"),
        "regions.atom_checks": (checks, "count"),
        "regions.atom_check_s": s("regions.atom_check_s"),
        "regions.atom_check_hit_ratio": (
            ratio(first.atom_check_hits, checks), "ratio"),
        "regions.admissible": (counts["regions.admissible"], "count"),
        "nets.synthesize_s": s("nets.synthesize_s"),
        "nets.places": (counts["nets.places"], "count"),
        "nets.reach_s": s("nets.reach_s"),
        "nets.markings": (counts["nets.markings"], "count"),
        "ts.isomorphic_s": s("ts.isomorphic_s"),
        "trace.yes_overhead_s": (
            median(p.yes_s for p in traced) - median(p.yes_s for p in plain),
            "s"),
        "trace.no_overhead_s": (
            median(p.no_s for p in traced) - median(p.no_s for p in plain),
            "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (at least five passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lines, result = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
