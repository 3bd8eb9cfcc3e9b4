"""Spans around bnetsynth's public calls, for the traced run.

A traced pass runs every decision through `bnetsynth.cli.main`, exactly as
an untraced pass does. For its length, module attributes are swapped for
wrappers that record a span around each call: name, start, end and parent.
The names `bnetsynth.cli` imports (read_ts, solve_atom, solve_drts, ...)
are swapped in `bnetsynth.cli`, and the calls the engine makes inside a
decision (region_solves, enumerate_atoms, reachability_graph, isomorphic)
in `bnetsynth.engine`. Nothing under src/ records anything itself. The
counts come from EnumerationStats and from the return values.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from bnetsynth import cli, engine, nets

# per-layer time metrics: the spans whose durations each one adds up
LAYER_SPANS = {
    "cli.parse_s": ("ts.read_ts", "reductions.read_hs", "nets.read_net"),
    "cli.write_s": ("ts.render_ts", "regions.render_region_of",
                    "nets.render_net"),
    "reductions.reduce_s": ("reductions.reduce_instance",),
    "reductions.oracle_s": ("reductions.hs_brute_force",),
    "ts.enumerate_atoms_s": ("ts.enumerate_atoms",),
    "engine.solve_atom_s": ("engine.solve_atom",),
    "engine.solve_drts_s": ("engine.solve_drts",),
    "nets.synthesize_s": ("engine.synthesize_net",),
    "nets.reach_s": ("nets.reachability_graph",),
    "ts.isomorphic_s": ("ts.isomorphic",),
}

# (module, attribute, span name) of every call that gets a span
SPANNED = (
    (cli, "read_ts", "ts.read_ts"),
    (cli, "read_net", "nets.read_net"),
    (cli, "solve_atom", "engine.solve_atom"),
    (cli, "solve_drts", "engine.solve_drts"),
    (cli, "render_region_of", "regions.render_region_of"),
    (cli, "synthesize_net", "engine.synthesize_net"),
    (cli, "verify_lemma1", "engine.verify_lemma1"),
    (nets, "render_net", "nets.render_net"),  # called by nets.write_net
    (engine, "enumerate_atoms", "ts.enumerate_atoms"),
    (engine, "reachability_graph", "nets.reachability_graph"),
    (engine, "isomorphic", "ts.isomorphic"),
)


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans and counts of one set-up or one pass, kept in memory."""

    def __init__(self, phase: str):
        self.phase = phase
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = dict.fromkeys(
            ("engine.candidates_examined", "engine.valid_regions", "ts.atoms",
             "regions.admissible", "nets.places", "nets.markings"), 0)
        # region_solves runs millions of times: counted, not spanned
        self.atom_checks = 0
        self.atom_check_hits = 0
        self.atom_check_s = 0.0
        self.decision = ""  # label of the decision being run
        self.per_decision: dict[str, dict[str, int]] = {}
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, perf_counter(), 0.0,
                self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            span[2] = perf_counter()

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def count_search(self, stats) -> None:
        self.add("engine.candidates_examined", stats.candidates_examined)
        self.add("engine.valid_regions", stats.valid_regions)
        self.per_decision[self.decision] = {
            "candidates_examined": stats.candidates_examined,
            "valid_regions": stats.valid_regions}

    def total(self, names) -> float:
        return sum((end - start for name, start, end, _ in self.spans
                    if name in names), 0.0)

    def layer_times(self) -> dict[str, float]:
        times = {m: self.total(names) for m, names in LAYER_SPANS.items()}
        times["regions.atom_check_s"] = self.atom_check_s
        return times

    def dump(self) -> list[dict]:
        return [{"phase": self.phase, "name": name, "start": start,
                 "end": end, "parent": parent}
                for name, start, end, parent in self.spans]

    @contextmanager
    def active(self):
        """Route bnetsynth's calls through this tracer while in the block."""
        wrappers = {(module, attr): self._spanned(name, getattr(module, attr))
                    for module, attr, name in SPANNED}
        wrappers[engine, "region_solves"] = self._counted(engine.region_solves)
        original = {key: getattr(*key) for key in wrappers}
        for (module, attr), fn in wrappers.items():
            setattr(module, attr, fn)
        try:
            yield
        finally:
            for (module, attr), fn in original.items():
                setattr(module, attr, fn)

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            if name == "engine.solve_atom" and kwargs.get("stats") is None:
                kwargs["stats"] = engine.EnumerationStats()
            result = self.call(name, fn, *args, **kwargs)
            if name == "engine.solve_atom":
                self.count_search(kwargs["stats"])
            elif name == "engine.solve_drts":
                self.count_search(result.stats)
                self.add("regions.admissible", len(result.admissible_set))
            elif name == "engine.synthesize_net":
                self.add("nets.places", len(result.places))
            elif name == "ts.enumerate_atoms":
                self.add("ts.atoms", len(result))
            elif name == "nets.reachability_graph":
                self.add("nets.markings", len(result.states))
            return result
        return wrapper

    def _counted(self, solves):
        def region_solves(region, net_type, atom):
            start = perf_counter()
            hit = solves(region, net_type, atom)
            self.atom_check_s += perf_counter() - start
            self.atom_checks += 1
            self.atom_check_hits += hit
            return hit
        return region_solves
