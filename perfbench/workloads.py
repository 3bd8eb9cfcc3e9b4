"""The benchmark's workloads: the inputs each one makes from its seed, the
decisions it runs on them, and the verdict each decision must reach.

Every expected verdict comes from an oracle that is independent of the
engine: the brute-force hitting-set search for the compiled instances, and
a closed form for the line-shaped transition systems. Why each workload was
chosen is written down in README.md next to this file.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path

from bnetsynth.interactions import format_type
from bnetsynth.reductions import (CONSTRUCTIONS, HittingSetInstance,
                                  build_hs_instance, hs_brute_force, read_hs,
                                  reduce_instance)
from bnetsynth.ts import build_ts, render_ts

DATA = Path(__file__).resolve().parent / "data"

# Seeded renamings draw universe elements from these. Two lowercase letters
# never collide with the events the constructions generate, and they sort
# in between those events, so a renaming moves the elements around in
# canonical order.
_NAMES = [a + b for a in string.ascii_lowercase for b in string.ascii_lowercase]


@dataclass(frozen=True)
class Decision:
    """One CLI call whose exit code is a verdict, and what it must answer."""
    label: str
    command: str  # "atom" or "synth"
    ts: str
    net_type: str
    d: int
    expect_yes: bool
    atom: str = ""  # atom: the atom queried
    # synth: a no must list these atoms among its `unsolved` lines, and no
    # others when exact_unsolved is set
    must_be_unsolved: frozenset[str] = frozenset()
    exact_unsolved: bool = False

    @property
    def net(self) -> str:
        return self.ts[:-len(".ts")] + f"-d{self.d}.net"

    @property
    def witnesses(self) -> str:
        return self.ts[:-len(".ts")] + f"-d{self.d}.regions"

    def outputs(self) -> tuple[str, ...]:
        return (self.net, self.witnesses) if self.command == "synth" else ()

    def argv(self) -> list[str]:
        argv = [self.command, "--ts", self.ts, "--type", self.net_type,
                "--d", str(self.d)]
        if self.command == "atom":
            return argv + ["--atom", self.atom]
        return argv + ["--net", self.net, "--witnesses", self.witnesses]


class Setup:
    """Makes one workload's inputs in a work directory, from the seed alone.

    The library calls go through a tracer, so the traced run can attribute
    set-up time to the parse, reduction and oracle layers.
    """

    def __init__(self, work: Path, seed: int, tracer):
        self.work = work
        self.rng = random.Random(seed)
        self.tracer = tracer

    def read_hs(self, name: str) -> HittingSetInstance:
        return self.tracer.call("reductions.read_hs", read_hs,
                                str(DATA / name))

    def oracle(self, inst: HittingSetInstance) -> bool:
        return self.tracer.call("reductions.hs_brute_force", hs_brute_force,
                                inst) is not None

    def reduce(self, construction: str, inst: HittingSetInstance):
        return self.tracer.call("reductions.reduce_instance", reduce_instance,
                                construction, inst)

    def write_ts(self, name: str, ts) -> str:
        path = self.work / f"{name}.ts"
        path.write_text(self.tracer.call("ts.render_ts", render_ts, ts),
                        encoding="utf-8")
        return str(path)


def with_kappa(inst: HittingSetInstance, kappa: int) -> HittingSetInstance:
    return build_hs_instance(inst.universe, inst.sets, kappa, inst.names)


def renamed(inst: HittingSetInstance, rng: random.Random) -> HittingSetInstance:
    """The same instance over new element names.

    The universe keeps its order, so every set lists the same positions and
    the compiled system is isomorphic to the original; only the names, and
    with them the canonical event order, change.
    """
    names = rng.sample(_NAMES, len(inst.universe))
    rename = dict(zip(inst.universe, names))
    return build_hs_instance(names, [[rename[x] for x in s] for s in inst.sets],
                             inst.kappa, inst.names)


def _drawn(setup: Setup, like: HittingSetInstance, per_answer: int):
    """Instances shaped like `like` (same universe and set sizes), kappa 1
    or 2, drawn until there are `per_answer` with each oracle answer."""
    want = {True: per_answer, False: per_answer}
    while any(want.values()):
        sets = [setup.rng.sample(like.universe, len(s)) for s in like.sets]
        inst = build_hs_instance(like.universe, sets, setup.rng.choice((1, 2)))
        yes = setup.oracle(inst)
        if want[yes]:
            want[yes] -= 1
            yield inst, yes


def atom_hs(setup: Setup, cheap=CONSTRUCTIONS[:3], costly=("1.4",),
            drawn=2) -> list[Decision]:
    """`atom` for the compiled alpha, at the compiled bound.

    The demo instance at kappa 2 (yes) and 1 (no), and `drawn` yes and
    `drawn` no instances of its shape, run on the cheap constructions
    (milliseconds each). The triangle at kappa 2 and 1 runs on those and
    on the costly one: 1.4 of the triangle takes 1.5 to 2 s a query,
    against 5 to 7 s for 1.4 of the demo, so a pass stays short enough
    for a run to hold several.
    """
    demo = setup.read_hs("demo.hs")
    triangle = setup.read_hs("triangle.hs")
    cases = []
    for name, inst, chosen in (("demo", demo, cheap),
                               ("triangle", triangle, cheap + costly)):
        for kappa in (2, 1):
            case = with_kappa(inst, kappa)
            cases.append((f"{name}-k{kappa}", case, setup.oracle(case),
                          chosen))
    for i, (inst, yes) in enumerate(_drawn(setup, demo, drawn)):
        cases.append((f"drawn{i}-k{inst.kappa}", inst, yes, cheap))
    decisions = []
    for name, inst, yes, chosen in cases:
        for construction in chosen:
            art = setup.reduce(construction, inst)
            label = f"{name}-t{construction}"
            decisions.append(Decision(
                label=label, command="atom",
                ts=setup.write_ts(label, art.ts),
                net_type=format_type(art.default_type), d=art.d,
                atom=str(art.alpha), expect_yes=yes))
    return decisions


def synth_hs(setup: Setup, yes=("demo.hs", 3),
             no="three-pairs.hs") -> list[Decision]:
    """`synth` on construction 1.1 of the criterion-06 yes case, of a
    smaller disjoint-pairs no case, and of a renamed copy of the no case."""
    no_inst = setup.read_hs(no)
    cases = [("c06-yes", with_kappa(setup.read_hs(yes[0]), yes[1])),
             ("pairs-no", no_inst), ("renamed-no", renamed(no_inst, setup.rng))]
    decisions = []
    for name, inst in cases:
        found = setup.oracle(inst)
        art = setup.reduce("1.1", inst)
        decisions.append(Decision(
            label=name, command="synth", ts=setup.write_ts(name, art.ts),
            net_type=format_type(art.default_type), d=art.d,
            expect_yes=found,
            must_be_unsolved=frozenset() if found else frozenset(
                {str(art.alpha)})))
    return decisions


def synth_line(setup: Setup, lines=16, states=40) -> list[Decision]:
    """`synth --type nop,inp,out` on lines with distinct events.

    The first line keeps its events in canonical order, which gives the
    most places; the seed permutes the event names along the others. With
    the fixed line in every pass, the times depend less on the seed.

    Oracle: at d=2 every atom is solvable (inp on the atom's event, out on
    an earlier one). At d=1 a region has one non-nop event, so its support
    changes once; essp:e,s is then solvable exactly when s lies after the
    source of e.
    """
    width = len(str(states))
    names = [f"s{i:0{width}}" for i in range(states)]
    decisions = []
    for n in range(lines):
        events = [f"e{i:0{width}}" for i in range(states - 1)]
        if n:
            setup.rng.shuffle(events)
        ts = build_ts(names, events,
                      [(names[i], e, names[i + 1])
                       for i, e in enumerate(events)], names[0])
        path = setup.write_ts(f"line{n}", ts)
        unsolved = frozenset(f"essp:{e},{names[i]}"
                             for j, e in enumerate(events) for i in range(j))
        decisions.append(Decision(label=f"line{n}-d2", command="synth",
                                  ts=path, net_type="nop,inp,out", d=2,
                                  expect_yes=True))
        decisions.append(Decision(label=f"line{n}-d1", command="synth",
                                  ts=path, net_type="nop,inp,out", d=1,
                                  expect_yes=False, must_be_unsolved=unsolved,
                                  exact_unsolved=True))
    return decisions


WORKLOADS = {"atom-hs": atom_hs, "synth-hs": synth_hs,
             "synth-line": synth_line}
