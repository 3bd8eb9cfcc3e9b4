"""Compilers from bounded hitting-set instances to synthesis inputs.

Each construction turns a hitting-set instance (universe, member sets,
budget kappa) into a transition system, a restriction bound d, and one
event/state separation atom alpha such that alpha is solvable within d
over the construction's default net type exactly when a hitting set of
size at most kappa exists. The hitting set itself translates into an
explicit solving region (alpha_witness_region).

Naming scheme of the generated systems, with i, j, g, n, r decimal:
  states  bot_<i>, h_<j> (1.1) or h_<i>_<j>, t_<i>_<j>, q_<i>,
          s_<i>.<j>_<g>_<r>
  events  universe elements verbatim, theta_<i>, w<i>, u<i>, k,
          z / o (1.1), z1 z2 o1 o2 (1.2, 1.3), z1..z4 o1 o2 (1.4),
          a_<i>_<j> (1.3), c_<i>_<n>, v_<i>.<j>_<n>, oplus_<i>.<j>_<n>
Universe elements whose names fall inside that structural namespace (for
any of the constructions) are rejected up front, so a member event can
never merge with a generated one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, combinations, count, islice, repeat
from typing import Iterable, Iterator, Optional, Sequence

from .interactions import format_type
from .lineio import ParseError, check_ident, expect_model, tokenize
from .regions import Region, expand_region, solves_essp
from .ts import EsspAtom, TransitionSystem, build_ts, spanning_tree

CONSTRUCTIONS = ("1.1", "1.2", "1.3", "1.4")


@dataclass(frozen=True)
class HittingSetInstance:
    """Universe, member sets (ascending by universe index), and budget."""
    universe: tuple[str, ...]
    sets: tuple[tuple[str, ...], ...]
    names: tuple[str, ...]
    kappa: int


def build_hs_instance(
    universe: Sequence[str],
    sets: Sequence[Sequence[str]],
    kappa: int,
    names: Optional[Sequence[str]] = None,
) -> HittingSetInstance:
    universe = tuple(universe)
    for x in universe:
        check_ident(x, "universe element")
    if len(set(universe)) != len(universe):
        raise ValueError("duplicate universe element")
    index = {x: i for i, x in enumerate(universe)}
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if names is None:
        names = [f"S{i}" for i in range(1, len(sets) + 1)]
    names = tuple(names)
    if len(names) != len(sets):
        raise ValueError("set name count does not match set count")
    for nm in names:
        check_ident(nm, "set name")
    if len(set(names)) != len(names):
        raise ValueError("duplicate set name")
    norm: list[tuple[str, ...]] = []
    for nm, members in zip(names, sets):
        members = tuple(members)
        if not members:
            raise ValueError(f"set {nm} is empty")
        for x in members:
            if x not in index:
                raise ValueError(f"set {nm} references unknown element {x!r}")
        if len(set(members)) != len(members):
            raise ValueError(f"set {nm} lists an element twice")
        norm.append(tuple(sorted(members, key=index.__getitem__)))
    return HittingSetInstance(universe=universe, sets=tuple(norm),
                              names=names, kappa=kappa)


def hs_brute_force(inst: HittingSetInstance) -> Optional[tuple[str, ...]]:
    """Smallest hitting set within the budget, ties broken lexicographically.

    Exhausts subsets of size 0..kappa in index order, so the result is the
    first hitting set in (size, lexicographic) order, or None.
    """
    member_idx = [frozenset(inst.universe.index(x) for x in s)
                  for s in inst.sets]
    for size in range(0, inst.kappa + 1):
        for combo in combinations(range(len(inst.universe)), size):
            picked = set(combo)
            if all(picked & s for s in member_idx):
                return tuple(inst.universe[i] for i in combo)
    return None


def is_hitting_set(inst: HittingSetInstance, elements: Iterable[str]) -> bool:
    chosen = set(elements)
    for x in chosen:
        if x not in inst.universe:
            raise ValueError(f"unknown universe element {x!r}")
    return all(chosen.intersection(s) for s in inst.sets)


@dataclass(frozen=True)
class ReductionArtifact:
    """A generated synthesis input plus the data needed to interpret it."""
    construction: str
    instance: HittingSetInstance
    ts: TransitionSystem
    d: int
    alpha: EsspAtom
    default_type: frozenset[str]


@dataclass(frozen=True)
class RelevantEntry:
    """One guarded event of a gadget and the gadgets it must replay in.

    set_index is i (1-based), position is j in 2..m_i+1, event is the j-th
    guarded event (the member X at position j, or z4 past the last member),
    sources lists (gadget g, ordinal n) ascending by g.
    """
    set_index: int
    position: int
    event: str
    sources: tuple[tuple[int, int], ...]


Edge = tuple[str, str, str]

# event names any of the four constructions may generate
_RESERVED_EVENT = re.compile(
    r"(k|z[1-4]?|o[12]?|w\d+|u\d+|theta_\d+|a_\d+_\d+|c_\d+_\d+"
    r"|(v|oplus)_\d+\.\d+_\d+)\Z")


def _finish(construction: str, inst: HittingSetInstance, edges: list[Edge],
            initial: str, d: int, alpha: EsspAtom,
            default_type: frozenset[str]) -> ReductionArtifact:
    for x in inst.universe:
        if _RESERVED_EVENT.match(x):
            raise ValueError(
                f"universe element {x!r} collides with reserved event names")
    states = sorted({s for s, _, _ in edges} | {s for _, _, s in edges})
    events = sorted({e for _, e, _ in edges})
    ts = build_ts(states, events, edges, initial)
    return ReductionArtifact(construction=construction, instance=inst,
                             ts=ts, d=d, alpha=alpha,
                             default_type=default_type)


def _numbered(prefix: str, first: int = 0) -> Iterator[str]:
    """prefix_first, prefix_<first + 1>, ... without end."""
    return (f"{prefix}_{r}" for r in count(first))


def _path(edges: list[Edge], start: str, states: Iterable[str],
          word: Iterable[str], back: Iterable[bool] = repeat(False)) -> None:
    """Append the path that spells word from start, entering the next of
    states at each step; a step whose flag in back is true also runs
    backwards. states and back may run on past the word."""
    src = start
    for event, dst, both in zip(word, states, back):
        edges.append((src, event, dst))
        if both:
            edges.append((dst, event, src))
        src = dst


def reduce_t11(inst: HittingSetInstance) -> ReductionArtifact:
    """Hitting set -> ESSP over {nop, inp, set}, bound kappa + 2.

    One linear gadget per member set walks k, the set's elements, z, k; a
    head gadget provides the atom (k, h_2). Solving the atom forces sig(k)
    = inp, whose side effects can only be repaired by set-signatures on a
    hitting set of the member sets.
    """
    m = len(inst.sets)
    edges: list[Edge] = []
    _path(edges, "bot_1", _numbered("bot", 2),
          islice(_numbered("theta", 1), m))
    _path(edges, f"bot_{m + 1}", _numbered("h"),
          (f"w{m + 1}", "k", "z", "o", "k"))
    for gi, members in enumerate(inst.sets, start=1):
        _path(edges, f"bot_{gi}", _numbered(f"t_{gi}"),
              (f"w{gi}", "k", *members, "z", "k"))
    return _finish("1.1", inst, edges, "bot_1", inst.kappa + 2,
                   EsspAtom("k", "h_2"), frozenset({"nop", "inp", "set"}))


def reduce_t12(inst: HittingSetInstance) -> ReductionArtifact:
    """Hitting set -> ESSP over {nop, set, res, used}, bound kappa + 4.

    Same skeleton idea as 1.1 with sig(k) = used forced instead, three head
    gadgets, and a same-event self-loop on the target of every edge (which
    rules out swap-like signatures the type does not offer anyway and keeps
    every used/set/res application consistent).
    """
    m = len(inst.sets)
    real: list[Edge] = []
    _path(real, "bot_1", _numbered("bot", 2),
          islice(_numbered("theta", 1), m + 2))
    for gi, members in enumerate(inst.sets, start=1):
        _path(real, f"bot_{gi}", _numbered(f"t_{gi}"),
              (f"w{gi}", "k", "z1", *members, "z2", "k"))
    _path(real, f"bot_{m + 1}", _numbered("h_1"),
          (f"w{m + 1}", "k", "o1", "o2", "k"))
    _path(real, f"bot_{m + 2}", _numbered("h_2"), (f"w{m + 2}", "k", "z1"))
    _path(real, f"bot_{m + 3}", _numbered("h_3"), ("o1",))
    edges = list(real)
    edges.extend((dst, e, dst) for _, e, dst in real)
    edges.append(("h_2_2", "o1", "h_2_2"))
    edges.append(("h_3_0", f"w{m + 3}", "h_3_0"))
    edges.append(("h_3_0", "z2", "h_3_0"))
    return _finish("1.2", inst, edges, "bot_1", inst.kappa + 4,
                   EsspAtom("k", "h_1_2"),
                   frozenset({"nop", "set", "res", "used"}))


def reduce_t13(inst: HittingSetInstance) -> ReductionArtifact:
    """Hitting set -> ESSP over {nop, set, swap, used}, bound kappa + 4.

    Back-and-forth edge pairs replace 1.2's self-loops: each member is
    walked forward once and then shuttled (member, guard a_i_j) so that a
    swap signature cannot fake a hit.
    """
    m = len(inst.sets)
    edges: list[Edge] = []
    _path(edges, "bot_1", _numbered("bot", 2),
          islice(_numbered("theta", 1), m + 1))
    _path(edges, f"bot_{m + 1}", _numbered("h_0", 1),
          (f"w{m + 1}", "k", "o1", "o2", "k"), repeat(True))
    _path(edges, f"bot_{m + 2}", _numbered("h_1", 1),
          (f"w{m + 2}", "k", "z1", "o1", "z2", "k"), repeat(True))
    for gi, members in enumerate(inst.sets, start=1):
        # each member: shuttle its guard, walk it, shuttle it, then the
        # guard again
        word, back = [f"w{gi}", "k", "z1"], [False, False, True]
        for j, x in enumerate(members, start=1):
            guard = f"a_{gi}_{j}"
            word += (guard, x, x, guard)
            back += (True, False, True, True)
        word += ("z2", "k")
        back += (True, False)
        _path(edges, f"bot_{gi}", _numbered(f"t_{gi}"), word, back)
    return _finish("1.3", inst, edges, "bot_1", inst.kappa + 4,
                   EsspAtom("k", "h_0_3"),
                   frozenset({"nop", "set", "swap", "used"}))


def relevant_paths(inst: HittingSetInstance) -> list[RelevantEntry]:
    """Which guarded events of each gadget must replay in which others.

    For gadget i with members X_1..X_m_i, the guarded events are e_j = X_j
    (j <= m_i) and e_{m_i+1} = z4; event e_j is relevant for gadget g != i
    when e_j occurs in gadget g's event set but e_{j-1} does not. Entries
    are returned for every (i, j), j >= 2, including empty ones; sources
    carry 1-based ordinals in ascending gadget order.
    """
    gadget_events: list[frozenset[str]] = [
        frozenset(s) | {"k", "z3", "z4"} for s in inst.sets]
    out: list[RelevantEntry] = []
    for i, members in enumerate(inst.sets, start=1):
        guarded = list(members) + ["z4"]
        for j in range(2, len(guarded) + 1):
            ev, prev = guarded[j - 1], guarded[j - 2]
            sources = tuple(
                (g, n) for n, g in enumerate(
                    (g for g in range(1, len(inst.sets) + 1)
                     if g != i and ev in gadget_events[g - 1]
                     and prev not in gadget_events[g - 1]),
                    start=1))
            out.append(RelevantEntry(set_index=i, position=j, event=ev,
                                     sources=sources))
    return out


def _gadget_paths(inst: HittingSetInstance) -> dict[int, list[tuple[int, int, int]]]:
    """Per gadget g: the (i, j, n) of each path replayed in g, by (i, j)."""
    per: dict[int, list[tuple[int, int, int]]] = {
        g: [] for g in range(1, len(inst.sets) + 1)}
    for entry in relevant_paths(inst):
        for g, n in entry.sources:
            per[g].append((entry.set_index, entry.position, n))
    for g in per:
        per[g].sort()
    return per


def reduce_t14(inst: HittingSetInstance) -> ReductionArtifact:
    """Hitting set -> ESSP over {nop, inp, res, swap}, bound kappa + 4.

    Five head gadgets force sig(k) = inp and swap on o2/z3/z4; each member
    gadget is reached through a prefix replaying, for every other gadget's
    guarded events relevant here, a short v/oplus path, so a res on a
    non-hitting member cannot be compensated by swaps elsewhere.
    """
    m = len(inst.sets)
    edges: list[Edge] = []
    _path(edges, "bot_1", _numbered("bot", 2),
          islice(_numbered("theta", 1), m + 4))
    heads = (("o1", "o2"), ("z1", "o2"), ("z2", "o2"), ("z1", "z3", "z2"),
             ("z1", "z4", "z2"))
    for hi, mids in enumerate(heads):
        _path(edges, f"bot_{m + 1 + hi}", _numbered(f"h_{hi}"),
              (f"w{m + 1 + hi}", "k", *mids, "k"))
    per_gadget = _gadget_paths(inst)
    for gi, members in enumerate(inst.sets, start=1):
        # from bot_<gi>, replay each path P_<i>.<j>_<gi>_<n>, a connector
        # between two, or pass q_<gi> when there are none; then u<gi>
        # enters the member walk
        paths = per_gadget[gi]
        word, states = [f"w{gi}"], [] if paths else [f"q_{gi}"]
        for r, (i, j, n) in enumerate(paths, start=1):
            tag = f"{i}.{j}"
            if r > 1:
                word.append(f"c_{gi}_{r - 1}")
            word.append(f"v_{tag}_{n}")
            word += (f"oplus_{tag}_{x}" for x in range(n, 0, -1))
            states += (f"s_{tag}_{gi}_{x}" for x in range(n + 2))
        word += (f"u{gi}", "k", "z3", *members, "z4", "k")
        _path(edges, f"bot_{gi}", chain(states, _numbered(f"t_{gi}")), word)
    return _finish("1.4", inst, edges, "bot_1", inst.kappa + 4,
                   EsspAtom("k", "h_0_2"),
                   frozenset({"nop", "inp", "res", "swap"}))


_REDUCERS = {
    "1.1": reduce_t11,
    "1.2": reduce_t12,
    "1.3": reduce_t13,
    "1.4": reduce_t14,
}


def reduce_instance(construction: str, inst: HittingSetInstance) -> ReductionArtifact:
    if construction not in _REDUCERS:
        raise ValueError(f"unknown construction {construction!r}")
    return _REDUCERS[construction](inst)


_WITNESS_SIG = {
    "1.1": ({"k": "inp", "o": "set"}, "set"),
    "1.2": ({"k": "used", "o2": "set", "o1": "res", "z1": "res"}, "set"),
    "1.3": ({"k": "used", "o1": "swap", "o2": "swap", "z1": "swap"}, "set"),
    "1.4": ({"k": "inp", "o2": "swap", "z3": "swap", "z4": "swap"}, "res"),
}


def alpha_witness_region(construction: str, artifact: ReductionArtifact,
                         hitting_set: Iterable[str]) -> Region:
    """The explicit region that a hitting set induces; it solves alpha.

    Raises ValueError when the given elements are not a hitting set within
    the budget. Elements that occur in no member set contribute no
    signature entry (they label no event).
    """
    if construction not in _WITNESS_SIG:
        raise ValueError(f"unknown construction {construction!r}")
    if construction != artifact.construction:
        raise ValueError(
            f"artifact was built by construction {artifact.construction}")
    inst = artifact.instance
    elements = set(hitting_set)
    for x in elements:
        if x not in inst.universe:
            raise ValueError(f"unknown universe element {x!r}")
    chosen = sorted(elements, key=inst.universe.index)
    if not is_hitting_set(inst, chosen):
        unhit = next(nm for nm, s in zip(inst.names, inst.sets)
                     if not set(chosen).intersection(s))
        raise ValueError(f"not a hitting set: misses {unhit}")
    if len(chosen) > inst.kappa:
        raise ValueError(
            f"hitting set has {len(chosen)} elements, kappa is {inst.kappa}")
    base, member_sig = _WITNESS_SIG[construction]
    sig = {e: "nop" for e in artifact.ts.events}
    sig.update(base)
    for x in chosen:
        if x in sig:
            sig[x] = member_sig
    tree = spanning_tree(artifact.ts)
    region = expand_region(artifact.ts, artifact.default_type, 1, sig, tree)
    if region is None or not solves_essp(region, artifact.default_type,
                                         artifact.alpha.event,
                                         artifact.alpha.state):
        raise RuntimeError("expanded witness does not solve the atom")
    return region


# -- hitting-set file format ----------------------------------------------


def parse_hs(text: str) -> HittingSetInstance:
    lines = tokenize(text)
    expect_model(lines, "hs")
    universe: Optional[list[str]] = None
    names: list[str] = []
    sets: list[list[str]] = []
    kappa: Optional[int] = None
    for lineno, tokens in lines[1:]:
        key = tokens[0]
        if key == ".universe":
            if universe is not None:
                raise ParseError(f"line {lineno}: duplicate .universe")
            universe = tokens[1:]
        elif key == ".set":
            if len(tokens) < 2:
                raise ParseError(f"line {lineno}: .set needs a name")
            names.append(tokens[1])
            sets.append(tokens[2:])
        elif key == ".kappa":
            if kappa is not None:
                raise ParseError(f"line {lineno}: duplicate .kappa")
            # isdigit alone admits every Unicode digit, superscripts too
            if len(tokens) != 2 or not (tokens[1].isascii()
                                        and tokens[1].isdigit()):
                raise ParseError(f"line {lineno}: .kappa needs one integer")
            kappa = int(tokens[1])
        else:
            raise ParseError(f"line {lineno}: unknown directive {key}")
    if universe is None:
        raise ParseError("missing .universe line")
    if kappa is None:
        raise ParseError("missing .kappa line")
    try:
        return build_hs_instance(universe, sets, kappa, names)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def render_hs(inst: HittingSetInstance) -> str:
    out = [".model hs", ".universe " + " ".join(inst.universe)]
    for nm, members in zip(inst.names, inst.sets):
        out.append(f".set {nm} " + " ".join(members))
    out.append(f".kappa {inst.kappa}")
    return "\n".join(out) + "\n"


def read_hs(path: str) -> HittingSetInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hs(fh.read())


def write_hs(path: str, inst: HittingSetInstance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_hs(inst))


# -- reduction metadata ----------------------------------------------------


def render_meta(artifact: ReductionArtifact) -> str:
    """Plain-text summary: bound, atom, type, naming, and (1.4) replays."""
    inst = artifact.instance
    out = [
        ".model meta",
        f".construction {artifact.construction}",
        f".d {artifact.d}",
        f".alpha {artifact.alpha}",
        ".type " + format_type(artifact.default_type),
    ]
    for x in inst.universe:
        target = x if x in artifact.ts.events else "-"
        out.append(f".event {x} {target}")
    for gi, nm in enumerate(inst.names, start=1):
        out.append(f".gadget {nm} t_{gi}")
    if artifact.construction == "1.4":
        for entry in relevant_paths(inst):
            if not entry.sources:
                continue
            paths = " ".join(
                f"P_{entry.set_index}.{entry.position}_{g}_{n}"
                for g, n in entry.sources)
            out.append(f".relevant {entry.set_index} {entry.position} "
                       f"{entry.event} {paths}")
        per_gadget = _gadget_paths(inst)
        for gi in range(1, len(inst.sets) + 1):
            paths = per_gadget[gi]
            if not paths:
                out.append(f".composition {gi} q_{gi}")
                continue
            parts: list[str] = []
            for r, (i, j, n) in enumerate(paths, start=1):
                if r > 1:
                    parts.append(f"c_{gi}_{r - 1}")
                parts.append(f"P_{i}.{j}_{gi}_{n}")
            out.append(f".composition {gi} " + " ".join(parts))
    return "\n".join(out) + "\n"
