"""Boolean nets: flow functions, firing, reachability graphs.

A net couples each (place, transition) pair with an interaction drawn from
the net's type. Firing applies every place's interaction at once and is only
possible when all of them are defined at the current marking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from . import interactions, lineio
from .interactions import apply as apply_i
from .lineio import ParseError
from .ts import TransitionSystem, build_ts

DEFAULT_REACH_CAP = 2 ** 20


class InvalidNet(ValueError):
    pass


@dataclass(frozen=True)
class BooleanNet:
    places: tuple[str, ...]  # sorted
    transitions: tuple[str, ...]  # sorted
    net_type: frozenset[str]
    flow: dict[tuple[str, str], str]  # sparse; missing pairs mean nop
    initial_marking: dict[str, int]

    def flow_at(self, place: str, transition: str) -> str:
        return self.flow.get((place, transition), "nop")

    def __repr__(self) -> str:
        return (f"BooleanNet({len(self.places)} places, "
                f"{len(self.transitions)} transitions)")


def build_net(
    places: Iterable[str],
    transitions: Iterable[str],
    net_type: frozenset[str],
    flow: Mapping[tuple[str, str], str],
    initial_marking: Mapping[str, int],
) -> BooleanNet:
    place_set, trans_set = set(places), set(transitions)
    if not net_type:
        raise InvalidNet("net type is empty")
    for i in net_type:
        if not interactions.is_interaction(i):
            raise InvalidNet(f"unknown interaction {i!r} in net type")

    clean_flow: dict[tuple[str, str], str] = {}
    for (p, t), i in flow.items():
        if p not in place_set:
            raise InvalidNet(f"flow references undeclared place {p!r}")
        if t not in trans_set:
            raise InvalidNet(f"flow references undeclared transition {t!r}")
        if not interactions.is_interaction(i):
            raise InvalidNet(f"flow at ({p}, {t}) names unknown interaction {i!r}")
        if i not in net_type:
            raise InvalidNet(f"flow at ({p}, {t}) uses {i!r} outside the net type")
        if i != "nop":
            clean_flow[(p, t)] = i

    place_t, trans_t = tuple(sorted(place_set)), tuple(sorted(trans_set))
    if len(clean_flow) < len(place_t) * len(trans_t) and "nop" not in net_type:
        raise InvalidNet("flow defaults to nop on omitted pairs but nop is not in the net type")

    marking: dict[str, int] = {}
    for p in place_t:
        if p not in initial_marking:
            raise InvalidNet(f"initial marking missing place {p!r}")
        v = initial_marking[p]
        if v not in (0, 1):
            raise InvalidNet(f"initial marking of {p!r} must be 0 or 1, got {v!r}")
        marking[p] = v

    return BooleanNet(place_t, trans_t, net_type, clean_flow, marking)


def fire(net: BooleanNet, marking: Mapping[str, int], transition: str) -> Optional[dict[str, int]]:
    """The successor marking, or None when some interaction is undefined."""
    if transition not in net.transitions:
        raise InvalidNet(f"unknown transition {transition!r}")
    result: dict[str, int] = {}
    for p in net.places:
        v = apply_i(net.flow_at(p, transition), marking[p])
        if v is None:
            return None
        result[p] = v
    return result


def marking_id(net: BooleanNet, marking: Mapping[str, int]) -> str:
    """Canonical state name for a marking: 'm' + bits in place order."""
    return "m" + "".join(str(marking[p]) for p in net.places)


def reachability_graph(net: BooleanNet, cap: int = DEFAULT_REACH_CAP) -> TransitionSystem:
    """Breadth-first reachability graph as a transition system.

    State names are canonical marking encodings. Transitions that never fire
    are omitted from the event set. Raises InvalidNet when more than `cap`
    markings are reached, the initial one included, and ValueError when
    `cap` is below 1.
    """
    if cap < 1:
        raise ValueError(f"reachability cap must be >= 1, got {cap}")
    init = dict(net.initial_marking)
    init_id = marking_id(net, init)
    seen: dict[str, dict[str, int]] = {init_id: init}
    queue = deque([init_id])
    edges: list[tuple[str, str, str]] = []
    while queue:
        mid = queue.popleft()
        m = seen[mid]
        for t in net.transitions:
            m2 = fire(net, m, t)
            if m2 is None:
                continue
            mid2 = marking_id(net, m2)
            if mid2 not in seen:
                if len(seen) >= cap:
                    raise InvalidNet(
                        f"reachability graph exceeds cap of {cap} markings")
                seen[mid2] = m2
                queue.append(mid2)
            edges.append((mid, t, mid2))
    events = {t for (_, t, _) in edges}
    return build_ts(seen.keys(), events, edges, init_id)


def dependency_number(net: BooleanNet) -> int:
    """Largest number of non-nop flow entries of any single place (0 if none)."""
    return max(dependency_by_place(net).values(), default=0)


def dependency_by_place(net: BooleanNet) -> dict[str, int]:
    counts = {p: 0 for p in net.places}
    for (p, _), i in net.flow.items():
        if i != "nop":
            counts[p] += 1
    return counts


# ---------------------------------------------------------------------------
# file format

def parse_net(text: str) -> BooleanNet:
    lines = lineio.tokenize(text)
    lineio.expect_model(lines, "bnet")
    net_type: Optional[frozenset[str]] = None
    places: list[str] = []
    transitions: list[str] = []
    flow: dict[tuple[str, str], str] = {}
    marking: dict[str, int] = {}
    for lineno, toks in lines[1:]:
        if toks[0] == ".type":
            if len(toks) != 2:
                raise ParseError(f"line {lineno}: .type takes one comma-list")
            if net_type is not None:
                raise ParseError(f"line {lineno}: duplicate .type")
            net_type = interactions.parse_type(toks[1])
        elif toks[0] == ".place":
            if len(toks) != 3 or toks[2] not in ("0", "1"):
                raise ParseError(f"line {lineno}: .place takes an id and 0|1")
            p = lineio.check_ident(toks[1], "place")
            if p in marking:
                raise ParseError(f"line {lineno}: duplicate place {p!r}")
            places.append(p)
            marking[p] = int(toks[2])
        elif toks[0] == ".transition":
            if len(toks) != 2:
                raise ParseError(f"line {lineno}: .transition takes one id")
            transitions.append(lineio.check_ident(toks[1], "transition"))
        elif toks[0] == ".flow":
            if len(toks) != 4:
                raise ParseError(f"line {lineno}: .flow takes place transition interaction")
            p = lineio.check_ident(toks[1], "place")
            t = lineio.check_ident(toks[2], "transition")
            if (p, t) in flow:
                raise ParseError(f"line {lineno}: duplicate flow for ({p}, {t})")
            flow[(p, t)] = toks[3]
        else:
            raise ParseError(f"line {lineno}: unknown directive {toks[0]!r}")
    if net_type is None:
        raise ParseError("missing .type directive")
    return build_net(places, transitions, net_type, flow, marking)


def render_net(net: BooleanNet) -> str:
    out = [".model bnet", f".type {interactions.format_type(net.net_type)}"]
    for p in net.places:
        out.append(f".place {p} {net.initial_marking[p]}")
    for t in net.transitions:
        out.append(f".transition {t}")
    for (p, t) in sorted(net.flow):
        out.append(f".flow {p} {t} {net.flow[(p, t)]}")
    return "\n".join(out) + "\n"


def read_net(path: str) -> BooleanNet:
    with open(path, encoding="utf-8") as fh:
        return parse_net(fh.read())


def write_net(path: str, net: BooleanNet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_net(net))
