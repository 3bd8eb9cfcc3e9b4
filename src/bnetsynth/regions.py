"""Regions of a transition system: candidate boolean places.

A region assigns a support bit to every state and an interaction to every
event such that every edge of the TS is consistent under apply(). A region
is determined by its support at the initial state plus the signature (the
implicit form); the explicit support follows along any spanning tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import interactions, lineio
from .interactions import apply as apply_i
from .lineio import ParseError
from .ts import SpanningTree, TransitionSystem

Edge = tuple[str, str, str]


class InvalidRegion(ValueError):
    pass


@dataclass(frozen=True)
class Region:
    """A support over the states and a signature over the events.

    Frozen but not hashable: both fields are dicts, so hash() raises
    TypeError. implicit_form(region, ts) is the hashable key.
    """
    support: dict[str, int]  # total over states
    signature: dict[str, str]  # total over events

    def __repr__(self) -> str:
        non_nop = {e: i for e, i in self.signature.items() if i != "nop"}
        return f"Region(non_nop={non_nop!r})"


def restriction_count(region: Region) -> int:
    """Number of events carrying a non-nop signature."""
    return sum(1 for i in region.signature.values() if i != "nop")


def implicit_form(region: Region, ts: TransitionSystem) -> tuple[int, tuple[tuple[str, str], ...]]:
    """Tree-independent key: initial support plus the sorted non-nop signature."""
    sig = tuple(sorted((e, i) for e, i in region.signature.items() if i != "nop"))
    return (region.support[ts.initial], sig)


def _check_signature(
    ts: TransitionSystem,
    net_type: frozenset[str],
    sig: Mapping[str, str],
) -> None:
    """Raise InvalidRegion unless sig maps exactly the TS's events into the type."""
    for e in ts.events:
        if e not in sig:
            raise InvalidRegion(f"signature missing event {e!r}")
    events = set(ts.events)
    for e, i in sig.items():
        if e not in events:
            raise InvalidRegion(f"signature references unknown event {e!r}")
        if not interactions.is_interaction(i):
            raise InvalidRegion(f"signature maps {e!r} to unknown interaction {i!r}")
        if i not in net_type:
            raise InvalidRegion(f"signature maps {e!r} to {i!r} outside the net type")


def _first_bad_edge(
    ts: TransitionSystem,
    support: Mapping[str, int],
    sig: Mapping[str, str],
) -> Optional[Edge]:
    """First edge in canonical order that the region does not respect."""
    for src, event, dst in ts.edges:
        v = apply_i(sig[event], support[src])
        if v is None or v != support[dst]:
            return (src, event, dst)
    return None


def expand_region(
    ts: TransitionSystem,
    net_type: frozenset[str],
    sup_initial: int,
    sig: Mapping[str, str],
    tree: SpanningTree,
) -> Optional[Region]:
    """Expand an implicit region (initial support + total signature).

    Support propagates from the initial state along the spanning tree; the
    result is then checked against every edge of the TS. Returns None when
    propagation hits an undefined application or any edge is inconsistent.
    Raises InvalidRegion when sup_initial is not 0 or 1, or sig is not a
    total map into the net type.
    """
    region, _ = diagnose_expansion(ts, net_type, sup_initial, sig, tree)
    return region


def diagnose_expansion(
    ts: TransitionSystem,
    net_type: frozenset[str],
    sup_initial: int,
    sig: Mapping[str, str],
    tree: SpanningTree,
) -> tuple[Optional[Region], Optional[Edge]]:
    """expand_region plus the edge that witnesses a failed expansion.

    On success returns (region, None). On failure returns (None, edge)
    where edge is either the tree edge whose application was undefined or
    the first inconsistent edge in canonical order.
    """
    if sup_initial not in (0, 1):
        raise InvalidRegion(
            f"support maps {tree.root!r} to {sup_initial!r}, not 0 or 1")
    _check_signature(ts, net_type, sig)
    support: dict[str, int] = {tree.root: sup_initial}
    for state in tree.order[1:]:
        parent, event = tree.parent[state]
        v = apply_i(sig[event], support[parent])
        if v is None:
            return None, (parent, event, state)
        support[state] = v
    bad = _first_bad_edge(ts, support, sig)
    if bad is not None:
        return None, bad
    return Region(support=support, signature=dict(sig)), None


def validate_region(
    ts: TransitionSystem,
    net_type: frozenset[str],
    region: Region,
) -> tuple[bool, Optional[Edge]]:
    """Check edge consistency; on failure also return the first bad edge.

    Edges are examined in canonical order, so the reported violation is
    deterministic. Raises InvalidRegion when the region is malformed: its
    support is not a 0/1 map over every state, or its signature is not a
    total map from the TS's events into the net type.
    """
    for s in ts.states:
        if s not in region.support:
            raise InvalidRegion(f"support missing state {s!r}")
        if region.support[s] not in (0, 1):
            raise InvalidRegion(
                f"support maps {s!r} to {region.support[s]!r}, not 0 or 1")
    _check_signature(ts, net_type, region.signature)
    bad = _first_bad_edge(ts, region.support, region.signature)
    return bad is None, bad


@dataclass(frozen=True)
class PathImage:
    """Alternating support/interaction sequence along a path."""
    supports: tuple[int, ...]
    interactions: tuple[str, ...]

    def steps(self) -> list[tuple[int, Optional[str]]]:
        pairs: list[tuple[int, Optional[str]]] = []
        for idx, sup in enumerate(self.supports):
            i = self.interactions[idx] if idx < len(self.interactions) else None
            pairs.append((sup, i))
        return pairs

    def __str__(self) -> str:
        parts = [str(self.supports[0])]
        for i, sup in zip(self.interactions, self.supports[1:]):
            parts.append(f"-{i}-> {sup}")
        return " ".join(parts)


def image_of_path(
    region: Region,
    path: Sequence[Edge],
    at: Optional[str] = None,
) -> PathImage:
    """Image of a directed path under a region.

    The path is a sequence of connected edge triples; an empty path needs
    the anchoring state passed as `at`. Raises ValueError on disconnected
    paths or states/events the region does not cover.
    """
    if not path:
        if at is None:
            raise ValueError("empty path needs an anchoring state")
        if at not in region.support:
            raise ValueError(f"path references unknown state {at!r}")
        return PathImage(supports=(region.support[at],), interactions=())
    sups = []
    sigs = []
    prev_dst: Optional[str] = None
    for src, event, dst in path:
        if prev_dst is not None and src != prev_dst:
            raise ValueError(
                f"disconnected path: edge starts at {src!r} after {prev_dst!r}")
        for s in (src, dst):
            if s not in region.support:
                raise ValueError(f"path references unknown state {s!r}")
        if event not in region.signature:
            raise ValueError(f"path references unknown event {event!r}")
        if prev_dst is None:
            sups.append(region.support[src])
        sups.append(region.support[dst])
        sigs.append(region.signature[event])
        prev_dst = dst
    return PathImage(supports=tuple(sups), interactions=tuple(sigs))


def solves_ssp(region: Region, s1: str, s2: str) -> bool:
    """Support separation: the two states carry different bits."""
    if s1 == s2:
        raise ValueError(f"state pair ({s1!r}, {s1!r}) is not a separation problem")
    return region.support[s1] != region.support[s2]


def solves_essp(region: Region, net_type: frozenset[str], event: str, state: str) -> bool:
    """Event/state separation: sig(event) is undefined at sup(state)."""
    sig = region.signature[event]
    if sig not in net_type:
        raise InvalidRegion(f"signature maps {event!r} to {sig!r} outside the net type")
    return apply_i(sig, region.support[state]) is None


# ---------------------------------------------------------------------------
# file format (implicit form; expansion needs the ambient TS and type)

def parse_region_file(text: str) -> list[tuple[int, dict[str, str]]]:
    """Parse one or more implicit-region blocks.

    Each block starts with `.model region`; a file holding a single region
    is the common case, but witness dumps may concatenate several.
    """
    lines = lineio.tokenize(text)
    lineio.expect_model(lines, "region")
    blocks: list[tuple[Optional[int], dict[str, str]]] = []
    current: Optional[tuple[Optional[int], dict[str, str]]] = None
    for lineno, toks in lines:
        if toks == [".model", "region"]:
            current = (None, {})
            blocks.append(current)
        elif toks[0] == ".model":
            raise ParseError(f"line {lineno}: expected '.model region'")
        elif toks[0] == ".supinit":
            if len(toks) != 2 or toks[1] not in ("0", "1"):
                raise ParseError(f"line {lineno}: .supinit takes 0 or 1")
            if current is None or current[0] is not None:
                raise ParseError(f"line {lineno}: stray or duplicate .supinit")
            blocks[-1] = current = (int(toks[1]), current[1])
        elif toks[0] == ".sig":
            if len(toks) != 3:
                raise ParseError(f"line {lineno}: .sig takes event interaction")
            if current is None:
                raise ParseError(f"line {lineno}: .sig before .model region")
            event = lineio.check_ident(toks[1], "event")
            if not interactions.is_interaction(toks[2]):
                raise ParseError(f"line {lineno}: unknown interaction {toks[2]!r}")
            if event in current[1]:
                raise ParseError(f"line {lineno}: duplicate .sig for {event!r}")
            current[1][event] = toks[2]
        else:
            raise ParseError(f"line {lineno}: unknown directive {toks[0]!r}")
    out: list[tuple[int, dict[str, str]]] = []
    for supinit, sig in blocks:
        if supinit is None:
            raise ParseError("region block missing .supinit")
        out.append((supinit, sig))
    return out


def parse_region(text: str) -> tuple[int, dict[str, str]]:
    blocks = parse_region_file(text)
    if len(blocks) != 1:
        raise ParseError(f"expected exactly one region block, found {len(blocks)}")
    return blocks[0]


def render_region(supinit: int, sig: Mapping[str, str]) -> str:
    out = [".model region", f".supinit {supinit}"]
    for e in sorted(sig):
        if sig[e] != "nop":
            out.append(f".sig {e} {sig[e]}")
    return "\n".join(out) + "\n"


def render_region_of(region: Region, ts: TransitionSystem) -> str:
    return render_region(region.support[ts.initial], region.signature)
