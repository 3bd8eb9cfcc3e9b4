"""Exhaustive synthesis over restriction-bounded regions.

The candidate space for a bound d is every triple (event subset of size
<= d, assignment of non-nop interactions to the subset, initial support
bit); events outside the subset get nop. Candidates are enumerated in a
fixed canonical order: restriction count ascending, then event subset
lexicographically, then assignments position-major in canonical
interaction order, then initial support 0 before 1.

Fixing the nop-events contracts the TS, because nop forces equal support
across an edge. Each subset is therefore explored on a quotient graph
maintained by a rollback union-find that keeps each class's states as a
bitmask; contracting an event walks a spanning forest of its own edges,
which merges the same classes as all of them. The subsets are walked on
one explicit stack of choice ranges: a range is split into a left part,
visited first, and a right part, visited with the left part contracted.
A slot before the last splits off its first choice; the last slot is
halved, its left half visited with the right half contracted, so each
event is contracted O(log |E|) times per prefix rather than once per
leaf, and the leaves still come out in ascending order.
A subset's assignments are an odometer over positions for both initial-
support hypotheses: two bitmasks over quotient classes each (R valued, O
valued 1), snapshotted per position. Every interaction but swap gives its
targets one value whatever their sources hold, so a position values all
its targets when it is assigned, and the sources' needs are checked
against two masks, those needing 1 and those needing 0. Only swap carries
a value from a source, fired from each newly valued class through the
swap positions assigned so far. Every state is reachable, so a complete
assignment values every class, and a hypothesis dies as soon as a known
value breaks a rule. Pruning only skips candidates that cannot solve the
atoms. An atom search takes a row: the open states j of ssp:i,j for one
state i, or of essp:e,j for one event e (one state for solve_atom). A
contraction is dropped with the rest of its range once every open state
shares a class with i, or with a source of e (or a target, if every
partial keeps its value), or a class holds states that no solver of essp
at e can give one value. e is chosen in every subset: the search chooses
the rest among the other events. A hypothesis dies once every open state's
class is valued as i's is, or where e's interaction is defined. Both cuts
hold for each open state alone, and below where they are made: classes
only merge there, and the row only shrinks. When every candidate at e
needs one value and gives one, e's sources and targets, and the class of
a row in one class, are valued before the odometer starts.

solve_drts checks the canonical stream against every open atom at once
while many searches would be needed, then runs one search per open row.
The atoms are bitmask rows built from the TS. Once no ssp atom is open,
the stream skips a subset whose chosen events solve no open essp atom
whatever their interactions: essp:e,s needs e chosen as a partial
interaction, and s outside every class holding a source of e, since the
interaction is defined at that source's value and its class shares it.
The outcome keeps each solver as the search yields it, with the row hits
it claimed, shrunk or not: a Region or an atom object is built only when
a caller reads one. The counters come from the answer alone, never from
the path that found it: candidates_examined is the answer's rank, and
valid_regions the number of solving regions found.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, reduce
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from math import comb
from operator import itemgetter, or_
from typing import Iterable, Iterator, Optional, Sequence

from . import interactions
from .interactions import INTERACTION_ORDER, PARTIAL, apply as apply_i
from .nets import BooleanNet, InvalidNet, build_net, reachability_graph
from .regions import (Edge, Region, _check_signature, solves_essp, solves_ssp,
                      validate_region)
# enumerate_atoms is not called here, but stays a name of this module:
# perfbench/spans.py wraps engine.enumerate_atoms in its traced runs
from .ts import (EsspAtom, SeparationAtom, SspAtom, TransitionSystem,
                 enumerate_atoms, isomorphic, validate_atom)


def candidate_count_formula(num_events: int, num_non_nop: int, d: int) -> int:
    """Size of the candidate space: 2 * sum C(|E|,i) * nn^i for i <= min(d,|E|)."""
    if num_events < 0 or num_non_nop < 0 or d < 0:
        raise ValueError("arguments must be non-negative")
    return 2 * sum(
        comb(num_events, i) * num_non_nop ** i
        for i in range(0, min(d, num_events) + 1)
    )


@dataclass
class EnumerationStats:
    """Counters of one search, read off its answer.

    candidates_examined is the 1-based canonical rank of the answer: the
    region solve_atom found, or solve_drts's last admissible region (0 with
    no atoms). With no answer or after a full drain it is the space size,
    candidate_count_formula with nop in the type. valid_regions counts the
    solving regions: 1 or 0 for solve_atom, solve_drts's distinct
    canonical-first solvers before any shrink, and every region
    enumerate_valid_regions yielded.
    """
    candidates_examined: int = 0
    valid_regions: int = 0
    elapsed: float = 0.0


# A region as the search yields it: the support as a bitmask over state
# indices, the chosen event indices ascending, and their interactions.
Candidate = tuple[int, tuple[int, ...], tuple[str, ...]]


@dataclass
class SynthesisOutcome:
    """A verdict with its admissible regions, each atom's witness among
    them, and the atoms left unsolved, all in canonical order.

    solve_drts returns one whose three lists are built on first access.
    """
    solvable: bool
    admissible_set: list[Region]
    witness_map: dict[SeparationAtom, int]
    unsolved_atoms: list[SeparationAtom]
    stats: EnumerationStats


# each interaction's values at 0 and at 1, None where it is undefined
_AT = {i: (apply_i(i, 0), apply_i(i, 1)) for i in INTERACTION_ORDER}


def _rule(i: str) -> tuple[Optional[int], Optional[int]]:
    at = _AT[i]
    gives = set(at) - {None}
    return (at.index(None) ^ 1 if None in at else None,
            gives.pop() if len(gives) == 1 else None)


# each interaction as (the source value it needs or None, the one value it
# gives a target or None); (None, None) are nop and swap, whose target gets
# the source value kept or flipped
_RULE = {i: _rule(i) for i in INTERACTION_ORDER}

# for each clash code, the interactions left: bit v of the code rules out a
# need of v at a source, bit 2 + v a give of v to a target
_FITS = [frozenset(i for i in INTERACTION_ORDER if not code & sum(
    b << v for b, v in zip((1, 4), _RULE[i]) if v is not None))
    for code in range(16)]

# binary digits as the byte values 0 and 1
_BITS = bytes.maketrans(b"01", b"\0\1")

# A row of atoms: (_SSP, state i, bits of the states j of ssp:i,j) or
# (_ESSP, event e, bits of the states s of essp:e,s); an _AtomIndex hit
_Hit = tuple[int, int, int]
_SSP, _ESSP = 0, 1


def _atom_row(ts: TransitionSystem, atom: SeparationAtom) -> _Hit:
    """The one-state row of an atom."""
    if isinstance(atom, SspAtom):
        return _SSP, ts.states.index(atom.s1), 1 << ts.states.index(atom.s2)
    return _ESSP, ts.events.index(atom.event), 1 << ts.states.index(atom.state)


class _Search:
    """One enumeration run over a TS, a type, and a bound: the canonical
    stream, or with a row only the candidates that may solve its atoms."""

    def __init__(
        self,
        ts: TransitionSystem,
        net_type: frozenset[str],
        d: int,
        row: Optional[_Hit] = None,
    ):
        if d < 0:
            raise ValueError("restriction bound must be >= 0")
        self.states = ts.states
        self.events = ts.events
        self.n_states = len(self.states)
        self.n_events = len(self.events)
        self.state_idx = {s: i for i, s in enumerate(self.states)}
        self.event_idx = {e: i for i, e in enumerate(self.events)}
        self.edges_by_event: list[list[tuple[int, int]]] = [[] for _ in self.events]
        for src, e, dst in ts.edges:
            self.edges_by_event[self.event_idx[e]].append(
                (self.state_idx[src], self.state_idx[dst]))
        self.non_nop = interactions.non_nop(net_type)
        self.partials = tuple(i for i in self.non_nop if i in PARTIAL)
        # the subset sizes searched: without nop every event is chosen
        self.levels = [c for c in range(min(d, self.n_events) + 1)
                       if "nop" in net_type or c == self.n_events]
        self.init_idx = self.state_idx[ts.initial]
        self.constant_support = [dict.fromkeys(self.states, v) for v in (0, 1)]
        self.nop_signature = dict.fromkeys(self.events, "nop")
        self.all_states = (1 << self.n_states) - 1

        # rollback union-find (union by size, no path compression);
        # uf_mask[root] is the bitmask of the states in root's class
        self.uf_parent = list(range(self.n_states))
        self.uf_mask = [1 << s for s in range(self.n_states)]
        self.uf_trail: list[tuple[int, int]] = []

        # each event's spanning forest: the root pairs its edges merge when
        # they alone are contracted, which is also the trail to undo them
        parent = self.uf_parent
        forests = []
        for edges in self.edges_by_event:
            forest = []
            for u, v in edges:
                u, v = self._find(u), self._find(v)
                if u != v:
                    parent[v] = u
                    forest.append((u, v))
            for _, v in forest:
                parent[v] = v
            forests.append(forest)

        # The row acts on the subset search through free, the events it
        # chooses from (an essp row's event is in every subset, so not among
        # them), free_edges, their forests by position, and _contract_range:
        # a contraction is ruled out when every open state of the row lies
        # in a class that meets fatal, or some class holds one of sources
        # and meets targets. The row holds the open states; the caller
        # sheds those it has found. Reading every edge: the row's set-up,
        # _assignments and may_solve.
        self.forced_event: Optional[int] = None
        self.free: Sequence[int] = range(self.n_events)
        self.free_edges = forests
        self.anchor: Optional[int] = None
        self.row = self.fatal = self.targets = 0
        self.sources: list[int] = []
        if row is None:
            return
        kind, i, self.row = row
        if kind == _SSP:
            # ssp:i,j: a class holding i and j gives them one value
            self.anchor = i
            self.fatal = 1 << i
            return
        self.forced_event = i
        self.free = [e for e in self.free if e != i]
        self.free_edges = [forests[e] for e in self.free]
        e_edges = self.edges_by_event[i]
        self.essp_cands = cand = self.partials
        # the partials that give the value they need (used/free), the only
        # ones a class holding a source and a target of the event leaves
        self.essp_keeps = tuple(c for c in cand if _RULE[c][0] == _RULE[c][1])
        # each tuple a position can hold, kept by clash code (bit v: some
        # source class is valued other than v, bit 2 + v: a target class);
        # and the rules of each tuple the event can hold
        self.keep = {c: [tuple(filter(f.__contains__, c)) for f in _FITS]
                     for c in {self.non_nop, cand, self.essp_keeps}}
        self.rules = {c: set(map(_RULE.get, c))
                      for c in (cand, self.essp_keeps)}
        sources = sorted({u for u, _ in e_edges})
        targets = sum(1 << v for v in {v for _, v in e_edges})
        # A merge of a row state with a source of the event fixes sup(state)
        # at the value where sig(event) is defined, for any partial
        # candidate; if every candidate keeps that value, the target has it
        # too and target merges are just as fatal.
        fatal = sum(1 << u for u in sources)
        if not cand:
            # without a partial in the type nothing solves the row
            fatal = self.all_states
        elif self.essp_keeps == cand:
            fatal |= targets
        self.fatal = fatal
        if cand and not self.essp_keeps:
            # inp/out need one value at every source of the event and give
            # the other at every target, so a class holding a source and a
            # target rules the whole contraction out
            self.sources, self.targets = sources, targets

    # -- union-find ---------------------------------------------------------

    def _find(self, x: int) -> int:
        p = self.uf_parent
        while p[x] != x:
            x = p[x]
        return x

    def _contract_range(self, lo: int, hi: int) -> bool:
        """Merge the classes at both ends of each edge of the forests of the
        free events at positions lo..hi-1; False, perhaps with part of it
        done, when the contraction cannot solve the row."""
        parent, cls, trail = self.uf_parent, self.uf_mask, self.uf_trail
        edges = self.free_edges
        for e in range(lo, hi):
            for u, v in edges[e]:
                while parent[u] != u:  # _find, inlined for speed
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u == v:
                    continue
                if cls[u].bit_count() < cls[v].bit_count():
                    u, v = v, u
                parent[v] = u
                cls[u] |= cls[v]
                trail.append((v, u))
        row = self.row
        while row:
            u = (row & -row).bit_length() - 1
            while parent[u] != u:
                u = parent[u]
            if not cls[u] & self.fatal:
                break
            row &= ~cls[u]
        if self.row and not row:
            # every open state of the row shares a class with fatal
            return False
        for u in self.sources:
            while parent[u] != u:
                u = parent[u]
            if cls[u] & self.targets:
                return False
        return True

    def _rollback_uf(self, mark: int) -> None:
        parent, cls, trail = self.uf_parent, self.uf_mask, self.uf_trail
        for rb, ra in reversed(trail[mark:]):
            parent[rb] = rb
            cls[ra] ^= cls[rb]
        del trail[mark:]

    # -- enumeration --------------------------------------------------------

    def region(self, cand: Candidate) -> Region:
        """The Region a compact candidate stands for."""
        mask, chosen, sigs = cand
        # copy the constant support that most states agree with, then set
        # the others (bin() lists bits highest first, so reverse it)
        major = int(2 * mask.bit_count() > self.n_states)
        others = mask ^ self.all_states if major else mask
        bits = bin(others)[:1:-1].encode().translate(_BITS)
        support = self.constant_support[major].copy()
        support.update(zip(compress(self.states, bits), repeat(1 - major)))
        signature = self.nop_signature.copy()
        for j, iname in zip(chosen, sigs):
            signature[self.events[j]] = iname
        return Region(support=support, signature=signature)

    def stream(self, start: int = 0) -> Iterator[Candidate]:
        """The candidates of the subsets of at least start events."""
        for count in self.levels:
            if count >= start:
                yield from self._subset_dfs(count)

    def rank(self, cand: Optional[Candidate]) -> int:
        """1-based position of cand in canonical order; None: the space size."""
        n, nn = self.n_events, len(self.non_nop)
        c = n + 1 if cand is None else len(cand[1])
        below = 2 * sum(comb(n, i) * nn ** i for i in self.levels if i < c)
        if cand is None:
            return below
        mask, chosen, sigs = cand
        # the subset's lexicographic rank (combinatorial number system),
        # then the assignment as base-nn digits, position 0 most significant
        r = comb(n, c) - 1 - sum(comb(n - 1 - j, c - k)
                                 for k, j in enumerate(chosen))
        for iname in sigs:
            r = r * nn + self.non_nop.index(iname)
        return below + 2 * r + (mask >> self.init_idx & 1) + 1

    def _subset_dfs(self, count: int, index: Optional[_AtomIndex] = None
                    ) -> Iterator[Candidate]:
        """The subsets of count events in lexicographic order, each reaching
        _assignments with every other event contracted, unless
        index.may_solve rules it out. An essp row's event is in every
        subset that can solve the row: the search chooses the other
        count - 1 among the free events, and the row's event joins each
        leaf. Dropping an element that every subset holds keeps subsets of
        one size in lexicographic order.

        One stack of ranges over the free events' positions: a frame (k,
        lo, hi, clo, chi, mark) rolls the union-find back to mark, keeps
        the first k chosen events, contracts the events clo..chi-1 and
        visits the choices lo..hi-1 of slot k. A range is split into a left
        part, visited first, and a right part, visited with the left part
        contracted. A slot before the last takes off its first choice,
        which is chosen while the next slot is visited. The last slot is
        halved, its left half visited with the right half contracted, so
        each event is contracted O(log |E|) times per prefix rather than
        once per leaf. A part whose contraction is refused is skipped whole.
        """
        free, forced = self.free, self.forced_event
        n, trail = len(free), self.uf_trail
        base = len(trail)
        if forced is not None:
            if not count:
                # no subset without the row's event solves the row
                return
            count -= 1
        if not count:
            # every free event nop
            if not n or self._contract_range(0, n):
                yield from self._assignments(
                    [] if forced is None else [forced])
            self._rollback_uf(base)
            return
        last = count - 1
        chosen: list[int] = []
        # slot k chooses from lo..n-last+k-1, leaving room for the later ones
        stack = [(0, 0, n - last, 0, 0, base)]
        while stack:
            k, lo, hi, clo, chi, mark = stack.pop()
            if len(trail) > mark:
                self._rollback_uf(mark)
            del chosen[k:]
            if clo < chi and not self._contract_range(clo, chi):
                continue
            mark = len(trail)
            if k < last:
                if hi - lo > 1:
                    stack.append((k, lo + 1, hi, lo, lo + 1, mark))
                chosen.append(free[lo])
                stack.append((k + 1, lo + 1, hi + 1, 0, 0, mark))
            elif hi - lo > 1:
                mid = (lo + hi) // 2
                stack.append((k, mid, hi, lo, mid, mark))
                stack.append((k, lo, mid, mid, hi, mark))
            else:
                chosen.append(free[lo])
                if forced is not None:
                    yield from self._assignments(sorted([*chosen, forced]))
                elif index is None or index.may_solve(self, chosen):
                    yield from self._assignments(chosen)
        self._rollback_uf(base)

    # -- per-subset assignment search ---------------------------------------

    def _prevalued(self, cands: tuple[str, ...], src: int, tgt: int,
                   row_cls: int) -> Optional[tuple[int, int]]:
        """The classes valued in both hypotheses before an essp row's
        odometer starts, as (valued, valued 1) over class bits; None when
        every row class (row_cls) then holds the need, so nothing solves the
        row. When the candidates at the row's event (cands) share one need
        and one give, its sources (src) hold the need and its targets (tgt)
        the give, and a row in one class the other value than the need."""
        rules = self.rules[cands]
        if len(rules) != 1:
            return 0, 0
        (need, give), = rules
        R, O = src | tgt, (src if need else 0) | (tgt if give else 0)
        if row_cls.bit_count() == 1 and not row_cls & R:
            R |= row_cls
            O |= 0 if need else row_cls
        if row_cls & R == row_cls and row_cls & O == (row_cls if need else 0):
            return None
        return R, O

    def _assignments(self, chosen: list[int]) -> Iterator[Candidate]:
        """The candidates of one subset, with every other event contracted,
        in canonical order; an essp row's classes that _prevalued values
        are valued in both hypotheses before the odometer starts, and each
        position keeps the interactions that its clash code leaves."""
        count = len(chosen)
        find = self._find
        rule = _RULE

        if count == 0:
            # the all-nop candidates: constant support over one big class
            # (never reached by a row: an essp row's event is always chosen,
            # and an ssp row's states share i's class)
            yield 0, (), ()
            yield self.all_states, (), ()
            return

        # each position's quotient edges over class bits (1 << root): its
        # sources, its targets, and each source's targets
        src: list[int] = []
        tgt: list[int] = []
        succ: list[dict[int, int]] = []
        parent = self.uf_parent
        for j in chosen:
            m: dict[int, int] = {}
            s = t = 0
            for u, v in self.edges_by_event[j]:
                while parent[u] != u:  # _find, inlined for speed
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                bu, bv = 1 << u, 1 << v
                m[bu] = m.get(bu, 0) | bv
                s |= bu
                t |= bv
            src.append(s)
            tgt.append(t)
            succ.append(m)

        # the classes of the row's open states, and of an ssp row's anchor
        row_cls = 0
        row = self.row
        while row:
            u = find((row & -row).bit_length() - 1)
            row_cls |= 1 << u
            row &= ~self.uf_mask[u]
        ssp = self.anchor is not None
        if ssp:
            row_cls |= 1 << find(self.anchor)

        # candidate interactions per position, canonical order throughout;
        # R0 the classes valued in both hypotheses from the start, O0 those
        # at 1, and other[v] those valued other than v. A hypothesis cannot
        # solve the row, so dies, once every row class is valued, all at one
        # value of dead (ssp: like the anchor), from e_pos on
        cands: list[tuple[str, ...]] = [self.non_nop] * count
        e_pos = -1
        R0 = O0 = 0
        dead: tuple[int, ...] = (0, row_cls) if ssp else ()
        if self.forced_event is not None:
            e_pos = chosen.index(self.forced_event)
            # a class that is both a source and a target of the event rules
            # out the value-changing partials
            overlap = src[e_pos] & tgt[e_pos]
            cands[e_pos] = self.essp_keeps if overlap else self.essp_cands
            pre = self._prevalued(cands[e_pos], src[e_pos], tgt[e_pos],
                                  row_cls)
            if pre is None:
                return
            R0, O0 = pre
            if row_cls & R0 == row_cls:
                # every row class is valued, not all at the need, so no
                # hypothesis dies of the row
                row_cls = 0
        other = o0, o1 = O0, R0 ^ O0
        if R0:
            # drop the interactions that need or give another value than a
            # pre-valued class holds, by the position's clash code: both
            # hypotheses would die there
            keep = self.keep
            cands = [keep[c][(s & o0 > 0) | (s & o1 > 0) << 1 |
                             (t & o0 > 0) << 2 | (t & o1 > 0) << 3]
                     for c, s, t in zip(cands, src, tgt)]
        if not all(cands):
            return

        # the chosen interactions; prefix[p] holds, over positions 0..p, the
        # sources that need 1, those that need 0, the sources of the swap
        # positions and their number; swaps lists those swap positions for
        # the p being assigned
        sig: list[str] = [""] * count
        prefix = [(0, 0, 0, 0)] * count
        swaps: list[int] = []

        def advance(R: int, O: int, p: int) -> Optional[tuple[int, int]]:
            """Value p's targets (R valued classes, O those at 1), then fire
            the swap positions <= p from each newly valued class; None on a
            conflict."""
            need1, need0, sw, _ = prefix[p]
            t = rule[sig[p]][1]
            if t is None:
                # swap (nop is never chosen): fire p from every valued class
                fresh, todo = R, (p,)
            else:
                # every other interaction gives its targets t, whatever
                # their sources hold
                T = tgt[p]
                if T & (R ^ O if t else O):
                    return None
                fresh, todo = T & ~R, swaps
                R |= T
                if t:
                    O |= T
            while fresh & sw:
                before = R
                for q in todo:
                    S = src[q] & fresh
                    # the source value flipped
                    m, ones, zeros = succ[q], 0, 0
                    while S:
                        low = S & -S
                        if low & O:
                            zeros |= m[low]
                        else:
                            ones |= m[low]
                        S ^= low
                    if ones & zeros or ones & (R ^ O) or zeros & O:
                        return None
                    R |= ones | zeros
                    O |= ones
                fresh, todo = R ^ before, swaps
            if need1 & (R ^ O) or need0 & O:
                return None
            return R, O

        cls = self.uf_mask
        chosen_t = tuple(chosen)

        def candidate(O: int) -> Candidate:
            # the support: the states of the classes valued 1
            mask = 0
            while O:
                low = O & -O
                mask |= cls[low.bit_length() - 1]
                O ^= low
            return mask, chosen_t, tuple(sig)

        # an odometer over positions: entry[p] holds each hypothesis's
        # (R, O) on reaching p, None once dead; nxt[p] indexes cands[p]
        last = count - 1
        init = 1 << find(self.init_idx)
        entry = [[None if init & other[h] else (R0 | init, O0 | init * h)
                  for h in (0, 1)]] + [[]] * last
        nxt = [0] * count
        p = 0
        while p >= 0:
            k = nxt[p]
            if k == len(cands[p]):
                p -= 1
                continue
            nxt[p] = k + 1
            sig[p] = iname = cands[p][k]
            # extend the prefix by p: the swap positions past p are stale
            need, t = rule[iname]
            n1, n0, sw, n = prefix[p - 1] if p else (0, 0, 0, 0)
            del swaps[n:]
            s = src[p]
            if need == 1:
                n1 |= s
            elif need == 0:
                n0 |= s
            if t is None:
                sw |= s
                swaps.append(p)
            prefix[p] = n1, n0, sw, len(swaps)
            if p == e_pos and row_cls:
                # an essp row's partials are defined just at their need
                dead = (row_cls if need else 0,)
            hyps: list[Optional[tuple[int, int]]] = []
            for st in entry[p]:
                if st is not None:
                    st = advance(st[0], st[1], p)
                    if (st is not None and dead and p >= e_pos and
                            st[0] & row_cls == row_cls and
                            st[1] & row_cls in dead):
                        st = None
                hyps.append(st)
            if p == last:
                for st in hyps:
                    if st is not None:
                        # all classes valued: the kill or the pre-valued
                        # row class proved it solves a state the row held
                        # on entry
                        yield candidate(st[1])
            elif hyps != [None, None]:
                p += 1
                entry[p] = hyps
                nxt[p] = 0


def enumerate_valid_regions(
    ts: TransitionSystem,
    net_type: frozenset[str],
    d: int,
    stats: Optional[EnumerationStats] = None,
) -> Iterator[Region]:
    """All d-restricted regions of ts in canonical order, lazily; stats
    holds the rank of the region last yielded, the space size once drained."""
    search = _Search(ts, net_type, d)
    counters = stats if stats is not None else EnumerationStats()

    def regions() -> Iterator[Region]:
        for cand in search.stream():
            counters.valid_regions += 1
            counters.candidates_examined = search.rank(cand)
            yield search.region(cand)
        counters.candidates_examined = search.rank(None)

    return regions()


def solve_atom(
    ts: TransitionSystem,
    net_type: frozenset[str],
    d: int,
    atom: SeparationAtom,
    stats: Optional[EnumerationStats] = None,
) -> Optional[Region]:
    """First region in canonical order solving the atom, or None.

    Prunes candidate ranges that provably contain no solving region; the
    result agrees exactly with filtering enumerate_valid_regions.
    """
    validate_atom(ts, atom)
    t0 = time.monotonic()
    search = _Search(ts, net_type, d, _atom_row(ts, atom))
    found = next(search.stream(), None)
    if stats is not None:
        stats.candidates_examined = search.rank(found)
        stats.valid_regions = int(found is not None)
        stats.elapsed = time.monotonic() - t0
    return None if found is None else search.region(found)


def _row_finds(ts: TransitionSystem, net_type: frozenset[str], d: int,
               row: _Hit, start: int = 0) -> list[Candidate]:
    """The first solvers in canonical order, among the subsets of at least
    start events, of the atoms of one row."""
    kind, i, _ = row
    search = _Search(ts, net_type, d, row)
    finds: list[Candidate] = []
    for cand in search.stream(start):
        mask, chosen, sigs = cand
        # the row states on the far side of the support cut from i (ssp),
        # or where the event's partial interaction is undefined (essp)
        far = (mask >> i & 1 if kind == _SSP
               else _RULE[sigs[chosen.index(i)]][0])
        bits = search.row & (~mask if far else mask)
        if bits:
            finds.append(cand)
            search.row ^= bits
            if not search.row:
                break
    return finds


def region_solves(region: Region, net_type: frozenset[str],
                  atom: SeparationAtom) -> bool:
    if isinstance(atom, SspAtom):
        return solves_ssp(region, atom.s1, atom.s2)
    return solves_essp(region, net_type, atom.event, atom.state)


class _AtomIndex:
    """The open separation atoms of a TS as bitmasks over state indices.

    ssp_row[i] holds the states j > i of the atoms ssp:i,j; essp_row[e]
    holds the states s of the atoms essp:e,s. At first they hold every
    atom, read off ts.delta: ssp row i the states above i, essp row e the
    states where e is not enabled. A candidate solves the row bits on the
    far side of its support cut (ssp), or on the side where its partial
    interaction at e is undefined (essp). A hit names its row by kind, so
    any index of the TS decodes it. ssp_live lists the ssp rows that still
    hold atoms, and open counts the atoms of all rows.
    """

    def __init__(self, ts: TransitionSystem):
        self.states = ts.states
        self.events = ts.events
        sidx = {s: i for i, s in enumerate(ts.states)}
        eidx = {e: i for i, e in enumerate(ts.events)}
        everyone = (1 << len(ts.states)) - 1
        self.ssp_row = [everyone ^ ((2 << i) - 1)
                        for i in range(len(ts.states))]
        self.essp_row = [everyone] * len(ts.events)
        for s, e in ts.delta:
            self.essp_row[eidx[e]] &= ~(1 << sidx[s])
        self.ssp_live = [i for i, row in enumerate(self.ssp_row) if row]
        self.open = sum(row.bit_count()
                        for row in self.ssp_row + self.essp_row)

    def hits(self, cand: Candidate) -> list[_Hit]:
        """The open atoms the candidate solves, row by row in atom order."""
        mask, chosen, sigs = cand
        inv = ~mask
        found: list[_Hit] = []
        ssp = self.ssp_row
        for i in self.ssp_live:
            bits = ssp[i] & (inv if mask >> i & 1 else mask)
            if bits:
                found.append((_SSP, i, bits))
        essp = self.essp_row
        for e, iname in zip(chosen, sigs):
            row = essp[e]
            src = _RULE[iname][0]
            if row and src is not None:
                bits = row & (inv if src else mask)
                if bits:
                    found.append((_ESSP, e, bits))
        return found

    def take(self, cand: Candidate) -> list[_Hit]:
        """The candidate's hits, cleared from the rows: the atoms it claims."""
        found = self.hits(cand)
        if found:
            rows = self.ssp_row, self.essp_row
            for kind, i, bits in found:
                rows[kind][i] &= ~bits
                self.open -= bits.bit_count()
            ssp = self.ssp_row
            self.ssp_live = [i for i in self.ssp_live if ssp[i]]
        return found

    def may_solve(self, search: _Search, chosen: list[int]) -> bool:
        """Can an assignment of the chosen events, every other event
        contracted in search, solve an open atom? Only the chosen events'
        essp rows are tested, once no ssp atom is open (see solve_drts)."""
        if self.ssp_live:
            return True
        if not search.partials:
            return False
        parent, cls = search.uf_parent, search.uf_mask
        essp, edges = self.essp_row, search.edges_by_event
        for e in chosen:
            row = essp[e]
            for u, _ in edges[e]:
                if not row:
                    break
                while parent[u] != u:  # _find, inlined for speed
                    u = parent[u]
                row &= ~cls[u]
            if row:
                return True
        return False

    def cover(self, cand: Candidate) -> int:
        """The open atoms the candidate solves as one bitmask in atom order:
        state j of ssp row i at bit i*|S|+j, of essp row e at bit
        (|S|+e)*|S|+j."""
        n = len(self.states)
        cover = 0
        for kind, i, bits in self.hits(cand):
            cover |= bits << n * (kind * n + i)
        return cover

    def _states(self, bits: int) -> Iterator[str]:
        states = self.states
        while bits:
            low = bits & -bits
            bits ^= low
            yield states[low.bit_length() - 1]

    def atoms(self, hit: _Hit) -> Iterator[SeparationAtom]:
        """The atoms of one row's bits, in atom order."""
        kind, i, bits = hit
        if kind == _SSP:
            s1 = self.states[i]
            return (SspAtom(s1, s) for s in self._states(bits))
        e = self.events[i]
        return (EsspAtom(e, s) for s in self._states(bits))

    def open_rows(self) -> Iterator[_Hit]:
        """The rows that hold open atoms, in atom order."""
        for kind, rows in enumerate((self.ssp_row, self.essp_row)):
            for i, bits in enumerate(rows):
                if bits:
                    yield kind, i, bits

    def open_atoms(self) -> Iterator[SeparationAtom]:
        """The atoms the rows hold, in atom order, that of enumerate_atoms."""
        for row in self.open_rows():
            yield from self.atoms(row)

    def open_text(self) -> Iterator[str]:
        """str() of each atom open_atoms yields, without building it."""
        for kind, rows, names in (("ssp", self.ssp_row, self.states),
                                  ("essp", self.essp_row, self.events)):
            for i, bits in enumerate(rows):
                prefix = f"{kind}:{names[i]},"
                for s in self._states(bits):
                    yield prefix + s


# solve_drts stops its stream before the first level at which the open
# atoms lie in at most this many rows, and finds their first solvers with
# one search per row. The searches win where the last levels are large, as
# on the compiled hitting-set instances; on small systems, where a level is
# cheap to stream, a higher limit costs more searches than it saves.
_SEARCH_LIMIT = 16


def solve_drts(
    ts: TransitionSystem,
    net_type: frozenset[str],
    d: int,
    shrink: bool = False,
) -> SynthesisOutcome:
    """Decide whether a d-restricted admissible set exists, and collect one.

    The atoms are kept as bitmask rows over state indices, built from the
    TS, and each candidate is checked against all open atoms at once, from
    its support bitmask and its chosen interactions. A candidate that
    solves some atom is kept as it is, with the row bits it solves first;
    its Region, and the atom objects of the witness map and the unsolved
    list, are built only when the outcome's fields are read. The
    candidates come from the canonical stream, one restriction level at a
    time, while the open atoms lie in more than _SEARCH_LIMIT rows. From
    the first level where they lie in at most that many, one search per
    open row of either kind (_row_finds), which drops each state from its
    row once it has the state's first solver, gives the finds that are
    checked in canonical order instead.
    Once no ssp atom is open, the stream passes a subset to its
    assignment search only if some chosen event's essp row holds a state
    outside every class with a source of that event (_AtomIndex.may_solve):
    a partial interaction is defined at each source's value, so it cannot
    solve essp at a state that shares it. A skipped subset holds no solver.
    Either way the solvers, witnesses and counters are the same. The
    search stops once every atom is solved. An unsolvable verdict reflects
    a fully drained stream, or searches exhausted for the atoms left open
    at the switch. A shrink keeps the solvers _greedy_shrink picks, which
    claim the atoms anew; the counters stay those from before it.
    """
    t0 = time.monotonic()
    search = _Search(ts, net_type, d)
    stats = EnumerationStats()
    index = _AtomIndex(ts)
    solvers: list[Candidate] = []
    # the rows' bits each solver solved first, one list per solver
    solved: list[list[_Hit]] = []
    if index.open:
        for c in search.levels:
            if not index.open:
                break
            rows = list(index.open_rows())
            late = len(rows) <= _SEARCH_LIMIT
            source: Iterable[Candidate]
            if late:
                # a find shared by several searches solves nothing the
                # second time, so the loop below takes it once
                source = sorted((f for row in rows
                                 for f in _row_finds(ts, net_type, d, row, c)),
                                key=search.rank)
            else:
                source = search._subset_dfs(c, index)
            for cand in source:
                hits = index.take(cand)
                if not hits:
                    continue
                solvers.append(cand)
                solved.append(hits)
                if not index.open:
                    break
            if late:
                break
        stats.candidates_examined = search.rank(
            None if index.open else solvers[-1])
        stats.valid_regions = len(solvers)
    shrunk = shrink and bool(solvers) and not index.open
    if shrunk:
        # the kept solvers claim the atoms afresh, in ascending order, so
        # each atom's witness is the first kept solver that solves it
        index = _AtomIndex(ts)
        picked = _greedy_shrink([index.cover(cand) for cand in solvers])
        solvers = [solvers[r] for r in picked]
        solved = [index.take(cand) for cand in solvers]
    stats.elapsed = time.monotonic() - t0
    return _CompactOutcome(ts, net_type, search, index, solvers, solved,
                           stats, shrunk)


class _CompactOutcome(SynthesisOutcome):
    """solve_drts's outcome in the search's bit form.

    It keeps the solvers as candidates, solved[r] the row hits solver r
    claimed, and the index they were claimed from, whose rows hold the
    atoms left open. The three lists of a SynthesisOutcome are built from
    these on first access, with the values, the order and the types
    solve_drts has always returned. forms(), net() and index.open_text()
    give the CLI's outputs from these directly.
    """

    def __init__(self, ts: TransitionSystem, net_type: frozenset[str],
                 search: _Search, index: _AtomIndex,
                 solvers: list[Candidate], solved: list[list[_Hit]],
                 stats: EnumerationStats, shrunk: bool):
        self.solvable = not index.open
        self.stats = stats
        self.ts = ts
        self.net_type = net_type
        self.search = search
        self.index = index
        self.solvers = solvers
        self.solved = solved
        self.shrunk = shrunk

    @cached_property
    def admissible_set(self) -> list[Region]:
        return [self.search.region(cand) for cand in self.solvers]

    @cached_property
    def witness_map(self) -> dict[SeparationAtom, int]:
        atoms = self.index.atoms
        witness = {a: r for r, hits in enumerate(self.solved)
                   for hit in hits for a in atoms(hit)}
        if self.shrunk:
            # every atom is solved: list them in atom order
            witness = {a: witness[a]
                       for a in _AtomIndex(self.ts).open_atoms()}
        return witness

    @cached_property
    def unsolved_atoms(self) -> list[SeparationAtom]:
        return list(self.index.open_atoms())

    def forms(self) -> Iterator[tuple[int, dict[str, str]]]:
        """Each admissible region's implicit form: its support at the
        initial state and its non-nop signature."""
        init, events = self.search.init_idx, self.search.events
        for mask, chosen, sigs in self.solvers:
            yield (mask >> init & 1,
                   {events[j]: i for j, i in zip(chosen, sigs)})

    def net(self) -> BooleanNet:
        """synthesize_net(ts, admissible_set, net_type), with each solver
        checked in its bit form instead of as a Region."""
        check = _EdgeCheck(self.ts, self.net_type)
        return _net(self.ts, self.net_type,
                    ((check.first_bad_edge(cand), bit, sig.items())
                     for cand, (bit, sig) in zip(self.solvers, self.forms())))


def _greedy_shrink(covers: list[int]) -> list[int]:
    """The indices, ascending, of a greedily smaller set of solvers that
    covers every atom of their covers (_AtomIndex.cover): each round picks
    the most atoms still uncovered, the lowest index among equals.

    A lazy heap keyed by (-gain, index): gains only fall, so a stored key
    bounds the true one, and only the top is recomputed. Optional
    cosmetics: the canonical-first witness choice is given up.
    """
    uncovered = reduce(or_, covers, 0)
    heap = [(-cover.bit_count(), r) for r, cover in enumerate(covers)]
    heapify(heap)
    picked: list[int] = []
    while uncovered:
        _, r = heappop(heap)
        key = -(covers[r] & uncovered).bit_count(), r
        if heap and key > heap[0]:
            heappush(heap, key)
            continue
        picked.append(r)
        uncovered &= ~covers[r]
    picked.sort()
    return picked


def _broken(i: str, src: int, dst: int) -> int:
    """The edges interaction i does not respect, as bits over edges, given
    the support at each edge's source (src) and at its target (dst)."""
    bad = 0
    for at, side in zip(_AT[i], (~src, src)):
        bad |= side & (-1 if at is None else ~dst if at else dst)
    return bad


class _EdgeCheck:
    """validate_region on a candidate, without its Region: the same
    verdict, the same first bad edge in ts.edges order, and the same
    InvalidRegion for an interaction outside the type.

    A candidate's support bits are gathered at the edges' sources and at
    their targets into two ints, edge k of ts.edges at bit k; each event's
    edges are a mask over the same bits.
    """

    def __init__(self, ts: TransitionSystem, net_type: frozenset[str]):
        self.ts = ts
        self.net_type = net_type
        self.allowed = net_type & frozenset(INTERACTION_ORDER)
        n = len(ts.states)
        sidx = {s: i for i, s in enumerate(ts.states)}
        eidx = {e: i for i, e in enumerate(ts.events)}
        # The gathers read a string whose char j is state j's support and
        # whose char n is "1". They take char n, then the edges from the
        # last to the first, so the digits read as a binary number put
        # edge k at bit k, and a 1 above the edges that no edge mask keeps.
        self.at_srcs = itemgetter(n, *(sidx[u] for u, _, _ in
                                       reversed(ts.edges)))
        self.at_dsts = itemgetter(n, *(sidx[v] for _, _, v in
                                       reversed(ts.edges)))
        self.by_event = [0] * len(ts.events)
        for k, (_, e, _) in enumerate(ts.edges):
            self.by_event[eidx[e]] |= 1 << k
        self.every_edge = (1 << len(ts.edges)) - 1
        self.top = 1 << n

    def first_bad_edge(self, cand: Candidate) -> Optional[Edge]:
        mask, chosen, sigs = cand
        events = self.ts.events
        if not (self.allowed.issuperset(sigs) and
                ("nop" in self.allowed or len(chosen) == len(events))):
            # some interaction is unknown or outside the type: raise the
            # error validate_region raises on the Region
            signature = dict.fromkeys(events, "nop")
            signature.update((events[j], i) for j, i in zip(chosen, sigs))
            _check_signature(self.ts, self.net_type, signature)
        bits = bin(mask | self.top)[:1:-1]
        src = int("".join(self.at_srcs(bits)), 2)
        dst = int("".join(self.at_dsts(bits)), 2)
        nop, bad = self.every_edge, 0
        for j, i in zip(chosen, sigs):
            edges = self.by_event[j]
            nop &= ~edges
            bad |= edges & _broken(i, src, dst)
        bad |= nop & _broken("nop", src, dst)
        return self.ts.edges[(bad & -bad).bit_length() - 1] if bad else None


def _net(ts: TransitionSystem, net_type: frozenset[str],
         places: Iterable[tuple[Optional[Edge], int,
                                Iterable[tuple[str, str]]]]) -> BooleanNet:
    """One place per (first bad edge, initial bit, signature entries), p0,
    p1, ... in order, flow = the non-nop entries; ValueError at the first
    place with a bad edge."""
    flow: dict[tuple[str, str], str] = {}
    marking: dict[str, int] = {}
    names = []
    for idx, (bad, bit, signature) in enumerate(places):
        if bad is not None:
            raise ValueError(
                f"region {idx} does not validate (first bad edge {bad})")
        p = f"p{idx}"
        names.append(p)
        marking[p] = bit
        for e, i in signature:
            if i != "nop":
                flow[(p, e)] = i
    return build_net(names, ts.events, net_type, flow, marking)


def synthesize_net(
    ts: TransitionSystem,
    regions: list[Region],
    net_type: frozenset[str],
) -> BooleanNet:
    """One place per region (p0, p1, ... in list order), flow = signatures."""
    def places():
        for region in regions:
            _, bad = validate_region(ts, net_type, region)
            yield (bad, region.support[ts.initial],
                   ((e, region.signature[e]) for e in ts.events))
    return _net(ts, net_type, places())


def verify_lemma1(ts: TransitionSystem, net: BooleanNet) -> bool:
    """Does the net's reachability graph realize the TS up to renaming?"""
    try:
        rg = reachability_graph(net, cap=len(ts.states) + 1)
    except InvalidNet:
        return False
    return isomorphic(ts, rg) is not None
