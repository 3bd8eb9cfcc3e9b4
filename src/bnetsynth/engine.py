"""Exhaustive synthesis over restriction-bounded regions.

The candidate space for a bound d is every triple (event subset of size
<= d, assignment of non-nop interactions to the subset, initial support
bit); events outside the subset get nop. Candidates are enumerated in a
fixed canonical order: restriction count ascending, then event subset
lexicographically, then assignments position-major in canonical
interaction order, then initial support 0 before 1.

Fixing the nop-events contracts the TS, because nop forces equal support
across an edge. Each subset is therefore explored on a quotient graph
maintained by a rollback union-find, with both initial-support hypotheses
propagated simultaneously and abandoned candidate ranges accounted for
arithmetically, so candidates_examined stays exact: a full drain equals
candidate_count_formula whenever nop is in the type.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

from . import interactions
from .interactions import INTERACTION_ORDER, PARTIAL, apply as apply_i
from .nets import BooleanNet, InvalidNet, build_net, reachability_graph
from .regions import Region, solves_essp, solves_ssp, validate_region
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
    """Search effort counters.

    candidates_examined counts candidates either visited or disposed of by
    a sound pruning argument; it never exceeds candidate_count_formula and
    reaches it exactly on a full drain with nop in the type.
    """
    candidates_examined: int = 0
    valid_regions: int = 0
    elapsed: float = 0.0


# A region as the search yields it: the support as a bitmask over state
# indices, the chosen event indices ascending, and their interactions.
Candidate = tuple[int, tuple[int, ...], tuple[str, ...]]


@dataclass
class SynthesisOutcome:
    solvable: bool
    admissible_set: list[Region]
    witness_map: dict[SeparationAtom, int]
    unsolved_atoms: list[SeparationAtom]
    stats: EnumerationStats


# value at which each partial interaction is defined, and what it maps to
_PARTIAL_SRC = {"inp": 1, "out": 0, "used": 1, "free": 0}


class _Search:
    """One enumeration run over a TS, a type, and a bound."""

    def __init__(
        self,
        ts: TransitionSystem,
        net_type: frozenset[str],
        d: int,
        atom: Optional[SeparationAtom] = None,
        stats: Optional[EnumerationStats] = None,
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
        self.nn = len(self.non_nop)
        self.nop_in_type = "nop" in net_type
        self.d_eff = min(d, self.n_events)
        self.init_idx = self.state_idx[ts.initial]
        self.all_states = (1 << self.n_states) - 1
        self.itab = {i: (apply_i(i, 0), apply_i(i, 1)) for i in INTERACTION_ORDER}
        self.stats = stats if stats is not None else EnumerationStats()

        # rollback union-find (union by size, no path compression)
        self.uf_parent = list(range(self.n_states))
        self.uf_size = [1] * self.n_states
        self.uf_trail: list[tuple[int, int]] = []

        # components of the edges labeled by events >= j, for completing a
        # chosen subset in one O(|S|) join instead of edge-by-edge unions
        self.suffix_comp = self._build_suffix_components()

        self.atom = atom
        self.forced_event: Optional[int] = None
        if isinstance(atom, SspAtom):
            self.atom_s1 = self.state_idx[atom.s1]
            self.atom_s2 = self.state_idx[atom.s2]
        elif isinstance(atom, EsspAtom):
            self.forced_event = self.event_idx[atom.event]
            self.atom_s = self.state_idx[atom.state]
            e_edges = self.edges_by_event[self.forced_event]
            cand = [i for i in self.non_nop if i in PARTIAL]
            self.essp_cands = tuple(cand)
            # A merge of the atom state with a source of its event fixes
            # sup(state) at the value where sig(event) is defined, for any
            # partial candidate; if every candidate is defined at the
            # target value too (used/free), target merges are just as fatal.
            prune_nodes = {u for u, _ in e_edges}
            if cand and all(self.itab[i][self.itab[i][_PARTIAL_SRC[i]]] is not None
                            for i in cand):
                prune_nodes.update(v for _, v in e_edges)
            self.atom_prune_nodes = sorted(prune_nodes)
            # inp/out need different support on the event's two sides, so a
            # source/target merge anywhere rules the whole subset out
            self.fatal_selfloop = bool(cand) and all(
                i in ("inp", "out") for i in cand)

    # -- union-find ---------------------------------------------------------

    def _find(self, x: int) -> int:
        p = self.uf_parent
        while p[x] != x:
            x = p[x]
        return x

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        if self.uf_size[ra] < self.uf_size[rb]:
            ra, rb = rb, ra
        self.uf_parent[rb] = ra
        self.uf_size[ra] += self.uf_size[rb]
        self.uf_trail.append((rb, ra))

    def _rollback_uf(self, mark: int) -> None:
        trail = self.uf_trail
        parent = self.uf_parent
        size = self.uf_size
        while len(trail) > mark:
            rb, ra = trail.pop()
            parent[rb] = rb
            size[ra] -= size[rb]

    def _contract(self, event: int) -> None:
        for u, v in self.edges_by_event[event]:
            self._union(u, v)

    def _build_suffix_components(self) -> list[list[int]]:
        comp: list[list[int]] = [list(range(self.n_states))]
        parent = list(range(self.n_states))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for j in range(self.n_events - 1, -1, -1):
            for u, v in self.edges_by_event[j]:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[rv] = ru
            comp.append([find(s) for s in range(self.n_states)])
        comp.reverse()  # comp[j] covers events j..n-1; comp[n] is identity
        return comp

    def _join_suffix(self, j: int) -> None:
        reps = self.suffix_comp[j]
        union = self._union
        for s in range(self.n_states):
            r = reps[s]
            if r != s:
                union(s, r)

    def _atom_pruned(self) -> bool:
        """True when no region of the current contraction can solve the atom."""
        find = self._find
        if isinstance(self.atom, SspAtom):
            return find(self.atom_s1) == find(self.atom_s2)
        fs = find(self.atom_s)
        for x in self.atom_prune_nodes:
            if find(x) == fs:
                return True
        if self.fatal_selfloop:
            for u, v in self.edges_by_event[self.forced_event]:
                if find(u) == find(v):
                    return True
        return False

    # -- enumeration --------------------------------------------------------

    def region(self, cand: Candidate) -> Region:
        """The Region a compact candidate stands for."""
        mask, chosen, sigs = cand
        support = {s: mask >> i & 1 for i, s in enumerate(self.states)}
        signature = dict.fromkeys(self.events, "nop")
        for j, iname in zip(chosen, sigs):
            signature[self.events[j]] = iname
        return Region(support=support, signature=signature)

    def stream(self) -> Iterator[Candidate]:
        for count in range(0, self.d_eff + 1):
            if not self.nop_in_type and count < self.n_events:
                # events outside the subset would need nop
                continue
            yield from self._subset_dfs(count)

    def _dispose(self, n_subsets: int, count: int) -> None:
        self.stats.candidates_examined += 2 * n_subsets * self.nn ** count

    def _subset_dfs(self, count: int) -> Iterator[Candidate]:
        n = self.n_events
        forced = self.forced_event
        chosen: list[int] = []

        def rec(start: int, slots: int) -> Iterator[Candidate]:
            mark = len(self.uf_trail)
            if slots == 0:
                if forced is not None and forced not in chosen:
                    self._dispose(1, count)
                    return
                self._join_suffix(start)
                if self.atom is not None and self._atom_pruned():
                    self._dispose(1, count)
                else:
                    yield from self._assignments(chosen)
                self._rollback_uf(mark)
                return
            # j is the next chosen event (lexicographic subset order); the
            # events passed over stay contracted for the later choices
            for j in range(start, n - slots + 1):
                chosen.append(j)
                yield from rec(j + 1, slots - 1)
                chosen.pop()
                if j == forced:
                    # without the atom's event, sig(e)=nop never solves it
                    self._dispose(comb(n - j - 1, slots), count)
                    break
                self._contract(j)
                if self.atom is not None and self._atom_pruned():
                    self._dispose(comb(n - j - 1, slots), count)
                    break
            self._rollback_uf(mark)

        yield from rec(0, count)

    # -- per-subset assignment search ---------------------------------------

    def _assignments(self, chosen: list[int]) -> Iterator[Candidate]:
        count = len(chosen)
        find = self._find
        itab = self.itab
        stats = self.stats
        nn = self.nn

        if count == 0:
            # the all-nop candidates: constant support over one big class
            # (never reached in atom mode: _subset_dfs disposes of it)
            for h in (0, 1):
                stats.candidates_examined += 1
                stats.valid_regions += 1
                yield (self.all_states if h else 0, (), ())
            return

        qedges: list[list[tuple[int, int]]] = []
        for j in chosen:
            qedges.append(sorted({(find(u), find(v))
                                  for u, v in self.edges_by_event[j]}))

        # candidate interactions per position, canonical order throughout
        cands: list[tuple[str, ...]] = [self.non_nop] * count
        e_pos = -1
        if self.forced_event is not None:
            e_pos = chosen.index(self.forced_event)
            allowed = self.essp_cands
            if any(u == v for u, v in qedges[e_pos]):
                # a quotient self-loop rules out the value-changing partials
                allowed = tuple(i for i in allowed if i not in ("inp", "out"))
            cands[e_pos] = allowed
        if any(not c for c in cands):
            self._dispose(1, count)
            return

        atom_cls_1 = atom_cls_2 = atom_cls_s = -1
        if isinstance(self.atom, SspAtom):
            atom_cls_1 = find(self.atom_s1)
            atom_cls_2 = find(self.atom_s2)
        elif isinstance(self.atom, EsspAtom):
            atom_cls_s = find(self.atom_s)

        init_root = find(self.init_idx)
        val: list[dict[int, int]] = [{init_root: 0}, {init_root: 1}]
        val_trail: list[list[int]] = [[], []]
        watch: list[dict[int, list[tuple[str, int, int]]]] = [{}, {}]
        watch_trail: list[list[int]] = [[], []]
        dead_at: list[Optional[int]] = [None, None]
        sig_assign: list[Optional[str]] = [None] * count

        def propagate(h: int, iname: str, edges: list[tuple[int, int]]) -> bool:
            vals = val[h]
            wt = watch[h]
            queue: list[tuple[str, int, int]] = [(iname, u, v) for u, v in edges]
            while queue:
                ci, cu, cv = queue.pop()
                bu = vals.get(cu)
                if bu is None:
                    wt.setdefault(cu, []).append((ci, cu, cv))
                    watch_trail[h].append(cu)
                    continue
                y = itab[ci][bu]
                if y is None:
                    return False
                bv = vals.get(cv)
                if bv is None:
                    vals[cv] = y
                    val_trail[h].append(cv)
                    more = wt.get(cv)
                    if more:
                        queue.extend(more)
                elif bv != y:
                    return False
            return True

        def atom_killed(h: int) -> bool:
            # solve_atom mode only: drop hypotheses that provably cannot
            # yield a solving region (their validity is then irrelevant)
            if atom_cls_1 >= 0:
                v1 = val[h].get(atom_cls_1)
                if v1 is None:
                    return False
                v2 = val[h].get(atom_cls_2)
                return v2 is not None and v1 == v2
            vs = val[h].get(atom_cls_s)
            if vs is None:
                return False
            sig_e = sig_assign[e_pos]
            return sig_e is not None and itab[sig_e][vs] is not None

        def undo(h: int, vmark: int, wmark: int) -> None:
            vals = val[h]
            vt = val_trail[h]
            while len(vt) > vmark:
                del vals[vt.pop()]
            wt = watch_trail[h]
            wd = watch[h]
            while len(wt) > wmark:
                wd[wt.pop()].pop()

        # class root -> bitmask of its states, filled at the subset's first leaf
        cls_mask: dict[int, int] = {}

        def candidate(h: int) -> Candidate:
            if not cls_mask:
                for s in range(self.n_states):
                    r = find(s)
                    cls_mask[r] = cls_mask.get(r, 0) | 1 << s
            vals = val[h]
            mask = 0
            for r, m in cls_mask.items():
                if vals[r]:
                    mask |= m
            return mask, tuple(chosen), tuple(sig_assign)  # type: ignore[arg-type]

        def rec(p: int) -> Iterator[Candidate]:
            last = p == count - 1
            alive = [h for h in (0, 1) if dead_at[h] is None]
            n_skipped = nn - len(cands[p])
            if n_skipped:
                # sig at the atom's event outside the partials never solves
                stats.candidates_examined += (
                    len(alive) * n_skipped * nn ** (count - p - 1))
            for iname in cands[p]:
                sig_assign[p] = iname
                marks = {}
                for h in alive:
                    marks[h] = (len(val_trail[h]), len(watch_trail[h]))
                    ok = propagate(h, iname, qedges[p])
                    if ok and self.atom is not None:
                        ok = not atom_killed(h)
                    if not ok:
                        dead_at[h] = p
                        stats.candidates_examined += nn ** (count - p - 1)
                if last:
                    for h in (0, 1):
                        if dead_at[h] is None:
                            stats.candidates_examined += 1
                            stats.valid_regions += 1
                            # all classes valued: atom_killed proved it solves
                            yield candidate(h)
                elif dead_at[0] is None or dead_at[1] is None:
                    yield from rec(p + 1)
                for h in alive:
                    undo(h, *marks[h])
                    if dead_at[h] == p:
                        dead_at[h] = None
            sig_assign[p] = None

        yield from rec(0)


def enumerate_valid_regions(
    ts: TransitionSystem,
    net_type: frozenset[str],
    d: int,
    stats: Optional[EnumerationStats] = None,
) -> Iterator[Region]:
    """All d-restricted regions of ts in canonical order, lazily."""
    search = _Search(ts, net_type, d, stats=stats)
    return map(search.region, search.stream())


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
    search = _Search(ts, net_type, d, atom=atom, stats=stats)
    found = next(search.stream(), None)
    if stats is not None:
        stats.elapsed = time.monotonic() - t0
    return None if found is None else search.region(found)


def region_solves(region: Region, net_type: frozenset[str],
                  atom: SeparationAtom) -> bool:
    if isinstance(atom, SspAtom):
        return solves_ssp(region, atom.s1, atom.s2)
    return solves_essp(region, net_type, atom.event, atom.state)


# A row of an _AtomIndex: (the row list, row number, bits of that row)
_Hit = tuple[list[int], int, int]


class _AtomIndex:
    """Separation atoms as bitmasks over state indices.

    ssp_row[i] holds the states j > i of the atoms ssp:i,j; essp_row[e]
    holds the states s of the atoms essp:e,s. A candidate solves the row
    bits on the far side of its support cut (ssp), or on the side where
    its partial interaction at e is undefined (essp). ssp_live lists the
    ssp rows that still hold atoms.
    """

    def __init__(self, ts: TransitionSystem, atoms: list[SeparationAtom]):
        self.states = ts.states
        self.events = ts.events
        sidx = {s: i for i, s in enumerate(ts.states)}
        eidx = {e: i for i, e in enumerate(ts.events)}
        self.ssp_row = [0] * len(ts.states)
        self.essp_row = [0] * len(ts.events)
        for a in atoms:
            if isinstance(a, SspAtom):
                self.ssp_row[sidx[a.s1]] |= 1 << sidx[a.s2]
            else:
                self.essp_row[eidx[a.event]] |= 1 << sidx[a.state]
        self.ssp_live = [i for i, row in enumerate(self.ssp_row) if row]

    def hits(self, cand: Candidate) -> list[_Hit]:
        """The indexed atoms the candidate solves, row by row in atom order."""
        mask, chosen, sigs = cand
        inv = ~mask
        found: list[_Hit] = []
        ssp = self.ssp_row
        for i in self.ssp_live:
            bits = ssp[i] & (inv if mask >> i & 1 else mask)
            if bits:
                found.append((ssp, i, bits))
        essp = self.essp_row
        for e, iname in zip(chosen, sigs):
            row = essp[e]
            src = _PARTIAL_SRC.get(iname)
            if row and src is not None:
                bits = row & (inv if src else mask)
                if bits:
                    found.append((essp, e, bits))
        return found

    def remove(self, hits: list[_Hit]) -> None:
        """Clear the hit bits from their rows."""
        for rows, i, bits in hits:
            rows[i] &= ~bits
        ssp = self.ssp_row
        self.ssp_live = [i for i in self.ssp_live if ssp[i]]

    def atoms(self, hit: _Hit) -> Iterator[SeparationAtom]:
        """The atoms of one row's bits, in atom order."""
        rows, i, bits = hit
        states = self.states
        while bits:
            low = bits & -bits
            bits ^= low
            s = states[low.bit_length() - 1]
            if rows is self.ssp_row:
                yield SspAtom(states[i], s)
            else:
                yield EsspAtom(self.events[i], s)


def solve_drts(
    ts: TransitionSystem,
    net_type: frozenset[str],
    d: int,
    shrink: bool = False,
) -> SynthesisOutcome:
    """Decide whether a d-restricted admissible set exists, and collect one.

    The unsolved atoms are kept as bitmask rows over state indices. Each
    candidate of the canonical stream is checked against all of them at
    once, from its support bitmask and its chosen interactions; only a
    candidate that solves some atom becomes a Region, kept as the witness
    of every atom it solves first. Enumeration stops once every atom is
    solved, so an unsolvable verdict always reflects a fully drained
    candidate space.
    """
    if d < 0:
        raise ValueError("restriction bound must be >= 0")
    t0 = time.monotonic()
    stats = EnumerationStats()
    atoms = enumerate_atoms(ts)
    admissible: list[Region] = []
    solvers: list[Candidate] = []
    witness: dict[SeparationAtom, int] = {}
    if atoms:
        search = _Search(ts, net_type, d, stats=stats)
        index = _AtomIndex(ts, atoms)
        for cand in search.stream():
            hits = index.hits(cand)
            if not hits:
                continue
            idx = len(admissible)
            admissible.append(search.region(cand))
            solvers.append(cand)
            for hit in hits:
                for a in index.atoms(hit):
                    witness[a] = idx
            index.remove(hits)
            if len(witness) == len(atoms):
                break
    stats.elapsed = time.monotonic() - t0
    outcome = SynthesisOutcome(
        solvable=len(witness) == len(atoms),
        admissible_set=admissible,
        witness_map=witness,
        unsolved_atoms=[a for a in atoms if a not in witness],
        stats=stats,
    )
    if outcome.solvable and shrink:
        _greedy_shrink(outcome, _AtomIndex(ts, atoms), atoms, solvers)
    return outcome


def _greedy_shrink(outcome: SynthesisOutcome, index: _AtomIndex,
                   atoms: list[SeparationAtom],
                   solvers: list[Candidate]) -> None:
    """Re-cover all atoms with a greedily smaller subset of the regions.

    Optional cosmetics: coverage stays complete, but the canonical-first
    witness choice is given up for the selected subset. index holds every
    atom, and solvers the candidates of the admissible regions.
    """
    covers: list[set[SeparationAtom]] = [
        {a for hit in index.hits(cand) for a in index.atoms(hit)}
        for cand in solvers
    ]
    uncovered = set(atoms)
    picked: list[int] = []
    while uncovered:
        best = max(range(len(covers)),
                   key=lambda r: (len(covers[r] & uncovered), -r))
        picked.append(best)
        uncovered -= covers[best]
    picked.sort()
    remap = {old: new for new, old in enumerate(picked)}
    new_witness: dict[SeparationAtom, int] = {}
    for a in atoms:
        for old in picked:
            if a in covers[old]:
                new_witness[a] = remap[old]
                break
    outcome.admissible_set = [outcome.admissible_set[r] for r in picked]
    outcome.witness_map = new_witness


def synthesize_net(
    ts: TransitionSystem,
    regions: list[Region],
    net_type: frozenset[str],
) -> BooleanNet:
    """One place per region (p0, p1, ... in list order), flow = signatures."""
    flow: dict[tuple[str, str], str] = {}
    marking: dict[str, int] = {}
    places = []
    for idx, region in enumerate(regions):
        ok, violation = validate_region(ts, net_type, region)
        if not ok:
            raise ValueError(
                f"region {idx} does not validate (first bad edge {violation})")
        p = f"p{idx}"
        places.append(p)
        marking[p] = region.support[ts.initial]
        for e in ts.events:
            i = region.signature[e]
            if i != "nop":
                flow[(p, e)] = i
    return build_net(places, ts.events, net_type, flow, marking)


def verify_lemma1(ts: TransitionSystem, net: BooleanNet) -> bool:
    """Does the net's reachability graph realize the TS up to renaming?"""
    try:
        rg = reachability_graph(net, cap=len(ts.states) + 1)
    except InvalidNet:
        return False
    return isomorphic(ts, rg) is not None
