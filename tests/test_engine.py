import random
from itertools import combinations, product
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterator, Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnetsynth as b
from bnetsynth import engine
from bnetsynth.engine import Candidate, _Search
from bnetsynth.interactions import (INTERACTION_ORDER, PARTIAL, apply,
                                    non_nop)
from bnetsynth.reductions import CONSTRUCTIONS
from bnetsynth.regions import _check_signature, diagnose_expansion
from bnetsynth.ts import EsspAtom, SspAtom
from conftest import (TYPE_0, TYPE_1, brute_force_candidates,
                      brute_force_regions, budget)

TYPE_ALL = frozenset(INTERACTION_ORDER)

R_1 = b.Region(support={"s0": 0, "s1": 1}, signature={"a": "swap"})


def stream(ts, net_type, d, stats=None):
    return list(b.enumerate_valid_regions(ts, net_type, d, stats=stats))


def canonical_key(region, ts):
    subset = tuple(i for i, e in enumerate(ts.events)
                   if region.signature[e] != "nop")
    assignment = tuple(INTERACTION_ORDER.index(region.signature[ts.events[i]])
                       for i in subset)
    return (len(subset), subset, assignment, region.support[ts.initial])


# -- candidate_count_formula ---------------------------------------------------

def test_formula_frozen_values():
    assert b.candidate_count_formula(16, 2, 4) == 68226
    assert b.candidate_count_formula(16, 2, 3) == 9986
    assert b.candidate_count_formula(16, 2, 5) == 347778
    assert b.candidate_count_formula(20, 2, 5) == 1167138


def test_formula_degenerate_cases():
    assert b.candidate_count_formula(9, 5, 0) == 2
    assert b.candidate_count_formula(0, 5, 3) == 2
    # the bound saturates at d = |E|
    assert b.candidate_count_formula(2, 3, 7) == b.candidate_count_formula(2, 3, 2)
    with pytest.raises(ValueError):
        b.candidate_count_formula(-1, 2, 2)
    with pytest.raises(ValueError):
        b.candidate_count_formula(2, 2, -1)


def test_formula_against_direct_sum():
    from math import comb
    for ne, nn, d in product(range(5), range(4), range(5)):
        expected = 2 * sum(comb(ne, i) * nn ** i
                           for i in range(min(ne, d) + 1))
        assert b.candidate_count_formula(ne, nn, d) == expected


# -- enumerate_valid_regions ---------------------------------------------------

def test_stream_matches_brute_force(a1, a2, a3):
    for ts in (a1, a2, a3):
        for net_type in (TYPE_1, TYPE_0, TYPE_ALL):
            for d in range(len(ts.events) + 1):
                got = stream(ts, net_type, d)
                want = brute_force_regions(ts, net_type, d)
                assert sorted(map(repr, got)) == sorted(map(repr, want))


def test_stream_is_canonically_ordered(a2):
    ts = diamond()
    for net_type, d in ((TYPE_1, 2), (TYPE_ALL, 2), (TYPE_0, 3)):
        for system in (a2, ts):
            keys = [canonical_key(r, system)
                    for r in stream(system, net_type, d)]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_stream_includes_r1(a1):
    regions = stream(a1, TYPE_1, 1)
    assert R_1 in regions
    assert len(regions) == 6  # 2 all-nop + set@1 + swap@0 + swap@1 + used@1


def test_stream_at_d0_is_the_two_constant_regions(a3):
    regions = stream(a3, TYPE_1, 0)
    assert [r.support["s0"] for r in regions] == [0, 1]
    for r in regions:
        assert set(r.signature.values()) == {"nop"}
        assert len(set(r.support.values())) == 1


def test_stream_yields_valid_unique_regions(a2):
    seen = set()
    for region in stream(a2, TYPE_ALL, 2):
        ok, _ = b.validate_region(a2, TYPE_ALL, region)
        assert ok
        key = b.implicit_form(region, a2)
        assert key not in seen
        seen.add(key)


def test_full_drain_stats(a2):
    stats = b.EnumerationStats()
    regions = stream(a2, TYPE_1, 2, stats=stats)
    assert stats.candidates_examined == b.candidate_count_formula(2, 3, 2) == 32
    assert stats.valid_regions == len(regions) == 14


def test_no_type0_region_separates_a2(a2):
    regions = stream(a2, TYPE_0, 2)
    assert len(regions) == 5
    for region in regions:
        for atom in b.enumerate_atoms(a2):
            assert not b.region_solves(region, TYPE_0, atom)


# -- solve_atom ------------------------------------------------------------------

def test_solve_atom_finds_r1(a1):
    found = b.solve_atom(a1, TYPE_1, 1, b.parse_atom("ssp:s0,s1"))
    assert found == R_1


def test_solve_atom_absent_cases(a1, a2):
    assert b.solve_atom(a2, TYPE_1, 2, b.parse_atom("essp:b,r1")) is None
    assert b.solve_atom(a2, TYPE_1, 2, b.parse_atom("essp:c,r0")) is None
    assert b.solve_atom(a1, TYPE_0, 1, b.parse_atom("ssp:s0,s1")) is None
    assert b.solve_atom(a1, TYPE_1, 0, b.parse_atom("ssp:s0,s1")) is None


def test_solve_atom_rejects_non_atoms(a2):
    with pytest.raises(ValueError, match="occurs at"):
        b.solve_atom(a2, TYPE_1, 2, b.parse_atom("essp:b,r0"))
    with pytest.raises(ValueError, match="unknown state"):
        b.solve_atom(a2, TYPE_1, 2, b.parse_atom("ssp:r0,rX"))


def test_solve_atom_agrees_with_filtered_stream(a1, a2, a3):
    # the last type has no partial interaction: no region solves an essp atom
    for ts in (a1, a2, a3):
        for net_type in (TYPE_1, TYPE_0, TYPE_ALL,
                         frozenset({"nop", "set", "swap"})):
            for d in range(len(ts.events) + 1):
                regions = stream(ts, net_type, d)
                for atom in b.enumerate_atoms(ts):
                    want = next((r for r in regions
                                 if b.region_solves(r, net_type, atom)), None)
                    got = b.solve_atom(ts, net_type, d, atom)
                    assert got == want, (ts, sorted(net_type), d, str(atom))


def test_solve_atom_never_examines_more_than_the_space(a3):
    for atom in b.enumerate_atoms(a3):
        stats = b.EnumerationStats()
        b.solve_atom(a3, TYPE_ALL, 2, atom, stats=stats)
        assert stats.candidates_examined <= b.candidate_count_formula(3, 7, 2)


def test_solve_atom_pruned_counters_are_pinned(demo_hs):
    # the counts of the compiled alpha query at d and d-1: the rank of the
    # region found, and the size of the space when there is none
    want = {
        "1.1": [(True, 10814, 1), (False, 9986, 0)],
        "1.2": [(True, 16692420, 1), (False, 14070806, 0)],
        "1.3": [(True, 84717906, 1), (False, 61767392, 0)],
    }
    for construction, rows in want.items():
        art = b.reduce_instance(construction, demo_hs)
        got = []
        for d in (art.d, art.d - 1):
            stats = b.EnumerationStats()
            region = b.solve_atom(art.ts, art.default_type, d, art.alpha,
                                  stats=stats)
            got.append((region is not None, stats.candidates_examined,
                        stats.valid_regions))
        assert got == rows, construction


# -- solve_drts ------------------------------------------------------------------

def test_drts_a1_solvable_by_r1_alone(a1):
    outcome = b.solve_drts(a1, TYPE_1, 1)
    assert outcome.solvable
    assert outcome.admissible_set == [R_1]
    assert outcome.witness_map == {b.parse_atom("ssp:s0,s1"): 0}
    assert outcome.unsolved_atoms == []
    assert outcome.stats.valid_regions >= 1


def test_drts_a1_unsolvable_under_type0(a1):
    outcome = b.solve_drts(a1, TYPE_0, 1)
    assert not outcome.solvable
    assert outcome.unsolved_atoms == [b.parse_atom("ssp:s0,s1")]
    assert outcome.admissible_set == []


def test_drts_a2_lacks_event_separation(a2):
    outcome = b.solve_drts(a2, TYPE_1, 2)
    assert not outcome.solvable
    assert set(map(str, outcome.unsolved_atoms)) == {"essp:b,r1", "essp:c,r0"}
    # the state pair is solved, so its witness survives in the outcome
    assert str(list(outcome.witness_map)[0]) == "ssp:r0,r1"
    # an unsolvable verdict reflects a fully drained candidate space
    assert outcome.stats.candidates_examined == b.candidate_count_formula(2, 3, 2)


def test_drts_witnesses_are_first_in_canonical_order(a2, a3):
    for ts, net_type, d in ((a2, TYPE_ALL, 2), (a3, TYPE_1, 3),
                            (a3, TYPE_ALL, 2)):
        outcome = b.solve_drts(ts, net_type, d)
        regions = stream(ts, net_type, d)
        for atom, idx in outcome.witness_map.items():
            want = next(r for r in regions
                        if b.region_solves(r, net_type, atom))
            assert outcome.admissible_set[idx] == want


def test_drts_is_deterministic(a3):
    runs = [b.solve_drts(a3, TYPE_ALL, 2) for _ in range(2)]
    assert runs[0].admissible_set == runs[1].admissible_set
    assert runs[0].witness_map == runs[1].witness_map


def test_drts_clamps_d_beyond_the_event_count(a2):
    big = b.solve_drts(a2, TYPE_ALL, 100)
    ref = b.solve_drts(a2, TYPE_ALL, 2)
    assert big.solvable == ref.solvable
    assert big.admissible_set == ref.admissible_set
    assert big.stats.candidates_examined == ref.stats.candidates_examined


def test_drts_on_atomless_ts():
    ts = b.build_ts(["s"], ["a"], [("s", "a", "s")], "s")
    outcome = b.solve_drts(ts, TYPE_1, 1)
    assert outcome.solvable
    assert outcome.admissible_set == []
    net = b.synthesize_net(ts, outcome.admissible_set, TYPE_1)
    assert b.verify_lemma1(ts, net)
    # the bound is checked even when there is nothing to search for
    with pytest.raises(ValueError, match="restriction bound must be >= 0"):
        b.solve_drts(ts, TYPE_1, -1)


def test_enumeration_rejects_a_negative_bound(a1):
    with pytest.raises(ValueError, match="restriction bound must be >= 0"):
        b.enumerate_valid_regions(a1, TYPE_1, -1)


def test_drts_monotone_in_d(a1, a2, a3):
    for ts in (a1, a2, a3):
        for net_type in (TYPE_1, TYPE_0, TYPE_ALL):
            verdicts = [b.solve_drts(ts, net_type, d).solvable
                        for d in range(len(ts.events) + 1)]
            # once solvable, solvable at every larger bound
            assert verdicts == sorted(verdicts)


def test_drts_monotone_in_type(a1, a2, a3):
    small = frozenset({"nop", "inp", "out"})
    for ts in (a1, a2, a3):
        d = len(ts.events)
        if b.solve_drts(ts, small, d).solvable:
            assert b.solve_drts(ts, TYPE_ALL, d).solvable
        if b.solve_drts(ts, TYPE_1, d).solvable:
            assert b.solve_drts(ts, TYPE_ALL, d).solvable


def test_drts_shrink_keeps_coverage(a3):
    plain = b.solve_drts(a3, TYPE_ALL, 2)
    shrunk = b.solve_drts(a3, TYPE_ALL, 2, shrink=True)
    assert shrunk.solvable
    assert len(shrunk.admissible_set) <= len(plain.admissible_set)
    for atom in b.enumerate_atoms(a3):
        region = shrunk.admissible_set[shrunk.witness_map[atom]]
        assert b.region_solves(region, TYPE_ALL, atom)


# -- synthesize_net / verify_lemma1 ---------------------------------------------

def test_synthesize_fig4_net(a1, a1_net_golden):
    net = b.synthesize_net(a1, [R_1], TYPE_1)
    assert b.render_net(net) == a1_net_golden
    assert b.verify_lemma1(a1, net)
    assert b.dependency_number(net) == 1


def test_synthesize_rejects_invalid_regions(a1):
    bogus = b.Region(support={"s0": 0, "s1": 0}, signature={"a": "swap"})
    with pytest.raises(ValueError, match="region 0 does not validate"):
        b.synthesize_net(a1, [bogus], TYPE_1)
    stray = b.Region(support={"s0": 0, "s1": 1},
                     signature={"a": "swap", "zz": "set"})
    with pytest.raises(b.InvalidRegion, match="unknown event 'zz'"):
        b.synthesize_net(a1, [stray], TYPE_1)


def test_synthesize_with_no_places(a1):
    net = b.synthesize_net(a1, [], TYPE_1)
    rg = b.reachability_graph(net)
    assert len(rg.states) == 1
    assert rg.events == a1.events  # every event self-loops on the one marking
    assert not b.verify_lemma1(a1, net)  # a1 has two states


def test_net_roundtrip_reproduces_example_net(demo_net):
    # regions read off the reachability graph rebuild the net it came from
    rg = b.reachability_graph(demo_net)
    tau = demo_net.net_type
    r1 = b.Region(support={"m10": 1, "m01": 0, "m00": 0},
                  signature={"a": "inp", "b": "nop"})
    r2 = b.Region(support={"m10": 0, "m01": 1, "m00": 0},
                  signature={"a": "swap", "b": "inp"})
    net = b.synthesize_net(rg, [r1, r2], tau)
    rename = {"p0": "R_1", "p1": "R_2"}
    assert {(rename[p], t): i for (p, t), i in net.flow.items()} == \
        demo_net.flow
    assert {rename[p]: v for p, v in net.initial_marking.items()} == \
        demo_net.initial_marking
    assert net.transitions == demo_net.transitions
    assert b.verify_lemma1(rg, net)


def test_verify_lemma1_rejects_foreign_net(a2, a1_net_golden):
    net = b.parse_net(a1_net_golden)
    assert not b.verify_lemma1(a2, net)  # different event alphabets


def test_solvable_outcomes_roundtrip(a1, a3):
    for ts, net_type, d in ((a1, TYPE_1, 1), (a3, TYPE_ALL, 2),
                            (a3, TYPE_ALL, 3)):
        outcome = b.solve_drts(ts, net_type, d)
        assert outcome.solvable
        net = b.synthesize_net(ts, outcome.admissible_set, net_type)
        assert b.verify_lemma1(ts, net)
        assert b.dependency_number(net) <= d


# -- randomized cross-checks -----------------------------------------------------

def diamond():
    return b.build_ts(["s0", "s1", "s2", "s3"], ["a", "b", "c"],
                      [("s0", "a", "s1"), ("s0", "b", "s2"),
                       ("s1", "c", "s3"), ("s2", "a", "s3")], "s0")


@st.composite
def small_ts(draw, max_states=4, max_events=3):
    n_states = draw(st.integers(1, max_states))
    n_events = draw(st.integers(1, max_events))
    states = [f"s{i}" for i in range(n_states)]
    events = [f"e{i}" for i in range(n_events)]
    delta = {}
    wired = ["s0"]
    for i in range(1, n_states):
        slots = [(s, e) for s in wired for e in events if (s, e) not in delta]
        src, ev = draw(st.sampled_from(slots))
        delta[(src, ev)] = states[i]
        wired.append(states[i])
    for _ in range(draw(st.integers(0, 5))):
        src = draw(st.sampled_from(states))
        ev = draw(st.sampled_from(events))
        delta.setdefault((src, ev), draw(st.sampled_from(states)))
    kept = [(s, e, t) for (s, e), t in delta.items()]
    used = sorted({e for _, e, _ in kept})
    if not used:
        kept, used = [("s0", "e0", "s0")], ["e0"]
    return b.build_ts(states, used, kept, "s0")


@given(small_ts(), st.sampled_from([TYPE_1, TYPE_0, TYPE_ALL]),
       st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_random_stream_matches_brute_force(ts, net_type, d):
    got = stream(ts, net_type, d)
    want = brute_force_regions(ts, net_type, d)
    assert sorted(map(repr, got)) == sorted(map(repr, want))
    keys = [canonical_key(r, ts) for r in got]
    assert keys == sorted(keys)


@given(small_ts(), st.sampled_from([TYPE_1, TYPE_ALL]), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_random_solvable_runs_roundtrip(ts, net_type, d):
    outcome = b.solve_drts(ts, net_type, d)
    if not outcome.solvable:
        # exhaustiveness: no region in the whole space solves a listed atom
        assert outcome.unsolved_atoms
        for region in brute_force_regions(ts, net_type, d):
            for atom in outcome.unsolved_atoms:
                assert not b.region_solves(region, net_type, atom)
        return
    net = b.synthesize_net(ts, outcome.admissible_set, net_type)
    assert b.verify_lemma1(ts, net)
    assert b.dependency_number(net) <= d


def atom_major_drts(ts, net_type, d, shrink):
    """Reference for solve_drts: every region of the stream is tested
    against each still-unsolved atom with region_solves, and the optional
    shrink re-covers the atoms greedily from the same test. Also returns
    the number of solving regions found before the shrink."""
    stats = b.EnumerationStats()
    atoms = b.enumerate_atoms(ts)
    unsolved = dict.fromkeys(atoms)
    admissible, witness = [], {}
    if unsolved:
        for region in b.enumerate_valid_regions(ts, net_type, d, stats=stats):
            hits = [a for a in unsolved if b.region_solves(region, net_type, a)]
            if not hits:
                continue
            for a in hits:
                witness[a] = len(admissible)
                del unsolved[a]
            admissible.append(region)
            if not unsolved:
                break
    found = len(admissible)
    if shrink and not unsolved:
        covers = [{a for a in atoms if b.region_solves(r, net_type, a)}
                  for r in admissible]
        uncovered, picked = set(atoms), []
        while uncovered:
            best = max(range(len(covers)),
                       key=lambda r: (len(covers[r] & uncovered), -r))
            picked.append(best)
            uncovered -= covers[best]
        picked.sort()
        remap = {old: new for new, old in enumerate(picked)}
        witness = {a: remap[next(r for r in picked if a in covers[r])]
                   for a in atoms}
        admissible = [admissible[r] for r in picked]
    return admissible, witness, list(unsolved), stats, found


# solve_drts's search limit: the stream alone, a switch partway on the
# small systems below, the default (searches from level 0 on most of them),
# and searches from level 0 everywhere
SEARCH_LIMITS = (0, 4, engine._SEARCH_LIMIT, 10 ** 9)


def search_limit(limit):
    return mock.patch.object(engine, "_SEARCH_LIMIT", limit)


def switch_of(ts, net_type, d):
    """solve_drts's outcome, with the row searches it ran at its switch:
    their number, the atoms they were for and the set of their start
    levels."""
    with mock.patch.object(engine, "_row_finds",
                           wraps=engine._row_finds) as spy:
        outcome = b.solve_drts(ts, net_type, d)
    rows = [call.args[1] for call in spy.call_args_list]
    starts = {call.args[2] for call in spy.call_args_list}
    return outcome, (len(rows), sum(bits.bit_count() for *_, bits in rows),
                     starts)


def outcome_fields(outcome):
    """Every field of a SynthesisOutcome but the time, in order."""
    return (outcome.solvable,
            [(list(r.support.items()), list(r.signature.items()))
             for r in outcome.admissible_set],
            list(outcome.witness_map.items()), outcome.unsolved_atoms,
            outcome.stats.candidates_examined, outcome.stats.valid_regions)


def assert_matches_atom_major(ts, net_type, d, shrink):
    admissible, witness, unsolved, stats, found = atom_major_drts(
        ts, net_type, d, shrink)
    # valid_regions counts the solvers found, taken before the shrink
    want = outcome_fields(SimpleNamespace(
        solvable=not unsolved, admissible_set=admissible, witness_map=witness,
        unsolved_atoms=unsolved,
        stats=b.EnumerationStats(stats.candidates_examined, found)))
    for limit in SEARCH_LIMITS:
        with search_limit(limit):
            outcome = b.solve_drts(ts, net_type, d, shrink=shrink)
        assert outcome_fields(outcome) == want, limit


def test_drts_matches_atom_major_reference(a1, a2, a3):
    for ts in (a1, a2, a3, diamond()):
        for net_type in (TYPE_1, TYPE_0, TYPE_ALL):
            for d in range(len(ts.events) + 1):
                for shrink in (False, True):
                    assert_matches_atom_major(ts, net_type, d, shrink)


@given(small_ts(), st.sampled_from([TYPE_1, TYPE_0, TYPE_ALL]),
       st.integers(0, 3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_drts_matches_atom_major_reference(ts, net_type, d, shrink):
    assert_matches_atom_major(ts, net_type, d, shrink)


def test_drts_switch_partway_matches_the_stream():
    # three disjoint pairs at kappa 2 under construction 1.1: 757 atoms, 11
    # open before level 3, where the default limit stops the stream
    universe = [f"X{i}" for i in range(1, 7)]
    pairs = [["X1", "X2"], ["X3", "X4"], ["X5", "X6"]]
    art = b.reduce_t11(b.build_hs_instance(universe, pairs, 2))
    hybrid, (searches, atoms, levels) = switch_of(art.ts, art.default_type,
                                                  art.d)
    assert levels == {3}
    # one search per essp row: 2 for the 11 open atoms
    assert (searches, atoms) == (2, 11)
    with search_limit(0):
        streamed = b.solve_drts(art.ts, art.default_type, art.d)
    assert not hybrid.solvable and art.alpha in hybrid.unsolved_atoms
    assert outcome_fields(hybrid) == outcome_fields(streamed)


def test_searches_at_the_switch_are_pinned(demo_hs, a3):
    # (searches, atoms they are for, level): an exact count of the effort
    # at the switch, where a time would be noisy, with the verdict and the
    # counters
    c06_yes = b.build_hs_instance(demo_hs.universe, demo_hs.sets, 3)
    systems = []
    for construction, inst, want in (
            ("1.1", c06_yes, (5, 19, {3}, True, 314_578, 89)),
            ("1.2", demo_hs, (9, 70, {3}, True, 16_692_420, 208)),
            ("1.3", demo_hs, (10, 22, {4}, False, 754_346_552, 565))):
        art = b.reduce_instance(construction, inst)
        systems.append((art.ts, art.default_type, art.d, want))
    # ssp atoms open at the switch: three ssp rows hold six of the atoms
    # open at level 0, and three essp rows the rest
    systems += [(a3, TYPE_0, 2, (6, 15, {0}, True, 34, 6)),
                (diamond(), TYPE_ALL, 2, (6, 14, {0}, True, 242, 5))]
    for ts, net_type, d, want in systems:
        outcome, switch = switch_of(ts, net_type, d)
        assert (*switch, outcome.solvable, outcome.stats.candidates_examined,
                outcome.stats.valid_regions) == want, want


# synth on triangle 1.4 and demo 1.4 at kappa 2, at their default type and
# d, within a budget: the verdict, candidates_examined, valid_regions, the
# atoms left unsolved and the searches at the switch as switch_of gives them
@pytest.mark.parametrize("name, seconds, want", [
    ("triangle", 4.0, (False, 9_377_127_908, 400, 26, (7, 79, {3}))),
    ("demo", 20.0, (False, 113_123_358_818, 636, 49, (12, 146, {3}))),
], ids=["triangle", "demo"])
def test_t14_synth_within_budget(name, seconds, want, demo_hs):
    inst = demo_hs if name == "demo" else b.build_hs_instance(
        ["X1", "X2", "X3"], [["X1", "X2"], ["X2", "X3"], ["X1", "X3"]], 2)
    art = b.reduce_instance("1.4", inst)
    with budget(seconds):
        outcome, switch = switch_of(art.ts, art.default_type, art.d)
    unsolved = outcome.unsolved_atoms
    assert (outcome.solvable, outcome.stats.candidates_examined,
            outcome.stats.valid_regions, len(unsolved), switch) == want
    assert art.alpha not in unsolved


def test_criterion_06_no_within_budget():
    # the criterion-06 no case: four disjoint pairs at kappa 3
    universe = [f"X{i}" for i in range(1, 9)]
    pairs = [["X1", "X2"], ["X3", "X4"], ["X5", "X6"], ["X7", "X8"]]
    art = b.reduce_t11(b.build_hs_instance(universe, pairs, 3))
    with budget(2.0):
        outcome = b.solve_drts(art.ts, art.default_type, art.d)
    assert not outcome.solvable
    assert art.alpha in outcome.unsolved_atoms


# -- the stream's leaf check against an unfiltered stream --------------------------

FILTER_TYPES = [frozenset(t.split(",")) for t in (
    "nop,inp,out", "nop,used,free", "nop,set,swap")] + [TYPE_ALL]


def shuffled_line(n, rng):
    """A line of n states, its events permuted by rng."""
    states = [f"s{i:03}" for i in range(n)]
    events = [f"e{i:03}" for i in range(n - 1)]
    rng.shuffle(events)
    return b.build_ts(states, events, [(states[i], e, states[i + 1])
                                       for i, e in enumerate(events)],
                      states[0])


def unfiltered():
    return mock.patch.object(engine._AtomIndex, "may_solve",
                             return_value=True)


def count_assignments():
    """A spy on the subsets that reach _Search._assignments."""
    return mock.patch.object(_Search, "_assignments", autospec=True,
                             side_effect=_Search._assignments)


def assert_filter_keeps_the_outcome(ts, net_type, d):
    # the stream alone, so that every level passes the leaf check
    with search_limit(0):
        for shrink in (False, True):
            with unfiltered():
                want = outcome_fields(b.solve_drts(ts, net_type, d, shrink))
            outcome = b.solve_drts(ts, net_type, d, shrink)
            assert outcome_fields(outcome) == want, (net_type, d, shrink)
    if not net_type & PARTIAL:
        # only a partial interaction solves an essp atom
        assert set(outcome.unsolved_atoms) >= {
            a for a in b.enumerate_atoms(ts) if isinstance(a, EsspAtom)}


def test_leaf_check_keeps_the_outcome_on_shuffled_lines():
    rng = random.Random(14)
    skipped = 0
    for n in (8, rng.randint(9, 15), 16):
        ts = shuffled_line(n, rng)
        for net_type in FILTER_TYPES:
            for d in (1, 2, 3):
                assert_filter_keeps_the_outcome(ts, net_type, d)
                with search_limit(0):
                    with unfiltered(), count_assignments() as spy:
                        b.solve_drts(ts, net_type, d)
                    every = spy.call_count
                    with count_assignments() as spy:
                        b.solve_drts(ts, net_type, d)
                assert spy.call_count <= every
                skipped += every - spy.call_count
    # the check is not idle here
    assert skipped > 0


@given(small_ts(), st.sampled_from(FILTER_TYPES), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_random_leaf_check_keeps_the_outcome(ts, net_type, d):
    assert_filter_keeps_the_outcome(ts, net_type, d)


def test_leaf_check_effort_is_pinned():
    # the shape of the benchmark's line decisions: a 40-state line, its
    # events shuffled, at d=2 under nop,inp,out
    ts = shuffled_line(40, random.Random(40))
    net_type = frozenset({"nop", "inp", "out"})
    with count_assignments() as spy:
        filtered = b.solve_drts(ts, net_type, 2)
    subsets = spy.call_count
    with unfiltered(), count_assignments() as spy:
        every = b.solve_drts(ts, net_type, 2)
    assert filtered.solvable
    assert filtered.solvers == every.solvers and len(every.solvers) == 176
    # past its last ssp atom the stream needs only the subsets whose essp
    # rows still hold a state outside their sources' classes
    assert (subsets, spy.call_count) == (177, 773)
    assert 3 * subsets < spy.call_count


def test_row_search_effort_is_pinned(demo_hs):
    # the alpha query at kappa 1 and d=5: the contractions made, the set-up's
    # test of single events among them, and the subsets reaching the
    # assignment search. The essp row's event, and each event whose forest
    # alone rules the row out, is chosen in every subset, so no prefix
    # without it is walked.
    triangle = b.build_hs_instance(["X1", "X2", "X3"], [["X1", "X2"],
                                   ["X2", "X3"], ["X1", "X3"]], 1)
    demo = b.build_hs_instance(demo_hs.universe, demo_hs.sets, 1)
    got = []
    for construction, inst in (("1.3", demo), ("1.4", triangle)):
        art = b.reduce_instance(construction, inst)
        with mock.patch.object(_Search, "_contract_range", autospec=True,
                               side_effect=_Search._contract_range) as spy, \
                count_assignments() as subsets:
            found = b.solve_atom(art.ts, art.default_type, art.d, art.alpha)
        got.append((art.d, found, spy.call_count, subsets.call_count))
    assert got == [(5, None, 677, 352), (5, None, 6_942, 200)]


def test_row_search_edges_walked_are_pinned(demo_hs):
    # the edges _contract_range walks on the same alpha queries, and on
    # demo 1.2: each event's spanning forest, without the self-loops of 1.2
    # and the two-cycles of 1.3 (every edge: 2,481, 4,863 and 50,312)
    triangle = b.build_hs_instance(["X1", "X2", "X3"], [["X1", "X2"],
                                   ["X2", "X3"], ["X1", "X3"]], 1)
    demo = b.build_hs_instance(demo_hs.universe, demo_hs.sets, 1)
    contract = _Search._contract_range
    got = []
    for construction, inst in (("1.2", demo), ("1.3", demo),
                               ("1.4", triangle)):
        art = b.reduce_instance(construction, inst)
        walked = [0]

        def counted(self, lo, hi):
            walked[0] += sum(map(len, self.free_edges[lo:hi]))
            return contract(self, lo, hi)

        with mock.patch.object(_Search, "_contract_range", counted):
            found = b.solve_atom(art.ts, art.default_type, art.d, art.alpha)
        got.append((art.d, found, walked[0]))
    assert got == [(5, None, 1_180), (5, None, 2_826), (5, None, 50_312)]


def test_row_search_unions_made_are_pinned(demo_hs):
    # the unions made on the same queries, as the trail entries rolled back:
    # every forest pair merges under 1.2 and 1.3, while under 1.4 a
    # contraction stops at the union that would put a source and a target
    # of the key event in one class, before making it
    triangle = b.build_hs_instance(["X1", "X2", "X3"], [["X1", "X2"],
                                   ["X2", "X3"], ["X1", "X3"]], 1)
    demo = b.build_hs_instance(demo_hs.universe, demo_hs.sets, 1)
    rollback = _Search._rollback_uf
    got = []
    for construction, inst in (("1.2", demo), ("1.3", demo),
                               ("1.4", triangle)):
        art = b.reduce_instance(construction, inst)
        undone = [0]

        def counted(self, mark):
            undone[0] += len(self.uf_trail) - mark
            rollback(self, mark)

        with mock.patch.object(_Search, "_rollback_uf", counted):
            found = b.solve_atom(art.ts, art.default_type, art.d, art.alpha)
        got.append((art.d, found, undone[0]))
    assert got == [(5, None, 1_180), (5, None, 2_826), (5, None, 32_324)]


def test_a_source_and_target_state_rules_out_the_row():
    # detour's self-loop makes s5 a source and a target of a: under inp no
    # union makes that class, it is there from the start. That solve_atom
    # still finds the first solver there is checked by
    # test_overlap_pruning_matches_the_first_solver, on every d.
    detour = overlap_systems()[1]
    net_type = frozenset({"nop", "inp"})
    a = detour.events.index("a")
    row = next(r for r in engine._AtomIndex(detour).open_rows()
               if r[:2] == (engine._ESSP, a))
    search = _Search(detour, net_type, 2, row)
    assert search.src_states & search.tgt_states
    assert search.fatal == search.all_states


def test_shuffled_line_synth_within_budget():
    ts = shuffled_line(200, random.Random(3))
    with budget(1.0):
        outcome = b.solve_drts(ts, frozenset({"nop", "inp", "out"}), 2)
        net = outcome.net()
    assert outcome.solvable
    assert len(net.places) == len(outcome.solvers)


def canonical_line(n):
    """A line of n states, its events in canonical order."""
    states = [f"s{i:03}" for i in range(n)]
    events = [f"e{i:03}" for i in range(n - 1)]
    return b.build_ts(states, events, [(states[i], e, states[i + 1])
                                       for i, e in enumerate(events)],
                      states[0])


def test_line_shrink_within_budget():
    # every ssp atom of a canonical line has its own first solver; the
    # shrink re-covers the 150 * 149 / 2 of them and the essp atoms
    ts = canonical_line(150)
    with budget(4.0):
        outcome = b.solve_drts(ts, frozenset({"nop", "inp", "out"}), 2,
                               shrink=True)
    assert outcome.solvable
    assert (outcome.stats.valid_regions, len(outcome.solvers)) == (11175, 224)


# -- the greedy shrink against the set-based version it replaced -----------------

class AtomListIndex(engine._AtomIndex):
    """engine._AtomIndex with its rows built from a list of atoms instead of
    read off ts.delta: the reference for those rows."""

    def __init__(self, ts, atoms):
        super().__init__(ts)
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
        self.open = sum(row.bit_count()
                        for row in self.ssp_row + self.essp_row)


def set_based_shrink(index, atoms, solvers):
    """engine._greedy_shrink as it was, with a set of atoms per solver, kept
    as its reference."""
    covers = [{a for hit in index.hits(cand) for a in index.atoms(hit)}
              for cand in solvers]
    uncovered = set(atoms)
    picked = []
    while uncovered:
        best = max(range(len(covers)),
                   key=lambda r: (len(covers[r] & uncovered), -r))
        picked.append(best)
        uncovered -= covers[best]
    picked.sort()
    return picked, {a: next(new for new, old in enumerate(picked)
                            if a in covers[old]) for a in atoms}


def assert_shrink_matches_set_based(ts, atoms, solvers):
    """The picks and the claimed witness equal set_based_shrink's, which
    it returns."""
    index = AtomListIndex(ts, atoms)
    picked = engine._greedy_shrink([index.cover(cand) for cand in solvers])
    want_picked, want_witness = set_based_shrink(
        AtomListIndex(ts, atoms), atoms, solvers)
    assert picked == want_picked
    # solve_drts's claim step: the picked solvers, ascending, take the atoms
    # they solve from the rows
    claimed = {a: new for new, old in enumerate(picked)
               for hit in index.take(solvers[old]) for a in index.atoms(hit)}
    assert not index.open
    assert [(a, claimed[a]) for a in atoms] == list(want_witness.items())
    return want_picked, want_witness


def test_shrink_matches_set_based_on_c06_yes(demo_hs):
    art = b.reduce_t11(b.build_hs_instance(demo_hs.universe, demo_hs.sets, 3))
    solvers = b.solve_drts(art.ts, art.default_type, art.d).solvers
    with mock.patch.object(engine, "_greedy_shrink",
                           wraps=engine._greedy_shrink) as spy:
        outcome = b.solve_drts(art.ts, art.default_type, art.d, shrink=True)
    assert outcome.solvable and spy.call_count == 1
    atoms = b.enumerate_atoms(art.ts)
    (covers,) = spy.call_args.args
    assert (len(atoms), len(solvers)) == (1121, 89)
    assert covers == [AtomListIndex(art.ts, atoms).cover(cand)
                      for cand in solvers]
    picked, witness = assert_shrink_matches_set_based(art.ts, atoms, solvers)
    assert outcome.solvers == [solvers[r] for r in picked]
    assert list(outcome.witness_map.items()) == list(witness.items())


@given(small_ts(max_states=5, max_events=3),
       st.sampled_from([TYPE_1, TYPE_0, TYPE_ALL]), st.integers(1, 3),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_random_shrink_matches_set_based(ts, net_type, d, backwards):
    # every region of the stream as a solver, in stream order or reversed,
    # so many solvers tie on their counts, against the atoms they solve
    solvers = list(_Search(ts, net_type, d).stream())
    if backwards:
        solvers.reverse()
    atoms = b.enumerate_atoms(ts)
    index = AtomListIndex(ts, atoms)
    solved = {a for cand in solvers for hit in index.hits(cand)
              for a in index.atoms(hit)}
    atoms = [a for a in atoms if a in solved]
    assert_shrink_matches_set_based(ts, atoms, solvers)


# -- solve_drts in bit form: atom rows, the region check and the net ----------

def assert_rows_match_the_atom_list(ts):
    atoms = b.enumerate_atoms(ts)
    built, listed = engine._AtomIndex(ts), AtomListIndex(ts, atoms)
    assert (built.ssp_row, built.essp_row, built.ssp_live, built.open) == \
        (listed.ssp_row, listed.essp_row, listed.ssp_live, len(atoms))
    assert list(built.open_atoms()) == atoms
    assert list(built.open_text()) == list(map(str, atoms))


def test_atom_rows_from_the_ts_match_the_atom_list(a1, a2, a3, demo_hs):
    compiled = [b.reduce_instance(c, demo_hs).ts for c in CONSTRUCTIONS]
    for ts in [a1, a2, a3, diamond()] + compiled:
        assert_rows_match_the_atom_list(ts)


@given(small_ts(max_states=6, max_events=4))
@settings(max_examples=60, deadline=None)
def test_random_atom_rows_match_the_atom_list(ts):
    assert_rows_match_the_atom_list(ts)


def first_bad_edge_loop(ts, support, sig):
    """The first edge in ts.edges order that a region does not respect: the
    plain loop over the edges that regions._EdgeCheck does in bit form."""
    for src, event, dst in ts.edges:
        v = apply(sig[event], support[src])
        if v is None or v != support[dst]:
            return (src, event, dst)
    return None


def expansion_by_loop(ts, net_type, sup_initial, sig, tree):
    """diagnose_expansion with the loop: the support propagated along the
    tree, or the edge it broke at, then the loop's first bad edge."""
    _check_signature(ts, net_type, sig)
    support = {tree.root: sup_initial}
    for state in tree.order[1:]:
        parent, event = tree.parent[state]
        v = apply(sig[event], support[parent])
        if v is None:
            return None, (parent, event, state)
        support[state] = v
    bad = first_bad_edge_loop(ts, support, sig)
    return (None, bad) if bad else (list(support.items()), None)


def or_error(check, *args):
    """check(*args), or the message of the ValueError it raised, an
    InvalidRegion included."""
    try:
        return check(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_edge_check_matches_the_loop(ts, net_type, cands):
    """validate_region, diagnose_expansion, synthesize_net and outcome.net()
    all give the loop's verdict, first bad edge and InvalidRegion message."""
    search = _Search(ts, net_type, 0)
    tree = b.spanning_tree(ts)
    seen = set()
    for cand in cands:
        region = search.region(cand)

        def by_loop():
            _check_signature(ts, net_type, region.signature)
            return first_bad_edge_loop(ts, region.support, region.signature)
        want = or_error(by_loop)
        assert or_error(
            lambda: b.validate_region(ts, net_type, region)[1]) == want, cand
        seen.add(type(want))
        # the region alone as a net: built, or refused at its bad edge
        bit = cand[0] >> search.init_idx & 1
        if want is None:
            net = b.render_net(b.build_net(
                ["p0"], ts.events, net_type,
                {("p0", e): i for e, i in region.signature.items()
                 if i != "nop"}, {"p0": bit}))
        elif isinstance(want, tuple):
            net = ("ValueError: region 0 does not validate "
                   f"(first bad edge {want})")
        else:
            net = want
        outcome = engine.SynthesisOutcome(
            ts, net_type, search, engine._AtomIndex(ts), [cand], [[]],
            b.EnumerationStats(), False)
        for build in (outcome.net,
                      lambda: b.synthesize_net(ts, [region], net_type)):
            got = or_error(build)
            assert (got if isinstance(got, str) else b.render_net(got)) == \
                net, cand
        # the same signature expanded from the candidate's initial bit
        got = or_error(diagnose_expansion, ts, net_type, bit,
                       region.signature, tree)
        if not isinstance(got, str):
            region_got, bad = got
            got = (None if region_got is None
                   else list(region_got.support.items()), bad)
        assert got == or_error(expansion_by_loop, ts, net_type, bit,
                               region.signature, tree), cand
    return seen


def flipped(cands, n_states):
    """Each candidate with the support of one state flipped, by turns."""
    return [(mask ^ 1 << k % n_states, chosen, sigs)
            for k, (mask, chosen, sigs) in enumerate(cands)]


def test_edge_check_matches_validate_region(a1, a2, a3):
    seen = set()
    for ts in (a1, a2, a3, diamond()):
        valid = list(_Search(ts, TYPE_ALL, len(ts.events)).stream())
        for net_type in (TYPE_1, TYPE_0, TYPE_ALL, TYPE_ALL - {"nop"}):
            seen |= assert_edge_check_matches_the_loop(
                ts, net_type, valid + flipped(valid, len(ts.states)))
    # valid regions, bad edges and signatures outside the type all occur
    assert seen == {type(None), tuple, str}


@st.composite
def candidate_of(draw, ts):
    """Any candidate over ts: a support, chosen events ascending, and their
    interactions, nop and an unknown name included."""
    mask = draw(st.integers(0, (1 << len(ts.states)) - 1))
    chosen = tuple(sorted(draw(st.sets(st.integers(0, len(ts.events) - 1)))))
    sigs = tuple(draw(st.sampled_from(INTERACTION_ORDER + ("flip",)))
                 for _ in chosen)
    return mask, chosen, sigs


@given(st.data(), small_ts(max_states=5, max_events=4),
       st.frozensets(st.sampled_from(INTERACTION_ORDER)))
@settings(max_examples=200, deadline=None)
def test_random_edge_check_matches_validate_region(data, ts, net_type):
    valid = list(_Search(ts, TYPE_ALL, 2).stream())
    drawn = [data.draw(candidate_of(ts)) for _ in range(5)]
    assert_edge_check_matches_the_loop(
        ts, net_type, valid + flipped(valid, len(ts.states)) + drawn)


def test_outcome_net_keeps_the_region_check(a3):
    outcome = b.solve_drts(a3, TYPE_ALL, 2)
    assert outcome.solvable and len(outcome.solvers) > 1
    assert b.render_net(outcome.net()) == b.render_net(
        b.synthesize_net(a3, outcome.admissible_set, TYPE_ALL))
    # s3 flipped in the second solver breaks the edge s2 -c-> s3 alone
    mask, chosen, sigs = outcome.solvers[1]
    outcome.solvers[1] = mask ^ 1 << 3, chosen, sigs
    regions = [outcome.search.region(cand) for cand in outcome.solvers]
    with pytest.raises(ValueError) as want:
        b.synthesize_net(a3, regions, TYPE_ALL)
    with pytest.raises(ValueError) as got:
        outcome.net()
    assert str(got.value) == str(want.value) == \
        "region 1 does not validate (first bad edge ('s2', 'c', 's3'))"


# -- the contraction at each leaf against the components it stands for ---------

def unchosen_classes(ts, chosen):
    """The states of ts partitioned by the edges of the events whose
    indices are not in chosen, by BFS."""
    skip = {ts.events[j] for j in chosen}
    adj = {s: [] for s in ts.states}
    for u, e, v in ts.edges:
        if e not in skip:
            adj[u].append(v)
            adj[v].append(u)
    classes, seen = set(), set()
    for s in ts.states:
        if s in seen:
            continue
        comp, queue = {s}, [s]
        while queue:
            for t in adj[queue.pop()]:
                if t not in comp:
                    comp.add(t)
                    queue.append(t)
        seen |= comp
        classes.add(frozenset(comp))
    return classes


def watch_leaves(search, ts):
    """Wrap search._assignments to check at each call that the partition
    and the class masks are those of the unchosen events, and that an essp
    atom's event is chosen; returns the list the chosen subsets are logged
    to."""
    assignments = search._assignments
    seen = []

    def checked(chosen):
        assert search.forced_event in (None, *chosen), chosen
        classes: dict[int, set[str]] = {}
        for i, s in enumerate(ts.states):
            classes.setdefault(search._find(i), set()).add(s)
        assert set(map(frozenset, classes.values())) == \
            unchosen_classes(ts, chosen), chosen
        for root, members in classes.items():
            assert search.uf_mask[root] == sum(
                1 << ts.states.index(s) for s in members), chosen
        seen.append(tuple(chosen))
        return assignments(chosen)

    search._assignments = checked
    return seen


# the types that set each of the essp atom's prune pairs: its state against
# the event's sources and targets (used), against its sources (inp, free),
# and sources against targets (inp, out)
LEAF_TYPES = (TYPE_1, TYPE_0, frozenset({"nop", "inp", "out"}))


def assert_leaves_contract_the_unchosen_events(ts, net_type=TYPE_1,
                                               atom=None, d=None):
    n = len(ts.events)
    d = n if d is None else d
    search = _Search(ts, net_type, d,
                     None if atom is None else engine._atom_row(ts, atom))
    seen = watch_leaves(search, ts)
    for _ in search.stream():
        pass
    subsets = [c for k in range(d + 1) for c in combinations(range(n), k)]
    if atom is None:
        # without an atom nothing is pruned: every subset, each size in
        # lexicographic order
        assert seen == subsets
        return
    # pruning only skips subsets (each `in` consumes the iterator up to
    # its match)
    rest = iter(subsets)
    assert all(c in rest for c in seen), (str(atom), seen)


def test_leaves_contract_the_unchosen_events(a1, a2, a3):
    # a line whose events run against canonical order along the path
    line = b.build_ts([f"s{i}" for i in range(10)],
                      [f"e{4 * i % 9}" for i in range(9)],
                      [(f"s{i}", f"e{4 * i % 9}", f"s{i + 1}")
                       for i in range(9)], "s0")
    for ts in (a1, a2, a3, diamond(), line):
        assert_leaves_contract_the_unchosen_events(ts)
        # at most three events chosen: draining an atom's search over all
        # of the line's subsets takes minutes
        for net_type in LEAF_TYPES:
            for atom in b.enumerate_atoms(ts):
                assert_leaves_contract_the_unchosen_events(ts, net_type,
                                                           atom, d=3)


@given(small_ts(max_states=6, max_events=5), st.sampled_from(LEAF_TYPES))
@settings(max_examples=80, deadline=None)
def test_random_leaves_contract_the_unchosen_events(ts, net_type):
    assert_leaves_contract_the_unchosen_events(ts)
    for atom in b.enumerate_atoms(ts):
        assert_leaves_contract_the_unchosen_events(ts, net_type, atom)


def test_triangle_t14_pruning_keeps_its_power():
    # the rank counters cannot see a subset that pruning used to skip; the
    # subsets the alpha query passes to the assignment search can
    pairs = [["X1", "X2"], ["X2", "X3"], ["X1", "X3"]]
    got = []
    for kappa in (2, 1):
        art = b.reduce_instance(
            "1.4", b.build_hs_instance(["X1", "X2", "X3"], pairs, kappa))
        search = _Search(art.ts, art.default_type, art.d,
                         engine._atom_row(art.ts, art.alpha))
        seen = watch_leaves(search, art.ts)
        next(search.stream(), None)
        got.append((art.d, len(seen)))
    assert got[0][0] == 6 and got[0][1] <= 276
    assert got[1][0] == 5 and got[1][1] <= 200


def test_line_drains_within_budget():
    # 1999 events: each leaf has every other event contracted, work that
    # divide and conquer shares between the leaves
    n = 2000
    line = b.build_ts([f"s{i:04d}" for i in range(n)],
                      [f"e{i:04d}" for i in range(n - 1)],
                      [(f"s{i:04d}", f"e{i:04d}", f"s{i + 1:04d}")
                       for i in range(n - 1)], "s0000")
    with budget(1.0):
        count = sum(1 for _ in b.enumerate_valid_regions(
            line, frozenset({"nop", "inp", "out"}), 1))
    # the two constant regions, and each event as inp or as out
    assert count == 4000


# the atom frontier one size up: six elements, six sets of two or three,
# drawn with random.Random(5); its minimum hitting sets have three elements
SIX_BY_SIX = [["X1", "X3", "X6"], ["X1", "X2", "X6"], ["X3", "X4"],
              ["X4", "X5"], ["X2", "X5"], ["X2", "X6"]]


@pytest.mark.parametrize("construction, seconds, count", [
    ("1.2", 1.0, 600_551_828),
    ("1.3", 8.0, 5_931_502_910),
])
def test_six_by_six_alpha_within_budget(construction, seconds, count):
    inst = b.build_hs_instance([f"X{i}" for i in range(1, 7)], SIX_BY_SIX, 2)
    art = b.reduce_instance(construction, inst)
    stats = b.EnumerationStats()
    with budget(seconds):
        region = b.solve_atom(art.ts, art.default_type, art.d, art.alpha,
                              stats=stats)
    assert region is None and b.hs_brute_force(inst) is None
    # a no drains the whole space
    assert stats.candidates_examined == count == b.candidate_count_formula(
        len(art.ts.events), len(non_nop(art.default_type)), art.d)


# -- a class holding a source and a target of the atom's event ------------------

OVERLAP_TYPES = [frozenset(t) for t in (
    {"nop", "inp"}, {"nop", "out"}, {"nop", "inp", "used"},
    {"nop", "out", "free"}, {"nop", "inp", "res", "swap"})]


def assert_atoms_match_first_solver(ts, net_type, d):
    """solve_atom against the first valid solving entry of the brute-force
    candidate list, with its rank, or None and the length of the list; each
    ssp atom also reversed, a row anchored above its open state."""
    tree = b.spanning_tree(ts)
    order = brute_force_candidates(ts, net_type, d)
    valid = []
    for k, (supinit, sig) in enumerate(order, 1):
        region = b.expand_region(ts, net_type, supinit,
                                 dict(zip(ts.events, sig)), tree)
        if region is not None:
            valid.append((k, region))
    atoms = b.enumerate_atoms(ts)
    for atom in atoms + [SspAtom(a.s2, a.s1) for a in atoms
                         if isinstance(a, SspAtom)]:
        rank, want = next(((k, r) for k, r in valid
                           if b.region_solves(r, net_type, atom)),
                          (len(order), None))
        stats = b.EnumerationStats()
        got = b.solve_atom(ts, net_type, d, atom, stats=stats)
        case = (sorted(net_type), d, str(atom))
        assert got == want, case
        assert (stats.candidates_examined, stats.valid_regions) == \
            (rank, int(want is not None)), case


def overlap_systems():
    # with k nop, the class {s2, s3} holds a target (s2) and a source (s3)
    # of a, joined by no edge of a: inp and out at a are then impossible,
    # while used or free at a still solves essp:a,s5 through b
    meet = b.build_ts(
        [f"s{i}" for i in range(7)], ["a", "b", "k"],
        [("s0", "k", "s1"), ("s1", "a", "s2"), ("s2", "k", "s3"),
         ("s3", "a", "s4"), ("s0", "b", "s5"), ("s5", "k", "s6")], "s0")
    # the same meeting through two events, and a self-loop of the atom's
    # event on a branch
    detour = b.build_ts(
        [f"s{i}" for i in range(6)], ["a", "b", "k", "m"],
        [("s0", "k", "s1"), ("s1", "a", "s2"), ("s2", "m", "s3"),
         ("s3", "k", "s4"), ("s4", "a", "s0"), ("s0", "b", "s5"),
         ("s5", "a", "s5")], "s0")
    return meet, detour


def test_overlap_pruning_matches_the_first_solver():
    for ts in overlap_systems():
        for net_type in OVERLAP_TYPES:
            for d in range(len(ts.events) + 1):
                assert_atoms_match_first_solver(ts, net_type, d)


@given(small_ts(), st.frozensets(st.sampled_from(INTERACTION_ORDER)),
       st.sampled_from(["inp", "out"]), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_random_overlap_pruning_matches_the_first_solver(ts, rest, changer,
                                                          d):
    assert_atoms_match_first_solver(ts, rest | {changer}, d)


# -- one search per row against each state's first solver --------------------

def assert_rows_match_first_solver(ts, net_type, d):
    """engine._row_finds on each ssp and essp row of the TS, whole and
    without its first state, from every start level, against the first
    valid solving entry of the brute-force candidate list with at least
    start non-nop events, state by state: each find is some state's first
    solver."""
    tree = b.spanning_tree(ts)
    valid = []
    for k, (supinit, sig) in enumerate(
            brute_force_candidates(ts, net_type, d), 1):
        region = b.expand_region(ts, net_type, supinit,
                                 dict(zip(ts.events, sig)), tree)
        if region is not None:
            valid.append((k, len(sig) - sig.count("nop"), region))
    search = _Search(ts, net_type, d)
    index = engine._AtomIndex(ts)
    for kind, i, full in index.open_rows():
        for bits in {full, full & full - 1} - {0}:
            row = kind, i, bits
            atoms = list(index.atoms(row))
            for start in range(d + 2):
                got = {}
                for cand in engine._row_finds(search, row, start):
                    region = search.region(cand)
                    new = [a for a in atoms if a not in got and
                           b.region_solves(region, net_type, a)]
                    case = (sorted(net_type), d, start, str(new))
                    assert new, case
                    got.update(dict.fromkeys(new, (search.rank(cand), region)))
                for atom in atoms:
                    want = next(((k, r) for k, c, r in valid if c >= start and
                                 b.region_solves(r, net_type, atom)), None)
                    assert got.get(atom) == want, (sorted(net_type), d, start,
                                                   str(atom))


def test_row_finds_match_the_first_solver():
    for ts in overlap_systems():
        for net_type in OVERLAP_TYPES:
            for d in range(len(ts.events) + 1):
                assert_rows_match_first_solver(ts, net_type, d)


@given(small_ts(), st.frozensets(st.sampled_from(INTERACTION_ORDER),
                                 min_size=1), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_random_row_finds_match_the_first_solver(ts, net_type, d):
    assert_rows_match_first_solver(ts, net_type, d)


def test_demo_row_finds_match_the_atom_searches(demo_hs):
    # each row solve_drts searches at its switch, against one search per
    # atom, on its one-state row, from the same level
    for construction in ("1.1", "1.2", "1.3"):
        art = b.reduce_instance(construction, demo_hs)
        with mock.patch.object(engine, "_row_finds",
                               wraps=engine._row_finds) as spy:
            b.solve_drts(art.ts, art.default_type, art.d)
        assert spy.call_args_list, construction
        index = engine._AtomIndex(art.ts)
        ts, net_type, d = art.ts, art.default_type, art.d
        for call in spy.call_args_list:
            _, row, start = call.args
            kind, i, bits = row
            finds = engine._row_finds(*call.args)
            first = {}
            for cand in finds:
                for hit in index.hits(cand):
                    if hit[:2] == (kind, i):
                        first.update((a, cand) for a in index.atoms(
                            (kind, i, hit[2] & bits)) if a not in first)
            for atom in index.atoms(row):
                search = _Search(ts, net_type, d, engine._atom_row(ts, atom))
                want = next(search.stream(start), None)
                assert first.get(atom) == want, (construction, str(atom))
            # and no find that is not some atom's first solver
            assert len(set(first.values())) == len(finds), construction


# -- an essp row's search: its leaves, and its pre-valued odometer ----------------

def essp_rows(ts):
    """Each essp row of the TS as a search row: whole, without its lowest
    state, and each of its states alone."""
    for kind, event, full in engine._AtomIndex(ts).open_rows():
        if kind == engine._ESSP:
            parts = {full, full & full - 1} | {
                1 << s for s in range(full.bit_length()) if full >> s & 1}
            for bits in sorted(parts - {0}):
                yield kind, event, bits


def plain_leaves(ts, net_type, d, event, bits):
    """The event subsets an essp row's search must pass to _assignments, in
    canonical order: those of brute_force_candidates that hold the event
    and, once every other event is contracted by a plain union-find, leave
    an open state of the row outside every class with a source of the
    event (or a target, when every partial of the type keeps its value),
    and, when every partial changes it, no class with a source and a
    target. A subset that leaves no event out is not tested."""
    sidx = {s: i for i, s in enumerate(ts.states)}
    edges = [(sidx[u], ts.events.index(e), sidx[v]) for u, e, v in ts.edges]
    sources = {u for u, e, _ in edges if e == event}
    targets = {v for _, e, v in edges if e == event}
    partials = net_type & PARTIAL
    keeps = partials & {"used", "free"}
    fatal = (set(sidx.values()) if not partials else
             sources | targets if keeps == partials else sources)
    row = [s for s in sidx.values() if bits >> s & 1]
    subsets = dict.fromkeys(
        tuple(j for j, i in enumerate(sig) if i != "nop")
        for _, sig in brute_force_candidates(ts, net_type, d))
    leaves = []
    for chosen in subsets:
        if event not in chosen:
            continue
        parent = list(range(len(ts.states)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, e, v in edges:
            if e not in chosen:
                parent[find(u)] = find(v)
        if len(chosen) < len(ts.events):
            walls = {find(s) for s in fatal}
            if all(find(s) in walls for s in row):
                continue
            if (partials and not keeps and
                    {find(s) for s in sources} & {find(t) for t in targets}):
                continue
        leaves.append(chosen)
    return leaves


def assert_row_leaves_match_a_plain_union_find(ts, net_type, d):
    for row in essp_rows(ts):
        search = _Search(ts, net_type, d, row)
        seen = watch_leaves(search, ts)
        for _ in search.stream():
            pass
        assert seen == plain_leaves(ts, net_type, d, *row[1:]), \
            (sorted(net_type), d, row)


ROW_LEAF_TYPES = OVERLAP_TYPES + [TYPE_1, TYPE_ALL]


def test_row_leaves_match_a_plain_union_find():
    for ts in overlap_systems():
        for net_type in ROW_LEAF_TYPES:
            for d in range(4):
                assert_row_leaves_match_a_plain_union_find(ts, net_type, d)


@given(small_ts(), st.sampled_from(ROW_LEAF_TYPES), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_random_row_leaves_match_a_plain_union_find(ts, net_type, d):
    assert_row_leaves_match_a_plain_union_find(ts, net_type, d)


class PlainOdometer(_Search):
    """An essp row's search with nothing pre-valued: the reference for
    _prevalued, whose cuts it leaves to the kill."""

    def _prevalued(self, cands, src, tgt, row_cls):
        return 0, 0


def leaf_yields(search):
    """Each subset the search passes to _assignments, with the candidates
    yielded for it, in order."""
    log = []
    assignments = search._assignments

    def logged(chosen):
        cands = list(assignments(chosen))
        log.append((tuple(chosen), cands))
        return iter(cands)

    search._assignments = logged
    for _ in search.stream():
        pass
    return log


# nothing pre-valued (two partials with different needs), pre-valued only
# where a class holds a source and a target (inp, free), and the two
# one-partial types of the constructions, with swap; then every interaction
PREVALUE_TYPES = [frozenset(t.split(",")) for t in (
    "nop,inp,out", "nop,inp,free", "nop,set,swap,used",
    "nop,inp,res,swap")] + [TYPE_ALL]


def assert_prevalued_matches_plain(ts, net_type, d):
    for row in essp_rows(ts):
        want = leaf_yields(PlainOdometer(ts, net_type, d, row))
        assert leaf_yields(_Search(ts, net_type, d, row)) == want, \
            (sorted(net_type), d, row)


def test_prevalued_odometer_matches_the_plain_one(a3):
    results = []
    prevalued = _Search._prevalued

    def record(*args):
        results.append(prevalued(*args))
        return results[-1]

    inst = b.build_hs_instance(["X1", "X2"], [["X1", "X2"]], 1)
    art = b.reduce_instance("1.3", inst)
    # a reordered odometer puts sig back in order with an itemgetter
    with mock.patch.object(_Search, "_prevalued", autospec=True,
                           side_effect=record), \
            mock.patch.object(engine, "itemgetter",
                              wraps=itemgetter) as reordered:
        for ts in (a3, diamond(), *overlap_systems()):
            for net_type in PREVALUE_TYPES:
                for d in range(min(len(ts.events), 3) + 1):
                    assert_prevalued_matches_plain(ts, net_type, d)
        # the compiled 1.3 leaves positions with one candidate after
        # others; at d=3 it takes seconds
        for d in range(3):
            assert_prevalued_matches_plain(art.ts, art.default_type, d)
    # every outcome of the step is taken: nothing, classes, no solver
    assert {(0, 0), None} < set(results)
    # and some leaf was reordered: its positions moved, not just the same
    assert any(sorted(c.args) == list(range(len(c.args))) != list(c.args)
               for c in reordered.call_args_list)


@given(small_ts(max_states=6, max_events=4), st.sampled_from(PREVALUE_TYPES),
       st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_random_prevalued_odometer_matches_the_plain_one(ts, net_type, d):
    assert_prevalued_matches_plain(ts, net_type, d)


def reference_keep(cands, code):
    """The interactions of cands the per-interaction rule keeps under a
    clash code, over four classes: a source class valued 1 (code bit 0),
    one valued 0 (bit 1), a target class valued 1 (bit 2) and one valued 0
    (bit 3). other[v] holds the classes valued other than v."""
    other = (0b0101, 0b1010)
    src, tgt = code & 0b0011, code & 0b1100
    return tuple(i for i in cands if not any(
        v is not None and ends & other[v]
        for v, ends in zip(engine._RULE[i], (src, tgt))))


def test_keep_table_matches_the_interaction_rule(a3):
    # every type, and every tuple an essp row's search can hold at a
    # position: the type's non-nop interactions, its partials, and those
    # of them that keep their value
    row = next(essp_rows(a3))
    tuples = set()
    for size in range(1, len(INTERACTION_ORDER) + 1):
        for net_type in map(frozenset, combinations(INTERACTION_ORDER, size)):
            search = _Search(a3, net_type, 3, row)
            held = (search.non_nop, search.essp_cands, search.essp_keeps)
            assert set(search.keep) == set(held), sorted(net_type)
            for cands in held:
                assert search.keep[cands] == [reference_keep(cands, code)
                                              for code in range(16)], cands
            tuples.update(held)
    # each subset of the seven non-nop interactions, in canonical order
    assert len(tuples) == 2 ** 7


class FullEdgeSearch(_Search):
    """A search that contracts every edge of the free events, not their
    spanning forests: the reference for the forests."""

    def __init__(self, *args):
        super().__init__(*args)
        self.free_edges = [self.edges_by_event[e] for e in self.free]


def contraction_log(search):
    """Wrap search._contract_range to log each call's range, its verdict
    and every state's class mask after it; returns the log."""
    contract = search._contract_range
    log = []

    def logged(lo, hi):
        ok = contract(lo, hi)
        masks = [search.uf_mask[search._find(s)]
                 for s in range(search.n_states)]
        log.append((lo, hi, ok, masks))
        return ok

    search._contract_range = logged
    return log


def assert_forests_match_full_edges(ts, net_type, d, ssp=True):
    rows = [row for row in engine._AtomIndex(ts).open_rows()
            if ssp or row[0] == engine._ESSP]
    for row in [None, *rows]:
        runs = []
        for kind in (_Search, FullEdgeSearch):
            search = kind(ts, net_type, d, row)
            log = contraction_log(search)
            runs.append((leaf_yields(search), log))
        assert runs[0] == runs[1], (sorted(net_type), d, row)


FOREST_TYPES = OVERLAP_TYPES + PREVALUE_TYPES


def test_forests_match_full_edges():
    meet, detour = overlap_systems()
    inst = b.build_hs_instance(["X1", "X2"], [["X1", "X2"]], 1)
    compiled = [b.reduce_instance(c, inst) for c in ("1.2", "1.3")]
    for ts in (meet, detour):
        for net_type in FOREST_TYPES:
            for d in range(4):
                assert_forests_match_full_edges(ts, net_type, d)
    for art in compiled:
        for d in range(4):
            # their ssp rows barely prune: at d=3 they take seconds
            assert_forests_match_full_edges(art.ts, art.default_type, d,
                                            ssp=d < 3)
    # detour's event a has a self-loop, 1.2 self-loops and 1.3 two-cycles:
    # each forest drops edges there
    for ts in (detour, *(art.ts for art in compiled)):
        search = _Search(ts, TYPE_ALL, 1)
        assert sum(map(len, search.free_edges)) < len(ts.edges)


@given(small_ts(), st.sampled_from(FOREST_TYPES), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_random_forests_match_full_edges(ts, net_type, d):
    assert_forests_match_full_edges(ts, net_type, d)


class ScanSearch(_Search):
    """A search that refuses a class holding a source and a target of an
    inp/out row's event only once the whole range is contracted, by a scan
    of the event's sources: the reference for the refusal at the union.
    The set-up tests each event alone before the scan is set, so those
    tests refuse at the union, as _Search's do."""

    sources: list[int] = []
    targets = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.sources = [u for u in range(self.n_states)
                        if self.src_states >> u & 1]
        self.targets = self.tgt_states
        if self.src_states & self.tgt_states:
            # a state both: the scan refuses every contraction
            self.fatal = self.src_states
        self.src_states = self.tgt_states = 0

    def _contract_range(self, lo, hi):
        return super()._contract_range(lo, hi) and not any(
            self.uf_mask[self._find(u)] & self.targets for u in self.sources)


class ReadLog(list):
    """A list that keeps the last index read from it."""

    last = None

    def __getitem__(self, i):
        self.last = i
        return list.__getitem__(self, i)


def assert_union_refusal_matches_the_scan(ts, net_type, d, early,
                                          parts=True):
    """The stream and each essp row, or with parts False only the whole
    rows, against ScanSearch: the same leaves, the same verdicts, and the
    same classes after each accepted contraction. A refused contraction
    that read no forest past one before the last of its range is appended
    to early."""
    rows = essp_rows(ts) if parts else (
        row for row in engine._AtomIndex(ts).open_rows()
        if row[0] == engine._ESSP)
    for row in [None, *rows]:
        runs = []
        for kind in (_Search, ScanSearch):
            search = kind(ts, net_type, d, row)
            search.free_edges = forests = ReadLog(search.free_edges)
            log = contraction_log(search)
            contract = search._contract_range

            def checked(lo, hi):
                ok = contract(lo, hi)
                if not ok and forests.last < hi - 1:
                    early.append((lo, hi))
                return ok

            search._contract_range = checked
            yields = leaf_yields(search)
            # a refused call may leave part of its range uncontracted
            runs.append((yields, [(lo, hi, ok, ok and masks)
                                  for lo, hi, ok, masks in log]))
        assert runs[0] == runs[1], (sorted(net_type), d, row)


def test_union_refusal_matches_the_scan():
    inst = b.build_hs_instance(["X1", "X2"], [["X1", "X2"]], 1)
    early = []
    for ts in overlap_systems():
        for net_type in OVERLAP_TYPES:
            for d in range(4):
                assert_union_refusal_matches_the_scan(ts, net_type, d, early)
    for construction in ("1.1", "1.4"):
        art = b.reduce_instance(construction, inst)
        for d in range(4):
            # hundreds of one-state rows: whole rows only
            assert_union_refusal_matches_the_scan(art.ts, art.default_type,
                                                  d, early, parts=False)
    # some contraction is refused before it reads its range's last forest
    assert early


@given(small_ts(), st.sampled_from(OVERLAP_TYPES), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_random_union_refusal_matches_the_scan(ts, net_type, d):
    assert_union_refusal_matches_the_scan(ts, net_type, d, [])


# -- events whose forests alone rule a row out, chosen in every subset ---------

class OwnEventSearch(_Search):
    """A row search that forces only an essp row's own event and chooses
    among all the others: the reference for the events forced by their
    forests, which it contracts and refuses instead."""

    def _set_row(self, row):
        super()._set_row(row)
        self.forced = [] if self.forced_event is None else [self.forced_event]
        self.free = [e for e in range(self.n_events) if e not in self.forced]
        self.free_edges = [self.forests[e] for e in self.free]


def rows_and_states(ts, parts=True):
    """Every open ssp and essp row of the TS, whole and, with parts, each of
    its states alone."""
    for kind, i, full in engine._AtomIndex(ts).open_rows():
        yield kind, i, full
        if parts and full & full - 1:
            for s in range(full.bit_length()):
                if full >> s & 1:
                    yield kind, i, 1 << s


def assert_forced_events_match_the_own_event(ts, net_type, d, parts=True):
    """Each row's search against OwnEventSearch's: the same leaf_yields and
    the same _row_finds from every start level, and on each one-state row
    solve_atom's rank is the reference's. Returns how many events were
    forced beyond the rows' own."""
    stream, own = _Search(ts, net_type, d), OwnEventSearch(ts, net_type, d)
    index = engine._AtomIndex(ts)
    extra = 0
    for row in rows_and_states(ts, parts):
        search = stream.row_search(row)
        extra += len(search.forced) - (row[0] == engine._ESSP)
        case = (sorted(net_type), d, row)
        assert leaf_yields(search) == leaf_yields(own.row_search(row)), case
        for start in range(d + 2):
            assert (engine._row_finds(stream, row, start) ==
                    engine._row_finds(own, row, start)), (*case, start)
        if row[2] & row[2] - 1 == 0:
            (atom,) = index.atoms(row)
            stats = b.EnumerationStats()
            b.solve_atom(ts, net_type, d, atom, stats)
            ref = own.row_search(row)
            assert stats.candidates_examined == ref.rank(
                next(ref.stream(), None)), case
    return extra


def test_forced_events_match_the_own_event():
    extra = 0
    for ts in overlap_systems():
        for net_type in ROW_LEAF_TYPES:
            for d in range(len(ts.events) + 1):
                extra += assert_forced_events_match_the_own_event(
                    ts, net_type, d)
    assert extra
    inst = b.build_hs_instance(["X1", "X2"], [["X1", "X2"]], 1)
    for construction, forced in (("1.1", ["k", "o"]),
                                 ("1.2", ["k", "o1", "o2"]),
                                 ("1.3", ["k", "o1", "o2"]),
                                 ("1.4", ["k", "o2"])):
        art = b.reduce_instance(construction, inst)
        ts, net_type = art.ts, art.default_type
        for d in range(3):
            # hundreds of one-state rows: those at d=1 only
            assert_forced_events_match_the_own_event(ts, net_type, d,
                                                     parts=d == 1)
        # the alpha query, whose row forces one or two events beyond k
        row = engine._atom_row(ts, art.alpha)
        search = _Search(ts, net_type, art.d, row)
        assert [ts.events[e] for e in search.forced] == forced, construction
        ref = OwnEventSearch(ts, net_type, art.d, row)
        assert leaf_yields(search) == leaf_yields(ref), construction


@given(small_ts(), st.frozensets(st.sampled_from(INTERACTION_ORDER),
                                 min_size=1), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_random_forced_events_match_the_own_event(ts, net_type, d):
    assert_forced_events_match_the_own_event(ts, net_type, d)


# -- the bitmask assignment kernel against the dict/watch-list search -----------

class DictWatchSearch(_Search):
    """The assignment search the bitmask kernel replaced, kept as its
    reference: per hypothesis a dict of class values, watch lists of the
    constraints whose source class has no value yet, undo trails and a
    recursive generator over positions."""

    def __init__(self, ts, net_type, d, atom=None):
        # the subset search is _Search's, on the atom's one-state row
        super().__init__(ts, net_type, d,
                         None if atom is None else engine._atom_row(ts, atom))
        self.atom = atom
        if isinstance(atom, SspAtom):
            self.atom_s1 = self.state_idx[atom.s1]
            self.atom_s2 = self.state_idx[atom.s2]
        elif isinstance(atom, EsspAtom):
            self.atom_s = self.state_idx[atom.state]

    def _assignments(self, chosen: list[int]) -> Iterator[Candidate]:
        count = len(chosen)
        find = self._find
        itab = {i: (apply(i, 0), apply(i, 1)) for i in INTERACTION_ORDER}

        if count == 0:
            # the all-nop candidates: constant support over one big class
            # (never reached in atom mode: _subset_dfs prunes it)
            for h in (0, 1):
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
                if last:
                    for h in (0, 1):
                        if dead_at[h] is None:
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


def reference_atom(ts, net_type, d, atom):
    """The solving region of the reference search and its yield count."""
    search = DictWatchSearch(ts, net_type, d, atom=atom)
    found = next(search.stream(), None)
    if found is None:
        return None, 0
    return search.region(found), 1


def reference_drain(ts, net_type, d):
    search = DictWatchSearch(ts, net_type, d)
    regions = list(map(search.region, search.stream()))
    return regions, len(regions)


def assert_kernel_matches_reference(ts, net_type, d):
    for atom in b.enumerate_atoms(ts):
        stats = b.EnumerationStats()
        got = b.solve_atom(ts, net_type, d, atom, stats=stats)
        assert (got, stats.valid_regions) == \
            reference_atom(ts, net_type, d, atom), \
            (sorted(net_type), d, str(atom))
    stats = b.EnumerationStats()
    got = stream(ts, net_type, d, stats=stats)
    want, want_valid = reference_drain(ts, net_type, d)
    assert got == want, (sorted(net_type), d)
    assert stats.valid_regions == want_valid


# every interaction among them, swap with and without nop, and nop-free types
KERNEL_TYPES = (TYPE_1, TYPE_0, TYPE_ALL, frozenset({"nop", "swap"}),
                frozenset({"swap"}), frozenset({"set", "swap", "inp"}),
                frozenset({"nop", "out", "res", "free", "used"}))


def test_kernel_matches_dict_watch_reference(a1, a2, a3):
    line = b.build_ts([f"s{i}" for i in range(5)], ["a", "b", "c", "d"],
                      [("s0", "a", "s1"), ("s1", "b", "s2"),
                       ("s2", "a", "s3"), ("s3", "c", "s4"),
                       ("s4", "d", "s0")], "s0")
    # events against the path order: the last position's edge values s1,
    # and two closure rounds over the earlier positions value s2 and s3
    backwards = b.build_ts(["s0", "s1", "s2", "s3"], ["a", "b", "c"],
                           [("s0", "c", "s1"), ("s1", "a", "s2"),
                            ("s2", "b", "s3")], "s0")
    # a swap edge leaving a class that only a constant target values: c's
    # target s2 gets its value at c's position, and the swaps at the earlier
    # positions a and b carry it on to s3 and s4, before d's edge from the
    # initial state reaches s1; a's second edge swaps s4 into s1
    ahead = b.build_ts([f"s{i}" for i in range(5)], ["a", "b", "c", "d"],
                       [("s0", "d", "s1"), ("s1", "c", "s2"),
                        ("s2", "a", "s3"), ("s3", "b", "s4"),
                        ("s4", "a", "s1")], "s0")
    for ts in (a1, a2, a3, diamond(), line, backwards, ahead):
        for net_type in KERNEL_TYPES:
            for d in range(len(ts.events) + 1):
                assert_kernel_matches_reference(ts, net_type, d)


@given(small_ts(max_states=6, max_events=4),
       st.frozensets(st.sampled_from(INTERACTION_ORDER), min_size=1),
       st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_random_kernel_matches_dict_watch_reference(ts, net_type, d):
    assert_kernel_matches_reference(ts, net_type, d)


def test_triangle_t14_counters_are_pinned():
    # construction 1.4 is the main user of swap; the counts of its alpha
    # query on the three pairs of three elements, yes at kappa 2 and no at
    # kappa 1
    pairs = [["X1", "X2"], ["X2", "X3"], ["X1", "X3"]]
    got = []
    for kappa in (2, 1):
        art = b.reduce_instance(
            "1.4", b.build_hs_instance(["X1", "X2", "X3"], pairs, kappa))
        stats = b.EnumerationStats()
        region = b.solve_atom(art.ts, art.default_type, art.d, art.alpha,
                              stats=stats)
        got.append((region is not None, stats.candidates_examined,
                    stats.valid_regions))
    assert got == [(True, 541540232, 1), (False, 488497976, 0)]


# -- candidates_examined is the canonical rank of the answer ---------------------

def assert_counters_are_the_rank(ts, net_type, d):
    order = brute_force_candidates(ts, net_type, d)
    position = {key: k for k, key in enumerate(order, 1)}

    def rank(region):
        return position[(region.support[ts.initial],
                         tuple(region.signature[e] for e in ts.events))]

    case = (sorted(net_type), d)
    atoms = b.enumerate_atoms(ts)
    for atom in atoms:
        stats = b.EnumerationStats()
        region = b.solve_atom(ts, net_type, d, atom, stats=stats)
        want = len(order) if region is None else rank(region)
        assert stats.candidates_examined == want, (case, str(atom))
    outcome = b.solve_drts(ts, net_type, d)
    if not atoms:
        want = 0
    elif outcome.solvable:
        want = rank(outcome.admissible_set[-1])
    else:
        want = len(order)
    assert outcome.stats.candidates_examined == want, case
    # shrinking picks regions after the search, the counter stays
    shrunk = b.solve_drts(ts, net_type, d, shrink=True)
    assert shrunk.stats.candidates_examined == want, case
    stats = b.EnumerationStats()
    for region in b.enumerate_valid_regions(ts, net_type, d, stats=stats):
        assert stats.candidates_examined == rank(region), case
    assert stats.candidates_examined == len(order), case


def test_counters_are_the_canonical_rank(a1, a2, a3):
    atomless = b.build_ts(["s"], ["a"], [("s", "a", "s")], "s")
    for ts in (a1, a2, a3, diamond(), atomless):
        for net_type in KERNEL_TYPES:
            for d in range(len(ts.events) + 1):
                assert_counters_are_the_rank(ts, net_type, d)


@given(small_ts(), st.frozensets(st.sampled_from(INTERACTION_ORDER),
                                 min_size=1), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_random_counters_are_the_canonical_rank(ts, net_type, d):
    assert_counters_are_the_rank(ts, net_type, d)


# -- renaming states and events --------------------------------------------------

def renamed(ts, state, event):
    """ts with its state and event names passed through the two maps."""
    return b.build_ts([state(s) for s in ts.states],
                      [event(e) for e in ts.events],
                      [(state(s), event(e), state(t)) for s, e, t in ts.edges],
                      state(ts.initial))


def atom_image(atom, state, event):
    if isinstance(atom, SspAtom):
        # the pair with the smaller state first, as enumerate_atoms lists it
        return SspAtom(*sorted((state(atom.s1), state(atom.s2))))
    return EsspAtom(event(atom.event), state(atom.state))


def answers(ts, net_type, d, atoms):
    """Each atom's solve_atom region and counters, and the solve_drts outcome."""
    per_atom = []
    for atom in atoms:
        stats = b.EnumerationStats()
        region = b.solve_atom(ts, net_type, d, atom, stats=stats)
        per_atom.append((region, stats.candidates_examined,
                         stats.valid_regions))
    return per_atom, b.solve_drts(ts, net_type, d)


def assert_renaming_invariant(ts, net_type, d):
    atoms = b.enumerate_atoms(ts)
    per_atom, outcome = answers(ts, net_type, d, atoms)

    # prefixing every name keeps the canonical order, so everything stays
    x = "x{}".format

    def image(region):
        return b.Region(
            support={x(s): v for s, v in region.support.items()},
            signature={x(e): i for e, i in region.signature.items()})

    got_atoms, got = answers(renamed(ts, x, x), net_type, d,
                             [atom_image(a, x, x) for a in atoms])
    assert got_atoms == [(None if r is None else image(r), n, v)
                         for r, n, v in per_atom]
    assert got.solvable == outcome.solvable
    assert got.admissible_set == list(map(image, outcome.admissible_set))
    assert list(got.witness_map.items()) == \
        [(atom_image(a, x, x), i) for a, i in outcome.witness_map.items()]
    assert got.unsolved_atoms == [atom_image(a, x, x)
                                  for a in outcome.unsolved_atoms]
    assert (got.stats.candidates_examined, got.stats.valid_regions) == \
        (outcome.stats.candidates_examined, outcome.stats.valid_regions)

    # names in reverse order change the canonical order, not the verdicts
    states = {s: f"q{k}" for k, s in enumerate(reversed(ts.states))}
    events = {e: f"f{k}" for k, e in enumerate(reversed(ts.events))}
    got_atoms, got = answers(
        renamed(ts, states.get, events.get), net_type, d,
        [atom_image(a, states.get, events.get) for a in atoms])
    assert [r is None for r, _, _ in got_atoms] == \
        [r is None for r, _, _ in per_atom]
    assert got.solvable == outcome.solvable
    assert set(got.unsolved_atoms) == {atom_image(a, states.get, events.get)
                                       for a in outcome.unsolved_atoms}


def test_renaming_keeps_answers(a1, a2, a3):
    for ts in (a1, a2, a3, diamond()):
        for net_type in KERNEL_TYPES:
            for d in range(len(ts.events) + 1):
                assert_renaming_invariant(ts, net_type, d)


@given(small_ts(), st.frozensets(st.sampled_from(INTERACTION_ORDER),
                                 min_size=1), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_random_renaming_keeps_answers(ts, net_type, d):
    assert_renaming_invariant(ts, net_type, d)


# -- an independent oracle for {nop, swap} at d >= |E| ---------------------------

NOP_SWAP = frozenset({"nop", "swap"})


def gf2_separable(ts, s1, s2):
    """Under {nop, swap} with no bound, regions are the solutions of
    sup(dst) = sup(src) + [sig(e) = swap] over GF(2), one equation per edge.
    ssp:s1,s2 is solvable unless sup(s1) + sup(s2) lies in the span of the
    equations, found by Gaussian elimination on bitmask rows."""
    var = {x: 1 << i for i, x in enumerate(ts.states + ts.events)}
    basis = {}  # leading bit -> row

    def reduce(row):
        while row and row.bit_length() in basis:
            row ^= basis[row.bit_length()]
        return row

    for src, e, dst in ts.edges:
        row = reduce(var[src] ^ var[dst] ^ var[e])
        if row:
            basis[row.bit_length()] = row
    return reduce(var[s1] ^ var[s2]) != 0


def test_gf2_oracle_on_known_cases(a1):
    assert gf2_separable(a1, "s0", "s1")
    # two a steps swap the support twice or never, so s0 and s2 always
    # share it, while either is separated from s1
    aa = b.build_ts(["s0", "s1", "s2"], ["a"],
                    [("s0", "a", "s1"), ("s1", "a", "s2")], "s0")
    for s1, s2, want in (("s0", "s1", True), ("s0", "s2", False),
                         ("s1", "s2", True)):
        assert gf2_separable(aa, s1, s2) == want
        found = b.solve_atom(aa, NOP_SWAP, 1, SspAtom(s1, s2))
        assert (found is not None) == want


@given(small_ts(max_states=6, max_events=4), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_nop_swap_verdicts_match_the_gf2_oracle(ts, extra):
    d = len(ts.events) + extra
    atoms = b.enumerate_atoms(ts)
    # nop and swap are total, so no event/state pair is ever solved
    want = [not isinstance(a, EsspAtom) and gf2_separable(ts, a.s1, a.s2)
            for a in atoms]
    got = [b.solve_atom(ts, NOP_SWAP, d, a) is not None for a in atoms]
    assert got == want
    outcome = b.solve_drts(ts, NOP_SWAP, d)
    assert outcome.solvable == all(want)
    assert outcome.unsolved_atoms == [a for a, ok in zip(atoms, want) if not ok]
