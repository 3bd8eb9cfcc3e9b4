"""End-to-end acceptance gate: one test per shipped guarantee.

Each test re-derives its expected values from first principles (brute-force
reference searches, frozen golden files, closed-form counts) and enforces an
explicit wall-clock budget, so a regression in either behavior or asymptotics
shows up as exactly one failing line.
"""

import itertools
from pathlib import Path

import pytest

import bnetsynth as b
from bnetsynth.cli import main
from bnetsynth.ts import SpanningTree
from conftest import TYPE_0, TYPE_1, brute_force_regions, budget

GOLDEN = Path(__file__).parent / "golden"

TYPE_ALL = frozenset(b.INTERACTION_ORDER)


def test_criterion_01_interaction_table():
    table = {
        ("nop", 0): 0, ("nop", 1): 1,
        ("inp", 0): None, ("inp", 1): 0,
        ("out", 0): 1, ("out", 1): None,
        ("set", 0): 1, ("set", 1): 1,
        ("res", 0): 0, ("res", 1): 0,
        ("swap", 0): 1, ("swap", 1): 0,
        ("used", 0): None, ("used", 1): 1,
        ("free", 0): 0, ("free", 1): None,
    }
    with budget(1.0):
        assert b.INTERACTION_ORDER == ("nop", "inp", "out", "set",
                                       "res", "swap", "used", "free")
        for (interaction, value), want in table.items():
            assert b.apply(interaction, value) == want, (interaction, value)
        assert b.TOTAL == frozenset({"nop", "set", "res", "swap"})
        assert b.PARTIAL == frozenset({"inp", "out", "used", "free"})


def test_criterion_02_reachability_and_dependency(demo_net):
    with budget(1.0):
        rg = b.reachability_graph(demo_net)
        assert rg.states == ("m00", "m01", "m10")
        assert rg.initial == "m10"
        assert set(rg.edges) == {("m10", "a", "m01"), ("m01", "b", "m00")}
        assert b.dependency_by_place(demo_net) == {"R_1": 1, "R_2": 2}
        assert b.dependency_number(demo_net) == 2


def test_criterion_03_small_ts_verdicts(a1, a2, a1_net_golden):
    with budget(1.0):
        # the two-state cycle is 1-solvable over TYPE_1 by a single region,
        # and the synthesized net round-trips
        outcome = b.solve_drts(a1, TYPE_1, 1)
        assert outcome.solvable
        assert len(outcome.admissible_set) == 1
        net = b.synthesize_net(a1, outcome.admissible_set, TYPE_1)
        assert b.render_net(net) == a1_net_golden
        assert b.verify_lemma1(a1, net)

        # over TYPE_0 the opposite verdict, citing the state pair
        outcome = b.solve_drts(a1, TYPE_0, 1)
        assert not outcome.solvable
        assert [str(atom) for atom in outcome.unsolved_atoms] == ["ssp:s0,s1"]

        # the b-c cycle is unsolvable over TYPE_1, citing both event atoms
        outcome = b.solve_drts(a2, TYPE_1, 2)
        assert not outcome.solvable
        assert {str(atom) for atom in outcome.unsolved_atoms} == \
            {"essp:b,r1", "essp:c,r0"}

        # exhaustively: no TYPE_0 region at all solves any atom of it
        atoms = b.enumerate_atoms(a2)
        assert atoms
        for region in b.enumerate_valid_regions(a2, TYPE_0, len(a2.events)):
            assert not any(b.region_solves(region, TYPE_0, atom)
                           for atom in atoms)


def test_criterion_04_region_expansion_and_path_image(a3):
    sig = {"a": "used", "b": "swap", "c": "set"}
    path = [("s0", "a", "s1"), ("s1", "b", "s2"), ("s2", "c", "s3")]
    with budget(1.0):
        region = b.expand_region(a3, TYPE_1, 1, sig, b.spanning_tree(a3))
        assert region is not None
        ok, violation = b.validate_region(a3, TYPE_1, region)
        assert ok and violation is None
        assert tuple(region.support[s] for s in a3.states) == (1, 1, 0, 1)

        image = b.image_of_path(region, path)
        assert image.supports == (1, 1, 0, 1)
        assert image.interactions == ("used", "swap", "set")
        assert str(image) == "1 -used-> 1 -swap-> 0 -set-> 1"


def test_criterion_05_reduction_cli_atom_matches_hs_oracle(demo_hs, tmp_path):
    with budget(60.0):
        art = b.reduce_t11(demo_hs)
        assert len(art.ts.states) == 35
        assert len(art.ts.events) == 16
        assert len(art.ts.edges) == 34
        assert art.d == 4
        assert str(art.alpha) == "essp:k,h_2"
        assert art.default_type == frozenset({"nop", "inp", "set"})

        ts_path = tmp_path / "t11.ts"
        b.write_ts(str(ts_path), art.ts)
        argv = ["atom", "--ts", str(ts_path), "--type", "nop,inp,set",
                "--atom", "essp:k,h_2"]
        assert main(argv + ["--d", "4"]) == 0
        assert main(argv + ["--d", "3"]) == 1

        # the query agrees with the brute-force hitting-set oracle
        hitting_set = b.hs_brute_force(demo_hs)
        assert hitting_set is not None
        assert b.is_hitting_set(demo_hs, hitting_set)
        assert b.is_hitting_set(demo_hs, ["X1", "X3"])
        tight = b.build_hs_instance(demo_hs.universe, demo_hs.sets, 1)
        assert b.hs_brute_force(tight) is None


@pytest.mark.slow
def test_criterion_06_full_synthesis_yes_and_no(demo_hs):
    # YES: with budget 3 the compiled system is solvable outright, and the
    # synthesized net generates the input back
    roomy = b.build_hs_instance(demo_hs.universe, demo_hs.sets, 3)
    art = b.reduce_t11(roomy)
    assert art.d == 5
    with budget(300.0):
        outcome = b.solve_drts(art.ts, art.default_type, art.d)
        assert outcome.solvable
        net = b.synthesize_net(art.ts, outcome.admissible_set,
                               art.default_type)
        assert b.verify_lemma1(art.ts, net)

    # NO: four pairwise-disjoint pairs need four elements, so budget 3 must
    # come back unsolvable with the compiled atom among the unsolved ones
    universe = [f"X{i}" for i in range(1, 9)]
    pairs = [["X1", "X2"], ["X3", "X4"], ["X5", "X6"], ["X7", "X8"]]
    art = b.reduce_t11(b.build_hs_instance(universe, pairs, 3))
    with budget(300.0):
        outcome = b.solve_drts(art.ts, art.default_type, art.d)
        assert not outcome.solvable
        assert art.alpha in outcome.unsolved_atoms


def test_criterion_07_explicit_witness_regions(demo_hs):
    expected_rc = {"1.1": 4, "1.2": 6, "1.3": 6, "1.4": 6}
    with budget(5.0):
        for construction, rc in expected_rc.items():
            art = b.reduce_instance(construction, demo_hs)
            witness = b.alpha_witness_region(construction, art, ("X1", "X3"))
            ok, violation = b.validate_region(art.ts, art.default_type,
                                              witness)
            assert ok and violation is None, construction
            assert b.region_solves(witness, art.default_type, art.alpha), \
                construction
            assert b.restriction_count(witness) == rc, construction


def test_criterion_08_reduction_metadata_golden(demo_hs):
    golden = (GOLDEN / "demo_t14_meta.txt").read_text(encoding="utf-8")
    with budget(1.0):
        assert b.render_meta(b.reduce_t14(demo_hs)) == golden


@pytest.mark.slow
def test_criterion_09_random_corpus_agreement(hs_corpus):
    with budget(600.0):
        for construction in ("1.1", "1.2", "1.3", "1.4"):
            for inst, hitting_set in hs_corpus:
                art = b.reduce_instance(construction, inst)
                region = b.solve_atom(art.ts, art.default_type, art.d,
                                      art.alpha)
                assert (region is None) == (hitting_set is None), \
                    (construction, inst.universe, inst.sets, inst.kappa)


@pytest.mark.slow
def test_criterion_10_engine_properties(a1, a2, a3, demo_hs):
    diamond = b.build_ts(
        ["s0", "s1", "s2", "s3"], ["a", "b", "c"],
        [("s0", "a", "s1"), ("s0", "b", "s2"),
         ("s1", "c", "s3"), ("s2", "a", "s3")], "s0")
    tiny = b.reduce_t11(b.build_hs_instance(["X1"], [["X1"]], 1))

    with budget(300.0):
        # (a) the pruned atom search agrees with filtering the exhaustive
        # stream, on every small input
        cases = [(ts, net_type) for ts in (a1, a2, a3, diamond)
                 for net_type in (TYPE_0, TYPE_1, TYPE_ALL)]
        cases.append((tiny.ts, tiny.default_type))
        for ts, net_type in cases:
            assert len(ts.events) <= 12
            for d in range(4):
                for atom in b.enumerate_atoms(ts):
                    want = next(
                        (r for r in b.enumerate_valid_regions(ts, net_type, d)
                         if b.region_solves(r, net_type, atom)), None)
                    assert b.solve_atom(ts, net_type, d, atom) == want

        # (b) solvability is monotone in the bound and in the type
        for ts in (a1, a2, a3):
            for atom in b.enumerate_atoms(ts):
                for net_type in (TYPE_0, TYPE_1, TYPE_ALL):
                    hits = [b.solve_atom(ts, net_type, d, atom) is not None
                            for d in range(len(ts.events) + 2)]
                    for lo, hi in zip(hits, hits[1:]):
                        assert hi or not lo
                for d in range(len(ts.events) + 1):
                    for small in (TYPE_0, TYPE_1):
                        if b.solve_atom(ts, small, d, atom) is not None:
                            assert b.solve_atom(ts, TYPE_ALL, d,
                                                atom) is not None

        # (c) at d = |E| the engine matches the unrestricted reference
        for ts in (a1, a2, a3):
            for net_type in (TYPE_0, TYPE_1, TYPE_ALL):
                reference = brute_force_regions(ts, net_type)
                atoms = b.enumerate_atoms(ts)
                outcome = b.solve_drts(ts, net_type, len(ts.events))
                covered = [any(b.region_solves(r, net_type, atom)
                               for r in reference) for atom in atoms]
                assert outcome.solvable == all(covered)
                for atom, hit in zip(atoms, covered):
                    found = b.solve_atom(ts, net_type, len(ts.events), atom)
                    assert (found is not None) == hit

        # (d) expansion results do not depend on the spanning tree: a
        # five-state double diamond admits four distinct trees
        dd = b.build_ts(
            ["s0", "s1", "s2", "s3", "s4"], ["a", "b", "c"],
            [("s0", "a", "s1"), ("s0", "b", "s2"), ("s1", "c", "s3"),
             ("s2", "a", "s3"), ("s3", "b", "s4"), ("s3", "c", "s4")], "s0")
        order = ("s0", "s1", "s2", "s3", "s4")
        trees = [
            SpanningTree("s0", {"s1": ("s0", "a"), "s2": ("s0", "b"),
                                "s3": via3, "s4": via4}, order)
            for via3 in (("s1", "c"), ("s2", "a"))
            for via4 in (("s3", "b"), ("s3", "c"))
        ]
        assert len(trees) >= 3
        results = []
        for tree in trees:
            forms = set()
            for sup_init in (0, 1):
                for combo in itertools.product(sorted(TYPE_ALL), repeat=3):
                    sig = dict(zip(dd.events, combo))
                    region = b.expand_region(dd, TYPE_ALL, sup_init, sig,
                                             tree)
                    if region is not None and \
                            b.validate_region(dd, TYPE_ALL, region)[0]:
                        forms.add(b.implicit_form(region, dd))
            results.append(forms)
        assert all(forms == results[0] for forms in results[1:])

        # (e) a full drain examines exactly the closed-form count
        art = b.reduce_t11(demo_hs)
        for ts, net_type, d, want in [
            (a2, TYPE_1, 2, 32),
            (art.ts, art.default_type, 3, 9986),
            (art.ts, art.default_type, 4, 68226),
        ]:
            non_nop = len(net_type) - 1
            assert b.candidate_count_formula(len(ts.events), non_nop,
                                             d) == want
            stats = b.EnumerationStats()
            drained = sum(1 for _ in b.enumerate_valid_regions(
                ts, net_type, d, stats=stats))
            assert stats.candidates_examined == want
            assert stats.valid_regions == drained
