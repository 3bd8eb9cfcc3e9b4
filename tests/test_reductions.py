from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnetsynth as b
from bnetsynth.lineio import ParseError
from bnetsynth.reductions import _RESERVED_EVENT, RelevantEntry, _gadget_paths

GOLDEN = Path(__file__).parent / "golden"

EXPECTED_SIZES = {
    "1.1": (35, 16, 34),
    "1.2": (45, 22, 91),
    "1.3": (73, 29, 118),
    "1.4": (105, 64, 104),
}


# -- instances and the brute-force oracle --------------------------------------

def test_build_instance_normalizes_member_order():
    inst = b.build_hs_instance(["X2", "X1"], [["X1", "X2"]], 1)
    assert inst.sets == (("X2", "X1"),)  # ascending universe index
    assert inst.names == ("S1",)


def test_build_instance_validation():
    with pytest.raises(ValueError, match="duplicate universe element"):
        b.build_hs_instance(["X1", "X1"], [], 1)
    with pytest.raises(ValueError, match="kappa must be >= 0"):
        b.build_hs_instance(["X1"], [], -1)
    with pytest.raises(ValueError, match="set S1 is empty"):
        b.build_hs_instance(["X1"], [[]], 1)
    with pytest.raises(ValueError, match="unknown element 'X9'"):
        b.build_hs_instance(["X1"], [["X9"]], 1)
    with pytest.raises(ValueError, match="lists an element twice"):
        b.build_hs_instance(["X1"], [["X1", "X1"]], 1)
    with pytest.raises(ValueError, match="duplicate set name"):
        b.build_hs_instance(["X1"], [["X1"], ["X1"]], 1, names=["S", "S"])
    with pytest.raises(ValueError, match="name count"):
        b.build_hs_instance(["X1"], [["X1"]], 1, names=["A", "B"])


def test_brute_force_on_the_running_instance(demo_hs):
    assert b.hs_brute_force(demo_hs) == ("X1", "X2")
    assert b.is_hitting_set(demo_hs, ("X1", "X2"))
    assert b.is_hitting_set(demo_hs, ("X1", "X3"))
    assert not b.is_hitting_set(demo_hs, ("X2",))
    with pytest.raises(ValueError, match="unknown universe element"):
        b.is_hitting_set(demo_hs, ("X9",))


def test_brute_force_respects_the_budget(demo_hs):
    tight = b.build_hs_instance(demo_hs.universe, demo_hs.sets, 1)
    assert b.hs_brute_force(tight) is None  # no single element hits all four


def test_brute_force_degenerate_instances():
    empty = b.build_hs_instance(["X1"], [], 0)
    assert b.hs_brute_force(empty) == ()
    roomy = b.build_hs_instance(["X1", "X2"], [["X1"], ["X2"]], 5)
    assert b.hs_brute_force(roomy) == ("X1", "X2")


def test_brute_force_ties_follow_universe_order():
    inst = b.build_hs_instance(["Y", "X"], [["Y", "X"]], 1)
    assert b.hs_brute_force(inst) == ("Y",)


# -- generated transition systems ----------------------------------------------

@pytest.mark.parametrize("construction", ["1.1", "1.2", "1.3", "1.4"])
def test_artifact_shape(construction, demo_hs):
    art = b.reduce_instance(construction, demo_hs)
    ts = art.ts
    assert (len(ts.states), len(ts.events), len(ts.edges)) == \
        EXPECTED_SIZES[construction]
    assert ts.initial == "bot_1"
    b.validate_atom(ts, art.alpha)  # alpha is a genuine atom
    assert art.alpha.event == "k"
    assert art.construction == construction
    assert art.instance == demo_hs


def test_reduce_rejects_unknown_construction(demo_hs):
    with pytest.raises(ValueError, match="unknown construction"):
        b.reduce_instance("2.1", demo_hs)


def test_bound_is_linear_in_kappa():
    for kappa in (0, 1, 5):
        inst = b.build_hs_instance(["X1"], [["X1"]], kappa)
        assert b.reduce_t11(inst).d == kappa + 2
        for reduce in (b.reduce_t12, b.reduce_t13, b.reduce_t14):
            assert reduce(inst).d == kappa + 4


def test_reserved_event_names_are_rejected():
    for bad in ("k", "z", "o2", "w3", "theta_1", "a_1_2", "oplus_1.2_1"):
        inst = b.build_hs_instance([bad], [[bad]], 1)
        with pytest.raises(ValueError, match="reserved event names"):
            b.reduce_t11(inst)
    # names merely near the namespace stay usable
    for fine in ("z5", "o3", "wx", "theta", "kk"):
        inst = b.build_hs_instance([fine], [[fine]], 1)
        assert fine in b.reduce_t11(inst).ts.events


def test_t11_structure(demo_hs):
    art = b.reduce_t11(demo_hs)
    assert art.d == 4
    assert str(art.alpha) == "essp:k,h_2"
    assert art.default_type == frozenset({"nop", "inp", "set"})
    edges = set(art.ts.edges)
    # head gadget hangs off the last chain state
    assert {("bot_5", "w5", "h_0"), ("h_0", "k", "h_1"), ("h_1", "z", "h_2"),
            ("h_2", "o", "h_3"), ("h_3", "k", "h_4")} <= edges
    # first member gadget walks k X1 X2 z k
    assert {("bot_1", "w1", "t_1_0"), ("t_1_0", "k", "t_1_1"),
            ("t_1_1", "X1", "t_1_2"), ("t_1_2", "X2", "t_1_3"),
            ("t_1_3", "z", "t_1_4"), ("t_1_4", "k", "t_1_5")} <= edges
    assert ("bot_4", "theta_4", "bot_5") in edges


def test_t11_degenerate_instance():
    inst = b.build_hs_instance(["X1"], [], 1)
    art = b.reduce_t11(inst)
    assert art.ts.states == ("bot_1", "h_0", "h_1", "h_2", "h_3", "h_4")
    assert art.ts.events == ("k", "o", "w1", "z")


def test_t12_every_edge_target_self_loops(demo_hs):
    art = b.reduce_t12(demo_hs)
    assert art.d == 6
    assert str(art.alpha) == "essp:k,h_1_2"
    assert art.default_type == frozenset({"nop", "set", "res", "used"})
    edges = set(art.ts.edges)
    for src, event, dst in edges:
        assert (dst, event, dst) in edges


def test_t12_head_gadgets(demo_hs):
    edges = set(b.reduce_t12(demo_hs).ts.edges)
    assert {("bot_5", "w5", "h_1_0"), ("h_1_0", "k", "h_1_1"),
            ("h_1_1", "o1", "h_1_2"), ("h_1_2", "o2", "h_1_3"),
            ("h_1_3", "k", "h_1_4")} <= edges
    assert {("bot_6", "w6", "h_2_0"), ("h_2_1", "z1", "h_2_2"),
            ("h_2_2", "o1", "h_2_2")} <= edges
    assert {("bot_7", "o1", "h_3_0"), ("h_3_0", "w7", "h_3_0"),
            ("h_3_0", "z2", "h_3_0")} <= edges
    assert ("bot_6", "theta_6", "bot_7") in edges


def test_t13_structure(demo_hs):
    art = b.reduce_t13(demo_hs)
    assert art.d == 6
    assert str(art.alpha) == "essp:k,h_0_3"
    assert art.default_type == frozenset({"nop", "set", "swap", "used"})
    edges = set(art.ts.edges)
    # head edges run both ways
    for a, e, c in (("h_0_1", "k", "h_0_2"), ("h_0_2", "o1", "h_0_3"),
                    ("h_1_2", "z1", "h_1_3")):
        assert (a, e, c) in edges and (c, e, a) in edges
    # member blocks: forward member step, then member and guard shuttles
    for a, e, c in (("t_1_3", "X1", "t_1_4"), ("t_1_4", "X1", "t_1_5"),
                    ("t_1_5", "X1", "t_1_4"), ("t_1_2", "a_1_1", "t_1_3"),
                    ("t_1_5", "a_1_1", "t_1_6")):
        assert (a, e, c) in edges
    # gadget i spans t_i_0 .. t_i_{4 m_i + 4}
    assert "t_1_12" in art.ts.states and "t_1_13" not in art.ts.states
    assert "t_4_16" in art.ts.states and "t_4_17" not in art.ts.states


def test_t13_degenerate_instance():
    inst = b.build_hs_instance(["X1"], [], 2)
    states = set(b.reduce_t13(inst).ts.states)
    assert states == {"bot_1", "bot_2",
                      "h_0_1", "h_0_2", "h_0_3", "h_0_4", "h_0_5",
                      "h_1_1", "h_1_2", "h_1_3", "h_1_4", "h_1_5", "h_1_6"}


def test_relevant_paths_of_the_running_instance(demo_hs):
    assert b.relevant_paths(demo_hs) == [
        RelevantEntry(1, 2, "X2", ((2, 1),)),
        RelevantEntry(1, 3, "z4", ((3, 1), (4, 2))),
        RelevantEntry(2, 2, "X3", ((4, 1),)),
        RelevantEntry(2, 3, "z4", ((1, 1), (3, 2))),
        RelevantEntry(3, 2, "X4", ()),
        RelevantEntry(3, 3, "z4", ((1, 1), (2, 2))),
        RelevantEntry(4, 2, "X3", ((2, 1),)),
        RelevantEntry(4, 3, "X4", ((3, 1),)),
        RelevantEntry(4, 4, "z4", ((1, 1), (2, 2))),
    ]


def test_relevant_paths_vanish_for_identical_gadgets():
    inst = b.build_hs_instance(["X1", "X2"], [["X1", "X2"], ["X1", "X2"]], 1)
    entries = b.relevant_paths(inst)
    assert len(entries) == 4
    assert all(e.sources == () for e in entries)
    # every gadget then degenerates to the q-state bridge
    art = b.reduce_t14(inst)
    assert {("bot_1", "w1", "q_1"), ("q_1", "u1", "t_1_0"),
            ("bot_2", "w2", "q_2")} <= set(art.ts.edges)


def test_t14_structure(demo_hs):
    art = b.reduce_t14(demo_hs)
    assert art.d == 6
    assert str(art.alpha) == "essp:k,h_0_2"
    assert art.default_type == frozenset({"nop", "inp", "res", "swap"})
    edges = set(art.ts.edges)
    # five heads; the first provides the atom, the last walks z1 z4 z2
    assert {("bot_5", "w5", "h_0_0"), ("h_0_0", "k", "h_0_1"),
            ("h_0_1", "o1", "h_0_2"), ("h_0_2", "o2", "h_0_3"),
            ("h_0_3", "k", "h_0_4")} <= edges
    assert {("bot_9", "w9", "h_4_0"), ("h_4_1", "z1", "h_4_2"),
            ("h_4_2", "z4", "h_4_3"), ("h_4_3", "z2", "h_4_4"),
            ("h_4_4", "k", "h_4_5")} <= edges
    # member gadget body: k z3 members z4 k
    assert {("t_4_0", "k", "t_4_1"), ("t_4_1", "z3", "t_4_2"),
            ("t_4_2", "X1", "t_4_3"), ("t_4_3", "X3", "t_4_4"),
            ("t_4_4", "X4", "t_4_5"), ("t_4_5", "z4", "t_4_6"),
            ("t_4_6", "k", "t_4_7")} <= edges


def test_t14_gadget_four_replays_its_two_paths(demo_hs):
    # composition of G_4: w4, path (1,3) at depth 2, connector, path (2,2)
    # at depth 1, then the u4 exit into the member walk
    edges = set(b.reduce_t14(demo_hs).ts.edges)
    assert {("bot_4", "w4", "s_1.3_4_0"),
            ("s_1.3_4_0", "v_1.3_2", "s_1.3_4_1"),
            ("s_1.3_4_1", "oplus_1.3_2", "s_1.3_4_2"),
            ("s_1.3_4_2", "oplus_1.3_1", "s_1.3_4_3"),
            ("s_1.3_4_3", "c_4_1", "s_2.2_4_0"),
            ("s_2.2_4_0", "v_2.2_1", "s_2.2_4_1"),
            ("s_2.2_4_1", "oplus_2.2_1", "s_2.2_4_2"),
            ("s_2.2_4_2", "u4", "t_4_0")} <= edges


def test_t14_connector_counts_match_relevant_paths(demo_hs):
    art = b.reduce_t14(demo_hs)
    per = _gadget_paths(demo_hs)
    assert {g: len(paths) for g, paths in per.items()} == {1: 3, 2: 4,
                                                           3: 3, 4: 2}
    for g, paths in per.items():
        connectors = [e for e in art.ts.events if e.startswith(f"c_{g}_")]
        assert len(connectors) == len(paths) - 1


# -- witness regions -------------------------------------------------------------

@pytest.mark.parametrize("construction,expected_rc",
                         [("1.1", 4), ("1.2", 6), ("1.3", 6), ("1.4", 6)])
@pytest.mark.parametrize("hitting_set", [("X1", "X3"), ("X1", "X2")])
def test_witness_region_solves_alpha(construction, expected_rc, hitting_set,
                                     demo_hs):
    art = b.reduce_instance(construction, demo_hs)
    region = b.alpha_witness_region(construction, art, hitting_set)
    assert b.restriction_count(region) == expected_rc <= art.d
    ok, _ = b.validate_region(art.ts, art.default_type, region)
    assert ok
    assert b.solves_essp(region, art.default_type,
                         art.alpha.event, art.alpha.state)
    assert region.support["bot_1"] == 1


def test_witness_signature_entries(demo_hs):
    art = b.reduce_t11(demo_hs)
    region = b.alpha_witness_region("1.1", art, ("X1", "X3"))
    non_nop = {e: i for e, i in region.signature.items() if i != "nop"}
    assert non_nop == {"k": "inp", "o": "set", "X1": "set", "X3": "set"}


def test_witness_skips_elements_outside_every_set():
    inst = b.build_hs_instance(["X1", "X9"], [["X1"]], 3)
    art = b.reduce_t11(inst)
    region = b.alpha_witness_region("1.1", art, ("X1", "X9"))
    assert "X9" not in region.signature  # labels no event of the TS
    assert b.solves_essp(region, art.default_type, "k", "h_2")


def test_witness_region_errors(demo_hs):
    art11 = b.reduce_t11(demo_hs)
    art14 = b.reduce_t14(demo_hs)
    with pytest.raises(ValueError, match="built by construction 1.4"):
        b.alpha_witness_region("1.1", art14, ("X1", "X3"))
    with pytest.raises(ValueError, match="unknown construction"):
        b.alpha_witness_region("9.9", art11, ("X1", "X3"))
    with pytest.raises(ValueError, match="not a hitting set: misses S3"):
        b.alpha_witness_region("1.1", art11, ("X2",))
    with pytest.raises(ValueError, match="3 elements, kappa is 2"):
        b.alpha_witness_region("1.1", art11, ("X1", "X2", "X3"))
    with pytest.raises(ValueError, match="unknown universe element 'X7'"):
        b.alpha_witness_region("1.1", art11, ("X7",))


def test_published_t12_region_with_the_extra_theta(demo_hs):
    # the seven-entry variant that also resets the last chain event
    art = b.reduce_t12(demo_hs)
    sig = {e: "nop" for e in art.ts.events}
    sig.update(k="used", o2="set", X1="set", X3="set",
               o1="res", z1="res", theta_6="res")
    region = b.expand_region(art.ts, art.default_type, 1, sig,
                             b.spanning_tree(art.ts))
    assert region is not None
    assert b.restriction_count(region) == 7
    assert b.solves_essp(region, art.default_type, "k", "h_1_2")
    # the constructed witness stays within d by dropping that entry
    witness = b.alpha_witness_region("1.2", art, ("X1", "X3"))
    assert witness.signature["theta_6"] == "nop"


def test_t14_snippet_region_validates(demo_hs):
    art = b.reduce_t14(demo_hs)
    sig = {e: "nop" for e in art.ts.events}
    sig.update(X1="inp", z3="swap")
    region = b.expand_region(art.ts, art.default_type, 0, sig,
                             b.spanning_tree(art.ts))
    assert region is not None
    assert region.support["bot_1"] == 0


def test_t12_tiny_instances_match_the_oracle():
    joint = b.build_hs_instance(["X1", "X2"], [["X1", "X2"]], 1)
    split = b.build_hs_instance(["X1", "X2"], [["X1"], ["X2"]], 1)
    assert b.hs_brute_force(joint) is not None
    assert b.hs_brute_force(split) is None
    for inst, expect_region in ((joint, True), (split, False)):
        art = b.reduce_t12(inst)
        found = b.solve_atom(art.ts, art.default_type, art.d, art.alpha)
        assert (found is not None) == expect_region


# -- file formats ----------------------------------------------------------------

def test_hs_file_roundtrip(demo_hs, tmp_path):
    path = tmp_path / "inst.hs"
    b.write_hs(str(path), demo_hs)
    assert path.read_text(encoding="utf-8") == (
        ".model hs\n"
        ".universe X1 X2 X3 X4\n"
        ".set S1 X1 X2\n"
        ".set S2 X2 X3\n"
        ".set S3 X1 X4\n"
        ".set S4 X1 X3 X4\n"
        ".kappa 2\n"
    )
    assert b.read_hs(str(path)) == demo_hs


def test_parse_hs_normalizes_and_validates():
    inst = b.parse_hs(".model hs\n.universe X2 X1\n.set A X1 X2\n.kappa 3\n")
    assert inst.sets == (("X2", "X1"),)
    with pytest.raises(ParseError, match="missing .universe"):
        b.parse_hs(".model hs\n.kappa 1\n")
    with pytest.raises(ParseError, match="missing .kappa"):
        b.parse_hs(".model hs\n.universe X1\n")
    with pytest.raises(ParseError, match="duplicate .kappa"):
        b.parse_hs(".model hs\n.universe X1\n.kappa 1\n.kappa 2\n")
    with pytest.raises(ParseError, match=".kappa needs one integer"):
        b.parse_hs(".model hs\n.universe X1\n.kappa -1\n")
    # ASCII digits only: an Arabic-Indic three and a superscript two are not
    for digit in ("\u0663", "\u00b2"):
        with pytest.raises(ParseError,
                           match="line 3: .kappa needs one integer"):
            b.parse_hs(f".model hs\n.universe X1\n.kappa {digit}\n")
    with pytest.raises(ParseError, match="unknown element"):
        b.parse_hs(".model hs\n.universe X1\n.set A X9\n.kappa 1\n")


def test_meta_golden(demo_hs):
    art = b.reduce_t14(demo_hs)
    golden = (GOLDEN / "demo_t14_meta.txt").read_text(encoding="utf-8")
    assert b.render_meta(art) == golden


def test_meta_for_construction_11(demo_hs):
    lines = b.render_meta(b.reduce_t11(demo_hs)).splitlines()
    assert lines[0:5] == [".model meta", ".construction 1.1", ".d 4",
                          ".alpha essp:k,h_2", ".type nop,inp,set"]
    assert ".event X1 X1" in lines
    assert ".gadget S4 t_4" in lines
    assert not any(l.startswith((".relevant", ".composition")) for l in lines)


def test_meta_marks_unused_elements():
    inst = b.build_hs_instance(["X1", "X9"], [["X1"]], 1)
    lines = b.render_meta(b.reduce_t11(inst)).splitlines()
    assert ".event X9 -" in lines


# -- golden compiled systems -----------------------------------------------------

@pytest.mark.parametrize("construction", ["1.1", "1.2", "1.3", "1.4"])
def test_demo_ts_golden(construction, demo_hs):
    art = b.reduce_instance(construction, demo_hs)
    name = f"demo_t{construction.replace('.', '')}.ts"
    assert b.render_ts(art.ts) == (GOLDEN / name).read_text(encoding="utf-8")


def test_t14_without_replays_golden():
    # two identical gadgets replay no path: each is reached through q_<i>
    inst = b.build_hs_instance(["X1", "X2"], [["X1", "X2"], ["X1", "X2"]], 1)
    art = b.reduce_t14(inst)
    assert b.render_ts(art.ts) == \
        (GOLDEN / "twins_t14.ts").read_text(encoding="utf-8")
    assert b.render_meta(art) == \
        (GOLDEN / "twins_t14_meta.txt").read_text(encoding="utf-8")


# -- the reserved namespace --------------------------------------------------------

# universe names outside the reserved namespace, some of them close to it
FREE_NAMES = ("X1", "X2", "Y", "z5", "o3", "kk", "wx", "theta", "a_1")


@st.composite
def hs_instances(draw):
    universe = draw(st.lists(st.sampled_from(FREE_NAMES), min_size=1,
                             max_size=5, unique=True))
    member_sets = st.lists(st.sampled_from(universe), min_size=1,
                           max_size=len(universe), unique=True)
    sets = draw(st.lists(member_sets, max_size=4))
    return b.build_hs_instance(universe, sets, draw(st.integers(0, 3)))


@given(hs_instances())
@settings(max_examples=150, deadline=None)
def test_generated_events_stay_in_the_reserved_namespace(inst):
    # the no-collision promise of the naming scheme: every event a
    # construction adds to the universe's is one _RESERVED_EVENT rejects
    for construction in ("1.1", "1.2", "1.3", "1.4"):
        art = b.reduce_instance(construction, inst)
        for event in set(art.ts.events) - set(inst.universe):
            assert _RESERVED_EVENT.match(event), (construction, event)
