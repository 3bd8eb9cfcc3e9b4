from itertools import product

import pytest

import bnetsynth as b
from bnetsynth.lineio import ParseError
from bnetsynth.regions import (InvalidRegion, PathImage, diagnose_expansion,
                               parse_region_file, render_region_of)
from bnetsynth.ts import SpanningTree
from conftest import TYPE_0, TYPE_1, brute_force_regions

TYPE_ALL = frozenset(b.INTERACTION_ORDER)
SIG3 = {"a": "used", "b": "swap", "c": "set"}


def region_r1():
    return b.Region(support={"s0": 0, "s1": 1}, signature={"a": "swap"})


def region_r2():
    return b.Region(support={"r0": 0, "r1": 1},
                    signature={"b": "set", "c": "swap"})


def test_expand_propagates_along_chain(a3):
    tree = b.spanning_tree(a3)
    region = b.expand_region(a3, TYPE_1, 1, SIG3, tree)
    assert region is not None
    assert region.support == {"s0": 1, "s1": 1, "s2": 0, "s3": 1}
    ok, bad = b.validate_region(a3, TYPE_1, region)
    assert ok and bad is None


def test_expand_fails_on_undefined_application(a3):
    tree = b.spanning_tree(a3)
    region, bad = diagnose_expansion(a3, TYPE_1, 0, SIG3, tree)
    assert region is None
    assert bad == ("s0", "a", "s1")  # used is undefined at 0


def test_expand_rejects_bad_signatures(a3):
    tree = b.spanning_tree(a3)
    with pytest.raises(InvalidRegion, match="missing event 'c'"):
        b.expand_region(a3, TYPE_1, 1, {"a": "used", "b": "swap"}, tree)
    with pytest.raises(InvalidRegion, match="unknown event 'z'"):
        b.expand_region(a3, TYPE_1, 1, dict(SIG3, z="nop"), tree)
    with pytest.raises(InvalidRegion, match="outside the net type"):
        b.expand_region(a3, TYPE_1, 1, dict(SIG3, a="inp"), tree)
    with pytest.raises(InvalidRegion, match="unknown interaction"):
        b.expand_region(a3, TYPE_1, 1, dict(SIG3, a="flip"), tree)


def test_expand_rejects_an_initial_support_other_than_0_or_1(a1):
    # on a1 the bit reaches interactions.apply, on one state it reaches
    # nothing: both are malformed input, not an inconsistent signature
    swap = frozenset({"nop", "swap"})
    with pytest.raises(InvalidRegion, match="support maps 's0' to 2, not 0 or 1"):
        b.expand_region(a1, swap, 2, {"a": "swap"}, b.spanning_tree(a1))
    one = b.build_ts(["s"], [], [], "s")
    with pytest.raises(InvalidRegion, match="support maps 's' to 2, not 0 or 1"):
        b.expand_region(one, frozenset({"nop"}), 2, {}, b.spanning_tree(one))


def test_expand_example_regions(a1, a2):
    r1 = b.expand_region(a1, frozenset({"nop", "inp", "swap"}), 0,
                         {"a": "swap"}, b.spanning_tree(a1))
    assert r1 == region_r1()
    r2 = b.expand_region(a2, TYPE_1, 0, {"b": "set", "c": "swap"},
                         b.spanning_tree(a2))
    assert r2 == region_r2()


def test_validate_reports_first_violation(a1):
    flipped = b.Region(support={"s0": 0, "s1": 0}, signature={"a": "swap"})
    ok, bad = b.validate_region(a1, TYPE_1, flipped)
    assert not ok
    assert bad == ("s0", "a", "s1")


def test_validate_rejects_partial_regions(a2):
    with pytest.raises(InvalidRegion, match="support missing state 'r1'"):
        b.validate_region(a2, TYPE_1, b.Region({"r0": 0}, {"b": "nop", "c": "nop"}))
    with pytest.raises(InvalidRegion, match="signature missing event 'c'"):
        b.validate_region(a2, TYPE_1, b.Region({"r0": 0, "r1": 0}, {"b": "nop"}))
    with pytest.raises(InvalidRegion, match="outside the net type"):
        b.validate_region(a2, frozenset({"nop"}), region_r2())
    with pytest.raises(InvalidRegion, match="support maps 'r1' to 2, not 0 or 1"):
        b.validate_region(a2, TYPE_1, b.Region({"r0": 0, "r1": 2},
                                               region_r2().signature))


def test_validate_and_expand_share_the_signature_check(a1):
    # a malformed signature is rejected with the same message whether it
    # comes inside an explicit region or as the input of an expansion
    net_type = frozenset({"nop", "set", "swap"})
    for sig, message in (({"a": "swap", "zz": "set"}, "unknown event 'zz'"),
                         ({"a": "flip"}, "unknown interaction 'flip'")):
        with pytest.raises(InvalidRegion, match=message) as explicit:
            b.validate_region(a1, net_type, b.Region({"s0": 0, "s1": 1}, sig))
        with pytest.raises(InvalidRegion, match=message) as implicit:
            b.expand_region(a1, net_type, 0, sig, b.spanning_tree(a1))
        assert str(explicit.value) == str(implicit.value)


def test_restriction_count(a1):
    assert b.restriction_count(region_r1()) == 1
    assert b.restriction_count(region_r2()) == 2
    allnop = b.Region({"s0": 0, "s1": 0}, {"a": "nop"})
    assert b.restriction_count(allnop) == 0


def test_implicit_form(a2):
    assert b.implicit_form(region_r2(), a2) == (0, (("b", "set"), ("c", "swap")))


def test_image_of_path(a3):
    region = b.expand_region(a3, TYPE_1, 1, SIG3, b.spanning_tree(a3))
    image = b.image_of_path(region, a3.edges)
    assert image == PathImage(supports=(1, 1, 0, 1),
                              interactions=("used", "swap", "set"))
    assert str(image) == "1 -used-> 1 -swap-> 0 -set-> 1"
    assert image.steps() == [(1, "used"), (1, "swap"), (0, "set"), (1, None)]


def test_image_of_empty_path(a3):
    region = b.expand_region(a3, TYPE_1, 1, SIG3, b.spanning_tree(a3))
    image = b.image_of_path(region, [], at="s2")
    assert image.supports == (0,)
    assert str(image) == "0"
    with pytest.raises(ValueError, match="anchoring state"):
        b.image_of_path(region, [])


def test_image_of_allnop_signature_is_constant(a3):
    region = b.Region({s: 1 for s in a3.states}, {e: "nop" for e in a3.events})
    image = b.image_of_path(region, a3.edges)
    assert image.supports == (1, 1, 1, 1)


def test_image_of_path_rejects_bad_paths(a3):
    region = b.expand_region(a3, TYPE_1, 1, SIG3, b.spanning_tree(a3))
    with pytest.raises(ValueError, match="disconnected path"):
        b.image_of_path(region, [a3.edges[0], a3.edges[2]])
    with pytest.raises(ValueError, match="unknown state 'q'"):
        b.image_of_path(region, [("q", "a", "s1")])
    with pytest.raises(ValueError, match="unknown event 'z'"):
        b.image_of_path(region, [("s0", "z", "s1")])


def test_solves_ssp(a1):
    assert b.solves_ssp(region_r1(), "s0", "s1")
    assert not b.solves_ssp(b.Region({"s0": 0, "s1": 0}, {"a": "nop"}),
                            "s0", "s1")
    with pytest.raises(ValueError, match="not a separation problem"):
        b.solves_ssp(region_r1(), "s0", "s0")


def test_solves_essp():
    r = b.Region({"s": 0, "t": 1}, {"e": "inp", "f": "nop", "g": "free"})
    t = frozenset({"nop", "inp", "free"})
    assert b.solves_essp(r, t, "e", "s")  # inp undefined at 0
    assert not b.solves_essp(r, t, "e", "t")
    assert b.solves_essp(r, t, "g", "t")  # free undefined at 1
    assert not b.solves_essp(r, t, "f", "s")  # nop is total
    with pytest.raises(InvalidRegion, match="outside the net type"):
        b.solves_essp(r, frozenset({"nop"}), "e", "s")


def test_essp_solving_signature_is_partial(a2):
    # enumerate every expandable signature and compare against the table
    tree = b.spanning_tree(a2)
    for supinit, bi, ci in product((0, 1), sorted(TYPE_1), sorted(TYPE_1)):
        region = b.expand_region(a2, TYPE_1, supinit, {"b": bi, "c": ci}, tree)
        if region is None:
            continue
        for event, state in (("b", "r1"), ("c", "r0")):
            if b.solves_essp(region, TYPE_1, event, state):
                assert region.signature[event] in b.PARTIAL


def test_a2_atoms_unsolvable_under_type1(a2):
    regions = brute_force_regions(a2, TYPE_1)
    assert regions  # plenty of valid regions exist ...
    for region in regions:  # ... but none separates these two atoms
        assert not b.solves_essp(region, TYPE_1, "b", "r1")
        assert not b.solves_essp(region, TYPE_1, "c", "r0")


def test_a1_states_unsolvable_under_type0(a1):
    for region in brute_force_regions(a1, TYPE_0):
        assert not b.solves_ssp(region, "s0", "s1")


# -- spanning-tree independence ----------------------------------------------

DIAMOND_EDGES = [("s0", "a", "s1"), ("s0", "b", "s2"),
                 ("s1", "c", "s3"), ("s2", "a", "s3")]


def diamond():
    return b.build_ts(["s0", "s1", "s2", "s3"], ["a", "b", "c"],
                      DIAMOND_EDGES, "s0")


def test_expansion_is_tree_independent():
    ts = diamond()
    trees = [
        b.spanning_tree(ts),  # reaches s3 through (s1, c)
        SpanningTree(root="s0", order=("s0", "s1", "s2", "s3"),
                     parent={"s1": ("s0", "a"), "s2": ("s0", "b"),
                             "s3": ("s2", "a")}),
        SpanningTree(root="s0", order=("s0", "s1", "s3", "s2"),
                     parent={"s1": ("s0", "a"), "s3": ("s1", "c"),
                             "s2": ("s0", "b")}),
    ]
    assert trees[0].parent["s3"] == ("s1", "c")
    net_type = frozenset({"nop", "set", "swap", "inp"})
    for supinit in (0, 1):
        for sigs in product(sorted(net_type), repeat=3):
            sig = dict(zip(ts.events, sigs))
            results = [b.expand_region(ts, net_type, supinit, sig, t)
                       for t in trees]
            assert results[0] == results[1] == results[2]


def test_validate_accepts_exactly_the_expansions(a1, a2, a3):
    # an explicit region is valid iff expanding its initial bit and its
    # signature gives back that very region
    for ts in (a1, a2, a3, diamond()):
        tree = b.spanning_tree(ts)
        for sigs in product(b.INTERACTION_ORDER, repeat=len(ts.events)):
            sig = dict(zip(ts.events, sigs))
            expanded = [b.expand_region(ts, TYPE_ALL, v, sig, tree)
                        for v in (0, 1)]
            for bits in product((0, 1), repeat=len(ts.states)):
                region = b.Region(dict(zip(ts.states, bits)), sig)
                ok, bad = b.validate_region(ts, TYPE_ALL, region)
                assert ok == (expanded[region.support[ts.initial]] == region)
                assert (bad is None) == ok


def test_expansion_alone_does_not_imply_validity():
    # propagation can succeed along the tree yet fail on a chord
    ts = diamond()
    tree = b.spanning_tree(ts)
    sig = {"a": "set", "b": "set", "c": "set"}
    region, bad = diagnose_expansion(ts, frozenset({"nop", "set", "res"}),
                                     0, dict(sig, c="res"), tree)
    assert region is None
    assert bad == ("s2", "a", "s3")  # chord disagrees: set(1)=1 but sup(s3)=0


# -- file format ---------------------------------------------------------------

def test_region_roundtrip(a2):
    text = render_region_of(region_r2(), a2)
    assert text == ".model region\n.supinit 0\n.sig b set\n.sig c swap\n"
    supinit, sig = b.parse_region(text)
    region = b.expand_region(a2, TYPE_1, supinit, sig, b.spanning_tree(a2))
    assert region == region_r2()


def test_render_region_drops_nop_entries():
    assert b.render_region(1, {"a": "nop", "b": "used"}) == (
        ".model region\n.supinit 1\n.sig b used\n")


def test_parse_region_file_multiblock():
    text = (".model region\n.supinit 0\n.sig a swap\n"
            ".model region\n.supinit 1\n")
    blocks = parse_region_file(text)
    assert blocks == [(0, {"a": "swap"}), (1, {})]
    with pytest.raises(ParseError, match="exactly one region block"):
        b.parse_region(text)


def test_parse_region_errors():
    with pytest.raises(ParseError, match="missing .supinit"):
        b.parse_region(".model region\n.sig a swap\n")
    with pytest.raises(ParseError, match="duplicate .supinit"):
        b.parse_region(".model region\n.supinit 0\n.supinit 1\n")
    with pytest.raises(ParseError, match=".supinit takes 0 or 1"):
        b.parse_region(".model region\n.supinit 2\n")
    with pytest.raises(ParseError, match="duplicate .sig for 'a'"):
        b.parse_region(".model region\n.supinit 0\n.sig a swap\n.sig a set\n")
    with pytest.raises(ParseError, match="unknown interaction 'flip'"):
        b.parse_region(".model region\n.supinit 0\n.sig a flip\n")
    with pytest.raises(ParseError, match="unknown directive"):
        b.parse_region(".model region\n.supinit 0\n.support s 1\n")
