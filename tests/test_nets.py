import pytest

import bnetsynth as b
from bnetsynth.lineio import ParseError
from bnetsynth.nets import InvalidNet, marking_id
from conftest import budget

SWAP3 = dict(
    places=["p0", "p1", "p2"],
    transitions=["t0", "t1", "t2"],
    net_type=frozenset({"nop", "swap"}),
    flow={("p0", "t0"): "swap", ("p1", "t1"): "swap", ("p2", "t2"): "swap"},
    initial_marking={"p0": 0, "p1": 0, "p2": 0},
)


def test_fire_steps_example_net(demo_net):
    net = demo_net
    m1 = net.initial_marking
    assert m1 == {"R_1": 1, "R_2": 0}
    m2 = b.fire(net, m1, "a")
    assert m2 == {"R_1": 0, "R_2": 1}
    assert b.fire(net, m1, "b") is None  # inp undefined on an empty place
    m3 = b.fire(net, m2, "b")
    assert m3 == {"R_1": 0, "R_2": 0}
    assert b.fire(net, m3, "a") is None
    assert b.fire(net, m3, "b") is None
    with pytest.raises(InvalidNet, match="unknown transition"):
        b.fire(net, m1, "z")


def test_reachability_graph_of_example_net(demo_net):
    rg = b.reachability_graph(demo_net)
    assert rg.initial == "m10"
    assert rg.states == ("m00", "m01", "m10")
    assert rg.events == ("a", "b")
    assert rg.edges == (("m01", "b", "m00"), ("m10", "a", "m01"))
    # the same shape as the three-state chain it was drawn from
    chain = b.build_ts(["x", "y", "z"], ["a", "b"],
                       [("x", "a", "y"), ("y", "b", "z")], "x")
    assert b.isomorphic(chain, rg) == {"x": "m10", "y": "m01", "z": "m00"}


def test_dependency_numbers(demo_net):
    assert b.dependency_by_place(demo_net) == {"R_1": 1, "R_2": 2}
    assert b.dependency_number(demo_net) == 2


def test_dependency_number_of_flowless_net():
    net = b.build_net(["p"], ["t"], frozenset({"nop"}), {}, {"p": 0})
    assert b.dependency_number(net) == 0


def test_marking_id_uses_sorted_place_order():
    net = b.build_net(["b", "a"], ["t"], frozenset({"nop"}), {},
                      {"a": 1, "b": 0})
    assert net.places == ("a", "b")
    assert marking_id(net, {"a": 1, "b": 0}) == "m10"


def test_reachability_cap():
    net = b.build_net(**SWAP3)
    rg = b.reachability_graph(net, cap=8)
    assert len(rg.states) == 8
    with pytest.raises(InvalidNet, match="exceeds cap of 4"):
        b.reachability_graph(net, cap=4)


def test_reachability_cap_counts_the_initial_marking():
    # t never fires: inp needs a token that p never holds
    net = b.build_net(["p"], ["t"], frozenset({"nop", "inp"}),
                      {("p", "t"): "inp"}, {"p": 0})
    rg = b.reachability_graph(net, cap=1)
    assert (rg.states, rg.events, rg.edges) == (("m0",), (), ())
    for cap in (0, -4):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            b.reachability_graph(net, cap=cap)


def test_reachability_drops_dead_transitions():
    # u can never fire: its only non-nop entry needs a token that never arrives
    net = b.build_net(["p", "q"], ["t", "u"], frozenset({"nop", "swap", "used"}),
                      {("p", "t"): "swap", ("q", "u"): "used"},
                      {"p": 0, "q": 0})
    rg = b.reachability_graph(net)
    assert rg.events == ("t",)
    assert rg.states == ("m00", "m10")


def test_build_net_validation():
    with pytest.raises(InvalidNet, match="net type is empty"):
        b.build_net(["p"], ["t"], frozenset(), {}, {"p": 0})
    with pytest.raises(InvalidNet, match="unknown interaction 'flip'"):
        b.build_net(["p"], ["t"], frozenset({"flip"}), {}, {"p": 0})
    with pytest.raises(InvalidNet, match="undeclared place 'q'"):
        b.build_net(["p"], ["t"], frozenset({"nop", "set"}),
                    {("q", "t"): "set"}, {"p": 0})
    with pytest.raises(InvalidNet, match="undeclared transition 'u'"):
        b.build_net(["p"], ["t"], frozenset({"nop", "set"}),
                    {("p", "u"): "set"}, {"p": 0})
    with pytest.raises(InvalidNet, match="outside the net type"):
        b.build_net(["p"], ["t"], frozenset({"nop", "set"}),
                    {("p", "t"): "res"}, {"p": 0})
    with pytest.raises(InvalidNet, match="missing place 'p'"):
        b.build_net(["p"], ["t"], frozenset({"nop"}), {}, {})
    with pytest.raises(InvalidNet, match="must be 0 or 1"):
        b.build_net(["p"], ["t"], frozenset({"nop"}), {}, {"p": 2})


def test_build_net_checks_many_places_within_budget():
    # one flow entry per place: each check is a set lookup, not a scan of
    # the place list
    places = [f"p{i:05d}" for i in range(20000)]
    flow = {(p, "t"): "inp" for p in places}
    with budget(0.5):
        net = b.build_net(places, ["t"], frozenset({"nop", "inp"}), flow,
                          dict.fromkeys(places, 1))
    assert net.places == tuple(places)
    assert net.transitions == ("t",)
    assert len(net.flow) == 20000


def test_sparse_flow_requires_nop():
    with pytest.raises(InvalidNet, match="nop is not in the net type"):
        b.build_net(["p", "q"], ["t"], frozenset({"swap"}),
                    {("p", "t"): "swap"}, {"p": 0, "q": 0})
    # a total flow needs no nop
    net = b.build_net(["p"], ["t"], frozenset({"swap"}),
                      {("p", "t"): "swap"}, {"p": 0})
    assert net.flow_at("p", "t") == "swap"


def test_explicit_nop_entries_are_normalized_away():
    net = b.build_net(["p"], ["t"], frozenset({"nop", "set"}),
                      {("p", "t"): "nop"}, {"p": 1})
    assert net.flow == {}
    assert net.flow_at("p", "t") == "nop"


def test_net_file_roundtrip(demo_net, tmp_path):
    path = tmp_path / "ex.net"
    b.write_net(str(path), demo_net)
    back = b.read_net(str(path))
    assert back == demo_net
    # rendering is a fixed point
    assert b.render_net(back) == b.render_net(demo_net)


def test_render_net_bytes(demo_net):
    assert b.render_net(demo_net) == (
        ".model bnet\n"
        ".type nop,inp,swap\n"
        ".place R_1 1\n"
        ".place R_2 0\n"
        ".transition a\n"
        ".transition b\n"
        ".flow R_1 a inp\n"
        ".flow R_2 a swap\n"
        ".flow R_2 b inp\n"
    )


def test_parse_net_errors():
    head = ".model bnet\n.type nop,set\n"
    with pytest.raises(ParseError, match="expected '.model bnet'"):
        b.parse_net(".model ts\n")
    with pytest.raises(ParseError, match="missing .type"):
        b.parse_net(".model bnet\n.place p 0\n")
    with pytest.raises(ParseError, match="duplicate .type"):
        b.parse_net(head + ".type nop\n")
    with pytest.raises(ParseError, match=".place takes"):
        b.parse_net(head + ".place p 2\n")
    with pytest.raises(ParseError, match="duplicate place"):
        b.parse_net(head + ".place p 0\n.place p 1\n")
    with pytest.raises(ParseError, match="duplicate flow"):
        b.parse_net(head + ".place p 0\n.transition t\n"
                    ".flow p t set\n.flow p t set\n")
    with pytest.raises(ParseError, match="unknown directive"):
        b.parse_net(head + ".marking p 1\n")
