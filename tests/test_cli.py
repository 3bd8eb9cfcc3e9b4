import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bnetsynth as b
from bnetsynth import cli, engine
from bnetsynth.cli import main
from bnetsynth.regions import render_region_of
from conftest import DEMO_HS, budget

A1_TS = ".model ts\n.initial s0\n.edge s0 a s1\n.edge s1 a s0\n"
A2_TS = ".model ts\n.initial r0\n.edge r0 b r1\n.edge r1 c r0\n"
R1_REGION = ".model region\n.supinit 0\n.sig a swap\n"

A1_REPORT = (
    "verdict solvable\n"
    "atoms 1\n"
    "regions 1\n"
    "atom ssp:s0,s1 region 0\n"
    "region 0\n"
    ".model region\n"
    ".supinit 0\n"
    ".sig a swap\n"
    "candidates_examined=5\n"
    "valid_regions=1\n"
)


@pytest.fixture
def files(tmp_path):
    def put(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return put, tmp_path


def run(*argv):
    return main(list(argv))


def test_synth_solvable(files, capsys, a1_net_golden):
    put, tmp = files
    ts = put("a1.ts", A1_TS)
    code = run("synth", "--ts", ts, "--type", "nop,set,swap,used", "--d", "1",
               "--net", str(tmp / "out.net"),
               "--witnesses", str(tmp / "out.wit"),
               "--report", str(tmp / "out.rep"))
    assert code == 0
    assert capsys.readouterr().out == "solvable\n"
    assert (tmp / "out.net").read_text(encoding="utf-8") == a1_net_golden
    assert (tmp / "out.wit").read_text(encoding="utf-8") == \
        "# region 0\n" + R1_REGION
    assert (tmp / "out.rep").read_text(encoding="utf-8") == A1_REPORT


def test_synth_unsolvable(files, capsys):
    put, tmp = files
    ts = put("a2.ts", A2_TS)
    code = run("synth", "--ts", ts, "--type", "nop,set,swap,used", "--d", "2",
               "--net", str(tmp / "never.net"), "--report", str(tmp / "r.rep"))
    assert code == 1
    out = capsys.readouterr().out
    assert out == "unsolvable\nunsolved essp:b,r1\nunsolved essp:c,r0\n"
    assert not (tmp / "never.net").exists()
    report = (tmp / "r.rep").read_text(encoding="utf-8")
    assert report.startswith("verdict unsolvable\natoms 3\n")
    assert "atom essp:b,r1 unsolved" in report
    assert "candidates_examined=32" in report


def test_synth_stats_format(files, capsys):
    put, _ = files
    ts = put("a1.ts", A1_TS)
    code = run("synth", "--ts", ts, "--type", "nop,swap", "--d", "1",
               "--stats")
    assert code == 0
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"candidates_examined=\d+\nvalid_regions=\d+\nelapsed=\d+\.\d\d\d\n",
        err)


def test_synth_is_byte_deterministic(files, capsys):
    put, tmp = files
    ts = put("a2.ts", A2_TS)
    seen = []
    for tag in ("x", "y"):
        code = run("synth", "--ts", ts, "--type", "nop,inp,out,set,res,swap,"
                   "used,free", "--d", "2",
                   "--net", str(tmp / f"{tag}.net"),
                   "--witnesses", str(tmp / f"{tag}.wit"),
                   "--report", str(tmp / f"{tag}.rep"))
        assert code == 0
        seen.append((capsys.readouterr().out,
                     (tmp / f"{tag}.net").read_bytes(),
                     (tmp / f"{tag}.wit").read_bytes(),
                     (tmp / f"{tag}.rep").read_bytes()))
    assert seen[0] == seen[1]


def test_atom_yes(files, capsys):
    put, _ = files
    ts = put("a1.ts", A1_TS)
    code = run("atom", "--ts", ts, "--type", "nop,set,swap,used", "--d", "1",
               "--atom", "ssp:s0,s1", "--stats")
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == R1_REGION
    assert captured.err.startswith("candidates_examined=")


def test_atom_no(files, capsys):
    put, _ = files
    ts = put("a2.ts", A2_TS)
    code = run("atom", "--ts", ts, "--type", "nop,set,swap,used", "--d", "2",
               "--atom", "essp:b,r1")
    assert code == 1
    assert capsys.readouterr().out == ""


def test_atom_rejects_non_atoms(files, capsys):
    put, _ = files
    ts = put("a2.ts", A2_TS)
    code = run("atom", "--ts", ts, "--type", "nop,set", "--d", "1",
               "--atom", "essp:b,nosuch")
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: atom essp:b,nosuch references unknown state 'nosuch'\n"


def test_reduce_writes_ts_and_meta(files, capsys, demo_hs):
    put, tmp = files
    hs = put("inst.hs", DEMO_HS)
    code = run("reduce", "--construction", "1.4", "--hs", hs,
               "--out", str(tmp / "red.ts"), "--meta", str(tmp / "red.meta"))
    assert code == 0
    assert capsys.readouterr().out == ""
    ts = b.read_ts(str(tmp / "red.ts"))
    assert (len(ts.states), len(ts.events), len(ts.edges)) == (105, 64, 104)
    assert (tmp / "red.meta").read_text(encoding="utf-8") == \
        b.render_meta(b.reduce_t14(demo_hs))


def test_reduce_is_byte_deterministic(files):
    put, tmp = files
    hs = put("inst.hs", DEMO_HS)
    blobs = []
    for tag in ("p", "q"):
        run("reduce", "--construction", "1.3", "--hs", hs,
            "--out", str(tmp / f"{tag}.ts"))
        blobs.append((tmp / f"{tag}.ts").read_bytes())
    assert blobs[0] == blobs[1]


def test_hs_yes_and_no(files, capsys):
    put, _ = files
    hs = put("inst.hs", DEMO_HS)
    assert run("hs", "--hs", hs) == 0
    assert capsys.readouterr().out == "X1 X2\n"
    tight = put("tight.hs", DEMO_HS.replace(".kappa 2", ".kappa 1"))
    assert run("hs", "--hs", tight) == 1
    assert capsys.readouterr().out == ""


def test_check_region_valid(files, capsys):
    put, _ = files
    ts = put("a1.ts", A1_TS)
    region = put("r1.region", R1_REGION)
    code = run("check-region", "--ts", ts, "--type", "nop,swap",
               "--region", region)
    assert code == 0
    assert capsys.readouterr().out == "1\n"


def test_check_region_invalid(files, capsys):
    put, _ = files
    ts = put("a1.ts", A1_TS)
    region = put("bad.region", ".model region\n.supinit 0\n.sig a set\n")
    code = run("check-region", "--ts", ts, "--type", "nop,set",
               "--region", region)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "violating edge s1 a s0\n"


def test_check_region_with_atom(files, capsys):
    put, _ = files
    ts = put("a1.ts", A1_TS)
    region = put("r1.region", R1_REGION)
    assert run("check-region", "--ts", ts, "--type", "nop,swap",
               "--region", region, "--atom", "ssp:s0,s1") == 0
    capsys.readouterr()
    allnop = put("allnop.region", ".model region\n.supinit 1\n")
    code = run("check-region", "--ts", ts, "--type", "nop,swap",
               "--region", allnop, "--atom", "ssp:s0,s1")
    assert code == 1
    assert capsys.readouterr().err == "region does not solve ssp:s0,s1\n"


def test_check_region_outside_type_is_an_error(files, capsys):
    put, _ = files
    ts = put("a1.ts", A1_TS)
    region = put("r1.region", R1_REGION)
    code = run("check-region", "--ts", ts, "--type", "nop,set",
               "--region", region)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: signature maps 'a'")


def test_check_region_unknown_event_is_an_error(files, capsys):
    put, _ = files
    ts = put("a1.ts", A1_TS)
    region = put("z.region", ".model region\n.supinit 0\n.sig z swap\n")
    code = run("check-region", "--ts", ts, "--type", "nop,swap",
               "--region", region)
    assert code == 2
    assert capsys.readouterr().err == \
        "error: signature references unknown event 'z'\n"


def test_verify(files, capsys, a1_net_golden):
    put, tmp = files
    a1 = put("a1.ts", A1_TS)
    a2 = put("a2.ts", A2_TS)
    net = put("a1.net", a1_net_golden)
    assert run("verify", "--ts", a1, "--net", net) == 0
    assert capsys.readouterr().err == ""
    assert run("verify", "--ts", a2, "--net", net) == 1
    assert "not isomorphic" in capsys.readouterr().err


def test_verify_is_a_no_when_the_net_outgrows_the_ts(files, capsys):
    # a and b each swap one place: four markings, against a cap of two
    put, _ = files
    loop = put("loop.ts", ".model ts\n.initial s0\n.edge s0 a s0\n")
    net = put("swaps.net", ".model bnet\n.type nop,swap\n"
              ".place p0 0\n.place p1 0\n.transition a\n.transition b\n"
              ".flow p0 a swap\n.flow p1 b swap\n")
    assert run("verify", "--ts", loop, "--net", net) == 1
    assert capsys.readouterr().err == (
        "reachability graph is not isomorphic to the transition system\n")


def test_reach(files, capsys):
    put, tmp = files
    net = put("two_place.net", ".model bnet\n.type nop,inp,swap\n.place R_1 1\n"
              ".place R_2 0\n.transition a\n.transition b\n"
              ".flow R_1 a inp\n.flow R_2 a swap\n.flow R_2 b inp\n")
    code = run("reach", "--net", net, "--out", str(tmp / "rg.ts"))
    assert code == 0
    assert (tmp / "rg.ts").read_text(encoding="utf-8") == (
        ".model ts\n.initial m10\n.edge m01 b m00\n.edge m10 a m01\n")


def test_reach_cap_is_an_error(files, capsys):
    put, tmp = files
    net = put("swap3.net", ".model bnet\n.type nop,swap\n"
              ".place p0 0\n.place p1 0\n.place p2 0\n"
              ".transition t0\n.transition t1\n.transition t2\n"
              ".flow p0 t0 swap\n.flow p1 t1 swap\n.flow p2 t2 swap\n")
    code = run("reach", "--net", net, "--out", str(tmp / "rg.ts"), "--cap", "4")
    assert code == 2
    assert "exceeds cap" in capsys.readouterr().err


def test_reach_rejects_a_cap_below_one(files, capsys):
    put, tmp = files
    net = put("dead.net", ".model bnet\n.type nop,inp\n.place p 0\n"
              ".transition t\n.flow p t inp\n")
    code = run("reach", "--net", net, "--out", str(tmp / "rg.ts"), "--cap", "-4")
    assert code == 2
    assert capsys.readouterr().err == \
        "error: reachability cap must be >= 1, got -4\n"
    assert not (tmp / "rg.ts").exists()


def test_errors_exit_2(files, capsys):
    put, tmp = files
    ts = put("a1.ts", A1_TS)
    assert run("synth", "--ts", str(tmp / "missing.ts"),
               "--type", "nop", "--d", "1") == 2
    assert capsys.readouterr().err.startswith("error:")
    assert run("synth", "--ts", ts, "--type", "nop,flip", "--d", "1") == 2
    assert "unknown interaction 'flip'" in capsys.readouterr().err
    mangled = put("bad.ts", ".model ts\n.edge s a s\n")
    assert run("synth", "--ts", mangled, "--type", "nop", "--d", "1") == 2
    assert "missing .initial" in capsys.readouterr().err
    loop = put("loop.ts", ".model ts\n.initial s0\n.edge s0 a s0\n")
    assert run("synth", "--ts", loop, "--type", "nop,swap", "--d", "-1") == 2
    assert capsys.readouterr().err == \
        "error: restriction bound must be >= 0\n"


def test_atom_rejects_a_negative_bound(files, capsys):
    put, _ = files
    ts = put("a1.ts", A1_TS)
    assert run("atom", "--ts", ts, "--type", "nop,swap", "--d", "-1",
               "--atom", "ssp:s0,s1") == 2
    assert capsys.readouterr().err == \
        "error: restriction bound must be >= 0\n"


def test_unexpected_errors_exit_2(files, capsys, monkeypatch):
    # a fault inside a decision is an error, never a clean no (exit 1)
    put, _ = files
    ts = put("a1.ts", A1_TS)

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("bnetsynth.cli.solve_atom", boom)
    assert run("atom", "--ts", ts, "--type", "nop,swap", "--d", "1",
               "--atom", "ssp:s0,s1") == 2
    assert capsys.readouterr().err == "error: RuntimeError: boom\n"


def test_atom_on_a_long_line(files, capsys):
    # the subset search recurses per chosen event, not per event, so a
    # TS with well over a thousand events is decided
    put, _ = files
    edges = "".join(f".edge s{i:04d} e{i:04d} s{i + 1:04d}\n"
                    for i in range(1200))
    ts = put("line.ts", ".model ts\n.initial s0000\n" + edges)
    assert run("atom", "--ts", ts, "--type", "nop,swap", "--d", "1",
               "--atom", "ssp:s1149,s1150") == 0
    assert ".sig e1149 swap" in capsys.readouterr().out


@pytest.mark.parametrize("n", [700, 1200, 4000])
def test_atom_with_every_event_swapped_on_a_long_line(files, capsys, n):
    # one region with n non-nop events: the subset and assignment searches
    # keep their positions on explicit stacks, not on the call stack, and
    # the search's set-up grows with |E| + |S|, not |E| * |S|
    put, _ = files
    edges = "".join(f".edge s{i:04d} e{i:04d} s{i + 1:04d}\n"
                    for i in range(n))
    ts = put("line.ts", ".model ts\n.initial s0000\n" + edges)
    with budget(2.0):
        assert run("atom", "--ts", ts, "--type", "swap", "--d", str(n),
                   "--atom", "ssp:s0000,s0001", "--stats") == 0
    out = capsys.readouterr()
    assert out.out.count(" swap\n") == n
    assert out.err.startswith("candidates_examined=1\nvalid_regions=1\n")


def test_demo_t14_atoms_within_budget(files, capsys, demo_hs):
    # construction 1.4 of the demo instance (105 states, 64 events): yes at
    # kappa 2 and d=6, no at kappa 1 and d=5, with the counts of a full search
    _, tmp = files
    queries = []
    for kappa in (2, 1):
        art = b.reduce_instance("1.4", b.build_hs_instance(
            demo_hs.universe, demo_hs.sets, kappa, demo_hs.names))
        path = str(tmp / f"k{kappa}.ts")
        b.write_ts(path, art.ts)
        queries.append((art.d, ["--ts", path,
                                "--type", b.format_type(art.default_type),
                                "--d", str(art.d), "--atom", str(art.alpha)]))
    got = []
    with budget(3.0):
        for d, query in queries:
            code = run("atom", *query, "--stats")
            err = capsys.readouterr().err
            got.append((d, code, err[:err.index("elapsed")]))
    assert got == [
        (6, 0, "candidates_examined=4232850650\nvalid_regions=1\n"),
        (5, 1, "candidates_examined=3810730274\nvalid_regions=0\n")]


@pytest.mark.parametrize("kappa", [2, 1])
def test_demo_t12_synth_within_budget(files, capsys, demo_hs, kappa):
    # construction 1.2 of the demo instance: 1,889 atoms, the last 70 of
    # them open only beyond three non-nop events
    _, tmp = files
    inst = b.build_hs_instance(demo_hs.universe, demo_hs.sets, kappa,
                               demo_hs.names)
    art = b.reduce_instance("1.2", inst)
    ts, net = str(tmp / "t12.ts"), str(tmp / "t12.net")
    b.write_ts(ts, art.ts)
    with budget(10.0):
        code = run("synth", "--ts", ts,
                   "--type", b.format_type(art.default_type),
                   "--d", str(art.d), "--net", net)
    out = capsys.readouterr().out
    yes = b.hs_brute_force(inst) is not None
    assert yes == (kappa == 2)
    assert code == (0 if yes else 1)
    if yes:
        assert out == "solvable\n"
        assert b.verify_lemma1(art.ts, b.read_net(net))
    else:
        assert f"unsolved {art.alpha}\n" in out


def line_ts(n):
    """A line of n states, its events in canonical order."""
    states = [f"s{i:02}" for i in range(n)]
    events = [f"e{i:02}" for i in range(n - 1)]
    return b.build_ts(states, events, [(states[i], e, states[i + 1])
                                       for i, e in enumerate(events)],
                      states[0])


def c06_yes():
    demo = b.parse_hs(DEMO_HS)
    art = b.reduce_t11(b.build_hs_instance(demo.universe, demo.sets, 3))
    return art.ts, art.default_type, art.d


SYNTH_CASES = {
    "line-d2": lambda: (line_ts(40), frozenset({"nop", "inp", "out"}), 2),
    "line-d1": lambda: (line_ts(40), frozenset({"nop", "inp", "out"}), 1),
    "c06-yes": c06_yes,
}


@pytest.mark.parametrize("shrink", [False, True])
@pytest.mark.parametrize("case", list(SYNTH_CASES))
def test_synth_writes_from_the_bit_form(files, capsys, monkeypatch, case,
                                        shrink):
    # without --report, synth builds no Region and no atom list; its net,
    # witnesses and unsolved lines equal those of the Region path
    _, tmp = files
    ts, net_type, d = SYNTH_CASES[case]()
    path, net, wit = (str(tmp / name) for name in ("in.ts", "out.net",
                                                   "out.wit"))
    b.write_ts(path, ts)
    regions, atom_lists = [], []
    build_region = engine._Search.region
    monkeypatch.setattr(engine._Search, "region", lambda self, cand: (
        regions.append(cand), build_region(self, cand))[1])
    for module in (engine, cli):
        monkeypatch.setattr(module, "enumerate_atoms", lambda ts: (
            atom_lists.append(ts), b.enumerate_atoms(ts))[1])
    code = run("synth", "--ts", path, "--type", b.format_type(net_type),
               "--d", str(d), "--net", net, "--witnesses", wit,
               *(["--shrink"] if shrink else []))
    monkeypatch.undo()
    assert (len(regions), len(atom_lists)) == (0, 0)

    outcome = b.solve_drts(ts, net_type, d, shrink=shrink)
    assert code == (0 if outcome.solvable else 1)
    assert outcome.solvable == (case != "line-d1")
    out = capsys.readouterr().out
    if outcome.solvable:
        assert out == "solvable\n"
        assert Path(net).read_text(encoding="utf-8") == b.render_net(
            b.synthesize_net(ts, outcome.admissible_set, net_type))
    else:
        assert out == "unsolvable\n" + "".join(
            f"unsolved {atom}\n" for atom in outcome.unsolved_atoms)
        assert not Path(net).exists()
    assert Path(wit).read_text(encoding="utf-8") == "\n".join(
        f"# region {idx}\n" + render_region_of(region, ts)
        for idx, region in enumerate(outcome.admissible_set))


def test_console_entry_point(files):
    put, _ = files
    hs = put("inst.hs", DEMO_HS)
    # the child imports the same package as this process, installed or not
    package_root = str(Path(b.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "bnetsynth.cli",
                           "hs", "--hs", hs],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "X1 X2\n"
