import random
import time
from contextlib import contextmanager
from itertools import combinations, product
from pathlib import Path

import pytest

import bnetsynth as b
from bnetsynth.interactions import INTERACTION_ORDER

GOLDEN = Path(__file__).parent / "golden"

TYPE_1 = frozenset({"nop", "swap", "used", "set"})
TYPE_0 = frozenset({"nop", "inp", "free"})

# the demo hitting-set instance, as the benchmark reads it: its minimum
# hitting sets have two elements
DEMO_HS = (Path(__file__).parent.parent / "perfbench" / "data" /
           "demo.hs").read_text(encoding="utf-8")


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def brute_force_regions(ts, net_type, d=None):
    """Reference enumerator: expand every total signature over the type and
    keep the valid regions with at most d non-nop events (all when d is None)."""
    tree = b.spanning_tree(ts)
    found = []
    for supinit in (0, 1):
        for sigs in product(sorted(net_type), repeat=len(ts.events)):
            sig = dict(zip(ts.events, sigs))
            region = b.expand_region(ts, net_type, supinit, sig, tree)
            if region is not None and (d is None or
                                       b.restriction_count(region) <= d):
                found.append(region)
    return found


def brute_force_candidates(ts, net_type, d):
    """Reference for the canonical order: every candidate, valid or not, as
    (initial support, signature over ts.events). Fewer non-nop events first
    (all of them when nop is not in the type), then event subsets
    lexicographically, then assignments with the first event most
    significant in interaction order, then initial support 0 before 1."""
    non_nop = [i for i in INTERACTION_ORDER if i in net_type and i != "nop"]
    n = len(ts.events)
    found = []
    for c in range(min(d, n) + 1):
        if c < n and "nop" not in net_type:
            continue
        for subset in combinations(range(n), c):
            for sigs in product(non_nop, repeat=c):
                sig = ["nop"] * n
                for j, iname in zip(subset, sigs):
                    sig[j] = iname
                found += [(supinit, tuple(sig)) for supinit in (0, 1)]
    return found


@pytest.fixture
def a1():
    return b.build_ts(["s0", "s1"], ["a"],
                      [("s0", "a", "s1"), ("s1", "a", "s0")], "s0")


@pytest.fixture
def a2():
    return b.build_ts(["r0", "r1"], ["b", "c"],
                      [("r0", "b", "r1"), ("r1", "c", "r0")], "r0")


@pytest.fixture
def a3():
    return b.build_ts(
        ["s0", "s1", "s2", "s3"], ["a", "b", "c"],
        [("s0", "a", "s1"), ("s1", "b", "s2"), ("s2", "c", "s3")], "s0")


@pytest.fixture
def demo_net():
    return b.build_net(
        places=["R_1", "R_2"],
        transitions=["a", "b"],
        net_type=frozenset({"nop", "inp", "swap"}),
        flow={("R_1", "a"): "inp", ("R_2", "a"): "swap", ("R_2", "b"): "inp"},
        initial_marking={"R_1": 1, "R_2": 0},
    )


@pytest.fixture
def demo_hs():
    return b.parse_hs(DEMO_HS)


@pytest.fixture
def a1_net_golden():
    return (GOLDEN / "a1.net").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def hs_corpus():
    """Fifty seeded random hitting-set instances with their brute-force
    answers, shared by the cross-validation and acceptance suites."""
    rng = random.Random(20260816)
    instances = []
    while len(instances) < 50:
        n = rng.randint(1, 4)
        universe = [f"X{i}" for i in range(1, n + 1)]
        m = rng.randint(0, 3)
        sets = []
        for _ in range(m):
            size = rng.randint(1, min(3, n))
            sets.append(sorted(rng.sample(universe, size)))
        kappa = rng.randint(0, 2)
        instances.append(b.build_hs_instance(universe, sets, kappa))
    return [(inst, b.hs_brute_force(inst)) for inst in instances]
