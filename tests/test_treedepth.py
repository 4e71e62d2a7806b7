import hashlib
import json

import pytest

from chibound.certify import validate_elimination_forest
from chibound.codec import graph_to_graph6
from chibound.coloring import tree_depth, tree_depth_at_most
from chibound.corpus import all_graphs
from chibound.errors import ParameterError, SizeCapError
from chibound.generators import SplitMix64, complete, cycle, path, random_gnp, star
from chibound.graphs import Graph, component_masks, disjoint_union
from chibound.treedepth import (
    EliminationForest,
    TreedepthSolver,
    depth_coloring,
)
from oracles import naive_treedepth


def test_examples():
    for n in range(1, 7):
        assert tree_depth(complete(n)).value == n
    assert tree_depth(path(4)).value == 3  # ceil(log2(5))
    assert tree_depth(star(6)).value == 2
    assert tree_depth(cycle(4)).value == 3


def test_certificates_validate():
    for g in (complete(5), path(7), cycle(6), star(4)):
        res = tree_depth(g)
        ok, why = validate_elimination_forest(g, res.certificate, res.value)
        assert ok, why


def test_validator_rejects_bad_forests():
    g = cycle(4)
    flat = EliminationForest((-1, -1, -1, -1))
    ok, why = validate_elimination_forest(g, flat, 1)
    assert not ok
    res = tree_depth(g)
    ok, _ = validate_elimination_forest(g, res.certificate, res.value + 1)
    assert not ok
    assert not validate_elimination_forest(path(3), EliminationForest((-1, 0, 7)))[0]
    assert not validate_elimination_forest(path(3), EliminationForest((-1, 0, 1.5)))[0]
    # -2 must not be read as an index from the end (vertex 1 here)
    g = Graph(3, [(0, 1)])
    assert not validate_elimination_forest(g, EliminationForest((-1, 0, -2)))[0]


def test_against_naive_oracle():
    rng = SplitMix64(3)
    for _ in range(25):
        g = random_gnp(6, 0.45, rng)
        assert tree_depth(g).value == naive_treedepth(g)


def test_disconnected_takes_max():
    g = disjoint_union([complete(4), path(2)])
    assert tree_depth(g).value == 4
    assert naive_treedepth(g) == 4


def test_bounded_decision_matches_exact():
    rng = SplitMix64(4)
    for _ in range(20):
        g = random_gnp(7, 0.4, rng)
        td = tree_depth(g).value
        for k in range(1, 8):
            assert tree_depth_at_most(g, k) == (k >= td)


def test_bounded_decision_rejects_a_k_that_is_not_an_int():
    with pytest.raises(ParameterError):
        tree_depth_at_most(path(4), 2.0)
    with pytest.raises(ParameterError):
        tree_depth_at_most(path(4), True)


def test_bounded_decision_scales_past_the_exact_cap():
    from chibound.graphs import subdivide_exact

    g = subdivide_exact(complete(5), 3)  # 35 vertices
    assert not tree_depth_at_most(g, 3)
    assert tree_depth_at_most(g, g.n)


def test_exact_cap_is_enforced():
    from chibound.graphs import subdivide_exact

    with pytest.raises(SizeCapError):
        tree_depth(subdivide_exact(complete(5), 3))


def test_forest_reads_roots_from_the_memo():
    # after treedepth(full), forest(full) asks td_at_most nothing itself; any
    # call comes from treedepth() of a component below a root whose exact
    # depth the first search did not need (none up to 6 vertices)
    for n in range(1, 8):
        for g in all_graphs(n):
            solver = TreedepthSolver(g)
            full = (1 << g.n) - 1
            solver.treedepth(full)
            td_at_most, treedepth = solver.td_at_most, solver.treedepth
            open_treedepth = own = calls = 0

            def counting_td_at_most(mask, k):
                nonlocal own, calls
                calls += 1
                own += open_treedepth == 0
                return td_at_most(mask, k)

            def counting_treedepth(mask):
                nonlocal open_treedepth
                open_treedepth += 1
                try:
                    return treedepth(mask)
                finally:
                    open_treedepth -= 1

            solver.td_at_most = counting_td_at_most
            solver.treedepth = counting_treedepth
            solver.forest(full)
            assert own == 0
            if n <= 6:
                assert calls == 0


def test_forest_scans_nothing_after_treedepth():
    # root scans recurse inside the engine, so the td_at_most counter above no
    # longer sees them; the solver's own scan counter does. Up to 7 vertices
    # forest(full) runs no scan once treedepth(full) has run: what it still
    # has to decide there it decides by star tests (td <= 2), which are not
    # scans
    for n in range(1, 8):
        for g in all_graphs(n):
            solver = TreedepthSolver(g)
            full = (1 << g.n) - 1
            solver.treedepth(full)
            scans = solver.scans
            solver.forest(full)
            assert solver.scans == scans


def test_depth_coloring_counts():
    g = path(7)
    res = tree_depth(g)
    colors = depth_coloring(res.certificate)
    assert len(set(colors)) == res.value
    solver = TreedepthSolver(g)
    assert solver.treedepth((1 << g.n) - 1) == res.value


# SHA-256 of tree_depth(g).to_jsonable() over the graphs of
# test_forest_bytes_are_pinned, taken before the engine moved to one memo of
# bounds and roots.
FORESTS_SHA256 = "d29586c899d1aec592d304ae6f2433b8ae3b8fc0d8860deaeb84b8f6e8fe2d35"


def test_forest_bytes_are_pinned():
    h = hashlib.sha256()

    def add(g):
        text = json.dumps(tree_depth(g).to_jsonable(), sort_keys=True, separators=(",", ":"))
        h.update(f"{graph_to_graph6(g)} {text}\n".encode())

    count = 0
    for n in range(1, 8):
        for g in all_graphs(n):
            add(g)
            count += 1
    rng = SplitMix64(20200)
    for n in range(8, 13):
        for density in (0.2, 0.35, 0.5, 0.7):
            for _ in range(6):
                add(random_gnp(n, density, rng))
                count += 1
    assert count == 1252 + 120
    assert h.hexdigest() == FORESTS_SHA256


def test_root_scan_counts(monkeypatch):
    # the degeneracy lower bound skips root scans that would fail: 5,246
    # scans on these graphs without it, 5,797 without it and without the
    # universal-vertex stop. A scan splits its component at a root only when
    # it reaches that root, and a first root adjacent to its whole component
    # is the only one tried; every split is one component_masks call, and a
    # scan at a higher k splits its roots again. td <= 2 is a star test and a
    # scan at k = 3 tests star forests, so neither splits: 1,545 scans and
    # 8,552 splits here.
    splits = 0

    def counted(rows, mask):
        nonlocal splits
        splits += 1
        return component_masks(rows, mask)

    monkeypatch.setattr("chibound.treedepth.component_masks", counted)
    rng = SplitMix64(20200)
    scans = 0
    for density in (0.2, 0.35, 0.5, 0.7):
        g = random_gnp(12, density, rng)
        solver = TreedepthSolver(g)
        solver.forest((1 << g.n) - 1)
        scans += solver.scans
    assert scans <= 1545 and splits <= 8552
