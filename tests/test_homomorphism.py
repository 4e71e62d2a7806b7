import hashlib
import json

import pytest

from chibound import corpus
from chibound.certify import validate_homomorphism
from chibound.codec import digraph_to_digraph6
from chibound.errors import BudgetError, SizeCapError, WalkLoopError
from chibound.generators import SplitMix64
from chibound.graphs import Digraph, orientations
from chibound.homomorphism import (
    directed_cycle,
    directed_path,
    homomorphism,
    longest_directed_path_order,
    transitive_tournament,
    verify_restricted_dual,
    walk_power,
)
from oracles import naive_maps_to, walk_count_matrix


def _random_digraph(rng, n, p):
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.uniform() < p
    ]
    return Digraph(n, arcs)


def test_directed_path_levels():
    assert homomorphism(directed_path(3), transitive_tournament(2)) is None
    hom = homomorphism(directed_path(3), transitive_tournament(3))
    assert hom is not None
    assert validate_homomorphism(directed_path(3), transitive_tournament(3), hom)[0]
    # (0, 1, 2) is a homomorphism; entries that are not vertices are rejected
    assert validate_homomorphism(directed_path(3), transitive_tournament(3), (0, 1, 2))[0]
    for bad in ((0, 2.0, 2), (0, "a", 2), (0, True, 2)):
        assert not validate_homomorphism(directed_path(3), transitive_tournament(3), bad)[0]


def test_identity_and_cycles():
    d = directed_cycle(5)
    hom = homomorphism(d, d)
    assert hom is not None
    for k in range(1, 7):
        assert homomorphism(directed_cycle(5), transitive_tournament(k)) is None


def test_transitive_tournament_shape():
    t4 = transitive_tournament(4)
    assert t4.m == 6 and t4.is_oriented
    assert longest_directed_path_order(t4) == 4
    assert longest_directed_path_order(directed_cycle(3)) is None


def test_gallai_roy_on_small_orientations():
    # hom into T_k exists iff every directed path has at most k vertices
    samples = []
    for n in range(1, 5):
        for g in corpus.all_graphs(n):
            samples.extend(orientations(g))
    rng = SplitMix64(12)
    samples += [_random_digraph(rng, 5, 0.3) for _ in range(60)]
    samples += [_random_digraph(rng, 6, 0.25) for _ in range(40)]
    for d in samples:
        longest = longest_directed_path_order(d)
        for k in range(1, 5):
            expected = longest is not None and longest <= k
            assert (homomorphism(d, transitive_tournament(k)) is not None) == expected


def test_hom_composability():
    rng = SplitMix64(14)
    checked = 0
    while checked < 10:
        f = _random_digraph(rng, 4, 0.3)
        g = _random_digraph(rng, 5, 0.5)
        h = _random_digraph(rng, 5, 0.7)
        fg = homomorphism(f, g)
        gh = homomorphism(g, h)
        if fg is None or gh is None:
            continue
        composed = tuple(gh[x] for x in fg)
        assert validate_homomorphism(f, h, composed)[0]
        checked += 1


def test_walk_power_examples():
    with pytest.raises(WalkLoopError) as info:
        walk_power(directed_cycle(3), 3)
    assert len(info.value.walk) == 4
    assert info.value.walk[0] == info.value.walk[-1]

    wp = walk_power(directed_cycle(4), 3)
    assert wp.arcs == frozenset({(0, 3), (1, 0), (2, 1), (3, 2)})
    wp = walk_power(transitive_tournament(3), 2)
    assert wp.arcs == frozenset({(0, 2)})


def test_walk_power_matches_matrix_oracle():
    rng = SplitMix64(15)
    for _ in range(25):
        d = _random_digraph(rng, 6, 0.3)
        for length in (2, 3, 4):
            counts = walk_count_matrix(d, length)
            looped = any(counts[v][v] > 0 for v in range(d.n))
            try:
                wp = walk_power(d, length)
            except WalkLoopError:
                assert looped
                continue
            assert not looped
            expected = {
                (u, v)
                for u in range(d.n)
                for v in range(d.n)
                if u != v and counts[u][v] > 0
            }
            assert wp.arcs == frozenset(expected)


def test_restricted_dual_verdicts():
    samples = []
    for n in range(1, 5):
        for g in corpus.all_graphs(n):
            samples.extend(orientations(g))
    report = verify_restricted_dual(directed_path(2), transitive_tournament(1), samples)
    assert report.verdict
    # F == D gives an immediate premise failure
    report = verify_restricted_dual(
        transitive_tournament(2), transitive_tournament(2), samples
    )
    assert not report.premise_ok and not report.verdict
    # the directed triangle against T_2 fails on the sample T_3
    report = verify_restricted_dual(
        directed_cycle(3), transitive_tournament(2), [transitive_tournament(3)]
    )
    assert report.premise_ok and not report.verdict
    assert report.violation["f_to_g"] is False and report.violation["g_to_d"] is False


def test_budget_error():
    rng = SplitMix64(16)
    d = _random_digraph(rng, 8, 0.4)
    with pytest.raises(BudgetError):
        homomorphism(d, transitive_tournament(8), budget=1)


def test_hom_cap():
    with pytest.raises(SizeCapError):
        homomorphism(directed_path(13), transitive_tournament(13))


def test_existence_matches_brute_force_over_all_maps():
    rng = SplitMix64(19)
    for _ in range(400):
        f = _random_digraph(rng, rng.randrange(6), 0.35)
        g = _random_digraph(rng, rng.randrange(6), 0.5)
        hom = homomorphism(f, g)
        assert (hom is not None) == naive_maps_to(f, g)
        if hom is not None:
            assert validate_homomorphism(f, g, hom)[0]


def _least_budget(f, g):
    """The least node budget under which homomorphism(f, g) does not raise."""

    def enough(budget):
        try:
            homomorphism(f, g, budget=budget)
        except BudgetError:
            return False
        return True

    lo, hi = 0, 1
    while not enough(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if enough(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


# SHA-256 of the mapping and the least budget of every S9 search pair,
# (P_(k+1), orientation) and (orientation, T_k) for k = 1..3, recorded before
# the search dropped the re-checks its forward checking makes redundant
HOMOMORPHISMS_SHA256 = "2ed16d926792d8f3b5797bfd02a7e759e7baa60e7515bc65a57b8e7dd22b6873"


def test_homomorphisms_and_node_counts_are_pinned():
    samples = []
    for n in range(1, 5):
        for g in corpus.all_graphs(n):
            samples.extend(orientations(g))
    h = hashlib.sha256()
    count = 0
    for k in range(1, 4):
        for sample in samples:
            for f, g in ((directed_path(k + 1), sample), (sample, transitive_tournament(k))):
                hom = homomorphism(f, g)
                data = None if hom is None else list(hom)
                text = json.dumps([data, _least_budget(f, g)], separators=(",", ":"))
                h.update(f"{digraph_to_digraph6(f)} {digraph_to_digraph6(g)} {text}\n".encode())
                count += 1
    assert count == 1092
    assert h.hexdigest() == HOMOMORPHISMS_SHA256
