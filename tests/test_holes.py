import pytest

from chibound.certify import validate_hole
from chibound.errors import ParameterError, SizeCapError
from chibound.generators import SplitMix64, complete, cycle, path, random_gnp
from chibound.graphs import blow_up, disjoint_union
from chibound.holes import (
    blown_up_cycle,
    count_holes,
    enumerate_holes,
    is_even_hole_free,
)
from chibound.invariants import clique_number
from conftest import connected_corpus_graphs
from oracles import canonical_cycle, naive_holes


def test_single_cycle():
    holes = enumerate_holes(cycle(5), 9)
    assert len(holes) == 1 and len(holes[0]) == 5
    assert count_holes(cycle(5), 5) == 1


def test_cliques_have_no_holes():
    assert enumerate_holes(complete(4), 9) == []
    assert enumerate_holes(path(6), 6) == []


def test_blow_up_counts():
    assert count_holes(blow_up(cycle(5), 2), 5) == 32
    assert count_holes(blow_up(cycle(7), 2), 7) == 128


def test_every_hole_revalidates():
    rng = SplitMix64(6)
    for _ in range(20):
        g = random_gnp(8, 0.4, rng)
        for hole in enumerate_holes(g, 8):
            ok, why = validate_hole(g, hole)
            assert ok, why
    assert not validate_hole(cycle(5), (0, 1, 2, 3.0, 4))[0]


def test_against_subset_oracle():
    rng = SplitMix64(9)
    for _ in range(20):
        g = random_gnp(7, 0.45, rng)
        mine = enumerate_holes(g, 7)
        assert mine == sorted(naive_holes(g), key=lambda vs: (len(vs), vs))


def test_even_hole_detection():
    ok, witness = is_even_hole_free(cycle(6))
    assert not ok and len(witness) == 6
    assert is_even_hole_free(blow_up(cycle(5), 2))[0]
    # chordal graphs have no holes at all
    assert is_even_hole_free(complete(5))[0]


def test_additive_over_disjoint_union():
    a, b = cycle(5), blow_up(cycle(5), 2)
    union = disjoint_union([a, b])
    assert count_holes(union, 5) == count_holes(a, 5) + count_holes(b, 5)


def test_blown_up_cycle_clique_number():
    for g_len in (5, 7):
        for k in (1, 2, 3):
            assert clique_number(blow_up(cycle(g_len), k)).value == 2 * k
    assert clique_number(blown_up_cycle(5, 4)).value == 4


def test_blown_up_cycle_parity_errors():
    with pytest.raises(ParameterError):
        blown_up_cycle(6, 2)
    with pytest.raises(ParameterError):
        blown_up_cycle(5, 3)
    with pytest.raises(ParameterError):
        blown_up_cycle(3, 2)


def test_canonical_cycle_normalizes_rotation_and_reflection():
    assert canonical_cycle((2, 0, 1, 3)) == canonical_cycle((3, 1, 0, 2))
    assert canonical_cycle((4, 0, 1, 2, 3))[0] == 0


def test_enumerated_holes_are_already_least_rotations():
    rng = SplitMix64(12)
    graphs = connected_corpus_graphs(7) + [random_gnp(12, 0.3, rng) for _ in range(40)]
    seen = 0
    for g in graphs:
        for hole in enumerate_holes(g, g.n):
            assert hole == canonical_cycle(hole), hole
            seen += 1
    assert seen > 1000


def test_cap():
    with pytest.raises(SizeCapError):
        enumerate_holes(blow_up(cycle(31), 2), 5)


def test_density_ratio_survey_reports():
    # survey, not an assertion of any universal constant: the ratio h_5/|G| on
    # even-hole-free graphs, with the blown-up-cycle family as the yardstick
    from fractions import Fraction

    worst = Fraction(0)
    surveyed = 0
    for g in connected_corpus_graphs(7):
        free, _ = is_even_hole_free(g)
        if not free:
            continue
        surveyed += 1
        worst = max(worst, Fraction(count_holes(g, 5), g.n))
    family = Fraction(count_holes(blown_up_cycle(5, 4), 5), 10)
    print(f"density survey: {surveyed} even-hole-free graphs, "
          f"max h_5/|G| = {worst}, family value at omega=4: {family}")
    assert surveyed > 0
    assert family == Fraction(32, 10)  # the closed form (1/5) * 2^4
