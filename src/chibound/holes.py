"""Chordless-cycle machinery: hole enumeration, even-hole-freeness, exact
per-length counts, and the extremal blown-up-cycle family check.

Holes are induced cycles of length at least 4, each given as its vertex
tuple in cycle order. They are enumerated by extending chordless paths from
their minimum vertex toward the smaller of its two hole neighbours, so each
hole appears exactly once, already in its least rotation/reflection.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParameterError, check_cap, check_int
from .generators import cycle
from .graphs import blow_up, disjoint_union
from .invariants import clique_number


def _iter_holes(g, max_len):
    """Yield each hole once, as its vertex tuple: DFS over chordless paths
    anchored at the least vertex.

    A path can only close back to the anchor; any extension adjacent to an
    interior vertex (or to the anchor before closing) would carry a chord.
    Direction duplicates are dropped by requiring second vertex < last vertex,
    so the path as found is the hole's least rotation over both directions.
    """
    check_cap("hole_host", g.n)
    adj_bits = g.adj_bits
    nbrs = [g.neighbors(v) for v in range(g.n)]
    for a in range(g.n):
        higher = [u for u in nbrs[a] if u > a]
        for first in higher:
            stack = [([a, first], 1 << a | 1 << first)]
            while stack:
                pathv, mask = stack.pop()
                last = pathv[-1]
                interior = mask & ~(1 << a) & ~(1 << last)
                for w in nbrs[last]:
                    if w <= a or mask >> w & 1:
                        continue
                    if adj_bits[w] & interior:
                        continue  # chord to an interior vertex
                    if adj_bits[w] >> a & 1:
                        if len(pathv) + 1 >= 4 and pathv[1] < w:
                            yield (*pathv, w)
                        # extending past w would leave the chord (w, anchor)
                        continue
                    if len(pathv) + 1 < max_len:
                        stack.append((pathv + [w], mask | 1 << w))


def enumerate_holes(g, max_len):
    """All holes of length 4..max_len, canonical, sorted by length and then
    lexicographically."""
    check_int("max_len", max_len, 0)
    return sorted(_iter_holes(g, max_len), key=lambda h: (len(h), h))


def count_holes(g, length):
    """Exact number of holes of the given length."""
    check_int("length", length, 0)
    return sum(1 for h in _iter_holes(g, length) if len(h) == length)


def is_even_hole_free(g):
    """(True, None) when no even hole exists, else (False, witness hole)."""
    for h in _iter_holes(g, g.n):
        if len(h) % 2 == 0:
            return False, h
    return True, None


def blown_up_cycle(g_len, omega):
    """C_g[K_{omega/2}]: the extremal even-hole-free family member."""
    check_int("g", g_len, 5)
    check_int("omega", omega, 2)
    if g_len % 2 == 0:
        raise ParameterError("hole length must be odd and greater than 3")
    if omega % 2 == 1:
        raise ParameterError("clique number must be even and at least 2")
    return blow_up(cycle(g_len), omega // 2)


def verify_hole_density(g_len, omega, copies):
    """Check h_g = (1/g) (omega/2)^(g-1) |G| on disjoint copies of C_g[K_{omega/2}].

    Returns a report dict with measured and expected values; 'pass' is True
    only when the count matches exactly, the clique number equals omega, and
    the construction is even-hole-free.
    """
    check_int("copies", copies, 1)
    block = blown_up_cycle(g_len, omega)
    g = disjoint_union([block] * copies)
    measured = count_holes(g, g_len)
    expected = Fraction(1, g_len) * Fraction(omega, 2) ** (g_len - 1) * g.n
    omega_measured = clique_number(g).value
    ehf, witness = is_even_hole_free(g)
    report = {
        "g": g_len,
        "omega": omega,
        "copies": copies,
        "order": g.n,
        "holes_measured": measured,
        "holes_expected_numerator": expected.numerator,
        "holes_expected_denominator": expected.denominator,
        "omega_measured": omega_measured,
        "even_hole_free": ehf,
        "pass": (
            expected.denominator == 1
            and measured == expected.numerator
            and omega_measured == omega
            and ehf
        ),
    }
    if witness is not None:
        report["even_hole_witness"] = list(witness)
    return report
