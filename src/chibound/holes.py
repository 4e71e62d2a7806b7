"""Chordless-cycle machinery: hole enumeration, even-hole-freeness, exact
per-length counts, and the extremal blown-up-cycle family that suite S7
checks.

Holes are induced cycles of length at least 4, each given as its vertex
tuple in cycle order. They are enumerated by extending chordless paths from
their minimum vertex toward the smaller of its two hole neighbours, so each
hole appears exactly once, already in its least rotation/reflection.
"""

from __future__ import annotations

from .errors import ParameterError, check_cap, check_int
from .generators import cycle
from .graphs import blow_up


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
