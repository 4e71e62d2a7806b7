"""graph6/digraph6 and edge-list JSON codecs.

graph6 and digraph6 follow McKay's bit-exact formats: N(n) followed by the
packed upper triangle (column order) for graphs, or by the packed full
adjacency matrix (row order, '&' header) for digraphs. The long form is
supported up to 2^18 - 1 vertices, far beyond desk scale.
"""

from __future__ import annotations

import json

from .errors import ParseError, ValidationError, check_cap, is_int
from .graphs import Digraph, Graph

_GRAPH6_HEADER = ">>graph6<<"
_DIGRAPH6_HEADER = ">>digraph6<<"
_MAX_LONG_N = (1 << 18) - 1


def _encode_n(n):
    if n <= 62:
        return chr(n + 63)
    check_cap("graph6", n, _MAX_LONG_N)
    return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))


def _decode_n(text, pos):
    if pos >= len(text):
        raise ParseError("truncated input: missing vertex count", pos)
    c = ord(text[pos]) - 63
    if c < 0 or c > 63:
        raise ParseError(f"invalid graph6 byte {text[pos]!r}", pos)
    if c != 63:
        return c, pos + 1
    if pos + 1 < len(text) and text[pos + 1] == "~":
        raise ParseError(
            f"8-byte vertex counts exceed the supported cap of {_MAX_LONG_N}", pos
        )
    if pos + 3 >= len(text):
        raise ParseError("truncated long-form vertex count", pos)
    n = 0
    for i in range(1, 4):
        d = ord(text[pos + i]) - 63
        if d < 0 or d > 63:
            raise ParseError(f"invalid graph6 byte {text[pos + i]!r}", pos + i)
        n = n << 6 | d
    return n, pos + 4


def _pack_bits(bits):
    out = []
    for i in range(0, len(bits), 6):
        group = bits[i : i + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def _unpack_bits(text, pos, count):
    bits = []
    needed = (count + 5) // 6
    if len(text) - pos < needed:
        raise ParseError(
            f"truncated adjacency data: need {needed} bytes, have {len(text) - pos}",
            pos,
        )
    for i in range(needed):
        c = ord(text[pos + i]) - 63
        if c < 0 or c > 63:
            raise ParseError(f"invalid graph6 byte {text[pos + i]!r}", pos + i)
        bits.extend((c >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    if any(bits[count:]):
        raise ParseError("nonzero padding bits", pos + needed - 1)
    if len(text) > pos + needed:
        raise ParseError("trailing bytes after adjacency data", pos + needed)
    return bits[:count]


def graph_to_graph6(g):
    head = _encode_n(g.n)  # checks the size cap before any bit packing
    bits = []
    for j in range(1, g.n):
        col = g.adj_bits[j]
        bits.extend((col >> i) & 1 for i in range(j))
    return head + _pack_bits(bits)


def graph_from_graph6(text):
    text = text.strip()
    if text.startswith(_GRAPH6_HEADER):
        text = text[len(_GRAPH6_HEADER) :]
    n, pos = _decode_n(text, 0)
    bits = _unpack_bits(text, pos, n * (n - 1) // 2)
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)


def digraph_to_digraph6(d):
    head = _encode_n(d.n)
    bits = []
    for u in range(d.n):
        row = d.out_bits[u]
        bits.extend((row >> v) & 1 for v in range(d.n))
    return "&" + head + _pack_bits(bits)


def digraph_from_digraph6(text):
    text = text.strip()
    if text.startswith(_DIGRAPH6_HEADER):
        text = text[len(_DIGRAPH6_HEADER) :]
    if not text or text[0] != "&":
        raise ParseError("digraph6 input must start with '&'", 0)
    n, pos = _decode_n(text, 1)
    bits = _unpack_bits(text, pos, n * n)
    arcs = []
    k = 0
    for u in range(n):
        for v in range(n):
            if bits[k]:
                if u == v:
                    raise ParseError(f"digraph6 encodes a loop at vertex {u}", pos)
                arcs.append((u, v))
            k += 1
    return Digraph(n, arcs)


def _load_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from exc
    if not isinstance(data, dict):
        raise ParseError("JSON graph must be an object")
    return data


def _check_pairs(pairs, key):
    if not isinstance(pairs, list):
        raise ParseError(f"{key!r} must be a list of pairs")
    out = []
    for item in pairs:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(map(is_int, item))
        ):
            raise ParseError(f"{key!r} entries must be integer pairs, got {item!r}")
        out.append(tuple(item))
    return out


def graph_from_json(text):
    data = _load_json(text)
    if "n" not in data or "edges" not in data:
        raise ParseError('JSON graph requires "n" and "edges" fields')
    n = data["n"]
    if not is_int(n):
        raise ParseError('"n" must be an integer')
    return Graph(n, _check_pairs(data["edges"], "edges"))


def graph_to_json(g):
    payload = {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digraph_from_json(text):
    data = _load_json(text)
    if "n" not in data or "arcs" not in data:
        raise ParseError('JSON digraph requires "n" and "arcs" fields')
    n = data["n"]
    if not is_int(n):
        raise ParseError('"n" must be an integer')
    return Digraph(n, _check_pairs(data["arcs"], "arcs"))


def digraph_to_json(d):
    payload = {"n": d.n, "arcs": [list(a) for a in d.sorted_arcs()]}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def parse_graph(text):
    """Parse graph6 or edge-list JSON, dispatching on the leading character."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return graph_from_json(stripped)
    return graph_from_graph6(stripped)


def serialize_graph(g, fmt="graph6"):
    if fmt == "graph6":
        return graph_to_graph6(g)
    if fmt == "json":
        return graph_to_json(g)
    raise ValidationError(f"unknown graph format {fmt!r}")


def parse_digraph(text):
    """Parse digraph6 or arc-list JSON, dispatching on the leading character."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return digraph_from_json(stripped)
    return digraph_from_digraph6(stripped)


def serialize_digraph(d, fmt="digraph6"):
    if fmt == "digraph6":
        return digraph_to_digraph6(d)
    if fmt == "json":
        return digraph_to_json(d)
    raise ValidationError(f"unknown digraph format {fmt!r}")
