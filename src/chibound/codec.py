"""graph6/digraph6 and edge-list JSON codecs.

graph6 and digraph6 follow McKay's bit-exact formats: N(n), then a stream of
vertex masks, each from bit 0 up, six bits to a character (the first highest),
zero-padded. graph6 streams the columns (for j = 1..n-1, the vertices i < j
adjacent to j, the canonical form's order), digraph6 the rows after an '&' (the
out-neighbours of each vertex). N(n) reaches 2^18 - 1, far beyond desk scale;
its long form is read only for n >= 63, where the format uses it, so each n has
one N(n). A reader strips ASCII whitespace only. A file of graph6 lines is
checked with no decode by one match of graph6_lines_pattern(n).
"""

from __future__ import annotations

import json
import re

from .errors import ParseError, ValidationError, check_cap, is_int
from .graphs import Digraph, Graph, bits, graph_of_columns

_GRAPH6_HEADER = ">>graph6<<"
_DIGRAPH6_HEADER = ">>digraph6<<"
_MAX_LONG_N = (1 << 18) - 1
# six stream bits, the first lowest, to their character (the first highest), and back
_CHAR = [chr(int(f"{v:06b}"[::-1], 2) + 63) for v in range(64)]
_SIX = {c: v for v, c in enumerate(_CHAR)}
_ASCII_SPACE = " \t\n\r\x0b\x0c"


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
    if n <= 62:
        raise ParseError(f"long-form vertex count {n} is below 63", pos)
    return n, pos + 4


def _pack(n, words):
    """N(n), then the stream of the (mask, width) words."""
    out = [_encode_n(n)]  # checks the size cap before any bit packing
    acc = k = 0  # the k stream bits not yet written, the first lowest
    for mask, width in words:
        acc |= mask << k
        k += width
        while k >= 6:
            out.append(_CHAR[acc & 63])
            acc >>= 6
            k -= 6
    if k:
        out.append(_CHAR[acc])
    return "".join(out)


def _unpack(text, pos, widths):
    """The masks of the given widths streamed in text from pos to its end;
    checks enough bytes, every byte to the end a graph6 byte, zero padding,
    then nothing after."""
    needed = (sum(widths) + 5) // 6
    if len(text) - pos < needed:
        raise ParseError(
            f"truncated adjacency data: need {needed} bytes, have {len(text) - pos}",
            pos,
        )
    sixes = [_SIX.get(c) for c in text[pos:]]
    if None in sixes:
        i = sixes.index(None)
        raise ParseError(f"invalid graph6 byte {text[pos + i]!r}", pos + i)
    masks = []
    acc = k = 0  # the k stream bits read and not yet returned, the first lowest
    unread = iter(sixes)
    for width in widths:
        while k < width:
            acc |= next(unread) << k
            k += 6
        masks.append(acc & ((1 << width) - 1))
        acc >>= width
        k -= width
    if acc:
        raise ParseError("nonzero padding bits", pos + needed - 1)
    if len(text) > pos + needed:
        raise ParseError("trailing bytes after adjacency data", pos + needed)
    return masks


def columns_to_graph6(n, columns):
    """The graph6 of the graph on n vertices whose column j, for j = 1..n-1,
    is the mask of the vertices i < j adjacent to j: a canonical form
    (n, *columns) is written with no Graph built."""
    return _pack(n, zip(columns, range(1, n)))


def graph_to_graph6(g):
    return columns_to_graph6(g.n, (g.adj_bits[j] & ((1 << j) - 1) for j in range(1, g.n)))


def graph6_lines_pattern(n):
    """The regex of a text of graph6 lines on n vertices, each ended by a line
    feed: N(n), then ceil(n(n - 1)/12) bytes in '?'..'~', the last with zero
    padding bits. One full match checks the whole text; the re module keeps
    the compiled pattern."""
    size = (n * (n - 1) // 2 + 5) // 6
    pad = 6 * size - n * (n - 1) // 2
    body = ""
    if size:
        last = "".join(re.escape(chr(v + 63)) for v in range(0, 64, 1 << pad))
        body = f"[?-~]{{{size - 1}}}[{last}]"
    return re.compile(f"(?:{re.escape(_encode_n(n))}{body}\n)*")


def graph_from_graph6(text):
    text = text.strip(_ASCII_SPACE).removeprefix(_GRAPH6_HEADER)
    n, pos = _decode_n(text, 0)
    return graph_of_columns(n, _unpack(text, pos, range(1, n)))


def digraph_to_digraph6(d):
    return "&" + _pack(d.n, ((row, d.n) for row in d.out_bits))


def digraph_from_digraph6(text):
    text = text.strip(_ASCII_SPACE).removeprefix(_DIGRAPH6_HEADER)
    if not text or text[0] != "&":
        raise ParseError("digraph6 input must start with '&'", 0)
    n, pos = _decode_n(text, 1)
    rows = _unpack(text, pos, [n] * n)
    for u, row in enumerate(rows):
        if row >> u & 1:
            raise ParseError(f"digraph6 encodes a loop at vertex {u}", pos)
    return Digraph(n, [(u, v) for u, row in enumerate(rows) for v in bits(row)])


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


def _from_json(text, cls, key):
    """A Graph or Digraph from {"n": ..., key: [[u, v], ...]}."""
    data = _load_json(text)
    if "n" not in data or key not in data:
        raise ParseError(f'JSON {cls.__name__.lower()} requires "n" and "{key}" fields')
    if not is_int(data["n"]):
        raise ParseError('"n" must be an integer')
    check_cap("json", data["n"], _MAX_LONG_N)
    return cls(data["n"], _check_pairs(data[key], key))


def _to_json(n, key, pairs):
    payload = {"n": n, key: [list(p) for p in pairs]}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def parse_graph(text):
    """Parse graph6 or edge-list JSON, dispatching on the leading character."""
    stripped = text.strip(_ASCII_SPACE)
    if stripped.startswith("{"):
        return _from_json(stripped, Graph, "edges")
    return graph_from_graph6(stripped)


def serialize_graph(g, fmt="graph6"):
    if fmt == "graph6":
        return graph_to_graph6(g)
    if fmt == "json":
        return _to_json(g.n, "edges", g.sorted_edges())
    raise ValidationError(f"unknown graph format {fmt!r}")


def parse_digraph(text):
    """Parse digraph6 or arc-list JSON, dispatching on the leading character."""
    stripped = text.strip(_ASCII_SPACE)
    if stripped.startswith("{"):
        return _from_json(stripped, Digraph, "arcs")
    return digraph_from_digraph6(stripped)


def serialize_digraph(d, fmt="digraph6"):
    if fmt == "digraph6":
        return digraph_to_digraph6(d)
    if fmt == "json":
        return _to_json(d.n, "arcs", d.sorted_arcs())
    raise ValidationError(f"unknown digraph format {fmt!r}")
