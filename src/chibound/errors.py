"""Exception types shared across the toolkit, the table of size caps, and the
integer-parameter rule.

Every cap is an explicit knob: exceeding one raises SizeCapError rather than
silently degrading an exact answer to an approximation. CAPS is the one table
of solver limits, and check_cap is the one place that raises SizeCapError.

Integer parameters (a depth p, a subdivision depth r, a hole length g, a
vertex count, a cap override) follow one rule: an int, not a bool, at least a
stated bound. is_int is the one test and check_int the one guard; a value
that breaks the rule raises ParameterError before any search starts.
"""


class ChiboundError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ChiboundError):
    """Malformed graph6/digraph6/JSON input. Carries the byte offset when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ValidationError(ChiboundError):
    """Structurally invalid object: loops, duplicate edges, bad certificates."""


class ParameterError(ChiboundError):
    """Infeasible or inconsistent parameters for a generator or operation."""


class SizeCapError(ChiboundError):
    """Input exceeds the configured exact-computation cap."""


# Every solver limit: name -> (default cap, unit). Solvers with a cap keyword
# take None to mean the row's value.
CAPS = {
    "chi_1": (32, "vertices"),  # chi_p at p = 1, the chromatic number
    "chi_2": (14, "vertices"),  # chi_p at p = 2, the star chromatic number
    "chi_3": (12, "vertices"),  # chi_p at every p >= 3
    "tree_depth": (16, "vertices"),  # exact tree-depth
    "tree_depth_hard": (24, "vertices"),  # clamps any tree-depth cap keyword
    "clique": (64, "vertices"),
    "biclique": (24, "vertices"),
    "homomorphism": (12, "vertices per side"),
    "dual_synthesis": (5, "target vertices"),  # search_restricted_dual
    "hole_host": (60, "vertices"),
    "orientation": (20, "edges"),  # all 2^m orientations
    "tm_host": (40, "vertices"),  # topological-minor and induced-subdivision hosts
    "pattern": (8, "vertices"),  # subdivided-clique and ITM patterns
    "itm_host": (24, "vertices"),  # ITM enumeration host
    "critical_catalogue": (8, "vertices"),  # critical patterns at chi >= 4
}


def is_int(x):
    """Whether x is an int and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_int(name, value, least):
    """Return value when it is an int (not a bool) of at least `least`, else
    raise ParameterError naming the parameter."""
    if not is_int(value) or value < least:
        raise ParameterError(f"{name} must be an int >= {least}, got {value!r}")
    return value


def check_cap(name, size, cap=None):
    """Raise SizeCapError when size exceeds the named limit: cap when given,
    else the CAPS row. A limit outside the table counts vertices. A cap
    override must be an int >= 0."""
    default, unit = CAPS.get(name, (None, "vertices"))
    limit = default if cap is None else check_int("cap", cap, 0)
    if size > limit:
        raise SizeCapError(f"{name} is capped at {limit} {unit}, got {size}")


class BudgetError(ChiboundError):
    """A bounded search exhausted its node budget before reaching an answer."""


class WalkLoopError(ChiboundError):
    """A directed-walk power would create a loop; carries the vertex and walk."""

    def __init__(self, vertex, walk):
        super().__init__(
            f"closed directed walk of length {len(walk) - 1} at vertex {vertex}: {walk}"
        )
        self.vertex = vertex
        self.walk = tuple(walk)
