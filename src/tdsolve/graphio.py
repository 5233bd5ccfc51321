"""Reading and writing graphs and decompositions.

Formats:

``.gr`` (graph input)
    Comment lines start with ``c``. Exactly one header ``p tw <n>
    <edge-count>``, then one ``<u> <v>`` line per edge, 1-based.

edge list (graph input)
    First line ``<n>``, then one ``<u> <v>`` line per edge, 0-based.

``.td`` (decomposition)
    Header ``s td <m> <w> <n>`` with ``w`` the largest node cardinality,
    one ``b <id> <vertices...>`` line per node (1-based, ascending), then
    one ``<a> <b>`` line per tree edge. Node 1 is taken as the root.

Blank lines are tolerated everywhere. External files are 1-based; the
in-memory types are 0-based, and the conversion happens only here.
Graph inputs may declare at most ``MAX_VERTICES`` vertices.
"""

from __future__ import annotations

from .graphs import Graph, TreeDecomposition, oriented_at_zero
from .validator import validate


# Largest vertex count a graph input may declare. Far beyond what the
# solver and the oracles can handle, yet large enough to validate
# decompositions of big graphs, and it stops a header alone from making
# Graph.from_edges allocate one adjacency set per declared vertex.
MAX_VERTICES = 10_000


class ParseError(ValueError):
    """Input text does not match the expected grammar."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")


def _int_fields(fields: list[str], line_no: int) -> list[int]:
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ParseError(line_no, f"expected integers, got {' '.join(fields)!r}") from None


def _check_vertex_count(n: int, line_no: int) -> None:
    if n > MAX_VERTICES:
        raise ParseError(line_no, f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def _edge(fields: list[str], line: str, line_no: int, n: int, base: int) -> tuple[int, int]:
    """The 0-based edge of a ``<u> <v>`` line whose n vertices are
    numbered from base."""
    if len(fields) != 2:
        raise ParseError(line_no, f"expected '<u> <v>', got {line!r}")
    u, v = _int_fields(fields, line_no)
    if not (base <= u < base + n and base <= v < base + n):
        raise ParseError(line_no, f"vertex index out of range {base}..{base + n - 1} in {line!r}")
    if u == v:
        raise ParseError(line_no, f"self-loop at vertex {u}")
    return u - base, v - base


def parse_gr(text: str) -> Graph:
    """Parse a ``.gr`` document into a Graph.

    Duplicate and reversed-duplicate edges collapse to one; self-loops
    are rejected. The declared edge count must match the number of edge
    lines.
    """
    n = None
    declared = 0
    header_line = 0
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError(line_no, "second header line")
            if len(fields) != 4 or fields[1] != "tw":
                raise ParseError(line_no, f"malformed header {line!r}, expected 'p tw <n> <m>'")
            n, declared = _int_fields(fields[2:], line_no)
            if n < 0 or declared < 0:
                raise ParseError(line_no, "negative counts in header")
            _check_vertex_count(n, line_no)
            header_line = line_no
            continue
        if n is None:
            raise ParseError(line_no, "edge line before 'p tw' header")
        edges.append(_edge(fields, line, line_no, n, 1))
    if n is None:
        raise ParseError(1, "missing 'p tw' header")
    if len(edges) != declared:
        raise ParseError(
            header_line, f"header declares {declared} edges but {len(edges)} edge lines follow"
        )
    return Graph.from_edges(n, edges)


def parse_edge_list(text: str) -> Graph:
    """Parse the 0-based edge-list format into a Graph."""
    n = None
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ParseError(line_no, f"expected vertex count alone, got {line!r}")
            (n,) = _int_fields(fields, line_no)
            if n < 0:
                raise ParseError(line_no, "negative vertex count")
            _check_vertex_count(n, line_no)
            continue
        edges.append(_edge(fields, line, line_no, n, 0))
    if n is None:
        raise ParseError(1, "empty input, expected vertex count")
    return Graph.from_edges(n, edges)


def _refuse_invalid(g: Graph, td: TreeDecomposition, verb: str) -> None:
    violations = validate(g, td)
    if violations:
        detail = "; ".join(map(str, violations))
        raise ValueError(f"refusing to {verb} an invalid decomposition: {detail}")


def write_td(td: TreeDecomposition, g: Graph) -> str:
    """Serialize a valid decomposition of g to ``.td`` text.

    Output is deterministic: node vertices ascending, one tree-edge line
    per non-root node in node order. Refuses invalid decompositions.
    """
    _refuse_invalid(g, td, "serialize")
    lines = [f"s td {td.m} {td.width} {g.n}"]
    for i, bag in enumerate(td.nodes):
        fields = [f"b {i + 1}"] + [str(v + 1) for v in sorted(bag)]
        lines.append(" ".join(fields))
    for i in range(1, td.m):
        lines.append(f"{td.parent[i] + 1} {i + 1}")
    return "\n".join(lines) + "\n"


def parse_td(text: str) -> TreeDecomposition:
    """Parse ``.td`` text; node ids map to indices (id 1 is the root).

    The tree-edge lines must form a spanning tree of the declared nodes.
    Node indices are preserved, so writing and re-parsing is an exact
    round trip. The declared width field is not enforced here; semantic
    checks against a graph belong to the validator.
    """
    m = None
    n = 0
    bags: dict[int, frozenset[int]] = {}
    tree_edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "s":
            if m is not None:
                raise ParseError(line_no, "second 's td' header")
            if len(fields) != 5 or fields[1] != "td":
                raise ParseError(line_no, f"malformed header {line!r}, expected 's td <m> <w> <n>'")
            m, _, n = _int_fields(fields[2:], line_no)
            if m < 1:
                raise ParseError(line_no, "decomposition must declare at least one node")
            continue
        if m is None:
            raise ParseError(line_no, "content before 's td' header")
        if fields[0] == "b":
            values = _int_fields(fields[1:], line_no)
            if not values:
                raise ParseError(line_no, "node line without id")
            bag_id, vertices = values[0], values[1:]
            if not (1 <= bag_id <= m):
                raise ParseError(line_no, f"node id {bag_id} out of range 1..{m}")
            if bag_id in bags:
                raise ParseError(line_no, f"node {bag_id} defined twice")
            for v in vertices:
                if not (1 <= v <= n):
                    raise ParseError(line_no, f"vertex {v} out of range 1..{n}")
            bags[bag_id] = frozenset(v - 1 for v in vertices)
            continue
        if len(fields) != 2:
            raise ParseError(line_no, f"expected tree edge '<a> <b>', got {line!r}")
        a, b = _int_fields(fields, line_no)
        if not (1 <= a <= m and 1 <= b <= m):
            raise ParseError(line_no, f"tree edge ({a}, {b}) out of range 1..{m}")
        tree_edges.append((a - 1, b - 1))
    if m is None:
        raise ParseError(1, "missing 's td' header")
    if len(bags) != m:
        raise ParseError(1, f"header declares {m} nodes but {len(bags)} 'b' lines found")
    nodes = [bags[i + 1] for i in range(m)]
    try:
        return oriented_at_zero(nodes, tree_edges)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None


def export_dot(g: Graph, td: TreeDecomposition | None = None) -> str:
    """Render the graph, and optionally a decomposition of it, as DOT.

    The input graph appears as an undirected cluster; the decomposition
    as boxes labeled with their vertex sets (1-based) and one directed
    arc from each non-root node to its parent.
    """
    if td is not None:
        _refuse_invalid(g, td, "draw")
    lines = ["digraph decomposition {"]
    lines.append("  subgraph cluster_graph {")
    lines.append('    label="graph";')
    lines.append("    node [shape=circle];")
    for v in range(g.n):
        lines.append(f'    v{v + 1} [label="{v + 1}"];')
    for u, v in g.edges:
        lines.append(f"    v{u + 1} -> v{v + 1} [dir=none];")
    lines.append("  }")
    if td is not None:
        lines.append("  subgraph cluster_tree {")
        lines.append('    label="decomposition";')
        lines.append("    node [shape=box];")
        for i, bag in enumerate(td.nodes):
            label = "{" + ",".join(str(v + 1) for v in sorted(bag)) + "}"
            lines.append(f'    b{i + 1} [label="{label}"];')
        for i in range(1, td.m):
            lines.append(f"    b{i + 1} -> b{td.parent[i] + 1};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
