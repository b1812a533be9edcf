"""Text formats: PACE-style .gr and .td files, sparse divisor strings,
morphism and refinement-map files, and the self-describing document format
that bundles a graph with a divisor for single-file fixtures.

Parsers of .td, morphism and refinement-map files import their records lazily.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .divisors import Divisor
from .errors import DomainError, FormatError
from .graph import MultiGraph, _members, _require_int

if TYPE_CHECKING:
    from .morphism import FiniteMorphism
    from .treedec import RefinementMap, TreeDecomposition

DOCUMENT_FORMAT = "chiptree/1"

# Largest vertex count a ``p tw <n> <m>`` header may declare.  The graph
# allocates one adjacency map per vertex before any edge is read, so an
# unchecked header is a memory bomb; the oracles here are meant for far
# smaller graphs anyway.
MAX_GR_VERTICES = 1_000_000


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c ") or line == "c":
            continue
        out.append(line)
    return out


def _ints(tokens: list[str], line: str, what: str, count: Optional[int] = None) -> list[int]:
    """The tokens as ints; a token that is not one, or a token count other
    than ``count`` (if given), is a bad ``what``."""
    try:
        if count is None or len(tokens) == count:
            return [int(token) for token in tokens]
    except ValueError:
        pass
    raise FormatError(f"bad {what}: {line!r}")


def _header(lines: list[str], kind: str, what: str, count: int, n_at: int) -> list[int]:
    """The ``count`` ints after ``kind`` on the first line, the header of a
    ``what`` file; the one at ``n_at`` is its vertex count, capped at
    ``MAX_GR_VERTICES``."""
    if not lines:
        raise FormatError(f"empty {what} input")
    header = lines[0].split()
    if header[:2] != kind.split():
        raise FormatError(f"bad {what} header: {lines[0]!r}")
    values = _ints(header[2:], lines[0], f"{what} header", count)
    if values[n_at] > MAX_GR_VERTICES:
        raise FormatError(f"{what} header declares {values[n_at]} vertices, "
                          f"above the cap {MAX_GR_VERTICES}")
    return values


# -- PACE .gr graphs -------------------------------------------------------

def parse_gr(text: str) -> MultiGraph:
    """Header ``p tw <n> <m>``, then 1-based edge lines; duplicates stack."""
    return _parse_gr(_content_lines(text))


def _parse_gr(lines: list[str]) -> MultiGraph:
    n, m = _header(lines, "p tw", ".gr", 2, 0)
    edges = []
    for line in lines[1:]:
        u, v = _ints(line.split(), line, "edge line", 2)
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"edge ({u},{v}) outside 1..{n}")
        edges.append((u - 1, v - 1))
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, found {len(edges)}")
    return MultiGraph(n, edges)


def write_gr(g: MultiGraph) -> str:
    lines = [f"p tw {g.n} {g.num_edges}"]
    for u, v in g.edge_list:
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


# -- PACE .td tree decompositions ------------------------------------------

def parse_td(text: str) -> TreeDecomposition:
    """Header ``s td <bags> <max bag size> <n>``, bag lines, tree edges.

    Each bag id in 1..<bags> has one bag line, and the largest bag must
    have the header's size.
    """
    from .treedec import TreeDecomposition
    lines = _content_lines(text)
    num_bags, max_bag, n = _header(lines, "s td", ".td", 3, 2)
    masks: dict[int, int] = {}
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "b":
            (bag_id,) = _ints(parts[1:2], line, "bag line", 1)
            members = _ints(parts[2:], line, "bag line")
            if not 1 <= bag_id <= num_bags:
                raise FormatError(f"bag id {bag_id} outside 1..{num_bags}")
            if bag_id in masks:
                raise FormatError(f"bag id {bag_id} has a second bag line")
            mask = 0
            for v in members:
                if not 1 <= v <= n:
                    raise FormatError(f"bag {bag_id} mentions out-of-range vertices")
                mask |= 1 << (v - 1)
            masks[bag_id] = mask
        else:
            i, j = _ints(parts, line, "tree edge line", 2)
            edges.append((i - 1, j - 1))
    # ids are unique keys in 1..num_bags, so a full count means all of them
    if len(masks) != num_bags:
        raise FormatError("bag ids must be exactly 1..<bags>")
    mask_list = [masks[i] for i in range(1, num_bags + 1)]
    largest = max(map(int.bit_count, mask_list), default=0)
    if largest != max_bag:
        raise FormatError(f"header declares max bag size {max_bag}, "
                          f"but the largest bag has {largest}")
    for i, j in edges:
        if not (0 <= i < num_bags and 0 <= j < num_bags):
            raise FormatError(f"tree edge ({i + 1},{j + 1}) out of range")
    return TreeDecomposition._of_masks(mask_list, edges)


def write_td(td: TreeDecomposition, n: int) -> str:
    """The .td text of td as a decomposition of a graph on n vertices;
    ``DomainError`` unless n is an int >= 0 above every bag member, so
    that ``parse_td`` reads back what this writes."""
    _require_int(n, "n", 0)
    masks = td.masks
    if max(masks, default=0) >> n:
        raise DomainError(f"a bag holds a vertex outside 0..{n - 1}")
    lines = [f"s td {len(masks)} {td.width + 1} {n}"]
    for i, bag in enumerate(masks, 1):
        lines.append(" ".join(["b", str(i), *(str(v + 1) for v in _members(bag))]))
    for i, j in td.tree_edges:
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


# -- divisors --------------------------------------------------------------

def parse_divisor(text: str, g: MultiGraph) -> Divisor:
    """Sparse ``<vertex>:<chips>`` tokens; omitted vertices hold 0 chips.
    A lone ``0`` is the zero divisor, as ``Divisor.format`` writes it."""
    chips = [0] * g.n
    tokens = text.split()
    for token in tokens if tokens != ["0"] else ():
        if ":" not in token:
            raise FormatError(f"bad divisor token {token!r}")
        name, _, amount = token.rpartition(":")
        try:
            value = int(amount)
        except ValueError:
            raise FormatError(f"bad chip count in {token!r}") from None
        chips[g.vertex_index(name)] += value
    return Divisor(chips)


# -- structured-text document ----------------------------------------------

def parse_document(text: str) -> tuple[MultiGraph, Optional[Divisor]]:
    """Single-file fixture: version line, vertices, edges, optional divisor.

    ::

        format chiptree/1
        vertices a b c
        edge a b
        edge b c
        divisor a:3
        divisor-dense 3 0 0    (alternative to the sparse form)
    """
    return _parse_document(_content_lines(text))


def _parse_document(lines: list[str]) -> tuple[MultiGraph, Optional[Divisor]]:
    if not lines or not lines[0].startswith("format "):
        raise FormatError("document must start with a 'format' line")
    version = lines[0].split(None, 1)[1]
    if version != DOCUMENT_FORMAT:
        raise FormatError(f"unsupported document format {version!r}")
    edge_tokens: list[list[str]] = []
    found: dict[str, str] = {}  # per key but edge, the rest of its one line
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key == "edge":
            parts = rest.split()
            if len(parts) != 2:
                raise FormatError(f"bad edge line: {line!r}")
            edge_tokens.append(parts)
        elif key not in ("vertices", "divisor", "divisor-dense"):
            raise FormatError(f"unknown document line: {line!r}")
        elif key in found:
            raise FormatError(f"document has a second {key!r} line")
        else:
            found[key] = rest
    if "vertices" not in found:
        raise FormatError("document is missing a 'vertices' line")
    if "divisor" in found and "divisor-dense" in found:
        raise FormatError("document has both a 'divisor' and a 'divisor-dense' line")
    labels = found["vertices"].split()
    index = {name: i for i, name in enumerate(labels)}
    try:
        edges = [(index[a], index[b]) for a, b in edge_tokens]
    except KeyError as exc:
        raise FormatError(f"edge uses unknown vertex {exc.args[0]!r}") from None
    g = MultiGraph(len(labels), edges, labels=labels)
    if "divisor" in found:
        return g, parse_divisor(found["divisor"], g)
    if "divisor-dense" in found:
        dense_line = found["divisor-dense"]
        chips = _ints(dense_line.split(), dense_line, "divisor-dense line")
        if len(chips) != g.n:
            raise FormatError("divisor-dense length does not match vertex count")
        return g, Divisor(chips)
    return g, None


def write_document(g: MultiGraph, d: Optional[Divisor] = None) -> str:
    names = [g.vertex_name(v) for v in range(g.n)]
    lines = [f"format {DOCUMENT_FORMAT}", "vertices " + " ".join(names)]
    for u, v in g.edge_list:
        lines.append(f"edge {names[u]} {names[v]}")
    if d is not None:
        lines.append(f"divisor {d.format(g)}")
    return "\n".join(lines) + "\n"


def parse_graph_auto(text: str) -> tuple[MultiGraph, Optional[Divisor]]:
    """Dispatch between the .gr format and the document format on the first
    content line, and parse the lines once."""
    lines = _content_lines(text)
    if lines and lines[0].startswith("format "):
        return _parse_document(lines)
    return _parse_gr(lines), None


# -- morphisms and refinement maps -----------------------------------------

def parse_morphism(text: str, g: MultiGraph, t: MultiGraph) -> FiniteMorphism:
    """Lines ``v <g-vertex> <t-vertex>`` and ``e <g-edge-id> <t-edge-id> <index>``."""
    from .morphism import FiniteMorphism
    vmap: dict[int, int] = {}
    emap: dict[int, tuple[int, int]] = {}
    for line in _content_lines(text):
        parts = line.split()
        if parts[0] == "v" and len(parts) == 3:
            v, image = g.vertex_index(parts[1]), t.vertex_index(parts[2])
            if v in vmap:
                raise FormatError(f"graph vertex {parts[1]} has a second morphism line")
            vmap[v] = image
        elif parts[0] == "e" and len(parts) == 4:
            eid, tid, idx = _ints(parts[1:], line, "morphism edge line")
            if not 0 <= tid < t.num_edges:
                raise FormatError(f"tree edge id {tid} outside 0..{t.num_edges - 1}")
            if eid in emap:
                raise FormatError(f"graph edge {eid} has a second morphism line")
            emap[eid] = (tid, idx)
        else:
            raise FormatError(f"bad morphism line: {line!r}")
    if set(vmap) != set(range(g.n)):
        raise FormatError("morphism must map every graph vertex")
    if set(emap) != set(range(g.num_edges)):
        raise FormatError("morphism must map every graph edge id")
    return FiniteMorphism(
        vertex_map=tuple(vmap[v] for v in range(g.n)),
        edge_map=tuple(emap[i][0] for i in range(g.num_edges)),
        index=tuple(emap[i][1] for i in range(g.num_edges)),
    )


def write_morphism(f: FiniteMorphism, g: MultiGraph, t: MultiGraph) -> str:
    lines = []
    for v, img in enumerate(f.vertex_map):
        lines.append(f"v {g.vertex_name(v)} {t.vertex_name(img)}")
    for i in range(len(f.edge_map)):
        lines.append(f"e {i} {f.edge_map[i]} {f.index[i]}")
    return "\n".join(lines) + "\n"


def parse_refinement_map(text: str) -> RefinementMap:
    """Lines ``orig <refined> <original>``, ``sub <refined> <u> <w> <copy> <pos>``,
    ``leaf <refined> <anchor>``; all ids are 0-based integers."""
    from .treedec import RefinementMap
    original: dict[int, int] = {}
    subdivision: dict[int, tuple[int, int, int, int]] = {}
    leaves: dict[int, int] = {}
    tables = {"orig": (original, 2), "sub": (subdivision, 5), "leaf": (leaves, 2)}
    for line in _content_lines(text):
        key, *tokens = line.split()
        table, count = tables.get(key, (None, -1))  # no count fits an unknown key
        v, *image = _ints(tokens, line, "refinement line", count)
        if min(v, *image) < 0:
            raise FormatError(f"negative id in refinement line: {line!r}")
        if v in original or v in subdivision or v in leaves:
            raise FormatError(f"refined vertex {v} has a second line")
        table[v] = tuple(image) if key == "sub" else image[0]
    return RefinementMap(original, subdivision, leaves)


def write_refinement_map(rmap: RefinementMap) -> str:
    lines = []
    for v in sorted(rmap.original):
        lines.append(f"orig {v} {rmap.original[v]}")
    for v in sorted(rmap.subdivision):
        u, w, copy, pos = rmap.subdivision[v]
        lines.append(f"sub {v} {u} {w} {copy} {pos}")
    for v in sorted(rmap.added_leaves):
        lines.append(f"leaf {v} {rmap.added_leaves[v]}")
    return "\n".join(lines) + "\n"
