"""Loopless multigraphs and the structural queries everything else builds on,
plus the slotted ``Record`` base that the package's result types share.

Vertices are dense integers 0..n-1; optional display labels are attached at
parse time only.  Parallel edges are stored as multiplicities, not repeated
structure, so degree and cut computations stay exact integer arithmetic.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DomainError, GraphError

VertexSet = frozenset


class Record:
    """Base of the package's records: the fields are the ``__slots__``, equal
    field by field within one class and shown by repr.  A slot whose name
    starts with an underscore is private state, outside equality, repr and
    pickle.  Hot records define their own ``__init__``; this one takes the
    fields by position or keyword."""

    __slots__ = ()
    __hash__ = None
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name in fields:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A hashable record whose fields cannot be assigned after ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen; cannot set {name!r}")

    __delattr__ = __setattr__

    def _put(self, *values) -> None:
        """Set the slots in order, unchecked: the constructors' last step."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._values())


class Report(Record):
    """A validator's verdict: ``ok``, the ``violations`` found (a list),
    and the width of a checked decomposition (None for other checks)."""

    __slots__ = ("ok", "violations", "width")

    def __init__(self, ok: bool, violations: list, width: Optional[int] = None):
        self.ok, self.violations, self.width = ok, violations, width

    def first(self):
        """The first violation, or None."""
        return self.violations[0] if self.violations else None


class MultiGraph:
    """Finite loopless multigraph, immutable after construction.

    Edges are given as (u, v) pairs; repeating a pair (in either order)
    raises its multiplicity.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Optional[Sequence[str]] = None):
        if type(n) is not int or n < 0:
            raise GraphError(f"vertex count must be an int >= 0, got {n!r}")
        self.n = n
        mult: dict[tuple[int, int], int] = {}
        for edge in _iterable(edges, "edges", GraphError):
            if type(edge) not in (tuple, list) or len(edge) != 2:
                raise GraphError(f"edge {edge!r} is not a pair of vertices")
            u, v = edge
            if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise GraphError(f"loop at vertex {u} is not allowed")
            key = (u, v) if u < v else (v, u)
            mult[key] = mult.get(key, 0) + 1
        self._mult = dict(sorted(mult.items()))
        # per vertex, its (neighbour, multiplicity) pairs by ascending neighbour
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), m in self._mult.items():
            adj[u].append((v, m))
            adj[v].append((u, m))
        self._adj = [tuple(pairs) for pairs in adj]
        # the edges expanded with multiplicity, in sorted order: edge id i
        # is position i, as the harmonic-morphism module reads it
        self._edges = tuple(key for key, m in self._mult.items() for _ in range(m))
        # memos: connectivity, the rank verdicts of
        # ``gonality.has_positive_rank`` by chip tuple, and
        # ``neighbour_masks``.  Every attribute is set here, as attribute
        # reads slow down on an instance that gains one later.
        self._connected: Optional[bool] = None
        self._ranks: dict[tuple[int, ...], bool] = {}
        self._neighbour_masks: Optional[list[int]] = None
        if labels is not None:
            if isinstance(labels, str):  # not one label per character
                raise GraphError(f"labels must be a collection, got {labels!r}")
            labels = list(_iterable(labels, "labels", GraphError))
            if len(labels) != n:
                raise GraphError("label list length does not match vertex count")
            for name in labels:
                # a document separates labels by whitespace
                if not isinstance(name, str) or name.split() != [name]:
                    raise GraphError(f"vertex label {name!r} must be a nonempty "
                                     "string without whitespace")
            if len(set(labels)) != n:
                raise GraphError("vertex labels must be unique")
        self.labels = labels
        self._label_index = (
            {name: i for i, name in enumerate(labels)} if labels else None
        )

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_multiplicities(self) -> dict[tuple[int, int], int]:
        """Normalized (min, max) pairs mapped to multiplicity."""
        return dict(self._mult)

    @property
    def edge_list(self) -> list[tuple[int, int]]:
        """Edges expanded with multiplicity, in sorted order; the position
        in this list is the edge id."""
        return list(self._edges)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def adjacency(self, v: int) -> dict[int, int]:
        """Neighbors of v with multiplicities."""
        _vertex_set(self.n, (v,), "vertex", GraphError)
        return dict(self._adj[v])

    @property
    def neighbour_masks(self) -> list[int]:
        """Per vertex, the bitmask of its neighbours (bit w for neighbour w),
        built on first read and shared by every caller; read only."""
        if self._neighbour_masks is None:
            self._neighbour_masks = [sum(1 << w for w, _ in pairs)
                                     for pairs in self._adj]
        return self._neighbour_masks

    def degree(self, v: int) -> int:
        _vertex_set(self.n, (v,), "vertex", GraphError)
        return sum(m for _, m in self._adj[v])

    def multiplicity(self, u: int, v: int) -> int:
        _vertex_set(self.n, (u, v), "vertex", GraphError)
        return self._mult.get((u, v) if u < v else (v, u), 0)

    def vertex_index(self, name) -> int:
        """Resolve a label, an integer token or an int (not a bool) to a
        vertex index."""
        if type(name) not in (int, str):
            raise GraphError(f"unknown vertex {name!r}")
        if self._label_index is not None and name in self._label_index:
            return self._label_index[name]
        try:
            i = int(name)
        except ValueError:
            raise GraphError(f"unknown vertex {name!r}") from None
        if not 0 <= i < self.n:
            raise GraphError(f"vertex index {i} out of range")
        return i

    def vertex_name(self, v: int) -> str:
        _vertex_set(self.n, (v,), "vertex", GraphError)
        return self._name(v)

    def _name(self, v: int) -> str:
        """``vertex_name`` unchecked, for a caller that holds a vertex."""
        return self.labels[v] if self.labels else str(v)

    def set_name(self, s: Iterable[int]) -> str:
        return self._set_name(_vertex_set(self.n, s, "vertex", GraphError))

    def _set_name(self, s: Iterable[int]) -> str:
        """``set_name`` unchecked, for a caller that holds a vertex set."""
        return "".join(map(self._name, sorted(s))) or "{}"

    def __repr__(self):
        return f"MultiGraph(n={self.n}, m={self.num_edges})"

    def __eq__(self, other):
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.n == other.n and self._mult == other._mult

    def __hash__(self):
        return hash((self.n, tuple(self._mult.items())))

    def __reduce__(self):
        # pickles and copies rebuild the graph, and carry no memo
        return MultiGraph, (self.n, self._edges, self.labels)

    # -- structural queries ------------------------------------------------

    def outdeg(self, u: Iterable[int], v: int) -> int:
        """Number of edges (with multiplicity) from v to vertices outside u."""
        uset = _vertex_set(self.n, u, "vertex", GraphError)
        if type(v) is not int or v not in uset:
            raise GraphError(f"outdeg requires v in U, got v={v!r}")
        return sum(m for w, m in self._adj[v] if w not in uset)

    def flaps(self, x: Iterable[int]) -> list[VertexSet]:
        """Connected components of G - X, ordered by smallest member."""
        seen = set(_vertex_set(self.n, x, "vertex", GraphError))
        comps = []
        for start in range(self.n):
            if start in seen:
                continue
            comp = {start}
            seen.add(start)
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for w, _ in self._adj[v]:
                    if w not in seen:
                        seen.add(w)
                        comp.add(w)
                        queue.append(w)
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        """True iff the graph has exactly one component (empty graph: false)."""
        if self._connected is None:
            self._connected = len(self.flaps(())) == 1
        return self._connected


def _require_connected(g: MultiGraph) -> None:
    if not g.is_connected():
        raise DomainError("graph must be connected")


def _require_int(value, name: str, least: Optional[int] = None) -> None:
    """Raise ``DomainError`` unless value is an int (a bool is not), and at
    least ``least`` if given: the check of a public count argument."""
    if type(value) is not int or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{name} must be an int{bound}, got {value!r}")


def _iterable(values, name: str, error: type = DomainError):
    """An iterator over values, copying nothing; ``error`` (a
    ``ChipTreeError`` class) unless values is iterable: the check of a
    public collection argument."""
    try:
        return iter(values)
    except TypeError:
        raise error(f"{name} must be a collection, got {values!r}") from None


def _vertex_set(n: int, vs, what: str, error: type = DomainError) -> VertexSet:
    """The frozenset of vs, walked once; ``error`` unless vs is a collection
    of ints (no bool) in 0..n-1, naming a bad member ``what``."""
    vset = set()
    for v in _iterable(vs, f"{what} set", error):
        if not (type(v) is int and 0 <= v < n):
            raise error(f"{what} {v!r} is not a vertex in 0..{n - 1}")
        vset.add(v)
    return frozenset(vset)


def _int_tuple(values, name: str, least: Optional[int] = None) -> tuple[int, ...]:
    """values as a tuple of ints (a bool is not one), each at least
    ``least`` if given; ``DomainError`` otherwise."""
    values = tuple(_iterable(values, name))
    for v in values:
        if type(v) is not int or least is not None and v < least:
            bound = "" if least is None else f" >= {least}"
            raise DomainError(f"{name} holds {v!r}, which is not an int{bound}")
    return values


# -- bitmask kernels -------------------------------------------------------
# A vertex set as an int with bit v for vertex v, as in ``neighbour_masks``.
# Searcher sets, territories and bags are stored this way: an int costs
# n/8 bytes and the cyclic garbage collector does not track it.

def _mask(vs: Iterable) -> int:
    """Bit v for each v in vs; -1, which masks no vertex set, if vs names
    anything but an int v >= 0 (a bool is not one)."""
    mask = 0
    for v in vs:
        if not (type(v) is int and v >= 0):
            return -1
        mask |= 1 << v
    return mask


_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def _digits(mask: int) -> bytes:
    """The binary digits of a non-negative mask, lowest first, as 0/1
    bytes: ``compress(vertices, _digits(mask))`` lists its vertices in
    ascending order in one pass."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)


def _members(mask: int) -> Iterator[int]:
    """The vertices of a non-negative mask in ascending order.  ``rfind``
    skips the zero digits of ``bin(mask)`` in C, so the loop runs once per
    vertex: a searcher set or a bag is sparse."""
    digits = bin(mask)
    top = len(digits) - 1
    i = digits.rfind("1")
    while i >= 0:
        yield top - i
        i = digits.rfind("1", 0, i)


def _vertices(mask: int) -> VertexSet:
    """The vertex set of a non-negative mask."""
    return frozenset(_members(mask))


def _around(nbr: list[int], s: int) -> int:
    """Every neighbour of a vertex of s; N(s) is ``_around(nbr, s) & ~s``."""
    around = 0
    while s:
        low = s & -s
        around |= nbr[low.bit_length() - 1]
        s ^= low
    return around


def _components(nbr: list[int], r: int) -> list[int]:
    """The connected components of the subgraph induced by r, ordered by
    smallest member; a search grows each one a layer at a time."""
    comps = []
    while r:
        comp = frontier = r & -r
        while frontier:
            frontier = _around(nbr, frontier) & r & ~comp
            comp |= frontier
        comps.append(comp)
        r &= ~comp
    return comps
