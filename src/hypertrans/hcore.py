"""Hypergraph data model: canonical edge storage, class predicates, deletion.

Vertices are dense indices 0..n-1.  Edges are stored canonically (each edge a
sorted tuple, the edge list sorted lexicographically) so that equal hypergraphs
compare equal and all downstream output is deterministic.  Duplicate edges in
the input are collapsed to one and remembered via the `had_multi_edge` flag;
the class predicates treat that flag as disqualifying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


class FormatError(ValueError):
    """Raised on malformed hypergraph/graph text input."""


# largest n or m a text header may declare, checked before anything is built
# from it: ten times the largest instance the tools are exercised on
MAX_HEADER_COUNT = 10_000


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...] | None = None   # survivor -> original index trace
    had_multi_edge: bool = False

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_masks(self) -> tuple[int, ...]:
        return tuple(_mask(e) for e in self.edges)

    def degrees(self) -> list[int]:
        d = [0] * self.n
        for e in self.edges:
            for v in e:
                d[v] += 1
        return d

    def to_text(self) -> str:
        lines = [f"hg {self.n} {self.m}"]
        for e in self.edges:
            lines.append("e " + " ".join(str(v) for v in e))
        return "\n".join(lines) + "\n"


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bit_indices(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def hypergraph(n, edges, labels=None, allow_singletons=False) -> Hypergraph:
    """Validated constructor; canonicalizes edges and collapses duplicates.

    Size-1 edges are rejected unless allow_singletons is set (transformations
    such as open-neighborhood systems can legitimately produce them; parsed
    input never may).
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    canon = []
    for e in edges:
        ce = tuple(sorted(set(e)))
        if len(ce) == 0:
            raise ValueError("empty edge")
        if len(ce) == 1 and not allow_singletons:
            raise ValueError(f"size-1 edge {ce} rejected")
        if ce[0] < 0 or ce[-1] >= n:
            raise ValueError(f"edge {ce} has a vertex outside 0..{n - 1}")
        canon.append(ce)
    deduped = sorted(set(canon))
    collapsed = len(deduped) < len(canon)
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != n:
            raise ValueError("label map length must equal n")
    return Hypergraph(n, tuple(deduped), labels, collapsed)


@dataclass(frozen=True)
class DegreeProfile:
    degrees: tuple[int, ...]
    n1: int          # number of degree-1 vertices
    delta: int       # minimum degree
    Delta: int       # maximum degree


def degree_profile(H: Hypergraph) -> DegreeProfile:
    d = H.degrees()
    return DegreeProfile(
        degrees=tuple(d),
        n1=sum(1 for x in d if x == 1),
        delta=min(d) if d else 0,
        Delta=max(d) if d else 0,
    )


@dataclass(frozen=True)
class ClassCheck:
    k: int                      # uniformity, 0 if edges have mixed sizes or none
    is_k_uniform: bool
    has_isolated_vertex: bool
    has_isolated_edge: bool
    has_multi_edge: bool
    in_Hk: bool
    in_Hk_star: bool
    is_linear: bool
    min_degree: int
    max_degree: int
    n1: int                     # number of degree-1 vertices

    def is_r_regular(self, r: int) -> bool:
        return self.min_degree == self.max_degree == r


def class_check(H: Hypergraph) -> ClassCheck:
    """Structural membership flags: uniformity, H_k, H_k*, linearity."""
    sizes = {len(e) for e in H.edges}
    uniform = len(sizes) == 1
    k = sizes.pop() if uniform else 0
    dp = degree_profile(H)
    isolated_vertex = dp.delta == 0 and H.n > 0
    masks = H.edge_masks()
    # an edge meets another exactly when it has a vertex of degree >= 2
    shared = shared_vertices(masks)
    isolated_edge = not all(a & shared for a in masks)
    max_shared = _max_shared(H, masks, dp.degrees)
    linear = max_shared <= 1
    in_hk = (
        uniform
        and k >= 2
        and not isolated_vertex
        and not isolated_edge
        and not H.had_multi_edge
    )
    in_hk_star = in_hk and k >= 3 and max_shared <= k - 2
    return ClassCheck(
        k=k,
        is_k_uniform=uniform,
        has_isolated_vertex=isolated_vertex,
        has_isolated_edge=isolated_edge,
        has_multi_edge=H.had_multi_edge,
        in_Hk=in_hk,
        in_Hk_star=in_hk_star,
        is_linear=linear,
        min_degree=dp.delta,
        max_degree=dp.Delta,
        n1=dp.n1,
    )


def shared_vertices(masks) -> int:
    """The vertices lying in two or more of masks, by folding the masks into
    two saturating planes: the second holds what the first already held."""
    once = twice = 0
    for a in masks:
        twice |= once & a
        once |= a
    return twice


def _max_shared(H: Hypergraph, masks, degrees) -> int:
    """The most vertices two edges share, 0 with fewer than two edges.

    Edges that share vertices meet, so it is enough to compare the pairs
    inside each vertex's list of edges.  Filling the lists and comparing
    their pairs costs about sum d(d+1) against m(m-1) for every pair once,
    counted as ordered pairs; the cheaper way is taken.  The first test is
    the second's quick necessary part, since sum d(d+1) >= 2 sum d.
    """
    pairs = len(masks) * (len(masks) - 1)
    if 2 * sum(degrees) < pairs and sum(d * (d + 1) for d in degrees) < pairs:
        groups: list = [[] for _ in range(H.n)]
        for a, e in zip(masks, H.edges):
            for v in e:
                groups[v].append(a)
    else:
        groups = [masks]
    best = 0
    for group in groups:
        for i, a in enumerate(group):       # each unordered pair once
            for b in group[i + 1:]:
                shared = (a & b).bit_count()
                if shared > best:
                    best = shared
    return best


def neighborhood(H: Hypergraph, v: int) -> set[int]:
    """Open neighborhood N(v): all vertices sharing an edge with v, read
    off `neighborhood_masks`."""
    if not 0 <= v < H.n:
        raise IndexError(f"vertex {v} out of range 0..{H.n - 1}")
    return set(bit_indices(neighborhood_masks(H)[v]))


def neighborhood_masks(H: Hypergraph) -> list[int]:
    """Open neighborhoods of all vertices as bitmasks."""
    return mask_neighborhoods(H.n, H.edge_masks())


def mask_neighborhoods(n: int, masks) -> list[int]:
    """Per item 0..n-1, the union of the masks that hold it, less the item."""
    nb = [0] * n
    for mask in masks:
        rest = mask
        while rest:
            b = rest & -rest
            rest ^= b
            nb[b.bit_length() - 1] |= mask ^ b
    return nb


def edge_components(edges) -> list[tuple]:
    """The edges split into connected pieces, each a tuple in the given
    order; the pieces come in the order of their first edges, so by lowest
    vertex when the edges are sorted.  The union-find holds only the
    vertices the edges touch, each entered at its first edge, so a call
    costs what the edges hold."""
    parent: dict[int, int] = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in edges:
        r = find(parent.setdefault(e[0], e[0]))
        for v in e[1:]:
            s = find(parent.setdefault(v, r))
            if s != r:
                parent[s] = r
    pieces: dict[int, list] = {}
    for e in edges:
        pieces.setdefault(find(e[0]), []).append(e)
    return [tuple(piece) for piece in pieces.values()]


def components(H: Hypergraph) -> list[list[int]]:
    """Vertex blocks of connectivity; isolated vertices are singletons."""
    blocks = [sorted({v for e in piece for v in e})
              for piece in edge_components(H.edges)]
    covered = set().union(*blocks)
    return sorted(blocks + [[v] for v in range(H.n) if v not in covered])


def delete_vertices(H: Hypergraph, X) -> Hypergraph:
    """Remove X, every edge meeting X, and any vertex left uncovered.

    The edges that miss X are exactly the edges inside the vertices they
    cover (an edge meeting X keeps its vertex of X outside them), so the
    result is H induced on those vertices, re-indexed densely.  Labels
    compose: where the result's v re-indexes H's w, its label is
    H.labels[w], or w when H has no labels.
    """
    xs = set(X)
    for v in xs:
        if not 0 <= v < H.n:
            raise ValueError(f"vertex {v} not in hypergraph")
    sub, back = induced(H, {v for e in H.edges if xs.isdisjoint(e) for v in e})
    if H.labels is not None:
        back = [H.labels[v] for v in back]
    return Hypergraph(sub.n, sub.edges, tuple(back), H.had_multi_edge)


def induced(H: Hypergraph, vertices) -> tuple[Hypergraph, list[int]]:
    """Sub-hypergraph on a vertex subset (edges wholly inside), plus the map
    from new indices back to H's indices."""
    vs = sorted(set(vertices))
    vset = set(vs)
    index = {v: i for i, v in enumerate(vs)}
    kept = [tuple(index[v] for v in e) for e in H.edges if vset.issuperset(e)]
    sub = Hypergraph(len(vs), tuple(sorted(kept)), None, H.had_multi_edge)
    return sub, vs


@dataclass(frozen=True)
class BoundRow:
    """One checked inequality lhs <= rhs with exact-rational slack."""
    theorem: str
    lhs: Fraction
    rhs: Fraction
    slack: Fraction = field(init=False)
    holds: bool = field(init=False)
    basis: str = "exact"            # exact | bound-based
    lhs_provenance: str = "formula"  # solver | construction | formula
    rhs_provenance: str = "formula"

    def __post_init__(self):
        lhs, rhs = self.lhs, self.rhs
        if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
            slack = rhs - lhs   # the usual case, no re-wrapping
        else:
            slack = Fraction(rhs) - Fraction(lhs)
        object.__setattr__(self, "slack", slack)
        # a Fraction's denominator is positive: its numerator has its sign
        object.__setattr__(self, "holds", slack.numerator >= 0)

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "slack": str(self.slack),
            "holds": self.holds,
            "basis": self.basis,
            "lhs_provenance": self.lhs_provenance,
            "rhs_provenance": self.rhs_provenance,
        }


def class_floor_check(H: Hypergraph) -> list[BoundRow]:
    """Minimum order/size/degree facts every H_k member must satisfy.

    Rows: k+1 <= n, 2 <= m, 2 <= max degree, 2k <= 2n - n1.
    """
    cc = class_check(H)
    if not cc.in_Hk:
        raise ValueError("hypergraph is not an H_k member")
    return _floor_rows(cc, H.n, H.m)


def _floor_rows(cc: ClassCheck, n: int, m: int):
    """class_floor_check's rows from a class check already in hand."""
    k = cc.k
    two = Fraction(2)
    return [
        BoundRow("O2_n", Fraction(k + 1), Fraction(n)),
        BoundRow("O2_m", two, Fraction(m)),
        BoundRow("O2_maxdeg", two, Fraction(cc.max_degree)),
        BoundRow("O2_n1", Fraction(2 * k), Fraction(2 * n - cc.n1)),
    ]


def from_text(text: str) -> Hypergraph:
    """Parse the `hg` text format (header `hg n m`, then `e v1 ... vk` lines)."""
    return read_text(text, "hg", hypergraph)


def read_text(text: str, kind: str, build, edge_size: int | None = None):
    """build(n, edges) from a `<kind> n m` header and m `e ...` lines, with
    exactly edge_size vertices each when it is given; `#` starts a comment."""
    lines = content_lines(text)
    if not lines:
        raise FormatError("empty input")
    header = lines[0]
    head = header.split()
    if len(head) != 3 or head[0] != kind:
        raise FormatError(f"bad header {header!r}, expected '{kind} <n> <m>'")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise FormatError(f"non-integer counts in header {header!r}") from None
    if max(n, m) > MAX_HEADER_COUNT:
        raise FormatError(
            f"header {header!r} exceeds the limit of {MAX_HEADER_COUNT} "
            f"vertices or edges"
        )
    if len(lines) - 1 != m:
        raise FormatError(f"header says {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] != "e" or edge_size not in (None, len(parts) - 1):
            raise FormatError(f"bad edge line {ln!r}")
        try:
            edges.append([int(p) for p in parts[1:]])
        except ValueError:
            raise FormatError(f"non-integer vertex in {ln!r}") from None
    try:
        return build(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def content_lines(text: str) -> list[str]:
    """The non-blank lines of text, each stripped of its comment."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [ln for ln in lines if ln]
