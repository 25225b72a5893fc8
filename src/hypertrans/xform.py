"""Structural transformations between hypergraphs and graphs.

Open-neighborhood system, 2-section, dual of a 2-regular hypergraph, the
degree-1 shrink that lowers uniformity by one, and the two extremal family
generators that realize gamma_t = 2n/(k+1) resp. 2n/(k+2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .hcore import (
    Hypergraph,
    bit_indices,
    class_check,
    hypergraph,
    neighborhood_masks,
    read_text,
)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on the vertices 0..n-1; like a Hypergraph it
    holds n and edges, so `hcore.neighborhood_masks` serves both.

    Invariant: edges are unique pairs (u, v) with 0 <= u < v < n, in lex
    order.  `to_hypergraph` and `two_section` rely on it and do not check
    it again; a Graph built by hand must keep it, otherwise use `graph()`.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        d = [0] * self.n
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    def to_hypergraph(self) -> Hypergraph:
        # the pairs are already canonical edges (class invariant)
        return Hypergraph(self.n, self.edges)

    def to_text(self) -> str:
        lines = [f"g {self.n} {self.m}"]
        for u, v in self.edges:
            lines.append(f"e {u} {v}")
        return "\n".join(lines) + "\n"


def graph(n, edges) -> Graph:
    """Validated constructor; sorts edges, rejects loops and parallel pairs."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    pairs = []
    for e in edges:
        u, v = e
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {(u, v)} has a vertex outside 0..{n - 1}")
        pairs.append((min(u, v), max(u, v)))
    if len(set(pairs)) < len(pairs):
        raise ValueError("parallel edges")
    return Graph(n, tuple(sorted(pairs)))


def graph_from_text(text: str) -> Graph:
    """Parse the `g` text format (header `g n m`, then `e u v` lines)."""
    return read_text(text, "g", graph, edge_size=2)


def onh(H: Hypergraph) -> Hypergraph:
    """Open-neighborhood system: one edge N(v) per vertex v.

    Duplicate neighborhoods collapse (the flag on the result records it).
    Size-1 neighborhoods are legitimate here, e.g. a path's leaves.  Each
    N(v) is read off a mask, so it is a sorted tuple inside 0..n-1 as built.
    """
    degs = H.degrees()
    for v in range(H.n):
        if degs[v] == 0:
            raise ValueError(f"vertex {v} is isolated, its neighborhood is empty")
    nbhd = [tuple(bit_indices(nb)) for nb in neighborhood_masks(H)]
    if () in nbhd:      # a vertex whose only edges are singletons
        raise ValueError("empty edge")
    edges = tuple(sorted(set(nbhd)))
    return Hypergraph(H.n, edges, had_multi_edge=len(edges) < H.n)


def two_section(H: Hypergraph) -> Graph:
    """Graph on the same vertices; uv is an edge iff some hyperedge has both.

    Edges are sorted tuples inside 0..n-1, so their pairs already are u < v
    in range, and the set makes them unique.
    """
    pairs = set()
    for e in H.edges:
        pairs.update(itertools.combinations(e, 2))
    return Graph(H.n, tuple(sorted(pairs)))


def dual(H: Hypergraph) -> Graph:
    """Dual of a 2-regular hypergraph: one graph vertex per hyperedge, one
    graph edge per hypergraph vertex joining its two incident edges.

    Linearity of H makes the dual simple; a shared pair of incident edges
    (two hypergraph vertices lying in the same two hyperedges) would demand
    a parallel edge and is rejected by name.
    """
    degs = H.degrees()
    bad = [v for v in range(H.n) if degs[v] != 2]
    if bad:
        raise ValueError(
            f"dual needs a 2-regular hypergraph; vertex {bad[0]} has degree {degs[bad[0]]}"
        )
    incident: list[list[int]] = [[] for _ in range(H.n)]
    for ei, e in enumerate(H.edges):
        for v in e:
            incident[v].append(ei)
    seen: dict[tuple[int, int], int] = {}
    edges = []
    for v in range(H.n):
        a, b = incident[v]
        pair = (min(a, b), max(a, b))
        if pair in seen:
            raise ValueError(
                f"dual would be a multigraph: vertices {seen[pair]} and {v} "
                f"share the same two incident edges {pair}"
            )
        seen[pair] = v
        edges.append(pair)
    return graph(H.m, edges)


def shrink_degree_one(H: Hypergraph) -> Hypergraph:
    """Delete the lowest-indexed degree-1 vertex from every edge.

    Each edge loses exactly one vertex, so a k-uniform input becomes
    (k-1)-uniform on n-m vertices (the m dropped vertices are distinct).
    Re-indexes densely and collapses any duplicate shrunk edges; 2-uniform
    input legitimately yields size-1 edges.
    """
    degs = H.degrees()
    shrunk = []
    dropped = set()
    for e in H.edges:
        ones = [v for v in e if degs[v] == 1]
        if not ones:
            raise ValueError(f"edge {e} has no degree-1 vertex")
        dropped.add(ones[0])
        shrunk.append([v for v in e if v != ones[0]])
    survivors = sorted(set(range(H.n)) - dropped)
    index = {v: i for i, v in enumerate(survivors)}
    return hypergraph(len(survivors), [[index[v] for v in e] for e in shrunk],
                      allow_singletons=True)


@dataclass(frozen=True)
class FamilyInstance:
    hypergraph: Hypergraph
    base_n: int
    kind: str        # Fk | Fk_star
    k: int


def family_Fk(F: Hypergraph, k: int) -> FamilyInstance:
    """Attach, at every base vertex v, k new vertices and the two edges
    {v, v1..v_{k-1}} and {v1..vk}.  Output order is (k+1)*n_F."""
    cc = class_check(F)
    if not cc.in_Hk:
        raise ValueError("base hypergraph is not an H_k member")
    if cc.k != k:
        raise ValueError(f"base is {cc.k}-uniform, asked for k={k}")
    n0 = F.n
    edges = [list(e) for e in F.edges]
    for v in range(n0):
        new = [n0 + v * k + i for i in range(k)]
        edges.append([v] + new[: k - 1])
        edges.append(new)
    return FamilyInstance(hypergraph(n0 * (k + 1), edges), n0, "Fk", k)


def family_Fk_star(F: Hypergraph, k: int) -> FamilyInstance:
    """Attach, at every base vertex v, k+1 new vertices and the two edges
    {v, v1..v_{k-1}} and {v2..v_{k+1}}.  Output order is (k+2)*n_F."""
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    cc = class_check(F)
    if not cc.in_Hk_star:
        raise ValueError("base hypergraph is not an H_k* member")
    if cc.k != k:
        raise ValueError(f"base is {cc.k}-uniform, asked for k={k}")
    n0 = F.n
    edges = [list(e) for e in F.edges]
    for v in range(n0):
        new = [n0 + v * (k + 1) + i for i in range(k + 1)]
        edges.append([v] + new[: k - 1])
        edges.append(new[1:])
    return FamilyInstance(hypergraph(n0 * (k + 2), edges), n0, "Fk_star", k)
