"""Skeletal graph representation and the adjacency matrices derived from it.

A skeleton is an undirected kinematic tree over N joints, optionally
annotated with left/right symmetric joint pairs.  From it we derive
hop-distance matrices, exact-k-hop adjacencies, the symmetric-connection
matrix, and the weighted hybrid matrix that mixes all of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GraphStructureError, read_json


def _is_index(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _canonical_pairs(pairs, what: str) -> tuple:
    """Each [i, j] of `pairs` as a sorted tuple, else ConfigError."""
    if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_index, p)) for p in pairs):
        raise ConfigError(f"{what} must be a list of joint index pairs, got {pairs!r}")
    return tuple(tuple(sorted(map(int, p))) for p in pairs)


@dataclass(frozen=True)
class SkeletonGraph:
    """Joint set, bone edges, and left/right symmetric pairs.

    The edge set must form a connected tree over ``joint_count`` joints;
    symmetric pairs must reference valid joints and may not duplicate
    bones.
    """

    joint_count: int
    edges: tuple = ()
    symmetric_pairs: tuple = ()
    joint_names: tuple | None = None
    root_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "edges", _canonical_pairs(self.edges, "edges"))
        object.__setattr__(self, "symmetric_pairs",
                           _canonical_pairs(self.symmetric_pairs, "symmetric pairs"))
        n = self.joint_count
        if not _is_index(n) or n <= 0:
            raise ConfigError(f"joint_count must be a positive integer, got {n!r}")
        for i, j in list(self.edges) + list(self.symmetric_pairs):
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigError(f"joint index ({i},{j}) outside [0,{n})")
            if i == j:
                raise ConfigError(f"self-loop at joint {i}")
        if len(set(self.edges)) != len(self.edges):
            raise ConfigError("duplicate edges")
        if len(set(self.symmetric_pairs)) != len(self.symmetric_pairs):
            raise ConfigError("duplicate symmetric pairs")
        if set(self.edges) & set(self.symmetric_pairs):
            raise ConfigError("symmetric pairs may not repeat bone edges")
        if not _is_index(self.root_index) or not 0 <= self.root_index < n:
            raise ConfigError(f"root index {self.root_index!r} outside [0,{n})")
        if self.joint_names is not None:
            object.__setattr__(self, "joint_names", tuple(self.joint_names))
            if len(self.joint_names) != n:
                raise ConfigError("joint_names length != joint_count")
        if len(self.edges) != n - 1:
            raise GraphStructureError(f"{len(self.edges)} edges cannot form a tree over {n} joints")
        shortest_path_hops(self)  # raises on disconnection

    def neighbours(self) -> list:
        adj = [[] for _ in range(self.joint_count)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def walk(self, source: int | None = None) -> tuple:
        """Breadth-first walk over the bone edges from `source` (default: the root).

        Returns (order, parent, hops): the joints in visiting order, each
        joint's parent on the walk and its hop distance from `source`, with
        -1 for the source's parent and for every unreachable joint.
        """
        source = self.root_index if source is None else source
        adj = self.neighbours()
        parent = np.full(self.joint_count, -1, dtype=int)
        hops = np.full(self.joint_count, -1, dtype=int)
        hops[source] = 0
        order = [source]
        for u in order:  # grows while it is read: a FIFO queue
            for v in adj[u]:
                if hops[v] < 0:
                    hops[v] = hops[u] + 1
                    parent[v] = u
                    order.append(v)
        return order, parent, hops

    def parents(self) -> np.ndarray:
        """Parent index per joint (root's parent is -1), BFS order from root."""
        return self.walk()[1]


def shortest_path_hops(graph: SkeletonGraph) -> np.ndarray:
    """NxN matrix of BFS hop distances over the bone edges only.

    Symmetric pairs do not contribute edges.  Raises GraphStructureError
    naming the unreachable joints if the graph is disconnected.
    """
    rows = []
    for src in range(graph.joint_count):
        dist = graph.walk(src)[2]
        if (dist < 0).any():
            unreachable = np.flatnonzero(dist < 0).tolist()
            raise GraphStructureError(
                f"graph is disconnected: joints {unreachable} unreachable from joint {src}")
        rows.append(dist)
    return np.stack(rows)


def khop_adjacency(hops: np.ndarray, k: int) -> np.ndarray:
    """Binary matrix with 1 exactly where the hop distance equals k."""
    if k < 1:
        raise ConfigError(f"hop order must be >= 1, got {k}")
    return (np.asarray(hops) == k).astype(np.float64)


def symmetric_matrix(graph: SkeletonGraph) -> np.ndarray:
    """Binary matrix with 1 at each declared left/right pair."""
    n = graph.joint_count
    sym = np.zeros((n, n), dtype=np.float64)
    for i, j in graph.symmetric_pairs:
        sym[i, j] = 1.0
        sym[j, i] = 1.0
    return sym


def _hybrid_weights(hop_count: int, hop_weights) -> tuple:
    """Checked (hop_weights, sym_weight) as floats: the hop weights default
    to ones, and the symmetric weight is half the last hop weight."""
    if hop_count < 1:
        raise ConfigError(f"hop_count must be >= 1, got {hop_count}")
    hop_weights = tuple(float(w) for w in ([1.0] * hop_count if hop_weights is None else hop_weights))
    if len(hop_weights) != hop_count:
        raise ConfigError(f"expected {hop_count} hop weights, got {len(hop_weights)}")
    for w in hop_weights:
        if not 0.0 < w <= 1.0:
            raise ConfigError(f"hop weights must lie in (0,1], got {w}")
    return hop_weights, hop_weights[-1] / 2.0


@dataclass(frozen=True)
class HybridAdjacency:
    """The fixed skeletal mixing matrix plus the weights that built it.

    The per-module learnable additive matrix lives with the attention
    parameters, not here; this is the shared structural prior.
    """

    skeletal: np.ndarray
    hop_weights: tuple
    sym_weight: float


def build_hybrid_adjacency(graph: SkeletonGraph, hop_count: int = 2,
                           hop_weights=None) -> HybridAdjacency:
    """Weighted sum of k-hop adjacencies plus the symmetric-pair matrix.

    The skeletal matrix is sum_k w_k * A^k + w_sym * A_sym, with w_sym half
    the last hop weight.  The diagonal stays zero: hop 0 contributes
    nothing by construction.
    """
    hop_weights, sym_weight = _hybrid_weights(hop_count, hop_weights)
    hops = shortest_path_hops(graph)
    skeletal = sym_weight * symmetric_matrix(graph)
    for k in range(1, hop_count + 1):
        skeletal = skeletal + hop_weights[k - 1] * khop_adjacency(hops, k)
    return HybridAdjacency(skeletal=skeletal, hop_weights=hop_weights, sym_weight=sym_weight)


# -- the 17-joint preset -------------------------------------------------------

H36M_JOINT_NAMES = (
    "hip", "right_hip", "right_knee", "right_ankle",
    "left_hip", "left_knee", "left_ankle",
    "spine", "thorax", "neck", "head",
    "left_shoulder", "left_elbow", "left_wrist",
    "right_shoulder", "right_elbow", "right_wrist",
)

H36M_EDGES = (
    (0, 1), (1, 2), (2, 3),
    (0, 4), (4, 5), (5, 6),
    (0, 7), (7, 8), (8, 9), (9, 10),
    (8, 11), (11, 12), (12, 13),
    (8, 14), (14, 15), (15, 16),
)

H36M_SYMMETRIC_PAIRS = ((1, 4), (2, 5), (3, 6), (11, 14), (12, 15), (13, 16))


def human36m_skeleton() -> SkeletonGraph:
    """The standard 17-joint Human3.6M layout rooted at the hip."""
    return SkeletonGraph(
        joint_count=17,
        edges=H36M_EDGES,
        symmetric_pairs=H36M_SYMMETRIC_PAIRS,
        joint_names=H36M_JOINT_NAMES,
        root_index=0,
    )


def load_skeleton(path) -> SkeletonGraph:
    """Read a skeleton JSON document: joints, edges, symmetric_pairs, root."""
    doc = read_json(path)
    names = doc.get("joints") if isinstance(doc, dict) else None
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ConfigError(f"{path}: a skeleton needs a 'joints' list of names")
    return SkeletonGraph(
        joint_count=len(names),
        edges=doc.get("edges", ()),
        symmetric_pairs=doc.get("symmetric_pairs", ()),
        joint_names=names,
        root_index=doc.get("root", 0),
    )


def save_skeleton(graph: SkeletonGraph, path) -> None:
    names = graph.joint_names or tuple(f"joint{i}" for i in range(graph.joint_count))
    doc = {
        "joints": list(names),
        "edges": [list(e) for e in graph.edges],
        "symmetric_pairs": [list(p) for p in graph.symmetric_pairs],
        "root": graph.root_index,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
