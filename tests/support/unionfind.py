"""The paper's union-find sketch for ``Chances``, kept for the tests.

The paper's complexity argument for balanced scheduling (Section 3)
finds the connected components of the independent subgraph with the
classic set-union algorithm; each set's label additionally tracks the
minimum and maximum *level* (distance from the farthest leaf) seen in
the set, so a component's longest path is ``max_level - min_level + 1``.

That counts *nodes* on the path, while the definition counts loads
(:func:`repro.analysis.components.longest_load_path`, which the weights
use).  The two agree whenever a component holds only loads -- true of
every worked example in the paper -- and diverge on mixed paths; the
tests pin down both.  :class:`DisjointSets` is the plain structure,
:class:`LevelUnionFind` adds the min/max level bookkeeping and
:func:`longest_path_unionfind` applies it to an induced subgraph.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.analysis.dag import CodeDAG
from repro.analysis.reachability import bits


class DisjointSets:
    """Union-find with union by size and path compression.

    Amortised cost per operation is O(alpha(n)), the inverse Ackermann
    function, which the paper treats as constant.
    """

    def __init__(self, n: int = 0):
        self.parent: List[int] = list(range(n))
        self.size: List[int] = [1] * n

    def add(self) -> int:
        """Add a new singleton and return its index."""
        index = len(self.parent)
        self.parent.append(index)
        self.size.append(1)
        return index

    def find(self, x: int) -> int:
        """Return the representative of ``x``'s set (path compression)."""
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; return the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def groups(self) -> Dict[int, List[int]]:
        """Map root -> sorted members, for all current elements."""
        out: Dict[int, List[int]] = {}
        for x in range(len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return out

    def __len__(self) -> int:
        return len(self.parent)


class LevelUnionFind(DisjointSets):
    """Union-find whose set labels track min and max node levels.

    This is the exact bookkeeping the paper describes for computing the
    longest path length of each connected component in
    O(n * alpha(n)): "Each time we perform set union, the set label is
    updated to reflect both the minimum and maximum level number that
    has been seen in that set. Therefore, the largest path length for
    each connected component is simply the maximum level number minus
    the minimum level number plus 1."
    """

    def __init__(self, levels: Iterable[int]):
        levels = list(levels)
        super().__init__(len(levels))
        self.min_level: List[int] = list(levels)
        self.max_level: List[int] = list(levels)

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        root = super().union(ra, rb)
        other = rb if root == ra else ra
        self.min_level[root] = min(self.min_level[root], self.min_level[other])
        self.max_level[root] = max(self.max_level[root], self.max_level[other])
        return root

    def path_length(self, x: int) -> int:
        """Longest path length (in nodes) of ``x``'s component."""
        root = self.find(x)
        return self.max_level[root] - self.min_level[root] + 1


def _levels_from_leaves(dag: CodeDAG, mask: int) -> Dict[int, int]:
    """Level of each node in the induced subgraph, measured from the
    farthest leaf (leaves have level 0)."""
    levels: Dict[int, int] = {}
    for v in reversed(list(bits(mask))):
        level = 0
        for s in dag.successors(v):
            if mask >> s & 1:
                level = max(level, levels[s] + 1)
        levels[v] = level
    return levels


def longest_path_unionfind(dag: CodeDAG, mask: int) -> Dict[int, int]:
    """Longest path length (in nodes) per component, the paper's way.

    Returns a map from each node in ``mask`` to the longest path length
    of its component, computed with the level-labelled union-find
    described in Section 3.
    """
    nodes = list(bits(mask))
    if not nodes:
        return {}
    position = {v: k for k, v in enumerate(nodes)}
    levels = _levels_from_leaves(dag, mask)
    uf = LevelUnionFind(levels[v] for v in nodes)
    for v in nodes:
        for s in dag.successors(v):
            if mask >> s & 1:
                uf.union(position[v], position[s])
    return {v: uf.path_length(position[v]) for v in nodes}
