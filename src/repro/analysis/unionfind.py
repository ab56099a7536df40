"""Disjoint-set (union-find) structures.

The paper's complexity argument for the balanced scheduling algorithm
(Section 3) relies on the classic set-union algorithm: connected
components of the independent subgraph are found with union-find, and
each set's label additionally tracks the minimum and maximum *level*
(distance from the farthest leaf) seen in the set, so the longest path
length of a component is ``max_level - min_level + 1``.

:class:`DisjointSets` is the plain structure; :class:`LevelUnionFind`
adds the paper's min/max level bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Iterable, List


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
