"""Unit and property tests for the union-find structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.support.unionfind import DisjointSets, LevelUnionFind


class TestDisjointSets:
    def test_initial_singletons(self):
        ds = DisjointSets(4)
        assert len({ds.find(i) for i in range(4)}) == 4

    def test_union_connects(self):
        ds = DisjointSets(4)
        ds.union(0, 1)
        ds.union(2, 3)
        assert ds.connected(0, 1)
        assert ds.connected(2, 3)
        assert not ds.connected(1, 2)

    def test_union_is_idempotent(self):
        ds = DisjointSets(3)
        root1 = ds.union(0, 1)
        root2 = ds.union(0, 1)
        assert root1 == root2

    def test_add(self):
        ds = DisjointSets(2)
        new = ds.add()
        assert new == 2
        assert not ds.connected(0, new)

    def test_groups(self):
        ds = DisjointSets(5)
        ds.union(0, 1)
        ds.union(1, 2)
        groups = sorted(sorted(g) for g in ds.groups().values())
        assert groups == [[0, 1, 2], [3], [4]]

    @given(
        st.lists(
            st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60
        )
    )
    @settings(max_examples=50)
    def test_matches_naive_partition(self, unions):
        """Union-find connectivity equals a naive partition refinement."""
        ds = DisjointSets(20)
        partition = [{i} for i in range(20)]
        index = list(range(20))
        for a, b in unions:
            ds.union(a, b)
            if index[a] != index[b]:
                ia, ib = index[a], index[b]
                partition[ia] |= partition[ib]
                for member in partition[ib]:
                    index[member] = ia
                partition[ib] = set()
        for a in range(20):
            for b in range(a + 1, 20):
                assert ds.connected(a, b) == (index[a] == index[b])


class TestLevelUnionFind:
    def test_tracks_min_max_levels(self):
        # Levels as in a 4-node chain: 3 -> 2 -> 1 -> 0.
        uf = LevelUnionFind([3, 2, 1, 0])
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.path_length(0) == 4

    def test_separate_components_independent(self):
        uf = LevelUnionFind([2, 1, 0, 1, 0])
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(3, 4)
        assert uf.path_length(0) == 3
        assert uf.path_length(3) == 2

    def test_singleton_length_one(self):
        uf = LevelUnionFind([5])
        assert uf.path_length(0) == 1
