"""Merkle-tree properties, checked on the dynamic tier's rank tree.

These properties were first written for the plain Merkle tree of the
removed ``repro.dynamics`` prototype; :class:`~repro.dynamic.rank_tree.RankTree`
replaces it and must keep every one of them.  ``verify_path`` now returns
the derived rank (``None`` on failure), so "verifies" means "derives the
leaf's own position".
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic.rank_tree import RankPath, RankTree


def leaves(n):
    return [b"leaf-%d" % i for i in range(n)]


def proves(tree, index, leaf=None):
    leaf = tree.leaf(index) if leaf is None else leaf
    return RankTree.verify_path(tree.root, len(tree), leaf, tree.prove(index)) == index


class TestConstruction:
    def test_empty_tree_root_stable(self):
        assert RankTree().root == RankTree().root
        assert len(RankTree()) == 0

    def test_single_leaf(self):
        t = RankTree([b"only"])
        assert len(t) == 1
        assert proves(t, 0, b"only")

    def test_root_depends_on_content(self):
        assert RankTree([b"a", b"b"]).root != RankTree([b"a", b"c"]).root

    def test_root_depends_on_order(self):
        assert RankTree([b"a", b"b"]).root != RankTree([b"b", b"a"]).root

    def test_leaf_vs_node_domain_separation(self):
        """A two-leaf tree's root is never reproducible as a single leaf."""
        t = RankTree([b"a", b"b"])
        attack = RankTree([t.root])
        assert attack.root != t.root

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33])
    def test_all_paths_verify(self, n):
        t = RankTree(leaves(n))
        for i in range(n):
            assert proves(t, i)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_wrong_leaf_rejected(self, n):
        t = RankTree(leaves(n))
        for i in range(n):
            assert RankTree.verify_path(t.root, n, b"wrong", t.prove(i)) is None

    def test_wrong_position_rejected(self):
        """Leaf 3's path derives rank 3, never the 5 a mover would claim."""
        t = RankTree(leaves(8))
        assert RankTree.verify_path(t.root, 8, t.leaf(3), t.prove(3)) != 5
        assert RankTree.verify_path(t.root, 8, t.leaf(3), t.prove(5)) is None

    def test_path_from_other_tree_rejected(self):
        t1 = RankTree(leaves(8))
        t2 = RankTree([b"x-%d" % i for i in range(8)])
        assert RankTree.verify_path(t1.root, 8, t2.leaf(0), t2.prove(0)) is None

    def test_prove_out_of_range(self):
        t = RankTree(leaves(3))
        with pytest.raises(IndexError):
            t.prove(3)


class TestMutation:
    def test_update_changes_root(self):
        t = RankTree(leaves(5))
        before = t.root
        t.modify(2, b"changed")
        assert t.root != before
        assert proves(t, 2, b"changed")

    def test_update_equals_fresh_build(self):
        t = RankTree(leaves(6))
        t.modify(1, b"x")
        fresh = RankTree([b"leaf-0", b"x"] + leaves(6)[2:])
        assert t.root == fresh.root

    def test_insert(self):
        t = RankTree(leaves(4))
        t.insert(2, b"new")
        assert len(t) == 5
        assert t.leaf(2) == b"new"
        assert proves(t, 2, b"new")
        assert proves(t, 3, b"leaf-2")

    def test_insert_bounds(self):
        t = RankTree(leaves(2))
        with pytest.raises(IndexError):
            t.insert(5, b"x")
        t.insert(2, b"end")  # == len is allowed (append)
        assert t.leaf(2) == b"end"

    def test_append(self):
        t = RankTree()
        for i in range(5):
            t.append(b"leaf-%d" % i)
        assert t.root == RankTree(leaves(5)).root

    def test_delete(self):
        t = RankTree(leaves(5))
        t.delete(1)
        assert len(t) == 4
        assert t.leaves() == [b"leaf-0", b"leaf-2", b"leaf-3", b"leaf-4"]
        for i in range(4):
            assert proves(t, i)

    def test_old_path_invalid_after_mutation(self):
        t = RankTree(leaves(8))
        old_path = t.prove(0)
        old_leaf = t.leaf(0)
        t.modify(5, b"moved on")
        assert RankTree.verify_path(t.root, 8, old_leaf, old_path) is None


class TestProperties:
    @settings(max_examples=30)
    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=40))
    def test_every_leaf_provable(self, raw_leaves):
        t = RankTree(raw_leaves)
        for i, leaf in enumerate(raw_leaves):
            assert proves(t, i, leaf)

    @settings(max_examples=20)
    @given(
        st.lists(st.binary(min_size=1, max_size=8), min_size=2, max_size=20),
        st.data(),
    )
    def test_mutations_match_fresh_builds(self, raw_leaves, data):
        t = RankTree(raw_leaves)
        working = list(raw_leaves)
        index = data.draw(st.integers(0, len(working) - 1))
        new_leaf = data.draw(st.binary(min_size=1, max_size=8))
        t.modify(index, new_leaf)
        working[index] = new_leaf
        assert t.root == RankTree(working).root
        t.delete(index)
        del working[index]
        assert t.root == RankTree(working).root

    def test_path_size(self):
        t = RankTree(leaves(16))
        path = t.prove(0)
        assert isinstance(path, RankPath)
        assert len(path.steps) == 4  # log2(16)
        assert path.wire_size_bytes() == 4 * (1 + 32 + 8)
