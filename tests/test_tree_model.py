import random

import pytest

from rnatreedit import edit_distance
from rnatreedit.generators import random_structure, random_tree
from rnatreedit.rna_structures import parse_dotbracket
from rnatreedit.tree_model import (InternalError, Label, LabeledTree, TreeNode, build,
                                   index, to_dot, to_parenthesized, trees_equal)


def db(seq, struct):
    return parse_dotbracket(f"{seq}\n{struct}", pairing="any")


STEM_LOOP = db("GGGAAACCC", "(((...)))")
INTERNAL = db("GGAAGGAAACCAACC", "((..((...))..))")


class TestRepB:
    def test_stem_loop_counts(self):
        t = build(STEM_LOOP, "b")
        # 3 pair nodes in a chain, 3 leaves, 1 synthetic root
        assert t.size() == 7
        chain = t.root.children[0]
        assert chain.label == Label("G-C")
        assert len(chain.children) == 1

    def test_all_unpaired(self):
        t = build(db("GAAAC", "....."), "b")
        assert len(t.root.children) == 5
        assert all(not c.children for c in t.root.children)

    def test_five_prime_order(self):
        s = db("AGAAACU", ".(...).")
        t = build(s, "b")
        kinds = [c.label.kind for c in t.root.children]
        assert kinds == ["A", "G-C", "U"]


class TestRepC:
    def test_stem_loop(self):
        t = build(STEM_LOOP, "c")
        assert to_parenthesized(t) == "root[stack(3)[run(3)]]"

    def test_internal_loop_layout(self):
        t = build(INTERNAL, "c")
        assert to_parenthesized(t) == "root[stack(2)[run(2) stack(2)[run(3)] run(2)]]"

    def test_empty_structure(self):
        t = build(db("AAAA", "...."), "c")
        assert to_parenthesized(t) == "root[run(4)]"


class TestRepD:
    def test_stem_loop(self):
        t = build(STEM_LOOP, "d")
        assert to_parenthesized(t) == "root[hairpin(3)@helix(3)]"

    def test_internal_chain(self):
        t = build(INTERNAL, "d")
        assert to_parenthesized(t) == \
            "root[internal(2,2)@helix(2)[hairpin(3)@helix(2)]]"


class TestRepE:
    def test_no_multiloop_contracts_to_single_leaf(self):
        t = build(INTERNAL, "e")
        # helix(2) + internal(2+2) + helix(2) concatenate
        assert to_parenthesized(t) == "root[hairpin(3)@helix(8)]"

    def test_clover_leaf_skeleton(self):
        clover = db("G" * 2 + "GGAAACC" * 3 + "C" * 2,
                    "((" + "((...))" * 3 + "))")
        t = build(clover, "e")
        root_kids = t.root.children
        assert len(root_kids) == 1
        multi = root_kids[0]
        assert multi.label.kind == "multiloop"
        assert [c.label.kind for c in multi.children] == ["hairpin"] * 3

    def test_coarsening_chain(self):
        rng = random.Random(3)
        for _ in range(50):
            s = random_structure(rng, rng.randint(5, 80))
            sizes = [build(s, rep).size() for rep in "edcb"]
            assert sizes == sorted(sizes)


class TestIndex:
    def test_size_mismatch_is_internal_error(self, monkeypatch):
        """A postorder count that disagrees with size() raises, also under
        ``python -O``; ``edit_distance`` re-exports the same class."""
        t = build(STEM_LOOP, "b")
        real = LabeledTree.size
        monkeypatch.setattr(LabeledTree, "size", lambda self: real(self) + 1)
        with pytest.raises(InternalError, match="numbered 7 nodes, size\\(\\) gave 8"):
            index(t)
        assert edit_distance.InternalError is InternalError

    def test_single_node(self):
        t = index(LabeledTree(TreeNode(Label("a"))))
        assert t.n == 1
        assert t.l[1:] == [1]
        assert t.keyroots == [1]

    def test_path_of_three(self):
        leaf = TreeNode(Label("c"))
        mid = TreeNode(Label("b"), children=[leaf])
        t = index(LabeledTree(TreeNode(Label("a"), children=[mid])))
        assert t.keyroots == [3]
        assert t.leaf_count == 1

    def test_lr_matches_definition_on_random_trees(self, rng):
        for _ in range(40):
            t = index(random_tree(rng, 20, 4))
            brute = [k for k in range(1, t.n + 1)
                     if not any(t.l[k2] == t.l[k] for k2 in range(k + 1, t.n + 1))]
            assert t.keyroots == brute
            assert len(t.keyroots) == t.leaf_count
            assert t.root in t.keyroots

    def test_l_is_monotone_and_postorder_consistent(self, rng):
        for _ in range(20):
            t = index(random_tree(rng, rng.randint(1, 30), 4))
            for i in range(1, t.n + 1):
                assert t.l[i] <= i
                for c in t.children[i]:
                    assert c < i
                    assert t.l[i] <= t.l[c]
                if not t.children[i]:
                    assert t.l[i] == i

    def test_deterministic_rebuild(self):
        a = build(INTERNAL, "b")
        b = build(INTERNAL, "b")
        assert trees_equal(a.root, b.root)
        # in-order leaf/pair-opening traversal reproduces base order
        seq_positions = []

        def visit(node):
            if node.origin and node.origin[0] == "base":
                seq_positions.append(node.origin[1])
            elif node.origin and node.origin[0] == "pair":
                seq_positions.append(node.origin[1])
            for c in node.children:
                visit(c)

        visit(a.root)
        assert seq_positions == sorted(seq_positions)


class TestSerialization:
    def test_dot_output_shapes(self):
        text = to_dot(build(INTERNAL, "d"))
        assert "shape=diamond" in text  # internal loop
        assert "shape=box" in text      # hairpin
        assert text.startswith("digraph")
