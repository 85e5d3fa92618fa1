import ast
import hashlib
import random
import sys
from pathlib import Path

import pytest

from rnatreedit import edit_distance, tree_model
from rnatreedit.cost_models import unit_model
from rnatreedit.edit_distance import extract_script, replay_script, zs_distance
from rnatreedit.generators import random_structure, random_tree
from rnatreedit.rna_structures import decompose, parse_dotbracket
from rnatreedit.tree_model import (InternalError, Label, LabeledTree, TreeNode, build,
                                   index, to_dot, to_parenthesized, trees_equal, walk)

from conftest import stack_depth


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
        seq_positions = [node.origin[1] for node in walk(a.root)
                         if node.origin[0] in ("base", "pair")]
        assert seq_positions == sorted(seq_positions)


class TestSerialization:
    def test_dot_output_shapes(self):
        text = to_dot(build(INTERNAL, "d"))
        assert "shape=diamond" in text  # internal loop
        assert "shape=box" in text      # hairpin
        assert text.startswith("digraph")


def test_reps_b_and_c_do_not_decompose(monkeypatch):
    def refuse(s):
        raise AssertionError("decompose called")

    monkeypatch.setattr(tree_model, "decompose", refuse)
    for rep in "bc":
        assert build(INTERNAL, rep).size() > 1
    with pytest.raises(AssertionError, match="decompose called"):
        build(INTERNAL, "d")


def _tree(spec):
    """A tree from nested ``(label, [children])`` or ``(label, edge, [children])``."""
    label, *rest = spec
    edge = Label(rest[0]) if len(rest) == 2 else None
    return TreeNode(Label(label), edge, [_tree(c) for c in rest[-1]])


class TestTreesEqual:
    def test_same_preorder_labels_different_shape(self):
        flat = _tree(("a", [("b", []), ("c", [])]))
        nested = _tree(("a", [("b", [("c", [])])]))
        assert not trees_equal(flat, nested)
        assert not trees_equal(nested, flat)

    def test_preorder_prefix_of_the_other(self):
        short = _tree(("a", [("b", [])]))
        longer = _tree(("a", [("b", []), ("c", [])]))
        assert not trees_equal(short, longer)
        assert not trees_equal(longer, short)

    def test_edge_label_only(self):
        x = _tree(("a", [("b", "e1", [])]))
        y = _tree(("a", [("b", "e2", [])]))
        assert not trees_equal(x, y)
        assert trees_equal(x, _tree(("a", [("b", "e1", [])])))

    def test_replayed_root_against_tree_node_root(self):
        a = index(build(INTERNAL, "b"))
        b = build(STEM_LOOP, "b")
        _, tables = zs_distance(a, index(b), unit_model())
        script, _ = extract_script(tables)
        replayed = replay_script(a, script).root
        assert not isinstance(replayed, TreeNode)
        assert trees_equal(replayed, b.root) and trees_equal(b.root, replayed)
        assert not trees_equal(replayed, a.tree.root)


# One sha256 per encoding over to_parenthesized, to_dot, the preorder
# (origin, label, edge label) and the index arrays, and one over the
# element graphs, of 240 seeded structures of 0-300 nt.  Recorded when
# every walk and encoder still recursed.
GOLDEN_TREES = {
    "b": "c53eeb992b562e0f9e3671821ce5816191cadd70766c453011f3866cb71e1603",
    "c": "cc4feb12f7b7dee9f8ca4bea5e4fa0c6145041ae3e1abc594e2153873ff5128e",
    "d": "10cbc1d348ecfd8ceb79ed6f61355702ea9793a44b45287ee3afcc17d683eea7",
    "e": "855f7d4ee7e3ea94c6c3a7c64706148c1f57bb441081fca9ef3e121051e99e68",
    "graphs": "27656a77a21ccff9424557728c027a72c054a543c2cc1f57ee8ad11f9c663240",
}


def test_golden_trees_and_element_graphs():
    digests = {key: hashlib.sha256() for key in GOLDEN_TREES}
    for k in range(240):
        rng = random.Random(k)
        s = random_structure(rng, rng.randrange(301),
                             pair_bias=(0.4, 0.6, 0.8)[k % 3], name=f"s{k}")
        g = decompose(s)
        digests["graphs"].update(repr((
            [(e.kind.value, e.index, e.bases, e.sizes, e.pairs) for e in g.elements],
            sorted(g.children.items()), g.root)).encode())
        for rep in "bcde":
            t = build(s, rep)
            it = index(t)
            digests[rep].update(repr((
                to_parenthesized(t), to_dot(t),
                [(node.origin, node.label, node.edge_label) for node in walk(t.root)],
                it.n, it.labels, it.edge_labels, it.l, it.parent, it.children,
                it.keyroots, it.leaf_count, it.height, it.max_degree)).encode())
    assert {key: h.hexdigest() for key, h in digests.items()} == GOLDEN_TREES


def _db(struct):
    return db("".join({"(": "G", ")": "C", ".": "A"}[c] for c in struct), struct)


def test_deep_inputs_under_low_recursion_limit():
    """Built, indexed, printed and compared with only a few frames to
    spare, far fewer than the trees are deep."""
    # 50 levels, each a 2-bp helix into a multiloop that holds a hairpin
    # and the next level: at least 50 deep at every encoding
    nest = _db("((.(...)" * 50 + "...." + "))" * 50)
    helix_a = _db("(" * 50 + "...." + ")" * 50)
    helix_b = _db("(" * 49 + "......" + ")" * 49)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 15)
    try:
        graph = decompose(nest)
        trees = {rep: build(nest, rep) for rep in "bcde"}
        indexed = {rep: index(t) for rep, t in trees.items()}
        texts = {rep: (to_parenthesized(t), to_dot(t)) for rep, t in trees.items()}
        equal = [trees_equal(t.root, build(nest, rep).root) for rep, t in trees.items()]
        a, b = index(build(helix_a, "b")), index(build(helix_b, "b"))
        d, tables = zs_distance(a, b, unit_model())
        script, _ = extract_script(tables)
        replayed = trees_equal(replay_script(a, script).root, b.tree.root)
    finally:
        sys.setrecursionlimit(limit)
    assert len(graph.children) == 1 + 2 * 50
    for rep, t in indexed.items():
        assert t.height >= 50, rep
        text, dot = texts[rep]
        assert text.count("[") == text.count("]") > 0
        assert dot.count(" -> ") == t.n - 1
    assert all(equal)
    assert d == script.total_cost == 3.0 and replayed


def test_no_tree_walk_recurses():
    """No function calls itself by name (or as ``self.name``) in the
    modules that build, walk, compare or replay trees."""
    src = Path(tree_model.__file__).parent
    for module in ("tree_model", "rna_structures", "edit_distance", "multilevel"):
        for fn in ast.walk(ast.parse((src / f"{module}.py").read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                direct = isinstance(f, ast.Name) and f.id == fn.name
                method = (isinstance(f, ast.Attribute) and f.attr == fn.name
                          and isinstance(f.value, ast.Name) and f.value.id == "self")
                assert not (direct or method), f"{module}.{fn.name} recurses"
