import dataclasses
import math
import random
import sys
import time
from collections import Counter

import pytest

from rnatreedit.cost_models import structural_model, unit_model
from rnatreedit.edit_distance import (extract_script, prepare, replay_script,
                                      validate_mapping, zs_distance)
from rnatreedit.fusion_distance import FusionParams, extract_fusion_script, fusion_dp
from rnatreedit.generators import labeled_trees, random_structure, random_tree
from rnatreedit.oracle import mapping_oracle
from rnatreedit.tree_model import (Label, LabeledTree, TreeNode, build, index,
                                   trees_equal, walk)

from conftest import EDGE_LABELS, NODE_LABELS, stack_depth


def leafy(kind, *kid_kinds):
    node = TreeNode(Label(kind))
    for k in kid_kinds:
        node.add(TreeNode(Label(k)))
    return node


@pytest.fixture
def worked_example():
    """Two trees at unit distance 3, reconstructed from the operation
    series relabel + delete + insert (fixture is a reconstruction)."""
    t1 = TreeNode(Label("A"), children=[leafy("B", "C", "D")])
    t2 = leafy("F", "C", "G", "D")
    return index(LabeledTree(t1)), index(LabeledTree(t2))


class TestDistance:
    def test_identity_is_zero(self, rng):
        m = unit_model()
        for _ in range(10):
            t = index(random_tree(rng, rng.randint(1, 12), 3, NODE_LABELS))
            d, _ = zs_distance(t, t, m)
            assert d == 0.0

    def test_single_node_relabel(self):
        a = index(LabeledTree(TreeNode(Label("A"))))
        b = index(LabeledTree(TreeNode(Label("B"))))
        d, _ = zs_distance(a, b, unit_model())
        assert d == 1.0

    def test_worked_example_costs_three(self, worked_example):
        a, b = worked_example
        d, _ = zs_distance(a, b, unit_model())
        assert d == 3.0
        assert mapping_oracle(a, b, unit_model()) == 3.0

    def test_exhaustive_small_oracle_equivalence(self):
        # all labeled tree pairs up to 4 nodes over a 2-letter alphabet;
        # the full 5-node sweep runs in the acceptance suite
        m = unit_model()
        alphabet = [Label("a"), Label("b")]
        trees = [index(t) for n in range(1, 5)
                 for t in labeled_trees(n, alphabet)]
        for a in trees:
            for b in trees:
                d, _ = zs_distance(a, b, m)
                assert d == mapping_oracle(a, b, m)

    def test_sampled_oracle_equivalence_with_structural_model(self, rng):
        m = structural_model(t=0.05)
        for _ in range(200):
            a = index(random_tree(rng, rng.randint(1, 8), 3,
                                  NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 8), 3,
                                  NODE_LABELS, EDGE_LABELS))
            d, _ = zs_distance(a, b, m)
            assert d == mapping_oracle(a, b, m)

    def test_symmetry_sampled(self, rng):
        m = structural_model(t=0.05)
        for _ in range(200):
            a = index(random_tree(rng, rng.randint(1, 10), 3,
                                  NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 10), 3,
                                  NODE_LABELS, EDGE_LABELS))
            assert zs_distance(a, b, m)[0] == zs_distance(b, a, m)[0]

    def test_triangle_sampled(self, rng):
        m = structural_model(t=0.05)
        for _ in range(100):
            ts = [index(random_tree(rng, rng.randint(1, 8), 3,
                                    NODE_LABELS, EDGE_LABELS))
                  for _ in range(3)]
            dab = zs_distance(ts[0], ts[1], m)[0]
            dbc = zs_distance(ts[1], ts[2], m)[0]
            dac = zs_distance(ts[0], ts[2], m)[0]
            assert dac <= dab + dbc + 1e-9

    def test_unvalidated_model_warns(self):
        a = index(LabeledTree(TreeNode(Label("A"))))
        m = unit_model(ins_scale=2.0)
        with pytest.warns(UserWarning):
            zs_distance(a, a, m)


class TestCostCalls:
    def test_match_priced_once_per_label_class_pair(self):
        base = structural_model(t=0.05)
        seen = []

        def match(a, b):
            seen.append((a, b))
            return base.match_fn(a, b)

        counting = dataclasses.replace(base, match_fn=match)
        rng = random.Random(7)
        for rep in "bcd":
            a = index(build(random_structure(rng, 80), rep))
            b = index(build(random_structure(rng, 80), rep))
            seen.clear()
            d, tables = zs_distance(a, b, counting)
            extract_script(tables)
            classes_a = len({a.pair(i) for i in range(1, a.n + 1)})
            classes_b = len({b.pair(j) for j in range(1, b.n + 1)})
            assert len(seen) <= classes_a * classes_b < a.n * b.n, rep
            for pair in (p for call in seen for p in call):
                assert isinstance(pair, tuple) and len(pair) == 2
                assert isinstance(pair[0], Label)
                assert pair[1] is None or isinstance(pair[1], Label)
            assert d == zs_distance(a, b, base)[0]


class TestColors:
    """With ``colors``, only nodes of equal, present colors may match."""

    def test_equal_labels_with_different_colors_never_map(self):
        t = index(LabeledTree(leafy("A", "B")))
        d, tables = zs_distance(t, t, unit_model(), colors=([None, 1, 0], [None, 2, 0]))
        assert extract_script(tables)[1] == {(2, 2)}
        assert d == 2.0

    def test_uncolored_nodes_never_map(self):
        t = index(LabeledTree(leafy("A", "B")))
        d, tables = zs_distance(t, t, unit_model(), colors=([None, None, 0], [None, None, 0]))
        assert extract_script(tables)[1] == {(2, 2)}
        assert d == 2.0
        d, tables = zs_distance(t, t, unit_model(), colors=([None] * 3, [None] * 3))
        assert extract_script(tables)[1] == set()
        assert d == 4.0

    def test_random_colors_restrict_and_replay(self, rng):
        m = structural_model(t=0.05)
        for _ in range(20):
            a = index(random_tree(rng, rng.randint(1, 12), 3, NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 12), 3, NODE_LABELS, EDGE_LABELS))
            colors = tuple([None] + [rng.choice((None, 0, 1)) for _ in range(t.n)]
                           for t in (a, b))
            d, tables = zs_distance(a, b, m, colors=colors)
            script, mapping = extract_script(tables)
            assert all(colors[0][i] is not None and colors[0][i] == colors[1][j]
                       for i, j in mapping)
            assert validate_mapping(a, b, mapping)
            assert trees_equal(replay_script(a, script).root, b.tree.root)
            assert script.total_cost == d >= zs_distance(a, b, m)[0]

    def test_no_or_uniform_colors_give_the_plain_tables(self, rng):
        m = structural_model(t=0.05)
        a = index(build(random_structure(rng, 60), "b"))
        b = index(build(random_structure(rng, 60), "b"))
        _, plain = zs_distance(a, b, m)
        for colors in (None, ([None] + [3] * a.n, [None] + [3] * b.n)):
            _, tables = zs_distance(a, b, m, colors=colors)
            assert tables.treedist == plain.treedist
            assert tables.match_table == plain.match_table
            assert (tables.a.cls, tables.b.cls, tables.cells) == (
                plain.a.cls, plain.b.cls, plain.cells)

    def test_match_priced_only_for_same_color_class_pairs(self, rng):
        base = structural_model(t=0.05)
        seen = []

        def match(p, q):
            seen.append((p, q))
            return base.match_fn(p, q)

        counting = dataclasses.replace(base, match_fn=match)
        a = index(build(random_structure(rng, 60), "b"))
        b = index(build(random_structure(rng, 60), "b"))
        colors = tuple([None] + [rng.choice((None, 0, 1, 2)) for _ in range(t.n)]
                       for t in (a, b))
        _, tables = zs_distance(a, b, counting, colors=colors)
        keys_a = {(a.pair(i), colors[0][i]) for i in range(1, a.n + 1)}
        keys_b = {(b.pair(j), colors[1][j]) for j in range(1, b.n + 1)}
        assert Counter(seen) == Counter((p, q) for p, c in keys_a for q, d in keys_b
                                        if c is not None and c == d)
        for i in range(1, a.n + 1):
            for j in range(1, b.n + 1):
                forbidden = colors[0][i] is None or colors[0][i] != colors[1][j]
                cost = tables.match_table[tables.a.cls[i]][tables.b.cls[j]]
                assert (cost == math.inf) == forbidden


def _zs_results(tables):
    script, mapping = extract_script(tables)
    return tables.distance.hex(), tables.treedist, script.ops, mapping


def _fusion_results(state):
    script, mapping = extract_fusion_script(state)
    return state.distance.hex(), state.memo, script.ops, mapping


class TestPrepared:
    """A sweep that prepares each tree once gets what fresh preparation
    on every call gives."""

    @pytest.mark.parametrize("model", [unit_model(t=0.1), structural_model(t=0.05)],
                             ids=["unit", "structural"])
    def test_reused_preparation_matches_fresh(self, rng, model):
        trees = [index(random_tree(rng, rng.randint(1, 10), 3, NODE_LABELS, EDGE_LABELS))
                 for _ in range(12)]
        colors = [[None] + [rng.choice((None, 0, 1)) for _ in range(t.n)] for t in trees]
        plain = [prepare(t, model) for t in trees]
        colored = [prepare(t, model, c) for t, c in zip(trees, colors)]
        for x, a in enumerate(trees):
            for y, b in enumerate(trees):
                assert (_zs_results(zs_distance(plain[x], plain[y], model)[1])
                        == _zs_results(zs_distance(a, b, model)[1]))
                assert (_zs_results(zs_distance(colored[x], colored[y], model)[1])
                        == _zs_results(zs_distance(a, b, model,
                                                   colors=(colors[x], colors[y]))[1]))
                for cap in (1, 2):
                    p = FusionParams(cap=cap)
                    assert (_fusion_results(fusion_dp(plain[x], plain[y], model, p)[1])
                            == _fusion_results(fusion_dp(a, b, model, p)[1]))
        assert all(len(t.sides) == 4 for t in plain)

    def test_another_model_or_colors_refused(self):
        t = index(LabeledTree(leafy("A", "B")))
        m = unit_model()
        p = prepare(t, m)
        for call in (lambda: zs_distance(p, t, unit_model()),
                     lambda: zs_distance(t, p, structural_model()),
                     lambda: fusion_dp(t, p, unit_model(), FusionParams(cap=1))):
            with pytest.raises(ValueError, match="only under the cost model it was prepared"):
                call()
        with pytest.raises(ValueError, match="with the colors it was prepared with"):
            zs_distance(p, p, m, colors=([None, 0, 0], [None, 0, 0]))
        assert zs_distance(p, p, m)[0] == 0.0


class TestScript:
    def test_identity_script_is_zero_cost_relabels(self, rng):
        m = unit_model()
        t = index(random_tree(rng, 6, 3, NODE_LABELS))
        _, tables = zs_distance(t, t, m)
        script, mapping = extract_script(tables)
        assert script.total_cost == 0.0
        assert all(op.kind == "relabel" for op in script.ops)
        assert mapping == {(i, i) for i in range(1, t.n + 1)}

    def test_single_relabel_script(self):
        a = index(LabeledTree(TreeNode(Label("A"))))
        b = index(LabeledTree(TreeNode(Label("B"))))
        _, tables = zs_distance(a, b, unit_model())
        script, mapping = extract_script(tables)
        assert [op.kind for op in script.ops] == ["relabel"]
        assert mapping == {(1, 1)}

    def test_worked_example_script(self, worked_example):
        a, b = worked_example
        _, tables = zs_distance(a, b, unit_model())
        script, mapping = extract_script(tables)
        assert script.total_cost == 3.0
        counts = script.counts()
        assert counts["delete"] == 1 and counts["insert"] == 1
        replayed = replay_script(a, script)
        assert trees_equal(replayed.root, b.tree.root)

    def test_replay_random_pairs(self, rng):
        m = structural_model(t=0.05)
        for _ in range(200):
            a = index(random_tree(rng, rng.randint(1, 8), 3,
                                  NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 8), 3,
                                  NODE_LABELS, EDGE_LABELS))
            d, tables = zs_distance(a, b, m)
            script, mapping = extract_script(tables)
            assert script.total_cost == d
            assert validate_mapping(a, b, mapping)
            replayed = replay_script(a, script)
            assert trees_equal(replayed.root, b.tree.root)

    def test_mapping_is_order_preserving(self, rng):
        m = unit_model()
        for _ in range(50):
            a = index(random_tree(rng, 7, 3, NODE_LABELS))
            b = index(random_tree(rng, 7, 3, NODE_LABELS))
            _, tables = zs_distance(a, b, m)
            _, mapping = extract_script(tables)
            assert validate_mapping(a, b, mapping)

    def test_deterministic_extraction(self, rng):
        m = unit_model()
        a = index(random_tree(rng, 8, 3, NODE_LABELS))
        b = index(random_tree(rng, 8, 3, NODE_LABELS))
        outs = set()
        for _ in range(3):
            _, tables = zs_distance(a, b, m)
            script, _ = extract_script(tables)
            outs.add(tuple((op.kind, op.cost) for op in script.ops))
        assert len(outs) == 1


def _label(k, distinct):
    return Label("a", (k,) if distinct else ())


def _path_tree(n, distinct=False):
    root = node = TreeNode(_label(0, distinct))
    for k in range(1, n):
        child = TreeNode(_label(k, distinct))
        node.add(child)
        node = child
    return index(LabeledTree(root))


def _star_tree(n, distinct=False):
    root = TreeNode(_label(0, distinct))
    for k in range(1, n):
        root.add(TreeNode(_label(k, distinct)))
    return index(LabeledTree(root))


def test_complexity_reflects_min_leaf_height():
    # both a path and a star have min(leaf, height) = 1, so the star case
    # must not be catastrophically slower than the path case
    m = unit_model()
    path = _path_tree(200)
    star = _star_tree(200)
    t0 = time.perf_counter()
    zs_distance(path, path, m)
    t_path = time.perf_counter() - t0
    t0 = time.perf_counter()
    zs_distance(star, star, m)
    t_star = time.perf_counter() - t0
    assert t_star < 5.0
    assert t_star < max(0.05, 25 * t_path)


def _all_passes_cells(a, b):
    """Forest cells of one pass per keyroot pair: sum |A_i| * sum |B_j|."""
    rows = sum(i - a.l[i] + 1 for i in a.keyroots)
    cols = sum(j - b.l[j] + 1 for j in b.keyroots)
    return rows * cols


def test_complexity_reflects_min_leaf_height_distinct_labels():
    # the same shapes with a different label on every node: no two
    # subtrees are equal, so the star runs one pass per keyroot pair,
    # 198 * 198 of them on a single cell
    m = unit_model()
    path = _path_tree(200, distinct=True)
    star = _star_tree(200, distinct=True)
    t0 = time.perf_counter()
    _, path_tables = zs_distance(path, path, m)
    t_path = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, star_tables = zs_distance(star, star, m)
    t_star = time.perf_counter() - t0
    assert path_tables.cells == 200 * 200
    assert star_tables.cells == (198 + 200) ** 2 == _all_passes_cells(star, star)
    assert t_star < 5.0
    assert t_star < max(0.05, 25 * t_path)


class TestSubtreeSharing:
    def test_cells_without_repeated_subtrees_are_all_passes(self, rng):
        m = unit_model()
        for _ in range(20):
            trees = []
            for _ in range(2):
                t = random_tree(rng, rng.randint(1, 30), 3)
                for k, node in enumerate(walk(t.root)):
                    node.label = Label("n", (k,))
                trees.append(index(t))
            a, b = trees
            _, tables = zs_distance(a, b, m)
            assert tables.cells == _all_passes_cells(a, b)

    def test_repeated_subtrees_fill_fewer_cells(self):
        m = structural_model(t=0.05)
        rng = random.Random(3)
        for _ in range(5):
            a = index(build(random_structure(rng, 120), "b"))
            b = index(build(random_structure(rng, 120), "b"))
            d, tables = zs_distance(a, b, m)
            assert 0 < tables.cells < _all_passes_cells(a, b)
            script, _ = extract_script(tables)
            assert script.total_cost == d
            assert trees_equal(replay_script(a, script).root, b.tree.root)

    def test_single_label_star_runs_two_passes_per_side(self):
        star = _star_tree(200)
        _, tables = zs_distance(star, star, unit_model())
        assert tables.cells == (1 + 200) ** 2


def _comb(teeth):
    """A right-nested comb: each spine node has a leaf, then the next
    spine node, as children, so every spine node is a keyroot and the
    tree is as deep as it has teeth."""
    root = spine = TreeNode(Label("a"))
    for _ in range(teeth):
        nxt = TreeNode(Label("a"))
        spine.add(TreeNode(Label("b")))
        spine.add(nxt)
        spine = nxt
    return index(LabeledTree(root))


def test_deep_comb_compares_and_extracts_under_low_recursion_limit():
    # built at the default limit; compared and extracted with only a few
    # frames to spare, fewer than the comb is deep
    a, b = _comb(30), _comb(29)
    m = unit_model()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 15)
    try:
        d, tables = zs_distance(a, b, m)
        script, mapping = extract_script(tables)
        order = a.preorder()
    finally:
        sys.setrecursionlimit(limit)
    assert d == script.total_cost == 2.0
    assert order[:3] == [a.n, 1, a.n - 1] and sorted(order) == list(range(1, a.n + 1))
    assert validate_mapping(a, b, mapping)
    assert trees_equal(replay_script(a, script).root, b.tree.root)
