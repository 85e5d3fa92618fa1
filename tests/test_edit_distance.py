import ast
import dataclasses
import gc
import json
import math
import random
import sys
import time
import weakref
from collections import Counter

import pytest

from rnatreedit import edit_distance, fusion_distance
from rnatreedit.cost_models import quantize, structural_model, unit_model
from rnatreedit.edit_distance import (DPTables, EditOp, EditScript, InternalError, _columns,
                                      _forest_pass, audit_script, extract_script, prepare,
                                      replay_script, validate_mapping, zs_distance)
from rnatreedit.fusion_distance import (FusionParams, compare_trees, extract_fusion_script,
                                        fusion_dp)
from rnatreedit.generators import labeled_trees, random_structure, random_tree
from rnatreedit.oracle import mapping_oracle
from rnatreedit.tree_model import (ROOT_LABEL, Label, LabeledTree, TreeNode, build, index,
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


def colored_zs(a, b, m, colors):
    """ZS between ``a`` and ``b``, each prepared with its node colors."""
    colors = colors or (None, None)
    return zs_distance(prepare(a, m, colors[0]), prepare(b, m, colors[1]), m)


class TestColors:
    """On trees prepared with colors, only nodes of equal, present colors
    may match."""

    def test_equal_labels_with_different_colors_never_map(self):
        t = index(LabeledTree(leafy("A", "B")))
        d, tables = colored_zs(t, t, unit_model(), ([None, 1, 0], [None, 2, 0]))
        assert extract_script(tables)[1] == {(2, 2)}
        assert d == 2.0

    def test_uncolored_nodes_never_map(self):
        t = index(LabeledTree(leafy("A", "B")))
        d, tables = colored_zs(t, t, unit_model(), ([None, None, 0], [None, None, 0]))
        assert extract_script(tables)[1] == {(2, 2)}
        assert d == 2.0
        d, tables = colored_zs(t, t, unit_model(), ([None] * 3, [None] * 3))
        assert extract_script(tables)[1] == set()
        assert d == 4.0

    def test_random_colors_restrict_and_replay(self, rng):
        m = structural_model(t=0.05)
        for _ in range(20):
            a = index(random_tree(rng, rng.randint(1, 12), 3, NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 12), 3, NODE_LABELS, EDGE_LABELS))
            colors = tuple([None] + [rng.choice((None, 0, 1)) for _ in range(t.n)]
                           for t in (a, b))
            d, tables = colored_zs(a, b, m, colors)
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
            _, tables = colored_zs(a, b, m, colors)
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
        _, tables = colored_zs(a, b, counting, colors)
        keys_a = {(a.pair(i), colors[0][i]) for i in range(1, a.n + 1)}
        keys_b = {(b.pair(j), colors[1][j]) for j in range(1, b.n + 1)}
        assert Counter(seen) == Counter((p, q) for p, c in keys_a for q, d in keys_b
                                        if c is not None and c == d)
        for i in range(1, a.n + 1):
            for j in range(1, b.n + 1):
                forbidden = colors[0][i] is None or colors[0][i] != colors[1][j]
                cost = tables.match_table[tables.a.cls[i]][tables.b.cls[j]]
                assert (cost == math.inf) == forbidden


def every_pass_zs(a, b, m):
    """The keyroot loop that runs the forest pass of every non-twin pair,
    including pairs of subtrees that share no color."""
    a, b = prepare(a, m), prepare(b, m)
    match_table = [[m.cost_match(p, q) if c is not None and c == d else math.inf
                    for q, d in b.keys] for p, c in a.keys]
    treedist = [[0.0] * (b.n + 1) for _ in range(a.n + 1)]
    tables = DPTables(a, b, treedist, 0.0, match_table)
    twins_a, twins_b = a.twins, b.twins
    la, lb = a.l, b.l
    columns = [(slice(lb[j], j + 1), slice(lb[twins_b[j]], twins_b[j] + 1))
               if j in twins_b else _columns(b, j) for j in b.keyroots]
    for i in a.keyroots:
        i0 = twins_a.get(i)
        if i0 is None:
            _forest_pass(tables, i, columns)
            continue
        for gi in range(la[i], i + 1):
            if la[gi] == la[i]:
                treedist[gi][:] = treedist[gi - i + i0]
    tables.cells = (sum(i - la[i] + 1 for i in a.keyroots if i not in twins_a)
                    * sum(j - lb[j] + 1 for j in b.keyroots if j not in twins_b))
    tables.distance = treedist[a.n][b.n]
    return tables.distance, tables


def _colored_tree(rng, n, palette):
    """A random tree and one color per node: each node keeps its parent's
    color with probability 3/4, so colors come in subtrees, as the
    multilevel coloring gives them."""
    t = index(random_tree(rng, n, 3, NODE_LABELS, EDGE_LABELS))
    colors = [None] * (t.n + 1)
    for i in t.preorder():
        inherit = i != t.root and rng.random() < 0.75
        colors[i] = colors[t.parent[i]] if inherit else rng.choice(palette)
    return t, colors


def _exact_results(tables):
    script, mapping = extract_script(tables)
    return (tables.distance.hex(), [[x.hex() for x in row] for row in tables.treedist],
            json.dumps(script.to_json()), mapping)


class TestDisjointColorSkip:
    """Passes over subtree pairs that share no color are skipped, and
    every output stays what running them gives."""

    PALETTE = (None, 0, 1, "stem")

    @pytest.mark.parametrize("model", [unit_model(t=0.1), structural_model(t=0.05),
                                       unit_model(ins_scale=1.5)],
                             ids=["unit", "structural", "ins_scale"])
    @pytest.mark.filterwarnings("ignore:cost model 'unit' has not passed validation")
    def test_skip_reproduces_every_pass(self, rng, model):
        skipped = 0
        for _ in range(60):
            (a, ca), (b, cb) = (_colored_tree(rng, rng.randint(1, 25), self.PALETTE)
                                for _ in range(2))
            _, tables = colored_zs(a, b, model, (ca, cb))
            _, ref = every_pass_zs(prepare(a, model, ca), prepare(b, model, cb), model)
            assert _exact_results(tables) == _exact_results(ref)
            assert tables.cells <= ref.cells
            skipped += tables.cells < ref.cells
        assert skipped >= 20

    def test_off_grid_prices_skip_nothing(self, rng):
        model = dataclasses.replace(unit_model(), del_fn=lambda p: 0.1)
        for _ in range(30):
            (a, ca), (b, cb) = (_colored_tree(rng, rng.randint(1, 25), self.PALETTE)
                                for _ in range(2))
            _, tables = colored_zs(a, b, model, (ca, cb))
            _, ref = every_pass_zs(prepare(a, model, ca), prepare(b, model, cb), model)
            assert _exact_results(tables) == _exact_results(ref)
            assert tables.cells == ref.cells

    def test_cells_leave_out_the_skipped_pairs(self):
        rng = random.Random(5)
        m = structural_model(t=0.05)
        (a, ca), (b, cb) = (_colored_tree(rng, 40, (None, 0, 1, 2)) for _ in range(2))
        _, tables = colored_zs(a, b, m, (ca, cb))

        def subtree_colors(t, colors, k):
            return {colors[g] for g in t.subtree_nodes(k)} - {None}

        live_a = [i for i in a.keyroots if i not in tables.a.twins]
        live_b = [j for j in b.keyroots if j not in tables.b.twins]
        skipped = sum(len(a.subtree_nodes(i)) * len(b.subtree_nodes(j))
                      for i in live_a for j in live_b
                      if not subtree_colors(a, ca, i) & subtree_colors(b, cb, j))
        assert skipped > 0
        assert tables.cells == (sum(len(a.subtree_nodes(i)) for i in live_a)
                                * sum(len(b.subtree_nodes(j)) for j in live_b) - skipped)


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
                        == _zs_results(colored_zs(a, b, model, (colors[x], colors[y]))[1]))
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
            prepare(p, m, [None, 0, 0])
        assert zs_distance(p, p, m)[0] == 0.0

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_color_list_of_the_wrong_length_refused(self, extra):
        t = index(random_tree(random.Random(13), 13, 3, NODE_LABELS, EDGE_LABELS))
        colors = [None] + [0] * (t.n + extra)
        with pytest.raises(ValueError, match=f"{t.n + 1 + extra} colors .* expected {t.n + 1}"):
            prepare(t, unit_model(), colors)

    def test_prepare_is_idempotent(self):
        t = index(LabeledTree(leafy("A", "B")))
        m = unit_model()
        for p in (prepare(t, m), prepare(t, m, [None, 0, 1])):
            assert prepare(p, m) is p
            for other in (lambda: prepare(p, unit_model()), lambda: prepare(p, m, [None, 0, 0])):
                with pytest.raises(ValueError):
                    other()

    def test_dropped_tree_frees_its_sides_without_the_collector(self, rng):
        """A kept side forms no reference cycle with its tree: with the
        collector off, the last reference to a tree compared at cap 1 frees
        the prepared tree and both its sides, whether the caller prepared it
        or the engine did."""
        m = structural_model(t=0.05)
        t = index(random_tree(rng, 8, 3, NODE_LABELS, EDGE_LABELS))
        gc.disable()
        try:
            for make in (lambda: prepare(t, m), lambda: t):
                tree = make()
                _, state = fusion_dp(tree, tree, m, FusionParams(cap=1))
                assert state.side_a is state.a.sides[True, FusionParams(cap=1)]
                refs = [weakref.ref(x) for x in (state.a, state.b, state.side_a, state.side_b)]
                del tree, state
                assert [ref() for ref in refs] == [None] * 4
        finally:
            gc.enable()


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



class TestScriptLayer:
    """The seven operations live beside the replay that checks them, and
    the classical engine's module needs nothing of the fusion module."""

    def test_every_operation_is_defined_here(self):
        def ops(module):
            return {v.kind for v in vars(module).values() if isinstance(v, type)
                    and issubclass(v, EditOp) and v is not EditOp
                    and v.__module__ == module.__name__}

        assert ops(edit_distance) == {"delete", "insert", "relabel", "node_fusion",
                                      "edge_fusion", "node_split", "edge_split"}
        assert ops(fusion_distance) == set()

    def test_no_import_from_the_fusion_module(self):
        tree = ast.parse(open(edit_distance.__file__).read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                assert not any("fusion_distance" in name for name in names), ast.unparse(node)


class TestAudit:
    """Each half of the replay audit fails with a message of its own."""

    @staticmethod
    def pair():
        """The smallest of the seeded pairs of at most 12 nodes on which an
        off-grid model's ZS script costs 1.0 and its distance 0.9999999999999999:
        root[a b] and root[b[b[a[a]]] a]."""
        def n(kind, *kids):
            return TreeNode(Label(kind), children=list(kids))

        a = TreeNode(ROOT_LABEL, children=[n("a"), n("b")])
        b = TreeNode(ROOT_LABEL, children=[n("b", n("b", n("a", n("a")))), n("a")])
        return index(LabeledTree(a)), index(LabeledTree(b))

    @staticmethod
    def model(match, indel):
        return dataclasses.replace(unit_model(), match_fn=lambda a, b: 0.0 if a == b else match,
                                   del_fn=lambda a: indel, ins_fn=lambda a: indel)

    def test_wrong_tree(self):
        a, b = self.pair()
        with pytest.raises(InternalError, match="failed to reproduce the target tree"):
            audit_script(a, b, EditScript(), 0.0)

    def test_wrong_cost(self):
        a, b = self.pair()
        for cap in (0, 1):
            with pytest.raises(InternalError) as err:
                compare_trees(a, b, self.model(0.1, 0.3), FusionParams(cap=cap))
            assert str(err.value) == "script costs 1.0, the distance is 0.9999999999999999"

    def test_prices_on_the_grid_pass(self):
        a, b = self.pair()
        for cap in (0, 1):
            d, script, _, _ = compare_trees(a, b, self.model(quantize(0.1), quantize(0.3)),
                                            FusionParams(cap=cap))
            assert script.total_cost == d


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
