import dataclasses
from collections import Counter

import pytest

from rnatreedit import fusion_distance
from rnatreedit.cost_models import structural_model, unit_model
from rnatreedit.edit_distance import (MalformedIndexError, prepare, replay_script,
                                      validate_mapping, zs_distance)
from rnatreedit.fusion_distance import (FusionParams, PathBudgetExceededError,
                                        compare_trees, extract_fusion_script,
                                        fusion_dp, path_count_bound)
from rnatreedit.generators import random_structure, random_tree
from rnatreedit.oracle import SearchBudget, script_search_oracle
from rnatreedit.rna_structures import parse_dotbracket
from rnatreedit.tree_model import (Label, LabeledTree, ROOT_LABEL, TreeNode,
                                   build, index, trees_equal, walk)

from conftest import EDGE_LABELS, NODE_LABELS


def mk(label, edge, *kids):
    n = TreeNode(label, edge)
    for k in kids:
        n.add(k)
    return n


@pytest.fixture
def helix_split():
    """One long helix against a helix-internal-helix chain: an edge
    fusion should absorb the extra loop object."""
    a = LabeledTree(mk(ROOT_LABEL, None,
                       mk(Label("hairpin", (3,)), Label("helix", (13,)))))
    b = LabeledTree(mk(ROOT_LABEL, None,
                       mk(Label("internal", (2,)), Label("helix", (7,)),
                          mk(Label("hairpin", (3,)), Label("helix", (5,))))))
    return index(a), index(b)


@pytest.fixture
def small_helix():
    """A tiny helix separating two loop elements that the other structure
    keeps as one node: a node fusion should merge them."""
    a = LabeledTree(mk(ROOT_LABEL, None,
                       mk(Label("bulge", (2,)), Label("helix", (4,)),
                          mk(Label("internal", (3,)), Label("helix", (1,)),
                             mk(Label("hairpin", (4,)), Label("helix", (4,)))))))
    b = LabeledTree(mk(ROOT_LABEL, None,
                       mk(Label("internal", (6,)), Label("helix", (4,)),
                          mk(Label("hairpin", (4,)), Label("helix", (4,))))))
    return index(a), index(b)


class TestReduction:
    def test_cap_zero_equals_classical(self, rng):
        m = structural_model(t=0.05)
        for _ in range(100):
            a = index(random_tree(rng, rng.randint(1, 10), 3,
                                  NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 10), 3,
                                  NODE_LABELS, EDGE_LABELS))
            fused, _ = fusion_dp(a, b, m, FusionParams(cap=0))
            classical, _ = zs_distance(a, b, m)
            assert fused == classical

    def test_priced_out_fusions_equal_classical(self, rng):
        m = unit_model(t=50.0)
        for _ in range(50):
            a = index(random_tree(rng, rng.randint(1, 8), 3, NODE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 8), 3, NODE_LABELS))
            fused, _ = fusion_dp(a, b, m, FusionParams(cap=1))
            assert fused == zs_distance(a, b, m)[0]


class TestFixtures:
    def test_helix_split_prefers_edge_fusion(self, helix_split):
        a, b = helix_split
        m = structural_model(t=0.05)
        classical, _ = zs_distance(a, b, m)
        fused, state = fusion_dp(a, b, m, FusionParams(cap=1))
        assert fused < classical
        # the oracle defines the expected value
        assert fused == script_search_oracle(a, b, m, SearchBudget(fusion_cap=1))
        script, mapping = extract_fusion_script(state)
        counts = script.counts()
        assert counts.get("edge_split", 0) == 1
        # the single left helix object maps to the fused right group
        fused_groups = [g for g in mapping if len(g[0]) > 1 or len(g[1]) > 1]
        assert len(fused_groups) == 1
        assert len(fused_groups[0][1]) == 2

    def test_small_helix_prefers_node_fusion(self, small_helix):
        a, b = small_helix
        m = structural_model(t=0.05)
        classical, _ = zs_distance(a, b, m)
        fused, state = fusion_dp(a, b, m, FusionParams(cap=1))
        assert fused < classical
        assert fused == script_search_oracle(a, b, m, SearchBudget(fusion_cap=1))
        script, _ = extract_fusion_script(state)
        assert script.counts().get("node_fusion", 0) == 1

    def test_identity(self, rng):
        m = structural_model(t=0.05)
        for _ in range(20):
            t = index(random_tree(rng, rng.randint(1, 10), 3,
                                  NODE_LABELS, EDGE_LABELS))
            d, _ = fusion_dp(t, t, m, FusionParams(cap=1))
            assert d == 0.0


class TestDominance:
    def test_fusion_never_worse_than_classical(self, rng):
        m = structural_model(t=0.05)
        for _ in range(150):
            a = index(random_tree(rng, rng.randint(1, 9), 3,
                                  NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 9), 3,
                                  NODE_LABELS, EDGE_LABELS))
            classical, _ = zs_distance(a, b, m)
            for cap in (1, 2):
                fused, _ = fusion_dp(a, b, m, FusionParams(cap=cap))
                assert fused <= classical


class TestMetricAxioms:
    def test_symmetry_and_nonnegativity(self, rng):
        for m in (unit_model(t=0.1), structural_model(t=0.05)):
            for _ in range(60):
                a = index(random_tree(rng, rng.randint(1, 7), 3,
                                      NODE_LABELS, EDGE_LABELS))
                b = index(random_tree(rng, rng.randint(1, 7), 3,
                                      NODE_LABELS, EDGE_LABELS))
                dab, _ = fusion_dp(a, b, m, FusionParams(cap=1))
                dba, _ = fusion_dp(b, a, m, FusionParams(cap=1))
                assert dab >= 0
                assert dab == dba
                if trees_equal(a.tree.root, b.tree.root):
                    assert dab == 0
                else:
                    assert dab > 0

    def test_triangle(self, rng):
        m = structural_model(t=0.05)
        for _ in range(60):
            ts = [index(random_tree(rng, rng.randint(1, 6), 3,
                                    NODE_LABELS, EDGE_LABELS))
                  for _ in range(3)]
            dab, _ = fusion_dp(ts[0], ts[1], m, FusionParams(cap=1))
            dbc, _ = fusion_dp(ts[1], ts[2], m, FusionParams(cap=1))
            dac, _ = fusion_dp(ts[0], ts[2], m, FusionParams(cap=1))
            assert dac <= dab + dbc + 1e-9


class TestPruning:
    def test_pruned_equals_unpruned_small(self, rng):
        m = structural_model(t=0.05)
        for _ in range(80):
            a = index(random_tree(rng, rng.randint(1, 6), 3,
                                  NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 6), 3,
                                  NODE_LABELS, EDGE_LABELS))
            for cap in (1, 2):
                on, _ = fusion_dp(a, b, m, FusionParams(cap=cap, prune=True))
                off, _ = fusion_dp(a, b, m, FusionParams(cap=cap, prune=False))
                assert on == off


class TestTMonotonicity:
    def test_distance_non_decreasing_in_t(self, helix_split):
        a, b = helix_split
        previous = -1.0
        for k in range(21):
            m = structural_model(t=0.5 * k / 20)
            d, _ = fusion_dp(a, b, m, FusionParams(cap=1))
            assert d >= previous
            previous = d

    def test_threshold_between_fusion_and_classical(self, helix_split):
        a, b = helix_split
        classical, _ = zs_distance(a, b, structural_model(t=0.0))
        uses_fusion = []
        for t in (0.0, 0.05, 0.2, 0.45, 0.6, 0.9):
            m = structural_model(t=t)
            d, state = fusion_dp(a, b, m, FusionParams(cap=1))
            script, _ = extract_fusion_script(state)
            has_split = any(op.kind in ("edge_split", "node_split",
                                        "edge_fusion", "node_fusion")
                            for op in script.ops)
            uses_fusion.append(has_split)
        assert uses_fusion[0] and not uses_fusion[-1]
        # fusion use is monotone: once it stops paying, it stays off
        assert sorted(uses_fusion, reverse=True) == uses_fusion


class TestOracleAgreement:
    def test_exhaustive_tiny(self, rng):
        m = structural_model(t=0.05)
        for _ in range(60):
            a = index(random_tree(rng, rng.randint(1, 5), 3,
                                  NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 5), 3,
                                  NODE_LABELS, EDGE_LABELS))
            for cap in (1, 2):
                d, _ = fusion_dp(a, b, m, FusionParams(cap=cap))
                ref = script_search_oracle(a, b, m, SearchBudget(fusion_cap=cap))
                assert d == ref

    def test_random_seven_node_pairs(self, rng):
        m = structural_model(t=0.05)
        for _ in range(100):
            a = index(random_tree(rng, 7, 3, NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, 7, 3, NODE_LABELS, EDGE_LABELS))
            d, _ = fusion_dp(a, b, m, FusionParams(cap=1))
            ref = script_search_oracle(a, b, m, SearchBudget(fusion_cap=1))
            assert d == ref


class TestScripts:
    def test_replay_and_cost_audit(self, rng):
        m = structural_model(t=0.05)
        for _ in range(150):
            a = index(random_tree(rng, rng.randint(1, 8), 3,
                                  NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 8), 3,
                                  NODE_LABELS, EDGE_LABELS))
            for cap in (1, 2):
                d, state = fusion_dp(a, b, m, FusionParams(cap=cap))
                script, mapping = extract_fusion_script(state)
                assert script.total_cost == d
                replayed = replay_script(a, script)
                assert trees_equal(replayed.root, b.tree.root)
                # groups map as units: members are disjoint across entries
                seen_a, seen_b = set(), set()
                for ga, gb in mapping:
                    assert not (set(ga) & seen_a) and not (set(gb) & seen_b)
                    seen_a |= set(ga)
                    seen_b |= set(gb)

    def test_identity_script_empty_effect(self, rng):
        m = unit_model()
        t = index(random_tree(rng, 6, 3, NODE_LABELS, EDGE_LABELS))
        d, state = fusion_dp(t, t, m, FusionParams(cap=1))
        script, mapping = extract_fusion_script(state)
        assert d == 0.0 and script.total_cost == 0.0
        assert all(op.kind == "relabel" for op in script.ops)
        assert sorted(mapping) == [((i,), (i,)) for i in range(1, t.n + 1)]

    def test_corrupt_table_is_detected(self, small_helix):
        a, b = small_helix
        _, state = fusion_dp(a, b, structural_model(t=0.05), FusionParams(cap=1))
        state.memo[-1] += 0.25
        with pytest.raises(MalformedIndexError, match="does not reproduce"):
            extract_fusion_script(state)


class TestColors:
    @staticmethod
    def rep_b_pair():
        return (index(build(parse_dotbracket(f"GGGAAACCCAGGGAAACCC\n{s}"), "b"))
                for s in ("(((...))).(((...)))", "((.....)).(((...)))"))

    def test_fusion_dp_refuses_colored_trees(self):
        """The fusion DP does not read colors, so it refuses a colored tree
        rather than return the uncolored distance."""
        m = structural_model()
        a, b = self.rep_b_pair()
        pa, pb = prepare(a, m, [1] * (a.n + 1)), prepare(b, m, [2] * (b.n + 1))
        assert zs_distance(pa, pb, m)[0] == 3.625
        assert fusion_dp(a, b, m, FusionParams(cap=0))[0] == 0.375
        for cap in (0, 1):
            with pytest.raises(ValueError, match="color restriction needs cap 0"):
                fusion_dp(pa, pb, m, FusionParams(cap=cap))
            with pytest.raises(ValueError, match="color restriction needs cap 0"):
                fusion_dp(a, pb, m, FusionParams(cap=cap))

    def test_compare_trees_at_cap_0_restricts_colors(self):
        m = structural_model()
        a, b = self.rep_b_pair()
        d, script, mapping, _ = compare_trees(prepare(a, m, [1] * (a.n + 1)),
                                              prepare(b, m, [2] * (b.n + 1)), m,
                                              FusionParams(cap=0))
        assert d == script.total_cost == 3.625 and mapping == []


H1, H4 = Label("helix", (1,)), Label("helix", (4,))
HAIRPIN, BULGE, MULTI = Label("hairpin", (3,)), Label("bulge", (2,)), Label("multiloop", (5,))
I9, X2 = NODE_LABELS[1], EDGE_LABELS[0]
SCALED = unit_model(cap=True, ins_scale=1.5, del_scale=1.5)


class TestExtractionPaths:
    """One pinned pair per extraction and replay path that random pairs
    rarely reach (each pair was found by a seeded random search).  The
    script must replay at the distance and the group mapping be valid."""

    @pytest.fixture
    def compare(self, monkeypatch):
        """compare_trees at cap 1, also returning the decisions extracted."""
        recorded = []
        assemble = fusion_distance.assemble_script

        def recording(a, b, decisions):
            recorded.append(decisions)
            return assemble(a, b, decisions)

        monkeypatch.setattr(fusion_distance, "assemble_script", recording)

        def run(ta, tb, m):
            a, b = index(LabeledTree(ta)), index(LabeledTree(tb))
            d, script, mapping, _ = compare_trees(a, b, m, FusionParams(cap=1))
            assert script.total_cost == d
            replayed = replay_script(a, script).root
            assert trees_equal(replayed, b.tree.root)
            assert all(c.parent is n for n in walk(replayed) for c in n.children)
            members_a = [x for g, _ in mapping for x in g]
            members_b = [y for _, h in mapping for y in h]
            assert len(set(members_a)) == len(members_a)
            assert len(set(members_b)) == len(members_b)
            # a group's root is its largest postorder id
            assert validate_mapping(a, b, {(g[-1], h[-1]) for g, h in mapping})
            return a, b, script, recorded[-1]

        return run

    @pytest.mark.parametrize("reverse", [False, True])
    def test_forest_removed_root_by_root(self, compare, reverse):
        """Against a lone root, every other node is removed from a forest
        state, one rightmost root at a time."""
        pair = (mk(ROOT_LABEL, None, mk(MULTI, H1, mk(HAIRPIN, H1), mk(BULGE, H4)),
                   mk(HAIRPIN, H4)),
                mk(ROOT_LABEL, None))
        a, b, script, _ = compare(*(pair[::-1] if reverse else pair), structural_model())
        kind, n = ("insert", b.n) if reverse else ("delete", a.n)
        assert sorted(op.node for op in script.ops if op.kind == kind) == list(range(1, n))

    DELETED = (mk(ROOT_LABEL, None, mk(I9, X2, mk(I9, X2), mk(I9, X2))),
               mk(ROOT_LABEL, None, mk(I9, X2)))

    @pytest.mark.filterwarnings("ignore:cost model")
    def test_fused_group_deleted_whole(self, compare):
        a, _, script, decisions = compare(*self.DELETED, SCALED)
        fused = [d for d in decisions.deleted if d[1]]
        assert fused
        for root, marks, cost in fused:
            ops = [(op.kind, op.cost) for op in script.ops
                   if getattr(op, "node", None) == root or getattr(op, "rep", None) == root]
            assert ("delete", cost) in ops
            assert any(kind.endswith("_fusion") for kind, _ in ops)

    @pytest.mark.filterwarnings("ignore:cost model")
    def test_fused_group_inserted_whole(self, compare):
        _, b, script, decisions = compare(*reversed(self.DELETED), SCALED)
        fused = [marks for _, marks, _ in decisions.inserted if marks]
        assert fused
        inserted = {op.node for op in script.ops if op.kind == "insert"}
        for marks in fused:
            assert marks[-1].identity in inserted
        assert any(op.kind.endswith("_split") for op in script.ops)

    DISPLACED = (mk(ROOT_LABEL, None, mk(MULTI, H1, mk(HAIRPIN, H1), mk(BULGE, H1)),
                    mk(HAIRPIN, H1)),
                 mk(ROOT_LABEL, None, mk(BULGE, H4)))

    def test_edge_fusion_deletes_displaced_siblings(self, compare):
        _, _, script, decisions = compare(*self.DISPLACED, structural_model())
        displaced = {d for g in decisions.groups for mk_ in g.i_marks
                     if mk_.kind == "edge" for d in mk_.displaced}
        assert displaced
        ops = [op.kind for op in script.ops]
        fusion = ops.index("edge_fusion")
        deleted = {op.node for op in script.ops[:fusion] if op.kind == "delete"}
        assert displaced <= deleted

    def test_edge_split_inserts_displaced_siblings(self, compare):
        _, _, script, decisions = compare(*reversed(self.DISPLACED), structural_model())
        displaced = {d for g in decisions.groups for mk_ in g.j_marks
                     if mk_.kind == "edge" for d in mk_.displaced}
        assert displaced
        assert displaced <= {node for node, marks, _ in decisions.inserted if not marks}
        assert displaced <= {op.node for op in script.ops if op.kind == "insert"}

    def test_edge_fusion_reparents_grandchildren(self, compare):
        a, _, script, _ = compare(
            mk(ROOT_LABEL, None, mk(HAIRPIN, H1, mk(HAIRPIN, H1, mk(MULTI, H4)))),
            mk(ROOT_LABEL, None, mk(MULTI, H4, mk(MULTI, H4))), structural_model())
        assert any(op.kind == "edge_fusion" and a.children[op.child] for op in script.ops)


class TestMatchRows:
    """A B side prices match rows by parts when the model names its part
    function, and whole pairs otherwise, with the same floats."""

    @pytest.mark.parametrize("normalization", ["sum", "min", "max", "avg"])
    def test_part_rows_equal_whole_prices(self, rng, normalization):
        m = structural_model(t=0.05, normalization=normalization)
        for rep in "cd":
            for cap in (1, 2):
                p = FusionParams(cap=cap)
                a, b = (prepare(index(build(random_structure(rng, 40), rep)), m)
                        for _ in range(2))
                sa = fusion_distance._side(a, True, p)
                sb = fusion_distance._side(b, False, p)
                assert sb.part is not None
                merged = {lbl for side in (sa, sb) for lbl in side.merged if lbl}
                assert len(merged) > len(sb.label_pairs) // 2, (rep, cap)
                for lbl in merged:
                    assert [x.hex() for x in sb.match_row(lbl)] == [
                        m.cost_match(lbl, q).hex() for q in sb.label_pairs], (rep, cap, lbl)

    def test_rebuilt_match_fn_prices_whole_pairs(self, rng):
        base = structural_model(t=0.05)
        seen = []

        def counting(p, q):
            seen.append((p, q))
            return base.match_fn(p, q)

        counted = dataclasses.replace(base, match_fn=counting)
        for rep in "cd":
            a, b = (index(build(random_structure(rng, 40), rep)) for _ in range(2))
            seen.clear()
            _, state = fusion_dp(a, b, counted, FusionParams(cap=1))
            sb = state.side_b
            assert sb.part is None
            assert Counter(seen) == Counter((p, q) for p in sb.match_rows
                                            for q in sb.label_pairs), rep
            _, parts = fusion_dp(a, b, base, FusionParams(cap=1))
            assert parts.side_b.part is not None
            assert state.memo.tobytes() == parts.memo.tobytes(), rep


class TestPathCountBound:
    def test_empty_path(self):
        assert path_count_bound(2, 0) == 1
        assert path_count_bound(7, 0) == 1

    def test_degree_two_single_fusion(self):
        # {(u,c1), (u,c2), (e,c1), (e,c2)}
        assert path_count_bound(2, 1) == 4

    def test_growth_by_level(self):
        # level k multiplies by 2 * sum(d^j, j=1..k)
        assert path_count_bound(2, 2) == 4 * 2 * (2 + 4)
        assert path_count_bound(3, 1) == 2 * 3

    def test_rejects_degenerate_degree(self):
        with pytest.raises(ValueError):
            path_count_bound(1, 1)

    def test_observed_paths_within_budget(self, rng):
        m = structural_model(t=0.05)
        most = 0
        for _ in range(20):
            a = index(random_tree(rng, 8, 4, NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, 8, 4, NODE_LABELS, EDGE_LABELS))
            _, state = fusion_dp(a, b, m, FusionParams(cap=2))
            for side in (state.side_a, state.side_b):
                d = max(2, side.t.max_degree)
                budget = sum(path_count_bound(d, k) for k in range(3))
                counts = side.path_counts()
                assert set(counts) == set(range(1, side.t.n + 1))
                assert max(counts.values()) <= budget
                most = max(most, max(counts.values()))
        # fused paths were enumerated, not only the empty one per root
        assert most > 1

    def test_budget_violation_raises(self, helix_split, monkeypatch):
        monkeypatch.setattr(fusion_distance, "path_count_bound",
                            lambda d, cap: 1 if cap == 0 else 0)
        a, b = helix_split
        with pytest.raises(PathBudgetExceededError,
                           match=r"root \d+: \d+ fusion paths, budget 1"):
            fusion_dp(a, b, structural_model(t=0.05), FusionParams(cap=1))


class TestParams:
    def test_cap_out_of_range(self):
        with pytest.raises(ValueError):
            FusionParams(cap=4)
        with pytest.raises(ValueError):
            FusionParams(cap=-1)

    def test_high_cap_warns(self):
        with pytest.warns(UserWarning) as record:
            FusionParams(cap=3)
        # The warning names the caller's line, not the generated __init__.
        assert [w.filename for w in record] == [__file__]
