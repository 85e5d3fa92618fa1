import pytest

from rnatreedit.cost_models import structural_model, unit_model
from rnatreedit.generators import labeled_trees, random_tree
from rnatreedit.oracle import (MAX_ORACLE_NODES, BudgetExceededError,
                               MappingOracleCache, SearchBudget,
                               mapping_oracle, script_search_oracle,
                               valid_mapping_skeletons)
from rnatreedit.tree_model import Label, LabeledTree, TreeNode, index

from conftest import EDGE_LABELS, NODE_LABELS


def single(kind):
    return index(LabeledTree(TreeNode(Label(kind))))


class TestMappingOracle:
    def test_identical_single_nodes(self):
        assert mapping_oracle(single("A"), single("A"), unit_model()) == 0.0

    def test_single_relabel(self):
        assert mapping_oracle(single("A"), single("B"), unit_model()) == 1.0

    def test_budget_enforced(self, rng):
        big = index(random_tree(rng, MAX_ORACLE_NODES + 1, 3, NODE_LABELS))
        with pytest.raises(BudgetExceededError):
            mapping_oracle(big, big, unit_model())
        with pytest.raises(BudgetExceededError):
            MappingOracleCache().distance(big, big, unit_model())

    def test_cache_matches_oracle(self, rng):
        # every labeling of each small shape, plus random trees with a
        # second edge label; shapes recur across labelings and sizes
        corpus = [index(t) for n in range(1, 4)
                  for t in labeled_trees(n, NODE_LABELS, EDGE_LABELS[0])]
        corpus += [index(random_tree(rng, rng.randint(1, 6), 3, NODE_LABELS,
                                     EDGE_LABELS + [Label("y", (5,))]))
                   for _ in range(20)]
        cache = MappingOracleCache()
        for m in (unit_model(), structural_model(t=0.05)):
            for a in corpus:
                for b in corpus:
                    assert cache.distance(a, b, m) == mapping_oracle(a, b, m)

    def test_skeletons_preserve_order(self, rng):
        a = index(random_tree(rng, 5, 3, NODE_LABELS))
        b = index(random_tree(rng, 5, 3, NODE_LABELS))

        def is_anc(t, u, v):
            return t.l[u] <= v < u

        for sa, sb in valid_mapping_skeletons(a, b):
            pairs = list(zip(sa, sb))
            for (u, uj) in pairs:
                for (v, vj) in pairs:
                    assert is_anc(a, u, v) == is_anc(b, uj, vj)

    def test_deterministic(self, rng):
        m = structural_model()
        a = index(random_tree(rng, 6, 3, NODE_LABELS, EDGE_LABELS))
        b = index(random_tree(rng, 6, 3, NODE_LABELS, EDGE_LABELS))
        assert mapping_oracle(a, b, m) == mapping_oracle(a, b, m)


class TestScriptSearch:
    def test_identical_trees(self, rng):
        t = index(random_tree(rng, 3, 3, NODE_LABELS, EDGE_LABELS))
        assert script_search_oracle(t, t, unit_model()) == 0.0

    def test_fusion_free_agrees_with_mapping_oracle(self, rng):
        # with fusions priced out of reach the search degenerates to the
        # classical three operations
        m = unit_model(t=100.0)
        for _ in range(40):
            a = index(random_tree(rng, rng.randint(1, 5), 3, NODE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 5), 3, NODE_LABELS))
            got = script_search_oracle(a, b, m, SearchBudget(fusion_cap=1))
            assert got == mapping_oracle(a, b, m)

    def test_disabled_fusions_equal_mapping_oracle(self, rng):
        # cross-oracle consistency: cap 0 removes the extra operations
        m = structural_model(t=0.05)
        for _ in range(60):
            a = index(random_tree(rng, rng.randint(1, 5), 3,
                                  NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 5), 3,
                                  NODE_LABELS, EDGE_LABELS))
            got = script_search_oracle(a, b, m, SearchBudget(fusion_cap=0))
            assert got == mapping_oracle(a, b, m)

    def test_budget_enforced(self, rng):
        big = index(random_tree(rng, 9, 3, NODE_LABELS))
        with pytest.raises(BudgetExceededError):
            script_search_oracle(big, big, unit_model())

    def test_canonical_matches_free_order(self, rng):
        # The factored search must agree with raw interleaved scripts.
        # The free search explodes fast, so it runs on tiny trees with its
        # cost ceiling pinned just above the factored answer: any cheaper
        # interleaving would lie below the ceiling and be found.
        cases = []
        while len(cases) < 6:
            a = index(random_tree(rng, rng.randint(1, 3), 3,
                                  NODE_LABELS, EDGE_LABELS))
            b = index(random_tree(rng, rng.randint(1, 3), 3,
                                  NODE_LABELS, EDGE_LABELS))
            cases.append((a, b))
        configs = [(unit_model(t=0.1), 1), (unit_model(t=0.1), 2),
                   (structural_model(t=0.05), 1)]
        for a, b in cases:
            for m, cap in configs:
                fast = script_search_oracle(a, b, m, SearchBudget(fusion_cap=cap))
                free = script_search_oracle(
                    a, b, m, SearchBudget(fusion_cap=cap, free_order=True,
                                          cost_bound=fast + 1e-9))
                assert fast == free

    def test_helix_split_micro_case(self):
        # a 3-node chain whose middle object fuses away must beat the
        # classical distance by construction
        from rnatreedit.tree_model import ROOT_LABEL

        def mk(label, edge, *kids):
            n = TreeNode(label, edge)
            for k in kids:
                n.add(k)
            return n

        t1 = LabeledTree(mk(ROOT_LABEL, None,
                            mk(Label("hairpin", (3,)), Label("helix", (13,)))))
        t2 = LabeledTree(mk(ROOT_LABEL, None,
                            mk(Label("internal", (2,)), Label("helix", (7,)),
                               mk(Label("hairpin", (3,)), Label("helix", (5,))))))
        a, b = index(t1), index(t2)
        m = structural_model(t=0.05)
        fused = script_search_oracle(a, b, m, SearchBudget(fusion_cap=1))
        classical = mapping_oracle(a, b, m)
        assert fused < classical

    def test_deterministic(self, rng):
        m = structural_model(t=0.05)
        a = index(random_tree(rng, 4, 3, NODE_LABELS, EDGE_LABELS))
        b = index(random_tree(rng, 4, 3, NODE_LABELS, EDGE_LABELS))
        budget = SearchBudget(fusion_cap=1)
        assert (script_search_oracle(a, b, m, budget)
                == script_search_oracle(a, b, m, budget))
