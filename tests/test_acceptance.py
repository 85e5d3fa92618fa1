"""Acceptance criteria, one test per criterion.

Each test prints an ``ACCEPTANCE n: PASS/FAIL`` line directly to the
terminal.  Expected values come from the independent oracles or from the
fixed fixtures; no tolerance is looser than stated (exact equality unless
noted, 1e-9 slack on triangle sums only).
"""

import functools
import random
import resource
import sys
import time

import pytest

from rnatreedit.cost_models import structural_model, unit_model
from rnatreedit.edit_distance import extract_script, prepare, replay_script, zs_distance
from rnatreedit.fusion_distance import (FusionParams, extract_fusion_script,
                                        fusion_dp)
from rnatreedit.generators import labeled_trees, random_structure, random_tree
from rnatreedit.multilevel import multilevel_compare
from rnatreedit.oracle import (MappingOracleCache, SearchBudget,
                               mapping_oracle, script_search_oracle)
from rnatreedit.rna_structures import (PseudoknotDetectedError, decompose,
                                       emit_ct, emit_dotbracket, parse_ct,
                                       parse_dotbracket)
from rnatreedit.tree_model import (Label, LabeledTree, ROOT_LABEL, TreeNode,
                                   build_rep_b, index, trees_equal)


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}",
                      file=sys.__stdout__, flush=True)
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}",
                  file=sys.__stdout__, flush=True)
        return wrapper
    return deco


# --- enumerations shared between criteria -----------------------------------

UNIT_ALPHABET = [Label("a"), Label("b")]
STRUCT_NODE_LABELS = [Label("h", (1,)), Label("i", (9,))]
STRUCT_EDGE = Label("x", (2,))
T_VALUES = (0.0, 0.05, 0.2)


@pytest.fixture(scope="module")
def unit_trees():
    """All labeled trees with <= 5 nodes over a two-letter alphabet."""
    return {n: [index(t) for t in labeled_trees(n, UNIT_ALPHABET)]
            for n in range(1, 6)}


@pytest.fixture(scope="module")
def struct_trees():
    """All labeled trees with <= 5 nodes over the sized two-label alphabet."""
    return {n: [index(t) for t in labeled_trees(n, STRUCT_NODE_LABELS,
                                                STRUCT_EDGE)]
            for n in range(1, 6)}


def _random_struct_tree(rng, max_nodes):
    return index(random_tree(rng, rng.randint(1, max_nodes), 3,
                             STRUCT_NODE_LABELS, [STRUCT_EDGE]))


@pytest.fixture(scope="module")
def fusion_suite(struct_trees):
    """Criterion 2 corpus: exhaustive over combined size <= 6 plus a
    deterministic sample of the larger square size classes."""
    pairs = []
    for na in range(1, 6):
        for nb in range(1, 6):
            if na + nb <= 6:
                pairs.extend((a, b) for a in struct_trees[na]
                             for b in struct_trees[nb])
    rng = random.Random(20240809)
    for na, nb in ((4, 4), (4, 5), (5, 4), (5, 5)):
        for _ in range(10):
            pairs.append((rng.choice(struct_trees[na]),
                          rng.choice(struct_trees[nb])))
    return pairs


@pytest.fixture(scope="module")
def fusion_suite_results(fusion_suite):
    """Pruned and unpruned distances plus oracle values for the corpus."""
    models = {t: structural_model(t=t) for t in T_VALUES}
    results = []
    for a, b in fusion_suite:
        for cap in (1, 2):
            for t, model in models.items():
                pruned, _ = fusion_dp(a, b, model, FusionParams(cap=cap))
                unpruned, _ = fusion_dp(a, b, model,
                                        FusionParams(cap=cap, prune=False))
                ref = script_search_oracle(a, b, model,
                                           SearchBudget(fusion_cap=cap))
                results.append((a, b, cap, t, pruned, unpruned, ref))
    return results


@criterion(1, "classical distance equals the mapping oracle "
              "(exhaustive <=5 nodes, 200 random <=8-node pairs)")
def test_criterion_1_classical_oracle(unit_trees):
    m = unit_model()
    oracle = MappingOracleCache()
    everything = [prepare(t, m) for n in range(1, 6) for t in unit_trees[n]]
    for a in everything:
        for b in everything:
            d, _ = zs_distance(a, b, m)
            assert d == oracle.distance(a, b, m)
    rng = random.Random(1001)
    ms = structural_model(t=0.05)
    for _ in range(200):
        a = _random_struct_tree(rng, 8)
        b = _random_struct_tree(rng, 8)
        d, _ = zs_distance(a, b, ms)
        assert d == mapping_oracle(a, b, ms)


@criterion(2, "fusion distance equals the script-search oracle on the "
              "small-tree corpus for caps 1 and 2 and t in {0, 0.05, 0.2}")
def test_criterion_2_fusion_oracle(fusion_suite_results):
    for a, b, cap, t, pruned, _unpruned, ref in fusion_suite_results:
        assert pruned == ref, (cap, t, pruned, ref)


@criterion(3, "metric axioms hold: non-negativity, identity, symmetry "
              "(200 pairs), triangle (200 triples), unit and structural")
def test_criterion_3_metric_axioms():
    rng = random.Random(3003)
    params = FusionParams(cap=1)
    for m in (unit_model(t=0.1), structural_model(t=0.05)):
        for _ in range(100):
            a = _random_struct_tree(rng, 7)
            b = _random_struct_tree(rng, 7)
            dab, _ = fusion_dp(a, b, m, params)
            dba, _ = fusion_dp(b, a, m, params)
            assert dab >= 0.0
            assert dab == dba
            identical = trees_equal(a.tree.root, b.tree.root)
            assert (dab == 0.0) == identical
            d_self, _ = fusion_dp(a, a, m, params)
            assert d_self == 0.0
        for _ in range(100):
            ts = [_random_struct_tree(rng, 6) for _ in range(3)]
            dab, _ = fusion_dp(ts[0], ts[1], m, params)
            dbc, _ = fusion_dp(ts[1], ts[2], m, params)
            dac, _ = fusion_dp(ts[0], ts[2], m, params)
            assert dac <= dab + dbc + 1e-9


def _mk(label, edge, *kids):
    n = TreeNode(label, edge)
    for k in kids:
        n.add(k)
    return n


def _helix_split_pair():
    a = LabeledTree(_mk(ROOT_LABEL, None,
                        _mk(Label("hairpin", (3,)), Label("helix", (13,)))))
    b = LabeledTree(_mk(ROOT_LABEL, None,
                        _mk(Label("internal", (2,)), Label("helix", (7,)),
                            _mk(Label("hairpin", (3,)), Label("helix", (5,))))))
    return index(a), index(b)


def _small_helix_pair():
    a = LabeledTree(_mk(ROOT_LABEL, None,
                        _mk(Label("bulge", (2,)), Label("helix", (4,)),
                            _mk(Label("internal", (3,)), Label("helix", (1,)),
                                _mk(Label("hairpin", (4,)), Label("helix", (4,)))))))
    b = LabeledTree(_mk(ROOT_LABEL, None,
                        _mk(Label("internal", (6,)), Label("helix", (4,)),
                            _mk(Label("hairpin", (4,)), Label("helix", (4,))))))
    return index(a), index(b)


@criterion(4, "cap 0 reduces to the classical distance (500 pairs); "
              "fusion dominates classically, strictly on both fixtures")
def test_criterion_4_reduction_and_dominance():
    rng = random.Random(4004)
    m = structural_model(t=0.05)
    for _ in range(500):
        a = _random_struct_tree(rng, 9)
        b = _random_struct_tree(rng, 9)
        classical, _ = zs_distance(a, b, m)
        reduced, _ = fusion_dp(a, b, m, FusionParams(cap=0))
        assert reduced == classical
        for cap in (1, 2):
            fused, _ = fusion_dp(a, b, m, FusionParams(cap=cap))
            assert fused <= classical
    for a, b in (_helix_split_pair(), _small_helix_pair()):
        classical, _ = zs_distance(a, b, m)
        fused, _ = fusion_dp(a, b, m, FusionParams(cap=1))
        assert fused < classical


@criterion(5, "the node-then-edge fusion pruning never changes the "
              "distance on the criterion-2 corpus")
def test_criterion_5_pruning_soundness(fusion_suite_results):
    for a, b, cap, t, pruned, unpruned, _ref in fusion_suite_results:
        assert pruned == unpruned, (cap, t, pruned, unpruned)


@criterion(6, "a tuning threshold separates fused from fusion-free optima "
              "and the distance is non-decreasing over a 20-point t sweep")
def test_criterion_6_t_behavior():
    a, b = _helix_split_pair()
    previous = -1.0
    fused_flags = []
    for k in range(20):
        t = 0.6 * k / 19
        m = structural_model(t=t)
        d, state = fusion_dp(a, b, m, FusionParams(cap=1))
        assert d >= previous
        previous = d
        script, _ = extract_fusion_script(state)
        fused_flags.append(any(op.kind in ("edge_fusion", "edge_split",
                                           "node_fusion", "node_split")
                               for op in script.ops))
    assert fused_flags[0] is True
    assert fused_flags[-1] is False
    assert sorted(fused_flags, reverse=True) == fused_flags  # single switch


@criterion(7, "80-node cap-1 comparison under 2 s and 1 GB; "
              "40-node cap-2 comparison under 60 s")
def test_criterion_7_performance():
    labels = [Label("h", (1,)), Label("i", (9,)), Label("b", (4,))]
    edges = [Label("x", (2,)), Label("y", (6,))]
    rng = random.Random(2024)
    m = structural_model(t=0.05)
    a = index(random_tree(rng, 80, 4, labels, edges))
    b = index(random_tree(rng, 80, 4, labels, edges))
    started = time.perf_counter()
    fusion_dp(a, b, m, FusionParams(cap=1))
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"cap-1 took {elapsed:.2f}s"
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 1024 * 1024, f"peak rss {peak_kb} kB"
    a40 = index(random_tree(rng, 40, 4, labels, edges))
    b40 = index(random_tree(rng, 40, 4, labels, edges))
    started = time.perf_counter()
    fusion_dp(a40, b40, m, FusionParams(cap=2))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"cap-2 took {elapsed:.2f}s"


@criterion(8, "extracted scripts replay to the target tree with the "
              "reported cost on a corpus of at least 1000 runs")
def test_criterion_8_script_replay():
    rng = random.Random(8008)
    m = structural_model(t=0.05)
    mu = unit_model(t=0.1)
    runs = 0
    for _ in range(600):
        a = _random_struct_tree(rng, 10)
        b = _random_struct_tree(rng, 10)
        model = m if runs % 2 else mu
        d, tables = zs_distance(a, b, model)
        script, _ = extract_script(tables)
        assert script.total_cost == d
        assert trees_equal(replay_script(a, script).root, b.tree.root)
        runs += 1
    for _ in range(450):
        cap = 1 + (runs % 2)
        a = _random_struct_tree(rng, 8)
        b = _random_struct_tree(rng, 8)
        d, state = fusion_dp(a, b, m, FusionParams(cap=cap))
        script, _ = extract_fusion_script(state)
        assert script.total_cost == d
        assert trees_equal(replay_script(a, script).root, b.tree.root)
        runs += 1
    assert runs >= 1000


def _seq_for(struct):
    return "".join({"(": "G", ")": "C", ".": "A"}[c] for c in struct)


@criterion(9, "multilevel: no cross-color pair in the fine mapping, the "
              "divergent hairpins never map, restriction never helps")
def test_criterion_9_multilevel_restriction():
    small = "(((...)))"
    big = "((((((..(((((........)))))..))))))"
    sa = parse_dotbracket(f">a\n{_seq_for(small + big)}\n{small + big}")
    sb = parse_dotbracket(f">b\n{_seq_for(big + small)}\n{big + small}")
    m = structural_model(t=0.05)
    result = multilevel_compare(sa, sb, m, FusionParams(cap=1), "c")
    arm_a = set(range(len(small)))
    arm_b = set(range(len(big), len(big) + len(small)))
    ga, gb = decompose(sa), decompose(sb)
    owner_a, owner_b = ga.element_of_base(), gb.element_of_base()
    assert {owner_a[i] for i in arm_a}.isdisjoint(result.colors.colors_a)
    assert {owner_b[i] for i in arm_b}.isdisjoint(result.colors.colors_b)

    from rnatreedit.multilevel import color_rep_b
    ca = color_rep_b(sa, result.colors.colors_a, result.colors.token)
    cb = color_rep_b(sb, result.colors.colors_b, result.colors.token)
    assert result.fine_mapping
    for i, j in result.fine_mapping:
        # equal colors on every mapped pair
        assert ca.colors[i] == cb.colors[j] is not None
        origin_a = ca.tree.nodes[i].origin
        origin_b = cb.tree.nodes[j].origin
        bases_a = set(origin_a[1:3]) if origin_a[0] in ("base", "pair") else set()
        bases_b = set(origin_b[1:3]) if origin_b[0] in ("base", "pair") else set()
        assert not bases_a & arm_a
        assert not bases_b & arm_b
    unrestricted, _ = zs_distance(index(build_rep_b(sa)),
                                  index(build_rep_b(sb)), m)
    assert result.fine_distance >= unrestricted


@criterion(10, "dot-bracket and CT encodings agree on a 50-structure "
               "corpus; pseudoknotted CT input is rejected")
def test_criterion_10_parsing():
    rng = random.Random(1010)
    for i in range(50):
        s = random_structure(rng, rng.randint(10, 120), name=f"c{i}")
        from_db = parse_dotbracket(emit_dotbracket(s))
        from_ct = parse_ct(emit_ct(s))
        assert from_db.sequence == from_ct.sequence == s.sequence
        assert from_db.pairs == from_ct.pairs == s.pairs
        assert from_db.id == from_ct.id == s.id
    partner = {2: 8, 8: 2, 4: 9, 9: 4}
    rows = ["9 pk"]
    seq = "GGGAAACCC"
    for i in range(1, 10):
        rows.append(f"{i} {seq[i-1]} {i-1} {i+1} {partner.get(i, 0)} {i}")
    with pytest.raises(PseudoknotDetectedError):
        parse_ct("\n".join(rows), pairing="any")
