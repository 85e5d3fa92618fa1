"""Bit-identity gate for the fusion DP and the keyroot (ZS) program.

``fusion_golden.json`` holds the distance ``repr``, the script JSON and the
mapping of seeded pairs built from ``random_structure``.  The fusion
records were made with the top-down memoised solver that the dense table
replaced; the ZS records (``zs-...`` and ``fine-...``, which also hold a
sha256 of the full subtree-distance table) with the per-cell ZS loop that
the label-class kernel replaced, except those of ``sharing_cases``, made
with that kernel before twin subtrees shared their forest passes, and
those of ``uncolored_fine_cases``, made when the fine pass still packed
colors into labels and priced a cross-color match at a finite surrogate
through a wrapped cost model.  Any change to either program must
reproduce every record exactly.

Regenerate (only when a change of results is intended) with::

    PYTHONPATH=src python tests/test_fusion_golden.py
"""

import hashlib
import json
import random
from array import array
from pathlib import Path

from rnatreedit import fusion_distance
from rnatreedit.cost_models import structural_model, unit_model
from rnatreedit.edit_distance import extract_script, zs_distance
from rnatreedit.fusion_distance import (FusionParams, extract_fusion_script,
                                        fusion_dp)
from rnatreedit.generators import labeled_trees, random_structure, random_tree
from rnatreedit.multilevel import ColoredRepB, coarse_pass, color_rep_b, fine_pass
from rnatreedit.rna_structures import SecondaryStructure, parse_dotbracket
from rnatreedit.tree_model import Label, LabeledTree, TreeNode, build, index

GOLDEN = Path(__file__).with_name("fusion_golden.json")

MODELS = {"unit": unit_model(), "structural": structural_model(t=0.05)}
PAIRS_PER_REP = 4


def stacked(s: SecondaryStructure, k: int = 3) -> SecondaryStructure:
    """Every base pair of ``s`` widened into a helix of ``k`` stacked pairs."""
    paired = {x for pair in s.pairs for x in pair}
    pos, seq = [], []
    for i, base in enumerate(s.sequence):
        pos.append(len(seq))
        seq.extend(base * (k if i in paired else 1))
    pairs = sorted((pos[i] + t, pos[j] + k - 1 - t)
                   for i, j in s.pairs for t in range(k))
    return SecondaryStructure("".join(seq), tuple(pairs))


def variant(rng: random.Random, s: SecondaryStructure) -> SecondaryStructure:
    """A related structure: the same sequence with two pairs opened, which
    interrupts or shortens helices, the shapes fusions are made for."""
    drop = set(rng.sample(range(len(s.pairs)), min(2, len(s.pairs))))
    return SecondaryStructure(s.sequence, tuple(
        p for k, p in enumerate(s.pairs) if k not in drop))


def golden_cases():
    """(case id, a, b, model name, params) in a fixed order.

    ``params`` is None for a ZS case; a and b are then indexed trees, or
    colored per-base trees for a multilevel fine pass.
    """
    yield from fusion_cases()
    yield from zs_cases()


def fusion_cases():
    for rep, seed in (("c", 11), ("d", 12)):
        rng = random.Random(seed)
        for k in range(PAIRS_PER_REP):
            base = stacked(random_structure(rng, rng.randint(40, 60)))
            sa = variant(rng, base)
            sb = (stacked(random_structure(rng, rng.randint(40, 60))) if k == 0
                  else variant(rng, base))
            a, b = index(build(sa, rep)), index(build(sb, rep))
            for cap in (1, 2):
                for prune in (True, False):
                    for name in MODELS:
                        case = f"rep{rep}-{k}-cap{cap}-prune{int(prune)}-{name}"
                        yield case, a, b, name, FusionParams(cap=cap, prune=prune)


def zs_cases():
    for rep, seed in (("b", 21), ("c", 22), ("d", 23), ("e", 24)):
        rng = random.Random(seed)
        for k in range(PAIRS_PER_REP):
            base = random_structure(rng, rng.randint(40, 70))
            sa = variant(rng, base)
            sb = random_structure(rng, rng.randint(40, 70)) if k == 0 else variant(rng, base)
            a, b = index(build(sa, rep)), index(build(sb, rep))
            for name in MODELS:
                yield f"zs-rep{rep}-{k}-{name}", a, b, name, None
    rng = random.Random(25)
    for k in range(2):
        base = stacked(random_structure(rng, rng.randint(30, 40)))
        sa, sb = variant(rng, base), variant(rng, base)
        for name in MODELS:
            _, colors = coarse_pass(sa, sb, "c", MODELS[name], FusionParams(cap=1))
            a = color_rep_b(sa, colors.colors_a, colors.token)
            b = color_rep_b(sb, colors.colors_b, colors.token)
            yield f"fine-{k}-{name}", a, b, name, None
    yield from sharing_cases()
    yield from uncolored_fine_cases()


def complete_binary(depth: int) -> LabeledTree:
    """A complete binary tree of ``depth`` levels, every node labelled ``a``."""
    def grow(level: int) -> TreeNode:
        kids = [grow(level + 1), grow(level + 1)] if level < depth else []
        return TreeNode(Label("a"), children=kids)
    return LabeledTree(grow(1))


def hairpins(count: int, loop: str = "GAAA") -> SecondaryStructure:
    """``count`` copies of one hairpin side by side, closed by a helix."""
    unit = "GGC" + loop + "GCC"
    seq = "G" + unit * count + "C"
    width = len(unit)
    pairs = [(0, len(seq) - 1)]
    for k in range(count):
        lo = 1 + k * width
        pairs += [(lo, lo + width - 1), (lo + 1, lo + width - 2),
                  (lo + 2, lo + width - 3)]
    return SecondaryStructure(seq, tuple(sorted(pairs)))


def distinct_labels(rng: random.Random, n: int, first: int) -> LabeledTree:
    """A random tree whose node and edge labels are all different, so no
    two of its subtrees are equal."""
    tree = random_tree(rng, n, 3)
    sizes = iter(range(first, first + 2 * n))
    stack = [tree.root]
    while stack:
        node = stack.pop()
        node.label = Label("h", (next(sizes),))
        if node is not tree.root:
            node.edge_label = Label("x", (next(sizes),))
        stack.extend(node.children)
    return tree


def sharing_cases():
    """ZS pairs at both ends of subtree sharing: trees made of repeated
    subtrees (a tree against itself, one-label complete binary trees,
    stacked per-base trees of repeated hairpins) and trees without any
    repeated subtree."""
    rng = random.Random(26)
    self_tree = index(build(stacked(random_structure(rng, 40)), "b"))
    binary_a, binary_b = index(complete_binary(6)), index(complete_binary(5))
    rows = [("self", self_tree, self_tree), ("binary", binary_a, binary_b)]
    for k, (count_a, count_b, loop_b) in enumerate(((4, 6, "GAAA"), (5, 5, "GCAA"))):
        rows.append((f"hairpins-{k}",
                     index(build(stacked(hairpins(count_a)), "b")),
                     index(build(stacked(hairpins(count_b, loop_b)), "b"))))
    for k in range(2):
        rows.append((f"distinct-{k}", index(distinct_labels(rng, rng.randint(30, 50), 1)),
                     index(distinct_labels(rng, rng.randint(30, 50), 3))))
    for case, a, b in rows:
        for name in MODELS:
            yield f"zs-{case}-{name}", a, b, name, None


def dotbracket(struct: str, name: str = "") -> SecondaryStructure:
    """``struct`` with G/C pairs and A in loops."""
    seq = "".join({"(": "G", ")": "C", ".": "A"}[c] for c in struct)
    return parse_dotbracket(f">{name}\n{seq}\n{struct}" if name else f"{seq}\n{struct}")


def with_hairpin(s: SecondaryStructure) -> SecondaryStructure:
    """``s`` with one more stem-loop, ``(((....)))``, on its 3' side."""
    n = len(s.sequence)
    return SecondaryStructure(s.sequence + "GGGAAAACCC",
                              s.pairs + ((n, n + 9), (n + 1, n + 8), (n + 2, n + 7)), s.id)


def uncolored_fine_cases():
    """Fine passes whose trees hold uncolored nodes (elements the coarse
    pass deleted or inserted), which must never map.  ``arms`` is the
    pair of acceptance criterion 9 (the ``CORE_A``/``CORE_B`` pair of the
    multilevel tests): a shared arm plus one divergent hairpin per side,
    on opposite flanks.  ``hairpin`` is a seeded pair of related
    structures, the second with an extra stem-loop."""
    small, big = "(((...)))", "((((((..(((((........)))))..))))))"
    rng = random.Random(27)
    base = stacked(random_structure(rng, 36))
    rows = [("arms", dotbracket(small + big, "a"), dotbracket(big + small, "b")),
            ("hairpin", variant(rng, base), with_hairpin(variant(rng, base)))]
    for case, sa, sb in rows:
        for name in MODELS:
            _, colors = coarse_pass(sa, sb, "c", MODELS[name], FusionParams(cap=1))
            a = color_rep_b(sa, colors.colors_a, colors.token)
            b = color_rep_b(sb, colors.colors_b, colors.token)
            yield f"fine-{case}-{name}", a, b, name, None


def record(a, b, name, params) -> dict:
    if params is not None:
        distance, state = fusion_dp(a, b, MODELS[name], params)
        script, mapping = extract_fusion_script(state)
        return {"distance": repr(distance),
                "script": script.to_json(),
                "mapping": [[list(ga), list(gb)] for ga, gb in mapping]}
    if isinstance(a, ColoredRepB):
        distance, _, tables = fine_pass(a, b, MODELS[name])
    else:
        distance, tables = zs_distance(a, b, MODELS[name])
    script, mapping = extract_script(tables)
    return {"distance": repr(distance),
            "treedist": hashlib.sha256(repr(tables.treedist).encode()).hexdigest(),
            "script": script.to_json(),
            "mapping": sorted([i, j] for i, j in mapping)}


def test_golden_records_bit_identical():
    expected = json.loads(GOLDEN.read_text())
    seen = []
    for case, a, b, name, params in golden_cases():
        seen.append(case)
        got = json.loads(json.dumps(record(a, b, name, params)))
        assert got == expected[case], case
    assert sorted(seen) == sorted(expected)


def test_uncolored_fine_cases_hold_uncolored_nodes():
    for case, a, b, _, _ in uncolored_fine_cases():
        uncolored = [i for c in (a, b)
                     for i in range(1, c.tree.n + 1) if c.colors[i] is None]
        assert uncolored, case


def test_table_is_full_product_of_closures_in_successor_order():
    """The table holds one cell per pair of state classes; states and
    classes come successors first, and every state's transitions, mapped
    to classes, are its class's signature."""
    for case, a, b, name, params in fusion_cases():
        _, state = fusion_dp(a, b, MODELS[name], params)
        sa, sb = state.side_a, state.side_b
        assert len(state.memo) == len(sa.classes) * len(sb.classes), case
        for side in (sa, sb):
            assert side.states[0] == ("f", 1, 0, ())
            for s in range(1, len(side.states)):
                successors = [side.left_part[s], side.rest[s]]
                successors += [child for _cost, child in side.moves[s]]
                if side.is_tree[s]:
                    assert side.right_part[s] == s
                else:
                    successors.append(side.right_part[s])
                assert all(x < s for x in successors), (case, s)
            cls = side.cls
            for c, (tree, _, _, _, rest, left, right, moves) in enumerate(side.classes):
                below = [rest, left] + [child for _cost, child in moves]
                if not tree:
                    below.append(right)
                assert all(x < c for x in below) or c == 0, (case, c)
            for s in range(len(side.states)):
                tree = side.is_tree[s]
                assert side.classes[cls[s]] == (
                    tree, side.merged[s], side.rcost[s], side.remove_all[s],
                    cls[side.rest[s]], cls[side.left_part[s]],
                    None if tree else cls[side.right_part[s]],
                    tuple((cost, cls[child]) for cost, child in side.moves[s])), (case, s)


def reference_fill(sa, sb):
    """The full pair table over real states and its table of first-minimum
    lines, filled as before states were grouped into classes."""
    na, nb = len(sa.states), len(sb.states)
    table = array("d", [0.0]) * (na * nb)
    choice = array("L", [0]) * (na * nb)
    table[:nb] = array("d", sb.remove_all)
    prices = {}

    def cost_match(pa, pb):
        if (pa, pb) not in prices:
            prices[pa, pb] = sb.model.cost_match(pa, pb)
        return prices[pa, pb]

    for i in range(1, na):
        base = i * nb
        table[base] = sa.remove_all[i]
        left_a, right_a = sa.left_part[i] * nb, sa.right_part[i] * nb
        rest_a = sa.rest[i] * nb
        moves_a = [(cost, child * nb) for cost, child in sa.moves[i]]
        for j in range(1, nb):
            both = sa.is_tree[i] and sb.is_tree[j]
            if both:
                best = (cost_match(sa.merged[i], sb.merged[j])
                        + table[rest_a + sb.rest[j]])
            else:
                best = table[left_a + sb.left_part[j]] + table[right_a + sb.right_part[j]]
            line = 0
            alt = sa.rcost[i] + table[rest_a + j]
            if alt < best:
                best, line = alt, 1
            alt = sb.rcost[j] + table[base + sb.rest[j]]
            if alt < best:
                best, line = alt, 2
            if both:
                k = 3
                for cost, off in moves_a:
                    alt = cost + table[off + j]
                    if alt < best:
                        best, line = alt, k
                    k += 1
                for cost, child in sb.moves[j]:
                    alt = cost + table[base + child]
                    if alt < best:
                        best, line = alt, k
                    k += 1
            table[base + j] = best
            choice[base + j] = line
    return table, choice


def reference_cases():
    """(case id, a, b, model, params): the golden fusion cases plus 40
    seeded pairs, related rep-c and rep-d structures and random trees with
    edge labels, at caps 1 and 2 with pruning on and off; 8 seeded pairs
    of related rep-b and rep-c structures at cap 0; and multiloops of
    degree 4 and 5 at caps 1 and 2, whose tree rows read many move rows."""
    for case, a, b, name, params in fusion_cases():
        yield case, a, b, MODELS[name], params
    rng = random.Random(31)
    for k in range(40):
        kind = ("c", "d", "tree")[k % 3]
        if kind == "tree":
            a, b = (index(random_tree(rng, rng.randint(8, 30), 3,
                                      [Label("h", (1,)), Label("i", (9,))],
                                      [Label("x", (2,))]))
                    for _ in range(2))
        else:
            base = stacked(random_structure(rng, rng.randint(20, 40)))
            a, b = (index(build(variant(rng, base), kind)) for _ in range(2))
        name = ("unit", "structural")[k // 4 % 2]
        params = FusionParams(cap=1 + k % 2, prune=k // 2 % 2 == 0)
        yield f"seeded-{k}-{kind}", a, b, MODELS[name], params
    rng = random.Random(32)
    for k in range(8):
        rep = "bc"[k % 2]
        base = random_structure(rng, rng.randint(30, 60))
        a, b = (index(build(variant(rng, base), rep)) for _ in range(2))
        name = ("unit", "structural")[k // 2 % 2]
        yield f"seeded-cap0-{k}-rep{rep}", a, b, MODELS[name], FusionParams(cap=0)
    arm = "(((...)))"
    a = dotbracket("((" + ".".join([arm] * 4) + "))")
    b = dotbracket("((" + "..".join([arm, "((((....))))", arm, arm, "((...))"]) + "))")
    a, b = index(build(a, "c")), index(build(b, "c"))
    for cap in (1, 2):
        for name in MODELS:
            yield f"multiloop-cap{cap}-{name}", a, b, MODELS[name], FusionParams(cap=cap)


def test_class_table_reproduces_full_table_and_its_choices(monkeypatch):
    """Every real cell of the full table equals the cell of its classes,
    bit for bit, and extraction picks the full table's choice at every
    cell it visits."""
    picks = []

    def recorded(sa, sb, table, i, j):
        found = best_line(sa, sb, table, i, j)
        picks.append((i, j, found[0]))
        return found

    best_line = fusion_distance._best_line
    monkeypatch.setattr(fusion_distance, "_best_line", recorded)
    most_moves = 0
    for case, a, b, model, params in reference_cases():
        _, state = fusion_dp(a, b, model, params)
        sa, sb = state.side_a, state.side_b
        assert isinstance(state.memo, array) and state.memo.typecode == "d", case
        most_moves = max(most_moves, *map(len, sa.moves))
        table, choice = reference_fill(sa, sb)
        nb = len(sb.classes)
        by_class = array("d", [state.memo[ca * nb + cb] for ca in sa.cls for cb in sb.cls])
        assert by_class.tobytes() == table.tobytes(), case
        picks.clear()
        extract_fusion_script(state)
        assert picks, case
        for i, j, line in picks:
            assert line == choice[i * len(sb.states) + j], (case, i, j)
    # A fusion and an edge fusion per child of a degree-4 multiloop.
    assert most_moves >= 8


def test_small_trees_reproduce_reference_fill():
    """Every pair of trees with 1-3 nodes, the smallest closures, fills
    as the full table."""
    trees = [index(t) for n in (1, 2, 3)
             for t in labeled_trees(n, [Label("h", (1,)), Label("i", (9,))],
                                    Label("x", (2,)))]
    for a in trees:
        for b in trees:
            for name, model in MODELS.items():
                for cap in (1, 2):
                    _, state = fusion_dp(a, b, model, FusionParams(cap=cap))
                    sa, sb = state.side_a, state.side_b
                    table, _ = reference_fill(sa, sb)
                    nb = len(sb.classes)
                    by_class = array("d", [state.memo[ca * nb + cb]
                                           for ca in sa.cls for cb in sb.cls])
                    assert by_class.tobytes() == table.tobytes(), (name, cap)


if __name__ == "__main__":
    records = {case: record(a, b, name, params)
               for case, a, b, name, params in golden_cases()}
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(case)}: {json.dumps(rec, sort_keys=True)}"
        for case, rec in records.items()) + "\n}\n")
