"""Bit-identity gate for the fusion DP.

``fusion_golden.json`` holds the distance ``repr``, the script JSON and the
group mapping of seeded pairs built from ``random_structure``, recorded
with the top-down memoised solver that the dense table replaced.  Any
change to the fusion DP must reproduce every record exactly.

Regenerate (only when a change of results is intended) with::

    PYTHONPATH=src python tests/test_fusion_golden.py
"""

import json
import random
from pathlib import Path

from rnatreedit.cost_models import structural_model, unit_model
from rnatreedit.fusion_distance import (FusionParams, extract_fusion_script,
                                        fusion_dp)
from rnatreedit.generators import random_structure
from rnatreedit.rna_structures import SecondaryStructure
from rnatreedit.tree_model import build, index

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
    """(case id, tree a, tree b, model name, params) in a fixed order."""
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


def record(a, b, name, params) -> dict:
    distance, state = fusion_dp(a, b, MODELS[name], params)
    script, mapping = extract_fusion_script(state)
    return {"distance": repr(distance),
            "script": script.to_json(),
            "mapping": [[list(ga), list(gb)] for ga, gb in mapping]}


def test_golden_records_bit_identical():
    expected = json.loads(GOLDEN.read_text())
    seen = []
    for case, a, b, name, params in golden_cases():
        seen.append(case)
        got = json.loads(json.dumps(record(a, b, name, params)))
        assert got == expected[case], case
    assert sorted(seen) == sorted(expected)


def test_table_is_full_product_of_closures_in_successor_order():
    for case, a, b, name, params in golden_cases():
        _, state = fusion_dp(a, b, MODELS[name], params)
        sa, sb = state.side_a, state.side_b
        assert len(state.memo) == len(sa.states) * len(sb.states), case
        assert len(state.choice) == len(state.memo), case
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


if __name__ == "__main__":
    records = {case: record(a, b, name, params)
               for case, a, b, name, params in golden_cases()}
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(case)}: {json.dumps(rec, sort_keys=True)}"
        for case, rec in records.items()) + "\n}\n")
