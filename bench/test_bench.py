"""Checks of the benchmark itself; run with ``python3 -m pytest bench``.

They cover the generator, the exact counters and the refusal to run
without the program's sources.  They are not part of the repository's
test suite, which collects ``tests/`` only.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import families  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rnatreedit import index, build, parse_dotbracket  # noqa: E402
from rnatreedit.rna_structures import ElementKind, decompose  # noqa: E402


def test_ancestors_have_every_element_kind():
    rng = random.Random(3)
    kinds = set()
    for length in (100, 200, 300):
        for _ in range(5):
            s = parse_dotbracket(families.dotbracket_text("a", families.ancestor(rng, length)))
            for el in decompose(s).elements:
                kinds.add(el.kind)
                if el.kind is ElementKind.HELIX:
                    assert 3 <= el.sizes[0] <= 12
                if el.kind is ElementKind.HAIRPIN:
                    assert el.sizes[0] >= 3
    assert kinds == set(ElementKind)


@pytest.mark.parametrize("mutation", families.MUTATIONS)
def test_each_mutation_changes_the_structure_and_parses(mutation):
    rng = random.Random(5)
    root = families.ancestor(rng, 200)
    mutated = families._copy(root)
    assert mutation(rng, mutated)
    assert families.render(mutated) != families.render(root)
    db = parse_dotbracket(families.dotbracket_text("m", mutated))
    assert db.length == len(families.render(mutated)[0])


def test_same_seed_same_inputs(tmp_path):
    spec = workloads.SPECS["batch-cli"]
    texts = []
    for run_dir, seed in ((tmp_path / "a", 4), (tmp_path / "b", 4), (tmp_path / "c", 5)):
        run_dir.mkdir()
        workloads.load_items(spec, workloads.make_corpus(spec, seed, run_dir))
        texts.append([p.read_text() for p in sorted(run_dir.glob("s*"))])
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_zs_cells_counts_every_forest_cell():
    rng = random.Random(9)
    s1 = parse_dotbracket(families.dotbracket_text("a", families.ancestor(rng, 60)))
    s2 = parse_dotbracket(families.dotbracket_text("b", families.ancestor(rng, 70)))
    a, b = index(build(s1, "b")), index(build(s2, "b"))
    brute = sum((i - a.l[i] + 1) * (j - b.l[j] + 1) for i in a.keyroots for j in b.keyroots)
    assert spans.zs_cells(a, b) == brute > 0


@pytest.mark.parametrize("name", workloads.SPECS)
def test_counts_repeat_exactly(name, tmp_path):
    spec = workloads.SPECS[name]
    items = workloads.load_items(spec, workloads.make_corpus(spec, 11, tmp_path))[:2]
    op = workloads.operation(spec, in_process=True, env={})
    seen = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.begin_op(0)
        with tracer.installed():
            reprs = [op(item) for item in items]
        seen.append((reprs, tracer.counts))
    assert seen[0] == seen[1]
    counts = seen[0][1]
    assert counts["tree_model.nodes"] > 0 and counts["cost_models.del_ins_calls"] > 0
    if spec.cap:
        assert counts["fusion_distance.pair_states"] > 0
        assert counts["fusion_distance.side_states"] > 0
    if spec.rep == "b" or spec.kind == "multilevel":
        assert counts["edit_distance.zs_cells"] > 0
    if spec.kind == "multilevel":
        assert counts["multilevel.colors"] > 0


def test_installed_patches_are_removed():
    from rnatreedit import fusion_distance, multilevel
    before = (fusion_distance.fusion_dp, multilevel.fusion_dp)
    with spans.Tracer().installed():
        assert multilevel.fusion_dp is not before[1]
    assert (fusion_distance.fusion_dp, multilevel.fusion_dp) == before


def test_removed_dp_field_is_reported_absent():
    raw = {"traced_ops": 1, "self_s": {}, "startup_s": 0.0, "overhead_frac": 0.0,
           "counts": {"fusion_distance.dp_calls": 3, "fusion_distance.side_states": 10}}
    values = run.per_layer(raw)
    assert "fusion_distance.pair_states" not in values
    assert values["fusion_distance.side_states"] == 10
    raw["counts"] = {}
    assert run.per_layer(raw)["fusion_distance.pair_states"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "family-fusion",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_worker_past_its_deadline_is_killed():
    from time import perf_counter
    with pytest.raises(run.WorkerTimeout):
        run.spawn("batch-cli", 1, 20, 0, perf_counter() + 0.05)


def test_op_count_does_not_depend_on_speed():
    spec = workloads.SPECS["family-fusion"]
    assert spec.passes(20, traced=False) == 1
    assert spec.passes(20, traced=True) == 1
    assert workloads.SPECS["batch-cli"].passes(20, traced=False) == 2
