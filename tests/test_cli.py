import json
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import rnatreedit
from rnatreedit import cli, edit_distance, fusion_distance
from rnatreedit.cli import main
from rnatreedit.edit_distance import replay_script
from rnatreedit.generators import random_structure
from rnatreedit.rna_structures import emit_ct, emit_dotbracket
from rnatreedit.tree_model import build, index, to_parenthesized


@pytest.fixture
def stem_file(tmp_path):
    path = tmp_path / "stem.db"
    path.write_text(">stem\nGGGGAAAACCCC\n((((....))))\n")
    return str(path)


@pytest.fixture
def split_files(tmp_path):
    a = tmp_path / "long.db"
    a.write_text(">long\nGGGGGGGGGGGGGAAACCCCCCCCCCCCC\n(((((((((((((...)))))))))))))\n")
    b = tmp_path / "split.db"
    b.write_text(">split\nGGGGGGGAAGGGGGAAACCCCCAACCCCCCC\n"
                 "(((((((..(((((...)))))..)))))))\n")
    return str(a), str(b)


class TestCompare:
    def test_identical_rep_d_distance_zero(self, stem_file, capsys):
        code = main(["compare", stem_file, stem_file, "--rep", "d"])
        out = capsys.readouterr().out
        assert code == 0
        assert "distance: 0.0" in out

    def test_fusion_cap_comparison_flags_edge_fusion(self, split_files, capsys):
        a, b = split_files
        code = main(["compare", a, b, "--rep", "d", "--l", "0", "--emit", "json",
                     "--t", "0.05"])
        assert code == 0
        classical = json.loads(capsys.readouterr().out)
        code = main(["compare", a, b, "--rep", "d", "--l", "1", "--emit", "json",
                     "--t", "0.05"])
        assert code == 0
        fused = json.loads(capsys.readouterr().out)
        assert fused["distance"] <= classical["distance"]
        kinds = {op["op"] for op in fused["script"]}
        assert "edge_split" in kinds or "edge_fusion" in kinds

    def test_negative_t_is_config_error(self, stem_file, capsys):
        code = main(["compare", stem_file, stem_file, "--t", "-0.5"])
        err = capsys.readouterr().err
        assert code == 3
        assert "t must be >= 0" in err

    @pytest.mark.parametrize("command", ["compare", "validate"])
    def test_negative_kind_penalty_is_config_error(self, stem_file, tmp_path, capsys,
                                                   command):
        longer = tmp_path / "stem15.db"
        longer.write_text(">stem15\nGGGGGAAAAACCCCC\n(((((.....)))))\n")
        config = tmp_path / "neg.cfg"
        config.write_text("model = structural\nkind_penalty = -3\n")
        argv = ([command, stem_file, str(longer), "--rep", "d"] if command == "compare"
                else [command])
        code = main(argv + ["--model", str(config)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "configuration error: kind_penalty must be >= 0, got -3.0\n"

    @pytest.mark.parametrize("value", ["inf", "1e400", "1e308", "nan"])
    def test_non_finite_t_is_config_error(self, stem_file, capsys, value):
        # 1e308 is finite, but not on the 2**-32 grid: 1e308 * 2**32 is inf.
        code = main(["compare", stem_file, stem_file, "--t", value])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"configuration error: t must be finite, got {float(value)!r}\n"

    @pytest.mark.parametrize("config, key", [
        ("t = inf", "t"),
        ("kind_penalty = inf", "kind_penalty"),
        ("model = unit\nins_scale = inf", "ins_scale"),
        ("model = unit\ndel_scale = -inf", "del_scale"),
    ])
    def test_non_finite_config_value_is_config_error(self, stem_file, tmp_path, capsys,
                                                     config, key):
        path = tmp_path / "model.cfg"
        path.write_text(config + "\n")
        code = main(["compare", stem_file, stem_file, "--model", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"configuration error: {key} must be finite, got ")
        assert err.count("\n") == 1

    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.db"
        bad.write_text(">x\nGGAA\n((..\n")
        code = main(["compare", str(bad), str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 3" in err

    def test_unreadable_file_is_config_error(self, stem_file, tmp_path, capsys):
        code = main(["compare", stem_file, str(tmp_path / "missing.db")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("configuration error: cannot read ")
        assert err.count("\n") == 1

    def test_json_output_is_byte_identical(self, split_files, tmp_path):
        a, b = split_files
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["compare", a, b, "--rep", "d", "--emit", "json",
                         "--out", str(out), "--t", "0.05"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_script_replays(self, split_files, tmp_path):
        from rnatreedit.cli import _load_structure
        a, b = split_files
        out = tmp_path / "r.json"
        assert main(["compare", a, b, "--rep", "d", "--emit", "json",
                     "--out", str(out), "--t", "0.05"]) == 0
        payload = json.loads(out.read_text())
        total = sum(op["cost"] for op in payload["script"])
        assert total == payload["distance"]
        # mapping entries reference valid postorder ids of both trees
        sa = _load_structure(a, "auto", "wobble")
        sb = _load_structure(b, "auto", "wobble")
        na = index(build(sa, "d")).n
        nb = index(build(sb, "d")).n
        for src, dst in payload["mapping"]:
            assert all(1 <= i <= na for i in src)
            assert all(1 <= j <= nb for j in dst)

    def test_dot_output(self, split_files, capsys):
        a, b = split_files
        code = main(["compare", a, b, "--rep", "d", "--emit", "dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph")
        assert "cluster_a" in out and "cluster_b" in out
        assert main(["compare", a, b, "--rep", "d", "--emit", "json"]) == 0
        mapping = json.loads(capsys.readouterr().out)["mapping"]
        sizes = [index(build(cli._load_structure(p, "auto", "wobble"), "d")).n
                 for p in (a, b)]
        # each cluster declares its tree's nodes and edges; the dashed
        # mapping edges follow the clusters
        _, body_a, rest = out.split("  subgraph cluster_")
        body_b, links = rest.split("\n  }\n")
        declared = []
        for body, n in zip((body_a.split("\n  }\n")[0], body_b), sizes):
            lines = [ln.split() for ln in body.splitlines()[1:]
                     if not ln.strip().startswith("node [")]
            nodes = {ln[0] for ln in lines if ln[1] != "->"}
            edges = [(ln[0], ln[2].rstrip(";")) for ln in lines if ln[1] == "->"]
            assert len(nodes) == n and len(edges) == n - 1
            assert all({u, v} <= nodes for u, v in edges)
            declared.append(nodes)
        links = [ln.split() for ln in links.splitlines() if "->" in ln]
        assert len(links) == len(mapping)
        assert all(ln[0] in declared[0] and ln[2] in declared[1]
                   and "[style=dashed" in ln[3] for ln in links)

    def test_ct_and_auto_format(self, tmp_path, capsys):
        rng = random.Random(11)
        s = random_structure(rng, 40, name="auto")
        db = tmp_path / "s.db"
        ct = tmp_path / "s.ct"
        db.write_text(emit_dotbracket(s))
        ct.write_text(emit_ct(s))
        code = main(["compare", str(db), str(ct), "--rep", "c"])
        out = capsys.readouterr().out
        assert code == 0
        assert "distance: 0.0" in out


class TestMeta:
    @pytest.mark.parametrize("model", ["unit", "structural"])
    @pytest.mark.parametrize("command", ["compare"])
    def test_meta_rep_is_the_rep_option(self, stem_file, capsys, command, model):
        for rep in "bc":
            argv = [command, stem_file, stem_file, "--rep", rep, "--model", model]
            assert main(argv + ["--emit", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["meta"]["rep"] == rep
            assert main(argv) == 0
            (params,) = [ln for ln in capsys.readouterr().out.splitlines()
                         if ln.startswith("parameters: ")]
            assert f"rep={rep}" in params[len("parameters: "):].split(", ")

    def test_rep_config_key_refused(self, stem_file, tmp_path, capsys):
        cfg = tmp_path / "rep.cfg"
        cfg.write_text("model = structural\nrep = zz\n")
        code = main(["compare", stem_file, stem_file, "--model", str(cfg)])
        err = capsys.readouterr().err
        assert code == 3
        assert "unknown config keys: rep" in err and err.count("\n") == 1


@pytest.fixture(scope="module")
def deep_files(tmp_path_factory):
    """A 1200-bp helix, and 600 nested 2-bp helices each followed by a
    1-nt bulge."""
    folder = tmp_path_factory.mktemp("deep")
    paths = {}
    for name, struct in (("helix", "(" * 1200 + "...." + ")" * 1200),
                         ("bulges", "((." * 600 + "...." + "))" * 600)):
        seq = "".join({"(": "G", ")": "C", ".": "A"}[c] for c in struct)
        path = folder / f"{name}.db"
        path.write_text(f">{name}\n{seq}\n{struct}\n")
        paths[name] = str(path)
    return paths


class TestDeepInputs:
    """Nesting depth limits no command: nothing on these paths recurses."""

    def test_helix_compares_at_rep_b(self, deep_files, capsys):
        helix = deep_files["helix"]
        assert main(["compare", helix, helix, "--rep", "b", "--l", "0"]) == 0
        assert capsys.readouterr().out.startswith("distance: 0.0\n")

    def test_helix_multilevel(self, deep_files, capsys):
        helix = deep_files["helix"]
        assert main(["multilevel", helix, helix]) == 0

    def test_helix_dot(self, deep_files, capsys):
        helix = deep_files["helix"]
        code = main(["compare", helix, helix, "--rep", "b", "--l", "0", "--emit", "dot"])
        assert code == 0
        edges = Counter((ln.split()[0][0], ln.split()[2][0])
                        for ln in capsys.readouterr().out.splitlines() if " -> " in ln)
        n = 1 + 1200 + 4
        assert edges[("a", "a")] == edges[("b", "b")] == n - 1

    @pytest.mark.parametrize("rep", ["d", "e"])
    def test_bulge_chain_compares(self, deep_files, capsys, rep):
        bulges = deep_files["bulges"]
        assert main(["compare", bulges, bulges, "--rep", rep, "--l", "1"]) == 0
        assert capsys.readouterr().out.startswith("distance: 0.0\n")


class TestStats:
    def test_counts_for_stem_loop(self, tmp_path, capsys):
        f = tmp_path / "s.db"
        f.write_text("GGGAAACCC\n(((...)))\n")
        assert main(["stats", str(f)]) == 0
        out = capsys.readouterr().out
        assert "rep b: nodes=7" in out
        assert "rep c: nodes=3" in out
        assert "rep d: nodes=2" in out
        assert "rep e: nodes=2" in out

    def test_coarsening_order(self, tmp_path, capsys):
        rng = random.Random(5)
        f = tmp_path / "r.db"
        f.write_text(emit_dotbracket(random_structure(rng, 70)))
        assert main(["stats", str(f)]) == 0
        out = capsys.readouterr().out
        counts = {line.split(":")[0][-1]: int(line.split("nodes=")[1].split()[0])
                  for line in out.splitlines() if "nodes=" in line}
        assert counts["e"] <= counts["d"] <= counts["c"] <= counts["b"]

    def test_path_bound_printed(self, tmp_path, capsys):
        f = tmp_path / "s.db"
        f.write_text("GGGAAACCC\n(((...)))\n")
        assert main(["stats", str(f), "--l", "2"]) == 0
        assert "path_bound(l=2)" in capsys.readouterr().out


class TestValidate:
    def test_builtin_models_pass(self, capsys):
        assert main(["validate", "--model", "unit"]) == 0
        assert main(["validate", "--model", "structural"]) == 0

    def test_broken_model_fails_with_witness(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("model = unit\nins_scale = 1.5\n")
        code = main(["validate", "--model", str(cfg)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


class TestVerify:
    def test_quick_verify_green(self, capsys):
        code = main(["verify", "--max-nodes", "3", "--samples", "20",
                     "--model", "unit", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "passed" in out

    def test_injected_asymmetric_model_caught(self, tmp_path, capsys):
        cfg = tmp_path / "asym.cfg"
        cfg.write_text("model = unit\nins_scale = 1.25\n")
        code = main(["verify", "--max-nodes", "2", "--samples", "5",
                     "--model", str(cfg), "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 1
        assert "MISMATCH" in out

    @pytest.mark.parametrize("name, check", [("zs_distance", "classical"),
                                             ("fusion_dp", "fusion")])
    def test_perturbed_dp_caught(self, monkeypatch, capsys, name, check):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: (real(*args)[0] + 0.5, None))
        assert main(["verify", "--max-nodes", "2", "--samples", "5",
                     "--model", "unit", "--seed", "7"]) == 1
        assert f"MISMATCH: {check} " in capsys.readouterr().out

    def test_above_budget_refused(self, capsys):
        code = main(["verify", "--max-nodes", "9"])
        assert code == 3

    @pytest.mark.parametrize("flag", ["--samples", "--max-nodes"])
    def test_negative_size_is_config_error(self, capsys, flag):
        code = main(["verify", flag, "-1", "--max-nodes" if flag == "--samples" else "--samples",
                     "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"configuration error: {flag} must be >= 0, got -1\n"


class TestMultilevel:
    def test_identical_structures(self, stem_file, capsys):
        code = main(["multilevel", stem_file, stem_file, "--emit", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"] == 0.0
        assert payload["colors"]["count"] >= 1
        assert payload["fine_mapping"]

    def test_coarse_rep_selectable(self, stem_file, capsys):
        assert main(["multilevel", stem_file, stem_file,
                     "--coarse-rep", "d"]) == 0

    def test_dot_emit_is_config_error(self, stem_file, capsys):
        code = main(["multilevel", stem_file, stem_file, "--emit", "dot"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("configuration error: ")
        assert captured.err.count("\n") == 1


@pytest.fixture
def batch(tmp_path):
    """Four structures (dot-bracket and CT) and a pairs file holding every
    ordered pair of distinct ones: each structure is A in three pairs and
    B in three."""
    rng = random.Random(17)
    paths = []
    for i in range(4):
        s = random_structure(rng, 36 + 4 * i, name=f"s{i}")
        p = tmp_path / (f"s{i}.ct" if i % 2 else f"s{i}.db")
        p.write_text(emit_ct(s) if i % 2 else emit_dotbracket(s))
        paths.append(str(p))
    pairs = [(a, b) for a in paths for b in paths if a != b]
    pairs_file = tmp_path / "pairs.txt"
    pairs_file.write_text("".join(f"{a}\t{b}\n" for a, b in pairs))
    return paths, str(pairs_file), pairs


@pytest.fixture
def loads(monkeypatch):
    """Calls of ``cli._load_structure`` per path."""
    counts = Counter()
    load = cli._load_structure

    def counted(path, fmt, pairing):
        counts[path] += 1
        return load(path, fmt, pairing)

    monkeypatch.setattr(cli, "_load_structure", counted)
    return counts


def _batch_lines(capsys, argv):
    code = main(["compare-batch"] + argv)
    return code, capsys.readouterr().out.splitlines()


class TestBatch:
    @pytest.mark.parametrize("cap", ["0", "1"])
    def test_prints_the_distances_of_compare(self, batch, capsys, cap):
        _, pairs_file, pairs = batch
        code, lines = _batch_lines(capsys, [pairs_file, "--l", cap])
        assert code == 0
        expected = []
        for a, b in pairs:
            assert main(["compare", a, b, "--l", cap]) == 0
            distance = capsys.readouterr().out.splitlines()[0]
            expected.append(f"{a}\t{b}\t{distance.removeprefix('distance: ')}")
        assert lines == expected

    def test_jobs_give_identical_output(self, batch, capsys):
        _, pairs_file, _ = batch
        one = _batch_lines(capsys, [pairs_file, "--jobs", "1"])
        two = _batch_lines(capsys, [pairs_file, "--jobs", "2"])
        assert one == two and one[0] == 0 and len(one[1]) == 12

    def test_side_built_once_per_structure_and_role(self, batch, capsys, monkeypatch):
        built = []

        class Counted(fusion_distance._Side):
            def __init__(self, prep, left, params):
                built.append((prep, left))
                super().__init__(prep, left, params)

        monkeypatch.setattr(fusion_distance, "_Side", Counted)
        paths, pairs_file, _ = batch
        code, _ = _batch_lines(capsys, [pairs_file, "--l", "1"])
        assert code == 0
        assert len({id(tree) for tree, _ in built}) == len(paths)
        assert Counter((id(tree), left) for tree, left in built) == Counter(
            {(id(tree), left): 1 for tree, left in built})
        assert len(built) == 2 * len(paths)

    def test_each_structure_prepared_once_at_cap_0(self, batch, capsys, monkeypatch):
        prepared = []
        prepare = edit_distance.prepare

        def counted(tree, *args):
            if not isinstance(tree, edit_distance.PreparedTree):
                prepared.append(tree)
            return prepare(tree, *args)

        monkeypatch.setattr(cli, "prepare", counted)
        monkeypatch.setattr(edit_distance, "prepare", counted)
        paths, pairs_file, pairs = batch
        code, _ = _batch_lines(capsys, [pairs_file, "--l", "0"])
        assert code == 0 and len(pairs) > len(paths)
        assert len(prepared) == len({id(tree) for tree in prepared}) == len(paths)

    def test_each_file_loaded_once(self, batch, capsys, loads):
        paths, pairs_file, _ = batch
        assert _batch_lines(capsys, [pairs_file])[0] == 0
        assert loads == Counter(dict.fromkeys(paths, 1))

    def test_side_released_after_last_pair(self, batch, capsys, monkeypatch):
        paths, pairs_file, pairs = batch
        key = {to_parenthesized(index(build(cli._load_structure(p, "auto", "wobble"),
                                            "d")).tree): p for p in paths}
        assert len(key) == len(paths)
        last = {}
        for k, (a, b) in enumerate(pairs):
            last[a, True] = last[b, False] = k
        sides = []

        class Watched(fusion_distance._Side):
            def __init__(self, prep, left, params):
                super().__init__(prep, left, params)
                sides.append(((key[to_parenthesized(prep.tree)], left), weakref.ref(self)))

        calls = []
        dp = fusion_distance.fusion_dp

        def watching(*args):
            calls.append({owner for owner, ref in sides if ref() is not None})
            return dp(*args)

        monkeypatch.setattr(fusion_distance, "_Side", Watched)
        monkeypatch.setattr(fusion_distance, "fusion_dp", watching)
        assert _batch_lines(capsys, [pairs_file, "--l", "1"])[0] == 0
        assert len(calls) == len(pairs)
        for k, alive in enumerate(calls):
            assert all(last[owner] >= k for owner in alive)
        # the first structure's A side is used by pairs 0-2 only
        assert (paths[0], True) in calls[2] and (paths[0], True) not in calls[3]

    def test_failed_pairs_get_status_lines(self, batch, tmp_path, capsys, loads):
        paths, _, _ = batch
        bad = tmp_path / "bad.db"
        bad.write_text(">x\nGGAA\n((..\n")
        missing = tmp_path / "missing.db"
        pairs = [(paths[0], paths[1]), (str(bad), paths[1]), (paths[1], str(bad)),
                 (paths[1], str(missing)), (paths[1], paths[0])]
        pairs_file = tmp_path / "mixed.txt"
        pairs_file.write_text("".join(f"{a} {b}\n" for a, b in pairs))
        code, lines = _batch_lines(capsys, [str(pairs_file)])
        assert code == 3
        assert len(lines) == 5
        fields = [line.split("\t") for line in lines]
        assert [f[:2] for f in fields] == [list(p) for p in pairs]
        assert float(fields[0][2]) >= 0 and float(fields[4][2]) >= 0
        for f in fields[1:3]:
            assert f[2] == "error" and f[3].startswith("2: parse error: ") and "line 3" in f[3]
        assert fields[3][2] == "error"
        assert fields[3][3].startswith("3: configuration error: cannot read ")
        assert all(len(f) == 4 for f in fields[1:4])
        assert loads[str(bad)] == loads[str(missing)] == 1

    def test_internal_error_is_one_pair(self, batch, capsys, monkeypatch):
        paths, pairs_file, pairs = batch
        replay = edit_distance.replay_script
        calls = []

        def broken(ta, script):
            calls.append(None)
            return ta.tree if len(calls) == 2 else replay(ta, script)

        monkeypatch.setattr(edit_distance, "replay_script", broken)
        code, lines = _batch_lines(capsys, [pairs_file])
        assert code == 4
        assert len(lines) == len(pairs)
        assert [line.split("\t")[2] == "error" for line in lines] == [
            k == 1 for k in range(len(pairs))]
        assert lines[1].split("\t")[3].startswith("4: internal invariant failure: ")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_configuration_error_stops_the_run(self, batch, capsys, jobs):
        _, pairs_file, _ = batch
        code = main(["compare-batch", pairs_file, "--l", "5", "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "configuration error: l must be in [0, 3]\n"

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_config_error(self, batch, capsys, monkeypatch, jobs):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        _, pairs_file, _ = batch
        code = main(["compare-batch", pairs_file, "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"configuration error: --jobs must be >= 1, got {jobs}\n"

    def test_batch_pairs(self, tmp_path, capsys):
        rng = random.Random(3)
        paths = []
        for i in range(3):
            s = random_structure(rng, 30, name=f"s{i}")
            p = tmp_path / f"s{i}.db"
            p.write_text(emit_dotbracket(s))
            paths.append(str(p))
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(f"{paths[0]} {paths[1]}\n{paths[1]} {paths[2]}\n")
        code = main(["compare-batch", str(pairs), "--rep", "c", "--jobs", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_tab_separated_paths_may_hold_spaces(self, tmp_path, capsys):
        spaced = tmp_path / "dir with space"
        spaced.mkdir()
        a, b, c = spaced / "a.db", spaced / "b b.db", tmp_path / "c.db"
        for path, loop in ((a, "...."), (b, "....."), (c, "......")):
            path.write_text(f">x\n{'G' * 4}{'A' * len(loop)}{'C' * 4}\n(((({loop}))))\n")
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(f"{a}\t{b}\n{c}  {c}\n")
        code = main(["compare-batch", str(pairs), "--jobs", "1"])
        fields = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert [f[:2] for f in fields] == [[str(a), str(b)], [str(c), str(c)]]
        assert float(fields[0][2]) > 0 and fields[1][2:] == ["0.0"]


class TestInternalErrors:
    """Invariant failures exit 4 (memory exhaustion 3) with one line on
    stderr, never a traceback."""

    def _assert_internal(self, code, capsys, text):
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("internal invariant failure: ")
        assert err.count("\n") == 1 and text in err

    def test_corrupt_fusion_table(self, split_files, capsys, monkeypatch):
        dp = fusion_distance.fusion_dp

        def corrupted(*args):
            distance, state = dp(*args)
            state.memo[-1] += 0.25
            return distance, state

        monkeypatch.setattr(fusion_distance, "fusion_dp", corrupted)
        a, b = split_files
        code = main(["compare", a, b, "--rep", "d", "--l", "1"])
        self._assert_internal(code, capsys, "does not reproduce")

    def test_path_budget_exceeded(self, split_files, capsys, monkeypatch):
        monkeypatch.setattr(fusion_distance, "path_count_bound",
                            lambda d, cap: 1 if cap == 0 else 0)
        a, b = split_files
        code = main(["compare", a, b, "--rep", "d", "--l", "1"])
        self._assert_internal(code, capsys, "fusion paths, budget 1")

    def test_recursion_error(self, split_files, capsys, monkeypatch):
        def too_deep(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(fusion_distance, "zs_distance", too_deep)
        a, b = split_files
        code = main(["compare", a, b, "--rep", "b", "--l", "0"])
        self._assert_internal(code, capsys, "recursion limit reached")

    def test_memory_error_is_exit_3(self, split_files, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(fusion_distance, "fusion_dp", exhausted)
        a, b = split_files
        code = main(["compare", a, b, "--rep", "d", "--l", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("out of memory: ")
        assert err.count("\n") == 1


class TestReplayAudit:
    def test_failed_replay_is_internal_error(self, split_files, capsys, monkeypatch):
        monkeypatch.setattr(edit_distance, "replay_script", lambda ta, script: ta.tree)
        a, b = split_files
        code = main(["compare", a, b, "--rep", "d", "--l", "1"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("internal invariant failure: script replay")
        assert err.count("\n") == 1

    def test_multilevel_fine_script_is_audited(self, split_files, capsys, monkeypatch):
        extract = fusion_distance.extract_script

        def dropping(tables):
            script, mapping = extract(tables)
            dropped = script.ops.pop()
            assert dropped.kind == "insert" and dropped.cost > 0
            return script, mapping

        monkeypatch.setattr(fusion_distance, "extract_script", dropping)
        code = main(["multilevel", *split_files])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("internal invariant failure: script replay")
        assert err.count("\n") == 1

    def test_multilevel_coarse_script_is_audited(self, split_files, capsys, monkeypatch):
        extract = fusion_distance.extract_fusion_script

        def dropping(state):
            script, mapping = extract(state)
            script.ops.remove(next(op for op in script.ops if op.cost > 0))
            return script, mapping

        monkeypatch.setattr(fusion_distance, "extract_fusion_script", dropping)
        code = main(["multilevel", *split_files])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("internal invariant failure: script replay")
        assert err.count("\n") == 1

    def test_script_that_cannot_be_replayed_is_internal_error(self, tmp_path, capsys,
                                                            monkeypatch):
        """A script whose op names a node no earlier op created ends in
        exit 4 and one line, not in the replay's own exception."""
        a, b = tmp_path / "a.db", tmp_path / "b.db"
        a.write_text(">a\nGGGGAAAAACCCC\n((((.....))))\n")
        b.write_text(">b\nGGGGGGAAAACCCCCC\n((((((....))))))\n")
        extract = fusion_distance.extract_script

        def dropping(tables):
            script, mapping = extract(tables)
            script.ops.remove(next(op for op in script.ops if op.kind == "insert"))
            return script, mapping

        monkeypatch.setattr(fusion_distance, "extract_script", dropping)
        code = main(["compare", str(a), str(b), "--rep", "b", "--l", "0"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("internal invariant failure: script replay failed: KeyError")
        assert err.count("\n") == 1


class TestOptions:
    """Each command takes only the options it uses."""

    @pytest.mark.parametrize("argv", [["stats", "{s}"], ["validate"], ["verify"],
                                      ["compare-batch", "{s}"]])
    def test_emit_and_out_refused(self, argv, stem_file, tmp_path, capsys):
        out = tmp_path / "f.json"
        argv = [x.format(s=stem_file) for x in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--emit", "json", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["compare", "{s}", "{s}"], ["multilevel", "{s}", "{s}"],
                                      ["stats", "{s}"]])
    def test_jobs_refused(self, argv, stem_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([x.format(s=stem_file) for x in argv] + ["--jobs", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


    @pytest.mark.parametrize("argv", [
        ["stats", "{s}", "--model", "nosuch"], ["stats", "{s}", "--rep", "b"],
        ["stats", "{s}", "--t", "-3"], ["stats", "{s}", "--no-prune"],
        ["stats", "{s}", "--seed", "4"], ["validate", "--rep", "b"],
        ["validate", "--l", "7"], ["validate", "--format", "ct"], ["validate", "--seed", "4"],
        ["verify", "--rep", "b"], ["verify", "--l", "1"], ["verify", "--strict-pairs"],
        ["compare-batch", "{s}", "--seed", "4"], ["compare", "{s}", "{s}", "--seed", "4"],
        ["multilevel", "{s}", "{s}", "--seed", "4"], ["multilevel", "{s}", "{s}", "--rep", "b"]])
    def test_options_a_command_does_not_read_are_refused(self, argv, stem_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([x.format(s=stem_file) for x in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_stats_cap_out_of_range(self, stem_file, capsys):
        assert main(["stats", stem_file, "--l", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: l must be in [0, 3]\n"


def test_closed_stdout_ends_quietly(tmp_path):
    """A reader that closes the pipe while compare-batch is still writing
    (``rnatreedit compare-batch ... | head -1``) ends the run with exit 0
    and nothing on stderr."""
    a, b = tmp_path / "a.db", tmp_path / "b.db"
    a.write_text("GGGAAACCC\n(((...)))\n")
    b.write_text("GGGGAAAACCCC\n((((....))))\n")
    pairs = tmp_path / "pairs.txt"
    # Far more output than a pipe holds, so the writer meets the closed end.
    pairs.write_text(f"{a} {b}\n" * 3000)
    src = str(Path(rnatreedit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "rnatreedit.cli", "compare-batch",
                             str(pairs), "--l", "0"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert first.startswith(f"{a}\t{b}\t".encode())
    assert err == b""


def test_cli_import_loads_only_what_compare_batch_runs():
    """`import rnatreedit.cli` leaves the process pool, the oracles, the
    generators, multilevel and logging unloaded; the package exports still
    resolve and are listed by dir() and ``import *``."""
    code = """
import sys
import rnatreedit.cli
print(sorted(m for m in ("concurrent.futures.process", "rnatreedit.oracle",
                         "rnatreedit.multilevel", "rnatreedit.generators", "logging")
             if m in sys.modules))
import rnatreedit
lazy = ("multilevel_compare", "coarse_pass", "mapping_oracle", "SearchBudget")
print(all(name in dir(rnatreedit) and name in rnatreedit.__all__ for name in lazy))
from rnatreedit import SearchBudget
print(rnatreedit.mapping_oracle.__module__, rnatreedit.multilevel_compare.__module__,
      SearchBudget.__module__)
namespace = {}
exec("from rnatreedit import *", namespace)
print(all(name in namespace for name in lazy + ("fusion_dp", "build")))
"""
    src = str(Path(rnatreedit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.splitlines() == [
        "[]", "True", "rnatreedit.oracle rnatreedit.multilevel rnatreedit.oracle", "True"]
