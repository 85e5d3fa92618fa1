"""Workload definitions: seeded corpora, the timed operation, the checks.

Operations call the program's own public functions, and a pair runs
through the CLI's pair path.  ``Tracer.installed`` patches every
``rnatreedit`` module attribute bound to a traced function, so the traced
run sees each call, including those made inside the program.
"""

from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import families
from rnatreedit import cli
from rnatreedit import cost_models as cm
from rnatreedit import edit_distance as ed
from rnatreedit import fusion_distance as fd
from rnatreedit import multilevel as ml
from rnatreedit import rna_structures as rs
from rnatreedit import tree_model as tm

# Family members inherit most of the ancestor and differ by a few of the
# situations fusion is meant for; four mutations apply each kind once.
MUTATIONS = 4


@dataclass(frozen=True)
class Spec:
    """One workload: how its corpus is made and how one operation runs."""

    name: str
    # Ancestor lengths: library families use them in turn; every batch-cli
    # pairs file holds one family of each.
    lengths: tuple[int, ...]
    groups: int               # library families, or batch-cli pairs files
    members: int              # per family; library pairs are all i < j
    rep: str
    cap: int
    kind: str                 # 'pair', 'multilevel' or 'batch'
    # Nominal seconds of one corpus pass, untraced and traced, on a 2-vCPU
    # x86-64 VM with Python 3.11.  They are constants, so the number of
    # operations in a run depends on --seconds alone, never on the speed
    # of the program: every commit is measured on the same order statistics.
    pass_s: float
    traced_pass_s: float

    def passes(self, seconds: float, traced: bool) -> int:
        """Whole corpus passes in a run of about ``seconds``."""
        return max(1, round(seconds / (self.traced_pass_s if traced else self.pass_s)))


# Why each workload was chosen is recorded in BENCHMARK.json.  The seed
# decides the structures, not the size of the work.  Library workloads
# make one pass over 80-120 pairs of one length, so every pair weighs the
# same and the median and tail are order statistics of one narrow
# distribution (per-pair cost varies by about 20% at a fixed length)
# rather than of whichever few pairs of the largest length a seed drew.
# Peak RSS follows the largest fusion memo, a dict that doubles its table
# when it passes 2/3 of 2**k entries; the lengths keep the largest memo of
# a run between two such steps for every seed tried (family-fusion about
# 190k-245k entries, multilevel 105k-140k), so the seed does not decide
# which side of a step the peak lands on.  Every batch-cli pairs file
# holds the same mix of lengths, and the CLI runs with --jobs 1: one busy
# process per operation, on any nproc.
SPECS = {s.name: s for s in (
    Spec("family-fusion", (250,), 88, 2, "c", 1, "pair", 20.0, 45.0),
    Spec("family-classical", (230,), 120, 2, "b", 0, "pair", 20.0, 45.0),
    Spec("multilevel", (190,), 80, 2, "c", 1, "multilevel", 20.0, 45.0),
    Spec("batch-cli", (70, 100, 130, 160), 40, 4, "d", 1, "batch", 10.0, 20.0),
)}


# ---------------------------------------------------------------------------
# Corpus


def make_corpus(spec: Spec, seed: int, workdir: Path) -> list:
    """Generate the workload's inputs from the seed and write them out.

    Files alternate between dot-bracket and CT.  Library items are pairs
    of file paths (all i < j within a family); batch-cli items are a pairs
    file listing every ordered pair within each of its families, with
    those pairs.
    """
    rng = random.Random(f"{spec.name}:{seed}")
    items: list = []
    count = 0

    def write_family(length: int) -> list[Path]:
        nonlocal count
        paths = []
        for ext in families.family(rng, length, spec.members, MUTATIONS):
            name = f"s{count:04d}"
            if count % 2:
                paths.append(workdir / f"{name}.ct")
                paths[-1].write_text(families.ct_text(name, ext))
            else:
                paths.append(workdir / f"{name}.db")
                paths[-1].write_text(families.dotbracket_text(name, ext))
            count += 1
        return paths

    for g in range(spec.groups):
        if spec.kind == "batch":
            pairs = []
            for length in spec.lengths:
                paths = write_family(length)
                pairs += [(a, b) for a in paths for b in paths if a != b]
            pairs_file = workdir / f"pairs{g}.txt"
            pairs_file.write_text("".join(f"{a}\t{b}\n" for a, b in pairs))
            items.append((pairs_file, pairs))
        else:
            paths = write_family(spec.lengths[g % len(spec.lengths)])
            items += [(paths[i], paths[j]) for i in range(len(paths))
                      for j in range(i + 1, len(paths))]
    return items


def _read(path: Path) -> tuple[str, str]:
    """(suffix, text) of a generated file, which must parse."""
    text = path.read_text()
    _parse((path.suffix, text))
    return path.suffix, text


def load_items(spec: Spec, items: list) -> list:
    """Parse every generated file; library items become text pairs."""
    if spec.kind == "batch":
        for _, pairs in items:
            for a, _ in pairs:
                _read(a)
        return items
    return [(_read(a), _read(b)) for a, b in items]


# ---------------------------------------------------------------------------
# Operations


class AuditError(AssertionError):
    pass


def _parse(item):
    suffix, text = item
    return rs.parse_ct(text) if suffix == ".ct" else rs.parse_dotbracket(text)


def _tree(s, rep: str):
    return tm.index(tm.build(s, rep))


def audit(ta, tb, script, distance) -> None:
    """The replay audit: the script rebuilds the target at the distance."""
    replayed = ed.replay_script(ta, script)
    if not tm.trees_equal(replayed.root, tb.tree.root):
        raise AuditError("script replay does not reproduce the target tree")
    if script.total_cost != distance:
        raise AuditError(f"script cost {script.total_cost!r} != distance {distance!r}")


def compare_pair(item, rep: str, cap: int) -> float:
    """What `rnatreedit compare` does for one pair, through the CLI's own
    pair path, which builds, indexes, runs the DP, extracts and audits."""
    a, b = _parse(item[0]), _parse(item[1])
    return cli._compare_pair(a, b, rep, cm.named_model("structural"),
                             fd.FusionParams(cap=cap))["distance"]


def compare_multilevel(item, rep: str, cap: int) -> float:
    """multilevel_compare, pass by pass, with the fine script audited."""
    model = cm.named_model("structural")
    a, b = _parse(item[0]), _parse(item[1])
    _, colors = ml.coarse_pass(a, b, rep, model, fd.FusionParams(cap=cap))
    ca = ml.color_rep_b(a, colors.colors_a, colors.token)
    cb = ml.color_rep_b(b, colors.colors_b, colors.token)
    distance, _, tables = ml.fine_pass(ca, cb, model)
    script, _ = ed.extract_script(tables)
    audit(tables.a, tables.b, script, distance)
    return distance


def batch_argv(spec: Spec, pairs_file: Path) -> list[str]:
    return ["compare-batch", str(pairs_file), "--rep", spec.rep,
            "--l", str(spec.cap), "--jobs", "1"]


def parse_batch_output(text: str, pairs: list) -> list[str]:
    lines = text.splitlines()
    if len(lines) != len(pairs):
        raise AuditError(f"compare-batch printed {len(lines)} lines for {len(pairs)} pairs")
    out = []
    for line, (a, b) in zip(lines, pairs):
        pa, pb, value = line.split("\t")
        if (pa, pb) != (str(a), str(b)):
            raise AuditError(f"compare-batch line {line!r} out of order")
        out.append(value)
    return out


def batch_subprocess(spec: Spec, item, env: dict) -> list[str]:
    """One `rnatreedit compare-batch` invocation in its own process."""
    pairs_file, pairs = item
    proc = subprocess.run(
        [sys.executable, "-m", "rnatreedit.cli"] + batch_argv(spec, pairs_file),
        env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise AuditError(f"compare-batch exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return parse_batch_output(proc.stdout, pairs)


def batch_in_process(spec: Spec, item) -> list[str]:
    """The same invocation through cli.main, for the traced run."""
    pairs_file, pairs = item
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(batch_argv(spec, pairs_file))
    if code != 0:
        raise AuditError(f"compare-batch exit {code}")
    return parse_batch_output(out.getvalue(), pairs)


def operation(spec: Spec, in_process: bool, env: dict) -> Callable[[object], list[str]]:
    """The timed operation; returns the repr of every distance it computed.

    batch-cli runs the CLI in a child process, except in the traced run,
    which calls cli.main in this process so that its spans are recorded.
    """
    if spec.kind == "batch":
        if in_process:
            return lambda item: batch_in_process(spec, item)
        return lambda item: batch_subprocess(spec, item, env)
    fn = compare_multilevel if spec.kind == "multilevel" else compare_pair
    return lambda item: [repr(fn(item, spec.rep, spec.cap))]


# ---------------------------------------------------------------------------
# Checks outside the timed loop, on a subsample


SUBSAMPLE = 2


def _fusion(ta, tb, cap: int) -> float:
    return fd.fusion_dp(ta, tb, cm.named_model("structural"), fd.FusionParams(cap=cap))[0]


def _zs(ta, tb) -> float:
    return ed.zs_distance(ta, tb, cm.named_model("structural"))[0]


def _engine_checks(ta, tb, rep: str, cap: int, result) -> list[tuple[str, bool]]:
    """Fusion at cap 0 equals ZS bit for bit; cap 1 <= cap 0; d(a,b) == d(b,a).

    ``result`` is the distance the timed loop printed for this pair, or
    None; it must repeat here.
    """
    z = _zs(ta, tb)
    f0 = _fusion(ta, tb, 0)
    out = [(f"fusion cap 0 equals ZS on rep {rep}", f0 == z)]
    if cap == 0:
        d = z
        out.append((f"ZS symmetry on rep {rep}", _zs(tb, ta) == d))
    else:
        d = _fusion(ta, tb, cap)
        out.append((f"cap {cap} <= cap 0 on rep {rep}", d <= f0))
        out.append((f"symmetry at cap {cap} on rep {rep}", _fusion(tb, ta, cap) == d))
    if result is not None:
        out.append(("distance repeats outside the loop", repr(d) == result))
    return out


def _check(name: str, test: Callable[[], bool]) -> tuple[str, bool]:
    """One check; an exception fails it like a wrong answer."""
    try:
        return name, bool(test())
    except Exception:
        return name, False


def _fusion_script_replays(ta, tb) -> bool:
    distance, state = fd.fusion_dp(ta, tb, cm.named_model("structural"), fd.FusionParams(cap=0))
    script, _ = fd.extract_fusion_script(state)
    audit(ta, tb, script, distance)
    return distance == _zs(ta, tb)


def _cli_prints_library(spec: Spec, item, workdir: Path) -> bool:
    paths = []
    for name, (suffix, text) in zip("ab", item):
        paths.append(workdir / f"check-{name}{suffix}")
        paths[-1].write_text(text)
    pairs_file = workdir / "check-pairs.txt"
    pairs_file.write_text(f"{paths[0]}\t{paths[1]}\n")
    printed = batch_in_process(spec, (pairs_file, [tuple(paths)]))
    return printed == [repr(compare_pair(item, spec.rep, spec.cap))]


def _layer_checks(spec: Spec, item, workdir: Path, multilevel=None) -> list[tuple[str, bool]]:
    """Checks that take one pair through the layers the workload's own
    operation may not reach, so the traced run sees every layer."""
    a, b = _parse(item[0]), _parse(item[1])
    out = [_check(f"fusion script at cap 0 replays at the ZS distance on rep {spec.rep}",
                  lambda: _fusion_script_replays(_tree(a, spec.rep), _tree(b, spec.rep)))]
    if multilevel is None:
        multilevel = compare_multilevel(item, "c", 1)
    out.append(_check("colour restriction never beats plain rep b ZS",
                      lambda: multilevel >= _zs(_tree(a, "b"), _tree(b, "b"))))
    if spec.kind != "batch":
        out.append(_check("compare-batch prints the library distance",
                          lambda: _cli_prints_library(spec, item, workdir)))
    return out


def checks(spec: Spec, items: list, results: dict[int, list[str]],
           workdir: Path) -> list[tuple[str, bool]]:
    """Cross-checks on the first items; each is one attempted check."""
    out: list[tuple[str, bool]] = []
    if spec.kind == "batch":
        pairs_file, pairs = items[0]
        texts = {p: (p.suffix, p.read_text()) for p in {x for pair in pairs for x in pair}}
        out.append(_check("compare-batch prints the library distances", lambda: results[0] == [
            repr(compare_pair((texts[a], texts[b]), spec.rep, spec.cap)) for a, b in pairs]))
        for k, (_, group) in enumerate(items):
            value = dict(zip(group, results[k]))
            out.append(("compare-batch symmetry",
                        all(value[(a, b)] == value[(b, a)] for a, b in group)))
        a, b = pairs[0]
        first = (texts[a], texts[b])
        out += _engine_checks(_tree(_parse(first[0]), spec.rep),
                              _tree(_parse(first[1]), spec.rep), spec.rep, spec.cap, None)
        return out + _layer_checks(spec, first, workdir)
    for k in range(min(SUBSAMPLE, len(items))):
        a, b = _parse(items[k][0]), _parse(items[k][1])
        pair = results[k][0] if spec.kind == "pair" else None
        out += _engine_checks(_tree(a, spec.rep), _tree(b, spec.rep), spec.rep, spec.cap, pair)
    multilevel = float(results[0][0]) if spec.kind == "multilevel" else None
    return out + _layer_checks(spec, items[0], workdir, multilevel)
