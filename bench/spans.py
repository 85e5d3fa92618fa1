"""Spans and exact counters recorded from outside the program.

The traced run replaces public functions of ``rnatreedit`` with wrappers
that record one span per call: name, start, end, parent span and the id
of the operation it belongs to.  Every module attribute bound to a
wrapped function is patched, so a call made from inside the library (for
example ``multilevel.coarse_pass`` calling ``fusion_dp``) is recorded as
well.  Counters are read from the returned objects; cost calls are
counted by a ``dataclasses.replace`` of the cost model whose callables
count.  Nothing is patched outside a ``with tracer.installed():`` block,
so untraced runs execute the program unchanged.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
from collections import Counter
from time import perf_counter
from pathlib import Path
from typing import Callable, Optional

FUSION_OPS = {"node_fusion", "edge_fusion", "node_split", "edge_split"}


def zs_cells(a, b) -> int:
    """Forest-table cells ZS fills, from the public keyroot and l arrays.

    The pass for keyroots (i, j) fills (i - l[i] + 1) * (j - l[j] + 1)
    cells, so the total factorises over the two trees.
    """
    rows = sum(i - a.l[i] + 1 for i in a.keyroots)
    cols = sum(j - b.l[j] + 1 for j in b.keyroots)
    return rows * cols


def _count_index(c: Counter, args, result) -> None:
    c["tree_model.nodes"] += result.n


def _count_zs(c: Counter, args, result) -> None:
    c["edit_distance.zs_cells"] += zs_cells(args[0], args[1])


def _count_fusion_dp(c: Counter, args, result) -> None:
    state = result[1]
    memo = getattr(state, "memo", None)
    if memo is not None:
        c["fusion_distance.pair_states"] += len(memo)
    sides = [getattr(state, name, None) for name in ("side_a", "side_b")]
    if all(s is not None and hasattr(s, "states") for s in sides):
        c["fusion_distance.side_states"] += sum(len(s.states) for s in sides)
    c["fusion_distance.dp_calls"] += 1


def _count_fusion_extract(c: Counter, args, result) -> None:
    script = result[0]
    if any(op.kind in FUSION_OPS for op in script.ops):
        c["fusion_distance.fusion_used"] += 1


def _count_coarse(c: Counter, args, result) -> None:
    c["multilevel.colors"] += result[1].n_colors


# (layer span name, module, function, counter hook).  A layer may name
# several functions; their spans nest and self time keeps them apart.
SPANS = (
    ("rna_structures.parse", "rna_structures", "parse_dotbracket", None),
    ("rna_structures.parse", "rna_structures", "parse_ct", None),
    ("rna_structures.decompose", "rna_structures", "decompose", None),
    ("tree_model.build", "tree_model", "build", None),
    ("tree_model.build", "tree_model", "build_rep_b", None),
    ("tree_model.build", "tree_model", "build_rep_c", None),
    ("tree_model.build", "tree_model", "build_rep_d", None),
    ("tree_model.index", "tree_model", "index", _count_index),
    ("edit_distance.zs", "edit_distance", "zs_distance", _count_zs),
    ("edit_distance.extract", "edit_distance", "extract_script", None),
    ("edit_distance.replay", "edit_distance", "replay_script", None),
    ("fusion_distance.dp", "fusion_distance", "fusion_dp", _count_fusion_dp),
    ("fusion_distance.extract", "fusion_distance", "extract_fusion_script",
     _count_fusion_extract),
    ("multilevel.coarse", "multilevel", "coarse_pass", _count_coarse),
    ("multilevel.color", "multilevel", "color_rep_b", None),
    ("multilevel.fine", "multilevel", "fine_pass", None),
    ("cli.process", "cli", "main", None),
)

LAYERS = sorted({name for name, _, _, _ in SPANS})


class Tracer:
    """In-memory spans plus counters for the operation in progress."""

    def __init__(self):
        # [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counts = Counter()

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, open_, tracer = self.spans, self._open, self

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1, tracer.op])
            open_.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[sid][1] = start
                spans[sid][2] = end
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def counting_model(self, model):
        """The model with callables that count their calls."""
        counts = self

        def counted(key: str, fn: Callable) -> Callable:
            def call(*args):
                counts.counts[key] += 1
                return fn(*args)
            return call

        return dataclasses.replace(
            model,
            match_fn=counted("cost_models.match_calls", model.match_fn),
            del_fn=counted("cost_models.del_ins_calls", model.del_fn),
            ins_fn=counted("cost_models.del_ins_calls", model.ins_fn))

    @contextlib.contextmanager
    def installed(self):
        """Patch every rnatreedit module attribute bound to a traced function."""
        modules = [m for n, m in sys.modules.items()
                   if n == "rnatreedit" or n.startswith("rnatreedit.")]
        patched = []
        for name, mod_name, attr, hook in SPANS:
            fn = getattr(sys.modules[f"rnatreedit.{mod_name}"], attr)
            wrapper = self.wrap(name, fn, hook)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        cost_models = sys.modules["rnatreedit.cost_models"]
        named_model = cost_models.named_model
        patched.append((cost_models, "named_model", named_model))
        cost_models.named_model = lambda *a, **k: self.counting_model(named_model(*a, **k))
        try:
            yield
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Total self time per layer: span time minus its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
        return out

    def dump(self, path: Path) -> None:
        """Write the spans out, one [name, start, end, parent, op] each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                    "spans": self.spans}))
