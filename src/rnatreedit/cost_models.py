"""Cost models for the seven edit operations.

A model prices relabel/insert/delete over (node label, edge label) objects
(a node and its incoming edge are one comparable object), plus node and
edge fusion and their splits, and defines how labels merge under fusions.

All built-in models quantize their outputs to multiples of 2**-32.  Sums
of such values are exact in double precision at the magnitudes involved,
so a distance computed by the dynamic programs, by the brute-force
oracles, or by summing an edit script is the same float bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .tree_model import Label

LabelPair = tuple[Optional[Label], Optional[Label]]

_GRID = 2.0 ** 32


def quantize(x: float) -> float:
    """Snap a cost to the dyadic grid used by all built-in models."""
    return round(x * _GRID) / _GRID


class InvalidTError(ValueError):
    pass


def _parameter(name: str, x: float) -> float:
    """A model parameter snapped to the grid, or ValueError when it does
    not stay finite there (inf, NaN, or so large that x * 2**32 is inf)."""
    if not math.isfinite(x * _GRID):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return quantize(x)


def merge_node_labels(u: Label, e_uv: Optional[Label], v: Label) -> Label:
    """Label of u after absorbing child v and the edge between them."""
    kind = u.kind if u.kind == v.kind else f"{u.kind}+{v.kind}"
    total = u.total + (e_uv.total if e_uv else 0) + v.total
    return Label(kind, (total,))


def merge_edge_labels(e_u: Optional[Label], u: Label, e_v: Optional[Label]) -> Label:
    """Label of the single edge replacing e_u, node u and e_v."""
    kinds = [e.kind for e in (e_u, e_v) if e is not None]
    if kinds and all(k == kinds[0] for k in kinds):
        kind = kinds[0]
    elif kinds:
        kind = "+".join(kinds)
    else:
        kind = u.kind
    total = (e_u.total if e_u else 0) + u.total + (e_v.total if e_v else 0)
    return Label(kind, (total,))


@dataclass(frozen=True)
class CostModel:
    """Operation costs plus label merge rules and the tuning parameter t.

    The fusion/split costs follow the standard pricing: a node fusion
    costs deleting the absorbed child object plus t, an edge fusion costs
    deleting the vanishing parent object plus t (displaced sibling
    subtrees are charged separately by the algorithm).

    A ``match_fn`` may carry a ``part`` attribute, a function of two
    node labels or two edge labels, when
    ``match_fn(a, b) == min(part(a[0], b[0]) + part(a[1], b[1]), 1.0)``
    for all label pairs, so that the fusion DP may price the parts apart.

    A hand-built model keeps every price on the 2**-32 grid (``quantize``
    each one), as the built-in models do: the replay audit compares a
    script's summed cost with the distance exactly, and off the grid the
    two sums can differ in the last bit.
    """

    name: str
    t: float
    cap: bool
    match_fn: Callable[[LabelPair, LabelPair], float]
    del_fn: Callable[[LabelPair], float]
    ins_fn: Callable[[LabelPair], float]
    merge_node: Callable[[Label, Optional[Label], Label], Label] = merge_node_labels
    merge_edge: Callable[[Optional[Label], Label, Optional[Label]], Label] = merge_edge_labels
    params: tuple[tuple[str, object], ...] = ()
    assume_valid: bool = True

    def cost_match(self, a: LabelPair, b: LabelPair) -> float:
        return self.match_fn(a, b)

    def cost_del(self, a: LabelPair) -> float:
        return self.del_fn(a)

    def cost_ins(self, a: LabelPair) -> float:
        return self.ins_fn(a)

    def _capped(self, x: float) -> float:
        return min(x, 1.0) if self.cap else x

    def cost_node_fusion(self, parent: LabelPair, child: LabelPair) -> float:
        return self._capped(self.del_fn(child) + self.t)

    def cost_node_split(self, parent: LabelPair, child: LabelPair) -> float:
        return self._capped(self.ins_fn(child) + self.t)

    def cost_edge_fusion(self, parent: LabelPair, child: LabelPair) -> float:
        return self._capped(self.del_fn(parent) + self.t)

    def cost_edge_split(self, parent: LabelPair, child: LabelPair) -> float:
        return self._capped(self.ins_fn(parent) + self.t)

    def with_t(self, t: float) -> "CostModel":
        if t < 0:
            raise InvalidTError(f"t must be >= 0, got {t}")
        return replace(self, t=_parameter("t", t))

    def describe(self) -> dict[str, object]:
        """Effective parameters, echoed bit-exactly by the CLI."""
        out: dict[str, object] = {"model": self.name, "t": repr(self.t),
                                  "cap": self.cap}
        out.update({k: repr(v) if isinstance(v, float) else v
                    for k, v in self.params})
        return out


def unit_model(t: float = 0.1, cap: bool = False,
               ins_scale: float = 1.0, del_scale: float = 1.0) -> CostModel:
    """Unit costs: insert/delete cost one, relabel is 0/1 on label equality.

    ``ins_scale``/``del_scale`` exist to build deliberately broken models
    for exercising the validator; anything other than 1.0 fails validation.
    """
    if t < 0:
        raise InvalidTError(f"t must be >= 0, got {t}")
    ins_cost = _parameter("ins_scale", ins_scale)
    del_cost = _parameter("del_scale", del_scale)

    def match(a: LabelPair, b: LabelPair) -> float:
        return 0.0 if a == b else 1.0

    params = ()
    if ins_scale != 1.0 or del_scale != 1.0:
        params = (("ins_scale", ins_scale), ("del_scale", del_scale))
    return CostModel(
        name="unit", t=_parameter("t", t), cap=cap,
        match_fn=match,
        del_fn=lambda a: del_cost,
        ins_fn=lambda a: ins_cost,
        params=params,
        assume_valid=(ins_scale == del_scale == 1.0),
    )


_REDUCERS: dict[str, Callable[[tuple[int, ...]], float]] = {
    "sum": lambda s: float(sum(s)),
    "min": lambda s: float(min(s)) if s else 0.0,
    "max": lambda s: float(max(s)) if s else 0.0,
    "avg": lambda s: sum(s) / len(s) if s else 0.0,
}

# Saturation scale for size-proportional delete/insert costs.
_SIZE_SCALE = 4.0
# Base price of any node object; keeps deletions of size-0 labels positive
# and gives the subadditivity inequality a fixed safety margin.
_BASE_DEL = 0.125


def structural_model(t: float = 0.05, cap: bool = False,
                     kind_penalty: float = 0.5,
                     normalization: str = "sum") -> CostModel:
    """Size-aware costs in [0, 1] for the element-style encodings.

    Relabel cost is a kind-mismatch penalty plus the relative size
    difference |a-b|/(a+b); delete/insert saturate with size.  All the
    conditions that make the fused distance a metric hold by construction.
    """
    if t < 0:
        raise InvalidTError(f"t must be >= 0, got {t}")
    if normalization not in _REDUCERS:
        raise ValueError(f"unknown normalization {normalization!r}")
    reduce_sizes = _REDUCERS[normalization]
    if kind_penalty < 0:
        raise ValueError(f"kind_penalty must be >= 0, got {kind_penalty!r}")
    kind_penalty = _parameter("kind_penalty", kind_penalty)
    missing = quantize(kind_penalty + 1.0)

    # The component prices are ``quantize``d, written out in place: they
    # are the hot path of every DP's match pricing.
    def comp_match(a: Optional[Label], b: Optional[Label]) -> float:
        if a is None or b is None:
            return 0.0 if a is b else missing
        sa, sb = reduce_sizes(a.size), reduce_sizes(b.size)
        size_term = 0.0 if sa == sb else abs(sa - sb) / (sa + sb)
        kind_term = 0.0 if a.kind == b.kind else kind_penalty
        return round((kind_term + size_term) * _GRID) / _GRID

    def match(a: LabelPair, b: LabelPair) -> float:
        return min(comp_match(a[0], b[0]) + comp_match(a[1], b[1]), 1.0)

    # On ``match`` itself, so a model rebuilt with another ``match_fn``
    # prices whole pairs again (see CostModel).
    match.part = comp_match

    def comp_del(lbl: Optional[Label]) -> float:
        if lbl is None:
            return 0.0
        s = reduce_sizes(lbl.size)
        return round(s / (s + _SIZE_SCALE) * _GRID) / _GRID

    def del_(a: LabelPair) -> float:
        return min(_BASE_DEL + comp_del(a[0]) + comp_del(a[1]), 1.0)

    return CostModel(
        name="structural", t=_parameter("t", t), cap=cap,
        match_fn=match, del_fn=del_, ins_fn=del_,
        params=(("kind_penalty", kind_penalty), ("normalization", normalization)),
    )


# ---------------------------------------------------------------------------
# Validation


@dataclass
class ValidityCheck:
    condition: str
    passed: bool
    witness: str = ""


@dataclass
class ValidityReport:
    checks: list[ValidityCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[ValidityCheck]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            suffix = f"  [{c.witness}]" if c.witness else ""
            lines.append(f"{mark} {c.condition}{suffix}")
        return "\n".join(lines)


_TRIANGLE_SLACK = 1e-9


def validate(m: CostModel, samples: list[LabelPair]) -> ValidityReport:
    """Check the distance conditions over a sample label-pair set.

    Covers non-negativity, ins/del symmetry, fusion/split symmetry, the
    relabel metric axioms, and subadditivity of deletion under both label
    merge rules.
    """
    if not samples:
        raise ValueError("samples must be nonempty")
    report = ValidityReport()

    def check(condition: str, failing: Optional[str]) -> None:
        report.checks.append(ValidityCheck(condition, failing is None,
                                           failing or ""))

    bad = None
    for a in samples:
        for value, what in ((m.cost_del(a), "del"), (m.cost_ins(a), "ins")):
            if value < 0:
                bad = f"{what}({a}) = {value}"
        for b in samples:
            if m.cost_match(a, b) < 0:
                bad = f"match({a}, {b}) = {m.cost_match(a, b)}"
    check("all costs non-negative", bad)

    bad = None
    for a in samples:
        if m.cost_ins(a) != m.cost_del(a):
            bad = f"ins({a}) = {m.cost_ins(a)} != del({a}) = {m.cost_del(a)}"
            break
    check("cost_ins(a) == cost_del(a)", bad)

    bad = None
    for a in samples:
        for b in samples:
            if m.cost_node_fusion(a, b) != m.cost_node_split(a, b):
                bad = f"node fusion/split differ on ({a}, {b})"
            if m.cost_edge_fusion(a, b) != m.cost_edge_split(a, b):
                bad = f"edge fusion/split differ on ({a}, {b})"
    check("fusion cost == split cost", bad)

    bad = None
    for a in samples:
        if m.cost_match(a, a) != 0:
            bad = f"match({a}, {a}) = {m.cost_match(a, a)}"
    check("match identity: d(a, a) == 0", bad)

    bad = None
    for a in samples:
        for b in samples:
            if a != b and m.cost_match(a, b) == 0:
                bad = f"match({a}, {b}) = 0 with a != b"
    check("match separation: d(a, b) > 0 for a != b", bad)

    bad = None
    for a in samples:
        for b in samples:
            if m.cost_match(a, b) != m.cost_match(b, a):
                bad = f"match({a}, {b}) != match({b}, {a})"
    check("match symmetry", bad)

    bad = None
    for a in samples:
        for b in samples:
            for c in samples:
                if m.cost_match(a, c) > m.cost_match(a, b) + m.cost_match(b, c) + _TRIANGLE_SLACK:
                    bad = f"triangle fails on ({a}, {b}, {c})"
    check("match triangle inequality", bad)

    bad = None
    for a in samples:
        for b in samples:
            an, ae = a
            bn, be = b
            if an is None or bn is None:
                continue
            merged_n = (m.merge_node(an, be, bn), ae)
            if m.cost_del(a) + m.cost_del(b) < m.cost_del(merged_n):
                bad = f"node merge of ({a}, {b}) costs more than its parts"
            merged_e = (bn, m.merge_edge(ae, an, be))
            if m.cost_del(a) + m.cost_del(b) < m.cost_del(merged_e):
                bad = f"edge merge of ({a}, {b}) costs more than its parts"
    check("subadditivity: del(a) + del(b) >= del(merged)", bad)

    return report


# ---------------------------------------------------------------------------
# Config files: `key = value` lines, '#' comments.


def parse_model_config(text: str) -> CostModel:
    settings: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        settings[key] = value
    return model_from_settings(settings)


def model_from_settings(settings: dict[str, str]) -> CostModel:
    kind = settings.pop("model", "structural")
    t = float(settings.pop("t", "0.05"))
    cap = settings.pop("cap", "false").lower() in ("1", "true", "yes")
    if kind == "unit":
        extra = {}
        for key in ("ins_scale", "del_scale"):
            if key in settings:
                extra[key] = float(settings.pop(key))
        model = unit_model(t=t, cap=cap, **extra)
    elif kind == "structural":
        model = structural_model(
            t=t, cap=cap, kind_penalty=float(settings.pop("kind_penalty", "0.5")),
            normalization=settings.pop("normalization", "sum"))
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    if settings:
        raise ValueError(f"unknown config keys: {', '.join(sorted(settings))}")
    return model


def named_model(name: str, t: Optional[float] = None) -> CostModel:
    if name == "unit":
        model = unit_model()
    elif name == "structural":
        model = structural_model()
    else:
        raise ValueError(f"unknown model {name!r} (expected 'unit' or 'structural')")
    return model.with_t(t) if t is not None else model
