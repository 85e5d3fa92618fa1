"""Two-pass structural comparison.

First the coarse trees of two structures are compared with fusions and
the resulting mapping colors the structural elements: two elements share
a color exactly when the coarse pass mapped them together (a fused group
shares one color).  Then the per-base trees are compared with matching
restricted to equal colors, so bases of structurally unrelated regions
can no longer pair up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cost_models import CostModel
from .edit_distance import (DPTables, InternalError, Mapping, audit_script, extract_script,
                            zs_distance)
from .fusion_distance import FusionParams, extract_fusion_script, fusion_dp
from .rna_structures import SecondaryStructure, decompose
from .tree_model import IndexedTree, build_rep_b, build_rep_c, build_rep_d, index


class ColorSetMismatchError(ValueError):
    pass


@dataclass
class ColorAssignment:
    """Element colors for both structures; None marks deleted/inserted."""

    token: tuple
    colors_a: dict[int, int] = field(default_factory=dict)
    colors_b: dict[int, int] = field(default_factory=dict)
    n_colors: int = 0


@dataclass
class ColoredRepB:
    """An indexed per-base tree and the element color of each node.

    ``colors[i]`` is the color of postorder node i (index 0 unused), None
    where the coarse pass left the node's element uncolored.
    """

    tree: IndexedTree
    token: tuple
    colors: list


def _element_of_coarse_node(tree: IndexedTree, node: int,
                            owner_of_base: list[int]) -> set[int]:
    """Structural element ids represented by one coarse tree node or edge."""
    origin = tree.nodes[node].origin
    out: set[int] = set()
    if not origin:
        return out
    kind = origin[0]
    if kind == "element":
        out.add(origin[1])
        if len(origin) > 2 and origin[2] == "helix":
            out.add(origin[3])
    elif kind in ("run", "stack"):
        lo, hi = origin[1], origin[2]
        for base in range(lo, hi + 1):
            out.add(owner_of_base[base])
    elif kind == "root":
        out.add(0)
    return out


def coarse_pass(a: SecondaryStructure, b: SecondaryStructure, rep: str,
                m: CostModel, p: FusionParams
                ) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], ColorAssignment]:
    """Fusion comparison of the coarse trees; colors follow the mapping."""
    if rep not in ("c", "d"):
        raise ValueError("coarse pass expects representation 'c' or 'd'")
    ga, gb = decompose(a), decompose(b)
    if rep == "c":
        ta, tb = index(build_rep_c(a)), index(build_rep_c(b))
    else:
        ta, tb = index(build_rep_d(ga)), index(build_rep_d(gb))
    _, state = fusion_dp(ta, tb, m, p)
    _, mapping = extract_fusion_script(state)

    owner_a = ga.element_of_base()
    owner_b = gb.element_of_base()
    token = (a.id or "a", b.id or "b", rep, m.name, m.t, p.cap)
    assignment = ColorAssignment(token)
    color = 0
    for group_a, group_b in sorted(mapping):
        els_a: set[int] = set()
        els_b: set[int] = set()
        for node in group_a:
            els_a |= _element_of_coarse_node(ta, node, owner_a)
        for node in group_b:
            els_b |= _element_of_coarse_node(tb, node, owner_b)
        if not els_a or not els_b:
            continue
        for e in els_a:
            assignment.colors_a.setdefault(e, color)
        for e in els_b:
            assignment.colors_b.setdefault(e, color)
        color += 1
    assignment.n_colors = color
    return mapping, assignment


def color_rep_b(s: SecondaryStructure, colors: dict[int, int],
                token: tuple) -> ColoredRepB:
    """Index the per-base tree and color each node by its element."""
    owner = decompose(s).element_of_base()
    tree = index(build_rep_b(s))
    node_colors: list = [None] * (tree.n + 1)
    for i in range(1, tree.n + 1):
        origin = tree.nodes[i].origin
        element = owner[origin[1]] if origin[0] in ("base", "pair") else 0
        node_colors[i] = colors.get(element)
    return ColoredRepB(tree, token, node_colors)


def fine_pass(a_colored: ColoredRepB, b_colored: ColoredRepB,
              m: CostModel) -> tuple[float, Mapping, DPTables]:
    """Color-restricted per-base distance; only same-color nodes map.

    The node colors go to ``zs_distance`` as label-class data, so a match
    across colors, or with an uncolored node, is never priced.  The
    script passes the replay audit.
    """
    if a_colored.token != b_colored.token:
        raise ColorSetMismatchError(
            f"colorings come from different coarse passes: "
            f"{a_colored.token} vs {b_colored.token}")
    color_a, color_b = a_colored.colors, b_colored.colors
    distance, tables = zs_distance(a_colored.tree, b_colored.tree, m,
                                   colors=(color_a, color_b))
    script, mapping = extract_script(tables)
    audit_script(tables.a, tables.b, script, distance)
    for i, j in mapping:
        if color_a[i] is None or color_a[i] != color_b[j]:
            raise InternalError("optimal mapping crossed a color boundary")
    return distance, mapping, tables


@dataclass
class MultilevelResult:
    coarse_mapping: list
    colors: ColorAssignment
    fine_distance: float
    fine_mapping: Mapping


def multilevel_compare(a: SecondaryStructure, b: SecondaryStructure,
                       m: CostModel, p: FusionParams,
                       rep: str = "c") -> MultilevelResult:
    """Full two-pass pipeline with the given coarse representation."""
    coarse_mapping, colors = coarse_pass(a, b, rep, m, p)
    ca = color_rep_b(a, colors.colors_a, colors.token)
    cb = color_rep_b(b, colors.colors_b, colors.token)
    distance, mapping, _ = fine_pass(ca, cb, m)
    return MultilevelResult(coarse_mapping, colors, distance, mapping)
