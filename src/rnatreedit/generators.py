"""Seeded random structures and trees for verification and tests."""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .rna_structures import SecondaryStructure
from .tree_model import Label, LabeledTree, ROOT_LABEL, TreeNode

_PAIR_CHOICES = [("A", "U"), ("U", "A"), ("G", "C"), ("C", "G"), ("G", "U"), ("U", "G")]
_BASES = "ACGU"


def random_structure(rng: random.Random, length: int = 60,
                     pair_bias: float = 0.6, min_hairpin: int = 3,
                     name: str = "") -> SecondaryStructure:
    """Random pseudoknot-free structure with compatible base assignments."""
    seq = [""] * length
    pairs: list[tuple[int, int]] = []

    def fill(lo: int, hi: int) -> None:
        pos = lo
        while pos <= hi:
            room = hi - pos + 1
            if room >= min_hairpin + 2 and rng.random() < pair_bias:
                j = rng.randrange(pos + min_hairpin + 1, hi + 1)
                b1, b2 = rng.choice(_PAIR_CHOICES)
                seq[pos], seq[j] = b1, b2
                pairs.append((pos, j))
                fill(pos + 1, j - 1)
                pos = j + 1
            else:
                seq[pos] = rng.choice(_BASES)
                pos += 1

    if length:
        fill(0, length - 1)
    return SecondaryStructure("".join(seq), tuple(sorted(pairs)), name)


def random_tree(rng: random.Random, n: int, max_degree: int = 4,
                node_labels: Optional[Sequence[Label]] = None,
                edge_labels: Optional[Sequence[Optional[Label]]] = None,
                root_label: Label = ROOT_LABEL) -> LabeledTree:
    """Random ordered tree with n nodes and bounded degree.

    Node labels (and optionally edge labels) are drawn uniformly from the
    given alphabets; the root keeps ``root_label`` and no edge label.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if node_labels is None:
        node_labels = [Label("a"), Label("b")]
    root = TreeNode(root_label)
    open_nodes = [root]
    for _ in range(n - 1):
        parent = rng.choice(open_nodes)
        edge = rng.choice(edge_labels) if edge_labels else None
        child = TreeNode(rng.choice(list(node_labels)), edge)
        parent.add(child)
        if len(parent.children) >= max_degree:
            open_nodes.remove(parent)
        open_nodes.append(child)
    return LabeledTree(root)


def all_tree_shapes(n: int) -> list[tuple]:
    """All ordered rooted tree shapes with exactly n nodes.

    A shape is a nested tuple: each node is the tuple of its children.
    """
    if n == 1:
        return [()]
    shapes: list[tuple] = []
    for split in _compositions(n - 1):
        for combo in _product_shapes(split):
            shapes.append(tuple(combo))
    return shapes


def _compositions(total: int) -> list[tuple[int, ...]]:
    """Ordered compositions of ``total`` into positive parts."""
    if total == 0:
        return [()]
    out = []
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            out.append((first,) + rest)
    return out


def _product_shapes(sizes: tuple[int, ...]) -> list[list[tuple]]:
    if not sizes:
        return [[]]
    out = []
    for head in all_tree_shapes(sizes[0]):
        for rest in _product_shapes(sizes[1:]):
            out.append([head] + rest)
    return out


def labeled_trees(n: int, node_labels: Sequence[Label],
                  edge_label: Optional[Label] = None) -> list[LabeledTree]:
    """Every labeled tree with exactly n nodes.

    Shapes come in ``all_tree_shapes`` order and, within a shape, labelings
    0..k**n-1, whose successive base-k digits pick each node's label in
    preorder.  Every non-root node carries ``edge_label``.
    """
    k = len(node_labels)

    def build(sub: tuple, edge: Optional[Label], digits) -> TreeNode:
        node = TreeNode(node_labels[next(digits)], edge)
        for child in sub:
            node.add(build(child, edge_label, digits))
        return node

    return [LabeledTree(build(shape, None,
                              (labeling // k ** p % k for p in range(n))))
            for shape in all_tree_shapes(n) for labeling in range(k ** n)]
