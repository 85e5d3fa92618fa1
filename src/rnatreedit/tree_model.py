"""Ordered rooted labeled trees and the RNA tree encodings.

Trees carry a label on every node and on every non-root edge (the edge to
the parent).  Four encodings of a secondary structure are provided, from
per-base detail down to the multiloop skeleton, plus the postorder /
leftmost-leaf / keyroot indexing required by the edit distance algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .rna_structures import ElementGraph, ElementKind, SecondaryStructure, decompose


class InternalError(Exception):
    """An invariant of the program failed: a bug, not a bad input.

    Defined here, below every module that raises it; ``edit_distance``
    re-exports it.
    """


@dataclass(frozen=True)
class Label:
    """A node or edge label: an element kind plus numeric payload."""

    kind: str
    size: tuple[int, ...] = ()

    @property
    def total(self) -> int:
        return sum(self.size)

    def __str__(self) -> str:
        if not self.size:
            return self.kind
        return f"{self.kind}({','.join(str(v) for v in self.size)})"


ROOT_LABEL = Label("root")


class TreeNode:
    """Mutable ordered tree node; edge_label labels the edge to the parent."""

    __slots__ = ("label", "edge_label", "children", "origin")

    def __init__(self, label: Label, edge_label: Optional[Label] = None,
                 children: Optional[list["TreeNode"]] = None,
                 origin: object = None):
        self.label = label
        self.edge_label = edge_label
        self.children = children if children is not None else []
        self.origin = origin

    def add(self, child: "TreeNode") -> "TreeNode":
        self.children.append(child)
        return self


def walk(root) -> Iterator:
    """Preorder over any node with ``.children``, by an explicit stack.

    A node's children are read when the walk resumes after yielding it,
    so the caller may fill or replace them first.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


@dataclass
class LabeledTree:
    """A rooted ordered tree tagged with the encoding it came from."""

    root: TreeNode
    rep: str = "generic"
    source_id: str = ""

    def size(self) -> int:
        return sum(1 for _ in walk(self.root))


def trees_equal(a, b) -> bool:
    """Label-level isomorphism of ordered trees (node and edge labels).

    An ordered tree is fixed by its preorder with child counts, so the two
    walks are compared node by node; a walk cannot end early while the
    counts agree.
    """
    return all((x.label, x.edge_label, len(x.children))
               == (y.label, y.edge_label, len(y.children))
               for x, y in zip(walk(a), walk(b)))


@dataclass
class IndexedTree:
    """Postorder view of a LabeledTree, 1-based to match t_1..t_|T|.

    ``l[i]`` is the postorder index of the leftmost leaf of the subtree
    rooted at node i; ``keyroots`` is LR(T) in increasing order.
    """

    tree: LabeledTree
    n: int
    labels: list[Optional[Label]]
    edge_labels: list[Optional[Label]]
    l: list[int]
    parent: list[int]
    children: list[tuple[int, ...]]
    keyroots: list[int]
    nodes: list[Optional[TreeNode]]
    leaf_count: int
    height: int
    max_degree: int

    @property
    def root(self) -> int:
        return self.n

    def pair(self, i: int) -> tuple[Label, Optional[Label]]:
        """The (node label, edge label) object compared as one unit."""
        return (self.labels[i], self.edge_labels[i])

    def subtree_nodes(self, i: int) -> range:
        return range(self.l[i], i + 1)

    def preorder(self) -> list[int]:
        order: list[int] = []
        stack = [self.n]
        while stack:
            i = stack.pop()
            order.append(i)
            stack.extend(reversed(self.children[i]))
        return order


def index(t: LabeledTree) -> IndexedTree:
    """Compute postorder arrays, leftmost leaves, LR(T) and tree stats."""
    n = t.size()
    labels: list[Optional[Label]] = [None] * (n + 1)
    edge_labels: list[Optional[Label]] = [None] * (n + 1)
    l = [0] * (n + 1)
    parent = [0] * (n + 1)
    children: list[tuple[int, ...]] = [()] * (n + 1)
    nodes: list[Optional[TreeNode]] = [None] * (n + 1)
    counter = 0
    height = 0
    max_degree = 0

    # Iterative postorder; each frame carries its parent's child-id collector.
    root_coll: list[int] = []
    stack: list[tuple[bool, TreeNode, int, list[int], Optional[list[int]]]] = [
        (False, t.root, 0, root_coll, None)]
    while stack:
        finished, node, depth, coll, parent_coll = stack.pop()
        if not finished:
            height = max(height, depth)
            max_degree = max(max_degree, len(node.children))
            own: list[int] = []
            stack.append((True, node, depth, own, coll))
            for c in reversed(node.children):
                stack.append((False, c, depth + 1, own, None))
        else:
            counter += 1
            i = counter
            labels[i] = node.label
            edge_labels[i] = node.edge_label
            children[i] = tuple(coll)
            nodes[i] = node
            for k in coll:
                parent[k] = i
            l[i] = l[coll[0]] if coll else i
            if parent_coll is not None:
                parent_coll.append(i)
    if counter != n:
        raise InternalError(f"postorder numbered {counter} nodes, size() gave {n}")
    # LR(T): the highest-indexed node for each distinct leftmost leaf.
    last_for_leaf: dict[int, int] = {}
    for k in range(1, n + 1):
        last_for_leaf[l[k]] = k
    keyroots = sorted(last_for_leaf.values())
    leaf_count = sum(1 for i in range(1, n + 1) if not children[i])
    return IndexedTree(t, n, labels, edge_labels, l, parent, children,
                       keyroots, nodes, leaf_count, height, max_degree)


# ---------------------------------------------------------------------------
# RNA tree encodings


def build_rep_b(s: SecondaryStructure) -> LabeledTree:
    """Per-base tree: internal node per base pair, leaf per unpaired base."""
    root = TreeNode(ROOT_LABEL, origin=("root",))
    open_pairs = [root]
    for pos, j in enumerate(s.partner()):
        if j < 0:
            open_pairs[-1].children.append(
                TreeNode(Label(s.sequence[pos]), origin=("base", pos)))
        elif j > pos:
            node = TreeNode(Label(f"{s.sequence[pos]}-{s.sequence[j]}"),
                            origin=("pair", pos, j))
            open_pairs[-1].children.append(node)
            open_pairs.append(node)
        else:
            open_pairs.pop()
    return LabeledTree(root, "b", s.id)


def build_rep_c(s: SecondaryStructure) -> LabeledTree:
    """Run tree: one node per maximal unpaired run or stacked-pair run."""
    table = s.partner()
    root = TreeNode(ROOT_LABEL, origin=("root",))
    # (stack node, inner closing base ending its region, resume position)
    open_stacks = [(root, s.length, s.length)]
    pos = 0
    while open_stacks:
        parent, close, resume = open_stacks[-1]
        if pos == close:
            open_stacks.pop()
            pos = resume
        elif table[pos] < 0:
            start = pos
            while pos < close and table[pos] < 0:
                pos += 1
            parent.children.append(TreeNode(Label("run", (pos - start,)),
                                            origin=("run", start, pos - 1)))
        else:
            j = table[pos]
            height = 1
            inner_i, inner_j = pos, j
            while table[inner_i + 1] == inner_j - 1 and inner_i + 1 < inner_j - 1:
                inner_i += 1
                inner_j -= 1
                height += 1
            node = TreeNode(Label("stack", (height,)), origin=("stack", pos, j))
            parent.children.append(node)
            open_stacks.append((node, inner_j, j + 1))
            pos = inner_i + 1
    if not s.length:
        root.children.append(TreeNode(Label("run", (0,)), origin=("run", 0, -1)))
    return LabeledTree(root, "c", s.id)


_KIND_NAMES = {
    ElementKind.HAIRPIN: "hairpin",
    ElementKind.INTERNAL: "internal",
    ElementKind.BULGE: "bulge",
    ElementKind.MULTILOOP: "multiloop",
    ElementKind.EXTERIOR: "root",
}


def build_rep_d(g: ElementGraph) -> LabeledTree:
    """Element tree: loops as nodes, helices as edge labels."""

    def loop_node(eid: int, edge_label: Optional[Label], origin: tuple) -> TreeNode:
        el = g.elements[eid]
        label = ROOT_LABEL if el.kind is ElementKind.EXTERIOR else Label(
            _KIND_NAMES[el.kind], el.sizes)
        return TreeNode(label, edge_label, origin=origin)

    root = loop_node(g.root, None, ("element", g.root))
    for node in walk(root):
        node.children = [loop_node(inner, Label("helix", g.elements[helix_id].sizes),
                                   ("element", inner, "helix", helix_id))
                         for helix_id, inner in g.children.get(node.origin[1], [])]
    return LabeledTree(root, "d", g.structure.id)


def build_rep_e(g: ElementGraph) -> LabeledTree:
    """Multiloop skeleton: Rep-D with internal loops and bulges contracted.

    Contracted helices concatenate; the merged edge size is the sum of the
    contracted helix sizes plus the contracted loop sizes.  The Rep-D tree
    is contracted in place.
    """
    rep_d = build_rep_d(g)
    for node in walk(rep_d.root):
        contracted = []
        for child in node.children:
            size = child.edge_label.total
            origin_ids = [child.origin]
            inner = child
            while inner.label.kind in ("internal", "bulge"):
                # exactly one child below an internal loop or bulge
                (nxt,) = inner.children
                size += inner.label.total + nxt.edge_label.total
                inner = nxt
                origin_ids.append(inner.origin)
            inner.edge_label = Label("helix", (size,))
            inner.origin = ("contracted", tuple(origin_ids))
            contracted.append(inner)
        node.children = contracted
    return LabeledTree(rep_d.root, "e", g.structure.id)


def build(s: SecondaryStructure, rep: str) -> LabeledTree:
    """Build the requested encoding ('b', 'c', 'd' or 'e') of a structure."""
    if rep == "b":
        return build_rep_b(s)
    if rep == "c":
        return build_rep_c(s)
    if rep == "d":
        return build_rep_d(decompose(s))
    if rep == "e":
        return build_rep_e(decompose(s))
    raise ValueError(f"unknown representation {rep!r}")


# ---------------------------------------------------------------------------
# Serialization


def to_parenthesized(t: LabeledTree) -> str:
    """Compact one-line text form, labels as kind(sizes), edges after '@'."""
    parts: list[str] = []
    left: list[int] = []  # children still to print under each open '['
    for node in walk(t.root):
        head = str(node.label)
        if node.edge_label is not None:
            head += f"@{node.edge_label}"
        if node.children:
            parts.append(head + "[")
            left.append(len(node.children))
            continue
        parts.append(head)
        # a leaf ends its parent's next child: separate or close upwards
        while left:
            left[-1] -= 1
            if left[-1]:
                parts.append(" ")
                break
            left.pop()
            parts.append("]")
    return "".join(parts)


_DOT_SHAPES = {
    "bulge": "triangle",
    "internal": "diamond",
    "hairpin": "box",
    "multiloop": "circle",
    "root": "doublecircle",
}


def to_dot(t: LabeledTree, name: str = "tree") -> str:
    """Graphviz text; node ids are ``name`` plus the preorder number and
    node shapes follow the element-kind conventions."""
    lines = [f"digraph {name} {{", "  node [fontsize=10];"]
    parent_id: dict[TreeNode, int] = {}
    for nid, node in enumerate(walk(t.root)):
        shape = _DOT_SHAPES.get(node.label.kind, "ellipse")
        lines.append(f'  {name}{nid} [label="{node.label}" shape={shape}];')
        if node in parent_id:
            edge = f' [label="{node.edge_label}"]' if node.edge_label else ""
            lines.append(f"  {name}{parent_id[node]} -> {name}{nid}{edge};")
        parent_id.update(dict.fromkeys(node.children, nid))
    lines.append("}")
    return "\n".join(lines) + "\n"
