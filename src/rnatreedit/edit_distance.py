"""Classical tree edit distance and edit-script machinery.

The distance is the standard keyroot-scheduled dynamic program over
postorder-indexed trees: an outer loop over keyroot pairs, a transient
forest table per pair, and a persistent subtree-distance table.  Node and
incoming edge are priced together as one object.

``prepare`` interns a tree's (node label, edge label) pairs, plus colors
when given, into label classes and prices them, once per tree.  Per
pair the model prices one class-by-class match table, one call per
distinct pair of classes; the forest passes and the extraction read
that table.  A class pair whose colors differ or are missing holds
``inf`` without being priced, so its nodes never match.  What a pass
needs of T' (insert costs, prefix columns, leftmost-path flags, classes)
is built once per keyroot of T', and what it needs of T (delete costs,
treedist rows, match-table rows, forest rows) once per keyroot of T, so
the inner loops only index lists.  A cell's candidates (delete, insert,
then match or decomposition) are compared in that order with strict
``<``, so ties resolve as ``min`` resolves them and the tables are the
same floats, bit for bit, as a cell-by-cell ``min`` gives.

A pass depends only on the labels and shapes of its two subtrees, and
RNA trees repeat small subtrees (most keyroots of a per-base tree are
leaves).  Every subtree is interned into a canonical id (its label class
and its children's ids), and only the first keyroot of each id on each
side runs passes; a later twin takes its subtree distances from the
first, offset by their distance in postorder.  On trees prepared with
colors, a pass over two subtrees that share no color can match no node,
so it is not run: each subtree distance it would write is the delete
price of the one subtree plus the insert price of the other, taken from
prefix sums.  That is exact, not an estimate, when every price is on the
2**-32 grid of the built-in models and all of them together stay below
2**20, as then every order of summation gives the same float; with other
prices every pass runs.  ``DPTables.cells`` counts the forest cells
actually filled.  The table that results is the full node-indexed one,
the same floats as when every pass runs.

This module also owns the script layer both engines share: all seven
edit operations (delete, insert and relabel; node fusion, edge fusion
and their splits), the decision records an extraction produces and
their assembly into a script, ZS's extraction via backtracking, and a
mechanical replay engine that applies a script to a tree without
consulting the target: every operation carries the payload it needs
(labels, adoption ranges, anchor ids).  It imports nothing from the
fusion module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import Optional

from .cost_models import CostModel, LabelPair, quantize
from .tree_model import IndexedTree, InternalError, Label, LabeledTree, trees_equal


class MalformedIndexError(InternalError):
    pass


# ---------------------------------------------------------------------------
# Edit operations


@dataclass(frozen=True)
class EditOp:
    cost: float

    kind = "op"
    # The fields naming the operation's T nodes and T' nodes, in JSON order.
    i_fields = ()
    j_fields = ()

    def to_json(self) -> dict:
        out: dict = {"op": self.kind}
        if self.i_fields:
            out["i_nodes"] = [getattr(self, f) for f in self.i_fields]
        if self.j_fields:
            out["j_nodes"] = [getattr(self, f) for f in self.j_fields]
        out["cost"] = self.cost
        return out

    def apply(self, ctx: "ReplayContext") -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class Delete(EditOp):
    """Remove node ``node`` of T; its children take its place."""

    kind = "delete"
    i_fields = ("node",)

    node: int = 0

    def apply(self, ctx: "ReplayContext") -> None:
        w = ctx.take_i(self.node)
        pos = w.parent.children.index(w)
        for c in w.children:
            c.parent = w.parent
        w.parent.children[pos:pos + 1] = w.children


@dataclass(frozen=True)
class Insert(EditOp):
    """Create the counterpart of T' node ``node`` under ``parent``.

    Adopts the consecutive run of the parent's current children whose
    tags fall inside ``adopt`` (a postorder interval of T').
    """

    kind = "insert"
    j_fields = ("node",)

    node: int = 0
    parent: int = 0
    node_label: Optional[Label] = None
    edge_label: Optional[Label] = None
    tag: tuple[int, int] = (0, 0)
    adopt: tuple[int, int] = (0, 0)

    def apply(self, ctx: "ReplayContext") -> None:
        parent = ctx.registry_j[self.parent]
        start, end = ctx.adoption_run(parent, self.adopt)
        new = ReplayNode(self.node_label, self.edge_label, tag=self.tag)
        new.children = parent.children[start:end]
        for c in new.children:
            c.parent = new
        new.parent = parent
        parent.children[start:end] = [new]
        ctx.registry_j[self.node] = new


@dataclass(frozen=True)
class Relabel(EditOp):
    """Match T node ``node`` with T' node ``target`` (labels may be equal)."""

    kind = "relabel"
    i_fields = ("node",)
    j_fields = ("target",)

    node: int = 0
    target: int = 0
    node_label: Optional[Label] = None
    edge_label: Optional[Label] = None
    tag: tuple[int, int] = (0, 0)

    def apply(self, ctx: "ReplayContext") -> None:
        w = ctx.registry_i[self.node]
        w.label = self.node_label
        w.edge_label = self.edge_label
        w.tag = self.tag
        ctx.registry_j[self.target] = w


@dataclass(frozen=True)
class NodeFusion(EditOp):
    """Merge child ``child`` into ``rep``; the child's children move up."""

    kind = "node_fusion"
    i_fields = ("rep", "child")

    rep: int = 0
    child: int = 0
    node_label: Optional[Label] = None

    def apply(self, ctx: "ReplayContext") -> None:
        w = ctx.registry_i[self.rep]
        c = ctx.take_i(self.child)
        pos = w.children.index(c)
        for k in c.children:
            k.parent = w
        w.children[pos:pos + 1] = c.children
        w.label = self.node_label


@dataclass(frozen=True)
class EdgeFusion(EditOp):
    """Fuse the edges above and below ``rep``; only ``child`` survives it.

    Displaced sibling subtrees must already be deleted when this applies.
    """

    kind = "edge_fusion"
    i_fields = ("rep", "child")

    rep: int = 0
    child: int = 0
    node_label: Optional[Label] = None
    edge_label: Optional[Label] = None

    def apply(self, ctx: "ReplayContext") -> None:
        w = ctx.registry_i[self.rep]
        c = ctx.take_i(self.child)
        if w.children != [c]:
            raise MalformedIndexError("edge fusion with undeleted siblings")
        for k in c.children:
            k.parent = w
        w.children = c.children
        w.label = self.node_label
        w.edge_label = self.edge_label


@dataclass(frozen=True)
class NodeSplit(EditOp):
    """Inverse node fusion: re-create ``node`` below the merged object."""

    kind = "node_split"
    j_fields = ("focus", "node")

    focus: int = 0
    node: int = 0
    node_label: Optional[Label] = None
    edge_label: Optional[Label] = None
    tag: tuple[int, int] = (0, 0)
    focus_node_label: Optional[Label] = None

    def apply(self, ctx: "ReplayContext") -> None:
        w = ctx.registry_j[self.focus]
        start, end = ctx.adoption_run(w, self.tag)
        new = ReplayNode(self.node_label, self.edge_label, tag=self.tag)
        new.children = w.children[start:end]
        for k in new.children:
            k.parent = new
        new.parent = w
        w.children[start:end] = [new]
        w.label = self.focus_node_label
        ctx.registry_j[self.node] = new


@dataclass(frozen=True)
class EdgeSplit(EditOp):
    """Inverse edge fusion: re-create ``node`` above the merged object."""

    kind = "edge_split"
    j_fields = ("node", "below")

    below: int = 0
    node: int = 0
    node_label: Optional[Label] = None
    edge_label: Optional[Label] = None
    tag: tuple[int, int] = (0, 0)
    below_edge_label: Optional[Label] = None
    below_tag: tuple[int, int] = (0, 0)

    def apply(self, ctx: "ReplayContext") -> None:
        w = ctx.registry_j[self.below]
        new = ReplayNode(self.node_label, self.edge_label, tag=self.tag)
        parent = w.parent
        pos = parent.children.index(w)
        parent.children[pos] = new
        new.parent = parent
        new.children = [w]
        w.parent = new
        w.edge_label = self.below_edge_label
        w.tag = self.below_tag
        ctx.registry_j[self.node] = new


@dataclass
class EditScript:
    """Ordered operations editing T into T'."""

    ops: list[EditOp] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return sum(op.cost for op in self.ops)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for op in self.ops:
            out[op.kind] = out.get(op.kind, 0) + 1
        return out

    def to_json(self) -> list[dict]:
        return [op.to_json() for op in self.ops]


Mapping = set  # classical mapping: set of (i, j) couples


# ---------------------------------------------------------------------------
# Replay


class ReplayNode:
    __slots__ = ("label", "edge_label", "children", "parent", "tag")

    def __init__(self, label: Optional[Label], edge_label: Optional[Label] = None,
                 tag: Optional[tuple[int, int]] = None):
        self.label = label
        self.edge_label = edge_label
        self.children: list[ReplayNode] = []
        self.parent: Optional[ReplayNode] = None
        self.tag = tag


class ReplayContext:
    """Working copy of T, indexed by original postorder ids.

    A virtual super-root holds the top level so scripts may delete or
    insert the real root.  ``registry_j`` tracks realized T' identities.
    """

    def __init__(self, a: IndexedTree):
        self.virtual = ReplayNode(None, tag=(0, 1 << 60))
        # Slot 0 is the virtual root, the parent of node a.root.
        nodes = [self.virtual] + [ReplayNode(a.labels[i], a.edge_labels[i])
                                  for i in range(1, a.n + 1)]
        for i in range(1, a.n + 1):
            nodes[i].children = [nodes[c] for c in a.children[i]]
            nodes[i].parent = nodes[a.parent[i]]
        self.virtual.children = [nodes[a.root]]
        self.registry_i = {i: nodes[i] for i in range(1, a.n + 1)}
        self.registry_j = {0: self.virtual}

    def take_i(self, i: int) -> ReplayNode:
        return self.registry_i.pop(i)

    def adoption_run(self, parent: ReplayNode, adopt: tuple[int, int]) -> tuple[int, int]:
        lo, hi = adopt
        start = None
        end = len(parent.children)
        for idx, child in enumerate(parent.children):
            if child.tag is None:
                raise MalformedIndexError("untagged node during insertion phase")
            if lo <= child.tag[0] and child.tag[1] <= hi:
                if start is None:
                    start = idx
                end_seen = idx + 1
            elif start is not None:
                end = idx
                break
        if start is None:
            # empty run: position after every child strictly left of the range
            pos = sum(1 for c in parent.children if c.tag[1] < lo)
            return pos, pos
        return start, max(end_seen, start)

    def result(self) -> LabeledTree:
        """The replayed tree; its nodes are the working copy's own."""
        if len(self.virtual.children) != 1:
            raise MalformedIndexError(
                f"replay left {len(self.virtual.children)} top-level trees")
        return LabeledTree(self.virtual.children[0])


def replay_script(a: IndexedTree, script: EditScript) -> LabeledTree:
    """Apply a script to T mechanically and return the resulting tree."""
    ctx = ReplayContext(a)
    for op in script.ops:
        op.apply(ctx)
    return ctx.result()


def audit_script(a: IndexedTree, b: IndexedTree, script: EditScript,
                 distance: float) -> None:
    """The replay audit: the script must rebuild T' from T (a script that
    cannot be replayed at all fails it too), and its operations must cost
    exactly ``distance``.  Each half fails with a message of its own."""
    try:
        replayed = replay_script(a, script)
    except (LookupError, ValueError) as exc:
        raise InternalError(f"script replay failed: {type(exc).__name__}: {exc}") from None
    if not trees_equal(replayed.root, b.tree.root):
        raise InternalError("script replay failed to reproduce the target tree")
    if script.total_cost != distance:
        raise InternalError(f"script costs {script.total_cost!r}, the distance is {distance!r}")


# ---------------------------------------------------------------------------
# Distance


@dataclass
class PreparedTree(IndexedTree):
    """An indexed tree ready for comparison under one cost model (see
    ``prepare``), so it goes wherever an ``IndexedTree`` goes.

    Per node (index 0 unused) its label class and prices; per class its
    (label pair, color) key; ``twins`` maps each keyroot whose subtree
    equals an earlier keyroot's to that one.  ``sides`` holds every fusion
    side built on the tree, keyed by (left, params), left true for T; a
    side refers to the tree's lists, not to the tree, so forms no cycle.
    """

    model: CostModel
    cls: list[int]
    keys: list[tuple[LabelPair, object]]
    del_costs: list[float]
    ins_costs: list[float]
    twins: dict[int, int]
    sides: dict = field(default_factory=dict)


@dataclass
class DPTables:
    """Persistent subtree-distance table plus what backtracking needs.

    ``match_table[ca][cb]`` is the relabel cost between label class
    ``ca`` of ``a`` and ``cb`` of ``b``: ``inf``, never priced, for a
    pair whose colors differ or are missing.  ``cells`` counts the
    forest-table cells ``zs_distance`` filled, so the passes it left to
    twin subtrees, and those it skipped for subtrees that share no color,
    are not in it.
    """

    a: PreparedTree
    b: PreparedTree
    treedist: list[list[float]]
    distance: float
    match_table: list[list[float]]
    cells: int = 0


def _warn_unvalidated(m: CostModel) -> None:
    if not m.assume_valid:
        warnings.warn(f"cost model {m.name!r} has not passed validation; "
                      "the result may not be a distance", stacklevel=3)


def prepare(t: IndexedTree, m: CostModel, colors: Optional[list] = None) -> PreparedTree:
    """What ``zs_distance`` and ``fusion_dp`` need of tree ``t`` under ``m``.

    Both engines call it on their trees: a tree prepared under ``m`` is
    returned as it is, and under another model or with ``colors`` raises
    ``ValueError``.  ``colors``, if given, holds one color per node (index
    0 unused), ``None`` for an uncolored one.  Nodes with equal label pairs and
    colors share a class, numbered in order of first appearance; each
    class is priced once, and as the model is pure, each node gets the
    float it would get on its own.  Every subtree gets a canonical id,
    interned in postorder from its root's class and its children's ids,
    so two subtrees share an id exactly when they have the same shape
    and labels: a keyroot is a twin of the first keyroot of its id.
    """
    if isinstance(t, PreparedTree):
        if t.model is not m or colors is not None:
            raise ValueError("a prepared tree is compared only under the cost model it was "
                             "prepared with, and with the colors it was prepared with")
        return t
    if t.n < 1 or len(t.l) != t.n + 1:
        raise MalformedIndexError("tree index arrays are inconsistent")
    for i in range(1, t.n + 1):
        if not (1 <= t.l[i] <= i):
            raise MalformedIndexError(f"l({i}) = {t.l[i]} out of range")
    if colors is None:
        colors = [0] * (t.n + 1)
    elif len(colors) != t.n + 1:
        raise ValueError(f"{len(colors)} colors given for a tree of {t.n} nodes: "
                         f"expected {t.n + 1}, one per node after the unused index 0")
    ids: dict[tuple[LabelPair, object], int] = {}
    subtrees: dict[tuple, int] = {}
    cls, sub = [0] * (t.n + 1), [0] * (t.n + 1)
    for i in range(1, t.n + 1):
        cls[i] = ids.setdefault((t.pair(i), colors[i]), len(ids))
        sub[i] = subtrees.setdefault((cls[i], tuple(sub[c] for c in t.children[i])),
                                     len(subtrees))
    first: dict[int, int] = {}
    twins = {}
    for k in t.keyroots:
        k0 = first.setdefault(sub[k], k)
        if k0 != k:
            twins[k] = k0
    dels = [m.cost_del(p) for p, _ in ids]
    inss = [m.cost_ins(p) for p, _ in ids]
    return PreparedTree(*(getattr(t, f.name) for f in fields(IndexedTree)), m, cls, list(ids),
                        [0.0] + [dels[c] for c in cls[1:]], [0.0] + [inss[c] for c in cls[1:]],
                        twins)


def zs_distance(a: IndexedTree, b: IndexedTree, m: CostModel) -> tuple[float, DPTables]:
    """Tree edit distance over the classical three operations.

    Each tree goes through ``prepare`` under ``m``; two nodes of trees
    prepared with colors match only when their colors are equal and not
    ``None``: every other class pair holds ``inf`` in the match table and
    is never priced.  The forest pass of a keyroot pair whose subtrees
    share no color is skipped when the prices allow it exactly (see
    ``_disjoint_subtrees``); the subtree distances it would have written,
    delete price plus insert price, are written before the passes of its
    keyroot of ``a`` run, so twin copies and later passes read them.
    """
    _warn_unvalidated(m)
    a, b = prepare(a, m), prepare(b, m)
    match_table = [[m.cost_match(p, q) if c is not None and c == d else math.inf
                    for q, d in b.keys] for p, c in a.keys]
    treedist = [[0.0] * (b.n + 1) for _ in range(a.n + 1)]
    tables = DPTables(a, b, treedist, 0.0, match_table)
    # Node g of a twin keyroot k corresponds to node g - k + k0 of its
    # first k0: their subtree distances are the same floats.
    twins_a, twins_b = a.twins, b.twins
    la, lb = a.l, b.l
    columns = [(slice(lb[j], j + 1), slice(lb[twins_b[j]], twins_b[j] + 1))
               if j in twins_b else _columns(b, j) for j in b.keyroots]
    live_b = [j for j in b.keyroots if j not in twins_b]
    width = sum(j - lb[j] + 1 for j in live_b)
    disjoint = _disjoint_subtrees(a, b)
    if disjoint:
        mask_a, del_a, mask_b, ins_b = disjoint
    plans: dict[int, tuple] = {}
    for i in a.keyroots:
        li = la[i]
        i0 = twins_a.get(i)
        if i0 is not None:
            for gi in range(li, i + 1):
                if la[gi] == li:
                    treedist[gi][:] = treedist[gi - i + i0]
            continue
        cols, skipped = columns, 0
        if disjoint:
            mi = mask_a[i]
            plan = plans.get(mi)
            if plan is None:
                # Per color mask of i: the columns left to run, and the
                # leftmost-path nodes (with their subtrees' insert prices)
                # and width of the keyroots j whose subtrees share no color.
                skip = [j for j in live_b if not mask_b[j] & mi]
                plan = plans[mi] = (
                    [col for j, col in zip(b.keyroots, columns)
                     if j in twins_b or mask_b[j] & mi],
                    [(gj, ins_b[gj]) for j in skip for gj in range(lb[j], j + 1)
                     if lb[gj] == lb[j]],
                    sum(j - lb[j] + 1 for j in skip))
            cols, path_b, skipped = plan
            for gi in range(li, i + 1):
                if la[gi] == li:
                    d, tdi = del_a[gi], treedist[gi]
                    for gj, cost in path_b:
                        tdi[gj] = d + cost
        _forest_pass(tables, i, cols)
        tables.cells += (i - li + 1) * (width - skipped)
    tables.distance = treedist[a.n][b.n]
    return tables.distance, tables


def _disjoint_subtrees(a: PreparedTree, b: PreparedTree) -> Optional[tuple[list, ...]]:
    """What ``zs_distance`` needs to skip the passes of subtree pairs that
    share no color, or ``None`` when it may not or need not skip any.

    A pass over subtrees with no color in common can match no node, so
    each of its subtree distances is the delete price of the one subtree
    plus the insert price of the other, whatever the path.  Those sums
    are the floats the pass would compute only when every order of
    summation gives the same float: when each price is on the 2**-32 grid
    of the built-in models and all of them together stay below 2**20.
    Returns, per node of ``a``, the bits of the colors in its subtree that
    ``b`` has too, and its subtree's delete price; and the same for ``b``,
    with insert prices.
    """
    colors_a = {c for _, c in a.keys}
    colors_b = {c for _, c in b.keys}
    if len(colors_a | colors_b) == 1 and None not in colors_a:
        return None  # one color on every node: every pass may match
    prices = a.del_costs + b.ins_costs
    if not (sum(map(abs, prices)) < 2.0 ** 20
            and all(quantize(p) == p for p in set(prices))):
        return None
    bit = {c: 1 << k for k, c in enumerate((colors_a & colors_b) - {None})}
    return (*_subtree_sums(a, a.del_costs, bit), *_subtree_sums(b, b.ins_costs, bit))


def _subtree_sums(t: PreparedTree, costs: list[float], bit: dict) -> tuple[list, list]:
    """Per node, the OR of the color bits and the sum of the prices over
    its subtree, the latter from prefix sums in postorder."""
    class_bits = [bit.get(c, 0) for _, c in t.keys]
    mask = [class_bits[k] for k in t.cls]
    for i in range(1, t.n):
        mask[t.parent[i]] |= mask[i]
    prefix = list(accumulate(costs))
    return mask, [0.0] + [prefix[i] - prefix[t.l[i] - 1] for i in range(1, t.n + 1)]


def _columns(t: PreparedTree, j: int) -> tuple:
    """Column data of every forest pass anchored at T' node j.

    For the columns y = 1..j-joff (node gj = y + joff, joff = l(j) - 1):
    the insert costs, the column ``l(gj) - 1 - joff`` where the forest
    left of gj's subtree ends, whether gj lies on the leftmost path of
    j, and the label classes; plus row 0 of the forest table (cumulative
    insert costs, only ever read) and the slice and range of the nodes.
    """
    lb = t.l
    joff = lb[j] - 1
    nodes = range(joff + 1, j + 1)
    span = slice(joff + 1, j + 1)
    ins = t.ins_costs[span]
    row0 = [0.0]
    for cost in ins:
        row0.append(row0[-1] + cost)
    prefix = [lb[gj] - 1 - joff for gj in nodes]
    on_path = [lb[gj] == lb[j] for gj in nodes]
    return row0, ins, prefix, on_path, t.cls[span], span, nodes


def _forest_pass(t: DPTables, i: int, cols: list[tuple],
                 keep: bool = False) -> Optional[list[list[float]]]:
    """Forest tables for the subtree pairs anchored at (i, j), j in turn.

    ``cols`` holds ``_columns(t, j)`` for each j, or for a j whose subtree
    equals that of an earlier j0 the pair (slice of j's subtree, slice of
    j0's): its treedist cells on the leftmost path of i are then copied
    from j0's, at the point where its own table would have been built,
    since later tables read them.  (The other cells of those slices
    already hold equal floats: they come from the tables of keyroots
    inside the two subtrees, which are twins at the same offsets.)  The
    row data of i (for each node gi of its subtree, in postorder: its
    delete cost, its treedist row, its class's match-table row when gi
    lies on the leftmost path of i, and the forest row left of its
    subtree) is read once for all of them.  Each table is built row by
    row, each row left to right.  A cell takes the cheapest of: delete
    (from above), insert (from the left), and either a match, when both
    nodes lie on the leftmost paths of i and j (diagonal plus the class
    match cost; the cell is then a subtree distance and is written to
    treedist), or the forest left of both subtrees plus their treedist.
    The candidates are compared in that order with strict ``<``, so the
    first minimum wins, as with ``min``.  With ``keep`` the last table is
    returned for backtracking.
    """
    la = t.a.l
    li = la[i]
    match_table, class_a = t.match_table, t.a.cls
    rows = [(t.a.del_costs[gi], t.treedist[gi],
             match_table[class_a[gi]] if la[gi] == li else None, la[gi] - li)
            for gi in range(li, i + 1)]
    path_rows = [tdi for _, tdi, mrow, _ in rows if mrow is not None]
    fd: list[list[float]] = []
    for col in cols:
        if len(col) == 2:
            dst, src = col
            for tdi in path_rows:
                tdi[dst] = tdi[src]
            continue
        row0, ins, prefix, on_path, classes, span, nodes = col
        fd = [row0]
        up_row = row0
        for dgi, tdi, mrow, fx in rows:
            left = up_row[0] + dgi
            row = [left]
            # ``left`` takes the delete candidate, then the running
            # minimum, which is the next cell's left neighbour.
            if mrow is not None:
                # gi is on the leftmost path of i: the forest left of its
                # subtree is row 0.
                diag = up_row[0]
                for gj, up, cost, p, on, c in zip(nodes, up_row[1:], ins, prefix,
                                                  on_path, classes):
                    w = left + cost
                    left = up + dgi
                    if w < left:
                        left = w
                    if on:
                        w = diag + mrow[c]
                        if w < left:
                            left = w
                        tdi[gj] = left
                    else:
                        w = row0[p] + tdi[gj]
                        if w < left:
                            left = w
                    row.append(left)
                    diag = up
            else:
                forest = fd[fx]
                for up, cost, p, td in zip(up_row[1:], ins, prefix, tdi[span]):
                    w = left + cost
                    left = up + dgi
                    if w < left:
                        left = w
                    w = forest[p] + td
                    if w < left:
                        left = w
                    row.append(left)
            fd.append(row)
            up_row = row
    return fd if keep else None


# ---------------------------------------------------------------------------
# Script extraction


def extract_script(tables: DPTables) -> tuple[EditScript, Mapping]:
    """Backtrack an optimal script and its mapping from completed tables.

    Ties break deterministically: match over delete over insert, and
    decomposition first at forest cells.
    """
    a, b = tables.a, tables.b
    class_a, class_b, match_table = a.cls, b.cls, tables.match_table
    matches: list[tuple[int, int]] = []
    deletes: list[int] = []
    inserts: list[int] = []

    # Subtree pairs still to walk, innermost last: (i, j, forest table,
    # resume cell).  A decomposition suspends its pair at the forest left
    # of both subtrees and walks the subtree pair first, as a recursive
    # walk would, so the decisions come out in the same order.
    stack: list[tuple[int, int, Optional[list[list[float]]], int, int]] = [
        (a.root, b.root, None, 0, 0)]
    while stack:
        i, j, fd, x, y = stack.pop()
        ioff = a.l[i] - 1
        joff = b.l[j] - 1
        if fd is None:
            fd = _forest_pass(tables, i, [_columns(b, j)], keep=True)
            x, y = i - ioff, j - joff
        while x > 0 or y > 0:
            gi, gj = x + ioff, y + joff
            if x > 0 and y > 0 and a.l[gi] == a.l[i] and b.l[gj] == b.l[j]:
                mc = match_table[class_a[gi]][class_b[gj]]
                if fd[x][y] == fd[x - 1][y - 1] + mc:
                    matches.append((gi, gj))
                    x -= 1
                    y -= 1
                elif fd[x][y] == fd[x - 1][y] + a.del_costs[gi]:
                    deletes.append(gi)
                    x -= 1
                else:
                    inserts.append(gj)
                    y -= 1
            elif x > 0 and y > 0:
                px = a.l[gi] - 1 - ioff
                py = b.l[gj] - 1 - joff
                if fd[x][y] == fd[px][py] + tables.treedist[gi][gj]:
                    stack.append((i, j, fd, px, py))
                    stack.append((gi, gj, None, 0, 0))
                    break
                elif fd[x][y] == fd[x - 1][y] + a.del_costs[gi]:
                    deletes.append(gi)
                    x -= 1
                else:
                    inserts.append(gj)
                    y -= 1
            elif x > 0:
                deletes.append(x + ioff)
                x -= 1
            else:
                inserts.append(y + joff)
                y -= 1

    groups = [GroupDecision(i, (), j, (), match_table[class_a[i]][class_b[j]])
              for i, j in matches]
    decisions = Decisions(groups, [(d, (), a.del_costs[d]) for d in deletes],
                          [(v, (), b.ins_costs[v]) for v in inserts])
    script, group_mapping = assemble_script(a, b, decisions)
    mapping: Mapping = {(gi[0], gj[0]) for gi, gj in group_mapping}
    return script, mapping


def validate_mapping(a: IndexedTree, b: IndexedTree,
                     pairs: set[tuple[int, int]]) -> bool:
    """One-to-one, ancestor-preserving, sibling-order-preserving check."""
    seen_i = {p[0] for p in pairs}
    seen_j = {p[1] for p in pairs}
    if len(seen_i) != len(pairs) or len(seen_j) != len(pairs):
        return False

    def is_anc(t: IndexedTree, u: int, v: int) -> bool:
        return t.l[u] <= v < u

    plist = sorted(pairs)
    for u, uj in plist:
        for v, vj in plist:
            if (u < v) != (uj < vj) and u != v:
                return False
            if is_anc(a, u, v) != is_anc(b, uj, vj):
                return False
            if is_anc(a, v, u) != is_anc(b, vj, uj):
                return False
    return True


# ---------------------------------------------------------------------------
# Decision records and script assembly (shared with the fusion module)


@dataclass(frozen=True)
class MarkInfo:
    """One fusion/split applied to a group root.

    ``merged_pair`` is the root's (node, edge) label object after this
    mark; ``displaced`` lists the sibling subtree nodes an edge mark
    displaces (deleted before the fusion on the T side, inserted as single
    nodes on the T' side); ``identity`` is the T'-side node whose data the
    merged object carries after this mark (unused on the T side).
    """

    kind: str  # 'node' or 'edge'
    child: int
    cost: float
    merged_pair: LabelPair
    displaced: tuple[int, ...] = ()
    identity: int = 0


@dataclass(frozen=True)
class GroupDecision:
    i_root: int
    i_marks: tuple[MarkInfo, ...]
    j_root: int
    j_marks: tuple[MarkInfo, ...]
    match_cost: float


@dataclass
class Decisions:
    """What an extraction decided: the matched groups, and each deleted
    or inserted object as (root, marks, cost of removing the whole
    object), with ``()`` as the marks of a single node."""

    groups: list[GroupDecision] = field(default_factory=list)
    deleted: list[tuple[int, tuple[MarkInfo, ...], float]] = field(default_factory=list)
    inserted: list[tuple[int, tuple[MarkInfo, ...], float]] = field(default_factory=list)


def _carried(b: IndexedTree, root: int, marks: tuple[MarkInfo, ...]) -> tuple[int, LabelPair]:
    """The T' node whose data a T'-side object carries after ``marks``,
    and the object's label pair."""
    if marks:
        return marks[-1].identity, marks[-1].merged_pair
    return root, (b.labels[root], b.edge_labels[root])


def _group_block(a: PreparedTree, root: int, marks: tuple[MarkInfo, ...]) -> list[EditOp]:
    """Fusion ops for one T-side group, displaced deletions first."""
    ops: list[EditOp] = []
    for mark in marks:
        if mark.kind == "edge":
            for d in sorted(mark.displaced, reverse=True):
                ops.append(Delete(cost=a.del_costs[d], node=d))
            ops.append(EdgeFusion(cost=mark.cost, rep=root, child=mark.child,
                                  node_label=mark.merged_pair[0],
                                  edge_label=mark.merged_pair[1]))
        else:
            ops.append(NodeFusion(cost=mark.cost, rep=root, child=mark.child,
                                  node_label=mark.merged_pair[0]))
    return ops


def _split_block(b: IndexedTree, root: int, marks: tuple[MarkInfo, ...]) -> list[EditOp]:
    """Split ops materializing a T'-side group, last fusion undone first."""
    ops: list[EditOp] = []
    for k in range(len(marks) - 1, -1, -1):
        mark = marks[k]
        prev_identity, prev_pair = _carried(b, root, marks[:k])
        if mark.kind == "node":
            ops.append(NodeSplit(
                cost=mark.cost, focus=mark.identity, node=mark.child,
                node_label=b.labels[mark.child], edge_label=b.edge_labels[mark.child],
                tag=(b.l[mark.child], mark.child),
                focus_node_label=prev_pair[0]))
        else:
            ops.append(EdgeSplit(
                cost=mark.cost, below=mark.identity, node=prev_identity,
                node_label=prev_pair[0], edge_label=prev_pair[1],
                tag=(b.l[prev_identity], prev_identity),
                below_edge_label=b.edge_labels[mark.child],
                below_tag=(b.l[mark.child], mark.child)))
    return ops


def assemble_script(a: PreparedTree, b: IndexedTree, decisions: Decisions
                    ) -> tuple[EditScript, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Order the backtracked decisions into an executable script.

    T-side rewrites run first (fusion blocks, deletions, relabels), then
    T'-side materialization in preorder (splits and insertions).  Fused
    objects are deleted in ascending order of their roots, then single
    nodes in descending order.  Returns the script and the group mapping
    (merged objects map as one unit).
    """
    ops: list[EditOp] = []
    deleted = sorted(decisions.deleted)
    groups = sorted(decisions.groups, key=lambda g: g.i_root)
    for root, marks, _ in deleted:
        ops.extend(_group_block(a, root, marks))
    for g in groups:
        ops.extend(_group_block(a, g.i_root, g.i_marks))
    for root, _, cost in [d for d in deleted if d[1]] + [d for d in reversed(deleted) if not d[1]]:
        ops.append(Delete(cost=cost, node=root))

    pre = {node: rank for rank, node in enumerate(b.preorder())}
    events: list[tuple[int, list[EditOp]]] = []
    for g in groups:
        identity, merged = _carried(b, g.j_root, g.j_marks)
        ops.append(Relabel(cost=g.match_cost, node=g.i_root, target=identity,
                           node_label=merged[0], edge_label=merged[1],
                           tag=(b.l[identity], identity)))
        if g.j_marks:
            events.append((pre[g.j_root], _split_block(b, g.j_root, g.j_marks)))
    for root, marks, cost in decisions.inserted:
        identity, merged = _carried(b, root, marks)
        events.append((pre[root], [Insert(
            cost=cost, node=identity, parent=b.parent[root],
            node_label=merged[0], edge_label=merged[1],
            tag=(b.l[identity], identity), adopt=(b.l[root], root)),
            *_split_block(b, root, marks)]))
    for _, block in sorted(events, key=lambda e: e[0]):
        ops.extend(block)

    mapping = []
    for g in decisions.groups:
        i_members = tuple(sorted([g.i_root] + [mk.child for mk in g.i_marks]))
        j_members = tuple(sorted([g.j_root] + [mk.child for mk in g.j_marks]))
        mapping.append((i_members, j_members))
    return EditScript(ops), mapping
