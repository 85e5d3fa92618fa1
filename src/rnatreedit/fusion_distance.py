"""Edit distance with node fusion, edge fusion and their splits.

The dynamic program extends the keyroot decomposition with two extra
moves at single-tree states: the root may absorb one of its current
children by node fusion (the child's children are exposed, the root label
is re-merged) or by edge fusion (the root vanishes into a merged edge,
the displaced sibling subtrees are deleted at full cost).  The symmetric
splits apply on the second tree.  A per-root fusion path, bounded by a
small cap, records the chain of fusions so merged labels and the exposed
child list can be maintained incrementally.

A state is either a single tree (root index plus fusion path, which
determines the surviving node set) or a forest (a contiguous postorder
range minus at most cap interior holes, the residue of a matched or
deleted fused root).  Hole sets never intersect a remaining complete
subtree, which keeps every state compact.  Every move changes one side's
state, or both, to a successor on that side alone, so each tree's state
closure is enumerated up front (``_Side``), in an order where successors
come first.  States whose transitions are equal, mapped to classes, form
one class, and so have equal rows: the DP fills one cell per pair of
classes, bottom-up, one row at a time (``_fill``).  Each row is built in
a list from earlier rows copied out once as lists, then stored into the
one flat table that is kept.  Script extraction
walks the real states from the real roots and re-evaluates the lines at
each cell it visits, so no table of choices is kept.

``compare_trees`` is the one comparison path of the package: it picks
the engine from the cap (ZS at cap 0, this DP above it), extracts the
script and mapping and audits the script.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import Optional

from .cost_models import CostModel, LabelPair
from .edit_distance import (Decisions, DPTables, EditOp, EditScript, GroupDecision,
                            InternalError, MarkInfo, MalformedIndexError,
                            PreparedTree, ReplayContext, ReplayNode,
                            assemble_script, audit_script, extract_script, prepare,
                            zs_distance, _warn_unvalidated)
from .tree_model import IndexedTree, Label

# A fusion path is a tuple of marks; each mark is ('u', v) for a node
# fusion with child v or ('e', v) for an edge fusion.
FusionMark = tuple[str, int]
FusionPath = tuple[FusionMark, ...]

NODE_MARK = "u"
EDGE_MARK = "e"

_EMPTY = ("f", 1, 0, ())


class PathBudgetExceededError(InternalError):
    """A root holds more fusion paths than ``path_count_bound`` allows."""


@dataclass(frozen=True)
class FusionParams:
    """Fusion cap and pruning switch.

    ``cap`` bounds consecutive fusions per node; values above 2 are legal
    but slow.  ``prune`` drops edge fusions that immediately follow a node
    fusion, which is sound for cost models meeting the subadditivity
    condition.
    """

    cap: int = 1
    prune: bool = True

    def __post_init__(self):
        if not (0 <= self.cap <= 3):
            raise ValueError(f"fusion cap must be in [0, 3], got {self.cap}")
        if self.cap > 2:
            warnings.warn(f"fusion cap {self.cap} is expensive; "
                          "expect exponential path bookkeeping", stacklevel=3)


def path_count_bound(d: int, cap: int) -> int:
    """Exact count of possible fusion paths of length <= cap at degree d.

    Two mark kinds per step and sum(d**j for j in 1..k) candidate nodes
    for the k-th fusion.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    total = 1
    for k in range(1, cap + 1):
        choices = sum(d ** j for j in range(1, k + 1))
        total *= 2 * choices
    return total


@dataclass(frozen=True)
class MergedNodeState:
    """Effective data of a root after its fusion path.

    ``children`` are the current fusion candidates in sibling order;
    ``cf`` describes the node set below the merged root as a range minus
    holes; ``identity`` is the original node whose label the merged
    object currently carries (it changes on edge fusions).
    """

    merged: LabelPair
    children: tuple[int, ...]
    cf: tuple[int, int, tuple[int, ...]]
    identity: int


class _Side:
    """One tree's side of the DP: its state closure and transitions.

    The closure holds every state reachable from the root by the side's own
    moves.  States are numbered in DFS postorder, so every successor of a
    state has a smaller id; id 0 is the empty forest.  Per state ``s``:

    - ``is_tree[s]``: whether the state is a single tree;
    - ``left_part[s]``, ``right_part[s]``: the part left of the rightmost
      complete tree, and that tree (``0`` and ``s`` itself for a tree
      state);
    - ``rest[s]``, ``rcost[s]``: the state left after removing the
      rightmost root, and the price of that removal (for a tree state, the
      children forest and the price of the merged root);
    - ``moves[s]``: fusions (left side) or splits (right side) of a tree
      state whose path is shorter than the cap, as (cost, resulting id);
    - ``merged[s]``: the merged root label of a tree state, else None;
    - ``remove_all[s]``: the price of removing the whole state.

    ``cls[s]`` is the state's class.  ``classes`` lists one signature per
    class, numbered in the same postorder, so successors' classes come
    first: ``(is_tree, merged, rcost, remove_all, rest, left_part,
    right_part, moves)`` with the transitions as classes, ``right_part``
    None (the class itself) for a tree and ``moves`` as (cost, class).
    States with one signature have equal rows in any pair table, since
    every line of a cell reads the same cells at the same prices.

    A B side also numbers the merged labels of its classes
    (``label_of[c]``, -1 for a forest), lists its classes as the columns
    of ``_fill`` (``columns``: class, then the signature's fields in the
    order the fill reads them, with the label number) and keeps
    ``match_rows``: per merged label of an A state, the match
    price against each label, priced with the side's model on first use.
    Every pair compared against this side reuses them.
    """

    def __init__(self, prep: PreparedTree, left: bool, params: FusionParams):
        # A view over the tree's lists: a side kept in its ``sides`` forms no cycle.
        self.t = IndexedTree(*(getattr(prep, f.name) for f in fields(IndexedTree)))
        self.model = model = prep.model
        self.left = left
        self.price_pair = model.cost_del if left else model.cost_ins
        self.cost1 = prep.del_costs if left else prep.ins_costs
        self.prefix = list(accumulate(self.cost1))
        self.fuse_node = model.cost_node_fusion if left else model.cost_node_split
        self.fuse_edge = model.cost_edge_fusion if left else model.cost_edge_split
        self.infos: dict[tuple[int, FusionPath], MergedNodeState] = {}
        self.states: list[tuple] = [_EMPTY]
        self._close(params.cap, params.prune)
        if not left:
            labels: dict[LabelPair, int] = {}
            for sig in self.classes:
                if sig[0]:
                    labels.setdefault(sig[1], len(labels))
            self.label_pairs = list(labels)
            self.label_of = [labels.get(sig[1], -1) for sig in self.classes]
            self.columns = [(c, tree, lpart, c if tree else rpart, rest, rcost,
                             self.label_of[c], moves)
                            for c, (tree, _, rcost, _, rest, lpart, rpart, moves)
                            in enumerate(self.classes)][1:]
            self.match_rows: dict[LabelPair, list[float]] = {}

    def info(self, r: int, path: FusionPath) -> MergedNodeState:
        key = (r, path)
        cached = self.infos.get(key)
        if cached is not None:
            return cached
        t = self.t
        if not path:
            state = MergedNodeState((t.labels[r], t.edge_labels[r]),
                                    t.children[r], (t.l[r], r - 1, ()), r)
        else:
            prev = self.info(r, path[:-1])
            kind, v = path[-1]
            if v not in prev.children:
                raise PathBudgetExceededError(f"{v} is not a child of ({r}, {path[:-1]})")
            node_lbl, edge_lbl = prev.merged
            if kind == NODE_MARK:
                merged = (self.model.merge_node(node_lbl, t.edge_labels[v], t.labels[v]),
                          edge_lbl)
                pos = prev.children.index(v)
                children = prev.children[:pos] + t.children[v] + prev.children[pos + 1:]
                a, b, holes = prev.cf
                cf = (a, b, tuple(sorted(holes + (v,))))
                identity = prev.identity
            else:
                merged = (t.labels[v],
                          self.model.merge_edge(edge_lbl, node_lbl, t.edge_labels[v]))
                children = t.children[v]
                cf = (t.l[v], v - 1, ())
                identity = v
            state = MergedNodeState(merged, children, cf, identity)
        self.infos[key] = state
        return state

    def make_forest(self, a: int, b: int, holes: tuple[int, ...]) -> tuple:
        holes = tuple(h for h in holes if a <= h <= b)
        while a <= b and (b in holes or a in holes):
            if b in holes:
                b -= 1
            elif a in holes:
                a += 1
            holes = tuple(h for h in holes if a <= h <= b)
        if a > b:
            return _EMPTY
        if self.t.l[b] == a:
            # complete subtree; holes inside would break the invariant
            if holes:
                raise MalformedIndexError(f"holes {holes} inside subtree {b}")
            return ("t", b, ())
        return ("f", a, b, holes)

    def _successors(self, state: tuple, cap: int, prune: bool) -> tuple[list, list]:
        """Successor states, and the fusion moves as (cost, state)."""
        if state[0] == "f":
            _, a, b, holes = state
            return [self.make_forest(a, self.t.l[b] - 1, holes), ("t", b, ()),
                    self.make_forest(a, b - 1, holes)], []
        r, path = state[1], state[2]
        info = self.info(r, path)
        moves = []
        if len(path) < cap:
            pair = self.t.pair
            for c in info.children:
                moves.append((self.fuse_node(info.merged, pair(c)),
                              ("t", r, path + ((NODE_MARK, c),))))
            if r != self.t.root and not (prune and path and path[-1][0] == NODE_MARK):
                for c in info.children:
                    moves.append((self.fuse_edge(info.merged, pair(c))
                                  + self.displaced_cost(info, c),
                                  ("t", r, path + ((EDGE_MARK, c),))))
        return [self.make_forest(*info.cf)] + [m[1] for m in moves], moves

    def _close(self, cap: int, prune: bool) -> None:
        """Enumerate the closure in DFS postorder with an explicit stack,
        and give each state its class as it is numbered."""
        ids = {_EMPTY: 0}
        # Per state, the fields of its class signature in their order,
        # with the transitions as state ids.
        rows = [(False, None, 0.0, 0.0, 0, 0, 0, ())]
        cls = [0]
        classes = {rows[0]: 0}
        root = ("t", self.t.root, ())
        stack = [[root, *self._successors(root, cap, prune), 0]]
        while stack:
            frame = stack[-1]
            succ = frame[1]
            ptr = frame[3]
            while ptr < len(succ) and succ[ptr] in ids:
                ptr += 1
            frame[3] = ptr
            if ptr < len(succ):
                stack.append([succ[ptr], *self._successors(succ[ptr], cap, prune), 0])
                continue
            stack.pop()
            state, succ, moves, _ = frame
            sid = ids[state] = len(self.states)
            self.states.append(state)
            if state[0] == "f":
                _, a, b, holes = state
                row = (False, None, self.cost1[b], self.range_sum(a, b, holes),
                       ids[succ[2]], ids[succ[0]], ids[succ[1]], ())
                sig = row[:4] + (cls[row[4]], cls[row[5]], cls[row[6]], ())
            else:
                info = self.info(state[1], state[2])
                price = self.price_pair(info.merged)
                row = (True, info.merged, price, price + self.range_sum(*info.cf),
                       ids[succ[0]], 0, sid,
                       tuple((cost, ids[child]) for cost, child in moves))
                sig = row[:4] + (cls[row[4]], 0, None,
                                 tuple((cost, cls[child]) for cost, child in row[7]))
            rows.append(row)
            cls.append(classes.setdefault(sig, len(classes)))
        (self.is_tree, self.merged, self.rcost, self.remove_all, self.rest,
         self.left_part, self.right_part, self.moves) = map(list, zip(*rows))
        self.cls: list[int] = cls
        self.classes: list[tuple] = list(classes)

    def path_counts(self) -> dict[int, int]:
        """Number of fusion paths (the empty one included) per root."""
        counts: dict[int, int] = {}
        for state in self.states:
            if state[0] == "t":
                counts[state[1]] = counts.get(state[1], 0) + 1
        return counts

    def range_sum(self, a: int, b: int, holes: tuple[int, ...]) -> float:
        if a > b:
            return 0.0
        total = self.prefix[b] - self.prefix[a - 1]
        for h in holes:
            total -= self.cost1[h]
        return total

    def displaced_cost(self, info: MergedNodeState, child: int) -> float:
        a, b, holes = info.cf
        t = self.t
        return self.range_sum(a, b, holes) - self.range_sum(t.l[child], child, ())

    def displaced_ids(self, info: MergedNodeState, child: int) -> tuple[int, ...]:
        a, b, holes = info.cf
        lo, hi = self.t.l[child], child
        return tuple(x for x in range(a, b + 1)
                     if x not in holes and not lo <= x <= hi)


@dataclass
class FusionDPState:
    """Completed fusion DP: the class-pair table plus what extraction needs.

    ``memo`` is a flat ``array('d')`` over all pairs of state classes:
    cell ``c * len(side_b.classes) + d`` holds the distance from every
    state of class ``c`` of ``side_a`` to every state of class ``d`` of
    ``side_b`` (see ``_Side``).  The distance from state ``i`` to state
    ``j`` is the cell of ``(side_a.cls[i], side_b.cls[j])``.  ``_fill``
    builds each row as a list, but keeps the table as this array: 8 bytes
    a cell, where a table of lists would hold a float object per cell.
    """

    a: PreparedTree
    b: PreparedTree
    side_a: _Side
    side_b: _Side
    distance: float = 0.0
    memo: array = field(default_factory=lambda: array("d"))


def fusion_dp(a: IndexedTree, b: IndexedTree, m: CostModel,
              p: FusionParams = FusionParams()) -> tuple[float, FusionDPState]:
    """Distance over all seven operations with fusion paths capped at p.cap.

    Each tree goes through ``prepare`` under ``m``.  A side is kept in
    its prepared tree's ``sides``, so the tree compared again in the same
    role is neither closed nor budget-checked again, and a B side keeps
    the match rows priced against it.  The DP does not read colors, so a
    tree prepared with colors raises ``ValueError``: only ZS restricts
    matches by color (``compare_trees`` at cap 0).
    """
    _warn_unvalidated(m)
    pa, pb = prepare(a, m), prepare(b, m)
    if any(color != 0 for t in (pa, pb) for _, color in t.keys):
        raise ValueError("the fusion DP does not read colors: color restriction "
                         "needs cap 0, where ZS compares the trees")
    state = FusionDPState(pa, pb, _side(pa, True, p), _side(pb, False, p))
    state.memo = _fill(state.side_a, state.side_b)
    # The unfused root is the only state that takes n removals to empty,
    # so it has a class of its own, numbered last: the root pair is the
    # last cell.
    state.distance = state.memo[-1]
    return state.distance, state


def _side(t: PreparedTree, left: bool, p: FusionParams) -> _Side:
    """The tree's side in one role, from its ``sides`` once built and
    within the path budget."""
    side = t.sides.get((left, p))
    if side is None:
        side = _Side(t, left, p)
        _check_path_budget(side, p.cap)
        t.sides[left, p] = side
    return side


def _check_path_budget(side: _Side, cap: int) -> None:
    d = max(2, side.t.max_degree)
    # All path lengths up to the cap may be held at once.
    budget = sum(path_count_bound(d, k) for k in range(cap + 1))
    for r, n_paths in side.path_counts().items():
        if n_paths > budget:
            raise PathBudgetExceededError(
                f"root {r}: {n_paths} fusion paths, budget {budget}")


def _fill(sa: _Side, sb: _Side) -> array:
    """Fill the class-pair table bottom-up, row by row in A's class order.

    A cell is the minimum over its recurrence lines (``_best_line`` lists
    them in order).  A row of a forest class decomposes at the rightmost
    complete trees, deletes A's rightmost root or inserts B's.  A row of
    a tree class does the same against a forest class of B; against a
    tree class it matches the two merged roots instead of decomposing,
    and adds A's fusions and B's splits.  Row 0 and column 0 hold the
    price of removing the other side whole.  Match prices come from the
    B side's match rows (see ``_Side``).

    Each row is built in a list, ``cur``, and stored into the flat table
    with one slice assignment.  The earlier rows it reads (``rest``; for a
    forest class ``left`` and ``right``; for a tree class the row of each
    fusion) are copied out once per row as lists, so a cell reads them by
    column, with no offset sums and no new float object per read.  Every
    cell does the same float operations as a fill over the flat table.
    """
    na, nb = len(sa.classes), len(sb.classes)
    table = array("d", [0.0]) * (na * nb)
    row0 = [sig[3] for sig in sb.classes]
    table[:nb] = array("d", row0)

    def row(k: int) -> list[float]:
        return table[k * nb:(k + 1) * nb].tolist() if k else row0

    columns, label_pairs, match_rows = sb.columns, sb.label_pairs, sb.match_rows
    cost_match = sb.model.cost_match
    for i in range(1, na):
        tree_a, merged, cost_a, remove_a, rest, left, right, moves = sa.classes[i]
        # Every cell but column 0 is overwritten in column order.
        cur = [remove_a] * nb
        rest_row = row(rest)
        if not tree_a:
            left_row, right_row = row(left), row(right)
            for j, _, left_b, right_b, rest_b, cost_b, _, _ in columns:
                best = left_row[left_b] + right_row[right_b]
                alt = cost_a + rest_row[j]
                if alt < best:
                    best = alt
                alt = cost_b + cur[rest_b]
                if alt < best:
                    best = alt
                cur[j] = best
        else:
            match_row = match_rows.get(merged)
            if match_row is None:
                match_row = [cost_match(merged, pb) for pb in label_pairs]
                match_rows[merged] = match_row
            moves_a = [(cost, row(child)) for cost, child in moves]
            for j, tree_b, left_b, right_b, rest_b, cost_b, label_b, moves_b in columns:
                # The minimum does not depend on the order of the lines.
                if tree_b:
                    best = match_row[label_b] + rest_row[rest_b]
                    for cost, child_row in moves_a:
                        alt = cost + child_row[j]
                        if alt < best:
                            best = alt
                    for cost, child in moves_b:
                        alt = cost + cur[child]
                        if alt < best:
                            best = alt
                else:
                    best = row0[left_b] + cur[right_b]
                alt = cost_a + rest_row[j]
                if alt < best:
                    best = alt
                alt = cost_b + cur[rest_b]
                if alt < best:
                    best = alt
                cur[j] = best
        table[i * nb:(i + 1) * nb] = array("d", cur)
    return table


def _best_line(sa: _Side, sb: _Side, table: array, i: int, j: int
               ) -> tuple[int, float, list[tuple[int, int]]]:
    """The recurrence line of the state pair (i, j) that ``_fill``'s cell
    holds, as (line, price, successor pairs).

    The lines, in order: 0, match the two merged roots (both states
    trees), else decompose at the rightmost complete trees; 1, delete the
    rightmost root of the A state; 2, insert the rightmost root of the B
    state; from 3 on (both states trees), the A state's fusions, then
    the B state's splits, in ``_Side.moves`` order.  Each is priced from the
    table through the states' classes with the fill's float operations,
    and the first that reaches the minimum wins.  Raises when the
    minimum is not the cell's value.
    """
    nb = len(sb.classes)
    cls_a, cls_b = sa.cls, sb.cls
    both = sa.is_tree[i] and sb.is_tree[j]
    if both:
        row = sb.match_rows[sa.merged[i]]
        lines = [(row[sb.label_of[cls_b[j]]], [(sa.rest[i], sb.rest[j])])]
    else:
        lines = [(0.0, [(sa.left_part[i], sb.left_part[j]),
                        (sa.right_part[i], sb.right_part[j])])]
    lines.append((sa.rcost[i], [(sa.rest[i], j)]))
    lines.append((sb.rcost[j], [(i, sb.rest[j])]))
    if both:
        lines.extend((cost, [(child, j)]) for cost, child in sa.moves[i])
        lines.extend((cost, [(i, child)]) for cost, child in sb.moves[j])
    best, line = None, 0
    for k, (cost, pairs) in enumerate(lines):
        total = cost
        for p, q in pairs:
            total += table[cls_a[p] * nb + cls_b[q]]
        if best is None or total < best:
            best, line = total, k
    if best != table[cls_a[i] * nb + cls_b[j]]:
        raise MalformedIndexError(f"line {line} does not reproduce the value at {(i, j)}")
    return line, *lines[line]


# ---------------------------------------------------------------------------
# Fusion edit operations


@dataclass(frozen=True)
class NodeFusion(EditOp):
    """Merge child ``child`` into ``rep``; the child's children move up."""

    kind = "node_fusion"

    rep: int = 0
    child: int = 0
    node_label: Optional[Label] = None

    def to_json(self) -> dict:
        return {"op": "node_fusion", "i_nodes": [self.rep, self.child],
                "cost": self.cost}

    def apply(self, ctx: ReplayContext) -> None:
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

    rep: int = 0
    child: int = 0
    node_label: Optional[Label] = None
    edge_label: Optional[Label] = None

    def to_json(self) -> dict:
        return {"op": "edge_fusion", "i_nodes": [self.rep, self.child],
                "cost": self.cost}

    def apply(self, ctx: ReplayContext) -> None:
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

    focus: int = 0
    node: int = 0
    node_label: Optional[Label] = None
    edge_label: Optional[Label] = None
    tag: tuple[int, int] = (0, 0)
    focus_node_label: Optional[Label] = None

    def to_json(self) -> dict:
        return {"op": "node_split", "j_nodes": [self.focus, self.node],
                "cost": self.cost}

    def apply(self, ctx: ReplayContext) -> None:
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

    below: int = 0
    node: int = 0
    node_label: Optional[Label] = None
    edge_label: Optional[Label] = None
    tag: tuple[int, int] = (0, 0)
    below_edge_label: Optional[Label] = None
    below_tag: tuple[int, int] = (0, 0)

    def to_json(self) -> dict:
        return {"op": "edge_split", "j_nodes": [self.node, self.below],
                "cost": self.cost}

    def apply(self, ctx: ReplayContext) -> None:
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


# ---------------------------------------------------------------------------
# Extraction

GroupMapping = list[tuple[tuple[int, ...], tuple[int, ...]]]


def extract_fusion_script(state: FusionDPState) -> tuple[EditScript, GroupMapping]:
    """Follow the DP's winning lines into a script and a group mapping.

    The walk starts at the root pair and visits, depth first, the state
    pairs of the line ``_best_line`` picks at each cell, which also checks
    that line against the table.

    Fused groups map as single units: each mapping entry pairs the tuple
    of T nodes merged into one object with the tuple of T' nodes that
    object was matched to.
    """
    sa, sb = state.side_a, state.side_b
    table = state.memo
    decisions = Decisions()

    def marks_for(side: _Side, r: int, path: FusionPath) -> tuple[MarkInfo, ...]:
        out = []
        for k in range(len(path)):
            prefix = path[:k]
            kind, child = path[k]
            info = side.info(r, prefix)
            after = side.info(r, path[:k + 1])
            if kind == NODE_MARK:
                cost = side.fuse_node(info.merged, side.t.pair(child))
                displaced: tuple[int, ...] = ()
            else:
                cost = side.fuse_edge(info.merged, side.t.pair(child))
                displaced = side.displaced_ids(info, child)
            out.append(MarkInfo("node" if kind == NODE_MARK else "edge",
                                child, cost, after.merged, displaced,
                                after.identity))
        return tuple(out)

    def record_j_displaced(marks: tuple[MarkInfo, ...]) -> None:
        for mk in marks:
            for d in mk.displaced:
                decisions.plain_inserts.append((d, sb.cost1[d]))

    def record_removal(side: _Side, sid: int, plain: list, grouped: list) -> None:
        """Record removing the rightmost root of a state: a fused group
        as one object, otherwise one plain node."""
        key = side.states[sid]
        if key[0] == "t" and key[2]:
            marks = marks_for(side, key[1], key[2])
            grouped.append((key[1], marks, side.rcost[sid]))
            if not side.left:
                record_j_displaced(marks)
        else:
            plain.append((key[1] if key[0] == "t" else key[2], side.rcost[sid]))

    def spill(side: _Side, sid: int, plain: list, grouped: list) -> None:
        """Record removing a whole state (the opposite side is empty), one
        rightmost root at a time."""
        while sid:
            record_removal(side, sid, plain, grouped)
            sid = side.rest[sid]

    stack = [(len(sa.states) - 1, len(sb.states) - 1)]
    while stack:
        i, j = stack.pop()
        if i == 0:
            spill(sb, j, decisions.plain_inserts, decisions.inserted_groups)
            continue
        if j == 0:
            spill(sa, i, decisions.plain_deletes, decisions.deleted_groups)
            continue
        line, cost, pairs = _best_line(sa, sb, table, i, j)
        if line == 0 and sa.is_tree[i] and sb.is_tree[j]:
            ka, kb = sa.states[i], sb.states[j]
            j_marks = marks_for(sb, kb[1], kb[2])
            decisions.groups.append(GroupDecision(
                ka[1], marks_for(sa, ka[1], ka[2]), kb[1], j_marks, cost))
            record_j_displaced(j_marks)
        elif line == 1:
            record_removal(sa, i, decisions.plain_deletes, decisions.deleted_groups)
        elif line == 2:
            record_removal(sb, j, decisions.plain_inserts, decisions.inserted_groups)
        # A decomposition, a fusion or a B split records nothing here: a
        # fusion path is carried in the next state and resolved at its
        # terminal line.
        stack.extend(reversed(pairs))
    return assemble_script(state.a, state.b, decisions)


# ---------------------------------------------------------------------------
# Comparison


def compare_trees(a: IndexedTree, b: IndexedTree, m: CostModel,
                  p: FusionParams = FusionParams()
                  ) -> tuple[float, EditScript, GroupMapping, DPTables | FusionDPState]:
    """Distance, audited script, sorted group mapping and DP state of T and T'.

    At cap 0 the distance is the classical one, which ZS computes faster
    than the fusion DP (the two agree bit for bit); each mapped pair is
    then a group of one node on each side.  Above cap 0 the fusion DP
    runs.  Either way the script must pass the replay audit on the DP's
    prepared trees, or ``InternalError`` is raised.
    """
    if p.cap == 0:
        distance, dp = zs_distance(a, b, m)
        script, pairs = extract_script(dp)
        mapping = [((i,), (j,)) for i, j in pairs]
    else:
        distance, dp = fusion_dp(a, b, m, p)
        script, mapping = extract_fusion_script(dp)
    audit_script(dp.a, dp.b, script, distance)
    return distance, script, sorted(mapping), dp
