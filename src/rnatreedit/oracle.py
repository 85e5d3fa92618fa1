"""Independent brute-force references for the distance algorithms.

``mapping_oracle`` minimizes over every one-to-one, order-preserving node
mapping directly (the classical distance equals the best such mapping).
``script_search_oracle`` searches the space of whole-tree rewrites under
all seven operations.  Neither shares code or recurrence structure with
the dynamic programs they check.

The script search runs in two modes.  The default factors scripts into
their canonical order: shrink the first tree by deletions and fusions,
relabel, then grow into the second tree by insertions and splits (the
grow phase is enumerated as shrinking the target with mirrored prices).
Both shrink closures are exhausted by uniform-cost search and joined over
shape-identical cores, which is exact for cost models meeting the usual
symmetry and subadditivity conditions.  ``free_order=True`` searches raw
interleaved scripts instead; it is exponentially slower and exists to
validate the factored mode on tiny inputs.

A fusion chain is budgeted by merged-group size: absorbing an already
fused child counts every node it swallowed, matching the per-node cap on
consecutive fusions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from .cost_models import CostModel, LabelPair
from .tree_model import IndexedTree

MAX_ORACLE_NODES = 8


class BudgetExceededError(RuntimeError):
    pass


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = MAX_ORACLE_NODES
    fusion_cap: int = 1
    # Optional hard ceiling on script cost; defaults to the classical optimum.
    cost_bound: Optional[float] = None
    free_order: bool = False


def _ancestor_masks(t: IndexedTree) -> list[int]:
    """Bit i set in masks[v] when v is a strict ancestor of node i."""
    masks = [0] * (t.n + 1)
    for v in range(1, t.n + 1):
        m = 0
        for u in range(t.l[v], v):
            m |= 1 << u
        masks[v] = m
    return masks


def valid_mapping_skeletons(a: IndexedTree, b: IndexedTree
                            ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (subset of T, subset of T') index pairs forming a valid mapping.

    Within a size class the postorder-monotone bijection is the only
    candidate; it is valid exactly when ancestorship agrees pairwise.
    """
    anc_a = _ancestor_masks(a)
    anc_b = _ancestor_masks(b)
    out = []
    nodes_a = range(1, a.n + 1)
    nodes_b = range(1, b.n + 1)
    for k in range(min(a.n, b.n), -1, -1):
        for sa in combinations(nodes_a, k):
            for sb in combinations(nodes_b, k):
                ok = True
                for x in range(k):
                    for y in range(x + 1, k):
                        a_anc = (anc_a[sa[y]] >> sa[x]) & 1
                        b_anc = (anc_b[sb[y]] >> sb[x]) & 1
                        if a_anc != b_anc:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    out.append((sa, sb))
    return out


def _cheapest_mapping(a: IndexedTree, b: IndexedTree, m: CostModel,
                      skeletons_of: Callable[[IndexedTree, IndexedTree], list]
                      ) -> float:
    """Cheapest of ``skeletons_of(a, b)``, each distinct label pair priced once."""
    if a.n > MAX_ORACLE_NODES or b.n > MAX_ORACLE_NODES:
        raise BudgetExceededError(
            f"mapping oracle limited to {MAX_ORACLE_NODES} nodes")
    ids_a: dict[LabelPair, int] = {}
    ids_b: dict[LabelPair, int] = {}
    pair_a = [0] + [ids_a.setdefault(a.pair(i), len(ids_a)) for i in range(1, a.n + 1)]
    pair_b = [0] + [ids_b.setdefault(b.pair(j), len(ids_b)) for j in range(1, b.n + 1)]
    del_of = [m.cost_del(p) for p in ids_a]
    ins_of = [m.cost_ins(q) for q in ids_b]
    match_of = [[m.cost_match(p, q) for q in ids_b] for p in ids_a]
    del_costs = [0.0] + [del_of[k] for k in pair_a[1:]]
    ins_costs = [0.0] + [ins_of[k] for k in pair_b[1:]]
    gain = [[0.0] * (b.n + 1) for _ in range(a.n + 1)]
    for i in range(1, a.n + 1):
        for j in range(1, b.n + 1):
            gain[i][j] = (match_of[pair_a[i]][pair_b[j]]
                          - del_costs[i] - ins_costs[j])
    base = sum(del_costs) + sum(ins_costs)
    best = base
    for sa, sb in skeletons_of(a, b):
        cost = base
        for i, j in zip(sa, sb):
            cost += gain[i][j]
        if cost < best:
            best = cost
    return best


def mapping_oracle(a: IndexedTree, b: IndexedTree, m: CostModel) -> float:
    """Minimum cost over all valid mappings: matches plus unmapped dels/ins."""
    return _cheapest_mapping(a, b, m, valid_mapping_skeletons)


class MappingOracleCache:
    """Bulk mapping-oracle evaluation with shape-level skeleton reuse.

    Valid mapping skeletons depend only on the two tree shapes, so
    exhaustive sweeps over labeled trees share them across label
    assignments.  The postorder child lists identify a shape.
    """

    def __init__(self):
        self._skeletons: dict[tuple, list] = {}

    def _skeletons_for(self, a: IndexedTree, b: IndexedTree) -> list:
        key = (tuple(a.children), tuple(b.children))
        skeletons = self._skeletons.get(key)
        if skeletons is None:
            skeletons = valid_mapping_skeletons(a, b)
            self._skeletons[key] = skeletons
        return skeletons

    def distance(self, a: IndexedTree, b: IndexedTree, m: CostModel) -> float:
        return _cheapest_mapping(a, b, m, self._skeletons_for)


# ---------------------------------------------------------------------------
# Script-space search


class _SNode:
    """Rewrite-state node.

    ``members`` are the original node ids merged into this object (empty
    for nodes created by insertions or splits) and ``top`` is the group
    member adjacent to the rest of the original tree.  ``bonded`` marks a
    split-created parent adjacency that later operations must not break.
    """

    __slots__ = ("label", "edge", "children", "members", "top", "splits",
                 "bonded")

    def __init__(self, label, edge, children: tuple = (),
                 members: tuple = (), top: int = 0, splits: int = 0,
                 bonded: bool = False):
        self.label = label
        self.edge = edge
        self.children = children
        self.members = members
        self.top = top
        self.splits = splits
        self.bonded = bonded

    def pair(self) -> LabelPair:
        return (self.label, self.edge)

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


def _from_indexed(t: IndexedTree, i: int) -> _SNode:
    return _SNode(t.labels[i], t.edge_labels[i],
                  tuple(_from_indexed(t, c) for c in t.children[i]),
                  members=(i,), top=i)


def _freeze(node: _SNode) -> tuple:
    return (node.label, node.edge, tuple(_freeze(c) for c in node.children))


def _freeze_forest(forest: tuple) -> tuple:
    return tuple(_freeze(t) for t in forest)


def _shape(frozen: tuple) -> tuple:
    return tuple(_shape_node(t) for t in frozen)


def _shape_node(frozen_node: tuple) -> tuple:
    return tuple(_shape_node(c) for c in frozen_node[2])


def _labels_preorder(frozen: tuple) -> tuple[LabelPair, ...]:
    out: list[LabelPair] = []

    def visit(node: tuple) -> None:
        out.append((node[0], node[1]))
        for c in node[2]:
            visit(c)

    for t in frozen:
        visit(t)
    return tuple(out)


def _counters(forest: tuple) -> tuple:
    out: list = []

    def visit(node: _SNode) -> None:
        out.append((node.members, node.splits, node.bonded))
        for c in node.children:
            visit(c)

    for t in forest:
        visit(t)
    return tuple(out)


def _replace(forest: tuple, path: tuple[int, ...], node) -> tuple:
    """Rebuild a forest with the node at ``path`` replaced (or spliced out)."""
    idx = path[0]
    if len(path) == 1:
        if node is None:
            return forest[:idx] + forest[idx + 1:]
        if isinstance(node, tuple):
            return forest[:idx] + node + forest[idx + 1:]
        return forest[:idx] + (node,) + forest[idx + 1:]
    target = forest[idx]
    rebuilt = _SNode(target.label, target.edge,
                     _replace(target.children, path[1:], node),
                     target.members, target.top, target.splits, target.bonded)
    return forest[:idx] + (rebuilt,) + forest[idx + 1:]


def _positions(forest: tuple, prefix: tuple = ()) -> list[tuple[tuple[int, ...], _SNode]]:
    out = []
    for idx, node in enumerate(forest):
        path = prefix + (idx,)
        out.append((path, node))
        out.extend(_positions(node.children, path))
    return out


def _node_at(forest: tuple, path: tuple[int, ...]) -> _SNode:
    node = forest[path[0]]
    for idx in path[1:]:
        node = node.children[idx]
    return node


def _shrink_successors(forest: tuple, cap: int, parent_of: list,
                       price: Callable[[LabelPair], float],
                       fuse_node: Callable[[LabelPair, LabelPair], float],
                       fuse_edge: Callable[[LabelPair, LabelPair], float],
                       merge_node, merge_edge):
    """Deletion and fusion moves.

    A fusion must keep the merged group a connected piece of the original
    tree (the absorbed child's original parent already belongs to the
    group) and within cap+1 members; that is exactly the reach of a
    bounded fusion path.
    """

    def deletable(node: _SNode) -> bool:
        return (not node.bonded
                and not any(c.bonded for c in node.children))

    def subtree_price(node: _SNode) -> Optional[float]:
        if node.bonded:
            return None
        total = price(node.pair())
        for c in node.children:
            sub = subtree_price(c)
            if sub is None:
                return None
            total += sub
        return total

    for path, node in _positions(forest):
        pair = node.pair()
        if deletable(node):
            yield price(pair), _replace(forest, path, node.children)
        for ci, child in enumerate(node.children):
            if not node.members or not child.members or child.bonded:
                continue
            if len(node.members) + len(child.members) - 1 > cap:
                continue
            if parent_of[child.top] not in node.members:
                continue
            members = tuple(sorted(node.members + child.members))
            merged = _SNode(merge_node(node.label, child.edge, child.label),
                            node.edge,
                            node.children[:ci] + child.children
                            + node.children[ci + 1:],
                            members, node.top, node.splits, node.bonded)
            yield fuse_node(pair, child.pair()), _replace(forest, path, merged)
            if len(path) > 1 and not node.bonded:
                sib_costs = [subtree_price(s)
                             for si, s in enumerate(node.children) if si != ci]
                if any(s is None for s in sib_costs):
                    continue
                fused = _SNode(child.label,
                               merge_edge(node.edge, node.label, child.edge),
                               child.children, members, node.top,
                               child.splits, node.bonded)
                yield (fuse_edge(pair, child.pair()) + sum(sib_costs),
                       _replace(forest, path, fused))


def _shrink_cores(t: IndexedTree, cap: int, bound: float,
                  price, fuse_node, fuse_edge, merge_node, merge_edge
                  ) -> dict[tuple, float]:
    """Cheapest cost to shrink the tree into every reachable forest."""
    start = (_from_indexed(t, t.root),)
    parent_of = t.parent
    best: dict[tuple, float] = {}
    seen: dict[tuple, float] = {}
    heap: list[tuple[float, int, tuple]] = []
    counter = 0

    def push(g: float, forest: tuple) -> None:
        nonlocal counter
        if g > bound:
            return
        key = (_freeze_forest(forest), _counters(forest))
        old = seen.get(key)
        if old is not None and old <= g:
            return
        seen[key] = g
        counter += 1
        heapq.heappush(heap, (g, counter, forest))

    push(0.0, start)
    while heap:
        g, _, forest = heapq.heappop(heap)
        key = (_freeze_forest(forest), _counters(forest))
        if seen.get(key, g) < g:
            continue
        frozen = key[0]
        if g < best.get(frozen, float("inf")):
            best[frozen] = g
        for cost, nxt in _shrink_successors(forest, cap, parent_of, price,
                                            fuse_node, fuse_edge, merge_node,
                                            merge_edge):
            push(g + cost, nxt)
    return best


def script_search_oracle(a: IndexedTree, b: IndexedTree, m: CostModel,
                         budget: SearchBudget = SearchBudget()) -> float:
    """Cheapest edit script over all seven operations (see module docs)."""
    if a.n > budget.max_nodes or b.n > budget.max_nodes:
        raise BudgetExceededError(
            f"script search limited to {budget.max_nodes} nodes per tree")
    if budget.free_order:
        return _free_order_search(a, b, m, budget)
    classical = mapping_oracle(a, b, m)
    bound = (budget.cost_bound if budget.cost_bound is not None else classical)
    bound += 1e-9
    cores_a = _shrink_cores(a, budget.fusion_cap, bound,
                            m.cost_del, m.cost_node_fusion, m.cost_edge_fusion,
                            m.merge_node, m.merge_edge)
    cores_b = _shrink_cores(b, budget.fusion_cap, bound,
                            m.cost_ins, m.cost_node_split, m.cost_edge_split,
                            m.merge_node, m.merge_edge)
    by_shape: dict[tuple, list[tuple[tuple[LabelPair, ...], float]]] = {}
    for frozen, cost in cores_b.items():
        by_shape.setdefault(_shape(frozen), []).append(
            (_labels_preorder(frozen), cost))
    best = classical if budget.cost_bound is None else float("inf")
    for frozen, cost_a in cores_a.items():
        candidates = by_shape.get(_shape(frozen))
        if not candidates:
            continue
        labels_a = _labels_preorder(frozen)
        for labels_b, cost_b in candidates:
            total = cost_a + cost_b
            if total >= best:
                continue
            for pa, pb in zip(labels_a, labels_b):
                if pa != pb:
                    total += m.cost_match(pa, pb)
                    if total >= best:
                        break
            if total < best:
                best = total
    if best == float("inf"):
        raise BudgetExceededError("no goal found within the cost bound")
    return best


def _free_order_search(a: IndexedTree, b: IndexedTree, m: CostModel,
                       budget: SearchBudget) -> float:
    """Best-first search over raw interleaved scripts (tiny inputs only).

    Guided by an admissible bound from size and label-multiset
    differences; states dominated on every fusion/split counter at no
    lower cost are dropped.
    """
    cap = budget.fusion_cap
    start = (_from_indexed(a, a.root),)
    goal = _freeze_forest((_from_indexed(b, b.root),))
    pool = _label_pool(a, b, m, cap)
    classical = None
    if budget.cost_bound is not None:
        bound = budget.cost_bound
    else:
        classical = mapping_oracle(a, b, m)
        bound = classical
    bound += 1e-9
    max_size = a.n + b.n

    goal_pairs: dict[LabelPair, int] = {}
    for j in range(1, b.n + 1):
        goal_pairs[b.pair(j)] = goal_pairs.get(b.pair(j), 0) + 1
    min_ins = min(m.cost_ins(p) for p in pool)
    min_del = min(m.cost_del(p) for p in pool)
    positive = [m.cost_match(p, q) for p in pool for q in pool if p != q]
    min_match = min(positive) if positive else 1.0
    # one operation settles at most two multiset discrepancies
    c_add = min(min_ins, (min_ins + m.t) / 2.0, min_match)
    c_rem = min(min_del, (min_del + m.t) / 2.0, min_match)

    def heuristic(forest: tuple) -> float:
        have: dict[LabelPair, int] = {}
        size = 0
        stack = list(forest)
        while stack:
            node = stack.pop()
            size += 1
            p = node.pair()
            have[p] = have.get(p, 0) + 1
            stack.extend(node.children)
        need_add = sum(max(0, cnt - have.get(p, 0))
                       for p, cnt in goal_pairs.items())
        need_rem = sum(max(0, cnt - goal_pairs.get(p, 0))
                       for p, cnt in have.items())
        return max(need_add * c_add, need_rem * c_rem,
                   (b.n - size) * min_ins, (size - b.n) * min_del)

    heap: list[tuple[float, float, int, tuple]] = []
    counter = 0
    seen: dict[tuple, list[tuple[tuple[int, ...], float]]] = {}

    def push(g: float, forest: tuple) -> None:
        nonlocal counter
        h = heuristic(forest)
        if g + h > bound:
            return
        frozen = _freeze_forest(forest)
        cnt = _counters(forest)
        front = seen.setdefault(frozen, [])
        for old_cnt, old_g in front:
            if old_g <= g and all(x <= y for x, y in zip(old_cnt, cnt)):
                return
        front[:] = [(c0, g0) for c0, g0 in front
                    if not (g <= g0 and all(x <= y for x, y in zip(cnt, c0)))]
        front.append((cnt, g))
        counter += 1
        heapq.heappush(heap, (g + h, g, counter, forest))

    push(0.0, start)
    best = None
    while heap:
        f, g, _, forest = heapq.heappop(heap)
        if best is not None and f >= best:
            break
        if _freeze_forest(forest) == goal:
            if best is None or g < best:
                best = g
            continue
        size = sum(t.size() for t in forest)
        positions = _positions(forest)
        for cost, nxt in _shrink_successors(forest, cap, a.parent, m.cost_del,
                                            m.cost_node_fusion,
                                            m.cost_edge_fusion,
                                            m.merge_node, m.merge_edge):
            push(g + cost, nxt)
        for path, node in positions:
            pair = node.pair()
            # relabel to any pool pair
            for target in pool:
                if target != pair:
                    relabeled = _SNode(target[0], target[1], node.children,
                                       node.members, node.top, node.splits,
                                       node.bonded)
                    push(g + m.cost_match(pair, target),
                         _replace(forest, path, relabeled))
            # node split: extract a consecutive child run under a new node;
            # merging back must reproduce the current label
            if node.splits < cap:
                kids = node.children
                for s in range(len(kids) + 1):
                    for e in range(s, len(kids) + 1):
                        for nl, el in pool:
                            if el is None:
                                continue
                            for pp in pool:
                                if pp[1] != node.edge:
                                    continue
                                if m.merge_node(pp[0], el, nl) != node.label:
                                    continue
                                if any(k.bonded for k in kids[s:e]):
                                    continue
                                child = _SNode(nl, el, kids[s:e],
                                               bonded=True)
                                parent = _SNode(pp[0], pp[1],
                                                kids[:s] + (child,) + kids[e:],
                                                node.members, node.top,
                                                node.splits + 1, node.bonded)
                                push(g + m.cost_node_split(pp, (nl, el)),
                                     _replace(forest, path, parent))
            # edge split: re-create a node above this one
            if node.splits < cap and len(path) > 1:
                for un, ue in pool:
                    if ue is None:
                        continue
                    for child_edge in {p[1] for p in pool if p[1] is not None}:
                        if m.merge_edge(ue, un, child_edge) != node.edge:
                            continue
                        lowered = _SNode(node.label, child_edge, node.children,
                                         node.members, node.top, 0, True)
                        upper = _SNode(un, ue, (lowered,),
                                       splits=node.splits + 1,
                                       bonded=node.bonded)
                        push(g + m.cost_edge_split((un, ue), lowered.pair()),
                             _replace(forest, path, upper))
        # insertions: adopt a consecutive child run under a new node
        if size < max_size:
            spots: list[tuple[tuple[int, ...], tuple]] = [((), forest)]
            spots.extend((path, node.children) for path, node in positions)
            for path, kids in spots:
                for s in range(len(kids) + 1):
                    for e in range(s, len(kids) + 1):
                        if any(k.bonded for k in kids[s:e]):
                            continue
                        for nl, el in pool:
                            new = _SNode(nl, el, kids[s:e])
                            cost = m.cost_ins((nl, el))
                            if not path:
                                push(g + cost, forest[:s] + (new,) + forest[e:])
                            else:
                                holder = _node_at(forest, path)
                                replaced = _SNode(holder.label, holder.edge,
                                                  kids[:s] + (new,) + kids[e:],
                                                  holder.members, holder.top,
                                                  holder.splits, holder.bonded)
                                push(g + cost, _replace(forest, path, replaced))
    if best is None:
        if classical is not None:
            return classical
        raise BudgetExceededError("no goal found within the cost bound")
    return best


def _label_pool(a: IndexedTree, b: IndexedTree, m: CostModel,
                cap: int) -> list[LabelPair]:
    """Relabel and insertion targets: observed labels plus the merge
    closure along parent-child chains up to the fusion cap."""
    pairs: set[LabelPair] = set()
    for t in (a, b):
        for i in range(1, t.n + 1):
            pairs.add(t.pair(i))

    def chains(t: IndexedTree) -> None:
        for i in range(1, t.n + 1):
            frontier = [(t.pair(i), i)]
            for _ in range(cap):
                nxt = []
                for (nl, el), top in frontier:
                    parent = t.parent[top]
                    if parent == 0:
                        continue
                    pn, pe = t.pair(parent)
                    fused = (m.merge_node(pn, el, nl), pe)
                    pairs.add(fused)
                    nxt.append((fused, parent))
                    edge_fused = (nl, m.merge_edge(pe, pn, el))
                    pairs.add(edge_fused)
                    nxt.append((edge_fused, parent))
                frontier = nxt

    chains(a)
    chains(b)
    return sorted(pairs, key=repr)
