"""Tabu search physical planner (Section 5.2, Algorithm 2).

A locally optimal search seeded by the Minimum Bandwidth Heuristic. Each
round it visits every node whose per-node analytical cost exceeds the
cluster mean and tries to move that node's join units, one at a time, to
any other node, accepting a move only if it lowers the *global* plan cost
(Equation 8). The tabu list caches data-to-node assignments that have
ever held — not whole plans — which keeps the search polynomial
(O(n × k) reassignments total), prevents ping-pong loops between
non-bottleneck nodes, and reflects that re-placing a unit where it
already was is unlikely to be profitable.

Two implementations share exact first-improvement semantics:

- the *reference* loop (``vectorized=False``) scores one (unit, target)
  candidate at a time in O(1) scalar work against precomputed top-3
  maxima — the oracle the property tests compare against;
- the *vectorized* path (the default) evaluates, for one overloaded
  node, every remaining (unit, target) candidate in a single 2-D numpy
  pass. Per-node send/recv/compare totals only change when a move is
  accepted, so between accepted moves the whole candidate block is a
  pure function of constant vectors; the first improving entry in
  row-major order is exactly the candidate the reference loop would
  have accepted, and the arithmetic per candidate is the same IEEE
  float64 operation sequence, so assignments, costs, and evaluation
  counts are bit-identical.

The vectorized path keeps the cluster-wide top-3 maxima incrementally
(:class:`_TopTracker`): a move touches exactly two entries of each
per-node vector, so the tracker removes and reinserts those two entries
against a watermark instead of re-sorting the vector after every move.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_model import AnalyticalCostModel
from repro.core.planners.base import PhysicalPlanner
from repro.core.planners.mbh import MinimumBandwidthPlanner


#: Unit-block widths of the batched candidate scan (see the accept
#: loop): _BLOCK rows while sweeping, _MOVE_BLOCK right after a move.
_BLOCK = 64
_MOVE_BLOCK = 4


def _top3(values: np.ndarray) -> list[tuple[float, int]]:
    """The three largest (value, index) pairs, descending."""
    order = np.argsort(values)[::-1][:3]
    return [(float(values[i]), int(i)) for i in order]


def _max_excluding(top3: list[tuple[float, int]], skip_a: int, skip_b: int) -> float:
    """Max of a vector excluding two indices, given its top-3 entries."""
    for value, index in top3:
        if index != skip_a and index != skip_b:
            return value
    return 0.0


class _TopTracker:
    """Incrementally maintained top entries of one per-node vector.

    Holds a descending buffer of the vector's largest (value, index)
    pairs plus a *watermark*: every index outside the buffer is known to
    hold a value ≤ the watermark. A move changes exactly two entries, so
    :meth:`update` removes those indices from the buffer and reinserts
    the new values — but only when they beat the watermark; smaller
    values are indistinguishable from the off-buffer mass. The buffer
    can only shrink on such updates, and a full O(k) rescan happens just
    when it drains below three entries, instead of after every accepted
    move.
    """

    __slots__ = ("values", "_entries", "_watermark")

    #: Rescan buffer depth: each accepted move can evict at most two
    #: entries, so depth 8 sustains several moves per rescan.
    DEPTH = 8

    def __init__(self, values: np.ndarray):
        self.values = values
        self._rescan()

    def _rescan(self) -> None:
        values = self.values
        k = len(values)
        depth = min(self.DEPTH, k)
        if depth == k:
            order = np.argsort(values)[::-1]
        else:
            top = np.argpartition(values, k - depth)[k - depth:]
            order = top[np.argsort(values[top])[::-1]]
        self._entries = [(float(values[i]), int(i)) for i in order]
        self._watermark = self._entries[-1][0] if self._entries else 0.0

    def update(self, index_a: int, index_b: int) -> None:
        """Re-admit two just-changed indices (``self.values`` already new)."""
        entries = [
            e for e in self._entries if e[1] != index_a and e[1] != index_b
        ]
        watermark = self._watermark
        for index in (index_a, index_b):
            value = float(self.values[index])
            if value >= watermark:
                pos = 0
                while pos < len(entries) and entries[pos][0] >= value:
                    pos += 1
                entries.insert(pos, (value, index))
        self._entries = entries
        if len(entries) < min(3, len(self.values)):
            self._rescan()

    def max_excluding_vector(self, source: int, n: int) -> np.ndarray:
        """For every target t: max of the vector excluding {source, t}.

        The vectorized form of :func:`_max_excluding` over all targets at
        once. ``source`` is one index, so the largest non-source entry e0
        answers every target except t = e0's own index, which falls back
        to the runner-up — three retained entries always suffice.
        """
        first = second = None
        for entry in self._entries[:3]:
            if entry[1] == source:
                continue
            if first is None:
                first = entry
            else:
                second = entry
                break
        if first is None:
            return np.zeros(n, dtype=np.float64)
        out = np.full(n, first[0], dtype=np.float64)
        out[first[1]] = second[0] if second is not None else 0.0
        return out


class TabuPlanner(PhysicalPlanner):
    name = "tabu"

    def __init__(
        self,
        max_rounds: int = 64,
        use_tabu_list: bool = True,
        vectorized: bool = True,
    ):
        """``use_tabu_list=False`` disables the assignment cache (for the
        ablation study): the search may then revisit placements, so it is
        additionally bounded by ``max_rounds`` to preclude ping-pong
        loops — the failure mode the list exists to prevent.
        ``vectorized=False`` selects the scalar reference loop, kept as
        the oracle the property tests hold the batched path to."""
        self.max_rounds = max_rounds
        self.use_tabu_list = use_tabu_list
        self.vectorized = vectorized

    def assign(self, model: AnalyticalCostModel) -> tuple[np.ndarray, dict]:
        if self.vectorized:
            return self._assign_vectorized(model)
        return self._assign_reference(model)

    # ------------------------------------------------------- vectorized path

    def _assign_vectorized(self, model: AnalyticalCostModel) -> tuple[np.ndarray, dict]:
        stats = model.stats
        n_units, n_nodes = stats.n_units, stats.n_nodes
        s_total = stats.s_total
        unit_totals = stats.unit_totals
        unit_costs = model.unit_costs
        t = model.params.t

        assignment, _ = MinimumBandwidthPlanner().assign(model)
        assignment = assignment.copy()
        tabu = np.zeros((n_units, n_nodes), dtype=bool)
        if self.use_tabu_list:
            tabu[np.arange(n_units), assignment] = True

        send, recv, compare = model.node_totals(assignment)
        send = send.astype(np.float64)
        recv = recv.astype(np.float64)
        best_cost = model.cost_from_totals(send, recv, compare)
        moves = 0
        evaluations = 0

        # Slice-count ingredients, converted to float64 once: every value
        # is an exact integer below 2^53, so the batched arithmetic below
        # is bit-identical to the reference loop's int-plus-float scalars.
        s_float = s_total.astype(np.float64)
        remote = (unit_totals[:, np.newaxis] - s_total).astype(np.float64)

        for _ in range(self.max_rounds):
            changed = False
            per_node = np.maximum(send, recv) * t + compare
            mean_cost = float(per_node.mean())
            for node in range(n_nodes):
                if per_node[node] <= mean_cost:
                    continue
                top_send = _TopTracker(send)
                top_recv = _TopTracker(recv)
                top_comp = _TopTracker(compare)
                units = np.flatnonzero(assignment == node)
                start = 0
                block = _BLOCK
                while start < len(units):
                    # Block the scan so an accepted move re-evaluates at
                    # most a block of rows, not the full remaining
                    # suffix. Accepted moves cluster: the unit right
                    # after a move usually moves too, so the block
                    # shrinks to _MOVE_BLOCK after an accept and grows
                    # back to _BLOCK once a block scans clean.
                    batch = units[start : start + block]
                    # Constant per-candidate ingredients for the block:
                    # totals only change on an accepted move, which
                    # restarts the scan just past the moved unit.
                    s_batch = s_float[batch]              # (m, k)
                    remote_b = remote[batch]              # S_i - s_ij
                    cost_b = unit_costs[batch]
                    send_src = send[node] + s_batch[:, node]
                    recv_src = recv[node] - remote_b[:, node]
                    comp_src = compare[node] - cost_b
                    send_tgt = send[np.newaxis, :] - s_batch
                    recv_tgt = recv[np.newaxis, :] + remote_b
                    comp_tgt = compare[np.newaxis, :] + cost_b[:, np.newaxis]
                    me_send = top_send.max_excluding_vector(node, n_nodes)
                    me_recv = top_recv.max_excluding_vector(node, n_nodes)
                    me_comp = top_comp.max_excluding_vector(node, n_nodes)

                    align = np.maximum(me_send[np.newaxis, :], send_tgt)
                    np.maximum(align, send_src[:, np.newaxis], out=align)
                    np.maximum(align, me_recv[np.newaxis, :], out=align)
                    np.maximum(align, recv_src[:, np.newaxis], out=align)
                    np.maximum(align, recv_tgt, out=align)
                    comp_all = np.maximum(me_comp[np.newaxis, :], comp_tgt)
                    np.maximum(comp_all, comp_src[:, np.newaxis], out=comp_all)
                    candidate = np.multiply(align, t, out=align)
                    candidate += comp_all

                    valid = ~tabu[batch]
                    valid[:, node] = False
                    improving = valid & (candidate < best_cost)
                    pos = int(improving.argmax())
                    row, target = divmod(pos, n_nodes)
                    if not improving[row, target]:
                        evaluations += int(valid.sum())
                        start += len(batch)
                        block = _BLOCK
                        continue
                    unit = int(batch[row])
                    # The reference loop scores valid candidates in
                    # row-major order and stops at the first improving
                    # one — count exactly those.
                    evaluations += int(valid[:row].sum())
                    evaluations += int(valid[row, : target + 1].sum())

                    assignment[unit] = target
                    if self.use_tabu_list:
                        tabu[unit, target] = True
                    send[node] = send_src[row]
                    send[target] = send_tgt[row, target]
                    recv[node] = recv_src[row]
                    recv[target] = recv_tgt[row, target]
                    compare[node] = comp_src[row]
                    compare[target] = comp_tgt[row, target]
                    best_cost = float(candidate[row, target])
                    top_send.update(node, target)
                    top_recv.update(node, target)
                    top_comp.update(node, target)
                    moves += 1
                    changed = True
                    start += row + 1  # unit moved; continue with the next
                    block = _MOVE_BLOCK
            if not changed:
                break
            send, recv, compare = model.node_totals(assignment)
            send = send.astype(np.float64)
            recv = recv.astype(np.float64)

        return assignment, {
            "moves": moves,
            "evaluations": evaluations,
            "final_cost": best_cost,
        }

    # -------------------------------------------------------- reference path

    def _assign_reference(self, model: AnalyticalCostModel) -> tuple[np.ndarray, dict]:
        stats = model.stats
        n_units, n_nodes = stats.n_units, stats.n_nodes
        s_total = stats.s_total
        unit_totals = stats.unit_totals
        unit_costs = model.unit_costs
        t = model.params.t

        assignment, _ = MinimumBandwidthPlanner().assign(model)
        assignment = assignment.copy()
        tabu = np.zeros((n_units, n_nodes), dtype=bool)
        if self.use_tabu_list:
            tabu[np.arange(n_units), assignment] = True

        send, recv, compare = model.node_totals(assignment)
        send = send.astype(np.float64)
        recv = recv.astype(np.float64)
        best_cost = model.cost_from_totals(send, recv, compare)
        moves = 0
        evaluations = 0

        for _ in range(self.max_rounds):
            changed = False
            per_node = np.maximum(send, recv) * t + compare
            mean_cost = float(per_node.mean())
            for node in range(n_nodes):
                if per_node[node] <= mean_cost:
                    continue
                top_send = _top3(send)
                top_recv = _top3(recv)
                top_comp = _top3(compare)
                for unit in np.flatnonzero(assignment == node):
                    source = int(assignment[unit])
                    if source != node:
                        continue
                    total_i = float(unit_totals[unit])
                    cost_i = float(unit_costs[unit])
                    send_src = send[source] + s_total[unit, source]
                    recv_src = recv[source] - (total_i - s_total[unit, source])
                    comp_src = compare[source] - cost_i
                    for target in range(n_nodes):
                        if target == source or tabu[unit, target]:
                            continue
                        evaluations += 1
                        send_tgt = send[target] - s_total[unit, target]
                        recv_tgt = recv[target] + (total_i - s_total[unit, target])
                        comp_tgt = compare[target] + cost_i
                        align = max(
                            _max_excluding(top_send, source, target),
                            send_src,
                            send_tgt,
                            _max_excluding(top_recv, source, target),
                            recv_src,
                            recv_tgt,
                        )
                        candidate = align * t + max(
                            _max_excluding(top_comp, source, target),
                            comp_src,
                            comp_tgt,
                        )
                        if candidate < best_cost:
                            assignment[unit] = target
                            if self.use_tabu_list:
                                tabu[unit, target] = True
                            send[source], send[target] = send_src, send_tgt
                            recv[source], recv[target] = recv_src, recv_tgt
                            compare[source], compare[target] = comp_src, comp_tgt
                            best_cost = candidate
                            top_send = _top3(send)
                            top_recv = _top3(recv)
                            top_comp = _top3(compare)
                            moves += 1
                            changed = True
                            break  # unit moved; continue with the next unit
            if not changed:
                break
            send, recv, compare = model.node_totals(assignment)
            send = send.astype(np.float64)
            recv = recv.astype(np.float64)

        return assignment, {
            "moves": moves,
            "evaluations": evaluations,
            "final_cost": best_cost,
        }
