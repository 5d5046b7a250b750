"""Which priors make a function free to compute.

Put an edge between two support cells of the prior whenever they share a row
or a column; a protocol's rectangle structure can never separate cells inside
one connected component, so the function is internally free exactly when each
component's row-projection x column-projection rectangle is monochromatic.
Externally (against an observer) the whole marginal-support rectangle must be
monochromatic.

Both directions come with witnesses: the block-announcement protocol costs
nothing precisely because, given either player's input, the block is already
determined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import JointDistribution, binary_entropy
from .errors import PreconditionError
from .protocol import ALICE, Internal, Leaf, ProtocolTree


class Component(NamedTuple):
    cells: tuple
    rows: tuple  # the C_A projection
    cols: tuple  # the C_B projection


@dataclass(frozen=True)
class SupportGraph:
    """Support cells of a prior under shared-row/shared-column adjacency."""

    vertices: tuple
    edges: tuple
    components: tuple


def build_support_graph(mu: JointDistribution) -> SupportGraph:
    support = mu.support()
    vertices = [
        (x, y) for x in range(mu.nx) for y in range(mu.ny) if support[x, y]
    ]
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    edges = []
    for i, a in enumerate(vertices):
        for b in vertices[i + 1 :]:
            if (a[0] == b[0]) != (a[1] == b[1]):  # agree in exactly one slot
                edges.append((a, b))
                union(a, b)
    groups: dict = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    components = tuple(
        Component(
            tuple(cells),
            tuple(sorted({x for x, _ in cells})),
            tuple(sorted({y for _, y in cells})),
        )
        for cells in sorted(groups.values())
    )
    return SupportGraph(tuple(vertices), tuple(edges), components)


class Block(NamedTuple):
    rows: tuple
    cols: tuple
    value: object


def _table(f, mu: JointDistribution) -> np.ndarray:
    arr = np.array(f, dtype=object)
    if arr.shape != (mu.nx, mu.ny):
        raise PreconditionError("function table shape does not match the prior")
    return arr


def is_structurally_internal_trivial(f, mu: JointDistribution):
    """True iff every support component's full rectangle is monochromatic.

    On success also returns the block partition witness: one block per
    component, carrying the constant value.  (The components are the finest
    partition any protocol could respect, so coarsenings cannot do better.)
    """
    table = _table(f, mu)
    blocks = []
    for comp in build_support_graph(mu).components:
        values = {table[x, y] for x in comp.rows for y in comp.cols}
        if len(values) != 1:
            return False, None
        blocks.append(Block(comp.rows, comp.cols, values.pop()))
    return True, tuple(blocks)


def is_structurally_external_trivial(f, mu: JointDistribution) -> bool:
    """True iff f is constant on the marginal-support rectangle."""
    table = _table(f, mu)
    rows = np.flatnonzero(mu.marginal_x() > 0.0)
    cols = np.flatnonzero(mu.marginal_y() > 0.0)
    values = {table[x, y] for x in rows for y in cols}
    return len(values) <= 1


def trivial_witness_protocol(f, mu: JointDistribution, kind: str) -> ProtocolTree:
    """The zero-cost protocol certifying a structurally trivial instance.

    External kind: a single leaf with the constant answer.  Internal kind:
    Alice announces her block through a cascade of deterministic membership
    signals and the block's value is emitted; given either input the block is
    already determined, so neither player learns anything.
    """
    table = _table(f, mu)
    if kind == "external":
        if not is_structurally_external_trivial(f, mu):
            raise PreconditionError("instance is not externally trivial")
        rows = np.flatnonzero(mu.marginal_x() > 0.0)
        cols = np.flatnonzero(mu.marginal_y() > 0.0)
        value = table[rows[0], cols[0]]
        return ProtocolTree(mu.nx, mu.ny, (value,), Leaf(value))
    if kind != "internal":
        raise PreconditionError(f"unknown witness kind {kind!r}")
    ok, blocks = is_structurally_internal_trivial(f, mu)
    if not ok:
        raise PreconditionError("instance is not internally trivial")
    block_of = {}
    for i, block in enumerate(blocks):
        for x in block.rows:
            block_of[x] = i
    # rows outside the marginal support can answer anything; route them to
    # the first block
    membership = tuple(block_of.get(x, 0) for x in range(mu.nx))
    node = Leaf(blocks[-1].value)  # every earlier question answered "no"
    for i in range(len(blocks) - 2, -1, -1):
        ask = tuple(1.0 if membership[x] == i else 0.0 for x in range(mu.nx))
        node = Internal(ALICE, ask, node, Leaf(blocks[i].value))
    outputs = tuple(dict.fromkeys(block.value for block in blocks))
    return ProtocolTree(mu.nx, mu.ny, outputs, node)


def deterministic_ic_floor(f, mu: JointDistribution, depth: int = 4) -> float:
    """Minimum internal cost over deterministic trees, up to a depth budget,
    that answer correctly on every input (not just the support).

    Searches every protocol in which each signal is a subset-membership
    question, by dynamic programming over input rectangles: a subtree's cost
    depends only on the rectangle it is reached with, and counts in
    proportion to the prior chance of reaching it (the chain rule).  Bits
    that are already determined by the conditioning cost nothing, which is
    how block announcements stay free; separating a mixed rectangle that the
    prior still straddles cannot be free.  Returns inf when no such tree
    exists within the budget.  This is a diagnostic floor for
    non-triviality, not a certified bound: randomized protocols are not
    covered.
    """
    table = _table(f, mu)

    def monochromatic(rows, cols):
        values = {table[x, y] for x in rows for y in cols}
        return len(values) <= 1

    def splits(indices):
        items = list(indices)
        for mask in range(1, 2 ** len(items) - 1, 2):  # fix item 0 on side 1
            side = tuple(items[i] for i in range(len(items)) if mask >> i & 1)
            rest = tuple(items[i] for i in range(len(items)) if not mask >> i & 1)
            yield side, rest

    cache: dict = {}

    def tail(p_side, p_rest, side_rect, rest_rect, budget):
        """The children's costs weighted by the chance of each side.  A side
        the prior never reaches must still be answered on every input, so
        an inf there rules the split out rather than meeting a zero weight."""
        side_cost = best(*side_rect, budget - 1)
        if side_cost == math.inf:
            return math.inf
        rest_cost = best(*rest_rect, budget - 1)
        if rest_cost == math.inf:
            return math.inf
        return p_side * side_cost + p_rest * rest_cost

    def best(rows, cols, budget):
        if monochromatic(rows, cols):
            return 0.0
        if budget == 0:
            return math.inf
        key = (rows, cols, budget)
        if key in cache:
            return cache[key]
        sub = mu.mass[np.ix_(rows, cols)]
        total = sub.sum()
        cond = sub / total if total > 0.0 else np.zeros_like(sub)
        reached = cond.sum()
        value = math.inf
        # Alice splits her rows: she reveals one bit; Bob learns
        # E_y h(P[side | y]) about X and nothing flows the other way
        for side, rest in splits(rows):
            keep = [rows.index(x) for x in side]
            py = cond.sum(axis=0)
            info = sum(
                py[j] * binary_entropy(cond[keep, j].sum() / py[j])
                for j in range(len(cols))
                if py[j] > 0.0
            )
            p_side = cond[keep, :].sum()
            value = min(value, info + tail(
                p_side, reached - p_side, (side, cols), (rest, cols), budget
            ))
        for side, rest in splits(cols):
            keep = [cols.index(y) for y in side]
            px = cond.sum(axis=1)
            info = sum(
                px[i] * binary_entropy(cond[i, keep].sum() / px[i])
                for i in range(len(rows))
                if px[i] > 0.0
            )
            p_side = cond[:, keep].sum()
            value = min(value, info + tail(
                p_side, reached - p_side, (rows, side), (rows, rest), budget
            ))
        cache[key] = value
        return value

    return best(tuple(range(mu.nx)), tuple(range(mu.ny)), depth)
