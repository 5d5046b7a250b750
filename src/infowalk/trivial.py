"""Which priors make a function free to compute.

Link two support cells of the prior whenever they share a row or a column; a
protocol's rectangle structure can never separate cells inside one connected
component, so the function is internally free exactly when each component's
row-projection x column-projection rectangle is monochromatic.  The
components come from one union-find over the rows and the columns, each
support cell joining its row to its column, in time linear in the table.
Externally (against an observer) the whole marginal-support rectangle must be
monochromatic.

Both directions come with witnesses: the block-announcement protocol costs
nothing precisely because, given either player's input, the block is already
determined.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .distributions import JointDistribution
from .errors import PreconditionError
from .protocol import ALICE, Internal, Leaf, ProtocolTree


def _components(mu: JointDistribution) -> list:
    """The connected components of the support cells, two cells linked when
    they share a row or a column, each as its sorted (rows, cols), ordered by
    first row: one union-find over the rows and the columns (column y is node
    nx + y), in which each support cell joins its row to its column."""
    parent = list(range(mu.nx + mu.ny))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    support = mu.support()
    for x, y in np.argwhere(support).tolist():
        parent[find(x)] = find(mu.nx + y)
    groups: dict = {}
    for x in support.any(axis=1).nonzero()[0].tolist():
        groups.setdefault(find(x), ([], []))[0].append(x)
    for y in support.any(axis=0).nonzero()[0].tolist():
        groups[find(mu.nx + y)][1].append(y)
    return [(tuple(rows), tuple(cols)) for rows, cols in groups.values()]


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
    for rows, cols in _components(mu):
        values = {table[x, y] for x in rows for y in cols}
        if len(values) != 1:
            return False, None
        blocks.append(Block(rows, cols, values.pop()))
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
    return _block_protocol(mu, blocks)


def _block_protocol(mu: JointDistribution, blocks) -> ProtocolTree:
    """The internal witness of ``trivial_witness_protocol`` from the blocks
    that ``is_structurally_internal_trivial`` gives."""
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

