"""Protocol trees with owned signals, walk semantics, and error evaluation.

A protocol is a finite binary tree.  Each internal node is owned by one
player; the owner sends bit 1 with a probability that depends only on their
own input value.  Running the protocol against a prior is a drift-free random
walk on distributions: conditioned on the bit sent, the prior is rescaled
along the owner's axis (rows for Alice, columns for Bob) and renormalized.

Trees can be deep (the buzzer caterpillar has thousands of levels), so every
traversal here is iterative, never recursive.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple, Optional, Union

import numpy as np

from .distributions import JointDistribution
from .errors import (
    InfowalkError,
    ParseError,
    PreconditionError,
    ProtocolError,
    ResourceCapError,
)

ALICE = "alice"
BOB = "bob"
ROWS = "rows"
COLUMNS = "columns"
# A tree, hand-built or read from JSON, may have at most this many factors,
# nx + ny a transcript: 2**20 transcripts of a 2x2 tree, whose parsing,
# flattening and path law peak at 177 bytes each (185 MB; 182 bytes at 2**18,
# by tracemalloc on a file of shared levels).  ``_flatten`` refuses a tree as
# it lays it out: 40 shared levels peak at 88 MB.
TREE_FACTOR_CAP = 2**22
# A deep tree's scan groups hold at most this many heavy paths, so that the
# copies of rows a scan makes take a chunk's size (see ``_plan``).
SCAN_CHUNK_PATHS = 2**14


@dataclass(frozen=True, slots=True)
class Leaf:
    output: object


@dataclass(frozen=True, eq=False, slots=True)
class Internal:
    owner: str
    send_one_prob: tuple  # probability of sending bit 1, indexed by the owner's input
    child0: "Node" = field(repr=False)
    child1: "Node" = field(repr=False)

    def __repr__(self):  # children elided: trees can be thousands of levels deep
        return f"Internal(owner={self.owner!r}, send_one_prob={self.send_one_prob!r}, ...)"


Node = Union[Leaf, Internal]


class _Lazy(Sequence):
    """A sequence that makes its items when they are read, item i by
    ``_at(i)``; a slice is a tuple, taken from one pass over the items it
    spans, and it equals any sequence of equal items."""

    __slots__ = ()

    def __getitem__(self, i):
        at = range(len(self))[i]  # an index or, for a slice, a range
        if isinstance(at, range):
            first = min(at, default=0)
            span = tuple(islice(self, first, max(at, default=-1) + 1))
            return tuple(span[k - first] for k in at)
        return self._at(at)

    def __eq__(self, other):
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented


class LeafIds(_Lazy):
    """The path strings of a tree's leaves ('0'/'1' per edge) in depth-first
    preorder, 0-child first (their sorted order), rendered from the tree's
    ``owner`` and ``child1`` when read: all by one preorder pass down the
    0-children, each 1-child stacked with its path, and leaf i by following
    parents up from it.  Held, they are those arrays; rendered, Σ depth
    characters (quadratic on the buzzer caterpillar)."""

    __slots__ = ("_count", "_owner", "_child1", "_up")

    def __init__(self, count: int, owner: np.ndarray, child1: np.ndarray):
        self._count, self._owner, self._child1, self._up = count, owner, child1, None

    def __len__(self):
        return self._count

    def __iter__(self):
        owner, child1, stack = self._owner.tolist(), self._child1.tolist(), [(0, "")]
        while stack:
            i, path = stack.pop()
            while owner[i] >= 0:
                stack.append((child1[i], path + "1"))
                i, path = i + 1, path + "0"
            yield path

    def _at(self, i):
        if self._up is None:  # the leaves' entries, and each entry's parent
            self._up = ((self._owner < 0).nonzero()[0],
                        array("i", _parents(self._owner, self._child1)[0].tobytes()))
        leaves, parent = self._up
        entry, bits = int(leaves[i]), []
        while entry:  # a 0-child follows its parent
            bits.append("0" if entry == parent[entry] + 1 else "1")
            entry = parent[entry]
        return "".join(reversed(bits))


class PathLaw(NamedTuple):
    """A tree's prior-free law, leaf by leaf: its id, rendered from the tree's
    arrays, its output, and its factors, one row of Alice's nx and Bob's ny
    edge-probability products along the path: Pr[leaf | x, y] = alice[x] · bob[y]."""

    leaf_ids: LeafIds
    factors: np.ndarray
    outputs: tuple


class ProtocolTree:
    """A finite protocol over an nx-by-ny input rectangle, stored as arrays
    over its nodes in depth-first preorder, 0-child first, one entry per path
    through a node: ``owner`` (0 Alice, 1 Bob, −1 at a leaf); ``signal``, the
    row of the owner's send-probability table ``alice`` (nx wide) or ``bob``
    (ny wide), or at a leaf the index of its output in the alphabet
    ``outputs``; ``child1``, the 1-child (the 0-child of entry i is i + 1);
    and ``copy_of``, the first entry of the same node, so that a node shared
    by several paths is written once.

    ``ProtocolTree(nx, ny, outputs, root)`` checks and flattens a tree of
    ``Leaf`` and ``Internal`` nodes; builders pass the six arrays as
    ``arrays``, and may pass ``plan``, the scan plan of a tree with the same
    ``owner`` and ``child1`` (a flipped tree's), and ``factors``, the factor
    rows of its path law as scans would give them (a completed tree's; a grid
    walk passes both, written from its phases).  Otherwise ``plan``, the
    groups of paths that scans down the tree take, and ``path_law``, from
    which ``law_of`` prices the tree under any prior, are derived from the
    arrays when first read; its leaf ids, from the arrays alone, need no plan.
    """

    __slots__ = ("nx", "ny", "outputs", "owner", "signal", "child1", "copy_of",
                 "alice", "bob", "_plan", "_law")

    def __init__(self, nx: int, ny: int, outputs, root: Optional[Node] = None, arrays=None,
                 plan: Optional[list] = None, factors: Optional[np.ndarray] = None):
        self.nx, self.ny, self.outputs, self._plan, self._law = nx, ny, tuple(outputs), plan, None
        arrays = arrays or _flatten(root, nx, ny, self.outputs)
        for name, a, dtype in zip(("owner", "signal", "child1", "copy_of", "alice", "bob"),
                                  arrays, (np.int8, np.int32, np.int32, np.int32, float, float)):
            setattr(self, name, np.asarray(a, dtype))
            getattr(self, name).flags.writeable = False
        if factors is not None:
            self._law = _path_law(self, factors)

    @property
    def plan(self) -> list:
        if self._plan is None:
            self._plan = _plan(self.owner, self.child1)
        return self._plan

    @property
    def path_law(self) -> PathLaw:
        if self._law is None:
            self._law = _path_law(self)
        return self._law

    def depth(self) -> int:
        """Edges on the longest root-to-leaf path."""
        return int(_depths(len(self.owner), self.plan).max())


_SIDES = {ALICE: 0, BOB: 1}


def _flatten(root: Node, nx: int, ny: int, outputs: tuple, listed: Sequence = ()) -> tuple:
    """The arrays of a ``Leaf``/``Internal`` tree, checked node by node in one
    walk over its distinct nodes; an int child names a node of ``listed``.
    An internal node reached again is written as one block copy of its first
    layout, with the 1-children shifted.  Only there can a node be found on
    its own path; the transcripts are counted against ``TREE_FACTOR_CAP``
    there and once at the end."""
    owner, signal, child1, copy_of = (array("i") for _ in range(4))
    tables, first, stack = ([], []), {}, [(root, -1)]  # (node, entry whose 1-child it is)
    most = TREE_FACTOR_CAP // (nx + ny)  # transcripts a tree may have
    while stack:
        node, parent = stack.pop()
        i = len(owner)
        if parent >= 0:
            child1[parent] = i
        if listed and type(node) is int:
            node = listed[node]
        c = first.setdefault(id(node), i)
        if c < i and owner[c] >= 0:  # laid out before: up to the leaf ending its 1-children
            end = c
            while owner[end] >= 0:
                end = child1[end]
                if not 0 <= end < i:  # a 1-child not yet written: the node is still open
                    raise ParseError(f"the node at entry {c} is part of a reference cycle")
            block = np.frombuffer(child1[c:end + 1], np.intc)
            child1.frombytes(np.where(block < 0, block, block + (i - c)).astype(np.intc).tobytes())
            for a in (owner, signal, copy_of):
                a.extend(a[c:end + 1])
            # the subtrees still on the stack number the internal entries
            # written, plus one, less the leaves: so this counts the leaves
            if (len(owner) + 1 - len(stack)) // 2 > most:
                break
            continue
        copy_of.append(c)
        child1.append(-1)
        if isinstance(node, Leaf):
            if node.output not in outputs:
                raise ProtocolError(f"leaf output {node.output!r} not in alphabet {outputs!r}")
            owner.append(-1)
            signal.append(outputs.index(node.output))
            continue
        if not isinstance(node, Internal):
            raise ProtocolError(f"unknown node type {type(node).__name__}")
        side = _SIDES.get(node.owner)
        if side is None:
            raise ProtocolError(f"unknown owner {node.owner!r}")
        s, arity = node.send_one_prob, (nx, ny)[side]
        if c == i:
            if len(s) != arity:
                raise ProtocolError(f"{node.owner} needs {arity} send probabilities, not {len(s)}")
            for v in s:
                if not (0.0 <= v <= 1.0):
                    raise ProtocolError(f"send probability {v!r} outside [0, 1]")
            tables[side].append(s)
        owner.append(side)
        signal.append(len(tables[side]) - 1 if c == i else signal[c])
        stack += ((node.child1, i), (node.child0, -1))
    if (len(owner) + 1 - len(stack)) // 2 > most:  # past the cap at a copy, or with none made
        raise ResourceCapError(f"protocol tree expands to over {most} transcripts, "
                               f"the most that fit a {nx}x{ny} tree")
    return (owner, *(np.array(a, np.int32) for a in (signal, child1, copy_of)),
            *(np.array(rows or np.empty((0, size))) for rows, size in zip(tables, (nx, ny))))


# ---------------------------------------------------------------------------
# Scans down the paths of a tree's arrays.  A value that each edge updates
# from its parent's, left to right from the root, is computed a group of
# paths at a time by ``ufunc.accumulate`` or a step at a time, both in path
# order as a walk would, so the result is bit-identical to one.  A shallow
# tree is one group: every root-to-leaf path.  Otherwise the groups are heavy
# paths (each node goes on to its larger subtree); the paths that hang off
# earlier ones' nodes form the next batch, and there are O(log nodes) batches.
# ---------------------------------------------------------------------------

def _runs_in(level: np.ndarray, head: np.ndarray) -> tuple:
    """Entries sorted by ``level``, then position, and where each ``head``
    entry falls there: a chain from a head down through the entries of its
    level is one run, in path order, when every other entry below it has a
    larger level."""
    order = np.argsort(level.astype(np.min_scalar_type(level.max())), kind="stable")
    return order.astype(np.int32), head[order].nonzero()[0]


def _parents(owner: np.ndarray, child1: np.ndarray) -> tuple:
    """(each entry's parent, n above the root and n + 1 long; the internal
    entries; their 1-children)."""
    inner = (owner >= 0).nonzero()[0].astype(np.int32)
    ones = child1[inner]
    parent = np.full(len(owner) + 1, len(owner), np.int32)
    parent[inner + 1], parent[ones] = inner, inner
    return parent, inner, ones


def _plan(owner: np.ndarray, child1: np.ndarray) -> list:
    """The groups of paths a scan takes in turn: (the entry above each path,
    its entries padded with n above the root or n + 1 below a leaf)."""
    n = len(owner)
    parent, inner, ones = _parents(owner, child1)
    up = [(owner < 0).nonzero()[0]]
    while len(up) * len(up[0]) <= 2 * n + 64:  # root-to-leaf paths while they are short
        if up[-1].min() == n:
            return [(up[-1], np.stack(up[-2::-1], axis=1))]
        up.append(parent[up[-1]])
    del up
    # +1 at an internal entry and −1 at a leaf, summed before each entry, grows
    # by one down a 0-edge and stays along a 1-edge; so a subtree ends after
    # the last entry of its 1-chain, a run of equal level
    step = (owner >= 0).view(np.int8) * 2 - 1
    is_zero = np.ones(n, bool)
    is_zero[ones] = False
    order, first = _runs_in(step.cumsum(dtype=np.int32) - step, is_zero)
    end = np.empty(n, np.int32)
    end[order] = np.repeat(order[np.append(first[1:], n) - 1] + 1, np.diff(np.append(first, n)))
    size = end - np.arange(n, dtype=np.int32)
    head = np.zeros(n, bool)
    head[0], head[np.where(size[ones] > size[inner + 1], inner + 1, ones)] = True, True
    del size, is_zero, inner, ones
    above = (head - np.bincount(end[head], minlength=n + 1)[:-1]).cumsum(dtype=np.int32)
    order, first = _runs_in(above, head)
    length = np.diff(np.append(first, n))
    plan, start = [], parent[order[first]]
    for paths in np.split(np.arange(len(first)), np.diff(above[order[first]]).nonzero()[0] + 1):
        groups = [paths]
        if len(paths) * length[paths].max() > 2 * length[paths].sum() + 64:  # pad like lengths
            scale = np.frexp(length[paths])[1]
            groups = [paths[scale == k] for k in np.unique(scale)]
        for g in groups:
            for lo in range(0, len(g), SCAN_CHUNK_PATHS):  # disjoint paths, chunk by chunk
                chunk = g[lo:lo + SCAN_CHUNK_PATHS]
                cols = np.arange(length[chunk].max(), dtype=np.int32)
                at = order[np.minimum(first[chunk][:, None] + cols, n - 1)]
                plan.append((start[chunk],
                             np.where(cols < length[chunk][:, None], at, np.int32(n + 1))))
    return plan


def _scan(plan: list, op: np.ufunc, edges: np.ndarray, identity: float) -> np.ndarray:
    """Turns ``edges`` (n + 2 C-contiguous rows) in place into op(value at
    the parent, edges[j]) at each entry j, from the identity above the root,
    and returns its first n rows.  Rows move by ``take`` and by a scatter into
    a view with one element a row, not by 2-d fancy indexing."""
    edges[-2] = identity
    rows = edges.view(np.dtype((np.void, edges.itemsize * edges.shape[1])))[:, 0]
    for start, entries in plan:
        at = entries.T.astype(np.intp)
        run = edges.take(at, axis=0)  # a row per step down the paths
        op(edges[start], run[0], out=run[0])
        if len(run) > len(start):  # a few long paths
            op.accumulate(run, axis=0, out=run)
        else:  # many short ones, a step at a time (accumulate loops per path)
            for i in range(1, len(run)):
                op(run[i - 1], run[i], out=run[i])
        rows[at] = run.view(rows.dtype)[..., 0]
    return edges[:-2]


def _path_law(tree: ProtocolTree, factors: Optional[np.ndarray] = None) -> PathLaw:
    owner, signal, child1 = tree.owner, tree.signal, tree.child1
    leaves = (owner < 0).nonzero()[0]
    if factors is None:
        # one scan for both players: the other player's columns multiply by 1.0
        edges = np.ones((len(owner) + 2, tree.nx + tree.ny))
        for side, table, cols in ((0, tree.alice, slice(None, tree.nx)),
                                  (1, tree.bob, slice(tree.nx, None))):
            at = (owner == side).nonzero()[0]
            s = table[signal[at]]  # the owner's factors move: f·s, f·(1 − s)
            edges[at + 1, cols], edges[child1[at], cols] = 1.0 - s, s
        factors = _scan(tree.plan, np.multiply, edges, 1.0)[leaves]
    symbols = np.fromiter(tree.outputs, object, len(tree.outputs))  # a tuple stays one entry
    outputs = tuple(symbols.take(signal[leaves]).tolist())
    return PathLaw(LeafIds(len(leaves), owner, child1), factors, outputs)


def _depths(n: int, plan: list) -> np.ndarray:
    """The depth of each of a tree's n entries."""
    edges = np.ones((n + 2, 1))
    edges[0] = 0.0  # the root
    return _scan(plan, np.add, edges, 0.0)[:, 0].astype(np.intp)


@dataclass(frozen=True, eq=False)
class WalkStep:
    """One signal viewed as a random-walk step: λ₀μ₀ + λ₁μ₁ = μ, with μ_b a
    rescaling of μ along ``axis`` only.  ``send_one_prob`` realizes the step."""

    lambda0: float
    lambda1: float
    mu0: JointDistribution
    mu1: JointDistribution
    axis: str
    send_one_prob: tuple


class WalkLeaf(NamedTuple):
    leaf_id: str
    posterior: JointDistribution
    prob: float
    output: object


@dataclass(frozen=True)
class WalkResult:
    leaves: tuple
    pruned: tuple  # ids of zero-probability branches dropped during the walk

    def __iter__(self):
        return iter(self.leaves)

    def __len__(self):
        return len(self.leaves)


def walk(tree: ProtocolTree, prior: JointDistribution) -> WalkResult:
    """Run the drift-free walk: Bayes-update the prior along every path.

    Returns the leaf posteriors (prior ⊙ Pr[leaf|x,y], renormalized) and
    reach probabilities, read off the transcript law.  Branches whose reach
    probability is exactly zero have no defined posterior; they are pruned
    and their ids recorded.
    """
    from .infocost import law_of, leaf_posteriors

    law = law_of(tree, prior)
    prob, post = leaf_posteriors(law)
    ids = list(law.leaf_ids)
    live = [i for i, p in enumerate(prob) if p > 0.0]
    leaves = tuple(
        WalkLeaf(ids[i], JointDistribution(tree.nx, tree.ny, post[i]),
                 float(prob[i]), law.outputs[i])
        for i in live
    )
    pruned = set()
    for i in set(range(len(ids))).difference(live):
        # the pruned branch is the shortest prefix of this path that no
        # reachable leaf shares; the nearest reachable leaves share the most
        k = bisect.bisect(live, i)
        shared = max((len(os.path.commonprefix((ids[i], ids[j])))
                      for j in live[max(k - 1, 0):k + 1]), default=0)
        pruned.add(ids[i][: shared + 1])
    # listed as a walk meets them: by parent in preorder, the 1-branch first
    order = sorted(pruned, key=lambda branch: (branch[:-1], branch[-1] == "0"))
    return WalkResult(leaves, tuple(order))


def apply_signal(mu: JointDistribution, owner: str, send_one_prob) -> WalkStep:
    """Forward direction of the walk equivalence: signal → one-step split.

    A branch with probability zero keeps the parent as its (conventional)
    posterior so the returned step is always well-formed.
    """
    s = np.asarray(send_one_prob, dtype=float)
    axis = ROWS if owner == ALICE else COLUMNS
    if axis == ROWS:
        if s.shape != (mu.nx,):
            raise ProtocolError("signal table length must equal the row count")
        m1 = mu.mass * s[:, None]
    else:
        if s.shape != (mu.ny,):
            raise ProtocolError("signal table length must equal the column count")
        m1 = mu.mass * s[None, :]
    m0 = mu.mass - m1
    lam1 = math.fsum(m1.flat)
    lam0 = 1.0 - lam1
    mu1 = JointDistribution(mu.nx, mu.ny, m1 / lam1) if lam1 > 0.0 else mu
    mu0 = JointDistribution(mu.nx, mu.ny, m0 / lam0) if lam0 > 0.0 else mu
    return WalkStep(lam0, lam1, mu0, mu1, axis, tuple(float(v) for v in s))


@dataclass(frozen=True, eq=False)
class Task:
    """A computation target: a function table plus an error budget.

    ``error_kind`` is "pointwise" (every input must meet epsilon) or
    "distributional" (error weighted by ``measure``).
    """

    f: np.ndarray
    epsilon: float
    error_kind: str = "pointwise"
    measure: Optional[JointDistribution] = None

    def __post_init__(self):
        f = np.array(self.f, dtype=object)
        if f.ndim != 2:
            raise PreconditionError("task function must be a 2-d table")
        f.flags.writeable = False
        object.__setattr__(self, "f", f)
        if self.error_kind not in ("pointwise", "distributional"):
            raise PreconditionError(f"unknown error kind {self.error_kind!r}")
        if self.error_kind == "distributional" and self.measure is None:
            raise PreconditionError("distributional error needs a measure")
        if self.measure is not None and (
            (self.measure.nx, self.measure.ny) != f.shape
        ):
            raise PreconditionError("measure shape does not match the task table")
        if not (0.0 <= self.epsilon <= 1.0):
            raise PreconditionError(f"epsilon = {self.epsilon!r} outside [0, 1]")

    @property
    def nx(self) -> int:
        return self.f.shape[0]

    @property
    def ny(self) -> int:
        return self.f.shape[1]


@dataclass(frozen=True)
class ErrorReport:
    max_pointwise: float
    distributional: float


def evaluate_error_law(law, task: Task) -> ErrorReport:
    """Exact error of a transcript law against a task, by full enumeration.

    The distributional error is weighted by ``task.measure`` when present and
    by the uniform measure otherwise.
    """
    if law.outputs is None:
        raise PreconditionError("law carries no outputs; cannot evaluate error")
    nx, ny = task.f.shape
    if (law.prior.nx, law.prior.ny) != (nx, ny):
        raise PreconditionError("law shape does not match the task table")
    uniform = np.full((nx, ny), 1.0 / (nx * ny))
    weight = task.measure.mass if task.measure is not None else uniform
    index = {out: k for k, out in enumerate(dict.fromkeys(law.outputs))}  # the kinds
    rows = np.fromiter(map(index.__getitem__, law.outputs), np.intp, len(law.outputs))
    f = task.f.tolist()
    # one table per distinct output, gathered; a first-axis sum adds row by
    # row, in transcript order, as a loop would
    wrong = np.array([[[out != value for value in row] for row in f] for out in index])[rows]
    err = (law.cond * wrong).sum(axis=0)
    return ErrorReport(max_pointwise=float(np.max(err)),
                       distributional=float(np.sum(weight * err)))


def evaluate_error(tree: ProtocolTree, task: Task) -> ErrorReport:
    from .infocost import law_of

    prior = task.measure or JointDistribution.uniform(task.nx, task.ny)
    return evaluate_error_law(law_of(tree, prior), task)


def mix_with_abort(law, epsilon: float, abort_output=None):
    """Public-coin mixture: with probability ε stop immediately (one shared
    abort transcript, independent of the inputs); otherwise run the protocol.

    The internal information cost scales by exactly (1 − ε): the abort branch
    reveals nothing and the coin is input-independent.
    """
    from .infocost import TranscriptLaw

    if not (0.0 <= epsilon <= 1.0):
        raise PreconditionError(f"epsilon = {epsilon!r} outside [0, 1]")
    if epsilon == 0.0:
        return law
    nx, ny = law.prior.nx, law.prior.ny
    cond = np.concatenate(
        [(1.0 - epsilon) * law.cond, np.full((1, nx, ny), epsilon)], axis=0
    )
    leaf_ids = tuple(law.leaf_ids) + ("abort",)
    outputs = None if law.outputs is None else law.outputs + (abort_output,)
    return TranscriptLaw(law.prior, leaf_ids, cond, outputs)


# ---------------------------------------------------------------------------
# JSON protocol format: a flat node list with children referenced by index.
# Floats round-trip exactly (shortest-repr decimals), so dyadic send
# probabilities survive a serialize/parse cycle bit-for-bit.
# ---------------------------------------------------------------------------

def tree_to_json(tree: ProtocolTree) -> str:
    n, rows = len(tree.owner), (tree.alice.tolist(), tree.bob.tolist())
    written = (tree.copy_of == np.arange(n)).nonzero()[0]  # each node once, in preorder
    index = np.zeros(n, np.intp)
    index[written] = np.arange(len(written))
    ref = index[tree.copy_of].tolist()  # the node each entry writes
    nodes = [{"kind": "leaf", "output": tree.outputs[k]} if side < 0 else
             {"kind": "internal", "owner": (ALICE, BOB)[side], "send_one_prob": rows[side][k],
              "child0": ref[i + 1], "child1": ref[one]}
             for i, side, k, one in zip(written.tolist(), *(a[written].tolist() for a in (
                 tree.owner, tree.signal, tree.child1)))]
    payload = {"nx": tree.nx, "ny": tree.ny, "outputs": list(tree.outputs), "root": 0,
               "nodes": nodes}
    return json.dumps(payload, sort_keys=True)


def tree_from_json(text: str) -> ProtocolTree:
    try:
        obj = json.loads(text)
        raw, root, nx, ny, outputs = (obj[key] for key in ("nodes", "root", "nx", "ny", "outputs"))
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    except KeyError as e:
        raise ParseError(f"protocol JSON missing field: {e}") from e
    except TypeError as e:
        raise ParseError(f"protocol JSON malformed: {e}") from e
    for name, value in (("nodes", raw), ("outputs", outputs)):
        if not isinstance(value, list):
            raise ParseError(f"protocol JSON {name} must be a list")
    outputs = tuple(outputs)
    if any(type(size) is not int or size < 1 for size in (nx, ny)):
        raise ParseError(f"nx = {nx!r} and ny = {ny!r} must be positive integers")
    if not all(v is None or isinstance(v, (str, int, float)) for v in outputs):
        raise ParseError(f"protocol JSON outputs {list(outputs)!r}: each must be a JSON scalar")

    n = len(raw)
    if type(root) is not int or not 0 <= root < n:  # a node index must name a listed node
        raise ParseError(f"root {root!r} is not a node index")
    nodes = []  # an internal node's children index this list
    for i, item in enumerate(raw):
        try:
            kind = item["kind"]
            if kind == "leaf":
                nodes.append(Leaf(item["output"]))
                continue
            if kind != "internal":
                raise ParseError(f"unknown node kind {kind!r}")
            c0, c1, owner, probs = item["child0"], item["child1"], item["owner"], item["send_one_prob"]
        except (KeyError, TypeError) as e:
            raise ParseError(f"node {i} is malformed or missing a field: {e}") from e
        if not (type(c0) is type(c1) is int and 0 <= c0 < n and 0 <= c1 < n):
            raise ParseError(f"node {i} children {c0!r} and {c1!r} are not both node indices")
        try:
            nodes.append(Internal(owner, tuple(map(float, probs)), c0, c1))
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"node {i} send_one_prob: {e}") from e
    try:
        return ProtocolTree(nx, ny, outputs, arrays=_flatten(nodes[root], nx, ny, outputs, nodes))
    except InfowalkError:
        raise
    except Exception as e:  # malformed scalars and the like
        raise ParseError(f"protocol JSON invalid: {e}") from e
