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
import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import mul, sub
from typing import NamedTuple, Optional, Union

import numpy as np

from .distributions import JointDistribution
from .errors import (
    InfeasibleSplitError,
    ParseError,
    PreconditionError,
    ProtocolError,
    ResourceCapError,
)

ALICE = "alice"
BOB = "bob"
ROWS = "rows"
COLUMNS = "columns"
# A JSON tree may record at most this many factors, nx + ny a transcript: 2**21
# transcripts of a 2x2 tree, whose construction walk peaks at 69 bytes each (145 MB).
JSON_FACTOR_CAP = 2**23
SPLIT_TOLERANCE = 1e-9


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


class LeafIds(Sequence):
    """The path strings of a tree's leaves ('0'/'1' per edge) in depth-first
    preorder, 0-child first (their sorted order), rendered on demand.  A path
    is a handle (run, k): k copies of run ``run``'s bit appended to the path
    that run extends, itself a handle.  ``runs`` holds flat integer triples
    (bit, run, k) and ``leaves`` flat handles: a few bytes a node, where the
    strings take Σ depth characters (quadratic on the buzzer caterpillar)."""

    __slots__ = ("_runs", "_leaves")

    def __init__(self, runs: array, leaves: array):
        self._runs, self._leaves = runs, leaves

    def __len__(self):
        return len(self._leaves) // 2

    def __getitem__(self, i):  # a negative i counts both halves from the end
        return self._path(self._leaves[2 * i], self._leaves[2 * i + 1])

    def __iter__(self):
        return map(self._path, self._leaves[::2], self._leaves[1::2])

    def _path(self, run, k):
        runs, parts = self._runs, []
        while run >= 0:
            parts.append("01"[runs[3 * run]] * k)
            run, k = runs[3 * run + 1], runs[3 * run + 2]
        return "".join(reversed(parts))

    def __eq__(self, other):
        if isinstance(other, Sequence) and not isinstance(other, str):
            return tuple(self) == tuple(other)
        return NotImplemented


class PathLaw(NamedTuple):
    """A tree's prior-free law, leaf by leaf: its id, its output, and its
    factors, Alice's nx and Bob's ny edge-probability products along the path
    (flat in one array), so that Pr[leaf | x, y] = alice[x] · bob[y]."""

    leaf_ids: LeafIds
    factors: array
    outputs: tuple


@dataclass(frozen=True, eq=False)
class ProtocolTree:
    """A finite protocol over an nx-by-ny input rectangle.

    ``outputs`` is the explicit output alphabet; every leaf must reference it.
    Building a tree walks it once: the walk checks every node and records
    ``path_law``, from which ``law_of`` prices the tree under any prior.
    """

    nx: int
    ny: int
    outputs: tuple
    root: Node
    path_law: PathLaw = field(init=False, repr=False)

    def __post_init__(self):
        outputs = tuple(self.outputs)
        object.__setattr__(self, "outputs", outputs)
        arity_of = {ALICE: self.nx, BOB: self.ny}
        runs, leaves, factors, outs = array("i"), array("i"), array("d"), []
        deepest = 0

        def extend(run, k, bit):  # the handle of path (run, k) plus one bit
            if run >= 0 and runs[3 * run] == bit:
                return run, k + 1
            runs.fromlist([bit, run, k])
            return len(runs) // 3 - 1, 1

        stack = [(self.root, 0, [1.0] * self.nx, [1.0] * self.ny, -1, 0)]
        while stack:
            node, depth, fa, fb, run, k = stack.pop()
            if isinstance(node, Leaf):
                deepest = max(deepest, depth)
                if node.output not in outputs:
                    raise ProtocolError(f"leaf output {node.output!r} not in alphabet {outputs!r}")
                leaves.fromlist([run, k])
                factors.fromlist(fa + fb)
                outs.append(node.output)
                continue
            if not isinstance(node, Internal):
                raise ProtocolError(f"unknown node type {type(node).__name__}")
            s, arity = node.send_one_prob, arity_of.get(node.owner)
            if arity is None:
                raise ProtocolError(f"unknown owner {node.owner!r}")
            if len(s) != arity:
                raise ProtocolError(f"{node.owner} needs {arity} send probabilities, not {len(s)}")
            for v in s:
                if not (0.0 <= v <= 1.0):
                    raise ProtocolError(f"send probability {v!r} outside [0, 1]")
            one, zero = extend(run, k, 1), extend(run, k, 0)
            depth += 1
            f = fa if node.owner == ALICE else fb  # the owner's factors move: f·s, f·(1 − s)
            f1, f0 = list(map(mul, f, s)), list(map(mul, f, map(sub, repeat(1.0), s)))
            if node.owner == ALICE:
                stack += ((node.child1, depth, f1, fb, *one), (node.child0, depth, f0, fb, *zero))
            else:
                stack += ((node.child1, depth, fa, f1, *one), (node.child0, depth, fa, f0, *zero))
        object.__setattr__(self, "path_law", PathLaw(LeafIds(runs, leaves), factors, tuple(outs)))
        object.__setattr__(self, "_depth", deepest)

    def depth(self) -> int:
        """Edges on the longest root-to-leaf path, found while validating."""
        return self._depth


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


def step_from_split(
    mu: JointDistribution,
    mu0: JointDistribution,
    mu1: JointDistribution,
    lambda0: float,
    axis: str,
) -> WalkStep:
    """Converse direction: a drift-free, axis-aligned split is realizable.

    Checks the two defining conditions and recovers the signal that realizes
    the split:

    * mixture:  λ₀μ₀ + λ₁μ₁ = μ entrywise;
    * scaling:  each μ_b is the parent rescaled along ``axis`` only.

    Raises InfeasibleSplitError naming whichever condition fails.
    """
    if axis not in (ROWS, COLUMNS):
        raise PreconditionError(f"axis must be {ROWS!r} or {COLUMNS!r}")
    if not (0.0 <= lambda0 <= 1.0):
        raise PreconditionError(f"lambda0 = {lambda0!r} outside [0, 1]")
    lambda1 = 1.0 - lambda0
    mix = lambda0 * mu0.mass + lambda1 * mu1.mass
    gap = np.max(np.abs(mix - mu.mass))
    if gap > SPLIT_TOLERANCE:
        raise InfeasibleSplitError(
            f"mixture condition violated: |λ0·μ0 + λ1·μ1 − μ| = {gap:.3e}"
        )

    def line(mass, index):  # the slice that must be scaled as one block
        return mass[index, :] if axis == ROWS else mass[:, index]

    size = mu.nx if axis == ROWS else mu.ny
    send_one = np.full(size, 0.5)
    for b, child, lam in ((0, mu0, lambda0), (1, mu1, lambda1)):
        if lam <= 0.0:
            continue
        for i in range(size):
            parent_line = line(mu.mass, i)
            child_line = line(child.mass, i)
            total = parent_line.sum()
            if total <= 0.0:
                if child_line.sum() > SPLIT_TOLERANCE:
                    raise InfeasibleSplitError(
                        "scaling condition violated: child has mass on a "
                        f"zero-mass parent {axis[:-1]} {i}"
                    )
                continue
            scale = child_line.sum() / total
            worst = np.max(np.abs(child_line - scale * parent_line))
            if worst > SPLIT_TOLERANCE:
                raise InfeasibleSplitError(
                    f"scaling condition violated on {axis[:-1]} {i}: "
                    f"not a rescaling of the parent (off by {worst:.3e})"
                )
            if b == 1:
                send_one[i] = min(max(lam * scale, 0.0), 1.0)
    if lambda1 <= 0.0:
        send_one[:] = 0.0
    return WalkStep(
        lambda0, lambda1, mu0, mu1, axis, tuple(float(v) for v in send_one)
    )


@dataclass(frozen=True, eq=False)
class Task:
    """A computation target: a function table plus an error budget.

    ``error_kind`` is "pointwise" (every input must meet epsilon) or
    "distributional" (error weighted by ``measure``).  A one-sided task
    ``(z1, z0)`` only tolerates errors that output z0 in place of z1.
    """

    f: np.ndarray
    epsilon: float
    error_kind: str = "pointwise"
    measure: Optional[JointDistribution] = None
    one_sided: Optional[tuple] = None

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
    one_sided_violation: Optional[float]

    def meets(self, task: "Task") -> bool:
        ok = (
            self.max_pointwise <= task.epsilon
            if task.error_kind == "pointwise"
            else self.distributional <= task.epsilon
        )
        if task.one_sided is not None:
            ok = ok and self.one_sided_violation <= 0.0
        return ok


def evaluate_error_law(law, task: Task) -> ErrorReport:
    """Exact error of a transcript law against a task, by full enumeration.

    The distributional error is weighted by ``task.measure`` when present and
    by the uniform measure otherwise.  The one-sided violation is the weighted
    mass of errors other than answering z0 on a z1 input (None when the task
    is not one-sided).
    """
    if law.outputs is None:
        raise PreconditionError("law carries no outputs; cannot evaluate error")
    nx, ny = task.f.shape
    if (law.prior.nx, law.prior.ny) != (nx, ny):
        raise PreconditionError("law shape does not match the task table")
    uniform = np.full((nx, ny), 1.0 / (nx * ny))
    weight = task.measure.mass if task.measure is not None else uniform
    kinds = list(dict.fromkeys(law.outputs))
    rows = [kinds.index(out) for out in law.outputs]
    f = task.f.tolist()

    def per_transcript(test):  # one table per distinct output, gathered
        return np.array([[[test(out, f[x][y]) for y in range(ny)] for x in range(nx)]
                         for out in kinds])[rows]

    # a first-axis sum adds row by row, in transcript order, as a loop would
    wrong = per_transcript(lambda out, value: out != value)
    err = (law.cond * wrong).sum(axis=0)
    if task.one_sided is not None:
        z1, z0 = task.one_sided
        excused = per_transcript(lambda out, value: value == z1 and out == z0)
        violation = (law.cond * (wrong & ~excused)).sum(axis=0)
    return ErrorReport(
        max_pointwise=float(np.max(err)),
        distributional=float(np.sum(weight * err)),
        one_sided_violation=(
            float(np.sum(weight * violation)) if task.one_sided is not None else None
        ),
    )


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


def mix_with_exchange(law, delta: float, f=None):
    """Public-coin mixture: with probability δ the players exchange inputs
    outright (one transcript per input cell); otherwise run the protocol.

    Pointwise error scales by exactly (1 − δ) when ``f`` labels the exchange
    leaves with the correct answers; the internal-IC increase is at most
    δ·log₂|X×Y| plus the (1−δ) scaling of the original cost.
    """
    from .infocost import TranscriptLaw

    if not (0.0 <= delta <= 1.0):
        raise PreconditionError(f"delta = {delta!r} outside [0, 1]")
    if delta == 0.0:
        return law
    nx, ny = law.prior.nx, law.prior.ny
    table = None if f is None else np.asarray(f, dtype=object)
    cells = [(x, y) for x in range(nx) for y in range(ny)]  # one transcript each
    extra = delta * np.eye(nx * ny).reshape(nx * ny, nx, ny)
    cond = np.concatenate([(1.0 - delta) * law.cond, extra], axis=0)
    leaf_ids = tuple(law.leaf_ids) + tuple(f"exchange:{x},{y}" for x, y in cells)
    outs = tuple(None if table is None else table[c] for c in cells)
    outputs = None if law.outputs is None else law.outputs + outs
    return TranscriptLaw(law.prior, leaf_ids, cond, outputs)


# ---------------------------------------------------------------------------
# JSON protocol format: a flat node list with children referenced by index.
# Floats round-trip exactly (shortest-repr decimals), so dyadic send
# probabilities survive a serialize/parse cycle bit-for-bit.
# ---------------------------------------------------------------------------

def tree_to_json(tree: ProtocolTree) -> str:
    nodes = []
    index = {}
    order = []
    stack = [tree.root]
    while stack:  # preorder indexing
        node = stack.pop()
        if id(node) in index:
            continue
        index[id(node)] = len(order)
        order.append(node)
        if isinstance(node, Internal):
            stack.append(node.child1)
            stack.append(node.child0)
    for node in order:
        if isinstance(node, Leaf):
            nodes.append({"kind": "leaf", "output": node.output})
        else:
            nodes.append(
                {
                    "kind": "internal",
                    "owner": node.owner,
                    "send_one_prob": list(node.send_one_prob),
                    "child0": index[id(node.child0)],
                    "child1": index[id(node.child1)],
                }
            )
    payload = {
        "nx": tree.nx,
        "ny": tree.ny,
        "outputs": list(tree.outputs),
        "root": 0,
        "nodes": nodes,
    }
    return json.dumps(payload, sort_keys=True)


def tree_from_json(text: str) -> ProtocolTree:
    try:
        obj = json.loads(text)
        raw_nodes = obj["nodes"]
        root_index = obj["root"]
        nx, ny = obj["nx"], obj["ny"]
        outputs = tuple(obj["outputs"])
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    except KeyError as e:
        raise ParseError(f"protocol JSON missing field: {e}") from e
    except TypeError as e:
        raise ParseError(f"protocol JSON malformed: {e}") from e

    if not isinstance(raw_nodes, list):
        raise ParseError("protocol JSON nodes must be a list")
    if any(type(size) is not int or size < 1 for size in (nx, ny)):
        raise ParseError(f"nx = {nx!r} and ny = {ny!r} must be positive integers")

    def checked(index, what):  # a node index must name a listed node
        if type(index) is not int or not 0 <= index < len(raw_nodes):
            raise ParseError(f"{what} {index!r} is not a node index")
        return index

    def entry(i, spec, name):
        try:
            return spec[name]
        except KeyError:
            raise ParseError(f"node {i} is missing {name!r}") from None

    built: dict[int, Node] = {}
    paths: dict[int, int] = {}  # transcripts below each built node
    stack = [checked(root_index, "root")]
    expanding = set()
    while stack:
        i = stack[-1]
        if i in built:
            stack.pop()
            continue
        spec = raw_nodes[i]
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ParseError(f"malformed node {i}")
        if spec["kind"] == "leaf":
            built[i], paths[i] = Leaf(entry(i, spec, "output")), 1
            stack.pop()
        elif spec["kind"] == "internal":
            c0 = checked(entry(i, spec, "child0"), f"node {i} child0")
            c1 = checked(entry(i, spec, "child1"), f"node {i} child1")
            if c0 in built and c1 in built:
                try:
                    probs = tuple(float(v) for v in entry(i, spec, "send_one_prob"))
                except (TypeError, ValueError, OverflowError) as e:
                    raise ParseError(f"node {i} send_one_prob: {e}") from e
                built[i] = Internal(entry(i, spec, "owner"), probs, built[c0], built[c1])
                paths[i] = paths[c0] + paths[c1]
                expanding.discard(i)
                stack.pop()
            else:
                if i in expanding:
                    raise ParseError(f"node {i} is part of a reference cycle")
                expanding.add(i)
                stack.append(c1)
                stack.append(c0)
        else:
            raise ParseError(f"unknown node kind {spec['kind']!r}")
        if paths.get(i, 0) * (nx + ny) > JSON_FACTOR_CAP:  # shared nodes multiply paths
            raise ResourceCapError(f"protocol JSON node {i} expands to {paths[i]} transcripts; "
                                   f"at most {JSON_FACTOR_CAP // (nx + ny)} fit a {nx}x{ny} tree")
    try:
        return ProtocolTree(nx, ny, outputs, built[root_index])
    except ProtocolError:
        raise
    except Exception as e:  # malformed scalars and the like
        raise ParseError(f"protocol JSON invalid: {e}") from e
