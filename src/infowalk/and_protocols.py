"""Machinery for the two-bit AND function.

The centerpiece is the buzzer protocol: each player treats their pretend
marginal of holding 1 as a position in [0, 1] and drives it as a drift-free
walk, giving up (to an axis) or pushing toward certainty at (1, 1).  Its leaf
law has a closed form, and so does the resulting scaled cost, which yields
the optimal zero-error information cost of AND for priors with no mass at
(1, 1).

The discretized walk lives on a grid of resolution n.  One gambler's-ruin
phase of the walk (mover bouncing between 0 and a ceiling) is collapsed into
a single two-outcome signal whose posteriors are the phase's exit states —
optional stopping preserves the law at phase boundaries, and a finite tree
cannot hold infinitely many micro-steps.  The resulting caterpillar tree is
measure-independent, as any protocol is: its conditional send probabilities
come from Bayes updates of the pretend walk, and running it against a real
prior reweights transitions exactly as the pretend/real conversion predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .distributions import (
    Decomposition,
    JointDistribution,
    ProductDistribution,
    entropy_profile,
    symmetric_decomposition,
)
from .errors import PreconditionError, ProtocolError
from .infocost import TranscriptLaw, law_of, leaf_posteriors
from .protocol import ALICE, BOB, Internal, Leaf, ProtocolTree, Task, evaluate_error_law

LN2 = math.log(2.0)
AND_TABLE = ((0, 0), (0, 1))


# ---------------------------------------------------------------------------
# Leaf law of the continuous buzzer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuzzerLeafLaw:
    """The buzzer's leaf distribution started from the pretend pair (p, q).

    With hi = max(p, q): an atom of mass 1 − lo/hi where the smaller marginal
    gives up immediately (at (hi, 0) or (0, hi)), a density p·q/ℓ³ on each of
    the two axis rays hi < ℓ < 1, and an atom of mass p·q at full certainty
    (1, 1)."""

    start: ProductDistribution
    atom_axis_point: tuple
    atom_axis_mass: float
    atom_11_mass: float

    def __post_init__(self):
        if self.atom_axis_mass < 0.0 or self.atom_11_mass < 0.0:
            raise PreconditionError("leaf-law masses must be nonnegative")
        if abs(self.total_mass() - 1.0) > 1e-9:
            raise PreconditionError("leaf law does not normalize")

    @property
    def hi(self) -> float:
        return max(self.start.p, self.start.q)

    def density(self, ell: float) -> float:
        """Per-axis density of axis leaves at parameter ell."""
        if self.hi < ell < 1.0:
            return self.start.p * self.start.q / ell**3
        return 0.0

    def density_mass(self) -> float:
        """Total mass of the two continuous axis components."""
        pq = self.start.p * self.start.q
        return pq * (1.0 / self.hi**2 - 1.0)

    def total_mass(self) -> float:
        return self.atom_axis_mass + self.density_mass() + self.atom_11_mass

    def cdf(self, t):
        """CDF of the scalar leaf parameter ℓ (both axes collapsed onto max),
        elementwise over an array of points; a float at a scalar point."""
        t = np.asarray(t, dtype=float)
        pq = self.start.p * self.start.q
        hi = self.hi
        # libm's pow, as float ** is; numpy's ** squares by one multiply
        top_sq = np.float_power(np.clip(t, hi, 1.0), 2)  # masked below hi
        axis = self.atom_axis_mass + pq * (1.0 / hi**2 - 1.0 / top_sq)
        out = np.where(t >= hi, axis, 0.0) + np.where(t >= 1.0, self.atom_11_mass, 0.0)
        return out if out.ndim else float(out)


def buzzer_leaf_law(p: float, q: float) -> BuzzerLeafLaw:
    """Closed-form leaf law of the buzzer started at (p, q).

    Symmetric under swapping the players: only the axis carrying the
    immediate-give-up atom flips."""
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise PreconditionError("buzzer start must be interior: 0 < p, q < 1")
    start = ProductDistribution(p, q)
    hi, lo = max(p, q), min(p, q)
    point = (hi, 0.0) if p >= q else (0.0, hi)
    return BuzzerLeafLaw(start, point, 1.0 - lo / hi, p * q)


# ---------------------------------------------------------------------------
# Discretized buzzer: the grid walk as a finite protocol tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridWalkSpec:
    """A start point (a/n, b/n) on the resolution-n grid, with the phases of
    its collapsed walk.

    From (a, b): when a >= b Bob's coordinate runs over [0, min(a+1, n)];
    otherwise Alice's runs over [0, b], exiting on the diagonal.  The walk
    absorbs on the axes (output 0) and at (n, n) (output 1).  Phase k is
    ``bob[k]`` (Bob moves), ``mover[k]`` (the moving coordinate's lattice
    value), ``high[k]`` (the gambler's-ruin ceiling; the floor is always 0)
    and ``other[k]`` (the resting coordinate's lattice value); ``terminal`` is
    the output reached when no phase gives up.  The phases are derived from
    (n, a, b), which alone decide equality."""

    n: int
    a: int
    b: int
    bob: np.ndarray = field(init=False, compare=False, repr=False)
    mover: np.ndarray = field(init=False, compare=False, repr=False)
    high: np.ndarray = field(init=False, compare=False, repr=False)
    other: np.ndarray = field(init=False, compare=False, repr=False)
    terminal: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise PreconditionError("grid resolution must be at least 2")
        if not (0 <= self.a <= self.n and 0 <= self.b <= self.n):
            raise PreconditionError("grid start off-lattice: need 0 <= a, b <= n")
        a, b, n = self.a, self.b, self.n
        phases = []  # flat (Bob moves, mover, ceiling, resting value) quadruples
        while a and b and (a, b) != (n, n):
            if a >= b:
                high = min(a + 1, n)
                phases += (1, b, high, a)
                b = high
            else:
                phases += (0, a, b, b)
                a = b
        bob, mover, ceiling, other = np.array(phases, np.int32).reshape(-1, 4).T.copy()
        derived = dict(bob=bob.astype(bool), mover=mover, high=ceiling, other=other,
                       terminal=int(a == b == n))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_start(cls, p: float, q: float, n: int = 1024):
        """Snap a real start to the nearest lattice point.

        Returns (spec, snap distance) so callers can report how far the
        requested start moved."""
        if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
            raise PreconditionError(f"grid start ({p!r}, {q!r}) outside [0, 1]²")
        a, b = round(p * n), round(q * n)
        spec = cls(n, a, b)
        return spec, float(max(abs(a / n - p), abs(b / n - q)))

    @property
    def start(self) -> ProductDistribution:
        return ProductDistribution(self.a / self.n, self.b / self.n)


def buzzer_grid_tree(
    spec: GridWalkSpec, dec: Optional[Decomposition] = None
) -> ProtocolTree:
    """The collapsed grid walk as a finite caterpillar protocol.

    Every give-up exit is a leaf with output 0; the (n, n) corner outputs 1.
    The tree errs on no input: a player holding 1 never takes a give-up
    branch, and the corner is reached only when both posteriors are certain.
    The signals are measure-independent; ``dec`` (when given) only fixes the
    symmetric-reference context the tree is meant to run under.

    A phase's signal is its Bayes-converted send probabilities.  Under the
    pretend walk the mover m exits up with probability m/high, landing at
    posterior high/n.  Conditioning on the owner's input: a 1 never gives up
    (posterior ratio (m/high)·(high/n)/(m/n) = 1); a 0 continues with
    probability m(n−high)/(high(n−m)), where m < n on every phase."""
    m, high, n = spec.mover.astype(np.int64), spec.high, spec.n  # products reach n²/4
    up_given_zero = (m * (n - high) / (high * (n - m))).tolist()
    node = Leaf(spec.terminal)
    for bob, s in zip(reversed(spec.bob.tolist()), reversed(up_given_zero)):
        # the module's owner constants, not a fresh string per node
        node = Internal(BOB if bob else ALICE, (s, 1.0), Leaf(0), node)
    return ProtocolTree(2, 2, (0, 1), node)


class GridLeaf(NamedTuple):
    index: int  # the exit's phase, or the phase count at the final leaf
    ell: float  # the nonzero coordinate at an axis exit; 1.0 at the corner
    axis: str  # "x", "y", or "one" for the (1,1) corner
    pretend_mass: float
    final: bool  # the leaf the walk reaches when no phase gives up

    @property
    def leaf_id(self) -> str:
        """The caterpillar path: one 1 per phase survived, then the give-up 0."""
        return "1" * self.index + ("" if self.final else "0")


def _grid_leaf_arrays(spec: GridWalkSpec) -> tuple:
    """(ℓ, pretend mass) of every leaf in leaf order: one give-up exit per
    phase, then the final leaf."""
    p_up = spec.mover / spec.high
    reach = np.cumprod(np.append(1.0, p_up))  # left to right, as the walk runs
    final_ell = 1.0 if spec.terminal else max(spec.a, spec.b) / spec.n
    ell = np.append(spec.other / spec.n, final_ell)
    return ell, np.append(reach[:-1] * (1.0 - p_up), reach[-1])


def grid_leaf_law(spec: GridWalkSpec) -> list:
    """Exact pretend-measure leaf law of the collapsed grid walk."""
    ell, mass = (values.tolist() for values in _grid_leaf_arrays(spec))
    axes = ["x" if bob else "y" for bob in spec.bob.tolist()]  # the survivor names the axis
    out = [GridLeaf(k, *leaf, False) for k, leaf in enumerate(zip(ell, axes, mass))]
    if spec.terminal:
        final_axis = "one"
    else:
        final_axis = "x" if spec.a >= spec.b else "y"
    out.append(GridLeaf(len(axes), ell[-1], final_axis, mass[-1], True))
    return out


def grid_law_kolmogorov(spec: GridWalkSpec, law: BuzzerLeafLaw) -> float:
    """Kolmogorov distance between the grid walk's scalar ℓ-law and the
    continuous law's CDF (evaluated just below and at each grid atom)."""
    ell, mass = _grid_leaf_arrays(spec)
    atoms, slot = np.unique(ell, return_inverse=True)
    after = np.cumsum(np.bincount(slot, weights=mass))  # each atom's mass adds in leaf order
    before = np.append(0.0, after[:-1])
    below = np.abs(before - law.cdf(atoms - 1e-12))
    at = np.abs(after - law.cdf(atoms))
    return float(max(below.max(), at.max()))


# ---------------------------------------------------------------------------
# Closed forms: SIM of the buzzer, the optimal zero-error IC of AND, and the
# stability potential
# ---------------------------------------------------------------------------

def _require_positive_reference(dec: Decomposition):
    if dec.x <= 0.0:
        raise PreconditionError("reference entry x = ν(0,0) must be positive")
    if dec.y <= 0.0:
        raise PreconditionError("reference entry y = ν(0,1) must be positive")


def sim_and_zero(p: float, q: float, dec: Decomposition) -> float:
    """Closed-form scaled cost of the buzzer from (p, q) under reference ν.

    The Table-1 integral evaluates to a natural-log antiderivative; one
    global 1/ln 2 converts it to bits.  Both absorption axes contribute
    identically because ν is symmetric, so for p < q the value is the p ≥ q
    branch at (q, p) with (x, y) unchanged."""
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise PreconditionError("sim_and_zero needs an interior start")
    _require_positive_reference(dec)
    if p < q:
        p, q = q, p
    x, y = dec.x, dec.y
    a = (1.0 - p) * x + p * y
    val = (
        q * (1.0 - p) * y
        + (1.0 - p) * (1.0 - q) * x * math.log((1.0 - p) * x / a)
        + (p * q * y * y / x + (p + q - 2.0 * p * q) * y) * math.log(p * y / a)
    )
    return -val / LN2


def sim_and_zero_d2p(p: float, q: float, dec: Decomposition) -> float:
    """∂²(sim_and_zero)/∂p² on the p > q side, in bits.

    −2(p−q)·xy / (2(1−p)·p²·((1−p)x+py)) / ln 2; the curvature in q is
    identically zero (the cost is linear in the smaller coordinate)."""
    _require_positive_reference(dec)
    if p <= q:
        raise PreconditionError("curvature formula applies on the p > q side")
    x, y = dec.x, dec.y
    a = (1.0 - p) * x + p * y
    return -2.0 * (p - q) * x * y / (2.0 * (1.0 - p) * p * p * a) / LN2


def ic_and_zero(w: JointDistribution) -> float:
    """Optimal zero-error internal information cost of AND at the prior w.

    H(X|Y) + H(Y|X) at w, minus the buzzer's concealed information — the
    closed-form scaled cost divided by ⟨ν, μ⟩ of w's symmetric
    decomposition."""
    dec = symmetric_decomposition(w)
    profile = entropy_profile(w)
    scaled = sim_and_zero(dec.pretend.p, dec.pretend.q, dec)
    return float(profile.h_x_given_y + profile.h_y_given_x - scaled / dec.inner())


def potential_phi_closed(c: float, p: float, q: float) -> float:
    """E[((c − ℓ)₊)²] under the buzzer leaf law from (p, q).

    Zero when max(p, q) ≥ c; otherwise the axis atom contributes
    (1 − lo/hi)(c − hi)² and the two density rays integrate analytically to
    2·hi·lo·(c²/(2hi²) − 2c/hi + 3/2 + ln(c/hi)).  Natural log: this is a
    polynomial antiderivative, not an entropy."""
    if not (0.0 < c < 1.0):
        raise PreconditionError("threshold must satisfy 0 < c < 1")
    hi, lo = max(p, q), min(p, q)
    if hi >= c:
        return 0.0
    axis = (1.0 - lo / hi) * (c - hi) ** 2
    rays = 2.0 * hi * lo * (
        c * c / (2.0 * hi * hi) - 2.0 * c / hi + 1.5 + math.log(c / hi)
    )
    return axis + rays


def _pretend_leaf_marginals(tree: ProtocolTree, dec: Decomposition):
    """(pretend mass, P[x=1], P[y=1]) arrays over the leaves the pretend
    product prior reaches; rejects non-product leaves."""
    law = law_of(tree, dec.pretend.as_joint())
    prob, post = leaf_posteriors(law)
    live = np.flatnonzero(prob > 0.0)
    m = post[live]
    lp = m[:, 1, 0] + m[:, 1, 1]
    lq = m[:, 0, 1] + m[:, 1, 1]
    # a 2x2 law with these marginals is a product iff its (1,1) entry is lp·lq
    gap = np.abs(m[:, 1, 1] - lp * lq)
    if np.any(gap > 1e-9):
        bad = int(np.argmax(gap))
        raise PreconditionError(
            f"leaf {law.leaf_ids[live[bad]]} posterior is not a product "
            f"distribution (off by {gap[bad]:.3e})"
        )
    return prob[live], lp, lq


def potential_of_tree(tree: ProtocolTree, c: float, dec: Decomposition) -> float:
    """E[((c − max(ℓp, ℓq))₊)²] over the tree's pretend leaf law."""
    if not (0.0 < c < 1.0):
        raise PreconditionError("threshold must satisfy 0 < c < 1")
    mass, lp, lq = _pretend_leaf_marginals(tree, dec)
    terms = mass * np.maximum(c - np.maximum(lp, lq), 0.0) ** 2
    return math.fsum(terms.tolist())


def leaf_mass_below(tree: ProtocolTree, dec: Decomposition, threshold: float) -> float:
    """Pretend-law probability that max(ℓp, ℓq) ≤ threshold at the leaf."""
    mass, lp, lq = _pretend_leaf_marginals(tree, dec)
    return math.fsum(mass[np.maximum(lp, lq) <= threshold].tolist())


# ---------------------------------------------------------------------------
# The ε-flip, one-sided AND, and zero-error completion
# ---------------------------------------------------------------------------

def _check_flip(x0: int, x1: int, epsilon: float, nx: int):
    if not (0.0 <= epsilon <= 1.0):
        raise PreconditionError(f"epsilon = {epsilon!r} outside [0, 1]")
    if x0 == x1:
        raise PreconditionError("flip rows must differ")
    if not (0 <= x0 < nx and 0 <= x1 < nx):
        raise PreconditionError("flip rows outside the rectangle")


def _copy_paths(tree: ProtocolTree, outputs: tuple, leaf, internal, state) -> ProtocolTree:
    """A copy of ``tree`` with one node per path, so shared nodes are expanded.

    Leaf t, in law order (preorder, 0-child first), becomes ``leaf(node, t)``.
    An internal node reached with ``state`` gets the signal and the two child
    states that ``internal(node, state)`` returns, as (signal, state0, state1)."""
    built = []
    t = 0
    # flat (node, state, signal) entries; a pushed signal marks a node whose
    # children are built
    stack = [(tree.root, state, None)]
    while stack:
        node, state, signal = stack.pop()
        if isinstance(node, Leaf):
            built.append(leaf(node, t))
            t += 1
        elif signal is None:
            signal, state0, state1 = internal(node, state)
            stack.append((node, None, signal))
            stack.append((node.child1, state1, None))
            stack.append((node.child0, state0, None))
        else:
            child1, child0 = built.pop(), built.pop()
            built.append(Internal(node.owner, signal, child0, child1))
    return ProtocolTree(tree.nx, tree.ny, outputs, built.pop())


def flip_transform(
    law: TranscriptLaw, x0: int, x1: int, epsilon: float
) -> TranscriptLaw:
    """Alice privately flips an ε-coin; on heads she behaves as if her input
    x1 were x0 for the whole run.  Only row x1 of the conditional law moves:
    Pr'[t|x1,y] = ε·Pr[t|x0,y] + (1−ε)·Pr[t|x1,y]."""
    _check_flip(x0, x1, epsilon, law.prior.nx)
    cond = np.array(law.cond)
    cond[:, x1, :] = epsilon * law.cond[:, x0, :] + (1 - epsilon) * law.cond[:, x1, :]
    return TranscriptLaw(law.prior, law.leaf_ids, cond, law.outputs)


def flip_tree(tree: ProtocolTree, x0: int, x1: int, epsilon: float) -> ProtocolTree:
    """The same ε-flip as a protocol tree.

    The private coin folds into the tree because Alice's coin posterior given
    (x1, transcript-so-far) does not depend on Bob's input — his factors
    cancel — so rewriting row x1 of each signal path-dependently reproduces
    the mixture law on the same tree shape; a node shared by several paths
    comes back once per path.  Log-weights keep the reweighting stable on
    very deep trees."""
    _check_flip(x0, x1, epsilon, tree.nx)
    if epsilon == 0.0:
        return tree

    def log_(v: float) -> float:
        return math.log(v) if v > 0.0 else -math.inf

    def internal(node: Internal, state: tuple) -> tuple:
        # state: the path's log-weights behaving as x0 and as x1
        s = node.send_one_prob
        if node.owner != ALICE:
            return s, state, state
        la0, la1 = state
        kids = ((la0 + log_(1 - s[x0]), la1 + log_(1 - s[x1])),
                (la0 + log_(s[x0]), la1 + log_(s[x1])))
        if la0 == -math.inf and la1 == -math.inf:
            return (s, *kids)  # unreachable under x1 either way
        if la1 == -math.inf:
            heads = 1.0
        elif la0 == -math.inf:
            heads = 0.0
        else:
            heads = 1.0 / (1.0 + ((1 - epsilon) / epsilon) * math.exp(la1 - la0))
        new = list(s)
        new[x1] = heads * s[x0] + (1.0 - heads) * s[x1]
        return (tuple(new), *kids)

    return _copy_paths(tree, tree.outputs, lambda node, t: node, internal, (0.0, 0.0))


def one_sided_and(
    epsilon: float, w: JointDistribution, n: int = 1024
) -> TranscriptLaw:
    """The buzzer law at w with an ε-flip of row 1 toward row 0.

    The result errs only by answering 0 on (1, 1), and does so with
    probability exactly ε; the evaluator enforces both facts."""
    dec = symmetric_decomposition(w)
    spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, n)
    tree = buzzer_grid_tree(spec, dec)
    flipped = flip_transform(law_of(tree, w), 0, 1, epsilon)
    task = Task(AND_TABLE, epsilon=max(epsilon, 1e-12), one_sided=(1, 0))
    report = evaluate_error_law(flipped, task)
    if report.one_sided_violation > 1e-12:
        raise ProtocolError("one-sided AND produced a forbidden error direction")
    if abs(report.max_pointwise - epsilon) > 1e-9:
        raise ProtocolError(
            f"one-sided AND error {report.max_pointwise} differs from epsilon"
        )
    return flipped


def complete_to_zero_error(tree: ProtocolTree, f, prior: JointDistribution) -> ProtocolTree:
    """Append verification rounds below every leaf until no input can be
    answered incorrectly.

    At a leaf with output z and posterior μ_ℓ, the players test each support
    cell (x, y) with f(x, y) ≠ z in row-major order: the player whose
    posterior marginal of the tested value is smaller reveals first (ties to
    Alice); a confirmed match ends with the true value f(x, y), and if every
    test fails the original output stands.  Over a full-support prior the
    completed tree has pointwise error exactly zero."""
    table = np.asarray(f, dtype=object)
    if table.shape != (tree.nx, tree.ny):
        raise PreconditionError("function table shape does not match the tree")
    outputs = tuple(dict.fromkeys(tree.outputs + tuple(table.flat)))
    prob, post = leaf_posteriors(law_of(tree, prior))
    px = post.sum(axis=2).tolist()
    py = post.sum(axis=1).tolist()
    support = prior.support()
    reveal_x = [tuple(row) for row in np.eye(tree.nx).tolist()]  # "is x yours?"
    reveal_y = [tuple(row) for row in np.eye(tree.ny).tolist()]
    cells = [(x, y) for x in range(tree.nx) for y in range(tree.ny) if support[x, y]]
    tests = {out: [c for c in cells if table[c] != out] for out in tree.outputs}

    def verification(leaf: Leaf, t: int):
        node = leaf  # all tests failed: the original answer stands
        for x, y in reversed(tests[leaf.output]):
            confirm = Leaf(table[x, y])
            # each question's 1-branch is the match; the smaller marginal asks first
            if px[t][x] <= py[t][y]:
                second = Internal(BOB, reveal_y[y], node, confirm)
                node = Internal(ALICE, reveal_x[x], node, second)
            else:
                second = Internal(ALICE, reveal_x[x], node, confirm)
                node = Internal(BOB, reveal_y[y], node, second)
        return node

    # each reachable leaf is replaced by its verification
    return _copy_paths(
        tree,
        outputs,
        lambda leaf, t: verification(leaf, t) if prob[t] > 0.0 else leaf,
        lambda node, state: (node.send_one_prob, None, None),
        None,
    )
