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
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import protocol
from .distributions import (
    Decomposition,
    JointDistribution,
    ProductDistribution,
    SNAP_EPS,
    _conditional_entropies,
    _product,
    _symmetric_reference,
)
from .errors import PreconditionError, ProtocolError, ResourceCapError
from .infocost import (SUM_BLOCK_CELLS, TranscriptLaw, _margin, _snap, law_of,
                       leaf_posteriors)
from .protocol import ALICE, BOB, Internal, Leaf, ProtocolTree, _Lazy, _scan

LN2 = math.log(2.0)
EXP_MAX = math.log(sys.float_info.max)  # the largest x whose math.exp(x) is finite
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
    (n, a, b), which alone decide equality.  A walk may have 2n + 1
    transcripts, so n past ``TREE_FACTOR_CAP`` / 8 raises ``ResourceCapError``
    before any phase is made."""

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
        most = protocol.TREE_FACTOR_CAP // 4  # transcripts of a 2x2 tree
        if 2 * self.n + 1 > most:  # the most a resolution-n walk may have
            raise ResourceCapError(f"a resolution-{self.n} grid walk may have {2 * self.n + 1} "
                                   f"transcripts, over the {most} that fit a 2x2 tree")
        a, b, n = self.a, self.b, self.n
        # The walk climbs the diagonal: from c = max(a, b), Bob moves c → c + 1
        # resting at c, then Alice c → c + 1 resting at c + 1.  It enters with
        # Alice moving a → b when a < b, and else with Bob moving from b.
        c = np.arange(max(a, b), n, dtype=np.int32) if a and b else np.arange(0, dtype=np.int32)
        bob, mover = np.tile([True, False], len(c)), np.repeat(c, 2)
        other = mover + ~bob
        if a and a < b:  # Alice first catches up with Bob
            bob, mover, other = (np.append(v, w) for v, w in ((False, bob), (a, mover), (b, other)))
        elif b and a == n > b:  # Bob goes straight to the corner
            bob, mover, other = np.array([True]), np.array([b]), np.array([n])
        elif a and b and a < n:  # Bob first moves up from b, not from c = a
            mover[0] = b
        mover, other = mover.astype(np.int32), other.astype(np.int32)
        derived = dict(bob=bob, mover=mover, high=np.where(bob, np.minimum(other + 1, n), other),
                       other=other, terminal=int(bool(a and b)))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_start(cls, p: float, q: float, n: int = 1024):
        """Snap a real start to the nearest lattice point, an interior
        coordinate to 1..n−1 (on an edge the walk has stopped already).

        Returns (spec, snap distance) so callers can report how far the
        requested start moved."""
        if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
            raise PreconditionError(f"grid start ({p!r}, {q!r}) outside [0, 1]²")
        a, b = (min(max(round(v * n), 1), n - 1) if 0.0 < v < 1.0 else round(v * n)
                for v in (p, q))
        return cls(n, a, b), float(max(abs(a / n - p), abs(b / n - q)))

    @property
    def start(self) -> ProductDistribution:
        return ProductDistribution(self.a / self.n, self.b / self.n)


def buzzer_grid_tree(
    spec: GridWalkSpec, dec: Optional[Decomposition] = None
) -> ProtocolTree:
    """The collapsed grid walk as a finite caterpillar protocol.

    Every give-up exit is a leaf with output 0; the (n, n) corner outputs 1.
    From an interior start (0 < a, b < n) the tree errs on no input: a
    player holding 1 never takes a give-up branch, and the corner is reached
    only when both posteriors are certain.  An edge start takes that input as
    known, and errs with probability 1 on the inputs where it is not.
    The signals are measure-independent, and nothing reads ``dec``: it stays
    only for the benchmark's positional call (``bench/ops.py``).

    A phase's signal is its Bayes-converted send probabilities.  Under the
    pretend walk the mover m exits up with probability m/high, landing at
    posterior high/n.  Conditioning on the owner's input: a 1 never gives up
    (posterior ratio (m/high)·(high/n)/(m/n) = 1); a 0 continues with
    probability m(n−high)/(high(n−m)), where m < n on every phase.

    The tree comes with the scan plan and factor rows that scans would
    derive, written from the phases: pricing it derives no plan and runs no
    scan."""
    m, high, n, bob = spec.mover.astype(np.int64), spec.high, spec.n, spec.bob  # m·n reaches n²
    signals = np.column_stack((m * (n - high) / (high * (n - m)), np.ones(len(m))))
    k = 2 * len(bob)  # phase i: its node at entry 2i, its give-up leaf (output 0) at 2i + 1
    owner, signal, child1 = (np.full(k + 1, v, t) for v, t in ((-1, np.int8), (0, np.int32),
                                                                (-1, np.int32)))
    owner[:k:2], child1[:k:2], signal[k] = bob, np.arange(2, k + 1, 2), spec.terminal
    signal[:k:2] = np.where(bob, bob.cumsum(), (~bob).cumsum()) - 1  # the owner's table row
    # scans' plan: the spine, the nodes and then the last node's 0-child (as a
    # heavy path goes on a tie), then each other leaf as one edge below its node
    nodes, chunk = np.arange(0, k - 1, 2, dtype=np.int32), protocol.SCAN_CHUNK_PATHS
    spine, off = np.append(nodes, np.int32(max(k - 1, 0))), nodes + 1
    off[-1:] = k
    plan = [(np.array([k + 1], np.int32), spine[None])] + [
        (nodes[lo:lo + chunk], off[lo:lo + chunk, None]) for lo in range(0, len(off), chunk)]
    # the factors, [side, input] a leaf, in a scan's order: the reach, the 1-edge
    # rows multiplied down the spine, times a give-up leaf's 0-edge row
    phase, side, reach = np.arange(len(bob)), bob.view(np.int8), np.ones((len(bob) + 1, 2, 2))
    reach[phase + 1, side] = signals
    np.multiply.accumulate(reach, axis=0, out=reach)
    reach[phase, side] *= 1.0 - signals
    return ProtocolTree(2, 2, (0, 1), plan=plan, factors=reach.reshape(-1, 4),
                        arrays=(owner, signal, child1, np.arange(k + 1, dtype=np.int32),
                                signals[~bob], signals[bob]))


class GridLeaf(NamedTuple):
    index: int  # the exit's phase, or the phase count at the final leaf
    ell: float  # the nonzero coordinate at an axis exit; 1.0 at the corner
    axis: str  # "x", "y", or "one" for the (1,1) corner
    pretend_mass: float
    final: bool  # the leaf the walk reaches when no phase gives up


def _grid_leaf_arrays(spec: GridWalkSpec) -> tuple:
    """(ℓ, pretend mass) of every leaf in leaf order: one give-up exit per
    phase, then the final leaf."""
    p_up = spec.mover / spec.high
    reach = np.cumprod(np.append(1.0, p_up))  # left to right, as the walk runs
    final_ell = 1.0 if spec.terminal else max(spec.a, spec.b) / spec.n
    ell = np.append(spec.other / spec.n, final_ell)
    return ell, np.append(reach[:-1] * (1.0 - p_up), reach[-1])


def _grid_leaf_columns(spec: GridWalkSpec) -> tuple:
    """(ℓ, axis, pretend mass) lists over the leaves, in leaf order."""
    ell, mass = (values.tolist() for values in _grid_leaf_arrays(spec))
    axes = ["x" if bob else "y" for bob in spec.bob.tolist()]  # the survivor names the axis
    if spec.terminal:
        axes.append("one")
    else:
        axes.append("x" if spec.a >= spec.b else "y")
    return ell, axes, mass


class GridLeafLaw(_Lazy):
    """The ``GridLeaf``s of a grid walk in leaf order, each made when read
    from the columns, which are computed when first read."""

    __slots__ = ("_spec", "_columns")

    def __init__(self, spec: GridWalkSpec):
        self._spec, self._columns = spec, None

    def __len__(self):
        return len(self._spec.bob) + 1  # a give-up exit per phase, then the final leaf

    def _at(self, i):
        return GridLeaf(i, *(column[i] for column in self._read()), i == len(self) - 1)

    def __iter__(self):
        ell, axes, mass = self._read()
        final = [False] * (len(ell) - 1) + [True]
        return map(GridLeaf._make, zip(range(len(ell)), ell, axes, mass, final))

    def _read(self) -> tuple:
        if self._columns is None:
            self._columns = _grid_leaf_columns(self._spec)
        return self._columns


def grid_leaf_law(spec: GridWalkSpec) -> GridLeafLaw:
    """Exact pretend-measure leaf law of the collapsed grid walk."""
    return GridLeafLaw(spec)


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

def _require_positive_reference(x: float, y: float):
    if x <= 0.0:
        raise PreconditionError("reference entry x = ν(0,0) must be positive")
    if y <= 0.0:
        raise PreconditionError("reference entry y = ν(0,1) must be positive")


def sim_and_zero(p: float, q: float, dec: Decomposition) -> float:
    """Closed-form scaled cost of the buzzer from (p, q) under reference ν.

    The Table-1 integral evaluates to a natural-log antiderivative; one
    global 1/ln 2 converts it to bits.  Both absorption axes contribute
    identically because ν is symmetric, so for p < q the value is the p ≥ q
    branch at (q, p) with (x, y) unchanged."""
    return _sim_and_zero(p, q, dec.x, dec.y)


def _sim_and_zero(p: float, q: float, x: float, y: float) -> float:
    """``sim_and_zero`` with ν(0,0) = x and ν(0,1) = y."""
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise PreconditionError("sim_and_zero needs an interior start")
    _require_positive_reference(x, y)
    if p < q:
        p, q = q, p
    t1, t2, t3, _, _ = _sim_terms(p, q, x, y, math.log)
    return -(t1 + t2 + t3) / LN2


def _sim_terms(p, q, x, y, log):
    """The closed form's three terms at p ≥ q, in nats, and the coefficients
    of its two logs: on floats with ``math.log``, on arrays with ``np.log``."""
    a = (1.0 - p) * x + p * y
    c2 = (1.0 - p) * (1.0 - q) * x
    c3 = p * q * y * y / x + (p + q - 2.0 * p * q) * y
    return q * (1.0 - p) * y, c2 * log((1.0 - p) * x / a), c3 * log(p * y / a), c2, c3


def sim_and_zero_d2p(p: float, q: float, dec: Decomposition) -> float:
    """∂²(sim_and_zero)/∂p² on the p > q side, in bits.

    −2(p−q)·xy / (2(1−p)·p²·((1−p)x+py)) / ln 2; the curvature in q is
    identically zero (the cost is linear in the smaller coordinate)."""
    x, y = dec.x, dec.y
    _require_positive_reference(x, y)
    if p <= q:
        raise PreconditionError("curvature formula applies on the p > q side")
    a = (1.0 - p) * x + p * y
    return -2.0 * (p - q) * x * y / (2.0 * (1.0 - p) * p * p * a) / LN2


def ic_and_zero(w: JointDistribution) -> float:
    """Optimal zero-error internal information cost of AND at the prior w.

    H(X|Y) + H(Y|X) at w, minus the buzzer's concealed information — the
    closed-form scaled cost divided by ⟨ν, μ⟩ of w's symmetric
    decomposition.  Computed on w's four masses by the float steps that
    ``symmetric_decomposition``, ``entropy_profile`` and ``sim_and_zero``
    take, with their errors, and no object built."""
    (m00, m01, m10, m11), q, nu, inner = _symmetric_reference(w)
    h_x_given_y, h_y_given_x = _conditional_entropies(
        ((m00, m01), (m10, m11)), (m00 + m01, m10 + m11), (m00 + m10, m01 + m11))
    return h_x_given_y + h_y_given_x - _sim_and_zero(0.5, q, nu[0], nu[1]) / inner


@np.errstate(divide="ignore", invalid="ignore")  # a snapped ν(0,0) gives NaN, not a warning
def _ic_and_zero_screen(m00, m01, m10, m11):
    """``ic_and_zero`` at arrays of masses by its float steps, with numpy's logs
    and plain sums for ``math.fsum``, and a scale S of the error: the |terms|
    of the entropies, of the closed form and of its log coefficients (an ulp
    of ν moves a log by an ulp) over ln 2·⟨ν, μ⟩, plus the masses' sum, 1.
    Checks nothing: a prior the scalar refuses may give NaN."""
    s = m01 + m10
    q = m01 / s
    raw = (m00 / (1.0 - q), s, s, m11 / q)
    nu = [t / (raw[0] + raw[1] + raw[2] + raw[3]) for t in raw]
    nu = [np.where(t < SNAP_EPS, 0.0, t) for t in nu]
    pretend = _product(0.5, q)
    inner = nu[0] * pretend[0] + nu[1] * pretend[1] + nu[2] * pretend[2] + nu[3] * pretend[3]
    rows, px, py = ((m00, m01), (m10, m11)), (m00 + m01, m10 + m11), (m00 + m10, m01 + m11)
    ent = [t * np.log2(np.where(t > 0.0, t / b, 1.0)) for row in rows for t, b in zip(row, py)]
    ent += [t * np.log2(np.where(t > 0.0, t / a, 1.0)) for row, a in zip(rows, px) for t in row]
    terms = _sim_terms(np.maximum(0.5, q), np.minimum(0.5, q), nu[0], nu[1], np.log)
    sim = -(terms[0] + terms[1] + terms[2]) / LN2
    value = -sum(ent[:4]) - sum(ent[4:]) - sim / inner
    return value, sum(map(abs, ent)) + sum(map(abs, terms)) / (LN2 * inner) + 1.0


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


def potential_of_tree(tree: ProtocolTree, c: float, dec: Decomposition) -> float:
    """E[((c − max(ℓp, ℓq))₊)²] over the tree's pretend leaf law, where
    (ℓp, ℓq) = (P[x=1], P[y=1]) at each leaf the pretend product prior
    reaches; rejects non-product leaves."""
    if not (0.0 < c < 1.0):
        raise PreconditionError("threshold must satisfy 0 < c < 1")
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
    terms = prob[live] * np.maximum(c - np.maximum(lp, lq), 0.0) ** 2
    return float(terms.sum())


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
    comes back once per path, and the flipped tree scans with this tree's
    plan, as it has the same shape.  Log-weights (libm's, summed down each path)
    keep the reweighting stable on very deep trees; a posterior whose odds
    overflow is 0, or 1 at ε = 1.  The weights are read only at Alice's nodes,
    so ``log`` runs only on edges into internal nodes with probability in
    (0, 1) (log 1 = 0 and log 0 = −inf are exact), ``exp`` only on the odds
    read; both stay libm's, whose bits the node-by-node oracle pins.  Only
    Alice's column x1 moves: the flipped tree ships this tree's factors with
    that column scanned again."""
    _check_flip(x0, x1, epsilon, tree.nx)
    if epsilon == 0.0:
        return tree
    owner, child1, n = tree.owner, tree.child1, len(tree.owner)
    at = (owner == 0).nonzero()[0]
    s = tree.alice[tree.signal[at]]
    logs = np.zeros((n + 2, 2))  # the path's log-weight behaving as x0 and as x1
    for kids, p in ((at + 1, 1.0 - s[:, [x0, x1]]), (child1[at], s[:, [x0, x1]])):
        log_p = np.where(p > 0.0, 0.0, -math.inf)
        read = (p > 0.0) & (p < 1.0) & (owner[kids] >= 0)[:, None]
        log_p[read] = np.fromiter(map(math.log, p[read].tolist()), float)
        logs[kids] = log_p
    la0, la1 = _scan(tree.plan, np.add, logs, 0.0)[at].T
    moved = (la0 > -math.inf) | (la1 > -math.inf)  # x1 cannot reach the others either way
    gap = la1[moved] - la0[moved]  # −inf where x1 cannot reach the node: heads = 1
    odds = np.full(len(gap), math.inf if epsilon < 1.0 else 0.0)  # where exp overflows
    odds[gap == math.inf] = math.inf  # x0 cannot reach the node: heads = 0
    fits = gap <= EXP_MAX
    with np.errstate(over="ignore"):  # an infinite product gives heads = 0, as it should
        odds[fits] = ((1 - epsilon) / epsilon) * np.fromiter(map(math.exp, gap[fits].tolist()),
                                                           float)
    heads, rows = 1.0 / (1.0 + odds), s.copy()
    rows[moved, x1] = heads * s[moved, x0] + (1.0 - heads) * s[moved, x1]
    signal = tree.signal.copy()
    signal[at] = np.arange(len(at))
    copy_of = np.where(owner >= 0, np.arange(n), tree.copy_of)  # leaves stay shared
    factors, edges = tree.path_law.factors.copy(), np.ones((n + 2, 1))
    edges[at + 1, 0], edges[child1[at], 0] = 1.0 - rows[:, x1], rows[:, x1]
    factors[:, x1] = _scan(tree.plan, np.multiply, edges, 1.0)[owner < 0, 0]
    return ProtocolTree(tree.nx, tree.ny, tree.outputs, plan=tree.plan, factors=factors,
                        arrays=(owner, signal, child1, copy_of, rows, tree.bob))


def one_sided_and(
    epsilon: float, w: JointDistribution, n: int = 1024
) -> TranscriptLaw:
    """The buzzer law at w with an ε-flip of row 1 toward row 0.

    The result errs only by answering 0 on (1, 1), and does so with
    probability exactly ε: its "says 1" table is [[0, 0], [0, 1 − ε]].  It
    checks both facts on that table: the uniform-weighted mass of 1-answers
    on AND's 0-inputs is at most 1e-12, and the error at (1, 1) is within
    1e-9 of ε."""
    _, q, _, _ = _symmetric_reference(w)
    spec, _ = GridWalkSpec.from_start(0.5, q, n)
    flipped = flip_transform(law_of(buzzer_grid_tree(spec), w), 0, 1, epsilon)
    says = flipped.cond[flipped.outputs.equal_to(1)].sum(axis=0)
    error = 1.0 - says[1, 1]
    if (says.sum() - says[1, 1]) / 4 > 1e-12:
        raise ProtocolError("one-sided AND produced a forbidden error direction")
    if abs(error - epsilon) > 1e-9:
        raise ProtocolError(f"one-sided AND error {error} differs from epsilon")
    return flipped


def complete_to_zero_error(tree: ProtocolTree, f, prior: JointDistribution) -> ProtocolTree:
    """Append verification rounds below every leaf until no input can be
    answered incorrectly.

    At a leaf with output z and posterior μ_ℓ, the players test each support
    cell (x, y) with f(x, y) ≠ z in row-major order: the player whose
    posterior marginal of the tested value is smaller reveals first (ties to
    Alice); a confirmed match ends with the true value f(x, y), and if every
    test fails the original output stands.  Over a full-support prior the
    completed tree has pointwise error exactly zero.  The rounds of each
    output and asking order are built once as nodes, laid out by
    ``ProtocolTree`` (a test's two questions share the rounds below) and
    spliced in below each reached leaf with that code; past
    ``TREE_FACTOR_CAP`` transcripts, ``ResourceCapError`` comes first."""
    table = np.asarray(f, dtype=object)
    if not table.shape == prior.mass.shape == (tree.nx, tree.ny):
        raise PreconditionError("function table or prior shape does not match the tree")
    nx, ny, n = tree.nx, tree.ny, len(tree.owner)
    outputs = tuple(dict.fromkeys(tree.outputs + tuple(table.flat)))
    cells = list(map(tuple, np.argwhere(prior.support()).tolist()))
    leaves = (tree.owner < 0).nonzero()[0]
    kept = np.array([outputs.index(z) for z in tree.outputs])[tree.signal[leaves]]
    tests = [[c for c in cells if table[c] != z] for z in tree.outputs]
    # the leaves with tests, by blocks of rows of prior ⊙ path factors: those
    # reached (a positive row sum) are counted against the cap before any posterior
    asked = np.isin(tree.signal[leaves], [k for k, t in enumerate(tests) if t]).nonzero()[0]
    step = max(1, SUM_BLOCK_CELLS // (nx * ny))

    def joints(rows):
        for lo in range(0, len(rows), step):
            fa = tree.path_law.factors[rows[lo:lo + step]]
            yield slice(lo, lo + step), fa[:, :nx, None] * fa[:, None, nx:] * prior.mass

    prob = np.zeros(len(asked))
    for at, joint in joints(asked):
        prob[at] = joint.reshape(len(joint), nx * ny).sum(axis=1)
    asked, prob = asked[prob > 0.0], prob[prob > 0.0]
    if not len(asked):  # the tree and its law stand, its internal nodes unshared as below
        signal, copy_of = tree.signal.copy(), np.where(tree.owner >= 0, np.arange(n), tree.copy_of)
        signal[leaves] = kept
        return ProtocolTree(nx, ny, outputs, factors=tree.path_law.factors, arrays=(
            tree.owner, signal, tree.child1, copy_of, tree.alice, tree.bob))
    most = protocol.TREE_FACTOR_CAP // (nx + ny)  # t tests give a leaf 2^(t+1) − 1 paths
    counts = np.bincount(np.array(list(map(len, tests)))[tree.signal[leaves[asked]]]).tolist()
    if len(counts) > most.bit_length() or sum(  # a leaf with that many tests is over alone
            k * (2 ** (t + 1) - 1) for t, k in enumerate(counts)) + len(leaves) - len(asked) > most:
        raise ResourceCapError(f"the completed tree expands to over {most} transcripts, "
                               f"the most that fit a {nx}x{ny} tree")
    px, py = np.empty((len(asked), nx)), np.empty((len(asked), ny))
    for at, joint in joints(asked):  # their marginals, as leaf_posteriors gives them
        post = _snap(joint / prob[at, None, None])
        px[at], py[at] = _margin(post, 2)[:, :, 0], _margin(post, 1)[:, 0]
    # the question on factor column c (Alice's x, or Bob's nx + y) sends 1 on a
    # unit row (question[c]: its asker and that row); its 1-edge multiplies each
    # factor by yes[c], zeroing the asker's other columns, its 0-edge by no[c]
    side = np.arange(nx + ny) >= nx
    yes, no = np.where(side == side[:, None], np.eye(nx + ny), 1.0), 1.0 - np.eye(nx + ny)
    question = [((ALICE, BOB)[c >= nx], tuple(row))
                for c, row in enumerate(np.eye(nx).tolist() + np.eye(ny).tolist())]
    # entry i moves down by the entries that the rounds of the leaves before it
    # add (grow); a leaf's factor row becomes its rounds' rows, the masks
    # times it, which are the rows a scan would give, as every mask entry is 0 or 1
    grow, asks, rows = np.zeros(n, np.intp), np.zeros(n, np.intp), np.ones(len(leaves), np.intp)
    groups = []  # (the reached leaves of one code, its tests, its rounds' arrays, their masks)
    for k in np.unique(tree.signal[leaves[asked]]).tolist():
        here = (tree.signal[leaves[asked]] == k).nonzero()[0]
        xs, ys = np.array(tests[k]).T
        # bit j of a leaf's code: Alice asks first in test j, as her marginal
        # is the smaller (the cap keeps the tests to at most 20)
        codes = (px[here][:, xs] <= py[here][:, ys]) @ (1 << np.arange(len(xs)))
        for code in np.unique(codes).tolist():
            node, masks = Leaf(tree.outputs[k]), np.ones((1, nx + ny))  # all tests fail
            for j in reversed(range(len(xs))):  # each 1-edge is the match
                ask, then = (xs[j], nx + ys[j])[::1 if code >> j & 1 else -1]
                node = Internal(*question[ask], node,
                                Internal(*question[then], node, Leaf(table[xs[j], ys[j]])))
                masks = np.concatenate((no[ask] * masks, yes[ask] * no[then] * masks,
                                        (yes[ask] * yes[then])[None]))
            rounds = ProtocolTree(nx, ny, outputs, node)
            o, s = rounds.owner, rounds.signal.copy()  # a question's unit row, appended below
            s[o == 0] = len(tree.alice) + rounds.alice.argmax(axis=1)[s[o == 0]]
            s[o == 1] = len(tree.bob) + rounds.bob.argmax(axis=1)[s[o == 1]]
            reached = asked[here[codes == code]]
            groups.append((reached, len(xs), (o, s, rounds.child1, rounds.copy_of), masks))
            grow[leaves[reached]], asks[leaves[reached]] = len(o) - 1, len(xs)
            rows[reached] = len(masks)
    # a leaf stays itself, and so stays shared: where it was, or first reached
    # at the bottom of its rounds, at the end of their 0-edges, one per test
    moved = np.arange(n) + grow.cumsum() - grow
    own = moved + asks
    factors = tree.path_law.factors.repeat(rows, axis=0)
    owner, signal, child1, copy_of = (np.full(n + grow.sum(), -1, np.int32) for _ in range(4))
    inner = (tree.owner >= 0).nonzero()[0]
    owner[moved], signal[moved], signal[moved[leaves]] = tree.owner, tree.signal, kept
    child1[moved[inner]], copy_of[moved[inner]] = moved[tree.child1[inner]], moved[inner]
    copy_of[moved[leaves]] = own[tree.copy_of[leaves]]
    for reached, tested, (o, s, c1, c), masks in groups:
        start = moved[leaves[reached]][:, None]
        at = start + np.arange(len(o))
        owner[at], signal[at] = o, s
        child1[at] = np.where(c1 < 0, -1, start + c1)
        copy_of[at] = np.where(c == tested, own[tree.copy_of[leaves[reached]]][:, None], start + c)
        factors[(rows.cumsum() - rows)[reached][:, None] + np.arange(len(masks))] *= masks
    return ProtocolTree(nx, ny, outputs, arrays=(owner, signal, child1, copy_of,
                                                 np.vstack((tree.alice, np.eye(nx))),
                                                 np.vstack((tree.bob, np.eye(ny)))),
                        factors=factors)
