"""Set intersection detection from one-sided AND blocks.

DISJ over n coordinates outputs 1 iff some coordinate has both bits set.
The protocol orders the coordinates by a public uniform permutation, runs a
one-sided AND subprotocol per coordinate in that order, and stops at the
first 1.  Because the subprotocols never answer 1 falsely, disjoint inputs
never err, and an input with t intersecting coordinates errs exactly when
all t of its AND rounds err — probability (per-round error)^t.

Input laws are product-across-coordinates, so the rounds are independent
and each round's prior is its coordinate's marginal law.  An instance holds
runs of (prior, multiplicity) in coordinate order, and every audit and cost
number is a product, or a sum of prefix and suffix products, over the runs'
2x2 "says 1" tables o and AND costs: O(runs) work at any n, with the reach
within 2e-15 relative of exact arithmetic.  They are checked against the
composite law over all 4ⁿ inputs (``disj_protocol``), whose inputs are
integers with coordinate i in bit i, so intersection is ``x & y``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import groupby, permutations
from typing import Callable, Optional

import numpy as np

from .and_protocols import ic_and_zero
from .distributions import JointDistribution, truncated_entropy
from .errors import PreconditionError, ProtocolError, ResourceCapError
from .infocost import TranscriptLaw, internal_ic

# disj_protocol's composite law keeps a 4ⁿ-cell table per transcript and
# walks all n! orders of the coordinates.
COMPOSITE_COORD_CAP = 4
# The audit's one table, ``per_input`` over 4ⁿ inputs, peaks at 25 bytes a
# cell (tracemalloc).  At 2²⁰ cells (n = 10, 26 MB) `disj --and-grid 16`
# takes 0.2–0.3 s, process start included, at 57 MB peak RSS on a 2-core
# host.  Past the cap the audit reports no table.  Its numbers need none:
# they cost O(runs) at any n, the reach within 2e-15 relative.
AUDIT_TABLE_CAP = 2**20

# the zero-diagonal prior at which the zero-error cost of AND peaks; its
# closed-form cost anchors the analytic bound curve
HARDEST_ZERO_DIAG_PRIOR = JointDistribution.from_mass(
    [[0.3653203272016804, 0.31733983639915976], [0.31733983639915976, 0.0]]
)


@dataclass(frozen=True)
class DisjInstance:
    """A product-form input law: runs of (prior, multiplicity), a 2x2 prior a coordinate."""

    runs: tuple
    n: int = field(init=False)
    p_one: float = field(init=False)  # probability that the sets intersect

    def __post_init__(self):
        if not self.runs or min(m for _, m in self.runs) < 1:
            raise PreconditionError("need at least one coordinate prior")
        if any((w.nx, w.ny) != (2, 2) for w, _ in self.runs):
            raise PreconditionError("coordinate priors must be 2x2")
        object.__setattr__(self, "n", sum(operator.index(m) for _, m in self.runs))
        object.__setattr__(self, "p_one", 1.0 - math.prod(
            (1.0 - float(w.mass[1, 1])) ** m for w, m in self.runs
        ))

    @classmethod
    def from_priors(cls, coord_priors) -> "DisjInstance":
        """One run per maximal block of adjacent equal priors."""
        blocks = [list(b) for _, b in groupby(coord_priors, key=lambda w: w.mass.tobytes())]
        return cls(tuple((block[0], len(block)) for block in blocks))

    @classmethod
    def iid(cls, w: JointDistribution, n: int) -> "DisjInstance":
        return cls(((w, n),))

    @property
    def coord_priors(self) -> tuple:
        """Every coordinate's prior, n of them: for small n only."""
        return tuple(w for w, m in self.runs for _ in range(m))

    def joint_prior(self) -> JointDistribution:
        """The product law over composite inputs (bit i of the index is
        coordinate i)."""
        size = 2**self.n
        mass = np.ones((size, size))
        for i, w in enumerate(self.coord_priors):
            xb = (np.arange(size) >> i) & 1
            mass *= w.mass[np.ix_(xb, xb)]
        return JointDistribution.from_mass(mass)


def disj_table(n: int) -> np.ndarray:
    """The full function table over composite inputs: 1 iff the sets meet."""
    size = 2**n
    x = np.arange(size)
    return ((x[:, None] & x[None, :]) != 0).astype(int)


def _round_budget(inst: DisjInstance, epsilon: float) -> Optional[float]:
    """The per-round AND budget ε/(2 p_one), or None when the sets intersect
    with probability below ε and the always-0 protocol already meets it."""
    if not (0.0 <= epsilon < 1.0):
        raise PreconditionError(f"epsilon = {epsilon!r} outside [0, 1)")
    if inst.p_one == 0.0 or inst.p_one < epsilon:
        return None
    return epsilon / (2.0 * inst.p_one)


def _rounds(inst: DisjInstance, eps_round: float, and_factory):
    """Every run's round as (AND law, o = Pr[says 1 | a, b] as a 2x2 table);
    the factory runs once per distinct prior, and its failures, apart from a
    blown cap, become ``ProtocolError`` naming the prior's first coordinate."""
    built, rounds, coord = {}, [], 0
    for w, m in inst.runs:
        key = w.mass.tobytes()
        if key not in built:
            try:
                law = and_factory(w, eps_round)
            except ResourceCapError:
                raise
            except Exception as exc:
                raise ProtocolError(f"AND factory failed on coordinate {coord}: {exc}") from exc
            ones = [t for t, out in enumerate(law.outputs) if out == 1]
            built[key] = (law, law.cond[ones].sum(axis=0))
        rounds.append(built[key])
        coord += m
    return rounds


@cache
def _gauss_legendre() -> tuple:
    """The 24-point Gauss–Legendre rule on [−1, 1], (nodes, weights), by
    Golub–Welsch in 0.2 ms, made on first use: a process that reaches no
    DISJ round makes no LAPACK call for it (about 0.9 MB of RSS)."""
    k = np.arange(1.0, 24.0)
    nodes, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k**2 - 1.0), -1))
    return nodes, 2.0 * vectors[0] ** 2


def _reach(inst: DisjInstance, says) -> np.ndarray:
    """Pr[the round of c runs] under the prior, summed over each run's c.

    A round runs when every round drawn before it said 0.  The rounds are
    independent, so with a_k = Pr[round k says 1] the probability is
    reach_c = E_σ Π_{k before c} (1 − a_k) = ∫₀¹ Π_{k≠c} (1 − t·a_k) dt, the
    integral summing over the position of c in σ.  The integrand,
    exp(Σ_j m_j·log1p(−t·a_j) − log1p(−t·a_c)) over the runs j, decays on
    the scale s = 1/Σ_j m_j·a_j, and 24-point Gauss–Legendre on each panel
    of [0, s/4, s, 4s, …, 1] integrates it in O(runs × panels) within 2e-15
    relative of exact arithmetic (6.3e-16 seen, iid n ≤ 10¹², mixed runs)."""
    m = np.array([count for _, count in inst.runs], dtype=float)
    a = np.array([np.sum(w.mass * o) for (w, _), o in zip(inst.runs, says)])
    edges = [0.0, 0.25 / max(float(m @ a), 0.25)]
    while edges[-1] < 1.0:
        edges.append(min(4.0 * edges[-1], 1.0))
    width, (nodes, rule) = np.diff(edges)[:, None], _gauss_legendre()
    t = (np.array(edges[:-1])[:, None] + 0.5 * width * (nodes + 1.0)).ravel()
    weights = (0.5 * width * rule).ravel()
    logs = np.log1p(-np.outer(a, t))  # (run, node)
    return m * (np.exp(m @ logs - logs) @ weights)


def _composite_law(inst: DisjInstance, laws) -> TranscriptLaw:
    """Exact law of the permuted sequential composition with early stopping."""
    size = 2**inst.n
    weight = 1.0 / math.factorial(inst.n)
    # lift each coordinate's 2x2 conditional tables to the composite rectangle
    lifted = []
    for i, law in enumerate(laws):
        bits = (np.arange(size) >> i) & 1
        lifted.append(law.cond[:, bits[:, None], bits[None, :]])
    ids_of = [tuple(law.leaf_ids) for law in laws]  # each round's ids, read once
    ids, tables, outs = [], [], []

    def extend(sigma, j, prefix_ids, table):
        coord = sigma[j]
        for t, (leaf_id, out) in enumerate(zip(ids_of[coord], laws[coord].outputs)):
            branch = table * lifted[coord][t]
            ids_here = prefix_ids + [leaf_id]
            if out == 1:
                record(sigma, ids_here, branch, 1)
            elif j + 1 == inst.n:
                record(sigma, ids_here, branch, 0)
            else:
                extend(sigma, j + 1, ids_here, branch)

    def record(sigma, round_ids, table, out):
        tag = "".join(str(c) for c in sigma)
        ids.append(f"{tag}|{';'.join(round_ids)}")
        tables.append(weight * table)
        outs.append(out)

    for sigma in permutations(range(inst.n)):
        extend(sigma, 0, [], np.ones((size, size)))
    order = sorted(range(len(ids)), key=lambda k: ids[k])
    return TranscriptLaw(
        inst.joint_prior(),
        tuple(ids[k] for k in order),
        np.stack([tables[k] for k in order]),
        tuple(outs[k] for k in order),
    )


def disj_protocol(
    inst: DisjInstance,
    epsilon: float,
    and_factory: Callable,
) -> TranscriptLaw:
    """The permuted-AND protocol at distributional error budget epsilon, as
    its exact composite TranscriptLaw (at most COMPOSITE_COORD_CAP
    coordinates).

    Each round solves one-sided AND at budget epsilon/(2 p_one), by the law
    that the required ``and_factory(prior, budget)`` returns for its
    coordinate's prior, called once per distinct prior.  When the sets
    intersect with probability below epsilon the always-0 protocol already
    meets the budget, and its one-transcript law is returned."""
    eps_round = _round_budget(inst, epsilon)
    if eps_round is None:
        prior = inst.joint_prior()
        return TranscriptLaw(prior, ("",), np.ones((1, prior.nx, prior.ny)), (0,))
    if inst.n > COMPOSITE_COORD_CAP:
        raise ResourceCapError(
            f"the composite law caps at {COMPOSITE_COORD_CAP} coordinates; "
            "audit larger instances with disj_error_audit"
        )
    rounds = _rounds(inst, eps_round, and_factory)
    return _composite_law(inst, [law for (law, _), (_, m) in zip(rounds, inst.runs)
                                 for _ in range(m)])


@dataclass(frozen=True)
class DisjAudit:
    """Error accounting of one protocol instance.

    ``per_input`` is the error table over composite inputs, the Kronecker
    product of the rounds' 2x2 silences, where it fits (4ⁿ ≤
    AUDIT_TABLE_CAP), else None; the other fields are exact at any n.
    ``expected_rounds`` averages the stopping time under the product law.
    ``mode`` always reads "exact": the CLI's stdout and the benchmark's
    digest print it."""

    distributional: float
    per_input: Optional[np.ndarray]
    eps_round: float
    expected_rounds: float
    trivial: bool
    mode: str = "exact"


def disj_error_audit(
    inst: DisjInstance,
    epsilon: float,
    and_factory: Callable,
    *,
    seed: Optional[int] = None,
    samples: Optional[int] = None,
) -> DisjAudit:
    """Exact error audit of the protocol, whose rounds ``and_factory`` builds
    as in ``disj_protocol``, at any n from the rounds' 2x2 tables alone.

    The protocol answers 0 exactly when no round says 1, whatever the
    permutation: probability Π_c (1 − o_c(x_c, y_c)).  With silent_c =
    w_c ⊙ (1 − o_c), A_c its sum, B_c that sum without cell (1, 1) and
    D_c = 1 − w_c(1, 1), intersecting inputs err with mass Π A − Π B and
    disjoint ones with Π D − Π B.  Each difference is summed over the runs
    as Σ_j (Π_{i<j} hi_i^m_i)(hi_j^m_j − lo_j^m_j)(Π_{i>j} lo_i^m_i), the
    middle factor −hi^m·expm1(−m·log1p(gap/lo)) with gap = hi − lo formed
    directly: nothing cancels, one-sided rounds leave the disjoint part
    exactly 0, and at n ≤ 10 the sum is within (2n + 6)·2⁻⁵³ relative of
    exact arithmetic on the same inputs and 1e-15 of Σ joint prior ⊙
    ``per_input``.  The always-0 protocol has every o = 0 and runs no round.

    ``seed`` and ``samples`` are read by nothing; the benchmark's
    ``disj mc n=5`` op still passes them, and they go when that op changes."""
    eps_round = _round_budget(inst, epsilon)
    trivial = eps_round is None
    if trivial:  # the always-0 protocol runs no round, so none says 1
        eps_round, says = 0.0, (np.zeros((2, 2)),) * len(inst.runs)
    else:
        _, says = zip(*_rounds(inst, eps_round, and_factory))
    # one row per run, cells (0,0), (0,1), (1,0), (1,1)
    m = np.array([[count] for _, count in inst.runs])
    w = np.stack([prior.mass for prior, _ in inst.runs]).reshape(-1, 4)
    o = np.stack(says).reshape(-1, 4)
    silent, leak = w * (1.0 - o), w * o
    b = silent[:, :3].sum(axis=1)
    hi = np.column_stack([b + silent[:, 3], 1.0 - w[:, 3]]) ** m  # A^m, D^m
    lo = np.column_stack([b, b])  # B, B
    gap = np.column_stack([silent[:, 3], leak[:, :3].sum(axis=1)])  # hi − lo
    # lo = 0 leaves hi^m whole: gap/lo reads +inf there
    ratio = np.divide(gap, lo, out=np.full_like(gap, np.inf), where=lo > 0.0)
    before = np.cumprod(np.vstack([np.ones(2), hi[:-1]]), axis=0)  # Π_{i<j} hi_i^m_i
    after = np.cumprod(np.vstack([np.ones(2), (lo**m)[:0:-1]]), axis=0)[::-1]
    per_input = None
    if inst.n <= (AUDIT_TABLE_CAP.bit_length() - 1) // 2:  # 4ⁿ ≤ the cap; 4ⁿ is never made
        silences = [1.0 - o_j for o_j, (_, count) in zip(says, inst.runs) for _ in range(count)]
        table = reduce(np.kron, silences[::-1])  # the last factor is coordinate 0, bit 0
        per_input = np.where(disj_table(inst.n) == 1, table, 1.0 - table)
    return DisjAudit(
        float(np.sum(before * -hi * np.expm1(-m * np.log1p(ratio)) * after)), per_input,
        eps_round, 0.0 if trivial else float(np.sum(_reach(inst, says))), trivial,
    )


def disj_ic_exact(
    inst: DisjInstance,
    epsilon: float,
    and_factory: Callable,
) -> float:
    """Exact internal information cost of the protocol, at any n, whose
    rounds ``and_factory`` builds as in ``disj_protocol``.

    The public permutation is independent of the inputs, and a round's
    messages depend only on its own coordinate, which the earlier rounds say
    nothing about under the product prior.  So by the chain rule
    IC = Σ_c Pr[round c runs] · IC(AND law of coordinate c), which equals
    the internal cost of ``disj_protocol``'s composite law without building
    it."""
    eps_round = _round_budget(inst, epsilon)
    if eps_round is None:
        return 0.0
    laws, says = zip(*_rounds(inst, eps_round, and_factory))
    distinct = {id(law): law for law in laws}  # runs with one prior share one law
    cost = {key: internal_ic(law) for key, law in distinct.items()}
    return math.fsum(
        float(r) * cost[id(law)] for r, law in zip(_reach(inst, says), laws)
    )


@dataclass(frozen=True)
class DisjBoundPoint:
    epsilon: float
    p_star: float
    bound: float
    gain: float


@dataclass(frozen=True)
class DisjBoundCurve:
    points: tuple
    fitted_exponent: Optional[float]

    def __iter__(self):
        return iter(self.points)


def _balance_p(epsilon: float) -> float:
    """Solve p = h̄(ε/p) by bisection; the difference is increasing in p."""
    lo, hi = epsilon, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - truncated_entropy(epsilon / mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def disj_bound_curve(epsilons) -> DisjBoundCurve:
    """The analytic per-coordinate cost bound along an epsilon grid.

    Each round either saves a whole execution (early stop, worth about p/3
    of a round) or runs a cheapened AND (worth h̄(ε/p)); the bound
    (1 − p/3 + ε/4)·(IC* − h̄(ε/p)) balances the two at p = h̄(ε/p), and the
    gap to IC* scales like √h(ε) — the log-log fit across the grid reports
    the measured exponent."""
    ic_star = ic_and_zero(HARDEST_ZERO_DIAG_PRIOR)
    points = []
    for eps in epsilons:
        if not (0.0 < eps < 0.5):
            raise PreconditionError("bound curve needs 0 < epsilon < 1/2")
        p = _balance_p(eps)
        bound = (1.0 - p / 3.0 + eps / 4.0) * (
            ic_star - truncated_entropy(eps / p)
        )
        points.append(DisjBoundPoint(eps, p, bound, ic_star - bound))
    exponent = None
    if len(points) >= 2:
        logs_h = [math.log(truncated_entropy(pt.epsilon)) for pt in points]
        logs_g = [math.log(pt.gain) for pt in points]
        exponent = float(np.polyfit(logs_h, logs_g, 1)[0])
    return DisjBoundCurve(tuple(points), exponent)
