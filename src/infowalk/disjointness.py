"""Set intersection detection from one-sided AND blocks.

DISJ over n coordinates outputs 1 iff some coordinate has both bits set.
The protocol draws a public random permutation, runs a one-sided AND
subprotocol per coordinate in that order, and stops at the first 1.  Because
the subprotocols never answer 1 falsely, disjoint inputs never err, and an
input with t intersecting coordinates errs exactly when all t of its AND
rounds err — probability (per-round error)^t.

Input laws are product-across-coordinates, so earlier rounds never move the
posterior of a later coordinate and each round's prior is just its
coordinate's marginal law.  The exact cost and error audit therefore factor
over the n per-coordinate AND laws: a coordinate's round runs with the
probability that every round drawn before it said 0, and pays its AND cost
when it does.  The composite law over all 4ⁿ inputs (``disj_protocol``)
stays the definition they are checked against.  Composite inputs
are encoded as integers whose bit i is coordinate i; intersection is then
literally ``x & y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Optional

import numpy as np

from .and_protocols import ic_and_zero
from .distributions import JointDistribution, truncated_entropy
from .errors import PreconditionError, ProtocolError, ResourceCapError
from .infocost import TranscriptLaw, internal_ic

EXACT_COORD_CAP = 4
# The Monte-Carlo audit walks its runs in batches of at most this many
# (run, coordinate) draws.  A batch peaks at about 40 bytes a draw (10.6 MB,
# measured with tracemalloc).
MC_CHUNK_DRAWS = 2**18
# The Monte-Carlo audit makes 4ⁿ · samples · n draws, at about 45 ns each,
# and keeps a few 4ⁿ-cell tables.  At n = 10 with 3 samples (31.5M draws)
# `disj --and-grid 8` takes 1.8 s at 77 MB peak RSS on a 2-core host; n = 11
# needs 46M draws even at one sample, so the cap also bounds the tables.
MC_DRAW_CAP = 2**25

# the zero-diagonal prior at which the zero-error cost of AND peaks; its
# closed-form cost anchors the analytic bound curve
HARDEST_ZERO_DIAG_PRIOR = JointDistribution.from_mass(
    [[0.3653203272016804, 0.31733983639915976], [0.31733983639915976, 0.0]]
)


@dataclass(frozen=True)
class DisjInstance:
    """A product-form input law: one independent 2x2 prior per coordinate."""

    coord_priors: tuple
    n: int = field(init=False)
    p_one: float = field(init=False)  # probability that the sets intersect

    def __post_init__(self):
        if not self.coord_priors:
            raise PreconditionError("need at least one coordinate prior")
        for w in self.coord_priors:
            if (w.nx, w.ny) != (2, 2):
                raise PreconditionError("coordinate priors must be 2x2")
        object.__setattr__(self, "n", len(self.coord_priors))
        object.__setattr__(self, "p_one", 1.0 - math.prod(
            1.0 - float(w.mass[1, 1]) for w in self.coord_priors
        ))

    @classmethod
    def from_priors(cls, coord_priors) -> "DisjInstance":
        return cls(tuple(coord_priors))

    @classmethod
    def iid(cls, w: JointDistribution, n: int) -> "DisjInstance":
        return cls.from_priors((w,) * n)

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


def _coordinate_laws(inst: DisjInstance, eps_round: float, and_factory):
    """The AND law of every coordinate, built once per distinct prior."""
    built = {}
    laws = []
    for i, w in enumerate(inst.coord_priors):
        key = w.mass.tobytes()
        if key not in built:
            try:
                built[key] = and_factory(w, eps_round)
            except Exception as exc:
                raise ProtocolError(
                    f"AND factory failed on coordinate {i}: {exc}"
                ) from exc
        laws.append(built[key])
    return laws


def _says_one(law: TranscriptLaw) -> np.ndarray:
    """Pr[the round answers 1 | a, b] as a 2x2 table."""
    ones = [t for t, out in enumerate(law.outputs) if out == 1]
    return law.cond[ones].sum(axis=0)


def _reach(inst: DisjInstance, laws) -> np.ndarray:
    """Pr[the round of coordinate c runs], for every c, under the prior.

    A round runs when every round drawn before it said 0.  The rounds are
    independent, so with miss_k = Pr[round k says 0] the probability is
    reach_c = E_σ Π_{k before c} miss_k = ∫₀¹ Π_{k≠c} (1 − t(1 − miss_k)) dt,
    the integral summing over the position of c in σ.  The integrand is a
    polynomial of degree n − 1, which ⌊n/2⌋ + 1 Gauss–Legendre nodes
    integrate exactly; prefix and suffix products over k make all n values
    O(n²)."""
    miss = np.array([
        float(np.sum(w.mass * (1.0 - _says_one(law))))
        for w, law in zip(inst.coord_priors, laws)
    ])
    nodes, weights = np.polynomial.legendre.leggauss(inst.n // 2 + 1)
    t = 0.5 * (nodes + 1.0)
    factors = 1.0 - np.outer(1.0 - miss, t)  # (coordinate, node)
    ones = np.ones((1, t.size))
    before = np.cumprod(np.vstack([ones, factors[:-1]]), axis=0)
    after = np.cumprod(np.vstack([ones, factors[:0:-1]]), axis=0)[::-1]
    return (before * after) @ (0.5 * weights)


def _composite_law(inst: DisjInstance, laws) -> TranscriptLaw:
    """Exact law of the permuted sequential composition with early stopping."""
    size = 2**inst.n
    weight = 1.0 / math.factorial(inst.n)
    # lift each coordinate's 2x2 conditional tables to the composite rectangle
    lifted = []
    for i, law in enumerate(laws):
        bits = (np.arange(size) >> i) & 1
        lifted.append(law.cond[:, bits[:, None], bits[None, :]])
    ids, tables, outs = [], [], []

    def extend(sigma, j, prefix_ids, table):
        coord = sigma[j]
        law = laws[coord]
        for t, out in enumerate(law.outputs):
            branch = table * lifted[coord][t]
            ids_here = prefix_ids + [law.leaf_ids[t]]
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


def _sample_runs(rng, says: np.ndarray, x: np.ndarray, y: np.ndarray):
    """One run of the protocol on each composite input (x[i], y[i]).

    ``says`` stacks the n tables o_c = Pr[round c says 1 | a, b].  A run
    draws, per coordinate, a key and a uniform u from one (runs, 2, n) array,
    so that splitting the runs into batches leaves the random stream
    unchanged.  The rounds run in the order of the keys (their argsort is a
    uniform permutation), and round c says 1 when u < o_c(x_c, y_c); a
    round's transcript matters only through that.  The first round to say 1
    is the one with the smallest key among those saying 1, and its position
    is 1 + the number of smaller keys.  Returns (output, rounds), with n
    rounds when none says 1."""
    n = len(says)
    coords = np.arange(n)
    hit_p = says[coords, (x[:, None] >> coords) & 1, (y[:, None] >> coords) & 1]
    draw = rng.random((x.size, 2, n))
    keys = draw[:, 0]
    hit = draw[:, 1] < hit_p
    first = np.where(hit, keys, np.inf).min(axis=1)
    output = hit.any(axis=1)
    rounds = np.where(output, 1 + np.sum(keys < first[:, None], axis=1), n)
    return output, rounds


def disj_protocol(
    inst: DisjInstance,
    epsilon: float,
    and_factory: Callable,
) -> TranscriptLaw:
    """The permuted-AND protocol at distributional error budget epsilon, as
    its exact composite TranscriptLaw (at most EXACT_COORD_CAP coordinates).

    Each round solves one-sided AND at budget epsilon/(2 p_one), by the law
    that the required ``and_factory(prior, budget)`` returns for its
    coordinate's prior, called once per distinct prior.  When the sets
    intersect with probability below epsilon the always-0 protocol already
    meets the budget, and its one-transcript law is returned."""
    eps_round = _round_budget(inst, epsilon)
    if eps_round is None:
        prior = inst.joint_prior()
        return TranscriptLaw(prior, ("",), np.ones((1, prior.nx, prior.ny)), (0,))
    if inst.n > EXACT_COORD_CAP:
        raise ResourceCapError(
            f"exact mode caps at {EXACT_COORD_CAP} coordinates; audit larger "
            "instances with disj_error_audit(mode='mc')"
        )
    return _composite_law(inst, _coordinate_laws(inst, eps_round, and_factory))


@dataclass(frozen=True)
class DisjAudit:
    """Error accounting of one protocol instance.

    ``per_input`` is the full error table over composite inputs;
    ``expected_rounds`` averages the stopping time under the product law."""

    distributional: float
    per_input: np.ndarray
    eps_round: float
    expected_rounds: float
    trivial: bool
    mode: str


def disj_error_audit(
    inst: DisjInstance,
    epsilon: float,
    and_factory: Callable,
    seed: Optional[int] = None,
    samples: int = 400,
    mode: Optional[str] = None,
) -> DisjAudit:
    """Exact or Monte-Carlo error table of the protocol, whose rounds
    ``and_factory`` builds as in ``disj_protocol``.

    ``mode`` is "exact" (at most EXACT_COORD_CAP coordinates) or "mc" (needs
    a seed, and at most MC_DRAW_CAP draws of 4ⁿ · samples · n, checked
    before any table is built); by default it is exact whenever n allows.

    The exact table comes from the coordinate laws alone.  Whatever the
    permutation, the protocol answers 0 exactly when no round says 1, which
    has probability Π_c (1 − o_c(x_c, y_c)) with o_c = Pr[round c says 1];
    the table over composite inputs is the Kronecker product of these 2x2
    factors, so a disjoint input (every o_c exactly 0 for one-sided rounds)
    has error exactly 0.  The expected rounds are Σ_c Pr[round c runs].  When
    the always-0 protocol meets the budget, both modes report its exact
    error: 1 on every intersecting input, and no rounds.

    The Monte-Carlo table runs the protocol ``samples`` times on every
    composite input through ``_sample_runs``; it too reads exactly 0 on
    disjoint inputs of one-sided rounds."""
    eps_round = _round_budget(inst, epsilon)
    mode = mode or ("exact" if inst.n <= EXACT_COORD_CAP else "mc")
    if mode not in ("exact", "mc"):
        raise PreconditionError(f"audit mode must be 'exact' or 'mc', not {mode!r}")
    if mode == "exact" and inst.n > EXACT_COORD_CAP:
        raise ResourceCapError(
            f"exact audit supports n <= {EXACT_COORD_CAP} coordinates, got {inst.n}"
        )
    if mode == "mc":
        if seed is None:
            raise PreconditionError("Monte-Carlo audit needs a seed")
        if samples < 1:
            raise PreconditionError(f"samples = {samples!r}; need at least 1")
        draws = 4**inst.n * samples * inst.n
        if draws > MC_DRAW_CAP:
            raise ResourceCapError(
                f"Monte-Carlo audit of n = {inst.n} with {samples} samples per "
                f"input needs {draws} draws, over the cap of {MC_DRAW_CAP}"
            )
    prior = inst.joint_prior()
    if eps_round is None:
        err = disj_table(inst.n).astype(float)
        return DisjAudit(
            float(np.sum(prior.mass * err)), err, 0.0, 0.0, True, mode
        )
    laws = _coordinate_laws(inst, eps_round, and_factory)
    if mode == "exact":
        silent = np.ones((1, 1))
        for law in reversed(laws):  # the last factor is coordinate 0, bit 0
            silent = np.kron(silent, 1.0 - _says_one(law))
        err = np.where(disj_table(inst.n) == 1, silent, 1.0 - silent)
        rounds = float(np.sum(_reach(inst, laws)))
    else:
        err, rounds = _mc_tables(inst.n, laws, prior.mass, seed, samples)
    return DisjAudit(
        distributional=float(np.sum(prior.mass * err)),
        per_input=err,
        eps_round=eps_round,
        expected_rounds=rounds,
        trivial=False,
        mode=mode,
    )


def _mc_tables(n: int, laws, mass: np.ndarray, seed: int, samples: int):
    """Monte-Carlo error table and expected rounds: ``samples`` runs per
    composite input, input-major, in batches of at most MC_CHUNK_DRAWS
    (run, coordinate) draws.  Counts are kept per input as exact integers,
    so the result depends on the seed alone, not on the batch size."""
    says = np.stack([_says_one(law) for law in laws])
    runs = mass.size * samples
    wrong = np.zeros(mass.size)
    rounds = np.zeros(mass.size)
    rng = np.random.default_rng(seed)
    step = max(1, MC_CHUNK_DRAWS // n)
    for start in range(0, runs, step):
        cell = np.arange(start, min(start + step, runs)) // samples
        x, y = cell >> n, cell & (2**n - 1)
        output, ran = _sample_runs(rng, says, x, y)
        seen = slice(cell[0], cell[-1] + 1)
        wrong[seen] += np.bincount(cell - cell[0], weights=output != ((x & y) != 0))
        rounds[seen] += np.bincount(cell - cell[0], weights=ran)
    err = (wrong / samples).reshape(mass.shape)
    return err, float(np.sum(mass.reshape(-1) * rounds)) / samples


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
    laws = _coordinate_laws(inst, eps_round, and_factory)
    distinct = {id(law): law for law in laws}  # coordinates with one prior share one law
    cost = {key: internal_ic(law) for key, law in distinct.items()}
    return math.fsum(
        float(r) * cost[id(law)] for r, law in zip(_reach(inst, laws), laws)
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
