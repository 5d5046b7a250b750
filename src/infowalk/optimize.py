"""Prior optimization and error-tradeoff experiments.

Three related questions live here.  First: over which input distribution is
the zero-error cost of AND largest?  ``maximize_ic_and`` answers by nested
grid refinement over a simplex slice, leaning on the fact that the cost is
concave in the distribution, so the refined brackets cannot strand the
optimum.  Second: how much cost does an ε error budget buy back at that
worst-case prior?  ``and_tradeoff_curve`` measures the drop obtained by the
flip transform and the price of repairing it with verification rounds.
Third: ``xor_external_experiment`` plays the same game for the external cost
of XOR on the correlated diagonal prior, where an abort coin achieves
1 − ε exactly and a floor of 1 − 3ε is conjectured tight up to the constant;
``xor_floor_search`` hammers the floor with random small protocols.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .and_protocols import (
    AND_TABLE,
    GridWalkSpec,
    buzzer_grid_tree,
    complete_to_zero_error,
    flip_transform,
    flip_tree,
    ic_and_zero,
)
from .distributions import (
    JointDistribution,
    binary_entropy,
    symmetric_decomposition,
)
from .errors import PreconditionError, ProtocolError, ResourceCapError
from .infocost import external_ic, internal_ic, law_of
from .protocol import (
    ALICE,
    BOB,
    Internal,
    Leaf,
    ProtocolTree,
    Task,
    evaluate_error_law,
    mix_with_abort,
)

FULL_SUPPORT = "full-support"
ZERO_AT_11 = "zero-at-(1,1)"

# the cells each slice leaves free; the first takes the mass the others leave
_FREE_CELLS = {FULL_SUPPORT: ((0, 0), (0, 1), (1, 0), (1, 1)),
               ZERO_AT_11: ((0, 0), (0, 1), (1, 0))}
_MASS_FLOOR = 1e-9
# ``maximize_ic_and`` visits at most this many grid points over all its levels:
# a point took 19 µs (zero at (1,1)) to 20 µs (full support) in runs of 59 and
# 775 levels, just under the cap, on a 2-core host, so about 2.5 s; the
# defaults visit 13 182 and 1 014
OPT_GRID_CAP = 2**17

XOR_TABLE = ((0, 1), (1, 0))


class RefinementStep(NamedTuple):
    level: int
    spacing: float
    value: float


@dataclass(frozen=True)
class OptResult:
    """Outcome of a prior search: where the cost peaks and how we got there.

    ``trace`` records one step per refinement level; its values are
    nondecreasing because every level's grid contains the previous winner.
    """

    argmax: JointDistribution
    value: float
    constraint: str
    trace: tuple

    def __post_init__(self):
        object.__setattr__(self, "trace", tuple(self.trace))
        if self.trace and abs(self.value - self.trace[-1].value) > 1e-12:
            raise ProtocolError("optimizer value disagrees with its own trace")


def maximize_ic_and(constraint=ZERO_AT_11, levels: int = 6, divisions: int = 12):
    """Maximize the zero-error cost of AND over priors in a simplex slice.

    Nested grid refinement: evaluate ``ic_and_zero`` on a regular grid over
    the free masses, recentre on the best point, shrink the box by a factor
    of 4, repeat.  Concavity of the cost in the prior keeps the true optimum
    inside every shrunken bracket (the box always spans more than one old
    grid step around the winner).

    ``constraint`` names the slice: ``ZERO_AT_11`` (no mass on (1,1)) or
    ``FULL_SUPPORT``; any other value is refused.  A search of more than
    ``OPT_GRID_CAP`` grid points, levels × (divisions + 1)^(free cells − 1),
    raises ``ResourceCapError`` before the first evaluation.
    """
    if levels < 1:
        raise PreconditionError(f"levels = {levels!r} must be at least 1")
    if divisions < 4 or divisions % 2:
        raise PreconditionError("divisions must be an even integer >= 4")
    if not isinstance(constraint, str) or constraint not in _FREE_CELLS:
        raise PreconditionError(
            f"unknown constraint {constraint!r}; expected {ZERO_AT_11!r} or {FULL_SUPPORT!r}"
        )
    free = _FREE_CELLS[constraint]
    anchor, params = free[0], free[1:]
    if levels * (divisions + 1) ** len(params) > OPT_GRID_CAP:
        raise ResourceCapError(
            f"{levels} levels of {divisions + 1}^{len(params)} grid points pass the "
            f"optimizer's cap of {OPT_GRID_CAP} evaluations"
        )

    def measure_at(point):
        rest = 1.0 - math.fsum(point)
        if rest < _MASS_FLOOR or min(point) < _MASS_FLOOR:
            return None
        mass = np.zeros((2, 2))
        mass[anchor] = rest
        for cell, value in zip(params, point):
            mass[cell] = value
        return JointDistribution.from_mass(mass)

    center = np.full(len(params), 1.0 / len(free))
    half = 0.5
    best_point, best_mu, best_value = None, None, -math.inf
    trace = []
    for level in range(levels):
        axes = [np.linspace(c - half, c + half, divisions + 1) for c in center]
        for point in itertools.product(*axes):
            mu = measure_at(point)
            if mu is None:
                continue
            value = ic_and_zero(mu)
            if value > best_value:
                best_point, best_mu, best_value = np.array(point), mu, value
        if best_point is None:
            raise PreconditionError(
                f"no feasible prior inside the {constraint} slice at level {level}"
            )
        trace.append(RefinementStep(level, 2.0 * half / divisions, best_value))
        center = best_point
        half /= 4.0
    return OptResult(best_mu, float(best_value), constraint, tuple(trace))


class TradeoffPoint(NamedTuple):
    epsilon: float
    flip_cost: float
    completed_cost: float
    gain: float
    gain_per_h: float


def and_tradeoff_curve(
    eps_list, constraint=ZERO_AT_11, n: int = 1024, levels: int = 6
):
    """Error-vs-cost curve for AND at the constraint's worst-case prior.

    For each ε: flip Alice's input 1 to 0 with probability ε inside the
    optimal zero-error walk, yielding ``flip_cost`` = internal cost of the
    perturbed protocol; ``gain`` is the drop below the closed-form optimum;
    ``completed_cost`` prices the flipped tree after verification rounds
    restore zero error on the prior's support.  ``gain_per_h`` rescales the
    gain by the binary entropy of ε, the natural unit for this tradeoff.
    """
    eps_list = tuple(float(e) for e in eps_list)
    for eps in eps_list:
        if not 0.0 < eps <= 0.2:
            raise PreconditionError(f"epsilon = {eps!r} outside (0, 0.2]")
    opt = maximize_ic_and(constraint, levels=levels)
    mu = opt.argmax
    dec = symmetric_decomposition(mu)
    spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, n)
    tree = buzzer_grid_tree(spec)
    base = law_of(tree, mu)
    points = []
    for eps in eps_list:
        flip_cost = internal_ic(flip_transform(base, 0, 1, eps))
        completed = complete_to_zero_error(flip_tree(tree, 0, 1, eps), AND_TABLE, mu)
        completed_cost = internal_ic(law_of(completed, mu))
        gain = opt.value - flip_cost
        points.append(
            TradeoffPoint(eps, flip_cost, completed_cost, gain, gain / binary_entropy(eps))
        )
    return tuple(points)


class XorPoint(NamedTuple):
    epsilon: float
    external_cost: float
    floor: float


def xor_diag_prior() -> JointDistribution:
    """The correlated prior: equal mass on (0,0) and (1,1), none off-diagonal."""
    return JointDistribution.from_mass([[0.5, 0.0], [0.0, 0.5]])


def _exchange_tree() -> ProtocolTree:
    reveal_y = lambda x: Internal(BOB, (0.0, 1.0), Leaf(x ^ 0), Leaf(x ^ 1))
    root = Internal(ALICE, (0.0, 1.0), reveal_y(0), reveal_y(1))
    return ProtocolTree(2, 2, (0, 1), root)


def xor_external_experiment(eps_list):
    """External cost achievable for XOR with error ε on the diagonal prior.

    The protocol flips a public coin: with probability ε both players stop and
    output 0 (wrong only off the diagonal, where the prior has no mass and the
    pointwise error is exactly ε); otherwise they exchange inputs.  The abort
    branch is input-independent, so the external cost lands on 1 − ε exactly.
    Each row also carries the 1 − 3ε floor that any ε-error protocol must
    respect; the construction sits above it for every ε ≥ 0.
    """
    prior = xor_diag_prior()
    base = law_of(_exchange_tree(), prior)
    points = []
    for eps in eps_list:
        eps = float(eps)
        if not 0.0 <= eps <= 0.5:
            raise PreconditionError(f"epsilon = {eps!r} outside [0, 0.5]")
        cost = external_ic(mix_with_abort(base, eps, abort_output=0))
        floor = 1.0 - 3.0 * eps
        if cost < floor - 1e-9:
            raise ProtocolError(
                f"constructed external cost {cost} fell below the floor {floor}"
            )
        points.append(XorPoint(eps, float(cost), floor))
    return tuple(points)


class XorSearchResult(NamedTuple):
    epsilon: float
    floor: float
    sampled: int
    valid: int
    min_external: float


def xor_floor_search(
    epsilon: float, samples: int = 500, seed: Optional[int] = None
) -> XorSearchResult:
    """Sampled falsification attempt against the 1 − 3ε external floor.

    Draws random protocol trees of depth at most 3 whose signal probabilities
    are dyadic (k/16), keeps those whose pointwise error on XOR is at most ε,
    and reports the smallest external cost seen (inf when nothing qualifies).
    Half the draws are uniform over the space; the other half perturb the
    deterministic exchange skeleton, since uniform draws almost never land
    inside the ε-error set and would leave the search vacuous.  A result
    below the floor would refute it; none has been observed.
    """
    if not 0.0 <= epsilon <= 0.5:
        raise PreconditionError(f"epsilon = {epsilon!r} outside [0, 0.5]")
    if samples < 1:
        raise PreconditionError(f"samples = {samples!r} must be positive")
    if seed is None:
        raise PreconditionError("the sampled search needs an explicit seed")
    rng = np.random.default_rng(seed)
    prior = xor_diag_prior()
    task = Task(XOR_TABLE, epsilon, "pointwise", measure=prior)
    valid = 0
    min_external = math.inf
    for _ in range(samples):
        if rng.random() < 0.5:
            tree = _random_dyadic_tree(rng)
        else:
            tree = _perturbed_exchange_tree(rng)
        law = law_of(tree, prior)
        if evaluate_error_law(law, task).max_pointwise > epsilon + 1e-12:
            continue
        valid += 1
        min_external = min(min_external, external_ic(law))
    return XorSearchResult(
        float(epsilon), 1.0 - 3.0 * epsilon, samples, valid, min_external
    )


def _random_dyadic_tree(rng, max_depth: int = 3) -> ProtocolTree:
    def node(depth):
        if depth >= max_depth or (depth > 0 and rng.random() < 0.3):
            return Leaf(int(rng.integers(0, 2)))
        owner = ALICE if rng.random() < 0.5 else BOB
        probs = tuple(float(k) / 16.0 for k in rng.integers(0, 17, size=2))
        return Internal(owner, probs, node(depth + 1), node(depth + 1))

    return ProtocolTree(2, 2, (0, 1), node(0))


def _perturbed_exchange_tree(rng) -> ProtocolTree:
    """Exchange skeleton with dyadic noise: each reveal misfires with
    probability 0 or 1/16 per input, and each leaf lies with probability 1/16."""

    def noisy(side):
        slip = float(rng.integers(0, 2)) / 16.0
        return slip if side == 0 else 1.0 - slip

    def leaf(x, y):
        answer = x ^ y if rng.random() < 15.0 / 16.0 else 1 - (x ^ y)
        return Leaf(answer)

    def reveal_y(x):
        return Internal(BOB, (noisy(0), noisy(1)), leaf(x, 0), leaf(x, 1))

    root = Internal(ALICE, (noisy(0), noisy(1)), reveal_y(0), reveal_y(1))
    return ProtocolTree(2, 2, (0, 1), root)
