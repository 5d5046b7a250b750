"""Prior optimization and error-tradeoff experiments.

Three related questions live here.  First: over which input distribution is
the zero-error cost of AND largest?  ``maximize_ic_and`` answers by nested
grid refinement over a simplex slice, leaning on the fact that the cost is
concave in the distribution, so the refined brackets cannot strand the
optimum; a numpy screen of each level leaves the scalar ``ic_and_zero`` only
the points that could lead it.  Second: how much cost does an ε error budget
buy back at that worst-case prior?  ``and_tradeoff_curve`` measures the drop
obtained by the flip transform and the price of repairing it with
verification rounds.
Third: ``xor_external_experiment`` plays the same game for the external cost
of XOR on the correlated diagonal prior, where an abort coin achieves
1 − ε exactly and a floor of 1 − 3ε is conjectured tight up to the constant;
``xor_floor_search`` hammers the floor with random small protocols, priced
a chunk at a time as one forest.
"""

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
    _ic_and_zero_screen,
)
from .distributions import JointDistribution, _symmetric_reference, binary_entropy
from .errors import PreconditionError, ProtocolError, ResourceCapError
from .infocost import TranscriptLaw, _check_cond, _law_sums, external_ic, internal_ic, law_of
from .protocol import (
    ALICE,
    BOB,
    Internal,
    Leaf,
    LeafIds,
    Node,
    Outputs,
    ProtocolTree,
    _flatten,
    _forest,
    mix_with_abort,
)

FULL_SUPPORT = "full-support"
ZERO_AT_11 = "zero-at-(1,1)"

# the cells each slice leaves free; the first takes the mass the others leave
_FREE_CELLS = {FULL_SUPPORT: ((0, 0), (0, 1), (1, 0), (1, 1)),
               ZERO_AT_11: ((0, 0), (0, 1), (1, 0))}
_MASS_FLOOR = 1e-9
SCREEN_K = 64  # |screen − ic_and_zero| ≤ K·2⁻⁵³·S; seeded priors reach 1.6·2⁻⁵³·S
# ``maximize_ic_and`` screens at most this many grid points over all its levels:
# on a 2-core host, one level of 117 649 or 130 321 points takes about 30 ms
# and 9 or 22 MB, and 59 or 775 levels just under the cap 1.1 or 0.5 s (past
# the floats' resolution, points tie); the defaults screen 13 182 and 1 014
OPT_GRID_CAP = 2**17

XOR_TABLE = ((0, 1), (1, 0))
# ``xor_floor_search`` prices this many draws at a time: tracemalloc peaks at
# 0.2–0.35 MB for 2 000 draws and for 20 000 (5.2 and 51 MB in one chunk),
# and 500 draws take 4% longer than in chunks of 128, which hold more RSS
_SEARCH_CHUNK_TREES = 64


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

    Each level is screened in one numpy pass, within ``SCREEN_K``·2⁻⁵³·S
    of ``ic_and_zero`` (S each point's scale).  Only the points whose screen
    plus margin reaches the best screen minus margin and the best value so
    far, one or two a level, are priced by ``ic_and_zero``, in grid order,
    so the result is the point-by-point search's, bit for bit.

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
    params = free[1:]
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
        for cell, value in zip(free, (rest, *point)):
            mass[cell] = value
        return JointDistribution.from_mass(mass)

    center = np.full(len(params), 1.0 / len(free))
    half = 0.5
    best_point, best_mu, best_value = None, None, -math.inf
    trace = []
    for level in range(levels):
        axes = [np.linspace(c - half, c + half, divisions + 1) for c in center]
        if best_point is not None and all((axis == c).all() for axis, c in zip(axes, center)):
            # past the floats' resolution: every point is the centre, priced already
            trace.append(RefinementStep(level, 2.0 * half / divisions, best_value))
            half /= 4.0
            continue
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(params))
        rest = 1.0 - _fsum_rows(grid)
        room = np.minimum(rest, grid.min(axis=1))
        live = np.flatnonzero(room >= _MASS_FLOOR)
        cells = dict(zip(free, (rest[live], *grid[live].T)))
        masses = [cells.get(cell, 0.0) for cell in _FREE_CELLS[FULL_SUPPORT]]  # row by row
        screen, scale = _ic_and_zero_screen(*masses)
        margin = SCREEN_K * 2.0**-53 * scale
        # a NaN, where the scalar code may refuse, is priced too; a point equal
        # to an earlier one cannot win, so tied points are priced once
        floor = np.max(screen - margin, initial=best_value)
        leaders = grid[live[~(screen + margin < floor)]].tolist()
        for point in dict.fromkeys(map(tuple, leaders)):
            mu = measure_at(point)
            if mu is None:
                continue
            value = ic_and_zero(mu)
            if value > best_value:
                best_point, best_mu, best_value = point, mu, value
        if best_point is None:
            raise PreconditionError(
                f"no feasible prior inside the {constraint} slice at level {level}"
            )
        trace.append(RefinementStep(level, 2.0 * half / divisions, best_value))
        center = best_point
        half /= 4.0
    return OptResult(best_mu, float(best_value), constraint, tuple(trace))


def _fsum_rows(grid):
    """Each row's ``math.fsum`` by two-sums, their errors added last: exact
    for two columns, and equal for three on every grid point tested."""
    total, carry = grid[:, 0], 0.0
    for column in grid.T[1:]:
        new = total + column
        back = new - total
        total, carry = new, carry + ((total - (new - back)) + (column - back))
    return total + carry


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
    # the walk starts at mu's symmetric decomposition's pretend (1/2, q)
    spec, _ = GridWalkSpec.from_start(0.5, _symmetric_reference(mu)[1], n)
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
    below the floor would refute it; none has been observed.  The draws are
    priced a chunk at a time as one forest (``protocol._forest``), bit for
    bit as tree by tree; only those within ε get a law and ``external_ic``.
    """
    if not 0.0 <= epsilon <= 0.5:
        raise PreconditionError(f"epsilon = {epsilon!r} outside [0, 0.5]")
    if samples < 1:
        raise PreconditionError(f"samples = {samples!r} must be positive")
    if seed is None:
        raise PreconditionError("the sampled search needs an explicit seed")
    rng = np.random.default_rng(seed)
    prior = xor_diag_prior()
    wrong = np.array([np.not_equal(XOR_TABLE, out) for out in (0, 1)])  # by leaf output
    valid = 0
    min_external = math.inf
    for done in range(0, samples, _SEARCH_CHUNK_TREES):
        layouts = []
        for _ in range(min(_SEARCH_CHUNK_TREES, samples - done)):
            draw = _random_dyadic_tree if rng.random() < 0.5 else _perturbed_exchange_tree
            layouts.append(_flatten(draw(rng), 2, 2, (0, 1)))
        factors, outputs, tree_of = _forest(layouts, 2, 2)
        cond = factors[:, :2, None] * factors[:, None, 2:]  # as ``law_of``
        _check_cond(cond, prior.mass > 0.0, tree_of)
        err = _law_sums(cond * wrong[outputs], tree_of)  # as ``evaluate_error_law``
        bounds = np.searchsorted(tree_of, np.arange(len(layouts) + 1))
        for k in (~(err.max(axis=(1, 2)) > epsilon + 1e-12)).nonzero()[0]:
            lo, hi = bounds[k:k + 2].tolist()
            owner, _, child1 = layouts[k][:3]
            law = TranscriptLaw(prior, LeafIds(hi - lo, np.asarray(owner), child1),
                                cond[lo:hi], Outputs((0, 1), outputs[lo:hi]))
            valid += 1
            min_external = min(min_external, external_ic(law))
    return XorSearchResult(
        float(epsilon), 1.0 - 3.0 * epsilon, samples, valid, min_external
    )


def _random_dyadic_tree(rng, depth: int = 0) -> Node:
    # recursive at module level: a nested function that calls itself is a
    # reference cycle, which each draw would leave to the cyclic collector
    if depth >= 3 or (depth > 0 and rng.random() < 0.3):
        return Leaf(int(rng.integers(0, 2)))
    owner = ALICE if rng.random() < 0.5 else BOB
    probs = tuple(float(k) / 16.0 for k in rng.integers(0, 17, size=2))
    return Internal(owner, probs, _random_dyadic_tree(rng, depth + 1),
                    _random_dyadic_tree(rng, depth + 1))


def _perturbed_exchange_tree(rng) -> Internal:
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

    return Internal(ALICE, (noisy(0), noisy(1)), reveal_y(0), reveal_y(1))
