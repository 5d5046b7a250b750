import math

import numpy as np
import pytest

from infowalk import (
    JointDistribution,
    PreconditionError,
    Task,
    binary_entropy,
    evaluate_error_law,
    ic_and_zero,
    law_of,
    mix_with_abort,
)
from infowalk.optimize import (
    FULL_SUPPORT,
    ZERO_AT_11,
    and_tradeoff_curve,
    maximize_ic_and,
    xor_diag_prior,
    xor_external_experiment,
    xor_floor_search,
)
from infowalk.protocol import ALICE, BOB, Internal, Leaf, ProtocolTree

from helpers import random_prior

IC_STAR = 0.4827018481689195
IC_FULL = 1.4922794227754252  # measured; agrees with the published ≈1.4923


# ---------------------------------------------------------------------------
# maximize_ic_and
# ---------------------------------------------------------------------------

def test_zero_diagonal_maximum():
    opt = maximize_ic_and(ZERO_AT_11)
    assert opt.constraint == ZERO_AT_11
    assert opt.value == pytest.approx(0.4827, abs=5e-3)
    assert opt.value == pytest.approx(IC_STAR, abs=1e-6)
    assert opt.argmax.mass[1, 1] == 0.0
    assert abs(opt.value - ic_and_zero(opt.argmax)) <= 1e-9


def test_full_support_maximum():
    opt = maximize_ic_and(FULL_SUPPORT)
    assert opt.value == pytest.approx(IC_FULL, abs=1e-4)
    assert np.all(opt.argmax.mass > 0.0)
    assert abs(opt.value - ic_and_zero(opt.argmax)) <= 1e-9


# (value, argmax.mass row by row, trace values) by float.hex, so that a faster
# optimizer or cost layer must keep every bit
OPT_PINS = {
    ZERO_AT_11: (
        "0x1.ee49643d97382p-2",
        ["0x1.7615555555554p-2", "0x1.44eaaaaaaaaabp-2", "0x1.4500000000000p-2", "0x0.0p+0"],
        ["0x1.ec709dc3a0400p-2", "0x1.ee1fd0e74b1a2p-2", "0x1.ee49268937e3ep-2",
         "0x1.ee49268937e3ep-2", "0x1.ee4963da45a04p-2", "0x1.ee49643d97382p-2"],
    ),
    FULL_SUPPORT: (
        "0x1.7e06063550700p+0",
        ["0x1.4b55555555558p-4", "0x1.0ec0000000000p-2", "0x1.0ec0000000000p-2",
         "0x1.8faaaaaaaaaaap-2"],
        ["0x1.7d17932681508p+0", "0x1.7dcdbc36e2e02p+0", "0x1.7e01b1f438161p+0",
         "0x1.7e0600d46dc0bp+0", "0x1.7e0602f9597f5p+0", "0x1.7e06063550700p+0"],
    ),
}


@pytest.mark.parametrize("constraint", OPT_PINS)
def test_optimizer_results_are_pinned_bit_for_bit(constraint):
    opt = maximize_ic_and(constraint)
    assert (opt.value.hex(), [float(v).hex() for v in opt.argmax.mass.flat],
            [step.value.hex() for step in opt.trace]) == OPT_PINS[constraint]


@pytest.mark.parametrize("levels", [3, 6])
def test_full_support_dominates_zero_diagonal(levels):
    full = maximize_ic_and(FULL_SUPPORT, levels=levels)
    zero = maximize_ic_and(ZERO_AT_11, levels=levels)
    assert full.value >= zero.value - 1e-9


def test_refinement_trace_monotone_and_shrinking():
    opt = maximize_ic_and(ZERO_AT_11, levels=6)
    assert len(opt.trace) == 6
    values = [step.value for step in opt.trace]
    assert values == sorted(values)
    spacings = [step.spacing for step in opt.trace]
    for a, b in zip(spacings, spacings[1:]):
        assert b == pytest.approx(a / 4.0, rel=1e-12)
    # The gap to the final value shrinks geometrically; a single level may
    # plateau, so compare two levels apart.
    gaps = [opt.value - v for v in values]
    for a, b in zip(gaps, gaps[2:]):
        assert b <= a / 4.0 + 1e-15
    assert gaps[0] > 1e-4  # the coarse grid genuinely starts away from the top


def test_optimizer_is_deterministic():
    first = maximize_ic_and(ZERO_AT_11)
    second = maximize_ic_and(ZERO_AT_11)
    assert first.value == second.value
    assert np.array_equal(first.argmax.mass, second.argmax.mass)


@pytest.mark.parametrize(
    "zeroed",
    [
        ((1, 1), (0, 1)),  # one column: AND constant there
        ((0, 1), (1, 0)),  # diagonal support: output determined by the block
        ((0, 0), (1, 1)),  # anti-diagonal: AND constant 0
    ],
)
def test_degenerate_two_point_slices_are_trivial(zeroed):
    opt = maximize_ic_and(zeroed)
    assert opt.value == 0.0
    assert opt.trace == ()
    for cell in zeroed:
        assert opt.argmax.mass[cell] == 0.0
    assert opt.argmax.mass.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("zeroed", [((0, 0),), ((0, 1),), ((1, 0),)])
def test_nontrivial_slice_without_closed_form_is_rejected(zeroed):
    with pytest.raises(PreconditionError):
        maximize_ic_and(zeroed)


def test_constraint_validation():
    with pytest.raises(PreconditionError):
        maximize_ic_and("everywhere")
    with pytest.raises(PreconditionError):
        maximize_ic_and([(2, 0)])
    with pytest.raises(PreconditionError):
        maximize_ic_and(ZERO_AT_11, levels=0)
    with pytest.raises(PreconditionError):
        maximize_ic_and(ZERO_AT_11, divisions=7)


def test_cost_is_continuous_in_the_prior():
    rng = np.random.default_rng(11)
    for _ in range(50):
        mu = random_prior(rng, 2, 2)
        bump = rng.normal(size=(2, 2))
        bump -= bump.mean()
        scale = 0.25 * mu.mass.min() / max(np.abs(bump).max(), 1e-12)
        other = JointDistribution.from_mass(mu.mass + scale * bump)
        delta = 0.5 * np.abs(mu.mass - other.mass).sum()
        assert delta < 0.25
        gap = abs(ic_and_zero(mu) - ic_and_zero(other))
        assert gap <= 2.0 * math.log2(4) * delta + 2.0 * binary_entropy(2.0 * delta)


# ---------------------------------------------------------------------------
# and_tradeoff_curve
# ---------------------------------------------------------------------------

def test_tradeoff_curve_at_zero_diagonal():
    eps = (1e-4, 1e-3, 1e-2, 5e-2, 0.2)
    curve = and_tradeoff_curve(eps)
    assert tuple(p.epsilon for p in curve) == eps
    opt = maximize_ic_and(ZERO_AT_11)
    m = opt.argmax.mass
    tau = m[0, 0] ** 2 * min(m[0, 1], m[1, 0]) / 128.0
    gains = [p.gain for p in curve]
    assert gains == sorted(gains)
    for p in curve:
        assert p.gain == pytest.approx(opt.value - p.flip_cost, abs=1e-12)
        assert p.completed_cost >= p.flip_cost - 1e-12
        assert 0.1 <= p.gain_per_h <= 0.2
        if p.epsilon <= 1e-2:
            assert p.gain >= tau * binary_entropy(p.epsilon)


def test_tradeoff_frozen_values():
    (point,) = and_tradeoff_curve((1e-2,))
    assert point.flip_cost == pytest.approx(0.4702698649133184, abs=1e-9)
    assert point.gain == pytest.approx(0.012431976688242197, abs=1e-9)


def test_tradeoff_gain_vanishes_with_epsilon():
    curve = and_tradeoff_curve((1e-5, 1e-4, 1e-3), n=256)
    gains = [p.gain for p in curve]
    assert gains == sorted(gains)
    assert gains[0] < 1e-3


def test_tradeoff_epsilon_domain():
    with pytest.raises(PreconditionError):
        and_tradeoff_curve((0.0,))
    with pytest.raises(PreconditionError):
        and_tradeoff_curve((0.25,))
    assert and_tradeoff_curve(()) == ()


# ---------------------------------------------------------------------------
# XOR external-cost experiment
# ---------------------------------------------------------------------------

def test_xor_experiment_is_exact():
    rows = xor_external_experiment((0.0, 0.1, 1.0 / 3.0, 0.5))
    for row in rows:
        assert row.external_cost == pytest.approx(1.0 - row.epsilon, abs=1e-12)
        assert row.floor == pytest.approx(1.0 - 3.0 * row.epsilon, abs=1e-15)
        assert row.external_cost >= row.floor - 1e-12
    assert rows[0].external_cost == pytest.approx(1.0, abs=1e-12)
    assert rows[2].external_cost == pytest.approx(2.0 / 3.0, abs=1e-12)
    with pytest.raises(PreconditionError):
        xor_external_experiment((0.6,))


def test_xor_abort_error_profile():
    # The abort mixture errs exactly ε, and only where XOR is 1.
    reveal_y = lambda x: Internal(BOB, (0.0, 1.0), Leaf(x ^ 0), Leaf(x ^ 1))
    tree = ProtocolTree(
        2, 2, (0, 1), Internal(ALICE, (0.0, 1.0), reveal_y(0), reveal_y(1))
    )
    prior = xor_diag_prior()
    mixed = mix_with_abort(law_of(tree, prior), 0.125, abort_output=0)
    task = Task(((0, 1), (1, 0)), 0.125, "pointwise", measure=prior)
    report = evaluate_error_law(mixed, task)
    assert report.max_pointwise == pytest.approx(0.125, abs=1e-12)
    assert report.distributional == pytest.approx(0.0, abs=1e-12)


def test_xor_floor_search_never_beats_floor():
    for eps in (0.05, 0.15, 0.25):
        result = xor_floor_search(eps, samples=500, seed=0)
        assert result.sampled == 500
        assert result.valid > 0
        assert result.min_external >= result.floor - 1e-9


def test_xor_floor_search_contract():
    again = xor_floor_search(0.15, samples=500, seed=0)
    assert again == xor_floor_search(0.15, samples=500, seed=0)
    assert xor_floor_search(0.15, samples=40, seed=5).sampled == 40
    with pytest.raises(PreconditionError):
        xor_floor_search(0.15, samples=500)
    with pytest.raises(PreconditionError):
        xor_floor_search(0.7, samples=10, seed=0)
    with pytest.raises(PreconditionError):
        xor_floor_search(0.15, samples=0, seed=0)
