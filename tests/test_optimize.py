import math
import tracemalloc

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
    optimize,
)
from infowalk.and_protocols import _ic_and_zero_screen
from infowalk.cli import _CONSTRAINTS
from infowalk.disjointness import DisjInstance, disj_error_audit, disj_ic_exact, disj_protocol
from infowalk.optimize import (
    FULL_SUPPORT,
    SCREEN_K,
    ZERO_AT_11,
    _fsum_rows,
    and_tradeoff_curve,
    maximize_ic_and,
    xor_diag_prior,
    xor_external_experiment,
    xor_floor_search,
)
from infowalk.protocol import ALICE, BOB, Internal, Leaf, ProtocolTree

from helpers import maximize_ic_and_reference, random_prior, xor_floor_search_reference

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


def bits(opt):
    """An ``OptResult`` as float hex: value, argmax row by row, and trace."""
    return (opt.value.hex(), [float(v).hex() for v in opt.argmax.mass.flat],
            [(s.level, s.spacing.hex(), s.value.hex()) for s in opt.trace])


@pytest.mark.parametrize("constraint", [FULL_SUPPORT, ZERO_AT_11])
@pytest.mark.parametrize("levels, divisions", [(1, 4), (3, 4), (6, 12), (8, 20)])
def test_screened_search_matches_the_point_by_point_oracle(monkeypatch, constraint, levels,
                                                           divisions):
    calls = []
    monkeypatch.setattr(optimize, "ic_and_zero", lambda mu: calls.append(mu) or ic_and_zero(mu))
    opt = maximize_ic_and(constraint, levels, divisions)
    assert bits(opt) == bits(maximize_ic_and_reference(constraint, levels, divisions))
    assert len(calls) <= 3 * levels  # the screen leaves one or two points a level


@pytest.mark.parametrize("constraint", [FULL_SUPPORT, ZERO_AT_11])
def test_levels_past_the_floats_resolution_match_the_oracle_unscreened(monkeypatch,
                                                                      constraint):
    # from about level 27 every axis's linspace is its centre: such a level
    # changes nothing, so it only appends its step, screening no grid
    screens = []
    monkeypatch.setattr(optimize, "_ic_and_zero_screen",
                        lambda *m: screens.append(m) or _ic_and_zero_screen(*m))
    opt = maximize_ic_and(constraint, 40, 12)
    assert bits(opt) == bits(maximize_ic_and_reference(constraint, 40, 12))
    assert 20 < len(screens) < 30


@pytest.mark.parametrize("constraint, floor", [(ZERO_AT_11, 0.33), (FULL_SUPPORT, 0.1)])
def test_screened_search_matches_the_oracle_where_the_mass_floor_binds(monkeypatch,
                                                                       constraint, floor):
    # a raised floor cuts through the optimum, so the last levels straddle it
    monkeypatch.setattr(optimize, "_MASS_FLOOR", floor)
    opt = maximize_ic_and(constraint, 8, 12)
    assert bits(opt) == bits(maximize_ic_and_reference(constraint, 8, 12))
    assert min(opt.argmax.mass.flat[:3]) < floor + 1e-5
    monkeypatch.setattr(optimize, "_MASS_FLOOR", 0.3)  # and no feasible point at all
    with pytest.raises(PreconditionError, match="no feasible prior .* at level 0"):
        maximize_ic_and(FULL_SUPPORT, 2, 4)
    with pytest.raises(PreconditionError, match="no feasible prior .* at level 0"):
        maximize_ic_and_reference(FULL_SUPPORT, 2, 4)


@pytest.mark.parametrize("cells", [2, 3])
def test_grid_rows_sum_as_math_fsum_sums_them(cells):
    # the screen prices the masses the scalar code would: 1 − fsum(point)
    rng = np.random.default_rng(cells)
    for level in range(12):
        half = 0.5 / 4.0**level
        axes = [np.linspace(c - half, c + half, 13) for c in rng.uniform(0.0, 0.5, cells)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, cells)
        assert _fsum_rows(grid).tolist() == [math.fsum(row) for row in grid.tolist()]


def screen_priors(count):
    """Dirichlet priors, zero-at-(1,1) priors, and priors with one of w(0,0),
    w(0,1), w(1,0) between 1e-3 and the optimizer's mass floor (the next
    cell takes up the rest), each kind in turn, as rows of four masses."""
    rng = np.random.default_rng(29)
    rows = []
    for i in range(count):
        kind = i % 3
        m = rng.dirichlet(np.ones(4))
        if kind == 1:
            m = np.append(rng.dirichlet(np.ones(3)), 0.0)
        elif kind == 2:
            cell = rng.integers(3)
            m[cell] = 10.0 ** rng.uniform(math.log10(optimize._MASS_FLOOR), -3.0)
            m[cell + 1] += 1.0 - m.sum()
        rows.append(m)
    return np.array(rows)


def test_screen_stays_within_its_margin_of_the_scalar_cost():
    """|screen − ic_and_zero| ≤ K·2⁻⁵³·S with K = ``SCREEN_K`` = 64; the worst
    ratio |screen − ic_and_zero| / (2⁻⁵³·S) on these 3 000 priors is 1.28."""
    masses = screen_priors(3000)
    screen, scale = _ic_and_zero_screen(*masses.T)
    exact = np.array([ic_and_zero(JointDistribution.from_mass(m.reshape(2, 2)))
                      for m in masses])
    ratio = np.abs(screen - exact) / (2.0**-53 * scale)
    assert 0.5 < ratio.max() <= SCREEN_K / 8  # the scale is not loose, and K leaves room
    assert (screen != exact).sum() > 300  # the two paths really differ


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


def test_constraint_validation():
    # every slice the CLI offers is one the optimizer takes
    for constraint in _CONSTRAINTS.values():
        assert maximize_ic_and(constraint, levels=1, divisions=4).constraint == constraint
    named = "unknown constraint .*; expected 'zero-at-\\(1,1\\)' or 'full-support'"
    for other in ("everywhere", [(2, 0)], [(1, 1)], ((0, 1), (1, 0)),
                  ((0, 0),), ((0, 1),), ((1, 0),)):
        with pytest.raises(PreconditionError, match=named):
            maximize_ic_and(other)
    # the DISJ functions have no default AND protocol
    inst = DisjInstance.iid(JointDistribution.uniform(2, 2), 2)
    for call in (disj_protocol, disj_error_audit, disj_ic_exact):
        with pytest.raises(TypeError):
            call(inst, 0.1)
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


def assert_search_is_the_oracles(eps, samples, seed):
    got, want = xor_floor_search(eps, samples, seed), xor_floor_search_reference(eps, samples, seed)
    for name in optimize.XorSearchResult._fields:
        assert getattr(got, name) == getattr(want, name), (name, eps, samples, seed)


# ε from 0 to the largest allowed, a single draw, and runs past one chunk
XOR_SEARCH_CASES = [(eps, samples, seed) for seed, (eps, samples) in enumerate(
    (eps, samples) for eps in (0.0, 0.03, 0.0625, 0.1, 0.15, 0.25, 0.5)
    for samples in (1, 17, 120, 300))]


@pytest.mark.parametrize("eps, samples, seed", XOR_SEARCH_CASES)
def test_xor_floor_search_matches_the_tree_by_tree_oracle(eps, samples, seed):
    assert_search_is_the_oracles(eps, samples, seed)


@pytest.mark.parametrize("chunk", [1, 2, 7, 128])
def test_xor_floor_search_is_the_oracles_in_any_chunk(monkeypatch, chunk):
    monkeypatch.setattr(optimize, "_SEARCH_CHUNK_TREES", chunk)
    for eps, samples, seed in ((0.1, 150, 3), (0.0, 20, 4), (0.5, 65, 5), (0.2, 1, 6)):
        assert_search_is_the_oracles(eps, samples, seed)


def test_xor_floor_search_memory_does_not_grow_with_samples():
    # Python 3.11, numpy 2.4, once warm: 0.20–0.33 MB at 2 000 draws and
    # 0.21–0.30 MB at 20 000 (ratios 0.9–1.03); in one chunk, 5.2 and 51 MB
    xor_floor_search(0.1, samples=10, seed=0)  # first-use caches outlive it
    peaks = []
    for samples in (2_000, 20_000):
        tracemalloc.start()
        try:
            xor_floor_search(0.1, samples=samples, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]
