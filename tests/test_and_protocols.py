import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infowalk.and_protocols import (
    AND_TABLE,
    BuzzerLeafLaw,
    GridWalkSpec,
    buzzer_grid_tree,
    buzzer_leaf_law,
    complete_to_zero_error,
    flip_transform,
    flip_tree,
    grid_law_kolmogorov,
    grid_leaf_law,
    ic_and_zero,
    one_sided_and,
    potential_of_tree,
    potential_phi_closed,
    sim_and_zero,
    sim_and_zero_d2p,
)
from infowalk import distributions, optimize
from infowalk.distributions import (
    SNAP_EPS,
    Decomposition,
    EntropyProfile,
    JointDistribution,
    ProductDistribution,
    binary_entropy,
    symmetric_decomposition,
)
from infowalk.errors import PreconditionError, ProtocolError, ResourceCapError
from infowalk.infocost import TranscriptLaw, internal_ic, law_of, sim
from infowalk.protocol import (
    ALICE,
    BOB,
    Internal,
    Leaf,
    ProtocolTree,
    Task,
    evaluate_error,
    tree_to_json,
    walk,
)

from helpers import (
    grid_leaf_id,
    ic_and_zero_reference,
    leaf_law_density,
    maximize_ic_and_reference,
    pretend_prob,
    random_prior,
    random_tree,
    root_of,
)

W_STAR = JointDistribution.from_mass(
    [[0.3653203272016804, 0.31733983639915976], [0.31733983639915976, 0.0]]
)
IC_STAR = 0.4827018481689195


def sym_dec(x, y, p=0.5, q=0.5):
    z = 1.0 - x - 2.0 * y
    nu = JointDistribution.from_mass([[x, y], [y, z]])
    return Decomposition(nu, ProductDistribution(p, q))


# ---------------------------------------------------------------------------
# continuous leaf law
# ---------------------------------------------------------------------------

def test_leaf_law_half_quarter():
    law = buzzer_leaf_law(0.5, 0.25)
    assert law.atom_axis_point == (0.5, 0.0)
    assert law.atom_axis_mass == pytest.approx(0.5, abs=1e-15)
    assert law.density_mass() == pytest.approx(0.375, abs=1e-15)
    assert law.atom_11_mass == pytest.approx(0.125, abs=1e-15)
    assert law.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_leaf_law_cdf():
    law = buzzer_leaf_law(0.5, 0.25)
    assert law.cdf(0.4) == 0.0
    assert law.cdf(0.5) == pytest.approx(0.5)
    # 1/2 + pq(1/hi^2 - 1/t^2) at t = 3/4
    assert law.cdf(0.75) == pytest.approx(0.5 + 0.125 * (4 - 16 / 9), rel=1e-12)
    assert law.cdf(1.0) == pytest.approx(1.0, abs=1e-12)
    assert law.cdf(2.0) == pytest.approx(1.0, abs=1e-12)


def test_leaf_law_density_support():
    law = buzzer_leaf_law(0.3, 0.6)
    assert law.hi == 0.6
    assert law.atom_axis_point == (0.0, 0.6)  # smaller player is Alice here
    assert leaf_law_density(law, 0.5) == 0.0
    assert leaf_law_density(law, 0.7) == pytest.approx(0.18 / 0.7**3, rel=1e-12)
    assert leaf_law_density(law, 1.0) == 0.0


def test_leaf_law_player_symmetry():
    a = buzzer_leaf_law(0.3, 0.7)
    b = buzzer_leaf_law(0.7, 0.3)
    assert a.atom_axis_mass == b.atom_axis_mass
    assert a.atom_11_mass == b.atom_11_mass
    assert a.atom_axis_point == tuple(reversed(b.atom_axis_point))


@given(
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
    st.floats(0.0, 1.2),
    st.floats(0.0, 1.2),
)
def test_leaf_law_cdf_monotone(p, q, s, t):
    law = buzzer_leaf_law(p, q)
    lo, hi = sorted((s, t))
    assert law.cdf(lo) <= law.cdf(hi) + 1e-12
    assert law.cdf(1.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p,q", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
def test_leaf_law_rejects_boundary_start(p, q):
    with pytest.raises(PreconditionError):
        buzzer_leaf_law(p, q)


# ---------------------------------------------------------------------------
# grid walk
# ---------------------------------------------------------------------------

def test_spec_snapping():
    spec, dist = GridWalkSpec.from_start(0.5, 0.25, 8)
    assert (spec.a, spec.b) == (4, 2)
    assert dist == 0.0
    spec, dist = GridWalkSpec.from_start(0.33, 0.2, 10)
    assert (spec.a, spec.b) == (3, 2)
    assert dist == pytest.approx(0.03)
    assert spec.start.p == pytest.approx(0.3)


@pytest.mark.parametrize("p, q, n, a, b", [
    (0.5, 0.98, 16, 8, 15), (0.02, 0.5, 16, 1, 8), (0.99, 0.01, 16, 15, 1), (0.4, 0.7, 2, 1, 1),
    (0.0, 0.5, 16, 0, 8), (1.0, 0.25, 16, 16, 4), (1.0, 1.0, 16, 16, 16),
])
def test_interior_starts_snap_to_interior_points(p, q, n, a, b):
    # within 1/(2n) of an edge the nearest lattice point is on it; an
    # interior start snaps to 1..n-1 instead, and reports the true distance
    spec, snap = GridWalkSpec.from_start(p, q, n)
    assert (spec.a, spec.b) == (a, b)
    assert snap == max(abs(a / n - p), abs(b / n - q))
    if 0.0 < p < 1.0 and 0.0 < q < 1.0:
        assert evaluate_error(buzzer_grid_tree(spec), Task(AND_TABLE, 0.0)).max_pointwise == 0.0


@pytest.mark.parametrize("a, b", [(8, 16), (0, 8), (16, 4), (8, 0)])
def test_grid_trees_from_edge_starts_err_off_the_edge(a, b):
    report = evaluate_error(buzzer_grid_tree(GridWalkSpec(16, a, b)), Task(AND_TABLE, 0.0))
    assert report.max_pointwise == 1.0


def test_one_sided_and_near_an_edge_of_the_pretend_square():
    # this prior's pretend q sits within 1/32 of 1, which snapped onto the
    # edge at grid 16 and failed the one-sided check
    w = JointDistribution.from_mass([[0.6053, 0.3475], [0.0058, 0.0414]])
    law = one_sided_and(0.1, w, n=16)
    assert internal_ic(law) > 0.0


def test_spec_rejects_off_lattice():
    with pytest.raises(PreconditionError):
        GridWalkSpec(8, -1, 3)
    with pytest.raises(PreconditionError):
        GridWalkSpec(8, 3, 9)
    with pytest.raises(PreconditionError):
        GridWalkSpec(1, 0, 0)


@pytest.mark.parametrize("p, q", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5),
                                  (0.5, -math.inf), (1.5, 0.5)])
def test_spec_rejects_starts_outside_the_square(p, q):
    with pytest.raises(PreconditionError):
        GridWalkSpec.from_start(p, q, 64)


def test_grid_leaf_law_hand_enumeration():
    # from (2/4, 1/4): Bob runs [0,3], then Alice [0,3], Bob [0,4], Alice [0,4]
    leaves = grid_leaf_law(GridWalkSpec(4, 2, 1))
    got = [(grid_leaf_id(gl), gl.ell, gl.axis, gl.pretend_mass) for gl in leaves]
    assert got[0] == ("0", 0.5, "x", pytest.approx(2 / 3))
    assert got[1] == ("10", 0.75, "y", pytest.approx(1 / 9))
    assert got[2] == ("110", 0.75, "x", pytest.approx(1 / 18))
    assert got[3] == ("1110", 1.0, "y", pytest.approx(1 / 24))
    assert got[4] == ("1111", 1.0, "one", pytest.approx(1 / 8))


def test_grid_leaf_law_normalizes_and_hits_corner_exactly():
    spec, _ = GridWalkSpec.from_start(0.5, 0.4, 1024)
    leaves = grid_leaf_law(spec)
    assert math.fsum(gl.pretend_mass for gl in leaves) == pytest.approx(1.0, abs=1e-12)
    corner = leaves[-1]
    assert corner.axis == "one"
    assert corner.pretend_mass == pytest.approx(
        spec.a * spec.b / spec.n**2, rel=1e-12
    )


def test_grid_leaf_law_absorbing_starts():
    (only,) = grid_leaf_law(GridWalkSpec(8, 0, 5))
    assert (only.ell, only.axis, only.pretend_mass) == (5 / 8, "y", 1.0)
    (only,) = grid_leaf_law(GridWalkSpec(8, 8, 8))
    assert (only.ell, only.axis, only.pretend_mass) == (1.0, "one", 1.0)


def test_kolmogorov_sequence():
    continuous = buzzer_leaf_law(0.5, 0.25)
    frozen = {
        64: 0.015151515151515138,  # 1/(n + 2) up to rounding
        128: 0.007692307692307665,
        256: 0.003875968992248069,
        512: 0.0019455252918287869,
        1024: 0.0009746588693957392,
    }
    prev = None
    for n, expect in frozen.items():
        spec, snap = GridWalkSpec.from_start(0.5, 0.25, n)
        assert snap == 0.0
        k = grid_law_kolmogorov(spec, continuous)
        assert k == pytest.approx(expect, abs=1e-12)
        if prev is not None:
            assert 0.4 < k / prev < 0.6  # halves as the grid doubles
        prev = k


def test_buzzer_tree_zero_error_and_depth():
    spec = GridWalkSpec(64, 32, 16)
    tree = buzzer_grid_tree(spec)
    report = evaluate_error(tree, Task(AND_TABLE, 0.0))
    assert report.max_pointwise == 0.0
    assert tree.depth() == 64  # one phase per unit of headroom on each side


def test_buzzer_tree_absorbing_starts():
    assert isinstance(root_of(buzzer_grid_tree(GridWalkSpec(8, 3, 0))), Leaf)
    assert root_of(buzzer_grid_tree(GridWalkSpec(8, 3, 0))).output == 0
    assert root_of(buzzer_grid_tree(GridWalkSpec(8, 8, 8))).output == 1


def test_buzzer_tree_real_transitions_are_pretend_converted():
    # the real-world step probabilities of the caterpillar must equal the
    # pretend gambler's-ruin exit probabilities converted through the
    # reference measure
    w = JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
    spec, _ = GridWalkSpec.from_start(0.5, 0.4, 8)
    # the real prior must compose the reference with the snapped start
    dec = Decomposition(symmetric_decomposition(w).reference, spec.start)
    tree = buzzer_grid_tree(spec, dec)
    leaves = {wl.leaf_id: wl.prob for wl in walk(tree, dec.compose())}

    pretend_leaves = grid_leaf_law(spec)
    nu = dec.reference
    n = spec.n
    # reconstruct each phase's start from the leaf sequence
    a, b = spec.a, spec.b
    prefix_real = 1.0
    for gl in pretend_leaves[:-1]:
        if a >= b:
            high = min(a + 1, n)
            mover, parent = b, ProductDistribution(a / n, b / n)
            up = ProductDistribution(a / n, high / n)
            down = ProductDistribution(a / n, 0.0)
        else:
            high = b
            mover, parent = a, ProductDistribution(a / n, b / n)
            up = ProductDistribution(high / n, b / n)
            down = ProductDistribution(0.0, b / n)
        lam_up = mover / high
        # real = pretend converted: swap the parent/child arguments
        real_down = pretend_prob(
            1.0 - lam_up, Decomposition(nu, down), Decomposition(nu, parent)
        )
        got = leaves[grid_leaf_id(gl)] / prefix_real
        assert got == pytest.approx(real_down, rel=1e-12)
        prefix_real *= pretend_prob(
            lam_up, Decomposition(nu, up), Decomposition(nu, parent)
        )
        if a >= b:
            b = high
        else:
            a = high


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_sim_spot_values():
    # frozen against direct numeric integration of the leaf-law cost
    cases = [
        (0.3, 0.6, 0.35, 0.15, 0.1695278852517015),
        (0.5, 0.9499, 0.1, 0.25, 0.017691335638957632),
        (0.2, 0.8, 0.3, 0.2, 0.15071686533179784),
        (0.5, 0.25, 0.4, 0.2, 0.22998528041707947),
    ]
    for p, q, x, y, expect in cases:
        assert sim_and_zero(p, q, sym_dec(x, y)) == pytest.approx(expect, abs=1e-12)


def test_sim_player_symmetry_is_exact():
    dec = sym_dec(0.35, 0.15)
    assert sim_and_zero(0.3, 0.6, dec) == sim_and_zero(0.6, 0.3, dec)


def test_sim_small_q_limit():
    # as q -> 0 the buzzer degenerates to the start's own concealed cost
    p, x, y = 0.4, 0.3, 0.2
    dec = sym_dec(x, y)
    a = (1 - p) * x + p * y
    expect = -(1 - p) * x * math.log2((1 - p) * x / a) - p * y * math.log2(
        p * y / a
    )
    assert sim_and_zero(p, 1e-9, dec) == pytest.approx(expect, abs=1e-6)


def test_sim_matches_grid_walk_cost():
    dec = symmetric_decomposition(JointDistribution.uniform(2, 2))
    closed = sim_and_zero(0.5, 0.5, dec)
    gaps = []
    for n in (128, 512):
        spec, _ = GridWalkSpec.from_start(0.5, 0.5, n)
        law = law_of(buzzer_grid_tree(spec, dec), dec.compose())
        gaps.append(abs(sim(law, dec) - closed))
    assert gaps[0] < 1e-2
    assert gaps[1] < gaps[0]  # refining the grid tightens the match
    assert gaps[1] < 1e-5


def test_sim_rejects_degenerate_inputs():
    dec = sym_dec(0.35, 0.15)
    with pytest.raises(PreconditionError):
        sim_and_zero(0.0, 0.5, dec)
    with pytest.raises(PreconditionError):
        sim_and_zero(0.5, 1.0, dec)
    zero_x = Decomposition(
        JointDistribution.from_mass([[0.0, 0.5], [0.5, 0.0]]),
        ProductDistribution(0.5, 0.5),
    )
    with pytest.raises(PreconditionError):
        sim_and_zero(0.5, 0.25, zero_x)


def test_sim_curvature_in_p_matches_finite_differences():
    dec = sym_dec(0.35, 0.15)
    p, q, h = 0.55, 0.3, 1e-4
    fd = (
        sim_and_zero(p + h, q, dec)
        - 2 * sim_and_zero(p, q, dec)
        + sim_and_zero(p - h, q, dec)
    ) / h**2
    assert sim_and_zero_d2p(p, q, dec) == pytest.approx(fd, rel=1e-6)


def test_sim_is_linear_in_q():
    dec = sym_dec(0.3, 0.2)
    p, h = 0.6, 1e-3
    for q in (0.1, 0.3, 0.55):
        fd = (
            sim_and_zero(p, q + h, dec)
            - 2 * sim_and_zero(p, q, dec)
            + sim_and_zero(p, q - h, dec)
        ) / h**2
        assert abs(fd) < 1e-7


def test_ic_and_zero_at_the_maximizer():
    assert ic_and_zero(W_STAR) == pytest.approx(IC_STAR, abs=1e-12)


def test_ic_and_zero_matches_grid_protocol():
    w = JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
    dec = symmetric_decomposition(w)
    spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, 1024)
    grid_ic = internal_ic(law_of(buzzer_grid_tree(spec, dec), w))
    assert grid_ic == pytest.approx(ic_and_zero(w), abs=1e-5)


def test_ic_and_zero_requires_off_diagonal_support():
    from infowalk.errors import DecompositionError

    w = JointDistribution.from_mass([[0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(DecompositionError):
        ic_and_zero(w)


def optimizer_grid_priors():
    """Every feasible prior of ``maximize_ic_and``'s two default grids, as its
    point-by-point oracle visits them."""
    seen = []

    def record(mu):
        seen.append(mu)
        return ic_and_zero(mu)

    for constraint in (optimize.FULL_SUPPORT, optimize.ZERO_AT_11):
        maximize_ic_and_reference(constraint, 6, 12, ic=record)
    return seen


def seeded_priors(count):
    """Full-support and zero-at-(1,1) Dirichlet priors, and priors with one
    cell from 1e-6 down to below ``SNAP_EPS`` (the cell after it takes up the
    rest), each kind in turn."""
    rng = np.random.default_rng(25)
    priors = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            m = rng.dirichlet(np.ones(4))
        elif kind == 1:
            m = np.append(rng.dirichlet(np.ones(3)), 0.0)
        else:
            m = rng.dirichlet(np.full(4, 1.0 if kind == 2 else 0.3))
            cell = rng.integers(4)
            m[cell] = 10.0 ** rng.uniform(-16.5, -6.0)
            m[(cell + 1) % 4] += 1.0 - m.sum()
        priors.append(JointDistribution.from_mass(m.reshape(2, 2)))
    return priors


def outcome(ic, w):
    """``ic(w)`` as its float's hex, or as its error's class and message."""
    try:
        return ic(w).hex()
    except Exception as exc:  # the refusals are compared, not raised
        return type(exc), str(exc)


def test_ic_and_zero_equals_its_object_route_bit_for_bit():
    priors = optimizer_grid_priors() + seeded_priors(2400)
    assert len(priors) > 11_000
    got = [outcome(ic_and_zero, w) for w in priors]
    assert got == [outcome(ic_and_zero_reference, w) for w in priors]
    refused = [o for o in got if isinstance(o, tuple)]
    assert len(refused) > 100  # a cell under SNAP_EPS snaps to 0
    assert any("reference entry" in message for _, message in refused)


@pytest.mark.parametrize("mass, message", [
    (np.full((3, 3), 1 / 9), "needs a 2x2 prior"),
    (np.full((2, 3), 1 / 6), "needs a 2x2 prior"),
    ([[0.0, 0.5], [0.25, 0.25]], "w(0,0), w(0,1), w(1,0) must be positive"),
    ([[0.5, 0.0], [0.25, 0.25]], "w(0,0), w(0,1), w(1,0) must be positive"),
    ([[0.5, 0.5], [0.0, 0.0]], "w(0,0), w(0,1), w(1,0) must be positive"),
    ([[SNAP_EPS / 2, 0.5], [0.5, 0.0]], "w(0,0), w(0,1), w(1,0) must be positive"),
    ([[1.2e-15, 0.3], [0.5, 0.2 - 1.2e-15]], "x = ν(0,0) must be positive"),
])
def test_ic_and_zero_refuses_what_its_object_route_refuses(mass, message):
    w = JointDistribution.from_mass(mass)
    got = outcome(ic_and_zero, w)
    assert got == outcome(ic_and_zero_reference, w)
    assert message in got[1]


def test_ic_and_zero_builds_no_decomposition_or_entropy_profile(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a decomposition object")

    monkeypatch.setattr(Decomposition, "__post_init__", refuse)
    monkeypatch.setattr(EntropyProfile, "__init__", refuse)
    with pytest.raises(AssertionError):  # the guards hold
        symmetric_decomposition(W_STAR)
    assert ic_and_zero(W_STAR) == pytest.approx(IC_STAR, abs=1e-12)
    for mass in ([[0.4, 0.2], [0.3, 0.1]], [[0.25, 0.25], [0.25, 0.25]]):
        ic_and_zero(JointDistribution.from_mass(mass))
    opt = optimize.maximize_ic_and(optimize.ZERO_AT_11, levels=2)
    assert opt.value > 0.48


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def test_potential_vanishes_past_threshold():
    assert potential_phi_closed(0.3, 0.35, 0.2) == 0.0
    assert potential_phi_closed(0.3, 0.2, 0.3) == 0.0
    assert potential_phi_closed(0.35000001, 0.35, 0.2) < 1e-13


def test_potential_matches_direct_integration():
    from scipy.integrate import quad

    c, p, q = 0.8, 0.35, 0.2
    law = buzzer_leaf_law(p, q)
    atom = law.atom_axis_mass * (c - law.hi) ** 2
    rays, _ = quad(lambda t: 2 * leaf_law_density(law, t) * (c - t) ** 2, law.hi, c)
    assert potential_phi_closed(c, p, q) == pytest.approx(atom + rays, rel=1e-9)


def test_potential_curvature():
    c, p, q, h = 0.8, 0.55, 0.3, 1e-4
    fd = (
        potential_phi_closed(c, p + h, q)
        - 2 * potential_phi_closed(c, p, q)
        + potential_phi_closed(c, p - h, q)
    ) / h**2
    assert fd == pytest.approx(2 * (1 - q / p), rel=1e-5)


def test_potential_of_tree_converges_to_closed_form():
    w = JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
    dec = symmetric_decomposition(w)
    closed = potential_phi_closed(0.7, 0.5, 0.4)
    gaps = []
    for n in (128, 1024):
        spec, _ = GridWalkSpec.from_start(0.5, 0.4, n)
        gaps.append(abs(potential_of_tree(buzzer_grid_tree(spec, dec), 0.7, dec) - closed))
    assert gaps[0] < 5e-3
    assert gaps[1] < gaps[0]


# ---------------------------------------------------------------------------
# flip
# ---------------------------------------------------------------------------

def test_flip_transform_rows():
    rng = np.random.default_rng(7)
    tree = random_tree(rng, 2, 3, depth=4)
    law = law_of(tree, random_prior(rng, 2, 3))
    eps = 0.2
    flipped = flip_transform(law, 0, 1, eps)
    assert np.allclose(flipped.cond[:, 0, :], law.cond[:, 0, :])
    assert np.allclose(
        flipped.cond[:, 1, :],
        eps * law.cond[:, 0, :] + (1 - eps) * law.cond[:, 1, :],
    )
    full = flip_transform(law, 0, 1, 1.0)
    assert np.allclose(full.cond[:, 1, :], law.cond[:, 0, :])


# (x0, x1, epsilon) on a 2x2 rectangle; a negative row must not alias one
# counted from the end
BAD_FLIPS = [(1, 1, 0.1), (0, 1, 1.5), (0, 5, 0.1), (1, -1, 0.1), (0, -1, 0.1)]


def test_flip_transform_rejects_bad_arguments():
    rng = np.random.default_rng(7)
    law = law_of(random_tree(rng, 2, 2, depth=3), random_prior(rng, 2, 2))
    for x0, x1, eps in BAD_FLIPS:
        with pytest.raises(PreconditionError):
            flip_transform(law, x0, x1, eps)


def test_flip_tree_rejects_bad_arguments():
    tree = random_tree(np.random.default_rng(7), 2, 2, depth=3)
    for x0, x1, eps in BAD_FLIPS + [(1, -1, 0.0)]:
        with pytest.raises(PreconditionError):
            flip_tree(tree, x0, x1, eps)


def test_flip_tree_reproduces_flip_transform():
    rng = np.random.default_rng(11)
    for _ in range(20):
        nx, ny = rng.choice([2, 3]), rng.choice([2, 3])
        tree = random_tree(rng, int(nx), int(ny), depth=5)
        prior = random_prior(rng, int(nx), int(ny))
        x0, x1 = rng.choice(nx, size=2, replace=False)
        eps = float(rng.uniform(0.01, 0.6))
        a = law_of(flip_tree(tree, int(x0), int(x1), eps), prior)
        b = flip_transform(law_of(tree, prior), int(x0), int(x1), eps)
        assert a.leaf_ids == b.leaf_ids
        assert np.max(np.abs(a.cond - b.cond)) < 1e-12


def test_flip_tree_expands_shared_nodes():
    rng = np.random.default_rng(29)
    for _ in range(5):
        tree = random_tree(rng, 3, 3, depth=4)
        prior = random_prior(rng, 3, 3)
        completed = complete_to_zero_error(tree, rng.integers(0, 3, size=(3, 3)), prior)
        law = law_of(completed, prior)
        # verification rounds share the node a failed test falls back to
        assert len(json.loads(tree_to_json(completed))["nodes"]) < 2 * len(law.outputs) - 1
        a = law_of(flip_tree(completed, 2, 0, 0.1), prior)
        b = flip_transform(law, 2, 0, 0.1)
        assert a.leaf_ids == b.leaf_ids
        assert np.max(np.abs(a.cond - b.cond)) < 1e-12


def test_flip_tree_stable_on_deep_caterpillar():
    dec = symmetric_decomposition(W_STAR)
    spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, 256)
    tree = buzzer_grid_tree(spec, dec)
    a = law_of(flip_tree(tree, 0, 1, 0.03), W_STAR)
    b = flip_transform(law_of(tree, W_STAR), 0, 1, 0.03)
    assert np.max(np.abs(a.cond - b.cond)) < 1e-12


@pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
def test_flip_tree_survives_log_weight_gaps_past_exp_overflow(eps):
    # down the all-1 path x0's log-weight falls by 460.5 a node and x1's stays
    # 0, so by the third node the gap is past 709, where exp overflows
    node = Leaf(1)
    for _ in range(4):
        node = Internal(ALICE, (1e-200, 1.0), Leaf(0), node)
    tree, prior = ProtocolTree(2, 2, (0, 1), node), JointDistribution.uniform(2, 2)
    a = law_of(flip_tree(tree, 0, 1, eps), prior)
    b = flip_transform(law_of(tree, prior), 0, 1, eps)
    assert a.leaf_ids == b.leaf_ids
    assert np.max(np.abs(a.cond - b.cond)) <= 1e-12


def test_flip_tree_identity_at_zero():
    rng = np.random.default_rng(3)
    tree = random_tree(rng, 2, 2, depth=3)
    assert flip_tree(tree, 0, 1, 0.0) is tree


def test_flip_gain_exceeds_floor():
    dec = symmetric_decomposition(W_STAR)
    spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, 1024)
    base = law_of(buzzer_grid_tree(spec, dec), W_STAR)
    ic0 = internal_ic(base)
    m = W_STAR.mass
    tau = m[0, 0] ** 2 / 128 * min(m[0, 1], m[1, 0])
    for eps in (1e-4, 1e-3, 1e-2, 5e-2):
        gain = ic0 - internal_ic(flip_transform(base, 0, 1, eps))
        assert gain >= tau * binary_entropy(eps)
    frozen_gain = ic0 - internal_ic(flip_transform(base, 0, 1, 1e-2))
    assert frozen_gain == pytest.approx(0.012431663114716, abs=1e-9)


# ---------------------------------------------------------------------------
# one-sided AND and zero-error completion
# ---------------------------------------------------------------------------

def test_one_sided_and_error_profile():
    w = JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
    law = one_sided_and(0.05, w, n=128)
    for x in range(2):
        for y in range(2):
            err = sum(
                law.cond[t, x, y]
                for t, out in enumerate(law.outputs)
                if out != (x and y)
            )
            expect = 0.05 if (x, y) == (1, 1) else 0.0
            assert err == pytest.approx(expect, abs=1e-12)


def test_one_sided_and_accepts_zero_diagonal_prior():
    law = one_sided_and(0.1, W_STAR, n=64)
    err11 = sum(
        law.cond[t, 1, 1] for t, out in enumerate(law.outputs) if out != 1
    )
    assert err11 == pytest.approx(0.1, abs=1e-12)


def test_one_sided_and_refuses_a_law_off_its_says_one_table(monkeypatch):
    # the round checks its own "says 1" table, [[0, 0], [0, 1 − ε]]
    w = JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
    real = flip_transform

    def swapped(law, x0, x1, eps):  # answers 1 wherever the walk answers 0
        flipped = real(law, x0, x1, eps)
        return TranscriptLaw(flipped.prior, flipped.leaf_ids, flipped.cond,
                             tuple(1 - out for out in flipped.outputs))

    monkeypatch.setattr("infowalk.and_protocols.flip_transform", swapped)
    with pytest.raises(ProtocolError, match="forbidden error direction"):
        one_sided_and(0.05, w, n=64)
    monkeypatch.setattr("infowalk.and_protocols.flip_transform",
                        lambda law, x0, x1, eps: real(law, x0, x1, eps + 0.01))
    with pytest.raises(ProtocolError, match="differs from epsilon"):
        one_sided_and(0.05, w, n=64)


def test_completion_fixes_flipped_tree_exactly():
    w = JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
    dec = symmetric_decomposition(w)
    spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, 64)
    flipped = flip_tree(buzzer_grid_tree(spec, dec), 0, 1, 0.01)
    assert evaluate_error(flipped, Task(AND_TABLE, 1.0)).max_pointwise > 0.009
    completed = complete_to_zero_error(flipped, AND_TABLE, w)
    assert evaluate_error(completed, Task(AND_TABLE, 0.0)).max_pointwise == 0.0


def test_completion_of_zero_error_tree_is_free():
    # give-up leaves are verified by the player who already knows the answer,
    # so no information moves
    w = JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
    dec = symmetric_decomposition(w)
    spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, 64)
    tree = buzzer_grid_tree(spec, dec)
    completed = complete_to_zero_error(tree, AND_TABLE, w)
    assert internal_ic(law_of(completed, w)) == internal_ic(law_of(tree, w))


def test_completion_initiator_tie_goes_to_alice():
    w = JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
    dec = symmetric_decomposition(w)
    spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, 16)
    tree = buzzer_grid_tree(spec, dec)
    completed = complete_to_zero_error(tree, AND_TABLE, w)
    node = root_of(completed)
    for _ in range(tree.depth()):  # all-up path ends at the corner leaf
        node = node.child1
    # the corner leaf's posterior is a point mass: every marginal comparison
    # ties, so Alice asks first, about row-major cell (0, 0)
    assert isinstance(node, Internal)
    assert node.owner == ALICE
    assert node.send_one_prob == (1.0, 0.0)


def test_completion_random_trees_exact_zero_error():
    rng = np.random.default_rng(23)
    for _ in range(15):
        nx, ny = int(rng.choice([2, 3])), int(rng.choice([2, 3]))
        tree = random_tree(rng, nx, ny, depth=4)
        prior = random_prior(rng, nx, ny)
        f = rng.integers(0, 2, size=(nx, ny))
        completed = complete_to_zero_error(tree, f, prior)
        report = evaluate_error(completed, Task(f, 0.0))
        assert report.max_pointwise == 0.0


def test_completion_cost_stays_below_entropy_bound():
    w = JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
    dec = symmetric_decomposition(w)
    spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, 64)
    eps = 0.01
    flipped = flip_tree(buzzer_grid_tree(spec, dec), 0, 1, eps)
    completed = complete_to_zero_error(flipped, AND_TABLE, w)
    delta = internal_ic(law_of(completed, w)) - internal_ic(law_of(flipped, w))
    hbar = binary_entropy(min(math.sqrt(eps), 0.5))
    assert -1e-12 <= delta <= 4 * 2 * 2 * hbar


def test_completion_rejects_shape_mismatch():
    rng = np.random.default_rng(5)
    tree = random_tree(rng, 2, 2, depth=3)
    with pytest.raises(PreconditionError):
        complete_to_zero_error(tree, [[0, 1, 0], [1, 0, 1]], random_prior(rng, 2, 2))
    with pytest.raises(PreconditionError):
        complete_to_zero_error(tree, AND_TABLE, random_prior(rng, 2, 3))


def test_completion_past_the_transcript_cap_raises_before_building_a_round(monkeypatch):
    # each test doubles the paths below it: the one leaf of a 5x5 tree with an
    # all-1 table has 25 tests and would grow 2**26 - 1 transcripts (a 640 MiB
    # array), past the 5x5 tree's 2**22 // 10; no round is built, and next to
    # nothing allocated, before the refusal
    def forbidden(*args, **kwargs):
        raise AssertionError("a verification round was built before the cap check")

    monkeypatch.setattr("infowalk.and_protocols.Internal", forbidden)
    tree = ProtocolTree(5, 5, (0,), Leaf(0))
    tree.path_law
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="transcripts"):
            complete_to_zero_error(tree, np.ones((5, 5), int).tolist(),
                                   JointDistribution.uniform(5, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_completion_past_the_cap_refuses_before_any_posterior():
    # 2048 reached leaves over a 60x60 table: their posteriors alone are
    # 2048 x 3600 floats (59 MB), and holding them took the peak to 178 MB;
    # the reached leaves are found and counted by blocks of rows instead
    node = Leaf(0)
    for _ in range(11):
        node = Internal(ALICE, (0.5,) * 60, node, node)
    tree = ProtocolTree(60, 60, (0,), node)
    tree.path_law
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="transcripts"):
            complete_to_zero_error(tree, np.ones((60, 60), int).tolist(),
                                   JointDistribution.uniform(60, 60))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 178 * 2**20 / 10


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_completion_is_bit_identical_at_any_block_size(cells, monkeypatch):
    rng = np.random.default_rng(31)
    cases = []
    for nx, ny in [(2, 2), (3, 2), (1, 9), (9, 1), (2, 9), (3, 3)]:
        prior = random_prior(rng, nx, ny, floor=0.005)
        table = (rng.random((nx, ny)) < 0.5).astype(int).tolist()
        cases.append((random_tree(rng, nx, ny, depth=5), table, prior))
    want = [complete_to_zero_error(*case) for case in cases]
    monkeypatch.setattr("infowalk.and_protocols.SUM_BLOCK_CELLS", cells)
    for case, ref in zip(cases, want):
        got = complete_to_zero_error(*case)
        for name in ("owner", "signal", "child1", "copy_of"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
        assert got.path_law.factors.tobytes() == ref.path_law.factors.tobytes()


def test_completion_within_the_transcript_cap_builds_every_round():
    # 16 tests: 2**17 - 1 transcripts, within the 4x4 tree's 2**22 // 8
    prior = JointDistribution.uniform(4, 4)
    table = np.ones((4, 4), int).tolist()
    completed = complete_to_zero_error(ProtocolTree(4, 4, (0,), Leaf(0)), table, prior)
    assert len(completed.owner) == 2**18 - 3
    law = law_of(completed, prior)
    assert law.transcript_count() == 2**17 - 1
    assert evaluate_error(completed, Task(table, 0.0, "pointwise", measure=prior)) \
        .max_pointwise == 0.0
