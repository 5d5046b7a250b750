import json
import math

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
    leaf_mass_below,
    one_sided_and,
    potential_of_tree,
    potential_phi_closed,
    sim_and_zero,
    sim_and_zero_d2p,
)
from infowalk.distributions import (
    Decomposition,
    JointDistribution,
    ProductDistribution,
    binary_entropy,
    symmetric_decomposition,
)
from infowalk.errors import PreconditionError
from infowalk.infocost import internal_ic, law_of, pretend_prob, sim
from infowalk.protocol import (
    ALICE,
    BOB,
    Internal,
    Leaf,
    Task,
    evaluate_error,
    tree_to_json,
    walk,
)

from helpers import random_prior, random_tree

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
    assert law.density(0.5) == 0.0
    assert law.density(0.7) == pytest.approx(0.18 / 0.7**3, rel=1e-12)
    assert law.density(1.0) == 0.0


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
    got = [(gl.leaf_id, gl.ell, gl.axis, gl.pretend_mass) for gl in leaves]
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
    assert isinstance(buzzer_grid_tree(GridWalkSpec(8, 3, 0)).root, Leaf)
    assert buzzer_grid_tree(GridWalkSpec(8, 3, 0)).root.output == 0
    assert buzzer_grid_tree(GridWalkSpec(8, 8, 8)).root.output == 1


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
        got = leaves[gl.leaf_id] / prefix_real
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
    rays, _ = quad(lambda t: 2 * law.density(t) * (c - t) ** 2, law.hi, c)
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


def test_leaf_mass_below_tracks_cdf():
    w = JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
    dec = symmetric_decomposition(w)
    spec, _ = GridWalkSpec.from_start(0.5, 0.4, 512)
    tree = buzzer_grid_tree(spec, dec)
    got = leaf_mass_below(tree, dec, 0.7)
    assert got == pytest.approx(buzzer_leaf_law(0.5, 0.4).cdf(0.7), abs=5e-3)
    assert leaf_mass_below(tree, dec, 0.0) == 0.0
    assert leaf_mass_below(tree, dec, 1.0) == pytest.approx(1.0, abs=1e-12)


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
    node = completed.root
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
