"""End-to-end acceptance checks.

One test per headline claim, at the stated tolerance; `pytest -v` prints a
pass/fail line for each.  Heavier randomized sweeps live in the per-module
suites — these are the contractual numbers.
"""

import math
import time
from collections import defaultdict

import numpy as np
import pytest

from infowalk import (
    ALICE,
    AND_TABLE,
    BOB,
    Decomposition,
    DisjInstance,
    GridWalkSpec,
    Internal,
    JointDistribution,
    Leaf,
    ProtocolTree,
    Task,
    and_tradeoff_curve,
    apply_signal,
    binary_entropy,
    buzzer_grid_tree,
    buzzer_leaf_law,
    complete_to_zero_error,
    cost_report,
    disj_bound_curve,
    disj_error_audit,
    evaluate_error,
    external_ic,
    grid_law_kolmogorov,
    grid_leaf_law,
    ic_and_zero,
    internal_ic,
    is_structurally_external_trivial,
    is_structurally_internal_trivial,
    law_of,
    maximize_ic_and,
    mix_with_abort,
    one_sided_and,
    potential_phi_closed,
    pretend_step,
    sim,
    sim_and_zero,
    sim_and_zero_d2p,
    symmetric_decomposition,
    trivial_witness_protocol,
    truncated_entropy,
    xor_external_experiment,
    xor_floor_search,
)

from helpers import random_law, random_prior, random_tree, root_of


# ---------------------------------------------------------------------------
# 1. headline constant
# ---------------------------------------------------------------------------

def test_01_constant_reproduction():
    """Zero-at-(1,1) maximization lands on 0.4827 within 5e-3, in under 2 min."""
    began = time.perf_counter()
    opt = maximize_ic_and()
    elapsed = time.perf_counter() - began
    assert abs(opt.value - 0.4827) <= 5e-3
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 2. leaf-law convergence of the discretized walk
# ---------------------------------------------------------------------------

def test_02_leaf_law_convergence():
    p, q = 0.5, 0.25
    spec, snap = GridWalkSpec.from_start(p, q, 512)
    assert snap == 0.0
    leaves = grid_leaf_law(spec)
    at_p = sum(l.pretend_mass for l in leaves if l.axis == "x" and abs(l.ell - p) < 1e-12)
    corner = sum(l.pretend_mass for l in leaves if l.axis == "one")
    assert abs(at_p - 0.5) <= 0.02
    assert abs(corner - 0.125) <= 0.02
    reference = buzzer_leaf_law(p, q)
    distances = [
        grid_law_kolmogorov(GridWalkSpec.from_start(p, q, n)[0], reference)
        for n in (64, 128, 256, 512, 1024)
    ]
    assert distances[3] <= 0.02
    assert all(a > b for a, b in zip(distances, distances[1:]))


# ---------------------------------------------------------------------------
# 3. discretized walk cost agrees with the closed form
# ---------------------------------------------------------------------------

def test_03_ic_agreement_at_random_priors():
    rng = np.random.default_rng(31)
    for _ in range(10):
        w = random_prior(rng, 2, 2)
        dec = symmetric_decomposition(w)
        spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, 1024)
        tree = buzzer_grid_tree(spec, dec)
        assert abs(internal_ic(law_of(tree, w)) - ic_and_zero(w)) <= 1e-2


# ---------------------------------------------------------------------------
# 4. conservation suite
# ---------------------------------------------------------------------------

def _subtree_ci(tree, node, mu):
    wrapped = ProtocolTree(tree.nx, tree.ny, tree.outputs, node)
    return cost_report(law_of(wrapped, mu)).ci_internal


def _check_ci_conservation(tree, node, mu):
    if isinstance(node, Leaf):
        return
    step = apply_signal(mu, node.owner, node.send_one_prob)
    recon = step.lambda0 * step.mu0.mass + step.lambda1 * step.mu1.mass
    assert np.max(np.abs(recon - mu.mass)) <= 1e-12  # drift-free split
    parent = _subtree_ci(tree, node, mu)
    children = step.lambda0 * _subtree_ci(tree, node.child0, step.mu0)
    children += step.lambda1 * _subtree_ci(tree, node.child1, step.mu1)
    assert abs(parent - children) <= 1e-9
    _check_ci_conservation(tree, node.child0, step.mu0)
    _check_ci_conservation(tree, node.child1, step.mu1)


def _subtree_sim(tree, node, dec):
    wrapped = ProtocolTree(tree.nx, tree.ny, tree.outputs, node)
    return sim(law_of(wrapped, dec.compose()), dec)


def _check_sim_martingale(tree, node, dec):
    if isinstance(node, Leaf):
        return
    steps = pretend_step(dec.pretend, node.owner, node.send_one_prob)
    parent = _subtree_sim(tree, node, dec)
    children = 0.0
    for (lam, pretend), child in zip(steps, (node.child0, node.child1)):
        children += lam * _subtree_sim(tree, child, Decomposition(dec.reference, pretend))
    assert abs(parent - children) <= 1e-9
    for (_, pretend), child in zip(steps, (node.child0, node.child1)):
        _check_sim_martingale(tree, child, Decomposition(dec.reference, pretend))


def _product_pair(rng):
    """Alice-then-Bob and Bob-then-Alice trees with the same leaf law."""
    a = tuple(rng.uniform(0.05, 0.95, size=2))
    b = tuple(rng.uniform(0.05, 0.95, size=2))
    outs = [[rng.integers(4), rng.integers(4)] for _ in range(2)]
    first = Internal(
        ALICE, a,
        Internal(BOB, b, Leaf(outs[0][0]), Leaf(outs[0][1])),
        Internal(BOB, b, Leaf(outs[1][0]), Leaf(outs[1][1])),
    )
    second = Internal(
        BOB, b,
        Internal(ALICE, a, Leaf(outs[0][0]), Leaf(outs[1][0])),
        Internal(ALICE, a, Leaf(outs[0][1]), Leaf(outs[1][1])),
    )
    outputs = tuple(range(4))
    return (
        ProtocolTree(2, 2, outputs, first),
        ProtocolTree(2, 2, outputs, second),
    )


def test_04_conservation_suite():
    rng = np.random.default_rng(41)
    for _ in range(120):
        nx, ny = rng.integers(2, 4), rng.integers(2, 4)
        tree = random_tree(rng, nx, ny, depth=4)
        _check_ci_conservation(tree, root_of(tree), random_prior(rng, nx, ny))
    for _ in range(80):
        tree = random_tree(rng, 2, 2, depth=4)
        raw = rng.uniform(0.05, 1.0, size=3)
        x, y, z = raw / (raw[0] + 2 * raw[1] + raw[2])
        nu = JointDistribution.from_mass([[x, y], [y, z]])
        pretend = symmetric_decomposition(random_prior(rng, 2, 2)).pretend
        _check_sim_martingale(tree, root_of(tree), Decomposition(nu, pretend))
    for _ in range(50):
        one, other = _product_pair(rng)
        w = random_prior(rng, 2, 2)
        assert internal_ic(law_of(one, w)) == pytest.approx(
            internal_ic(law_of(other, w)), abs=1e-9
        )
        assert external_ic(law_of(one, w)) == pytest.approx(
            external_ic(law_of(other, w)), abs=1e-9
        )


# ---------------------------------------------------------------------------
# 5. flip gain scales like the entropy of the flip coin
# ---------------------------------------------------------------------------

def test_05_flip_gain_band():
    opt = maximize_ic_and()
    m = opt.argmax.mass
    tau = m[0, 0] ** 2 * min(m[0, 1], m[1, 0]) / 128.0
    eps_list = (1e-4, 1e-3, 1e-2, 5e-2)
    curve = and_tradeoff_curve(eps_list)
    ratios = []
    for point in curve:
        assert point.gain >= tau * binary_entropy(point.epsilon)
        ratios.append(point.gain_per_h)
    assert max(ratios) / min(ratios) <= 10.0


# ---------------------------------------------------------------------------
# 6. completion: exact repair at bounded extra cost
# ---------------------------------------------------------------------------

def _noisy_exchange(table, prior, noise):
    """Both players run noisy membership cascades; leaves answer by posterior.

    At noise 0 this is an exact exchange; the error grows continuously with
    the slip probability, so halving the noise tunes the protocol under any
    error budget.
    """
    tab = np.asarray(table, dtype=object)
    nx, ny = prior.nx, prior.ny

    def bayes_leaf(lx, ly):
        post = prior.mass * lx[:, None] * ly[None, :]
        score: dict = defaultdict(float)
        for x in range(nx):
            for y in range(ny):
                score[tab[x, y]] += post[x, y]
        return Leaf(max(score, key=score.get))

    def bob(j, lx, ly):
        if j == ny - 1:
            return bayes_leaf(lx, ly)
        s = np.full(ny, noise)
        s[j] = 1.0 - noise
        yes = bayes_leaf(lx, ly * s)
        return Internal(BOB, tuple(s), bob(j + 1, lx, ly * (1.0 - s)), yes)

    def alice(j, lx):
        if j == nx - 1:
            return bob(0, lx, np.ones(ny))
        s = np.full(nx, noise)
        s[j] = 1.0 - noise
        yes = bob(0, lx * s, np.ones(ny))
        return Internal(ALICE, tuple(s), alice(j + 1, lx * (1.0 - s)), yes)

    outputs = tuple(dict.fromkeys(tab.flat))
    return ProtocolTree(nx, ny, outputs, alice(0, np.ones(nx)))


def test_06_completion_bound():
    rng = np.random.default_rng(61)
    for i in range(100):
        side = 2 if i % 2 == 0 else 3
        eps = (0.01, 0.05, 0.1)[i % 3]
        prior = random_prior(rng, side, side)
        table = rng.integers(0, 2, size=(side, side))
        task = Task(table, eps, "distributional", measure=prior)
        noise = rng.uniform(0.05, 0.3)
        while True:
            tree = _noisy_exchange(table, prior, noise)
            if evaluate_error(tree, task).distributional <= eps:
                break
            noise /= 2.0
        completed = complete_to_zero_error(tree, table, prior)
        pointwise = Task(table, 0.0, "pointwise", measure=prior)
        assert evaluate_error(completed, pointwise).max_pointwise == 0.0
        delta = internal_ic(law_of(completed, prior)) - internal_ic(law_of(tree, prior))
        assert delta <= 4 * side * side * truncated_entropy(math.sqrt(eps))


# ---------------------------------------------------------------------------
# 7. abort mixing rescales cost exactly
# ---------------------------------------------------------------------------

def test_07_abort_mixing_identity():
    rng = np.random.default_rng(71)
    for _ in range(100):
        nx, ny = rng.integers(2, 4), rng.integers(2, 4)
        law = random_law(rng, nx, ny, transcripts=int(rng.integers(2, 7)))
        eps = float(rng.uniform(0.0, 0.9))
        mixed = mix_with_abort(law, eps, abort_output=0)
        assert internal_ic(mixed) == pytest.approx(
            (1.0 - eps) * internal_ic(law), abs=1e-10
        )


# ---------------------------------------------------------------------------
# 8. parity at the diagonal prior: external cost floor
# ---------------------------------------------------------------------------

def test_08_xor_external_floor():
    eps_list = (0.05, 0.15, 0.25)
    for point in xor_external_experiment(eps_list):
        assert point.external_cost == pytest.approx(1.0 - point.epsilon, abs=1e-12)
    for eps in eps_list:
        search = xor_floor_search(eps, samples=500, seed=0)
        assert search.sampled == 500
        assert search.valid > 0
        assert search.min_external >= (1.0 - 3.0 * eps) - 1e-9


# ---------------------------------------------------------------------------
# 9. composed intersection search: error audit and bound curve
# ---------------------------------------------------------------------------

def test_09_disjointness_audit():
    coord = JointDistribution.from_mass([[0.25, 0.25], [0.25, 0.25]])
    inst = DisjInstance.iid(coord, 2)
    eps = 0.1
    factory = lambda prior, e: one_sided_and(e, prior, n=64)
    audit = disj_error_audit(inst, eps, factory)
    assert audit.mode == "exact"
    assert audit.distributional < eps
    for x in range(4):
        for y in range(4):
            t = bin(x & y).count("1")
            if t == 0:
                assert audit.per_input[x, y] == 0.0
            else:
                assert audit.per_input[x, y] <= audit.eps_round ** t + 1e-12
    curve = disj_bound_curve((1e-4, 1e-3, 1e-2, 5e-2, 1e-1))
    assert abs(curve.fitted_exponent - 0.5) <= 0.1


# ---------------------------------------------------------------------------
# 10. closed-form curvature of the potential and the scaled cost
# ---------------------------------------------------------------------------

def test_10_derivative_identities():
    raw = np.array([[0.3, 0.2], [0.2, 0.3]])
    dec = Decomposition(
        JointDistribution.from_mass(raw),
        symmetric_decomposition(JointDistribution.from_mass(raw)).pretend,
    )
    c, h = 0.95, 1e-4
    grid = np.linspace(0.1, 0.85, 10)
    for p in grid:
        for q in grid:
            if q < p:
                fd = (
                    potential_phi_closed(c, p + h, q)
                    - 2 * potential_phi_closed(c, p, q)
                    + potential_phi_closed(c, p - h, q)
                ) / h**2
                assert abs(fd - 2.0 * (1.0 - q / p)) <= 1e-4
                fd = (
                    sim_and_zero(p + h, q, dec)
                    - 2 * sim_and_zero(p, q, dec)
                    + sim_and_zero(p - h, q, dec)
                ) / h**2
                assert abs(fd - sim_and_zero_d2p(p, q, dec)) <= 1e-4
            if q < p - 2 * h:  # keep the q-stencil on one side of the kink
                for func in (
                    lambda qq: potential_phi_closed(c, p, qq),
                    lambda qq: sim_and_zero(p, qq, dec),
                ):
                    fd = (func(q + h) - 2 * func(q) + func(q - h)) / h**2
                    assert abs(fd) <= 1e-6


# ---------------------------------------------------------------------------
# 11. zero-cost instances: structural test vs. exhaustive search
# ---------------------------------------------------------------------------

def _partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[head] + part[k]] + part[k + 1 :]
        yield [[head]] + part


def _brute_force_internal(table, mu):
    rows = [x for x in range(mu.nx) if mu.marginal_x()[x] > 0.0]
    cols = [y for y in range(mu.ny) if mu.marginal_y()[y] > 0.0]
    for part in _partitions(rows):
        group_of = {x: g for g, grp in enumerate(part) for x in grp}
        cols_of = defaultdict(set)
        consistent = True
        for y in cols:
            touching = {group_of[x] for x in rows if mu.mass[x, y] > 0.0}
            if len(touching) > 1:
                consistent = False
                break
            cols_of[touching.pop()].add(y)
        if not consistent:
            continue
        if all(
            len({table[x, y] for x in grp for y in cols_of[g]}) <= 1
            for g, grp in enumerate(part)
        ):
            return True
    return False


def _brute_force_external(table, mu):
    rows = np.flatnonzero(mu.marginal_x() > 0.0)
    cols = np.flatnonzero(mu.marginal_y() > 0.0)
    return len({table[x, y] for x in rows for y in cols}) <= 1


def _random_instance(rng):
    nx, ny = rng.integers(2, 4), rng.integers(2, 4)
    span = 2 if rng.random() < 0.8 else 3
    if rng.random() < 0.25:
        table = np.full((nx, ny), int(rng.integers(span)))
    else:
        table = rng.integers(0, span, size=(nx, ny))
    while True:
        mask = rng.random(size=(nx, ny)) < 0.6
        if mask.any():
            break
    mass = np.where(mask, rng.uniform(0.1, 1.0, size=(nx, ny)), 0.0)
    return table, JointDistribution.from_mass(mass / mass.sum())


def test_11_trivial_measure_suite():
    rng = np.random.default_rng(111)
    internal_hits = external_hits = 0
    for _ in range(500):
        table, mu = _random_instance(rng)
        internal, _ = is_structurally_internal_trivial(table, mu)
        external = is_structurally_external_trivial(table, mu)
        assert internal == _brute_force_internal(table, mu)
        assert external == _brute_force_external(table, mu)
        support_task = Task(table, 0.0, "pointwise", measure=mu)
        # support error: the measure-weighted total, zero iff every support
        # cell answers correctly (off-support cells carry no obligation)
        if internal:
            internal_hits += 1
            witness = trivial_witness_protocol(table, mu, "internal")
            assert internal_ic(law_of(witness, mu)) <= 1e-12
            assert evaluate_error(witness, support_task).distributional == 0.0
        if external:
            external_hits += 1
            witness = trivial_witness_protocol(table, mu, "external")
            assert external_ic(law_of(witness, mu)) <= 1e-12
            assert evaluate_error(witness, support_task).distributional == 0.0
    assert internal_hits >= 30 and external_hits >= 30
