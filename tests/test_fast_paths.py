"""The array-valued fast paths against slow per-cell, per-transcript and
per-path loops, which ``tests/helpers.py`` keeps as oracles.

Tolerances: ``cost_report``, ``evaluate_error_law`` and the transcript
law itself are bit-identical; ``sim`` agrees to 1e-12 relative; walk
posteriors, leaf probabilities and ``potential_of_tree`` to 1e-12 absolute;
completed trees serialize identically.  The entropy sums walk a law in
blocks of transcripts, and ``cost_report`` and ``sim`` are bit-identical at
every block size, and so are ``leaf_posteriors``' probabilities and
posteriors.  The grid walk's tree, leaf law and Kolmogorov distance, and
the continuous leaf law's CDF on arrays, are bit-identical to phase-by-phase
and point-by-point loops.
"""

import math

import numpy as np
import pytest

from infowalk import (
    ALICE,
    AND_TABLE,
    BOB,
    GridWalkSpec,
    Internal,
    JointDistribution,
    Leaf,
    ProtocolTree,
    Task,
    buzzer_grid_tree,
    buzzer_leaf_law,
    complete_to_zero_error,
    cost_report,
    evaluate_error_law,
    flip_tree,
    grid_law_kolmogorov,
    grid_leaf_law,
    law_of,
    potential_of_tree,
    sim,
    symmetric_decomposition,
    tree_to_json,
    walk,
)
from infowalk import infocost

from helpers import (
    buzzer_grid_tree_reference,
    complete_reference,
    cost_report_reference,
    evaluate_error_reference,
    grid_law_kolmogorov_reference,
    grid_leaf_law_reference,
    law_of_reference,
    leaf_law_cdf_reference,
    potential_reference,
    random_law,
    random_prior,
    random_symmetric_decomposition,
    random_tree,
    sim_reference,
    walk_reference,
)

POSTERIOR_TOL = 1e-12
SIM_RTOL = 1e-12


def coarse_tree(rng, nx, ny, depth=5):
    """A random tree whose send probabilities are multiples of 1/4, so that
    0 and 1 occur and some branches are unreachable."""

    def build(d):
        if d >= depth or (d > 0 and rng.random() < 0.3):
            return Leaf(int(rng.integers(0, 2)))
        owner, size = (ALICE, nx) if rng.random() < 0.5 else (BOB, ny)
        probs = tuple(float(k) / 4.0 for k in rng.integers(0, 5, size=size))
        return Internal(owner, probs, build(d + 1), build(d + 1))

    return ProtocolTree(nx, ny, (0, 1), build(0))


def sparse_prior(rng, nx, ny):
    """A prior with some cells of mass exactly zero."""
    mass = rng.dirichlet(np.ones(nx * ny)) * (rng.random(nx * ny) < 0.6)
    if mass.sum() == 0.0:
        mass[0] = 1.0
    return JointDistribution.from_mass((mass / mass.sum()).reshape(nx, ny))


def random_instances():
    rng = np.random.default_rng(2024)
    for k in range(40):
        size = 2 + k % 2
        if k % 4 < 2:
            yield random_tree(rng, size, size, depth=5), random_prior(rng, size, size)
        else:
            yield coarse_tree(rng, size, size), sparse_prior(rng, size, size)


INSTANCES = list(random_instances())


def buzzer_instances():
    rng = np.random.default_rng(7)
    for n in (64, 256, 1024, 2048):
        for full in (True, False):
            q = int(rng.integers(8, 33)) / 64.0
            s = rng.uniform(0.3, 0.6)
            w11 = rng.uniform(0.05, 0.25) if full else 0.0
            w = JointDistribution.from_mass(
                [[1.0 - s - w11, s * q], [s * (1.0 - q), w11]]
            )
            dec = symmetric_decomposition(w)
            spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, n)
            yield n, w, dec, buzzer_grid_tree(spec, dec)


BUZZERS = list(buzzer_instances())
BUZZER_IDS = [f"n{n}-{'full' if w.mass[1, 1] else 'zero11'}" for n, w, _, _ in BUZZERS]


def assert_same_law(tree, prior):
    law, ref = law_of(tree, prior), law_of_reference(tree, prior)
    assert tuple(law.leaf_ids) == ref.leaf_ids
    assert law.leaf_ids == ref.leaf_ids
    assert np.array_equal(law.cond, ref.cond)
    assert law.outputs == ref.outputs
    return law


def assert_same_walk(tree, prior):
    got = walk(tree, prior)
    leaves, pruned = walk_reference(tree, prior)
    assert [wl.leaf_id for wl in got] == [leaf[0] for leaf in leaves]
    assert got.pruned == tuple(pruned)
    for wl, (_, posterior, prob, output) in zip(got, leaves):
        assert wl.output == output
        assert abs(wl.prob - prob) <= POSTERIOR_TOL
        assert np.max(np.abs(wl.posterior.mass - posterior.mass)) <= POSTERIOR_TOL


def assert_same_error(law, task):
    report = evaluate_error_law(law, task)
    err, violation = evaluate_error_reference(law, task)
    assert report.max_pointwise == float(np.max(err))
    weight = task.measure.mass
    assert report.distributional == float(np.sum(weight * err))
    if violation is not None:
        assert report.one_sided_violation == float(np.sum(weight * violation))


@pytest.mark.parametrize("k", range(len(INSTANCES)))
def test_random_trees_match_the_slow_loops(k):
    tree, prior = INSTANCES[k]
    law = assert_same_law(tree, prior)
    assert cost_report(law) == cost_report_reference(law)
    assert_same_walk(tree, prior)
    table = np.random.default_rng(k).integers(0, 2, size=(tree.nx, tree.ny)).tolist()
    assert_same_error(law, Task(table, 1.0, "distributional", measure=prior))
    assert_same_error(law, Task(table, 1.0, "distributional", measure=prior,
                                one_sided=(1, 0)))
    completed = complete_to_zero_error(tree, table, prior)
    assert tree_to_json(completed) == tree_to_json(complete_reference(tree, table, prior))


def test_error_tables_add_in_transcript_order():
    # many transcripts with both outputs, so that a pairwise sum would differ
    rng = np.random.default_rng(17)
    for size in (2, 3):
        law = random_law(rng, size, size, transcripts=400)
        table = rng.integers(0, 2, size=(size, size)).tolist()
        assert_same_error(law, Task(table, 1.0, "distributional", measure=law.prior,
                                    one_sided=(1, 0)))


def test_entropy_terms_use_libm_log2():
    # one cell per sum, so each sum is its single term: numpy's log2 would
    # differ from libm's on a few of these arguments
    rng = np.random.default_rng(23)
    for p, m in rng.uniform(1e-6, 1.0, size=(3000, 2)):
        m = max(p, m)
        got = infocost._neg_plogq_sums(np.array([p]), np.array([p]), [np.array([m])])
        assert got == (-(p * math.log2(p / m)) if p != m else -0.0,)


def test_sim_and_potential_on_random_two_by_two_trees():
    rng = np.random.default_rng(31)
    for _ in range(30):
        dec = random_symmetric_decomposition(rng)
        tree = random_tree(rng, 2, 2, depth=5)
        law = law_of(tree, dec.compose())
        assert sim(law, dec) == pytest.approx(sim_reference(law, dec), rel=SIM_RTOL)
        c = float(rng.uniform(0.2, 0.95))
        assert abs(potential_of_tree(tree, c, dec) - potential_reference(tree, c, dec)) \
            <= POSTERIOR_TOL


@pytest.mark.parametrize("n, w, dec, tree", BUZZERS, ids=BUZZER_IDS)
def test_buzzer_grids_match_the_slow_loops(n, w, dec, tree):
    law = assert_same_law(tree, w)
    assert cost_report(law) == cost_report_reference(law)
    assert sim(law, dec) == pytest.approx(sim_reference(law, dec), rel=SIM_RTOL)
    assert abs(potential_of_tree(tree, 0.8, dec) - potential_reference(tree, 0.8, dec)) \
        <= POSTERIOR_TOL
    assert_same_walk(tree, dec.pretend.as_joint())
    flipped = flip_tree(tree, 0, 1, 0.05)
    completed = complete_to_zero_error(flipped, AND_TABLE, w)
    assert tree_to_json(completed) == tree_to_json(
        complete_reference(flipped, AND_TABLE, w)
    )
    law_c = assert_same_law(completed, w)
    assert cost_report(law_c) == cost_report_reference(law_c)
    assert_same_error(law_c, Task(AND_TABLE, 1.0, "distributional", measure=w,
                                  one_sided=(1, 0)))


def grid_starts(n):
    """Starts on either axis, at the corner, and with a < b, a > b, a = b
    and a = n: all 36 pairs up to n = 2048, one of each kind above."""
    if n > 2048:
        return [(0, n // 4), (n // 2, 0), (n, n), (n // 3, n // 2), (n // 2, n // 4),
                (n // 2, n // 2), (n, 1)]
    return [(a, b) for a in sorted({0, 1, n // 3, n // 2, n - 1, n})
            for b in sorted({0, 1, n // 4, n // 2, n - 1, n})]


def assert_same_caterpillar(tree, ref):
    node, want = tree.root, ref.root
    while isinstance(want, Internal):
        # the owner constants themselves: a fresh string per node costs memory
        assert node.owner is want.owner
        assert node.send_one_prob == want.send_one_prob
        assert node.child0 == want.child0
        node, want = node.child1, want.child1
    assert node == want


@pytest.mark.parametrize("n", (2, 3, 4, 8, 64, 512, 2048, 16384))
def test_grid_walk_matches_the_phase_loops(n):
    for a, b in grid_starts(n):
        spec = GridWalkSpec(n, a, b)
        assert_same_caterpillar(buzzer_grid_tree(spec), buzzer_grid_tree_reference(spec))
        # repr tells float from np.float64 and -0.0 from 0.0
        assert [repr(leaf) for leaf in grid_leaf_law(spec)] == \
            [repr(leaf) for leaf in grid_leaf_law_reference(spec)]
        if 0 < a < n and 0 < b < n:
            law = buzzer_leaf_law(a / n, b / n)
            assert repr(grid_law_kolmogorov(spec, law)) == \
                repr(grid_law_kolmogorov_reference(spec, law))


def test_grid_signals_multiply_past_32_bits():
    # the first phase's high·(n − m) is about n²/2, past 2³¹ at this n
    n = 100003
    m, high = 1, n // 2 + 1
    root = buzzer_grid_tree(GridWalkSpec(n, n // 2, 1)).root
    assert root.send_one_prob == ((m * (n - high)) / (high * (n - m)), 1.0)


@pytest.mark.parametrize("p, q", [(0.5, 0.25), (0.2, 0.7), (0.4, 0.4), (0.01, 0.99)])
def test_leaf_law_cdf_on_arrays_matches_each_point(p, q):
    law = buzzer_leaf_law(p, q)
    rng = np.random.default_rng(5)
    points = np.concatenate((
        [-1.0, 0.0, law.hi - 1e-12, law.hi, 1.0, 1.5],
        rng.uniform(0.0, law.hi, 50),  # below hi
        rng.uniform(law.hi, 1.0, 5000),  # inside (hi, 1)
        rng.uniform(1.0, 2.0, 50),
    ))
    got = law.cdf(points)
    assert [law.cdf(t) for t in points.tolist()] == got.tolist()
    assert [leaf_law_cdf_reference(law, t) for t in points.tolist()] == got.tolist()
    assert type(law.cdf(0.5)) is float


def test_grid_specs_with_equal_arguments_are_equal():
    spec = GridWalkSpec(64, 32, 16)
    assert spec == GridWalkSpec(64, 32, 16)
    assert hash(spec) == hash(GridWalkSpec(64, 32, 16))
    assert spec != GridWalkSpec(64, 16, 32)
    assert "mover" not in repr(spec)


def test_one_tree_prices_under_two_priors_from_its_one_record():
    rng = np.random.default_rng(31)
    trees = [tree for tree, _ in INSTANCES[:8]] + [BUZZERS[0][3]]
    for tree in trees:
        priors = random_prior(rng, tree.nx, tree.ny), sparse_prior(rng, tree.nx, tree.ny)
        laws = [law_of(tree, prior) for prior in priors]
        assert laws[0].leaf_ids is laws[1].leaf_ids
        for law, prior in zip(laws, priors):
            assert law.cond.tobytes() == law_of_reference(tree, prior).cond.tobytes()


def test_leaf_ids_behave_as_a_tuple_of_strings():
    # the hand-enumerated walk from (2/4, 1/4): four phases, then the corner
    law = law_of(buzzer_grid_tree(GridWalkSpec(4, 2, 1)), JointDistribution.uniform(2, 2))
    ids = law.leaf_ids
    as_tuple = tuple(ids)
    assert as_tuple == ("0", "10", "110", "1110", "1111")
    assert len(ids) == 5 and ids[-1] == "1111" and ids[2] == "110"
    assert ids == as_tuple and ids == list(as_tuple) and ids != as_tuple[:-1]
    assert "110" in ids and ids.index("1110") == 3
    with pytest.raises(IndexError):
        ids[5]


@pytest.fixture(scope="module")
def priced_laws():
    """(law, decomposition or None, its prices and leaf posteriors at the
    default block size) for the random-tree and buzzer-grid cases and their
    completed trees."""
    cases = []
    for k, (tree, prior) in enumerate(INSTANCES):
        table = np.random.default_rng(k).integers(0, 2, size=(tree.nx, tree.ny))
        completed = complete_to_zero_error(tree, table.tolist(), prior)
        cases += [(law_of(tree, prior), None), (law_of(completed, prior), None)]
    for _, w, dec, tree in BUZZERS:
        completed = complete_to_zero_error(flip_tree(tree, 0, 1, 0.05), AND_TABLE, w)
        cases += [(law_of(tree, w), dec), (law_of(completed, w), dec)]
    return [(law, dec, prices(law, dec)) for law, dec in cases]


def prices(law, dec):
    report = cost_report(law)
    values = [report.ic_internal, report.ic_external, report.ci_internal,
              report.ci_external] + ([sim(law, dec)] if dec is not None else [])
    prob, post = infocost.leaf_posteriors(law)
    return [v.hex() for v in values] + [prob.tobytes(), post.tobytes()]


@pytest.mark.parametrize("transcripts", (1, 3, 7))
def test_block_wise_sums_are_bit_identical_at_any_block_size(
    transcripts, priced_laws, monkeypatch
):
    for law, dec, default in priced_laws:
        cells = transcripts * law.prior.nx * law.prior.ny
        monkeypatch.setattr(infocost, "SUM_BLOCK_CELLS", cells)
        assert prices(law, dec) == default
