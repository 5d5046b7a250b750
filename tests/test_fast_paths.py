"""The array-valued fast paths against slow per-cell, per-transcript and
per-path loops, which ``tests/helpers.py`` keeps as oracles.

Tolerances: ``cost_report`` (and ``internal_ic`` and ``external_ic``,
which compute only their part of it, bit for bit) is within twice the bound
that ``tests/helpers.py`` states of the per-cell ``math.fsum`` loops, since
both are within the bound of the exact value, and so is ``cost_report`` at
any block size of its sums; ``leaf_posteriors`` is within (cells + 2)·2⁻⁵³
relative of one ``math.fsum`` per row; ``evaluate_error_law`` and the
transcript law itself are bit-identical; ``sim`` agrees to 1e-12 relative;
walk posteriors, leaf probabilities and ``potential_of_tree`` to 1e-12
absolute; completed trees serialize identically.  The grid walk's tree,
leaf law and Kolmogorov distance, and the continuous leaf law's CDF on
arrays, are bit-identical to phase-by-phase and point-by-point loops.  A
completed tree's inherited law equals the law that scans of its own arrays
give, bit for bit, and the one-axis margins equal numpy's sums bit for bit.
Scans are bit-identical at any chunk size, and ``entropy_profile`` equals
the per-cell loops bit for bit, the sign of a zero included.  A flipped
tree's shipped factors equal a scan of its own arrays, the entropy kernel
equals the masked kernel it replaced, and a law's coded outputs equal the
tuple its path law once held, all bit for bit.
"""
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    TranscriptLaw,
    buzzer_grid_tree,
    buzzer_leaf_law,
    complete_to_zero_error,
    cost_report,
    entropy_profile,
    evaluate_error_law,
    external_ic,
    flip_tree,
    tree_from_json,
    grid_law_kolmogorov,
    grid_leaf_law,
    internal_ic,
    law_of,
    mix_with_abort,
    one_sided_and,
    potential_of_tree,
    sim,
    symmetric_decomposition,
    tree_to_json,
    walk,
)
from infowalk import and_protocols, infocost, protocol
from infowalk.disjointness import _Round
from infowalk.distributions import SNAP_EPS

from helpers import (
    buzzer_grid_tree_reference,
    complete_reference,
    cost_bounds,
    cost_report_reference,
    entropy_profile_reference,
    evaluate_error_reference,
    flip_tree_reference,
    grid_law_kolmogorov_reference,
    grid_leaf_law_reference,
    law_of_reference,
    leaf_law_cdf_reference,
    leaf_posteriors_reference,
    neg_plogq_sums_masked,
    path_outputs_reference,
    potential_reference,
    random_law,
    random_prior,
    random_symmetric_decomposition,
    random_tree,
    root_of,
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


def assert_costs_near(law, want):
    """``cost_report`` within twice each field's stated bound of ``want``."""
    bounds = cost_bounds(law)
    for name, value in dataclasses.asdict(cost_report(law)).items():
        assert abs(value - getattr(want, name)) <= 2 * bounds[name], name


def assert_same_error(law, task):
    report = evaluate_error_law(law, task)
    err = evaluate_error_reference(law, task)
    assert report.max_pointwise == float(np.max(err))
    assert report.distributional == float(np.sum(task.measure.mass * err))


@pytest.mark.parametrize("k", range(len(INSTANCES)))
def test_random_trees_match_the_slow_loops(k):
    tree, prior = INSTANCES[k]
    law = assert_same_law(tree, prior)
    assert_costs_near(law, cost_report_reference(law))
    assert_same_walk(tree, prior)
    table = np.random.default_rng(k).integers(0, 2, size=(tree.nx, tree.ny)).tolist()
    assert_same_error(law, Task(table, 1.0, "distributional", measure=prior))
    completed = complete_to_zero_error(tree, table, prior)
    assert tree_to_json(completed) == tree_to_json(complete_reference(tree, table, prior))


def test_error_tables_add_in_transcript_order():
    # many transcripts with both outputs, so that a pairwise sum would differ
    rng = np.random.default_rng(17)
    for size in (2, 3):
        law = random_law(rng, size, size, transcripts=400)
        table = rng.integers(0, 2, size=(size, size)).tolist()
        assert_same_error(law, Task(table, 1.0, "distributional", measure=law.prior))


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
    assert_costs_near(law, cost_report_reference(law))
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
    assert_costs_near(law_c, cost_report_reference(law_c))
    assert_same_error(law_c, Task(AND_TABLE, 1.0, "distributional", measure=w))


def grid_starts(n):
    """Starts on either axis, at the corner, and with a < b, a > b, a = b
    and a = n: all 36 pairs up to n = 2048, one of each kind above."""
    if n > 2048:
        return [(0, n // 4), (n // 2, 0), (n, n), (n // 3, n // 2), (n // 2, n // 4),
                (n // 2, n // 2), (n, 1)]
    return [(a, b) for a in sorted({0, 1, n // 3, n // 2, n - 1, n})
            for b in sorted({0, 1, n // 4, n // 2, n - 1, n})]


def assert_same_caterpillar(tree, ref):
    node, want = root_of(tree), root_of(ref)
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
    root = root_of(buzzer_grid_tree(GridWalkSpec(n, n // 2, 1)))
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


def test_leaf_ids_slice_and_index_as_a_tuple_does():
    # a shallow walk, and a deep one (8 192 phases) with its completion
    w = JointDistribution.uniform(2, 2)
    deep = buzzer_grid_tree(GridWalkSpec(16384, 12288, 8192))
    for tree in (buzzer_grid_tree(GridWalkSpec(64, 32, 16)), deep,
                 complete_to_zero_error(deep, AND_TABLE, w)):
        ids = law_of(tree, w).leaf_ids
        as_tuple = tuple(ids)
        for part in (slice(None, 2), slice(-3, None), slice(1, 40, 3), slice(None, None, -2),
                     slice(500, 600), slice(0, 0)):
            assert ids[part] == as_tuple[part]
        for i in (0, 7, -1, -2, -len(ids)):
            assert ids[i] == as_tuple[i]
        for i in (len(ids), -len(ids) - 1):
            with pytest.raises(IndexError):
                ids[i]
        del ids, as_tuple


# Trees that ``buzzer_grid_tree``, ``flip_tree`` and ``complete_to_zero_error``
# write as arrays, against the same trees built from nodes by the references
# in ``tests/helpers.py`` and flattened: ids, ``cond`` bytes, outputs and JSON.

def assert_same_tree(tree, ref, prior):
    law, want = law_of(tree, prior), law_of(ref, prior)
    assert law.leaf_ids == want.leaf_ids
    assert law.cond.tobytes() == want.cond.tobytes()
    assert law.outputs == want.outputs
    assert tree_to_json(tree) == tree_to_json(ref)


def assert_flip_and_completion_match(tree, prior, table, x0=0, x1=1, eps=0.05):
    flipped, want = flip_tree(tree, x0, x1, eps), flip_tree_reference(tree, x0, x1, eps)
    assert_same_tree(flipped, want, prior)
    assert_same_tree(complete_to_zero_error(flipped, table, prior),
                     complete_reference(want, table, prior), prior)


@pytest.mark.parametrize("k", range(len(INSTANCES)))
def test_array_built_random_trees_match_node_built_trees(k):
    tree, prior = INSTANCES[k]
    table = np.random.default_rng(k).integers(0, 3, size=(tree.nx, tree.ny)).tolist()
    assert_same_tree(tree, ProtocolTree(tree.nx, tree.ny, tree.outputs, root_of(tree)), prior)
    assert_same_tree(complete_to_zero_error(tree, table, prior),
                     complete_reference(tree, table, prior), prior)
    assert_flip_and_completion_match(tree, prior, table, 1, 0, 0.3)


def shared_node_files():
    """A file whose levels share one child (2**6 transcripts from 7 nodes) and
    completed trees, whose verification rounds share the node a failed test
    falls back to."""
    nodes = [{"kind": "internal", "owner": "alice", "send_one_prob": [0.5, 0.25],
              "child0": i + 1, "child1": i + 1} for i in range(6)]
    nodes.append({"kind": "leaf", "output": 0})
    yield json.dumps({"nx": 2, "ny": 2, "outputs": [0, 1], "root": 0, "nodes": nodes},
                     sort_keys=True)
    rng = np.random.default_rng(61)
    for size in (2, 3, 3):
        tree, prior = random_tree(rng, size, size, depth=4), random_prior(rng, size, size)
        table = rng.integers(0, 3, size=(size, size)).tolist()
        yield tree_to_json(complete_to_zero_error(tree, table, prior))


SHARED_NODE_FILES = list(shared_node_files())


def from_arrays(tree):
    """The tree from a copy of its arrays, so that nothing is inherited: its
    plan and path law come from scans."""
    return ProtocolTree(tree.nx, tree.ny, tree.outputs, arrays=(
        tree.owner, tree.signal, tree.child1, tree.copy_of, tree.alice, tree.bob))


@pytest.mark.parametrize("chunk", (1, 3))
def test_scans_are_bit_identical_at_any_chunk_size(chunk, monkeypatch):
    trees = [tree for tree, _ in INSTANCES[::4]] + [buzzer_grid_tree(GridWalkSpec(256, 128, 64))]
    trees += [tree_from_json(text) for text in SHARED_NODE_FILES]

    def scanned(tree):
        tree = from_arrays(tree)
        law = tree.path_law
        flipped = flip_tree(tree, 0, 1, 0.3).path_law
        return law.factors.tobytes(), tuple(law.leaf_ids), tree.depth(), flipped.factors.tobytes()

    want = [scanned(tree) for tree in trees]
    monkeypatch.setattr(protocol, "SCAN_CHUNK_PATHS", chunk)
    assert [scanned(tree) for tree in trees] == want


@pytest.mark.parametrize("k", range(len(SHARED_NODE_FILES)))
def test_shared_node_files_round_trip_and_match_node_built_trees(k):
    text = SHARED_NODE_FILES[k]
    tree = tree_from_json(text)
    assert tree_to_json(tree) == text
    assert len(json.loads(text)["nodes"]) < len(tree.owner)  # each shared node written once
    prior = random_prior(np.random.default_rng(len(text)), tree.nx, tree.ny)
    table = np.random.default_rng(3).integers(0, 2, size=(tree.nx, tree.ny)).tolist()
    assert_flip_and_completion_match(tree, prior, table)


@pytest.mark.parametrize("table", ([[0, 0], [0, 0]], [[0, 2], [0, 0]]))
def test_a_completion_with_no_reached_test_keeps_the_law(table):
    # every leaf answers 0 and (0, 1) has no mass, so no leaf has a test
    tree = tree_from_json(SHARED_NODE_FILES[0])
    prior = JointDistribution.from_mass([[0.5, 0.0], [0.25, 0.25]])
    completed = complete_to_zero_error(tree, table, prior)
    assert completed.path_law.factors is tree.path_law.factors
    # the shared internal nodes come back once per path, as in any completion
    assert_same_tree(completed, complete_reference(tree, table, prior), prior)


@pytest.mark.parametrize("n", (64, 256, 1024, 4096, 16384))
def test_array_built_buzzer_grids_match_node_built_trees(n):
    w = JointDistribution.from_mass([[0.45, 0.15], [0.3, 0.1]])
    dec = symmetric_decomposition(w)
    spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, n)
    tree = buzzer_grid_tree(spec, dec)
    assert_same_tree(tree, buzzer_grid_tree_reference(spec), w)
    assert_flip_and_completion_match(tree, w, AND_TABLE)


# A grid walk ships the scan plan and path law that scans of its arrays
# would give; nothing prices it by a derived plan or a scan.

GRID_NS = (2, 3, 16, 64, 1024, 16384)


def seeded_grid_priors(n):
    """Priors zero at (1, 1) and of full support, seeded by n."""
    rng = np.random.default_rng(n)
    for w11 in (0.0, 0.1, 0.2):
        s, q = rng.uniform(0.3, 0.6), rng.uniform(0.1, 0.9)
        yield JointDistribution.from_mass([[1.0 - s - w11, s * q], [s * (1.0 - q), w11]])


def grid_cases(n):
    """(spec, prior): the seeded priors' grid walks, then the edge starts
    under one prior: no phase (a = 0 or b = 0), a = n > b and a < b."""
    for w in seeded_grid_priors(n):
        dec = symmetric_decomposition(w)
        yield GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, n)[0], w
    w = JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
    for a, b in ((0, n // 2), (n // 2, 0), (n, max(1, n // 3)), (max(1, n // 3), n)):
        yield GridWalkSpec(n, a, b), w


@pytest.mark.parametrize("chunk", (None, 1, 3))
@pytest.mark.parametrize("n", GRID_NS)
def test_grid_walks_ship_the_plan_and_law_that_scans_give(n, chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(protocol, "SCAN_CHUNK_PATHS", chunk)
    for spec, w in grid_cases(n):
        tree = buzzer_grid_tree(spec)
        want = from_arrays(tree)
        got, scanned = tree.path_law, want.path_law
        assert got.factors.tobytes() == scanned.factors.tobytes()
        assert got.outputs == scanned.outputs
        if n <= 256:
            assert tuple(got.leaf_ids) == tuple(scanned.leaf_ids)
        assert tree.depth() == want.depth() == len(spec.bob)
        # the flip scans with the shipped plan; the completion inherits the law
        for derive in (lambda t: flip_tree(t, 0, 1, 0.05),
                       lambda t: complete_to_zero_error(t, AND_TABLE, w)):
            assert derive(tree).path_law.factors.tobytes() == \
                derive(want).path_law.factors.tobytes()


def test_grid_walks_price_without_a_plan_or_a_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("a grid walk derived a scan plan or ran a scan")

    monkeypatch.setattr(protocol, "_plan", refuse)
    monkeypatch.setattr(protocol, "_scan", refuse)
    for n in GRID_NS[:-1]:
        for w in seeded_grid_priors(n):
            dec = symmetric_decomposition(w)
            spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, n)
            tree = buzzer_grid_tree(spec, dec)
            law = law_of(tree, w)
            cost_report(law), sim(law, dec), potential_of_tree(tree, 0.8, dec)
            law_of(complete_to_zero_error(tree, AND_TABLE, w), w)
            one_sided_and(0.05, w, n=n)
        for spec, w in grid_cases(n):
            cost_report(law_of(buzzer_grid_tree(spec), w))


def test_reading_leaf_ids_runs_no_plan_and_no_scan(monkeypatch):
    # every tree renders its ids from its own owner and child1 arrays
    w = JointDistribution.uniform(2, 2)
    walk_tree = buzzer_grid_tree(GridWalkSpec(256, 128, 64))
    trees = [walk_tree, flip_tree(walk_tree, 0, 1, 0.05),
             complete_to_zero_error(walk_tree, AND_TABLE, w),
             tree_from_json(SHARED_NODE_FILES[0]), tree_from_json(SHARED_NODE_FILES[1])]
    laws = [law_of(tree, w) for tree in trees]
    want = [law_of_reference(tree, w).leaf_ids for tree in trees]  # sorted node-walk paths

    def refuse(*args):
        raise AssertionError("reading leaf ids derived a scan plan or ran a scan")

    monkeypatch.setattr(protocol, "_plan", refuse)
    monkeypatch.setattr(protocol, "_scan", refuse)
    for law, ids in zip(laws, want):
        assert tuple(law.leaf_ids) == ids
        assert [law.leaf_ids[i] for i in (0, 1, len(ids) // 2, -1, -2)] == \
            [ids[i] for i in (0, 1, len(ids) // 2, -1, -2)]
        assert law.leaf_ids[1:-1:3] == ids[1:-1:3] and law.leaf_ids[::-5] == ids[::-5]


def test_grid_walk_at_65536_builds_and_prices_under_the_scans_peak():
    # building this walk (65 536 phases) and scanning its path law peaked at
    # 13 772 778 bytes (tracemalloc, Python 3.11, numpy 2.4); written from
    # its phases, the law takes one (phases + 1) x 4 array, 10 427 713 bytes
    n = 2**16
    tracemalloc.start()
    try:
        buzzer_grid_tree(GridWalkSpec(n, n // 2, n // 4)).path_law
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13_772_778


@pytest.fixture(scope="module")
def priced_laws():
    """(law, decomposition or None, its costs at the default block size)
    for the random-tree and buzzer-grid cases and their completed trees."""
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
    costs = dataclasses.asdict(cost_report(law))
    if dec is not None:
        costs["sim"] = sim(law, dec)
    return costs


@pytest.mark.parametrize("transcripts", (1, 3, 7))
def test_block_wise_sums_are_bit_identical_at_any_block_size(
    transcripts, priced_laws, monkeypatch
):
    # no longer bit for bit: at any block size each cost stays within its
    # stated bound of the exact value, so within twice it of the default's
    bounds = [cost_bounds(law, dec) for law, dec, _ in priced_laws]
    for (law, dec, default), bound in zip(priced_laws, bounds):
        cells = transcripts * law.prior.nx * law.prior.ny
        monkeypatch.setattr(infocost, "SUM_BLOCK_CELLS", cells)
        for name, value in prices(law, dec).items():
            assert abs(value - default[name]) <= 2 * bound[name], name


def test_leaf_posteriors_match_one_fsum_per_row(priced_laws):
    # a row of k nonnegative cells sums within (k − 1)·2⁻⁵³ of its exact sum,
    # and each posterior adds the two divisions' rounding
    for law, dec, _ in priced_laws:
        rtol = (law.prior.nx * law.prior.ny + 2) * 2.0**-53
        for prior in [None] + ([dec.pretend.as_joint()] if dec else []):
            got, want = infocost.leaf_posteriors(law, prior), leaf_posteriors_reference(law, prior)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.all(np.abs(a - b) <= rtol * b)


def test_ic_functions_equal_the_cost_report_bit_for_bit(priced_laws):
    for law, _, _ in priced_laws:
        report = cost_report(law)
        assert internal_ic(law).hex() == report.ic_internal.hex()
        assert external_ic(law).hex() == report.ic_external.hex()


def assert_flip_reuses_the_plan(tree, x0=0, x1=1, eps=0.05):
    """The flipped tree scans with ``tree``'s plan, and its path law is the
    one that a plan derived from its own arrays gives."""
    flipped = flip_tree(tree, x0, x1, eps)
    assert flipped.plan is tree.plan
    fresh = protocol._plan(flipped.owner, flipped.child1)
    assert [[a.tobytes() for a in group] for group in fresh] == \
        [[a.tobytes() for a in group] for group in tree.plan]
    arrays = tuple(getattr(flipped, name) for name in (
        "owner", "signal", "child1", "copy_of", "alice", "bob"))
    want = ProtocolTree(tree.nx, tree.ny, tree.outputs, arrays=arrays, plan=fresh).path_law
    got = flipped.path_law
    assert tuple(got.leaf_ids) == tuple(want.leaf_ids)
    assert got.factors.tobytes() == want.factors.tobytes()
    assert got.outputs == want.outputs
    return flipped


@pytest.mark.parametrize("k", range(0, len(INSTANCES), 5))
def test_flipped_random_trees_share_the_scan_plan(k):
    tree, _ = INSTANCES[k]
    flipped = assert_flip_reuses_the_plan(tree, 1, 0, 0.3)
    assert_flip_reuses_the_plan(flipped, 0, 1, 0.1)


@pytest.mark.parametrize("n, w, dec, tree", BUZZERS[:4], ids=BUZZER_IDS[:4])
def test_flipped_caterpillars_share_the_scan_plan(n, w, dec, tree):
    flipped = assert_flip_reuses_the_plan(tree)
    assert_flip_reuses_the_plan(flipped, 1, 0, 0.5)


@pytest.mark.parametrize("k", range(len(SHARED_NODE_FILES)))
def test_flipped_shared_node_files_share_the_scan_plan(k):
    flipped = assert_flip_reuses_the_plan(tree_from_json(SHARED_NODE_FILES[k]))
    assert_flip_reuses_the_plan(flipped, 1, 0, 0.2)


def assert_flip_ships_the_scanned_factors(tree, x0=0, x1=1, eps=0.05):
    """The flipped tree comes with its path law, and its factors are those
    of a scan of its own arrays with a plan of its own, bit for bit."""
    flipped = flip_tree(tree, x0, x1, eps)
    assert flipped._law is not None
    owner, child1 = flipped.owner, flipped.child1
    want = protocol._leaf_factors(protocol._plan(owner, child1), (owner < 0).nonzero()[0],
                                  owner, flipped.signal, child1, flipped.alice, flipped.bob,
                                  flipped.nx, flipped.ny)
    got = flipped.path_law.factors
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    return flipped


@pytest.mark.parametrize("k", range(0, len(INSTANCES), 3))
def test_flipped_random_trees_ship_the_scanned_factors(k):
    tree, prior = INSTANCES[k]
    fresh = from_arrays(tree)  # a parent whose law was never derived
    flipped = assert_flip_ships_the_scanned_factors(fresh, 1, 0, 0.3)
    assert_flip_ships_the_scanned_factors(flipped, 0, 1, 1.0)
    table = np.random.default_rng(k).integers(0, 3, size=(tree.nx, tree.ny)).tolist()
    assert_flip_ships_the_scanned_factors(complete_to_zero_error(flipped, table, prior), 0, 1, 0.1)


@pytest.mark.parametrize("n, w, dec, tree", BUZZERS, ids=BUZZER_IDS)
def test_flipped_caterpillars_ship_the_scanned_factors(n, w, dec, tree):
    flipped = assert_flip_ships_the_scanned_factors(tree)
    assert_flip_ships_the_scanned_factors(from_arrays(tree), 1, 0, 0.5)
    completed = complete_to_zero_error(flipped, AND_TABLE, w)
    assert_flip_ships_the_scanned_factors(completed, 1, 0, 0.2)


@pytest.mark.parametrize("k", range(len(SHARED_NODE_FILES)))
def test_flipped_shared_node_files_ship_the_scanned_factors(k):
    tree = tree_from_json(SHARED_NODE_FILES[k])
    assert tree._law is None
    flipped = assert_flip_ships_the_scanned_factors(tree, 0, 1, 0.2)
    assert_flip_ships_the_scanned_factors(flipped, 1, 0, 0.7)


def test_a_flip_of_a_known_law_scans_one_column_and_logs_only_what_it_reads(monkeypatch):
    # the grid walk ships its law and the completion inherits it, so besides
    # the flip's log-weight scan (x0 and x1) the one scan left is column x1
    n, w, dec, tree = next(case for case in BUZZERS if case[0] == 2048 and case[1].mass[1, 1])
    scans, logs = [], []
    scan, log = protocol._scan, math.log

    def counted_scan(plan, op, edges, identity):
        scans.append((op, edges.shape[1]))
        return scan(plan, op, edges, identity)

    def counted_log(v):
        logs.append(v)
        return log(v)

    for module in (protocol, and_protocols):
        monkeypatch.setattr(module, "_scan", counted_scan)
    monkeypatch.setattr(math, "log", counted_log)
    flipped = flip_tree(tree, 0, 1, 0.05)
    assert 0 < len(logs) <= np.count_nonzero(tree.owner == 0)
    law = law_of(complete_to_zero_error(flipped, AND_TABLE, w), w)
    cost_report(law), internal_ic(law), sim(law, dec)
    evaluate_error_law(law, Task(AND_TABLE, 1.0, "distributional", measure=w))
    assert scans == [(np.add, 2), (np.multiply, 1)]


@pytest.mark.parametrize("cells", (4, 16, None))
def test_entropy_blocks_match_the_masked_kernel_bit_for_bit(cells, priced_laws, monkeypatch):
    # blocks of one or a few transcripts: whole blocks of zero cells, blocks
    # with some, and none; the kernel sets its own error state
    if cells is not None:
        monkeypatch.setattr(infocost, "SUM_BLOCK_CELLS", cells)
    kinds = set()
    for law, _, _ in priced_laws:
        j = law.joint()
        margins = [infocost._margin(j, axis) for axis in (1, 2, (1, 2))]
        for weight in (j, law.cond):
            with np.errstate(divide="raise", invalid="raise"):
                got = infocost._neg_plogq_sums(weight, j, margins)
            want = neg_plogq_sums_masked(weight, j, margins)
            assert [v.hex() for v in got] == [v.hex() for v in want]
        rows = j.reshape(len(j), -1)
        kinds.add((bool(np.any(rows == 0.0)), bool(np.any(np.all(rows == 0.0, axis=1)))))
    assert kinds == {(False, False), (True, False), (True, True)}


def test_outputs_read_as_the_tuple_the_path_law_held():
    trees = [tree for tree, _ in INSTANCES] + [tree for *_, tree in BUZZERS[:4]]
    trees += [tree_from_json(text) for text in SHARED_NODE_FILES]
    trees += [complete_to_zero_error(tree, table, prior) for tree, table, prior in
              COMPLETION_CASES[::7]]
    for tree in trees:
        got, want = tree.path_law.outputs, path_outputs_reference(tree)
        assert got == want and tuple(got) == want and list(got) == list(want)
        assert [type(out) for out in got] == [type(out) for out in want]
        assert [got[i] for i in (0, -1, len(want) // 2)] == [want[i] for i in (0, -1, len(want) // 2)]
        assert got[1::2] == want[1::2]


def says_one_by_list(law):
    """The "says 1" table by the transcripts listed one by one."""
    return law.cond[[t for t, out in enumerate(law.outputs) if out == 1]].sum(axis=0)


def assert_twins_price_alike(law, table):
    """The law and its twin built from plain tuples: the same error report,
    "says 1" table and round record, bit for bit, as the per-transcript loops."""
    twin = TranscriptLaw(law.prior, tuple(law.leaf_ids), law.cond, tuple(law.outputs))
    assert twin.outputs == law.outputs
    task = Task(table, 1.0, "distributional", measure=law.prior)
    want = evaluate_error_reference(law, task)
    for one in (law, twin):
        report = evaluate_error_law(one, task)
        assert report.max_pointwise.hex() == float(np.max(want)).hex()
        assert report.distributional.hex() == float(np.sum(task.measure.mass * want)).hex()
        assert _Round(one).says.tobytes() == says_one_by_list(law).tobytes()


def test_laws_from_tuples_price_as_their_law_of_twins():
    for k, (tree, prior) in enumerate(INSTANCES):
        table = np.random.default_rng(k).integers(0, 3, size=(tree.nx, tree.ny)).tolist()
        law = law_of(complete_to_zero_error(tree, table, prior), prior)
        assert_twins_price_alike(law, table)
        mixed = mix_with_abort(law, 0.25)  # an abort answering None joins the alphabet
        assert tuple(mixed.outputs) == tuple(law.outputs) + (None,)
        assert_twins_price_alike(mixed, table)
    for n, w, dec, tree in BUZZERS:
        flipped = one_sided_and(0.05, w, n=n)  # its check reads the "says 1" table
        assert_twins_price_alike(flipped, AND_TABLE)
        assert_twins_price_alike(law_of(tree, w), AND_TABLE)


# A completed tree inherits its path law from its base tree: every round
# signals with an identity row, so each factor a round adds is exactly 0 or 1,
# and a round leaf's row is its base leaf's row times a 0/1 mask.

def assert_inherits_the_scanned_law(tree, table, prior):
    """The completed tree's law, inherited, against the law that scans of its
    own arrays give, bit for bit, and its ids against the node walk's."""
    completed = complete_to_zero_error(tree, table, prior)
    got = completed.path_law
    arrays = tuple(getattr(completed, name) for name in (
        "owner", "signal", "child1", "copy_of", "alice", "bob"))
    want = ProtocolTree(completed.nx, completed.ny, completed.outputs, arrays=arrays).path_law
    assert got.factors.shape == want.factors.shape
    assert np.array_equal(got.factors.view(np.int64), want.factors.view(np.int64))
    assert got.outputs == want.outputs
    ref = law_of_reference(completed, prior)
    assert tuple(got.leaf_ids) == ref.leaf_ids
    assert got.outputs == ref.outputs
    return completed


def completion_cases():
    """Random trees with tables over {0, 1, 2} and constant ones, so that some
    outputs have no tests; sparse priors leave some leaves unreached."""
    for k, (tree, prior) in enumerate(INSTANCES):
        table = np.random.default_rng(k).integers(0, 3, size=(tree.nx, tree.ny)).tolist()
        yield tree, table, prior
        yield tree, [[k % 2] * tree.ny] * tree.nx, prior


COMPLETION_CASES = list(completion_cases())


def test_completion_cases_skip_outputs_and_leaves():
    skipped_outputs = unreached = 0
    for tree, table, prior in COMPLETION_CASES:
        cells = [(x, y) for x in range(tree.nx) for y in range(tree.ny) if prior.mass[x, y] > 0]
        skipped_outputs += any(all(table[x][y] == z for x, y in cells) for z in tree.outputs)
        prob, _ = infocost.leaf_posteriors(law_of(tree, prior))
        unreached += bool(np.any(prob == 0.0))
    assert skipped_outputs >= 10 and unreached >= 5


@pytest.mark.parametrize("k", range(len(COMPLETION_CASES)))
def test_completed_random_trees_inherit_the_scanned_law(k):
    tree, table, prior = COMPLETION_CASES[k]
    assert_inherits_the_scanned_law(tree, table, prior)
    assert_inherits_the_scanned_law(flip_tree(tree, 1, 0, 0.3), table, prior)


@pytest.mark.parametrize("n, w, dec, tree", BUZZERS, ids=BUZZER_IDS)
def test_completed_caterpillars_inherit_the_scanned_law(n, w, dec, tree):
    assert_inherits_the_scanned_law(tree, AND_TABLE, w)
    assert_inherits_the_scanned_law(flip_tree(tree, 0, 1, 0.05), AND_TABLE, w)


@pytest.mark.parametrize("k", range(len(SHARED_NODE_FILES)))
def test_completed_shared_node_files_inherit_the_scanned_law(k):
    tree = tree_from_json(SHARED_NODE_FILES[k])
    rng = np.random.default_rng(k)
    prior = sparse_prior(rng, tree.nx, tree.ny)
    table = rng.integers(0, 2, size=(tree.nx, tree.ny)).tolist()
    completed = assert_inherits_the_scanned_law(tree, table, prior)
    assert_inherits_the_scanned_law(completed, table, random_prior(rng, tree.nx, tree.ny))


@pytest.mark.parametrize("n, w, dec, tree", BUZZERS[:2], ids=BUZZER_IDS[:2])
def test_pricing_a_completed_tree_derives_no_scan_plan(n, w, dec, tree):
    completed = complete_to_zero_error(flip_tree(tree, 0, 1, 0.05), AND_TABLE, w)
    law = law_of(completed, w)
    cost_report(law), internal_ic(law), external_ic(law), sim(law, dec)
    evaluate_error_law(law, Task(AND_TABLE, 1.0, "distributional", measure=w))
    ids = tuple(law.leaf_ids)  # spliced from the base tree's ids, without a plan either
    assert len(ids) == len(law.leaf_ids) == law.transcript_count()
    assert completed._plan is None
    assert [[a.tobytes() for a in group] for group in completed.plan] == \
        [[a.tobytes() for a in group] for group in protocol._plan(completed.owner,
                                                                   completed.child1)]


def test_spliced_ids_index_and_slice_as_a_tuple_does():
    tree, prior = INSTANCES[3]
    table = [[1 - (x + y) % 2 for y in range(tree.ny)] for x in range(tree.nx)]
    ids = law_of(complete_to_zero_error(tree, table, prior), prior).leaf_ids
    as_tuple = tuple(ids)
    assert len(as_tuple) > 2 * len(law_of(tree, prior).leaf_ids)
    assert ids == as_tuple and ids == list(as_tuple) and ids != as_tuple[:-1]
    for i in (0, 1, 7, len(ids) // 2, -1, -2, -len(ids)):
        assert ids[i] == as_tuple[i]
    for part in (slice(None, 2), slice(-3, None), slice(1, 40, 3), slice(None, None, -2),
                 slice(500, 600), slice(0, 0)):
        assert ids[part] == as_tuple[part]
    for i in (len(ids), -len(ids) - 1):
        with pytest.raises(IndexError):
            ids[i]


@st.composite
def margin_arrays(draw):
    """(T, nx, ny) arrays, T from 1 to 64 and nx, ny from 1 to 9, filled from
    a drawn pool of zeros of either sign, subnormals and values of any
    exponent and sign."""
    shape = draw(st.integers(1, 64)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cell = st.one_of(
        st.floats(-1e300, 1e300),
        st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 3 * 2.0**-1074)),
        st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-1074, 990)))
    pool = np.array(draw(st.lists(cell, min_size=1, max_size=12)), dtype=float)
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(pool, shape)


@settings(max_examples=300, deadline=None)
@given(margin_arrays(), st.sampled_from((1, 2)))
def test_margins_are_numpys_sums_bit_for_bit(a, axis):
    want = a.sum(axis=axis, keepdims=True)
    got = infocost._margin(a, axis)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_grid_leaf_law_reads_as_a_sequence():
    spec = GridWalkSpec(64, 32, 16)
    leaves, want = grid_leaf_law(spec), grid_leaf_law_reference(spec)
    assert len(leaves) == len(want) == len(spec.bob) + 1
    assert repr(list(grid_leaf_law(spec))) == repr(want)
    assert repr(list(leaves)) == repr(want)
    assert leaves == want and leaves == tuple(want) and leaves != want[:-1]
    for i in (0, 5, -1, -2, -len(want)):
        assert repr(leaves[i]) == repr(want[i])
    for part in (slice(None, 3), slice(-4, None), slice(1, 40, 7), slice(None, None, -5),
                 slice(500, 600)):
        assert repr(leaves[part]) == repr(tuple(want[part]))
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            leaves[i]
    first, *_, last = grid_leaf_law(spec)
    assert (first, last) == (want[0], want[-1]) and last.final and not first.final
    (only,) = grid_leaf_law(GridWalkSpec(8, 8, 8))
    assert repr(only) == repr(grid_leaf_law_reference(GridWalkSpec(8, 8, 8))[0])


@st.composite
def small_priors(draw):
    """Priors on 1×1 to 4×4 with zero rows and columns, point masses, and
    cells down to SNAP_EPS beside cells of any size."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell = st.one_of(st.just(0.0), st.sampled_from((SNAP_EPS, 2 * SNAP_EPS, 1e-12)),
                     st.floats(SNAP_EPS, 1.0))
    raw = np.array(draw(st.lists(cell, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    raw[draw(st.lists(st.integers(0, nx - 1), max_size=3))] = 0.0
    raw[:, draw(st.lists(st.integers(0, ny - 1), max_size=3))] = 0.0
    if draw(st.booleans()):
        raw[:] = 0.0
    raw[draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))] = draw(st.floats(0.5, 1.0))
    tiny = raw < 1e-9  # kept as they are, so that masses reach SNAP_EPS
    scale = (1.0 - math.fsum(raw[tiny].tolist())) / math.fsum(raw[~tiny].tolist())
    return JointDistribution.from_mass(np.where(tiny, raw, raw * scale))


@settings(max_examples=300, deadline=None)
@given(small_priors())
def test_entropy_profile_is_the_per_cell_loops_bit_for_bit(d):
    got, want = entropy_profile(d), entropy_profile_reference(d)
    assert [float.hex(v) for v in dataclasses.astuple(got)] == \
        [float.hex(v) for v in dataclasses.astuple(want)]

