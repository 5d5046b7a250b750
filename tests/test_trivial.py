import math
from itertools import product

import numpy as np
import pytest

from infowalk.distributions import JointDistribution
from infowalk.errors import PreconditionError
from infowalk.infocost import external_ic, internal_ic, law_of
from infowalk.protocol import ALICE, BOB, Internal, Leaf, ProtocolTree, Task, evaluate_error
from infowalk.trivial import (
    _components,
    is_structurally_external_trivial,
    is_structurally_internal_trivial,
    trivial_witness_protocol,
)

from helpers import deterministic_ic_floor, root_of, support_components_reference

AND = [[0, 0], [0, 1]]
XOR = [[0, 1], [1, 0]]
DIAG = JointDistribution.from_mass([[0.5, 0.0], [0.0, 0.5]])
TENT = JointDistribution.from_mass([[1 / 3, 1 / 3], [1 / 3, 0.0]])


def set_partitions(items):
    if not items:
        yield []
        return
    head, *rest = items
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def brute_force_internal_trivial(f, mu):
    """Directly search block partitions per the structural definition."""
    table = np.array(f, dtype=object)
    support = mu.support()
    rows = [x for x in range(mu.nx) if support[x].any()]
    cols = [y for y in range(mu.ny) if support[:, y].any()]
    cells = [(x, y) for x in rows for y in cols if support[x, y]]
    for part in set_partitions(rows):
        block_of = {x: i for i, block in enumerate(part) for x in block}
        for assign in product(range(len(part)), repeat=len(cols)):
            col_block = dict(zip(cols, assign))
            if any(block_of[x] != col_block[y] for x, y in cells):
                continue
            if all(
                len(
                    {
                        table[x, y]
                        for x in part[i]
                        for y in cols
                        if col_block[y] == i
                    }
                )
                <= 1
                for i in range(len(part))
            ):
                return True
    return False


# ---------------------------------------------------------------------------
# support components
# ---------------------------------------------------------------------------

def support_cases():
    """Priors of every shape up to 6x6 with random supports, so with empty
    rows and columns, then a single cell, the diagonal and an L."""
    rng = np.random.default_rng(2)
    for _ in range(400):
        nx, ny = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        mass = rng.random((nx, ny)) * (rng.random((nx, ny)) < rng.random())
        if mass.sum() > 0:
            yield mass / mass.sum()
    yield np.ones((1, 1))
    yield np.eye(5) / 5
    yield np.array([[0.4, 0.3], [0.0, 0.3]])


def test_components_match_the_pairwise_oracle():
    for mass in support_cases():
        mu = JointDistribution.from_mass(mass)
        assert _components(mu) == support_components_reference(mu)


def test_full_support_single_component():
    assert _components(JointDistribution.uniform(2, 3)) == [((0, 1), (0, 1, 2))]


def test_diagonal_support_splits():
    assert _components(DIAG) == [((0,), (0,)), ((1,), (1,))]
    assert _components(JointDistribution.from_mass(np.eye(5) / 5)) == [
        ((i,), (i,)) for i in range(5)
    ]


def test_l_shaped_support_is_connected():
    mu = JointDistribution.from_mass([[0.4, 0.3], [0.0, 0.3]])
    assert _components(mu) == [((0, 1), (0, 1))]


def test_components_partition_vertices():
    for mass in support_cases():
        mu = JointDistribution.from_mass(mass)
        components = _components(mu)
        # every support cell lies in exactly one component's rectangle, and
        # no row or column is in two components
        for x, y in np.argwhere(mu.support()).tolist():
            assert sum(x in rows and y in cols for rows, cols in components) == 1
        for axis in (0, 1):
            items = [v for component in components for v in component[axis]]
            assert len(items) == len(set(items))


# ---------------------------------------------------------------------------
# structural triviality
# ---------------------------------------------------------------------------

def test_constant_function_always_trivial():
    mu = JointDistribution.uniform(3, 3)
    ok, blocks = is_structurally_internal_trivial(np.zeros((3, 3), dtype=int), mu)
    assert ok and len(blocks) == 1
    assert is_structurally_external_trivial(np.zeros((3, 3), dtype=int), mu)


def test_and_on_tent_measure_not_trivial():
    ok, witness = is_structurally_internal_trivial(AND, TENT)
    assert not ok and witness is None
    assert not is_structurally_external_trivial(AND, TENT)


def test_xor_on_diagonal_internal_but_not_external():
    ok, blocks = is_structurally_internal_trivial(XOR, DIAG)
    assert ok
    assert [(b.rows, b.cols, b.value) for b in blocks] == [
        ((0,), (0,), 0),
        ((1,), (1,), 0),
    ]
    assert not is_structurally_external_trivial(XOR, DIAG)


def test_external_only_sees_the_support_rectangle():
    f = [[5, 5], [5, 7]]
    mu = JointDistribution.from_mass([[0.5, 0.5], [0.0, 0.0]])
    assert is_structurally_external_trivial(f, mu)
    ok, _ = is_structurally_internal_trivial(f, mu)
    assert ok


def test_shape_mismatch_rejected():
    with pytest.raises(PreconditionError):
        is_structurally_internal_trivial(AND, JointDistribution.uniform(2, 3))


def test_agrees_with_brute_force():
    rng = np.random.default_rng(17)
    disagreements = 0
    for _ in range(500):
        nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        size = int(rng.integers(1, 6))
        cells = rng.choice(nx * ny, size=min(size, nx * ny), replace=False)
        mass = np.zeros(nx * ny)
        mass[cells] = rng.random(len(cells)) + 0.1
        mu = JointDistribution.from_mass((mass / mass.sum()).reshape(nx, ny))
        f = rng.integers(0, 2, size=(nx, ny))
        got, _ = is_structurally_internal_trivial(f, mu)
        disagreements += got != brute_force_internal_trivial(f, mu)
    assert disagreements == 0


# ---------------------------------------------------------------------------
# witness protocols
# ---------------------------------------------------------------------------

def test_constant_witness_is_single_leaf():
    mu = JointDistribution.uniform(2, 2)
    f = [[1, 1], [1, 1]]
    tree = trivial_witness_protocol(f, mu, "internal")
    assert isinstance(root_of(tree), Leaf) and root_of(tree).output == 1
    assert internal_ic(law_of(tree, mu)) == 0.0


def test_xor_diag_internal_witness():
    tree = trivial_witness_protocol(XOR, DIAG, "internal")
    report = evaluate_error(tree, Task(XOR, 0.0, "distributional", measure=DIAG))
    assert report.distributional == 0.0  # exact on the support
    assert internal_ic(law_of(tree, DIAG)) <= 1e-12


def test_one_row_support_witness():
    mu = JointDistribution.from_mass([[0.6, 0.4], [0.0, 0.0]])
    tree = trivial_witness_protocol(AND, mu, "internal")
    assert isinstance(root_of(tree), Leaf)
    assert evaluate_error(
        tree, Task(AND, 0.0, "distributional", measure=mu)
    ).distributional == 0.0


def test_external_witness():
    f = [[5, 5], [5, 7]]
    mu = JointDistribution.from_mass([[0.5, 0.5], [0.0, 0.0]])
    tree = trivial_witness_protocol(f, mu, "external")
    assert isinstance(root_of(tree), Leaf) and root_of(tree).output == 5
    assert external_ic(law_of(tree, mu)) == 0.0


def test_witness_soundness_randomized():
    # whenever triviality holds, the witness really is free and correct
    rng = np.random.default_rng(5)
    produced = 0
    for _ in range(300):
        nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        size = int(rng.integers(1, 5))
        cells = rng.choice(nx * ny, size=min(size, nx * ny), replace=False)
        mass = np.zeros(nx * ny)
        mass[cells] = rng.random(len(cells)) + 0.1
        mu = JointDistribution.from_mass((mass / mass.sum()).reshape(nx, ny))
        f = rng.integers(0, 2, size=(nx, ny))
        ok, _ = is_structurally_internal_trivial(f, mu)
        if not ok:
            continue
        produced += 1
        tree = trivial_witness_protocol(f, mu, "internal")
        report = evaluate_error(tree, Task(f, 0.0, "distributional", measure=mu))
        assert report.distributional == 0.0
        assert internal_ic(law_of(tree, mu)) <= 1e-12
    assert produced > 10


def test_witness_requires_triviality():
    with pytest.raises(PreconditionError):
        trivial_witness_protocol(AND, TENT, "internal")
    with pytest.raises(PreconditionError):
        trivial_witness_protocol(XOR, DIAG, "external")
    with pytest.raises(PreconditionError):
        trivial_witness_protocol(XOR, DIAG, "sideways")


# ---------------------------------------------------------------------------
# deterministic floor diagnostic
# ---------------------------------------------------------------------------

def test_floor_zero_for_trivial_instances():
    assert deterministic_ic_floor(XOR, DIAG) == 0.0
    mu = JointDistribution.from_mass([[0.6, 0.4], [0.0, 0.0]])
    assert deterministic_ic_floor(AND, mu) == 0.0


def test_floor_positive_for_and_on_tent():
    floor = deterministic_ic_floor(AND, TENT)
    assert floor >= 1e-3
    assert floor < 2.0


def test_floor_on_non_trivial_random_instances():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(60):
        nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        mass = rng.random((nx, ny)) * (rng.random((nx, ny)) < 0.7)
        if mass.sum() == 0:
            continue
        mu = JointDistribution.from_mass(mass / mass.sum())
        f = rng.integers(0, 2, size=(nx, ny))
        ok, _ = is_structurally_internal_trivial(f, mu)
        if ok:
            continue
        checked += 1
        assert deterministic_ic_floor(f, mu) >= 1e-3
    assert checked > 10


def test_floor_inf_when_depth_exhausted():
    mu = JointDistribution.uniform(3, 3)
    f = np.arange(9).reshape(3, 3)  # all-distinct outputs need several rounds
    assert deterministic_ic_floor(f, mu, depth=1) == math.inf
    assert deterministic_ic_floor(f, mu, depth=4) < math.inf


def test_floor_weights_each_side_by_its_probability():
    # Alice sends x, then Bob sends y only if x = 1: 1 + 1/2 bits at uniform
    uniform = JointDistribution.uniform(2, 2)
    tree = ProtocolTree(
        2, 2, (0, 1),
        Internal(ALICE, (0.0, 1.0), Leaf(0),
                 Internal(BOB, (0.0, 1.0), Leaf(0), Leaf(1))),
    )
    assert internal_ic(law_of(tree, uniform)) == pytest.approx(1.5, abs=1e-12)
    assert deterministic_ic_floor(AND, uniform) == pytest.approx(1.5, abs=1e-12)


def membership_trees(f, nx, ny, rows, cols, depth):
    """Every deterministic tree of depth ≤ ``depth`` on the rectangle
    rows × cols whose signals are membership questions splitting the
    rectangle into two non-empty parts, and whose leaves answer f correctly
    on every input that reaches them."""
    values = {f[x][y] for x in rows for y in cols}
    if len(values) == 1:
        yield Leaf(values.pop())
    if depth == 0:
        return
    for owner, items, size in ((ALICE, rows, nx), (BOB, cols, ny)):
        for mask in range(1, 2 ** len(items) - 1):
            side = tuple(v for i, v in enumerate(items) if mask >> i & 1)
            rest = tuple(v for i, v in enumerate(items) if not mask >> i & 1)
            ask = tuple(1.0 if v in side else 0.0 for v in range(size))
            if owner == ALICE:
                zeros, ones = (rest, cols), (side, cols)
            else:
                zeros, ones = (rows, rest), (rows, side)
            zero_trees = list(membership_trees(f, nx, ny, *zeros, depth - 1))
            for child1 in membership_trees(f, nx, ny, *ones, depth - 1):
                for child0 in zero_trees:
                    yield Internal(owner, ask, child0, child1)


def brute_force_floor(f, mu, depth):
    outputs = tuple(sorted({v for row in f for v in row}))
    trees = membership_trees(f, mu.nx, mu.ny, tuple(range(mu.nx)),
                             tuple(range(mu.ny)), depth)
    return min(
        (internal_ic(law_of(ProtocolTree(mu.nx, mu.ny, outputs, t), mu))
         for t in trees),
        default=math.inf,
    )


def floor_oracle_cases():
    rng = np.random.default_rng(8)
    cases = [
        (AND, JointDistribution.uniform(2, 2), 3),
        (AND, TENT, 3),
        (XOR, JointDistribution.from_mass([[0.1, 0.2], [0.3, 0.4]]), 3),
        (AND, JointDistribution.from_mass([[0.6, 0.4], [0.0, 0.0]]), 3),
    ]
    # all-distinct values behind a zero-mass row: the unreached row still
    # needs two of Bob's questions, so depth 2 is inf and depth 3 is not
    distinct = [[0, 1, 2], [3, 4, 5]]
    zero_row = JointDistribution.from_mass([[0.2, 0.3, 0.5], [0.0, 0.0, 0.0]])
    cases += [(distinct, zero_row, d) for d in (1, 2, 3)]
    for nx, ny in ((2, 2), (2, 3), (2, 3), (2, 3)):
        mass = rng.random((nx, ny)) * (rng.random((nx, ny)) < 0.75)
        mass[0, 0] += 0.1
        f = rng.integers(0, 2, size=(nx, ny)).tolist()
        cases.append((f, JointDistribution.from_mass(mass / mass.sum()), 3))
    return cases


@pytest.mark.parametrize("f, mu, depth", floor_oracle_cases())
def test_floor_equals_brute_force_minimum(f, mu, depth):
    floor = deterministic_ic_floor(f, mu, depth=depth)
    oracle = brute_force_floor(f, mu, depth)
    if oracle == math.inf:
        assert floor == math.inf
    else:
        assert floor == pytest.approx(oracle, abs=1e-12)
