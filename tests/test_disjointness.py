import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import infowalk
from infowalk import disjointness
from infowalk.and_protocols import one_sided_and
from infowalk.disjointness import (
    HARDEST_ZERO_DIAG_PRIOR,
    DisjInstance,
    disj_bound_curve,
    disj_error_audit,
    disj_ic_exact,
    disj_protocol,
    disj_table,
)
from infowalk.distributions import JointDistribution, truncated_entropy
from infowalk.errors import PreconditionError, ProtocolError, ResourceCapError
from infowalk.infocost import TranscriptLaw, internal_ic

from helpers import disj_mc_audit_reference, random_prior

W = JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
UNIFORM = JointDistribution.uniform(2, 2)
THIN = JointDistribution.from_mass([[0.7, 0.15], [0.14, 0.01]])


def grid4(prior, eps):
    return one_sided_and(eps, prior, n=4)


def grid8(prior, eps):
    return one_sided_and(eps, prior, n=8)


def grid16(prior, eps):
    return one_sided_and(eps, prior, n=16)


def test_instance_p_one():
    inst = DisjInstance.iid(W, 2)
    assert inst.p_one == pytest.approx(1 - 0.9**2, abs=1e-12)
    with pytest.raises(PreconditionError):
        DisjInstance.from_priors([JointDistribution.uniform(2, 3)])
    with pytest.raises(PreconditionError):
        DisjInstance.from_priors([])


def test_joint_prior_is_product():
    inst = DisjInstance.iid(W, 2)
    prior = inst.joint_prior()
    # bit i of the index is coordinate i
    assert prior.mass[0b01, 0b10] == pytest.approx(
        W.mass[1, 0] * W.mass[0, 1], rel=1e-12
    )
    assert prior.mass.sum() == pytest.approx(1.0, abs=1e-12)


def test_disj_table():
    t = disj_table(2)
    assert t[0b00, 0b11] == 0
    assert t[0b01, 0b01] == 1
    assert t[0b01, 0b10] == 0
    assert t[0b11, 0b10] == 1


def test_all_empty_coordinates_never_err():
    empty = JointDistribution.from_mass([[1.0, 0.0], [0.0, 0.0]])
    inst = DisjInstance.iid(empty, 2)
    assert inst.p_one == 0.0
    law = disj_protocol(inst, 0.0, grid16)
    assert law.leaf_ids == ("",) and law.outputs == (0,)


def test_trivial_when_intersection_unlikely():
    thin = JointDistribution.from_mass([[0.7, 0.15], [0.14, 0.01]])
    inst = DisjInstance.iid(thin, 2)
    assert inst.p_one < 0.5
    law = disj_protocol(inst, 0.5, grid16)
    assert law.outputs == (0,)
    assert internal_ic(law) == 0.0


def test_audit_mode_is_honoured_at_any_n():
    # one exact audit at every n whose table fits; seed and samples are read
    # by nothing
    for n in (2, 5, 10):
        inst = DisjInstance.iid(W, n)
        audit = disj_error_audit(inst, 0.1, grid4)
        assert audit.mode == "exact" and not audit.trivial
        assert np.all(audit.per_input[disj_table(n) == 0] == 0.0)
        assert audit_fields(disj_error_audit(
            inst, 0.1, grid4, seed=3, samples=20)) == audit_fields(audit)


def test_n1_reduces_to_the_subprotocol():
    inst = DisjInstance.iid(W, 1)
    eps = 0.05
    composite = disj_protocol(inst, eps, grid16)
    sub = one_sided_and(eps / (2 * inst.p_one), W, n=16)
    assert internal_ic(composite) == pytest.approx(internal_ic(sub), abs=1e-12)


def test_exact_error_table_n2():
    inst = DisjInstance.iid(W, 2)
    eps = 0.1
    audit = disj_error_audit(inst, eps, grid16)
    assert audit.mode == "exact"
    assert audit.eps_round == pytest.approx(eps / (2 * inst.p_one), rel=1e-12)
    truth = disj_table(2)
    for x in range(4):
        for y in range(4):
            t = bin(x & y).count("1")
            if truth[x, y] == 0:
                assert audit.per_input[x, y] == 0.0  # one-sided, exactly
            else:
                assert audit.per_input[x, y] == pytest.approx(
                    audit.eps_round**t, abs=1e-10
                )
    assert audit.distributional < eps


def test_distributional_error_below_half_budget():
    # the audit argument gives p * eps/(2p) = eps/2 as the true ceiling
    inst = DisjInstance.iid(W, 3)
    audit = disj_error_audit(inst, 0.1, grid8)
    assert audit.distributional < 0.05


def test_expected_rounds_bound():
    # the rounded form needs n >= 3; at n = 2 the pre-rounding display holds
    eps = 0.1
    for n, factory in ((3, grid8), (4, grid4)):
        inst = DisjInstance.iid(W, n)
        audit = disj_error_audit(inst, eps, factory)
        p = inst.p_one
        assert audit.expected_rounds <= (1 - p / 3 + eps / 4) * n
    inst = DisjInstance.iid(W, 2)
    audit = disj_error_audit(inst, eps, grid16)
    p = inst.p_one
    assert audit.expected_rounds <= p * 1.5 + eps * 2 / 4 + (1 - p) * 2


def test_exact_mode_caps_coordinates():
    def forbidden(prior, eps):
        raise AssertionError("an AND law was built before the cap check")

    inst = DisjInstance.iid(W, 5)
    with pytest.raises(ResourceCapError):
        disj_protocol(inst, 0.1, grid4)
    with pytest.raises(ResourceCapError):
        disj_protocol(inst, 0.1, forbidden)
    # the exact cost has no composite cap: it needs only the coordinate laws
    four = DisjInstance.iid(W, 4)
    assert disj_ic_exact(four, 0.1, grid4) == pytest.approx(
        chain_rule_enumeration(four, 0.1, grid4)[0], abs=1e-12
    )


def test_iid_makes_no_n_references():
    # an instance holds runs of equal adjacent priors, so iid(W, 10⁷) is one
    # run, not 80 MB of references, and from_priors collapses adjacent priors
    tracemalloc.start()
    try:
        inst = DisjInstance.iid(W, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert inst.n == 10**7 and inst.runs == ((W, 10**7),)
    mixed = DisjInstance.from_priors((W, UNIFORM, W, W, UNIFORM))
    assert mixed.runs == ((W, 1), (UNIFORM, 1), (W, 2), (UNIFORM, 1))
    assert mixed.coord_priors == (W, UNIFORM, W, W, UNIFORM) and mixed.n == 5
    with pytest.raises(PreconditionError):
        DisjInstance.iid(W, 0)
    with pytest.raises(TypeError):
        DisjInstance.iid(W, 2.5)


def test_factory_failure_is_wrapped():
    def broken(prior, eps):
        raise ValueError("nope")

    with pytest.raises(ProtocolError):
        disj_protocol(DisjInstance.iid(W, 2), 0.1, broken)


def test_ic_subadditive_over_coordinates():
    inst = DisjInstance.iid(W, 2)
    eps = 0.1
    ic2 = disj_ic_exact(inst, eps, grid16)
    per_coord = internal_ic(one_sided_and(eps / (2 * inst.p_one), W, n=16))
    assert ic2 <= 2 * per_coord + 1e-9


def test_zero_error_composition_is_permutation_invariant():
    inst = DisjInstance.iid(W, 2)
    law = disj_protocol(inst, 0.0, grid16)
    values = []
    for tag in ("01", "10"):
        idx = [k for k, lid in enumerate(law.leaf_ids) if lid.startswith(tag + "|")]
        sub = TranscriptLaw(
            law.prior,
            tuple(law.leaf_ids[k] for k in idx),
            law.cond[idx] * 2.0,
            tuple(law.outputs[k] for k in idx),
        )
        values.append(internal_ic(sub))
    assert values[0] == pytest.approx(values[1], abs=1e-9)


def test_bound_curve_shape():
    eps_grid = [10.0**k for k in range(-6, -1)]
    curve = disj_bound_curve(eps_grid)
    points = list(curve)
    assert [pt.epsilon for pt in points] == eps_grid
    for pt in points:
        # first-order balance at the optimizer
        assert pt.p_star == pytest.approx(
            truncated_entropy(pt.epsilon / pt.p_star), abs=1e-12
        )
        assert pt.gain > 0.0
    gains = [pt.gain for pt in points]
    assert gains == sorted(gains)  # looser budgets give bigger savings
    # eps -> 0 recovers the zero-error ceiling
    tiny = disj_bound_curve([1e-12]).points[0]
    assert tiny.bound == pytest.approx(0.4827018481689195, abs=1e-3)
    assert 0.4 <= curve.fitted_exponent <= 0.6


def test_bound_curve_balances_p():
    pt = disj_bound_curve([1e-3]).points[0]
    assert abs(pt.p_star - truncated_entropy(1e-3 / pt.p_star)) <= 1e-12
    expect = (1 - pt.p_star / 3 + 1e-3 / 4) * (
        0.4827018481689195 - truncated_entropy(1e-3 / pt.p_star)
    )
    assert pt.bound == pytest.approx(expect, abs=1e-10)
    with pytest.raises(PreconditionError):
        disj_bound_curve([0.7])


# ---------------------------------------------------------------------------
# the factorized exact path against its slow oracles
# ---------------------------------------------------------------------------

def composite_audit(inst, eps, factory):
    """(per_input, distributional, expected_rounds) read off the composite
    law of ``disj_protocol``, transcript by transcript."""
    law = disj_protocol(inst, eps, factory)
    truth = disj_table(inst.n)
    mass = inst.joint_prior().mass
    err = np.zeros_like(mass)
    rounds = 0.0
    for t, out in enumerate(law.outputs):
        err += law.cond[t] * (out != truth)
        _, _, tail = law.leaf_ids[t].partition("|")
        ran = len(tail.split(";")) if tail else 0
        rounds += ran * float(np.sum(mass * law.cond[t]))
    return err, float(np.sum(mass * err)), rounds


def chain_rule_enumeration(inst, eps, factory):
    """(IC, expected rounds) by walking all n! permutations: round j of σ
    runs when rounds σ_1..σ_{j−1} all said 0 and then pays its AND cost."""
    if inst.p_one == 0.0 or inst.p_one < eps:
        return 0.0, 0.0
    eps_round = eps / (2.0 * inst.p_one)
    costs, miss = [], []
    for w in inst.coord_priors:
        law = factory(w, eps_round)
        costs.append(internal_ic(law))
        zero = [t for t, out in enumerate(law.outputs) if out == 0]
        miss.append(float((law.cond[zero].sum(axis=0) * w.mass).sum()))
    ic = rounds = 0.0
    orders = list(permutations(range(inst.n)))
    for sigma in orders:
        reach = 1.0
        for coord in sigma:
            ic += reach * costs[coord]
            rounds += reach
            reach *= miss[coord]
    return ic / len(orders), rounds / len(orders)


def leaky(prior, eps):
    """A hand-made round that also answers 1 off (1, 1), so that disjoint
    inputs err and every cell of the general formula is exercised."""
    says_one = np.array([[0.0, 0.2], [0.05, 0.7]])
    share = np.array([[0.5, 0.3], [0.6, 0.1]])  # of the 1s, on transcript "b"
    cond = np.stack([1.0 - says_one, says_one * share, says_one * (1.0 - share)])
    return TranscriptLaw(prior, ("a", "b", "c"), cond, (0, 1, 1))


def leaky_by_prior(prior, eps):
    """A leaky round whose table depends on its coordinate's prior, so that a
    table put on the wrong coordinate shows: a grid round's table does not."""
    law = leaky(prior, eps)
    scale = np.array([1.0, 0.5 + 0.5 * prior.mass[0, 0], 0.5 + 0.5 * prior.mass[0, 0]])
    cond = law.cond * scale[:, None, None]
    cond[0] = 1.0 - cond[1:].sum(axis=0)
    return TranscriptLaw(prior, law.leaf_ids, cond, law.outputs)


def grid64(prior, eps):
    return one_sided_and(eps, prior, n=64)


PRIOR_SETS = {
    "uniform": (UNIFORM,),
    "full": (W,),
    "uniform+uniform": (UNIFORM, UNIFORM),
    "uniform+hardest": (UNIFORM, HARDEST_ZERO_DIAG_PRIOR),
    "hardest+full": (HARDEST_ZERO_DIAG_PRIOR, W),
    "full+uniform": (W, UNIFORM),
    "hardest+hardest": (HARDEST_ZERO_DIAG_PRIOR, HARDEST_ZERO_DIAG_PRIOR),
}


@pytest.mark.parametrize("factory", [grid16, grid64, leaky, leaky_by_prior],
                         ids=["grid16", "grid64", "leaky", "leaky-by-prior"])
@pytest.mark.parametrize("priors", PRIOR_SETS.values(), ids=PRIOR_SETS.keys())
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_factorized_audit_matches_composite_law(priors, factory, eps):
    inst = DisjInstance.from_priors(priors)
    audit = disj_error_audit(inst, eps, factory)
    err, distributional, rounds = composite_audit(inst, eps, factory)
    assert audit.mode == "exact"
    assert audit.per_input.shape == err.shape
    assert np.max(np.abs(audit.per_input - err)) <= 1e-12
    assert abs(audit.distributional - distributional) <= 1e-12
    assert abs(audit.expected_rounds - rounds) <= 1e-12
    if factory in (grid16, grid64):
        assert np.all(audit.per_input[disj_table(inst.n) == 0] == 0.0)


@pytest.mark.parametrize("factory", [grid16, leaky], ids=["grid16", "leaky"])
@pytest.mark.parametrize("priors", PRIOR_SETS.values(), ids=PRIOR_SETS.keys())
def test_ic_matches_composite_law(priors, factory):
    inst = DisjInstance.from_priors(priors)
    composite = internal_ic(disj_protocol(inst, 0.1, factory))
    assert disj_ic_exact(inst, 0.1, factory) == pytest.approx(composite, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 7))
def test_ic_matches_permutation_enumeration(n):
    rng = np.random.default_rng(100 + n)
    priors = [random_prior(rng, 2, 2) for _ in range(n - 1)]
    priors.append(HARDEST_ZERO_DIAG_PRIOR)
    inst = DisjInstance.from_priors(priors)
    for factory in (grid4, leaky):
        ic, rounds = chain_rule_enumeration(inst, 0.1, factory)
        assert disj_ic_exact(inst, 0.1, factory) == pytest.approx(ic, abs=1e-12)
        if n <= 4:
            audit = disj_error_audit(inst, 0.1, factory)
            assert audit.expected_rounds == pytest.approx(rounds, abs=1e-12)


def test_exact_path_never_builds_the_composite_law(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the composite law was built")

    monkeypatch.setattr(disjointness, "_composite_law", forbidden)
    for n in range(1, 5):
        inst = DisjInstance.from_priors([W, UNIFORM, HARDEST_ZERO_DIAG_PRIOR, W][:n])
        audit = disj_error_audit(inst, 0.05, grid4)
        assert audit.mode == "exact" and not audit.trivial
        assert disj_ic_exact(inst, 0.05, grid4) > 0.0


def test_ic_at_two_hundred_coordinates(monkeypatch):
    def forbidden(self):
        raise AssertionError("the joint prior was built")

    monkeypatch.setattr(DisjInstance, "joint_prior", forbidden)
    n, eps = 200, 0.1
    inst = DisjInstance.iid(W, n)
    ic = disj_ic_exact(inst, eps, grid4)
    # iid: each coordinate sits at a uniform position, so its round runs
    # with probability (1/n) Σ_j m^j; summed over n coordinates the cost is
    # IC(AND)·(1 − mⁿ)/(1 − m)
    law = grid4(W, eps / (2.0 * inst.p_one))
    m = float((law.cond[[t for t, o in enumerate(law.outputs) if o == 0]]
               .sum(axis=0) * W.mass).sum())
    expect = internal_ic(law) * (1.0 - m**n) / (1.0 - m)
    assert ic == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n", [4, 5], ids=lambda n: f"{n}-exact")
def test_trivial_audit_reports_the_always_zero_error(n):
    inst = DisjInstance.iid(THIN, n)
    assert inst.p_one < 0.5
    audit = disj_error_audit(inst, 0.5, grid16)
    assert audit.mode == "exact" and audit.trivial
    assert np.array_equal(audit.per_input, disj_table(n).astype(float))
    assert audit.distributional == pytest.approx(inst.p_one, abs=1e-12)
    assert audit.expected_rounds == 0.0


# ---------------------------------------------------------------------------
# the exact audit against the one-run-at-a-time reference sampler, and the
# cap on its table
# ---------------------------------------------------------------------------

def round_moments(inst, laws):
    """Exact E[rounds] and E[rounds²] on every composite input, flattened, by
    enumerating the n! orders: the run stops at the first round saying 1."""
    says = np.stack([
        law.cond[[t for t, o in enumerate(law.outputs) if o == 1]].sum(axis=0)
        for law in laws
    ])
    size = 2**inst.n
    cells = np.arange(size * size)
    x, y = cells // size, cells % size
    o = np.stack([says[c, (x >> c) & 1, (y >> c) & 1] for c in range(inst.n)])
    orders = list(permutations(range(inst.n)))
    m1 = np.zeros(cells.size)
    m2 = np.zeros(cells.size)
    for sigma in orders:
        alive = np.ones(cells.size)
        for j, c in enumerate(sigma, start=1):
            stop = alive if j == inst.n else alive * o[c]
            m1 += j * stop
            m2 += j * j * stop
            alive = alive * (1.0 - o[c])
    return m1 / len(orders), m2 / len(orders)


def audit_fields(audit):
    return (audit.distributional, audit.per_input.tolist(), audit.eps_round,
            audit.expected_rounds, audit.trivial, audit.mode)


def assert_within_5_se(inst, laws, exact, err, rounds, samples, per_input=True):
    """Sampled errors and rounds within 5 standard errors of the exact audit.

    With ``per_input`` off, each input is checked only where its error is
    certain (0 or 1): over 4ⁿ inputs of few samples each, some input whose
    error is near 0 strays past 5 of its own standard errors by chance."""
    p = exact.per_input
    tol = 5.0 * np.sqrt(p * (1.0 - p) / samples) + 1e-12
    checked = np.ones(p.shape, bool) if per_input else (p == 0.0) | (p == 1.0)
    assert np.all(np.abs(err - p)[checked] <= tol[checked])
    mass = inst.joint_prior().mass
    se = math.sqrt(float(np.sum(mass**2 * p * (1.0 - p))) / samples)
    assert abs(float(np.sum(mass * err)) - exact.distributional) <= 5.0 * se + 1e-12
    mass = mass.reshape(-1)
    m1, m2 = round_moments(inst, laws)
    assert float(np.sum(mass * m1)) == pytest.approx(exact.expected_rounds, abs=1e-12)
    se = math.sqrt(float(np.sum(mass**2 * (m2 - m1**2))) / samples)
    assert abs(rounds - exact.expected_rounds) <= 5.0 * se


@pytest.mark.parametrize("factory", [grid16, leaky], ids=["grid16", "leaky"])
@pytest.mark.parametrize(
    "priors", [(UNIFORM, W), (UNIFORM, W, HARDEST_ZERO_DIAG_PRIOR)], ids=["n2", "n3"]
)
def test_mc_audit_agrees_with_exact_within_5_se(priors, factory):
    inst = DisjInstance.from_priors(priors)
    exact = disj_error_audit(inst, 0.1, factory)
    assert exact.distributional == pytest.approx(
        float(np.sum(inst.joint_prior().mass * exact.per_input)), abs=1e-15
    )
    laws = [factory(w, exact.eps_round) for w in priors]
    err, rounds = disj_mc_audit_reference(inst, laws, seed=12, samples=200)
    assert_within_5_se(inst, laws, exact, err, rounds, 200)


def test_mc_audit_tracks_exact():
    # past the composite law's reach: n = 5, 1024 inputs of 30 runs each
    priors = (W, UNIFORM, HARDEST_ZERO_DIAG_PRIOR, THIN, W)
    inst = DisjInstance.from_priors(priors)
    for seed, factory in ((13, grid16), (14, leaky)):
        exact = disj_error_audit(inst, 0.1, factory)
        laws = [factory(w, exact.eps_round) for w in priors]
        err, rounds = disj_mc_audit_reference(inst, laws, seed=seed, samples=30)
        assert_within_5_se(inst, laws, exact, err, rounds, 30, per_input=False)


def test_table_cap_is_checked_before_any_work(monkeypatch):
    # past the cap the audit builds nothing of 4ⁿ cells: neither the joint
    # prior nor the function table, and no array near the 32 MB that 4¹¹
    # floats would take (tracemalloc sees numpy's buffers)
    def forbidden(*args, **kwargs):
        raise AssertionError("a table over 4ⁿ inputs was built")

    monkeypatch.setattr(DisjInstance, "joint_prior", forbidden)
    monkeypatch.setattr(disjointness, "disj_table", forbidden)
    for w, eps, factory in ((W, 0.1, grid4), (W, 0.1, leaky), (THIN, 0.5, forbidden)):
        inst = DisjInstance.iid(w, 11)
        tracemalloc.start()
        try:
            audit = disj_error_audit(inst, eps, factory)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert audit.per_input is None and audit.mode == "exact"
        assert peak < 2**20
        assert audit.trivial == (factory is forbidden)  # the always-0 protocol too
        # leaky rounds err on disjoint inputs, so only the others meet ε
        assert 0.0 < audit.distributional < (1.0 if factory is leaky else eps)


@pytest.mark.parametrize("cap", [4, 15, 16, 100, 256])
def test_table_cap_admits_exactly_the_tables_that_fit(monkeypatch, cap):
    # the cap decides only whether per_input is built; every other field is
    # the same either side of it
    cases = [(DisjInstance.iid(w, n), eps, factory) for n in range(1, 6)
             for w, eps, factory in ((W, 0.1, grid4), (W, 0.1, leaky), (THIN, 0.5, grid4))]
    whole = [disj_error_audit(*case) for case in cases]
    monkeypatch.setattr(disjointness, "AUDIT_TABLE_CAP", cap)
    for (inst, eps, factory), full in zip(cases, whole):
        audit = disj_error_audit(inst, eps, factory)
        if 4**inst.n <= cap:
            assert np.array_equal(audit.per_input, full.per_input)
        else:
            assert audit.per_input is None
        assert replace(audit, per_input=None) == replace(full, per_input=None)


def test_factory_runs_once_per_distinct_prior():
    calls = []

    def counting(prior, eps):
        calls.append(prior.mass.tobytes())
        return grid8(prior, eps)

    inst = DisjInstance.iid(W, 4)
    disj_error_audit(inst, 0.1, counting)
    assert len(calls) == 1
    disj_ic_exact(inst, 0.1, counting)
    assert len(calls) == 2
    calls.clear()
    mixed = DisjInstance.from_priors((W, UNIFORM, W, UNIFORM))
    disj_error_audit(mixed, 0.1, counting)
    assert len(calls) == 2 and len(set(calls)) == 2

    def fails_off_w(prior, eps):
        if prior is not W:
            raise ValueError("unsupported prior")
        return grid8(prior, eps)

    with pytest.raises(ProtocolError, match="coordinate 1: unsupported prior"):
        disj_error_audit(mixed, 0.1, fails_off_w)
    # the failing prior first appears inside a later run: its coordinate, not
    # its run, is named
    with pytest.raises(ProtocolError, match="coordinate 2: unsupported prior"):
        disj_error_audit(DisjInstance.from_priors((W, W, THIN)), 0.1, fails_off_w)


@pytest.mark.parametrize("priors", [(W,) * 64, (W, UNIFORM, THIN, W, UNIFORM, W)],
                         ids=["iid", "mixed"])
def test_ic_prices_each_distinct_law_once(monkeypatch, priors):
    inst = DisjInstance.from_priors(priors)
    laws, says = zip(*disjointness._rounds(inst, disjointness._round_budget(inst, 0.1), grid8))
    per_coordinate = math.fsum(
        float(r) * internal_ic(law) for r, law in zip(disjointness._reach(inst, says), laws)
    )
    priced = []

    def counting(law):
        priced.append(law)
        return internal_ic(law)

    monkeypatch.setattr(disjointness, "internal_ic", counting)
    assert disj_ic_exact(inst, 0.1, grid8) == per_coordinate  # bit for bit
    assert len(priced) == len(set(map(id, laws))) == len(set(priors))


# ---------------------------------------------------------------------------
# the stated tolerances of the product forms
# ---------------------------------------------------------------------------

def hardest_plus(delta):
    """The hardest zero-diagonal prior with mass delta moved onto (1, 1)."""
    mass = (1.0 - delta) * HARDEST_ZERO_DIAG_PRIOR.mass
    mass[1, 1] += delta
    return JointDistribution.from_mass(mass)


def seeded_priors(n):
    rng = np.random.default_rng(200 + n)
    return tuple(random_prior(rng, 2, 2) for _ in range(n))


ORACLE_PRIORS = {
    "uniform": lambda n: (UNIFORM,) * n,
    "seeded": seeded_priors,
    "hardest+delta": lambda n: (hardest_plus(1.0 / n),) * n,
    # long runs: each enters the sums once, as hi^m − lo^m
    "full": lambda n: (W,) * n,
    "runs-4-3-3": lambda n: ((W,) * 4 + (UNIFORM,) * 3 + (THIN,) * 3)[:n],
}


def exact_distributional(inst, says):
    """Σ prior ⊙ error in rational arithmetic on the float inputs: the
    intersecting mass Π A − Π B plus the disjoint mass Π D − Π B, where D
    sums the prior off (1, 1) as the joint prior's disjoint cells do."""
    a = b = d = Fraction(1)
    for (w, count), o in zip(inst.runs, says):
        cells = [(Fraction(w.mass[i, j]), Fraction(o[i, j])) for i in (0, 1) for j in (0, 1)]
        silent = [m * (1 - p) for m, p in cells]
        a *= sum(silent) ** count
        b *= sum(silent[:3]) ** count
        d *= sum(m for m, _ in cells[:3]) ** count
    return (a - b) + (d - b)


@pytest.mark.parametrize("priors", ORACLE_PRIORS.values(), ids=ORACLE_PRIORS.keys())
@pytest.mark.parametrize("n", range(2, 11))
def test_distributional_error_within_1e_15_of_the_table_oracle(priors, n):
    # the product forms against Σ joint prior ⊙ per_input, and against exact
    # arithmetic within (2n + 6)·2⁻⁵³ relative, which a disjoint part formed
    # as a float difference D − B exceeds 7-fold.  Over these cases and
    # ε ∈ {0, 0.01, 0.1, 0.5} (non-trivial audits) they are at most 2.2e-16
    # apart and 0.38 of the bound on the uniform, seeded and hardest+delta
    # sets, 2.8e-16 and 0.37 on runs-4-3-3, and 4.4e-16 and 0.60 on full
    inst = DisjInstance.from_priors(priors(n))
    mass = inst.joint_prior().mass
    for factory in (grid16, leaky, leaky_by_prior):
        for eps in (0.0, 0.1):
            audit = disj_error_audit(inst, eps, factory)
            oracle = float(np.sum(mass * audit.per_input))
            assert abs(audit.distributional - oracle) <= 1e-15
            _, says = zip(*disjointness._rounds(inst, audit.eps_round, factory))
            exact = exact_distributional(inst, says)
            assert abs(Fraction(audit.distributional) - exact) <= (2 * n + 6) * 2.0**-53 * exact
            if factory is grid16:  # one-sided rounds: the disjoint part is exactly 0
                assert np.all(audit.per_input[disj_table(n) == 0] == 0.0)


def grid256(prior, eps):
    return one_sided_and(eps, prior, n=256)


LAPACK_PROBE = """
import numpy as np
calls = []
eigh = np.linalg.eigh
np.linalg.eigh = lambda *args, **kwargs: calls.append(1) or eigh(*args, **kwargs)
import infowalk as iw
w = iw.JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
iw.ic_and_zero(w)
iw.buzzer_grid_tree(iw.GridWalkSpec(64, 32, 16))
seen = [len(calls)]
for _ in range(2):
    iw.disj_error_audit(iw.DisjInstance.iid(w, 3), 0.1,
                        lambda prior, e: iw.one_sided_and(e, prior, n=16))
    seen.append(len(calls))
print(seen)
"""


def test_the_quadrature_rule_is_made_on_first_use():
    # importing the package, the AND closed form and a grid walk make no
    # eigh call; the first audit solves the rule once, and a second reuses it
    package_root = str(Path(infowalk.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", LAPACK_PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": package_root}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 1, 1]"


REACH_REL_TOL = 2e-15  # the reach's stated tolerance against exact arithmetic


@pytest.mark.parametrize("n", [1, 2, 10, 100, 1000, 4000, 4096, 10**6, 10**7])
def test_reach_within_its_stated_bound_at_large_n(n):
    # iid rounds that each say 1 with probability a sum to (1 − (1 − a)ⁿ)/a,
    # here in 40-digit arithmetic on the float tables
    inst = DisjInstance.iid(UNIFORM, n)
    _, says = zip(*disjointness._rounds(inst, disjointness._round_budget(inst, 0.1), grid256))
    with localcontext() as ctx:
        ctx.prec = 40
        a = sum(Decimal(w) * Decimal(o) for w, o in zip(UNIFORM.mass.flat, says[0].flat))
        expect = (1 - (1 - a) ** n) / a
        reach = disjointness._reach(inst, says)
        assert reach.shape == (1,)
        assert abs(Decimal(float(reach[0])) - expect) <= Decimal(REACH_REL_TOL) * expect


def exact_reach(inst, says):
    """Each run's summed reach, Σ_c ∫₀¹ Π_{k≠c} (1 − t·a_k) dt over its
    coordinates c, in rational arithmetic on the float tables."""
    a = [sum(Fraction(w) * Fraction(o) for w, o in zip(prior.mass.flat, o_run.flat))
         for (prior, _), o_run in zip(inst.runs, says)]
    coords = [j for j, (_, count) in enumerate(inst.runs) for _ in range(count)]
    reach = [Fraction(0)] * len(inst.runs)
    for c, run in enumerate(coords):
        poly = [Fraction(1)]  # coefficients of t⁰, t¹, …
        for k, other in enumerate(coords):
            if k != c:
                poly = [p - a[other] * q for p, q in zip(poly + [0], [0] + poly)]
        reach[run] += sum(coef / (i + 1) for i, coef in enumerate(poly))
    return reach


MIXED_RUNS = {
    "W,U,W,W,U": (W, UNIFORM, W, W, UNIFORM),
    "hardest,W,hardest": (HARDEST_ZERO_DIAG_PRIOR, W, HARDEST_ZERO_DIAG_PRIOR),
    "U*3,thin*5": (UNIFORM,) * 3 + (THIN,) * 5,
    "seeded-8": seeded_priors(8),
}


@pytest.mark.parametrize("priors", MIXED_RUNS.values(), ids=MIXED_RUNS.keys())
def test_reach_of_mixed_runs_within_its_stated_bound_of_exact(priors):
    # equal priors in runs apart share a law and a reach per coordinate
    inst = DisjInstance.from_priors(priors)
    for factory in (grid16, leaky_by_prior):
        _, says = zip(*disjointness._rounds(inst, disjointness._round_budget(inst, 0.05), factory))
        reach = disjointness._reach(inst, says)
        assert reach.shape == (len(inst.runs),)
        for got, exact in zip(reach, exact_reach(inst, says)):
            assert abs(Fraction(float(got)) - exact) <= Fraction(REACH_REL_TOL) * exact
