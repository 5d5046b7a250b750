import math

import numpy as np
import pytest

from infowalk import (
    ALICE,
    BOB,
    Decomposition,
    DecompositionMismatchError,
    DistributionError,
    Internal,
    JointDistribution,
    Leaf,
    ProductDistribution,
    ProtocolTree,
    TranscriptLaw,
    cost_report,
    entropy_profile,
    external_ic,
    internal_ic,
    law_of,
    pretend_step,
    sim,
    walk,
)

from helpers import (
    exchange_tree,
    external_reference,
    ic_reference,
    pretend_prob,
    random_law,
    random_prior,
    random_symmetric_decomposition,
    random_tree,
)


def alice_reveal_tree():
    return ProtocolTree(2, 2, (0, 1), Internal(ALICE, (0.0, 1.0), Leaf(0), Leaf(1)))


def test_law_of_single_leaf():
    law = law_of(ProtocolTree(2, 2, (0,), Leaf(0)), JointDistribution.uniform(2, 2))
    assert law.transcript_count() == 1
    assert np.all(law.cond == 1.0)


def test_law_of_reveal_and_coin():
    law = law_of(alice_reveal_tree(), JointDistribution.uniform(2, 2))
    by_id = dict(zip(law.leaf_ids, law.cond))
    assert np.array_equal(by_id["0"], [[1.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(by_id["1"], [[0.0, 0.0], [1.0, 1.0]])

    coin = ProtocolTree(2, 2, (0, 1), Internal(ALICE, (0.5, 0.5), Leaf(0), Leaf(1)))
    law = law_of(coin, JointDistribution.uniform(2, 2))
    assert np.all(law.cond == 0.5)


def test_transcript_law_validation():
    prior = JointDistribution.uniform(2, 2)
    bad = np.full((2, 2, 2), 0.4)  # sums to .8 per input
    sums = "conditional transcript probabilities do not sum to 1 on the support"
    with pytest.raises(DistributionError, match=f"^{sums}$"):
        TranscriptLaw(prior, ("a", "b"), bad)
    with pytest.raises(DistributionError):
        TranscriptLaw(prior, ("a",), np.full((1, 2, 2), 1.2))
    # the probabilities of both transcripts at the input (1, 0), just past each check
    outside = r"conditional probabilities outside \[0, 1\]"
    for cells, message in (((-1e-9, 1.0 + 1e-9), outside), ((1.0 + 1e-9, 0.0), outside),
                           ((0.9, 0.0), sums)):
        cond = np.zeros((2, 2, 2))
        cond[0] = 1.0
        cond[:, 1, 0] = cells
        with pytest.raises(DistributionError, match=f"^{message}$"):
            TranscriptLaw(prior, ("a", "b"), cond)
    cond = np.zeros((2, 2, 2))
    cond[0] = 1.0
    with pytest.raises(DistributionError, match="^outputs length does not match transcripts$"):
        TranscriptLaw(prior, ("a", "b"), cond, outputs=(0,))
    cond[0, 1] = 0.0  # the row x = 1 sums to 0: allowed where the prior has no mass
    law = TranscriptLaw(JointDistribution.from_mass([[0.5, 0.5], [0.0, 0.0]]), ("a", "b"), cond)
    assert law.cond[:, 1].sum() == 0.0
    with pytest.raises(DistributionError, match=f"^{sums}$"):
        TranscriptLaw(prior, ("a", "b"), cond)


def test_internal_ic_examples():
    uni = JointDistribution.uniform(2, 2)
    const = law_of(ProtocolTree(2, 2, (0,), Leaf(0)), uni)
    assert internal_ic(const) == 0.0

    diag = JointDistribution.from_mass([[0.5, 0.0], [0.0, 0.5]])
    ex = law_of(exchange_tree(2, 2, [[0, 1], [1, 0]]), diag)
    assert abs(internal_ic(ex)) < 1e-12

    reveal = law_of(alice_reveal_tree(), uni)
    assert abs(internal_ic(reveal) - 1.0) < 1e-12


def test_external_ic_examples():
    uni = JointDistribution.uniform(2, 2)
    const = law_of(ProtocolTree(2, 2, (0,), Leaf(0)), uni)
    assert external_ic(const) == 0.0
    reveal = law_of(alice_reveal_tree(), uni)
    assert abs(external_ic(reveal) - 1.0) < 1e-12
    diag = JointDistribution.from_mass([[0.5, 0.0], [0.0, 0.5]])
    ex = law_of(exchange_tree(2, 2, [[0, 1], [1, 0]]), diag)
    assert abs(external_ic(ex) - 1.0) < 1e-12


def test_costs_match_slow_reference_and_identities():
    rng = np.random.default_rng(31)
    for _ in range(20):
        nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        tree = random_tree(rng, nx, ny, depth=4)
        prior = random_prior(rng, nx, ny)
        law = law_of(tree, prior)
        report = cost_report(law)
        assert abs(report.ic_internal - ic_reference(law)) < 1e-9
        assert abs(report.ic_external - external_reference(law)) < 1e-9
        prof = entropy_profile(prior)
        assert abs(
            report.ic_internal + report.ci_internal
            - (prof.h_x_given_y + prof.h_y_given_x)
        ) < 1e-9
        assert abs(report.ic_external + report.ci_external - prof.h_xy) < 1e-9
        assert report.ic_internal >= -1e-12
        assert report.ic_external >= report.ic_internal / 2 - 1e-9
        assert report.ic_external <= 2 * math.log2(nx * ny) + 1e-9


def test_sim_constant_and_full_reveal():
    rng = np.random.default_rng(41)
    dec = random_symmetric_decomposition(rng)
    prior = dec.compose()
    const = law_of(ProtocolTree(2, 2, (0,), Leaf(0)), prior)
    prof = entropy_profile(prior)
    expected = dec.inner() * (prof.h_x_given_y + prof.h_y_given_x)
    assert abs(sim(const, dec) - expected) < 1e-12

    full = law_of(exchange_tree(2, 2, [[0, 0], [0, 1]]), prior)
    assert abs(sim(full, dec)) < 1e-12


def test_sim_matches_scaled_concealed_information():
    rng = np.random.default_rng(43)
    for _ in range(20):
        dec = random_symmetric_decomposition(rng)
        prior = dec.compose()
        tree = random_tree(rng, 2, 2, depth=4)
        law = law_of(tree, prior)
        expected = dec.inner() * cost_report(law).ci_internal
        assert abs(sim(law, dec) - expected) < 1e-9


def test_sim_rejects_mismatched_prior():
    rng = np.random.default_rng(47)
    dec = random_symmetric_decomposition(rng)
    law = law_of(alice_reveal_tree(), JointDistribution.uniform(2, 2))
    if np.max(np.abs(dec.compose().mass - 0.25)) > 1e-6:
        with pytest.raises(DecompositionMismatchError):
            sim(law, dec)


def test_pretend_prob_round_trip_and_step_sum():
    rng = np.random.default_rng(53)
    for _ in range(25):
        dec = random_symmetric_decomposition(rng)
        prior = dec.compose()
        owner = ALICE if rng.random() < 0.5 else BOB
        signal = tuple(rng.uniform(0.1, 0.9, size=2))
        tree = ProtocolTree(2, 2, (0, 1), Internal(owner, signal, Leaf(0), Leaf(1)))
        res = walk(tree, prior)
        real = {wl.leaf_id: wl.prob for wl in res}
        pretend = pretend_step(dec.pretend, owner, signal)
        for bit, (lam_pretend, mu_b) in enumerate(pretend):
            child = Decomposition(dec.reference, mu_b)
            converted = pretend_prob(real[str(bit)], dec, child)
            assert abs(converted - lam_pretend) < 1e-12
            back = pretend_prob(converted, child, dec)
            assert abs(back - real[str(bit)]) < 1e-12
        assert abs(sum(lp for lp, _ in pretend) - 1.0) < 1e-12
        # unchanged when the pretend measure does not move
        assert pretend_prob(0.37, dec, dec) == 0.37


def test_a_law_past_the_old_cell_cap_is_priced_without_a_seed():
    # 2**18 + 2 transcripts on a 2x2 prior are 2**20 + 8 cells, just past the
    # cap above which costs were once only estimated by sampling.  t % 2
    # reveals x and the rest of t is uniform noise, so I(Π;X|Y) = H(X|Y),
    # I(Π;Y|X) = 0 and I(Π;XY) = H(X).
    T = 2**18 + 2
    prior = JointDistribution.from_mass([[0.1, 0.2], [0.3, 0.4]])
    reveals = (np.arange(T) % 2)[:, None] == np.arange(2)[None, :]  # (T, x)
    cond = np.repeat((reveals / (T // 2))[:, :, None], 2, axis=2)
    law = TranscriptLaw(prior, tuple(f"t{k}" for k in range(T)), cond)
    report = cost_report(law)
    profile = entropy_profile(prior)
    assert abs(report.ic_internal - profile.h_x_given_y) < 1e-9
    assert abs(report.ic_external - profile.h_x) < 1e-9
    assert internal_ic(law) == report.ic_internal
    assert external_ic(law) == report.ic_external


def test_many_inputs_within_the_cell_cap_are_summed_directly():
    # 2 transcripts on uniform 9x9 inputs, against the per-cell loops
    cond = np.random.default_rng(61).dirichlet([1.0, 1.0], size=(9, 9))
    law = TranscriptLaw(JointDistribution.uniform(9, 9), ("a", "b"),
                        cond.transpose(2, 0, 1))
    assert internal_ic(law) == pytest.approx(ic_reference(law), abs=1e-12)
    assert external_ic(law) == pytest.approx(external_reference(law), abs=1e-12)
