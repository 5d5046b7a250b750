import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from infowalk import (
    Decomposition,
    DistributionError,
    JointDistribution,
    PreconditionError,
    ProductDistribution,
    ShapeMismatchError,
    UndefinedProductError,
    binary_entropy,
    entropy_profile,
    odot,
    symmetric_decomposition,
    truncated_entropy,
)

from infowalk.distributions import _overlap

from helpers import inner, random_prior, random_symmetric_decomposition, total_variation


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.25) - 0.8112781244591328) < 1e-12


def test_binary_entropy_domain():
    with pytest.raises(PreconditionError):
        binary_entropy(-0.001)
    with pytest.raises(PreconditionError):
        binary_entropy(1.001)
    # inside the slack the argument is clamped
    assert binary_entropy(1.0 + 1e-13) == 0.0
    assert binary_entropy(-1e-13) == 0.0


def test_binary_entropy_is_positive_zero_at_the_ends():
    for x in (0.0, 1.0):
        assert math.copysign(1.0, binary_entropy(x)) == 1.0
        assert math.copysign(1.0, truncated_entropy(x)) == 1.0


def test_nan_is_outside_every_probability_range():
    nan = float("nan")
    with pytest.raises(PreconditionError):
        binary_entropy(nan)
    with pytest.raises(PreconditionError):
        truncated_entropy(nan)
    with pytest.raises(PreconditionError):
        ProductDistribution(nan, 0.5)
    with pytest.raises(PreconditionError):
        ProductDistribution(0.5, nan)


@given(st.floats(min_value=1e-9, max_value=0.5))
def test_binary_entropy_bounds(x):
    h = binary_entropy(x)
    assert x * math.log2(1 / x) <= h + 1e-12
    assert h <= 2 * x * math.log2(1 / x) + 1e-12


def test_truncated_entropy_values():
    assert truncated_entropy(0.0) == 0.0
    assert truncated_entropy(0.75) == 1.0
    assert truncated_entropy(7.0) == 1.0
    assert abs(truncated_entropy(0.1) - 0.4689955935892812) < 1e-12
    with pytest.raises(PreconditionError):
        truncated_entropy(-0.5)


def test_truncated_entropy_dominance():
    for x in np.linspace(0.0, 1.0, 201):
        hb = truncated_entropy(x)
        assert hb >= binary_entropy(min(x, 1.0)) - 1e-12
        assert hb >= min(x, 1.0) - 1e-12


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_truncated_entropy_subadditive(a, b):
    assert truncated_entropy(a + b) <= (
        truncated_entropy(a) + truncated_entropy(b) + 1e-12
    )


def test_truncated_entropy_monotone():
    grid = np.linspace(0.0, 2.0, 400)
    vals = [truncated_entropy(x) for x in grid]
    assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))


def test_joint_distribution_validation():
    # every check keeps its exception and its message
    for mass, message in (
        ([[0.5, 0.6], [0.0, 0.0]], r"total mass 1\.1 is not 1"),
        ([[0.5, 0.5 + 1e-11], [0.0, 0.0]], r"total mass 1\.00000000001 is not 1"),
        ([[1.1, -0.1], [0.0, 0.0]], "mass entries must be nonnegative"),
        ([[float("nan"), 1.0], [0.0, 0.0]], "mass entries must be finite"),
        ([[float("inf"), 0.0], [0.0, 0.0]], "mass entries must be finite"),
    ):
        with pytest.raises(DistributionError, match=f"^{message}$"):
            JointDistribution.from_mass(mass)
    with pytest.raises(ShapeMismatchError, match=r"^mass shape \(2, 2\) != \(2, 3\)$"):
        JointDistribution(2, 3, np.full((2, 2), 0.25))
    d = JointDistribution.from_mass([[1.0, -1e-16], [0.0, 0.0]])  # dust, not a negative
    assert d.mass[0, 1] == 0.0 and math.copysign(1.0, d.mass[0, 1]) == 1.0


def test_joint_distribution_snaps_dust_to_zero():
    d = JointDistribution.from_mass([[1.0 - 1e-16, 1e-16], [0.0, 0.0]])
    assert d.mass[0, 1] == 0.0
    assert d.support().sum() == 1


def test_joint_distribution_immutable():
    d = JointDistribution.uniform(2, 2)
    with pytest.raises(ValueError):
        d.mass[0, 0] = 0.9


def test_odot_uniform_identity():
    nu = JointDistribution.from_mass([[0.4, 0.1], [0.3, 0.2]])
    out = odot(JointDistribution.uniform(2, 2), nu)
    assert total_variation(out, nu) < 1e-15


def test_odot_point_mass_renormalizes():
    nu = JointDistribution.from_mass([[1.0, 0.0], [0.0, 0.0]])
    mu = JointDistribution.from_mass([[0.1, 0.2], [0.3, 0.4]])
    out = odot(nu, mu)
    assert out.mass[0, 0] == 1.0


def test_odot_product_with_uniform_marginals_is_identity():
    nu = JointDistribution.from_mass([[0.4, 0.1], [0.1, 0.4]])
    mu = ProductDistribution(0.5, 0.5).as_joint()
    assert total_variation(odot(nu, mu), nu) < 1e-15


def test_odot_undefined_on_disjoint_supports():
    a = JointDistribution.from_mass([[1.0, 0.0], [0.0, 0.0]])
    b = JointDistribution.from_mass([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(UndefinedProductError):
        odot(a, b)


def test_entropy_profile_examples():
    diag = JointDistribution.from_mass([[0.5, 0.0], [0.0, 0.5]])
    prof = entropy_profile(diag)
    assert abs(prof.h_x_given_y) < 1e-12
    assert abs(prof.h_xy - 1.0) < 1e-12

    uni = JointDistribution.uniform(2, 2)
    prof = entropy_profile(uni)
    assert abs(prof.h_x_given_y - 1.0) < 1e-12
    assert abs(prof.h_xy - 2.0) < 1e-12

    three = JointDistribution.from_mass([[1 / 3, 1 / 3], [1 / 3, 0.0]])
    assert abs(entropy_profile(three).h_xy - math.log2(3)) < 1e-12


def test_entropy_profile_chain_rule_on_random_distributions():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        d = JointDistribution.from_mass(
            rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
        )
        prof = entropy_profile(d)
        assert abs(prof.h_xy - (prof.h_x + prof.h_y_given_x)) < 1e-10
        assert abs(prof.h_xy - (prof.h_y + prof.h_x_given_y)) < 1e-10


def test_total_variation():
    d = JointDistribution.uniform(2, 2)
    assert total_variation(d, d) == 0.0
    a = JointDistribution.from_mass([[1.0, 0.0], [0.0, 0.0]])
    b = JointDistribution.from_mass([[0.0, 0.0], [0.0, 1.0]])
    assert total_variation(a, b) == 1.0
    c = JointDistribution.from_mass([[1.0, 0.0], [0.0, 0.0]])
    e = JointDistribution.from_mass([[0.5, 0.5], [0.0, 0.0]])
    assert abs(total_variation(c, e) - 0.5) < 1e-15
    with pytest.raises(ShapeMismatchError):
        total_variation(d, JointDistribution.uniform(2, 3))


def test_symmetric_decomposition_uniform():
    dec = symmetric_decomposition(JointDistribution.uniform(2, 2))
    assert abs(dec.pretend.q - 0.5) < 1e-15
    assert abs(dec.pretend.p - 0.5) < 1e-15
    assert total_variation(dec.reference, JointDistribution.uniform(2, 2)) < 1e-12


def test_symmetric_decomposition_symmetric_input_is_fixed_point():
    w = JointDistribution.from_mass([[0.4, 0.15], [0.15, 0.3]])
    dec = symmetric_decomposition(w)
    assert abs(dec.pretend.q - 0.5) < 1e-15
    assert total_variation(dec.reference, w) < 1e-12


def test_symmetric_decomposition_worked_example():
    w = JointDistribution.from_mass([[0.4, 0.2], [0.3, 0.1]])
    dec = symmetric_decomposition(w)
    assert abs(dec.pretend.q - 0.4) < 1e-15
    expected = np.array([[8, 6], [6, 3]]) / 23
    assert np.max(np.abs(dec.reference.mass - expected)) < 1e-12
    assert total_variation(dec.compose(), w) < 1e-10


def test_symmetric_decomposition_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        w = random_prior(rng, 2, 2)
        dec = symmetric_decomposition(w)
        assert abs(dec.reference.mass[0, 1] - dec.reference.mass[1, 0]) < 1e-15
        assert inner(dec) > 0.0
        assert total_variation(dec.compose(), w) < 1e-10


def test_symmetric_decomposition_requires_positive_corner_entries():
    with pytest.raises(DistributionError):
        symmetric_decomposition(
            JointDistribution.from_mass([[0.0, 0.5], [0.25, 0.25]])
        )
    # w(1,1) = 0 is allowed
    dec = symmetric_decomposition(
        JointDistribution.from_mass([[0.4, 0.3], [0.3, 0.0]])
    )
    assert dec.reference.mass[1, 1] == 0.0


def test_inner_is_the_sum_of_the_entrywise_product_bit_for_bit():
    # the overlap that ic_and_zero divides by, added left to right from the
    # masses, is numpy's sum of the 2x2 entrywise product
    def overlap(dec):
        return _overlap(dec.reference.mass.ravel().tolist(),
                        dec.pretend.as_joint().mass.ravel().tolist())

    rng = np.random.default_rng(41)
    for _ in range(200):
        dec = random_symmetric_decomposition(rng, lo=float(rng.choice([1e-3, 0.05])))
        assert overlap(dec).hex() == inner(dec).hex()
        pretend = ProductDistribution(*rng.uniform(0.01, 0.99, size=2))
        moved = dataclasses.replace(dec, pretend=pretend)
        assert overlap(moved).hex() == inner(moved).hex()
        assert overlap(moved) != overlap(dec)


def test_decomposition_rejects_zero_overlap_when_made():
    nu = JointDistribution.from_mass([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(UndefinedProductError, match="zero overlap"):
        Decomposition(nu, ProductDistribution(1.0, 0.5))
