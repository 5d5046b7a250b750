"""Every cost against a 40-digit oracle, within its stated error bound.

``tests/helpers.py`` states the bound of each cost as a function of the law:
COST_BOUND_ULPS·2⁻⁵³·S, where S adds weight + |weight·log₂(table/margin)|
over every cell of every entropy sum that the cost is made of.  It covers
``cost_report``'s four fields, ``internal_ic``, ``external_ic``, ``sim`` and
``entropy_profile``'s five, on 200 seeded laws on 2×2 to 4×4 (a fifth at
near-trivial priors), a law of 2¹² transcripts and two buzzer laws of
4097.
"""

import dataclasses
from decimal import Decimal

import numpy as np
import pytest

from infowalk import (
    GridWalkSpec,
    JointDistribution,
    buzzer_grid_tree,
    cost_report,
    entropy_profile,
    external_ic,
    internal_ic,
    law_of,
    sim,
    symmetric_decomposition,
)

from helpers import (
    cost_bounds,
    exact_costs,
    random_law,
    random_symmetric_decomposition,
    random_tree,
)


def near_trivial_prior(rng, nx, ny):
    """All but 10⁻⁹ to 10⁻³ of the mass on one cell, the rest spread at random."""
    rest = 10.0 ** rng.uniform(-9.0, -3.0)
    mass = rest * rng.dirichlet(np.ones(nx * ny))
    mass[rng.integers(nx * ny)] += 1.0 - rest
    return JointDistribution.from_mass(mass.reshape(nx, ny))


def seeded_cases():
    """(law, decomposition or None): trees and arbitrary laws on 2×2 to 4×4
    with up to 12 transcripts; every fifth at a near-trivial prior, and every
    fifth a 2×2 tree at a decomposition's prior, priced by ``sim`` too."""
    rng = np.random.default_rng(2026)
    for k in range(200):
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        if k % 5 == 0:
            dec = random_symmetric_decomposition(rng)
            yield law_of(random_tree(rng, 2, 2, depth=5), dec.compose()), dec
            continue
        if k % 2:
            law = random_law(rng, nx, ny, int(rng.integers(2, 13)))
        else:
            tree = random_tree(rng, nx, ny, depth=4)
            law = law_of(tree, JointDistribution.uniform(nx, ny))
        if k % 5 == 4:
            law = dataclasses.replace(law, prior=near_trivial_prior(rng, nx, ny))
        yield law, None


def wide_cases():
    """A 2×2 law of 2¹² transcripts, whose sums run over 2¹⁴ cells."""
    yield random_law(np.random.default_rng(4096), 2, 2, 2**12), None


def buzzer_cases():
    """The grid-2048 buzzer laws (4097 transcripts) at a full-support and a
    zero-at-(1,1) prior."""
    for w11 in (0.1, 0.0):
        w = JointDistribution.from_mass([[0.45, 0.15], [0.3 - w11, w11 + 0.1]])
        dec = symmetric_decomposition(w)
        spec, _ = GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, 2048)
        yield law_of(buzzer_grid_tree(spec, dec), w), dec


CASES = {"seeded": seeded_cases, "wide": wide_cases, "buzzer": buzzer_cases}


def priced(law, dec):
    """Each cost the library computes, by the oracle's names."""
    got = list(dataclasses.asdict(cost_report(law)).items())
    got += dataclasses.asdict(entropy_profile(law.prior)).items()
    got += [("ic_internal", internal_ic(law)), ("ic_external", external_ic(law))]
    if dec is not None:
        got.append(("sim", sim(law, dec)))
    return got


@pytest.mark.parametrize("group", CASES)
def test_costs_stay_within_their_bound_of_the_oracle(group):
    checked = 0
    for law, dec in CASES[group]():
        exact, bound = exact_costs(law, dec), cost_bounds(law, dec)
        for name, value in priced(law, dec):
            error = float(abs(Decimal(value) - exact[name]))
            assert error <= bound[name], (name, value, float(exact[name]), error / bound[name])
            checked += 1
    assert checked >= {"seeded": 200 * 11, "wide": 11, "buzzer": 2 * 12}[group]
