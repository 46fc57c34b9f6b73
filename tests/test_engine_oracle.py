"""The engine's category and sign-quadrant counts against their exact probabilities.

Under the normal model with n units per arm, d * sqrt(n/2) is noncentral t
with 2n - 2 degrees of freedom and noncentrality delta * sqrt(n/2), so each
of the seven category bins has an exact probability (``scipy.stats.nct``).
The two experiments of a replication pair are independent, so each sign
quadrant's probability is the product of two sign probabilities of that t.
Each batch's counts are held to them by a chi-square test whose false-alarm
rate is 1e-6. The seeds were fixed before the first run. Small arms are where
the category test has power: at n = 5 a ddof-0 sd inflates every d by
sqrt(5/4). No sign sees a scale; the sign test sees the pairing and the arm
that carries the effect.
"""

import math

import numpy as np
import pytest
from scipy import stats

from replikit.effect_size import _BANDS
from replikit.simulation import (
    SimulationConfig, pair_replications, pairing_stream, run_simulation, tabulate_categories,
    tabulate_sign_agreement,
)

RUNS = 20_000
FALSE_ALARM = 1e-6
MIN_EXPECTED = 5.0


def exact_category_probabilities(n: int, delta: float) -> np.ndarray:
    """P(d in each category), in ``EffectCategory`` order, for n per arm."""
    scale = math.sqrt(n / 2.0)
    edges = np.array([-b for b in reversed(_BANDS)] + list(_BANDS)) * scale
    cdf = stats.nct.cdf(edges, 2 * n - 2, delta * scale)
    return np.diff(np.concatenate(([0.0], cdf, [1.0])))


def pool_tails(expected: list[float], observed: list[int]) -> tuple[list[float], list[int]]:
    """Merge each tail bin into its neighbour until it expects ``MIN_EXPECTED``
    counts, so that the chi-square approximation holds in every bin."""
    for end in (0, -1):
        while expected[end] < MIN_EXPECTED:
            e, o = expected.pop(end), observed.pop(end)
            expected[end] += e
            observed[end] += o
    return expected, observed


@pytest.mark.parametrize(
    "n, delta, seed", [(5, 0.0, 2101), (5, 0.5, 2102), (30, 0.0, 2103), (30, 0.5, 2104)]
)
def test_category_counts_match_the_noncentral_t(n, delta, seed):
    config = SimulationConfig(runs=RUNS, n_per_arm=n, true_effect_d=delta, master_seed=seed)
    observed = [round(f * RUNS) for f in tabulate_categories(run_simulation(config)).values()]
    assert_chi_square_fits(list(RUNS * exact_category_probabilities(n, delta)), observed)


# The n x delta grid: one batch of GRID_RUNS runs per cell, seeded 2901, 2902,
# ... in the order below (n outer, delta inner). Seeds and size were fixed
# before the first run.
GRID_RUNS = 4_000
GRID = [
    (n, delta, 2901 + 5 * i + j)
    for i, n in enumerate((*range(2, 11), 30))
    for j, delta in enumerate((0.0, 0.2, -0.2, 0.5, 1.0))
]


@pytest.mark.parametrize("n, delta, seed", GRID)
def test_category_counts_match_the_noncentral_t_across_the_grid(n, delta, seed):
    config = SimulationConfig(runs=GRID_RUNS, n_per_arm=n, true_effect_d=delta, master_seed=seed)
    observed = [round(f * GRID_RUNS) for f in tabulate_categories(run_simulation(config)).values()]
    assert_chi_square_fits(list(GRID_RUNS * exact_category_probabilities(n, delta)), observed)


def assert_chi_square_fits(expected: list[float], observed: list[int]) -> None:
    expected, observed = pool_tails(expected, observed)
    assert min(expected) >= MIN_EXPECTED and len(expected) >= 3
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    p_value = stats.chi2.sf(chi2, len(expected) - 1)
    assert p_value > FALSE_ALARM, (observed, [round(e, 1) for e in expected], chi2)


def exact_quadrant_probabilities(n: int, delta: float) -> list[float]:
    """P(mm), P(mp), P(pm), P(pp) of one pair, in ``SignAgreementTable`` order;
    a d is counted positive (p) when d >= 0, which has the probability of t >= 0."""
    df, nc = 2 * n - 2, delta * math.sqrt(n / 2.0)
    minus, plus = stats.nct.cdf(0.0, df, nc), stats.nct.sf(0.0, df, nc)
    return [minus * minus, minus * plus, plus * minus, plus * plus]


@pytest.mark.parametrize(
    "n, delta, seed", [(5, 0.0, 2401), (5, 0.5, 2402), (30, 0.0, 2403), (30, 0.5, 2404)]
)
def test_sign_quadrant_counts_match_products_of_sign_probabilities(n, delta, seed):
    config = SimulationConfig(runs=RUNS, n_per_arm=n, true_effect_d=delta, master_seed=seed)
    pairs = pair_replications(run_simulation(config), pairing_stream(config))
    table = tabulate_sign_agreement(pairs)
    observed = [table.mm, table.mp, table.pm, table.pp]
    assert table.total == RUNS // 2
    assert_chi_square_fits([table.total * q for q in exact_quadrant_probabilities(n, delta)], observed)
