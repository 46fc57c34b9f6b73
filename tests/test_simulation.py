"""Monte Carlo engine: determinism, pairing, tabulation, boxplot data."""

import math
import threading

import numpy as np
import pytest

from replikit import (
    ContaminationSpec,
    DomainError,
    EffectCategory,
    InsufficientDataError,
    PairingError,
    SimulationConfig,
    cohens_d,
    pair_replications,
    pairing_stream,
    run_simulation,
    tabulate_categories,
    tabulate_sign_agreement,
)
from replikit.simulation import (
    MAX_N_PER_ARM,
    SimulationBatch,
    boxplot_summary,
    derive_substream,
    draw_contaminated,
    draw_normal,
    summarize,
)


def small_config(**overrides):
    base = dict(runs=200, n_per_arm=30, mu=100.0, sigma=20.0, true_effect_d=0.0, master_seed=7)
    base.update(overrides)
    return SimulationConfig(**base)


def d_values(batch):
    return batch.d.tolist()


def columns(batch):
    return batch.d.tolist(), batch.se.tolist()


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def scalar_row(cfg, i):
    """Experiment i recomputed on the scalar path from substream i."""
    n = cfg.n_per_arm
    gen = derive_substream(cfg.master_seed, i).generator()
    if cfg.contamination is None:
        z = draw_normal(gen, 0.0, 1.0, 2 * n)
    else:
        z = draw_contaminated(gen, 0.0, 1.0, cfg.contamination, 2 * n)
    effect = cohens_d(summarize(cfg.true_effect_d + z[:n]), summarize(z[n:]))
    return effect.d, effect.se


@pytest.mark.parametrize("n_per_arm", [2, 3, 30, 129, 300])
@pytest.mark.parametrize("epsilon", [None, 0.1, 0.0])
@pytest.mark.parametrize("effect", [0.0, 0.2])
def test_row_i_is_scalar_cohens_d_on_substream_i(effect, epsilon, n_per_arm):
    spec = None if epsilon is None else ContaminationSpec(epsilon=epsilon, scale_mult=10.0)
    cfg = small_config(runs=300, n_per_arm=n_per_arm, true_effect_d=effect, contamination=spec)
    batch = run_simulation(cfg)
    assert batch.d.shape == batch.se.shape == (cfg.runs,)
    for i in range(cfg.runs):
        assert (batch.d[i], batch.se[i]) == scalar_row(cfg, i), i


def test_chunk_boundaries_do_not_change_rows(monkeypatch):
    cfg = small_config(runs=50)
    whole = columns(run_simulation(cfg))
    monkeypatch.setattr("replikit.simulation._CHUNK_DRAWS", 7 * 2 * cfg.n_per_arm)
    assert columns(run_simulation(cfg)) == whole


def test_philox_constructions_do_not_grow_with_runs(monkeypatch):
    real, built = np.random.Philox, []

    def counting_philox(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    counts = []
    for runs in (2, 2000):
        built.clear()
        run_simulation(small_config(runs=runs, contamination=ContaminationSpec()))
        counts.append(len(built))
    # Both batches fit in one chunk, and the engine re-keys one Philox per chunk.
    assert counts[0] == counts[1] >= 1


def test_batch_columns_are_read_only():
    d = np.array([0.1, -0.2])
    batch = SimulationBatch(small_config(runs=2), d, np.array([0.26, 0.26]))
    d[0] = 5.0
    assert batch.d.tolist() == [0.1, -0.2]
    for column in (batch.d, batch.se):
        with pytest.raises(ValueError):
            column[0] = 1.0
    with pytest.raises(ValueError):
        run_simulation(small_config(runs=2)).d[0] = 1.0


def test_run_simulation_deterministic():
    cfg = small_config()
    assert columns(run_simulation(cfg)) == columns(run_simulation(cfg))


def test_worker_count_does_not_change_results():
    cfg = small_config(runs=400)
    serial = run_simulation(cfg, workers=1)
    threaded = run_simulation(cfg, workers=7)
    assert columns(serial) == columns(threaded)


@pytest.mark.parametrize("workers", [0, 1, 2, 10_000])
def test_run_simulation_starts_no_threads(monkeypatch, workers):
    def refuse(self):
        raise AssertionError("run_simulation started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    batch = run_simulation(SimulationConfig(runs=4), workers=workers)
    assert batch.d.size == batch.se.size == 4


def test_mu_sigma_invariance_is_bitwise():
    a = run_simulation(small_config(mu=100.0, sigma=20.0, true_effect_d=0.2))
    b = run_simulation(small_config(mu=0.0, sigma=1.0, true_effect_d=0.2))
    assert d_values(a) == d_values(b)


def test_zero_epsilon_contamination_matches_plain_normal():
    spec = ContaminationSpec(epsilon=0.0, scale_mult=10.0)
    a = run_simulation(small_config(contamination=spec))
    b = run_simulation(small_config(contamination=None))
    assert d_values(a) == d_values(b)


def test_empty_batch():
    batch = run_simulation(small_config(runs=0))
    assert columns(batch) == ([], [])


def test_config_validation():
    with pytest.raises(DomainError):
        small_config(runs=3)
    with pytest.raises(DomainError):
        small_config(runs=-2)
    with pytest.raises(DomainError):
        small_config(n_per_arm=1)
    with pytest.raises(DomainError):
        small_config(sigma=0.0)
    for sigma in (math.inf, math.nan):
        with pytest.raises(DomainError, match="sigma must be finite"):
            small_config(sigma=sigma)
    for mu in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="mu must be finite"):
            small_config(mu=mu)


def test_n_per_arm_ceiling_is_checked_before_any_draw():
    # Constructing a config allocates nothing, so the ceiling itself is cheap to test.
    assert small_config(n_per_arm=MAX_N_PER_ARM).n_per_arm == 10**6
    with pytest.raises(DomainError, match=r"n_per_arm must be in \[2, 1000000\]"):
        small_config(n_per_arm=MAX_N_PER_ARM + 1)


# ---------------------------------------------------------------------------
# Category tabulation
# ---------------------------------------------------------------------------

def test_categories_sum_to_one():
    table = tabulate_categories(run_simulation(small_config()))
    assert math.isclose(sum(table.values()), 1.0, abs_tol=1e-12)
    assert set(table) == set(EffectCategory)


def test_single_null_experiment_is_all_none_category():
    cfg = small_config(runs=2)
    table = tabulate_categories(SimulationBatch(cfg, np.array([0.0]), np.array([0.26])))
    assert table[EffectCategory.NONE] == 1.0
    assert sum(table.values()) == 1.0


def test_tabulate_empty_batch_rejected():
    with pytest.raises(InsufficientDataError):
        tabulate_categories(run_simulation(small_config(runs=0)))


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------

def test_pairing_is_a_perfect_matching():
    cfg = small_config(runs=400)
    batch = run_simulation(cfg)
    pairs = pair_replications(batch, pairing_stream(cfg))
    assert pairs.shape == (200, 2)
    # The d values are distinct, so equal multisets mean each is used once.
    assert len(set(d_values(batch))) == 400
    assert sorted(pairs.ravel().tolist()) == sorted(d_values(batch))


def test_pairing_two_experiments_forced():
    cfg = small_config(runs=2)
    batch = run_simulation(cfg)
    pairs = pair_replications(batch, pairing_stream(cfg))
    assert pairs.shape == (1, 2)
    assert sorted(pairs[0].tolist()) == sorted(d_values(batch))


def test_pairing_rejects_odd_batch():
    cfg = small_config(runs=4)
    batch = run_simulation(cfg)
    odd = SimulationBatch(cfg, batch.d[:3], batch.se[:3])
    with pytest.raises(PairingError):
        pair_replications(odd, pairing_stream(cfg))


def test_pairing_deterministic():
    cfg = small_config(runs=100)
    batch = run_simulation(cfg)
    p1 = pair_replications(batch, pairing_stream(cfg))
    p2 = pair_replications(batch, pairing_stream(cfg))
    assert p1.tolist() == p2.tolist()


# ---------------------------------------------------------------------------
# Sign agreement
# ---------------------------------------------------------------------------

def _batch(cfg, ds):
    return SimulationBatch(cfg, np.array(ds), np.full(len(ds), 0.26))


def test_sign_agreement_constructed_quadrants():
    pairs = np.array([
        (-1.0, -1.0),
        (-1.0, 1.0),
        (1.0, -1.0),
        (1.0, 1.0),
        (2.0, 3.0),
    ])
    table = tabulate_sign_agreement(pairs)
    assert (table.mm, table.mp, table.pm, table.pp) == (1, 1, 1, 2)
    assert table.total == 5


def test_sign_tie_binned_positive():
    table = tabulate_sign_agreement(np.array([(0.0, -1.0)]))
    assert table.pm == 1


def test_sign_agreement_rejects_empty():
    with pytest.raises(InsufficientDataError):
        tabulate_sign_agreement(())


def test_null_scenario_sign_symmetry_across_seeds():
    # (+,+) and (-,-) counts agree within 4*sqrt(runs/8) under the null.
    runs = 2000
    bound = 4.0 * math.sqrt(runs / 8.0)
    for seed in (1, 2, 3, 4, 5):
        cfg = SimulationConfig(runs=runs, master_seed=seed)
        batch = run_simulation(cfg)
        table = tabulate_sign_agreement(pair_replications(batch, pairing_stream(cfg)))
        assert abs(table.pp - table.mm) <= bound, seed


# ---------------------------------------------------------------------------
# Boxplot data
# ---------------------------------------------------------------------------

def test_boxplot_hand_quartiles():
    cfg = small_config(runs=6)
    batch = _batch(cfg, [float(i + 1) for i in range(5)])
    stats = boxplot_summary(batch)
    assert (stats.q1, stats.median, stats.q3) == (2.0, 3.0, 4.0)
    assert (stats.min, stats.max) == (1.0, 5.0)
    assert (stats.whisker_low, stats.whisker_high) == (1.0, 5.0)
    assert stats.n_outliers == 0
    assert stats.n == 5


def test_boxplot_flags_outliers():
    ds = [1.0, 2.0, 3.0, 4.0, 5.0, 100.0]
    cfg = small_config(runs=6)
    batch = _batch(cfg, ds)
    stats = boxplot_summary(batch)
    assert stats.n_outliers == 1
    assert stats.max == 100.0
    assert stats.whisker_high == 5.0


def test_boxplot_rejects_empty():
    with pytest.raises(InsufficientDataError):
        boxplot_summary(run_simulation(small_config(runs=0)))


def test_null_median_near_zero(batch_null):
    stats = boxplot_summary(batch_null)
    assert abs(stats.median) < 0.01


def test_small_effect_median_near_point_two(batch_small):
    stats = boxplot_summary(batch_small)
    assert abs(stats.median - 0.2) < 0.02


def test_null_mean_d_near_zero(batch_null):
    mean_d = np.mean(d_values(batch_null))
    assert abs(mean_d) < 0.01
