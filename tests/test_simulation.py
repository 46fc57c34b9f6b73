"""Monte Carlo engine: determinism, pairing, tabulation, boxplot data."""

import math
import threading

import numpy as np
import pytest

from replikit import (
    ContaminationSpec,
    DomainError,
    EffectCategory,
    EffectSize,
    ExperimentResult,
    InsufficientDataError,
    PairingError,
    SimulationBatch,
    SimulationConfig,
    boxplot_summary,
    derive_substream,
    pair_replications,
    pairing_stream,
    run_experiment,
    run_simulation,
    tabulate_categories,
    tabulate_sign_agreement,
)


def small_config(**overrides):
    base = dict(runs=200, n_per_arm=30, mu=100.0, sigma=20.0, true_effect_d=0.0, master_seed=7)
    base.update(overrides)
    return SimulationConfig(**base)


def d_values(batch):
    return [r.effect.d for r in batch.results]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_run_experiment_deterministic():
    cfg = small_config()
    stream = derive_substream(cfg.master_seed, 3)
    assert run_experiment(cfg, stream) == run_experiment(cfg, stream)


def test_run_simulation_deterministic():
    cfg = small_config()
    assert run_simulation(cfg).results == run_simulation(cfg).results


def test_worker_count_does_not_change_results():
    cfg = small_config(runs=400)
    serial = run_simulation(cfg, workers=1)
    threaded = run_simulation(cfg, workers=7)
    assert serial.results == threaded.results


@pytest.mark.parametrize("workers", [0, 1, 2, 10_000])
def test_run_simulation_starts_no_threads(monkeypatch, workers):
    def refuse(self):
        raise AssertionError("run_simulation started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    batch = run_simulation(SimulationConfig(runs=4), workers=workers)
    assert [r.index for r in batch.results] == [0, 1, 2, 3]


def test_mu_sigma_invariance_is_bitwise():
    a = run_simulation(small_config(mu=100.0, sigma=20.0, true_effect_d=0.2))
    b = run_simulation(small_config(mu=0.0, sigma=1.0, true_effect_d=0.2))
    assert d_values(a) == d_values(b)


def test_zero_epsilon_contamination_matches_plain_normal():
    spec = ContaminationSpec(epsilon=0.0, scale_mult=10.0)
    a = run_simulation(small_config(contamination=spec))
    b = run_simulation(small_config(contamination=None))
    assert d_values(a) == d_values(b)


def test_indices_are_substream_indices():
    batch = run_simulation(small_config(runs=10))
    assert [r.index for r in batch.results] == list(range(10))


def test_empty_batch():
    batch = run_simulation(small_config(runs=0))
    assert batch.results == ()


def test_config_validation():
    with pytest.raises(DomainError):
        small_config(runs=3)
    with pytest.raises(DomainError):
        small_config(runs=-2)
    with pytest.raises(DomainError):
        small_config(n_per_arm=1)
    with pytest.raises(DomainError):
        small_config(sigma=0.0)


# ---------------------------------------------------------------------------
# Category tabulation
# ---------------------------------------------------------------------------

def test_categories_sum_to_one():
    table = tabulate_categories(run_simulation(small_config()))
    assert math.isclose(sum(table.values()), 1.0, abs_tol=1e-12)
    assert set(table) == set(EffectCategory)


def test_single_null_experiment_is_all_none_category():
    cfg = small_config(runs=2)
    result = ExperimentResult(index=0, effect=EffectSize(d=0.0, se=0.26, n1=30, n2=30))
    table = tabulate_categories(SimulationBatch(cfg, (result,)))
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
    assert len(pairs) == 200
    used = sorted(i for pair in pairs for i in (pair[0].index, pair[1].index))
    assert used == list(range(400))


def test_pairing_two_experiments_forced():
    cfg = small_config(runs=2)
    batch = run_simulation(cfg)
    pairs = pair_replications(batch, pairing_stream(cfg))
    assert len(pairs) == 1
    assert {pairs[0][0].index, pairs[0][1].index} == {0, 1}


def test_pairing_rejects_odd_batch():
    cfg = small_config(runs=4)
    batch = run_simulation(cfg)
    odd = SimulationBatch(cfg, batch.results[:3])
    with pytest.raises(PairingError):
        pair_replications(odd, pairing_stream(cfg))


def test_pairing_deterministic():
    cfg = small_config(runs=100)
    batch = run_simulation(cfg)
    p1 = pair_replications(batch, pairing_stream(cfg))
    p2 = pair_replications(batch, pairing_stream(cfg))
    assert p1 == p2


# ---------------------------------------------------------------------------
# Sign agreement
# ---------------------------------------------------------------------------

def _result(index, d):
    return ExperimentResult(index=index, effect=EffectSize(d=d, se=0.26, n1=30, n2=30))


def test_sign_agreement_constructed_quadrants():
    pairs = (
        (_result(0, -1.0), _result(1, -1.0)),
        (_result(2, -1.0), _result(3, 1.0)),
        (_result(4, 1.0), _result(5, -1.0)),
        (_result(6, 1.0), _result(7, 1.0)),
        (_result(8, 2.0), _result(9, 3.0)),
    )
    table = tabulate_sign_agreement(pairs)
    assert (table.mm, table.mp, table.pm, table.pp) == (1, 1, 1, 2)
    assert table.total == 5


def test_sign_tie_binned_positive():
    table = tabulate_sign_agreement(((_result(0, 0.0), _result(1, -1.0)),))
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
    batch = SimulationBatch(cfg, tuple(_result(i, float(i + 1)) for i in range(5)))
    stats = boxplot_summary({"x": batch})["x"]
    assert (stats.q1, stats.median, stats.q3) == (2.0, 3.0, 4.0)
    assert (stats.minimum, stats.maximum) == (1.0, 5.0)
    assert (stats.whisker_low, stats.whisker_high) == (1.0, 5.0)
    assert stats.n_outliers == 0
    assert stats.n == 5


def test_boxplot_flags_outliers():
    ds = [1.0, 2.0, 3.0, 4.0, 5.0, 100.0]
    cfg = small_config(runs=6)
    batch = SimulationBatch(cfg, tuple(_result(i, d) for i, d in enumerate(ds)))
    stats = boxplot_summary({"x": batch})["x"]
    assert stats.n_outliers == 1
    assert stats.maximum == 100.0
    assert stats.whisker_high == 5.0


def test_boxplot_rejects_empty():
    with pytest.raises(InsufficientDataError):
        boxplot_summary({})
    with pytest.raises(InsufficientDataError):
        boxplot_summary({"x": run_simulation(small_config(runs=0))})


def test_null_median_near_zero(batch_null):
    stats = boxplot_summary({"null": batch_null})["null"]
    assert abs(stats.median) < 0.01


def test_small_effect_median_near_point_two(batch_small):
    stats = boxplot_summary({"small": batch_small})["small"]
    assert abs(stats.median - 0.2) < 0.02


def test_null_mean_d_near_zero(batch_null):
    mean_d = np.mean(d_values(batch_null))
    assert abs(mean_d) < 0.01
