"""Monte Carlo engine: determinism, pairing, tabulation, boxplot data."""

import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from replikit import simulation
from replikit.effect_size import classify
from replikit.simulation import (
    MAX_N_PER_ARM,
    SimulationBatch,
    boxplot_summary,
    derive_substream,
    draw_contaminated,
    draw_normal,
    draw_rows,
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


def test_public_batch_copies_and_leaves_the_callers_arrays_as_they_were():
    d, se = np.array([0.1, -0.2]), np.array([0.26, 0.26])
    frozen = np.array([0.3, 0.4])
    frozen.flags.writeable = False
    for batch in (SimulationBatch(small_config(runs=2), d, se),
                  SimulationBatch(small_config(runs=2), frozen, frozen)):
        assert not np.shares_memory(batch.d, d) and not np.shares_memory(batch.d, frozen)
        assert not np.shares_memory(batch.se, se) and not np.shares_memory(batch.se, frozen)
    assert d.flags.writeable and se.flags.writeable and not frozen.flags.writeable


def test_run_simulation_keeps_its_columns_without_a_copy(monkeypatch):
    # Small chunks, so the columns dominate the traced peak: two columns
    # without a copy, four with one.
    monkeypatch.setattr("replikit.simulation._CHUNK_DRAWS", 2**10)
    cfg = small_config(runs=20_000, n_per_arm=2)
    run_simulation(small_config(runs=2, n_per_arm=2))
    tracemalloc.start()
    try:
        batch = run_simulation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * batch.d.nbytes
    assert not batch.d.flags.writeable and not batch.se.flags.writeable


# Each run is forked from this small interpreter, which never loads numpy,
# and its peak is read from os.wait4. A child started from a large process,
# whether spawned with CLONE_VM or forked, carries that process's resident
# size into its ru_maxrss, so the runs are not started from the test process.
PEAK_RSS_LAUNCHER = """
import os, sys
for runs in sys.argv[1:]:
    pid = os.fork()
    if pid == 0:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        os.execv(sys.executable, [sys.executable, "-m", "replikit.cli", "simulate", "--runs", runs])
    _, status, usage = os.wait4(pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_simulate_peak_memory_per_run():
    src = str(Path(simulation.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_LAUNCHER, "200000", "1000000"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    (rc_small, kib_small), (rc_large, kib_large) = (
        map(int, line.split()) for line in proc.stdout.splitlines()
    )
    assert rc_small == rc_large == 0
    # Above the 2e5-run peak: the d and se columns (16 B a run) and the
    # largest per-run transient of the tables drawn from them.
    per_run = (kib_large - kib_small) * 1024 / 800_000
    assert per_run <= 33.0, per_run


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


OVERFLOW = re.escape("scale_mult must be at most 1e100, got 1e+308")


def test_each_chunk_is_drawn_once(monkeypatch):
    monkeypatch.setattr("replikit.simulation._CHUNK_DRAWS", 7 * 2 * 30)
    with mock.patch.object(simulation, "draw_rows", wraps=draw_rows) as spy:
        run_simulation(small_config(runs=50, contamination=ContaminationSpec()))
        assert spy.call_count == 8  # ceil(50 / 7) chunks
        spy.reset_mock()
        widest = ContaminationSpec(epsilon=1.0, scale_mult=1e100)
        batch = run_simulation(small_config(runs=50, contamination=widest))
        assert spy.call_count == 8
        assert np.isfinite(batch.d).all() and np.isfinite(batch.se).all()


def test_draw_rows_rejects_an_overflowing_scale_mult():
    # The spec refuses it, so no draw_rows call can overflow a draw.
    with pytest.raises(DomainError, match=f"^{OVERFLOW}$"):
        draw_rows(7, range(10), 60, ContaminationSpec(scale_mult=1e308))
    widest = draw_rows(7, range(10), 60, ContaminationSpec(epsilon=1.0, scale_mult=1e100))
    assert np.array_equal(widest, 1e100 * draw_rows(7, range(10), 60))


@pytest.mark.parametrize("bound", [1e6, -1e6])
def test_true_effect_d_is_bounded_where_the_shift_keeps_the_draws(bound):
    assert small_config(true_effect_d=bound).true_effect_d == bound
    past = math.nextafter(bound, math.copysign(math.inf, bound))
    message = re.escape(f"true_effect_d must be in [-1e6, 1e6], got {past}")
    with pytest.raises(DomainError, match=f"^{message}$"):
        small_config(true_effect_d=past)


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
    for effect in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match=f"^true_effect_d must be finite, got {effect}$"):
            small_config(true_effect_d=effect)


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


def per_run_categories(d):
    """The tabulation as one ``classify`` call per run: the reference."""
    counts = Counter(map(classify, d))
    return {cat: counts.get(cat, 0) / len(d) for cat in EffectCategory}


# The band edges, zero of both signs, and the doubles either side of each.
EDGES = [s * b for b in (0.0, 0.2, 0.5, 0.8) for s in (1.0, -1.0)]
edge_values = st.sampled_from(
    [x for b in EDGES for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))]
)
d_values_near_edges = st.one_of(
    edge_values, st.floats(-2.0, 2.0), st.floats(allow_nan=False, allow_infinity=False)
)


@given(d=st.lists(d_values_near_edges, min_size=1, max_size=60))
def test_tabulate_matches_per_run_classify(d):
    batch = SimulationBatch(small_config(runs=2), np.array(d), np.ones(len(d)))
    table = tabulate_categories(batch)
    assert table == per_run_categories(d)
    # Python floats, as the per-run path gives: a numpy scalar's repr differs.
    assert {type(p) for p in table.values()} == {float}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tabulate_non_finite_d_rejected(bad):
    batch = SimulationBatch(small_config(runs=2), np.array([0.1, bad, 0.9]), np.ones(3))
    with pytest.raises(DomainError, match=f"^d must be finite, got {bad}$"):
        tabulate_categories(batch)


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


@given(st.integers(1, 600), st.integers(0, 2**64 - 1))
def test_pairing_shuffles_as_the_gathered_permutation(half, seed):
    d = np.random.default_rng(seed).standard_normal(2 * half)
    batch = SimulationBatch(small_config(runs=2 * half), d, np.ones(d.size))
    stream = derive_substream(seed, 2 * half)
    gathered = batch.d[stream.generator().permutation(d.size)].reshape(-1, 2)
    assert pair_replications(batch, stream).tobytes() == gathered.tobytes()


def test_pairing_of_seeded_batches_is_the_gathered_permutation():
    for seed, runs in ((42, 2), (7, 2000), (2**64 - 1, 20_000)):
        cfg = small_config(runs=runs, master_seed=seed, contamination=ContaminationSpec())
        batch = run_simulation(cfg)
        stream = pairing_stream(cfg)
        gathered = batch.d[stream.generator().permutation(runs)].reshape(-1, 2)
        assert pair_replications(batch, stream).tobytes() == gathered.tobytes()


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
