"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Every reference number asserted here was either frozen from the reference
tables this gate reproduces or computed once from the documented independent
oracle and then frozen.
"""

import math
import time

import numpy as np
import pytest

from replikit import (
    EffectCategory,
    EffectSize,
    Interval,
    ReplicationDesign,
    SampleSummary,
    SimulationConfig,
    StudySummary,
    back_solve_n,
    cohens_d,
    confidence_interval,
    confirms,
    fixed_effect_pool,
    normal_quantile,
    pair_replications,
    pairing_stream,
    parse_study_csv,
    prediction_interval,
    run_simulation,
    serialize_study_csv,
    standard_error_d,
    t_quantile,
    tabulate_categories,
    tabulate_sign_agreement,
)
from conftest import scenario_config

# Reference category rows, percent per bin in canonical category order:
# (Large-, Med-, Small-, None, Small+, Med+, Large+)
ROW_NONE = (0.1, 2.7, 19.5, 55.5, 19.7, 2.4, 0.2)
ROW_SMALL = (0.02, 0.27, 5.79, 43.61, 37.78, 11.19, 1.34)
ROW_NONE_STAR = (0.05, 2.54, 20.0, 54.62, 20.17, 2.57, 0.05)
ROW_SMALL_STAR = (0.04, 1.76, 16.71, 52.11, 25.08, 4.25, 0.05)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def percents(batch) -> list[float]:
    table = tabulate_categories(batch)
    return [100.0 * table[cat] for cat in EffectCategory]


def max_gap(observed: list[float], reference) -> float:
    return max(abs(o - r) for o, r in zip(observed, reference))


def test_criterion_1_null_scenario_categories_and_runtime():
    start = time.perf_counter()
    batch = run_simulation(scenario_config(0.0))
    observed = percents(batch)
    elapsed = time.perf_counter() - start
    gap = max_gap(observed, ROW_NONE)
    ok = gap <= 1.5 and elapsed < 10.0
    report(1, ok, f"max bin gap {gap:.2f}pp (limit 1.5), runtime {elapsed:.2f}s (limit 10)")


def test_criterion_2_small_scenario_categories(batch_small):
    observed = percents(batch_small)
    gap = max_gap(observed, ROW_SMALL)
    report(2, gap <= 1.5, f"max bin gap {gap:.2f}pp (limit 1.5)")


def test_criterion_3_contaminated_scenarios(batch_null_star, batch_small_star):
    obs_none = percents(batch_null_star)
    obs_small = percents(batch_small_star)
    gap_none = max_gap(obs_none, ROW_NONE_STAR)
    gap_small = max_gap(obs_small, ROW_SMALL_STAR)
    none_bin = list(EffectCategory).index(EffectCategory.NONE)
    cross = abs(obs_small[none_bin] - obs_none[none_bin])
    ok = gap_none <= 5.0 and gap_small <= 5.0 and cross <= 5.0
    report(
        3,
        ok,
        f"max bin gaps {gap_none:.2f}/{gap_small:.2f}pp (limit 5), "
        f"None-bin cross gap {cross:.2f}pp (limit 5)",
    )


def test_criterion_4_sign_agreement_quadrants(batch_null, batch_small):
    null_pairs = pair_replications(batch_null, pairing_stream(batch_null.config))
    null_table = tabulate_sign_agreement(null_pairs)
    quad_pcts = [
        100.0 * q / null_table.total
        for q in (null_table.mm, null_table.mp, null_table.pm, null_table.pp)
    ]
    null_gap = max(abs(p - 25.0) for p in quad_pcts)

    small_pairs = pair_replications(batch_small, pairing_stream(batch_small.config))
    small_table = tabulate_sign_agreement(small_pairs)
    pp_pct = 100.0 * small_table.pp / small_table.total
    mm_pct = 100.0 * small_table.mm / small_table.total

    ok = (
        null_table.total == 5000
        and null_gap <= 1.5
        and abs(pp_pct - 61.5) <= 2.0
        and abs(mm_pct - 4.9) <= 1.5
    )
    report(
        4,
        ok,
        f"null quadrant gap {null_gap:.2f}pp (limit 1.5), "
        f"small (+,+) {pp_pct:.1f}% (61.5 +/- 2), (-,-) {mm_pct:.1f}% (4.9 +/- 1.5)",
    )


# Reference interval rows: (d_orig, lower, upper, d_rep). Sample sizes are
# not given alongside the intervals, so the fixture recovers each study's
# total n with back_solve_n, which inverts the prediction-interval
# half-width by monotone bisection under the stated equal-sizes assumption.
# The recovered totals are frozen here; the forward reproduction below is
# what the criterion grades.
INTERVAL_ROWS = (
    (0.101, -0.33, 0.53, -0.1, 168),
    (-0.176, -0.84, 0.48, 0.122, 74),
    (1.430, 0.05, 2.76, 1.090, 24),
)


def test_criterion_5_prediction_interval_reproduction():
    failures = []
    details = []
    for d_orig, lower, upper, d_rep, n_frozen in INTERVAL_ROWS:
        n = back_solve_n(d_orig, Interval(lower, upper, 0.95))
        if n != n_frozen:
            failures.append(f"back-solved n {n} != frozen {n_frozen}")
            continue
        half = n // 2
        original = EffectSize(
            d=d_orig, se=standard_error_d(d_orig, half, half), n1=half, n2=half
        )
        interval = prediction_interval(ReplicationDesign(original, half, half))
        lo_gap = abs(interval.lower - lower)
        hi_gap = abs(interval.upper - upper)
        if lo_gap > 0.05 or hi_gap > 0.05:
            failures.append(f"d={d_orig}: endpoint gaps {lo_gap:.3f}/{hi_gap:.3f}")
        if not confirms(interval, d_rep):
            failures.append(f"d={d_orig}: d_rep={d_rep} not confirmed")
        details.append(f"n={n} gaps {lo_gap:.3f}/{hi_gap:.3f}")
    report(5, not failures, "; ".join(failures or details) + " (limit 0.05, all confirm)")


def test_criterion_6_pooled_effect_reproduction():
    # The two studies' d values and the pooled summary (1.14 [0.66, 1.61])
    # are given by the reference; their standard errors are not. The pooling
    # equations invert in closed form, and that inversion is the oracle:
    #   w_total = (z / half_width)^2      from pooled half-width 0.475
    #   w1/w_total = (pooled - d2)/(d1 - d2)   from the weighted mean
    z = normal_quantile(0.975)
    w_total = (z / 0.475) ** 2
    share = (1.14 - 1.09) / (1.43 - 1.09)
    se1 = 1.0 / math.sqrt(share * w_total)
    se2 = 1.0 / math.sqrt((1.0 - share) * w_total)

    studies = [
        StudySummary("s1", "s1", d=1.43, se=se1),
        StudySummary("s2", "s2", d=1.09, se=se2),
    ]
    result = fixed_effect_pool(studies)
    gaps = (
        abs(result.pooled_d - 1.14),
        abs(result.ci.lower - 0.66),
        abs(result.ci.upper - 1.61),
    )
    input_widths = [2.0 * z * se for se in (se1, se2)]
    narrower = all(result.ci.width < w for w in input_widths)
    ok = max(gaps) <= 0.02 and narrower
    report(
        6,
        ok,
        f"pooled {result.pooled_d:.4f} [{result.ci.lower:.4f}, {result.ci.upper:.4f}], "
        f"max gap {max(gaps):.4f} (limit 0.02), narrower than inputs: {narrower}",
    )


def oracle_t_quantile(p: float, df: float) -> float:
    """Independent check: numeric integration of the density + root finding."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    log_norm = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )

    def pdf(u: float) -> float:
        return math.exp(log_norm - (df + 1.0) / 2.0 * math.log1p(u * u / df))

    def cdf(x: float) -> float:
        return 0.5 + quad(pdf, 0.0, x, epsabs=1e-13, epsrel=1e-13)[0]

    hi = 2.0
    while cdf(hi) < p:
        hi *= 2.0
    return brentq(lambda x: cdf(x) - p, 0.0, hi, xtol=1e-12)


def test_criterion_7_t_quantile_vs_integration_oracle():
    worst = 0.0
    for p in (0.9, 0.95, 0.975, 0.995):
        for df in (1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 1e5):
            gap = abs(t_quantile(p, df) - oracle_t_quantile(p, df))
            worst = max(worst, gap)
    report(7, worst <= 1e-6, f"max |quantile - oracle| {worst:.2e} (limit 1e-6)")


def test_criterion_8_property_batteries_without_reference_data():
    rng = np.random.default_rng(2024)
    failures = []

    # Effect size: antisymmetry and affine invariance.
    for _ in range(200):
        arm1 = SampleSummary(
            int(rng.integers(2, 200)), float(rng.normal(0, 50)), float(rng.uniform(0.5, 30))
        )
        arm2 = SampleSummary(
            int(rng.integers(2, 200)), float(rng.normal(0, 50)), float(rng.uniform(0.5, 30))
        )
        fwd, rev = cohens_d(arm1, arm2), cohens_d(arm2, arm1)
        if fwd.d != -rev.d or fwd.se != rev.se:
            failures.append("antisymmetry")
            break
        a, b = float(rng.uniform(0.5, 5.0)), float(rng.normal(0, 10))
        scaled = cohens_d(
            SampleSummary(arm1.n, a * arm1.mean + b, a * arm1.sd),
            SampleSummary(arm2.n, a * arm2.mean + b, a * arm2.sd),
        )
        if not math.isclose(scaled.d, fwd.d, rel_tol=1e-9, abs_tol=1e-12):
            failures.append("affine invariance")
            break

    # Prediction interval strictly wider than the original CI: 1000 designs.
    for _ in range(1000):
        d = float(rng.uniform(-3.0, 3.0))
        n1, n2 = int(rng.integers(2, 500)), int(rng.integers(2, 500))
        level = float(rng.uniform(0.5, 0.99))
        effect = EffectSize(d=d, se=standard_error_d(d, n1, n2), n1=n1, n2=n2)
        ci = confidence_interval(effect, level=level)
        pi = prediction_interval(
            ReplicationDesign(effect, int(rng.integers(2, 500)), int(rng.integers(2, 500)), level)
        )
        if not pi.width > ci.width:
            failures.append(f"PI not wider than CI at d={d:.3f}")
            break

    # Pooling: identity, equal-weight reduction, precision gain.
    single = StudySummary("s", "s", d=0.37, se=0.21)
    ident = fixed_effect_pool([single])
    if not (
        math.isclose(ident.pooled_d, 0.37, rel_tol=1e-12)
        and math.isclose(ident.pooled_se, 0.21, rel_tol=1e-12)
    ):
        failures.append("pooling identity")
    ds = [float(rng.uniform(-1, 1)) for _ in range(5)]
    equal = fixed_effect_pool([StudySummary(f"s{i}", f"s{i}", d=d, se=0.3) for i, d in enumerate(ds)])
    if not math.isclose(equal.pooled_d, sum(ds) / len(ds), rel_tol=1e-12):
        failures.append("equal-weight reduction")
    ses = [float(rng.uniform(0.1, 1.0)) for _ in range(4)]
    gain = fixed_effect_pool(
        [StudySummary(f"g{i}", f"g{i}", d=0.1, se=se) for i, se in enumerate(ses)]
    )
    if not gain.pooled_se < min(ses):
        failures.append("precision gain")

    # Simulation: determinism across worker counts, (mu, sigma)-invariance.
    cfg = SimulationConfig(runs=200, true_effect_d=0.2, master_seed=7)
    serial = run_simulation(cfg, workers=1)
    threaded = run_simulation(cfg, workers=5)
    if serial.d.tolist() != threaded.d.tolist():
        failures.append("worker determinism")
    unit = run_simulation(
        SimulationConfig(runs=200, mu=0.0, sigma=1.0, true_effect_d=0.2, master_seed=7)
    )
    if serial.d.tolist() != unit.d.tolist():
        failures.append("(mu, sigma)-invariance")

    # CSV round-trip on a generated study list.
    studies = [
        StudySummary(
            f"s{i}", f"study {i}", d=float(rng.uniform(-2, 2)), se=float(rng.uniform(0.05, 1.0))
        )
        for i in range(6)
    ] + [
        StudySummary(
            "arm", "arm form",
            arm1=SampleSummary(12, float(rng.normal()), 1.5),
            arm2=SampleSummary(14, float(rng.normal()), 2.5),
        )
    ]
    if parse_study_csv(serialize_study_csv(studies)) != studies:
        failures.append("CSV round-trip")

    report(8, not failures, "; ".join(failures) if failures else "all batteries passed")
