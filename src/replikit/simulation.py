"""Monte Carlo engine for two-arm experiments and their replications.

Experiments are generated in standardized units (arm X shifted by the true
effect, both arms unit sd before contamination scaling), so every computed d
is bit-identical across (mu, sigma) choices at a fixed seed. Each experiment
draws from its own counter-based substream, and the batch runs serially.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .effect_size import EffectCategory, EffectSize, classify, cohens_d
from .errors import DomainError, InsufficientDataError, PairingError
from .stats_core import (
    ContaminationSpec,
    RandomStream,
    derive_substream,
    sample_contaminated,
    sample_normal,
    summarize,
)

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class SimulationConfig:
    """Scenario parameters for a batch of simulated experiments."""

    runs: int = 10000
    n_per_arm: int = 30
    mu: float = 100.0
    sigma: float = 20.0
    true_effect_d: float = 0.0
    contamination: ContaminationSpec | None = None
    master_seed: int = 42

    def __post_init__(self) -> None:
        if self.runs < 0 or self.runs % 2 != 0:
            raise DomainError(f"runs must be a non-negative even count, got {self.runs}")
        if self.n_per_arm < 2:
            raise DomainError(f"n_per_arm must be >= 2, got {self.n_per_arm}")
        if not self.sigma > 0:
            raise DomainError(f"sigma must be > 0, got {self.sigma}")
        if not 0 <= self.master_seed <= _UINT64_MAX:
            raise DomainError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")


@dataclass(frozen=True)
class ExperimentResult:
    """One simulated experiment: its substream index and effect size."""

    index: int
    effect: EffectSize


@dataclass(frozen=True)
class SimulationBatch:
    """All experiments produced by one configuration."""

    config: SimulationConfig
    results: tuple[ExperimentResult, ...]


@dataclass(frozen=True)
class SignAgreementTable:
    """Replication pairs binned by the signs of the two effect estimates."""

    mm: int
    mp: int
    pm: int
    pp: int

    @property
    def total(self) -> int:
        return self.mm + self.mp + self.pm + self.pp


@dataclass(frozen=True)
class BoxplotStats:
    """Tukey five-number summary of effect sizes, as plot-ready data."""

    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    n_outliers: int


def run_experiment(config: SimulationConfig, stream: RandomStream) -> ExperimentResult:
    """Simulate one two-arm experiment on the given substream.

    Arm X has population mean mu + true_effect_d * sigma, arm Y has mean mu,
    both with sd sigma and contaminated if configured. Deterministic per
    stream: the same (config, stream) always yields the same effect size.
    """
    n = config.n_per_arm
    spec = config.contamination
    # One 2n-draw call: arm X takes the first n draws, arm Y the rest. The
    # kernel draws every normal before any uniform, so epsilon = 0 gives the
    # same d as no contamination.
    if spec is None:
        z = sample_normal(stream, 0.0, 1.0, 2 * n)
    else:
        z = sample_contaminated(stream, 0.0, 1.0, spec, 2 * n)
    effect = cohens_d(summarize(config.true_effect_d + z[:n]), summarize(z[n:]))
    return ExperimentResult(index=stream.stream_index, effect=effect)


def run_simulation(config: SimulationConfig, workers: int = 1) -> SimulationBatch:
    """Run ``config.runs`` experiments on substreams 0 .. runs-1.

    Experiment i always uses ``derive_substream(master_seed, i)``, so the
    batch depends only on the config. ``workers`` is accepted for
    compatibility and ignored: each experiment is Python overhead that holds
    the GIL, so a thread pool ran slower than this serial loop.
    """
    results = tuple(
        run_experiment(config, derive_substream(config.master_seed, i))
        for i in range(config.runs)
    )
    return SimulationBatch(config=config, results=results)


def tabulate_categories(batch: SimulationBatch) -> dict[EffectCategory, float]:
    """Fraction of experiments per effect category; fractions sum to 1."""
    if not batch.results:
        raise InsufficientDataError("cannot tabulate an empty batch")
    counts = Counter(classify(r.effect.d) for r in batch.results)
    total = len(batch.results)
    return {cat: counts.get(cat, 0) / total for cat in EffectCategory}


def pair_replications(
    batch: SimulationBatch, stream: RandomStream
) -> tuple[tuple[ExperimentResult, ExperimentResult], ...]:
    """Uniformly random perfect matching of the batch into replication pairs.

    Seeded Fisher-Yates shuffle followed by adjacent pairing; every
    experiment appears in exactly one pair.
    """
    n = len(batch.results)
    if n % 2 != 0:
        raise PairingError(f"cannot pair an odd number of experiments ({n})")
    perm = stream.generator().permutation(n)
    return tuple(
        (batch.results[perm[2 * k]], batch.results[perm[2 * k + 1]]) for k in range(n // 2)
    )


def tabulate_sign_agreement(
    pairs: Sequence[tuple[ExperimentResult, ExperimentResult]],
) -> SignAgreementTable:
    """Count pairs per sign quadrant. A d of exactly 0 is binned as positive."""
    if not pairs:
        raise InsufficientDataError("cannot tabulate an empty pair list")
    mm = mp = pm = pp = 0
    for first, second in pairs:
        pos1 = first.effect.d >= 0
        pos2 = second.effect.d >= 0
        if pos1 and pos2:
            pp += 1
        elif pos1:
            pm += 1
        elif pos2:
            mp += 1
        else:
            mm += 1
    return SignAgreementTable(mm=mm, mp=mp, pm=pm, pp=pp)


def _boxplot_stats(ds: np.ndarray) -> BoxplotStats:
    q1, med, q3 = np.percentile(ds, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = ds[(ds >= lo_fence) & (ds <= hi_fence)]
    return BoxplotStats(
        n=int(ds.size),
        minimum=float(ds.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(ds.max()),
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        n_outliers=int(ds.size - inside.size),
    )


def boxplot_summary(batches: Mapping[str, SimulationBatch]) -> dict[str, BoxplotStats]:
    """Per-scenario Tukey summaries of d, emitted as data for external plotting."""
    if not batches:
        raise InsufficientDataError("no scenarios to summarize")
    out: dict[str, BoxplotStats] = {}
    for name, batch in batches.items():
        if not batch.results:
            raise InsufficientDataError(f"scenario {name!r} has no experiments")
        ds = np.array([r.effect.d for r in batch.results])
        out[name] = _boxplot_stats(ds)
    return out


def pairing_stream(config: SimulationConfig) -> RandomStream:
    """Canonical substream for pairing a batch: index ``runs``, one past the
    experiment substreams 0 .. runs-1."""
    return derive_substream(config.master_seed, config.runs)
