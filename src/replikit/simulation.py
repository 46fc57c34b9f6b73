"""Monte Carlo engine for two-arm experiments and their replications.

Experiments are generated in standardized units (arm X shifted by the true
effect, both arms unit sd before contamination scaling), so every computed d
is bit-identical across (mu, sigma) choices at a fixed seed. Experiment i
draws from its own counter-based substream i. A batch is two columns, d and
se, one row per experiment; rows are drawn into a matrix and reduced in
vectorised chunks, and every table downstream reads those columns.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .effect_size import EffectCategory, classify, cohens_d_rows
from .errors import DomainError, InsufficientDataError, PairingError
from .stats_core import ContaminationSpec, RandomStream, derive_substream, draw_rows

_UINT64_MAX = 2**64 - 1
# A chunk holds at least one row of 2n normals (and 2n uniforms when mixed), so
# memory grows with n: `simulate --runs 2 --dist mixed` peaks near 83 MB here.
MAX_N_PER_ARM = 10**6

# Draws per chunk; rows per chunk follow, so memory is bounded for any n_per_arm.
_CHUNK_DRAWS = 2**18


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
        if not 2 <= self.n_per_arm <= MAX_N_PER_ARM:
            raise DomainError(f"n_per_arm must be in [2, {MAX_N_PER_ARM}], got {self.n_per_arm}")
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0 <= self.master_seed <= _UINT64_MAX:
            raise DomainError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")


@dataclass(frozen=True, eq=False)
class SimulationBatch:
    """All experiments of one configuration as read-only columns: ``d[i]`` and
    ``se[i]`` are the Cohen's d and its standard error for substream i."""

    config: SimulationConfig
    d: np.ndarray
    se: np.ndarray

    def __post_init__(self) -> None:
        for name in ("d", "se"):
            column = np.array(getattr(self, name), dtype=float)
            column.flags.writeable = False
            object.__setattr__(self, name, column)


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
    """Tukey five-number summary of effect sizes, as plot-ready data. The
    fields, in order, are the keys of the simulate command's boxplot table."""

    n: int
    min: float
    q1: float
    median: float
    q3: float
    max: float
    whisker_low: float
    whisker_high: float
    n_outliers: int


def run_simulation(config: SimulationConfig, workers: int = 1) -> SimulationBatch:
    """Run ``config.runs`` experiments on substreams 0 .. runs-1.

    Experiment i always uses ``derive_substream(master_seed, i)``: its first
    n_per_arm draws, shifted by the true effect, are arm X and the rest are
    arm Y, so the batch depends only on the config. ``workers`` is accepted
    for compatibility and ignored: each chunk is drawn by re-keying one
    Philox per row and reduced by vectorised numpy calls, and that re-keying
    loop is the remaining per-experiment Python work, which holds the GIL.
    """
    n = config.n_per_arm
    d = np.empty(config.runs)
    se = np.empty(config.runs)
    rows = max(1, _CHUNK_DRAWS // (2 * n))
    for start in range(0, config.runs, rows):
        stop = min(start + rows, config.runs)
        z = draw_rows(config.master_seed, range(start, stop), 2 * n, config.contamination)
        x, y = z[:, :n], z[:, n:]
        # Non-finite rows are rejected by the kernel, not warned about.
        with np.errstate(all="ignore"):
            x += config.true_effect_d
            d[start:stop], se[start:stop] = cohens_d_rows(
                x.mean(axis=1), x.std(axis=1, ddof=1), y.mean(axis=1), y.std(axis=1, ddof=1), n, n
            )
    return SimulationBatch(config, d, se)


def tabulate_categories(batch: SimulationBatch) -> dict[EffectCategory, float]:
    """Fraction of experiments per effect category; fractions sum to 1."""
    if not batch.d.size:
        raise InsufficientDataError("cannot tabulate an empty batch")
    counts = Counter(map(classify, batch.d.tolist()))
    return {cat: counts.get(cat, 0) / batch.d.size for cat in EffectCategory}


def pair_replications(batch: SimulationBatch, stream: RandomStream) -> np.ndarray:
    """Uniformly random perfect matching of the batch into replication pairs.

    Seeded Fisher-Yates shuffle followed by adjacent pairing: row k of the
    returned (runs/2, 2) array holds the two d values of pair k, and every
    experiment appears in exactly one pair.
    """
    n = batch.d.size
    if n % 2 != 0:
        raise PairingError(f"cannot pair an odd number of experiments ({n})")
    perm = stream.generator().permutation(n)
    return batch.d[perm].reshape(-1, 2)


def tabulate_sign_agreement(pairs: np.ndarray) -> SignAgreementTable:
    """Count (k, 2) d pairs per sign quadrant. A d of exactly 0 is binned as positive."""
    positive = np.asarray(pairs) >= 0
    if not positive.size:
        raise InsufficientDataError("cannot tabulate an empty pair list")
    # Quadrant code 2*first + second counts in the order mm, mp, pm, pp.
    mm, mp, pm, pp = np.bincount(2 * positive[:, 0] + positive[:, 1], minlength=4).tolist()
    return SignAgreementTable(mm=mm, mp=mp, pm=pm, pp=pp)


def boxplot_summary(batch: SimulationBatch) -> BoxplotStats:
    """Tukey summary of a batch's d, emitted as data for external plotting."""
    ds = batch.d
    if not ds.size:
        raise InsufficientDataError("cannot summarize an empty batch")
    q1, med, q3 = np.percentile(ds, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = ds[(ds >= lo_fence) & (ds <= hi_fence)]
    return BoxplotStats(
        n=int(ds.size),
        min=float(ds.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        max=float(ds.max()),
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        n_outliers=int(ds.size - inside.size),
    )


def pairing_stream(config: SimulationConfig) -> RandomStream:
    """Canonical substream for pairing a batch: index ``runs``, one past the
    experiment substreams 0 .. runs-1."""
    return derive_substream(config.master_seed, config.runs)
