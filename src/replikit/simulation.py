"""Monte Carlo engine for two-arm experiments and their replications: the one
module that needs numpy.

Experiments are generated in standardized units (arm X shifted by the true
effect, both arms unit sd before contamination scaling), so every computed d
is bit-identical across (mu, sigma) choices at a fixed seed. Experiment i
draws from its own counter-based Philox substream i. A batch is two columns,
d and se, one row per experiment; rows are drawn into a matrix and reduced in
vectorised chunks, and every table downstream reads those columns. The
module also holds the scalar draw kernels, ``summarize`` and the batch CSV
export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .effect_size import _BANDS, _TINY_SD, EffectCategory, classify, cohens_d
from .errors import DomainError, InsufficientDataError, PairingError
from .stats_core import ContaminationSpec, SampleSummary

_UINT64_MAX = 2**64 - 1
# A chunk holds at least one row of 2n normals (and 2n uniforms when mixed), so
# memory grows with n: `simulate --runs 2 --dist mixed` peaks near 83 MB here.
MAX_N_PER_ARM = 10**6
# A run costs about 31 bytes at peak (ru_maxrss 44 / 157 MiB at 2e5 / 4e6 runs,
# 2-core Xeon), so 10^8 runs peak near 3.2 GB; more are refused before any array.
MAX_RUNS = 10**8

# Draws per chunk; rows per chunk follow, so memory is bounded for any n_per_arm.
_CHUNK_DRAWS = 2**18


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomStream:
    """Value identifying one reproducible draw sequence.

    A stream is a pure function of ``(master_seed, stream_index)``: the same
    pair always yields the identical sequence, and distinct indices yield
    statistically independent sequences. Streams are plain values, safe to
    share across threads.
    """

    master_seed: int
    stream_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed <= _UINT64_MAX:
            raise DomainError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if not 0 <= self.stream_index <= _UINT64_MAX:
            raise DomainError(f"stream_index must be in [0, 2^64), got {self.stream_index}")

    def generator(self) -> np.random.Generator:
        """Materialize a fresh generator positioned at the start of the stream."""
        bitgen = np.random.Philox(0)
        bitgen.state = _philox_state(self.master_seed, self.stream_index)
        return np.random.Generator(bitgen)


def derive_substream(master_seed: int, index: int) -> RandomStream:
    """Deterministically derive the ``index``-th substream of ``master_seed``."""
    return RandomStream(master_seed, index)


def _philox_state(master_seed: int, index: int) -> dict:
    # Counter-based Philox keyed on (seed, index): substreams are independent
    # of thread count and scheduling by construction. This is the state a
    # fresh Philox(key=[seed, index]) starts from (counter 0, empty buffer);
    # assigning it re-keys a bit generator without building a new one, and
    # without the OS-entropy SeedSequence that Philox(key=...) also runs.
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([master_seed, index], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _check_sampling_args(sigma: float, n: int) -> None:
    if not sigma > 0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")


def draw_normal(gen: np.random.Generator, mu: float, sigma: float, n: int) -> np.ndarray:
    """n normal draws from an already-positioned generator.

    Generation is standardized-then-scaled: z ~ N(0,1) is drawn first and
    mu + sigma*z emitted, so the standardized draws are identical across
    (mu, sigma) for a fixed stream position.
    """
    _check_sampling_args(sigma, n)
    z = gen.standard_normal(n)
    return mu + sigma * z


def draw_contaminated(
    gen: np.random.Generator, mu: float, sigma: float, spec: ContaminationSpec, n: int
) -> np.ndarray:
    """n contaminated-normal draws from an already-positioned generator."""
    _check_sampling_args(sigma, n)
    # z before u: with epsilon = 0 the output is bit-identical to draw_normal
    # on the same stream position.
    z = gen.standard_normal(n)
    u = gen.random(n)
    scale = np.where(u < spec.epsilon, spec.scale_mult, 1.0)
    return mu + sigma * (scale * z)


def draw_rows(
    master_seed: int, indices: range, n: int, spec: ContaminationSpec | None = None
) -> np.ndarray:
    """One row of n standard draws per substream in ``indices``, as a (len(indices), n) matrix.

    Row r equals ``draw_normal(gen, 0.0, 1.0, n)`` (or, given ``spec``,
    ``draw_contaminated(gen, 0.0, 1.0, spec, n)``) on
    ``derive_substream(master_seed, indices[r]).generator()``: one Philox is
    re-keyed for each row instead of being built per substream.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if indices:
        # A range is monotone: if both ends are valid substreams, all are.
        derive_substream(master_seed, indices[0])
        derive_substream(master_seed, indices[-1])
    z = np.empty((len(indices), n))
    u = None if spec is None else np.empty_like(z)
    state = _philox_state(master_seed, 0)
    key = state["state"]["key"]
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    for row, i in enumerate(indices):
        key[1] = i
        bitgen.state = state
        # z before u, per row, as in draw_contaminated.
        gen.standard_normal(out=z[row])
        if u is not None:
            gen.random(out=u[row])
    # In place, the same doubles as draw_contaminated's scale * z (1.0 * z == z
    # where u >= epsilon); only this product can overflow a standard draw.
    if u is not None:
        try:
            with np.errstate(over="raise"):
                np.multiply(z, spec.scale_mult, out=z, where=u < spec.epsilon)
        except FloatingPointError:
            raise DomainError(
                f"scale_mult {spec.scale_mult!r} overflows a contaminated draw to infinity"
            ) from None
    return z


def summarize(sample: Sequence[float] | np.ndarray) -> SampleSummary:
    """Count, mean, and n-1-denominator standard deviation of a sample."""
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 1:
        raise DomainError("sample must be one-dimensional")
    if arr.size < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {arr.size}")
    return SampleSummary(n=int(arr.size), mean=float(arr.mean()), sd=float(arr.std(ddof=1)))


def cohens_d_rows(
    mean1: np.ndarray, sd1: np.ndarray, mean2: np.ndarray, sd2: np.ndarray, n1: int, n2: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``cohens_d`` (no Hedges correction) as (d, se) arrays, each row
    bit-identical to the scalar path.

    A row whose pooled sd or se is not finite, which every zero pooled sd,
    overflowing d and non-finite mean or sd gives, is rejected by handing the
    first such row to ``cohens_d``, so it raises the scalar path's error.
    The scalar ``cohens_d`` stays a separate kernel because ``effect``,
    ``meta``, ``forest`` and ``funnel`` run without numpy.
    """
    with np.errstate(all="ignore"):
        sd_max = np.maximum(sd1, sd2)
        scale = np.where(sd_max < _TINY_SD, np.frexp(sd_max)[1], 0)
        sd1_s, sd2_s = np.ldexp(sd1, -scale), np.ldexp(sd2, -scale)
        # np.float_power is libm pow, like the scalar ``sd**2``; numpy's ``sd**2``
        # is sd*sd, which differs in the last bit for about 0.1 % of values.
        var_sum = (n1 - 1) * np.float_power(sd1_s, 2.0) + (n2 - 1) * np.float_power(sd2_s, 2.0)
        sp = np.ldexp(np.sqrt(var_sum / (n1 + n2 - 2)), scale)
        d = (mean1 - mean2) / sp
        n = n1 + n2
        se = np.sqrt(n / (n1 * n2) + d * d / (2.0 * n))
    bad = ~(np.isfinite(sp) & np.isfinite(se))
    if bad.any():
        i = int(bad.argmax())
        cohens_d(SampleSummary(n1, float(mean1[i]), float(sd1[i])),
                 SampleSummary(n2, float(mean2[i]), float(sd2[i])))
        raise DomainError("d and se must be finite")  # a guard: cohens_d raises on such a row
    return d, se


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationConfig:
    """Scenario parameters for a batch of simulated experiments. ``mu`` and
    ``sigma`` are for library callers only: draws are standardized, so they do
    not move d, and the CLI neither takes nor echoes them."""

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
        if self.runs > MAX_RUNS:
            raise DomainError(f"runs must be at most {MAX_RUNS}, got {self.runs}")
        if not 2 <= self.n_per_arm <= MAX_N_PER_ARM:
            raise DomainError(f"n_per_arm must be in [2, {MAX_N_PER_ARM}], got {self.n_per_arm}")
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"sigma must be finite and > 0, got {self.sigma}")
        if not math.isfinite(self.true_effect_d):
            raise DomainError(f"true_effect_d must be finite, got {self.true_effect_d}")
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

    @classmethod
    def _of_columns(cls, config: SimulationConfig, d: np.ndarray, se: np.ndarray) -> SimulationBatch:
        """A batch that keeps ``run_simulation``'s own float64 columns, made
        read-only in place: no caller holds them, so no copy is needed."""
        d.flags.writeable = se.flags.writeable = False
        batch = object.__new__(cls)
        object.__setattr__(batch, "config", config)
        object.__setattr__(batch, "d", d)
        object.__setattr__(batch, "se", se)
        return batch


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
        # Non-finite rows are rejected by the kernel, not warned about.
        with np.errstate(all="ignore"):
            z = draw_rows(config.master_seed, range(start, stop), 2 * n, config.contamination)
            x, y = z[:, :n], z[:, n:]
            x += config.true_effect_d
            d[start:stop], se[start:stop] = cohens_d_rows(
                x.mean(axis=1), x.std(axis=1, ddof=1), y.mean(axis=1), y.std(axis=1, ddof=1), n, n
            )
    return SimulationBatch._of_columns(config, d, se)


def tabulate_categories(batch: SimulationBatch) -> dict[EffectCategory, float]:
    """Fraction of experiments per effect category, each d binned as ``classify``
    bins it by ``_BANDS``; fractions sum to 1."""
    d = batch.d
    if not d.size:
        raise InsufficientDataError("cannot tabulate an empty batch")
    if not np.isfinite(d).all():
        classify(float(d[~np.isfinite(d)][0]))  # raises its DomainError
    band = np.searchsorted(_BANDS, np.abs(d))
    np.negative(band, out=band, where=d <= 0)
    band += 3
    counts = np.bincount(band, minlength=7).tolist()
    return {cat: count / d.size for cat, count in zip(EffectCategory, counts)}


def pair_replications(batch: SimulationBatch, stream: RandomStream) -> np.ndarray:
    """Uniformly random perfect matching of the batch into replication pairs.

    Seeded Fisher-Yates shuffle followed by adjacent pairing: row k of the
    returned (runs/2, 2) array holds the two d values of pair k, and every
    experiment appears in exactly one pair.
    """
    n = batch.d.size
    if n % 2 != 0:
        raise PairingError(f"cannot pair an odd number of experiments ({n})")
    pairs = batch.d.copy()
    stream.generator().shuffle(pairs)
    return pairs.reshape(-1, 2)


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


def batch_to_csv(batch: SimulationBatch) -> str:
    """One ``index,d,se,n1,n2`` row per experiment, in ``csv.writer``'s
    dialect: ``\r\n`` line ends, and no field needs quoting."""
    n = batch.config.n_per_arm
    rows = [
        f"{i},{d!r},{se!r},{n},{n}\r\n"
        for i, (d, se) in enumerate(zip(batch.d.tolist(), batch.se.tolist()))
    ]
    return "index,d,se,n1,n2\r\n" + "".join(rows)
