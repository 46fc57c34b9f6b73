"""Toolkit for effect sizes, replication simulation, and meta-analysis.

Core workflow: simulate two-arm experiments under normal or contaminated
sampling (`run_simulation`), summarize them as Cohen's d effect sizes with
confidence intervals, judge replications against prediction intervals
(`prediction_interval`, `confirms`), and pool studies with fixed-effects
meta-analysis (`fixed_effect_pool`).

The package exports the names that workflow uses. The t distribution, the
SVG renderers, the study table and batch export are imported from their
modules (`replikit.stats_core`, `replikit.svg`, `replikit.meta`,
`replikit.simulation`).

Only the simulation engine needs numpy. Its six names here load it on first
use, so importing the package, or running any other command, does not.
"""

from .effect_size import (
    EffectCategory,
    EffectSize,
    Interval,
    cohens_d,
    confidence_interval,
    standard_error_d,
)
from .errors import (
    ConvergenceError,
    DegenerateSampleError,
    DomainError,
    InconsistentIntervalError,
    InsufficientDataError,
    NoSolutionError,
    PairingError,
    ParseError,
    ReplikitError,
    UnsupportedFormatError,
)
from .meta import StudySummary, fixed_effect_pool, parse_study_csv, serialize_study_csv
from .prediction import ReplicationDesign, back_solve_n, confirms, prediction_interval
from .stats_core import ContaminationSpec, SampleSummary, normal_quantile, t_quantile

__version__ = "1.0.0"

__all__ = [
    "ContaminationSpec",
    "ConvergenceError",
    "DegenerateSampleError",
    "DomainError",
    "EffectCategory",
    "EffectSize",
    "InconsistentIntervalError",
    "InsufficientDataError",
    "Interval",
    "NoSolutionError",
    "PairingError",
    "ParseError",
    "ReplicationDesign",
    "ReplikitError",
    "SampleSummary",
    "SimulationConfig",
    "StudySummary",
    "UnsupportedFormatError",
    "back_solve_n",
    "cohens_d",
    "confidence_interval",
    "confirms",
    "fixed_effect_pool",
    "normal_quantile",
    "pair_replications",
    "pairing_stream",
    "parse_study_csv",
    "prediction_interval",
    "run_simulation",
    "serialize_study_csv",
    "standard_error_d",
    "t_quantile",
    "tabulate_categories",
    "tabulate_sign_agreement",
]

_ENGINE_NAMES = frozenset({"SimulationConfig", "pair_replications", "pairing_stream",
                           "run_simulation", "tabulate_categories", "tabulate_sign_agreement"})


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        from . import simulation

        return getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
