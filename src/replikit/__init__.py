"""Toolkit for effect sizes, replication simulation, and meta-analysis.

Core workflow: simulate two-arm experiments under normal or contaminated
sampling (`run_simulation`), summarize them as Cohen's d effect sizes with
confidence intervals, judge replications against prediction intervals
(`prediction_interval`, `confirms`), and pool studies with fixed-effects
meta-analysis (`fixed_effect_pool`) rendered as forest/funnel SVG plots.
"""

from .effect_size import (
    EffectCategory,
    EffectSize,
    Interval,
    category_label,
    classify,
    cohens_d,
    confidence_interval,
    hedges_correction,
    pooled_sd,
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
from .io import (
    OutputFormat,
    batch_to_csv,
    boxplot_dict,
    config_dict,
    fmt4,
    parse_study_csv,
    serialize_study_csv,
)
from .meta import (
    ForestPlotSpec,
    ForestRow,
    FunnelData,
    MetaResult,
    StudySummary,
    fixed_effect_pool,
    forest_model,
    funnel_data,
)
from .prediction import (
    ReplicationDesign,
    back_solve_n,
    confirms,
    prediction_interval,
)
from .simulation import (
    BoxplotStats,
    SignAgreementTable,
    SimulationBatch,
    SimulationConfig,
    boxplot_summary,
    pair_replications,
    pairing_stream,
    run_simulation,
    tabulate_categories,
    tabulate_sign_agreement,
)
from .stats_core import (
    ContaminationSpec,
    RandomStream,
    SampleSummary,
    derive_substream,
    normal_quantile,
    regularized_incomplete_beta,
    summarize,
    t_cdf,
    t_pdf,
    t_quantile,
)
from .svg import render_forest_svg, render_funnel_svg

__version__ = "1.0.0"

__all__ = [
    "BoxplotStats",
    "ContaminationSpec",
    "ConvergenceError",
    "DegenerateSampleError",
    "DomainError",
    "EffectCategory",
    "EffectSize",
    "ForestPlotSpec",
    "ForestRow",
    "FunnelData",
    "InconsistentIntervalError",
    "InsufficientDataError",
    "Interval",
    "MetaResult",
    "NoSolutionError",
    "OutputFormat",
    "PairingError",
    "ParseError",
    "RandomStream",
    "ReplicationDesign",
    "ReplikitError",
    "SampleSummary",
    "SignAgreementTable",
    "SimulationBatch",
    "SimulationConfig",
    "StudySummary",
    "UnsupportedFormatError",
    "back_solve_n",
    "batch_to_csv",
    "boxplot_dict",
    "boxplot_summary",
    "category_label",
    "classify",
    "cohens_d",
    "confidence_interval",
    "config_dict",
    "confirms",
    "derive_substream",
    "fixed_effect_pool",
    "fmt4",
    "forest_model",
    "funnel_data",
    "hedges_correction",
    "normal_quantile",
    "pair_replications",
    "pairing_stream",
    "parse_study_csv",
    "pooled_sd",
    "prediction_interval",
    "regularized_incomplete_beta",
    "render_forest_svg",
    "render_funnel_svg",
    "run_simulation",
    "serialize_study_csv",
    "standard_error_d",
    "summarize",
    "t_cdf",
    "t_pdf",
    "t_quantile",
    "tabulate_categories",
    "tabulate_sign_agreement",
]
