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

Each name here is imported from its module on first use, so `import replikit`
loads no submodule. Only the simulation engine needs numpy: its six names
load it, and importing the package, or running any command but simulate,
does not.
"""

__version__ = "1.0.0"

# Each exported name and the module that defines it; ``__getattr__`` (PEP 562)
# imports that module when the name is first looked up.
_HOME = {
    "ContaminationSpec": "stats_core",
    "ConvergenceError": "errors",
    "DegenerateSampleError": "errors",
    "DomainError": "errors",
    "EffectCategory": "effect_size",
    "EffectSize": "effect_size",
    "InconsistentIntervalError": "errors",
    "InsufficientDataError": "errors",
    "Interval": "effect_size",
    "NoSolutionError": "errors",
    "PairingError": "errors",
    "ParseError": "errors",
    "ReplicationDesign": "prediction",
    "ReplikitError": "errors",
    "SampleSummary": "stats_core",
    "SimulationConfig": "simulation",
    "StudySummary": "meta",
    "back_solve_n": "prediction",
    "cohens_d": "effect_size",
    "confidence_interval": "effect_size",
    "confirms": "prediction",
    "fixed_effect_pool": "meta",
    "normal_quantile": "stats_core",
    "pair_replications": "simulation",
    "pairing_stream": "simulation",
    "parse_study_csv": "meta",
    "prediction_interval": "prediction",
    "run_simulation": "simulation",
    "serialize_study_csv": "meta",
    "standard_error_d": "effect_size",
    "t_quantile": "stats_core",
    "tabulate_categories": "simulation",
    "tabulate_sign_agreement": "simulation",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_HOME[name]}", __name__), name)
