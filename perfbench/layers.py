"""Where the traced run wraps replikit, and the per-layer metrics it reports.

The layers are replikit's modules. Each site wraps a public function at the
module attribute where its caller looks it up: every call that crosses from
one module into another, plus the few calls inside a module that a metric
names (``run_experiment``, ``t_cdf``, ``fixed_effect_pool`` from
``funnel_data``, ``StudySummary.effect``).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from spans import Site, count_within, parent_index, self_times

LAYERS = ("cli", "simulation", "stats_core", "effect_size", "prediction", "meta", "io", "svg")


def _sites(module: str, names: dict[str, str]) -> list[Site]:
    return [Site(f"replikit.{module}", path, name) for path, name in names.items()]


SITES: tuple[Site, ...] = tuple(
    _sites("cli", {
        "main": "cli.main",
        "build_parser": "cli.build_parser",
        "run_simulation": "simulation.run_simulation",
        "tabulate_categories": "simulation.tabulate_categories",
        "pair_replications": "simulation.pair_replications",
        "pairing_stream": "simulation.pairing_stream",
        "tabulate_sign_agreement": "simulation.tabulate_sign_agreement",
        "boxplot_summary": "simulation.boxplot_summary",
        "cohens_d": "effect_size.cohens_d",
        "classify": "effect_size.classify",
        "confidence_interval": "effect_size.confidence_interval",
        "standard_error_d": "effect_size.standard_error_d",
        "category_label": "effect_size.category_label",
        "batch_to_csv": "io.batch_to_csv",
        "boxplot_dict": "io.boxplot_dict",
        "config_dict": "io.config_dict",
        "fmt4": "io.fmt4",
        "meta_result_dict": "io.meta_result_dict",
        "parse_study_csv": "io.parse_study_csv",
        "render_table": "io.render_table",
        "fixed_effect_pool": "meta.fixed_effect_pool",
        "forest_model": "meta.forest_model",
        "funnel_data": "meta.funnel_data",
        "prediction_interval": "prediction.prediction_interval",
        "confirms": "prediction.confirms",
        "render_forest_svg": "svg.render_forest_svg",
        "render_funnel_svg": "svg.render_funnel_svg",
    })
    + _sites("simulation", {
        "run_experiment": "simulation.run_experiment",
        "derive_substream": "stats_core.derive_substream",
        "summarize": "stats_core.summarize",
        "cohens_d": "effect_size.cohens_d",
        "classify": "effect_size.classify",
    })
    + _sites("stats_core", {
        "RandomStream.generator": "stats_core.generator",
        "t_quantile": "stats_core.t_quantile",
        "t_cdf": "stats_core.t_cdf",
    })
    + _sites("effect_size", {"normal_quantile": "stats_core.normal_quantile"})
    + _sites("io", {"category_label": "effect_size.category_label"})
    + _sites("meta", {
        "cohens_d": "effect_size.cohens_d",
        "normal_quantile": "stats_core.normal_quantile",
        "fixed_effect_pool": "meta.fixed_effect_pool",
        "StudySummary.effect": "meta.effect",
    })
    + _sites("prediction", {
        "standard_error_d": "effect_size.standard_error_d",
        "t_quantile": "stats_core.t_quantile",
        "prediction_interval": "prediction.prediction_interval",
        "back_solve_n": "prediction.back_solve_n",
    })
)


@dataclass
class Totals:
    """Span aggregates summed over the traced operations of one run."""

    ops: int = 0
    traced_s: float = 0.0
    untraced_s: float = 0.0
    calls: Counter = field(default_factory=Counter)
    inclusive_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    layer_self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    t_quantile_in_back_solve: int = 0
    absent: set = field(default_factory=set)
    # Measured by the benchmark around the traced calls.
    stdout_bytes: int = 0
    dump_bytes: int = 0
    svg_bytes: int = 0
    rows_parsed: int = 0
    import_ms: float = 0.0

    def add_spans(self, spans: np.ndarray, names: list[str], layer_by_name: dict[str, str]) -> None:
        """Fold one batch of complete spans into the totals."""
        if len(spans) == 0:
            return
        dur = spans["t1"] - spans["t0"]
        selfs = self_times(spans)
        pidx = parent_index(spans)
        # A call that recurses through its own wrapper counts once in time.
        outer = (pidx < 0) | (spans["name"][np.maximum(pidx, 0)] != spans["name"])
        ids = spans["name"]
        width = len(names)
        counts = np.bincount(ids, minlength=width)
        incl = np.bincount(ids[outer], weights=dur[outer], minlength=width)
        own = np.bincount(ids, weights=selfs, minlength=width)
        for nid, name in enumerate(names):
            if counts[nid]:
                self.calls[name] += int(counts[nid])
                self.inclusive_s[name] += float(incl[nid])
                self.self_s[name] += float(own[nid])
                self.layer_self_s[layer_by_name.get(name, name.split(".")[0])] += float(own[nid])
        self.t_quantile_in_back_solve += count_within(
            spans, names, "stats_core.t_quantile", "prediction.back_solve_n"
        )


def _per_op(t: Totals, value: float) -> float:
    return value / t.ops if t.ops else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ms(name):
    return lambda t: 1e3 * _per_op(t, t.inclusive_s[name])


def _self_ms(name):
    return lambda t: 1e3 * _per_op(t, t.self_s[name])


def _calls(name):
    return lambda t: _per_op(t, t.calls[name])


def _layer_ms(layer):
    return lambda t: 1e3 * _per_op(t, t.layer_self_s[layer])


# (metric, unit, better, value from Totals). Times and counts are per traced
# operation; a name that no longer exists reads 0.
PER_LAYER = (
    ("stats_core.generator_ms", "ms", "lower", _ms("stats_core.generator")),
    ("stats_core.generator_calls", "count", "lower", _calls("stats_core.generator")),
    ("stats_core.derive_substream_ms", "ms", "lower", _ms("stats_core.derive_substream")),
    ("stats_core.summarize_ms", "ms", "lower", _ms("stats_core.summarize")),
    ("stats_core.summarize_calls", "count", "lower", _calls("stats_core.summarize")),
    ("simulation.run_experiment_self_ms", "ms", "lower", _self_ms("simulation.run_experiment")),
    ("simulation.run_experiment_calls", "count", "lower", _calls("simulation.run_experiment")),
    ("effect_size.cohens_d_ms", "ms", "lower", _ms("effect_size.cohens_d")),
    ("effect_size.classify_ms", "ms", "lower", _ms("effect_size.classify")),
    ("simulation.run_simulation_self_ms", "ms", "lower", _self_ms("simulation.run_simulation")),
    ("simulation.tabulate_categories_ms", "ms", "lower", _ms("simulation.tabulate_categories")),
    ("simulation.pair_replications_ms", "ms", "lower", _ms("simulation.pair_replications")),
    ("simulation.tabulate_sign_agreement_ms", "ms", "lower",
     _ms("simulation.tabulate_sign_agreement")),
    ("simulation.boxplot_summary_ms", "ms", "lower", _ms("simulation.boxplot_summary")),
    ("io.batch_to_csv_ms", "ms", "lower", _ms("io.batch_to_csv")),
    ("io.dump_bytes", "bytes", "lower", lambda t: _per_op(t, t.dump_bytes)),
    ("io.parse_study_csv_ms", "ms", "lower", _ms("io.parse_study_csv")),
    ("io.parse_rows_per_s", "1/s", "higher",
     lambda t: _ratio(t.rows_parsed, t.inclusive_s["io.parse_study_csv"])),
    ("meta.fixed_effect_pool_ms", "ms", "lower", _ms("meta.fixed_effect_pool")),
    ("meta.forest_model_ms", "ms", "lower", _ms("meta.forest_model")),
    ("meta.funnel_data_ms", "ms", "lower", _ms("meta.funnel_data")),
    ("meta.effect_calls_per_study", "ratio", "lower",
     lambda t: _ratio(t.calls["meta.effect"], t.rows_parsed)),
    ("svg.render_forest_svg_ms", "ms", "lower", _ms("svg.render_forest_svg")),
    ("svg.render_funnel_svg_ms", "ms", "lower", _ms("svg.render_funnel_svg")),
    ("svg.bytes", "bytes", "lower", lambda t: _per_op(t, t.svg_bytes)),
    ("stats_core.t_quantile_ms", "ms", "lower", _ms("stats_core.t_quantile")),
    ("stats_core.t_quantile_calls", "count", "lower", _calls("stats_core.t_quantile")),
    ("stats_core.t_cdf_per_t_quantile", "ratio", "lower",
     lambda t: _ratio(t.calls["stats_core.t_cdf"], t.calls["stats_core.t_quantile"])),
    ("prediction.back_solve_n_ms", "ms", "lower", _ms("prediction.back_solve_n")),
    ("prediction.t_quantile_per_back_solve", "ratio", "lower",
     lambda t: _ratio(t.t_quantile_in_back_solve, t.calls["prediction.back_solve_n"])),
    ("io.render_table_ms", "ms", "lower", _ms("io.render_table")),
    ("io.stdout_bytes", "bytes", "lower", lambda t: _per_op(t, t.stdout_bytes)),
    ("cli.import_ms", "ms", "lower", lambda t: t.import_ms),
    *((f"{layer}.self_ms", "ms", "lower", _layer_ms(layer)) for layer in LAYERS),
    ("trace.op_ms", "ms", "lower", lambda t: 1e3 * _per_op(t, t.traced_s)),
    ("trace.untraced_op_ms", "ms", "lower", lambda t: 1e3 * _per_op(t, t.untraced_s)),
    ("trace.overhead_frac", "ratio", "lower", lambda t: _ratio(t.traced_s, t.untraced_s) - 1.0),
    ("trace.absent_sites", "count", "lower", lambda t: len(t.absent)),
)


def per_layer_metrics(t: Totals) -> dict[str, dict[str, object]]:
    return {name: {"value": float(fn(t)), "unit": unit} for name, unit, _, fn in PER_LAYER}
