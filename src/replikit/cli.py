"""Command-line surface for the toolkit.

Subcommands: effect, simulate, pi, meta, forest, funnel. Every run echoes
its effective configuration so any published number can be reproduced from
the output alone; in text mode the echo is commented header lines, in json
it is a "config" key, and in csv/svg it goes to stderr.

Exit codes: 0 success, 2 input/parse error, 3 domain/precondition error
(out of memory included), 4 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Mapping, Sequence

from .effect_size import EffectSize, classify, cohens_d, confidence_interval, standard_error_d
from .errors import ParseError, ReplikitError, UnsupportedFormatError
from .io import OutputFormat, Percent, Table, config_lines, parse_study_csv, render
from .meta import fixed_effect_pool, forest_model, funnel_data
from .prediction import ReplicationDesign, confirms, prediction_interval
from .stats_core import ContaminationSpec, SampleSummary
from .svg import render_forest_svg, render_funnel_svg

NAMED_EFFECTS = {"none": 0.0, "small": 0.2}

PROG = "replikit"


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads an exponent-form negative such as -1e-05 as a
    value, like -12 and -1.5; argparse alone would take it for a flag. No
    option here is named like a number, so no flag is read differently."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _add_common(parser: argparse.ArgumentParser, default_format: str = "text") -> None:
    parser.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    parser.add_argument(
        "--format",
        choices=[f.value for f in OutputFormat],
        default=default_format,
        help=f"output format (default {default_format})",
    )
    parser.add_argument(
        "--level", type=float, default=0.95, help="confidence/prediction level (default 0.95)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Effect-size, replication-simulation, and meta-analysis toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("effect", help="two-arm summaries -> d, se, CI, category")
    _add_common(p)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--mean1", type=float, required=True)
    p.add_argument("--sd1", type=float, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--mean2", type=float, required=True)
    p.add_argument("--sd2", type=float, required=True)
    p.add_argument("--hedges", action="store_true", help="apply the small-sample correction")
    p.set_defaults(handler=_cmd_effect)

    p = sub.add_parser(
        "simulate", help="Monte Carlo scenario -> category/sign tables + boxplot data"
    )
    _add_common(p)
    p.add_argument("--runs", type=int, default=10000, help="number of experiments (even)")
    p.add_argument("--n-per-arm", type=int, default=30)
    p.add_argument("--effect", default="none", help="true effect: none, small, or a number")
    p.add_argument("--dist", choices=["normal", "mixed"], default="normal")
    p.add_argument("--epsilon", type=float, default=0.1, help="mixed: contamination probability")
    p.add_argument("--scale-mult", type=float, default=10.0, help="mixed: outlier sd multiplier")
    p.add_argument("--mu", type=float, default=100.0)
    p.add_argument("--sigma", type=float, default=20.0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--dump-batch", metavar="PATH", help="also write per-experiment CSV here")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("pi", help="original study + replication sizes -> prediction interval")
    _add_common(p)
    p.add_argument("--d", type=float, required=True, help="original effect size")
    p.add_argument("--n1", type=int, required=True, help="original arm 1 size")
    p.add_argument("--n2", type=int, required=True, help="original arm 2 size")
    p.add_argument("--se", type=float, help="original se (default: computed from d, n1, n2)")
    p.add_argument("--rep-n1", type=int, required=True, help="replication arm 1 size")
    p.add_argument("--rep-n2", type=int, required=True, help="replication arm 2 size")
    p.add_argument("--check", type=float, metavar="D_REP", help="report whether this d confirms")
    p.set_defaults(handler=_cmd_pi)

    p = sub.add_parser("meta", help="study CSV -> pooled effect + heterogeneity")
    _add_common(p)
    p.add_argument("path", help="study CSV file")
    p.set_defaults(handler=_cmd_meta)

    p = sub.add_parser("forest", help="study CSV -> forest plot SVG")
    _add_common(p, default_format="svg")
    p.add_argument("path", help="study CSV file")
    p.add_argument("--output", metavar="PATH", help="write SVG here instead of stdout")
    p.set_defaults(handler=_cmd_forest)

    p = sub.add_parser("funnel", help="study CSV -> funnel plot SVG")
    _add_common(p, default_format="svg")
    p.add_argument("path", help="study CSV file")
    p.add_argument("--output", metavar="PATH", help="write SVG here instead of stdout")
    p.set_defaults(handler=_cmd_funnel)

    return parser


def _emit(fmt: OutputFormat, config: Mapping[str, object], tables: Sequence[Table]) -> int:
    out, err = render(fmt, config, tables)
    sys.stderr.write(err)
    sys.stdout.write(out)
    return 0


def _cmd_effect(args: argparse.Namespace) -> int:
    fmt = OutputFormat(args.format)
    arm1 = SampleSummary(n=args.n1, mean=args.mean1, sd=args.sd1)
    arm2 = SampleSummary(n=args.n2, mean=args.mean2, sd=args.sd2)
    effect = cohens_d(arm1, arm2, hedges=args.hedges)
    ci = confidence_interval(effect, level=args.level)
    config = {
        "command": "effect", "seed": args.seed, "level": args.level,
        "n1": args.n1, "mean1": args.mean1, "sd1": args.sd1,
        "n2": args.n2, "mean2": args.mean2, "sd2": args.sd2,
        "hedges": args.hedges,
    }
    rows = [
        ("d", effect.d), ("se", effect.se),
        ("ci_lower", ci.lower), ("ci_upper", ci.upper),
        ("category", classify(effect.d)),
    ]
    return _emit(fmt, config, [Table(rows)])


def _true_effect(text: str) -> float:
    key = text.strip().lower()
    if key in NAMED_EFFECTS:
        return NAMED_EFFECTS[key]
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"--effect expects 'none', 'small', or a number, got {text!r}") from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    # The engine loads numpy; only this command pays for it.
    from . import simulation as sim

    fmt = OutputFormat(args.format)
    spec = None
    if args.dist == "mixed":
        spec = ContaminationSpec(epsilon=args.epsilon, scale_mult=args.scale_mult)
    config = sim.SimulationConfig(
        runs=args.runs,
        n_per_arm=args.n_per_arm,
        mu=args.mu,
        sigma=args.sigma,
        true_effect_d=_true_effect(args.effect),
        contamination=spec,
        master_seed=args.seed,
    )
    batch = sim.run_simulation(config, workers=args.workers)
    categories = sim.tabulate_categories(batch)
    signs = sim.tabulate_sign_agreement(sim.pair_replications(batch, sim.pairing_stream(config)))
    label = f"{args.effect}-{args.dist}"
    box = sim.boxplot_summary(batch)
    if args.dump_batch:
        Path(args.dump_batch).write_text(sim.batch_to_csv(batch), encoding="utf-8")

    echo = {
        "runs": config.runs, "n_per_arm": config.n_per_arm,
        "mu": config.mu, "sigma": config.sigma, "true_effect_d": config.true_effect_d,
        "epsilon": None if spec is None else spec.epsilon,
        "scale_mult": None if spec is None else spec.scale_mult,
        "master_seed": config.master_seed, "workers": args.workers,
    }
    tables = [
        Table(
            [(cat, Percent(p)) for cat, p in categories.items()],
            title=("category", "proportion"),
            json_path=("categories",),
        ),
        Table(list(asdict(signs).items()), title=("quadrant", "count"), json_path=("sign_agreement",)),
        Table(list(asdict(box).items()), json_path=("boxplot",), name=("scenario", label)),
    ]
    return _emit(fmt, echo, tables)


def _cmd_pi(args: argparse.Namespace) -> int:
    fmt = OutputFormat(args.format)
    se = args.se if args.se is not None else standard_error_d(args.d, args.n1, args.n2)
    original = EffectSize(d=args.d, se=se, n1=args.n1, n2=args.n2)
    design = ReplicationDesign(
        original=original, n1_rep=args.rep_n1, n2_rep=args.rep_n2, level=args.level
    )
    interval = prediction_interval(design)
    config = {
        "command": "pi", "seed": args.seed, "level": args.level,
        "d": args.d, "se": se, "n1": args.n1, "n2": args.n2,
        "rep_n1": args.rep_n1, "rep_n2": args.rep_n2,
    }
    rows: list[tuple[str, object]] = [("pi_lower", interval.lower), ("pi_upper", interval.upper)]
    if args.check is not None:
        rows += [("d_rep", args.check), ("confirms", confirms(interval, args.check))]
    return _emit(fmt, config, [Table(rows)])


def _read_studies(path: str):
    try:
        content = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_study_csv(content)


def _study_config(args: argparse.Namespace, studies: Sequence[object]) -> dict[str, object]:
    return {
        "command": args.command, "seed": args.seed, "level": args.level,
        "path": args.path, "studies": len(studies),
    }


def _cmd_meta(args: argparse.Namespace) -> int:
    fmt = OutputFormat(args.format)
    studies = _read_studies(args.path)
    result = fixed_effect_pool(studies, level=args.level)
    if fmt is OutputFormat.SVG:
        raise UnsupportedFormatError("meta renders tables; use forest or funnel for svg")
    rows = [
        ("pooled_d", result.pooled_d), ("pooled_se", result.pooled_se),
        ("ci_lower", result.ci.lower), ("ci_upper", result.ci.upper),
        ("q", result.q_statistic), ("i_squared", result.i_squared),
        ("weights", result.weights),
    ]
    return _emit(fmt, _study_config(args, studies), [Table(rows)])


def _render_plot(args: argparse.Namespace, svg_text: str, studies: Sequence[object]) -> int:
    fmt = OutputFormat(args.format)
    if fmt is not OutputFormat.SVG:
        raise UnsupportedFormatError(f"{args.command} renders svg only; got --format {fmt.value}")
    sys.stderr.write(config_lines(_study_config(args, studies)))
    if args.output:
        Path(args.output).write_text(svg_text, encoding="utf-8")
    else:
        sys.stdout.write(svg_text)
    return 0


def _cmd_forest(args: argparse.Namespace) -> int:
    studies = _read_studies(args.path)
    pooled = fixed_effect_pool(studies, level=args.level)
    return _render_plot(args, render_forest_svg(forest_model(studies, pooled)), studies)


def _cmd_funnel(args: argparse.Namespace) -> int:
    studies = _read_studies(args.path)
    return _render_plot(args, render_funnel_svg(funnel_data(studies)), studies)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ReplikitError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"{PROG}: error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
