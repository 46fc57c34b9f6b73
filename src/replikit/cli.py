"""Command-line surface for the toolkit.

Subcommands: effect, simulate, pi, meta, forest, funnel; ``build_parser`` says
what each takes. Only simulate draws, so only it takes ``--seed``; forest and
funnel write SVG only, and the four others take ``--format text|csv|json``.
Every run echoes its effective configuration so any published number can be
reproduced from the output alone: as ``# key value`` header lines in text, a
"config" key in json, and on stderr in csv and for the plots. The echo names
only what shaped the output: simulate's scenario label is the echoed true
effect and the distribution (``0.2-normal`` for ``--effect small``), and it
takes ``--epsilon`` and ``--scale-mult`` only with ``--dist mixed``.

Building the parser loads none of the toolkit: each command imports the
modules it uses when it runs, so only simulate loads numpy.

Exit codes: 0 success, 2 input/parse error, 3 domain/precondition error
(out of memory and integer overflow included), 4 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Mapping, Sequence
from itertools import islice
from pathlib import Path

from .errors import ParseError, ReplikitError

PROG = "replikit"
MAX_STUDY_BYTES = 256 * 2**20  # a larger study file or an endless stream is refused


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads an exponent-form negative such as -1e-05 as a
    value, like -12 and -1.5; argparse alone would take it for a flag. No
    option here is named like a number, so no flag is read differently."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _CommandParser(_Parser):
    """A subcommand's parser, which refuses an unknown argument with its own
    usage; one placed before the subcommand gets the top-level usage."""

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=["text", "csv", "json"], default="text",
        help="output format (default text)",
    )


def _add_level(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--level", type=float, default=0.95, help="confidence/prediction level (default 0.95)"
    )


def _arm_size(text: str) -> int:
    """``int`` for an arm size, refusing one too large to have a float value:
    d and its se are computed in floats."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if abs(n) > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"arm size {text!r} is too large to have a float value")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Effect-size, replication-simulation, and meta-analysis toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("effect", help="two-arm summaries -> d, se, CI, category")
    _add_format(p)
    _add_level(p)
    p.add_argument("--n1", type=_arm_size, required=True)
    p.add_argument("--mean1", type=float, required=True)
    p.add_argument("--sd1", type=float, required=True)
    p.add_argument("--n2", type=_arm_size, required=True)
    p.add_argument("--mean2", type=float, required=True)
    p.add_argument("--sd2", type=float, required=True)
    p.add_argument("--hedges", action="store_true", help="apply the small-sample correction")
    p.set_defaults(handler=_cmd_effect)

    p = sub.add_parser(
        "simulate", help="Monte Carlo scenario -> category/sign tables + boxplot data"
    )
    _add_format(p)
    p.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    p.add_argument("--runs", type=int, default=10000, help="number of experiments (even)")
    p.add_argument("--n-per-arm", type=int, default=30)
    p.add_argument("--effect", default="none", help="true effect: none, small, or a number")
    p.add_argument("--dist", choices=["normal", "mixed"], default="normal")
    p.add_argument("--epsilon", type=float, help="mixed: contamination probability")
    p.add_argument("--scale-mult", type=float, help="mixed: outlier sd multiplier")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--dump-batch", metavar="PATH", help="also write per-experiment CSV here")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("pi", help="original study + replication sizes -> prediction interval")
    _add_format(p)
    _add_level(p)
    p.add_argument("--d", type=float, required=True, help="original effect size")
    p.add_argument("--n1", type=_arm_size, required=True, help="original arm 1 size")
    p.add_argument("--n2", type=_arm_size, required=True, help="original arm 2 size")
    p.add_argument("--se", type=float, help="original se (default: computed from d, n1, n2)")
    p.add_argument("--rep-n1", type=_arm_size, required=True, help="replication arm 1 size")
    p.add_argument("--rep-n2", type=_arm_size, required=True, help="replication arm 2 size")
    p.add_argument("--check", type=float, metavar="D_REP", help="report whether this d confirms")
    p.set_defaults(handler=_cmd_pi)

    p = sub.add_parser("meta", help="study CSV -> pooled effect + heterogeneity")
    _add_format(p)
    _add_level(p)
    p.add_argument("path", help="study CSV file")
    p.set_defaults(handler=_cmd_meta)

    for name in ("forest", "funnel"):
        p = sub.add_parser(name, help=f"study CSV -> {name} plot SVG")
        _add_level(p)
        p.add_argument("path", help="study CSV file")
        p.add_argument("--output", metavar="PATH", help="write SVG here instead of stdout")
        p.set_defaults(handler=_cmd_plot)
    return parser


def _emit(fmt: str, config: Mapping[str, object], tables: Sequence[object]) -> int:
    """Write the echo and the ``io.Table`` blocks in the ``--format`` named ``fmt``."""
    from .io import render

    out, err = render(fmt, config, tables)
    sys.stderr.write(err)
    sys.stdout.write(out)
    return 0


def _cmd_effect(args: argparse.Namespace) -> int:
    from .effect_size import classify, cohens_d, confidence_interval
    from .io import Table
    from .stats_core import SampleSummary

    arm1 = SampleSummary(n=args.n1, mean=args.mean1, sd=args.sd1)
    arm2 = SampleSummary(n=args.n2, mean=args.mean2, sd=args.sd2)
    effect = cohens_d(arm1, arm2, hedges=args.hedges)
    ci = confidence_interval(effect, level=args.level)
    config = {
        "command": "effect", "level": args.level,
        "n1": args.n1, "mean1": args.mean1, "sd1": args.sd1,
        "n2": args.n2, "mean2": args.mean2, "sd2": args.sd2,
        "hedges": args.hedges,
    }
    rows = [
        ("d", effect.d), ("se", effect.se),
        ("ci_lower", ci.lower), ("ci_upper", ci.upper),
        ("category", classify(effect.d)),
    ]
    return _emit(args.format, config, [Table(rows)])


def _true_effect(text: str) -> float:
    from .effect_size import _BANDS

    key = text.strip().lower()
    named = {"none": 0.0, "small": _BANDS[0]}
    if key in named:
        return named[key]
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"--effect expects 'none', 'small', or a number, got {text!r}") from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    given = {"epsilon": args.epsilon, "scale_mult": args.scale_mult}
    mixture = {k: v for k, v in given.items() if v is not None}
    if mixture and args.dist != "mixed":
        raise ParseError("--epsilon and --scale-mult apply only with --dist mixed")

    # The engine loads numpy; only this command pays for it.
    from . import simulation as sim
    from .io import Percent, Table

    spec = sim.ContaminationSpec(**mixture) if args.dist == "mixed" else None
    config = sim.SimulationConfig(
        runs=args.runs,
        n_per_arm=args.n_per_arm,
        true_effect_d=_true_effect(args.effect),
        contamination=spec,
        master_seed=args.seed,
    )
    batch = sim.run_simulation(config, workers=args.workers)
    categories = sim.tabulate_categories(batch)
    signs = sim.tabulate_sign_agreement(sim.pair_replications(batch, sim.pairing_stream(config)))
    label = f"{config.true_effect_d!r}-{args.dist}"
    box = sim.boxplot_summary(batch)
    if args.dump_batch:
        Path(args.dump_batch).write_text(sim.batch_to_csv(batch), encoding="utf-8")

    echo = {
        "command": "simulate", "runs": config.runs, "n_per_arm": config.n_per_arm,
        "true_effect_d": config.true_effect_d,
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
    return _emit(args.format, echo, tables)


def _cmd_pi(args: argparse.Namespace) -> int:
    from .effect_size import EffectSize, standard_error_d
    from .io import Table
    from .prediction import ReplicationDesign, confirms, prediction_interval

    se = args.se if args.se is not None else standard_error_d(args.d, args.n1, args.n2)
    original = EffectSize(d=args.d, se=se, n1=args.n1, n2=args.n2)
    design = ReplicationDesign(
        original=original, n1_rep=args.rep_n1, n2_rep=args.rep_n2, level=args.level
    )
    interval = prediction_interval(design)
    config = {
        "command": "pi", "level": args.level,
        "d": args.d, "se": se, "n1": args.n1, "n2": args.n2,
        "rep_n1": args.rep_n1, "rep_n2": args.rep_n2,
    }
    rows: list[tuple[str, object]] = [("pi_lower", interval.lower), ("pi_upper", interval.upper)]
    if args.check is not None:
        rows += [("d_rep", args.check), ("confirms", confirms(interval, args.check))]
    return _emit(args.format, config, [Table(rows)])


def _check_output(args: argparse.Namespace) -> None:
    """Refuse an output file the command cannot write before any study file is
    read or any run simulated."""
    path = getattr(args, "output", None) or getattr(args, "dump_batch", None)
    if path and not Path(path).is_fifo():  # opening a named pipe would wait for its reader
        made = not os.path.lexists(path)
        open(path, "ab").close()  # appending truncates nothing
        if made:
            os.unlink(path)


def parse_study_csv(data: bytes):
    """``meta.parse_study_csv``, imported when a study command runs."""
    from .meta import parse_study_csv

    return parse_study_csv(data)


def _read_studies(args: argparse.Namespace):
    """The command's study file, read in chunks up to ``MAX_STUDY_BYTES``."""
    try:
        with open(args.path, "rb") as handle:  # in chunks: read(n) reserves n bytes up front
            chunks = [*islice(iter(lambda: handle.read(2**20), b""), MAX_STUDY_BYTES // 2**20 + 1)]
    except OSError as exc:
        raise ParseError(f"cannot read {args.path}: {exc}") from None
    if sum(map(len, chunks)) > MAX_STUDY_BYTES:
        raise ParseError(f"{args.path} is over the {MAX_STUDY_BYTES}-byte limit for a study file")
    return parse_study_csv(b"".join(chunks))


def _study_config(args: argparse.Namespace, studies: Sequence[object]) -> dict[str, object]:
    return {"command": args.command, "level": args.level, "path": args.path, "studies": len(studies)}


def _cmd_meta(args: argparse.Namespace) -> int:
    from .io import Table
    from .meta import fixed_effect_pool

    studies = _read_studies(args)
    result = fixed_effect_pool(studies, level=args.level)
    rows = [
        ("pooled_d", result.pooled_d), ("pooled_se", result.pooled_se),
        ("ci_lower", result.ci.lower), ("ci_upper", result.ci.upper),
        ("q", result.q_statistic), ("i_squared", result.i_squared),
        ("weights", result.weights),
    ]
    return _emit(args.format, _study_config(args, studies), [Table(rows)])


def _cmd_plot(args: argparse.Namespace) -> int:
    from . import svg
    from .io import config_lines
    from .meta import fixed_effect_pool

    studies = _read_studies(args)
    render = svg.render_forest_svg if args.command == "forest" else svg.render_funnel_svg
    svg_text = render(fixed_effect_pool(studies, level=args.level))
    if args.output:
        Path(args.output).write_text(svg_text, encoding="utf-8")
    else:
        sys.stdout.write(svg_text)
    sys.stderr.write(config_lines(_study_config(args, studies)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_output(args)
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
    except OverflowError as exc:  # e.g. arm sizes whose sum has no float value
        print(f"{PROG}: error: numeric overflow: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
