"""The four benchmark workloads: seeded inputs, operations and output checks.

Each workload generates its inputs from the benchmark seed into a scratch
directory, yields its operations one loop unit at a time, and checks every
operation's output. The checks do not depend on the seed:

* ``sim-normal`` and ``sim-mixed-dump`` check the category percentages, sign
  quadrants and boxplot invariants, the category row against the acceptance
  gate's reference row, that every operation of a run gives the same bytes,
  and (``sim-mixed-dump``) a seeded sample of dump rows against a
  recomputation from the public ``derive_substream`` / ``draw_contaminated``
  / ``summarize`` / ``cohens_d``.
* ``studies`` checks the pooled d against an independent numpy
  inverse-variance recomputation from the generated rows, and that each SVG
  parses as XML with one marker per study.
* ``replication`` checks that ``back_solve_n`` returns exactly the
  generating n.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from replikit import effect_size, prediction, stats_core

CATEGORIES = ("large_neg", "med_neg", "small_neg", "none", "small_pos", "med_pos", "large_pos")

# Reference category rows of the acceptance gate (tests/test_acceptance.py),
# percent per bin in the order of CATEGORIES.
ROW_SMALL = (0.02, 0.27, 5.79, 43.61, 37.78, 11.19, 1.34)
ROW_NONE_STAR = (0.05, 2.54, 20.0, 54.62, 20.17, 2.57, 0.05)

_SVG_NS = "{http://www.w3.org/2000/svg}"
_DUMP_SAMPLE = 16
# The CLI's default --n-per-arm, which the simulate workloads keep.
N_PER_ARM = 30


@dataclass(frozen=True)
class Op:
    """One CLI operation: its replikit argv and the files it writes."""

    kind: str
    argv: tuple[str, ...]
    files: tuple[str, ...] = ()


@dataclass
class Outcome:
    """What one operation produced."""

    rc: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes] = field(default_factory=dict)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class CliWorkload:
    """Base for workloads whose operations are replikit CLI calls."""

    name = ""
    work_metric = ""

    def __init__(self) -> None:
        # Digest of the first output of each op kind; later ops must match.
        self._first: dict[str, str] = {}

    def prepare(self, tmp: Path, seed: int) -> None:
        raise NotImplementedError

    def unit(self) -> list[Op]:
        """The operations of one loop unit, run in order."""
        raise NotImplementedError

    def items(self, op: Op) -> int:
        """Units of work (experiments, studies) one operation completes."""
        raise NotImplementedError

    def _identity(self, op: Op, out: Outcome) -> str:
        return _digest(out.stdout, *(out.files.get(f, b"") for f in op.files))

    def _check_content(self, op: Op, out: Outcome) -> str | None:
        raise NotImplementedError

    def check(self, op: Op, out: Outcome) -> str | None:
        """None if the outcome is correct, else the first problem found."""
        if out.rc != 0:
            return f"exit code {out.rc}"
        if b"Traceback" in out.stderr:
            return "traceback on stderr"
        missing = [f for f in op.files if f not in out.files]
        if missing:
            return f"output file not written: {missing[0]}"
        ident = self._identity(op, out)
        first = self._first.get(op.kind)
        if first is not None:
            # Byte-identical to an output that passed every check.
            return None if ident == first else "output bytes differ from the run's first operation"
        try:
            problem = self._check_content(op, out)
        except (ValueError, KeyError, IndexError, TypeError, csv.Error, ET.ParseError) as exc:
            problem = f"unparseable output: {exc!r}"
        if problem is None:
            self._first[op.kind] = ident
        return problem


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------


def _parse_sim_csv(text: str) -> tuple[list[float], dict[str, int], dict[str, float]]:
    blocks = text.strip().split("\n\n")
    if len(blocks) != 3:
        raise ValueError(f"expected 3 csv blocks, got {len(blocks)}")
    cat_rows = list(csv.reader(io.StringIO(blocks[0])))
    sign_rows = list(csv.reader(io.StringIO(blocks[1])))
    box_rows = list(csv.reader(io.StringIO(blocks[2])))
    if tuple(cat_rows[0]) != CATEGORIES:
        raise ValueError(f"category header {cat_rows[0]}")
    percents = [float(v) for v in cat_rows[1]]
    signs = {k: int(v) for k, v in zip(sign_rows[0], sign_rows[1])}
    box = dict(zip(box_rows[0], box_rows[1]))
    box.pop("scenario")
    return percents, signs, {k: float(v) for k, v in box.items()}


def _parse_sim_json(text: str) -> tuple[list[float], dict[str, int], dict[str, float]]:
    payload = json.loads(text)
    percents = [100.0 * payload["categories"][c] for c in CATEGORIES]
    signs = {k: int(v) for k, v in payload["sign_agreement"].items()}
    (box,) = payload["boxplot"].values()
    return percents, signs, {k: float(v) for k, v in box.items()}


class SimWorkload(CliWorkload):
    """``replikit simulate`` at a fixed scenario; one operation per unit."""

    work_metric = "experiments_per_s"

    def __init__(
        self,
        name: str,
        runs: int,
        scenario: tuple[str, ...],
        fmt: str,
        reference: tuple[float, ...],
        tolerance_pp: float,
        contamination: stats_core.ContaminationSpec | None = None,
        dump: bool = False,
    ) -> None:
        super().__init__()
        self.name = name
        self.runs = runs
        self.scenario = scenario
        self.fmt = fmt
        self.reference = reference
        self.tolerance_pp = tolerance_pp
        self.contamination = contamination
        self.dump = dump
        self.seed = 0
        self.dump_path = ""

    def prepare(self, tmp: Path, seed: int) -> None:
        self.seed = seed
        self.dump_path = str(tmp / "batch.csv")

    def unit(self) -> list[Op]:
        argv = ["simulate", "--runs", str(self.runs), *self.scenario]
        argv += ["--format", self.fmt, "--seed", str(self.seed)]
        files: tuple[str, ...] = ()
        if self.dump:
            argv += ["--dump-batch", self.dump_path]
            files = (self.dump_path,)
        return [Op("simulate", tuple(argv), files)]

    def items(self, op: Op) -> int:
        return self.runs

    def _identity(self, op: Op, out: Outcome) -> str:
        stdout = out.stdout
        if self.fmt == "json":
            payload = json.loads(stdout)
            payload.pop("config", None)
            stdout = json.dumps(payload, sort_keys=True).encode()
        return _digest(stdout, *(out.files.get(f, b"") for f in op.files))

    def _check_content(self, op: Op, out: Outcome) -> str | None:
        text = out.stdout.decode("utf-8")
        parse = _parse_sim_json if self.fmt == "json" else _parse_sim_csv
        percents, signs, box = parse(text)
        if len(percents) != len(CATEGORIES) or not _close(sum(percents), 100.0):
            return f"category percentages sum to {sum(percents)!r}, not 100"
        if set(signs) != {"mm", "mp", "pm", "pp"} or sum(signs.values()) != self.runs // 2:
            return f"sign quadrants {signs} do not sum to {self.runs // 2}"
        if int(box["n"]) != self.runs:
            return f"boxplot n {box['n']} != runs {self.runs}"
        order = [box[k] for k in ("min", "q1", "median", "q3", "max")]
        if order != sorted(order):
            return f"boxplot five numbers out of order: {order}"
        gap = max(abs(p - r) for p, r in zip(percents, self.reference))
        if gap > self.tolerance_pp:
            return f"category row {gap:.2f}pp from the reference (limit {self.tolerance_pp})"
        if self.dump:
            return self.check_dump(out.files[self.dump_path].decode("utf-8"))
        return None

    def check_dump(self, text: str) -> str | None:
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["index", "d", "se", "n1", "n2"] or len(rows) != self.runs + 1:
            return f"dump has header {rows[0]} and {len(rows) - 1} rows, expected {self.runs}"
        rng = np.random.default_rng(self.seed)
        for i in sorted(int(k) for k in rng.choice(self.runs, _DUMP_SAMPLE, replace=False)):
            expected = recompute_experiment(self.seed, i, N_PER_ARM, self.contamination)
            if rows[i + 1] != expected:
                return f"dump row {i} is {rows[i + 1]}, recomputation gives {expected}"
        return None


def recompute_experiment(
    seed: int, index: int, n: int, spec: stats_core.ContaminationSpec | None
) -> list[str]:
    """One dump row recomputed from public replikit functions (zero true effect).

    The engine draws both arms' normals, then both arms' uniforms, from the
    experiment's substream; one ``draw_contaminated`` call of 2n standard
    draws consumes the stream in that order.
    """
    gen = stats_core.derive_substream(seed, index).generator()
    if spec is None:
        both = stats_core.draw_normal(gen, 0.0, 1.0, 2 * n)
    else:
        both = stats_core.draw_contaminated(gen, 0.0, 1.0, spec, 2 * n)
    effect = effect_size.cohens_d(stats_core.summarize(both[:n]), stats_core.summarize(both[n:]))
    return [str(index), repr(effect.d), repr(effect.se), str(effect.n1), str(effect.n2)]


# ---------------------------------------------------------------------------
# Study-file workload
# ---------------------------------------------------------------------------

STUDY_HEADER = ("study_id", "label", "n1", "n2", "mean1", "mean2", "sd1", "sd2", "d", "se")


def generate_studies(seed: int, rows: int) -> tuple[str, float]:
    """A study CSV, half raw-arm rows and half d/se rows in seeded order,
    and its pooled d recomputed independently with numpy."""
    rng = np.random.default_rng(seed)
    raw = rng.permutation(np.arange(rows) % 2 == 0)
    n1 = rng.integers(10, 201, rows)
    n2 = rng.integers(10, 201, rows)
    sd1 = rng.uniform(5.0, 30.0, rows)
    sd2 = rng.uniform(5.0, 30.0, rows)
    mean2 = rng.normal(100.0, 15.0, rows)
    mean1 = mean2 + rng.normal(0.3, 0.3, rows) * 0.5 * (sd1 + sd2)
    d_direct = rng.normal(0.3, 0.3, rows)

    n = n1 + n2
    pooled_sd = np.sqrt(((n1 - 1) * sd1**2 + (n2 - 1) * sd2**2) / (n - 2))
    d = np.where(raw, (mean1 - mean2) / pooled_sd, d_direct)
    se = np.sqrt(n / (n1 * n2) + d * d / (2.0 * n))
    w = 1.0 / se**2
    pooled_d = float(np.sum(w * d) / np.sum(w))

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(STUDY_HEADER)
    for i in range(rows):
        head = [f"s{i:05d}", f"Study {i:05d}", int(n1[i]), int(n2[i])]
        if raw[i]:
            arms = [repr(float(v[i])) for v in (mean1, mean2, sd1, sd2)]
            writer.writerow(head + arms + ["", ""])
        else:
            writer.writerow(head + ["", "", "", "", repr(float(d[i])), repr(float(se[i]))])
    return buf.getvalue(), pooled_d


class StudiesWorkload(CliWorkload):
    """``meta``, ``forest`` and ``funnel`` on one generated study CSV."""

    name = "studies"
    work_metric = "studies_per_s"

    def __init__(self, rows: int = 20000) -> None:
        super().__init__()
        self.rows = rows
        self.path = ""
        self.forest_path = ""
        self.funnel_path = ""
        self.expected_pooled_d = math.nan

    def prepare(self, tmp: Path, seed: int) -> None:
        text, self.expected_pooled_d = generate_studies(seed, self.rows)
        path = tmp / "studies.csv"
        path.write_text(text, encoding="utf-8")
        self.path = str(path)
        self.forest_path = str(tmp / "forest.svg")
        self.funnel_path = str(tmp / "funnel.svg")

    def unit(self) -> list[Op]:
        return [
            Op("meta", ("meta", self.path, "--format", "csv")),
            Op("forest", ("forest", self.path, "--output", self.forest_path), (self.forest_path,)),
            Op("funnel", ("funnel", self.path, "--output", self.funnel_path), (self.funnel_path,)),
        ]

    def items(self, op: Op) -> int:
        return self.rows

    def _check_content(self, op: Op, out: Outcome) -> str | None:
        if op.kind == "meta":
            # Plain split: the weights field outgrows the csv module's limit,
            # and no field of this table is quoted.
            header, row = (line.split(",") for line in out.stdout.decode("utf-8").splitlines())
            result = dict(zip(header, row))
            pooled = float(result["pooled_d"])
            if not _close(pooled, self.expected_pooled_d):
                return f"pooled d {pooled!r} != recomputed {self.expected_pooled_d!r}"
            if len(result["weights"].split(";")) != self.rows:
                return "weights column does not have one weight per study"
            return None
        root = ET.fromstring(out.files[op.files[0]])
        if op.kind == "forest":
            markers = [r for r in root.iter(f"{_SVG_NS}rect") if r.get("fill") != "white"]
        else:
            markers = list(root.iter(f"{_SVG_NS}circle"))
        if len(markers) != self.rows:
            return f"{op.kind} svg has {len(markers)} markers for {self.rows} studies"
        return None


# ---------------------------------------------------------------------------
# Replication workload (in process)
# ---------------------------------------------------------------------------

LEVELS = (0.8, 0.9, 0.95, 0.99)


@dataclass(frozen=True)
class RoundTrip:
    """One original study with equal arms and the n that generated it."""

    n: int
    d: float
    design: prediction.ReplicationDesign


class ReplicationWorkload:
    """``prediction_interval`` then ``back_solve_n`` on a seeded grid, in process."""

    name = "replication"
    work_metric = "round_trips_per_s"

    def __init__(self, grid_size: int = 2048) -> None:
        self.grid_size = grid_size
        self.grid: list[RoundTrip] = []

    def prepare(self, tmp: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        n = 2 * rng.integers(5, 401, self.grid_size)
        d = rng.uniform(-1.5, 1.5, self.grid_size)
        level = rng.choice(LEVELS, self.grid_size)
        path = tmp / "grid.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "d", "level"])
            for n_i, d_i, level_i in zip(n, d, level):
                writer.writerow((int(n_i), repr(float(d_i)), repr(float(level_i))))
        self.grid = []
        with path.open(encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                n_i, d_i, level_i = int(row["n"]), float(row["d"]), float(row["level"])
                arm = n_i // 2
                se = effect_size.standard_error_d(d_i, arm, arm)
                original = effect_size.EffectSize(d=d_i, se=se, n1=arm, n2=arm)
                design = prediction.ReplicationDesign(original, arm, arm, level_i)
                self.grid.append(RoundTrip(n_i, d_i, design))

    def run(self, i: int) -> str | None:
        """Do round trip ``i``; None if it is correct, else the problem."""
        trip = self.grid[i % len(self.grid)]
        interval = prediction.prediction_interval(trip.design)
        n = prediction.back_solve_n(trip.d, interval)
        return None if n == trip.n else f"back_solve_n gave {n}, generating n is {trip.n}"


def make(name: str):
    """The workload called ``name``."""
    if name == "sim-normal":
        return SimWorkload(
            "sim-normal", 100000, ("--effect", "small"), "csv", ROW_SMALL, 1.5
        )
    if name == "sim-mixed-dump":
        spec = stats_core.ContaminationSpec(epsilon=0.1, scale_mult=10.0)
        scenario = ("--dist", "mixed", "--epsilon", "0.1", "--scale-mult", "10", "--workers", "2")
        return SimWorkload(
            "sim-mixed-dump", 20000, scenario, "json", ROW_NONE_STAR, 5.0, spec, dump=True
        )
    if name == "studies":
        return StudiesWorkload()
    if name == "replication":
        return ReplicationWorkload()
    raise KeyError(name)
