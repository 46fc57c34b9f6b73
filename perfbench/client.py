"""The benchmark client: set-up probes, the closed loop and the traced run."""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import replikit.cli

import workloads
from layers import LAYERS, SITES, Totals, per_layer_metrics
from spans import Tracer, installed

SETUP_PROBES = 15
# Kills a hung operation well inside the 180 s a run may take.
OP_TIMEOUT_S = 60.0
MAX_REPORTED_FAILURES = 5
# Round trips per loop unit of the in-process replication workload: enough
# that a unit's cost does not hinge on which grid points it drew.
REPLICATION_UNIT = 100
# op_p90_s is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100

# The end-to-end metrics of the JSON result, in the order BENCHMARK.json
# lists them.
E2E_UNITS = {"setup_s": "s", "best_work_per_s": "1/s", "peak_rss_mb": "MB"}

PROBE = (
    "import time; t0 = time.perf_counter(); import replikit.cli as c; "
    "t1 = time.perf_counter(); c.build_parser(); print(repr(t1 - t0))"
)


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(argv: list[str], env: dict[str, str], out_path: Path, err_path: Path):
    """Run one child to completion; (exit code, wall seconds, peak RSS MB).

    The peak RSS comes from ``os.wait4`` on this child's pid, so it is the
    child's own high-water mark, not that of all children so far.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o600),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    reaped = None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        reaped = os.wait4(pid, 0)
    except _Timeout:
        pass
    except BaseException:  # interrupted or terminated: end the child first
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - t0
    if reaped is None:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        return -signal.SIGKILL, wall, 0.0
    _, status, usage = reaped
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def _outcome(op: workloads.Op, rc: int, stdout: bytes, stderr: bytes) -> workloads.Outcome:
    files = {f: Path(f).read_bytes() for f in op.files if Path(f).exists()}
    return workloads.Outcome(rc, stdout, stderr, files)


def _clear(op: workloads.Op) -> None:
    for f in op.files:
        Path(f).unlink(missing_ok=True)


class Client:
    """Closed-loop client for one workload run."""

    def __init__(self, wl, seconds: float, tmp: Path, env: dict[str, str]) -> None:
        self.wl = wl
        self.seconds = seconds
        self.tmp = tmp
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.op_s: list[float] = []
        self.rss_mb: list[float] = []
        # (work items completed, operation seconds) per loop unit.
        self.units: list[tuple[int, float]] = []
        # Set-up probes: wall seconds per probe process, and the import time
        # each probe measured itself.
        self.setup_s: list[float] = []
        self.import_s: list[float] = []

    def probe(self) -> None:
        """Time one fresh interpreter + ``import replikit.cli`` + ``build_parser()``."""
        out, err = self.tmp / "probe.out", self.tmp / "probe.err"
        rc, wall, _ = spawn([sys.executable, "-c", PROBE], self.env, out, err)
        if rc != 0:
            raise RuntimeError(f"setup probe failed: {err.read_text(errors='replace')[-500:]}")
        self.setup_s.append(wall)
        self.import_s.append(float(out.read_text()))

    def _record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"perfbench: {self.wl.name}: {what} failed: {problem}", file=sys.stderr)

    def loop(self, run_unit) -> None:
        """Run whole units while the next one is expected to end in time.

        The set-up probes run between units, spread over the run, so that
        ``setup_s`` samples the same stretch of machine time as the
        operations. Probe time does not count against ``seconds``.
        """
        self.probe()  # warms the page cache and bytecode cache; not counted
        self.setup_s.clear()
        self.import_s.clear()
        spent = 0.0
        unit_s: list[float] = []
        while not unit_s or spent + statistics.median(unit_s) <= self.seconds:
            while len(self.setup_s) < SETUP_PROBES * min(1.0, spent / self.seconds):
                self.probe()
            t0 = time.perf_counter()
            run_unit()
            unit_s.append(time.perf_counter() - t0)
            spent += unit_s[-1]
        while len(self.setup_s) < SETUP_PROBES:
            self.probe()

    # -- end to end, tracing off ------------------------------------------

    def cli_unit(self) -> None:
        out, err = self.tmp / "op.out", self.tmp / "op.err"
        items, busy = 0, 0.0
        for op in self.wl.unit():
            _clear(op)
            argv = [sys.executable, "-m", "replikit.cli", *op.argv]
            rc, wall, rss = spawn(argv, self.env, out, err)
            outcome = _outcome(op, rc, out.read_bytes(), err.read_bytes())
            problem = self.wl.check(op, outcome)
            self._record(op.kind, problem)
            self.op_s.append(wall)
            self.rss_mb.append(rss)
            busy += wall
            if problem is None:
                items += self.wl.items(op)
        self.units.append((items, busy))

    def round_trip(self, i: int) -> tuple[bool, float]:
        """One in-process replication operation: (correct, wall seconds)."""
        t0 = time.perf_counter()
        try:
            problem = self.wl.run(i)
        except Exception as exc:  # a failed operation, not a benchmark error
            problem = repr(exc)
        wall = time.perf_counter() - t0
        self._record(f"round trip {i}", problem)
        return problem is None, wall

    def replication_unit(self) -> None:
        items, busy = 0, 0.0
        for _ in range(REPLICATION_UNIT):
            ok, wall = self.round_trip(self.attempted)
            self.op_s.append(wall)
            busy += wall
            items += ok
        self.units.append((items, busy))

    def end_to_end(self) -> tuple[dict, list[str]]:
        if self.wl.name == "replication":
            self.loop(self.replication_unit)
            # In process: the benchmark's own process is the operation's.
            self.rss_mb = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        else:
            self.loop(self.cli_unit)
        ops = self.op_s
        rates = [items / busy for items, busy in self.units]
        measured = {
            "setup_s": (statistics.median(self.setup_s), len(self.setup_s)),
            # The fastest loop unit. Other tenants of a shared machine only
            # ever slow a unit down, by up to half for a minute at a time;
            # the run's best unit is the least disturbed, so it repeats from
            # run to run where a median does not.
            "best_work_per_s": (max(rates), len(rates)),
            "peak_rss_mb": (max(self.rss_mb), len(self.rss_mb)),
        }
        work = self.wl.work_metric
        rows = [
            ("setup_s", *measured["setup_s"], "s"),
            (f"{work} best unit (best_work_per_s)", *measured["best_work_per_s"], "1/s"),
            (f"{work} median unit", statistics.median(rates), len(rates), "1/s"),
            ("op_p50_s", statistics.median(ops), len(ops), "s"),
        ]
        if len(ops) >= P90_MIN_SAMPLES:
            rows.append(("op_p90_s", statistics.quantiles(ops, n=10)[-1], len(ops), "s"))
        rows.append(("peak_rss_mb", *measured["peak_rss_mb"], "MB"))
        rows.append(("fail_frac", self.failed / self.attempted, self.attempted, "ratio"))
        lines = [f"{name:<44} {value:>14.6g} {unit:<5} n={n}" for name, value, n, unit in rows]
        if len(ops) < P90_MIN_SAMPLES:
            lines.append(f"op_p90_s not reported: {len(ops)} operations, needs {P90_MIN_SAMPLES}")
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in measured.items()}
        return metrics, lines

    # -- traced, in process -----------------------------------------------

    def traced(self) -> tuple[dict, list[str]]:
        totals = Totals()
        tracer = Tracer()

        def call_cli(op):
            _clear(op)
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = replikit.cli.main(list(op.argv))
                except Exception:
                    traceback.print_exc()
                    rc = 1
            wall = time.perf_counter() - t0
            outcome = _outcome(op, rc, out.getvalue().encode(), err.getvalue().encode())
            self._record(op.kind, self.wl.check(op, outcome))
            return outcome, wall

        def traced_call(fn):
            with installed(tracer, SITES, LAYERS) as (layer_by_name, absent):
                result = fn()
            totals.absent.update(site.name for site in absent)
            totals.add_spans(tracer.spans(), tracer.names, layer_by_name)
            tracer.clear()
            return result

        def cli_unit():
            for op in self.wl.unit():
                totals.untraced_s += call_cli(op)[1]
                outcome, wall = traced_call(lambda: call_cli(op))
                totals.traced_s += wall
                totals.ops += 1
                totals.stdout_bytes += len(outcome.stdout)
                if op.kind == "simulate":
                    totals.dump_bytes += sum(len(b) for b in outcome.files.values())
                else:
                    totals.svg_bytes += sum(len(b) for b in outcome.files.values())
                if op.kind in ("meta", "forest", "funnel"):
                    totals.rows_parsed += self.wl.rows

        def batch(first: int) -> float:
            return sum(self.round_trip(i)[1] for i in range(first, first + REPLICATION_UNIT))

        def replication_unit():
            first = self.attempted
            totals.untraced_s += batch(first)
            totals.traced_s += traced_call(lambda: batch(first))
            totals.ops += REPLICATION_UNIT

        self.loop(replication_unit if self.wl.name == "replication" else cli_unit)
        totals.import_ms = 1e3 * statistics.median(self.import_s)
        metrics = per_layer_metrics(totals)
        lines = [f"{name:<40} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
        lines.append(f"traced operations: {totals.ops}")
        if totals.absent:
            lines.append(f"absent (0 calls): {', '.join(sorted(totals.absent))}")
        return metrics, lines


def machine_line() -> str:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return (
        f"# machine: nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={numpy.__version__} replikit={replikit.__version__}"
    )


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload against ``root/src``, print the report, return the exit code."""
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "TMPDIR": str(tmp)}
        wl = workloads.make(workload)
        wl.prepare(tmp, seed)
        client = Client(wl, seconds, tmp, env)
        metrics, lines = client.traced() if trace else client.end_to_end()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    print(f"# perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(machine_line())
    for line in lines:
        print(line)
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0
