"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a corrupted operation output counts as a failure, that self-time
arithmetic is right on a synthetic nested two-thread span set and on real
threads, that a wrapped name which no longer exists reads as absent, and
that BENCHMARK.json lists exactly the metrics the client reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import threading
import time
import unittest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import replikit.cli  # noqa: E402

import client  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def call_cli(op: workloads.Op) -> workloads.Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = replikit.cli.main(list(op.argv))
    files = {f: Path(f).read_bytes() for f in op.files}
    return workloads.Outcome(rc, out.getvalue().encode(), err.getvalue().encode(), files)


def make_spans(rows: list[tuple[int, int, float, float, int, int]]):
    """A span array from (sid, name, t0, t1, parent, thread) tuples."""
    return np.array(rows, dtype=spans.SPAN_DTYPE)


def with_file(out: workloads.Outcome, path: str, data: bytes) -> workloads.Outcome:
    return workloads.Outcome(out.rc, out.stdout, out.stderr, {**out.files, path: data})


class ScratchDir(unittest.TestCase):
    def setUp(self) -> None:
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=scratch)
        self.tmp = Path(self._tmp.name)

    def tearDown(self) -> None:
        self._tmp.cleanup()
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_tmp").rmdir()


class CorruptedOutputTest(ScratchDir):
    def test_studies(self) -> None:
        wl = workloads.StudiesWorkload(rows=60)
        wl.prepare(self.tmp, seed=7)
        meta, forest, funnel = wl.unit()
        outs = {op.kind: call_cli(op) for op in (meta, forest, funnel)}

        fresh = workloads.StudiesWorkload(rows=60)
        fresh.prepare(self.tmp, seed=7)
        pooled = outs["meta"].stdout.decode().splitlines()[1].split(",")[0]
        bad_meta = outs["meta"].stdout.replace(pooled.encode(), repr(float(pooled) + 1e-6).encode())
        self.assertIsNotNone(fresh.check(meta, workloads.Outcome(0, bad_meta, b"")))
        svg = outs["forest"].files[forest.files[0]]
        one_less = svg.replace(b"<rect x=", b"<g x=", 2).replace(b"<g x=", b"<rect x=", 1)
        bad_forest = with_file(outs["forest"], forest.files[0], one_less)
        self.assertIsNotNone(fresh.check(forest, bad_forest))
        truncated = outs["funnel"].files[funnel.files[0]][:-10]
        bad_funnel = with_file(outs["funnel"], funnel.files[0], truncated)
        self.assertIsNotNone(fresh.check(funnel, bad_funnel))
        failed = workloads.Outcome(1, outs["meta"].stdout, b"")
        self.assertIsNotNone(fresh.check(meta, failed))
        traceback = workloads.Outcome(0, outs["meta"].stdout, b"Traceback (most recent call last):")
        self.assertIsNotNone(fresh.check(meta, traceback))

        for op in (meta, forest, funnel):
            self.assertIsNone(wl.check(op, outs[op.kind]), op.kind)
            self.assertIsNone(wl.check(op, outs[op.kind]), f"repeated {op.kind}")
        self.assertIsNotNone(wl.check(meta, workloads.Outcome(0, bad_meta, b"")),
                             "a later op with different bytes must fail")

    def test_simulate(self) -> None:
        wl = workloads.SimWorkload(
            "sim-normal", 20000, ("--effect", "small"), "csv", workloads.ROW_SMALL, 1.5
        )
        wl.prepare(self.tmp, seed=5)
        (op,) = wl.unit()
        good = call_cli(op)
        text = good.stdout.decode()
        signs = text.split("\n\n")[1].splitlines()[1]
        bad_signs = text.replace(signs, ",".join(str(int(v) + 1) for v in signs.split(",")))
        fresh = workloads.SimWorkload(
            "sim-normal", 20000, ("--effect", "small"), "csv", workloads.ROW_SMALL, 1.5
        )
        fresh.prepare(self.tmp, seed=5)
        self.assertIsNotNone(fresh.check(op, workloads.Outcome(0, bad_signs.encode(), b"")))
        self.assertIsNone(fresh.check(op, good))

        far = workloads.SimWorkload(
            "sim-normal", 20000, ("--effect", "small"), "csv", workloads.ROW_NONE_STAR, 1.5
        )
        far.prepare(self.tmp, seed=5)
        self.assertIsNotNone(far.check(op, good), "a row far from the reference must fail")

    def test_dump_sample(self) -> None:
        spec = workloads.stats_core.ContaminationSpec(epsilon=0.1, scale_mult=10.0)
        scenario = ("--dist", "mixed", "--workers", "2")
        wl = workloads.SimWorkload("mixed", 40, scenario, "json", workloads.ROW_NONE_STAR, 100.0,
                                   spec, dump=True)
        wl.prepare(self.tmp, seed=3)
        (op,) = wl.unit()
        good = call_cli(op)
        self.assertIsNone(wl.check_dump(good.files[wl.dump_path].decode()))
        header, *rows = good.files[wl.dump_path].decode().splitlines()
        swapped = [",".join([r.split(",")[0], r.split(",")[2], r.split(",")[1], *r.split(",")[3:]])
                   for r in rows]
        self.assertIsNotNone(wl.check_dump("\n".join([header, *swapped]) + "\n"))

    def test_replication(self) -> None:
        wl = workloads.ReplicationWorkload(grid_size=8)
        wl.prepare(self.tmp, seed=1)
        self.assertEqual([wl.run(i) for i in range(8)], [None] * 8)
        trip = wl.grid[0]
        wl.grid[0] = workloads.RoundTrip(trip.n + 2, trip.d, trip.design)
        self.assertIsNotNone(wl.run(0))


class SelfTimeTest(unittest.TestCase):
    def test_nested_two_thread_spans(self) -> None:
        main, w1, w2 = 100, 200, 300
        rows = [
            # sid, name, t0, t1, parent, thread
            (0, 0, 0.0, 10.0, -1, main),  # pool owner
            (1, 1, 1.0, 4.0, 0, main),
            (2, 2, 2.0, 3.0, 1, main),
            (3, 1, 4.5, 9.0, 0, main),
            (4, 3, 5.0, 7.0, 0, w1),  # worker roots, overlapping each other
            (5, 3, 6.0, 8.5, 0, w2),
            (6, 2, 5.5, 6.0, 4, w1),
            (7, 3, 9.5, 12.0, 0, w1),  # runs past its parent's end
        ]
        got = spans.self_times(make_spans(rows))
        # Span 0: its children cover [1, 4], [4.5, 9] and [9.5, 10].
        expected = [2.0, 2.0, 1.0, 4.5, 1.5, 2.5, 0.5, 2.5]
        for sid, (g, e) in enumerate(zip(got, expected)):
            self.assertAlmostEqual(g, e, msg=f"span {sid}")

    def test_real_threads(self) -> None:
        tracer = spans.Tracer()

        def inner():
            time.sleep(0.002)

        def outer():
            for _ in range(3):
                inner_t()

        inner_t = tracer.wrap("x.inner", inner)
        outer_t = tracer.wrap("x.outer", outer)

        def pool():
            threads = [threading.Thread(target=lambda: [outer_t() for _ in range(5)])
                       for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            self.assertFalse(any(t.is_alive() for t in threads))

        tracer.wrap("x.pool", pool)()
        s = tracer.spans()
        names = [tracer.names[i] for i in s["name"]]
        self.assertEqual(names.count("x.inner"), 30)
        self.assertEqual(names.count("x.outer"), 10)
        selfs = spans.self_times(s)
        self.assertTrue((selfs >= -1e-9).all(), selfs)
        pidx = spans.parent_index(s)
        expected_parent = {"x.pool": None, "x.outer": "x.pool", "x.inner": "x.outer"}
        for i, name in enumerate(names):
            parent = names[pidx[i]] if pidx[i] >= 0 else None
            self.assertEqual(parent, expected_parent[name])
            if name == "x.inner":
                self.assertEqual(s["thread"][i], s["thread"][pidx[i]])
        self.assertEqual(spans.count_within(s, tracer.names, "x.inner", "x.pool"), 30)


class AbsentSiteTest(unittest.TestCase):
    def test_missing_names_read_as_absent(self) -> None:
        sites = [
            spans.Site("replikit.simulation", "no_such_function", "simulation.gone"),
            spans.Site("replikit.no_such_module", "f", "nowhere.f"),
            spans.Site("replikit.stats_core", "NoSuchClass.generator", "stats_core.gone"),
            spans.Site("replikit.effect_size", "classify", "effect_size.classify"),
        ]
        tracer = spans.Tracer()
        original = replikit.effect_size.classify
        with spans.installed(tracer, sites, layers.LAYERS) as (layer_by_name, absent):
            self.assertEqual([a.name for a in absent], ["simulation.gone", "nowhere.f",
                                                        "stats_core.gone"])
            replikit.effect_size.classify(0.3)
        self.assertIs(replikit.effect_size.classify, original)
        totals = layers.Totals()
        totals.absent.update(a.name for a in absent)
        totals.add_spans(tracer.spans(), tracer.names, layer_by_name)
        totals.ops = 1
        metrics = layers.per_layer_metrics(totals)
        self.assertEqual(metrics["trace.absent_sites"]["value"], 3)
        self.assertEqual(metrics["simulation.run_experiment_calls"]["value"], 0)
        self.assertGreater(metrics["effect_size.classify_ms"]["value"], 0)
        self.assertEqual(layer_by_name, {"effect_size.classify": "effect_size"})

    def test_every_site_resolves_at_this_commit(self) -> None:
        with spans.installed(spans.Tracer(), layers.SITES, layers.LAYERS) as (_, absent):
            self.assertEqual(absent, [])


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_match(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(client.E2E_UNITS.items())
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER],
        )


if __name__ == "__main__":
    unittest.main()
