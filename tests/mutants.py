"""Mutation check: each named mutant of ``src/`` must fail the tests named for it.

A mutant is one exact text replacement in one file. For each mutant this
script copies the repository to a temporary directory, applies the
replacement there, runs only the mutant's test ids with pytest and prints
``killed`` or ``survived``. It first runs every named id on an unmutated
copy, so that a killed mutant means the mutation, not a broken id.

    python tests/mutants.py

It exits 1 if any mutant survives that is not listed as expected to, and 2
if a replacement no longer matches its file or a test id is wrong. It is
not part of tier-1 and takes about a minute on a 2-vCPU machine.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    # Why no test can see it, for a mutant that is expected to survive.
    survives: str = ""


MUTANTS = [
    Mutant(
        "ddof-0",
        "src/replikit/simulation.py",
        "x.std(axis=1, ddof=1), y.mean(axis=1), y.std(axis=1, ddof=1)",
        "x.std(axis=1, ddof=0), y.mean(axis=1), y.std(axis=1, ddof=0)",
        ("tests/test_engine_oracle.py::test_category_counts_match_the_noncentral_t_across_the_grid",),
    ),
    Mutant(
        "effect-on-arm-y",
        "src/replikit/simulation.py",
        "        x += config.true_effect_d\n",
        "        y += config.true_effect_d\n",
        ("tests/test_engine_oracle.py::test_sign_quadrant_counts_match_products_of_sign_probabilities",),
    ),
    Mutant(
        "pairing-reuses-runs",
        "src/replikit/simulation.py",
        "    return pairs.reshape(-1, 2)\n",
        "    pairs = pairs.reshape(-1, 2)\n    pairs[:, 1] = np.roll(pairs[:, 0], 1)\n    return pairs\n",
        ("tests/test_simulation.py::test_pairing_is_a_perfect_matching",),
    ),
    Mutant(
        "row-counter-not-reset",
        "src/replikit/simulation.py",
        "            ctr[0] = 0\n",
        "",
        ("tests/test_stats_core.py::test_draw_rows_match_the_single_stream_kernels",),
    ),
    Mutant(
        "row-buffer-not-emptied",
        "src/replikit/simulation.py",
        "            c_state.buffer_pos = 4\n",
        "",
        ("tests/test_stats_core.py::test_draw_rows_match_the_single_stream_kernels",),
    ),
    Mutant(
        "normal-quantile-in-pi",
        "src/replikit/prediction.py",
        "    tq = t_quantile((1.0 + level) / 2.0, df)\n",
        "    tq = normal_quantile((1.0 + level) / 2.0)\n",
        ("tests/test_acceptance.py::test_criterion_5_prediction_interval_reproduction",),
    ),
    Mutant(
        "pi-without-se-rep",
        "src/replikit/prediction.py",
        "math.sqrt(_square(se_orig) + _square(se_rep))",
        "math.sqrt(_square(se_orig))",
        ("tests/test_acceptance.py::test_criterion_5_prediction_interval_reproduction",),
    ),
    Mutant(
        "band-edges-bisect-right",
        "src/replikit/effect_size.py",
        "from bisect import bisect_left\n",
        "from bisect import bisect_right as bisect_left\n",
        ("tests/test_effect_size.py::test_classify_boundaries",),
    ),
    Mutant(
        "sign-of-zero-negative",
        "src/replikit/simulation.py",
        "    positive = np.asarray(pairs) >= 0\n",
        "    positive = np.asarray(pairs) > 0\n",
        ("tests/test_simulation.py::test_sign_tie_binned_positive",),
    ),
    Mutant(
        "hedges-on-d-only",
        "src/replikit/effect_size.py",
        "        d, se = j * d, j * se\n",
        "        d, se = j * d, se\n",
        ("tests/test_effect_size.py::test_hedges_correction_applied_when_asked",),
    ),
    Mutant(
        "pool-weights-by-sum",
        "src/replikit/meta.py",
        "    w_total = reduce(add, weights, 0.0)\n",
        "    w_total = sum(weights)\n",
        (
            "tests/test_study_table.py::test_large_golden_file_is_bit_identical_on_both_paths",
            "tests/test_golden.py",
        ),
        survives=(
            "before Python 3.12 the builtin sum is the same left fold from 0, so the"
            " bits agree; from 3.12 it compensates, and these tests see it"
        )
        if sys.version_info < (3, 12) else "",
    ),
    Mutant(
        "empty-file-takes-the-row-loop",
        "src/replikit/meta.py",
        "    if not rows:\n        return StudyTable.of([])\n",
        "    if not rows:\n        return None\n",
        ("tests/test_study_table.py::test_the_column_pass_builds_the_empty_table",),
    ),
]

IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", ".benchmarks")


def run_tests(tree: Path, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def copy_tree(scratch: Path, name: str) -> Path:
    tree = scratch / name
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="replikit-mutants-") as scratch:
        scratch = Path(scratch)
        for m in MUTANTS:
            if (ROOT / m.file).read_text(encoding="utf-8").count(m.old) != 1:
                print(f"{m.name}: its old text is not in {m.file} exactly once", file=sys.stderr)
                return 2
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code = run_tests(copy_tree(scratch, "unmutated"), tests)
        if code != 0:
            print(f"the unmutated tree fails its own ids (pytest exit {code})", file=sys.stderr)
            return 2
        unexpected = 0
        for m in MUTANTS:
            tree = copy_tree(scratch, m.name)
            path = tree / m.file
            path.write_text(path.read_text(encoding="utf-8").replace(m.old, m.new), encoding="utf-8")
            t0 = time.perf_counter()
            code = run_tests(tree, m.tests)
            if code not in (0, 1):
                print(f"{m.name}: pytest exit {code}, not a test result", file=sys.stderr)
                return 2
            verdict = "killed" if code == 1 else "survived"
            note = f" (expected: {m.survives})" if m.survives else ""
            print(f"{verdict:9} {m.name:30} {time.perf_counter() - t0:5.1f} s{note}")
            unexpected += code == 0 and not m.survives
            shutil.rmtree(tree)
    print(f"{len(MUTANTS)} mutants, {unexpected} unexpected survivors, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
