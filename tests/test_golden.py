"""Golden CLI outputs: each case pins stdout, stderr, the exit code and the
bytes of every file the command writes.

The files under ``tests/golden/`` are the reference. Regenerate them only
when an output change is intended::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import pytest

from replikit.cli import main

GOLDEN = Path(__file__).parent / "golden"
STUDIES = "studies.csv"
WRITTEN = ("dump.csv", "plot.svg")

EFFECT = [
    "effect",
    "--n1", "30", "--mean1", "105", "--sd1", "20",
    "--n2", "28", "--mean2", "100", "--sd2", "19",
]
SIMULATE = ["simulate", "--runs", "200"]
PI = ["pi", "--d", "0.5", "--n1", "20", "--n2", "22", "--rep-n1", "40", "--rep-n2", "40"]

TABLE_CASES = {
    "effect": EFFECT,
    "effect-hedges": EFFECT + ["--hedges"],
    "simulate-small": SIMULATE + ["--effect", "small"],
    "simulate-mixed-dump": SIMULATE + ["--dist", "mixed", "--dump-batch", "dump.csv"],
    "simulate-mixed-workers": SIMULATE + ["--dist", "mixed", "--workers", "2"],
    "pi": PI,
    "pi-check": PI + ["--check", "0.3"],
    "meta": ["meta", STUDIES],
}

CASES = {
    f"{name}-{fmt}": argv + ["--format", fmt]
    for name, argv in TABLE_CASES.items()
    for fmt in ("text", "csv", "json")
}
CASES.update({
    "forest-svg": ["forest", STUDIES],
    "funnel-svg": ["funnel", STUDIES],
    "forest-output": ["forest", STUDIES, "--output", "plot.svg"],
    "funnel-output": ["funnel", STUDIES, "--output", "plot.svg"],
    "forest-text-rejected": ["forest", STUDIES, "--format", "text"],
    "effect-svg-rejected": EFFECT + ["--format", "svg"],
    "meta-svg-rejected": ["meta", STUDIES, "--format", "svg"],
})


def run_case(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Run one CLI case in ``workdir``; return its outputs keyed by golden suffix."""
    shutil.copy(GOLDEN / STUDIES, workdir / STUDIES)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    outputs = {
        "stdout": out.getvalue().encode("utf-8"),
        "stderr": err.getvalue().encode("utf-8"),
        "exit": f"{code}\n".encode("ascii"),
    }
    for name in WRITTEN:
        if (workdir / name).exists():
            outputs[name] = (workdir / name).read_bytes()
    return outputs


def golden_outputs(case: str) -> dict[str, bytes]:
    return {
        path.name[len(case) + 1:]: path.read_bytes()
        for path in GOLDEN.glob(f"{case}.*")
        if path.name[len(case) + 1:] in ("stdout", "stderr", "exit", *WRITTEN)
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    expected = golden_outputs(case)
    assert expected, f"no golden files for {case}"
    actual = run_case(CASES[case], tmp_path)
    assert sorted(actual) == sorted(expected)
    for suffix, data in expected.items():
        assert actual[suffix] == data, f"{case}.{suffix} differs"


def test_golden_directory_has_no_stray_files():
    names = {STUDIES} | {
        f"{case}.{suffix}" for case in CASES for suffix in ("stdout", "stderr", "exit", *WRITTEN)
    }
    stray = [p.name for p in GOLDEN.iterdir() if p.name not in names]
    assert not stray


if __name__ == "__main__":
    import tempfile

    for case, argv in sorted(CASES.items()):
        for old in GOLDEN.glob(f"{case}.*"):
            old.unlink()
        with tempfile.TemporaryDirectory() as tmp:
            for suffix, data in run_case(argv, Path(tmp)).items():
                (GOLDEN / f"{case}.{suffix}").write_bytes(data)
    print(f"wrote {len(CASES)} golden cases to {GOLDEN}", file=sys.stderr)
