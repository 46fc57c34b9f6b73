"""Golden CLI outputs: each case pins stdout, stderr, the exit code and the
bytes of every file the command writes.

The files under ``tests/golden/`` are the reference. Regenerate them only
when an output change is intended::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import io
import json
import os
import random
import shutil
import sys
from pathlib import Path

import pytest

from replikit.cli import main

GOLDEN = Path(__file__).parent / "golden"
STUDIES = "studies.csv"
STUDIES_LARGE = "studies-large.csv"
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
    "meta-large": ["meta", STUDIES_LARGE],
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
    "forest-large-output": ["forest", STUDIES_LARGE, "--output", "plot.svg"],
    "funnel-large-output": ["funnel", STUDIES_LARGE, "--output", "plot.svg"],
    "forest-text-rejected": ["forest", STUDIES, "--format", "text"],
    "effect-svg-rejected": EFFECT + ["--format", "svg"],
    "meta-svg-rejected": ["meta", STUDIES, "--format", "svg"],
})
# Every other plot case runs at the default level 0.95.
CASES.update({
    f"{plot}-large-level-output": [plot, STUDIES_LARGE, "--level", "0.8", "--output", "plot.svg"]
    for plot in ("forest", "funnel")
})


def large_studies_csv(seed: int = 9, rows: int = 300) -> str:
    """The seeded study file behind the ``*-large`` cases.

    It holds both input forms, labels with ``,`` ``"`` and ``<&>``, blank and
    whitespace-only lines, padded cells, direct-form rows that carry n1/n2,
    and arm rows whose sds lie near 2^-520.
    """
    rng = random.Random(seed)
    labels = ["Plain", "Comma, label", 'Quote "q"', "Escapes <&>", 'All, "of" <&>', "Müller"]

    def num(x: float) -> str:
        text = repr(x) if rng.random() < 0.3 else f"{x:.{rng.randint(3, 8)}g}"
        return f"  {text} " if rng.random() < 0.15 else text

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["study_id", "label", "n1", "n2", "mean1", "mean2", "sd1", "sd2", "d", "se"])
    for i in range(rows):
        study_id = f" s{i} " if rng.random() < 0.1 else f"s{i}"
        label = f"{labels[i % len(labels)]} {i}"
        if rng.random() < 0.1:
            label = f"  {label} "
        n1, n2 = str(rng.randint(2, 200)), str(rng.randint(2, 200))
        kind = rng.random()
        if kind < 0.4:
            means = [num(rng.gauss(100.0, 15.0)) for _ in range(2)]
            sds = [num(rng.uniform(5.0, 30.0)) for _ in range(2)]
            cells = [n1, n2, *means, *sds, "", ""]
        elif kind < 0.5:
            tiny = 2.0**-520
            means = [num(rng.uniform(-1.0, 1.0) * tiny) for _ in range(2)]
            sds = [num(rng.uniform(0.5, 2.0) * tiny) for _ in range(2)]
            cells = [n1, n2, *means, *sds, "", ""]
        else:
            sizes = [n1, n2] if kind < 0.75 else ["", ""]
            cells = [*sizes, "", "", "", "", num(rng.uniform(-1.5, 1.5)), num(rng.uniform(0.05, 1.0))]
        writer.writerow([study_id, label, *cells])
        if i % 37 == 5:
            buf.write(rng.choice(["\n", "   \n", " , ,,, , ,,,, \n"]))
    return buf.getvalue()


def run_case(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Run one CLI case in ``workdir``; return its outputs keyed by golden suffix."""
    for name in (STUDIES, STUDIES_LARGE):
        shutil.copy(GOLDEN / name, workdir / name)
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


# The ``simulate`` option each echo key stands for; a non-None epsilon means --dist mixed.
ECHO_OPTIONS = {
    "runs": "--runs", "n_per_arm": "--n-per-arm", "true_effect_d": "--effect",
    "epsilon": "--epsilon", "scale_mult": "--scale-mult", "master_seed": "--seed",
    "workers": "--workers",
}


def read_echo(fmt: str, outputs: dict[str, bytes]) -> dict[str, str]:
    """The config echo of a table command's outputs, each value as its text."""
    if fmt == "json":
        return {key: str(value) for key, value in json.loads(outputs["stdout"])["config"].items()}
    stream = outputs["stdout" if fmt == "text" else "stderr"].decode("utf-8")
    return dict(line[2:].split(" ", 1) for line in stream.splitlines() if line.startswith("# "))


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("simulate-")))
def test_simulate_echo_reproduces_the_output(case, tmp_path):
    expected = golden_outputs(case)
    fmt = case.rsplit("-", 1)[1]
    echo = read_echo(fmt, expected)
    argv = [echo.pop("command"), "--format", fmt]
    if echo["epsilon"] != "None":
        argv += ["--dist", "mixed"]
    for key, value in echo.items():
        if value != "None":
            argv += [ECHO_OPTIONS[key], value]
    if "dump.csv" in expected:
        argv += ["--dump-batch", "dump.csv"]
    assert run_case(argv, tmp_path) == expected


def test_large_study_file_matches_its_generator():
    assert (GOLDEN / STUDIES_LARGE).read_text(encoding="utf-8") == large_studies_csv()


def test_golden_directory_has_no_stray_files():
    names = {STUDIES, STUDIES_LARGE} | {
        f"{case}.{suffix}" for case in CASES for suffix in ("stdout", "stderr", "exit", *WRITTEN)
    }
    stray = [p.name for p in GOLDEN.iterdir() if p.name not in names]
    assert not stray


if __name__ == "__main__":
    import tempfile

    (GOLDEN / STUDIES_LARGE).write_text(large_studies_csv(), encoding="utf-8")
    for case, argv in sorted(CASES.items()):
        for old in GOLDEN.glob(f"{case}.*"):
            old.unlink()
        with tempfile.TemporaryDirectory() as tmp:
            for suffix, data in run_case(argv, Path(tmp)).items():
                (GOLDEN / f"{case}.{suffix}").write_bytes(data)
    print(f"wrote {len(CASES)} golden cases to {GOLDEN}", file=sys.stderr)
