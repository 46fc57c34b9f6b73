"""Each command loads only the modules it uses, and numpy only where draws happen.

Every case runs in a fresh interpreter and records which modules it left in
``sys.modules``. ``import replikit`` loads no submodule, building the parser
loads none of the toolkit, and the commands that draw nothing run without
numpy; ``simulate`` loads it, which shows the probe can see it. The package's
names still resolve on first use, and the engine names also from
``stats_core``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import replikit
from replikit import simulation, stats_core

SRC = str(Path(replikit.__file__).resolve().parents[1])
STUDY_CSV = (
    "study_id,label,n1,n2,mean1,mean2,sd1,sd2,d,se\n"
    "s1,first,,,,,,,1.43,0.63198\n"
    "s2,second,30,30,105,100,20,20,,\n"
)


def modules_after(body: str, cwd: Path) -> set[str]:
    """Run ``body`` in a fresh interpreter; the modules loaded by its end."""
    code = f'import sys\n{body}\nprint("\\n" + " ".join(sys.modules), file=sys.stderr)\n'
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def run_main(argv: list[str]) -> str:
    return f"from replikit.cli import main\nif main({argv!r}) != 0:\n    sys.exit(1)"


def toolkit(*names: str) -> set[str]:
    return {"replikit", *(f"replikit.{name}" for name in names)}


# What building the parser loads of the toolkit, and what a command that
# renders a table adds to it.
PARSER = toolkit("cli", "errors")
TABLE = PARSER | toolkit("effect_size", "stats_core", "io")


@pytest.mark.parametrize(
    "body, modules",
    [
        ("import replikit", toolkit()),
        ("import replikit.cli\nreplikit.cli.build_parser()", PARSER),
        (run_main(["effect", "--n1", "30", "--mean1", "105", "--sd1", "20",
                   "--n2", "30", "--mean2", "100", "--sd2", "20"]), TABLE),
        (run_main(["pi", "--d", "0.5", "--n1", "30", "--n2", "30", "--rep-n1", "60",
                   "--rep-n2", "60", "--check", "0.2"]), TABLE | toolkit("prediction")),
        (run_main(["meta", "studies.csv", "--format", "json"]), TABLE | toolkit("meta")),
        (run_main(["forest", "studies.csv"]), TABLE | toolkit("meta", "svg")),
        (run_main(["funnel", "studies.csv", "--output", "funnel.svg"]), TABLE | toolkit("meta", "svg")),
    ],
    ids=["import", "build_parser", "effect", "pi", "meta", "forest", "funnel"],
)
def test_commands_that_draw_nothing_do_not_load_numpy(body, modules, tmp_path):
    # ... and load exactly the toolkit modules they use.
    (tmp_path / "studies.csv").write_text(STUDY_CSV, encoding="utf-8")
    loaded = modules_after(body, tmp_path)
    assert "numpy" not in loaded
    assert {name for name in loaded if name.partition(".")[0] == "replikit"} == modules
    if modules <= PARSER:
        assert "dataclasses" not in loaded  # it brings in inspect, several ms of start-up


def test_simulate_loads_numpy(tmp_path):
    loaded = modules_after(run_main(["simulate", "--runs", "2"]), tmp_path)
    assert "numpy" in loaded
    assert not loaded & {"replikit.meta", "replikit.prediction", "replikit.svg"}


def test_every_export_resolves_and_star_import_binds_all():
    assert len(replikit.__all__) == 33
    assert all(getattr(replikit, name) is not None for name in replikit.__all__)
    namespace: dict[str, object] = {}
    exec("from replikit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(replikit.__all__)
    assert namespace["run_simulation"] is simulation.run_simulation
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        replikit.no_such_name


def test_stats_core_forwards_the_engine_names_the_dump_oracle_reads():
    for name in ("derive_substream", "draw_normal", "draw_contaminated", "summarize"):
        assert getattr(stats_core, name) is getattr(simulation, name)
    assert stats_core.ContaminationSpec is simulation.ContaminationSpec
    assert not hasattr(stats_core, "draw_rows")
