"""numpy loads only where draws happen.

The commands that draw nothing, and the imports they need, run in a fresh
interpreter without numpy; ``simulate`` loads it, which shows the probe can
see it. The engine names still resolve from the package and from
``stats_core``, where they load numpy on first use.
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


def loads_numpy(body: str, cwd: Path) -> bool:
    """Run ``body`` in a fresh interpreter; True if numpy was imported by its end."""
    code = f'import sys\n{body}\nsys.exit(10 if "numpy" in sys.modules else 0)\n'
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode in (0, 10), proc.stderr
    return proc.returncode == 10


def run_main(argv: list[str]) -> str:
    return f"from replikit.cli import main\nif main({argv!r}) != 0:\n    sys.exit(1)"


@pytest.mark.parametrize(
    "body",
    [
        "import replikit",
        "import replikit.cli\nreplikit.cli.build_parser()",
        run_main(["effect", "--n1", "30", "--mean1", "105", "--sd1", "20",
                  "--n2", "30", "--mean2", "100", "--sd2", "20"]),
        run_main(["pi", "--d", "0.5", "--n1", "30", "--n2", "30", "--rep-n1", "60",
                  "--rep-n2", "60", "--check", "0.2"]),
        run_main(["meta", "studies.csv", "--format", "json"]),
        run_main(["forest", "studies.csv"]),
        run_main(["funnel", "studies.csv", "--output", "funnel.svg"]),
    ],
    ids=["import", "build_parser", "effect", "pi", "meta", "forest", "funnel"],
)
def test_commands_that_draw_nothing_do_not_load_numpy(body, tmp_path):
    (tmp_path / "studies.csv").write_text(STUDY_CSV, encoding="utf-8")
    assert not loads_numpy(body, tmp_path)


def test_simulate_loads_numpy(tmp_path):
    assert loads_numpy(run_main(["simulate", "--runs", "2"]), tmp_path)


def test_every_export_resolves_and_star_import_binds_all():
    assert len(replikit.__all__) == 34
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
