"""The benchmark's dump check agrees with the engine it checks.

``perfbench/workloads.py`` recomputes sampled rows of a ``--dump-batch`` file
from the scalar draw and effect-size functions. If a refactor moved or changed
those functions, every ``sim-mixed-dump`` operation would fail its check; this
test fails first.
"""

import csv
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from replikit import ContaminationSpec, SimulationConfig, run_simulation
from replikit.io import batch_to_csv

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves annotations through sys.modules while the module runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("contamination", [None, ContaminationSpec(epsilon=0.1, scale_mult=10.0)])
@pytest.mark.parametrize("seed", [7, 2**64 - 1])
def test_recomputed_dump_rows_match_batch_to_csv(workloads, contamination, seed):
    n = workloads.N_PER_ARM
    config = SimulationConfig(runs=40, n_per_arm=n, master_seed=seed, contamination=contamination)
    rows = list(csv.reader(io.StringIO(batch_to_csv(run_simulation(config)))))
    for i in (0, 1, 17, 39):
        assert workloads.recompute_experiment(seed, i, n, contamination) == rows[i + 1]
