"""The checked-in bench scripts still run against the kernel they time."""

import importlib.util
from pathlib import Path

from walkmeg import HADAMARD, IDENTITY

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_sweep_stages_runs_on_the_kernel():
    # the script reads private sweep stages, which no other test pins by name
    spec = importlib.util.spec_from_file_location("sweep_stages", BENCH / "sweep_stages.py")
    sweep_stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep_stages)
    row = sweep_stages.stage_times((HADAMARD, IDENTITY), 10)
    assert row["optimal_count_1e-9"] == 40
    assert 0 < row["screen_rows_scored"] <= row["strings_evaluated"]
