"""The benchmark's own checks: its correctness gate and its layer split.

Run from the repository root (about a minute; it makes one traced run of
each workload):

    python3 -m pytest bench/test_bench.py

The layer-split tests read the traced runs and confirm that each workload
stresses the layers it is there for (see README.md).
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402  (needs the paths above)


# --- correctness gate --------------------------------------------------------

@pytest.fixture(scope="module")
def couple(tmp_path_factory):
    return workloads.build("couple", 0, str(tmp_path_factory.mktemp("couple")))


RECORD = {
    "n": "22", "small_set_size": "21", "horizon": "25",
    "frequency": "0.05", "stderr": "0.001", "censored_fraction": "0.0",
    "escape_bound": "0.07782101167315174",
}


def test_gate_accepts_the_reference(couple):
    assert workloads.check(couple, "escape-9", dict(RECORD), RECORD, True, RECORD) == []


def test_gate_compares_monte_carlo_fields_only_at_the_reference_seed(couple):
    changed = dict(RECORD, frequency="0.0501")
    assert workloads.check(couple, "escape-9", changed, RECORD, True, None)
    assert workloads.check(couple, "escape-9", changed, RECORD, False, None) == []


def test_gate_allows_relative_1e9_on_exact_floats_only(couple):
    bound = float(RECORD["escape_bound"])
    close = dict(RECORD, escape_bound=repr(bound * (1 + 1e-10)))
    far = dict(RECORD, escape_bound=repr(bound * (1 + 1e-8)))
    assert workloads.check(couple, "escape-9", close, RECORD, False, None) == []
    assert workloads.check(couple, "escape-9", far, RECORD, False, None)
    assert workloads.check(couple, "escape-9", dict(RECORD, horizon="26"), RECORD, False, None)


def test_gate_checks_invariants_and_reruns(couple):
    over = dict(RECORD, frequency="0.09")
    assert any("bound" in e for e in workloads.check(couple, "escape-9", over, None, False, None))
    assert workloads.check(couple, "escape-9", dict(RECORD), None, False, over)
    assert workloads.check(couple, "escape-9", ValueError("boom"), RECORD, True, None)


# --- calibration ----------------------------------------------------------------

def test_calibration_divides_each_operation_by_the_kernel_time_around_it():
    import time

    import calibration

    speed = calibration.Calibration()
    length = 1.4 * calibration.SAMPLE_EVERY_S
    with speed.op():
        time.sleep(length)  # one kernel sample during the operation, one after
    walls = list(speed.kernel_wall)
    with speed.op():
        pass  # only the sample after it
    assert len(walls) == 2 and len(speed.kernel_wall) == 3
    sample = speed.take_pass()
    ref = calibration.REFERENCE_S
    # the sleep ends ``length`` after it started, kernel sample included
    assert sample["raw_wall_s"] == pytest.approx(length - walls[0], abs=0.02)
    assert sample["raw_cpu_s"] < 0.02
    assert sample["wall_s"] == pytest.approx(
        sample["raw_wall_s"] * ref / (sum(walls) / 2), rel=1e-3, abs=1e-3)
    assert speed.take_pass()["wall_s"] == 0.0


# --- layer split -------------------------------------------------------------------

@pytest.fixture(scope="module")
def traced():
    runs = {}

    def get(workload):
        if workload not in runs:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"], proc.stderr
            trace = json.loads((ROOT / ".bench_out" / workload / "trace.json").read_text())
            runs[workload] = {k: v["value"] for k, v in result["metrics"].items()}, trace
        return runs[workload]

    return get


def _share(metrics, *names):
    return sum(metrics[n] for n in names) / metrics["traced.wall_s"]


@pytest.mark.parametrize("workload", ["scaling", "couple"])
def test_montecarlo_holds_most_of_the_time(traced, workload):
    metrics, _ = traced(workload)
    assert _share(metrics, "montecarlo.estimate.busy_s") > 0.5


def test_exact_is_hitting_and_mixing_without_monte_carlo(traced):
    metrics, _ = traced("exact")
    assert metrics["montecarlo.estimate.calls"] == 0
    assert _share(metrics, "chain_analysis.hitting.busy_s", "chain_analysis.mixing.busy_s") > 0.5


def test_walker_steps_equal_mean_times_replicas(traced):
    _, trace = traced("scaling")
    counters = trace["counters"]
    assert counters["walker_steps"] > 0
    assert counters["walker_steps"] == counters["estimate.mean_steps"]

