"""Smoke test of the benchmark itself at toy size (toy2 specs, 32 cells, 1 epoch).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload reports every metric named in BENCHMARK.json with
its unit, and that a deliberately broken output is counted as a failed op.
At this size a training op may fail the "final loss below the epoch-0 loss"
check, since a few steps barely train, so only the shipped sizes must pass
every check.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import TINY  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
hrrpgnn = run.import_hrrpgnn()


def run_tiny(name, trace):
    result, _ = run.run_workload(hrrpgnn, name, seed=0, seconds=0.01, trace=trace, shape=TINY[name])
    return result


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_reported(name, trace):
    forward_batch = hrrpgnn.GraphClassifier.forward_batch
    result = run_tiny(name, trace)
    assert result["attempted"] >= 3
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: e["unit"] for m, e in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(math.isfinite(e["value"]) for e in result["metrics"].values())
    # the step clock and the tracer put every wrapped method back
    assert hrrpgnn.GraphClassifier.forward_batch is forward_batch


def _nudged_checkpoint(real):
    def save(model, path):
        model.fc.b[0] = np.nextafter(model.fc.b[0], np.inf)
        real(model, path)
        model.fc.b[0] = np.nextafter(model.fc.b[0], -np.inf)

    return save


def _nudged_amplitude(real):
    def load_csv(path):
        dataset = real(path)
        amps = dataset.samples[0].amplitudes
        amps[0] = np.nextafter(amps[0], np.inf)
        return dataset

    return load_csv


def _swapped_rows(real):
    def run_ablation_suite(*args, **kwargs):
        rows = real(*args, **kwargs)
        return [rows[1], rows[0], *rows[2:]]

    return run_ablation_suite


# workload -> (owner, attribute, breaker, the problem every op must report)
BREAKS = {
    "train-501": (
        hrrpgnn.GraphClassifier,
        "save",
        _nudged_checkpoint,
        "saved checkpoint does not reload to the trained parameters",
    ),
    "infer-io-501": (hrrpgnn, "load_csv", _nudged_amplitude, "test CSV does not round-trip"),
    "ablate-128": (hrrpgnn, "run_ablation_suite", _swapped_rows, "are not in ABLATION_ORDER"),
}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_broken_output_counts_as_failed(name, monkeypatch, capsys):
    owner, attribute, breaker, problem = BREAKS[name]
    monkeypatch.setattr(owner, attribute, breaker(getattr(owner, attribute)))
    result = run_tiny(name, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    reported = [line for line in capsys.readouterr().err.splitlines() if problem in line]
    assert len(reported) == result["attempted"]


def test_clean_inference_passes_every_check():
    result = run_tiny("infer-io-501", trace=False)
    assert result["correct"] and result["failed"] == 0
