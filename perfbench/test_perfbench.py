"""Quick test of the benchmark itself at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench

Checks that the emitted result names exactly the workloads and metrics of
BENCHMARK.json with their units, that the correctness checks fire on a
corrupted digest and on a span that no longer fires, that compare.py
fails on a changed quality value or failed ops, and that the calibrated
clock leaves its kernel out of timed intervals.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import clock  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench"))


def emit(workload, trace, workdir):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                         "0", "--trace", str(trace)],
                        scale=workloads.TINY, workdir=workdir)
    assert code == 0
    *_, detail, result = out.getvalue().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def test_workload_names_match():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_result_names_every_metric_with_its_unit(workload, trace, workdir):
    detail, result = emit(workload, trace, workdir)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        assert detail["missing"] == {}
    else:
        # The tiny seed model is too weak to score any gGLEU.
        values.pop("selected_ggleu")
        assert all(v > 0 for v in values.values())


def test_corrupted_digest_counts_the_round_as_failed(workdir):
    ctx = workloads.set_up(workloads.TINY, workdir, spans.NoTrace())
    rounds = workloads.run_rounds("el_baseline", ctx, 5, 0,
                                  lambda i: spans.NoTrace())
    assert workloads.check_rounds(rounds) == (0, [])
    rounds[1].digest = "0" * 64
    failed, problems = workloads.check_rounds(rounds)
    assert failed == rounds[1].ops
    assert problems == ["round 1: output digest differs from the first repeat"]


def test_renamed_function_is_reported_missing_not_zero(workdir, monkeypatch):
    patches = [p if p[1] != "sample_sequence" else
               (p[0], "sample_sequence_renamed", *p[2:])
               for p in spans.PATCHES]
    monkeypatch.setattr(spans, "PATCHES", tuple(patches))
    detail, result = emit("el_baseline", 1, workdir)
    assert result["metrics"]["model.sample_sequence_ms"]["value"] is None
    assert "sample_sequence_renamed does not exist" in \
        detail["missing"]["model.sample_sequence_ms"]


def test_calibrated_clock_excludes_its_kernel_and_scales_by_it():
    timer = clock.Calibrated()
    with timer.running():
        wall0, t0, paused0 = clock.perf_counter(), timer.now(), timer.paused
        while clock.perf_counter() - wall0 < 0.5:
            sum(range(1000))
        wall = clock.perf_counter() - wall0
        t1, paused = timer.now(), timer.paused
    assert len(timer.ms) >= 3 and paused > paused0
    assert t1 - t0 == pytest.approx(wall - (paused - paused0), abs=1e-3)
    assert timer.scaled(t0, t1) == pytest.approx(
        (t1 - t0) * clock.REFERENCE_MS / timer.speed_ms(t0, t1))
    assert clock.Wall().scaled(t0, t1) == t1 - t0


def write_runs(directory, ggleu=0.33, correct=True, failed=0, sha="a" * 64):
    """Ten fake untraced el_baseline runs as compare.py reads them."""
    directory.mkdir()
    for seed in range(10):
        metrics = {m["name"]: {"value": 1.0 + seed / 100, "unit": m["unit"]}
                   for m in BENCH["end_to_end"]}
        metrics["selected_ggleu"]["value"] = ggleu if seed == 3 else 0.33
        detail = {"workload": "el_baseline", "seed": seed, "trace": 0,
                  "seed_model_sha256": sha}
        result = {"correct": correct or seed != 5, "attempted": 100,
                  "failed": failed if seed == 5 else 0, "metrics": metrics}
        (directory / f"{seed}.out").write_text(
            json.dumps({"detail": detail}) + "\n" + json.dumps(result) + "\n")
    return [str(p) for p in sorted(directory.iterdir())]


@pytest.mark.parametrize("new, code", [
    ({}, 0),
    ({"ggleu": 0.34}, 1),
    ({"correct": False}, 1),
    ({"failed": 1}, 1),
    ({"sha": "b" * 64}, 2),
])
def test_compare_gates_quality_and_failures(tmp_path, new, code, capsys):
    base = write_runs(tmp_path / "base")
    assert compare.main(["--base", *base,
                         "--new", *write_runs(tmp_path / "new", **new)]) == code
