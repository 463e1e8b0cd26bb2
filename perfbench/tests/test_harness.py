"""Self-test of the campaign benchmark at smoke size.

Smoke size is one-pattern routine bodies and two scenarios, so every
test runs real campaigns through the real entry points in seconds.
Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import checks
import record_reference
import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_reference(tmp_path_factory):
    """A smoke-size reference recorded by the harness's own recorder."""
    root = tmp_path_factory.mktemp("perfbench")
    reference_dir = root / "reference"
    record_reference.record("wrapped_serial", reference_dir, root / "work", smoke=True)
    return reference_dir


def bench(capsys, tmp_path, reference_dir, workload, trace, seed=1):
    """Run the CLI at smoke size; return (printed lines, final JSON)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(run, "REFERENCE_DIR", reference_dir)
        patch.setattr(run, "WORK_DIR", tmp_path)
        code = run.main(
            [
                "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke",
            ]
        )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics_match(lines, result, declared):
    expected = {entry["name"]: entry["unit"] for entry in declared}
    printed = {name: value["unit"] for name, value in result["metrics"].items()}
    assert printed == expected
    for name, unit in expected.items():
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit for line in lines
        ), f"{name} [{unit}] is not printed"


def test_untraced_serial_prints_every_end_to_end_metric(capsys, tmp_path, smoke_reference):
    lines, result = bench(capsys, tmp_path, smoke_reference, "wrapped_serial", 0)
    assert_metrics_match(lines, result, BENCHMARK["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert result["metrics"]["matched_share"]["value"] == 1.0
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_traced_2workers_prints_every_per_layer_metric(capsys, tmp_path, smoke_reference):
    lines, result = bench(capsys, tmp_path, smoke_reference, "wrapped_2workers", 1)
    assert_metrics_match(lines, result, BENCHMARK["per_layer"])
    assert result["correct"], lines
    m = {name: value["value"] for name, value in result["metrics"].items()}
    # Layer self times, other_s and idle_s account for both lanes.
    layers = sum(m[name] for name in spans.LAYER_TIME.values())
    total = layers + m["other_s"] + m["parallel.idle_s"]
    assert total == pytest.approx(2 * m["trace.campaign_s"], rel=1e-9)
    assert m["stl.builds"] == 5  # one 2-core and one 3-core scenario
    assert m["parallel.shards"] >= 1
    # Worker spans reached the parent: simulated statistics match the
    # serial reference recorded in one process.
    reference = checks.load_reference(smoke_reference, "wrapped_serial")
    for key in spans.SIMULATED:
        assert m[key] == reference["simulated"][key]


def test_traced_serial_fingerprint_repeats(capsys, tmp_path, smoke_reference):
    _, first = bench(capsys, tmp_path, smoke_reference, "wrapped_serial", 1, seed=1)
    _, second = bench(capsys, tmp_path, smoke_reference, "wrapped_serial", 1, seed=2)
    assert first["correct"] and second["correct"]
    assert (tmp_path / "fingerprint-wrapped_serial-smoke.json").exists()
    for key in spans.SIMULATED + spans.WORK_COUNTS:
        assert first["metrics"][key] == second["metrics"][key]
    m = {name: value["value"] for name, value in first["metrics"].items()}
    layers = sum(m[name] for name in spans.LAYER_TIME.values())
    assert layers + m["other_s"] + m["parallel.idle_s"] == pytest.approx(
        m["trace.campaign_s"], rel=1e-9
    )


def test_changed_work_count_fails_the_fingerprint(capsys, tmp_path, smoke_reference):
    record = tmp_path / "fingerprint-wrapped_serial-smoke.json"
    record.write_text(json.dumps({key: -1 for key in spans.WORK_COUNTS}))
    lines, result = bench(capsys, tmp_path, smoke_reference, "wrapped_serial", 1)
    assert not result["correct"]
    assert any("an earlier run in this checkout" in line for line in lines)


def test_seed_permutes_order_but_not_outcomes(capsys, tmp_path, smoke_reference):
    prepared = workloads.prepare("wrapped_serial", smoke=True)
    seeds = [0] + [
        next(s for s in range(1, 50) if prepared.permuted(s) != prepared.permuted(0))
    ]
    runs = [
        bench(capsys, tmp_path, smoke_reference, "wrapped_serial", 0, seed)[0]
        for seed in seeds
    ]
    orders = [next(l for l in lines if "scenario order" in l) for lines in runs]
    digests = [next(l for l in lines if "outcome digest" in l) for lines in runs]
    assert orders[0].split(":", 1)[1] != orders[1].split(":", 1)[1]
    assert digests[0] == digests[1]


def test_tampered_reference_counts_in_failed_share(capsys, tmp_path, smoke_reference):
    tampered = tmp_path / "tampered"
    shutil.copytree(smoke_reference, tampered)
    path = tampered / "wrapped_serial.json"
    reference = json.loads(path.read_text())
    label = sorted(reference["scenarios"])[0]
    reference["scenarios"][label]["signatures"]["0"] ^= 1
    path.write_text(json.dumps(reference))
    lines, result = bench(capsys, tmp_path, tampered, "wrapped_serial", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2  # one of two, every campaign
    assert result["metrics"]["matched_share"]["value"] == pytest.approx(0.5)
    assert any(line.startswith(f"  FAIL {label}") for line in lines)


def test_missing_entry_point_is_an_error(monkeypatch, tmp_path):
    import repro.faults.campaign as campaign

    monkeypatch.delattr(campaign, "icu_pattern_set")
    with pytest.raises(spans.TraceError, match="icu_pattern_set no longer exists"):
        spans.install(spans.Tracer(tmp_path))


def test_zero_calls_to_an_existing_entry_point_is_a_count(tmp_path):
    import repro.faults.campaign as campaign

    original = campaign.run_checkpointed_campaign
    tracer = spans.Tracer(tmp_path / "spill")
    originals = spans.install(tracer)
    try:
        start = time.perf_counter()
        campaign.run_checkpointed_campaign({}, [], {}, tmp_path / "campaign.json")
        campaign_s = time.perf_counter() - start
    finally:
        spans.uninstall(originals)
    metrics = tracer.report(campaign_s, 1, None)
    assert metrics["ppsfp.items"] == 0 and metrics["compiled.netlists"] == 0
    assert metrics["parallel.shards"] == 1
    assert campaign.run_checkpointed_campaign is original


def test_self_time_excludes_child_spans(tmp_path):
    tracer = spans.Tracer(tmp_path)

    def outer():
        time.sleep(0.02)
        tracer.call("soc", time.sleep, 0.05)

    _, duration = tracer.timed("other", outer)
    assert tracer.self_s["soc"] >= 0.05
    assert 0.02 <= tracer.self_s["other"] < 0.05
    assert tracer.self_s["soc"] + tracer.self_s["other"] == pytest.approx(duration)


def test_shape_checks_follow_the_paper():
    def outcome(signature, detected):
        return {
            "error": None,
            "signatures": {"0": signature},
            "coverages": [{"core_id": 0, "module": "FWD", "detected_faults": detected}],
        }

    stable = {"a": outcome(7, 10), "b": outcome(7, 10)}
    moving = {"a": outcome(7, 10), "b": outcome(8, 11)}
    assert checks.shape_problems("wrapped", stable) == []
    assert len(checks.shape_problems("wrapped", moving)) == 2
    assert checks.shape_problems("unwrapped", moving) == []
    assert checks.shape_problems("unwrapped", stable) != []


def test_without_the_program_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wrapped_serial",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
