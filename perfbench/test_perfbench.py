"""Tests of the benchmark itself: a corrupted or raising call counts as a
failed operation, pins catch changed outputs, and the runner refuses to run
without the program.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness

harness.load_gwitt()

import ladder  # noqa: E402
import verify_mix  # noqa: E402
import witt_warm  # noqa: E402


@pytest.fixture(scope="module")
def stream():
    return witt_warm.setup(0, harness.Recorder())


def test_clean_round_has_no_failures(stream):
    rec = harness.Recorder()
    witt_warm.run_round(stream[:60], rec)
    assert len(rec.ops) > 60 and rec.failed() == 0 and not rec.harness_errors


def test_corrupted_witt_result_counts_as_failure(stream, monkeypatch):
    import gwitt.witt as witt

    real = witt.witt_mul

    def off_by_one(a, b):
        r = real(a, b)
        return witt.WittVector(r.group, (r.components[0] + 1,) + tuple(r.components[1:]))

    monkeypatch.setattr(witt, "witt_mul", off_by_one)
    items = [item for item in stream if item[2] == "mul"][:5]
    rec = harness.Recorder()
    witt_warm.run_round(items, rec)
    assert rec.failed() == 5
    assert rec.counters()["witt.mul_calls"] == 5


def test_raising_call_counts_as_failure_and_the_round_goes_on(stream, monkeypatch):
    import gwitt.witt as witt

    def broken(w):
        raise witt.GwittError("broken on purpose")

    monkeypatch.setattr(witt, "witt_neg", broken)
    items = [item for item in stream if item[2] in ("neg", "add")][:20]
    rec = harness.Recorder()
    witt_warm.run_round(items, rec)
    negs = sum(1 for item in items if item[2] == "neg")
    assert rec.failed() == negs > 0
    assert len(rec.ops) == len(items)
    assert not rec.harness_errors


def test_corrupted_table_of_marks_fails_the_ladder_rung(monkeypatch):
    import gwitt.burnside as burnside

    real = burnside.table_of_marks

    def transposed(group):
        tom = real(group)
        return tuple(zip(*tom))

    monkeypatch.setattr(burnside, "table_of_marks", transposed)
    rec = harness.Recorder()
    ladder.run_rung("S3", 0, rec)
    assert rec.failed() > 0


def test_wrong_tambara_verdict_counts_as_failure(monkeypatch):
    import gwitt.tambara as tambara

    real = tambara.check_tambara_axioms

    def always_pass(instance, **kwargs):
        report = real(instance, **kwargs)
        for check in report.checks:
            check.status = "pass"
        return report

    monkeypatch.setattr(tambara, "check_tambara_axioms", always_pass)
    state = {"tambara": [], "mutated": verify_mix.setup(0, harness.Recorder())["mutated"]}
    rec = harness.Recorder()
    verify_mix._tambara(state, rec)
    assert rec.failed() == 1


def test_changed_digest_fails_its_operations():
    rec = harness.Recorder()
    rec.call("x", lambda: 1)
    rec.call("y", lambda: 2)
    rec.output("both", [1, 2], [0, 1], seeded=False)
    rec.check_pins({"both": harness.digest([1, 2])}, None)
    assert rec.failed() == 0
    rec.check_pins({"both": harness.digest([1, 3])}, None)
    assert rec.failed() == 2


def test_tail_percentiles():
    assert harness.tail_percentile(196) == 90
    assert harness.tail_percentile(810) == 98
    assert harness.tail_percentile(20000) == 99.9


def test_harrell_davis_median():
    assert harness.beta_cdf(2.5, 2.5, 0.5) == pytest.approx(0.5)
    assert harness.beta_cdf(2.0, 1.0, 0.3) == pytest.approx(0.09)
    assert harness.harrell_davis(range(1, 102), 0.5) == pytest.approx(51.0)
    assert harness.harrell_davis([7.0] * 9, 0.5) == pytest.approx(7.0)
    # A wide gap at the middle moves the estimate smoothly, not by the gap.
    assert 1.0 < harness.harrell_davis([1.0] * 50 + [100.0] * 51, 0.5) < 100.0


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    command = [sys.executable if part == "python3" else part for part in command]
    proc = subprocess.run(
        command + ["--workload", "witt_warm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gauge_scales_by_the_trimmed_mean_of_nearby_samples():
    ref = harness.REFERENCE_KERNEL_S
    assert harness.trimmed_mean([1.0] * 19 + [100.0]) == pytest.approx(1.0)
    assert harness.scale_of([2 * ref] * 10) == pytest.approx(0.5)
    # Half the samples at half speed: the mean follows the share of slow time.
    assert harness.scale_of([ref, 2 * ref] * 10) == pytest.approx(1 / 1.5)
    gauge = harness.SpeedGauge()
    n = harness.GAUGE_WINDOW
    gauge.at = [float(i) for i in range(3 * n)]
    gauge.took = [ref] * n + [2 * ref] * n + [ref] * n
    assert gauge.scale_near(0.0) == pytest.approx(1.0)
    assert gauge.scale_near(1.5 * n) == pytest.approx(0.5)
    assert gauge.scale_near(10.0 * n) == pytest.approx(1.0)
