"""Smoke tests of the benchmark itself: tiny runs, oracles and tracing.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

_spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)  # puts bench/ on sys.path for the imports below

import oracles  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    record = bench_run.measure(workload, seed=3, seconds=0.01, trace=trace, tiny=True, probes=False)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, record["failures"]
    assert result["correct"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("per_layer" if trace else "end_to_end")
    if trace:
        assert record["not_in_package"] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_declaration():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS


def test_decks_depend_only_on_seed_and_index():
    a = workloads.deck("tomography", 11, 2)
    b = workloads.deck("tomography", 11, 2)
    c = workloads.deck("tomography", 12, 2)
    assert [j.text for j in a] == [j.text for j in b]
    assert [j.text for j in a] != [j.text for j in c]


def test_corrupted_oracle_input_and_raising_job_count_as_failures(monkeypatch):
    real_deck = workloads.deck

    def corrupted(workload, seed, index, tiny=False):
        jobs = real_deck(workload, seed, index, tiny)
        if index == 0:
            jobs[0].spec["drive"] = dict(jobs[0].spec["drive"], omega=jobs[0].spec["drive"]["omega"] * 1.01)
        return jobs

    from vibronic import cli

    real_run = cli.run
    calls = []

    def raising_second_job(config, out_dir):
        if Path(out_dir).name.startswith("job"):  # timed jobs, not the warm-up
            calls.append(out_dir)
            if len(calls) == 2:
                raise RuntimeError("injected failure")
        return real_run(config, out_dir)

    monkeypatch.setattr(workloads, "deck", corrupted)
    monkeypatch.setattr(cli, "run", raising_second_job)
    record = bench_run.measure("static-generator", seed=5, seconds=0.01, trace=False, tiny=True, probes=False)
    result = record["result"]
    assert result["failed"] == 2
    assert not result["correct"]
    assert record["fail_ratio"] == pytest.approx(2 / result["attempted"])
    reasons = " ".join(record["failures"])
    assert "rates deviate" in reasons and "injected failure" in reasons


@pytest.mark.parametrize("n", [12, 31, 60])
def test_tail_is_the_highest_percentile_with_ten_jobs_beyond_it(n):
    times = [0.01 * (i + 1) for i in range(n)]
    value, pct = bench_run.tail(times[::-1])
    if n < 21:
        assert (value, pct) == (statistics.median(times), 50.0)
    else:
        assert sum(t > value for t in times) == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_times_are_divided_by_the_measured_slowdown(monkeypatch):
    monkeypatch.setattr(speed, "slowdown", lambda times: 2.0)
    record = bench_run.measure("tomography", seed=3, seconds=0.01, trace=False, tiny=True, probes=False)
    metrics = record["result"]["metrics"]
    assert metrics["job_p50_s"]["value"] == pytest.approx(record["raw"]["job_p50_s"] / 2.0)
    assert metrics["job_tail_s"]["value"] == pytest.approx(record["raw"]["job_tail_s"] / 2.0)
    assert metrics["jobs_per_s"]["value"] == pytest.approx(record["raw"]["jobs_per_s"] * 2.0)
    assert metrics["setup_s"]["value"] == pytest.approx(record["raw"]["setup_s"] / 2.0)


def test_speed_probe_time_is_taken_out_of_the_job_it_interrupts(tmp_path):
    class BusyCli:
        @staticmethod
        def main(argv):
            start = time.perf_counter()
            while time.perf_counter() - start < 0.35:
                sum(i * i for i in range(1000))
            return 0

    runner = bench_run.Runner(tmp_path)
    runner.cli = BusyCli
    with speed.SpeedProbe() as probe:
        runner.speed = probe
        result = runner.run(workloads.canonical_job())
    assert len(probe.times) >= 2
    assert all(0 < t < 0.05 for t in probe.times)
    assert result["probe_s"] == pytest.approx(sum(probe.times))
    assert result["seconds"] + result["probe_s"] >= 0.35
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.slowdown([speed.PROBE_REF_S] * 3) == pytest.approx(1.0)
    assert speed.slowdown([]) == 1.0


def _write_bell(tmp_path: Path, fidelity: float) -> str:
    lines = [f"# fidelity = {fidelity:.10f}", "# pulse_0 = dispersive duration 2.6596162135060750e+03",
             "elec,n_c,n_r,re_amp,im_amp",
             f"dd,0,0,{(fidelity / 1.0) ** 0.5 * 2 ** -0.5:.16e},0.0",
             f"uu,0,0,0.0,{(fidelity / 1.0) ** 0.5 * 2 ** -0.5:.16e}",
             f"du,1,0,{(1.0 - fidelity) ** 0.5:.16e},0.0"]
    (tmp_path / "bell_phi.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(tmp_path)


def test_canonical_oracle_admits_step_error_and_rejects_a_wrong_engine(tmp_path):
    job = workloads.canonical_job()
    assert oracles.check(job, _write_bell(tmp_path, workloads.CANONICAL_FIDELITY + 6e-7)) is None
    assert "canonical fidelity" in oracles.check(job, _write_bell(tmp_path, 0.99))
    assert "canonical fidelity" in oracles.check(job, _write_bell(tmp_path, 0.5))


def test_tracer_wraps_every_namespace_and_restores_it():
    from vibronic import bellgen, cli, dynamics, tomography

    originals = (dynamics.propagate_bichromatic, tomography.nnls, dynamics.HermitianPropagator.__init__)
    t = tracer.Tracer()
    t.install()
    try:
        assert bellgen.propagate_bichromatic is dynamics.propagate_bichromatic is cli.propagate_bichromatic
        assert dynamics.propagate_bichromatic is not originals[0]
        assert tomography.nnls is not originals[1]
        assert dynamics.HermitianPropagator.__init__ is not originals[2]
    finally:
        t.uninstall()
    assert (dynamics.propagate_bichromatic, tomography.nnls, dynamics.HermitianPropagator.__init__) == originals
    assert bellgen.propagate_bichromatic is originals[0]


def test_tracer_reinstalls_after_uninstall():
    from vibronic import dynamics

    original = dynamics.propagate_bichromatic
    t = tracer.Tracer()
    for _ in range(2):
        t.install()
        assert dynamics.propagate_bichromatic is not original
        t.uninstall()
        assert dynamics.propagate_bichromatic is original


@pytest.mark.parametrize("alpha", [0j, 0.45, -0.3 + 0.2j])
def test_tomography_oracle_populations_agree_with_the_package(alpha):
    from vibronic.fockspace import HilbertConfig, StateSpec, make_vib_state
    from vibronic.tomography import displace_vib

    config = HilbertConfig(14, 3)
    cases = [
        (("fock", 1, 1), StateSpec.fock(1, 1)),
        (("thermal", 0.15), StateSpec.thermal(0.15, 0.0)),
        (("coherent", 0.4 - 0.3j), StateSpec.coherent(0.4 - 0.3j, 0j)),
        (("superposition", [(0, 0, 0.6, 0.1), (2, 1, -0.3, 0.5)]),
         StateSpec.superposition([(0, 0, 0.6 + 0.1j), (2, 1, -0.3 + 0.5j)])),
    ]
    for state, recipe in cases:
        want = displace_vib(make_vib_state(recipe, config), alpha, 0j).populations()
        got = oracles._populations({"hilbert": (14, 3), "state": state}, alpha)
        assert np.abs(got - want).max() < 1e-12, state


def test_tracer_skips_targets_the_package_no_longer_has(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("dynamics", "Gone.__init__"), ("gone", "f")))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert "dynamics.Gone.init" not in t.present
    assert "dynamics.propagate_bichromatic" in t.present


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tomography", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
