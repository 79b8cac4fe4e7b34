"""End-to-end and per-layer benchmark of the vibronic package.

    python3 bench/run.py --workload full-drive --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The
benchmark drives the package the way a user does: one process, one client,
a closed loop of CLI jobs.  Each job is a config file drawn from the seed
(see workloads.py) and run in-process through ``vibronic.cli.main`` with
``threads = 1``; every output is checked against an independent oracle
(see oracles.py).

A run executes one round: a fixed list of jobs, sized from ``--seconds``
at the speed of the machine the benchmark was written on, so the work is
the same on any machine.  That machine changes speed from moment to
moment (see speed.py), so while the round and each set-up process run, a
speed probe samples how much slower than typical the machine is.  Each
job's time, and each set-up time, is divided by the slowdown measured
while it ran; the record keeps the raw values and the slowdowns.  A
slower program still reads slower, but a slower moment of the machine
does not.

``--trace 0`` measures the end-to-end metrics: set-up time (the median of
five fresh processes, each timed from launch until its first job is
ready), jobs that pass their oracle per second of job time, median and
tail job time, and peak resident memory.  ``--trace 1`` runs a round of
half the size, each job twice in a row, in alternating order: traced,
with the package's public functions wrapped (tracer.py), and untraced.
The pairs give the tracing overhead (the median of the per-job
differences, so a drift in machine speed cancels) and must produce the
same output files byte for byte.  The run reports per-layer times,
counts and problem sizes, all per traced job, as measured.  It also
times the fixed problem sizes that the roadmap quotes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
record (machine facts, percentiles, failures), which is also written to
``.bench_out/`` under the checkout.  Working files go to ``.bench_work/``
and are removed on exit.
"""

from __future__ import annotations

import os
import sys
import time

BLAS_THREADS = 1  # steadier than 2 on a shared 2-core machine; never above nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import argparse
import filecmp
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import subprocess
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

PROBES = 5  # fresh processes timed for setup_s

# seconds one deck, and the check-4 pulse, took on the machine the benchmark
# was written on (2 cores, OpenBLAS, one thread); a round holds --seconds
# worth of work there, and the same work on any machine
DECK_SECONDS = {"full-drive": 8.0, "static-generator": 7.0, "tomography": 0.4}
CANONICAL_SECONDS = 5.5

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}

WARNING_CATEGORIES = ("RotatingWaveWarning", "AdiabaticityWarning", "ConvergenceWarning", "TruncationWarning")

# function groups whose self time each workload is built to exercise
LAYER_GROUPS = {
    "full_drive": ("dynamics.propagate_bichromatic", "_kernels.propagate_coo", "dynamics.BichromaticAction.init"),
    "static_generator": (
        "dynamics.HermitianPropagator.init", "dynamics.HermitianPropagator.apply",
        "dynamics.build_effective_H", "dynamics.build_carrier_H",
    ),
    "tomography": (
        "dynamics.rabi_spectrum", "fockspace.coupling_f", "fockspace.displacement",
        "tomography.displace_vib", "tomography.synth_signal", "tomography.invert_populations",
        "tomography.nnls", "tomography.design_matrix", "tomography.wigner_direct",
    ),
}

# name -> unit; times and counts are per traced job unless the unit says otherwise
PER_LAYER = {
    "dynamics.propagate_bichromatic.self_s": "s/job",
    "dynamics.propagate_bichromatic.steps": "steps/job",
    "dynamics.propagate_bichromatic.replay_ratio": "ratio",
    "dynamics.propagate_bichromatic.dim_max": "count",
    "kernels.propagate_coo.self_s": "s/job",
    "kernels.propagate_coo.nnz_max": "count",
    "dynamics.BichromaticAction.init_s": "s/job",
    "dynamics.HermitianPropagator.init.calls": "calls/job",
    "dynamics.HermitianPropagator.init.self_s": "s/job",
    "dynamics.HermitianPropagator.init.dim_max": "count",
    "dynamics.HermitianPropagator.apply.self_s": "s/job",
    "dynamics.eigh_per_generator": "ratio",
    "dynamics.build_effective_H.self_s": "s/job",
    "dynamics.build_carrier_H.self_s": "s/job",
    "dynamics.rabi_spectrum.calls": "calls/job",
    "dynamics.rabi_spectrum.per_drive": "ratio",
    "fockspace.coupling_f.calls": "calls/job",
    "fockspace.displacement.self_s": "s/job",
    "tomography.displace_vib.self_s": "s/job",
    "tomography.synth_signal.self_s": "s/job",
    "tomography.synth_signal.samples": "samples/call",
    "tomography.invert_populations.self_s": "s/job",
    "tomography.invert_populations.unknowns": "count/call",
    "tomography.nnls.self_s": "s/job",
    "tomography.design_matrix.cells": "cells/job",
    "tomography.wigner_direct.self_s": "s/job",
    "bellgen.run_sequence.self_s": "s/job",
    "cli.parse_config.self_s": "s/job",
    "cli.output_bytes": "bytes/job",
    **{f"cli.warnings.{name}": "count/job" for name in WARNING_CATEGORIES},
    "cli.warnings.other": "count/job",
    "setup.import_s": "s",
    "trace.jobs": "count",
    "trace.job_s": "s/job",
    "trace.overhead_s": "s/job",
    "trace.overhead_ratio": "ratio",
    "trace.covered_share": "ratio",
    **{f"trace.share.{group}": "ratio" for group in LAYER_GROUPS},
    "bench.fail_ratio": "ratio",
    "baseline.coupling_f_grid.41x41_s": "s",
    "baseline.rabi_spectrum.26x26_s": "s",
    "baseline.HermitianPropagator.dim324_s": "s",
    "baseline.protocol_run.20pt_15unk_s": "s",
    "baseline.protocol_run.20pt_15unk_shots1e4_s": "s",
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package() -> float:
    """Import vibronic.cli from the checkout's src/; returns the import time."""
    if not (SRC / "vibronic" / "__init__.py").is_file():
        _fail(f"no package source at {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import vibronic.cli  # noqa: F401  (timed import)

    elapsed = time.perf_counter() - start
    import vibronic

    if Path(vibronic.__file__).resolve().parent != SRC / "vibronic":
        _fail(f"imported vibronic from {vibronic.__file__}, not from {SRC}")
    return elapsed


# ---------------------------------------------------------------------------
# jobs


class Runner:
    """Runs jobs through the CLI in-process and keeps what each one did."""

    def __init__(self, work_dir: Path):
        from vibronic import cli

        self.cli = cli
        self.work_dir = work_dir
        self.count = 0
        self.speed = None  # a started SpeedProbe, whose time is taken out of each job's

    def run(self, job, tag: str = "job") -> dict:
        self.count += 1
        cfg = self.work_dir / f"{tag}{self.count}.cfg"
        out = self.work_dir / f"{tag}{self.count}"
        cfg.write_text(job.text, encoding="utf-8")
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start, cpu_start = time.perf_counter(), time.process_time()
            probes_before = len(self.speed.times) if self.speed else 0
            try:
                code = self.cli.main(["--config", str(cfg), "--out", str(out), "--quiet"])
                if code != 0:
                    error = f"exit code {code}"
            except Exception as exc:  # a job that raises is a failed job, not a failed run
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
            probe_s = self.speed.spent(probes_before) if self.speed else 0.0
        return dict(job=job, out=out, seconds=elapsed - probe_s, cpu_seconds=cpu - probe_s, probe_s=probe_s,
                    start=start, end=start + elapsed, error=error, warnings=[w.category.__name__ for w in caught])


def warm_up(runner: Runner, workload, seed: int) -> None:
    """One tiny job of each mode the workload runs, untimed."""
    import workloads

    seen = set()
    for job in workloads.deck(workload, seed, 0, tiny=True):
        if job.mode not in seen:
            seen.add(job.mode)
            runner.run(job, tag="warm")


def round_decks(workload: str, seconds: float, tiny: bool) -> int:
    """Decks in a round: ``seconds`` worth, less the check-4 pulse, at DECK_SECONDS."""
    fixed = CANONICAL_SECONDS if workload == "full-drive" else 0.0
    return 1 if tiny else max(1, round((seconds - fixed) / DECK_SECONDS[workload]))


def round_jobs(workload: str, seed: int, decks: int, tiny: bool) -> list:
    """One round: the check-4 pulse (full-drive only) and decks 0..decks-1."""
    import workloads

    jobs = [workloads.canonical_job()] if workload == "full-drive" and not tiny else []
    return jobs + [job for index in range(decks) for job in workloads.deck(workload, seed, index, tiny)]


def run_round(run, jobs: list) -> tuple[list[dict], float]:
    """Every job of the round through ``run``; returns (results, elapsed).

    The work is the same on any machine, so the job mix does not change
    with its speed.
    """
    start = time.perf_counter()
    results = [run(job) for job in jobs]
    return results, time.perf_counter() - start


def judge(results: list[dict]) -> list[str]:
    """Run each job's oracle; returns the failure reasons, one per failed job."""
    import oracles

    failures = []
    for i, res in enumerate(results):
        reason = res["error"] or oracles.check(res["job"], str(res["out"]))
        res["failure"] = reason
        if reason:
            failures.append(f"job {i} ({res['job'].label}): {reason}")
    return failures


def same_outputs(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir()) if a.is_dir() else []
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return bool(match) and not mismatch and not errors


def rerun_check(runner: Runner, results: list[dict]) -> str | None:
    """Rerun the first deck job and compare its files byte for byte."""
    first = next(r for r in results if not r["job"].spec.get("canonical"))
    again = runner.run(first["job"], tag="rerun")
    if again["error"] or not same_outputs(first["out"], again["out"]):
        first["failure"] = first.get("failure") or "rerun output differs"
        return f"rerun of {first['job'].label} is not byte-identical"
    return None


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with 10 times beyond it.

    That is 100 * (n - 10) / n of n times.  Below 21 times no percentile
    above the median qualifies, and the median is reported.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# setup


def probe_setup(workload: str, seed: int, seconds: float) -> list[tuple[float, list[float]]]:
    """Seconds from launch until a fresh process has its first job ready.

    Each process runs a speed probe during its set-up and reports the
    samples, whose time is taken out of its set-up time.  Returns (set-up
    time, samples) per process.
    """
    setups = []
    for _ in range(PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            rest = proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            _fail(f"setup probe exited with code {code}")
        samples = json.loads(rest)
        setups.append((ready - start - sum(samples), samples))
    return setups


def setup(workload: str, seed: int, work_dir: Path, decks: int, tiny: bool = False) -> tuple[Runner, list, float]:
    """Imports, the round's job configs and warm-up; returns (runner, jobs, import time)."""
    import_s = _import_package()
    jobs = round_jobs(workload, seed, decks, tiny)
    runner = Runner(work_dir)
    warm_up(runner, workload, seed)
    return runner, jobs, import_s


# ---------------------------------------------------------------------------
# machine facts and fixed-size baselines


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')} ({blas.get('openblas configuration', '')})".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


def _timed(fn) -> tuple[float, float]:
    times = []
    for _ in range(5):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), min(times)


def baselines() -> list[dict]:
    """The fixed problem sizes ROADMAP quotes, timed here (median and min of 5)."""
    import numpy as np
    from vibronic.dynamics import BichromaticParams, HermitianPropagator, build_effective_H, rabi_spectrum
    from vibronic.fockspace import HilbertConfig, ModeParams, StateSpec, coupling_f_grid, make_vib_state
    from vibronic.tomography import default_tau_grid, protocol_run

    modes = ModeParams(eta=0.23)
    p = BichromaticParams.symmetric(k=1, delta=0.02, omega=0.05, modes=modes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h324 = build_effective_H(p, HilbertConfig(8, 8))
    s = 2.0**-0.5
    rho = make_vib_state(StateSpec.superposition([(0, 0, s), (2, 0, s)]), HilbertConfig(16, 2))
    alphas = [(complex(a), 0j) for a in np.linspace(0.0, 1.0, 20)]
    taus = default_tau_grid(p, 14, 0)
    cases = [
        ("baseline.coupling_f_grid.41x41_s", "41x41 levels", 0.015, lambda: coupling_f_grid(40, 40, 1, modes)),
        ("baseline.rabi_spectrum.26x26_s", "26x26 levels", 0.006, lambda: rabi_spectrum(p, 25, 25)),
        ("baseline.HermitianPropagator.dim324_s", "joint dimension 324", 0.057, lambda: HermitianPropagator(h324)),
        ("baseline.protocol_run.20pt_15unk_s", "20 points, 15 unknowns, 60 tau samples, noiseless", 0.049,
         lambda: protocol_run(rho, alphas, taus, p, n_fit_c=14, n_fit_r=0)),
        ("baseline.protocol_run.20pt_15unk_shots1e4_s", "20 points, 15 unknowns, 60 tau samples, 10^4 shots", None,
         lambda: protocol_run(rho, alphas, taus, p, shots=10_000, n_fit_c=14, n_fit_r=0)),
    ]
    rows = []
    for name, size, roadmap, fn in cases:
        median, best = _timed(fn)
        rows.append(dict(name=name, size=size, roadmap_s=roadmap, median_s=median, min_s=best))
    return rows


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def layer_metrics(tracer, traced: list[dict], replay: list[dict]) -> dict:
    jobs = len(traced)
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(s.self_s for s in spans(name)) / jobs

    def size_max(name, key):
        return max((s.sizes[key] for s in spans(name)), default=0)

    def size_mean(name, key):
        values = [s.sizes[key] for s in spans(name)]
        return sum(values) / len(values) if values else 0.0

    def per_job_distinct(name, key):
        return len({(s.job, s.sizes[key]) for s in spans(name)})

    # replay ratio: stepper steps executed / steps to the latest time asked for, per job
    executed, needed = Counter(), Counter()
    for s in spans("dynamics.propagate_bichromatic"):
        executed[s.job] += s.sizes["steps"]
        needed[s.job] = max(needed[s.job], s.sizes["steps"])
    warn = Counter(w if w in WARNING_CATEGORIES else "other" for r in traced for w in r["warnings"])
    traced_s = sum(r["seconds"] for r in traced)
    pairs = [(a["seconds"], b["seconds"]) for a, b in zip(traced, replay)]
    covered = sum(s.self_s for s in tracer.spans)
    failed = sum(1 for r in traced if r["failure"])
    out = {
        "dynamics.propagate_bichromatic.self_s": self_s("dynamics.propagate_bichromatic"),
        "dynamics.propagate_bichromatic.steps": sum(executed.values()) / jobs,
        "dynamics.propagate_bichromatic.replay_ratio": sum(executed.values()) / max(sum(needed.values()), 1),
        "dynamics.propagate_bichromatic.dim_max": size_max("dynamics.propagate_bichromatic", "dim"),
        "kernels.propagate_coo.self_s": self_s("_kernels.propagate_coo"),
        "kernels.propagate_coo.nnz_max": size_max("_kernels.propagate_coo", "nnz"),
        "dynamics.BichromaticAction.init_s": self_s("dynamics.BichromaticAction.init"),
        "dynamics.HermitianPropagator.init.calls": len(spans("dynamics.HermitianPropagator.init")) / jobs,
        "dynamics.HermitianPropagator.init.self_s": self_s("dynamics.HermitianPropagator.init"),
        "dynamics.HermitianPropagator.init.dim_max": size_max("dynamics.HermitianPropagator.init", "dim"),
        "dynamics.HermitianPropagator.apply.self_s": self_s("dynamics.HermitianPropagator.apply"),
        "dynamics.eigh_per_generator": len(spans("dynamics.HermitianPropagator.init"))
        / max(per_job_distinct("dynamics.HermitianPropagator.init", "generator"), 1),
        "dynamics.build_effective_H.self_s": self_s("dynamics.build_effective_H"),
        "dynamics.build_carrier_H.self_s": self_s("dynamics.build_carrier_H"),
        "dynamics.rabi_spectrum.calls": len(spans("dynamics.rabi_spectrum")) / jobs,
        "dynamics.rabi_spectrum.per_drive": len(spans("dynamics.rabi_spectrum"))
        / max(per_job_distinct("dynamics.rabi_spectrum", "drive"), 1),
        "fockspace.coupling_f.calls": len(spans("fockspace.coupling_f")) / jobs,
        "fockspace.displacement.self_s": self_s("fockspace.displacement"),
        "tomography.displace_vib.self_s": self_s("tomography.displace_vib"),
        "tomography.synth_signal.self_s": self_s("tomography.synth_signal"),
        "tomography.synth_signal.samples": size_mean("tomography.synth_signal", "samples"),
        "tomography.invert_populations.self_s": self_s("tomography.invert_populations"),
        "tomography.invert_populations.unknowns": size_mean("tomography.invert_populations", "unknowns"),
        "tomography.nnls.self_s": self_s("tomography.nnls"),
        "tomography.design_matrix.cells": sum(s.sizes["cells"] for s in spans("tomography.design_matrix")) / jobs,
        "tomography.wigner_direct.self_s": self_s("tomography.wigner_direct"),
        "bellgen.run_sequence.self_s": self_s("bellgen.run_sequence"),
        "cli.parse_config.self_s": self_s("cli.parse_config"),
        "cli.output_bytes": sum(f.stat().st_size for r in traced for f in r["out"].glob("*")) / jobs,
        **{f"cli.warnings.{name}": warn[name] / jobs for name in WARNING_CATEGORIES},
        "cli.warnings.other": warn["other"] / jobs,
        "trace.jobs": jobs,
        "trace.job_s": traced_s / jobs,
        "trace.overhead_s": statistics.median(a - b for a, b in pairs),
        "trace.overhead_ratio": statistics.median(a / b - 1.0 for a, b in pairs),
        "trace.covered_share": covered / traced_s,
        **{
            f"trace.share.{group}": sum(s.self_s for name in names for s in spans(name)) / traced_s
            for group, names in LAYER_GROUPS.items()
        },
        "bench.fail_ratio": failed / jobs,
    }
    return out


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(workload: str, seed: int, seconds: float, work_dir: Path, tiny: bool, probes: bool) -> tuple[dict, dict, list[dict]]:
    from speed import SpeedProbe, slowdown  # imports numpy, so not before the timed import

    setups = probe_setup(workload, seed, seconds) if probes else []
    start = time.perf_counter()
    decks = round_decks(workload, seconds, tiny)
    runner, jobs, import_s = setup(workload, seed, work_dir, decks, tiny)
    own_setup = time.perf_counter() - start
    with SpeedProbe() as speed:
        runner.speed = speed
        results, elapsed = run_round(runner.run, jobs)
        runner.speed = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = judge(results)
    rerun = rerun_check(runner, results)
    if rerun:
        failures.append(rerun)
    for r in results:
        r["slowdown"] = speed.slowdown_between(r["start"], r["end"])
    raw_times = [r["seconds"] for r in results]
    times = [r["seconds"] / r["slowdown"] for r in results]
    passed = sum(1 for r in results if not r["failure"])
    tail_s, tail_pct = tail(times)
    setup_raw = [t for t, _ in setups] or [own_setup]
    setup_slowdowns = [slowdown(samples) for _, samples in setups] or [slowdown(speed.times)]
    metrics = {
        "setup_s": statistics.median(t / f for t, f in zip(setup_raw, setup_slowdowns)),
        "jobs_per_s": passed / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    record = dict(
        raw=dict(setup_s=statistics.median(setup_raw), jobs_per_s=passed / sum(raw_times),
                 job_p50_s=statistics.median(raw_times), job_tail_s=tail(raw_times)[0]),
        slowdown=slowdown(speed.times), speed_probes=len(speed.times), probe_s=sum(speed.times),
        setup_probes_s=setup_raw, setup_slowdowns=setup_slowdowns,
        setup_speed_probes=[len(samples) for _, samples in setups], setup_own_s=own_setup,
        import_s=import_s, timed_s=elapsed, decks_per_round=decks, jobs=len(results), tail_percentile=tail_pct,
        tail_samples=len(results), fail_ratio=(len(results) - passed) / len(results), failures=failures[:20],
        job_seconds=[[r["job"].label, r["seconds"], r["slowdown"], r["cpu_seconds"]] for r in results],
    )
    return metrics, record, results


def traced_run(workload: str, seed: int, seconds: float, work_dir: Path, tiny: bool) -> tuple[dict, dict, list[dict]]:
    from tracer import TARGETS, Tracer, metric_name

    # half the untraced round: each job also runs a second time, untraced
    decks = 1 if tiny else max(1, round_decks(workload, seconds, tiny) // 2)
    runner, jobs, import_s = setup(workload, seed, work_dir, decks, tiny)
    tracer = Tracer()

    def run_traced(job) -> dict:
        tracer.install()
        try:
            return runner.run(job)
        finally:
            tracer.uninstall()

    def pair(job) -> dict:
        """The job traced and untraced back to back, so drift cancels pair by
        pair; the order alternates, so a cost of going first cancels too."""
        tracer.job += 1
        if tracer.job % 2:
            replay = runner.run(job, tag="replay")
            result = run_traced(job)
        else:
            result = run_traced(job)
            replay = runner.run(job, tag="replay")
        result["replay"] = replay
        return result

    traced, traced_elapsed = run_round(pair, jobs)
    replay = [r.pop("replay") for r in traced]
    failures = judge(traced)
    for i, (a, b) in enumerate(zip(traced, replay)):
        if b["error"] or not same_outputs(a["out"], b["out"]):
            a["failure"] = a["failure"] or "untraced replay output differs"
            failures.append(f"job {i} ({a['job'].label}): untraced replay output differs")
    metrics = layer_metrics(tracer, traced, replay)
    span_cost = tracer.span_cost()
    metrics["setup.import_s"] = import_s
    rows = baselines()
    metrics.update((row["name"], row["median_s"]) for row in rows)
    if workload == "full-drive" and not tiny:
        rows.append(dict(name="check4.make_phi", size="joint dimension 132, 53193 steps", roadmap_s=[6.0, 11.0],
                         median_s=replay[0]["seconds"], min_s=replay[0]["seconds"]))
    record = dict(
        import_s=import_s, timed_s=traced_elapsed, decks_per_round=decks, jobs=len(traced),
        traced_s=sum(r["seconds"] for r in traced), untraced_replay_s=sum(r["seconds"] for r in replay), spans=len(tracer.spans),
        span_cost_s=span_cost, wrapper_s_per_job=span_cost * len(tracer.spans) / len(traced),
        not_in_package=sorted({metric_name(m, a) for m, a in TARGETS} - tracer.present), baselines=rows,
        failures=failures[:20],
    )
    return metrics, record, traced


@contextmanager
def work_area(name: str):
    """A fresh directory under .bench_work/ in the checkout, removed afterwards."""
    work_dir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        yield work_dir
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, probes: bool = True) -> dict:
    """One benchmark run; returns the record whose ``result`` is the final JSON line."""
    with work_area(f"{workload}-{seed}") as work_dir:
        if trace:
            metrics, record, results = traced_run(workload, seed, seconds, work_dir, tiny)
            units = PER_LAYER
        else:
            metrics, record, results = untraced_run(workload, seed, seconds, work_dir, tiny, probes)
            units = END_TO_END
    failed = sum(1 for r in results if r["failure"])
    record.update(workload=workload, trace=int(trace), seconds=seconds, machine=machine_facts(seed))
    record["result"] = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    return record


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "vibronic" / "__init__.py").is_file():
        _fail(f"no package source at {SRC}; run from the root of a source checkout")

    if args.probe:  # a setup-time probe: set up, say so, report the speed samples, and exit
        from speed import SpeedProbe

        with work_area("probe") as work_dir:
            with SpeedProbe() as speed:
                setup(args.workload, args.seed, work_dir, round_decks(args.workload, args.seconds, False))
            print("ready", flush=True)
            print(json.dumps(speed.times), flush=True)
        return 0

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    text = json.dumps(record, default=str)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
