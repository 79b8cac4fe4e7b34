"""SHA-256 of every output file of the benchmark's job decks.

    python3 tools/deck_digests.py [CHECKOUT] > digests.txt

Runs the check-4 job and every job of the bench decks of seeds 0-2
(``tomography`` decks 0-5, the other two workloads' decks 0-2) in-process
through ``vibronic.cli.main``, with the package imported from
``CHECKOUT/src`` and the decks from ``CHECKOUT/bench`` (default: the
checkout this file sits in).  It prints one ``sha256  job/file`` line per
``--out`` file, an ``exit N  job`` line for each job that does not exit 0,
and a ``warn Category  job: message`` line for each warning a job raises.
The bench decks never give a Bell drive a negative detuning, so after
them it runs a fixed set of signed-detuning Bell jobs the same way:
``bell-phi`` and ``bell-psi`` at delta = +/-0.15 on grid (6, 2), both
signs, both engines.  It then runs the acceptance battery and prints its
ten report lines, with check 4's wall-clock runtime masked, so a ``diff``
of two checkouts' output shows every output byte, every warning and every
check digit that a change moved.  Outputs go to a temporary directory that
is removed on exit.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported, as bench/run.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import re
import sys
import tempfile
import warnings
from pathlib import Path

SEEDS = (0, 1, 2)
DECKS = {"full-drive": 3, "static-generator": 3, "tomography": 6}
SIGNED_BELL = """\
mode = {mode}
[hilbert]
n_max_c = 6
n_max_r = 2
[modes]
eta = 0.1
[drive]
k = 1
delta = {delta}
omega = 0.05
[bell]
{key} = {sign}
engine = {engine}
"""


def _jobs(workloads):
    """(name, config text) for the check-4 job, every deck job and the signed Bell jobs, in a fixed order."""
    yield "check-4", workloads.canonical_job().text
    for workload, count in DECKS.items():
        for seed in SEEDS:
            for index in range(count):
                for slot, job in enumerate(workloads.deck(workload, seed, index)):
                    yield f"{workload}/s{seed}-d{index}-j{slot}-{job.mode}", job.text
    for mode, key in (("bell-phi", "sign"), ("bell-psi", "start_sign")):
        for delta in ("0.15", "-0.15"):
            for sign in "+-":
                for engine in ("effective", "exact"):
                    text = SIGNED_BELL.format(mode=mode, delta=delta, key=key, sign=sign, engine=engine)
                    yield f"signed-bell/{mode}-delta{delta}-{key}{sign}-{engine}", text


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import bench.workloads as workloads
    from vibronic.acceptance import run_all
    from vibronic.cli import main as cli_main

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _jobs(workloads):
            job_dir = Path(tmp) / name
            job_dir.mkdir(parents=True)
            cfg = job_dir / "run.cfg"
            cfg.write_text(text, encoding="utf-8")
            out = job_dir / "out"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli_main(["--config", str(cfg), "--out", str(out), "--quiet"])
            if code != 0:
                failed += 1
                print(f"exit {code}  {name}")
            for path in sorted(out.glob("*")) if out.is_dir() else ():
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")
            for warning in caught:
                print(f"warn {warning.category.__name__}  {name}: {warning.message}")
    for result in run_all():
        print(re.sub(r"runtime [0-9.]+s", "runtime *s", result.report_line()))
        failed += not result.passed
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
