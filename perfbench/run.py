"""gapcert benchmark: end-to-end and per-layer metrics of named workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/gapcert).
The load is a closed loop: one job at a time, each in a fresh interpreter
(perfbench/job.py) that takes the CLI path load_config -> report.run ->
write_report on the workload's configuration documents, until S seconds
have passed.  BLAS and OpenMP are pinned to one thread in every job.

Every job's reports are checked by an independent oracle (oracle.py) and
must repeat the first job's deterministic payload byte for byte.  A job
fails if it crashes, if any task verdict is not Certified/Pass, or if a
check fails.

--trace 0 reports the end-to-end metrics, medians over the jobs:
  wall_s       first task start to last report written
  setup_s      interpreter start to first task (imports, config loading)
  peak_rss_mb  peak resident memory of the job process
--trace 1 alternates untraced and traced jobs and reports the per-layer
metrics of spans.py (medians over traced jobs), plus trace.overhead_s, the
median over (untraced, traced) job pairs of the traced minus the untraced
wall_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Earlier lines describe the machine and each
job.  Exits 2 without a result when src/gapcert is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
# The whole benchmark must finish within 180 s; stop starting jobs that
# would end past this many seconds, and kill a job that runs past it.
DEADLINE_S = 165.0
POLL_S = 0.005


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SOURCE)
    # an installed package runs from compiled bytecode; let the warm-up
    # write it (under src/, which .gitignore covers)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def wait_with_rusage(proc: subprocess.Popen, deadline: float):
    """Reap `proc`, killing it at `deadline`; returns (exit code, rusage)."""
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, rusage = os.wait4(proc.pid, 0)
                break
            time.sleep(POLL_S)
    except BaseException:
        # interrupted (SIGTERM, ^C): leave no job running behind us
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def run_job(work: Path, index: int, config_paths: list[str], trace: bool, deadline: float) -> dict:
    out_dir = work / f"job-{index:03d}"
    out_dir.mkdir()
    with open(out_dir / "log.txt", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "job.py"), str(out_dir), "1" if trace else "0", *config_paths],
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        code, rusage = wait_with_rusage(proc, deadline)
    job = {"index": index, "traced": trace, "problems": [], "out_dir": out_dir}
    if code != 0:
        tail = (out_dir / "log.txt").read_text(errors="replace").strip().splitlines()[-3:]
        job["problems"].append(f"job exited with {code}: {' | '.join(tail)}")
        return job
    info = json.loads((out_dir / "job.json").read_text())
    if not Path(info["gapcert_file"]).resolve().is_relative_to(SOURCE.resolve()):
        job["problems"].append(f"imported gapcert from {info['gapcert_file']}")
    job.update(
        setup_s=info["first_task"] - spawned,
        wall_s=info["end"] - info["first_task"],
        peak_rss_mb=rusage.ru_maxrss / 1024.0,
        cpu_s=rusage.ru_utime + rusage.ru_stime,
    )
    return job


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def stable_payloads(out_dir: Path, count: int) -> list[dict]:
    reports = []
    for i in range(count):
        report = json.loads((out_dir / f"report-{i:03d}.json").read_text())
        report.pop("timings", None)
        reports.append(report)
    return reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    # unwind through the finally blocks below on SIGTERM, as on ^C
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    if not (SOURCE / "gapcert" / "__init__.py").is_file():
        print(f"no gapcert sources under {SOURCE}", file=sys.stderr)
        return 2

    docs = workloads.build(args.workload, args.seed, args.size)
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config_paths = []
        for i, doc in enumerate(docs):
            path = work / f"config-{i:03d}.json"
            path.write_text(json.dumps(doc))
            config_paths.append(str(path))
        # compile bytecode and fill the file cache once: users pay neither
        # on every call
        subprocess.run(
            [sys.executable, "-c", "import gapcert"], env=child_env(),
            stdin=subprocess.DEVNULL, check=True, timeout=60,
        )
        jobs = run_loop(args, work, docs, config_paths, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(json.dumps({"machine": machine()}))
    for job in jobs:
        print(json.dumps({k: v for k, v in job.items() if k not in ("out_dir", "layers")}))
    failed = sum(1 for job in jobs if job["problems"])
    good = [job for job in jobs if not job["problems"]]
    metrics = trace_metrics(jobs) if args.trace else end_to_end_metrics(good)
    print(json.dumps({"correct": failed == 0 and metrics is not None, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics or {}}))
    return 0


def run_loop(args, work: Path, docs: list[dict], config_paths: list[str], deadline: float) -> list[dict]:
    """Run jobs until the measuring time is used up; check each one."""
    started = time.monotonic()
    jobs: list[dict] = []
    reference = None
    longest = 0.0
    while True:
        trace = bool(args.trace) and len(jobs) % 2 == 1
        begun = time.monotonic()
        job = run_job(work, len(jobs), config_paths, trace, deadline)
        longest = max(longest, time.monotonic() - begun)
        if not job["problems"]:
            reports = stable_payloads(job["out_dir"], len(docs))
            job["problems"] = oracle.check_job(docs, reports, args.seed)
            if reference is None:
                reference = reports
            elif reports != reference:
                job["problems"].append("deterministic payload differs from the first job's")
            if trace:
                job["layers"] = spans.layer_metrics(str(job["out_dir"] / "spans.npz"))
        shutil.rmtree(job["out_dir"], ignore_errors=True)
        jobs.append(job)
        now = time.monotonic()
        paired = not args.trace or len(jobs) % 2 == 0
        if now + longest > deadline or (paired and now - started >= args.seconds):
            return jobs


def end_to_end_metrics(jobs: list[dict]) -> dict | None:
    if not jobs:
        return None
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    return {
        name: {"value": statistics.median(job[name] for job in jobs), "unit": unit}
        for name, unit in units.items()
    }


def trace_metrics(jobs: list[dict]) -> dict | None:
    # jobs alternate untraced, traced; adjacent jobs see the same machine
    pairs = [(a, b) for a, b in zip(jobs[0::2], jobs[1::2]) if not a["problems"] and not b["problems"]]
    traced = [b for _, b in pairs]
    if not pairs:
        return None
    metrics = {
        name: {"value": statistics.median(job["layers"][name] for job in traced), "unit": spans.unit(name)}
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_s"] = {
        "value": statistics.median(b["wall_s"] - a["wall_s"] for a, b in pairs),
        "unit": "s",
    }
    return metrics


if __name__ == "__main__":
    sys.exit(main())
