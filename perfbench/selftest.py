"""The benchmark's own tests, at smoke size so they finish in seconds.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's test suite on purpose (the file name does not
match test_*.py): these tests spawn benchmark jobs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_workloads():
    assert WORKLOADS == list(workloads.WHY)
    assert [w["why"] for w in SPEC["workloads"]] == list(workloads.WHY.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload):
    untraced = result(bench(workload, 0))
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced = result(bench(workload, 1))
    assert traced["correct"] and traced["attempted"] >= 2
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_trace_counts_repeat_and_see_every_call_site():
    counts = []
    for _ in range(2):
        metrics = result(bench("limits-flow", 1))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    points = workloads.SIZES["smoke"]["limits-flow"]["points"]
    # the run's certificate plus the dual certificates re-derived by
    # transversality, sdp and splitting_checks, and one for the holder config
    assert counts[0]["domination.certify_calls"] == 4 * points + 1
    assert counts[0]["flow.splittings"] == points

    metrics = result(bench("certify-full", 1))["metrics"]
    assert metrics["linalg.svd_calls"]["value"] == metrics["subsets.words"]["value"]


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("certify-full", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_oracle_flags_a_skipped_word():
    from gapcert.config import parse_config
    from gapcert.report import run

    doc = workloads.build("certify-full", 3, "smoke")[0]
    report = run(parse_config(doc)).stable_payload()
    assert oracle.check_certify(doc, report, 3) == []
    # an engine that skipped the true argmin would report a larger minimum
    result = report["results"]["certify"]
    t = str(doc["budget"])
    result["margins"][t] += 0.5
    assert any("below the reported minimum" in p for p in oracle.check_certify(doc, report, 3))


def all_margins(generators: list, budget: int, k: int = 1) -> list[np.ndarray]:
    """Margins of every reduced word of each length 1..budget, batched."""
    images = oracle.letter_images(generators)
    letters = sorted(images)
    inverse = [letters.index(ch.swapcase()) for ch in letters]
    stack = np.stack([images[ch] for ch in letters])
    products, last = stack, np.arange(len(letters))
    out = []
    for t in range(1, budget + 1):
        if t > 1:
            # every (word, letter) pair that does not cancel
            allowed = np.arange(len(letters))[None, :] != np.array(inverse)[last][:, None]
            parent, last = np.nonzero(allowed)
            products = products[parent] @ stack[last]
        s = np.linalg.svd(products, compute_uv=False)
        out.append(np.log(s[:, k - 1]) - np.log(s[:, k]))
    return out


@pytest.mark.parametrize("seed", range(20))
def test_reference_argmins_beat_their_runner_up(seed):
    doc = workloads.build("certify-full", seed, "full")[0]
    for t, margins in enumerate(all_margins(doc["generators"], doc["budget"]), start=1):
        lowest, runner_up = np.sort(margins)[:2]
        assert runner_up - lowest > oracle.MARGIN_TOL, (seed, t, lowest, runner_up)
        assert margins.max() < 34.0
