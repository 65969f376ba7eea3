"""Run orchestration and deterministic report emission.

A report records the tool version, the effective configuration, one result
block per task (in declared order), a verdict summary, and wall-clock
timings.  Everything except the timings is a pure function of the
configuration document and its seed: reductions iterate in fixed order and
all randomness flows through recorded per-task seeds, so re-running a
config reproduces the payload byte for byte once timings are stripped.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import __version__
from .config import RunConfig
from .domination import CERTIFIED, REFUTED, DominationCertificate, certify
from .errors import GapcertError, ParseError
from .flow import (
    DEFAULT_FLOW_STEPS,
    bg_splitting,
    shift_point,
    splitting_checks,
    stability_probe,
)
from .limits import (
    DEFAULT_N_MAX,
    DEFAULT_TOL,
    LIMIT_WALK,
    SPLITTING_WALK,
    discontinuity_probe,
    holder_estimate,
    sdp_check,
    shared_walks,
    transversality_table,
    xi_upper,
)
from .linalg import Representation, Subspace, grassmann_distance
from .subsets import AxisFamily, hat
from .words import parse_boundary_point, parse_word, periodic_point

PASS = "Pass"
FAIL = "Fail"
ERROR = "Error"
GOOD_VERDICTS = frozenset({CERTIFIED, PASS})


@dataclass(frozen=True)
class Report:
    """A completed run: config echo, per-task results, verdicts, timings."""

    version: str
    config: dict[str, Any]
    results: dict[str, Any]
    summary: dict[str, str]
    timings: dict[str, float]

    def payload(self) -> dict[str, Any]:
        """The full JSON-ready document, timings included."""
        return _jsonify(
            {
                "version": self.version,
                "config": self.config,
                "results": self.results,
                "summary": self.summary,
                "timings": self.timings,
            }
        )

    def stable_payload(self) -> dict[str, Any]:
        """The deterministic part of the document (timings stripped)."""
        payload = self.payload()
        payload.pop("timings", None)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2)


def run(config: RunConfig) -> Report:
    """Execute the configured tasks in declared order.

    A task that raises a library error is recorded as an ``Error`` result
    block; the run itself continues.  Randomized tasks draw their seed from
    the config seed and the task's position, and record it.
    """
    config.require_for_tasks()
    rep = config.representation()
    spec = config.subset_spec()
    results: dict[str, Any] = {}
    timings: dict[str, float] = {}
    shared: dict[str, DominationCertificate] = {}

    def certificate() -> DominationCertificate:
        if "value" not in shared:
            shared["value"] = certify(
                rep, spec, config.k, config.budget, opts=config.certify_options()
            )
        return shared["value"]

    def dual_certificate() -> DominationCertificate:
        # the backward limit maps certify the flipped subset at index d-k
        # with default options; one certificate serves every task
        if "dual" not in shared:
            shared["dual"] = certify(rep, hat(spec), rep.dim - config.k, config.budget)
        return shared["dual"]

    # each limit plane and splitting the tasks read is walked once
    with shared_walks(_walk_reads(config)):
        for index, name in enumerate(config.tasks):
            started = time.perf_counter()
            try:
                results[name] = _TASK_RUNNERS[name](
                    config, rep, spec, index, certificate, dual_certificate
                )
            except GapcertError as exc:
                results[name] = {
                    "verdict": ERROR,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            timings[name] = time.perf_counter() - started

    summary = {name: result["verdict"] for name, result in results.items()}
    summary["overall"] = (
        PASS if all(v in GOOD_VERDICTS for v in summary.values()) else FAIL
    )
    return Report(
        version=__version__,
        config=config.echo(),
        results=results,
        summary=summary,
        timings=timings,
    )


def _walk_reads(config: RunConfig) -> list[tuple[str, int, float]]:
    """The limit-plane and splitting walks the configured tasks read, as
    (kind, length cap, tolerance).

    Several tasks read the same plane or splitting, at the config tolerance
    or at the library default that sdp_check and splitting_checks use; a
    shared walk settles only the tolerances some task reads at its cap.
    A read missing from this list walks on its own, so the list decides
    how often a plane is walked, never what a task reports.
    """
    tol = config.tolerances["subspace"]
    n_max = config.sampling["limit_n_max"]
    reads = {
        "limit-map": [(LIMIT_WALK, n_max, tol)],
        "transversality": [(LIMIT_WALK, n_max, tol)],
        "sdp": [(LIMIT_WALK, n_max, DEFAULT_TOL)],
        "splitting": [
            (SPLITTING_WALK, config.sampling["flow_steps"], tol),
            (SPLITTING_WALK, DEFAULT_FLOW_STEPS, DEFAULT_TOL),
            (LIMIT_WALK, DEFAULT_N_MAX, DEFAULT_TOL),
        ],
    }
    return [read for name in config.tasks for read in reads.get(name, ())]


def exit_code(report: Report) -> int:
    """0 when every task verdict is Certified/Pass, 1 otherwise."""
    return 0 if report.summary.get("overall") == PASS else 1


def _run_certify(config, rep, spec, index, certificate, dual) -> dict[str, Any]:
    cert = certificate()
    return {
        "verdict": cert.verdict,
        "lambda_hat": cert.lambda_hat,
        "c_hat": cert.c_hat,
        "slope_stderr": cert.slope_stderr,
        "residual_min": cert.residual_min,
        "fit_window": list(cert.fit_window),
        "margins": {str(t): m for t, m in sorted(cert.margins.items())},
        "argmins": {str(t): str(w) for t, w in sorted(cert.argmins.items())},
        "counterexample": (
            None if cert.counterexample is None else str(cert.counterexample)
        ),
        "complete": cert.complete,
        "notes": list(cert.notes),
    }


def _run_limit_map(config, rep, spec, index, certificate, dual) -> dict[str, Any]:
    value = xi_upper(
        rep,
        spec,
        config.k,
        config.forward_point(),
        tol=config.tolerances["subspace"],
        n_max=config.sampling["limit_n_max"],
        certificate=certificate(),
        cert_budget=config.budget,
    )
    return {
        "verdict": PASS,
        "point": str(value.point),
        "basis_rows": _subspace_rows(value.subspace),
        "iterations": value.iterations,
        "last_step": value.last_step,
        "cauchy_bound": value.cauchy_bound,
        "skipped_prefixes": list(value.skipped_prefixes),
    }


def _run_transversality(config, rep, spec, index, certificate, dual) -> dict[str, Any]:
    table = transversality_table(
        rep,
        spec,
        config.k,
        config.pair_points(),
        tol=config.tolerances["subspace"],
        n_max=config.sampling["limit_n_max"],
        certificate=certificate(),
        dual_certificate=dual(),
        cert_budget=config.budget,
    )
    passed = table.minimum > config.tolerances["subspace"]
    return {
        "verdict": PASS if passed else FAIL,
        "pairs": [[str(x), str(y)] for x, y in table.pairs],
        "gaps": list(table.gaps),
        "minimum": table.minimum,
    }


def _run_sdp(config, rep, spec, index, certificate, dual) -> dict[str, Any]:
    curve = sdp_check(
        rep,
        spec,
        config.k,
        config.forward_point(),
        config.backward_point(),
        config.seed_plane(),
        tol=config.tolerances["subspace"],
        n_points=config.sampling["sdp_points"],
        n_max=config.sampling["limit_n_max"],
        certificate=certificate(),
        dual_certificate=dual(),
        cert_budget=config.budget,
    )
    return {
        "verdict": PASS if curve.passed else FAIL,
        "lengths": list(curve.lengths),
        "distances": list(curve.distances),
        "final": curve.final,
    }


def _run_holder(config, rep, spec, index, certificate, dual) -> dict[str, Any]:
    seed = config.derived_seed(index)
    fit = holder_estimate(
        rep,
        spec,
        config.k,
        b=config.sampling["b"],
        kappa=config.sampling["kappa"],
        sample_size=config.sampling["holder_pairs"],
        seed=seed,
        max_period=config.sampling["max_period"],
        tol=config.tolerances["subspace"],
        n_max=config.sampling["limit_n_max"],
        certificate=certificate(),
        cert_budget=config.budget,
    )
    passed = fit.alpha_hat > 0.0 and fit.r_squared >= 0.8
    return {
        "verdict": PASS if passed else FAIL,
        "seed": seed,
        "alpha_hat": fit.alpha_hat,
        "log_c_hat": fit.log_c_hat,
        "r_squared": fit.r_squared,
        "pairs_used": fit.pairs_used,
        "cutoff": fit.cutoff,
    }


def _run_splitting(config, rep, spec, index, certificate, dual) -> dict[str, Any]:
    x = shift_point(spec, config.forward_point(), config.backward_point())
    sample = bg_splitting(
        rep,
        x,
        config.k,
        n_steps=config.sampling["flow_steps"],
        tol=config.tolerances["subspace"],
        certificate=certificate(),
        cert_budget=config.budget,
    )
    checks = splitting_checks(
        rep,
        sample,
        certificate=certificate(),
        dual_certificate=dual(),
        cert_budget=config.budget,
    )
    return {
        "verdict": PASS if checks.passed else FAIL,
        "stable_rows": _subspace_rows(sample.stable),
        "unstable_rows": _subspace_rows(sample.unstable),
        "transversality": checks.transversality,
        "invariance_stable": checks.invariance_stable,
        "invariance_unstable": checks.invariance_unstable,
        "ratio_lengths": list(checks.ratio_lengths),
        "ratio_values": list(checks.ratio_values),
        "ratio_slope": checks.ratio_slope,
        "stable_endpoint_residual": checks.stable_endpoint_residual,
        "unstable_endpoint_residual": checks.unstable_endpoint_residual,
    }


def _run_stability(config, rep, spec, index, certificate, dual) -> dict[str, Any]:
    seed = config.derived_seed(index)
    table = stability_probe(
        rep,
        spec,
        config.k,
        epsilon=config.sampling["epsilon"],
        trials=config.sampling["trials"],
        budget=config.budget,
        seed=seed,
    )
    passed = table.counts.get(CERTIFIED, 0) == table.trials
    return {
        "verdict": PASS if passed else FAIL,
        "seed": seed,
        "epsilon": table.epsilon,
        "trials": table.trials,
        "verdicts": list(table.verdicts),
        "counts": dict(table.counts),
        "worst_lambda_hat": table.worst_lambda_hat,
        "worst_margins": {str(t): m for t, m in sorted(table.worst_margins.items())},
    }


_TASK_RUNNERS: dict[str, Callable[..., dict[str, Any]]] = {
    "certify": _run_certify,
    "limit-map": _run_limit_map,
    "transversality": _run_transversality,
    "sdp": _run_sdp,
    "holder": _run_holder,
    "splitting": _run_splitting,
    "stability": _run_stability,
}


def reproduce_paper() -> Report:
    """Re-run the two built-in worked examples and check their outcomes.

    Block ``diagonal_powers``: the one-generator representation
    diag(4, 1/2, 1/2) certifies at k=1 with growth rate log 8 and is
    refuted at k=2 (the trailing singular values tie, so every margin is
    exactly zero).

    Block ``rotation_detour``: the two-generator representation with a
    diagonal stretch and a quarter-turn rotation has limit line span{(1,0)}
    at the periodic stretch axis, but span{(0,1)} along every detour ray
    a^m b a^..., so the limit map cannot be continuous: the probe shows the
    visual distance between the rays shrinking like e^-m while the image
    lines stay a fixed distance 1 apart.
    """
    results: dict[str, Any] = {}
    timings: dict[str, float] = {}

    started = time.perf_counter()
    results["diagonal_powers"] = _diagonal_powers_block()
    timings["diagonal_powers"] = time.perf_counter() - started

    started = time.perf_counter()
    results["rotation_detour"] = _rotation_detour_block()
    timings["rotation_detour"] = time.perf_counter() - started

    summary = {name: block["verdict"] for name, block in results.items()}
    summary["overall"] = (
        PASS if all(v == PASS for v in summary.values()) else FAIL
    )
    return Report(
        version=__version__,
        config={"built_in": list(results)},
        results=results,
        summary=summary,
        timings=timings,
    )


def _check(name: str, expected: Any, measured: Any, passed: bool) -> dict[str, Any]:
    return {"name": name, "expected": expected, "measured": measured, "passed": passed}


def _finish_block(checks: list[dict[str, Any]], extra: dict[str, Any]) -> dict[str, Any]:
    block = {
        "verdict": PASS if all(c["passed"] for c in checks) else FAIL,
        "checks": checks,
    }
    block.update(extra)
    return block


def _diagonal_powers_block() -> dict[str, Any]:
    rep = Representation.of([np.diag([4.0, 0.5, 0.5])])
    axis = AxisFamily(1, (parse_word("a"),))
    checks: list[dict[str, Any]] = []

    cert1 = certify(rep, axis, 1, 20)
    checks.append(
        _check("k=1 verdict", CERTIFIED, cert1.verdict, cert1.verdict == CERTIFIED)
    )
    target = math.log(8.0)
    checks.append(
        _check(
            "k=1 growth rate is log 8",
            target,
            cert1.lambda_hat,
            abs(cert1.lambda_hat - target) <= 1e-9,
        )
    )

    cert2 = certify(rep, axis, 2, 20)
    checks.append(
        _check("k=2 verdict", REFUTED, cert2.verdict, cert2.verdict == REFUTED)
    )
    worst = max(abs(m) for m in cert2.margins.values())
    checks.append(_check("k=2 margins all zero", 0.0, worst, worst == 0.0))

    return _finish_block(
        checks,
        {
            "lambda_hat": cert1.lambda_hat,
            "k2_margins": {str(t): m for t, m in sorted(cert2.margins.items())},
        },
    )


def _rotation_detour_block() -> dict[str, Any]:
    rep = Representation.of(
        [np.diag([2.0, 0.5]), np.array([[0.0, 1.0], [-1.0, 0.0]])]
    )
    axis = AxisFamily(2, (parse_word("a"),))
    cert = certify(rep, axis, 1, 8)
    e1 = Subspace.from_spanning(np.array([[1.0], [0.0]]))
    e2 = Subspace.from_spanning(np.array([[0.0], [1.0]]))
    checks: list[dict[str, Any]] = []

    base = xi_upper(rep, axis, 1, periodic_point(parse_word("a")), certificate=cert)
    base_err = grassmann_distance(base.subspace, e1)
    checks.append(
        _check("limit line at the periodic ray", "span{(1,0)}", base_err, base_err <= 1e-8)
    )
    detour_errors = []
    for m in range(1, 6):
        x = parse_boundary_point("a" * m + "b|(a)")
        value = xi_upper(rep, axis, 1, x, certificate=cert)
        err = grassmann_distance(value.subspace, e2)
        detour_errors.append(err)
        checks.append(
            _check(
                f"limit line after a {m}-step detour",
                "span{(0,1)}",
                err,
                err <= 1e-6,
            )
        )

    probe = discontinuity_probe(rep, exponents=range(1, 6))
    rows_ok = probe.separated
    for i, m in enumerate(probe.exponents):
        visual_ok = abs(probe.visual[i] - math.exp(-m)) <= 1e-12
        image_ok = abs(probe.separations[i] - 1.0) <= 1e-9
        rows_ok = rows_ok and visual_ok and image_ok
    checks.append(
        _check(
            "rays converge (visual gap e^-m) while image lines stay 1 apart",
            "separated",
            {"visual": list(probe.visual), "separations": list(probe.separations)},
            rows_ok,
        )
    )

    return _finish_block(
        checks,
        {
            "detour_errors": detour_errors,
            "probe": {
                "exponents": list(probe.exponents),
                "visual": list(probe.visual),
                "separations": list(probe.separations),
                "separated": probe.separated,
            },
        },
    )


def write_report(report: Report, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
        handle.write("\n")


def load_report(path: str) -> dict[str, Any]:
    """Read back a saved report document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read report {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"report {path!r} is not valid JSON: {exc}") from exc


def format_report(payload: dict[str, Any]) -> str:
    """Human-readable one-screen rendering of a report document."""
    lines = [f"gapcert report (version {payload.get('version', '?')})"]
    summary = payload.get("summary", {})
    results = payload.get("results", {})
    for name, result in results.items():
        verdict = summary.get(name, "?")
        lines.append(f"  {name}: {verdict}")
        if not isinstance(result, dict):
            continue
        for key in (
            "lambda_hat",
            "minimum",
            "final",
            "alpha_hat",
            "r_squared",
            "ratio_slope",
            "iterations",
            "worst_lambda_hat",
        ):
            value = result.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                lines.append(f"    {key} = {value:.12g}")
        if "checks" in result:
            for check in result["checks"]:
                mark = "ok" if check.get("passed") else "FAIL"
                lines.append(f"    [{mark}] {check.get('name')}")
        if "error" in result:
            lines.append(f"    error: {result['error']}")
    lines.append(f"overall: {summary.get('overall', '?')}")
    timings = payload.get("timings")
    if isinstance(timings, dict) and timings:
        lines.append(f"elapsed: {sum(timings.values()):.3f}s")
    return "\n".join(lines)


def _subspace_rows(subspace: Subspace) -> list[list[float]]:
    return [[float(v) for v in column] for column in subspace.frame.T]


def _jsonify(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(item) for item in value.tolist()]
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)
