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
from collections import namedtuple
from functools import cache
from typing import Any, Callable

import numpy as np

from . import __version__
from .config import RunConfig
from .domination import CERTIFIED, REFUTED, DominationCertificate, certify
from .errors import ConfigError, GapcertError, ParseError
from .flow import (
    bg_splitting,
    shift_point,
    splitting_checks,
    stability_probe,
)
from .limits import (
    discontinuity_probe,
    holder_estimate,
    sdp_check,
    transversality_table,
    xi_upper,
)
from .linalg import Representation, Subspace, grassmann_distance
from .subsets import AxisFamily
from .words import parse_boundary_point, parse_word, periodic_point

PASS = "Pass"
FAIL = "Fail"
ERROR = "Error"
GOOD_VERDICTS = frozenset({CERTIFIED, PASS})


class Report(namedtuple("Report", "version config results summary timings")):
    """A completed run: config echo, per-task results, verdicts, timings."""

    __slots__ = ()

    version: str
    config: dict[str, Any]
    results: dict[str, Any]
    summary: dict[str, str]
    timings: dict[str, float]

    def payload(self) -> dict[str, Any]:
        """The full JSON-ready document, timings included: the blocks as
        the runs built them, of dicts with str keys, lists, str, int,
        float, bool and None."""
        return {
            "version": self.version,
            "config": self.config,
            "results": self.results,
            "summary": self.summary,
            "timings": self.timings,
        }

    def stable_payload(self) -> dict[str, Any]:
        """The deterministic part of the document (timings stripped)."""
        payload = self.payload()
        payload.pop("timings", None)
        return payload

    def to_json(self) -> str:
        # compact, so json's C encoder writes it: indent takes the Python one
        return json.dumps(self.payload(), sort_keys=True)


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

    # lazy, so a run whose tasks read no certificate makes none, and kept,
    # so its tasks read one copy of certify's memo; the limit planes on both
    # sides read this one
    @cache
    def certificate() -> DominationCertificate:
        opts = config.certify_options()
        return certify(rep, spec, config.k, config.budget, opts=opts)

    # each limit plane the tasks read is walked once per process (limits'
    # walk table), as far as its tightest read needs
    for index, name in enumerate(config.tasks):
        started = time.perf_counter()
        runner = _TASK_RUNNERS[name]
        try:
            results[name] = runner(config, rep, spec, index, certificate)
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


def exit_code(report: Report) -> int:
    """0 when every task verdict is Certified/Pass, 1 otherwise."""
    return 0 if report.summary.get("overall") == PASS else 1


def _run_certify(config, rep, spec, index, certificate) -> dict[str, Any]:
    cert = certificate()
    return {
        "verdict": cert.verdict,
        "lambda_hat": cert.lambda_hat,
        "c_hat": cert.c_hat,
        "slope_stderr": cert.slope_stderr,
        "fit_window": list(cert.fit_window),
        "margins": {str(t): m for t, m in sorted(cert.margins.items())},
        "argmins": {str(t): str(w) for t, w in sorted(cert.argmins.items())},
        "counterexample": (
            None if cert.counterexample is None else str(cert.counterexample)
        ),
        "complete": cert.complete,
        "notes": list(cert.notes),
    }


def _run_limit_map(config, rep, spec, index, certificate) -> dict[str, Any]:
    value = xi_upper(
        rep,
        spec,
        config.k,
        config.forward_point(),
        tol=config.tolerances["subspace"],
        n_max=config.sampling["limit_n_max"],
        certificate=certificate(),
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


def _run_transversality(config, rep, spec, index, certificate) -> dict[str, Any]:
    table = transversality_table(
        rep,
        spec,
        config.k,
        config.pair_points(),
        tol=config.tolerances["subspace"],
        n_max=config.sampling["limit_n_max"],
        certificate=certificate(),
    )
    passed = table.minimum > config.tolerances["subspace"]
    return {
        "verdict": PASS if passed else FAIL,
        "pairs": [[str(x), str(y)] for x, y in table.pairs],
        "gaps": list(table.gaps),
        "minimum": table.minimum,
    }


def _run_sdp(config, rep, spec, index, certificate) -> dict[str, Any]:
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
    )
    return {
        "verdict": PASS if curve.passed else FAIL,
        "lengths": list(curve.lengths),
        "distances": list(curve.distances),
        "final": curve.final,
    }


def _run_holder(config, rep, spec, index, certificate) -> dict[str, Any]:
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


def _run_splitting(config, rep, spec, index, certificate) -> dict[str, Any]:
    x = shift_point(spec, config.forward_point(), config.backward_point())
    sample = bg_splitting(
        rep,
        x,
        config.k,
        n_steps=config.sampling["flow_steps"],
        tol=config.tolerances["subspace"],
        certificate=certificate(),
    )
    checks = splitting_checks(
        rep,
        sample,
        certificate=certificate(),
        n_max=config.sampling["limit_n_max"],
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


def _run_stability(config, rep, spec, index, certificate) -> dict[str, Any]:
    seed = config.derived_seed(index)
    table = stability_probe(
        rep,
        spec,
        config.k,
        epsilon=config.sampling["epsilon"],
        trials=config.sampling["trials"],
        budget=config.budget,
        seed=seed,
        opts=config.certify_options(),
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
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write report {path!r}: {exc}") from exc


def load_report(path: str) -> dict[str, Any]:
    """Read back a saved report document: a JSON object whose summary,
    results and timings, where present, are objects."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read report {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"report {path!r} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # ValueError: digit limit too
        raise ParseError(f"report {path!r} is not valid JSON: {exc}") from exc
    blocks = ("summary", "results", "timings")
    if not isinstance(document, dict) or not all(
        isinstance(document.get(block, {}), dict) for block in blocks
    ):
        raise ParseError(f"report {path!r} is not a gapcert report object")
    return document


def format_report(payload: dict[str, Any]) -> str:
    """Human-readable one-screen rendering of a report document; entries
    of an unexpected type are left out."""

    def block(name: str) -> dict:
        value = payload.get(name)
        return value if isinstance(value, dict) else {}

    lines = [f"gapcert report (version {payload.get('version', '?')})"]
    summary = block("summary")
    for name, result in block("results").items():
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
            if isinstance(value, float):
                lines.append(f"    {key} = {value:.12g}")
            elif isinstance(value, int) and not isinstance(value, bool):
                lines.append(f"    {key} = {value}")
        checks = result.get("checks")
        for check in checks if isinstance(checks, list) else ():
            if isinstance(check, dict):
                mark = "ok" if check.get("passed") else "FAIL"
                lines.append(f"    [{mark}] {check.get('name')}")
        if "error" in result:
            lines.append(f"    error: {result['error']}")
    lines.append(f"overall: {summary.get('overall', '?')}")
    seconds = [value for value in block("timings").values() if isinstance(value, float)]
    if seconds:
        lines.append(f"elapsed: {sum(seconds):.3f}s")
    return "\n".join(lines)


def _subspace_rows(subspace: Subspace) -> list[list[float]]:
    return [[float(v) for v in column] for column in subspace.frame.T]

