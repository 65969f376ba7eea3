"""Run configuration: JSON ingestion, validation, defaults, echoing.

A run configuration names the representation (generator matrices), the
subset of boundary pairs, the gap index and enumeration budget, tolerance
and sampling knobs, the required seed, and the ordered task list.  Every
field is validated with a precise field path so a bad document fails
loudly before any numerics start; defaults are filled in and echoed so a
saved report always records the exact effective configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

from .domination import CertifyOptions
from .errors import GapcertError, ParseError, ValidationError
from .linalg import Representation, Subspace
from .subsets import AxisFamily, Directed, FullBoundary, Primitive, SubsetPSpec
from .words import BoundaryPoint, parse_boundary_point, parse_letter, parse_word

TASK_NAMES = (
    "certify",
    "limit-map",
    "transversality",
    "sdp",
    "holder",
    "splitting",
    "stability",
)

DEFAULT_TOLERANCES = {
    "gap": 1e-12,
    "subspace": 1e-8,
    "fit": 1e-9,
    "lambda_min": 0.02,
    "eps_res": 1e-6,
}

DEFAULT_SAMPLING = {
    "max_period": 6,
    "holder_pairs": 200,
    "kappa": 1.0,
    "b": 0,
    "sdp_points": 30,
    "flow_steps": 80,
    "limit_n_max": 400,
    "trials": 20,
    "epsilon": 1e-3,
}

# Which optional point fields each task needs before it can run.
TASK_REQUIREMENTS = {
    "limit-map": ("forward",),
    "transversality": (),
    "sdp": ("forward", "backward", "seed_plane"),
    "splitting": ("forward", "backward"),
}


@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration with defaults filled in."""

    rank: int
    dim: int
    generators: tuple[tuple[tuple[float, ...], ...], ...]
    subset: dict[str, Any]
    k: int
    budget: int
    seed: int
    tasks: tuple[str, ...]
    tolerances: dict[str, float] = field(default_factory=dict)
    sampling: dict[str, Any] = field(default_factory=dict)
    points: dict[str, Any] = field(default_factory=dict)

    def representation(self) -> Representation:
        return Representation.of([np.array(g, dtype=float) for g in self.generators])

    def subset_spec(self) -> SubsetPSpec:
        return _build_subset(self.subset, self.rank)

    def certify_options(self) -> CertifyOptions:
        return CertifyOptions(
            lambda_min=self.tolerances["lambda_min"],
            eps_res=self.tolerances["eps_res"],
        )

    def forward_point(self) -> BoundaryPoint:
        return parse_boundary_point(self.points["forward"])

    def backward_point(self) -> BoundaryPoint:
        return parse_boundary_point(self.points["backward"])

    def pair_points(self) -> list[tuple[BoundaryPoint, BoundaryPoint]]:
        """Configured transversality pairs; defaults to the single
        (forward, backward) pair when none are listed."""
        raw = self.points.get("pairs")
        if raw is None:
            return [(self.forward_point(), self.backward_point())]
        return [
            (parse_boundary_point(x), parse_boundary_point(y)) for x, y in raw
        ]

    def seed_plane(self) -> Subspace:
        rows = np.array(self.points["seed_plane"], dtype=float)
        return Subspace.from_spanning(rows.T)

    def derived_seed(self, task_index: int) -> int:
        """Per-task seed: replayable from the config seed and task order."""
        return int(self.seed) * 1000 + task_index

    def echo(self) -> dict[str, Any]:
        """The effective configuration as a JSON-ready document."""
        return {
            "rank": self.rank,
            "dim": self.dim,
            "generators": [
                [list(row) for row in matrix] for matrix in self.generators
            ],
            "subset": dict(self.subset),
            "k": self.k,
            "budget": self.budget,
            "seed": self.seed,
            "tasks": list(self.tasks),
            "tolerances": dict(self.tolerances),
            "sampling": dict(self.sampling),
            "points": dict(self.points),
        }

    def with_overrides(
        self, seed: Optional[int] = None, tasks: Optional[tuple[str, ...]] = None
    ) -> "RunConfig":
        out = self
        if seed is not None:
            out = replace(out, seed=_require_seed(seed))
        if tasks is not None:
            for i, name in enumerate(tasks):
                if name not in TASK_NAMES:
                    raise ValidationError(
                        f"tasks[{i}]", f"unknown task {name!r}; "
                        f"expected one of {', '.join(TASK_NAMES)}"
                    )
            out = replace(out, tasks=tuple(tasks))
        return out

    def require_for_tasks(self) -> None:
        """Check that every configured task has the point data it needs."""
        for name in self.tasks:
            for key in TASK_REQUIREMENTS.get(name, ()):
                if key not in self.points:
                    raise ValidationError(
                        f"points.{key}", f"required by task {name!r}"
                    )
            if name == "transversality" and "pairs" not in self.points:
                for key in ("forward", "backward"):
                    if key not in self.points:
                        raise ValidationError(
                            f"points.{key}",
                            "required by task 'transversality' when no "
                            "pairs are listed",
                        )


def load_config(path: str) -> RunConfig:
    """Read, parse and validate a configuration document from disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read configuration {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"configuration {path!r} is not valid JSON: {exc}") from exc
    return parse_config(data)


def parse_config(data: Any) -> RunConfig:
    """Validate a parsed configuration document and fill defaults."""
    if not isinstance(data, dict):
        raise ValidationError("(document)", "expected a JSON object")
    known = {
        "rank",
        "dim",
        "generators",
        "subset",
        "k",
        "budget",
        "seed",
        "tasks",
        "tolerances",
        "sampling",
        "points",
    }
    for key in data:
        if key not in known:
            raise ValidationError(key, "unknown field")

    rank = _require_int(data, "rank", minimum=1)
    dim = _require_int(data, "dim", minimum=2)
    generators = _validate_generators(data, rank, dim)
    subset = _validate_subset(data, rank)
    k = _require_int(data, "k", minimum=1)
    if k >= dim:
        raise ValidationError("k", f"gap index must satisfy 1 <= k < {dim}, got {k}")
    budget = _require_int(data, "budget", minimum=2)
    if "seed" not in data:
        raise ValidationError("seed", "required for reproducibility")
    seed = _require_seed(data["seed"])
    tasks = _validate_tasks(data.get("tasks", ["certify"]))
    tolerances = _validate_numeric_block(
        data.get("tolerances", {}), "tolerances", DEFAULT_TOLERANCES
    )
    sampling = _validate_numeric_block(
        data.get("sampling", {}), "sampling", DEFAULT_SAMPLING
    )
    points = _validate_points(data.get("points", {}), dim)

    config = RunConfig(
        rank=rank,
        dim=dim,
        generators=generators,
        subset=subset,
        k=k,
        budget=budget,
        seed=seed,
        tasks=tasks,
        tolerances=tolerances,
        sampling=sampling,
        points=points,
    )
    # building the subset exercises its own invariants (letter indices in
    # range, cyclic reducibility, ...) so bad values fail at load time
    config.subset_spec()
    try:
        config.representation()
    except ValueError as exc:  # singular or too ill-conditioned to invert
        raise ValidationError("generators", str(exc)) from exc
    return config


def _require_int(data: dict, name: str, minimum: int) -> int:
    if name not in data:
        raise ValidationError(name, "missing required field")
    value = data[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(name, f"expected an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(name, f"must be >= {minimum}, got {value}")
    return value


def _require_seed(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValidationError("seed", f"expected a nonnegative integer, got {value!r}")
    return value


def _validate_generators(
    data: dict, rank: int, dim: int
) -> tuple[tuple[tuple[float, ...], ...], ...]:
    if "generators" not in data:
        raise ValidationError("generators", "missing required field")
    raw = data["generators"]
    if not isinstance(raw, list) or len(raw) != rank:
        raise ValidationError(
            "generators", f"expected {rank} matrices, got {_describe(raw)}"
        )
    matrices = []
    for i, entry in enumerate(raw):
        try:
            matrix = np.array(entry, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"generators[{i}]", f"not numeric: {exc}") from exc
        if matrix.shape != (dim, dim):
            raise ValidationError(
                f"generators[{i}]",
                f"expected a {dim}x{dim} matrix, got shape {matrix.shape}",
            )
        if not np.all(np.isfinite(matrix)):
            raise ValidationError(f"generators[{i}]", "entries must be finite")
        matrices.append(tuple(tuple(float(v) for v in row) for row in matrix))
    return tuple(matrices)


def _validate_subset(data: dict, rank: int) -> dict[str, Any]:
    if "subset" not in data:
        raise ValidationError("subset", "missing required field")
    raw = data["subset"]
    if not isinstance(raw, dict) or "type" not in raw:
        raise ValidationError("subset.type", "missing subset type")
    kind = raw["type"]
    if kind == "full":
        allowed = {"type"}
    elif kind == "directed":
        allowed = {"type", "steps"}
        if not isinstance(raw.get("steps"), list) or not raw["steps"]:
            raise ValidationError("subset.steps", "expected a nonempty letter list")
    elif kind == "axis":
        allowed = {"type", "words"}
        if not isinstance(raw.get("words"), list) or not raw["words"]:
            raise ValidationError("subset.words", "expected a nonempty word list")
    elif kind == "primitive":
        allowed = {"type", "max_period"}
        if not isinstance(raw.get("max_period"), int) or raw["max_period"] < 1:
            raise ValidationError("subset.max_period", "expected a positive integer")
    else:
        raise ValidationError(
            "subset.type",
            f"unknown subset type {kind!r}; expected full, directed, axis "
            "or primitive",
        )
    for key in raw:
        if key not in allowed:
            raise ValidationError(f"subset.{key}", "unknown field")
    _build_subset(raw, rank)
    return dict(raw)


def _build_subset(raw: dict[str, Any], rank: int) -> SubsetPSpec:
    kind = raw["type"]
    try:
        if kind == "full":
            return FullBoundary(rank)
        if kind == "directed":
            return Directed(
                rank, frozenset(parse_letter(s) for s in raw["steps"])
            )
        if kind == "axis":
            return AxisFamily(rank, tuple(parse_word(w) for w in raw["words"]))
        return Primitive(rank, raw["max_period"])
    except (GapcertError, ValueError) as exc:
        raise ValidationError(f"subset({kind})", str(exc)) from exc


def _validate_tasks(raw: Any) -> tuple[str, ...]:
    if not isinstance(raw, list) or not raw:
        raise ValidationError("tasks", "expected a nonempty list of task names")
    for i, name in enumerate(raw):
        if name not in TASK_NAMES:
            raise ValidationError(
                f"tasks[{i}]",
                f"unknown task {name!r}; expected one of {', '.join(TASK_NAMES)}",
            )
    return tuple(raw)


def _validate_numeric_block(
    raw: Any, block: str, defaults: dict[str, Any]
) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise ValidationError(block, "expected an object")
    merged = dict(defaults)
    for key, value in raw.items():
        if key not in defaults:
            raise ValidationError(f"{block}.{key}", "unknown field")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{block}.{key}", f"expected a number, got {value!r}")
        if value < 0:
            raise ValidationError(f"{block}.{key}", f"must be >= 0, got {value}")
        default = defaults[key]
        merged[key] = int(value) if isinstance(default, int) else float(value)
    return merged


def _validate_points(raw: Any, dim: int) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise ValidationError("points", "expected an object")
    allowed = {"forward", "backward", "pairs", "seed_plane"}
    for key in raw:
        if key not in allowed:
            raise ValidationError(f"points.{key}", "unknown field")
    out: dict[str, Any] = {}
    for key in ("forward", "backward"):
        if key in raw:
            if not isinstance(raw[key], str):
                raise ValidationError(f"points.{key}", "expected a boundary point string")
            try:
                parse_boundary_point(raw[key])
            except (GapcertError, ValueError) as exc:
                raise ValidationError(f"points.{key}", str(exc)) from exc
            out[key] = raw[key]
    if "pairs" in raw:
        if not isinstance(raw["pairs"], list):
            raise ValidationError("points.pairs", "expected a list of point pairs")
        for i, entry in enumerate(raw["pairs"]):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(s, str) for s in entry)
            ):
                raise ValidationError(
                    f"points.pairs[{i}]", "expected a [forward, backward] string pair"
                )
            for s in entry:
                try:
                    parse_boundary_point(s)
                except (GapcertError, ValueError) as exc:
                    raise ValidationError(f"points.pairs[{i}]", str(exc)) from exc
        out["pairs"] = [list(entry) for entry in raw["pairs"]]
    if "seed_plane" in raw:
        try:
            rows = np.array(raw["seed_plane"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError("points.seed_plane", f"not numeric: {exc}") from exc
        if rows.ndim != 2 or rows.shape[1] != dim or rows.shape[0] < 1:
            raise ValidationError(
                "points.seed_plane",
                f"expected spanning vectors as rows of length {dim}, "
                f"got shape {rows.shape}",
            )
        out["seed_plane"] = [list(map(float, row)) for row in rows]
    return out


def _describe(value: Any) -> str:
    if isinstance(value, list):
        return f"a list of length {len(value)}"
    return repr(value)
