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
import math
from collections import namedtuple
from functools import lru_cache
from typing import Any, Optional

import numpy as np

from .domination import CertifyOptions
from .errors import GapcertError, ParseError, ValidationError
from .limits import DEFAULT_N_MAX
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
    "subspace": 1e-8,
    "lambda_min": CertifyOptions().lambda_min,
}

DEFAULT_SAMPLING = {
    "max_period": 6,
    "holder_pairs": 200,
    "kappa": 1.0,
    "b": 0,
    "sdp_points": 30,
    "limit_n_max": DEFAULT_N_MAX,
    "trials": 20,
    "epsilon": 1e-3,
}

# Sampling knobs that a task divides by or needs at least one of.
POSITIVE_SAMPLING = ("sdp_points", "trials", "kappa")

# A process parses each point string once, and keeps one Representation per
# generator content and one seed plane per row content, keyed by the arrays'
# bytes (so 0.0 and -0.0 differ).
_parsed_point = lru_cache(maxsize=128)(parse_boundary_point)


@lru_cache(maxsize=8)
def _representation(shape: tuple[int, ...], images: bytes) -> Representation:
    return Representation.of(list(np.frombuffer(images).reshape(shape)))


# as many as point strings: `gapcert sweep` loads every config, each with its
# own seed plane, before it runs one
@lru_cache(maxsize=128)
def _seed_plane(shape: tuple[int, ...], rows: bytes) -> Subspace:
    return Subspace.from_spanning(np.frombuffer(rows).reshape(shape).T)


# Which optional point fields each task needs before it can run.
TASK_REQUIREMENTS = {
    "limit-map": ("forward",),
    "transversality": (),
    "sdp": ("forward", "backward", "seed_plane"),
    "splitting": ("forward", "backward"),
}


class RunConfig(
    namedtuple(
        "RunConfig",
        "rank dim generators subset k budget seed tasks tolerances sampling points",
    )
):
    """A validated run configuration with defaults filled in."""

    __slots__ = ()

    rank: int
    dim: int
    generators: tuple[tuple[tuple[float, ...], ...], ...]
    subset: dict[str, Any]
    k: int
    budget: int
    seed: int
    tasks: tuple[str, ...]
    tolerances: dict[str, float]
    sampling: dict[str, Any]
    points: dict[str, Any]

    def representation(self) -> Representation:
        images = np.array(self.generators, dtype=float)
        return _representation(images.shape, images.tobytes())

    def subset_spec(self) -> SubsetPSpec:
        return _build_subset(self.subset, self.rank)

    def certify_options(self) -> CertifyOptions:
        return CertifyOptions(lambda_min=self.tolerances["lambda_min"])

    def forward_point(self) -> BoundaryPoint:
        return _parsed_point(self.points["forward"])

    def backward_point(self) -> BoundaryPoint:
        return _parsed_point(self.points["backward"])

    def pair_points(self) -> list[tuple[BoundaryPoint, BoundaryPoint]]:
        """Configured transversality pairs; defaults to the single
        (forward, backward) pair when none are listed."""
        raw = self.points.get("pairs")
        if raw is None:
            return [(self.forward_point(), self.backward_point())]
        return [(_parsed_point(x), _parsed_point(y)) for x, y in raw]

    def seed_plane(self) -> Subspace:
        rows = np.array(self.points["seed_plane"], dtype=float)
        return _seed_plane(rows.shape, rows.tobytes())

    def derived_seed(self, task_index: int) -> int:
        """Per-task seed: replayable from the config seed and task order."""
        return int(self.seed) * 1000 + task_index

    def echo(self) -> dict[str, Any]:
        """The effective configuration as a JSON-ready document, which
        shares no dict or list with the config: a report holds it as it
        is."""
        return {
            "rank": self.rank,
            "dim": self.dim,
            "generators": _lists(self.generators),
            "subset": {key: _lists(value) for key, value in self.subset.items()},
            "k": self.k,
            "budget": self.budget,
            "seed": self.seed,
            "tasks": list(self.tasks),
            "tolerances": dict(self.tolerances),
            "sampling": dict(self.sampling),
            "points": {key: _lists(value) for key, value in self.points.items()},
        }

    def with_overrides(
        self, seed: Optional[int] = None, tasks: Optional[tuple[str, ...]] = None
    ) -> "RunConfig":
        changes: dict[str, Any] = {}
        if seed is not None:
            changes["seed"] = _require_seed(seed)
        if tasks is not None:
            changes["tasks"] = _validate_tasks(list(tasks))
        return self._replace(**changes)

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


def _lists(value: Any) -> Any:
    """value with each list or tuple in it, nested ones too, copied into a
    fresh list."""
    if isinstance(value, (list, tuple)):
        return [_lists(item) for item in value]
    return value


def load_config(path: str) -> RunConfig:
    """Read, parse and validate a configuration document from disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read configuration {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"configuration {path!r} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: digit limit too
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
    for key in POSITIVE_SAMPLING:
        if sampling[key] <= 0:
            raise ValidationError(
                f"sampling.{key}", f"must be > 0, got {sampling[key]}"
            )
    epsilon = sampling["epsilon"]
    if math.isinf(2.0 * epsilon):  # the width of the trials' draws
        raise ValidationError(
            "sampling.epsilon", f"2 * epsilon must be finite, got {epsilon!r}"
        )
    points = _validate_points(data.get("points", {}), rank, dim)

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
        matrix = _number_rows(entry, f"generators[{i}]")
        if matrix.shape != (dim, dim):
            raise ValidationError(
                f"generators[{i}]",
                f"expected a {dim}x{dim} matrix, got shape {matrix.shape}",
            )
        if not np.all(np.isfinite(matrix)):
            raise ValidationError(f"generators[{i}]", "entries must be finite")
        matrices.append(tuple(tuple(float(v) for v in row) for row in matrix))
    return tuple(matrices)


def _number_rows(raw: Any, name: str) -> np.ndarray:
    """raw as a float array, once it is a list of rows of JSON numbers
    (booleans and numeric strings are not numbers); its shape is the
    caller's to check."""
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ValidationError(name, f"expected a list of rows, got {_describe(raw)}")
    for row in raw:
        for value in row:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationError(name, f"expected a number, got {value!r}")
    try:
        return np.array(raw, dtype=float)
    except (OverflowError, ValueError) as exc:
        raise ValidationError(name, f"not numeric: {exc}") from exc


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
        period = raw.get("max_period")
        if isinstance(period, bool) or not isinstance(period, int) or period < 1:
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
    # building the subset checks its own invariants (letter indices in
    # range, cyclic reducibility, ...) so bad values fail at load time
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
        name = f"{block}.{key}"
        if key not in defaults:
            raise ValidationError(name, "unknown field")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(name, f"expected a number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(name, f"expected a finite number, got {value!r}")
        if value < 0:
            raise ValidationError(name, f"must be >= 0, got {value}")
        if isinstance(defaults[key], int):
            if value != int(value):
                raise ValidationError(name, f"expected an integer, got {value!r}")
            merged[key] = int(value)
        else:
            try:
                merged[key] = float(value)
            except OverflowError as exc:
                raise ValidationError(name, f"out of range: {exc}") from exc
    return merged


def _check_point(text: Any, name: str, rank: int) -> None:
    """Parse a boundary point string and check its letters against rank."""
    if not isinstance(text, str):
        raise ValidationError(name, "expected a boundary point string")
    try:
        x = _parsed_point(text)
    except (GapcertError, ValueError) as exc:
        raise ValidationError(name, str(exc)) from exc
    if x.max_index() > rank:
        raise ValidationError(name, f"point {text!r} has a letter past rank {rank}")


def _validate_points(raw: Any, rank: int, dim: int) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise ValidationError("points", "expected an object")
    allowed = {"forward", "backward", "pairs", "seed_plane"}
    for key in raw:
        if key not in allowed:
            raise ValidationError(f"points.{key}", "unknown field")
    out: dict[str, Any] = {}
    for key in ("forward", "backward"):
        if key in raw:
            _check_point(raw[key], f"points.{key}", rank)
            out[key] = raw[key]
    if "pairs" in raw:
        if not isinstance(raw["pairs"], list) or not raw["pairs"]:
            raise ValidationError(
                "points.pairs", "expected a nonempty list of point pairs"
            )
        for i, entry in enumerate(raw["pairs"]):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValidationError(
                    f"points.pairs[{i}]", "expected a [forward, backward] string pair"
                )
            for s in entry:
                _check_point(s, f"points.pairs[{i}]", rank)
        out["pairs"] = [list(entry) for entry in raw["pairs"]]
    if "seed_plane" in raw:
        rows = _number_rows(raw["seed_plane"], "points.seed_plane")
        if rows.ndim != 2 or rows.shape[1] != dim or rows.shape[0] < 1:
            raise ValidationError(
                "points.seed_plane",
                f"expected spanning vectors as rows of length {dim}, "
                f"got shape {rows.shape}",
            )
        try:
            _seed_plane(rows.shape, rows.tobytes())
        except GapcertError as exc:
            raise ValidationError(
                "points.seed_plane", f"rows must be linearly independent: {exc}"
            ) from exc
        out["seed_plane"] = [list(map(float, row)) for row in rows]
    return out


def _describe(value: Any) -> str:
    if isinstance(value, list):
        return f"a list of length {len(value)}"
    return repr(value)
