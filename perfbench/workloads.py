"""Seeded inputs of the benchmark workloads.

Each workload is a list of gapcert configuration documents, built only from
the workload name, the seed and a size ("full" for measuring, "smoke" for the
benchmark's own tests).  The program under test sees nothing but these
documents.  Matrices are plain nested lists so the oracle can rebuild them
without gapcert.
"""

from __future__ import annotations

import math

import numpy as np

SIZES = {
    "full": {
        "certify-full": {"budget": 9},
        "stability-directed": {"budget": 10, "trials": 20},
        "limits-flow": {"budget": 6, "points": 45, "holder_pairs": 400, "max_period": 8},
    },
    "smoke": {
        "certify-full": {"budget": 5},
        "stability-directed": {"budget": 6, "trials": 2},
        "limits-flow": {"budget": 6, "points": 3, "holder_pairs": 40, "max_period": 5},
    },
}

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "certify-full": "one large certification: positive-set enumeration, word products and SVD margins dominate",
    "stability-directed": "21 small d=2 certifications of one word set: per-call overhead and repeated enumeration dominate",
    "limits-flow": "many limit-map, splitting and Hoelder configs: sequential prefix products and the cocycle dominate",
}


def schottky_pair() -> list[list[list[float]]]:
    """The two-generator Schottky pair of the acceptance tests: a stretch and
    its 45-degree rotation.  Both matrices are symmetric."""
    c = math.cos(math.pi / 4)
    rot = np.array([[c, -c], [c, c]])
    stretch = np.diag([5.0, 0.2])
    return [stretch.tolist(), (rot @ stretch @ rot.T).tolist()]


def _small_rotation(rng: np.random.Generator, angle: float) -> np.ndarray:
    """Rotation of R^3 by `angle` about a seeded random axis (Rodrigues)."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    k = np.array(
        [[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def pingpong_triple(seed: int) -> list[list[list[float]]]:
    """Two seeded generators of GL(3) that play ping-pong for k=1.

    Each is Q diag(lam, 1, 1/mu) R Q^T with lam != mu (so a word and its
    inverse have different spectra) and R a small rotation (so the matrix is
    not symmetric and a word and its reverse differ).  The frames of a and b
    sit 45 degrees apart in the (e1, e3)-plane, which keeps every attracting
    direction away from every repelling plane; the seeded tilts keep the
    argmin words from being decided by rounding.
    """
    rng = np.random.default_rng(seed)
    half = 1.0 / math.sqrt(2.0)
    frames = (np.eye(3), np.array([[half, 0, half], [0, 1, 0], [half, 0, -half]]))
    out = []
    for frame in frames:
        q = _small_rotation(rng, 0.15) @ frame
        lam = rng.uniform(6.0, 8.0)
        mu = rng.uniform(3.5, 5.0)
        g = q @ np.diag([lam, 1.0, 1.0 / mu]) @ _small_rotation(rng, 0.2) @ q.T
        out.append(g.tolist())
    return out


def _directed_point(rng: np.random.Generator, letters: str) -> str:
    """A random eventually periodic point spelled in two letters."""
    pre = "".join(letters[int(rng.integers(0, 2))] for _ in range(int(rng.integers(0, 4))))
    per = "".join(letters[int(rng.integers(0, 2))] for _ in range(int(rng.integers(1, 4))))
    return f"{pre}|({per})" if pre else f"({per})"


def build(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The configuration documents of one job of `workload`."""
    params = SIZES[size][workload]
    if workload == "certify-full":
        return [
            {
                "rank": 2,
                "dim": 3,
                "generators": pingpong_triple(seed),
                "subset": {"type": "full"},
                "k": 1,
                "budget": params["budget"],
                "seed": seed,
                "tasks": ["certify"],
            }
        ]
    base = {
        "rank": 2,
        "dim": 2,
        "generators": schottky_pair(),
        "subset": {"type": "directed", "steps": ["a", "b"]},
        "k": 1,
        "budget": params["budget"],
        "seed": seed,
    }
    if workload == "stability-directed":
        return [
            dict(
                base,
                tasks=["stability"],
                sampling={"trials": params["trials"], "epsilon": 1e-3},
            )
        ]
    if workload == "limits-flow":
        rng = np.random.default_rng(seed)
        seen: set[tuple[str, str]] = set()
        docs = []
        while len(docs) < params["points"]:
            forward = _directed_point(rng, "ab")
            backward = _directed_point(rng, "AB")
            angle = rng.uniform(0.0, math.pi)
            key = (forward, backward)
            if key in seen:
                continue
            seen.add(key)
            docs.append(
                dict(
                    base,
                    tasks=["limit-map", "transversality", "sdp", "splitting"],
                    points={
                        "forward": forward,
                        "backward": backward,
                        "seed_plane": [[math.cos(angle), math.sin(angle)]],
                    },
                )
            )
        docs.append(
            dict(
                base,
                tasks=["holder"],
                sampling={
                    "holder_pairs": params["holder_pairs"],
                    "max_period": params["max_period"],
                },
            )
        )
        return docs
    raise ValueError(f"unknown workload {workload!r}")
