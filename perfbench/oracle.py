"""Independent correctness checks of a job's reports, in plain numpy.

Nothing here imports gapcert: words are strings over a, A, b, B, products
are left-to-right matrix products without rescaling, margins come from one
SVD, and limit planes come from eigenvectors of the period's image.  There
are no golden margins: verdicts must match the expected ones exactly, and
every reported number is recomputed from the inputs.  Planes are compared
by Grassmann distance, since SVD frames carry a free sign.
"""

from __future__ import annotations

import math

import numpy as np

# Slack of a recomputed margin against a reported one (log units).
MARGIN_TOL = 1e-8
# Largest Grassmann distance between a reported plane and the oracle's.
PLANE_TOL = 1e-6
# Words sampled per length when checking that no word beats the argmin.
SAMPLE_PER_LENGTH = 64


def letter_images(generators: list) -> dict[str, np.ndarray]:
    out = {}
    for i, g in enumerate(generators):
        m = np.array(g, dtype=float)
        out["abcdefghijklmnopqrstuvwxyz"[i]] = m
        out["ABCDEFGHIJKLMNOPQRSTUVWXYZ"[i]] = np.linalg.inv(m)
    return out


def product(images: dict[str, np.ndarray], word: str) -> np.ndarray:
    dim = next(iter(images.values())).shape[0]
    out = np.eye(dim)
    for ch in word:
        out = out @ images[ch]
    return out


def margin(matrix: np.ndarray, k: int) -> float:
    s = np.linalg.svd(matrix, compute_uv=False)
    return float(math.log(s[k - 1]) - math.log(s[k]))


def is_reduced(word: str) -> bool:
    return all(u != v.swapcase() for u, v in zip(word, word[1:]))


def random_reduced_word(rng: np.random.Generator, letters: str, length: int) -> str:
    word = ""
    while len(word) < length:
        ch = letters[int(rng.integers(0, len(letters)))]
        if not word or ch != word[-1].swapcase():
            word += ch
    return word


def top_eigenspace(matrix: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal frame of the k largest-modulus (real) eigenvectors."""
    vals, vecs = np.linalg.eig(matrix)
    order = np.argsort(-np.abs(vals))
    top = vecs[:, order[:k]]
    if np.max(np.abs(top.imag)) > 1e-9:
        raise ValueError("top eigenvectors are not real")
    q, _ = np.linalg.qr(top.real)
    return q


def limit_plane(images: dict[str, np.ndarray], point: str, k: int) -> np.ndarray:
    """Limit k-plane at pre.(per)^inf: the image under pre of the attracting
    k-plane of per."""
    pre, _, per = point.rpartition("|")
    q, _ = np.linalg.qr(product(images, pre) @ top_eigenspace(product(images, per.strip("()")), k))
    return q


def plane_distance(f: np.ndarray, g: np.ndarray) -> float:
    """Sine of the largest principal angle, as the norm of the projector
    difference."""

    def projector(frame):
        q, _ = np.linalg.qr(np.asarray(frame, dtype=float))
        return q @ q.T

    return float(np.linalg.norm(projector(f) - projector(g), 2))


def check_certify(doc: dict, report: dict, seed: int) -> list[str]:
    """Certified; each argmin recomputes to its margin; no sampled word of
    the same length lies below it."""
    problems = []
    result = report["results"]["certify"]
    if result["verdict"] != "Certified":
        return [f"certify verdict {result['verdict']}, expected Certified"]
    images = letter_images(doc["generators"])
    letters = "".join(sorted(images, key=lambda ch: (ch.lower(), ch.isupper())))
    k, budget = doc["k"], doc["budget"]
    if sorted(int(t) for t in result["margins"]) != list(range(1, budget + 1)):
        problems.append(f"margin table lengths {sorted(result['margins'])}")
        return problems
    rng = np.random.default_rng((seed, 1))
    for t in range(1, budget + 1):
        reported = result["margins"][str(t)]
        word = result["argmins"][str(t)]
        if len(word) != t or not is_reduced(word) or set(word) - set(letters):
            problems.append(f"argmin {word!r} is not a reduced word of length {t}")
            continue
        recomputed = margin(product(images, word), k)
        if abs(recomputed - reported) > MARGIN_TOL:
            problems.append(
                f"length {t}: argmin {word} margin {reported!r}, oracle {recomputed!r}"
            )
        for _ in range(SAMPLE_PER_LENGTH):
            other = random_reduced_word(rng, letters, t)
            m = margin(product(images, other), k)
            if m < reported - MARGIN_TOL:
                problems.append(
                    f"length {t}: {other} has margin {m!r} below the reported "
                    f"minimum {reported!r}"
                )
                break
    return problems


def check_stability(doc: dict, report: dict, seed: int) -> list[str]:
    """Every trial verdict is Certified."""
    result = report["results"]["stability"]
    trials = doc["sampling"]["trials"]
    expected = ["Certified"] * trials
    if result["verdicts"] != expected or result["trials"] != trials:
        return [f"stability verdicts {result['verdicts']}, expected {trials} x Certified"]
    if not result["worst_lambda_hat"] > 0.0:
        return [f"worst lambda_hat {result['worst_lambda_hat']} is not positive"]
    return []


def check_point(doc: dict, report: dict, seed: int) -> list[str]:
    """Limit plane, transversality gap and splitting at one shift point
    against the eigenvector oracle."""
    images = letter_images(doc["generators"])
    k, dim = doc["k"], doc["dim"]
    forward = limit_plane(images, doc["points"]["forward"], k)
    backward = limit_plane(images, doc["points"]["backward"], dim - k)
    results = report["results"]
    frames = {
        "limit-map": (results["limit-map"]["basis_rows"], forward),
        "splitting stable": (results["splitting"]["stable_rows"], forward),
        "splitting unstable": (results["splitting"]["unstable_rows"], backward),
    }
    problems = []
    for name, (rows, oracle) in frames.items():
        distance = plane_distance(np.array(rows).T, oracle)
        if distance > PLANE_TOL:
            problems.append(f"{name} plane is {distance:.2e} from the oracle")
    gap = float(np.linalg.svd(np.hstack([forward, backward]), compute_uv=False)[-1])
    reported_gap = results["transversality"]["gaps"][0]
    if abs(gap - reported_gap) > PLANE_TOL:
        problems.append(f"transversality gap {reported_gap!r}, oracle {gap!r}")
    return problems


def check_holder(doc: dict, report: dict, seed: int) -> list[str]:
    result = report["results"]["holder"]
    if result["pairs_used"] != doc["sampling"]["holder_pairs"]:
        return [f"holder used {result['pairs_used']} pairs"]
    return []


CHECKS = {
    "certify": check_certify,
    "stability": check_stability,
    "limit-map": check_point,
    "holder": check_holder,
}


def check_job(docs: list[dict], reports: list[dict], seed: int) -> list[str]:
    """All problems found in one job's reports; empty when correct.

    Every task verdict must be Certified or Pass before the task's own
    oracle runs.
    """
    problems = []
    for index, (doc, report) in enumerate(zip(docs, reports)):
        summary = report["summary"]
        bad = {name: v for name, v in summary.items() if v not in ("Certified", "Pass")}
        if bad or set(summary) != set(doc["tasks"]) | {"overall"}:
            problems.append(f"config {index}: verdicts {summary}")
            continue
        check = CHECKS[doc["tasks"][0]]
        problems.extend(f"config {index}: {p}" for p in check(doc, report, seed))
    return problems
