"""gapcert.pcg64.Stream against numpy's default_rng, its oracle."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gapcert
from gapcert.pcg64 import Stream

ENTROPIES = [0, 7, 2**32 - 1, 2**32, 2**70 + 5, (42000, 3), (0, 0), (2**70 + 5, 19)]


@pytest.mark.parametrize("epsilon", [0.0, 1e-3, 0.2])
@pytest.mark.parametrize("entropy", ENTROPIES)
def test_uniform_is_numpy_uniform(entropy, epsilon):
    # the blocks of d = 2 and d = 3 trials, in turn from one stream; at
    # epsilon = 0 the signs of the zeros count too
    rng, stream = np.random.default_rng(entropy), Stream(entropy)
    for d in (2, 3, 3, 2):
        want = rng.uniform(-epsilon, epsilon, (d, d))
        got = stream.uniform(-epsilon, epsilon, d * d).reshape(d, d)
        assert np.array_equal(got, want), (d, got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [1, 3, 472, 2**31 - 1, 2**31 + 11, 2**32 - 1, 2**32])
@pytest.mark.parametrize("entropy", [0, 1, 2**32, 2**70 + 5, (5, 2)])
def test_integers_are_numpy_integers_across_blocks(entropy, n):
    # blocks of 100, 1 and 200 pairs, then odd counts: the buffered
    # half-word crosses calls (2**31 + 11 rejects about half its draws)
    rng, stream = np.random.default_rng(entropy), Stream(entropy)
    for count in (200, 2, 400, 3, 1, 11):
        want = rng.integers(0, n, size=count)
        got = stream.integers(n, count)
        assert got.dtype == want.dtype and np.array_equal(got, want), count
    # the next 64-bit word is numpy's too
    assert np.array_equal(stream.uniform(0.0, 1.0, 3), rng.uniform(0.0, 1.0, 3))


@pytest.mark.parametrize("n", [0, 2**32 + 1, 2**40])
def test_integers_off_the_32_bit_path_raise(n):
    # numpy draws a range past 2**32 by its 64-bit path, which Stream lacks
    with pytest.raises(ValueError):
        Stream(3).integers(n, 4)


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, 1e308])
def test_a_draw_width_past_the_doubles_overflows_as_in_numpy(epsilon):
    with pytest.raises(OverflowError):
        np.random.default_rng(0).uniform(-epsilon, epsilon, 4)
    with pytest.raises(OverflowError):
        Stream(0).uniform(-epsilon, epsilon, 4)


def test_negative_entropy_is_refused_as_in_numpy():
    for entropy in (-1, (3, -2)):
        with pytest.raises(ValueError):
            np.random.default_rng(entropy)
        with pytest.raises(ValueError):
            Stream(entropy)


def test_stability_and_holder_runs_leave_numpy_random_unloaded(tmp_path):
    # a child process, as this one has imported numpy.random for the oracle
    config = {
        "rank": 2,
        "dim": 2,
        "generators": [[[5.0, 0.0], [0.0, 0.2]], [[2.6, 2.4], [2.4, 2.6]]],
        "subset": {"type": "directed", "steps": ["a", "b"]},
        "k": 1,
        "budget": 6,
        "seed": 1,
        "sampling": {"trials": 3, "holder_pairs": 60, "max_period": 5},
    }
    path = tmp_path / "draws.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    script = (
        "import json, sys\n"
        "from gapcert.cli import main\n"
        "code = main([sys.argv[1], '--config', sys.argv[2], '--quiet'])\n"
        "print(json.dumps([code, [m for m in sys.modules if 'numpy.random' in m]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gapcert.__file__).parents[1]))
    for task in ("stability", "holder"):
        done = subprocess.run(
            [sys.executable, "-c", script, task, str(path)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert json.loads(done.stdout.splitlines()[-1]) == [0, []], (task, done.stderr)
