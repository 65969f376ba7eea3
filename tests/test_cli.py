"""Configuration loading, run orchestration, exit codes, and CLI plumbing."""

import copy
import json
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gapcert import cli, domination, limits
from gapcert.cli import main
from gapcert.config import (
    DEFAULT_SAMPLING,
    DEFAULT_TOLERANCES,
    TASK_NAMES,
    RunConfig,
    load_config,
    parse_config,
)
from gapcert import config as config_module
from gapcert import report as report_module
from gapcert.domination import certify
from gapcert.errors import ConfigError, ParseError, ValidationError
from gapcert.flow import shift, shift_point
from gapcert.linalg import ScaledMatrix, Subspace
from gapcert.report import (
    exit_code,
    format_report,
    load_report,
    reproduce_paper,
    run,
)
from gapcert.words import parse_boundary_point

LOG8 = math.log(8.0)


def z_config(**overrides):
    data = {
        "rank": 1,
        "dim": 3,
        "generators": [[[4.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]],
        "subset": {"type": "axis", "words": ["a"]},
        "k": 1,
        "budget": 20,
        "seed": 7,
        "points": {"forward": "(a)", "backward": "(A)"},
    }
    data.update(overrides)
    return data


def schottky_config(**overrides):
    c = math.cos(math.pi / 4)
    s = math.sin(math.pi / 4)
    rot = np.array([[c, -s], [s, c]])
    second = rot @ np.diag([5.0, 0.2]) @ rot.T
    data = {
        "rank": 2,
        "dim": 2,
        "generators": [
            [[5.0, 0.0], [0.0, 0.2]],
            [list(map(float, row)) for row in second],
        ],
        "subset": {"type": "directed", "steps": ["a", "b"]},
        "k": 1,
        "budget": 8,
        "seed": 42,
        "tasks": ["certify"],
        "points": {
            "forward": "(ab)",
            "backward": "(BA)",
            "seed_plane": [[1.0, 0.3]],
            "pairs": [["(a)", "(B)"], ["(ab)", "(BA)"]],
        },
        "sampling": {"holder_pairs": 60, "trials": 5},
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_load_config_fills_and_echoes_defaults(tmp_path):
    config = load_config(write_config(tmp_path, z_config()))
    assert config.tasks == ("certify",)
    assert config.tolerances == DEFAULT_TOLERANCES
    assert config.sampling == DEFAULT_SAMPLING
    assert config.representation().dim == 3
    echo = config.echo()
    assert echo["tolerances"] == DEFAULT_TOLERANCES
    assert echo["tasks"] == ["certify"]
    assert echo["generators"][0][0][0] == 4.0


def test_config_dim_mismatch_names_the_generator():
    bad = schottky_config()
    bad["generators"][1] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    assert err.value.field == "generators[1]"


def test_config_unknown_subset_type():
    with pytest.raises(ValidationError) as err:
        parse_config(z_config(subset={"type": "weird"}))
    assert err.value.field == "subset.type"


def test_config_subset_ingredient_errors_are_wrapped():
    with pytest.raises(ValidationError) as err:
        parse_config(z_config(subset={"type": "axis", "words": ["aA"]}))
    assert err.value.field == "subset(axis)"
    with pytest.raises(ValidationError) as err:
        parse_config(
            schottky_config(subset={"type": "directed", "steps": ["a", "q"]})
        )
    assert err.value.field == "subset(directed)"


@pytest.mark.parametrize(
    "subset",
    [{"type": "directed", "steps": ["a", 1]}, {"type": "axis", "words": [["a"]]}],
)
def test_cli_non_string_letters_and_words_are_config_errors(tmp_path, capsys, subset):
    path = write_config(tmp_path, schottky_config(subset=subset))
    assert main(["certify", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_directed_inverse_pair_certifies_as_the_axis(tmp_path):
    # a = diag(5, 1/5) and its inverse have the same gaps, so the lines
    # stepping along a or along A have the margins of the a-axis
    blocks = []
    for subset in (
        {"type": "directed", "steps": ["a", "A"]},
        {"type": "axis", "words": ["a"]},
    ):
        path = write_config(tmp_path, schottky_config(subset=subset))
        out = str(tmp_path / "report.json")
        assert main(["certify", "--config", path, "--out", out, "--quiet"]) == 0
        blocks.append(load_report(out)["results"]["certify"])
    directed, axis = blocks
    assert directed["verdict"] == axis["verdict"] == "Certified"
    assert directed["margins"] == axis["margins"]
    assert directed["lambda_hat"] == axis["lambda_hat"]


def test_config_missing_seed():
    data = z_config()
    del data["seed"]
    with pytest.raises(ValidationError) as err:
        parse_config(data)
    assert err.value.field == "seed"


def test_config_rejects_unknown_fields():
    with pytest.raises(ValidationError) as err:
        parse_config(z_config(extra=1))
    assert err.value.field == "extra"
    with pytest.raises(ValidationError) as err:
        parse_config(z_config(tolerances={"bogus": 1.0}))
    assert err.value.field == "tolerances.bogus"
    with pytest.raises(ValidationError) as err:
        parse_config(z_config(points={"bogus": "(a)"}))
    assert err.value.field == "points.bogus"


def test_config_value_checks():
    with pytest.raises(ValidationError) as err:
        parse_config(z_config(k=3))
    assert err.value.field == "k"
    with pytest.raises(ValidationError) as err:
        parse_config(z_config(budget=1))
    assert err.value.field == "budget"
    with pytest.raises(ValidationError) as err:
        parse_config(z_config(tasks=["nope"]))
    assert err.value.field == "tasks[0]"
    with pytest.raises(ValidationError) as err:
        parse_config(z_config(seed=-1))
    assert err.value.field == "seed"
    with pytest.raises(ValidationError) as err:
        parse_config(z_config(points={"forward": "not a point"}))
    assert err.value.field == "points.forward"
    with pytest.raises(ValidationError) as err:
        parse_config(z_config(points={"seed_plane": [[1.0, 0.0]]}))
    assert err.value.field == "points.seed_plane"
    with pytest.raises(ValidationError) as err:
        parse_config(z_config(points={"pairs": [["(a)"]]}))
    assert err.value.field == "points.pairs[0]"


def test_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(str(path))
    with pytest.raises(ParseError):
        load_config(str(tmp_path / "missing.json"))


def test_run_certify_exit_zero():
    report = run(parse_config(z_config()))
    assert exit_code(report) == 0
    assert report.summary == {"certify": "Certified", "overall": "Pass"}
    assert report.results["certify"]["lambda_hat"] == pytest.approx(LOG8, abs=1e-9)
    assert report.results["certify"]["complete"] is True
    assert set(report.timings) == {"certify"}


def test_run_certify_k2_exit_one():
    report = run(parse_config(z_config(k=2)))
    assert exit_code(report) == 1
    assert report.summary["certify"] == "Refuted"
    margins = report.results["certify"]["margins"]
    assert margins and all(value == 0.0 for value in margins.values())


def test_run_captures_task_errors_and_continues():
    data = schottky_config(tasks=["certify", "transversality"])
    data["points"]["pairs"] = [["(a)", "(b)"]]
    report = run(parse_config(data))
    assert report.summary["certify"] == "Certified"
    assert report.results["transversality"]["verdict"] == "Error"
    assert "MembershipError" in report.results["transversality"]["error"]
    assert report.summary["overall"] == "Fail"
    assert exit_code(report) == 1


ALL_TASKS = [
    "certify",
    "limit-map",
    "transversality",
    "sdp",
    "holder",
    "splitting",
    "stability",
]


def test_run_all_tasks_deterministic_payload():
    config = parse_config(schottky_config(tasks=ALL_TASKS))
    first = run(config)
    # certify and walk again, not from the memo and the walk table
    domination._MEMO.clear()
    limits._WALKS.clear()
    second = run(config)
    assert exit_code(first) == 0
    assert list(first.results) == ALL_TASKS
    assert json.dumps(first.stable_payload(), sort_keys=True) == json.dumps(
        second.stable_payload(), sort_keys=True
    )
    # timings are present per task but excluded from the stable payload
    assert set(first.timings) == set(ALL_TASKS)
    assert "timings" not in first.stable_payload()
    # the emitted document is valid JSON and round-trips
    assert json.loads(first.to_json())["summary"]["overall"] == "Pass"


def assert_plain_json(value, path="payload"):
    """value holds only dicts with str keys, lists, str, int, float, bool
    and None: no tuple and no numpy scalar, which json writes as another
    type or refuses."""
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, f"{path} has the key {key!r}"
            assert_plain_json(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            assert_plain_json(item, f"{path}[{i}]")
    else:
        assert value is None or type(value) in (str, int, float, bool), (
            f"{path} is a {type(value).__name__}"
        )


def test_payloads_are_plain_json_as_the_runs_build_them():
    # a report emits its blocks as the task runners built them: every task,
    # an Error block of each task and the worked examples
    overflowing = schottky_config(
        generators=[[[1.7e308, 0.0], [0.0, 1.7e308]], [[1.0, -1.0], [1.0, 1.0]]],
        subset={"type": "full"},
        budget=6,
        seed=1,
        tasks=ALL_TASKS,
    )
    reports = [
        run(parse_config(schottky_config(tasks=ALL_TASKS))),
        run(parse_config(overflowing)),
        reproduce_paper(),
    ]
    assert exit_code(reports[0]) == 0 and exit_code(reports[2]) == 0
    assert {block["verdict"] for block in reports[1].results.values()} == {"Error"}
    for report in reports:
        payload = report.payload()
        assert_plain_json(payload)
        assert json.loads(report.to_json()) == payload


def test_a_payload_shares_no_list_with_its_config():
    # a report holds the config's echo as it is, so changing the payload
    # must leave the config, its echo and its subset as they were
    config = parse_config(schottky_config())
    echo, spec = config.echo(), config.subset_spec()
    document = run(config).payload()["config"]
    document["generators"][0][0][0] = 3.0
    document["subset"]["steps"].append("B")
    document["tasks"].append("holder")
    document["points"]["pairs"][0][0] = "(b)"
    document["points"]["seed_plane"][0][0] = 2.0
    document["sampling"]["trials"] = 1
    assert config.echo() == echo
    assert config.subset_spec() == spec
    assert config.echo() == parse_config(schottky_config()).echo()


def test_run_blocks_do_not_depend_on_task_order():
    # the walk table resumes each walk in whatever order the tasks read it;
    # holder draws its seed from its position, so its block is left out
    tasks = ["splitting", "limit-map", "transversality", "sdp", "holder"]
    blocks = []
    for order in (tasks, tasks[::-1]):
        limits._WALKS.clear()  # each order walks from an empty table
        blocks.append(run(parse_config(schottky_config(tasks=order))).stable_payload())
    first, reverse = (payload["results"] for payload in blocks)
    for task in tasks[:-1]:
        assert first[task] == reverse[task], task


def record_walks(monkeypatch):
    """Every limit-plane walk made from here on, in order."""
    walks = []

    class Recorded(limits._Walk):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            walks.append(self)

    monkeypatch.setattr(limits, "_Walk", Recorded)
    return walks


def chunk_end(stop):
    """The length a walk reaches to read a stop: the end of its chunk."""
    return -(-stop // limits._WALK_CHUNK) * limits._WALK_CHUNK


def test_run_walks_only_the_tolerances_its_tasks_read(monkeypatch):
    # each plane is walked once, to the chunk of the tightest stop a task
    # reads on it: limit-map and transversality read planes at the config
    # tolerance, sdp and the splitting checks at the default; splitting
    # reads the ends of its point's line at the config tolerance within
    # limit_n_max, the same planes as limit-map and sdp, and the checks read
    # the ends of its shift's line at the default within the same cap
    tol = DEFAULT_TOLERANCES["subspace"]
    default = limits.DEFAULT_TOL
    assert tol != default
    config = parse_config(schottky_config())
    rep, spec = config.representation(), config.subset_spec()
    # one rate, the certificate's, for the planes on both sides
    rate = certify(rep, spec, 1, config.budget).lambda_hat

    def plane(point, t, n_max=DEFAULT_SAMPLING["limit_n_max"]):
        x = parse_boundary_point(point)
        value = helpers.reference_xi_upper(rep, 1, x, rate, t, n_max)
        return chunk_end(value.iterations)

    x = shift_point(spec, parse_boundary_point("(ab)"), parse_boundary_point("(BA)"))
    shifted = [str(shift(x).forward), str(shift(x).backward)]
    assert shifted == ["(ba)", "(AB)"]
    endpoints = [plane("(ab)", default), plane("(BA)", default)]
    cases = {
        ("limit-map",): [plane("(ab)", tol)],
        ("transversality", "limit-map"): [
            plane("(a)", tol),
            plane("(B)", tol),
            plane("(ab)", tol),
            plane("(BA)", tol),
        ],
        ("sdp",): endpoints,
        # the backward plane, which only sdp reads, stops in the chunk of
        # its own stop at the default tolerance
        ("limit-map", "sdp"): [
            plane("(ab)", default),
            plane("(BA)", default),
        ],
        ("splitting",): [*endpoints, plane("(ba)", default), plane("(AB)", default)],
        ("splitting", 80): [
            plane("(ab)", default, 80),
            plane("(BA)", default, 80),
            plane("(ba)", default, 80),
            plane("(AB)", default, 80),
        ],
    }
    for tasks, expected in cases.items():
        data = schottky_config(tasks=[t for t in tasks if isinstance(t, str)])
        if 80 in tasks:
            data["sampling"]["limit_n_max"] = 80
        limits._WALKS.clear()
        walks = record_walks(monkeypatch)
        report = run(parse_config(data))
        assert exit_code(report) == 0
        assert [walk.length for walk in walks] == expected, tasks


def test_run_splitting_checks_walk_the_endpoint_planes_to_the_config_cap():
    # the Schottky config of CI's same-report check: with three prefixes
    # no plane settles, and the splitting ends in extraction, on limit-map's
    # read of the forward plane
    data = {
        "rank": 2,
        "dim": 2,
        "generators": [[[5.0, 0.0], [0.0, 0.2]], [[2.6, 2.4], [2.4, 2.6]]],
        "subset": {"type": "directed", "steps": ["a", "b"]},
        "k": 1,
        "budget": 8,
        "seed": 42,
        "tasks": ["limit-map", "sdp", "splitting"],
        "points": {"forward": "(ab)", "backward": "(BA)", "seed_plane": [[1.0, 0.3]]},
        "sampling": {"holder_pairs": 60, "limit_n_max": 3},
    }
    results = run(parse_config(data)).results
    for task in ("limit-map", "sdp", "splitting"):
        assert results[task]["verdict"] == "Error"
        assert results[task]["error"].startswith("NoConvergenceError: ")
        assert "within 3 prefixes" in results[task]["error"]
    error = results["limit-map"]["error"].removeprefix("NoConvergenceError: ")
    assert results["splitting"]["error"] == (
        f"NoConvergenceError: splitting did not settle within 3 steps: {error}"
    )
    # with the default cap every task passes
    del data["sampling"]["limit_n_max"]
    assert exit_code(run(parse_config(data))) == 0


def test_run_stability_certifies_with_the_config_options():
    # the Schottky config of CI's same-report check: its rate is about 2.6,
    # so at lambda_min 3.0 the base is Inconclusive and no probe may run
    data = {
        "rank": 2,
        "dim": 2,
        "generators": [[[5.0, 0.0], [0.0, 0.2]], [[2.6, 2.4], [2.4, 2.6]]],
        "subset": {"type": "directed", "steps": ["a", "b"]},
        "k": 1,
        "budget": 8,
        "seed": 42,
        "tasks": ["certify", "stability"],
        "tolerances": {"lambda_min": 3.0},
    }
    results = run(parse_config(data)).results
    assert results["certify"]["verdict"] == "Inconclusive"
    assert results["stability"]["verdict"] == "Error"
    assert results["stability"]["error"].startswith("NotCertifiedError: ")
    # at the default lambda_min both pass
    del data["tolerances"]
    assert exit_code(run(parse_config(data))) == 0


def test_cli_holder_walks_at_the_config_tolerance_and_cap(tmp_path):
    # three prefixes settle no plane: limit-map and holder both end in
    # NoConvergenceError, holder at the config tolerance
    data = schottky_config(tasks=["limit-map"])
    data["sampling"]["limit_n_max"] = 3
    path = write_config(tmp_path, data)
    out = tmp_path / "report.json"
    argv = ["limit-map", "--task", "holder", "--config", path, "--quiet"]
    assert main([*argv, "--out", str(out)]) == 1
    results = load_report(str(out))["results"]
    for task in ("limit-map", "holder"):
        assert results[task]["verdict"] == "Error"
        assert results[task]["error"].startswith("NoConvergenceError: ")
        assert "against tolerance 1.0e-08" in results[task]["error"]
    # with the default cap, holder fits the planes at the config tolerance
    config = parse_config(schottky_config(tasks=["holder"]))
    rep, spec = config.representation(), config.subset_spec()
    fit = limits.holder_estimate(
        rep,
        spec,
        config.k,
        sample_size=config.sampling["holder_pairs"],
        seed=config.derived_seed(0),
        tol=config.tolerances["subspace"],
    )
    holder = run(config).results["holder"]
    assert holder["alpha_hat"] == fit.alpha_hat
    assert holder["pairs_used"] == fit.pairs_used


def test_run_walks_each_plane_once_and_keeps_every_block(monkeypatch):
    # every task that reads limit planes, and two transversality pairs
    point_tasks = ["limit-map", "transversality", "sdp", "splitting"]
    config = parse_config(schottky_config(tasks=point_tasks))
    walks = record_walks(monkeypatch)
    report = run(config)
    assert exit_code(report) == 0
    # planes at (ab), (a) forward and (BA), (B) backward, which the
    # splitting reads too, and the two ends of its shift's line, which only
    # the checks read
    assert len(walks) == 6
    rep, spec = config.representation(), config.subset_spec()
    cert = certify(rep, spec, config.k, config.budget, opts=config.certify_options())
    walks.clear()
    results = report.stable_payload()["results"]
    for index, name in enumerate(point_tasks):
        # each task alone, from an empty table, gives the same block
        limits._WALKS.clear()
        alone = report_module._TASK_RUNNERS[name](
            config, rep, spec, index, lambda: cert
        )
        assert json.dumps(alone, sort_keys=True) == (
            json.dumps(results[name], sort_keys=True)
        )
    assert len(walks) == 1 + 4 + 2 + 4


def test_run_reads_one_certificate_representation_and_point_parse(monkeypatch):
    # a run certifies once for all its tasks and parses no point again
    # after its config did; configs with bitwise-equal generators share one
    # Representation, and a -0.0 entry in place of 0.0 makes its own
    made = []

    def counted(*args, **kwargs):
        made.append(certify(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(report_module, "certify", counted)
    parsed = config_module._parsed_point
    parsed.cache_clear()
    tasks = ["certify", "limit-map", "transversality", "sdp", "splitting"]
    config = parse_config(schottky_config(tasks=tasks))
    assert parsed.cache_info().misses == 4  # (ab), (BA), (a), (B)
    payload = run(config).stable_payload()
    assert len(made) == 1 and parsed.cache_info().misses == 4
    assert run(config).stable_payload() == payload
    assert len(made) == 2
    twin = parse_config(schottky_config(tasks=tasks))
    assert twin.representation() is config.representation()
    data = schottky_config()
    data["generators"][0][0][1] = -0.0
    signed = parse_config(data)
    assert signed.representation() is not config.representation()
    assert np.array_equal(
        signed.representation().stacked_images, config.representation().stacked_images
    )


def test_cli_sweep_certifies_each_representation_once(tmp_path, monkeypatch, capsys):
    # one process runs every config's own tasks: the first two share one
    # certificate, which rates the planes on both sides, and their limit
    # planes; the one-ulp config makes its own.  Each report is the one a
    # task subcommand writes with an empty memo and walk table
    tasks = ["certify", "limit-map", "transversality", "splitting"]
    first = schottky_config(tasks=tasks)
    moved = schottky_config(tasks=tasks)
    moved["points"] = dict(first["points"], forward="(a)")
    nudged = schottky_config(tasks=tasks)
    nudged["generators"][0][0][0] = 5.000000000000001
    paths = [
        write_config(tmp_path, data, f"c{n}.json")
        for n, data in enumerate((first, moved, nudged))
    ]
    made = helpers.count_walks(monkeypatch)
    walks = record_walks(monkeypatch)
    out_dir = tmp_path / "reports"
    assert main(["sweep", *paths, "--out-dir", str(out_dir), "--quiet"]) == 0
    assert made == [(8, 1), (8, 1)]
    # the first config walks (ab), (a), (BA), (B) and its shift's ends (ba)
    # and (AB); the second reads only these (its shift's ends are (a) and
    # (AB)); the one-ulp config walks its own six
    assert len(walks) == 12
    assert capsys.readouterr().out == ""
    for n, path in enumerate(paths):
        domination._MEMO.clear()
        limits._WALKS.clear()
        single = str(tmp_path / f"single{n}.json")
        argv = ["certify", "--task", "limit-map", "--task", "transversality"]
        argv += ["--task", "splitting"]
        assert main([*argv, "--config", path, "--out", single, "--quiet"]) == 0
        swept = load_report(str(out_dir / f"c{n}-report.json"))
        alone = load_report(single)
        for report in (swept, alone):
            report.pop("timings")
        assert json.dumps(swept, sort_keys=True) == json.dumps(alone, sort_keys=True)


def pingpong_seed1_config(tasks):
    """The d = 3 ping-pong pair of the certify-full benchmark's seed 1 on
    the full boundary at k = 1, budget 9, with the points (ab) and (BA)."""
    return {
        "rank": 2,
        "dim": 3,
        "generators": [
            [
                [7.56912836268446, -0.6113372845333476, -1.8696825610752188],
                [0.4789737640833621, 0.9612583014871289, -0.1816038426223357],
                [-0.910654786523883, 0.14188466892355037, 0.4835938166497661],
            ],
            [
                [3.804868202640447, -1.249709896814646, 3.7038789113611728],
                [-0.19135639904134583, 1.0830357091938176, -0.1830509630666653],
                [2.9099653973400983, -0.9214843524541644, 3.2892039208296118],
            ],
        ],
        "subset": {"type": "full"},
        "k": 1,
        "budget": 9,
        "seed": 1,
        "tasks": tasks,
        "points": {"forward": "(ab)", "backward": "(BA)"},
    }


def test_run_splitting_passes_on_the_d3_pingpong_pair():
    # the stable summand is the forward limit plane read as a top block;
    # read as the bottom right singular vectors of the time-n maps it
    # saturated once sigma_1 / sigma_3 passed 1/eps, and the checks ended
    # in NoConvergenceError after 80 steps at the shifted point
    config = parse_config(pingpong_seed1_config(["certify", "limit-map", "splitting"]))
    report = run(config)
    assert report.summary == {
        "certify": "Certified",
        "limit-map": "Pass",
        "splitting": "Pass",
        "overall": "Pass",
    }
    splitting = report.results["splitting"]
    assert max(splitting["invariance_stable"], splitting["invariance_unstable"]) < 1e-8
    # the stable summand is the forward limit plane at the config tolerance
    assert splitting["stable_rows"] == report.results["limit-map"]["basis_rows"]


def test_cli_sweep_exit_codes(tmp_path, capsys):
    z_path = write_config(tmp_path, z_config(), "z.json")
    k2_path = write_config(tmp_path, z_config(k=2), "z_k2.json")
    assert main(["sweep", z_path, z_path]) == 0
    out = capsys.readouterr().out
    assert out.count(f"== {z_path}") == 2 and out.count("overall: Pass") == 2
    assert main(["sweep", z_path, k2_path, "--quiet"]) == 1
    # every config loads before the first runs, so a bad one writes nothing
    out_dir = tmp_path / "reports"
    missing = str(tmp_path / "nope.json")
    assert main(["sweep", z_path, missing, "--out-dir", str(out_dir)]) == 2
    assert not out_dir.exists()
    # two reports of one file name would overwrite each other
    other = tmp_path / "other"
    other.mkdir()
    twin = write_config(other, z_config(k=2), "z.json")
    assert main(["sweep", z_path, twin, "--out-dir", str(out_dir)]) == 2
    assert not out_dir.exists()
    assert "error:" in capsys.readouterr().err


def test_run_records_derived_task_seeds():
    config = parse_config(schottky_config(tasks=ALL_TASKS))
    report = run(config)
    assert report.results["holder"]["seed"] == 42 * 1000 + ALL_TASKS.index("holder")
    assert (
        report.results["stability"]["seed"]
        == 42 * 1000 + ALL_TASKS.index("stability")
    )
    assert report.results["holder"]["seed"] != report.results["stability"]["seed"]


def test_run_preserves_declared_task_order():
    config = parse_config(schottky_config(tasks=["holder", "certify"]))
    report = run(config)
    assert list(report.results) == ["holder", "certify"]


def test_transversality_defaults_to_endpoint_pair():
    report = run(parse_config(z_config(tasks=["transversality"])))
    assert exit_code(report) == 0
    result = report.results["transversality"]
    assert result["minimum"] == pytest.approx(1.0, abs=1e-9)
    assert result["pairs"] == [["(a)", "(A)"]]


def test_reproduce_paper_outcomes():
    report = reproduce_paper()
    assert exit_code(report) == 0
    powers = report.results["diagonal_powers"]
    checks = {c["name"]: c for c in powers["checks"]}
    assert checks["k=1 verdict"]["passed"]
    assert checks["k=1 growth rate is log 8"]["measured"] == pytest.approx(
        LOG8, abs=1e-9
    )
    assert checks["k=2 verdict"]["passed"]
    assert checks["k=2 margins all zero"]["measured"] == 0.0

    detour = report.results["rotation_detour"]
    names = [c["name"] for c in detour["checks"]]
    assert "limit line at the periodic ray" in names
    for m in range(1, 6):
        assert f"limit line after a {m}-step detour" in names
    assert all(c["passed"] for c in detour["checks"])
    probe = detour["probe"]
    assert probe["separated"] is True
    for i, m in enumerate(probe["exponents"]):
        assert probe["visual"][i] == pytest.approx(math.exp(-m), abs=1e-15)
        assert probe["separations"][i] == pytest.approx(1.0, abs=1e-9)


def test_reproduce_paper_is_deterministic():
    first = reproduce_paper()
    domination._MEMO.clear()  # certify again, not from the memo
    second = reproduce_paper()
    assert json.dumps(first.stable_payload(), sort_keys=True) == json.dumps(
        second.stable_payload(), sort_keys=True
    )


def test_cli_exit_codes(tmp_path, capsys):
    z_path = write_config(tmp_path, z_config(), "z.json")
    k2_path = write_config(tmp_path, z_config(k=2), "z_k2.json")
    assert main(["certify", "--config", z_path, "--quiet"]) == 0
    assert main(["certify", "--config", k2_path, "--quiet"]) == 1
    assert main(["certify", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_overflowing_products_are_error_verdicts(tmp_path, capsys):
    # a valid config whose word products overflow double range on the way
    # (a generator of condition number 1, near the largest double): every
    # task records a ScaleOverflowError block, exit 1, no traceback
    data = schottky_config(
        generators=[[[1.7e308, 0.0], [0.0, 1.7e308]], [[1.0, -1.0], [1.0, 1.0]]],
        subset={"type": "full"},
        budget=6,
        seed=1,
    )
    path = write_config(tmp_path, data)
    for task in TASK_NAMES:
        out = str(tmp_path / f"{task}.json")
        assert main([task, "--config", path, "--out", out, "--quiet"]) == 1
        assert "Traceback" not in capsys.readouterr().err
        blocks = load_report(out)["results"]
        assert list(blocks) == [task]
        assert blocks[task]["verdict"] == "Error"
        assert blocks[task]["error"].startswith("ScaleOverflowError: ")


def test_cli_splitting_off_the_identity_is_an_error_verdict(tmp_path, capsys):
    # a|(b) and a|(B) are an endpoint pair of directed {a, b} whose line
    # passes a, not the identity: shift_point refuses it, so the splitting
    # block is an OriginOffGeodesicError, exit 1, no traceback
    data = schottky_config(
        tasks=["splitting"], points={"forward": "a|(b)", "backward": "a|(B)"}
    )
    out = str(tmp_path / "report.json")
    argv = ["splitting", "--config", write_config(tmp_path, data), "--out", out]
    assert main([*argv, "--quiet"]) == 1
    assert "Traceback" not in capsys.readouterr().err
    block = load_report(out)["results"]["splitting"]
    assert block["verdict"] == "Error"
    assert block["error"] == (
        "OriginOffGeodesicError: the identity is not on the geodesic"
    )


def test_cli_oversized_budget_is_a_budget_error_verdict(tmp_path, capsys):
    # a full rank-2 config at budget 30 would hold levels of 10^8 words and
    # more: certify refuses it from the level counts before it builds any
    # level, an Error block, exit 1, no traceback; an axis at the same
    # budget, whose levels stay small, still certifies
    data = schottky_config(subset={"type": "full"}, budget=30, seed=1)
    out = str(tmp_path / "report.json")
    argv = ["certify", "--config", write_config(tmp_path, data), "--out", out]
    assert main([*argv, "--quiet"]) == 1
    assert "Traceback" not in capsys.readouterr().err
    block = load_report(out)["results"]["certify"]
    assert block["verdict"] == "Error"
    assert block["error"] == (
        "BudgetError: budget 30 is too large: 6377292 words of length 14, past "
        "the 4194304 a level may hold"
    )
    axis = schottky_config(subset={"type": "axis", "words": ["ab"]}, budget=30)
    argv = ["certify", "--config", write_config(tmp_path, axis, "axis.json")]
    assert main([*argv, "--out", out, "--quiet"]) == 0
    assert load_report(out)["results"]["certify"]["verdict"] == "Certified"


def test_cli_oversized_samples_are_budget_error_verdicts(tmp_path, capsys):
    # a holder sample at max_period 40 or b = 20 and a primitive subset at
    # max_period 40 would walk about 2^40 (or 3^40) words: the walks are
    # counted first, so each run records a BudgetError block and exits 1,
    # with no traceback, in well under a second on a small box
    primitive = {"subset": {"type": "primitive", "max_period": 40}}
    runs = [
        ("holder", {"sampling": {"max_period": 40}}, "max_period 40 at b = 0", 22),
        ("holder", {"sampling": {"b": 20}}, "max_period 6 at b = 20", 1),
        ("certify", primitive, "max_period 40", 13),
    ]
    for n, (task, overrides, what, length) in enumerate(runs):
        data = schottky_config(tasks=[task], **overrides)
        out = str(tmp_path / f"report{n}.json")
        path = write_config(tmp_path, data, f"config{n}.json")
        started = time.perf_counter()
        assert main([task, "--config", path, "--out", out, "--quiet"]) == 1
        assert time.perf_counter() - started < 10.0
        assert "Traceback" not in capsys.readouterr().err
        block = load_report(out)["results"][task]
        assert block["verdict"] == "Error"
        assert block["error"] == (
            f"BudgetError: {what} is too large: its walks of length {length} pass "
            "the 4194304 a sample may hold"
        )


def test_cli_ill_conditioned_perturbation_is_an_error_verdict(tmp_path, capsys):
    # the second generator conjugates diag(6000, 1/6000), of condition
    # number 3.6e7, just under the ceiling; trial 23 of the stability task
    # (seed 1, its position's) moves it to one of 1.1e8, too ill-conditioned
    # to invert: the block is an IllConditionedError, certify still passes,
    # exit 1, no traceback
    data = schottky_config(
        tasks=["certify", "stability"],
        budget=4,
        seed=0,
        sampling={"epsilon": 1e-4, "trials": 24},
    )
    c = math.cos(math.pi / 4)
    rot = np.array([[c, -c], [c, c]])
    second = rot @ np.diag([6000.0, 1 / 6000.0]) @ rot.T
    data["generators"][1] = [list(map(float, row)) for row in second]
    out = str(tmp_path / "report.json")
    argv = ["certify", "--task", "stability", "--config", write_config(tmp_path, data)]
    assert main([*argv, "--out", out, "--quiet"]) == 1
    assert "Traceback" not in capsys.readouterr().err
    blocks = load_report(out)["results"]
    assert blocks["certify"]["verdict"] == "Certified"
    assert blocks["stability"]["verdict"] == "Error"
    assert blocks["stability"]["error"] == (
        "IllConditionedError: generator 2 is too ill-conditioned to invert reliably"
    )


@pytest.mark.parametrize("kappa", [200.0, 800.0])
def test_cli_holder_at_large_kappa_is_an_error_verdict(tmp_path, capsys, kappa):
    # the limits-flow holder config: at these kappa a scored pair's visual
    # distance underflows to 0, and the block is a NumericalError, exit 1,
    # no traceback
    data = schottky_config(
        tasks=["holder"],
        budget=6,
        seed=1,
        sampling={"holder_pairs": 400, "max_period": 8, "kappa": kappa},
    )
    out = str(tmp_path / "report.json")
    argv = ["holder", "--config", write_config(tmp_path, data), "--out", out]
    assert main([*argv, "--quiet"]) == 1
    assert "Traceback" not in capsys.readouterr().err
    block = load_report(out)["results"]["holder"]
    assert block["verdict"] == "Error"
    assert block["error"].startswith(
        f"NumericalError: visual distance underflows to 0 at kappa = {kappa!r} "
    )


def test_cli_singular_generator_is_a_config_error(tmp_path, capsys):
    singular = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
    ill = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.000000000001]]
    for matrix in (singular, ill):
        path = write_config(tmp_path, z_config(generators=[matrix]))
        with pytest.raises(ValidationError) as caught:
            load_config(path)
        assert caught.value.field == "generators"
        assert main(["certify", "--config", path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: generators:")
        assert "Traceback" not in err


def test_cli_dependent_seed_plane_is_a_config_error(tmp_path, capsys):
    for rows in ([[0.0, 0.0]], [[1.0, 0.3], [2.0, 0.6]], [[1, 0], [0, 1], [1, 1]]):
        data = schottky_config(tasks=["sdp"])
        data["points"]["seed_plane"] = rows
        path = write_config(tmp_path, data)
        with pytest.raises(ValidationError) as caught:
            load_config(path)
        assert caught.value.field == "points.seed_plane"
        assert main(["sdp", "--config", path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: points.seed_plane:")
        assert "Traceback" not in err


def test_seed_plane_is_the_frame_validation_made(monkeypatch):
    # the seed plane is orthonormalized once, when the config loads, and
    # every sdp read takes that frame; a plane of other rows is its own
    config = parse_config(schottky_config(tasks=["sdp"]))
    made = []
    spanning = Subspace.from_spanning
    monkeypatch.setattr(
        Subspace, "from_spanning", lambda m: made.append(m) or spanning(m)
    )
    plane = config.seed_plane()
    assert plane is config.seed_plane() and not made
    assert np.allclose(abs(plane.frame[:, 0]) * math.hypot(1.0, 0.3), [1.0, 0.3])
    negated = schottky_config(tasks=["sdp"])
    negated["points"]["seed_plane"] = [[-0.0, 1.0]]
    other = parse_config(negated)
    assert other.seed_plane() is not config.seed_plane() and len(made) == 1
    zero = schottky_config(tasks=["sdp"])
    zero["points"]["seed_plane"] = [[0.0, 1.0]]
    assert parse_config(zero).seed_plane() is not other.seed_plane()


def assert_config_error(tmp_path, capsys, data, task, field):
    path = write_config(tmp_path, data)
    with pytest.raises(ValidationError) as caught:
        load_config(path)
    assert caught.value.field == field
    assert main([task, "--config", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:")
    assert "Traceback" not in err


def test_cli_zero_sdp_points_is_a_config_error(tmp_path, capsys):
    data = schottky_config(tasks=["sdp"], sampling={"sdp_points": 0})
    assert_config_error(tmp_path, capsys, data, "sdp", "sampling.sdp_points")


def test_cli_zero_trials_is_a_config_error(tmp_path, capsys):
    data = schottky_config(tasks=["stability"], sampling={"trials": 0})
    assert_config_error(tmp_path, capsys, data, "stability", "sampling.trials")


_SUBSETS = {
    "full": {"type": "full"},
    "directed": {"type": "directed", "steps": ["a", "b"]},
    "axis": {"type": "axis", "words": ["a"]},
    "primitive": {"type": "primitive", "max_period": 3},
}


@pytest.mark.parametrize("subset", sorted(_SUBSETS))
@pytest.mark.parametrize(
    "task, key, value",
    [
        ("limit-map", "forward", "(c)"),
        ("transversality", "forward", "c|(a)"),
        ("sdp", "forward", "(aC)"),
        ("splitting", "backward", "(C)"),
        ("transversality", "pairs", [["(a)", "(B)"], ["(ab)", "c|(BA)"]]),
    ],
)
def test_cli_point_past_the_rank_is_a_config_error(
    tmp_path, capsys, subset, task, key, value
):
    data = schottky_config(subset=_SUBSETS[subset], tasks=[task])
    data["points"][key] = value
    field = "points.pairs[1]" if key == "pairs" else f"points.{key}"
    assert_config_error(tmp_path, capsys, data, task, field)


@pytest.mark.parametrize(
    "entry",
    ["5.0", False, True, None, 10**400, [1.0]],
    ids=["string", "false", "true", "null", "huge-int", "list"],
)
def test_cli_matrix_entries_must_be_json_numbers(tmp_path, capsys, entry):
    data = schottky_config()
    data["generators"][0][1][0] = entry
    assert_config_error(tmp_path, capsys, data, "certify", "generators[0]")
    data = schottky_config(tasks=["sdp"])
    data["points"]["seed_plane"] = [[entry, 0.3]]
    assert_config_error(tmp_path, capsys, data, "sdp", "points.seed_plane")


def test_integer_matrix_entries_stay_valid():
    data = schottky_config()
    data["generators"][0] = [[5, 0], [0, 0.2]]
    data["points"]["seed_plane"] = [[1, 0]]
    config = parse_config(data)
    assert config.generators[0] == ((5.0, 0.0), (0.0, 0.2))
    assert config.points["seed_plane"] == [[1.0, 0.0]]


def test_cli_zero_kappa_is_a_config_error(tmp_path, capsys):
    data = schottky_config(tasks=["holder"], sampling={"kappa": 0})
    assert_config_error(tmp_path, capsys, data, "holder", "sampling.kappa")


@pytest.mark.parametrize(
    "overrides, task, field",
    [
        ({"subset": {"type": "primitive", "max_period": True}}, "certify",
         "subset.max_period"),
        ({"sampling": {"trials": 2.7}}, "stability", "sampling.trials"),
        ({"sampling": {"holder_pairs": 10.9}}, "holder", "sampling.holder_pairs"),
        ({"sampling": {"kappa": math.inf}}, "holder", "sampling.kappa"),
        ({"tolerances": {"subspace": math.nan}}, "certify", "tolerances.subspace"),
        ({"tolerances": {"lambda_min": 10**400}}, "certify", "tolerances.lambda_min"),
        # finite, but the trials' draw width 2 * epsilon is not
        ({"sampling": {"epsilon": 1e308}}, "stability", "sampling.epsilon"),
    ],
)
def test_cli_non_integral_and_non_finite_numbers_are_config_errors(
    tmp_path, capsys, overrides, task, field
):
    # a boolean period, a fraction in an integer knob, a non-finite number
    # and an integer past the float range: none is truncated or read as is
    assert_config_error(tmp_path, capsys, schottky_config(**overrides), task, field)


def test_the_widest_finite_draw_width_is_a_valid_epsilon():
    epsilon = sys.float_info.max / 2  # 2 * epsilon is the largest double
    config = parse_config(schottky_config(sampling={"epsilon": epsilon}))
    assert config.sampling["epsilon"] == epsilon


def test_integral_floats_in_integer_fields_are_echoed_as_integers():
    config = parse_config(schottky_config(sampling={"trials": 3.0}))
    assert config.echo()["sampling"]["trials"] == 3
    assert isinstance(config.sampling["trials"], int)


@pytest.mark.parametrize(
    "text",
    ["{\"rank\": " + "1" * 5000 + "}", "[" * 100000 + "]" * 100000],
    ids=["long-integer", "deep-nesting"],
)
def test_cli_oversized_json_is_a_parse_error(tmp_path, capsys, text):
    # an integer past Python's digit limit, and nesting past its recursion
    # limit, end in exit 2 for a config and for a report alike
    path = tmp_path / "document.json"
    path.write_text(text)
    assert main(["certify", "--config", str(path)]) == 2
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and "Traceback" not in err


def test_with_overrides_rejects_unknown_tasks():
    config = parse_config(z_config())
    with pytest.raises(ValidationError) as err:
        config.with_overrides(tasks=("certify", "nope"))
    assert err.value.field == "tasks[1]"


def test_cli_empty_pair_list_is_a_config_error(tmp_path, capsys):
    data = schottky_config(tasks=["transversality"])
    data["points"]["pairs"] = []
    assert_config_error(tmp_path, capsys, data, "transversality", "points.pairs")


def test_cli_unread_tolerances_are_unknown_fields(tmp_path, capsys):
    # tolerances.gap and tolerances.fit were accepted but never read, and
    # tolerances.eps_res gated a residual that was 0 by construction
    for key in ("gap", "fit", "eps_res"):
        data = z_config(tolerances={key: 1e-9})
        assert_config_error(tmp_path, capsys, data, "certify", f"tolerances.{key}")
    assert set(DEFAULT_TOLERANCES) == {"subspace", "lambda_min"}


def test_cli_flow_steps_is_an_unknown_field(tmp_path, capsys):
    # a splitting reads its planes within limit_n_max, the cap of every
    # plane read, so sampling.flow_steps caps nothing
    data = schottky_config(tasks=["splitting"])
    data["sampling"]["flow_steps"] = 80
    assert_config_error(tmp_path, capsys, data, "splitting", "sampling.flow_steps")
    assert "flow_steps" not in DEFAULT_SAMPLING


def test_with_overrides_validates_then_replaces():
    config = parse_config(z_config())
    with pytest.raises(ValidationError) as err:
        config.with_overrides(seed=-1)
    assert err.value.field == "seed"
    with pytest.raises(ValidationError) as err:
        config.with_overrides(tasks=("nope",))
    assert err.value.field == "tasks[0]"
    changed = config.with_overrides(seed=7, tasks=("limit-map",))
    assert type(changed) is RunConfig
    assert changed == config._replace(seed=7, tasks=("limit-map",))
    assert config.with_overrides() == config


def test_run_records_numerical_failures_as_errors(monkeypatch):
    def overflowing(config, rep, spec, index, certificate):
        ScaledMatrix(np.eye(2), 1000.0).matrix()

    def dependent(config, rep, spec, index, certificate):
        Subspace.from_spanning(np.zeros((2, 1)))

    monkeypatch.setitem(report_module._TASK_RUNNERS, "holder", overflowing)
    monkeypatch.setitem(report_module._TASK_RUNNERS, "sdp", dependent)
    report = run(parse_config(schottky_config(tasks=["holder", "sdp", "certify"])))
    assert report.results["holder"]["error"].startswith("ScaleOverflowError:")
    assert report.results["sdp"]["error"].startswith("DependentColumnsError:")
    assert report.summary["certify"] == "Certified"
    assert exit_code(report) == 1


def test_cli_stdout_summary_and_quiet(tmp_path, capsys):
    z_path = write_config(tmp_path, z_config())
    assert main(["certify", "--config", z_path]) == 0
    out = capsys.readouterr().out
    assert "certify: Certified" in out and "overall: Pass" in out
    assert main(["certify", "--config", z_path, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_report_roundtrip(tmp_path, capsys):
    z_path = write_config(tmp_path, z_config())
    out_path = str(tmp_path / "report.json")
    assert main(["certify", "--config", z_path, "--out", out_path, "--quiet"]) == 0
    payload = load_report(out_path)
    assert payload["summary"]["overall"] == "Pass"
    assert payload["version"]
    assert main(["report", out_path]) == 0
    printed = capsys.readouterr().out
    assert "certify: Certified" in printed
    assert main(["report", str(tmp_path / "missing.json")]) == 2


def assert_file_error(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_cli_config_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(z_config()).encode() + b" \xe9")
    with pytest.raises(ParseError):
        load_config(str(path))
    assert_file_error(capsys, ["certify", "--config", str(path)], "not UTF-8")


def test_cli_report_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(b'{"summary": "\xe9"}')
    assert_file_error(capsys, ["report", str(path)], "not UTF-8")


def test_cli_report_not_an_object_is_a_parse_error(tmp_path, capsys):
    for document in ([1, 2], "Pass", {"summary": []}, {"results": 3}):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(document))
        assert_file_error(capsys, ["report", str(path)], "not a gapcert report")


@pytest.mark.parametrize(
    "document",
    [
        {"results": {"certify": {"checks": [1]}}},
        {"results": {"certify": {"checks": "ab"}}},
        {"timings": {"a": "x"}},
    ],
)
def test_cli_report_renders_only_well_typed_entries(tmp_path, capsys, document):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(document))
    assert main(["report", str(path)]) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    assert "overall: ?" in printed.out
    assert "[" not in printed.out and "elapsed" not in printed.out


_REPORT_KEYS = st.sampled_from(
    ("version", "summary", "results", "timings", "overall", "certify", "checks",
     "name", "passed", "error", "lambda_hat", "iterations")
) | st.text(max_size=3)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_REPORT_KEYS, inner, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(_REPORT_KEYS, _JSON_VALUES, max_size=5))
def test_format_report_renders_any_json_document(document):
    text = format_report(document)
    assert text.startswith("gapcert report") and "overall: " in text


# Where a mutation lands in a valid config document: a field path, walked
# through objects and lists; a path that no longer exists is left alone.
_CONFIG_PATHS = st.sampled_from(
    [("rank",), ("dim",), ("generators",), ("generators", 1), ("generators", 0, 1),
     ("subset",), ("subset", "type"), ("subset", "steps"), ("subset", "words"),
     ("subset", "max_period"), ("k",), ("budget",), ("seed",), ("tasks",),
     ("tasks", 0), ("tolerances",), ("sampling",), ("points",),
     ("points", "forward"), ("points", "backward"), ("points", "pairs"),
     ("points", "pairs", 0), ("points", "seed_plane"), ("bogus",)]
    + [("sampling", key) for key in DEFAULT_SAMPLING]
    + [("tolerances", key) for key in DEFAULT_TOLERANCES]
)
_DELETE = object()
_CONFIG_VALUES = (
    st.just(_DELETE)
    | _JSON_VALUES
    | st.integers(-2, 12)
    | st.floats(-1.0, 40.0)
    | st.sampled_from(
        ["full", "directed", "axis", "primitive", "(ab)", "a|(b)", "ab",
         ["a", "b"], ["ab"], ["(a)", "(B)"], [[1.0, 0.3]], [[1.0, 0.0], [0.0, 1.0]]]
    )
)


def _mutate(document, path, value):
    *parents, last = path
    try:
        for key in parents:
            document = document[key]
        if value is _DELETE:
            del document[last]
        else:
            document[last] = value
    except (KeyError, IndexError, TypeError):
        pass  # an earlier mutation took the path away


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_CONFIG_PATHS, _CONFIG_VALUES), max_size=3))
def test_parse_config_accepts_and_echoes_or_raises_a_config_error(mutations):
    document = copy.deepcopy(schottky_config())
    for path, value in mutations:
        _mutate(document, path, value)
    try:
        config = parse_config(document)
    except ConfigError:
        return
    echo = config.echo()
    assert parse_config(json.loads(json.dumps(echo))).echo() == echo


def test_cli_out_in_a_missing_directory_fails_before_the_run(
    tmp_path, monkeypatch, capsys
):
    def refused(*args):
        raise AssertionError("ran although the report cannot be written")

    monkeypatch.setattr(cli, "run", refused)
    monkeypatch.setattr(cli, "reproduce_paper", refused)
    z_path = write_config(tmp_path, z_config())
    missing = str(tmp_path / "nowhere" / "report.json")
    for argv in (["certify", "--config", z_path], ["reproduce-paper"]):
        assert_file_error(capsys, [*argv, "--out", missing], "no such directory")


def test_cli_sweep_out_dir_naming_a_file_is_a_config_error(tmp_path, capsys):
    z_path = write_config(tmp_path, z_config())
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = ["sweep", z_path, "--out-dir", str(taken), "--quiet"]
    assert_file_error(capsys, argv, "cannot make --out-dir")


def test_cli_task_flags_extend_and_deduplicate(tmp_path):
    path = write_config(tmp_path, schottky_config())
    out_path = str(tmp_path / "multi.json")
    code = main(
        [
            "certify",
            "--config",
            path,
            "--task",
            "holder",
            "--task",
            "certify",
            "--out",
            out_path,
            "--quiet",
        ]
    )
    assert code == 0
    payload = load_report(out_path)
    assert list(payload["results"]) == ["certify", "holder"]
    assert payload["config"]["tasks"] == ["certify", "holder"]


def test_cli_seed_override_changes_derived_seeds(tmp_path):
    path = write_config(tmp_path, schottky_config())
    out_path = str(tmp_path / "seeded.json")
    assert (
        main(["holder", "--config", path, "--seed", "99", "--out", out_path, "--quiet"])
        == 0
    )
    payload = load_report(out_path)
    assert payload["config"]["seed"] == 99
    assert payload["results"]["holder"]["seed"] == 99 * 1000
    with pytest.raises(SystemExit) as err:
        main(["certify", "--config", path, "--task", "bogus"])
    assert err.value.code == 2


def test_cli_missing_point_data_is_a_config_error(tmp_path, capsys):
    data = z_config()
    del data["points"]
    path = write_config(tmp_path, data)
    assert main(["limit-map", "--config", path, "--quiet"]) == 2
    assert "points.forward" in capsys.readouterr().err
    assert main(["sdp", "--config", path, "--quiet"]) == 2
    assert main(["transversality", "--config", path, "--quiet"]) == 2


def test_cli_reproduce_paper(tmp_path, capsys):
    out_path = str(tmp_path / "repro.json")
    assert main(["reproduce-paper", "--out", out_path, "--quiet"]) == 0
    payload = load_report(out_path)
    assert payload["summary"] == {
        "diagonal_powers": "Pass",
        "rotation_detour": "Pass",
        "overall": "Pass",
    }
    assert main(["report", out_path]) == 0
    printed = capsys.readouterr().out
    assert "[ok] k=1 verdict" in printed


def test_format_report_shows_errors():
    data = schottky_config(tasks=["transversality"])
    data["points"]["pairs"] = [["(a)", "(b)"]]
    report = run(parse_config(data))
    text = format_report(report.payload())
    assert "transversality: Error" in text
    assert "MembershipError" in text
    assert "overall: Fail" in text
