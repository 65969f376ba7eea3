"""Configuration loading, run orchestration, exit codes, and CLI plumbing."""

import json
import math

import numpy as np
import pytest

from gapcert import flow, limits
from gapcert.cli import main
from gapcert.config import (
    DEFAULT_SAMPLING,
    DEFAULT_TOLERANCES,
    load_config,
    parse_config,
)
from gapcert import report as report_module
from gapcert.domination import certify
from gapcert.errors import ParseError, ValidationError
from gapcert.linalg import ScaledMatrix, Subspace
from gapcert.report import (
    exit_code,
    format_report,
    load_report,
    reproduce_paper,
    run,
)
from gapcert.subsets import hat

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
        "sampling": {"holder_pairs": 60, "trials": 5, "flow_steps": 60},
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


def count_walks(monkeypatch, tolerances=None):
    """Record the name of every limit-plane and splitting walk, and the
    tolerances each one settles in tolerances when given."""
    walks = []

    def counting(module, name):
        original = getattr(module, name)

        def walk(*args):
            walks.append(name)
            if tolerances is not None:
                # both walks take their tolerances fifth
                tolerances.append((name, tuple(args[4])))
            return original(*args)

        monkeypatch.setattr(module, name, walk)

    counting(limits, "_limit_walk")
    counting(flow, "_raw_splitting")
    return walks


def test_run_walks_only_the_tolerances_its_tasks_read(monkeypatch):
    # a task that reads planes at the config tolerance alone settles no
    # other; splitting reads its own splittings at the config tolerance
    # and 60 steps, the checks' shift at the default and 80 steps, and the
    # endpoint planes at the default
    tol = DEFAULT_TOLERANCES["subspace"]
    default = limits.DEFAULT_TOL
    assert tol != default
    cases = {
        ("limit-map",): [("_limit_walk", (tol,))],
        ("transversality", "limit-map"): [("_limit_walk", (tol,))] * 4,
        ("sdp",): [("_limit_walk", (default,))] * 2,
        ("splitting",): [("_raw_splitting", (tol,))] * 2
        + [("_raw_splitting", (default,))]
        + [("_limit_walk", (default,))] * 2,
        # the tolerances read at a kind and cap are settled on each walk
        # of it, the backward plane that only sdp reads included
        ("limit-map", "sdp"): [("_limit_walk", (default, tol))] * 2,
        # at the checks' own 80 steps the shifted splitting serves both
        # tolerances, while the splitting over the point itself, which
        # only bg_splitting reads, walks at the config tolerance alone
        ("splitting", 80): [
            ("_raw_splitting", (tol,)),
            ("_raw_splitting", (default, tol)),
        ]
        + [("_limit_walk", (default,))] * 2,
    }
    for tasks, expected in cases.items():
        data = schottky_config(tasks=[t for t in tasks if isinstance(t, str)])
        if 80 in tasks:
            data["sampling"]["flow_steps"] = 80
        tolerances = []
        count_walks(monkeypatch, tolerances)
        report = run(parse_config(data))
        assert exit_code(report) == 0
        assert tolerances == expected, tasks


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
    # every task that reads limit planes or splittings, two transversality
    # pairs, and flow_steps off the splitting checks' own 80 steps
    point_tasks = ["limit-map", "transversality", "sdp", "splitting"]
    config = parse_config(schottky_config(tasks=point_tasks))
    assert config.sampling["flow_steps"] != 80
    walks = count_walks(monkeypatch)
    report = run(config)
    assert exit_code(report) == 0
    # planes at (ab), (a) forward and (BA), (B) backward; splittings over the
    # point and its shift at 60 steps, and the shift at 80 steps
    assert walks.count("_limit_walk") == 4
    assert walks.count("_raw_splitting") == 3
    rep, spec = config.representation(), config.subset_spec()
    cert = certify(rep, spec, config.k, config.budget, opts=config.certify_options())
    dual = certify(rep, hat(spec), rep.dim - config.k, config.budget)
    walks.clear()
    results = report.stable_payload()["results"]
    for index, name in enumerate(point_tasks):
        # outside run() every public function walks on its own
        alone = report_module._TASK_RUNNERS[name](
            config, rep, spec, index, lambda: cert, lambda: dual
        )
        assert json.dumps(report_module._jsonify(alone), sort_keys=True) == (
            json.dumps(results[name], sort_keys=True)
        )
    assert walks.count("_limit_walk") == 9
    assert walks.count("_raw_splitting") == 3


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


def test_cli_zero_kappa_is_a_config_error(tmp_path, capsys):
    data = schottky_config(tasks=["holder"], sampling={"kappa": 0})
    assert_config_error(tmp_path, capsys, data, "holder", "sampling.kappa")


def test_cli_empty_pair_list_is_a_config_error(tmp_path, capsys):
    data = schottky_config(tasks=["transversality"])
    data["points"]["pairs"] = []
    assert_config_error(tmp_path, capsys, data, "transversality", "points.pairs")


def test_cli_unread_tolerances_are_unknown_fields(tmp_path, capsys):
    # tolerances.gap and tolerances.fit were accepted but never read
    for key in ("gap", "fit"):
        data = z_config(tolerances={key: 1e-9})
        assert_config_error(tmp_path, capsys, data, "certify", f"tolerances.{key}")
    assert set(DEFAULT_TOLERANCES) == {"subspace", "lambda_min", "eps_res"}


def test_run_records_numerical_failures_as_errors(monkeypatch):
    def overflowing(config, rep, spec, index, certificate, dual):
        ScaledMatrix(np.eye(2), 1000.0).matrix()

    def dependent(config, rep, spec, index, certificate, dual):
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
