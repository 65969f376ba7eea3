"""Configuration loading, run orchestration, exit codes, and CLI plumbing."""

import json
import math

import numpy as np
import pytest

from gapcert.cli import main
from gapcert.config import (
    DEFAULT_SAMPLING,
    DEFAULT_TOLERANCES,
    load_config,
    parse_config,
)
from gapcert.errors import ParseError, ValidationError
from gapcert.report import (
    exit_code,
    format_report,
    load_report,
    reproduce_paper,
    run,
)

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
