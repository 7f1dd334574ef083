import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

from fanshift import itinerary, quotients
from fanshift.cli import main
from fanshift.figures import FIGURE_IDS
from fanshift.itinerary import CantorCertificate
from fanshift.quotients import HlavnaReport
from fanshift.reports import REPORT_SCHEMA, SCHEMA_VERSION

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "expected.json").read_text(
        encoding="utf-8"
    )
)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_schema_command(capsys):
    code, out = run(["schema"], capsys)
    assert code == 0
    schema = json.loads(out)
    assert schema["properties"]["schema_version"]["const"] == SCHEMA_VERSION
    jsonschema.Draft7Validator.check_schema(schema)


def test_verify_report_validates_against_schema(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    code = main(
        [
            "verify",
            "decomposition",
            "--kmax",
            "3",
            "--samples",
            "25",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["pass"] is True
    assert report["name"] == "decomposition"


def test_verify_prints_report_to_stdout(capsys):
    code, out = run(["verify", "cantor", "--kmax", "2", "--depth", "6"], capsys)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)


def test_verify_failure_exit_code(tmp_path):
    # an impossibly tight density request fails with witnesses
    report_path = tmp_path / "fail.json"
    code = main(
        [
            "verify",
            "impression",
            "--eps",
            "0.001",
            "--depth",
            "2",
            "--m-max",
            "1",
            "--n-max",
            "1",
            "--k-max",
            "2",
            "--k-cut",
            "3",
            "--report",
            str(report_path),
        ]
    )
    assert code == 1
    report = json.loads(report_path.read_text())
    assert report["pass"] is False
    assert report["witnesses"]
    jsonschema.validate(report, REPORT_SCHEMA)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main(["render", "fig9", "--out", "/tmp/x.svg"])
    assert exc2.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "quotient", "--a", "1,5"],
        ["verify", "juma", "--depth", "0"],
        ["verify", "orbit", "--window", "0"],
        ["verify", "decomposition", "--config", "{bad_config}"],
        ["verify", "decomposition", "--config", "{missing_config}"],
        ["verify", "impression", "--eps", "0"],
        ["verify", "impression", "--seed-t", "1.5"],
        ["verify", "cantor", "--kmax", "0"],
        ["verify", "hlavna", "--kmax", "3"],
        ["render", "glue", "--out", "{svg}", "--a", "1,5"],
        # only the gluing figure reads --a
        *(
            ["render", fig, "--a", "1,3", "--out", "{svg}"]
            for fig in FIGURE_IDS
            if fig != "glue"
        ),
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_invalid_parameters_are_usage_errors(argv, tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("kmax=abc\n")
    paths = {
        "bad_config": bad,
        "missing_config": tmp_path / "missing.conf",
        "svg": tmp_path / "g.svg",
    }
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, env, needle",
    [
        (["verify", "quotient", "--report", "{nodir}/r.json"], None, "{nodir}/r.json"),
        (["render", "fig1", "--out", "{nodir}/r.svg"], None, "{nodir}/r.svg"),
        (["verify", "cantor", "--config", "{kmax_conf}"], None, "kmax: invalid literal"),
        (["verify", "quotient", "--config", "{seed_conf}"], None, "seed: invalid literal"),
        (["verify", "quotient"], "abc", "FANSHIFT_SEED: invalid literal"),
        (["verify", "juma", "--grid", "0"], None, "grid must be in (0, 1)"),
        (["verify", "juma", "--grid", "-1"], None, "grid must be in (0, 1)"),
        (["verify", "juma", "--grid", "2"], None, "grid must be in (0, 1)"),
        (["verify", "juma", "--grid", "1e-310"], None, "with a finite 1/grid"),
        (["verify", "cantor", "--depth", "0"], None, "depth must be >= 1"),
        (["verify", "distinguish", "--kmax", "0"], None, "kmax must be >= 1"),
        (["verify", "orbit", "--eps", "nan"], None, "eps must be positive"),
        (["verify", "orbit", "--eps", "0"], None, "eps must be positive"),
        (["verify", "orbit", "--eps", "-1"], None, "eps must be positive"),
        (["verify", "orbit", "--eps", "inf"], None, "eps must be positive"),
        (["verify", "impression", "--eps", "nan"], None, "eps must be positive"),
        (
            ["verify", "impression", "--eps", "inf", "--k-cut", "8"],
            None,
            "eps must be positive and finite, got inf",
        ),
        (
            ["verify", "impression", "--eps", "nan", "--k-cut", "8"],
            None,
            "eps must be positive and finite, got nan",
        ),
        (["verify", "orbit", "--u-cells", "0"], None, "u_cells must be >= 1"),
        (["verify", "orbit", "--u-cells", "-3"], None, "u_cells must be >= 1"),
        (["verify", "diam", "--kmax", "0"], None, "kmax must be >= 1"),
        (["verify", "diam", "--kmax", "2", "--samples", "0"], None, "samples must be >= 1"),
        (["verify", "decomposition", "--samples", "-3"], None, "samples_per_interval must be >= 2"),
        (["verify", "decomposition", "--samples", "1"], None, "samples_per_interval must be >= 2"),
        (["verify", "quotient", "--samples", "-5"], None, "samples must be >= 1"),
        (["verify", "quotient", "--samples", "0"], None, "samples must be >= 1"),
        (["verify", "impression", "--k-cut", "0"], None, "k_cut must be >= 1"),
        (["verify", "impression", "--k-cut", "-4"], None, "k_cut must be >= 1"),
        (["verify", "impression", "--m-max", "-1"], None, "m_max must be >= 0"),
        (["verify", "impression", "--n-max", "-1"], None, "n_max must be >= 0"),
        (["verify", "impression", "--k-max", "0"], None, "k_max must be >= 1"),
    ],
    ids=[
        "report-path",
        "svg-path",
        "config-kmax",
        "config-seed",
        "env-seed",
        "juma-grid-0",
        "juma-grid-neg",
        "juma-grid-2",
        "juma-grid-tiny",
        "cantor-depth-0",
        "distinguish-kmax-0",
        "orbit-eps-nan",
        "orbit-eps-0",
        "orbit-eps-neg",
        "orbit-eps-inf",
        "impression-eps-nan",
        "impression-eps-inf-k-cut",
        "impression-eps-nan-k-cut",
        "orbit-u-cells-0",
        "orbit-u-cells-neg",
        "diam-kmax-0",
        "diam-samples-0",
        "decomposition-samples-neg",
        "decomposition-samples-1",
        "quotient-samples-neg",
        "quotient-samples-0",
        "impression-k-cut-0",
        "impression-k-cut-neg",
        "impression-m-max-neg",
        "impression-n-max-neg",
        "impression-k-max-0",
    ],
)
def test_usage_errors_name_their_cause(argv, env, needle, tmp_path, capsys, monkeypatch):
    paths = {
        "nodir": tmp_path / "missing",
        "kmax_conf": tmp_path / "kmax.conf",
        "seed_conf": tmp_path / "seed.conf",
    }
    paths["kmax_conf"].write_text("kmax=abc\n")
    paths["seed_conf"].write_text("seed=x\n")
    if env is not None:
        monkeypatch.setenv("FANSHIFT_SEED", env)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert needle.format(**paths) in err and "Traceback" not in err


def test_failure_reports_serialize_records_as_objects(tmp_path, monkeypatch):
    # the default reports serialize no failing record, and JSON writes a
    # NamedTuple passed without ``_asdict()`` as an array
    certificate = itinerary.cantor_certificate
    monkeypatch.setattr(
        itinerary,
        "cantor_certificate",
        lambda k, n: certificate(k, n)._replace(passed=False),
    )
    # digit-swap now breaks the invariance hypothesis, and the violator passes
    monkeypatch.setattr(quotients, "swap_digit_map", quotients.vertex_crush_map)
    monkeypatch.setattr(quotients, "vertex_crush_map", quotients.identity_map)

    def report(*argv):
        out = tmp_path / "r.json"
        assert main(["verify", *argv, "--report", str(out)]) == 1
        return json.loads(out.read_text(encoding="utf-8"))

    cantor = report("cantor", "--kmax", "2", "--depth", "4")
    assert [w["k"] for w in cantor["witnesses"]] == [1, 2]
    for w in cantor["witnesses"]:
        assert isinstance(w, dict) and set(w) == set(CantorCertificate._fields)

    hlavna = report("hlavna")
    swap, violator = hlavna["witnesses"]
    assert violator["check"] == "violator"
    extra = hlavna["extra"]
    records = [swap, violator["report"], *extra["maps"], extra["violator"]]
    assert [r["map"] for r in records] == [
        "digit-swap", "vertex-crush", "identity", "digit-swap", "vertex-crush"
    ]
    assert not swap["passed"] and swap["witness"] is not None
    for r in records:
        assert isinstance(r, dict) and set(r) == set(HlavnaReport._fields)


def _check_digest(key, tmp_path):
    kind, name = key.split("-", 1)
    out = tmp_path / "out"
    if kind == "verify":
        code = main(["verify", name, "--report", str(out)])
        assert code == (1 if name in EXPECTED["expected_fail"] else 0)
    else:
        assert main(["render", name, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPECTED["digests"][key]


def test_verify_hlavna_matches_recorded_digest(tmp_path):
    _check_digest("verify-hlavna", tmp_path)


def test_verify_orbit_matches_recorded_digest(tmp_path):
    _check_digest("verify-orbit", tmp_path)


@pytest.mark.parametrize(
    "key",
    sorted(set(EXPECTED["digests"]) - {"verify-hlavna", "verify-orbit"}),
)
def test_default_output_matches_recorded_digest(key, tmp_path):
    """Every other default-parameter report and SVG is byte-identical to its digest."""
    _check_digest(key, tmp_path)


def test_failure_report_keeps_its_parameters(tmp_path):
    # a frontier configuration: the builder raises PathNotFound
    report_path = tmp_path / "orbit.json"
    argv = ["verify", "orbit", "--eps", "0.0625", "--window", "2"]
    assert main(argv + ["--report", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    assert report["witnesses"][0]["error"] == "PathNotFound"
    assert report["params"] == {"eps": 0.0625, "window": 2, "u_cells": 12, "seed": 0}


def test_cantor_cap_failure_report(tmp_path):
    # depth 30 through interval 1 needs far more than the 4,000,000-word cap
    report_path = tmp_path / "cantor.json"
    assert main(["verify", "cantor", "--depth", "30", "--report", str(report_path)]) == 1
    assert json.loads(report_path.read_text()) == {
        "extra": {},
        "name": "cantor",
        "params": {"depth": 30, "kmax": 8, "seed": 0},
        "pass": False,
        "schema_version": SCHEMA_VERSION,
        "timings": {},
        "witnesses": [
            {
                "error": "ResourceCapExceeded",
                "message": "certificate walk (k=1, n=30) exceeded cap 4000000",
            }
        ],
    }


def test_juma_cap_failure_report(tmp_path):
    # at depth 12 the fans would have over a million legs: the check fails
    # before any word is enumerated
    report_path = tmp_path / "juma.json"
    assert main(["verify", "juma", "--depth", "12", "--report", str(report_path)]) == 1
    assert json.loads(report_path.read_text()) == {
        "extra": {},
        "name": "juma",
        "params": {"depth": 12, "grid": 2.0**-10, "seed": 0},
        "pass": False,
        "schema_version": SCHEMA_VERSION,
        "timings": {},
        "witnesses": [
            {
                "error": "ResourceCapExceeded",
                "message": "fan with 5 bundles at depth 12 has 1720513 legs, "
                "over cap 1000000",
            }
        ],
    }


def test_reports_byte_identical_for_same_seed(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "quotient", "--a", "2,4", "--samples", "60", "--seed", "7"]
    assert main(args + ["--report", str(p1)]) == 0
    assert main(args + ["--report", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_seed_env_override(tmp_path, monkeypatch):
    p1, p2, p3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    args = ["verify", "diam", "--kmax", "2", "--samples", "20"]
    monkeypatch.setenv("FANSHIFT_SEED", "11")
    main(args + ["--report", str(p1)])
    main(args + ["--report", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()
    monkeypatch.setenv("FANSHIFT_SEED", "12")
    main(args + ["--report", str(p3)])
    r1, r3 = json.loads(p1.read_text()), json.loads(p3.read_text())
    assert r1["params"]["seed"] == 11
    assert r3["params"]["seed"] == 12


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("kmax=2\nsamples=10\nseed=5\n")
    p1 = tmp_path / "a.json"
    code = main(
        [
            "verify",
            "decomposition",
            "--config",
            str(cfg),
            "--samples",
            "15",
            "--report",
            str(p1),
        ]
    )
    assert code == 0
    report = json.loads(p1.read_text())
    assert report["params"]["kmax"] == 2  # from config
    assert report["params"]["samples"] == 15  # flag wins
    assert report["params"]["seed"] == 5


def test_render_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (out1, out2):
        assert main(["render", "fig5", "--out", str(out), "--depth", "6"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text


def test_render_reads_config(tmp_path):
    cfg = tmp_path / "render.conf"
    cfg.write_text("depth=4\n")
    by_flag, by_config = tmp_path / "flag.svg", tmp_path / "config.svg"
    assert main(["render", "fig1", "--out", str(by_flag), "--depth", "4"]) == 0
    assert main(["render", "fig1", "--out", str(by_config), "--config", str(cfg)]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()
    # and the config did change the figure: depth 4 is not fig1's default
    digest = hashlib.sha256(by_config.read_bytes()).hexdigest()
    assert digest != EXPECTED["digests"]["render-fig1"]


def test_render_all_figures(tmp_path):
    for fig in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "glue"):
        out = tmp_path / f"{fig}.svg"
        assert main(["render", fig, "--out", str(out), "--depth", "4"]) == 0
        assert out.stat().st_size > 200


@pytest.mark.parametrize("depth", ["0", "-1"])
@pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "glue"])
def test_render_rejects_depth_below_one(fig, depth, tmp_path, capsys):
    out = tmp_path / "f.svg"
    with pytest.raises(SystemExit) as exc:
        main(["render", fig, "--out", str(out), "--depth", depth])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"depth must be >= 1, got {depth}" in err and "Traceback" not in err
    assert not out.exists()


def test_render_glue_accepts_param(tmp_path):
    out = tmp_path / "g.svg"
    assert main(["render", "glue", "--out", str(out), "--a", "1,3"]) == 0
    assert "block 2" in out.read_text()


def test_timings_flag_populates_field(tmp_path):
    p = tmp_path / "t.json"
    main(
        [
            "verify",
            "cantor",
            "--kmax",
            "1",
            "--depth",
            "4",
            "--timings",
            "--report",
            str(p),
        ]
    )
    report = json.loads(p.read_text())
    assert "wall_s" in report["timings"]


def test_verify_distinguish_cli(capsys):
    code, out = run(
        ["verify", "distinguish", "--a", "1,4,5", "--b", "2,4,5", "--depth", "3"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["extra"]["certificate"]["k"] == 1


def test_verify_error_reported_as_failure(capsys):
    code, out = run(
        ["verify", "distinguish", "--a", "1,4", "--b", "1,4", "--depth", "2"],
        capsys,
    )
    assert code == 1
    report = json.loads(out)
    assert report["witnesses"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--a", "1,3", "--b", "1"],
        ["--a", "1", "--b", "1,4", "--kmax", "3"],
    ],
    ids=["longer-first", "longer-second"],
)
def test_verify_distinguish_unmodeled_coordinate_is_a_failure(argv, capsys):
    code = main(["verify", "distinguish", *argv])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    report = json.loads(captured.out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["pass"] is False
    assert "coordinate 2 is unmodeled" in report["witnesses"][0]["error"]
