import collections
import csv
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from minfol.cli import main, run_command
from minfol.config import load_config, validate_config
from minfol.errors import ConfigError

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "schemas",
                           "report.schema.json")
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
EXAMPLE446 = os.path.join(CONFIGS, "example446.json")


def _write(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def _validate_report(out_dir):
    import jsonschema

    with open(SCHEMA_PATH) as fh:
        schema = json.load(fh)
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    jsonschema.validate(report, schema)
    return report


class TestConfig:
    def test_minimal_certify_fills_defaults(self, tmp_path):
        cfg = load_config(_write(tmp_path, {"command": "certify", "n": 3}))
        assert cfg.params["grid_points"] == 2048
        assert cfg.params["x0_offset"] == 0.0
        assert cfg.potential["kind"] == "zero"
        assert cfg.seed == 0

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="foo"):
            load_config(_write(tmp_path, {"command": "certify", "n": 3,
                                          "foo": 1}))

    def test_unknown_nested_key_named(self):
        with pytest.raises(ConfigError, match="bar"):
            validate_config({"command": "certify", "n": 3,
                             "certify": {"bar": 1}})

    def test_certify_rejects_n2(self):
        with pytest.raises(ConfigError, match="n >= 3"):
            validate_config({"command": "certify", "n": 2})

    def test_scan_requires_n2(self):
        with pytest.raises(ConfigError):
            validate_config({"command": "scan-conjugate", "n": 3})

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e999", "-1e999",
                                         "1" + "0" * 400],
                             ids=["Infinity", "-Infinity", "NaN", "1e999", "-1e999", "1e400-int"])
    def test_non_finite_number_rejected(self, tmp_path, literal):
        path = tmp_path / "bad.json"
        path.write_text('{"command": "scan-conjugate", "n": 2, "scan": {"t_end": %s}}'
                        % literal)
        with pytest.raises(ConfigError, match=literal.lstrip("-")):
            load_config(str(path))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"command": "certify",\n  "n": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="command"):
            validate_config({"command": "dance"})

    def test_bump_spec_validated(self):
        with pytest.raises(ConfigError, match="width"):
            validate_config({"command": "certify", "n": 3,
                             "potential": {"kind": "product",
                                           "f": {"center": 0.0,
                                                 "amplitude": 1.0},
                                           "g": {"center": 2.0, "width": 1.0,
                                                 "amplitude": 1.0}}})


class TestRunCommand:
    def test_certify_zero_potential(self, tmp_path):
        cfg = load_config(_write(tmp_path, {"command": "certify", "n": 3}))
        out = str(tmp_path / "out")
        code, report = run_command(cfg, out)
        assert code == 0
        assert report["verdict"] == "certified"
        rep = _validate_report(out)
        assert math.isfinite(rep["results"]["condition_A"]["margin"])

    def test_scan_zero_potential_exits_1(self, tmp_path):
        cfg = load_config(_write(tmp_path, {
            "command": "scan-conjugate", "n": 2,
            "scan": {"u0": [-0.2, 0.2, 3], "p0": [-0.2, 0.2, 3],
                     "t_start": -1.0}}))
        out = str(tmp_path / "out")
        code, report = run_command(cfg, out)
        assert code == 1
        assert report["verdict"] == "no-conjugate-points"
        with open(os.path.join(out, "findings.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["u0", "p0", "t1", "t2"]]
        _validate_report(out)

    def test_foliate_family_csv_shape(self, tmp_path):
        alphas = [-0.2, 0.2, 5]
        cfg = load_config(_write(tmp_path, {
            "command": "foliate", "n": 3,
            "foliate": {"alphas": alphas, "r_min": 0.01}}))
        out = str(tmp_path / "out")
        code, report = run_command(cfg, out)
        assert code == 0 and report["verdict"] == "ordered"
        with open(os.path.join(out, "family.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) == 1 + 5
        assert all(len(row) == len(rows[0]) for row in rows)
        _validate_report(out)

    def test_csv_is_crlf_terminated(self, tmp_path):
        cfg = load_config(_write(tmp_path, {
            "command": "scan-conjugate", "n": 2,
            "scan": {"u0": [0.0], "p0": [0.0], "t_start": -1.0}}))
        out = str(tmp_path / "out")
        run_command(cfg, out)
        raw = open(os.path.join(out, "findings.csv"), "rb").read()
        assert raw.endswith(b"\r\n")

    def test_rerun_is_byte_identical(self, tmp_path):
        data = {"command": "hardy-check", "n": 3, "seed": 11,
                "hardy": {"n_list": [3], "num_random": 3}}
        path = _write(tmp_path, data)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["--config", path, "--out", out]) == 0
            outs.append(out)
        for fname in ("report.json", "results.csv"):
            a = open(os.path.join(outs[0], fname), "rb").read()
            b = open(os.path.join(outs[1], fname), "rb").read()
            assert a == b

    def test_scan_diagnostics_rerun_is_byte_identical(self, tmp_path):
        data = {"command": "scan-conjugate", "n": 2,
                "potential": {"kind": "product",
                              "f": {"center": 0.0, "width": 1.0,
                                    "amplitude": -6.0},
                              "g": {"center": 2.0, "width": 1.0,
                                    "amplitude": 1.0}},
                "scan": {"u0": [-0.5, 0.5, 3], "p0": [-0.5, 0.5, 3],
                         "t_start": -2.0, "n_slide": 2}}
        path = _write(tmp_path, data)
        raw = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["--config", path, "--out", out]) == 0
            raw.append(open(os.path.join(out, "report.json"), "rb").read())
        assert raw[0] == raw[1]
        diag = _validate_report(str(tmp_path / "a"))["results"]["diagnostics"]
        assert diag["failures_by_type"] == {}
        assert 0 < diag["max_accepted_steps_per_cell"] < diag["accepted_steps"]
        assert diag["stage_evaluations"] > 12 * diag["accepted_steps"]
        check = diag["verification"]
        assert sorted(check) == ["accepted_steps", "rejected_steps",
                                 "stage_evaluations"]
        # the check steps at a 64th of the strip width, the scan at an eighth
        assert check["accepted_steps"] > diag["accepted_steps"]
        assert check["stage_evaluations"] > 12 * check["accepted_steps"]
        timing = open(os.path.join(str(tmp_path / "a"), "timing.txt")).read()
        # the verification steps in the scan's batches, so scan_seconds holds it
        assert [line.split("=")[0] for line in timing.splitlines()] == [
            "wall_clock_seconds", "scan_seconds"]

    def test_example446_rerun_is_byte_identical(self, tmp_path):
        raw = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["--config", EXAMPLE446, "--out", out]) == 0
            raw.append([open(os.path.join(out, f), "rb").read()
                        for f in ("report.json", "leaves.csv")])
        assert raw[0] == raw[1]
        diag = _validate_report(str(tmp_path / "a"))["results"]["diagnostics"]
        assert sorted(diag) == ["leaves"]
        for work in diag.values():
            assert sorted(work) == ["accepted_steps", "rejected_steps",
                                    "stage_evaluations"]
            assert work["stage_evaluations"] > 12 * work["accepted_steps"] > 0
        timing = open(os.path.join(str(tmp_path / "a"), "timing.txt")).read()
        assert [line.split("=")[0] for line in timing.splitlines()] == [
            "wall_clock_seconds", "flow_seconds", "residual_seconds"]

    def test_seed_changes_random_draws(self, tmp_path):
        data = {"command": "hardy-check", "n": 3,
                "hardy": {"n_list": [3], "num_random": 3}}
        path = _write(tmp_path, data)
        reports, lhs = [], []
        for seed, name in ((1, "a"), (2, "b")):
            out = str(tmp_path / name)
            main(["--config", path, "--out", out, "--seed", str(seed)])
            reports.append(json.load(open(os.path.join(out, "report.json"))))
            with open(os.path.join(out, "results.csv"), newline="") as fh:
                lhs.append({row[1]: row[2] for row in list(csv.reader(fh))[1:]})
        assert lhs[0]["closed-form"] == lhs[1]["closed-form"]
        random_cases = ["random-%d" % k for k in range(3)]
        assert all(lhs[0][case] != lhs[1][case] for case in random_cases)
        assert reports[0]["config"]["seed"] == 1

    def test_timing_sidecar_exists(self, tmp_path):
        cfg = load_config(_write(tmp_path, {"command": "certify", "n": 3}))
        out = str(tmp_path / "out")
        run_command(cfg, out)
        assert os.path.exists(os.path.join(out, "timing.txt"))


@pytest.mark.parametrize("name, phases", [
    ("certify", ["condition_A_seconds", "condition_B_seconds"]),
    ("solve", ["flow_seconds", "csv_seconds"]),
    ("foliate", ["family_seconds"]),
    ("hardy-check", ["checks_seconds"])])
def test_timing_has_the_phase_times(tmp_path, name, phases):
    out = str(tmp_path / "out")
    code, report = run_command(load_config(os.path.join(CONFIGS, name + ".json")), out)
    assert code == 0, report["verdict"]
    lines = open(os.path.join(out, "timing.txt")).read().splitlines()
    assert [line.split("=")[0] for line in lines] == ["wall_clock_seconds"] + phases
    seconds = [float(line.split("=")[1]) for line in lines]
    # the phases run inside the timed command; %.6f rounds each value
    assert min(seconds) >= 0 and sum(seconds[1:]) <= seconds[0] + 1e-5


@pytest.mark.parametrize("name", ["scan-conjugate", "rigidity-scaling", "foliate",
                                  "example446"])
def test_no_command_runs_the_curvature_search(tmp_path, monkeypatch, name):
    # only the Riccati checks and the scan's Sturm step check read K, the
    # scan once per run
    from minfol.potential import k_constant

    calls = []

    def counted(w):
        calls.append(w)
        return k_constant(w)

    monkeypatch.setattr("minfol.potential.k_constant", counted)
    monkeypatch.setattr("minfol.rigidity.k_constant", counted)
    cfg = load_config(os.path.join(CONFIGS, name + ".json"))
    code, report = run_command(cfg, str(tmp_path / "out"))
    assert code == 0, report["verdict"]
    assert len(calls) == (name == "scan-conjugate")


@pytest.mark.parametrize("command", ["scan-conjugate", "rigidity-scaling", "certify",
                                     "solve", "foliate"])
def test_n2_commands_need_a_radial_potential(tmp_path, capsys, command):
    data = json.load(open(EXAMPLE446))
    data["command"] = command
    data["n"] = 3 if command in ("certify", "foliate") else 2
    data.pop("example446")
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "radial potential" in err
    assert not os.path.exists(out / "report.json")


def _shipped(name, **changes):
    """configs/<name>.json with changes; a dict value updates a section."""
    data = json.load(open(os.path.join(CONFIGS, name + ".json")))
    for key, value in changes.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key].update(value)
        else:
            data[key] = value
    return data


_PRODUCT = json.load(open(os.path.join(CONFIGS, "certify.json")))["potential"]
_KINDLESS = {k: v for k, v in _PRODUCT.items() if k != "kind"}


@pytest.mark.parametrize("data", [
    # f, g and scale of a potential without a kind, which is zero
    {"command": "certify", "n": 3, "potential": dict(_KINDLESS, scale=10.0)},
    _shipped("certify", scan={"t_start": -1.0}),
    _shipped("certify", integrator={"rel_tol": 1e-12}),
    _shipped("rigidity-scaling", integrator={"rel_tol": 1e-12}),
    _shipped("example446", integrator={"rel_tol": 1e-12}),
    _shipped("hardy-check", integrator={"rel_tol": 1e-12}),
    _shipped("hardy-check", potential={"kind": "zero"}),
    _shipped("foliate", potential=json.load(open(EXAMPLE446))["potential"]),
    _shipped("certify", potential={"kind": "zero", "scale": 2.0}),
    _shipped("certify", potential=dict(_PRODUCT, variant="auto")),
    _shipped("certify", n=3.9),
    _shipped("certify", n=True),
    _shipped("hardy-check", seed=2.7),
    _shipped("certify", certify={"grid_points": 64.9}),
    _shipped("hardy-check", hardy={"n_list": [3.5, 4]}),
    _shipped("hardy-check", hardy={"num_random": 2.5}),
    _shipped("scan-conjugate", scan={"n_slide": 1.7}),
    _shipped("scan-conjugate", scan={"t_start": "abc"}),
    _shipped("solve", solve={"u0": True}),
    _shipped("certify", potential=dict(_PRODUCT, f={"center": "0", "width": 1.0,
                                                    "amplitude": 1.0})),
    _shipped("solve", integrator={"max_step": 0}),
    _shipped("solve", integrator={"max_step": -1}),
], ids=["kindless-product", "foreign-section", "integrator-certify",
        "integrator-scaling", "integrator-example446", "integrator-hardy",
        "potential-hardy", "foliate-example446", "scale-on-zero",
        "variant-on-product", "n-float", "n-bool", "seed-float",
        "grid_points-float", "n_list-float", "num_random-float",
        "n_slide-float", "t_start-string", "u0-bool", "bump-string",
        "max_step-0", "max_step-negative"])
def test_key_the_command_does_not_read_is_2_without_report(tmp_path, capsys, data):
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("data", [
    _shipped("scan-conjugate", scan={"t_end": "abc"}),
    _shipped("solve", solve={"r0": 0}),
    _shipped("solve", solve={"r_end": -1.0}),
    _shipped("solve", solve={"r0": "6"}),
    _shipped("foliate", foliate={"r_start": 0.0}),
    _shipped("foliate", foliate={"r_end": True}),
    _shipped("foliate", foliate={"r_min": 0.0}),
    _shipped("foliate", foliate={"r_min": -1.0}),
    _shipped("scan-conjugate", scan={"u0": [-0.5, 0.5, 1]}),
    _shipped("scan-conjugate", scan={"p0": [-0.5, 0.5, 0]}),
    _shipped("foliate", foliate={"alphas": []}),
    _shipped("foliate", foliate={"alphas": [0.1, "0.2"]}),
    _shipped("example446", example446={"u0_grid": [-0.5, 0.5, -3]}),
    _shipped("example446", example446={"u0_grid": 0.5}),
    _shipped("solve", solve={"samples": 0}),
    _shipped("solve", solve={"samples": -3}),
    _shipped("hardy-check", hardy={"r1": 4.0, "r2": 0.1}),
    _shipped("hardy-check", hardy={"rel_tol": -1.0}),
    _shipped("hardy-check", hardy={"num_random": -3}),
    _shipped("hardy-check", hardy={"num_random": 0, "n_list": [5]}),
    _shipped("certify", certify={"grid_points": 0}),
    _shipped("certify", certify={"grid_points": -5}),
    _shipped("certify", certify={"grid_points": 1}),
    _shipped("foliate", foliate={"alphas": [0.25]}),
    _shipped("example446", example446={"u0_grid": [0.0]}),
    _shipped("solve", integrator={"event_tol": 1e-12}),
], ids=["t_end-string", "r0-0", "r_end-negative", "r0-string", "r_start-0",
        "r_end-bool", "r_min-0", "r_min-negative", "u0-count-1", "p0-count-0",
        "alphas-empty", "alphas-string", "u0_grid-count-negative", "u0_grid-number",
        "samples-0", "samples-negative", "hardy-r1-above-r2", "hardy-rel_tol-negative",
        "hardy-num_random-negative", "hardy-no-check", "grid_points-0",
        "grid_points-negative", "grid_points-1", "alphas-one-leaf", "u0_grid-one-leaf",
        "event_tol"])
def test_bad_radius_end_time_or_grid_is_2_without_report(tmp_path, capsys, data):
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "report.json").exists()
    assert not out.exists()   # a config error writes no artifact


def test_repeated_u0_is_2_without_report(tmp_path, capsys):
    data = _shipped("example446", example446={"u0_grid": [-0.5, 0.0, 0.0, 0.5]})
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "report.json").exists()
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("family, radius", [("N_A", {"r_min": 50.0}), ("N_A", {"r_start": 0.5}),
                                            ("M_A", {"r_end": 0.5})],
                         ids=["N_A-outward", "N_A-inside-r_outer", "M_A-inside-r_inner"])
def test_foliate_span_that_pins_nothing_is_2_without_report(tmp_path, capsys, family, radius):
    data = _shipped("foliate", foliate=dict(radius, family=family))
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "report.json").exists()


def test_a_report_that_cannot_be_written_leaves_no_file(tmp_path):
    from minfol.reporting import write_report

    with pytest.raises(ValueError, match="JSON compliant"):
        write_report({"min_gap": math.inf}, str(tmp_path), wall_clock=0.0)
    assert not (tmp_path / "report.json").exists()


def test_three_values_ending_in_a_float_are_values_and_a_radius_is_kept(tmp_path):
    from minfol.config import grid

    params = validate_config(_shipped("scan-conjugate", scan={
        "u0": [-0.5, 0.5, 1.0], "p0": [0.0, 0.5, 2]})).params
    assert grid(params["u0"]).tolist() == [-0.5, 0.5, 1.0]
    assert grid(params["p0"]).tolist() == [0.0, 0.5]
    code, report = run_command(validate_config(_shipped("solve", solve={"r0": 4.5})),
                               str(tmp_path / "out"))
    assert code == 0 and report["results"]["r0"] == report["config"]["solve"]["r0"] == 4.5


def _fmt(x) -> str:
    """The CSV field form the writers must keep: a float's (or np.float64's)
    shortest round-trip repr, str of anything else."""
    return repr(float(x)) if isinstance(x, float) else str(x)


def _per_sample_trajectory_csv(traj, path, samples):
    """The oracle: trajectory.csv written one state read and one scalar H per
    sample time."""
    from minfol.odeflow import PhaseState, hamiltonian_value
    from minfol.reporting import write_csv

    rows = []
    for t in np.linspace(traj.t_min, traj.t_max, samples):
        u, p = traj.state(float(t))
        h = hamiltonian_value(traj.w, PhaseState(u=u, p=p, t=float(t)))
        rows.append((float(t), math.exp(float(t)), u, p, h))
    write_csv(path, ("t", "r", "u", "p", "H"), rows)


@pytest.mark.parametrize("data", [
    _shipped("solve"), _shipped("solve", n=2, solve={"r0": 0.05, "r_end": 40.0})],
    ids=["shipped", "n2-forward"])
def test_trajectory_csv_matches_the_per_sample_oracle(tmp_path, data):
    from dataclasses import replace

    from minfol.config import build_potential
    from minfol.odeflow import integrate_radial_ivp

    cfg = validate_config(data)
    out = str(tmp_path / "out")
    assert run_command(cfg, out)[0] == 0
    p = cfg.params
    traj = integrate_radial_ivp(build_potential(cfg), cfg.n, p["r0"], p["u0"], p["du0"],
                                replace(cfg.integrator,
                                        t_range=(math.log(p["r0"]), math.log(p["r_end"]))))
    assert traj.t_max - traj.t_min > 5.0 and (cfg.n == 2) == (p["r0"] < p["r_end"])
    path = str(tmp_path / "oracle.csv")
    _per_sample_trajectory_csv(traj, path, p["samples"])
    assert open(os.path.join(out, "trajectory.csv"), "rb").read() == open(path, "rb").read()


def test_write_csv_matches_the_repr_oracle(tmp_path):
    import io

    from minfol.reporting import write_csv

    rng = np.random.default_rng(5)
    floats = rng.uniform(-1.0, 1.0, 4000) * 10.0 ** rng.uniform(-30.0, 30.0, 4000)
    special = [0.0, -0.0, 1e16, 1e-5, math.nan, math.inf, -math.inf, 0.1, 1 / 3, 5e-324]
    rows = [[3, "random-0", np.int64(7), True] + special + list(map(np.float64, special)),
            floats.tolist(), list(floats), np.column_stack([floats[:3], floats[3:6]]).tolist()]
    header = ("n", "case", "x")
    oracle = io.StringIO(newline="")
    writer = csv.writer(oracle)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    path = str(tmp_path / "rows.csv")
    write_csv(path, header, rows)
    assert open(path, "rb").read() == oracle.getvalue().encode("utf-8")


def test_write_csv_writes_rows_that_need_quoting_as_csv_does(tmp_path):
    import io

    from minfol.reporting import write_csv

    header = ("a", "b")
    rows = [(1.5, "plain"), ('say "hi"', 2), ("two\nlines", 3), ("cr\r", 4),
            (None, 5.0), ("None", 6), ("x,y", 7), [""], [], [(1, 2)], (np.float64(0.1), -0.0)]
    oracle = io.StringIO(newline="")
    writer = csv.writer(oracle)
    writer.writerow(header)
    writer.writerows(rows)
    path = str(tmp_path / "rows.csv")
    write_csv(path, header, iter(rows))
    assert open(path, "rb").read() == oracle.getvalue().encode("utf-8")


def test_hardy_and_certify_report_their_quadrature_orders(tmp_path):
    from minfol.certify import hardy_identity_check
    from minfol.cli import _random_test_function
    from minfol.quadrature import ORDERS

    data = {"command": "hardy-check", "n": 3, "seed": 4,
            "hardy": {"n_list": [3, 5], "num_random": 4}}
    out = str(tmp_path / "hardy")
    code, report = run_command(validate_config(data), out)
    assert code == 0
    cfg = validate_config(data).params
    rng = np.random.default_rng(4)
    orders = list(hardy_identity_check(lambda r: 1.0 - r, 3, 0.0, 1.0,
                                       dxi=lambda r: -1.0).orders)
    for n in (3, 5):
        for _ in range(4):
            xi = _random_test_function(rng, float(cfg["r1"]), float(cfg["r2"]))
            orders += hardy_identity_check(xi, n, float(cfg["r1"]), float(cfg["r2"])).orders
    assert report["results"]["diagnostics"] == {"integrals": 18,
                                                "highest_order": max(orders)}
    assert set(orders) <= set(ORDERS)
    with open(os.path.join(out, "results.csv"), newline="") as fh:
        assert {len(row) for row in csv.reader(fh)} == {5}

    code, report = run_command(load_config(os.path.join(CONFIGS, "certify.json")),
                               str(tmp_path / "certify"))
    results = report["results"]
    assert results["condition_B"]["quadrature_order"] in ORDERS
    assert "quadrature_order" not in results["condition_A"]


@pytest.mark.parametrize("seed", [0, 3, 11, 2024])
def test_random_test_function_draws_as_rng_choice(seed):
    # the sign is (-1.0, 1.0)[rng.integers(0, 2)]: the draw rng.choice makes
    from minfol.cli import _random_test_function
    from minfol.potential import make_bump

    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    signs = set()
    for _ in range(200):
        bump = _random_test_function(rng, 0.1, 4.0)
        width = oracle.uniform(0.05 * 3.9, 0.45 * 3.9)
        center = oracle.uniform(0.1 + width, 4.0 - width)
        amplitude = oracle.uniform(0.2, 2.0) * oracle.choice((-1.0, 1.0))
        assert bump == make_bump(center, width, amplitude)
        assert float(bump.amplitude).hex() == float(amplitude).hex()
        signs.add(math.copysign(1.0, bump.amplitude))
    assert signs == {-1.0, 1.0}
    assert rng.bit_generator.state == oracle.bit_generator.state


def test_integer_is_a_number_and_max_step_is_echoed(tmp_path):
    data = _shipped("solve", solve={"u0": 0, "du0": 0}, integrator={"max_step": 1})
    cfg = validate_config(data)
    assert cfg.params["u0"] == 0 and cfg.integrator.max_step == 1.0
    assert cfg.raw["integrator"]["max_step"] == 1.0
    assert "max_step" not in validate_config(_shipped("solve")).raw["integrator"]


def test_commands_runners_and_schema_agree():
    from minfol import cli, config

    with open(SCHEMA_PATH) as fh:
        schema = json.load(fh)
    assert set(cli._RUNNERS) == set(config.COMMANDS) \
        == set(schema["properties"]["command"]["enum"])


def test_importing_the_cli_loads_no_jacobi_module():
    # no command reads a Jacobi field, so a CLI process does not import one
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "import sys, minfol.cli; print('minfol.jacobi' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


class TestMainExitCodes:
    def test_missing_config_is_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "none.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config_is_2(self, tmp_path, capsys):
        path = _write(tmp_path, {"command": "certify", "n": 2})
        assert main(["--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_infinite_t_end_is_2_without_artifacts(self, tmp_path, capsys):
        # json.load reads Infinity; the scan would run and fail on writing
        data = json.load(open(os.path.join(CONFIGS, "scan-conjugate.json")))
        data["scan"]["t_end"] = math.inf
        out = tmp_path / "out"
        assert main(["--config", _write(tmp_path, data), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "report.json").exists()
        assert not (out / "findings.csv").exists()


def test_solve_inside_the_support_is_2_without_artifacts(tmp_path, capsys):
    # the outer fit needs samples beyond the support; it runs before any write
    data = _shipped("solve", solve={"r0": 2.5, "r_end": 1.5})
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: trajectory does not extend beyond the support\n"
    assert list(out.iterdir()) == []


def _forbid_solve_ivp(monkeypatch):
    # every command steps on minfol's own batched DOP853
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_ivp called")

    monkeypatch.setattr("scipy.integrate.solve_ivp", forbidden)


def test_shipped_configs_make_no_solve_ivp_call(tmp_path, monkeypatch):
    # scan-conjugate and example446 have their own tests below
    _forbid_solve_ivp(monkeypatch)
    names = sorted(f[:-5] for f in os.listdir(CONFIGS) if f.endswith(".json")
                   and f not in ("scan-conjugate.json", "example446.json"))
    assert len(names) == 5
    reports = {}
    for name in names:
        code, reports[name] = run_command(load_config(os.path.join(CONFIGS, name + ".json")),
                                          str(tmp_path / name))
        assert code == 0, name
    for name in ("solve", "foliate"):
        work = reports[name]["results"]["diagnostics"]
        assert work["stage_evaluations"] > 12 * work["accepted_steps"] > 0
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "minfol"]
    assert len(modules) > 10 and not any(hasattr(m, "solve_ivp") for m in modules)


class TestExample446:
    @pytest.mark.parametrize("params", [{"u0_grid": []}, {"fd_step": 0},
                                        {"fd_step": -0.001}, {"fd_step": 0.6}])
    def test_bad_input_is_2_without_report(self, tmp_path, capsys, params):
        data = json.load(open(EXAMPLE446))
        data["example446"].update(params)
        out = tmp_path / "out"
        assert main(["--config", _write(tmp_path, data), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out / "report.json")

    def test_shipped_run_makes_no_solve_ivp_call(self, tmp_path, monkeypatch):
        _forbid_solve_ivp(monkeypatch)
        out = str(tmp_path / "out")
        assert main(["--config", EXAMPLE446, "--out", out]) == 0
        results = _validate_report(out)["results"]
        assert results["variant"] == "chain-rule" and results["crossings"] == 0


def _nan_curvature(w, u_max=0.3):
    """w with W''_uu = NaN for u > u_max: a cell that gets there fails."""
    def d2w_duu(u, t):
        return np.where(np.asarray(u) > u_max, np.nan, w.d2w_duu(u, t))

    views = (w.w, w.dw_du, d2w_duu, w.dw_dt)
    return SimpleNamespace(w=w.w, dw_du=w.dw_du, d2w_duu=d2w_duu, dw_dt=w.dw_dt,
                           jet=lambda u, t, orders: [views[o](u, t) for o in orders],
                           u_bound=w.u_bound, t_lower=w.t_lower,
                           t_upper=w.t_upper, k_curvature=w.k_curvature)


class TestScanFailures:
    CONFIG = {"command": "scan-conjugate", "n": 2,
              "scan": {"u0": [-0.2, 0.2, 3], "p0": [-0.2, 0.2, 3],
                       "t_start": -1.0}}
    SHIPPED = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "scan-conjugate.json")

    def test_all_cells_failing_is_2_without_report(self, tmp_path,
                                                   monkeypatch):
        from minfol.errors import IntegrationFailureError

        def fail(*args, **kwargs):
            raise IntegrationFailureError("injected")

        monkeypatch.setattr("minfol.rigidity.integrate_legs", fail)
        out = tmp_path / "out"
        assert main(["--config", _write(tmp_path, self.CONFIG),
                     "--out", str(out)]) == 2
        assert not (out / "report.json").exists()

    def test_unexpected_error_is_not_a_cell_failure(self, monkeypatch,
                                                    flat_log):
        from minfol.rigidity import conjugate_point_scan

        def fail(*args, **kwargs):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr("minfol.rigidity.integrate_legs", fail)
        with pytest.raises(ZeroDivisionError):
            conjugate_point_scan(flat_log, [0.0, 0.1], [0.0], -1.0, 2.0)

    def test_nan_curvature_fails_only_its_cells(self, strong_log):
        from minfol.rigidity import conjugate_point_scan

        bad = _nan_curvature(strong_log)
        grid = np.linspace(-0.5, 0.5, 5)
        t_end = strong_log.t_upper + 10.0
        rep = conjugate_point_scan(bad, grid, grid, -2.0, t_end)
        clean = conjugate_point_scan(strong_log, grid, grid, -2.0, t_end)
        failed = {(u0, p0) for u0, p0, _, _ in rep.failures}
        assert 0 < len(failed) < 25
        assert rep.diagnostics["failures_by_type"] == {
            "IntegrationFailureError": len(failed)}
        assert not clean.failures
        expected = {(f.u0, f.p0): f.t2 for f in clean.findings
                    if (f.u0, f.p0) not in failed}
        assert {(f.u0, f.p0): f.t2 for f in rep.findings} == expected

    def test_failed_verification_is_2_without_artifacts(self, tmp_path,
                                                       monkeypatch):
        from minfol.errors import IntegrationFailureError
        from minfol.odeflow import IntegratorConfig
        from minfol.rigidity import integrate_legs

        def fail_the_copies(w, t0, y0, t_end, cfgs, *args):
            # every cell at other settings than the scan's is a verification copy
            res = integrate_legs(w, t0, y0, t_end, cfgs, *args)
            res.failures = [IntegrationFailureError("injected") if c != IntegratorConfig()
                            else exc for c, exc in zip(cfgs, res.failures)]
            return res

        monkeypatch.setattr("minfol.rigidity.integrate_legs", fail_the_copies)
        out = tmp_path / "out"
        assert main(["--config", self.SHIPPED, "--out", str(out)]) == 2
        assert os.listdir(out) == []

    def test_shipped_scan_makes_no_solve_ivp_call(self, tmp_path, monkeypatch):
        _forbid_solve_ivp(monkeypatch)
        out = str(tmp_path / "out")
        assert main(["--config", self.SHIPPED, "--out", out]) == 0
        report = _validate_report(out)
        assert report["results"]["num_findings"] == 87
        assert max(f["verification_residual"]
                   for f in report["results"]["findings"]) < 1e-6

    @pytest.mark.parametrize("n_slide", [1, 2])
    def test_scan_steps_one_batch_per_slide(self, tmp_path, monkeypatch, n_slide):
        # the verification copies step beside the scan's cells
        from minfol import odeflow

        widths, core = [], odeflow._dop853_batch

        def counted(*args, **kwargs):
            widths.append(args[3].shape[1])
            return core(*args, **kwargs)

        monkeypatch.setattr(odeflow, "_dop853_batch", counted)
        data = json.load(open(self.SHIPPED))
        data["scan"]["n_slide"] = n_slide
        out = str(tmp_path / "out")
        assert main(["--config", _write(tmp_path, data), "--out", out]) == 0
        assert widths == [2 * 121] * n_slide
        diag = _validate_report(out)["results"]["diagnostics"]
        assert diag["strip_step_over_zero_spacing"] == pytest.approx(0.655, abs=5e-4)


class TestScaling:
    SHIPPED = os.path.join(CONFIGS, "rigidity-scaling.json")

    @pytest.mark.parametrize("params", [
        {"convergence_pair": [64]}, {"convergence_pair": [128, 64]},
        {"convergence_pair": [64, 64]}, {"convergence_pair": [0, 64]},
        {"convergence_pair": [64, 128.5]}, {"N_list": [4, 8, 16.5]},
        {"N_list": [4, 8]}, {"N_list": [8, 4, 16]}, {"N_list": [0, 4, 8]},
        {"N_list": [4, 8, True]}, {"quad_tol": -1}, {"quad_tol": 0},
        {"quad_tol": "1e-12"}])
    def test_bad_section_is_2_without_artifacts(self, tmp_path, capsys, params):
        data = json.load(open(self.SHIPPED))
        data["scaling"].update(params)
        out = tmp_path / "out"
        assert main(["--config", _write(tmp_path, data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "scaling." in err
        assert not (out / "report.json").exists()
        assert not (out / "scaling.csv").exists()

    def _count_passes(self, monkeypatch):
        """Counts of ProductPotential.jet calls (the shipped potential's
        family) by (the rule's order, the u-rows read, derivatives) and of
        tensor quadratures."""
        from minfol import rigidity
        from minfol.potential import ProductPotential

        jets, quads = collections.Counter(), []
        jet, quad_2d = ProductPotential.jet, rigidity.quad_2d

        def counted_jet(self, u, t, orders):
            jets[t.size, u.shape[0], orders] += 1   # t is the rule's row of nodes
            return jet(self, u, t, orders)

        def counted_quad(*args):
            quads.append(args[1:])
            return quad_2d(*args)

        monkeypatch.setattr(ProductPotential, "jet", counted_jet)
        monkeypatch.setattr(rigidity, "quad_2d", counted_quad)
        return jets, quads

    def test_shipped_run_passes_once_per_order(self, tmp_path, monkeypatch):
        jets, quads = self._count_passes(monkeypatch)
        out = str(tmp_path / "out")
        assert main(["--config", self.SHIPPED, "--out", out]) == 0
        results = _validate_report(out)["results"]
        # one jet of W, W_u, W_t per order on the ladder up to the highest
        diag = results["diagnostics"]
        assert diag == {"quadratures": 8, "integrand_evaluations": 4,
                        "highest_order": 192}
        # the potential is even in u: each jet reads half the order's rows
        assert jets == {(order, order // 2, (0, 1, 3)): 1 for order in (24, 48, 96, 192)}
        # N = 1, 2 (the crossover), the list and the pair: N = 1 once, though
        # both the crossover search and the discriminant read it
        assert results["crossover_N"] == 2
        assert len(quads) == diag["quadratures"] == len({1, 2, 4, 8, 16, 32, 64, 128})
        # the crossover margins read N = 1 and 2 again without a quadrature
        assert [m["N"] for m in results["crossover_margins"]] == [1, 2]
        timing = open(os.path.join(out, "timing.txt")).read()
        assert [line.split("=")[0] for line in timing.splitlines()] == [
            "wall_clock_seconds", "fit_seconds", "convergence_seconds",
            "discriminant_seconds"]

    def test_crossover_margins_read_the_fit_sides(self, tmp_path):
        from minfol.config import build_potential
        from minfol.rigidity import rescaled_inequality_sides

        cfg = load_config(self.SHIPPED)
        _, report = run_command(cfg, str(tmp_path / "out"))
        w = build_potential(cfg)
        expected = []
        for N in (1, 2):
            lhs, rhs = rescaled_inequality_sides(w, N, 1e-12)
            expected.append({"N": N, "margin": (rhs - lhs) / rhs})
        margins = report["results"]["crossover_margins"]
        assert margins == expected
        assert margins[0]["margin"] > 0 > margins[1]["margin"]

    @pytest.mark.parametrize("case", ["zero", "crossover-1", "no-crossover"])
    def test_crossover_margins_are_null_without_a_holding_N(self, tmp_path, monkeypatch,
                                                            case):
        from minfol import rigidity

        data = json.load(open(self.SHIPPED))
        if case == "zero":
            data["potential"] = {"kind": "zero"}
        elif case == "crossover-1":   # catalog.narrow_bump: fails at N = 1
            data["potential"]["f"] = {"center": 0.0, "width": 0.4, "amplitude": -1.5}
            data["potential"]["g"] = {"center": 2.0, "width": 1.0, "amplitude": 1.0}
        else:   # _wide_shell of test_rigidity holds to N = 20; stop the search at 16
            data["potential"]["f"] = {"center": 0.0, "width": 2.0, "amplitude": 0.2}
            data["potential"]["g"] = {"center": 2.0, "width": 0.1, "amplitude": 0.1}
            data["scaling"]["N_list"] = [2, 4, 8]
            monkeypatch.setattr(rigidity, "_MAX_SEARCH_N", 16)
        out = str(tmp_path / "out")
        # a fit without a crossover is not a confirmed scaling law
        assert main(["--config", _write(tmp_path, data), "--out", out]) == \
            {"zero": 1, "crossover-1": 0, "no-crossover": 1}[case]
        results = _validate_report(out)["results"]
        assert results["crossover_N"] == {"zero": None, "crossover-1": 1,
                                          "no-crossover": None}[case]
        assert results["crossover_margins"] is None

    def test_runs_share_no_passes(self, tmp_path, monkeypatch):
        jets, quads = self._count_passes(monkeypatch)
        cfg = load_config(self.SHIPPED)
        run_command(cfg, str(tmp_path / "a"))
        first = dict(jets)
        run_command(cfg, str(tmp_path / "b"))
        assert jets == {key: 2 * n for key, n in first.items()}
        assert len(quads) == 16
        for f in ("report.json", "scaling.csv"):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
