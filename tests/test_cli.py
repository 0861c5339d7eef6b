import dataclasses
import json
import warnings

import pytest

from gravwitness import gravfield, sweep as sweep_mod
from gravwitness.cli import build_parser, main
from gravwitness.core import (ConfigConsistencyWarning, config_from_dict,
                              paper_defaults, validate)
from gravwitness.gravphase import BRANCHES
from gravwitness.spinstate import negativity
from gravwitness.sweep import SweepAxis, SweepSpec, run_sweep


def run_cli(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_defaults_round_trips_validate(capsys):
    code, out, _ = run_cli(capsys, "defaults")
    assert code == 0
    data = json.loads(out)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        cfg = config_from_dict(data)
    assert cfg.tau == 2.5


def test_witness_payload_keys(capsys):
    code, out, _ = run_cli(capsys, "witness", "--paper-defaults")
    assert code == 0
    data = json.loads(out)
    for key in ("dPhiLR", "dPhiRL", "w", "wOptimized", "negativity",
                "feasibility"):
        assert key in data
    assert data["feasibility"]["feasible"] is True
    assert data["negativity"] == pytest.approx(0.0781617306618, rel=1e-9)


def test_phases_with_dynamic(capsys):
    code, out, _ = run_cli(capsys, "phases", "--paper-defaults",
                           "--dynamic-steps", "200")
    data = json.loads(out)
    assert code == 0
    assert data["dynamic"]["dPhiRL"] >= data["dPhiRL"]


def test_state_payload(capsys):
    code, out, _ = run_cli(capsys, "state", "--paper-defaults")
    data = json.loads(out)
    assert code == 0
    assert data["purity"] == pytest.approx(1.0, abs=1e-12)
    assert len(data["rhoRe"]) == 4 and len(data["rhoIm"]) == 4


def test_constraints_and_decoherence(capsys):
    code, out, _ = run_cli(capsys, "constraints", "--paper-defaults")
    assert code == 0
    assert json.loads(out)["feasible"] is True
    code, out, _ = run_cli(capsys, "decoherence", "--paper-defaults")
    assert code == 0
    assert json.loads(out)["tauColl"] == pytest.approx(23.4025, rel=1e-4)


def test_field_convergence(capsys):
    code, out, _ = run_cli(capsys, "field", "--paper-defaults",
                           "--n-modes", "1000")
    data = json.loads(out)
    assert code == 0
    assert data["convergence"][-1]["ratio"] == pytest.approx(1.0, abs=0.05)
    assert data["negativityClassicalized"] == 0.0
    assert data["minOverlapMagnitude"] >= 1 - 1e-6


def test_field_table_is_the_same_at_every_point(capsys):
    tables = []
    for d in ("4.5e-4", "7e-4"):
        code, out, _ = run_cli(capsys, "field", "--paper-defaults",
                               "--n-modes", "400", "--set", f"d={d}")
        assert code == 0
        tables.append(json.loads(out)["convergence"])
    assert [row["ratio"] for row in tables[0]] == \
        [row["ratio"] for row in tables[1]]
    assert tables[0][0]["newtonian"] != tables[1][0]["newtonian"]
    for row in tables[0] + tables[1]:
        assert row["phase"] == row["newtonian"] * row["ratio"]


def test_field_at_an_underflowing_time(capsys):
    # G m1 m2 t underflows to 0: the table reads phase 0 and its ratio
    code, out, err = run_cli(capsys, "field", "--paper-defaults",
                             "--n-modes", "200", "--time", "1e-300")
    assert code == 0, err
    rows = json.loads(out)["convergence"]
    assert all(row["newtonian"] == 0.0 and row["phase"] == 0.0 for row in rows)
    assert rows[-1]["ratio"] == gravfield.mode_sum_ratio(200, 2e3)


def test_set_overrides(capsys):
    code, out, _ = run_cli(capsys, "phases", "--paper-defaults",
                           "--set", "tau=5.0")
    data = json.loads(out)
    assert code == 0
    assert data["dPhiRL"] == pytest.approx(2 * 0.43950828960523563, rel=1e-12)


def test_bad_set_value_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "phases", "--set", "tau=fast")
    assert code == 2
    assert "tau" in err


def test_unknown_set_key_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "phases", "--set", "speed=1")
    assert code == 2
    assert "unknown" in err


def test_invalid_config_value_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "phases", "--set", "m1=-1")
    assert code == 2
    assert "m1" in err


def test_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tau": 1.25}))
    code, out, _ = run_cli(capsys, "phases", "--config", str(path))
    assert code == 0
    assert json.loads(out)["dPhiRL"] == pytest.approx(
        0.43950828960523563 / 2, rel=1e-12)


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "phases", "--config", "/nonexistent.json")
    assert code == 2
    assert err


def test_config_integer_beyond_float_range_is_usage_error(tmp_path, capsys):
    # JSON reads a 401-digit integer exactly; no float can hold it
    path = tmp_path / "big.json"
    path.write_text('{"tau": 1' + "0" * 400 + "}")
    code, out, err = run_cli(capsys, "witness", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: tau must be a finite number")


def test_out_of_regime_is_computation_error(capsys):
    code, _, err = run_cli(capsys, "decoherence", "--paper-defaults",
                           "--set", "tEnv=300")
    assert code == 1
    assert "wavelength" in err


def test_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--paper-defaults",
                           "--axis", "tau:0.5:2.5:5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tau,dPhiLR,dPhiRL,objective,cpRatio,tauColl,feasible,reason"
    assert len(lines) == 6


def test_sweep_csv_is_the_library_csv(capsys):
    # the 48-row grid of the CI smoke test: invalid, regime-error,
    # infeasible and feasible rows
    code, out, _ = run_cli(capsys, "sweep", "--paper-defaults",
                           "--axis", "tau:0.5:8:4", "--axis", "dx:1e-4:5.5e-4:4",
                           "--axis", "tEnv:0.05:20:3:log",
                           "--objective", "witnessOptimized", "--format", "csv")
    spec = SweepSpec(axes=(SweepAxis("tau", 0.5, 8.0, 4),
                           SweepAxis("dx", 1e-4, 5.5e-4, 4),
                           SweepAxis("tEnv", 0.05, 20.0, 3, "log")),
                     objective="witnessOptimized")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        expected = run_sweep(spec, validate(paper_defaults())).to_csv()
    assert code == 0
    assert out == expected
    assert out.count("\n") == 49


@pytest.mark.parametrize("sets, code, message", [
    # m kB T underflows: the gas de Broglie wavelength is inf, which the
    # collisional regime guard reports as data
    (("tEnv=1e-300",), 0, ""),
    # tauAcc**2 overflows in the kinematic split
    (("tauAcc=1e155",), 2, "error: kinematic dx overflows: dBdx="),
    # radius**6 / r**7 overflows in the Casimir-Polder ratio
    (("d=1e46", "radius=1e45"), 1, "error: "),
])
def test_arithmetic_failures_are_named_errors(capsys, sets, code, message):
    argv = ["witness", "--paper-defaults"]
    for item in sets:
        argv += ["--set", item]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert err.startswith(message)
    if code == 0:
        assert "gas de Broglie" in json.loads(out)["dephasingRegimeError"]
    else:
        assert out == ""


def test_overflowing_collision_rate_is_data(capsys):
    # n vbar pi R^2 overflows at this pressure: all coherence is lost, and
    # every command still answers
    for command in ("decoherence", "witness"):
        code, out, _ = run_cli(capsys, command, "--paper-defaults",
                               "--set", "pressure=1e300")
        assert code == 0
        assert json.loads(out)["totalDephasing"] == 1.0
    code, out, _ = run_cli(capsys, "sweep", "--paper-defaults",
                           "--set", "pressure=1e300", "--axis", "tau:0.5:8:4",
                           "--format", "csv")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 4
    assert all(",0,false,tauColl 0 s < 1 x experiment duration" in row
               for row in rows)


def test_sweep_malformed_axis_no_partial_output(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "sweep", "--paper-defaults",
                             "--axis", "tau:5:0.5:5",
                             "--out", str(out_file))
    assert code == 2
    assert not out_file.exists()
    assert not out
    assert "min < max" in err


def test_sweep_requires_axis(capsys):
    code, _, err = run_cli(capsys, "sweep", "--paper-defaults")
    assert code == 2
    assert "--axis" in err


def test_sweep_maximize(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--paper-defaults",
                           "--set", "pressure=1e-30", "--set", "tEnv=1e-3",
                           "--set", "tInt=1e-3",
                           "--axis", "tau:0.5:5:5", "--maximize")
    data = json.loads(out)
    assert code == 0
    assert data["row"]["feasible"] is True
    assert data["bestParams"]["tau"] == pytest.approx(5.0, rel=1e-6)


def test_out_writes_file(tmp_path, capsys):
    out_file = tmp_path / "witness.json"
    code, out, _ = run_cli(capsys, "witness", "--paper-defaults",
                           "--out", str(out_file))
    assert code == 0
    assert not out
    assert json.loads(out_file.read_text())["entangledByNegativity"] is True


def test_byte_identical_runs(capsys):
    _, out1, _ = run_cli(capsys, "witness", "--paper-defaults")
    _, out2, _ = run_cli(capsys, "witness", "--paper-defaults")
    assert out1 == out2
    _, csv1, _ = run_cli(capsys, "sweep", "--paper-defaults",
                         "--axis", "tau:0.5:2.5:9", "--format", "csv")
    _, csv2, _ = run_cli(capsys, "sweep", "--paper-defaults",
                         "--axis", "tau:0.5:2.5:9", "--format", "csv")
    assert csv1 == csv2


def test_table_and_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "constraints", "--paper-defaults",
                           "--format", "table")
    assert code == 0
    assert out.startswith("key")
    code, out, _ = run_cli(capsys, "constraints", "--paper-defaults",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"


def test_sweep_table_and_json_formats(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--paper-defaults",
                           "--axis", "tau:0.5:2.5:3", "--format", "table")
    assert code == 0
    assert out.splitlines()[0].split()[:2] == ["tau", "dPhiLR"]
    code, out, _ = run_cli(capsys, "sweep", "--paper-defaults",
                           "--axis", "tau:0.5:2.5:3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3 and rows[0]["feasible"] is True


def test_conflicting_config_sources(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    code, _, err = run_cli(capsys, "phases", "--config", str(path),
                           "--paper-defaults")
    assert code == 2
    assert "mutually exclusive" in err


def test_witness_dephased_at_paper_defaults(capsys):
    # the budget's 13.9 % coherence loss leaves a little entanglement
    code, out, _ = run_cli(capsys, "witness", "--paper-defaults")
    assert code == 0
    data = json.loads(out)
    assert data["totalDephasing"] == pytest.approx(0.138996235245, rel=1e-9)
    assert data["negativityDephased"] == pytest.approx(0.00262942, rel=1e-5)


def test_witness_dephased_at_high_pressure_has_no_entanglement(capsys):
    # at 1e-13 Pa every coherence is lost, so nothing survives
    code, out, _ = run_cli(capsys, "witness", "--paper-defaults",
                           "--set", "pressure=1e-13")
    assert code == 0
    data = json.loads(out)
    assert data["totalDephasing"] > 0.999
    assert data["negativity"] == pytest.approx(0.0781617306618, rel=1e-9)
    assert data["negativityDephased"] == 0.0


def test_witness_and_sweep_agree(capsys):
    # the first row of this axis is the paper-defaults point
    _, out, _ = run_cli(capsys, "witness", "--paper-defaults")
    witness = json.loads(out)
    code, out, _ = run_cli(capsys, "sweep", "--paper-defaults",
                           "--axis", "tau:2.5:5:2", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["tau"] == 2.5
    assert row["objective"] == witness["negativityDephased"]


@pytest.mark.parametrize("sets", [("tEnv=20",), ("tEnv=1e32",),
                                  ("tInt=1e49",)])
def test_witness_is_infeasible_where_a_photon_guard_fires(capsys, sets):
    # the witness verdict is the sweep row's at the same point
    argv = ["--paper-defaults"]
    for item in sets:
        argv += ["--set", item]
    code, out, _ = run_cli(capsys, "witness", *argv)
    assert code == 0
    witness = json.loads(out)
    code, out, _ = run_cli(capsys, "sweep", *argv, "--axis", "tau:2.5:5:2",
                           "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["tau"] == 2.5 and not row["feasible"]
    assert witness["feasibility"]["feasible"] is False
    assert witness["feasibility"]["reasons"] == [
        f"decoherence regime: {witness['dephasingRegimeError']}"]
    assert row["reason"] == "; ".join(witness["feasibility"]["reasons"])
    assert "long-wavelength photon regime" in row["reason"]


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_repeated_calls_share_no_state(capsys):
    _, first, _ = run_cli(capsys, "witness", "--paper-defaults")
    code, _, _ = run_cli(capsys, "sweep", "--paper-defaults",
                         "--set", "pressure=1e-30", "--axis", "tau:0.5:2.5:3")
    assert code == 0
    _, moved, _ = run_cli(capsys, "witness", "--paper-defaults",
                          "--set", "tau=1.0")
    _, last, _ = run_cli(capsys, "witness", "--paper-defaults")
    assert moved != first
    assert last == first
    args = build_parser().parse_args(["witness", "--paper-defaults"])
    assert args.set is None


def test_field_payload_matches_direct_computation(capsys, paper_config):
    code, out, _ = run_cli(capsys, "field", "--paper-defaults",
                           "--n-modes", "300", "--time", "1.5")
    assert code == 0
    data = json.loads(out)
    modes = gravfield.modes_for_separation(paper_config.d - paper_config.dx,
                                           nModes=300)
    branches = gravfield.branch_displacement_set(modes, paper_config, 1.5)
    assert data["time"] == 1.5
    assert data["minOverlapMagnitude"] == min(
        abs(gravfield.branch_overlap(branches[a], branches[b]))
        for a in BRANCHES for b in BRANCHES if a < b)
    assert data["negativityQuantum"] == negativity(
        gravfield.reduced_mass_state(branches))
    assert data["negativityClassicalized"] == negativity(
        gravfield.classicalize(branches))


@pytest.mark.parametrize("argv, option", [
    (("field", "--n-modes", "1"), "--n-modes"),
    (("field", "--k-cut-times-r", "0"), "--k-cut-times-r"),
    (("field", "--k-cut-times-r", "-5"), "--k-cut-times-r"),
    (("field", "--k-cut-times-r", "nan"), "--k-cut-times-r"),
    (("field", "--time", "-1"), "--time"),
    (("field", "--time", "0"), "--time"),
    (("field", "--separation", "0"), "--separation"),
    (("field", "--separation", "-1e-4"), "--separation"),
    (("phases", "--dynamic-steps", "1"), "--dynamic-steps"),
    (("phases", "--dynamic-steps", "-3"), "--dynamic-steps"),
    (("constraints", "--b-residual", "-1e-6"), "--b-residual"),
    (("constraints", "--target-ratio", "0"), "--target-ratio"),
    (("constraints", "--target-ratio", "-1"), "--target-ratio"),
])
def test_out_of_range_option_is_usage_error(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--paper-defaults", *argv[1:]])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert not out
    assert f"argument {option}" in err


DX_WARNING = ("explicit dx=0.00025 m differs from the kinematic value "
              "0.000232119 m by more than 1%; keeping the explicit dx")


def test_config_warning_is_json_data_on_every_call(capsys):
    # no warnings filter here: each call reports the warning as data
    for _ in range(3):
        code = main(["witness", "--paper-defaults"])
        out, err = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["warnings"] == [DX_WARNING]
        assert err == ""


def test_config_warning_goes_to_stderr_for_csv(capsys):
    for _ in range(3):
        code = main(["sweep", "--paper-defaults", "--axis", "tau:0.5:2.5:3",
                     "--format", "csv"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == f"warning: {DX_WARNING}\n"
        assert out.splitlines()[0].startswith("tau,dPhiLR")


def test_only_the_final_config_is_warned_about(tmp_path, capsys):
    # the overridden dx agrees with the kinematic split: nothing to report
    code, out, _ = run_cli(capsys, "phases", "--paper-defaults",
                           "--set", "dx=0.000232119")
    assert code == 0
    assert json.loads(out)["warnings"] == []
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dx": None}))
    code, out, _ = run_cli(capsys, "constraints", "--config", str(path))
    assert code == 0
    assert json.loads(out)["warnings"] == []
    code, out, _ = run_cli(capsys, "defaults")
    assert "warnings" not in json.loads(out)


@pytest.fixture
def kinematic_config(tmp_path):
    """A config file whose dx is null: the split follows tauAcc."""
    path = tmp_path / "kinematic.json"
    path.write_text(json.dumps({"dx": None}))
    return str(path)


def test_set_keeps_a_null_dx_kinematic(capsys, kinematic_config):
    code, out, _ = run_cli(capsys, "phases", "--config", kinematic_config,
                           "--set", "tauAcc=0.3")
    assert code == 0
    cfg = validate(dataclasses.replace(paper_defaults(), dx=None,
                                       tauAcc=0.3))
    assert cfg.dx == pytest.approx(83.56e-6, rel=1e-4)
    lr = json.loads(out)["separations"]["LR"]
    assert lr == pytest.approx(cfg.d + cfg.dx, rel=1e-15)
    assert lr == 0.0005335628823388486


def test_set_on_a_null_dx_reports_no_explicit_dx(capsys, kinematic_config):
    code, out, _ = run_cli(capsys, "constraints", "--config",
                           kinematic_config, "--set", "tauAcc=0.3")
    assert code == 0
    assert json.loads(out)["warnings"] == []


def test_sweep_of_a_null_dx_derives_dx_at_each_point(capsys,
                                                     kinematic_config):
    axes = ("--axis", "tauAcc:0.3:0.7:3", "--axis", "tau:0.5:8:2")
    code, out, _ = run_cli(capsys, "sweep", "--config", kinematic_config,
                           *axes, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    base = dataclasses.replace(paper_defaults(), dx=None)
    spec = SweepSpec(axes=(SweepAxis("tauAcc", 0.3, 0.7, 3),
                           SweepAxis("tau", 0.5, 8.0, 2)))
    assert [r["reason"] for r in rows] == \
        [r.reason for r in run_sweep(spec, base).rows]
    assert [r["tauAcc"] for r in rows
            if r["reason"].startswith("invalid config: dx < d")] == [0.7, 0.7]
    # the split, and with it the phases, follows tauAcc
    assert len({r["dPhiLR"] for r in rows if r["feasible"]
                and r["tau"] == 0.5}) == 2


def test_other_warnings_are_not_configuration_notes(monkeypatch, capsys):
    import gravwitness.cli as cli
    validate = cli.validate

    def noisy(config):
        warnings.warn("unrelated", RuntimeWarning)
        return validate(config)
    monkeypatch.setattr(cli, "validate", noisy)
    with pytest.warns(RuntimeWarning, match="unrelated"):
        code = main(["phases", "--paper-defaults"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["warnings"] == [DX_WARNING]


def _strict(constant):
    raise ValueError(f"not strict JSON: {constant}")


def test_non_finite_numbers_are_strict_json_nulls(capsys):
    code, out, _ = run_cli(capsys, "decoherence", "--paper-defaults",
                           "--set", "pressure=1e300")
    assert code == 0
    data = json.loads(out, parse_constant=_strict)
    assert data["gammaColl"] is None and data["tauColl"] == 0.0
    assert data["nonFinite"] == ["gammaColl"]
    code, out, _ = run_cli(capsys, "decoherence", "--paper-defaults")
    assert "nonFinite" not in json.loads(out, parse_constant=_strict)
    # a list payload: each row lists its own keys
    code, out, _ = run_cli(capsys, "sweep", "--paper-defaults",
                           "--axis", "dx:2e-4:5e-4:2")
    valid, invalid = json.loads(out, parse_constant=_strict)
    assert "nonFinite" not in valid
    assert invalid["objective"] is None
    assert invalid["nonFinite"] == ["dPhiLR", "dPhiRL", "objective",
                                    "cpRatio", "tauColl"]


@pytest.mark.parametrize("case", ["config directory", "config not utf-8",
                                  "out into a missing directory",
                                  "out onto a directory",
                                  "csv out with a configuration warning"])
def test_unreadable_config_and_unwritable_out_are_usage_errors(tmp_path,
                                                                capsys, case):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"tau": 2.5} \N{DEGREE SIGN}'.encode("latin-1"))
    argv = {"config directory": ["--config", str(tmp_path)],
            "config not utf-8": ["--config", str(latin1)],
            "out into a missing directory": [
                "--paper-defaults", "--out", str(tmp_path / "no" / "out.json")],
            "out onto a directory": ["--paper-defaults", "--out", str(tmp_path)],
            # the paper's explicit dx is off its kinematic value: a warning
            # line on stderr, had the write succeeded
            "csv out with a configuration warning": [
                "--paper-defaults", "--format", "csv",
                "--out", str(tmp_path / "no" / "out.csv")],
            }[case]
    code, out, err = run_cli(capsys, "witness", *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_field_overflow_is_one_error_and_no_numpy_warning(capsys):
    # e^{i w t} overflows at this time: alpha is not finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["field", "--paper-defaults", "--time", "1e300"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: alpha contains non-finite entries\n"


def test_field_overflowing_coupling_is_one_error_and_no_numpy_warning(capsys):
    # the grid tuned for this separation overflows the coupling's c k w
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["field", "--paper-defaults", "--n-modes", "200",
                     "--separation", "1e-280"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: alpha contains non-finite entries\n"


@pytest.mark.parametrize("parts, error", [
    (("no", "rows.csv"), "[Errno 2] No such file or directory"),
    ((), "[Errno 21] Is a directory"),
])
def test_unwritable_out_fails_before_the_sweep(tmp_path, capsys, monkeypatch,
                                               parts, error):
    def run_sweep(*args):
        raise AssertionError("the sweep ran before --out was checked")
    monkeypatch.setattr(sweep_mod, "run_sweep", run_sweep)
    path = str(tmp_path.joinpath(*parts))
    code, out, err = run_cli(capsys, "sweep", "--paper-defaults",
                             "--axis", "tau:0.5:8:4", "--format", "csv",
                             "--out", path)
    assert code == 2
    assert out == ""
    assert err == f"error: {error}: {path!r}\n"
    assert list(tmp_path.iterdir()) == []
