import csv
import json
import re
import shlex
from pathlib import Path

import pytest
from jsonschema import validate as validate_schema

from kinchem.cli import build_parser, main
from kinchem.model import TypeKernel, load_config, save_config
from kinchem.scenarios import SUMMARY_SCHEMA
from conftest import make_two_state


@pytest.fixture
def config_path(tmp_path):
    spec = make_two_state(n=80, heat=1.0, scale_heat=1.0, seed=21)
    path = tmp_path / "model.yaml"
    save_config(spec, path)
    return path


def test_scenario_command_writes_valid_summary(tmp_path, capsys):
    out = tmp_path / "fluxrun"
    code = main(["scenario", "flux-check", "--seed", "5", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    validate_schema(summary, SUMMARY_SCHEMA)
    assert summary["passed"] and summary["scenario"] == "flux-check"
    assert (out / "flux_check.csv").exists()


def test_scenario_exit_code_reflects_failing_check(tmp_path):
    # every oracle check passes, so the exit code is 0
    out = tmp_path / "oracle"
    code = main(["scenario", "oracle-verify", "--set", "n=5", "--set",
                 "lambda_t=0.1", "--set", "nmax=4", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    validate_schema(summary, SUMMARY_SCHEMA)
    by_name = {c["name"]: c for c in summary["checks"]}
    assert summary["passed"]
    assert all(c["passed"] for c in summary["checks"])
    assert by_name["series_within_stated_tail"]["passed"]
    assert by_name["series_within_geometric_tail"]["passed"]
    assert by_name["essential_count_vs_enumeration"]["passed"]
    assert (out / "oracle_verify.json").exists()

    # a tolerance below the finite-difference error (about 2e-11) fails the
    # flux check for a real reason, and the exit code says so
    out = tmp_path / "flux"
    code = main(["scenario", "flux-check", "--seed", "5", "--set",
                 "tol=1e-14", "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    validate_schema(summary, SUMMARY_SCHEMA)
    assert not summary["passed"]
    assert not all(c["passed"] for c in summary["checks"])


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_oracle_verify_fails_geometric_check_when_series_diverges(tmp_path):
    # 2 lambda t = 1.2: the geometric series diverges and bounds nothing
    out = tmp_path / "oracle"
    code = main(["scenario", "oracle-verify", "--set", "lambda_t=0.6",
                 "--set", "nmax=4", "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=reject_constant)
    validate_schema(summary, SUMMARY_SCHEMA)
    check = {c["name"]: c for c in summary["checks"]}["series_within_geometric_tail"]
    assert not check["passed"]
    assert check["tail_bound"] is None
    assert "diverges" in check["note"]
    json.loads((out / "oracle_verify.json").read_text(),
               parse_constant=reject_constant)


def test_oracle_verify_rejects_negative_nmax(tmp_path, capsys):
    # --nmax -1 summed no history and reported every check passed
    out = tmp_path / "oracle"
    assert main(["scenario", "oracle-verify", "--set", "nmax=-1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: n_max must be nonnegative")
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["scenario", "flux-check", "--set", "bogus=3"], "bogus"),
    (["scenario", "meanfield-vs-mc", "--set", "replicas=3"], "replicas"),
])
def test_scenario_rejects_unknown_override(argv, key, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.match(f"error: unknown override.*{key}", err)


@pytest.mark.parametrize("override, key", [
    ("n=5.0", "n"), ("n=True", "n"), ("nmax='4'", "nmax"), ("alpha=True", "alpha"),
])
def test_scenario_rejects_an_override_of_the_wrong_type(override, key, tmp_path, capsys):
    # n=5.0 reached oracle._particles and ended in a TypeError traceback
    out = tmp_path / "oracle"
    assert main(["scenario", "oracle-verify", "--set", override, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: override {key}=")
    assert not out.exists()


def test_scenario_takes_an_integer_for_a_float(tmp_path):
    assert main(["scenario", "flux-check", "--set", "t_end=2",
                 "--out", str(tmp_path / "flux")]) == 0
    summary = json.loads((tmp_path / "flux" / "summary.json").read_text())
    assert summary["parameters"]["t_end"] == 2


def test_scenario_rejects_unknown_name():
    with pytest.raises(SystemExit):
        main(["scenario", "not-a-scenario"])


@pytest.mark.parametrize("argv", [
    ["sim", "--t-end", "1"],
    ["thermo", "eval", "--c", "0.3,0.7", "--beta", "1"],
    ["scenario", "flux-check", "--config", "model.yaml"],
    ["oracle", "verify", "--config", "model.yaml"],
    ["thermo", "eval", "--config", "configs/two_state.yaml", "--c", "0.3,0.7",
     "--beta", "1", "--seed", "1"],
], ids=["sim-without-config", "thermo-without-config",
        "scenario-with-config", "oracle-with-config", "thermo-with-seed"])
def test_usage_errors_exit_2(argv):
    # `sim` and `thermo eval` need a model; the other two have no use for one,
    # and `thermo eval` draws nothing, so it has no use for a seed
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_malformed_override_exits_2(capsys):
    assert main(["scenario", "flux-check", "--set", "bogus"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: override 'bogus' must look like key=value")


def test_sim_particle_engine_writes_trajectory(tmp_path, config_path):
    out = tmp_path / "sim"
    code = main(["sim", "--config", str(config_path), "--t-end", "1.0",
                 "--sample-every", "0.5", "--out", str(out), "--seed", "3",
                 "--log-events"])
    assert code == 0
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "n_1", "n_2", "mean_T", "total_K", "total_T",
                       "bath_Q"]
    assert float(rows[1][0]) == 0.0
    assert int(rows[1][1]) + int(rows[1][2]) == 80
    with open(out / "events.csv") as fh:
        erows = list(csv.reader(fh))
    assert erows[0][0] == "time" and len(erows) > 1


def test_sim_reduced_engine(tmp_path, config_path):
    out = tmp_path / "red"
    code = main(["sim", "--config", str(config_path), "--engine", "reduced",
                 "--t-end", "2.0", "--sample-every", "0.5", "--out", str(out)])
    assert code == 0
    with open(out / "reduced_trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["time", "c_1", "c_2", "mean_T"]
    assert "S_M" in rows[0] and "A" in rows[0]


def test_sim_reduced_engine_at_zero_horizon(tmp_path, config_path):
    out = tmp_path / "red0"
    code = main(["sim", "--config", str(config_path), "--engine", "reduced",
                 "--t-end", "0", "--out", str(out)])
    assert code == 0
    with open(out / "reduced_trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and float(rows[1][0]) == 0.0


def test_sim_meanfield_engine(tmp_path, config_path):
    out = tmp_path / "mf"
    code = main(["sim", "--config", str(config_path), "--engine", "meanfield",
                 "--t-end", "0.5", "--sample-every", "0.25",
                 "--grid-size", "96", "--out", str(out)])
    assert code == 0
    assert (out / "meanfield_trajectory.csv").exists()


def test_sim_meanfield_engine_runs_the_slow_channel(tmp_path):
    # the kinetic equation used to drop a configured slow channel, so these
    # two runs wrote byte-identical trajectories
    kernel = TypeKernel(kind="table", table=(((1, 1), (((2, 2), 1.0),)),
                                             ((2, 2), (((1, 1), 1.0),))))
    written = []
    for slow in (0.0, 5.0):
        path = tmp_path / f"slow{slow}.yaml"
        save_config(make_two_state(n=80, heat=1.0, scale_heat=1.0, slow=slow,
                                   kernel=kernel), path)
        out = tmp_path / f"mf{slow}"
        assert main(["sim", "--config", str(path), "--engine", "meanfield",
                     "--t-end", "0.5", "--sample-every", "0.25",
                     "--grid-size", "48", "--out", str(out)]) == 0
        written.append((out / "meanfield_trajectory.csv").read_bytes())
    assert written[0] != written[1]


def test_sim_seed_reaches_the_particle_run(tmp_path, config_path):
    written = []
    for run, seed in enumerate(("5", "5", "6")):
        out = tmp_path / f"run{run}"
        assert main(["sim", "--config", str(config_path), "--t-end", "0.5",
                     "--seed", seed, "--out", str(out)]) == 0
        written.append((out / "trajectory.csv").read_bytes())
    assert written[0] == written[1]
    assert written[0] != written[2]


def _time_column(config_path, out, engine, t_end, every, *flags):
    """The first column of a `sim` trajectory, as the text written."""
    assert main(["sim", "--config", str(config_path), "--engine", engine,
                 "--t-end", t_end, "--sample-every", every, *flags,
                 "--out", str(out)]) == 0
    name = "trajectory.csv" if engine == "particle" else f"{engine}_trajectory.csv"
    with open(out / name, newline="") as fh:
        return [row[0] for row in list(csv.reader(fh))[1:]]


def _times_written(config_path, out, engine, t_end, every):
    # a coarse grid keeps the kinetic equation's 1000 steps to t = 10 cheap
    flags = ["--grid-size", "16"] if engine == "meanfield" else []
    return [float(t) for t in _time_column(config_path, out, engine, t_end,
                                           every, *flags)]


@pytest.mark.parametrize("engine", ["particle", "meanfield", "reduced"])
def test_sim_engines_sample_on_one_clock(tmp_path, config_path, engine):
    # the particle engine accumulated its sample times (102 rows at t_end 10,
    # interval 0.1, the last two 9.99999999999998 and 10.0), the reduced ODE
    # sampled linspace(0, t_end, n), and the kinetic equation snapshotted at
    # the first step on or after each instant, so they disagreed
    assert _times_written(config_path, tmp_path / "a", engine, "1", "0.3") == \
        [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
    times = _times_written(config_path, tmp_path / "b", engine, "10", "0.1")
    assert len(times) == 101 and times[-1] == 10.0
    assert all(a < b for a, b in zip(times, times[1:]))


def test_sim_engines_write_identical_time_columns(tmp_path):
    # a step of 0.12 does not divide the interval 0.3: the kinetic equation
    # used to write 4 rows, at 0, 1/3, 2/3 and 1, where the others write 5
    config = Path(__file__).resolve().parents[1] / "configs" / "two_state.yaml"
    columns = [_time_column(config, tmp_path / engine, engine, "1", "0.3", *flags)
               for engine, flags in (("particle", []),
                                     ("meanfield", ["--dt", "0.12",
                                                    "--grid-size", "64"]),
                                     ("reduced", []))]
    assert columns[0] == ["0.0", "0.3", "0.6", "0.8999999999999999", "1.0"]
    assert columns[1] == columns[0] and columns[2] == columns[0]


@pytest.mark.parametrize("engine", ["particle", "meanfield", "reduced"])
@pytest.mark.parametrize("every", ["0", "-0.5", "inf"])
def test_sim_rejects_bad_sample_interval(tmp_path, config_path, capsys, engine,
                                         every):
    # `--sample-every 0` used to fall back to t_end/50 without a word
    code = main(["sim", "--config", str(config_path), "--engine", engine,
                 "--t-end", "1.0", f"--sample-every={every}",
                 "--out", str(tmp_path / "sim")])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: --sample-every must be positive and finite")
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("flag", ["--dt=0", "--dt=-0.1", "--dt=nan",
                                  "--grid-size=0", "--grid-size=-4"])
def test_sim_rejects_bad_meanfield_step_or_grid(tmp_path, config_path, capsys,
                                                flag):
    # --dt 0 and --grid-size 0 ended in tracebacks, --dt -0.1 took one step
    # over the whole horizon and blamed the stability bound
    out = tmp_path / "sim"
    code = main(["sim", "--config", str(config_path), "--engine", "meanfield",
                 "--t-end", "1", flag, "--out", str(out)])
    assert code == 2
    name = "dt" if flag.startswith("--dt") else "m"
    assert capsys.readouterr().err.startswith(f"error: {name} must be ")
    assert not out.exists()


@pytest.mark.parametrize("engine", ["particle", "meanfield", "reduced"])
@pytest.mark.parametrize("t_end", ["-1", "nan", "inf"])
def test_sim_rejects_bad_horizon(tmp_path, capsys, engine, t_end):
    # checked before the config is read: the config does not exist, so a lost
    # guard fails fast instead of simulating towards an endless horizon
    out = tmp_path / "sim"
    code = main(["sim", "--config", str(tmp_path / "missing.yaml"),
                 "--engine", engine, f"--t-end={t_end}", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: --t-end must be nonnegative and finite")
    assert not out.exists()


def test_sim_rejects_nonpositive_replicas(tmp_path, config_path, capsys):
    # `--replicas 0` used to exit 0 having written nothing
    out = tmp_path / "sim"
    code = main(["sim", "--config", str(config_path), "--t-end", "1",
                 "--replicas", "0", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --replicas must be at least 1")
    assert not out.exists()


@pytest.mark.parametrize("engine, flags, flag", [
    ("reduced", ["--log-events", "--replicas", "3"], "--log-events"),
    ("meanfield", ["--log-events"], "--log-events"),
    ("reduced", ["--replicas", "3"], "--replicas"),
    ("meanfield", ["--replicas", "1"], "--replicas"),
    ("particle", ["--grid-size", "7", "--dt", "5"], "--grid-size"),
    ("particle", ["--dt", "5"], "--dt"),
    ("reduced", ["--grid-size", "64"], "--grid-size"),
    ("reduced", ["--dt", "0.1"], "--dt"),
])
def test_sim_rejects_flags_of_another_engine(tmp_path, config_path, capsys, engine,
                                             flags, flag):
    # each of these used to exit 0 and ignore the flag without a word
    out = tmp_path / "sim"
    code = main(["sim", "--config", str(config_path), "--engine", engine,
                 "--t-end", "0.5", *flags, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} applies only to --engine ")
    assert not out.exists()


def test_thermo_eval_reports_potentials(tmp_path, config_path, capsys):
    code = main(["thermo", "eval", "--config", str(config_path),
                 "--c", "0.3,0.7", "--beta", "1.0",
                 "--out", str(tmp_path / "th")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    pots = report["potentials"]
    assert abs(pots["P"] - 1.0) < 1e-12
    assert abs(pots["G"] - (pots["H"] - pots["S"])) < 1e-9
    assert "kappa" in report["reaction"]
    assert (tmp_path / "th" / "thermo.json").exists()
    assert (tmp_path / "th" / "thermo.csv").exists()


def test_thermo_eval_writes_strict_json_at_zero_concentration(tmp_path,
                                                              config_path):
    out = tmp_path / "th"
    code = main(["thermo", "eval", "--config", str(config_path),
                 "--c", "0,1", "--beta", "1.0", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "thermo.json").read_text(),
                        parse_constant=reject_constant)
    assert None in report["potentials"]["mu"]     # log of a zero concentration


@pytest.mark.parametrize("c", ["nan,0.5", "0.5,inf"])
def test_thermo_eval_rejects_non_finite_concentrations(tmp_path, config_path, capsys, c):
    # NaN used to exit 0 with null P, U and H and finite S, G and g
    out = tmp_path / "th"
    code = main(["thermo", "eval", "--config", str(config_path), "--c", c,
                 "--beta", "1.0", "--out", str(out)])
    assert code == 2
    assert "concentrations must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_seed_override_changes_config(config_path):
    spec = load_config(config_path)
    assert spec.rng_seed == 21


def test_readme_command_lines_parse():
    # README must not document a flag or subcommand the parser lacks
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("kinchem ")]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
