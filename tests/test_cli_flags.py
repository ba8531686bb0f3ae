"""Each command takes only the flags it applies: every flag changes what the command writes."""
import argparse
import json
import tempfile
from pathlib import Path

import pytest

from caltest import cli
from caltest.experiments import scenario_dataset

SYNTHETIC = ["--pairs", "0.5:0.4", "--n-train", "600", "--n-test", "300", "--n-seeds", "1"]
SCORING = {  # flags of the commands that score a battery
    "--B": ([], "5"),
    "--nmin-frac": ([], "0.15"),
    "--nmax-frac": ([], "0.08"),
    "--alpha": ([], "0.3"),
    "--test": ([], "t"),
    "--norm": ([], "sup"),
}
DRAWING = {  # flags of the commands that draw synthetic data
    **SCORING,
    "--seed": ([], "3"),
    "--pairs": ([], "0.5:0.3"),
    "--n-train": ([], "700"),
    "--n-test": ([], "250"),
    "--n-seeds": ([], "2"),
}
# Per command: the arguments of a small run, and per flag the arguments it
# applies under and a value other than its default. ``--out`` and ``--config``
# write nothing of their own.
RUNS = {
    "compute": (["{data}"], SCORING),
    "compare": (["{data}"], SCORING),
    "diagram": (["{data}"], {
        "--bins": ([], "equispaced"),
        "--kind": ([], "standard"),
        "--width": ([], "500"),
        "--height": ([], "300"),
        "--B": (["--bins", "equispaced"], "5"),
        "--nmin-frac": ([], "0.15"),
        "--nmax-frac": ([], "0.1"),
        "--alpha": ([], "0.3"),
        "--test": ([], "t"),
    }),
    "simulate": (SYNTHETIC, {**DRAWING, "--dump-data": ([], None)}),
    "sweep": (["--parameter", "noise", "--grid", "0.1", *SYNTHETIC], {
        **DRAWING,
        "--parameter": ([], "alpha"),
        "--grid": ([], "0.2"),
    }),
}


def command_actions(command):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]._actions


def command_flags(command):
    return {flag for action in command_actions(command) for flag in action.option_strings}


def written(tmp_path, argv, data):
    """Every file the command writes, with the config of each JSON file left out."""
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    assert cli.main([token.format(data=data) for token in argv] + ["--out", str(out)]) == 0
    files = {}
    for path in sorted(out.iterdir()):
        body = path.read_bytes()
        if path.suffix == ".json":
            payload = json.loads(body)
            payload.pop("config")
            body = json.dumps(payload, sort_keys=True).encode()
        files[path.name] = body
    return files


@pytest.mark.parametrize("command", RUNS)
def test_every_flag_changes_what_the_command_writes(tmp_path, command):
    base, flags = RUNS[command]
    assert command_flags(command) - {"-h", "--help", "--out", "--config"} == set(flags)
    data = tmp_path / "scores.csv"
    cli.write_dataset_csv(scenario_dataset(0.5, 0.4, 1000, 300, 0), data)
    for flag, (context, value) in flags.items():
        argv = [command, *base, *context]
        setting = [flag] if value is None else [flag, value]
        assert written(tmp_path, argv + setting, data) != written(tmp_path, argv, data), flag


@pytest.mark.parametrize("command, flag, value", [
    ("compute", "--seed", "7"), ("compare", "--bins", "quantile"),
    ("diagram", "--norm", "sup"), ("simulate", "--bins", "pava"),
])
def test_a_flag_the_command_does_not_apply_is_a_usage_error(tmp_path, capsys, command, flag, value):
    data = tmp_path / "scores.csv"
    cli.write_dataset_csv(scenario_dataset(0.5, 0.4, 1000, 300, 0), data)
    inputs = [] if command == "simulate" else [str(data)]
    config = tmp_path / "run.cfg"
    config.write_text(f"{flag[2:]} = {value}\n", encoding="utf-8")
    for setting in ([flag, value], ["--config", str(config)]):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *inputs, *setting, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["compute", "compare", "simulate", "sweep"])
def test_the_report_records_every_setting_the_command_parsed(tmp_path, command):
    parsed = {a.dest for a in command_actions(command) if a.default is not argparse.SUPPRESS}
    data = tmp_path / "scores.csv"
    cli.write_dataset_csv(scenario_dataset(0.5, 0.4, 1000, 300, 0), data)
    base = RUNS[command][0]
    out = tmp_path / "out"
    assert cli.main([command, *(t.format(data=data) for t in base), "--out", str(out)]) == 0
    (report,) = out.glob("*.json")
    config = json.loads(report.read_text(encoding="utf-8"))["config"]
    assert set(config) == parsed - {"config", "out", "inputs"}


def test_a_config_key_the_command_does_not_take_is_named_with_its_value(tmp_path, capsys):
    data = tmp_path / "scores.csv"
    cli.write_dataset_csv(scenario_dataset(0.5, 0.4, 1000, 300, 0), data)
    config = tmp_path / "bad.cfg"
    config.write_text("seed = 7\n", encoding="utf-8")
    with pytest.raises(SystemExit):
        cli.main(["compute", str(data), "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed=7" in err
    assert str(data) not in err
