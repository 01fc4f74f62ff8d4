"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _parse_byzantine, build_parser, main


def test_protocols_command(capsys):
    assert main(["protocols"]) == 0
    out = capsys.readouterr().out
    assert "fallback-3chain" in out
    assert "always-fallback" in out


def test_run_sync_default(capsys):
    assert main(["run", "--commits", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "decisions:" in out
    assert "safety: OK" in out


def test_run_json_output(capsys):
    assert main(["run", "--commits", "5", "--seed", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["live"]
    assert payload["decisions"] >= 5
    assert payload["safety_violations"] == []
    assert payload["protocol"] == "fallback-3chain"


def test_run_attack_network(capsys):
    assert main([
        "run", "--network", "attack", "--commits", "3", "--seed", "2", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["live"]
    assert payload["fallbacks"] >= 1


def test_run_with_byzantine_spec(capsys):
    assert main([
        "run", "--commits", "8", "--seed", "3",
        "--byzantine", "0:withhold", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["live"]


def test_run_with_crash_arg(capsys):
    assert main([
        "run", "--commits", "8", "--seed", "3",
        "--byzantine", "1:crash@15", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["live"]


def test_bad_byzantine_spec_exits():
    with pytest.raises(SystemExit):
        main(["run", "--byzantine", "0:hackerman"])
    with pytest.raises(SystemExit):
        main(["run", "--byzantine", "whatever"])


def test_parse_byzantine_helper():
    parsed = _parse_byzantine(["2:crash@25"])
    assert parsed[0][0] == 2
    assert _parse_byzantine([]) == []


def test_partition_network(capsys):
    assert main([
        "run", "--network", "partition", "--heal", "40",
        "--commits", "5", "--seed", "4", "--json", "--until", "5000",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["live"]


def test_table1_command(capsys):
    assert main(["table1", "--n", "4", "--commits", "12", "--until", "6000"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "NOT LIVE" in out  # the diembft async cell


def test_scaling_command(capsys):
    assert main(["scaling", "--sizes", "4", "7", "--until", "20000"]) == 0
    out = capsys.readouterr().out
    assert "sync slope" in out
    assert "async slope" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_live_fsync_without_processes_is_rejected(capsys):
    # The in-process cluster keeps its journal in memory, so --fsync would
    # be silently ignored there.
    with pytest.raises(SystemExit) as excinfo:
        main(["live", "--durable", "--fsync"])
    assert excinfo.value.code == 2
    assert "--processes" in capsys.readouterr().err
