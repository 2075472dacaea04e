"""Bad values from outside exit 2 with a one-line message, never a traceback.

Each case names a value the CLI used to accept and act on: a traceback
(``--fraction 0``, a cold ``--from-cache``, ``--policies -3``), a run
that reads as a server bug (``--deadline 0``), or a feature silently
switched off or run empty (``--faults ,``, negative counts).
"""

from pathlib import Path

import pytest

from repro.cli import _USAGE_HINT, main
from repro.pipeline.records import read_jsonl
from repro.serve import build_snapshot, write_snapshot

GOLDEN_RECORDS = Path(__file__).parent / "golden" / "records.jsonl"
SMALL = ["--seed", "3", "--fraction", "0.02"]


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-input") / "golden.snap.json"
    write_snapshot(build_snapshot(read_jsonl(GOLDEN_RECORDS),
                                  source="golden"), path)
    return str(path)


def _fails_with(capsys, argv, error_line):
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert error_line in captured.err.splitlines()
    return captured.err


@pytest.mark.parametrize("argv, error_line", [
    ([*SMALL, "models", "--policies", "-3"],
     "repro-pipeline models: error: argument --policies: must be >= 1, "
     "got -3"),
    ([*SMALL, "models", "--policies", "0"],
     "repro-pipeline models: error: argument --policies: must be >= 1, "
     "got 0"),
    (["chaos", "--snapshot", "{snapshot}", "--requests", "20",
      "--deadline", "0"],
     "repro-pipeline chaos: error: argument --deadline: must be > 0, "
     "got 0.0"),
    (["chaos", "--snapshot", "{snapshot}", "--requests", "20",
      "--deadline", "-1.5"],
     "repro-pipeline chaos: error: argument --deadline: must be > 0, "
     "got -1.5"),
    ([*SMALL, "--cache-dir", "{tmp}/cache", "ingest", "--once",
      "--domains", "2", "--out", "{tmp}/live.snap.json",
      "--compact-every", "-1"],
     "repro-pipeline ingest: error: argument --compact-every: must be >= 0, "
     "got -1"),
    ([*SMALL, "--cache-dir", "{tmp}/cache", "ingest", "--once",
      "--domains", "2", "--out", "{tmp}/live.snap.json",
      "--mutate-per-round", "-1"],
     "repro-pipeline ingest: error: argument --mutate-per-round: must be "
     ">= 0, got -1"),
    (["bench-serve", "--snapshot", "{snapshot}", "--requests", "20",
      "--cache-entries", "-5"],
     "repro-pipeline bench-serve: error: argument --cache-entries: must be "
     ">= 0, got -5"),
], ids=["policies-negative", "policies-zero", "deadline-zero",
        "deadline-negative", "compact-every-negative",
        "mutate-per-round-negative", "cache-entries-negative"])
def test_out_of_range_flag_value_is_a_parse_error(capsys, tmp_path,
                                                  snapshot_path, argv,
                                                  error_line):
    argv = [arg.replace("{snapshot}", snapshot_path)
            .replace("{tmp}", str(tmp_path)) for arg in argv]
    _fails_with(capsys, argv, error_line)


@pytest.mark.parametrize("fraction", ["0", "-1"])
def test_fraction_outside_unit_interval_is_a_usage_error(capsys, fraction):
    _fails_with(capsys, ["--fraction", fraction, "run"],
                f"repro-pipeline: error: --fraction: fraction must be in "
                f"(0, 1], got {float(fraction)}")


@pytest.mark.parametrize("command", [
    ["run"],
    ["serve-snapshot", "--from-cache", "--out", "{tmp}/s.json"],
    ["ingest", "--once", "--out", "{tmp}/live.snap.json"],
], ids=["run", "serve-snapshot-from-cache", "ingest"])
def test_unknown_model_is_a_usage_error_before_any_build(capsys, tmp_path,
                                                         command):
    command = [arg.replace("{tmp}", str(tmp_path)) for arg in command]
    err = _fails_with(
        capsys, [*SMALL, "--model", "bogus", "--cache-dir",
                 str(tmp_path / "cache"), *command],
        "repro-pipeline: error: --model: unknown model 'bogus'; available: "
        "['sim-gpt-3.5-turbo', 'sim-gpt-4-turbo', 'sim-llama-3.1', "
        "'sim-oracle']")
    assert "building corpus" not in err
    assert list(tmp_path.iterdir()) == []


def test_snapshot_from_cold_cache_is_a_usage_error(capsys, tmp_path):
    capsys.readouterr()
    assert main([*SMALL, "--cache-dir", str(tmp_path / "empty"),
                 "serve-snapshot", "--from-cache",
                 "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("repro-pipeline: error: cache holds no "
                             "records-layer entry for 56 of 56 domains: ")
    assert err[1:] == [_USAGE_HINT]
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("faults", [",", " , "])
def test_fault_list_naming_no_class_is_a_usage_error(capsys, snapshot_path,
                                                     faults):
    _fails_with(capsys, ["chaos", "--snapshot", snapshot_path,
                         "--requests", "20", "--faults", faults],
                f"repro-pipeline: error: --faults: no fault class named in "
                f"{faults!r}")
