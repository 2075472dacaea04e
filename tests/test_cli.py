"""Tests for the command-line interface."""

import json
import re
import shlex
from pathlib import Path

import pytest

from repro import cli
from repro.cli import _USAGE_HINT, build_parser, main
from repro.pipeline.records import read_jsonl
from repro.serve import (
    build_snapshot,
    partition_snapshot,
    write_sharded_snapshot,
    write_snapshot,
)

GOLDEN_RECORDS = Path(__file__).parent / "golden" / "records.jsonl"
README = Path(__file__).parent.parent / "README.md"


def _shell_commands(script: str) -> list[list[str]]:
    """The argv of each command in a shell script, split as bash splits it.

    A backslash before a newline joins two lines, ``#`` outside quotes
    comments out the rest of its line, and a newline outside quotes ends
    the command.
    """
    commands, pending = [], ""
    for line in script.splitlines(keepends=True):
        pending += line
        if pending.endswith("\\\n"):
            continue
        try:
            argv = shlex.split(pending.replace("\\\n", ""), comments=True)
        except ValueError:  # a quoted argument runs onto the next line
            continue
        if argv:
            commands.append(argv)
        pending = ""
    assert pending == "", f"unterminated command: {pending!r}"
    return commands


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        for command in ("run", "tables", "validate", "models", "crawl-stats"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.seed == 42
        assert args.fraction == 0.1
        assert args.model == "sim-gpt-4-turbo"

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_docstring_examples_parse(self):
        """Every example in the module docstring and in the README's bash
        blocks is a valid command line."""
        examples = re.search(r"Examples::\n\n((?: {4}.*\n)+)",
                             cli.__doc__).group(1)
        readme = README.read_text(encoding="utf-8")
        scripts = [examples, *re.findall(r"^```bash\n(.*?)^```", readme,
                                         flags=re.DOTALL | re.MULTILINE)]
        commands = [argv for script in scripts
                    for argv in _shell_commands(script)
                    if argv[0] == "repro-pipeline"]
        assert len(commands) == sum(
            line.lstrip().startswith("repro-pipeline ")
            for line in (examples + readme).splitlines())
        parser = build_parser()
        for argv in commands:
            try:
                args = parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"does not parse: {shlex.join(argv)}")
            if getattr(args, "predicate", None):
                json.loads(args.predicate)


class TestCommands:
    def test_run_small(self, capsys, tmp_path):
        out = tmp_path / "ann.jsonl"
        code = main(["--fraction", "0.02", "--seed", "3", "run",
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "crawl successes" in captured
        assert out.exists()
        assert out.read_text().strip()

    def test_models_small(self, capsys):
        code = main(["--fraction", "0.02", "--seed", "3", "models",
                     "--policies", "5"])
        assert code == 0
        assert "sim-gpt-4-turbo" in capsys.readouterr().out


class TestCacheFlags:
    def test_cache_flags_parse(self, tmp_path):
        args = build_parser().parse_args(
            ["--cache-dir", str(tmp_path), "--resume", "--invalidate",
             "records", "run"])
        assert args.cache_dir == str(tmp_path)
        assert args.resume is True
        assert args.invalidate == "records"
        args = build_parser().parse_args(["--invalidate", "all", "run"])
        assert args.invalidate == "all"
        assert args.command == "run"

    def test_invalidate_rejects_unknown_layer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--invalidate", "bogus", "run"])

    def test_cold_then_warm_run(self, capsys, tmp_path):
        base = ["--fraction", "0.02", "--seed", "3",
                "--cache-dir", str(tmp_path / "c"), "run"]
        assert main(base) == 0
        cold_out = capsys.readouterr().out
        assert main(base) == 0
        warm = capsys.readouterr()
        assert warm.out == cold_out  # identical stats either way
        assert "0 recomputed" in warm.err

    def test_resume_without_cache_dir_errors(self, capsys):
        assert main(["--fraction", "0.02", "--resume", "run"]) == 2
        assert "requires --cache-dir" in capsys.readouterr().err

    def test_resume_with_empty_cache_errors(self, capsys, tmp_path):
        code = main(["--fraction", "0.02",
                     "--cache-dir", str(tmp_path / "empty"), "--resume",
                     "run"])
        assert code == 2
        assert "no cache entries" in capsys.readouterr().err

    def test_invalidate_without_cache_dir_errors(self, capsys):
        assert main(["--fraction", "0.02", "--invalidate", "all",
                     "run"]) == 2
        assert "requires --cache-dir" in capsys.readouterr().err

    def test_invalidate_records_then_rerun(self, capsys, tmp_path):
        base = ["--fraction", "0.02", "--seed", "3",
                "--cache-dir", str(tmp_path / "c")]
        assert main(base + ["run"]) == 0
        capsys.readouterr()
        assert main(base + ["--invalidate", "records", "run"]) == 0
        err = capsys.readouterr().err
        assert "invalidated" in err
        # Re-annotated from stored crawls, not re-crawled.
        assert "reused a cached crawl" in err


class TestUsageErrors:
    """Every malformed invocation exits 2 with a usage line, no traceback."""

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["--no-such-flag", "run"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_missing_command_exits_2(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "repro-pipeline" in capsys.readouterr().out

    def test_bad_flag_combo_prints_one_line_hint(self, capsys):
        assert main(["--resume", "run"]) == 2
        err = capsys.readouterr().err
        assert "repro-pipeline: error:" in err
        assert _USAGE_HINT in err
        assert err.count(_USAGE_HINT) == 1
        assert "Traceback" not in err

    def test_query_without_mode_exits_2(self, capsys, tmp_path):
        code = main(["query", "--snapshot", str(tmp_path / "s.json")])
        assert code == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_query_with_two_modes_exits_2(self, capsys, tmp_path):
        code = main(["query", "--snapshot", str(tmp_path / "s.json"),
                     "--domain", "a.com", "--table", "summary"])
        assert code == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_query_missing_snapshot_file_exits_2(self, capsys, tmp_path):
        code = main(["query", "--snapshot", str(tmp_path / "nope.json"),
                     "--table", "summary"])
        assert code == 2
        assert "cannot read snapshot" in capsys.readouterr().err

    def test_snapshot_from_cache_without_cache_dir_exits_2(self, capsys,
                                                           tmp_path):
        code = main(["serve-snapshot", "--from-cache",
                     "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "requires --cache-dir" in capsys.readouterr().err


class TestServeCommands:
    @pytest.fixture(scope="class")
    def snapshot_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-serve") / "corpus.snap.json"
        code = main(["--fraction", "0.02", "--seed", "3",
                     "serve-snapshot", "--out", str(path)])
        assert code == 0
        return path

    def test_serve_snapshot_reports_fingerprint(self, capsys,
                                                tmp_path):
        out = tmp_path / "snap.json"
        assert main(["--fraction", "0.02", "--seed", "3",
                     "serve-snapshot", "--out", str(out)]) == 0
        assert "fingerprint" in capsys.readouterr().out
        assert out.exists()

    def test_serve_snapshot_from_cache_round_trip(self, capsys, tmp_path):
        base = ["--fraction", "0.02", "--seed", "3",
                "--cache-dir", str(tmp_path / "c")]
        assert main(base + ["run"]) == 0
        capsys.readouterr()
        out = tmp_path / "snap.json"
        code = main(base + ["serve-snapshot", "--from-cache",
                            "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_query_table_summary(self, capsys, snapshot_path):
        capsys.readouterr()
        assert main(["query", "--snapshot", str(snapshot_path),
                     "--table", "summary"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["kind"] == "table"
        assert body["payload"]["data"]["domains"] > 0

    def test_query_domain_lookup(self, capsys, snapshot_path):
        capsys.readouterr()
        assert main(["query", "--snapshot", str(snapshot_path),
                     "--domain", "definitely-missing.invalid"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["payload"] == {"domain": "definitely-missing.invalid",
                                   "found": False}

    def test_query_top_descriptors(self, capsys, snapshot_path):
        capsys.readouterr()
        assert main(["query", "--snapshot", str(snapshot_path),
                     "--top", "types", "--k", "3"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["kind"] == "top-descriptors"
        assert len(body["payload"]["descriptors"]) <= 3

    def test_bench_serve_smoke(self, capsys, snapshot_path, tmp_path):
        capsys.readouterr()
        out = tmp_path / "bench.json"
        code = main(["bench-serve", "--snapshot", str(snapshot_path),
                     "--requests", "120", "--clients", "4",
                     "--out", str(out)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(out.read_text())
        assert written == printed
        assert printed["load"]["requests"] == 120
        assert printed["load"]["errors"] == 0
        assert printed["load"]["throughput_rps"] > 0

    def test_bench_serve_parses_defaults(self):
        args = build_parser().parse_args(["bench-serve",
                                          "--snapshot", "s.json"])
        assert args.requests == 2000
        assert args.serve_workers == 2
        assert args.queue_depth == 64


class TestShardedDirectory:
    """A sharded directory answers exactly like the snapshot file it was
    cut from."""

    @pytest.fixture(scope="class")
    def golden_paths(self, tmp_path_factory):
        snapshot = build_snapshot(read_jsonl(GOLDEN_RECORDS),
                                  source="golden")
        root = tmp_path_factory.mktemp("cli-sharded")
        write_snapshot(snapshot, root / "golden.snap.json")
        write_sharded_snapshot(partition_snapshot(snapshot, 3),
                               root / "golden.sharded")
        return root / "golden.snap.json", root / "golden.sharded"

    @pytest.mark.parametrize("argv", [
        ["query", "--table", "summary"],
        ["query", "--aspect", "types", "--limit", "5"],
        ["query", "--filter", "types", "--category", "Contact info"],
        ["compliance", "--pack", "gdpr", "--engine", "check"],
    ], ids=["summary", "aspect", "filter", "compliance-check"])
    def test_file_and_sharded_directory_print_the_same(self, capsys,
                                                      golden_paths, argv):
        printed = []
        for path in golden_paths:
            capsys.readouterr()
            assert main([argv[0], "--snapshot", str(path), *argv[1:]]) == 0
            printed.append(capsys.readouterr().out)
        assert json.loads(printed[0])["payload"]
        assert printed[1] == printed[0]


class TestChaosCommand:
    @pytest.fixture(scope="class")
    def snapshot_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-chaos") / "corpus.snap.json"
        assert main(["--fraction", "0.02", "--seed", "3",
                     "serve-snapshot", "--out", str(path)]) == 0
        return path

    def test_chaos_registered_with_defaults(self):
        args = build_parser().parse_args(["chaos", "--snapshot", "s.json"])
        assert args.command == "chaos"
        assert args.chaos_seed == 0
        assert args.requests == 300
        assert args.events_per_class == 3
        assert not args.snapshot_faults

    def test_chaos_clean_run_exits_0(self, capsys, snapshot_path,
                                     tmp_path):
        capsys.readouterr()
        out = tmp_path / "chaos.json"
        code = main(["chaos", "--snapshot", str(snapshot_path),
                     "--chaos-seed", "7", "--requests", "120",
                     "--faults", "slow-handler,cache-poison",
                     "--out", str(out)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["fault_classes"] == ["cache-poison", "slow-handler"]
        assert printed["report"]["violations"] == 0
        assert printed["report"]["recovered"] is True
        assert printed["report"]["requests"] == 120
        assert json.loads(out.read_text()) == printed

    def test_chaos_snapshot_faults_flag(self, capsys, snapshot_path):
        capsys.readouterr()
        code = main(["chaos", "--snapshot", str(snapshot_path),
                     "--requests", "60", "--faults", "clock-skew",
                     "--snapshot-faults"])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        disk = printed["snapshot_faults"]
        assert disk["violations"] == 0
        assert disk["detected"] > 0

    def test_chaos_unknown_fault_class_exits_2(self, capsys,
                                               snapshot_path):
        code = main(["chaos", "--snapshot", str(snapshot_path),
                     "--faults", "disk-on-fire"])
        assert code == 2
        err = capsys.readouterr().err
        assert "disk-on-fire" in err
        assert _USAGE_HINT in err

    def test_chaos_missing_snapshot_exits_2(self, capsys, tmp_path):
        code = main(["chaos", "--snapshot", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err
