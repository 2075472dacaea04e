#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Run from the repository root::

    python3 e2ebench/run.py --workload churn --seed 3 --seconds 35 --trace 0

With ``--trace 0`` the workload is timed for ``--seconds`` and the last
line of output is ``{"correct", "attempted", "failed", "metrics"}`` with
every end-to-end metric, times at the reference machine speed (see
``workloads.at_reference``). With ``--trace 1`` the same fixed work runs
twice, each time in a fresh process: once plain and once with every layer
boundary wrapped in a span. The last line then holds the per-layer
metrics of the traced pass and, as ``overhead.<metric>``, the traced minus
the plain value of each end-to-end metric; the two passes must produce
identical outputs. The line before the last is the run record (machine,
seeds, sizes, sample counts, calibration, wall-clock metrics, input and
output digests). The run record and the spans also go to ``.bench_out/``.

Exit status: 0 when every check passed, 1 when one failed (the result is
still printed), 2 when the program cannot be found or the run could not
complete (nothing is printed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
#: Wall-clock limit of each pass of a traced run, in seconds: the two
#: passes together stay well inside three minutes.
CHILD_TIMEOUT_S = 85


def _die(message: str) -> None:
    print(f"e2ebench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run
    against anything else (an installed copy, or no program at all)."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        _die(f"no program at {package}; run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        _die(f"imported repro from {repro.__file__}, not from {package}")


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _machine() -> dict:
    return {"nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "git_sha": git_sha()}


def run_pass(args, fixed: bool, traced: bool) -> dict:
    """Run the workload in this process; returns everything it measured."""
    import spans
    import workloads

    sizes = dataclasses.replace(
        workloads.TOY if args.toy else workloads.Sizes(),
        corpus_seed=args.corpus_seed)
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    run = workloads.Run(seed=args.seed, sizes=sizes, seconds=args.seconds,
                        workdir=workdir, fixed=fixed,
                        check_cpus=args.check_cpus)
    measure, check = workloads.WORKLOADS[args.workload]
    try:
        if traced:
            run.rec = spans.Recorder()
            with spans.instrument(run.rec):
                outcome, state = measure(run)
        else:
            outcome, state = measure(run)
        rss = _peak_rss_mb()
        started = time.perf_counter()
        check(outcome, state)
        check_s = time.perf_counter() - started
        bytes_written = sum(f.stat().st_size for d in run.cache_dirs
                            for f in d.rglob("*.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    slowdown = run.slowdown()
    metrics = workloads.at_reference(outcome.metrics, slowdown)
    metrics["peak_rss_mb"] = (rss, "MB")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "problems": outcome.problems,
        "output_digest": outcome.output_digest,
        "record": {**outcome.record, "sizes": dataclasses.asdict(sizes),
                   "calibration_ms": run.calibration_ms,
                   "slowdown": slowdown,
                   "wall_clock_metrics": {
                       name: {"value": value, "unit": unit}
                       for name, (value, unit) in outcome.metrics.items()},
                   "cache_bytes_written": bytes_written, "check_s": check_s},
    }
    if traced:
        layers = spans.layer_metrics(run.rec, outcome.reads, outcome.hits,
                                     outcome.shed, bytes_written)
        result["layers"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in layers.items()}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result["record"]["spans_file"] = str(run.rec.write(spans_path)
                                             .relative_to(ROOT))
    return result


def _child(args, mode: str) -> dict:
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--corpus-seed", str(args.corpus_seed), "--pass", mode]
    if args.toy:
        command.append("--toy")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _die(f"{mode} pass exceeded {CHILD_TIMEOUT_S}s")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stderr)
        _die(f"{mode} pass exited {done.returncode}")
    return json.loads(lines[-1])


def traced_run(args) -> tuple[dict, dict]:
    plain = _child(args, "plain")
    traced = _child(args, "traced")
    identical = plain["output_digest"] == traced["output_digest"]
    metrics = dict(traced["layers"])
    for name, entry in traced["metrics"].items():
        metrics[f"overhead.{name}"] = {
            "value": entry["value"] - plain["metrics"][name]["value"],
            "unit": entry["unit"]}
    failed = traced["failed"] + plain["failed"] + (0 if identical else 1)
    result = {"correct": failed == 0,
              "attempted": traced["attempted"] + plain["attempted"],
              "failed": failed, "metrics": metrics}
    record = {"plain": plain["record"], "traced": traced["record"],
              "outputs_identical": identical,
              "plain_metrics": plain["metrics"],
              "traced_metrics": traced["metrics"],
              "problems": plain["problems"] + traced["problems"]}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch", "churn"))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: reads, predicates, edits, "
                             "batch domain order and model seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=7,
                        help="seed of the synthetic corpus (default 7)")
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the smoke test")
    parser.add_argument("--pass", dest="pass_mode",
                        choices=("plain", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _load_program()
    sys.path.insert(0, str(HERE))
    # One CPU for the whole run: the server is bound by the GIL, and
    # hand-offs of the GIL between CPUs made throughput flip between two
    # levels from one run to the next. Only the output checks, after the
    # timed phase, use every CPU.
    args.check_cpus = frozenset(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(args.check_cpus)})

    if args.pass_mode is not None:
        result = run_pass(args, fixed=True,
                          traced=args.pass_mode == "traced")
        print(json.dumps(result, sort_keys=True))
        return 0 if result["correct"] else 1

    if args.trace:
        result, record = traced_run(args)
    else:
        full = run_pass(args, fixed=False, traced=False)
        result = {key: full[key] for key in
                  ("correct", "attempted", "failed", "metrics")}
        record = {**full["record"], "problems": full["problems"]}
    record = {"workload": args.workload, "seed": args.seed,
              "corpus_seed": args.corpus_seed, "seconds": args.seconds,
              "trace": args.trace, **_machine(), **record}
    OUT.mkdir(exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    for problem in record["problems"]:
        print(f"e2ebench: {problem}", file=sys.stderr)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        # A crash is not a failed check: report it without a result line.
        traceback.print_exc()
        sys.exit(2)
