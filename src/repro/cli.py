"""Command-line interface: build the corpus, run the pipeline, print tables.

Examples::

    repro-pipeline --fraction 0.1 run --out annotations.jsonl
    repro-pipeline --fraction 0.1 tables
    repro-pipeline --fraction 0.1 validate
    repro-pipeline --fraction 0.2 crawl-stats
    repro-pipeline --fraction 0.1 serve-snapshot --out corpus.snap.json
    repro-pipeline query --snapshot corpus.snap.json --domain acme.com
    repro-pipeline compliance --snapshot corpus.snap.json --pack gdpr
    repro-pipeline compliance --snapshot corpus.snap.json --engine check \\
        --predicate '{"op": "atom", "aspect": "purposes",
                      "category": "Data sharing"}'
    repro-pipeline --cache-dir .cache ingest --out live.snap --shards 4 \\
        --watch --max-rounds 5 --mutate-per-round 2
    repro-pipeline bench-serve --snapshot corpus.snap.json --requests 2000
    repro-pipeline chaos --snapshot corpus.snap.json --chaos-seed 7 \\
        --faults worker-death,cache-poison

Global options (``--seed``, ``--fraction``, ``--cache-dir``, ...) go
before the subcommand. Errors are diagnosed, never dumped as tracebacks:
unknown subcommands, invalid flag combinations and out-of-range values
exit with status 2, a one-line error and a usage hint.
The ``chaos`` subcommand exits 1 when any invariant is violated.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis import (
    access_profile,
    annotated_records,
    category_count_distribution,
    data_for_sale_count,
    render_access_profile,
    render_breakdown,
    render_distribution,
    render_retention,
    render_table1,
    retention_findings,
    table1_summary,
    table2a_types,
    table2b_purposes,
    table3_practices,
)
from repro.corpus import CorpusConfig, build_corpus
from repro.errors import ChatModelError, CorpusError
from repro.pipeline import PipelineOptions, run_pipeline, write_jsonl
from repro.validation import audit_failures, compare_models, sampled_precision


class CLIUsageError(Exception):
    """A bad flag combination; rendered as `error + usage hint`, exit 2."""


def _progress(done: int, total: int, domain: str) -> None:
    if done % 100 == 0 or done == total:
        print(f"  ... {done}/{total} domains", file=sys.stderr)


def _resolve_cache(args):
    """Build the PipelineCache implied by --cache-dir/--resume/--invalidate.

    ``--resume`` demands an existing, non-empty cache (a typo'd path must
    not silently recompute everything); ``--invalidate LAYER`` drops
    entries before the run.
    """
    if args.cache_dir is None:
        if args.resume:
            raise CLIUsageError("--resume requires --cache-dir")
        if args.invalidate:
            raise CLIUsageError("--invalidate requires --cache-dir")
        return None

    from repro.pipeline import PipelineCache

    cache = PipelineCache(args.cache_dir)
    if args.invalidate:
        removed = cache.invalidate(args.invalidate)
        print(f"cache: invalidated {removed} {args.invalidate} entr"
              f"{'y' if removed == 1 else 'ies'} in {args.cache_dir}",
              file=sys.stderr)
    if args.resume:
        entries = cache.entry_count()
        if entries == 0:
            raise CLIUsageError(
                f"--resume: no cache entries found under {args.cache_dir}; "
                f"run once with --cache-dir first (or drop --resume)")
        print(f"cache: resuming from {entries} checkpointed entries",
              file=sys.stderr)
    return cache


def _pipeline_options(args) -> PipelineOptions:
    """The pipeline options the global flags select; callers build them
    before the corpus, so an unknown ``--model`` builds nothing."""
    kwargs = {"model_name": args.model, "annotator": args.annotator,
              "practice_escalation_threshold":
                  args.practice_escalation_threshold}
    if args.escalation_threshold is not None:
        kwargs["escalation_threshold"] = args.escalation_threshold
    try:
        return PipelineOptions(**kwargs)
    except ChatModelError as exc:
        raise CLIUsageError(f"--model: {exc}")


def _build_corpus(args, announce: bool = False):
    """Build the corpus ``--seed`` and ``--fraction`` select."""
    try:
        config = CorpusConfig(seed=args.seed, fraction=args.fraction)
    except CorpusError as exc:
        raise CLIUsageError(f"--fraction: {exc}, got {args.fraction}")
    if announce:
        print(f"building corpus (seed={args.seed}, "
              f"fraction={args.fraction})", file=sys.stderr)
    return build_corpus(config)


def _build_and_run(args):
    options = _pipeline_options(args)
    cache = _resolve_cache(args)
    corpus = _build_corpus(args, announce=True)
    start = time.time()
    executor = None
    if (args.workers > 1 or args.backend != "thread"
            or args.shard_size is not None):
        from repro.pipeline import ExecutorOptions

        kwargs = {"workers": args.workers, "backend": args.backend}
        if args.shard_size is not None:
            kwargs["shard_size"] = args.shard_size
        executor = ExecutorOptions(**kwargs)
    result = run_pipeline(corpus, options, progress=_progress,
                          executor=executor, cache=cache)
    print(f"pipeline finished in {time.time() - start:.1f}s "
          f"({args.workers} worker{'s' if args.workers != 1 else ''}, "
          f"{args.backend} backend)",
          file=sys.stderr)
    if result.stage_timings:
        print(f"stage timings: {result.stage_timings.summary()}",
              file=sys.stderr)
    if cache is not None:
        counts = result.stage_timings.counts()
        print(f"cache: {counts.get('cache.record.hit', 0)} domains served "
              f"from store, {counts.get('cache.record.miss', 0)} recomputed "
              f"({counts.get('cache.crawl.hit', 0)} of those reused a cached "
              f"crawl)", file=sys.stderr)
    return corpus, result


def cmd_run(args) -> int:
    corpus, result = _build_and_run(args)
    n = result.domains_total()
    print(f"domains:               {n}")
    print(f"crawl successes:       {result.crawl_successes()} "
          f"({100 * result.crawl_successes() / n:.1f}%)")
    print(f"extraction successes:  {result.extraction_successes()} "
          f"({100 * result.extraction_successes() / n:.1f}%)")
    print(f"annotated domains:     {len(result.annotated_domains())}")
    print(f"fallback activations:  {result.fallback_domains()} domains")
    print(f"median policy length:  {result.median_policy_words()} words")
    print(f"chatbot tokens:        {result.prompt_tokens:,} prompt / "
          f"{result.completion_tokens:,} completion")
    if args.out:
        write_jsonl(result.records, args.out)
        print(f"annotations written to {args.out}")
    if args.csv_dir:
        from pathlib import Path

        from repro.analysis import write_annotations_csv, write_domains_csv

        directory = Path(args.csv_dir)
        n_annotations = write_annotations_csv(
            result.records, directory / "annotations.csv")
        write_domains_csv(result.records, directory / "domains.csv")
        print(f"{n_annotations} annotation rows written to {directory}/")
    if args.report:
        from repro.analysis import generate_report

        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(generate_report(result.records))
        print(f"markdown report written to {args.report}")
    return 0


def cmd_tables(args) -> int:
    records = _build_and_run(args)[1].records
    for title, table in (
            ("Table 1 — annotation summary (types)",
             render_table1(table1_summary(records), max_rows=12)),
            ("Table 2a — collected data types by meta-category",
             render_breakdown(table2a_types(records))),
            ("Table 2b — data collection purposes",
             render_breakdown(table2b_purposes(records))),
            ("Table 3 — data handling and user rights",
             render_breakdown(table3_practices(records)))):
        print("=" * 72)
        print(title)
        print("=" * 72)
        print(table)
        print()
    print("§5 findings")
    print("-" * 72)
    print(render_distribution(category_count_distribution(records)))
    print(render_retention(retention_findings(records)))
    print(render_access_profile(access_profile(records)))
    print(f"companies mentioning data-for-sale: {data_for_sale_count(records)}")
    return 0


def cmd_validate(args) -> int:
    corpus, result = _build_and_run(args)
    report = sampled_precision(corpus, annotated_records(result.records),
                               seed=args.seed)
    print("sampled annotation precision (paper protocol):")
    for aspect, value in report.as_dict().items():
        print(f"  {aspect:<10} {value * 100:.1f}%")
    audit = audit_failures(corpus, result, sample_size=50, seed=args.seed)
    print(f"failure audit over {audit.sample_size} sampled failures:")
    for category, count in sorted(audit.counts().items(),
                                  key=lambda kv: -kv[1]):
        print(f"  {category:<22} {count}")
    return 0


def cmd_models(args) -> int:
    results = compare_models(_build_corpus(args), n_policies=args.policies,
                             seed=args.seed)
    print(f"extraction precision over {args.policies} policies:")
    for name, study in results.items():
        print(f"  {name:<20} {study.precision * 100:5.1f}%  "
              f"({len(study.judgements)} extractions, "
              f"{study.negation_errors()} negation errors)")
    return 0


def cmd_crawl_stats(args) -> int:
    _, result = _build_and_run(args)
    print(f"mean pages crawled per domain:   {result.mean_pages_crawled():.2f}")
    print(f"mean privacy pages per success:  {result.mean_privacy_pages():.2f}")
    print(f"crawl success rate:              "
          f"{100 * result.crawl_successes() / result.domains_total():.1f}%")
    print("fetch counters (this run):")
    for name, value in result.fetch_stats.as_dict().items():
        print(f"  {name:<14} {value}")
    return 0


def cmd_serve_snapshot(args) -> int:
    from repro.errors import SnapshotError
    from repro.serve import partition_snapshot, snapshot_from_cache, \
        snapshot_from_result, write_sharded_snapshot, write_snapshot

    if args.from_cache:
        if args.cache_dir is None:
            raise CLIUsageError("serve-snapshot --from-cache requires "
                                "--cache-dir")
        from repro.pipeline import PipelineCache

        options = _pipeline_options(args)
        try:  # a cold cache: the message names the missing domains
            snapshot = snapshot_from_cache(_build_corpus(args), options,
                                           PipelineCache(args.cache_dir))
        except SnapshotError as exc:
            raise CLIUsageError(str(exc))
    else:
        _, result = _build_and_run(args)
        snapshot = snapshot_from_result(result, provenance={
            "corpus_seed": args.seed, "corpus_fraction": args.fraction})
    if args.shards > 1:
        write_sharded_snapshot(partition_snapshot(snapshot, args.shards),
                               args.out)
        print(f"snapshot: {snapshot.domain_count()} domains across "
              f"{args.shards} shards, fingerprint "
              f"{snapshot.fingerprint[:16]}…, written to {args.out}/")
    else:
        path = write_snapshot(snapshot, args.out)
        print(f"snapshot: {snapshot.domain_count()} domains, "
              f"fingerprint {snapshot.fingerprint[:16]}…, written to {path}")
    return 0


def _load_snapshot_arg(path):
    """Load ``--snapshot PATH`` — a snapshot file or a sharded directory.

    Returns a :class:`CorpusSnapshot` for a file, a
    :class:`ShardedSnapshot` for a directory written by
    ``serve-snapshot --shards N``; both are verified on load.
    """
    import os

    from repro.errors import SnapshotError
    from repro.serve import load_sharded_snapshot, load_snapshot

    try:
        if os.path.isdir(path):
            return load_sharded_snapshot(path)
        return load_snapshot(path)
    except SnapshotError as exc:
        raise CLIUsageError(str(exc))


def _one_mode(args, command: str, modes) -> str:
    """The one mode flag of ``modes`` that is set; a usage error otherwise."""
    chosen = [mode for mode in modes if getattr(args, mode) is not None]
    if len(chosen) != 1:
        flags = "/".join(f"--{mode.replace('_', '-')}" for mode in modes)
        raise CLIUsageError(f"{command} needs exactly one of {flags} "
                            f"(got {len(chosen)})")
    return chosen[0]


def cmd_query(args) -> int:
    from repro.errors import QueryError
    from repro.serve import (
        AspectMentions,
        CorpusIndex,
        DomainLookup,
        FacetFilter,
        QueryEngine,
        SectorAggregate,
        TableAggregate,
        TopDescriptors,
    )

    # Each mode flag and the typed query it builds.
    queries = {
        "domain": lambda: DomainLookup(domain=args.domain),
        "sector": lambda: SectorAggregate(sector=args.sector),
        "table": lambda: TableAggregate(table=args.table),
        "top": lambda: TopDescriptors(facet=args.top, k=args.k,
                                      sector=args.in_sector),
        "aspect": lambda: AspectMentions(aspect=args.aspect,
                                         limit=args.limit),
        "filter": lambda: FacetFilter(
            facet=args.filter, category=args.category,
            descriptor=args.descriptor, sector=args.in_sector,
            status=args.status),
    }
    query = queries[_one_mode(args, "query", queries)]()
    snapshot = _load_snapshot_arg(args.snapshot)
    engine = QueryEngine(CorpusIndex.build(snapshot))
    try:
        print(engine.execute(query).to_json())
    except QueryError as exc:
        raise CLIUsageError(str(exc))
    return 0


#: The mode flags of `compliance`, in the order its usage error names them.
_COMPLIANCE_MODES = ("predicate", "pack", "rule_pack", "compile")


def cmd_compliance(args) -> int:
    from repro._util.artifacts import canonical_json
    from repro.compliance import ReferenceEvaluator, compile_record, \
        load_rule_pack, parse_predicate, scan_forms
    from repro.errors import ComplianceError, PredicateError, QueryError
    from repro.serve import ComplianceScan, CorpusIndex, PredicateQuery, \
        QueryEngine, query_kind

    mode = _one_mode(args, "compliance", _COMPLIANCE_MODES)
    if mode == "predicate":
        if args.rule is not None:
            raise CLIUsageError("--rule only applies with --pack")
        if args.in_sector is not None:
            raise CLIUsageError(
                "--in-sector only applies with --pack/--rule-pack")
    if mode in ("pack", "rule_pack") and args.evidence:
        raise CLIUsageError("--evidence only applies with --predicate "
                            "(scan verdicts always carry evidence)")
    if mode == "rule_pack" and args.engine != "indexed":
        raise CLIUsageError(
            "--engine only applies to built-in packs; a user --rule-pack "
            "always evaluates through the reference scan")
    snapshot = _load_snapshot_arg(args.snapshot)
    records = list(snapshot.records)

    if mode == "compile":  # print the domain's canonical logical form
        record = next((r for r in records
                       if r.domain == args.compile), None)
        if record is None:
            raise CLIUsageError(
                f"--compile: domain {args.compile!r} not in snapshot")
        print(compile_record(record).to_json())
        return 0

    if mode == "rule_pack":  # scan a user-supplied pack
        try:
            pack = load_rule_pack(args.rule_pack)
            payload = scan_forms(pack,
                                 [compile_record(r) for r in records],
                                 rule_id=args.rule, sector=args.in_sector)
        except ComplianceError as exc:
            raise CLIUsageError(str(exc))
        print(canonical_json({"kind": "compliance", "payload": payload}))
        return 0

    if mode == "predicate":
        query = PredicateQuery(predicate=args.predicate,
                               evidence=args.evidence)
    else:
        query = ComplianceScan(pack=args.pack, rule=args.rule,
                               sector=args.in_sector)
    try:
        indexed_body = oracle_body = None
        if args.engine in ("indexed", "check"):
            engine = QueryEngine(CorpusIndex.build(snapshot))
            indexed_body = engine.execute(query).to_json()
        if args.engine in ("oracle", "check"):
            oracle = ReferenceEvaluator(records)
            if isinstance(query, PredicateQuery):
                payload = oracle.predicate(parse_predicate(query.predicate),
                                           evidence=query.evidence)
            else:
                payload = oracle.scan(query.pack, rule_id=query.rule,
                                      sector=query.sector)
            oracle_body = canonical_json({"kind": query_kind(query),
                                          "payload": payload})
    except (ComplianceError, PredicateError, QueryError) as exc:
        raise CLIUsageError(str(exc))

    print(indexed_body if indexed_body is not None else oracle_body)
    if args.engine == "check" and indexed_body != oracle_body:
        print("repro-pipeline: compliance: indexed and oracle answers "
              "differ (this is a bug — the paths must be byte-identical)",
              file=sys.stderr)
        return 1
    if args.engine == "check":
        print("check: indexed answer is byte-identical to the oracle",
              file=sys.stderr)
    return 0


def _parse_refresh_policy(spec: str | None):
    """Parse ``--refresh-policy`` (``interval:K[,priority:d1|d2]``)."""
    from repro.ingest import SchedulePolicy

    if spec is None:
        return SchedulePolicy()
    interval, priority = 1, ()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition(":")
        if not sep:
            raise CLIUsageError(
                f"--refresh-policy: bad clause {part!r} (expected "
                f"interval:K or priority:dom1|dom2)")
        if key == "interval":
            try:
                interval = int(value)
            except ValueError:
                raise CLIUsageError(
                    f"--refresh-policy: interval must be an integer, got "
                    f"{value!r}")
            if interval < 1:
                raise CLIUsageError(
                    f"--refresh-policy: interval must be >= 1, got "
                    f"{interval}")
        elif key == "priority":
            priority = tuple(d for d in value.split("|") if d)
        else:
            raise CLIUsageError(
                f"--refresh-policy: unknown key {key!r} (expected "
                f"interval or priority)")
    return SchedulePolicy(interval_rounds=interval, priority=priority)


def cmd_ingest(args) -> int:
    from repro.errors import IngestError
    from repro.ingest import (
        IngestScheduler,
        PolicyChangeFeed,
        apply_patches,
        apply_patches_sharded,
        refresh_differential,
    )
    from repro.serve import (
        build_snapshot,
        partition_snapshot,
        write_sharded_snapshot,
        write_snapshot,
    )

    if args.cache_dir is None:
        raise CLIUsageError("ingest requires --cache-dir: the delta path "
                            "is defined in terms of the pipeline cache")
    if args.once and args.max_rounds is not None:
        raise CLIUsageError("--max-rounds only applies with --watch")
    policy = _parse_refresh_policy(args.refresh_policy)
    options = _pipeline_options(args)
    cache = _resolve_cache(args)
    corpus = _build_corpus(args, announce=True)
    watched = (corpus.domains[:args.domains]
               if args.domains is not None else None)
    try:
        scheduler = IngestScheduler(corpus, options, cache,
                                    domains=watched, policy=policy,
                                    seed=args.ingest_seed,
                                    compact_every=args.compact_every)
        feed = (PolicyChangeFeed(corpus, seed=args.ingest_seed,
                                 per_round=args.mutate_per_round,
                                 domains=watched)
                if args.mutate_per_round > 0 else None)

        start = time.time()
        records = scheduler.bootstrap()
        snapshot = build_snapshot(records, provenance={
            "corpus_seed": args.seed, "corpus_fraction": args.fraction,
            "ingest_seed": args.ingest_seed})
        if args.shards > 1:
            serving = partition_snapshot(snapshot, args.shards)
            write_sharded_snapshot(serving, args.out)
        else:
            serving = snapshot
            write_snapshot(serving, args.out)
        print(f"bootstrap: {snapshot.domain_count()} domains in "
              f"{time.time() - start:.1f}s, fingerprint "
              f"{serving.fingerprint[:16]}…, written to {args.out}",
              file=sys.stderr)
        if args.once:
            return 0

        def apply_round(rnd) -> str:
            nonlocal serving
            patches = list(rnd.patches)
            if not patches:
                return "no refresh needed"
            if args.shards > 1:
                result = apply_patches_sharded(serving, patches)
                serving = result.sharded
                written = write_sharded_snapshot(serving, args.out)
                return (f"{len(result.touched)}/{len(serving.shards)} "
                        f"shards rebuilt, {len(written)} files written")
            serving = apply_patches(serving, patches)
            write_snapshot(serving, args.out)
            return "snapshot rewritten"

        for _ in range(args.max_rounds or 3):
            changed = feed.next_round() if feed is not None else []
            rnd = scheduler.run_round()
            delta = apply_round(rnd)
            print(f"round {rnd.number}: {len(changed)} simulated edits, "
                  f"{len(rnd.due)} due, {len(rnd.skipped)} skipped, "
                  f"{len(rnd.patches)} patches ({delta})"
                  + (f", {rnd.compacted} cache entries compacted"
                     if rnd.compacted else ""),
                  file=sys.stderr)

        # Settle round: re-check every watched domain once so the
        # differential compares a fully caught-up snapshot — interval
        # policies legitimately lag behind edits to not-yet-due domains.
        scheduler.trigger(*scheduler.domains)
        settle = scheduler.run_round()
        delta = apply_round(settle)
        print(f"settle round: {len(settle.due)} due, "
              f"{len(settle.patches)} patches ({delta})", file=sys.stderr)

        verdict = refresh_differential(corpus, options, cache, serving,
                                       domains=scheduler.domains)
        counts = scheduler.counts()
        print(f"ingest counters: {scheduler.counters.summary()}",
              file=sys.stderr)
        if not verdict["identical"]:
            print("repro-pipeline: ingest: differential verification "
                  "FAILED — the incrementally refreshed snapshot is not "
                  "byte-identical to a from-scratch rebuild "
                  f"(incremental {verdict['incremental_fingerprint'][:16]}…, "
                  f"rebuild {verdict['rebuild_fingerprint'][:16]}…)",
                  file=sys.stderr)
            return 1
        print(f"differential: incremental refresh is fingerprint-identical "
              f"to a from-scratch rebuild "
              f"({verdict['incremental_fingerprint'][:16]}…) — "
              f"{counts.get('ingest.annotated', 0)} re-annotations for "
              f"{counts.get('ingest.checked', 0)} checks")
        return 0
    except IngestError as exc:
        raise CLIUsageError(str(exc))


def _emit_report(payload: dict, out: str | None, label: str) -> None:
    """Print a JSON report; with ``--out``, also write it atomically."""
    import json

    from repro._util import write_json_atomic

    print(json.dumps(payload, indent=2, sort_keys=True))
    if out:
        write_json_atomic(out, payload, sort_keys=True)
        print(f"{label} written to {out}", file=sys.stderr)


def cmd_bench_serve(args) -> int:
    from repro.serve import (
        AnnotationServer,
        ServerConfig,
        WorkloadConfig,
        generate_workload,
        run_load,
    )

    snapshot = _load_snapshot_arg(args.snapshot)
    config = ServerConfig(workers=args.serve_workers,
                          queue_depth=args.queue_depth,
                          cache_entries=args.cache_entries,
                          shards=args.shards)
    server = AnnotationServer(snapshot, config)
    workload_config = WorkloadConfig(seed=args.load_seed,
                                     requests=args.requests)
    workload = generate_workload(server.index, workload_config)
    with server:
        report = run_load(server, workload, clients=args.clients)
    payload = {
        "snapshot_fingerprint": snapshot.fingerprint,
        "snapshot_domains": snapshot.domain_count(),
        "config": {"serve_workers": config.workers,
                   "queue_depth": config.queue_depth,
                   "cache_entries": config.cache_entries,
                   "shards": (server.sharded.shard_count
                              if server.sharded is not None else 1),
                   "clients": args.clients,
                   "requests": args.requests,
                   "load_seed": args.load_seed},
        "load": report.as_dict(),
        "server_metrics": server.metrics.as_dict(),
    }
    _emit_report(payload, args.out, "benchmark artifact")
    return 0


def cmd_chaos(args) -> int:
    import tempfile

    from repro.errors import ChaosError
    from repro.serve import (
        SERVE_FAULT_CLASSES,
        FaultPlan,
        ServerConfig,
        ShardedSnapshot,
        WorkloadConfig,
        partition_snapshot,
        run_chaos,
        snapshot_corruption_trials,
    )

    snapshot = _load_snapshot_arg(args.snapshot)
    shards = args.shards
    if isinstance(snapshot, ShardedSnapshot):
        # A sharded directory is served as loaded, at its own shard count
        # unless --shards overrides it.
        if shards == 1:
            shards = snapshot.shard_count
        elif shards != snapshot.shard_count:
            snapshot = partition_snapshot(snapshot, shards)
    if args.faults:
        classes = tuple(name.strip() for name in args.faults.split(",")
                        if name.strip())
        if not classes:
            raise CLIUsageError(f"--faults: no fault class named in "
                                f"{args.faults!r}")
    else:
        classes = SERVE_FAULT_CLASSES
    try:
        plan = FaultPlan.from_seed(args.chaos_seed, requests=args.requests,
                                   classes=classes,
                                   events_per_class=args.events_per_class)
    except ChaosError as exc:
        raise CLIUsageError(str(exc))
    config = ServerConfig(workers=args.serve_workers,
                          queue_depth=args.queue_depth, shards=shards)
    report = run_chaos(
        snapshot, plan,
        workload_config=WorkloadConfig(seed=args.load_seed,
                                       requests=args.requests),
        server_config=config, clients=args.clients,
        deadline_s=args.deadline)
    payload = {
        "plan": plan.to_payload(),
        "fault_classes": list(plan.classes()),
        "shards": shards,
        "report": report.as_dict(),
    }
    if args.snapshot_faults:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
            payload["snapshot_faults"] = snapshot_corruption_trials(
                snapshot, seed=args.chaos_seed, workdir=workdir)
    _emit_report(payload, args.out, "chaos report")
    violations = report.violations() \
        + payload.get("snapshot_faults", {}).get("violations", 0)
    if violations:
        print(f"repro-pipeline: chaos: {violations} invariant "
              f"violation{'s' if violations != 1 else ''} detected",
              file=sys.stderr)
        return 1
    return 0


#: Each subcommand, in the order ``--help`` lists it: handler and help.
COMMANDS = {
    "run": (cmd_run, "run the pipeline end to end"),
    "tables": (cmd_tables, "print the paper's tables"),
    "validate": (cmd_validate, "precision + failure audit"),
    "models": (cmd_models, "model comparison study"),
    "crawl-stats": (cmd_crawl_stats, "crawl statistics"),
    "serve-snapshot": (cmd_serve_snapshot, "freeze a pipeline run into a "
                       "servable corpus snapshot"),
    "query": (cmd_query, "run one typed query against a corpus snapshot"),
    "compliance": (cmd_compliance, "predicate queries and rule-pack scans "
                   "over compiled logical forms"),
    "ingest": (cmd_ingest, "continuous ingestion: incremental re-crawl, "
               "delta re-annotation, live snapshot refresh"),
    "bench-serve": (cmd_bench_serve, "closed-loop load benchmark against a "
                    "corpus snapshot"),
    "chaos": (cmd_chaos, "fault-injection run with shed/wrong-byte/recovery "
              "invariants"),
}

#: One-line usage hint appended to every usage error.
_USAGE_HINT = ("usage: repro-pipeline [options] {" + ",".join(COMMANDS)
               + "} ... (see repro-pipeline --help)")


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number}")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if not number > 0.0:  # rejects NaN too
        raise argparse.ArgumentTypeError(f"must be > 0, got {number}")
    return number


def _unit_float(value: str) -> float:
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {number}")
    return number


def _add_load_flags(parser: argparse.ArgumentParser, *, requests: int,
                    clients: int, queue_depth: int) -> None:
    """The load and report flags `bench-serve` and `chaos` share."""
    parser.add_argument("--requests", type=_positive_int, default=requests)
    parser.add_argument("--clients", type=_positive_int, default=clients)
    parser.add_argument("--serve-workers", type=_positive_int, default=2)
    parser.add_argument("--queue-depth", type=_positive_int,
                        default=queue_depth)
    parser.add_argument("--load-seed", type=int, default=0)
    parser.add_argument("--out", metavar="PATH",
                        help="write the JSON report here as well")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pipeline",
        description="Privacy-policy annotation pipeline (IMC'24 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--fraction", type=float, default=0.1,
                        help="corpus scale; 1.0 = full 2,892 domains")
    parser.add_argument("--model", default="sim-gpt-4-turbo")
    parser.add_argument("--annotator", choices=["chatbot", "cascade"],
                        default="chatbot",
                        help="'chatbot' sends every segment through the "
                        "chat tasks (the paper's pipeline); 'cascade' runs "
                        "the distilled fast path first and escalates only "
                        "low-confidence segments (default: chatbot)")
    parser.add_argument("--escalation-threshold", type=_unit_float,
                        default=None, metavar="T",
                        help="cascade: escalate segments whose fast-path "
                        "confidence is below T; 1.0 escalates everything "
                        "(byte-identical to --annotator chatbot)")
    parser.add_argument("--practice-escalation-threshold", type=_unit_float,
                        default=None, metavar="T",
                        help="cascade: stricter threshold for practice "
                        "aspects and negation-sensitive segments "
                        "(default: escalation threshold + 0.3)")
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="parallel pipeline workers; results are "
                        "identical for any value (sharded executor)")
    parser.add_argument("--backend", choices=["serial", "thread", "process"],
                        default="thread",
                        help="executor backend: 'process' scales "
                        "compute-bound runs with CPU cores (GIL-free), "
                        "'thread' suits network-bound runs with simulated "
                        "fetch latency, 'serial' runs shards inline; "
                        "records are byte-identical across all three "
                        "(default: thread)")
    parser.add_argument("--shard-size", type=_positive_int, metavar="N",
                        default=None,
                        help="domains per executor shard; small shards "
                        "balance load, large shards amortise per-shard "
                        "setup (default: 8)")
    parser.add_argument("--cache-dir", metavar="PATH",
                        help="content-addressed result store: unchanged "
                        "domains are served from disk, completed domains "
                        "are checkpointed atomically, and results stay "
                        "byte-identical to a fresh run")
    parser.add_argument("--resume", action="store_true",
                        help="with --cache-dir: continue an interrupted "
                        "run; errors if the cache directory holds no "
                        "checkpointed entries")
    parser.add_argument("--invalidate",
                        choices=["all", "records", "crawl"], metavar="LAYER",
                        help="with --cache-dir: drop cached entries before "
                        "running (LAYER: all, records — force "
                        "re-annotation but keep crawls — or crawl)")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=help)
                for name, (_, help) in COMMANDS.items()}
    for name in ("query", "compliance", "bench-serve", "chaos"):
        commands[name].add_argument("--snapshot", required=True,
                                    metavar="PATH")

    run_parser = commands["run"]
    run_parser.add_argument("--out", help="write annotations JSONL here")
    run_parser.add_argument("--csv-dir",
                            help="write annotations.csv + domains.csv here")
    run_parser.add_argument("--report",
                            help="write a markdown analysis report here")

    commands["models"].add_argument("--policies", type=_positive_int,
                                    default=20)

    snap_parser = commands["serve-snapshot"]
    snap_parser.add_argument("--out", required=True, metavar="PATH",
                             help="snapshot file to write (atomic)")
    snap_parser.add_argument("--from-cache", action="store_true",
                             help="build straight from a warm --cache-dir "
                             "without running any pipeline stage")
    snap_parser.add_argument("--shards", type=_positive_int, default=1,
                             help="partition the snapshot by domain hash "
                             "into N independently-loadable shard files "
                             "(--out becomes a directory; default: 1, a "
                             "single snapshot file)")

    query_parser = commands["query"]
    query_parser.add_argument("--domain", help="point lookup: one domain")
    query_parser.add_argument("--sector", help="sector aggregate")
    query_parser.add_argument("--table",
                              choices=["table1", "table2a", "table2b",
                                       "table3", "summary"],
                              help="precomputed aggregate table")
    query_parser.add_argument("--top", metavar="FACET",
                              choices=["types", "purposes", "labels"],
                              help="top-k descriptors for a facet")
    query_parser.add_argument("--k", type=_positive_int, default=10,
                              help="result size for --top (default: 10)")
    query_parser.add_argument("--aspect",
                              choices=["types", "purposes", "handling",
                                       "rights"],
                              help="verbatim mention segments for an aspect")
    query_parser.add_argument("--limit", type=_positive_int, default=50,
                              help="mention cap for --aspect (default: 50)")
    query_parser.add_argument("--filter", metavar="FACET",
                              choices=["types", "purposes", "labels"],
                              help="faceted domain filter")
    query_parser.add_argument("--category",
                              help="with --filter: taxonomy category")
    query_parser.add_argument("--descriptor",
                              help="with --filter: normalized descriptor")
    query_parser.add_argument("--status",
                              help="with --filter: record status")
    query_parser.add_argument("--in-sector", metavar="SECTOR",
                              help="restrict --top/--filter to one sector")

    compliance_parser = commands["compliance"]
    compliance_parser.add_argument("--predicate", metavar="JSON",
                                   help="predicate AST as JSON (ops: atom, "
                                   "all, any, not, segment)")
    compliance_parser.add_argument("--pack", choices=["gdpr", "ccpa"],
                                   help="scan a rule pack over the corpus")
    compliance_parser.add_argument("--rule-pack", metavar="FILE",
                                   help="scan a user-supplied rule pack: a "
                                   "JSON file in RulePack.to_payload() "
                                   "shape (evaluated through the "
                                   "reference scan)")
    compliance_parser.add_argument("--rule", metavar="ID",
                                   help="with --pack/--rule-pack: scan one "
                                   "rule only")
    compliance_parser.add_argument("--compile", metavar="DOMAIN",
                                   help="print one domain's compiled "
                                   "logical form")
    compliance_parser.add_argument("--in-sector", metavar="SECTOR",
                                   help="restrict --pack/--rule-pack to "
                                   "one sector")
    compliance_parser.add_argument("--evidence", action="store_true",
                                   help="with --predicate: attach verbatim "
                                   "evidence spans per matched domain")
    compliance_parser.add_argument("--engine",
                                   choices=["indexed", "oracle", "check"],
                                   default="indexed",
                                   help="'indexed' serves from the corpus "
                                   "index, 'oracle' brute-force rescans "
                                   "records, 'check' runs both and exits 1 "
                                   "unless byte-identical (default: "
                                   "indexed)")

    ingest_parser = commands["ingest"]
    ingest_parser.add_argument("--out", required=True, metavar="PATH",
                               help="serving snapshot to keep refreshed "
                               "(a directory with --shards > 1)")
    mode = ingest_parser.add_mutually_exclusive_group()
    mode.add_argument("--once", action="store_true",
                      help="bootstrap + write the snapshot, then exit")
    mode.add_argument("--watch", action="store_true",
                      help="run watcher rounds after bootstrap (the "
                      "default; bounded by --max-rounds)")
    ingest_parser.add_argument("--max-rounds", type=_positive_int,
                               metavar="N",
                               help="watcher rounds to run (default: 3)")
    ingest_parser.add_argument("--refresh-policy", metavar="SPEC",
                               help="re-check policy: interval:K "
                               "(staggered, every K rounds) and/or "
                               "priority:dom1|dom2 (every round); "
                               "default interval:1")
    ingest_parser.add_argument("--mutate-per-round", type=_non_negative_int,
                               default=1, metavar="M",
                               help="simulated policy edits per round via "
                               "the seeded change feed (0 disables; "
                               "default: 1)")
    ingest_parser.add_argument("--ingest-seed", type=int, default=0,
                               help="seed for the watcher queue order and "
                               "the change feed (default: 0)")
    ingest_parser.add_argument("--domains", type=_positive_int,
                               metavar="N",
                               help="watch only the first N corpus "
                               "domains (default: all)")
    ingest_parser.add_argument("--shards", type=_positive_int, default=1,
                               help="serve from N domain-hash shards; "
                               "a refresh writes only the touched "
                               "shards' files (default: 1)")
    ingest_parser.add_argument("--compact-every", type=_non_negative_int,
                               default=0, metavar="N",
                               help="prune superseded cache checkpoints "
                               "after every Nth round (0 disables)")

    bench_parser = commands["bench-serve"]
    _add_load_flags(bench_parser, requests=2000, clients=8, queue_depth=64)
    bench_parser.add_argument("--cache-entries", type=_non_negative_int,
                              default=256)
    bench_parser.add_argument("--shards", type=_positive_int, default=1,
                              help="serve from N shards merged into one index "
                              "(ignored when --snapshot is already a "
                              "sharded directory; default: 1)")

    chaos_parser = commands["chaos"]
    _add_load_flags(chaos_parser, requests=300, clients=4, queue_depth=16)
    chaos_parser.add_argument("--chaos-seed", type=int, default=0,
                              help="fault-plan seed (default: 0)")
    chaos_parser.add_argument("--faults", metavar="CLASS[,CLASS...]",
                              help="comma-separated serve fault classes "
                              "(default: all of slow-handler, worker-death, "
                              "worker-hang, cache-poison, clock-skew)")
    chaos_parser.add_argument("--events-per-class", type=_positive_int,
                              default=3)
    chaos_parser.add_argument("--deadline", type=_positive_float,
                              default=30.0,
                              help="per-request termination deadline, "
                              "seconds (default: 30)")
    chaos_parser.add_argument("--shards", type=_positive_int, default=1,
                              help="run the chaos protocol against a "
                              "sharded server; ok bytes are still diffed "
                              "against the single-index oracle (default: "
                              "a sharded --snapshot directory's own count)")
    chaos_parser.add_argument("--snapshot-faults", action="store_true",
                              help="also run seeded truncation/bit-flip "
                              "trials against the snapshot file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its usage + error line (or the full
        # --help text); surface the exit code instead of re-raising so
        # callers get a status, never a traceback.
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command][0](args)
    except CLIUsageError as exc:
        print(f"repro-pipeline: error: {exc}", file=sys.stderr)
        print(_USAGE_HINT, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
