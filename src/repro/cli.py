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
unknown subcommands and invalid flag combinations exit with status 2 and
a one-line usage hint.
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
from repro.pipeline import PipelineOptions, run_pipeline, write_jsonl
from repro.validation import audit_failures, compare_models, sampled_precision


class CLIUsageError(Exception):
    """A bad flag combination; rendered as `error + usage hint`, exit 2."""


#: One-line usage hint appended to every usage error.
_USAGE_HINT = ("usage: repro-pipeline [options] "
               "{run,tables,validate,models,crawl-stats,serve-snapshot,"
               "query,compliance,ingest,bench-serve,chaos} ... "
               "(see repro-pipeline --help)")


def _progress(done: int, total: int, domain: str) -> None:
    if done % 100 == 0 or done == total:
        print(f"  ... {done}/{total} domains", file=sys.stderr)


def _resolve_cache(args):
    """Build the PipelineCache implied by --cache-dir/--resume/--invalidate.

    ``--resume`` demands an existing, non-empty cache (a typo'd path must
    not silently recompute everything); ``--invalidate LAYER`` drops
    entries before the run.
    """
    cache_dir = getattr(args, "cache_dir", None)
    resume = getattr(args, "resume", False)
    invalidate = getattr(args, "invalidate", None)
    if cache_dir is None:
        if resume:
            raise CLIUsageError("--resume requires --cache-dir")
        if invalidate:
            raise CLIUsageError("--invalidate requires --cache-dir")
        return None

    from repro.pipeline import PipelineCache

    cache = PipelineCache(cache_dir)
    if invalidate:
        removed = cache.invalidate(invalidate)
        print(f"cache: invalidated {removed} {invalidate} entr"
              f"{'y' if removed == 1 else 'ies'} in {cache_dir}",
              file=sys.stderr)
    if resume:
        entries = cache.entry_count()
        if entries == 0:
            raise CLIUsageError(
                f"--resume: no cache entries found under {cache_dir}; run "
                f"once with --cache-dir first (or drop --resume)")
        print(f"cache: resuming from {entries} checkpointed entries",
              file=sys.stderr)
    return cache


def _print_cache_stats(result) -> None:
    counts = result.stage_timings.counts()
    record_hits = counts.get("cache.record.hit", 0)
    record_misses = counts.get("cache.record.miss", 0)
    crawl_hits = counts.get("cache.crawl.hit", 0)
    print(f"cache: {record_hits} domains served from store, "
          f"{record_misses} recomputed "
          f"({crawl_hits} of those reused a cached crawl)",
          file=sys.stderr)


def _pipeline_options(args) -> PipelineOptions:
    kwargs = {"model_name": args.model}
    if getattr(args, "annotator", None):
        kwargs["annotator"] = args.annotator
    if getattr(args, "escalation_threshold", None) is not None:
        kwargs["escalation_threshold"] = args.escalation_threshold
    if getattr(args, "practice_escalation_threshold", None) is not None:
        kwargs["practice_escalation_threshold"] = \
            args.practice_escalation_threshold
    return PipelineOptions(**kwargs)


def _build_and_run(args):
    cache = _resolve_cache(args)
    print(f"building corpus (seed={args.seed}, fraction={args.fraction})",
          file=sys.stderr)
    corpus = build_corpus(CorpusConfig(seed=args.seed,
                                       fraction=args.fraction))
    options = _pipeline_options(args)
    start = time.time()
    workers = getattr(args, "workers", 1)
    backend = getattr(args, "backend", "thread")
    shard_size = getattr(args, "shard_size", None)
    executor = None
    if workers > 1 or backend != "thread" or shard_size is not None:
        from repro.pipeline import ExecutorOptions

        kwargs = {"workers": workers, "backend": backend}
        if shard_size is not None:
            kwargs["shard_size"] = shard_size
        executor = ExecutorOptions(**kwargs)
    result = run_pipeline(corpus, options, progress=_progress,
                          executor=executor, cache=cache)
    print(f"pipeline finished in {time.time() - start:.1f}s "
          f"({workers} worker{'s' if workers != 1 else ''}, "
          f"{backend} backend)",
          file=sys.stderr)
    if result.stage_timings:
        print(f"stage timings: {result.stage_timings.summary()}",
              file=sys.stderr)
    if cache is not None:
        _print_cache_stats(result)
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
    _, result = _build_and_run(args)
    records = result.records
    print("=" * 72)
    print("Table 1 — annotation summary (types)")
    print("=" * 72)
    print(render_table1(table1_summary(records), max_rows=12))
    print()
    print("=" * 72)
    print("Table 2a — collected data types by meta-category")
    print("=" * 72)
    print(render_breakdown(table2a_types(records)))
    print()
    print("=" * 72)
    print("Table 2b — data collection purposes")
    print("=" * 72)
    print(render_breakdown(table2b_purposes(records)))
    print()
    print("=" * 72)
    print("Table 3 — data handling and user rights")
    print("=" * 72)
    print(render_breakdown(table3_practices(records)))
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
    corpus = build_corpus(CorpusConfig(seed=args.seed,
                                       fraction=args.fraction))
    results = compare_models(corpus, n_policies=args.policies,
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
    if result.fetch_stats is not None:
        print("fetch counters (this run):")
        for name, value in result.fetch_stats.as_dict().items():
            print(f"  {name:<14} {value}")
    return 0


def cmd_serve_snapshot(args) -> int:
    from repro.serve import partition_snapshot, snapshot_from_cache, \
        snapshot_from_result, write_sharded_snapshot, write_snapshot

    if args.from_cache:
        if getattr(args, "cache_dir", None) is None:
            raise CLIUsageError("serve-snapshot --from-cache requires "
                                "--cache-dir")
        from repro.pipeline import PipelineCache

        corpus = build_corpus(CorpusConfig(seed=args.seed,
                                           fraction=args.fraction))
        snapshot = snapshot_from_cache(corpus, _pipeline_options(args),
                                       PipelineCache(args.cache_dir))
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


def _snapshot_records(snapshot) -> list:
    from repro.serve import ShardedSnapshot

    if isinstance(snapshot, ShardedSnapshot):
        return list(snapshot.records())
    return list(snapshot.records)


def _snapshot_query(args):
    """Translate `repro-pipeline query` flags into exactly one typed query."""
    from repro.serve import (
        AspectMentions,
        DomainLookup,
        FacetFilter,
        SectorAggregate,
        TableAggregate,
        TopDescriptors,
    )

    modes = [name for name in ("domain", "sector", "table", "top", "aspect",
                               "filter") if getattr(args, name) is not None]
    if len(modes) != 1:
        raise CLIUsageError(
            "query needs exactly one of --domain/--sector/--table/--top/"
            f"--aspect/--filter (got {len(modes)})")
    mode = modes[0]
    if mode == "domain":
        return DomainLookup(domain=args.domain)
    if mode == "sector":
        return SectorAggregate(sector=args.sector)
    if mode == "table":
        return TableAggregate(table=args.table)
    if mode == "top":
        return TopDescriptors(facet=args.top, k=args.k,
                              sector=args.in_sector)
    if mode == "aspect":
        return AspectMentions(aspect=args.aspect, limit=args.limit)
    return FacetFilter(facet=args.filter, category=args.category,
                       descriptor=args.descriptor, sector=args.in_sector,
                       status=args.status)


def cmd_query(args) -> int:
    from repro.errors import QueryError
    from repro.serve import engine_for

    query = _snapshot_query(args)
    engine = engine_for(_load_snapshot_arg(args.snapshot))
    try:
        print(engine.execute(query).to_json())
    except QueryError as exc:
        raise CLIUsageError(str(exc))
    return 0


def _compliance_query(args):
    """Translate `compliance` flags into one typed query (or compile mode)."""
    from repro.serve import ComplianceScan, PredicateQuery

    modes = [name for name in ("predicate", "pack", "compile", "rule_pack")
             if getattr(args, name) is not None]
    if len(modes) != 1:
        raise CLIUsageError(
            "compliance needs exactly one of "
            "--predicate/--pack/--rule-pack/--compile "
            f"(got {len(modes)})")
    mode = modes[0]
    if mode == "predicate":
        if args.rule is not None:
            raise CLIUsageError("--rule only applies with --pack")
        if args.in_sector is not None:
            raise CLIUsageError(
                "--in-sector only applies with --pack/--rule-pack")
        return PredicateQuery(predicate=args.predicate,
                              evidence=args.evidence)
    if mode in ("pack", "rule_pack"):
        if args.evidence:
            raise CLIUsageError("--evidence only applies with --predicate "
                                "(scan verdicts always carry evidence)")
    if mode == "rule_pack" and args.engine != "indexed":
        raise CLIUsageError(
            "--engine only applies to built-in packs; a user --rule-pack "
            "always evaluates through the reference scan")
    if mode == "pack":
        return ComplianceScan(pack=args.pack, rule=args.rule,
                              sector=args.in_sector)
    return None  # --compile / --rule-pack handled by the caller


def cmd_compliance(args) -> int:
    from repro._util.artifacts import canonical_json
    from repro.compliance import ReferenceEvaluator, compile_record, \
        parse_predicate
    from repro.errors import ComplianceError, PredicateError, QueryError
    from repro.serve import PredicateQuery, engine_for, query_kind

    query = _compliance_query(args)
    snapshot = _load_snapshot_arg(args.snapshot)
    records = _snapshot_records(snapshot)

    if query is None and args.compile is not None:
        # --compile DOMAIN: print the canonical logical form
        record = next((r for r in records
                       if r.domain == args.compile), None)
        if record is None:
            raise CLIUsageError(
                f"--compile: domain {args.compile!r} not in snapshot")
        print(compile_record(record).to_json())
        return 0

    if query is None:  # --rule-pack FILE: scan a user-supplied pack
        from repro.compliance import load_rule_pack, scan_forms
        try:
            pack = load_rule_pack(args.rule_pack)
            payload = scan_forms(pack,
                                 [compile_record(r) for r in records],
                                 rule_id=args.rule, sector=args.in_sector)
        except ComplianceError as exc:
            raise CLIUsageError(str(exc))
        print(canonical_json({"kind": "compliance", "payload": payload}))
        return 0

    try:
        indexed_body = oracle_body = None
        if args.engine in ("indexed", "check"):
            engine = engine_for(snapshot)
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

    if getattr(args, "cache_dir", None) is None:
        raise CLIUsageError("ingest requires --cache-dir: the delta path "
                            "is defined in terms of the pipeline cache")
    if args.once and args.max_rounds is not None:
        raise CLIUsageError("--max-rounds only applies with --watch")
    policy = _parse_refresh_policy(args.refresh_policy)
    cache = _resolve_cache(args)
    rounds = 1 if args.once else (args.max_rounds
                                  if args.max_rounds is not None else 3)

    print(f"building corpus (seed={args.seed}, fraction={args.fraction})",
          file=sys.stderr)
    corpus = build_corpus(CorpusConfig(seed=args.seed,
                                       fraction=args.fraction))
    watched = (corpus.domains[:args.domains]
               if args.domains is not None else None)
    options = _pipeline_options(args)
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

        for _ in range(rounds):
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


def cmd_bench_serve(args) -> int:
    import json

    from repro._util import write_json_atomic
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
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        write_json_atomic(args.out, payload, sort_keys=True)
        print(f"benchmark artifact written to {args.out}", file=sys.stderr)
    return 0


def cmd_chaos(args) -> int:
    import json
    import tempfile

    from repro._util import write_json_atomic
    from repro.errors import ChaosError
    from repro.serve import (
        SERVE_FAULT_CLASSES,
        FaultPlan,
        ServerConfig,
        ShardedSnapshot,
        WorkloadConfig,
        merged_snapshot,
        run_chaos,
        snapshot_corruption_trials,
    )

    snapshot = _load_snapshot_arg(args.snapshot)
    shards = args.shards
    if isinstance(snapshot, ShardedSnapshot):
        # The server re-partitions the merged snapshot; a sharded
        # directory implies its own shard count unless --shards overrides
        # it.
        if shards == 1:
            shards = snapshot.shard_count
        snapshot = merged_snapshot(snapshot)
    if args.faults:
        classes = tuple(name.strip() for name in args.faults.split(",")
                        if name.strip())
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
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        write_json_atomic(args.out, payload, sort_keys=True)
        print(f"chaos report written to {args.out}", file=sys.stderr)
    violations = report.violations() \
        + payload.get("snapshot_faults", {}).get("violations", 0)
    if violations:
        print(f"repro-pipeline: chaos: {violations} invariant "
              f"violation{'s' if violations != 1 else ''} detected",
              file=sys.stderr)
        return 1
    return 0


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _unit_float(value: str) -> float:
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {number}")
    return number


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

    run_parser = sub.add_parser("run", help="run the pipeline end to end")
    run_parser.add_argument("--out", help="write annotations JSONL here")
    run_parser.add_argument("--csv-dir",
                            help="write annotations.csv + domains.csv here")
    run_parser.add_argument("--report",
                            help="write a markdown analysis report here")
    run_parser.set_defaults(func=cmd_run)

    tables_parser = sub.add_parser("tables", help="print the paper's tables")
    tables_parser.set_defaults(func=cmd_tables)

    validate_parser = sub.add_parser("validate",
                                     help="precision + failure audit")
    validate_parser.set_defaults(func=cmd_validate)

    models_parser = sub.add_parser("models", help="model comparison study")
    models_parser.add_argument("--policies", type=int, default=20)
    models_parser.set_defaults(func=cmd_models)

    crawl_parser = sub.add_parser("crawl-stats", help="crawl statistics")
    crawl_parser.set_defaults(func=cmd_crawl_stats)

    snap_parser = sub.add_parser(
        "serve-snapshot",
        help="freeze a pipeline run into a servable corpus snapshot")
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
    snap_parser.set_defaults(func=cmd_serve_snapshot)

    query_parser = sub.add_parser(
        "query", help="run one typed query against a corpus snapshot")
    query_parser.add_argument("--snapshot", required=True, metavar="PATH")
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
    query_parser.set_defaults(func=cmd_query)

    compliance_parser = sub.add_parser(
        "compliance",
        help="predicate queries and rule-pack scans over compiled "
             "logical forms")
    compliance_parser.add_argument("--snapshot", required=True,
                                   metavar="PATH")
    compliance_parser.add_argument("--predicate", metavar="JSON",
                                   help="predicate AST as JSON (ops: atom, "
                                   "all, any, not, segment)")
    compliance_parser.add_argument("--pack", choices=["gdpr", "ccpa"],
                                   help="scan a rule pack over the corpus")
    compliance_parser.add_argument("--rule-pack", metavar="FILE",
                                   dest="rule_pack",
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
    compliance_parser.set_defaults(func=cmd_compliance)

    ingest_parser = sub.add_parser(
        "ingest",
        help="continuous ingestion: incremental re-crawl, delta "
             "re-annotation, live snapshot refresh")
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
    ingest_parser.add_argument("--mutate-per-round", type=int, default=1,
                               metavar="M",
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
    ingest_parser.add_argument("--compact-every", type=int, default=0,
                               metavar="N",
                               help="prune superseded cache checkpoints "
                               "after every Nth round (0 disables)")
    ingest_parser.set_defaults(func=cmd_ingest)

    bench_parser = sub.add_parser(
        "bench-serve",
        help="closed-loop load benchmark against a corpus snapshot")
    bench_parser.add_argument("--snapshot", required=True, metavar="PATH")
    bench_parser.add_argument("--requests", type=_positive_int, default=2000)
    bench_parser.add_argument("--clients", type=_positive_int, default=8)
    bench_parser.add_argument("--serve-workers", type=_positive_int,
                              default=2)
    bench_parser.add_argument("--queue-depth", type=_positive_int,
                              default=64)
    bench_parser.add_argument("--cache-entries", type=int, default=256)
    bench_parser.add_argument("--load-seed", type=int, default=0)
    bench_parser.add_argument("--shards", type=_positive_int, default=1,
                              help="serve from N shards merged into one index "
                              "(ignored when --snapshot is already a "
                              "sharded directory; default: 1)")
    bench_parser.add_argument("--out", metavar="PATH",
                              help="write the JSON report here as well")
    bench_parser.set_defaults(func=cmd_bench_serve)

    chaos_parser = sub.add_parser(
        "chaos",
        help="fault-injection run with shed/wrong-byte/recovery invariants")
    chaos_parser.add_argument("--snapshot", required=True, metavar="PATH")
    chaos_parser.add_argument("--chaos-seed", type=int, default=0,
                              help="fault-plan seed (default: 0)")
    chaos_parser.add_argument("--faults", metavar="CLASS[,CLASS...]",
                              help="comma-separated serve fault classes "
                              "(default: all of slow-handler, worker-death, "
                              "worker-hang, cache-poison, clock-skew)")
    chaos_parser.add_argument("--requests", type=_positive_int, default=300)
    chaos_parser.add_argument("--clients", type=_positive_int, default=4)
    chaos_parser.add_argument("--serve-workers", type=_positive_int,
                              default=2)
    chaos_parser.add_argument("--queue-depth", type=_positive_int,
                              default=16)
    chaos_parser.add_argument("--events-per-class", type=_positive_int,
                              default=3)
    chaos_parser.add_argument("--deadline", type=float, default=30.0,
                              help="per-request termination deadline, "
                              "seconds (default: 30)")
    chaos_parser.add_argument("--load-seed", type=int, default=0)
    chaos_parser.add_argument("--shards", type=_positive_int, default=1,
                              help="run the chaos protocol against a "
                              "sharded server; ok bytes are still diffed "
                              "against the single-index oracle (default: "
                              "a sharded --snapshot directory's own count)")
    chaos_parser.add_argument("--snapshot-faults", action="store_true",
                              help="also run seeded truncation/bit-flip "
                              "trials against the snapshot file")
    chaos_parser.add_argument("--out", metavar="PATH",
                              help="write the JSON report here as well")
    chaos_parser.set_defaults(func=cmd_chaos)
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
        return args.func(args)
    except CLIUsageError as exc:
        print(f"repro-pipeline: error: {exc}", file=sys.stderr)
        print(_USAGE_HINT, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
