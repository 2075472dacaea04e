"""Seeded inputs: the read mix, ad-hoc predicates and the edit schedule.

Everything here is a pure function of the workload seed and the served
index, built through the public query dataclasses and predicate AST. The
benchmark owns this generator on purpose: the program's own load runners
may change without changing what the benchmark sends.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import random

from repro.compliance.logic import ATOM_ASPECTS
from repro.compliance.predicate import (AllOf, AnyOf, AtomTest, Negate,
                                        SameSegment, predicate_to_json)
from repro.compliance.rules import get_pack
from repro.serve.index import COMPLIANCE_PACKS, FACETS, TABLES
from repro.serve.query import (AspectMentions, ComplianceScan, DomainLookup,
                               FacetFilter, PredicateQuery, SectorAggregate,
                               TableAggregate, TopDescriptors, query_payload)
from repro.serve.shard import shard_for_domain

# The shares and shapes below are the program's own: the default load mix
# (``repro.serve.loadgen.DEFAULT_MIX``, ``generate_workload``) and the
# predicate shape of ``repro.compliance.oracle.random_predicate``. They are
# copied, not imported, so that editing those does not change what the
# benchmark sends.

#: Read mix: query kind -> share of reads. Mostly point lookups, as in a
#: per-policy UI, and a trickle of aggregates; predicates are the one
#: class whose every read is new.
MIX = (
    ("domain", 0.40),
    ("filter", 0.14),
    ("top-descriptors", 0.11),
    ("sector", 0.11),
    ("aspect", 0.06),
    ("table", 0.10),
    ("predicate", 0.05),
    ("compliance", 0.03),
)

#: Zipf exponent of popularity within each repeatable query pool.
ZIPF_S = 1.1
#: Share of predicates that also ask for their evidence spans (the
#: costliest answers the server gives).
EVIDENCE_SHARE = 0.2
#: A predicate node is a leaf (one atom test) with this chance, and always
#: at ``MAX_DEPTH``; otherwise it is all-of, any-of, not or same-segment,
#: with 1 to 3 children.
LEAF_SHARE = 0.4
MAX_DEPTH = 2
#: An atom test names a category no policy has with this chance (the
#: empty-answer path); otherwise it tests a catalog atom, keeping its
#: category and its name with these chances.
NO_MATCH_SHARE = 0.15
KEEP_CATEGORY = 0.8
KEEP_NAME = 0.6


def _zipf_cumulative(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank ** ZIPF_S)
                                     for rank in range(1, n + 1)))


def query_pools(index, seed: int) -> dict[str, list]:
    """Every repeatable query the mix can send, per kind, in popularity
    order (a seeded shuffle). The pools are small enough to fit the result
    cache, so after one warm-up pass their reads are cache hits."""
    rng = random.Random(f"e2ebench-pools:{seed}")
    sectors = sorted(index.domains_by_sector)
    categories = {f: sorted(index.domains_by_category[f]) for f in FACETS}
    pools = {
        "domain": [DomainLookup(domain=d) for d in sorted(index.by_domain)],
        "filter": [FacetFilter(facet=f, category=c)
                   for f in FACETS for c in categories[f]]
        + [FacetFilter(facet=f, category=c, sector=s)
           for f in FACETS for c in categories[f][:3] for s in sectors[:4]],
        "top-descriptors": [TopDescriptors(facet=f, k=k, sector=s)
                            for f in FACETS for k in (5, 10, 25)
                            for s in (None, *sectors[:3])],
        "sector": [SectorAggregate(sector=s) for s in sectors],
        "aspect": [AspectMentions(aspect=a, limit=n)
                   for a in ATOM_ASPECTS for n in (10, 25, 50)],
        "table": [TableAggregate(table=t) for t in TABLES],
        "compliance": [ComplianceScan(pack=p, rule=r, sector=s)
                       for p in COMPLIANCE_PACKS
                       for r in (None, *get_pack(p).rule_ids())
                       for s in (None, *sectors[:2])],
    }
    for pool in pools.values():
        rng.shuffle(pool)
    return pools


def _atom_test(rng: random.Random, atoms: list) -> AtomTest:
    if rng.random() < NO_MATCH_SHARE:
        return AtomTest(rng.choice(ATOM_ASPECTS), "No Such Category", None,
                        rng.choice((False, True, None)))
    atom = rng.choice(atoms)
    return AtomTest(atom.aspect,
                    atom.category if rng.random() < KEEP_CATEGORY else None,
                    atom.name if rng.random() < KEEP_NAME else None,
                    rng.choice((atom.negated, atom.negated, None)))


def _predicate(rng: random.Random, atoms: list, depth: int = 0):
    if depth >= MAX_DEPTH or rng.random() < LEAF_SHARE:
        return _atom_test(rng, atoms)
    op = rng.choice(("all", "any", "not", "segment"))
    if op == "not":
        return Negate(_predicate(rng, atoms, depth + 1))
    n = rng.randint(1, 3)
    if op == "segment":
        return SameSegment(tuple(_atom_test(rng, atoms) for _ in range(n)))
    node = AllOf if op == "all" else AnyOf
    return node(tuple(_predicate(rng, atoms, depth + 1) for _ in range(n)))


class ReadStream:
    """The endless, seeded read sequence one workload sends.

    Read ``i`` is the same query for a given seed and index, whichever
    client sends it. Predicates are never repeated, so each is a cache
    miss; every other kind comes from its zipf-skewed pool.
    """

    def __init__(self, index, seed: int, *, label: str = "reads"):
        self.pools = query_pools(index, seed)
        self._cumulative = {kind: _zipf_cumulative(len(pool))
                            for kind, pool in self.pools.items()}
        self._atoms = [atom for aspect in sorted(index.atoms_by_aspect)
                       for atom in index.atoms_by_aspect[aspect]]
        self._kinds = [kind for kind, _ in MIX]
        self._shares = list(itertools.accumulate(share for _, share in MIX))
        self._label = f"e2ebench-{label}:{seed}"
        self._restart()

    def _restart(self) -> None:
        self._rng = random.Random(self._label)
        #: 64-bit digests of the predicates sent so far.
        self._seen: set[int] = set()
        self.sent = 0

    def fresh_predicate(self) -> PredicateQuery:
        rng = self._rng
        for _ in range(10_000):
            text = predicate_to_json(_predicate(rng, self._atoms))
            key = int.from_bytes(hashlib.blake2b(
                text.encode("utf-8"), digest_size=8).digest(), "big")
            if key not in self._seen:
                self._seen.add(key)
                return PredicateQuery(predicate=text,
                                      evidence=rng.random() < EVIDENCE_SHARE)
        raise RuntimeError(f"no new predicate over {len(self._atoms)} "
                           f"catalog atoms after 10000 draws")

    def next(self):
        """``(read number, query)`` of the next read."""
        kind = self._rng.choices(self._kinds, cum_weights=self._shares)[0]
        if kind == "predicate":
            query = self.fresh_predicate()
        else:
            pool = self.pools[kind]
            query = self._rng.choices(
                pool, cum_weights=self._cumulative[kind])[0]
        number = self.sent
        self.sent += 1
        return number, query

    def _twin(self) -> "ReadStream":
        """A copy of this stream, back at its first read."""
        twin = copy.copy(self)
        twin._restart()
        return twin

    def replay(self, numbers) -> dict:
        """Read number -> query for ``numbers``, regenerated from the
        start of a copy of this stream."""
        wanted = set(numbers)
        twin = self._twin()
        found = {}
        while len(found) < len(wanted):
            number, query = twin.next()
            if number in wanted:
                found[number] = query
        return found

    def digest(self, reads: int) -> str:
        """Digest of the first ``reads`` reads this stream sends."""
        twin = self._twin()
        return digest([query_payload(twin.next()[1]) for _ in range(reads)])


class EditPlan:
    """Which watched domains each churn round edits, and their revisions.

    A round edits ``per_round`` domains in as many distinct shards, so every
    round refreshes and swaps the same number of shards: how many shards a
    round touches sets most of its cost.
    """

    def __init__(self, pool: list[str], seed: int, per_round: int,
                 shards: int):
        self.by_shard: dict[int, list[str]] = {}
        for domain in sorted(pool):
            self.by_shard.setdefault(shard_for_domain(domain, shards),
                                     []).append(domain)
        if len(self.by_shard) < per_round:
            raise ValueError(f"{per_round} edits a round need as many "
                             f"shards with editable domains, have "
                             f"{len(self.by_shard)}")
        self.pool, self.seed = pool, seed
        self.per_round, self.shards = per_round, shards
        self._revisions: dict[str, int] = {}

    def round(self, number: int) -> list[tuple[str, int]]:
        """``[(domain, revision), ...]`` for round ``number`` (from 1)."""
        rng = random.Random(f"e2ebench-edits:{self.seed}:{number}")
        out = []
        for shard in rng.sample(sorted(self.by_shard), self.per_round):
            domain = rng.choice(self.by_shard[shard])
            revision = self._revisions.get(domain, 0) + 1
            self._revisions[domain] = revision
            out.append((domain, revision))
        return sorted(out)

    def schedule(self, rounds: int) -> list:
        """The edits of the first ``rounds`` rounds, however many ran."""
        fresh = EditPlan(self.pool, self.seed, self.per_round, self.shards)
        return [fresh.round(n) for n in range(1, rounds + 1)]


def digest(payload) -> str:
    """SHA-256 of a canonical JSON rendering."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

