"""Swap-under-load harness: prove a live snapshot swap drops nothing.

:func:`run_swap_load` drives a closed-loop workload through the one load
driver (:func:`~repro.serve.loadgen.run_load`) against a started
:class:`~repro.serve.server.AnnotationServer`, performs an atomic
:meth:`~repro.serve.server.AnnotationServer.swap_snapshot` mid-run, and
verifies the two invariants the live-swap design claims:

- **Zero dropped requests.** Every request resolves (OK, an explicit
  shed, or an explicit error) within the client deadline; ``dropped``
  counts the ones that did not (the driver's timeouts).
- **No wrong bytes.** Every OK body must be byte-identical to the answer
  of *some* installed generation — the pre-swap oracle or the post-swap
  oracle, both computed up front from the snapshots themselves. A body
  matching neither (a torn read mixing generations, a stale
  cross-generation cache hit) is counted in ``wrong_bytes``.

The harness is deliberately oblivious to *when* each concurrent request
was served relative to the swap — the atomicity contract is exactly that
every request is served wholly by one generation, so the dual-oracle
check is the strongest assertion that doesn't race the swap itself. To
prove the swap *took effect* without racing, the harness then submits a
round of **post-swap probes** after ``swap_snapshot`` returns: the
contract binds those to the new generation, so each must serve the new
oracle's exact bytes (``post_wrong`` counts violations). On fast
workloads the concurrent phase may drain entirely on the old generation
while the new one is still building (``served_new_only == 0``); the
probes make ``swap_effective`` deterministic regardless.

Works unchanged with a chaos fault injector installed: worker crashes
surface as explicit ``InternalError`` responses (counted in ``errors``),
and the byte invariant must still hold for every OK body.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.serve.loadgen import (
    TIMEOUT,
    LoadReport,
    Outcome,
    load_tally,
    oracle_answers,
    run_load,
)
from repro.serve.query import query_fingerprint
from repro.serve.server import OK, AnnotationServer

#: Distinct workload queries sent again once the swap has returned.
_POST_PROBES = 16
#: Seconds a request may stay unanswered before it counts as dropped.
_DEADLINE_S = 60.0


@dataclass
class SwapLoadReport:
    """What a swap-under-load run observed.

    Request tallies are views of ``load``, the run's :class:`LoadReport`;
    the fields here are only what the swap checks found.
    """

    load: LoadReport
    swap: dict
    #: OK bodies matching neither generation's oracle — must be 0.
    wrong_bytes: int = 0
    #: OK bodies only the old / only the new / either oracle explains.
    served_old_only: int = 0
    served_new_only: int = 0
    served_both: int = 0
    #: Post-swap probes: requests submitted strictly after swap_snapshot
    #: returned, which the atomicity contract binds to the new
    #: generation. ``post_wrong`` counts any that served non-new bytes
    #: or never resolved.
    post_requests: int = 0
    post_ok: int = 0
    post_wrong: int = 0

    requests = load_tally("requests")
    ok = load_tally("ok")
    shed = load_tally("shed")
    errors = load_tally("errors")
    #: Requests that never resolved within the deadline — must be 0.
    dropped = load_tally("timeouts")

    @property
    def clean(self) -> bool:
        return self.dropped == 0 and self.wrong_bytes == 0 \
            and self.post_wrong == 0

    @property
    def swap_effective(self) -> bool:
        """Did traffic provably reach the new generation?"""
        return self.post_ok > 0 or self.served_new_only > 0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "dropped": self.dropped,
            "wrong_bytes": self.wrong_bytes,
            "served_old_only": self.served_old_only,
            "served_new_only": self.served_new_only,
            "served_both": self.served_both,
            "post_requests": self.post_requests,
            "post_ok": self.post_ok,
            "post_wrong": self.post_wrong,
            "clean": self.clean,
            "swap_effective": self.swap_effective,
            "wall_s": round(self.load.wall_s, 4),
            "swap": self.swap,
        }


def _generation_tally(outcomes: list[Outcome], old: list[tuple[str, str]],
                      new: list[tuple[str, str]]) -> dict[str, int]:
    """Which generation's oracle explains each OK body."""
    tally = dict.fromkeys(("served_both", "served_old_only",
                           "served_new_only", "wrong_bytes"), 0)
    for outcome, before, after in zip(outcomes, old, new):
        if outcome.status != OK:
            continue
        answer = (OK, outcome.body)
        if answer == before:
            tally["served_both" if answer == after
                  else "served_old_only"] += 1
        else:
            tally["served_new_only" if answer == after
                  else "wrong_bytes"] += 1
    return tally


def _probe_tally(probes: list[tuple[int, Outcome]],
                 new: list[tuple[str, str]]) -> tuple[int, int]:
    """``(post_ok, post_wrong)`` of the post-swap probes.

    A shed or an explicit error (e.g. an injected chaos fault) is neither
    a byte violation nor proof the swap landed, so it counts as neither.
    """
    post_ok = post_wrong = 0
    for index, outcome in probes:
        if outcome.status == OK and new[index] == (OK, outcome.body):
            post_ok += 1
        elif outcome.status in (OK, TIMEOUT):
            post_wrong += 1
    return post_ok, post_wrong


def run_swap_load(server: AnnotationServer, workload, new_snapshot, *,
                  clients: int = 4,
                  swap_after: int | None = None) -> SwapLoadReport:
    """Drive ``workload`` through ``clients`` closed-loop clients,
    swapping mid-run.

    Once ``swap_after`` requests (default: half the workload) have
    resolved, ``swap_snapshot`` runs off the event loop, in an executor
    thread, while the clients keep sending. After it returns, up to 16
    distinct workload queries are sent again (possibly while clients are
    still draining) and must serve new-generation bytes. The server must
    already be started.
    """
    old_oracle = oracle_answers(server.snapshot, workload)
    new_oracle = oracle_answers(new_snapshot, workload)
    first_seen: dict[str, int] = {}
    for index, query in enumerate(workload):
        if len(first_seen) == _POST_PROBES:
            break
        first_seen.setdefault(query_fingerprint(query), index)
    swap = None
    probes: list[tuple[int, Outcome]] = []

    async def swap_then_probe(request) -> None:
        nonlocal swap
        swap = await asyncio.get_running_loop().run_in_executor(
            None, server.swap_snapshot, new_snapshot)
        for index in first_seen.values():
            probes.append((index, await request(workload[index])))

    threshold = swap_after if swap_after is not None else len(workload) // 2
    load = run_load(server, workload, clients, deadline_s=_DEADLINE_S,
                    midrun=(threshold, swap_then_probe))
    post_ok, post_wrong = _probe_tally(probes, new_oracle)
    return SwapLoadReport(
        load=load, swap=swap.to_payload(), post_requests=len(probes),
        post_ok=post_ok, post_wrong=post_wrong,
        **_generation_tally(load.outcomes, old_oracle, new_oracle))


__all__ = [
    "SwapLoadReport",
    "run_swap_load",
]
