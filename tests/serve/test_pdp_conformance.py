"""Conformance suite: the PDP is observationally identical to direct
synchronous :class:`ReferenceMonitor` calls on replayed traces.

The randomized interleaved campaigns live in
:func:`repro.workloads.fuzz.fuzz_pdp` (invariant 14); these tests pin
each serving path deliberately — fresh reads, cache hits, rate-limited
retries, micro-batched mutation ordering — against the oracle.
"""

import asyncio

import pytest

from repro.core.commands import Mode, grant_cmd, revoke_cmd
from repro.core.monitor import ReferenceMonitor
from repro.core.privileges import Grant, Revoke
from repro.errors import ReproError
from repro.serve import (
    PolicyDecisionPoint,
    RateLimited,
    RateLimiter,
    as_command,
    cacheable,
)

from .conftest import (
    ADM, ADMIN, BOTH_KERNELS, OTHER, PEER, R, S, T, U, run, serve_policy,
)


def read_trace():
    """A read trace covering every decision path (see
    tests/core/test_batch_authz.py for the kernel-side twin)."""
    return [
        (ADMIN, grant_cmd(ADMIN, U, R)),     # exact match
        (ADMIN, grant_cmd(ADMIN, U, S)),     # rectangle (implicit)
        (ADMIN, revoke_cmd(ADMIN, U, R)),    # exact revoke
        (ADMIN, revoke_cmd(ADMIN, U, S)),    # revoke: exact only -> deny
        (ADMIN, grant_cmd(ADMIN, ADM, Grant(U, S))),  # nested, exact
        (ADMIN, grant_cmd(ADMIN, U, T)),     # uncovered -> deny
        (OTHER, grant_cmd(OTHER, U, R)),     # holds nothing -> deny
        (PEER, grant_cmd(PEER, U, S)),       # second admin, implicit
    ]


def write_trace():
    return [
        grant_cmd(ADMIN, U, S),              # implicit, executes
        grant_cmd(OTHER, U, R),              # denied, no-op
        grant_cmd(PEER, U, R),               # exact, executes
        revoke_cmd(ADMIN, U, R),             # revokes what PEER granted
        grant_cmd(ADMIN, U, R),              # re-grant
        grant_cmd(ADMIN, U, R),              # duplicate -> noop record
    ]


def oracle_monitor(compiled):
    return ReferenceMonitor(
        serve_policy(), mode=Mode.REFINED, use_index=True,
        compiled=compiled,
    )


class TestReadConformance:
    @BOTH_KERNELS
    def test_reads_match_direct_monitor(self, compiled):
        oracle = oracle_monitor(compiled)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), compiled=compiled
            ) as pdp:
                return [
                    await pdp.check(subject, command)
                    for subject, command in read_trace()
                ]

        decisions = run(scenario())
        for (subject, command), decision in zip(read_trace(), decisions):
            verdict = oracle._index.authorizes(subject, command)
            assert decision.allowed == (verdict is not None)
            assert decision.authorized_by == verdict

    @BOTH_KERNELS
    def test_cache_hits_recheck_against_oracle(self, compiled):
        oracle = oracle_monitor(compiled)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), compiled=compiled
            ) as pdp:
                trace = read_trace()
                first = [await pdp.check(s, c) for s, c in trace]
                second = [await pdp.check(s, c) for s, c in trace]
                return first, second, pdp.metrics.cache_hits

        first, second, hits = run(scenario())
        assert hits > 0
        for (subject, command), fresh, cached in zip(
            read_trace(), first, second
        ):
            verdict = oracle._index.authorizes(subject, command)
            # The cached verdict is the oracle verdict, not merely the
            # first answer repeated.
            assert cached.authorized_by == verdict
            assert cached.allowed == fresh.allowed
            assert cached.version == fresh.version
            # Nested-privilege targets are uncacheable by design.
            assert cached.cached == cacheable(command)

    @BOTH_KERNELS
    def test_check_many_matches_sequential_checks(self, compiled):
        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), compiled=compiled
            ) as pdp:
                requests = [
                    Grant(U, R), Grant(U, S), Revoke(U, R), Grant(U, T)
                ]
                many = await pdp.check_many(ADMIN, requests)
                one_by_one = [
                    await pdp.check(ADMIN, request)
                    for request in requests
                ]
                return many, one_by_one

        many, one_by_one = run(scenario())
        assert [(d.allowed, d.authorized_by) for d in many] == [
            (d.allowed, d.authorized_by) for d in one_by_one
        ]

    def test_concurrent_reads_coalesce_into_one_sweep(self):
        oracle = oracle_monitor(True)
        queries = [
            (ADMIN, grant_cmd(ADMIN, U, R)),
            (PEER, grant_cmd(PEER, U, S)),
            (OTHER, grant_cmd(OTHER, U, R)),
            (U, grant_cmd(U, U, R)),
            (ADMIN, revoke_cmd(ADMIN, U, R)),
            (PEER, grant_cmd(PEER, U, T)),
        ]

        async def scenario():
            async with PolicyDecisionPoint(policy=serve_policy()) as pdp:
                decisions = await asyncio.gather(*[
                    pdp.check(subject, command)
                    for subject, command in queries
                ])
                return decisions, pdp.metrics.read_batches

        decisions, read_batches = run(scenario())
        assert read_batches == 1  # one authorizes_batch for all six
        for (subject, command), decision in zip(queries, decisions):
            verdict = oracle._index.authorizes(subject, command)
            assert decision.authorized_by == verdict

    @BOTH_KERNELS
    def test_review_endpoint_matches_bulk_reads(self, compiled):
        oracle = oracle_monitor(compiled)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), compiled=compiled
            ) as pdp:
                return await pdp.review([ADMIN, PEER, OTHER, U])

        review = run(scenario())
        assert review == oracle._index.grantable_pairs_bulk(
            [ADMIN, PEER, OTHER, U]
        )
        assert review[ADMIN] is review[PEER]  # shared authority profile


class TestWriteConformance:
    @BOTH_KERNELS
    def test_records_match_sequential_replay(self, compiled):
        oracle = oracle_monitor(compiled)
        expected = [oracle.submit(c) for c in write_trace()]

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), compiled=compiled
            ) as pdp:
                records = [
                    await pdp.submit(command)
                    for command in write_trace()
                ]
                return records, pdp.monitor.policy

        records, served_policy = run(scenario())
        assert records == expected
        assert served_policy == oracle.policy

    @BOTH_KERNELS
    def test_coalesced_batch_matches_batched_replay(self, compiled):
        trace = write_trace()
        oracle = oracle_monitor(compiled)
        expected = oracle.submit_queue(trace, batched=True)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), compiled=compiled, max_batch=64
            ) as pdp:
                records = await pdp.submit_many(trace)
                return records, pdp.metrics.batches, pdp.monitor.policy

        records, batches, served_policy = run(scenario())
        assert batches == 1  # the whole trace coalesced into one batch
        assert records == expected  # futures resolved in queue order
        assert served_policy == oracle.policy

    def test_concurrent_submits_coalesce(self):
        async def scenario():
            async with PolicyDecisionPoint(policy=serve_policy()) as pdp:
                commands = [grant_cmd(ADMIN, U, R) for _ in range(8)]
                records = await asyncio.gather(*[
                    pdp.submit(command) for command in commands
                ])
                return records, pdp.metrics

        records, metrics = run(scenario())
        assert metrics.batches == 1
        assert metrics.mutations == 8
        assert metrics.max_batch_size == 8
        # First in queue executes the change; the rest are noops.
        assert [r.noop for r in records] == [False] + [True] * 7

    def test_max_batch_watermark_splits_batches(self):
        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), max_batch=3
            ) as pdp:
                commands = [grant_cmd(ADMIN, U, R) for _ in range(8)]
                await asyncio.gather(*[
                    pdp.submit(command) for command in commands
                ])
                return pdp.metrics

        metrics = run(scenario())
        assert metrics.batches >= 3  # 8 commands, watermark 3
        assert metrics.max_batch_size <= 3

    @BOTH_KERNELS
    def test_audit_contract_preserved(self, compiled):
        """The PDP rides submit_queue(batched=True) and captures no
        batch-entry snapshot of its own: with retain_history=True the
        batch-entry state is the previously published snapshot, which
        still answers at that version after the batch applied, and the
        audit trail grows one entry per command."""
        entry_oracle = oracle_monitor(compiled)
        probe = grant_cmd(OTHER, U, R)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), compiled=compiled,
                retain_history=True,
            ) as pdp:
                entry = pdp.last_snapshot
                await pdp.submit_many(write_trace())
                return entry, pdp

        entry, pdp = run(scenario())
        assert entry.version == entry_oracle.policy.version
        assert pdp.history[entry.version] is entry
        assert min(pdp.history) == entry.version < pdp.version
        assert pdp.monitor.last_snapshot is None
        assert entry.policy_copy() == entry_oracle.policy
        assert pdp.monitor.policy != entry_oracle.policy
        assert entry.authorizes(OTHER, probe) == (
            entry_oracle._index.authorizes(OTHER, probe)
        )
        assert len(pdp.monitor.audit_trail) == len(write_trace())

    def test_reads_see_writes_after_publication(self):
        async def scenario():
            async with PolicyDecisionPoint(policy=serve_policy()) as pdp:
                before = await pdp.check(U, Grant(U, T))
                denied = await pdp.check(OTHER, Grant(U, R))
                record = await pdp.submit(grant_cmd(ADMIN, U, R))
                after = await pdp.check(ADMIN, Grant(U, R))
                return before, denied, record, after, pdp.version

        before, denied, record, after, version = run(scenario())
        assert not before.allowed and not denied.allowed
        assert record.executed
        assert after.allowed
        assert after.version == version > before.version


class TestRateLimitedPath:
    def test_rate_limited_then_retry_matches_oracle(self, clock):
        oracle = oracle_monitor(True)
        limiter = RateLimiter(capacity=2, rate=1.0, clock=clock)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), rate_limiter=limiter, clock=clock
            ) as pdp:
                await pdp.check(ADMIN, Grant(U, R))
                await pdp.check(ADMIN, Grant(U, S))
                with pytest.raises(RateLimited) as excinfo:
                    await pdp.check(ADMIN, Revoke(U, R))
                # An unrelated principal is not limited.
                other_decision = await pdp.check(OTHER, Grant(U, R))
                clock.advance(excinfo.value.retry_after)
                retried = await pdp.check(ADMIN, Revoke(U, R))
                return excinfo.value, other_decision, retried, pdp.metrics

        exc, other_decision, retried, metrics = run(scenario())
        assert exc.principal == ADMIN
        assert exc.retry_after > 0
        assert metrics.rate_limited == 1
        assert not other_decision.allowed
        # The post-rate-limit retry matches the oracle exactly.
        verdict = oracle._index.authorizes(ADMIN, revoke_cmd(ADMIN, U, R))
        assert retried.allowed and retried.authorized_by == verdict

    def test_rate_limited_submit_spends_nothing(self, clock):
        limiter = RateLimiter(capacity=2, rate=1.0, clock=clock)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), rate_limiter=limiter, clock=clock
            ) as pdp:
                trace = [grant_cmd(ADMIN, U, R)] * 3
                with pytest.raises(RateLimited):
                    await pdp.submit_many(trace)  # 3 tokens > capacity 2
                # The rejected batch spent nothing: capacity 2 still
                # covers a 2-command batch without advancing the clock.
                return await pdp.submit_many(trace[:2])

        records = run(scenario())
        assert [r.executed for r in records] == [True, True]


class TestRequestShapes:
    def test_as_command_shapes(self):
        assert as_command(ADMIN, Grant(U, R)) == grant_cmd(ADMIN, U, R)
        assert as_command(ADMIN, Revoke(U, R)) == revoke_cmd(ADMIN, U, R)
        assert as_command(ADMIN, "grant", (U, R)) == grant_cmd(ADMIN, U, R)
        assert as_command(ADMIN, "revoke", (U, R)) == revoke_cmd(ADMIN, U, R)
        # A foreign command is re-issued on behalf of the subject.
        reissued = as_command(PEER, grant_cmd(ADMIN, U, R))
        assert reissued.user == PEER and reissued.edge == (U, R)
        with pytest.raises(ReproError):
            as_command(ADMIN, 42)

    def test_nested_request_decidable(self):
        async def scenario():
            async with PolicyDecisionPoint(policy=serve_policy()) as pdp:
                return await pdp.check(ADMIN, Grant(ADM, Grant(U, S)))

        decision = run(scenario())
        assert decision.allowed and not decision.cached


class TestLifecycle:
    def test_not_serving_outside_context(self):
        async def scenario():
            pdp = PolicyDecisionPoint(policy=serve_policy())
            with pytest.raises(ReproError):
                await pdp.submit(grant_cmd(ADMIN, U, R))
            async with pdp:
                await pdp.submit(grant_cmd(ADMIN, U, R))
            with pytest.raises(ReproError):
                await pdp.submit(grant_cmd(ADMIN, U, R))
            return True

        assert run(scenario())

    def test_stop_applies_queued_mutations(self):
        async def scenario():
            pdp = PolicyDecisionPoint(policy=serve_policy())
            await pdp.start()
            future = asyncio.ensure_future(
                pdp.submit(grant_cmd(ADMIN, U, R))
            )
            await asyncio.sleep(0)  # let the submit enqueue its command
            await pdp.stop()
            return await future

        record = run(scenario())
        assert record.executed

    def test_requires_refined_indexed_monitor(self):
        with pytest.raises(ReproError):
            PolicyDecisionPoint(
                ReferenceMonitor(serve_policy(), mode=Mode.STRICT)
            )
        with pytest.raises(ReproError):
            PolicyDecisionPoint(
                ReferenceMonitor(serve_policy(), mode=Mode.REFINED)
            )
        with pytest.raises(ReproError):
            PolicyDecisionPoint(policy=serve_policy(), max_batch=0)
        with pytest.raises(ReproError):
            PolicyDecisionPoint()

    def test_statistics_shape(self):
        async def scenario():
            async with PolicyDecisionPoint(policy=serve_policy()) as pdp:
                await pdp.check(ADMIN, Grant(U, R))
                await pdp.submit(grant_cmd(ADMIN, U, R))
                return pdp.statistics()

        stats = run(scenario())
        assert stats["decisions"] == 1
        assert stats["mutations"] == 1
        assert stats["cache"]["version"] == stats["version"]
        assert set(stats["decision_latency"]) == {
            "count", "mean", "p50", "p99", "max"
        }

    @pytest.mark.parametrize("shards", [1, 4])
    def test_publication_and_index_maintenance_surface(self, clock, shards):
        """publish_latency times every snapshot derivation apart from
        batch_apply_latency, and statistics()["index"] reports the live
        index's maintenance counters without repairing it."""
        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), shards=shards, clock=clock,
            ) as pdp:
                index = pdp.monitor._index
                at_start = pdp.statistics()
                await pdp.submit(grant_cmd(ADMIN, U, R))
                await pdp.submit(grant_cmd(ADMIN, U, S))
                after_writes = pdp.statistics()
                # Out-of-band churn leaves the live index stale; reading
                # the statistics must not repair it.
                pdp.monitor.policy.assign_user(OTHER, ADM)
                stale = pdp.statistics()["index"]
                pending = index.partial_refreshes
                await pdp.refresh()
                return at_start, after_writes, stale, pending, pdp

        at_start, after_writes, stale, pending, pdp = run(scenario())
        # One observation per writer-side publication (the
        # constructor's initial capture is set-up, not the write path).
        assert at_start["publish_latency"]["count"] == 0
        assert after_writes["publish_latency"]["count"] == 2
        assert after_writes["batch_apply_latency"]["count"] == 2
        assert set(after_writes["publish_latency"]) == {
            "count", "mean", "p50", "p99", "max"
        }
        index = pdp.monitor._index
        assert at_start["index"] == {
            "full_rebuilds": shards,  # the initial build, per shard
            "partial_refreshes": 0,
            "users_refreshed": at_start["index"]["users_refreshed"],
        }
        assert after_writes["index"]["full_rebuilds"] == shards
        assert after_writes["index"]["partial_refreshes"] >= 2
        assert stale["partial_refreshes"] == pending
        assert pdp.statistics()["index"] == {
            "full_rebuilds": index.full_rebuilds,
            "partial_refreshes": index.partial_refreshes,
            "users_refreshed": index.users_refreshed,
        }
        assert index.partial_refreshes > pending  # refresh() repaired
        # OTHER joined ADM, so the repair rebuilt its entry.
        assert index.users_refreshed > stale["users_refreshed"]
        assert pdp.metrics.publish_latency.count == 3
