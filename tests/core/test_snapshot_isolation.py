"""Isolation of the derived review snapshot.

A :class:`ReviewSnapshot` is derived from the live index's maps over a
structural clone of the policy, so it shares immutable values with the
live index and interned IDs with the live graph.  These tests publish a
snapshot, churn the live policy hard — including vertex removals whose
freed IDs are immediately recycled by fresh vertices — while the live
index keeps repairing, and then hold every snapshot read equal to a
from-scratch index built over a copy taken at the snapshot's version.
A rectangle left bound to the live graph would decode a recycled ID as
the new vertex, which ``grantable_pairs`` exposes.
"""

import asyncio

import pytest

from repro.core.authz_index import AuthorizationIndex
from repro.core.authz_shard import ShardedAuthorizationIndex
from repro.core.commands import grant_cmd, revoke_cmd
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke
from repro.serve import PolicyDecisionPoint

ADMINS = [User(f"admin{i}") for i in range(6)]
MEMBERS = [User(f"member{i}") for i in range(6)]
ADM, OPS = Role("adm"), Role("ops")
R, S, T, X = Role("r"), Role("s"), Role("t"), Role("x")
U = MEMBERS[0]

BOTH_KERNELS = pytest.mark.parametrize(
    "compiled", [True, False], ids=["compiled", "frozenset"]
)
SHARDS = pytest.mark.parametrize("shards", [1, 4])


def build_policy() -> Policy:
    """Rectangles whose regions cover vertices the churn removes:
    ``Grant(U, R)`` spans ancestors(U) x descendants(R) ∋ T, and
    ``Grant(member1, S)`` has T below it too."""
    policy = Policy(
        ua=[(admin, ADM if i % 2 else OPS) for i, admin in enumerate(ADMINS)]
        + [(member, R) for member in MEMBERS[:3]],
        rh=[(R, S), (S, T), (OPS, ADM)],
        pa=[
            (ADM, Grant(U, R)),
            (ADM, Revoke(U, R)),
            (ADM, Grant(ADM, Grant(U, S))),
            (OPS, Grant(MEMBERS[1], S)),
            (OPS, Revoke(MEMBERS[2], R)),
        ],
    )
    for member in MEMBERS:
        policy.add_user(member)
    policy.add_role(X)
    return policy


def make_index(policy, compiled, shards):
    if shards > 1:
        return ShardedAuthorizationIndex(
            policy, shards=shards, compiled=compiled
        )
    return AuthorizationIndex(policy, compiled=compiled)


def queries(policy):
    """Every subject against every entity grant/revoke edge of the
    snapshot-time population, plus a nested grant."""
    users = sorted(policy.users(), key=str)
    roles = sorted(policy.roles(), key=str)
    pairs = []
    for subject in users:
        for source in users[:4] + roles[:2]:
            for target in roles:
                pairs.append((subject, grant_cmd(subject, source, target)))
                pairs.append((subject, revoke_cmd(subject, source, target)))
        pairs.append((subject, grant_cmd(subject, ADM, Grant(U, S))))
    return pairs


def churn(policy, live) -> None:
    """Mutate the live policy with removals whose IDs get recycled,
    letting the live index repair after every step."""
    probe = queries(policy)
    steps = [
        lambda: policy.remove_role(T),            # frees T's ID ...
        lambda: policy.add_role(Role("fresh")),   # ... recycled here
        lambda: policy.remove_user(U),            # a rectangle source
        lambda: policy.add_user(User("newcomer")),
        lambda: policy.add_inheritance(S, Role("fresh")),
        lambda: policy.remove_edge(ADM, Revoke(U, R)),  # privilege GC
        lambda: policy.assign_privilege(X, Grant(User("newcomer"), S)),
        lambda: policy.assign_user(MEMBERS[4], X),
        lambda: policy.remove_role(OPS),
        lambda: policy.add_role(Role("late")),
    ]
    for step in steps:
        step()
        live.authorizes_batch(probe)
        live.grantable_pairs_bulk(policy.users())


def assert_snapshot_matches_reference(snapshot, reference, pairs, users):
    assert snapshot.authorizes_batch(pairs) == reference.authorizes_batch(
        pairs
    )
    assert snapshot.grantable_pairs_bulk(users) == (
        reference.grantable_pairs_bulk(users)
    )
    for user in users:
        assert snapshot.grantable_pairs(user) == reference.grantable_pairs(
            user
        )
        assert snapshot.revocable_pairs(user) == reference.revocable_pairs(
            user
        )
        assert snapshot.effective_authority(user) == (
            reference.effective_authority(user)
        )


@BOTH_KERNELS
@SHARDS
def test_snapshot_survives_churn_with_recycled_ids(compiled, shards):
    policy = build_policy()
    live = make_index(policy, compiled, shards)
    live.authorizes_batch(queries(policy))
    snapshot = live.snapshot()
    at_capture = policy.copy()
    assert at_capture.version == snapshot.version
    pairs = queries(at_capture)
    users = sorted(at_capture.users(), key=str)
    expected_pairs = {user: live.grantable_pairs(user) for user in users}

    churn(policy, live)
    assert policy.version > snapshot.version
    # The churn recycled freed IDs, so a stale binding would misdecode.
    assert policy.graph.vid(Role("fresh")) == at_capture.graph.vid(T)

    reference = AuthorizationIndex(at_capture, compiled=compiled)
    assert_snapshot_matches_reference(snapshot, reference, pairs, users)
    assert {user: snapshot.grantable_pairs(user) for user in users} == (
        expected_pairs
    )
    assert (U, T) in snapshot.grantable_pairs(ADMINS[1])
    # The live index moved on and agrees with its own from-scratch twin.
    rebuilt = AuthorizationIndex(policy.copy(), compiled=compiled)
    live_users = sorted(policy.users(), key=str)
    assert live.grantable_pairs_bulk(live_users) == (
        rebuilt.grantable_pairs_bulk(live_users)
    )


@BOTH_KERNELS
@SHARDS
def test_published_snapshot_isolated_from_the_writer(compiled, shards):
    """The same property through the PDP: the published snapshot
    keeps answering at its version after out-of-band churn and a
    republish."""
    async def scenario():
        async with PolicyDecisionPoint(
            policy=build_policy(), compiled=compiled, shards=shards,
        ) as pdp:
            published = pdp.last_snapshot
            at_capture = pdp.monitor.policy.copy()
            churn(pdp.monitor.policy, pdp.monitor._index)
            await pdp.refresh()
            assert pdp.version > published.version
            return published, at_capture

    published, at_capture = asyncio.run(scenario())
    reference = AuthorizationIndex(at_capture, compiled=compiled)
    assert_snapshot_matches_reference(
        published, reference, queries(at_capture),
        sorted(at_capture.users(), key=str),
    )
