"""Seeded request scripts: every input a workload feeds the program.

A script is pure data — entity names, indices and SQL text, no live
objects — built from ``--seed`` before any timing starts, so the same
seed replays the same inputs and the program under test receives only
what the generator made.  ``test_e2ebench_script.py`` pins that.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.analysis.constraints import SsdConstraint
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke
from repro.workloads.churn import ChurnShape, churn_policy
from repro.workloads.dbms import Operation
from repro.workloads.enterprise import EnterpriseShape, enterprise_policy
from repro.workloads.hospital import HospitalShape, hospital_query_trace

#: the 2,000-user churn organization of ``benchmarks/bench_pdp.py``:
#: delegated administration scaled up so a decision carries realistic
#: rectangle-scan weight.
PDP_SHAPE = ChurnShape(
    n_users=2000, n_roles=48, layers=6, roles_per_user=3,
    privileges_per_role=8, delegations_per_top_role=40,
)
#: the organizations are fixed; ``--seed`` draws the traffic and the
#: planted defects.  Seeding the organization too would add its
#: structural variation to every run-to-run spread.
ORGANIZATION_SEED = 29
#: probes per ``check_many`` page.
PROBES = 8
#: pages per run whose decisions the oracle re-decides.
SAMPLED_PAGES = 48


@dataclass(frozen=True)
class PdpProfile:
    """Arrival schedule of one PDP workload (open loop)."""

    #: seconds between read bursts.
    burst_interval: float
    pages_per_burst: int
    #: distinct request values per administrator.
    pool_per_admin: int
    #: seconds between write groups (None: no writes at all).
    write_interval: float | None = None
    writes_per_group: int = 0
    #: Zipf exponent of probe popularity over the pool (0: uniform).
    skew: float = 0.0


#: popularity skew of pdp-write-churn probes: a few hot values re-enter
#: the cache right after each write evicts them, so about a quarter of
#: probes miss (measured through the traced run's cache.hit_ratio).
SKEW = 1.2
READ_HOT = PdpProfile(burst_interval=0.020, pages_per_burst=64,
                      pool_per_admin=256)
WRITE_CHURN = PdpProfile(burst_interval=0.040, pages_per_burst=16,
                         pool_per_admin=4096, write_interval=1.0,
                         writes_per_group=4, skew=SKEW)


@dataclass(frozen=True)
class PdpScript:
    """Reads: ``bursts[i]`` is a tuple of pages ``(admin, probes)``
    where each probe indexes ``pool[admin]``, an ``(action, user,
    role)`` value.  Writes: ``writes[j]`` is one group of ``(admin,
    action, user, role)`` toggles; ``writes[0]`` is the warm-up group,
    sent before timing.  ``sampled`` lists the ``(burst, page)`` slots
    whose decisions the oracle re-decides."""

    admins: tuple[str, ...]
    pool: tuple[tuple[tuple[str, str, str], ...], ...]
    bursts: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    writes: tuple[tuple[tuple[int, str, str, str], ...], ...]
    sampled: frozenset


def pdp_policy() -> Policy:
    return churn_policy(ORGANIZATION_SEED, PDP_SHAPE)


def _hot_names(policy: Policy) -> tuple[list[str], list[str]]:
    """Users and roles inside the administrators' grant rectangles, so
    probes over them pay the full rectangle scan (bench_pdp's rule)."""
    hot_users: set[str] = set()
    hot_roles: set[str] = set()
    seniors: set[Role] = set()
    for privilege in policy.admin_privileges():
        if not isinstance(privilege, Grant):
            continue
        if isinstance(privilege.source, User):
            hot_users.add(privilege.source.name)
        if isinstance(privilege.target, Role):
            seniors.add(privilege.target)
    for senior in seniors:
        for vertex in policy.descendants(senior):
            if isinstance(vertex, Role):
                hot_roles.add(vertex.name)
    for user, role in policy.ua_edges():
        if role in seniors:
            hot_users.add(user.name)
    return sorted(hot_users), sorted(hot_roles)


def _toggle_pairs(policy: Policy) -> list[tuple[str, str]]:
    """(user, role) edges the administrators hold both the grant and
    the revoke privilege for: toggling one is always authorized."""
    held = set(policy.admin_privileges())
    return sorted(
        (privilege.source.name, privilege.target.name)
        for privilege in held
        if isinstance(privilege, Grant)
        and isinstance(privilege.source, User)
        and isinstance(privilege.target, Role)
        and Revoke(privilege.source, privilege.target) in held
    )


def pdp_script(
    policy: Policy, profile: PdpProfile, seed: int, seconds: float,
) -> PdpScript:
    """The request script for ``seconds`` of ``profile`` traffic."""
    rng = random.Random(seed * 7919 + profile.pages_per_burst)
    # The request catalogue belongs to the organization, like the
    # policy: only which values are asked, and when, follows the seed.
    catalogue = random.Random(ORGANIZATION_SEED * 7919 + profile.pool_per_admin)
    admins = tuple(sorted(
        user.name for user in policy.users()
        if user.name.startswith("admin")
    ))
    hot_users, hot_roles = _hot_names(policy)
    plain_users = sorted(
        user.name for user in policy.users()
        if not user.name.startswith("admin")
    )
    plain_roles = sorted(
        role.name for role in policy.roles() if role.name != "admin"
    )
    pool = []
    for _ in admins:
        values: dict[tuple[str, str, str], None] = {}
        while len(values) < profile.pool_per_admin:
            draw = catalogue.random()
            if draw < 0.7:
                value = ("grant", catalogue.choice(hot_users),
                         catalogue.choice(hot_roles))
            elif draw < 0.85:
                value = ("grant", catalogue.choice(plain_users),
                         catalogue.choice(plain_roles))
            else:
                value = ("revoke", catalogue.choice(plain_users),
                         catalogue.choice(plain_roles))
            values[value] = None
        pool.append(tuple(values))
    n_bursts = math.ceil(seconds / profile.burst_interval)
    ranks = range(profile.pool_per_admin)
    weights = [1.0 / (rank + 1) ** profile.skew for rank in ranks]
    cumulative = [sum(weights[:1])]
    for weight in weights[1:]:
        cumulative.append(cumulative[-1] + weight)
    bursts = tuple(
        tuple(
            (
                page % len(admins),
                tuple(rng.choices(ranks, cum_weights=cumulative, k=PROBES)),
            )
            for page in range(profile.pages_per_burst)
        )
        for _ in range(n_bursts)
    )
    writes = []
    if profile.write_interval is not None:
        pairs = _toggle_pairs(policy)
        present = {
            pair for pair in pairs
            if policy.has_edge(User(pair[0]), Role(pair[1]))
        }
        n_groups = 1 + math.ceil(seconds / profile.write_interval)
        for _ in range(n_groups):
            group = []
            for user, role in rng.sample(pairs, profile.writes_per_group):
                action = "revoke" if (user, role) in present else "grant"
                present ^= {(user, role)}
                group.append((rng.randrange(len(admins)), action, user, role))
            writes.append(tuple(group))
    slots = [
        (burst, page)
        for burst in range(n_bursts)
        for page in range(profile.pages_per_burst)
    ]
    sampled = frozenset(rng.sample(slots, min(SAMPLED_PAGES, len(slots))))
    return PdpScript(admins, tuple(pool), bursts, tuple(writes), sampled)


# ----------------------------------------------------------------------
# Guarded DBMS
# ----------------------------------------------------------------------
#: 8 wards x 16 nurses x 4 tables, 500 rows per table.
HOSPITAL_SHAPE = HospitalShape(
    wards=8, nurses_per_ward=16, flexworkers=2, hr_members=2,
    tables_per_ward=4,
)
ROWS_PER_TABLE = 500
#: statements per second the client is paced to (about half of what
#: the engine sustains on the reference host), so every run does the
#: same work and tables grow by the same rows however fast it runs.
DBMS_RATE = 1000


def dbms_script(seed: int, seconds: float) -> tuple[Operation, ...]:
    """Laps of ``hospital_query_trace``: each lap re-appoints the
    flexworker to every ward, runs a seeded-length, seeded-order body
    of SELECTs, writes and denied statements, and ends with the
    ward-0 revocation and its denied probe."""
    rng = random.Random(seed * 104729 + 1)
    needed = math.ceil(DBMS_RATE * seconds)
    operations: list[Operation] = []
    grants = HOSPITAL_SHAPE.wards
    while len(operations) < needed:
        lap = hospital_query_trace(HOSPITAL_SHAPE, rng.randint(300, 900))
        body = lap[grants:-2]
        rng.shuffle(body)
        operations.extend(lap[:grants] + body + lap[-2:])
    return tuple(operations[:needed])


# ----------------------------------------------------------------------
# Policy audit
# ----------------------------------------------------------------------
AUDIT_SHAPE = EnterpriseShape(
    departments=5, levels_per_department=4, roles_per_level=3,
    employees_per_department=200, delegation_depth=2,
)


@dataclass(frozen=True)
class AuditScript:
    """The planted defects, as names: closure-implied shortcut edges
    (each must surface as ``redundant-delegation``), one dead role and
    one SSD violation (a user in two separated roles)."""

    shortcuts: tuple[tuple[str, str], ...]
    dead_role: str
    ssd_roles: tuple[str, ...]
    ssd_violator: str


def audit_script(seed: int) -> AuditScript:
    """Every closure-implied L0 -> L2 shortcut of the fixed enterprise,
    plus a seeded dead role and SSD violator."""
    policy = enterprise_policy(AUDIT_SHAPE, ORGANIZATION_SEED)
    shortcuts = []
    for dept in range(AUDIT_SHAPE.departments):
        for index in range(AUDIT_SHAPE.roles_per_level):
            upper = Role(f"dept{dept}_L0_r{index}")
            lower = Role(f"dept{dept}_L2_r{index}")
            if (
                upper in policy.graph and lower in policy.graph
                and policy.reaches(upper, lower)
                and not policy.has_edge(upper, lower)
            ):
                shortcuts.append((upper.name, lower.name))
    rng = random.Random(seed * 15485863 + 5)
    ssd_roles = tuple(
        f"dept{dept}_L0_r0" for dept in range(AUDIT_SHAPE.departments)
    )
    first, second = rng.sample(range(len(ssd_roles)), 2)
    violator = (
        f"dept{first}_emp"
        f"{rng.randrange(AUDIT_SHAPE.employees_per_department)}"
    )
    return AuditScript(
        tuple(shortcuts), f"orphan_r{rng.randrange(100)}",
        (ssd_roles[first], ssd_roles[second]) + tuple(
            name for index, name in enumerate(ssd_roles)
            if index not in (first, second)
        ),
        violator,
    )


def audit_policy(script: AuditScript) -> tuple[Policy, tuple]:
    """Build the enterprise and plant the script's defects."""
    policy = enterprise_policy(AUDIT_SHAPE, ORGANIZATION_SEED)
    for upper, lower in script.shortcuts:
        policy.add_inheritance(Role(upper), Role(lower))
    policy.add_role(Role(script.dead_role))
    policy.assign_user(User(script.ssd_violator), Role(script.ssd_roles[0]))
    policy.assign_user(User(script.ssd_violator), Role(script.ssd_roles[1]))
    constraints = (
        SsdConstraint("cross_department", frozenset(
            Role(name) for name in script.ssd_roles
        )),
    )
    return policy, constraints
