"""The four workloads: set-up, timed phase and correctness checks.

Each ``run_*`` function builds its program state ``setups`` times
(timing each build, normalized by the host speed around it), drives the last one for ``seconds`` with the
seeded script, checks the outputs outside the timed phase, and returns
a :class:`Run`.  With a :class:`~tracing.Tracer` the same phase runs
with spans installed; end-to-end figures always come from a run
without one.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import math
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.analysis.lint import RULES, lint_policy
from repro.analysis.repair import repair_policy
from repro.core.commands import Mode, grant_cmd, revoke_cmd
from repro.core.entities import Role, User
from repro.core.ordering import implicitly_authorized
from repro.dbms.sql import execute_sql
from repro.errors import AccessDenied
from repro.serve import PolicyDecisionPoint
from repro.serve.wal import read_wal, verify_chain
from repro.workloads.hospital import guarded_hospital_database

import scripts
from tracing import REQUEST, Tracer

clock = time.perf_counter
INF = math.inf


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


#: one reference sample's time on the reference host (2-vCPU Xeon
#: container, CPython 3.11, quiet): normalized times read as that
#: host's milliseconds.
REFERENCE_NOMINAL_S = 0.00021
#: samples pooled around each request when normalizing it.
NEAREST = 7
#: loop iterations in one reference sample.
REFERENCE_STEPS = 400


def _reference() -> int:
    """A fixed slice of interpreter work: dict and tuple hashing,
    string formatting and big-int bit twiddling, the program's mix."""
    counts: dict = {}
    bits = 0
    names = []
    for i in range(REFERENCE_STEPS):
        key = ("u%d" % (i % 97), i % 13)
        counts[key] = counts.get(key, 0) + 1
        bits = (bits | (1 << (i % 61))) & ~(1 << (i % 59))
        names.append(key[0])
    return len(counts) + bits.bit_length() + len(set(names))


class HostSpeed:
    """How fast the shared host runs right now, sampled in the
    benchmark's own idle moments.

    The host's CPU speed swings by a quarter within seconds (other
    tenants), which no run length averages away.  Each sample times
    :func:`_reference`; a request's latency is divided by the speed
    factor (median of the ``NEAREST`` samples closest in time, over
    :data:`REFERENCE_NOMINAL_S`), so the metrics read as the reference
    host's milliseconds and the swing cancels."""

    def __init__(self):
        #: per sample: monotonic start, process CPU at start, duration.
        self.times: list[float] = []
        self.cpu: list[float] = []
        self.seconds: list[float] = []

    def recent(self, count: int) -> float:
        """The speed factor over the last ``count`` samples."""
        return statistics.median(self.seconds[-count:]) / REFERENCE_NOMINAL_S

    def sample(self, count: int = 1) -> None:
        # The collector stays off while a sample runs: a collection
        # inside it would cost in proportion to the program's heap, and
        # the factor would then measure the program rather than the
        # host.  The sample frees what it allocates, so it leaves the
        # collector's allocation count where it found it.
        for _ in range(count):
            began = time.monotonic()
            self.cpu.append(time.process_time())
            gc.disable()
            started = clock()
            _reference()
            elapsed = clock() - started
            gc.enable()
            self.seconds.append(elapsed)
            self.times.append(began)

    def factor_at(self, moment: float) -> float:
        position = bisect.bisect_left(self.times, moment)
        low = max(0, position - NEAREST // 2)
        high = min(len(self.times), low + NEAREST)
        low = max(0, high - NEAREST)
        return statistics.median(self.seconds[low:high]) / REFERENCE_NOMINAL_S

    def factor(self) -> float:
        """The speed factor over every sample of the run."""
        return statistics.median(self.seconds) / REFERENCE_NOMINAL_S

    def normalize(self, moments, latencies) -> list[float]:
        return [
            latency / self.factor_at(moment)
            for moment, latency in zip(moments, latencies)
        ]


@dataclass
class Run:
    """What one timed phase measured and what its checks found."""

    #: each set-up's time, normalized by the host speed sampled just
    #: before and after it; ``setup_raw`` keeps the wall times.
    setup_seconds: list[float] = field(default_factory=list)
    setup_raw: list[float] = field(default_factory=list)
    #: the workload's requests (pages, statements or lint sweeps), in
    #: seconds; a failed request is +inf.  ``moments`` holds each
    #: request's ``time.monotonic()`` send time, for normalization.
    latencies: list[float] = field(default_factory=list)
    moments: list[float] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)
    attempted: int = 0
    failed: int = 0
    #: (monotonic start, process CPU at start, first speed sample) of
    #: the timed phase, and its CPU time raw and normalized.
    phase: tuple = (0.0, 0.0, 0)
    cpu_seconds: float = 0.0
    cpu_normalized: float = 0.0
    #: the process's peak resident memory at the end of the timed
    #: phase, before any check builds its own replay.
    peak_rss_mb: float = 0.0
    #: how late the generator sent each request against its schedule.
    lateness: list[float] = field(default_factory=list)
    #: metrics that exist on this workload only, as (value, samples).
    extra: dict = field(default_factory=dict)
    #: (check name, passed, detail)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    tracer: Tracer | None = None

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def begin_setup(self) -> float:
        # Whatever the previous set-up released is collected first,
        # outside the timing, so each set-up starts from the same heap.
        gc.collect()
        self.speed.sample(5)
        return clock()

    def end_setup(self, started: float) -> None:
        raw = clock() - started
        self.speed.sample(5)
        self.setup_raw.append(raw)
        self.setup_seconds.append(raw / self.speed.recent(10))


def _begin(run: Run, tracer: Tracer | None) -> None:
    gc.collect()
    if tracer is not None:
        tracer.install()
    run.phase = (time.monotonic(), time.process_time(), len(run.speed.times))


def _finish_cpu(run: Run) -> None:
    """Process CPU time of the timed phase, host-speed samples
    excluded: raw, and normalized piece by piece (the CPU between two
    samples over the speed factor around the first of them); and the
    peak memory so far."""
    run.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    _, cpu_start, first = run.phase
    speed = run.speed
    inside = range(first, len(speed.times))
    starts = [cpu_start] + [speed.cpu[i] + speed.seconds[i] for i in inside]
    ends = [speed.cpu[i] for i in inside] + [time.process_time()]
    anchors = [speed.times[max(0, first - 1)]] + [speed.times[i] for i in inside]
    pieces = [max(0.0, end - begin) for begin, end in zip(starts, ends)]
    run.cpu_seconds = sum(pieces)
    run.cpu_normalized = sum(
        piece / speed.factor_at(moment)
        for piece, moment in zip(pieces, anchors)
    )


def _end(tracer: Tracer | None) -> None:
    if tracer is not None:
        tracer.uninstall()


# ----------------------------------------------------------------------
# PDP: pdp-read-hot and pdp-write-churn
# ----------------------------------------------------------------------
def _command(action: str, admin: User, user: User, role: Role):
    return (grant_cmd if action == "grant" else revoke_cmd)(admin, user, role)


class _Entities:
    """Interned entity objects for materializing script values."""

    def __init__(self):
        self.users: dict[str, User] = {}
        self.roles: dict[str, Role] = {}

    def user(self, name: str) -> User:
        found = self.users.get(name)
        if found is None:
            found = self.users[name] = User(name)
        return found

    def role(self, name: str) -> Role:
        found = self.roles.get(name)
        if found is None:
            found = self.roles[name] = Role(name)
        return found


async def _warm(pdp, script, entities, admins) -> None:
    """Ask every pool value once per administrator: fills the decision
    cache and builds the published snapshot's index."""
    pages = []
    for admin_index, pool in enumerate(script.pool):
        admin = admins[admin_index]
        for start in range(0, len(pool), scripts.PROBES):
            pages.append(pdp.check_many(admin, [
                _command(action, admin, entities.user(user),
                         entities.role(role))
                for action, user, role in pool[start:start + scripts.PROBES]
            ]))
    await asyncio.gather(*pages)


#: how early the generator wakes on the loop before a send is due.
SEND_SLACK = 0.003


def _group_commands(group, entities, admins):
    return [
        _command(action, admins[admin], entities.user(user),
                 entities.role(role))
        for admin, action, user, role in group
    ]


async def _pdp_phase(profile, seed, seconds, tracer, setups, workdir, run):
    script = scripts.pdp_script(
        scripts.pdp_policy(), profile, seed, seconds
    )
    entities = _Entities()
    admins = [entities.user(name) for name in script.admins]
    acks: list = []
    pdp = wal_path = None
    for attempt in range(setups):
        if pdp is not None:
            await pdp.stop()
            pdp = None
        wal_path = None
        if profile.write_interval is not None:
            wal_path = os.path.join(workdir, f"policy-{attempt}.wal")
            if os.path.exists(wal_path):
                os.remove(wal_path)
        started = run.begin_setup()
        pdp = PolicyDecisionPoint(policy=scripts.pdp_policy(),
                                  wal=wal_path)
        await pdp.start()
        await _warm(pdp, script, entities, admins)
        if script.writes:
            records = await pdp.submit_many(
                _group_commands(script.writes[0], entities, admins))
            await _warm(pdp, script, entities, admins)
            warm_acks = [(0, [r.executed for r in records], pdp.version)]
        run.end_setup(started)
    if script.writes:
        acks.extend(warm_acks)
    initial_wal_bytes = pdp.wal.bytes_written if pdp.wal else 0

    loop = asyncio.get_running_loop()
    pages = [p for burst in script.bursts for p in burst]
    page_latency = [INF] * len(pages)
    samples: list = []
    write_latency: list[float] = []
    failures = {"pages": 0, "writes": 0}
    pending: set = set()

    async def page(slot, burst_index, page_index, admin_index, probes, due):
        if tracer is not None:
            REQUEST.set(f"p{slot}")
        admin = admins[admin_index]
        pool = script.pool[admin_index]
        commands = [
            _command(pool[i][0], admin, entities.user(pool[i][1]),
                     entities.role(pool[i][2]))
            for i in probes
        ]
        try:
            decisions = await pdp.check_many(admin, commands)
        except Exception:
            failures["pages"] += 1
            return
        page_latency[slot] = loop.time() - due
        if (burst_index, page_index) in script.sampled:
            samples.append((admin_index, probes, [
                (decision.allowed, decision.version)
                for decision in decisions
            ]))

    async def write_group(group_index, due):
        commands = _group_commands(
            script.writes[group_index], entities, admins)
        try:
            records = await pdp.submit_many(commands)
        except Exception:
            failures["writes"] += len(commands)
            write_latency.extend([INF] * len(commands))
            return
        write_latency.extend([loop.time() - due] * len(commands))
        acks.append((group_index, [r.executed for r in records],
                     pdp.version))

    _begin(run, tracer)
    start = loop.time() + 0.005
    events = [
        (start + index * profile.burst_interval, 0, index)
        for index in range(len(script.bursts))
    ]
    if profile.write_interval is not None:
        events += [
            (start + (index - 0.5) * profile.write_interval, 1, index)
            for index in range(1, len(script.writes))
        ]
    # Host-speed samples sit mid-way between bursts, when no request
    # arrives; one that would run late (the loop was busy) is skipped
    # rather than added to a backlog.
    events += [
        (start + (index + 0.5) * profile.burst_interval, 2, index)
        for index in range(len(script.bursts))
    ]
    events.sort()
    slot = 0
    slots = []
    for burst in script.bursts:
        slots.append(slot)
        slot += len(burst)
    for due, kind, index in events:
        delay = due - loop.time()
        if kind != 2 and delay > 0:
            # The loop's timer wakes up to a millisecond late (epoll
            # rounds its timeout up), which would read as latency of
            # the program.  Sleep coarsely on the loop, then block for
            # the last stretch so the burst leaves on time; the loop is
            # idle then unless a stall is running, and a stall makes
            # the wake late anyway.
            if delay > SEND_SLACK:
                await asyncio.sleep(delay - SEND_SLACK)
            remaining = due - loop.time()
            if remaining > 0:
                time.sleep(remaining)
        elif delay > 0:
            await asyncio.sleep(delay)
        if kind == 2:
            if loop.time() - due < profile.burst_interval / 4:
                run.speed.sample()
            continue
        run.lateness.append(max(0.0, loop.time() - due))
        if kind == 0:
            for page_index, (admin_index, probes) in enumerate(
                script.bursts[index]
            ):
                task = loop.create_task(page(
                    slots[index] + page_index, index, page_index,
                    admin_index, probes, due,
                ))
                pending.add(task)
                task.add_done_callback(pending.discard)
        else:
            task = loop.create_task(write_group(index, due))
            pending.add(task)
            task.add_done_callback(pending.discard)
    while pending:
        await asyncio.gather(*list(pending))
    _finish_cpu(run)

    run.latencies = page_latency
    run.moments = [
        start + index * profile.burst_interval
        for index, burst in enumerate(script.bursts) for _ in burst
    ]
    writes = len(write_latency)
    run.attempted = len(pages) + writes
    run.failed = failures["pages"] + failures["writes"]
    run.extra["check_p50_ms"] = (percentile(page_latency, 0.5) * 1e3,
                                 len(page_latency))
    run.extra["check_p99_ms"] = (percentile(page_latency, 0.99) * 1e3,
                                 len(page_latency))
    if profile.write_interval is None:
        await pdp.stop()
    else:
        executed = sum(sum(flags) for _, flags, _ in acks[1:])
        appended = pdp.wal.bytes_written - initial_wal_bytes
        run.extra["submit_p50_ms"] = (
            percentile(write_latency, 0.5) * 1e3, writes)
        if writes * 0.1 >= 10:
            run.extra["submit_p90_ms"] = (
                percentile(write_latency, 0.9) * 1e3, writes)
        run.extra["wal_bytes_per_write"] = (
            appended / max(1, executed), executed)
        if tracer is not None:
            tracer.batch_request = None
            tracer.recovery_from = len(tracer.spans)
        live = pdp.monitor.policy
        pdp.kill()
        started = clock()
        recovered = PolicyDecisionPoint.recover(wal_path)
        run.extra["recover_s"] = (clock() - started, 1)
        recovered.wal.close()
        run.check("recovered policy equals the live one",
                  recovered.monitor.policy == live)
        try:
            verify_chain(read_wal(wal_path)[0])
            run.check("WAL hash chain verifies", True)
        except Exception as error:
            run.check("WAL hash chain verifies", False, str(error))
    _end(tracer)
    run.tracer = tracer
    _oracle_check(run, script, acks, samples, entities)


def _oracle_check(run, script, acks, samples, entities) -> None:
    """Re-decide the sampled decisions at the version each reports,
    with ``implicitly_authorized`` on a replay of the acknowledged
    writes (no index, no cache)."""
    policy = scripts.pdp_policy()
    admins = [entities.user(name) for name in script.admins]
    by_version: dict[int, list] = defaultdict(list)
    for admin_index, probes, verdicts in samples:
        pool = script.pool[admin_index]
        for index, (allowed, version) in zip(probes, verdicts):
            by_version[version].append((admin_index, pool[index], allowed))
    decided = mismatched = write_mismatch = 0

    def decide_at(version: int) -> None:
        nonlocal decided, mismatched
        for admin_index, (action, user, role), allowed in by_version.pop(
            version, ()
        ):
            command = _command(action, admins[admin_index],
                               User(user), Role(role))
            verdict = implicitly_authorized(
                policy, admins[admin_index], command.requested_privilege())
            decided += 1
            mismatched += (verdict is not None) != allowed

    decide_at(policy.version)
    for group_index, executed, version in sorted(acks):
        commands = _group_commands(script.writes[group_index], entities,
                                   admins)
        for command, flag in zip(commands, executed):
            expected = implicitly_authorized(
                policy, command.user, command.requested_privilege())
            write_mismatch += (expected is not None) != flag
        for command, flag in zip(commands, executed):
            if flag and command.action.value == "grant":
                policy.add_edge(command.source, command.target)
            elif flag:
                policy.remove_edge(command.source, command.target)
        if policy.version != version:
            run.check("replayed writes reach each acknowledged version",
                      False, f"{policy.version} != {version}")
            return
        decide_at(version)
    run.check("every write group was acknowledged",
              len(acks) == len(script.writes),
              f"{len(acks)} of {len(script.writes)}")
    run.check("every write was authorized and executed",
              all(all(flags) for _, flags, _ in acks) and not write_mismatch,
              f"{write_mismatch} oracle disagreements")
    run.check("sampled decisions equal the index-free oracle",
              decided > 0 and mismatched == 0 and not by_version,
              f"{mismatched}/{decided} differ, "
              f"{sum(map(len, by_version.values()))} at unknown versions")


def run_pdp(profile, seed, seconds, tracer, setups, workdir):
    run = Run()
    asyncio.run(_pdp_phase(profile, seed, seconds, tracer, setups, workdir,
                           run))
    return run


# ----------------------------------------------------------------------
# Guarded DBMS: dbms-mixed
# ----------------------------------------------------------------------
#: statements replayed untimed before the timed phase.
DBMS_WARMUP = 400


def _execute(database, operation, sessions):
    """One trace step with :func:`repro.workloads.dbms.run_trace`'s
    exact semantics; returns its outcome tuple."""
    if operation.kind in ("grant", "revoke"):
        builder = grant_cmd if operation.kind == "grant" else revoke_cmd
        record = database.administer(builder(
            User(operation.user), User(operation.source),
            Role(operation.target),
        ))
        return ("admin", record.executed)
    key = (operation.user, operation.roles)
    session = sessions.get(key)
    if session is None:
        try:
            session = database.login(
                User(operation.user),
                *(Role(name) for name in operation.roles),
            )
        except AccessDenied as denied:
            return ("denied", str(denied))
        sessions[key] = session
    try:
        result = execute_sql(database, session, operation.sql)
    except AccessDenied as denied:
        return ("denied", str(denied))
    if result.rows or operation.sql.lstrip()[:6].lower() == "select":
        return ("rows", tuple(tuple(row.items()) for row in result.rows))
    return ("affected", result.affected)


def _hospital(backend: str, **options):
    return guarded_hospital_database(
        scripts.HOSPITAL_SHAPE, backend=backend, mode=Mode.REFINED,
        rows_per_table=scripts.ROWS_PER_TABLE, **options,
    )


def run_dbms(seed, seconds, tracer, setups, workdir):
    from repro.workloads.dbms import run_trace

    run = Run()
    operations = scripts.dbms_script(seed, seconds)
    warmup = scripts.dbms_script(seed + 1_000_003, 1)[:DBMS_WARMUP]
    database = None
    for attempt in range(setups):
        if database is not None:
            database.close()
            database = None
        path = os.path.join(workdir, f"hospital-{attempt}.kvlog")
        if os.path.exists(path):
            os.remove(path)
        started = run.begin_setup()
        database = _hospital("kvlog", path=path)
        sessions: dict = {}
        outcomes = [hash(_execute(database, op, sessions)) for op in warmup]
        run.end_setup(started)

    write_latency: list[float] = []
    tick = 0.01
    per_tick = round(scripts.DBMS_RATE * tick)
    _begin(run, tracer)
    start = clock()
    for position, operation in enumerate(operations):
        due = start + (position // per_tick) * tick
        if position % per_tick == 0:
            run.speed.sample()
        now = clock()
        if now < due:
            time.sleep(due - now)
        else:
            run.lateness.append(now - due)
        if tracer is not None:
            REQUEST.set(f"s{position}")
        moment = time.monotonic()
        began = clock()
        try:
            outcome = _execute(database, operation, sessions)
        except Exception as error:
            outcome = ("failed", repr(error))
            run.failed += 1
            elapsed = INF
        else:
            elapsed = clock() - began
        outcomes.append(hash(outcome))
        verb = operation.sql.lstrip()[:6].lower()
        # SELECTs are the requests: over all statements the median
        # would sit on the seam between the INSERT and UPDATE costs.
        if verb == "select" or elapsed == INF:
            run.latencies.append(elapsed)
            run.moments.append(moment)
        elif verb in ("insert", "update", "delete"):
            write_latency.append(elapsed)
    _finish_cpu(run)
    _end(tracer)
    run.tracer = tracer
    run.lateness.extend([0.0] * (len(operations) - len(run.lateness)))
    run.attempted = len(operations)
    run.extra["select_p50_us"] = (percentile(run.latencies, 0.5) * 1e6,
                                  len(run.latencies))
    run.extra["select_p99_us"] = (percentile(run.latencies, 0.99) * 1e6,
                                  len(run.latencies))
    run.extra["write_p50_us"] = (percentile(write_latency, 0.5) * 1e6,
                                 len(write_latency))
    database.close()

    # Outcomes are kept as hashes: a SELECT's rows would otherwise pin
    # hundreds of megabytes.  The replay uses the same step function,
    # which the warm-up prefix pins to ``run_trace`` itself.
    memory = _hospital("memory")
    sessions = {}
    replayed = [
        hash(_execute(memory, op, sessions))
        for op in list(warmup) + list(operations)
    ]
    run.check("results equal a replay on the memory backend",
              outcomes == replayed)
    run.check("audit trail equals the memory backend's",
              database.audit.canonical() == memory.audit.canonical())
    reference = run_trace(_hospital("memory"), list(warmup))
    run.check("the replay step matches run_trace",
              [hash(outcome) for outcome in reference.canonical()]
              == outcomes[:len(warmup)])
    return run


# ----------------------------------------------------------------------
# Policy audit: policy-audit
# ----------------------------------------------------------------------
def _signature(report) -> tuple:
    return tuple(
        (finding.rule, str(finding.subject),
         tuple(str(item) for item in finding.witness))
        for finding in report.findings
    )


def run_audit(seed, seconds, tracer, setups, workdir):
    run = Run()
    script = scripts.audit_script(seed)
    for _ in range(setups):
        started = run.begin_setup()
        policy, constraints = scripts.audit_policy(script)
        first = lint_policy(policy, constraints=constraints)
        run.end_setup(started)
    expected = _signature(first)

    _begin(run, tracer)
    stable = True
    deadline = clock() + seconds
    while clock() < deadline:
        run.speed.sample(3)
        run.moments.append(time.monotonic())
        began = clock()
        try:
            report = lint_policy(policy, constraints=constraints)
        except Exception:
            run.failed += 1
            run.latencies.append(INF)
            continue
        run.latencies.append(clock() - began)
        stable = stable and _signature(report) == expected
    run.attempted = len(run.latencies) + 1
    began = clock()
    try:
        repaired = repair_policy(policy, constraints=constraints)
    except Exception as error:
        run.failed += 1
        repaired = None
        run.check("repair_policy completes", False, repr(error))
    repair_seconds = clock() - began
    _finish_cpu(run)
    _end(tracer)
    run.tracer = tracer
    run.lateness = [0.0]
    run.extra["lint_s"] = (percentile(run.latencies, 0.5),
                           len(run.latencies))
    run.extra["repair_s"] = (repair_seconds, 1)

    run.check("every sweep reports the same findings", stable)
    found = {(f.rule, str(f.subject)) for f in first.findings}
    witnesses = {
        tuple(str(item) for item in f.witness[:2])
        for f in first.findings if f.rule == "redundant-delegation"
    }
    planted = [
        ("redundant-delegation", pair in witnesses, f"{pair}")
        for pair in script.shortcuts
    ] + [
        ("dead-role", ("dead-role", script.dead_role) in found,
         script.dead_role),
        ("constraint-conflict",
         ("constraint-conflict", script.ssd_violator) in found,
         script.ssd_violator),
    ]
    missing = [detail for _, hit, detail in planted if not hit]
    run.check("every planted defect is reported", not missing,
              f"missing {missing}")
    if repaired is not None:
        relint = lint_policy(repaired.policy, constraints=constraints)
        fixable = [
            f for f in relint.findings if RULES[f.rule].no_repair is None
        ]
        run.check("repair reaches a fixed point", repaired.fixpoint)
        run.check("the repaired policy re-lints free of fixable findings",
                  not fixable, f"{len(fixable)} remain")
        run.extra["repair.rounds"] = repaired.iterations
        run.extra["repair.plans_applied"] = len(repaired.applied)
    return run
