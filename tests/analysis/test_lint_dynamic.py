"""Unit tests for the dynamic-layer lint rules.

``unreachable-under-ssd`` and ``depth-k-escalation`` reason about the
*transition system* (sessions, chained grants) rather than the static
graph, so each test runs both kernels and pins them identical — the
same discipline the fuzz campaigns enforce at scale.
"""

import random

import pytest

from repro.analysis import lint
from repro.analysis.constraints import SsdConstraint
from repro.analysis.lint import _min_grant_escalation, lint_policy
from repro.core.commands import Mode
from repro.core.entities import Role, User
from repro.core.explore import ExplorationEngine
from repro.core.policy import Policy
from repro.core.privileges import Grant, perm
from repro.papercases import figures
from repro.workloads.enterprise import EnterpriseShape, enterprise_policy

BOTH_KERNELS = pytest.mark.parametrize(
    "compiled", [True, False], ids=["compiled", "frozenset"]
)


def findings_of(report, rule):
    return [f for f in report.findings if f.rule == rule]


# ----------------------------------------------------------------------
# unreachable-under-ssd
# ----------------------------------------------------------------------
def ssd_trap_policy():
    """``top`` is senior to both separated roles, and the only road to
    the privilege — activating it alone already violates the SSD set."""
    top, a, b = Role("top"), Role("a"), Role("b")
    return Policy(
        ua=[(User("u"), top)],
        rh=[(top, a), (top, b)],
        pa=[(top, perm("read", "doc"))],
    )


class TestUnreachableUnderSsd:
    @BOTH_KERNELS
    def test_flags_trapped_privilege(self, compiled):
        constraint = SsdConstraint("sep", frozenset({Role("a"), Role("b")}))
        report = lint_policy(
            ssd_trap_policy(), compiled=compiled, constraints=[constraint]
        )
        found = findings_of(report, "unreachable-under-ssd")
        assert len(found) == 1
        finding = found[0]
        assert finding.subject == perm("read", "doc")
        assert finding.witness == (Role("top"),)
        assert finding.repair == "revoke(top, (read, doc))"

    @BOTH_KERNELS
    def test_silent_without_constraints(self, compiled):
        report = lint_policy(ssd_trap_policy(), compiled=compiled)
        assert findings_of(report, "unreachable-under-ssd") == []

    @BOTH_KERNELS
    def test_silent_when_compliant_role_reaches(self, compiled):
        # Attach the privilege to ``a`` as well: a single-role session
        # of ``a`` activates it without touching the separation set.
        policy = ssd_trap_policy()
        policy.add_edge(Role("a"), perm("read", "doc"))
        constraint = SsdConstraint("sep", frozenset({Role("a"), Role("b")}))
        report = lint_policy(
            policy, compiled=compiled, constraints=[constraint]
        )
        assert findings_of(report, "unreachable-under-ssd") == []

    def test_kernels_agree(self):
        constraint = SsdConstraint("sep", frozenset({Role("a"), Role("b")}))
        fast = lint_policy(
            ssd_trap_policy(), constraints=[constraint]
        )
        slow = lint_policy(
            ssd_trap_policy(), compiled=False, constraints=[constraint]
        )
        assert fast.findings == slow.findings
        assert fast.stats == slow.stats

    @BOTH_KERNELS
    def test_fixtures_stay_silent(self, compiled):
        # No fixture declares constraints, so the rule never fires on
        # them — the CI lint pins rely on this.
        for factory in (figures.figure1, figures.figure2, figures.figure3):
            report = lint_policy(factory(), compiled=compiled)
            assert findings_of(report, "unreachable-under-ssd") == []


# ----------------------------------------------------------------------
# depth-k-escalation
# ----------------------------------------------------------------------
def chained_grant_policy():
    """``eve`` holds two grant privileges that only pay off chained:
    grant(eve, stage) then grant(stage, vault) reach the vault perm."""
    eve, admin = User("eve"), Role("admin")
    stage, vault = Role("stage"), Role("vault")
    return Policy(
        ua=[(eve, admin)],
        rh=[],
        pa=[
            (admin, Grant(eve, stage)),
            (admin, Grant(stage, vault)),
            (vault, perm("open", "vault")),
        ],
    )


class TestDepthKEscalation:
    @BOTH_KERNELS
    def test_two_step_chain_flagged(self, compiled):
        report = lint_policy(chained_grant_policy(), compiled=compiled)
        found = findings_of(report, "depth-k-escalation")
        assert len(found) == 1
        finding = found[0]
        assert finding.subject == User("eve")
        assert finding.witness == (
            Grant(User("eve"), Role("stage")),
            Grant(Role("stage"), Role("vault")),
            perm("open", "vault"),
        )
        assert "2 chained grants" in finding.message
        assert finding.repair == "revoke(admin, grant(eve, stage))"
        # The one-step rule stays silent: no single grant escalates.
        assert findings_of(report, "self-escalation") == []

    @BOTH_KERNELS
    def test_depth_bound_gates_detection(self, compiled):
        report = lint_policy(
            chained_grant_policy(), compiled=compiled, escalation_depth=1
        )
        assert findings_of(report, "depth-k-escalation") == []

    @BOTH_KERNELS
    def test_one_step_escalation_not_double_reported(self, compiled):
        # eve directly holds grant(eve, vault): self-escalation's
        # domain — depth-k must skip it even though BFS finds it first.
        eve, vault = User("eve"), Role("vault")
        policy = Policy(
            ua=[(eve, Role("admin"))],
            pa=[
                (Role("admin"), Grant(eve, vault)),
                (vault, perm("open", "vault")),
            ],
        )
        report = lint_policy(policy, compiled=compiled)
        assert findings_of(report, "depth-k-escalation") == []
        assert len(findings_of(report, "self-escalation")) == 1

    def test_kernels_agree(self):
        fast = lint_policy(chained_grant_policy())
        slow = lint_policy(chained_grant_policy(), compiled=False)
        assert fast.findings == slow.findings
        assert fast.stats == slow.stats

    @BOTH_KERNELS
    def test_fixtures_stay_silent(self, compiled):
        for factory in (figures.figure1, figures.figure2, figures.figure3):
            report = lint_policy(factory(), compiled=compiled)
            assert findings_of(report, "depth-k-escalation") == []

    @BOTH_KERNELS
    def test_probe_counter_prunes_unarmed_users(self, compiled):
        # Only eve holds a grant privilege, so only eve is probed.
        policy = chained_grant_policy()
        policy.add_edge(User("mallory"), Role("vault"))
        report = lint_policy(policy, compiled=compiled)
        assert report.stats["depth-k-escalation"]["users_probed"] == 1


def escalating_enterprise(seed):
    """A seeded enterprise with several planted depth-2 escalators —
    two of them sharing one stage role, so their explorations touch
    the same atoms — plus a one-step escalator the rule must skip."""
    shape = EnterpriseShape(
        departments=2, levels_per_department=3, roles_per_level=2,
        employees_per_department=6, delegation_depth=2,
    )
    policy = enterprise_policy(shape, seed)
    rng = random.Random(seed)
    users = rng.sample(sorted(policy.users(), key=str), 4)
    shared_stage, vault = Role("stage_shared"), Role("vault")
    policy.add_edge(vault, perm("open", "vault"))
    for index, user in enumerate(users[:3]):
        admin = Role(f"esc_admin{index}")
        stage = shared_stage if index < 2 else Role(f"stage{index}")
        policy.assign_user(user, admin)
        policy.add_edge(admin, Grant(user, stage))
        policy.add_edge(admin, Grant(stage, vault))
    one_step = Role("esc_admin_direct")
    policy.assign_user(users[3], one_step)
    policy.add_edge(one_step, Grant(users[3], vault))
    return policy


class TestSharedEscalationEngine:
    """The rule runs every probed user on one exploration engine; the
    result must equal a fresh engine per user and the frozenset
    kernel."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shared_engine_matches_fresh_and_oracle(self, seed, monkeypatch):
        rules = ["depth-k-escalation"]
        shared = lint_policy(escalating_enterprise(seed), rules=rules)
        oracle = lint_policy(
            escalating_enterprise(seed), rules=rules, compiled=False
        )
        # Dropping the shared engine makes every search build its own.
        monkeypatch.setattr(
            lint, "_min_grant_escalation",
            lambda policy, user, depth, compiled, edges, engine:
            _min_grant_escalation(policy, user, depth, compiled, edges),
        )
        fresh = lint_policy(escalating_enterprise(seed), rules=rules)
        assert len(shared.findings) == 3
        assert shared.findings == fresh.findings == oracle.findings
        assert shared.stats == fresh.stats == oracle.stats
        assert shared.stats["depth-k-escalation"]["users_probed"] > 4

    def test_shared_engine_rewinds_between_users(self):
        """A search leaves the engine at its witness state (eve's adds
        ``stage -> vault``); the next search — carol, a ``stage`` member
        — must still measure its gains from the root."""
        policy = chained_grant_policy()
        carol = User("carol")
        policy.assign_user(carol, Role("stage"))
        policy.assign_user(carol, Role("admin"))
        engine = ExplorationEngine(policy, Mode.STRICT, universe=())
        for user in (User("eve"), carol):
            shared = _min_grant_escalation(
                policy, user, 2, True, engine=engine
            )
            assert shared is not None
            assert shared == _min_grant_escalation(policy, user, 2, True)
            assert shared == _min_grant_escalation(policy, user, 2, False)

    def test_one_engine_per_invocation(self, monkeypatch):
        built = []

        class CountingEngine(ExplorationEngine):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(lint, "ExplorationEngine", CountingEngine)
        report = lint_policy(
            escalating_enterprise(0), rules=["depth-k-escalation"]
        )
        assert report.stats["depth-k-escalation"]["users_probed"] > 1
        assert len(built) == 1
