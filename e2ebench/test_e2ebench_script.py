"""The request scripts are pure functions of the seed, and the metric
names the runner prints are the ones ``BENCHMARK.json`` declares."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import scripts  # noqa: E402


def _pdp(seed, profile=scripts.WRITE_CHURN):
    policy = scripts.pdp_policy()
    return scripts.pdp_script(policy, profile, seed, seconds=2)


def test_pdp_script_is_a_function_of_the_seed():
    assert _pdp(5) == _pdp(5)
    assert _pdp(5) != _pdp(6)
    assert _pdp(5, scripts.READ_HOT) == _pdp(5, scripts.READ_HOT)
    assert _pdp(5, scripts.READ_HOT) != _pdp(6, scripts.READ_HOT)


def test_pdp_write_groups_toggle_distinct_delegated_edges():
    script = _pdp(5)
    assert len(script.writes) == 3
    for group in script.writes:
        pairs = [(user, role) for _, _, user, role in group]
        assert len(set(pairs)) == len(pairs) == 4


def test_dbms_script_is_a_function_of_the_seed():
    first = scripts.dbms_script(5, seconds=2)
    assert first == scripts.dbms_script(5, seconds=2)
    assert first != scripts.dbms_script(6, seconds=2)
    assert len(first) == 2 * scripts.DBMS_RATE


def test_audit_script_is_a_function_of_the_seed():
    assert scripts.audit_script(5) == scripts.audit_script(5)
    assert scripts.audit_script(5) != scripts.audit_script(6)
    first, _ = scripts.audit_policy(scripts.audit_script(5))
    again, _ = scripts.audit_policy(scripts.audit_script(5))
    assert first == again


def test_benchmark_json_declares_what_the_runner_prints():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} == set(run.TAIL)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]
    } == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]
    } == run.PER_LAYER
