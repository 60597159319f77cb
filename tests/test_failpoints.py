"""Tests for the failpoint plane (``repro.faults`` plan + plane + sites).

Covers the frozen :class:`FaultPlan` config surface (validation,
loading from dict/JSON/TOML), the process-global
:class:`FaultPlane` trigger semantics (hit ordinals, ``every`` strides,
seeded probability, exhaustion), the effect dispatch of ``fire()``
(delay / error / crash-through-``hard_exit``), ``max_triggers`` budgets
shared across processes through a claims directory, and the sites
compiled into the ledger writer, the spool and the daemon client.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.error
from pathlib import Path

import pytest

from repro.api.events import CampaignStarted, JsonlRecorder
from repro.distributed import Spool
from repro.faults import (
    FAULT_SITES,
    FaultError,
    FaultPlan,
    FaultRule,
    activate,
    deactivate,
    fire,
    load_fault_plan,
    trip,
)
from repro.faults import plane as plane_module


@pytest.fixture(autouse=True)
def clean_plane():
    """Every test starts and ends with no fault plane active."""
    deactivate()
    yield
    deactivate()


def rule(**overrides) -> FaultRule:
    settings = dict(site="worker.execute.crash", effect="error", hits=(1,))
    settings.update(overrides)
    return FaultRule(**settings)


class TestFaultRule:
    def test_unknown_site_is_rejected_eagerly(self):
        with pytest.raises(FaultError, match="unknown failpoint site"):
            rule(site="no.such.site")

    def test_exactly_one_trigger_is_required(self):
        with pytest.raises(FaultError, match="exactly one trigger"):
            FaultRule(site="worker.execute.crash", effect="error")
        with pytest.raises(FaultError, match="exactly one trigger"):
            rule(every=2)

    def test_trigger_validation(self):
        with pytest.raises(FaultError, match="hits entry"):
            rule(hits=(0,))
        with pytest.raises(FaultError, match="probability"):
            rule(hits=(), probability=1.5)
        with pytest.raises(FaultError, match="effect"):
            rule(effect="meltdown")
        with pytest.raises(FaultError, match="error"):
            rule(error="KeyboardInterrupt")
        with pytest.raises(FaultError, match="exit_code"):
            rule(effect="crash", exit_code=0)

    def test_round_trip_omits_defaults(self):
        # A rule table that leaves the defaults out loads to the rule that
        # spells them all.
        original = rule(hits=(2, 5), error="TimeoutError", max_triggers=1)
        data = {"site": "worker.execute.crash", "effect": "error", "hits": [2, 5],
                "error": "TimeoutError", "max_triggers": 1}
        assert FaultRule.from_dict(data) == original
        assert (original.seconds, original.exit_code) == (0.05, 137)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultError, match="understand"):
            FaultRule.from_dict({"site": "worker.execute.crash", "bogus": 1})


class TestFaultPlan:
    def test_round_trip_json_and_toml(self, tmp_path):
        data = {
            "rules": [
                {"site": "spool.claim.race-delay", "effect": "delay",
                 "every": 3, "seconds": 0.01},
                {"site": "ledger.write.torn-tail", "effect": "torn",
                 "hits": [2], "exit_code": 41},
            ],
            "seed": 7,
        }
        plan = FaultPlan(**data)
        assert FaultPlan.from_dict(data) == plan

        json_path = tmp_path / "plan.json"
        json_path.write_text(json.dumps(data), encoding="utf-8")
        assert load_fault_plan(json_path) == plan

        toml_path = tmp_path / "plan.toml"
        toml_path.write_text(
            'seed = 7\n'
            '[[rules]]\n'
            'site = "spool.claim.race-delay"\neffect = "delay"\n'
            'every = 3\nseconds = 0.01\n'
            '[[rules]]\n'
            'site = "ledger.write.torn-tail"\neffect = "torn"\n'
            'hits = [2]\nexit_code = 41\n',
            encoding="utf-8",
        )
        assert load_fault_plan(toml_path) == plan

    def test_load_names_a_missing_or_corrupt_file(self, tmp_path):
        with pytest.raises(FaultError, match="absent.json does not exist"):
            load_fault_plan(tmp_path / "absent.json")
        for name, text, syntax in (
            ("bad.json", "{not json", "JSON"),
            ("bad.toml", "seed = = 7", "TOML"),
        ):
            bad = tmp_path / name
            bad.write_text(text, encoding="utf-8")
            with pytest.raises(FaultError, match=f"{name} is not valid {syntax}"):
                load_fault_plan(bad)

    @pytest.mark.parametrize("rules", [{}, "", 0, None])
    def test_present_but_falsy_rules_are_rejected(self, rules):
        # Only a *missing* rules key means "no rules": an empty table in
        # a fault file must not become a plan that injects nothing.
        with pytest.raises(FaultError, match="list of rule tables"):
            FaultPlan.from_dict({"rules": rules})

    def test_every_site_is_documented(self):
        for site, description in FAULT_SITES.items():
            assert description, f"site {site} lacks a description"

    @pytest.mark.parametrize("site", [["worker.execute.crash"], {"a": 1}, 5, None])
    def test_a_site_that_is_no_string_is_a_fault_error(self, site):
        # An unhashable site once reached `site not in FAULT_SITES` and
        # died with a TypeError.
        with pytest.raises(FaultError, match="site must be a string"):
            FaultPlan.from_dict({"rules": [{"site": site, "hits": [1]}]})

    def test_a_bool_seed_names_the_plan(self):
        with pytest.raises(FaultError, match="^fault plan seed must be an integer"):
            FaultPlan(seed=True)

    def test_a_rule_needs_a_site(self):
        with pytest.raises(FaultError, match=r"rules\[0\] needs the field\(s\) 'site'"):
            FaultPlan.from_dict({"rules": [{"hits": [1]}]})

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), True])
    def test_delay_seconds_must_be_a_finite_number(self, seconds):
        # time.sleep refuses NaN and infinity: a rule must not load with them.
        with pytest.raises(FaultError, match="seconds"):
            rule(effect="delay", seconds=seconds)


class TestFaultPlane:
    def test_hits_trigger_on_exact_ordinals(self):
        activate(FaultPlan(rules=[rule(hits=(2, 4))]))
        fired = []
        for _ in range(5):
            fired.append(trip("worker.execute.crash") is not None)
        assert fired == [False, True, False, True, False]

    def test_every_stride_and_exhaustion(self):
        activate(FaultPlan(
            rules=[rule(hits=(), every=2, max_triggers=2)]
        ))
        fired = [
            trip("worker.execute.crash") is not None for _ in range(8)
        ]
        # Fires on hits 2 and 4, then the budget is spent.
        assert fired == [False, True, False, True, False, False, False, False]

    def test_probability_is_seeded_and_replayable(self):
        def pattern():
            deactivate()
            activate(FaultPlan(
                rules=[rule(hits=(), probability=0.5)], seed=17
            ))
            return [
                trip("worker.execute.crash") is not None for _ in range(32)
            ]

        first, second = pattern(), pattern()
        assert first == second
        assert any(first) and not all(first)

    def test_unknown_site_raises_under_an_active_plane(self):
        activate(FaultPlan())
        with pytest.raises(FaultError, match="unknown failpoint site"):
            fire("definitely.not.a.site")

    def test_fire_is_a_silent_noop_without_a_plane(self):
        # No plane, no site validation: the fast path must stay a dict
        # lookup and a None check.
        fire("worker.execute.crash")

    def test_error_effect_raises_the_named_error(self):
        activate(FaultPlan(rules=[
            rule(hits=(1,), error="TimeoutError"),
            rule(site="daemon.client.conn-drop", hits=(1,), error="URLError"),
        ]))
        with pytest.raises(TimeoutError):
            fire("worker.execute.crash")
        with pytest.raises(urllib.error.URLError):
            fire("daemon.client.conn-drop")

    def test_delay_effect_sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr(plane_module.time, "sleep", slept.append)
        activate(FaultPlan(rules=[
            rule(effect="delay", hits=(1,), seconds=0.25)
        ]))
        fire("worker.execute.crash")
        assert slept == [0.25]

    def test_crash_effect_routes_through_hard_exit(self, monkeypatch):
        codes = []
        monkeypatch.setattr(plane_module, "hard_exit", codes.append)
        activate(FaultPlan(rules=[
            rule(effect="crash", hits=(1,), exit_code=41)
        ]))
        fire("worker.execute.crash")
        assert codes == [41]

    def test_plane_counts_hits_and_firings(self):
        activate(FaultPlan(rules=[rule(hits=(2,))]))
        for _ in range(3):
            trip("worker.execute.crash")
        plane = plane_module.active_plane()
        assert plane._hits == {"worker.execute.crash": 3}
        assert plane._fired == {0: 1}

    def test_claims_directory_spends_a_budget_once_across_processes(self, tmp_path):
        # A respawned worker activates the same plan over the same spool:
        # a max_triggers = 1 rule must fire once in total, not once each.
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"rules": [{
            "site": "worker.execute.crash", "effect": "error", "hits": [1],
            "max_triggers": 1,
        }]}), encoding="utf-8")
        script = (
            "import sys\n"
            "from repro.faults import activate, load_fault_plan, trip\n"
            "activate(load_fault_plan(sys.argv[1]), sys.argv[2])\n"
            "print(trip('worker.execute.crash') is not None)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        claims = tmp_path / "fault-claims"
        fired = [
            subprocess.run(
                [sys.executable, "-c", script, str(plan_path), str(claims)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert sorted(fired) == ["False", "True"]
        assert [path.name for path in claims.iterdir()] == ["rule-0.0"]

    def test_unbudgeted_rules_claim_nothing(self, tmp_path):
        claims = tmp_path / "fault-claims"
        activate(FaultPlan(rules=[rule(hits=(1, 2))]), claims)
        assert trip("worker.execute.crash") is not None
        assert trip("worker.execute.crash") is not None
        assert list(claims.iterdir()) == []


class TestWiredSites:
    def test_torn_tail_truncates_the_ledger_and_dies(self, tmp_path, monkeypatch):
        import repro.api.events as events_module

        class Died(BaseException):
            def __init__(self, code):
                self.code = code

        def fake_exit(code):
            raise Died(code)

        # hard_exit never returns in production; raising here models the
        # process vanishing mid-write without killing the test runner.
        monkeypatch.setattr(events_module, "hard_exit", fake_exit)
        activate(FaultPlan(rules=[FaultRule(
            site="ledger.write.torn-tail", effect="torn", hits=(2,),
            exit_code=43,
        )]))
        ledger = tmp_path / "ledger.jsonl"
        recorder = JsonlRecorder(ledger, fsync=False)
        event = CampaignStarted(campaign="q1", index=0, backend="t", n_steps=1)
        recorder(event)          # hit 1: clean line
        with pytest.raises(Died) as death:
            recorder(event)      # hit 2: half a line, then death
        assert death.value.code == 43
        recorder.close()
        lines = ledger.read_text(encoding="utf-8").splitlines()
        full_line = json.dumps(event.to_dict(), sort_keys=True)
        assert lines[0] == full_line
        # The torn tail is a strict prefix of a real line — exactly what
        # a crash mid-write leaves behind.
        assert lines[-1] != full_line and full_line.startswith(lines[-1])

    def test_spool_heartbeat_stall_is_injectable(self, tmp_path):
        from tests.test_distributed import make_cells

        spool = Spool.create(tmp_path / "spool")
        (cell,) = make_cells(1)
        spool.seed([cell])
        assert spool.claim(cell.id, "w1")
        activate(FaultPlan(rules=[FaultRule(
            site="spool.heartbeat.stall", effect="error", hits=(1,),
        )]))
        with pytest.raises(OSError):
            spool.heartbeat(cell.id, "w1")
        spool.heartbeat(cell.id, "w1")     # the stall was transient

    def test_daemon_client_conn_drop_is_retried(self, monkeypatch):
        import http.client

        from repro.daemon.client import DaemonClient

        class FakeResponse:
            status, reason = 200, "OK"

            def read(self, amount=None):
                return b'{"pong": true}'

            def isclosed(self):
                return True

        calls = []

        class FakeConnection:
            sock = None

            def __init__(self, host, port, timeout=None):
                pass

            def request(self, method, path, body=None, headers=None):
                calls.append(path)

            def getresponse(self):
                return FakeResponse()

            def close(self):
                pass

        monkeypatch.setattr(http.client, "HTTPConnection", FakeConnection)
        activate(FaultPlan(rules=[FaultRule(
            site="daemon.client.conn-drop", effect="error", hits=(1,),
            error="URLError",
        )]))
        client = DaemonClient("http://127.0.0.1:9")
        monkeypatch.setattr(
            "repro.utils.retry.time.sleep", lambda _: None
        )
        assert client._request("GET", "/ping") == {"pong": True}
        # The injected drop consumed attempt 1; the retry reached the
        # (faked) socket exactly once.
        assert calls == ["/ping"]
