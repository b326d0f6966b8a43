import json
import os
import socket
import sys
import threading
import time

import pytest

from swarmforage.core import Arena, DEFAULT_PARAMS
from swarmforage.engine import TrialConfig, run_trial
from swarmforage.gateway import (
    Cassette,
    CassetteMissError,
    GatewayConfig,
    GatewayResult,
    LlmClient,
    MockLlmServer,
    build_prompt,
    mock_content_for,
    parse_response,
    request_key,
)
from swarmforage.layouts import Distribution, LayoutSpec
from swarmforage.policy import (
    DecisionEvent,
    DecisionResponse,
    EventType,
    build_whitelist,
)


def sample_event(event_type=EventType.POST_DEPOSIT_DECISION, **overrides):
    fields = dict(
        robot_id="r0",
        event_type=event_type,
        current_state="RETURNING_WITH_RESOURCE",
        sim_time_sec=52.6,
        position=(0.39, 0.17),
        resource_density=2,
        time_since_last_pickup=12.0,
        last_pickup_location=(0.8, -1.2),
        active_pheromone_count=0,
        pheromone_summary=(),
        allowed_actions=tuple(build_whitelist(event_type)),
    )
    fields.update(overrides)
    return DecisionEvent(**fields)


def llm_trial_config(gateway, duration=60.0, seed=3, team=4, count=64):
    arena = Arena.square(6.0)
    layout = LayoutSpec(Distribution.CLUSTERED, count, arena, seed=seed)
    return TrialConfig(arena=arena, team_size=team, layout=layout, params=DEFAULT_PARAMS,
                       policy="llm", duration=duration, seed=seed, gateway=gateway)


class TestBuildPrompt:
    def test_contains_event_type(self):
        request = build_prompt(sample_event())
        user = request["messages"][-1]["content"]
        assert '"event_type": "POST_DEPOSIT_DECISION"' in user

    def test_omits_absent_pickup(self):
        event = sample_event(last_pickup_location=None)
        user = build_prompt(event)["messages"][-1]["content"]
        assert "last_pickup_location" not in user
        assert "null" not in user

    def test_byte_identical_for_same_event(self):
        a = json.dumps(build_prompt(sample_event()), sort_keys=True)
        b = json.dumps(build_prompt(sample_event()), sort_keys=True)
        assert a == b
        assert request_key(build_prompt(sample_event())) == request_key(build_prompt(sample_event()))


class TestParseResponse:
    def test_plain_object(self):
        body = '{"action": "USE_SITE_FIDELITY", "rationale": "density high"}'
        out = parse_response(body)
        assert out == DecisionResponse("USE_SITE_FIDELITY", "density high")

    def test_extraction_corpus(self):
        good = [
            '{"action": "A", "rationale": "r"}',
            ' \n {"action": "A", "rationale": "r"} \n',
            '```json\n{"action": "A", "rationale": "r"}\n```',
            '```\n{"action": "A", "rationale": "r"}\n```',
            'Sure, here is my answer:\n{"action": "A", "rationale": "r"}',
            '{"action": "A", "rationale": "r"} trailing words',
            'prefix {"action": "A", "rationale": "r"} suffix',
            '{"rationale": "r", "action": "A"}',
            '{"action": "A", "rationale": "line1\\nline2"}',
            '{"action": "A", "rationale": "with {braces} inside"}',
            '{"notes": 1} {"action": "A", "rationale": "r"}',
            '{"meta": {"action": "A", "rationale": "r"}}',
            '{"action": "A", "rationale": "r", "extra": 42}',
            '{bad json} {"action": "A", "rationale": "r"}',
            '[{"action": "A", "rationale": "r"}]',
        ]
        for body in good:
            out = parse_response(body)
            assert isinstance(out, DecisionResponse), body
            assert out.action == "A"

        bad = [
            "",
            None,
            "I think you should explore",
            '{"action": "A"}',
            '{"rationale": "r"}',
            '{"act": "A", "why": "r"}',
            "{'action': 'A', 'rationale': 'r'}",  # not JSON
        ]
        for body in bad:
            assert parse_response(body) is None, body

    def test_first_complete_object_wins(self):
        body = ('{"action": "FIRST", "rationale": "one"} '
                '{"action": "SECOND", "rationale": "two"}')
        assert parse_response(body).action == "FIRST"


class TestMockBehaviors:
    def test_scripted_mock_mirrors_heuristic(self):
        request = build_prompt(sample_event())
        content = mock_content_for("scripted", request)
        doc = json.loads(content)
        assert doc["action"] == "USE_SITE_FIDELITY"

    def test_always_invalid(self):
        content = mock_content_for("always_invalid", build_prompt(sample_event()))
        assert json.loads(content)["action"] == "GO_HOME"

    def test_fixed(self):
        content = mock_content_for("fixed:UNINFORMED_SEARCH", build_prompt(sample_event()))
        assert json.loads(content)["action"] == "UNINFORMED_SEARCH"

    def test_unknown_behavior(self):
        with pytest.raises(ValueError):
            mock_content_for("nonsense", build_prompt(sample_event()))

    def test_mock_client_no_network(self, no_external_network):
        config = GatewayConfig(mode="mock", mock_behavior="scripted",
                               base_url="http://example.com/v1")  # never contacted
        client = LlmClient(config)
        result = client.call(build_prompt(sample_event()))
        assert result.error is None
        assert result.latency == 0.0

    def test_mock_injected_latency(self):
        config = GatewayConfig(mode="mock", injected_latency=2.5)
        client = LlmClient(config)
        assert client.call(build_prompt(sample_event())).latency == 2.5

    def test_mock_timeout_behavior(self):
        config = GatewayConfig(mode="mock", mock_behavior="always_timeout", timeout=30.0)
        result = LlmClient(config).call(build_prompt(sample_event()))
        assert result.error == "timeout"
        assert result.body is None
        assert result.latency == 30.0


class TestGatewayConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(timeout=0)
        with pytest.raises(ValueError):
            GatewayConfig(max_output_tokens=0)
        with pytest.raises(ValueError):
            GatewayConfig(mode="dream")
        with pytest.raises(ValueError):
            GatewayConfig(reasoning_effort="max")
        with pytest.raises(ValueError):
            GatewayConfig(mode="replay")  # needs cassette_path

    def test_unknown_mock_behavior_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown mock behavior 'bogus'"):
            GatewayConfig(mock_behavior="bogus")
        assert GatewayConfig(mock_behavior="fixed:UNINFORMED_SEARCH").mode == "mock"


class TestMockServer:
    def test_scripted_over_http(self):
        with MockLlmServer("scripted", port=0).start() as server:
            config = GatewayConfig(mode="live", base_url=server.base_url, timeout=5.0)
            client = LlmClient(config)
            result = client.call(build_prompt(sample_event()))
            assert result.error is None
            assert json.loads(result.body)["action"] == "USE_SITE_FIDELITY"

    def test_always_invalid_over_http(self):
        with MockLlmServer("always_invalid", port=0).start() as server:
            config = GatewayConfig(mode="live", base_url=server.base_url, timeout=5.0)
            result = LlmClient(config).call(build_prompt(sample_event()))
            assert json.loads(result.body)["action"] == "GO_HOME"

    def test_timeout_wall_clock(self):
        server = MockLlmServer(behavior="always_timeout", port=0, hang_seconds=3.0).start()
        try:
            config = GatewayConfig(mode="live", base_url=server.base_url, timeout=0.4)
            client = LlmClient(config)
            start = time.monotonic()
            result = client.call(build_prompt(sample_event()))
            elapsed = time.monotonic() - start
            assert result.error == "timeout"
            assert 0.35 <= elapsed < 2.0
            assert result.latency <= config.timeout + 1.0
        finally:
            server.stop()

    def test_reply_after_client_timeout_closes_cleanly(self, monkeypatch):
        # the handler's late reply meets a closed socket; it must not raise
        server = MockLlmServer(behavior="always_timeout", port=0, hang_seconds=0.3).start()
        httpd = server._httpd
        errors, finished = [], threading.Event()
        close_request = httpd.shutdown_request

        def shutdown_request(request):
            close_request(request)
            finished.set()

        monkeypatch.setattr(httpd, "handle_error",
                            lambda request, address: errors.append(sys.exc_info()[1]))
        monkeypatch.setattr(httpd, "shutdown_request", shutdown_request)
        try:
            config = GatewayConfig(mode="live", base_url=server.base_url, timeout=0.05)
            assert LlmClient(config).call(build_prompt(sample_event())).error == "timeout"
            assert finished.wait(5.0), "handler never finished"
        finally:
            server.stop()
        assert errors == []

    def test_connection_refused_is_failure_token(self):
        config = GatewayConfig(mode="live", base_url="http://127.0.0.1:1/v1", timeout=1.0)
        result = LlmClient(config).call(build_prompt(sample_event()))
        assert result.error in ("connection_error", "timeout")

    def test_port_in_use_raises(self):
        server = MockLlmServer("scripted", port=0).start()
        try:
            with pytest.raises(OSError):
                MockLlmServer("scripted", port=server.port).start()
        finally:
            server.stop()


class TestCassette:
    def test_record_then_replay_trial_is_byte_identical(self, tmp_path):
        cassette = str(tmp_path / "cassette.jsonl")
        server = MockLlmServer("scripted", port=0).start()
        try:
            record_cfg = GatewayConfig(mode="record", base_url=server.base_url,
                                       timeout=5.0, cassette_path=cassette)
            recorded = run_trial(llm_trial_config(record_cfg, duration=120.0))
        finally:
            server.stop()
        assert recorded.llm_calls > 0
        assert os.path.getsize(cassette) > 0

        replay_cfg = GatewayConfig(mode="replay", cassette_path=cassette)
        replayed = run_trial(llm_trial_config(replay_cfg, duration=120.0))
        assert replayed.deposits == recorded.deposits
        assert replayed.llm_calls == recorded.llm_calls
        assert replayed.latency_samples == recorded.latency_samples
        assert replayed.log_bytes() == recorded.log_bytes()

    def test_replay_requires_cassette(self, tmp_path):
        missing = str(tmp_path / "missing.jsonl")
        with pytest.raises(CassetteMissError):
            LlmClient(GatewayConfig(mode="replay", cassette_path=missing))

    def test_replay_miss_is_hard_error(self, tmp_path):
        path = str(tmp_path / "cassette.jsonl")
        cassette = Cassette(path)
        from swarmforage.gateway import CallRecord

        request = build_prompt(sample_event())
        cassette.append(CallRecord("r0", "POST_DEPOSIT_DECISION", request,
                                   '{"action": "X", "rationale": "y"}', None, 0.1, "ok"))
        client = LlmClient(GatewayConfig(mode="replay", cassette_path=path))
        # the recorded request replays once, then the well runs dry
        assert client.call(request).body
        with pytest.raises(CassetteMissError):
            client.call(request)
        other = build_prompt(sample_event(robot_id="r9"))
        with pytest.raises(CassetteMissError):
            client.call(other)

    def test_duplicate_requests_replay_in_order(self, tmp_path):
        path = str(tmp_path / "cassette.jsonl")
        cassette = Cassette(path)
        from swarmforage.gateway import CallRecord

        request = build_prompt(sample_event())
        for i in range(2):
            cassette.append(CallRecord("r0", "POST_DEPOSIT_DECISION", request,
                                       json.dumps({"action": f"A{i}", "rationale": "r"}),
                                       None, float(i), "ok"))
        client = LlmClient(GatewayConfig(mode="replay", cassette_path=path))
        assert json.loads(client.call(request).body)["action"] == "A0"
        assert json.loads(client.call(request).body)["action"] == "A1"


class TestMetricsConservation:
    def test_outcomes_partition_calls(self):
        config = GatewayConfig(mode="mock", mock_behavior="scripted")
        result = run_trial(llm_trial_config(config, duration=120.0))
        assert result.llm_calls > 0
        assert sum(result.outcome_counts.values()) == result.llm_calls
        non_ok = sum(v for k, v in result.outcome_counts.items() if k != "ok")
        assert result.llm_fallbacks == non_ok

    def test_always_invalid_all_fallback(self):
        config = GatewayConfig(mode="mock", mock_behavior="always_invalid")
        result = run_trial(llm_trial_config(config, duration=120.0))
        assert result.llm_calls > 0
        assert result.llm_fallbacks == result.llm_calls
        assert set(result.outcome_counts) == {"out_of_whitelist"}


class TestFallbackReasons:
    def test_closed_port_falls_back_as_connection_error(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))  # bound but not listening: connections are refused
            base_url = f"http://127.0.0.1:{sock.getsockname()[1]}/v1"
            config = GatewayConfig(mode="live", base_url=base_url, timeout=1.0)
            result = run_trial(llm_trial_config(config, duration=120.0))
        assert result.llm_calls > 0
        assert set(result.outcome_counts) == {"connection_error"}

    def test_http_error_names_its_status(self, monkeypatch):
        monkeypatch.setattr(LlmClient, "call",
                            lambda self, request: GatewayResult(body=None, latency=0.1,
                                                                error="http_503"))
        decision = LlmClient(GatewayConfig(mode="live")).decide(sample_event())
        assert (decision.action, decision.source) == (None, "fallback")
        assert decision.fallback_reason == "http_503"
