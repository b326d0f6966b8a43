"""Network client for the tactical-decision protocol.

Talks to any OpenAI-compatible chat endpoint, with three offline modes:
an in-process mock (no sockets at all), record (live calls appended to a
cassette), and replay (cassette lookups, byte-faithful).  A small local
HTTP server reproducing the endpoint shape is included for integration
tests; it answers from a mock behaviour, and ``replay`` is the one way to
answer from a cassette.  ``LlmClient`` is the decision policy that speaks
this protocol and defers to the cascade on any failure.
"""
from __future__ import annotations

import json
import hashlib
import os
import threading
import time
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

import requests

from .core import FatalPolicyError
from .policy import (
    DecisionEvent,
    DecisionPolicy,
    DecisionResponse,
    EventType,
    PolicyDecision,
    TacticalAction,
    scripted_decide,
)

PROMPT_VERSION = "1"
SYSTEM_INSTRUCTION = (
    "You are the tactical decision layer for one foraging robot in a swarm. "
    "The user message is a JSON description of the robot's local state. "
    'Reply with exactly one JSON object with two fields: "action", which must be '
    'one of the strings in allowed_actions, and "rationale", a brief justification. '
    "Output nothing else."
)

MODES = ("live", "mock", "replay", "record")
REASONING_EFFORTS = ("low", "medium", "high")
MOCK_BEHAVIORS = ("scripted", "always_invalid", "always_timeout")


def mock_behavior(name: str) -> str:
    """``name`` if the mock answers it (MOCK_BEHAVIORS or ``fixed:<ACTION>``)."""
    if name in MOCK_BEHAVIORS or name.startswith("fixed:"):
        return name
    raise ValueError(f"unknown mock behavior {name!r}; expected {MOCK_BEHAVIORS} or fixed:<ACTION>")


class CassetteMissError(FatalPolicyError):
    """Replay asked for a request the cassette never recorded."""


@dataclass(frozen=True)
class GatewayConfig:
    base_url: str = "http://127.0.0.1:8080/v1"
    model_name: str = "mock-model"
    api_key_env: str = "OPENAI_API_KEY"
    reasoning_effort: str = "low"
    max_output_tokens: int = 1024
    timeout: float = 30.0
    mode: str = "mock"
    injected_latency: Optional[float] = None
    mock_behavior: str = "scripted"  # also accepts "fixed:<ACTION>"
    cassette_path: Optional[str] = None

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.reasoning_effort not in REASONING_EFFORTS:
            raise ValueError(f"reasoning_effort must be one of {REASONING_EFFORTS}")
        if self.mode in ("replay", "record") and not self.cassette_path:
            raise ValueError(f"mode {self.mode!r} requires cassette_path")
        mock_behavior(self.mock_behavior)


@dataclass
class CallRecord:
    robot_id: str
    event_type: str
    request: dict
    response: Optional[str]
    error: Optional[str]
    latency: float
    outcome: str  # ok | parse_error | out_of_whitelist | the GatewayResult error
    prompt_version: str = PROMPT_VERSION


@dataclass
class GatewayResult:
    """Raw transport outcome of one call, before parsing/validation."""

    body: Optional[str]
    latency: float
    error: Optional[str] = None  # "timeout" | "connection_error" | "http_<code>"


def build_prompt(event: DecisionEvent) -> dict:
    """Request document for one decision: instruction plus serialized event.

    Field order is fixed by the event schema so identical events produce
    byte-identical requests, which replay matching relies on.
    """
    return {
        "messages": [
            {"role": "system", "content": SYSTEM_INSTRUCTION},
            {"role": "user", "content": json.dumps(event.payload())},
        ]
    }


def request_key(request: dict) -> str:
    return hashlib.sha256(json.dumps(request, sort_keys=True).encode("utf-8")).hexdigest()


def parse_response(body: Optional[str]) -> Optional[DecisionResponse]:
    """Extract the first JSON object carrying both ``action`` and
    ``rationale``, tolerating surrounding prose and markdown fences;
    None when there is none."""
    if not body:
        return None
    decoder = json.JSONDecoder()
    idx = body.find("{")
    while idx != -1:
        try:
            obj, _ = decoder.raw_decode(body, idx)
        except ValueError:
            idx = body.find("{", idx + 1)
            continue
        if isinstance(obj, dict) and "action" in obj and "rationale" in obj:
            return DecisionResponse(action=str(obj["action"]), rationale=str(obj["rationale"]))
        idx = body.find("{", idx + 1)
    return None


def event_from_payload(doc: dict) -> DecisionEvent:
    """Rebuild a DecisionEvent from a serialized prompt payload."""
    position = doc.get("position", {})
    pickup = doc.get("last_pickup_location")
    return DecisionEvent(
        robot_id=doc.get("robot_id", ""),
        event_type=EventType(doc["event_type"]),
        current_state=doc.get("current_state", ""),
        sim_time_sec=float(doc.get("sim_time_sec", 0.0)),
        position=(float(position.get("x", 0.0)), float(position.get("y", 0.0))),
        resource_density=int(doc.get("resource_density", 0)),
        time_since_last_pickup=float(doc.get("time_since_last_pickup", 0.0)),
        last_pickup_location=(float(pickup["x"]), float(pickup["y"])) if pickup else None,
        active_pheromone_count=int(doc.get("active_pheromone_count", 0)),
        pheromone_summary=None,
        allowed_actions=tuple(doc.get("allowed_actions", [])),
    )


def mock_content_for(behavior: str, request: dict) -> str:
    """Deterministic response content for a mock behavior and request."""
    if behavior == "always_invalid":
        return json.dumps({"action": "GO_HOME", "rationale": "not a tactical action"})
    if behavior.startswith("fixed:"):
        return json.dumps({"action": behavior.split(":", 1)[1], "rationale": "fixed action"})
    if behavior == "scripted":
        user = request["messages"][-1]["content"]
        event = event_from_payload(json.loads(user))
        response = scripted_decide(event)
        return json.dumps({"action": response.action, "rationale": response.rationale})
    raise ValueError(f"unknown mock behavior {behavior!r}")


class Cassette:
    """Append-only JSONL store of CallRecords, matched by request key.

    Repeated identical requests are consumed in recording order.
    """

    def __init__(self, path: str):
        self.path = path
        self._by_key: dict[str, list[dict]] = {}
        self._cursor: dict[str, int] = {}
        self._lock = threading.Lock()
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    key = request_key(record["request"])
                    self._by_key.setdefault(key, []).append(record)

    def append(self, record: CallRecord) -> None:
        doc = asdict(record)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
            self._by_key.setdefault(request_key(record.request), []).append(doc)

    def lookup(self, request: dict) -> dict:
        key = request_key(request)
        with self._lock:
            entries = self._by_key.get(key, [])
            idx = self._cursor.get(key, 0)
            if idx >= len(entries):
                raise CassetteMissError(
                    f"no cassette entry for request key {key[:12]}... (seen {idx} times)"
                )
            self._cursor[key] = idx + 1
            return entries[idx]

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_key.values())


class LlmClient(DecisionPolicy):
    """The llm policy: one connection to the decision endpoint, shared by
    a trial's robots.  A failed call, an unparseable reply or an action
    outside the whitelist defers to the cascade, with the reason."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        self.cassette: Optional[Cassette] = None
        if config.mode in ("replay", "record"):
            self.cassette = Cassette(config.cassette_path)
            if config.mode == "replay" and len(self.cassette) == 0:
                raise CassetteMissError(f"replay cassette {config.cassette_path} is empty or missing")
        self._session: Optional[requests.Session] = None

    def call(self, request: dict) -> GatewayResult:
        cfg = self.config
        if cfg.mode == "mock":
            latency = cfg.injected_latency or 0.0
            if cfg.mock_behavior == "always_timeout":
                return GatewayResult(body=None, latency=cfg.timeout, error="timeout")
            return GatewayResult(body=mock_content_for(cfg.mock_behavior, request), latency=latency)
        if cfg.mode == "replay":
            entry = self.cassette.lookup(request)
            return GatewayResult(body=entry["response"], latency=entry["latency"], error=entry["error"])
        return self._http_call(request)

    def decide(self, event: DecisionEvent) -> PolicyDecision:
        request = build_prompt(event)
        result = self.call(request)
        reason = result.error
        if reason is None:
            response = parse_response(result.body)
            if response is None:
                reason = "parse_error"
            elif response.action not in event.allowed_actions:
                reason = "out_of_whitelist"
        if self.config.mode == "record":
            self.cassette.append(CallRecord(
                robot_id=event.robot_id,
                event_type=event.event_type.value,
                request=request,
                response=result.body,
                error=result.error,
                latency=result.latency,
                outcome=reason or "ok",
            ))
        if reason is None:
            answer = dict(action=TacticalAction(response.action), source="llm",
                          rationale=response.rationale)
        else:
            answer = dict(action=None, source="fallback", fallback_reason=reason)
        return PolicyDecision(**answer, latency=result.latency,
                              request_body=request, response_body=result.body)

    def _http_call(self, request: dict) -> GatewayResult:
        cfg = self.config
        if self._session is None:
            self._session = requests.Session()
        url = cfg.base_url.rstrip("/") + "/chat/completions"
        body = {
            "model": cfg.model_name,
            "reasoning_effort": cfg.reasoning_effort,
            "max_output_tokens": cfg.max_output_tokens,
            **request,
        }
        headers = {}
        api_key = os.environ.get(cfg.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        start = time.monotonic()
        try:
            resp = self._session.post(url, json=body, headers=headers, timeout=cfg.timeout)
        except requests.Timeout:
            return GatewayResult(body=None, latency=time.monotonic() - start, error="timeout")
        except requests.RequestException:
            return GatewayResult(body=None, latency=time.monotonic() - start, error="connection_error")
        latency = time.monotonic() - start
        if resp.status_code >= 400:
            return GatewayResult(body=None, latency=latency, error=f"http_{resp.status_code}")
        try:
            content = resp.json()["choices"][0]["message"]["content"]
        except Exception:
            content = resp.text
        return GatewayResult(body=content, latency=latency)


class MockLlmServer:
    """Local OpenAI-shaped endpoint for integration tests and demos."""

    def __init__(self, behavior: str = "scripted", port: int = 0, hang_seconds: float = 3600.0):
        mock_behavior(behavior)
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # quiet
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length)) if length else {}
                request = {"messages": body.get("messages", [])}
                if server.behavior == "always_timeout":
                    time.sleep(server.hang_seconds)
                    content = json.dumps({"action": "", "rationale": "too late"})
                else:
                    content = mock_content_for(server.behavior, request)
                payload = json.dumps({"choices": [{"message": {"content": content}}]})
                try:
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload.encode("utf-8"))
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client timed out and closed the connection

        self.behavior = behavior
        self.hang_seconds = hang_seconds
        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1"

    def start(self) -> "MockLlmServer":
        if self._thread is None:
            self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "MockLlmServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
