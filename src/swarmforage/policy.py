"""Tactical decisions at the three controller decision points.

A robot that deposits a resource, arrives at the centre empty-handed, or
searches too long without success builds a DecisionEvent from its own
local state plus the shared pheromone manager and asks its policy for an
action.  Policies are interchangeable: the CPFA's own cascade, a
deterministic scripted heuristic, or a fixed-action stand-in.  The
LLM-backed policy is the gateway's client.  A policy that does not
answer, or fails, defers to the cascade (``cpfa.fallback_decide``),
which the controller runs on the robot's policy stream.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class TacticalAction(str, enum.Enum):
    USE_SITE_FIDELITY = "USE_SITE_FIDELITY"
    FOLLOW_PHEROMONE = "FOLLOW_PHEROMONE"
    UNINFORMED_SEARCH = "UNINFORMED_SEARCH"
    CONTINUE_SEARCH = "CONTINUE_SEARCH"
    RETURN_FOR_INFO = "RETURN_FOR_INFO"


class EventType(str, enum.Enum):
    POST_DEPOSIT_DECISION = "POST_DEPOSIT_DECISION"
    CENTRAL_ZONE_ARRIVAL = "CENTRAL_ZONE_ARRIVAL"
    SEARCH_STARVATION = "SEARCH_STARVATION"


CENTER_ACTIONS = (
    TacticalAction.USE_SITE_FIDELITY,
    TacticalAction.FOLLOW_PHEROMONE,
    TacticalAction.UNINFORMED_SEARCH,
)
STARVATION_ACTIONS = (
    TacticalAction.CONTINUE_SEARCH,
    TacticalAction.RETURN_FOR_INFO,
)

# Time-since-pickup beyond which the scripted heuristic treats a search
# bout as hopeless and returns for information.
SCRIPTED_STARVATION_CUTOFF_S = 180.0


def build_whitelist(event_type: EventType) -> list[str]:
    """Static, world-state-independent whitelist for an event type."""
    if event_type is EventType.SEARCH_STARVATION:
        return [a.value for a in STARVATION_ACTIONS]
    return [a.value for a in CENTER_ACTIONS]


@dataclass(frozen=True)
class DecisionEvent:
    """Prompt payload for one decision, built from one robot's view."""

    robot_id: str
    event_type: EventType
    current_state: str
    sim_time_sec: float
    position: tuple[float, float]
    resource_density: int
    time_since_last_pickup: float
    last_pickup_location: Optional[tuple[float, float]]
    active_pheromone_count: int
    pheromone_summary: Optional[tuple] = None  # ((x, y), strength) pairs, at-centre only
    allowed_actions: tuple[str, ...] = ()

    def payload(self) -> dict:
        """JSON-shaped dict with stable field order; absent fields omitted."""
        doc: dict = {
            "robot_id": self.robot_id,
            "event_type": self.event_type.value,
            "current_state": self.current_state,
            "sim_time_sec": round(self.sim_time_sec, 1),
            "position": {"x": round(self.position[0], 2), "y": round(self.position[1], 2)},
            "resource_density": self.resource_density,
            "time_since_last_pickup": round(self.time_since_last_pickup, 1),
        }
        if self.last_pickup_location is not None:
            doc["last_pickup_location"] = {
                "x": round(self.last_pickup_location[0], 2),
                "y": round(self.last_pickup_location[1], 2),
            }
        doc["active_pheromone_count"] = self.active_pheromone_count
        if self.pheromone_summary is not None:
            doc["pheromone_summary"] = [
                {"x": round(loc[0], 2), "y": round(loc[1], 2), "strength": round(s, 3)}
                for loc, s in self.pheromone_summary
            ]
        doc["allowed_actions"] = list(self.allowed_actions)
        return doc


@dataclass(frozen=True)
class DecisionResponse:
    action: str
    rationale: str


def scripted_decide(event: DecisionEvent) -> DecisionResponse:
    """Deterministic heuristic mirroring the behaviour a good tactical
    decision-maker exhibits: exploit remembered density, then trails,
    then fall back to random search."""
    if event.event_type is EventType.SEARCH_STARVATION:
        if event.active_pheromone_count > 0 or event.time_since_last_pickup > SCRIPTED_STARVATION_CUTOFF_S:
            return DecisionResponse(
                action=TacticalAction.RETURN_FOR_INFO.value,
                rationale=(
                    f"search stale ({event.time_since_last_pickup:.0f}s since pickup, "
                    f"{event.active_pheromone_count} trails active); returning for information"
                ),
            )
        return DecisionResponse(
            action=TacticalAction.CONTINUE_SEARCH.value,
            rationale=(
                f"only {event.time_since_last_pickup:.0f}s since last pickup and no "
                "trails to chase; continuing local search"
            ),
        )
    if event.resource_density > 0 and event.last_pickup_location is not None:
        return DecisionResponse(
            action=TacticalAction.USE_SITE_FIDELITY.value,
            rationale=(
                f"resource_density={event.resource_density} at the last pickup site; "
                "revisiting it beats exploring"
            ),
        )
    if event.active_pheromone_count > 0:
        return DecisionResponse(
            action=TacticalAction.FOLLOW_PHEROMONE.value,
            rationale=(
                f"no local density remembered but {event.active_pheromone_count} "
                "pheromone trails are active"
            ),
        )
    return DecisionResponse(
        action=TacticalAction.UNINFORMED_SEARCH.value,
        rationale="no density signal and no active pheromones; searching at random",
    )


@dataclass
class PolicyDecision:
    """What a policy chose and how, for logging and metric accounting."""

    action: Optional[TacticalAction]  # None defers to the cascade
    source: str  # cascade | llm | scripted | fallback
    rationale: Optional[str] = None
    fallback_reason: Optional[str] = None
    latency: Optional[float] = None
    request_body: Optional[dict] = None
    response_body: Optional[str] = None

    @property
    def llm_call(self) -> bool:
        """True when the decision went out to an LLM endpoint."""
        return self.request_body is not None


class DecisionPolicy:
    """Base class; subclasses answer the three decision-point events.

    ``decide`` answers an action from ``event.allowed_actions``, or
    ``None`` to defer to the cascade.  Any other action, or an exception,
    is a policy error: the decision falls back to the cascade and the
    error is logged.
    """

    # True when the time-triggered starvation decision replaces the
    # per-tick give-up probability p_r.
    uses_starvation = True

    def decide(self, event: DecisionEvent) -> PolicyDecision:
        raise NotImplementedError


class CascadePolicy(DecisionPolicy):
    """Defers every decision to the vanilla cascade; give-up stays with p_r."""

    uses_starvation = False

    def decide(self, event: DecisionEvent) -> PolicyDecision:
        return PolicyDecision(action=None, source="cascade")


class ScriptedPolicy(DecisionPolicy):
    """Deterministic heuristic used as the offline LLM stand-in."""

    def decide(self, event: DecisionEvent) -> PolicyDecision:
        response = scripted_decide(event)
        return PolicyDecision(action=TacticalAction(response.action), source="scripted",
                              rationale=response.rationale)


class FixedActionPolicy(DecisionPolicy):
    """Uninformed baseline: random search at the centre, return for
    information on starvation."""

    def decide(self, event: DecisionEvent) -> PolicyDecision:
        if event.event_type is EventType.SEARCH_STARVATION:
            action = TacticalAction.RETURN_FOR_INFO
        else:
            action = TacticalAction.UNINFORMED_SEARCH
        return PolicyDecision(action=action, source="scripted", rationale="fixed policy")
