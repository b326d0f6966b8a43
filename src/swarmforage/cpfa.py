"""Per-robot central-place foraging controller.

Each robot runs the classic ant-inspired state machine: disperse, walk a
correlated random search, carry finds back to the central zone, and pick
the next move from site fidelity, pheromone trails, or fresh random
search.  The three tactical choices (after a deposit, on an empty-handed
arrival, and on search starvation) are delegated to a pluggable policy;
one that defers gets the CPFA's own parameter cascade, which lives here
with the other seven-parameter rules.  The chosen action is carried out
with the kinematics primitives.
"""
from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import SIGMA_MAX, CpfaParams, FatalPolicyError, poisson_cdf
from .kinematics import YIELD_TURN_RAD, clamp_to_walls, move_toward, wrap_angle
from .policy import (
    DecisionEvent,
    EventType,
    PolicyDecision,
    TacticalAction,
    build_whitelist,
)

# Unsuccessful search raises the starvation decision after T_S seconds,
# then again every T_Q seconds until pickup or return.
SEARCH_STARVATION_AFTER_S = 60.0
SEARCH_STARVATION_EVERY_S = 30.0
# Cadence of the stochastic per-waypoint checks (p_s, p_r) and of search
# heading updates.
TICK_PERIOD_S = 1.0

_EPS = 1e-9


class FsmState(enum.Enum):
    DISPERSING = "DISPERSING"
    SEARCHING_UNINFORMED = "SEARCHING_UNINFORMED"
    SEARCHING_INFORMED = "SEARCHING_INFORMED"
    RETURNING_WITH_RESOURCE = "RETURNING_WITH_RESOURCE"
    RETURNING_EMPTY = "RETURNING_EMPTY"
    TRAVELING_TO_SITE = "TRAVELING_TO_SITE"
    TRAVELING_TO_PHEROMONE = "TRAVELING_TO_PHEROMONE"
    AT_CENTER = "AT_CENTER"


# Module-level, as looking a member up on the enum class is slow per step.
SEARCHING_STATES = (FsmState.SEARCHING_UNINFORMED, FsmState.SEARCHING_INFORMED)
TRAVELING_STATES = (FsmState.TRAVELING_TO_SITE, FsmState.TRAVELING_TO_PHEROMONE)
RETURNING_STATES = (FsmState.RETURNING_WITH_RESOURCE, FsmState.RETURNING_EMPTY)
DISPERSING = FsmState.DISPERSING
RETURNING_WITH_RESOURCE = FsmState.RETURNING_WITH_RESOURCE


def uninformed_step_heading(
    heading: float, params: CpfaParams, rng: np.random.Generator
) -> float:
    """Correlated-random-walk turn with fixed spread rho_u."""
    if params.rho_u == 0.0:
        return heading  # straight line, exactly
    return wrap_angle(heading + rng.normal(0.0, params.rho_u))


def informed_sigma(t_informed: float, params: CpfaParams) -> float:
    """Turning spread of the informed walk after t seconds on site.

    Starts at the maximum (a thorough local sweep) and decays toward the
    uninformed baseline at rate lambda_i.
    """
    if t_informed < 0:
        raise ValueError("t_informed must be nonnegative")
    return params.rho_u + (SIGMA_MAX - params.rho_u) * math.exp(-params.lambda_i * t_informed)


def informed_step_heading(
    heading: float, t_informed: float, params: CpfaParams, rng: np.random.Generator
) -> float:
    return wrap_angle(heading + rng.normal(0.0, informed_sigma(t_informed, params)))


def should_lay_pheromone(c: int, params: CpfaParams, rng: np.random.Generator) -> bool:
    return poisson_cdf(c, params.lambda_lp) > rng.uniform()


def should_switch_to_search(params: CpfaParams, rng: np.random.Generator) -> bool:
    return rng.uniform() < params.p_s


def should_give_up(params: CpfaParams, rng: np.random.Generator) -> bool:
    return rng.uniform() < params.p_r


def fallback_decide(
    event: DecisionEvent, params: CpfaParams, rng: np.random.Generator
) -> TacticalAction:
    """The CPFA's cascade, for an event no policy answered.

    Starvation gives up with probability p_r.  After a deposit the robot
    returns to its site with probability POISCDF(density, lambda_f); a
    deposit always follows a pickup, so the site is known.  Otherwise,
    and on an empty-handed arrival (the site was abandoned with the
    search), it follows a pheromone if one is active, else searches at
    random.
    """
    if event.event_type is EventType.SEARCH_STARVATION:
        if should_give_up(params, rng):
            return TacticalAction.RETURN_FOR_INFO
        return TacticalAction.CONTINUE_SEARCH
    if (event.event_type is EventType.POST_DEPOSIT_DECISION
            and rng.uniform() < poisson_cdf(event.resource_density, params.lambda_f)):
        return TacticalAction.USE_SITE_FIDELITY
    if event.active_pheromone_count > 0:
        return TacticalAction.FOLLOW_PHEROMONE
    return TacticalAction.UNINFORMED_SEARCH


@dataclass
class Robot:
    """One robot: its pose, controller state, pickup memory and timers."""

    index: int
    x: float
    y: float
    heading: float  # radians in [-pi, pi)
    rng: np.random.Generator
    state: FsmState = FsmState.DISPERSING
    target: Optional[tuple[float, float]] = None
    # what the robot remembers of its last pickup and its current search
    last_pickup_location: Optional[tuple[float, float]] = None
    last_density: int = 0
    last_pickup_time: float = 0.0
    search_started_at: Optional[float] = None
    next_tick_at: float = TICK_PERIOD_S
    next_starvation_at: Optional[float] = None
    # a decision waiting out the injected latency: (until, event, decision)
    held: Optional[tuple[float, DecisionEvent, PolicyDecision]] = None

    @property
    def robot_id(self) -> str:
        return f"r{self.index}"

    @property
    def carrying(self) -> bool:
        return self.state is RETURNING_WITH_RESOURCE

    def assign_disperse_target(self, world) -> None:
        self.target = world.sample_arena_point(self.rng)

    # -- internals ----------------------------------------------------------

    def _set_state(self, world, new_state: FsmState) -> None:
        if new_state is self.state:
            return
        world.log(self, "STATE", {"from": self.state.value, "to": new_state.value})
        self.state = new_state
        self.next_tick_at = world.t + TICK_PERIOD_S

    def _tick_due(self, now: float) -> bool:
        if now >= self.next_tick_at - _EPS:
            self.next_tick_at += TICK_PERIOD_S
            return True
        return False

    def _begin_search(self, world, informed: bool) -> None:
        now = world.t
        self.search_started_at = now
        self.next_starvation_at = now + SEARCH_STARVATION_AFTER_S
        self.target = None
        self._set_state(
            world,
            FsmState.SEARCHING_INFORMED if informed else FsmState.SEARCHING_UNINFORMED,
        )

    def _go_home(self, world, carrying: bool) -> None:
        self.target = (0.0, 0.0)
        self._set_state(
            world,
            FsmState.RETURNING_WITH_RESOURCE if carrying else FsmState.RETURNING_EMPTY,
        )


def _search_drive(robot: Robot, world, gated: bool) -> None:
    """Forward drive along the current heading, reflecting off walls."""
    lim = world.limits
    if gated:
        robot.heading = wrap_angle(robot.heading + YIELD_TURN_RAD)
        return
    h = robot.heading
    nx = robot.x + lim.linear_speed * lim.dt * math.cos(h)
    ny = robot.y + lim.linear_speed * lim.dt * math.sin(h)
    cx, cy, clamped = clamp_to_walls(nx, ny, world.arena.half_width)
    if clamped:
        if cx != nx:
            h = wrap_angle(math.pi - h)
        if cy != ny:
            h = wrap_angle(-h)
        robot.heading = h
    if world.translation_allowed(robot, cx, cy):
        robot.x = cx
        robot.y = cy


def _travel_drive(robot: Robot, world, gated: bool) -> bool:
    """One step toward the current target; True once within tolerance."""
    lim = world.limits
    tx, ty = robot.target
    dist = math.hypot(tx - robot.x, ty - robot.y)
    if dist <= lim.arrival_tolerance:
        return True
    if gated:
        robot.heading = wrap_angle(robot.heading + YIELD_TURN_RAD)
        return False
    x, y, robot.heading = move_toward(robot.x, robot.y, robot.heading, robot.target, lim, dist)
    cx, cy, clamped = clamp_to_walls(x, y, world.arena.half_width)
    if clamped and robot.state is DISPERSING:
        # wall contact while heading to a random waypoint: pick a new one
        robot.assign_disperse_target(world)
    if not world.translation_allowed(robot, cx, cy):
        return False  # still where the arrival check above found it
    robot.x = cx
    robot.y = cy
    return math.hypot(tx - cx, ty - cy) <= lim.arrival_tolerance


def _build_event(robot: Robot, world, event_type: EventType) -> DecisionEvent:
    now = world.t
    at_center = event_type is not EventType.SEARCH_STARVATION
    return DecisionEvent(
        robot_id=robot.robot_id,
        event_type=event_type,
        current_state=robot.state.value,
        sim_time_sec=now,
        position=(robot.x, robot.y),
        resource_density=robot.last_density,
        time_since_last_pickup=now - robot.last_pickup_time,
        last_pickup_location=robot.last_pickup_location,
        active_pheromone_count=world.pheromones.count(),
        pheromone_summary=world.pheromones.summary(now) if at_center else None,
        allowed_actions=tuple(build_whitelist(event_type)),
    )


def _log_decision(robot: Robot, world, event: DecisionEvent, decision: PolicyDecision,
                  requested: Optional[str] = None) -> None:
    payload = {
        "event_type": event.event_type.value,
        "action": decision.action.value,
        "source": decision.source,
        "requested_action": requested,
        "rationale": decision.rationale,
        "fallback_reason": decision.fallback_reason,
        "latency": decision.latency,
        "context": event.payload(),
        "request": decision.request_body,
        "response": decision.response_body,
    }
    world.log(robot, "DECISION", {key: value for key, value in payload.items() if value is not None})


def _decide(robot: Robot, world, policy, event_type: EventType) -> None:
    """One decision point: build the event, ask the policy, run the
    cascade if it deferred or failed, then act at once or, for an LLM
    call under injected latency, hold until it lands.

    A starvation decision is logged when decided; an at-centre decision
    when acted on, so the log shows any degrade.
    """
    event = _build_event(robot, world, event_type)
    starvation = event_type is EventType.SEARCH_STARVATION
    if not starvation:
        robot._set_state(world, FsmState.AT_CENTER)
    try:
        decision = policy.decide(event)
        if decision.action is not None and decision.action.value not in event.allowed_actions:
            raise ValueError(f"{decision.action.value} is not an allowed action here")
    except FatalPolicyError:
        raise
    except Exception as exc:  # the controller never stalls on a policy failure
        decision = PolicyDecision(action=None, source="fallback", fallback_reason="policy_error")
        world.log(robot, "POLICY_ERROR", {"error": str(exc)})
    if decision.action is None:
        action = fallback_decide(event, world.params, world.streams.policy(robot.index))
        decision = dataclasses.replace(decision, action=action)
    world.record_decision(decision)
    if starvation:
        _log_decision(robot, world, event, decision)
    if world.injected_latency and decision.llm_call:
        robot.held = (world.t + world.injected_latency, event, decision)
    else:
        _act(robot, world, event, decision)


def _act(robot: Robot, world, event: DecisionEvent, decision: PolicyDecision) -> None:
    """Carry out a decided action.  An at-centre choice that cannot
    execute (no waypoint to follow, no site remembered) degrades to
    uninformed search."""
    action = decision.action
    if action is TacticalAction.RETURN_FOR_INFO:
        robot._go_home(world, carrying=False)
        return
    if action is TacticalAction.CONTINUE_SEARCH:
        robot.next_starvation_at = world.t + SEARCH_STARVATION_EVERY_S
        return
    target, state = None, FsmState.DISPERSING
    if action is TacticalAction.FOLLOW_PHEROMONE:
        waypoint = world.pheromones.select(world.t, robot.rng)
        if waypoint is not None:
            target, state = waypoint.location, FsmState.TRAVELING_TO_PHEROMONE
    elif action is TacticalAction.USE_SITE_FIDELITY and robot.last_pickup_location is not None:
        target, state = robot.last_pickup_location, FsmState.TRAVELING_TO_SITE
    if target is None and action is not TacticalAction.UNINFORMED_SEARCH:
        _log_decision(robot, world, event, dataclasses.replace(
            decision, action=TacticalAction.UNINFORMED_SEARCH, source="degraded"), action.value)
    else:
        _log_decision(robot, world, event, decision)
    if target is None:
        robot.assign_disperse_target(world)
    else:
        robot.target = target
    robot._set_state(world, state)


def fsm_step(robot: Robot, world, policy, gated: bool = False) -> FsmState:
    """Advance one robot by one dt of its current state's behaviour."""
    now = world.t
    params = world.params

    if robot.held is not None:
        until, event, decision = robot.held
        if now + _EPS < until:
            return robot.state
        robot.held = None
        _act(robot, world, event, decision)
        return robot.state

    state = robot.state
    if state in SEARCHING_STATES:
        pickup = world.try_pickup(robot)
        if pickup is not None:
            robot.last_pickup_location, robot.last_density = pickup
            robot.last_pickup_time = now
            robot._go_home(world, carrying=True)
            return robot.state
        tick = robot._tick_due(now)
        if policy.uses_starvation:
            if now >= robot.next_starvation_at - _EPS:
                _decide(robot, world, policy, EventType.SEARCH_STARVATION)
                if robot.state not in SEARCHING_STATES or robot.held is not None:
                    return robot.state
        elif tick and should_give_up(params, robot.rng):
            world.log(robot, "GIVE_UP", {"searched": round(now - robot.search_started_at, 6)})
            robot._go_home(world, carrying=False)
            return robot.state
        if tick:
            if robot.state is FsmState.SEARCHING_INFORMED:
                robot.heading = informed_step_heading(
                    robot.heading, now - robot.search_started_at, params, robot.rng)
            else:
                robot.heading = uninformed_step_heading(robot.heading, params, robot.rng)
        _search_drive(robot, world, gated)
        return robot.state

    if state is DISPERSING:
        if robot._tick_due(now) and should_switch_to_search(params, robot.rng):
            robot._begin_search(world, informed=False)
            return robot.state
        if _travel_drive(robot, world, gated):
            robot._begin_search(world, informed=False)
        return robot.state

    if state in TRAVELING_STATES:
        if _travel_drive(robot, world, gated):
            robot._begin_search(world, informed=True)
        return robot.state

    if state in RETURNING_STATES:
        if math.hypot(robot.x, robot.y) > world.arena.center_zone_radius:
            _travel_drive(robot, world, gated)
        elif state is RETURNING_WITH_RESOURCE:
            world.deposit(robot)
            # every carried resource was picked up, so site fidelity holds
            if should_lay_pheromone(robot.last_density, params, robot.rng):
                world.pheromones.add(robot.last_pickup_location, now)
                world.log(robot, "PHEROMONE", {
                    "location": [robot.last_pickup_location[0], robot.last_pickup_location[1]],
                    "density": robot.last_density,
                })
            _decide(robot, world, policy, EventType.POST_DEPOSIT_DECISION)
        else:
            _decide(robot, world, policy, EventType.CENTRAL_ZONE_ARRIVAL)
        return robot.state

    # AT_CENTER only persists while a decision hold is pending
    return robot.state
