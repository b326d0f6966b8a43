"""Fixed-timestep kinematic simulation.

One trial is one single-threaded loop: every dt the world gates motion
for close robot pairs, steps each robot's controller in id order, and
prunes expired pheromones.  All randomness flows through named streams
keyed by the trial seed, so a trial with a non-networked policy replays
byte-identically.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Arena,
    CpfaParams,
    PHEROMONE_EXPIRY_THRESHOLD,
    PheromoneWaypoint,
    RngStreams,
    pheromone_strength,
)
from . import cpfa
from .gateway import GatewayConfig, LlmClient
from .kinematics import MotionLimits, apply_yield, wrap_angle
from .layouts import LayoutSpec, ResourceField, generate
from .policy import CascadePolicy, DecisionPolicy, FixedActionPolicy, ScriptedPolicy

# Robots spawn on a ring this far outside the central zone.
SPAWN_RING_MARGIN = 0.3
# At-centre prompts carry at most this many waypoints.
PHEROMONE_SUMMARY_CAP = 10
# Each resource is filed under every pickup bucket that its pickup disc,
# widened by this margin, overlaps.  The margin is far above rounding at
# arena scale, so a resource in reach is always in the robot's bucket.
PICKUP_BUCKET_MARGIN = 1e-6  # m

POLICY_NAMES = ("cascade", "scripted", "uninformed", "llm")


class TrialError(Exception):
    """A trial could not be initialised or driven to completion."""


@dataclass
class TrialConfig:
    arena: Arena
    team_size: int
    layout: LayoutSpec
    params: CpfaParams
    policy: str = "cascade"
    duration: float = 1200.0
    seed: int = 0
    gateway: Optional[GatewayConfig] = None  # required when policy == "llm"

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        if self.team_size < 1:
            raise ValueError("team_size must be positive")


@dataclass
class TrialResult:
    deposits: int
    event_log: list
    latency_samples: list
    outcome_counts: dict  # LLM calls by outcome: ok or the fallback reason
    settings: dict

    def log_bytes(self) -> bytes:
        """The event log as canonical JSONL, for determinism comparisons."""
        lines = [json.dumps(rec, separators=(",", ":")) for rec in self.event_log]
        return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""

    @property
    def llm_calls(self) -> int:
        return sum(self.outcome_counts.values())

    @property
    def llm_fallbacks(self) -> int:
        return self.llm_calls - self.outcome_counts.get("ok", 0)

    @property
    def latency_mean(self) -> Optional[float]:
        """Mean LLM call latency in seconds; None when no call was timed."""
        return float(np.mean(self.latency_samples)) if self.latency_samples else None

    def report(self) -> dict:
        """The trial's figures as a store row and ``run-trial`` give them."""
        return {key: getattr(self, key) for key in
                ("deposits", "llm_calls", "llm_fallbacks", "latency_mean", "settings")}


class PheromoneManager:
    """The shared pheromone field: deposit, decay, prune, and select in
    proportion to strength.

    ``World.step`` prunes at the time the next step reads, so every
    waypoint a step sees is live and ``count`` and ``active`` need no
    strength filter of their own.  ``add`` appends in time order.
    """

    def __init__(self, decay_rate: float):
        self.decay_rate = decay_rate
        self.waypoints: list[PheromoneWaypoint] = []

    def add(self, location: tuple[float, float], now: float) -> PheromoneWaypoint:
        wp = PheromoneWaypoint(location=location, created_at=now)
        self.waypoints.append(wp)
        return wp

    def prune(self, now: float) -> None:
        """Drop waypoints decayed below the expiry threshold, order preserved.

        At one decay rate strength falls with age, so a waypoint no older
        than a live one is live and its strength is not computed.  In the
        time order ``add`` keeps, that leaves the expired prefix and the
        first live waypoint.
        """
        kept, oldest_live = [], math.inf
        for w in self.waypoints:
            if (w.created_at >= oldest_live or pheromone_strength(w, now, self.decay_rate)
                    >= PHEROMONE_EXPIRY_THRESHOLD):
                kept.append(w)
                if w.created_at < oldest_live:
                    oldest_live = w.created_at
        self.waypoints = kept

    def count(self) -> int:
        return len(self.waypoints)

    def active(self, now: float) -> list[tuple[PheromoneWaypoint, float]]:
        return [(w, pheromone_strength(w, now, self.decay_rate)) for w in self.waypoints]

    def summary(self, now: float) -> tuple:
        """Locations and strengths of the strongest waypoints, capped."""
        pairs = sorted(self.active(now), key=lambda p: -p[1])[:PHEROMONE_SUMMARY_CAP]
        return tuple((w.location, s) for w, s in pairs)

    def select(self, now: float, rng: np.random.Generator) -> Optional[PheromoneWaypoint]:
        pairs = self.active(now)
        if not pairs:
            return None
        weights = np.array([s for _, s in pairs])
        idx = int(rng.choice(len(pairs), p=weights / weights.sum()))
        return pairs[idx][0]


class World:
    """Mutable state of one trial plus the counters and the event log."""

    def __init__(self, config: TrialConfig, resources: ResourceField | None = None,
                 policy_factory=None):
        self.config = config
        self.arena = config.arena
        self.params = config.params
        self.limits = MotionLimits()
        self.streams = RngStreams(config.seed)
        self.resources = resources if resources is not None else generate(config.layout)
        self.pickup_buckets = pickup_buckets(self.resources.positions, self.limits.pickup_radius)
        self.pheromones = PheromoneManager(decay_rate=config.params.lambda_d)
        self.step_index = 0
        self.t = 0.0  # step_index * dt, set by ``step``
        self.deposits = 0
        self.event_log: list = []
        self.latency_samples: list = []
        self.outcome_counts: dict = {}
        self.injected_latency = getattr(config.gateway, "injected_latency", None)

        if policy_factory is None:
            # one client per trial, shared by every robot as its llm policy
            client = (LlmClient(config.gateway)
                      if config.policy == "llm" and config.gateway is not None else None)

            def policy_factory(index: int):
                return make_policy(config.policy, client)

        spawn_radius = config.arena.center_zone_radius + SPAWN_RING_MARGIN
        self.robots = []
        self.policies = []
        for i in range(config.team_size):
            angle = 2.0 * math.pi * i / config.team_size
            robot = cpfa.Robot(index=i, x=spawn_radius * math.cos(angle),
                               y=spawn_radius * math.sin(angle), heading=wrap_angle(angle),
                               rng=self.streams.robot(i))
            robot.assign_disperse_target(self)
            self.robots.append(robot)
            try:
                self.policies.append(policy_factory(i))
            except Exception as exc:
                raise TrialError(f"policy init failed for robot {i}: {exc}") from exc

    # -- geometry ---------------------------------------------------------

    def sample_arena_point(self, rng: np.random.Generator) -> tuple[float, float]:
        """Uniform point in the arena outside the central zone."""
        while True:
            x = rng.uniform(-self.arena.half_width, self.arena.half_width)
            y = rng.uniform(-self.arena.half_width, self.arena.half_width)
            if math.hypot(x, y) > self.arena.center_zone_radius:
                return (x, y)

    def translation_allowed(self, robot, x: float, y: float) -> bool:
        """Reject a move that would end inside another robot's hard radius."""
        min_sep = 0.5 * self.limits.yield_radius
        for other in self.robots:
            dx = other.x - x
            # a robot a whole radius away in x is at least that far away
            if (-min_sep < dx < min_sep and other.index != robot.index
                    and math.hypot(dx, other.y - y) < min_sep):
                return False
        return True

    # -- resource interactions ---------------------------------------------

    def try_pickup(self, robot) -> Optional[tuple[tuple[float, float], int]]:
        """Pick the nearest unpicked resource inside the pickup disc, the
        lowest index among equally near ones.

        Returns its location and the unpicked resources left within the
        density radius of it, or None when nothing is in reach.
        """
        radius = self.limits.pickup_radius
        x, y = robot.x, robot.y
        bucket = self.pickup_buckets.get((math.floor(x / radius), math.floor(y / radius)))
        if bucket is None:
            return None
        res = self.resources
        reach2 = radius**2
        nearest = None
        for i, px, py in bucket:  # in index order
            dx = px - x
            dy = py - y
            d2 = dx * dx + dy * dy
            if d2 <= reach2 and not res.picked[i] and (nearest is None or d2 < nearest[0]):
                nearest = (d2, i)
        if nearest is None:
            return None
        idx = nearest[1]
        res.picked[idx] = True
        loc = (float(res.positions[idx, 0]), float(res.positions[idx, 1]))
        ndx = res.positions[:, 0] - loc[0]
        ndy = res.positions[:, 1] - loc[1]
        near = (ndx * ndx + ndy * ndy) <= self.limits.density_radius**2
        density = int((near & ~res.picked).sum())
        self.log(robot, "PICKUP", {"location": [loc[0], loc[1]], "density": density})
        return loc, density

    def deposit(self, robot) -> None:
        """Deposit the resource a robot has carried into the central zone."""
        self.deposits += 1
        self.log(robot, "DEPOSIT", {"total": self.deposits})

    # -- bookkeeping --------------------------------------------------------

    def log(self, robot, kind: str, payload: dict) -> None:
        self.event_log.append(
            {"t": round(self.t, 6), "robot": robot.robot_id if robot else None,
             "kind": kind, "payload": payload}
        )

    def record_decision(self, decision) -> None:
        """Tally an LLM call by outcome; other decisions are not counted."""
        if decision.llm_call:
            self.latency_samples.append(decision.latency)
            outcome = decision.fallback_reason or "ok"
            self.outcome_counts[outcome] = self.outcome_counts.get(outcome, 0) + 1

    def carrying_count(self) -> int:
        return sum(1 for r in self.robots if r.carrying)

    # -- main loop ----------------------------------------------------------

    def step(self) -> None:
        gates = apply_yield(self.robots, self.limits)
        fsm_step = cpfa.fsm_step  # looked up per step, so a wrapper put there is seen
        for robot, policy, gated in zip(self.robots, self.policies, gates):
            fsm_step(robot, self, policy, gated)
        self.step_index += 1
        self.t = self.step_index * self.limits.dt
        self.pheromones.prune(self.t)

    def run(self) -> TrialResult:
        n_steps = int(round(self.config.duration / self.limits.dt))
        for _ in range(n_steps):
            self.step()
        return self.result()

    def result(self) -> TrialResult:
        return TrialResult(
            deposits=self.deposits,
            event_log=self.event_log,
            latency_samples=self.latency_samples,
            outcome_counts=dict(self.outcome_counts),
            settings=self.settings(),
        )

    def settings(self) -> dict:
        lim = self.limits
        return {
            "team_size": self.config.team_size,
            "arena_width": 2 * self.arena.half_width,
            "center_zone_radius": self.arena.center_zone_radius,
            "distribution": self.config.layout.distribution.value,
            "resource_count": self.config.layout.resource_count,
            "policy": self.config.policy,
            "duration": self.config.duration,
            "seed": self.config.seed,
            "layout_seed": self.config.layout.seed,
            "dt": lim.dt,
            "linear_speed": lim.linear_speed,
            "angular_speed": lim.angular_speed,
            "pickup_radius": lim.pickup_radius,
            "yield_radius": lim.yield_radius,
            "arrival_tolerance": lim.arrival_tolerance,
            "density_radius": lim.density_radius,
            "exclusion_radius": self.config.layout.keep_out,
            "pheromone_threshold": PHEROMONE_EXPIRY_THRESHOLD,
            "params": self.params.as_dict(),
        }


def pickup_buckets(positions: np.ndarray, radius: float) -> dict:
    """Resources by square bucket of side ``radius``: bucket ``(kx, ky)``
    holds ``(index, x, y)``, in index order, of every resource within
    ``radius`` of a point whose ``(floor(x / radius), floor(y / radius))``
    is ``(kx, ky)``."""
    reach = radius + PICKUP_BUCKET_MARGIN
    buckets: dict = {}
    for i, (px, py) in enumerate(positions.tolist()):
        entry = (i, px, py)
        for kx in range(math.floor((px - reach) / radius), math.floor((px + reach) / radius) + 1):
            for ky in range(math.floor((py - reach) / radius),
                            math.floor((py + reach) / radius) + 1):
                buckets.setdefault((kx, ky), []).append(entry)
    return buckets


def run_trial(config: TrialConfig, resources: ResourceField | None = None,
              policy_factory=None) -> TrialResult:
    """Run one full trial and return its result."""
    world = World(config, resources=resources, policy_factory=policy_factory)
    return world.run()


def make_policy(selector: str, client: Optional[LlmClient] = None) -> DecisionPolicy:
    """Build the policy named by ``selector`` for one robot; ``llm`` is
    the trial's gateway client."""
    if selector == "cascade":
        return CascadePolicy()
    if selector == "scripted":
        return ScriptedPolicy()
    if selector == "uninformed":
        return FixedActionPolicy()
    if selector == "llm":
        if client is None:
            raise ValueError("policy 'llm' requires a gateway config")
        return client
    raise ValueError(f"unknown policy {selector!r}; expected one of {POLICY_NAMES}")
