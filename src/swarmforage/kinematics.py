"""Per-step motion primitives: poses, motion limits, turn-then-drive, yield.

Every robot moves through these functions once per dt, so they are the
simulator's hot kernel.  They know nothing of controllers or the world.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# Turn-then-drive gate: the robot only translates once its heading is
# within this error of the bearing to its target.
HEADING_GATE_RAD = math.pi / 6.0
# Fixed in-place turn applied to yield-gated robots to break deadlocks.
YIELD_TURN_RAD = 0.1


@dataclass
class RobotPose:
    x: float
    y: float
    heading: float  # radians in [-pi, pi)


@dataclass(frozen=True)
class MotionLimits:
    linear_speed: float = 0.3  # m/s
    angular_speed: float = 1.0  # rad/s
    pickup_radius: float = 0.3  # m
    yield_radius: float = 0.35  # m
    arrival_tolerance: float = 0.05  # m
    density_radius: float = 0.5  # m, resource-density sensing disc
    dt: float = 0.1  # s

    def __post_init__(self):
        if self.dt <= 0 or self.dt > 0.2:
            raise ValueError("dt must be in (0, 0.2] s")


def wrap_angle(angle: float) -> float:
    """Wrap to [-pi, pi)."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped < 0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def move_toward(pose: RobotPose, target: tuple[float, float], limits: MotionLimits) -> RobotPose:
    """One dt of turn-then-drive motion toward ``target``.

    Heading rotates toward the bearing by at most angular_speed*dt; the
    robot translates only once the remaining heading error is inside the
    gate, and never overshoots the target.
    """
    dx = target[0] - pose.x
    dy = target[1] - pose.y
    dist = math.hypot(dx, dy)
    if dist <= limits.arrival_tolerance:
        return RobotPose(pose.x, pose.y, pose.heading)
    bearing = math.atan2(dy, dx)
    error = wrap_angle(bearing - pose.heading)
    max_turn = limits.angular_speed * limits.dt
    turn = max(-max_turn, min(max_turn, error))
    heading = wrap_angle(pose.heading + turn)
    remaining = wrap_angle(bearing - heading)
    x, y = pose.x, pose.y
    if abs(remaining) <= HEADING_GATE_RAD:
        step = min(limits.linear_speed * limits.dt, dist)
        x += step * math.cos(heading)
        y += step * math.sin(heading)
    return RobotPose(x, y, heading)


def apply_yield(poses: list[RobotPose], limits: MotionLimits) -> list[bool]:
    """Per-robot motion gates from the pairwise yield rule.

    For every pair closer than yield_radius the higher-indexed robot is
    gated; gates compose over pairs, so of two close robots exactly the
    higher one halts.
    """
    n = len(poses)
    gated = [False] * n
    for j in range(1, n):
        for i in range(j):
            if math.hypot(poses[i].x - poses[j].x, poses[i].y - poses[j].y) < limits.yield_radius:
                gated[j] = True
                break
    return gated
