"""Per-step motion on plain coordinates: limits, wrap, clamp, turn-then-drive, yield.

Every robot moves through these functions once per dt, so they are the
simulator's hot kernel.  They know nothing of controllers or the world.
Their fast paths give the same bits as the plain formulas; README.md
("The hot kernel") gives the argument for each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# Turn-then-drive gate: the robot only translates once its heading is
# within this error of the bearing to its target.
HEADING_GATE_RAD = math.pi / 6.0
# Fixed in-place turn applied to yield-gated robots to break deadlocks.
YIELD_TURN_RAD = 0.1

PI = math.pi
TWO_PI = 2.0 * math.pi


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
    shifted = angle + PI
    if 0.0 <= shifted < TWO_PI:  # fmod would return ``shifted`` itself
        return shifted - PI
    wrapped = math.fmod(shifted, TWO_PI)
    if wrapped < 0:
        wrapped += TWO_PI
    return wrapped - PI


def clamp_to_walls(x: float, y: float, half_width: float) -> tuple[float, float, bool]:
    """The point clamped into the square arena, and whether it moved."""
    cx = (x if x > -half_width else -half_width) if x < half_width else half_width
    cy = (y if y > -half_width else -half_width) if y < half_width else half_width
    return cx, cy, (cx != x or cy != y)


def move_toward(x: float, y: float, heading: float, target: tuple[float, float],
                limits: MotionLimits, dist: float) -> tuple[float, float, float]:
    """One dt of turn-then-drive motion from ``(x, y, heading)`` toward
    ``target``: the new ``(x, y, heading)``.

    Heading rotates toward the bearing by at most angular_speed*dt; the
    robot translates only once the remaining heading error is inside the
    gate, and never overshoots the target.  ``dist`` must be
    ``math.hypot(target[0] - x, target[1] - y)``, which the caller has
    already computed for its own arrival check.
    """
    dx = target[0] - x
    dy = target[1] - y
    if dist <= limits.arrival_tolerance:
        return x, y, heading
    bearing = math.atan2(dy, dx)
    # wrap_angle inlined: its fast path, else the call
    shifted = bearing - heading + PI
    error = shifted - PI if 0.0 <= shifted < TWO_PI else wrap_angle(bearing - heading)
    max_turn = limits.angular_speed * limits.dt
    # max(-max_turn, min(max_turn, error)), without the calls
    turn = (error if error > -max_turn else -max_turn) if error < max_turn else max_turn
    shifted = heading + turn + PI
    heading = shifted - PI if 0.0 <= shifted < TWO_PI else wrap_angle(heading + turn)
    shifted = bearing - heading + PI
    remaining = shifted - PI if 0.0 <= shifted < TWO_PI else wrap_angle(bearing - heading)
    if -HEADING_GATE_RAD <= remaining <= HEADING_GATE_RAD:
        step = limits.linear_speed * limits.dt
        if dist < step:
            step = dist
        x += step * math.cos(heading)
        y += step * math.sin(heading)
    return x, y, heading


def apply_yield(robots, limits: MotionLimits) -> list[bool]:
    """Per-robot motion gates from the pairwise yield rule, over anything
    with an ``x`` and a ``y``, in index order.

    For every pair closer than yield_radius the higher-indexed robot is
    gated; gates compose over pairs, so of two close robots exactly the
    higher one halts.
    """
    radius = limits.yield_radius
    gated = []
    earlier = []  # (x, y) of the lower-indexed robots
    for robot in robots:
        x, y = robot.x, robot.y
        close = False
        for ex, ey in earlier:
            dx = ex - x
            # a pair a whole radius apart in x is at least that far apart
            if -radius < dx < radius and math.hypot(dx, ey - y) < radius:
                close = True
                break
        gated.append(close)
        earlier.append((x, y))
    return gated
