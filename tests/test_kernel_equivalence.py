"""The hot kernel's fast paths give the same bits as the plain code.

Each ``ref_*`` function below is the plain form of a kernel function,
kept verbatim from before the fast paths went in: ``fmod`` wrapping,
``RobotPose`` results and ``max``/``min`` clamps, a ``hypot`` for every
pair, a numpy ``argmin`` over every resource, and a strength filter over
every waypoint.  Hypothesis draws inputs, and seeded cases sit on the
boundaries where a fast path could differ: distances exactly at a
radius, resources on bucket edges, equidistant ties, angles at and one
ulp either side of +-pi and beyond +-3pi, and decay rates 0 and 50.
Floats are compared bit for bit.
"""
import math
import struct
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmforage.core import (
    Arena,
    DEFAULT_PARAMS,
    PHEROMONE_EXPIRY_THRESHOLD,
    PheromoneWaypoint,
    pheromone_strength,
)
from swarmforage.engine import PheromoneManager, TrialConfig, World
from swarmforage.kinematics import (
    HEADING_GATE_RAD,
    MotionLimits,
    apply_yield,
    clamp_to_walls,
    move_toward,
    wrap_angle,
)
from swarmforage.layouts import Distribution, LayoutSpec, ResourceField

LIMITS = MotionLimits()
RobotPose = namedtuple("RobotPose", "x y heading")
KERNEL = settings(max_examples=300, deadline=None, derandomize=True, database=None)
PI = math.pi
# decay_rate * age at which a waypoint's strength reaches the expiry threshold
EXPIRY_AGE = -math.log(PHEROMONE_EXPIRY_THRESHOLD)


# -- the plain forms ---------------------------------------------------------

def ref_wrap_angle(angle: float) -> float:
    """Wrap to [-pi, pi)."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped < 0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def ref_move_toward(pose: RobotPose, target: tuple[float, float], limits: MotionLimits) -> RobotPose:
    dx = target[0] - pose.x
    dy = target[1] - pose.y
    dist = math.hypot(dx, dy)
    if dist <= limits.arrival_tolerance:
        return RobotPose(pose.x, pose.y, pose.heading)
    bearing = math.atan2(dy, dx)
    error = ref_wrap_angle(bearing - pose.heading)
    max_turn = limits.angular_speed * limits.dt
    turn = max(-max_turn, min(max_turn, error))
    heading = ref_wrap_angle(pose.heading + turn)
    remaining = ref_wrap_angle(bearing - heading)
    x, y = pose.x, pose.y
    if abs(remaining) <= HEADING_GATE_RAD:
        step = min(limits.linear_speed * limits.dt, dist)
        x += step * math.cos(heading)
        y += step * math.sin(heading)
    return RobotPose(x, y, heading)


def ref_apply_yield(poses: list[RobotPose], limits: MotionLimits) -> list[bool]:
    n = len(poses)
    gated = [False] * n
    for j in range(1, n):
        for i in range(j):
            if math.hypot(poses[i].x - poses[j].x, poses[i].y - poses[j].y) < limits.yield_radius:
                gated[j] = True
                break
    return gated


def ref_clamp_to_walls(self, x: float, y: float) -> tuple[float, float, bool]:
    cx = max(-self.arena.half_width, min(self.arena.half_width, x))
    cy = max(-self.arena.half_width, min(self.arena.half_width, y))
    return cx, cy, (cx != x or cy != y)


def ref_translation_allowed(self, robot, x: float, y: float) -> bool:
    """Reject a move that would end inside another robot's hard radius."""
    min_sep = 0.5 * self.limits.yield_radius
    for other in self.robots:
        if other.index == robot.index:
            continue
        if math.hypot(other.x - x, other.y - y) < min_sep:
            return False
    return True


def ref_try_pickup(self, robot):
    res = self.resources
    if len(res) == 0:
        return None
    free = ~res.picked
    if not free.any():
        return None
    dx = res.positions[:, 0] - robot.x
    dy = res.positions[:, 1] - robot.y
    d2 = dx * dx + dy * dy
    d2[~free] = np.inf
    idx = int(np.argmin(d2))
    if d2[idx] > self.limits.pickup_radius**2:
        return None
    res.picked[idx] = True
    loc = (float(res.positions[idx, 0]), float(res.positions[idx, 1]))
    ndx = res.positions[:, 0] - loc[0]
    ndy = res.positions[:, 1] - loc[1]
    near = (ndx * ndx + ndy * ndy) <= self.limits.density_radius**2
    density = int((near & ~res.picked).sum())
    self.log(robot, "PICKUP", {"location": [loc[0], loc[1]], "density": density})
    return loc, density


def ref_prune(self, now: float) -> None:
    self.waypoints = [
        w for w in self.waypoints
        if pheromone_strength(w, now, self.decay_rate) >= PHEROMONE_EXPIRY_THRESHOLD
    ]


# -- helpers -------------------------------------------------------------------

def bits(*values: float) -> tuple:
    """Values as their IEEE-754 bytes, so -0.0 != 0.0 and nan == nan."""
    return tuple(struct.pack("<d", v) for v in values)


def wrapped(fn, value: float):
    """``fn(value)`` as bits, or the type of the error it raised."""
    try:
        return bits(fn(value))
    except ValueError as exc:  # fmod of an infinity
        return type(exc)


def ulp_around(value: float) -> list[float]:
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


def world_with(team: int, positions=()) -> World:
    arena = Arena.square(8.0)
    config = TrialConfig(arena=arena, team_size=team,
                         layout=LayoutSpec(Distribution.RANDOM, 0, arena, seed=0),
                         params=DEFAULT_PARAMS, duration=0.0)
    resources = ResourceField.from_positions(np.asarray(positions, dtype=float).reshape(-1, 2))
    return World(config, resources=resources)


def place(world: World, points) -> None:
    for robot, (x, y) in zip(world.robots, points):
        robot.x, robot.y = x, y


coord = st.floats(-4.0, 4.0, allow_nan=False)
# points on a lattice of 0.05 m, so pairs land exactly at the radii
lattice = st.integers(-40, 40).map(lambda k: k * 0.05)
point = st.tuples(st.one_of(coord, lattice), st.one_of(coord, lattice))
# robots within a radius or two of each other
knot = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
ANGLE_EDGES = [a for edge in (-3 * PI, -PI, PI, 3 * PI) for a in ulp_around(edge)]
ANGLE_EDGES += [e + s for e in (-PI, PI) for s in (-1.0, 1.0)] + [-10.0, 10.0, 1e6, -1e6]
angle = st.one_of(st.floats(-30.0, 30.0, allow_nan=False), st.sampled_from(ANGLE_EDGES))


# -- wrap_angle, clamp_to_walls, move_toward ---------------------------------------

@pytest.mark.parametrize("value", ANGLE_EDGES + [0.0, -0.0, math.inf, math.nan])
def test_wrap_angle_edges(value):
    assert wrapped(wrap_angle, value) == wrapped(ref_wrap_angle, value)


@KERNEL
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_wrap_angle_any_float(value):
    assert wrapped(wrap_angle, value) == wrapped(ref_wrap_angle, value)


WALLS = [3.0, 4.0, 5.0]
wall_side = st.sampled_from([v for w in WALLS for edge in (-w, w) for v in ulp_around(edge)])


@KERNEL
@given(st.sampled_from(WALLS), st.floats(-8.0, 8.0) | wall_side, st.floats(-8.0, 8.0) | wall_side)
def test_clamp_to_walls(half_width, x, y):
    world = SimpleNamespace(arena=Arena(half_width))
    cx, cy, clamped = clamp_to_walls(x, y, half_width)
    rx, ry, ref_clamped = ref_clamp_to_walls(world, x, y)
    assert (bits(cx, cy), clamped) == (bits(rx, ry), ref_clamped)


limits = st.builds(MotionLimits, linear_speed=st.floats(0.01, 2.0),
                   angular_speed=st.floats(0.01, 10.0), dt=st.floats(0.01, 0.2))


# an offset from the pose: within a step or two of the target, often
offset = st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)) | point


@KERNEL
@given(point, angle, offset, st.one_of(st.just(LIMITS), limits))
@example((0.0, 0.0), PI - 1e-9, (1.0, 0.0), LIMITS)  # target dead astern
@example((0.0, 0.0), math.nextafter(PI, 0.0), (-1.0, 1e-300), LIMITS)
@example((0.0, 0.0), 0.0, (0.05, 0.0), LIMITS)  # exactly at the arrival tolerance
@example((0.0, 0.0), HEADING_GATE_RAD + 0.1, (1.0, 0.0), LIMITS)  # lands on the gate
@example((0.97, 0.0), 0.0, (0.03, 0.0), LIMITS)  # one step short
@example((0.0, 0.0), 0.0, (0.1999, 0.0), MotionLimits(linear_speed=2.0))  # would overshoot
@example((0.0, 0.0), 0.0, (math.cos(0.09999), math.sin(0.09999)), LIMITS)  # just inside a turn
@example((0.0, 0.0), 0.0, (math.cos(0.09999), -math.sin(0.09999)), LIMITS)
def test_move_toward(p, heading, offset, lim):
    pose = RobotPose(p[0], p[1], heading)
    target = (p[0] + offset[0], p[1] + offset[1])
    expected = ref_move_toward(pose, target, lim)
    dist = math.hypot(target[0] - pose.x, target[1] - pose.y)
    assert bits(*move_toward(*pose, target, lim, dist)) == bits(expected.x, expected.y, expected.heading)


# -- apply_yield and translation_allowed -------------------------------------------

@KERNEL
@given(st.lists(point | knot, min_size=0, max_size=12))
@example([(0.0, 0.0), (0.35, 0.0)])  # exactly at the yield radius
@example([(0.0, 0.0), (math.nextafter(0.35, 0.0), 0.0)])
@example([(math.nextafter(0.35, 0.0), 0.0), (0.0, 0.0)])
@example([(0.0, 0.0), (0.21, 0.28), (0.0, -0.35), (-0.35, 0.0)])
def test_apply_yield(points):
    poses = [RobotPose(x, y, 0.0) for x, y in points]
    assert apply_yield(poses, LIMITS) == ref_apply_yield(poses, LIMITS)


@KERNEL
@given(st.lists(point | knot, min_size=1, max_size=10), st.data())
@example([(0.0, 0.0), (0.175, 0.0)], None)  # exactly at the hard radius
@example([(0.0, 0.0), (0.0, math.nextafter(0.175, 0.0))], None)
@example([(math.nextafter(0.175, 0.0), 0.0), (0.0, 0.0)], None)
@example([(-math.nextafter(0.175, 0.0), 0.0), (0.0, 0.0)], None)
@example([(0.105, 0.14), (0.0, 0.0)], None)
def test_translation_allowed(points, data):
    world = world_with(len(points))
    place(world, points)
    if data is None:
        robot, x, y = world.robots[-1], 0.0, 0.0
    else:
        robot = data.draw(st.sampled_from(world.robots))
        x, y = data.draw(point | knot)
    assert world.translation_allowed(robot, x, y) == ref_translation_allowed(world, robot, x, y)


# -- try_pickup ---------------------------------------------------------------------

# resource coordinates on multiples of 0.1 and 0.3 m lie on bucket edges
on_edges = st.integers(-26, 26).map(lambda k: k * 0.3) | st.integers(-80, 80).map(lambda k: k * 0.1)
resource = st.tuples(st.one_of(coord, on_edges), st.one_of(coord, on_edges))


@KERNEL
@given(st.lists(resource, max_size=40), st.data())
@example([(0.3, 0.0)], None)  # exactly at the pickup radius
@example([(-0.2, 0.0), (0.2, 0.0), (0.0, 0.2)], None)  # equidistant: the lowest index
@example([(0.6, 0.6), (0.3, 0.3), (0.0, 0.3), (0.3, 0.0)], None)
@example([(math.nextafter(0.3, 1.0), 0.0), (0.0, -0.3)], None)
def test_try_pickup(positions, data):
    fast, plain = world_with(1, positions), world_with(1, positions)
    if data is None:
        x, y, picked = 0.0, 0.0, [False] * len(positions)
    else:
        x, y = data.draw(resource if data.draw(st.booleans()) else point)
        picked = data.draw(st.lists(st.booleans(), min_size=len(positions),
                                    max_size=len(positions)))
    for world in (fast, plain):
        world.resources.picked[:] = picked
        place(world, [(x, y)])
    for _ in range(3):  # again, with what the last pickup took
        got = fast.try_pickup(fast.robots[0])
        assert got == ref_try_pickup(plain, plain.robots[0])
        assert np.array_equal(fast.resources.picked, plain.resources.picked)
        assert fast.event_log == plain.event_log
        if got is None:
            break


# -- PheromoneManager.prune -----------------------------------------------------------

def waypoints(decay_rate: float, now: float, ordered: bool):
    """Creation times up to ``now``, clustered around the expiry age."""
    if decay_rate > 0:
        edge = max(0.0, now - EXPIRY_AGE / decay_rate)
        near = st.sampled_from(ulp_around(edge)) | st.floats(0.9 * edge, min(now, 1.1 * edge + 1e-9))
        born = st.one_of(near, st.floats(0.0, now))
    else:
        born = st.floats(0.0, now)
    times = st.lists(born.map(lambda t: min(t, now)), max_size=8)
    return times.map(sorted) if ordered else times


@KERNEL
@given(st.sampled_from([0.0, 50.0, 1.0]) | st.floats(0.0, 50.0),
       st.floats(0.0, 1200.0), st.booleans(), st.data())
@example(0.1, 70.0, False, None)
def test_prune(decay_rate, now, ordered, data):
    if data is None:  # out of time order, an expired waypoint between live ones
        times = [60.0, 0.0, 50.0]
    else:
        times = data.draw(waypoints(decay_rate, now, ordered))
    fast, plain = PheromoneManager(decay_rate), PheromoneManager(decay_rate)
    fast.waypoints = [PheromoneWaypoint((float(i), 0.0), t) for i, t in enumerate(times)]
    plain.waypoints = list(fast.waypoints)
    fast.prune(now)
    ref_prune(plain, now)
    assert fast.waypoints == plain.waypoints
