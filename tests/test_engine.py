import math
from collections import namedtuple

import numpy as np
import pytest

from swarmforage.core import Arena, DEFAULT_PARAMS, CpfaParams
from swarmforage.engine import PheromoneManager, TrialConfig, World, run_trial
from swarmforage.kinematics import MotionLimits, apply_yield, move_toward, wrap_angle
from swarmforage.layouts import Distribution, LayoutSpec, ResourceField

LIMITS = MotionLimits()
RobotPose = namedtuple("RobotPose", "x y heading")


def drive(pose, target):
    """``move_toward`` with the distance its caller computes beforehand."""
    return move_toward(*pose, target, LIMITS, math.hypot(target[0] - pose.x, target[1] - pose.y))


def trial_config(dist="clustered", count=64, side=6.0, team=4, policy="cascade",
                 duration=120.0, seed=1, layout_seed=None, params=DEFAULT_PARAMS):
    arena = Arena.square(side)
    layout = LayoutSpec(Distribution(dist), count, arena,
                        seed=layout_seed if layout_seed is not None else seed)
    return TrialConfig(arena=arena, team_size=team, layout=layout, params=params,
                       policy=policy, duration=duration, seed=seed)


class TestMoveToward:
    def test_at_target_unchanged(self):
        pose = RobotPose(1.0, 1.0, 0.3)
        assert drive(pose, (1.02, 1.0)) == (1.0, 1.0, 0.3)

    def test_reversed_heading_turns_in_place(self):
        pose = RobotPose(0.0, 0.0, math.pi - 1e-9)  # target dead astern
        x, y, heading = drive(pose, (1.0, 0.0))
        assert (x, y) == (0.0, 0.0)
        assert heading == pytest.approx(wrap_angle(pose.heading - 0.1), abs=1e-9)

    def test_straight_line_step_count(self):
        # from 1 m out, 0.03 m per step, arrival tolerance 0.05
        expected_steps = math.ceil((1.0 - LIMITS.arrival_tolerance) / (LIMITS.linear_speed * LIMITS.dt))
        pose = RobotPose(0.0, 0.0, 0.0)
        steps = 0
        while math.hypot(1.0 - pose.x, 0.0 - pose.y) > LIMITS.arrival_tolerance:
            pose = RobotPose(*drive(pose, (1.0, 0.0)))
            steps += 1
            assert steps < 100
        assert steps == expected_steps == 32

    def test_never_overshoots(self):
        pose = RobotPose(0.97, 0.0, 0.0)
        x, _y, _heading = drive(pose, (1.0, 0.0))
        assert x <= 1.0 + 1e-12

    def test_gated_drive_above_30_degrees(self):
        pose = RobotPose(0.0, 0.0, math.radians(40))
        x, y, _heading = drive(pose, (1.0, 0.0))
        # after one 0.1 rad turn the error is ~0.598 rad > 30 deg: no translation
        assert (x, y) == (0.0, 0.0)


class TestApplyYield:
    def test_far_apart_ungated(self):
        poses = [RobotPose(0.0, 0.0, 0.0), RobotPose(5.0, 0.0, 0.0)]
        assert apply_yield(poses, LIMITS) == [False, False]

    def test_close_pair_gates_higher_id(self):
        poses = [RobotPose(0.0, 0.0, 0.0), RobotPose(0.2, 0.0, 0.0)]
        assert apply_yield(poses, LIMITS) == [False, True]

    def test_triple_gates_all_but_lowest(self):
        poses = [RobotPose(0.0, 0.0, 0.0), RobotPose(0.2, 0.0, 0.0), RobotPose(0.1, 0.1, 0.0)]
        assert apply_yield(poses, LIMITS) == [False, True, True]


class TestPickupDeposit:
    def make_world(self, positions):
        config = trial_config(duration=0.0)
        resources = ResourceField.from_positions(np.asarray(positions, dtype=float).reshape(-1, 2))
        return World(config, resources=resources)

    def test_nothing_in_range(self):
        world = self.make_world([[2.0, 2.0]])
        robot = world.robots[0]
        robot.x, robot.y = -2.0, -2.0
        assert world.try_pickup(robot) is None

    def test_isolated_pickup_density_zero(self):
        world = self.make_world([[2.0, 2.0]])
        robot = world.robots[0]
        robot.x, robot.y = 2.1, 2.0
        assert world.try_pickup(robot) == ((2.0, 2.0), 0)
        assert world.resources.remaining() == 0

    def test_cluster_pickup_counts_remaining_neighbors(self):
        # pickup target plus three neighbours inside the 0.5 m density disc
        world = self.make_world([[2.0, 2.0], [2.2, 2.0], [2.0, 2.2], [2.3, 2.3], [4.0, 4.0]])
        robot = world.robots[0]
        robot.x, robot.y = 2.05, 2.0
        assert world.try_pickup(robot) == ((2.0, 2.0), 3)

    def test_nearest_is_taken(self):
        world = self.make_world([[2.0, 2.0], [2.1, 2.0]])
        robot = world.robots[0]
        robot.x, robot.y = 2.12, 2.0
        location, _density = world.try_pickup(robot)
        assert location == (2.1, 2.0)


class TestTrials:
    def test_zero_duration(self):
        result = run_trial(trial_config(duration=0.0))
        assert result.deposits == 0
        assert result.event_log == []

    def test_determinism_repeated_runs(self):
        config = trial_config(policy="cascade", duration=300.0, seed=7)
        a, b = run_trial(config), run_trial(config)
        assert a.deposits == b.deposits
        assert a.log_bytes() == b.log_bytes()

    def test_conservation_every_step(self):
        config = trial_config(policy="scripted", duration=120.0, seed=3)
        world = World(config)
        initial = len(world.resources)
        for _ in range(1200):
            world.step()
            assert world.deposits + world.carrying_count() + world.resources.remaining() == initial

    def test_deposit_monotone_and_no_teleport(self):
        config = trial_config(policy="cascade", duration=120.0, seed=5)
        world = World(config)
        max_step = world.limits.linear_speed * world.limits.dt + 1e-9
        last_positions = [(r.x, r.y) for r in world.robots]
        last_deposits = 0
        for _ in range(1200):
            world.step()
            assert world.deposits >= last_deposits
            last_deposits = world.deposits
            for robot, (px, py) in zip(world.robots, last_positions):
                assert math.hypot(robot.x - px, robot.y - py) <= max_step
            last_positions = [(r.x, r.y) for r in world.robots]

    def test_yield_safety_floor(self):
        config = trial_config(team=8, policy="cascade", duration=60.0, seed=9)
        world = World(config)
        floor = 0.5 * world.limits.yield_radius - 1e-9
        for _ in range(600):
            world.step()
            poses = [(r.x, r.y) for r in world.robots]
            for i in range(len(poses)):
                for j in range(i + 1, len(poses)):
                    assert math.hypot(poses[i][0] - poses[j][0], poses[i][1] - poses[j][1]) >= floor

    def test_robots_stay_in_walls(self):
        config = trial_config(policy="cascade", duration=120.0, seed=2)
        world = World(config)
        for _ in range(1200):
            world.step()
            for robot in world.robots:
                assert abs(robot.x) <= world.arena.half_width + 1e-9
                assert abs(robot.y) <= world.arena.half_width + 1e-9

    def test_deposits_counted_in_log(self):
        result = run_trial(trial_config(policy="scripted", duration=300.0, seed=4))
        deposit_events = [e for e in result.event_log if e["kind"] == "DEPOSIT"]
        assert len(deposit_events) == result.deposits

    def test_settings_audited(self):
        result = run_trial(trial_config(duration=0.0))
        for key in ("yield_radius", "arrival_tolerance", "density_radius",
                    "center_zone_radius", "exclusion_radius", "dt", "params"):
            assert key in result.settings

    def test_policy_init_failure(self):
        from swarmforage.engine import TrialError

        config = trial_config(policy="llm", duration=10.0)  # no gateway config
        with pytest.raises(TrialError):
            World(config)

    def test_invalid_policy_name(self):
        from swarmforage.engine import TrialError

        with pytest.raises(TrialError):
            World(trial_config(policy="nonsense", duration=1.0))


class TestPheromoneManager:
    def test_selection_proportional_to_strength(self):
        manager = PheromoneManager(decay_rate=0.1)
        manager.add((1.0, 0.0), now=0.0)
        manager.add((2.0, 0.0), now=20.0)  # much fresher, ~7.4x weight
        rng = np.random.default_rng(0)
        picks = [manager.select(20.0, rng).location[0] for _ in range(2000)]
        frac_fresh = sum(1 for p in picks if p == 2.0) / len(picks)
        expected = 1.0 / (1.0 + math.exp(-2.0))
        assert abs(frac_fresh - expected) < 0.04

    def test_summary_cap_and_order(self):
        manager = PheromoneManager(decay_rate=0.1)
        for i in range(15):
            manager.add((float(i), 0.0), now=float(i))
        summary = manager.summary(15.0)
        assert len(summary) == 10
        strengths = [s for _, s in summary]
        assert strengths == sorted(strengths, reverse=True)
        assert manager.count() == 15

    def test_empty_select(self):
        manager = PheromoneManager(decay_rate=0.1)
        assert manager.select(0.0, np.random.default_rng(0)) is None


class TestMoreInvariants:
    def test_yield_safety_across_seeds(self):
        floor_margin = 1e-9
        for seed in range(10):
            config = trial_config(team=6, policy="cascade", duration=40.0, seed=100 + seed)
            world = World(config)
            floor = 0.5 * world.limits.yield_radius - floor_margin
            for _ in range(400):
                world.step()
                poses = [(r.x, r.y) for r in world.robots]
                for i in range(len(poses)):
                    for j in range(i + 1, len(poses)):
                        d = math.hypot(poses[i][0] - poses[j][0], poses[i][1] - poses[j][1])
                        assert d >= floor, (seed, i, j, d)

    def test_uninformed_policy_deterministic(self):
        config = trial_config(policy="uninformed", duration=300.0, seed=7)
        a, b = run_trial(config), run_trial(config)
        assert a.deposits == b.deposits
        assert a.log_bytes() == b.log_bytes()

    def test_injected_latency_holds_robot_and_records(self):
        from swarmforage.gateway import GatewayConfig

        gateway = GatewayConfig(mode="mock", mock_behavior="scripted", injected_latency=2.0)
        config = trial_config(policy="llm", duration=180.0, seed=3)
        config.gateway = gateway
        result = run_trial(config)
        assert result.llm_calls > 0
        assert all(latency == 2.0 for latency in result.latency_samples)
        # the robot sits at the decision point for the injected window:
        # every AT_CENTER visit lasts at least the injected 2 s
        entries = {}
        held = 0
        for event in result.event_log:
            if event["kind"] != "STATE":
                continue
            robot = event["robot"]
            if event["payload"]["to"] == "AT_CENTER":
                entries[robot] = event["t"]
            elif event["payload"]["from"] == "AT_CENTER":
                assert event["t"] >= entries[robot] + 2.0 - 0.11
                held += 1
        assert held > 0
