"""Correctness checks for the benchmark's outputs.

Every check compares the program's output with a rule written out here
or with a computation made here, never with a stored copy of an earlier
output.  Each function returns a list of problems; an empty list means
the output passed.
"""
from __future__ import annotations

import math

import numpy as np

# Allowed actions per decision point, as the decision protocol defines them.
CENTER_ACTIONS = frozenset({"USE_SITE_FIDELITY", "FOLLOW_PHEROMONE", "UNINFORMED_SEARCH"})
STARVATION_ACTIONS = frozenset({"CONTINUE_SEARCH", "RETURN_FOR_INFO"})
WHITELIST = {
    "POST_DEPOSIT_DECISION": CENTER_ACTIONS,
    "CENTRAL_ZONE_ARRIVAL": CENTER_ACTIONS,
    "SEARCH_STARVATION": STARVATION_ACTIONS,
}
INITIAL_STATE = "DISPERSING"

# The scripted decision rule: a search older than this returns for information.
SCRIPTED_STARVATION_CUTOFF_S = 180.0
# Starvation fires this long into a search, then at this period.
STARVATION_AFTER_S = 60.0
STARVATION_EVERY_S = 30.0

# Clustered layouts: four groups that single linkage separates at this radius.
CLUSTER_LINK_RADIUS = 2 * 0.15
CLUSTER_COUNT = 4
# Powerlaw layouts: one pile of a quarter of the stock, four equal
# middle clusters, sixteen singles.
POWERLAW_SINGLES = 16
POWERLAW_MIDDLE = 4

# Keep a failing output's report short.
MAX_PROBLEMS = 20


def _capped(problems: list[str]) -> list[str]:
    if len(problems) > MAX_PROBLEMS:
        return problems[:MAX_PROBLEMS] + [f"... {len(problems) - MAX_PROBLEMS} more"]
    return problems


def check_trial_log(events: list[dict], *, deposits: int, team: int,
                    half_width: float, keep_out: float, label: str = "") -> list[str]:
    """Structural rules every trial's event log must obey.

    The DEPOSIT count equals ``deposits`` and their totals run 1..n;
    pickups minus deposits lies in [0, team]; pickup locations are
    distinct, inside the walls and outside the keep-out disc; each
    robot's STATE ``from`` equals its previous ``to``; every decided
    action is in its event type's whitelist; times never decrease.
    """
    problems: list[str] = []
    last_t = -math.inf
    states: dict = {}
    totals: list[int] = []
    pickups: list[tuple] = []
    for i, event in enumerate(events):
        where = f"{label} event {i}"
        t = event["t"]
        if t < last_t:
            problems.append(f"{where}: time {t} before {last_t}")
        last_t = max(last_t, t)
        kind, payload, robot = event["kind"], event["payload"], event["robot"]
        if kind == "DEPOSIT":
            totals.append(payload["total"])
        elif kind == "PICKUP":
            pickups.append(tuple(payload["location"]))
        elif kind == "STATE":
            previous = states.get(robot, INITIAL_STATE)
            if payload["from"] != previous:
                problems.append(f"{where}: {robot} STATE from {payload['from']} after {previous}")
            states[robot] = payload["to"]
        elif kind == "DECISION":
            allowed = WHITELIST.get(payload["event_type"])
            if allowed is None:
                problems.append(f"{where}: unknown event type {payload['event_type']}")
                continue
            for key in ("action", "requested_action"):
                if key in payload and payload[key] not in allowed:
                    problems.append(f"{where}: {key} {payload[key]} not allowed for "
                                    f"{payload['event_type']}")
    if len(totals) != deposits:
        problems.append(f"{label}: {len(totals)} DEPOSIT events, result says {deposits}")
    if totals != list(range(1, len(totals) + 1)):
        problems.append(f"{label}: DEPOSIT totals do not run 1..{len(totals)}")
    carried = len(pickups) - len(totals)
    if not 0 <= carried <= team:
        problems.append(f"{label}: pickups minus deposits is {carried}, team is {team}")
    if len(set(pickups)) != len(pickups):
        problems.append(f"{label}: a resource was picked up twice")
    for x, y in pickups:
        if abs(x) > half_width or abs(y) > half_width:
            problems.append(f"{label}: pickup at ({x}, {y}) outside the walls")
        elif math.hypot(x, y) <= keep_out:
            problems.append(f"{label}: pickup at ({x}, {y}) inside the keep-out disc")
    return _capped(problems)


def scripted_action(context: dict) -> str:
    """The scripted rule, applied to a decision's logged context."""
    pheromones = context["active_pheromone_count"]
    if context["event_type"] == "SEARCH_STARVATION":
        if pheromones > 0 or context["time_since_last_pickup"] > SCRIPTED_STARVATION_CUTOFF_S:
            return "RETURN_FOR_INFO"
        return "CONTINUE_SEARCH"
    if context["resource_density"] > 0 and "last_pickup_location" in context:
        return "USE_SITE_FIDELITY"
    if pheromones > 0:
        return "FOLLOW_PHEROMONE"
    return "UNINFORMED_SEARCH"


def check_scripted_decisions(events: list[dict], label: str = "") -> list[str]:
    """Every answered decision follows the scripted rule.

    A ``degraded`` decision is one the controller could not carry out
    (no waypoint or no memory): its ``requested_action`` follows the rule
    and it fell back to uninformed search.  Fallback decisions are
    counted as failed calls elsewhere and are skipped here.
    """
    problems: list[str] = []
    for i, event in enumerate(events):
        if event["kind"] != "DECISION":
            continue
        payload = event["payload"]
        expected = scripted_action(payload["context"])
        source = payload["source"]
        if source == "fallback":
            continue
        if source == "degraded":
            got = payload.get("requested_action")
            if payload["action"] != "UNINFORMED_SEARCH":
                problems.append(f"{label} event {i}: degraded to {payload['action']}")
        elif source == "llm":
            got = payload["action"]
        else:
            problems.append(f"{label} event {i}: unexpected decision source {source}")
            continue
        if got != expected:
            problems.append(f"{label} event {i}: action {got}, scripted rule gives {expected}")
    return _capped(problems)


def check_starvation_timing(events: list[dict], *, dt: float, last_step_t: float,
                            label: str = "") -> list[str]:
    """Starvation fires 60 s into each search, then every 30 s, and is
    never skipped while a robot keeps searching."""
    tolerance = dt + 1e-9
    problems: list[str] = []
    due: dict = {}  # robot -> time its next starvation decision is due
    for i, event in enumerate(events):
        robot, t, kind, payload = event["robot"], event["t"], event["kind"], event["payload"]
        if kind == "STATE":
            searching_before = payload["from"].startswith("SEARCHING")
            searching_after = payload["to"].startswith("SEARCHING")
            if searching_before and robot in due and t > due[robot] + tolerance:
                problems.append(f"{label} event {i}: {robot} left search at {t}, "
                                f"starvation was due at {due[robot]}")
            if searching_after and not searching_before:
                due[robot] = t + STARVATION_AFTER_S
            elif not searching_after:
                due.pop(robot, None)
        elif kind == "DECISION" and payload["event_type"] == "SEARCH_STARVATION":
            if robot not in due:
                problems.append(f"{label} event {i}: {robot} starved outside a search")
                continue
            if abs(t - due[robot]) > tolerance:
                problems.append(f"{label} event {i}: {robot} starved at {t}, due at {due[robot]}")
            due[robot] = t + STARVATION_EVERY_S
    for robot, when in due.items():
        if when + tolerance < last_step_t:
            problems.append(f"{label}: {robot} still searching, starvation due at {when} never fired")
    return _capped(problems)


def strip_latency(events: list[dict]) -> list[dict]:
    """The event log without the wall-clock ``latency`` of decisions."""
    out = []
    for event in events:
        if event["kind"] == "DECISION" and "latency" in event["payload"]:
            payload = {k: v for k, v in event["payload"].items() if k != "latency"}
            event = {**event, "payload": payload}
        out.append(event)
    return out


def squared_distances(points: np.ndarray) -> np.ndarray:
    """All pairwise squared distances of (n, 2) points."""
    dx = np.subtract.outer(points[:, 0], points[:, 0])
    dy = np.subtract.outer(points[:, 1], points[:, 1])
    return dx * dx + dy * dy


def single_linkage_sizes(points: np.ndarray, radius: float) -> list[int]:
    """Sizes, largest first, of the groups formed by linking points
    closer than ``radius`` (min-label propagation over the links, with
    pointer jumping)."""
    n = len(points)
    if n == 0:
        return []
    a, b = np.nonzero(np.triu(squared_distances(points) <= radius * radius, k=1))
    labels = np.arange(n)
    while True:
        before = labels
        low = np.minimum(labels[a], labels[b])
        labels = labels.copy()
        np.minimum.at(labels, a, low)
        np.minimum.at(labels, b, low)
        labels = labels[labels]
        if np.array_equal(labels, before):
            break
    return sorted(np.unique(labels, return_counts=True)[1].tolist(), reverse=True)


def powerlaw_sizes(count: int) -> list[int]:
    """Cluster sizes of the powerlaw layout, largest first, by its rank
    rule: a quarter of the stock in one pile, sixteen singles, and the
    remainder split evenly over four middle clusters."""
    top = count // 4
    middle = (count - top - POWERLAW_SINGLES) // POWERLAW_MIDDLE
    return [top] + [middle] * POWERLAW_MIDDLE + [1] * POWERLAW_SINGLES


def check_layout(positions: np.ndarray, *, distribution: str, count: int,
                 half_width: float, keep_out: float, min_spacing: float,
                 label: str = "") -> list[str]:
    """Count, walls, keep-out disc, and the distribution's structure."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    if len(pos) != count:
        return [f"{label}: {len(pos)} points, expected {count}"]
    problems = []
    if np.any(np.abs(pos) > half_width):
        problems.append(f"{label}: a point lies outside the walls")
    if np.any(np.hypot(pos[:, 0], pos[:, 1]) <= keep_out):
        problems.append(f"{label}: a point lies inside the keep-out disc")
    if distribution == "random" and count > 1:
        d2 = squared_distances(pos)
        np.fill_diagonal(d2, np.inf)
        if d2.min() < min_spacing * min_spacing:
            problems.append(f"{label}: points {np.sqrt(d2.min()):.4f} apart, "
                            f"spacing is {min_spacing}")
    elif distribution == "clustered":
        groups = len(single_linkage_sizes(pos, CLUSTER_LINK_RADIUS))
        if groups != CLUSTER_COUNT:
            problems.append(f"{label}: {groups} single-linkage groups, expected {CLUSTER_COUNT}")
    elif distribution == "powerlaw":
        sizes = single_linkage_sizes(pos, CLUSTER_LINK_RADIUS)
        if sizes != powerlaw_sizes(count):
            problems.append(f"{label}: group sizes {sizes} break the rank schedule")
    return problems


def check_ga_history(history: list, best: dict, *, generations: int, resource_count: int,
                     ranges: dict) -> list[str]:
    """Best-so-far is monotone, fitness lies in [0, resource count], and
    the best genome lies inside the parameter ranges."""
    problems = []
    if len(history) != generations:
        problems.append(f"{len(history)} generations recorded, expected {generations}")
    curve = [h.best_so_far for h in history]
    if any(b < a for a, b in zip(curve, curve[1:])):
        problems.append(f"best-so-far dipped: {curve}")
    for h in history:
        for value in (h.best_fitness, h.mean_fitness, h.best_so_far):
            if not 0.0 <= value <= resource_count:
                problems.append(f"generation {h.generation}: fitness {value} outside "
                                f"[0, {resource_count}]")
        if h.mean_fitness > h.best_fitness + 1e-9:
            problems.append(f"generation {h.generation}: mean above best")
    for name, (lo, hi) in ranges.items():
        value = best.get(name)
        if value is None or not lo <= value <= hi:
            problems.append(f"best genome {name}={value} outside [{lo}, {hi}]")
    if history and history[-1].best_genome != best:
        problems.append("returned genome differs from the last best-so-far genome")
    return problems
