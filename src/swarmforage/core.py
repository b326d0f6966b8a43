"""Foundational domain types and shared numerics.

Everything downstream (layouts, controllers, the trial engine, the GA
tuner) builds on the types and primitives here: the seven controller
parameters, arena geometry, pheromone waypoints with exponential decay,
the Poisson CDF used by the stochastic decision rules, and named,
independently seeded RNG streams so trials replay exactly.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

SIGMA_MAX = 4.0 * math.pi

# Pheromone waypoints start at strength 1 and expire below this strength.
PHEROMONE_EXPIRY_THRESHOLD = 1e-3

# Sampling ranges for the seven controller parameters, also used as
# clamp bounds by the GA operators.  The two decay rates are drawn from
# exponential distributions and clamped to [0, 50].
PARAM_RANGES: dict[str, tuple[float, float]] = {
    "p_s": (0.0, 1.0),
    "p_r": (0.0, 1.0),
    "rho_u": (0.0, SIGMA_MAX),
    "lambda_i": (0.0, 50.0),
    "lambda_f": (0.0, 20.0),
    "lambda_lp": (0.0, 20.0),
    "lambda_d": (0.0, 50.0),
}

PARAM_NAMES = tuple(PARAM_RANGES)


class FatalPolicyError(Exception):
    """Policy-layer failures that must abort the trial instead of being
    absorbed by the fallback cascade (e.g. a replay cassette miss)."""


@dataclass(frozen=True)
class CpfaParams:
    """The seven evolvable reals governing stochastic foraging decisions.

    p_s        probability of switching from travel to searching (per 1 s tick)
    p_r        probability of giving up an unsuccessful search (per 1 s tick)
    rho_u      turning-angle std of the uninformed random walk, radians
    lambda_i   decay rate of the informed-search turning spread, 1/s
    lambda_f   Poisson rate for the site-fidelity decision
    lambda_lp  Poisson rate for the pheromone-laying decision
    lambda_d   pheromone decay rate, 1/s
    """

    p_s: float
    p_r: float
    rho_u: float
    lambda_i: float
    lambda_f: float
    lambda_lp: float
    lambda_d: float

    def __post_init__(self):
        for name in PARAM_NAMES:
            lo, hi = PARAM_RANGES[name]
            value = getattr(self, name)
            if not (lo <= value <= hi):
                raise ValueError(f"{name}={value} outside [{lo}, {hi}]")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @classmethod
    def from_dict(cls, values: dict[str, float]) -> "CpfaParams":
        return cls(**{name: float(values[name]) for name in PARAM_NAMES})


# Hand-tuned defaults used when no GA-trained parameter file is supplied.
DEFAULT_PARAMS = CpfaParams(
    p_s=0.15,
    p_r=0.02,
    rho_u=1.0,
    lambda_i=0.3,
    lambda_f=2.0,
    lambda_lp=2.0,
    lambda_d=0.05,
)


@dataclass(frozen=True)
class Arena:
    """Square arena centred on the origin with a central collection zone."""

    half_width: float
    center_zone_radius: float = 0.5

    def __post_init__(self):
        if self.center_zone_radius >= self.half_width:
            raise ValueError("center zone must fit inside the arena")

    @classmethod
    def square(cls, side: float) -> "Arena":
        return cls(side / 2.0)

    def contains(self, x: float, y: float) -> bool:
        return abs(x) <= self.half_width and abs(y) <= self.half_width


@dataclass(frozen=True)
class PheromoneWaypoint:
    """A shared virtual marker at a resource-rich location."""

    location: tuple[float, float]
    created_at: float


def poisson_cdf(c: float, lam: float) -> float:
    """P(X <= floor(c)) for X ~ Poisson(lam).

    Real-valued ``c`` is floored so the operation is total over counts.
    Raises ValueError on negative arguments.
    """
    if c < 0 or lam < 0:
        raise ValueError(f"poisson_cdf requires c >= 0 and lam >= 0, got ({c}, {lam})")
    k = math.floor(c)
    term = math.exp(-lam)
    total = term
    for i in range(1, k + 1):
        term *= lam / i
        total += term
        if term == 0.0:
            break
    return min(total, 1.0)


def pheromone_strength(waypoint: PheromoneWaypoint, now: float, decay_rate: float) -> float:
    """Exponentially decayed strength of a waypoint at time ``now``."""
    age = now - waypoint.created_at
    if age < 0:
        raise ValueError(f"waypoint created at {waypoint.created_at} queried at {now}")
    return math.exp(-decay_rate * age)


def derive_seed(master_seed: int, *names) -> int:
    """Stable 63-bit seed for a named consumer of ``master_seed``.

    Hash-based so the result is independent of platform and of the order
    in which other consumers draw.
    """
    text = f"{master_seed}" + "".join(f"/{n}" for n in names)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class RngStreams:
    """Named, independent RNG streams derived from one master seed.

    Identical master seeds produce bit-identical draws per stream name,
    regardless of how other streams are consumed, so a trial replays
    exactly no matter the robot update schedule.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.master_seed, name))
            self._streams[name] = gen
        return gen

    def robot(self, robot_index: int) -> np.random.Generator:
        return self.stream(f"robot/{robot_index}")

    def policy(self, robot_index: int) -> np.random.Generator:
        return self.stream(f"policy/{robot_index}")


def load_params(path) -> CpfaParams:
    """Read the seven parameters from ``name = value`` text."""
    values: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, raw = line.partition("=")
            values[name.strip()] = float(raw.strip())
    missing = [n for n in PARAM_NAMES if n not in values]
    if missing:
        raise ValueError(f"parameter file {path} missing {missing}")
    return CpfaParams.from_dict(values)


def save_params(params: CpfaParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name in PARAM_NAMES:
            fh.write(f"{name} = {getattr(params, name)!r}\n")
