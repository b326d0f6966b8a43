"""Initial resource placement: clustered, powerlaw, and random layouts.

All generators are pure functions of a LayoutSpec (including its seed),
so identical specs always yield identical fields.  Points are kept
inside the walls and outside a central exclusion disc so nothing spawns
pre-deposited.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import Arena, derive_seed

# Grid pitch inside a cluster: half the pickup radius, dense enough that
# one pickup leaves neighbours inside the density-sensing disc.
CLUSTER_PITCH = 0.15
# Minimum gap between the closest points of two clusters; keeps clusters
# separable by single-linkage at twice the pitch.
CLUSTER_GAP = 0.4
# Keep-out band added around the central collection zone.
EXCLUSION_MARGIN = 0.3

RANDOM_MIN_SPACING = 0.05
MAX_POINT_ATTEMPTS = 10_000
MAX_ANCHOR_ATTEMPTS = 2_000
MAX_LAYOUT_RESTARTS = 100


class Distribution(enum.Enum):
    CLUSTERED = "clustered"
    POWERLAW = "powerlaw"
    RANDOM = "random"


class LayoutError(Exception):
    """Raised when a layout cannot be generated for the given spec."""


@dataclass(frozen=True)
class LayoutSpec:
    distribution: Distribution
    resource_count: int
    arena: Arena
    seed: int
    min_spacing: float = RANDOM_MIN_SPACING

    def __post_init__(self):
        if self.resource_count < 0:
            raise ValueError("resource_count must be nonnegative")

    @property
    def keep_out(self) -> float:
        return self.arena.center_zone_radius + EXCLUSION_MARGIN


@dataclass
class ResourceField:
    """Resource positions plus a picked mask mutated during a trial."""

    positions: np.ndarray  # (n, 2) float64
    picked: np.ndarray  # (n,) bool

    @classmethod
    def from_positions(cls, positions: np.ndarray) -> "ResourceField":
        positions = np.asarray(positions, dtype=float).reshape(-1, 2)
        return cls(positions=positions, picked=np.zeros(len(positions), dtype=bool))

    def __len__(self) -> int:
        return len(self.positions)

    def remaining(self) -> int:
        return int((~self.picked).sum())


def _admissible(points: np.ndarray, spec: LayoutSpec) -> bool:
    """All points inside the walls and outside the central keep-out disc."""
    if len(points) == 0:
        return True
    if np.any(np.abs(points) > spec.arena.half_width):
        return False
    return bool(np.all(np.hypot(points[:, 0], points[:, 1]) > spec.keep_out))


def gen_random(spec: LayoutSpec) -> ResourceField:
    """Uniform i.i.d. points over the admissible region, rejection-sampled."""
    if spec.distribution is not Distribution.RANDOM:
        raise ValueError("spec.distribution must be RANDOM")
    rng = np.random.default_rng(derive_seed(spec.seed, "layout", "random"))
    arena = spec.arena
    placed: list[tuple[float, float]] = []
    for _ in range(spec.resource_count):
        for attempt in range(MAX_POINT_ATTEMPTS):
            x = rng.uniform(-arena.half_width, arena.half_width)
            y = rng.uniform(-arena.half_width, arena.half_width)
            if math.hypot(x, y) <= spec.keep_out:
                continue
            if placed:
                arr = np.asarray(placed)
                if np.min(np.hypot(arr[:, 0] - x, arr[:, 1] - y)) < spec.min_spacing:
                    continue
            placed.append((x, y))
            break
        else:
            raise LayoutError(
                f"could not place {spec.resource_count} points at spacing "
                f"{spec.min_spacing} after {MAX_POINT_ATTEMPTS} attempts"
            )
    return ResourceField.from_positions(np.asarray(placed).reshape(-1, 2))


def _cluster_grid(size: int) -> np.ndarray:
    """Local offsets for a cluster of ``size`` points.

    A full cluster is an 8x8 grid at CLUSTER_PITCH; smaller clusters fill
    a centred sub-grid row-major.
    """
    if size <= 0:
        return np.zeros((0, 2))
    side = math.ceil(math.sqrt(size))
    coords = []
    for idx in range(size):
        row, col = divmod(idx, side)
        coords.append((col, row))
    coords = np.asarray(coords, dtype=float)
    # centre the occupied cells on the anchor
    coords -= coords.mean(axis=0)
    return coords * CLUSTER_PITCH


def _cluster_radius(size: int) -> float:
    """Circumradius of a cluster footprint, for anchor separation tests."""
    offsets = _cluster_grid(size)
    if len(offsets) == 0:
        return 0.0
    return float(np.max(np.hypot(offsets[:, 0], offsets[:, 1])))


def _place_clusters(spec: LayoutSpec, sizes: list[int], rng: np.random.Generator) -> ResourceField:
    """Drop one grid cluster per entry of ``sizes``, largest first."""
    arena = spec.arena
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    for _restart in range(MAX_LAYOUT_RESTARTS):
        anchors: list[tuple[float, float]] = []
        radii: list[float] = []
        chunks: list[np.ndarray] = [np.zeros((0, 2))] * len(sizes)
        ok = True
        for idx in order:
            size = sizes[idx]
            offsets = _cluster_grid(size)
            radius = _cluster_radius(size)
            for attempt in range(MAX_ANCHOR_ATTEMPTS):
                ax = rng.uniform(-arena.half_width, arena.half_width)
                ay = rng.uniform(-arena.half_width, arena.half_width)
                points = offsets + (ax, ay)
                if not _admissible(points, spec):
                    continue
                clash = False
                for (bx, by), br in zip(anchors, radii):
                    if math.hypot(ax - bx, ay - by) < radius + br + CLUSTER_GAP:
                        clash = True
                        break
                if clash:
                    continue
                anchors.append((ax, ay))
                radii.append(radius)
                chunks[idx] = points
                break
            else:
                ok = False
                break
        if ok:
            return ResourceField.from_positions(np.vstack(chunks))
    raise LayoutError(
        f"could not place clusters {sizes} in a "
        f"{2 * arena.half_width:g} m arena after {MAX_LAYOUT_RESTARTS} restarts"
    )


def gen_clustered(spec: LayoutSpec) -> ResourceField:
    """Four equally-sized grid clusters dropped uniformly in the arena."""
    if spec.distribution is not Distribution.CLUSTERED:
        raise ValueError("spec.distribution must be CLUSTERED")
    if spec.resource_count == 0:
        return ResourceField.from_positions(np.zeros((0, 2)))
    if spec.resource_count % 4 != 0:
        raise LayoutError(f"clustered layout needs a count divisible by 4, got {spec.resource_count}")
    rng = np.random.default_rng(derive_seed(spec.seed, "layout", "clustered"))
    sizes = [spec.resource_count // 4] * 4
    return _place_clusters(spec, sizes, rng)


def powerlaw_schedule(count: int) -> list[tuple[int, int]]:
    """Cluster schedule for the powerlaw layout as (clusters, size) rows.

    Rank r holds 4**r clusters; the top rank is one dense pile of a
    quarter of the stock, the bottom rank is singles, and the middle rank
    absorbs the remainder evenly.  count=64 -> [(1,16), (4,8), (16,1)].
    """
    if count == 0:
        return []
    top = count // 4
    mid_total = count - top - 16
    if top < 1 or mid_total < 4 or mid_total % 4 != 0:
        raise LayoutError(f"count {count} not expressible by the rank-4 schedule")
    mid = mid_total // 4
    schedule = [(1, top), (4, mid), (16, 1)]
    if not top > mid > 1:
        raise LayoutError(f"count {count} yields a non-decaying schedule {schedule}")
    assert sum(n * s for n, s in schedule) == count
    return schedule


def gen_powerlaw(spec: LayoutSpec) -> ResourceField:
    """Heavy-tailed mixture of dense piles and scattered singles."""
    if spec.distribution is not Distribution.POWERLAW:
        raise ValueError("spec.distribution must be POWERLAW")
    schedule = powerlaw_schedule(spec.resource_count)
    if not schedule:
        return ResourceField.from_positions(np.zeros((0, 2)))
    rng = np.random.default_rng(derive_seed(spec.seed, "layout", "powerlaw"))
    sizes: list[int] = []
    for n_clusters, size in schedule:
        sizes.extend([size] * n_clusters)
    return _place_clusters(spec, sizes, rng)


def generate(spec: LayoutSpec) -> ResourceField:
    if spec.distribution is Distribution.RANDOM:
        return gen_random(spec)
    if spec.distribution is Distribution.CLUSTERED:
        return gen_clustered(spec)
    return gen_powerlaw(spec)


def save_layout(field: ResourceField, spec: LayoutSpec, path) -> None:
    """One ``x y`` pair per line with a header comment recording the spec."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# layout dist={spec.distribution.value} count={spec.resource_count} "
            f"arena={2 * spec.arena.half_width:g} seed={spec.seed}\n"
        )
        for x, y in field.positions:
            fh.write(f"{float(x)!r} {float(y)!r}\n")


def load_layout_spec(path) -> LayoutSpec:
    """The spec recorded in the header line ``save_layout`` writes."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
    try:
        fields = dict(word.split("=", 1) for word in header.removeprefix("# layout ").split())
        return LayoutSpec(Distribution(fields["dist"]), int(fields["count"]),
                          Arena.square(float(fields["arena"])), seed=int(fields["seed"]))
    except (KeyError, ValueError) as exc:
        raise LayoutError(f"{path} has no valid '# layout' header") from exc


def load_layout(path) -> ResourceField:
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            x, y = line.split()
            points.append((float(x), float(y)))
    return ResourceField.from_positions(np.asarray(points).reshape(-1, 2))
