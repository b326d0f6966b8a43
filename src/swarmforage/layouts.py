"""Initial resource placement: clustered, powerlaw, and random layouts.

All generators are pure functions of a LayoutSpec (including its seed),
so identical specs always yield identical fields.  Points are kept
inside the walls and outside a central exclusion disc so nothing spawns
pre-deposited.
"""
from __future__ import annotations

import enum
import functools
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
# Anchors and candidate points are drawn this many coordinates at a time.
# Each generator owns its RNG, so values drawn ahead and never used change
# nothing.
UNIFORM_BLOCK = 512
# Slack, far above rounding at arena scale, for the spacing buckets and the
# cluster keep-out test: a pair decided without its exact distance is
# further from the boundary than any rounding can move it.
ROUNDING_MARGIN = 1e-6  # m
# Most spacing buckets a side of a random layout's grid: finer buckets would
# cost memory and skip next to no more spacing checks.
MAX_SPACING_BUCKETS = 512


class Distribution(enum.Enum):
    CLUSTERED = "clustered"
    POWERLAW = "powerlaw"
    RANDOM = "random"


class LayoutError(ValueError):
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
        if self.distribution is Distribution.CLUSTERED and self.resource_count % 4:
            raise LayoutError(
                f"clustered layout needs a count divisible by 4, got {self.resource_count}")
        if self.distribution is Distribution.POWERLAW:
            powerlaw_schedule(self.resource_count)  # LayoutError if it has none

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


def _uniform_pairs(rng: np.random.Generator, half_width: float):
    """Endless ``(x, y)`` draws over the square, equal to pairs of scalar
    ``rng.uniform(-half_width, half_width)`` calls but drawn in blocks."""
    while True:
        values = rng.uniform(-half_width, half_width, size=UNIFORM_BLOCK).tolist()
        yield from zip(values[0::2], values[1::2])


def gen_random(spec: LayoutSpec) -> ResourceField:
    """Uniform i.i.d. points over the admissible region, rejection-sampled.

    The spacing check runs over every placed point, but only for a
    candidate in a spacing bucket next to a placed point's: from any
    other bucket, every placed point is farther than the spacing.
    """
    if spec.distribution is not Distribution.RANDOM:
        raise ValueError("spec.distribution must be RANDOM")
    rng = np.random.default_rng(derive_seed(spec.seed, "layout", "random"))
    keep_out = spec.keep_out
    spacing = spec.min_spacing
    hw = spec.arena.half_width
    # buckets over [-hw, hw] plus one of padding on each side, row-major
    side = max(2 * hw / MAX_SPACING_BUCKETS, spacing + ROUNDING_MARGIN)  # finite for a NaN spacing
    width = math.floor(2 * hw / side) + 3
    near = bytearray(width * width)  # 1 for a bucket in or next to a placed point's
    placed = np.empty((spec.resource_count, 2))
    pairs = _uniform_pairs(rng, hw)
    for k in range(spec.resource_count):
        for _attempt, (x, y) in zip(range(MAX_POINT_ATTEMPTS), pairs):
            if math.hypot(x, y) <= keep_out:
                continue
            if spacing > 0:  # no distance is below a spacing of 0 or less
                key = (math.floor((x + hw) / side) + 1) * width + math.floor((y + hw) / side) + 1
                if near[key] and np.min(
                        np.hypot(placed[:k, 0] - x, placed[:k, 1] - y)) < spacing:
                    continue
                for row in (key - width, key, key + width):
                    near[row - 1:row + 2] = b"\1\1\1"
            placed[k] = x, y
            break
        else:
            raise LayoutError(
                f"could not place {spec.resource_count} points at spacing "
                f"{spec.min_spacing} after {MAX_POINT_ATTEMPTS} attempts"
            )
    return ResourceField.from_positions(placed)


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


class _Cluster:
    """One cluster footprint: its offsets, circumradius and bounding box."""

    __slots__ = ("offsets", "radius", "x_lo", "y_lo", "x_hi", "y_hi")

    def __init__(self, size: int):
        self.offsets = _cluster_grid(size)
        self.offsets.flags.writeable = False  # shared by every layout
        self.radius = float(np.max(np.hypot(self.offsets[:, 0], self.offsets[:, 1])))
        self.x_lo, self.y_lo = self.offsets.min(axis=0).tolist()
        self.x_hi, self.y_hi = self.offsets.max(axis=0).tolist()

    def admits(self, ax: float, ay: float, spec: LayoutSpec) -> bool:
        """``_admissible(self.offsets + (ax, ay), spec)``, mostly without numpy.

        ``fl(o + a)`` is monotone in ``o``, so the extreme offsets give the
        extreme points and four comparisons test the walls.  Every point
        lies within ``radius`` of the anchor, so an anchor distance ``d``
        with ``d - radius`` beyond the keep-out radius by a margin far above
        rounding puts all of them outside the disc, and ``d + radius`` short
        of it by the margin puts all of them inside.  Only an anchor in
        between builds its points.
        """
        hw = spec.arena.half_width
        if (self.x_hi + ax > hw or self.x_lo + ax < -hw
                or self.y_hi + ay > hw or self.y_lo + ay < -hw):
            return False
        d = math.hypot(ax, ay)
        if d - self.radius > spec.keep_out + ROUNDING_MARGIN:
            return True
        if d + self.radius < spec.keep_out - ROUNDING_MARGIN:
            return False
        return _admissible(self.offsets + (ax, ay), spec)


@functools.cache
def _cluster(size: int) -> _Cluster:
    """The footprint of a cluster of ``size`` points, built once per size."""
    return _Cluster(size)


def _drop_clusters(spec: LayoutSpec, sizes: list[int], pairs) -> list[np.ndarray] | None:
    """One attempt at every cluster of ``sizes``, largest first: each
    one's points, in ``sizes`` order, or None if one found no anchor."""
    placed: list[tuple[float, float, float]] = []  # anchor x, y and radius
    chunks: list[np.ndarray] = [np.zeros((0, 2))] * len(sizes)
    for idx in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        cluster = _cluster(sizes[idx])
        radius = cluster.radius
        for _attempt, (ax, ay) in zip(range(MAX_ANCHOR_ATTEMPTS), pairs):
            if not cluster.admits(ax, ay, spec):
                continue
            if any(math.hypot(ax - bx, ay - by) < radius + br + CLUSTER_GAP
                   for bx, by, br in placed):
                continue
            placed.append((ax, ay, radius))
            chunks[idx] = cluster.offsets + (ax, ay)
            break
        else:
            return None
    return chunks


def _place_clusters(spec: LayoutSpec, sizes: list[int], rng: np.random.Generator) -> ResourceField:
    """Drop one grid cluster per entry of ``sizes``, largest first,
    restarting from scratch when a cluster finds no anchor."""
    pairs = _uniform_pairs(rng, spec.arena.half_width)  # one draw sequence across restarts
    for _restart in range(MAX_LAYOUT_RESTARTS):
        chunks = _drop_clusters(spec, sizes, pairs)
        if chunks is not None:
            return ResourceField.from_positions(np.vstack(chunks))
    raise LayoutError(
        f"could not place clusters {sizes} in a "
        f"{2 * spec.arena.half_width:g} m arena after {MAX_LAYOUT_RESTARTS} restarts"
    )


def gen_clustered(spec: LayoutSpec) -> ResourceField:
    """Four equally-sized grid clusters dropped uniformly in the arena."""
    if spec.distribution is not Distribution.CLUSTERED:
        raise ValueError("spec.distribution must be CLUSTERED")
    if spec.resource_count == 0:
        return ResourceField.from_positions(np.zeros((0, 2)))
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
