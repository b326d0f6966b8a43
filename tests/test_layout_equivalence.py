"""The layout generators' fast paths give the same bits as the plain code.

``ref_gen_random`` and ``ref_place_clusters`` below are the plain forms,
kept from before the fast paths went in: two scalar ``rng.uniform`` calls
per attempt, a numpy array of every placed point rebuilt for each
candidate, and ``ref_admissible`` over the points of every anchor.
Hypothesis draws specs and attempt limits, and crafted candidates sit on
the boundaries where a fast path could differ: pairs exactly ``min_spacing``
apart and one ulp either side, spacing-bucket edges at negative
coordinates, anchors on the walls and on the keep-out circle.  Positions
are compared bit for bit, and a layout that cannot be made must fail
after the same number of draws.
"""
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmforage import layouts
from swarmforage.core import Arena, derive_seed
from swarmforage.layouts import (
    CLUSTER_GAP,
    MAX_SPACING_BUCKETS,
    ROUNDING_MARGIN,
    UNIFORM_BLOCK,
    Distribution,
    LayoutError,
    LayoutSpec,
    _cluster,
    _cluster_grid,
    _uniform_pairs,
    generate,
)

LAYOUT = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# -- the plain forms ---------------------------------------------------------

def ref_admissible(points: np.ndarray, spec: LayoutSpec) -> bool:
    if len(points) == 0:
        return True
    if np.any(np.abs(points) > spec.arena.half_width):
        return False
    return bool(np.all(np.hypot(points[:, 0], points[:, 1]) > spec.keep_out))


def ref_gen_random(spec: LayoutSpec, draw) -> np.ndarray:
    placed: list[tuple[float, float]] = []
    for _ in range(spec.resource_count):
        for attempt in range(layouts.MAX_POINT_ATTEMPTS):
            x, y = draw()
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
                f"{spec.min_spacing} after {layouts.MAX_POINT_ATTEMPTS} attempts"
            )
    return np.asarray(placed).reshape(-1, 2)


def ref_place_clusters(spec: LayoutSpec, sizes: list[int], draw) -> np.ndarray:
    arena = spec.arena
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    for _restart in range(layouts.MAX_LAYOUT_RESTARTS):
        anchors: list[tuple[float, float]] = []
        radii: list[float] = []
        chunks: list[np.ndarray] = [np.zeros((0, 2))] * len(sizes)
        ok = True
        for idx in order:
            size = sizes[idx]
            offsets = _cluster_grid(size)
            radius = float(np.max(np.hypot(offsets[:, 0], offsets[:, 1])))
            for attempt in range(layouts.MAX_ANCHOR_ATTEMPTS):
                ax, ay = draw()
                points = offsets + (ax, ay)
                if not ref_admissible(points, spec):
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
            return np.vstack(chunks)
    raise LayoutError(
        f"could not place clusters {sizes} in a "
        f"{2 * arena.half_width:g} m arena after {layouts.MAX_LAYOUT_RESTARTS} restarts"
    )


def ref_generate(spec: LayoutSpec, draw) -> np.ndarray:
    if spec.distribution is Distribution.RANDOM:
        return ref_gen_random(spec, draw)
    if spec.resource_count == 0:
        return np.zeros((0, 2))
    if spec.distribution is Distribution.CLUSTERED:
        return ref_place_clusters(spec, [spec.resource_count // 4] * 4, draw)
    sizes = [size for n, size in layouts.powerlaw_schedule(spec.resource_count) for _ in range(n)]
    return ref_place_clusters(spec, sizes, draw)


# -- helpers -------------------------------------------------------------------

def bits(values) -> tuple:
    """Floats as their IEEE-754 bytes, so -0.0 != 0.0."""
    return tuple(struct.pack("<d", v) for v in values)


def ulps(value: float, n: int) -> float:
    """``value`` moved ``n`` ulps (toward +inf for n > 0)."""
    for _ in range(abs(n)):
        value = math.nextafter(value, math.copysign(math.inf, n))
    return value


def scalar_draw(spec: LayoutSpec):
    """The plain generators' draws: two scalar calls on the layout's RNG."""
    rng = np.random.default_rng(derive_seed(spec.seed, "layout", spec.distribution.value))
    hw = spec.arena.half_width
    return lambda: (rng.uniform(-hw, hw), rng.uniform(-hw, hw))


class Counted:
    """A draw function that counts its calls."""

    def __init__(self, draw):
        self.draw, self.calls = draw, 0

    def __call__(self):
        self.calls += 1
        return self.draw()


def outcome(make):
    """``make()`` as position bits, or the LayoutError message it raised."""
    try:
        return bits(np.asarray(make(), dtype=float).ravel().tolist())
    except LayoutError as exc:
        return str(exc)


def run_both(spec: LayoutSpec, draws=None, attempts=None):
    """The fast and the plain generator on one draw sequence, each outcome
    with its draw count.  The draws are the layout RNG's, or ``draws`` (a
    list of pairs); ``attempts`` overrides both attempt limits."""
    taken = [0]

    def fast_pairs(rng, half_width):
        source = iter(draws) if draws is not None else _uniform_pairs(rng, half_width)
        for pair in source:
            taken[0] += 1
            yield pair

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layouts, "_uniform_pairs", fast_pairs)
        if attempts is not None:
            patch.setattr(layouts, "MAX_POINT_ATTEMPTS", attempts)
            patch.setattr(layouts, "MAX_ANCHOR_ATTEMPTS", attempts)
        fast = outcome(lambda: generate(spec).positions)
        ref_draw = Counted(scalar_draw(spec) if draws is None else iter(draws).__next__)
        plain = outcome(lambda: ref_generate(spec, ref_draw))
    return (fast, taken[0]), (plain, ref_draw.calls)


# -- block draws ---------------------------------------------------------------

@LAYOUT
@given(st.integers(0, 2**63 - 1), st.sampled_from([2.0, 3.0, 3.5, 4.0, 5.0, 0.1, 17.25]),
       st.integers(1, 1200))
def test_block_draws_equal_scalar_draws(seed, half_width, n):
    block = np.random.default_rng(seed).uniform(-half_width, half_width, size=n).tolist()
    rng = np.random.default_rng(seed)
    scalar = [rng.uniform(-half_width, half_width) for _ in range(n)]
    assert bits(block) == bits(scalar)


@pytest.mark.parametrize("half_width", [3.0, 5.0])
def test_uniform_pairs_equal_scalar_pairs_across_blocks(half_width):
    pairs = _uniform_pairs(np.random.default_rng(7), half_width)
    rng = np.random.default_rng(7)
    for _ in range(UNIFORM_BLOCK + 3):  # two block boundaries
        x, y = next(pairs)
        assert bits([x, y]) == bits([rng.uniform(-half_width, half_width),
                                     rng.uniform(-half_width, half_width)])


# -- whole layouts -------------------------------------------------------------

POWERLAW_COUNTS = [0, 31, 37, 64, 96, 128, 159, 256]
spec_args = st.one_of(
    st.tuples(st.just("random"), st.integers(0, 60),
              st.one_of(st.just(layouts.RANDOM_MIN_SPACING), st.sampled_from([0.0, -1.0, 0.5]),
                        st.floats(0.0, 0.8))),
    st.tuples(st.just("clustered"), st.integers(0, 64).map(lambda k: 4 * k), st.none()),
    st.tuples(st.just("powerlaw"), st.sampled_from(POWERLAW_COUNTS), st.none()),
)


@LAYOUT
@given(spec_args, st.sampled_from([4.0, 4.5, 5.0, 6.0, 7.0, 8.0, 10.0]), st.integers(0, 2**20),
       st.sampled_from([None, 3, 40]))
@example(("clustered", 256, None), 4.0, 6, None)  # four restarts
@example(("clustered", 256, None), 3.0, 0, 40)  # never fits: fails after 100 * 40 draws
@example(("random", 60, 5.0), 6.0, 0, None)  # one point, then 10,000 rejections
@example(("random", 40, 0.5), 4.0, 1, 40)
def test_generate_matches_the_plain_generators(args, side, seed, attempts):
    dist, count, spacing = args
    extra = {} if spacing is None else {"min_spacing": spacing}
    spec = LayoutSpec(Distribution(dist), count, Arena.square(side), seed=seed, **extra)
    # small attempt limits make restarts and failures common
    fast, plain = run_both(spec, attempts=attempts)
    assert fast == plain


# -- the spacing buckets ---------------------------------------------------------

def bucket_side(spec: LayoutSpec) -> float:
    hw = spec.arena.half_width
    return max(2 * hw / MAX_SPACING_BUCKETS, spec.min_spacing + ROUNDING_MARGIN)


# a candidate relative to a placed point: direction, spacings away, ulps off
nudge = st.tuples(st.sampled_from(["+x", "-x", "+y", "-y", "diag"]),
                  st.sampled_from([1, 2]), st.integers(-2, 2))


@LAYOUT
@given(st.sampled_from([0.05, 0.3, 0.5, 0.7]), st.sampled_from([6.0, 8.0]),
       st.integers(1, 12), st.integers(-2, 2), st.integers(1, 12), st.integers(-2, 2),
       st.lists(nudge, min_size=1, max_size=12))
@example(0.05, 6.0, 3, 0, 3, 0, [("+x", 1, 0), ("+x", 1, -1), ("+x", 1, 1)])
@example(0.5, 8.0, 2, 0, 2, 0, [("-y", 1, 0), ("+y", 1, -1), ("diag", 1, 0), ("-x", 2, -1)])
def test_spacing_check_at_the_boundary(spacing, side, mx, ux, my, uy, nudges):
    """A placed point on a spacing-bucket edge at negative coordinates, then
    candidates exactly one or two spacings away, and one ulp either side."""
    spec = LayoutSpec(Distribution.RANDOM, 1 + len(nudges), Arena.square(side), seed=0,
                      min_spacing=spacing)
    hw = spec.arena.half_width
    edge = bucket_side(spec)
    edges = int(hw / edge)  # bucket edges below x = 0
    bx = ulps((1 + mx % edges) * edge - hw, ux)
    by = ulps((1 + my % edges) * edge - hw, uy)
    candidates = [(bx, by)]
    for direction, k, n in nudges:
        step = k * spacing
        if direction == "diag":
            step /= math.sqrt(2.0)
            candidates.append((ulps(bx + step, n), ulps(by + step, n)))
        elif direction[1] == "x":
            candidates.append((ulps(bx + (step if direction[0] == "+" else -step), n), by))
        else:
            candidates.append((bx, ulps(by + (step if direction[0] == "+" else -step), n)))
    candidates = [(x, y) for x, y in candidates if -hw <= x < hw and -hw <= y < hw]
    rng = np.random.default_rng(1)
    filler = [tuple(p) for p in rng.uniform(-hw, hw, size=(2000, 2)).tolist()]
    fast, plain = run_both(spec, candidates + filler)
    assert fast == plain


# -- the cluster pre-tests -------------------------------------------------------

SIZES = [1, 2, 8, 16, 32, 64]


def anchors_on_walls(cluster, hw):
    ax = hw - cluster.x_hi
    return [(ulps(ax, n), 0.1) for n in range(-2, 3)] + \
        [(ulps(-hw - cluster.x_lo, n), ulps(hw - cluster.y_hi, m))
         for n in range(-2, 3) for m in (-1, 0, 1)]


@LAYOUT
@given(st.sampled_from(SIZES), st.sampled_from([3.0, 4.0, 5.0]),
       st.floats(-math.pi, math.pi), st.integers(-2, 2),
       st.sampled_from([0.0, ROUNDING_MARGIN, 2 * ROUNDING_MARGIN, 1e-12, 1e-3]),
       st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 0.0, 1.0]))
def test_cluster_admits_on_the_keep_out_circle(size, hw, theta, n, slack, sign, side_of_r):
    """Anchors with ``d -/+ radius`` at the keep-out radius, give or take the
    margin, a trace or ulps; and anchors that put a point on the circle."""
    spec = LayoutSpec(Distribution.CLUSTERED, 4, Arena(hw), seed=0)
    cluster = _cluster(size)
    d = ulps(spec.keep_out + side_of_r * cluster.radius + sign * slack, n)
    anchors = [(d * math.cos(theta), d * math.sin(theta))]
    # the offset farthest out, put on the keep-out circle
    ox, oy = cluster.offsets[int(np.argmax(np.hypot(cluster.offsets[:, 0], cluster.offsets[:, 1])))]
    px, py = spec.keep_out * math.cos(theta), spec.keep_out * math.sin(theta)
    anchors.append((ulps(px - ox, n), ulps(py - oy, -n)))
    for ax, ay in anchors:
        assert cluster.admits(ax, ay, spec) == ref_admissible(_cluster_grid(size) + (ax, ay), spec)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("hw", [3.0, 4.0, 5.0])
def test_cluster_admits_on_the_walls(size, hw):
    spec = LayoutSpec(Distribution.CLUSTERED, 4, Arena(hw), seed=0)
    cluster = _cluster(size)
    anchors = anchors_on_walls(cluster, hw)
    anchors += [(-x, -y) for x, y in anchors] + [(y, x) for x, y in anchors]
    verdicts = set()
    for ax, ay in anchors:
        expected = ref_admissible(_cluster_grid(size) + (ax, ay), spec)
        assert cluster.admits(ax, ay, spec) == expected, (ax, ay)
        verdicts.add(expected)
    assert verdicts == {True, False}  # the anchors straddle the walls


@LAYOUT
@given(st.sampled_from(SIZES), st.sampled_from([3.0, 5.0]),
       st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
def test_cluster_admits_anywhere(size, hw, ax, ay):
    spec = LayoutSpec(Distribution.CLUSTERED, 4, Arena(hw), seed=0)
    assert _cluster(size).admits(ax, ay, spec) == ref_admissible(_cluster_grid(size) + (ax, ay), spec)
