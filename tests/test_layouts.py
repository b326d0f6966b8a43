import numpy as np
import pytest

from swarmforage.core import Arena
from swarmforage.layouts import (
    CLUSTER_PITCH,
    Distribution,
    LayoutError,
    LayoutSpec,
    ResourceField,
    gen_clustered,
    gen_powerlaw,
    gen_random,
    generate,
    load_layout,
    powerlaw_schedule,
    save_layout,
)

from conftest import single_linkage_groups


def spec_for(dist, count, side=6.0, seed=0):
    return LayoutSpec(Distribution(dist), count, Arena.square(side), seed=seed)


def assert_admissible(field, spec):
    assert len(field) == spec.resource_count
    pos = field.positions
    assert np.all(np.abs(pos[:, 0]) <= spec.arena.half_width)
    assert np.all(np.abs(pos[:, 1]) <= spec.arena.half_width)
    assert np.all(np.hypot(pos[:, 0], pos[:, 1]) > spec.keep_out)


@pytest.mark.parametrize("dist,count", [("clustered", 7), ("clustered", 66), ("powerlaw", 10)])
def test_impossible_count_fails_when_the_spec_is_built(dist, count):
    with pytest.raises(LayoutError) as exc:
        LayoutSpec(Distribution(dist), count, Arena.square(6.0), seed=0)
    assert isinstance(exc.value, ValueError)  # a bad value, like a negative count


class TestRandom:
    def test_counts_and_bounds(self):
        field = gen_random(spec_for("random", 64))
        assert_admissible(field, spec_for("random", 64))

    def test_empty(self):
        assert len(gen_random(spec_for("random", 0))) == 0

    def test_deterministic(self):
        a = gen_random(spec_for("random", 64, seed=9))
        b = gen_random(spec_for("random", 64, seed=9))
        assert np.array_equal(a.positions, b.positions)

    def test_min_spacing(self):
        field = gen_random(spec_for("random", 128, side=8.0))
        pos = field.positions
        d = np.hypot(pos[:, None, 0] - pos[None, :, 0], pos[:, None, 1] - pos[None, :, 1])
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 0.05

    def test_wrong_distribution_rejected(self):
        with pytest.raises(ValueError):
            gen_random(spec_for("clustered", 64))

    def test_impossible_spacing_errors(self):
        spec = LayoutSpec(Distribution.RANDOM, 64, Arena.square(6.0), seed=0, min_spacing=5.0)
        with pytest.raises(LayoutError):
            gen_random(spec)


class TestClustered:
    def test_four_equal_clusters(self):
        spec = spec_for("clustered", 128, side=8.0)
        field = gen_clustered(spec)
        assert_admissible(field, spec)
        assert single_linkage_groups(field.positions, 2 * CLUSTER_PITCH) == 4

    def test_degenerate_four(self):
        spec = spec_for("clustered", 4)
        field = gen_clustered(spec)
        assert_admissible(field, spec)
        assert single_linkage_groups(field.positions, 2 * CLUSTER_PITCH) == 4

    def test_not_divisible_by_four(self):
        with pytest.raises(LayoutError):
            gen_clustered(spec_for("clustered", 66))

    def test_anchors_distinct_over_seeds(self):
        for seed in range(30):
            spec = spec_for("clustered", 64, seed=seed)
            field = gen_clustered(spec)
            assert_admissible(field, spec)
            assert single_linkage_groups(field.positions, 2 * CLUSTER_PITCH) == 4

    def test_deterministic(self):
        a = gen_clustered(spec_for("clustered", 64, seed=5))
        b = gen_clustered(spec_for("clustered", 64, seed=5))
        assert np.array_equal(a.positions, b.positions)


class TestPowerlaw:
    def test_shipped_schedule_for_64(self):
        assert powerlaw_schedule(64) == [(1, 16), (4, 8), (16, 1)]

    def test_schedule_sums(self):
        for count in (64, 128, 256):
            schedule = powerlaw_schedule(count)
            assert sum(n * s for n, s in schedule) == count

    def test_schedule_empty(self):
        assert powerlaw_schedule(0) == []

    def test_inexpressible_count(self):
        with pytest.raises(LayoutError):
            powerlaw_schedule(10)

    def test_cluster_size_multiset_matches_schedule(self):
        spec = spec_for("powerlaw", 64, seed=3)
        field = gen_powerlaw(spec)
        assert_admissible(field, spec)
        # the schedule sizes are recoverable geometrically
        sizes = sorted(
            np.bincount(_group_labels(field.positions, 2 * CLUSTER_PITCH)).tolist(),
            reverse=True,
        )
        expected = sorted(
            [s for n, s in powerlaw_schedule(64) for _ in range(n)], reverse=True
        )
        assert sizes == expected

    def test_heavy_tail(self):
        spec = spec_for("powerlaw", 256, side=10.0, seed=11)
        field = gen_powerlaw(spec)
        labels = _group_labels(field.positions, 2 * CLUSTER_PITCH)
        sizes = np.bincount(labels)
        assert sizes.max() >= 4 * np.median(sizes)

    def test_empty(self):
        assert len(gen_powerlaw(spec_for("powerlaw", 0))) == 0


def _group_labels(points, radius):
    import math

    n = len(points)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if math.hypot(*(points[i] - points[j])) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    roots = {}
    labels = []
    for i in range(n):
        r = find(i)
        labels.append(roots.setdefault(r, len(roots)))
    return np.asarray(labels)


class TestGenerateDispatchAndIo:
    def test_dispatch(self):
        for dist in ("clustered", "powerlaw", "random"):
            field = generate(spec_for(dist, 64))
            assert len(field) == 64

    def test_layout_file_round_trip(self, tmp_path):
        spec = spec_for("random", 32, seed=2)
        field = generate(spec)
        path = tmp_path / "layout.txt"
        save_layout(field, spec, path)
        loaded = load_layout(path)
        assert np.array_equal(loaded.positions, field.positions)

    def test_resource_field_remaining(self):
        field = ResourceField.from_positions(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert field.remaining() == 2
        field.picked[0] = True
        assert field.remaining() == 1
