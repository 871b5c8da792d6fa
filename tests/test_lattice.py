import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nested_dp.errors import ResourceLimitExceeded
from nested_dp.lattice import (
    build_lattice,
    error_bound,
    exhaustive_nearest,
    lattice_rank,
    lattice_size,
    quantize,
    tv_distance,
)


def simplex_point(rng: random.Random, m: int, denom: int = 600) -> tuple[Fraction, ...]:
    cuts = sorted(rng.randrange(denom + 1) for _ in range(m - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(Fraction(c - prev, denom))
        prev = c
    parts.append(Fraction(denom - prev, denom))
    return tuple(parts)


class TestBuildLattice:
    def test_m2_n2_point_set(self):
        lat = build_lattice(2, 2)
        assert set(lat.points) == {
            (Fraction(0), Fraction(1)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1), Fraction(0)),
        }

    def test_m3_n2_point_set(self):
        lat = build_lattice(3, 2)
        h = Fraction(1, 2)
        assert set(lat.points) == {
            (Fraction(1), Fraction(0), Fraction(0)),
            (h, h, Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), h, h),
            (Fraction(0), Fraction(0), Fraction(1)),
            (h, Fraction(0), h),
        }

    def test_degenerate_simplex(self):
        lat = build_lattice(1, 7)
        assert lat.points == ((Fraction(1),),)

    @given(st.integers(1, 5), st.integers(1, 6))
    def test_count_matches_binomial(self, m, n):
        lat = build_lattice(m, n)
        assert len(lat.points) == lattice_size(m, n)
        assert len(set(lat.points)) == len(lat.points)
        for p in lat.points:
            assert sum(p) == 1
            assert all(c >= 0 and (c * n).denominator == 1 for c in p)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitExceeded):
            build_lattice(30, 60, budget=1000)

    def test_rank_is_position_in_built_lattice(self):
        for m in range(1, 6):
            for n in range(1, 7):
                for index, point in enumerate(build_lattice(m, n).points):
                    assert lattice_rank(point, n) == index


class TestLatticeSize:
    @pytest.mark.parametrize("m,n,expected", [(2, 2, 3), (3, 2, 6), (4, 3, 20)])
    def test_known_counts(self, m, n, expected):
        assert lattice_size(m, n) == expected


class TestTvDistance:
    def test_zero_iff_equal(self):
        p = (Fraction(1, 3), Fraction(2, 3))
        assert tv_distance(p, p) == 0

    def test_opposite_vertices(self):
        assert tv_distance((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))) == 2

    def test_direct_sum(self):
        assert tv_distance(
            (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4))
        ) == Fraction(1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance((Fraction(1),), (Fraction(1, 2), Fraction(1, 2)))

    @given(st.integers(0, 10**6), st.integers(2, 5))
    def test_metric_properties(self, seed, m):
        rng = random.Random(seed)
        p, q, r = (simplex_point(rng, m) for _ in range(3))
        assert tv_distance(p, q) == tv_distance(q, p) >= 0
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r)


class TestQuantize:
    def test_lattice_points_are_fixed(self):
        lat = build_lattice(3, 4)
        for idx, point in enumerate(lat.points):
            q = quantize(lat, point)
            assert q.index == idx
            assert tv_distance(point, q.point()) == 0

    def test_known_example(self):
        lat = build_lattice(2, 2)
        q = quantize(lat, (Fraction(3, 5), Fraction(2, 5)))
        assert q.point() == (Fraction(1, 2), Fraction(1, 2))
        assert tv_distance((Fraction(3, 5), Fraction(2, 5)), q.point()) == Fraction(1, 5)

    @given(st.integers(0, 10**6), st.integers(2, 4), st.sampled_from([1, 2, 3, 4, 8]))
    def test_matches_exhaustive_search(self, seed, m, n):
        rng = random.Random(seed)
        lat = build_lattice(m, n)
        point = simplex_point(rng, m)
        q = quantize(lat, point)
        best_idx, best_dist = exhaustive_nearest(lat, point)
        assert q.index == best_idx
        assert tv_distance(point, q.point()) == best_dist

    @given(st.integers(0, 10**6), st.integers(2, 4), st.sampled_from([1, 2, 4, 8]))
    def test_within_error_bound(self, seed, m, n):
        rng = random.Random(seed)
        lat = build_lattice(m, n)
        point = simplex_point(rng, m)
        q = quantize(lat, point)
        assert tv_distance(point, q.point()) <= error_bound(m, n)

    @given(st.integers(0, 10**6), st.integers(2, 4), st.sampled_from([1, 2, 4]))
    def test_refinement_does_not_hurt(self, seed, m, n):
        rng = random.Random(seed)
        point = simplex_point(rng, m)
        coarse = build_lattice(m, n)
        fine = build_lattice(m, 2 * n)
        d_coarse = tv_distance(point, quantize(coarse, point).point())
        d_fine = tv_distance(point, quantize(fine, point).point())
        assert d_fine <= d_coarse


class TestErrorBound:
    @pytest.mark.parametrize(
        "m,n,expected",
        [(2, 4, Fraction(1, 2)), (3, 2, Fraction(2, 3)), (1, 5, Fraction(0))],
    )
    def test_closed_form(self, m, n, expected):
        assert error_bound(m, n) == expected
