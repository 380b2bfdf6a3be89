import math

import pytest

from splitlab.density import (
    count_totally_split,
    density_checkpoints,
    reciprocal_sum_totally_split,
    reports_to_csv,
)
from splitlab.multiquadratic import MultiquadField, totally_split
from splitlab.primes import iter_primes

Q = MultiquadField.rationals()
GAUSS = MultiquadField.from_generators([-1])


class TestCounts:
    def test_rationals_count_is_prime_count(self):
        report = count_totally_split(Q, 10_000)
        assert report.count == 1229
        assert report.ratio == report.count / (10_000 / math.log(10_000))

    def test_gaussian_filter_three_is_empty(self):
        report = count_totally_split(GAUSS, 100_000, residue_filter=3)
        assert report.count == 0
        assert report.expected == 0.0

    def test_gaussian_filter_one_keeps_full_density(self):
        report = count_totally_split(GAUSS, 10_000, residue_filter=1)
        assert report.expected == pytest.approx(0.5 * 10_000 / math.log(10_000))
        assert report.count == sum(
            1 for p in iter_primes(2, 10_000) if p % 4 == 1
        )

    def test_filter_halves_density_without_i(self):
        field = MultiquadField.from_generators([2])
        report = count_totally_split(field, 10_000, residue_filter=3)
        assert report.expected == pytest.approx(10_000 / (4 * math.log(10_000)))

    def test_count_matches_direct_scan(self):
        field = MultiquadField.from_generators([2, 5])
        report = count_totally_split(field, 5000)
        direct = sum(1 for p in iter_primes(2, 5000) if totally_split(field, p))
        assert report.count == direct

    def test_small_x_rejected(self):
        with pytest.raises(ValueError):
            count_totally_split(Q, 50)

    def test_bad_filter_rejected(self):
        with pytest.raises(ValueError):
            count_totally_split(Q, 1000, residue_filter=2)

    def test_ratio_sane_at_desk_scale(self):
        report = count_totally_split(GAUSS, 100_000)
        assert 0.8 < report.ratio < 1.2


class TestReciprocalSums:
    def test_rationals_track_mertens_growth(self):
        # ln ln x + M with Mertens' constant M = 0.26149...
        got = reciprocal_sum_totally_split(Q, 10**6)
        assert got == pytest.approx(math.log(math.log(10**6)) + 0.2614972, abs=2e-4)
        assert got > 2.88

    def test_gaussian_filter_three_is_zero(self):
        assert reciprocal_sum_totally_split(GAUSS, 10_000, residue_filter=3) == 0.0

    def test_monotone_in_x(self):
        a = reciprocal_sum_totally_split(GAUSS, 1000)
        b = reciprocal_sum_totally_split(GAUSS, 10_000)
        assert b > a

    def test_matches_direct_sum(self):
        field = MultiquadField.from_generators([3])
        got = reciprocal_sum_totally_split(field, 2000)
        expected = math.fsum(
            1.0 / p for p in iter_primes(2, 2000) if totally_split(field, p)
        )
        assert got == pytest.approx(expected, abs=1e-15)


class TestCheckpoints:
    def test_geometric_marks_end_at_x(self):
        reports = density_checkpoints(Q, 2000)
        assert reports[-1].x == 2000
        xs = [r.x for r in reports]
        assert xs == sorted(xs)

    def test_counts_are_cumulative(self):
        reports = density_checkpoints(GAUSS, 5000)
        counts = [r.count for r in reports]
        assert counts == sorted(counts)
        assert reports[-1].count == count_totally_split(GAUSS, 5000).count

    def test_dense_marks_are_not_repeated(self):
        # At 1000 a decade, marks from 100 on lie closer than 1 and many
        # round alike; each rounded mark is kept once.
        five = MultiquadField.from_generators([5])
        xs = [r.x for r in density_checkpoints(five, 1000, per_decade=1000)]
        assert xs == sorted(set(xs)) and len(xs) == 698
        assert xs[:3] == [100, 101, 102] and xs[-1] == 1000

    @pytest.mark.parametrize("per_decade", [0, -1])
    def test_per_decade_below_one_rejected(self, per_decade):
        with pytest.raises(ValueError, match="per_decade"):
            density_checkpoints(Q, 1000, per_decade=per_decade)

    def test_csv_shape(self):
        reports = density_checkpoints(Q, 1000)
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "x,count,expected,ratio"
        assert len(lines) == len(reports) + 1
        x, count, expected, ratio = lines[-1].split(",")
        assert int(x) == 1000 and int(count) == 168
        assert float(ratio) == pytest.approx(168 / (1000 / math.log(1000)))
