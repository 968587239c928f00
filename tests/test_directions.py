"""Direction sequences: Halton construction, norms, density, determinism."""

import threading

import numpy as np
import pytest

from sdfo import (
    DirectionGenerator,
    FixedCycle,
    QuasiRandomSphere,
    UniformRandomSphere,
    halton_point,
)
from sdfo import directions
from sdfo.directions import first_primes, halton_direction, radical_inverse
from sdfo.stats import inverse_normal_cdf


class TestHalton:
    def test_first_primes(self):
        assert first_primes(1) == (2,)
        assert first_primes(10) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
        primes = first_primes(31)
        assert len(primes) == 31 and primes[29:] == (113, 127)
        with pytest.raises(ValueError):
            first_primes(0)

    def test_radical_inverse_base2(self):
        assert halton_point(1, (2,))[0] == 0.5
        assert halton_point(2, (2,))[0] == 0.25

    def test_two_dimensional_point(self):
        # Hand computation: 3 = 11_2 -> 0.75; 3 = 10_3 -> 1/9.
        pt = halton_point(3, (2, 3))
        assert pt[0] == 0.75
        assert pt[1] == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_hand_oracle_agreement(self):
        # Independent digit-reversal oracle over many indices and bases.
        def reversed_digits_value(index, base):
            digits = []
            while index:
                index, d = divmod(index, base)
                digits.append(d)
            return sum(d / base ** (i + 1) for i, d in enumerate(digits))

        for base in (2, 3, 5, 7):
            for index in range(50):
                assert radical_inverse(index, base) == pytest.approx(
                    reversed_digits_value(index, base), abs=1e-15
                )

    def test_values_in_unit_interval(self):
        pts = np.array([halton_point(i, (2, 3, 5)) for i in range(1, 500)])
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)


class TestInverseNormalCdf:
    def test_against_scipy_reference(self):
        from scipy.special import ndtri

        grid = np.concatenate(
            [np.geomspace(1e-300, 0.5, 4000), np.linspace(0.5, 0.9999, 4000)]
        )
        worst = max(abs(inverse_normal_cdf(p) - float(ndtri(p))) for p in grid)
        assert worst <= 1.15e-9

    def test_median_is_zero(self):
        assert inverse_normal_cdf(0.5) == 0.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            inverse_normal_cdf(bad)


class TestDirectionGenerator:
    def test_one_dimensional_quasi_random_is_signs(self):
        gen = DirectionGenerator(1, QuasiRandomSphere())
        values = {float(gen.next_direction()[0]) for _ in range(64)}
        assert values == {-1.0, 1.0}

    def test_fixed_cycle_wraps(self):
        gen = DirectionGenerator(2, FixedCycle([(1.0, 0.0), (0.0, 1.0)]), cursor=2)
        assert np.array_equal(gen.next_direction(), np.array([1.0, 0.0]))

    def test_fixed_cycle_rejects_non_unit(self):
        with pytest.raises(ValueError):
            FixedCycle([(1.0, 1.0)])

    # A NaN entry used to pass the unit-norm check, and a run with it wrote
    # NaN steps and estimates on every row.
    @pytest.mark.parametrize(
        "vector", [(np.nan, 0.0), (np.inf, 0.0), (1.0, -np.inf), (np.nan, np.inf)], ids=["nan", "inf", "-inf", "nan-inf"]
    )
    def test_fixed_cycle_rejects_non_finite(self, vector):
        with pytest.raises(ValueError, match="is not a finite unit vector"):
            FixedCycle([(1.0, 0.0), vector])

    @pytest.mark.parametrize(
        "dimension,cursor,name",
        [(2.0, 0, "dimension"), (True, 0, "dimension"), (0, 0, "dimension"), ("2", 0, "dimension")]
        + [(2, 1.5, "cursor"), (2, True, "cursor"), (2, -1, "cursor"), (2, 2.0, "cursor")],
    )
    def test_generator_inputs_must_be_integers(self, dimension, cursor, name):
        least = 0 if name == "cursor" else 1
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {least}, got "):
            DirectionGenerator(dimension, QuasiRandomSphere(), cursor=cursor)

    def test_numpy_integer_generator_inputs(self):
        gen = DirectionGenerator(np.int64(3), QuasiRandomSphere(), cursor=np.int32(4))
        assert type(gen.dimension) is int and gen.cursor == 4
        replay = DirectionGenerator(3, QuasiRandomSphere(), cursor=4)
        assert np.array_equal(gen.next_direction(), replay.next_direction())

    @pytest.mark.parametrize(
        "scheme",
        [QuasiRandomSphere(), UniformRandomSphere(seed=4)],
        ids=["quasi", "uniform"],
    )
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_unit_norm_invariant(self, scheme, dim):
        gen = DirectionGenerator(dim, scheme)
        for _ in range(500):
            assert abs(np.linalg.norm(gen.next_direction()) - 1.0) <= 1e-12

    def test_replay_from_cursor(self):
        gen = DirectionGenerator(3, QuasiRandomSphere())
        first = [gen.next_direction() for _ in range(10)]
        replay = DirectionGenerator(3, QuasiRandomSphere(), cursor=4)
        for expected in first[4:]:
            assert np.array_equal(replay.next_direction(), expected)

    def test_clone_continues_identically(self):
        gen = DirectionGenerator(4, QuasiRandomSphere())
        for _ in range(7):
            gen.next_direction()
        twin = gen.clone()
        for _ in range(20):
            assert np.array_equal(gen.next_direction(), twin.next_direction())

    def test_uniform_scheme_reproducible_from_seed_and_cursor(self):
        a = DirectionGenerator(3, UniformRandomSphere(seed=11))
        drawn = [a.next_direction() for _ in range(6)]
        b = DirectionGenerator(3, UniformRandomSphere(seed=11), cursor=3)
        assert np.array_equal(b.next_direction(), drawn[3])

    def test_cursor_counts_emissions(self):
        gen = DirectionGenerator(2, QuasiRandomSphere())
        for _ in range(5):
            gen.next_direction()
        assert gen.cursor == 5


class TestDensity:
    @pytest.mark.parametrize("dim,count", [(2, 600), (3, 2500), (4, 6000), (5, 12000)])
    def test_caps_of_thirty_degrees_are_hit(self, dim, count):
        # Brute-force cap membership scan: every 30-degree cap around 50
        # fixed random centers contains at least one of the first `count`
        # directions.  Counts frozen from the deterministic sequence.
        gen = DirectionGenerator(dim, QuasiRandomSphere())
        directions = np.array([gen.next_direction() for _ in range(count)])
        rng = np.random.default_rng(1000 + dim)
        centers = rng.standard_normal((50, dim))
        centers /= np.linalg.norm(centers, axis=1)[:, None]
        best = (directions @ centers.T).max(axis=0)
        assert np.all(best >= np.cos(np.radians(30.0)))

    def test_scan_is_deterministic(self):
        gen1 = DirectionGenerator(3, QuasiRandomSphere())
        gen2 = DirectionGenerator(3, QuasiRandomSphere())
        d1 = np.array([gen1.next_direction() for _ in range(200)])
        d2 = np.array([gen2.next_direction() for _ in range(200)])
        assert np.array_equal(d1, d2)


def uncached_sequence(dim, count):
    """The first ``count`` quasi-random directions, computed without the table."""
    bases = first_primes(dim)
    out, index = [], 0
    while len(out) < count:
        index += 1
        row = halton_direction(index, bases)
        if row is not None:
            out.append(row)
    return np.array(out)


@pytest.fixture
def small_table(monkeypatch):
    """An empty direction table bounded at 40 rows for the test's duration."""
    table = {}
    monkeypatch.setattr(directions, "_table", table)
    monkeypatch.setattr(directions, "TABLE_ROWS", 40)
    return table


class TestDirectionTable:
    @pytest.mark.parametrize("dim", [1, 2, 3, 20, 31])
    def test_rows_equal_uncached_before_and_past_the_bound(self, small_table, dim):
        gen = DirectionGenerator(dim, QuasiRandomSphere())
        drawn = np.array([gen.next_direction() for _ in range(100)])
        assert np.array_equal(drawn, uncached_sequence(dim, 100))
        # 100 draws reach past the 40 stored rows.
        assert len(small_table) == 40
        for (d, index), row in small_table.items():
            expected = halton_direction(index, first_primes(d))
            assert (row is None and expected is None) or np.array_equal(row, expected)
        # A second generator reads the stored rows and computes the rest.
        again = DirectionGenerator(dim, QuasiRandomSphere())
        assert np.array_equal([again.next_direction() for _ in range(100)], drawn)

    def test_one_dimensional_origin_is_stored_as_skipped(self, small_table):
        DirectionGenerator(1, QuasiRandomSphere()).next_direction()
        # Halton index 1 is the point 0.5, whose quantile is the origin.
        assert small_table[(1, 1)] is None
        assert np.array_equal(small_table[(1, 2)], [-1.0])

    def test_mutating_a_direction_leaves_the_table_alone(self, small_table):
        gen = DirectionGenerator(3, QuasiRandomSphere())
        first = gen.next_direction()
        expected = first.copy()
        first[:] = 7.0
        assert np.array_equal(DirectionGenerator(3, QuasiRandomSphere()).next_direction(), expected)
        with pytest.raises(ValueError):
            small_table[(3, 1)][0] = 7.0

    def test_table_never_exceeds_its_bound(self, small_table):
        for dim in (2, 3, 5):
            gen = DirectionGenerator(dim, QuasiRandomSphere())
            for _ in range(30):
                gen.next_direction()
                assert len(small_table) <= directions.TABLE_ROWS
        assert len(small_table) == directions.TABLE_ROWS

    def test_threads_draw_identical_sequences(self, monkeypatch):
        monkeypatch.setattr(directions, "_table", {})
        count, results = 300, [None, None]
        start = threading.Barrier(2)

        def draw(slot):
            gen = DirectionGenerator(4, QuasiRandomSphere())
            start.wait()
            results[slot] = np.array([gen.next_direction() for _ in range(count)])

        threads = [threading.Thread(target=draw, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], uncached_sequence(4, count))

    def test_shared_table_respects_its_bound(self):
        assert len(directions._table) <= directions.TABLE_ROWS
