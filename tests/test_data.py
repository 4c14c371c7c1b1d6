"""Dataset construction and the cumulative-error walk."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calibwalk import build_dataset, cumulative_process, walk_statistics
from calibwalk.data import _accumulate, _readonly, _sort_rows, _walk_extremes


@st.composite
def datasets(draw, max_n=60):
    n = draw(st.integers(1, max_n))
    p = draw(st.lists(
        st.floats(0.01, 0.99, allow_nan=False), min_size=n, max_size=n,
    ))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return build_dataset(p, y)


@st.composite
def tied_datasets(draw, max_n=60):
    """Predictions drawn from at most four levels; one level makes them
    constant."""
    n = draw(st.integers(1, max_n))
    levels = draw(st.lists(st.floats(0.01, 0.99, allow_nan=False),
                           min_size=1, max_size=4))
    p = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return build_dataset(p, y)


class TestBuildDataset:
    def test_sorts_by_prediction(self):
        d = build_dataset([0.6, 0.2], [1, 0])
        np.testing.assert_array_equal(d.predictions, [0.2, 0.6])
        np.testing.assert_array_equal(d.outcomes, [0, 1])
        assert not d.tie_flag

    def test_rejects_non_binary_outcome(self):
        with pytest.raises(ValueError, match="not binary"):
            build_dataset([0.5], [2])

    def test_ties_keep_input_order(self):
        d = build_dataset([0.3, 0.3, 0.1], [1, 0, 0])
        np.testing.assert_array_equal(d.predictions, [0.1, 0.3, 0.3])
        np.testing.assert_array_equal(d.outcomes, [0, 1, 0])
        assert d.tie_flag

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            build_dataset([0.5, 0.6], [1])

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            build_dataset([], [])

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_out_of_range_prediction(self, bad):
        with pytest.raises(ValueError, match="outside"):
            build_dataset([bad, 0.5], [0, 1])

    @pytest.mark.parametrize("predictions, outcomes, message", [
        ([0.5, 1.6], [0, 1], "prediction outside (0, 1) at position 1: 1.6 "
         "(pass clamp_epsilon or --clamp to clip saturated predictions)"),
        ([math.nan, 0.5], [0, 1], "prediction outside (0, 1) at position "
         "0: nan (pass clamp_epsilon or --clamp to clip saturated "
         "predictions)"),
        ([0.5, 0.4], [0, 2], "outcome not binary at position 1: 2.0"),
        ([0.5, 0.4], [math.nan, 1], "outcome not binary at position 0: nan"),
    ], ids=["prediction", "nan prediction", "outcome", "nan outcome"])
    def test_invalid_value_message(self, predictions, outcomes, message):
        # plain floats, the same text under numpy 1.x and 2.x
        with pytest.raises(ValueError) as exc:
            build_dataset(predictions, outcomes)
        assert str(exc.value) == message

    def test_clamp_epsilon_clips_saturated_predictions(self):
        d = build_dataset([0.0, 1.0, 0.5], [0, 1, 1], clamp_epsilon=1e-6)
        assert d.predictions[0] == 1e-6
        assert d.predictions[-1] == 1.0 - 1e-6

    def test_clamp_epsilon_validated(self):
        with pytest.raises(ValueError, match="clamp_epsilon"):
            build_dataset([0.5], [1], clamp_epsilon=0.7)

    def test_arrays_are_readonly(self):
        d = build_dataset([0.2, 0.6], [0, 1])
        with pytest.raises(ValueError):
            d.predictions[0] = 0.9


def _stable_sort_oracle(predictions, outcomes):
    order = np.argsort(predictions, axis=1, kind="stable")
    sorted_predictions = np.take_along_axis(predictions, order, axis=1)
    return (sorted_predictions, np.take_along_axis(outcomes, order, axis=1),
            np.any(np.diff(sorted_predictions, axis=1) == 0.0, axis=1))


def _assert_matches_oracle(predictions, outcomes):
    predictions = np.asarray(predictions, dtype=np.float64)
    outcomes = np.asarray(outcomes, dtype=np.float64)
    got = _sort_rows(predictions, outcomes)
    want = _stable_sort_oracle(predictions, outcomes)
    for g, w in zip(got[:2], want[:2]):
        np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))
    np.testing.assert_array_equal(got[2], want[2])


def _coin_flips(shape, seed=6):
    return (np.random.default_rng(seed).random(shape) < 0.5).astype(
        np.float64)


@st.composite
def blocks(draw):
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # levels per row: 1 ties everything, n leaves ties rare
    levels = draw(st.lists(st.integers(1, n), min_size=rows, max_size=rows))
    predictions = np.stack([
        rng.choice(rng.uniform(0.0, 1.0, k), n) for k in levels])
    predictions[predictions == 0.0] = 0.5
    return predictions, (rng.random((rows, n)) < 0.5).astype(np.float64)


class TestSortRowsOracle:
    """``_sort_rows`` against a stable argsort, bit for bit."""

    def test_untied_rows(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.01, 0.99, (5, 1000))
        _assert_matches_oracle(p, _coin_flips(p.shape))

    def test_rows_on_a_hundredth_grid(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.01, 0.99, (4, 1000)).round(2)
        _assert_matches_oracle(p, _coin_flips(p.shape))

    def test_block_mixing_tied_and_untied_rows(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.01, 0.99, (6, 300))
        p[1::2] = p[1::2].round(2)
        flags = _sort_rows(p, _coin_flips(p.shape))[2]
        np.testing.assert_array_equal(flags, [False, True] * 3)
        _assert_matches_oracle(p, _coin_flips(p.shape))

    def test_single_observation(self):
        _assert_matches_oracle([[0.3]], [[1.0]])
        _assert_matches_oracle([[0.3], [0.7]], [[0.0], [1.0]])

    def test_extreme_predictions(self):
        rng = np.random.default_rng(5)
        extremes = [5e-324, np.nextafter(0.0, 1.0), 2.2250738585072014e-308,
                    np.nextafter(1.0, 0.0), 0.5]
        p = rng.choice(extremes, (3, 40))
        _assert_matches_oracle(p, _coin_flips(p.shape))
        # 5e-324 is nextafter(0, 1): drop the repeat for an untied row
        untied = np.unique(extremes)[::-1]
        _assert_matches_oracle([untied], [[1.0, 0.0, 1.0, 0.0]])

    def test_ties_made_by_clamp_epsilon(self):
        rng = np.random.default_rng(5)
        p = rng.choice([0.0, 1.0, 0.2, 0.7], 200)
        y = _coin_flips(200)
        data = build_dataset(p, y, clamp_epsilon=0.05)
        want = _stable_sort_oracle(np.clip(p, 0.05, 0.95)[None], y[None])
        np.testing.assert_array_equal(data.predictions.view(np.uint64),
                                      want[0][0].view(np.uint64))
        np.testing.assert_array_equal(data.outcomes.view(np.uint64),
                                      want[1][0].view(np.uint64))
        assert data.tie_flag

    def test_negative_zero_outcome_comes_out_positive(self):
        for p in ([0.4, 0.2, 0.3], [0.4, 0.2, 0.4]):
            _, outcomes, _ = _sort_rows(np.array([p]),
                                        np.array([[-0.0, -0.0, 1.0]]))
            assert not np.signbit(outcomes).any()

    @given(blocks())
    @settings(max_examples=100, deadline=None)
    def test_random_shapes_and_tie_density(self, block):
        _assert_matches_oracle(*block)


@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
def test_build_dataset_peak_memory_per_row(tied):
    n = 200_000
    rng = np.random.default_rng(3)
    p = rng.uniform(0.05, 0.95, n)
    if tied:
        p = p.round(2)
    y = (rng.random(n) < p).astype(np.float64)
    tracemalloc.start()
    try:
        data = build_dataset(p, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.tie_flag == tied
    # untied: the packed keys, which become the sorted predictions in
    # place, the sorted outcomes and a 1 B/row outcome-bit buffer; a tied
    # row also takes its stable argsort and gathered copies
    assert peak / n <= (36.0 if tied else 20.0), f"{peak / n:.1f} B/row"


# zeros of both signs, subnormals and values far apart in scale
_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e300,
                -1e300, 1.0, -1.0, 0.3)


@st.composite
def accumulate_blocks(draw):
    rows, n = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    value = st.sampled_from(_EDGE_VALUES) | st.floats(allow_nan=False,
                                                      allow_infinity=False)
    return np.array(draw(st.lists(value, min_size=rows * n,
                                  max_size=rows * n))).reshape(rows, n)


class TestAccumulate:
    @given(accumulate_blocks())
    @example(np.array([[-0.0, -0.0, 0.0, -0.0]]))
    @example(np.array([[1e300, 5e-324, -1e300, -5e-324],
                       [-0.0, 2.5e-310, -2.5e-310, -0.0]]))
    @settings(max_examples=200, deadline=None)
    def test_equals_a_long_double_cumsum(self, values):
        got = _accumulate(values)
        want = np.cumsum(values, axis=-1, dtype=np.longdouble)
        assert got.dtype == want.dtype and got.shape == want.shape
        # long double padding bytes are unspecified: compare values and
        # the sign of each zero
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestCumulativeProcess:
    def test_two_point_example(self):
        proc = cumulative_process(build_dataset([0.2, 0.6], [0, 1]))
        assert proc.total_variance == pytest.approx(0.40, abs=1e-15)
        np.testing.assert_allclose(proc.times, [0.40, 1.00], atol=1e-15)
        assert proc.c_star == pytest.approx(0.10, abs=1e-15)
        assert proc.c_n == pytest.approx(0.10, abs=1e-15)
        np.testing.assert_allclose(
            proc.walk, [-0.31622777, 0.31622777], atol=1e-8,
        )

    def test_single_observation(self):
        proc = cumulative_process(build_dataset([0.5], [1]))
        assert proc.total_variance == pytest.approx(0.25)
        np.testing.assert_allclose(proc.times, [1.0])
        np.testing.assert_allclose(proc.walk, [1.0])
        assert proc.c_star == proc.c_n == 0.5

    def test_sign_symmetry_at_half(self):
        proc = cumulative_process(build_dataset([0.5], [0]))
        np.testing.assert_allclose(proc.walk, [-1.0])

    @given(datasets())
    @settings(max_examples=60, deadline=None)
    def test_final_time_is_one(self, data):
        proc = cumulative_process(data)
        assert abs(proc.times[-1] - 1.0) < 1e-12

    @given(datasets())
    @settings(max_examples=60, deadline=None)
    def test_time_grid_strictly_increasing(self, data):
        proc = cumulative_process(data)
        steps = np.diff(np.concatenate([[0.0], proc.times]))
        assert np.all(steps > 0)

    @given(datasets())
    @settings(max_examples=60, deadline=None)
    def test_scaling_identity(self, data):
        # max |walk| * sqrt(T) == n * c_star, walk[-1] * sqrt(T) == n * c_n
        proc = cumulative_process(data)
        lhs = np.array([np.abs(proc.walk).max(), proc.walk[-1]])
        rhs = data.n * np.array([proc.c_star, proc.c_n])
        np.testing.assert_allclose(lhs * math.sqrt(proc.total_variance), rhs,
                                   rtol=1e-10, atol=1e-300)

    @given(st.one_of(datasets(), tied_datasets()))
    @example(build_dataset([0.5], [1]))
    @example(build_dataset([0.3] * 4, [1, 0, 0, 1]))
    @settings(max_examples=100, deadline=None)
    def test_raw_scale_statistics_oracle(self, data):
        proc = cumulative_process(data)
        n = data.n
        # exact partial sums of the inputs' values
        sums, total = [], Fraction(0)
        for p, y in zip(data.predictions.tolist(), data.outcomes.tolist()):
            total += Fraction(y) - Fraction(p)
            sums.append(total)
        c_star = max(abs(s) for s in sums) / n
        assert abs(Fraction(proc.c_star) - c_star) <= c_star * 1e-12
        # the terminal sum can cancel to near 0: its error is measured on
        # the scale of the largest partial sum
        assert abs(Fraction(proc.c_n) - sums[-1] / n) <= c_star * 1e-12
        # bit for bit, the maximum and last entry of the float64 partial
        # sums divided by n
        raw_sums = np.asarray(
            _accumulate(data.outcomes[None] - data.predictions[None]) / n,
            dtype=np.float64)[0]
        got = np.array([proc.c_star, proc.c_n])
        want = np.array([np.abs(raw_sums).max(), raw_sums[-1]])
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))

    def test_extended_precision_accumulation(self):
        # constant tiny increments over a long walk stay exact to 1e-12
        n = 2_000_000
        p = np.full(n, 0.3)
        y = np.zeros(n)
        y[::3] = 1.0
        proc = cumulative_process(build_dataset(p, y))
        assert proc.total_variance == pytest.approx(n * 0.21, rel=1e-13)
        k = np.arange(1, n + 1)
        expected_t = (0.21 * k) / (0.21 * n)
        np.testing.assert_allclose(proc.times, expected_t, rtol=1e-12)

    def test_process_keeps_source_reference(self):
        data = build_dataset([0.2, 0.6], [0, 1])
        assert cumulative_process(data).source is data


class TestWalkStatistics:
    def test_two_point_example(self):
        stats = walk_statistics(
            cumulative_process(build_dataset([0.2, 0.6], [0, 1]))
        )
        assert stats.s_star == pytest.approx(0.31623, abs=5e-6)
        assert stats.s_n == pytest.approx(0.31623, abs=5e-6)
        assert stats.b_star == pytest.approx(0.44272, abs=5e-6)
        assert stats.argmax_bb.index == 1
        assert stats.argmax_bb.prediction == 0.2

    def test_single_observation_bridge_vanishes(self):
        stats = walk_statistics(cumulative_process(build_dataset([0.5], [1])))
        assert stats.s_star == 1.0
        assert stats.s_n == 1.0
        assert stats.b_star == 0.0

    def test_outcome_negation_symmetry(self):
        # at p = 0.5 flipping all outcomes negates the walk exactly
        p = [0.5] * 8
        y = [1, 0, 0, 1, 1, 1, 0, 1]
        a = walk_statistics(cumulative_process(build_dataset(p, y)))
        b = walk_statistics(
            cumulative_process(build_dataset(p, [1 - v for v in y]))
        )
        assert a.s_star == pytest.approx(b.s_star, abs=1e-14)
        assert a.s_n == pytest.approx(-b.s_n, abs=1e-14)
        assert a.b_star == pytest.approx(b.b_star, abs=1e-14)

    @given(datasets())
    @settings(max_examples=60, deadline=None)
    def test_orderings(self, data):
        stats = walk_statistics(cumulative_process(data))
        assert stats.s_star >= abs(stats.s_n) >= 0.0
        assert stats.c_star >= abs(stats.c_n)
        assert stats.b_star >= 0.0

    @given(datasets())
    @settings(max_examples=60, deadline=None)
    def test_bridged_terminal_value_is_zero(self, data):
        proc = cumulative_process(data)
        bridged_last = proc.walk[-1] - proc.times[-1] * proc.walk[-1]
        assert abs(bridged_last) < 1e-12

    def test_argmax_smallest_index_on_tie(self):
        # symmetric walk: |walk| peaks twice at the same height
        p = [0.5, 0.5, 0.5, 0.5]
        y = [1, 0, 1, 0]
        stats = walk_statistics(cumulative_process(build_dataset(p, y)))
        assert stats.argmax_bm.index == 1

    def test_permutation_invariance_without_ties(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0.05, 0.95, 40)
        y = (rng.random(40) < p).astype(int)
        base = walk_statistics(cumulative_process(build_dataset(p, y)))
        order = rng.permutation(40)
        shuffled = walk_statistics(
            cumulative_process(build_dataset(p[order], y[order]))
        )
        assert base == shuffled


def test_cumulative_process_memory_per_row():
    # it keeps the times and the walk, 8 B/row each, and no raw-scale sums;
    # at its peak it holds the times, the long double error sums, scaled
    # in place, and either their float64 cast or the float64 errors they
    # are summed from, and no variances or variance sums
    n = 200_000
    rng = np.random.default_rng(3)
    p = rng.uniform(0.05, 0.95, n)
    data = build_dataset(p, rng.random(n) < p)
    tracemalloc.start()
    try:
        proc = cumulative_process(data)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert proc.n == n
    assert retained / n <= 16.05, f"{retained / n:.2f} B/row"
    assert peak / n <= 32.05, f"{peak / n:.2f} B/row"


def test_walk_statistics_peak_memory_per_row():
    # one row of scratch, for |bridged walk| and then |walk|: 8 B/row
    n = 200_000
    rng = np.random.default_rng(3)
    p = rng.uniform(0.05, 0.95, n)
    proc = cumulative_process(build_dataset(p, rng.random(n) < p))
    tracemalloc.start()
    try:
        walk_statistics(proc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 9.0, f"{peak / n:.1f} B/row"


def _extremes_oracle(times, walk):
    """``_walk_extremes`` one Python float at a time: the first maximum of
    |walk| and of |walk - times * terminal| in each row."""
    columns = []
    for t, w in zip(np.broadcast_to(times, walk.shape).tolist(),
                    walk.tolist()):
        bridged = [abs(w_j - t_j * w[-1]) for t_j, w_j in zip(t, w)]
        absolute = [abs(w_j) for w_j in w]
        i_bm = max(range(len(w)), key=absolute.__getitem__)
        i_bb = max(range(len(w)), key=bridged.__getitem__)
        columns.append((i_bm, absolute[i_bm], w[-1], i_bb, bridged[i_bb]))
    return [np.array(column) for column in zip(*columns)]


def _assert_extremes_match_oracle(times, walk):
    want = _extremes_oracle(times, walk)
    got = _walk_extremes(times, _readonly(walk.copy()), np.empty_like(walk))
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))
    return got


@st.composite
def walk_blocks(draw):
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    variances = rng.uniform(0.01, 0.25, (rows, n))
    times = np.cumsum(variances, axis=1) / variances.sum(axis=1)[:, None]
    steps = rng.standard_normal((rows, n))
    if draw(st.booleans()):  # unit steps: |walk| peaks repeat
        steps = np.sign(steps)
    walk = np.cumsum(steps, axis=1)
    # the engine's rows share one row of times, the study rows have their own
    return (times[0] if draw(st.booleans()) else times), walk


class TestWalkExtremesOracle:
    """``_walk_extremes`` against Python scalar arithmetic, bit for bit."""

    def test_all_zero_rows_and_negative_zero_terminal(self):
        times = np.array([0.25, 0.5, 1.0])
        walk = np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0],
                         [0.5, -1.0, -0.0]])
        i_bm, s_star, s_n, i_bb, b_star = _assert_extremes_match_oracle(
            times, walk)
        assert not np.signbit(s_star).any() and not np.signbit(b_star).any()
        np.testing.assert_array_equal(np.signbit(s_n), [False, True, True])

    def test_ties_go_to_the_smallest_index(self):
        times = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        walk = np.array([[1.0, -2.0, 2.0, 0.0, 1.0],
                         [0.0, 2.0, 0.0, -2.0, 0.0]])
        i_bm, _, _, i_bb, _ = _assert_extremes_match_oracle(times, walk)
        np.testing.assert_array_equal(i_bm, [1, 1])
        np.testing.assert_array_equal(i_bb, [1, 1])

    def test_single_observation(self):
        walk = np.array([[0.7], [-1.5]])
        _, s_star, _, _, b_star = _assert_extremes_match_oracle(
            np.array([1.0]), walk)
        np.testing.assert_array_equal(s_star, [0.7, 1.5])
        np.testing.assert_array_equal(b_star, [0.0, 0.0])
        _assert_extremes_match_oracle(np.ones((2, 1)), walk)

    def test_walk_is_only_read_and_scratch_holds_its_absolute_value(self):
        times = np.array([[0.5, 1.0]])
        walk, scratch = _readonly(np.array([[-1.0, 3.0]])), np.empty((1, 2))
        got = _walk_extremes(times, walk, scratch)
        np.testing.assert_array_equal(walk, [[-1.0, 3.0]])
        np.testing.assert_array_equal(scratch, [[1.0, 3.0]])
        # the bridge -1 - 0.5 * 3 peaks at the first vertex
        assert [column.tolist() for column in got] == [[1], [3.0], [3.0],
                                                       [0], [2.5]]

    @given(walk_blocks())
    @settings(max_examples=100, deadline=None)
    def test_random_blocks(self, block):
        _assert_extremes_match_oracle(*block)
