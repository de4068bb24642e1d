"""Trace ingestion, interpolation, splitting, and synthesis tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_phpa.errors import TraceFormatError, ValidationError
from graph_phpa.traces import (WorkloadTrace, generate_synthetic_trace,
                               interpolate_to_minutes, load_trace, rescale_trace,
                               save_trace, slice_trace, split_dataset, trace_digest)


def write_trace_file(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestWorkloadTrace:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            WorkloadTrace(resolution=0, start_minute=0, counts=(1,))
        with pytest.raises(ValidationError):
            WorkloadTrace(resolution=1, start_minute=0, counts=())
        with pytest.raises(ValidationError):
            WorkloadTrace(resolution=1, start_minute=0, counts=(1, -2))

    def test_minutes_grid(self):
        t = WorkloadTrace(resolution=5, start_minute=10, counts=(1, 2, 3))
        assert t.minutes == [10, 15, 20]
        assert len(t) == 3


class TestLoadSave:
    def test_two_bins_parse(self, tmp_path):
        path = write_trace_file(tmp_path, "minute,requests\n0,10\n1,12\n")
        t = load_trace(path)
        assert t.counts == (10, 12) and t.start_minute == 0

    def test_header_required(self, tmp_path):
        path = write_trace_file(tmp_path, "time,reqs\n0,10\n")
        with pytest.raises(TraceFormatError) as err:
            load_trace(path)
        assert err.value.line == 1

    def test_malformed_row_names_line(self, tmp_path):
        path = write_trace_file(tmp_path, "minute,requests\n0,10\n1,oops\n")
        with pytest.raises(TraceFormatError) as err:
            load_trace(path)
        assert err.value.line == 3

    def test_gap_names_both_minutes(self, tmp_path):
        path = write_trace_file(tmp_path, "minute,requests\n0,10\n2,12\n")
        with pytest.raises(TraceFormatError, match="between 0 and 2"):
            load_trace(path)

    def test_negative_count_rejected(self, tmp_path):
        path = write_trace_file(tmp_path, "minute,requests\n0,-1\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_five_minute_resolution_stride(self, tmp_path):
        path = write_trace_file(tmp_path, "minute,requests\n0,10\n5,12\n10,3\n")
        t = load_trace(path, resolution=5)
        assert t.counts == (10, 12, 3) and t.resolution == 5

    @given(counts=st.lists(st.integers(0, 10_000), min_size=1, max_size=50),
           start=st.integers(0, 1000))
    @settings(max_examples=50)
    def test_round_trip_bytes(self, tmp_path_factory, counts, start):
        trace = WorkloadTrace(resolution=1, start_minute=start, counts=tuple(counts))
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        save_trace(trace, path)
        first = path.read_bytes()
        save_trace(load_trace(path), path)
        assert path.read_bytes() == first


class TestInterpolation:
    def test_flat_neighbors_even_split(self):
        t = WorkloadTrace(resolution=5, start_minute=0, counts=(10, 10, 10))
        out = interpolate_to_minutes(t)
        assert out.counts == (2, 2, 2, 2, 2) * 3
        assert out.resolution == 1

    def test_zero_bin_gives_five_zero_minutes(self):
        t = WorkloadTrace(resolution=5, start_minute=0, counts=(0, 0))
        assert interpolate_to_minutes(t).counts == (0,) * 10

    def test_requires_resolution_5(self):
        t = WorkloadTrace(resolution=1, start_minute=0, counts=(5,))
        with pytest.raises(ValidationError):
            interpolate_to_minutes(t)

    def test_rising_ramp_is_nondecreasing_within_bin(self):
        t = WorkloadTrace(resolution=5, start_minute=0, counts=(0, 100, 200))
        out = np.array(interpolate_to_minutes(t).counts)
        middle = out[5:10]
        assert np.all(np.diff(middle) >= 0)

    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=40),
           st.integers(0, 10))
    @settings(max_examples=200)
    def test_per_bin_conservation(self, counts, start_bin):
        # Oracle: independent per-bin sums of the interpolated output.
        trace = WorkloadTrace(resolution=5, start_minute=start_bin * 5,
                              counts=tuple(counts))
        out = interpolate_to_minutes(trace)
        assert len(out) == 5 * len(counts)
        assert out.start_minute == trace.start_minute
        for i, total in enumerate(counts):
            assert sum(out.counts[5 * i:5 * i + 5]) == total


class TestRescale:
    def test_peak_hits_target(self):
        t = WorkloadTrace(resolution=1, start_minute=0, counts=(100, 1000, 400))
        out = rescale_trace(t, 500.0)
        assert max(out.counts) == 500

    def test_identity_scaling(self):
        t = WorkloadTrace(resolution=1, start_minute=0, counts=(3, 9, 6))
        assert rescale_trace(t, 9.0).counts == t.counts

    def test_zeros_stay_zero(self):
        t = WorkloadTrace(resolution=1, start_minute=0, counts=(0, 10, 0))
        out = rescale_trace(t, 100.0)
        assert out.counts[0] == 0 and out.counts[2] == 0

    def test_all_zero_rejected(self):
        t = WorkloadTrace(resolution=1, start_minute=0, counts=(0, 0))
        with pytest.raises(ValidationError):
            rescale_trace(t, 10.0)

    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=30),
           st.floats(1.0, 5000.0))
    @settings(max_examples=100)
    def test_monotone_stays_monotone(self, counts, peak):
        counts = tuple(sorted(counts))
        if max(counts) == 0:
            counts = counts[:-1] + (1,)
        t = WorkloadTrace(resolution=1, start_minute=0, counts=counts)
        out = rescale_trace(t, peak)
        assert all(a <= b for a, b in zip(out.counts, out.counts[1:]))


class TestSplit:
    def test_4000_gives_2400_800_800(self):
        train, valid, test = split_dataset(list(range(4000)))
        assert (len(train), len(valid), len(test)) == (2400, 800, 800)
        assert test == list(range(3200, 4000))

    def test_small_cases(self):
        assert tuple(map(len, split_dataset(list(range(10))))) == (6, 2, 2)
        assert tuple(map(len, split_dataset(list(range(5))))) == (3, 1, 1)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            split_dataset([1, 2, 3, 4])

    @given(st.integers(5, 2000))
    @settings(max_examples=100)
    def test_disjoint_ordered_exhaustive(self, n):
        samples = list(range(n))
        train, valid, test = split_dataset(samples)
        assert train + valid + test == samples
        assert len(train) == int(0.6 * n) or len(train) == n * 6 // 10

    def test_works_on_numpy_arrays(self):
        train, valid, test = split_dataset(np.arange(100))
        assert len(train) == 60 and valid[0] == 60 and test[-1] == 99


class TestSyntheticGenerator:
    def test_amplitude_zero_constant(self):
        t = generate_synthetic_trace("sine", 50, 0.0, seed=1, base=42.0)
        assert set(t.counts) == {42}

    def test_same_seed_identical(self):
        a = generate_synthetic_trace("bursty", 300, 80.0, seed=5, noise=0.1)
        b = generate_synthetic_trace("bursty", 300, 80.0, seed=5, noise=0.1)
        assert a.counts == b.counts

    def test_different_seed_differs(self):
        a = generate_synthetic_trace("sine", 200, 50.0, seed=1, noise=0.05)
        b = generate_synthetic_trace("sine", 200, 50.0, seed=2, noise=0.05)
        assert a.counts != b.counts

    def test_diurnal_period_autocorrelation(self):
        t = generate_synthetic_trace("diurnal", 4320, 100.0, seed=3)
        x = t.values - t.values.mean()
        lag = 1440
        ac = float(np.corrcoef(x[:-lag], x[lag:])[0, 1])
        half = float(np.corrcoef(x[:-720], x[720:])[0, 1])
        assert ac > 0.99
        assert half < ac  # the configured period is the dominant one

    def test_nonnegative_counts_under_heavy_noise(self):
        t = generate_synthetic_trace("sine", 500, 100.0, seed=9, base=10.0, noise=2.0)
        assert min(t.counts) >= 0

    def test_unknown_pattern(self):
        with pytest.raises(ValidationError):
            generate_synthetic_trace("square", 10, 1.0, seed=0)

    @pytest.mark.parametrize("pattern", ["sine", "diurnal"])
    @pytest.mark.parametrize("period", [0, -0.0, 1e-320])
    def test_degenerate_period_rejected(self, pattern, period):
        # The phase 2 pi t / period is NaN or infinite: its counts used to
        # fail as a float NaN converted to an integer.
        with pytest.raises(ValidationError, match=f"period {period} .* non-finite"):
            generate_synthetic_trace(pattern, 10, 1.0, seed=0, period=period)


class TestSliceAndDigest:
    def test_slice_preserves_absolute_minutes(self):
        t = WorkloadTrace(resolution=1, start_minute=100, counts=tuple(range(10)))
        s = slice_trace(t, 4, 8)
        assert s.start_minute == 104 and s.counts == (4, 5, 6, 7)

    def test_slice_bounds_checked(self):
        t = WorkloadTrace(resolution=1, start_minute=0, counts=(1, 2, 3))
        with pytest.raises(ValidationError):
            slice_trace(t, 2, 2)

    def test_digest_changes_with_content(self):
        a = WorkloadTrace(resolution=1, start_minute=0, counts=(1, 2))
        b = WorkloadTrace(resolution=1, start_minute=0, counts=(1, 3))
        c = WorkloadTrace(resolution=1, start_minute=1, counts=(1, 2))
        assert trace_digest(a) != trace_digest(b)
        assert trace_digest(a) != trace_digest(c)
        assert trace_digest(a) == trace_digest(WorkloadTrace(1, 0, (1, 2)))
