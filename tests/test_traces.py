"""Trace ingestion, interpolation, splitting, and synthesis tests.

The whole-array parser, writer, generator and rescaler are checked against
the per-row forms in oracles.py: same trace, or same error and message.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_phpa import traces
from graph_phpa.errors import TraceFormatError, ValidationError, read
from graph_phpa.traces import (WorkloadTrace, generate_synthetic_trace,
                               interpolate_to_minutes, load_trace, rescale_trace,
                               save_trace, slice_trace, split_dataset, trace_digest)
from oracles import (interpolate_to_minutes_oracle, load_trace_oracle, rescaled_counts_oracle,
                     save_trace_oracle, synthetic_counts_oracle)


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
        # float64, the simulator's type, holds every count up to 2**53 exactly.
        assert WorkloadTrace(1, 0, (2**53,)).values[0] == 2**53
        with pytest.raises(ValidationError, match=r"^request count 9007199254740993 is above "
                                                  r"2\*\*53, more than float64 holds exactly$"):
            WorkloadTrace(resolution=1, start_minute=0, counts=(1, 2**53 + 1))

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

    @pytest.mark.parametrize("count", [2**53 + 1, 2**60 + 1, 2**63 - 1, 10**30])
    def test_count_above_2_53_names_its_line(self, tmp_path, count):
        # 2**60 + 1 used to load as 2**60, with no error.
        path = write_trace_file(tmp_path, f"minute,requests\n0,1\n1,{2**53}\n2,{count}\n")
        with pytest.raises(TraceFormatError, match=f"^{path}:4: request count {count} is "
                                                   f"above 2\\*\\*53") as err:
            load_trace(path)
        assert err.value.line == 4

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

    @given(counts=st.lists(st.sampled_from([0, 1, 2, 3, 5, 7, 10, 11, 12, 1000])
                           | st.integers(0, 2**53), min_size=1, max_size=40),
           start_bin=st.integers(-3, 10))
    @settings(max_examples=300)
    @example(counts=[10, 10, 11, 12, 3], start_bin=0)  # remainder ties within bins
    @example(counts=[0, 0, 7, 0, 0], start_bin=1)  # zero bins, one beside requests
    @example(counts=[0], start_bin=0)
    @example(counts=[2**53, 1, 2**53 - 1], start_bin=0)
    def test_matches_the_per_bin_loop(self, counts, start_bin):
        # The array passes give the loop's counts, rounding and ties included;
        # a bin with requests always has a positive middle weight, so only an
        # empty bin has no weight at all.
        trace = WorkloadTrace(resolution=5, start_minute=start_bin * 5, counts=tuple(counts))
        got = interpolate_to_minutes(trace)
        assert got == interpolate_to_minutes_oracle(trace)
        assert {type(c) for c in got.counts} == {int}

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

    @pytest.mark.parametrize("pattern", ["sine", "diurnal", "bursty"])
    def test_integer_base_reads_as_its_float(self, pattern):
        # A JSON integer base made the bursty level an int64 array, and
        # adding the first burst to it raised numpy's UFuncTypeError.
        spec = {"pattern": pattern, "length": 500, "amplitude": 450.0, "seed": 5}
        as_int = read(generate_synthetic_trace, {**spec, "base": 350}, "trace.synthetic")
        as_float = read(generate_synthetic_trace, {**spec, "base": 350.0}, "trace.synthetic")
        assert as_int.counts == as_float.counts

    @pytest.mark.parametrize("pattern", ["sine", "diurnal"])
    @pytest.mark.parametrize("period", [0, -0.0, 1e-320, -240.0, float("nan")])
    def test_degenerate_period_rejected(self, pattern, period):
        # A period must be above 0: a negative one used to run, as a
        # time-reversed wave. A subnormal one makes the phase 2 pi t / period
        # infinite: its counts used to fail as a float NaN converted to an
        # integer.
        message = (f"period {period} .* non-finite" if period > 0
                   else f"^period must be > 0, got {period}$")
        with pytest.raises(ValidationError, match=message):
            generate_synthetic_trace(pattern, 10, 1.0, seed=0, period=period)

    @pytest.mark.parametrize("noise", [-1.0, -1e-9, float("nan")])
    def test_negative_noise_rejected(self, noise):
        with pytest.raises(ValidationError, match="noise must be >= 0"):
            generate_synthetic_trace("sine", 10, 1.0, seed=0, noise=noise)


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


# Fields and lines that int() and np.loadtxt may read differently, or that
# break one of load_trace's rules.
ODD_FIELDS = ["+5", "-0", "05", " 7", "7 ", "\t7", "-3", "1_000", "\u0665", "\uff15", "1.0",
              "#", "#5", "", " ", "+ 5", "--5", "5\x1f", "\x1f5", "\x0c5", "5\x0b", "5\x00",
              "0x10", "1e3", "nan", str(2**63 - 1), str(2**63), str(-2**63), str(-2**63 - 1),
              str(2**64), str(10**30)]
ODD_LINES = ["", "  ", "\t", "7", "1,2,3", "1,2,", ",", "#,1", "# note", "\x0c", "5\x1c",
             "\x85", "\u2028", "minute,requests"]
HEADERS = ["minute,requests", " minute,requests\t", "minute,requests ", "minute, requests",
           "time,reqs", "\ufeffminute,requests", "\x0cminute,requests", "minute,requests\x1f",
           "minute,requests\x0c0,5", ""]
STARTS = [0, 7, -12, 2**62 - 9, -2**62 + 1, 2**63 - 9, -2**63, 10**20]


@st.composite
def trace_files(draw, corrupt: bool):
    """(resolution, text): a trace CSV, with odd headers, fields, lines, gaps
    and line endings when corrupt."""
    resolution = draw(st.sampled_from([1, 5]))
    minute = draw(st.sampled_from(STARTS)) if corrupt else draw(st.integers(-10**6, 10**6))
    lines = [draw(st.sampled_from(HEADERS)) if corrupt else "minute,requests"]
    for _ in range(draw(st.integers(0 if corrupt else 1, 12))):
        kind = (draw(st.sampled_from(["row", "row", "field", "line", "gap", "negative"]))
                if corrupt else "row")
        if kind == "line":
            lines.append(draw(st.sampled_from(ODD_LINES)))
            continue
        if kind == "gap":
            minute += draw(st.sampled_from([1, 2, -1, -resolution, 2**63]))
        fields = [str(minute), str(draw(st.integers(0, 10**9)))]
        if kind == "field":
            fields[draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_FIELDS))
        elif kind == "negative":
            fields[1] = str(-draw(st.integers(1, 10)))
        lines.append(",".join(fields))
        minute += resolution
    end = draw(st.sampled_from(["\n", "\r\n", "\r"])) if corrupt else "\n"
    return resolution, end.join(lines) + draw(st.sampled_from([end, ""]))


def outcome(load, path, resolution):
    """What load makes of a file: the trace's fields, or its error."""
    try:
        trace = load(path, resolution)
    except (TraceFormatError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return trace.resolution, trace.start_minute, trace.counts, {type(c) for c in trace.counts}


class TestBulkTraceIO:
    @given(file=trace_files(corrupt=False))
    @settings(max_examples=100)
    def test_valid_files_parse_in_bulk_as_the_oracle_does(self, tmp_path_factory, file):
        resolution, text = file
        path = tmp_path_factory.mktemp("bulk") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(traces, "_parse_lines", side_effect=AssertionError):
            got = outcome(load_trace, path, resolution)
        assert got == outcome(load_trace_oracle, path, resolution)

    @given(file=trace_files(corrupt=True))
    @settings(max_examples=400)
    @example(file=(1, "minute,requests\n0,5\x1f\n"))
    @example(file=(1, f"minute,requests\n{2**63 - 1},1\n{-2**63},2\n"))
    @example(file=(1, "\x0cminute,requests\n0,5\n"))
    @example(file=(5, "minute,requests\n0,5\n5,-3\n"))
    def test_corrupted_files_give_the_oracles_trace_or_error(self, tmp_path_factory, file):
        resolution, text = file
        path = tmp_path_factory.mktemp("odd") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_trace, path, resolution) == outcome(load_trace_oracle, path,
                                                                resolution)

    @given(counts=st.lists(st.integers(0, 2**53), min_size=1, max_size=40),
           start=st.integers(-2**70, 2**70), resolution=st.integers(1, 7))
    @settings(max_examples=100)
    def test_save_writes_the_oracles_bytes(self, tmp_path_factory, counts, start, resolution):
        trace = WorkloadTrace(resolution=resolution, start_minute=start, counts=tuple(counts))
        d = tmp_path_factory.mktemp("save")
        save_trace(trace, d / "t.csv")
        save_trace_oracle(trace, d / "ref.csv")
        assert (d / "t.csv").read_bytes() == (d / "ref.csv").read_bytes()

    @given(counts=st.lists(st.integers(0, 2**53), min_size=1, max_size=40),
           peak=st.floats(1e-3, 1e300))
    @settings(max_examples=100)
    @example(counts=[1, 2], peak=1e17)  # rescale_peak: 1e17 used to run
    def test_rescale_gives_the_oracles_counts(self, counts, peak):
        if max(counts) == 0:
            counts[0] = 1
        trace = WorkloadTrace(resolution=1, start_minute=0, counts=tuple(counts))
        expected = rescaled_counts_oracle(counts, peak)
        if max(expected) > 2**53:  # more than a trace holds
            with pytest.raises(ValidationError, match="above 2\\*\\*53"):
                rescale_trace(trace, peak)
        else:
            assert rescale_trace(trace, peak).counts == expected

    @given(pattern=st.sampled_from(["sine", "diurnal", "bursty"]), length=st.integers(1, 400),
           amplitude=st.sampled_from([0.0, 60.0, 1e3, -5.0, 1e16, 1e300])
           | st.floats(-10.0, 1e4),
           base=st.sampled_from([0.0, 2.5, 100.5, -1.0, 2.0**53, 1e17]) | st.floats(-10.0, 1e4),
           noise=st.sampled_from([0.0, 0.05, 2.0, 1e20]) | st.floats(0.0, 3.0),
           period=st.none() | st.floats(0.5, 3000.0), seed=st.integers(0, 2**32),
           resolution=st.integers(1, 5))
    @settings(max_examples=150)
    @example(pattern="sine", length=3, amplitude=0.0, base=2.5, noise=0.0, period=None, seed=0,
             resolution=1)  # round() rounds half to even
    def test_generator_gives_the_oracles_counts(self, pattern, length, amplitude, base, noise,
                                                period, seed, resolution):
        args = dict(pattern=pattern, length=length, amplitude=amplitude, seed=seed, base=base,
                    period=period, noise=noise, resolution=resolution)
        try:
            expected = synthetic_counts_oracle(**args)
        except ValidationError as exc:
            expected = exc
        if base < 0 or amplitude < 0:
            name = "base" if base < 0 else "amplitude"
            with pytest.raises(ValidationError, match=f"^{name} must be >= 0, got "):
                generate_synthetic_trace(**args)
        elif isinstance(expected, ValidationError):
            with pytest.raises(ValidationError) as err:
                generate_synthetic_trace(**args)
            assert str(err.value) == str(expected)
        elif max(expected) > 2**53:
            with pytest.raises(ValidationError, match="counts above 2\\*\\*53"):
                generate_synthetic_trace(**args)
        else:
            assert generate_synthetic_trace(**args).counts == expected
