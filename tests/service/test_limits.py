"""Unit tests for the admission-control primitives in service.limits.

Everything here is deterministic: the rate limiter takes an injectable
clock, the gate and latency recorder are pure counters.  The socket-level
behaviour (rejection frames, id echo, connection survival) is covered in
``test_server.py``; these tests pin the arithmetic.
"""

import pytest

from repro.service.limits import (
    AdmissionGate,
    LatencyRecorder,
    RateLimiter,
    percentile,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestRateLimiter:
    def test_admits_up_to_limit_then_rejects(self):
        clock = FakeClock()
        limiter = RateLimiter(3, window=1.0, clock=clock)
        assert [limiter.admit("c") for _ in range(3)] == [None, None, None]
        assert limiter.admit("c") is not None
        assert limiter.admitted == 3
        assert limiter.rejected == 1

    def test_window_slides(self):
        clock = FakeClock()
        limiter = RateLimiter(2, window=1.0, clock=clock)
        assert limiter.admit("c") is None
        clock.advance(0.6)
        assert limiter.admit("c") is None
        assert limiter.admit("c") is not None
        clock.advance(0.5)  # first stamp (t=0) now outside the window
        assert limiter.admit("c") is None

    def test_retry_after_is_time_until_oldest_stamp_expires(self):
        clock = FakeClock()
        limiter = RateLimiter(2, window=1.0, clock=clock)
        limiter.admit("c")
        clock.advance(0.25)
        limiter.admit("c")
        clock.advance(0.25)
        # Oldest stamp is at t=0; it leaves the window at t=1.0; now=0.5.
        assert limiter.admit("c") == pytest.approx(0.5)

    def test_rejections_do_not_extend_the_window(self):
        clock = FakeClock()
        limiter = RateLimiter(1, window=1.0, clock=clock)
        limiter.admit("c")
        for _ in range(50):  # a hammering client gains nothing...
            clock.advance(0.01)
            assert limiter.admit("c") is not None
        clock.advance(0.6)  # ...and recovers exactly when the window slides
        assert limiter.admit("c") is None

    def test_clients_are_independent(self):
        clock = FakeClock()
        limiter = RateLimiter(1, window=1.0, clock=clock)
        assert limiter.admit("a") is None
        assert limiter.admit("b") is None
        assert limiter.admit("a") is not None
        assert limiter.tracked_clients == 2

    def test_forget_drops_window_state(self):
        clock = FakeClock()
        limiter = RateLimiter(1, window=1.0, clock=clock)
        limiter.admit("c")
        assert limiter.admit("c") is not None
        limiter.forget("c")
        assert limiter.tracked_clients == 0
        assert limiter.admit("c") is None

    def test_stats_shape(self):
        limiter = RateLimiter(5, window=2.0, clock=FakeClock())
        limiter.admit("c")
        stats = limiter.stats()
        assert stats["limit"] == 5
        assert stats["window_seconds"] == 2.0
        assert stats["admitted"] == 1
        assert stats["rejected"] == 0
        assert stats["tracked_clients"] == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"limit": 0},
            {"limit": -1},
            {"limit": 5, "window": 0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RateLimiter(**kwargs)


class TestAdmissionGate:
    def test_acquire_release_cycle(self):
        gate = AdmissionGate(2)
        assert gate.try_acquire()
        assert gate.try_acquire()
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()
        assert gate.inflight == 2

    def test_peak_tracks_highest_concurrency(self):
        gate = AdmissionGate(4)
        for _ in range(3):
            gate.try_acquire()
        gate.release()
        gate.release()
        assert gate.peak == 3
        assert gate.inflight == 1

    def test_unmatched_release_is_an_error(self):
        gate = AdmissionGate(1)
        with pytest.raises(ValueError, match="matching try_acquire"):
            gate.release()

    def test_stats_counters(self):
        gate = AdmissionGate(1)
        gate.try_acquire()
        gate.try_acquire()
        stats = gate.stats()
        assert stats == {
            "max_inflight": 1, "inflight": 1, "peak": 1,
            "admitted": 1, "rejected": 1,
        }

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            AdmissionGate(0)


class TestPercentile:
    def test_nearest_rank_convention(self):
        samples = sorted(float(v) for v in range(1, 101))
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.95) == 95.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile(samples, 1.00) == 100.0

    def test_single_sample(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_never_interpolates_above_the_maximum(self):
        assert percentile([1.0, 100.0], 0.99) == 100.0

    def test_empty_and_bad_q_raise(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestLatencyRecorder:
    def test_percentiles_per_op(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record("reach", value / 1000)
        block = recorder.percentiles("reach")
        assert block["count"] == 100
        assert block["p50"] == pytest.approx(0.050)
        assert block["p95"] == pytest.approx(0.095)
        assert block["p99"] == pytest.approx(0.099)

    def test_unrecorded_op_is_none(self):
        assert LatencyRecorder().percentiles("ping") is None

    def test_reservoir_is_bounded_but_count_is_monotone(self):
        recorder = LatencyRecorder(max_samples=8)
        for _ in range(100):
            recorder.record("ping", 0.001)
        block = recorder.percentiles("ping")
        assert block["count"] == 100
        assert len(recorder._samples["ping"]) == 8

    def test_stats_covers_every_recorded_op(self):
        recorder = LatencyRecorder()
        recorder.record("reach", 0.001)
        recorder.record("stats", 0.002)
        assert sorted(recorder.stats()) == ["reach", "stats"]

    def test_rejects_nonpositive_reservoir(self):
        with pytest.raises(ValueError):
            LatencyRecorder(max_samples=0)
