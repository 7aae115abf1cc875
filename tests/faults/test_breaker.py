"""CircuitBreaker state machine on a manual clock."""

import pytest

from repro.faults import CircuitBreaker
from repro.faults.breaker import COOLDOWN_S, FAILURE_THRESHOLD
from repro.serving import ManualClock


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def breaker(clock):
    return CircuitBreaker(clock=clock)


class TestTrip:
    def test_closed_allows(self, breaker):
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self, breaker):
        assert FAILURE_THRESHOLD == 3
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_streak(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED


class TestRecovery:
    def _trip(self, breaker):
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN

    def test_cooldown_gates_half_open(self, breaker, clock):
        self._trip(breaker)
        clock.advance(COOLDOWN_S / 2)
        assert not breaker.allow()
        clock.advance(COOLDOWN_S * 0.6)
        assert breaker.allow()  # admits the trial request
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_trial_success_closes(self, breaker, clock):
        self._trip(breaker)
        clock.advance(COOLDOWN_S * 1.1)
        assert breaker.allow()
        breaker.record_success()  # one trial success closes it
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_trial_failure_retrips_immediately(self, breaker, clock):
        self._trip(breaker)
        clock.advance(COOLDOWN_S * 1.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2
        assert not breaker.allow()


class TestStatus:
    def test_counters_and_status(self, breaker):
        breaker.record_success()
        for _ in range(3):
            breaker.record_failure()
        status = breaker.status()
        assert status["state"] == CircuitBreaker.OPEN
        assert status["opens"] == 1
        assert status["failures"] == 3
        assert status["successes"] == 1
