"""PID backpressure: keep processing time under the batch interval.

This is the shape of Spark's ``PIDRateEstimator`` (the default
``spark.streaming.backpressure`` implementation): after every completed
batch, compare the rate the pipeline *achieved* (elements / processing
delay) with the rate the receivers were *allowed*, and correct the limit
with proportional, integral and derivative terms.  The integral term is
the clever one — the backlog already sitting in the scheduler shows up as
scheduling delay, and ``scheduling_delay × processing_rate / batch_interval``
is exactly the rate headroom needed to drain it over one interval.

The estimator is pure arithmetic over its three floats of state, so it
checkpoints as JSON and replays deterministically.
"""

from __future__ import annotations

#: Gains and floor for the rate estimator (Spark's defaults).
PROPORTIONAL = 1.0   # spark.streaming.backpressure.pid.proportional
INTEGRAL = 0.2       # ...pid.integral
DERIVATIVE = 0.0     # ...pid.derived
MIN_RATE = 10.0      # ...pid.minRate (rows per second)


class PIDRateEstimator:
    """Computes a new receiver rate limit from each batch's delays."""

    def __init__(self, batch_interval_s: float, initial_rate: float) -> None:
        if batch_interval_s <= 0:
            raise ValueError("batch interval must be positive")
        self.batch_interval_s = batch_interval_s
        self.latest_time_s = 0.0
        self.latest_rate = float(initial_rate)
        self.latest_error = 0.0

    @property
    def rate(self) -> float:
        """The current receiver rate limit (rows per second)."""
        return self.latest_rate

    def compute(
        self,
        time_s: float,
        n_elements: int,
        processing_delay_s: float,
        scheduling_delay_s: float,
    ) -> float | None:
        """Fold one completed batch in; returns the new rate, or None if the
        update is not computable (empty batch, zero delay, stale time)."""
        if (time_s <= self.latest_time_s or n_elements <= 0
                or processing_delay_s <= 0):
            return None
        delay_since_update = time_s - self.latest_time_s
        processing_rate = n_elements / processing_delay_s
        error = self.latest_rate - processing_rate
        # Backlog expressed as a rate: what it takes to drain the queued
        # work within one batch interval.
        historical_error = (
            scheduling_delay_s * processing_rate / self.batch_interval_s
        )
        d_error = (error - self.latest_error) / delay_since_update
        new_rate = max(
            self.latest_rate
            - PROPORTIONAL * error
            - INTEGRAL * historical_error
            - DERIVATIVE * d_error,
            MIN_RATE,
        )
        self.latest_time_s = time_s
        self.latest_rate = new_rate
        self.latest_error = error
        return new_rate

    # -- checkpoint ---------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "latest_time_s": self.latest_time_s,
            "latest_rate": self.latest_rate,
            "latest_error": self.latest_error,
        }

    def restore(self, snap: dict) -> None:
        self.latest_time_s = float(snap["latest_time_s"])
        self.latest_rate = float(snap["latest_rate"])
        self.latest_error = float(snap["latest_error"])


__all__ = ["PIDRateEstimator"]
