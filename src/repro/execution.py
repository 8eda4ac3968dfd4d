"""Execution configuration (backend, workers) and front-end kernel selection.

Two frozen dataclasses, deliberately unrelated:

- :class:`ExecutionConfig` — the Sparklet backend + worker count, carried
  by every facade config.  ``None`` fields mean "not specified here";
  :func:`resolve_execution` fills them from the ``REPRO_BACKEND`` /
  ``REPRO_WORKERS`` environment variables (read only in
  :func:`env_execution_config`) and finally from hard defaults, so every
  entry point — facade, CLI, streaming, serving — agrees on what a
  half-specified config means.  Resolution order (weakest to strongest):
  **env < config < CLI**; CLI flags win simply because the CLI builds an
  explicit config from them.
- :class:`KernelConfig` — which dedispersion algorithm (exact ``direct`` or
  tolerance-bounded ``subband``) the SPE-generating front end uses; the
  boxcar search is always the cumulative-sum one.  It is an argument of the two functions
  that dedisperse (:func:`repro.astro.filterbank.single_pulse_search` and
  :func:`~repro.astro.filterbank.dedisperse_all`) and of nothing else: the
  identification tiers start from SPE lists and never select a kernel.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from typing import ClassVar

__all__ = [
    "KernelConfig",
    "ExecutionConfig",
    "env_execution_config",
    "resolve_execution",
    "BACKEND_ENV",
    "WORKERS_ENV",
]

#: Environment variables — the single authoritative list.
BACKEND_ENV = "REPRO_BACKEND"
WORKERS_ENV = "REPRO_WORKERS"

BACKENDS = ("serial", "parallel")
KERNEL_METHODS = ("direct", "subband")

DEFAULT_BACKEND = "serial"
DEFAULT_NUM_WORKERS = 2


def _check(name: str, value: str | None, allowed: tuple[str | None, ...]) -> None:
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


def check_subband_settings(n_subbands: int | None, tol_samples: float) -> None:
    """Reject subband settings that would silently mis-group the DM ladder:
    a non-finite ``tol_samples`` puts every trial DM in one group, and a
    fractional or boolean ``n_subbands`` is not a channel count."""
    if n_subbands is not None and (
        isinstance(n_subbands, bool)
        or not isinstance(n_subbands, numbers.Integral)
        or n_subbands < 1
    ):
        raise ValueError(f"n_subbands must be an integer >= 1, got {n_subbands!r}")
    if not (math.isfinite(tol_samples) and tol_samples > 0):
        raise ValueError(f"tol_samples must be finite and positive, got {tol_samples!r}")


@dataclass(frozen=True)
class KernelConfig:
    """Front-end kernel selection: the dedispersion method and its
    subband settings (used only by ``method="subband"``)."""

    #: Every kernel is NumPy and every boxcar is the cumulative-sum one;
    #: constants, not choices, read by callers that pass them on to
    #: :func:`repro.astro.kernels.single_pulse_block_search`.
    impl: ClassVar[str] = "numpy"
    boxcar: ClassVar[str] = "cumsum"

    method: str = "direct"
    n_subbands: int | None = None
    tol_samples: float = 1.0

    def __post_init__(self) -> None:
        _check("method", self.method, KERNEL_METHODS)
        check_subband_settings(self.n_subbands, self.tol_samples)

    def resolved(self) -> "KernelConfig":
        """This config: every field is already concrete."""
        return self


@dataclass(frozen=True)
class ExecutionConfig:
    """How a run executes: Sparklet backend and worker pool.

    Both fields accept ``None`` ("not specified"): the env vars
    ``REPRO_BACKEND``/``REPRO_WORKERS`` and then the hard defaults
    (``serial``, 2) fill them via :func:`resolve_execution`.
    """

    backend: str | None = None
    num_workers: int | None = None

    def __post_init__(self) -> None:
        _check("backend", self.backend, BACKENDS + (None,))
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")


def env_execution_config() -> ExecutionConfig:
    """The execution config described by the environment alone.

    The only place the ``REPRO_BACKEND`` / ``REPRO_WORKERS`` env vars are
    read.  Unset variables stay ``None``; set ones go through the same
    validation as an explicit config.
    """
    workers = os.environ.get(WORKERS_ENV)
    try:
        return ExecutionConfig(
            backend=os.environ.get(BACKEND_ENV) or None,
            num_workers=int(workers) if workers else None,
        )
    except ValueError as exc:
        raise ValueError(
            f"invalid {BACKEND_ENV}/{WORKERS_ENV} environment: {exc}"
        ) from None


def resolve_execution(config: ExecutionConfig | None = None) -> ExecutionConfig:
    """Fill every unspecified field: explicit config > env > default."""
    cfg = config or ExecutionConfig()
    env = env_execution_config()
    return ExecutionConfig(
        backend=cfg.backend or env.backend or DEFAULT_BACKEND,
        num_workers=cfg.num_workers or env.num_workers or DEFAULT_NUM_WORKERS,
    )
