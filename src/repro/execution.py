"""Execution configuration (backend, workers) and the front-end kernel record.

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
- :class:`KernelConfig` — the SPE-generating front end's kernels, which
  are not choices: one dedispersion engine
  (:func:`repro.astro.kernels.plan_dedispersion`: partial sums shared
  across neighbouring trial DMs at round(√n_chan) subbands, every channel
  within 2 samples of its exact shift, and a trial DM that shares its
  group with no neighbour summed at its exact shifts) and the
  cumulative-sum boxcar search, both NumPy.  It has no fields; what the
  end-to-end harness reads of it is kept: ``KernelConfig()``,
  :meth:`KernelConfig.resolved`, and the class constants ``boxcar`` and
  ``impl``.  The two functions that dedisperse
  (:func:`repro.astro.filterbank.single_pulse_search` and
  :func:`~repro.astro.filterbank.dedisperse_all`) accept one as ``kernel``
  and refuse anything else; the identification tiers start from SPE lists
  and never see it.
"""

from __future__ import annotations

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

DEFAULT_BACKEND = "serial"
DEFAULT_NUM_WORKERS = 2


def _check(name: str, value: str | None, allowed: tuple[str | None, ...]) -> None:
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


@dataclass(frozen=True)
class KernelConfig:
    """The front end's kernels: one dedispersion engine and one boxcar
    search, so nothing to select and no fields."""

    #: Every kernel is NumPy and every boxcar is the cumulative-sum one;
    #: constants, not choices, read by callers that pass them on to
    #: :func:`repro.astro.kernels.single_pulse_block_search`.
    impl: ClassVar[str] = "numpy"
    boxcar: ClassVar[str] = "cumsum"

    def resolved(self) -> "KernelConfig":
        """This config: there is nothing to resolve."""
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
        n = self.num_workers
        if n is not None and (
            isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1
        ):
            raise ValueError(f"num_workers must be an integer >= 1, got {n!r}")


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
