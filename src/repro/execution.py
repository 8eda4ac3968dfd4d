"""Unified execution configuration: backend, workers and front-end kernels.

The knobs that decide *how* a run executes live in two frozen dataclasses,
and the ``REPRO_*`` environment variables behind them are read only here:

- :class:`KernelConfig` — which dedispersion algorithm (``direct`` /
  ``subband`` / ``tree``), which implementation (``numpy`` / ``numba`` /
  ``auto``) and which boxcar mode (``cumsum`` / ``decomposed``) the
  SPE-generating front end uses;
- :class:`ExecutionConfig` — the Sparklet backend + worker count,
  carrying a :class:`KernelConfig`.

Resolution order (weakest to strongest): **env < config < CLI**.  ``None``
fields mean "not specified here"; :func:`resolve_execution` fills them from
the environment and finally from hard defaults, in one place
(:func:`env_execution_config`), so every entry point — facade, CLI,
streaming, serving — agrees on what a half-specified config means.  CLI
flags win simply because the CLI builds an explicit config from them.

The dataclasses are frozen and hashable on purpose: they participate in
memo lineage hashing (``repro.memo.hashing.token_for``), so two runs that
differ only in kernel method get distinct lineage hashes and cannot serve
each other's cached results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

__all__ = [
    "KernelConfig",
    "ExecutionConfig",
    "env_execution_config",
    "resolve_execution",
    "BACKEND_ENV",
    "WORKERS_ENV",
    "KERNEL_METHOD_ENV",
    "KERNEL_IMPL_ENV",
]

#: Environment variables — the single authoritative list.
BACKEND_ENV = "REPRO_BACKEND"
WORKERS_ENV = "REPRO_WORKERS"
KERNEL_METHOD_ENV = "REPRO_KERNEL_METHOD"
KERNEL_IMPL_ENV = "REPRO_KERNEL_IMPL"

BACKENDS = ("serial", "parallel")
KERNEL_METHODS = ("direct", "subband", "tree")
KERNEL_IMPLS = ("numpy", "numba", "auto")
BOXCAR_MODES = ("cumsum", "decomposed")

DEFAULT_BACKEND = "serial"
DEFAULT_NUM_WORKERS = 2
DEFAULT_KERNEL_METHOD = "direct"
DEFAULT_KERNEL_IMPL = "auto"


def _check(name: str, value: str | None, allowed: tuple[str, ...]) -> None:
    if value is not None and value not in allowed:
        raise ValueError(f"{name} must be one of {allowed} or None, got {value!r}")


@dataclass(frozen=True)
class KernelConfig:
    """Front-end kernel selection (dedispersion + boxcar search).

    ``None`` fields defer to the environment and then to defaults — see
    :meth:`resolved`.  ``impl="auto"`` picks numba when importable, NumPy
    otherwise; ``impl="numba"`` on a numba-less host falls back cleanly to
    NumPy (the resolved choice is recorded in the ``kernel_selected`` obs
    event, so the fallback is observable, never silent data corruption).

    ``boxcar=None`` couples to the method: the exact ``direct`` path keeps
    the bit-stable ``cumsum`` boxcar, while the tolerance-bounded
    ``subband``/``tree`` paths default to the ``decomposed`` boxcar that
    reuses shorter-width window sums.
    """

    method: str | None = None
    impl: str | None = None
    boxcar: str | None = None
    n_subbands: int | None = None
    tol_samples: float = 1.0

    def __post_init__(self) -> None:
        _check("method", self.method, KERNEL_METHODS)
        _check("impl", self.impl, KERNEL_IMPLS)
        _check("boxcar", self.boxcar, BOXCAR_MODES)
        if self.n_subbands is not None and self.n_subbands < 1:
            raise ValueError(f"n_subbands must be >= 1, got {self.n_subbands}")
        if self.tol_samples <= 0:
            raise ValueError(f"tol_samples must be positive, got {self.tol_samples}")

    def resolved(self) -> "KernelConfig":
        """A copy with every ``None`` field made concrete (env, then default).

        ``impl`` resolves to ``"numpy"``/``"numba"``/``"auto"`` — the final
        auto → numba-or-numpy step needs an import probe and lives in
        :func:`repro.astro.kernels.resolve_impl`.
        """
        method = self.method or os.environ.get(KERNEL_METHOD_ENV) or DEFAULT_KERNEL_METHOD
        impl = self.impl or os.environ.get(KERNEL_IMPL_ENV) or DEFAULT_KERNEL_IMPL
        _check("method", method, KERNEL_METHODS)
        _check("impl", impl, KERNEL_IMPLS)
        boxcar = self.boxcar or ("cumsum" if method == "direct" else "decomposed")
        return replace(self, method=method, impl=impl, boxcar=boxcar)


@dataclass(frozen=True)
class ExecutionConfig:
    """How a run executes: Sparklet backend, worker pool and kernels.

    ``backend``/``num_workers`` accept ``None`` ("not specified"): the env
    vars ``REPRO_BACKEND``/``REPRO_WORKERS`` and then the hard defaults
    (``serial``, 2) fill them via :func:`resolve_execution`.
    """

    backend: str | None = None
    num_workers: int | None = None
    kernel: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self) -> None:
        _check("backend", self.backend, BACKENDS)
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")


def env_execution_config() -> ExecutionConfig:
    """The execution config described by the environment alone.

    The only place the four ``REPRO_*`` execution env vars are read.
    Unset variables stay ``None`` (method/impl: unset falls through to the
    defaults at :meth:`KernelConfig.resolved` time).  Set ones go through
    the same validation as an explicit config.
    """
    workers = os.environ.get(WORKERS_ENV)
    try:
        return ExecutionConfig(
            backend=os.environ.get(BACKEND_ENV) or None,
            num_workers=int(workers) if workers else None,
            kernel=KernelConfig(
                method=os.environ.get(KERNEL_METHOD_ENV) or None,
                impl=os.environ.get(KERNEL_IMPL_ENV) or None,
            ),
        )
    except ValueError as exc:
        raise ValueError(
            f"invalid {BACKEND_ENV}/{WORKERS_ENV}/{KERNEL_METHOD_ENV}/"
            f"{KERNEL_IMPL_ENV} environment: {exc}"
        ) from None


def resolve_execution(config: ExecutionConfig | None = None) -> ExecutionConfig:
    """Fill every unspecified field: explicit config > env > default."""
    cfg = config or ExecutionConfig()
    env = env_execution_config()
    backend = cfg.backend or env.backend or DEFAULT_BACKEND
    num_workers = cfg.num_workers or env.num_workers or DEFAULT_NUM_WORKERS
    return replace(
        cfg,
        backend=backend,
        num_workers=num_workers,
        kernel=cfg.kernel.resolved(),
    )
