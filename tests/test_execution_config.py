"""ExecutionConfig and KernelConfig semantics.

Validation of the frozen records, the environment < config < CLI
resolution order for backend/workers, the one implementation name
``resolve_impl`` still validates, the ``kernel_selected`` observability
event ``single_pulse_search`` emits (and its trace-report section), and
the CLI flag plumbing.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.execution import (
    BACKEND_ENV,
    WORKERS_ENV,
    ExecutionConfig,
    KernelConfig,
    env_execution_config,
    resolve_execution,
)


class TestKernelConfigValidation:
    def test_defaults_resolve(self):
        k = KernelConfig().resolved()
        assert k.method == "direct"
        assert k.impl == "numpy"
        assert k.boxcar == "cumsum"

    def test_boxcar_is_cumsum_for_every_method(self):
        """The boxcar is a class constant, not a field a caller can set."""
        for method in ("direct", "subband"):
            k = KernelConfig(method=method)
            assert k.resolved() is k and k.boxcar == "cumsum"
        with pytest.raises(TypeError):
            KernelConfig(boxcar="cumsum")

    @pytest.mark.parametrize("bad", [
        dict(method="fft"),
        dict(method=None),
        dict(method="numba"),
        dict(tol_samples=0.0),
        dict(method="tree"),
        dict(n_subbands=0),
        dict(n_subbands=-2),
        dict(tol_samples=-1.0),
    ])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ValueError):
            KernelConfig(**bad)

    @pytest.mark.parametrize("bad", [
        dict(tol_samples=float("nan")),
        dict(tol_samples=float("inf")),
        dict(n_subbands=2.5),
        dict(n_subbands=True),
    ])
    def test_invalid_fields_rejected_by_name(self, bad):
        """NaN/inf tolerances and fractional/boolean subband counts used to be
        accepted; each error names its field."""
        with pytest.raises(ValueError, match=next(iter(bad))):
            KernelConfig(**bad)

    @pytest.mark.parametrize("bad", [
        dict(backend="gpu"),
        dict(num_workers=0),
    ])
    def test_invalid_execution_rejected(self, bad):
        with pytest.raises(ValueError):
            ExecutionConfig(**bad)

    def test_frozen(self):
        with pytest.raises(Exception):
            KernelConfig().method = "tree"
        with pytest.raises(Exception):
            ExecutionConfig().backend = "parallel"


class TestEnvResolution:
    def test_env_fills_unset_fields(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "parallel")
        monkeypatch.setenv(WORKERS_ENV, "5")
        e = env_execution_config()
        assert e.backend == "parallel"
        assert e.num_workers == 5

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "parallel")
        monkeypatch.setenv(WORKERS_ENV, "5")
        r = resolve_execution(ExecutionConfig(backend="serial", num_workers=3))
        assert r.backend == "serial"
        assert r.num_workers == 3

    def test_env_applies_when_config_silent(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        r = resolve_execution(ExecutionConfig())
        assert r.num_workers == 5
        assert r.backend == "serial"

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "warp")
        with pytest.raises(ValueError, match=BACKEND_ENV):
            env_execution_config()


class TestFacadeShim:
    def test_default_execution_identical_to_no_execution(self):
        """A default ExecutionConfig adds no behaviour: same output as a
        config that never mentions execution at all."""
        from repro.api import PipelineConfig, run_pipeline

        a = run_pipeline(PipelineConfig(seed=3, n_pulsars=3, n_observations=2))
        b = run_pipeline(PipelineConfig(seed=3, n_pulsars=3, n_observations=2,
                                        execution=ExecutionConfig()))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestNumbaFallback:
    def test_resolve_impl_degrades_when_absent(self):
        """Only NumPy exists: every accepted name resolves to it, and any
        other name (a JIT or GPU layer) is refused, naming the accepted ones."""
        from repro.astro.kernels import HAS_NUMBA, resolve_impl

        assert HAS_NUMBA is False
        for impl in ("auto", "numpy", None):
            assert resolve_impl(impl) == "numpy"
        for impl in ("numba", "cuda"):
            with pytest.raises(ValueError, match="'numpy', 'auto'"):
                resolve_impl(impl)


class TestKernelSelectedObservability:
    """``single_pulse_search`` — the one place a kernel is selected — is
    the one emitter of ``kernel_selected``."""

    def _search_with_trace(self, tmp_path, **kernel_fields):
        from repro.astro.filterbank import single_pulse_search, synthesize_filterbank
        from repro.obs import ObsConfig, ObsSession
        from repro.obs.events import KERNEL_SELECTED, read_events

        log = tmp_path / "trace.jsonl"
        session = ObsSession.from_config(
            ObsConfig(enabled=True, event_log_path=str(log)))
        fb = synthesize_filterbank(duration_s=2.0, n_channels=16, sample_time_s=2e-3)
        single_pulse_search(fb, np.arange(20.0, 60.0, 2.0),
                            kernel=KernelConfig(**kernel_fields), obs=session)
        session.flush()
        return log, [e for e in read_events(log) if e["type"] == KERNEL_SELECTED]

    def test_event_emitted_with_resolution_fields(self, tmp_path):
        _log, events = self._search_with_trace(tmp_path, method="subband")
        assert len(events) == 1
        ev = events[0]
        assert ev["method"] == "subband"
        assert not {"boxcar", "impl", "impl_requested"} & ev.keys()

    def test_trace_report_surfaces_kernels_section(self, tmp_path):
        from repro.obs import build_report, render_text

        log, _events = self._search_with_trace(tmp_path, method="subband")
        report = build_report(str(log))
        assert [sel["method"] for sel in report["kernels"]["selected"]] == ["subband"]
        text = render_text(report)
        assert "front-end kernels" in text
        assert "subband" in text

    def test_pipeline_trace_has_no_kernel_event(self, tmp_path):
        """A run that never dedisperses records no kernel choice."""
        from repro.api import PipelineConfig, run_pipeline
        from repro.obs import ObsConfig
        from repro.obs.events import KERNEL_SELECTED, read_events

        log = tmp_path / "trace.jsonl"
        run_pipeline(PipelineConfig(
            seed=1, n_pulsars=3, n_observations=2,
            obs_config=ObsConfig(enabled=True, event_log_path=str(log)),
        ))
        assert not [e for e in read_events(log) if e["type"] == KERNEL_SELECTED]


def test_kernel_selection_lives_only_where_kernels_run():
    """Under src/repro/, KernelConfig appears only in execution.py, the
    api.py re-export and astro/; no REPRO_KERNEL_* variable exists."""
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    mentions = set()
    for path in root.rglob("*.py"):
        text = path.read_text()
        assert "REPRO_KERNEL" not in text, path
        if "KernelConfig" in text:
            rel = path.relative_to(root)
            mentions.add("astro/" if rel.parts[0] == "astro" else rel.as_posix())
    assert mentions == {"execution.py", "api.py", "astro/"}


class TestCliPlumbing:
    def test_kernel_flags_rejected(self):
        """Kernel selection is not a CLI concern: argparse exits 2."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["identify", "--kernel-method", "subband"])
        assert exc.value.code == 2

    def test_invalid_flag_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["identify", "--backend", "gpu"])


class TestFrontendSearchIntegration:
    def test_survey_frontend_consistent_across_methods(self):
        """On a survey's band and DM ladder the front end finds the same
        brightest candidate under every kernel method (tolerance-law
        displacements are small against the DM-grid spacing)."""
        from repro.astro.filterbank import (
            InjectedPulse,
            single_pulse_search,
            synthesize_filterbank,
        )
        from repro.astro.survey import GBT350DRIFT as survey

        pulse = InjectedPulse(time_s=3.0, dm=60.0, width_ms=16.0, amplitude=1.8)
        fb = synthesize_filterbank(
            duration_s=6.0, n_channels=32, sample_time_s=2e-3, pulses=[pulse],
            f_low_mhz=survey.center_freq_mhz - survey.bandwidth_mhz / 2.0,
            f_high_mhz=survey.center_freq_mhz + survey.bandwidth_mhz / 2.0,
        )
        trial_dms = survey.dm_grid(coarsen=10.0).trial_dms()
        results = {}
        for method in ("direct", "subband"):
            spes = single_pulse_search(
                fb, trial_dms, snr_threshold=survey.snr_threshold,
                kernel=KernelConfig(method=method),
            )
            assert spes, method
            best = max(spes, key=lambda s: s.snr)
            results[method] = best
        for method, best in results.items():
            assert abs(best.dm - pulse.dm) <= 10.0, method
            assert abs(best.time_s - pulse.time_s) <= 0.5, method

    def test_search_with_default_kernel_matches_legacy(self):
        """kernel=KernelConfig(method='direct') is the
        legacy path: SPE output must be byte-identical to calling the
        search with no kernel at all."""
        from repro.astro.filterbank import (
            InjectedPulse,
            single_pulse_search,
            synthesize_filterbank,
        )

        fb = synthesize_filterbank(
            duration_s=4.0, n_channels=32, sample_time_s=2e-3,
            pulses=[InjectedPulse(time_s=2.0, dm=45.0, width_ms=10.0,
                                  amplitude=1.5)],
            seed=2,
        )
        trials = np.arange(30.0, 60.0, 1.5)
        legacy = single_pulse_search(fb, trials, snr_threshold=6.0)
        configured = single_pulse_search(
            fb, trials, snr_threshold=6.0,
            kernel=KernelConfig(method="direct"),
        )
        assert json.dumps([s.__dict__ for s in legacy], default=str) == \
            json.dumps([s.__dict__ for s in configured], default=str)
