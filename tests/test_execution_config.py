"""The unified execution surface: KernelConfig/ExecutionConfig semantics.

Covers the api-redesign contract end to end: validation of the frozen
records, the environment < config < CLI resolution order, the deprecated
loose-keyword shim on the facade configs (with output identity between the
old and new spellings), the numba-absent import fallback, kernel provenance
in the memo lineage hash, the ``kernel_selected`` observability event and
its trace-report section, and the CLI flag plumbing.
"""

import importlib
import json
import sys

import numpy as np
import pytest

from repro.execution import (
    BACKEND_ENV,
    KERNEL_IMPL_ENV,
    KERNEL_METHOD_ENV,
    WORKERS_ENV,
    ExecutionConfig,
    KernelConfig,
    env_execution_config,
    resolve_execution,
)


class TestKernelConfigValidation:
    def test_defaults_resolve(self, monkeypatch):
        for var in (KERNEL_METHOD_ENV, KERNEL_IMPL_ENV):
            monkeypatch.delenv(var, raising=False)
        k = KernelConfig().resolved()
        assert k.method == "direct"
        assert k.impl == "auto"
        assert k.boxcar == "cumsum"

    def test_boxcar_couples_to_method(self, monkeypatch):
        for var in (KERNEL_METHOD_ENV, KERNEL_IMPL_ENV):
            monkeypatch.delenv(var, raising=False)
        assert KernelConfig(method="tree").resolved().boxcar == "decomposed"
        assert KernelConfig(method="subband").resolved().boxcar == "decomposed"
        assert KernelConfig(method="direct").resolved().boxcar == "cumsum"
        # An explicit boxcar always wins over the coupling.
        assert KernelConfig(method="tree", boxcar="cumsum").resolved().boxcar == "cumsum"

    @pytest.mark.parametrize("bad", [
        dict(method="fft"),
        dict(impl="cuda"),
        dict(boxcar="fft"),
        dict(n_subbands=0),
        dict(n_subbands=-2),
        dict(tol_samples=-1.0),
    ])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ValueError):
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
        monkeypatch.setenv(KERNEL_METHOD_ENV, "tree")
        monkeypatch.setenv(KERNEL_IMPL_ENV, "numpy")
        e = env_execution_config()
        assert e.backend == "parallel"
        assert e.num_workers == 5
        assert e.kernel.method == "tree"
        assert e.kernel.impl == "numpy"

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "parallel")
        monkeypatch.setenv(KERNEL_METHOD_ENV, "tree")
        r = resolve_execution(
            ExecutionConfig(backend="serial",
                            kernel=KernelConfig(method="subband"))
        )
        assert r.backend == "serial"
        assert r.kernel.method == "subband"

    def test_env_applies_when_config_silent(self, monkeypatch):
        monkeypatch.setenv(KERNEL_METHOD_ENV, "subband")
        monkeypatch.delenv(KERNEL_IMPL_ENV, raising=False)
        r = resolve_execution(ExecutionConfig())
        assert r.kernel.method == "subband"
        assert r.kernel.impl == "auto"

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(KERNEL_METHOD_ENV, "warp")
        with pytest.raises(ValueError):
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
    def test_absent_numba_disables_cleanly(self, monkeypatch):
        """With numba unimportable, the shim module must land with
        HAS_NUMBA=False and None kernels — and resolve_impl must degrade
        both 'auto' and an explicit 'numba' request to 'numpy'."""
        import repro.astro._kernels_numba as shim

        monkeypatch.setitem(sys.modules, "numba", None)
        try:
            reloaded = importlib.reload(shim)
            assert reloaded.HAS_NUMBA is False
            assert reloaded.dedisperse_accumulate is None
            assert reloaded.scatter_add_shifted is None
            assert reloaded.best_z_cumsum is None
        finally:
            monkeypatch.delitem(sys.modules, "numba", raising=False)
            importlib.reload(shim)

    def test_resolve_impl_degrades_when_absent(self, monkeypatch):
        import repro.astro.kernels as kernels

        monkeypatch.setattr(kernels, "HAS_NUMBA", False)
        assert kernels.resolve_impl("auto") == "numpy"
        assert kernels.resolve_impl("numba") == "numpy"
        assert kernels.resolve_impl("numpy") == "numpy"
        monkeypatch.setattr(kernels, "HAS_NUMBA", True)
        assert kernels.resolve_impl("auto") == "numba"
        assert kernels.resolve_impl("numba") == "numba"

    def test_numba_impl_request_still_computes(self):
        """impl='numba' must produce correct output whether or not numba is
        actually importable (falls back to the numpy path if not)."""
        from repro.astro.kernels import dedisperse_batch

        rng = np.random.default_rng(0)
        data = rng.normal(size=(8, 128))
        edges = np.linspace(300.0, 400.0, 9)
        freqs = 0.5 * (edges[:-1] + edges[1:])
        dms = [10.0, 40.0, 90.0]
        a = dedisperse_batch(data, freqs, 400.0, 1e-3, dms)
        b = dedisperse_batch(data, freqs, 400.0, 1e-3, dms, impl="numba")
        assert np.array_equal(a, b)


class TestMemoProvenance:
    def test_kernel_method_perturbs_lineage_key(self):
        """Different kernel methods must hash to different memo keys —
        tolerance-law differences are semantic, not cosmetic."""
        from repro.astro.survey import GBT350DRIFT
        from repro.core.pipeline import SinglePulsePipeline
        from repro.memo.hashing import config_digest

        digests = set()
        for method in ("direct", "subband", "tree"):
            pipe = SinglePulsePipeline(
                survey=GBT350DRIFT,
                execution=ExecutionConfig(kernel=KernelConfig(method=method)),
            )
            digests.add(config_digest(pipe._provenance_config()))
        assert len(digests) == 3


class TestKernelSelectedObservability:
    def _run_with_trace(self, tmp_path, **kernel_fields):
        from repro.api import PipelineConfig, run_pipeline
        from repro.obs import ObsConfig

        log = tmp_path / "trace.jsonl"
        cfg = PipelineConfig(
            seed=1, n_pulsars=3, n_observations=2,
            obs_config=ObsConfig(enabled=True, event_log_path=str(log)),
            execution=ExecutionConfig(kernel=KernelConfig(**kernel_fields)),
        )
        run_pipeline(cfg)
        return log

    def test_event_emitted_with_resolution_fields(self, tmp_path):
        from repro.obs.events import KERNEL_SELECTED, read_events

        log = self._run_with_trace(tmp_path, method="tree", impl="numpy")
        events = [e for e in read_events(log) if e["type"] == KERNEL_SELECTED]
        assert events
        ev = events[0]
        assert ev["method"] == "tree"
        assert ev["impl"] == "numpy"
        assert ev["impl_requested"] == "numpy"
        assert ev["boxcar"] == "decomposed"
        assert ev["source"] == "pipeline"

    def test_trace_report_surfaces_kernels_section(self, tmp_path):
        from repro.obs import build_report, render_text

        log = self._run_with_trace(tmp_path, method="subband")
        report = build_report(str(log))
        assert report["kernels"]["selected"]
        sel = report["kernels"]["selected"][0]
        assert sel["method"] == "subband"
        text = render_text(report)
        assert "front-end kernels" in text
        assert "subband" in text

    def test_fallback_visible_in_event(self, tmp_path, monkeypatch):
        """Requesting numba without numba present records the degradation:
        impl_requested='numba' but impl='numpy'."""
        import repro.astro.kernels as kernels
        from repro.obs.events import KERNEL_SELECTED, read_events

        monkeypatch.setattr(kernels, "HAS_NUMBA", False)
        log = self._run_with_trace(tmp_path, impl="numba")
        ev = [e for e in read_events(log) if e["type"] == KERNEL_SELECTED][0]
        assert ev["impl_requested"] == "numba"
        assert ev["impl"] == "numpy"


class TestCliPlumbing:
    def test_kernel_flags_accepted(self, capsys):
        from repro.cli import main

        rc = main([
            "identify", "--pulsars", "2", "--observations", "2",
            "--kernel-method", "tree", "--kernel-impl", "numpy",
        ])
        assert rc == 0
        assert "single pulses identified" in capsys.readouterr().out

    def test_kernel_flags_reach_the_event_log(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.events import KERNEL_SELECTED, read_events

        log = tmp_path / "t.jsonl"
        rc = main([
            "identify", "--pulsars", "2", "--observations", "2",
            "--kernel-method", "subband", "--trace-out", str(log),
        ])
        assert rc == 0
        capsys.readouterr()
        ev = [e for e in read_events(log) if e["type"] == KERNEL_SELECTED]
        assert ev and ev[0]["method"] == "subband"

    def test_cli_beats_env(self, tmp_path, capsys, monkeypatch):
        """Resolution order env < config < CLI: the flag wins."""
        from repro.cli import main
        from repro.obs.events import KERNEL_SELECTED, read_events

        monkeypatch.setenv(KERNEL_METHOD_ENV, "subband")
        log = tmp_path / "t.jsonl"
        rc = main([
            "identify", "--pulsars", "2", "--observations", "2",
            "--kernel-method", "tree", "--trace-out", str(log),
        ])
        assert rc == 0
        capsys.readouterr()
        ev = [e for e in read_events(log) if e["type"] == KERNEL_SELECTED]
        assert ev and ev[0]["method"] == "tree"

    def test_invalid_flag_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["identify", "--kernel-method", "fft"])


class TestFrontendSearchIntegration:
    def test_survey_frontend_consistent_across_methods(self):
        """The survey-level front end finds the same brightest candidate
        under every kernel method (tolerance-law displacements are small
        against the DM-grid spacing)."""
        from repro.astro.filterbank import InjectedPulse
        from repro.astro.survey import GBT350DRIFT, frontend_single_pulse_search

        pulse = InjectedPulse(time_s=3.0, dm=60.0, width_ms=16.0, amplitude=1.8)
        results = {}
        for method in ("direct", "subband", "tree"):
            _fb, spes = frontend_single_pulse_search(
                GBT350DRIFT, [pulse], duration_s=6.0, n_channels=32,
                sample_time_s=2e-3,
                kernel=KernelConfig(method=method, impl="numpy"),
            )
            assert spes, method
            best = max(spes, key=lambda s: s.snr)
            results[method] = best
        for method, best in results.items():
            assert abs(best.dm - pulse.dm) <= 10.0, method
            assert abs(best.time_s - pulse.time_s) <= 0.5, method

    def test_search_with_default_kernel_matches_legacy(self):
        """kernel=KernelConfig(method='direct', boxcar='cumsum') is the
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
            kernel=KernelConfig(method="direct", impl="numpy",
                                boxcar="cumsum"),
        )
        assert json.dumps([s.__dict__ for s in legacy], default=str) == \
            json.dumps([s.__dict__ for s in configured], default=str)
