"""ExecutionConfig and KernelConfig semantics.

Validation of the frozen records, the environment < config < CLI
resolution order for backend/workers, the one implementation name
``resolve_impl`` still validates, the ``kernel`` argument that selects
nothing, the ``kernel_selected`` observability event
``single_pulse_search`` emits (and its trace-report section), and the CLI
flag plumbing.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from oracles.frontend import _reference_exact_search

from repro.execution import (
    BACKEND_ENV,
    WORKERS_ENV,
    ExecutionConfig,
    KernelConfig,
    env_execution_config,
    resolve_execution,
)


def _select(**settings):
    """Build ``KernelConfig(method=...)`` if ``settings`` name a method,
    then dedisperse a small block with ``plan_dedispersion`` at the rest:
    the front end's two places a bad kernel value could enter."""
    from repro.astro.kernels import plan_dedispersion

    if "method" in settings:
        KernelConfig(method=settings.pop("method"))
    data = np.ones((4, 32))
    plan_dedispersion(data, np.linspace(300.0, 400.0, 4), 400.0, 1e-3,
                      np.arange(0.0, 1.0, 0.1), **settings).block()


class TestKernelConfigValidation:
    def test_defaults_resolve(self):
        """One dedispersion engine and one boxcar: nothing to resolve."""
        k = KernelConfig().resolved()
        assert k == KernelConfig()
        assert k.impl == "numpy"
        assert k.boxcar == "cumsum"

    def test_boxcar_is_cumsum_for_every_method(self):
        """The boxcar is a class constant, not a field a caller can set."""
        k = KernelConfig()
        assert k.resolved() is k and k.boxcar == "cumsum"
        with pytest.raises(TypeError):
            KernelConfig(boxcar="cumsum")

    @pytest.mark.parametrize("kernel", ["direct", "subband", {"method": "direct"}, 0])
    def test_a_kernel_that_is_not_a_kernel_config_is_refused(self, kernel):
        """An argument that selects nothing must not run as the default: the
        two functions that dedisperse refuse it by name.  A string used to
        die in ``single_pulse_search`` with an ``AttributeError``."""
        from repro.astro.filterbank import (
            dedisperse_all,
            single_pulse_search,
            synthesize_filterbank,
        )

        fb = synthesize_filterbank(duration_s=0.1, n_channels=4)
        with pytest.raises(TypeError, match="kernel must be a KernelConfig"):
            single_pulse_search(fb, [10.0], kernel=kernel)
        with pytest.raises(TypeError, match="kernel must be a KernelConfig"):
            dedisperse_all(fb, [10.0], kernel=kernel)

    @pytest.mark.parametrize("bad", [
        dict(method="fft"),
        dict(method=None),
        dict(method="numba"),
        dict(tol_samples=0.0),
        dict(method="tree"),
        dict(n_subbands=0),
        dict(n_subbands=-2),
        dict(tol_samples=-1.0),
        dict(method="direct"),
        dict(method="subband"),
    ])
    def test_invalid_fields_rejected(self, bad):
        """There is no method to choose: ``KernelConfig(method=...)`` is a
        ``TypeError``, whatever the name.  The subband settings are
        ``plan_dedispersion``'s arguments (``ValueError``)."""
        with pytest.raises(TypeError if "method" in bad else ValueError):
            _select(**bad)

    @pytest.mark.parametrize("bad", [
        dict(tol_samples=float("nan")),
        dict(tol_samples=float("inf")),
        dict(n_subbands=2.5),
        dict(n_subbands=True),
    ])
    def test_invalid_fields_rejected_by_name(self, bad):
        """NaN/inf tolerances and fractional/boolean subband counts used to be
        accepted; each error names its argument."""
        with pytest.raises(ValueError, match=next(iter(bad))):
            _select(**bad)

    @pytest.mark.parametrize("bad", [
        dict(backend="gpu"),
        dict(num_workers=0),
    ])
    def test_invalid_execution_rejected(self, bad):
        with pytest.raises(ValueError):
            ExecutionConfig(**bad)

    @pytest.mark.parametrize("workers", [2.5, True, "2", -1])
    def test_num_workers_must_be_an_integer(self, workers):
        """A float or bool worker count used to be accepted and a string died
        with a raw TypeError; each is now a ValueError naming the field."""
        with pytest.raises(ValueError, match="num_workers"):
            ExecutionConfig(num_workers=workers)

    def test_numpy_integer_workers_accepted(self):
        import numpy as np

        assert ExecutionConfig(num_workers=np.int64(3)).num_workers == 3

    def test_frozen(self):
        with pytest.raises(Exception):
            KernelConfig().boxcar = "decomposed"
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

    def _search_with_trace(self, tmp_path, step=2.0):
        from repro.astro.filterbank import single_pulse_search, synthesize_filterbank
        from repro.obs import ObsConfig, ObsSession
        from repro.obs.events import KERNEL_SELECTED, read_events

        log = tmp_path / "trace.jsonl"
        session = ObsSession.from_config(
            ObsConfig(enabled=True, event_log_path=str(log)))
        fb = synthesize_filterbank(duration_s=2.0, n_channels=16, sample_time_s=2e-3)
        single_pulse_search(fb, np.arange(20.0, 60.0, step),
                            kernel=KernelConfig(), obs=session)
        session.flush()
        return log, [e for e in read_events(log) if e["type"] == KERNEL_SELECTED]

    def test_event_emitted_with_resolution_fields(self, tmp_path):
        _log, events = self._search_with_trace(tmp_path)
        assert len(events) == 1
        ev = events[0]
        assert not {"method", "boxcar", "impl", "impl_requested"} & ev.keys()
        # A 2-unit ladder: no two trial DMs share a group.
        assert ev["groups"] == ev["solo_rows"] == 20

    @pytest.mark.parametrize("ladder", ["direct", "subband"])
    def test_event_counts_the_plan_groups(self, tmp_path, ladder):
        """How much of the ladder the plan shared: on a fine ladder most
        rows share a group; on a coarse one every row is a group of one,
        summed at its exact shifts (the ``direct`` block)."""
        from repro.obs import build_report, render_text

        step = 2.0 if ladder == "direct" else 0.05
        log, (ev,) = self._search_with_trace(tmp_path, step=step)
        if ladder == "direct":
            assert ev["groups"] == ev["solo_rows"] == 20
        else:
            assert ev["solo_rows"] < ev["groups"] < 800
        (sel,) = build_report(str(log))["kernels"]["selected"]
        assert sel == {k: ev[k] for k in ("groups", "solo_rows")}
        text = render_text(build_report(str(log)))
        assert f"selected: groups={ev['groups']} solo_rows={ev['solo_rows']}" in text
        assert "method=" not in text

    def test_trace_report_surfaces_kernels_section(self, tmp_path):
        from repro.obs import build_report, render_text

        log, _events = self._search_with_trace(tmp_path)
        report = build_report(str(log))
        assert report["kernels"]["selected"] == [{"groups": 20, "solo_rows": 20}]
        text = render_text(report)
        assert "front-end kernels" in text
        assert "groups=20 solo_rows=20" in text

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
        brightest candidate as the exact search (tolerance-law
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
        results = {
            "direct": _reference_exact_search(fb, trial_dms, survey.snr_threshold),
            "subband": single_pulse_search(
                fb, trial_dms, snr_threshold=survey.snr_threshold,
            ),
        }
        for method, spes in results.items():
            assert spes, method
            best = max(spes, key=lambda s: s.snr)
            assert abs(best.dm - pulse.dm) <= 10.0, method
            assert abs(best.time_s - pulse.time_s) <= 0.5, method

    def test_search_with_default_kernel_matches_legacy(self):
        """On a coarse ladder every subband group is a group of one, summed
        at its exact shifts, so the engine's SPEs are the exact search's,
        byte for byte."""
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
        legacy = _reference_exact_search(fb, trials, 6.0)
        configured = single_pulse_search(
            fb, trials, snr_threshold=6.0, kernel=KernelConfig(),
        )
        assert legacy
        assert json.dumps([s.__dict__ for s in legacy], default=str) == \
            json.dumps([s.__dict__ for s in configured], default=str)
