"""Core contribution: RAPID / D-RAPID single pulse identification and ALM.

- :mod:`repro.core.bins` — Eq. 1 dynamic bin sizing.
- :mod:`repro.core.regression` — per-bin least-squares trend slopes.
- :mod:`repro.core.search` — Algorithm 1: the trend state machine that
  finds peaks (single pulses) in a cluster's SNR-vs-DM profile.
- :mod:`repro.core.rapid` — single-machine RAPID: search every cluster of an
  observation, emit a :class:`~repro.dataplane.PulseBatch`.
- :mod:`repro.core.features` — the 22 classification features (16 base
  features reconstructed from Devine et al. 2016 + the six of Table 1).
- :mod:`repro.core.multithreaded` — the multithreaded RAPID baseline and its
  single-box timing model (the paper's comparison machine).
- :mod:`repro.core.drapid` — the D-RAPID driver: Fig. 3's staged dataflow on
  Sparklet (map to KVP → partition → aggregate → left outer join → search).
- :mod:`repro.core.alm` — Automatically Labeled Multiclass schemes
  (Tables 2–3).
- :mod:`repro.core.pipeline` — the four-stage scientific workflow of Fig. 2,
  as functions of one :class:`repro.api.PipelineConfig`.
"""

from repro.core.alm import ALM_SCHEMES, AlmScheme, label_instances
from repro.core.bins import dynamic_bin_size
from repro.core.drapid import DRapidDriver, DRapidResult
from repro.core.features import FEATURE_NAMES
from repro.core.multithreaded import MultithreadedRapid, ThreadedBoxModel
from repro.core.pipeline import PipelineResult
from repro.core.rapid import run_rapid_observation_batch, search_observation_columns
from repro.core.search import SearchParams, find_single_pulses

__all__ = [
    "ALM_SCHEMES",
    "AlmScheme",
    "DRapidDriver",
    "DRapidResult",
    "FEATURE_NAMES",
    "MultithreadedRapid",
    "PipelineResult",
    "SearchParams",
    "ThreadedBoxModel",
    "dynamic_bin_size",
    "find_single_pulses",
    "label_instances",
    "run_rapid_observation_batch",
    "search_observation_columns",
]
