"""Reproduction of Devine, Goseva-Popstojanova & Pang (ICPP 2018):
"Scalable Solutions for Automated Single Pulse Identification and
Classification in Radio Astronomy".

The blessed entry point is :mod:`repro.api`::

    from repro.api import PipelineConfig, run_pipeline
    result = run_pipeline(PipelineConfig(survey="GBT350Drift", seed=42))

Subpackages:

- :mod:`repro.api` — frozen :class:`~repro.api.PipelineConfig` facade
- :mod:`repro.obs` — the event log (spans included), its replay and reports
- :mod:`repro.sparklet` — Spark-like dataflow engine + cluster simulator
- :mod:`repro.dfs` — HDFS-like distributed file system simulation
- :mod:`repro.ml` — the six Weka learners, SMOTE, feature selection, CV
- :mod:`repro.astro` — synthetic radio surveys and clustering
- :mod:`repro.core` — RAPID / D-RAPID, features, ALM, the Fig. 2 pipeline
- :mod:`repro.io` — the csv file formats exchanged between stages
- :mod:`repro.streaming` — micro-batch engine: receivers, watermark state,
  PID backpressure, checkpoint recovery, in-stream classification
"""

__version__ = "1.0.0"

PAPER = (
    "Devine, Goseva-Popstojanova & Pang (2018). Scalable Solutions for "
    "Automated Single Pulse Identification and Classification in Radio "
    "Astronomy. ICPP 2018. doi:10.1145/3225058.3225101"
)

__all__ = [
    "PAPER",
    "PipelineConfig",
    "StreamingConfig",
    "__version__",
    "run_drapid",
    "run_pipeline",
    "run_streaming",
]

#: Facade names resolved lazily so ``import repro`` stays lightweight
#: (the CLI and docs tools import the package without pulling numpy-heavy
#: subpackages).
_API_NAMES = (
    "PipelineConfig",
    "StreamingConfig",
    "run_pipeline",
    "run_drapid",
    "run_streaming",
)


def __getattr__(name: str):
    if name in _API_NAMES:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
