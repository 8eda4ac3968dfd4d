"""Radio-astronomy substrate: synthetic single-pulse survey data.

The paper's experiments use two proprietary sky-survey data sets
(GBT350Drift and PALFA) already processed through the first three phases of
a single-pulse search (collection, dedispersion, event detection).  This
package synthesizes statistically equivalent data:

- :mod:`repro.astro.dispersion` — cold-plasma dispersion delays, trial-DM
  grids with DM-dependent spacing (the paper's ``DMSpacing`` feature);
- :mod:`repro.astro.population` — pulsar / RRAT population synthesis;
- :mod:`repro.astro.pulses` — single-pulse event (SPE) generation: each
  emitted pulse produces a cluster of SPEs across trial DMs whose SNR
  follows the Cordes–McLaughlin dedispersion response;
- :mod:`repro.astro.rfi` — radio-frequency-interference and noise events;
- :mod:`repro.astro.survey` — survey configurations mimicking GBT350Drift
  (350 MHz drift scan) and PALFA (1.4 GHz ALFA), observation generation;
- :mod:`repro.astro.clustering` — the customized DBSCAN of Pang et al.
  (cluster merging across processing artifacts);
- :mod:`repro.astro.benchmark` — fully labeled benchmark data sets with the
  paper's class imbalance.
"""

from repro.astro.clustering import Cluster, SinglePulseDBSCAN
from repro.astro.dispersion import (
    DMGrid,
    dispersion_delay_s,
    dm_spacing_bands,
    smearing_snr_factor,
)
from repro.astro.population import Pulsar, synthesize_population
from repro.astro.pulses import generate_pulsar_spes
from repro.astro.rfi import (
    RFIStormModel,
    generate_noise_spes,
    generate_rfi_spes,
    generate_storm_rfi_spes,
)
from repro.astro.spe import SPE, ObservationKey
from repro.astro.survey import (
    CHIME,
    FAST_CRAFTS,
    GBT350DRIFT,
    PALFA,
    Observation,
    SurveyConfig,
    generate_observation,
)

__all__ = [
    "CHIME",
    "Cluster",
    "DMGrid",
    "FAST_CRAFTS",
    "GBT350DRIFT",
    "Observation",
    "ObservationKey",
    "PALFA",
    "Pulsar",
    "RFIStormModel",
    "SPE",
    "SinglePulseDBSCAN",
    "SurveyConfig",
    "dispersion_delay_s",
    "dm_spacing_bands",
    "generate_noise_spes",
    "generate_observation",
    "generate_pulsar_spes",
    "generate_rfi_spes",
    "generate_storm_rfi_spes",
    "smearing_snr_factor",
    "synthesize_population",
]
