"""Single pulse event (SPE) records and PRESTO-style file blocks.

``single_pulse_search.py`` emits one row per detected event:
``DM  Sigma(SNR)  Time(s)  Sample  Downfact``.  D-RAPID consumes a large csv
of all SPEs for a data set plus a smaller cluster file; both carry the same
descriptive key prefix (data set name, MJD, sky position, beam) which
becomes the Sparklet pair key (Section 5.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np


@dataclass(frozen=True)
class ObservationKey:
    """The descriptive prefix shared by SPE and cluster rows."""

    dataset: str
    mjd: float
    sky_position: str
    beam: int

    def to_key(self) -> str:
        return f"{self.dataset}|{self.mjd:.4f}|{self.sky_position}|{self.beam}"

    @classmethod
    def from_key(cls, key: str) -> "ObservationKey":
        parts = key.split("|")
        if len(parts) != 4:
            raise ValueError(f"malformed observation key: {key!r}")
        return cls(parts[0], float(parts[1]), parts[2], int(parts[3]))


@dataclass(frozen=True)
class SPE:
    """One single pulse event: a detection at one trial DM and time."""

    dm: float
    snr: float
    time_s: float
    sample: int
    downfact: int = 1

    def to_csv_row(self) -> str:
        return f"{self.dm:.3f},{self.snr:.3f},{self.time_s:.6f},{self.sample},{self.downfact}"

    @classmethod
    def from_csv_row(cls, row: str) -> "SPE":
        parts = row.strip().split(",")
        if len(parts) != 5:
            raise ValueError(f"malformed SPE row: {row!r}")
        return cls(
            dm=float(parts[0]),
            snr=float(parts[1]),
            time_s=float(parts[2]),
            sample=int(parts[3]),
            downfact=int(parts[4]),
        )


def spes_from_search(
    trial_dms: np.ndarray,
    sample_time_s: float,
    rows: np.ndarray,
    samples: np.ndarray,
    snrs: np.ndarray,
    widths: np.ndarray,
) -> list["SPE"]:
    """Materialize detections from a block search into SPE records.

    The one place the search arrays become SPEs, shared by every kernel
    method — the rounding conventions (SNR to 3 decimals, time to 6) are
    part of the on-disk format and must not drift between code paths.
    """
    return [
        SPE(
            dm=float(trial_dms[d]),
            snr=round(float(s), 3),
            time_s=round(int(i) * sample_time_s, 6),
            sample=int(i),
            downfact=int(w),
        )
        for d, i, s, w in zip(rows, samples, snrs, widths)
    ]


SPE_FILE_HEADER = "# dataset|mjd|sky|beam,DM,Sigma,Time_s,Sample,Downfact"
