"""Known-source catalogs and vicinity matching (Section 4's methodology).

The paper labels the PALFA benchmark by searching the data "for single
pulses in the immediate vicinity of all known pulsars and RRATs" using the
ATNF Pulsar Catalogue and the RRATalog.  This module provides that
machinery for the synthetic surveys:

- :class:`Catalog` — a queryable table of known sources (name, sky
  position, DM, period, RRAT flag);
- :func:`match_pulse` / :func:`label_pulses_by_catalog` — vicinity
  matching: an identified single pulse is attributed to a known source
  when its sky position matches and its peak DM falls within a tolerance
  of the source's catalogued DM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.dataplane import PulseBatch


@dataclass(frozen=True)
class CatalogEntry:
    """One known source, as a pulsar catalogue would list it."""

    name: str
    sky_position: str
    dm: float
    period_s: float
    is_rrat: bool


class Catalog:
    """A queryable known-source catalogue (ATNF/RRATalog stand-in)."""

    def __init__(self, entries: Iterable[CatalogEntry]) -> None:
        self._entries = list(entries)
        names = [e.name for e in self._entries]
        if len(set(names)) != len(names):
            raise ValueError("catalog entries must have unique names")
        self._by_position: dict[str, list[CatalogEntry]] = {}
        for entry in self._entries:
            self._by_position.setdefault(entry.sky_position, []).append(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def pulsars(self) -> list[CatalogEntry]:
        return [e for e in self._entries if not e.is_rrat]

    @property
    def rrats(self) -> list[CatalogEntry]:
        return [e for e in self._entries if e.is_rrat]

    def lookup(self, name: str) -> CatalogEntry:
        for entry in self._entries:
            if entry.name == name:
                return entry
        raise KeyError(f"no catalogued source named {name!r}")

    def sources_at(self, sky_position: str) -> list[CatalogEntry]:
        """All catalogued sources at (within the beam of) a sky position."""
        return list(self._by_position.get(sky_position, []))


def match_pulse(
    peak_dm: float,
    candidates: Sequence[CatalogEntry],
    dm_tolerance: float = 10.0,
) -> CatalogEntry | None:
    """The catalogue entry whose DM best matches the pulse, within tolerance.

    Mirrors the paper's vicinity criterion: the pulse must lie in the beam
    of the source (caller pre-filters by position) and its brightest SPE's
    DM (``peak_dm``, the SNRPeakDM feature) must sit near the catalogued DM.
    """
    if dm_tolerance <= 0:
        raise ValueError(f"dm_tolerance must be positive, got {dm_tolerance}")
    best: CatalogEntry | None = None
    best_delta = dm_tolerance
    for entry in candidates:
        delta = abs(entry.dm - peak_dm)
        if delta <= best_delta:
            best = entry
            best_delta = delta
    return best


def label_pulses_by_catalog(
    pulses: PulseBatch,
    catalog: Catalog,
    beam_position_of: "callable",
    dm_tolerance: float = 10.0,
) -> list[CatalogEntry | None]:
    """Attribute each identified pulse to a known source, or None.

    ``beam_position_of`` maps a pulse's observation key to the sky position
    observed (``ObservationKey.from_key(key).sky_position`` in this repo's
    format).  This is exactly how the PALFA benchmark's positives were
    labeled before manual confirmation.
    """
    return [
        match_pulse(peak_dm, catalog.sources_at(beam_position_of(key)), dm_tolerance)
        for key, peak_dm in zip(
            pulses.observation_key.tolist(), pulses.feature("SNRPeakDM").tolist()
        )
    ]
