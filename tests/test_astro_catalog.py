"""Unit tests for catalog construction and vicinity matching."""

import pytest

from repro.astro import GBT350DRIFT, generate_observation, synthesize_population
from repro.astro.catalog import Catalog, CatalogEntry, label_pulses_by_catalog, match_pulse
from repro.astro.spe import ObservationKey
from repro.core.rapid import run_rapid_observation_batch


@pytest.fixture(scope="module")
def population():
    return synthesize_population(8, rrat_fraction=0.25, max_dm=300.0, seed=13)


@pytest.fixture(scope="module")
def catalog(population):
    """The simulated sky's catalogue: its true population."""
    return Catalog(
        CatalogEntry(p.name, p.sky_position, p.dm, p.period_s, p.is_rrat)
        for p in population
    )


class TestCatalog:
    def test_pulsars_and_rrats_partition(self, catalog):
        assert len(catalog.pulsars) + len(catalog.rrats) == len(catalog)
        assert all(e.is_rrat for e in catalog.rrats)

    def test_lookup(self, population, catalog):
        entry = catalog.lookup(population[0].name)
        assert entry.dm == pytest.approx(population[0].dm)
        with pytest.raises(KeyError):
            catalog.lookup("PSR-NOPE")

    def test_sources_at_position(self, population, catalog):
        pos = population[0].sky_position
        assert population[0].name in {e.name for e in catalog.sources_at(pos)}
        assert catalog.sources_at("J0000-9999") == []

    def test_duplicate_names_rejected(self):
        e = CatalogEntry("X", "J0000+0000", 10.0, 1.0, False)
        with pytest.raises(ValueError):
            Catalog([e, e])


class TestVicinityMatching:
    def test_match_within_tolerance(self):
        entries = [
            CatalogEntry("A", "J", 50.0, 1.0, False),
            CatalogEntry("B", "J", 120.0, 1.0, False),
        ]

        assert match_pulse(52.0, entries, dm_tolerance=10.0).name == "A"

    def test_no_match_outside_tolerance(self):
        entries = [CatalogEntry("A", "J", 50.0, 1.0, False)]

        assert match_pulse(80.0, entries, dm_tolerance=10.0) is None

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            match_pulse(50.0, [], dm_tolerance=0.0)


class TestEndToEndLabeling:
    def test_catalog_labels_agree_with_ground_truth(self, population, catalog):
        """The paper's PALFA labeling: positives found via catalogue vicinity
        should match the generator's ground truth for most pulses."""
        source = population[0]
        obs = generate_observation(GBT350DRIFT, [source], seed=23,
                                   n_noise_clusters=30, obs_length_s=45.0)
        pulses = run_rapid_observation_batch(obs).pulse_batch
        labels = label_pulses_by_catalog(
            pulses, catalog,
            beam_position_of=lambda key: ObservationKey.from_key(key).sky_position,
            dm_tolerance=15.0,
        )
        truth_pos = pulses.is_pulsar.tolist()
        matched_pos = [lab is not None for lab in labels]
        agree = sum(t == m for t, m in zip(truth_pos, matched_pos))
        assert agree / len(labels) > 0.8
        # Matched names are the in-beam source.
        assert {lab.name for lab in labels if lab} <= {source.name}
