"""Synthetic cohort generator tests.

Density targets are frozen from a calibration run of the default spec:
encounter-patient 99.8844%, encounter-lab 81.9152%, encounter-med 96.4912%.
"""

import numpy as np
import pytest

from medgcn.errors import ParameterError
from medgcn.graph import NodeType, graph_stats
from medgcn.synthetic import (
    SyntheticSpec,
    generate_synthetic,
    parse_spec_text,
    spec_to_text,
)

SMALL = SyntheticSpec(
    n_patients=40,
    n_encounters=60,
    n_labs=12,
    n_meds=9,
    latent_dim=4,
    lab_observe_prob=0.3,
    med_rate=2.0,
    noise_sd=0.02,
    seed=7,
)


class TestGeneration:
    def test_small_cohort_shapes(self):
        cohort = generate_synthetic(SMALL)
        g = cohort.graph
        assert g.n_encounters == 60
        assert g.n_patients == 40
        assert g.n_labs == 12
        assert g.n_medications == 9
        assert cohort.true_labs.shape == (60, 12)
        assert cohort.med_propensity.shape == (60, 9)
        g.validate()

    def test_every_encounter_has_one_patient(self):
        cohort = generate_synthetic(SMALL)
        a_ep = np.eye(cohort.graph.n_patients)[cohort.graph.a_ep]
        np.testing.assert_array_equal(a_ep.sum(axis=1), np.ones(60))

    def test_default_spec_matches_reference_densities(self):
        cohort = generate_synthetic(SyntheticSpec())
        stats = graph_stats(cohort.graph)
        assert stats.matrix("a_ep").sparsity == pytest.approx(0.998844, abs=5e-5)
        assert stats.matrix("a_el").sparsity == pytest.approx(0.819152, abs=5e-5)
        assert stats.matrix("a_em").sparsity == pytest.approx(0.964912, abs=5e-5)

    def test_default_spec_meds_per_encounter_matches_rate(self):
        spec = SyntheticSpec()
        cohort = generate_synthetic(spec)
        per_encounter = cohort.graph.a_em.sum() / spec.n_encounters
        assert per_encounter == pytest.approx(spec.med_rate, abs=0.05)

    def test_same_seed_is_bit_identical(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SMALL)
        for name in ("a_ep", "a_el", "m_el", "a_em", "raw_el"):
            np.testing.assert_array_equal(getattr(a.graph, name), getattr(b.graph, name))
        np.testing.assert_array_equal(a.true_labs, b.true_labs)
        np.testing.assert_array_equal(a.med_propensity, b.med_propensity)
        np.testing.assert_array_equal(a.patient_latents, b.patient_latents)
        np.testing.assert_array_equal(a.encounter_latents, b.encounter_latents)
        assert a.graph.fingerprint() == b.graph.fingerprint()

    def test_different_seed_changes_observations(self):
        other = SyntheticSpec(**{**SMALL.__dict__, "seed": 8})
        a = generate_synthetic(SMALL)
        b = generate_synthetic(other)
        assert not np.array_equal(a.graph.m_el, b.graph.m_el)

    def test_zero_noise_reproduces_true_labs_on_mask(self):
        spec = SyntheticSpec(**{**SMALL.__dict__, "noise_sd": 0.0})
        cohort = generate_synthetic(spec)
        mask = cohort.graph.m_el
        np.testing.assert_array_equal(cohort.graph.raw_el, cohort.true_labs * mask)

    def test_raising_observe_prob_only_adds_edges(self):
        low = generate_synthetic(SMALL)
        high_spec = SyntheticSpec(**{**SMALL.__dict__, "lab_observe_prob": 0.45})
        high = generate_synthetic(high_spec)
        gained = high.graph.m_el - low.graph.m_el
        assert (gained >= 0.0).all()
        assert gained.sum() > 0
        # shared edges carry identical raw values: same draw order, same noise
        shared = low.graph.m_el == 1.0
        np.testing.assert_array_equal(low.graph.raw_el[shared], high.graph.raw_el[shared])

    def test_true_labs_inside_unit_interval(self):
        cohort = generate_synthetic(SMALL)
        assert cohort.true_labs.min() > 0.0
        assert cohort.true_labs.max() < 1.0

    def test_ids_follow_ordinals(self):
        cohort = generate_synthetic(SMALL)
        reg = cohort.graph.registry
        assert reg.ids(NodeType.PATIENT)[:2] == ("P0", "P1")
        assert reg.ids(NodeType.ENCOUNTER)[-1] == "E59"
        assert reg.ids(NodeType.LAB)[3] == "L3"
        assert reg.ids(NodeType.MEDICATION)[0] == "M0"


class TestSpecValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_patients", 0),
            ("n_encounters", 0),
            ("n_labs", 0),
            ("n_meds", 0),
            ("latent_dim", 0),
            ("lab_observe_prob", -0.1),
            ("lab_observe_prob", 1.5),
            ("med_rate", 0.0),
            ("noise_sd", -1.0),
            ("seed", -1),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        spec = SyntheticSpec(**{**SyntheticSpec().__dict__, field: value})
        with pytest.raises(ParameterError):
            spec.validate()

    def test_med_rate_above_n_meds_rejected(self):
        spec = SyntheticSpec(**{**SMALL.__dict__, "med_rate": 100.0})
        with pytest.raises(ParameterError):
            spec.validate()


class TestSpecText:
    def test_round_trip(self):
        text = spec_to_text(SMALL)
        assert parse_spec_text(text) == SMALL

    def test_comments_and_blank_lines_ignored(self):
        text = "# cohort size\nn_patients = 5\n\nn_encounters = 9  # per patient\n"
        spec = parse_spec_text(text)
        assert spec.n_patients == 5
        assert spec.n_encounters == 9
        assert spec.n_labs == SyntheticSpec().n_labs

    def test_unknown_key_cites_line(self):
        with pytest.raises(ParameterError, match="line 2"):
            parse_spec_text("n_patients = 5\nn_doctors = 3\n")

    def test_bad_value_cites_line(self):
        with pytest.raises(ParameterError, match="line 1"):
            parse_spec_text("n_patients = many\n")

    def test_missing_equals_cites_line(self):
        with pytest.raises(ParameterError, match="line 3"):
            parse_spec_text("n_patients = 5\nn_labs = 4\nnonsense\n")
