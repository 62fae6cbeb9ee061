"""Graph construction, normalization, splitting, masking, and persistence."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from medgcn.errors import GraphLookupError, IntegrityError, ParameterError, SplitError
from medgcn.graph import (
    IMPUTATION_TASK,
    MEDICATION_TASK,
    MedGraph,
    NodeType,
    SplitPlan,
    _fit_ranges,
    _normalize_matrix,
    add_encounter,
    apply_split_masking,
    assemble_graph,
    build_graph,
    graph_stats,
    load_graph,
    make_split,
    normalize_lab,
    refit_lab_normalization,
    save_graph,
    sparsity,
)
from medgcn.model import Membership, make_view
from medgcn.synthetic import SyntheticSpec, generate_synthetic

from conftest import TOY_ENCOUNTERS, TOY_LAB_RESULTS, TOY_PATIENTS, TOY_PRESCRIPTIONS, make_toy_graph
from oracles import append_encounter_oracle

APPENDED = ("a_ep", "m_el", "a_em", "raw_el")


class TestStoredLabs:
    def test_no_normalized_matrix_is_stored(self, toy_graph):
        names = {f.name for f in dataclasses.fields(MedGraph)}
        assert names == {"registry", "a_ep", "m_el", "a_em", "raw_el", "lab_norm"}
        with pytest.raises(AttributeError):
            toy_graph.a_el = np.zeros((4, 3))

    def test_a_el_is_derived_from_raw_values(self, toy_graph):
        want = _normalize_matrix(toy_graph.raw_el, toy_graph.m_el, toy_graph.lab_norm)
        assert toy_graph.a_el.tobytes() == want.tobytes()
        toy_graph.lab_norm[0] = (0.0, 20.0)
        assert toy_graph.a_el[0, 0] == 0.25
        np.testing.assert_array_equal(toy_graph.lab_rows([3, 0]), toy_graph.a_el[[3, 0]])

    def test_mask_stays_bool(self, toy_graph, tmp_path):
        def is_bool(graph):
            return graph.m_el.dtype == np.bool_

        assert is_bool(toy_graph)
        float_mask = toy_graph.m_el.astype(np.float64)
        assembled = assemble_graph(
            toy_graph.registry.copy(), toy_graph.a_ep, toy_graph.raw_el, float_mask, toy_graph.a_em
        )
        assert is_bool(assembled)
        np.testing.assert_array_equal(assembled.m_el, toy_graph.m_el)
        copied = toy_graph.copy()
        assert is_bool(copied)
        add_encounter(copied, "P1", [("L2", 120.0)])
        assert is_bool(copied) and copied.m_el[4].tolist() == [False, True, False]
        for task in (MEDICATION_TASK, IMPUTATION_TASK):
            plan = make_split(toy_graph, task, (0.6, 0.2, 0.2), seed=1)
            assert is_bool(apply_split_masking(toy_graph, plan))
        save_graph(copied, tmp_path / "g.medgraph")
        loaded = load_graph(tmp_path / "g.medgraph")
        assert is_bool(loaded)
        np.testing.assert_array_equal(loaded.m_el, copied.m_el)

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0])
    def test_assemble_rejects_a_non_binary_mask(self, toy_graph, bad):
        mask = toy_graph.m_el.astype(np.float64)
        mask[1, 1] = bad
        with pytest.raises(IntegrityError, match="m_el must be binary"):
            assemble_graph(toy_graph.registry.copy(), toy_graph.a_ep, toy_graph.raw_el, mask, toy_graph.a_em)

    def test_validate_wants_a_bool_mask(self, toy_graph):
        toy_graph.m_el = toy_graph.m_el.astype(np.float64)
        with pytest.raises(IntegrityError, match="bool mask"):
            toy_graph.validate()


class TestBuildGraph:
    def test_toy_shapes_and_counts(self, toy_graph):
        assert toy_graph.n_encounters == 4
        assert toy_graph.n_patients == 2
        assert toy_graph.n_labs == 3
        assert toy_graph.n_medications == 3
        assert toy_graph.a_ep.shape == (4,)
        assert toy_graph.a_el.shape == (4, 3)
        assert toy_graph.a_em.shape == (4, 3)

    def test_first_appearance_ordinals(self, toy_graph):
        reg = toy_graph.registry
        assert reg.ids(NodeType.ENCOUNTER) == ("E1", "E2", "E3", "E4")
        assert reg.ids(NodeType.LAB) == ("L1", "L2", "L3")
        assert reg.ids(NodeType.MEDICATION) == ("M1", "M2", "M3")
        assert reg.ordinal(NodeType.LAB, "L3") == 2

    def test_one_hot_membership(self, toy_graph):
        np.testing.assert_array_equal(
            np.eye(toy_graph.n_patients)[toy_graph.a_ep], [[1, 0], [1, 0], [0, 1], [0, 1]]
        )

    def test_observed_zero_keeps_mask(self, toy_graph):
        # E2's L1 measurement is the raw value 0.0: the adjacency entry is
        # 0 but the mask still records the observation.
        i = toy_graph.registry.ordinal(NodeType.ENCOUNTER, "E2")
        j = toy_graph.registry.ordinal(NodeType.LAB, "L1")
        assert toy_graph.a_el[i, j] == 0.0
        assert toy_graph.m_el[i, j] == 1.0

    def test_normalized_values(self, toy_graph):
        # L1 spans 0..10, L2 spans 100..140, L3 spans 0.4..0.8.
        want = np.array(
            [
                [0.5, 0.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(toy_graph.a_el, want)

    def test_medication_matrix(self, toy_graph):
        np.testing.assert_array_equal(
            toy_graph.a_em, [[1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1]]
        )

    def test_empty_lab_stream(self):
        g = build_graph(TOY_PATIENTS, TOY_ENCOUNTERS, [], TOY_PRESCRIPTIONS)
        assert g.n_labs == 0
        assert g.a_el.shape == (4, 0)
        assert g.m_el.sum() == 0

    def test_minimal_graph(self):
        g = build_graph(["P1"], [("E1", "P1")], [], [])
        np.testing.assert_array_equal(np.eye(g.n_patients)[g.a_ep], [[1.0]])

    def test_unknown_patient_rejected(self):
        with pytest.raises(IntegrityError):
            build_graph(["P1"], [("E1", "P9")], [], [])

    def test_duplicate_encounter_rejected(self):
        with pytest.raises(IntegrityError):
            build_graph(["P1", "P2"], [("E1", "P1"), ("E1", "P2")], [], [])

    def test_lab_for_unknown_encounter_rejected(self):
        with pytest.raises(IntegrityError):
            build_graph(["P1"], [("E1", "P1")], [("E9", "L1", 1.0)], [])

    def test_duplicate_lab_pair_names_the_pair(self):
        with pytest.raises(IntegrityError, match="E1.*L1"):
            build_graph(
                ["P1"], [("E1", "P1")], [("E1", "L1", 1.0), ("E1", "L1", 2.0)], []
            )

    def test_duplicate_prescription_rejected(self):
        with pytest.raises(IntegrityError):
            build_graph(["P1"], [("E1", "P1")], [], [("E1", "M1"), ("E1", "M1")])

    def test_validate_catches_corrupted_membership(self, toy_graph):
        toy_graph.a_ep[0] = 2  # no third patient
        with pytest.raises(IntegrityError):
            toy_graph.validate()

    def test_validate_wants_integer_patient_index(self, toy_graph):
        toy_graph.a_ep = toy_graph.a_ep.astype(np.float64)
        with pytest.raises(IntegrityError, match="int64"):
            toy_graph.validate()


class TestNormalizeLab:
    NORM = np.array([[50.0, 150.0], [3.0, 3.0]])

    def test_midpoint(self):
        assert normalize_lab(100.0, 0, self.NORM) == 0.5

    def test_clamps_below_and_above(self):
        assert normalize_lab(10.0, 0, self.NORM) == 0.0
        assert normalize_lab(200.0, 0, self.NORM) == 1.0

    def test_degenerate_range_maps_to_half(self):
        assert normalize_lab(3.0, 1, self.NORM) == 0.5
        assert normalize_lab(-17.0, 1, self.NORM) == 0.5

    def test_unknown_ordinal(self):
        with pytest.raises(GraphLookupError):
            normalize_lab(1.0, 2, self.NORM)

    def test_monotone_in_value(self):
        values = np.linspace(0.0, 250.0, 40)
        outs = [normalize_lab(v, 0, self.NORM) for v in values]
        assert all(b >= a for a, b in zip(outs, outs[1:]))

    def test_matrix_form_equals_per_value_form(self):
        # Ranges fit on half of the observations, so the other half holds
        # out-of-range values; lab 0 is never visible (degenerate 0..0),
        # lab 1 once (degenerate single value), lab 2 always equal.
        rng = np.random.default_rng(4)
        m_el = (rng.random((60, 7)) < 0.6).astype(np.float64)
        raw_el = rng.normal(50.0, 30.0, (60, 7)) * m_el
        raw_el[:, 2] = 7.5 * m_el[:, 2]
        visible = m_el * (rng.random((60, 7)) < 0.5)
        visible[:, 0] = 0.0
        visible[:, 1] = 0.0
        visible[np.flatnonzero(m_el[:, 1])[0], 1] = 1.0
        lab_norm = _fit_ranges(raw_el, visible)
        for j in range(7):
            vals = raw_el[visible[:, j] == 1.0, j]
            want = (vals.min(), vals.max()) if vals.size else (0.0, 0.0)
            np.testing.assert_array_equal(lab_norm[j], want)
        want = np.zeros_like(raw_el)
        for i, j in np.argwhere(m_el == 1.0):
            want[i, j] = normalize_lab(raw_el[i, j], j, lab_norm)
        got = _normalize_matrix(raw_el, m_el, lab_norm)
        assert got.tobytes() == want.tobytes()
        assert {0.0, 0.5, 1.0} <= set(got.ravel())


def big_graph(n_patients=90, n_encounters=1260):
    patients = [f"P{i}" for i in range(n_patients)]
    encounters = [(f"E{i}", f"P{i % n_patients}") for i in range(n_encounters)]
    return build_graph(patients, encounters, [], [])


class TestMakeSplit:
    def test_benchmark_scale_counts(self):
        g = big_graph()
        plan = make_split(g, MEDICATION_TASK, (0.72, 0.08, 0.20), seed=0)
        assert plan.sizes() == (907, 101, 252)

    def test_partition_properties(self, toy_graph):
        g = big_graph(n_patients=10, n_encounters=50)
        plan = make_split(g, MEDICATION_TASK, (0.6, 0.2, 0.2), seed=3)
        combined = np.concatenate([plan.train, plan.val, plan.test])
        assert len(np.unique(combined)) == 50
        assert sorted(combined) == list(range(50))

    def test_same_seed_same_plan(self):
        g = big_graph(n_patients=10, n_encounters=40)
        a = make_split(g, MEDICATION_TASK, (0.7, 0.1, 0.2), seed=9)
        b = make_split(g, MEDICATION_TASK, (0.7, 0.1, 0.2), seed=9)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_different_seed_different_plan(self):
        g = big_graph(n_patients=10, n_encounters=40)
        a = make_split(g, MEDICATION_TASK, (0.7, 0.1, 0.2), seed=1)
        b = make_split(g, MEDICATION_TASK, (0.7, 0.1, 0.2), seed=2)
        assert not np.array_equal(a.train, b.train)

    def test_zero_ratio_rejected(self, toy_graph):
        with pytest.raises(ParameterError):
            make_split(toy_graph, MEDICATION_TASK, (1.0, 0.0, 0.0), seed=0)

    def test_ratios_must_sum_to_one(self, toy_graph):
        with pytest.raises(ParameterError):
            make_split(toy_graph, MEDICATION_TASK, (0.5, 0.2, 0.2), seed=0)

    def test_too_few_items(self):
        g = build_graph(["P1"], [("E1", "P1"), ("E2", "P1")], [], [])
        with pytest.raises(SplitError):
            make_split(g, MEDICATION_TASK, (0.4, 0.3, 0.3), seed=0)

    def test_imputation_partitions_observed_edges(self, toy_graph):
        plan = make_split(toy_graph, IMPUTATION_TASK, (0.6, 0.2, 0.2), seed=0)
        edges = np.concatenate([plan.train, plan.val, plan.test])
        assert len(edges) == 7
        mask = np.zeros_like(toy_graph.m_el)
        mask[edges[:, 0], edges[:, 1]] = 1.0
        np.testing.assert_array_equal(mask, toy_graph.m_el)

    def test_unknown_task(self, toy_graph):
        with pytest.raises(ParameterError):
            make_split(toy_graph, "frobnicate", (0.6, 0.2, 0.2), seed=0)


class TestApplySplitMasking:
    def test_medication_rows_zeroed(self, toy_graph):
        plan = SplitPlan(
            MEDICATION_TASK, 0, (0.5, 0.25, 0.25), toy_graph.fingerprint(),
            np.array([0, 1]), np.array([2]), np.array([3]),
        )
        view = apply_split_masking(toy_graph, plan)
        assert view.a_em[2].sum() == 0
        assert view.a_em[3].sum() == 0
        np.testing.assert_array_equal(view.a_em[:2], toy_graph.a_em[:2])

    def test_original_untouched(self, toy_graph):
        before = toy_graph.a_em.copy()
        plan = make_split(toy_graph, MEDICATION_TASK, (0.5, 0.25, 0.25), seed=0)
        apply_split_masking(toy_graph, plan)
        np.testing.assert_array_equal(toy_graph.a_em, before)

    def test_imputation_removes_heldout_mask_bits(self, toy_graph):
        plan = make_split(toy_graph, IMPUTATION_TASK, (0.6, 0.2, 0.2), seed=1)
        view = apply_split_masking(toy_graph, plan)
        removed = len(plan.val) + len(plan.test)
        assert int(toy_graph.m_el.sum() - view.m_el.sum()) == removed
        for i, j in plan.train:
            assert view.m_el[i, j] == 1.0

    def test_masking_idempotent(self, toy_graph):
        plan = make_split(toy_graph, IMPUTATION_TASK, (0.6, 0.2, 0.2), seed=1)
        once = apply_split_masking(toy_graph, plan)
        plan2 = SplitPlan(
            plan.task, plan.seed, plan.ratios, once.fingerprint(),
            plan.train, plan.val, plan.test,
        )
        twice = apply_split_masking(once, plan2)
        np.testing.assert_array_equal(once.m_el, twice.m_el)
        np.testing.assert_array_equal(once.a_el, twice.a_el)

    def test_plan_from_other_graph_rejected(self, toy_graph):
        other = build_graph(["P1"], [("E1", "P1"), ("E2", "P1"), ("E3", "P1")], [], [])
        plan = make_split(other, MEDICATION_TASK, (0.4, 0.3, 0.3), seed=0)
        with pytest.raises(IntegrityError):
            apply_split_masking(toy_graph, plan)


class TestRefitNormalization:
    def test_ranges_from_train_edges_only(self, toy_graph):
        # Hold out E4/L1 (raw 10.0) and E3/L2 (raw 140.0): L1's training
        # range shrinks to 0..5 and L2 degenerates to the single value 100.
        all_edges = np.argwhere(toy_graph.m_el == 1.0)
        heldout = {(3, 0), (2, 1)}
        train = np.array([e for e in all_edges if tuple(e) not in heldout])
        plan = SplitPlan(
            IMPUTATION_TASK, 0, (0.6, 0.2, 0.2), toy_graph.fingerprint(),
            train, np.array([[3, 0]]), np.array([[2, 1]]),
        )
        refit = refit_lab_normalization(toy_graph, plan)
        np.testing.assert_allclose(refit.lab_norm[0], [0.0, 5.0])
        np.testing.assert_allclose(refit.lab_norm[1], [100.0, 100.0])
        # Held-out raw 10.0 clamps to 1.0 under the 0..5 range; the
        # degenerate L2 maps every observation to 0.5.
        assert refit.a_el[3, 0] == 1.0
        assert refit.a_el[0, 1] == 0.5
        assert refit.a_el[2, 1] == 0.5
        # L3 had both observations in train: unchanged.
        assert refit.a_el[1, 2] == 1.0
        assert refit.a_el[3, 2] == 0.0

    def test_medication_plan_uses_all_observations(self, toy_graph):
        plan = make_split(toy_graph, MEDICATION_TASK, (0.5, 0.25, 0.25), seed=0)
        refit = refit_lab_normalization(toy_graph, plan)
        np.testing.assert_allclose(refit.lab_norm, toy_graph.lab_norm)
        np.testing.assert_allclose(refit.a_el, toy_graph.a_el)

    def test_original_untouched(self, toy_graph):
        before = toy_graph.lab_norm.copy()
        plan = make_split(toy_graph, IMPUTATION_TASK, (0.6, 0.2, 0.2), seed=5)
        refit_lab_normalization(toy_graph, plan)
        np.testing.assert_array_equal(toy_graph.lab_norm, before)


class TestGraphStats:
    def test_toy_stats(self, toy_graph):
        stats = graph_stats(toy_graph)
        assert stats.counts == {"encounter": 4, "patient": 2, "lab": 3, "medication": 3}
        ep = stats.matrix("a_ep")
        assert (ep.rows, ep.cols, ep.edges) == (4, 2, 4)
        assert ep.sparsity == pytest.approx(0.5)
        el = stats.matrix("a_el")
        assert el.edges == 7
        em = stats.matrix("a_em")
        assert em.edges == 6
        assert em.sparsity == pytest.approx(0.5)

    def test_observed_zero_counts_as_edge(self, toy_graph):
        # a_el has a stored 0.0 at an observed position; the edge count
        # comes from the mask, not from nonzero values.
        assert int(np.count_nonzero(toy_graph.a_el)) < graph_stats(toy_graph).matrix("a_el").edges

    def test_empty_matrix_sparsity(self):
        assert sparsity(5, 4, 0) == 1.0
        assert sparsity(0, 4, 0) == 1.0

    def test_roundtrip_stats_identical(self, toy_graph, tmp_path):
        path = tmp_path / "toy.medgraph"
        save_graph(toy_graph, path)
        again = graph_stats(load_graph(path))
        assert again == graph_stats(toy_graph)


class TestAddEncounter:
    def test_append_with_labs(self, toy_graph):
        before = graph_stats(toy_graph)
        ordinal = add_encounter(toy_graph, "P1", [("L1", 10.0), ("L3", 0.2)], "E5")
        assert ordinal == 4
        assert toy_graph.n_encounters == 5
        np.testing.assert_array_equal(np.eye(toy_graph.n_patients)[toy_graph.a_ep[4]], [1.0, 0.0])
        assert toy_graph.a_el[4, 0] == 1.0  # at the training max
        assert toy_graph.a_el[4, 2] == 0.0  # 0.2 clamps below the 0.4 min
        assert toy_graph.m_el[4].sum() == 2
        assert toy_graph.a_em[4].sum() == 0
        after = graph_stats(toy_graph)
        assert after.matrix("a_ep").edges == before.matrix("a_ep").edges + 1
        assert after.matrix("a_el").edges == before.matrix("a_el").edges + 2

    def test_no_labs(self, toy_graph):
        ordinal = add_encounter(toy_graph, "P2", [])
        assert toy_graph.m_el[ordinal].sum() == 0
        toy_graph.validate()

    def test_generated_id_unique(self, toy_graph):
        a = add_encounter(toy_graph, "P1", [])
        b = add_encounter(toy_graph, "P1", [])
        reg = toy_graph.registry
        assert reg.id_at(NodeType.ENCOUNTER, a) != reg.id_at(NodeType.ENCOUNTER, b)

    def test_unknown_patient(self, toy_graph):
        with pytest.raises(GraphLookupError):
            add_encounter(toy_graph, "P9", [])

    def test_unknown_lab(self, toy_graph):
        with pytest.raises(GraphLookupError):
            add_encounter(toy_graph, "P1", [("L9", 1.0)])

    def test_duplicate_lab_in_request(self, toy_graph):
        with pytest.raises(IntegrityError):
            add_encounter(toy_graph, "P1", [("L1", 1.0), ("L1", 2.0)])

    def test_duplicate_encounter_id(self, toy_graph):
        with pytest.raises(IntegrityError):
            add_encounter(toy_graph, "P1", [], "E1")

    def test_patient_index_stays_a_vector(self, toy_graph, tmp_path):
        assert toy_graph.a_ep.shape == (4,) and toy_graph.a_ep.dtype == np.int64
        for patient in ("P2", "P1", "P2"):
            add_encounter(toy_graph, patient, [("L1", 1.0)])
        assert toy_graph.a_ep.shape == (7,) and toy_graph.a_ep.dtype == np.int64
        np.testing.assert_array_equal(toy_graph.a_ep, [0, 0, 1, 1, 1, 0, 1])
        save_graph(toy_graph, tmp_path / "g.medgraph")
        loaded = load_graph(tmp_path / "g.medgraph")
        assert loaded.a_ep.shape == (7,) and loaded.a_ep.dtype == np.int64
        np.testing.assert_array_equal(loaded.a_ep, toy_graph.a_ep)

    def test_appended_row_equals_per_value_normalization(self, toy_graph):
        # Toy ranges: L1 0..10, L2 100..140, L3 0.4..0.8.  The values fall
        # inside, below and above them; L4 gets a degenerate 2..2 range.
        toy_graph.lab_norm = np.vstack([toy_graph.lab_norm, [2.0, 2.0]])
        toy_graph.registry.add(NodeType.LAB, "L4")
        for name in ("m_el", "raw_el"):
            mat = getattr(toy_graph, name)
            setattr(toy_graph, name, np.hstack([mat, np.zeros((mat.shape[0], 1), dtype=mat.dtype)]))
        cases = [
            [("L1", 3.7), ("L2", 99.0), ("L3", 0.9), ("L4", 5.0)],
            [("L3", 0.55), ("L1", -4.0), ("L2", 140.0)],
            [("L4", 2.0), ("L2", 1e9)],
            [],
        ]
        for labs in cases:
            ordinal = add_encounter(toy_graph, "P1", labs)
            want = np.zeros(toy_graph.n_labs)
            for code, value in labs:
                j = toy_graph.registry.ordinal(NodeType.LAB, code)
                want[j] = normalize_lab(value, j, toy_graph.lab_norm)
            assert toy_graph.a_el[ordinal].tobytes() == want.tobytes()
        assert {0.0, 0.5, 1.0} <= set(toy_graph.a_el[4:].ravel())
        toy_graph.validate()

    def test_copy_leaves_the_original_registry_alone(self, toy_graph):
        first = toy_graph.copy()
        add_encounter(first, "P1", [], "NEW")
        toy_graph.validate()
        assert toy_graph.n_encounters == 4
        second = toy_graph.copy()
        assert add_encounter(second, "P2", [], "NEW") == 4

    def test_fingerprint_changes(self, toy_graph):
        before = toy_graph.fingerprint()
        add_encounter(toy_graph, "P1", [])
        assert toy_graph.fingerprint() != before
        # Old encounter list is still a prefix of the new one.
        assert toy_graph.encounter_prefix_sha(4) == make_toy_graph().encounter_prefix_sha(4)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), "nan"])
    def test_non_finite_value_rejected_before_any_change(self, toy_graph, value):
        add_encounter(toy_graph, "P1", [("L1", 1.0)])  # leaves spare rows behind the fields
        fields = [getattr(toy_graph, name) for name in APPENDED]
        with pytest.raises(IntegrityError, match=r"non-finite value -?(nan|inf) for lab 'L2'"):
            add_encounter(toy_graph, "P2", [("L1", 4.0), ("L2", value)], "E9")
        assert toy_graph.n_encounters == 5 and not toy_graph.registry.contains(NodeType.ENCOUNTER, "E9")
        assert all(getattr(toy_graph, name) is f for name, f in zip(APPENDED, fields))
        toy_graph.validate()

    def test_validate_rejects_non_finite_lab_values(self, toy_graph):
        toy_graph.raw_el[0, 0] = np.inf  # E1 observes L1
        with pytest.raises(IntegrityError, match="finite"):
            toy_graph.validate()


def _small_cohort():
    spec = SyntheticSpec(n_patients=30, n_encounters=60, n_labs=40, n_meds=12, seed=3)
    return generate_synthetic(spec).graph


def _arrivals(graph, seed, count):
    """(patient ordinal, [(lab ordinal, value)]) for count arrivals of known
    patients, each lab observed at the cohort's own rate."""
    rng = np.random.default_rng(seed)
    rate = float(graph.m_el.mean())
    return [
        (int(rng.integers(graph.n_patients)),
         [(int(j), float(rng.normal(0.5, 0.3))) for j in np.flatnonzero(rng.random(graph.n_labs) < rate)])
        for _ in range(count)
    ]


def _append(graph, patient, labs, encounter_id=None):
    reg = graph.registry
    return add_encounter(
        graph, reg.id_at(NodeType.PATIENT, patient), [(reg.id_at(NodeType.LAB, j), x) for j, x in labs], encounter_id
    )


class TestAppendCapacity:
    def test_appends_match_the_concatenating_oracle(self, tmp_path):
        graph = _small_cohort()
        want = tuple(getattr(graph, name) for name in APPENDED)
        for patient, labs in _arrivals(graph, seed=11, count=300):
            _append(graph, patient, labs)
            want = append_encounter_oracle(*want, patient, labs)
            for name, mat in zip(APPENDED, want):
                got = getattr(graph, name)
                assert (got.dtype, got.shape) == (mat.dtype, mat.shape) and got.tobytes() == mat.tobytes(), name
        assert graph.n_encounters == 360 and 0.1 < graph.m_el[60:].mean() < 0.3
        graph.validate()
        save_graph(graph, tmp_path / "grown")
        save_graph(MedGraph(graph.registry, *want, graph.lab_norm), tmp_path / "oracle")
        assert (tmp_path / "grown").read_bytes() == (tmp_path / "oracle").read_bytes()
        copied = graph.copy()
        for name in APPENDED:
            assert getattr(copied, name).flags.owndata and not getattr(graph, name).flags.owndata
            assert getattr(copied, name).tobytes() == getattr(graph, name).tobytes()

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize("first", ["original", "twin"])
    def test_shallow_copies_do_not_see_each_others_rows(self, toy_graph, warm, first):
        if warm:
            add_encounter(toy_graph, "P1", [])  # fields become views with spare rows behind them
        twin = copy.copy(toy_graph)  # shares the fields and the buffers behind them
        twin.registry = toy_graph.registry.copy()
        n = toy_graph.n_encounters
        appends = {"original": (toy_graph, "P1", ("L1", 3.0)), "twin": (twin, "P2", ("L2", 120.0))}
        for who in (first, *(set(appends) - {first})):
            graph, patient, lab = appends[who]
            assert add_encounter(graph, patient, [lab], "NEW") == n
        assert toy_graph.raw_el[n].tolist() == [3.0, 0.0, 0.0] and toy_graph.m_el[n].tolist() == [True, False, False]
        assert twin.raw_el[n].tolist() == [0.0, 120.0, 0.0] and twin.m_el[n].tolist() == [False, True, False]
        assert (toy_graph.a_ep[n], twin.a_ep[n]) == (0, 1)
        np.testing.assert_array_equal(toy_graph.raw_el[:n], twin.raw_el[:n])
        toy_graph.validate()
        twin.validate()

    def test_fields_set_after_an_append_are_kept(self, toy_graph):
        add_encounter(toy_graph, "P1", [("L1", 1.0)])
        toy_graph.lab_norm = np.vstack([toy_graph.lab_norm, [2.0, 2.0]])
        toy_graph.registry.add(NodeType.LAB, "L4")
        for name in ("m_el", "raw_el"):
            mat = getattr(toy_graph, name)
            setattr(toy_graph, name, np.hstack([mat, np.zeros((mat.shape[0], 1), dtype=mat.dtype)]))
        toy_graph.a_em = np.ones_like(toy_graph.a_em)
        add_encounter(toy_graph, "P2", [("L4", 5.0)])
        add_encounter(toy_graph, "P1", [("L3", 0.5)])
        assert toy_graph.raw_el.shape == (7, 4)
        assert toy_graph.raw_el[4:].tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 5.0], [0.0, 0.0, 0.5, 0.0]]
        assert toy_graph.a_em[:5].all() and not toy_graph.a_em[5:].any()
        assert toy_graph.a_el[5, 3] == 0.5  # the degenerate 2..2 range
        toy_graph.validate()

    def test_a_view_built_before_appends_is_unchanged(self, toy_graph):
        add_encounter(toy_graph, "P1", [("L1", 1.0)])

        def snapshot(view):
            return {
                pair: (adj.index if isinstance(adj, Membership) else adj).tobytes()
                for pair, adj in view.adjacency.items()
            }

        view = make_view(toy_graph)
        before = snapshot(view)
        for patient, labs in _arrivals(toy_graph, seed=4, count=20):
            _append(toy_graph, patient, labs)
        assert snapshot(view) == before
        view.validate()

    def test_buffers_grow_geometrically(self, toy_graph):
        buffers = []  # held, so that no freed buffer's identity is reused
        for _ in range(2000):
            add_encounter(toy_graph, "P1", [("L2", 110.0)])
            if not any(toy_graph.raw_el.base is b for b in buffers):
                buffers.append(toy_graph.raw_el.base)
        assert len(buffers) <= 40
        assert toy_graph.n_encounters == 2004 and toy_graph.raw_el[4:, 1].tolist() == [110.0] * 2000
        toy_graph.validate()


class TestSerialization:
    def test_roundtrip_bitwise(self, toy_graph, tmp_path):
        path = tmp_path / "g.medgraph"
        save_graph(toy_graph, path)
        loaded = load_graph(path)
        for name in ("a_ep", "a_el", "m_el", "a_em", "raw_el", "lab_norm"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(toy_graph, name))
        for t in NodeType:
            assert loaded.registry.ids(t) == toy_graph.registry.ids(t)
        assert loaded.fingerprint() == toy_graph.fingerprint()

    def test_save_is_deterministic(self, toy_graph, tmp_path):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_graph(toy_graph, p1)
        save_graph(toy_graph, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOTAGRAPH\n{}\n")
        with pytest.raises(IntegrityError):
            load_graph(path)

    def test_old_format_names_the_fix(self, tmp_path):
        path = tmp_path / "old.medgraph"
        for magic in ("MEDGRAPH1", "MEDGRAPH2"):
            path.write_bytes(magic.encode() + b"\n{}\n")
            with pytest.raises(IntegrityError, match=f"{magic}.*rerun `medgcn build-graph`"):
                load_graph(path)

    def test_truncated_file(self, toy_graph, tmp_path):
        path = tmp_path / "g.medgraph"
        save_graph(toy_graph, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(IntegrityError):
            load_graph(path)

    def test_exact_float_roundtrip(self, tmp_path):
        # Values with no short decimal form must survive the JSON header
        # and the binary payload exactly.
        g = build_graph(["P1"], [("E1", "P1"), ("E2", "P1")], [("E1", "L1", 0.1), ("E2", "L1", 1 / 3)], [])
        path = tmp_path / "g.medgraph"
        save_graph(g, path)
        loaded = load_graph(path)
        np.testing.assert_array_equal(loaded.raw_el, g.raw_el)
        np.testing.assert_array_equal(loaded.lab_norm, g.lab_norm)


def _split_graph_file(path):
    """(magic line, header dict, payload bytes) of a saved graph file."""
    blob = path.read_bytes()
    magic_end = blob.index(b"\n")
    header_end = blob.index(b"\n", magic_end + 1)
    return blob[:magic_end], json.loads(blob[magic_end + 1 : header_end]), blob[header_end + 1 :]


def _write_graph_file(path, magic, header, payload):
    path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + payload)


def _drop(d, key):
    return {k: v for k, v in d.items() if k != key}


# Each case maps a valid header to a malformed one.
MALFORMED_HEADERS = {
    "not_an_object": lambda h: [h],
    "empty": lambda h: {},
    "ids_missing": lambda h: _drop(h, "ids"),
    "ids_a_list": lambda h: {**h, "ids": list(h["ids"].values())},
    "ids_type_missing": lambda h: {**h, "ids": _drop(h["ids"], "lab")},
    "ids_not_strings": lambda h: {**h, "ids": {**h["ids"], "patient": [1, 2]}},
    "lab_norm_missing": lambda h: _drop(h, "lab_norm"),
    "lab_norm_a_string": lambda h: {**h, "lab_norm": "0,1"},
    "lab_norm_ragged": lambda h: {**h, "lab_norm": [[0.0, 1.0], [2.0]]},
    "lab_norm_wrong_count": lambda h: {**h, "lab_norm": h["lab_norm"][:-1]},
    "lab_norm_nan": lambda h: {**h, "lab_norm": [[float("nan"), 1.0], *h["lab_norm"][1:]]},
    "lab_norm_swapped": lambda h: {**h, "lab_norm": [[1.0, 0.0], *h["lab_norm"][1:]]},
    "arrays_missing": lambda h: _drop(h, "arrays"),
    "arrays_an_object": lambda h: {**h, "arrays": {"a_ep": h["arrays"][0]}},
    "entry_without_name": lambda h: {**h, "arrays": [_drop(h["arrays"][0], "name"), *h["arrays"][1:]]},
    "entry_without_shape": lambda h: {**h, "arrays": [_drop(h["arrays"][0], "shape"), *h["arrays"][1:]]},
    "entry_without_dtype": lambda h: {**h, "arrays": [_drop(h["arrays"][0], "dtype"), *h["arrays"][1:]]},
    "shape_not_integers": lambda h: {**h, "arrays": [{**h["arrays"][0], "shape": ["4"]}, *h["arrays"][1:]]},
    "mask_entry_missing": lambda h: {**h, "arrays": [e for e in h["arrays"] if e["name"] != "m_el"]},
}


class TestMalformedGraphFile:
    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_header_is_an_integrity_error(self, toy_graph, tmp_path, case):
        path = tmp_path / "g.medgraph"
        save_graph(toy_graph, path)
        magic, header, payload = _split_graph_file(path)
        _write_graph_file(path, magic, MALFORMED_HEADERS[case](header), payload)
        with pytest.raises(IntegrityError, match="lab_norm" if case.startswith("lab_norm") else None):
            load_graph(path)

    def test_mask_byte_other_than_0_or_1(self, toy_graph, tmp_path):
        path = tmp_path / "g.medgraph"
        save_graph(toy_graph, path)
        magic, header, payload = _split_graph_file(path)
        assert [e["name"] for e in header["arrays"]][:2] == ["a_ep", "m_el"]
        mask_start = toy_graph.a_ep.nbytes
        assert payload[mask_start] == 1  # E1 observes L1
        _write_graph_file(path, magic, header, payload[:mask_start] + b"\x02" + payload[mask_start + 1 :])
        with pytest.raises(IntegrityError, match="byte other than 0 or 1"):
            load_graph(path)

    def test_non_finite_lab_value_rejected(self, toy_graph, tmp_path):
        path = tmp_path / "g.medgraph"
        save_graph(toy_graph, path)
        magic, header, payload = _split_graph_file(path)
        raw_start = len(payload) - toy_graph.raw_el.nbytes
        assert payload[raw_start : raw_start + 8] == np.float64(5.0).tobytes()  # E1's L1
        poisoned = payload[:raw_start] + np.float64(np.nan).tobytes() + payload[raw_start + 8 :]
        _write_graph_file(path, magic, header, poisoned)
        with pytest.raises(IntegrityError, match="finite"):
            load_graph(path)

    def test_bytes_after_the_last_array_rejected(self, toy_graph, tmp_path):
        path = tmp_path / "g.medgraph"
        save_graph(toy_graph, path)
        path.write_bytes(path.read_bytes() + b"GARBAGE")
        with pytest.raises(IntegrityError, match="after its last array"):
            load_graph(path)

    def test_graph_file_stores_the_mask_as_bytes(self, toy_graph, tmp_path):
        path = tmp_path / "g.medgraph"
        save_graph(toy_graph, path)
        magic, header, payload = _split_graph_file(path)
        assert magic == b"MEDGRAPH3"
        assert {e["name"]: e["dtype"] for e in header["arrays"]} == {
            "a_ep": "<i8", "m_el": "|u1", "a_em": "<f8", "raw_el": "<f8"
        }
        assert len(payload) == 4 * 8 + 4 * 3 + 4 * 3 * 8 + 4 * 3 * 8
