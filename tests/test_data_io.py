"""CSV bundle ingestion and export tests."""

import csv

import numpy as np
import pytest

import medgcn.data_io
import medgcn.graph
from medgcn.cli import main
from medgcn.data_io import (
    denormalize_lab,
    export_predictions,
    load_csv_bundle,
    write_csv_bundle,
    write_ground_truth,
)
from medgcn.errors import IngestionError
from medgcn.graph import NodeType, build_graph, graph_stats, save_graph
from medgcn.synthetic import SyntheticSpec, generate_synthetic

from conftest import make_toy_graph
from oracles import BUNDLE_HEADERS, _oracle_rows
from test_ingest_parity import _messy_bundle

TOY_FILES = {
    "patients.csv": "patient_id\nP1\nP2\n",
    "encounters.csv": "encounter_id,patient_id\nE1,P1\nE2,P1\nE3,P2\nE4,P2\n",
    "lab_results.csv": (
        "encounter_id,lab_code,value\n"
        "E1,L1,5.0\nE1,L2,100.0\nE2,L1,0.0\nE2,L3,0.8\nE3,L2,140.0\nE4,L1,10.0\nE4,L3,0.4\n"
    ),
    "prescriptions.csv": (
        "encounter_id,med_code\nE1,M1\nE1,M2\nE2,M2\nE3,M3\nE4,M1\nE4,M3\n"
    ),
}


def write_toy_bundle(directory, overrides=None):
    files = dict(TOY_FILES)
    if overrides:
        files.update(overrides)
    for name, text in files.items():
        (directory / name).write_text(text)
    return directory


class TestShippedFixture:
    def test_packaged_toy_bundle_loads(self):
        from importlib import resources

        with resources.as_file(resources.files("medgcn") / "fixtures" / "toy") as bundle:
            graph = load_csv_bundle(bundle)
        assert graph.fingerprint() == make_toy_graph().fingerprint()


class TestLoad:
    def test_toy_bundle_counts(self, tmp_path):
        graph = load_csv_bundle(write_toy_bundle(tmp_path))
        assert graph.n_encounters == 4
        assert graph.n_patients == 2
        assert graph.n_labs == 3
        assert graph.n_medications == 3
        graph.validate()

    def test_matches_in_memory_builder(self, tmp_path):
        from_csv = load_csv_bundle(write_toy_bundle(tmp_path))
        in_memory = make_toy_graph()
        assert from_csv.fingerprint() == in_memory.fingerprint()

    def _build_graph_counts(self, directory, capsys):
        assert main(["build-graph", "--data", str(directory), "--out", str(directory / "g.bin")]) == 0
        return capsys.readouterr().out.splitlines()[:4]

    def test_build_graph_prints_row_counts(self, tmp_path, capsys):
        assert self._build_graph_counts(write_toy_bundle(tmp_path), capsys) == [
            "patients.csv: 2 rows",
            "encounters.csv: 4 rows",
            "lab_results.csv: 7 rows",
            "prescriptions.csv: 6 rows",
        ]

    def test_build_graph_row_counts_skip_blank_lines(self, tmp_path, capsys):
        directory = _messy_bundle(tmp_path)
        assert all(b"\r\n\n" in (directory / name).read_bytes() for name in BUNDLE_HEADERS)
        want = [f"{name}: {len(_oracle_rows(directory, name))} rows" for name in BUNDLE_HEADERS]
        assert self._build_graph_counts(directory, capsys) == want

    def test_missing_file(self, tmp_path):
        write_toy_bundle(tmp_path)
        (tmp_path / "prescriptions.csv").unlink()
        with pytest.raises(IngestionError, match="prescriptions.csv"):
            load_csv_bundle(tmp_path)

    def test_bad_header(self, tmp_path):
        write_toy_bundle(tmp_path, {"patients.csv": "id\nP1\n"})
        with pytest.raises(IngestionError, match="patients.csv:1"):
            load_csv_bundle(tmp_path)

    def test_wrong_column_count_cites_line(self, tmp_path):
        bad = TOY_FILES["lab_results.csv"].replace("E3,L2,140.0", "E3,L2")
        write_toy_bundle(tmp_path, {"lab_results.csv": bad})
        with pytest.raises(IngestionError, match="lab_results.csv:6"):
            load_csv_bundle(tmp_path)

    def test_non_numeric_value_cites_line(self, tmp_path):
        bad = TOY_FILES["lab_results.csv"].replace("E4,L3,0.4", "E4,L3,abc")
        write_toy_bundle(tmp_path, {"lab_results.csv": bad})
        with pytest.raises(IngestionError, match=r"lab_results.csv:8.*abc"):
            load_csv_bundle(tmp_path)

    def test_non_finite_value_rejected(self, tmp_path):
        bad = TOY_FILES["lab_results.csv"].replace("E4,L3,0.4", "E4,L3,nan")
        write_toy_bundle(tmp_path, {"lab_results.csv": bad})
        with pytest.raises(IngestionError, match="lab_results.csv:8"):
            load_csv_bundle(tmp_path)

    def test_unknown_encounter_cites_line(self, tmp_path):
        bad = TOY_FILES["prescriptions.csv"] + "E9,M1\n"
        write_toy_bundle(tmp_path, {"prescriptions.csv": bad})
        with pytest.raises(IngestionError, match="prescriptions.csv:8.*E9"):
            load_csv_bundle(tmp_path)

    def test_unknown_patient_cites_line(self, tmp_path):
        bad = TOY_FILES["encounters.csv"].replace("E4,P2", "E4,P9")
        write_toy_bundle(tmp_path, {"encounters.csv": bad})
        with pytest.raises(IngestionError, match="encounters.csv:5.*P9"):
            load_csv_bundle(tmp_path)

    def test_duplicate_observation_cites_line(self, tmp_path):
        bad = TOY_FILES["lab_results.csv"] + "E1,L1,6.0\n"
        write_toy_bundle(tmp_path, {"lab_results.csv": bad})
        with pytest.raises(IngestionError, match="lab_results.csv:9"):
            load_csv_bundle(tmp_path)

    def test_duplicate_patient_cites_line(self, tmp_path):
        write_toy_bundle(tmp_path, {"patients.csv": "patient_id\nP1\nP2\nP1\n"})
        with pytest.raises(IngestionError, match="patients.csv:4"):
            load_csv_bundle(tmp_path)

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        write_toy_bundle(tmp_path)
        (tmp_path / "prescriptions.csv").write_bytes(b"encounter_id,med_code\nE1,M1\nE2,M\xff2\n")
        with pytest.raises(IngestionError) as err:
            load_csv_bundle(tmp_path)
        assert str(err.value) == "prescriptions.csv: not UTF-8 text (invalid start byte)"

    def test_oversized_field_cites_file_and_line(self, tmp_path):
        bad = TOY_FILES["lab_results.csv"].replace("E3,L2,140.0", "E3,L2," + "1" * 200_000)
        write_toy_bundle(tmp_path, {"lab_results.csv": bad})
        with pytest.raises(IngestionError) as err:
            load_csv_bundle(tmp_path)
        assert str(err.value) == "lab_results.csv:6: field larger than field limit (131072)"


def _as_tuples(directory):
    """The bundle's rows as the per-line oracle reads them, as plain lists of
    tuples, so build_graph checks them from scratch."""
    patients, encounters, labs, prescriptions = (
        [tuple(fields) for _, fields in _oracle_rows(directory, name)] for name in BUNDLE_HEADERS
    )
    return [pid for (pid,) in patients], encounters, [(e, c, float(v)) for e, c, v in labs], prescriptions


def _graph_bytes(graph, path):
    save_graph(graph, path)
    return path.read_bytes()


class TestOnePassGraph:
    """load_csv_bundle assembles the graph from the ordinals its checks
    computed; it must equal the generic builder's graph to the byte."""

    def _assert_same_graph(self, directory, tmp_path):
        generic = build_graph(*_as_tuples(directory))
        assert _graph_bytes(load_csv_bundle(directory), tmp_path / "one_pass.bin") == _graph_bytes(
            generic, tmp_path / "generic.bin"
        )

    def test_messy_bundle(self, tmp_path):
        self._assert_same_graph(_messy_bundle(tmp_path), tmp_path)

    def test_default_cohort(self, tmp_path):
        write_csv_bundle(generate_synthetic(SyntheticSpec()).graph, tmp_path / "cohort")
        self._assert_same_graph(tmp_path / "cohort", tmp_path)

    def test_each_edge_file_is_paired_once(self, tmp_path, monkeypatch):
        calls = []
        for module in (medgcn.data_io, medgcn.graph):
            def counting(*args, _original=module._pair_faults):
                calls.append(args)
                return _original(*args)

            monkeypatch.setattr(module, "_pair_faults", counting)
        load_csv_bundle(write_toy_bundle(tmp_path))
        assert len(calls) == 2


class TestRoundTrip:
    def test_write_then_load_is_identical(self, tmp_path):
        graph = make_toy_graph()
        write_csv_bundle(graph, tmp_path / "out")
        again = load_csv_bundle(tmp_path / "out")
        assert again.fingerprint() == graph.fingerprint()

    def test_synthetic_cohort_round_trip_preserves_stats(self, tmp_path):
        cohort = generate_synthetic(
            SyntheticSpec(
                n_patients=30, n_encounters=50, n_labs=10, n_meds=8,
                latent_dim=4, lab_observe_prob=0.4, med_rate=2.0,
                noise_sd=0.02, seed=3,
            )
        )
        write_csv_bundle(cohort.graph, tmp_path / "b")
        again = load_csv_bundle(tmp_path / "b")
        before = graph_stats(cohort.graph)
        after = graph_stats(again)
        for name in ("a_ep", "a_el", "a_em"):
            assert after.matrix(name).edges == before.matrix(name).edges
        # node ordering may differ (CSV registers labs by first appearance),
        # but per-encounter content keyed by ID must survive the round trip
        reg_a, reg_b = cohort.graph.registry, again.registry
        for eid in reg_a.ids(NodeType.ENCOUNTER):
            ia = reg_a.ordinal(NodeType.ENCOUNTER, eid)
            ib = reg_b.ordinal(NodeType.ENCOUNTER, eid)
            labs_a = {
                reg_a.ids(NodeType.LAB)[j]: cohort.graph.raw_el[ia, j]
                for j in np.flatnonzero(cohort.graph.m_el[ia])
            }
            labs_b = {
                reg_b.ids(NodeType.LAB)[j]: again.raw_el[ib, j]
                for j in np.flatnonzero(again.m_el[ib])
            }
            assert labs_a == labs_b

    def test_written_bundle_is_byte_deterministic(self, tmp_path):
        graph = make_toy_graph()
        write_csv_bundle(graph, tmp_path / "one")
        write_csv_bundle(graph, tmp_path / "two")
        for name in TOY_FILES:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


class TestGroundTruth:
    def test_sidecars_keyed_by_ids(self, tmp_path):
        cohort = generate_synthetic(
            SyntheticSpec(
                n_patients=10, n_encounters=15, n_labs=5, n_meds=4,
                latent_dim=3, lab_observe_prob=0.5, med_rate=1.5,
                noise_sd=0.0, seed=1,
            )
        )
        write_ground_truth(tmp_path, cohort.graph.registry, cohort.true_labs, cohort.med_propensity)
        with open(tmp_path / "true_labs.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["encounter_id", "L0", "L1", "L2", "L3", "L4"]
        assert len(rows) == 16
        parsed = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
        np.testing.assert_array_equal(parsed, cohort.true_labs)
        with open(tmp_path / "med_propensities.csv", newline="") as f:
            med_rows = list(csv.reader(f))
        assert med_rows[0][0] == "encounter_id"
        assert len(med_rows[0]) == 5


class TestPredictions:
    def test_denormalize_inverts_normalization(self):
        lab_norm = np.array([[2.0, 10.0], [5.0, 5.0]])
        assert denormalize_lab(0.5, 0, lab_norm) == 6.0
        assert denormalize_lab(0.0, 0, lab_norm) == 2.0
        assert denormalize_lab(0.25, 1, lab_norm) == 5.0  # degenerate range

    def test_export_ranks_descending(self, tmp_path):
        graph = make_toy_graph()
        p = np.array(
            [
                [0.2, 0.9, 0.5],
                [0.1, 0.1, 0.1],
                [0.7, 0.2, 0.3],
                [0.4, 0.5, 0.6],
            ]
        )
        v = np.full((4, 3), 0.5)
        export_predictions(p, v, graph, tmp_path)
        with open(tmp_path / "recommendations.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["encounter_id", "med_code", "probability", "rank"]
        e1 = [r for r in rows[1:] if r[0] == "E1"]
        assert [r[1] for r in e1] == ["M2", "M3", "M1"]
        assert [r[3] for r in e1] == ["1", "2", "3"]
        # ties broken by medication ordinal, stable across runs
        e2 = [r for r in rows[1:] if r[0] == "E2"]
        assert [r[1] for r in e2] == ["M1", "M2", "M3"]

    def test_export_imputations_original_units(self, tmp_path):
        graph = make_toy_graph()
        p = np.full((4, 3), 0.5)
        v = np.full((4, 3), 0.5)
        export_predictions(p, v, graph, tmp_path)
        with open(tmp_path / "imputations.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["encounter_id", "lab_code", "value_normalized", "value_original_units"]
        first = rows[1]
        # L1 spans [0, 10] in original units, so 0.5 maps to 5
        assert first[:3] == ["E1", "L1", "0.5"]
        assert float(first[3]) == 5.0

    def test_export_subset_of_encounters(self, tmp_path):
        graph = make_toy_graph()
        p = np.full((4, 3), 0.25)
        v = np.full((4, 3), 0.25)
        export_predictions(p[2:3], v[2:3], graph, tmp_path, encounter_ordinals=np.array([2]))
        with open(tmp_path / "recommendations.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert {r[0] for r in rows[1:]} == {"E3"}

    def test_values_round_trip_to_twelve_digits(self, tmp_path):
        graph = make_toy_graph()
        rng = np.random.default_rng(0)
        p = rng.random((4, 3))
        v = rng.random((4, 3))
        export_predictions(p, v, graph, tmp_path)
        with open(tmp_path / "recommendations.csv", newline="") as f:
            rows = list(csv.reader(f))
        med_ord = {"M1": 0, "M2": 1, "M3": 2}
        enc_ord = {"E1": 0, "E2": 1, "E3": 2, "E4": 3}
        for row in rows[1:]:
            got = float(row[2])
            want = p[enc_ord[row[0]], med_ord[row[1]]]
            assert got == pytest.approx(want, rel=1e-11)
