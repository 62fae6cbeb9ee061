"""Column-wise CSV ingestion against the per-line reference reader in
oracles.py: the same graph on a messy bundle, and the same first error on
bundles with one or more faults."""

import csv

import numpy as np
import pytest

from medgcn.data_io import load_csv_bundle
from medgcn.errors import IngestionError, IntegrityError
from medgcn.graph import NODE_TYPES, build_graph
from medgcn.synthetic import SyntheticSpec, generate_synthetic

from oracles import BUNDLE_HEADERS, read_bundle_oracle

BASE = {
    "patients.csv": "patient_id\nP1\nP2\n",
    "encounters.csv": "encounter_id,patient_id\nE1,P1\nE2,P1\nE3,P2\nE4,P2\n",
    "lab_results.csv": (
        "encounter_id,lab_code,value\n"
        "E1,L1,5.0\nE1,L2,100.0\nE2,L1,0.0\nE2,L3,0.8\nE3,L2,140.0\nE4,L1,10.0\nE4,L3,0.4\n"
    ),
    "prescriptions.csv": "encounter_id,med_code\nE1,M1\nE1,M2\nE2,M2\nE3,M3\nE4,M1\nE4,M3\n",
}

LABS_HEAD = "encounter_id,lab_code,value\n"

# Each case replaces whole files of BASE; None removes the file.
FAULTS = {
    "missing_file": {"prescriptions.csv": None},
    "empty_file": {"patients.csv": ""},
    "bad_header": {"encounters.csv": "encounter,patient_id\nE1,P1\n"},
    "too_few_columns": {"lab_results.csv": LABS_HEAD + "E1,L1,5.0\nE3,L2\n"},
    "too_many_columns": {"prescriptions.csv": "encounter_id,med_code\nE1,M1,x\n"},
    "blank_only_row_in_wide_file": {"encounters.csv": "encounter_id,patient_id\nE1,P1\n  \n"},
    "duplicate_patient": {"patients.csv": "patient_id\nP1\nP2\nP1\n"},
    "duplicate_encounter": {"encounters.csv": "encounter_id,patient_id\nE1,P1\nE2,P1\nE3,P2\nE4,P2\nE2,P2\n"},
    "unknown_patient": {"encounters.csv": "encounter_id,patient_id\nE1,P1\nE2,P1\nE3,P9\nE4,P2\n"},
    "lab_unknown_encounter": {"lab_results.csv": LABS_HEAD + "E1,L1,5.0\nE9,L1,1.0\n"},
    "lab_duplicate": {"lab_results.csv": LABS_HEAD + "E1,L1,5.0\nE2,L1,1.0\nE1,L1,6.0\n"},
    "non_numeric": {"lab_results.csv": LABS_HEAD + "E1,L1,5.0\nE2,L1,abc\n"},
    "empty_value": {"lab_results.csv": LABS_HEAD + "E1,L1,\n"},
    "nan": {"lab_results.csv": LABS_HEAD + "E1,L1,5.0\nE2,L1,nan\n"},
    "inf": {"lab_results.csv": LABS_HEAD + "E1,L1,-inf\n"},
    "rx_unknown_encounter": {"prescriptions.csv": "encounter_id,med_code\nE1,M1\nE7,M1\n"},
    "rx_duplicate": {"prescriptions.csv": "encounter_id,med_code\nE1,M1\nE2,M1\nE1,M1\n"},
    # Two faults in one file: the earlier line wins, whatever its kind.
    "non_finite_before_unknown": {"lab_results.csv": LABS_HEAD + "E1,L1,inf\nE2,L1,1\nE9,L2,1\n"},
    "unknown_before_non_numeric": {"lab_results.csv": LABS_HEAD + "E9,L1,1\nE2,L1,x\n"},
    "duplicate_before_non_numeric": {"lab_results.csv": LABS_HEAD + "E1,L1,1\nE1,L1,2\nE2,L1,x\n"},
    "non_numeric_before_duplicate": {"lab_results.csv": LABS_HEAD + "E1,L1,1\nE2,L1,x\nE1,L1,2\n"},
    "unknown_patient_before_duplicate": {"encounters.csv": "encounter_id,patient_id\nE1,P9\nE1,P1\n"},
    "rx_duplicate_before_unknown": {"prescriptions.csv": "encounter_id,med_code\nE1,M1\nE1,M1\nE9,M1\n"},
    # Two faults on one line: the checks run in the per-line order.
    "unknown_and_non_numeric_on_one_line": {"lab_results.csv": LABS_HEAD + "E1,L1,1\nE9,L1,x\n"},
    "duplicate_and_non_numeric_on_one_line": {"lab_results.csv": LABS_HEAD + "E1,L1,1\nE1,L1,x\n"},
    "duplicate_and_non_finite_on_one_line": {"lab_results.csv": LABS_HEAD + "E1,L1,1\nE1,L1,nan\n"},
    "unknown_patient_on_duplicate_line": {"encounters.csv": "encounter_id,patient_id\nE1,P1\nE1,P9\n"},
    # Faults in two files: every file is read before any is cross-checked,
    # then files are checked in bundle order.
    "encounters_before_labs": {
        "encounters.csv": "encounter_id,patient_id\nE1,P1\nE2,P1\nE3,P9\nE4,P2\n",
        "lab_results.csv": LABS_HEAD + "E1,L1,x\n",
    },
    "labs_before_prescriptions": {
        "lab_results.csv": LABS_HEAD + "E1,L1,5.0\nE1,L1,5.0\n",
        "prescriptions.csv": "encounter_id,med_code\nE9,M1\n",
    },
    "column_count_before_cross_check": {
        "patients.csv": "patient_id\nP1\nP1\n",
        "prescriptions.csv": "encounter_id,med_code\nE1\n",
    },
    # Line numbers count blank lines.
    "fault_after_blank_lines": {"lab_results.csv": LABS_HEAD + "E1,L1,5.0\n\n\nE2,L1,?\n"},
}


def write_bundle(directory, overrides=None):
    files = {**BASE, **(overrides or {})}
    for name, text in files.items():
        if text is not None:
            (directory / name).write_text(text, encoding="utf-8")
    return directory


def oracle_error(directory):
    with pytest.raises(ValueError) as err:
        read_bundle_oracle(directory)
    return str(err.value)


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_first_error_matches_per_line_reader(tmp_path, case):
    directory = write_bundle(tmp_path, FAULTS[case])
    want = oracle_error(directory)
    with pytest.raises(IngestionError) as err:
        load_csv_bundle(directory)
    assert str(err.value) == want


def test_earlier_line_wins_over_earlier_check(tmp_path):
    directory = write_bundle(tmp_path, FAULTS["non_finite_before_unknown"])
    assert oracle_error(directory) == "lab_results.csv:2: non-finite value 'inf'"


@pytest.mark.parametrize(
    "encounters, labs, prescriptions, message",
    [
        ([("E1", "P9"), ("E1", "P1")], [], [], "encounter 'E1' references unknown patient 'P9'"),
        ([("E1", "P1"), ("E1", "P9")], [], [], "encounter 'E1' references unknown patient 'P9'"),
        ([("E1", "P1"), ("E1", "P1"), ("E2", "P9")], [], [], "duplicate encounter id 'E1'"),
        ([("E1", "P1")], [("E1", "L1", 1.0), ("E1", "L1", 2.0), ("E9", "L1", 1.0)], [],
         "duplicate lab observation for encounter 'E1', lab 'L1'"),
        ([("E1", "P1")], [("E9", "L1", 1.0), ("E1", "L1", 1.0), ("E1", "L1", 2.0)], [],
         "lab observation references unknown encounter 'E9'"),
        ([("E1", "P1")], [("E9", "L1", 1.0)], [("E1", "M1"), ("E1", "M1")],
         "lab observation references unknown encounter 'E9'"),
        ([("E1", "P1")], [], [("E1", "M1"), ("E7", "M2"), ("E1", "M1")],
         "prescription references unknown encounter 'E7'"),
    ],
)
def test_build_graph_reports_the_earliest_record(encounters, labs, prescriptions, message):
    with pytest.raises(IntegrityError) as err:
        build_graph(["P1"], encounters, labs, prescriptions)
    assert str(err.value) == message


def _messy_bundle(directory):
    """A small synthetic cohort written with shuffled lab rows, blank lines,
    padded fields and an encounter ID that holds a comma."""
    cohort = generate_synthetic(
        SyntheticSpec(
            n_patients=12, n_encounters=30, n_labs=9, n_meds=6,
            latent_dim=3, lab_observe_prob=0.5, med_rate=2.0, noise_sd=0.02, seed=5,
        )
    )
    graph = cohort.graph
    reg = graph.registry
    enc = [f"E{i}, late" if i == 3 else f"E{i}" for i in range(graph.n_encounters)]
    pat, lab, med = (reg.ids(t) for t in NODE_TYPES[1:])
    labs = [[enc[i], lab[j], repr(float(graph.raw_el[i, j]))] for i, j in np.argwhere(graph.m_el)]
    np.random.default_rng(1).shuffle(labs)
    rows = {
        "patients.csv": [[p] for p in pat],
        "encounters.csv": [[enc[i], pat[p]] for i, p in enumerate(graph.a_ep.tolist())],
        "lab_results.csv": labs,
        "prescriptions.csv": [[enc[i], med[j]] for i, j in np.argwhere(graph.a_em == 1.0)],
    }
    for name, table in rows.items():
        with open(directory / name, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(BUNDLE_HEADERS[name])
            for k, row in enumerate(table):
                w.writerow([f" {field}  " if (k + c) % 3 == 0 else field for c, field in enumerate(row)])
                if k % 7 == 0:
                    f.write("\n")
    return directory


def test_messy_cohort_builds_the_reference_graph(tmp_path):
    directory = _messy_bundle(tmp_path)
    ids, a_ep, raw_el, m_el, a_em = read_bundle_oracle(directory)
    graph = load_csv_bundle(directory)
    assert {t.value: list(graph.registry.ids(t)) for t in NODE_TYPES} == ids
    assert "E3, late" in ids["encounter"]
    np.testing.assert_array_equal(graph.a_ep, a_ep)
    np.testing.assert_array_equal(graph.m_el, m_el)
    np.testing.assert_array_equal(graph.raw_el, raw_el)
    np.testing.assert_array_equal(graph.a_em, a_em)
