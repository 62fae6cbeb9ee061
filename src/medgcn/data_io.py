"""CSV ingestion and export.

Bundle layout (UTF-8, comma-separated, one header row):
  patients.csv       patient_id
  encounters.csv     encounter_id,patient_id
  lab_results.csv    encounter_id,lab_code,value        (original units)
  prescriptions.csv  encounter_id,med_code

Ingestion validates shape and references row by row so errors carry
file:line positions, then delegates graph assembly to build_graph.  Rows
for encounters that arrive after training (read_new_encounters) pass the
same per-line checks.
All numeric output uses repr, which round-trips float64 exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import IngestionError, ShapeError
from .graph import MedGraph, NodeRegistry, NodeType, build_graph

BUNDLE_FILES = {
    "patients.csv": ["patient_id"],
    "encounters.csv": ["encounter_id", "patient_id"],
    "lab_results.csv": ["encounter_id", "lab_code", "value"],
    "prescriptions.csv": ["encounter_id", "med_code"],
}

GROUND_TRUTH_LABS = "true_labs.csv"
GROUND_TRUTH_MEDS = "med_propensities.csv"


@dataclass
class BundleRecords:
    patients: list[str]
    encounters: list[tuple[str, str]]
    lab_results: list[tuple[str, str, float]]
    prescriptions: list[tuple[str, str]]

    def row_counts(self) -> dict[str, int]:
        rows = (self.patients, self.encounters, self.lab_results, self.prescriptions)
        return {name: len(r) for name, r in zip(BUNDLE_FILES, rows)}


def _read_rows(path: Path, expected_header: list[str]) -> list[tuple[int, list[str]]]:
    if not path.is_file():
        raise IngestionError(f"missing required file {path.name}")
    rows: list[tuple[int, list[str]]] = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path.name}:1: empty file, expected header {','.join(expected_header)}") from None
        if [h.strip() for h in header] != expected_header:
            raise IngestionError(
                f"{path.name}:1: bad header {','.join(header)!r}, expected {','.join(expected_header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise IngestionError(
                    f"{path.name}:{lineno}: expected {len(expected_header)} columns, got {len(row)}"
                )
            rows.append((lineno, [c.strip() for c in row]))
    return rows


def _check_encounter_rows(
    rows, patients: Optional[set[str]] = None, existing: Iterable[str] = ()
) -> list[tuple[str, str]]:
    """encounters.csv rows in file order.  Rejects encounter IDs repeated in
    the file or already in existing and, when a patient set is given,
    patients outside it."""
    encounters: list[tuple[str, str]] = []
    seen: set[str] = set(existing)
    for lineno, (eid, pid) in rows:
        if eid in seen:
            raise IngestionError(f"encounters.csv:{lineno}: duplicate encounter_id {eid!r}")
        if patients is not None and pid not in patients:
            raise IngestionError(f"encounters.csv:{lineno}: unknown patient_id {pid!r}")
        seen.add(eid)
        encounters.append((eid, pid))
    return encounters


def _check_lab_rows(rows, encounter_ids) -> list[tuple[str, str, float]]:
    """lab_results.csv rows in file order with parsed values.  Rejects
    encounters outside encounter_ids, a repeated (encounter, lab) pair,
    and values that are not finite numbers."""
    lab_results: list[tuple[str, str, float]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, (eid, code, value) in rows:
        if eid not in encounter_ids:
            raise IngestionError(f"lab_results.csv:{lineno}: unknown encounter_id {eid!r}")
        if (eid, code) in seen:
            raise IngestionError(f"lab_results.csv:{lineno}: duplicate observation for {eid!r}, {code!r}")
        try:
            parsed = float(value)
        except ValueError:
            raise IngestionError(f"lab_results.csv:{lineno}: non-numeric value {value!r}") from None
        if not np.isfinite(parsed):
            raise IngestionError(f"lab_results.csv:{lineno}: non-finite value {value!r}")
        seen.add((eid, code))
        lab_results.append((eid, code, parsed))
    return lab_results


def read_bundle_records(directory) -> BundleRecords:
    """Parse and cross-validate the four bundle CSVs."""
    directory = Path(directory)
    raw = {name: _read_rows(directory / name, header) for name, header in BUNDLE_FILES.items()}

    patients: list[str] = []
    seen_patients: set[str] = set()
    for lineno, (pid,) in raw["patients.csv"]:
        if pid in seen_patients:
            raise IngestionError(f"patients.csv:{lineno}: duplicate patient_id {pid!r}")
        seen_patients.add(pid)
        patients.append(pid)

    encounters = _check_encounter_rows(raw["encounters.csv"], seen_patients)
    encounter_ids = {eid for eid, _ in encounters}
    lab_results = _check_lab_rows(raw["lab_results.csv"], encounter_ids)

    prescriptions: list[tuple[str, str]] = []
    seen_med_pairs: set[tuple[str, str]] = set()
    for lineno, (eid, code) in raw["prescriptions.csv"]:
        if eid not in encounter_ids:
            raise IngestionError(f"prescriptions.csv:{lineno}: unknown encounter_id {eid!r}")
        if (eid, code) in seen_med_pairs:
            raise IngestionError(f"prescriptions.csv:{lineno}: duplicate prescription for {eid!r}, {code!r}")
        seen_med_pairs.add((eid, code))
        prescriptions.append((eid, code))

    return BundleRecords(patients, encounters, lab_results, prescriptions)


def read_new_encounters(
    directory, existing_ids: Iterable[str] = ()
) -> list[tuple[str, str, list[tuple[str, float]]]]:
    """Encounters arriving after training: encounters.csv plus an optional
    lab_results.csv, under the bundle's headers and per-line checks.  An
    encounter ID already in existing_ids (the graph's encounters) counts
    as a duplicate.

    Returns (encounter_id, patient_id, [(lab_code, value), ...]) in
    encounters.csv order, each encounter's labs in lab_results.csv order.
    Patients and lab codes are resolved later, against the graph the rows
    are appended to.
    """
    directory = Path(directory)
    encounters = _check_encounter_rows(
        _read_rows(directory / "encounters.csv", BUNDLE_FILES["encounters.csv"]), existing=existing_ids
    )
    labs: dict[str, list[tuple[str, float]]] = {eid: [] for eid, _ in encounters}
    lab_path = directory / "lab_results.csv"
    if lab_path.is_file():
        for eid, code, value in _check_lab_rows(_read_rows(lab_path, BUNDLE_FILES["lab_results.csv"]), labs):
            labs[eid].append((code, value))
    return [(eid, pid, labs[eid]) for eid, pid in encounters]


def load_csv_bundle(directory) -> MedGraph:
    records = read_bundle_records(directory)
    return build_graph(records.patients, records.encounters, records.lab_results, records.prescriptions)


def write_csv_bundle(graph: MedGraph, directory) -> None:
    """Write the four bundle CSVs in registry / ordinal order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    reg = graph.registry
    enc_ids = reg.ids(NodeType.ENCOUNTER)
    pat_ids = reg.ids(NodeType.PATIENT)
    lab_ids = reg.ids(NodeType.LAB)
    med_ids = reg.ids(NodeType.MEDICATION)

    labs = zip(np.argwhere(graph.m_el).tolist(), graph.raw_el[graph.m_el].tolist())
    tables = {
        "patients.csv": ([pid] for pid in pat_ids),
        "encounters.csv": ([eid, pat_ids[p]] for eid, p in zip(enc_ids, graph.a_ep.tolist())),
        "lab_results.csv": ([enc_ids[i], lab_ids[j], repr(value)] for (i, j), value in labs),
        "prescriptions.csv": ([enc_ids[i], med_ids[j]] for i, j in np.argwhere(graph.a_em == 1.0).tolist()),
    }
    for name, rows in tables.items():
        with open(directory / name, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(BUNDLE_FILES[name])
            w.writerows(rows)


def write_ground_truth(directory, registry: NodeRegistry, true_labs: np.ndarray, med_propensity: np.ndarray) -> None:
    """Dense sidecar matrices keyed by external IDs: one encounter per row,
    one column per lab/medication code."""
    directory = Path(directory)
    enc_ids = registry.ids(NodeType.ENCOUNTER)
    for name, codes, matrix in (
        (GROUND_TRUTH_LABS, registry.ids(NodeType.LAB), true_labs),
        (GROUND_TRUTH_MEDS, registry.ids(NodeType.MEDICATION), med_propensity),
    ):
        with open(directory / name, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["encounter_id", *codes])
            for i, eid in enumerate(enc_ids):
                w.writerow([eid, *(repr(float(x)) for x in matrix[i])])


def denormalize_lab(value: float, lab: int, lab_norm: np.ndarray) -> float:
    """Inverse of normalize_lab; a degenerate range maps back to its single
    training value."""
    lo, hi = lab_norm[lab]
    return float(lo + value * (hi - lo))


def export_predictions(
    p: np.ndarray,
    v: np.ndarray,
    graph: MedGraph,
    directory,
    encounter_ordinals: Optional[np.ndarray] = None,
) -> None:
    """Write recommendations.csv (ranked medications per encounter) and
    imputations.csv (all labs, normalized and original units).

    Without encounter_ordinals the prediction rows cover every encounter
    in ordinal order; with it, row r of p and v belongs to the encounter
    at encounter_ordinals[r].  Numbers carry 12 significant digits.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    reg = graph.registry
    enc_ids = reg.ids(NodeType.ENCOUNTER)
    med_ids = reg.ids(NodeType.MEDICATION)
    lab_ids = reg.ids(NodeType.LAB)
    if encounter_ordinals is None:
        ordinals = list(range(p.shape[0]))
    else:
        ordinals = [int(i) for i in encounter_ordinals]
    if len(ordinals) != p.shape[0] or p.shape[0] != v.shape[0]:
        raise ShapeError(
            f"{len(ordinals)} encounters but {p.shape[0]} probability rows and {v.shape[0]} value rows"
        )

    with open(directory / "recommendations.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["encounter_id", "med_code", "probability", "rank"])
        for r, i in enumerate(ordinals):
            order = np.argsort(-p[r], kind="stable")
            for rank, j in enumerate(order, start=1):
                w.writerow([enc_ids[i], med_ids[j], f"{p[r, j]:.12g}", rank])

    with open(directory / "imputations.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["encounter_id", "lab_code", "value_normalized", "value_original_units"])
        for r, i in enumerate(ordinals):
            for j in range(v.shape[1]):
                original = denormalize_lab(v[r, j], j, graph.lab_norm)
                w.writerow([enc_ids[i], lab_ids[j], f"{v[r, j]:.12g}", f"{original:.12g}"])
