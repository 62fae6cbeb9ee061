"""CSV ingestion and export.

Bundle layout (UTF-8, comma-separated, one header row):
  patients.csv       patient_id
  encounters.csv     encounter_id,patient_id
  lab_results.csv    encounter_id,lab_code,value        (original units)
  prescriptions.csv  encounter_id,med_code

csv.reader tokenizes each file; the checks then run on whole columns
with array operations (a dict lookup of a column for references, a
first-index map or an (encounter, code) mask for repeats, float() and
np.isfinite for values) and report the earliest offending file:line,
naming the first check that line fails (a file that is not UTF-8 or
not CSV, by name).  read_bundle_records returns the registry, ordinals
and values the checks computed, and load_csv_bundle assembles the graph
from them.  Rows for encounters that arrive after training
(read_new_encounters) pass the same checks.
All numeric output uses repr, which round-trips float64 exactly.
"""

from __future__ import annotations

import csv
from itertools import compress, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import IngestionError, ShapeError
from .graph import MedGraph, NodeRegistry, NodeType, _first, _first_repeat, _pair_faults, graph_from_edges
from .graph import build_graph  # noqa: F401  (re-exported: perfbench/tracing.py binds data_io.build_graph)

BUNDLE_FILES = {
    "patients.csv": ["patient_id"],
    "encounters.csv": ["encounter_id", "patient_id"],
    "lab_results.csv": ["encounter_id", "lab_code", "value"],
    "prescriptions.csv": ["encounter_id", "med_code"],
}

GROUND_TRUTH_LABS = "true_labs.csv"
GROUND_TRUTH_MEDS = "med_propensities.csv"

# Rows per csv.reader chunk: below the garbage collector's first-generation
# threshold (700 allocations), so a chunk's row lists are freed before a
# collection can promote them to an older generation and rescan them.
_CHUNK_ROWS = 256


def _read_rows(path: Path, expected_header: list[str]) -> tuple[list[int], list[list[str]]]:
    """The line number of each non-blank row after the header, and the
    file's columns with every field stripped."""
    if not path.is_file():
        raise IngestionError(f"missing required file {path.name}")
    width = len(expected_header)
    linenos: list[int] = []
    columns: list[list[str]] = [[] for _ in range(width)]
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"{path.name}:1: empty file, expected header {','.join(expected_header)}")
            if [h.strip() for h in header] != expected_header:
                raise IngestionError(
                    f"{path.name}:1: bad header {','.join(header)!r}, expected {','.join(expected_header)!r}"
                )
            first = 2
            while rows := list(islice(reader, _CHUNK_ROWS)):
                lengths = list(map(len, rows))
                if set(lengths) - {0, width}:
                    i = next(i for i, n in enumerate(lengths) if n not in (0, width))
                    raise IngestionError(f"{path.name}:{first + i}: expected {width} columns, got {lengths[i]}")
                linenos.extend(compress(range(first, first + len(rows)), lengths))
                rows = list(compress(rows, lengths))
                for k, column in enumerate(columns):
                    column.extend(map(str.strip, map(itemgetter(k), rows)))
                first += len(lengths)
        except UnicodeDecodeError as exc:
            raise IngestionError(f"{path.name}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise IngestionError(f"{path.name}:{reader.line_num}: {exc}") from None
    return linenos, columns


def _raise_earliest(name: str, linenos: list[int], faults) -> None:
    """faults holds, per check in the order a row runs them, the index of
    its first failing row (or None) and a message for that row.  Raises for
    the earliest failing row, naming the first check it fails."""
    found = [(i, k) for k, (i, _) in enumerate(faults) if i is not None]
    if found:
        i, k = min(found)
        raise IngestionError(f"{name}:{linenos[i]}: {faults[k][1](i)}")


def _parse_floats(values: list[str]) -> tuple[list[float], Optional[int]]:
    """float() of each value up to the first that does not parse, and that
    value's index (None if all parse)."""
    parsed: list[float] = []
    try:
        parsed.extend(map(float, values))  # keeps the values parsed before a failure
    except ValueError:
        return parsed, len(parsed)
    return parsed, None


def _check_encounter_rows(
    linenos, columns, patients: Optional[NodeRegistry] = None, existing: Iterable[str] = ()
) -> Optional[np.ndarray]:
    """When a patient registry is given, each encounters.csv row's patient
    ordinal.  Rejects encounter IDs repeated in the file or already in
    existing and patients outside the registry."""
    eids, pids = columns
    existing = list(existing)
    repeat = _first_repeat([*existing, *eids])
    faults = [(None if repeat is None else repeat - len(existing), lambda i: f"duplicate encounter_id {eids[i]!r}")]
    a_ep = None
    if patients is not None:
        a_ep = patients.ordinals(NodeType.PATIENT, pids)
        faults.append((_first(a_ep < 0), lambda i: f"unknown patient_id {pids[i]!r}"))
    _raise_earliest("encounters.csv", linenos, faults)
    return a_ep


def _check_lab_rows(linenos, columns, known: NodeRegistry) -> tuple[np.ndarray, list[str], np.ndarray]:
    """The (encounter, lab) ordinal pairs of lab_results.csv rows in file
    order, the lab codes in first-appearance order and the values as
    float64.  Rejects encounters the registry lacks, a repeated (encounter,
    lab) pair, and values that are not finite numbers."""
    eids, codes, values = columns
    unknown, repeat, distinct, pairs = _pair_faults(known, eids, codes)
    parsed, non_numeric = _parse_floats(values)
    floats = np.array(parsed, dtype=np.float64)
    _raise_earliest("lab_results.csv", linenos, [
        (unknown, lambda i: f"unknown encounter_id {eids[i]!r}"),
        (repeat, lambda i: f"duplicate observation for {eids[i]!r}, {codes[i]!r}"),
        (non_numeric, lambda i: f"non-numeric value {values[i]!r}"),
        (_first(~np.isfinite(floats)), lambda i: f"non-finite value {values[i]!r}"),
    ])
    return pairs, distinct, floats


def read_bundle_records(directory) -> tuple[NodeRegistry, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse and cross-validate the four bundle CSVs.  Returns what the
    checks computed, as graph_from_edges takes it: the registry, each
    encounter's patient ordinal, the (encounter, lab) pairs, their values
    and the (encounter, medication) pairs."""
    directory = Path(directory)
    raw = {name: _read_rows(directory / name, header) for name, header in BUNDLE_FILES.items()}

    linenos, (patients,) = raw["patients.csv"]
    repeat = _first_repeat(patients)
    _raise_earliest("patients.csv", linenos, [(repeat, lambda i: f"duplicate patient_id {patients[i]!r}")])
    known = NodeRegistry({NodeType.PATIENT: patients})
    a_ep = _check_encounter_rows(*raw["encounters.csv"], known)
    known.extend(NodeType.ENCOUNTER, raw["encounters.csv"][1][0])
    labs, lab_codes, values = _check_lab_rows(*raw["lab_results.csv"], known)

    linenos, (eids, codes) = raw["prescriptions.csv"]
    unknown, repeat, med_codes, meds = _pair_faults(known, eids, codes)
    _raise_earliest("prescriptions.csv", linenos, [
        (unknown, lambda i: f"unknown encounter_id {eids[i]!r}"),
        (repeat, lambda i: f"duplicate prescription for {eids[i]!r}, {codes[i]!r}"),
    ])
    known.extend(NodeType.LAB, lab_codes)
    known.extend(NodeType.MEDICATION, med_codes)
    return known, a_ep, labs, values, meds


def read_new_encounters(
    directory, existing_ids: Iterable[str] = ()
) -> list[tuple[str, str, list[tuple[str, float]]]]:
    """Encounters arriving after training: encounters.csv plus an optional
    lab_results.csv, under the bundle's headers and checks.  An encounter
    ID already in existing_ids (the graph's encounters) counts as a
    duplicate.

    Returns (encounter_id, patient_id, [(lab_code, value), ...]) in
    encounters.csv order, each encounter's labs in lab_results.csv order.
    Patients and lab codes are resolved later, against the graph the rows
    are appended to.
    """
    directory = Path(directory)
    linenos, (eids, pids) = _read_rows(directory / "encounters.csv", BUNDLE_FILES["encounters.csv"])
    _check_encounter_rows(linenos, (eids, pids), existing=existing_ids)
    labs: dict[str, list[tuple[str, float]]] = {eid: [] for eid in eids}
    lab_path = directory / "lab_results.csv"
    if lab_path.is_file():
        linenos, columns = _read_rows(lab_path, BUNDLE_FILES["lab_results.csv"])
        values = _check_lab_rows(linenos, columns, NodeRegistry({NodeType.ENCOUNTER: eids}))[2]
        for eid, code, value in zip(columns[0], columns[1], values.tolist()):
            labs[eid].append((code, value))
    return [(eid, pid, labs[eid]) for eid, pid in zip(eids, pids)]


def load_csv_bundle(directory) -> MedGraph:
    return graph_from_edges(*read_bundle_records(directory))


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
