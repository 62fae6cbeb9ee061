"""Independent straight-line reference implementations.

Everything here is deliberately written against plain numpy arrays with
no package internals, so test agreement means two separate derivations
landed on the same numbers.
"""

import csv
import os

import numpy as np


def layer_oracle(a_ep, a_el, a_em, w_e, w_p, w_l, w_m, relu=True):
    """One heterogeneous propagation step with one-hot features,
    spelled out type by type."""
    n_e, n_p = a_ep.shape
    n_l, n_m = a_el.shape[1], a_em.shape[1]
    h_e, h_p = np.eye(n_e), np.eye(n_p)
    h_l, h_m = np.eye(n_l), np.eye(n_m)
    z_e = h_e @ w_e + a_ep @ (h_p @ w_p) + a_el @ (h_l @ w_l) + a_em @ (h_m @ w_m)
    z_p = h_p @ w_p + a_ep.T @ (h_e @ w_e)
    z_l = h_l @ w_l + a_el.T @ (h_e @ w_e)
    z_m = h_m @ w_m + a_em.T @ (h_e @ w_e)
    act = (lambda z: np.maximum(z, 0.0)) if relu else (lambda z: z)
    return {
        "encounter": act(z_e),
        "patient": act(z_p),
        "lab": act(z_l),
        "medication": act(z_m),
    }


def scatter_add_oracle(index, values, n):
    """out[k] = sum of values[i] over i with index[i] == k, by np.add.at in
    values' dtype."""
    out = np.zeros((n, values.shape[1]), values.dtype)
    np.add.at(out, index, values)
    return out


def append_encounter_oracle(a_ep, m_el, a_em, raw_el, patient, labs):
    """The four per-encounter arrays with one encounter appended by
    concatenation: patient ordinal patient, lab column j observed at value
    x for each (j, x) in labs, no medications."""
    mask = np.zeros((1, m_el.shape[1]), dtype=bool)
    raw = np.zeros((1, raw_el.shape[1]))
    for j, x in labs:
        mask[0, j] = True
        raw[0, j] = x
    return (
        np.append(a_ep, np.int64(patient)),
        np.vstack([m_el, mask]),
        np.vstack([a_em, np.zeros((1, a_em.shape[1]))]),
        np.vstack([raw_el, raw]),
    )


def rank_desc(scores):
    """1-based descending-score ranks with average ranks on ties."""
    scores = np.asarray(scores, dtype=float)
    n = len(scores)
    ranks = np.empty(n)
    for i in range(n):
        higher = np.sum(scores > scores[i])
        equal = np.sum(scores == scores[i])
        # positions occupied by the tie group: higher+1 .. higher+equal
        ranks[i] = higher + (equal + 1) / 2.0
    return ranks


def lrap_oracle(scores, relevance):
    """Label ranking average precision, one row at a time, skipping rows
    with no relevant labels.  Per-label terms are summed in ascending
    label order."""
    scores = np.asarray(scores, dtype=float)
    relevance = np.asarray(relevance)
    total = 0.0
    n_rows = 0
    for i in range(scores.shape[0]):
        rel = np.flatnonzero(relevance[i] == 1)
        if rel.size == 0:
            continue
        ranks = rank_desc(scores[i])
        row = 0.0
        for j in rel:
            n_at_or_above = np.sum(ranks[rel] <= ranks[j])
            row += n_at_or_above / ranks[j]
        total += row / rel.size
        n_rows += 1
    if n_rows == 0:
        raise ValueError("no scorable rows")
    return total / n_rows


def map_at_k_oracle(scores, relevance, k, normalizer="min"):
    """Mean AP@k with ordinal tie-break (stable sort on negated scores)."""
    scores = np.asarray(scores, dtype=float)
    relevance = np.asarray(relevance)
    total = 0.0
    n_rows = 0
    for i in range(scores.shape[0]):
        rel = relevance[i]
        n_rel = int(np.sum(rel == 1))
        if n_rel == 0:
            continue
        order = np.argsort(-scores[i], kind="stable")
        hits = 0
        ap = 0.0
        for r, j in enumerate(order[:k], start=1):
            if rel[j] == 1:
                hits += 1
                ap += hits / r
        denom = min(k, n_rel) if normalizer == "min" else k
        total += ap / denom
        n_rows += 1
    if n_rows == 0:
        raise ValueError("no scorable rows")
    return total / n_rows


BUNDLE_HEADERS = {
    "patients.csv": ["patient_id"],
    "encounters.csv": ["encounter_id", "patient_id"],
    "lab_results.csv": ["encounter_id", "lab_code", "value"],
    "prescriptions.csv": ["encounter_id", "med_code"],
}


def _oracle_rows(directory, name):
    """(line number, stripped fields) of each non-blank row after the
    header, checked one line at a time."""
    header = BUNDLE_HEADERS[name]
    path = os.path.join(directory, name)
    if not os.path.isfile(path):
        raise ValueError(f"missing required file {name}")
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            got = next(reader)
        except StopIteration:
            raise ValueError(f"{name}:1: empty file, expected header {','.join(header)}") from None
        if [h.strip() for h in got] != header:
            raise ValueError(f"{name}:1: bad header {','.join(got)!r}, expected {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{name}:{lineno}: expected {len(header)} columns, got {len(row)}")
            rows.append((lineno, [c.strip() for c in row]))
    return rows


def read_bundle_oracle(directory):
    """Per-line reference for CSV bundle ingestion and graph assembly.

    Every file is read before any row is cross-checked; then each file's
    rows are checked in file order, and the first failing check raises
    ValueError("file:line: message").  Returns the four ID lists in
    registry order (labs and medications by first appearance) and the
    a_ep, raw_el, m_el and a_em arrays.
    """
    raw = {name: _oracle_rows(directory, name) for name in BUNDLE_HEADERS}

    patients = {}
    for lineno, (pid,) in raw["patients.csv"]:
        if pid in patients:
            raise ValueError(f"patients.csv:{lineno}: duplicate patient_id {pid!r}")
        patients[pid] = len(patients)

    encounters = {}
    a_ep = []
    for lineno, (eid, pid) in raw["encounters.csv"]:
        if eid in encounters:
            raise ValueError(f"encounters.csv:{lineno}: duplicate encounter_id {eid!r}")
        if pid not in patients:
            raise ValueError(f"encounters.csv:{lineno}: unknown patient_id {pid!r}")
        encounters[eid] = len(encounters)
        a_ep.append(patients[pid])

    labs = {}
    observations = {}
    for lineno, (eid, code, value) in raw["lab_results.csv"]:
        if eid not in encounters:
            raise ValueError(f"lab_results.csv:{lineno}: unknown encounter_id {eid!r}")
        if (eid, code) in observations:
            raise ValueError(f"lab_results.csv:{lineno}: duplicate observation for {eid!r}, {code!r}")
        try:
            parsed = float(value)
        except ValueError:
            raise ValueError(f"lab_results.csv:{lineno}: non-numeric value {value!r}") from None
        if parsed != parsed or parsed in (float("inf"), float("-inf")):
            raise ValueError(f"lab_results.csv:{lineno}: non-finite value {value!r}")
        labs.setdefault(code, len(labs))
        observations[(eid, code)] = parsed

    meds = {}
    prescribed = set()
    for lineno, (eid, code) in raw["prescriptions.csv"]:
        if eid not in encounters:
            raise ValueError(f"prescriptions.csv:{lineno}: unknown encounter_id {eid!r}")
        if (eid, code) in prescribed:
            raise ValueError(f"prescriptions.csv:{lineno}: duplicate prescription for {eid!r}, {code!r}")
        meds.setdefault(code, len(meds))
        prescribed.add((eid, code))

    raw_el = np.zeros((len(encounters), len(labs)))
    m_el = np.zeros(raw_el.shape, dtype=bool)
    for (eid, code), value in observations.items():
        raw_el[encounters[eid], labs[code]] = value
        m_el[encounters[eid], labs[code]] = True
    a_em = np.zeros((len(encounters), len(meds)))
    for eid, code in prescribed:
        a_em[encounters[eid], meds[code]] = 1.0
    ids = {
        "patient": list(patients),
        "encounter": list(encounters),
        "lab": list(labs),
        "medication": list(meds),
    }
    return ids, np.array(a_ep, dtype=np.int64), raw_el, m_el, a_em
