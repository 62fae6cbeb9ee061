"""Typed medical entity graph: registries, adjacency matrices, splits.

Four node types (encounters, patients, labs, medications) and three
inter-type relations indexed by ordinals:

  a_ep  (N_E,)       int64 patient ordinal of each encounter; every
                     encounter has exactly one patient, so this index is
                     the one-hot N_E x N_P membership matrix without its
                     zeros, and that matrix is never built
  m_el  (N_E x N_L)  boolean observation mask; True marks a real
                     measurement, so an observed zero stays
                     distinguishable from missing
  raw_el (N_E x N_L) observed lab values in original units, zero where
                     unobserved
  a_em  (N_E x N_M)  prescribed-medication indicators

Labs are stored once, as raw values plus the mask.  The normalized lab
matrix a_el (values in [0, 1] under the per-lab ranges in lab_norm) is
derived where it is read, so refitting the ranges after a split, which
keeps held-out values out of the statistics, only replaces lab_norm.

Within-type adjacency is an implicit identity: it is never stored and the
model realizes it as a self-term.

After add_encounter, a_ep, m_el, a_em and raw_el may be leading-row views
of larger buffers the graph owns, so an append copies no earlier rows.

Graph files (save_graph / load_graph) start with the magic line MEDGRAPH3
and a one-line JSON header, followed by a_ep as little-endian int64, m_el
as one 0/1 byte per cell, and a_em and raw_el as little-endian float64.
Files in the older MEDGRAPH1 (dense a_ep) and MEDGRAPH2 (stored a_el,
float64 mask) formats are rejected.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import GraphLookupError, IntegrityError, ParameterError, SplitError

MAGIC = b"MEDGRAPH3"
_OLD_MAGICS = (b"MEDGRAPH1", b"MEDGRAPH2")

# Boundary arithmetic n * cumulative_ratio can land a hair under an integer
# in floating point; nudge before flooring.
_RATIO_EPS = 1e-9


class NodeType(str, Enum):
    ENCOUNTER = "encounter"
    PATIENT = "patient"
    LAB = "lab"
    MEDICATION = "medication"


NODE_TYPES = (NodeType.ENCOUNTER, NodeType.PATIENT, NodeType.LAB, NodeType.MEDICATION)


class NodeRegistry:
    """Ordered string-ID to dense-ordinal maps, one per node type."""

    def __init__(self, ids: Optional[Mapping[NodeType, Sequence[str]]] = None):
        """Registries holding ids[t] in order for each type t given, empty
        otherwise.  Types fill in NODE_TYPES order; the first repeated ID
        raises as add would."""
        self._ids: dict[NodeType, list[str]] = {t: [] for t in NODE_TYPES}
        self._index: dict[NodeType, dict[str, int]] = {t: {} for t in NODE_TYPES}
        for t in NODE_TYPES:
            if ids and t in ids:
                self.extend(t, ids[t])

    def extend(self, node_type: NodeType, external_ids: Sequence[str]) -> None:
        """Append external_ids in order; a repeat of a registered or an
        earlier ID raises as add would."""
        known = self._ids[node_type]
        repeat = _first_repeat([*known, *external_ids])
        if repeat is not None:
            raise IntegrityError(f"duplicate {node_type.value} id {external_ids[repeat - len(known)]!r}")
        self._index[node_type].update(zip(external_ids, range(len(known), len(known) + len(external_ids))))
        known.extend(external_ids)

    def add(self, node_type: NodeType, external_id: str) -> int:
        index = self._index[node_type]
        if external_id in index:
            raise IntegrityError(f"duplicate {node_type.value} id {external_id!r}")
        ordinal = len(self._ids[node_type])
        self._ids[node_type].append(external_id)
        index[external_id] = ordinal
        return ordinal

    def ordinal(self, node_type: NodeType, external_id: str) -> int:
        try:
            return self._index[node_type][external_id]
        except KeyError:
            raise GraphLookupError(f"unknown {node_type.value} id {external_id!r}") from None

    def ordinals(self, node_type: NodeType, external_ids: Sequence[str]) -> np.ndarray:
        """int64 ordinal of each ID, -1 where it is not registered."""
        found = map(self._index[node_type].get, external_ids, itertools.repeat(-1))
        return np.fromiter(found, dtype=np.int64, count=len(external_ids))

    def contains(self, node_type: NodeType, external_id: str) -> bool:
        return external_id in self._index[node_type]

    def id_at(self, node_type: NodeType, ordinal: int) -> str:
        ids = self._ids[node_type]
        if not 0 <= ordinal < len(ids):
            raise GraphLookupError(f"{node_type.value} ordinal {ordinal} out of range 0..{len(ids) - 1}")
        return ids[ordinal]

    def count(self, node_type: NodeType) -> int:
        return len(self._ids[node_type])

    def ids(self, node_type: NodeType) -> tuple[str, ...]:
        return tuple(self._ids[node_type])

    def copy(self) -> "NodeRegistry":
        out = NodeRegistry()
        out._ids = {t: list(ids) for t, ids in self._ids.items()}
        out._index = {t: dict(index) for t, index in self._index.items()}
        return out


def _first_repeat(ids: Sequence[str]) -> Optional[int]:
    """Index of the first ID equal to an earlier one, or None."""
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    if len(first) == len(ids):
        return None
    return next(i for i, key in enumerate(ids) if first[key] != i)


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first True in mask, or None."""
    return int(np.argmax(mask)) if mask.any() else None


def _pair_faults(
    registry: NodeRegistry, eids: Sequence[str], codes: Sequence[str]
) -> tuple[Optional[int], Optional[int], list[str], np.ndarray]:
    """For (encounter, code) pairs: the index of the first with an unknown
    encounter, the index of the first repeat before it, the distinct codes
    in first-appearance order, and the int64 ordinals of the pairs before
    the first unknown, one (encounter, code) row each."""
    rows = registry.ordinals(NodeType.ENCOUNTER, eids)
    unknown = _first(rows < 0)
    distinct = list(dict.fromkeys(codes))
    cols = np.fromiter(map(dict(zip(distinct, range(len(distinct)))).__getitem__, codes), np.int64, len(codes))
    edges = np.column_stack([rows, cols])[:unknown]
    seen = np.zeros((registry.count(NodeType.ENCOUNTER), len(distinct)), dtype=bool)
    seen[edges[:, 0], edges[:, 1]] = True
    repeat = None
    if np.count_nonzero(seen) < len(edges):
        _, first = np.unique(edges[:, 0] * len(distinct) + edges[:, 1], return_index=True)
        repeat = _first(~np.isin(np.arange(len(edges)), first))
    return unknown, repeat, distinct, edges


def _sha256_lines(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class MedGraph:
    """The assembled graph.  Immutable after build except add_encounter,
    which may leave a_ep, m_el, a_em and raw_el as leading-row views of
    buffers the graph owns."""

    registry: NodeRegistry
    a_ep: np.ndarray
    m_el: np.ndarray  # bool
    a_em: np.ndarray
    raw_el: np.ndarray
    lab_norm: np.ndarray  # (N_L, 2) columns: training min, max in original units
    # add_encounter's [row buffers, the views of them it last bound]; a
    # class attribute, not a field, so copy() and load_graph start without.
    _rows = None

    @property
    def a_el(self) -> np.ndarray:
        """The normalized lab matrix, derived from raw_el, m_el and lab_norm."""
        return self.lab_rows(slice(None))

    def lab_rows(self, rows) -> np.ndarray:
        """The normalized lab values of the encounter rows selected by rows."""
        return _normalize_matrix(self.raw_el[rows], self.m_el[rows], self.lab_norm)

    @property
    def n_encounters(self) -> int:
        return self.registry.count(NodeType.ENCOUNTER)

    @property
    def n_patients(self) -> int:
        return self.registry.count(NodeType.PATIENT)

    @property
    def n_labs(self) -> int:
        return self.registry.count(NodeType.LAB)

    @property
    def n_medications(self) -> int:
        return self.registry.count(NodeType.MEDICATION)

    def validate(self) -> None:
        n_e, n_p = self.n_encounters, self.n_patients
        n_l, n_m = self.n_labs, self.n_medications
        shapes = {
            "a_ep": (self.a_ep, (n_e,)),
            "m_el": (self.m_el, (n_e, n_l)),
            "a_em": (self.a_em, (n_e, n_m)),
            "raw_el": (self.raw_el, (n_e, n_l)),
        }
        for name, (mat, want) in shapes.items():
            if mat.shape != want:
                raise IntegrityError(f"{name} shape {mat.shape} != registry counts {want}")
        if self.lab_norm.shape != (n_l, 2):
            raise IntegrityError(f"lab_norm shape {self.lab_norm.shape} != ({n_l}, 2)")
        if not (np.isfinite(self.lab_norm).all() and (self.lab_norm[:, 0] <= self.lab_norm[:, 1]).all()):
            raise IntegrityError("lab_norm must hold a finite (min, max) pair with min <= max per lab")
        if self.a_ep.dtype != np.int64:
            raise IntegrityError(f"a_ep must hold int64 patient ordinals, got dtype {self.a_ep.dtype}")
        if n_e and (self.a_ep.min() < 0 or self.a_ep.max() >= n_p):
            raise IntegrityError(f"a_ep must hold one patient ordinal in 0..{n_p - 1} per encounter")
        if self.m_el.dtype != np.bool_:
            raise IntegrityError(f"m_el must be a bool mask, got dtype {self.m_el.dtype}")
        if not np.isin(self.a_em, (0.0, 1.0)).all():
            raise IntegrityError("a_em must be binary")
        if np.any((self.raw_el != 0.0) > self.m_el):
            raise IntegrityError("raw_el must be zero wherever m_el is False")
        if not np.isfinite(self.raw_el).all():
            raise IntegrityError("raw_el must hold finite lab values")

    def fingerprint(self) -> str:
        """Hash of all registry ID lists; binds plans and views to a graph."""
        h = hashlib.sha256()
        for t in NODE_TYPES:
            h.update(_sha256_lines(self.registry.ids(t)).encode("ascii"))
        return h.hexdigest()

    def type_shas(self) -> dict[str, str]:
        """Per-type ID-list hashes, used by model checkpoints to validate a
        graph while tolerating encounters appended after training."""
        return {t.value: _sha256_lines(self.registry.ids(t)) for t in NODE_TYPES}

    def encounter_prefix_sha(self, n: int) -> str:
        if not 0 <= n <= self.n_encounters:
            raise GraphLookupError(f"encounter prefix {n} out of range 0..{self.n_encounters}")
        return _sha256_lines(self.registry.ids(NodeType.ENCOUNTER)[:n])

    def copy(self) -> "MedGraph":
        return MedGraph(
            registry=self.registry.copy(),
            a_ep=self.a_ep.copy(),
            m_el=self.m_el.copy(),
            a_em=self.a_em.copy(),
            raw_el=self.raw_el.copy(),
            lab_norm=self.lab_norm.copy(),
        )


def normalize_lab(value: float, lab: int, lab_norm: np.ndarray) -> float:
    """Map a raw lab value into [0, 1] using that lab's training range.

    Out-of-range values clamp; a degenerate range (min == max, including
    labs never observed in training) maps everything to 0.5.
    """
    if not 0 <= lab < lab_norm.shape[0]:
        raise GraphLookupError(f"lab ordinal {lab} out of range 0..{lab_norm.shape[0] - 1}")
    lo, hi = lab_norm[lab]
    if hi == lo:
        return 0.5
    return float(np.clip((value - lo) / (hi - lo), 0.0, 1.0))


def _fit_ranges(raw_el: np.ndarray, visible: np.ndarray) -> np.ndarray:
    """Per-lab (min, max) over the entries visible marks; unobserved labs
    get the degenerate (0, 0) range."""
    lo = np.min(np.where(visible, raw_el, np.inf), axis=0, initial=np.inf)
    hi = np.max(np.where(visible, raw_el, -np.inf), axis=0, initial=-np.inf)
    observed = np.any(visible, axis=0)
    return np.column_stack([np.where(observed, lo, 0.0), np.where(observed, hi, 0.0)])


def _normalize_matrix(raw_el: np.ndarray, m_el: np.ndarray, lab_norm: np.ndarray) -> np.ndarray:
    """normalize_lab applied to every observed entry at once; the same
    float64 operations per entry, so the results are bit-identical."""
    lo, hi = lab_norm[:, 0], lab_norm[:, 1]
    degenerate = hi == lo
    scaled = np.clip((raw_el - lo) / np.where(degenerate, 1.0, hi - lo), 0.0, 1.0)
    return np.where(m_el, np.where(degenerate, 0.5, scaled), 0.0)


def _edge_ordinals(
    registry: NodeRegistry, eids: list[str], codes: list[str], target: NodeType, what: str
) -> np.ndarray:
    """(n, 2) int64 (encounter, target) ordinals of the pairs, registering
    target codes in first-appearance order.  Rejects unknown encounters
    and repeated pairs, the earliest pair's fault first."""
    unknown, repeat, distinct, edges = _pair_faults(registry, eids, codes)
    if repeat is not None:
        raise IntegrityError(f"duplicate {what} for encounter {eids[repeat]!r}, {target.value} {codes[repeat]!r}")
    if unknown is not None:
        raise IntegrityError(f"{what} references unknown encounter {eids[unknown]!r}")
    registry.extend(target, distinct)
    return edges


def _columns(records: Sequence[Sequence], width: int) -> list[list]:
    return [list(map(itemgetter(k), records)) for k in range(width)]


def build_graph(
    patients: Sequence[str],
    encounters: Sequence[tuple[str, str]],
    lab_results: Sequence[tuple[str, str, float]],
    prescriptions: Sequence[tuple[str, str]],
) -> MedGraph:
    """Assemble a MedGraph from ingestion records.

    Registries fill in first-appearance order: patients and encounters from
    their own record streams, labs and medications as their codes first
    occur.  Of several faulty records the earliest is reported.  Initial
    normalization ranges cover every observation; callers that split
    afterwards should refit_lab_normalization to keep held-out values out
    of the ranges.
    """
    eids, pids = _columns(encounters, 2)
    registry = NodeRegistry({NodeType.PATIENT: patients})
    a_ep = registry.ordinals(NodeType.PATIENT, pids)
    unknown = _first(a_ep < 0)
    # Encounters register only up to the first unknown patient, so a
    # repeated encounter ID before it is the error raised.
    registry.extend(NodeType.ENCOUNTER, eids[:unknown])
    if unknown is not None:
        raise IntegrityError(f"encounter {eids[unknown]!r} references unknown patient {pids[unknown]!r}")

    lab_eids, lab_codes, values = _columns(lab_results, 3)
    labs = _edge_ordinals(registry, lab_eids, lab_codes, NodeType.LAB, "lab observation")
    meds = _edge_ordinals(registry, *_columns(prescriptions, 2), NodeType.MEDICATION, "prescription")
    return graph_from_edges(registry, a_ep, labs, np.fromiter(map(float, values), np.float64, len(values)), meds)


def graph_from_edges(
    registry: NodeRegistry, a_ep: np.ndarray, labs: np.ndarray, values: np.ndarray, meds: np.ndarray
) -> MedGraph:
    """A MedGraph from checked ordinals: each encounter's patient (a_ep) and
    the distinct (encounter, lab) and (encounter, medication) pairs as
    (n, 2) int64 arrays, with a float64 value per lab pair."""
    n_e = registry.count(NodeType.ENCOUNTER)
    raw_el = np.zeros((n_e, registry.count(NodeType.LAB)))
    m_el = np.zeros(raw_el.shape, dtype=bool)
    a_em = np.zeros((n_e, registry.count(NodeType.MEDICATION)))
    raw_el[labs[:, 0], labs[:, 1]] = values
    m_el[labs[:, 0], labs[:, 1]] = True
    a_em[meds[:, 0], meds[:, 1]] = 1.0
    graph = MedGraph(registry, a_ep, m_el, a_em, raw_el, _fit_ranges(raw_el, m_el))
    graph.validate()
    return graph


def assemble_graph(
    registry: NodeRegistry,
    a_ep: np.ndarray,
    raw_el: np.ndarray,
    m_el: np.ndarray,
    a_em: np.ndarray,
) -> MedGraph:
    """Build a MedGraph from each encounter's patient ordinal (a_ep) and
    prebuilt lab and medication matrices (m_el holds 0/1 or bool): fit lab
    ranges over every observed entry and validate."""
    if not np.isin(m_el, (0, 1)).all():
        raise IntegrityError("m_el must be binary")
    m_el = np.asarray(m_el, dtype=bool)
    raw_el = np.where(m_el, raw_el, 0.0)
    graph = MedGraph(registry, np.asarray(a_ep, dtype=np.int64), m_el, np.asarray(a_em, dtype=np.float64), raw_el, _fit_ranges(raw_el, m_el))
    graph.validate()
    return graph


MEDICATION_TASK = "medication"
IMPUTATION_TASK = "imputation"


@dataclass
class SplitPlan:
    """Deterministic partition of prediction targets for one task.

    Medication task: disjoint sets of encounter ordinals.
    Imputation task: disjoint sets of observed (encounter, lab) edges,
    stored as (n, 2) integer arrays.
    """

    task: str
    seed: int
    ratios: tuple[float, float, float]
    graph_sha: str
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def sizes(self) -> tuple[int, int, int]:
        return len(self.train), len(self.val), len(self.test)


def make_split(
    graph: MedGraph,
    task: str,
    ratios: tuple[float, float, float],
    seed: int,
) -> SplitPlan:
    """Shuffle targets under the seed and cut at cumulative ratio boundaries.

    Boundaries are floor(n * cumulative ratio), so 1260 encounters at
    (0.72, 0.08, 0.20) give 907 / 101 / 252.
    """
    if task not in (MEDICATION_TASK, IMPUTATION_TASK):
        raise ParameterError(f"unknown split task {task!r}")
    r = tuple(float(x) for x in ratios)
    if len(r) != 3 or any(x <= 0.0 for x in r):
        raise ParameterError(f"ratios must be three positive fractions, got {ratios}")
    if abs(sum(r) - 1.0) > 1e-9:
        raise ParameterError(f"ratios must sum to 1, got sum {sum(r)}")

    if task == MEDICATION_TASK:
        items, unit = np.arange(graph.n_encounters), "encounters"
    else:
        items, unit = np.argwhere(graph.m_el), "lab observations"
    n = len(items)
    if n < 3:
        raise SplitError(f"{task} split needs at least 3 {unit}, got {n}")

    perm = np.random.default_rng(seed).permutation(n)
    c1 = int(n * r[0] + _RATIO_EPS)
    c2 = int(n * (r[0] + r[1]) + _RATIO_EPS)
    parts = [np.sort(perm[:c1]), np.sort(perm[c1:c2]), np.sort(perm[c2:])]
    train, val, test = (items[p] for p in parts)
    return SplitPlan(task, seed, r, graph.fingerprint(), train, val, test)


def _require_plan_match(graph: MedGraph, plan: SplitPlan) -> None:
    if plan.graph_sha != graph.fingerprint():
        raise IntegrityError("split plan was built from a different graph")


def apply_split_masking(graph: MedGraph, plan: SplitPlan) -> MedGraph:
    """Return a training view with held-out targets removed.

    Medication plans zero the a_em rows of val/test encounters; imputation
    plans clear raw_el and m_el at val/test edges.  The input graph
    is left untouched; evaluation reads targets from it.
    """
    _require_plan_match(graph, plan)
    view = graph.copy()
    if plan.task == MEDICATION_TASK:
        for part in (plan.val, plan.test):
            view.a_em[part, :] = 0.0
    else:
        for part in (plan.val, plan.test):
            if len(part):
                view.raw_el[part[:, 0], part[:, 1]] = 0.0
                view.m_el[part[:, 0], part[:, 1]] = False
    view.validate()
    return view


def refit_lab_normalization(graph: MedGraph, plan: Optional[SplitPlan] = None) -> MedGraph:
    """A copy whose lab ranges are refit from training-visible observations.

    With an imputation plan, only its train edges contribute to the ranges;
    without one (or for a medication plan) every observed edge does.
    Held-out entries stay observed and normalize under the refit ranges,
    which is what evaluation compares against.
    """
    out = graph.copy()
    if plan is not None:
        _require_plan_match(graph, plan)
    if plan is not None and plan.task == IMPUTATION_TASK:
        visible = np.zeros_like(graph.m_el)
        if len(plan.train):
            visible[plan.train[:, 0], plan.train[:, 1]] = True
    else:
        visible = graph.m_el
    out.lab_norm = _fit_ranges(graph.raw_el, visible)
    out.validate()
    return out


@dataclass
class MatrixStats:
    name: str
    rows: int
    cols: int
    edges: int
    sparsity: float


@dataclass
class GraphStats:
    counts: dict[str, int]
    matrices: list[MatrixStats] = field(default_factory=list)

    def matrix(self, name: str) -> MatrixStats:
        for m in self.matrices:
            if m.name == name:
                return m
        raise GraphLookupError(f"no stats for matrix {name!r}")


def sparsity(rows: int, cols: int, edges: int) -> float:
    cells = rows * cols
    return 1.0 if cells == 0 else 1.0 - edges / cells


def graph_stats(graph: MedGraph) -> GraphStats:
    """Dimensions, edge counts, and sparsity per stored relation.

    Lab edges are counted from the mask (an observed zero is still an
    edge), matching how the lab matrix is populated.  a_ep has one edge
    per encounter.
    """
    n_e = graph.n_encounters
    stats = GraphStats(
        counts={t.value: graph.registry.count(t) for t in NODE_TYPES},
    )
    for name, cols, edges in (
        ("a_ep", graph.n_patients, n_e),
        ("a_el", graph.n_labs, int(np.count_nonzero(graph.m_el))),
        ("a_em", graph.n_medications, int(np.count_nonzero(graph.a_em))),
    ):
        stats.matrices.append(MatrixStats(name, n_e, cols, edges, sparsity(n_e, cols, edges)))
    return stats


def add_encounter(
    graph: MedGraph,
    patient_id: str,
    labs: Sequence[tuple[str, float]],
    encounter_id: Optional[str] = None,
) -> int:
    """Append one encounter in place and return its ordinal.

    Lab values are stored raw and read normalized under the graph's
    frozen ranges (clamped); the medication row starts all zero.  Patient
    and labs must already exist and values must be finite.  Each append
    fills a spare row of buffers grown by a quarter when full: amortized O(1).
    """
    p = graph.registry.ordinal(NodeType.PATIENT, patient_id)
    resolved: list[tuple[int, float]] = []
    seen: set[int] = set()
    for lab_id, value in labs:
        j = graph.registry.ordinal(NodeType.LAB, lab_id)
        if j in seen:
            raise IntegrityError(f"duplicate lab observation for new encounter, lab {lab_id!r}")
        value = float(value)
        if not math.isfinite(value):
            raise IntegrityError(f"non-finite value {value!r} for lab {lab_id!r}")
        seen.add(j)
        resolved.append((j, value))

    if encounter_id is None:
        k = graph.n_encounters
        while graph.registry.contains(NodeType.ENCOUNTER, f"new-encounter-{k}"):
            k += 1
        encounter_id = f"new-encounter-{k}"
    ordinal = graph.registry.add(NodeType.ENCOUNTER, encounter_id)

    names = ("a_ep", "m_el", "a_em", "raw_el")
    fields = [getattr(graph, name) for name in names]
    n = len(fields[0])
    rows = graph._rows
    # Write in place only while the fields are the views last bound to
    # these buffers: a field set from outside, or a shallow copy whose
    # sibling has appended since, gets fresh buffers.
    if rows is None or n == len(rows[0][0]) or any(f is not v for f, v in zip(fields, rows[1])):
        rows = graph._rows = [[np.empty((n + 1 + n // 4, *f.shape[1:]), f.dtype) for f in fields], None]
        for buf, f in zip(rows[0], fields):
            buf[:n] = f
    a_ep, m_el, a_em, raw_el = rows[0]
    a_ep[n], m_el[n], a_em[n], raw_el[n] = p, False, 0.0, 0.0
    cols = [j for j, _ in resolved]
    m_el[n, cols] = True
    raw_el[n, cols] = [value for _, value in resolved]
    rows[1] = [buf[: n + 1] for buf in rows[0]]
    for name, view in zip(names, rows[1]):
        setattr(graph, name, view)
    return ordinal


# Stored arrays in file order with their on-disk dtypes; the bool mask is
# stored as one 0/1 byte per cell.
_ARRAY_DTYPES = {"a_ep": "<i8", "m_el": "|u1", "a_em": "<f8", "raw_el": "<f8"}


def save_graph(graph: MedGraph, path) -> None:
    """Single-file format: magic line, one-line JSON header, then the
    arrays row-major in _ARRAY_DTYPES order: a_ep as little-endian int64,
    m_el as 0/1 bytes, a_em and raw_el as little-endian float64."""
    graph.validate()
    header = {
        "counts": {t.value: graph.registry.count(t) for t in NODE_TYPES},
        "ids": {t.value: list(graph.registry.ids(t)) for t in NODE_TYPES},
        "lab_norm": graph.lab_norm.tolist(),
        "arrays": [
            {"name": name, "shape": list(getattr(graph, name).shape), "dtype": dtype}
            for name, dtype in _ARRAY_DTYPES.items()
        ],
    }
    with open(path, "wb") as f:
        f.write(MAGIC + b"\n")
        f.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        for name, dtype in _ARRAY_DTYPES.items():
            f.write(np.ascontiguousarray(getattr(graph, name), dtype=dtype).tobytes())


def _read_header(header) -> tuple[NodeRegistry, np.ndarray, list[dict]]:
    """The registry, lab ranges and array entries of a graph file header,
    each checked for presence and type."""
    def need(ok: bool, what: str) -> None:
        if not ok:
            raise IntegrityError(f"corrupt graph header: {what}")

    need(isinstance(header, dict), "not a JSON object")
    ids, lab_norm, arrays = header.get("ids"), header.get("lab_norm"), header.get("arrays")
    need(
        isinstance(ids, dict) and all(
            isinstance(ids.get(t.value), list) and all(isinstance(i, str) for i in ids[t.value]) for t in NODE_TYPES
        ),
        "'ids' must map each node type to a list of string IDs",
    )
    registry = NodeRegistry({t: ids[t.value] for t in NODE_TYPES})
    bad_norm = "'lab_norm' must hold a (min, max) pair per lab"
    need(isinstance(lab_norm, list), bad_norm)
    try:
        lab_norm = np.array(lab_norm, dtype=np.float64).reshape(registry.count(NodeType.LAB), 2)
    except (TypeError, ValueError):
        raise IntegrityError(f"corrupt graph header: {bad_norm}") from None
    need(
        isinstance(arrays, list) and all(
            isinstance(e, dict) and isinstance(e.get("name"), str) and isinstance(e.get("dtype"), str)
            and isinstance(e.get("shape"), list) and all(isinstance(n, int) and n >= 0 for n in e["shape"])
            for e in arrays
        ),
        "'arrays' must list entries with a name, a shape and a dtype",
    )
    for e in arrays:
        if _ARRAY_DTYPES.get(e["name"]) != e["dtype"]:
            raise IntegrityError(f"graph file array {e['name']!r} has unexpected dtype {e['dtype']!r}")
    missing = sorted(set(_ARRAY_DTYPES) - {e["name"] for e in arrays})
    need(not missing, f"no entry for array {', '.join(missing)}")
    return registry, lab_norm, arrays


def load_graph(path) -> MedGraph:
    with open(path, "rb") as f:
        magic = f.readline().rstrip(b"\n")
        if magic in _OLD_MAGICS:
            raise IntegrityError(
                f"{path} is in the old {magic.decode()} graph format; "
                "rerun `medgcn build-graph` to rewrite it"
            )
        if magic != MAGIC:
            raise IntegrityError(f"not a graph file: bad magic {magic[:16]!r}")
        try:
            header = json.loads(f.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IntegrityError(f"corrupt graph header: {exc}") from None
        registry, lab_norm, entries = _read_header(header)
        mats: dict[str, np.ndarray] = {}
        for entry in entries:
            name, shape = entry["name"], tuple(entry["shape"])
            # Read straight into the array the graph keeps; the 0/1 mask
            # bytes land in a bool array, checked below through a byte view.
            dtype = np.dtype(bool if name == "m_el" else entry["dtype"])
            arr = np.empty(shape, dtype)
            if f.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise IntegrityError(f"graph file truncated in array {name}")
            mats[name] = arr if dtype.isnative else arr.astype(dtype.newbyteorder("="))
        if f.read(1):
            raise IntegrityError("graph file goes on after its last array")
    if np.any(mats["m_el"].view(np.uint8) > 1):
        raise IntegrityError("graph file array m_el holds a byte other than 0 or 1")
    graph = MedGraph(registry, mats["a_ep"], mats["m_el"], mats["a_em"], mats["raw_el"], lab_norm)
    graph.validate()
    return graph
