"""Heterogeneous graph convolution model with two prediction heads.

One layer updates every node type i as

    H_i' = phi( H_i W_i  +  sum over connected types j of  A_ij H_j W_j )

with one weight matrix per SOURCE type per layer, shared by every
destination that aggregates from it.  The leading self-term realizes the
implicit within-type identity adjacency.  Encounters aggregate from
patients, labs, and medications; the other three types aggregate from
encounters through the transposed adjacencies.

Default node features are one-hot identities, which are never
materialized: projecting an identity feature matrix through W is W
itself, and input dropout on one-hot rows reduces to dropping whole rows
of W (one Bernoulli draw per node).

Two affine-sigmoid heads read the encounter rows: medication
probabilities (N_E x N_M) and normalized lab values (N_E x N_L).  The
last layer therefore computes encounter rows only, in one code path that
training, the batch pass and row inference (any subset of rows) share.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import CheckpointError, GraphLookupError, ParameterError, ShapeError
from .graph import MedGraph, NodeType

CHECKPOINT_MAGIC = b"MEDGCN1"

TYPE_ORDER = tuple(t.value for t in NodeType)
ENCOUNTER = NodeType.ENCOUNTER.value

ACTIVATIONS = ("relu", "identity")
FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


@dataclass(frozen=True)
class Hyper:
    """Architecture hyperparameters."""

    hidden_dim: int = 300
    n_layers: int = 1
    dropout: float = 0.1
    activation: str = "relu"
    normalize_adjacency: bool = False

    def validate(self) -> None:
        # Checkpoint headers arrive as JSON, so each field's type is checked
        # against its annotation; a bool passes only where one is declared.
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, FIELD_KINDS[f.type]) or (isinstance(value, bool) and f.type != "bool"):
                raise ParameterError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.hidden_dim < 1:
            raise ParameterError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.n_layers < 1:
            raise ParameterError(f"n_layers must be >= 1, got {self.n_layers}")
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Hyper":
        return cls(**d)


@dataclass(frozen=True, eq=False)
class Membership:
    """A 0/1 adjacency in which every member row has exactly one group,
    kept as its index: the matrix M with M[i, index[i]] = 1, of shape
    (len(index), n_groups), which is never built.

    With transposed set this stands for M^T (groups aggregating their
    members), each row of which is multiplied by row_scale when given.
    """

    index: np.ndarray
    n_groups: int
    transposed: bool = False
    row_scale: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, int]:
        n = self.index.shape[0]
        return (self.n_groups, n) if self.transposed else (n, self.n_groups)

    def validate(self) -> None:
        if self.index.ndim != 1 or self.index.dtype.kind not in "iu":
            raise ShapeError(f"membership index must be a 1-D integer vector, got {self.index.dtype} {self.index.shape}")
        if self.index.size and (self.index.min() < 0 or self.index.max() >= self.n_groups):
            raise ShapeError(f"membership index out of range 0..{self.n_groups - 1}")


# A dense (n_dest, n_src) matrix or a one-hot membership kept as an index.
Adjacency = Union[np.ndarray, Membership]


@dataclass
class TypedGraphView:
    """Adjacency structure the layer math runs on, decoupled from MedGraph
    so single-type graphs exercise the same code path.

    adjacency maps (destination type, source type) to a dense matrix or a
    Membership, of shape (n_dest, n_src); self-pairs are implicit and never
    stored.
    """

    types: tuple[str, ...]
    counts: dict[str, int]
    adjacency: dict[tuple[str, str], Adjacency]

    def validate(self) -> None:
        for (dst, src), mat in self.adjacency.items():
            if dst not in self.types or src not in self.types:
                raise ShapeError(f"adjacency pair ({dst}, {src}) names unknown types")
            want = (self.counts[dst], self.counts[src])
            if mat.shape != want:
                raise ShapeError(f"adjacency ({dst}, {src}) shape {mat.shape} != {want}")
            if isinstance(mat, Membership):
                mat.validate()


def _row_normalize(mat: Adjacency) -> Adjacency:
    """Divide each row by its sum; all-zero rows stay zero.  A membership
    M already has unit row sums, and a row of M^T sums to its group size."""
    if isinstance(mat, Membership):
        if not mat.transposed:
            return mat
        sums = np.bincount(mat.index, minlength=mat.n_groups).astype(np.float64)
        scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0.0)
        return Membership(mat.index, mat.n_groups, True, scale)
    sums = mat.sum(axis=1, keepdims=True)
    out = np.divide(mat, sums, out=np.zeros_like(mat), where=sums != 0.0)
    return out


def _propagate(adj: Adjacency, h: Tensor) -> Tensor:
    """The product adj @ h on the tape."""
    if not isinstance(adj, Membership):
        return ad.matmul(Tensor(adj), h)
    if adj.transposed:
        return ad.scatter_rows(h, adj.index, adj.n_groups, adj.row_scale)
    return ad.take_rows(h, adj.index)


def _take_adjacency_rows(adj: Adjacency, rows: np.ndarray) -> Adjacency:
    """The rows of adj listed in rows, in that order."""
    if not isinstance(adj, Membership):
        return adj[rows]
    if adj.transposed:
        raise ShapeError("row inference needs encounters as the members of a membership, not its groups")
    return Membership(adj.index[rows], adj.n_groups)


def _encounter_sources(graph: MedGraph, rows=slice(None)) -> dict[str, Adjacency]:
    """The adjacencies encounters aggregate from, keyed by source type,
    restricted to the encounter rows selected by rows; only those rows'
    labs are normalized."""
    _, p, l, m = TYPE_ORDER
    return {p: Membership(graph.a_ep[rows], graph.n_patients), l: graph.lab_rows(rows), m: graph.a_em[rows]}


def make_view(graph: MedGraph, normalize_adjacency: bool = False) -> TypedGraphView:
    e, p, l, m = TYPE_ORDER
    sources = _encounter_sources(graph)
    mats: dict[tuple[str, str], Adjacency] = {
        **{(e, src): adj for src, adj in sources.items()},
        (p, e): Membership(graph.a_ep, graph.n_patients, transposed=True),
        (l, e): sources[l].T,
        (m, e): graph.a_em.T,
    }
    if normalize_adjacency:
        mats = {pair: _row_normalize(mat) for pair, mat in mats.items()}
    view = TypedGraphView(
        types=TYPE_ORDER,
        counts={
            e: graph.n_encounters,
            p: graph.n_patients,
            l: graph.n_labs,
            m: graph.n_medications,
        },
        adjacency=mats,
    )
    view.validate()
    return view


# Feature value for a type: an explicit matrix, or None for the one-hot
# identity default.
Features = dict[str, Union[Tensor, np.ndarray, None]]


def identity_features(view: TypedGraphView) -> Features:
    return {t: None for t in view.types}


@dataclass
class MedGcnModel:
    hyper: Hyper
    layers: list[dict[str, Tensor]]
    head_med_w: Tensor
    head_med_b: Tensor
    head_lab_w: Tensor
    head_lab_b: Tensor
    trained_counts: dict[str, int]
    feat_dims: dict[str, int]
    graph_binding: dict = field(default_factory=dict)

    def parameters(self) -> list[Tensor]:
        """The weights in checkpoint order."""
        return [t for _, t in _weight_entries(self)]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def _weight_shapes(hyper: Hyper, counts: dict[str, int], dims: dict[str, int]) -> list[tuple[str, tuple[int, int]]]:
    """Every weight's name and shape, in checkpoint order: per layer one
    matrix per source type (input width dims[t] in the first layer, then
    hidden_dim), then the medication and lab heads' weights and bias rows."""
    h = hyper.hidden_dim
    shapes = [
        (f"layer{k}/{t}", (dims[t] if k == 0 else h, h)) for k in range(hyper.n_layers) for t in TYPE_ORDER
    ]
    for head, t in (("head_med", NodeType.MEDICATION.value), ("head_lab", NodeType.LAB.value)):
        shapes += [(f"{head}/w", (h, counts[t])), (f"{head}/b", (1, counts[t]))]
    return shapes


def _assemble(
    hyper: Hyper, weights: dict[str, Tensor], counts: dict[str, int], dims: dict[str, int], binding: dict
) -> MedGcnModel:
    layers = [{t: weights[f"layer{k}/{t}"] for t in TYPE_ORDER} for k in range(hyper.n_layers)]
    return MedGcnModel(
        hyper, layers, weights["head_med/w"], weights["head_med/b"], weights["head_lab/w"], weights["head_lab/b"],
        counts, dims, binding,
    )


def init_model(
    graph: MedGraph,
    hyper: Hyper,
    seed: int,
    feature_dims: Optional[dict[str, int]] = None,
) -> MedGcnModel:
    """Glorot-uniform weights, zero head biases, deterministic under seed.

    feature_dims overrides the input width per type for callers supplying
    explicit feature matrices; the default is the one-hot width N_t.
    """
    hyper.validate()
    counts = {t.value: graph.registry.count(t) for t in NodeType}
    dims = {t: int((feature_dims or {}).get(t, counts[t])) for t in TYPE_ORDER}
    rng = np.random.default_rng(seed)
    # Drawn in checkpoint order; the bias rows draw nothing.
    weights = {
        name: Tensor(np.zeros(shape) if name.endswith("/b") else _glorot(rng, *shape), requires_grad=True)
        for name, shape in _weight_shapes(hyper, counts, dims)
    }
    binding = {
        "type_shas": graph.type_shas(),
        "n_encounters": graph.n_encounters,
    }
    return _assemble(hyper, weights, counts, dims, binding)


def _project_type(
    t: str,
    weight: Tensor,
    feature,
    n_nodes: int,
    training: bool,
    dropout: float,
    rng,
) -> Tensor:
    """Dropout on the type's input features, then the linear map W_t.

    Identity features take the fast path: the projection IS the weight
    matrix, zero-padded with constant rows when the graph has grown past
    the trained encounter count (new nodes carry no self-feature).
    """
    if feature is None:
        if weight.rows == n_nodes:
            return ad.dropout_rows(weight, dropout, training, rng)
        if t == ENCOUNTER and weight.rows < n_nodes:
            if training:
                raise ShapeError("cannot train with encounters unseen at initialization")
            padded = np.vstack([weight.values, np.zeros((n_nodes - weight.rows, weight.cols))])
            return Tensor(padded)
        raise ShapeError(
            f"{t} one-hot features need a {n_nodes}-row weight, got {weight.rows}"
        )
    h = feature if isinstance(feature, Tensor) else Tensor(feature)
    if h.rows != n_nodes:
        raise ShapeError(f"{t} features have {h.rows} rows for {n_nodes} nodes")
    if h.cols != weight.rows:
        raise ShapeError(f"{t} feature dim {h.cols} != weight input dim {weight.rows}")
    return ad.matmul(ad.dropout(h, dropout, training, rng), weight)


def hetero_layer_forward(
    layer: dict[str, Tensor],
    view: Union[TypedGraphView, MedGraph],
    features: Features,
    *,
    activation: str = "relu",
    training: bool = False,
    dropout: float = 0.0,
    rng=None,
) -> dict[str, Tensor]:
    """One propagation step; returns new features for every type.  Types
    are projected in declaration order, which fixes the dropout draws."""
    if isinstance(view, MedGraph):
        view = make_view(view)
    projected = {
        t: _project_type(t, layer[t], features.get(t), view.counts[t], training, dropout, rng)
        for t in view.types
    }
    out: dict[str, Tensor] = {}
    for dst in view.types:
        propagated = (_propagate(adj, projected[src]) for (d, src), adj in view.adjacency.items() if d == dst)
        out[dst] = ad.sum_relu(itertools.chain([projected[dst]], propagated), rectify=activation == "relu")
    return out


def forward(
    model: MedGcnModel,
    graph: Union[MedGraph, TypedGraphView],
    features: Optional[Features] = None,
    *,
    training: bool = False,
    rng=None,
    rows=None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Full pass: all layers, then both heads on the encounter rows.

    Returns (P, V, H_E): medication probabilities, imputed normalized lab
    values, and the final encounter representations.  In training mode the
    first slot holds the medication logits instead of P = sigmoid(logits),
    because the training loss reads logits (a log loss on probabilities
    fails once any rounds to 0 or 1); the triple keeps its shape so every
    caller unpacks it alike.  Earlier layers run
    over the whole graph.  The last layer computes only the encounter rows
    listed in rows (ordinals, inference only; None means every encounter),
    each from its own adjacency rows, so a one-layer model scores a row
    from its own edges.  The outputs hold one row per entry of rows, equal
    to that row of the full pass.  Training, the batch pass and row
    inference share this code; it draws dropout masks in type order.
    """
    if rows is not None and training:
        raise ParameterError("rows selects encounter rows for inference; it excludes training")
    normalize = model.hyper.normalize_adjacency
    *earlier, last = model.layers
    view = make_view(graph, normalize) if earlier and isinstance(graph, MedGraph) else graph
    counts = {t.value: view.registry.count(t) for t in NodeType} if isinstance(view, MedGraph) else view.counts
    index = slice(None) if rows is None else _check_rows(rows, counts[ENCOUNTER])
    if isinstance(view, MedGraph):
        sources = _encounter_sources(view, index)
        if normalize:
            # Normalized after slicing, so the cost stays with the rows; a
            # row's sum is the same either way.  A view comes as it was built.
            sources = {src: _row_normalize(adj) for src, adj in sources.items()}
    else:
        sources = {src: _take_adjacency_rows(adj, index) for (dst, src), adj in view.adjacency.items() if dst == ENCOUNTER}
    rate = model.hyper.dropout if training else 0.0
    feats: Features = features or {}
    for layer in earlier:
        feats = hetero_layer_forward(
            layer, view, feats, activation=model.hyper.activation, training=training, dropout=rate, rng=rng
        )

    def terms():
        # Made one at a time as the sum consumes them, in type order, which
        # fixes the dropout draws.
        if rows is None:
            yield _project_type(ENCOUNTER, last[ENCOUNTER], feats.get(ENCOUNTER), counts[ENCOUNTER], training, rate, rng)
        else:
            yield _project_rows(last[ENCOUNTER], feats.get(ENCOUNTER), counts[ENCOUNTER], index)
        for src, adj in sources.items():
            yield _propagate(adj, _project_type(src, last[src], feats.get(src), counts[src], training, rate, rng))

    h_e = ad.sum_relu(terms(), rectify=model.hyper.activation == "relu")
    z_med = ad.add_bias(ad.matmul(h_e, model.head_med_w), model.head_med_b)
    v = ad.sigmoid(ad.add_bias(ad.matmul(h_e, model.head_lab_w), model.head_lab_b))
    return (z_med if training else ad.sigmoid(z_med)), v, h_e


def _check_rows(rows, n_encounters: int) -> np.ndarray:
    index = np.asarray(rows)
    if index.ndim != 1 or (index.size and index.dtype.kind not in "iu"):
        raise ParameterError(f"rows must be a 1-D sequence of encounter ordinals, got {index.dtype} {index.shape}")
    index = index.astype(np.int64)
    bad = index[(index < 0) | (index >= n_encounters)]
    if bad.size:
        raise GraphLookupError(f"encounter ordinal {bad[0]} out of range 0..{n_encounters - 1}")
    return index


def _project_rows(weight: Tensor, feature, n_nodes: int, rows: np.ndarray) -> Tensor:
    """The listed encounter rows of _project_type's output at inference;
    one-hot features read just those rows of the weight."""
    if feature is not None:
        return ad.take_rows(_project_type(ENCOUNTER, weight, feature, n_nodes, False, 0.0, None), rows)
    if weight.rows > n_nodes:
        raise ShapeError(f"{ENCOUNTER} one-hot features need a {n_nodes}-row weight, got {weight.rows}")
    out = np.zeros((rows.size, weight.cols))
    known = rows < weight.rows
    out[known] = weight.values[rows[known]]
    return Tensor(out)


def inductive_embed(
    model: MedGcnModel, graph: MedGraph, new_ordinal: int
) -> tuple[np.ndarray, np.ndarray]:
    """Head outputs for one encounter from frozen weights.

    Encounters appended after training have no identity self-feature, so
    their representation comes entirely from their patient/lab/medication
    neighbors; trained encounters reproduce the training-time forward.
    """
    p, v, _ = forward(model, graph, rows=[new_ordinal])
    return p.values[0], v.values[0]


def _weight_entries(model: MedGcnModel) -> list[tuple[str, Tensor]]:
    entries = []
    for k, layer in enumerate(model.layers):
        for t in TYPE_ORDER:
            entries.append((f"layer{k}/{t}", layer[t]))
    entries.append(("head_med/w", model.head_med_w))
    entries.append(("head_med/b", model.head_med_b))
    entries.append(("head_lab/w", model.head_lab_w))
    entries.append(("head_lab/b", model.head_lab_b))
    return entries


def model_to_bytes(model: MedGcnModel) -> bytes:
    """Checkpoint image: magic line, one-line JSON header, then weight
    matrices as row-major little-endian float64 in header order."""
    entries = _weight_entries(model)
    header = {
        "hyper": model.hyper.to_dict(),
        "trained_counts": model.trained_counts,
        "feat_dims": model.feat_dims,
        "graph_binding": model.graph_binding,
        "weights": [
            {"name": name, "rows": t.rows, "cols": t.cols} for name, t in entries
        ],
        "dtype": "<f8",
    }
    parts = [CHECKPOINT_MAGIC + b"\n", json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"]
    for _, t in entries:
        parts.append(np.ascontiguousarray(t.values, dtype="<f8").tobytes())
    return b"".join(parts)


def model_from_bytes(blob: bytes) -> MedGcnModel:
    newline = blob.find(b"\n")
    if newline < 0 or blob[:newline] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint: bad magic")
    header_end = blob.find(b"\n", newline + 1)
    if header_end < 0:
        raise CheckpointError("checkpoint truncated in header")
    try:
        header = json.loads(blob[newline + 1 : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from None
    try:
        return _model_from_header(header, memoryview(blob), header_end + 1)
    except KeyError as exc:
        raise CheckpointError(f"checkpoint missing field {exc}") from None
    except (TypeError, ValueError, ParameterError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from None


def _model_from_header(header: dict, blob: memoryview, offset: int) -> MedGcnModel:
    hyper = Hyper.from_dict(header["hyper"])
    hyper.validate()
    counts = _checked_counts(header, "trained_counts")
    dims = _checked_counts(header, "feat_dims")
    expected = _weight_shapes(hyper, counts, dims)
    listed = [(entry["name"], (entry["rows"], entry["cols"])) for entry in header["weights"]]
    if listed != expected:
        k = next((k for k, (a, b) in enumerate(zip(listed, expected)) if a != b), min(len(listed), len(expected)))

        def show(entries):
            return f"{entries[k][0]} {entries[k][1][0]}x{entries[k][1][1]}" if k < len(entries) else "none"

        raise CheckpointError(
            f"checkpoint weights do not follow from its header: weight {k} is {show(listed)}, expected {show(expected)}"
        )
    weights: dict[str, Tensor] = {}
    for name, (rows, cols) in expected:
        n = rows * cols * 8
        raw = blob[offset : offset + n]
        if len(raw) != n:
            raise CheckpointError(f"checkpoint truncated in weight {name}")
        weights[name] = Tensor(np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy(), requires_grad=True)
        offset += n
    if offset != len(blob):
        raise CheckpointError(f"checkpoint has {len(blob) - offset} bytes after its last weight")
    return _assemble(hyper, weights, counts, dims, _checked_binding(header["graph_binding"]))


def _checked_counts(header: dict, key: str) -> dict[str, int]:
    """header[key] once it maps each node type, and nothing else, to an
    integer >= 0."""
    value = header[key]
    if not (
        isinstance(value, dict)
        and sorted(value) == sorted(TYPE_ORDER)
        and all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in value.values())
    ):
        raise CheckpointError(f"corrupt checkpoint header: {key!r} must map each node type to an integer >= 0")
    return {t: value[t] for t in TYPE_ORDER}


def _checked_binding(binding) -> dict:
    """The header's graph binding once its keys and types are checked:
    type_shas maps each node type to a string hash, and n_encounters is an
    integer >= 0."""
    shas = binding.get("type_shas") if isinstance(binding, dict) else None
    if not (isinstance(shas, dict) and all(isinstance(shas.get(t), str) for t in TYPE_ORDER)):
        raise CheckpointError(
            "corrupt checkpoint header: 'graph_binding' must map 'type_shas' to a string hash per node type"
        )
    n = binding.get("n_encounters")
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 0):
        raise CheckpointError("corrupt checkpoint header: 'graph_binding' must hold 'n_encounters', an integer >= 0")
    return binding


def save_model(model: MedGcnModel, path) -> None:
    with open(path, "wb") as f:
        f.write(model_to_bytes(model))


def load_model(path) -> MedGcnModel:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from None
    return model_from_bytes(blob)


def verify_model_graph(model: MedGcnModel, graph: MedGraph) -> None:
    """Checkpoint/graph compatibility: patients, labs, and medications must
    match exactly; encounters may have grown but the trained prefix must
    be identical."""
    binding = model.graph_binding
    shas = graph.type_shas()
    for t in (NodeType.PATIENT, NodeType.LAB, NodeType.MEDICATION):
        if binding["type_shas"][t.value] != shas[t.value]:
            raise CheckpointError(f"checkpoint was trained on different {t.value} nodes")
    n_trained = binding["n_encounters"]
    if graph.n_encounters < n_trained:
        raise CheckpointError(
            f"graph has {graph.n_encounters} encounters but checkpoint trained on {n_trained}"
        )
    if graph.encounter_prefix_sha(n_trained) != binding["type_shas"][ENCOUNTER]:
        raise CheckpointError("checkpoint was trained on different encounter nodes")
