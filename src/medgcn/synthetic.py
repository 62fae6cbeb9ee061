"""Seeded synthetic cohort with planted latent structure.

Patients carry latent vectors; each encounter inherits its patient's
vector plus jitter.  True lab values and medication propensities are both
sigmoid projections of the SAME encounter latents, so labs and
medications genuinely share signal and cross-task training has a
mechanism to help.  Observations are a Bernoulli mask over the true lab
matrix plus clamped Gaussian noise; medications are the propensity
entries above a global quantile chosen to hit the target prescriptions
per encounter.

Draws happen in a fixed order (patient latents, encounter jitter, lab
loadings/biases, medication loadings/biases, mask uniforms, noise), so
changing only the observation probability reuses the same uniforms and a
higher probability can only add observed edges.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import MedGraph, NodeRegistry, NodeType, assemble_graph

# Projection spreads: chosen so sigmoid outputs cover the unit interval
# with meaningful variation instead of clustering at 0.5.
LOADING_SCALE = 2.0
BIAS_SD = 0.5
ENCOUNTER_JITTER = 0.4


@dataclass(frozen=True)
class SyntheticSpec:
    n_patients: int = 865
    n_encounters: int = 1260
    n_labs: int = 197
    n_meds: int = 57
    latent_dim: int = 8
    lab_observe_prob: float = 0.18
    med_rate: float = 2.0
    noise_sd: float = 0.02
    seed: int = 0

    def validate(self) -> None:
        for name in ("n_patients", "n_encounters", "n_labs", "n_meds", "latent_dim"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.lab_observe_prob < 1.0:
            raise ParameterError(f"lab_observe_prob must be in (0, 1), got {self.lab_observe_prob}")
        if not 0.0 < self.med_rate < self.n_meds:
            raise ParameterError(f"med_rate must be in (0, n_meds), got {self.med_rate}")
        if self.noise_sd < 0.0:
            raise ParameterError(f"noise_sd must be nonnegative, got {self.noise_sd}")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class SyntheticCohort:
    spec: SyntheticSpec
    graph: MedGraph
    true_labs: np.ndarray  # (n_encounters, n_labs) noise-free values in (0, 1)
    med_propensity: np.ndarray  # (n_encounters, n_meds) in (0, 1)
    patient_latents: np.ndarray
    encounter_latents: np.ndarray


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def generate_synthetic(spec: SyntheticSpec) -> SyntheticCohort:
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    d = spec.latent_dim

    patient_latents = rng.standard_normal((spec.n_patients, d)) / np.sqrt(d)
    assignment = np.arange(spec.n_encounters) % spec.n_patients
    jitter = rng.standard_normal((spec.n_encounters, d)) / np.sqrt(d)
    encounter_latents = patient_latents[assignment] + ENCOUNTER_JITTER * jitter

    lab_loadings = rng.standard_normal((d, spec.n_labs)) * LOADING_SCALE
    lab_bias = rng.standard_normal(spec.n_labs) * BIAS_SD
    med_loadings = rng.standard_normal((d, spec.n_meds)) * LOADING_SCALE
    med_bias = rng.standard_normal(spec.n_meds) * BIAS_SD

    true_labs = _sigmoid(encounter_latents @ lab_loadings + lab_bias)
    med_propensity = _sigmoid(encounter_latents @ med_loadings + med_bias)

    m_el = (rng.random((spec.n_encounters, spec.n_labs)) < spec.lab_observe_prob).astype(np.float64)
    noise = rng.standard_normal((spec.n_encounters, spec.n_labs)) * spec.noise_sd
    observed = np.clip(true_labs + noise, 0.0, 1.0) * m_el

    # Global propensity cutoff hitting med_rate prescriptions per
    # encounter in expectation while letting encounters vary.
    tau = np.quantile(med_propensity, 1.0 - spec.med_rate / spec.n_meds)
    a_em = (med_propensity > tau).astype(np.float64)

    registry = NodeRegistry({
        NodeType.PATIENT: [f"P{i}" for i in range(spec.n_patients)],
        NodeType.ENCOUNTER: [f"E{i}" for i in range(spec.n_encounters)],
        NodeType.LAB: [f"L{j}" for j in range(spec.n_labs)],
        NodeType.MEDICATION: [f"M{j}" for j in range(spec.n_meds)],
    })

    graph = assemble_graph(registry, assignment, observed, m_el, a_em)
    return SyntheticCohort(
        spec=spec,
        graph=graph,
        true_labs=true_labs,
        med_propensity=med_propensity,
        patient_latents=patient_latents,
        encounter_latents=encounter_latents,
    )


def parse_spec_text(text: str) -> SyntheticSpec:
    """Flat key=value lines; '#' starts a comment; unknown keys rejected."""
    fields = {f.name: f for f in dataclasses.fields(SyntheticSpec)}
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"spec line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in fields:
            raise ParameterError(f"spec line {lineno}: unknown key {key!r}")
        caster = fields[key].type
        try:
            values[key] = int(val) if caster == "int" else float(val)
        except ValueError:
            raise ParameterError(f"spec line {lineno}: bad value {val!r} for {key}") from None
    spec = SyntheticSpec(**values)
    spec.validate()
    return spec


def spec_to_text(spec: SyntheticSpec) -> str:
    lines = [f"{f.name}={getattr(spec, f.name)!r}" for f in dataclasses.fields(SyntheticSpec)]
    return "\n".join(lines) + "\n"
