"""Self-test of the benchmark's traced run, on a small cohort (a few seconds).

    python3 perfbench/selftest.py

Trains and evaluates the same cohort through medgcn.cli.main twice, without
and with the tracer installed, and checks that:
  - every span lies inside the span that caused it;
  - each epoch's work lies inside its training.epoch span, one per epoch;
  - the checkpoint, epoch log and evaluate report are byte-identical, so the
    wrappers leave acceptance criterion 9 holding.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import stage  # noqa: E402
import tracing  # noqa: E402

EPOCHS = 6
SPEC = """\
n_patients = 60
n_encounters = 120
n_labs = 20
n_meds = 8
seed = 3
"""
ARTIFACTS = ("model.ckpt", "model.ckpt.log.tsv", "model.ckpt.eval.json")


def run_cli(argv) -> None:
    rc, _, err = stage.call_cli(argv)
    if rc != 0:
        raise RuntimeError(f"medgcn {argv[0]} exited {rc}: {err.strip()}")


def train_and_evaluate(cohort: Path, out: Path) -> dict[str, bytes]:
    out.mkdir()
    ckpt = out / "model.ckpt"
    run_cli(["train", "--data", cohort, "--hidden", 16, "--epochs", EPOCHS,
               "--patience", EPOCHS, "--out", ckpt])
    run_cli(["evaluate", "--checkpoint", ckpt, "--data", cohort])
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


def main() -> int:
    work = ROOT / ".perfbench_runs" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "spec.txt").write_text(SPEC, encoding="utf-8")
        cohort = work / "cohort"
        run_cli(["synth", "--spec", work / "spec.txt", "--out", cohort])
        plain = train_and_evaluate(cohort, work / "plain")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = train_and_evaluate(cohort, work / "traced")
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spans = tracer.spans
    tracing.derive_epochs(spans)
    epochs = [i for i, s in enumerate(spans) if s[0] == tracing.EPOCH]
    failures = tracing.nesting_violations(spans)
    if len(epochs) != EPOCHS:
        failures.append(f"{len(epochs)} epoch spans for {EPOCHS} epochs")
    for i in epochs:
        names = {s[0] for s in spans if s[3] == i}
        for want in ("model.forward_train", "autodiff.backward", "optim.adam_step", "model.forward_eval"):
            if want not in names:
                failures.append(f"epoch span {i} has no {want} child")
    failures += [f"{name} differs with tracing on" for name in ARTIFACTS if plain[name] != traced[name]]
    for line in failures:
        print(f"FAIL {line}")
    print(f"{len(spans)} spans, {len(epochs)} epochs: {'ok' if not failures else 'FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
