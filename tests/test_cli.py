"""End-to-end command-line tests; commands run in process via main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import medgcn
import medgcn.cli
import medgcn.data_io
from medgcn.cli import main, parse_split_flag
from medgcn.data_io import load_csv_bundle
from medgcn.errors import ParameterError
from medgcn.graph import MEDICATION_TASK, NodeType, make_split
from medgcn.model import Hyper, init_model, save_model

SPEC_TEXT = """\
n_patients = 25
n_encounters = 50
n_labs = 10
n_meds = 8
latent_dim = 4
lab_observe_prob = 0.35
med_rate = 2.0
noise_sd = 0.02
seed = 11
"""

BUNDLE_FILES = [
    "patients.csv",
    "encounters.csv",
    "lab_results.csv",
    "prescriptions.csv",
    "true_labs.csv",
    "med_propensities.csv",
]


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.txt"
    spec.write_text(SPEC_TEXT)
    data = root / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    return data


@pytest.fixture(scope="module")
def checkpoint(cohort_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    code = main(
        [
            "train", "--data", str(cohort_dir), "--hidden", "12",
            "--epochs", "8", "--patience", "8", "--dropout", "0.1",
            "--seed", "2", "--out", str(path),
        ]
    )
    assert code == 0
    return path


def test_cli_import_loads_no_scipy():
    # Importing scipy costs the cli most of its start-up time and memory.
    code = "import sys, medgcn.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(medgcn.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSplitFlag:
    def test_default_ratios(self):
        r = parse_split_flag("0.8,0.1")
        assert r[0] == pytest.approx(0.72)
        assert r[1] == pytest.approx(0.08)
        assert r[2] == pytest.approx(0.20)

    @pytest.mark.parametrize("text", ["0.8", "0.8,0.1,0.1", "a,b", "1.2,0.1", "0.8,0"])
    def test_bad_split_rejected(self, text):
        with pytest.raises(ParameterError):
            parse_split_flag(text)


class TestSynth:
    def test_writes_bundle_and_ground_truth(self, cohort_dir):
        for name in BUNDLE_FILES:
            assert (cohort_dir / name).is_file()

    def test_same_seed_byte_identical(self, cohort_dir, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT)
        again = tmp_path / "again"
        assert main(["synth", "--spec", str(spec), "--out", str(again)]) == 0
        for name in BUNDLE_FILES:
            assert (again / name).read_bytes() == (cohort_dir / name).read_bytes()

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["synth", "--spec", str(spec), "--out", str(a), "--seed", "99"]) == 0
        assert main(["synth", "--spec", str(spec), "--out", str(b)]) == 0
        assert (a / "lab_results.csv").read_bytes() != (b / "lab_results.csv").read_bytes()

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["synth"])
        assert err.value.code == 2

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("n_patients = -4\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err


class TestGraphCommands:
    def test_build_graph_then_stats(self, cohort_dir, tmp_path, capsys):
        out = tmp_path / "graph.bin"
        assert main(["build-graph", "--data", str(cohort_dir), "--out", str(out)]) == 0
        built = capsys.readouterr().out
        assert "fingerprint" in built
        assert main(["stats", "--graph", str(out)]) == 0
        from_file = capsys.readouterr().out
        assert main(["stats", "--data", str(cohort_dir)]) == 0
        from_csv = capsys.readouterr().out
        assert from_file == from_csv
        assert "a_em" in from_file

    def test_build_graph_reads_each_csv_once(self, cohort_dir, tmp_path, monkeypatch, capsys):
        read_rows = medgcn.data_io._read_rows
        names = []

        def counting(path, header):
            names.append(Path(path).name)
            return read_rows(path, header)

        monkeypatch.setattr(medgcn.data_io, "_read_rows", counting)
        assert main(["build-graph", "--data", str(cohort_dir), "--out", str(tmp_path / "g.bin")]) == 0
        capsys.readouterr()
        assert sorted(names) == sorted(["patients.csv", "encounters.csv", "lab_results.csv", "prescriptions.csv"])

    @pytest.mark.parametrize("header", [b"{}", b"[]", b'{"ids": 5, "lab_norm": [], "arrays": []}'])
    def test_stats_on_a_malformed_graph_header_exits_2(self, tmp_path, capsys, header):
        path = tmp_path / "graph.bin"
        path.write_bytes(b"MEDGRAPH3\n" + header + b"\n")
        assert main(["stats", "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt graph header")

    def test_stats_on_a_non_utf8_bundle_exits_2(self, cohort_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("patients.csv", "encounters.csv", "lab_results.csv", "prescriptions.csv"):
            (data / name).write_bytes((cohort_dir / name).read_bytes())
        (data / "prescriptions.csv").write_bytes((cohort_dir / "prescriptions.csv").read_bytes() + b"E1,M\xff\n")
        assert main(["stats", "--data", str(data)]) == 2
        assert capsys.readouterr().err == "error: prescriptions.csv: not UTF-8 text (invalid start byte)\n"

    def test_stats_two_decimal_sparsity(self, cohort_dir, capsys):
        assert main(["stats", "--data", str(cohort_dir)]) == 0
        out = capsys.readouterr().out
        assert "sparsity  96.00%" in out  # a_ep: 50 encounters over 25 patients


class TestTrain:
    def test_bundle_without_lab_rows_names_the_split(self, tmp_path, capsys):
        (tmp_path / "patients.csv").write_text("patient_id\nP1\n")
        (tmp_path / "encounters.csv").write_text("encounter_id,patient_id\nE1,P1\nE2,P1\nE3,P1\nE4,P1\n")
        (tmp_path / "lab_results.csv").write_text("encounter_id,lab_code,value\n")
        (tmp_path / "prescriptions.csv").write_text("encounter_id,med_code\nE1,M1\nE2,M1\nE3,M2\nE4,M1\n")
        code = main(["train", "--data", str(tmp_path), "--hidden", "4", "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "error: imputation split needs at least 3 lab observations, got 0" in capsys.readouterr().err

    def test_medication_task_without_lab_rows_names_the_remedy(self, tmp_path, capsys):
        (tmp_path / "patients.csv").write_text("patient_id\nP1\n")
        (tmp_path / "encounters.csv").write_text("encounter_id,patient_id\nE1,P1\nE2,P1\nE3,P1\nE4,P1\n")
        (tmp_path / "lab_results.csv").write_text("encounter_id,lab_code,value\n")
        (tmp_path / "prescriptions.csv").write_text("encounter_id,med_code\nE1,M1\nE2,M1\nE3,M2\nE4,M1\n")
        out = tmp_path / "m.ckpt"
        code = main(["train", "--data", str(tmp_path), "--task", "med", "--hidden", "4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: imputation split needs at least 3 lab observations, got 0; ")
        assert "train and evaluate always build the imputation split" in err and "even with --task med" in err
        assert not out.exists()

    @pytest.mark.parametrize("task, message", [
        ("both", "the medication validation split has no prescription for lrap; change --split"),
        ("lab", "the imputation validation split has no lab observation for mse; change --split"),
    ])
    def test_validation_split_with_nothing_to_score_exits_2(self, tmp_path, capsys, task, message):
        # 20 encounters and 3 lab observations: the default split leaves the
        # lab validation split empty, and the prescriptions skip every
        # medication validation encounter.
        ids = [f"E{i:02d}" for i in range(20)]
        (tmp_path / "patients.csv").write_text("patient_id\nP1\n")
        (tmp_path / "encounters.csv").write_text("encounter_id,patient_id\n" + "".join(f"{e},P1\n" for e in ids))
        (tmp_path / "lab_results.csv").write_text("encounter_id,lab_code,value\nE00,L1,1.0\nE01,L1,2.0\nE02,L1,3.0\n")
        prescriptions = tmp_path / "prescriptions.csv"
        prescriptions.write_text("encounter_id,med_code\n" + "".join(f"{e},M{i % 2}\n" for i, e in enumerate(ids)))
        graph = load_csv_bundle(tmp_path)
        val = make_split(graph, MEDICATION_TASK, parse_split_flag("0.8,0.1"), 0).val
        kept = [e for e in ids if graph.registry.ordinal(NodeType.ENCOUNTER, e) not in val]
        prescriptions.write_text("encounter_id,med_code\n" + "".join(f"{e},M1\n" for e in kept))
        out = tmp_path / "m.ckpt"
        code = main(["train", "--data", str(tmp_path), "--task", task, "--hidden", "4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert not out.exists()

    def test_writes_checkpoint_and_log(self, checkpoint):
        assert checkpoint.is_file()
        log = checkpoint.with_name(checkpoint.name + ".log.tsv")
        lines = log.read_text().splitlines()
        assert lines[0] == "epoch\tloss_med\tloss_lab\tval_metric"
        assert len(lines) == 9

    def test_lambda_zero_equals_med_task(self, cohort_dir, tmp_path):
        common = [
            "--data", str(cohort_dir), "--hidden", "10", "--epochs", "5",
            "--patience", "5", "--dropout", "0.0", "--seed", "6",
        ]
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        assert main(["train", *common, "--task", "both", "--lambda", "0", "--out", str(a)]) == 0
        assert main(["train", *common, "--task", "med", "--out", str(b)]) == 0
        log_a = (tmp_path / "a.ckpt.log.tsv").read_bytes()
        log_b = (tmp_path / "b.ckpt.log.tsv").read_bytes()
        assert log_a == log_b

    def test_divergence_exits_3(self, cohort_dir, tmp_path, capsys):
        code = main(
            [
                "train", "--data", str(cohort_dir), "--hidden", "8",
                "--epochs", "4", "--patience", "4", "--dropout", "0.0",
                "--lr", "1e9", "--seed", "0", "--out", str(tmp_path / "d.ckpt"),
            ]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"), ("--lambda", "nan"), ("--lambda", "inf")])
    def test_non_finite_lr_or_lambda_is_usage_error(self, cohort_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "x.ckpt"
        code = main(
            [
                "train", "--data", str(cohort_dir), "--hidden", "4", "--epochs", "2",
                "--patience", "2", flag, value, "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2 and "must be a finite number" in err and err.rstrip().endswith(f"got {value}")
        assert not out.exists()

    def test_patience_above_epochs_is_usage_error(self, cohort_dir, tmp_path, capsys):
        code = main(
            [
                "train", "--data", str(cohort_dir), "--epochs", "5",
                "--patience", "9", "--out", str(tmp_path / "x.ckpt"),
            ]
        )
        assert code == 2
        capsys.readouterr()


class TestEvaluate:
    def test_report_and_determinism(self, cohort_dir, checkpoint, tmp_path, capsys):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        args = [
            "evaluate", "--checkpoint", str(checkpoint), "--data", str(cohort_dir),
            "--split-seed", "2",
        ]
        assert main([*args, "--report", str(r1)]) == 0
        out = capsys.readouterr().out
        assert "lrap" in out and "masked_mse" in out
        assert main([*args, "--report", str(r2)]) == 0
        capsys.readouterr()
        assert r1.read_bytes() == r2.read_bytes()
        payload = json.loads(r1.read_text())
        names = {e["name"] for e in payload["metrics"]}
        assert {"lrap", "map_at_k", "masked_mse"} <= names

    def test_missing_checkpoint_exits_4(self, cohort_dir, tmp_path, capsys):
        code = main(
            [
                "evaluate", "--checkpoint", str(tmp_path / "absent.ckpt"),
                "--data", str(cohort_dir),
            ]
        )
        assert code == 4
        capsys.readouterr()

    def test_mismatched_graph_exits_4(self, checkpoint, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT.replace("seed = 11", "seed = 12").replace("n_labs = 10", "n_labs = 9"))
        other = tmp_path / "other"
        assert main(["synth", "--spec", str(spec), "--out", str(other)]) == 0
        capsys.readouterr()
        code = main(
            ["evaluate", "--checkpoint", str(checkpoint), "--data", str(other)]
        )
        assert code == 4
        capsys.readouterr()


def _rewrite_checkpoint_header(blob, edit):
    """The checkpoint blob with its JSON header replaced by edit(header)."""
    magic_end = blob.index(b"\n")
    header_end = blob.index(b"\n", magic_end + 1)
    header = json.loads(blob[magic_end + 1 : header_end])
    return blob[: magic_end + 1] + json.dumps(edit(header)).encode() + blob[header_end:]


# Each case maps a valid checkpoint header to a malformed one.
MALFORMED_CHECKPOINTS = {
    "not_an_object": lambda h: [h],
    "hyper_missing": lambda h: {k: v for k, v in h.items() if k != "hyper"},
    "weights_missing": lambda h: {k: v for k, v in h.items() if k != "weights"},
    "unknown_hyper_key": lambda h: {**h, "hyper": {**h["hyper"], "depth": 3}},
    "unknown_activation": lambda h: {**h, "hyper": {**h["hyper"], "activation": "tanh"}},
    "negative_dropout": lambda h: {**h, "hyper": {**h["hyper"], "dropout": -0.5}},
    "dropout_bool": lambda h: {**h, "hyper": {**h["hyper"], "dropout": False}},
    "fractional_hidden_dim": lambda h: {**h, "hyper": {**h["hyper"], "hidden_dim": 2.5}},
    "bool_n_layers": lambda h: {**h, "hyper": {**h["hyper"], "n_layers": True}},
    "string_normalize_adjacency": lambda h: {**h, "hyper": {**h["hyper"], "normalize_adjacency": "false"}},
    # The weights must be exactly those the header implies, in order.
    "hidden_dim_narrower_than_weights": lambda h: {**h, "hyper": {**h["hyper"], "hidden_dim": 9}},
    "more_layers_than_weights": lambda h: {**h, "hyper": {**h["hyper"], "n_layers": 2}},
    "trained_counts_disagree_with_heads": lambda h: {
        **h, "trained_counts": {**h["trained_counts"], "medication": h["trained_counts"]["medication"] + 1}},
    "feat_dims_disagree_with_layer": lambda h: {**h, "feat_dims": {**h["feat_dims"], "lab": h["feat_dims"]["lab"] + 1}},
    "feat_dims_missing_a_type": lambda h: {**h, "feat_dims": {k: v for k, v in h["feat_dims"].items() if k != "lab"}},
    "fractional_trained_count": lambda h: {**h, "trained_counts": {**h["trained_counts"], "lab": 2.5}},
    "weights_out_of_order": lambda h: {**h, "weights": h["weights"][1::-1] + h["weights"][2:]},
    "weight_renamed": lambda h: {**h, "weights": [
        {**w, "name": "head_lab/bias"} if w["name"] == "head_lab/b" else w for w in h["weights"]]},
}

# Each case maps a valid graph binding to a malformed one.
MALFORMED_BINDINGS = {
    "empty": lambda b: {},
    "without_n_encounters": lambda b: {"type_shas": b["type_shas"]},
    "non_string_sha": lambda b: {**b, "type_shas": {**b["type_shas"], "lab": 7}},
}


class TestMalformedCheckpoint:
    def _recommend(self, cohort_dir, path, capsys):
        code = main(["recommend", "--checkpoint", str(path), "--data", str(cohort_dir), "--encounter", "E3"])
        return code, capsys.readouterr().err

    def test_empty_header_exits_4(self, cohort_dir, tmp_path, capsys):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"MEDGCN1\n{}\n")
        code, err = self._recommend(cohort_dir, path, capsys)
        assert code == 4 and "hyper" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_header_exits_4(self, cohort_dir, checkpoint, tmp_path, capsys, case):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(_rewrite_checkpoint_header(checkpoint.read_bytes(), MALFORMED_CHECKPOINTS[case]))
        code, err = self._recommend(cohort_dir, path, capsys)
        assert code == 4 and err.startswith("error: ")

    @pytest.mark.parametrize("case", sorted(MALFORMED_BINDINGS))
    def test_malformed_graph_binding_exits_4(self, cohort_dir, checkpoint, tmp_path, capsys, case):
        edit = MALFORMED_BINDINGS[case]
        path = tmp_path / "bad.ckpt"
        path.write_bytes(
            _rewrite_checkpoint_header(checkpoint.read_bytes(), lambda h: {**h, "graph_binding": edit(h["graph_binding"])})
        )
        code, err = self._recommend(cohort_dir, path, capsys)
        assert code == 4 and err.startswith("error: corrupt checkpoint header: 'graph_binding'")

    def test_two_layer_checkpoint_edited_to_one_layer_exits_4(self, cohort_dir, tmp_path, capsys):
        # The header's n_layers once decided how many layers were read, so the
        # second layer's weights were skipped and the model served layer 0
        # straight into the heads.
        path = tmp_path / "two.ckpt"
        model = init_model(load_csv_bundle(cohort_dir), Hyper(hidden_dim=8, n_layers=2), seed=3)
        save_model(model, path)
        assert self._recommend(cohort_dir, path, capsys)[0] == 0
        edited = _rewrite_checkpoint_header(path.read_bytes(), lambda h: {**h, "hyper": {**h["hyper"], "n_layers": 1}})
        path.write_bytes(edited)
        code, err = self._recommend(cohort_dir, path, capsys)
        assert code == 4
        assert err.startswith(
            "error: checkpoint weights do not follow from its header: weight 4 is layer1/encounter 8x8, expected head_med/w 8x"
        )

    def test_bytes_after_the_last_weight_exit_4(self, cohort_dir, checkpoint, tmp_path, capsys):
        path = tmp_path / "long.ckpt"
        path.write_bytes(checkpoint.read_bytes() + b"\0" * 8)
        code, err = self._recommend(cohort_dir, path, capsys)
        assert code == 4 and "8 bytes after its last weight" in err

    def test_truncated_weight_exits_4(self, cohort_dir, checkpoint, tmp_path, capsys):
        path = tmp_path / "short.ckpt"
        path.write_bytes(checkpoint.read_bytes()[:-8])
        code, err = self._recommend(cohort_dir, path, capsys)
        assert code == 4 and err == "error: checkpoint truncated in weight head_lab/b\n"

    def test_unchanged_header_still_loads(self, cohort_dir, checkpoint, tmp_path, capsys):
        path = tmp_path / "same.ckpt"
        path.write_bytes(_rewrite_checkpoint_header(checkpoint.read_bytes(), lambda h: h))
        assert self._recommend(cohort_dir, path, capsys)[0] == 0


class TestRecommendImpute:
    def test_recommend_lists_all_meds_descending(self, cohort_dir, checkpoint, capsys):
        code = main(
            [
                "recommend", "--checkpoint", str(checkpoint), "--data", str(cohort_dir),
                "--encounter", "E3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        ranked = [ln.split() for ln in lines[1:] if ln.strip()]
        assert len(ranked) == 8
        probs = [float(r[2]) for r in ranked]
        assert probs == sorted(probs, reverse=True)

    def test_unknown_encounter_exits_5(self, cohort_dir, checkpoint, capsys):
        code = main(
            [
                "recommend", "--checkpoint", str(checkpoint), "--data", str(cohort_dir),
                "--encounter", "E999",
            ]
        )
        assert code == 5
        capsys.readouterr()

    def test_impute_flags_observed_rows(self, cohort_dir, checkpoint, capsys):
        code = main(
            [
                "impute", "--checkpoint", str(checkpoint), "--data", str(cohort_dir),
                "--encounter", "E3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        flags = {ln.split()[-1] for ln in lines if ln.strip()}
        assert flags == {"observed", "imputed"}
        assert len(lines) == 10

    def test_impute_reads_only_the_queried_lab_row(self, cohort_dir, checkpoint, monkeypatch, capsys):
        import medgcn.cli as cli_mod
        from medgcn.graph import MedGraph

        args = ["impute", "--checkpoint", str(checkpoint), "--data", str(cohort_dir), "--encounter", "E3"]
        assert main(args) == 0
        expected = capsys.readouterr().out
        load = cli_mod.load_csv_bundle

        def refuse(graph):
            raise AssertionError("impute read the full normalized lab matrix")

        def load_then_refuse_full_reads(directory):
            graph = load(directory)
            monkeypatch.setattr(MedGraph, "a_el", property(refuse))
            return graph

        monkeypatch.setattr(cli_mod, "load_csv_bundle", load_then_refuse_full_reads)
        assert main(args) == 0
        assert capsys.readouterr().out == expected

    def test_inductive_matches_transductive(self, cohort_dir, checkpoint, tmp_path, capsys):
        args = [
            "recommend", "--checkpoint", str(checkpoint), "--data", str(cohort_dir),
            "--encounter", "E3",
        ]
        assert main(args) == 0
        base = capsys.readouterr().out
        new_rows = tmp_path / "new"
        new_rows.mkdir()
        (new_rows / "encounters.csv").write_text("encounter_id,patient_id\nX1,P0\n")
        assert main([*args, "--inductive", "--new-rows", str(new_rows)]) == 0
        inductive = capsys.readouterr().out
        base_probs = [float(ln.split()[2]) for ln in base.splitlines()[1:] if ln.strip()]
        ind_probs = [float(ln.split()[2]) for ln in inductive.splitlines()[1:] if ln.strip()]
        np.testing.assert_allclose(ind_probs, base_probs, atol=1e-6)

    def test_inductive_new_encounter_scores(self, cohort_dir, checkpoint, tmp_path, capsys):
        new_rows = tmp_path / "new"
        new_rows.mkdir()
        (new_rows / "encounters.csv").write_text("encounter_id,patient_id\nX1,P0\n")
        (new_rows / "lab_results.csv").write_text("encounter_id,lab_code,value\nX1,L1,0.7\n")
        code = main(
            [
                "impute", "--checkpoint", str(checkpoint), "--data", str(cohort_dir),
                "--encounter", "X1", "--inductive", "--new-rows", str(new_rows),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 10
        by_code = {ln.split()[0]: ln.split()[-1] for ln in lines if ln.strip()}
        assert by_code["L1"] == "observed"

    def test_inductive_without_rows_exits_2(self, cohort_dir, checkpoint, capsys):
        code = main(
            [
                "recommend", "--checkpoint", str(checkpoint), "--data", str(cohort_dir),
                "--encounter", "E3", "--inductive",
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_new_rows_without_inductive_exits_2(self, cohort_dir, checkpoint, tmp_path, capsys):
        new_rows = tmp_path / "new"
        new_rows.mkdir()
        (new_rows / "encounters.csv").write_text("encounter_id,patient_id\nX1,P0\n")
        code = main(
            [
                "recommend", "--checkpoint", str(checkpoint), "--data", str(cohort_dir),
                "--encounter", "X1", "--new-rows", str(new_rows),
            ]
        )
        assert code == 2
        assert "--inductive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "labs, message",
        [
            ("X1,L1,nan\n", "lab_results.csv:2: non-finite value"),
            ("X1,L1,inf\n", "lab_results.csv:2: non-finite value"),
            ("X1,L1,0.7\nX1,L1,0.8\n", "lab_results.csv:3: duplicate observation"),
        ],
    )
    def test_bad_new_lab_rows_cite_file_and_line(self, cohort_dir, checkpoint, tmp_path, capsys, labs, message):
        new_rows = tmp_path / "new"
        new_rows.mkdir()
        (new_rows / "encounters.csv").write_text("encounter_id,patient_id\nX1,P0\n")
        (new_rows / "lab_results.csv").write_text("encounter_id,lab_code,value\n" + labs)
        code = main(
            [
                "impute", "--checkpoint", str(checkpoint), "--data", str(cohort_dir),
                "--encounter", "X1", "--inductive", "--new-rows", str(new_rows),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("encounters.csv", b"encounter_id,patient_id\nX1,P\xff0\n", "encounters.csv: not UTF-8 text"),
            ("lab_results.csv", b"encounter_id,lab_code,value\nX1,L1,0.5\nX1,L2," + b"9" * 200_000 + b"\n",
             "lab_results.csv:3: field larger than field limit (131072)"),
        ],
    )
    def test_unreadable_new_rows_exit_2(self, cohort_dir, checkpoint, tmp_path, capsys, name, text, message):
        new_rows = tmp_path / "new"
        new_rows.mkdir()
        (new_rows / "encounters.csv").write_text("encounter_id,patient_id\nX1,P0\n")
        (new_rows / name).write_bytes(text)
        code = main(
            [
                "impute", "--checkpoint", str(checkpoint), "--data", str(cohort_dir),
                "--encounter", "X1", "--inductive", "--new-rows", str(new_rows),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_new_row_reusing_a_bundle_id_cites_file_and_line(self, cohort_dir, checkpoint, tmp_path, capsys):
        new_rows = tmp_path / "new"
        new_rows.mkdir()
        (new_rows / "encounters.csv").write_text("encounter_id,patient_id\nX1,P0\nE2,P0\n")
        code = main(
            [
                "recommend", "--checkpoint", str(checkpoint), "--data", str(cohort_dir),
                "--encounter", "X1", "--inductive", "--new-rows", str(new_rows),
            ]
        )
        assert code == 2
        assert "encounters.csv:3: duplicate encounter_id 'E2'" in capsys.readouterr().err

    def test_out_writes_prediction_csvs(self, cohort_dir, checkpoint, tmp_path, capsys):
        out = tmp_path / "preds"
        code = main(
            [
                "recommend", "--checkpoint", str(checkpoint), "--data", str(cohort_dir),
                "--encounter", "E3", "--out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        text = (out / "recommendations.csv").read_text().splitlines()
        assert text[0] == "encounter_id,med_code,probability,rank"
        assert len(text) == 9
        assert all(row.startswith("E3,") for row in text[1:])


@pytest.mark.parametrize("command", ["recommend", "impute", "evaluate"])
def test_every_command_keeps_freed_heap(cohort_dir, checkpoint, monkeypatch, capsys, tmp_path, command):
    calls = []
    monkeypatch.setattr(medgcn.cli, "keep_freed_heap", lambda: calls.append(command))
    args = ["--checkpoint", str(checkpoint), "--data", str(cohort_dir)]
    if command == "evaluate":
        args += ["--split-seed", "2", "--report", str(tmp_path / "eval.json")]
    else:
        args += ["--encounter", "E3"]
    assert main([command, *args]) == 0
    capsys.readouterr()
    assert calls == [command]
