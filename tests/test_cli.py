"""End-to-end CLI tests on a small synthetic dataset."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqclass import cli, featmap, qkernel
from vqclass.cli import SCHEMA, load_config, main
from vqclass.errors import ConfigError
from vqclass.synth import make_blobs, write_labeled_csv

SRC = Path(__file__).resolve().parents[1] / "src"
ARTIFACTS = [
    "model.json",
    "split_train.csv",
    "split_test.csv",
    "loss_history.csv",
    "metrics.json",
    "predictions.csv",
    "scatter2d.csv",
    "kernel_train.csv",
    "kernel_test.csv",
    "config_echo.json",
]


def small_config(tmp_path, out_name="run", maxiter=3, **overrides):
    data_path = tmp_path / "blobs.csv"
    if not data_path.exists():
        features, labels = make_blobs(16, 3, separation=4.0, seed=0)
        write_labeled_csv(str(data_path), features, labels)
    cfg = {
        "data": {"path": str(data_path), "label_column": "class", "positive_label": "pos"},
        "prep": {"pca_k": 2, "test_fraction": 0.25, "seed": 1},
        "feature_map": {"reps": 1, "entanglement": "full"},
        "ansatz": {"reps": 1, "entanglement": "linear"},
        "vqc": {"measured_qubits": [0, 1], "shots": None, "seed": 2},
        "spsa": {"maxiter": maxiter, "seed": 3},
        "output_dir": str(tmp_path / out_name),
    }
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / f"config_{out_name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestPipeline:
    def test_report_produces_all_artifacts(self, tmp_path):
        cfg_path = small_config(tmp_path)
        assert main(["report", "--config", str(cfg_path)]) == 0
        out = tmp_path / "run"
        for name in ARTIFACTS:
            assert (out / name).exists(), name

    def test_loss_history_has_header_and_maxiter_rows(self, tmp_path):
        cfg_path = small_config(tmp_path, maxiter=5)
        assert main(["report", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "run" / "loss_history.csv").read_text().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 6

    def test_predictions_schema_and_conservation(self, tmp_path):
        cfg_path = small_config(tmp_path)
        assert main(["report", "--config", str(cfg_path)]) == 0
        out = tmp_path / "run"
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "sample_id,p_ad,predicted,true"
        n_test = len(lines) - 1
        metrics = json.loads((out / "metrics.json").read_text())
        cm = metrics["ad_cohort"]["confusion"]
        assert cm["tp"] + cm["tn"] + cm["fp"] + cm["fn"] == n_test
        for line in lines[1:]:
            _, p_ad, predicted, true = line.split(",")
            assert 0.0 <= float(p_ad) <= 1.0
            assert predicted in ("AD", "NON_AD")
            assert (predicted == "AD") == (float(p_ad) >= 0.5)
            assert true in ("AD", "NON_AD")

    def test_kernel_shapes_and_unit_diagonal(self, tmp_path):
        cfg_path = small_config(tmp_path)
        assert main(["report", "--config", str(cfg_path)]) == 0
        out = tmp_path / "run"
        train_lines = (out / "kernel_train.csv").read_text().splitlines()
        test_lines = (out / "kernel_test.csv").read_text().splitlines()
        n_train = len(train_lines) - 1
        n_test = len(test_lines) - 1
        assert len(train_lines[0].split(",")) == n_train + 1
        assert len(test_lines[0].split(",")) == n_train + 1
        assert n_train + n_test == 16
        for i, line in enumerate(train_lines[1:]):
            values = [float(v) for v in line.split(",")[1:]]
            assert values[i] == pytest.approx(1.0, abs=1e-10)

    def test_kernel_encodes_each_split_once(self, tmp_path, monkeypatch):
        cfg_path = small_config(tmp_path)
        assert main(["prep", "--config", str(cfg_path)]) == 0
        rows = []

        def counting_encode(x, spec):
            rows.append(len(x))
            return featmap.encode(x, spec)

        for module in (cli, qkernel):  # wherever the kernel verb may look encode up
            if getattr(module, "encode", None) is featmap.encode:
                monkeypatch.setattr(module, "encode", counting_encode)
        assert main(["kernel", "--config", str(cfg_path)]) == 0
        assert sorted(rows) == [4, 12]  # the test split and the train split, once each

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = small_config(tmp_path, out_name="a", maxiter=4)
        cfg_b = small_config(tmp_path, out_name="b", maxiter=4)
        assert main(["report", "--config", str(cfg_a)]) == 0
        assert main(["report", "--config", str(cfg_b)]) == 0
        for name in ARTIFACTS:
            if name == "config_echo.json":
                continue  # embeds the differing output_dir by design
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_shot_rerun_is_byte_identical(self, tmp_path):
        vqc = {"measured_qubits": [0, 1], "shots": 64, "seed": 2}
        cfg_a = small_config(tmp_path, out_name="a", maxiter=4, vqc=vqc)
        cfg_b = small_config(tmp_path, out_name="b", maxiter=4, vqc=vqc)
        assert main(["report", "--config", str(cfg_a)]) == 0
        assert main(["report", "--config", str(cfg_b)]) == 0
        for name in ARTIFACTS:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            if name == "config_echo.json":
                a, b = json.loads(a), json.loads(b)
                assert a["vqc"]["shots"] == 64
                assert a.pop("output_dir") != b.pop("output_dir")
            assert a == b, name
        lines = (tmp_path / "a" / "predictions.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[1]) * 64 % 1 == 0 for line in lines)  # shot frequencies

    def test_scatter_covers_every_sample(self, tmp_path):
        cfg_path = small_config(tmp_path)
        assert main(["report", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "run" / "scatter2d.csv").read_text().splitlines()
        assert lines[0] == "sample_id,split,pc1,pc2,true,predicted"
        assert len(lines) - 1 == 16
        splits = {line.split(",")[1] for line in lines[1:]}
        assert splits == {"train", "test"}


class TestGuards:
    @pytest.mark.parametrize("verb", ["prep", "train", "eval", "kernel"])
    def test_refuses_overwrite_without_force(self, tmp_path, capsys, verb):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        for earlier in list(cli.ARTIFACTS)[:list(cli.ARTIFACTS).index(verb)]:
            assert main([earlier, "--config", str(cfg_path)]) == 0
        # the verb's last file: all of them are checked before any is written
        taken = out / cli.ARTIFACTS[verb][-1]
        taken.write_text("taken\n", encoding="utf-8")
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert main([verb, "--config", str(cfg_path)]) == 1
        assert f"refusing to overwrite existing artifact {taken}" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert main([verb, "--config", str(cfg_path), "--force"]) == 0
        assert taken.read_text(encoding="utf-8") != "taken\n"

    def test_report_refuses_stale_echo_before_prep(self, tmp_path, capsys):
        # the echo was checked only after prep, train, eval and kernel had written
        cfg_path = small_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        (out / "config_echo.json").write_text('{"stale": true}\n', encoding="utf-8")
        assert main(["report", "--config", str(cfg_path)]) == 1
        assert f"{out / 'config_echo.json'}; pass --force" in capsys.readouterr().err
        assert [path.name for path in out.iterdir()] == ["config_echo.json"]
        assert (out / "config_echo.json").read_text(encoding="utf-8") == '{"stale": true}\n'

    @pytest.mark.parametrize("section, key", [
        ("spsa", "a"), ("spsa", "maxiter"), ("prep", "seed"), ("prep", "test_fraction"),
        ("data", "label_column"), ("vqc", "measured_qubits"),
    ])
    def test_config_error_quotes_a_bounded_value(self, tmp_path, capsys, section, key):
        # each parser's message quotes at most 120 characters of a huge bad value
        cfg_path = small_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg[section][key] = ["x" * 10_000] if key == "label_column" else "x" * 10_000
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["prep", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"{section}.{key} must be" in err and "'xxxx" in err
        assert len(err) < 300, len(err)

    @staticmethod
    def imports_numpy_ma(cfg_path, verbs):
        """Whether a fresh process that runs ``verbs`` on ``cfg_path`` imports numpy.ma."""
        script = ("import sys\nfrom vqclass.cli import main\n"
                  f"for verb in {verbs!r}:\n"
                  f"    assert main([verb, '--config', {str(cfg_path)!r}]) == 0\n"
                  "print('numpy.ma' in sys.modules)")
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                               text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        return child.stdout.strip() == "True"

    def test_prep_and_train_do_not_import_numpy_ma(self, tmp_path):
        # np.unique on the labels imported numpy.ma, about 11 ms of every fresh process
        assert not self.imports_numpy_ma(small_config(tmp_path), ("prep", "train"))

    def test_report_does_not_import_numpy_ma(self, tmp_path):
        # nor does the whole pipeline: metrics.full_report's np.unique on the labels did
        assert not self.imports_numpy_ma(small_config(tmp_path), ("report",))

    def test_output_dir_that_is_a_file(self, tmp_path, capsys):
        # a config error, even with --force
        (tmp_path / "taken").write_text("", encoding="utf-8")
        cfg_path = small_config(tmp_path, out_name="taken")
        assert main(["prep", "--config", str(cfg_path), "--force"]) == 1
        assert f"output_dir {tmp_path / 'taken'} is not a directory" in capsys.readouterr().err

    def test_missing_input_file_names_path(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["data"]["path"] = str(tmp_path / "missing.csv")
        cfg_path.write_text(json.dumps(cfg))
        assert main(["prep", "--config", str(cfg_path)]) == 1
        assert "missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["config-dir", "config-not-utf8", "config-deep",
                                        "data-dir"])
    def test_unreadable_file_names_path(self, tmp_path, capsys, damage):
        # each exited 2 with a traceback
        cfg_path = small_config(tmp_path)
        if damage == "config-dir":
            cfg_path = bad = tmp_path / "config_dir.json"
            bad.mkdir()
        elif damage == "config-not-utf8":
            bad = cfg_path
            cfg_path.write_bytes(b'{"output_dir": "\xff"}')
        elif damage == "config-deep":
            bad = cfg_path
            cfg_path.write_text("[" * 100_000, encoding="utf-8")
        else:
            bad = tmp_path / "data_dir"
            bad.mkdir()
            cfg = json.loads(cfg_path.read_text())
            cfg["data"]["path"] = str(bad)
            cfg_path.write_text(json.dumps(cfg))
        assert main(["prep", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize("damage", ["not-utf8", "long-string"])
    def test_unreadable_model_message_is_bounded(self, tmp_path, capsys, damage):
        # a model.json of 1,617 bytes with one \xff byte gave a 1,856-character message
        cfg_path = small_config(tmp_path)
        assert main(["prep", "--config", str(cfg_path)]) == 0
        model_path = tmp_path / "run" / "model.json"
        text = model_path.read_text(encoding="utf-8")
        if damage == "not-utf8":
            model_path.write_bytes(text.encode() + b"\xff" + b" " * 10_000)
        else:
            model = json.loads(text)
            model["prep"]["pca"]["mean"][0] = "x" * 10_000
            model_path.write_text(json.dumps(model), encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert str(model_path) in err and "Traceback" not in err
        assert len(err) < 300, err

    def test_pca_k_too_large(self, tmp_path):
        cfg_path = small_config(tmp_path, prep={"pca_k": 9, "test_fraction": 0.25, "seed": 1})
        assert main(["prep", "--config", str(cfg_path)]) == 1

    def test_train_requires_prep(self, tmp_path):
        cfg_path = small_config(tmp_path, out_name="fresh")
        assert main(["train", "--config", str(cfg_path)]) == 1

    def test_eval_requires_train(self, tmp_path):
        cfg_path = small_config(tmp_path)
        assert main(["prep", "--config", str(cfg_path)]) == 0
        assert main(["eval", "--config", str(cfg_path)]) == 1

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = small_config(tmp_path, bogus={"x": 1})
        assert main(["prep", "--config", str(cfg_path)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["prep", "--config", str(tmp_path / "none.json")]) == 1

    def test_huge_config_integer_rejected(self, tmp_path, capsys):
        # past Python's 4,300-digit limit json.load raised a bare ValueError: exit 2
        cfg_path = small_config(tmp_path)
        text = cfg_path.read_text(encoding="utf-8").replace('"pca_k": 2', '"pca_k": ' + "9" * 5_000)
        cfg_path.write_text(text, encoding="utf-8")
        assert main(["prep", "--config", str(cfg_path)]) == 1
        assert f"cannot read config file {cfg_path}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("prep", {"pca_k": True}, "prep.pca_k"),  # a bool is not a qubit count
            ("prep", {"pca_k": 4.9}, "prep.pca_k"),  # was truncated to 4 qubits
            ("spsa", {"maxiter": 3, "seed": 3, "a": float("nan")}, "spsa.a"),
            ("spsa", {"maxiter": 10**400, "seed": 3}, "spsa.maxiter"),  # overflows a float
            # every section is validated before any verb writes an artifact
            ("vqc", {"measured_qubits": [0, 7]}, "measured_qubits"),  # only 2 qubits
            ("vqc", {"eval_shots": 0}, "vqc.eval_shots"),  # failed only after training
            ("data", {"path": "blobs.csv", "label_column": None, "positive_label": "pos"},
             "data.label_column"),  # was read as the column "None"
            ("prep", {"pca_k": 2, "seed": -1}, "prep.seed"),  # exited 2 in numpy's seeding
            ("spsa", {"maxiter": 3, "seed": -1}, "spsa.seed"),  # same, after prep had written
            ("prep", {"pca_k": 2, "test_fraction": 1.5}, "prep.test_fraction"),
            ("prep", {"pca_k": 25}, "n_qubits must be in"),  # failed in train, after prep wrote
            # each message names the config key at fault
            ("ansatz", {"reps": 0}, "ansatz: reps must be >= 1"),
            ("feature_map", {"reps": 0}, "feature_map: reps must be >= 1"),
            ("prep", {"pca_k": 25}, "prep.pca_k: n_qubits must be in"),
            ("spsa", {"alpha": 2.0}, "spsa: need 0 < gamma < alpha"),
            # beyond a C long: numpy's binomial draw raised OverflowError, exit 2
            ("vqc", {"shots": 2**63}, "vqc: shots"),
            ("vqc", {"eval_shots": 2**63}, "vqc.eval_shots"),  # and only after training
            # exited 2 in numpy's allocation, or never finished, after prep had written
            ("spsa", {"maxiter": 2**70, "seed": 3}, "spsa: maxiter = 1180591620717411303424"),
            ("ansatz", {"reps": 2**70}, "ansatz: reps = 1180591620717411303424"),
            ("feature_map", {"reps": 2**70}, "feature_map: reps must be <= 1126 at n=2"),
        ],
    )
    def test_non_strict_numbers_rejected(self, tmp_path, capsys, section, value, message):
        cfg_path = small_config(tmp_path, **{section: value})
        with pytest.raises(ConfigError, match=message):
            load_config(str(cfg_path))
        assert main(["prep", "--config", str(cfg_path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_eval_shots_defaults_to_shots(self, tmp_path):
        cfg_path = small_config(tmp_path, vqc={"shots": 64, "seed": 2})
        cfg = load_config(str(cfg_path))
        assert cfg.values["vqc.eval_shots"] == 64
        assert cfg.vqc.shots == cfg.eval_vqc.shots == 64

    def test_load_config_validates_sections(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"output_dir": "x", "vqc": {"bad_key": 1},
                                    "data": {"path": "d", "label_column": "c",
                                             "positive_label": "p"}}))
        with pytest.raises(ConfigError, match="bad_key"):
            load_config(str(path))


# model.json's numeric leaves, and the values no leaf may hold
NUMERIC_KEYS = ["prep.pca.mean", "prep.pca.components", "prep.pca.explained_variance",
                "prep.minmax.min", "prep.minmax.max", "params"]
BAD_LEAVES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # a numeric string
    st.booleans(),
    st.none(),
    st.sampled_from([10**400, -(10**400)]),  # beyond the float range
    st.lists(st.floats(0, 1), max_size=2),
    st.dictionaries(st.text(max_size=2), st.floats(0, 1), max_size=2),
)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A config and its output directory after prep and train."""
    tmp_path = tmp_path_factory.mktemp("trained")
    cfg_path = small_config(tmp_path)
    assert main(["prep", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path, tmp_path / "run"


class TestProvenance:
    """prep records the config and the input's sha256; the later verbs check both."""

    @pytest.mark.parametrize(
        "change, rc, message",
        [
            ({"ansatz": {"reps": 1, "entanglement": "linear"}}, 1, "'ansatz.entanglement'"),
            ({"feature_map": {"reps": 2, "entanglement": "full"}}, 1, "'feature_map.reps'"),
            ({"vqc": {"measured_qubits": [0, 1], "shots": None, "seed": 5}}, 1, "'vqc.seed'"),
            ("swap_csv", 1, "changed since prep"),  # same row count, other values
            ({"vqc": {"measured_qubits": [0, 1], "shots": None, "eval_shots": 64, "seed": 2}},
             0, ""),  # eval_shots may change after training
        ],
        ids=["ansatz-entanglement", "feature-map-reps", "vqc-seed", "csv", "eval-shots-only"],
    )
    def test_drift_after_prep(self, tmp_path, capsys, change, rc, message):
        base = {"ansatz": {"reps": 1, "entanglement": "full"}}
        cfg_path = small_config(tmp_path, **base)
        assert main(["prep", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
        if change == "swap_csv":
            features, labels = make_blobs(16, 3, separation=4.0, seed=9)
            write_labeled_csv(str(tmp_path / "blobs.csv"), features, labels)
        else:
            cfg_path = small_config(tmp_path, **{**base, **change})
        capsys.readouterr()
        for verb in (["train", "--force"], ["eval"], ["kernel"]):
            assert main([verb[0], "--config", str(cfg_path), *verb[1:]]) == rc, verb
            assert message in capsys.readouterr().err

    def test_forced_prep_leaves_no_artifact_of_the_earlier_run(self, tmp_path):
        # the earlier run's loss history, metrics, kernels and echo outlived
        # prep --force, and the train below refused to overwrite them
        assert main(["report", "--config", str(small_config(tmp_path, maxiter=20))]) == 0
        first = {path.name: path.read_bytes() for path in (tmp_path / "run").iterdir()}
        cfg_path = small_config(tmp_path, maxiter=5, ansatz={"reps": 2, "entanglement": "full"})
        assert main(["prep", "--config", str(cfg_path), "--force"]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "run"
        assert sorted(p.name for p in out.iterdir()) == sorted(
            cli.ARTIFACTS["prep"] + cli.ARTIFACTS["train"])
        assert len((out / "loss_history.csv").read_text().splitlines()) == 1 + 5
        model = json.loads((out / "model.json").read_text())
        assert model["config"]["spsa.maxiter"] == 5 and len(model["params"]) == 12
        for name in ("model.json", "loss_history.csv"):
            assert (out / name).read_bytes() != first[name], name

    def test_forced_train_removes_what_was_made_from_the_old_params(self, tmp_path):
        cfg_path = small_config(tmp_path)
        assert main(["report", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path), "--force"]) == 0
        left = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert left == sorted(cli.ARTIFACTS["prep"] + cli.ARTIFACTS["train"]
                              + cli.ARTIFACTS["kernel"])  # the kernels need no params

    def test_stale_artifact_refused_before_any_removal(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path)
        assert main(["report", "--config", str(cfg_path)]) == 0
        out = tmp_path / "run"
        for name in cli.ARTIFACTS["prep"]:
            (out / name).unlink()
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert main(["prep", "--config", str(cfg_path)]) == 1
        stale = out / "loss_history.csv"
        assert f"remove prep's downstream artifact {stale}; pass --force" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize(
        "damage",
        ["unparsable", "split", "prep", "ids", "float-id", "bool-id", "leaked-id",
         "short-component", "short-minmax", "nan-mean", "empty-train", "empty-test",
         "missing-variance", "string-min", "numeric-string-min", "bool-max", "huge-mean",
         "directory", "deep"],
    )
    def test_bad_model_file(self, tmp_path, capsys, damage):
        cfg_path = small_config(tmp_path)
        assert main(["prep", "--config", str(cfg_path)]) == 0
        model_path = tmp_path / "run" / "model.json"
        if damage == "unparsable":
            model_path.write_text("{not json", encoding="utf-8")
        elif damage == "directory":  # exited 2 in the read
            model_path.unlink()
            model_path.mkdir()
        elif damage == "deep":  # exited 2 in the JSON parser's recursion
            model_path.write_text("[" * 100_000, encoding="utf-8")
        else:
            model = json.loads(model_path.read_text())
            split, pca = model["split"], model["prep"]["pca"]
            if damage == "ids":  # a negative id would silently index from the end
                split["test_ids"][0] = -1
            elif damage == "float-id":  # was truncated to 1
                split["test_ids"][0] = 1.7
            elif damage == "bool-id":  # was read as 1
                split["test_ids"][0] = True
            elif damage == "leaked-id":  # a test row also trained on
                split["test_ids"][0] = split["train_ids"][0]
            elif damage == "short-component":  # exited 2 in a numpy broadcast
                pca["components"] = [row[:-1] for row in pca["components"]]
            elif damage == "short-minmax":  # same
                model["prep"]["minmax"]["min"].pop()
            elif damage == "nan-mean":  # was blamed on the encoder's input range
                pca["mean"][0] = float("nan")
            elif damage == "missing-variance":
                del pca["explained_variance"]
            elif damage == "string-min":
                model["prep"]["minmax"]["min"][0] = "x"
            elif damage == "numeric-string-min":  # numpy read it as a float
                model["prep"]["minmax"]["min"][0] = "0.5"
            elif damage == "bool-max":  # and this as 1.0
                model["prep"]["minmax"]["max"][0] = True
            elif damage == "huge-mean":  # exited 2: an int beyond the float range
                pca["mean"][0] = 10**400
            elif damage == "empty-train":
                split["train_ids"] = []
            elif damage == "empty-test":  # kernel wrote a header-only kernel_test.csv
                split["test_ids"] = []
            else:
                del model[damage]
            model_path.write_text(json.dumps(model), encoding="utf-8")
        for verb in ("train", "eval", "kernel"):
            assert main([verb, "--config", str(cfg_path)]) == 1
            err = capsys.readouterr().err
            assert str(model_path) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "params",
        [
            [float("nan")] * 8,  # surfaced as a length/finiteness error inside auroc
            ["0.5"] * 8,  # numpy read the strings as floats
            [True] * 8,  # and the bools as 1.0
            [0.5] * 7,  # one short of the 8 parameters
            "0.5",
        ],
        ids=["nan", "strings", "bools", "short", "not-a-list"],
    )
    def test_eval_rejects_bad_params(self, tmp_path, capsys, params):
        cfg_path = small_config(tmp_path)
        assert main(["prep", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
        model_path = tmp_path / "run" / "model.json"
        model = json.loads(model_path.read_text())
        assert len(model["params"]) == 8
        model["params"] = params
        model_path.write_text(json.dumps(model), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"{model_path} params" in err and "rerun train --force" in err
        assert not (tmp_path / "run" / "metrics.json").exists()

    @given(key=st.sampled_from(NUMERIC_KEYS), row=st.integers(0, 9), col=st.integers(0, 9),
           leaf=BAD_LEAVES)
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_bad_model_number(self, trained_run, key, row, col, leaf):
        # one leaf of a stored array replaced; every verb that reads it refuses
        # with the file and the key, and leaves the directory as it found it
        cfg_path, out = trained_run
        model_path = out / "model.json"
        good = model_path.read_bytes()
        model = json.loads(good)
        values = model
        for part in key.split("."):
            values = values[part]
        if isinstance(values[0], list):  # prep.pca.components: pick a row
            values = values[row % len(values)]
        values[col % len(values)] = leaf
        model_path.write_text(json.dumps(model), encoding="utf-8")
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        try:
            for verb in ("eval",) if key == "params" else ("train", "eval", "kernel"):
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    assert main([verb, "--config", str(cfg_path), "--force"]) == 1, verb
                assert f"{model_path} {key}: " in err.getvalue(), verb
                assert "Traceback" not in err.getvalue(), verb
                assert {path.name: path.read_bytes() for path in out.iterdir()} == before, verb
        finally:
            model_path.write_bytes(good)

    def test_failed_write_leaves_no_artifact(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("simulated failure")

        cfg_path = small_config(tmp_path)
        monkeypatch.setattr(os, "replace", fail)
        assert main(["prep", "--config", str(cfg_path)]) == 1
        assert list((tmp_path / "run").iterdir()) == []  # no artifact, no temp file

    def test_unmakeable_output_dir_exits_1(self, tmp_path, monkeypatch, capsys):
        def fail(self, *args, **kwargs):
            raise PermissionError("simulated denial")

        cfg_path = small_config(tmp_path)
        monkeypatch.setattr(Path, "mkdir", fail)
        assert main(["prep", "--config", str(cfg_path)]) == 1
        assert "simulated denial" in capsys.readouterr().err

    def test_config_echo_is_the_resolved_schema(self, tmp_path):
        cfg_path = small_config(tmp_path)
        assert main(["report", "--config", str(cfg_path)]) == 0
        echo = json.loads((tmp_path / "run" / "config_echo.json").read_text())
        flat = {f"{s}.{k}": v for s, sec in echo.items() if isinstance(sec, dict)
                for k, v in sec.items()}
        assert [*flat, "output_dir"] == list(SCHEMA)
        assert flat == {k: v for k, v in load_config(str(cfg_path)).values.items()
                        if k != "output_dir"}


def readme_section(title):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"### {title}\n", 1)[1].split("\n#", 1)[0]


def test_readme_config_table_matches_schema():
    section = readme_section("Config reference")
    assert re.findall(r"^\| `([^`]+)` \|", section, flags=re.M) == list(SCHEMA)


def test_readme_artifacts_table_matches_artifacts():
    first_cells = re.findall(r"^\| ([^|]+) \|", readme_section("Artifacts"), flags=re.M)
    listed = [name for cell in first_cells for name in re.findall(r"`([^`]+)`", cell)]
    assert listed == [name for names in cli.ARTIFACTS.values() for name in names]


class TestSingleClassEval:
    def test_auroc_null_with_diagnostic(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path, maxiter=2)
        assert main(["prep", "--config", str(cfg_path)]) == 0
        # doctor the split so the held-out rows are single-class
        model_path = tmp_path / "run" / "model.json"
        model = json.loads(model_path.read_text())
        data_lines = (tmp_path / "blobs.csv").read_text().splitlines()[1:]
        pos_ids = [i for i, line in enumerate(data_lines) if line.endswith(",pos")]
        neg_ids = [i for i in range(len(data_lines)) if i not in pos_ids]
        model["split"]["test_ids"] = pos_ids[:3]
        model["split"]["train_ids"] = sorted(pos_ids[3:] + neg_ids)
        model_path.write_text(json.dumps(model))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["eval", "--config", str(cfg_path)]) == 0
        err = capsys.readouterr().err
        assert "AUROC" in err
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert metrics["ad_cohort"]["auroc"] is None
