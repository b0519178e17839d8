import json
import os
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from fcnndepth.cli import _build_parser, main
from fcnndepth.fileio import read_depth_raster, write_ppm
from fcnndepth.metrics import compute_metrics
from fcnndepth.models import build_model, preset, random_weights
from fcnndepth.synthetic import generate_corpus
from fcnndepth.tensor import Tensor4
from fcnndepth.weights_io import save_weights


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small naive up-convolution model, its weights file, and one input image."""
    root = tmp_path_factory.mktemp("cli")
    spec = preset("lite-upconv", input_h=48, input_w=64, width_div=16)
    graph = build_model(spec)
    weights = random_weights(graph, seed=5)
    weights_path = root / "lite.fcnw"
    save_weights(weights, weights_path)
    rng = np.random.default_rng(6)
    image_path = root / "input.ppm"
    write_ppm(image_path, rng.integers(0, 256, (48, 64, 3), dtype=np.uint8))
    return {"root": root, "graph": graph, "weights": weights,
            "weights_path": weights_path, "image_path": image_path}


class TestInferCommand:
    def test_writes_matching_raster(self, workspace, tmp_path):
        out = tmp_path / "depth.dpth"
        code = main([
            "infer", "--model", "lite-upconv", "--width-div", "16",
            "--weights", str(workspace["weights_path"]),
            "--input", str(workspace["image_path"]), "--output", str(out),
        ])
        assert code == 0
        depth = read_depth_raster(out)
        assert depth.shape == (48, 64)

    def test_deterministic_output_bytes(self, workspace, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.dpth"
            assert main([
                "infer", "--model", "lite-upconv", "--width-div", "16",
                "--weights", str(workspace["weights_path"]),
                "--input", str(workspace["image_path"]), "--output", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_weight_exits_2_naming_layer(self, workspace, tmp_path, capsys):
        weights = random_weights(workspace["graph"], seed=5)
        del weights.entries["dec.b2.up5x5"]
        broken = tmp_path / "broken.fcnw"
        save_weights(weights, broken)
        code = main([
            "infer", "--model", "lite-upconv", "--width-div", "16",
            "--weights", str(broken),
            "--input", str(workspace["image_path"]), "--output", str(tmp_path / "o.dpth"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: layer 'dec.b2.up5x5': missing weight entry (1 missing in total)\n")

    def test_missing_file_exits_2(self, workspace, tmp_path):
        code = main([
            "infer", "--model", "lite-upconv",
            "--weights", str(tmp_path / "nope.fcnw"),
            "--input", str(workspace["image_path"]), "--output", str(tmp_path / "o.dpth"),
        ])
        assert code == 2

    def test_usage_error_exits_2(self):
        assert main(["infer", "--model", "not-a-preset"]) == 2

    def test_calls_in_a_row_get_their_own_arguments(self, workspace, tmp_path, capsys):
        infer_args = ["infer", "--model", "lite-upconv", "--weights", str(workspace["weights_path"]),
                      "--input", str(workspace["image_path"])]
        assert main(infer_args + ["--width-div", "16", "--output", str(tmp_path / "a.dpth")]) == 0
        assert main(["gen-synthetic", "--count", "1", "--resolution", "8x8",
                     "--out", str(tmp_path / "syn"), "--seed", "3"]) == 0
        assert sorted(p.name for p in (tmp_path / "syn").iterdir()) == [
            "scene_0000.dpth", "scene_0000.ppm"]
        # --width-div is back at its default 8, which the width /16 weights do not fit
        assert main(infer_args + ["--output", str(tmp_path / "b.dpth")]) == 2
        assert "kernel shape" in capsys.readouterr().err
        assert not (tmp_path / "b.dpth").exists()


class TestVerifyCommand:
    def test_passes_and_reports(self, capsys):
        assert main(["verify", "--seeds", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "float32" in out and "float64" in out

    def test_fault_injection_fails(self, capsys):
        assert main(["verify", "--seeds", "3", "--inject-fault"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_seed_validation(self, capsys):
        assert main(["verify", "--seeds", "0"]) == 2
        assert capsys.readouterr().err == "error: --seeds must be >= 1\n"


class TestEvalCommand:
    def test_identical_dirs_give_perfect_metrics(self, tmp_path, capsys):
        gt = tmp_path / "gt"
        generate_corpus(gt, 3, 16, 12, seed=0)
        pred = tmp_path / "pred"
        pred.mkdir()
        for p in gt.glob("*.dpth"):
            shutil.copy(p, pred / p.name)
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "eval"
        assert doc["pairs"] == 3
        assert doc["mse"] == 0.0
        assert doc["delta1"] == 1.0

    def test_matches_compute_metrics(self, tmp_path, capsys):
        from fcnndepth.fileio import write_depth_raster

        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        rng = np.random.default_rng(1)
        truth = rng.uniform(0.5, 5.0, (6, 7)).astype(np.float32)
        pred = (truth + rng.normal(0, 0.4, truth.shape)).astype(np.float32)
        write_depth_raster(gt_dir / "x.dpth", truth)
        write_depth_raster(pred_dir / "x.dpth", pred)
        assert main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir)]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = compute_metrics(
            Tensor4(pred.reshape(1, -1, 1, 1)), Tensor4(truth.reshape(1, -1, 1, 1))
        )
        for key, value in expected.as_dict().items():
            assert doc[key] == value

    def test_nan_prediction_exits_2_without_json(self, tmp_path, capsys):
        gt = tmp_path / "gt"
        generate_corpus(gt, 1, 5, 4, seed=0)
        pred = tmp_path / "pred"
        pred.mkdir()
        (name,) = [p.name for p in gt.glob("*.dpth")]
        blob = bytearray((gt / name).read_bytes())
        blob[13:17] = np.array(np.nan, dtype="<f4").tobytes()
        (pred / name).write_bytes(bytes(blob))
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite value nan at (row, col) = (0, 0)" in captured.err

    def test_zero_size_raster_exits_2_naming_file(self, tmp_path, capsys):
        gt = tmp_path / "gt"
        generate_corpus(gt, 1, 5, 4, seed=0)
        pred = tmp_path / "pred"
        pred.mkdir()
        (name,) = [p.name for p in gt.glob("*.dpth")]
        (pred / name).write_bytes(b"DPTH\x01" + (0).to_bytes(4, "little") + (3).to_bytes(4, "little"))
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{name}: empty raster, header says 0x3 values" in captured.err

    def test_disjoint_sets_exit_2(self, tmp_path, capsys):
        gt = tmp_path / "gt"
        generate_corpus(gt, 2, 8, 8, seed=0)
        pred = tmp_path / "pred"
        generate_corpus(pred, 3, 8, 8, seed=0)
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
        assert capsys.readouterr().err == (
            "error: prediction/ground-truth sets differ "
            "(only in pred: ['scene_0002.dpth'], only in gt: [])\n")

    def test_shape_mismatch_exits_2_naming_file(self, tmp_path, capsys):
        gt = tmp_path / "gt"
        generate_corpus(gt, 2, 8, 8, seed=0)
        pred = tmp_path / "pred"
        generate_corpus(pred, 2, 16, 8, seed=0)
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scene_0000.dpth: shape mismatch (8, 16) vs (8, 8)\n"


class TestGenSyntheticCommand:
    def test_deterministic_corpus(self, tmp_path):
        for tag in ("a", "b"):
            assert main([
                "gen-synthetic", "--count", "4", "--resolution", "16x12",
                "--out", str(tmp_path / tag), "--seed", "9",
            ]) == 0
        for pa in sorted((tmp_path / "a").iterdir()):
            pb = tmp_path / "b" / pa.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_writes_expected_files(self, tmp_path):
        assert main([
            "gen-synthetic", "--count", "2", "--resolution", "8x8",
            "--out", str(tmp_path / "c"), "--seed", "0",
        ]) == 0
        names = sorted(p.name for p in (tmp_path / "c").iterdir())
        assert names == ["scene_0000.dpth", "scene_0000.ppm",
                         "scene_0001.dpth", "scene_0001.ppm"]

    def test_negative_count_rejected(self, tmp_path, capsys):
        assert main([
            "gen-synthetic", "--count", "-2", "--resolution", "8x8",
            "--out", str(tmp_path / "d"),
        ]) == 2
        assert capsys.readouterr().err == "error: count must be >= 0, got -2\n"
        assert not (tmp_path / "d").exists()


class TestConvertCommand:
    def test_convert_then_infer_matches(self, workspace, tmp_path):
        fast_weights = tmp_path / "fast.fcnw"
        assert main([
            "convert", "--weights", str(workspace["weights_path"]),
            "--out", str(fast_weights),
        ]) == 0
        naive_out = tmp_path / "naive.dpth"
        fast_out = tmp_path / "fast.dpth"
        assert main([
            "infer", "--model", "lite-upconv", "--width-div", "16",
            "--weights", str(workspace["weights_path"]),
            "--input", str(workspace["image_path"]), "--output", str(naive_out),
        ]) == 0
        assert main([
            "infer", "--model", "lite-upconv-fast", "--width-div", "16",
            "--weights", str(fast_weights),
            "--input", str(workspace["image_path"]), "--output", str(fast_out),
        ]) == 0
        diff = np.abs(read_depth_raster(naive_out) - read_depth_raster(fast_out))
        assert diff.max() <= 1e-4

    def test_converting_fast_container_exits_2(self, workspace, tmp_path, capsys):
        fast_weights = tmp_path / "fast.fcnw"
        assert main([
            "convert", "--weights", str(workspace["weights_path"]),
            "--out", str(fast_weights),
        ]) == 0
        assert main([
            "convert", "--weights", str(fast_weights), "--out", str(tmp_path / "x.fcnw"),
        ]) == 2
        assert "no naive" in capsys.readouterr().err


class TestBenchCommand:
    def test_block_report_schema_and_macs(self, capsys):
        code = main([
            "bench", "--block", "upconv_naive", "--block", "upconv_fast",
            "--resolution", "6x6", "--channels", "8:8", "--iters", "10", "--warmup", "1",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "bench"
        by_name = {t["name"]: t for t in doc["targets"]}
        assert set(by_name) == {"upconv_naive", "upconv_fast"}
        for t in by_name.values():
            assert t["iters"] == 10
            assert t["min_s"] <= t["p50_s"] <= t["p95_s"]
        assert by_name["upconv_fast"]["macs"] < by_name["upconv_naive"]["macs"]

    def test_report_records_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        code = main([
            "bench", "--block", "upconv_fast", "--resolution", "4x4",
            "--channels", "4:4", "--iters", "10", "--warmup", "0",
        ])
        assert code == 0
        env = json.loads(capsys.readouterr().out)["env"]
        assert set(env) == {
            "numpy_version", "blas_name", "blas_version", "cpu_count",
            "openblas_num_threads", "omp_num_threads",
        }
        assert env["numpy_version"] == np.__version__
        assert env["cpu_count"] == os.cpu_count()
        assert env["openblas_num_threads"] == "1"
        assert env["omp_num_threads"] is None

    def test_model_report(self, capsys):
        code = main([
            "bench", "--model", "lite-upconv", "--resolution", "32x32",
            "--width-div", "16", "--iters", "10", "--warmup", "0",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        (target,) = doc["targets"]
        assert target["name"] == "lite-upconv"
        assert target["resolution"] == "32x32"
        assert target["macs"] > 0

    def test_any_decoder_block(self, capsys):
        code = main([
            "bench", "--block", "deconv", "--resolution", "4x4",
            "--channels", "4:4", "--iters", "10", "--warmup", "0",
        ])
        assert code == 0
        (target,) = json.loads(capsys.readouterr().out)["targets"]
        assert (target["name"], target["resolution"]) == ("deconv", "4x4x4->4")

    @pytest.mark.parametrize("argv, message", [
        (["bench", "--resolution", "4"], "argument --resolution: expected WxH, got '4'"),
        (["bench", "--resolution", "4x"], "argument --resolution: expected WxH, got '4x'"),
        (["bench", "--resolution", "axb"], "argument --resolution: expected WxH, got 'axb'"),
        (["bench", "--resolution", "4x4x4"], "argument --resolution: expected WxH, got '4x4x4'"),
        (["bench", "--resolution", "0x4"],
         "argument --resolution: resolution must be positive, got '0x4'"),
        (["bench", "--resolution", "4x-1"],
         "argument --resolution: resolution must be positive, got '4x-1'"),
        (["bench", "--channels", "4"], "argument --channels: expected CIN:COUT, got '4'"),
        (["bench", "--channels", "a:b"], "argument --channels: expected CIN:COUT, got 'a:b'"),
        (["bench", "--channels", "4x4"], "argument --channels: expected CIN:COUT, got '4x4'"),
        (["bench", "--channels", "4:4:4"], "argument --channels: expected CIN:COUT, got '4:4:4'"),
        (["bench", "--channels", "4:0"], "argument --channels: channels must be positive, got '4:0'"),
        (["gen-synthetic", "--out", "unused", "--resolution", "8x0"],
         "argument --resolution: resolution must be positive, got '8x0'"),
    ])
    def test_bad_sizes_rejected_with_message(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(f"fcnndepth {argv[0]}: error: {message}\n")

    def test_too_few_iters_rejected(self, capsys):
        assert main(["bench", "--block", "upconv_fast", "--iters", "3"]) == 2

    def test_negative_warmup_rejected(self, capsys):
        assert main(["bench", "--block", "upconv_fast", "--resolution", "4x4",
                     "--channels", "4:4", "--warmup", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: warmup must be >= 0, got -3\n")

    def test_no_targets_rejected(self, capsys):
        assert main(["bench"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: nothing to benchmark; pass --model and/or --block\n"


def readme_commands() -> list[list[str]]:
    """Arguments of every `fcnndepth ...` line in README.md's sh blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["fcnndepth"]:
                commands.append(argv[1:])
    return commands


def test_readme_command_lines_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "gen-synthetic", "infer", "convert", "verify", "eval", "bench",
    }
    for argv in commands:
        _build_parser().parse_args(argv)  # exits on an unknown flag or choice
