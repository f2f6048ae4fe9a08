import hashlib
import json
import os
import platform
import shlex
import struct
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from urlknet import Tensor4, build_named, forward, model_astype
from urlknet import cli
from urlknet.cli import build_parser, main
from urlknet.container import MAGIC, load_tensor, save_model
from urlknet.dataio import write_raw_array


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestVerify:
    def test_model_verify_passes(self, capsys):
        code, report = run(capsys, ["verify", "--model", "A", "--trials", "2"])
        assert code == 0
        assert report["schema_version"] == 1
        assert report["pass"] is True
        assert report["max_rel_err"] <= 1e-9
        names = [c["name"] for c in report["checks"]]
        assert "model" in names and "stage2.block0" in names

    def test_zero_tolerance_fails(self, capsys):
        code, report = run(capsys, ["verify", "--model", "A", "--trials", "1",
                                    "--tolerance", "0"])
        assert code == 1
        assert report["pass"] is False

    def test_adhoc_f64(self, capsys):
        code, report = run(capsys, ["verify", "--adhoc", "in=4", "out=4", "groups=1",
                                    "K=13", "k=3", "r=3", "--trials", "5",
                                    "--tolerance", "1e-10"])
        assert code == 0
        assert report["checks"][0]["name"] == "adhoc"

    def test_adhoc_f32_regime(self, capsys):
        code, report = run(capsys, ["verify", "--adhoc", "in=4", "out=4", "groups=1",
                                    "K=13", "k=3", "r=3", "--f32", "--trials", "5"])
        assert code == 0
        assert report["dtype"] == "f32"
        assert report["tolerance"] == 1e-5
        # f32 rounding is visible but bounded
        assert 0 < report["max_rel_err"] <= 1e-5

    def test_adhoc_bad_key(self, capsys):
        code, _ = run(capsys, ["verify", "--adhoc", "bogus=1"])
        assert code == 2

    def test_missing_target(self, capsys):
        code, _ = run(capsys, ["verify"])
        assert code == 2

    def test_unknown_model_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--model", "QQ"])
        assert exc.value.code == 2


class TestParams:
    def test_named_instance_audit(self, capsys):
        code, report = run(capsys, ["params", "--model", "N"])
        assert code == 0
        assert abs(report["total_m"] - 18.3) / 18.3 <= 0.03
        assert abs(report["deviation_pct"]) <= 3.0
        assert set(report["per_module"]) == {
            "stem", "stage1", "stage2", "stage3", "stage4", "transitions", "head"}

    def test_xl_total(self, capsys):
        code, report = run(capsys, ["params", "--model", "XL"])
        assert code == 0
        assert abs(report["total_m"] - 386.4) / 386.4 <= 0.03

    def test_unknown_model(self, capsys):
        code, _ = run(capsys, ["params", "--model", "nope"])
        assert code == 2


def assert_spread_fields(report):
    runs = sorted(report["per_run_ms"])
    assert report["min_ms"] == runs[0]
    assert report["p10_ms"] == pytest.approx(float(np.percentile(runs, 10)))
    assert report["p90_ms"] == pytest.approx(float(np.percentile(runs, 90)))
    assert runs[0] <= report["p10_ms"] <= report["median_ms"] <= report["p90_ms"] <= runs[-1]
    # the process holds at least the interpreter and numpy
    assert 10.0 < report["peak_rss_mb"] < 8192.0


class TestBench:
    def test_report_schema_and_invariant(self, capsys):
        code, report = run(capsys, ["bench", "--model", "A", "--batch", "2",
                                    "--res", "32", "--runs", "5", "--warmup", "0"])
        assert code == 0
        assert report["mode"] == "merged"
        assert report["warmup_runs"] == 2            # clamped to the minimum
        assert report["timed_runs"] == 5
        assert len(report["per_run_ms"]) == 5
        expected = report["batch"] * 1000.0 / report["median_ms"]
        assert report["throughput_ips"] == pytest.approx(expected)
        assert_spread_fields(report)
        env = report["environment"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "cpu_count", "thread_env"}
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
        assert env["blas"] is None or isinstance(env["blas"], str)
        assert env["cpu_count"] == os.cpu_count()
        assert env["thread_env"]["URLK_THREADS"] == os.environ.get("URLK_THREADS")
        assert set(env["thread_env"]) == {
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "URLK_THREADS"}

    def test_too_few_runs(self, capsys):
        code, _ = run(capsys, ["bench", "--model", "A", "--runs", "3"])
        assert code == 2

    def test_compare_reports_speedup(self, capsys):
        code, report = run(capsys, ["bench", "--model", "A", "--batch", "2",
                                    "--res", "32", "--runs", "5", "--compare"])
        assert code == 0
        assert "train_structure" in report and "merged" in report
        assert report["speedup"] > 0
        assert "environment" in report
        for mode in ("train_structure", "merged"):
            assert_spread_fields(report[mode])

    def test_same_seed_same_outputs(self, capsys):
        argv = ["bench", "--model", "A", "--batch", "1", "--res", "32", "--runs", "5",
                "--seed", "3"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first["logits_checksum"] == second["logits_checksum"]
        assert first["per_run_ms"] != second["per_run_ms"]  # wall clock is not pinned

    def test_oversized_request_refused_with_advisory(self, capsys):
        code = main(["bench", "--model", "XL", "--batch", "256", "--res", "224",
                     "--runs", "5", "--compare", "--f64"])
        err = capsys.readouterr().err
        assert code == 2
        assert "GiB" in err


class TestWeightsCommands:
    def test_export_import_forward_roundtrip(self, capsys, tmp_path):
        weights = tmp_path / "a.urlk"
        code, _ = run(capsys, ["export", "--model", "A", "--seed", "0",
                               "--out", str(weights)])
        assert code == 0

        code, summary = run(capsys, ["import", "--weights", str(weights)])
        assert code == 0
        assert summary["model"] == "A"
        assert summary["param_count"] == 4447720

        x = np.random.default_rng(0).standard_normal((1, 3, 64, 64))
        xfile = tmp_path / "x.raw"
        write_raw_array(xfile, x, dtype="f64")
        out = tmp_path / "logits.urlk"
        code, rep = run(capsys, ["forward", "--model", "A", "--weights", str(weights),
                                 "--input", str(xfile), "--output", str(out)])
        assert code == 0
        assert rep["logits_shape"] == [1, 1000]
        assert rep["nonfinite_logits"] == 0
        _, logits = load_tensor(out)
        reference = forward(build_named("A", seed=0), Tensor4(x))
        np.testing.assert_array_equal(logits, reference)

    def test_forward_counts_nonfinite_logits(self, capsys, tmp_path):
        # head weights near the f32 maximum overflow the logits; the run still succeeds
        model = model_astype(build_named("A", seed=0), np.float32)
        weights = tmp_path / "a.urlk"
        big = np.finfo(np.float32).max
        save_model(weights, replace(model, head_weight=np.full_like(model.head_weight, big),
                                    head_bias=np.full_like(model.head_bias, big)))
        x = tmp_path / "x.raw"
        write_raw_array(x, np.random.default_rng(0).standard_normal((2, 3, 64, 64)))
        out = tmp_path / "logits.urlk"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["forward", "--model", "A", "--weights", str(weights),
                         "--input", str(x), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        # the count is the report; numpy's overflow warning must not reach stderr
        assert captured.err == "" and not caught
        rep = json.loads(captured.out)
        _, logits = load_tensor(out)
        assert rep["nonfinite_logits"] == np.count_nonzero(~np.isfinite(logits)) > 0

    def test_forward_model_name_mismatch(self, capsys, tmp_path):
        weights = tmp_path / "f.urlk"
        run(capsys, ["export", "--model", "F", "--out", str(weights)])
        x = tmp_path / "x.raw"
        write_raw_array(x, np.zeros((1, 3, 64, 64)), dtype="f64")
        code, _ = run(capsys, ["forward", "--model", "A", "--weights", str(weights),
                               "--input", str(x), "--output", str(tmp_path / "o.urlk")])
        assert code == 2

    def test_import_rejects_garbage(self, capsys, tmp_path):
        bad = tmp_path / "bad.urlk"
        bad.write_bytes(b"garbage file")
        code, _ = run(capsys, ["import", "--weights", str(bad)])
        assert code == 2
        code, _ = run(capsys, ["import", "--weights", str(tmp_path / "missing.urlk")])
        assert code == 2

    @pytest.mark.parametrize("case", ["list", "tensors-int", "duplicate", "version-true"])
    def test_import_rejects_malformed_manifest(self, capsys, tmp_path, case):
        bad = tmp_path / "bad.urlk"
        if case in ("duplicate", "version-true"):
            save_model(bad, build_named("A", seed=0))
            blob = bad.read_bytes()
            (mlen,) = struct.unpack_from("<I", blob, len(MAGIC))
            manifest = json.loads(blob[len(MAGIC) + 4:len(MAGIC) + 4 + mlen])
            payload = blob[len(MAGIC) + 4 + mlen:]
            first = manifest["tensors"][0]
            assert first["name"] == "stem.conv1.weight"
            if case == "duplicate":
                manifest["tensors"].append({**first, "byte_offset": len(payload)})
                payload += payload[:first["byte_length"]]
            else:
                # a bool is not the integer format version, though true == 1 in Python
                manifest["format_version"] = True
        else:
            manifest = [] if case == "list" else {"format_version": 1, "tensors": 5}
            payload = b""
        text = json.dumps(manifest).encode()
        bad.write_bytes(MAGIC + struct.pack("<I", len(text)) + text + payload)
        code = main(["import", "--weights", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


# sha256 of the `urlk embed` container for each case of _embed_argv
_EMBED_SHA256 = {
    "audio":
        "b8ca6289d0c2a57c43cc4a76bfb734ea7bfb5851ba2ba4f5f1a9536ce714eaa2",
    "video":
        "4e027783945ca03fec1ae4441e38cb908f5f14909cfad6cc66127588b43aec23",
    "pointcloud":
        "4039dc508ee446c02910cd99a8000647ceb13f31c17416a05dc5fbc5ccb7fb1d",
    "time-series-identity":
        "e8acecc09548ce3585525356385659fe86a4c46c7f46acaf54b69f5e22e7b18c",
    "time-series-projection":
        "c7d8d7656f7739f596e4fb4c81a10a3d91ce9ce4cf3ebbeb3a36df818b1554a2",
}


def _embed_argv(tmp_path, case):
    """Write one fixed seeded input; return the embed argv reading it (without --out).

    The projected time-series case holds small integers, so its sums are exact
    in any BLAS summation order.
    """
    rng = np.random.default_rng(7)
    src = tmp_path / "in.raw"
    if case == "audio":
        write_raw_array(src, rng.standard_normal((2, 16, 12)))
        return ["--modality", "audio", "--input", str(src)]
    if case == "video":
        write_raw_array(src, rng.standard_normal((2, 6, 3, 5, 4)))
        return ["--modality", "video", "--input", str(src)]
    if case == "pointcloud":
        write_raw_array(src, rng.standard_normal((2, 40, 3)), dtype="f64")
        return ["--modality", "pointcloud", "--input", str(src)]
    if case == "time-series-identity":
        write_raw_array(src, rng.standard_normal((2, 8, 4)))
        return ["--modality", "time-series", "--input", str(src), "--nodes", "2",
                "--height", "4", "--width", "4"]
    if case == "time-series-projection":
        write_raw_array(src, rng.integers(-8, 9, (2, 8, 6)), dtype="f64")
        proj = tmp_path / "proj.raw"
        write_raw_array(proj, rng.integers(-4, 5, (5, 3)), dtype="f64")
        return ["--modality", "time-series", "--input", str(src), "--nodes", "2",
                "--projection", str(proj), "--height", "8", "--width", "5"]
    raise AssertionError(case)


class TestEmbed:
    def test_audio(self, capsys, tmp_path):
        src = tmp_path / "audio.raw"
        write_raw_array(src, np.random.default_rng(0).standard_normal((2, 128, 64)))
        out = tmp_path / "emb.urlk"
        code, report = run(capsys, ["embed", "--modality", "audio",
                                    "--input", str(src), "--out", str(out)])
        assert code == 0
        assert report["shape"] == [2, 1, 128, 64]
        assert load_tensor(out)[1].shape == (2, 1, 128, 64)

    def test_video_grid(self, capsys, tmp_path):
        src = tmp_path / "vid.raw"
        write_raw_array(src, np.random.default_rng(0).standard_normal((1, 16, 3, 8, 8)))
        out = tmp_path / "emb.urlk"
        code, report = run(capsys, ["embed", "--modality", "video", "--grid", "4x4",
                                    "--input", str(src), "--out", str(out)])
        assert code == 0
        assert report["shape"] == [1, 3, 32, 32]

    def test_video_bad_grid(self, capsys, tmp_path):
        src = tmp_path / "vid.raw"
        write_raw_array(src, np.zeros((1, 6, 3, 4, 4)))
        code, _ = run(capsys, ["embed", "--modality", "video", "--grid", "4x4",
                               "--input", str(src), "--out", str(tmp_path / "e.urlk")])
        assert code == 2

    def test_pointcloud(self, capsys, tmp_path):
        src = tmp_path / "pc.raw"
        write_raw_array(src, np.random.default_rng(0).standard_normal((1, 50, 3)))
        out = tmp_path / "emb.urlk"
        code, report = run(capsys, ["embed", "--modality", "pointcloud",
                                    "--input", str(src), "--out", str(out)])
        assert code == 0
        assert report["shape"] == [1, 3, 224, 224]

    def test_time_series_csv(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        csv_file = tmp_path / "ts.csv"
        rows = rng.standard_normal((32, 4))
        csv_file.write_text("\n".join(",".join(f"{v:.8f}" for v in row) for row in rows))
        out = tmp_path / "emb.urlk"
        code, report = run(capsys, ["embed", "--modality", "time-series",
                                    "--input", str(csv_file), "--out", str(out),
                                    "--nodes", "1", "--height", "8", "--width", "16"])
        assert code == 0
        assert report["shape"] == [1, 1, 8, 16]

    def test_time_series_constraint_violation(self, capsys, tmp_path):
        csv_file = tmp_path / "ts.csv"
        csv_file.write_text("\n".join("1,2,3,4" for _ in range(32)))
        code, _ = run(capsys, ["embed", "--modality", "time-series",
                               "--input", str(csv_file), "--out", str(tmp_path / "e.urlk"),
                               "--nodes", "1", "--height", "8", "--width", "15"])
        assert code == 2

    def test_time_series_projection_file(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        src = tmp_path / "ts.raw"
        write_raw_array(src, rng.standard_normal((2, 8, 6)), dtype="f64")
        proj = tmp_path / "proj.raw"
        write_raw_array(proj, rng.standard_normal((4, 3)), dtype="f64")
        out = tmp_path / "emb.urlk"
        code, report = run(capsys, ["embed", "--modality", "time-series",
                                    "--input", str(src), "--out", str(out),
                                    "--nodes", "2", "--projection", str(proj),
                                    "--height", "8", "--width", "4"])
        assert code == 0
        assert report["shape"] == [4, 1, 8, 4]

    @pytest.mark.parametrize("case", sorted(_EMBED_SHA256))
    def test_output_bytes_pinned(self, capsys, tmp_path, case):
        out = tmp_path / "emb.urlk"
        code, _ = run(capsys, ["embed", *_embed_argv(tmp_path, case), "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _EMBED_SHA256[case]



def _bad_input(tmp_path, case):
    """Write one malformed or non-finite input; return the embed argv reading it
    and the text its error message must hold."""
    raw = tmp_path / "x.raw"
    csv_file = tmp_path / "ts.csv"
    # 8 time steps x 2 features fill a 4x4 map when the data is valid
    ts = ["--modality", "time-series", "--height", "4", "--width", "4"]
    if case == "sidecar-dtype-list":
        write_raw_array(raw, np.zeros((1, 4, 4)))
        (tmp_path / "x.raw.json").write_text(json.dumps({"shape": [1, 4, 4], "dtype": ["f32"]}))
        return ["--modality", "audio", "--input", str(raw)], "sidecar dtype"
    if case == "sidecar-negative-shape":
        write_raw_array(raw, np.zeros((1, 4, 4)))
        (tmp_path / "x.raw.json").write_text(json.dumps({"shape": [-1, -4, 4]}))
        return ["--modality", "audio", "--input", str(raw)], "negative dimension"
    if case in ("sidecar-float-shape", "sidecar-bool-shape"):
        # int() read these as (1, 2, 3) and (1, 4, 4), which the data fills
        write_raw_array(raw, np.zeros((1, 4, 4)))
        shape = [1, 2.9, 3] if case == "sidecar-float-shape" else [True, 4, 4]
        (tmp_path / "x.raw.json").write_text(json.dumps({"shape": shape}))
        return ["--modality", "audio", "--input", str(raw)], "malformed shape"
    if case == "sidecar-overflow-shape":
        # 2**64 elements wrapped to 0 in int64, which the empty file matched
        raw.write_bytes(b"")
        (tmp_path / "x.raw.json").write_text(json.dumps({"shape": [2**32, 2**32, 1]}))
        return ["--modality", "audio", "--input", str(raw)], "needs"
    if case == "manifest-overflow-shape":
        text = json.dumps({"format_version": 1, "model_name": "", "mode": "data",
                           "tensors": [{"name": "x", "shape": [2**32, 2**32], "dtype": "f64",
                                        "byte_offset": 0, "byte_length": 0}]}).encode()
        raw.write_bytes(MAGIC + struct.pack("<I", len(text)) + text)
        return ["--modality", "audio", "--input", str(raw)], "shape needs"
    if case == "projection-nan":
        write_raw_array(raw, np.zeros((1, 8, 2)))
        write_raw_array(tmp_path / "p.raw", np.full((2, 2), np.nan))
        return [*ts, "--input", str(raw), "--projection", str(tmp_path / "p.raw")], "NaN or infinite"
    if case == "projection-data-missing":
        write_raw_array(raw, np.zeros((1, 8, 2)))
        (tmp_path / "p.raw.json").write_text(json.dumps({"shape": [2, 2]}))
        return [*ts, "--input", str(raw), "--projection", str(tmp_path / "p.raw")], "cannot read"
    if case == "csv-missing":
        return [*ts, "--input", str(tmp_path / "missing.csv")], "cannot read"
    if case == "csv-not-utf8":
        csv_file.write_bytes(b"1,2\n\xff\xfe,3\n" * 4)
        return [*ts, "--input", str(csv_file)], "not a text CSV"
    if case == "csv-nan":
        csv_file.write_text("1,2\nnan,3\n" * 4)
        return [*ts, "--input", str(csv_file)], "NaN or infinite"
    if case == "raw-inf":
        write_raw_array(raw, np.full((1, 4, 4), np.inf))
        return ["--modality", "audio", "--input", str(raw)], "NaN or infinite"
    if case == "video-negative-grid":
        # (-1) * (-2) equals the frame count, so only the sign check rejects it
        write_raw_array(raw, np.zeros((1, 2, 3, 4, 4)))
        return ["--modality", "video", "--grid=-1x-2", "--input", str(raw)], "positive"
    if case == "ts-negative-map":
        # 8 steps x latent 4 = 32 cells = (-4) * (-8)
        write_raw_array(raw, np.zeros((1, 8, 4)))
        return ["--modality", "time-series", "--height=-4", "--width=-8",
                "--input", str(raw)], "positive"
    if case == "pointcloud-empty-batch":
        write_raw_array(raw, np.zeros((0, 5, 3)))
        return ["--modality", "pointcloud", "--input", str(raw)], "B, P >= 1"
    if case == "projection-0d":
        write_raw_array(raw, np.zeros((1, 8, 2)))
        write_raw_array(tmp_path / "p.raw", np.zeros(()))
        return [*ts, "--input", str(raw), "--projection", str(tmp_path / "p.raw")], "2-D"
    raise AssertionError(case)


class TestBadInputs:
    @pytest.mark.parametrize("case", [
        "sidecar-dtype-list", "sidecar-negative-shape", "sidecar-float-shape",
        "sidecar-bool-shape", "sidecar-overflow-shape", "manifest-overflow-shape",
        "projection-nan", "projection-data-missing", "csv-missing", "csv-not-utf8", "csv-nan",
        "raw-inf", "video-negative-grid", "ts-negative-map", "projection-0d",
        "pointcloud-empty-batch",
    ])
    def test_embed_exits_2_without_traceback(self, capsys, tmp_path, case):
        args, message = _bad_input(tmp_path, case)
        code = main(["embed", *args, "--out", str(tmp_path / "e.urlk")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert message in captured.err
        assert not (tmp_path / "e.urlk").exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "--model", "A", "--trials", "0"],
        ["verify", "--model", "A", "--trials", "-1"],
        ["verify", "--adhoc", "in=4", "out=4", "groups=1", "K=13", "k=3", "r=3", "--trials", "0"],
        ["verify", "--adhoc", "K=x"],
        ["verify", "--adhoc", "groups=0"],
        ["verify", "--adhoc", "in=-4"],
        ["verify", "--adhoc", "K=4"],
        ["verify", "--adhoc", "k=2"],
        ["verify", "--adhoc", "r=0"],
        ["bench", "--model", "A", "--res", "-64"],
        ["bench", "--model", "A", "--batch", "-1"],
    ], ids=["trials-0", "trials-negative", "adhoc-trials-0", "adhoc-K-not-int", "adhoc-groups-0",
            "adhoc-in-negative", "adhoc-K-even", "adhoc-k-even", "adhoc-r-0", "bench-res-negative",
            "bench-batch-negative"])
    def test_bad_count_or_size_exits_2_without_traceback(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_allocation_beyond_memory_exits_2(self, capsys, monkeypatch):
        # the K=99999 weight needs 1.16 TiB; whether numpy is refused it at once depends on the
        # host's overcommit policy, so the refusal is simulated instead of asked for
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.16 TiB")

        monkeypatch.setattr(cli, "adhoc_scenario", refuse)
        code = main(["verify", "--adhoc", "K=99999"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert (captured.err.startswith("error: not enough memory") and "1.16 TiB" in captured.err
                and "Traceback" not in captured.err)

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_export_to_unwritable_path_exits_2(self, capsys, tmp_path, where):
        folder = tmp_path / "d"
        if where == "directory":
            folder.mkdir()
            (folder / "keep.txt").write_text("kept")
        out = folder / "x.urlk" if where == "missing-directory" else folder
        code = main(["export", "--model", "A", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in captured.err
        listing = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert listing == ([] if where == "missing-directory" else ["d", "d/keep.txt"])
        if where == "directory":
            assert (folder / "keep.txt").read_text() == "kept"

    def test_forward_rejects_all_nan_input(self, capsys, tmp_path):
        weights = tmp_path / "a.urlk"
        save_model(weights, build_named("A", seed=0))
        x = tmp_path / "x.raw"
        write_raw_array(x, np.full((1, 3, 64, 64), np.nan))
        out = tmp_path / "logits.urlk"
        code = main(["forward", "--model", "A", "--weights", str(weights),
                     "--input", str(x), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "NaN or infinite" in captured.err
        assert not out.exists()

    def test_forward_rejects_input_that_overflows_model_dtype(self, capsys, tmp_path):
        # 1e39 is finite in the f64 file but infinite once cast to the f32 model
        weights = tmp_path / "a.urlk"
        save_model(weights, model_astype(build_named("A", seed=0), np.float32))
        x = tmp_path / "x.raw"
        write_raw_array(x, np.full((1, 3, 64, 64), 1e39), dtype="f64")
        out = tmp_path / "logits.urlk"
        code = main(["forward", "--model", "A", "--weights", str(weights),
                     "--input", str(x), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "NaN or infinite" in captured.err and "Traceback" not in captured.err
        assert not out.exists()


def _readme_cli_examples():
    """The `urlk` command lines of README's CLI block, `\\` continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("urlk ")]


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=" ".join)
def test_readme_cli_example_parses(argv):
    # parsing only: a flag renamed or removed since the README was written fails here
    args = build_parser().parse_args(argv[1:])
    assert args.command == argv[1]
