import dataclasses
import json

import numpy as np
import pytest

from tdcnet import cli, imageio, tdc
from tdcnet.cli import CUSTOM_FLAGS, main
from tdcnet.errors import ConfigurationError

from conftest import random_weight_doc

jsonschema = pytest.importorskip("jsonschema")


@pytest.fixture(scope="module")
def schema():
    import importlib.resources as res
    text = res.files("tdcnet").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


@pytest.fixture
def weight_file(tmp_path, rng):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(random_weight_doc(rng, scales=(2, 3))))
    return str(path)


# `schedule` streams as (phase, y, x, weight), weights 1..kd^2 in raster order
SCHEDULE_5_2 = [
    [(3, 0, 0, 25), (3, 1, 1, 13), (3, 2, 2, 1), (1, 1, 0, 10), (2, 0, 1, 22), (2, 2, 1, 2),
     (0, 1, 1, 7)],
    [(3, 0, 1, 23), (3, 1, 2, 11), (1, 0, 0, 20), (1, 1, 1, 8), (2, 1, 0, 14), (0, 0, 0, 19)],
    [(3, 0, 2, 21), (3, 2, 0, 5), (1, 0, 1, 18), (1, 1, 2, 6), (2, 1, 1, 12), (0, 0, 1, 17)],
    [(3, 1, 0, 15), (3, 2, 1, 3), (1, 0, 2, 16), (2, 0, 0, 24), (2, 2, 0, 4), (0, 1, 0, 9)],
]
SCHEDULE_9_4_PES_3 = [
    [(15, 0, 0, 81), (15, 1, 0, 45), (15, 2, 0, 9), (3, 0, 0, 54), (3, 1, 0, 18), (7, 0, 0, 63),
     (7, 1, 0, 27), (11, 0, 0, 72), (11, 1, 0, 36), (12, 0, 0, 78), (12, 1, 1, 38),
     (13, 0, 0, 79), (13, 1, 1, 39), (14, 0, 0, 80), (14, 1, 1, 40), (0, 0, 0, 51),
     (0, 1, 1, 11), (1, 1, 0, 16), (2, 0, 1, 49), (4, 0, 0, 60), (4, 1, 1, 20), (5, 1, 0, 25),
     (6, 0, 1, 58), (8, 0, 0, 69), (8, 1, 1, 29), (9, 1, 0, 34), (10, 0, 1, 67)],
    [(15, 0, 1, 77), (15, 1, 1, 41), (15, 2, 1, 5), (3, 0, 1, 50), (3, 1, 1, 14), (7, 0, 1, 59),
     (7, 1, 1, 23), (11, 0, 1, 68), (11, 1, 1, 32), (12, 0, 1, 74), (12, 2, 0, 6),
     (13, 0, 1, 75), (13, 2, 0, 7), (14, 0, 1, 76), (14, 2, 0, 8), (0, 0, 1, 47), (1, 0, 0, 52),
     (1, 1, 1, 12), (2, 1, 0, 17), (4, 0, 1, 56), (5, 0, 0, 61), (5, 1, 1, 21), (6, 1, 0, 26),
     (8, 0, 1, 65), (9, 0, 0, 70), (9, 1, 1, 30), (10, 1, 0, 35)],
    [(15, 0, 2, 73), (15, 1, 2, 37), (15, 2, 2, 1), (3, 0, 2, 46), (3, 1, 2, 10), (7, 0, 2, 55),
     (7, 1, 2, 19), (11, 0, 2, 64), (11, 1, 2, 28), (12, 1, 0, 42), (12, 2, 1, 2),
     (13, 1, 0, 43), (13, 2, 1, 3), (14, 1, 0, 44), (14, 2, 1, 4), (0, 1, 0, 15), (1, 0, 1, 48),
     (2, 0, 0, 53), (2, 1, 1, 13), (4, 1, 0, 24), (5, 0, 1, 57), (6, 0, 0, 62), (6, 1, 1, 22),
     (8, 1, 0, 33), (9, 0, 1, 66), (10, 0, 0, 71), (10, 1, 1, 31)],
]


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv, schema=None):
    code, out = run(capsys, argv)
    report = json.loads(out)
    if schema is not None:
        jsonschema.validate(report, schema)
    return code, report


class TestReports:
    def test_resources_known_dsp(self, capsys, schema):
        code, report = run_json(capsys, [
            "resources", "--model", "fsrcnn", "--x", "25", "--y", "5",
            "--z", "1", "--kd", "7", "--scale", "2", "--alpha", "0.7",
        ], schema)
        assert code == 0
        assert report["results"]["dsp_count"] == 1512
        assert report["results"]["multiply_count"] == 2325

    def test_cycles_dcgan(self, capsys, schema):
        code, report = run_json(capsys, ["cycles", "--model", "dcgan"], schema)
        assert code == 0
        rows = report["results"]["layers"]
        assert [r["proposed_cycles"] for r in rows] == [458752] * 3 + [21504]
        assert [r["baseline_cycles"] for r in rows] == [1638400] * 3 + [102400]

    def test_cycles_fsrcnn_flags_s4(self, capsys, schema):
        code, report = run_json(capsys, ["cycles", "--model", "fsrcnn"], schema)
        assert code == 0
        rows = {r["stride"]: r for r in report["results"]["layers"]}
        assert rows[2]["proposed_cycles"] == 1376214
        assert rows[2]["baseline_cycles"] == 21233016
        assert rows[4]["proposed_cycles"] == 393204
        assert rows[4]["unexplained_discrepancy"] is True

    def test_cycles_custom(self, capsys, schema):
        code, report = run_json(capsys, [
            "cycles", "--model", "custom", "--m", "512", "--n", "1024",
            "--hin", "4", "--kd", "5", "--stride", "2", "--tm", "4",
            "--tn", "128",
        ], schema)
        assert code == 0
        assert report["results"]["layers"][0]["proposed_cycles"] == 458752

    @pytest.mark.parametrize("argv", [
        ["--model", "dcgan"], ["--model", "fsrcnn"],
        ["--model", "custom", "--m", "7", "--n", "5", "--hin", "6", "--win", "3",
         "--kd", "11", "--stride", "3", "--tm", "50", "--tn", "2"],
    ], ids=["dcgan", "fsrcnn", "custom"])
    def test_cycles_one_speedup_per_row(self, capsys, schema, argv):
        code, report = run_json(capsys, ["cycles", *argv], schema)
        assert code == 0
        for row in report["results"]["layers"]:
            assert row["speedup"] == row["case_speedup"]

    def _schedule(self, capsys, schema, argv):
        code, report = run_json(capsys, ["schedule", *argv], schema)
        assert code == 0
        res = report["results"]
        assert all(type(i["weight"]) is float for st in res["streams"] for i in st)
        # every instruction in stream order, so the report is pinned exactly
        streams = [[(i["phase"], *i["pos"], i["weight"]) for i in st] for st in res["streams"]]
        return res, streams

    def test_schedule(self, capsys, schema):
        res, streams = self._schedule(capsys, schema, ["--kd", "5", "--stride", "2"])
        assert res["depth"] == 7 and res["pe_count"] == 4
        assert streams == SCHEDULE_5_2

    def test_schedule_pes(self, capsys, schema):
        res, streams = self._schedule(capsys, schema,
                                      ["--kd", "9", "--stride", "4", "--pes", "3"])
        assert res["depth"] == 27 and res["pe_count"] == 3
        assert streams == SCHEDULE_9_4_PES_3

    def test_plan(self, capsys, schema):
        code, report = run_json(capsys, [
            "plan", "--x", "56", "--y", "12", "--z", "4", "--kd", "9",
            "--scale", "2", "--bits", "32", "--width", "1920",
        ], schema)
        assert code == 0
        assert report["results"]["bram_count"] == 1609

    def test_transform(self, capsys, schema, weight_file):
        code, report = run_json(capsys, [
            "transform", "--weights", weight_file, "--scale", "2",
        ], schema)
        assert code == 0
        res = report["results"]
        assert res["geometry"]["conv_kernel"] == 3
        assert res["zero_analysis"]["num_zero"] == 11 * 4   # kd=5, s=2, n=4


class TestVerify:
    def test_passes(self, capsys, schema):
        code, report = run_json(capsys, [
            "verify-tdc", "--kd", "9", "--stride", "4",
            "--trials", "20", "--seed", "7",
        ], schema)
        assert code == 0
        assert report["results"]["failures"] == 0

    def test_kd_alone_runs_stride_2(self, capsys, schema):
        code, report = run_json(capsys, ["verify-tdc", "--kd", "5", "--trials", "3"], schema)
        assert code == 0
        assert report["results"]["configs"] == [
            {"kd": 5, "stride": 2, "trials": 3, "failures": 0}]


class TestDeterminism:
    def test_byte_identical(self, capsys):
        argv = ["cycles", "--model", "fsrcnn"]
        _, a = run(capsys, argv)
        _, b = run(capsys, argv)
        assert a == b

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code = main(["cycles", "--model", "dcgan", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["schema_version"] == 1


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["cycles", "--model", "dcgan", "--bogus"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_weight_file(self, capsys):
        assert main(["transform", "--weights", "/nonexistent.json",
                     "--scale", "2"]) == 2

    def test_bad_weight_scale(self, capsys, weight_file):
        assert main(["transform", "--weights", weight_file, "--scale", "9"]) == 2

    @pytest.mark.parametrize("content", [b'{"format": "tdcnet-weights-v1",',
                                         b"\xff\xfe not utf-8"])
    def test_malformed_weight_file(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["transform", "--weights", str(path), "--scale", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    @staticmethod
    def _expect_one_error_line(capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify-tdc", "--kd", "0"],
        ["verify-tdc", "--kd", "-3"],
        ["verify-tdc", "--trials", "0"],
        ["verify-tdc", "--trials", "-1"],
        ["verify-tdc", "--stride", "3"],
        ["schedule", "--kd", "5", "--stride", "2", "--pes", "0"],
        ["cycles", "--model", "custom", "--m", "1", "--n", "1", "--hin", "4", "--win", "0",
         "--kd", "5", "--stride", "2", "--tm", "1", "--tn", "1"],
        ["cycles", "--model", "dcgan", "--m", "3"],
    ], ids=["kd_0", "kd_negative", "trials_0", "trials_negative", "stride_without_kd",
            "pes_0", "win_0", "layer_flag_with_preset"])
    def test_bad_count_flags(self, capsys, argv):
        # accepted and ignored, or a numpy traceback with exit 1, before
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kd", ["5", "0"])
    def test_cycles_stride_0(self, capsys, kd):
        # a ZeroDivisionError traceback with exit 1 before
        self._expect_one_error_line(capsys, [
            "cycles", "--model", "custom", "--m", "1", "--n", "1", "--hin", "2",
            "--tm", "1", "--tn", "1", "--kd", kd, "--stride", "0"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", CUSTOM_FLAGS)
    def test_cycles_custom_names_bad_flag(self, capsys, flag):
        # cycles_proposed's "all arguments must be >= 1", naming no flag, before
        values = dict.fromkeys(CUSTOM_FLAGS, "2")
        values[flag] = "0"
        argv = ["cycles", "--model", "custom"]
        for name, value in values.items():
            argv += [f"--{name}", value]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --{flag} must be a positive integer, got 0\n"

    def test_failed_self_check_exits_1(self, capsys, monkeypatch):
        # exit 2, the code for bad input, before
        derive = tdc.derive_geometry
        monkeypatch.setattr(tdc, "derive_geometry", lambda kd, s: dataclasses.replace(
            derive(kd, s), crop_offset=derive(kd, s).crop_offset + 1))
        assert main(["verify-tdc", "--kd", "5", "--stride", "2", "--trials", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: searched crop offset 1 != closed form 2 ")

    @pytest.mark.parametrize("edit", [
        lambda d: d["conv_layers"][0]["weights"].__setitem__(3, float("nan")),
        lambda d: d["conv_layers"][2]["bias"].__setitem__(0, float("inf")),
        lambda d: d["conv_layers"][1]["prelu"].__setitem__(0, float("-inf")),
        lambda d: d["deconv"][0]["weights"].__setitem__(0, float("nan")),
        lambda d: d["conv_layers"][0].pop("kc"),
        lambda d: d["deconv"][0].pop("scale"),
    ], ids=["nan_weight", "inf_bias", "inf_prelu", "nan_deconv", "no_kc", "no_scale"])
    def test_bad_weight_values(self, capsys, tmp_path, rng, edit):
        doc = random_weight_doc(rng)
        edit(doc)
        weights, src = tmp_path / "w.json", tmp_path / "in.pgm"
        weights.write_text(json.dumps(doc))
        imageio.write_image(src, rng.integers(0, 256, (5, 5)).astype(np.uint8))
        self._expect_one_error_line(capsys, [
            "infer", "--weights", str(weights), "--scale", "2",
            "--in", str(src), "--out", str(tmp_path / "out.pgm")])
        assert not (tmp_path / "out.pgm").exists()

    @pytest.mark.parametrize("edit", [
        lambda d: d["deconv"].append(dict(d["deconv"][0])),
        lambda d: d["config"].__setitem__("x", 4.7),
    ], ids=["deconv_scale_twice", "fractional_x"])
    def test_ambiguous_weight_fields(self, capsys, tmp_path, rng, edit):
        # exit 0, with the last deconv of a scale or int(4.7) = 4, before
        doc = random_weight_doc(rng)
        edit(doc)
        weights, src = tmp_path / "w.json", tmp_path / "in.pgm"
        weights.write_text(json.dumps(doc))
        imageio.write_image(src, rng.integers(0, 256, (5, 5)).astype(np.uint8))
        self._expect_one_error_line(capsys, [
            "infer", "--weights", str(weights), "--scale", "2",
            "--in", str(src), "--out", str(tmp_path / "out.pgm")])
        assert not (tmp_path / "out.pgm").exists()

    @pytest.mark.parametrize("header", [b"P5\nab 2\n255\n",
                                        b"P5\n4000000 4000000\n255\n"])
    def test_bad_image_header(self, capsys, tmp_path, weight_file, header):
        src = tmp_path / "bad.pgm"
        src.write_bytes(header + b"\x00" * 8)
        self._expect_one_error_line(capsys, [
            "infer", "--weights", weight_file, "--scale", "2",
            "--in", str(src), "--out", str(tmp_path / "out.pgm")])

    @pytest.mark.parametrize("bits", ["8..x", "abc", ",", "9..8"])
    def test_bad_sweep_bits(self, capsys, tmp_path, weight_file, rng, bits):
        # a ValueError traceback with exit 1, or a header-only CSV with exit 0, before
        imgs = tmp_path / "imgs"
        imgs.mkdir()
        imageio.write_image(imgs / "a.pgm", rng.integers(0, 256, (5, 5)).astype(np.uint8))
        self._expect_one_error_line(capsys, [
            "sweep-bitwidth", "--weights", weight_file, "--scale", "2",
            "--bits", bits, "--images", str(imgs)])
        assert capsys.readouterr().out == ""

    def test_bits_with_float_mode(self, capsys, tmp_path, weight_file, rng):
        # accepted and ignored before
        src = tmp_path / "in.pgm"
        imageio.write_image(src, rng.integers(0, 256, (5, 5)).astype(np.uint8))
        self._expect_one_error_line(capsys, [
            "infer", "--weights", weight_file, "--scale", "2", "--mode", "float",
            "--bits", "16", "--in", str(src), "--out", str(tmp_path / "out.pgm")])
        assert not (tmp_path / "out.pgm").exists()

    @pytest.mark.parametrize("cmd, bits, bad", [
        ("infer", "3", 3), ("infer", "2", 2), ("infer", "0", 0), ("infer", "33", 33),
        ("sweep-bitwidth", "3..8", 3), ("sweep-bitwidth", "30..33", 33),
        ("sweep-bitwidth", "8,2,12", 2),
    ])
    def test_bits_out_of_range(self, capsys, tmp_path, weight_file, rng, cmd, bits, bad):
        # named frac_bits = -1, or a [2, 32] range that 2 and 3 fall outside, before
        src = tmp_path / "in.pgm"
        imageio.write_image(src, rng.integers(0, 256, (5, 5)).astype(np.uint8))
        io = (["--mode", "fixed", "--in", str(src), "--out", str(tmp_path / "out.pgm")]
              if cmd == "infer" else ["--images", str(tmp_path)])
        assert main([cmd, "--weights", weight_file, "--scale", "2", "--bits", bits] + io) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --bits must lie in 4..32, got {bad}\n"
        assert not (tmp_path / "out.pgm").exists()

    def test_bits_range_edges_and_help(self, capsys, tmp_path, weight_file, rng):
        src = tmp_path / "in.pgm"
        imageio.write_image(src, rng.integers(0, 256, (5, 5)).astype(np.uint8))
        for bits in ("4", "32"):
            assert main(["infer", "--weights", weight_file, "--scale", "2", "--mode", "fixed",
                         "--bits", bits, "--in", str(src), "--out", str(tmp_path / "o.pgm")]) == 0
        for cmd in ("infer", "sweep-bitwidth"):
            assert main([cmd, "--help"]) == 0
            assert "4..32" in capsys.readouterr().out

    def test_back_to_back_calls(self, capsys, tmp_path, weight_file, rng):
        # one parser serves every call; no call's flags or failure reach the next
        src = tmp_path / "in.pgm"
        imageio.write_image(src, rng.integers(0, 256, (5, 4)).astype(np.uint8))
        base = ["infer", "--weights", weight_file, "--scale", "2", "--in", str(src)]
        out = [tmp_path / f"out{i}.pgm" for i in range(3)]
        assert main(base + ["--mode", "fixed", "--bits", "13", "--out", str(out[0])]) == 0
        assert main(base + ["--bits", "16", "--out", str(out[1])]) == 2
        assert main(["verify-tdc", "--kd", "0"]) == 2
        assert main(base + ["--mode", "fixed", "--out", str(out[2])]) == 0
        assert main(["verify-tdc", "--kd", "3", "--trials", "2"]) == 0
        assert out[0].read_bytes() == out[2].read_bytes() and not out[1].exists()
        assert cli._build_parser() is cli._build_parser()


class TestInferCli:
    def test_roundtrip(self, capsys, tmp_path, weight_file, rng):
        src = tmp_path / "in.ppm"
        dst = tmp_path / "out.ppm"
        imageio.write_image(src, rng.integers(0, 256, (6, 5, 3)).astype(np.uint8))
        code = main(["infer", "--weights", weight_file, "--scale", "2",
                     "--mode", "fixed", "--in", str(src), "--out", str(dst)])
        assert code == 0
        assert imageio.read_image(dst).shape == (12, 10, 3)

    def test_report_file(self, capsys, tmp_path, weight_file, rng, schema):
        src, dst, rep = tmp_path / "in.pgm", tmp_path / "out.pgm", tmp_path / "r.json"
        imageio.write_image(src, rng.integers(0, 256, (4, 3)).astype(np.uint8))
        code, out = run(capsys, ["infer", "--weights", weight_file, "--scale", "2",
                                 "--in", str(src), "--out", str(dst),
                                 "--report", str(rep)])
        assert code == 0 and out == ""
        report = json.loads(rep.read_text())
        jsonschema.validate(report, schema)
        assert report["results"]["output_size"] == [8, 6]

    def test_sweep_csv(self, capsys, tmp_path, weight_file, rng):
        imgs = tmp_path / "imgs"
        imgs.mkdir()
        imageio.write_image(imgs / "a.pgm",
                            rng.integers(0, 256, (7, 6)).astype(np.uint8))
        code, out = run(capsys, ["sweep-bitwidth", "--weights", weight_file,
                                 "--scale", "2", "--bits", "12,13",
                                 "--images", str(imgs)])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bits,psnr_db"
        assert lines[1].startswith("12,") and lines[2].startswith("13,")


class TestImageIO:
    def test_ppm_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, (4, 5, 3)).astype(np.uint8)
        path = tmp_path / "x.ppm"
        imageio.write_image(path, img)
        assert np.array_equal(imageio.read_image(path), img)

    def test_pgm_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, (4, 5)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        imageio.write_image(path, img)
        assert np.array_equal(imageio.read_image(path), img)

    @pytest.mark.parametrize("content", [
        b"P5\nab 2\n255\n\x01\x02",            # non-integer width
        b"P6\n2 -1\n255\n\x01\x02",            # negative height
        b"P5\n4000000 4000000\n255\n\x01\x02",  # header larger than the file
        b"P5\n2 2\n255\n\x01\x02\x03",         # one byte short
    ])
    def test_bad_header(self, tmp_path, content):
        path = tmp_path / "bad.pgm"
        path.write_bytes(content)
        with pytest.raises(ConfigurationError):
            imageio.read_image(path)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
        assert np.array_equal(imageio.read_image(path),
                              [[1, 2], [3, 4]])
