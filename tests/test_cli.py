"""CLI contract: flags, exit codes, file handoffs, CSV determinism."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blpcs
import blpcs.cli as cli
from blpcs.bases import corner_region_2d
from blpcs.cipher import keygen, load_measurements, read_key_file, save_measurements
from blpcs.errors import GuardError
from blpcs.imaging import columnwise_encode, make_test_image, save_pgm


def test_keygen_writes_expected_file(tmp_path):
    out = tmp_path / "k.key"
    rc = cli.main(["keygen", "--seed", "1", "--n", "512", "--sr", "0.3",
                   "--alpha", "0.99", "--beta", "0.95", "--dmax", "60",
                   "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("seed=1\n")
    assert "M=512" in text and "sr=0.3" in text
    first = out.read_bytes()
    assert cli.main(["keygen", "--seed", "1", "--n", "512", "--sr", "0.3",
                     "--alpha", "0.99", "--beta", "0.95", "--dmax", "60",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_keygen_rejects_bad_rate(tmp_path):
    rc = cli.main(["keygen", "--seed", "1", "--n", "64", "--sr", "1.5",
                   "--out", str(tmp_path / "k.key")])
    assert rc == 2


def test_keygen_rejects_non_finite_alpha(tmp_path):
    out = tmp_path / "k.key"
    rc = cli.main(["keygen", "--seed", "1", "--n", "64", "--sr", "0.5",
                   "--alpha", "nan", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_encode_decode_roundtrip_full_rate(tmp_path, capsys):
    img = make_test_image(64)
    ref = tmp_path / "in.pgm"
    save_pgm(img, ref)
    key = tmp_path / "k.key"
    assert cli.main(["keygen", "--seed", "5", "--n", "64", "--sr", "1.0",
                     "--alpha", "1.0", "--beta", "1.0", "--dmax", "1",
                     "--out", str(key)]) == 0
    meas = tmp_path / "m.blpy"
    assert cli.main(["encode", "--key", str(key), "--in", str(ref),
                     "--out", str(meas)]) == 0
    rec = tmp_path / "rec.pgm"
    assert cli.main(["decode", "--key", str(key), "--in", str(meas),
                     "--out", str(rec), "--reference", str(ref)]) == 0
    assert "apsnr_db=inf" in capsys.readouterr().out


def test_decode_prints_finite_psnr_at_half_rate(tmp_path, capsys):
    img = make_test_image(64)
    ref = tmp_path / "in.pgm"
    save_pgm(img, ref)
    key = tmp_path / "k.key"
    cli.main(["keygen", "--seed", "6", "--n", "64", "--sr", "0.5",
              "--dmax", "4", "--out", str(key)])
    meas = tmp_path / "m.blpy"
    cli.main(["encode", "--key", str(key), "--in", str(ref), "--out", str(meas)])
    rec = tmp_path / "rec.pgm"
    assert cli.main(["decode", "--key", str(key), "--in", str(meas),
                     "--out", str(rec), "--reference", str(ref)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("apsnr_db=")
    assert float(line.split("=")[1]) > 15.0


def test_decode_rejects_mismatched_key(tmp_path):
    img = make_test_image(64)
    ref = tmp_path / "in.pgm"
    save_pgm(img, ref)
    k1, k2 = tmp_path / "a.key", tmp_path / "b.key"
    cli.main(["keygen", "--seed", "1", "--n", "64", "--sr", "0.5", "--out", str(k1)])
    cli.main(["keygen", "--seed", "1", "--n", "64", "--sr", "0.25", "--out", str(k2)])
    meas = tmp_path / "m.blpy"
    cli.main(["encode", "--key", str(k1), "--in", str(ref), "--out", str(meas)])
    rc = cli.main(["decode", "--key", str(k2), "--in", str(meas),
                   "--out", str(tmp_path / "r.pgm")])
    assert rc == 3


def _encode_64(tmp_path):
    """Key and BLPY file of the 64x64 stand-in at sr 0.5."""
    img = tmp_path / "in.pgm"
    save_pgm(make_test_image(64), img)
    key = tmp_path / "k.key"
    cli.main(["keygen", "--seed", "1", "--n", "64", "--sr", "0.5", "--out", str(key)])
    meas = tmp_path / "m.blpy"
    cli.main(["encode", "--key", str(key), "--in", str(img), "--out", str(meas)])
    return key, meas


def test_baseline_pipeline_decodes_only_as_the_baseline(tmp_path, capsys):
    # the unscrambled baseline file of the seed-1 key decodes with
    # --baseline, is garbage through the scrambled decoder, and reads below
    # the scrambled pipeline of the same key
    key, meas = _encode_64(tmp_path)
    ref, base, rec = tmp_path / "in.pgm", tmp_path / "b.blpy", tmp_path / "rec.pgm"
    assert cli.main(["encode", "--key", str(key), "--in", str(ref), "--out", str(base),
                     "--baseline"]) == 0
    assert cli.main(["decode", "--key", str(key), "--in", str(base), "--out", str(rec),
                     "--reference", str(ref), "--baseline"]) == 0
    assert cli.main(["decode", "--key", str(key), "--in", str(base), "--out", str(rec),
                     "--reference", str(ref)]) == 0
    assert cli.main(["decode", "--key", str(key), "--in", str(meas), "--out", str(rec),
                     "--reference", str(ref)]) == 0
    got = [float(line.split("=")[1]) for line in capsys.readouterr().out.splitlines()]
    assert got == pytest.approx([20.963, 6.49, 23.98], abs=0.01)


def test_decode_rejects_missing_packet(tmp_path):
    key, meas = _encode_64(tmp_path)
    k = read_key_file(key)
    save_measurements(meas, load_measurements(meas, k.K, k.M)[:, :-1], k.K)
    rc = cli.main(["decode", "--key", str(key), "--in", str(meas),
                   "--out", str(tmp_path / "r.pgm")])
    assert rc == 3


def test_decode_rejects_non_finite_measurement(tmp_path, capsys):
    key, meas = _encode_64(tmp_path)
    good = meas.read_bytes()
    # 12-byte file header, packet 0's 4-byte entry count, then 12-byte
    # (u4 row, f8 value) entries: overwrite entry 5's value
    offset = 12 + 4 + 5 * 12 + 4
    for value in (float("nan"), float("inf")):
        data = bytearray(good)
        data[offset:offset + 8] = np.array([value], dtype="<f8").tobytes()
        meas.write_bytes(bytes(data))
        out = tmp_path / "r.pgm"
        capsys.readouterr()
        rc = cli.main(["decode", "--key", str(key), "--in", str(meas), "--out", str(out)])
        assert rc == 3 and not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("word, value, match", [
    (1, 31, "measurement count 31 does not match K=32"),  # header K
    (0, 63, "63 packets do not match 64 columns"),        # header packet count
    (2, 2**32 - 1, "more than K"),                         # packet 0's entry count
])
def test_decode_rejects_a_file_of_another_shape(tmp_path, capsys, word, value, match):
    key, meas = _encode_64(tmp_path)
    data = bytearray(meas.read_bytes())
    # the u4 words after the 4-byte magic: packet count, K, packet 0's count
    data[4 + 4 * word:8 + 4 * word] = np.array([value], dtype="<u4").tobytes()
    meas.write_bytes(bytes(data))
    out = tmp_path / "r.pgm"
    capsys.readouterr()
    rc = cli.main(["decode", "--key", str(key), "--in", str(meas), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 3 and not out.exists()
    assert len(err) == 1 and match in err[0]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_encode_rejects_a_non_finite_pixel(tmp_path, monkeypatch, value):
    key = tmp_path / "k.key"
    cli.main(["keygen", "--seed", "1", "--n", "16", "--sr", "0.5", "--out", str(key)])
    image = make_test_image(16)
    image[3, 4] = value
    with pytest.raises(ValueError, match="non-finite"):
        columnwise_encode(read_key_file(key), image)
    # the CLI's reader cannot yield such a pixel; stand one in for it
    monkeypatch.setattr(cli, "load_pgm", lambda path: image)
    out = tmp_path / "m.blpy"
    rc = cli.main(["encode", "--key", str(key), "--in", str(tmp_path / "in.pgm"),
                   "--out", str(out)])
    assert rc == 2 and not out.exists()


def test_malformed_inputs_exit_3(tmp_path):
    bad = tmp_path / "bad.key"
    bad.write_text("nonsense\n")
    rc = cli.main(["encode", "--key", str(bad), "--in", str(tmp_path / "x.pgm"),
                   "--out", str(tmp_path / "y.blpy")])
    assert rc == 3
    key = tmp_path / "k.key"
    cli.main(["keygen", "--seed", "1", "--n", "64", "--sr", "0.5", "--out", str(key)])
    img = tmp_path / "img.pgm"
    img.write_bytes(b"P5\n64 64\n19\n" + bytes(64 * 64))
    rc = cli.main(["encode", "--key", str(key), "--in", str(img),
                   "--out", str(tmp_path / "m.blpy")])
    assert rc == 3
    missing = cli.main(["decode", "--key", str(key), "--in", str(tmp_path / "none.blpy"),
                        "--out", str(tmp_path / "r.pgm")])
    assert missing == 3


def test_decode_rejects_a_header_only_file_before_sizing_the_array(tmp_path, capsys):
    # K = n = 4096, the largest side a key allows: a reader that trusted the
    # header would allocate a 128 MiB K x n array before finding no packets
    key = tmp_path / "big.key"
    key.write_text("seed=1\nM=4096\nsr=1.0\nalpha=0.99\nbeta=0.95\ndmax=16\n"
                   "mix_region=0.25\nmix_count=0\n")
    meas = tmp_path / "m.blpy"
    meas.write_bytes(b"BLPY" + np.array([4096, 4096], dtype="<u4").tobytes())
    out = tmp_path / "r.pgm"
    rc = cli.main(["decode", "--key", str(key), "--in", str(meas), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 3 and not out.exists()
    assert len(err) == 1 and "truncated packet header" in err[0]


def test_keygen_bounds_the_side(tmp_path, capsys):
    # one M x M float64 frame past the bound would take more than 128 MiB;
    # 4096 itself is allowed
    out = tmp_path / "k.key"
    rc = cli.main(["keygen", "--seed", "1", "--n", "8388608", "--sr", "1.0",
                   "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 4 and not out.exists()
    assert len(err) == 1 and "4096" in err[0]
    assert cli.main(["keygen", "--seed", "1", "--n", "4096", "--sr", "1.0",
                     "--out", str(out)]) == 0


@pytest.mark.parametrize("argv", [["exp", "table1", "--n", "1048576"],
                                  ["exp", "table2", "--n", "1048576"]])
def test_exp_table_bounds_the_side_before_drawing_the_image(tmp_path, capsys, argv):
    out = tmp_path / "t.csv"
    assert cli.main(argv + ["--trials", "1", "--out", str(out)]) == 4
    assert not out.exists()
    assert "4096" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_a_key_file_past_the_side_bound_exits_4(tmp_path, capsys, command):
    key = tmp_path / "big.key"
    key.write_text("seed=1\nM=8388608\nsr=1.0\nalpha=0.99\nbeta=0.95\ndmax=16\n"
                   "mix_region=0.25\nmix_count=0\n")
    inp = tmp_path / "in"
    inp.write_bytes(b"")
    out = tmp_path / "out"
    rc = cli.main([command, "--key", str(key), "--in", str(inp), "--out", str(out)])
    assert rc == 4 and not out.exists()
    assert "4096" in capsys.readouterr().err


def test_keygen_bounds_the_column_scale(tmp_path, capsys):
    # past 2**16 the scale draws lose exactness and a float32 decode can
    # overflow; 2**16 itself is allowed
    out = tmp_path / "k.key"
    rc = cli.main(["keygen", "--seed", "1", "--n", "64", "--sr", "0.5",
                   "--dmax", "65537", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 4 and not out.exists()
    assert len(err) == 1 and "65536" in err[0]
    assert cli.main(["keygen", "--seed", "1", "--n", "64", "--sr", "0.5",
                     "--dmax", "65536", "--out", str(out)]) == 0
    assert read_key_file(out).dmax == 65536


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_a_key_file_past_the_scale_bound_exits_4(tmp_path, capsys, command):
    key = tmp_path / "big.key"
    key.write_text("seed=1\nM=64\nsr=0.5\nalpha=0.99\nbeta=0.95\n"
                   "dmax=1000000000000000000\nmix_region=0.25\nmix_count=0\n")
    inp = tmp_path / "in"
    inp.write_bytes(b"")
    out = tmp_path / "out"
    rc = cli.main([command, "--key", str(key), "--in", str(inp), "--out", str(out)])
    assert rc == 4 and not out.exists()
    assert "65536" in capsys.readouterr().err


def test_guard_errors_exit_4(tmp_path, monkeypatch):
    def boom(args):
        raise GuardError("too big")
    monkeypatch.setattr(cli, "_cmd_attack", boom)
    rc = cli.main(["attack", "--out", str(tmp_path / "a.csv")])
    assert rc == 4


def test_exp_fig1_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["exp", "fig1", "--seed", "2", "--trials", "3", "--out", str(a)]) == 0
    assert cli.main(["exp", "fig1", "--seed", "2", "--trials", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "trial,two_step_rel_error,direct_l1_rel_error"
    assert len(lines) == 4
    assert a.read_bytes().endswith(b"\n")


@pytest.mark.parametrize("argv", [["exp", "fig1", "--trials", "-5"],
                                  ["attack", "--seeds", "-3"]])
def test_negative_counts_exit_2_without_output(tmp_path, capsys, argv):
    out = tmp_path / "neg.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["exp", "fig1", "--trials", "0"],
                                  ["attack", "--seeds", "0"]])
def test_zero_counts_write_the_header_only(tmp_path, argv):
    out = tmp_path / "zero.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1


def test_exp_sterm_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert cli.main(["exp", "sterm", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,beta,s,psnr_db,ref_psnr_db,ratio"
    diag_one = [l for l in lines[1:] if l.startswith("1,1,")]
    assert len(diag_one) == 1
    assert float(diag_one[0].split(",")[-1]) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("argv", [["exp", "attack"], ["exp", "fig1", "--seeds", "2"]])
def test_exp_has_no_attack_route(tmp_path, capsys, argv):
    # the attack sweep runs only as `blpcs attack`
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_exp_table_small_smoke(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = cli.main(["exp", "table1", "--seed", "4", "--trials", "1", "--n", "64",
                   "--dmax", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "image,sr,model,channel,plr,apsnr_db,seconds"
    assert len(lines) == 1 + 8  # 4 rates x 2 models
    assert all(line.endswith(",0.000") for line in lines[1:])  # no --timings
    # a table without trials has no APSNR to report: argument error, no file
    capsys.readouterr()
    for name, trials in (("table1", "0"), ("table2", "-2")):
        empty = tmp_path / f"{name}.csv"
        rc = cli.main(["exp", name, "--n", "32", "--trials", trials, "--out", str(empty)])
        assert rc == 2 and not empty.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_exp_table_timings_fill_only_the_seconds_column(tmp_path):
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    assert cli.main(["exp", "table1", "--n", "32", "--trials", "1", "--out", str(plain)]) == 0
    assert cli.main(["exp", "table1", "--n", "32", "--trials", "1", "--timings",
                     "--out", str(timed)]) == 0
    want = [line.split(",") for line in plain.read_text().splitlines()]
    got = [line.split(",") for line in timed.read_text().splitlines()]
    assert got[0][-1] == "seconds"
    assert [row[:-1] for row in got] == [row[:-1] for row in want]
    assert all(float(row[-1]) >= 0.0 for row in got[1:])


def test_natural_image_half_rate_window_and_wrong_key(tmp_path, capsys):
    # full-size run: the printed quality lands in the reported half-rate
    # window, and a wrong-seed key produces garbage
    img = make_test_image(512)
    ref = tmp_path / "img.pgm"
    save_pgm(img, ref)
    key = tmp_path / "k.key"
    assert cli.main(["keygen", "--seed", "21", "--n", "512", "--sr", "0.5",
                     "--out", str(key)]) == 0
    meas = tmp_path / "m.blpy"
    assert cli.main(["encode", "--key", str(key), "--in", str(ref),
                     "--out", str(meas)]) == 0
    rec = tmp_path / "rec.pgm"
    assert cli.main(["decode", "--key", str(key), "--in", str(meas),
                     "--out", str(rec), "--reference", str(ref)]) == 0
    value = float(capsys.readouterr().out.strip().split("=")[1])
    assert 29.5 <= value <= 33.5
    wrong = tmp_path / "w.key"
    assert cli.main(["keygen", "--seed", "22", "--n", "512", "--sr", "0.5",
                     "--out", str(wrong)]) == 0
    assert cli.main(["decode", "--key", str(wrong), "--in", str(meas),
                     "--out", str(tmp_path / "w.pgm"), "--reference", str(ref)]) == 0
    value_wrong = float(capsys.readouterr().out.strip().split("=")[1])
    assert value_wrong < 15.0


def test_attack_scatter_output(tmp_path):
    out, scatter = tmp_path / "a.csv", tmp_path / "s.csv"
    assert cli.main(["attack", "--seed", "5", "--seeds", "1", "--out", str(out),
                     "--scatter", str(scatter)]) == 0
    lines = scatter.read_text().splitlines()
    assert lines[0] == "plain_dist,cipher_dist"
    pts = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert len(pts) == 200 and np.all(pts > 0)
    # qualitative: under matrix reuse, ciphertext distance grows with
    # plaintext distance (no numeric threshold attached to the claim)
    assert np.corrcoef(pts[:, 0], pts[:, 1])[0, 1] > 0.5


def test_threads_env_parsing(monkeypatch):
    monkeypatch.setenv("BLPCS_THREADS", "3")
    assert cli.max_workers() == 3
    monkeypatch.setenv("BLPCS_THREADS", "0")
    assert cli.max_workers() >= 1
    monkeypatch.delenv("BLPCS_THREADS")
    assert cli.max_workers() >= 1
    for raw in ("junk", "-1", "2.5", ""):
        monkeypatch.setenv("BLPCS_THREADS", raw)
        with pytest.raises(ValueError, match="BLPCS_THREADS"):
            cli.max_workers()


def test_bad_threads_env_exits_2_without_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BLPCS_THREADS", "two")
    out = tmp_path / "a.csv"
    assert cli.main(["attack", "--seeds", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_keygen_mix_count_is_checked_against_the_image_region(tmp_path, capsys):
    # an image key's mixes live in the (2 side)^2 corner region of the 2-D
    # coefficients; 2 * 20 mixes exceed the 1-D region's 2 side = 16 entries
    # but fit the 2-D one
    key = tmp_path / "k.key"
    assert cli.main(["keygen", "--seed", "1", "--n", "64", "--sr", "0.5",
                     "--mix-count", "20", "--out", str(key)]) == 0
    ref, meas, rec = tmp_path / "in.pgm", tmp_path / "m.blpy", tmp_path / "rec.pgm"
    save_pgm(make_test_image(64), ref)
    assert cli.main(["encode", "--key", str(key), "--in", str(ref), "--out", str(meas)]) == 0
    assert cli.main(["decode", "--key", str(key), "--in", str(meas), "--out", str(rec),
                     "--reference", str(ref)]) == 0
    assert float(capsys.readouterr().out.strip().split("=")[1]) > 20.0
    with pytest.raises(ValueError, match="mix_count too large"):
        read_key_file(key).basis_spec()  # the 1-D region cannot host them
    assert cli.main(["keygen", "--seed", "1", "--n", "512", "--sr", "0.5",
                     "--mix-count", "100", "--out", str(tmp_path / "big.key")]) == 0
    with pytest.raises(ValueError, match="mix_count too large"):
        keygen(1, 16, 0.5, 1.0, mix_count=200)  # more than (2 side)^2 = 16 allows


def test_keygen_mix_region_reaches_the_key_and_its_mixes(tmp_path):
    # the mixes of a 0.5 region lie in the permuted 2 x (32 * 0.5) corners
    key = tmp_path / "k.key"
    assert cli.main(["keygen", "--seed", "3", "--n", "64", "--sr", "0.5",
                     "--mix-count", "4", "--mix-region", "0.5", "--out", str(key)]) == 0
    assert "mix_region=0.5\n" in key.read_text()
    loaded = read_key_file(key)
    assert loaded == keygen(3, 64, 0.5, 0.99, 0.95, dmax=16, mix_count=4, mix_region=0.5)
    spec = loaded.basis_spec(two_d=True)
    region = spec.perm.map[corner_region_2d(64, 16)]
    assert len(spec.mixes) == 4
    assert all(j in region and k in region for j, k, _, _ in spec.mixes)


# SHA-256 of the BLPY and PGM files of a 64x64 key with mixes (seed 7, sr 0.5,
# 4 mixes, CLI defaults otherwise); equal at OPENBLAS_NUM_THREADS 1 and 2
_MIXED_IMAGE_SHA256 = {
    "m.blpy": "9ca1d924ea8b532ceff09ae3e617bf19a29031aa8943f7d9906424b8fed85e9e",
    "rec.pgm": "d8a09ee09ab8eadd2a4fa72bf8518484a0ca5c72dc47d0b0a327a71f677b17d8",
}


def test_mixed_image_key_outputs_are_byte_stable(tmp_path):
    # the only check of the 2-D secret basis with mixes, byte for byte
    key, ref = tmp_path / "k.key", tmp_path / "in.pgm"
    save_pgm(make_test_image(64), ref)
    assert cli.main(["keygen", "--seed", "7", "--n", "64", "--sr", "0.5",
                     "--mix-count", "4", "--out", str(key)]) == 0
    assert cli.main(["encode", "--key", str(key), "--in", str(ref),
                     "--out", str(tmp_path / "m.blpy")]) == 0
    assert cli.main(["decode", "--key", str(key), "--in", str(tmp_path / "m.blpy"),
                     "--out", str(tmp_path / "rec.pgm")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in _MIXED_IMAGE_SHA256}
    assert got == _MIXED_IMAGE_SHA256


_KEYGEN_ENCODE_512 = """
import hashlib, sys
from pathlib import Path
import blpcs.cli as cli
from blpcs.imaging import make_test_image, save_pgm
out = Path(sys.argv[1])
save_pgm(make_test_image(512), out / "in.pgm")
assert cli.main(["keygen", "--seed", "7", "--n", "512", "--sr", "0.3",
                 "--out", str(out / "k.key")]) == 0
assert cli.main(["encode", "--key", str(out / "k.key"), "--in", str(out / "in.pgm"),
                 "--out", str(out / "m.blpy")]) == 0
print(hashlib.sha256((out / "m.blpy").read_bytes()).hexdigest())
"""


def test_512_measurement_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the secret basis of a 512x512 key comes from LAPACK's eigensolver at
    # n = 256, whose eigenvectors differ in the last bits between thread
    # counts unless it runs on one.  OpenBLAS reads its thread count once,
    # at load, so each count needs its own process
    src = str(Path(blpcs.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _KEYGEN_ENCODE_512, str(out)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]


_LOSSY_DECODE_512 = """
import hashlib, sys
from pathlib import Path
import blpcs.cli as cli
from blpcs.cipher import keygen, save_measurements, write_key_file
from blpcs.imaging import ChannelModel, apply_channel, columnwise_encode, make_test_image
from blpcs.keyrand import derive_stream
out = Path(sys.argv[1])
key = keygen(7, 512, 0.7, 0.99, 0.95, dmax=16)
write_key_file(key, out / "k.key")
Y = columnwise_encode(key, make_test_image(512))
Y = apply_channel(Y, ChannelModel("packet_loss", plr=0.3), derive_stream(3, "c"))
save_measurements(out / "m.blpy", Y, key.K)
assert cli.main(["decode", "--key", str(out / "k.key"), "--in", str(out / "m.blpy"),
                 "--out", str(out / "rec.pgm")]) == 0
print(hashlib.sha256((out / "rec.pgm").read_bytes()).hexdigest())
"""


def test_512_lossy_decode_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the float refit of a lossy decode may differ in its last bits between
    # thread counts (its Gram products), but the 8-bit image it writes may
    # not.  OpenBLAS reads its thread count once, at load, so each count
    # needs its own process
    src = str(Path(blpcs.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _LOSSY_DECODE_512, str(out)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]
