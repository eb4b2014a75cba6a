"""CLI contract: flags, exit codes, file handoffs, CSV determinism."""

import numpy as np
import pytest

import blpcs.cli as cli
from blpcs.cipher import load_measurements, save_measurements
from blpcs.errors import GuardError
from blpcs.imaging import make_test_image, save_pgm


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


def test_decode_rejects_missing_packet(tmp_path):
    key, meas = _encode_64(tmp_path)
    packets, K = load_measurements(meas)
    save_measurements(meas, packets[:-1], K)
    rc = cli.main(["decode", "--key", str(key), "--in", str(meas),
                   "--out", str(tmp_path / "r.pgm")])
    assert rc == 3


def test_decode_rejects_non_finite_measurement(tmp_path):
    key, meas = _encode_64(tmp_path)
    packets, K = load_measurements(meas)
    packets[3].values[5] = float("nan")
    save_measurements(meas, packets, K)
    out = tmp_path / "r.pgm"
    rc = cli.main(["decode", "--key", str(key), "--in", str(meas), "--out", str(out)])
    assert rc == 3 and not out.exists()


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


def test_exp_sterm_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert cli.main(["exp", "sterm", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,beta,s,psnr_db,ref_psnr_db,ratio"
    diag_one = [l for l in lines[1:] if l.startswith("1,1,")]
    assert len(diag_one) == 1
    assert float(diag_one[0].split(",")[-1]) == pytest.approx(1.0, abs=1e-6)


def test_exp_attack_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["exp", "attack", "--seed", "3", "--seeds", "2", "--out", str(a)]) == 0
    assert cli.main(["attack", "--seed", "3", "--seeds", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "target,seed,M,K,k,queries,break_success,rel_error"


def test_exp_table_small_smoke(tmp_path):
    out = tmp_path / "t.csv"
    rc = cli.main(["exp", "table1", "--seed", "4", "--trials", "1", "--n", "64",
                   "--dmax", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "image,sr,model,channel,plr,apsnr_db,seconds"
    assert len(lines) == 1 + 8  # 4 rates x 2 models
    assert all(line.endswith(",0.000") for line in lines[1:])  # no --timings


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
    monkeypatch.setenv("BLPCS_THREADS", "junk")
    assert cli.max_workers() >= 1
