"""CLI tests: subcommands, exit codes, file round-trips."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import ucdis
from ucdis import cli, codec, ducompm, harness, sources
from ucdis.sources import memoryless, sample_sequence


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env(*paths, **variables):
    """The environment of a fresh interpreter that imports this checkout's
    ucdis: ``paths``, then its source tree, first on PYTHONPATH."""
    src = str(Path(ucdis.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (*paths, src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **variables)


def assert_validation_error(capsys, *args, names):
    """The command exits 1 with no traceback and an error naming ``names``:
    one ``error:`` line, and a JSON object under ``--json``."""
    for mode in ([], ["--json"]):
        code, _, err = run_cli(capsys, *mode, *args)
        assert code == 1
        assert "Traceback" not in err
        message = json.loads(err)["error"]["message"] if mode else err
        assert names in message
        if not mode:
            assert err.startswith("error: ")


def assert_fresh_validation_error(*args, names, timeout):
    """``assert_validation_error`` in a fresh ``python -m ucdis.cli``, where
    each command imports what it runs after main has set up its exit-code
    table; a command still running after ``timeout`` seconds fails."""
    for mode in ([], ["--json"]):
        run = subprocess.run([sys.executable, "-m", "ucdis.cli", *mode, *args],
                             capture_output=True, text=True, env=fresh_env(), timeout=timeout)
        assert run.returncode == 1 and run.stdout == ""
        assert "Traceback" not in run.stderr
        message = json.loads(run.stderr)["error"]["message"] if mode else run.stderr
        assert names in message
        if not mode:
            assert run.stderr.startswith("error: ")


class TestBounds:
    def test_anchor(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--family", "memoryless", "--k", "256", "--n", "512",
            "--m", "32768", "--pe", "1e-6", "--strategy", "ducompm", "--mode", "approx",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total_bits"] == pytest.approx(21.7757744879973, abs=1e-6)
        assert 0.040 <= doc["rate"] <= 0.060
        assert doc["d"] == 255

    def test_ucompm_simple(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--k", "2", "--n", "1000", "--m", "1000", "--strategy", "ucompm",
        )
        assert code == 0
        assert json.loads(out)["total_bits"] == pytest.approx(0.5)

    def test_zero_pe_ducompm_notice(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--k", "4", "--n", "100", "--m", "400", "--pe", "0",
            "--strategy", "ducompm",
        )
        assert code == 0
        doc = json.loads(out)
        ucomp = json.loads(run_cli(capsys, "bounds", "--k", "4", "--n", "100", "--strategy", "ucomp")[1])
        assert doc["total_bits"] == pytest.approx(ucomp["total_bits"])
        assert any("ucomp" in note for note in doc["notes"])

    def test_validation_names_flag(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--k", "2", "--n", "100", "--strategy", "ducompm")
        assert code == 1
        assert "--m" in err

    def test_json_error_mode(self, capsys):
        code, _, err = run_cli(capsys, "--json", "bounds", "--k", "2", "--n", "100",
                               "--strategy", "ducompm")
        assert code == 1
        doc = json.loads(err)
        assert doc["error"]["code"] == 1

    def test_abbreviated_json_flag_rejected(self, capsys):
        # an abbreviation of --json would switch the parse to JSON mode while
        # the error printer looks for the literal flag
        code, _, err = run_cli(capsys, "--js", "bounds", "--n", "5", "--strategy", "ucompm")
        assert code == 1
        assert err == "error: unrecognized arguments: --js\n"
        code, out, _ = run_cli(capsys, "bounds", "--n", "5", "--m", "5", "--pe", "0.1",
                               "--strategy", "ducompm", "--mod", "exact")
        assert code == 0 and json.loads(out)["mode"] == "exact"

    def test_ducompm_memory_length_checked_at_zero_pe(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--strategy", "ducompm", "--pe", "0",
                                 "--m", "-5", "--n", "5")
        assert code == 1 and out == ""
        assert "m must be >= 1" in err

    @pytest.mark.parametrize("strategy", [
        ["--strategy", "ucomp"],
        ["--strategy", "ucompm", "--m", "5"],
        ["--strategy", "ducompm", "--m", "5", "--pe", "0.1", "--mode", "approx"],
        ["--strategy", "ducompm", "--m", "5", "--pe", "0.1", "--mode", "exact"],
    ], ids=["ucomp", "ucompm", "ducompm-approx", "ducompm-exact"])
    def test_length_beyond_a_float_is_a_validation_error(self, capsys, strategy):
        assert_validation_error(capsys, "bounds", "--k", "4", "--n", str(10**400), *strategy,
                                names="n must convert to a finite float")

    @pytest.mark.parametrize("args", [
        ["--k", str(10**15), "--pe", "0.95"],
        ["--family", "markov1", "--k", str(10**20), "--pe", "0.05"],
    ], ids=["memoryless-1e15", "markov1-1e20"])
    def test_quantile_beyond_its_domain_exits_one(self, args):
        # above d = 2^30 the quantile's series runs for more than 30 s (d near
        # 10^15) or divides by zero (d near 10^40)
        assert_fresh_validation_error(
            "bounds", "--strategy", "ducompm", "--n", "1000", "--m", "1000", "--mode", "exact",
            *args, names="d <= 2**30", timeout=10)


class TestRepeatedMain:
    def test_calls_share_the_parser_and_nothing_else(self, capsys, tmp_path):
        # the parser is built once per process; a rejected parse must leave
        # nothing behind for the next call, and each call gets its own options
        assert cli._build_parser() is cli._build_parser()
        code, _, err = run_cli(capsys, "--js", "bounds", "--n", "5", "--strategy", "ucompm")
        assert code == 1 and err == "error: unrecognized arguments: --js\n"
        code, out, err = run_cli(capsys, "--json", "bounds", "--k", "2", "--n", "1000",
                                 "--m", "1000", "--strategy", "ucompm")
        assert code == 0 and err == ""
        assert json.loads(out)["total_bits"] == pytest.approx(0.5)
        fam = memoryless(3)
        src, mem = tmp_path / "x.bin", tmp_path / "y.bin"
        x = sample_sequence(fam, [0.5, 0.3, 0.2], 60, seed=11)
        src.write_bytes(bytes(np.asarray(x, dtype=np.uint8)))
        mem.write_bytes(bytes(np.asarray(sample_sequence(fam, [0.5, 0.3, 0.2], 600, seed=12),
                                         dtype=np.uint8)))
        enc, dec = tmp_path / "w.ucds", tmp_path / "back.bin"
        assert run_cli(capsys, "encode", "--strategy", "ducompm", "--in", str(src),
                       "--out", str(enc), "--k", "3", "--pe", "0.1", "--memory-len", "600",
                       "--seed", "99")[0] == 0
        # decode's --seed default, not the encoder's 99: the hash misses
        code, _, err = run_cli(capsys, "decode", "--in", str(enc), "--memory", str(mem),
                               "--out", str(dec))
        assert code == 3 and "failure" in err
        assert run_cli(capsys, "decode", "--in", str(enc), "--memory", str(mem),
                       "--out", str(dec), "--seed", "99")[0] == 0
        assert np.array_equal(np.frombuffer(dec.read_bytes(), dtype=np.uint8), x)


class TestFigure:
    def test_fig2_csv(self, capsys, tmp_path):
        out = tmp_path / "fig2.csv"
        code, _, _ = run_cli(capsys, "figure", "--preset", "fig2", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# mode=approx"
        assert len(lines) == 12
        # UComp column is row-wise maximal
        for line in lines[2:]:
            _, ucomp, d40, d6, ucompm = map(float, line.split(",")[0:1] + line.split(",")[1:])
            assert ucomp >= d40 >= d6 >= ucompm

    def test_unknown_preset(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "figure", "--preset", "fig9", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "fig9" in err

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "figure", "--preset", "fig2",
                             "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2


class TestEncodeDecode:
    def _roundtrip_ucomp(self, capsys, tmp_path, data: bytes, k=256):
        src = tmp_path / "in.bin"
        enc = tmp_path / "out.ucds"
        dec = tmp_path / "back.bin"
        src.write_bytes(data)
        code, _, _ = run_cli(capsys, "encode", "--strategy", "ucomp", "--in", str(src),
                             "--out", str(enc), "--k", str(k))
        assert code == 0
        code, _, _ = run_cli(capsys, "decode", "--in", str(enc), "--out", str(dec))
        assert code == 0
        assert dec.read_bytes() == data

    def test_ucomp_roundtrip_small(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        self._roundtrip_ucomp(capsys, tmp_path, rng.integers(0, 256, size=2048, dtype=np.uint8).tobytes())

    def test_ucomp_roundtrip_one_mebibyte(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 64, size=1 << 20, dtype=np.uint8).tobytes()
        self._roundtrip_ucomp(capsys, tmp_path, data)

    def test_ucompm_roundtrip(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        mem = tmp_path / "mem.bin"
        src = tmp_path / "in.bin"
        enc = tmp_path / "out.ucds"
        dec = tmp_path / "back.bin"
        mem.write_bytes(rng.integers(0, 256, size=8192, dtype=np.uint8).tobytes())
        src.write_bytes(rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes())
        assert run_cli(capsys, "encode", "--strategy", "ucompm", "--in", str(src),
                       "--memory", str(mem), "--out", str(enc))[0] == 0
        assert run_cli(capsys, "decode", "--in", str(enc), "--memory", str(mem),
                       "--out", str(dec))[0] == 0
        assert dec.read_bytes() == src.read_bytes()

    def test_ucompm_requires_memory(self, capsys, tmp_path):
        src = tmp_path / "in.bin"
        src.write_bytes(b"\x00\x01")
        code, _, err = run_cli(capsys, "encode", "--strategy", "ucompm", "--in", str(src),
                               "--out", str(tmp_path / "o"))
        assert code == 1 and "--memory" in err

    def test_symbol_out_of_alphabet(self, capsys, tmp_path):
        src = tmp_path / "in.bin"
        src.write_bytes(bytes([0, 1, 9]))
        code, _, err = run_cli(capsys, "encode", "--strategy", "ucomp", "--in", str(src),
                               "--out", str(tmp_path / "o"), "--k", "4")
        assert code == 1 and "--k" in err

    def test_forged_length_is_a_validation_error(self, capsys, tmp_path):
        # one zero payload byte claimed to carry 200000 symbols
        enc, back = tmp_path / "w.ucds", tmp_path / "back.bin"
        enc.write_bytes(codec.pack_container(codec.Container(
            "ucomp", "memoryless", 256, 200_000, 0, 0.0, codec.BitStream(b"\x00", 8))))
        for mode in ([], ["--json"]):
            code, _, err = run_cli(capsys, *mode, "decode", "--in", str(enc), "--out", str(back))
            assert code == 1
            message = json.loads(err)["error"]["message"] if mode else err
            assert "overrun after 1 of 200000 symbols" in message
        assert not back.exists()

    def test_alphabet_beyond_a_byte_rejected(self, capsys, tmp_path):
        # symbols >= 256 would wrap in the one-byte-per-symbol output file
        fam = memoryless(300)
        payload = codec.encode_ucompm(fam, np.zeros((1, 300), np.int64), np.array([299, 5, 299, 257]))
        enc, back = tmp_path / "w.ucds", tmp_path / "back.bin"
        enc.write_bytes(codec.pack_container(codec.Container(
            "ucomp", "memoryless", 300, 4, 0, 0.0, payload)))
        code, _, err = run_cli(capsys, "decode", "--in", str(enc), "--out", str(back))
        assert code == 1 and "k=300" in err
        assert not back.exists()
        src = tmp_path / "in.bin"
        src.write_bytes(bytes([5, 1]))
        code, _, err = run_cli(capsys, "encode", "--strategy", "ucomp", "--in", str(src),
                               "--out", str(enc), "--k", "300")
        assert code == 1 and "--k" in err

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "encode", "--strategy", "ucomp",
                             "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "o"))
        assert code == 2


class TestOutputWriter:
    """Outputs are written in place and cut to length: the bytes, the inode
    and a new file's mode are those of a truncating write."""

    @pytest.fixture
    def files(self, tmp_path):
        rng = np.random.default_rng(23)
        paths = {name: tmp_path / f"{name}.bin" for name in ("long", "short")}
        paths["long"].write_bytes(rng.integers(0, 16, size=4096, dtype=np.uint8).tobytes())
        paths["short"].write_bytes(bytes([3, 1, 4, 1, 5]))
        return paths

    def _encode(self, capsys, src, out, *mode):
        return run_cli(capsys, *mode, "encode", "--strategy", "ucomp", "--k", "16",
                       "--in", str(src), "--out", str(out))

    def test_shorter_output_over_a_longer_file(self, capsys, tmp_path, files):
        enc, fresh = tmp_path / "w.ucds", tmp_path / "fresh.ucds"
        assert self._encode(capsys, files["long"], enc)[0] == 0
        long_size, inode = enc.stat().st_size, enc.stat().st_ino
        assert self._encode(capsys, files["short"], enc)[0] == 0
        assert self._encode(capsys, files["short"], fresh)[0] == 0
        assert enc.read_bytes() == fresh.read_bytes()
        assert enc.stat().st_size < long_size and enc.stat().st_ino == inode
        back = tmp_path / "back.bin"
        assert run_cli(capsys, "decode", "--in", str(enc), "--out", str(back))[0] == 0
        assert back.read_bytes() == files["short"].read_bytes()

    def test_decode_over_a_larger_file(self, capsys, tmp_path, files):
        enc, back = tmp_path / "w.ucds", tmp_path / "back.bin"
        assert self._encode(capsys, files["short"], enc)[0] == 0
        back.write_bytes(b"\xff" * 10_000)
        assert run_cli(capsys, "decode", "--in", str(enc), "--out", str(back))[0] == 0
        assert back.read_bytes() == files["short"].read_bytes()

    def test_new_file_mode_follows_the_umask(self, capsys, tmp_path, files):
        old = os.umask(0o027)
        try:
            assert self._encode(capsys, files["short"], tmp_path / "w.ucds")[0] == 0
        finally:
            os.umask(old)
        assert (tmp_path / "w.ucds").stat().st_mode & 0o777 == 0o640

    def test_dev_null(self, capsys, files):
        assert self._encode(capsys, files["long"], os.devnull) == (0, "", "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_dev_full_is_an_io_error(self, capsys, files):
        for mode in ([], ["--json"]):
            code, _, err = self._encode(capsys, files["long"], "/dev/full", *mode)
            assert code == 2
            assert "Traceback" not in err
            if mode:
                assert json.loads(err)["error"]["message"].startswith("cannot write /dev/full")
            else:
                assert err.startswith("error: cannot write /dev/full") and err.count("\n") == 1

    def test_failed_write_leaves_only_the_written_bytes(self, capsys, tmp_path, files,
                                                       monkeypatch):
        enc = tmp_path / "w.ucds"
        enc.write_bytes(b"\xff" * 10_000)
        real_write, calls = os.write, []

        def short_then_full(fd, data):
            calls.append(bytes(data))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data[:7])

        monkeypatch.setattr(os, "write", short_then_full)
        code, _, err = self._encode(capsys, files["long"], enc)
        monkeypatch.undo()
        assert code == 2
        assert err.startswith(f"error: cannot write {enc}: [Errno {errno.ENOSPC}]")
        assert len(calls) == 2 and calls[1] == calls[0][7:]
        assert enc.read_bytes() == calls[0][:7]


class TestDucompmCli:
    def _write_seq(self, path, fam, theta, n, seed):
        x = sample_sequence(fam, theta, n, seed)
        path.write_bytes(bytes(np.asarray(x, dtype=np.uint8)))
        return x

    def test_encoder_refuses_memory_file(self, capsys, tmp_path):
        src = tmp_path / "in.bin"
        src.write_bytes(b"\x00\x01\x00")
        code, _, err = run_cli(
            capsys, "encode", "--strategy", "ducompm", "--in", str(src),
            "--memory", str(src), "--out", str(tmp_path / "o"), "--k", "2", "--pe", "0.1",
        )
        assert code == 1
        assert "memory-len" in err

    def test_roundtrip_matched_sources(self, capsys, tmp_path):
        fam = memoryless(3)
        theta = [0.5, 0.3, 0.2]
        src, mem = tmp_path / "x.bin", tmp_path / "y.bin"
        x = self._write_seq(src, fam, theta, 300, seed=101)
        self._write_seq(mem, fam, theta, 3000, seed=102)
        enc, dec = tmp_path / "w.ucds", tmp_path / "back.bin"
        code, _, _ = run_cli(
            capsys, "encode", "--strategy", "ducompm", "--in", str(src), "--out", str(enc),
            "--k", "3", "--pe", "0.05", "--memory-len", "3000",
        )
        assert code == 0
        code, _, _ = run_cli(capsys, "decode", "--in", str(enc), "--memory", str(mem),
                             "--out", str(dec))
        assert code == 0
        assert np.array_equal(np.frombuffer(dec.read_bytes(), dtype=np.uint8), x)

    @pytest.mark.parametrize("field, value, message", [
        ("p_e", float("nan"), "p_e must lie in (0,1)"),
        ("p_e", 0.0, "p_e must lie in (0,1)"),
        ("k", 1, "alphabet size must be >= 2"),
        ("family_kind", "markov1", "supports only memoryless"),
    ], ids=["pe-nan", "pe-zero", "k-1", "markov1"])
    def test_crafted_container_is_a_validation_error(self, capsys, tmp_path, field, value,
                                                     message):
        fields = dict(strategy="ducompm", family_kind="memoryless", k=2, n=10, m=4,
                      p_e=0.1, payload=codec.BitStream(b"\x00\x01\x00", 24))
        fields[field] = value
        enc, mem = tmp_path / "w.ucds", tmp_path / "y.bin"
        enc.write_bytes(codec.pack_container(codec.Container(**fields)))
        mem.write_bytes(b"\x00\x01\x00\x01")
        for mode in ([], ["--json"]):
            code, _, err = run_cli(capsys, *mode, "decode", "--in", str(enc),
                                   "--memory", str(mem), "--out", str(tmp_path / "back.bin"))
            assert code == 1
            if mode:
                assert json.loads(err)["error"]["code"] == 1
                assert message in json.loads(err)["error"]["message"]
            else:
                assert err.startswith("error: ") and message in err
        assert not (tmp_path / "back.bin").exists()

    def test_memory_length_beyond_the_header(self, capsys, tmp_path):
        src = tmp_path / "x.bin"
        self._write_seq(src, memoryless(3), [0.5, 0.3, 0.2], 60, seed=5)
        enc = tmp_path / "w.ucds"
        for mode in ([], ["--json"]):
            code, _, err = run_cli(
                capsys, *mode, "encode", "--strategy", "ducompm", "--in", str(src),
                "--out", str(enc), "--k", "3", "--pe", "0.05", "--memory-len", "5000000000",
            )
            assert code == 1
            if mode:
                assert "field m=5000000000" in json.loads(err)["error"]["message"]
            else:
                assert err.startswith("error: ") and "field m=5000000000" in err
        assert not enc.exists()

    def test_declared_failure_exits_three(self, capsys, tmp_path):
        fam = memoryless(2)
        src, mem = tmp_path / "x.bin", tmp_path / "y.bin"
        self._write_seq(src, fam, [0.9, 0.1], 400, seed=7)
        self._write_seq(mem, fam, [0.02, 0.98], 4000, seed=8)  # distant parameter
        enc = tmp_path / "w.ucds"
        assert run_cli(capsys, "encode", "--strategy", "ducompm", "--in", str(src),
                       "--out", str(enc), "--k", "2", "--pe", "0.05",
                       "--memory-len", "4000")[0] == 0
        code, _, err = run_cli(capsys, "decode", "--in", str(enc), "--memory", str(mem),
                               "--out", str(tmp_path / "back.bin"))
        assert code == 3
        assert "failure" in err

    def test_candidate_cap_exits_one(self, tmp_path):
        # in a fresh interpreter, where ducompm is first imported by the
        # command itself
        src, enc = tmp_path / "x.bin", tmp_path / "w.ucds"
        self._write_seq(src, memoryless(8), [1 / 8] * 8, 200, seed=9)
        assert_fresh_validation_error(
            "encode", "--strategy", "ducompm", "--k", "8", "--pe", "0.05", "--memory-len", "2000",
            "--in", str(src), "--out", str(enc), names="candidate_cap=10000000", timeout=120)
        assert not enc.exists()

    def test_hash_width_overflow_is_a_validation_error(self, capsys, tmp_path):
        # p_e = 1e-320 makes N / beta overflow to inf
        src = tmp_path / "x.bin"
        self._write_seq(src, memoryless(3), [0.5, 0.3, 0.2], 300, seed=101)
        assert_validation_error(
            capsys, "encode", "--strategy", "ducompm", "--in", str(src),
            "--out", str(tmp_path / "w.ucds"), "--k", "3", "--pe", "1e-320",
            "--memory-len", "3000", names="exceeds 64 bits",
        )
        assert not (tmp_path / "w.ucds").exists()


class TestDecodeWithMemory:
    """ucompm and ducompm containers decode only with a memory file of the
    container's length m; ucomp ignores one on either side."""

    @pytest.fixture
    def files(self, tmp_path):
        fam, theta = memoryless(3), [0.5, 0.3, 0.2]
        paths = {}
        for name, n, seed in (("x", 300, 31), ("y", 3000, 32), ("short", 2999, 33)):
            paths[name] = tmp_path / f"{name}.bin"
            x = sample_sequence(fam, theta, n, seed)
            paths[name].write_bytes(bytes(np.asarray(x, dtype=np.uint8)))
        return paths

    def _encode(self, capsys, files, strategy, *extra):
        enc = files["x"].with_name(f"{strategy}.ucds")
        memory = {"ucomp": [], "ucompm": ["--memory", str(files["y"])],
                  "ducompm": ["--memory-len", "3000", "--pe", "0.05"]}[strategy]
        assert run_cli(capsys, "encode", "--strategy", strategy, "--in", str(files["x"]),
                       "--out", str(enc), "--k", "3", *memory, *extra)[0] == 0
        return enc

    def _decode(self, capsys, enc, out, *memory):
        return run_cli(capsys, "decode", "--in", str(enc), "--out", str(out), *memory)

    @pytest.mark.parametrize("strategy", ["ucompm", "ducompm"])
    def test_missing_memory(self, capsys, tmp_path, files, strategy):
        enc, back = self._encode(capsys, files, strategy), tmp_path / "back.bin"
        code, _, err = self._decode(capsys, enc, back)
        assert code == 1 and "--memory" in err
        assert not back.exists()

    @pytest.mark.parametrize("strategy", ["ucompm", "ducompm"])
    def test_memory_of_wrong_length(self, capsys, tmp_path, files, strategy):
        enc, back = self._encode(capsys, files, strategy), tmp_path / "back.bin"
        code, _, err = self._decode(capsys, enc, back, "--memory", str(files["short"]))
        assert code == 1 and "2999" in err and "3000" in err
        assert not back.exists()
        assert self._decode(capsys, enc, back, "--memory", str(files["y"]))[0] == 0
        assert back.read_bytes() == files["x"].read_bytes()

    @pytest.mark.parametrize("strategy", ["ucompm", "ducompm"])
    def test_memory_checked_and_counted_once(self, capsys, tmp_path, files, strategy,
                                             monkeypatch):
        # the codecs take the memory's counts: the command reads, checks and
        # counts the 3,000-symbol memory once
        enc, back = self._encode(capsys, files, strategy), tmp_path / "back.bin"
        checked = []
        for module in (sources, codec, ducompm):
            real = module._validate_sequence
            monkeypatch.setattr(module, "_validate_sequence",
                                lambda x, k, real=real: checked.append(len(x)) or real(x, k))
        counted = mock.Mock(wraps=sources.context_counts)
        monkeypatch.setattr(cli, "context_counts", counted)
        assert self._decode(capsys, enc, back, "--memory", str(files["y"]))[0] == 0
        assert back.read_bytes() == files["x"].read_bytes()
        assert checked.count(3000) == 1 and counted.call_count == 1

    def test_ucomp_decode_ignores_memory(self, capsys, tmp_path, files):
        enc = self._encode(capsys, files, "ucomp")
        plain, primed = tmp_path / "plain.bin", tmp_path / "primed.bin"
        assert self._decode(capsys, enc, plain)[0] == 0
        assert self._decode(capsys, enc, primed, "--memory", str(files["short"]))[0] == 0
        assert primed.read_bytes() == plain.read_bytes() == files["x"].read_bytes()

    def test_ucomp_encode_ignores_memory(self, capsys, files):
        plain = self._encode(capsys, files, "ucomp").read_bytes()
        primed = self._encode(capsys, files, "ucomp", "--memory", str(files["y"])).read_bytes()
        assert codec.unpack_container(primed).m == 0
        assert primed == plain


class TestExperimentCli:
    def _config(self, tmp_path, **overrides):
        doc = {
            "family": "memoryless", "k": 2, "n": 150, "m": 300, "p_e": 0.1,
            "strategies": ["ucomp", "ucompm", "ducompm"], "trials": 25,
            "master_seed": 5,
        }
        doc.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_experiment_csv(self, capsys, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("strategy,k,n,m,p_e,trials,")
        assert len(lines) == 4

    def test_experiment_json_out(self, capsys, tmp_path):
        cfg = self._config(tmp_path, strategies=["ucomp"])
        out = tmp_path / "rows.json"
        assert run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(out))[0] == 0
        doc = json.load(open(out))
        assert doc["config"]["k"] == 2
        assert len(doc["rows"]) == 1

    def test_echoed_config_runs_again(self, capsys, tmp_path):
        # a results file's config is itself a config file
        cfg = self._config(tmp_path, theta=[0.3, 0.7], collision_budget=0.25, trials=6)
        first, again = tmp_path / "rows.json", tmp_path / "again.json"
        assert run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(first))[0] == 0
        doc = json.loads(first.read_text())
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(doc["config"]))
        code, _, err = run_cli(capsys, "experiment", "--config", str(echo), "--out", str(again))
        assert (code, err) == (0, "")
        assert json.loads(again.read_text()) == doc

    def test_zero_trials(self, capsys, tmp_path):
        cfg = self._config(tmp_path)
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg),
                               "--out", str(tmp_path / "o.csv"), "--trials", "0")
        assert code == 1 and "trials" in err

    def test_missing_config(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "experiment", "--config", str(tmp_path / "nope.json"),
                             "--out", str(tmp_path / "o.csv"))
        assert code == 2

    def test_unknown_field_rejected(self, capsys, tmp_path):
        cfg = self._config(tmp_path, bogus_field=1)
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg),
                               "--out", str(tmp_path / "o.csv"))
        assert code == 1 and "bogus_field" in err

    def test_unknown_family_named_as_in_the_file(self, capsys, tmp_path):
        cfg = self._config(tmp_path, family="x")
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg),
                               "--out", str(tmp_path / "o.csv"))
        assert code == 1 and "family: unknown 'x'" in err and "family_kind" not in err

    def test_candidate_cap_exceeded(self, capsys, tmp_path):
        cfg = self._config(tmp_path, k=3, n=30, m=300, candidate_cap=1, trials=2)
        for mode in ([], ["--json"]):
            code, _, err = run_cli(capsys, *mode, "experiment", "--config", str(cfg),
                                   "--out", str(tmp_path / "o.csv"))
            assert code == 1
            message = json.loads(err)["error"]["message"] if mode else err
            assert "candidate_cap=1" in message
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("overrides, field", [
        (dict(strategies=["ucompm"], m=0), "m"),
        (dict(strategies=["ucomp"], n=1), "n"),
        (dict(inflation=0.5), "inflation"),
        (dict(inflation=float("inf")), "inflation"),
        (dict(collision_budget=2), "collision_budget"),
        (dict(strategies=5), "strategies"),
        (dict(theta=0.5), "theta"),
        (dict(trials=2.5), "trials"),
        (dict(n=20.0), "n"),
        (dict(theta=[float("nan"), 0.5]), "theta"),
    ], ids=["ucompm-m0", "ucomp-n1", "inflation-half", "inflation-inf", "budget-2",
            "strategies-int", "theta-scalar", "trials-float", "n-float", "theta-nan"])
    def test_config_rejected_before_any_trial(self, capsys, tmp_path, monkeypatch, overrides,
                                               field):
        def no_trial(*args):
            raise AssertionError("a trial ran before the config was rejected")

        monkeypatch.setattr(harness, "sample_sequence", no_trial)
        cfg = self._config(tmp_path, **overrides)
        for mode in ([], ["--json"]):
            code, _, err = run_cli(capsys, *mode, "experiment", "--config", str(cfg),
                                   "--out", str(tmp_path / "o.csv"))
            assert code == 1
            assert "Traceback" not in err
            message = json.loads(err)["error"]["message"] if mode else err
            assert field in message
            if not mode:
                assert err.startswith("error: ")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["experiment", "coverage"])
    @pytest.mark.parametrize("error, names", [
        (MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,) "
                     "and data type float64"), "out of memory: Unable to allocate 8.00 TiB"),
        (MemoryError(), "out of memory: an allocation failed"),
    ], ids=["numpy-message", "no-message"])
    def test_failed_allocation_exits_one(self, capsys, tmp_path, monkeypatch, command, error,
                                         names):
        # the draw stands in for one numpy cannot allocate: a real one of
        # that size can succeed under memory overcommit and exhaust the host
        def refuse(*args):
            raise error

        monkeypatch.setattr(harness, "sample_sequence", refuse)
        cfg = self._config(tmp_path, strategies=["ducompm"], trials=2)
        assert_validation_error(capsys, command, "--config", str(cfg),
                                "--out", str(tmp_path / "o.csv"), names=names)
        assert not (tmp_path / "o.csv").exists()

    def test_hash_width_overflow_is_a_validation_error(self, capsys, tmp_path):
        cfg = self._config(tmp_path, strategies=["ducompm"], collision_budget=1e-320, trials=2)
        assert_validation_error(capsys, "experiment", "--config", str(cfg),
                                "--out", str(tmp_path / "o.csv"), names="exceeds 64 bits")
        assert not (tmp_path / "o.csv").exists()

    def test_coverage_csv(self, capsys, tmp_path):
        cfg = self._config(tmp_path, strategies=["ducompm"], trials=40)
        out = tmp_path / "cov.csv"
        assert run_cli(capsys, "coverage", "--config", str(cfg), "--out", str(out))[0] == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,n,m,p_e,trials,empirical_coverage,target"

    @pytest.mark.parametrize("command", ["experiment", "coverage"])
    def test_io_error_has_path_context(self, capsys, tmp_path, command):
        cfg = self._config(tmp_path, strategies=["ducompm"], trials=2)
        out = tmp_path / "no" / "such" / "dir.csv"
        for mode in ([], ["--json"]):
            code, _, err = run_cli(capsys, *mode, command, "--config", str(cfg), "--out", str(out))
            assert code == 2
            assert "Traceback" not in err
            message = json.loads(err)["error"]["message"] if mode else err
            assert f"cannot write {out}: " in message

    @pytest.mark.parametrize("command, name", [
        ("experiment", "rows.csv"), ("experiment", "rows.json"), ("coverage", "cov.csv"),
    ])
    def test_out_over_a_longer_file(self, capsys, tmp_path, command, name):
        cfg = self._config(tmp_path, strategies=["ducompm"], trials=2)
        out, fresh = tmp_path / name, tmp_path / f"fresh-{name}"
        out.write_bytes(b"\xff" * 100_000)
        inode = out.stat().st_ino
        assert run_cli(capsys, command, "--config", str(cfg), "--out", str(out))[0] == 0
        assert run_cli(capsys, command, "--config", str(cfg), "--out", str(fresh))[0] == 0
        assert out.read_bytes() == fresh.read_bytes() and out.stat().st_ino == inode

    def test_determinism_across_runs(self, capsys, tmp_path):
        cfg = self._config(tmp_path, strategies=["ucomp"])
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(out1))
        run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(out2), "--threads", "2")
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_rejected(self, capsys, tmp_path, threads):
        cfg = self._config(tmp_path, strategies=["ucomp"], trials=2)
        for name in ("experiment", "coverage"):
            code, _, err = run_cli(capsys, name, "--config", str(cfg),
                                   "--out", str(tmp_path / "o.csv"), "--threads", threads)
            assert code == 1 and "--threads" in err and threads in err
        assert not (tmp_path / "o.csv").exists()


class TestNoCommandLoadsScipy:
    """No ucdis command imports scipy, in its own process or in a worker it
    starts, and each command loads only the modules it runs.  Each case runs
    its commands through ``cli.main`` in a fresh interpreter whose path puts
    first a stand-in ``scipy`` package that records the id of every process
    importing it."""

    # outside ucdis, the modules whose loading is recorded
    WATCHED = ("scipy", "multiprocessing", "concurrent.futures", "csv")
    SCRIPT = (
        "import json, sys\n"
        "from ucdis import cli\n"
        "loaded = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    loaded.append(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        "print(json.dumps(loaded))\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name.startswith('ucdis.') or name in json.loads(sys.argv[2]))))\n"
    )
    STAND_IN = (
        "import os\n"
        "with open(os.environ['SCIPY_IMPORT_LOG'], 'a') as log:\n"
        "    log.write(f'{os.getpid()}\\n')\n"
    )
    # what every command loads: the CLI and the modules a lossless codec runs
    LOSSLESS = {"ucdis.cli", "ucdis.codec", "ucdis.numerics", "ucdis.rng", "ucdis.sources"}

    def _assert_no_scipy(self, tmp_path, *commands):
        """Runs ``commands`` in one fresh interpreter and asserts that none
        loads scipy; returns the ucdis submodules and WATCHED modules loaded
        after the last."""
        stand_in = tmp_path / "stand-in"
        (stand_in / "scipy").mkdir(parents=True, exist_ok=True)
        (stand_in / "scipy" / "__init__.py").write_text(self.STAND_IN)
        log = tmp_path / "scipy-imports.log"
        env = fresh_env(str(stand_in), SCIPY_IMPORT_LOG=str(log))
        run = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(commands),
                              json.dumps(self.WATCHED)],
                             capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr
        *_, per_command, loaded = run.stdout.splitlines()
        assert json.loads(per_command) == [[]] * len(commands)
        assert not log.exists(), log.read_text()
        return set(json.loads(loaded))

    def _write(self, path, n, seed, family=None):
        family = family or memoryless(3)
        theta = [[0.5, 0.3, 0.2]] * 3 if family.kind == "markov1" else [0.5, 0.3, 0.2]
        x = sample_sequence(family, theta, n, seed)
        path.write_bytes(bytes(np.asarray(x, dtype=np.uint8)))
        return str(path)

    def _config(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "family": "memoryless", "k": 3, "n": 300, "m": 3000, "p_e": 0.05,
            "strategies": ["ucomp", "ucompm", "ducompm"], "trials": 4, "master_seed": 7}))
        return str(cfg)

    def test_lossless_commands_do_not_load_scipy(self, tmp_path):
        # nor the ducompm codec, the harness, the bounds engine or a pool
        x, y = self._write(tmp_path / "x.bin", 300, 41), self._write(tmp_path / "y.bin", 3000, 42)
        chain = self._write(tmp_path / "c.bin", 300, 43, sources.markov1(3))
        out = {name: str(tmp_path / name)
               for name in ("u.ucds", "u.bin", "m.ucds", "m.bin", "c.ucds", "c.bin")}
        commands = [
            ["encode", "--strategy", "ucomp", "--k", "3", "--in", x, "--out", out["u.ucds"]],
            ["decode", "--in", out["u.ucds"], "--out", out["u.bin"]],
            ["encode", "--strategy", "ucompm", "--k", "3", "--in", x, "--memory", y,
             "--out", out["m.ucds"]],
            ["decode", "--in", out["m.ucds"], "--memory", y, "--out", out["m.bin"]],
            ["encode", "--strategy", "ucomp", "--family", "markov1", "--k", "3", "--in", chain,
             "--out", out["c.ucds"]],
            ["decode", "--in", out["c.ucds"], "--out", out["c.bin"]],
        ]
        assert self._assert_no_scipy(tmp_path, *commands) == self.LOSSLESS
        assert Path(out["u.bin"]).read_bytes() == Path(out["m.bin"]).read_bytes() \
            == Path(x).read_bytes()
        assert Path(out["c.bin"]).read_bytes() == Path(chain).read_bytes()

    def test_quantile_commands_do_not_load_scipy(self, tmp_path):
        # every command that computes a chi-square quantile, by command class:
        # the ducompm codec, the bounds commands (with the ucomp bound) and
        # the experiment and coverage runs through a 2-worker pool
        x, y = self._write(tmp_path / "x.bin", 300, 41), self._write(tmp_path / "y.bin", 3000, 42)
        d, back = str(tmp_path / "d.ucds"), str(tmp_path / "d.bin")
        codec_commands = [
            ["encode", "--strategy", "ducompm", "--k", "3", "--pe", "0.05",
             "--memory-len", "3000", "--in", x, "--out", d],
            ["decode", "--in", d, "--memory", y, "--out", back],
        ]
        assert self._assert_no_scipy(tmp_path, *codec_commands) == self.LOSSLESS | {"ucdis.ducompm"}
        assert Path(back).read_bytes() == Path(x).read_bytes()
        bounds_commands = [
            ["bounds", "--strategy", "ucomp", "--k", "3", "--n", "300"],
            ["bounds", "--strategy", "ducompm", "--k", "3", "--n", "300", "--m", "3000",
             "--pe", "0.05", "--mode", "exact"],
            ["figure", "--preset", "fig2", "--mode", "exact", "--out", str(tmp_path / "f.csv")],
        ]
        assert self._assert_no_scipy(tmp_path, *bounds_commands) == self.LOSSLESS | {"ucdis.bounds"}
        cfg = self._config(tmp_path)
        self._assert_no_scipy(
            tmp_path,
            ["experiment", "--config", cfg, "--out", str(tmp_path / "e.csv"), "--threads", "2"],
            ["coverage", "--config", cfg, "--out", str(tmp_path / "c.csv"), "--threads", "2"],
        )

    def test_one_worker_harness_commands_load_no_pool(self, tmp_path):
        cfg = self._config(tmp_path)
        commands = [["experiment", "--config", cfg, "--out", str(tmp_path / "e.csv")],
                    ["coverage", "--config", cfg, "--out", str(tmp_path / "c.json")]]
        assert self._assert_no_scipy(tmp_path, *commands) == self.LOSSLESS | {
            "ucdis.bounds", "ucdis.ducompm", "ucdis.harness", "csv"}
