import gc
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from wishartmin import cli, exactlaw, microlaw, sampler
from wishartmin.cli import main
from wishartmin.exactlaw import ExactLaw
from wishartmin.microlaw import make_micro_config, micro_gap, micro_pmin
from wishartmin.spectra import EmpiricalSpectrum, make_config

from conftest import BENCH10_SPECTRUM


@pytest.fixture
def bench10_file(tmp_path):
    path = tmp_path / "bench10.txt"
    path.write_text("# population eigenvalues\n" + "\n".join(str(v) for v in BENCH10_SPECTRUM) + "\n")
    return str(path)


@pytest.fixture
def small_file(tmp_path):
    path = tmp_path / "small.txt"
    path.write_text("1.0\n2.0\n4.0\n")
    return str(path)


def read_csv(path):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#") or not line:
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows)


class TestExact:
    def test_gamma0_gap_is_exponential(self, small_file, tmp_path):
        out = str(tmp_path / "exact.csv")
        rc = main([
            "exact", "--beta", "2", "--p", "3", "--n", "3", "--spectrum", small_file,
            "--t-max", "1.0", "--t-steps", "50", "--out", out,
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["t", "gap", "pmin"]
        rate = 1.0 + 0.5 + 0.25
        for t, gap, pmin in rows:
            assert gap == pytest.approx(math.exp(-rate * t), rel=1e-14)

    def test_density_column_integrates_to_gap_drop(self, bench10_file, tmp_path):
        out = str(tmp_path / "bench10.csv")
        rc = main([
            "exact", "--beta", "1", "--p", "10", "--n", "13", "--spectrum", bench10_file,
            "--t-min", "0", "--t-max", "0.5", "--t-steps", "400", "--out", out,
        ])
        assert rc == 0
        _, rows = read_csv(out)
        law = ExactLaw(EmpiricalSpectrum(BENCH10_SPECTRUM), make_config(1, 10, 13))
        # scipy comes with the optional test extra
        integrate = pytest.importorskip("scipy.integrate", exc_type=ImportError)
        integral = integrate.simpson(rows[:, 2], x=rows[:, 0])
        assert integral == pytest.approx(1.0 - law.gap(0.5), abs=1e-6)

    def test_huge_eigenvalue_is_evaluated(self, tmp_path):
        # e_1 = e_2 = 1e308 at the edge of double precision
        spectrum = tmp_path / "huge.txt"
        spectrum.write_text("1e308\n1.0\n")
        out = str(tmp_path / "huge.csv")
        rc = main([
            "exact", "--beta", "1", "--p", "2", "--n", "7", "--spectrum", str(spectrum),
            "--t-min", "0.05", "--t-max", "6", "--t-steps", "5", "--out", out,
        ])
        assert rc == 0
        _, rows = read_csv(out)
        law = ExactLaw(EmpiricalSpectrum((1e308, 1.0)), make_config(1, 2, 7))
        assert rows[:, 1].tolist() == law.gap_grid(rows[:, 0]).tolist()
        assert np.all((rows[:, 1] > 0) & (rows[:, 1] < 1) & (rows[:, 2] > 0))

    def test_c_normalization_column(self, small_file, tmp_path):
        out = str(tmp_path / "cnorm.csv")
        rc = main([
            "exact", "--beta", "2", "--p", "3", "--n", "4", "--spectrum", small_file,
            "--t-max", "1.0", "--t-steps", "10", "--c-normalization", "--out", out,
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["t", "gap", "pmin", "t_over_n"]
        assert np.allclose(rows[:, 3], rows[:, 0] / 4.0)

    def test_metadata_comment_line(self, small_file, tmp_path):
        out = str(tmp_path / "meta.csv")
        main([
            "exact", "--beta", "2", "--p", "3", "--n", "3", "--spectrum", small_file,
            "--t-max", "1.0", "--t-steps", "5", "--out", out,
        ])
        with open(out) as fh:
            first = fh.readline()
        assert first.startswith("# command: wishartmin exact")

    def test_missing_spectrum_is_usage_error(self, tmp_path):
        out = str(tmp_path / "never.csv")
        rc = main([
            "exact", "--beta", "2", "--p", "3", "--n", "3",
            "--spectrum", str(tmp_path / "nope.txt"),
            "--t-max", "1.0", "--out", out,
        ])
        assert rc == 2
        assert not (tmp_path / "never.csv").exists()

    def test_parity_violation_is_usage_error(self, bench10_file, tmp_path):
        rc = main([
            "exact", "--beta", "1", "--p", "10", "--n", "14", "--spectrum", bench10_file,
            "--t-max", "0.5", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2

    def test_bad_grid_is_usage_error(self, small_file, tmp_path):
        rc = main([
            "exact", "--beta", "2", "--p", "3", "--n", "3", "--spectrum", small_file,
            "--t-min", "1.0", "--t-max", "0.5", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2


class TestMicro:
    def test_gamma0_gap(self, tmp_path):
        out = str(tmp_path / "micro.csv")
        rc = main([
            "micro", "--beta", "2", "--gamma", "0",
            "--u-min", "0.5", "--u-max", "10", "--u-steps", "20", "--out", out,
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["u", "gap", "pmin"]
        for u, gap, pmin in rows:
            assert gap == pytest.approx(math.exp(-u / 4.0), rel=1e-14)
            assert pmin == pytest.approx(0.25 * math.exp(-u / 4.0), rel=1e-14)

    def test_u_min_zero_row(self, tmp_path, capsys):
        # u = 0 is in the law's domain: gap 1 and, at gamma > 0, density 0
        out = tmp_path / "zero.csv"
        rc = main([
            "micro", "--beta", "2", "--gamma", "2",
            "--u-min", "0", "--u-max", "10", "--u-steps", "3", "--out", str(out),
        ])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[2] == "0.0,1.0,0.0"

    def test_u_min_defaults_to_zero(self, tmp_path):
        out = str(tmp_path / "default.csv")
        assert main(["micro", "--beta", "2", "--gamma", "2", "--u-steps", "3", "--out", out]) == 0
        assert read_csv(out)[1][:, 0].tolist() == [0.0, 20.0, 40.0]

    def test_beta1_curve(self, tmp_path):
        out = str(tmp_path / "b1.csv")
        rc = main([
            "micro", "--beta", "1", "--gamma", "1",
            "--u-max", "20", "--u-steps", "30", "--out", out,
        ])
        assert rc == 0
        _, rows = read_csv(out)
        assert np.all(np.diff(rows[:, 1]) < 0)


class TestSample:
    def test_byte_identical_runs(self, bench10_file, tmp_path):
        args = [
            "sample", "--beta", "1", "--p", "10", "--n", "13", "--spectrum", bench10_file,
            "--count", "300", "--seed", "7",
        ]
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        with open(out1, "rb") as fh:
            b1 = fh.read()
        with open(out2, "rb") as fh:
            b2 = fh.read()
        # identical up to the self-referential output path in the header
        assert b1.split(b"\n", 1)[1] == b2.split(b"\n", 1)[1]

    def test_metadata_json(self, small_file, tmp_path):
        out = str(tmp_path / "s.csv")
        rc = main([
            "sample", "--beta", "2", "--p", "3", "--n", "5", "--spectrum", small_file,
            "--count", "10", "--seed", "3", "--out", out,
        ])
        assert rc == 0
        with open(out + ".meta.json") as fh:
            meta = json.load(fh)
        assert meta["beta"] == 2 and meta["p"] == 3 and meta["n"] == 5
        assert meta["count"] == 10 and meta["seed"] == 3
        assert "spectrum_hash" in meta

    def test_count_zero_is_usage_error(self, small_file, tmp_path):
        rc = main([
            "sample", "--beta", "2", "--p", "3", "--n", "5", "--spectrum", small_file,
            "--count", "0", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2


class TestVerify:
    def test_exact_mode_passes(self, small_file, tmp_path):
        out = str(tmp_path / "report.json")
        rc = main([
            "verify", "--mode", "exact", "--beta", "2", "--p", "3", "--n", "5",
            "--spectrum", small_file, "--count", "4000", "--seed", "5",
            "--bins", "30", "--out", out,
        ])
        assert rc == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["pass"] is True
        assert doc["statistic"] < doc["threshold"]
        with open(out + ".hist.csv") as fh:
            hist = fh.read().splitlines()
        assert hist[1] == "bin_left,bin_right,density,analytic_pmin"

    def test_histogram_columns_are_plain_floats(self, small_file, tmp_path):
        out = str(tmp_path / "hist.json")
        rc = main([
            "verify", "--mode", "exact", "--beta", "2", "--p", "3", "--n", "5",
            "--spectrum", small_file, "--count", "2000", "--seed", "5",
            "--bins", "20", "--out", out,
        ])
        assert rc == 0
        header, rows = read_csv(out + ".hist.csv")  # float() on every cell
        assert header == ["bin_left", "bin_right", "density", "analytic_pmin"]
        assert rows.shape == (20, 4)
        assert np.all(rows[1:, 0] == rows[:-1, 1])

    def test_wrong_law_fails_with_exit_1(self, small_file, tmp_path):
        out = str(tmp_path / "neg.json")
        rc = main([
            "verify", "--mode", "exact", "--beta", "2", "--p", "3", "--n", "5",
            "--spectrum", small_file, "--count", "4000", "--seed", "5",
            "--law-n", "7", "--out", out,
        ])
        assert rc == 1
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["pass"] is False
        assert doc["law_n"] == 7

    def test_micro_mode_with_threshold_override(self, tmp_path):
        # p is small, so the limiting law needs a generous threshold
        spec = tmp_path / "unit.txt"
        spec.write_text("".join("1.0\n" for _ in range(24)))
        out = str(tmp_path / "micro.json")
        rc = main([
            "verify", "--mode", "micro", "--beta", "2", "--p", "24", "--n", "26",
            "--spectrum", str(spec), "--count", "3000", "--seed", "9",
            "--ks-threshold", "0.08", "--out", out,
        ])
        assert rc == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["threshold"] == 0.08
        assert "threshold_note" in doc

    def test_threshold_note_without_tabulated_alpha(self, small_file, tmp_path):
        out = str(tmp_path / "a10.json")
        rc = main([
            "verify", "--mode", "exact", "--beta", "2", "--p", "3", "--n", "5",
            "--spectrum", small_file, "--count", "200", "--seed", "2",
            "--alpha", "0.1", "--ks-threshold", "0.5", "--out", out,
        ])
        assert rc == 0
        with open(out) as fh:
            note = json.load(fh)["threshold_note"]
        assert note.startswith("alpha=0.1 has no tabulated KS quantile; threshold set to 0.5")
        assert "nan" not in note

    @pytest.mark.parametrize("mode", ["exact", "micro"])
    def test_threshold_note_names_a_limiting_law_in_micro_mode_only(self, mode, small_file,
                                                                     tmp_path):
        out = str(tmp_path / f"{mode}.json")
        rc = main([
            "verify", "--mode", mode, "--beta", "2", "--p", "3", "--n", "5",
            "--spectrum", small_file, "--count", "200", "--seed", "2",
            "--ks-threshold", "0.5", "--out", out,
        ])
        assert rc == 0
        with open(out) as fh:
            note = json.load(fh)["threshold_note"]
        want = f"alpha-based threshold {round(1.63 / math.sqrt(200), 6)} overridden to 0.5"
        if mode == "micro":
            want += ": the reference law is a limiting law and carries finite-size bias at p=3"
        assert note == want

    def test_alpha_05_threshold(self, small_file, tmp_path):
        out = str(tmp_path / "a05.json")
        rc = main([
            "verify", "--mode", "exact", "--beta", "2", "--p", "3", "--n", "5",
            "--spectrum", small_file, "--count", "2000", "--seed", "2",
            "--alpha", "0.05", "--out", out,
        ])
        # a 5% test may legitimately fail ~5% of the time; only the
        # threshold mapping is under test here
        assert rc in (0, 1)
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["threshold"] == pytest.approx(1.36 / math.sqrt(2000))
        assert doc["pass"] == (doc["statistic"] < doc["threshold"])


def test_sample_and_verify_do_not_import_scipy(small_file, tmp_path):
    # scipy is only a test dependency; a lazy import would bring back its
    # import time and memory in every CLI process
    code = """
import sys
from wishartmin import cli
from wishartmin.cli import main
ens = ["--beta", "1", "--p", "3", "--n", "6", "--spectrum", sys.argv[1], "--seed", "4"]
assert main(["sample", *ens, "--count", "20", "--out", sys.argv[2] + "/s.csv"]) == 0
assert main(["verify", "--mode", "exact", *ens, "--count", "200",
             "--out", sys.argv[2] + "/v.json"]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, small_file, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_unknown_flag_exits_2(small_file):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--nonsense"])
    assert exc.value.code == 2


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


TWO = "1.0\n2.0\n"
THREE = "1.0\n2.0\n4.0\n"
SUBNORMAL = "1e-310\n2.0\n"


@pytest.mark.parametrize(
    "argv, spectrum_text",
    [
        # the hard-edge density needs Bessel order 81, above the supported 64
        (["micro", "--beta", "1", "--gamma", "40"], TWO),
        # n=91 at p=2 gives gamma=44 and Bessel order 89
        (["verify", "--mode", "micro", "--beta", "1", "--p", "2", "--n", "91",
          "--spectrum", "{spectrum}", "--count", "50", "--seed", "1"], TWO),
        (["micro", "--beta", "2", "--gamma", "2", "--u-max", "inf"], TWO),
        (["exact", "--beta", "2", "--p", "2", "--n", "3", "--spectrum", "{spectrum}",
          "--t-max", "inf"], TWO),
        # the Bessel series overflows at u = 1e6
        (["micro", "--beta", "2", "--gamma", "2", "--u-min", "1", "--u-max", "1e6",
          "--u-steps", "3"], TWO),
        # 1/1e-310 overflows the sum of inverse eigenvalues
        (["exact", "--beta", "2", "--p", "2", "--n", "3", "--spectrum", "{spectrum}",
          "--t-max", "1", "--t-steps", "3"], SUBNORMAL),
        (["verify", "--mode", "micro", "--beta", "2", "--p", "2", "--n", "3",
          "--spectrum", "{spectrum}", "--count", "50", "--seed", "1"], SUBNORMAL),
        # e_2 and e_3 of these spectra underflow double precision
        (["exact", "--beta", "2", "--p", "3", "--n", "5", "--spectrum", "{spectrum}",
          "--t-max", "1e-202", "--t-steps", "3"], "1e-200\n2e-200\n3e-200\n"),
        (["verify", "--mode", "exact", "--beta", "1", "--p", "3", "--n", "8",
          "--spectrum", "{spectrum}", "--count", "50", "--seed", "1"],
         "1e-120\n2e-120\n3e-120\n"),
        (["verify", "--mode", "exact", "--beta", "2", "--p", "2", "--n", "3",
          "--spectrum", "{spectrum}", "--count", "50", "--seed", "1",
          "--ks-threshold", "nan"], TWO),
        (["verify", "--mode", "exact", "--beta", "2", "--p", "2", "--n", "3",
          "--spectrum", "{spectrum}", "--count", "50", "--seed", "1",
          "--ks-threshold", "-1"], TWO),
        # one sample gives no histogram
        (["verify", "--mode", "exact", "--beta", "2", "--p", "2", "--n", "3",
          "--spectrum", "{spectrum}", "--count", "1", "--seed", "1"], TWO),
        # a grid point below 0 is outside both laws' domain
        (["micro", "--beta", "2", "--gamma", "2", "--u-min", "-1", "--u-steps", "3"], TWO),
        (["exact", "--beta", "2", "--p", "2", "--n", "3", "--spectrum", "{spectrum}",
          "--t-min", "-1", "--t-max", "1", "--t-steps", "3"], TWO),
    ],
    ids=["micro-gamma-40", "verify-micro-n-91", "micro-u-max-inf", "exact-t-max-inf",
         "micro-u-1e6", "exact-subnormal-eigenvalue",
         "verify-micro-subnormal-eigenvalue", "exact-e-k-underflow",
         "verify-e-k-underflow", "verify-ks-threshold-nan",
         "verify-ks-threshold-negative", "verify-count-1", "micro-u-min-negative",
         "exact-t-min-negative"],
)
def test_rejected_input_exits_2(argv, spectrum_text, tmp_path, capsys):
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text(spectrum_text)
    out = tmp_path / "out"
    argv = [a.format(spectrum=spectrum) for a in argv] + ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--t-max", "1", "--t-steps", "3"],
        ["sample", "--count", "50", "--seed", "1"],
    ],
    ids=["exact", "sample"],
)
def test_spectrum_longer_than_p_exits_2_before_drawing(argv, monkeypatch, tmp_path, capsys):
    # ExactLaw and the sampler's plan check the spectrum against --p, before any draw;
    # test_verify_rejects_input_before_sampling has the verify cases
    def no_draw(*args, **kwargs):
        pytest.fail("a sample was drawn for a spectrum that does not match --p")

    monkeypatch.setattr(sampler, "RngStream", no_draw)
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text(THREE)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [argv[0], "--beta", "2", "--p", "2", "--n", "3", "--spectrum", str(spectrum),
            *argv[1:], "--out", str(out_dir / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spectrum has p=3 but config expects p=2\n"
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--beta", "2", "--p", "2", "--n", "3", "--spectrum", "{spectrum}",
         "--t-max", "1", "--t-steps", "3"],
        ["micro", "--beta", "2", "--gamma", "2", "--u-steps", "3"],
        ["sample", "--beta", "2", "--p", "2", "--n", "3", "--spectrum", "{spectrum}",
         "--count", "50", "--seed", "1"],
        ["verify", "--mode", "exact", "--beta", "2", "--p", "2", "--n", "3",
         "--spectrum", "{spectrum}", "--count", "50", "--seed", "1"],
    ],
    ids=["exact", "micro", "sample", "verify"],
)
def test_out_in_missing_directory_exits_2(argv, tmp_path, capsys):
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text(TWO)
    missing = tmp_path / "missing"
    argv = [a.format(spectrum=spectrum) for a in argv] + ["--out", str(missing / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert not missing.exists()


LIBRARY_CALLS = {
    "exact": (["exact", "--beta", "2", "--p", "2", "--n", "3", "--spectrum", "{spectrum}",
               "--t-max", "1", "--t-steps", "3"], "ExactLaw"),
    "micro": (["micro", "--beta", "2", "--gamma", "2", "--u-steps", "3"], "micro_curve"),
    "sample": (["sample", "--beta", "2", "--p", "2", "--n", "3", "--spectrum", "{spectrum}",
                "--count", "50", "--seed", "1"], "sample_batch"),
    "verify": (["verify", "--mode", "exact", "--beta", "2", "--p", "2", "--n", "3",
                "--spectrum", "{spectrum}", "--count", "50", "--seed", "1"], "ks_statistic"),
}


@pytest.mark.parametrize(
    "argv, target, error",
    [
        pytest.param(argv, target, error,
                     id=command if error is ValueError else f"{command}-{error.__name__}")
        for command, (argv, target) in LIBRARY_CALLS.items()
        for error in (ValueError, OverflowError, MemoryError)
    ],
)
def test_library_value_error_exits_2(argv, target, error, monkeypatch, tmp_path, capsys):
    # main, not each command, turns a library's ValueError, OverflowError or
    # MemoryError (a grid or batch too large to allocate) into exit 2
    def boom(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, target, boom)
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text(TWO)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [a.format(spectrum=spectrum) for a in argv] + ["--out", str(out_dir / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: boom\n"
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "argv, spectrum_text",
    [
        (["--mode", "exact", "--beta", "2", "--p", "2", "--n", "3", "--alpha", "0.1"], TWO),
        (["--mode", "exact", "--beta", "2", "--p", "2", "--n", "3", "--ks-threshold", "-1"],
         TWO),
        (["--mode", "exact", "--beta", "2", "--p", "2", "--n", "3", "--law-n", "1"], TWO),
        # gamma=44 needs Bessel order 89
        (["--mode", "micro", "--beta", "1", "--p", "2", "--n", "91"], TWO),
        # 1/1e-310 overflows the hard-edge rescale factor 4*p*eta
        (["--mode", "micro", "--beta", "2", "--p", "2", "--n", "3"], SUBNORMAL),
        # three eigenvalues for --p 2
        (["--mode", "exact", "--beta", "2", "--p", "2", "--n", "3"], THREE),
        (["--mode", "micro", "--beta", "2", "--p", "2", "--n", "3"], THREE),
    ],
    ids=["alpha-0.1", "ks-threshold-negative", "law-n-1", "micro-n-91", "micro-subnormal",
         "exact-p-mismatch", "micro-p-mismatch"],
)
def test_verify_rejects_input_before_sampling(argv, spectrum_text, monkeypatch, tmp_path, capsys):
    def no_sampling(*args, **kwargs):
        pytest.fail("verify drew a batch for input it rejects")

    monkeypatch.setattr(cli, "sample_batch", no_sampling)
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text(spectrum_text)
    out = tmp_path / "out"
    argv = ["verify", *argv, "--spectrum", str(spectrum), "--count", "50", "--seed", "1",
            "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists() and not (tmp_path / "out.hist.csv").exists()


def test_verify_rejects_unallocatable_bins_before_sampling(monkeypatch, tmp_path, capsys):
    # the bin edges are allocated before the batch of 200,000 is drawn
    def no_sampling(*args, **kwargs):
        pytest.fail("verify drew a batch for a --bins it cannot allocate")

    monkeypatch.setattr(cli, "sample_batch", no_sampling)
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text(THREE)
    out = tmp_path / "out"
    argv = ["verify", "--mode", "exact", "--beta", "2", "--p", "3", "--n", "5",
            "--spectrum", str(spectrum), "--count", "200000", "--bins", "100000000000",
            "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate ") and captured.err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "out.hist.csv").exists()


@pytest.mark.parametrize(
    "argv, code, stderr, rows",
    [
        (["micro", "--beta", "2", "--gamma", "2", "--u-min=-1.7e308", "--u-max", "1.7e308",
          "--u-steps", "3"], 2,
         "error: --u-max minus --u-min must be finite, got [-1.7e+308, 1.7e+308]\n", None),
        (["exact", "--beta", "2", "--p", "2", "--n", "3", "--spectrum", "{spectrum}",
          "--t-max", "1.7e308", "--t-steps", "3"], 0, "",
         [[0.0, 1.0, 0.0], [8.5e307, 0.0, 0.0], [1.7e308, 0.0, 0.0]]),
    ],
    ids=["micro-span-overflows", "exact-t-max-1.7e308"],
)
def test_grid_ends_near_double_max_print_no_warnings(argv, code, stderr, rows, tmp_path):
    # a separate process, so that numpy's RuntimeWarnings would reach its stderr
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text(TWO)
    out = tmp_path / "out.csv"
    argv = [a.format(spectrum=spectrum) for a in argv] + ["--out", str(out)]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "wishartmin.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (code, stderr, "")
    if rows is None:
        assert not out.exists()
    else:
        assert read_csv(out)[1].tolist() == rows


def test_verify_peak_memory_does_not_grow_with_the_kernel(bench10_file, tmp_path):
    # 50,000 samples: the exact law's Horner values, 2*dim - 1 polynomials a
    # point, are built one value chunk at a time, so kernel dimension 16
    # (n=27) peaks within a few MiB of dimension 2 (n=13).  Each run is a
    # child process that reports its own peak resident set
    script = ("import resource, sys\n"
              "from wishartmin.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
              "sys.exit(code)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    peaks = []
    for n in (13, 27):
        proc = subprocess.run(
            [sys.executable, "-c", script, "verify", "--mode", "exact", "--beta", "1", "--p", "10",
             "--n", str(n), "--spectrum", bench10_file, "--count", "50000", "--seed", "7",
             "--out", str(tmp_path / f"verify{n}.json")],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout.split()[-1]) / 1024)  # ru_maxrss is in KiB on Linux
    assert peaks[1] - peaks[0] <= 3.0, peaks


def test_curve_commands_evaluate_the_kernel_once(bench10_file, tmp_path, monkeypatch):
    # exact and micro take gap and pmin from one engine call, and each column
    # has the bits of the library's gap-only and density grids
    calls = []
    for module in (exactlaw, microlaw):
        def counted(*args, _engine=module.jacobi_gap_density, _name=module.__name__, **kwargs):
            calls.append(_name)
            return _engine(*args, **kwargs)

        monkeypatch.setattr(module, "jacobi_gap_density", counted)
    exact_csv, micro_csv = str(tmp_path / "exact.csv"), str(tmp_path / "micro.csv")
    # 300 points: more than one block of the engine
    assert main(["exact", "--beta", "1", "--p", "10", "--n", "21", "--spectrum", bench10_file,
                 "--t-min", "0.5", "--t-max", "24", "--t-steps", "300", "--out", exact_csv]) == 0
    assert calls == ["wishartmin.exactlaw"]
    assert main(["micro", "--beta", "1", "--gamma", "5", "--u-min", "0.01", "--u-max", "40",
                 "--u-steps", "300", "--out", micro_csv]) == 0
    assert calls == ["wishartmin.exactlaw", "wishartmin.microlaw"]
    monkeypatch.undo()

    rows = read_csv(exact_csv)[1]
    law = ExactLaw(EmpiricalSpectrum(BENCH10_SPECTRUM), make_config(1, 10, 21))
    assert rows[:, 1].tolist() == law.gap_grid(rows[:, 0]).tolist()
    assert rows[:, 2].tolist() == law.density_grid(rows[:, 0]).tolist()
    rows = read_csv(micro_csv)[1]
    micro = make_micro_config(1, 5)
    assert rows[:, 1].tolist() == micro_gap(rows[:, 0], micro).tolist()
    assert rows[:, 2].tolist() == micro_pmin(rows[:, 0], micro).tolist()


def test_json_text_is_indented_dumps():
    doc = {"statistic": 0.0123456789012345, "n": 5000, "pass": True, "law_n": None,
           "spectrum_hash": "ab12", "command": "wishartmin verify --out 'a \\\"b\\u00e9'",
           "threshold": 1e-300, "nan": math.nan, "note": "caf\u00e9\n"}
    assert cli._json_text(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("command", ["verify", "sample"])
def test_json_report_leaves_no_encoder_cycles(command, small_file, tmp_path):
    # json.dumps with indent runs the pure-Python encoder, whose closures are
    # reference cycles that every call would leave to the cyclic collector
    argv = [command, "--beta", "2", "--p", "3", "--n", "5", "--spectrum", small_file,
            "--count", "500", "--seed", "5", "--out", str(tmp_path / "out.json")]
    if command == "verify":
        argv[1:1] = ["--mode", "exact"]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        encoder = [obj for obj in gc.garbage
                   if isinstance(obj, types.FunctionType) and obj.__module__ == "json.encoder"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert encoder == []
