import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from twodiag.cli import main
from twodiag.eigsolve import FAMILY_CHOICES, gallery_params


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_kac_mm(capsys):
    code, out, _ = run(capsys, "gen", "kac", "-N", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "3 3 4"
    assert lines[2:] == ["1 2 1", "2 1 2", "2 3 2", "3 2 1"]


def test_gen_rejects_n_zero(capsys):
    code, out, err = run(capsys, "gen", "kac", "-N", "0")
    assert code == 2 and out == ""
    assert "-N" in _one_line_error(err)


def test_gen_exact_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "m.txt"
    code, _, _ = run(capsys, "gen", "nonsym:DualHahnI", "--gamma", "1", "--delta", "-2",
                     "-N", "3", "--format", "exact", "-o", str(out_file))
    assert code == 0
    from twodiag.matio import parse_exact_text

    m = parse_exact_text(out_file.read_text())
    assert m.dim == 7
    # the delta = -gamma-1 line keeps every entry an integer
    assert all(v.denominator == 1 for v in m.sup + m.sub)


def test_gen_exact_refuses_irrational(capsys):
    code, out, err = run(capsys, "gen", "double:DualHahnI", "--gamma", "1/2", "--delta", "1/3",
                         "-N", "3", "--format", "exact")
    assert code == 2 and out == ""
    assert "exact format" in _one_line_error(err)


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "kac-odd", "--gamma", "1/2", "--delta", "1/3",
                       "-N", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 5
    assert doc["superdiagonal"][0] == "3"


def test_rational_argument_validation(capsys):
    for bad in ("0.5", "1/0"):
        with pytest.raises(SystemExit) as info:
            main(["gen", "kac-odd", "--gamma", bad, "--delta", "1", "-N", "2"])
        assert info.value.code == 2
        assert "--gamma" in _one_line_error(capsys.readouterr().err)


def test_spectrum_kac(capsys):
    code, out, _ = run(capsys, "spectrum", "kac", "-N", "4")
    assert code == 0
    floats = [float(line.split()[2]) for line in out.strip().splitlines()]
    assert floats == [-4.0, -2.0, 0.0, 2.0, 4.0]


def test_spectrum_hahn_ii(capsys):
    code, out, _ = run(capsys, "spectrum", "double:HahnII",
                       "--alpha", "1/2", "--beta", "1/3", "-N", "3")
    assert code == 0
    rads = [line.split()[1] for line in out.strip().splitlines()]
    assert rads == ["3", "2", "1", "0", "1", "2", "3"]


def test_spectrum_dual_hahn_iii_integers(capsys):
    code, out, _ = run(capsys, "spectrum", "double:DualHahnIII",
                       "--gamma", "2", "--delta", "2", "-N", "2")
    floats = [float(line.split()[2]) for line in out.strip().splitlines()]
    assert floats == [-5.0, -4.0, -3.0, 3.0, 4.0, 5.0]


def test_verify_pairs_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "pairs", "--max-N", "4",
                         "--seed", "42", "--draws", "2")
    code2, out2, _ = run(capsys, "verify", "--suite", "pairs", "--max-N", "4",
                         "--seed", "42", "--draws", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "PASS: 22/22" in out1


def test_verify_seed_changes_draws(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "pairs", "--max-N", "4",
                     "--seed", "1", "--draws", "1", "-q")
    _, out2, _ = run(capsys, "verify", "--suite", "pairs", "--max-N", "4",
                     "--seed", "2", "--draws", "1", "-q")
    assert "seed 1" in out1 and "seed 2" in out2


def test_verify_output_matches_golden(capsys):
    # all six suites, 67 checks: labels, parameters, residue details and
    # the order of the draws are pinned byte for byte
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-N", "4",
                       "--seed", "0", "--draws", "1")
    assert code == 0
    golden = Path(__file__).parent / "golden" / "verify_all_max_n4_seed0_draws1.txt"
    assert out == golden.read_text()


def test_verify_output_matches_golden_at_max_n12(capsys):
    # the same 67 checks at the grid sizes of the benchmark's verify workload
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-N", "12",
                       "--seed", "3", "--draws", "1")
    assert code == 0
    golden = Path(__file__).parent / "golden" / "verify_all_max_n12_seed3_draws1.txt"
    assert out == golden.read_text()


@pytest.mark.parametrize("suite,seed", [("christoffel", 5), ("pairs", 11), ("requirements", 11),
                                       ("orthogonality", 5), ("spectra", 5)])
def test_quiet_verify_suites_match_golden(capsys, suite, seed):
    # the five quiet suite runs of the CI entry-point step, at max-N 12
    code, out, _ = run(capsys, "verify", "--suite", suite, "--max-N", "12",
                       "--seed", str(seed), "--draws", "4", "-q")
    assert code == 0
    golden = Path(__file__).parent / "golden" / f"verify_{suite}_max_n12_seed{seed}_draws4_q.txt"
    assert out == golden.read_text()


def test_gallery_output_matches_golden(capsys):
    # spectrum and gen --format json for every selector at N=3, recorded
    # before the Kac extensions were rebuilt as doubled dual Hahn forms
    parts = []
    for selector in FAMILY_CHOICES:
        for argv in (["spectrum", selector, "-N", "3"],
                     ["gen", selector, "-N", "3", "--format", "json"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            parts.append(f"$ twodiag {' '.join(argv)}\n{out}")
    golden = Path(__file__).parent / "golden" / "gallery_n3_spectrum_json.txt"
    assert "".join(parts) == golden.read_text()


CLI_GALLERY_GOLDEN = Path(__file__).parent / "golden" / "cli_gallery.txt"


def _transcript_entry(argv) -> str:
    """`$ twodiag argv`, its stdout and, when it fails, its exit code and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    entry = f"$ twodiag {' '.join(argv)}\n{out.getvalue()}"
    return entry + (f"[exit {code}] {err.getvalue()}" if code else "")


def cli_gallery_transcript() -> str:
    """gen in all three formats and spectrum for every selector at N = 1
    and 3, each selector with each of its parameters at -3, and kac-odd at
    parameters whose spectrum is real but whose offdiagonal products are
    not all positive, which only bench symmetrizes."""
    runs = []
    for selector in FAMILY_CHOICES:
        for n in ("1", "3"):
            runs.append(["spectrum", selector, "-N", n])
            runs += [["gen", selector, "-N", n, "--format", f] for f in ("mm", "exact", "json")]
    runs.append(["gen", "kac", "-N", "0"])
    for selector in FAMILY_CHOICES:
        for name in gallery_params(selector, 2):
            runs.append(["gen", selector, "-N", "2", f"--{name}", "-3"])
            runs.append(["spectrum", selector, "-N", "2", f"--{name}", "-3"])
    for cmd in (["gen", "kac-odd", "-N", "2"], ["spectrum", "kac-odd", "-N", "2"],
                ["bench", "kac-odd", "--dims", "5"]):
        runs.append(cmd + ["--gamma", "-5/2", "--delta", "1"])
    return "".join(map(_transcript_entry, runs))


def test_cli_gallery_matches_golden():
    # every construction path of the gallery, its output formats and its
    # error lines, pinned byte for byte; regenerate with
    # `PYTHONPATH=src python tests/test_cli.py` and review the diff
    assert cli_gallery_transcript() == CLI_GALLERY_GOLDEN.read_text()


@pytest.mark.parametrize("seed,max_n,label", [
    ("27", "6", "kac-odd N<=6 g=-1/4 d=-3"),
    ("128", "4", "kac-odd N<=4 g=-3 d=0"),
    ("181", "4", "kac-odd N<=4 g=1/4 d=-3"),
])
def test_verify_certifies_kac_odd_draws_without_real_spectrum(capsys, seed, max_n, label):
    # these draws give eigenvalue squares 4k(g+d+k+1) <= 0; the spectra
    # suite certifies them from the raw squares instead of aborting
    code, out, err = run(capsys, "verify", "--suite", "spectra", "--seed", seed,
                         "--max-N", max_n)
    assert code == 0 and err == ""
    assert f"PASS spectra {label}\n" in out


def test_bench_empty_dims(capsys):
    code, out, _ = run(capsys, "bench", "kac", "--dims", "")
    assert code == 0 and out == ""


def test_bench_requires_dims(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bench", "kac"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--dims" in _one_line_error(err)


def test_bench_records(capsys):
    code, out, _ = run(capsys, "bench", "kac", "--dims", "21,41")
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert [d["dim"] for d in docs] == [21, 41]
    for d in docs:
        assert d["maxAbsEigError"] <= 1e-10 * (d["dim"] - 1)
        # bisection on the half-size bidiagonal keeps relative accuracy
        assert d["maxRelEigError"] <= 1e-15


def test_bench_parity_error(capsys):
    code, _, err = run(capsys, "bench", "kac-odd", "--dims", "10")
    assert code == 2
    assert "odd dimension" in err


def test_bench_mm_roundtrip_matches_spectrum(tmp_path, capsys):
    # gen -> parse -> solve must agree with the printed spectrum
    out_file = tmp_path / "m.mtx"
    run(capsys, "gen", "nonsym:DualHahnII", "--gamma", "1/2", "--delta", "1/3",
        "-N", "4", "-o", str(out_file))
    from twodiag.eigsolve import sym_tridiag_eigen
    from twodiag.matio import mm_to_float_tridiag, parse_matrix_market

    dim, entries = parse_matrix_market(out_file.read_text())
    vals = sym_tridiag_eigen(mm_to_float_tridiag(dim, entries)).values
    code, out, _ = run(capsys, "spectrum", "nonsym:DualHahnII",
                       "--gamma", "1/2", "--delta", "1/3", "-N", "4")
    closed = np.sort([float(line.split()[2]) for line in out.strip().splitlines()])
    assert np.abs(vals - closed).max() <= 1e-10 * max(map(abs, closed))


def test_poly_dual_hahn_table(capsys):
    code, out, _ = run(capsys, "poly", "dual-hahn", "--gamma", "0", "--delta", "0",
                       "-N", "2", "-n", "1")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [r[1] for r in rows] == ["1", "0", "-2"]  # 1 - x(x+1)/2


def test_poly_degree_zero_all_ones(capsys):
    code, out, _ = run(capsys, "poly", "hahn", "--alpha", "1/2", "--beta", "1/3",
                       "-N", "3", "-n", "0")
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert all(r[1] == "1" for r in rows)


def test_poly_pole_is_clean_error(capsys):
    code, out, err = run(capsys, "poly", "hahn", "--alpha", "-1", "--beta", "0",
                         "-N", "2", "-n", "1")
    assert code == 2 and out == ""
    line = _one_line_error(err)
    for word in ("evaluation impossible", "poly hahn", "alpha=-1", "beta=0", "N=2"):
        assert word in line, line


def test_poly_vanishing_denominator_names_family_and_parameters(capsys):
    code, out, err = run(capsys, "poly", "racah", "--alpha", "-3", "--beta", "-1",
                         "--gamma", "1/2", "--delta", "1/2", "-n", "1", "--weights")
    assert code == 2 and out == ""
    line = _one_line_error(err)
    assert "Fraction" not in line
    for word in ("poly racah", "alpha=-3", "beta=-1", "gamma=1/2", "delta=1/2"):
        assert word in line, line


@pytest.mark.parametrize("flags,word", [
    (["-n", "5"], "degree n=5"),
    (["-n", "1", "--x-to", "5", "--weights"], "--weights"),
    (["-n", "1", "--x-from", "-1", "--weights"], "--weights"),
    (["-n", "1", "--x-from", "5", "--x-to", "2"], "--x-from 5 is above --x-to 2"),
])
def test_poly_checks_degree_and_x_range_before_output(capsys, flags, word):
    code, out, err = run(capsys, "poly", "hahn", "--alpha", "1/2", "--beta", "1/3", "-N", "2",
                         *flags)
    assert code == 2 and out == ""
    assert word in _one_line_error(err)


def test_poly_weights_column(capsys):
    code, out, _ = run(capsys, "poly", "dual-hahn", "--gamma", "1/2", "--delta", "1/3",
                       "-N", "2", "-n", "1", "--weights")
    assert code == 0
    assert "norm h_1" in out


def test_poly_racah(capsys):
    code, out, _ = run(capsys, "poly", "racah", "--alpha", "-3", "--beta", "1/2",
                       "--gamma", "1/2", "--delta", "1/2", "-n", "1")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert rows[1][1] == "5/4"


def test_poly_missing_params(capsys):
    code, out, err = run(capsys, "poly", "hahn", "-n", "1", "-N", "3")
    assert code == 2 and out == ""
    assert "--alpha" in _one_line_error(err)


@pytest.mark.parametrize("family,line", [
    ("hahn", "hahn needs --alpha, --beta and -N"),
    ("dual-hahn", "dual-hahn needs --gamma, --delta and -N"),
    ("racah", "racah needs --alpha, --beta, --gamma, --delta"),
    ("krawtchouk", "krawtchouk needs --p and -N"),
])
def test_poly_missing_flags_are_named(capsys, family, line):
    code, out, err = run(capsys, "poly", family, "-n", "1")
    assert code == 2 and out == ""
    assert _one_line_error(err) == f"error: {line}"


@pytest.mark.parametrize("argv,line", [
    (["dual-hahn", "--gamma", "0", "--delta", "0", "--alpha", "5", "-N", "2"],
     "dual-hahn takes no --alpha (it takes: --gamma, --delta, -N)"),
    # the cap alpha + 1 = -N gives N = 2 here, so -N 7 is not used
    (["racah", "--alpha", "-3", "--beta", "1/2", "--gamma", "1/2", "--delta", "1/2", "-N", "7"],
     "racah takes no -N (it takes: --alpha, --beta, --gamma, --delta, --minus-n)"),
    (["hahn", "--alpha", "1/2", "--beta", "1/3", "-N", "2", "--minus-n", "gamma"],
     "hahn takes no --minus-n (it takes: --alpha, --beta, -N)"),
])
def test_poly_refuses_a_flag_its_family_does_not_take(capsys, argv, line):
    code, out, err = run(capsys, "poly", *argv, "-n", "1")
    assert code == 2 and out == ""
    assert _one_line_error(err) == f"error: {line}"


def test_poly_racah_takes_an_explicit_alpha_cap(capsys):
    flags = ["--alpha", "-3", "--beta", "1/2", "--gamma", "1/2", "--delta", "1/2", "-n", "1"]
    _, default, _ = run(capsys, "poly", "racah", *flags)
    code, explicit, err = run(capsys, "poly", "racah", *flags, "--minus-n", "alpha")
    assert code == 0 and err == "" and explicit == default != ""


@pytest.mark.parametrize("N,lines_read", [(20000, 1), (3, 0)])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(N, lines_read):
    # N = 20000 writes far more than a pipe buffers, so the writes meet the
    # pipe closed after one line; at N = 3 the pipe is closed before any
    # write, and the whole table meets it when stdout is flushed
    import os
    import subprocess
    import sys

    import twodiag

    root = str(Path(twodiag.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from twodiag.cli import main; sys.exit(main())",
         "spectrum", "kac", "-N", str(N)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b"" and all(line.startswith(b"-1 ") for line in first)


_DEV_FULL = Path("/dev/full")
needs_dev_full = pytest.mark.skipif(not _DEV_FULL.exists(), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("command", [["gen", "kac", "-N", "3"],
                                     ["bench", "kac", "--dims", "5"]])
def test_a_failed_write_to_the_output_file_names_it(capsys, command):
    # the open succeeds, the write fails: the error carries no file name
    code, out, err = run(capsys, *command, "-o", str(_DEV_FULL))
    assert code == 2 and out == ""
    assert _one_line_error(err) == "error: cannot write /dev/full: No space left on device"


@needs_dev_full
def test_a_failed_write_to_stdout_names_stdout():
    import os
    import subprocess
    import sys

    import twodiag

    root = str(Path(twodiag.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    with open(_DEV_FULL, "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from twodiag.cli import main; sys.exit(main())",
             "gen", "kac", "-N", "3"],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: cannot write <stdout>: No space left on device\n"


def test_poly_krawtchouk_weights_refused_before_output(capsys):
    code, out, err = run(capsys, "poly", "krawtchouk", "-n", "2", "-N", "4", "--p", "1/3",
                         "--weights")
    assert code == 2 and out == ""
    assert "--weights" in _one_line_error(err)


@pytest.mark.parametrize("family,flags", [
    ("hahn", ["--alpha", "1/2", "--beta", "1/3"]),
    ("dual-hahn", ["--gamma", "1/2", "--delta", "1/3"]),
])
def test_poly_accepts_n_zero(capsys, family, flags):
    code, out, err = run(capsys, "poly", family, "-n", "0", "-N", "0", *flags)
    assert code == 0 and err == ""
    assert out == "x\ty_0(x)\n0\t1\n"


def _one_line_error(err: str) -> str:
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1, err
    return lines[0]


def test_gen_refuses_case_without_matrix(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen", "double:RacahII", "-N", "3"])
    assert info.value.code == 2
    assert "double:RacahII" in _one_line_error(capsys.readouterr().err)


def test_gen_racah_zero_beta_is_not_replaced(capsys):
    code, out, err = run(capsys, "gen", "double:RacahI", "-N", "2", "--beta", "0",
                         "--format", "json")
    assert code == 2 and out == ""
    _one_line_error(err)


def test_flags_the_selector_does_not_take(capsys):
    code, out, err = run(capsys, "gen", "double:RacahI", "-N", "3", "--alpha", "1")
    assert code == 2 and out == ""
    assert "--alpha" in _one_line_error(err)
    code, out, err = run(capsys, "spectrum", "kac", "-N", "3", "--gamma", "1")
    assert code == 2 and out == ""
    assert "--gamma" in _one_line_error(err)


def test_verify_rejects_max_n_below_two(capsys):
    code, out, err = run(capsys, "verify", "--max-N", "1")
    assert code == 2 and out == ""
    assert "--max-N" in _one_line_error(err)


@pytest.mark.parametrize("draws", ["-1", "0"])
def test_verify_rejects_draws_below_one(capsys, draws):
    code, out, err = run(capsys, "verify", "--draws", draws)
    assert code == 2 and out == ""
    assert "--draws" in _one_line_error(err)


def test_bench_rejects_reps_below_one(capsys):
    code, out, err = run(capsys, "bench", "kac", "--dims", "5", "--reps", "0")
    assert code == 2 and out == ""
    assert "--reps" in _one_line_error(err)


@pytest.mark.parametrize("dims", ["x", "5,,7", "5,", "5,x"])
def test_bench_rejects_malformed_dims(capsys, dims):
    code, out, err = run(capsys, "bench", "kac", "--dims", dims)
    assert code == 2 and out == ""
    line = _one_line_error(err)
    assert "--dims" in line and repr(dims) in line


def test_pole_error_names_selector_n_and_parameters(capsys):
    code, out, err = run(capsys, "gen", "double:RacahI", "-N", "2", "--beta", "0")
    assert code == 2 and out == ""
    line = _one_line_error(err)
    assert "Fraction" not in line
    for word in ("double:RacahI", "-N 2", "alpha=-3", "beta=0", "gamma=1/3", "delta=1/5"):
        assert word in line, line
    code, _, err = run(capsys, "bench", "double:RacahI", "--dims", "8", "--beta", "1")
    assert code == 2
    assert "beta=1" in _one_line_error(err)


def test_inadmissible_gallery_error_names_selector_n_and_parameters(capsys):
    code, out, err = run(capsys, "gen", "kac-odd", "-N", "2", "--gamma", "-3", "--delta", "-3")
    assert code == 2 and out == ""
    line = _one_line_error(err)
    for word in ("kac-odd -N 2", "gamma=-3", "delta=-3", "eigenvalue square -16"):
        assert word in line, line
    code, out, err = run(capsys, "spectrum", "double:HahnI", "-N", "2", "--alpha", "-3")
    assert code == 2 and out == ""
    line = _one_line_error(err)
    for word in ("double:HahnI -N 2", "alpha=-3", "beta=1/3"):
        assert word in line, line


def test_bench_negative_product_names_selector_n_and_parameters(capsys):
    # the spectrum is real, so gen and spectrum succeed; only the float
    # conversion, which symmetrizes the integer form, finds M_0^2 < 0
    code, out, err = run(capsys, "bench", "kac-odd", "--gamma", "-5/2", "--delta", "1",
                         "--dims", "5")
    assert code == 2 and out == ""
    assert _one_line_error(err) == ("error: kac-odd -N 2 with gamma=-5/2, delta=1: "
                                    "offdiagonal square M_0^2 = -12 < 0")


def test_float_overflow_is_one_line_error(capsys):
    huge = "1" + "0" * 400
    code, out, err = run(capsys, "spectrum", "kac-odd", "-N", "2", "--gamma", huge)
    assert code == 2 and out == ""
    line = _one_line_error(err)
    assert "kac-odd -N 2" in line and f"gamma={huge}" in line and "float" in line


def test_unwritable_output_is_one_line_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.mtx"
    code, out, err = run(capsys, "gen", "kac", "-N", "2", "-o", str(target))
    assert code == 2 and out == ""
    assert str(target) in _one_line_error(err)
    assert not target.exists()


def test_bench_reports_defaults_filled_in_beside_given_flags(capsys):
    code, out, _ = run(capsys, "bench", "double:DualHahnIII", "--dims", "8", "--gamma", "2")
    assert code == 0
    assert json.loads(out)["params"] == {"gamma": "2", "delta": "1/3"}


def test_bench_reports_racah_beta_filled_in_from_n(capsys):
    code, out, _ = run(capsys, "bench", "double:RacahI", "--dims", "8")
    assert code == 0
    # N = 3, so beta = N + gamma + 2 = 16/3
    assert json.loads(out)["params"] == {"beta": "16/3", "gamma": "1/3", "delta": "1/5"}


def test_gen_json_reports_the_parameters_used(capsys):
    code, out, _ = run(capsys, "gen", "double:RacahI", "-N", "3", "--delta", "1/7",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"beta": "16/3", "gamma": "1/3", "delta": "1/7"}
    code, out, _ = run(capsys, "gen", "kac", "-N", "3", "--format", "json")
    assert code == 0 and json.loads(out)["params"] == {}


def test_negative_fraction_as_separate_token(capsys):
    code, spaced, _ = run(capsys, "spectrum", "kac-odd", "-N", "2", "--gamma", "-5/2",
                          "--delta", "3")
    _, joined, _ = run(capsys, "spectrum", "kac-odd", "-N", "2", "--gamma=-5/2",
                       "--delta", "3")
    assert code == 0 and spaced == joined != ""
    code, out, _ = run(capsys, "poly", "hahn", "-n", "1", "-N", "2", "--alpha", "-5/2",
                       "--beta", "-1/3")
    assert code == 0 and out.splitlines()[1] == "0\t1"
    code, out, _ = run(capsys, "poly", "krawtchouk", "-n", "1", "-N", "3", "--p", "-1/2")
    assert code == 0 and out.splitlines()[2] == "1\t5/3"
    code, out, _ = run(capsys, "gen", "kac-even", "-N", "2", "--delta", "-1/3",
                       "--gamma", "-1/2", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"gamma": "-1/2", "delta": "-1/3"}


if __name__ == "__main__":
    CLI_GALLERY_GOLDEN.write_text(cli_gallery_transcript())


def test_poly_minus_n_offers_exactly_the_racah_caps(capsys):
    from twodiag.families import RACAH_CAPS

    with pytest.raises(SystemExit) as done:
        main(["poly", "--help"])
    assert done.value.code == 0
    assert "--minus-n {" + ",".join(RACAH_CAPS) + "}" in capsys.readouterr().out
    assert tuple(RACAH_CAPS) == ("alpha", "beta_delta", "gamma")
