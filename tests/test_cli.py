import json
from pathlib import Path

import numpy as np
import pytest

from twodiag.cli import main
from twodiag.eigsolve import FAMILY_CHOICES


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


def test_bench_records(capsys):
    code, out, _ = run(capsys, "bench", "kac", "--dims", "21,41")
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert [d["dim"] for d in docs] == [21, 41]
    for d in docs:
        assert d["maxAbsEigError"] <= 1e-10 * (d["dim"] - 1)


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
