"""End-to-end tests of the command-line interface and state-file I/O."""

import argparse
import json
import sys

import numpy as np
import pytest

import rdmkit
from rdmkit.cli import (DENSE_NMAX, build_parser, load_state, main,
                        save_state)
from rdmkit.ghz import GhzParams, ghz_family, make_ghz
from rdmkit.qstate import (DensityMatrix, PureState, apply_local_unitaries,
                           haar_random_state, random_local_unitaries)

INV_SQRT2 = 1 / np.sqrt(2)


def write_ghz(path, n=3, a=INV_SQRT2, b=INV_SQRT2):
    save_state(str(path), make_ghz(n, a, b))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


# ----------------------------------------------------------------- state files

def test_state_file_round_trip_bit_exact(tmp_path):
    psi = haar_random_state(3, 77)
    p = tmp_path / "psi.json"
    save_state(str(p), psi)
    back = load_state(str(p))
    assert isinstance(back, PureState)
    assert np.array_equal(back.amps, psi.amps)

    omega = ghz_family(GhzParams(2, INV_SQRT2, INV_SQRT2), 0.5)
    q = tmp_path / "omega.json"
    save_state(str(q), omega)
    back = load_state(str(q))
    assert isinstance(back, DensityMatrix)
    assert np.array_equal(back.mat, omega.mat)


def test_malformed_json_reports_position(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "rdmkit-state-v1", "kind": ')
    code, _, err = run(capsys, ["rdm", str(p)])
    assert code == 2
    assert "line" in err and "column" in err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_verdict_rejects_non_finite_amplitude(tmp_path, capsys, token):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "rdmkit-state-v1", "kind": "pure", "n": 2, '
                 '"data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
                 f'[{token}, 0.0]]}}')
    code, report, err = run(capsys, ["verdict", str(p)])
    assert code == 2
    assert report is None
    assert "finite" in err


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_rdm_rejects_non_finite_density_entry(tmp_path, capsys, token):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "rdmkit-state-v1", "kind": "density", "n": 1, '
                 f'"data": [[[0.5, 0.0], [{token}, 0.0]], '
                 f'[[{token}, 0.0], [0.5, 0.0]]]}}')
    code, report, err = run(capsys, ["rdm", str(p)])
    assert code == 2
    assert report is None
    assert "finite" in err


def test_integer_too_large_for_a_float_is_malformed_data(tmp_path, capsys):
    big = "1" + "0" * 400
    psi_path = write_ghz(tmp_path / "psi.json")
    pure = tmp_path / "big_pure.json"
    pure.write_text('{"format": "rdmkit-state-v1", "kind": "pure", "n": 1, '
                    f'"data": [[{big}, 0], [0, 0]]}}')
    density = tmp_path / "big_density.json"
    density.write_text('{"format": "rdmkit-state-v1", "kind": "density", '
                       f'"n": 1, "data": [[[{big}, 0], [0, 0]], '
                       '[[0, 0], [0, 0]]]}')
    for argv in (["verdict", str(pure)],
                 ["partner", psi_path, str(density)]):
        code, report, err = run(capsys, argv)
        assert code == 2
        assert report is None
        assert err.startswith("error: ") and "malformed data" in err
        assert "Traceback" not in err


def test_n_that_the_data_cannot_match_is_refused_before_2_to_the_n(
        tmp_path, capsys):
    # formatting 2**n for n = 1e8 would take most of a second and exceed
    # Python's 4300-digit limit for int-to-string conversion
    for kind, data in (("pure", [[1, 0]]), ("density", [[[1, 0]]])):
        p = tmp_path / f"{kind}.json"
        p.write_text(json.dumps({"format": "rdmkit-state-v1", "kind": kind,
                                 "n": 100000000, "data": data}))
        code, report, err = run(capsys, ["rdm", str(p)])
        assert (code, report) == (2, None)
        assert "n = 100000000 needs 2^100000000" in err
        assert err.rstrip().endswith("got 1")


def test_report_command_is_the_argv_given_to_main(tmp_path, capsys):
    path = write_ghz(tmp_path / "ghz.json")
    code, report, _ = run(capsys, ["rdm", path])
    assert code == 0
    assert report["command"] == f"rdm {path}"
    assert report["elapsed_s"] >= 0
    assert report["versions"] == {"rdmkit": rdmkit.__version__,
                                  "numpy": np.__version__}


# ------------------------------------------------------------------------ rdm

def test_rdm_command_ghz(tmp_path, capsys):
    path = write_ghz(tmp_path / "ghz.json")
    code, report, _ = run(capsys, ["rdm", path])
    assert code == 0
    assert report["n"] == 3
    assert len(report["parts"]) == 3
    expected = np.diag([0.5, 0, 0, 0.5])
    for part in report["parts"]:
        mat = np.array([[complex(re, im) for re, im in row]
                        for row in part["matrix"]])
        assert np.allclose(mat, expected, atol=1e-12)
    assert report["consistency_residual"] <= 1e-10


def test_rdm_rejects_unnormalized(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "format": "rdmkit-state-v1", "kind": "pure", "n": 2,
        "data": [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}))
    code, _, err = run(capsys, ["rdm", str(p)])
    assert code == 2
    assert "normal" in err


def test_rdm_rejects_single_qubit(tmp_path, capsys):
    p = tmp_path / "one.json"
    p.write_text(json.dumps({
        "format": "rdmkit-state-v1", "kind": "pure", "n": 1,
        "data": [[1.0, 0.0], [0.0, 0.0]]}))
    code, _, err = run(capsys, ["rdm", str(p)])
    assert code == 2
    assert "n >= 2" in err


# -------------------------------------------------------------------- verdict

def test_verdict_ghz_exits_3_with_witness(tmp_path, capsys):
    path = write_ghz(tmp_path / "ghz.json")
    code, report, _ = run(capsys, ["verdict", path, "--restarts", "2"])
    assert code == 3
    assert report["determined"] is False
    assert report["anomaly"] is None
    assert "witness_family" in report
    assert report["witness_family"]["rdm_residual"] <= 1e-9
    assert report["numeric_sup_tmax"] > 0.1
    assert report["cross_check"]["method"] == "face"
    assert report["cross_check"]["parent_gap"] <= 1e-8
    assert report["cross_check"]["kernel_dim"] == 2
    assert report["cross_check"]["null_dim"] == 2
    assert report["cross_check"]["min_nonzero_singular"] > 1.0
    assert abs(report["cross_check"]["lambda_min"]) <= 1e-12
    assert report["samples_used"] == 2


def test_verdict_w_state_exits_0(tmp_path, capsys):
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1 / np.sqrt(3)
    p = tmp_path / "w.json"
    save_state(str(p), PureState(3, w))
    code, report, _ = run(capsys, ["verdict", str(p), "--restarts", "8"])
    assert code == 0
    assert report["determined"] is True
    assert report["numeric_sup_tmax"] <= 1e-6
    assert report["samples_used"] == 0
    # W has k = 2, so the face's gap is 0, and N = {0} proves it determined
    assert report["cross_check"]["method"] == "face"
    assert report["cross_check"]["parent_gap"] <= 1e-8
    assert report["cross_check"]["kernel_dim"] == 2
    assert report["cross_check"]["null_dim"] == 0
    assert report["cross_check"]["min_nonzero_singular"] > 0.1


def test_verdict_rotated_degenerate_ghz_exits_3(tmp_path, capsys):
    # |a| = |b| goes through the detector's degenerate branch; a numeric
    # search for the product vector there missed this state, and the
    # verdict said determined with no anomaly
    p = tmp_path / "ghz109.json"
    save_state(str(p), apply_local_unitaries(
        make_ghz(3, np.sqrt(0.5), np.sqrt(0.5)),
        random_local_unitaries(3, 109)))
    code, report, _ = run(capsys, ["verdict", str(p), "--restarts", "2"])
    assert code == 3
    assert report["determined"] is False
    assert report["anomaly"] is None
    wf = report["witness_family"]
    assert np.allclose(wf["magnitudes"], [INV_SQRT2, INV_SQRT2], atol=1e-8)
    assert wf["rdm_residual"] <= 1e-9


@pytest.mark.parametrize("tol", ["nan", "-1", "1e9", "inf"])
def test_verdict_rejects_bad_tol(tmp_path, capsys, tol):
    path = write_ghz(tmp_path / "ghz.json")
    code, report, err = run(capsys, ["verdict", path, f"--tol={tol}"])
    assert code == 2
    assert report is None
    assert "tol must be finite" in err


def test_verdict_rejects_zero_restarts_on_a_certified_state(tmp_path, capsys):
    p = tmp_path / "haar.json"
    save_state(str(p), haar_random_state(3, 5))
    code, report, err = run(capsys, ["verdict", str(p), "--restarts", "0"])
    assert code == 2
    assert report is None
    assert "restarts" in err


def test_verdict_refuses_n7(tmp_path, capsys):
    p = tmp_path / "haar7.json"
    save_state(str(p), haar_random_state(7, 5))
    code, report, err = run(capsys, ["verdict", str(p)])
    assert code == 2
    assert report is None
    assert "2..6" in err


def test_verdict_rejects_density_input(tmp_path, capsys):
    p = tmp_path / "rho.json"
    save_state(str(p), ghz_family(GhzParams(2, INV_SQRT2, INV_SQRT2), 0.0))
    code, _, err = run(capsys, ["verdict", str(p)])
    assert code == 2
    assert "pure" in err


def test_verdict_deterministic_given_seed(tmp_path, capsys):
    path = write_ghz(tmp_path / "ghz.json", 3, np.sqrt(0.7), np.sqrt(0.3))
    _, rep1, _ = run(capsys, ["verdict", path, "--seed", "5", "--restarts", "2"])
    _, rep2, _ = run(capsys, ["verdict", path, "--seed", "5", "--restarts", "2"])
    assert rep1["numeric_sup_tmax"] == rep2["numeric_sup_tmax"]


def test_verdict_near_ghz_at_a_loose_tol_gets_unit_magnitudes(tmp_path,
                                                              capsys):
    # the fitted |a|^2 + |b|^2 is 1 - r^2 with r up to tol; the params are
    # renormalised, so an allowed --tol never makes the input an error
    psi = apply_local_unitaries(make_ghz(4, np.sqrt(0.7), np.sqrt(0.3)),
                                random_local_unitaries(4, 3))
    v = psi.amps + 1e-5 * haar_random_state(4, 9).amps
    p = tmp_path / "near.json"
    save_state(str(p), PureState(4, v / np.linalg.norm(v)))
    code, report, err = run(capsys, ["verdict", str(p), "--tol", "5e-5"])
    assert code != 2, err
    assert report is not None
    a, b = report["certificate"]["magnitudes"]
    assert report["certificate"]["residual"] > 1e-6
    assert abs(a * a + b * b - 1) <= 1e-12


# -------------------------------------------------------------------- partner

def test_partner_symmetric_ghz(tmp_path, capsys):
    psi_p = write_ghz(tmp_path / "psi.json")
    om_p = str(tmp_path / "omega.json")
    save_state(om_p, ghz_family(GhzParams(3, INV_SQRT2, INV_SQRT2), 0.0))
    out_p = str(tmp_path / "partner.json")
    code, report, _ = run(capsys, ["partner", psi_p, om_p, "--out", out_p])
    assert code == 0
    assert abs(report["a_star"] - 2.0) <= 1e-9
    assert report["overlap"] <= 1e-9
    partner = load_state(out_p)
    expected = make_ghz(3, INV_SQRT2, -INV_SQRT2)
    assert abs(abs(np.vdot(partner.amps, expected.amps)) - 1) < 1e-9


def test_partner_skew_ghz_overlap(tmp_path, capsys):
    psi_p = write_ghz(tmp_path / "psi.json", 3, np.sqrt(0.8), np.sqrt(0.2))
    om_p = str(tmp_path / "omega.json")
    save_state(om_p, ghz_family(GhzParams(3, np.sqrt(0.8), np.sqrt(0.2)), 0.0))
    code, report, _ = run(capsys, ["partner", psi_p, om_p])
    assert code == 0
    assert abs(report["overlap"] - 0.6) <= 1e-8


def test_partner_rejects_unrelated_omega(tmp_path, capsys):
    psi_p = write_ghz(tmp_path / "psi.json")
    om_p = str(tmp_path / "omega.json")
    save_state(om_p, DensityMatrix(3, np.eye(8) / 8))
    code, _, err = run(capsys, ["partner", psi_p, om_p])
    assert code == 2
    assert "qubit" in err


# ---------------------------------------------------------------------- sweep

def test_sweep_small(capsys):
    code, report, _ = run(capsys, ["sweep", "--n", "2", "--samples", "6",
                                   "--seed", "1", "--restarts", "2"])
    assert code == 0
    counts = report["counts"]
    assert counts["anomalies"] == 0
    assert counts["rank2_failures"] == 0
    # at n=2 every entangled state is GHZ-type, so the Haar samples are
    # undetermined too
    assert counts["undetermined"] == 6
    assert report["max_main_constraint_residual"] <= 1e-9


def test_sweep_rejects_large_n(capsys):
    code, _, err = run(capsys, ["sweep", "--n", "7", "--samples", "1"])
    assert code == 2
    assert "2..6" in err


@pytest.mark.parametrize("samples", ["-2", "0"])
def test_sweep_rejects_a_sample_count_below_1(capsys, samples):
    code, report, err = run(capsys, ["sweep", "--n", "3",
                                     "--samples", samples])
    assert (code, report) == (2, None)
    assert f"samples must be >= 1, got {samples}" in err


# ----------------------------------------------------------------- proofcheck

def test_proofcheck_symmetric_z0(capsys):
    code, report, _ = run(capsys, ["proofcheck", "--n", "3",
                                   "--alpha", "0.70710678118654752",
                                   "--beta", "0.70710678118654752",
                                   "--z", "0"])
    assert code == 0
    assert report["max_residual"] <= 1e-9


def test_proofcheck_pure_z1(capsys):
    code, report, _ = run(capsys, ["proofcheck", "--n", "3",
                                   "--alpha", "0.70710678118654752",
                                   "--beta", "0.70710678118654752",
                                   "--z", "1"])
    assert code == 0
    assert report["env_dim"] == 1
    assert report["max_residual"] <= 1e-9


def test_proofcheck_complex_z_n4(capsys):
    a = str(np.sqrt(0.8))
    b = str(np.sqrt(0.2))
    code, report, _ = run(capsys, ["proofcheck", "--n", "4",
                                   "--alpha", a, "--beta", b, "--z", "0.5j"])
    assert code == 0
    assert report["max_residual"] <= 1e-9


def test_proofcheck_rejects_z_outside_disk(capsys):
    code, _, err = run(capsys, ["proofcheck", "--n", "3",
                                "--alpha", "0.70710678118654752",
                                "--beta", "0.70710678118654752",
                                "--z", "1.5"])
    assert code == 2
    assert "|z|" in err


# --------------------------------------------------------------------- family

def test_family_writes_member(tmp_path, capsys):
    out = str(tmp_path / "member.json")
    code, report, _ = run(capsys, ["family", "--n", "3",
                                   "--alpha", str(np.sqrt(0.7)),
                                   "--beta", str(np.sqrt(0.3)),
                                   "--z", "-0.5", "--out", out])
    assert code == 0
    assert report["rdm_residual"] <= 1e-10
    assert report["pure"] is False
    member = load_state(out)
    expected = ghz_family(GhzParams(3, np.sqrt(0.7), np.sqrt(0.3)), -0.5)
    assert np.allclose(member.mat, expected.mat)


def test_proofcheck_and_family_refuse_unnormalised_amplitudes(tmp_path,
                                                               capsys):
    # user-given (alpha, beta) are never renormalised, unlike a fit
    out = str(tmp_path / "member.json")
    for argv in (["proofcheck"], ["family", "--out", out]):
        code, report, err = run(capsys, argv + ["--n", "3", "--alpha", "0.8",
                                                "--beta", "0.6000001"])
        assert code == 2
        assert report is None
        assert "no renormalization" in err


@pytest.mark.parametrize("n", [1, DENSE_NMAX + 1, 40])
def test_proofcheck_and_family_refuse_n_beyond_the_dense_limit(tmp_path,
                                                               capsys, n):
    # both build a 2^n x 2^n family member: 16 TiB at n = 40
    out = str(tmp_path / "member.json")
    for argv in (["proofcheck"], ["family", "--out", out]):
        code, report, err = run(capsys, argv + ["--n", str(n), "--alpha",
                                                "0.8", "--beta", "0.6"])
        assert (code, report) == (2, None)
        assert f"n must be in 2..{DENSE_NMAX}, got {n}" in err


# ----------------------------------------------------- one parser per process

def test_later_main_calls_build_no_parser(tmp_path, capsys, monkeypatch):
    built = {"parsers": 0}
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built["parsers"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    path = write_ghz(tmp_path / "ghz.json")
    assert run(capsys, ["rdm", path])[0] == 0
    built["parsers"] = 0
    assert run(capsys, ["proofcheck", "--n", "3", "--alpha", "0.8",
                        "--beta", "0.6"])[0] == 0
    assert run(capsys, ["verdict", path, "--restarts", "2"])[0] == 3
    assert built["parsers"] == 0


def test_reused_parser_leaks_no_state(tmp_path, capsys):
    p = tmp_path / "haar.json"
    save_state(str(p), haar_random_state(3, 5))
    code, report, _ = run(capsys, ["verdict", str(p), "--tol", "1e-6",
                                   "--seed", "5"])
    assert (code, report["seed"]) == (0, 5)
    code, report, _ = run(capsys, ["verdict", str(p)])
    assert (code, report["seed"]) == (0, 0)
    assert report["command"] == f"verdict {p}"

    with pytest.raises(SystemExit) as fresh:
        build_parser().parse_args(["verdict"])
    usage = capsys.readouterr().err
    with pytest.raises(SystemExit) as reused:
        main(["verdict"])
    assert fresh.value.code == reused.value.code == 2
    assert capsys.readouterr().err == usage
    assert run(capsys, ["verdict", str(p)])[0] == 0


# ------------------------------------------------------------ work counts

def count_calls(monkeypatch, module, name):
    """Wrap module.name at every rdmkit binding of it; return the count."""
    orig = getattr(module, name)
    counter = {"calls": 0}

    def counted(*args, **kwargs):
        counter["calls"] += 1
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "rdmkit"
                                or mod_name.startswith("rdmkit.")):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, counted)
    return counter


def test_proofcheck_and_partner_check_rdms_once(tmp_path, capsys,
                                                monkeypatch):
    tuples = count_calls(monkeypatch, rdmkit.rdm, "ptr_tuple")
    checks = count_calls(monkeypatch, rdmkit.rdm, "require_equal_rdms")
    code, _, _ = run(capsys, ["proofcheck", "--n", "4", "--alpha", "0.8",
                              "--beta", "0.6j", "--z", "0.3+0.2j"])
    assert code == 0
    assert (checks["calls"], tuples["calls"]) == (1, 2)

    a, b = np.sqrt(0.7), np.sqrt(0.3)
    psi_path = write_ghz(tmp_path / "psi.json", 4, a, b)
    omega_path = str(tmp_path / "omega.json")
    save_state(omega_path, ghz_family(GhzParams(4, a, b), 0.4))
    checks["calls"] = tuples["calls"] = 0
    code, _, _ = run(capsys, ["partner", psi_path, omega_path])
    assert code == 0
    assert (checks["calls"], tuples["calls"]) == (1, 3)


# ------------------------------------------------------ linear algebra errors

def test_linalg_error_is_a_clean_input_error(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    psi_path = write_ghz(tmp_path / "psi.json")
    omega_path = str(tmp_path / "omega.json")
    save_state(omega_path,
               ghz_family(GhzParams(3, INV_SQRT2, INV_SQRT2), 0.4))
    monkeypatch.setattr(np.linalg, "eigh", broken)
    for argv in (["verdict", psi_path], ["partner", psi_path, omega_path]):
        code, report, err = run(capsys, argv)
        assert code == 2
        assert report is None
        assert err == ("error: linear algebra failed: "
                       "Eigenvalues did not converge\n")
