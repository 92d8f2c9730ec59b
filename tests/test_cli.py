"""Config parsing, unit conversion, and command-level CSV contracts."""

import configparser
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coupler_lab
from coupler_lab import CouplerSystem, QubitParams, __version__, cli
from coupler_lab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    PHI_0,
    PLANCK,
    from_physical,
    load_config,
    main,
    run,
    to_physical,
)
from coupler_lab.errors import ConfigurationError, NumericError

TWO_PI = 2.0 * math.pi

REF_QUBITS = [
    {"beta_j": 1.05, "zeta_j": 0.05, "alpha_j": 0.05, "e_lj": 1.0},
    {"beta_j": 0.8, "zeta_j": 0.06, "alpha_j": 0.04, "e_lj": 1.25},
]


def write_config(tmp_path, body, name="cfg.ini"):
    path = tmp_path / name
    path.write_text("[meta]\nschema = 1\n" + body)
    return path


DIMLESS_BODY = """
[coupler]
beta_c = 0.5
zeta_c = 0.05
e_ltc = 3.0
phi_cx = 0.0272

[qubit.1]
beta_j = 1.05
zeta_j = 0.05
alpha_j = 0.05

[qubit.2]
beta_j = 1.05
zeta_j = 0.05
alpha_j = 0.05

[numerics]
nu_max = 60
n_basis = 40

[units]
e_l1_ghz = 200
"""


def read_csv(path):
    comments, rows = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif line:
            rows.append(line.split(","))
    return comments, rows[0], rows[1:]


# ------------------------------------------------------- unit conversion


def test_from_physical_zero_mutual():
    l_1 = 1e-9
    coupler = {"l_c": 0.25e-9, "c": 5e-14, "i_c": 1e-7}
    qubits = [{"l_j": l_1, "c_j": 4e-14, "i_j": 2e-7, "m_j": 0.0}]
    out = from_physical(coupler, qubits)
    assert out["qubits"][0]["alpha_j"] == 0.0
    assert out["qubits"][0]["e_lj"] == 1.0
    # with no mutuals the coupler inductance is unrenormalized
    e_l1 = (PHI_0 / TWO_PI) ** 2 / l_1
    assert out["e_l1_joule"] == pytest.approx(e_l1, rel=1e-15)
    assert out["e_ltc"] == pytest.approx(l_1 / 0.25e-9, rel=1e-14)
    assert out["beta_c"] == pytest.approx(TWO_PI * 0.25e-9 * 1e-7 / PHI_0, rel=1e-14)
    assert out["qubits"][0]["beta_j"] == pytest.approx(TWO_PI * l_1 * 2e-7 / PHI_0, rel=1e-14)
    assert out["zeta_c"] == pytest.approx(
        (TWO_PI * 1.602176634e-19 / PHI_0) * math.sqrt(0.25e-9 / 5e-14), rel=1e-14
    )


def test_from_physical_mutual_renormalization():
    # two identical qubits with M = alpha L: L_c drops by 2 alpha^2 L
    l_j, alpha = 1e-9, 0.07
    m = alpha * l_j
    coupler = {"l_c": 0.5e-9, "c": 5e-14, "i_c": 1e-7}
    qubits = [{"l_j": l_j, "c_j": 4e-14, "i_j": 2e-7, "m_j": m}] * 2
    out = from_physical(coupler, qubits)
    l_tilde = 0.5e-9 - 2 * alpha**2 * l_j
    assert out["e_ltc"] == pytest.approx(l_j / l_tilde, rel=1e-14)
    assert out["beta_c"] == pytest.approx(TWO_PI * l_tilde * 1e-7 / PHI_0, rel=1e-14)
    assert all(q["alpha_j"] == pytest.approx(alpha, rel=1e-15) for q in out["qubits"])


def test_physical_roundtrip():
    phys = to_physical(0.75, 0.05, 3.0, REF_QUBITS, l_1=1.0)
    back = from_physical(phys["coupler"], phys["qubits"])
    assert back["beta_c"] == pytest.approx(0.75, abs=1e-12)
    assert back["zeta_c"] == pytest.approx(0.05, abs=1e-12)
    assert back["e_ltc"] == pytest.approx(3.0, rel=1e-12)
    for got, ref in zip(back["qubits"], REF_QUBITS):
        for key in ("beta_j", "zeta_j", "alpha_j", "e_lj"):
            assert got[key] == pytest.approx(ref[key], abs=1e-12), key


def test_from_physical_rejects_multistable_coupler():
    phys = to_physical(0.75, 0.05, 3.0, REF_QUBITS, l_1=1.0)
    phys["coupler"]["i_c"] *= 2.0  # pushes beta_c to 1.5
    with pytest.raises(ConfigurationError, match="monostability"):
        from_physical(phys["coupler"], phys["qubits"])


def test_from_physical_rejects_overstrong_mutuals():
    coupler = {"l_c": 1e-10, "c": 5e-14, "i_c": 1e-7}
    qubits = [{"l_j": 1e-9, "c_j": 4e-14, "i_j": 2e-7, "m_j": 4e-10}] * 2
    with pytest.raises(ConfigurationError, match="positive"):
        from_physical(coupler, qubits)


def test_from_physical_rejects_nonpositive_values():
    coupler = {"l_c": 1e-9, "c": 5e-14, "i_c": -1e-7}
    with pytest.raises(ConfigurationError):
        from_physical(coupler, [{"l_j": 1e-9, "c_j": 4e-14, "i_j": 2e-7}])


# ----------------------------------------------------------- config file


def test_load_config_dimensionless(tmp_path):
    cfg = load_config(write_config(tmp_path, DIMLESS_BODY))
    assert cfg.system.beta_c == 0.5
    assert cfg.system.zeta_c == 0.05
    assert cfg.system.e_ltc == 3.0
    assert cfg.system.phi_cx == pytest.approx(0.0272 * TWO_PI, rel=1e-15)
    assert len(cfg.system.qubits) == 2
    assert cfg.system.qubits[0].beta_j == 1.05
    assert cfg.numerics["nu_max"] == 60
    assert cfg.numerics["n_levels"] == 4  # default
    assert cfg.units["e_l1_ghz"] == 200.0
    assert cfg.sweep is None and cfg.scan is None


def test_load_config_physical_derives_units(tmp_path):
    l_1 = (PHI_0 / TWO_PI) ** 2 / (200e9 * PLANCK)  # E_L1/h = 200 GHz
    phys = to_physical(0.5, 0.05, 3.0, REF_QUBITS, l_1=l_1)
    lines = ["[coupler]"]
    lines += [f"{k} = {v:.17g}" for k, v in phys["coupler"].items()]
    lines.append("phi_cx = 0.0272")
    for i, q in enumerate(phys["qubits"], start=1):
        lines.append(f"[qubit.{i}]")
        lines += [f"{k} = {v:.17g}" for k, v in q.items()]
    cfg = load_config(write_config(tmp_path, "\n".join(lines) + "\n"))
    assert cfg.system.beta_c == pytest.approx(0.5, abs=1e-12)
    assert cfg.system.qubits[1].e_lj == pytest.approx(1.25, rel=1e-12)
    assert cfg.system.qubits[1].alpha_j == pytest.approx(0.04, abs=1e-14)
    assert cfg.units["e_l1_ghz"] == pytest.approx(200.0, rel=1e-9)


def test_physical_config_takes_the_dimensionless_path(tmp_path):
    # a physical config becomes from_physical's dimensionless values, its
    # biases kept as given, and builds exactly the system those values do
    phys = to_physical(0.5, 0.05, 3.0, REF_QUBITS, l_1=1e-9)
    lines = ["[coupler]", "phi_cx = 0.0272"]
    lines += [f"{k} = {v:.17g}" for k, v in phys["coupler"].items()]
    for i, q in enumerate(phys["qubits"], start=1):
        lines += [f"[qubit.{i}]", f"phi_jx = {0.01 * i}"]
        lines += [f"{k} = {v:.17g}" for k, v in q.items()]
    cfg = load_config(write_config(tmp_path, "\n".join(lines) + "\n"))
    derived = from_physical(phys["coupler"], phys["qubits"])
    assert derived["qubits"][0]["e_lj"] == 1.0
    qubits = tuple(
        QubitParams(beta_j=q["beta_j"], zeta_j=q["zeta_j"], e_lj=q["e_lj"],
                    alpha_j=q["alpha_j"], phi_jx=TWO_PI * (0.01 * i))
        for i, q in enumerate(derived["qubits"], start=1)
    )
    assert cfg.system == CouplerSystem(beta_c=derived["beta_c"], zeta_c=derived["zeta_c"],
                                       qubits=qubits, e_ltc=derived["e_ltc"],
                                       phi_cx=TWO_PI * 0.0272)


def test_load_config_rejects_mixed_component(tmp_path):
    body = DIMLESS_BODY.replace("e_ltc = 3.0", "l_c = 1e-9")
    with pytest.raises(ConfigurationError, match="one style"):
        load_config(write_config(tmp_path, body))


def test_load_config_rejects_cross_component_mix(tmp_path):
    phys = to_physical(0.5, 0.05, 3.0, REF_QUBITS[:1], l_1=1e-9)
    body = "\n".join(
        ["[coupler]"]
        + [f"{k} = {v:.17g}" for k, v in phys["coupler"].items()]
        + ["[qubit.1]", "beta_j = 1.05", "zeta_j = 0.05"]
    )
    with pytest.raises(ConfigurationError, match="whole"):
        load_config(write_config(tmp_path, body))


def test_load_config_schema_checks(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[coupler]\nbeta_c = 0.5\nzeta_c = 0.05\n[qubit.1]\nbeta_j = 1\nzeta_j = 0.05\n")
    with pytest.raises(ConfigurationError, match="schema"):
        load_config(path)
    path.write_text("[meta]\nschema = 2\n[coupler]\nbeta_c = 0.5\nzeta_c = 0.05\n")
    with pytest.raises(ConfigurationError, match="schema 2"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(tmp_path / "nope.ini")


def test_load_config_first_qubit_sets_unit(tmp_path):
    body = DIMLESS_BODY.replace("beta_j = 1.05\nzeta_j = 0.05\nalpha_j = 0.05\n\n[qubit.2]",
                                "beta_j = 1.05\nzeta_j = 0.05\ne_lj = 2.0\n\n[qubit.2]", 1)
    with pytest.raises(ConfigurationError, match="energy unit"):
        load_config(write_config(tmp_path, body))


def test_load_config_qubit_order_is_numeric(tmp_path):
    body = """
[coupler]
beta_c = 0.5
zeta_c = 0.05

[qubit.10]
beta_j = 0.7
zeta_j = 0.05
e_lj = 1.5

[qubit.2]
beta_j = 1.05
zeta_j = 0.05
e_lj = 1.2

[qubit.1]
beta_j = 0.9
zeta_j = 0.05
"""
    cfg = load_config(write_config(tmp_path, body))
    assert [q.beta_j for q in cfg.system.qubits] == [0.9, 1.05, 0.7]


def test_load_config_rejects_bad_section_names(tmp_path):
    body = DIMLESS_BODY + "\n[qubit.two]\nbeta_j = 1\nzeta_j = 0.05\n"
    with pytest.raises(ConfigurationError, match="qubit section"):
        load_config(write_config(tmp_path, body))


def test_load_config_sweep_and_scan(tmp_path):
    body = DIMLESS_BODY + """
[sweep]
axis = beta_j
lo = 0.5
hi = 1.2
n_points = 3
theories = NA, LA

[scan]
labels = xx, zz
lo = 0.0
hi = 0.1
n_points = 5
"""
    cfg = load_config(write_config(tmp_path, body))
    assert cfg.sweep["axis"] == "beta_j"
    assert cfg.sweep["theories"] == ("NA", "LA")
    assert cfg.scan["labels"] == ["xx", "zz"]
    assert cfg.scan["n_points"] == 5


def test_load_config_units_conflict(tmp_path):
    l_1 = (PHI_0 / TWO_PI) ** 2 / (200e9 * PLANCK)
    phys = to_physical(0.5, 0.05, 3.0, REF_QUBITS[:1], l_1=l_1)
    lines = ["[coupler]"]
    lines += [f"{k} = {v:.17g}" for k, v in phys["coupler"].items()]
    lines.append("[qubit.1]")
    lines += [f"{k} = {v:.17g}" for k, v in phys["qubits"][0].items()]
    lines += ["[units]", "e_l1_ghz = 150"]
    with pytest.raises(ConfigurationError, match="conflicts"):
        load_config(write_config(tmp_path, "\n".join(lines) + "\n"))


# ------------------------------------------------------------- commands


@pytest.fixture
def ref_config(tmp_path):
    return write_config(tmp_path, DIMLESS_BODY)


def test_truncation_prints_order(ref_config, tmp_path, capsys):
    cfg_path = write_config(tmp_path, DIMLESS_BODY.replace("beta_c = 0.5", "beta_c = 0.75")
                            .replace("zeta_c = 0.05", "zeta_c = 0.25"), name="t.ini")
    assert main(["truncation", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "18"
    comments, header, rows = read_csv(tmp_path / "truncation.csv")
    assert header == ["epsilon", "min_nu", "bound"]
    assert rows[0][1] == "18"
    assert any("beta_c=0.75" in c for c in comments)


def test_truncation_unmet_mu_cutoff_exits_numeric(tmp_path, capsys):
    cfg_path = write_config(tmp_path, DIMLESS_BODY.replace("beta_c = 0.5", "beta_c = 0.999"))
    assert main(["truncation", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericError"
    assert err["exit_code"] == EXIT_NUMERIC
    assert err["details"]["beta_c"] == 0.999
    assert not (tmp_path / "truncation.csv").exists()


@pytest.mark.parametrize("command", ["series", "couplings", "scan"])
def test_series_commands_unmet_mu_cutoff_exit_numeric(tmp_path, capsys, command):
    # at beta_c = 0.999 |mu G_mu| stays above 1e-16 up to mu = 399, so no
    # series cut below that drops only terms under rounding
    body = DIMLESS_BODY.replace("beta_c = 0.5", "beta_c = 0.999")
    body += "\n[scan]\nlabels = xx,zz\nlo = 0.0\nhi = 0.1\nn_points = 3\n"
    cfg_path = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericError"
    assert err["exit_code"] == EXIT_NUMERIC
    assert err["details"]["beta_c"] == 0.999
    assert not list(out.glob("*.csv"))


def test_series_beta_zero_sine_is_bitwise(tmp_path, capsys):
    body = "[coupler]\nbeta_c = 0.0\nzeta_c = 0.05\n[qubit.1]\nbeta_j = 1.05\nzeta_j = 0.05\n"
    cfg = write_config(tmp_path, body)
    assert main(["series", "--config", str(cfg), "--out", str(tmp_path),
                 "--n-grid", "257"]) == EXIT_OK
    _, header, rows = read_csv(tmp_path / "series_profile.csv")
    i_sin, i_sb = header.index("sin_phi"), header.index("sin_beta")
    assert all(r[i_sin] == r[i_sb] for r in rows)
    _, header, rows = read_csv(tmp_path / "series_coefficients.csv")
    i_tot = header.index("b_total")
    assert all(float(r[i_tot]) == 0.0 for r in rows[1:])  # nu >= 1 vanishes at beta = 0


def test_csv_values_roundtrip_through_text(ref_config, tmp_path, capsys):
    assert main(["series", "--config", str(ref_config), "--out", str(tmp_path),
                 "--n-grid", "65"]) == EXIT_OK
    _, header, rows = read_csv(tmp_path / "series_coefficients.csv")
    from coupler_lab import b_coeffs
    series = b_coeffs(0.5, 0.05, nu_max=60)
    i_tot = header.index("b_total")
    for row, ref in zip(rows, series.coeffs):
        assert float(row[i_tot]) == ref  # 17 significant digits lose nothing


def test_csv_columns_format_as_each_cell(tmp_path):
    # a column formatted in one pass writes the bytes of _fmt on each cell
    columns = {
        "f": np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0 / 3.0, -2.5e300]),
        "f32": np.linspace(0.1, 0.8, 8, dtype=np.float32),
        "n": np.arange(-3, 5),
        "mixed": [1.5, 2, np.float64(0.1), np.int64(-4), "a,b", True, 1e20, ""],
    }
    path = cli._write_csv(tmp_path / "t.csv", ["h"], columns)
    rows = [",".join(cli._fmt(v) for v in row) for row in zip(*columns.values())]
    assert path.read_text() == "\n".join(["# h", "f,f32,n,mixed", *rows]) + "\n"


def test_output_is_deterministic(ref_config, tmp_path, capsys):
    for sub in ("a", "b"):
        assert main(["couplings", "--config", str(ref_config),
                     "--out", str(tmp_path / sub)]) == EXIT_OK
    a = (tmp_path / "a" / "couplings.csv").read_bytes()
    b = (tmp_path / "b" / "couplings.csv").read_bytes()
    assert a == b


def test_couplings_units_and_relabeling(ref_config, tmp_path, capsys):
    assert main(["couplings", "--config", str(ref_config), "--out", str(tmp_path),
                 "--pc-basis"]) == EXIT_OK
    _, header, rows = read_csv(tmp_path / "couplings.csv")
    assert header == ["label", "value_el1", "value_mhz", "label_pc"]
    table = {r[0]: r for r in rows}
    # MHz column is value_el1 * E_L1[GHz] * 1000, presentation only
    for label, row in table.items():
        assert float(row[2]) == pytest.approx(float(row[1]) * 200e3, rel=1e-15)
    assert table["xz"][3] == "zx"
    assert table["yy"][3] == "yy"
    assert set(table) == {a + b for a in "Ixyz" for b in "Ixyz"}


def test_eg_zero_point_tracks_harmonic_term(tmp_path, capsys):
    body = "[coupler]\nbeta_c = 0.95\nzeta_c = 0.05\n[qubit.1]\nbeta_j = 1.05\nzeta_j = 0.05\n"
    body += "[numerics]\nnu_max = 400\nn_basis = 50\n"
    cfg = write_config(tmp_path, body)
    assert main(["eg", "--config", str(cfg), "--out", str(tmp_path),
                 "--lo", "0.01", "--hi", "0.05", "--n-grid", "5"]) == EXIT_OK
    _, header, rows = read_csv(tmp_path / "eg.csv")
    data = np.array(rows, dtype=float)
    zpe_exact = data[:, header.index("zpe_exact")]
    zpe_harm = data[:, header.index("zpe_harmonic")]
    # strongly nonlinear coupler: residual quantum energy is still
    # within 10% of the harmonic estimate away from the well merger
    assert np.all(np.abs(zpe_exact - zpe_harm) <= 0.10 * np.abs(zpe_exact))
    series_col = data[:, header.index("eg_series")]
    exact_col = data[:, header.index("eg_exact")]
    assert np.max(np.abs(series_col - exact_col)) <= 2e-3


def test_derivs_routes_agree(ref_config, tmp_path, capsys):
    assert main(["derivs", "--config", str(ref_config), "--out", str(tmp_path),
                 "--lo", "0.1", "--hi", "0.4", "--n-grid", "4"]) == EXIT_OK
    _, header, rows = read_csv(tmp_path / "derivs.csv")
    data = np.array(rows, dtype=float)
    d1a = data[:, header.index("d1_analytic")]
    d1n = data[:, header.index("d1_numeric")]
    d2a = data[:, header.index("d2_analytic")]
    d2n = data[:, header.index("d2_numeric")]
    assert np.max(np.abs(d1a - d1n) / np.abs(d1n)) <= 1e-2
    assert np.max(np.abs(d2a - d2n) / np.abs(d2n)) <= 1e-2


def test_spectrum_command(tmp_path, capsys):
    body = DIMLESS_BODY + """
[sweep]
axis = phi_cx
lo = 0.0
hi = 0.05
n_points = 2
theories = NA
n_levels = 3
"""
    body = body.replace("[numerics]", "[numerics]\nbo_dims = 16,16")
    cfg = write_config(tmp_path, body)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    _, header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header[0] == "phi_over_2pi"
    assert "NA_exc1" in header and "NA_exc2" in header and "NA_error" in header
    assert "NA_exc1_mhz" in header
    data = [r for r in rows]
    assert len(data) == 2
    assert float(data[1][header.index("phi_over_2pi")]) == pytest.approx(0.05)
    assert all(r[header.index("NA_error")] == "" for r in data)


def test_spectrum_requires_sweep_section(ref_config, tmp_path, capsys):
    assert main(["spectrum", "--config", str(ref_config),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "sweep" in err["message"]


def test_scan_command(tmp_path, capsys):
    body = DIMLESS_BODY + "\n[scan]\nlabels = xx\nlo = 0.0\nhi = 0.1\nn_points = 3\n"
    cfg = write_config(tmp_path, body)
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    _, header, rows = read_csv(tmp_path / "scan.csv")
    assert header == ["phi_over_2pi", "g_xx", "g_xx_mhz"]
    assert len(rows) == 3
    values = [float(r[1]) for r in rows]
    assert abs(values[0]) > abs(values[2])  # coupling decays away from zero bias


def test_validate_command(ref_config, tmp_path, capsys):
    assert main(["validate", "--config", str(ref_config), "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "FAIL" not in out
    assert out.splitlines()[-1].startswith("8/8 checks passed")


def test_validate_summary_counts_yielded_checks(ref_config, tmp_path, capsys, monkeypatch):
    def three(cfg):
        yield "first", True, "ok"
        yield "second", False, "forced failure"
        yield "third", True, "ok"

    monkeypatch.setattr("coupler_lab.cli._validation_checks", three)
    assert main(["validate", "--config", str(ref_config),
                 "--out", str(tmp_path)]) == EXIT_VALIDATION
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    assert len(verdicts) == 3
    assert lines[-1].startswith("2/3 checks passed")


def test_validate_failure_exit_code(ref_config, tmp_path, capsys, monkeypatch):
    def broken(cfg):
        yield "synthetic", False, "forced failure"

    monkeypatch.setattr("coupler_lab.cli._validation_checks", broken)
    assert main(["validate", "--config", str(ref_config),
                 "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "FAIL synthetic" in capsys.readouterr().out


def test_numeric_failure_exit_code(ref_config, tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise NumericError("synthetic blowup", {"residual": 1.0})

    monkeypatch.setattr("coupler_lab.cli.b_coeffs", explode)
    assert main(["series", "--config", str(ref_config),
                 "--out", str(tmp_path)]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericError"
    assert err["details"] == {"residual": 1.0}


def test_kepler_nonconvergence_exits_numeric(ref_config, tmp_path, capsys, monkeypatch):
    # no Newton iterations allowed: the first solve in validate must fail
    import coupler_lab.kapteyn as kapteyn

    monkeypatch.setattr(kapteyn, "_KEPLER_MAX_ITER", 0)
    assert main(["validate", "--config", str(ref_config),
                 "--out", str(tmp_path)]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericError"
    assert err["exit_code"] == EXIT_NUMERIC
    assert "kepler_solve" in err["message"]
    assert err["details"]["iterations"] == 0


def test_linalg_failure_exits_numeric(ref_config, tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError but is a numeric failure, not a
    # configuration error
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["eg", "--config", str(ref_config), "--out", str(tmp_path),
                 "--n-grid", "3"]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "LinAlgError"
    assert err["exit_code"] == EXIT_NUMERIC


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["eg", "--config", str(tmp_path / "none.ini"),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 1


def test_bad_grid_rejected(ref_config, tmp_path, capsys):
    assert main(["eg", "--config", str(ref_config), "--out", str(tmp_path),
                 "--lo", "0.4", "--hi", "0.1"]) == EXIT_CONFIG


def test_sweep_missing_keys_rejected(tmp_path, capsys):
    # each required [sweep] key must fail cleanly, not surface a traceback
    for missing in ("axis", "lo", "hi", "n_points"):
        lines = {"axis": "axis = phi_cx", "lo": "lo = 0.0",
                 "hi": "hi = 0.05", "n_points": "n_points = 2"}
        del lines[missing]
        body = DIMLESS_BODY + "\n[sweep]\n" + "\n".join(lines.values()) + "\n"
        cfg = write_config(tmp_path, body)
        assert main(["spectrum", "--config", str(cfg),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert missing in err["message"]


MALFORMED = {
    "duplicate_section": DIMLESS_BODY + "\n[coupler]\nbeta_c = 0.5\n",
    "duplicate_key": DIMLESS_BODY.replace("nu_max = 60", "nu_max = 60\nnu_max = 70"),
    "key_before_section": None,
    "percent_in_value": DIMLESS_BODY + "\n[scan]\nlabels = xx%zz\n",
}


@pytest.mark.parametrize("kind", MALFORMED)
def test_malformed_config_exits_with_json_error(tmp_path, capsys, kind):
    # configparser's own errors become the one JSON error line, not a traceback
    if kind == "key_before_section":
        path = tmp_path / "cfg.ini"
        path.write_text("schema = 1\n[meta]\nschema = 1\n" + DIMLESS_BODY)
    else:
        path = write_config(tmp_path, MALFORMED[kind])
    command = "scan" if kind == "percent_in_value" else "couplings"
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = usage_error(capsys)
    assert (err["error"], err["exit_code"]) == ("ConfigurationError", EXIT_CONFIG)


def edited_config(tmp_path, section, key, value):
    """The [meta] section and DIMLESS_BODY, with section's key set to value
    (the section added if absent)."""
    parser = configparser.ConfigParser()
    parser.read_string("[meta]\nschema = 1\n" + DIMLESS_BODY)
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section][key] = value
    path = tmp_path / "cfg.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


NON_FINITE_KEYS = [("coupler", key) for key in ("beta_c", "zeta_c", "e_ltc", "phi_cx")] + [
    ("qubit.2", key) for key in ("beta_j", "zeta_j", "alpha_j", "phi_jx", "e_lj")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_circuit_values_exit_config(tmp_path, capsys, value):
    # NaN and +-inf in any numeric key of a dimensionless component fail the
    # parameter types' checks: exit 1 with the JSON error, and no table
    for section, key in NON_FINITE_KEYS:
        path = edited_config(tmp_path, section, key, value)
        with pytest.raises(ConfigurationError, match=key):
            load_config(path)
        assert main(["couplings", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = usage_error(capsys)
        assert (err["error"], err["exit_code"]) == ("ConfigurationError", EXIT_CONFIG)
        assert not (tmp_path / "couplings.csv").exists()


@pytest.mark.parametrize("section, key, text", [("numerics", "nu_max", "1OO"),
                                                ("units", "e_l1_ghz", "abc"),
                                                ("units", "e_l1_ghz", "nan"),
                                                ("scan", "n_points", "4.5"),
                                                ("meta", "schema", "x"),
                                                ("coupler", "beta_c", "abc"),
                                                ("qubit.2", "beta_j", "abc")])
def test_bad_section_value_names_section_and_key(tmp_path, capsys, section, key, text):
    path = edited_config(tmp_path, section, key, text)
    with pytest.raises(ConfigurationError, match=rf"\[{section}\] {key} = '{text}'"):
        load_config(path)
    assert main(["couplings", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = usage_error(capsys)
    assert err["error"] == "ConfigurationError"
    assert err["message"].startswith(f"[{section}] {key} = '{text}': ")


@pytest.mark.parametrize("section, key", [("meta", "note"), ("coupler", "note"),
                                          ("qubit.2", "note"), ("numerics", "mu_max")])
def test_unknown_key_is_ignored(tmp_path, capsys, section, key):
    # the CSV bytes match those of the same config without the key, apart
    # from the header line that names the config file
    tables = []
    for name, value in (("plain", None), ("extra", "strong coupler")):
        out = tmp_path / name
        out.mkdir()
        path = (edited_config(out, section, key, value) if value
                else write_config(out, DIMLESS_BODY))
        assert run("couplings", path, out=out) == EXIT_OK
        lines = (out / "couplings.csv").read_text().splitlines()
        tables.append([line for line in lines if not line.startswith("# config=")])
    assert tables[0] == tables[1]


def physical_body(edit=None):
    """A two-qubit physical config body, one (section, key, value) edit applied."""
    phys = to_physical(0.5, 0.05, 3.0, REF_QUBITS, l_1=1e-9)
    sections = {"coupler": phys["coupler"]}
    sections.update({f"qubit.{i}": q for i, q in enumerate(phys["qubits"], start=1)})
    if edit:
        section, key, value = edit
        sections[section] = {**sections[section], key: value}
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
                   for name, values in sections.items())


@pytest.mark.parametrize("section, key, shown", [
    ("coupler", "l_c", "coupler l_c "), ("coupler", "c", "coupler c "),
    ("coupler", "i_c", "coupler i_c "), ("qubit.2", "l_j", "qubit 2 l_j "),
    ("qubit.2", "c_j", "qubit 2 c_j "), ("qubit.2", "i_j", "qubit 2 i_j "),
    ("qubit.2", "m_j", "qubit 2 m_j ")])
def test_nan_physical_value_names_its_key(tmp_path, capsys, section, key, shown):
    assert load_config(write_config(tmp_path, physical_body())).system.beta_c > 0.0
    path = write_config(tmp_path, physical_body((section, key, "nan")))
    assert main(["couplings", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = usage_error(capsys)
    assert err["error"] == "ConfigurationError"
    assert err["message"].startswith(shown) and "beta_c" not in err["message"]


META = "[meta]\nschema = 1\n"
MISSING_KEY = {
    "dimensionless_coupler": (META + DIMLESS_BODY.replace("zeta_c = 0.05\n", ""),
                              "[coupler] needs zeta_c"),
    "dimensionless_qubit": (META + DIMLESS_BODY.replace("beta_j = 1.05\n", "", 1),
                            "[qubit.1] needs beta_j"),
    "physical_coupler": (META + physical_body().replace("\nc = ", "\nunused = "),
                         "[coupler] needs c"),
    "physical_qubit": (META + physical_body().replace("i_j = ", "unused = "),
                       "[qubit.1] needs i_j"),
    "schema": (DIMLESS_BODY, "[meta] needs schema"),
}


@pytest.mark.parametrize("case", MISSING_KEY)
def test_missing_required_key_is_named(tmp_path, case):
    text, shown = MISSING_KEY[case]
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    with pytest.raises(ConfigurationError) as info:
        load_config(path)
    assert str(info.value) == shown


def test_labels_flag_all_is_the_default(ref_config, tmp_path, capsys):
    outs = [tmp_path / "default", tmp_path / "all"]
    assert run("couplings", ref_config, out=outs[0]) == EXIT_OK
    assert run("couplings", ref_config, out=outs[1], labels="all") == EXIT_OK
    assert (outs[0] / "couplings.csv").read_bytes() == (outs[1] / "couplings.csv").read_bytes()
    assert run("couplings", ref_config, out=outs[1], labels="xx, zz") == EXIT_OK
    _, _, rows = read_csv(outs[1] / "couplings.csv")
    assert [row[0] for row in rows] == ["xx", "zz"]


@pytest.mark.parametrize("n_grid", [0, 1, -1])
def test_series_grid_needs_two_points(ref_config, tmp_path, capsys, n_grid):
    assert run("series", ref_config, out=tmp_path, n_grid=n_grid) == EXIT_CONFIG
    err = usage_error(capsys)
    assert (err["error"], err["exit_code"]) == ("ConfigurationError", EXIT_CONFIG)
    assert not (tmp_path / "series_profile.csv").exists()


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "readme.ini"
    path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    cfg = load_config(path)
    qubit = QubitParams(beta_j=1.05, zeta_j=0.05, e_lj=1.0, phi_jx=0.0, alpha_j=0.05)
    assert cfg.system == CouplerSystem(beta_c=0.75, zeta_c=0.05, qubits=(qubit, qubit),
                                       e_ltc=3.0, phi_cx=0.0)
    assert cfg.numerics == {"nu_max": 100, "n_basis": 60, "n_levels": 4,
                            "dims": (40, 40, 18), "bo_dims": (40, 40)}
    assert cfg.units == {"e_l1_ghz": 200.0}
    assert cfg.sweep == {"axis": "beta_j", "lo": 0.5, "hi": 1.4, "n_points": 7,
                         "theories": ("exact", "NA", "LA", "LN"), "n_levels": 4}
    assert cfg.scan == {"labels": ["xx", "xz", "zz"], "lo": 0.0, "hi": 0.1, "n_points": 41}


@pytest.mark.parametrize("command, key, value, shown",
                         [("series", "nu_max", 0, "--nu-max = 0: "),
                          ("spectrum", "dims", "4,x", "--dims = '4,x': ")],
                         ids=["nu_max", "dims"])
def test_override_flags_take_the_numerics_check(ref_config, tmp_path, capsys,
                                                command, key, value, shown):
    assert run(command, ref_config, out=tmp_path, **{key: value}) == EXIT_CONFIG
    err = usage_error(capsys)
    assert err["error"] == "ConfigurationError"
    # the error names the flag, not the file's key, whose value is valid
    assert err["message"].startswith(shown)


def usage_error(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    return json.loads(err)


def test_negative_epsilon_flag_exits_config(ref_config, tmp_path, capsys):
    # argparse reads "-1e-3" as an option, not a value: a usage error, exit 1
    assert main(["truncation", "--config", str(ref_config), "--out", str(tmp_path),
                 "--epsilon", "-1e-3"]) == EXIT_CONFIG
    err = usage_error(capsys)
    assert (err["error"], err["exit_code"]) == ("ConfigurationError", EXIT_CONFIG)
    assert "--epsilon" in err["message"]
    assert not (tmp_path / "truncation.csv").exists()


def test_run_passes_negative_values(ref_config, tmp_path, capsys):
    # run() hands options over as --key=value, so the value reaches the check
    assert run("truncation", ref_config, out=tmp_path, epsilon="-1e-3") == EXIT_CONFIG
    err = usage_error(capsys)
    assert (err["error"], err["exit_code"]) == ("ValueError", EXIT_CONFIG)
    assert "epsilon must be positive" in err["message"]


@pytest.mark.parametrize("argv", [["--parallel", "2"], ["--no-such-flag"]])
def test_unknown_flag_exits_config(ref_config, tmp_path, capsys, argv):
    assert main(["spectrum", "--config", str(ref_config), "--out", str(tmp_path)]
                + argv) == EXIT_CONFIG
    err = usage_error(capsys)
    assert err["error"] == "ConfigurationError"
    assert "unrecognized arguments" in err["message"]


def test_missing_command_exits_config(capsys):
    assert main([]) == EXIT_CONFIG
    assert usage_error(capsys)["exit_code"] == EXIT_CONFIG


@pytest.mark.parametrize("argv", [["--help"], ["truncation", "--help"], ["--version"]])
def test_help_and_version_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().err == ""


def test_nu_max_override_flag(ref_config, tmp_path, capsys):
    assert main(["series", "--config", str(ref_config), "--out", str(tmp_path),
                 "--n-grid", "9", "--nu-max", "17"]) == EXIT_OK
    _, _, rows = read_csv(tmp_path / "series_coefficients.csv")
    assert len(rows) == 18  # nu = 0..17


@pytest.mark.parametrize("command, flag", [("truncation", {"dims": "4,4,4"}),
                                           ("derivs", {"nu_max": 17})])
def test_flag_the_command_does_not_read_exits_config(ref_config, tmp_path, capsys,
                                                     command, flag):
    # --nu-max goes on the commands that build a series, --dims on spectrum
    assert run(command, ref_config, out=tmp_path, **flag) == EXIT_CONFIG
    err = usage_error(capsys)
    assert (err["error"], err["exit_code"]) == ("ConfigurationError", EXIT_CONFIG)
    assert "unrecognized arguments" in err["message"]
    assert not (tmp_path / f"{command}.csv").exists()


def test_run_wrapper(ref_config, tmp_path, capsys):
    assert run("truncation", ref_config, out=tmp_path, epsilon=1e-2) == EXIT_OK
    _, _, rows = read_csv(tmp_path / "truncation.csv")
    assert float(rows[0][0]) == 1e-2


def test_parser_is_built_once_and_keeps_no_state(ref_config, tmp_path, capsys):
    # the memoized parser gives each call a fresh namespace: a repeated
    # --epsilon appends to its own list, never to the previous call's
    from coupler_lab.cli import _build_parser

    argv = ["truncation", "--config", str(ref_config), "--out", str(tmp_path),
            "--epsilon", "1e-3", "--epsilon", "1e-4"]
    for _ in range(2):
        assert main(argv) == EXIT_OK
        _, _, rows = read_csv(tmp_path / "truncation.csv")
        assert [float(r[0]) for r in rows] == [1e-3, 1e-4]
    assert _build_parser() is _build_parser()
    capsys.readouterr()
    assert main(["truncation", "--config", str(ref_config), "--no-such-flag"]) == EXIT_CONFIG
    err = usage_error(capsys)
    assert (err["error"], err["exit_code"]) == ("ConfigurationError", EXIT_CONFIG)


def test_parser_is_not_built_at_import():
    # building it costs milliseconds, so importing the cli leaves it unbuilt
    src = str(Path(coupler_lab.__file__).resolve().parents[1])
    code = ("import coupler_lab.cli as cli; "
            "print(cli._build_parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "0"


@pytest.mark.parametrize("epsilon", ["nan", "0"])
def test_truncation_bad_epsilon_exits_config(ref_config, tmp_path, capsys, epsilon):
    assert run("truncation", ref_config, out=tmp_path, epsilon=epsilon) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert not (tmp_path / "truncation.csv").exists()


def test_package_reexports_cli_names():
    assert coupler_lab.cli.run is run
    assert (coupler_lab.run, coupler_lab.load_config) == (run, load_config)
    assert (coupler_lab.from_physical, coupler_lab.to_physical) == (from_physical, to_physical)
    assert coupler_lab.SystemConfig is coupler_lab.cli.SystemConfig
    with pytest.raises(AttributeError):
        coupler_lab.no_such_name


def test_module_run_prints_no_warning():
    # the package does not import cli, so runpy executes it once, as __main__
    src = str(Path(coupler_lab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run([sys.executable, "-m", "coupler_lab.cli", "--version"],
                         capture_output=True, text=True, env=env)
    assert (out.returncode, out.stdout.strip(), out.stderr) == (0, __version__, "")


def scipy_modules_after(commands, cfg, out_dir):
    # (exit codes, scipy modules loaded) of a fresh interpreter that runs
    # the commands on cfg
    src = str(Path(coupler_lab.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); import coupler_lab\n"
        "codes = []\n"
        "for command in sys.argv[4:]:\n"
        "    grid = {'n_grid': 5} if command in ('series', 'eg', 'derivs') else {}\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(coupler_lab.run(command, sys.argv[2], out=sys.argv[3], **grid))\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code, src, str(cfg), str(out_dir), *commands],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_commands_leave_scipy_unloaded(tmp_path):
    # the runtime is numpy only: every command, including a spectrum whose
    # sectors are dense solves (NA, LA and LN at 4x4: two sectors of 8 states
    # at zero bias, one of 16 biased; exact at 4,4,4: four of 16 at zero
    # bias) or Lanczos (exact biased: two of 32), loads no scipy module
    body = DIMLESS_BODY.replace("[numerics]\n", "[numerics]\ndims = 4,4,4\nbo_dims = 4,4\n")
    body += ("\n[scan]\nlabels = xx,zz\nlo = 0.0\nhi = 0.1\nn_points = 3\n"
             "\n[sweep]\naxis = phi_cx\nlo = 0.0\nhi = 0.03\nn_points = 2\n")
    cfg = write_config(tmp_path, body)
    commands = list(coupler_lab.cli._COMMANDS)
    assert len(commands) == 8
    assert scipy_modules_after(commands, cfg, tmp_path) == f"{[EXIT_OK] * len(commands)} []"
    header = (tmp_path / "spectrum.csv").read_text()
    assert "bo_dims=(4, 4) dims=(4, 4, 4)" in header and "n_failed=0" in header


def test_lanczos_route_spectrum_loads_no_scipy(tmp_path):
    # biased identical qubits at 40x40 have no reflection: NA, LA and LN are
    # each one 1,600-state sector, above the Lanczos basis, so Lanczos
    body = DIMLESS_BODY + ("\n[sweep]\naxis = phi_cx\nlo = 0.03\nhi = 0.05\nn_points = 2\n"
                           "theories = NA, LA, LN\n")
    cfg = write_config(tmp_path, body)
    assert scipy_modules_after(["spectrum"], cfg, tmp_path) == f"{[EXIT_OK]} []"


@pytest.mark.parametrize("command", ["eg", "derivs"])
def test_coupler_basis_is_echoed(ref_config, tmp_path, capsys, command):
    # the config asks for n_basis = 40 (the qubits' grid); the coupler is
    # solved on at least 50 states, and the header says which
    assert main([command, "--config", str(ref_config), "--out", str(tmp_path),
                 "--n-grid", "3"]) == EXIT_OK
    comments, _, _ = read_csv(tmp_path / f"{command}.csv")
    assert "# numerics: n_basis=40 n_levels=4 nu_max=60" in comments
    assert "# coupler_n_basis=50" in comments
    # only eg builds the series, whose depth follows from beta_c = 0.5
    assert ("# mu_max=26" in comments) == (command == "eg")
