import dataclasses
import json
import sys

import numpy as np
import pytest

from fwlab import labcli, matfun
from fwlab.labcli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_TOLERANCE,
    main,
)
from fwlab.models import degeneracy_group


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eriksen_series_default_passes(tmp_path, capsys):
    code, out, _ = run(["eriksen-series", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    report = json.loads((tmp_path / "eriksen_series.json").read_text())
    assert report["comparison"]["diff"] == []
    assert report["comparison"]["term_count"] == 48
    assert "config_sha256" in report and "versions" in report
    assert "PASS" in out


def test_eriksen_series_low_weight_trivial(capsys):
    code, out, _ = run(["eriksen-series", "--weight-max", "2"], capsys)
    assert code == EXIT_OK


def test_eriksen_series_perturbation_fails_with_pattern(tmp_path, capsys):
    code, out, _ = run(
        ["eriksen-series", "--perturb-a24", "--out", str(tmp_path)], capsys
    )
    assert code == EXIT_TOLERANCE
    # the table writes a run of one letter as a power, as NCPoly.pretty does
    assert "    b E O^2 E O^2 m^-5: engine -1/32 vs reference -7/256\n" in out
    report = json.loads((tmp_path / "eriksen_series.json").read_text())
    diff = report["comparison"]["diff"]
    assert len(diff) == 8
    # the injected pattern lives in the quartic-odd quadratic-even sector
    assert all(entry["word"].count("O") == 4 for entry in diff)
    assert all(entry["word"].count("E") == 2 for entry in diff)
    assert all(entry["m_power"] == -5 for entry in diff)


def test_eriksen_series_weight_cap_is_config_error(capsys):
    code, _, err = run(["eriksen-series", "--weight-max", "9"], capsys)
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_eriksen_series_compute_only_allows_higher_weight(capsys):
    code, out, _ = run(
        ["eriksen-series", "--weight-max", "9", "--compute-only"], capsys
    )
    assert code == EXIT_OK
    assert "compute-only" in out


def test_eriksen_series_compute_only_weight_twelve(tmp_path, capsys):
    code, out, _ = run(
        ["eriksen-series", "--weight-max", "12", "--compute-only", "--out", str(tmp_path)],
        capsys,
    )
    assert code == EXIT_OK
    assert "terms: 352 (compute-only mode)" in out
    report = json.loads((tmp_path / "eriksen_series.json").read_text())
    assert report["engine_term_count"] == len(report["series"]) == 352


def test_eriksen_series_compute_only_cap_is_twelve(capsys):
    code, _, err = run(["eriksen-series", "--weight-max", "13", "--compute-only"], capsys)
    assert code == EXIT_CONFIG
    assert "between 1 and 12" in err


def test_relfw_check_default(tmp_path, capsys):
    code, out, _ = run(["relfw-check", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    report = json.loads((tmp_path / "relfw_check.json").read_text())
    assert report["comparison"]["diff"] == []
    grades = {row["name"]: row["min_grade"] for row in report["grade_audit"]}
    assert grades["leading_correction"] == 2
    assert "f matched to t^4" in out


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight_max": 8, "bogus_knob": 1}))
    code, _, err = run(["eriksen-series", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert "bogus_knob" in err


def test_config_file_merges_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight_max": 4}))
    code, out, _ = run(["eriksen-series", "--config", str(cfg)], capsys)
    assert code == EXIT_OK and "weight_max=4" in out
    code, out, _ = run(
        ["eriksen-series", "--config", str(cfg), "--weight-max", "6"], capsys
    )
    assert code == EXIT_OK and "weight_max=6" in out


def test_numeric_fw_default(tmp_path, capsys):
    code, out, _ = run(["numeric-fw", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    report = json.loads((tmp_path / "numeric_fw.json").read_text())
    assert report["convergence"]["slope"] >= 1.9
    assert report["convergence"]["r_squared"] >= 0.98
    assert len(report["exact_transform"]) == 4
    assert "deBroglie" in out


def test_numeric_fw_needs_four_points(capsys):
    code, _, err = run(["numeric-fw", "--hbar", "0.2", "0.1", "0.05"], capsys)
    assert code == EXIT_CONFIG


def test_numeric_fw_rejects_repeated_hbar(capsys):
    # four values but two points: the fit would pass with R^2 = 1 by construction
    code, out, err = run(["numeric-fw", "--hbar", "0.2", "0.2", "0.05", "0.05"], capsys)
    assert code == EXIT_CONFIG
    assert "distinct" in err and "PASS" not in out


def test_numeric_fw_rejects_zero_hbar(capsys):
    # the span check divides by the smallest hbar: the sign is checked first
    code, out, err = run(["numeric-fw", "--hbar", "0", "0.1", "0.2", "0.4"], capsys)
    assert code == EXIT_CONFIG
    assert "config error: hbar values must be positive" in err and "PASS" not in out


@pytest.mark.parametrize("n_levels", ["0", "-3"])
def test_spin1_level_count_below_one_is_config_error(capsys, n_levels):
    code, out, err = run(["spin1-spectrum", "--n-levels", n_levels], capsys)
    assert code == EXIT_CONFIG
    assert "n_levels must be at least 1" in err and "PASS" not in out


def test_spin1_field_study_needs_two_halvings(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g_factor": 2.5, "scaling_study": True, "scaling_halvings": 0}))
    code, _, err = run(["spin1-spectrum", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert "at least 2 field halvings" in err


def test_numeric_fw_reports_are_deterministic(tmp_path, capsys):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run(["numeric-fw", "--out", str(a_dir)], capsys)
    run(["numeric-fw", "--out", str(b_dir)], capsys)
    assert (a_dir / "numeric_fw.json").read_bytes() == (b_dir / "numeric_fw.json").read_bytes()


def test_spin1_spectrum_g2(tmp_path, capsys):
    code, out, _ = run(
        ["spin1-spectrum", "--n-max", "40", "--n-levels", "6", "--out", str(tmp_path)],
        capsys,
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "spin1_spectrum.json").read_text())
    assert all(row["residual"] <= 1e-8 for row in report["spectrum"]["levels"])
    assert (tmp_path / "spin1_spectrum.csv").exists()


def test_spin1_spectrum_bad_field_is_config_error(capsys):
    code, _, err = run(["spin1-spectrum", "--field", "-0.5"], capsys)
    assert code == EXIT_CONFIG


# for each Tolerances field: an override, and the gate it must trip on a
# numeric-fw run that passes without one; an override must be positive, so
# the tightest is the smallest normal double
TIGHTEST = repr(sys.float_info.min)
TOLERANCE_GATES = {
    "herm_class": (TIGHTEST, "ClassMismatch: even part"),
    "sqrt_residual": (TIGHTEST, "IllConditioned"),
    "spectral_gap": ("1e6", "SpectralGapTooSmall"),
    "eriksen_condition": (TIGHTEST, "ClassMismatch: Eriksen condition"),
    "kernel_singularity": ("1e6", "SingularKernel"),
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(matfun.Tolerances)])
def test_tolerance_env_override(name, capsys, monkeypatch):
    # a field that no override can make a run fail is a dead knob
    assert name in TOLERANCE_GATES, f"no gate recorded for Tolerances.{name}"
    value, gate = TOLERANCE_GATES[name]
    argv = ["numeric-fw", "--n-sites", "16"]
    assert run(argv, capsys)[0] == EXIT_OK
    monkeypatch.setenv(f"FWLAB_TOL_{name.upper()}", value)
    code, _, err = run(argv, capsys)
    assert code == EXIT_NUMERICAL
    assert gate in err


def test_tolerance_env_override_reaches_spin1(capsys, monkeypatch):
    # a spectral-gap tolerance far above any gap must reach the transform's gate
    argv = ["spin1-spectrum", "--n-max", "30", "--n-levels", "4"]
    monkeypatch.setenv("FWLAB_TOL_SPECTRAL_GAP", "1e6")
    code, _, err = run(argv, capsys)
    assert code == EXIT_NUMERICAL
    assert "SpectralGapTooSmall" in err
    monkeypatch.setenv("FWLAB_TOL_SPECTRAL_GAP", "not-a-number")
    code, _, err = run(argv, capsys)
    assert code == EXIT_CONFIG
    assert "tolerance override" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-12"])
def test_tolerance_override_must_be_finite_and_positive(value, capsys, monkeypatch):
    # a nan cap makes every "residual > cap" test False: the gate would be off
    monkeypatch.setenv("FWLAB_TOL_SQRT_RESIDUAL", value)
    code, out, err = run(["numeric-fw", "--n-sites", "16"], capsys)
    assert code == EXIT_CONFIG
    assert "bad tolerance override for sqrt_residual" in err and "PASS" not in out


@pytest.mark.parametrize(
    "argv, field",
    [
        (["numeric-fw", "--box-length", "inf"], "box_length"),  # passed with every diff 0
        (["numeric-fw", "--min-slope", "nan"], "min_slope"),
        (["numeric-fw", "--mass", "nan"], "mass"),
        (["numeric-fw", "--hbar", "0.2", "0.1", "nan", "0.025"], "hbar_list"),
        (["numeric-fw", "--hbar", "0.2", "0.1", "0.05", "inf"], "hbar_list"),
        (["numeric-fw", "--potential-amplitude=-inf"], "potential_amplitude"),
        (["spin1-spectrum", "--field", "nan"], "field"),
        (["spin1-spectrum", "--mass", "nan"], "mass"),
        (["spin1-spectrum", "--hbar", "nan"], "hbar"),
        (["spin1-spectrum", "--g", "nan"], "g_factor"),
        (["spin1-spectrum", "--charge", "nan"], "charge"),
        (["spin1-spectrum", "--field", "inf"], "field"),
    ],
)
def test_non_finite_config_value_is_config_error(argv, field, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_CONFIG
    assert f"config error: {field} must be finite" in err and "PASS" not in out


def test_non_finite_config_file_value_is_config_error(tmp_path, capsys):
    # json reads NaN and Infinity; an entry of a tuple field is checked too
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"hbar_list": [0.2, 0.1, NaN, 0.025], "drift_cap": 1e-9}')
    code, _, err = run(["numeric-fw", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert "hbar_list must be finite" in err
    cfg.write_text('{"residual_cap": Infinity}')
    code, _, err = run(["spin1-spectrum", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert "residual_cap must be finite" in err


def test_usage_errors_are_config_errors(capsys):
    # argparse's own exit code, 2, would read as a tolerance failure
    for argv in (
        ["numeric-fw", "--n-sites", "abc"],
        ["spin1-spectrum", "--bogus", "1"],
        ["spin1-spectrum", "--seed", "3"],  # only numeric-fw has a random input
    ):
        code, _, err = run(argv, capsys)
        assert code == EXIT_CONFIG
        assert "usage:" in err and "error:" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(["numeric-fw", "--help"], capsys)
    assert code == EXIT_OK
    assert "--seed" in out


def test_seed_is_numeric_fw_config_only(tmp_path, capsys):
    argv = ["numeric-fw", "--n-sites", "32", "--potential-type", "random-smooth", "--seed", "5"]
    code, _, _ = run(argv + ["--out", str(tmp_path)], capsys)
    assert code in (EXIT_OK, EXIT_TOLERANCE)
    assert json.loads((tmp_path / "numeric_fw.json").read_text())["config"]["seed"] == 5
    for config in (labcli.EriksenSeriesConfig, labcli.RelfwCheckConfig, labcli.Spin1Config):
        assert "seed" not in {f.name for f in dataclasses.fields(config)}


def test_seed_without_random_potential_is_config_error(tmp_path, capsys):
    # a seed that picks nothing would only change the config hash
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 4}))
    for argv in (["numeric-fw", "--seed", "3"], ["numeric-fw", "--config", str(config)]):
        code, _, err = run(argv, capsys)
        assert code == EXIT_CONFIG
        assert "seed" in err


def test_spin1_truncation_guard_maps_to_numerical_exit(capsys):
    code, _, err = run(["spin1-spectrum", "--n-max", "8", "--n-levels", "20"], capsys)
    assert code == 3
    assert "TruncationTooSmall" in err


def test_spin1_indefinite_beta_h_maps_to_numerical_exit(capsys):
    # g = 2.5 at B = 0.9: beta*H has a negative eigenvalue, so the
    # positive-energy states are not all of positive beta norm
    code, _, err = run(
        ["spin1-spectrum", "--g", "2.5", "--field", "0.9", "--n-max", "30", "--n-levels", "4"],
        capsys,
    )
    assert code == 3
    assert "SpectrumNotPositive" in err and "beta*H is not positive definite" in err


def _count_transforms(monkeypatch) -> list:
    """Rebind the transform so each call records the bytes of its input matrix."""
    calls = []
    original = matfun.eriksen_transform_numeric

    def counted(block, *args, **kwargs):
        calls.append(block.matrix.tobytes())
        return original(block, *args, **kwargs)

    # rebind every name the function has in any fwlab module
    for name, module in list(sys.modules.items()):
        if name.startswith("fwlab") and getattr(module, "eriksen_transform_numeric", None) is original:
            monkeypatch.setattr(module, "eriksen_transform_numeric", counted)
    return calls


def test_numeric_fw_transforms_each_hbar_once(tmp_path, capsys, monkeypatch):
    calls = _count_transforms(monkeypatch)
    code, _, _ = run(["numeric-fw", "--n-sites", "32", "--out", str(tmp_path)], capsys)
    assert code in (EXIT_OK, EXIT_TOLERANCE)
    report = json.loads((tmp_path / "numeric_fw.json").read_text())
    assert len(calls) == len(report["config"]["hbar_list"]) == 4
    assert [row["hbar"] for row in report["exact_transform"]] == report["convergence"]["hbar"]


def test_spin1_scaling_study_transforms_each_field_once(tmp_path, capsys, monkeypatch):
    calls = _count_transforms(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g_factor": 2.5, "scaling_halvings": 2, "n_max": 30, "n_levels": 4}))
    code, _, _ = run(
        ["spin1-spectrum", "--config", str(cfg), "--scaling-study", "--out", str(tmp_path)], capsys
    )
    assert code in (EXIT_OK, EXIT_TOLERANCE)
    report = json.loads((tmp_path / "spin1_spectrum.json").read_text())
    # one transform per degeneracy-group sector of each of the 2 + 1 fields
    n_sectors = len({degeneracy_group(n, lam, 1.0) for n in range(30 + 1) for lam in (1, 0, -1)})
    assert n_sectors == 30 + 3
    assert len(calls) == (2 + 1) * n_sectors
    assert len(set(calls)) == len(calls)
    assert report["field_scaling"]["field_values"][0] == report["spectrum"]["spec"]["field"]


def test_numeric_fw_takes_one_full_size_decomposition_per_hbar(tmp_path, capsys, monkeypatch):
    # only sign(H) needs the whole 2N x 2N matrix; every other function of
    # an even operator is taken on the two N x N beta blocks
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "eig", "eigvals"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)[-1]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    code, _, _ = run(["numeric-fw", "--n-sites", "64", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert [call for call in calls if call[1] != 64] == [("eigh", 128)] * 4
    assert {name for name, _ in calls} == {"eigh", "eigvalsh"}


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_numeric_fw_sweep_exact_at_one_hbar_fails_the_slope_gate(tmp_path, capsys, monkeypatch):
    original = labcli.build_lattice_dirac

    def free_at_one_hbar(spec, tols):
        # no potential: the closed form is exact, the difference at the floor
        if spec.hbar == 0.05:
            spec = dataclasses.replace(spec, potential=(0.0,) * spec.n_sites)
        return original(spec, tols)

    monkeypatch.setattr(labcli, "build_lattice_dirac", free_at_one_hbar)
    code, out, _ = run(["numeric-fw", "--out", str(tmp_path)], capsys)
    assert code == EXIT_TOLERANCE
    assert "difference at machine floor only for hbar = 0.05" in out
    text = (tmp_path / "numeric_fw.json").read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["convergence"]["slope"] is None
    assert report["convergence"]["r_squared"] is None
    assert report["convergence"]["exact_agreement"] is False
