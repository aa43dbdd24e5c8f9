import dataclasses
import json
import sys

import numpy as np

from fwlab import labcli, matfun
from fwlab.labcli import (
    EXIT_CONFIG,
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


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    # an absurdly tight odd-residual cap cannot be satisfied: exit 2 via
    # the numeric gate would need a model failure, so instead check the
    # env plumbing by loosening and verifying the run still passes
    monkeypatch.setenv("FWLAB_TOL_POWER_ITERATIONS", "30")
    code, _, _ = run(["spin1-spectrum", "--n-max", "30", "--n-levels", "4"], capsys)
    assert code == EXIT_OK
    monkeypatch.setenv("FWLAB_TOL_POWER_ITERATIONS", "not-a-number")
    code, _, err = run(["spin1-spectrum", "--n-max", "30", "--n-levels", "4"], capsys)
    assert code == EXIT_CONFIG
    assert "tolerance override" in err


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
    assert {name for name, _ in calls} == {"eigh", "eigvalsh", "svd"}


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
