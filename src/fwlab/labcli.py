"""Command-line front end: configs in, JSON reports and tables out.

Subcommands
    eriksen-series   exact series vs the eighth-order reference
    relfw-check      even-form equivalence and the grading audit
    numeric-fw       exact-transform checks and the hbar convergence study
    spin1-spectrum   spin-1 Landau levels, polarization, field scaling

Exit codes: 0 pass, 1 config or usage error, 2 tolerance failure, 3
numerical breakdown.  Reports are deterministic: identical configs produce
byte-identical JSON (no timestamps; the effective config hash and tool
versions are embedded instead).  Tolerance knobs, and only those, can be
overridden through FWLAB_TOL_<FIELD> environment variables.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .eriksen import (
    compare_series,
    fw_hamiltonian_series,
    reference_devries_jonker,
)
from .matfun import DEFAULT_TOLERANCES, Tolerances, hbar_convergence_study
from .models import (
    LatticeDiracSpec,
    Spin1LandauSpec,
    TruncationTooSmall,
    build_lattice_dirac,
    cosine_potential,
    random_smooth_potential,
    spin1_numeric_spectrum,
    spin1_residual_scaling,
)
from .relfw import (
    bch_audit,
    compare_even_forms,
    eriksen_grade_filter,
    relativistic_even_form,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TOLERANCE = 2
EXIT_NUMERICAL = 3

# every numerical failure of matfun and models is an ArithmeticError;
# TruncationTooSmall is a ValueError and must not read as a config error
_NUMERICAL_ERRORS = (TruncationTooSmall, ArithmeticError)


class ConfigError(ValueError):
    pass


# -- run configs -----------------------------------------------------------------


@dataclass
class EriksenSeriesConfig:
    weight_max: int = 8
    compare: bool = True
    perturb_a24: bool = False


@dataclass
class RelfwCheckConfig:
    f_order: int = 4
    g_order: int = 2


@dataclass
class NumericFwConfig:
    n_sites: int = 64
    box_length: float = 16.0 * math.pi
    mass: float = 1.0
    potential_type: str = "cosine"  # "cosine" or "random-smooth"
    potential_amplitude: float = 0.4
    potential_harmonics: tuple[int, ...] = (1, 2)
    hbar_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    min_slope: float = 1.9
    min_r_squared: float = 0.98
    odd_residual_cap: float = 1e-10
    drift_cap: float = 1e-9
    seed: int = 0  # picks the random-smooth potential


@dataclass
class Spin1Config:
    mass: float = 1.0
    charge: float = 1.0
    g_factor: float = 2.0
    field: float = 0.02
    hbar: float = 1.0
    n_max: int = 60
    n_levels: int = 10
    residual_cap: float | None = None  # default depends on g_factor
    scaling_study: bool = False
    scaling_halvings: int = 3
    min_scaling_exponent: float = 2.7
    expectation_cap: float = 1e-6
    zero_mean_cap: float = 1e-8


def _config_from_sources(cls, file_values: dict, cli_values: dict):
    """File values first, CLI overrides on top; unknown keys are fatal."""
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(file_values) - names
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(file_values)
    merged.update({k: v for k, v in cli_values.items() if v is not None})
    try:
        cfg = cls(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    for f in dataclasses.fields(cls):
        value = getattr(cfg, f.name)
        if isinstance(value, list):
            value = tuple(value)
            setattr(cfg, f.name, value)
        # a nan fails no comparison, so gates and range checks would let it through,
        # and an inf box length zeroes every diff
        entries = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
            raise ConfigError(f"{f.name} must be finite: got {value!r}")
    return cfg


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _tolerances_from_env() -> Tolerances:
    tols = DEFAULT_TOLERANCES
    overrides = {}
    for f in dataclasses.fields(Tolerances):
        env = os.environ.get(f"FWLAB_TOL_{f.name.upper()}")
        if env is None:
            continue
        try:
            value = float(env)
        except ValueError:
            value = math.nan
        # each tolerance scales a gate: nan or inf would switch it off, and zero or less is no scale
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(
                f"bad tolerance override for {f.name}: {env} (need a finite positive number)"
            )
        overrides[f.name] = value
    return tols.updated(**overrides) if overrides else tols


def _config_hash(cfg) -> str:
    payload = json.dumps(dataclasses.asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def _report_header(cfg) -> dict:
    return {
        "config": dataclasses.asdict(cfg),
        "config_sha256": _config_hash(cfg),
        "versions": {
            "fwlab": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }


def _emit(out_dir: str | None, name: str, report: dict, table: str) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / f"{name}.json").write_text(text, encoding="utf-8")
        (path / f"{name}.txt").write_text(table, encoding="utf-8")
    sys.stdout.write(table)


# -- subcommands -------------------------------------------------------------------


def cmd_eriksen_series(cfg: EriksenSeriesConfig, out_dir: str | None) -> int:
    if cfg.weight_max < 1 or cfg.weight_max > 12:
        raise ConfigError("weight_max must be between 1 and 12")
    if cfg.compare and cfg.weight_max > 8:
        raise ConfigError("comparison mode supports weight_max <= 8 (reference data)")
    report = _report_header(cfg)
    fw = fw_hamiltonian_series(cfg.weight_max)
    report["engine_term_count"] = len(fw)
    table_lines = [f"eriksen-series  weight_max={cfg.weight_max}"]
    code = EXIT_OK
    if cfg.compare:
        overrides = {"acomm_o2_oe_sq": Fraction(23)} if cfg.perturb_a24 else None
        ref = reference_devries_jonker(cfg.weight_max, overrides)
        diff = compare_series(fw, ref, cfg.weight_max)
        report["comparison"] = diff.to_json_obj()
        report["perturb_a24"] = cfg.perturb_a24
        table_lines.append(f"  words compared: {diff.term_count}")
        table_lines.append(f"  differing words: {len(diff.entries)}")
        for e in diff.entries:
            table_lines.append(
                f"    {e.word}: engine {e.left} vs reference {e.right}"
            )
        if not diff.is_empty:
            code = EXIT_TOLERANCE
    else:
        from .ncalg import poly_to_json_obj

        report["series"] = poly_to_json_obj(fw)
        table_lines.append(f"  terms: {len(fw)} (compute-only mode)")
    table_lines.append(f"  result: {'PASS' if code == EXIT_OK else 'FAIL'}")
    _emit(out_dir, "eriksen_series", report, "\n".join(table_lines) + "\n")
    return code


def cmd_relfw_check(cfg: RelfwCheckConfig, out_dir: str | None) -> int:
    if not (0 <= cfg.f_order <= 4) or not (0 <= cfg.g_order <= 2):
        raise ConfigError("reference data covers f_order <= 4 and g_order <= 2")
    report = _report_header(cfg)
    rel = relativistic_even_form(8)
    filt = eriksen_grade_filter(8)
    diff = compare_even_forms(rel, filt, cfg.f_order, cfg.g_order)
    audit = bch_audit()
    report["even_form_relativistic"] = rel.to_json_obj()
    report["even_form_filtered"] = filt.to_json_obj()
    report["comparison"] = diff.to_json_obj()
    report["grade_audit"] = [
        {"name": c.name, "min_grade": c.min_grade, "note": c.note} for c in audit
    ]
    audit_ok = (
        {c.name: c.min_grade for c in audit}["leading_correction"] >= 2
        and all(c.min_grade >= 1 for c in audit)
    )
    code = EXIT_OK if diff.is_empty and audit_ok else EXIT_TOLERANCE
    lines = [
        f"relfw-check  f matched to t^{cfg.f_order}, g matched to t^{cfg.g_order}",
        f"  coefficient differences: {len(diff.entries)}",
    ]
    for e in diff.entries:
        lines.append(f"    {e.component}[{e.power}]: {e.left} vs {e.right}")
    for c in audit:
        lines.append(f"  grade >= {c.min_grade}  {c.name}  ({c.note})")
    lines.append(f"  result: {'PASS' if code == EXIT_OK else 'FAIL'}")
    _emit(out_dir, "relfw_check", report, "\n".join(lines) + "\n")
    return code


def _lattice_spec(cfg: NumericFwConfig, hbar: float) -> LatticeDiracSpec:
    if cfg.potential_type == "cosine":
        pot = cosine_potential(cfg.n_sites, cfg.potential_amplitude, cfg.potential_harmonics)
    elif cfg.potential_type == "random-smooth":
        pot = random_smooth_potential(cfg.n_sites, cfg.potential_amplitude, cfg.seed)
    else:
        raise ConfigError(f"unknown potential_type {cfg.potential_type!r}")
    return LatticeDiracSpec(cfg.n_sites, cfg.box_length, cfg.mass, hbar, pot)


def cmd_numeric_fw(cfg: NumericFwConfig, out_dir: str | None) -> int:
    if cfg.seed and cfg.potential_type != "random-smooth":
        raise ConfigError(
            f"seed picks the random-smooth potential; potential_type is {cfg.potential_type!r}"
        )
    tols = _tolerances_from_env()
    report = _report_header(cfg)

    slope_report = hbar_convergence_study(
        lambda hbar: build_lattice_dirac(_lattice_spec(cfg, hbar), tols), cfg.hbar_list
    )
    report["exact_transform"] = [
        {"hbar": hbar, "odd_residual_rel": odd, "spectrum_drift": drift, "spectral_gap": gap}
        for hbar, odd, drift, gap in zip(
            slope_report.hbar,
            slope_report.odd_residual_rel,
            slope_report.spectrum_drift,
            slope_report.spectral_gap,
        )
    ]
    worst_odd = max(slope_report.odd_residual_rel)
    worst_drift = max(slope_report.spectrum_drift)
    report["convergence"] = slope_report.to_json_obj()

    ok = worst_odd <= cfg.odd_residual_cap and worst_drift <= cfg.drift_cap
    if slope_report.slope is None:
        # no fit: exact everywhere passes, exact at only some hbar fails the gate
        ok = ok and slope_report.exact_agreement
    else:
        ok = ok and slope_report.slope >= cfg.min_slope
        ok = ok and slope_report.r_squared >= cfg.min_r_squared
    code = EXIT_OK if ok else EXIT_TOLERANCE
    lines = [
        "numeric-fw  lattice Dirac"
        f"  N={cfg.n_sites} L={cfg.box_length:.4f} m={cfg.mass}",
        f"  worst odd residual / |H|: {worst_odd:.3e} (cap {cfg.odd_residual_cap:.1e})",
        f"  worst spectrum drift:     {worst_drift:.3e} (cap {cfg.drift_cap:.1e})",
    ]
    if slope_report.exact_agreement:
        lines.append("  difference at machine floor for every hbar: exact agreement")
    elif slope_report.slope is None:
        at_floor = ", ".join(f"{hbar:g}" for hbar in slope_report.floor_hbar)
        lines.append(
            f"  no slope fitted (min {cfg.min_slope}):"
            f" difference at machine floor only for hbar = {at_floor}"
        )
    else:
        lines.append(
            f"  slope {slope_report.slope:.3f} (min {cfg.min_slope}),"
            f" R^2 {slope_report.r_squared:.5f} (min {cfg.min_r_squared})"
        )
    for hbar, d, ratio in zip(
        slope_report.hbar, slope_report.diff, slope_report.debroglie_ratio
    ):
        lines.append(f"    hbar={hbar:<7g} diff={d:.4e}  deBroglie/length={ratio:.4f}")
    lines.append(f"  result: {'PASS' if code == EXIT_OK else 'FAIL'}")
    _emit(out_dir, "numeric_fw", report, "\n".join(lines) + "\n")
    return code


def cmd_spin1_spectrum(cfg: Spin1Config, out_dir: str | None) -> int:
    tols = _tolerances_from_env()
    spec = Spin1LandauSpec(
        mass=cfg.mass,
        charge=cfg.charge,
        g_factor=cfg.g_factor,
        field=cfg.field,
        hbar=cfg.hbar,
        n_max=cfg.n_max,
    )
    report = _report_header(cfg)
    spectrum = spin1_numeric_spectrum(spec, cfg.n_levels, tols)
    report["spectrum"] = spectrum.to_json_obj()
    residual_cap = cfg.residual_cap
    if residual_cap is None:
        # the closed forms omit third combined order in the coupling
        residual_cap = 1e-8 if cfg.g_factor == 2.0 else 10.0 * spec.coupling**3 / spec.mass**5
    ok = spectrum.max_relative_residual() <= residual_cap
    expectation_err = 0.0
    if cfg.g_factor != 2.0:
        for row in spectrum.expectations:
            expectation_err = max(expectation_err, abs(row["S_z"] - row["S_z_formula"]))
        ok = ok and expectation_err <= cfg.expectation_cap
        ok = ok and spectrum.zero_means_max <= cfg.zero_mean_cap
    lines = [
        f"spin1-spectrum  m={cfg.mass} e={cfg.charge} g={cfg.g_factor}"
        f" B={cfg.field} hbar={cfg.hbar} n_max={cfg.n_max}",
        f"  coupling |e| hbar B = {spec.coupling:.6g}",
        f"  max relative level residual: {spectrum.max_relative_residual():.3e}"
        f" (cap {residual_cap:.3e})",
    ]
    if cfg.g_factor != 2.0:
        lines.append(
            f"  max |<S_z> - formula|: {expectation_err:.3e} (cap {cfg.expectation_cap:.1e})"
        )
        lines.append(
            f"  max |<S_pi>|, |<S_pixB>|: {spectrum.zero_means_max:.3e}"
            f" (cap {cfg.zero_mean_cap:.1e})"
        )
    lines.append("  n lam    E_num            E_analytic       residual")
    for r in spectrum.levels:
        lines.append(
            f"  {r.n:>2} {r.lam:+d}  {r.energy:.12f}  {r.analytic_energy:.12f}  {r.residual:.2e}"
        )
    if cfg.scaling_study:
        scaling = spin1_residual_scaling(
            spec, cfg.scaling_halvings, cfg.n_levels, tols, base=spectrum
        )
        report["field_scaling"] = scaling
        ok = ok and scaling["exponent"] >= cfg.min_scaling_exponent
        lines.append(
            f"  field-scaling exponent: {scaling['exponent']:.3f}"
            f" (min {cfg.min_scaling_exponent}), R^2 {scaling['r_squared']:.5f}"
        )
    code = EXIT_OK if ok else EXIT_TOLERANCE
    lines.append(f"  result: {'PASS' if code == EXIT_OK else 'FAIL'}")
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / "spin1_spectrum.csv").write_text(spectrum.to_csv_text(), encoding="utf-8")
    _emit(out_dir, "spin1_spectrum", report, "\n".join(lines) + "\n")
    return code


# -- argument parsing ---------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file", default=None)
    sub.add_argument("--out", help="directory for report files", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwlab",
        description="Exact and relativistic Foldy-Wouthuysen laboratory",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eriksen-series", help="series vs eighth-order reference")
    _add_common(p)
    p.add_argument("--weight-max", type=int, default=None, dest="weight_max")
    p.add_argument(
        "--compute-only",
        action="store_false",
        dest="compare",
        default=None,
        help="emit the engine series without comparing (allows weight_max up to 12)",
    )
    p.add_argument(
        "--perturb-a24",
        action="store_true",
        default=None,
        dest="perturb_a24",
        help="fault injection: reference coefficient 24 -> 23",
    )

    p = subs.add_parser("relfw-check", help="grade-one equivalence and audit")
    _add_common(p)
    p.add_argument("--f-order", type=int, default=None, dest="f_order")
    p.add_argument("--g-order", type=int, default=None, dest="g_order")

    p = subs.add_parser("numeric-fw", help="exact transform and hbar convergence")
    _add_common(p)
    p.add_argument("--n-sites", type=int, default=None, dest="n_sites")
    p.add_argument("--box-length", type=float, default=None, dest="box_length")
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--potential-type", default=None, dest="potential_type")
    p.add_argument(
        "--potential-amplitude", type=float, default=None, dest="potential_amplitude"
    )
    p.add_argument(
        "--hbar",
        type=float,
        nargs="+",
        default=None,
        dest="hbar_list",
        help="hbar sweep values",
    )
    p.add_argument("--min-slope", type=float, default=None, dest="min_slope")
    p.add_argument("--seed", type=int, default=None, help="seed of the random-smooth potential")

    p = subs.add_parser("spin1-spectrum", help="spin-1 Landau spectrum")
    _add_common(p)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--charge", type=float, default=None)
    p.add_argument("--g", type=float, default=None, dest="g_factor")
    p.add_argument("--field", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--n-levels", type=int, default=None, dest="n_levels")
    p.add_argument(
        "--scaling-study",
        action="store_true",
        default=None,
        dest="scaling_study",
        help="halve the field and fit the residual exponent",
    )
    return parser


_CONFIG_CLASSES = {
    "eriksen-series": EriksenSeriesConfig,
    "relfw-check": RelfwCheckConfig,
    "numeric-fw": NumericFwConfig,
    "spin1-spectrum": Spin1Config,
}

_HANDLERS = {
    "eriksen-series": cmd_eriksen_series,
    "relfw-check": cmd_relfw_check,
    "numeric-fw": cmd_numeric_fw,
    "spin1-spectrum": cmd_spin1_spectrum,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    command = args.command
    cli_values = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config", "out")
    }
    try:
        file_values = _load_config_file(args.config)
        cfg = _config_from_sources(_CONFIG_CLASSES[command], file_values, cli_values)
        return _HANDLERS[command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical breakdown: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
