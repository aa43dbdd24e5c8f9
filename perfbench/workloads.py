"""The benchmark's workloads: one fixed fwlab experiment per task, and oracle checks.

A task is timed; its check runs afterwards, outside the timed region,
and compares the task's outputs with oracles that do not come from the
program's own verdict: the committed weight-8 golden series, a sha256 of
the weight-12 series pinned from the seed, eigenvalues of a lattice
Hamiltonian the benchmark builds itself, and the Landau closed forms
evaluated here.

Exit code 2 (a tolerance gate of the program) is recorded as a fact and
is neither a failure nor a pass; exit codes 1 and 3 are failures.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from fwlab import eriksen, labcli, models

from spans import STAGES

FAILING_EXIT_CODES = (labcli.EXIT_CONFIG, labcli.EXIT_NUMERICAL)

W12_STAGE_TERMS = (6, 5, 603, 371, 603, 352)
W12_SHA256 = "21427d3984ea13fadee30121e0f319ee0d7d4e24d2de754efe92cfc25613cc9b"
GOLDEN_W8 = Path("tests") / "data" / "devries_jonker_w8.json"


def _cli(argv: list[str]) -> tuple[int, str]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = labcli.main(argv)
    return code, sink.getvalue()


def _exit_problems(codes: dict[str, tuple[int, str]]) -> list[str]:
    return [
        f"{cmd} exited {code}: {text.strip().splitlines()[-1:]}"
        for cmd, (code, text) in codes.items()
        if code in FAILING_EXIT_CODES
    ]


def _read_report(path: Path) -> dict:
    report = json.loads(path.read_text(encoding="utf-8"))
    path.unlink()
    return report


def _poly_terms(poly) -> dict[tuple, Fraction]:
    return {(w.beta, w.letters, w.m_power): c for w, c in poly.items()}


def _poly_sha256(poly) -> str:
    lines = sorted(
        f"{beta} {letters} {m_power} {c.numerator}/{c.denominator}"
        for (beta, letters, m_power), c in _poly_terms(poly).items()
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x)), np.log(np.asarray(y)), 1)[0])


# Each calibration loop's typical time on the machine the benchmark was
# defined on (2 vCPUs of a 2.1 GHz Xeon); these only fix the unit of the
# speed-adjusted times.
PYTHON_CANARY_REF_S = 0.015
DENSE_CANARY_REF_S = 0.018


def python_canary() -> None:
    """Rational arithmetic accumulated in a dict, the kind of work the series kernel does."""
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(5000):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, key[0] + 1)


@functools.cache
def _dense_canary_input() -> np.ndarray:
    rng = np.random.default_rng(0)
    a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    return a + a.conj().T


def dense_canary() -> None:
    """A Hermitian eigendecomposition and a complex product, the dense routes' kernels."""
    h = _dense_canary_input()
    np.linalg.eigh(h)
    h @ h


class Workload:
    name = ""
    # layers every task must call; the traced run fails if one reads zero
    layers: tuple[str, ...] = ()
    # the calibration loop timed beside every task (it calls no fwlab code),
    # and its time at the reference speed, which fixes the unit of the
    # speed-adjusted times
    canary = staticmethod(dense_canary)
    canary_ref_s = DENSE_CANARY_REF_S

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.seed = seed
        self.out = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def run(self):
        """One task; this is the timed part."""
        raise NotImplementedError

    def check(self, output) -> tuple[list[str], dict]:
        """Problems found in the task's outputs, and facts to record."""
        raise NotImplementedError


class Series(Workload):
    name = "series"
    canary = staticmethod(python_canary)
    canary_ref_s = PYTHON_CANARY_REF_S
    layers = (
        "labcli.cmd", "ncalg.mul", "eriksen.reference", "eriksen.compare", "fseries.inv_sqrt_series",
        "relfw.grade_filter", "relfw.even_form", "relfw.compare", "relfw.bch_audit",
    ) + tuple(f"eriksen.{stage}" for stage in STAGES)

    def __init__(self, root: Path, seed: int, out_dir: Path):
        super().__init__(root, seed, out_dir)
        golden = json.loads((root / GOLDEN_W8).read_text(encoding="utf-8"))
        self.golden = {
            (int(e["beta"]), e["word"], int(e["m_power"])): Fraction(e["coeff"]) for e in golden
        }
        # keep the series the eriksen-series command computes, for the golden check
        original = labcli.fw_hamiltonian_series
        self.captured = None

        def capture(*args, **kwargs):
            self.captured = original(*args, **kwargs)
            return self.captured

        labcli.fw_hamiltonian_series = capture

    def run(self):
        out = str(self.out)
        codes = {
            "eriksen-series": _cli(["eriksen-series", "--out", out]),
            "relfw-check": _cli(["relfw-check", "--out", out]),
        }
        # fw_hamiltonian_series(12), stage by stage so the trace can time each
        pipeline = eriksen.EriksenPipeline(12)
        for stage in STAGES:
            getattr(pipeline, stage)
        w8, self.captured = self.captured, None
        return codes, w8, pipeline

    def check(self, output):
        codes, w8, pipeline = output
        problems = _exit_problems(codes)
        if w8 is None or _poly_terms(w8) != self.golden:
            problems.append("weight-8 H_FW differs from the committed de Vries-Jonker series")
        terms = tuple(len(getattr(pipeline, stage)) for stage in STAGES)
        if terms != W12_STAGE_TERMS:
            problems.append(f"weight-12 stage term counts {terms}, expected {W12_STAGE_TERMS}")
        if _poly_sha256(pipeline.fw_hamiltonian) != W12_SHA256:
            problems.append("weight-12 H_FW differs from the pinned series")
        for name in ("eriksen_series", "relfw_check"):
            for suffix in (".json", ".txt"):
                (self.out / f"{name}{suffix}").unlink(missing_ok=True)
        facts = {f"exit.{cmd}": code for cmd, (code, _) in codes.items()}
        return problems, facts


class Lattice(Workload):
    name = "lattice"
    layers = (
        "labcli.cmd", "matfun.transform", "matfun.spectral_norm", "matfun.inv_sqrt", "matfun.sqrt",
        "matfun.closed_form", "matfun.block_operator", "matfun.convergence_study", "models.build_lattice",
    )

    def __init__(self, root: Path, seed: int, out_dir: Path):
        super().__init__(root, seed, out_dir)
        self.argv = [
            "numeric-fw", "--n-sites", "128", "--potential-type", "random-smooth",
            "--seed", str(seed), "--out", str(out_dir),
        ]
        self._gaps: dict[float, float] = {}

    def run(self):
        return _cli(self.argv)

    def _own_gap(self, cfg: dict, hbar: float) -> float:
        """min eig(H^2) from eigvalsh of the lattice Dirac H built here."""
        if hbar not in self._gaps:
            n = cfg["n_sites"]
            dx = cfg["box_length"] / n
            v = models.random_smooth_potential(n, cfg["potential_amplitude"], cfg["seed"])
            shift = np.roll(np.eye(n), -1, axis=1)
            p = (-1j * hbar / (2.0 * dx)) * (shift - shift.T)
            beta = np.kron(np.diag([1.0, -1.0]), np.eye(n))
            h = cfg["mass"] * beta + np.kron(np.eye(2), np.diag(v)) + np.kron([[0.0, 1.0], [1.0, 0.0]], p)
            self._gaps[hbar] = float(np.min(np.linalg.eigvalsh(h) ** 2))
        return self._gaps[hbar]

    def check(self, output):
        code, _ = output
        problems = _exit_problems({"numeric-fw": output})
        if problems:
            return problems, {"exit.numeric-fw": code}
        report = _read_report(self.out / "numeric_fw.json")
        cfg = report["config"]
        rows = report["exact_transform"]
        if sorted(r["hbar"] for r in rows) != sorted(cfg["hbar_list"]):
            problems.append("numeric-fw report does not cover the hbar sweep")
        for row in rows:
            if row["odd_residual_rel"] > cfg["odd_residual_cap"]:
                problems.append(f"hbar={row['hbar']}: odd residual {row['odd_residual_rel']:.3e} above cap")
            if row["spectrum_drift"] > cfg["drift_cap"]:
                problems.append(f"hbar={row['hbar']}: spectrum drift {row['spectrum_drift']:.3e} above cap")
            gap = self._own_gap(cfg, row["hbar"])
            if abs(row["spectral_gap"] - gap) > 1e-9 * gap:
                problems.append(f"hbar={row['hbar']}: gap {row['spectral_gap']!r} vs eigvalsh {gap!r}")
        conv = report["convergence"]
        facts = {
            "exit.numeric-fw": code,
            "slope": conv["slope"],
            "r_squared": conv["r_squared"],
            "worst_odd_residual_rel": max(r["odd_residual_rel"] for r in rows),
            "worst_spectrum_drift": max(r["spectrum_drift"] for r in rows),
        }
        (self.out / "numeric_fw.txt").unlink(missing_ok=True)
        return problems, facts


def landau_level(spec: dict, n: int, lam: int) -> float:
    """Closed-form spin-1 Landau level E(n, lam), own-energy convention."""
    e, g, b, hbar, m = spec["charge"], spec["g_factor"], spec["field"], spec["hbar"], spec["mass"]
    h0 = math.sqrt(m * m + (2 * n + 1) * abs(e) * hbar * b - 2 * lam * e * hbar * b)
    if lam == 0:
        return h0
    w0 = -e * hbar * (g - 2.0) * b / (2.0 * m)
    mixing = e * hbar * (g - 1.0) * (h0 - m) * b / (4.0 * m * m * h0)
    polar = e * e * hbar * hbar * g * (g - 2.0) * b * b / (8.0 * m * m * h0)
    return h0 + lam * w0 * math.sqrt(1.0 + mixing * mixing) - polar


class Spin1(Workload):
    name = "spin1"
    layers = (
        "labcli.cmd", "matfun.transform", "matfun.spectral_norm", "matfun.inv_sqrt", "matfun.block_operator",
        "models.build_spin1", "models.spin1_spectrum", "models.spin1_scaling",
    )
    argv = ["spin1-spectrum", "--g", "2.5", "--scaling-study"]

    def run(self):
        return _cli(self.argv + ["--out", str(self.out)])

    def check(self, output):
        code, _ = output
        problems = _exit_problems({"spin1-spectrum": output})
        if problems:
            return problems, {"exit.spin1-spectrum": code}
        report = _read_report(self.out / "spin1_spectrum.json")
        cfg = report["config"]
        spectrum = report["spectrum"]
        spec = spectrum["spec"]
        coupling = abs(spec["charge"]) * spec["hbar"] * spec["field"]
        cap = cfg["residual_cap"]
        if cap is None:
            cap = 1e-8 if spec["g_factor"] == 2.0 else 10.0 * coupling**3 / spec["mass"] ** 5
        levels = spectrum["levels"]
        closed = sorted(
            (landau_level(spec, n, lam), n, lam) for n in range(len(levels) + 2) for lam in (1, 0, -1)
        )[: len(levels)]
        labels = {(row["n"], row["lambda"]) for row in levels}
        if labels != {(n, lam) for _, n, lam in closed}:
            problems.append("level labels are not the lowest closed-form levels")
        worst = 0.0
        for row in levels:
            exact = landau_level(spec, row["n"], row["lambda"])
            worst = max(worst, abs(row["E_num"] - exact) / exact)
        if worst > cap:
            problems.append(f"level residual {worst:.3e} against the closed forms above cap {cap:.3e}")
        complete = [
            g for g in spectrum["degeneracy_groups"]
            if g["group"] >= 1 and all(tuple(m) in labels for m in g["members"])
        ]
        if not complete or any(len(g["members"]) != 3 or g["count_found"] != 3 for g in complete):
            problems.append("complete degeneracy groups do not each hold three levels")
        scaling = report["field_scaling"]
        exponent = _loglog_slope(scaling["field_values"], scaling["max_residuals"])
        if exponent < cfg["min_scaling_exponent"]:
            problems.append(f"field exponent {exponent:.3f} below {cfg['min_scaling_exponent']}")
        facts = {"exit.spin1-spectrum": code, "max_level_residual": worst, "field_exponent": exponent}
        for name in ("spin1_spectrum.txt", "spin1_spectrum.csv"):
            (self.out / name).unlink(missing_ok=True)
        return problems, facts


WORKLOADS = {cls.name: cls for cls in (Series, Lattice, Spin1)}
