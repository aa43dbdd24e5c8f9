"""Concrete model Hamiltonians: 1D lattice Dirac and spin-1 Landau.

The lattice Dirac particle (two-component spinor on a periodic chain
with a smooth scalar potential and spectral momentum) is the test bed
for the convergence experiments: the commutator of the odd kinetic term
with the potential scales linearly in hbar by construction.

The spin-1 particle in a uniform magnetic field B = B e_z is built in
the six-component Hamiltonian (Sakata-Taketani) form restricted to zero
momentum along the field:

    H = rho3*M + E + O,
    M = m + pi^2/(2m) - (e hbar/m) S.B,
    E = -rho3 (e hbar (g-2)/(2m)) S.B,
    O = i rho2 [ pi^2/(2m) - (pi.S)^2/m + (e hbar (g-2)/(2m)) S.B ],

with the transverse kinetic momenta realized by ladder operators so that
pi^2 is diagonal with Landau eigenvalues |e| hbar B (2n+1) and
[pi_x, pi_y] = i e hbar B holds on the retained block.  H is
beta-pseudo-Hermitian with beta = rho3 (x) 1.

H is block-diagonal by the degeneracy-group label k = n - lam*sign(e):
each group holds at most three (n, lam) states times the two rho
components, so the spectrum is computed sector by sector (at most 6 x 6
each) after ``BlockOperator.sectors`` has checked that no entry couples
two groups.

Energy levels are compared against the closed forms

    H0(n, lam) = sqrt(m^2 + (2n+1)|e| hbar B - 2 lam e hbar B),
    E(+-1) = H0 +- w0 sqrt(1 + Bfrak^2) - e^2 hbar^2 g (g-2) B^2 / (8 m^2 eps'),
    E(0)  = H0,
    w0 = -e hbar (g-2) B / (2m),
    Bfrak = e hbar (g-1) (eps' - m) B / (4 m^2 eps'),

with eps' evaluated at the level's own H0 (the kinetic alternative
sqrt(m^2 + (2n+1)|e| hbar B) is reported alongside).  Spin expectation
values in stationary states are Y = 1/sqrt(1+Bfrak^2) projections:
<+-1|S_z|+-1> = +-Y, <0|S_z|0> = 0, and the in-plane projections
S_pi, S_{pi x B} average to zero.

Units: c = 1 with hbar explicit.  Level formulas carry their hbar
factors so they stay consistent with the operator construction for any
hbar; at hbar = 1 they reduce to the familiar display forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .matfun import (
    BETA_PSEUDO_HERMITIAN,
    HERMITIAN,
    BlockOperator,
    DEFAULT_TOLERANCES,
    ModelOperators,
    Tolerances,
    eriksen_transform_numeric,
)

__all__ = [
    "TruncationTooSmall",
    "MetricAnomaly",
    "LatticeDiracSpec",
    "Spin1LandauSpec",
    "cosine_potential",
    "random_smooth_potential",
    "lattice_momenta",
    "build_lattice_dirac",
    "build_spin1_landau",
    "spin1_analytic_spectrum",
    "degeneracy_group",
    "group_members",
    "LevelRow",
    "SpectrumReport",
    "spin1_numeric_spectrum",
    "spin1_residual_scaling",
]


class TruncationTooSmall(ValueError):
    """Requested levels reach within the guard band of the Landau cutoff."""


class MetricAnomaly(ArithmeticError):
    """A positive-energy eigenvector acquired a non-positive beta norm."""


# -- lattice Dirac ---------------------------------------------------------------


@dataclass(frozen=True)
class LatticeDiracSpec:
    """Periodic two-component chain: H = sigma3*m + V(x) + sigma1*p."""

    n_sites: int
    box_length: float
    mass: float
    hbar: float
    potential: tuple[float, ...]
    smoothness_cap: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "potential", tuple(float(v) for v in self.potential))
        if self.n_sites < 16:
            raise ValueError("need at least 16 lattice sites")
        if len(self.potential) != self.n_sites:
            raise ValueError("potential must have one sample per site")
        if self.box_length <= 0 or self.mass <= 0 or self.hbar <= 0:
            raise ValueError("box_length, mass and hbar must be positive")
        v = np.asarray(self.potential)
        second = np.abs(np.roll(v, -1) - 2 * v + np.roll(v, 1))
        cap = self.smoothness_cap * max(1.0, float(np.max(np.abs(v))))
        if float(np.max(second)) > cap:
            raise ValueError(
                f"potential is not smooth: max second difference {np.max(second):.3e} > {cap:.3e}"
            )


def cosine_potential(
    n_sites: int, amplitude: float, harmonics: Sequence[int] = (1,)
) -> tuple[float, ...]:
    """Smooth periodic potential sum_k amplitude/k * cos(2 pi k x / L)."""
    x = np.arange(n_sites) / n_sites
    v = np.zeros(n_sites)
    for k in harmonics:
        v += (amplitude / k) * np.cos(2.0 * math.pi * k * x)
    return tuple(float(val) for val in v)


def random_smooth_potential(
    n_sites: int, amplitude: float, seed: int, cutoff: int = 3
) -> tuple[float, ...]:
    """Low-pass filtered random potential, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    x = np.arange(n_sites) / n_sites
    v = np.zeros(n_sites)
    for k in range(1, cutoff + 1):
        a, b = rng.normal(size=2)
        v += (a * np.cos(2 * math.pi * k * x) + b * np.sin(2 * math.pi * k * x)) / k
    peak = float(np.max(np.abs(v))) or 1.0
    v *= amplitude / peak
    return tuple(float(val) for val in v)


def lattice_momenta(spec: LatticeDiracSpec) -> np.ndarray:
    """Eigenvalues of the periodic central-difference momentum, FFT order.

    The symbol hbar*sin(k dx)/dx is smooth and periodic across the
    Nyquist boundary, so commutators with a smooth potential stay small
    uniformly over the Brillouin zone (a raw spectral momentum jumps by
    2 p_max between mod-N-adjacent modes and breaks that bound).
    """
    n = spec.n_sites
    dx = spec.box_length / n
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    return spec.hbar * np.sin(k * dx) / dx


def build_lattice_dirac(
    spec: LatticeDiracSpec, tols: Tolerances = DEFAULT_TOLERANCES
) -> ModelOperators:
    n = spec.n_sites
    dx = spec.box_length / n
    shift = np.roll(np.eye(n), -1, axis=1)  # shift[j, j+1] = 1, periodic
    p = (-1j * spec.hbar / (2.0 * dx)) * (shift - shift.T)
    v = np.diag(np.asarray(spec.potential, dtype=complex))
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma3 = np.array([[1.0, 0.0], [0.0, -1.0]])
    eye2 = np.eye(2)
    eye_n = np.eye(n)
    beta = np.kron(sigma3, eye_n)
    m_op = spec.mass * np.eye(2 * n, dtype=complex)
    e_op = np.kron(eye2, v)
    o_op = np.kron(sigma1, p)
    h = spec.mass * beta + e_op + o_op
    block = BlockOperator(2 * n, h, beta, HERMITIAN, tols)
    # applicability diagnostic: de Broglie length at the largest
    # represented momentum over the potential's characteristic length
    k_abs = np.abs(2.0 * math.pi * np.fft.fftfreq(n, d=dx))
    v_hat = np.abs(np.fft.fft(np.asarray(spec.potential)))
    weights = v_hat.copy()
    weights[0] = 0.0
    k_char = float(np.sum(weights * k_abs) / np.sum(weights)) if np.any(weights) else 0.0
    p_max = float(np.max(np.abs(lattice_momenta(spec)))) or 1.0
    ratio = spec.hbar / p_max * k_char
    return ModelOperators(block, m_op, e_op, o_op, debroglie_ratio=ratio)


# -- spin-1 Landau ------------------------------------------------------------------


@dataclass(frozen=True)
class Spin1LandauSpec:
    """Spin-1 particle in a uniform field, zero momentum along the field."""

    mass: float
    charge: float
    g_factor: float
    field: float
    hbar: float
    n_max: int

    def __post_init__(self) -> None:
        if self.mass <= 0 or self.hbar <= 0:
            raise ValueError("mass and hbar must be positive")
        if self.field <= 0:
            raise ValueError("field must be positive (carry the sign on the charge)")
        if self.charge == 0:
            raise ValueError("charge must be nonzero")
        if self.n_max < 8:
            raise ValueError("n_max must be at least 8")

    @property
    def coupling(self) -> float:
        """|e| hbar B, the Landau level spacing scale of pi^2."""
        return abs(self.charge) * self.hbar * self.field


_SQRT2 = math.sqrt(2.0)
SPIN1_SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / _SQRT2
SPIN1_SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / _SQRT2
SPIN1_SZ = np.diag([1.0, 0.0, -1.0])

RHO1 = np.array([[0.0, 1.0], [1.0, 0.0]])
I_RHO2 = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i * rho2, real
RHO3 = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass
class _Spin1Operators:
    """Internal single-block (spin x Landau) operator kit."""

    pi_x: np.ndarray
    pi_y: np.ndarray
    pi_sq: np.ndarray  # exact Landau diagonal
    s_dot_pi: np.ndarray
    s_dot_b: np.ndarray  # S.B including the field value
    mass_op: np.ndarray
    field_op: np.ndarray  # inner part of E (upper block sign)
    odd_op: np.ndarray  # Omega


def _spin1_kit(spec: Spin1LandauSpec) -> _Spin1Operators:
    n_l = spec.n_max + 1
    e, g, b, hbar, m = spec.charge, spec.g_factor, spec.field, spec.hbar, spec.mass
    a = np.diag(np.sqrt(np.arange(1, n_l)), k=1)
    c = math.sqrt(spec.coupling / 2.0)
    sgn = 1.0 if e > 0 else -1.0
    pi_x = c * (a + a.T)
    pi_y = -1j * sgn * c * (a - a.T)
    pi_sq_diag = spec.coupling * (2.0 * np.arange(n_l) + 1.0)
    eye_l = np.eye(n_l)
    eye3 = np.eye(3)
    pi_sq = np.kron(eye3, np.diag(pi_sq_diag))
    s_dot_pi = np.kron(SPIN1_SX, pi_x) + np.kron(SPIN1_SY, pi_y)
    s_dot_b = b * np.kron(SPIN1_SZ, eye_l)
    mass_op = (
        m * np.kron(eye3, eye_l)
        + pi_sq / (2.0 * m)
        - (e * hbar / m) * s_dot_b
    )
    w = e * hbar * (g - 2.0) / (2.0 * m)
    field_op = -w * s_dot_b
    odd_op = pi_sq / (2.0 * m) - (s_dot_pi @ s_dot_pi) / m + w * s_dot_b
    return _Spin1Operators(pi_x, pi_y, pi_sq, s_dot_pi, s_dot_b, mass_op, field_op, odd_op)


def _retained_projector(n_l: int, margin: int) -> np.ndarray:
    keep = np.ones(n_l)
    keep[n_l - margin :] = 0.0
    return np.diag(keep)


def build_spin1_landau(
    spec: Spin1LandauSpec, tols: Tolerances = DEFAULT_TOLERANCES
) -> ModelOperators:
    kit = _spin1_kit(spec)
    n_l = spec.n_max + 1
    dim = 6 * n_l
    eye2 = np.eye(2)
    h = (
        np.kron(RHO3, kit.mass_op)
        + np.kron(RHO3, kit.field_op)
        + np.kron(I_RHO2, kit.odd_op)
    )
    beta = np.kron(RHO3, np.eye(3 * n_l))
    # the ladder convention is not trusted: verify the canonical
    # commutator on the block untouched by the cutoff corner
    proj = _retained_projector(n_l, 1)
    comm = kit.pi_x @ kit.pi_y - kit.pi_y @ kit.pi_x
    target = 1j * spec.charge * spec.hbar * spec.field * np.eye(n_l)
    err = np.max(np.abs(proj @ (comm - target) @ proj))
    if err > 1e-12 * spec.coupling:
        raise AssertionError(f"ladder convention broke [pi_x, pi_y]: error {err:.3e}")
    block = BlockOperator(dim, h, beta, BETA_PSEUDO_HERMITIAN, tols)
    m_op = np.kron(eye2, kit.mass_op)
    e_op = np.kron(RHO3, kit.field_op)
    o_op = np.kron(I_RHO2, kit.odd_op)
    # guard-band diagnostic: action scale eps^2/(|e| B) against hbar
    ratio = spec.hbar * abs(spec.charge) * spec.field / spec.mass**2
    return ModelOperators(block, m_op, e_op, o_op, debroglie_ratio=ratio)


# -- closed-form levels ---------------------------------------------------------------


def degeneracy_group(n: int, lam: int, charge: float) -> int:
    """Group label n|e| - lam*e in units of |e|; constant across a multiplet."""
    return n - lam * (1 if charge > 0 else -1)


def group_members(k: int, charge: float) -> list[tuple[int, int]]:
    sgn = 1 if charge > 0 else -1
    members = []
    for lam in (1, 0, -1):
        n = k + lam * sgn
        if n >= 0:
            members.append((n, lam))
    return members


def _h0_level(spec: Spin1LandauSpec, n: int, lam: int) -> float:
    e, b, hbar, m = spec.charge, spec.field, spec.hbar, spec.mass
    val = m * m + (2 * n + 1) * abs(e) * hbar * b - 2 * lam * e * hbar * b
    if val <= 0:
        raise ValueError("field too strong for a real level at this index")
    return math.sqrt(val)


def _eps_prime(spec: Spin1LandauSpec, n: int, lam: int, eps_convention: str) -> float:
    """Energy argument of the mixing and polarizability corrections."""
    if eps_convention == "level":
        return _h0_level(spec, n, lam)
    if eps_convention == "kinetic":
        e, b, hbar, m = spec.charge, spec.field, spec.hbar, spec.mass
        return math.sqrt(m * m + (2 * n + 1) * abs(e) * hbar * b)
    raise ValueError(f"unknown eps convention {eps_convention!r}")


def spin1_analytic_spectrum(
    spec: Spin1LandauSpec, n: int, lam: int, eps_convention: str = "level"
) -> float:
    """Closed-form level E(n, lam); lam in {+1, 0, -1}.

    ``eps_convention`` picks the energy argument of the mixing and
    polarizability corrections: "level" uses the state's own H0,
    "kinetic" uses sqrt(m^2 + (2n+1)|e| hbar B).
    """
    if lam not in (1, 0, -1):
        raise ValueError("lam must be +1, 0 or -1")
    if n < 0:
        raise ValueError("n must be non-negative")
    h0 = _h0_level(spec, n, lam)
    if lam == 0:
        return h0
    e, g, b, hbar, m = spec.charge, spec.g_factor, spec.field, spec.hbar, spec.mass
    eps_p = _eps_prime(spec, n, lam, eps_convention)
    w0 = -e * hbar * (g - 2.0) * b / (2.0 * m)
    bfrak = spin1_mixing_parameter(spec, n, lam, eps_convention)
    polar = e * e * hbar * hbar * g * (g - 2.0) * b * b / (8.0 * m * m * eps_p)
    return h0 + lam * w0 * math.sqrt(1.0 + bfrak * bfrak) - polar


def spin1_mixing_parameter(
    spec: Spin1LandauSpec, n: int, lam: int, eps_convention: str = "level"
) -> float:
    """Bfrak for the levels and the polarization formulas."""
    e, g, b, hbar, m = spec.charge, spec.g_factor, spec.field, spec.hbar, spec.mass
    eps_p = _eps_prime(spec, n, lam, eps_convention)
    return e * hbar * (g - 1.0) * (eps_p - m) * b / (4.0 * m * m * eps_p)


# -- numeric spectrum ------------------------------------------------------------------


@dataclass(frozen=True)
class LevelRow:
    n: int
    lam: int
    group: int
    energy: float
    analytic_energy: float
    analytic_energy_kinetic_eps: float
    residual: float  # relative, against the "level" convention


@dataclass
class SpectrumReport:
    spec: Spin1LandauSpec
    levels: list[LevelRow]
    degeneracy: list[dict]
    expectations: list[dict]
    zero_means_max: float
    beta_norm_min: float

    def max_relative_residual(self) -> float:
        return max(row.residual for row in self.levels)

    def to_json_obj(self) -> dict:
        return {
            "spec": {
                "mass": self.spec.mass,
                "charge": self.spec.charge,
                "g_factor": self.spec.g_factor,
                "field": self.spec.field,
                "hbar": self.spec.hbar,
                "n_max": self.spec.n_max,
            },
            "levels": [
                {
                    "n": r.n,
                    "lambda": r.lam,
                    "group": r.group,
                    "E_num": r.energy,
                    "E_analytic": r.analytic_energy,
                    "E_analytic_kinetic_eps": r.analytic_energy_kinetic_eps,
                    "residual": r.residual,
                }
                for r in self.levels
            ],
            "degeneracy_groups": self.degeneracy,
            "expectations": self.expectations,
            "zero_means_max": self.zero_means_max,
            "beta_norm_min": self.beta_norm_min,
        }

    def to_csv_text(self) -> str:
        lines = ["n,lambda,E_num,E_analytic,residual"]
        for r in self.levels:
            lines.append(
                f"{r.n},{r.lam},{r.energy!r},{r.analytic_energy!r},{r.residual!r}"
            )
        return "\n".join(lines) + "\n"


def _symmetrized_projection(op: np.ndarray, inv_root: np.ndarray) -> np.ndarray:
    return 0.5 * (op @ inv_root + inv_root @ op)


def _spin1_group_labels(spec: Spin1LandauSpec) -> np.ndarray:
    """Degeneracy group of every basis index (rho, S_z eigenvalue, Landau n)."""
    n_l = spec.n_max + 1
    n = np.tile(np.arange(n_l), 6)
    lam = np.tile(np.repeat(np.diag(SPIN1_SZ).astype(int), n_l), 2)
    return degeneracy_group(n, lam, spec.charge)


def spin1_numeric_spectrum(
    spec: Spin1LandauSpec,
    n_levels: int = 10,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> SpectrumReport:
    """Diagonalize the spin-1 model and match levels to the closed forms.

    H is block-diagonal by degeneracy group (at most 2 x 3 basis states
    each); ``BlockOperator.sectors`` checks that no entry couples two
    groups.  The beta-pseudo-Hermitian eigenproblem of each sector
    (equivalently the Hermitian pencil (beta H, beta)) is solved by
    first applying the exact sign-function block diagonalization, whose
    positive-energy block is honestly Hermitian, and then a Hermitian
    eigensolver on that block.  The levels of all sectors are ranked
    together against the closed forms.  Expectation values use the block
    eigenvectors, embedded in the full basis, with the standard inner
    product; a beta-metric alternative evaluated on the original
    representation eigenvectors is reported alongside.  A level is
    flagged "degenerate" when another level of its sector lies within
    1e-10 E: its expectations then depend on the eigenbasis chosen, so
    ``zero_means_max`` covers only the other levels (0.0 if none).
    """
    if spec.coupling / spec.mass**2 >= 1.0:
        raise ValueError("weak-coupling sanity |e| hbar B / m^2 < 1 violated")
    parts = build_spin1_landau(spec, tols)
    kit = _spin1_kit(spec)
    n_l = spec.n_max + 1
    d_half = 3 * n_l

    # analytic rows, sorted the way the numeric spectrum will come out
    rows: list[tuple[float, int, int, int]] = []  # (E, k, n, lam)
    k = -1
    while len(rows) < 3 * (n_levels + 6):
        for n, lam in group_members(k, spec.charge):
            rows.append((spin1_analytic_spectrum(spec, n, lam), k, n, lam))
        k += 1
    rows.sort(key=lambda t: (t[0], t[1], -t[3]))
    rows = rows[:n_levels]
    max_n = max(n for _, _, n, _ in rows)
    if max_n > spec.n_max - 3:
        raise TruncationTooSmall(
            f"level n = {max_n} is within 3 of the cutoff n_max = {spec.n_max}"
        )

    # (indices, beta = +1 count, beta U beta, levels, upper-block eigenvectors)
    sectors: list[tuple[np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]] = []
    for idx, sector in parts.block.sectors(_spin1_group_labels(spec)):
        fw = eriksen_transform_numeric(sector, tols)
        n_plus = int(np.count_nonzero(sector.beta.diagonal().real > 0))
        upper = fw.h_fw[:n_plus, :n_plus]
        herm_err = np.linalg.norm(upper - upper.conj().T) / max(np.linalg.norm(upper), 1e-300)
        if herm_err > 1e-10:
            raise ArithmeticError(f"positive-energy block not Hermitian: {herm_err:.3e}")
        evals, evecs = np.linalg.eigh(0.5 * (upper + upper.conj().T))
        if evals[0] <= 0:
            raise ArithmeticError("positive-energy block produced a non-positive level")
        sectors.append((idx, n_plus, sector.beta @ fw.u @ sector.beta, evals, evecs))
    ranked = sorted((e, s, j) for s, sector in enumerate(sectors) for j, e in enumerate(sector[3]))

    beta = parts.block.beta
    beta_norm_min = math.inf
    level_rows: list[LevelRow] = []
    inv_root = np.kron(np.eye(3), np.diag(1.0 / np.sqrt(np.diag(kit.pi_sq)[:n_l])))
    s_z = np.kron(SPIN1_SZ, np.eye(n_l))
    beta_sz = beta @ np.kron(np.eye(2), s_z)
    s_pi = _symmetrized_projection(kit.s_dot_pi, inv_root)
    txb = np.kron(SPIN1_SX, kit.pi_y) - np.kron(SPIN1_SY, kit.pi_x)
    s_pxb = _symmetrized_projection(txb, inv_root)
    expectations: list[dict] = []
    zero_means_max = 0.0

    for rank, ((e_analytic, grp, n, lam), (e_num, s, j)) in enumerate(zip(rows, ranked)):
        idx, n_plus, u_inv, evals, evecs = sectors[s]
        e_num = float(e_num)
        vec = np.zeros(d_half, dtype=complex)
        vec[idx[:n_plus]] = evecs[:, j]
        original = np.zeros(2 * d_half, dtype=complex)
        original[idx] = u_inv[:, :n_plus] @ evecs[:, j]
        degenerate = int(np.count_nonzero(np.abs(evals - e_num) <= 1e-10 * e_num)) > 1
        bnorm = float((original.conj() @ (beta @ original)).real)
        beta_norm_min = min(beta_norm_min, bnorm)
        if bnorm <= 0:
            raise MetricAnomaly(f"level {rank}: beta norm {bnorm:.3e} <= 0")
        residual = abs(e_num - e_analytic) / abs(e_analytic)
        e_kin = spin1_analytic_spectrum(spec, n, lam, eps_convention="kinetic")
        level_rows.append(LevelRow(n, lam, grp, e_num, e_analytic, e_kin, residual))

        bfrak = spin1_mixing_parameter(spec, n, lam)
        y = 1.0 / math.sqrt(1.0 + bfrak * bfrak)
        # the spin projections are Hermitian, so <v|A A|v> = <Av|Av>
        sz_vec = s_z @ vec
        spi_vec = s_pi @ vec
        spxb_vec = s_pxb @ vec
        sz_num = float((vec.conj() @ sz_vec).real)
        sz2_num = float(np.vdot(sz_vec, sz_vec).real)
        spi_num = float((vec.conj() @ spi_vec).real)
        spxb_num = float((vec.conj() @ spxb_vec).real)
        spi2_num = float(np.vdot(spi_vec, spi_vec).real)
        spxb2_num = float(np.vdot(spxb_vec, spxb_vec).real)
        sz_beta = float((original.conj() @ (beta_sz @ original)).real / bnorm)
        if not degenerate:
            zero_means_max = max(zero_means_max, abs(spi_num), abs(spxb_num))
        expectations.append(
            {
                "n": n,
                "lambda": lam,
                "S_z": sz_num,
                "S_z_formula": lam * y,
                "S_z_beta_metric": sz_beta,
                "S_z^2": sz2_num,
                "S_z^2_formula": float(abs(lam)),
                "S_pi": spi_num,
                "S_pixB": spxb_num,
                "S_pi^2": spi2_num,
                "S_pi^2_formula": (1 - lam * bfrak * y) / 2 if lam else 1.0,
                "S_pixB^2": spxb2_num,
                "S_pixB^2_formula": (1 + lam * bfrak * y) / 2 if lam else 1.0,
                "degenerate": degenerate,
            }
        )

    groups: dict[int, list[float]] = {}
    for row in level_rows:
        groups.setdefault(row.group, []).append(row.energy)
    degeneracy = []
    for grp in sorted(groups):
        energies = sorted(groups[grp])
        members = group_members(grp, spec.charge)
        degeneracy.append(
            {
                "group": grp,
                "members": members,
                "count_found": len(energies),
                "spread": energies[-1] - energies[0] if len(energies) > 1 else 0.0,
                "h0": _h0_level(spec, *members[0]),
            }
        )
    return SpectrumReport(
        spec, level_rows, degeneracy, expectations, zero_means_max, beta_norm_min
    )


def spin1_residual_scaling(
    spec: Spin1LandauSpec,
    n_halvings: int = 3,
    n_levels: int = 10,
    tols: Tolerances = DEFAULT_TOLERANCES,
    base: SpectrumReport | None = None,
) -> dict:
    """Halve the field repeatedly and fit the residual exponent in B.

    The closed-form levels omit terms of third combined order in the
    field-coupling scale, so the fitted exponent should be about 3.
    ``base``, the spectrum already computed for ``spec`` with
    ``n_levels`` levels, stands in for the first field value.
    """
    if base is not None and (base.spec != spec or len(base.levels) != n_levels):
        raise ValueError("base spectrum was computed for another spec or level count")
    b_values = [spec.field / (2**j) for j in range(n_halvings + 1)]
    residuals = [] if base is None else [base.max_relative_residual()]
    for b in b_values[len(residuals) :]:
        report = spin1_numeric_spectrum(replace(spec, field=b), n_levels, tols)
        residuals.append(report.max_relative_residual())
    x = np.log(np.asarray(b_values))
    y = np.log(np.asarray(residuals))
    coeffs = np.polyfit(x, y, 1)
    fit = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2)) or 1e-300
    return {
        "field_values": b_values,
        "max_residuals": residuals,
        "exponent": float(coeffs[0]),
        "r_squared": 1.0 - ss_res / ss_tot,
    }
