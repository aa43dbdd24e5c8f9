"""Concrete model Hamiltonians: 1D lattice Dirac and spin-1 Landau.

The lattice Dirac particle (two-component spinor on a periodic chain
with a smooth scalar potential and central-difference momentum) is the
test bed for the convergence experiments: the commutator of the odd
kinetic term with the potential scales linearly in hbar by construction.
It is built in the real representation alpha = sigma2, beta = sigma3.
The momentum p = -i k, with k the real antisymmetric central
difference, is purely imaginary, so sigma2 (x) p = (-i sigma2) (x) k is
real and H is real symmetric.  With W = diag(1, i) on the two spinor
components, W H_sigma1 W^dagger = H entry for entry (multiplying by
+-i is exact), so spectra and beta-block norms equal those of the
sigma1 form.

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

With O = i rho2 Omega and E = rho3 E', the operators M, E' and Omega
act on the 3(n_max+1) spin x Landau basis and conserve the
degeneracy-group label k = n - lam*sign(e): each group holds at most
three (n, lam) states times the two rho components.  The model is built
sector by sector (at most 6 x 6 each): ``build_spin1_landau`` checks
that no entry of M, E' or Omega couples two groups and assembles each
group's H, rho3 (x) (M + E') + i rho2 (x) Omega, from their blocks; the
full 6(n_max+1) H is never formed.  S.pi and S x pi conserve the label
too, so each level's beta norm and spin expectations are evaluated
inside its sector.

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
    ClassMismatch,
    DEFAULT_TOLERANCES,
    ModelOperators,
    Tolerances,
    eriksen_transform_numeric,
    loglog_fit,
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
    """Periodic two-component chain: H = sigma3*m + V(x) + sigma2*p, real symmetric.

    Unitarily equivalent to the sigma1 form H_sigma1 = sigma3*m + V(x) +
    sigma1*p through W = diag(1, i): W H_sigma1 W^dagger = H.
    """

    n_sites: int
    box_length: float
    mass: float
    hbar: float
    potential: tuple[float, ...]

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
        cap = 0.5 * max(1.0, float(np.max(np.abs(v))))
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
    n_sites: int, amplitude: float, seed: int
) -> tuple[float, ...]:
    """Low-pass filtered random potential on harmonics 1 to 3, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    x = np.arange(n_sites) / n_sites
    v = np.zeros(n_sites)
    for k in (1, 2, 3):
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
    k = (spec.hbar / (2.0 * dx)) * (shift - shift.T)  # p = -i k
    v = np.diag(spec.potential)
    sigma3 = np.array([[1.0, 0.0], [0.0, -1.0]])
    beta = np.kron(sigma3, np.eye(n))
    m_op = spec.mass * np.eye(2 * n)
    e_op = np.kron(np.eye(2), v)
    o_op = np.kron([[0.0, -1.0], [1.0, 0.0]], k)  # sigma2 (x) p = (-i sigma2) (x) k, real
    h = spec.mass * beta + e_op + o_op
    block = BlockOperator(h, beta, HERMITIAN, tols)
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
    """Internal single-block (spin x Landau) operator kit, basis in (S_z, n) order."""

    pi_x: np.ndarray
    pi_y: np.ndarray
    pi_sq: np.ndarray  # exact Landau diagonal
    s_dot_pi: np.ndarray
    s_cross_pi: np.ndarray  # S x pi along B: S_x pi_y - S_y pi_x
    s_dot_b: np.ndarray  # S.B including the field value
    mass_op: np.ndarray
    field_op: np.ndarray  # inner part of E (upper block sign)
    odd_op: np.ndarray  # Omega
    s_z: np.ndarray  # S_z eigenvalue of each basis index
    group: np.ndarray  # degeneracy-group label of each basis index


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
    s_cross_pi = np.kron(SPIN1_SX, pi_y) - np.kron(SPIN1_SY, pi_x)
    s_dot_b = b * np.kron(SPIN1_SZ, eye_l)
    mass_op = (
        m * np.kron(eye3, eye_l)
        + pi_sq / (2.0 * m)
        - (e * hbar / m) * s_dot_b
    )
    w = e * hbar * (g - 2.0) / (2.0 * m)
    field_op = -w * s_dot_b
    odd_op = pi_sq / (2.0 * m) - (s_dot_pi @ s_dot_pi) / m + w * s_dot_b
    s_z = np.repeat(np.diag(SPIN1_SZ).astype(int), n_l)
    group = degeneracy_group(np.tile(np.arange(n_l), 3), s_z, e)
    return _Spin1Operators(
        pi_x, pi_y, pi_sq, s_dot_pi, s_cross_pi, s_dot_b, mass_op, field_op, odd_op, s_z, group
    )


def build_spin1_landau(
    spec: Spin1LandauSpec, tols: Tolerances = DEFAULT_TOLERANCES
) -> tuple[_Spin1Operators, list[tuple[np.ndarray, BlockOperator]]]:
    """The operator kit and one validated sector per degeneracy group.

    Returns (kit indices, sector) for each group, in ascending label
    order.  The sector is rho3 (x) (M + E') + i rho2 (x) Omega on
    the group's kit indices, with beta = rho3 (x) 1, so its beta = +1
    block comes first; it is validated as a beta-pseudo-Hermitian
    ``BlockOperator`` with ``tols``.  M, E' and Omega may not have a
    nonzero entry between two groups (exact zero test, ``ClassMismatch``
    naming the largest otherwise).
    """
    kit = _spin1_kit(spec)
    n_l = spec.n_max + 1
    # the ladder convention is not trusted: verify the canonical
    # commutator on the block untouched by the cutoff corner
    comm = kit.pi_x @ kit.pi_y - kit.pi_y @ kit.pi_x
    target = 1j * spec.charge * spec.hbar * spec.field * np.eye(n_l)
    err = np.max(np.abs((comm - target)[:-1, :-1]))
    if err > 1e-12 * spec.coupling:
        raise AssertionError(f"ladder convention broke [pi_x, pi_y]: error {err:.3e}")
    labels = kit.group
    between = labels[:, None] != labels[None, :]
    for name, op in (("M", kit.mass_op), ("E'", kit.field_op), ("Omega", kit.odd_op)):
        leak = np.where(between, np.abs(op), 0.0)
        if leak.any():
            i, j = np.unravel_index(np.argmax(leak), leak.shape)
            raise ClassMismatch(
                f"{name}[{i}, {j}] = {op[i, j]:.3e} couples group {labels[i]} to group {labels[j]}"
            )
    sectors = []
    for label in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == label)
        sub = np.ix_(idx, idx)
        h = np.kron(RHO3, kit.mass_op[sub] + kit.field_op[sub]) + np.kron(I_RHO2, kit.odd_op[sub])
        beta = np.kron(RHO3, np.eye(len(idx)))
        sectors.append((idx, BlockOperator(h, beta, BETA_PSEUDO_HERMITIAN, tols)))
    return kit, sectors


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


def spin1_numeric_spectrum(
    spec: Spin1LandauSpec,
    n_levels: int = 10,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> SpectrumReport:
    """Diagonalize the spin-1 model and match levels to the closed forms.

    ``n_levels`` must be at least 1.  One ``build_spin1_landau`` call
    gives the operator kit and the sector of each degeneracy group (at
    most 2 x 3 basis states); the full-basis H is never formed.  The
    beta-pseudo-Hermitian eigenproblem of each sector
    (equivalently the Hermitian pencil (beta H, beta)) is solved by
    first applying the exact sign-function block diagonalization, whose
    positive-energy block is Hermitian, and then a Hermitian eigensolver
    on that block.  The levels of all sectors are ranked together against
    the closed forms.  A level's numbers all come from its sector: its
    expectations from the upper-block eigenvector and the sector blocks of
    the spin projections, its beta norm and beta-metric S_z from beta U beta
    applied to that eigenvector.  A level is flagged "degenerate" when
    another level of its sector lies within 1e-10 E: its expectations then
    depend on the eigenbasis chosen, so ``zero_means_max`` covers only the
    other levels (0.0 if none).
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be at least 1: got {n_levels}")
    if spec.coupling / spec.mass**2 >= 1.0:
        raise ValueError("weak-coupling sanity |e| hbar B / m^2 < 1 violated")
    kit, groups = build_spin1_landau(spec, tols)

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

    # (kit indices, sector, (beta U beta)[:, :p], levels, upper-block eigenvectors)
    sectors: list[tuple[np.ndarray, BlockOperator, np.ndarray, np.ndarray, np.ndarray]] = []
    for idx, sector in groups:
        fw = eriksen_transform_numeric(sector)
        p = sector.p
        upper = fw.h_fw[:p, :p]
        evals, evecs = np.linalg.eigh(0.5 * (upper + upper.conj().T))
        if evals[0] <= 0:
            raise ArithmeticError("positive-energy block produced a non-positive level")
        # beta U beta on the beta = +1 columns: U's columns with rows p: negated
        u_inv_up = fw.u[:, :p].copy()
        u_inv_up[p:] *= -1.0
        sectors.append((idx, sector, u_inv_up, evals, evecs))
    ranked = sorted((e, s, j) for s, sector in enumerate(sectors) for j, e in enumerate(sector[3]))

    inv_pi = 1.0 / np.sqrt(kit.pi_sq.diagonal())  # 1/|pi|, diagonal
    beta_norm_min = math.inf
    level_rows: list[LevelRow] = []
    expectations: list[dict] = []
    zero_means_max = 0.0

    for rank, ((e_analytic, grp, n, lam), (e_num, s, j)) in enumerate(zip(rows, ranked)):
        idx, sector, u_inv_up, evals, evecs = sectors[s]
        e_num = float(e_num)
        vec = evecs[:, j]
        original = u_inv_up @ vec
        # beta and beta S_z are diagonal: applied as elementwise products
        beta = sector.beta.diagonal().real
        degenerate = int(np.count_nonzero(np.abs(evals - e_num) <= 1e-10 * e_num)) > 1
        bnorm = float((original.conj() @ (beta * original)).real)
        beta_norm_min = min(beta_norm_min, bnorm)
        if bnorm <= 0:
            raise MetricAnomaly(f"level {rank}: beta norm {bnorm:.3e} <= 0")
        residual = abs(e_num - e_analytic) / abs(e_analytic)
        e_kin = spin1_analytic_spectrum(spec, n, lam, eps_convention="kinetic")
        level_rows.append(LevelRow(n, lam, grp, e_num, e_analytic, e_kin, residual))

        bfrak = spin1_mixing_parameter(spec, n, lam)
        y = 1.0 / math.sqrt(1.0 + bfrak * bfrak)
        # on the group's kit indices: S_z, and S.pi and S x pi symmetrized with 1/|pi|
        s_z, d, block = kit.s_z[idx], inv_pi[idx], np.ix_(idx, idx)
        s_pi, s_pxb = (
            0.5 * (op[block] * d + d[:, None] * op[block]) for op in (kit.s_dot_pi, kit.s_cross_pi)
        )
        # the spin projections A are Hermitian, so <v|A A|v> = <Av|Av>
        (sz_num, sz2_num), (spi_num, spi2_num), (spxb_num, spxb2_num) = (
            (float((vec.conj() @ av).real), float(np.vdot(av, av).real))
            for av in (s_z * vec, s_pi @ vec, s_pxb @ vec)
        )
        sz_beta = float((original.conj() @ (beta * np.tile(s_z, 2) * original)).real / bnorm)
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
    field-coupling scale, so the fitted exponent should be about 3.  At
    least 2 halvings are required: a line through 2 points fits them
    exactly, with R^2 = 1 whatever the residuals.  ``base``, the
    spectrum already computed for ``spec`` with ``n_levels`` levels,
    stands in for the first field value.
    """
    if n_halvings < 2:
        raise ValueError(f"need at least 2 field halvings for a fit: got {n_halvings}")
    if base is not None and (base.spec != spec or len(base.levels) != n_levels):
        raise ValueError("base spectrum was computed for another spec or level count")
    b_values = [spec.field / (2**j) for j in range(n_halvings + 1)]
    residuals = [] if base is None else [base.max_relative_residual()]
    for b in b_values[len(residuals) :]:
        report = spin1_numeric_spectrum(replace(spec, field=b), n_levels, tols)
        residuals.append(report.max_relative_residual())
    exponent, r_squared = loglog_fit(b_values, residuals)
    return {
        "field_values": b_values,
        "max_residuals": residuals,
        "exponent": exponent,
        "r_squared": r_squared,
    }
