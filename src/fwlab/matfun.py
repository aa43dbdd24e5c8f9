"""Dense matrix functional calculus for block-parity Hamiltonians.

Implements the exact sign-function block diagonalization

    lambda = H (H^2)^(-1/2),
    U = (1 + beta*lambda) * (2 + beta*lambda + lambda*beta)^(-1/2),
    H_fw = U H (beta U beta),

the closed-form relativistic even Hamiltonian

    beta*eps + E + (1/4) { (2 eps^2 + {eps, M})^(-1),
                           beta [O,[O,M]] - [O,[O,E]] },
    eps = sqrt(M^2 + O^2),

and the convergence experiment comparing the two as the commutator scale
(Planck constant of the model family) is swept.

Each transform takes one Hermitian eigendecomposition.  A Hermitian H
is diagonalized by eigh directly.  A beta-pseudo-Hermitian H must have
beta*H positive definite (the regime where every positive-energy state
has positive beta norm); then beta*H = L L^dagger by Cholesky, and H is
similar to the Hermitian L^dagger beta L, whose eigh gives the real
spectrum and the sign function without forming an inverse.  The same
eigenvalues give the spectrum before the transform and the spectral gap
min eig(H^2).  D = 2 + beta*lambda + lambda*beta and the even part of
H_fw are Hermitian for both classes: D^(-1/2) comes from eigh, and the
spectrum after the transform from eigvalsh.

``BlockOperator.sectors`` splits an operator that is exactly
block-diagonal in a labelling of its basis into validated sub-operators,
so a model with a conserved label is transformed one sector at a time.

The public matrix roots use eigh for Hermitian inputs, an
eigendecomposition for other normal ones and a scaled Denman-Beavers
iteration for non-normal ones.  Norms are spectral norms estimated by
power iteration so convergence slopes are scale free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SpectrumNotPositive",
    "IllConditioned",
    "SpectralGapTooSmall",
    "ClassMismatch",
    "SingularKernel",
    "HERMITIAN",
    "BETA_PSEUDO_HERMITIAN",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "spectral_norm",
    "matrix_sqrt",
    "matrix_inv_sqrt",
    "BlockOperator",
    "ModelOperators",
    "FwNumericResult",
    "eriksen_transform_numeric",
    "relfw_hamiltonian_numeric",
    "SlopeReport",
    "hbar_convergence_study",
]


class SpectrumNotPositive(ArithmeticError):
    """Matrix function needs spectrum in the open right half-plane."""


class IllConditioned(ArithmeticError):
    """Conditioning above the configured cap, or residual above tolerance."""


class SpectralGapTooSmall(ArithmeticError):
    """H^2 has spectrum too close to zero for a stable sign function."""


class ClassMismatch(ArithmeticError):
    """Computed transform violates its Hermiticity-class identity."""


class SingularKernel(ArithmeticError):
    """The kernel 2 eps^2 + {eps, M} is singular within tolerance."""


HERMITIAN = "hermitian"
BETA_PSEUDO_HERMITIAN = "beta_pseudo_hermitian"


@dataclass(frozen=True)
class Tolerances:
    """Default numeric gates; every field is overridable via config."""

    beta_involution: float = 1e-14
    herm_class: float = 1e-12
    sqrt_residual: float = 1e-10
    condition_cap: float = 1e12
    spectral_gap: float = 1e-10
    eriksen_condition: float = 1e-10
    odd_residual: float = 1e-10
    spectrum_drift: float = 1e-9
    kernel_singularity: float = 1e-13
    power_iterations: int = 20
    power_tol: float = 1e-6

    def updated(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = Tolerances()


def spectral_norm(a: np.ndarray, tols: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Largest singular value by power iteration on a^H a.

    Deterministic start vector; the iteration count and tolerance are
    fixed so repeated runs produce identical reports.
    """
    a = np.asarray(a)
    n = a.shape[1]
    if n == 0:
        return 0.0
    v = np.linspace(1.0, 2.0, n)
    v /= np.linalg.norm(v)
    a_h = a.conj().T
    sigma = 0.0
    for _ in range(tols.power_iterations):
        w = a @ v
        v_new = a_h @ w
        norm = np.linalg.norm(v_new)
        if norm == 0.0:
            return 0.0
        sigma_new = math.sqrt(norm)
        v = v_new / norm
        if sigma and abs(sigma_new - sigma) <= tols.power_tol * sigma_new:
            return sigma_new
        sigma = sigma_new
    return sigma


def _is_hermitian(a: np.ndarray, rel: float = 1e-12) -> bool:
    scale = np.linalg.norm(a) or 1.0
    return np.linalg.norm(a - a.conj().T) <= rel * scale


def _is_normal(a: np.ndarray, rel: float = 1e-12) -> bool:
    scale = np.linalg.norm(a) ** 2 or 1.0
    return np.linalg.norm(a @ a.conj().T - a.conj().T @ a) <= rel * scale


def _check_spectrum(a: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvals(a)
    if np.min(w.real) <= 0.0:
        raise SpectrumNotPositive(
            f"eigenvalue with Re = {np.min(w.real):.3e} not in the open right half-plane"
        )
    return w


def _denman_beavers(a: np.ndarray, max_iter: int = 100, tol: float = 1e-14):
    """Scaled Denman-Beavers iteration; returns (sqrt(a), a^(-1/2))."""
    n = a.shape[0]
    x = a.astype(complex)
    y = np.eye(n, dtype=complex)
    for _ in range(max_iter):
        sign_x, logdet_x = np.linalg.slogdet(x)
        sign_y, logdet_y = np.linalg.slogdet(y)
        if sign_x == 0 or sign_y == 0:
            raise IllConditioned("singular iterate in the square-root iteration")
        gamma = math.exp(-(logdet_x + logdet_y) / (2.0 * n))
        xi = np.linalg.inv(x)
        yi = np.linalg.inv(y)
        x_new = 0.5 * (gamma * x + yi / gamma)
        y_new = 0.5 * (gamma * y + xi / gamma)
        delta = np.linalg.norm(x_new - x) / max(np.linalg.norm(x_new), 1e-300)
        x, y = x_new, y_new
        if delta <= tol:
            break
    return x, y


def _funm_eig(a: np.ndarray, f, tols: Tolerances) -> np.ndarray:
    w, v = np.linalg.eig(a)
    cond = np.linalg.cond(v)
    if cond > tols.condition_cap:
        raise IllConditioned(f"eigenvector condition number {cond:.3e} above cap")
    return v @ np.diag(f(w)) @ np.linalg.inv(v)


def matrix_sqrt(a: np.ndarray, tols: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Principal square root; spectrum must avoid the closed left half-plane."""
    a = np.asarray(a, dtype=complex)
    if _is_hermitian(a):
        w, v = np.linalg.eigh(a)
        if w[0] <= 0.0:
            raise SpectrumNotPositive(f"smallest eigenvalue {w[0]:.3e} <= 0")
        r = (v * np.sqrt(w)) @ v.conj().T
    else:
        _check_spectrum(a)
        if _is_normal(a):
            r = _funm_eig(a, np.sqrt, tols)
        else:
            r, _ = _denman_beavers(a)
    scale = np.linalg.norm(a) or 1.0
    if np.linalg.norm(r @ r - a) > tols.sqrt_residual * scale:
        raise IllConditioned("square-root residual above tolerance")
    return r


def matrix_inv_sqrt(a: np.ndarray, tols: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Principal inverse square root via the same routes as matrix_sqrt."""
    a = np.asarray(a, dtype=complex)
    if _is_hermitian(a):
        w, v = np.linalg.eigh(a)
        if w[0] <= 0.0:
            raise SpectrumNotPositive(f"smallest eigenvalue {w[0]:.3e} <= 0")
        r = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    else:
        _check_spectrum(a)
        if _is_normal(a):
            r = _funm_eig(a, lambda w: 1.0 / np.sqrt(w), tols)
        else:
            _, r = _denman_beavers(a)
    scale = np.linalg.norm(a) or 1.0
    if np.linalg.norm(r @ r @ a - np.eye(a.shape[0])) > tols.sqrt_residual * max(scale, 1.0):
        raise IllConditioned("inverse-square-root residual above tolerance")
    return r


# -- block operators -------------------------------------------------------------


@dataclass
class BlockOperator:
    """Dense operator paired with its block-parity involution.

    ``herm_class`` is "hermitian" (H = H^dagger) or
    "beta_pseudo_hermitian" (H^dagger = beta H beta, so beta*H is an
    ordinary Hermitian matrix); both are validated at construction.
    """

    dim: int
    matrix: np.ndarray
    beta: np.ndarray
    herm_class: str
    tols: Tolerances = field(default_factory=lambda: DEFAULT_TOLERANCES)

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.beta = np.asarray(self.beta, dtype=complex)
        if self.matrix.shape != (self.dim, self.dim) or self.beta.shape != (self.dim, self.dim):
            raise ValueError("matrix and beta must be dim x dim")
        eye = np.eye(self.dim)
        if np.max(np.abs(self.beta @ self.beta - eye)) > max(self.tols.beta_involution, 1e-13):
            raise ValueError("beta is not an involution")
        if np.max(np.abs(self.beta - self.beta.conj().T)) > 1e-13:
            raise ValueError("beta is not Hermitian")
        h = self.matrix
        scale = spectral_norm(h, self.tols) or 1.0
        if self.herm_class == HERMITIAN:
            residual = spectral_norm(h - h.conj().T, self.tols)
        elif self.herm_class == BETA_PSEUDO_HERMITIAN:
            bh = self.beta @ h
            residual = spectral_norm(bh - bh.conj().T, self.tols)
        else:
            raise ValueError(f"unknown herm_class {self.herm_class!r}")
        if residual > self.tols.herm_class * scale:
            raise ValueError(
                f"{self.herm_class} residual {residual:.3e} above {self.tols.herm_class:.1e} * |H|"
            )

    def sectors(self, labels: Sequence) -> list[tuple[np.ndarray, "BlockOperator"]]:
        """Split into the diagonal blocks of a labelling of the basis.

        ``labels`` holds one label per basis index.  Neither ``matrix``
        nor ``beta`` may have a nonzero entry between two different
        labels; otherwise ``ClassMismatch`` names the largest such entry.
        Returns one (indices, sector) pair per label, in sorted label
        order.  The indices list the entries with beta = +1 on the
        diagonal first, so a sector's leading block is its beta = +1
        block.  Each sector is validated as a ``BlockOperator`` of the
        same class and tolerances.
        """
        labels = np.asarray(labels)
        if labels.shape != (self.dim,):
            raise ValueError(
                f"need {self.dim} labels, one per basis index: got shape {labels.shape}"
            )
        between = labels[:, None] != labels[None, :]
        for name, op in (("matrix", self.matrix), ("beta", self.beta)):
            leak = np.where(between, np.abs(op), 0.0)
            if leak.any():
                i, j = np.unravel_index(np.argmax(leak), leak.shape)
                raise ClassMismatch(
                    f"{name}[{i}, {j}] = {op[i, j]:.3e} couples label {labels[i].item()!r}"
                    f" to label {labels[j].item()!r}"
                )
        plus_first = -self.beta.diagonal().real  # sort key
        out = []
        for label in sorted(set(labels.tolist())):
            idx = np.flatnonzero(labels == label)
            idx = idx[np.argsort(plus_first[idx], kind="stable")]
            sub = np.ix_(idx, idx)
            sector = BlockOperator(
                len(idx), self.matrix[sub], self.beta[sub], self.herm_class, self.tols
            )
            out.append((idx, sector))
        return out

    def even_part(self) -> np.ndarray:
        return 0.5 * (self.matrix + self.beta @ self.matrix @ self.beta)

    def odd_part(self) -> np.ndarray:
        return 0.5 * (self.matrix - self.beta @ self.matrix @ self.beta)


@dataclass
class ModelOperators:
    """A model Hamiltonian together with its mass/field/odd split.

    block.matrix == beta @ m_op + e_op + o_op; the split is what the
    closed-form relativistic Hamiltonian consumes.
    """

    block: BlockOperator
    m_op: np.ndarray
    e_op: np.ndarray
    o_op: np.ndarray
    debroglie_ratio: float | None = None


@dataclass
class FwNumericResult:
    u: np.ndarray
    h_fw: np.ndarray
    odd_residual_norm: float
    spectrum_drift: float
    spectral_gap: float


def _sign_spectrum(block: BlockOperator) -> tuple[np.ndarray, np.ndarray]:
    """sign(H) and the ascending real spectrum of H from one Hermitian eigenproblem.

    Hermitian H = V w V^dagger gives sign(H) = V sign(w) V^dagger.  For
    beta-pseudo-Hermitian H the Hermitian beta*H must be positive
    definite, beta*H = L L^dagger; then H = X w Y with
    L^dagger beta L = W w W^dagger, X = L^(-dagger) W and
    Y = (L W)^dagger = X^(-1), so sign(H) = X sign(w) Y.
    """
    h = block.matrix
    if block.herm_class == HERMITIAN:
        w, v = np.linalg.eigh(h)
        return (v * np.sign(w)) @ v.conj().T, w
    try:
        chol = np.linalg.cholesky(block.beta @ h)
    except np.linalg.LinAlgError as exc:
        raise SpectrumNotPositive("beta*H is not positive definite") from exc
    w, wv = np.linalg.eigh(chol.conj().T @ block.beta @ chol)
    x = np.linalg.solve(chol.conj().T, wv)
    y = (chol @ wv).conj().T
    return (x * np.sign(w)) @ y, w


def eriksen_transform_numeric(
    block: BlockOperator, tols: Tolerances = DEFAULT_TOLERANCES
) -> FwNumericResult:
    """Exact one-step block diagonalization via the sign function.

    Positive and negative energy states end up supported on the +1 and
    -1 blocks of beta; spectra are preserved up to solver tolerance, and
    the inverse transform is beta U beta for both Hermiticity classes.
    """
    h = block.matrix
    beta = block.beta
    n = block.dim
    h_scale = spectral_norm(h, tols) or 1.0
    lam, before = _sign_spectrum(block)
    gap = float(np.min(before**2))
    if gap <= tols.spectral_gap * h_scale**2:
        raise SpectralGapTooSmall(f"min eig(H^2) = {gap:.3e}")
    eye = np.eye(n)
    d = 2.0 * eye + beta @ lam + lam @ beta
    u = (eye + beta @ lam) @ matrix_inv_sqrt(d, tols)
    u_inv = beta @ u @ beta
    if block.herm_class == HERMITIAN:
        residual = spectral_norm(beta @ u - u.conj().T @ beta, tols)
        if residual > tols.eriksen_condition * max(1.0, h_scale):
            raise ClassMismatch(f"Eriksen condition residual {residual:.3e}")
    else:
        residual = spectral_norm(u @ beta @ u.conj().T @ beta - eye, tols)
        if residual > tols.eriksen_condition * max(1.0, h_scale):
            raise ClassMismatch(f"pseudo-unitarity residual {residual:.3e}")
    h_fw = u @ h @ u_inv
    h_fw_conj = beta @ h_fw @ beta
    odd_norm = spectral_norm(0.5 * (h_fw - h_fw_conj), tols)
    # the even part is Hermitian for both classes
    even = 0.5 * (h_fw + h_fw_conj)
    herm_residual = np.linalg.norm(even - even.conj().T)
    if herm_residual > tols.herm_class * h_scale:
        raise ClassMismatch(f"even part of H_fw: Hermiticity residual {herm_residual:.3e}")
    after = np.linalg.eigvalsh(even)
    drift = float(np.max(np.abs(before - after))) / h_scale
    return FwNumericResult(u, h_fw, float(odd_norm), drift, gap)


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def relfw_hamiltonian_numeric(
    m_op: np.ndarray,
    e_op: np.ndarray,
    o_op: np.ndarray,
    beta: np.ndarray,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Closed-form even Hamiltonian, stationary case (field operator = E)."""
    m_op = np.asarray(m_op, dtype=complex)
    e_op = np.asarray(e_op, dtype=complex)
    o_op = np.asarray(o_op, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    eps = matrix_sqrt(m_op @ m_op + o_op @ o_op, tols)
    w = 2.0 * eps @ eps + eps @ m_op + m_op @ eps
    sv = np.linalg.svd(w, compute_uv=False)
    if sv[-1] <= tols.kernel_singularity * max(sv[0], 1.0):
        raise SingularKernel(f"smallest singular value {sv[-1]:.3e}")
    kernel = beta @ _comm(o_op, _comm(o_op, m_op)) - _comm(o_op, _comm(o_op, e_op))
    left = np.linalg.solve(w, kernel)
    right = np.linalg.solve(w.T, kernel.T).T
    return beta @ eps + e_op + 0.25 * (left + right)


# -- convergence experiment -------------------------------------------------------


@dataclass
class SlopeReport:
    """Log-log fit of the Eriksen/relativistic difference against hbar."""

    hbar: tuple[float, ...]
    diff: tuple[float, ...]
    slope: float | None
    r_squared: float | None
    debroglie_ratio: tuple[float, ...]
    exact_agreement: bool
    non_monotone: bool
    # diagnostics of the exact transform at each hbar, relative to |H|
    # where scaled; reported by the caller, not part of the fit's JSON
    odd_residual_rel: tuple[float, ...]
    spectrum_drift: tuple[float, ...]
    spectral_gap: tuple[float, ...]

    def to_json_obj(self) -> dict:
        return {
            "hbar": list(self.hbar),
            "diff": list(self.diff),
            "slope": self.slope,
            "r_squared": self.r_squared,
            "debroglie_ratio": list(self.debroglie_ratio),
            "exact_agreement": self.exact_agreement,
            "non_monotone": self.non_monotone,
        }


def hbar_convergence_study(
    model_family: Callable[[float], ModelOperators],
    hbar_list: Sequence[float],
    tols: Tolerances = DEFAULT_TOLERANCES,
    exact_floor: float = 1e-12,
) -> SlopeReport:
    """Sweep hbar, measure |H_fw_exact - H_fw_closed_form| / |H|, fit the slope.

    The commutator scale enters only through the model construction; at
    least 4 values covering a wide range are required so the fitted
    exponent is meaningful.  A non-monotone difference is flagged in the
    report rather than raised.
    """
    hbars = sorted(float(h) for h in hbar_list)
    if len(hbars) < 4:
        raise ValueError("need at least 4 hbar values")
    if hbars[-1] / hbars[0] < 4.0:
        raise ValueError("hbar values must span at least a factor of 4")
    diffs: list[float] = []
    ratios: list[float] = []
    odd_rel: list[float] = []
    drifts: list[float] = []
    gaps: list[float] = []
    for hb in hbars:
        parts = model_family(hb)
        fw = eriksen_transform_numeric(parts.block, tols)
        exact_even = 0.5 * (fw.h_fw + parts.block.beta @ fw.h_fw @ parts.block.beta)
        closed = relfw_hamiltonian_numeric(
            parts.m_op, parts.e_op, parts.o_op, parts.block.beta, tols
        )
        scale = spectral_norm(parts.block.matrix, tols) or 1.0
        diffs.append(float(spectral_norm(exact_even - closed, tols)) / scale)
        ratios.append(parts.debroglie_ratio if parts.debroglie_ratio is not None else float("nan"))
        odd_rel.append(fw.odd_residual_norm / scale)
        drifts.append(fw.spectrum_drift)
        gaps.append(fw.spectral_gap)
    exact = all(d <= exact_floor for d in diffs)
    non_monotone = any(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))
    slope = r_squared = None
    if not exact:
        x = np.log(np.asarray(hbars))
        y = np.log(np.asarray(diffs))
        coeffs = np.polyfit(x, y, 1)
        slope = float(coeffs[0])
        fit = np.polyval(coeffs, x)
        ss_res = float(np.sum((y - fit) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2)) or 1e-300
        r_squared = 1.0 - ss_res / ss_tot
    return SlopeReport(
        tuple(hbars),
        tuple(diffs),
        slope,
        r_squared,
        tuple(ratios),
        exact,
        non_monotone,
        tuple(odd_rel),
        tuple(drifts),
        tuple(gaps),
    )

