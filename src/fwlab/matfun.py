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

Each transform takes one full-size Hermitian eigendecomposition, for
sign(H).  A Hermitian H is diagonalized by eigh directly.  A
beta-pseudo-Hermitian H must have beta*H positive definite (the regime
where every positive-energy state has positive beta norm); then
beta*H = L L^dagger by Cholesky, and H is similar to the Hermitian
L^dagger beta L, whose eigh gives the real spectrum and the sign
function without forming an inverse.  The same eigenvalues give the
spectrum before the transform and the spectral gap min eig(H^2).

Everything after sign(H) runs on the two beta blocks.  The transform
and the closed form require beta = diag(+1, ..., +1, -1, ..., -1), as
every model builds it and ``BlockOperator.sectors`` returns it, and
raise ``ClassMismatch`` for any other beta.  An even operator is then
block-diagonal in the contiguous slices of the +1 and -1 entries, and a
product with beta is a sign flip of rows or columns.
D = 2 + beta*lambda + lambda*beta is even and Hermitian for both
classes: D^(-1/2) is taken on its two diagonal blocks, and the spectrum
after the transform is the sorted union of eigvalsh of the two blocks of
the even part of H_fw.  The closed form needs M and E exactly even and O
exactly odd (``ClassMismatch`` otherwise); eps, the kernel, its
singularity check and both solves are evaluated block by block.

``BlockOperator.sectors`` splits an operator that is exactly
block-diagonal in a labelling of its basis into validated sub-operators,
so a model with a conserved label is transformed one sector at a time.

The public matrix roots share one routine: eigh for Hermitian inputs,
an eigendecomposition for other normal ones and a scaled Denman-Beavers
iteration for non-normal ones.  Norms are spectral norms estimated by
power iteration so convergence slopes are scale free; |H| is computed
once, when a ``BlockOperator`` is validated, and kept as its ``norm``.
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


def _matrix_root(a: np.ndarray, power: float, tols: Tolerances) -> np.ndarray:
    """Principal a^power for power = 1/2 or -1/2.

    eigh for Hermitian a, an eigendecomposition for other normal a and a
    scaled Denman-Beavers iteration otherwise; the residual of the
    result is gated at ``tols.sqrt_residual``.
    """
    inverse = power < 0
    a = np.asarray(a, dtype=complex)
    scale = np.linalg.norm(a) or 1.0
    if np.linalg.norm(a - a.conj().T) <= 1e-12 * scale:  # Hermitian
        w, v = np.linalg.eigh(a)
        if w[0] <= 0.0:
            raise SpectrumNotPositive(f"smallest eigenvalue {w[0]:.3e} <= 0")
        root = np.sqrt(w)
        r = (v * (1.0 / root if inverse else root)) @ v.conj().T
    else:
        _check_spectrum(a)
        if _is_normal(a):
            r = _funm_eig(a, (lambda w: 1.0 / np.sqrt(w)) if inverse else np.sqrt, tols)
        else:
            r = _denman_beavers(a)[1 if inverse else 0]
    if inverse:
        if np.linalg.norm(r @ r @ a - np.eye(a.shape[0])) > tols.sqrt_residual * max(scale, 1.0):
            raise IllConditioned("inverse-square-root residual above tolerance")
    elif np.linalg.norm(r @ r - a) > tols.sqrt_residual * scale:
        raise IllConditioned("square-root residual above tolerance")
    return r


def matrix_sqrt(a: np.ndarray, tols: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Principal square root; spectrum must avoid the closed left half-plane."""
    return _matrix_root(a, 0.5, tols)


def matrix_inv_sqrt(a: np.ndarray, tols: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Principal inverse square root via the same routes as matrix_sqrt."""
    return _matrix_root(a, -0.5, tols)


# -- block operators -------------------------------------------------------------


@dataclass
class BlockOperator:
    """Dense operator paired with its block-parity involution.

    ``herm_class`` is "hermitian" (H = H^dagger) or
    "beta_pseudo_hermitian" (H^dagger = beta H beta, so beta*H is an
    ordinary Hermitian matrix); both are validated at construction.
    ``norm`` is |H|, the spectral norm of ``matrix`` that validation
    computes and every relative gate on this operator divides by.
    """

    dim: int
    matrix: np.ndarray
    beta: np.ndarray
    herm_class: str
    tols: Tolerances = field(default_factory=lambda: DEFAULT_TOLERANCES)
    norm: float = field(init=False, repr=False, compare=False)

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
        self.norm = spectral_norm(h, self.tols)
        scale = self.norm or 1.0
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


def _beta_split(beta: np.ndarray) -> int:
    """p for beta = diag(+1 (p times), -1 (n - p times)); ClassMismatch otherwise.

    Every even operator is then block-diagonal in the contiguous slices
    [:p] and [p:], and a product with beta flips the sign of the rows
    (or columns) from p on.  Zeros and signs are tested exactly.
    """
    diag = beta.diagonal()
    p = int(np.count_nonzero(diag == 1))
    # n nonzero entries, p of them +1 and the last n - p equal to -1
    if np.count_nonzero(beta) != len(diag) or not (diag[p:] == -1).all():
        raise ClassMismatch("the block route needs beta = diag(+1, ..., +1, -1, ..., -1)")
    return p


def _blocks(p: int, n: int) -> list[tuple[slice, slice, float]]:
    """(block, other block, beta sign) for each nonempty beta block."""
    upper, lower = slice(0, p), slice(p, n)
    pairs = ((upper, lower, 1.0), (lower, upper, -1.0))
    return [(b, c, sign) for b, c, sign in pairs if b.start < b.stop]


def eriksen_transform_numeric(
    block: BlockOperator, tols: Tolerances = DEFAULT_TOLERANCES
) -> FwNumericResult:
    """Exact one-step block diagonalization via the sign function.

    Positive and negative energy states end up supported on the +1 and
    -1 blocks of beta; spectra are preserved up to solver tolerance, and
    the inverse transform is beta U beta for both Hermiticity classes.
    beta must be diag(+1, ..., +1, -1, ..., -1) (``ClassMismatch``
    otherwise): only sign(H) takes a full-size eigendecomposition, and
    D^(-1/2) and the spectrum after the transform come from the two
    beta blocks.
    """
    h = block.matrix
    n = block.dim
    p = _beta_split(block.beta)
    h_scale = block.norm or 1.0
    lam, before = _sign_spectrum(block)
    gap = float(np.min(before**2))
    if gap <= tols.spectral_gap * h_scale**2:
        raise SpectralGapTooSmall(f"min eig(H^2) = {gap:.3e}")
    # a = 1 + beta*lambda, in place; D = 2 + beta*lambda + lambda*beta
    # vanishes between the beta blocks (s_i + s_j = 0) and is 2 a_bb on them
    a = lam
    a[p:] *= -1.0
    a.flat[:: n + 1] += 1.0
    blocks = _blocks(p, n)
    u = np.empty_like(a)
    for b, _, _ in blocks:
        u[:, b] = a[:, b] @ matrix_inv_sqrt(2.0 * a[b, b], tols)
    u_inv = u.copy()  # beta U beta
    u_inv[:p, p:] *= -1.0
    u_inv[p:, :p] *= -1.0
    s = np.ones(n)
    s[p:] = -1.0
    if block.herm_class == HERMITIAN:
        residual = spectral_norm(s[:, None] * u - u.conj().T * s, tols)
        if residual > tols.eriksen_condition * max(1.0, h_scale):
            raise ClassMismatch(f"Eriksen condition residual {residual:.3e}")
    else:
        residual = spectral_norm((u * s) @ u.conj().T * s - np.eye(n), tols)
        if residual > tols.eriksen_condition * max(1.0, h_scale):
            raise ClassMismatch(f"pseudo-unitarity residual {residual:.3e}")
    h_fw = u @ h @ u_inv
    odd = h_fw.copy()
    odd[:p, :p] = 0.0
    odd[p:, p:] = 0.0
    odd_norm = spectral_norm(odd, tols)
    # the even part, h_fw on the beta blocks, is Hermitian for both classes
    even = [h_fw[b, b] for b, _, _ in blocks]
    herm_residual = math.hypot(*[np.linalg.norm(e - e.conj().T) for e in even])
    if herm_residual > tols.herm_class * h_scale:
        raise ClassMismatch(f"even part of H_fw: Hermiticity residual {herm_residual:.3e}")
    after = np.sort(np.concatenate([np.linalg.eigvalsh(e) for e in even]))
    drift = float(np.max(np.abs(before - after))) / h_scale
    return FwNumericResult(u, h_fw, float(odd_norm), drift, gap)


def _double_comm_block(o_bc, o_cb, x_bb, x_cc) -> np.ndarray:
    """Block bb of [O,[O,X]] for odd O and even X (c is the other beta block)."""
    comm_cb = o_cb @ x_bb - x_cc @ o_cb
    comm_bc = o_bc @ x_cc - x_bb @ o_bc
    return o_bc @ comm_cb - comm_bc @ o_cb


def relfw_hamiltonian_numeric(
    m_op: np.ndarray,
    e_op: np.ndarray,
    o_op: np.ndarray,
    beta: np.ndarray,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Closed-form even Hamiltonian, stationary case (field operator = E).

    beta must be diag(+1, ..., +1, -1, ..., -1), M and E even and O odd,
    each exactly (``ClassMismatch`` otherwise).  eps, the kernel, its
    singularity check and both solves are then evaluated on the beta
    blocks; the result is zero between them.
    """
    m_op = np.asarray(m_op, dtype=complex)
    e_op = np.asarray(e_op, dtype=complex)
    o_op = np.asarray(o_op, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    n = beta.shape[0]
    p = _beta_split(beta)
    for name, op, parity in (("M", m_op, "even"), ("E", e_op, "even"), ("O", o_op, "odd")):
        wrong = (op[:p, p:], op[p:, :p]) if parity == "even" else (op[:p, :p], op[p:, p:])
        worst = max((float(np.max(np.abs(x))) for x in wrong if x.size), default=0.0)
        if worst:
            raise ClassMismatch(
                f"{name} is not {parity}: an entry of size {worst:.3e} in the wrong beta block"
            )
    blocks = _blocks(p, n)
    eps, kernels = [], []
    for b, c, _ in blocks:
        m_b = m_op[b, b]
        eps_b = matrix_sqrt(m_b @ m_b + o_op[b, c] @ o_op[c, b], tols)
        eps.append(eps_b)
        kernels.append(2.0 * eps_b @ eps_b + eps_b @ m_b + m_b @ eps_b)
    # the singular values of the block-diagonal kernel are those of its blocks
    sv = np.concatenate([np.linalg.svd(w, compute_uv=False) for w in kernels])
    if sv.min() <= tols.kernel_singularity * max(sv.max(), 1.0):
        raise SingularKernel(f"smallest singular value {sv.min():.3e}")
    out = np.zeros((n, n), dtype=complex)
    for (b, c, sign), eps_b, w in zip(blocks, eps, kernels):
        # (beta [O,[O,M]] - [O,[O,E]])_bb = [O,[O, sign*M - E]]_bb
        num = _double_comm_block(
            o_op[b, c], o_op[c, b], sign * m_op[b, b] - e_op[b, b], sign * m_op[c, c] - e_op[c, c]
        )
        left = np.linalg.solve(w, num)
        right = np.linalg.solve(w.T, num.T).T
        out[b, b] = sign * eps_b + e_op[b, b] + 0.25 * (left + right)
    return out


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
    # hbar values whose difference is at or below the exact floor; when
    # some but not all are, no slope is fitted
    floor_hbar: tuple[float, ...]

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
    report rather than raised.  A difference at or below ``exact_floor``
    has no logarithm to fit: if every one is, the report says exact
    agreement; if only some are, slope and R^2 are None.
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
        closed = relfw_hamiltonian_numeric(
            parts.m_op, parts.e_op, parts.o_op, parts.block.beta, tols
        )
        scale = parts.block.norm or 1.0
        # even part of H_fw minus the closed form, which is zero between the beta blocks
        p = _beta_split(parts.block.beta)
        delta = fw.h_fw - closed
        delta[:p, p:] = 0.0
        delta[p:, :p] = 0.0
        diffs.append(float(spectral_norm(delta, tols)) / scale)
        ratios.append(parts.debroglie_ratio if parts.debroglie_ratio is not None else float("nan"))
        odd_rel.append(fw.odd_residual_norm / scale)
        drifts.append(fw.spectrum_drift)
        gaps.append(fw.spectral_gap)
    floor_hbar = tuple(hb for hb, d in zip(hbars, diffs) if d <= exact_floor)
    exact = len(floor_hbar) == len(hbars)
    non_monotone = any(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))
    slope = r_squared = None
    if not floor_hbar:
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
        floor_hbar,
    )

