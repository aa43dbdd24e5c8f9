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

Everything after sign(H) runs on the two beta blocks.  beta must be
diag(+1, ..., +1, -1, ..., -1), as every model builds it.  This form is
checked once, exactly, when a ``BlockOperator`` is built
(``ClassMismatch`` for any other beta), and the block keeps the count p
of +1 entries; the closed form, which takes a dense beta, checks it
there.  An even operator is then block-diagonal in the contiguous slices
[:p] and [p:], and a product with beta is a sign flip of rows or columns.
D = 2 + beta*lambda + lambda*beta is even and Hermitian for both
classes: D^(-1/2) is taken on its two diagonal blocks, and the spectrum
after the transform is the sorted union of eigvalsh of the two blocks of
the even part of H_fw.  The closed form needs M and E exactly even and O
exactly odd (``ClassMismatch`` otherwise); eps, the kernel, its
singularity check and both solves are evaluated block by block.

A block carries the ``Tolerances`` it was validated with, and the
transform and the convergence study gate with those: an operator is
never checked with one set and transformed with another.

Arrays keep the dtype of the operator they come from, promoted to at
least float64 (an integer input is never kept): a real symmetric H is
transformed, rooted and compared with the closed form in real
arithmetic, and a complex H in complex arithmetic.  numpy picks the
LAPACK and BLAS routine from the dtype; there is no second code path.

The public matrix roots share one routine, an eigh of a Hermitian
argument: every root the package takes (of D's blocks and of eps^2) has
one, and a non-Hermitian argument raises ``ClassMismatch``.  Reported
norms are exact spectral norms, so convergence slopes are scale free.
|H| is computed on the first read of ``BlockOperator.norm``; the
Hermitian transform fills it first with max |eigenvalue| from the eigh
it takes anyway.  The odd residual is the larger of its two off-block
norms and the convergence difference the larger of its two beta-block
norms, each at half size.  Pass/fail residual gates use the Frobenius
norm, an upper bound on the spectral norm, so they are never looser than
a spectral-norm gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
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
    "loglog_fit",
    "hbar_convergence_study",
]


class SpectrumNotPositive(ArithmeticError):
    """A matrix root, or the Cholesky factor of beta*H, needs a positive spectrum."""


class IllConditioned(ArithmeticError):
    """A matrix root whose residual is above ``Tolerances.sqrt_residual``."""


class SpectralGapTooSmall(ArithmeticError):
    """H^2 has spectrum too close to zero for a stable sign function."""


class ClassMismatch(ArithmeticError):
    """A Hermiticity-class identity fails, or beta is not in block form.

    Raised for a computed transform that violates its class identity, a
    non-Hermitian root argument, an operator of the wrong beta parity, a
    model entry between two sectors, and a beta other than
    diag(+1, ..., +1, -1, ..., -1).
    """


class SingularKernel(ArithmeticError):
    """The kernel 2 eps^2 + {eps, M} is singular within tolerance."""


HERMITIAN = "hermitian"
BETA_PSEUDO_HERMITIAN = "beta_pseudo_hermitian"


@dataclass(frozen=True)
class Tolerances:
    """Default numeric gates; the CLI overrides a field through FWLAB_TOL_<FIELD>."""

    herm_class: float = 1e-12
    sqrt_residual: float = 1e-10
    spectral_gap: float = 1e-10
    eriksen_condition: float = 1e-10
    kernel_singularity: float = 1e-13

    def updated(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = Tolerances()


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value: sqrt of the top eigenvalue of the smaller Gram matrix.

    a a^dagger or a^dagger a, whichever is smaller; 0 for an empty matrix.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    gram = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def _at_least_float(*arrays) -> list[np.ndarray]:
    """The arrays in their common dtype, promoted to at least float64 (never integer)."""
    arrays = [np.asarray(a) for a in arrays]
    return [a.astype(np.result_type(*arrays, float), copy=False) for a in arrays]


def _matrix_root(a: np.ndarray, power: float, tols: Tolerances) -> np.ndarray:
    """Principal a^power for power = 1/2 or -1/2 of a Hermitian a, by eigh.

    A non-Hermitian a raises ``ClassMismatch``; the residual of the
    result is gated at ``tols.sqrt_residual``.
    """
    inverse = power < 0
    (a,) = _at_least_float(a)
    scale = np.linalg.norm(a) or 1.0
    skew = np.linalg.norm(a - a.conj().T)
    if skew > 1e-12 * scale:
        raise ClassMismatch(
            f"non-Hermitian root argument: |a - a^dagger|_F = {skew:.3e} > 1e-12 * |a|_F"
        )
    w, v = np.linalg.eigh(a)
    if w[0] <= 0.0:
        raise SpectrumNotPositive(f"smallest eigenvalue {w[0]:.3e} <= 0")
    root = np.sqrt(w)
    r = (v * (1.0 / root if inverse else root)) @ v.conj().T
    if inverse:
        if np.linalg.norm(r @ r @ a - np.eye(a.shape[0])) > tols.sqrt_residual * max(scale, 1.0):
            raise IllConditioned("inverse-square-root residual above tolerance")
    elif np.linalg.norm(r @ r - a) > tols.sqrt_residual * scale:
        raise IllConditioned("square-root residual above tolerance")
    return r


def matrix_sqrt(a: np.ndarray, tols: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Principal square root of a Hermitian positive-definite matrix."""
    return _matrix_root(a, 0.5, tols)


def matrix_inv_sqrt(a: np.ndarray, tols: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Principal inverse square root by the same eigh route as matrix_sqrt."""
    return _matrix_root(a, -0.5, tols)


# -- block operators -------------------------------------------------------------


@dataclass
class BlockOperator:
    """Dense operator paired with its block-parity involution.

    beta must be diag(+1 (p times), -1 (n - p times)), tested exactly
    (``ClassMismatch`` otherwise); ``p`` is kept, so every later product
    with beta is a sign flip from row or column p on.  ``herm_class`` is
    "hermitian" (H = H^dagger) or "beta_pseudo_hermitian"
    (H^dagger = beta H beta, so beta*H is an ordinary Hermitian matrix),
    validated by the Frobenius norm of the class residual against the
    largest column norm of ``matrix``, a lower bound of |H|.
    """

    matrix: np.ndarray
    beta: np.ndarray
    herm_class: str
    tols: Tolerances = field(default_factory=lambda: DEFAULT_TOLERANCES)
    p: int = field(init=False)

    def __post_init__(self) -> None:
        self.matrix, self.beta = _at_least_float(self.matrix, self.beta)
        shape = self.matrix.shape
        if len(shape) != 2 or shape[0] != shape[1] or self.beta.shape != shape:
            raise ValueError("matrix and beta must be square and of one size")
        self.p = _beta_split(self.beta)
        h = self.matrix
        if self.herm_class == HERMITIAN:
            residual = np.linalg.norm(h - h.conj().T)
        elif self.herm_class == BETA_PSEUDO_HERMITIAN:
            bh = _flip_rows(h, self.p)
            residual = np.linalg.norm(bh - bh.conj().T)
        else:
            raise ValueError(f"unknown herm_class {self.herm_class!r}")
        column = float(np.max(np.linalg.norm(h, axis=0), initial=0.0))
        if residual > self.tols.herm_class * (column or 1.0):
            raise ValueError(
                f"{self.herm_class} residual {residual:.3e} above"
                f" {self.tols.herm_class:.1e} * largest column norm {column:.3e}"
            )

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @cached_property
    def norm(self) -> float:
        """|H|, the exact spectral norm of ``matrix``, computed on first read.

        Every relative gate on this operator divides by it.
        """
        return spectral_norm(self.matrix)


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
        chol = np.linalg.cholesky(_flip_rows(h, block.p))
    except np.linalg.LinAlgError as exc:
        raise SpectrumNotPositive("beta*H is not positive definite") from exc
    w, wv = np.linalg.eigh(_flip_rows(chol, block.p).conj().T @ chol)
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


def _flip_rows(a: np.ndarray, p: int) -> np.ndarray:
    """beta @ a for beta = diag(+1 (p times), -1, ...): a copy of a with rows p: negated."""
    out = a.copy()
    out[p:] *= -1.0
    return out


def _blocks(p: int, n: int) -> list[tuple[slice, slice, float]]:
    """(block, other block, beta sign) for each nonempty beta block."""
    upper, lower = slice(0, p), slice(p, n)
    pairs = ((upper, lower, 1.0), (lower, upper, -1.0))
    return [(b, c, sign) for b, c, sign in pairs if b.start < b.stop]


def eriksen_transform_numeric(block: BlockOperator) -> FwNumericResult:
    """Exact one-step block diagonalization via the sign function.

    Positive and negative energy states end up supported on the +1 and
    -1 blocks of beta; spectra are preserved up to solver tolerance, and
    the inverse transform is beta U beta for both Hermiticity classes.
    Only sign(H) takes a full-size eigendecomposition; D^(-1/2) and the
    spectrum after the transform come from the two beta blocks.  Every
    gate reads ``block.tols``, the tolerances the block was validated with.
    """
    h, tols = block.matrix, block.tols
    n, p = block.dim, block.p
    lam, before = _sign_spectrum(block)
    if block.herm_class == HERMITIAN:  # |H| = max |eigenvalue|, unless already read
        vars(block).setdefault("norm", float(np.max(np.abs(before))))
    h_scale = block.norm or 1.0
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
        what, r = "Eriksen condition", s[:, None] * u - u.conj().T * s
    else:
        what, r = "pseudo-unitarity", (u * s) @ u.conj().T * s - np.eye(n)
    residual = np.linalg.norm(r)  # Frobenius, at least the spectral norm
    if residual > tols.eriksen_condition * max(1.0, h_scale):
        raise ClassMismatch(f"{what} residual {residual:.3e}")
    h_fw = u @ h @ u_inv
    odd_norm = max(spectral_norm(h_fw[:p, p:]), spectral_norm(h_fw[p:, :p]))
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
    m_op, e_op, o_op, beta = _at_least_float(m_op, e_op, o_op, beta)
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
    # the singular values of the block-diagonal kernel are those of its
    # blocks; by Weyl's bound each lies within |skew part|_F of an
    # |eigenvalue| of the block's Hermitian part, so the test is never looser
    low, high = math.inf, 0.0
    for w in kernels:
        eig = np.abs(np.linalg.eigvalsh(0.5 * (w + w.conj().T)))
        skew = 0.5 * float(np.linalg.norm(w - w.conj().T))
        low, high = min(low, eig.min() - skew), max(high, eig.max() + skew)
    if low <= tols.kernel_singularity * max(high, 1.0):
        raise SingularKernel(f"smallest singular value at most {low:.3e}")
    out = np.zeros((n, n), dtype=beta.dtype)
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


def loglog_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Slope and R^2 of the least-squares line through (log x, log y)."""
    lx, ly = np.log(np.asarray(x)), np.log(np.asarray(y))
    coeffs = np.polyfit(lx, ly, 1)
    ss_res = float(np.sum((ly - np.polyval(coeffs, lx)) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2)) or 1e-300
    return float(coeffs[0]), 1.0 - ss_res / ss_tot


# relative difference treated as exact agreement, with no logarithm to fit
_EXACT_FLOOR = 1e-12


def hbar_convergence_study(
    model_family: Callable[[float], ModelOperators],
    hbar_list: Sequence[float],
) -> SlopeReport:
    """Sweep hbar, measure |H_fw_exact - H_fw_closed_form| / |H|, fit the slope.

    The commutator scale enters only through the model construction; at
    least 4 distinct values covering a wide range are required so the
    fitted exponent is meaningful.  The transform and the closed form
    gate with the tolerances of each model's block.  A non-monotone
    difference is flagged in the report rather than raised.  A difference
    at or below ``_EXACT_FLOOR`` has no logarithm to fit: if every one
    is, the report says exact agreement; if only some are, slope and R^2
    are None.
    """
    hbars = sorted(float(h) for h in hbar_list)
    if len(hbars) < 4:
        raise ValueError("need at least 4 hbar values")
    if len(set(hbars)) < len(hbars):
        raise ValueError(f"hbar values must be distinct: got {hbars}")
    if hbars[0] <= 0:
        raise ValueError("hbar values must be positive")
    if hbars[-1] / hbars[0] < 4.0:
        raise ValueError("hbar values must span at least a factor of 4")
    diffs: list[float] = []
    ratios: list[float] = []
    odd_rel: list[float] = []
    drifts: list[float] = []
    gaps: list[float] = []
    for hb in hbars:
        parts = model_family(hb)
        fw = eriksen_transform_numeric(parts.block)
        closed = relfw_hamiltonian_numeric(
            parts.m_op, parts.e_op, parts.o_op, parts.block.beta, parts.block.tols
        )
        scale = parts.block.norm or 1.0
        # even part of H_fw minus the closed form, which is zero between the beta blocks
        blocks = _blocks(parts.block.p, parts.block.dim)
        diffs.append(max(spectral_norm(fw.h_fw[b, b] - closed[b, b]) for b, _, _ in blocks) / scale)
        ratios.append(parts.debroglie_ratio if parts.debroglie_ratio is not None else float("nan"))
        odd_rel.append(fw.odd_residual_norm / scale)
        drifts.append(fw.spectrum_drift)
        gaps.append(fw.spectral_gap)
    floor_hbar = tuple(hb for hb, d in zip(hbars, diffs) if d <= _EXACT_FLOOR)
    exact = len(floor_hbar) == len(hbars)
    non_monotone = any(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))
    slope, r_squared = (None, None) if floor_hbar else loglog_fit(hbars, diffs)
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

