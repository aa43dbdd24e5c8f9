import dataclasses
import json
import math
import re

import numpy as np
import pytest
import scipy.linalg

from conftest import random_block_hermitian, random_block_pseudo, random_hermitian
from fwlab import matfun
from fwlab.matfun import (
    BETA_PSEUDO_HERMITIAN,
    HERMITIAN,
    BlockOperator,
    ClassMismatch,
    DEFAULT_TOLERANCES,
    IllConditioned,
    ModelOperators,
    SingularKernel,
    SpectralGapTooSmall,
    SpectrumNotPositive,
    Tolerances,
    eriksen_transform_numeric,
    _sign_spectrum,
    hbar_convergence_study,
    matrix_inv_sqrt,
    matrix_sqrt,
    relfw_hamiltonian_numeric,
    spectral_norm,
)
from fwlab.models import (
    LatticeDiracSpec,
    Spin1LandauSpec,
    build_lattice_dirac,
    build_spin1_landau,
    random_smooth_potential,
)


# -- matrix functions -----------------------------------------------------------


def test_sqrt_identity():
    eye = np.eye(4)
    assert np.allclose(matrix_sqrt(eye), eye)
    assert np.allclose(matrix_inv_sqrt(eye), eye)


def test_sqrt_diagonal():
    got = matrix_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(got, np.diag([2.0, 3.0]))


def test_sqrt_property_random_hpd(rng):
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = random_hermitian(rng, n)
        a = a @ a.conj().T + 0.1 * np.eye(n)
        r = matrix_sqrt(a)
        assert np.linalg.norm(r @ r - a) <= 1e-10 * np.linalg.norm(a)
        s = matrix_inv_sqrt(a)
        assert np.linalg.norm(s @ s @ a - np.eye(n)) <= 1e-9


def test_sqrt_matches_scipy_oracle(rng):
    for _ in range(10):
        a = random_hermitian(rng, 6)
        a = a @ a.conj().T + 0.5 * np.eye(6)
        assert np.allclose(matrix_sqrt(a), scipy.linalg.sqrtm(a), atol=1e-9)


def test_roots_reject_non_hermitian():
    # non-normal, with a positive spectrum: a root exists, but not by eigh
    for a in (
        np.array([[1.0, 0.7, 0.0], [0.0, 2.0, 0.4], [0.0, 0.0, 3.0]]),
        np.array([[1.0, 0.7], [0.0, 2.0]]),
    ):
        residual = f"|a - a^dagger|_F = {np.linalg.norm(a - a.T):.3e}"
        for root in (matrix_sqrt, matrix_inv_sqrt):
            with pytest.raises(ClassMismatch, match=re.escape(residual)):
                root(a)
    # a skew part below 1e-12 * |a|_F is round-off and passes the gate
    a = np.diag([1.0, 2.0]).astype(complex)
    a[0, 1] = 1e-14j
    assert np.allclose(matrix_sqrt(a), np.diag([1.0, math.sqrt(2.0)]))


def test_sqrt_rejects_nonpositive_spectrum():
    with pytest.raises(SpectrumNotPositive):
        matrix_sqrt(np.diag([-1.0, 1.0]))
    with pytest.raises(SpectrumNotPositive):
        matrix_inv_sqrt(np.diag([0.0, 1.0]))


def test_spectral_norm_close_to_exact(rng):
    # square, tall and wide inputs against numpy's SVD-based 2-norm
    for shape in ((8, 8), (12, 5), (5, 12), (1, 7), (7, 1)):
        for _ in range(20):
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            exact = np.linalg.norm(a, 2)
            assert abs(spectral_norm(a) - exact) <= 1e-12 * exact
    # a near-degenerate top pair, where an iterative estimate stalls
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    a = (q * np.array([3.0, 3.0 - 1e-9, 1.0, 0.5, 0.2, 0.1, 0.0, 0.0])) @ q.conj().T
    assert abs(spectral_norm(a) - np.linalg.norm(a, 2)) <= 1e-12 * 3.0
    for shape in ((4, 3), (0, 0), (0, 3), (3, 0)):
        assert spectral_norm(np.zeros(shape)) == 0.0


# -- block operators ---------------------------------------------------------------


def test_block_operator_validates_involution():
    with pytest.raises(ClassMismatch):
        BlockOperator(np.eye(2), np.diag([1.0, 2.0]), HERMITIAN)


def test_block_operator_validates_class():
    beta = np.diag([1.0, -1.0])
    h = np.array([[0.0, 1.0], [0.0, 0.0]])  # neither Hermitian nor pseudo
    with pytest.raises(ValueError):
        BlockOperator(h, beta, HERMITIAN)
    with pytest.raises(ValueError):
        BlockOperator(h, beta, BETA_PSEUDO_HERMITIAN)
    with pytest.raises(ValueError):
        BlockOperator(np.eye(2), beta, "bogus")


# -- dtypes: arrays keep the operator's own, at least float64 ----------------------


def test_real_lattice_is_transformed_in_real_arithmetic():
    pot = random_smooth_potential(32, 0.4, 1)
    parts = build_lattice_dirac(LatticeDiracSpec(32, 16.0 * math.pi, 1.0, 0.1, pot))
    assert parts.block.matrix.dtype == np.float64
    fw = eriksen_transform_numeric(parts.block)
    assert fw.u.dtype == np.float64 and fw.h_fw.dtype == np.float64
    closed = relfw_hamiltonian_numeric(parts.m_op, parts.e_op, parts.o_op, parts.block.beta)
    assert closed.dtype == np.float64


def test_spin1_sector_stays_complex():
    spec = Spin1LandauSpec(mass=1.0, charge=1.0, g_factor=2.5, field=0.02, hbar=1.0, n_max=20)
    _, sectors = build_spin1_landau(spec)
    for _, sector in sectors[:4]:
        assert sector.matrix.dtype == np.complex128 and sector.beta.dtype == np.complex128
        fw = eriksen_transform_numeric(sector)
        assert fw.u.dtype == np.complex128 and fw.h_fw.dtype == np.complex128


def test_integer_operator_is_promoted_to_float():
    beta = np.diag([1, 1, -1, -1])
    h = 2 * beta + np.kron(np.array([[0, 1], [1, 0]]), np.eye(2, dtype=int))
    block = BlockOperator(h, beta, HERMITIAN)
    assert block.matrix.dtype == np.float64 and block.beta.dtype == np.float64
    fw = eriksen_transform_numeric(block)
    assert fw.u.dtype == np.float64 and fw.h_fw.dtype == np.float64
    # levels +-sqrt(5), each twice, on their own beta blocks
    assert np.allclose(fw.h_fw, np.diag([1.0, 1.0, -1.0, -1.0]) * math.sqrt(5.0), atol=1e-12)


def test_root_of_an_integer_matrix_is_float():
    a = np.array([[2, 1], [1, 2]])
    r = matrix_sqrt(a)
    assert r.dtype == np.float64
    assert np.allclose(r @ r, a, atol=1e-12)


# -- exact transform ------------------------------------------------------------------


def test_free_dirac_two_by_two():
    beta = np.diag([1.0, -1.0])
    h = np.array([[1.0, 0.75], [0.75, -1.0]])
    res = eriksen_transform_numeric(BlockOperator(h, beta, HERMITIAN))
    assert np.allclose(res.h_fw, np.diag([1.25, -1.25]), atol=1e-12)
    assert res.odd_residual_norm <= 1e-12
    assert res.spectrum_drift <= 1e-12


def test_already_even_is_fixed_point():
    beta = np.diag([1.0, 1.0, -1.0, -1.0])
    h = np.diag([2.0, 1.5, -1.0, -2.5])
    res = eriksen_transform_numeric(BlockOperator(h, beta, HERMITIAN))
    assert np.allclose(res.u, np.eye(4), atol=1e-12)
    assert np.allclose(res.h_fw, h, atol=1e-12)


def test_transform_properties_random_hermitian(rng):
    for _ in range(100):
        blk = random_block_hermitian(rng, int(rng.integers(2, 7)))
        res = eriksen_transform_numeric(blk)
        scale = spectral_norm(blk.matrix)
        assert res.odd_residual_norm <= 1e-10 * scale
        assert res.spectrum_drift <= 1e-9
        # Eriksen condition: beta U = U^dagger beta
        assert np.linalg.norm(blk.beta @ res.u - res.u.conj().T @ blk.beta) <= 1e-10
        # positive-energy eigenvectors supported on the upper beta block
        half = blk.dim // 2
        upper = res.h_fw[:half, :half]
        assert np.min(np.linalg.eigvalsh(0.5 * (upper + upper.conj().T))) > 0


def test_transform_properties_random_pseudo(rng):
    for _ in range(100):
        blk = random_block_pseudo(rng, int(rng.integers(2, 7)))
        res = eriksen_transform_numeric(blk)
        scale = spectral_norm(blk.matrix)
        assert res.odd_residual_norm <= 1e-10 * scale
        assert res.spectrum_drift <= 1e-9
        # pseudo-unitarity: U (beta U^dagger beta) = 1
        eye = np.eye(blk.dim)
        assert (
            np.linalg.norm(res.u @ blk.beta @ res.u.conj().T @ blk.beta - eye) <= 1e-10
        )
        # the transformed pseudo-Hermitian Hamiltonian is honestly Hermitian
        assert np.linalg.norm(res.h_fw - res.h_fw.conj().T) <= 1e-9 * scale


def test_block_operator_norm_is_exact(rng, monkeypatch):
    # read first: spectral_norm of the matrix; left to the Hermitian
    # transform: max |eigenvalue| of its own eigh, with no full-size norm
    shapes = []
    original = matfun.spectral_norm

    def recorded(a):
        shapes.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(matfun, "spectral_norm", recorded)
    for _ in range(100):
        for make in (random_block_hermitian, random_block_pseudo):
            read_first = make(rng, int(rng.integers(2, 7)))
            n = read_first.dim
            exact = np.linalg.norm(read_first.matrix, 2)
            assert abs(read_first.norm - exact) <= 1e-12 * exact
            filled = BlockOperator(read_first.matrix, read_first.beta, read_first.herm_class)
            shapes.clear()
            eriksen_transform_numeric(filled)
            assert abs(filled.norm - exact) <= 1e-12 * exact
            assert shapes.count((n, n)) == (1 if make is random_block_pseudo else 0)


def test_odd_residual_is_exact_norm_of_odd_part(rng):
    for _ in range(100):
        for make in (random_block_hermitian, random_block_pseudo):
            blk = make(rng, int(rng.integers(2, 7)))
            res = eriksen_transform_numeric(blk)
            odd = 0.5 * (res.h_fw - blk.beta @ res.h_fw @ blk.beta)
            exact = np.linalg.norm(odd, 2)
            assert abs(res.odd_residual_norm - exact) <= 1e-12 * exact


def test_sign_matches_scipy_signm(rng):
    # one eigendecomposition per class: eigh of H, or of L^dagger beta L
    # with beta H = L L^dagger; scipy's Schur-based signm is independent
    for _ in range(100):
        for make in (random_block_hermitian, random_block_pseudo):
            blk = make(rng, int(rng.integers(2, 7)))
            sign, _ = _sign_spectrum(blk)
            assert np.linalg.norm(sign - scipy.linalg.signm(blk.matrix), 2) <= 1e-12


def test_spectrum_and_gap_match_independent_eigensolvers(rng):
    for _ in range(50):
        herm = random_block_hermitian(rng, int(rng.integers(2, 7)))
        pseudo = random_block_pseudo(rng, int(rng.integers(2, 7)))
        # beta v = mu (beta H) v with beta H positive definite is a
        # definite pencil, and H v = v / mu
        mu = scipy.linalg.eigh(pseudo.beta, pseudo.beta @ pseudo.matrix, eigvals_only=True)
        for blk, w in ((herm, np.linalg.eigvalsh(herm.matrix)), (pseudo, np.sort(1.0 / mu))):
            assert np.allclose(_sign_spectrum(blk)[1], w, rtol=0, atol=1e-12)
            gap = eriksen_transform_numeric(blk).spectral_gap
            assert abs(gap - np.min(w**2)) <= 1e-12 * np.min(w**2)


def test_indefinite_beta_h_is_rejected():
    # beta-pseudo-Hermitian with a real spectrum but beta H indefinite:
    # outside the regime the sign-function transform is built for
    beta = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    bh = np.diag([1.5, -0.5, 1.2, 1.0]).astype(complex)
    blk = BlockOperator(beta @ bh, beta, BETA_PSEUDO_HERMITIAN)
    with pytest.raises(SpectrumNotPositive, match="beta\\*H is not positive definite"):
        eriksen_transform_numeric(blk)


def test_even_part_hermiticity_gate_can_be_tightened_to_failure(rng):
    # beta*H is exactly Hermitian, so the block still validates at zero
    # tolerance; the transform's even-part gate reads the same field
    blk = random_block_pseudo(rng, 4)
    tight = dataclasses.replace(blk, tols=DEFAULT_TOLERANCES.updated(herm_class=0.0))
    with pytest.raises(ClassMismatch, match="even part"):
        eriksen_transform_numeric(tight)


def test_gap_guard():
    # one level parked at 1e-8 while the norm stays order one: the
    # relative gap of H^2 is 1e-16, far below the 1e-10 threshold
    beta = np.diag([1.0, 1.0, -1.0, -1.0])
    h = np.diag([1.0, 1e-8, -1.0, -1e-8])
    with pytest.raises(SpectralGapTooSmall):
        eriksen_transform_numeric(BlockOperator(h, beta, HERMITIAN))


def _full_matrix_reference(blk: BlockOperator) -> tuple[np.ndarray, np.ndarray]:
    """U and H_fw from the whole 2n x 2n D, with scipy's sign and square root."""
    lam = scipy.linalg.signm(blk.matrix)
    beta, eye = blk.beta, np.eye(blk.dim)
    d = 2.0 * eye + beta @ lam + lam @ beta
    u = (eye + beta @ lam) @ np.linalg.inv(scipy.linalg.sqrtm(d))
    return u, u @ blk.matrix @ (beta @ u @ beta)


@pytest.mark.parametrize("make", [random_block_hermitian, random_block_pseudo])
def test_beta_block_transform_matches_full_matrix_reference(rng, make):
    # D^(-1/2) on the two beta blocks equals D^(-1/2) of the whole D
    for _ in range(100):
        blk = make(rng, int(rng.integers(2, 7)))
        res = eriksen_transform_numeric(blk)
        u, h_fw = _full_matrix_reference(blk)
        assert np.linalg.norm(res.u - u, 2) <= 1e-12
        assert np.linalg.norm(res.h_fw - h_fw, 2) <= 1e-12


def _moved_off_block_form(rng, case: str, n: int) -> np.ndarray:
    """A unitary taking diag(+1, ..., -1, ...) to a beta the block route refuses."""
    if case == "non-diagonal beta":
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q
    half = n // 2
    # rows interleaved: beta = diag(+1, -1, +1, -1, ...)
    return np.eye(n)[[i // 2 + (i % 2) * half for i in range(n)]]


@pytest.mark.parametrize("case", ["non-diagonal beta", "unsorted beta"])
def test_transform_rejects_other_beta_forms(rng, case):
    for make in (random_block_hermitian, random_block_pseudo):
        blk = make(rng, 3)
        q = _moved_off_block_form(rng, case, blk.dim)
        beta = q @ blk.beta @ q.conj().T
        if case == "unsorted beta":
            assert list(beta.diagonal().real) == [1.0, -1.0] * 3
        # a valid operator of the class, only the beta form is wrong
        with pytest.raises(ClassMismatch, match="beta"):
            BlockOperator(q @ blk.matrix @ q.conj().T, beta, blk.herm_class)


# -- closed-form relativistic Hamiltonian -----------------------------------------------


def test_relfw_no_odd_part_reduces_exactly():
    beta = np.diag([1.0, 1.0, -1.0, -1.0])
    m_op = np.diag([1.0, 1.2, 1.0, 1.2])
    e_op = np.diag([0.3, -0.2, 0.3, -0.2])
    got = relfw_hamiltonian_numeric(m_op, e_op, np.zeros((4, 4)), beta)
    assert np.allclose(got, beta @ m_op + e_op, atol=1e-12)


def test_relfw_commuting_scalar_toy():
    beta = np.diag([1.0, -1.0])
    m_op = np.diag([1.0, 1.0])
    o_op = np.array([[0.0, 0.5], [0.5, 0.0]])
    e_op = np.zeros((2, 2))
    got = relfw_hamiltonian_numeric(m_op, e_op, o_op, beta)
    eps = scipy.linalg.sqrtm(m_op @ m_op + o_op @ o_op)
    assert np.allclose(got, beta @ eps, atol=1e-12)


def test_relfw_output_is_even(rng):
    for _ in range(50):
        half = int(rng.integers(2, 6))
        n = 2 * half
        beta = np.diag([1.0] * half + [-1.0] * half).astype(complex)
        even = random_hermitian(rng, n)
        e_op = 0.15 * 0.5 * (even + beta @ even @ beta)
        odd = random_hermitian(rng, n)
        o_op = 0.15 * 0.5 * (odd - beta @ odd @ beta)
        got = relfw_hamiltonian_numeric(np.eye(n), e_op, o_op, beta)
        odd_part = 0.5 * (got - beta @ got @ beta)
        assert spectral_norm(odd_part) <= 1e-12 * max(spectral_norm(got), 1.0)


def test_relfw_singular_kernel():
    beta = np.diag([1.0, -1.0])
    m_op = -np.eye(2)  # eps = 1, 2eps^2 + {eps, M} = 0
    with pytest.raises(SingularKernel):
        relfw_hamiltonian_numeric(m_op, np.zeros((2, 2)), np.zeros((2, 2)), beta)


def test_exactness_when_commutators_vanish(rng):
    # diagonal even/odd content: [O, E] = [O, M] = 0, both routes agree
    for _ in range(200):
        half = int(rng.integers(2, 6))
        n = 2 * half
        beta = np.diag([1.0] * half + [-1.0] * half).astype(complex)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        d_o = np.diag(rng.uniform(-0.5, 0.5, size=half))
        d_e = np.diag(rng.uniform(-0.3, 0.3, size=half))
        m_op = np.eye(n, dtype=complex)
        e_op = np.kron(np.eye(2), d_e).astype(complex)
        o_op = np.kron(sx, d_o).astype(complex)
        h = beta + e_op + o_op
        blk = BlockOperator(h, beta, HERMITIAN)
        res = eriksen_transform_numeric(blk)
        closed = relfw_hamiltonian_numeric(m_op, e_op, o_op, beta)
        even = 0.5 * (res.h_fw + beta @ res.h_fw @ beta)
        assert spectral_norm(even - closed) <= 1e-10 * spectral_norm(h)


def _parity_exact_operators(rng, half: int):
    """beta and random M (a genuine operator), E and O, each exactly even or odd."""
    n = 2 * half
    beta = np.diag([1.0] * half + [-1.0] * half).astype(complex)

    def part(sign: float, size: float) -> np.ndarray:
        a = random_hermitian(rng, n)
        a = 0.5 * (a + sign * beta @ a @ beta)
        return size * a / np.linalg.norm(a, 2)

    return beta, np.eye(n) + part(1.0, 0.2), part(1.0, 0.3), part(-1.0, 0.4)


def test_closed_form_matches_full_matrix_sqrtm(rng):
    def comm(a, b):
        return a @ b - b @ a

    for _ in range(100):
        beta, m_op, e_op, o_op = _parity_exact_operators(rng, int(rng.integers(1, 6)))
        eps = scipy.linalg.sqrtm(m_op @ m_op + o_op @ o_op)
        w = 2.0 * eps @ eps + eps @ m_op + m_op @ eps
        kernel = beta @ comm(o_op, comm(o_op, m_op)) - comm(o_op, comm(o_op, e_op))
        left = np.linalg.solve(w, kernel)
        right = np.linalg.solve(w.T, kernel.T).T
        want = beta @ eps + e_op + 0.25 * (left + right)
        got = relfw_hamiltonian_numeric(m_op, e_op, o_op, beta)
        assert np.linalg.norm(got - want, 2) <= 1e-12


@pytest.mark.parametrize("case", ["non-diagonal beta", "unsorted beta"])
def test_closed_form_rejects_other_beta_forms(rng, case):
    beta, m_op, e_op, o_op = _parity_exact_operators(rng, 3)
    q = _moved_off_block_form(rng, case, 6)
    moved = [q @ x @ q.conj().T for x in (m_op, e_op, o_op, beta)]
    with pytest.raises(ClassMismatch, match="beta"):
        relfw_hamiltonian_numeric(*moved)


@pytest.mark.parametrize("name", ["M", "E", "O"])
def test_closed_form_rejects_an_entry_of_the_wrong_parity(rng, name):
    beta, m_op, e_op, o_op = _parity_exact_operators(rng, 3)
    ops = {"M": m_op.copy(), "E": e_op.copy(), "O": o_op.copy()}
    # one Hermitian pair far below every numeric gate, where the parity
    # leaves the operator empty: between the beta blocks for M and E,
    # inside the upper block for O
    i, j = (0, 4) if name in ("M", "E") else (0, 1)
    ops[name][i, j] = ops[name][j, i] = 1e-15
    parity = "odd" if name == "O" else "even"
    with pytest.raises(ClassMismatch, match=f"{name} is not {parity}"):
        relfw_hamiltonian_numeric(ops["M"], ops["E"], ops["O"], beta)


# -- convergence study ----------------------------------------------------------------


def _commuting_family(hbar: float) -> ModelOperators:
    half = 6
    n = 2 * half
    beta = np.diag([1.0] * half + [-1.0] * half).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    grid = np.linspace(-1.0, 1.0, half)
    m_op = np.eye(n, dtype=complex)
    e_op = np.kron(np.eye(2), np.diag(0.2 * grid)).astype(complex)
    o_op = np.kron(sx, np.diag(hbar * grid)).astype(complex)
    h = beta + e_op + o_op
    return ModelOperators(BlockOperator(h, beta, HERMITIAN), m_op, e_op, o_op, 0.0)


def test_study_commuting_family_reports_exact_agreement():
    rep = hbar_convergence_study(_commuting_family, [0.2, 0.1, 0.05, 0.025])
    assert rep.exact_agreement
    assert rep.slope is None
    assert max(rep.diff) <= 1e-12


def _no_odd_family(hbar: float) -> ModelOperators:
    half = 6
    n = 2 * half
    beta = np.diag([1.0] * half + [-1.0] * half).astype(complex)
    grid = np.linspace(-1.0, 1.0, half)
    m_op = np.eye(n, dtype=complex)
    e_op = np.kron(np.eye(2), np.diag(hbar * grid)).astype(complex)
    h = beta + e_op
    return ModelOperators(BlockOperator(h, beta, HERMITIAN), m_op, e_op, np.zeros((n, n)), 0.0)


def test_study_zero_odd_family_reports_exact_agreement():
    rep = hbar_convergence_study(_no_odd_family, [0.2, 0.1, 0.05, 0.025])
    assert rep.exact_agreement
    assert rep.slope is None


def _hopping_family(hbar: float) -> ModelOperators:
    """As _commuting_family, but O hops between neighbours, so [O, E] != 0."""
    half = 6
    n = 2 * half
    beta = np.diag([1.0] * half + [-1.0] * half).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    grid = np.linspace(-1.0, 1.0, half)
    hop = np.diag(np.ones(half - 1), 1)
    m_op = np.eye(n, dtype=complex)
    e_op = np.kron(np.eye(2), np.diag(0.2 * grid)).astype(complex)
    o_op = np.kron(sx, hbar * (hop + hop.T)).astype(complex)
    h = beta + e_op + o_op
    return ModelOperators(BlockOperator(h, beta, HERMITIAN), m_op, e_op, o_op, 0.0)


def _small_lattice_family(hbar: float) -> ModelOperators:
    pot = random_smooth_potential(24, 0.4, 3)
    return build_lattice_dirac(LatticeDiracSpec(24, 6.0 * math.pi, 1.0, hbar, pot))


def test_study_diff_is_exact_norm_of_even_difference():
    hbars = [0.2, 0.1, 0.05, 0.025]
    for family in (_hopping_family, _small_lattice_family):
        rep = hbar_convergence_study(family, hbars)
        for hb, diff in zip(rep.hbar, rep.diff):
            parts = family(hb)
            beta, h = parts.block.beta, parts.block.matrix
            h_fw = eriksen_transform_numeric(parts.block).h_fw
            closed = relfw_hamiltonian_numeric(parts.m_op, parts.e_op, parts.o_op, beta)
            even = 0.5 * (h_fw + beta @ h_fw @ beta)
            exact = np.linalg.norm(even - closed, 2) / np.linalg.norm(h, 2)
            assert abs(diff - exact) <= 1e-12 * exact


def test_study_diffs_stable_under_round_off_in_h_fw(monkeypatch):
    # a kick of spectral norm 1e-15 |H_fw| stands in for a round-off
    # change in the transform; the reported differences (about 5e-7 and
    # up at N = 256) may move by no more than that, relative 1e-9
    pot = random_smooth_potential(256, 0.4, 0)

    def family(hbar: float) -> ModelOperators:
        return build_lattice_dirac(LatticeDiracSpec(256, 16.0 * math.pi, 1.0, hbar, pot))

    hbars = [0.2, 0.1, 0.05, 0.025]
    base = hbar_convergence_study(family, hbars)
    noise = np.random.default_rng(5)
    original = matfun.eriksen_transform_numeric

    def kicked(block):
        res = original(block)
        kick = noise.normal(size=res.h_fw.shape)
        res.h_fw = res.h_fw + 1e-15 * np.linalg.norm(res.h_fw, 2) / np.linalg.norm(kick, 2) * kick
        return res

    monkeypatch.setattr(matfun, "eriksen_transform_numeric", kicked)
    moved = hbar_convergence_study(family, hbars)
    for before, after in zip(base.diff, moved.diff):
        assert abs(after - before) <= 1e-9 * before


def test_study_exact_at_one_hbar_fits_no_slope():
    def family(hbar: float) -> ModelOperators:
        return _commuting_family(hbar) if hbar == 0.05 else _hopping_family(hbar)

    rep = hbar_convergence_study(family, [0.2, 0.1, 0.05, 0.025])
    assert rep.floor_hbar == (0.05,)
    assert min(d for hb, d in zip(rep.hbar, rep.diff) if hb != 0.05) > 1e-6
    assert not rep.exact_agreement
    assert rep.slope is None and rep.r_squared is None
    # valid JSON: null where a log of a floor value would have made NaN
    assert json.loads(json.dumps(rep.to_json_obj(), allow_nan=False))["slope"] is None


def test_residual_guard_can_be_tightened_to_failure():
    a = np.array([[2.0, 0.5], [0.5, 3.0]])  # Hermitian positive definite
    tight = DEFAULT_TOLERANCES.updated(sqrt_residual=1e-30)
    for root in (matrix_sqrt, matrix_inv_sqrt):
        root(a)
        with pytest.raises(IllConditioned):
            root(a, tight)


def test_closed_form_second_order_for_operator_mass(rng):
    # genuine [O, M] != 0: the closed form still agrees with the exact
    # transform to second order in the commutator scale
    half = 5
    n = 2 * half
    beta = np.diag([1.0] * half + [-1.0] * half).astype(complex)

    def herm_unit():
        a = random_hermitian(rng, n)
        return a / np.linalg.norm(a, 2)

    dm = herm_unit()
    dm = 0.5 * (dm + beta @ dm @ beta)
    e0 = herm_unit()
    e0 = 0.5 * (e0 + beta @ e0 @ beta)
    o0 = herm_unit()
    o0 = 0.5 * (o0 - beta @ o0 @ beta)
    svals = [0.2, 0.1, 0.05, 0.025]
    diffs = []
    for s in svals:
        m_op = np.eye(n) + s * dm
        e_op = s * e0
        o_op = 0.5 * o0
        h = beta @ m_op + e_op + o_op
        blk = BlockOperator(h, beta, HERMITIAN)
        assert np.linalg.norm(o_op @ m_op - m_op @ o_op, 2) > 1e-4
        fw = eriksen_transform_numeric(blk)
        even = 0.5 * (fw.h_fw + beta @ fw.h_fw @ beta)
        closed = relfw_hamiltonian_numeric(m_op, e_op, o_op, beta)
        diffs.append(np.linalg.norm(even - closed, 2) / np.linalg.norm(h, 2))
    slope = np.polyfit(np.log(svals), np.log(diffs), 1)[0]
    assert slope >= 1.8


def test_study_requires_enough_points():
    with pytest.raises(ValueError):
        hbar_convergence_study(_commuting_family, [0.2, 0.1, 0.05])
    with pytest.raises(ValueError):
        hbar_convergence_study(_commuting_family, [0.2, 0.15, 0.11, 0.08])
    # two distinct points repeated: a line through them always has R^2 = 1
    with pytest.raises(ValueError, match="distinct"):
        hbar_convergence_study(_commuting_family, [0.2, 0.2, 0.05, 0.05])


def test_tolerances_updated():
    tols = Tolerances().updated(sqrt_residual=1e-8)
    assert tols.sqrt_residual == 1e-8
    assert tols.spectral_gap == DEFAULT_TOLERANCES.spectral_gap
