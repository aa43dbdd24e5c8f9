import json

import numpy as np
import pytest
import scipy.linalg

from conftest import random_block_hermitian, random_block_pseudo, random_hermitian
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


def test_sqrt_non_normal_denman_beavers():
    a = np.array([[1.0, 0.7, 0.0], [0.0, 2.0, 0.4], [0.0, 0.0, 3.0]])
    r = matrix_sqrt(a)
    assert np.linalg.norm(r @ r - a) <= 1e-10 * np.linalg.norm(a)
    s = matrix_inv_sqrt(a)
    assert np.linalg.norm(s @ s @ a - np.eye(3)) <= 1e-9
    assert np.allclose(r, scipy.linalg.sqrtm(a), atol=1e-9)


def test_sqrt_rejects_nonpositive_spectrum():
    with pytest.raises(SpectrumNotPositive):
        matrix_sqrt(np.diag([-1.0, 1.0]))
    with pytest.raises(SpectrumNotPositive):
        matrix_inv_sqrt(np.diag([0.0, 1.0]))


def test_spectral_norm_close_to_exact(rng):
    # the fixed 20-iteration budget gives a few-percent floor for
    # near-degenerate top singular values, and never overestimates
    for _ in range(50):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        exact = np.linalg.norm(a, 2)
        got = spectral_norm(a)
        assert got <= exact * (1.0 + 1e-10)
        assert got >= exact * 0.95


# -- block operators ---------------------------------------------------------------


def test_block_operator_validates_involution():
    with pytest.raises(ValueError):
        BlockOperator(2, np.eye(2), np.diag([1.0, 2.0]), HERMITIAN)


def test_block_operator_validates_class():
    beta = np.diag([1.0, -1.0])
    h = np.array([[0.0, 1.0], [0.0, 0.0]])  # neither Hermitian nor pseudo
    with pytest.raises(ValueError):
        BlockOperator(2, h, beta, HERMITIAN)
    with pytest.raises(ValueError):
        BlockOperator(2, h, beta, BETA_PSEUDO_HERMITIAN)
    with pytest.raises(ValueError):
        BlockOperator(2, np.eye(2), beta, "bogus")


def _direct_sum(rng, make):
    """Two random blocks of one class, summed and shuffled; labels say which is which."""
    a, b = make(rng, 2), make(rng, 3)
    n = a.dim + b.dim
    perm = rng.permutation(n)
    shuffle = np.ix_(perm, perm)
    h = scipy.linalg.block_diag(a.matrix, b.matrix)[shuffle]
    beta = scipy.linalg.block_diag(a.beta, b.beta)[shuffle]
    labels = np.array(["a"] * a.dim + ["b"] * b.dim)[perm]
    return BlockOperator(n, h, beta, a.herm_class), labels


@pytest.mark.parametrize("make", [random_block_hermitian, random_block_pseudo])
def test_sectors_split_a_shuffled_direct_sum(rng, make):
    dense, labels = _direct_sum(rng, make)
    pieces = dense.sectors(labels)
    assert [set(labels[idx]) for idx, _ in pieces] == [{"a"}, {"b"}]
    assert sorted(np.concatenate([idx for idx, _ in pieces])) == list(range(dense.dim))
    for idx, sector in pieces:
        assert sector.herm_class == dense.herm_class
        assert np.array_equal(sector.matrix, dense.matrix[np.ix_(idx, idx)])
        assert np.array_equal(sector.beta, dense.beta[np.ix_(idx, idx)])
        # beta = +1 entries first: the leading block is the beta = +1 block
        half = sector.dim // 2
        assert list(sector.beta.diagonal().real) == [1.0] * half + [-1.0] * half
    union = np.concatenate([np.linalg.eigvals(sector.matrix) for _, sector in pieces])
    dense_spectrum = np.linalg.eigvals(dense.matrix)
    assert np.max(np.abs(union.imag)) <= 1e-12 and np.max(np.abs(dense_spectrum.imag)) <= 1e-12
    assert np.allclose(np.sort(union.real), np.sort(dense_spectrum.real), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["matrix", "beta"])
def test_sectors_reject_an_entry_between_labels(rng, name):
    dense, labels = _direct_sum(rng, random_block_hermitian)
    (i, j), (k, l) = [(r, c) for r, c in np.argwhere(labels[:, None] != labels[None, :])][:2]
    ops = {"matrix": dense.matrix.copy(), "beta": dense.beta.copy()}
    # far below every construction gate, so only the exact sector check sees them
    ops[name][i, j] = 1e-15
    ops[name][k, l] = 3e-15
    leaky = BlockOperator(dense.dim, ops["matrix"], ops["beta"], HERMITIAN)
    with pytest.raises(ClassMismatch, match=rf"{name}\[{k}, {l}\] = 3\.000e-15"):
        leaky.sectors(labels)


def test_sectors_need_one_label_per_index(rng):
    dense, labels = _direct_sum(rng, random_block_pseudo)
    for bad in (labels[:-1], np.append(labels, "a"), labels.reshape(1, -1)):
        with pytest.raises(ValueError, match="one per basis index"):
            dense.sectors(bad)


def test_even_odd_parts():
    beta = np.diag([1.0, -1.0])
    h = np.array([[1.0, 2.0], [2.0, -3.0]])
    blk = BlockOperator(2, h, beta, HERMITIAN)
    assert np.allclose(blk.even_part(), np.diag([1.0, -3.0]))
    assert np.allclose(blk.odd_part(), [[0.0, 2.0], [2.0, 0.0]])


# -- exact transform ------------------------------------------------------------------


def test_free_dirac_two_by_two():
    beta = np.diag([1.0, -1.0])
    h = np.array([[1.0, 0.75], [0.75, -1.0]])
    res = eriksen_transform_numeric(BlockOperator(2, h, beta, HERMITIAN))
    assert np.allclose(res.h_fw, np.diag([1.25, -1.25]), atol=1e-12)
    assert res.odd_residual_norm <= 1e-12
    assert res.spectrum_drift <= 1e-12


def test_already_even_is_fixed_point():
    beta = np.diag([1.0, 1.0, -1.0, -1.0])
    h = np.diag([2.0, 1.5, -1.0, -2.5])
    res = eriksen_transform_numeric(BlockOperator(4, h, beta, HERMITIAN))
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
    blk = BlockOperator(4, beta @ bh, beta, BETA_PSEUDO_HERMITIAN)
    with pytest.raises(SpectrumNotPositive, match="beta\\*H is not positive definite"):
        eriksen_transform_numeric(blk)


def test_even_part_hermiticity_gate_can_be_tightened_to_failure(rng):
    blk = random_block_pseudo(rng, 4)
    with pytest.raises(ClassMismatch, match="even part"):
        eriksen_transform_numeric(blk, DEFAULT_TOLERANCES.updated(herm_class=0.0))


def test_gap_guard():
    # one level parked at 1e-8 while the norm stays order one: the
    # relative gap of H^2 is 1e-16, far below the 1e-10 threshold
    beta = np.diag([1.0, 1.0, -1.0, -1.0])
    h = np.diag([1.0, 1e-8, -1.0, -1e-8])
    with pytest.raises(SpectralGapTooSmall):
        eriksen_transform_numeric(BlockOperator(4, h, beta, HERMITIAN))


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
        moved = BlockOperator(blk.dim, q @ blk.matrix @ q.conj().T, beta, blk.herm_class)
        with pytest.raises(ClassMismatch, match="beta"):
            eriksen_transform_numeric(moved)


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
        blk = BlockOperator(n, h, beta, HERMITIAN)
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
    return ModelOperators(BlockOperator(n, h, beta, HERMITIAN), m_op, e_op, o_op, 0.0)


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
    return ModelOperators(BlockOperator(n, h, beta, HERMITIAN), m_op, e_op, np.zeros((n, n)), 0.0)


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
    return ModelOperators(BlockOperator(n, h, beta, HERMITIAN), m_op, e_op, o_op, 0.0)


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
    a = np.array([[1.0, 0.7], [0.0, 2.0]])  # non-normal, positive spectrum
    with pytest.raises(IllConditioned):
        matrix_sqrt(a, DEFAULT_TOLERANCES.updated(sqrt_residual=1e-30))


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
        blk = BlockOperator(n, h, beta, HERMITIAN)
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


def test_tolerances_updated():
    tols = Tolerances().updated(odd_residual=1e-8)
    assert tols.odd_residual == 1e-8
    assert tols.spectrum_drift == DEFAULT_TOLERANCES.spectrum_drift
