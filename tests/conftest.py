from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from fwlab.ncalg import NCPoly, Word
from fwlab.matfun import BETA_PSEUDO_HERMITIAN, HERMITIAN, BlockOperator

# -- symbolic strategies -----------------------------------------------------

coeffs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
).filter(lambda q: q != 0)

words = st.builds(
    Word,
    beta=st.integers(0, 1),
    letters=st.text(alphabet="EO", min_size=0, max_size=4),
    m_power=st.integers(-3, 3),
)


@st.composite
def ncpolys(draw, max_terms=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        terms[draw(words)] = draw(coeffs)
    return NCPoly(terms)


@st.composite
def even_polys(draw, max_terms=3):
    p = draw(ncpolys(max_terms))
    return p.even_part()


@st.composite
def odd_polys(draw, max_terms=3):
    p = draw(ncpolys(max_terms))
    return p.odd_part()


@st.composite
def raw_symbol_words(draw):
    """Un-normalized symbol strings over B/E/O for the rewrite tests."""
    return draw(st.text(alphabet="BEO", min_size=0, max_size=6))


# -- numeric builders ----------------------------------------------------------


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def random_block_hermitian(rng: np.random.Generator, half: int, scale: float = 0.3):
    """Hermitian H = beta*m + E + O with a guaranteed spectral gap.

    The even and odd perturbations are normalized so their combined norm
    stays below the mass; no level can cross zero or switch beta sector.
    """
    n = 2 * half
    beta = np.diag([1.0] * half + [-1.0] * half).astype(complex)
    m = 1.0 + 0.2 * rng.uniform()
    even = random_hermitian(rng, n)
    even = 0.5 * (even + beta @ even @ beta)
    even *= scale * m / max(np.linalg.norm(even, 2), 1e-12)
    odd = random_hermitian(rng, n)
    odd = 0.5 * (odd - beta @ odd @ beta)
    odd *= scale * m / max(np.linalg.norm(odd, 2), 1e-12)
    h = m * beta + even + odd
    return BlockOperator(h, beta, HERMITIAN)


def random_block_pseudo(rng: np.random.Generator, half: int, scale: float = 0.25):
    """beta-pseudo-Hermitian H (beta*H is Hermitian positive definite).

    Positive definiteness of beta*H keeps every positive-energy state at
    positive beta norm, which is the regime the sign-function transform
    is built for.
    """
    n = 2 * half
    beta = np.diag([1.0] * half + [-1.0] * half).astype(complex)
    bump = random_hermitian(rng, n)
    bump *= scale / max(np.linalg.norm(bump, 2), 1e-12)
    bh = bump + (1.0 + 0.2 * rng.uniform()) * np.eye(n)
    h = beta @ bh
    return BlockOperator(h, beta, BETA_PSEUDO_HERMITIAN)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
