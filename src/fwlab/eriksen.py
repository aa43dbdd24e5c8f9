"""Exact block-diagonalizing transformation as a weight-truncated series.

For the flat-mass Hamiltonian H = beta*m + E + O the unique unitary
satisfying the Eriksen condition beta*U = U^dagger*beta is

    U = (1 + beta*lambda) / sqrt(2 + beta*lambda + lambda*beta),
    lambda = H * (H^2)^(-1/2),

where lambda is the sign operator of H.  This module builds lambda and U
as elements of the E/O word algebra, expands (H^2)^(-1/2) as a scalar
series in K = H^2/m^2 - 1 (K commutes with itself, so the scalar series
is valid), transforms H, and compares the result against the classical
eighth-order reference series of de Vries and Jonker in the multiple
commutator form, including the corrected quartic-odd block A24.

Everything here is exact rational arithmetic; the headline check is
word-by-word equality of the transformed Hamiltonian with the reference
at weight 8 (O counts 1, E counts 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from . import fseries
from .ncalg import (
    NCPoly,
    Word,
    anticommutator,
    beta_atom,
    commutator,
    e_atom,
    from_word,
    mul,
    o_atom,
    one,
    scalar,
)

__all__ = [
    "NonEvenDenominator",
    "ResidualOddPart",
    "EriksenPipeline",
    "fw_hamiltonian_series",
    "ReferenceTerm",
    "A24_COEFFICIENTS",
    "reference_terms",
    "reference_devries_jonker",
    "DiffEntry",
    "DiffReport",
    "compare_series",
    "DEFAULT_WEIGHT_MAX",
]

DEFAULT_WEIGHT_MAX = 8


class NonEvenDenominator(ArithmeticError):
    """The denominator 2 + beta*lambda + lambda*beta acquired an odd part."""


class ResidualOddPart(ArithmeticError):
    """The transformed Hamiltonian kept an odd component (algebra bug)."""

    def __init__(self, weight: int):
        super().__init__(f"odd residual first appears at weight {weight}")
        self.weight = weight


def _inv_sqrt_coeffs(order: int) -> list[Fraction]:
    """Taylor coefficients of (1 + u)^(-1/2) through u**order."""
    return list(fseries.inv_sqrt_series(fseries.one_plus_u(order)).coeffs)


def _series_apply(coeffs: list[Fraction], x: NCPoly, weight_max: int) -> NCPoly:
    """Horner evaluation of sum_j coeffs[j] * x**j, truncated by weight.

    Every word of x**j weighs at least j times the lightest word of x, so
    the series stops at order weight_max // w_min; coefficients beyond it
    are ignored.  An argument with a weight-0 word has no such order.
    """
    order = len(coeffs) - 1
    if not x.is_zero:
        w_min = min(w.weight for w, _ in x.items())
        if w_min == 0:
            raise ValueError("series argument has a weight-0 word; its truncation is not exact")
        order = min(order, weight_max // w_min)
    acc = scalar(coeffs[order])
    for c in reversed(coeffs[:order]):
        acc = mul(acc, x, weight_max) + scalar(c)
    return acc


class EriksenPipeline:
    """Caches the stages h -> h^2 -> K -> lambda -> D -> U -> H_FW."""

    def __init__(self, weight_max: int = DEFAULT_WEIGHT_MAX):
        if weight_max < 1:
            raise ValueError("weight_max must be >= 1")
        self.weight_max = weight_max

    @cached_property
    def h(self) -> NCPoly:
        return from_word("B", m_power=1) + e_atom() + o_atom()

    @cached_property
    def h_squared(self) -> NCPoly:
        return mul(self.h, self.h, self.weight_max)

    @cached_property
    def k(self) -> NCPoly:
        """K = H^2/m^2 - 1 = 2 beta E/m + (E^2 + {E,O} + O^2)/m^2, weight >= 2."""
        return self.h_squared.times_m(-2) - one()

    @cached_property
    def sign_operator(self) -> NCPoly:
        coeffs = _inv_sqrt_coeffs(self.weight_max)
        inv_root = _series_apply(coeffs, self.k, self.weight_max)
        return mul(self.h.times_m(-1), inv_root, self.weight_max)

    @cached_property
    def denominator(self) -> NCPoly:
        lam = self.sign_operator
        beta = beta_atom()
        return (
            scalar(2)
            + mul(beta, lam, self.weight_max)
            + mul(lam, beta, self.weight_max)
        )

    @cached_property
    def unitary(self) -> NCPoly:
        lam = self.sign_operator
        beta = beta_atom()
        delta = self.denominator - scalar(4)
        if not delta.odd_part().is_zero:
            raise NonEvenDenominator(delta.odd_part().pretty())
        coeffs = _inv_sqrt_coeffs(self.weight_max)
        inv_root = _series_apply(coeffs, delta * Fraction(1, 4), self.weight_max)
        numerator = one() + mul(beta, lam, self.weight_max)
        return mul(numerator, inv_root, self.weight_max) * Fraction(1, 2)

    @cached_property
    def fw_hamiltonian(self) -> NCPoly:
        u = self.unitary
        u_inv = u.beta_conjugate()  # Eriksen identity: U^{-1} = beta U beta
        h_fw = mul(mul(u, self.h, self.weight_max), u_inv, self.weight_max)
        odd = h_fw.odd_part()
        if not odd.is_zero:
            raise ResidualOddPart(min(w.weight for w, _ in odd.items()))
        return h_fw

    def eriksen_condition_residual(self) -> NCPoly:
        """beta*U - adjoint(U)*beta; identically zero for the Eriksen unitary."""
        u = self.unitary
        beta = beta_atom()
        return mul(beta, u, self.weight_max) - mul(u.adjoint(), beta, self.weight_max)

    def unitarity_residual(self) -> NCPoly:
        """U * (beta U beta) - 1; zero to the truncation weight."""
        u = self.unitary
        return mul(u, u.beta_conjugate(), self.weight_max) - one()


def fw_hamiltonian_series(weight_max: int = DEFAULT_WEIGHT_MAX) -> NCPoly:
    return EriksenPipeline(weight_max).fw_hamiltonian


# -- reference series ---------------------------------------------------------


@dataclass(frozen=True)
class ReferenceTerm:
    """One displayed term of the reference series.

    ``tag`` records the term's structure so the grading layer can map it
    to a commutator pattern without re-parsing the expanded words:
    ("mass", k, coeff) for beta*m*(O^2/m^2)**k, ("even_field",) for the
    bare E, ("c1", j, g_j) for the kernel family (1/m^2){g_j t^j, C1}
    with C1 = [O,[O,E]], and ("grade2", name) for everything that a
    single power of the grading parameter cannot reach.
    """

    name: str
    tag: tuple
    poly: NCPoly


MASS_COEFFS = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(-1, 8),
    Fraction(1, 16),
    Fraction(-5, 128),
)

C1_KERNEL_COEFFS = (Fraction(-1, 16), Fraction(3, 64), Fraction(-5, 128))

# Quartic-odd, quadratic-even block: common prefactor (1/256) m^-5 beta.
A24_COEFFICIENTS: dict[str, Fraction] = {
    "acomm_o2_oe_sq": Fraction(24),  # {O^2, ([O,E])^2}
    "o2e_sq": Fraction(-20),  # ([O^2,E])^2
    "acomm_o2_o2ee": Fraction(-14),  # {O^2, [[O^2,E],E]}
    "nest_o_o_o2ee": Fraction(-4),  # [O,[O,[[O^2,E],E]]]
    "nest_o_o_o2e_then_e": Fraction(9, 2),  # [[O,[O,[O^2,E]]],E]
    "comm_ooe_o2e": Fraction(-9, 2),  # [[O,[O,E]],[O^2,E]]
    "comm_o2_o_oee": Fraction(5, 2),  # [O^2,[O,[[O,E],E]]]
}


def _a24_structures(w: int) -> dict[str, NCPoly]:
    E = e_atom()
    O = o_atom()
    o2 = from_word("OO")
    oe = commutator(O, E, w)
    o2e = commutator(o2, E, w)
    o2ee = commutator(o2e, E, w)
    oee = commutator(oe, E, w)
    c1 = commutator(O, oe, w)
    return {
        "acomm_o2_oe_sq": anticommutator(o2, mul(oe, oe, w), w),
        "o2e_sq": mul(o2e, o2e, w),
        "acomm_o2_o2ee": anticommutator(o2, o2ee, w),
        "nest_o_o_o2ee": commutator(O, commutator(O, o2ee, w), w),
        "nest_o_o_o2e_then_e": commutator(commutator(O, commutator(O, o2e, w), w), E, w),
        "comm_ooe_o2e": commutator(c1, o2e, w),
        "comm_o2_o_oee": commutator(o2, commutator(O, oee, w), w),
    }


def reference_terms(
    weight_max: int = DEFAULT_WEIGHT_MAX,
    a24_overrides: Mapping[str, Fraction] | None = None,
) -> list[ReferenceTerm]:
    """The reference series as a list of displayed terms.

    ``a24_overrides`` replaces the leading rational coefficient of the
    named A24 structures; the fault-injection hook for mutation tests.
    """
    if weight_max > 8:
        raise ValueError("reference data is encoded through weight 8 only")
    w = weight_max
    E = e_atom()
    O = o_atom()
    o2 = from_word("OO")
    oe = commutator(O, E, w)
    oee = commutator(oe, E, w)
    c1 = commutator(O, oe, w)

    terms: list[ReferenceTerm] = []

    def _append(name: str, tag: tuple, poly: NCPoly) -> None:
        poly = poly.weight_truncate(w)
        if not poly.is_zero:
            terms.append(ReferenceTerm(name, tag, poly))

    for k, coeff in enumerate(MASS_COEFFS):
        poly = from_word("B" + "OO" * k, m_power=1 - 2 * k, coeff=coeff)
        _append(f"mass_t{k}", ("mass", k, coeff), poly)
    _append("even_field", ("even_field",), E)
    for j, gj in enumerate(C1_KERNEL_COEFFS):
        kernel = from_word("OO" * j, m_power=-2 - 2 * j)
        _append(f"c1_kernel_t{j}", ("c1", j, gj), anticommutator(kernel, c1, w) * gj)

    o2e = commutator(o2, E, w)
    o2o2e = commutator(o2, o2e, w)
    poly = anticommutator(scalar(2).times_m(2) - o2, o2o2e, w)
    _append("g2_even_even_nest", ("grade2", "g2_even_even_nest"), poly.times_m(-6) * Fraction(1, 512))

    poly = mul(beta_atom(), anticommutator(O, oee, w), w)
    _append("g2_odd_field_sq", ("grade2", "g2_odd_field_sq"), poly.times_m(-3) * Fraction(1, 16))

    poly = commutator(O, commutator(oee, E, w), w)
    _append("g2_field_cubed", ("grade2", "g2_field_cubed"), poly.times_m(-4) * Fraction(-1, 32))

    poly = commutator(o2, commutator(o2, c1, w), w)
    _append("g2_even_even_c1", ("grade2", "g2_even_even_c1"), poly.times_m(-6) * Fraction(11, 1024))

    coeffs = dict(A24_COEFFICIENTS)
    if a24_overrides:
        unknown = set(a24_overrides) - set(coeffs)
        if unknown:
            raise KeyError(f"unknown A24 structures: {sorted(unknown)}")
        coeffs.update({k: Fraction(v) for k, v in a24_overrides.items()})
    structures = _a24_structures(w)
    beta = beta_atom()
    for key, structure in structures.items():
        poly = mul(beta, structure, w).times_m(-5) * (coeffs[key] * Fraction(1, 256))
        _append(f"a24_{key}", ("grade2", f"a24_{key}"), poly)
    return terms


def reference_devries_jonker(
    weight_max: int = DEFAULT_WEIGHT_MAX,
    a24_overrides: Mapping[str, Fraction] | None = None,
) -> NCPoly:
    """Expanded reference series, truncated to weight_max."""
    acc = NCPoly()
    for term in reference_terms(weight_max, a24_overrides):
        acc = acc + term.poly
    return acc.weight_truncate(weight_max)


# -- comparison ---------------------------------------------------------------


@dataclass(frozen=True)
class DiffEntry:
    word: Word
    left: Fraction
    right: Fraction


@dataclass(frozen=True)
class DiffReport:
    weight_max: int | None
    term_count: int
    entries: tuple[DiffEntry, ...]

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def to_json_obj(self) -> dict:
        diff = []
        for e in self.entries:
            diff.append(
                {
                    "beta": e.word.beta,
                    "word": e.word.letters,
                    "m_power": e.word.m_power,
                    "left": f"{e.left.numerator}/{e.left.denominator}",
                    "right": f"{e.right.numerator}/{e.right.denominator}",
                }
            )
        return {
            "weight_max": self.weight_max,
            "term_count": self.term_count,
            "diff": diff,
        }


def compare_series(a: NCPoly, b: NCPoly, weight_max: int | None = None) -> DiffReport:
    """Word-by-word exact comparison; an empty report means equality."""
    words = set(w for w, _ in a.items()) | set(w for w, _ in b.items())
    entries = []
    for w in sorted(words, key=Word.sort_key):
        ca = a.coeff(w)
        cb = b.coeff(w)
        if ca != cb:
            entries.append(DiffEntry(w, ca, cb))
    return DiffReport(weight_max, len(words), tuple(entries))

