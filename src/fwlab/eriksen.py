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

Each displayed reference term is written once, as a commutator pattern
(the ``P*`` nodes below) with a rational coefficient.  The pattern is
evaluated once in the word algebra, a word of n letters getting m^(1 - n)
since every term has the mass dimension of H, and ``relfw`` grades the
same pattern, so the terms summed here are the terms graded there.

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
from .ncalg import NCPoly, Word, anticommutator, commutator, from_word, mul

__all__ = [
    "NonEvenDenominator",
    "ResidualOddPart",
    "EriksenPipeline",
    "fw_hamiltonian_series",
    # commutator patterns
    "ODD", "EVEN", "PAtom", "PScalar", "PComm", "PAcomm", "PProd", "PPow", "PSum", "PFunc",
    "ATOM_O", "ATOM_E", "ATOM_M", "ATOM_F", "ATOM_X", "ATOM_BETA", "C1_PATTERN",
    "mass_pattern",
    "kernel_pattern",
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
    return list(fseries.inv_sqrt_series(fseries.series([1, 1], order)).coeffs)


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
    acc = from_word("", coeff=coeffs[order])
    for c in reversed(coeffs[:order]):
        acc = mul(acc, x, weight_max) + from_word("", coeff=c)
    return acc


class EriksenPipeline:
    """Caches the stages h -> h^2 -> K -> lambda -> D -> U -> H_FW."""

    def __init__(self, weight_max: int = DEFAULT_WEIGHT_MAX):
        if weight_max < 1:
            raise ValueError("weight_max must be >= 1")
        self.weight_max = weight_max

    @cached_property
    def h(self) -> NCPoly:
        return from_word("B", m_power=1) + from_word("E") + from_word("O")

    @cached_property
    def h_squared(self) -> NCPoly:
        return mul(self.h, self.h, self.weight_max)

    @cached_property
    def k(self) -> NCPoly:
        """K = H^2/m^2 - 1 = 2 beta E/m + (E^2 + {E,O} + O^2)/m^2, weight >= 2."""
        return self.h_squared.times_m(-2) - from_word("")

    @cached_property
    def sign_operator(self) -> NCPoly:
        coeffs = _inv_sqrt_coeffs(self.weight_max)
        inv_root = _series_apply(coeffs, self.k, self.weight_max)
        return mul(self.h.times_m(-1), inv_root, self.weight_max)

    @cached_property
    def denominator(self) -> NCPoly:
        lam = self.sign_operator
        beta = from_word("B")
        return (
            from_word("", coeff=2)
            + mul(beta, lam, self.weight_max)
            + mul(lam, beta, self.weight_max)
        )

    @cached_property
    def unitary(self) -> NCPoly:
        lam = self.sign_operator
        beta = from_word("B")
        delta = self.denominator - from_word("", coeff=4)
        if not delta.odd_part().is_zero:
            raise NonEvenDenominator(delta.odd_part().pretty())
        coeffs = _inv_sqrt_coeffs(self.weight_max)
        inv_root = _series_apply(coeffs, delta * Fraction(1, 4), self.weight_max)
        numerator = from_word("") + mul(beta, lam, self.weight_max)
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


def fw_hamiltonian_series(weight_max: int = DEFAULT_WEIGHT_MAX) -> NCPoly:
    return EriksenPipeline(weight_max).fw_hamiltonian


# -- commutator patterns ------------------------------------------------------
#
# Atoms combined by products, powers, sums, commutators, anticommutators
# and functions; ``_evaluate`` gives the value, ``relfw`` the minimum grade.

ODD = "odd"
EVEN = "even"


@dataclass(frozen=True)
class PAtom:
    name: str
    parity: str
    spin: bool


@dataclass(frozen=True)
class PScalar:
    """Central number; the grading rules ignore ``value``."""

    value: Fraction = Fraction(1)


@dataclass(frozen=True)
class PComm:
    a: object
    b: object


@dataclass(frozen=True)
class PAcomm:
    a: object
    b: object


@dataclass(frozen=True)
class PProd:
    factors: tuple


@dataclass(frozen=True)
class PPow:
    base: object
    exponent: int


@dataclass(frozen=True)
class PSum:
    terms: tuple


@dataclass(frozen=True)
class PFunc:
    """Function of an operator argument.

    Plain functions require an even argument.  ``odd=True`` marks an odd
    power series of an odd argument (arctan-like), which keeps the
    argument's parity and spin structure.
    """

    name: str
    arg: object
    odd: bool = False


ATOM_O = PAtom("O", ODD, True)
ATOM_E = PAtom("E", EVEN, False)
ATOM_M = PAtom("M", EVEN, False)
ATOM_F = PAtom("F", EVEN, False)
ATOM_X = PAtom("X", ODD, True)
ATOM_BETA = PAtom("beta", EVEN, False)

C1_PATTERN = PComm(ATOM_O, PComm(ATOM_O, ATOM_E))

_ATOM_SYMBOLS = {ATOM_O: "O", ATOM_E: "E", ATOM_BETA: "B"}


def _evaluate(expr, w: int, memo: dict) -> NCPoly:
    """Value of a pattern in the word algebra, products truncated at weight w."""
    value = memo.get(expr)
    if value is not None:
        return value
    if isinstance(expr, PAtom):
        if expr not in _ATOM_SYMBOLS:
            raise ValueError(f"atom {expr.name} has no value in the E/O word algebra")
        value = from_word(_ATOM_SYMBOLS[expr])
    elif isinstance(expr, PScalar):
        value = from_word("", coeff=expr.value)
    elif isinstance(expr, PPow):
        if expr.exponent < 0:
            raise ValueError("negative pattern powers have no value")
        value = _evaluate(expr.base, w, memo) if expr.exponent else from_word("")
        if expr.exponent > 1:
            value = mul(_evaluate(PPow(expr.base, expr.exponent - 1), w, memo), value, w)
    elif isinstance(expr, PProd):
        values = [_evaluate(f, w, memo) for f in expr.factors]
        value = values[0] if values else from_word("")
        for factor in values[1:]:
            value = mul(value, factor, w)
    elif isinstance(expr, PSum):
        value = sum((_evaluate(term, w, memo) for term in expr.terms), NCPoly())
    elif isinstance(expr, (PComm, PAcomm)):
        bracket = commutator if isinstance(expr, PComm) else anticommutator
        value = bracket(_evaluate(expr.a, w, memo), _evaluate(expr.b, w, memo), w)
    else:
        raise ValueError(f"pattern node {expr!r} has no value in the E/O word algebra")
    memo[expr] = value
    return value


# -- reference series ---------------------------------------------------------


def mass_pattern(k: int) -> PProd:
    """beta*O^(2k), the k-th term of the mass series beta*m*sqrt(1 + O^2/m^2)."""
    return PProd((ATOM_BETA, PPow(ATOM_O, 2 * k)))


def kernel_pattern(j: int) -> PAcomm:
    """{O^(2j), [O,[O,E]]}, the j-th term of the grade-one kernel family."""
    return PAcomm(PPow(ATOM_O, 2 * j), C1_PATTERN)


MASS_COEFFS = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(-1, 8),
    Fraction(1, 16),
    Fraction(-5, 128),
)

C1_KERNEL_COEFFS = (Fraction(-1, 16), Fraction(3, 64), Fraction(-5, 128))

_O2 = PPow(ATOM_O, 2)
_OE = PComm(ATOM_O, ATOM_E)
_O2E = PComm(_O2, ATOM_E)
_OEE = PComm(_OE, ATOM_E)

# Terms no single power of the grading parameter reaches, outside A24.
GRADE2_TERMS = {
    "g2_even_even_nest": (
        Fraction(1, 512),
        PAcomm(PSum((PScalar(Fraction(2)), PProd((PScalar(Fraction(-1)), _O2)))), PComm(_O2, _O2E)),
    ),
    "g2_odd_field_sq": (Fraction(1, 16), PProd((ATOM_BETA, PAcomm(ATOM_O, _OEE)))),
    "g2_field_cubed": (Fraction(-1, 32), PComm(ATOM_O, PComm(_OEE, ATOM_E))),
    "g2_even_even_c1": (Fraction(11, 1024), PComm(_O2, PComm(_O2, C1_PATTERN))),
}

# Quartic-odd, quadratic-even block: common prefactor (1/256) beta.
A24_COEFFICIENTS: dict[str, Fraction] = {
    "acomm_o2_oe_sq": Fraction(24),
    "o2e_sq": Fraction(-20),
    "acomm_o2_o2ee": Fraction(-14),
    "nest_o_o_o2ee": Fraction(-4),
    "nest_o_o_o2e_then_e": Fraction(9, 2),
    "comm_ooe_o2e": Fraction(-9, 2),
    "comm_o2_o_oee": Fraction(5, 2),
}

A24_STRUCTURES = {
    "acomm_o2_oe_sq": PAcomm(_O2, PPow(_OE, 2)),  # {O^2, ([O,E])^2}
    "o2e_sq": PPow(_O2E, 2),  # ([O^2,E])^2
    "acomm_o2_o2ee": PAcomm(_O2, PComm(_O2E, ATOM_E)),  # {O^2, [[O^2,E],E]}
    "nest_o_o_o2ee": PComm(ATOM_O, PComm(ATOM_O, PComm(_O2E, ATOM_E))),  # [O,[O,[[O^2,E],E]]]
    "nest_o_o_o2e_then_e": PComm(PComm(ATOM_O, PComm(ATOM_O, _O2E)), ATOM_E),  # [[O,[O,[O^2,E]]],E]
    "comm_ooe_o2e": PComm(C1_PATTERN, _O2E),  # [[O,[O,E]],[O^2,E]]
    "comm_o2_o_oee": PComm(_O2, PComm(ATOM_O, _OEE)),  # [O^2,[O,[[O,E],E]]]
}


@dataclass(frozen=True)
class ReferenceTerm:
    """One displayed term: ``coeff`` times ``pattern``, with masses restored.

    ``poly`` is the pattern's value at the truncation weight.  Every term
    has the mass dimension of H, so a word of n letters carries m^(1 - n).
    """

    name: str
    coeff: Fraction
    pattern: object
    poly: NCPoly


def reference_terms(
    weight_max: int = DEFAULT_WEIGHT_MAX,
    a24_overrides: Mapping[str, Fraction] | None = None,
) -> list[ReferenceTerm]:
    """The reference series as a list of displayed terms.

    ``a24_overrides`` replaces the leading rational coefficient of the
    named A24 structures; the fault-injection hook for mutation tests.
    Terms with no word up to ``weight_max`` are left out.
    """
    if weight_max > 8:
        raise ValueError("reference data is encoded through weight 8 only")
    coeffs = dict(A24_COEFFICIENTS)
    if a24_overrides:
        unknown = set(a24_overrides) - set(coeffs)
        if unknown:
            raise KeyError(f"unknown A24 structures: {sorted(unknown)}")
        coeffs.update({k: Fraction(v) for k, v in a24_overrides.items()})
    table = [
        *((f"mass_t{k}", c, mass_pattern(k)) for k, c in enumerate(MASS_COEFFS)),
        ("even_field", Fraction(1), ATOM_E),
        *((f"c1_kernel_t{j}", g, kernel_pattern(j)) for j, g in enumerate(C1_KERNEL_COEFFS)),
        *((name, c, pattern) for name, (c, pattern) in GRADE2_TERMS.items()),
        *(
            (f"a24_{key}", coeffs[key] / 256, PProd((ATOM_BETA, structure)))
            for key, structure in A24_STRUCTURES.items()
        ),
    ]
    memo: dict = {}
    terms = []
    for name, coeff, pattern in table:
        value = _evaluate(pattern, weight_max, memo).weight_truncate(weight_max)
        poly = NCPoly(
            {Word(w.beta, w.letters, 1 - len(w.letters)): c * coeff for w, c in value.items()}
        )
        if not poly.is_zero:
            terms.append(ReferenceTerm(name, coeff, pattern, poly))
    return terms


def reference_devries_jonker(
    weight_max: int = DEFAULT_WEIGHT_MAX,
    a24_overrides: Mapping[str, Fraction] | None = None,
) -> NCPoly:
    """Expanded reference series, truncated to weight_max."""
    acc = NCPoly()
    for term in reference_terms(weight_max, a24_overrides):
        acc = acc + term.poly
    return acc


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
    for w in sorted(words):
        ca = a.coeff(w)
        cb = b.coeff(w)
        if ca != cb:
            entries.append(DiffEntry(w, ca, cb))
    return DiffReport(weight_max, len(words), tuple(entries))

