"""Grading audit and even-form equivalence for the relativistic transform.

The closed-form relativistic Hamiltonian (mass operator replaced by the
plain mass, stationary fields)

    H = beta*eps + E - (1/4) { 1/(2 eps^2 + 2 m eps), [O,[O,E]] },
    eps = m*sqrt(1 + t),  t = O^2/m^2,

claims to reproduce the exact series at zeroth and first order in the
grading parameter (one power per phase-space commutation).  Both sides
are brought to the canonical even form

    beta*m*f(t) + E + (1/m^2) { g(t), [O,[O,E]] }

and their rational coefficient functions are compared exactly: f against
sqrt(1+t), g against -1/(8(1 + t + sqrt(1+t))).

Grading rules.  A commutator costs one grade unless its operands can
fail to commute through matrix structure alone, which happens in two
ways: both operands odd (their off-diagonal block matrices anticommute)
or both carrying leading spin structure (spin matrices inside a block do
not commute with each other).  Anticommutators and products add grades.
Even powers of a spin-bearing operand wash out the leading spin
structure (the square of a spin-projected quantity starts with the unit
matrix), which is what makes [O^2, [O,E]]-type patterns cost two grades
while arbitrarily deep [O,[O,...[O,E]...]] nests cost one.  Reported
grades are guaranteed minimums, never equalities.

The pattern nodes live in ``eriksen``, where each reference term is a
commutator pattern evaluated once in the word algebra; the grade filter
grades that same pattern once, so what it drops is what the series sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from . import fseries
from .fseries import RatSeries
from .eriksen import (  # the pattern vocabulary is re-exported below
    ATOM_BETA, ATOM_E, ATOM_F, ATOM_M, ATOM_O, ATOM_X, C1_PATTERN, EVEN, ODD,
    PAcomm, PAtom, PComm, PFunc, PPow, PProd, PScalar, PSum,
    ReferenceTerm, kernel_pattern, mass_pattern, reference_terms,
)

__all__ = [
    "UnclassifiableTerm",
    "ODD", "EVEN", "PAtom", "PScalar", "PComm", "PAcomm", "PProd", "PPow", "PSum", "PFunc",
    "ATOM_O", "ATOM_E", "ATOM_M", "ATOM_F", "ATOM_X", "ATOM_BETA", "C1_PATTERN",
    "grade_audit",
    "GradedEvenForm",
    "ReferenceClassification",
    "classify_reference",
    "eriksen_grade_filter",
    "relativistic_even_form",
    "FormDiffEntry",
    "FormDiff",
    "compare_even_forms",
    "AuditClaim",
    "bch_audit",
]


class UnclassifiableTerm(ValueError):
    """Expression outside the grading vocabulary."""


def _traits(expr) -> tuple[int, str, bool]:
    """(minimum grade, parity, leading spin structure) of a pattern."""
    if isinstance(expr, PAtom):
        return 0, expr.parity, expr.spin
    if isinstance(expr, PScalar):
        return 0, EVEN, False
    if isinstance(expr, PPow):
        g, p, s = _traits(expr.base)
        if expr.exponent < 0:
            raise UnclassifiableTerm("negative pattern powers are not graded")
        even_exp = expr.exponent % 2 == 0
        parity = EVEN if (even_exp or p == EVEN) else ODD
        return g * expr.exponent, parity, (s and not even_exp)
    if isinstance(expr, PProd):
        grade = 0
        parity = EVEN
        spin = False
        for f in expr.factors:
            g, p, s = _traits(f)
            grade += g
            if p == ODD:
                parity = ODD if parity == EVEN else EVEN
            spin = spin or s
        return grade, parity, spin
    if isinstance(expr, PSum):
        if not expr.terms:
            raise UnclassifiableTerm("empty sum")
        traits = [_traits(t) for t in expr.terms]
        parities = {p for _, p, _ in traits}
        if len(parities) != 1:
            raise UnclassifiableTerm("sum mixes parities")
        grade = min(g for g, _, _ in traits)
        # leading spin structure is that of the lowest-grade contributions
        spin = any(s for g, _, s in traits if g == grade)
        return grade, parities.pop(), spin
    if isinstance(expr, (PComm, PAcomm)):
        ga, pa, sa = _traits(expr.a)
        gb, pb, sb = _traits(expr.b)
        parity = EVEN if pa == pb else ODD
        free = isinstance(expr, PAcomm) or (pa == ODD and pb == ODD) or (sa and sb)
        return ga + gb + (0 if free else 1), parity, sa or sb
    if isinstance(expr, PFunc):
        g, p, s = _traits(expr.arg)
        if expr.odd:
            if p != ODD:
                raise UnclassifiableTerm(f"odd function {expr.name} of an even argument")
            return g, ODD, s
        if p != EVEN:
            raise UnclassifiableTerm(f"function {expr.name} of an odd argument")
        return g, EVEN, s
    raise UnclassifiableTerm(f"unknown pattern node {expr!r}")


def grade_audit(expr) -> int:
    """Minimum grade of a pattern expression under the rules above."""
    grade, _, _ = _traits(expr)
    return grade


# -- canonical even form -------------------------------------------------------


@dataclass(frozen=True)
class GradedEvenForm:
    """beta*m*f(t) + E + (1/m^2){g(t), [O,[O,E]]}, the flat-mass even form."""

    f: RatSeries
    e_term: bool
    g: RatSeries

    def to_json_obj(self) -> dict:
        return {
            "f": self.f.to_json_obj(),
            "e_term": self.e_term,
            "g": self.g.to_json_obj(),
        }


@dataclass(frozen=True)
class ReferenceClassification:
    """Reference terms split by audited grade; nothing may be lost."""

    backbone: tuple[ReferenceTerm, ...]  # grade 0: mass series and bare E
    grade_one: tuple[ReferenceTerm, ...]
    grade_two_plus: tuple[ReferenceTerm, ...]


def _family_index(pattern, family, weight_max: int) -> int | None:
    """The k with family(k) == pattern among those weight_max reaches."""
    return next((k for k in range(weight_max // 2 + 1) if family(k) == pattern), None)


def classify_reference(weight_max: int = 8) -> ReferenceClassification:
    """Group the reference terms by the audited grade of their patterns.

    Grade 0 must be the bare E or a mass term beta*O^(2k), grade 1 a
    kernel term {O^(2j), [O,[O,E]]}; anything else there is a grading
    or reference-data error.
    """
    backbone = []
    grade_one = []
    grade_two = []
    for term in reference_terms(weight_max):
        grade = grade_audit(term.pattern)
        if grade == 0:
            mass_k = _family_index(term.pattern, mass_pattern, weight_max)
            if term.pattern != ATOM_E and mass_k is None:
                raise UnclassifiableTerm(f"unexpected grade-0 term {term.name}")
            backbone.append(term)
        elif grade == 1:
            if _family_index(term.pattern, kernel_pattern, weight_max) is None:
                raise UnclassifiableTerm(f"unexpected grade-1 term {term.name}")
            grade_one.append(term)
        else:
            grade_two.append(term)
    return ReferenceClassification(tuple(backbone), tuple(grade_one), tuple(grade_two))


def eriksen_grade_filter(weight_max: int = 8) -> GradedEvenForm:
    """Grade-at-most-one part of the reference series in canonical form.

    At weight w the mass series reaches t**(w//2) and the kernel series
    t**((w-4)//2) (the bare double commutator already has weight 4).
    ``e_term`` holds only when the bare E enters with coefficient exactly 1.
    """
    if weight_max < 4:
        raise ValueError("the kernel family needs weight_max >= 4")
    cls = classify_reference(weight_max)
    f_coeffs = [Fraction(0)] * (weight_max // 2 + 1)
    e_term = False
    for term in cls.backbone:
        if term.pattern == ATOM_E:
            e_term = term.coeff == 1
        else:
            f_coeffs[_family_index(term.pattern, mass_pattern, weight_max)] = term.coeff
    g_coeffs = [Fraction(0)] * ((weight_max - 4) // 2 + 1)
    for term in cls.grade_one:
        g_coeffs[_family_index(term.pattern, kernel_pattern, weight_max)] = term.coeff
    return GradedEvenForm(
        f=RatSeries(tuple(f_coeffs)),
        e_term=e_term,
        g=RatSeries(tuple(g_coeffs)),
    )


def relativistic_even_form(order_max: int = 8) -> GradedEvenForm:
    """Canonical form of the closed-form relativistic Hamiltonian.

    With the flat mass, eps = m*sqrt(1+t) turns the kernel
    1/(2 eps^2 + {eps, m}) into 1/(2 m^2 (1 + t + sqrt(1+t))), so

        f(t) = sqrt(1+t),
        g(t) = -1 / (8 (1 + t + sqrt(1+t))),

    and the beta*[O,[O,M]] kernel vanishes identically.
    """
    one_plus_t = fseries.series([1, 1], order_max)
    root = fseries.sqrt_series(one_plus_t)
    denom = one_plus_t + root
    g = fseries.inverse(denom) * Fraction(-1, 8)
    return GradedEvenForm(f=root, e_term=True, g=g)


# -- comparison ---------------------------------------------------------------


@dataclass(frozen=True)
class FormDiffEntry:
    component: str  # "f", "g" or "e"
    power: int | None
    left: Fraction | bool
    right: Fraction | bool


@dataclass(frozen=True)
class FormDiff:
    f_order: int
    g_order: int
    entries: tuple[FormDiffEntry, ...]

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def to_json_obj(self) -> dict:
        return {
            "f_order": self.f_order,
            "g_order": self.g_order,
            "diff": [
                {
                    "component": e.component,
                    "power": e.power,
                    "left": str(e.left),
                    "right": str(e.right),
                }
                for e in self.entries
            ],
        }


def compare_even_forms(
    a: GradedEvenForm, b: GradedEvenForm, f_order: int, g_order: int
) -> FormDiff:
    if f_order > min(a.f.order_max, b.f.order_max):
        raise ValueError("f_order exceeds the available series data")
    if g_order > min(a.g.order_max, b.g.order_max):
        raise ValueError("g_order exceeds the available series data")
    entries: list[FormDiffEntry] = []
    if a.e_term != b.e_term:
        entries.append(FormDiffEntry("e", None, a.e_term, b.e_term))
    for k in range(f_order + 1):
        if a.f[k] != b.f[k]:
            entries.append(FormDiffEntry("f", k, a.f[k], b.f[k]))
    for k in range(g_order + 1):
        if a.g[k] != b.g[k]:
            entries.append(FormDiffEntry("g", k, a.g[k], b.g[k]))
    return FormDiff(f_order, g_order, tuple(entries))


# -- exponential-composition audit ----------------------------------------------


@dataclass(frozen=True)
class AuditClaim:
    name: str
    min_grade: int
    note: str


_EPS_PATTERN = PFunc("sqrt", PSum((PPow(ATOM_M, 2), PPow(ATOM_O, 2))))
_X2 = PPow(ATOM_X, 2)
# { 1/sqrt(1+X^2), [X, F] }
_ODD_RESIDUAL_MAIN_KERNEL = PAcomm(PFunc("inv_sqrt_one_plus", _X2), PComm(ATOM_X, ATOM_F))
# { X / (sqrt(1+X^2)(1+sqrt(1+X^2))), [sqrt(1+X^2), F] }
_ODD_RESIDUAL_SECOND_KERNEL = PAcomm(
    PProd((ATOM_X, PFunc("inv_norm", _X2))), PComm(PFunc("sqrt_one_plus", _X2), ATOM_F)
)
# S' ~ { 1/eps, O'_main }
_SECOND_GENERATOR = PAcomm(PFunc("inverse", _EPS_PATTERN), _ODD_RESIDUAL_MAIN_KERNEL)
# [S, S'] ~ beta { arctan X, S' }
_GENERATOR_COMMUTATOR = PProd(
    (ATOM_BETA, PAcomm(PFunc("arctan", ATOM_X, odd=True), _SECOND_GENERATOR))
)
_TRANSFORMED_EVEN_HAMILTONIAN = PSum((
    PProd((ATOM_BETA, _EPS_PATTERN)),
    ATOM_F,
    PAcomm(PFunc("inverse", _EPS_PATTERN), PComm(ATOM_O, PComm(ATOM_O, ATOM_F))),
))
_LEADING_CORRECTION = PComm(_GENERATOR_COMMUTATOR, _TRANSFORMED_EVEN_HAMILTONIAN)


def bch_audit() -> tuple[AuditClaim, ...]:
    """Grade bookkeeping for the two-step exponential composition.

    The first transformation leaves an odd residual of grade one; the
    second generator built from it is also grade one; composing the two
    exponentials deviates from a single exponential by the commutator of
    the generators, and the induced correction to the even Hamiltonian
    is grade two and can be dropped.  The second residual kernel enters
    nothing downstream: it is part of the removed odd term and is
    excluded from the even-form equality claim.
    """
    rows = [
        ("odd_residual_main_kernel", _ODD_RESIDUAL_MAIN_KERNEL, "removed by the second transformation"),
        ("odd_residual_second_kernel", _ODD_RESIDUAL_SECOND_KERNEL, "neglected approximation piece; excluded from the even-form equality"),
        ("second_generator", _SECOND_GENERATOR, "generator of the second transformation"),
        ("generator_commutator", _GENERATOR_COMMUTATOR, "deviation of the composed exponentials from a single one"),
        ("leading_correction", _LEADING_CORRECTION, "induced correction to the even Hamiltonian; safely dropped"),
    ]
    return tuple(AuditClaim(name, grade_audit(expr), note) for name, expr, note in rows)
