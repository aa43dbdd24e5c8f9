from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwlab import eriksen, relfw
from fwlab.eriksen import (
    compare_series,
    fw_hamiltonian_series,
    reference_devries_jonker,
    reference_terms,
)
from fwlab.fseries import RatSeries, series
from fwlab.ncalg import NCPoly
from fwlab.relfw import (
    ATOM_BETA,
    ATOM_E,
    ATOM_F,
    ATOM_M,
    ATOM_O,
    ATOM_X,
    C1_PATTERN,
    AuditClaim,
    GradedEvenForm,
    PAcomm,
    PComm,
    PFunc,
    PPow,
    PProd,
    PScalar,
    PSum,
    UnclassifiableTerm,
    bch_audit,
    classify_reference,
    compare_even_forms,
    eriksen_grade_filter,
    grade_audit,
    relativistic_even_form,
)


# -- even forms --------------------------------------------------------------------


def test_relativistic_g_at_zero():
    assert relativistic_even_form(4).g[0] == F(-1, 16)


def test_relativistic_g_through_t2():
    g = relativistic_even_form(8).g
    # -(1/128)(8 - 6t + 5t^2)
    assert (g[0], g[1], g[2]) == (F(-8, 128), F(6, 128), F(-5, 128))


def test_relativistic_f_through_t4():
    f = relativistic_even_form(8).f
    assert f.coeffs[:5] == (F(1), F(1, 2), F(-1, 8), F(1, 16), F(-5, 128))


def test_filter_matches_relativistic_form():
    diff = compare_even_forms(relativistic_even_form(8), eriksen_grade_filter(8), 4, 2)
    assert diff.is_empty


def test_filter_kernel_series():
    filt = eriksen_grade_filter(8)
    assert filt.g == series([F(-1, 16), F(3, 64), F(-5, 128)])
    assert filt.e_term


def test_filter_sees_the_coefficient_of_the_bare_e(monkeypatch):
    # a reference with 2E in place of E must not grade as the closed form
    original = relfw.reference_terms

    def doubled_field(*args, **kwargs):
        return [
            replace(t, coeff=2 * t.coeff, poly=t.poly * 2) if t.name == "even_field" else t
            for t in original(*args, **kwargs)
        ]

    monkeypatch.setattr(relfw, "reference_terms", doubled_field)
    diff = compare_even_forms(relativistic_even_form(8), eriksen_grade_filter(8), 4, 2)
    assert [(e.component, e.left, e.right) for e in diff.entries] == [("e", True, False)]


def test_filter_drops_all_grade_two():
    cls = classify_reference(8)
    dropped = {t.name for t in cls.grade_two_plus}
    assert {"g2_even_even_nest", "g2_odd_field_sq", "g2_field_cubed", "g2_even_even_c1"} <= dropped
    assert sum(name.startswith("a24_") for name in dropped) == 7


def test_classification_partitions_reference():
    cls = classify_reference(8)
    expansion = sum((t.poly for t in cls.backbone + cls.grade_one + cls.grade_two_plus), NCPoly())
    assert compare_series(expansion.weight_truncate(8), reference_devries_jonker(8)).is_empty


_OE = PComm(ATOM_O, ATOM_E)


@pytest.mark.parametrize(
    "table, key, entry, name",
    [
        # beta[[O,E],[O,[O,[O,E]]]] for beta([O^2,E])^2
        ("A24_STRUCTURES", "o2e_sq", PComm(_OE, PComm(ATOM_O, C1_PATTERN)), "a24_o2e_sq"),
        # [[O,E],[[O,E],E]] for [O,[[[O,E],E],E]]
        (
            "GRADE2_TERMS",
            "g2_field_cubed",
            (F(-1, 32), PComm(_OE, PComm(_OE, ATOM_E))),
            "g2_field_cubed",
        ),
    ],
)
def test_audited_pattern_is_the_summed_one(monkeypatch, table, key, entry, name):
    # another grade-2 structure: still dropped by the grade filter, but
    # its value is what the reference sums, so the series comparison fails
    monkeypatch.setitem(getattr(eriksen, table), key, entry)
    assert not compare_series(fw_hamiltonian_series(8), reference_devries_jonker(8)).is_empty
    assert name in {t.name for t in classify_reference(8).grade_two_plus}


@pytest.mark.parametrize(
    "pattern",
    [
        PProd((ATOM_BETA, ATOM_E)),  # grade 0, but neither E nor beta*O^(2k)
        PComm(ATOM_O, PComm(ATOM_E, ATOM_O)),  # grade 1, but not {O^(2j), C1}
        PAcomm(PPow(ATOM_O, 4), PComm(ATOM_O, ATOM_E)),
    ],
)
def test_low_grade_terms_outside_the_families_are_rejected(monkeypatch, pattern):
    monkeypatch.setitem(eriksen.GRADE2_TERMS, "g2_field_cubed", (F(1), pattern))
    with pytest.raises(UnclassifiableTerm):
        classify_reference(8)


@pytest.mark.parametrize("pattern", [PPow(ATOM_O, -1), PFunc("sqrt", PPow(ATOM_O, 2)), ATOM_M])
def test_reference_pattern_without_a_word_value_rejected(monkeypatch, pattern):
    monkeypatch.setitem(eriksen.GRADE2_TERMS, "g2_field_cubed", (F(1), pattern))
    with pytest.raises(ValueError):
        reference_terms(8)


def test_filter_orders_scale_with_weight():
    filt6 = eriksen_grade_filter(6)
    assert filt6.f.order_max == 3
    assert filt6.g.order_max == 1
    assert filt6.g == series([F(-1, 16), F(3, 64)])


def test_compare_self_empty():
    form = relativistic_even_form(6)
    assert compare_even_forms(form, form, 4, 2).is_empty


def test_compare_detects_single_perturbation():
    a = relativistic_even_form(8)
    g = list(a.g.coeffs)
    g[1] += F(1, 128)
    b = GradedEvenForm(f=a.f, e_term=True, g=RatSeries(tuple(g)))
    diff = compare_even_forms(a, b, 4, 2)
    assert len(diff.entries) == 1
    entry = diff.entries[0]
    assert entry.component == "g" and entry.power == 1
    assert entry.right - entry.left == F(1, 128)


def test_compare_rejects_overlong_orders():
    with pytest.raises(ValueError):
        compare_even_forms(relativistic_even_form(3), relativistic_even_form(3), 4, 2)


# -- grading rules -----------------------------------------------------------------

O, E, M, X, F_ = ATOM_O, ATOM_E, ATOM_M, ATOM_X, ATOM_F


@pytest.mark.parametrize(
    "expr,grade",
    [
        (PComm(O, M), 1),
        (PComm(O, E), 1),
        (PComm(O, PComm(O, E)), 1),
        (PComm(O, PComm(O, PComm(O, E))), 1),
        (PComm(O, PComm(O, PComm(O, PComm(O, PComm(O, E))))), 1),
        (PComm(PPow(O, 2), PComm(O, E)), 2),
        (PComm(PPow(O, 2), PComm(PPow(O, 2), E)), 2),
        (PComm(PComm(O, E), E), 2),
        (PComm(X, F_), 1),
        (PAcomm(O, PComm(PComm(O, E), E)), 2),
        (PPow(PComm(O, E), 2), 2),
        (PAcomm(PPow(O, 2), PPow(PComm(O, E), 2)), 2),
        (PAcomm(PPow(O, 2), C1_PATTERN), 1),
        (PProd((ATOM_BETA, PPow(O, 4))), 0),
        (PFunc("anything", PSum((PScalar(), PPow(X, 2)))), 0),
    ],
)
def test_grade_base_rules(expr, grade):
    assert grade_audit(expr) == grade


def test_grades_are_minimums_for_deep_nests():
    # nested even-even commutation keeps adding grades
    inner = PComm(PPow(O, 2), E)
    assert grade_audit(PComm(PPow(O, 2), PComm(PPow(O, 2), inner))) == 3


def test_function_of_odd_argument_rejected():
    with pytest.raises(UnclassifiableTerm):
        grade_audit(PFunc("sqrt", O))


def test_odd_function_of_even_argument_rejected():
    with pytest.raises(UnclassifiableTerm):
        grade_audit(PFunc("arctan", E, odd=True))


def test_mixed_parity_sum_rejected():
    with pytest.raises(UnclassifiableTerm):
        grade_audit(PComm(PSum((O, E)), E))


def test_unknown_node_rejected():
    with pytest.raises(UnclassifiableTerm):
        grade_audit("not a pattern")


_atoms = st.sampled_from([ATOM_O, ATOM_E, ATOM_M, ATOM_X, ATOM_BETA, ATOM_F])


def _patterns(depth):
    if depth == 0:
        return _atoms
    sub = _patterns(depth - 1)
    return st.one_of(
        _atoms,
        st.builds(PComm, sub, sub),
        st.builds(PAcomm, sub, sub),
        st.builds(PPow, sub, st.integers(0, 3)),
        st.builds(lambda a, b: PProd((a, b)), sub, sub),
    )


@given(_patterns(2), _patterns(2))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_grade_additivity_under_products(a, b):
    assert grade_audit(PProd((a, b))) == grade_audit(a) + grade_audit(b)


@given(_patterns(2), _patterns(2))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_anticommutator_adds_grades(a, b):
    assert grade_audit(PAcomm(a, b)) == grade_audit(a) + grade_audit(b)


# -- exponential-composition audit ---------------------------------------------------


def test_bch_audit_claims():
    claims = {c.name: c for c in bch_audit()}
    assert claims["odd_residual_main_kernel"].min_grade == 1
    assert claims["second_generator"].min_grade == 1
    assert claims["generator_commutator"].min_grade == 1
    assert claims["leading_correction"].min_grade == 2
    assert all(isinstance(c, AuditClaim) for c in claims.values())


def test_second_kernel_excluded_but_audited():
    claims = {c.name: c for c in bch_audit()}
    second = claims["odd_residual_second_kernel"]
    assert second.min_grade >= 1
    assert "excluded" in second.note
