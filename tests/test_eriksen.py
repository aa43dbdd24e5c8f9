import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from fwlab.eriksen import (
    A24_COEFFICIENTS,
    EriksenPipeline,
    compare_series,
    fw_hamiltonian_series,
    reference_devries_jonker,
    reference_terms,
)
from fwlab.ncalg import (
    Word,
    anticommutator,
    commutator,
    from_word,
    mul,
    poly_from_json_obj,
    poly_to_json_obj,
)

GOLDEN = Path(__file__).parent / "data" / "devries_jonker_w8.json"


def test_h_squared_structure():
    p = EriksenPipeline(8)
    expect = (
        from_word("", m_power=2)
        + from_word("BE", m_power=1, coeff=2)
        + from_word("EE")
        + from_word("EO")
        + from_word("OE")
        + from_word("OO")
    )
    assert p.h_squared == expect


def test_sign_operator_weight_one():
    assert EriksenPipeline(1).sign_operator == from_word("B") + from_word("O", m_power=-1)


def test_sign_operator_weight_two():
    expect = (
        from_word("B")
        + from_word("O", m_power=-1)
        + from_word("BOO", m_power=-2, coeff=F(-1, 2))
    )
    assert EriksenPipeline(2).sign_operator == expect


def test_sign_operator_squares_to_one():
    for w in (2, 4, 6):
        lam = EriksenPipeline(w).sign_operator
        assert mul(lam, lam, w) == from_word("")


def test_unitary_weight_two_matches_exponential():
    # independent oracle: exp(beta O / 2m) truncated at weight 2
    x = from_word("BO", m_power=-1, coeff=F(1, 2))
    oracle = from_word("") + x + mul(x, x, 2) * F(1, 2)
    assert EriksenPipeline(2).unitary == oracle


def test_eriksen_condition_and_unitarity():
    u, beta = EriksenPipeline(6).unitary, from_word("B")
    assert mul(beta, u, 6) == mul(u.adjoint(), beta, 6)  # beta U = U^dagger beta
    assert mul(u, u.beta_conjugate(), 6) == from_word("")  # U (beta U beta) = 1


def test_fw_weight_two():
    expect = (
        from_word("B", m_power=1)
        + from_word("BOO", m_power=-1, coeff=F(1, 2))
        + from_word("E")
    )
    assert fw_hamiltonian_series(2) == expect


def test_fw_weight_four_frozen_words():
    fw = fw_hamiltonian_series(4)
    expect = (
        from_word("B", m_power=1)
        + from_word("E")
        + from_word("BOO", m_power=-1, coeff=F(1, 2))
        + from_word("BOOOO", m_power=-3, coeff=F(-1, 8))
        + from_word("OOE", m_power=-2, coeff=F(-1, 8))
        + from_word("OEO", m_power=-2, coeff=F(1, 4))
        + from_word("EOO", m_power=-2, coeff=F(-1, 8))
    )
    assert fw == expect


def test_fw_equals_reference_at_weight_eight():
    report = compare_series(fw_hamiltonian_series(8), reference_devries_jonker(8), 8)
    assert report.is_empty, report.to_json_obj()


def test_reference_low_weights():
    ref2 = reference_devries_jonker(2)
    expect = (
        from_word("B", m_power=1)
        + from_word("E")
        + from_word("BOO", m_power=-1, coeff=F(1, 2))
    )
    assert ref2 == expect


def test_reference_mass_tail_coefficient():
    ref = reference_devries_jonker(8)
    assert ref.coeff(Word(1, "OOOOOOOO", -7)) == F(-5, 128)


def test_compare_self_is_empty():
    p = reference_devries_jonker(6)
    assert compare_series(p, p).is_empty


def test_compare_detects_a24_perturbation_pattern():
    ref = reference_devries_jonker(8)
    bad = reference_devries_jonker(8, {"acomm_o2_oe_sq": F(23)})
    delta = ref - bad
    oe = commutator(from_word("O"), from_word("E"), 8)
    pattern = (
        mul(from_word("B"), anticommutator(from_word("OO"), mul(oe, oe, 8), 8), 8)
        .times_m(-5)
        * F(1, 256)
    )
    assert delta == pattern
    report = compare_series(reference_devries_jonker(8), bad)
    assert not report.is_empty
    diff_words = {e.word for e in report.entries}
    assert diff_words == {w for w, _ in pattern.items()}


@pytest.mark.parametrize("key", sorted(A24_COEFFICIENTS))
def test_any_a24_mutation_breaks_equality(key):
    bad = reference_devries_jonker(8, {key: A24_COEFFICIENTS[key] + 1})
    report = compare_series(fw_hamiltonian_series(8), bad)
    assert not report.is_empty


def test_a24_override_rejects_unknown_key():
    with pytest.raises(KeyError):
        reference_devries_jonker(8, {"not_a_structure": F(1)})


def test_reference_refuses_weight_above_eight():
    with pytest.raises(ValueError):
        reference_devries_jonker(9)


def test_fw_is_even_at_all_weights():
    for w in range(1, 9):
        assert fw_hamiltonian_series(w).odd_part().is_zero


def test_fw_has_only_even_weights():
    fw = fw_hamiltonian_series(8)
    assert all(word.weight % 2 == 0 for word, _ in fw.items())


def test_fw_is_adjoint_symmetric():
    for w in (4, 6, 8):
        fw = fw_hamiltonian_series(w)
        assert fw.adjoint() == fw


def test_trace_part_preserved():
    for w in range(1, 9):
        p = EriksenPipeline(w)
        # the letter-free words are the weight-0 part
        assert p.fw_hamiltonian.weight_truncate(0) == p.h.weight_truncate(0)


def test_h_commutes_with_inv_sqrt_series():
    p = EriksenPipeline(8)
    from fwlab.eriksen import _inv_sqrt_coeffs, _series_apply

    inv_root = _series_apply(_inv_sqrt_coeffs(8), p.k, 8)
    assert (mul(p.h, inv_root, 8) - mul(inv_root, p.h, 8)).is_zero


def test_independent_weight_levels_consistent():
    # lower-weight runs agree with truncations of higher-weight runs
    fw8 = fw_hamiltonian_series(8)
    for w in (2, 4, 6):
        assert fw_hamiltonian_series(w) == fw8.weight_truncate(w)


def test_reference_terms_weights_within_budget():
    for term in reference_terms(8):
        assert all(word.weight <= 8 for word, _ in term.poly.items())


def test_golden_reference_file():
    obj = json.loads(GOLDEN.read_text())
    assert poly_from_json_obj(obj) == reference_devries_jonker(8)
    assert poly_to_json_obj(reference_devries_jonker(8)) == obj


# -- series order ----------------------------------------------------------------


def _horner_to_full_order(coeffs, x, weight_max):
    """Reference: Horner through every coefficient, whatever survives truncation."""
    acc = from_word("", coeff=coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = mul(acc, x, weight_max) + from_word("", coeff=c)
    return acc


@pytest.mark.parametrize("w", range(1, 13))
def test_series_apply_order_is_exact(w):
    from fwlab.eriksen import _inv_sqrt_coeffs, _series_apply

    p = EriksenPipeline(w)
    full = _inv_sqrt_coeffs(w)
    short = full[: w // 2 + 1]
    for x in (p.k, p.denominator - from_word("", coeff=4)):
        if w >= 2:
            assert min(word.weight for word, _ in x.items()) == 2
        expect = _horner_to_full_order(full, x, w)
        assert _series_apply(full, x, w) == expect
        assert _series_apply(short, x, w) == expect


def test_series_apply_rejects_weight_zero_argument():
    from fwlab.eriksen import _inv_sqrt_coeffs, _series_apply

    with pytest.raises(ValueError):
        _series_apply(_inv_sqrt_coeffs(4), from_word("BOO", m_power=-2) + from_word(""), 4)


# -- weight 12 -------------------------------------------------------------------

# Pinned from the unpruned kernel; the benchmark pins the same value.
W12_SHA256 = "21427d3984ea13fadee30121e0f319ee0d7d4e24d2de754efe92cfc25613cc9b"
W12_STAGE_TERMS = (6, 5, 603, 371, 603, 352)
# Pinned from the kernel that multiplied Fractions pair by pair.
W14_SHA256 = "e8c0a47b95abff4a6a918cf78ff56707cc93efdedb2263f7d97cffcf33787fb0"
W14_STAGE_TERMS = (6, 5, 1589, 980, 1589, 946)
STAGES = ("h_squared", "k", "sign_operator", "denominator", "unitary", "fw_hamiltonian")


def _fw_sha256(pipeline):
    lines = sorted(
        f"{w.beta} {w.letters} {w.m_power} {c.numerator}/{c.denominator}"
        for w, c in pipeline.fw_hamiltonian.items()
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def pipeline12():
    return EriksenPipeline(12)


def test_fw_weight_twelve_even_and_adjoint_symmetric(pipeline12):
    fw = pipeline12.fw_hamiltonian
    assert fw.odd_part().is_zero
    assert fw.adjoint() == fw


def test_weight_twelve_residuals_vanish(pipeline12):
    u, beta = pipeline12.unitary, from_word("B")
    assert mul(beta, u, 12) == mul(u.adjoint(), beta, 12)
    assert mul(u, u.beta_conjugate(), 12) == from_word("")


def test_words_sort_by_their_fields(pipeline12):
    fw = pipeline12.fw_hamiltonian
    json_order = [Word(e["beta"], e["word"], e["m_power"]) for e in poly_to_json_obj(fw)]
    assert sorted(w for w, _ in fw.items()) == json_order


def test_fw_weight_twelve_matches_pinned_hash(pipeline12):
    assert tuple(len(getattr(pipeline12, s)) for s in STAGES) == W12_STAGE_TERMS
    assert _fw_sha256(pipeline12) == W12_SHA256


def test_fw_weight_fourteen_matches_pinned_hash(pipeline12):
    pipeline14 = EriksenPipeline(14)
    assert tuple(len(getattr(pipeline14, s)) for s in STAGES) == W14_STAGE_TERMS
    assert _fw_sha256(pipeline14) == W14_SHA256
    assert pipeline14.fw_hamiltonian.weight_truncate(12) == pipeline12.fw_hamiltonian


def test_weight_levels_consistent_with_weight_twelve(pipeline12):
    fw12 = pipeline12.fw_hamiltonian
    for w in (8, 10):
        assert fw_hamiltonian_series(w) == fw12.weight_truncate(w)


# -- mass dimension ----------------------------------------------------------------

# Each letter has the mass dimension of m, so a stage of dimension d
# carries m^(d - n) on every word of n letters.
STAGE_DIMENSIONS = {
    "h": 1,
    "h_squared": 2,
    "k": 0,
    "sign_operator": 0,
    "denominator": 0,
    "unitary": 0,
    "fw_hamiltonian": 1,
}


@pytest.mark.parametrize("stage", STAGE_DIMENSIONS)
def test_stage_words_carry_the_stage_mass_dimension(pipeline12, stage):
    d = STAGE_DIMENSIONS[stage]
    words = [w for w, _ in getattr(pipeline12, stage).items()]
    assert words and all(w.m_power == d - len(w.letters) for w in words)


@pytest.mark.parametrize("w", range(9))
def test_reference_words_carry_the_mass_dimension_of_h(w):
    for term in reference_terms(w):
        assert all(word.m_power == 1 - len(word.letters) for word, _ in term.poly.items()), term.name
