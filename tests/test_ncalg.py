import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import coeffs, ncpolys, raw_symbol_words, words
from fwlab.ncalg import (
    NCPoly,
    Word,
    anticommutator,
    commutator,
    from_word,
    mul,
    poly_from_json_obj,
    poly_to_json_obj,
)

W = 8


def test_beta_push_single():
    # O*beta -> -beta*O
    assert from_word("OB") == from_word("BO", coeff=-1)


def test_beta_sandwich_even_atom():
    # beta*E*beta -> E
    assert from_word("BEB") == from_word("E")


def test_beta_sandwich_cancels_square():
    # beta*O*beta*O + O*O -> 0
    assert (from_word("BOBO") + from_word("OO")).is_zero


def test_mul_beta_odd_square():
    bo = from_word("BO", m_power=-1)
    assert mul(bo, bo, W) == from_word("OO", m_power=-2, coeff=-1)


def test_mul_identity_truncates():
    p = from_word("EO", m_power=-1) + from_word("O", coeff=F(1, 3))
    assert mul(from_word(""), p, 2) == p.weight_truncate(2)
    assert mul(from_word(""), p, W) == p


def test_mul_drops_overweight():
    # E/m * O/m has weight 3
    assert mul(
        from_word("E", m_power=-1), from_word("O", m_power=-1), 2
    ).is_zero


def test_commutator_self_is_zero():
    assert commutator(from_word("E"), from_word("E"), W).is_zero


def test_anticommutator_beta_betao():
    assert anticommutator(from_word("B"), from_word("BO"), W).is_zero


def test_commutator_free_atoms_do_not_reduce():
    o2 = from_word("OO")
    got = commutator(o2, from_word("E"), W)
    assert got == from_word("OOE") - from_word("EOO")


def test_even_odd_split_dirac():
    h = from_word("B", m_power=1) + from_word("E") + from_word("O")
    even, odd = h.even_part(), h.odd_part()
    assert even == from_word("B", m_power=1) + from_word("E")
    assert odd == from_word("O")


def test_even_odd_split_beta_oe():
    p = from_word("BOE")
    even, odd = p.even_part(), p.odd_part()
    assert even.is_zero
    assert odd == p


def test_even_odd_split_zero():
    even, odd = NCPoly().even_part(), NCPoly().odd_part()
    assert even.is_zero and odd.is_zero


def test_identity_part():
    # the letter-free words (scalars and beta times scalars) are the weight-0 part
    p = from_word("B", m_power=1) + from_word("E") + from_word("", coeff=3)
    assert p.weight_truncate(0) == from_word("B", m_power=1) + from_word("", coeff=3)


def test_weight_examples():
    assert Word(0, "EO", -2).weight == 3
    assert Word(1, "OO", -2).weight == 2
    assert Word(1, "", 1).weight == 0


# -- rewrite confluence -----------------------------------------------------------


def _random_order_normalize(symbols: str, seed: int):
    """One-step rewrites applied in random order: the confluence oracle."""
    rng = random.Random(seed)
    state = [(F(1), list(symbols), 0)]  # (coeff, symbols, m_power)
    # repeatedly pick an applicable local rule anywhere until normal form
    changed = True
    while changed:
        changed = False
        coeff, seq, m_power = state[0]
        sites = []
        for i in range(len(seq) - 1):
            a, b = seq[i], seq[i + 1]
            if a == "B" and b == "B":
                sites.append(("BB", i))
            elif a != "B" and b == "B":
                sites.append(("push", i))
        if sites:
            rule, i = rng.choice(sites)
            if rule == "BB":
                del seq[i : i + 2]
            else:
                a = seq[i]
                seq[i], seq[i + 1] = seq[i + 1], a
                if a == "O":
                    coeff = -coeff
            state[0] = (coeff, seq, m_power)
            changed = True
    coeff, seq, m_power = state[0]
    return NCPoly({Word(len([c for c in seq if c == "B"]), "".join(c for c in seq if c != "B"), m_power): coeff})


@given(raw_symbol_words())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_normalize_confluent(symbols):
    reference = from_word(symbols)
    for seed in (1, 2, 3):
        assert _random_order_normalize(symbols, seed) == reference


@given(ncpolys())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_normalize_idempotent(p):
    # construction normalizes, so rebuilding a polynomial from its terms is the identity
    assert NCPoly(dict(p.items())) == p


# -- algebra laws -----------------------------------------------------------------


@given(ncpolys(), ncpolys())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_parity_closure(a, b):
    a_even, a_odd = a.even_part(), a.odd_part()
    b_even, b_odd = b.even_part(), b.odd_part()
    assert mul(a_odd, b_odd, W).odd_part().is_zero
    assert mul(a_odd, b_even, W).even_part().is_zero
    assert mul(a_even, b_even, W).odd_part().is_zero


@given(ncpolys(), ncpolys())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_truncation_coherence(a, b):
    full = mul(a, b, 64)  # large enough to be untruncated for these sizes
    for w in (0, 1, 2, 3, 5):
        assert mul(a, b, w) == full.weight_truncate(w)


@given(ncpolys(), ncpolys(), ncpolys())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_ring_axioms_at_fixed_weight(a, b, c):
    w = 6
    assert mul(a, b + c, w) == mul(a, b, w) + mul(a, c, w)
    assert mul(a + b, c, w) == mul(a, c, w) + mul(b, c, w)
    assert mul(mul(a, b, w), c, w) == mul(a, mul(b, c, w), w)


@given(ncpolys())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_split_matches_beta_conjugation(p):
    even, odd = p.even_part(), p.odd_part()
    conj = p.beta_conjugate()
    assert even == (p + conj) * F(1, 2)
    assert odd == (p - conj) * F(1, 2)
    assert even + odd == p


@given(ncpolys(), ncpolys())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_adjoint_antihomomorphism(a, b):
    assert mul(a, b, 64).adjoint() == mul(b.adjoint(), a.adjoint(), 64)
    assert a.adjoint().adjoint() == a


@given(ncpolys())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_json_roundtrip(p):
    assert poly_from_json_obj(poly_to_json_obj(p)) == p


def test_json_form_is_sorted_and_stringly():
    p = from_word("OO", m_power=-2, coeff=F(-1, 2)) + from_word("E") + from_word("B")
    obj = poly_to_json_obj(p)
    assert [entry["coeff"] for entry in obj] == ["1/1", "-1/2", "1/1"]
    keys = [(entry["beta"], entry["word"], entry["m_power"]) for entry in obj]
    assert keys == sorted(keys)


def test_mul_rejects_negative_weight():
    with pytest.raises(ValueError):
        mul(from_word(""), from_word(""), -1)


def test_m_scalar_is_central():
    p = from_word("BOE", coeff=F(2, 3))
    m2 = from_word("").times_m(2)
    assert mul(m2, p, W) == mul(p, m2, W)


def test_from_word_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        from_word("BEOX")


# -- pruned product against the unpruned double loop ---------------------------------


def _naive_mul(a, b, weight_max):
    """Every pair of terms, in the given order, truncated only at the end."""
    acc = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            c = ca * cb
            if wb.beta and wa.o_parity:
                c = -c
            word = Word(wa.beta ^ wb.beta, wa.letters + wb.letters, wa.m_power + wb.m_power)
            acc[word] = acc.get(word, F(0)) + c
    return NCPoly({w: c for w, c in acc.items() if c}).weight_truncate(weight_max)


@st.composite
def mixed_polys(draw):
    """At least one beta word, one odd word and two distinct weights."""
    ws = draw(st.lists(words, min_size=3, max_size=8, unique=True))
    assume(any(w.beta for w in ws))
    assume(any(w.o_parity for w in ws))
    assume(len({w.weight for w in ws}) > 1)
    return NCPoly({w: draw(coeffs) for w in ws})


@given(ncpolys(max_terms=6), mixed_polys())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mul_matches_unpruned_product(a, b):
    for w in range(0, 11):
        assert mul(a, b, w) == _naive_mul(a, b, w)
        assert mul(b, a, w) == _naive_mul(b, a, w)


# -- integer numerators over coprime denominators -------------------------------------

# Pairwise coprime: primes near 10**6, a Mersenne prime and powers of 2, so the
# lcm of an operand's denominators is large and a missing factor shows.
_COPRIME_DENOMINATORS = (999_983, 1_000_003, 2**61 - 1, 2**17, 2**40)

big_coeffs = st.builds(
    F, st.integers(-(10**6), 10**6).filter(bool), st.sampled_from(_COPRIME_DENOMINATORS)
)


@st.composite
def big_denominator_polys(draw, max_terms=6):
    ws = draw(st.lists(words, max_size=max_terms, unique=True))
    return NCPoly({w: draw(big_coeffs) for w in ws})


def _assert_lowest_terms(p):
    for _, c in p.items():
        assert type(c) is F and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


@given(big_denominator_polys(), big_denominator_polys())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mul_is_exact_over_coprime_denominators(a, b):
    for w in range(0, 11):
        for x, y in ((a, b), (b, a)):
            got = mul(x, y, w)
            assert got == _naive_mul(x, y, w)
            _assert_lowest_terms(got)


_P, _Q, _D = 999_983, 2**61 - 1, 2**40


@pytest.mark.parametrize(
    "a, b, gone",
    [
        # E*O and EO*1 both give EO, with opposite coefficients
        (
            from_word("E", coeff=F(1, _P)) + from_word("EO", coeff=F(-1, _Q)),
            from_word("O", coeff=F(3, _D)) + from_word("", coeff=F(3 * _Q, _P * _D)),
            Word(0, "EO", 0),
        ),
        # O*B = -BO cancels BO*1 through the beta sign
        (
            from_word("O", coeff=F(1, _P)) + from_word("BO", coeff=F(1, _Q)),
            from_word("B", coeff=F(1, _D)) + from_word("", coeff=F(_Q, _P * _D)),
            Word(1, "O", 0),
        ),
    ],
    ids=["letters", "beta_sign"],
)
def test_mul_drops_words_that_cancel_exactly(a, b, gone):
    got = mul(a, b, W)
    assert gone not in dict(got.items()) and not got.is_zero
    assert got == _naive_mul(a, b, W)
    _assert_lowest_terms(got)


def test_mul_with_empty_operand_is_empty():
    p = from_word("BEO", m_power=-1, coeff=F(5, _Q)) + from_word("", coeff=F(1, _D))
    for w in range(0, 5):
        assert mul(NCPoly(), p, w).is_zero
        assert mul(p, NCPoly(), w).is_zero
        assert mul(NCPoly(), NCPoly(), w).is_zero


# -- validation at the boundaries ------------------------------------------------------


@pytest.mark.parametrize(
    "entry",
    [
        {"beta": 2, "word": "EO", "m_power": 0, "coeff": "1/1"},
        {"beta": 0, "word": "EXO", "m_power": -1, "coeff": "1/2"},
    ],
)
def test_json_load_rejects_invalid_words(entry):
    with pytest.raises(ValueError):
        poly_from_json_obj([entry])


@pytest.mark.parametrize("word", [Word(2, "EO", 0), Word(0, "EXO", -1)])
def test_constructor_rejects_invalid_words(word):
    with pytest.raises(ValueError):
        NCPoly({word: 1})


@pytest.mark.parametrize(
    "build",
    [lambda: from_word("E", coeff=0.1), lambda: NCPoly({Word(0, "E", 0): 0.5})],
    ids=["from_word", "NCPoly"],
)
def test_float_coefficients_are_rejected(build):
    with pytest.raises(TypeError):
        build()
