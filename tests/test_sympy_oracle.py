"""Second-CAS oracle: the de Vries-Jonker commutator forms expanded by sympy.

The reference series is re-expanded here from its displayed commutator
forms with sympy noncommutative symbols E, O, B (beta) and a central m.
Nothing from fwlab's word algebra is used to build the expansion: the
coefficients are transcribed from the published series, beta is
normal-ordered in this file, and the result is compared word by word
with ``reference_terms(8)``, ``reference_devries_jonker(8)`` and the
committed golden file.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy

from fwlab.eriksen import reference_devries_jonker, reference_terms

GOLDEN = Path(__file__).parent / "data" / "devries_jonker_w8.json"
W = 8

E, O, B = sympy.symbols("E O B", commutative=False)
m = sympy.Symbol("m", positive=True)
R = sympy.Rational


def comm(a, b):
    return a * b - b * a


def acomm(a, b):
    return a * b + b * a


def _letters(factor) -> str:
    base, exp = factor.as_base_exp()
    name = str(base)
    if name not in ("E", "O", "B") or not exp.is_Integer or exp < 1:
        raise AssertionError(f"unexpected noncommutative factor {factor}")
    return name * int(exp)


def normal_form(expr) -> dict[tuple[int, str, int], F]:
    """Expand, push every B to the front and truncate at weight W.

    Each B moved left past an O flips the sign once; B*B = 1.  The key
    is (beta exponent, E/O letters, power of m), as in the golden file.
    """
    out: dict[tuple[int, str, int], F] = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        if term == 0:
            continue
        c_part, nc_part = term.args_cnc()
        coeff, m_power = sympy.Mul(*c_part).as_coeff_exponent(m)
        assert coeff.is_Rational and m_power.is_Integer, term
        symbols = "".join(_letters(f) for f in nc_part)
        sign, beta, letters = 1, 0, []
        for ch in symbols:
            if ch == "B":
                if letters.count("O") % 2:
                    sign = -sign
                beta ^= 1
            else:
                letters.append(ch)
        word = "".join(letters)
        if word.count("O") + 2 * word.count("E") > W:
            continue
        key = (beta, word, int(m_power))
        out[key] = out.get(key, F(0)) + F(int(coeff.p), int(coeff.q)) * sign
    return {k: c for k, c in out.items() if c}


def as_terms(poly) -> dict[tuple[int, str, int], F]:
    return {(w.beta, w.letters, w.m_power): c for w, c in poly.items()}


# -- the displayed series, transcribed ---------------------------------------------

o2 = O * O
oe = comm(O, E)
oee = comm(oe, E)
c1 = comm(O, oe)
o2e = comm(o2, E)
o2ee = comm(o2e, E)

# quartic-odd, quadratic-even block, common prefactor beta m^-5 / 256
A24 = {
    "acomm_o2_oe_sq": (R(24), acomm(o2, oe * oe)),
    "o2e_sq": (R(-20), o2e * o2e),
    "acomm_o2_o2ee": (R(-14), acomm(o2, o2ee)),
    "nest_o_o_o2ee": (R(-4), comm(O, comm(O, o2ee))),
    "nest_o_o_o2e_then_e": (R(9, 2), comm(comm(O, comm(O, o2e)), E)),
    "comm_ooe_o2e": (R(-9, 2), comm(c1, o2e)),
    "comm_o2_o_oee": (R(5, 2), comm(o2, comm(O, oee))),
}

MASS = (R(1), R(1, 2), R(-1, 8), R(1, 16), R(-5, 128))
C1_KERNEL = (R(-1, 16), R(3, 64), R(-5, 128))


def displayed_terms() -> dict[str, object]:
    terms = {f"mass_t{k}": g * B * o2**k * m ** (1 - 2 * k) for k, g in enumerate(MASS)}
    terms["even_field"] = E
    for j, g in enumerate(C1_KERNEL):
        terms[f"c1_kernel_t{j}"] = g * acomm(o2**j * m ** (-2 - 2 * j), c1)
    terms["g2_even_even_nest"] = R(1, 512) * m**-6 * acomm(2 * m**2 - o2, comm(o2, o2e))
    terms["g2_odd_field_sq"] = R(1, 16) * m**-3 * B * acomm(O, oee)
    terms["g2_field_cubed"] = R(-1, 32) * m**-4 * comm(O, comm(oee, E))
    terms["g2_even_even_c1"] = R(11, 1024) * m**-6 * comm(o2, comm(o2, c1))
    for key, (g, structure) in A24.items():
        terms[f"a24_{key}"] = g / 256 * m**-5 * B * structure
    return terms


@pytest.fixture(scope="module")
def sympy_terms():
    return {name: normal_form(expr) for name, expr in displayed_terms().items()}


def test_normal_ordering_rules():
    assert normal_form(O * B) == {(1, "O", 0): F(-1)}
    assert normal_form(B * E * B) == {(0, "E", 0): F(1)}
    assert normal_form(B * O * B * O + O * O) == {}


@pytest.mark.parametrize(
    "group",
    [
        pytest.param(("a24_",), id="a24"),
        pytest.param(("c1_kernel_",), id="c1_kernel"),
        pytest.param(("g2_", "a24_"), id="grade2"),
    ],
)
def test_reference_terms_match_sympy(sympy_terms, group):
    selected = [t for t in reference_terms(W) if t.name.startswith(group)]
    assert selected
    for term in selected:
        assert as_terms(term.poly) == sympy_terms[term.name], term.name


def test_seven_a24_structures_present(sympy_terms):
    names = {t.name for t in reference_terms(W) if t.name.startswith("a24_")}
    assert names == {f"a24_{key}" for key in A24}
    assert all(sympy_terms[name] for name in names)


def _sympy_series(sympy_terms) -> dict[tuple[int, str, int], F]:
    total: dict[tuple[int, str, int], F] = {}
    for terms in sympy_terms.values():
        for key, c in terms.items():
            total[key] = total.get(key, F(0)) + c
    return {k: c for k, c in total.items() if c}


def test_reference_series_matches_sympy(sympy_terms):
    assert as_terms(reference_devries_jonker(W)) == _sympy_series(sympy_terms)


def test_golden_file_matches_sympy(sympy_terms):
    golden = {
        (entry["beta"], entry["word"], entry["m_power"]): F(entry["coeff"])
        for entry in json.loads(GOLDEN.read_text())
    }
    assert golden == _sympy_series(sympy_terms)
