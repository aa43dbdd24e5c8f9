"""Exact non-commutative polynomial algebra in the atoms E and O.

Elements live in the free associative algebra over the rationals on the
two letters ``E`` (even) and ``O`` (odd), extended by a central
invertible scalar ``m`` and an involution ``beta`` subject to

    beta * beta = 1,    beta * E = E * beta,    beta * O = -O * beta.

Every polynomial is kept in normal form: a rational linear combination
of words ``beta^b * letters * m^k`` with ``b in {0, 1}`` and ``letters``
a string over ``{"E", "O"}``.  Products are truncated by weight, where
an ``O`` letter counts 1 and an ``E`` letter counts 2 (the kinetic and
field power counting of relativistic expansions: O/m is first order in
v/c, E/m second order).  Powers of the central ``m`` carry no weight of
their own; physical expressions keep their m powers balanced so the
weight of a term equals its v/c order.

``from_word`` is the one constructor from symbols: ``from_word("")`` is
1, ``from_word("", coeff=c)`` the scalar c, and ``from_word("E")``,
``from_word("O")`` and ``from_word("B")`` are the atoms and beta.
Polynomials combine with ``+``, ``-``, rational ``*`` and the
weight-truncated ``mul``.

All values are immutable after construction and all operations are pure
functions.  Public coefficients are ``fractions.Fraction`` throughout,
never floats: ``NCPoly(...)``, ``from_word`` and rational ``*`` accept
only ``int`` or ``Fraction``.  Inside ``mul`` each operand is put over
the lcm of its own denominators, products accumulate integer numerators
over the operands' common denominator, and one ``Fraction`` is built per
output word.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

__all__ = [
    "Word",
    "NCPoly",
    "from_word",
    "mul",
    "commutator",
    "anticommutator",
    "poly_to_json_obj",
    "poly_from_json_obj",
]

_ATOM_WEIGHT = {"E": 2, "O": 1}


@lru_cache(maxsize=None)
def _letter_weight(letters: str) -> int:
    return sum(_ATOM_WEIGHT[c] for c in letters)


@lru_cache(maxsize=None)
def _o_count(letters: str) -> int:
    return letters.count("O")


class Word(NamedTuple):
    """Normal-form word ``beta^beta * letters * m^m_power``.

    Construction does not validate: words are checked where they enter
    the algebra (``NCPoly(...)``, ``from_word``, ``poly_from_json_obj``),
    and products of valid words are valid.
    """

    beta: int
    letters: str
    m_power: int

    @property
    def weight(self) -> int:
        return _letter_weight(self.letters)

    @property
    def o_parity(self) -> int:
        """1 when the word anticommutes with beta, 0 when it commutes."""
        return _o_count(self.letters) & 1

    def __str__(self) -> str:
        """``b O^4 E^2 m^-5``: beta, each run of a letter as a power, the mass power."""
        pieces = ["b"] if self.beta else []
        for letter, run in groupby(self.letters):
            count = len(list(run))
            pieces.append(letter if count == 1 else f"{letter}^{count}")
        if self.m_power:
            pieces.append(f"m^{self.m_power}")
        return " ".join(pieces) if pieces else "1"


def _check_word(word: Word) -> None:
    if word.beta not in (0, 1):
        raise ValueError(f"beta exponent must be 0 or 1, got {word.beta}")
    if any(c not in _ATOM_WEIGHT for c in word.letters):
        raise ValueError(f"letters must be over E/O, got {word.letters!r}")


class NCPoly:
    """Immutable map from normal-form words to nonzero rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Fraction] | None = None):
        clean: dict[Word, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                _check_word(word)
                c = _rational(coeff)
                if c:
                    clean[word] = c
        self._terms = clean

    # -- inspection ---------------------------------------------------

    def items(self) -> Iterator[tuple[Word, Fraction]]:
        return iter(self._terms.items())

    def coeff(self, word: Word) -> Fraction:
        return self._terms.get(word, Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def words(self) -> list[Word]:
        return sorted(self._terms)

    # -- ring structure ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-dict backed; polynomials are not hashable

    def __add__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        acc = dict(self._terms)
        for word, c in other._terms.items():
            s = acc.get(word, Fraction(0)) + c
            if s:
                acc[word] = s
            else:
                acc.pop(word, None)
        return _wrap(acc)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return _wrap({w: -c for w, c in self._terms.items()})

    def __mul__(self, factor: Fraction | int) -> "NCPoly":
        if not isinstance(factor, (int, Fraction)):
            return NotImplemented
        f = Fraction(factor)
        if not f:
            return NCPoly()
        return _wrap({w: c * f for w, c in self._terms.items()})

    __rmul__ = __mul__

    def times_m(self, power: int) -> "NCPoly":
        """Multiply by the central scalar m**power."""
        return _wrap(
            {Word(w.beta, w.letters, w.m_power + power): c for w, c in self._terms.items()}
        )

    # -- involutions ----------------------------------------------------

    def beta_conjugate(self) -> "NCPoly":
        """Return beta * p * beta (flips the sign of beta-odd words)."""
        return _wrap({w: (-c if w.o_parity else c) for w, c in self._terms.items()})

    def adjoint(self) -> "NCPoly":
        """Formal adjoint: words reversed, all atoms and beta self-adjoint."""
        acc: dict[Word, Fraction] = {}
        for w, c in self._terms.items():
            # adjoint(beta^b w) = reverse(w) beta^b; pushing beta back to the
            # front crosses every O letter once.
            sign = -1 if (w.beta and w.o_parity) else 1
            word = Word(w.beta, w.letters[::-1], w.m_power)
            acc[word] = acc.get(word, Fraction(0)) + sign * c
        return _wrap({w: c for w, c in acc.items() if c})

    # -- grading ---------------------------------------------------------

    def even_part(self) -> "NCPoly":
        return _wrap({w: c for w, c in self._terms.items() if not w.o_parity})

    def odd_part(self) -> "NCPoly":
        return _wrap({w: c for w, c in self._terms.items() if w.o_parity})

    def weight_truncate(self, weight_max: int) -> "NCPoly":
        return _wrap({w: c for w, c in self._terms.items() if w.weight <= weight_max})

    # -- presentation ------------------------------------------------------

    def pretty(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for w in self.words():
            parts.append(f"{self._terms[w]} * {w}")
        return "  +  ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NCPoly({self.pretty()})"


def _rational(coeff: Fraction | int) -> Fraction:
    """``coeff`` as a ``Fraction``; anything but an ``int`` or ``Fraction`` raises ``TypeError``."""
    if not isinstance(coeff, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, got {type(coeff).__name__}")
    return Fraction(coeff)


def _wrap(terms: dict[Word, Fraction]) -> NCPoly:
    p = NCPoly.__new__(NCPoly)
    p._terms = terms
    return p


# -- constructor ----------------------------------------------------------


def from_word(symbols: str, m_power: int = 0, coeff: Fraction | int = 1) -> NCPoly:
    """Build a single-word polynomial from a raw symbol string.

    ``symbols`` is read left to right over the alphabet ``B`` (beta),
    ``E``, ``O``.  The word is normalized on the fly: each ``B`` is
    pushed to the front, picking up one sign flip per ``O`` letter that
    it crosses, and pairs of betas cancel.
    """
    beta = 0
    sign = 1
    letters: list[str] = []
    o_seen = 0
    for ch in symbols:
        if ch == "B":
            if o_seen & 1:
                sign = -sign
            beta ^= 1
        elif ch in _ATOM_WEIGHT:
            letters.append(ch)
            if ch == "O":
                o_seen += 1
        else:
            raise ValueError(f"unknown symbol {ch!r} (expected B, E or O)")
    c = _rational(coeff) * sign
    if not c:
        return NCPoly()
    return _wrap({Word(beta, "".join(letters), m_power): c})


# -- module-level operations ------------------------------------------------


def _over_lcm(p: NCPoly) -> tuple[int, list[tuple[Word, int]]]:
    """``(d, [(word, c*d)])``: p's terms as integer numerators over the lcm d of its denominators."""
    d = lcm(*(c.denominator for _, c in p.items()))
    return d, [(w, c.numerator * (d // c.denominator)) for w, c in p.items()]


def mul(a: NCPoly, b: NCPoly, weight_max: int) -> NCPoly:
    """Normalized product with all terms of weight > weight_max dropped.

    Each operand is put over the lcm of its own denominators once, the
    pair products accumulate as integer numerators over the common
    denominator ``da*db``, and one ``Fraction`` is built per surviving
    word; words whose numerators cancel to 0 are dropped.
    """
    if weight_max < 0:
        raise ValueError("weight_max must be >= 0")
    da, a_terms = _over_lcm(a)
    db, b_terms = _over_lcm(b)
    acc: dict[Word, int] = {}
    # lightest first, so each row stops at the first b term over budget
    b_items = sorted(((wb.weight, wb, nb) for wb, nb in b_terms), key=itemgetter(0))
    for wa, na in a_terms:
        budget = weight_max - wa.weight
        if budget < 0:
            continue
        a_flip = _o_count(wa.letters) & 1
        for weight_b, wb, nb in b_items:
            if weight_b > budget:
                break
            # move wb's beta through wa's letters: one sign per O crossed
            n = na * nb
            if wb.beta and a_flip:
                n = -n
            word = Word(wa.beta ^ wb.beta, wa.letters + wb.letters, wa.m_power + wb.m_power)
            acc[word] = acc.get(word, 0) + n
    d = da * db
    return _wrap({w: Fraction(n, d) for w, n in acc.items() if n})


def commutator(a: NCPoly, b: NCPoly, weight_max: int) -> NCPoly:
    return mul(a, b, weight_max) - mul(b, a, weight_max)


def anticommutator(a: NCPoly, b: NCPoly, weight_max: int) -> NCPoly:
    return mul(a, b, weight_max) + mul(b, a, weight_max)


# -- serialization -----------------------------------------------------------


def poly_to_json_obj(p: NCPoly) -> list[dict]:
    """Stable JSON form: entries sorted by (beta, word, m_power)."""
    out = []
    for w in p.words():
        c = p.coeff(w)
        out.append(
            {
                "beta": w.beta,
                "word": w.letters,
                "m_power": w.m_power,
                "coeff": f"{c.numerator}/{c.denominator}",
            }
        )
    return out


def poly_from_json_obj(obj: Iterable[Mapping]) -> NCPoly:
    acc: dict[Word, Fraction] = {}
    for entry in obj:
        word = Word(int(entry["beta"]), str(entry["word"]), int(entry["m_power"]))
        _check_word(word)
        acc[word] = acc.get(word, Fraction(0)) + Fraction(entry["coeff"])
    return _wrap({w: c for w, c in acc.items() if c})
