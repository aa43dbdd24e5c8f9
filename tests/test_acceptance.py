"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria complete; every tolerance is pinned here, not configurable.
"""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction as F

import numpy as np

from conftest import random_block_hermitian, random_block_pseudo
from fwlab.eriksen import (
    A24_COEFFICIENTS,
    compare_series,
    fw_hamiltonian_series,
    reference_devries_jonker,
)
from fwlab.fseries import series
from fwlab.matfun import (
    BlockOperator,
    HERMITIAN,
    eriksen_transform_numeric,
    hbar_convergence_study,
    relfw_hamiltonian_numeric,
    spectral_norm,
)
from fwlab.models import (
    LatticeDiracSpec,
    Spin1LandauSpec,
    build_lattice_dirac,
    cosine_potential,
    spin1_mixing_parameter,
    spin1_numeric_spectrum,
    spin1_residual_scaling,
)
from fwlab.ncalg import NCPoly, Word, mul
from fwlab.relfw import compare_even_forms, eriksen_grade_filter, relativistic_even_form

N_INSTANCES = 200


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[ACCEPTANCE] criterion {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


LATTICE_POTENTIAL = cosine_potential(64, 0.4, (1, 2))


def _lattice(hbar: float) -> LatticeDiracSpec:
    return LatticeDiracSpec(64, 16.0 * math.pi, 1.0, hbar, LATTICE_POTENTIAL)


SPIN1_G2 = Spin1LandauSpec(mass=1.0, charge=1.0, g_factor=2.0, field=0.02, hbar=1.0, n_max=60)
SPIN1_G25 = replace(SPIN1_G2, g_factor=2.5)


def test_criterion_1_exact_series_reproduction():
    t0 = time.monotonic()
    fw = fw_hamiltonian_series(8)
    diff = compare_series(fw, reference_devries_jonker(8), 8)
    mutations_detected = True
    for key, value in A24_COEFFICIENTS.items():
        for delta in (F(1), F(-1, 2)):
            mutated = reference_devries_jonker(8, {key: value + delta})
            if compare_series(fw, mutated).is_empty:
                mutations_detected = False
    elapsed = time.monotonic() - t0
    ok = diff.is_empty and mutations_detected and elapsed < 120.0
    _report(
        1,
        "exact series reproduction at weight 8",
        ok,
        f"diff entries {len(diff.entries)}, mutations detected {mutations_detected}, {elapsed:.1f}s",
    )


def test_criterion_2_grade_one_equivalence():
    rel = relativistic_even_form(8)
    filt = eriksen_grade_filter(8)
    diff = compare_even_forms(rel, filt, f_order=4, g_order=2)
    f_expected = series([1, F(1, 2), F(-1, 8), F(1, 16), F(-5, 128)])
    g_expected = series([F(-8, 128), F(6, 128), F(-5, 128)])
    ok = (
        diff.is_empty
        and rel.f.coeffs[:5] == f_expected.coeffs
        and rel.g.coeffs[:3] == g_expected.coeffs
        and filt.f == f_expected
        and filt.g == g_expected
    )
    _report(2, "grade-one equivalence of the even forms", ok, f"{len(diff.entries)} diffs")


def test_criterion_3_exact_transform_property():
    parts = build_lattice_dirac(_lattice(0.1))
    res = eriksen_transform_numeric(parts.block)
    h_norm = spectral_norm(parts.block.matrix)
    ok = res.odd_residual_norm <= 1e-10 * h_norm and res.spectrum_drift <= 1e-9
    _report(
        3,
        "exact numeric transform, lattice N=64",
        ok,
        f"odd {res.odd_residual_norm / h_norm:.2e}, drift {res.spectrum_drift:.2e}",
    )


def test_criterion_4_hbar_squared_validity():
    t0 = time.monotonic()
    rep = hbar_convergence_study(
        lambda hb: build_lattice_dirac(_lattice(hb)), [0.2, 0.1, 0.05, 0.025]
    )
    elapsed = time.monotonic() - t0
    ok = rep.slope >= 1.9 and rep.r_squared >= 0.98 and elapsed < 60.0
    _report(
        4,
        "second-order smallness of the closed-form error",
        ok,
        f"slope {rep.slope:.3f}, R^2 {rep.r_squared:.5f}, {elapsed:.1f}s",
    )


def test_criterion_5_landau_spectrum():
    report = spin1_numeric_spectrum(SPIN1_G2, n_levels=10)
    residual_ok = report.max_relative_residual() <= 1e-8
    degeneracy_ok = True
    triples = 0
    for group in report.degeneracy:
        if group["count_found"] == 3:
            triples += 1
            if group["spread"] > 1e-8 * group["h0"]:
                degeneracy_ok = False
    ok = residual_ok and degeneracy_ok and triples >= 2
    _report(
        5,
        "spin-1 Landau levels at g=2",
        ok,
        f"max residual {report.max_relative_residual():.2e}, triple groups {triples}",
    )


def test_criterion_6_anomalous_moment_field_scaling():
    scaling = spin1_residual_scaling(SPIN1_G25, n_halvings=3, n_levels=10)
    ok = scaling["exponent"] >= 2.7
    _report(
        6,
        "cubic field scaling of the g=2.5 residual",
        ok,
        f"exponent {scaling['exponent']:.3f}, R^2 {scaling['r_squared']:.5f}",
    )


def test_criterion_7_polarization_table():
    report = spin1_numeric_spectrum(SPIN1_G25, n_levels=10)
    sz_err = 0.0
    for row in report.expectations:
        lam = row["lambda"]
        n = row["n"]
        bfrak = spin1_mixing_parameter(SPIN1_G25, n, lam)
        want = lam / math.sqrt(1.0 + bfrak * bfrak)
        sz_err = max(sz_err, abs(row["S_z"] - want))
    ok = sz_err <= 1e-6 and report.zero_means_max <= 1e-8
    _report(
        7,
        "polarization expectations at g=2.5",
        ok,
        f"max S_z error {sz_err:.2e}, max in-plane mean {report.zero_means_max:.2e}",
    )


def _random_poly(rng: random.Random, max_terms=4) -> NCPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        letters = "".join(rng.choice("EO") for _ in range(rng.randint(0, 4)))
        word = Word(rng.randint(0, 1), letters, rng.randint(-3, 3))
        terms[word] = F(rng.randint(-8, 8), rng.randint(1, 8))
    return NCPoly(terms)


def test_criterion_8_property_suites(rng):
    failures = []

    sym = random.Random(97)
    for _ in range(N_INSTANCES):
        a, b = _random_poly(sym), _random_poly(sym)
        a_even, a_odd = a.even_part(), a.odd_part()
        b_even, b_odd = b.even_part(), b.odd_part()
        if not mul(a_odd, b_odd, 8).odd_part().is_zero:
            failures.append("parity closure: odd*odd not even")
        if not mul(a_odd, b_even, 8).even_part().is_zero:
            failures.append("parity closure: odd*even not odd")
        full = mul(a, b, 64)
        if any(mul(a, b, w) != full.weight_truncate(w) for w in (0, 2, 4)):
            failures.append("truncation coherence")

    for w in range(1, 9):
        fw = fw_hamiltonian_series(w)
        if fw.adjoint() != fw:
            failures.append(f"adjoint symmetry of the transformed series at weight {w}")
    for _ in range(N_INSTANCES):
        p = _random_poly(sym)
        q = _random_poly(sym)
        if (mul(p, q, 64)).adjoint() != mul(q.adjoint(), p.adjoint(), 64):
            failures.append("adjoint antihomomorphism")

    for i in range(N_INSTANCES // 2):
        blk = random_block_hermitian(rng, 2 + i % 4)
        res = eriksen_transform_numeric(blk)
        if (
            np.linalg.norm(blk.beta @ res.u - res.u.conj().T @ blk.beta, 2) > 1e-10
            or np.linalg.norm(res.u @ res.u.conj().T - np.eye(blk.dim), 2) > 1e-10
        ):
            failures.append("unitarity / Eriksen condition (hermitian)")
    for i in range(N_INSTANCES // 2):
        blk = random_block_pseudo(rng, 2 + i % 4)
        res = eriksen_transform_numeric(blk)
        eye = np.eye(blk.dim)
        if np.linalg.norm(res.u @ blk.beta @ res.u.conj().T @ blk.beta - eye, 2) > 1e-10:
            failures.append("pseudo-unitarity")

    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    for i in range(N_INSTANCES):
        half = 2 + i % 5
        n = 2 * half
        beta = np.diag([1.0] * half + [-1.0] * half).astype(complex)
        d_o = np.diag(rng.uniform(-0.5, 0.5, size=half))
        d_e = np.diag(rng.uniform(-0.3, 0.3, size=half))
        m_op = np.eye(n, dtype=complex)
        e_op = np.kron(np.eye(2), d_e).astype(complex)
        o_op = np.kron(sx, d_o).astype(complex)
        h = beta + e_op + o_op
        blk = BlockOperator(h, beta, HERMITIAN)
        res = eriksen_transform_numeric(blk)
        closed = relfw_hamiltonian_numeric(m_op, e_op, o_op, beta)
        even = 0.5 * (res.h_fw + beta @ res.h_fw @ beta)
        if np.linalg.norm(even - closed, 2) > 1e-10 * np.linalg.norm(h, 2):
            failures.append("degeneration to exactness")

    ok = not failures
    _report(
        8,
        "randomized property suites (200 instances each)",
        ok,
        "; ".join(sorted(set(failures))) if failures else "all properties held",
    )
