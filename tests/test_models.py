import math
from dataclasses import replace

import numpy as np
import pytest

from fwlab.matfun import eriksen_transform_numeric, relfw_hamiltonian_numeric
from fwlab.models import (
    LatticeDiracSpec,
    RHO1,
    SPIN1_SX,
    SPIN1_SY,
    SPIN1_SZ,
    Spin1LandauSpec,
    TruncationTooSmall,
    _retained_projector,
    _spin1_kit,
    build_lattice_dirac,
    build_spin1_landau,
    cosine_potential,
    degeneracy_group,
    group_members,
    lattice_momenta,
    random_smooth_potential,
    spin1_analytic_spectrum,
    spin1_mixing_parameter,
    spin1_numeric_spectrum,
    spin1_residual_scaling,
)

TWO_PI = 2.0 * math.pi


def _lattice(n=32, L=TWO_PI, m=1.0, hbar=0.1, pot=None):
    if pot is None:
        pot = (0.0,) * n
    return LatticeDiracSpec(n, L, m, hbar, pot)


# -- lattice Dirac ----------------------------------------------------------------


def test_free_spectrum_closed_form():
    spec = _lattice()
    parts = build_lattice_dirac(spec)
    ks = lattice_momenta(spec)
    expect = np.sort(np.concatenate([np.sqrt(1 + ks**2), -np.sqrt(1 + ks**2)]))
    got = np.linalg.eigvalsh(parts.block.matrix)
    assert np.max(np.abs(np.sort(got) - expect)) <= 1e-12


@pytest.mark.parametrize("n_sites", [64, 128])
def test_free_lattice_fw_levels_are_relativistic_dispersion(n_sites):
    # zero potential: the exact transform's positive-energy block has the
    # levels sqrt(m^2 + p(k)^2) of the momentum-diagonal 2x2 blocks
    spec = _lattice(n=n_sites, L=16.0 * math.pi, hbar=1.0)
    fw = eriksen_transform_numeric(build_lattice_dirac(spec).block)
    upper = fw.h_fw[:n_sites, :n_sites]
    levels = np.linalg.eigvalsh(0.5 * (upper + upper.conj().T))
    exact = np.sort(np.sqrt(spec.mass**2 + lattice_momenta(spec) ** 2))
    assert np.max(np.abs(levels - exact) / exact) <= 1e-12


def test_constant_potential_shifts_spectrum():
    base = build_lattice_dirac(_lattice(n=16))
    shifted = build_lattice_dirac(_lattice(n=16, pot=(0.25,) * 16))
    a = np.sort(np.linalg.eigvalsh(base.block.matrix))
    b = np.sort(np.linalg.eigvalsh(shifted.block.matrix))
    assert np.max(np.abs(b - (a + 0.25))) <= 1e-12


def test_commutator_scales_linearly_in_hbar():
    pot = cosine_potential(32, 0.3, (1, 2))
    hbars = [0.4, 0.2, 0.1, 0.05]
    norms = []
    for hb in hbars:
        parts = build_lattice_dirac(_lattice(n=32, hbar=hb, pot=pot))
        c = parts.o_op @ parts.e_op - parts.e_op @ parts.o_op
        norms.append(np.linalg.norm(c, 2))
    slope = np.polyfit(np.log(hbars), np.log(norms), 1)[0]
    assert abs(slope - 1.0) <= 0.1


def test_split_reassembles_hamiltonian():
    parts = build_lattice_dirac(_lattice(pot=cosine_potential(32, 0.2)))
    h = parts.block.beta @ parts.m_op + parts.e_op + parts.o_op
    assert np.allclose(h, parts.block.matrix)


def test_lattice_validation():
    with pytest.raises(ValueError):
        _lattice(n=8)
    with pytest.raises(ValueError):
        LatticeDiracSpec(16, TWO_PI, 1.0, 0.1, (0.0,) * 15)
    rough = [0.0] * 16
    rough[3] = 2.0
    with pytest.raises(ValueError):
        LatticeDiracSpec(16, TWO_PI, 1.0, 0.1, tuple(rough))


def test_random_smooth_potential_is_deterministic_and_smooth():
    a = random_smooth_potential(64, 0.3, seed=7)
    b = random_smooth_potential(64, 0.3, seed=7)
    assert a == b
    LatticeDiracSpec(64, TWO_PI, 1.0, 0.1, a)  # passes smoothness validation


def test_debroglie_ratio_zero_for_flat_potential():
    parts = build_lattice_dirac(_lattice())
    assert parts.debroglie_ratio == 0.0


# -- spin-1 construction -----------------------------------------------------------


SPEC_G2 = Spin1LandauSpec(mass=1.0, charge=1.0, g_factor=2.0, field=0.02, hbar=1.0, n_max=60)
SPEC_G25 = replace(SPEC_G2, g_factor=2.5)


def test_pi_squared_is_landau_diagonal():
    kit = _spin1_kit(SPEC_G2)
    diag = np.diag(kit.pi_sq)[: SPEC_G2.n_max + 1].real
    expect = SPEC_G2.coupling * (2 * np.arange(SPEC_G2.n_max + 1) + 1)
    assert np.allclose(diag, expect)
    assert np.allclose(kit.pi_sq, np.diag(np.diag(kit.pi_sq)))


def test_canonical_commutator_on_retained_block():
    for charge in (1.0, -1.0):
        spec = replace(SPEC_G2, charge=charge, n_max=20)
        kit = _spin1_kit(spec)
        n_l = spec.n_max + 1
        proj = _retained_projector(n_l, 1)
        comm = kit.pi_x @ kit.pi_y - kit.pi_y @ kit.pi_x
        target = 1j * charge * spec.hbar * spec.field * np.eye(n_l)
        assert np.max(np.abs(proj @ (comm - target) @ proj)) <= 1e-14


def test_g2_kills_field_term_and_spin_part_of_odd():
    kit = _spin1_kit(SPEC_G2)
    assert np.max(np.abs(kit.field_op)) == 0.0
    # Omega reduces to pi^2/2m - (pi.S)^2/m, no S.B piece
    expect = kit.pi_sq / 2.0 - kit.s_dot_pi @ kit.s_dot_pi
    assert np.allclose(kit.odd_op, expect)


def test_spin1_block_is_pseudo_hermitian():
    parts = build_spin1_landau(replace(SPEC_G25, n_max=24))
    h = parts.block.matrix
    beta = parts.block.beta
    bh = beta @ h
    assert np.linalg.norm(bh - bh.conj().T, 2) <= 1e-12 * np.linalg.norm(h, 2)


def test_operator_relations_on_retained_block():
    # [O^2, E] = 0 and [O, E] = rho1 * (e^2 hbar^2 (g-1)(g-2) / 2 m^2) (S.B)^2
    spec = replace(SPEC_G25, n_max=30)
    parts = build_spin1_landau(spec)
    kit = _spin1_kit(spec)
    n_l = spec.n_max + 1
    proj_half = np.kron(np.eye(3), _retained_projector(n_l, 6))
    proj = np.kron(np.eye(2), proj_half)
    o, e = parts.o_op, parts.e_op
    o2e = proj @ (o @ o @ e - e @ o @ o) @ proj
    assert np.max(np.abs(o2e)) <= 1e-12
    oe = proj @ (o @ e - e @ o) @ proj
    m, g, hbar = spec.mass, spec.g_factor, spec.hbar
    coeff = spec.charge**2 * hbar**2 * (g - 1) * (g - 2) / (2 * m * m)
    sb2 = kit.s_dot_b @ kit.s_dot_b
    expect = proj @ np.kron(RHO1, coeff * sb2) @ proj
    assert np.max(np.abs(oe - expect)) <= 1e-12


def test_h0_commutes_with_spin_projections():
    spec = replace(SPEC_G2, n_max=30)
    kit = _spin1_kit(spec)
    n_l = spec.n_max + 1
    h0_sq = (
        spec.mass**2 * np.eye(3 * n_l)
        + kit.pi_sq
        - 2.0 * spec.charge * spec.hbar * kit.s_dot_b
    )
    h0 = np.diag(np.sqrt(np.diag(h0_sq).real))
    proj = np.kron(np.eye(3), _retained_projector(n_l, 4))
    inv_root = np.kron(np.eye(3), np.diag(1.0 / np.sqrt(np.diag(kit.pi_sq)[:n_l].real)))
    s_z = np.kron(SPIN1_SZ, np.eye(n_l))
    s_pi = 0.5 * (kit.s_dot_pi @ inv_root + inv_root @ kit.s_dot_pi)
    txb = np.kron(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2), kit.pi_y) - np.kron(
        np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / math.sqrt(2), kit.pi_x
    )
    s_pxb = 0.5 * (txb @ inv_root + inv_root @ txb)
    scale = np.linalg.norm(h0, 2)
    for s in (s_z, s_pi, s_pxb):
        comm = proj @ (h0 @ s - s @ h0) @ proj
        assert np.linalg.norm(comm, 2) <= 1e-10 * scale * np.linalg.norm(s, 2)


def test_spin1_spec_validation():
    with pytest.raises(ValueError):
        replace(SPEC_G2, field=-0.02)
    with pytest.raises(ValueError):
        replace(SPEC_G2, charge=0.0)
    with pytest.raises(ValueError):
        replace(SPEC_G2, n_max=4)


# -- closed-form levels ---------------------------------------------------------------


def test_g2_lowest_level_value():
    # sqrt(1 + 0.02 - 0.04) = sqrt(0.98)
    got = spin1_analytic_spectrum(SPEC_G2, 0, 1)
    assert abs(got - math.sqrt(0.98)) <= 1e-15
    assert abs(got - 0.9899494936611665) <= 1e-12


def test_field_free_limit_is_rest_mass():
    spec = replace(SPEC_G2, field=1e-15)
    for lam in (1, 0, -1):
        assert abs(spin1_analytic_spectrum(spec, 3, lam) - 1.0) <= 1e-12


def test_triple_degeneracy_of_h0():
    for n in (2, 3, 7):
        vals = {
            spin1_analytic_spectrum(SPEC_G2, n, 1),
            spin1_analytic_spectrum(SPEC_G2, n - 1, 0),
            spin1_analytic_spectrum(SPEC_G2, n - 2, -1),
        }
        assert max(vals) - min(vals) <= 1e-15


def test_group_bookkeeping():
    assert degeneracy_group(5, 1, +1.0) == 4
    assert degeneracy_group(4, 0, +1.0) == 4
    assert degeneracy_group(3, -1, +1.0) == 4
    assert group_members(-1, +1.0) == [(0, 1)]
    assert group_members(1, +1.0) == [(2, 1), (1, 0), (0, -1)]


def test_charge_conjugation_maps_lambda():
    plus = replace(SPEC_G2, charge=1.0)
    minus = replace(SPEC_G2, charge=-1.0)
    for n in (0, 1, 4):
        for lam in (1, 0, -1):
            a = spin1_analytic_spectrum(plus, n, lam)
            b = spin1_analytic_spectrum(minus, n, -lam)
            assert abs(a - b) <= 1e-15


def test_analytic_input_validation():
    with pytest.raises(ValueError):
        spin1_analytic_spectrum(SPEC_G2, 0, 2)
    with pytest.raises(ValueError):
        spin1_analytic_spectrum(SPEC_G2, -1, 1)
    with pytest.raises(ValueError):
        spin1_analytic_spectrum(SPEC_G2, 0, 1, eps_convention="bogus")
    with pytest.raises(ValueError, match="bogus"):
        spin1_mixing_parameter(SPEC_G2, 0, 1, eps_convention="bogus")


# -- numeric spectrum ------------------------------------------------------------------


def test_numeric_g2_matches_landau(rng):
    report = spin1_numeric_spectrum(SPEC_G2, n_levels=10)
    assert report.max_relative_residual() <= 1e-8
    for group in report.degeneracy:
        if group["count_found"] > 1:
            assert group["spread"] <= 1e-8 * group["h0"]


def test_numeric_charge_conjugation_spectrum():
    spec_p = replace(SPEC_G2, n_max=24, g_factor=2.2)
    spec_m = replace(spec_p, charge=-1.0)
    rp = spin1_numeric_spectrum(spec_p, n_levels=6)
    rm = spin1_numeric_spectrum(spec_m, n_levels=6)
    a = sorted(r.energy for r in rp.levels)
    b = sorted(r.energy for r in rm.levels)
    assert np.allclose(a, b, rtol=1e-12)
    lam_map = {(r.n, r.lam) for r in rp.levels}
    assert {(r.n, -r.lam) for r in rm.levels} == lam_map


def _dense_oracle(spec: Spin1LandauSpec, n_levels: int) -> tuple[np.ndarray, list[dict], float]:
    """Levels, expectations and min beta norm from one transform of the dense model."""
    parts = build_spin1_landau(spec)
    fw = eriksen_transform_numeric(parts.block)
    beta = parts.block.beta
    d_half = parts.block.dim // 2
    upper = fw.h_fw[:d_half, :d_half]
    levels = np.linalg.eigvalsh(upper)[:n_levels]
    _, vecs = np.linalg.eigh(0.5 * (upper + upper.conj().T))
    kit = _spin1_kit(spec)
    n_l = spec.n_max + 1
    inv_root = np.kron(np.eye(3), np.diag(1.0 / np.sqrt(np.diag(kit.pi_sq)[:n_l])))
    s_z = np.kron(SPIN1_SZ, np.eye(n_l))
    s_pi = 0.5 * (kit.s_dot_pi @ inv_root + inv_root @ kit.s_dot_pi)
    txb = np.kron(SPIN1_SX, kit.pi_y) - np.kron(SPIN1_SY, kit.pi_x)
    s_pxb = 0.5 * (txb @ inv_root + inv_root @ txb)
    beta_sz = beta @ np.kron(np.eye(2), s_z)
    rows, norms = [], []
    for v in vecs[:, :n_levels].T:
        original = beta @ fw.u @ beta @ np.concatenate([v, np.zeros(d_half)])
        norms.append((original.conj() @ beta @ original).real)
        rows.append(
            {
                "S_z": (v.conj() @ s_z @ v).real,
                "S_z^2": (v.conj() @ s_z @ s_z @ v).real,
                "S_pi": (v.conj() @ s_pi @ v).real,
                "S_pixB": (v.conj() @ s_pxb @ v).real,
                "S_pi^2": (v.conj() @ s_pi @ s_pi @ v).real,
                "S_pixB^2": (v.conj() @ s_pxb @ s_pxb @ v).real,
                "S_z_beta_metric": (original.conj() @ beta_sz @ original).real / norms[-1],
            }
        )
    return levels, rows, min(norms)


@pytest.mark.parametrize("g_factor", [2.5, 2.0])
@pytest.mark.parametrize("charge", [1.0, -1.0])
def test_sector_spectrum_matches_dense_oracle(g_factor, charge):
    spec = replace(SPEC_G2, g_factor=g_factor, charge=charge)
    report = spin1_numeric_spectrum(spec, n_levels=10)
    levels, rows, beta_norm_min = _dense_oracle(spec, 10)
    got = np.array([row.energy for row in report.levels])
    assert np.max(np.abs(got - levels) / levels) <= 1e-12
    if g_factor == 2.0:
        # a degenerate triplet's expectations depend on the eigenbasis; the
        # flag marks every level sharing its sector with another level
        expected = [len(group_members(row.group, charge)) > 1 for row in report.levels]
        assert [row["degenerate"] for row in report.expectations] == expected
        assert any(expected)
        return
    assert not any(row["degenerate"] for row in report.expectations)
    assert abs(report.beta_norm_min - beta_norm_min) <= 1e-12
    for got_row, want_row in zip(report.expectations, rows):
        for key, want in want_row.items():
            assert abs(got_row[key] - want) <= 1e-12, key


def _eigh_rotating_degenerate_sets(original, rng):
    """eigh that returns another eigenbasis inside each set of equal eigenvalues."""

    def eigh(a, *args, **kwargs):
        w, v = original(a, *args, **kwargs)
        tol = 1e-10 * max(float(np.max(np.abs(w), initial=0.0)), 1.0)
        start = 0
        for stop in range(1, len(w) + 1):
            if stop == len(w) or w[stop] - w[stop - 1] > tol:
                k = stop - start
                if k > 1:
                    q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
                    v[:, start:stop] = v[:, start:stop] @ q
                start = stop
        return w, v

    return eigh


def test_zero_means_max_skips_degenerate_levels(rng, monkeypatch):
    report = spin1_numeric_spectrum(SPEC_G2, n_levels=10)
    flags = [row["degenerate"] for row in report.expectations]
    assert any(flags) and not all(flags)
    assert report.zero_means_max <= 1e-12
    monkeypatch.setattr(np.linalg, "eigh", _eigh_rotating_degenerate_sets(np.linalg.eigh, rng))
    rotated = spin1_numeric_spectrum(SPEC_G2, n_levels=10)
    moved = max(
        abs(a[key] - b[key])
        for a, b in zip(report.expectations, rotated.expectations)
        if a["degenerate"]
        for key in ("S_pi", "S_pixB")
    )
    assert moved > 1e-3  # the degenerate levels really changed eigenbasis
    assert rotated.zero_means_max <= 1e-12
    assert abs(rotated.zero_means_max - report.zero_means_max) <= 1e-12


@pytest.mark.parametrize("g_factor", [2.5, 3.0])
def test_zero_means_max_covers_every_level_when_none_is_degenerate(g_factor):
    report = spin1_numeric_spectrum(replace(SPEC_G2, g_factor=g_factor), n_levels=10)
    assert not any(row["degenerate"] for row in report.expectations)
    assert report.zero_means_max == max(
        max(abs(row["S_pi"]), abs(row["S_pixB"])) for row in report.expectations
    )


def test_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        spin1_numeric_spectrum(replace(SPEC_G2, n_max=8), n_levels=20)


def test_weak_coupling_guard():
    spec = replace(SPEC_G2, field=2.0)
    with pytest.raises(ValueError):
        spin1_numeric_spectrum(spec, n_levels=4)


def test_metric_positive_for_positive_levels():
    report = spin1_numeric_spectrum(replace(SPEC_G25, n_max=24), n_levels=6)
    assert report.beta_norm_min > 0.9


def test_expectations_beta_metric_column_present():
    report = spin1_numeric_spectrum(replace(SPEC_G25, n_max=24), n_levels=4)
    for row in report.expectations:
        assert "S_z_beta_metric" in row


def test_report_serialization():
    report = spin1_numeric_spectrum(replace(SPEC_G2, n_max=20), n_levels=4)
    obj = report.to_json_obj()
    assert len(obj["levels"]) == 4
    csv = report.to_csv_text()
    assert csv.splitlines()[0] == "n,lambda,E_num,E_analytic,residual"
    assert len(csv.splitlines()) == 5


def test_scaling_study_reuses_matching_base_spectrum():
    spec = replace(SPEC_G25, n_max=24)
    base = spin1_numeric_spectrum(spec, n_levels=4)
    assert spin1_residual_scaling(spec, 2, 4, base=base) == spin1_residual_scaling(spec, 2, 4)
    with pytest.raises(ValueError):
        spin1_residual_scaling(replace(spec, field=spec.field / 2), 2, 4, base=base)
    with pytest.raises(ValueError):
        spin1_residual_scaling(spec, 2, 6, base=base)


def test_closed_form_matches_exact_transform_for_operator_mass():
    # the spin-1 mass is a genuine operator: [O, M] != 0 exercises the
    # beta [O,[O,M]] kernel; the residual shrinks like the cube of the
    # field coupling, as for the level formulas
    diffs = []
    for b in (0.02, 0.01, 0.005):
        spec = replace(SPEC_G25, field=b, n_max=24)
        parts = build_spin1_landau(spec)
        fw = eriksen_transform_numeric(parts.block)
        beta = parts.block.beta
        even = 0.5 * (fw.h_fw + beta @ fw.h_fw @ beta)
        closed = relfw_hamiltonian_numeric(parts.m_op, parts.e_op, parts.o_op, beta)
        diffs.append(
            np.linalg.norm(even - closed, 2) / np.linalg.norm(parts.block.matrix, 2)
        )
    assert diffs[0] <= 1e-6
    assert diffs[0] / diffs[1] > 6.0 and diffs[1] / diffs[2] > 6.0


def test_spin1_mass_split_commutes_with_everything():
    # the mass operator is m + (pi^2 - 2 e hbar S.B)/2m, exactly the
    # combination commuting with the odd part; this is what makes the
    # flat-mass series results applicable to the magnetic spin-1 model
    parts = build_spin1_landau(replace(SPEC_G25, n_max=16))
    eye = np.eye(parts.block.dim)
    assert np.linalg.norm(parts.m_op - parts.m_op[0, 0] * eye, 2) > 0.01  # operator, not scalar
    for other in (parts.o_op, parts.e_op):
        c = other @ parts.m_op - parts.m_op @ other
        assert np.linalg.norm(c, 2) <= 1e-12
