import ast
import inspect
import math
import textwrap

import numpy as np
import pytest

import cavitymix.resonance
from cavitymix.bogoliubov import static_coefficients
from cavitymix.resonance import (
    ResonanceEntry,
    ResonanceKind,
    catalog_1d,
    displacement_h0,
    paraxial_mixing_growth,
    paraxial_mixing_omega,
    paraxial_validity_ratio,
)
from cavitymix.scenarios import load_scenario, run_scenario
from cavitymix.spectrum import (
    _odd_entries,
    Cavity1D,
    Cavity3D,
    reduce_to_effective_1d,
)
from conftest import SCENARIO_DIR, gap_matrices


def test_catalog_of_unit_massless_cavity():
    coeffs = static_coefficients(Cavity1D(length=1.0, mu0=0.0, n_max=6))
    entries = catalog_1d(coeffs, 4.0 * math.pi)
    mixing = {e.pair for e in entries if e.kind is ResonanceKind.MODE_MIXING}
    creation = {e.pair for e in entries if e.kind is ResonanceKind.PARTICLE_CREATION}
    assert mixing == {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 4), (2, 5), (3, 6)}
    assert creation == {(1, 2)}
    by_key = {(e.kind, e.pair): e for e in entries}
    mix12 = by_key[(ResonanceKind.MODE_MIXING, (1, 2))]
    assert mix12.omega_r == pytest.approx(math.pi, rel=1e-12)
    assert mix12.coefficient == pytest.approx(coeffs.alpha_entry(1, 2), rel=1e-14)
    assert mix12.growth_per_h0 == pytest.approx(math.pi * coeffs.alpha_entry(1, 2) / 2.0, rel=1e-14)
    create12 = by_key[(ResonanceKind.PARTICLE_CREATION, (1, 2))]
    assert create12.omega_r == pytest.approx(3.0 * math.pi, rel=1e-12)
    assert create12.coefficient == pytest.approx(coeffs.beta_entry(1, 2), rel=1e-14)


def test_catalog_is_sorted_and_validates_band():
    coeffs = static_coefficients(Cavity1D(length=1.0, mu0=0.0, n_max=8))
    entries = catalog_1d(coeffs, 3.0 * math.pi)
    omegas = [e.omega_r for e in entries]
    assert omegas == sorted(omegas)
    assert all(w <= 3.0 * math.pi * (1 + 1e-12) for w in omegas)
    with pytest.raises(ValueError):
        catalog_1d(coeffs, 0.0)
    with pytest.raises(ValueError, match="max_omega"):
        catalog_1d(coeffs, math.nan)


def _catalog_by_brute_force(coeffs, max_omega):
    # One entry per odd pair m < n and kind, kept within max_omega, sorted by
    # the key the catalog has always used.
    cavity = coeffs.cavity
    diff, total = gap_matrices(cavity)
    entries = []
    for m in range(1, cavity.n_max + 1):
        for n in range(m + 1, cavity.n_max + 1):
            if (m + n) % 2 == 0:
                continue
            for kind, omega_r, coefficient in (
                (ResonanceKind.MODE_MIXING, float(diff[n - 1, m - 1]), coeffs.alpha_entry(m, n)),
                (ResonanceKind.PARTICLE_CREATION, float(total[m - 1, n - 1]), coeffs.beta_entry(m, n)),
            ):
                if omega_r <= max_omega:
                    coefficient = abs(coefficient)
                    entries.append(
                        ResonanceEntry(kind, (m, n), omega_r, coefficient, omega_r * coefficient / 2.0)
                    )
    return sorted(entries, key=lambda e: (e.omega_r, e.kind.value, e.pair))


def test_catalog_columns_keep_the_entry_order():
    for mu0, n_max, max_omega in (
        (0.0, 12, 12.0 * math.pi),  # the massless ladder: exact ties at each k pi
        (0.7, 40, 60.0),
        (100.0, 3, 250.0),
    ):
        coeffs = static_coefficients(Cavity1D(length=1.0, mu0=mu0, n_max=n_max))
        catalog = catalog_1d(coeffs, max_omega)
        expected = _catalog_by_brute_force(coeffs, max_omega)
        assert {e.kind for e in expected} == set(ResonanceKind)
        assert list(catalog) == expected
        assert len(catalog) == len(expected)
        assert catalog[-1] == expected[-1] and catalog[-len(expected)] == expected[0]
        for bad in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                catalog[bad]
        for column in (catalog.kind, catalog.m, catalog.omega_r, catalog.growth_per_h0):
            assert not column.flags.writeable
    empty = catalog_1d(static_coefficients(Cavity1D(length=1.0, mu0=0.0, n_max=6)), 0.1)
    assert len(empty) == 0
    assert list(empty) == []
    with pytest.raises(IndexError):
        empty[0]


def test_catalog_columns_match_the_full_matrix_formulas_bit_for_bit():
    # The columns the catalog read from full spectrum matrices, the kind
    # strings sorted in the key: the table must give them bit for bit.
    rng = np.random.default_rng(43)
    for k in range(150):
        mu0 = 0.0 if k % 2 == 0 else float(10.0 ** rng.uniform(-2.0, 3.0))
        length = float(10.0 ** rng.uniform(-1.0, 1.0))
        cavity = Cavity1D(length=length, mu0=mu0, n_max=int(rng.integers(2, 71)))
        coeffs = static_coefficients(cavity)
        max_omega = float(rng.uniform(0.05, 2.5)) * coeffs.omega[-1]
        pairs = np.triu(_odd_entries(cavity.n_max)[0])
        rows, cols = np.nonzero(pairs)
        diffs, sums = gap_matrices(cavity)
        mixing, creation = diffs.T[pairs], sums[pairs]
        omega = np.concatenate([mixing, creation])
        coefficient = np.abs(np.concatenate([coeffs.alpha_hat[pairs], coeffs.beta_hat[pairs]]))
        kind = np.repeat([kind.value for kind in ResonanceKind], rows.size)
        m, n = np.tile(rows + 1, 2), np.tile(cols + 1, 2)
        keep = np.flatnonzero(omega <= max_omega)
        keep = keep[np.lexsort((n[keep], m[keep], kind[keep], omega[keep]))]
        catalog = catalog_1d(coeffs, max_omega)
        omega_r, coefficient = omega[keep], coefficient[keep]
        growth = omega_r * coefficient / 2.0
        for got, want in zip(
            catalog._asdict().values(), (kind[keep], m[keep], n[keep], omega_r, coefficient, growth)
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_catalog_builds_no_entry_until_one_is_read(monkeypatch):
    # The cost model: catalog_1d, len and the catalog scenario read the
    # columns alone and build no Python object per resonance.
    def refuse(*args, **kwargs):
        raise AssertionError("a ResonanceEntry was built")

    monkeypatch.setattr(cavitymix.resonance, "ResonanceEntry", refuse)
    coeffs = static_coefficients(Cavity1D(length=1.0, mu0=0.7, n_max=40))
    catalog = catalog_1d(coeffs, 60.0)
    assert len(catalog) > 0
    table = run_scenario(load_scenario(SCENARIO_DIR / "catalog_low_band.yaml"))
    assert len(table) == 21
    table.render()
    with pytest.raises(AssertionError, match="ResonanceEntry"):
        catalog[0]


NUMPY_SORTS = ("sort", "argsort", "lexsort", "unique", "partition", "argpartition")


def test_one_sort_per_cavity_and_none_per_catalog(monkeypatch):
    # static_coefficients ranks the half table once; a catalog is a prefix of
    # that order.  Both the calls made and the calls written are counted, so
    # an ndarray method sort is caught too.
    calls = []

    def counted(name):
        sort = getattr(np, name)

        def call(*args, **kwargs):
            calls.append(name)
            return sort(*args, **kwargs)

        return call

    for name in NUMPY_SORTS:
        monkeypatch.setattr(np, name, counted(name))
    coeffs = static_coefficients(Cavity1D(length=1.0, mu0=0.7, n_max=40))
    assert calls == ["argsort"]
    calls.clear()
    assert len(catalog_1d(coeffs, 60.0)) > 0
    assert calls == []
    for function, want in ((static_coefficients, ["argsort"]), (catalog_1d, [])):
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        written = [
            ast.unparse(node.func).rsplit(".", 1)[-1]
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        ]
        assert [name for name in written if name in (*NUMPY_SORTS, "sorted")] == want


def test_heavy_field_pushes_mixing_resonance_far_down():
    # For mu0 L = 100 the (1, 2) mixing frequency should sit at
    # 3 pi^2 / (2 mu0) while each mode frequency is near mu0, a ratio of
    # 3 pi^2 / (2 mu0^2).
    cavity = Cavity1D(length=1.0, mu0=100.0, n_max=3)
    coeffs = static_coefficients(cavity)
    entries = catalog_1d(coeffs, 1.0)
    assert entries, "expected the down-shifted mixing line inside the band"
    lowest = entries[0]
    assert lowest.kind is ResonanceKind.MODE_MIXING
    assert lowest.pair == (1, 2)
    ratio = lowest.omega_r / 100.0
    assert ratio == pytest.approx(3.0 * math.pi**2 / (2.0 * 100.0**2), rel=5e-3)


def test_paraxial_frequency_matches_exact_reduction():
    wavelength, lx = 600e-9, 0.01
    mu_bar = 2.0 * math.pi / wavelength
    exact = gap_matrices(Cavity1D(length=lx, mu0=mu_bar, n_max=2))[0][1, 0]
    approx = paraxial_mixing_omega(wavelength, lx, 1, 2)
    assert approx == pytest.approx(exact, rel=1e-6)
    assert approx == pytest.approx(math.pi * wavelength * 3.0 / (4.0 * lx**2), rel=1e-14)


def test_paraxial_frequency_via_transverse_quantum_numbers():
    # A transverse quantum number p with pi p / Lz close to 2 pi / lambda
    # realizes the same effective mass inside the exact 3+1 reduction.
    wavelength, edge = 600e-9, 0.01
    p = round(2.0 * edge / wavelength)
    cavity = Cavity3D(lx=edge, ly=edge, lz=edge, mu=0.0)
    reduced = reduce_to_effective_1d(cavity, "x", (1, p), n_max=3)
    coeffs = static_coefficients(reduced)
    entries = [
        e
        for e in catalog_1d(coeffs, 1.0)
        if e.kind is ResonanceKind.MODE_MIXING and e.pair == (1, 2)
    ]
    assert entries
    assert entries[0].omega_r == pytest.approx(
        paraxial_mixing_omega(wavelength, edge, 1, 2), rel=1e-3
    )


def test_mixing_resonance_sits_far_below_creation():
    cavity = Cavity1D(length=1.0, mu0=1e5, n_max=2)
    coeffs = static_coefficients(cavity)
    mixing = gap_matrices(cavity)[0][1, 0]
    creation = 2.0 * 1e5
    assert creation / mixing > 1e8
    # and the mixing survives a catalog query while creation does not
    entries = catalog_1d(coeffs, 1.0)
    kinds = {e.kind for e in entries}
    assert kinds == {ResonanceKind.MODE_MIXING}


def test_predicted_growth_and_displacement_drive():
    assert displacement_h0(2.0, 0.5, 3.0) == pytest.approx(0.5 * 4.0 * 3.0, rel=1e-14)


def test_paraxial_growth_literal_and_consistency():
    wavelength, lx, d = 600e-9, 0.01, 1e-6
    growth = paraxial_mixing_growth(wavelength, lx, d, 1, 2)
    assert growth == pytest.approx(math.pi * 2.0 * d * wavelength / (2.0 * lx**3), rel=1e-14)
    # Consistency with the generic rate omega_r |alpha| h0 / 2 evaluated on
    # the effective heavy cavity.
    mu_bar = 2.0 * math.pi / wavelength
    cavity = Cavity1D(length=lx, mu0=mu_bar, n_max=2)
    coeffs = static_coefficients(cavity)
    entry = catalog_1d(coeffs, 1.0)[0]
    h0 = displacement_h0(entry.omega_r, d, lx)
    assert entry.growth_per_h0 * h0 == pytest.approx(growth, rel=1e-5)


def test_paraxial_validity_ratio():
    ratio = paraxial_validity_ratio(600e-9, 0.01, 0.01, m_max=2)
    expected = (2.0 / 600e-9) ** 2 / ((2.0 / 0.01) ** 2 + (1.0 / 0.01) ** 2)
    assert ratio == pytest.approx(expected, rel=1e-14)
    assert ratio > 1e4
