import math

import mpmath
import numpy as np
import pytest

from cavitymix.spectrum import (
    Cavity1D,
    Cavity3D,
    omega_vector,
    reduce_to_effective_1d,
)
from conftest import gap_matrices


def test_massless_frequencies_are_harmonics():
    cav = Cavity1D(length=1.0, mu0=0.0, n_max=6)
    omega = omega_vector(cav)
    for n in range(1, 7):
        assert omega[n - 1] == pytest.approx(n * math.pi, rel=1e-15)


def test_massive_frequency_literal():
    cav = Cavity1D(length=2.0, mu0=3.0, n_max=4)
    assert omega_vector(cav)[0] == pytest.approx(math.hypot(3.0, math.pi / 2.0), rel=1e-15)


def test_omega_diff_matches_direct_subtraction_when_safe():
    cav = Cavity1D(length=1.5, mu0=0.7, n_max=5)
    omega = omega_vector(cav)
    direct = omega[:, None] - omega[None, :]
    np.testing.assert_allclose(gap_matrices(cav)[0], direct, rtol=0.0, atol=1e-14)


def test_omega_diff_survives_cancellation_at_large_mass():
    # At mu0*L = 1e4 the direct subtraction loses roughly eight digits;
    # the rewritten quotient must agree with 50-digit arithmetic to full
    # double precision.
    cav = Cavity1D(length=1.0, mu0=1e4, n_max=3)
    with mpmath.workdps(50):
        w2 = mpmath.sqrt(mpmath.mpf(10)**8 + (2 * mpmath.pi) ** 2)
        w1 = mpmath.sqrt(mpmath.mpf(10)**8 + mpmath.pi**2)
        exact = float(w2 - w1)
    value = gap_matrices(cav)[0][1, 0]
    assert value == pytest.approx(exact, rel=1e-14)


def test_omega_diff_antisymmetric_and_sum_symmetric():
    cav = Cavity1D(length=1.0, mu0=2.0, n_max=4)
    diffs, sums = gap_matrices(cav)
    assert np.array_equal(diffs, -diffs.T)
    assert np.array_equal(sums, sums.T)
    assert diffs[2, 0] == -diffs[0, 2]
    assert sums[2, 0] == sums[0, 2]


def test_3d_frequency_literal():
    cav = Cavity3D(lx=1.0, ly=2.0, lz=4.0, mu=5.0)
    expected = math.sqrt(25.0 + math.pi**2 * (1.0 + 4.0 / 4.0 + 9.0 / 16.0))
    reduced = reduce_to_effective_1d(cav, axis="x", transverse=(2, 3), n_max=2)
    assert omega_vector(reduced)[0] == pytest.approx(expected, rel=1e-15)


def test_reduction_reproduces_3d_dispersion():
    cav = Cavity3D(lx=0.5, ly=1.0, lz=2.0, mu=1.3)
    reduced = reduce_to_effective_1d(cav, axis="x", transverse=(2, 3), n_max=6)
    assert reduced.length == 0.5
    k = np.arange(1, 7)
    expected = np.sqrt(1.3**2 + (np.pi * k / 0.5) ** 2 + (2 * np.pi) ** 2 + (3 * np.pi / 2.0) ** 2)
    np.testing.assert_allclose(omega_vector(reduced), expected, rtol=1e-15)
    # along y the frozen numbers are (m, p) = (1, 4); mode n = 2 along y
    reduced_y = reduce_to_effective_1d(cav, axis="y", transverse=(1, 4), n_max=4)
    expected_y = math.sqrt(1.3**2 + (math.pi / 0.5) ** 2 + (2 * math.pi) ** 2 + (2 * math.pi) ** 2)
    assert omega_vector(reduced_y)[1] == pytest.approx(expected_y, rel=1e-15)


def test_reduction_validates_axis_and_transverse():
    cav = Cavity3D(lx=1.0, ly=1.0, lz=1.0)
    with pytest.raises(ValueError):
        reduce_to_effective_1d(cav, axis="w", transverse=(1, 1))
    with pytest.raises(ValueError):
        reduce_to_effective_1d(cav, axis="x", transverse=(1, 1, 1))
    with pytest.raises(ValueError):
        reduce_to_effective_1d(cav, axis="x", transverse=(0, 1))


def test_matrix_helpers_agree_with_definitions():
    cav = Cavity1D(length=1.7, mu0=0.9, n_max=5)
    omega = omega_vector(cav)
    diffs, sums = gap_matrices(cav)
    for m in range(1, 6):
        assert omega[m - 1] == pytest.approx(math.hypot(0.9, math.pi * m / 1.7), rel=1e-15)
        for n in range(1, 6):
            assert diffs[m - 1, n - 1] == pytest.approx(omega[m - 1] - omega[n - 1], abs=1e-14)
            assert sums[m - 1, n - 1] == pytest.approx(omega[m - 1] + omega[n - 1], rel=1e-15)


def test_quantum_number_validation():
    cav = Cavity3D(lx=1.0, ly=1.0, lz=1.0)
    with pytest.raises(ValueError, match="quantum number"):
        reduce_to_effective_1d(cav, axis="x", transverse=(1.5, 1))
    with pytest.raises(ValueError, match="quantum number"):
        reduce_to_effective_1d(cav, axis="y", transverse=(1, -2))
    # A bool or a float names no quantum number, even where it equals one.
    for transverse in ((True, 2), (2.0, 1), (1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="quantum number"):
            reduce_to_effective_1d(cav, axis="z", transverse=transverse)


def test_cavity_validation():
    with pytest.raises(ValueError):
        Cavity1D(length=0.0)
    with pytest.raises(ValueError):
        Cavity1D(length=1.0, mu0=-1.0)
    with pytest.raises(ValueError):
        Cavity1D(length=1.0, n_max=1)
    with pytest.raises(ValueError, match="integer"):
        Cavity1D(length=1.0, n_max=3.0)
    for length, mu0 in ((1e-300, 0.0), (1e100, 0.0), (1.0, 1e200), (1.0, 1e80)):
        with pytest.raises(ValueError, match="floating-point range"):
            Cavity1D(length=length, mu0=mu0)
    with pytest.raises(ValueError):
        Cavity3D(lx=1.0, ly=-1.0, lz=1.0)
    with pytest.raises(ValueError):
        Cavity3D(lx=1.0, ly=1.0, lz=1.0, mu=-0.1)


def test_cavity_refuses_nan_mass_by_field():
    with pytest.raises(ValueError, match="field mass mu0 must be nonnegative"):
        Cavity1D(length=1.0, mu0=math.nan, n_max=4)
    with pytest.raises(ValueError, match="field mass mu must be nonnegative"):
        Cavity3D(lx=1.0, ly=1.0, lz=1.0, mu=math.nan)

