"""Level-set algebras and measurable approximation."""
import numpy as np
import pytest

import gowers_lab as gl
from gowers_lab.errors import InvalidConfigurationError, MeasurabilityError
from gowers_lab.levelset import GOLDEN_FRACTION, oscillation
from gowers_lab.partitions import conditional_expectation

PRIMES = (13, 17, 23)


def phase_generator(rng, n, degree=1, count=1):
    terms = []
    for _ in range(count):
        poly = tuple(int(c) for c in rng.integers(0, n, degree + 1))
        terms.append((np.exp(2j * np.pi * rng.uniform()), poly))
    return gl.certify_phase_sum(n, [(c / count, p) for c, p in terms])


def test_trivial_algebra():
    alg = gl.trivial_algebra(7)
    assert alg.partition.atom_count == 1
    assert alg.complexity == 0.0
    assert alg.order == 0
    assert oscillation(alg) == 0.0
    assert alg.boundary_mass() == 0


def test_oscillation_and_capacity():
    rng = np.random.default_rng(0)
    for trial in range(40):
        n = int(rng.choice(PRIMES))
        count = int(rng.integers(1, 3))
        gens = [phase_generator(rng, n, degree=int(rng.integers(1, 3)))
                for _ in range(count)]
        eps = float(rng.uniform(0.15, 0.9))
        alg = gl.level_set_algebra(gens, eps, seed=trial)
        assert oscillation(alg) <= np.sqrt(2) * eps + 1e-12
        assert alg.partition.atom_count <= alg.atom_capacity()
        # complexity covers generator count, scale, and bounds
        assert alg.complexity >= max(len(gens), 1.0 / eps - 1.0)


def test_exact_shift_equivariance():
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = int(rng.choice(PRIMES))
        gen = phase_generator(rng, n, degree=2)
        eps = float(rng.uniform(0.2, 0.7))
        alg = gl.level_set_algebra([gen], eps, seed=trial)
        for s in rng.integers(0, n, 5):
            s = int(s)
            shifted = gl.level_set_algebra([gl.cert_shift(gen, s)], eps, seed=trial)
            want = gl.shift_partition(alg.partition, s)
            assert np.array_equal(want.labels, shifted.partition.labels)


def test_select_alpha_deterministic_and_fallback():
    rng = np.random.default_rng(2)
    n = 17
    vals = [np.exp(2j * np.pi * rng.uniform(size=n))]
    a1 = gl.select_alpha(vals, [0.3], seed=9)
    a2 = gl.select_alpha(vals, [0.3], seed=9)
    assert a1 == a2
    # nothing to separate: full tie, fixed irrational fallback
    a3 = gl.select_alpha([], [], seed=9)
    assert a3 == GOLDEN_FRACTION


def test_join_compact():
    rng = np.random.default_rng(3)
    n = 17
    g1 = phase_generator(rng, n)
    g2 = phase_generator(rng, n, degree=2)
    a = gl.level_set_algebra([g1], 0.4, seed=0)
    b = gl.level_set_algebra([g2], 0.3, seed=0)
    j = gl.join_compact(a, b)
    assert gl.refines(j.partition, a.partition)
    assert gl.refines(j.partition, b.partition)
    assert len(j.generators) == 2
    assert j.complexity >= max(a.complexity, b.complexity)


def test_approximate_requires_measurability():
    rng = np.random.default_rng(4)
    n = 17
    gen = phase_generator(rng, n)
    alg = gl.level_set_algebra([gen], 0.8, seed=0)
    if alg.partition.atom_count == n:
        pytest.skip("partition came out discrete; nothing non-measurable")
    f = gl.GroupFunction(n, rng.uniform(-1, 1, n).astype(complex))
    if gl.linf_norm(f - conditional_expectation(f, alg.partition)) > 1e-9:
        with pytest.raises(MeasurabilityError):
            gl.approximate_measurable(f, alg, 0.1)


def test_approximate_zero_and_constant_routes():
    n = 17
    alg = gl.trivial_algebra(n)
    zero = gl.GroupFunction.constant(n, 0.0)
    res = gl.approximate_measurable(zero, alg, 0.5)
    assert res.method == "zero" and res.error <= 1e-12
    const = gl.GroupFunction.constant(n, 0.4 + 0.1j)
    res = gl.approximate_measurable(const, alg, 0.25)
    assert res.method == "constant"
    assert res.error <= 1e-12
    gl.verify_certificate(res.certified, 1e-9)


def test_approximate_spectral_exact():
    rng = np.random.default_rng(5)
    n = 17
    gen = phase_generator(rng, n)
    alg = gl.level_set_algebra([gen], 0.35, seed=1)
    f = gl.GroupFunction(n, rng.uniform(0, 1, n).astype(complex))
    fm = conditional_expectation(f, alg.partition)
    res = gl.approximate_measurable(fm, alg, 0.05)
    assert res.method == "spectral"
    assert res.error <= 1e-9
    assert gl.l2_norm(fm - res.certified.func) <= 1e-9
    gl.verify_certificate(res.certified, 1e-9)


def test_single_phase_generator_takes_the_spectral_route():
    """One linear-phase generator gets the exact spectral certificate."""
    rng = np.random.default_rng(6)
    n = 53
    gen = phase_generator(rng, n, degree=1)
    alg = gl.level_set_algebra([gen], 0.5, seed=2)
    f = gl.GroupFunction(n, rng.uniform(0, 1, n).astype(complex))
    fm = conditional_expectation(f, alg.partition)
    res = gl.approximate_measurable(fm, alg, 0.2)
    assert res.method == "spectral"
    assert res.error <= 1e-9
    assert gl.l2_norm(fm - res.certified.func) <= 1e-9
    gl.verify_certificate(res.certified, 1e-9)


def test_approximate_mode_and_delta_validation():
    alg = gl.trivial_algebra(7)
    f = gl.GroupFunction.constant(7, 0.5)
    with pytest.raises(InvalidConfigurationError):
        gl.approximate_measurable(f, alg, 0.0)


def test_result_order_covers_algebra():
    rng = np.random.default_rng(8)
    n = 17
    gen = phase_generator(rng, n, degree=2)  # order-2 generator
    alg = gl.level_set_algebra([gen], 0.4, seed=3)
    f = conditional_expectation(
        gl.GroupFunction(n, rng.uniform(0, 1, n).astype(complex)), alg.partition
    )
    res = gl.approximate_measurable(f, alg, 0.05)
    assert res.certified.order >= alg.order
