import numpy as np
import pytest

import gowers_lab as gl
from gowers_lab.errors import (
    DimensionMismatchError,
    EmptyDomainError,
    InvalidDilationError,
    NotPrimeError,
)

PRIMES = (5, 7, 11, 13, 17)


def random_function(rng, n, scale=1.0):
    vals = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return gl.GroupFunction(n, scale * vals)


def test_prime_enforcement():
    gl.GroupFunction(7, np.zeros(7))
    for bad in (1, 4, 6, 9, 15):
        with pytest.raises(NotPrimeError):
            gl.GroupFunction(bad, np.zeros(bad))


def test_is_prime_small_table():
    want = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    got = {n for n in range(2, 50) if gl.is_prime(n)}
    assert got == want
    assert not gl.is_prime(1) and not gl.is_prime(0) and not gl.is_prime(-7)


def test_constructors_and_length_check():
    f = gl.GroupFunction.constant(7, 2.5 - 1j)
    assert np.allclose(f.values, 2.5 - 1j)
    g = gl.GroupFunction.indicator(7, [0, 3, 3, 5])
    assert list(g.values.real) == [1, 0, 0, 1, 0, 1, 0]
    with pytest.raises(DimensionMismatchError):
        gl.GroupFunction(7, np.zeros(6))


def test_arithmetic_matches_pointwise():
    rng = np.random.default_rng(0)
    f = random_function(rng, 11)
    g = random_function(rng, 11)
    assert np.allclose((f + g).values, f.values + g.values)
    assert np.allclose((f - g).values, f.values - g.values)
    assert np.allclose((f * g).values, f.values * g.values)
    assert np.allclose((f * 2.0).values, 2.0 * f.values)
    assert np.allclose(f.conj().values, np.conj(f.values))


def test_shift_group_law():
    rng = np.random.default_rng(1)
    for n in PRIMES:
        f = random_function(rng, n)
        assert np.allclose(gl.shift(f, 0).values, f.values)
        a, b = int(rng.integers(n)), int(rng.integers(n))
        lhs = gl.shift(gl.shift(f, a), b)
        rhs = gl.shift(f, a + b)
        assert np.allclose(lhs.values, rhs.values)
        # T^n f (x) = f(x + n)
        s = gl.shift(f, a)
        for x in range(n):
            assert s.values[x] == f.values[(x + a) % n]


def test_dilate_group_action():
    rng = np.random.default_rng(2)
    for n in PRIMES:
        f = random_function(rng, n)
        assert np.allclose(gl.dilate(f, 1).values, f.values)
        lam = int(rng.integers(1, n))
        d = gl.dilate(f, lam)
        # g(x) = f(lam^{-1} x), so g(lam x) = f(x)
        for x in range(n):
            assert d.values[(lam * x) % n] == f.values[x]
        with pytest.raises(InvalidDilationError):
            gl.dilate(f, 0)
        with pytest.raises(InvalidDilationError):
            gl.dilate(f, n)


def test_expectation_and_norms():
    rng = np.random.default_rng(3)
    f = random_function(rng, 13)
    assert gl.expectation(f) == pytest.approx(np.mean(f.values))
    assert gl.expectation(f, [0, 1, 2]) == pytest.approx(np.mean(f.values[:3]))
    with pytest.raises(EmptyDomainError):
        gl.expectation(f, [])
    assert gl.l2_norm(f) == pytest.approx(np.sqrt(np.mean(np.abs(f.values) ** 2)))
    assert gl.linf_norm(f) == pytest.approx(np.max(np.abs(f.values)))
    g = random_function(rng, 13)
    assert gl.inner_product(f, g) == pytest.approx(np.mean(f.values * np.conj(g.values)))


def test_is_bounded():
    assert gl.GroupFunction.constant(5, 1.0).is_bounded()
    assert not gl.GroupFunction.constant(5, 1.0 + 1e-6).is_bounded()
    assert gl.GroupFunction.constant(5, 1.0 + 1e-6).is_bounded(1e-3)


def test_poly_reduce_and_eval():
    # x^2 + 7x + 14 mod 7 = x^2
    assert gl.poly_reduce((14, 7, 1), 7) == (0, 0, 1)
    assert gl.poly_reduce((0, 0, 0), 7) == (0,)
    assert gl.poly_degree((3, 0, 2), 5) == 2
    assert gl.poly_degree((4,), 5) == 0
    for x in range(7):
        assert gl.poly_eval_mod((2, 3, 1), x, 7) == (2 + 3 * x + x * x) % 7
    vals = gl.poly_values_mod((2, 3, 1), 7)
    assert list(vals) == [(2 + 3 * x + x * x) % 7 for x in range(7)]


def test_poly_shift_difference_identity():
    """P(x+s) - P(x) computed by coefficients matches pointwise values."""
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.choice(PRIMES))
        deg = int(rng.integers(0, 4))
        coeffs = tuple(int(c) for c in rng.integers(0, n, deg + 1))
        s = int(rng.integers(0, n))
        diff = gl.poly_shift_difference(coeffs, s, n)
        for x in range(n):
            want = (gl.poly_eval_mod(coeffs, x + s, n) - gl.poly_eval_mod(coeffs, x, n)) % n
            assert gl.poly_eval_mod(diff, x, n) == want
        if gl.poly_degree(coeffs, n) >= 1:
            assert gl.poly_degree(diff, n) <= gl.poly_degree(coeffs, n) - 1


def test_phase_values_unit_modulus():
    vals = gl.phase_values((0, 1), 11)
    assert np.allclose(np.abs(vals), 1.0)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(np.exp(2j * np.pi / 11))


def test_quasiperiodic_construction():
    f = gl.quasiperiodic(11, [(0.5, (0, 1)), (1j, (1, 0, 2))])
    want = 0.5 * gl.phase_values((0, 1), 11) + 1j * gl.phase_values((1, 0, 2), 11)
    assert np.allclose(f.values, want / 2)
    assert f.is_bounded()
    from gowers_lab.errors import InvalidCoefficientError

    with pytest.raises(InvalidCoefficientError):
        gl.quasiperiodic(11, [(1.5, (0, 1))])


def test_next_prime_in():
    assert gl.next_prime_in(10, 20) == 11
    assert gl.next_prime_in(13, 20) == 17
    with pytest.raises(NotPrimeError):
        gl.next_prime_in(24, 28)


def test_embed_interval_no_wrap():
    n_prime, image = gl.embed_interval([1, 4, 7, 10], 10, 3)
    assert gl.is_prime(n_prime) and 30 < n_prime <= 60
    assert image == (1, 4, 7, 10)
    with pytest.raises(DimensionMismatchError):
        gl.embed_interval([0], 10, 3)
