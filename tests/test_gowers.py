"""Norm-route triangulation and the axiom suite for uniformity norms."""
import numpy as np
import pytest

import gowers_lab as gl
from gowers_lab import gowers as gw
from gowers_lab.errors import InvalidConfigurationError, UnsupportedOrderError

PRIMES = (5, 7, 11, 13)


# ---------------------------------------------------------------------------
# the defining recursions, one interpreter call per shift: the reference the
# level-wise engine is held to


def power_loop(vals, d):
    """S_0 = E(f);  S_d(f) = E( S_{d-1}(conj(f) T^h f) | h )."""
    if d == 0:
        return complex(np.mean(vals))
    conj = np.conj(vals)
    acc = 0.0 + 0.0j
    for h in range(vals.shape[0]):
        acc += power_loop(conj * np.roll(vals, -h), d - 1)
    return acc / vals.shape[0]


def dual_loop(vals, d):
    """D_0 = 1;  D_d(f) = E( conj(D_{d-1}(conj(f) T^h f)) . T^h f | h )."""
    n = vals.shape[0]
    if d == 0:
        return np.ones(n, dtype=np.complex128)
    conj = np.conj(vals)
    acc = np.zeros(n, dtype=np.complex128)
    for h in range(n):
        th = np.roll(vals, -h)
        acc += np.conj(dual_loop(conj * th, d - 1)) * th
    return acc / n


def random_function(rng, n, scale=1.0):
    vals = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return gl.GroupFunction(n, scale * vals)


def test_order_zero_is_mean():
    rng = np.random.default_rng(0)
    f = random_function(rng, 7)
    gn = gl.gowers_norm(f, 0)
    assert gn.value is None
    assert gn.u0_value == pytest.approx(np.mean(f.values))


def test_recursive_vs_direct_vs_fourier():
    rng = np.random.default_rng(1)
    for trial in range(60):
        n = int(rng.choice(PRIMES))
        f = random_function(rng, n)
        for d in (1, 2, 3):
            a = gl.gowers_norm(f, d).value
            b = gl.gowers_norm_direct(f, d)
            assert a == pytest.approx(b, abs=1e-9)
        assert gl.gowers_norm(f, 2).value == pytest.approx(
            gl.gowers_u2_fourier(f), abs=1e-9
        )


def test_u1_is_mean_modulus():
    rng = np.random.default_rng(2)
    f = random_function(rng, 11)
    assert gl.gowers_norm(f, 1).value == pytest.approx(abs(np.mean(f.values)), abs=1e-12)


def test_huge_values_are_scaled_not_overflowed():
    """Where max|f|^(2^d) overflows a double, the norm is m ||f/m||_{U^d}
    with m = max|f|: finite, homogeneous, and without an overflow warning."""
    f = random_function(np.random.default_rng(5), 13)
    for d in (1, 2, 3):
        for scale in (1e150, 1e300):
            big = gl.GroupFunction(13, scale * f.values)
            want = scale * gl.gowers_norm(f, d).value
            assert gl.gowers_norm(big, d).value == pytest.approx(want, rel=1e-12)


def test_huge_values_take_the_same_route_in_every_norm():
    """The direct and batched routes rescale as gowers_norm does: seven
    values 1e300 have U^3 norm 1e300 on all three, with no warning, and a
    batch row that does not overflow keeps its bits."""
    f = gl.GroupFunction(7, np.full(7, 1e300))
    rows = random_function(np.random.default_rng(6), 7).values[None, :]
    assert gl.gowers_norm(f, 3).value == 1e300
    assert gw.gowers_norm_direct(f, 3) == 1e300
    assert gw.gowers_norm_batch(f.values[None, :], 3).tolist() == [1e300]
    mixed = gw.gowers_norm_batch(np.vstack([rows, f.values]), 3)
    assert mixed[1] == 1e300 and mixed[0] == gw.gowers_norm_batch(rows, 3)[0]


def test_monotone_in_order():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.choice(PRIMES))
        f = random_function(rng, n)
        vals = [gl.gowers_norm(f, d).value for d in (1, 2, 3, 4)]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-9


def test_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.choice(PRIMES))
        f = random_function(rng, n)
        g = random_function(rng, n)
        for d in (2, 3):
            s = gl.gowers_norm(f + g, d).value
            assert s <= gl.gowers_norm(f, d).value + gl.gowers_norm(g, d).value + 1e-9


def test_shift_and_dilation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.choice(PRIMES))
        f = random_function(rng, n)
        d = int(rng.integers(1, 4))
        base = gl.gowers_norm(f, d).value
        s = int(rng.integers(n))
        lam = int(rng.integers(1, n))
        assert gl.gowers_norm(gl.shift(f, s), d).value == pytest.approx(base, abs=1e-9)
        assert gl.gowers_norm(gl.dilate(f, lam), d).value == pytest.approx(base, abs=1e-9)


def test_van_der_corput_recursion():
    """S_d(f) averages S_{d-1} of the differenced functions over all shifts."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.choice(PRIMES))
        f = random_function(rng, n)
        for d in (1, 2, 3):
            total = 0.0
            for h in range(n):
                g = f.conj() * gl.shift(f, h)
                total += gl.gowers_norm(g, d - 1).u0_value.real if d == 1 else \
                    gl.gowers_norm(g, d - 1).value ** (2 ** (d - 1))
            lhs = gl.gowers_norm(f, d).value ** (2 ** d)
            assert lhs == pytest.approx(total / n, abs=1e-9)


def test_polynomial_phase_exactness():
    """Unit phases have norm exactly 1 once the order exceeds the degree.

    At d = deg the norm falls below 1, so the threshold deg + 1 is sharp.
    The boundary values are pinned on the scalar route: 0 for a linear
    phase at d = 1, the Gauss-sum value N^{-1/4} for a quadratic at d = 2,
    and (13/49)^{1/8} for e(x^3/7) at d = 3.
    """
    rng = np.random.default_rng(7)
    for n in (7, 11, 13):
        for _ in range(20):
            deg = int(rng.integers(0, 4))
            poly = tuple(int(c) for c in rng.integers(0, n, deg + 1))
            f = gl.GroupFunction(n, gl.phase_values(poly, n))
            true_deg = gl.poly_degree(poly, n)
            for d in range(max(true_deg + 1, 1), 4):
                assert gl.gowers_norm(f, d).value == pytest.approx(1.0, abs=1e-9)
            if 1 <= true_deg <= 3:
                assert gl.gowers_norm(f, true_deg).value < 1.0 - 1e-6
    # the boundary value itself, pinned: quadratic at d = 2
    for n in (7, 11, 13):
        f = gl.GroupFunction(n, gl.phase_values((0, 0, 1), n))
        assert gl.gowers_norm(f, 2).value == pytest.approx(n ** -0.25, abs=1e-12)
    # linear at d = 1, compared at the power level: the root of a rounding
    # residue of 1e-17 is already 3e-9
    for n in (7, 11, 13):
        f = gl.GroupFunction(n, gl.phase_values((0, 1), n))
        assert gl.gowers_norm(f, 1).value ** 2 == pytest.approx(0.0, abs=1e-12)
    # cubic at d = 3
    f = gl.GroupFunction(7, gl.phase_values((0, 0, 0, 1), 7))
    assert gl.gowers_norm(f, 3).value == pytest.approx((13 / 49) ** 0.125, abs=1e-12)


def test_dual_identity_and_boundedness():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.choice(PRIMES))
        f = random_function(rng, n, scale=0.7)
        for d in (1, 2, 3):
            D = gl.dual_function(f, d)
            lhs = gl.inner_product(f, D)
            rhs = gl.gowers_norm(f, d).value ** (2 ** d)
            assert lhs.real == pytest.approx(rhs, abs=1e-9)
            assert abs(lhs.imag) <= 1e-9
            assert gl.linf_norm(D) <= 1.0 + 1e-9  # |f| <= 1 keeps duals bounded


def test_multilinear_average_brute_force():
    rng = np.random.default_rng(9)
    n = 7
    fs = [random_function(rng, n) for _ in range(3)]
    lams = (0, 1, 2)
    want = 0.0 + 0.0j
    for x in range(n):
        for r in range(n):
            prod = 1.0 + 0.0j
            for f, lam in zip(fs, lams):
                prod *= f.values[(x + lam * r) % n]
            want += prod
    want /= n * n
    assert gl.multilinear_average(fs, lams) == pytest.approx(want, abs=1e-12)


def test_von_neumann_inequality():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.choice(PRIMES))
        k = int(rng.integers(2, 5))
        fs = [random_function(rng, n, scale=0.7) for _ in range(k)]
        lams = tuple(rng.permutation(n)[:k].tolist())
        rep = gl.von_neumann_check(fs, lams)
        assert rep.holds
        assert rep.lhs <= rep.rhs + 1e-9
        assert rep.rhs == pytest.approx(min(rep.norms))


def test_von_neumann_requires_distinct_coefficients():
    rng = np.random.default_rng(11)
    fs = [random_function(rng, 7, scale=0.5) for _ in range(3)]
    with pytest.raises(InvalidConfigurationError):
        gl.von_neumann_check(fs, (0, 1, 1))


def test_batch_matches_scalar():
    rng = np.random.default_rng(12)
    n = 11
    stack = (rng.uniform(-1, 1, (40, n)) + 1j * rng.uniform(-1, 1, (40, n)))
    for d in (1, 2, 3):
        batch = gl.gowers_norm_batch(stack, d)
        for i in range(stack.shape[0]):
            f = gl.GroupFunction(n, stack[i])
            assert batch[i] == pytest.approx(gl.gowers_norm(f, d).value, abs=1e-10)


def test_unsupported_order():
    f = gl.GroupFunction.constant(5, 1.0)
    with pytest.raises(UnsupportedOrderError):
        gl.gowers_norm(f, -1)
    with pytest.raises(UnsupportedOrderError):
        gl.gowers_norm_direct(f, 4)  # direct route stops at d = 3


# ---------------------------------------------------------------------------
# the level-wise engine against the loop reference


@pytest.mark.parametrize("n", (5, 7, 13))
def test_engine_matches_loop_reference(n):
    rng = np.random.default_rng(100 + n)
    stack = (rng.uniform(-1, 1, (2, n)) + 1j * rng.uniform(-1, 1, (2, n))) / np.sqrt(2)
    for d in range(5):
        want = np.array([power_loop(row, d) for row in stack])
        assert np.max(np.abs(gw.gowers_power_batch(stack, d) - want)) <= 1e-12
        f = gl.GroupFunction(n, stack[0])
        if d == 0:
            assert abs(gl.gowers_norm(f, 0).u0_value - want[0]) <= 1e-12
        else:
            assert abs(gl.gowers_norm(f, d).value ** (2 ** d) - want[0].real) <= 1e-12
            assert np.max(np.abs(gl.gowers_norm_batch(stack, d) ** (2 ** d) - want.real)) <= 1e-12
        want_duals = np.array([dual_loop(row, d) for row in stack])
        assert np.max(np.abs(gl.dual_function(f, d).values - want_duals[0])) <= 1e-12
        if d >= 1:
            duals = gw._dual_rows(stack, d, gw._shift_table(n))
            assert np.max(np.abs(duals - want_duals)) <= 1e-12


@pytest.mark.parametrize("block", (1, 40, 100, 160))
def test_engine_blocks_match_unblocked(monkeypatch, block):
    """Expansions that span many blocks, including blocks shorter than a
    row and blocks that split one row's run of shifts, agree with a
    single block per level."""
    rng = np.random.default_rng(200)
    n = 13
    stack = (rng.uniform(-1, 1, (4, n)) + 1j * rng.uniform(-1, 1, (4, n))) / np.sqrt(2)
    f = gl.GroupFunction(n, stack[1])
    fs = [gl.GroupFunction(n, row) for row in stack]

    def evaluate():
        return (
            [gw.gowers_power_batch(stack, d) for d in (1, 2, 3)],
            [gl.gowers_norm(f, d).value for d in (1, 2, 3, 4)],
            [gl.dual_function(f, d).values for d in (1, 2, 3)],
            [gw._dual_rows(stack, d, gw._shift_table(n)) for d in (2, 3)],
            gl.multilinear_average(fs, (0, 1, 3, 7)),
            gl.recurrence_average(f, 4, r_range=range(-2, 11), mu=3).average,
        )

    monkeypatch.setattr(gw, "_BLOCK", 1 << 40)
    whole = evaluate()
    monkeypatch.setattr(gw, "_BLOCK", block)
    assert n * n > block  # every derivative step of a single row spans blocks
    blocked = evaluate()
    for a, b in zip(whole, blocked):
        assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-12


@pytest.mark.parametrize("d", (3, 4))
def test_certified_dual_matches_engine_and_loop(d):
    rng = np.random.default_rng(300 + d)
    n = 7
    f = gl.GroupFunction(n, (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) / np.sqrt(2))
    cf = gl.certify_dual(f, d)
    assert np.max(np.abs(cf.func.values - gl.dual_function(f, d).values)) <= 1e-12
    assert np.max(np.abs(cf.func.values - dual_loop(f.values, d))) <= 1e-12
    gl.verify_certificate(cf)
