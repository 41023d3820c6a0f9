"""Certificate construction, algebra, and verification."""
import numpy as np
import pytest

import gowers_lab as gl
from gowers_lab.errors import (
    BoundednessError,
    CertificateInvalidError,
    NormTooSmallError,
    OrderMismatchError,
    ResourceLimitError,
    UnsupportedOrderError,
)

PRIMES = (5, 7, 11, 13)


def bounded_function(rng, n, scale=0.7):
    vals = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return gl.GroupFunction(n, scale * vals / np.sqrt(2))


def assert_certifies(cf, f=None, tol=1e-9):
    rep = gl.verify_certificate(cf, tol)
    if f is not None:
        assert np.allclose(cf.func.values, f.values, atol=1e-9)
    return rep


def test_certify_constant():
    cf = gl.certify_constant(7, 0.3 - 0.4j)
    assert cf.order == 0 and cf.bound == pytest.approx(0.5)
    assert_certifies(cf)
    z = gl.cert_zero(7, 2)
    assert z.order == 2 and z.bound == 0.0
    assert_certifies(z)
    assert np.allclose(z.func.values, 0.0)


def test_quasiperiodic_certificates():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.choice(PRIMES))
        j_terms = int(rng.integers(1, 4))
        terms = []
        for _ in range(j_terms):
            deg = int(rng.integers(0, 3))
            poly = tuple(int(c) for c in rng.integers(0, n, deg + 1))
            phase = np.exp(2j * np.pi * rng.uniform())
            terms.append((phase * rng.uniform(0.2, 1.0), poly))
        ps = gl.quasiperiodic(n, terms)
        cf = gl.certify_quasiperiodic(ps)
        assert cf.bound == pytest.approx(1.0)
        rep = assert_certifies(cf, ps.func)
        assert rep.max_reconstruction_error <= 1e-9


def test_certify_dual_orders():
    rng = np.random.default_rng(1)
    for n in PRIMES:
        f = bounded_function(rng, n, scale=1.0)
        for d in (1, 2, 3):
            cf = gl.certify_dual(f, d)
            assert cf.order == d - 1
            assert cf.bound <= 1.0 + 1e-12
            assert_certifies(cf, gl.dual_function(f, d))


def test_certify_dual_rejects_unbounded():
    f = gl.GroupFunction.constant(7, 1.5)
    with pytest.raises(BoundednessError):
        gl.certify_dual(f, 2)


def test_certify_dual_node_budget():
    rng = np.random.default_rng(2)
    f = bounded_function(rng, 13, scale=1.0)
    with pytest.raises(ResourceLimitError):
        gl.certify_dual(f, 3, node_budget=10)


def test_duality_audit():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.choice(PRIMES))
        f = bounded_function(rng, n, scale=1.0)
        d = int(rng.integers(1, 4))
        cf = gl.certify_dual(f, d)
        rep = gl.duality_audit(f, cf)
        assert rep.holds
        assert rep.k == d + 1
        assert rep.lhs == pytest.approx(rep.norm ** (2 ** d), abs=1e-9)
        assert rep.lhs <= rep.rhs + 1e-9


def test_cert_scale_semantics():
    rng = np.random.default_rng(4)
    f = bounded_function(rng, 11)
    cf = gl.certify_dual(f, 2)
    scaled = gl.cert_scale(cf, -2.0j)
    assert scaled.bound == pytest.approx(2.0 * cf.bound)
    assert_certifies(scaled, -2.0j * cf.func)
    zero = gl.cert_scale(cf, 0.0)
    assert zero.bound == 0.0
    assert_certifies(zero)


def test_raise_bound():
    rng = np.random.default_rng(5)
    f = bounded_function(rng, 11)
    cf = gl.certify_dual(f, 2)
    up = gl.raise_bound(cf, 3.0)
    assert up.bound == pytest.approx(3.0)
    assert_certifies(up, cf.func)
    with pytest.raises(CertificateInvalidError):
        gl.raise_bound(cf, cf.bound / 2)


def test_cert_add_convexity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.choice(PRIMES))
        a = gl.certify_dual(bounded_function(rng, n), 2)
        b = gl.certify_dual(bounded_function(rng, n), 2)
        theta = float(rng.uniform())
        c = gl.cert_add(a, b, theta)
        want = gl.GroupFunction(n, (1 - theta) * a.func.values + theta * b.func.values)
        assert c.bound == pytest.approx(max(a.bound, b.bound))
        assert_certifies(c, want)


def test_cert_sum_exact():
    rng = np.random.default_rng(7)
    n = 11
    a = gl.certify_dual(bounded_function(rng, n), 2)
    b = gl.cert_scale(gl.certify_dual(bounded_function(rng, n), 2), 1.7)
    c = gl.cert_sum(a, b)
    assert c.bound == pytest.approx(a.bound + b.bound)
    assert_certifies(c, gl.GroupFunction(n, a.func.values + b.func.values))


def test_cert_multiply_algebra():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.choice(PRIMES))
        a = gl.certify_dual(bounded_function(rng, n), 2)
        b = gl.certify_dual(bounded_function(rng, n), 2)
        c = gl.cert_multiply(a, b)
        assert c.bound == pytest.approx(a.bound * b.bound)
        assert_certifies(c, gl.GroupFunction(n, a.func.values * b.func.values))


def test_cert_multiply_order_mismatch():
    rng = np.random.default_rng(9)
    n = 7
    a = gl.certify_dual(bounded_function(rng, n), 2)  # order 1
    b = gl.certify_dual(bounded_function(rng, n), 3)  # order 2
    with pytest.raises(OrderMismatchError):
        gl.cert_multiply(a, b)


def test_cert_shift_conj_as_functions():
    rng = np.random.default_rng(10)
    for d in (2, 3):
        n = 11
        f = bounded_function(rng, n)
        cf = gl.certify_dual(f, d)
        s = int(rng.integers(1, n))
        shifted = gl.cert_shift(cf, s)
        assert_certifies(shifted, gl.shift(cf.func, s))
        conj = gl.cert_conj(cf)
        assert_certifies(conj, cf.func.conj())
        # shift round trip
        back = gl.cert_shift(shifted, n - s)
        assert np.allclose(back.func.values, cf.func.values)


def test_cert_promote():
    rng = np.random.default_rng(11)
    f = bounded_function(rng, 7)
    cf = gl.certify_dual(f, 2)  # order 1
    for target in (2, 3):
        up = gl.cert_promote(cf, target)
        assert up.order == target
        assert_certifies(up, cf.func)
    with pytest.raises(UnsupportedOrderError):
        gl.cert_promote(cf, 0)


def test_certify_phase_sum_merges_and_orders():
    n = 11
    terms = [(0.5, (0, 1)), (0.25, (0, 1, 0)), (0.25j, (3,))]
    cf = gl.certify_phase_sum(n, terms)
    # (0,1) and (0,1,0) reduce to the same polynomial and merge
    assert cf.order == 1
    want = 0.75 * gl.phase_values((0, 1), n) + 0.25j * gl.phase_values((3,), n)
    assert np.allclose(cf.func.values, want)
    assert_certifies(cf)
    with pytest.raises(UnsupportedOrderError):
        gl.certify_phase_sum(n, [(1.0, (0, 0, 1))], order=1)


def test_verify_rejects_corruption():
    rng = np.random.default_rng(12)
    f = bounded_function(rng, 7)
    cf = gl.certify_dual(f, 2)
    # claim a wrong represented function
    bad = gl.CertifiedFunction(gl.shift(cf.func, 1), cf.cert)
    with pytest.raises(CertificateInvalidError):
        gl.verify_certificate(bad, 1e-9)
    # corrupt a coefficient beyond modulus 1
    coeffs = np.array(cf.cert.coeffs, copy=True)
    coeffs[0, 0] = 3.0
    bad_cert = gl.UapCertificate(
        cf.cert.order, cf.cert.bound, weights=cf.cert.weights,
        columns=cf.cert.columns, coeffs=coeffs,
    )
    with pytest.raises(CertificateInvalidError):
        gl.verify_certificate(gl.CertifiedFunction(cf.func, bad_cert), 1e-9)
    # an unbounded column, or a NaN one, is named by its index
    for value in (1.0 + 1e-6, np.nan):
        columns = list(cf.cert.columns)
        columns[2] = gl.GroupFunction.constant(7, value)
        bad_cert = gl.UapCertificate(
            cf.cert.order, cf.cert.bound, weights=cf.cert.weights,
            columns=tuple(columns), coeffs=cf.cert.coeffs,
        )
        with pytest.raises(CertificateInvalidError, match="column 2 unbounded") as err:
            gl.verify_certificate(gl.CertifiedFunction(cf.func, bad_cert), 1e-9)
        assert err.value.path == ("root", 2)


def test_verify_error_carries_path():
    rng = np.random.default_rng(13)
    f = bounded_function(rng, 7)
    cf = gl.certify_dual(f, 3)
    inner = cf.cert.coeffs[0][0]
    bad_inner = gl.CertifiedFunction(gl.shift(inner.func, 1), inner.cert)
    rows = list(list(r) for r in cf.cert.coeffs)
    rows[0][0] = bad_inner
    bad_cert = gl.UapCertificate(
        cf.cert.order, cf.cert.bound, weights=cf.cert.weights,
        columns=cf.cert.columns, coeffs=tuple(tuple(r) for r in rows),
    )
    with pytest.raises(CertificateInvalidError) as err:
        gl.verify_certificate(gl.CertifiedFunction(cf.func, bad_cert), 1e-9)
    assert err.value.path  # breadcrumb to the offending node


def test_lower_bound_correlation():
    rng = np.random.default_rng(14)
    n = 11
    f = bounded_function(rng, n, scale=1.0)
    for k in (3, 4):
        u = gl.gowers_norm(f, k - 1).value
        wit = gl.lower_bound_correlation(f, k, u / 2)
        assert wit.correlation >= (u / 2) ** (2 ** (k - 1)) - 1e-9
        assert wit.correlation == pytest.approx(u ** (2 ** (k - 1)), abs=1e-9)
        gl.verify_certificate(wit.certificate, 1e-9)
    with pytest.raises(NormTooSmallError):
        gl.lower_bound_correlation(f, 3, 1.5)
    with pytest.raises(UnsupportedOrderError):
        gl.lower_bound_correlation(f, 2, 0.01)


def test_structural_sharing_in_dual():
    """Order-2 coefficients reuse one base certificate per difference."""
    rng = np.random.default_rng(15)
    f = bounded_function(rng, 11)
    cf = gl.certify_dual(f, 3)
    seen = {id(c.cert.coeffs) for row in cf.cert.coeffs for c in row}
    # n^2 slots share far fewer coefficient payloads than slots
    assert len(seen) <= 11 * 11
    rep = gl.verify_certificate(cf, 1e-9)
    assert rep.total_nodes <= 2 * 11 * 11
