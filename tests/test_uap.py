"""Certificate construction, algebra, and verification."""
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gowers_lab as gl
from gowers_lab.gowers import _shift_table
from gowers_lab.uap import _phase_coeffs
from gowers_lab.serialize import canonical_dumps, certificate_to_json, function_to_json
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
    # a phase average (1/J) sum_j c_j e(P_j/N) is the phase sum with gamma_j = c_j / J
    rng = np.random.default_rng(0)
    orders = []
    for trial in range(40):
        n = int(rng.choice(PRIMES))
        j_terms = int(rng.integers(1, 5))
        terms = []
        for _ in range(j_terms):
            deg = int(rng.integers(0, 4))
            poly = tuple(int(c) for c in rng.integers(0, n, deg + 1))
            phase = np.exp(2j * np.pi * rng.uniform())
            terms.append((phase * rng.uniform(0.2, 1.0), poly))
        if trial % 4 == 0:  # a repeated polynomial, merged into one column
            terms.append((0.5j, tuple(a + n for a in terms[0][1])))
        f = gl.quasiperiodic(n, terms)
        cf = gl.certify_phase_sum(n, [(c / len(terms), p) for c, p in terms])
        assert np.max(np.abs(cf.func.values - f.values)) <= 1e-12
        assert cf.bound <= 1.0 + 1e-12
        assert cf.order == max(gl.poly_degree(p, n) for _, p in terms)
        if cf.order >= 1:
            assert len(cf.cert.columns) == len({gl.poly_reduce(p, n) for _, p in terms})
        orders.append(cf.order)
        rep = assert_certifies(cf, f)
        assert rep.max_reconstruction_error <= 1e-9
    assert set(orders) == {0, 1, 2, 3}


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
    # at order 1 the rule is max|f| <= 1 + tol, and the constant E(f) is
    # certified under the same tol, which the verifier then accepts
    with pytest.raises(BoundednessError):
        gl.certify_dual(gl.GroupFunction.constant(7, 1.6), 1, tol=0.5)
    cf = gl.certify_dual(gl.GroupFunction.constant(7, 1.2), 1, tol=0.5)
    assert cf.cert.value == 1.2 and cf.bound == 1.0
    gl.verify_certificate(cf, 0.5)


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([5, 7, 11]),
    d=st.integers(1, 4),
    m=st.floats(1 - 1e-9, 1 + 2e-9),
    seed=st.one_of(st.none(), st.integers(0, 2 ** 31)),
)
def test_certify_dual_boundary_rule(n, d, m, seed):
    """f = m . (unit phases, or the constant 1) near the tolerance edge:
    certify_dual raises BoundednessError exactly when
    max|f|^(2^(d-1)) > 1 + tol, and every certificate it returns verifies."""
    phases = np.ones(n)
    if seed is not None:
        phases = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=n))
    f = gl.GroupFunction(n, m * phases)
    accept = np.max(np.abs(f.values)) ** (2 ** (d - 1)) <= 1 + 1e-9
    try:
        cf = gl.certify_dual(f, d)
    except BoundednessError:
        assert not accept
    else:
        assert accept
        gl.verify_certificate(cf)


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
    # a certificate that holds a wrong function
    with pytest.raises(CertificateInvalidError):
        gl.verify_certificate(_recert(cf, func=gl.shift(cf.func, 1)), 1e-9)
    # corrupt a coefficient beyond modulus 1
    coeffs = np.array(cf.cert.coeffs, copy=True)
    coeffs[0, 0] = 3.0
    with pytest.raises(CertificateInvalidError):
        gl.verify_certificate(_recert(cf, coeffs=coeffs), 1e-9)
    # an unbounded column, or a NaN one, is named by its index
    for value in (1.0 + 1e-6, np.nan):
        bad = _with_column(cf, 2, gl.GroupFunction.constant(7, value))
        with pytest.raises(CertificateInvalidError, match="column 2 unbounded") as err:
            gl.verify_certificate(bad, 1e-9)
        assert err.value.path == ("root", 2)


def test_verify_error_carries_path():
    rng = np.random.default_rng(13)
    f = bounded_function(rng, 7)
    cf = gl.certify_dual(f, 3)
    # a slot whose certificate holds a wrong function
    bad = _replace(cf, ("root", 0, 0), lambda c: _recert(c, func=gl.shift(c.cert.func, 1)))
    with pytest.raises(CertificateInvalidError) as err:
        gl.verify_certificate(bad, 1e-9)
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
    # the n^2 slots hold n stored certificates, each read at n offsets, and
    # n stored functions: a slot holds no function values of its own
    assert len({id(c.cert) for row in cf.cert.coeffs for c in row}) == 11
    assert len({id(c.cert.func) for row in cf.cert.coeffs for c in row}) == 11
    assert {x.name for x in dataclasses.fields(gl.CertifiedFunction)} == {"cert", "offset"}
    # slot (i, h) is the base certificate of difference h - i read at offset i
    base = cf.cert.coeffs[0]
    for i, row in enumerate(cf.cert.coeffs):
        for h, c in enumerate(row):
            assert c.cert is base[(h - i) % 11].cert and c.offset == i
            assert np.array_equal(c.func.values, gl.shift(base[(h - i) % 11].func, i).values)
    rep = gl.verify_certificate(cf, 1e-9)
    assert rep.total_nodes <= 2 * 11 * 11
    # a closure operation keeps the sharing: it runs once per stored certificate
    for op in (lambda c: gl.cert_scale(c, 0.5j), lambda c: gl.raise_bound(c, 2.0), gl.cert_conj):
        out = op(cf)
        assert len({id(c.cert) for row in out.cert.coeffs for c in row}) == 11
        assert len({id(c.cert.func) for row in out.cert.coeffs for c in row}) == 11
        assert_same_report(out)


# ---------------------------------------------------------------------------
# references: the construction through cert_conj and the node-by-node verifier


def certify_dual_conj_ref(f, d):
    """certify_dual as built before: each sub-dual on conj(f) . T^m f,
    then conjugated node by node with cert_conj."""
    n = f.n
    if d == 1:
        return gl.certify_dual(f, 1)
    if d == 2:
        return gl.certify_dual(f, 2)
    idx = _shift_table(n)
    shifted = f.values[idx]
    conj_vals = np.conj(f.values)
    columns = tuple(gl.GroupFunction(n, row) for row in shifted)
    weights = np.full(n, 1.0 / n)
    base = [gl.cert_conj(certify_dual_conj_ref(gl.GroupFunction(n, conj_vals * shifted[m]), d - 1))
            for m in range(n)]
    dual = (np.array([b.func.values for b in base]) * shifted).mean(axis=0)
    rows = tuple(
        tuple(gl.cert_shift(base[(h - i) % n], i) for h in range(n)) for i in range(n)
    )
    return gl.CertifiedFunction(gl.UapCertificate(d - 1, 1.0, gl.GroupFunction(n, dual),
                                                  weights=weights, columns=columns, coeffs=rows))


def _rows(cf):
    """The coefficient rows of cf read through its offset: row i is stored
    row i + offset."""
    stored = cf.cert.coeffs
    if cf.cert.order == 1:
        return np.roll(np.asarray(stored, dtype=np.complex128), -cf.offset, axis=0)
    return [stored[k] for k in np.roll(np.arange(len(stored)), -cf.offset)]


def verify_loop(cf, tol=1e-9):
    """The verifier as it was, with every comparison written so that NaN
    fails it: every check on one node at a time."""
    seen = {}
    worst = 0.0
    max_depth = 0
    stack = [(cf, 0, ("root",))]
    while stack:
        node, depth, path = stack.pop()
        max_depth = max(max_depth, depth)
        if id(node) in seen:
            continue
        seen[id(node)] = None
        cert = node.cert
        atol = tol * max(1.0, cert.bound)
        if cert.bound == np.inf:
            raise CertificateInvalidError("infinite bound", path)
        if not cert.bound >= 0:
            raise CertificateInvalidError("negative bound", path)
        if cert.order == 0:
            if cert.value is None:
                raise CertificateInvalidError("order-0 node without a constant", path)
            if not abs(cert.value) <= cert.bound + atol:
                raise CertificateInvalidError(
                    f"constant modulus {abs(cert.value):.6g} exceeds bound {cert.bound:.6g}",
                    path,
                )
            err = float(np.max(np.abs(node.func.values - cert.value)))
            if not err <= atol:
                raise CertificateInvalidError(
                    f"order-0 function is not the certified constant (err {err:.3e})",
                    path,
                )
            worst = max(worst, err)
            continue
        if cert.weights is None or cert.columns is None or cert.coeffs is None:
            raise CertificateInvalidError("missing weights/columns/coefficients", path)
        w = np.asarray(cert.weights, dtype=float)
        if w.shape != (len(cert.columns),):
            raise CertificateInvalidError("weights and columns differ in number", path)
        if np.any(w < -tol):
            raise CertificateInvalidError("negative weight", path)
        if not abs(float(w.sum()) - 1.0) <= tol * max(1, len(w)):
            raise CertificateInvalidError(f"weights sum to {w.sum()!r}, not 1", path)
        for j, g in enumerate(cert.columns):
            if g.n != node.n:
                raise CertificateInvalidError("column on wrong group", path + (j,))
        cols = np.stack([g.values for g in cert.columns])
        unbounded = np.flatnonzero(~(np.max(np.abs(cols), axis=1) <= 1.0 + tol))
        if unbounded.size:
            j = int(unbounded[0])
            raise CertificateInvalidError(f"column {j} unbounded", path + (j,))
        if cert.order == 1:
            coeff = np.asarray(cert.coeffs, dtype=np.complex128)
            if coeff.shape != (node.n, len(cert.columns)):
                raise CertificateInvalidError("coefficient matrix shape mismatch", path)
            if not np.max(np.abs(coeff)) <= 1.0 + tol:
                raise CertificateInvalidError("order-0 coefficient exceeds 1", path)
            coeff = _rows(node)
            recon = cert.bound * (coeff * cert.weights[None, :]) @ cols
        else:
            if len(cert.coeffs) != node.n:
                raise CertificateInvalidError("coefficient rows != N", path)
            rows = _rows(node)
            for i, row in enumerate(rows):
                if len(row) != len(cert.columns):
                    raise CertificateInvalidError("coefficient row length mismatch", path + (i,))
                for j, sub in enumerate(row):
                    if not isinstance(sub, gl.CertifiedFunction):
                        raise CertificateInvalidError(
                            "coefficient of an order >= 2 node must be certified",
                            path + (i, j),
                        )
                    if sub.n != node.n:
                        raise CertificateInvalidError("coefficient on wrong group", path + (i, j))
                    if sub.cert.order != cert.order - 1:
                        raise CertificateInvalidError(
                            f"coefficient order {sub.cert.order}, expected {cert.order - 1}",
                            path + (i, j),
                        )
                    if not sub.cert.bound <= 1.0 + tol:
                        raise CertificateInvalidError(
                            f"coefficient bound {sub.cert.bound:.6g} exceeds 1",
                            path + (i, j),
                        )
                    stack.append((sub, depth + 1, path + (i, j)))
            coeff = np.array([[c.func.values for c in row] for row in rows])
            recon = cert.bound * np.einsum("ihx,hx->ix", coeff, cert.weights[:, None] * cols)
        shifted = node.func.values[_shift_table(node.n)]
        err = float(np.max(np.abs(shifted - recon)))
        if not err <= atol * node.n:
            raise CertificateInvalidError(
                f"reconstruction error {err:.3e} beyond tolerance", path
            )
        worst = max(worst, err)
    return gl.VerificationReport(worst, max_depth, len(seen))


def assert_same_report(cf, ref=None):
    got = gl.verify_certificate(cf, 1e-9)
    want = verify_loop(cf if ref is None else ref, 1e-9)
    assert (got.total_nodes, got.depth) == (want.total_nodes, want.depth)
    assert abs(got.max_reconstruction_error - want.max_reconstruction_error) <= 1e-15
    return got


def tree_digest(cf, memo):
    """A Merkle digest of a certificate tree.  Each node hashes its order
    and bound, the float64 bits of the arrays that certificate_to_json
    writes (its repr of a float is one to one on them), and the digests of
    its sub-certificates.  Equal digests mean equal canonical JSON, found
    without expanding the shared subtrees, which at (13, 4) would run to
    hundreds of megabytes."""
    if id(cf) not in memo:
        cert = cf.cert
        h = hashlib.sha256(repr((cert.order, float(cert.bound))).encode())
        h.update(cf.func.values.tobytes())
        if cert.order == 0:
            h.update(np.complex128(cert.value).tobytes())
        else:
            h.update(np.asarray(cert.weights, dtype=float).tobytes())
            for g in cert.columns:
                h.update(g.values.tobytes())
            if cert.order == 1:
                h.update(_rows(cf).tobytes())
            else:
                for c in (c for row in _rows(cf) for c in row):
                    h.update(tree_digest(c, memo).encode())
        memo[id(cf)] = h.hexdigest()
    return memo[id(cf)]


@pytest.mark.parametrize("n,d", [(5, 2), (7, 3), (13, 3), (13, 4), (31, 3)])
def test_direct_conjugated_duals_match_cert_conj_reference(n, d):
    """certify_dual writes the same canonical JSON as the construction
    through cert_conj: in full up to N^(d-1) = 169, and beyond that for the
    first sub-certificate in full and for the whole tree by digest."""
    f = bounded_function(np.random.default_rng(100 + n + d), n, scale=1.0)
    cf, ref = gl.certify_dual(f, d), certify_dual_conj_ref(f, d)
    whole = n ** (d - 1) <= 13 ** 2
    a, b = (cf, ref) if whole else (cf.cert.coeffs[0][0], ref.cert.coeffs[0][0])
    same = canonical_dumps(certificate_to_json(a)) == canonical_dumps(certificate_to_json(b))
    assert same  # (no diff of megabyte strings on failure)
    assert tree_digest(cf, {}) == tree_digest(ref, {})
    assert_same_report(cf, ref)
    # the N shifts of each sub-certificate keep one columns tuple and weights array
    if d >= 3:
        subs = [c for row in cf.cert.coeffs for c in row]
        assert len({id(c.cert.columns) for c in subs}) == n
        assert len({id(c.cert.weights) for c in subs}) == n


def _replace(cf, path, make):
    """cf with the node at path ("root", i, j, ...) replaced by make(node);
    every other node is kept, so the sharing elsewhere stays."""
    if len(path) == 1:
        return make(cf)
    i, j = path[1], path[2]
    rows = [list(r) for r in _rows(cf)]
    rows[i][j] = _replace(rows[i][j], ("root",) + tuple(path[3:]), make)
    cert = cf.cert
    return gl.CertifiedFunction(gl.UapCertificate(
        cert.order, cert.bound, cf.func, weights=cert.weights, columns=cert.columns,
        coeffs=tuple(tuple(r) for r in rows)))


def _recert(node, **fields):
    """node read at its offset from a new certificate: node's own, with
    fields (func is the certified function G) replaced."""
    cert = node.cert
    kw = dict(order=cert.order, bound=cert.bound, func=cert.func, value=cert.value,
              weights=cert.weights, columns=cert.columns, coeffs=cert.coeffs)
    kw.update(fields)
    return gl.CertifiedFunction(gl.UapCertificate(**kw), node.offset)


def _with_column(node, j, column):
    cols = list(node.cert.columns)
    cols[j] = column
    return _recert(node, columns=tuple(cols))


def _with_coeff_rows(node, edit):
    rows = [list(r) for r in node.cert.coeffs]
    edit(rows)
    return _recert(node, coeffs=tuple(tuple(r) for r in rows))


def _scaled_coeff(node, i, j, factor):
    coeffs = np.array(node.cert.coeffs, copy=True)
    coeffs[i, j] *= factor
    return _recert(node, coeffs=coeffs)


def _del_row(rows):
    del rows[1]


def _short_row(rows):
    rows[2] = rows[2][:-1]


def _set_slot(value):
    def edit(rows):
        rows[1][2] = value(rows[1][2])
    return edit


def _with_value(node, i, value):
    """node with its value at i set: its certificate's G is edited at i + offset."""
    vals = node.cert.func.values.copy()
    vals[(i + node.offset) % node.n] = value
    return _recert(node, func=gl.GroupFunction(node.n, vals))


# (name, order of the member, corruption of the member, message pattern)
MEMBER_CORRUPTIONS = [
    ("negative bound", 1, lambda x: _recert(x, bound=-0.5), "negative bound"),
    ("missing coeffs", 1, lambda x: _recert(x, coeffs=None), "missing"),
    ("missing weights", 1, lambda x: _recert(x, weights=None), "missing"),
    ("negative weight", 1, lambda x: _recert(x, weights=np.r_[-0.25, 1.25, np.zeros(5)]),
     "negative weight"),
    ("weight sum", 1, lambda x: _recert(x, weights=0.5 * x.cert.weights), "weights sum"),
    ("weight count", 1, lambda x: _recert(x, weights=np.r_[x.cert.weights, 0.0]),
     "weights and columns differ"),
    ("wrong group", 1, lambda x: _with_column(x, 3, gl.GroupFunction.constant(5, 0.5)),
     "column on wrong group"),
    ("unbounded column", 1, lambda x: _with_column(x, 4, gl.GroupFunction.constant(7, 1.01)),
     "column 4 unbounded"),
    ("NaN column", 1, lambda x: _with_column(x, 5, gl.GroupFunction.constant(7, np.nan)),
     "column 5 unbounded"),
    ("shape", 1, lambda x: _recert(x, coeffs=np.asarray(x.cert.coeffs)[:, :-1]), "shape"),
    ("coefficient modulus", 1, lambda x: _scaled_coeff(x, 2, 3, 50.0), "exceeds 1"),
    ("reconstruction", 1, lambda x: _scaled_coeff(x, 2, 3, 0.5), "reconstruction error"),
    ("rows", 2, lambda x: _with_coeff_rows(x, _del_row), "rows != N"),
    ("row length", 2, lambda x: _with_coeff_rows(x, _short_row), "row length"),
    ("uncertified", 2, lambda x: _with_coeff_rows(x, _set_slot(lambda c: 0.5)),
     "must be certified"),
    ("sub group", 2, lambda x: _with_coeff_rows(
        x, _set_slot(lambda c: gl.cert_promote(gl.certify_constant(5, 0.5), 1))),
     "coefficient on wrong group"),
    ("sub order", 2, lambda x: _with_coeff_rows(x, _set_slot(lambda c: gl.cert_promote(c, 2))),
     "coefficient order 2, expected 1"),
    ("sub bound", 2, lambda x: _with_coeff_rows(x, _set_slot(lambda c: gl.raise_bound(c, 2.0))),
     "coefficient bound 2 exceeds 1"),
    ("reconstruction", 2,
     lambda x: _with_coeff_rows(x, _set_slot(lambda c: gl.cert_shift(c, 1))), "reconstruction"),
    # the member's certificate holding a function one value off: the value
    # moves by 2e-8, beyond the member's tolerance 7e-9 but not the root's,
    # which sees it divided by N
    *[("moved value", order, lambda x: _with_value(x, 4, x.func.values[4] + 2e-8),
       "reconstruction error") for order in (1, 2)],
]


def _same_failure(bad):
    with pytest.raises(CertificateInvalidError) as want:
        verify_loop(bad, 1e-9)
    with pytest.raises(CertificateInvalidError) as got:
        gl.verify_certificate(bad, 1e-9)
    assert str(got.value) == str(want.value)
    assert got.value.path == want.value.path
    return got.value


@pytest.mark.parametrize("case", MEMBER_CORRUPTIONS,
                         ids=[f"{c[0]}-order{c[1]}" for c in MEMBER_CORRUPTIONS])
def test_verify_corruption_in_one_member_of_a_column_set(case):
    """Break one check in one member of a shared column set, at (root, i, j)
    with i != 0; the verifier names the same failure and path as the loop."""
    _, order, corrupt, pattern = case
    f = bounded_function(np.random.default_rng(16), 7, scale=1.0)
    cf = gl.certify_dual(f, order + 2)
    path = ("root", 3, 5)
    member = cf.cert.coeffs[3][5]
    siblings = [c for row in cf.cert.coeffs for c in row if c.cert.columns is member.cert.columns]
    assert len(siblings) == 7  # the member shares its column set with its N - 1 shifts
    err = _same_failure(_replace(cf, path, corrupt))
    assert pattern in str(err)
    assert err.path[:3] == path


def test_verify_corruption_shared_by_a_whole_column_set():
    """Corrupting the shared weights or a shared column in place breaks every
    member of the set; the failure is named at the member the walk meets first."""
    f = bounded_function(np.random.default_rng(17), 7, scale=1.0)
    for order in (1, 2):
        for name in ("weights", "column", "nan"):
            cf = gl.certify_dual(f, order + 2)
            member = cf.cert.coeffs[3][5]
            if name == "weights":
                member.cert.weights[1] += 0.5
            else:
                member.cert.columns[2].values[4] = 2.0 if name == "column" else np.nan
            err = _same_failure(cf)
            assert err.path[0] == "root" and len(err.path) >= 3


def test_verify_corruption_at_the_root():
    rng = np.random.default_rng(18)
    const = gl.certify_constant(7, 0.3 + 0.4j)
    for bad in (
        _recert(const, value=None),
        _recert(const, bound=0.1),
        _recert(const, func=gl.GroupFunction.constant(7, 0.2)),
        _recert(const, bound=-1.0),
    ):
        assert _same_failure(bad).path == ("root",)
    cf = gl.certify_dual(bounded_function(rng, 7), 3)
    bad = _recert(cf, func=gl.shift(cf.func, 1))
    assert "reconstruction" in str(_same_failure(bad))
    # the root fails before a member whose check runs earlier in the walk
    worse = _replace(bad, ("root", 2, 4), lambda x: _recert(x, coeffs=None))
    assert _same_failure(worse).path == ("root",)
    # a coefficient corrupted at root level fails there before any member is visited
    moved = _set_slot(lambda c: _recert(c, func=gl.shift(c.cert.func, 1)))
    bad = _with_coeff_rows(cf, moved)
    assert _same_failure(bad).path == ("root",)
    # so does a slot read one row off: a sound certificate of the moved
    # function, in the wrong slot
    err = _same_failure(_with_coeff_rows(cf, _set_slot(lambda c: gl.cert_shift(c, 1))))
    assert "reconstruction" in str(err) and err.path == ("root",)


# (name, order of the dual's certificate, NaN put in, message pattern)
NAN_CORRUPTIONS = [
    ("bound", 1, lambda x: _recert(x, bound=np.nan), "negative bound"),
    ("constant", 0, lambda x: _recert(x, value=complex(np.nan, 0.0)),
     "constant modulus nan exceeds bound"),
    ("weight", 1, lambda x: _recert(x, weights=np.r_[np.nan, x.cert.weights[1:]]),
     "weights sum to"),
    ("coefficient", 1, lambda x: _scaled_coeff(x, 2, 3, np.nan), "exceeds 1"),
    ("value", 1, lambda x: _with_value(x, 4, np.nan), "reconstruction error nan"),
    ("value", 0, lambda x: _with_value(x, 4, np.nan), "not the certified constant (err nan)"),
]


@pytest.mark.parametrize("case", NAN_CORRUPTIONS,
                         ids=[f"{c[0]}-order{c[1]}" for c in NAN_CORRUPTIONS])
def test_verify_rejects_nan(case):
    """A NaN bound, constant, weight, coefficient or function value fails
    verification, with the message and path of the loop reference."""
    _, order, corrupt, pattern = case
    f = bounded_function(np.random.default_rng(19), 7)
    cf = gl.certify_dual(f, order + 1)
    assert gl.verify_certificate(cf, 1e-9).total_nodes == 1
    err = _same_failure(corrupt(cf))
    assert pattern in str(err)
    assert err.path == ("root",)


def _phase_coeffs_loop(n, terms):
    """Reference for the degree-1 coefficients: one poly_shift_difference
    call per entry, c_m e((P_m(x+i) - P_m(x))/n)."""
    coeffs = np.empty((n, len(terms)), dtype=np.complex128)
    for m, (c, p) in enumerate(terms):
        for i in range(n):
            coeffs[i, m] = c * np.exp(2j * np.pi * gl.poly_shift_difference(p, i, n)[0] / n)
    return coeffs


def test_linear_phase_coeffs_match_the_loop_bitwise():
    """The degree-1 table lookup reproduces the per-entry loop bit for bit,
    for constant, linear and unreduced polynomials and for Python complex,
    numpy complex and real coefficients."""
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(5, 402))
        terms = []
        for m in range(int(rng.integers(1, 7))):
            c = complex(*rng.normal(size=2))
            c = (c / abs(c), np.complex128(c), float(c.real))[m % 3]
            a0, a1 = (int(v) for v in rng.integers(-2 * n, 2 * n, size=2))
            terms.append((c, (a0,) if m == 1 else (a0, a1)))
        terms.append((1j, (0, 1)))
        got = _phase_coeffs(n, terms, 1)
        assert got.tobytes() == _phase_coeffs_loop(n, terms).tobytes(), n


# the sources of each _promote_one case: order 0 (nonzero, and zero with a
# positive bound), bound 0 above order 0, and the general case
PROMOTE_SOURCES = [
    ("constant", lambda n: gl.certify_constant(n, 0.3 - 0.4j)),
    ("zero constant, bound 0.5", lambda n: gl.certify_constant(n, 0, bound=0.5)),
    ("zero, order 1", lambda n: gl.cert_zero(n, 1)),
    ("dual, order 1", lambda n: gl.certify_dual(bounded_function(np.random.default_rng(20), n), 2)),
]


@pytest.mark.parametrize("source", PROMOTE_SOURCES, ids=[s[0] for s in PROMOTE_SOURCES])
def test_cert_promote_to_order_3_from_each_case(source):
    n = 7
    cf = source[1](n)
    up = gl.cert_promote(cf, 3)
    assert up.order == 3
    assert up.bound == cf.bound
    assert_certifies(up, cf.func)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3, 5, 7, 11, 13]),
    d=st.integers(1, 4),
    data=st.data(),
)
def test_dual_of_conjugate_is_conjugate_of_dual(n, d, data):
    parts = st.lists(st.floats(-0.7, 0.7), min_size=n, max_size=n)
    f = gl.GroupFunction(n, np.array(data.draw(parts)) + 1j * np.array(data.draw(parts)))
    got = gl.dual_function(f.conj(), d).values
    assert np.max(np.abs(got - np.conj(gl.dual_function(f, d).values))) <= 1e-12


OPS = st.one_of(
    st.tuples(st.just("shift"), st.integers(0, 12)),
    st.tuples(st.just("conj"), st.just(0)),
    st.tuples(st.just("multiply"), st.integers(0, 2 ** 31)),
    st.tuples(st.just("promote"), st.just(0)),
    st.tuples(st.just("scale"), st.sampled_from([0.0, 0.5, -1.0, 0.6 - 0.8j, 2j])),
    st.tuples(st.just("raise"), st.floats(1.0, 4.0)),
    st.tuples(st.just("add"), st.tuples(st.integers(0, 2 ** 31), st.floats(0.0, 1.0))),
    st.tuples(st.just("sum"), st.integers(0, 2 ** 31)),
)


def _certified_other(seed, n, order):
    """A certified dual of a fresh function, at order `order`."""
    g = bounded_function(np.random.default_rng(seed), n, scale=1.0)
    return gl.cert_promote(gl.certify_dual(g, min(order, 1) + 1), order)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([5, 7]),
    d=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2 ** 31),
    ops=st.lists(OPS, max_size=4),
)
# d = 1 gives an order-0 dual: every closure operation on a constant
@example(n=5, d=1, seed=1, ops=[("scale", 0.6 - 0.8j), ("raise", 2.0), ("add", (2, 0.25)),
                                ("sum", 3), ("shift", 2), ("conj", 0), ("multiply", 4)])
# sums at orders 2 and 3 concatenate nested coefficient rows
@example(n=5, d=3, seed=1, ops=[("add", (2, 0.5)), ("conj", 0), ("multiply", 4),
                                ("promote", 0), ("sum", 3), ("scale", 0.0)])
def test_closure_chains_on_certified_duals_verify(n, d, seed, ops):
    """Random chains of closure operations on a certified dual verify, the
    loop verifier agrees, and the function is the one the chain says."""
    f = bounded_function(np.random.default_rng(seed), n, scale=1.0)
    cf = gl.certify_dual(f, d)
    want = cf.func.values
    multiplied = False
    for op, arg in ops:
        if op == "shift":
            cf, want = gl.cert_shift(cf, arg), np.roll(want, -arg)
        elif op == "conj":
            cf, want = gl.cert_conj(cf), np.conj(want)
        elif op == "promote" and cf.order < 3:
            cf = gl.cert_promote(cf, cf.order + 1)
        elif op == "multiply" and cf.order <= 2 and not multiplied:
            other = _certified_other(arg, n, cf.order)
            cf, want, multiplied = gl.cert_multiply(cf, other), want * other.func.values, True
        elif op == "scale":
            cf, want = gl.cert_scale(cf, arg), want * arg
        elif op == "raise":
            cf = gl.raise_bound(cf, cf.bound * arg)
        elif op == "add":
            other = _certified_other(arg[0], n, cf.order)
            theta = arg[1]
            cf = gl.cert_add(cf, other, theta)
            want = (1 - theta) * want + theta * other.func.values
        elif op == "sum":
            other = _certified_other(arg, n, cf.order)
            cf, want = gl.cert_sum(cf, other), want + other.func.values
    assert np.allclose(cf.func.values, want, atol=1e-12)
    assert_same_report(cf)
