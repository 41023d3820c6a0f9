"""Uniform almost-periodicity certificates.

A certificate of order d for a function F witnesses the representation

    T^n F = M . E( c_{n,h} . g_h | h in H )        for every n in Z_N,

where the columns g_h are bounded functions, the weights on H are a
probability vector, and each coefficient c_{n,h} is itself certified at
order d - 1 with bound at most 1 (constants at order 0).  The number M is
the certified bound.  Certificates are explicit witnesses: operations
below construct them, and verify_certificate re-checks every layer down
to the constants.  No infimum over representations is ever computed; a
certificate only ever asserts an upper bound.

Storage convention: a certificate holds the function G it certifies, and
row r of its table is T^r G.  Order-1 coefficients are a dense complex
matrix indexed (n, h); order >= 2 ones are nested CertifiedFunction nodes.
A CertifiedFunction is a certificate read at an offset: its function is
T^offset G, its row i stored row i + offset.  So a shift is an offset, not
a copy: cert_shift returns the same certificate object, the N shifts of a
sub-certificate in certify_dual share it, and each function's values live
once, on its certificate.  verify_certificate checks each certificate
object once, against its own G.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, DEFAULT_CERT_NODE_BUDGET
from .cyclic import (
    GroupFunction,
    inner_product,
    phase_values,
    poly_degree,
    poly_reduce,
    poly_shift_difference,
    shift,
)
from .errors import (
    BoundednessError,
    CertificateInvalidError,
    DimensionMismatchError,
    NormTooSmallError,
    NumericalInconsistencyError,
    OrderMismatchError,
    ResourceLimitError,
    UnsupportedOrderError,
)
from .gowers import _shift_table, fourier_coefficients, gowers_norm


@dataclass(eq=False)
class UapCertificate:
    """One node of a certificate tree; see the module docstring."""

    order: int
    bound: float
    func: GroupFunction  # G, the function certified: row r of the table is T^r G
    value: complex | None = None  # order 0 only: the constant
    weights: np.ndarray | None = None  # order >= 1: (H,) probability vector
    columns: tuple | None = None  # order >= 1: H bounded GroupFunctions
    coeffs: object = None  # order 1: (N, H) complex; order >= 2: nested nodes


@dataclass(eq=False)
class CertifiedFunction:
    """A certificate read at an offset: the function T^offset G, G = cert.func."""

    cert: UapCertificate
    offset: int = 0  # row i of this function is stored row i + offset

    @property
    def func(self) -> GroupFunction:  # cert.func itself at offset 0, else a fresh shift
        return shift(self.cert.func, self.offset) if self.offset else self.cert.func

    @property
    def rows(self):
        """The coefficient rows of an order >= 1 certificate, read through
        the offset (a fresh matrix at order 1, a tuple of rows above)."""
        c, s = self.cert.coeffs, self.offset
        return np.concatenate((c[s:], c[:s])) if self.cert.order == 1 else c[s:] + c[:s]

    @property
    def n(self) -> int:
        return self.cert.func.n  # self.func would build a shift on every call

    @property
    def order(self) -> int:
        return self.cert.order

    @property
    def bound(self) -> float:
        return self.cert.bound


# ---------------------------------------------------------------------------
# basic constructors


def certify_constant(n: int, value: complex, bound: float | None = None,
                     tol: float = DEFAULT_TOL) -> CertifiedFunction:
    value = complex(value)
    if bound is None:
        bound = abs(value)
    if abs(value) > bound + tol:
        raise CertificateInvalidError(f"|{value}| exceeds declared bound {bound}")
    return CertifiedFunction(UapCertificate(0, float(bound), GroupFunction.constant(n, value),
                                            value=value))


def cert_zero(n: int, order: int) -> CertifiedFunction:
    """The zero function certified at any order with bound 0."""
    return cert_promote(certify_constant(n, 0.0, bound=0.0), order)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
    max_reconstruction_error: float
    depth: int
    total_nodes: int


def verify_certificate(
    cf: CertifiedFunction, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Re-check every layer of a certificate; raise on the first failure.

    A depth-first walk visits each distinct node once.  At the first node
    that holds a certificate object it checks that certificate in full
    (_check), compares its table with the rows T^r G of its function G,
    and pushes its sub-certificates; every other holder of it passes or
    fails with it.  The failure raised is the one met first: the earliest
    node in walk order, and within a node the first of bound, constant,
    weights, columns, coefficients, reconstruction.  The returned report
    carries the worst reconstruction error seen, the tree depth, and the
    number of distinct nodes.  Every comparison is written so that a NaN
    bound, constant, weight, coefficient or value fails it.
    """
    checked, seen = set(), set()  # certificate ids; node ids
    depth, worst, n = 0, 0.0, cf.n
    idx = _shift_table(n)  # _check passes no sub-certificate on another group
    stack = [(cf, 0, ("root",))]
    while stack:
        node, dep, path = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        depth = max(depth, dep)
        cert = node.cert
        if id(cert) in checked:
            continue
        checked.add(id(cert))
        table = _check(node, tol, path, idx)
        if cert.order >= 2:
            depth = max(depth, dep + 1)
            stack.extend((sub, dep + 1, path + (i, j))
                         for i, row in enumerate(node.rows) for j, sub in enumerate(row))
        atol, g = tol * max(1.0, cert.bound), cert.func.values
        if cert.order == 0:
            err = float(np.max(np.abs(g - cert.value)))
            message = f"order-0 function is not the certified constant (err {err:.3e})"
        else:
            err = float(np.max(np.abs(g[idx] - table)))
            message, atol = f"reconstruction error {err:.3e} beyond tolerance", atol * n
        if not err <= atol:
            raise CertificateInvalidError(message, path)
        worst = max(worst, err)
    return VerificationReport(worst, depth, len(seen))


def _check(node: CertifiedFunction, tol: float, path: tuple, idx: np.ndarray):
    """Check the certificate that node holds, raising the first failure in
    the order verify_certificate reports them; a failing coefficient row is
    named by its index in node's rows.  Returns the reconstruction table,
    row r = M . sum_h w_h c_{r,h} g_h over the stored rows r (None at
    order 0); idx is the shift table of node's group."""
    cert, n = node.cert, node.n
    if cert.bound == np.inf:
        raise CertificateInvalidError("infinite bound", path)
    if not cert.bound >= 0:
        raise CertificateInvalidError("negative bound", path)
    if cert.order == 0:
        if cert.value is None:
            raise CertificateInvalidError("order-0 node without a constant", path)
        if not abs(cert.value) <= cert.bound + tol * max(1.0, cert.bound):
            raise CertificateInvalidError(
                f"constant modulus {abs(cert.value):.6g} exceeds bound {cert.bound:.6g}", path)
        return None
    if cert.weights is None or cert.columns is None or cert.coeffs is None:
        raise CertificateInvalidError("missing weights/columns/coefficients", path)
    w, h = np.asarray(cert.weights, dtype=float), len(cert.columns)
    if w.shape != (h,):
        raise CertificateInvalidError("weights and columns differ in number", path)
    if np.any(w < -tol):
        raise CertificateInvalidError("negative weight", path)
    if not abs(float(w.sum()) - 1.0) <= tol * max(1, h):
        raise CertificateInvalidError(f"weights sum to {w.sum()!r}, not 1", path)
    for j, g in enumerate(cert.columns):
        if g.n != n:
            raise CertificateInvalidError("column on wrong group", path + (j,))
    cols = np.stack([g.values for g in cert.columns])  # (H, N)
    # the is_bounded test on every column at once; NaN counts as unbounded
    unbounded = np.flatnonzero(~(np.max(np.abs(cols), axis=1) <= 1.0 + tol))
    if unbounded.size:
        j = int(unbounded[0])
        raise CertificateInvalidError(f"column {j} unbounded", path + (j,))
    if cert.order == 1:
        coeff = np.asarray(cert.coeffs, dtype=np.complex128)
        if coeff.shape != (n, h):
            raise CertificateInvalidError("coefficient matrix shape mismatch", path)
        if not np.max(np.abs(coeff)) <= 1.0 + tol:
            raise CertificateInvalidError("order-0 coefficient exceeds 1", path)
        return cert.bound * (coeff * w) @ cols
    if len(cert.coeffs) != n:
        raise CertificateInvalidError("coefficient rows != N", path)
    for i, row in enumerate(node.rows):
        if len(row) != h:
            raise CertificateInvalidError("coefficient row length mismatch", path + (i,))
        for j, sub in enumerate(row):
            if not isinstance(sub, CertifiedFunction):
                message = "coefficient of an order >= 2 node must be certified"
            elif sub.n != n:
                message = "coefficient on wrong group"
            elif sub.cert.order != cert.order - 1:
                message = f"coefficient order {sub.cert.order}, expected {cert.order - 1}"
            elif not sub.cert.bound <= 1.0 + tol:
                message = f"coefficient bound {sub.cert.bound:.6g} exceeds 1"
            else:
                continue
            raise CertificateInvalidError(message, path + (i, j))
    coeff = np.array([[sub.cert.func.values[idx[sub.offset]] for sub in row]  # (N, H, N)
                      for row in cert.coeffs])
    return cert.bound * np.einsum("ihx,hx->ix", coeff, w[:, None] * cols)


# ---------------------------------------------------------------------------
# closure operations


def _phase_of(sigma: complex) -> complex:
    a = abs(sigma)
    return sigma / a if a > 0 else 1.0 + 0.0j


def _per_stored(rows, op) -> tuple:
    """The slots of order >= 2 rows under op, which runs once per stored
    certificate: each slot gets the certificate op made from its stored
    one, read at its own offset, so slots that shared a certificate still
    do."""
    done = {}

    def slot(c):
        if id(c.cert) not in done:
            done[id(c.cert)] = op(c).cert
        return CertifiedFunction(done[id(c.cert)], c.offset)

    return tuple(tuple(slot(c) for c in row) for row in rows)


def _rescaled(cert: UapCertificate, func: GroupFunction, bound: float, factor) -> UapCertificate:
    """The node for func with bound `bound` and every coefficient times `factor`
    (a phase, or a ratio of bounds at most 1, so coefficient bounds hold)."""
    if cert.order == 1:
        coeffs = np.asarray(cert.coeffs) * factor
    elif factor == 0:  # each slot is cert_zero, as cert_scale(c, 0) makes it
        coeffs = tuple(tuple(cert_scale(c, 0) for c in row) for row in cert.coeffs)
    else:
        sigma = complex(factor)
        coeffs = _per_stored(cert.coeffs, lambda c: cert_scale(c, sigma))
    return UapCertificate(cert.order, bound, func, weights=cert.weights,
                          columns=cert.columns, coeffs=coeffs)


def cert_scale(cf: CertifiedFunction, sigma: complex) -> CertifiedFunction:
    """Certificate for sigma . F with bound |sigma| M.

    The modulus goes into the bound and the phase into the coefficients,
    so coefficient bounds are preserved exactly.
    """
    sigma = complex(sigma)
    cert = cf.cert
    if sigma == 0:
        return cert_zero(cf.n, cert.order)
    func = GroupFunction(cf.n, cert.func.values * sigma)
    bound = cert.bound * abs(sigma)
    if cert.order == 0:
        new = UapCertificate(0, bound, func, value=cert.value * sigma)
    else:
        new = _rescaled(cert, func, bound, _phase_of(sigma))
    return CertifiedFunction(new, cf.offset)


def raise_bound(cf: CertifiedFunction, new_bound: float) -> CertifiedFunction:
    """Re-declare a larger bound, scaling coefficients by M_old / M_new."""
    cert = cf.cert
    if new_bound < cert.bound - DEFAULT_TOL:
        raise CertificateInvalidError("cannot lower a certified bound in place")
    if new_bound <= cert.bound:
        return cf
    if cert.order == 0:
        new = UapCertificate(0, float(new_bound), cert.func, value=cert.value)
    else:  # the ratio is 0 when the old bound was 0: zero function
        new = _rescaled(cert, cert.func, float(new_bound), cert.bound / new_bound)
    return CertifiedFunction(new, cf.offset)


def _require_same(a: CertifiedFunction, b: CertifiedFunction):
    if a.n != b.n:
        raise DimensionMismatchError("certificates on different groups")
    if a.cert.order != b.cert.order:
        raise OrderMismatchError(
            f"orders {a.cert.order} and {b.cert.order}; promote the lower one first"
        )


def _concat(a: CertifiedFunction, b: CertifiedFunction, wa: float, wb: float,
            bound: float, func: GroupFunction) -> UapCertificate:
    """One node for func over the columns of a then b, weights mixed wa : wb."""
    weights = np.concatenate([wa * a.cert.weights, wb * b.cert.weights])
    if a.order == 1:
        coeffs = np.hstack([a.rows, b.rows])
    else:
        coeffs = tuple(ra + rb for ra, rb in zip(a.rows, b.rows))
    return UapCertificate(a.order, bound, func, weights=weights,
                          columns=a.cert.columns + b.cert.columns, coeffs=coeffs)


def cert_add(a: CertifiedFunction, b: CertifiedFunction, theta: float) -> CertifiedFunction:
    """Convex combination (1-theta) a + theta b, bound max(M_a, M_b)."""
    _require_same(a, b)
    if not 0.0 <= theta <= 1.0:
        raise CertificateInvalidError(f"theta = {theta} outside [0, 1]")
    m = max(a.bound, b.bound)
    func = GroupFunction(a.n, (1 - theta) * a.func.values + theta * b.func.values)
    if a.cert.order == 0:
        value = (1 - theta) * a.cert.value + theta * b.cert.value
        return CertifiedFunction(UapCertificate(0, m, func, value=value))
    return CertifiedFunction(_concat(raise_bound(a, m), raise_bound(b, m), 1 - theta, theta, m,
                                     func))


def cert_sum(a: CertifiedFunction, b: CertifiedFunction) -> CertifiedFunction:
    """General sum a + b with bound M_a + M_b (mixing theta = M_b / (M_a + M_b))."""
    _require_same(a, b)
    total = a.bound + b.bound
    if total == 0:
        return cert_zero(a.n, a.cert.order)
    func = GroupFunction(a.n, a.func.values + b.func.values)
    if a.cert.order == 0:
        value = a.cert.value + b.cert.value
        return CertifiedFunction(UapCertificate(0, total, func, value=value))
    return CertifiedFunction(_concat(a, b, a.bound / total, b.bound / total, total, func))


def cert_multiply(a: CertifiedFunction, b: CertifiedFunction) -> CertifiedFunction:
    """Product certificate over the product index set; bounds multiply."""
    _require_same(a, b)
    func = GroupFunction(a.n, a.func.values * b.func.values)
    if a.cert.order == 0:
        value = a.cert.value * b.cert.value
        return CertifiedFunction(UapCertificate(0, a.bound * b.bound, func, value=value))
    weights = np.outer(a.cert.weights, b.cert.weights).ravel()
    columns = tuple(
        GroupFunction(a.n, ga.values * gb.values)
        for ga in a.cert.columns
        for gb in b.cert.columns
    )
    if a.cert.order == 1:
        coeffs = np.einsum("nh,nk->nhk", a.rows, b.rows).reshape(a.n, -1)
    else:
        coeffs = tuple(
            tuple(cert_multiply(x, y) for x in ra for y in rb)
            for ra, rb in zip(a.rows, b.rows)
        )
    return CertifiedFunction(UapCertificate(
        a.cert.order, a.bound * b.bound, func, weights=weights, columns=columns, coeffs=coeffs
    ))


def cert_shift(cf: CertifiedFunction, s: int) -> CertifiedFunction:
    """Certificate for T^s F: the same certificate, read s rows further on."""
    return CertifiedFunction(cf.cert, (cf.offset + int(s)) % cf.n)


def cert_conj(cf: CertifiedFunction) -> CertifiedFunction:
    """Certificate for conj(F): conjugate columns, coefficients, constant."""
    cert = cf.cert
    func = cert.func.conj()
    if cert.order == 0:
        return CertifiedFunction(UapCertificate(0, cert.bound, func, value=np.conj(cert.value)),
                                 cf.offset)
    columns = tuple(g.conj() for g in cert.columns)
    if cert.order == 1:
        coeffs = np.conj(np.asarray(cert.coeffs))
    else:
        coeffs = _per_stored(cert.coeffs, cert_conj)
    new = UapCertificate(cert.order, cert.bound, func, weights=cert.weights,
                         columns=columns, coeffs=coeffs)
    return CertifiedFunction(new, cf.offset)


def cert_promote(cf: CertifiedFunction, order: int) -> CertifiedFunction:
    """Wrap as a single-column certificate once per level up to `order`.

    The column is the constant 1 and the coefficient at row n is the
    certified function T^n F / M, so the bound is preserved.
    """
    if order < cf.cert.order:
        raise UnsupportedOrderError(
            f"cannot demote order {cf.cert.order} to {order}"
        )
    out = cf
    while out.cert.order < order:
        out = _promote_one(out)
    return out


def _promote_one(cf: CertifiedFunction) -> CertifiedFunction:
    n = cf.n
    cert = cf.cert
    if cert.order == 0:
        coeffs = np.full((n, 1), cert.value / cert.bound if cert.bound else 0.0,
                         dtype=np.complex128)
    elif cert.bound == 0:  # bound 0 forces F = 0
        sub = cert_zero(n, cert.order)
        coeffs = tuple((sub,) for _ in range(n))
    else:
        scaled = cert_scale(cf, 1.0 / cert.bound)
        coeffs = tuple((cert_shift(scaled, i),) for i in range(n))
    return CertifiedFunction(UapCertificate(
        cert.order + 1, cert.bound, cf.func, weights=np.array([1.0]),
        columns=(GroupFunction.constant(n, 1.0),), coeffs=coeffs))


# ---------------------------------------------------------------------------
# phase-sum certificates


def _phase_coeffs(n: int, terms, degree: int):
    """Coefficient (i, m) = c_m e((P_m(x+i) - P_m(x))/n) for terms (c_m, P_m):
    constants at degree 1, else certified one order down."""
    if degree == 1:  # P_m(x+i) - P_m(x) = a_m i, a_m the linear coefficient
        table = [np.exp(2j * np.pi * j / n) for j in range(n)]
        coeffs = np.empty((n, len(terms)), dtype=np.complex128)
        for m, (c, p) in enumerate(terms):
            a = (poly_reduce(p, n) + (0,))[1]
            for i in range(n):  # scalar products: numpy's array multiply can differ by an ulp
                coeffs[i, m] = c * table[a * i % n]
        return coeffs
    return tuple(
        tuple(certify_phase_sum(n, [(c, poly_shift_difference(p, i, n))], order=degree - 1)
              for c, p in terms)
        for i in range(n)
    )


def certify_phase_sum(n: int, terms, order: int | None = None) -> CertifiedFunction:
    """Certificate for F = sum_m gamma_m e(P_m(x)/n) with bound sum |gamma_m|.

    Columns are the phases e(P_m/n), the weight of a term is its share of
    the total coefficient mass, and the (i, m) coefficient is the phase of
    gamma_m times e((P_m(x+i) - P_m(x))/n), certified recursively one
    order down.  The natural order is the maximal polynomial degree;
    `order` may promote above it.
    """
    merged: dict = {}
    for g, p in terms:
        key = poly_reduce(p, n)
        merged[key] = merged.get(key, 0.0 + 0.0j) + complex(g)
    kept = [(g, p) for p, g in merged.items() if abs(g) > 0]
    if not kept:
        return cert_zero(n, order or 0)
    degree = max(poly_degree(p, n) for _, p in kept)
    total = sum(abs(g) for g, _ in kept)
    if degree == 0:
        const = sum(g * np.exp(2j * np.pi * p[0] / n) for g, p in kept)
        out = certify_constant(n, const, bound=total)
    else:
        values = np.zeros(n, dtype=np.complex128)
        for g, p in kept:
            values += g * phase_values(p, n)
        columns = tuple(GroupFunction(n, phase_values(p, n)) for _, p in kept)
        weights = np.array([abs(g) / total for g, _ in kept])
        coeffs = _phase_coeffs(n, [(_phase_of(g), p) for g, p in kept], degree)
        out = CertifiedFunction(UapCertificate(
            degree, float(total), GroupFunction(n, values), weights=weights, columns=columns,
            coeffs=coeffs))
    if order is not None and order > out.cert.order:
        out = cert_promote(out, order)
    elif order is not None and order < out.cert.order:
        raise UnsupportedOrderError(
            f"terms have degree {out.cert.order}, cannot certify at order {order}"
        )
    return out


def certify_spectrum(f: GroupFunction) -> CertifiedFunction:
    """Certificate of f's Fourier expansion, sum of hat f(xi) e(xi x/n) over the
    |hat f(xi)| > 1e-13: order 1 (0 if only the mean is left), bound its l1 mass."""
    fhat = fourier_coefficients(f)
    return certify_phase_sum(
        f.n, [(fhat[xi], (0, xi)) for xi in range(f.n) if abs(fhat[xi]) > 1e-13]
    )


# ---------------------------------------------------------------------------
# dual-function certificates


def certify_dual(
    f: GroupFunction,
    d: int,
    node_budget: int = DEFAULT_CERT_NODE_BUDGET,
    tol: float = DEFAULT_TOL,
) -> CertifiedFunction:
    """Certificate of order d-1 and bound 1 for the dual function D_d(f).

    The representation shifts the defining average: with g_h = T^h f,

        T^i D_d(f) = E( [T^i D_{d-1}(f . conj(T^{h-i} f))] . g_h | h ),

    using conj(D_{d-1}(g)) = D_{d-1}(conj(g)), which holds because every
    derivative commutes with conjugation.  So the coefficient at (i, h)
    depends on h - i only: the N^2 coefficient slots hold the N shifts of
    each of N sub-certificates, and the shifts of one share its certificate
    object, read at N offsets.  The function itself is assembled from the same
    sub-certificates at i = 0, so every sub-dual is computed once.

    The input is checked once, here: with m = max|f| it is accepted only if
    m^(2^(d-1)) <= 1 + tol, which implies m <= 1 + tol.  Every function
    certified inside is a product of at most 2^(d-2) factors of f, and
    every order-1 coefficient one of 2^(d-1), so up to rounding this
    implies each bound the verifier checks.
    """
    if d < 1:
        raise UnsupportedOrderError("dual certificates need d >= 1")
    with np.errstate(over="ignore"):
        if not np.max(np.abs(f.values)) ** np.exp2(d - 1) <= 1.0 + tol:
            raise BoundednessError(
                f"dual certificate of order {d} requires max|f|^{2 ** (d - 1)} <= 1 + tol"
            )
    n = f.n
    if n ** (d - 1) > node_budget:
        raise ResourceLimitError(
            f"certificate would need ~{n ** (d - 1)} nodes, budget {node_budget}"
        )
    if d == 1:
        return certify_constant(n, np.mean(f.values), bound=1.0, tol=tol)  # D_1(f) = E(f)
    return _dual(f.values, d, _shift_table(n))


def _dual(values: np.ndarray, d: int, idx: np.ndarray) -> CertifiedFunction:
    """certify_dual of checked values for d >= 2, on the shift table idx."""
    n = values.shape[0]
    shifted = values[idx]  # row h is T^h f
    columns = tuple(GroupFunction(n, row) for row in shifted)
    weights = np.full(n, 1.0 / n)
    # D_d(f) = E( c_h . T^h f | h ) with c_h = D_{d-1}(f . conj(T^h f))
    if d == 2:
        # the c_h are the constants conj(E(conj(f) T^h f)); slot (i, h) holds c_{h-i}
        consts = np.conj((np.conj(values) * shifted).mean(axis=1))
        coeffs = consts[idx[-np.arange(n) % n]]
        return CertifiedFunction(UapCertificate(1, 1.0, GroupFunction(n, consts @ shifted / n),
                                                weights=weights, columns=columns, coeffs=coeffs))
    base = [_dual(values * np.conj(shifted[m]), d - 1, idx) for m in range(n)]
    dual = (np.array([b.func.values for b in base]) * shifted).mean(axis=0)
    rows = tuple(
        tuple(cert_shift(base[(h - i) % n], i) for h in range(n)) for i in range(n)
    )
    return CertifiedFunction(UapCertificate(d - 1, 1.0, GroupFunction(n, dual), weights=weights,
                                            columns=columns, coeffs=rows))


# ---------------------------------------------------------------------------
# duality checks


@dataclass(frozen=True)
class DualityReport:
    k: int
    lhs: float  # |<f, F>|
    rhs: float  # ||f||_{U^{k-1}} . M
    norm: float
    bound: float
    holds: bool


def duality_audit(f: GroupFunction, cf: CertifiedFunction, tol: float = DEFAULT_TOL) -> DualityReport:
    """Check |<f, F>| <= ||f||_{U^{k-1}} M for a certified F of order k-2."""
    if not f.is_bounded(tol):
        raise BoundednessError("duality audit requires max|f| <= 1")
    verify_certificate(cf, tol)
    k = cf.cert.order + 2
    norm = gowers_norm(f, k - 1, tol).value
    lhs = abs(inner_product(f, cf.func))
    rhs = norm * cf.cert.bound
    return DualityReport(k, float(lhs), float(rhs), float(norm), cf.cert.bound,
                         bool(lhs <= rhs + tol))


@dataclass(frozen=True)
class CorrelationWitness:
    certificate: CertifiedFunction
    correlation: float
    norm: float


def lower_bound_correlation(
    f: GroupFunction,
    k: int,
    eps: float,
    node_budget: int = DEFAULT_CERT_NODE_BUDGET,
    tol: float = DEFAULT_TOL,
) -> CorrelationWitness:
    """For ||f||_{U^{k-1}} >= eps, certify an order-(k-2) function of bound 1
    whose correlation with f is at least eps^(2^(k-1)).

    The witness is the dual D_{k-1}(f); its pairing with f equals the
    (2^(k-1))-th power of the norm exactly, which is asserted.
    """
    if k < 3:
        raise UnsupportedOrderError("correlation witnesses need k >= 3")
    if not f.is_bounded(tol):
        raise BoundednessError("requires max|f| <= 1")
    norm = gowers_norm(f, k - 1, tol).value
    if norm < eps - tol:
        raise NormTooSmallError(
            f"||f||_U^{k-1} = {norm:.6g} below the required {eps:.6g}", measured=norm
        )
    cf = certify_dual(f, k - 1, node_budget, tol)
    corr = abs(inner_product(f, cf.func))
    expected = norm ** (2 ** (k - 1))
    if abs(corr - expected) > tol * max(1.0, expected) * f.n:
        raise NumericalInconsistencyError(
            f"correlation {corr:.6g} disagrees with norm power {expected:.6g}"
        )
    return CorrelationWitness(cf, float(corr), float(norm))
