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

Storage convention: for an order-1 certificate the coefficients are a
dense complex matrix indexed (n, h); for order >= 2 they are nested
CertifiedFunction nodes, shared structurally where the constructions
allow.  certify_dual keeps that sharing: the N shifts of a sub-certificate
(cert_shift) hold one columns tuple, one weights array and the same
coefficient rows.  verify_certificate checks each row once, the weights
and columns once per column set, and the reconstructions of a column set
in one stacked product.
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
from .gowers import _BLOCK, _shift_table, fourier_coefficients, gowers_norm


@dataclass(eq=False)
class UapCertificate:
    """One node of a certificate tree; see the module docstring."""

    order: int
    bound: float
    value: complex | None = None  # order 0 only: the constant
    weights: np.ndarray | None = None  # order >= 1: (H,) probability vector
    columns: tuple | None = None  # order >= 1: H bounded GroupFunctions
    coeffs: object = None  # order 1: (N, H) complex; order >= 2: nested nodes


@dataclass(eq=False)
class CertifiedFunction:
    """A function together with its almost-periodicity witness."""

    func: GroupFunction
    cert: UapCertificate

    @property
    def n(self) -> int:
        return self.func.n

    @property
    def order(self) -> int:
        return self.cert.order

    @property
    def bound(self) -> float:
        return self.cert.bound


# ---------------------------------------------------------------------------
# basic constructors


def certify_constant(n: int, value: complex, bound: float | None = None) -> CertifiedFunction:
    value = complex(value)
    if bound is None:
        bound = abs(value)
    if abs(value) > bound + DEFAULT_TOL:
        raise CertificateInvalidError(f"|{value}| exceeds declared bound {bound}")
    cert = UapCertificate(order=0, bound=float(bound), value=value)
    return CertifiedFunction(GroupFunction.constant(n, value), cert)


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


# the stages of one node's checks, in the order the failure is reported
_PRE, _SET, _COEFF, _RECON = range(4)


def verify_certificate(
    cf: CertifiedFunction, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Re-check every layer of a certificate; raise on the first failure.

    A depth-first walk visits each distinct node once (shared subtrees are
    verified once) and runs its own checks: the bound, the order-0
    constant, the coefficient structure.  Nodes that share one column set,
    that is the same columns, weights, order and N, as the N shifts of a
    sub-certificate built by certify_dual do, get the weight and column
    checks once per set, and their reconstructions are checked in one
    stacked product per block.  The failure raised is the one met first:
    the earliest node in walk order, and within a node the first of
    bound, weights, columns, coefficients, reconstruction.  The returned
    report carries the worst reconstruction error seen, the tree depth,
    and the number of distinct nodes.  Every comparison is written so
    that a NaN bound, constant, weight, coefficient or value fails it.
    """
    nodes, paths, depth, worst, fails = _walk(cf, tol)
    done = fails[0][0] if fails else len(nodes)  # nodes before it passed the walk
    sets: dict = {}
    for k, node in enumerate(nodes):
        cert = node.cert
        if cert.order == 0 or (k == done and fails[0][1] == _PRE):
            continue
        key = (id(cert.columns), id(cert.weights), cert.order, node.n)
        sets.setdefault(key, []).append(k)
    for members in sets.values():
        worst = max(worst, _check_set(nodes, members, tol, done, fails))
    if fails:
        k, _, message, slot = min(fails, key=lambda fail: fail[:2])
        raise CertificateInvalidError(message, paths[k] + slot)
    return VerificationReport(worst, depth, len(nodes))


def _walk(cf: CertifiedFunction, tol: float):
    """Depth-first walk over the distinct nodes, checking each node on its
    own; it stops at the first node that fails such a check.  Returns the
    nodes in walk order, their paths, the depth, the worst order-0 error
    and the failure as [(index, stage, message, slot)].

    A row of sub-certificates is checked and pushed once however many
    nodes hold it (cert_shift re-indexes rows without copying them).  A
    node that meets the row again has the same order, so it lies outside
    the first holder's subtree, which the walk has finished: every entry
    of the row is visited by then."""
    nodes, paths, seen, rows = [], [], set(), set()
    depth, worst = 0, 0.0
    stack = [(cf, 0, ("root",))]
    while stack:
        node, dep, path = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        paths.append(path)
        depth = max(depth, dep)
        cert = node.cert
        atol = tol * max(1.0, cert.bound)
        fail = None
        if not cert.bound >= 0:
            fail = _PRE, "negative bound", ()
        elif cert.order == 0:
            if cert.value is None:
                fail = _PRE, "order-0 node without a constant", ()
            elif not abs(cert.value) <= cert.bound + atol:
                fail = (_PRE, f"constant modulus {abs(cert.value):.6g} exceeds bound "
                        f"{cert.bound:.6g}", ())
            else:
                err = float(np.max(np.abs(node.func.values - cert.value)))
                if not err <= atol:
                    fail = (_PRE, "order-0 function is not the certified constant "
                            f"(err {err:.3e})", ())
                worst = max(worst, err)
        elif cert.weights is None or cert.columns is None or cert.coeffs is None:
            fail = _PRE, "missing weights/columns/coefficients", ()
        elif cert.order == 1:
            shape = np.shape(np.asarray(cert.coeffs, dtype=np.complex128))
            if shape != (node.n, len(cert.columns)):
                fail = _COEFF, "coefficient matrix shape mismatch", ()
        elif len(cert.coeffs) != node.n:
            fail = _COEFF, "coefficient rows != N", ()
        else:
            depth = max(depth, dep + 1)
            for i, row in enumerate(cert.coeffs):
                key = (id(row), cert.order, len(cert.columns))
                if key in rows:
                    continue
                fail = _row_failure(row, cert.order, len(cert.columns), node.n, tol)
                if fail is not None:
                    fail = _COEFF, fail[0], (i,) + fail[1]
                    break
                rows.add(key)
                stack.extend((sub, dep + 1, path + (i, j))
                             for j, sub in enumerate(row) if id(sub) not in seen)
        if fail is not None:
            return nodes, paths, depth, worst, [(len(nodes) - 1,) + fail]
    return nodes, paths, depth, worst, []


def _row_failure(row, order: int, h: int, n: int, tol: float):
    """The first failed check on one row of an order >= 2 node, as
    (message, slot within the row), or None."""
    if len(row) != h:
        return "coefficient row length mismatch", ()
    for j, sub in enumerate(row):
        if not isinstance(sub, CertifiedFunction):
            return "coefficient of an order >= 2 node must be certified", (j,)
        if sub.n != n:
            return "coefficient on wrong group", (j,)
        if sub.cert.order != order - 1:
            return f"coefficient order {sub.cert.order}, expected {order - 1}", (j,)
        if not sub.cert.bound <= 1.0 + tol:
            return f"coefficient bound {sub.cert.bound:.6g} exceeds 1", (j,)
    return None


def _check_set(nodes: list, members: list, tol: float, done: int, fails: list) -> float:
    """Check one column set: the weights and columns once, at its first
    member in walk order, then T^i F = M . sum_h w_h c_{i,h} g_h for every
    member that passed the walk, stacked in blocks of at most _BLOCK
    complex entries: at order 1 one (B.N, H) @ (H, N) product, at order
    >= 2 one einsum.  Records each failure; returns the worst error."""
    first = nodes[members[0]]
    order, n = first.cert.order, first.n
    w = np.asarray(first.cert.weights, dtype=float)
    fail = None
    if w.shape != (len(first.cert.columns),):
        fail = "weights and columns differ in number", ()
    elif np.any(w < -tol):
        fail = "negative weight", ()
    elif not abs(float(w.sum()) - 1.0) <= tol * max(1, len(w)):
        fail = f"weights sum to {w.sum()!r}, not 1", ()
    else:
        wrong = [j for j, g in enumerate(first.cert.columns) if g.n != n]
        if wrong:
            fail = "column on wrong group", (wrong[0],)
    if fail is None:
        cols = np.stack([g.values for g in first.cert.columns])  # (H, N)
        # the is_bounded test on every column at once; NaN counts as unbounded
        unbounded = np.flatnonzero(~(np.max(np.abs(cols), axis=1) <= 1.0 + tol))
        if unbounded.size:
            fail = f"column {unbounded[0]} unbounded", (int(unbounded[0]),)
    if fail is not None:
        fails.append((members[0], _SET) + fail)
        return 0.0
    h = cols.shape[0]
    members = [k for k in members if k < done]
    certs = [nodes[k].cert for k in members]
    bounds = np.array([c.bound for c in certs])[:, None, None]
    atol = np.array([tol * max(1.0, c.bound) for c in certs]) * n
    funcs = np.array([nodes[k].func.values for k in members])  # (K, N)
    idx = _shift_table(n)
    step = max(1, _BLOCK // (n * (max(h, n) if order == 1 else h * n)))
    worst = 0.0
    for lo in range(0, len(members), step):
        hi = lo + step
        if order == 1:
            coeff = np.array([c.coeffs for c in certs[lo:hi]], dtype=np.complex128)  # (B, N, H)
            over = ~(np.max(np.abs(coeff), axis=(1, 2)) <= 1.0 + tol)
            recon = (bounds[lo:hi] * (coeff * w)).reshape(-1, h) @ cols
        else:
            coeff = np.array([[[s.func.values for s in row] for row in c.coeffs]
                              for c in certs[lo:hi]])  # (B, N, H, N)
            over = np.zeros(coeff.shape[0], dtype=bool)
            recon = bounds[lo:hi] * np.einsum("bihx,hx->bix", coeff, w[:, None] * cols)
        err = np.max(np.abs(funcs[lo:hi, idx] - recon.reshape(-1, n, n)), axis=(1, 2))
        for b in np.flatnonzero(over | ~(err <= atol[lo:hi])):
            k = members[lo + b]
            fails.append((k, _COEFF, "order-0 coefficient exceeds 1", ()) if over[b] else
                         (k, _RECON, f"reconstruction error {err[b]:.3e} beyond tolerance", ()))
        worst = max(worst, *err.tolist())
    return worst


# ---------------------------------------------------------------------------
# closure operations


def _phase_of(sigma: complex) -> complex:
    a = abs(sigma)
    return sigma / a if a > 0 else 1.0 + 0.0j


def _rescaled(cert: UapCertificate, bound: float, factor) -> UapCertificate:
    """The node with bound `bound` and every coefficient times `factor`
    (a phase, or a ratio of bounds at most 1, so coefficient bounds hold)."""
    if cert.order == 1:
        coeffs = np.asarray(cert.coeffs) * factor
    else:
        coeffs = tuple(tuple(cert_scale(c, factor) for c in row) for row in cert.coeffs)
    return UapCertificate(cert.order, bound, weights=cert.weights,
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
    func = GroupFunction(cf.n, cf.func.values * sigma)
    bound = cert.bound * abs(sigma)
    if cert.order == 0:
        new = UapCertificate(0, bound, value=cert.value * sigma)
    else:
        new = _rescaled(cert, bound, _phase_of(sigma))
    return CertifiedFunction(func, new)


def raise_bound(cf: CertifiedFunction, new_bound: float) -> CertifiedFunction:
    """Re-declare a larger bound, scaling coefficients by M_old / M_new."""
    cert = cf.cert
    if new_bound < cert.bound - DEFAULT_TOL:
        raise CertificateInvalidError("cannot lower a certified bound in place")
    if new_bound <= cert.bound:
        return cf
    if cert.order == 0:
        new = UapCertificate(0, float(new_bound), value=cert.value)
    else:  # the ratio is 0 when the old bound was 0: zero function
        new = _rescaled(cert, float(new_bound), cert.bound / new_bound)
    return CertifiedFunction(cf.func, new)


def _require_same(a: CertifiedFunction, b: CertifiedFunction):
    if a.n != b.n:
        raise DimensionMismatchError("certificates on different groups")
    if a.cert.order != b.cert.order:
        raise OrderMismatchError(
            f"orders {a.cert.order} and {b.cert.order}; promote the lower one first"
        )


def _concat(a: UapCertificate, b: UapCertificate, wa: float, wb: float,
            bound: float) -> UapCertificate:
    """One node over the columns of a then b, their weights mixed wa : wb."""
    weights = np.concatenate([wa * a.weights, wb * b.weights])
    if a.order == 1:
        coeffs = np.hstack([np.asarray(a.coeffs), np.asarray(b.coeffs)])
    else:
        coeffs = tuple(ra + rb for ra, rb in zip(a.coeffs, b.coeffs))
    return UapCertificate(a.order, bound, weights=weights,
                          columns=a.columns + b.columns, coeffs=coeffs)


def cert_add(a: CertifiedFunction, b: CertifiedFunction, theta: float) -> CertifiedFunction:
    """Convex combination (1-theta) a + theta b, bound max(M_a, M_b)."""
    _require_same(a, b)
    if not 0.0 <= theta <= 1.0:
        raise CertificateInvalidError(f"theta = {theta} outside [0, 1]")
    m = max(a.bound, b.bound)
    func = GroupFunction(a.n, (1 - theta) * a.func.values + theta * b.func.values)
    if a.cert.order == 0:
        value = (1 - theta) * a.cert.value + theta * b.cert.value
        return CertifiedFunction(func, UapCertificate(0, m, value=value))
    cert = _concat(raise_bound(a, m).cert, raise_bound(b, m).cert, 1 - theta, theta, m)
    return CertifiedFunction(func, cert)


def cert_sum(a: CertifiedFunction, b: CertifiedFunction) -> CertifiedFunction:
    """General sum a + b with bound M_a + M_b (mixing theta = M_b / (M_a + M_b))."""
    _require_same(a, b)
    total = a.bound + b.bound
    if total == 0:
        return cert_zero(a.n, a.cert.order)
    func = GroupFunction(a.n, a.func.values + b.func.values)
    if a.cert.order == 0:
        value = a.cert.value + b.cert.value
        return CertifiedFunction(func, UapCertificate(0, total, value=value))
    cert = _concat(a.cert, b.cert, a.bound / total, b.bound / total, total)
    return CertifiedFunction(func, cert)


def cert_multiply(a: CertifiedFunction, b: CertifiedFunction) -> CertifiedFunction:
    """Product certificate over the product index set; bounds multiply."""
    _require_same(a, b)
    func = GroupFunction(a.n, a.func.values * b.func.values)
    if a.cert.order == 0:
        cert = UapCertificate(0, a.bound * b.bound, value=a.cert.value * b.cert.value)
        return CertifiedFunction(func, cert)
    weights = np.outer(a.cert.weights, b.cert.weights).ravel()
    columns = tuple(
        GroupFunction(a.n, ga.values * gb.values)
        for ga in a.cert.columns
        for gb in b.cert.columns
    )
    if a.cert.order == 1:
        ca, cb = np.asarray(a.cert.coeffs), np.asarray(b.cert.coeffs)
        coeffs = np.einsum("nh,nk->nhk", ca, cb).reshape(a.n, -1)
    else:
        coeffs = tuple(
            tuple(cert_multiply(x, y) for x in ra for y in rb)
            for ra, rb in zip(a.cert.coeffs, b.cert.coeffs)
        )
    cert = UapCertificate(
        a.cert.order, a.bound * b.bound, weights=weights, columns=columns, coeffs=coeffs
    )
    return CertifiedFunction(func, cert)


def cert_shift(cf: CertifiedFunction, s: int) -> CertifiedFunction:
    """Certificate for T^s F: coefficient rows re-index, columns unchanged."""
    cert = cf.cert
    s = int(s) % cf.n
    func = shift(cf.func, s)
    if cert.order == 0:
        return CertifiedFunction(func, cert)
    if cert.order == 1:
        coeffs = np.asarray(cert.coeffs)
        coeffs = np.concatenate((coeffs[s:], coeffs[:s]))  # np.roll by -s, without its overhead
    else:
        coeffs = tuple(cert.coeffs[(i + s) % cf.n] for i in range(cf.n))
    new = UapCertificate(cert.order, cert.bound, weights=cert.weights,
                         columns=cert.columns, coeffs=coeffs)
    return CertifiedFunction(func, new)


def cert_conj(cf: CertifiedFunction) -> CertifiedFunction:
    """Certificate for conj(F): conjugate columns, coefficients, constant."""
    cert = cf.cert
    func = cf.func.conj()
    if cert.order == 0:
        new = UapCertificate(0, cert.bound, value=np.conj(cert.value))
        return CertifiedFunction(func, new)
    columns = tuple(g.conj() for g in cert.columns)
    if cert.order == 1:
        coeffs = np.conj(np.asarray(cert.coeffs))
    else:
        coeffs = tuple(tuple(cert_conj(c) for c in row) for row in cert.coeffs)
    new = UapCertificate(cert.order, cert.bound, weights=cert.weights,
                         columns=columns, coeffs=coeffs)
    return CertifiedFunction(func, new)


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
        coeffs = tuple(
            (cert_scale(cert_shift(cf, i), 1.0 / cert.bound),) for i in range(n)
        )
    new = UapCertificate(cert.order + 1, cert.bound, weights=np.array([1.0]),
                         columns=(GroupFunction.constant(n, 1.0),), coeffs=coeffs)
    return CertifiedFunction(cf.func, new)


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
        cert = UapCertificate(
            degree, float(total), weights=weights, columns=columns, coeffs=coeffs
        )
        out = CertifiedFunction(GroupFunction(n, values), cert)
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
    depends on h - i only: the N shifts of one sub-certificate share its
    columns and weights, and the N sub-certificates fill the N^2
    coefficient slots.  The function itself is assembled from the same
    sub-certificates at i = 0, so every sub-dual is computed once.
    """
    if d < 1:
        raise UnsupportedOrderError("dual certificates need d >= 1")
    if not f.is_bounded(tol):
        raise BoundednessError("dual certificate requires max|f| <= 1")
    n = f.n
    if n ** (d - 1) > node_budget:
        raise ResourceLimitError(
            f"certificate would need ~{n ** (d - 1)} nodes, budget {node_budget}"
        )
    if d == 1:
        return certify_constant(n, np.mean(f.values), bound=1.0)  # D_1(f) = E(f)
    idx = _shift_table(n)
    shifted = f.values[idx]  # row h is T^h f
    columns = tuple(GroupFunction(n, row) for row in shifted)
    weights = np.full(n, 1.0 / n)
    # D_d(f) = E( c_h . T^h f | h ) with c_h = D_{d-1}(f . conj(T^h f))
    if d == 2:
        # the c_h are the constants conj(E(conj(f) T^h f)); slot (i, h) holds c_{h-i}
        consts = np.conj((np.conj(f.values) * shifted).mean(axis=1))
        coeffs = consts[idx[-np.arange(n) % n]]
        cert = UapCertificate(1, 1.0, weights=weights, columns=columns, coeffs=coeffs)
        return CertifiedFunction(GroupFunction(n, consts @ shifted / n), cert)
    base = [
        certify_dual(GroupFunction(n, f.values * np.conj(shifted[m])), d - 1, node_budget, tol)
        for m in range(n)
    ]
    dual = (np.array([b.func.values for b in base]) * shifted).mean(axis=0)
    rows = tuple(
        tuple(cert_shift(base[(h - i) % n], i) for h in range(n)) for i in range(n)
    )
    cert = UapCertificate(d - 1, 1.0, weights=weights, columns=columns, coeffs=rows)
    return CertifiedFunction(GroupFunction(n, dual), cert)


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
