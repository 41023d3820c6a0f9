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
allow (shifted re-indexings of a common subtree).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, DEFAULT_CERT_NODE_BUDGET
from .cyclic import (
    GroupFunction,
    PhaseSum,
    phase_values,
    poly_degree,
    poly_reduce,
    poly_shift_difference,
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
from .gowers import _shift_table, gowers_norm
from .cyclic import inner_product, shift


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
    phase_terms: tuple | None = None  # ((gamma, poly), ...) when exact

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
    return CertifiedFunction(GroupFunction.constant(n, value), cert,
                             phase_terms=((value, (0,)),) if value else ())


def cert_zero(n: int, order: int) -> CertifiedFunction:
    """The zero function certified at any order with bound 0."""
    cf = certify_constant(n, 0.0, bound=0.0)
    return cert_promote(cf, order) if order > 0 else cf


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
    max_reconstruction_error: float
    depth: int
    total_nodes: int


def _reconstruction_rows(cf: CertifiedFunction, cols: np.ndarray) -> np.ndarray:
    """M . sum_h w_h c_{n,h} g_h as an (N, N) matrix indexed (n, x), for
    the columns g_h stacked as an (H, N) array."""
    cert = cf.cert
    if cert.order == 1:
        coeff = np.asarray(cert.coeffs, dtype=np.complex128)  # (N, H)
        return cert.bound * (coeff * cert.weights[None, :]) @ cols
    coeff = np.array([[c.func.values for c in row] for row in cert.coeffs])  # (N, H, N)
    return cert.bound * np.einsum("ihx,hx->ix", coeff, cert.weights[:, None] * cols)


def verify_certificate(
    cf: CertifiedFunction, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Re-check every layer of a certificate; raise on the first failure.

    Shared subtrees are verified once.  The returned report carries the
    worst reconstruction error seen, the tree depth, and the number of
    distinct nodes.
    """
    seen: dict[int, None] = {}
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
        if cert.bound < 0:
            raise CertificateInvalidError("negative bound", path)
        if cert.order == 0:
            if cert.value is None:
                raise CertificateInvalidError("order-0 node without a constant", path)
            if abs(cert.value) > cert.bound + atol:
                raise CertificateInvalidError(
                    f"constant modulus {abs(cert.value):.6g} exceeds bound {cert.bound:.6g}",
                    path,
                )
            err = float(np.max(np.abs(node.func.values - cert.value)))
            if err > atol:
                raise CertificateInvalidError(
                    f"order-0 function is not the certified constant (err {err:.3e})",
                    path,
                )
            worst = max(worst, err)
            continue
        if cert.weights is None or cert.columns is None or cert.coeffs is None:
            raise CertificateInvalidError("missing weights/columns/coefficients", path)
        w = np.asarray(cert.weights, dtype=float)
        if np.any(w < -tol):
            raise CertificateInvalidError("negative weight", path)
        if abs(float(w.sum()) - 1.0) > tol * max(1, len(w)):
            raise CertificateInvalidError(f"weights sum to {w.sum()!r}, not 1", path)
        for j, g in enumerate(cert.columns):
            if g.n != node.n:
                raise CertificateInvalidError("column on wrong group", path + (j,))
        cols = np.stack([g.values for g in cert.columns])  # (H, N)
        # the is_bounded test on every column at once; NaN counts as unbounded
        unbounded = np.flatnonzero(~(np.max(np.abs(cols), axis=1) <= 1.0 + tol))
        if unbounded.size:
            j = int(unbounded[0])
            raise CertificateInvalidError(f"column {j} unbounded", path + (j,))
        if cert.order == 1:
            coeff = np.asarray(cert.coeffs, dtype=np.complex128)
            if coeff.shape != (node.n, len(cert.columns)):
                raise CertificateInvalidError("coefficient matrix shape mismatch", path)
            if np.max(np.abs(coeff)) > 1.0 + tol:
                raise CertificateInvalidError("order-0 coefficient exceeds 1", path)
        else:
            if len(cert.coeffs) != node.n:
                raise CertificateInvalidError("coefficient rows != N", path)
            for i, row in enumerate(cert.coeffs):
                if len(row) != len(cert.columns):
                    raise CertificateInvalidError("coefficient row length mismatch", path + (i,))
                for j, sub in enumerate(row):
                    if not isinstance(sub, CertifiedFunction):
                        raise CertificateInvalidError(
                            "coefficient of an order >= 2 node must be certified",
                            path + (i, j),
                        )
                    if sub.cert.order != cert.order - 1:
                        raise CertificateInvalidError(
                            f"coefficient order {sub.cert.order}, expected {cert.order - 1}",
                            path + (i, j),
                        )
                    if sub.cert.bound > 1.0 + tol:
                        raise CertificateInvalidError(
                            f"coefficient bound {sub.cert.bound:.6g} exceeds 1",
                            path + (i, j),
                        )
                    stack.append((sub, depth + 1, path + (i, j)))
        recon = _reconstruction_rows(node, cols)
        shifted = node.func.values[_shift_table(node.n)]
        err = float(np.max(np.abs(shifted - recon)))
        if err > atol * node.n:
            raise CertificateInvalidError(
                f"reconstruction error {err:.3e} beyond tolerance", path
            )
        worst = max(worst, err)

    return VerificationReport(worst, max_depth, len(seen))


# ---------------------------------------------------------------------------
# closure operations


def _phase_of(sigma: complex) -> complex:
    a = abs(sigma)
    return sigma / a if a > 0 else 1.0 + 0.0j


def _scale_coeff(c, phase: complex):
    if isinstance(c, CertifiedFunction):
        return cert_scale(c, phase)
    return c * phase


def cert_scale(cf: CertifiedFunction, sigma: complex) -> CertifiedFunction:
    """Certificate for sigma . F with bound |sigma| M.

    The modulus goes into the bound and the phase into the coefficients,
    so coefficient bounds are preserved exactly.
    """
    sigma = complex(sigma)
    cert = cf.cert
    func = GroupFunction(cf.n, cf.func.values * sigma)
    terms = _scale_terms(cf.phase_terms, sigma)
    if sigma == 0:
        return cert_zero(cf.n, cert.order)
    if cert.order == 0:
        new = UapCertificate(0, cert.bound * abs(sigma), value=cert.value * sigma)
        return CertifiedFunction(func, new, terms)
    phase = _phase_of(sigma)
    if cert.order == 1:
        coeffs = np.asarray(cert.coeffs) * phase
    else:
        coeffs = tuple(tuple(_scale_coeff(c, phase) for c in row) for row in cert.coeffs)
    new = UapCertificate(
        cert.order, cert.bound * abs(sigma), weights=cert.weights,
        columns=cert.columns, coeffs=coeffs,
    )
    return CertifiedFunction(func, new, terms)


def _scale_terms(terms, sigma):
    if terms is None:
        return None
    return tuple((g * sigma, p) for g, p in terms)


def raise_bound(cf: CertifiedFunction, new_bound: float) -> CertifiedFunction:
    """Re-declare a larger bound, scaling coefficients by M_old / M_new."""
    cert = cf.cert
    if new_bound < cert.bound - DEFAULT_TOL:
        raise CertificateInvalidError("cannot lower a certified bound in place")
    if new_bound <= cert.bound:
        return cf
    if cert.order == 0:
        new = UapCertificate(0, float(new_bound), value=cert.value)
        return CertifiedFunction(cf.func, new, cf.phase_terms)
    s = cert.bound / new_bound  # 0 when the old bound was 0: zero function
    if cert.order == 1:
        coeffs = np.asarray(cert.coeffs) * s
    else:
        coeffs = tuple(
            tuple(cert_scale(c, s) for c in row) for row in cert.coeffs
        )
    new = UapCertificate(
        cert.order, float(new_bound), weights=cert.weights,
        columns=cert.columns, coeffs=coeffs,
    )
    return CertifiedFunction(cf.func, new, cf.phase_terms)


def _require_same(a: CertifiedFunction, b: CertifiedFunction):
    if a.n != b.n:
        raise DimensionMismatchError("certificates on different groups")
    if a.cert.order != b.cert.order:
        raise OrderMismatchError(
            f"orders {a.cert.order} and {b.cert.order}; promote the lower one first"
        )


def cert_add(a: CertifiedFunction, b: CertifiedFunction, theta: float) -> CertifiedFunction:
    """Convex combination (1-theta) a + theta b, bound max(M_a, M_b)."""
    _require_same(a, b)
    if not 0.0 <= theta <= 1.0:
        raise CertificateInvalidError(f"theta = {theta} outside [0, 1]")
    m = max(a.bound, b.bound)
    func = GroupFunction(a.n, (1 - theta) * a.func.values + theta * b.func.values)
    terms = _merge_terms(_scale_terms(a.phase_terms, 1 - theta),
                         _scale_terms(b.phase_terms, theta), a.n)
    if a.cert.order == 0:
        value = (1 - theta) * a.cert.value + theta * b.cert.value
        return CertifiedFunction(func, UapCertificate(0, m, value=value), terms)
    a2, b2 = raise_bound(a, m), raise_bound(b, m)
    weights = np.concatenate([(1 - theta) * a2.cert.weights, theta * b2.cert.weights])
    columns = a2.cert.columns + b2.cert.columns
    if a.cert.order == 1:
        coeffs = np.hstack([np.asarray(a2.cert.coeffs), np.asarray(b2.cert.coeffs)])
    else:
        coeffs = tuple(ra + rb for ra, rb in zip(a2.cert.coeffs, b2.cert.coeffs))
    cert = UapCertificate(a.cert.order, m, weights=weights, columns=columns, coeffs=coeffs)
    return CertifiedFunction(func, cert, terms)


def cert_sum(a: CertifiedFunction, b: CertifiedFunction) -> CertifiedFunction:
    """General sum a + b with bound M_a + M_b (mixing theta = M_b / (M_a + M_b))."""
    _require_same(a, b)
    total = a.bound + b.bound
    func = GroupFunction(a.n, a.func.values + b.func.values)
    terms = _merge_terms(a.phase_terms, b.phase_terms, a.n)
    if total == 0:
        return cert_zero(a.n, a.cert.order)
    if a.cert.order == 0:
        value = a.cert.value + b.cert.value
        return CertifiedFunction(func, UapCertificate(0, total, value=value), terms)
    weights = np.concatenate(
        [(a.bound / total) * a.cert.weights, (b.bound / total) * b.cert.weights]
    )
    columns = a.cert.columns + b.cert.columns
    if a.cert.order == 1:
        coeffs = np.hstack([np.asarray(a.cert.coeffs), np.asarray(b.cert.coeffs)])
    else:
        coeffs = tuple(ra + rb for ra, rb in zip(a.cert.coeffs, b.cert.coeffs))
    cert = UapCertificate(a.cert.order, total, weights=weights, columns=columns, coeffs=coeffs)
    return CertifiedFunction(func, cert, terms)


def cert_multiply(a: CertifiedFunction, b: CertifiedFunction) -> CertifiedFunction:
    """Product certificate over the product index set; bounds multiply."""
    _require_same(a, b)
    func = GroupFunction(a.n, a.func.values * b.func.values)
    terms = _product_terms(a.phase_terms, b.phase_terms, a.n)
    if a.cert.order == 0:
        cert = UapCertificate(0, a.bound * b.bound, value=a.cert.value * b.cert.value)
        return CertifiedFunction(func, cert, terms)
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
    return CertifiedFunction(func, cert, terms)


def cert_shift(cf: CertifiedFunction, s: int) -> CertifiedFunction:
    """Certificate for T^s F: coefficient rows re-index, columns unchanged."""
    cert = cf.cert
    s = int(s) % cf.n
    func = shift(cf.func, s)
    terms = None
    if cf.phase_terms is not None:
        terms = tuple(
            (g, _poly_translate(p, s, cf.n)) for g, p in cf.phase_terms
        )
    if cert.order == 0:
        return CertifiedFunction(func, cert, terms)
    if cert.order == 1:
        coeffs = np.roll(np.asarray(cert.coeffs), -s, axis=0)
    else:
        coeffs = tuple(cert.coeffs[(i + s) % cf.n] for i in range(cf.n))
    new = UapCertificate(cert.order, cert.bound, weights=cert.weights,
                         columns=cert.columns, coeffs=coeffs)
    return CertifiedFunction(func, new, terms)


def _poly_translate(poly, s: int, n: int):
    return _poly_add(poly_reduce(poly, n), poly_shift_difference(poly, s, n), n)


def _poly_add(a, b, n: int):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = (out[i] + c) % n
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % n
    return poly_reduce(out, n)


def cert_conj(cf: CertifiedFunction) -> CertifiedFunction:
    """Certificate for conj(F): conjugate columns, coefficients, constant."""
    cert = cf.cert
    func = cf.func.conj()
    terms = None
    if cf.phase_terms is not None:
        terms = tuple(
            (np.conj(g), _poly_negate(p, cf.n)) for g, p in cf.phase_terms
        )
    if cert.order == 0:
        new = UapCertificate(0, cert.bound, value=np.conj(cert.value))
        return CertifiedFunction(func, new, terms)
    columns = tuple(g.conj() for g in cert.columns)
    if cert.order == 1:
        coeffs = np.conj(np.asarray(cert.coeffs))
    else:
        coeffs = tuple(tuple(cert_conj(c) for c in row) for row in cert.coeffs)
    new = UapCertificate(cert.order, cert.bound, weights=cert.weights,
                         columns=columns, coeffs=coeffs)
    return CertifiedFunction(func, new, terms)


def _poly_negate(poly, n: int):
    return poly_reduce([(-c) % n for c in poly], n)


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
    if cert.bound == 0:
        zero = certify_constant(n, 0.0, bound=0.0)
        base = CertifiedFunction(cf.func, zero.cert, cf.phase_terms)
        # bound 0 forces F = 0; reuse the zero constant node shape
        target = cert.order + 1
        column = (GroupFunction.constant(n, 1.0),)
        if target == 1:
            coeffs = np.zeros((n, 1), dtype=np.complex128)
        else:
            sub = cert_zero(n, target - 1)
            coeffs = tuple((sub,) for _ in range(n))
        new = UapCertificate(target, 0.0, weights=np.array([1.0]), columns=column, coeffs=coeffs)
        return CertifiedFunction(cf.func, new, cf.phase_terms)
    target = cert.order + 1
    column = (GroupFunction.constant(n, 1.0),)
    if target == 1:
        coeffs = np.full((n, 1), cert.value / cert.bound, dtype=np.complex128)
    else:
        coeffs = tuple(
            (cert_scale(cert_shift(cf, i), 1.0 / cert.bound),) for i in range(n)
        )
    new = UapCertificate(
        target, cert.bound, weights=np.array([1.0]), columns=column, coeffs=coeffs
    )
    return CertifiedFunction(cf.func, new, cf.phase_terms)


# ---------------------------------------------------------------------------
# phase-sum certificates


def _merge_terms(ta, tb, n):
    if ta is None or tb is None:
        return None
    acc: dict = {}
    for g, p in list(ta) + list(tb):
        key = poly_reduce(p, n)
        acc[key] = acc.get(key, 0.0 + 0.0j) + g
    return tuple((g, p) for p, g in acc.items() if g != 0)


def _product_terms(ta, tb, n):
    if ta is None or tb is None:
        return None
    if len(ta) * len(tb) > 256:
        return None
    acc: dict = {}
    for ga, pa in ta:
        for gb, pb in tb:
            key = _poly_add(pa, pb, n)
            acc[key] = acc.get(key, 0.0 + 0.0j) + ga * gb
    return tuple((g, p) for p, g in acc.items() if g != 0)


def _phase_coeffs(n: int, terms, degree: int):
    """Coefficient (i, m) = c_m e((P_m(x+i) - P_m(x))/n) for terms (c_m, P_m):
    constants at degree 1, else certified one order down."""
    if degree == 1:
        coeffs = np.empty((n, len(terms)), dtype=np.complex128)
        for m, (c, p) in enumerate(terms):
            for i in range(n):
                coeffs[i, m] = c * np.exp(2j * np.pi * poly_shift_difference(p, i, n)[0] / n)
        return coeffs
    return tuple(
        tuple(certify_phase_sum(n, [(c, poly_shift_difference(p, i, n))], order=degree - 1)
              for c, p in terms)
        for i in range(n)
    )


def certify_phase_sum(
    n: int, terms, order: int | None = None, chop: float = 0.0
) -> CertifiedFunction:
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
    kept = [(g, p) for p, g in merged.items() if abs(g) > chop]
    if not kept:
        return cert_zero(n, order or 0)
    degree = max(poly_degree(p, n) for _, p in kept)
    total = sum(abs(g) for g, _ in kept)
    values = np.zeros(n, dtype=np.complex128)
    for g, p in kept:
        values += g * phase_values(p, n)
    func = GroupFunction(n, values)
    term_tuple = tuple(kept)
    if degree == 0:
        const = complex(sum(g * np.exp(2j * np.pi * p[0] / n) for g, p in kept))
        cert = UapCertificate(0, float(total), value=const)
        out = CertifiedFunction(GroupFunction.constant(n, const), cert, term_tuple)
    else:
        columns = tuple(GroupFunction(n, phase_values(p, n)) for _, p in kept)
        weights = np.array([abs(g) / total for g, _ in kept])
        coeffs = _phase_coeffs(n, [(_phase_of(g), p) for g, p in kept], degree)
        cert = UapCertificate(
            degree, float(total), weights=weights, columns=columns, coeffs=coeffs
        )
        out = CertifiedFunction(func, cert, term_tuple)
    if order is not None and order > out.cert.order:
        out = cert_promote(out, order)
    elif order is not None and order < out.cert.order:
        raise UnsupportedOrderError(
            f"terms have degree {out.cert.order}, cannot certify at order {order}"
        )
    return out


def certify_quasiperiodic(ps: PhaseSum) -> CertifiedFunction:
    """Certificate of order max_j deg(P_j) and bound 1 for a phase average.

    For F = (1/J) sum_j c_j e(P_j/n) the shifted function expands as
    T^i F = (1/J) sum_j [c_j e((P_j(x+i)-P_j(x))/n)] e(P_j(x)/n), so the
    columns are the phases themselves with uniform weights and the
    coefficients absorb c_j; their degree drops by one per level.
    """
    n = ps.n
    terms = list(ps.terms)
    j_count = len(terms)
    degree = ps.degree
    scaled = tuple((c / j_count, p) for c, p in terms)
    if degree == 0:
        value = complex(np.mean(ps.func.values))
        cert = UapCertificate(0, 1.0, value=value)
        return CertifiedFunction(ps.func, cert, scaled)
    columns = tuple(GroupFunction(n, phase_values(p, n)) for _, p in terms)
    weights = np.full(j_count, 1.0 / j_count)
    coeffs = _phase_coeffs(n, terms, degree)
    cert = UapCertificate(degree, 1.0, weights=weights, columns=columns, coeffs=coeffs)
    return CertifiedFunction(ps.func, cert, scaled)


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

        T^i D_d(f) = E( [T^i conj(D_{d-1}(conj(f) T^{h-i} f))] . g_h | h ),

    so the coefficient at (i, h) depends on h - i only, and the N
    sub-certificates are shared across the N^2 coefficient slots.  The
    function itself is assembled from the same sub-certificates at i = 0,
    so every sub-dual is computed once.
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
        # D_1(f) is the constant E(f)
        mean = complex(np.mean(f.values))
        cert = UapCertificate(0, 1.0, value=mean)
        return CertifiedFunction(GroupFunction.constant(n, mean), cert)
    idx = _shift_table(n)
    shifted = f.values[idx]  # row h is T^h f
    conj_vals = np.conj(f.values)
    columns = tuple(GroupFunction(n, row) for row in shifted)
    weights = np.full(n, 1.0 / n)
    # D_d(f) = E( c_h . T^h f | h ) with c_h = conj(D_{d-1}(conj(f) T^h f))
    if d == 2:
        # the c_h are the constants conj(E(conj(f) T^h f)); slot (i, h) holds c_{h-i}
        consts = np.conj((conj_vals * shifted).mean(axis=1))
        coeffs = consts[idx[-np.arange(n) % n]]
        cert = UapCertificate(1, 1.0, weights=weights, columns=columns, coeffs=coeffs)
        return CertifiedFunction(GroupFunction(n, consts @ shifted / n), cert)
    base = [
        cert_conj(certify_dual(GroupFunction(n, conj_vals * shifted[m]),
                               d - 1, node_budget, tol))
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
