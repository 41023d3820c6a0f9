"""Uniformity norms of order d on Z_N, their duals, and multilinear averages.

The norm is computed through the power functional

    S_0(f) = E(f),    S_d(f) = E( S_{d-1}( conj(f) . T^h f ) | h in Z_N ),

with ||f||_{U^d} = S_d(f)^(1/2^d) for d >= 1.  The order-0 quantity E(f)
is complex and is reported separately (it is not a norm).  S_d is real and
non-negative up to rounding for d >= 1; both facts are asserted before the
root is taken.

Three independent evaluation routes are kept deliberately separate so they
can be cross-checked: the recursion above, an unrolled parallelepiped sum
(orders 1..3), and for order 2 the l^4 sum of Fourier coefficients.

The recursion runs level by level on the shift table idx[h, x] = (x + h)
mod N: one derivative step maps rows f_b to the rows conj(f_b) . f_b[idx[h]].
S_d takes d - 1 steps and closes with S_1(g) = |E g|^2, the dual D_d takes
the same steps and closes with D_1(g) = E g.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .cyclic import GroupFunction, _same_group
from .errors import (
    BoundednessError,
    InvalidConfigurationError,
    NumericalInconsistencyError,
    UnsupportedOrderError,
)


@dataclass(frozen=True)
class GowersNorm:
    order: int
    value: float | None  # real norm, present for order >= 1
    u0_value: complex | None  # complex mean, present for order 0


# complex entries per engine block (64 KiB), which bounds the memory of
# every derivative level.  Block arrays stay under glibc's default 128 KiB
# mmap threshold: freeing larger ones raises that threshold, and the heap
# then fragments under repeated certificate work (6% more peak memory
# with 1 MiB blocks).
_BLOCK = 1 << 12


def _shift_table(n: int) -> np.ndarray:
    """idx[h, x] = (x + h) mod n, so vals[idx[h]] is T^h applied to vals."""
    return np.add.outer(np.arange(n), np.arange(n)) % n


def _derive(rows: np.ndarray, idx: np.ndarray):
    """The derived stack, row b*N + h = conj(f_b) . T^h f_b, in blocks of
    at most _BLOCK // N rows: yields the b, the T^h f_b and the rows."""
    b, n = rows.shape
    flat = rows.reshape(-1)
    step = max(1, _BLOCK // n)
    for lo in range(0, b * n, step):
        bs, hs = np.divmod(np.arange(lo, min(lo + step, b * n)), n)
        shifted = flat[(bs * n)[:, None] + idx[hs]]
        yield bs, shifted, np.conj(rows[bs]) * shifted


def _power_rows(rows: np.ndarray, d: int, idx: np.ndarray) -> np.ndarray:
    """S_d, d >= 1, of every row of a (B, N) stack, as a real (B,) array."""
    if d == 1:
        return np.abs(rows.mean(axis=1)) ** 2
    b, n = rows.shape
    child = [_power_rows(g, d - 1, idx) for _, _, g in _derive(rows, idx)]
    return np.concatenate(child).reshape(b, n).mean(axis=1)


def _dual_rows(rows: np.ndarray, d: int, idx: np.ndarray) -> np.ndarray:
    """D_d, d >= 1, of every row of a (B, N) stack."""
    b, n = rows.shape
    if d == 1:
        return np.repeat(rows.mean(axis=1, keepdims=True), n, axis=1)
    acc = np.zeros((b, n), dtype=np.complex128)
    for bs, shifted, g in _derive(rows, idx):
        terms = np.conj(_dual_rows(g, d - 1, idx)) * shifted
        # bs is sorted: sum each run of equal b in h order
        first = np.flatnonzero(np.diff(bs, prepend=-1))
        acc[bs[first]] += np.add.reduceat(terms, first, axis=0)
    return acc / n


def _progression_mean(vals, steps, rs) -> complex:
    """E( prod_j vals_j(x + steps_j r) | x in Z_N, r in rs ), gathered on
    the shift table in blocks of rows r."""
    n = vals[0].shape[0]
    idx = _shift_table(n)
    rs = np.asarray(rs, dtype=np.int64)
    step = max(1, _BLOCK // n)
    total = 0.0 + 0.0j
    for lo in range(0, rs.shape[0], step):
        r = rs[lo:lo + step]
        prod = np.ones((r.shape[0], n), dtype=np.complex128)
        for v, s in zip(vals, steps):
            prod *= v[idx[(s * r) % n]]
        total += prod.sum()
    return complex(total / (rs.shape[0] * n))


def _real_power(s: complex, d: int, scale: float, tol: float) -> float:
    atol = tol * max(1.0, scale)
    if abs(s.imag) > atol:
        raise NumericalInconsistencyError(
            f"S_{d} has imaginary part {s.imag:.3e} beyond tolerance"
        )
    if s.real < -atol:
        raise NumericalInconsistencyError(f"S_{d} = {s.real:.3e} is negative")
    return max(s.real, 0.0)


def gowers_norm(f: GroupFunction, d: int, tol: float = DEFAULT_TOL) -> GowersNorm:
    """||f||_{U^d} by the derivative engine; order 0 returns E(f).  When
    m = max|f| is finite but m^(2^d) overflows, the engine's products would
    too, so the norm is m ||f/m||_{U^d}."""
    if d < 0:
        raise UnsupportedOrderError(f"order must be >= 0, got {d}")
    if d == 0:
        return GowersNorm(0, None, complex(np.mean(f.values)))
    m = np.max(np.abs(f.values))
    with np.errstate(over="ignore"):
        scale = float(m ** (2 ** d))
    if scale == np.inf and np.isfinite(m):
        norm = gowers_norm(GroupFunction(f.n, f.values / m), d, tol).value
        return GowersNorm(d, float(m * norm), None)
    s = complex(_power_rows(f.values[None, :], d, _shift_table(f.n))[0])
    s_real = _real_power(s, d, scale, tol)
    return GowersNorm(d, float(s_real ** (1.0 / 2 ** d)), None)


def gowers_norm_direct(f: GroupFunction, d: int, tol: float = DEFAULT_TOL) -> float:
    """Unrolled parallelepiped average for 1 <= d <= 3.

    Sums conj^eps(f)(x + omega . h) over the full cube of side offsets,
    conjugating a vertex omega exactly when d + |omega| is odd.  Agrees
    with the recursive route; kept loop-free as an independent oracle.
    As in gowers_norm, when m = max|f| is finite but m^(2^d) overflows,
    the norm is m ||f/m||_{U^d}.
    """
    if not 1 <= d <= 3:
        raise UnsupportedOrderError(f"direct cube sum implemented for d in 1..3, got {d}")
    m = np.max(np.abs(f.values))
    with np.errstate(over="ignore"):
        scale = float(m ** (2 ** d))
    if scale == np.inf and np.isfinite(m):
        return float(m * gowers_norm_direct(GroupFunction(f.n, f.values / m), d, tol))
    n = f.n
    grids = np.indices((n,) * (d + 1))
    x = grids[0]
    total = np.ones((n,) * (d + 1), dtype=np.complex128)
    for bits in range(2 ** d):
        pos = x.copy()
        weight = 0
        for i in range(d):
            if bits >> i & 1:
                pos = pos + grids[i + 1]
                weight += 1
        factor = f.values[pos % n]
        if (d + weight) % 2 == 1:
            factor = np.conj(factor)
        total *= factor
    s = complex(total.mean())
    s_real = _real_power(s, d, scale, tol)
    return float(s_real ** (1.0 / 2 ** d))


def fourier_coefficients(f: GroupFunction) -> np.ndarray:
    """hat f(xi) = E_x f(x) e(-x xi / N), by direct O(N^2) transform."""
    n = f.n
    x = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(x, x) / n)
    return f.values @ kernel / n


def gowers_u2_fourier(f: GroupFunction) -> float:
    """||f||_{U^2} as the l^4 norm of the Fourier coefficients."""
    hat = fourier_coefficients(f)
    return float(np.sum(np.abs(hat) ** 4) ** 0.25)


def dual_function(f: GroupFunction, d: int) -> GroupFunction:
    """D_0(f) = 1;  D_d(f) = E( conj(D_{d-1}(conj(f) T^h f)) . T^h f | h ).

    For bounded f every D_d(f) is bounded, and <f, D_d(f)> equals
    ||f||_{U^d}^{2^d}.  D_d is homogeneous of degree 2^d - 1, so when
    m = max|f| is finite but m^(2^d - 1) is no finite double, its values
    are not either, and this raises.
    """
    if d < 0:
        raise UnsupportedOrderError(f"order must be >= 0, got {d}")
    if d == 0:
        return GroupFunction.constant(f.n, 1.0)
    m = np.max(np.abs(f.values))
    with np.errstate(over="ignore"):
        if np.isfinite(m) and not np.isfinite(m ** (np.exp2(d) - 1)):
            raise NumericalInconsistencyError(
                f"max|f| = {m:.6g} overflows D_{d}(f), which has degree 2^{d} - 1 in f"
            )
    return GroupFunction(f.n, _dual_rows(f.values[None, :], d, _shift_table(f.n))[0])


def multilinear_average(fs, lams) -> complex:
    """E( prod_j (T^{lam_j r} f_j)(x) | x, r in Z_N ), exact double average."""
    fs = list(fs)
    if not fs:
        raise InvalidConfigurationError("need at least one function")
    n = fs[0].n
    for g in fs[1:]:
        _same_group(fs[0], g)
    lams = [int(l) % n for l in lams]
    if len(lams) != len(fs):
        raise InvalidConfigurationError("one dilation constant per function")
    return _progression_mean([g.values for g in fs], lams, range(n))


@dataclass(frozen=True)
class VonNeumannReport:
    k: int
    lhs: float
    rhs: float
    norms: tuple
    holds: bool


def von_neumann_check(fs, lams, tol: float = DEFAULT_TOL) -> VonNeumannReport:
    """Check |E prod T^{lam_j r} f_j| <= min_j ||f_j||_{U^{k-1}} for bounded f_j.

    The constants lam_j must be pairwise distinct mod N; the bound fails
    without that hypothesis, so it is enforced rather than warned about.
    """
    fs = list(fs)
    k = len(fs)
    if k < 2:
        raise InvalidConfigurationError("need at least two functions")
    n = fs[0].n
    lams_mod = [int(l) % n for l in lams]
    if len(set(lams_mod)) != len(lams_mod):
        raise InvalidConfigurationError("dilation constants must be distinct mod N")
    for g in fs:
        if not g.is_bounded(tol):
            raise BoundednessError("von Neumann bound requires max|f| <= 1")
    lhs = abs(multilinear_average(fs, lams_mod))
    norms = tuple(gowers_norm(g, k - 1, tol).value for g in fs)
    rhs = float(min(norms))
    return VonNeumannReport(k, float(lhs), rhs, norms, bool(lhs <= rhs + tol))


# ---------------------------------------------------------------------------
# batched route, for bulk property sweeps


def gowers_power_batch(stack: np.ndarray, d: int) -> np.ndarray:
    """S_d for every row of a (B, N) stack, through the same engine.

    Order 0 gives the complex row means; orders d >= 1 give real S_d.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    if d == 0:
        return stack.mean(axis=1)
    return _power_rows(stack, d, _shift_table(stack.shape[1]))


def gowers_norm_batch(stack: np.ndarray, d: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """||row||_{U^d} for every row of a (B, N) stack, d >= 1.  As in
    gowers_norm, a row whose m = max|row| is finite but m^(2^d) overflows
    has norm m ||row/m||_{U^d}; every other row keeps its own route."""
    if d < 1:
        raise UnsupportedOrderError("batched norm needs d >= 1")
    stack = np.asarray(stack, dtype=np.complex128)
    m = np.max(np.abs(stack), axis=1)
    with np.errstate(over="ignore"):
        scale = m ** (2 ** d)
    big = np.isinf(scale) & np.isfinite(m)
    if big.any():  # only those rows are rescaled
        stack = stack.copy()
        stack[big] /= m[big, None]
        norms = gowers_norm_batch(stack, d, tol)
        norms[big] *= m[big]
        return norms
    s = _power_rows(stack, d, _shift_table(stack.shape[1]))
    scale = np.maximum(1.0, scale)
    if np.any(np.abs(s.imag) > tol * scale):
        raise NumericalInconsistencyError("batched S_d has non-real entries")
    if np.any(s.real < -tol * scale):
        raise NumericalInconsistencyError("batched S_d has negative entries")
    return np.maximum(s.real, 0.0) ** (1.0 / 2 ** d)
