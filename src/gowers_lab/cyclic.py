"""Functions on the cyclic group Z_N with N prime.

Conventions used throughout the package:

  * a function is a length-N vector of complex values, f(x) for x = 0..N-1;
  * the shift acts forward, (T^n f)(x) = f(x + n mod N);
  * expectations are normalized counting averages, E(f) = (1/N) sum f(x);
  * the inner product is <f, g> = E(f(x) conj(g(x)));
  * "bounded" means max |f(x)| <= 1 (+ tolerance).

N is kept prime so that every nonzero dilation is invertible and degree
arithmetic for polynomial phases behaves uniformly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    DimensionMismatchError,
    EmptyDomainError,
    InvalidCoefficientError,
    InvalidDilationError,
    NotPrimeError,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _check_prime(n: int) -> int:
    n = int(n)
    if not is_prime(n):
        raise NotPrimeError(f"modulus {n} is not prime")
    return n


@dataclass(eq=False)
class GroupFunction:
    """A complex-valued function on Z_N, stored as a dense vector."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        self.n = _check_prime(self.n)
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.n,):
            raise DimensionMismatchError(
                f"expected {self.n} values, got shape {vals.shape}"
            )
        self.values = vals

    @classmethod
    def constant(cls, n: int, c: complex) -> "GroupFunction":
        return cls(n, np.full(n, complex(c), dtype=np.complex128))

    @classmethod
    def indicator(cls, n: int, support) -> "GroupFunction":
        vals = np.zeros(_check_prime(n), dtype=np.complex128)
        for x in support:
            x = int(x)
            if not 0 <= x < n:
                raise DimensionMismatchError(f"support element {x} outside Z_{n}")
            vals[x] = 1.0
        return cls(n, vals)

    def is_bounded(self, tol: float = DEFAULT_TOL) -> bool:
        return bool(np.max(np.abs(self.values)) <= 1.0 + tol)

    def conj(self) -> "GroupFunction":
        return GroupFunction(self.n, np.conj(self.values))

    def __add__(self, other: "GroupFunction") -> "GroupFunction":
        _same_group(self, other)
        return GroupFunction(self.n, self.values + other.values)

    def __sub__(self, other: "GroupFunction") -> "GroupFunction":
        _same_group(self, other)
        return GroupFunction(self.n, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, GroupFunction):
            _same_group(self, other)
            return GroupFunction(self.n, self.values * other.values)
        return GroupFunction(self.n, self.values * complex(other))

    __rmul__ = __mul__


def _same_group(f: GroupFunction, g: GroupFunction):
    if f.n != g.n:
        raise DimensionMismatchError(f"moduli differ: {f.n} vs {g.n}")


def shift(f: GroupFunction, n: int) -> GroupFunction:
    """(T^n f)(x) = f(x + n)."""
    n = int(n) % f.n
    return GroupFunction(f.n, np.concatenate((f.values[n:], f.values[:n])))


def dilate(f: GroupFunction, lam: int) -> GroupFunction:
    """g(x) = f(lam^{-1} x); composition multiplies the factors mod N."""
    lam = int(lam) % f.n
    if lam == 0:
        raise InvalidDilationError("dilation factor is 0 mod N")
    inv = pow(lam, -1, f.n)
    idx = (np.arange(f.n) * inv) % f.n
    return GroupFunction(f.n, f.values[idx])


def expectation(f: GroupFunction) -> complex:
    """E(f), the average of f over Z_N."""
    return complex(np.mean(f.values))


def inner_product(f: GroupFunction, g: GroupFunction) -> complex:
    """<f, g> = E(f conj(g)); shifts act unitarily."""
    _same_group(f, g)
    return complex(np.mean(f.values * np.conj(g.values)))


def l2_norm(f: GroupFunction) -> float:
    return float(np.sqrt(np.mean(np.abs(f.values) ** 2)))


def linf_norm(f: GroupFunction) -> float:
    return float(np.max(np.abs(f.values)))


# ---------------------------------------------------------------------------
# polynomial phases


def poly_reduce(coeffs, n: int) -> tuple[int, ...]:
    """Reduce coefficients mod n and drop trailing zeros (degree-accurate)."""
    out = [int(c) % n for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    if not out:
        out = [0]
    return tuple(out)


def poly_degree(coeffs, n: int) -> int:
    reduced = poly_reduce(coeffs, n)
    return len(reduced) - 1 if reduced != (0,) else 0


def poly_eval_mod(coeffs, x: int, n: int) -> int:
    """Horner evaluation of sum a_i x^i, exactly, reduced mod n."""
    acc = 0
    for a in reversed(list(coeffs)):
        acc = (acc * x + int(a)) % n
    return acc


def poly_values_mod(coeffs, n: int) -> np.ndarray:
    """P(x) mod n for all x in Z_n, via exact integer Horner."""
    xs = np.arange(n, dtype=object)
    acc = np.zeros(n, dtype=object)
    for a in reversed(list(coeffs)):
        acc = (acc * xs + int(a)) % n
    return acc.astype(np.int64)


def poly_shift_difference(coeffs, step: int, n: int) -> tuple[int, ...]:
    """Coefficients of P(x + step) - P(x) mod n; degree drops by one."""
    coeffs = list(poly_reduce(coeffs, n))
    d = len(coeffs) - 1
    step = int(step) % n
    shifted = [0] * (d + 1)
    for i, a in enumerate(coeffs):
        # binomial expansion of a * (x + step)^i
        for j in range(i + 1):
            shifted[j] = (shifted[j] + a * math.comb(i, j) * pow(step, i - j, n)) % n
    diff = [(s - a) % n for s, a in zip(shifted, coeffs)]
    return poly_reduce(diff, n)


def phase_values(poly, n: int) -> np.ndarray:
    """e(P(x)/n) for all x, with P evaluated exactly mod n first."""
    return np.exp(2j * np.pi * poly_values_mod(poly, n) / n)


def quasiperiodic(n: int, terms) -> GroupFunction:
    """F = (1/J) sum_j c_j e(P_j(x)/n) from J (coefficient, poly) pairs.

    Requires |c_j| <= 1 for every term, which makes F bounded by 1.  Its
    certificate is certify_phase_sum(n, [(c_j / J, P_j)]), with bound
    sum_j |c_j| / J <= 1.
    """
    n = _check_prime(n)
    terms = [(complex(c), poly) for c, poly in terms]
    if not terms:
        raise EmptyDomainError("quasiperiodic function needs at least one term")
    values = np.zeros(n, dtype=np.complex128)
    for c, poly in terms:
        if abs(c) > 1.0 + DEFAULT_TOL:
            raise InvalidCoefficientError(f"|c| = {abs(c)} exceeds 1")
        values += c * phase_values(poly, n)
    values /= len(terms)
    return GroupFunction(n, values)


# ---------------------------------------------------------------------------
# interval embedding


def next_prime_in(lo: int, hi: int) -> int:
    """Smallest prime p with lo < p <= hi."""
    for p in range(lo + 1, hi + 1):
        if is_prime(p):
            return p
    raise NotPrimeError(f"no prime in ({lo}, {hi}]")


def embed_interval(subset, n: int, k: int) -> tuple[int, tuple[int, ...]]:
    """Embed A inside {1..n} into Z_{N'} with N' the least prime in (kn, 2kn].

    The image keeps the integer values as residues; progressions of length k
    inside the interval cannot wrap in Z_{N'}, and the density shrinks by at
    most a factor 2k.
    """
    n = int(n)
    k = int(k)
    if n < 1 or k < 1:
        raise EmptyDomainError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    subset = sorted(set(int(a) for a in subset))
    for a in subset:
        if not 1 <= a <= n:
            raise DimensionMismatchError(f"element {a} outside {{1..{n}}}")
    n_prime = next_prime_in(k * n, 2 * k * n)
    return n_prime, tuple(a % n_prime for a in subset)
