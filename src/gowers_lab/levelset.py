"""Compact sigma-algebras from level sets of certified functions.

A certified function G with bound M is discretized at scale eps by the
cell map

    cell(x) = ( floor(Re G(x)/eps - alpha + 1/2),
                floor(Im G(x)/eps - alpha + 1/2) ),

and the algebra generated by several such functions is the common
refinement of their cell partitions.  The offset alpha is shared by both
coordinate axes and all generators, chosen among seeded candidates to
keep mass away from cell boundaries; the choice depends only on the
multiset of values, so shifting every generator shifts the partition.

Within an atom each coordinate of G varies by less than eps, so
||G - E(G|B)||_inf <= sqrt(2) eps, and the number of atoms contributed
by one generator is at most (2 ceil(M/eps) + 2)^2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, derive_rng
from .cyclic import GroupFunction, l2_norm, linf_norm
from .errors import (
    ApproximationBudgetError,
    InvalidConfigurationError,
    MeasurabilityError,
    NumericalInconsistencyError,
)
from .partitions import Partition, conditional_expectation, join
from .uap import (
    CertifiedFunction,
    cert_promote,
    cert_zero,
    certify_constant,
    certify_spectrum,
)

GOLDEN_FRACTION = 0.6180339887498949
ALPHA_CANDIDATES = 32
BOUNDARY_SIGMA = 1.0 / 16


@dataclass(frozen=True)
class LevelSetGenerator:
    """One generator of a compact algebra: a certified function plus its
    discretization scale and the offset actually used."""

    certified: CertifiedFunction
    eps: float
    alpha: float


@dataclass(eq=False)
class CompactAlgebra:
    n: int
    generators: tuple[LevelSetGenerator, ...]
    partition: Partition

    @property
    def order(self) -> int:
        if not self.generators:
            return 0
        return max(g.certified.cert.order for g in self.generators)

    @property
    def complexity(self) -> float:
        if not self.generators:
            return 0.0
        return max(
            float(len(self.generators)),
            max(1.0 / g.eps - 1.0 for g in self.generators),
            max(g.certified.cert.bound for g in self.generators),
        )

    def atom_capacity(self) -> int:
        cap = 1
        for g in self.generators:
            side = 2 * int(np.ceil(g.certified.cert.bound / g.eps)) + 2
            cap *= side * side
        return cap

    def boundary_mass(self) -> int:
        """Generator coordinates within BOUNDARY_SIGMA of a cell boundary,
        at the algebra's own offset: the mass select_alpha minimizes."""
        if not self.generators:
            return 0
        return _boundary_mass([g.certified.func.values for g in self.generators],
                              [g.eps for g in self.generators],
                              self.generators[0].alpha)


def trivial_algebra(n: int) -> CompactAlgebra:
    return CompactAlgebra(n, (), Partition.trivial(n))


def _cell_coordinates(values: np.ndarray, eps: float, alpha: float) -> np.ndarray:
    re = np.floor(values.real / eps - alpha + 0.5)
    im = np.floor(values.imag / eps - alpha + 0.5)
    return np.stack([re, im], axis=1)


def _boundary_mass(values_list, eps_list, alpha: float) -> int:
    total = 0
    for values, eps in zip(values_list, eps_list):
        for comp in (values.real, values.imag):
            frac = np.mod(comp / eps - alpha + 0.5, 1.0)
            dist = np.minimum(frac, 1.0 - frac)
            total += int(np.count_nonzero(dist < BOUNDARY_SIGMA))
    return total


def select_alpha(values_list, eps_list, seed: int = 0) -> float:
    """Pick the candidate offset with the least boundary mass.

    The mass functional is shift-invariant, so the selected alpha is the
    same for any shift of the inputs.  When every candidate ties, a fixed
    irrational fallback keeps the choice away from the lattice.
    """
    rng = derive_rng(seed, "level-alpha")
    candidates = rng.uniform(0.0, 1.0, ALPHA_CANDIDATES)
    masses = np.array(
        [_boundary_mass(values_list, eps_list, a) for a in candidates]
    )
    if masses.min() == masses.max():
        return GOLDEN_FRACTION
    return float(candidates[int(np.argmin(masses))])


def level_set_algebra(generators, eps, seed: int = 0) -> CompactAlgebra:
    """The algebra generated by the cell partitions of certified functions.

    `eps` may be a scalar or one scale per generator; one alpha is selected
    for all of them.  A scale at which M/eps is not finite or reaches 2^53,
    where cell coordinates stop being exact integers, is refused.
    """
    gens = tuple(generators)
    if not gens:
        raise InvalidConfigurationError("need at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise InvalidConfigurationError("generators on different groups")
    eps_arr = np.asarray(eps, dtype=float).ravel()
    if eps_arr.size not in (1, len(gens)):
        raise InvalidConfigurationError(f"{eps_arr.size} eps values for {len(gens)} generators")
    eps_list = [float(e) for e in np.broadcast_to(eps_arr, len(gens))]
    if any(not (e > 0 and float(g.cert.bound) / e < 2.0 ** 53) for g, e in zip(gens, eps_list)):
        raise InvalidConfigurationError("eps must be positive, with M/eps below 2^53")
    values_list = [g.func.values for g in gens]
    alpha = select_alpha(values_list, eps_list, seed=seed)
    keys = np.hstack(
        [_cell_coordinates(v, e, alpha) for v, e in zip(values_list, eps_list)]
    )
    _, labels = np.unique(keys, axis=0, return_inverse=True)
    part = Partition(n, labels)
    algebra = CompactAlgebra(
        n,
        tuple(LevelSetGenerator(g, float(e), float(alpha)) for g, e in zip(gens, eps_list)),
        part,
    )
    if part.atom_count > algebra.atom_capacity():
        raise NumericalInconsistencyError(
            f"{part.atom_count} atoms exceeds capacity {algebra.atom_capacity()}"
        )
    return algebra


def join_compact(a: CompactAlgebra, b: CompactAlgebra) -> CompactAlgebra:
    if a.n != b.n:
        raise InvalidConfigurationError("algebras on different groups")
    return CompactAlgebra(a.n, a.generators + b.generators, join(a.partition, b.partition))


def oscillation(algebra: CompactAlgebra) -> float:
    """max_j ||G_j - E(G_j | B)||_inf; at most sqrt(2) max eps by construction."""
    worst = 0.0
    for g in algebra.generators:
        proj = conditional_expectation(g.certified.func, algebra.partition)
        worst = max(worst, linf_norm(g.certified.func - proj))
    return worst


# ---------------------------------------------------------------------------
# certified approximation of measurable functions


@dataclass(frozen=True)
class ApproximationResult:
    certified: CertifiedFunction
    error: float  # L2 distance from the input
    method: str


def approximate_measurable(
    f: GroupFunction,
    algebra: CompactAlgebra,
    delta: float,
    tol: float = DEFAULT_TOL,
) -> ApproximationResult:
    """Certify a function within L2 distance delta of a measurable f.

    f must be constant on the atoms of the algebra.  The certificate is
    promoted to the algebra's order.  Routes, in order: 'zero' when
    ||f||_2 <= delta, 'constant' when f is constant to within tol, and
    otherwise 'spectral', which expands f in characters: exact, with
    bound the l1 mass of the spectrum, whatever the generators are.
    """
    proj = conditional_expectation(f, algebra.partition)
    meas_gap = linf_norm(f - proj)
    if meas_gap > tol * max(1.0, linf_norm(f)):
        raise MeasurabilityError(
            f"function varies by {meas_gap:.3e} within an atom"
        )
    if delta <= 0:
        raise InvalidConfigurationError("delta must be positive")
    n = f.n
    target_order = algebra.order

    if l2_norm(f) <= delta:
        zero = cert_zero(n, target_order)
        return ApproximationResult(zero, l2_norm(f), "zero")
    mean = complex(np.mean(f.values))
    if linf_norm(f - GroupFunction.constant(n, mean)) <= tol:
        const = cert_promote(certify_constant(n, mean), target_order)
        err = l2_norm(f - const.func)
        return ApproximationResult(const, err, "constant")

    cf = certify_spectrum(f)
    cf = cert_promote(cf, max(target_order, cf.cert.order))
    err = l2_norm(f - cf.func)
    if err > delta:
        raise ApproximationBudgetError(
            f"spectral reconstruction off by {err:.3e}", achieved=err
        )
    return ApproximationResult(cf, err, "spectral")
