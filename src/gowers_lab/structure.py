"""Uniformity/almost-periodicity decomposition via energy increment.

The dichotomy: given a bounded density f and a compact algebra pair
B <= B', either f - E(f|B') is Gowers-uniform below the threshold, in
which case the projection E(f|B') together with its certificate is the
structured part, or the dual of the uniform part correlates with f and
its level sets refine B' with an L2 energy gain of at least rho/4, where
rho is the correlation.

The driver iterates the dichotomy with a two-speed loop: refinements
whose energy stays within tau^2 of the anchor B accumulate on B' (the
inner loop); once the gain over the anchor exceeds tau^2 the anchor is
promoted (the outer loop).  Each outer promotion raises the anchor
energy by more than tau^2 and the energy is bounded by 1, so the number
of promotions is at most ceil(1/tau^2); inner runs are finite because
every increment gains at least (rho/4)^2 with rho above a fixed power of
the threshold.  A step budget guards the whole loop anyway.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from math import ceil

import numpy as np

from .config import DEFAULT_TOL, DEFAULT_DRIVER_BUDGET, DEFAULT_CERT_NODE_BUDGET
from .cyclic import GroupFunction, expectation, l2_norm, linf_norm
from .errors import (
    BoundednessError,
    InvalidConfigurationError,
    NonTerminationError,
    RefinementError,
)
from .gowers import gowers_norm
from .levelset import (
    ApproximationResult,
    CompactAlgebra,
    approximate_measurable,
    join_compact,
    level_set_algebra,
    trivial_algebra,
)
from .partitions import conditional_expectation, energy
from .uap import CertifiedFunction, certify_dual, verify_certificate

INCREMENT_HALVINGS = 8
APPROX_SHARPNESS = 5000  # approximation target delta^2 / (5000 k)
CENTRAL_SHARPNESS = 1024  # decomposition guarantee delta^2 / (1024 k)


def default_threshold(k: int, delta: float, cert_bound: float) -> float:
    """2^-k min(delta, 1/2)^(2^k) / (1 + M) with M one more than the
    certified bound of the structured part."""
    m = cert_bound + 1.0
    return 2.0 ** (-k) * min(delta, 0.5) ** (2 ** k) / (1.0 + m)


@dataclass(frozen=True)
class EnergyIncrement:
    algebra: CompactAlgebra  # the refinement B''
    increment: float  # energy(B'') - energy(B'), an exact L2 gain
    norm_fU: float
    correlation: float
    eps_level: float
    halvings: int
    approximation: ApproximationResult


@dataclass(frozen=True)
class Decomposition:
    f_U: GroupFunction
    f_Uperp: GroupFunction
    certified: CertifiedFunction
    algebra: CompactAlgebra
    k: int
    delta: float
    threshold: float
    norm_fU: float
    approximation: ApproximationResult
    trace: tuple = ()


def _check_density(f: GroupFunction, tol: float):
    v = f.values
    if np.max(np.abs(v.imag)) > tol:
        raise BoundednessError("density must be real")
    if v.real.min() < -tol or v.real.max() > 1.0 + tol:
        raise BoundednessError("density must take values in [0, 1]")


def structure_dichotomy(
    f: GroupFunction,
    k: int,
    base: CompactAlgebra,
    refined: CompactAlgebra,
    delta: float,
    threshold: float | None = None,
    seed: int = 0,
    node_budget: int = DEFAULT_CERT_NODE_BUDGET,
    tol: float = DEFAULT_TOL,
):
    """One step: Decomposition on success, EnergyIncrement otherwise.

    Requires energy(refined) - energy(base) <= tau^2 (the driver's inner
    loop invariant) with tau = delta^2 / (5000 k).
    """
    if k < 3:
        raise InvalidConfigurationError("need k >= 3")
    if not 0 < delta <= 1:
        raise InvalidConfigurationError("delta must lie in (0, 1]")
    _check_density(f, tol)
    tau = delta * delta / (APPROX_SHARPNESS * k)
    e_base = energy([f], base.partition)
    e_ref = energy([f], refined.partition)
    if e_ref - e_base > tau * tau + tol:
        raise InvalidConfigurationError(
            f"energy gap {e_ref - e_base:.3e} already above tau^2 = {tau * tau:.3e}"
        )
    f_perp = conditional_expectation(f, refined.partition)
    approx = approximate_measurable(f_perp, refined, tau, tol=tol)
    if threshold is None:
        threshold = default_threshold(k, delta, approx.certified.cert.bound)
    f_u = f - f_perp
    u = gowers_norm(f_u, k - 1, tol).value
    if u <= threshold:
        return Decomposition(
            f_U=f_u,
            f_Uperp=f_perp,
            certified=approx.certified,
            algebra=refined,
            k=k,
            delta=delta,
            threshold=threshold,
            norm_fU=u,
            approximation=approx,
        )
    witness = certify_dual(f_u, k - 1, node_budget, tol)
    rho = u ** (2 ** (k - 1))
    eps = rho / 16.0
    for halving in range(INCREMENT_HALVINGS + 1):
        refined2 = join_compact(
            refined, level_set_algebra([witness], eps, seed=seed)
        )
        proj2 = conditional_expectation(f, refined2.partition)
        gain_l2 = l2_norm(proj2 - f_perp)
        if gain_l2 >= rho / 4.0:
            return EnergyIncrement(
                algebra=refined2,
                increment=gain_l2 * gain_l2,
                norm_fU=u,
                correlation=rho,
                eps_level=eps,
                halvings=halving,
                approximation=approx,
            )
        eps /= 2.0
    raise RefinementError(
        f"level sets never gained rho/4 = {rho / 4:.3e} after "
        f"{INCREMENT_HALVINGS} halvings (last gain {gain_l2:.3e})"
    )


@dataclass(frozen=True)
class TraceEntry:
    step: int
    which_loop: str  # 'inner', 'outer', or 'done'
    energy_base: float
    energy_refined: float
    complexity_base: float
    complexity_refined: float
    gowers_fU: float

    def as_row(self):
        return astuple(self)

TRACE_COLUMNS = (
    "step",
    "which_loop",
    "energy_B",
    "energy_Bprime",
    "complexity_B",
    "complexity_Bprime",
    "gowers_fU",
)


def decompose(
    f: GroupFunction,
    k: int,
    delta: float,
    seed: int = 0,
    threshold: float | None = None,
    budget: int = DEFAULT_DRIVER_BUDGET,
    node_budget: int = DEFAULT_CERT_NODE_BUDGET,
    tol: float = DEFAULT_TOL,
) -> Decomposition:
    """Run the two-speed energy-increment loop from the trivial algebra."""
    _check_density(f, tol)
    if expectation(f).real < delta - tol:
        raise InvalidConfigurationError(
            f"density mean {expectation(f).real:.6g} below delta = {delta}"
        )
    tau = delta * delta / (APPROX_SHARPNESS * k)
    outer_cap = ceil(1.0 / (tau * tau)) + 1
    base = trivial_algebra(f.n)
    refined = base
    trace: list[TraceEntry] = []
    outer_count = 0
    for step in range(1, budget + 1):
        result = structure_dichotomy(
            f, k, base, refined, delta,
            threshold=threshold, seed=seed,
            node_budget=node_budget, tol=tol,
        )
        e_base = energy([f], base.partition)
        if isinstance(result, Decomposition):
            trace.append(TraceEntry(
                step, "done", e_base, energy([f], refined.partition),
                base.complexity, refined.complexity, result.norm_fU,
            ))
            return replace(result, trace=tuple(trace))
        nxt = result.algebra
        e_next = energy([f], nxt.partition)
        if e_next - e_base <= tau * tau:
            refined = nxt
            which = "inner"
        else:
            base = nxt
            refined = nxt
            which = "outer"
            outer_count += 1
            if outer_count > outer_cap:
                raise NonTerminationError(
                    f"{outer_count} outer promotions exceeds cap {outer_cap}",
                    trace=tuple(trace),
                )
        trace.append(TraceEntry(
            step, which, energy([f], base.partition),
            energy([f], refined.partition),
            base.complexity, refined.complexity, result.norm_fU,
        ))
    raise NonTerminationError(
        f"budget of {budget} dichotomy steps exhausted", trace=tuple(trace)
    )


# ---------------------------------------------------------------------------
# independent re-verification


@dataclass(frozen=True)
class DecompositionReport:
    split_error: float
    approx_l2: float
    approx_cap: float
    mean_structured: float
    norm_fU: float
    threshold: float
    max_atom_pairing: float
    certificate_nodes: int
    holds: bool


def verify_decomposition(
    f: GroupFunction, dec: Decomposition, tol: float = DEFAULT_TOL
) -> DecompositionReport:
    """Re-measure every guarantee of a decomposition from scratch."""
    split = linf_norm(f - (dec.f_U + dec.f_Uperp))
    cap = dec.delta * dec.delta / (CENTRAL_SHARPNESS * dec.k)
    approx_l2 = l2_norm(dec.f_Uperp - dec.certified.func)
    mean_structured = expectation(dec.f_Uperp).real
    u = gowers_norm(dec.f_U, dec.k - 1, tol).value
    report = verify_certificate(dec.certified, tol)
    pairing = 0.0
    for atom in dec.algebra.partition.atoms():
        pairing = max(pairing, abs(np.mean(dec.f_U.values[atom]) * len(atom) / f.n))
    holds = (
        split <= 1e-12
        and approx_l2 <= cap
        and mean_structured >= dec.delta - tol
        and u <= dec.threshold + tol
        and pairing <= tol
    )
    return DecompositionReport(
        split_error=float(split),
        approx_l2=float(approx_l2),
        approx_cap=float(cap),
        mean_structured=float(mean_structured),
        norm_fU=float(u),
        threshold=float(dec.threshold),
        max_atom_pairing=float(pairing),
        certificate_nodes=report.total_nodes,
        holds=bool(holds),
    )
