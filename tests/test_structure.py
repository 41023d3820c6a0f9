"""The energy-increment decomposition driver and its invariants."""
import numpy as np
import pytest

import gowers_lab as gl
from gowers_lab.errors import (
    BoundednessError,
    InvalidConfigurationError,
    NonTerminationError,
)
from gowers_lab.structure import (
    APPROX_SHARPNESS,
    CENTRAL_SHARPNESS,
    TRACE_COLUMNS,
    default_threshold,
)


def random_density_set(seed, n, delta):
    rng = gl.derive_rng(seed, "structure-test")
    size = int(round(delta * n))
    members = rng.choice(n, size=size, replace=False)
    return gl.GroupFunction.indicator(n, members)


def test_default_threshold_formula():
    for k in (3, 4):
        for delta in (0.3, 0.8):
            for m in (0.0, 2.5):
                want = 2.0 ** -k * min(delta, 0.5) ** (2 ** k) / (1.0 + (m + 1.0))
                assert default_threshold(k, delta, m) == pytest.approx(want)


def test_density_validation():
    f = gl.GroupFunction(7, np.full(7, 0.5 + 0.2j))
    with pytest.raises(BoundednessError):
        gl.decompose(f, 3, 0.3)
    g = gl.GroupFunction(7, np.full(7, 1.5).astype(complex))
    with pytest.raises(BoundednessError):
        gl.decompose(g, 3, 0.3)
    # mean below delta
    h = gl.GroupFunction.indicator(7, [0])
    with pytest.raises(InvalidConfigurationError):
        gl.decompose(h, 3, 0.9)


def test_constant_density_terminates_immediately():
    f = gl.GroupFunction.constant(11, 0.4)
    dec = gl.decompose(f, 3, 0.4, seed=0)
    assert dec.norm_fU <= dec.threshold
    assert dec.f_U.values == pytest.approx(np.zeros(11))
    assert len(dec.trace) == 1 and dec.trace[0].which_loop == "done"
    rep = gl.verify_decomposition(f, dec)
    assert rep.holds


def test_decompose_invariants_small():
    for seed in range(6):
        n, k, delta = 53, 3, 0.3
        f = random_density_set(seed, n, delta)
        dec = gl.decompose(f, k, delta, seed=seed)
        rep = gl.verify_decomposition(f, dec)
        assert rep.holds
        assert rep.split_error <= 1e-12
        assert rep.approx_l2 <= delta * delta / (CENTRAL_SHARPNESS * k) + 1e-12
        assert rep.mean_structured >= delta - 1e-9
        assert dec.norm_fU <= dec.threshold + 1e-9
        assert rep.max_atom_pairing <= 1e-9


def test_trace_monotone_and_c_bound():
    n, k, delta = 53, 3, 0.3
    f = random_density_set(11, n, delta)
    dec = gl.decompose(f, k, delta, seed=11)
    trace = dec.trace
    assert len(trace) >= 1 and trace[-1].which_loop == "done"
    assert len(TRACE_COLUMNS) == len(trace[0].as_row())
    energies = [gl.expectation(f).real ** 2] + [t.energy_refined for t in trace]
    for lo, hi in zip(energies, energies[1:]):
        assert lo <= hi + 1e-12
    # every realized increment clears the declared floor (rho/4)^2
    prev = energies[0]
    for t in trace:
        if t.which_loop == "done":
            continue
        floor = (t.gowers_fU ** (2 ** (k - 1)) / 4.0) ** 2
        assert t.energy_refined - prev >= floor - 1e-12
        prev = t.energy_refined


def test_budget_exhaustion_raises():
    f = random_density_set(3, 53, 0.3)
    with pytest.raises(NonTerminationError) as err:
        gl.decompose(f, 3, 0.3, seed=3, budget=0)
    assert err.value.trace == ()


def test_threshold_override():
    f = random_density_set(5, 53, 0.3)
    dec = gl.decompose(f, 3, 0.3, seed=5, threshold=0.9)
    # a huge threshold ends the run on the trivial algebra
    assert dec.algebra.partition.atom_count == 1
    assert dec.norm_fU <= 0.9
    assert len(dec.trace) == 1


def test_dichotomy_precondition():
    n = 53
    f = random_density_set(7, n, 0.3)
    base = gl.trivial_algebra(n)
    gen = gl.certify_phase_sum(n, [(1.0, (0, 1))])
    refined = gl.level_set_algebra([gen], 0.05, seed=0)
    # the refinement carries far more energy than tau^2 over the base
    with pytest.raises(InvalidConfigurationError):
        gl.structure_dichotomy(f, 3, base, refined, 0.3)


def test_dichotomy_increment_branch():
    n, k, delta = 53, 3, 0.3
    f = random_density_set(9, n, delta)
    base = gl.trivial_algebra(n)
    result = gl.structure_dichotomy(f, k, base, base, delta)
    # a raw density set is never this uniform; expect an energy increment
    assert isinstance(result, gl.EnergyIncrement)
    assert result.increment >= (result.norm_fU ** (2 ** (k - 1)) / 4.0) ** 2 - 1e-12
    assert result.halvings <= 8
    assert gl.refines(result.algebra.partition, base.partition)


def test_tau_matches_approximation_cap():
    n, k, delta = 53, 3, 0.3
    f = random_density_set(13, n, delta)
    dec = gl.decompose(f, k, delta, seed=13)
    tau = delta * delta / (APPROX_SHARPNESS * k)
    assert dec.approximation.error <= tau + 1e-12
