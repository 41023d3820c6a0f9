"""Progression averages, the exhaustive recurrence constant, gating
sets, greedy nets, and the Monte Carlo finite-rank sampler."""
from functools import lru_cache
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gowers_lab as gl
from gowers_lab.errors import (
    BoundednessError,
    EmptyDomainError,
    InvalidConfigurationError,
    MissingInputError,
    ModeError,
)
from gowers_lab.partitions import Partition
from gowers_lab.recurrence import (
    EXHAUSTIVE_LIMIT,
    EmpiricalC,
    _lex_least,
    _mask_to_tuple,
    _subset_counts,
    count_ap_instances,
)


def random_members(rng, n, size):
    return sorted(int(m) for m in rng.choice(n, size=size, replace=False))


# ---------------------------------------------------------------------------
# progression averages


def test_average_matches_integer_count():
    # A = {0,1,2} in Z_5: five (x, r) pairs land inside, r = 0 included
    f = gl.GroupFunction.indicator(5, [0, 1, 2])
    assert count_ap_instances([0, 1, 2], 5, 3) == 5
    rep = gl.recurrence_average(f, 3)
    assert rep.average == pytest.approx(5 / 25, abs=1e-12)
    assert rep.r_range == (0, 4)
    assert rep.mu == 1


def test_average_random_sets_against_count():
    rng = gl.derive_rng(3, "recurrence-oracle")
    for trial in range(25):
        n = int(rng.choice([7, 11, 13]))
        k = int(rng.integers(2, 5))
        members = random_members(rng, n, int(rng.integers(1, n)))
        f = gl.GroupFunction.indicator(n, members)
        want = count_ap_instances(members, n, k) / n ** 2
        assert gl.recurrence_average(f, k).average == pytest.approx(want, abs=1e-12)


def test_average_dilated_difference_is_reparametrized():
    # r -> mu r permutes Z_n when n is prime, so mu changes nothing
    rng = gl.derive_rng(4, "recurrence-mu")
    f = gl.GroupFunction.indicator(11, random_members(rng, 11, 6))
    base = gl.recurrence_average(f, 3).average
    for mu in (2, 3, 7):
        assert gl.recurrence_average(f, 3, mu=mu).average == pytest.approx(
            base, abs=1e-12
        )


def test_average_k1_is_mean_and_r_prefix():
    f = gl.GroupFunction(7, np.arange(7) / 7.0)
    want = float(np.mean(f.values).real)
    assert gl.recurrence_average(f, 1).average == pytest.approx(want, abs=1e-12)
    assert gl.recurrence_average(f, 1, r_range=range(3)).average == pytest.approx(
        want, abs=1e-12
    )


def test_average_rejects_bad_inputs():
    f = gl.GroupFunction.indicator(5, [0])
    with pytest.raises(InvalidConfigurationError):
        gl.recurrence_average(f, 0)
    with pytest.raises(EmptyDomainError):
        gl.recurrence_average(f, 2, r_range=[])


# ---------------------------------------------------------------------------
# exhaustive and sampled minima


def test_empirical_c_tiny_exhaustive():
    # Z_5 at density 3/5: {0,1,2} and its shifts/dilates attain 5 counts
    rep = gl.empirical_c(3, 3 / 5, 5)
    assert rep.count_min == 5
    assert rep.c_min == pytest.approx(5 / 25)
    assert rep.sets_checked == sum(1 for m in range(32) if bin(m).count("1") >= 3)
    assert rep.witness == (0, 1, 2)
    assert count_ap_instances(rep.witness, 5, 3) == rep.count_min


def test_empirical_c_z17_frozen():
    # exhaustive sweep over the 2^16 subsets of size >= 9
    rep = gl.empirical_c(3, 9 / 17, 17)
    assert rep.count_min == 37
    assert rep.c_min == pytest.approx(37 / 289, abs=1e-15)
    assert rep.witness == (0, 1, 2, 3, 4, 6, 7, 8, 9)
    assert rep.sets_checked == 65536
    assert len(rep.witness) == 9
    assert count_ap_instances(rep.witness, 17, 3) == 37


_POPCNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _popcount(arr):
    out = _POPCNT[arr & 0xFF]
    for sh in (8, 16):
        out = out + _POPCNT[(arr >> sh) & 0xFF]
    return out


def ap_masks_loop(n, k):
    masks = np.empty(n * n, dtype=np.int64)
    i = 0
    for x in range(n):
        for r in range(n):
            m = 0
            for j in range(k):
                m |= 1 << ((x + j * r) % n)
            masks[i] = m
            i += 1
    return masks


def empirical_c_sweep(k, delta, n):
    """The exhaustive minimum by a chunked sweep that tests every subset
    against every progression mask: the reference the zeta transform is
    held to."""
    size_req = ceil(delta * n - 1e-9)
    aps = ap_masks_loop(n, k)
    best_count = None
    best_masks = []
    checked = 0
    chunk = 1 << 14
    for lo in range(0, 1 << n, chunk):
        batch = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.int64)
        batch = batch[_popcount(batch) >= size_req]
        if batch.size == 0:
            continue
        checked += batch.size
        inside = (batch[:, None] & aps[None, :]) == aps[None, :]
        counts = inside.sum(axis=1)
        cmin = int(counts.min())
        if best_count is None or cmin <= best_count:
            winners = batch[counts == cmin]
            if best_count is None or cmin < best_count:
                best_count = cmin
                best_masks = list(winners)
            else:
                best_masks.extend(winners)
    witness = min(_mask_to_tuple(int(m), n) for m in best_masks)
    return EmpiricalC(
        k, n, delta, "exhaustive", best_count / (n * n), best_count,
        witness, checked,
    )


@pytest.mark.parametrize("k", range(1, 6))
def test_zeta_transform_matches_sweep_reference(k):
    # every field: c_min, count_min, witness and sets_checked
    for n in list(range(1, 17)) + [19]:
        for delta in (0.3, 0.5, 0.7):
            assert gl.empirical_c(k, delta, n) == empirical_c_sweep(k, delta, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 22).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), min_size=1))
    )
)
def test_lex_least_matches_tuple_minimum(case):
    n, masks = case
    want = min(_mask_to_tuple(m, n) for m in masks)
    assert _lex_least(np.array(sorted(masks), dtype=np.int64), n) == want


def test_empirical_c_witness_at_k_le_2_is_the_least_initial_segment():
    # at k <= 2 every set of the least size ties; n = 21 has 352,716 of them
    for k in (1, 2):
        res = gl.empirical_c(k, 0.5, 21)
        assert res.witness == tuple(range(11))
        assert res.count_min == (21 * 11 if k == 1 else 11 * 11)


@lru_cache(maxsize=None)
def subset_counts(n, k):
    return _subset_counts(n, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 14).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(1, 5), st.sets(st.integers(0, n - 1))
        )
    )
)
def test_zeta_table_counts_every_subset(case):
    n, k, members = case
    counts, sizes = subset_counts(n, k)
    mask = sum(1 << m for m in members)
    assert counts[mask] == count_ap_instances(members, n, k)
    assert sizes[mask] == len(members)


def test_empirical_c_random_mode_deterministic():
    a = gl.empirical_c(3, 0.4, 29, mode="random", samples=60, seed=5)
    b = gl.empirical_c(3, 0.4, 29, mode="random", samples=60, seed=5)
    assert a == b
    assert a.sets_checked == 60
    assert len(a.witness) == 12  # ceil(0.4 * 29)
    assert count_ap_instances(a.witness, 29, 3) == a.count_min


def test_empirical_c_mode_errors():
    with pytest.raises(ModeError):
        gl.empirical_c(3, 0.5, EXHAUSTIVE_LIMIT + 1)
    with pytest.raises(ModeError):
        gl.empirical_c(3, 0.5, 10, mode="annealed")
    with pytest.raises(InvalidConfigurationError):
        gl.empirical_c(3, 0.0, 10)
    for k, n in ((0, 10), (3, 0), (3, -2)):
        with pytest.raises(InvalidConfigurationError):
            gl.empirical_c(k, 0.5, n)
    with pytest.raises(InvalidConfigurationError):
        gl.empirical_c(3, 0.5, 64, mode="random")
    with pytest.raises(InvalidConfigurationError):
        gl.empirical_c(3, 0.5, 10, mode="random", samples=0)


def test_find_k_ap_lex_least():
    assert gl.find_k_ap_in_set([0, 2, 4, 8], 3) == (0, 2, 3)
    # a = 0, r = 1 beats longer-gap progressions starting later
    assert gl.find_k_ap_in_set([0, 1, 2, 3, 4, 6], 3) == (0, 1, 3)
    assert gl.find_k_ap_in_set([5, 9, 2], 1) == (2, 1, 1)
    assert gl.find_k_ap_in_set([0, 1, 3, 7], 3) is None
    assert gl.find_k_ap_in_set([], 2) is None
    # four members across the whole int64 range: the scan is over member pairs, not the span
    assert gl.find_k_ap_in_set([-5, 2 ** 62, 3, 2 ** 63 - 1], 3) is None
    with pytest.raises(InvalidConfigurationError):
        gl.find_k_ap_in_set([1, 2], 0)


def find_k_ap_span_scan(members, k):
    """Reference: for each member a, every step r up to (max - a)/(k - 1)."""
    s = set(members)
    if not s:
        return None
    if k == 1:
        return (min(s), 1, 1)
    for a in sorted(s):
        for r in range(1, (max(s) - a) // (k - 1) + 1):
            if all(a + j * r in s for j in range(k)):
                return (a, r, k)
    return None


@settings(max_examples=300, deadline=None)
@given(members=st.lists(st.integers(-40, 40), max_size=12), k=st.integers(1, 5))
def test_find_k_ap_matches_span_scan(members, k):
    assert gl.find_k_ap_in_set(members, k) == find_k_ap_span_scan(members, k)


# ---------------------------------------------------------------------------
# gating sets


def test_gating_sets_discrete_partition_hand_check():
    # T^1 of 1_{0..3} on Z_7 is supported on {0,1,2,6}; exact approximant
    # makes the gap condition vacuous, so the gate is that support
    f = gl.GroupFunction.indicator(7, [0, 1, 2, 3])
    shifted = gl.shift(f, 1)
    rep = gl.gating_sets(
        f, {1: shifted}, Partition.discrete(7), k=2, delta=0.5, k_star=1, lam=1
    )
    assert rep.shifts == (1,)
    want = np.zeros(7, dtype=bool)
    want[[0, 1, 2, 6]] = True
    assert np.array_equal(rep.sets[1], want)
    assert np.array_equal(rep.intersection, want)
    assert rep.density == pytest.approx(4 / 7)


def test_gating_sets_trivial_partition_all_pass():
    f = gl.GroupFunction(13, np.full(13, 0.5))
    approx = {(3 * m) % 13: f for m in range(1, 4)}
    rep = gl.gating_sets(
        f, approx, Partition.trivial(13), k=3, delta=0.6, k_star=3, lam=3
    )
    assert rep.density == 1.0
    assert all(mask.all() for mask in rep.sets.values())
    assert sorted(rep.sets) == sorted(rep.shifts)


def test_gating_sets_intersection_is_conjunction():
    rng = gl.derive_rng(9, "gating")
    f = gl.GroupFunction(11, rng.uniform(0, 1, 11).astype(complex))
    part = Partition(11, rng.integers(0, 3, 11))
    approx = {}
    for m in range(1, 4):
        s = (2 * 5 * m) % 11
        g = gl.shift(f, s)
        approx[s] = gl.GroupFunction(11, g.values + 0.01 * rng.uniform(-1, 1, 11))
    rep = gl.gating_sets(f, approx, part, k=3, delta=0.4, k_star=3, lam=5, mu=2)
    joint = np.ones(11, dtype=bool)
    for s in rep.shifts:
        joint &= rep.sets[s]
    assert np.array_equal(rep.intersection, joint)
    assert rep.density == pytest.approx(np.count_nonzero(joint) / 11)


def test_gating_sets_requires_shift_keys():
    f = gl.GroupFunction.indicator(7, [0, 1, 2])
    with pytest.raises(MissingInputError):
        # keyed by m, not by the shift mu*lam*m mod 7
        gl.gating_sets(
            f, {1: f, 2: f}, Partition.trivial(7), k=2, delta=0.5, k_star=2, lam=3
        )


# ---------------------------------------------------------------------------
# greedy nets


def scaled_basis(n, count):
    # sqrt(n) e_i: orthonormal under the mean inner product
    vecs = []
    for i in range(count):
        v = np.zeros(n, dtype=complex)
        v[i] = np.sqrt(n)
        vecs.append(v)
    return vecs


def test_net_orthonormal_inputs_all_survive():
    vecs = scaled_basis(8, 6)
    net = gl.greedy_net(vecs, 1.3)
    assert net.representatives == tuple(range(6))
    assert net.separation == pytest.approx(np.sqrt(2))
    assert net.dimension == 6
    assert net.natural_termination
    assert net.packing_ok


def test_net_bessel_cap_disables_packing_claim():
    # theta = 1.9 caps the orthonormal phase at floor((4/1.9)^2) = 4
    vecs = scaled_basis(8, 6)
    net = gl.greedy_net(vecs, 1.9)
    assert net.dimension == 4
    assert not net.natural_termination
    assert net.packing_ok is None
    # sqrt(2) gaps are within radius 1.9, one representative covers
    assert net.representatives == (0,)


def test_net_covering_random_inputs():
    rng = gl.derive_rng(11, "net")
    for trial in range(10):
        vecs = [rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16) for _ in range(30)]
        theta = float(rng.uniform(0.3, 1.5))
        net = gl.greedy_net(vecs, theta)
        mat = np.stack(vecs)
        for i in range(30):
            dmin = min(
                float(np.sqrt(np.mean(np.abs(mat[i] - mat[j]) ** 2)))
                for j in net.representatives
            )
            assert dmin <= theta + 1e-12
        # representatives are theta-separated by construction
        assert net.separation > theta or len(net.representatives) == 1


def test_net_accepts_group_functions_and_rejects_bad_theta():
    fs = [gl.GroupFunction(5, np.eye(5)[i] * np.sqrt(5)) for i in range(3)]
    net = gl.greedy_net(fs, 1.0)
    assert net.representatives == (0, 1, 2)
    with pytest.raises(InvalidConfigurationError):
        gl.greedy_net(fs, 0.0)


# ---------------------------------------------------------------------------
# finite-rank sampling


def phase_columns(rng, rows, n):
    return [np.exp(2j * np.pi * rng.uniform(0, 1, n)) for _ in range(rows)]


def test_finite_rank_sample_deterministic():
    rng = gl.derive_rng(13, "fr-cols")
    cols = phase_columns(rng, 6, 12)
    w = np.full(6, 1 / 6)
    a = gl.finite_rank_sample(cols, w, 40, seed=2, trial=1)
    b = gl.finite_rank_sample(cols, w, 40, seed=2, trial=1)
    assert a.indices == b.indices
    assert np.array_equal(a.approximant, b.approximant)
    other = gl.finite_rank_sample(cols, w, 40, seed=2, trial=2)
    assert a.indices != other.indices


def test_finite_rank_sample_error_definition():
    cols = [np.ones(4), -np.ones(4)]
    w = [0.5, 0.5]
    s = gl.finite_rank_sample(cols, w, 10, seed=0)
    exact = np.zeros(4)
    approx = s.approximant
    assert s.error == pytest.approx(float(np.sqrt(np.mean(np.abs(approx - exact) ** 2))))
    assert len(s.indices) == 10


def test_finite_rank_sample_validation():
    with pytest.raises(BoundednessError):
        gl.finite_rank_sample([2.0 * np.ones(4)], [1.0], 3)
    with pytest.raises(InvalidConfigurationError):
        gl.finite_rank_sample([np.ones(4)], [-1.0], 3)
    with pytest.raises(InvalidConfigurationError):
        gl.finite_rank_sample([np.ones(4), np.ones(4)], [1.0], 3)
    with pytest.raises(InvalidConfigurationError):
        gl.finite_rank_sample([np.ones(4)], [1.0], 0)


def test_finite_rank_audit_second_moment():
    rng = gl.derive_rng(17, "fr-audit")
    cols = phase_columns(rng, 20, 16)
    w = rng.uniform(0.2, 1.0, 20)
    w /= w.sum()
    audit = gl.finite_rank_audit(cols, w, d_samples=50, trials=100, seed=3)
    assert audit.holds
    assert audit.bound == pytest.approx((1 / 50) * (1 + 3 / np.sqrt(100)))
    assert audit.mean_sq_error <= audit.bound
