"""Desk-scale recurrence checks: progression averages, gating sets,
greedy nets, and Monte Carlo finite-rank sampling.

The headline average is E( prod_{j<k} f(x + j mu r) | x, r ), with r
over all of Z_N or a prefix; for an indicator it counts progressions,
the r = 0 terms included.  The empirical minimum of this average over
all sets of a given density is the desk-scale recurrence constant.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .config import DEFAULT_TOL, derive_rng
from .cyclic import GroupFunction, shift
from .errors import (
    BoundednessError,
    DimensionMismatchError,
    EmptyDomainError,
    InvalidConfigurationError,
    MissingInputError,
    ModeError,
)
from .gowers import _progression_mean
from .partitions import Partition, conditional_expectation

EXHAUSTIVE_LIMIT = 22


@dataclass(frozen=True)
class RecurrenceReport:
    k: int
    n: int
    average: float
    r_range: tuple
    mu: int


def recurrence_average(
    f: GroupFunction, k: int, r_range=None, mu: int = 1
) -> RecurrenceReport:
    """Exact O(k N |r_range|) evaluation of the progression average."""
    if k < 1:
        raise InvalidConfigurationError("k must be at least 1")
    n = f.n
    rs = tuple(range(n)) if r_range is None else tuple(int(r) for r in r_range)
    if not rs:
        raise EmptyDomainError("empty r range")
    avg = _progression_mean([f.values] * k, [mu * j % n for j in range(k)], rs)
    value = float(avg.real) if abs(avg.imag) < 1e-12 else float(abs(avg))
    return RecurrenceReport(k=k, n=n, average=value, r_range=(rs[0], rs[-1]), mu=mu)


def count_ap_instances(members, n: int, k: int) -> int:
    """Independent integer-arithmetic count of pairs (x, r), r = 0
    included, with x + jr mod n in the set for all j < k.  Cross-checks
    the vectorized average: count = average * n^2 on indicators."""
    s = set(int(m) % n for m in members)
    count = 0
    for x in range(n):
        for r in range(n):
            if all((x + j * r) % n in s for j in range(k)):
                count += 1
    return count


@dataclass(frozen=True)
class EmpiricalC:
    k: int
    n: int
    delta: float
    mode: str
    c_min: float
    count_min: int
    witness: tuple
    sets_checked: int


def _ap_masks(n: int, k: int) -> np.ndarray:
    """Bitmask of {x + jr mod n : j < k} for each pair (x, r), x-major."""
    x, r = np.divmod(np.arange(n * n, dtype=np.int64), n)
    masks = np.zeros(n * n, dtype=np.int64)
    for j in range(k):
        masks |= np.int64(1) << ((x + j * r) % n)
    return masks


def _subset_counts(n: int, k: int):
    """Per mask S over Z_n: the number of (x, r) whose progression lies
    in S (int32) and |S| (int8).  Counts of exact progression masks are
    summed over subsets, one pass per bit (a zeta transform)."""
    counts = np.bincount(_ap_masks(n, k), minlength=1 << n).astype(np.int32)
    sizes = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):
        v = counts.reshape(-1, 2, 1 << i)
        v[:, 1] += v[:, 0]
        sizes.reshape(-1, 2, 1 << i)[:, 1] += 1
    return counts, sizes


def _mask_to_tuple(mask: int, n: int) -> tuple:
    return tuple(i for i in range(n) if mask >> i & 1)


def _lex_least(masks: np.ndarray, n: int) -> tuple:
    """The lexicographically least member tuple of some distinct masks,
    lowest bit first.  The masks left agree below bit i; where they differ
    at bit i, a mask with no bit at or above i is a prefix of the others
    and least, and otherwise the masks holding bit i are."""
    for i in range(n):
        held = (masks >> i) & 1 == 1
        if 0 < np.count_nonzero(held) < masks.size:
            ended = masks[masks >> i == 0]
            masks = ended if ended.size else masks[held]
    return _mask_to_tuple(int(masks[0]), n)


def empirical_c(
    k: int,
    delta: float,
    n: int,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
) -> EmpiricalC:
    """Minimum progression average over subsets of density at least delta.

    Exhaustive mode (n <= 22) counts the progressions inside every one of
    the 2^n subsets at once with a subset-sum (zeta) transform over the
    n^2 progression masks: n passes, O(n 2^n) time, one table of 2^n
    int32 counts.  Random mode samples subsets of the threshold size.
    Ties go to the lexicographically least witness set.
    """
    if k < 1 or n < 1:
        raise InvalidConfigurationError("need k, n >= 1")
    if not 0 < delta <= 1:
        raise InvalidConfigurationError("delta must lie in (0, 1]")
    size_req = ceil(delta * n - 1e-9)
    if mode == "exhaustive":
        if n > EXHAUSTIVE_LIMIT:
            raise ModeError(
                f"exhaustive sweep capped at n = {EXHAUSTIVE_LIMIT}, got {n}"
            )
        counts, sizes = _subset_counts(n, k)
        eligible = sizes >= size_req
        best_count = int(counts[eligible].min())
        winners = np.flatnonzero(eligible & (counts == best_count))
        witness = _lex_least(winners, n)
        return EmpiricalC(
            k, n, delta, "exhaustive", best_count / (n * n), best_count,
            witness, int(np.count_nonzero(eligible)),
        )
    if mode == "random":
        if n > 63 or samples < 1:
            raise InvalidConfigurationError("random mode needs n <= 63, samples >= 1")
        aps = _ap_masks(n, k)
        rng = derive_rng(seed, "empirical-c")
        best_count = None
        best_witness = None
        for _ in range(samples):
            pick = np.sort(rng.choice(n, size=size_req, replace=False))
            mask = sum(1 << int(p) for p in pick)
            cnt = int(np.count_nonzero((mask & aps) == aps))
            tup = tuple(int(p) for p in pick)
            if best_count is None or cnt < best_count or (
                cnt == best_count and tup < best_witness
            ):
                best_count, best_witness = cnt, tup
        return EmpiricalC(
            k, n, delta, "random", best_count / (n * n), best_count,
            best_witness, samples,
        )
    raise ModeError(f"unknown mode {mode!r}")


def find_k_ap_in_set(members, k: int):
    """Lexicographically least proper integer progression (a, r, k) in a
    set of integers, or None; exhaustive scan."""
    if k < 1:
        raise InvalidConfigurationError("k must be at least 1")
    s = set(int(m) for m in members)
    if not s:
        return None
    elems = sorted(s)
    if k == 1:
        return (elems[0], 1, 1)
    top = elems[-1]
    for a in elems:
        max_r = (top - a) // (k - 1) if k > 1 else 0
        for r in range(1, max_r + 1):
            if all(a + j * r in s for j in range(k)):
                return (a, r, k)
    return None


# ---------------------------------------------------------------------------
# gating sets


@dataclass(frozen=True)
class GatingReport:
    sets: dict  # shift n -> boolean mask over Z_N
    intersection: np.ndarray
    density: float
    shifts: tuple


def gating_sets(
    f_uperp: GroupFunction,
    approximants: dict,
    partition: Partition,
    k: int,
    delta: float,
    k_star: int,
    lam: int,
    mu: int = 1,
) -> GatingReport:
    """The measurable sets gating the recurrence average.

    For each m = 1..k_star, with n = mu lam m, the set keeps x where the
    atom average of T^n f is at least delta/2 and the atom average of
    |T^n f - F_n| is at most delta/8k.  The approximant family is keyed
    by the shift n actually used and must cover every required n.
    """
    n_points = f_uperp.n
    shifts = tuple((mu * lam * m) % n_points for m in range(1, k_star + 1))
    missing = [s for s in shifts if s not in approximants]
    if missing:
        raise MissingInputError(f"approximants missing for shifts {missing}")
    sets = {}
    inter = np.ones(n_points, dtype=bool)
    for s in shifts:
        shifted = shift(f_uperp, s)
        cond1 = conditional_expectation(shifted, partition).values.real >= delta / 2
        gap = GroupFunction(
            n_points, np.abs(shifted.values - approximants[s].values).astype(complex)
        )
        cond2 = conditional_expectation(gap, partition).values.real <= delta / (8 * k)
        mask = cond1 & cond2
        sets[s] = mask
        inter &= mask
    return GatingReport(
        sets=sets, intersection=inter,
        density=float(np.count_nonzero(inter)) / n_points, shifts=shifts,
    )


# ---------------------------------------------------------------------------
# greedy epsilon-net


@dataclass(frozen=True)
class EpsilonNet:
    representatives: tuple  # indices into the input list
    radius: float
    separation: float  # min pairwise representative distance (> radius)
    dimension: int  # phase-1 orthonormal system size
    natural_termination: bool
    packing_ok: bool | None  # None when phase 1 was capped


def _as_matrix(vectors) -> np.ndarray:
    rows = [v.values if isinstance(v, GroupFunction) else np.asarray(v) for v in vectors]
    if len({row.shape for row in rows}) > 1:
        raise DimensionMismatchError("vectors of different lengths")
    return np.stack(rows).astype(np.complex128)


def greedy_net(vectors, theta: float) -> EpsilonNet:
    """Two-phase net in normalized L2 (norm = sqrt of the mean square).

    Phase 1 greedily grows an orthonormal system from vectors at distance
    at least theta/4 from the running span, capped by the Bessel bound
    floor((4/theta)^2 max ||v||^2).  Phase 2 greedily covers, lowest
    index first, at radius theta.  Covering is re-checked exhaustively;
    the finite-dimensional packing bound on the net size is asserted only
    when phase 1 stopped on its own rather than at the cap.
    """
    if not theta > 0:
        raise InvalidConfigurationError("theta must be positive")
    mat = _as_matrix(vectors)
    t_count, dim = mat.shape

    def norm(v):
        return float(np.sqrt(np.mean(np.abs(v) ** 2)))

    def inner(v, w):
        return complex(np.mean(v * np.conj(w)))

    max_norm = max(norm(mat[i]) for i in range(t_count))
    cap = int(np.floor((4.0 / theta) ** 2 * max_norm ** 2 + 1e-12))
    ortho: list[np.ndarray] = []
    natural = True
    for i in range(t_count):
        res = mat[i].copy()
        for q in ortho:
            res -= inner(res, q) * q
        r = norm(res)
        if r >= theta / 4:
            if len(ortho) >= cap:
                natural = False
                continue
            ortho.append(res / r)

    reps: list[int] = []
    for i in range(t_count):
        if all(norm(mat[i] - mat[j]) > theta for j in reps):
            reps.append(i)

    for i in range(t_count):
        if i not in reps and min(norm(mat[i] - mat[j]) for j in reps) > theta:
            raise InvalidConfigurationError("covering check failed (internal)")

    sep = np.inf
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            sep = min(sep, norm(mat[reps[a]] - mat[reps[b]]))

    packing_ok = None
    if natural:
        # projections of representatives onto the span are theta/2
        # separated inside a radius max_norm ball of real dimension 2J
        j_dim = len(ortho)
        log_bound = 2 * j_dim * log(4 * max_norm / theta + 2.0) if j_dim else 0.0
        packing_ok = bool(log(max(len(reps), 1)) <= log_bound + 1e-12 or len(reps) == 1)

    return EpsilonNet(
        representatives=tuple(reps), radius=float(theta), separation=float(sep),
        dimension=len(ortho), natural_termination=natural, packing_ok=packing_ok,
    )


# ---------------------------------------------------------------------------
# Monte Carlo finite-rank approximation


@dataclass(frozen=True)
class FiniteRankSample:
    approximant: np.ndarray
    error: float  # normalized L2 distance from the exact weighted mean
    indices: tuple


def finite_rank_sample(
    columns, weights, d_samples: int, seed: int = 0, trial: int = 0,
    tol: float = DEFAULT_TOL,
) -> FiniteRankSample:
    """Empirical mean of d_samples weighted draws from the columns.

    The second-moment bound E ||F - mean||^2 <= 1/D (columns bounded by
    1) is audited statistically by finite_rank_audit.
    """
    if d_samples < 1:
        raise InvalidConfigurationError("need at least one sample")
    mat = _as_matrix(columns)
    if np.max(np.abs(mat)) > 1.0 + tol:
        raise BoundednessError("columns must satisfy max|G_h| <= 1")
    w = np.asarray(weights, dtype=float)
    if w.shape[0] != mat.shape[0] or not np.all(w >= 0) or not 0 < w.sum() < np.inf:
        raise InvalidConfigurationError("weights must be a probability vector")
    w = w / w.sum()
    exact = (w[:, None] * mat).sum(axis=0)
    rng = derive_rng(seed, "finite-rank", trial)
    idx = rng.choice(mat.shape[0], size=d_samples, p=w)
    approx = mat[idx].mean(axis=0)
    err = float(np.sqrt(np.mean(np.abs(exact - approx) ** 2)))
    return FiniteRankSample(approx, err, tuple(int(i) for i in idx))


@dataclass(frozen=True)
class FiniteRankAudit:
    mean_sq_error: float
    bound: float
    trials: int
    d_samples: int
    holds: bool


def finite_rank_audit(
    columns, weights, d_samples: int, trials: int, seed: int = 0
) -> FiniteRankAudit:
    """Average squared sampling error over independent trials against the
    second-moment bound (1/D)(1 + 3/sqrt(R))."""
    errs = [
        finite_rank_sample(columns, weights, d_samples, seed=seed, trial=t).error
        for t in range(trials)
    ]
    mean_sq = float(np.mean(np.square(errs)))
    bound = (1.0 / d_samples) * (1.0 + 3.0 / np.sqrt(trials))
    return FiniteRankAudit(mean_sq, bound, trials, d_samples, mean_sq <= bound)
