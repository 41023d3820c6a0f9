"""Finite sigma-algebras on Z_N, stored as partitions into atoms.

A sigma-algebra on a finite set is exactly a partition; conditioning is
per-atom averaging.  Labels are canonicalized so that atoms are numbered
by their least element, which makes structurally equal partitions compare
equal and keeps every downstream artifact deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclic import GroupFunction
from .errors import DimensionMismatchError, EmptyDomainError, RefinementError


def _canonical_labels(raw: np.ndarray) -> np.ndarray:
    # renumber atoms in order of first occurrence == order of least element
    _, first_idx, inverse = np.unique(raw, return_index=True, return_inverse=True)
    order = np.argsort(first_idx)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return rank[inverse].astype(np.int64)


@dataclass(eq=False)
class Partition:
    """Partition of Z_n; labels[x] is the atom index of x, canonicalized."""

    n: int
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (self.n,):
            raise DimensionMismatchError(
                f"labels shape {labels.shape} does not match modulus {self.n}"
            )
        self.labels = _canonical_labels(labels)

    @property
    def atom_count(self) -> int:
        return int(self.labels.max()) + 1

    def atoms(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.labels == a) for a in range(self.atom_count)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and np.array_equal(self.labels, other.labels)
        )

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        return cls(n, np.zeros(n, dtype=np.int64))

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls(n, np.arange(n, dtype=np.int64))

    @classmethod
    def from_sets(cls, n: int, sets) -> "Partition":
        labels = np.full(n, -1, dtype=np.int64)
        for i, block in enumerate(sets):
            block = list(block)
            if not block:
                raise EmptyDomainError(f"atom {i} is empty")
            for x in block:
                x = int(x)
                if not 0 <= x < n:
                    raise DimensionMismatchError(f"element {x} outside Z_{n}")
                if labels[x] != -1:
                    raise DimensionMismatchError(f"element {x} assigned twice")
                labels[x] = i
        if (labels == -1).any():
            missing = np.flatnonzero(labels == -1)
            raise DimensionMismatchError(f"elements {missing.tolist()} not covered")
        return cls(n, labels)


def shift_partition(B: Partition, n_shift: int) -> Partition:
    """Partition whose atom containing x is (atom of x + n_shift) - n_shift."""
    return Partition(B.n, np.roll(B.labels, -int(n_shift) % B.n))


def conditional_expectation(f: GroupFunction, B: Partition) -> GroupFunction:
    """E(f | B): replace f by its average on each atom.

    Preserves the mean, contracts L^2, and maps [0, 1]-valued functions to
    [0, 1]-valued functions.
    """
    if f.n != B.n:
        raise DimensionMismatchError("function and partition moduli differ")
    counts = np.bincount(B.labels, minlength=B.atom_count)
    sums = np.bincount(B.labels, weights=f.values.real, minlength=B.atom_count).astype(
        np.complex128
    )
    sums += 1j * np.bincount(B.labels, weights=f.values.imag, minlength=B.atom_count)
    means = sums / counts
    return GroupFunction(f.n, means[B.labels])


def join(a: Partition, b: Partition) -> Partition:
    """Coarsest common refinement: atoms are intersections of atoms."""
    if a.n != b.n:
        raise DimensionMismatchError("partition moduli differ")
    combined = a.labels * (b.labels.max() + 1) + b.labels
    return Partition(a.n, combined)


def refines(fine: Partition, coarse: Partition) -> bool:
    """True when every atom of `fine` sits inside one atom of `coarse`: the
    join keeps only nonempty intersections, so it then splits no atom."""
    return join(fine, coarse).atom_count == fine.atom_count


def energy(fs, B: Partition) -> float:
    """Sum over the tuple of ||E(f_j | B)||_{L^2}^2.

    Non-decreasing under refinement, bounded by sum ||f_j||_{L^2}^2.
    """
    total = 0.0
    for f in fs:
        proj = conditional_expectation(f, B)
        total += float(np.mean(np.abs(proj.values) ** 2))
    return total


@dataclass(frozen=True)
class PythagorasReport:
    lhs: float  # sum ||E(f|fine) - E(f|coarse)||^2
    rhs: float  # energy(fine) - energy(coarse)
    discrepancy: float
    holds: bool


def pythagoras_check(fs, coarse: Partition, fine: Partition, tol: float = 1e-10) -> PythagorasReport:
    """Orthogonality of the conditional-expectation increments.

    For fine refining coarse, E(f|coarse) is the projection of E(f|fine),
    so the energy gap equals the squared L^2 distance between the two
    projections, summed over the tuple.
    """
    if not refines(fine, coarse):
        raise RefinementError("second partition must refine the first")
    lhs = 0.0
    for f in fs:
        pf = conditional_expectation(f, fine)
        pc = conditional_expectation(f, coarse)
        lhs += float(np.mean(np.abs(pf.values - pc.values) ** 2))
    rhs = energy(fs, fine) - energy(fs, coarse)
    disc = abs(lhs - rhs)
    return PythagorasReport(lhs, rhs, disc, bool(disc <= tol))
