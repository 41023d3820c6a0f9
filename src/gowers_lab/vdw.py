"""Van der Waerden engine: exhaustive W(k, m), fan certificates, the
colour-focusing step, and the big-integer bound recursion.

Positions are 1-based ({1..n}) and colours run 1..m.  Every progression
or fan returned by a search is re-verified by direct colour inspection
before it is handed back; search certificates are never trusted.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import floor, inf, log10

from .config import DEFAULT_DIGIT_LIMIT, DEFAULT_VDW_NODES
from .errors import InvalidConfigurationError, SubproofError


@dataclass(frozen=True)
class Colouring:
    n: int
    m: int
    colours: tuple  # colours[p - 1] is the colour of position p

    def __post_init__(self):
        if len(self.colours) != self.n:
            raise InvalidConfigurationError("colour list length differs from n")
        if any(not 1 <= c <= self.m for c in self.colours):
            raise InvalidConfigurationError("colour out of range 1..m")

    def __getitem__(self, position: int) -> int:
        if not 1 <= position <= self.n:
            raise InvalidConfigurationError(f"position {position} outside 1..{self.n}")
        return self.colours[position - 1]


def find_mono_ap(col: Colouring, k: int):
    """Lexicographically least (a, r) with a, a+r, .., a+(k-1)r one
    colour and r >= 1, or None."""
    if k < 1:
        raise InvalidConfigurationError("k must be at least 1")
    ap = _mono_symbol_ap(col.colours, k)
    return None if ap is None else (ap[0] + 1, ap[1])


def _mono_symbol_ap(symbols, k: int):
    """Least (b, s), 0-based, with symbols[b + js] identical for j < k."""
    t = len(symbols)
    if k <= 1:
        return (0, 1) if t >= 1 else None
    for b in range(t):
        v = symbols[b]
        for s in range(1, (t - 1 - b) // (k - 1) + 1):
            if all(symbols[b + j * s] == v for j in range(1, k)):
                return (b, s)
    return None


@dataclass(frozen=True)
class Fan:
    base: int
    radius: int  # progression length k
    steps: tuple  # d step values, nonzero, possibly negative
    colours: tuple  # base colour first, then one per spoke

    @property
    def degree(self) -> int:
        return len(self.steps)

    @property
    def polychromatic(self) -> bool:
        return len(set(self.colours)) == len(self.colours)

    def verify(self, col: Colouring) -> bool:
        """Direct colour inspection of every invariant."""
        k = self.radius
        if len(self.colours) != self.degree + 1:
            return False
        if not 1 <= self.base <= col.n or col[self.base] != self.colours[0]:
            return False
        for t, r in enumerate(self.steps, start=1):
            if r == 0:
                return False
            pts = [self.base + j * r for j in range(k)]
            if any(not 1 <= p <= col.n for p in pts):
                return False
            if any(col[p] != self.colours[t] for p in pts[1:]):
                return False
        return True


def find_polychromatic_fan(col: Colouring, k: int, d: int):
    """Lexicographically least (base, r_1 < ... < r_d) polychromatic fan,
    or None.  Degree 0 degenerates to the first position."""
    if k < 2:
        raise InvalidConfigurationError("fans need radius k >= 2")
    if d < 0:
        raise InvalidConfigurationError("degree must be non-negative")
    if col.n < 1:
        return None
    if d == 0:
        return Fan(base=1, radius=k, steps=(), colours=(col[1],))

    def spoke_colour(a, r):
        c = col[a + r]
        for j in range(2, k):
            if col[a + j * r] != c:
                return None
        return c

    def extend(a, start_r, used, steps, cols):
        if len(steps) == d:
            return steps, cols
        for r in range(start_r, (col.n - a) // (k - 1) + 1):
            c = spoke_colour(a, r)
            if c is None or c in used:
                continue
            hit = extend(a, r + 1, used | {c}, steps + (r,), cols + (c,))
            if hit is not None:
                return hit
        return None

    for a in range(1, col.n + 1):
        hit = extend(a, 1, {col[a]}, (), ())
        if hit is not None:
            steps, cols = hit
            fan = Fan(base=a, radius=k, steps=steps, colours=(col[a],) + cols)
            assert fan.verify(col) and fan.polychromatic
            return fan
    return None


# ---------------------------------------------------------------------------
# exact W(k, m) by backtracking


@dataclass(frozen=True)
class VdwSearch:
    k: int
    m: int
    value: int | None  # W(k, m) when the search completed
    lower_bound: int  # W > lower_bound - 1 always holds
    avoider: Colouring  # longest progression-free colouring found
    complete: bool
    nodes: int


def _ending_masks(p: int, k: int) -> list:
    """For each progression p - (k-1)r, .., p - r, p with r >= 1 inside
    the 0-based positions, the bitmask of its k-1 points before p."""
    return [
        sum(1 << (p - j * r) for j in range(1, k))
        for r in range(1, p // (k - 1) + 1)
    ]


def _search_result(k: int, m: int, best: list, complete: bool, nodes: int) -> VdwSearch:
    n = len(best)
    return VdwSearch(k, m, n + 1 if complete else None, n + 1,
                     Colouring(n, m, tuple(best)), complete, nodes)


def vdw_number(
    k: int, m: int, n_max: int = 10000, max_nodes: int = DEFAULT_VDW_NODES
) -> VdwSearch:
    """Smallest n such that every m-colouring of {1..n} has a mono k-AP.

    Depth-first search, positions left to right, colours ascending, with
    the symmetry of colour relabelling broken canonically: a position may
    only use colours up to one past the largest colour seen so far (in
    particular position 1 gets colour 1).  The first colouring reaching
    each depth is therefore the lexicographically least canonical one.
    Each colour tried is one node, tested against one bitmask per colour.
    If no valid colouring of n_max - 1 ... n_max exists the exact value
    is returned with the longest avoider as certificate; otherwise (n_max
    or max_nodes reached) it is a lower bound with the longest avoider.
    """
    if k < 1 or m < 1 or n_max < 0 or max_nodes < 0:
        raise InvalidConfigurationError("need k, m >= 1 and n_max, max_nodes >= 0")
    if k == 1:
        return _search_result(k, m, [], True, 0)
    # grown lazily to the deepest position reached; n_max only caps the search
    ending: list[list[int]] = []
    # cmask[c]: positions coloured c.  The colours in use are 1..t, and
    # cmask holds 0..t plus one spare empty entry: it grows with t, not m
    cmask = [0, 0]
    colours: list[int] = []
    best: list[int] = []
    nodes = 0
    pos = 0
    c = 1  # next colour to try at pos
    while True:
        if pos == n_max:
            return _search_result(k, m, best, False, nodes)
        if len(ending) == pos:
            ending.append(_ending_masks(pos, k))
        masks = ending[pos]
        cap = min(m, len(cmask) - 1)
        while c <= cap:
            if nodes == max_nodes:
                return _search_result(k, m, best, False, nodes)
            nodes += 1
            bits = cmask[c]
            for a in masks:
                if bits & a == a:
                    break  # c closes a monochromatic progression
            else:
                break  # c is free at pos
            c += 1
        if c <= cap:
            colours.append(c)
            cmask[c] |= 1 << pos
            if c == len(cmask) - 1:
                cmask.append(0)
            pos += 1
            c = 1
            if pos > len(best):
                best = colours.copy()
        else:
            pos -= 1
            if pos < 0:
                return _search_result(k, m, best, True, nodes)
            c = colours.pop()
            cmask[c] ^= 1 << pos
            if not cmask[c]:  # c was the newest colour
                cmask.pop()
            c += 1


# ---------------------------------------------------------------------------
# colour focusing


def _default_block_solver(col: Colouring, k: int, d: int):
    ap = find_mono_ap(col, k)
    if ap is not None:
        return ("ap", ap)
    fan = find_polychromatic_fan(col, k, d)
    if fan is not None:
        return ("fan", fan)
    return None


@dataclass(frozen=True)
class FocusOutcome:
    mono_ap: tuple | None  # (a, r), r >= 1
    fan: Fan | None


def fan_focus_step(
    col: Colouring, k: int, d: int, n1: int, n2: int, *, block_solver=None,
) -> FocusOutcome:
    """One level of the focusing induction on a colouring of {1..4k n1 n2}.

    Each of the n2 blocks of stride k n1 is solved in its first n1
    positions for a mono k-AP (returned at once) or a degree d-1 fan.
    Blocks are then symbols coloured by their fan data, a monochromatic
    (k-1)-progression of blocks (b, s) is found, and the progression is
    reversed (step -s) so the focus block b + (k-1)s exists inside the
    4x-padded range.  The focused fan gains the progression of fan bases
    as a new spoke; if its base colour repeats a spoke colour the two
    merge into a monochromatic k-AP instead.

    block_solver, fn(Colouring, k, d) -> ('ap', (a, r)) | ('fan', Fan) |
    None, is the inductive hypothesis; None uses the exhaustive default.
    """
    if k < 2 or d < 1:
        raise InvalidConfigurationError("focusing needs k >= 2 and d >= 1")
    if col.n < 4 * k * n1 * n2:
        raise InvalidConfigurationError(
            f"colouring of length {col.n} shorter than 4k n1 n2 = {4 * k * n1 * n2}"
        )
    solver = block_solver or _default_block_solver

    data = []
    for b in range(n2):
        start = b * k * n1
        window = Colouring(n1, col.m, col.colours[start:start + n1])
        try:
            result = solver(window, k, d - 1)
        except Exception as exc:
            raise SubproofError(f"block solver raised: {exc}", block=b) from exc
        if result is None:
            raise SubproofError("block solver found neither AP nor fan", block=b)
        kind, payload = result
        if kind == "ap":
            a, r = payload
            ap = (start + a, r)
            _check_mono(col, ap, k)
            return FocusOutcome(mono_ap=ap, fan=None)
        fan = payload
        if not fan.verify(window) or fan.degree != d - 1:
            raise SubproofError("block fan failed direct inspection", block=b)
        data.append((fan.base, fan.steps, fan.colours))

    hit = _mono_symbol_ap(data, k - 1)
    if hit is None:
        raise SubproofError("no monochromatic block progression", block=None)
    b, s = hit
    a, spoke_steps, spoke_cols = data[b]
    base = (b + (k - 1) * s) * k * n1 + a
    steps = (-s * k * n1,) + tuple(-s * k * n1 + r for r in spoke_steps)
    colours = spoke_cols  # (c_0, .., c_{d-1}) of the shared block fan
    base_colour = col[base]
    for t, step in enumerate(steps):
        expect = colours[t]
        for j in range(1, k):
            p = base + j * step
            if not 1 <= p <= col.n or col[p] != expect:
                raise SubproofError(
                    f"focused spoke {t} failed inspection at offset {j}", block=b
                )
        if base_colour == expect:
            lo = base + (k - 1) * step
            ap = (lo, -step)
            _check_mono(col, ap, k)
            return FocusOutcome(mono_ap=ap, fan=None)
    fan = Fan(base=base, radius=k, steps=steps, colours=(base_colour,) + colours)
    if not fan.verify(col) or not fan.polychromatic or fan.degree != d:
        raise SubproofError("focused fan failed direct inspection", block=b)
    return FocusOutcome(mono_ap=None, fan=fan)


def _check_mono(col: Colouring, ap: tuple, k: int):
    a, r = ap
    c = col[a]
    if r < 1 or any(col[a + j * r] != c for j in range(1, k)):
        raise SubproofError(f"progression {ap} failed direct inspection")


# ---------------------------------------------------------------------------
# the appendix bound recursion


class _Big:
    """Exact integer while it fits the digit budget, log10 track after."""

    __slots__ = ("exact", "log10")

    def __init__(self, exact, log_value):
        self.exact = exact
        self.log10 = log_value

    @classmethod
    def of(cls, v: int) -> "_Big":
        if v <= 0:
            raise InvalidConfigurationError("bound values are positive")
        lg = log10(v) if v < 10 ** 300 else (v.bit_length() - 1) * log10(2)
        return cls(v, lg)

    @property
    def digits(self) -> float:
        return floor(self.log10) + 1 if self.log10 != inf else inf

    def mul(self, other: "_Big", limit: int) -> "_Big":
        lg = self.log10 + other.log10
        if self.exact is not None and other.exact is not None and lg < limit:
            return _Big(self.exact * other.exact, lg)
        return _Big(None, lg)

    def pow(self, exponent: "_Big", limit: int) -> "_Big":
        if exponent.exact is not None:
            lg = exponent.exact * self.log10
            if self.exact is not None and lg < limit:
                return _Big(self.exact ** exponent.exact, lg)
            return _Big(None, lg)
        e = 10.0 ** exponent.log10 if exponent.log10 < 300 else inf
        return _Big(None, e * self.log10)


@dataclass(frozen=True)
class BoundReport:
    k: int
    m: int
    value: int | None
    digits: float  # decimal digits, estimated within one when inexact
    overflow: bool
    tower: tuple  # evaluation steps, outermost last


_DISPLAY_DIGITS = 40


def _tower_entry(kind, k, m_big: "_Big", d, val: "_Big"):
    shown = val.exact if val.exact is not None and val.digits <= _DISPLAY_DIGITS else None
    return {
        "kind": kind,
        "k": k,
        "m": m_big.exact if m_big.exact is not None else None,
        "d": d,
        "digits": val.digits,
        "value": shown,
    }


def _vdw_big(k: int, m: _Big, limit: int, tower: list) -> _Big:
    if k == 1:
        val = _Big.of(1)
        tower.append(_tower_entry("vdw", 1, m, None, val))
        return val
    if k == 2:
        # N_FAN(2,m,d) = 8 N_FAN(2,m,d-1) N_vdW(1,.) collapses to 8^d,
        # so the degree-m stopping rule gives exactly 8^m
        val = _Big.of(8).pow(m, limit)
        tower.append(_tower_entry("vdw", 2, m, None, val))
        return val
    if m.exact is None or m.exact * log10(8) > limit * 1.5:
        # the degree-m tower already dwarfs the digit budget
        val = _Big(None, inf)
        tower.append(_tower_entry("vdw", k, m, None, val))
        return val
    n1 = _Big.of(1)
    tower.append(_tower_entry("fan", k, m, 0, n1))
    val = n1
    for d in range(1, m.exact + 1):
        arg = m.pow(_Big.of(d), limit).mul(n1.pow(_Big.of(d), limit), limit)
        n2 = _vdw_big(k - 1, arg, limit, tower)
        val = _Big.of(4 * k).mul(n1, limit).mul(n2, limit)
        tower.append(_tower_entry("fan", k, m, d, val))
        if val.exact is None:
            break
        n1 = val
    tower.append(_tower_entry("vdw", k, m, None, val))
    return val


def bound_recursion(k: int, m: int, digit_limit: int = DEFAULT_DIGIT_LIMIT) -> BoundReport:
    """Exact big-integer evaluation of the fan bound recursion

        N_FAN(k, m, d) = 4k N_FAN(k, m, d-1) N_vdW(k-1, m^d N_FAN(k, m, d-1)^d)

    with bases N_vdW(1, m) = 1 and N_FAN(k, m, 0) = 1, stopped at degree
    d = m.  Evaluation halts at the first value beyond the digit budget
    and reports the partial tower with a digit estimate (exact integers
    are never stringified; estimates are within one digit).
    """
    if k < 1 or m < 1:
        raise InvalidConfigurationError("need k, m >= 1")
    tower: list = []
    val = _vdw_big(k, _Big.of(m), digit_limit, tower)
    return BoundReport(
        k=k, m=m, value=val.exact, digits=val.digits,
        overflow=val.exact is None, tower=tuple(tower),
    )
