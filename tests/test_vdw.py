"""Exhaustive colouring numbers, fan certificates, the focusing step,
and the big-integer bound recursion."""
from math import floor, log10

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gowers_lab as gl
from gowers_lab.errors import InvalidConfigurationError, SubproofError
from gowers_lab.vdw import (
    Colouring,
    Fan,
    VdwSearch,
    _ending_masks,
    find_mono_ap,
)


def test_colouring_validation():
    with pytest.raises(InvalidConfigurationError):
        Colouring(3, 2, (1, 2))  # length mismatch
    with pytest.raises(InvalidConfigurationError):
        Colouring(3, 2, (1, 2, 3))  # colour above m
    col = Colouring(3, 2, (1, 2, 1))
    assert col[1] == 1 and col[2] == 2
    with pytest.raises(InvalidConfigurationError):
        col[0]
    with pytest.raises(InvalidConfigurationError):
        col[4]


def test_find_mono_ap_lex_least():
    col = Colouring(5, 2, (1, 2, 1, 2, 1))
    # a=1 r=1 mixes colours; a=1 r=2 hits 1,3,5 all colour 1
    assert find_mono_ap(col, 3) == (1, 2)
    assert find_mono_ap(col, 2) == (1, 2)
    assert find_mono_ap(col, 1) == (1, 1)
    avoider = Colouring(8, 2, (1, 1, 2, 2, 1, 1, 2, 2))
    assert find_mono_ap(avoider, 3) is None
    with pytest.raises(InvalidConfigurationError):
        find_mono_ap(col, 0)


# ---------------------------------------------------------------------------
# exact W(k, m)


def vdw_loop(k, m, n_max=10000):
    """The search with the colour test done position by position: the
    reference the per-colour bitmask search is held to."""
    if k == 1:
        return VdwSearch(k, m, 1, 1, Colouring(0, m, ()), True, 0)
    aps_ending = []

    def _aps_for(i):
        while len(aps_ending) <= i:
            p = len(aps_ending)
            here = []
            r = 1
            while p - (k - 1) * r >= 0:
                here.append(tuple(p - j * r for j in range(k - 1, 0, -1)))
                r += 1
            aps_ending.append(here)
        return aps_ending[i]

    colours = []
    best = []
    nodes = 0
    next_try = [1] * (n_max + 1)
    max_used = [0] * (n_max + 1)
    pos = 0
    while True:
        if pos == n_max:
            return VdwSearch(
                k, m, None, n_max + 1,
                Colouring(n_max, m, tuple(colours)), False, nodes,
            )
        placed = False
        c = next_try[pos]
        cap = min(m, max_used[pos] + 1)
        while c <= cap:
            nodes += 1
            if not any(
                all(colours[q] == c for q in ap) for ap in _aps_for(pos)
            ):
                colours.append(c)
                next_try[pos] = c + 1
                max_used[pos + 1] = max(max_used[pos], c)
                pos += 1
                next_try[pos] = 1
                if pos > len(best):
                    best = colours.copy()
                placed = True
                break
            c += 1
        if not placed:
            next_try[pos] = 1
            pos -= 1
            if pos < 0:
                return VdwSearch(
                    k, m, len(best) + 1, len(best) + 1,
                    Colouring(len(best), m, tuple(best)), True, nodes,
                )
            colours.pop()


REFERENCE_GRID = (
    [(2, m, 10000) for m in range(1, 7)]
    + [(3, 2, 10000), (3, 3, 10000), (4, 2, 10000)]
    + [(3, 3, n) for n in (0, 1, 10, 26, 27, 40)]
    + [(4, 2, n) for n in (5, 34, 35)]
    + [(5, 2, 60)]
)


@pytest.mark.parametrize("k,m,n_max", REFERENCE_GRID)
def test_bitmask_search_matches_loop_reference(k, m, n_max):
    # every field: value, lower bound, avoider, completeness and nodes
    assert gl.vdw_number(k, m, n_max=n_max) == vdw_loop(k, m, n_max)


def has_mono_ap_by_masks(col, k):
    """A colouring has a mono k-AP iff some position closes one with its
    own colour over the earlier positions, tested as the search does."""
    cmask = [0] * (col.m + 1)
    for p, c in enumerate(col.colours):
        if any(cmask[c] & a == a for a in _ending_masks(p, k)):
            return True
        cmask[c] |= 1 << p
    return False


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(2, 5).flatmap(
        lambda k: st.integers(1, 4).flatmap(
            lambda m: st.tuples(
                st.just(k), st.lists(st.integers(1, m), max_size=40).map(
                    lambda cols: Colouring(len(cols), m, tuple(cols))
                ),
            )
        )
    )
)
def test_bitmask_ap_test_agrees_with_find_mono_ap(case):
    k, col = case
    assert has_mono_ap_by_masks(col, k) == (find_mono_ap(col, k) is not None)


def test_two_term_progressions_need_m_plus_one():
    for m in range(1, 7):
        res = gl.vdw_number(2, m)
        assert res.value == m + 1
        assert res.complete
        assert res.avoider.n == m
        assert find_mono_ap(res.avoider, 2) is None
    assert gl.vdw_number(2, 6).nodes == 27


def test_w32_frozen():
    res = gl.vdw_number(3, 2)
    assert res.value == 9
    assert res.nodes == 79
    assert res.avoider.colours == (1, 1, 2, 2, 1, 1, 2, 2)
    assert find_mono_ap(res.avoider, 3) is None


def test_w33_and_w42_frozen():
    res33 = gl.vdw_number(3, 3)
    assert (res33.value, res33.nodes) == (27, 337640)
    assert res33.avoider.n == 26
    assert find_mono_ap(res33.avoider, 3) is None
    res42 = gl.vdw_number(4, 2)
    assert (res42.value, res42.nodes) == (35, 20351)
    assert find_mono_ap(res42.avoider, 4) is None


def test_vdw_trivial_and_incomplete():
    base = gl.vdw_number(1, 4)
    assert base.value == 1 and base.complete and base.avoider.n == 0
    part = gl.vdw_number(3, 3, n_max=10)
    assert part.value is None
    assert not part.complete
    assert part.lower_bound == 11
    assert part.avoider.n == 10
    assert find_mono_ap(part.avoider, 3) is None
    with pytest.raises(InvalidConfigurationError):
        gl.vdw_number(0, 2)
    with pytest.raises(InvalidConfigurationError):
        gl.vdw_number(3, 2, n_max=-1)
    with pytest.raises(InvalidConfigurationError):
        gl.vdw_number(3, 2, max_nodes=-1)


def test_node_budget_binds():
    part = gl.vdw_number(3, 2, max_nodes=5)
    assert part.nodes == 5
    assert not part.complete and part.value is None
    assert part.lower_bound == part.avoider.n + 1
    assert find_mono_ap(part.avoider, 3) is None
    assert gl.vdw_number(3, 2, max_nodes=0).nodes == 0
    # the search needs exactly 79 nodes, so a budget of 79 binds nothing
    full = gl.vdw_number(3, 2, max_nodes=79)
    assert (full.value, full.nodes, full.complete) == (9, 79, True)


def test_memory_grows_with_depth_not_n_max_or_m():
    res = gl.vdw_number(3, 2, n_max=10 ** 12)
    assert (res.value, res.nodes, res.complete) == (9, 79, True)
    part = gl.vdw_number(3, 10 ** 12, n_max=10 ** 12, max_nodes=50)
    assert part.nodes == 50 and not part.complete
    assert find_mono_ap(part.avoider, 3) is None


# ---------------------------------------------------------------------------
# fans


def test_fan_verify_and_polychromatic():
    col = Colouring(9, 3, (2, 1, 1, 3, 3, 1, 2, 1, 3))
    fan = Fan(base=1, radius=3, steps=(1,), colours=(2, 1))
    assert fan.verify(col)
    assert fan.polychromatic
    assert not Fan(base=1, radius=3, steps=(0,), colours=(2, 1)).verify(col)
    assert not Fan(base=1, radius=3, steps=(1,), colours=(1, 1)).verify(col)
    assert not Fan(base=1, radius=3, steps=(2,), colours=(2, 1)).verify(col)
    assert not Fan(base=1, radius=3, steps=(5,), colours=(2, 1)).verify(col)
    assert not Fan(base=1, radius=3, steps=(1,), colours=(2,)).verify(col)


def test_polychromatic_fan_degree_zero_and_none():
    col = Colouring(6, 1, (1,) * 6)
    fan = gl.find_polychromatic_fan(col, 3, 0)
    assert fan == Fan(base=1, radius=3, steps=(), colours=(1,))
    # one colour admits no polychromatic spoke
    assert gl.find_polychromatic_fan(col, 3, 1) is None
    with pytest.raises(InvalidConfigurationError):
        gl.find_polychromatic_fan(col, 1, 1)
    with pytest.raises(InvalidConfigurationError):
        gl.find_polychromatic_fan(col, 3, -1)


def test_polychromatic_fan_on_w33_avoider():
    avoider = gl.vdw_number(3, 3).avoider
    fan = gl.find_polychromatic_fan(avoider, 3, 2)
    assert fan == Fan(base=1, radius=3, steps=(3, 12), colours=(1, 2, 3))
    assert fan.verify(avoider)
    assert fan.polychromatic


# ---------------------------------------------------------------------------
# the focusing step


def focussed_colours(n, assignments, fill=1):
    cols = [fill] * n
    for pos, c in assignments.items():
        cols[pos - 1] = c
    return tuple(cols)


def test_focus_step_block_ap_short_circuits():
    # an all-ones window yields the progression (1, 1) inside block 0
    col = Colouring(24, 2, (1,) * 24)
    out = gl.fan_focus_step(col, k=2, d=1, n1=3, n2=1)
    assert out.mono_ap == (1, 1)
    assert out.fan is None


def test_focus_step_base_colour_collapse():
    # blocks are single positions; equal block fans focus onto position 7,
    # whose colour matches the spoke, so the fan collapses to 1, 4, 7
    col = Colouring(24, 2, focussed_colours(24, {7: 1}))
    out = gl.fan_focus_step(col, k=3, d=1, n1=1, n2=2)
    assert out.mono_ap == (1, 3)
    assert out.fan is None


def test_focus_step_builds_polychromatic_fan():
    # same geometry, base recoloured: spoke colour 1, base colour 2
    col = Colouring(24, 2, focussed_colours(24, {7: 2}))
    out = gl.fan_focus_step(col, k=3, d=1, n1=1, n2=2)
    assert out.mono_ap is None
    assert out.fan == Fan(base=7, radius=3, steps=(-3,), colours=(2, 1))
    assert out.fan.verify(col)


def test_focus_step_subproof_failures():
    col = Colouring(24, 2, focussed_colours(24, {4: 2, 7: 2}))
    # distinct block fans leave no monochromatic block progression
    with pytest.raises(SubproofError) as err:
        gl.fan_focus_step(col, k=3, d=1, n1=1, n2=2)
    assert err.value.block is None

    with pytest.raises(SubproofError) as err:
        gl.fan_focus_step(
            col, k=3, d=1, n1=1, n2=2,
            block_solver=lambda *a: None,
        )
    assert err.value.block == 0

    bogus = Fan(base=1, radius=3, steps=(2,), colours=(1, 2))
    with pytest.raises(SubproofError):
        gl.fan_focus_step(
            col, k=3, d=1, n1=1, n2=2,
            block_solver=lambda *a: ("fan", bogus),
        )

    def raiser(*a):
        raise RuntimeError("boom")

    with pytest.raises(SubproofError):
        gl.fan_focus_step(
            col, k=3, d=1, n1=1, n2=2, block_solver=raiser
        )


def test_focus_step_preconditions():
    col = Colouring(23, 2, (1,) * 23)
    with pytest.raises(InvalidConfigurationError):
        gl.fan_focus_step(col, k=3, d=1, n1=1, n2=2)  # needs 4k n1 n2 = 24
    with pytest.raises(InvalidConfigurationError):
        gl.fan_focus_step(col, k=1, d=1, n1=1, n2=1)
    with pytest.raises(InvalidConfigurationError):
        gl.fan_focus_step(col, k=3, d=0, n1=1, n2=1)


# ---------------------------------------------------------------------------
# the bound recursion


def test_bound_recursion_base_cases():
    for m in (1, 3, 5):
        rep = gl.bound_recursion(1, m)
        assert rep.value == 1 and rep.digits == 1 and not rep.overflow
    for m, want in ((1, 8), (2, 64), (3, 512)):
        rep = gl.bound_recursion(2, m)
        assert rep.value == want
        assert not rep.overflow
        assert rep.digits == floor(m * log10(8)) + 1


def test_bound_recursion_k3_exact_and_tower():
    rep = gl.bound_recursion(3, 1)
    assert rep.value == 96 and not rep.overflow
    kinds = [(e["kind"], e["k"], e["d"]) for e in rep.tower]
    assert kinds == [
        ("fan", 3, 0), ("vdw", 2, None), ("fan", 3, 1), ("vdw", 3, None),
    ]
    assert rep.tower[1]["value"] == 8
    assert rep.tower[2]["value"] == 96


def test_bound_recursion_overflow_digits_frozen():
    rep = gl.bound_recursion(3, 2)
    assert rep.overflow and rep.value is None
    assert rep.digits == 2130661
    inner = [e for e in rep.tower if e["kind"] == "vdw" and e["k"] == 2]
    assert [e["m"] for e in inner] == [2, 2359296]
    assert inner[0]["value"] == 64
    assert inner[1]["value"] is None
    # the 8^2359296 node dominates; its digit count is exact
    assert inner[1]["digits"] == floor(2359296 * log10(8)) + 1 == 2130657
    rep42 = gl.bound_recursion(4, 2)
    assert rep42.overflow and rep42.digits == 2130662


def test_bound_dominates_exact_values():
    # the recursion is a gross upper bound wherever W is known exactly
    for m in range(1, 5):
        assert gl.bound_recursion(2, m).value >= gl.vdw_number(2, m).value
    assert gl.bound_recursion(3, 1).value >= gl.vdw_number(3, 1).value
    with pytest.raises(InvalidConfigurationError):
        gl.bound_recursion(0, 1)
