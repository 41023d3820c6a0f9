"""Acceptance gate: fourteen numbered criteria, one printed line each.

Every criterion runs at its stated tolerance and prints a single
machine-greppable line of the form

    [criterion NN] PASS|FAIL <what was measured>

to the real stdout, bypassing capture, so the lines appear in plain
pytest output and in piped logs.  A FAIL line is immediately followed by
the assertion failure for that criterion.

Criterion 3 checks the sharp polynomial-phase theorem.  A phase
f = e(P(x)/N) with N prime and deg P < N has unit U^d norm exactly when
d >= deg P + 1.  At the boundary d = deg P the power S_d = ||f||^(2^d)
takes the closed form 1 - (1 - 1/N)^(d-1): a derivative with h != 0
lowers a genuine degree-D phase to a genuine degree-(D-1) phase and
h = 0 gives the constant 1, so S_D = 1/N + (1 - 1/N) S_{D-1} with
S_1 = 0.  That is 0 at d = 1, 1/N at d = 2 (the Gauss-sum norm N^(-1/4))
and (2N - 1)/N^2 at d = 3.
"""
import time
from itertools import product

import numpy as np

import gowers_lab as gl
from gowers_lab.cyclic import phase_values
from gowers_lab.gowers import gowers_norm_batch, gowers_power_batch

TOL = 1e-9
PRIMES = (5, 7, 11, 13)


def bounded(rng, n):
    v = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) / np.sqrt(2)
    return gl.GroupFunction(n, v)


def _in_chunks(batch_fn, rows, d, **kw):
    return np.concatenate([
        batch_fn(rows[lo:lo + 4096], d, **kw) for lo in range(0, rows.shape[0], 4096)
    ])


def lin_poly(rng, n):
    return (int(rng.integers(0, n)), int(rng.integers(1, n)))


def quad_poly(rng, n):
    return (int(rng.integers(0, n)), int(rng.integers(0, n)), int(rng.integers(1, n)))


def test_criterion_01_three_route_agreement(criterion):
    start = time.perf_counter()
    rng = gl.derive_rng(0, "acceptance", 1)
    worst = 0.0
    for _ in range(500):
        n = int(rng.choice(PRIMES))
        f = bounded(rng, n)
        for d in (1, 2, 3):
            recursive = gl.gowers_norm(f, d, tol=TOL).value
            direct = gl.gowers_norm_direct(f, d, tol=TOL)
            worst = max(worst, abs(recursive - direct))
            if d == 2:
                worst = max(worst, abs(recursive - gl.gowers_u2_fourier(f)))
    elapsed = time.perf_counter() - start
    ok = worst <= TOL and elapsed < 10.0
    criterion(1, ok, "recursive/direct/Fourier routes on 500 random bounded f, "
            f"d <= 3: max pairwise gap {worst:.3e} (tol 1e-9), {elapsed:.1f}s (< 10s)")


def test_criterion_02_norm_axiom_suite(criterion):
    rng = gl.derive_rng(0, "acceptance", 2)
    violations = 0
    worst = 0.0
    trials = 1000
    for t in range(trials):
        n = int(rng.choice(PRIMES))
        f = bounded(rng, n)
        gap = 0.0
        kind = t % 4
        if kind == 0:
            vals = [gl.gowers_norm(f, d, tol=TOL).value for d in (1, 2, 3, 4)]
            gap = max(vals[i] - vals[i + 1] for i in range(3))
        elif kind == 1:
            g = bounded(rng, n)
            stack = np.stack([f.values, g.values, f.values + g.values])
            for d in (2, 3):
                nf, ng, nsum = gowers_norm_batch(stack, d, tol=TOL)
                gap = max(gap, nsum - nf - ng)
        elif kind == 2:
            s = int(rng.integers(1, n))
            lam = int(rng.integers(1, n))
            stack = np.stack([
                f.values, gl.shift(f, s).values, gl.dilate(f, lam).values,
            ])
            for d in (2, 3):
                base, shifted, dilated = gowers_norm_batch(stack, d, tol=TOL)
                gap = max(gap, abs(base - shifted), abs(base - dilated))
        else:
            # the recursion itself: ||f||^{2^d} = E_h ||conj(f) T^h f||^{2^{d-1}}
            diffs = np.conj(f.values)[None, :] * np.stack(
                [np.roll(f.values, -h) for h in range(n)]
            )
            for d in (2, 3):
                lhs = gl.gowers_norm(f, d, tol=TOL).value ** (2 ** d)
                rhs = float(np.mean(
                    gowers_norm_batch(diffs, d - 1, tol=TOL) ** (2 ** (d - 1))
                ))
                gap = max(gap, abs(lhs - rhs))
        worst = max(worst, gap)
        if gap > TOL:
            violations += 1
    ok = violations == 0
    criterion(2, ok, "monotonicity/triangle/invariance/recursion axioms over "
            f"{trials} random trials: {violations} violations, worst gap "
            f"{worst:.3e} (tol 1e-9)")


def test_criterion_03_polynomial_phase_exactness(criterion):
    # exhaustive sweep over every P with deg P <= d, split by true degree:
    # unit norm below the boundary, the closed-form power on it
    count = {"unit": 0, "boundary": 0}
    worst = {"unit": 0.0, "boundary": 0.0}
    worst_case = {"unit": None, "boundary": None}
    for n in (7, 11, 13):
        x = np.arange(n)
        for d in (1, 2, 3):
            pows = np.array([[pow(int(v), j, n) for v in x] for j in range(d + 1)])
            coeffs = np.array(list(product(range(n), repeat=d + 1)), dtype=np.int64)
            rows = np.exp(2j * np.pi * ((coeffs @ pows) % n) / n)
            assert np.allclose(rows[coeffs.shape[0] - 1], phase_values(tuple([n - 1] * (d + 1)), n))
            degs = np.array([gl.poly_degree(c, n) for c in coeffs])
            assert degs.max() <= d
            on_boundary = degs == d
            # compare the boundary at the power level: at d = 1 a root
            # would blow rounding of 1e-17 up to 1e-9
            unit_norms = _in_chunks(gowers_norm_batch, rows[~on_boundary], d, tol=TOL)
            boundary_powers = _in_chunks(gowers_power_batch, rows[on_boundary], d)
            closed_form = 1.0 - (1.0 - 1.0 / n) ** (d - 1)
            for kind, gaps, mask in (
                ("unit", np.abs(unit_norms - 1.0), ~on_boundary),
                ("boundary", np.abs(boundary_powers - closed_form), on_boundary),
            ):
                count[kind] += gaps.size
                i = int(np.argmax(gaps))
                if gaps[i] > worst[kind]:
                    worst[kind] = float(gaps[i])
                    worst_case[kind] = (n, d, tuple(int(c) for c in coeffs[mask][i]))
    ok = count["unit"] + count["boundary"] == 49813 and max(worst.values()) <= TOL
    criterion(3, ok, "polynomial phases e(P(x)/N), N in {7,11,13}, d <= 3, all "
            f"{count['unit'] + count['boundary']} P with deg P <= d: "
            f"{count['unit']} with deg P < d have unit U^d norm (worst |norm-1| = "
            f"{worst['unit']:.3e} at N,d,P = {worst_case['unit']}); "
            f"{count['boundary']} with deg P = d have S_d = 1-(1-1/N)^(d-1) "
            f"(worst gap {worst['boundary']:.3e} at N,d,P = {worst_case['boundary']}); "
            "tol 1e-9")


def test_criterion_04_dual_identity(criterion):
    rng = gl.derive_rng(0, "acceptance", 4)
    worst = 0.0
    for t in range(200):
        n = int(rng.choice(PRIMES))
        f = bounded(rng, n)
        d = 1 + t % 3
        dual = gl.dual_function(f, d)
        lhs = gl.inner_product(f, dual)
        rhs = gl.gowers_norm(f, d, tol=TOL).value ** (2 ** d)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= TOL
    criterion(4, ok, "pairing <f, D_d f> equals the 2^d-th norm power, 200 "
            f"random f, d <= 3: worst gap {worst:.3e} (tol 1e-9)")


def test_criterion_05_von_neumann_audit(criterion):
    rng = gl.derive_rng(0, "acceptance", 5)
    violations = 0
    worst = -np.inf
    for t in range(500):
        k = (2, 3, 4)[t % 3]
        n = int(rng.choice((7, 11, 13)))
        fs = [bounded(rng, n) for _ in range(k)]
        lams = [int(v) + 1 for v in rng.choice(n - 1, size=k, replace=False)]
        rep = gl.von_neumann_check(fs, lams, tol=TOL)
        worst = max(worst, rep.lhs - rep.rhs)
        if not rep.holds:
            violations += 1
    ok = violations == 0
    criterion(5, ok, "progression average bounded by the least U^{k-1} norm, "
            f"500 random tuples, k in 2..4: {violations} violations, worst "
            f"lhs-rhs {worst:.3e} (tol 1e-9)")


def test_criterion_06_certificate_soundness(criterion):
    rng = gl.derive_rng(0, "acceptance", 6)
    worst = 0.0
    for t in range(100):
        n = int(rng.choice((7, 11, 13)))
        c_lin = gl.certify_phase_sum(
            n, [(np.exp(2j * np.pi * rng.uniform()) * 0.5, lin_poly(rng, n))]
        )
        c_quad = gl.certify_phase_sum(n, [(0.5, quad_poly(rng, n))])
        f = bounded(rng, n)
        c_dual = gl.certify_dual(f, 2, tol=TOL)
        products = [
            c_lin,
            c_quad,
            c_dual,
            gl.cert_add(c_lin, c_dual, 0.5),
            gl.cert_multiply(c_lin, c_dual),
            gl.cert_shift(c_lin, int(rng.integers(1, n))),
        ]
        if t % 5 == 0:
            products.append(gl.certify_dual(f, 3, tol=TOL))
        for cert in products:
            rep = gl.verify_certificate(cert, tol=TOL)
            worst = max(worst, rep.max_reconstruction_error)
    audit_violations = 0
    for t in range(500):
        n = int(rng.choice((7, 11, 13)))
        f = bounded(rng, n)
        g = bounded(rng, n)
        cert = gl.certify_dual(g, 3 if t % 10 == 0 else 2, tol=TOL)
        if not gl.duality_audit(f, cert, tol=TOL).holds:
            audit_violations += 1
    ok = worst <= TOL and audit_violations == 0
    criterion(6, ok, "every constructed certificate reconstructs (max error "
            f"{worst:.3e}, tol 1e-9) and the duality bound held on 500 random "
            f"pairs ({audit_violations} violations)")


def test_criterion_07_level_set_contract(criterion):
    rng = gl.derive_rng(0, "acceptance", 7)
    worst_osc = 0.0
    cap_ok = True
    equivariant = True
    for trial in range(100):
        n = int(rng.choice((7, 11, 13, 17)))
        G = gl.certify_phase_sum(
            n, [(np.exp(2j * np.pi * rng.uniform()), quad_poly(rng, n))]
        )
        eps = float(rng.uniform(0.15, 0.8))
        alg = gl.level_set_algebra([G], eps, seed=trial)
        proj = gl.conditional_expectation(G.func, alg.partition)
        osc = gl.linf_norm(G.func - proj) / eps
        worst_osc = max(worst_osc, osc)
        side = 2 * int(np.ceil(G.cert.bound / eps)) + 2
        cap_ok = cap_ok and alg.partition.atom_count <= side * side
        for s in rng.integers(0, n, 20):
            s = int(s)
            shifted = gl.level_set_algebra([gl.cert_shift(G, s)], eps, seed=trial)
            want = gl.shift_partition(alg.partition, s)
            equivariant = equivariant and np.array_equal(
                want.labels, shifted.partition.labels
            )
    ok = worst_osc <= np.sqrt(2) + 1e-12 and cap_ok and equivariant
    criterion(7, ok, "100 random level-set algebras: oscillation <= sqrt(2) eps "
            f"(worst ratio {worst_osc:.4f} of sqrt(2) = {np.sqrt(2):.4f}), atom "
            f"capacity bound {'held' if cap_ok else 'broke'}, shift "
            f"equivariance exact on 20 shifts each: {equivariant}")


def test_criterion_08_pythagoras_and_energy(criterion):
    rng = gl.derive_rng(0, "acceptance", 8)
    worst = 0.0
    mono_ok = True
    for _ in range(300):
        n = int(rng.choice((7, 11, 13, 17)))
        coarse = gl.Partition(n, rng.integers(0, int(rng.integers(2, 5)), n))
        split = rng.integers(0, 3, n)
        fine = gl.Partition(n, coarse.labels * 3 + split)
        fs = [bounded(rng, n) for _ in range(int(rng.integers(1, 4)))]
        rep = gl.pythagoras_check(fs, coarse, fine, tol=1e-10)
        worst = max(worst, rep.discrepancy)
        mono_ok = mono_ok and (
            gl.energy(fs, fine) + 1e-12 >= gl.energy(fs, coarse)
        )
    ok = worst <= 1e-10 and mono_ok
    criterion(8, ok, "orthogonal energy split across 300 nested partition "
            f"pairs: worst discrepancy {worst:.3e} (tol 1e-10), refinement "
            f"monotonicity {'held' if mono_ok else 'broke'}")


def test_criterion_09_structure_theorem_end_to_end(criterion):
    n, k, delta = 53, 3, 0.3
    runs = 20
    worst_time = 0.0
    declared_c = np.inf
    all_hold = True
    trace_ok = True
    for i in range(runs):
        members = gl.derive_rng(0, "acceptance-structure", i).choice(
            n, size=16, replace=False
        )
        f = gl.GroupFunction.indicator(n, sorted(int(m) for m in members))
        t0 = time.perf_counter()
        dec = gl.decompose(f, k, delta, seed=i)
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        checks = gl.verify_decomposition(f, dec, tol=TOL)
        all_hold = all_hold and checks.holds
        energies = [abs(gl.expectation(f)) ** 2] + [
            row.energy_refined for row in dec.trace
        ]
        for j, row in enumerate(dec.trace):
            if energies[j + 1] < energies[j] - 1e-12:
                trace_ok = False
            if row.which_loop == "done":
                continue
            floor = (row.gowers_fU ** (2 ** (k - 1)) / 4.0) ** 2
            declared_c = min(declared_c, floor)
            if energies[j + 1] - energies[j] < floor - 1e-12:
                trace_ok = False
    ok = all_hold and trace_ok and worst_time < 300.0
    c_text = "no increment steps taken" if declared_c == np.inf else f"declared c {declared_c:.3e}"
    criterion(9, ok, f"decompose on {runs} density-{delta} sets in Z_{n}: all "
            f"invariant checks {'held' if all_hold else 'broke'}, energy trace "
            f"monotone with every increment above its floor ({c_text}), "
            f"slowest run {worst_time:.2f}s (< 300s)")


def test_criterion_10_recurrence_positivity(criterion):
    start = time.perf_counter()
    rep = gl.empirical_c(3, 9 / 17, 17, mode="exhaustive")
    elapsed = time.perf_counter() - start
    floor = 9 / (17 * 17)
    frozen_min = 37  # regression constant from the first validated sweep
    ok = (
        rep.c_min > 0.0
        and rep.c_min >= floor
        and rep.count_min == frozen_min
        and elapsed < 120.0
    )
    criterion(10, ok, "exhaustive 3-term average over all |A| >= 9 in Z_17: "
            f"minimum {rep.count_min}/289 = {rep.c_min:.6f} >= floor 9/289 = "
            f"{floor:.6f}, witness {rep.witness}, {rep.sets_checked} sets, "
            f"{elapsed:.1f}s (< 120s)")


def test_criterion_11_van_der_waerden_exacts(criterion):
    start = time.perf_counter()
    ok = True
    details = []
    for k, m, want in ((3, 2, 9), (3, 3, 27), (4, 2, 35)):
        res = gl.vdw_number(k, m)
        certified = (
            res.complete
            and res.value == want
            and res.avoider.n == want - 1
            and gl.find_mono_ap(res.avoider, k) is None
        )
        ok = ok and certified
        details.append(f"W({k},{m})={res.value}")
    for m in range(1, 7):
        res = gl.vdw_number(2, m)
        ok = ok and res.value == m + 1 and gl.find_mono_ap(res.avoider, 2) is None
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    criterion(11, ok, f"exhaustive colouring numbers {', '.join(details)} and "
            f"W(2,m)=m+1 for m <= 6, avoiders re-verified progression-free, "
            f"{elapsed:.1f}s (< 600s)")


def test_criterion_12_bound_recursion_sanity(criterion):
    ok = all(gl.bound_recursion(1, m).value == 1 for m in (1, 2, 3, 4))
    comparisons = []
    for k, m in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1)]:
        exact = gl.vdw_number(k, m).value
        bound = gl.bound_recursion(k, m)
        ok = ok and bound.value is not None and bound.value >= exact
        comparisons.append(f"({k},{m}): {bound.value} >= {exact}")
    for k, m in [(3, 2), (3, 3), (4, 2)]:
        exact = gl.vdw_number(k, m).value
        bound = gl.bound_recursion(k, m)
        # overflow certifies >= 10^(digit budget), astronomically above W
        ok = ok and bound.overflow and bound.digits > len(str(exact))
    criterion(12, ok, "recursion dominates every exactly computed colouring "
            f"number ({'; '.join(comparisons)}; overflow cases checked by "
            "digit count) and the k=1 base case is exactly 1")


def test_criterion_13_monte_carlo_second_moment(criterion):
    rng = gl.derive_rng(0, "acceptance", 13)
    cols = [np.exp(2j * np.pi * rng.uniform(0, 1, 16)) for _ in range(20)]
    weights = rng.uniform(0.2, 1.0, 20)
    weights /= weights.sum()
    parts = []
    ok = True
    for d in (100, 400):
        audit = gl.finite_rank_audit(cols, weights, d_samples=d, trials=200, seed=0)
        ok = ok and audit.holds
        parts.append(f"D={d}: {audit.mean_sq_error:.3e} <= {audit.bound:.3e}")
    criterion(13, ok, "mean squared sampling error within (1/D)(1 + 3/sqrt(200)) "
            f"over 200 trials ({'; '.join(parts)})")


def test_criterion_14_greedy_net(criterion):
    rng = gl.derive_rng(0, "acceptance", 14)
    covering_ok = True
    for _ in range(25):
        count = int(rng.integers(8, 30))
        dim = int(rng.integers(8, 24))
        vecs = [rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim)
                for _ in range(count)]
        theta = float(rng.uniform(0.3, 1.6))
        net = gl.greedy_net(vecs, theta)
        mat = np.stack(vecs)
        for i in range(count):
            dmin = min(
                float(np.sqrt(np.mean(np.abs(mat[i] - mat[j]) ** 2)))
                for j in net.representatives
            )
            covering_ok = covering_ok and dmin <= theta + 1e-12
    ortho_ok = True
    for t_count in (4, 6, 9):
        vecs = []
        for i in range(t_count):
            v = np.zeros(max(t_count, 10), dtype=complex)
            v[i] = np.sqrt(len(v))
            vecs.append(v)
        for theta in (0.6, 1.0, 1.4):
            net = gl.greedy_net(vecs, theta)
            ortho_ok = ortho_ok and net.representatives == tuple(range(t_count))
    ok = covering_ok and ortho_ok
    criterion(14, ok, "25 random nets cover exhaustively at their radius and "
            "orthonormal inputs below the sqrt(2) gap survive verbatim "
            f"(L = T exactly): {ortho_ok}")
