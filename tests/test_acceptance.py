"""Acceptance suite: one test per criterion, at the stated sizes/tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or -v in
the captured output).  Exact criteria compare rationals for equality;
statistical criteria use the stated sample counts and error-bar widths.
"""
import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy import stats

from cpp_lab import duality as D
from cpp_lab import homology as H
from cpp_lab import measures as M
from cpp_lab import sampler as S
from cpp_lab.complexes import (Chain, PercSubcomplex, boundary_chain,
                               build_box, build_torus, two_squares_complex)
from cpp_lab.observables import (perimeter, rect_loop, wilson_observable,
                                 write_mf_csv)
from dense_reference import cocycle_basis
from measures_reference import bernoulli_bits_dist, one_point_conditional, prcm_dist

SQUARE = build_box(2, [1, 1])
BOX22 = build_box(2, [2, 2])
TORUS22 = build_torus(2, 2)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def outer_loop(X, q):
    return rect_loop(2, 2, X, q).gamma


def test_criterion_01_coupling_marginals():
    start = time.time()
    params = M.ModelParams(q=2, i=1, k2=1, k1=2)
    mu = M.enumerate_mu(params, BOX22)
    rho = M.enumerate_rho(params, BOX22)
    mf, mp = M.kappa_marginals(params, BOX22, max_states=1 << 29)
    d_mu = mu.max_discrepancy(mf)
    d_rho = rho.max_discrepancy(mp)

    params3 = M.ModelParams(q=3, i=1, k2=1, k1=2)
    mu3 = M.enumerate_mu(params3, SQUARE)
    rho3 = M.enumerate_rho(params3, SQUARE)
    kappa3 = M.enumerate_kappa(params3, SQUARE)
    d_mu3 = mu3.max_discrepancy(kappa3.marginal(lambda k: k[0]))
    d_rho3 = rho3.max_discrepancy(kappa3.marginal(lambda k: (k[1], k[2])))
    mf3, mp3 = M.kappa_marginals(params3, SQUARE)
    d_mu3b = mu3.max_discrepancy(mf3)
    d_rho3b = rho3.max_discrepancy(mp3)

    elapsed = time.time() - start
    ok = (d_mu == d_rho == d_mu3 == d_rho3 == d_mu3b == d_rho3b == 0
          and elapsed < 60)
    report(1, "coupling marginals (Potts Higgs <-> pair measure)", ok,
           f"discrepancies all 0, {elapsed:.1f}s")


def test_criterion_02_wilson_identity():
    start = time.time()
    worst_exact = Fraction(0)
    worst_float = 0.0
    loops2 = [boundary_chain(BOX22, BOX22.cells(2)[0], 2), outer_loop(BOX22, 2)]
    params2 = M.ModelParams(q=2, i=1, k2=1, k1=2)
    for gamma in loops2:
        res = M.exact_wilson(params2, BOX22, gamma)
        worst_exact = max(worst_exact, abs(res.lhs_exact - res.rhs))
    params3 = M.ModelParams(q=3, i=1, k2=1, k1=2)
    loops3 = [boundary_chain(BOX22, BOX22.cells(2)[0], 3), outer_loop(BOX22, 3)]
    for gamma in loops3:
        res = M.exact_wilson(params3, BOX22, gamma)
        # floating-point spin side built from the root-of-unity sums, kept
        # independent of the exact shortcut
        sums = M.wilson_class_sums(params3, BOX22, gamma)
        total = sum(sums, Fraction(0))
        lhs_float = sum(float(a / total) * math.cos(2 * math.pi * c / 3)
                        for c, a in enumerate(sums))
        worst_float = max(worst_float, abs(lhs_float - float(res.rhs)))
    elapsed = time.time() - start
    ok = worst_exact == 0 and worst_float < 1e-12 and elapsed < 300
    report(2, "Wilson expectation equals topological event probability", ok,
           f"q=2 exact diff {worst_exact}, q=3 float diff {worst_float:.2e}, {elapsed:.1f}s")


def test_criterion_03_worked_example_values():
    fx = two_squares_complex()
    q = 3
    b1 = H.betti(fx, 1, q)
    z1 = len(cocycle_basis(
        H.RelPair(PercSubcomplex.full(fx, 2), PercSubcomplex.empty(fx, 1)), q))
    closed = [fx.name_id(1, n) for n in ("e5", "e6", "e7")]
    a_edges = [e for e in range(7) if e not in closed]
    rel3 = H.subcomplex_cohomology_rank(
        fx, {0: None, 1: None, 2: None},
        {0: None, 1: set(a_edges), 2: {0}}, 1, q)
    ok = b1 == 1 and z1 == 6 and rel3 == 3
    report(3, "worked-example homology values", ok,
           f"b1={b1}, dim Z^1={z1}, rel rank={rel3}")


def test_criterion_04_duality_exact_and_mc():
    timings = []
    flat = []
    for (q, k2, k1) in ((2, 1, 1), (2, 1, 2), (3, 3, 1)):
        t0 = time.time()
        disc = D.verify_duality_exact(M.ModelParams(q=q, i=0, k2=k2, k1=k1), TORUS22)
        timings.append(time.time() - t0)
        flat.append(disc)
    exact_ok = all(d == 0 for d in flat) and max(timings) < 120

    torus3 = build_torus(3, 2)
    params = M.ModelParams.from_p(2, 1, Fraction(2, 5), Fraction(1, 2))
    mc = D.verify_duality_mc(params, torus3, n_samples=100_000, burn_in=500, seed=101)
    mc_ok = mc["max_z"] <= 4.0
    report(4, "torus duality (exact + MC)", exact_ok and mc_ok,
           f"discrepancies {flat}, max exact time {max(timings):.1f}s, "
           f"MC max |z| = {mc['max_z']:.2f} at 1e5 sweeps")


def test_criterion_05_lattice_condition():
    rnd = random.Random(2024)
    violations = 0
    for X in (BOX22, TORUS22):
        n2, n1 = X.num_cells(2), X.num_cells(1)
        for _ in range(10_000):
            X2 = PercSubcomplex(X, 2, rnd.getrandbits(n2))
            Y2 = PercSubcomplex(X, 2, rnd.getrandbits(n2))
            A1 = PercSubcomplex(X, 1, rnd.getrandbits(n1))
            B1 = PercSubcomplex(X, 1, rnd.getrandbits(n1))
            lhs = H.rel_betti(H.RelPair(X2.union(Y2), A1.union(B1)), 1, 2) \
                + H.rel_betti(H.RelPair(X2.intersection(Y2), A1.intersection(B1)), 1, 2)
            rhs = H.rel_betti(H.RelPair(X2, A1), 1, 2) \
                + H.rel_betti(H.RelPair(Y2, B1), 1, 2)
            if lhs < rhs:
                violations += 1
    report(5, "cohomology lattice condition", violations == 0,
           f"{violations} violations in 2x10^4 quadruples")


def test_criterion_06_one_point_conditionals():
    rnd = random.Random(77)
    bad = 0
    r_choices = [None, Fraction(1), Fraction(2), Fraction(7, 2)]
    for trial in range(1000):
        r = r_choices[trial % len(r_choices)]
        params = M.ModelParams(q=2, i=1, k2=Fraction(1, 2), k1=Fraction(2, 3), r=r)
        bits2, bits1 = rnd.getrandbits(4), rnd.getrandbits(12)
        if trial % 2 == 0:
            cell = rnd.randrange(12)
            cond = one_point_conditional(params, BOX22, bits2, bits1, 0, cell)
            p = params.p1
            base = H.rel_betti(H.RelPair(PercSubcomplex(BOX22, 2, bits2),
                                         PercSubcomplex(BOX22, 1, bits1 & ~(1 << cell))), 1, 2)
            grown = H.rel_betti(H.RelPair(PercSubcomplex(BOX22, 2, bits2),
                                          PercSubcomplex(BOX22, 1, bits1 | (1 << cell))), 1, 2)
        else:
            cell = rnd.randrange(4)
            cond = one_point_conditional(params, BOX22, bits2, bits1, 1, cell)
            p = params.p2
            base = H.rel_betti(H.RelPair(PercSubcomplex(BOX22, 2, bits2 & ~(1 << cell)),
                                         PercSubcomplex(BOX22, 1, bits1)), 1, 2)
            grown = H.rel_betti(H.RelPair(PercSubcomplex(BOX22, 2, bits2 | (1 << cell)),
                                          PercSubcomplex(BOX22, 1, bits1)), 1, 2)
        increment = grown - base
        expected = p if increment == 0 else p / (params.r * (1 - p) + p)
        if increment not in (0, -1) or cond != expected:
            bad += 1
    report(6, "one-point conditionals and betti increments", bad == 0,
           f"{bad} mismatches in 10^3 cases (r in {{q,1,2,7/2}})")


def test_criterion_07_special_case_marginals():
    failures = []
    for X, label in ((SQUARE, "square"), (BOX22, "box")):
        for q in (2, 3):
            p = M.ModelParams(q=q, i=1, k2=Fraction(3, 2), k1=0)
            if M.enumerate_rho(p, X).marginal(lambda k: k[0]).max_discrepancy(
                    prcm_dist(X, 2, q, p.p2)) != 0:
                failures.append(f"k1=0 {label} q={q}")
            p = M.ModelParams(q=q, i=1, k2=0, k1=Fraction(2, 3))
            pv = p.p1
            pstar = pv / (q - pv * q + pv)
            if M.enumerate_rho(p, X).marginal(lambda k: k[1]).max_discrepancy(
                    bernoulli_bits_dist(X.num_cells(1), pstar)) != 0:
                failures.append(f"p2=0 {label} q={q}")
        p = M.ModelParams.from_p(2, 1, Fraction(2, 5), 1)
        if M.enumerate_rho(p, X).marginal(lambda k: k[0]).max_discrepancy(
                bernoulli_bits_dist(X.num_cells(2), Fraction(2, 5))) != 0:
            failures.append(f"p1=1 {label}")
    report(7, "limiting special cases of the pair measure", not failures,
           f"failures: {failures or 'none'}")


def test_criterion_08_perimeter_law_sandwich():
    d, i = 2, 1
    grid = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    violations = []
    for q in (2, 3):
        loops = [boundary_chain(BOX22, BOX22.cells(2)[0], q), outer_loop(BOX22, q)]
        for p2 in grid:
            for p1 in grid:
                params = M.ModelParams.from_p(q, i, p2, p1)
                for gamma in loops:
                    n = perimeter(gamma)
                    res = M.exact_wilson(params, BOX22, gamma)
                    value = res.lhs_exact
                    lower = (p1 / q) ** n
                    base = 1 - (1 - p2) ** (2 * (d - i)) * (1 - p1)
                    assert n % (2 * (i + 1)) == 0
                    upper = base ** (n // (2 * (i + 1)))
                    if not lower <= value <= upper:
                        violations.append((q, p2, p1, n))
    report(8, "perimeter-law sandwich with stated constants", not violations,
           f"violations: {violations or 'none'} over 2x9 grid x2 loops")


def test_criterion_09_griffiths_and_monotonicity():
    rnd = random.Random(555)
    bad = 0

    def exact_w(params, X, gamma):
        sums = M.wilson_class_sums(params, X, gamma)
        return M.wilson_expectation_exact(sums, params.q)

    cases = [(SQUARE, 2, 600), (SQUARE, 3, 200), (BOX22, 2, 200)]
    for X, q, count in cases:
        params = M.ModelParams(q=q, i=1, k2=1, k1=2)
        n1 = X.num_cells(1)
        for _ in range(count):
            g1 = Chain.build(1, q, {rnd.randrange(n1): 1 + rnd.randrange(q - 1)
                                    for _ in range(rnd.randint(1, 3))})
            g2 = Chain.build(1, q, {rnd.randrange(n1): 1 + rnd.randrange(q - 1)
                                    for _ in range(rnd.randint(1, 3))})
            lhs = exact_w(params, X, g1 + g2)
            rhs = exact_w(params, X, g1) * exact_w(params, X, g2)
            if lhs < rhs:
                bad += 1

    ks = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
    mono_bad = 0
    for q, X in ((2, BOX22), (3, SQUARE)):
        gamma = boundary_chain(X, X.cells(2)[0], q)
        table = [[exact_w(M.ModelParams(q=q, i=1, k2=k2, k1=k1), X, gamma)
                  for k1 in ks] for k2 in ks]
        for a in range(5):
            for b in range(4):
                if table[a][b + 1] < table[a][b] or table[b + 1][a] < table[b][a]:
                    mono_bad += 1
    ok = bad == 0 and mono_bad == 0
    report(9, "correlation inequality and monotonicity in coupling strength", ok,
           f"{bad} Griffiths violations in 10^3 pairs, {mono_bad} on 5x5 grids")


def test_criterion_10_isoperimetric_area_bound():
    rnd = random.Random(31337)
    checked = 0
    violations = 0
    ambients = [(2, build_box(2, [3, 3])), (3, build_box(3, [2, 2, 1])),
                (3, build_box(3, [2, 2, 2]))]
    while checked < 200:
        d, X = ambients[checked % len(ambients)]
        n2 = X.num_cells(2)
        tau = rnd.sample(range(n2), rnd.randint(1, 3))
        gamma = Chain.build(1, 2, {})
        for s in tau:
            gamma = gamma + boundary_chain(X, X.cells(2)[s], 2)
        if not gamma.coeffs:
            continue
        area = H.min_area(gamma, X, 2)
        if area is None or area > Fraction(d - 1, 8 * d) * perimeter(gamma) ** 2:
            violations += 1
        checked += 1
    squares_ok = True
    box33 = build_box(2, [3, 3])
    for n in (1, 2, 3):
        loop_edges = []
        from cpp_lab.complexes import Cell
        for x in range(n):
            loop_edges.append((box33.cell_id(Cell((x, 0), (0,))), 1))
            loop_edges.append((box33.cell_id(Cell((x, n), (0,))), -1))
        for y in range(n):
            loop_edges.append((box33.cell_id(Cell((n, y), (1,))), 1))
            loop_edges.append((box33.cell_id(Cell((0, y), (1,))), -1))
        gamma = Chain.build(1, 2, loop_edges)
        if H.min_area(gamma, box33, 2) != n * n:
            squares_ok = False
    ok = violations == 0 and squares_ok
    report(10, "isoperimetric area bound", ok,
           f"{violations} violations in 200 cycles; n x n squares exact: {squares_ok}")


def test_criterion_11_sampler_chi_square_and_determinism():
    params = M.ModelParams(q=2, i=1, k2=1, k1=1)
    rho = M.enumerate_rho(params, SQUARE)
    cfg = S.RunConfig(q=2, i=1, p2=0.5, p1=0.5, n_samples=100_000,
                      burn_in=500, seed=90210)

    def state_key(f, P2, P1):
        return float((P2.bits << 4) | P1.bits)

    run1 = S.run_chain(SQUARE, cfg, {"state": state_key}, keep_series=True)
    run2 = S.run_chain(SQUARE, cfg, {"state": state_key}, keep_series=True)
    deterministic = all(np.array_equal(a, b) for a, b in
                        zip(run1.series["state"], run2.series["state"]))

    series = run1.series["state"][0].astype(np.int64)
    counts = np.bincount(series, minlength=1 << 5)
    n = len(series)
    expected = np.array([float(rho.prob((k >> 4, k & 15))) * n for k in range(1 << 5)])
    assert expected.min() > 5
    chisq = float(((counts - expected) ** 2 / expected).sum())
    pvalue = float(stats.chi2.sf(chisq, (1 << 5) - 1))
    ok = deterministic and pvalue > 1e-3
    report(11, "sampler distribution fit and determinism", ok,
           f"chi2 p-value {pvalue:.4f} at 10^5 samples, bit-identical: {deterministic}")


def test_criterion_12_finite_size_ratio_scan(tmp_path):
    # the asymptotic phase statements are not desk-verifiable; this runs the
    # substitute finite-n protocol: a side-12 scan with error bars plus
    # exact positivity and monotonicity checks on small instances.
    X = build_box(3, [12, 12, 12])
    cfg = S.RunConfig(q=2, i=1, p2=0.5, p1=0.9, n_samples=400, burn_in=100,
                      seed=424242)
    rows = S.mf_ratio_scan(X, cfg, [2, 4, 6])
    csv_path = tmp_path / "mf-scan.csv"
    write_mf_csv(csv_path, rows)
    scan_ok = (len(rows) == 3
               and all(math.isfinite(r["estimate"]) for r in rows)
               and all(math.isfinite(r["std_err"]) and r["std_err"] > 0 for r in rows)
               and csv_path.read_text().startswith("n,p2,p1,q,estimate,std_err"))

    # exact finite-n ratio is positive on a tiny instance
    params = M.ModelParams(q=2, i=1, k2=1, k1=1)
    fam = rect_loop(2, 2, BOX22, 2)
    full = M.exact_wilson(params, BOX22, fam.gamma).rhs
    half = M.exact_wilson(params, BOX22, fam.gamma_prime).rhs
    ratio = half * half / full
    positive_ok = ratio > 0

    # estimated Wilson expectations are monotone in p2 and p1 within 4 se
    X44 = build_box(2, [4, 4])
    gamma = rect_loop(2, 2, X44, 2).gamma
    obs = {"w": wilson_observable(gamma, 2)}

    def estimate(p2, p1, seed):
        cfg = S.RunConfig(q=2, i=1, p2=p2, p1=p1, n_samples=6000,
                          burn_in=300, seed=seed)
        return S.run_chain(X44, cfg, obs).estimates["w"]

    lo_p2, hi_p2 = estimate(0.3, 0.5, 1), estimate(0.7, 0.5, 2)
    lo_p1, hi_p1 = estimate(0.5, 0.3, 3), estimate(0.5, 0.7, 4)
    mono_ok = (hi_p2.mean >= lo_p2.mean - 4 * math.hypot(hi_p2.std_err, lo_p2.std_err)
               and hi_p1.mean >= lo_p1.mean - 4 * math.hypot(hi_p1.std_err, lo_p1.std_err))

    ok = scan_ok and positive_ok and mono_ok
    report(12, "finite-size ratio scan substitute", ok,
           f"scan rows 3 (R at n=2: {rows[0]['estimate']:.3f}"
           f"+-{rows[0]['std_err']:.3f}), exact ratio {float(ratio):.4f} > 0, "
           f"monotone within error bars: {mono_ok}")
