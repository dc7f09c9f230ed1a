"""Sampler correctness against exact oracles, determinism, gauge variant."""
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from cpp_lab import gfq, homology
from cpp_lab import measures as M
from cpp_lab import sampler as S
from cpp_lab.complexes import PercSubcomplex, boundary_chain, build_box, build_torus
from cpp_lab.errors import ValidationError
from cpp_lab.homology import RelPair, v_gamma
from cpp_lab.observables import (open_count_observable, rect_loop, vgamma_observable,
                                 wilson_observable)
from dense_reference import cocycle_basis
from helpers import kappa_gauge_weight, sample_general_gauge

SQUARE = build_box(2, [1, 1])


def test_run_config_validation():
    with pytest.raises(ValidationError):
        S.RunConfig(q=2, i=1, p2=1.5, p1=0.5, n_samples=10)
    with pytest.raises(ValidationError):
        S.RunConfig(q=2, i=1, p2=0.5, p1=0.5, n_samples=0)
    with pytest.raises(Exception):
        S.RunConfig(q=4, i=1, p2=0.5, p1=0.5, n_samples=10)


def test_resample_percolation_trivial_cases():
    rng = S.chain_rng(0)
    f0 = np.zeros(4, dtype=np.int64)
    cfg = S.RunConfig(q=2, i=1, p2=1.0, p1=1.0, n_samples=1)
    P2, P1 = S.resample_percolation(f0, cfg, SQUARE, rng)
    assert P2.count == SQUARE.num_cells(2) and P1.count == SQUARE.num_cells(1)
    cfg0 = S.RunConfig(q=2, i=1, p2=0.0, p1=0.0, n_samples=1)
    P2, P1 = S.resample_percolation(f0, cfg0, SQUARE, rng)
    assert P2.count == 0 and P1.count == 0
    f = np.array([1, 0, 0, 0])
    for _ in range(20):
        _, P1 = S.resample_percolation(f, cfg, SQUARE, rng)
        assert not P1.has(0)


@pytest.mark.parametrize("q", [2, 3])
def test_resample_spins_respects_constraints(q):
    rnd = random.Random(61)
    rng = S.chain_rng(7)
    p = M.ModelParams(q=q, i=1, k2=1, k1=1)
    for _ in range(30):
        P2 = PercSubcomplex(SQUARE, 2, rnd.getrandbits(1))
        P1 = PercSubcomplex(SQUARE, 1, rnd.getrandbits(4))
        f = S.resample_spins(P2, P1, q, rng)
        assert M.kappa_weight(f, P2, P1, p, SQUARE) > 0


def test_resample_spins_full_pair_is_zero():
    rng = S.chain_rng(1)
    f = S.resample_spins(PercSubcomplex.full(SQUARE, 2),
                         PercSubcomplex.full(SQUARE, 1), 2, rng)
    assert not f.any()


@pytest.mark.parametrize("q", [2, 3])
def test_resample_spins_uniform_on_unconstrained_square(q):
    rng = S.chain_rng(2)
    empty2 = PercSubcomplex.empty(SQUARE, 2)
    empty1 = PercSubcomplex.empty(SQUARE, 1)
    n = 4000
    counts = {}
    for _ in range(n):
        f = tuple(S.resample_spins(empty2, empty1, q, rng))
        counts[f] = counts.get(f, 0) + 1
    nstates = q ** 4
    assert len(counts) == nstates
    chisq = sum((c - n / nstates) ** 2 / (n / nstates) for c in counts.values())
    assert stats.chi2.sf(chisq, nstates - 1) > 1e-4


def test_resample_spins_uniform_on_face_constrained_square():
    # P2 = {face}, P1 = empty: kernel dim 3, eight compatible cochains
    rng = S.chain_rng(3)
    P2 = PercSubcomplex.full(SQUARE, 2)
    P1 = PercSubcomplex.empty(SQUARE, 1)
    assert len(cocycle_basis(RelPair(P2, P1), 2)) == 3
    n = 4000
    counts = {}
    for _ in range(n):
        f = tuple(S.resample_spins(P2, P1, 2, rng))
        counts[f] = counts.get(f, 0) + 1
    assert len(counts) == 8
    chisq = sum((c - n / 8) ** 2 / (n / 8) for c in counts.values())
    assert stats.chi2.sf(chisq, 7) > 1e-4


def test_zero_sweeps_leave_state_unchanged():
    cfg = S.RunConfig(q=2, i=1, p2=0.5, p1=0.5, n_samples=1)
    state = S.init_state(SQUARE, cfg)
    assert state.step == 0 and not state.f.any()
    assert state.P2.count == 0 and state.P1.count == 0


def test_sweep_preserves_compatibility():
    cfg = S.RunConfig(q=3, i=1, p2=0.6, p1=0.4, n_samples=1, seed=8)
    p = M.ModelParams(q=3, i=1, k2=1, k1=1)
    state = S.init_state(SQUARE, cfg)
    for _ in range(50):
        state = S.sweep(state, cfg, SQUARE)
        assert M.kappa_weight(state.f, state.P2, state.P1, p, SQUARE) > 0


def test_chain_estimates_match_exact_oracle():
    p2, p1 = 0.5, 0.5
    params = M.ModelParams.from_p(2, 1, Fraction(1, 2), Fraction(1, 2))
    rho = M.enumerate_rho(params, SQUARE)
    gamma = boundary_chain(SQUARE, SQUARE.cells(2)[0], 2)
    exact_v = M.exact_wilson(params, SQUARE, gamma).rhs
    cfg = S.RunConfig(q=2, i=1, p2=p2, p1=p1, n_samples=20_000, burn_in=300, seed=11)
    res = S.run_chain(SQUARE, cfg, {
        "open2": open_count_observable("P2"),
        "w": wilson_observable(gamma, 2),
        "v": vgamma_observable(gamma, 2),
    })
    exact_open2 = float(rho.expectation(lambda k: k[0].bit_count()))
    e = res.estimates["open2"]
    assert abs(e.mean - exact_open2) <= 4 * e.std_err
    for name in ("w", "v"):
        e = res.estimates[name]
        assert abs(e.mean - float(exact_v)) <= 4 * e.std_err
    # the two estimators agree within combined error bars
    w, v = res.estimates["w"], res.estimates["v"]
    assert abs(w.mean - v.mean) <= 4 * math.hypot(w.std_err, v.std_err)


def test_wilson_observable_at_q5_has_the_exact_mean_and_less_variance():
    """W~ is a conditional expectation of cos(2 pi f(gamma) / q): in one chain
    it has the exact mean and a smaller sample variance than the cosine."""
    q = 5
    params = M.ModelParams.from_p(q, 1, Fraction(1, 2), Fraction(1, 2))
    gamma = boundary_chain(SQUARE, SQUARE.cells(2)[0], q)
    exact = M.exact_wilson(params, SQUARE, gamma).lhs_exact
    cfg = S.RunConfig(q=q, i=1, p2=0.5, p1=0.5, n_samples=20_000, burn_in=200, seed=23)
    res = S.run_chain(SQUARE, cfg, {
        "w": wilson_observable(gamma, q),
        "cos": lambda f, P2, P1: math.cos(2 * math.pi * gamma.evaluate(f) / q),
    }, keep_series=True)
    w = res.estimates["w"]
    assert abs(w.mean - float(exact)) <= 4 * w.std_err
    assert res.series["w"][0].var(ddof=1) < res.series["cos"][0].var(ddof=1)


def test_seed_determinism_is_bitwise():
    cfg = S.RunConfig(q=2, i=1, p2=0.4, p1=0.6, n_samples=500, burn_in=50,
                      seed=123, n_chains=2)
    obs = {"open2": open_count_observable("P2")}
    r1 = S.run_chain(SQUARE, cfg, obs, keep_series=True)
    r2 = S.run_chain(SQUARE, cfg, obs, keep_series=True)
    for a, b in zip(r1.series["open2"], r2.series["open2"]):
        assert np.array_equal(a, b)
    assert r1.series_csv_rows() == r2.series_csv_rows()


# sha256 of f after each of 20 sweeps on a side^3 box or a period-side
# 3-torus at (p2, p1) = (0.9, 0.1), i = 1, seed 41: the seeded stream, which
# a faster solver must keep.  Each route of `cocycle_system` pins its own
# stream: the 6^3 and 4^3 boxes lie below the gauge cut-off (elimination),
# the 12^3 box and the period-11 torus (3993 edges) above it (gauge path),
# the torus with its wrapped edges
STREAM_DIGESTS = {
    (2, "box", 6): "4b7dc625bcbe9a7743eadd1bc589978648c8aa8e8a9cf6c5847bdec3ba6d9704",
    (3, "box", 6): "9f2fab87d421a8e07ed39a2bb6655213c6ebae82dbfe5e96a90aaad9263bd07b",
    (5, "box", 4): "1daf90c2d5b81eab0e6f3bef3531249f35708ac5dc270336e78538448679ef18",
    (2, "box", 12): "cf3e5eea99ddccd6b92052e8338fea482240d802c136a352178cc6a79bdc412f",
    (3, "box", 12): "d7dd05f0c7c9d6250c87c0b83f62d10ae223c6831d3fdc632997bb8052cffb20",
    (2, "torus", 11): "1349ef2c905f556e1b1ffbed5e14e4942b31dc6abe9265a8843e766a3cfd7662",
    (3, "torus", 11): "f720f0ffd187cdcd46dba2bdb7978facb635a9c3eefaf66b42b275981439b413",
}


@pytest.mark.parametrize("q,kind,side", sorted(STREAM_DIGESTS),
                         ids=[f"{q}-{side}" if kind == "box" else f"{q}-{kind}{side}"
                              for q, kind, side in sorted(STREAM_DIGESTS)])
def test_seeded_sweeps_keep_their_stream(q, kind, side):
    X = build_box(3, [side] * 3) if kind == "box" else build_torus(3, side)
    cfg = S.RunConfig(q=q, i=1, p2=0.9, p1=0.1, n_samples=20, seed=41)
    state = S.init_state(X, cfg)
    digest = hashlib.sha256()
    for _ in range(20):
        state = S.sweep(state, cfg, X)
        assert (X.cache["cocycle_system"][1].gauge is not None) == (side > 10)
        digest.update(np.asarray(state.f, dtype=np.int64).tobytes())
    assert digest.hexdigest() == STREAM_DIGESTS[q, kind, side]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("X", [build_box(2, [2, 2]), build_box(3, [2, 2, 1]), build_torus(3, 2)],
                         ids=["box2x2", "box2x2x1", "torus3p2"])
def test_gauge_draw_is_uniform_on_the_cocycles(X, q):
    """Chi-square of the gauge-path draw over the q^dim elements of
    Z^1(P2, P1), for the first two seeded random pairs with 1 <= dim <= 8
    (q = 2) or 4 (q = 3): N = 40 q^dim draws per pair (at most 10 240), and
    the test fails when p < 1e-4."""
    rnd = random.Random(43)
    n2, n1 = X.num_cells(2), X.num_cells(1)
    systems = []
    while len(systems) < 2:
        p2, p1 = rnd.uniform(0.5, 1.0), rnd.uniform(0.2, 0.9)
        bits2 = sum(1 << s for s in range(n2) if rnd.random() < p2)
        bits1 = sum(1 << e for e in range(n1) if rnd.random() < p1)
        system = homology._gauge_system(X, q, bits2, bits1)
        if 1 <= system.dim <= (8 if q == 2 else 4):
            systems.append((system, bits2, bits1))
    rng = S.chain_rng(47)
    for system, bits2, bits1 in systems:
        states = q ** system.dim
        n = 40 * states
        counts = Counter(tuple(system.sample(rng)) for _ in range(n))
        assert len(counts) == states
        for f in counts:
            f = np.array(f)
            assert not f[gfq.bit_ids(bits1)].any()
            assert not M.delta_cochain(f, X, 1, q)[gfq.bit_ids(bits2)].any()
        chisq = sum((c - n / states) ** 2 / (n / states) for c in counts.values())
        assert stats.chi2.sf(chisq, states - 1) > 1e-4


def test_distinct_chains_get_distinct_streams():
    cfg = S.RunConfig(q=2, i=1, p2=0.5, p1=0.5, n_samples=200, burn_in=10,
                      seed=5, n_chains=2)
    res = S.run_chain(SQUARE, cfg, {"open2": open_count_observable("P2")},
                      keep_series=True)
    a, b = res.series["open2"]
    assert not np.array_equal(a, b)


def test_stochastic_domination_bounds_on_open_fractions():
    q, p2, p1 = 2, 0.5, 0.4
    cfg = S.RunConfig(q=q, i=1, p2=p2, p1=p1, n_samples=20_000, burn_in=300, seed=17)
    res = S.run_chain(SQUARE, cfg, {
        "open2": open_count_observable("P2"),
        "open1": open_count_observable("P1"),
    })
    for name, p, n in (("open2", p2, 1), ("open1", p1, 4)):
        est = res.estimates[name]
        lower = p / (q * (1 - p) + p) * n
        upper = p * n
        assert lower - 4 * est.std_err <= est.mean <= upper + 4 * est.std_err


def test_general_gauge_full_pair_forces_f_equal_dg():
    X = build_box(2, [2, 2])
    rng = S.chain_rng(19)
    P2 = PercSubcomplex.full(X, 2)
    P1 = PercSubcomplex.full(X, 1)
    for q in (2, 3):
        f, g = sample_general_gauge(P2, P1, q, rng)
        dg = M.delta_cochain(g, X, 0, q)
        assert np.array_equal(f, dg % q)


def test_general_gauge_weight_is_gauge_invariant():
    X = SQUARE
    q = 3
    p = M.ModelParams(q=q, i=1, k2=1, k1=2)
    rng = S.chain_rng(23)
    rnd = random.Random(23)
    for _ in range(20):
        P2 = PercSubcomplex(X, 2, rnd.getrandbits(1))
        P1 = PercSubcomplex(X, 1, rnd.getrandbits(4))
        f, g = sample_general_gauge(P2, P1, q, rng)
        h = rng.integers(0, q, size=X.num_cells(0))
        f2 = (f + M.delta_cochain(h, X, 0, q)) % q
        g2 = (g + h) % q
        w1 = kappa_gauge_weight(f, g, P2, P1, p, X)
        w2 = kappa_gauge_weight(f2, g2, P2, P1, p, X)
        assert w1 == w2 > 0


def test_general_gauge_f_minus_dg_matches_cocycle_draw():
    # f - dg should be a uniform relative cocycle; compare histograms
    rng = S.chain_rng(29)
    P2 = PercSubcomplex.full(SQUARE, 2)
    P1 = PercSubcomplex.empty(SQUARE, 1)
    n = 4000
    counts = {}
    for _ in range(n):
        f, g = sample_general_gauge(P2, P1, 2, rng)
        h = (f - M.delta_cochain(g, SQUARE, 0, 2)) % 2
        counts[tuple(h)] = counts.get(tuple(h), 0) + 1
    assert len(counts) == 8
    chisq = sum((c - n / 8) ** 2 / (n / 8) for c in counts.values())
    assert stats.chi2.sf(chisq, 7) > 1e-4


def test_mf_scan_runs_and_reports_error_bars():
    X = build_box(3, [6, 6, 1])
    cfg = S.RunConfig(q=2, i=1, p2=0.5, p1=0.8, n_samples=400, burn_in=100, seed=31)
    rows = S.mf_ratio_scan(X, cfg, [2, 4])
    assert [r["n"] for r in rows] == [2, 4]
    for r in rows:
        assert math.isfinite(r["estimate"]) and math.isfinite(r["std_err"])
        assert r["std_err"] >= 0


@pytest.mark.parametrize("q,solver,side", [
    pytest.param(2, "gf2_ref_bits", 3, id="2-gf2_ref_bits"),
    pytest.param(3, "gf3_ref_bits", 3, id="3-gf3_ref_bits"),
    pytest.param(5, "rref", 3, id="5-rref"),
    pytest.param(2, "gf2_ref_bits", 12, id="2-gf2_ref_bits-12"),
    pytest.param(3, "gf3_ref_bits", 12, id="3-gf3_ref_bits-12")])
def test_observables_share_the_sweeps_elimination(monkeypatch, q, solver, side):
    # 12^3 is past the gauge cut-off: the residual system is eliminated once
    X = build_box(3, [side] * 3)
    fam = rect_loop(2, 3, X, q)
    original = getattr(gfq, solver)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gfq, solver, counted)
    cfg = S.RunConfig(q=q, i=1, p2=0.5, p1=0.5, n_samples=12, burn_in=3, seed=37)
    S.run_chain(X, cfg, {
        "w": wilson_observable(fam.gamma, q),
        "v": vgamma_observable(fam.gamma, q),
        "v_half": vgamma_observable(fam.gamma_prime, q),
        "w_half": wilson_observable(fam.gamma_prime, q),
    })
    assert len(calls) == cfg.burn_in + cfg.n_samples


@pytest.mark.parametrize("q", [2, 3])
def test_vgamma_observable_matches_a_fresh_v_gamma(q):
    X = build_box(3, [3, 3, 3])
    fam = rect_loop(2, 3, X, q)
    checked = []

    def observable(gamma):
        kept = vgamma_observable(gamma, q)

        def obs(f, P2, P1):
            value = kept(f, P2, P1)
            X.cache.pop("cocycle_system")
            checked.append((value, float(v_gamma(RelPair(P2, P1), gamma, q))))
            return value
        return obs

    cfg = S.RunConfig(q=q, i=1, p2=0.6, p1=0.7, n_samples=30, burn_in=2, seed=41)
    S.run_chain(X, cfg, {"full": observable(fam.gamma), "half": observable(fam.gamma_prime)})
    assert len(checked) == 60
    assert all(kept == fresh for kept, fresh in checked)
    assert {kept for kept, _ in checked} == {0.0, 1.0}
