"""Torus duality: parameter map, state map, and verification suites.

On the discrete torus the pair measure with parameters (k2, k1) in
dimension i pushes forward, under (P2, P1) -> (P1 dual, P2 dual), to the
pair measure with parameters (q/k1, q/k2) in dimension d - i - 1.  The
half-shifted dual lattice is identified back with the torus by one fixed
translation; the identity is translation-invariant, so the choice does
not affect any of the checks below.
"""
from __future__ import annotations

from fractions import Fraction

from . import measures
from .complexes import PercSubcomplex, dual_subcomplex
from .errors import DegenerateParameter, NotATorus
from .measures import ModelParams
from .observables import open_count_observable
from .sampler import RunConfig, run_chain


def dual_params(params: ModelParams, d: int) -> ModelParams:
    """k2' = q/k1, k1' = q/k2, acting in dimension d - i - 1."""
    q = params.q
    if params.k2 == 0 or params.k1 == 0:
        raise DegenerateParameter("duals of p = 0 parameters are not finite")
    i_dual = d - params.i - 1
    if i_dual < 0:
        raise DegenerateParameter(f"dual dimension d - i - 1 = {i_dual} < 0")
    return ModelParams(q, i_dual,
                       k2=0 if params.k1 is None else Fraction(q) / params.k1,
                       k1=0 if params.k2 is None else Fraction(q) / params.k2)


def dual_state(P2: PercSubcomplex, P1: PercSubcomplex
               ) -> tuple[PercSubcomplex, PercSubcomplex]:
    """(P2, P1) -> (P1 dual, P2 dual); a bijection on pair states."""
    return dual_subcomplex(P1), dual_subcomplex(P2)


def verify_duality_exact(params: ModelParams, torus,
                         max_states: int = measures.DEFAULT_STATE_GUARD) -> Fraction:
    """Max |rho(P2,P1) - rho_dual(P1 dual, P2 dual)| over all states; expect 0."""
    if torus.kind != "torus":
        raise NotATorus("exact duality check needs a torus")
    i = params.i
    rho = measures.enumerate_rho(params, torus, max_states)
    dual = dual_params(params, torus.d)
    rho_dual = measures.enumerate_rho(dual, torus, max_states)

    def mapped(key):
        bits2, bits1 = key
        Q2, Q1 = dual_state(PercSubcomplex(torus, i + 1, bits2),
                            PercSubcomplex(torus, i, bits1))
        return (Q2.bits, Q1.bits)

    return rho.max_discrepancy(rho_dual, key_map=mapped)


def duality_report(params: ModelParams, torus,
                   max_states: int = measures.DEFAULT_STATE_GUARD) -> dict:
    """JSON-ready report for the CLI."""
    dual = dual_params(params, torus.d)
    disc = verify_duality_exact(params, torus, max_states)
    n1 = torus.num_cells(params.i)
    n2 = torus.num_cells(params.i + 1)
    return {
        "params": {
            "q": params.q, "i": params.i,
            "p2": str(params.p2), "p1": str(params.p1),
        },
        "dual_params": {
            "q": dual.q, "i": dual.i,
            "p2": str(dual.p2), "p1": str(dual.p1),
        },
        "max_discrepancy": str(disc),
        "states_checked": 1 << (n1 + n2),
    }


def verify_duality_mc(params: ModelParams, torus, n_samples: int,
                      burn_in: int = 200, seed: int = 0) -> dict:
    """Statistical duality check via mean open-cell counts.

    Under the duality map |P1 dual| = n_i - |P1| and |P2 dual| counts the
    closed (i+1)-cells, so the primal means determine the dual means; both
    identities are checked within 4 combined standard errors.
    """
    if torus.kind != "torus":
        raise NotATorus("duality check needs a torus")
    i = params.i
    dp = dual_params(params, torus.d)
    obs = {"open2": open_count_observable("P2"), "open1": open_count_observable("P1")}

    cfg = RunConfig(q=params.q, i=i, p2=float(params.p2), p1=float(params.p1),
                    n_samples=n_samples, burn_in=burn_in, seed=seed)
    cfg_dual = RunConfig(q=dp.q, i=dp.i, p2=float(dp.p2), p1=float(dp.p1),
                         n_samples=n_samples, burn_in=burn_in, seed=seed + 1)
    res = run_chain(torus, cfg, obs)
    res_dual = run_chain(torus, cfg_dual, obs)

    n_i, n_ip1 = torus.num_cells(i), torus.num_cells(i + 1)
    checks = []
    # Q2 is the dual of P1 and Q1 that of P2, so E_dual[|Q2|] = n_i - E[|P1|]
    # and E_dual[|Q1|] = n_(i+1) - E[|P2|]
    for name, dual_key, key, n in (("dual_open2_vs_closed1", "open2", "open1", n_i),
                                   ("dual_open1_vs_closed2", "open1", "open2", n_ip1)):
        lhs, primal = res_dual.estimates[dual_key], res.estimates[key]
        rhs_mean = n - primal.mean
        se = (lhs.std_err ** 2 + primal.std_err ** 2) ** 0.5
        checks.append({"name": name, "lhs": lhs.mean, "rhs": rhs_mean,
                       "combined_se": se, "z": abs(lhs.mean - rhs_mean) / se if se else 0.0})
    return {
        "checks": checks,
        "max_z": max(c["z"] for c in checks),
        "n_samples": n_samples,
        "params": {"q": params.q, "i": i, "p2": float(params.p2), "p1": float(params.p1)},
        "dual_params": {"q": dp.q, "i": dp.i, "p2": float(dp.p2), "p1": float(dp.p1)},
    }
