"""Command-line front end.

Every command resolves its configuration (flags over a JSON config file
over the flag defaults), runs, writes its artifacts plus a run-manifest
JSON, and exits 0 on success, 2 on validation errors, 3 when an exact
computation exceeds its size guard or search budget.  Randomized commands
take an explicit --seed or record the generated one in the manifest;
re-running a command with the manifest's config reproduces byte-identical
CSV output.
"""
from __future__ import annotations

import argparse
import csv
import json
import secrets
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, duality, gfq, homology, measures, observables, sampler
from .complexes import (Chain, build_box, build_torus, complex_to_json)
from .errors import BudgetExceeded, CppLabError, TooLarge, ValidationError

MODEL_KEYS = ("q", "i", "d", "geometry", "widths", "side",
              "k2", "k1", "p2", "p1", "r")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, help="prime modulus")
    p.add_argument("--i", type=int, help="spin dimension (default 1)")
    p.add_argument("--d", type=int, help="ambient dimension")
    p.add_argument("--geometry", choices=["box", "torus"], help="default box")
    p.add_argument("--widths", help="comma-separated box widths, e.g. 2,2")
    p.add_argument("--side", type=int, help="torus period (or box side shortcut)")
    p.add_argument("--k2", help="k2 = e^beta2 - 1, exact rational like 1 or 3/2")
    p.add_argument("--k1", help="k1 = e^beta1 - 1, exact rational")
    p.add_argument("--p2", help="plaquette probability (alternative to k2)")
    p.add_argument("--p1", help="cell probability (alternative to k1)")
    p.add_argument("--r", help="auxiliary cohomology weight base (default q)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--seed", type=int, help="RNG seed (generated and recorded if absent)")
    p.add_argument("--output-dir", help="artifact directory (default .)")
    p.add_argument("--tag", help="artifact base name (default: task name)")
    p.add_argument("--max-states", type=int, help="exact enumeration guard (default 2^26)")


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int)
    p.add_argument("--burn-in", type=int)
    p.add_argument("--thinning", type=int)
    p.add_argument("--chains", type=int)


def _read_json(path: str, flag: str):
    if not isinstance(path, str):
        raise ValidationError(f"{flag} needs a file name, got {path!r}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {flag} {path!r}: {exc}") from None


_NOT_CONFIG = ("config", "func", "flag_types")
# applied after the config file, so that only a flag actually given
# overrides a config value
_FLAG_DEFAULTS = {"output_dir": ".", "max_states": measures.DEFAULT_STATE_GUARD,
                  "target": "rho", "exact": False, "mc": False, "quick": False}


def _merge_config(args: argparse.Namespace) -> dict:
    """Config file values, converted by the type of the matching flag,
    overridden by the flags given; a flag's default fills in a value that
    neither gives."""
    cfg: dict = {}
    if getattr(args, "config", None):
        loaded = _read_json(args.config, "--config")
        if isinstance(loaded, dict):
            loaded = loaded.get("config", loaded)
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        known = set(vars(args)) - set(_NOT_CONFIG)
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise ValidationError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
        for key, value in loaded.items():
            convert = args.flag_types.get(key)
            if convert is not None:
                try:
                    value = convert(str(value))
                except ValueError:
                    raise ValidationError(f"config key {key!r} needs a value of type "
                                          f"{convert.__name__}, got {value!r}") from None
            cfg[key] = value
    for key, value in vars(args).items():
        if key in _NOT_CONFIG or value is None:
            continue
        cfg[key] = value
    for key, value in _FLAG_DEFAULTS.items():
        if key in vars(args):
            cfg.setdefault(key, value)
    return cfg


def _int_list(value, flag: str) -> list[int]:
    """A comma-separated string (from a flag) or a list (from a config
    file) of integers."""
    items = value.split(",") if isinstance(value, str) else value
    try:
        return [int(v) for v in items]
    except (TypeError, ValueError):
        raise ValidationError(f"{flag} needs comma-separated integers, got {value!r}") from None


def _build_complex(cfg: dict):
    d = cfg.get("d")
    if d is None:
        raise ValidationError("missing --d")
    geometry = cfg.get("geometry", "box")
    if geometry not in ("box", "torus"):
        raise ValidationError(f"'geometry' must be 'box' or 'torus', got {geometry!r}")
    if geometry == "torus":
        side = cfg.get("side")
        if side is None:
            raise ValidationError("torus geometry needs --side")
        if side == 1:
            print("warning: period-1 torus has self-glued cells", file=sys.stderr)
        return build_torus(d, side)
    widths = cfg.get("widths")
    if widths is None and cfg.get("side") is not None:
        widths = [cfg["side"]] * d
    if widths is None:
        raise ValidationError("box geometry needs --widths or --side")
    return build_box(d, _int_list(widths, "--widths"))


def _fraction(cfg: dict, key: str) -> Fraction:
    try:
        return Fraction(str(cfg[key]))
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"--{key} needs an exact rational like 3/2, "
                              f"got {cfg[key]!r}") from None


def _build_params(cfg: dict) -> measures.ModelParams:
    q = cfg.get("q")
    if q is None:
        raise ValidationError("missing --q")
    i = cfg.get("i", 1)
    d = cfg["d"]
    if not isinstance(i, int) or not 0 <= i < d:
        raise ValidationError(f"--i must satisfy 0 <= i < d = {d}, got {i!r}")
    have_k = cfg.get("k2") is not None or cfg.get("k1") is not None
    have_p = cfg.get("p2") is not None or cfg.get("p1") is not None
    if have_k == have_p:
        raise ValidationError("give exactly one of the (k2,k1) or (p2,p1) pairs")
    r = _fraction(cfg, "r") if cfg.get("r") is not None else None
    if have_k:
        if cfg.get("k2") is None or cfg.get("k1") is None:
            raise ValidationError("both --k2 and --k1 are required")
        return measures.ModelParams(q=q, i=i, k2=_fraction(cfg, "k2"),
                                    k1=_fraction(cfg, "k1"), r=r)
    if cfg.get("p2") is None or cfg.get("p1") is None:
        raise ValidationError("both --p2 and --p1 are required")
    return measures.ModelParams.from_p(q, i, _fraction(cfg, "p2"), _fraction(cfg, "p1"), r=r)


def _resolve_seed(cfg: dict) -> int:
    seed = cfg.get("seed")
    if seed is None:
        seed = secrets.randbits(48)
        cfg["seed"] = seed
    if not isinstance(seed, int) or seed < 0:
        raise ValidationError(f"--seed must be a non-negative integer, got {seed!r}")
    return seed


def _run_config(cfg: dict, params: measures.ModelParams,
                default_samples: int) -> sampler.RunConfig:
    """Chain settings of a Monte Carlo command; resolves the seed."""
    return sampler.RunConfig(q=params.q, i=params.i,
                             p2=float(params.p2), p1=float(params.p1),
                             n_samples=cfg.get("samples", default_samples),
                             burn_in=cfg.get("burn_in", 10_000),
                             thinning=cfg.get("thinning", 1), seed=_resolve_seed(cfg),
                             n_chains=cfg.get("chains", 1))


def _manifest(task: str, cfg: dict, outputs: list[str], outdir: Path,
              started: float, extra: dict | None = None) -> Path:
    tag = cfg.get("tag", task)
    payload = {
        "task": task,
        "config": {k: v for k, v in cfg.items() if k != "func"},
        "seed": cfg.get("seed"),
        "versions": {"cpp_lab": __version__, "numpy": np.__version__},
        "elapsed_s": round(time.time() - started, 3),
        "outputs": outputs,
    }
    if extra:
        payload["result"] = extra
    path = outdir / f"{tag}-manifest.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def _load_gamma(cfg: dict, X, q: int, dim: int) -> Chain:
    """The chain of --gamma-file, checked to be a dim-chain of X, or the
    rectangular loop of --loop."""
    if cfg.get("gamma_file"):
        data = _read_json(cfg["gamma_file"], "--gamma-file")
        try:
            coeffs = {int(k): v for k, v in data["coeffs"].items()}
            ok = data["dim"] == dim and all(isinstance(v, int) for v in coeffs.values())
        except (TypeError, KeyError, AttributeError, ValueError):
            ok = False
        if not ok:
            raise ValidationError(
                f'--gamma-file must hold {{"dim": {dim}, "coeffs": {{"<id>": <int>}}}}')
        outside = sorted(k for k in coeffs if not 0 <= k < X.num_cells(dim))
        if outside:
            raise ValidationError(f"--gamma-file cell ids {outside} lie outside the complex")
        return Chain.build(dim, q, coeffs)
    n = cfg.get("loop")
    if n is None:
        raise ValidationError("give --loop N or --gamma-file")
    return _loop_gamma(n, X, q, dim, "--loop")


def _loop_gamma(n: int, X, q: int, dim: int, source: str) -> Chain:
    """The boundary of the n x n rectangle, which pairs only with spins on
    1-cells."""
    if dim != 1:
        raise ValidationError(f"{source} builds a 1-chain, but the spins live on {dim}-cells")
    return observables.rect_loop(n, X.d, X, q).gamma


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    started = time.time()
    cfg = _merge_config(args)
    X = _build_complex(cfg)
    params = _build_params(cfg)
    target = cfg["target"]
    guard = cfg["max_states"]
    if target == "mu":
        dist = measures.enumerate_mu(params, X, guard)
        key_str = lambda k: "".join(str(v) for v in k)
    elif target == "rho":
        dist = measures.enumerate_rho(params, X, guard)
        key_str = lambda k: f"{k[0]}:{k[1]}"
    elif target == "kappa":
        dist = measures.enumerate_kappa(params, X, guard)
        key_str = lambda k: "".join(str(v) for v in k[0]) + f":{k[1]}:{k[2]}"
    else:
        raise ValidationError(f"unknown target {target!r}")
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    tag = cfg.get("tag", f"enumerate-{target}")
    cfg["tag"] = tag
    csv_path = outdir / f"{tag}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "weight_num", "weight_den"])
        writer.writerows(dist.csv_rows(key_str))
    json_path = outdir / f"{tag}.json"
    with open(json_path, "w") as fh:
        json.dump({"complex": complex_to_json(X), "dist": dist.to_json(key_str)},
                  fh, sort_keys=True)
        fh.write("\n")
    _manifest("enumerate", cfg, [str(csv_path), str(json_path)], outdir, started,
              {"states": len(dist.entries)})
    print(f"wrote {csv_path} ({len(dist.entries)} states)")
    return 0


def cmd_wilson(args) -> int:
    started = time.time()
    cfg = _merge_config(args)
    X = _build_complex(cfg)
    params = _build_params(cfg)
    gamma = _load_gamma(cfg, X, params.q, params.i)
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg["exact"]:
        res = measures.exact_wilson(params, X, gamma, cfg["max_states"])
        report = {
            "mode": "exact",
            "spin_side": repr(res.lhs) if res.lhs_exact is None else str(res.lhs_exact),
            "percolation_side": str(res.rhs),
            "abs_difference": res.abs_difference,
        }
        print(f"E_mu[W] = {report['spin_side']}")
        print(f"rho(V)  = {report['percolation_side']}")
        print(f"|diff|  = {res.abs_difference:.3e}")
    else:
        res = sampler.run_chain(X, _run_config(cfg, params, 10_000), {
            "wilson": observables.wilson_observable(gamma, params.q),
            "vgamma": observables.vgamma_observable(gamma, params.q),
        })
        w, v = res.estimates["wilson"], res.estimates["vgamma"]
        report = {
            "mode": "mc",
            "wilson": {"mean": w.mean, "std_err": w.std_err},
            "vgamma": {"mean": v.mean, "std_err": v.std_err},
        }
        print(f"E[W] = {w.mean:.5f} +- {w.std_err:.5f}")
        print(f"P(V) = {v.mean:.5f} +- {v.std_err:.5f}")
    _manifest("wilson", cfg, [], outdir, started, report)
    return 0


def _parse_observables(tokens, X, q: int, dim: int) -> dict:
    """Observables from a comma list (a flag) or a list of names (a config
    file)."""
    if isinstance(tokens, str):
        tokens = [t for t in tokens.split(",") if t]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValidationError(f"'observables' needs a comma list or a list of names, "
                              f"got {tokens!r}")
    obs = {}
    for token in tokens:
        if token == "open2":
            obs[token] = observables.open_count_observable("P2")
        elif token == "open1":
            obs[token] = observables.open_count_observable("P1")
        elif token.startswith(("wilson:", "vgamma:")):
            kind, _, side = token.partition(":")
            try:
                n = int(side)
            except ValueError:
                raise ValidationError(
                    f"observable {token!r} needs an integer loop side, e.g. {kind}:2") from None
            make = observables.wilson_observable if kind == "wilson" \
                else observables.vgamma_observable
            obs[token] = make(_loop_gamma(n, X, q, dim, f"observable {token!r}"), q)
        else:
            raise ValidationError(f"unknown observable {token!r}")
    return obs


def cmd_sample(args) -> int:
    started = time.time()
    cfg = _merge_config(args)
    X = _build_complex(cfg)
    params = _build_params(cfg)
    run = _run_config(cfg, params, 1000)
    obs = _parse_observables(cfg.get("observables", "open2,open1"), X, params.q, params.i)
    result = sampler.run_chain(X, run, obs, keep_series=True)
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    tag = cfg.get("tag", "sample")
    cfg["tag"] = tag
    series_path = outdir / f"{tag}-series.csv"
    sampler.write_series_csv(series_path, result)
    summary = {
        name: {"mean": est.mean, "std_err": est.std_err, "n": est.n_samples}
        for name, est in sorted(result.estimates.items())
    }
    _manifest("sample", cfg, [str(series_path)], outdir, started, summary)
    for name, stats in summary.items():
        print(f"{name}: {stats['mean']:.5f} +- {stats['std_err']:.5f}")
    print(f"wrote {series_path}")
    return 0


def cmd_mf_ratio(args) -> int:
    started = time.time()
    cfg = _merge_config(args)
    X = _build_complex(cfg)
    params = _build_params(cfg)
    run = _run_config(cfg, params, 2000)
    ns = _int_list(cfg.get("n", "2,4,6"), "--n")
    rows = sampler.mf_ratio_scan(X, run, ns, route=cfg.get("route", "wilson"))
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    tag = cfg.get("tag", "mf-ratio")
    cfg["tag"] = tag
    csv_path = outdir / f"{tag}.csv"
    observables.write_mf_csv(csv_path, rows)
    _manifest("mf-ratio", cfg, [str(csv_path)], outdir, started)
    for r in rows:
        print(f"n={r['n']}: R = {r['estimate']:.5f} +- {r['std_err']:.5f}")
    print(f"wrote {csv_path}")
    return 0


def cmd_duality_check(args) -> int:
    started = time.time()
    cfg = _merge_config(args)
    cfg.setdefault("geometry", "torus")
    X = _build_complex(cfg)
    params = _build_params(cfg)
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg["mc"]:
        seed = _resolve_seed(cfg)
        report = duality.verify_duality_mc(params, X,
                                           n_samples=cfg.get("sweeps", 100_000),
                                           burn_in=cfg.get("burn_in", 500),
                                           seed=seed)
        ok = report["max_z"] <= 4.0
        print(f"max |z| = {report['max_z']:.2f} over {len(report['checks'])} checks"
              f" -> {'ok' if ok else 'VIOLATION'}")
    else:
        report = duality.duality_report(params, X, cfg["max_states"])
        ok = report["max_discrepancy"] == "0"
        print(f"max discrepancy = {report['max_discrepancy']} over "
              f"{report['states_checked']} states -> {'ok' if ok else 'VIOLATION'}")
    tag = cfg.get("tag", "duality-check")
    cfg["tag"] = tag
    json_path = outdir / f"{tag}.json"
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _manifest("duality-check", cfg, [str(json_path)], outdir, started, report)
    return 0 if ok else 1


def cmd_min_area(args) -> int:
    started = time.time()
    cfg = _merge_config(args)
    X = _build_complex(cfg)
    q = cfg.get("q", 2)
    gfq.require_prime(q)
    gamma = _load_gamma(cfg, X, q, 1)
    area = homology.min_area(gamma, X, q, budget=cfg.get("budget", 1_000_000))
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    report = {"area": area, "perimeter": observables.perimeter(gamma), "q": q}
    _manifest("min-area", cfg, [], outdir, started, report)
    print(f"perimeter = {report['perimeter']}, min area = {area}")
    return 0


def cmd_selftest(args) -> int:
    cfg = _merge_config(args)
    failures = run_selftest(quick=bool(cfg["quick"]))
    return 0 if failures == 0 else 1


def run_selftest(quick: bool = False) -> int:
    """Invariant suite over exact oracles; prints one line per check."""
    import random

    from .complexes import PercSubcomplex, boundary_chain, two_squares_complex
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    for q in (2, 3, 5):
        ok = all(
            (a * gfq.fq_inv(a, q)) % q == 1
            for a in range(1, q)
        )
        check(f"gfq field inverses q={q}", ok)

    def coboundary(X, j):
        return X.coboundary_matrix(j, range(X.num_cells(j + 1)), range(X.num_cells(j)))

    for X in (build_box(2, [2, 2]), build_torus(2, 2), build_torus(3, 2)):
        ok = True
        for j in range(1, X.d):
            prod = coboundary(X, j) @ coboundary(X, j - 1)
            ok = ok and not prod.any()
        check(f"boundary^2 = 0 on {X.kind} d={X.d}", ok)

    fx = two_squares_complex()
    check("worked-example betti", homology.betti(fx, 1, 5) == 1
          and gfq.rref(coboundary(fx, 0), 5).rank == 5)

    sq = build_box(2, [1, 1])
    p = measures.ModelParams(q=2, i=1, k2=1, k1=1)
    mu = measures.enumerate_mu(p, sq)
    rho = measures.enumerate_rho(p, sq)
    mf, mp = measures.kappa_marginals(p, sq)
    check("coupling marginals q=2", mu.max_discrepancy(mf) == 0
          and rho.max_discrepancy(mp) == 0)
    p3 = measures.ModelParams(q=3, i=1, k2=1, k1=2)
    mf3, mp3 = measures.kappa_marginals(p3, sq)
    check("coupling marginals q=3",
          measures.enumerate_mu(p3, sq).max_discrepancy(mf3) == 0
          and measures.enumerate_rho(p3, sq).max_discrepancy(mp3) == 0)

    g = boundary_chain(sq, sq.cells(2)[0], 2)
    w = measures.exact_wilson(p, sq, g)
    check("wilson identity", w.lhs_exact == w.rhs)

    t2 = build_torus(2, 2)
    disc = duality.verify_duality_exact(measures.ModelParams(q=2, i=0, k2=1, k1=2), t2)
    check("torus duality", disc == 0)

    rnd = random.Random(11)
    n_quad = 50 if quick else 300
    box = build_box(2, [2, 2])
    ok = True
    for _ in range(n_quad):
        def rnd_pair():
            return (PercSubcomplex(box, 2, rnd.getrandbits(4)),
                    PercSubcomplex(box, 1, rnd.getrandbits(12)))
        (X2, A1), (Y2, B1) = rnd_pair(), rnd_pair()
        bu = homology.rel_betti(homology.RelPair(X2.union(Y2), A1.union(B1)), 1, 2)
        bi = homology.rel_betti(homology.RelPair(X2.intersection(Y2), A1.intersection(B1)), 1, 2)
        bx = homology.rel_betti(homology.RelPair(X2, A1), 1, 2)
        by = homology.rel_betti(homology.RelPair(Y2, B1), 1, 2)
        ok = ok and bu + bi >= bx + by
    check(f"lattice condition ({n_quad} quadruples)", ok)

    cfgrun = sampler.RunConfig(q=2, i=1, p2=0.5, p1=0.5,
                               n_samples=200 if quick else 2000,
                               burn_in=100, seed=5)
    r1 = sampler.run_chain(sq, cfgrun, {"o": observables.open_count_observable("P2")},
                           keep_series=True)
    r2 = sampler.run_chain(sq, cfgrun, {"o": observables.open_count_observable("P2")},
                           keep_series=True)
    same = all(np.array_equal(a, b) for a, b in zip(r1.series["o"], r2.series["o"]))
    check("sampler seed determinism", same)

    print("selftest:", "all ok" if failures == 0 else f"{failures} failures")
    return failures


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cpp-lab",
        description="Exact oracles and Monte Carlo for the coupled plaquette "
                    "percolation representation of the Potts lattice Higgs model",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="exact distribution to CSV/JSON")
    p.add_argument("--target", choices=["mu", "rho", "kappa"], help="default rho")
    _add_model_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("wilson", help="both sides of the Wilson identity")
    p.add_argument("--loop", type=int, help="rectangular loop side n")
    p.add_argument("--gamma-file", help="JSON chain {dim, coeffs}")
    p.add_argument("--exact", action="store_true", default=None, help="full enumeration")
    _add_chain_flags(p)
    _add_model_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_wilson)

    p = sub.add_parser("sample", help="run chains, write series CSV")
    _add_chain_flags(p)
    p.add_argument("--observables", help="comma list: open2,open1,wilson:N,vgamma:N")
    _add_model_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("mf-ratio", help="finite-n Marcu-Fredenhagen ratio scan")
    p.add_argument("--n", help="comma list of loop sides, e.g. 2,4,6")
    _add_chain_flags(p)
    p.add_argument("--route", choices=["wilson", "topological"])
    _add_model_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_mf_ratio)

    p = sub.add_parser("duality-check", help="exact or MC torus duality check")
    p.add_argument("--mc", action="store_true", default=None, help="statistical check")
    p.add_argument("--sweeps", type=int, help="MC sample count")
    p.add_argument("--burn-in", type=int)
    _add_model_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_duality_check)

    p = sub.add_parser("min-area", help="exact minimal bounding area of a loop")
    p.add_argument("--loop", type=int)
    p.add_argument("--gamma-file")
    p.add_argument("--budget", type=int)
    _add_model_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_min_area)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.add_argument("--quick", action="store_true", default=None)
    _add_common_flags(p)
    p.set_defaults(func=cmd_selftest)

    for p in sub.choices.values():
        p.set_defaults(flag_types={a.dest: a.type for a in p._actions if a.type})
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TooLarge, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CppLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
