"""Command-line front end.

Every command resolves its settings (a flag given over a JSON config file
over the flag's default), runs, and exits 0 on success, 1 when a check
fails (a duality-check VIOLATION, selftest failures), 2 on validation
errors, 3 when an exact computation exceeds its size guard or search
budget.  Every command but selftest writes its artifacts plus a
run-manifest JSON that echoes every resolved setting.  Randomized
commands take an explicit --seed or record the generated one in the
manifest; re-running a command with the manifest as its --config
reproduces byte-identical CSV output.
"""
from __future__ import annotations

import argparse
import csv
import json
import secrets
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, duality, gfq, homology, measures, observables, sampler
from .complexes import (Chain, build_box, build_torus, complex_to_json)
from .errors import BudgetExceeded, CppLabError, TooLarge, ValidationError


def _read_json(path: str, flag: str):
    if not isinstance(path, str):
        raise ValidationError(f"{flag} needs a file name, got {path!r}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {flag} {path!r}: {exc}") from None


def _config_value(action: argparse.Action, value):
    """A config file value, checked and converted like the flag `action`."""
    ok = True
    if action.nargs == 0:
        ok, want = isinstance(value, bool), "true or false"
    elif action.type is str:
        ok, want = isinstance(value, str), "a string"
    elif action.type is int:
        want = "an integer"
        try:
            value = int(str(value))
        except ValueError:
            ok = False
    if ok and action.choices is not None:
        ok, want = value in action.choices, "one of " + ", ".join(action.choices)
    if not ok:
        raise ValidationError(f"config key {action.dest!r} needs {want}, got {value!r}")
    return value


def _resolve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """The settings of one command: a flag given, over the --config file
    (a plain object, or a run manifest's "config"), over the flag's
    default.  `parser` is the command's subparser."""
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    cfg = {dest: a.default for dest, a in actions.items() if a.default is not None}
    if args.config is not None:
        loaded = _read_json(args.config, "--config")
        if isinstance(loaded, dict):
            loaded = loaded.get("config", loaded)
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(actions) - {"command"})
        if unknown:
            raise ValidationError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
        cfg.update((key, _config_value(actions[key], value))
                   for key, value in loaded.items() if key != "command")
    cfg.update((key, value) for key, value in vars(args).items()
               if key in actions and value is not None)
    cfg["command"] = args.command
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
    if cfg["geometry"] == "torus":
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
    i, d = cfg["i"], cfg["d"]
    if not 0 <= i < d:
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
    if seed < 0:
        raise ValidationError(f"--seed must be a non-negative integer, got {seed!r}")
    return seed


def _run_config(cfg: dict, params: measures.ModelParams) -> sampler.RunConfig:
    """Chain settings of a Monte Carlo command; resolves the seed."""
    return sampler.RunConfig(q=params.q, i=params.i,
                             p2=float(params.p2), p1=float(params.p1),
                             n_samples=cfg["samples"], burn_in=cfg["burn_in"],
                             thinning=cfg["thinning"], seed=_resolve_seed(cfg),
                             n_chains=cfg["chains"])


def _artifact(cfg: dict, suffix: str) -> Path:
    """The output file `<tag><suffix>` in the output directory, which is
    created if missing."""
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / f"{cfg['tag']}{suffix}"


def _write_manifest(task: str, cfg: dict, outputs: list[Path], started: float,
                    result: dict | None) -> None:
    payload = {
        "task": task,
        "config": cfg,
        "seed": cfg.get("seed"),
        "versions": {"cpp_lab": __version__, "numpy": np.__version__},
        "elapsed_s": round(time.time() - started, 3),
        "outputs": [str(path) for path in outputs],
    }
    if result:
        payload["result"] = result
    with open(_artifact(cfg, "-manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


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
# command bodies: each takes the resolved settings and returns the paths it
# wrote, the result recorded in the manifest, and the exit code
# ---------------------------------------------------------------------------

Outcome = tuple[list[Path], dict | None, int]

# enumerator and CSV/JSON state key of each --target
_TARGETS = {
    "mu": (measures.enumerate_mu, lambda k: "".join(str(v) for v in k)),
    "rho": (measures.enumerate_rho, lambda k: f"{k[0]}:{k[1]}"),
    "kappa": (measures.enumerate_kappa,
              lambda k: "".join(str(v) for v in k[0]) + f":{k[1]}:{k[2]}"),
}


def _enumerate(cfg: dict) -> Outcome:
    X = _build_complex(cfg)
    params = _build_params(cfg)
    enumerate_dist, key_str = _TARGETS[cfg["target"]]
    dist = enumerate_dist(params, X, cfg["max_states"])
    csv_path = _artifact(cfg, ".csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "weight_num", "weight_den"])
        writer.writerows(dist.csv_rows(key_str))
    json_path = _artifact(cfg, ".json")
    with open(json_path, "w") as fh:
        json.dump({"complex": complex_to_json(X), "dist": dist.to_json(key_str)},
                  fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} ({len(dist.entries)} states)")
    return [csv_path, json_path], {"states": len(dist.entries)}, 0


def _wilson(cfg: dict) -> Outcome:
    X = _build_complex(cfg)
    params = _build_params(cfg)
    gamma = _load_gamma(cfg, X, params.q, params.i)
    if cfg["exact"]:
        res = measures.exact_wilson(params, X, gamma, cfg["max_states"])
        report = {
            "mode": "exact",
            "spin_side": str(res.lhs_exact),
            "percolation_side": str(res.rhs),
            "abs_difference": res.abs_difference,
        }
        print(f"E_mu[W] = {report['spin_side']}")
        print(f"rho(V)  = {report['percolation_side']}")
        print(f"|diff|  = {res.abs_difference:.3e}")
    else:
        res = sampler.run_chain(X, _run_config(cfg, params), {
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
    return [], report, 0


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


def _sample(cfg: dict) -> Outcome:
    X = _build_complex(cfg)
    params = _build_params(cfg)
    run = _run_config(cfg, params)
    obs = _parse_observables(cfg["observables"], X, params.q, params.i)
    result = sampler.run_chain(X, run, obs, keep_series=True)
    series_path = _artifact(cfg, "-series.csv")
    sampler.write_series_csv(series_path, result)
    summary = {
        name: {"mean": est.mean, "std_err": est.std_err, "n": est.n_samples}
        for name, est in sorted(result.estimates.items())
    }
    for name, stats in summary.items():
        print(f"{name}: {stats['mean']:.5f} +- {stats['std_err']:.5f}")
    print(f"wrote {series_path}")
    return [series_path], summary, 0


def _mf_ratio(cfg: dict) -> Outcome:
    X = _build_complex(cfg)
    params = _build_params(cfg)
    run = _run_config(cfg, params)
    rows = sampler.mf_ratio_scan(X, run, _int_list(cfg["n"], "--n"), route=cfg["route"])
    csv_path = _artifact(cfg, ".csv")
    observables.write_mf_csv(csv_path, rows)
    for r in rows:
        print(f"n={r['n']}: R = {r['estimate']:.5f} +- {r['std_err']:.5f}")
    print(f"wrote {csv_path}")
    return [csv_path], None, 0


def _duality_check(cfg: dict) -> Outcome:
    X = _build_complex(cfg)
    params = _build_params(cfg)
    if cfg["mc"]:
        report = duality.verify_duality_mc(params, X, n_samples=cfg["sweeps"],
                                           burn_in=cfg["burn_in"], seed=_resolve_seed(cfg))
        ok = report["max_z"] <= 4.0
        print(f"max |z| = {report['max_z']:.2f} over {len(report['checks'])} checks"
              f" -> {'ok' if ok else 'VIOLATION'}")
    else:
        report = duality.duality_report(params, X, cfg["max_states"])
        ok = report["max_discrepancy"] == "0"
        print(f"max discrepancy = {report['max_discrepancy']} over "
              f"{report['states_checked']} states -> {'ok' if ok else 'VIOLATION'}")
    json_path = _artifact(cfg, ".json")
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [json_path], report, 0 if ok else 1


def _min_area(cfg: dict) -> Outcome:
    X = _build_complex(cfg)
    q = cfg["q"]
    gfq.require_prime(q)
    gamma = _load_gamma(cfg, X, q, 1)
    area = homology.min_area(gamma, X, q, budget=cfg["budget"])
    report = {"area": area, "perimeter": observables.perimeter(gamma), "q": q}
    print(f"perimeter = {report['perimeter']}, min area = {area}")
    return [], report, 0


def _selftest(cfg: dict) -> Outcome:
    return [], None, 0 if run_selftest(quick=cfg["quick"]) == 0 else 1


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
# the command table
# ---------------------------------------------------------------------------

# Every flag, keyed by its setting.  A flag's default is its setting's
# default; a command may declare its own default in Command.defaults.
FLAGS = {
    "config": dict(help="JSON config file or run manifest; flags given override its fields"),
    "seed": dict(type=int, help="RNG seed (generated and recorded if absent)"),
    "output_dir": dict(type=str, default=".", help="artifact directory"),
    "tag": dict(type=str, help="artifact base name"),
    "max_states": dict(type=int, default=measures.DEFAULT_STATE_GUARD, help="enumeration guard"),
    "q": dict(type=int, help="prime modulus"),
    "i": dict(type=int, default=1, help="spin dimension"),
    "d": dict(type=int, help="ambient dimension"),
    "geometry": dict(choices=("box", "torus"), default="box", help="cell complex"),
    "widths": dict(help="comma-separated box widths, e.g. 2,2"),
    "side": dict(type=int, help="torus period (or box side shortcut)"),
    "k2": dict(help="k2 = e^beta2 - 1, exact rational like 1 or 3/2"),
    "k1": dict(help="k1 = e^beta1 - 1, exact rational"),
    "p2": dict(help="plaquette probability (alternative to k2)"),
    "p1": dict(help="cell probability (alternative to k1)"),
    "r": dict(help="auxiliary cohomology weight base; q if absent"),
    "samples": dict(type=int, help="samples per chain"),
    "burn_in": dict(type=int, default=10_000, help="sweeps discarded before sampling"),
    "thinning": dict(type=int, default=1, help="sweeps per sample"),
    "chains": dict(type=int, default=1, help="independent chains"),
    "target": dict(choices=tuple(_TARGETS), default="rho", help="distribution"),
    "loop": dict(type=int, help="rectangular loop side n"),
    "gamma_file": dict(help="JSON chain {dim, coeffs}"),
    "exact": dict(action="store_true", help="full enumeration instead of Monte Carlo"),
    "observables": dict(default="open2,open1", help="comma list of open2,open1,wilson:N,vgamma:N"),
    "n": dict(default="2,4,6", help="comma list of loop sides"),
    "route": dict(choices=("wilson", "topological"), default="wilson", help="ratio observable"),
    "mc": dict(action="store_true", help="statistical check instead of enumeration"),
    "sweeps": dict(type=int, default=100_000, help="MC sample count"),
    "budget": dict(type=int, default=1_000_000, help="search budget"),
    "quick": dict(action="store_true", help="fewer random cases"),
}

_MODEL = ("q", "i", "d", "geometry", "widths", "side", "k2", "k1", "p2", "p1", "r")
_CHAIN = ("samples", "burn_in", "thinning", "chains")
_RUN = ("config", "seed", "output_dir", "tag", "max_states")


@dataclass(frozen=True)
class Command:
    """A subcommand: the settings it reads (keys of FLAGS), the body that
    runs on them, and the default artifact base name, formatted with the
    settings.  A command without a tag writes no files."""
    help: str
    body: Callable[[dict], Outcome]
    flags: tuple[str, ...]
    tag: str | None = None
    defaults: dict = field(default_factory=dict)


COMMANDS = {
    "enumerate": Command("exact distribution to CSV/JSON", _enumerate,
                         ("target", *_MODEL, "config", "output_dir", "tag", "max_states"),
                         "enumerate-{target}"),
    "wilson": Command("both sides of the Wilson identity", _wilson,
                      ("loop", "gamma_file", "exact", *_CHAIN, *_MODEL, *_RUN),
                      "wilson", {"samples": 10_000}),
    "sample": Command("run chains, write series CSV", _sample,
                      (*_CHAIN, "observables", *_MODEL, *_RUN),
                      "sample", {"samples": 1000}),
    "mf-ratio": Command("finite-n Marcu-Fredenhagen ratio scan", _mf_ratio,
                        ("n", *_CHAIN, "route", *_MODEL, *_RUN),
                        "mf-ratio", {"samples": 2000}),
    "duality-check": Command("exact or MC torus duality check", _duality_check,
                             ("mc", "sweeps", "burn_in", "q", "i", "d", "geometry", "side",
                              "k2", "k1", "p2", "p1", "r", *_RUN),
                             "duality-check", {"geometry": "torus", "burn_in": 500}),
    "min-area": Command("exact minimal bounding area of a loop", _min_area,
                        ("loop", "gamma_file", "budget", "q", "d", "geometry", "widths", "side",
                         "config", "output_dir", "tag", "max_states"),
                        "min-area", {"q": 2}),
    "selftest": Command("run the invariant suite", _selftest, ("quick", "config")),
}


class _CommandParser(argparse.ArgumentParser):
    """Parses a subcommand, leaving every flag not given at None, so that
    only a flag actually given overrides a config file value (`_resolve`
    applies the defaults on the actions)."""

    def parse_known_args(self, args=None, namespace=None):
        if namespace is None:
            namespace = argparse.Namespace(**{a.dest: None for a in self._actions})
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cpp-lab",
        description="Exact oracles and Monte Carlo for the coupled plaquette "
                    "percolation representation of the Potts lattice Higgs model",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest in command.flags:
            spec = dict(FLAGS[dest])
            if dest in command.defaults:
                spec["default"] = command.defaults[dest]
            if dest == "tag":
                spec["help"] += f" (default {command.tag})"
            elif spec.get("default") is not None:
                spec["help"] += " (default %(default)s)"
            p.add_argument("--" + dest.replace("_", "-"), **spec)
    return top


def subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The parser of each command of `build_parser()`."""
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    command = COMMANDS[args.command]
    try:
        cfg = _resolve(subparsers(parser)[args.command], args)
        if command.tag is not None:
            cfg.setdefault("tag", command.tag.format_map(cfg))
        outputs, result, code = command.body(cfg)
        if command.tag is not None:
            _write_manifest(args.command, cfg, outputs, started, result)
        return code
    except (TooLarge, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CppLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
