"""CLI behavior: artifacts, manifests, exit codes, reproducibility."""
import argparse
import hashlib
import json
import subprocess
import sys

import pytest

from cpp_lab.cli import build_parser, main, subparsers

BASE_MODEL = ["--d", "2", "--q", "2", "--i", "1", "--widths", "1,1",
              "--k2", "1", "--k1", "1"]


def run_cli(args, tmp_path):
    return main(list(args) + ["--output-dir", str(tmp_path)])


def test_wilson_exact_reports_zero_difference(tmp_path, capsys):
    code = run_cli(["wilson", *BASE_MODEL, "--loop", "2", "--exact",
                    "--widths", "2,2"], tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    assert "|diff|  = 0.000e+00" in out
    manifest = json.loads((tmp_path / "wilson-manifest.json").read_text())
    assert manifest["result"]["abs_difference"] == 0


def test_wilson_exact_runs_at_p_one(tmp_path, capsys):
    code = run_cli(["wilson", "--d", "2", "--widths", "2,2", "--q", "2", "--p2", "1",
                    "--p1", "1/2", "--loop", "2", "--exact"], tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    spin = out[0].removeprefix("E_mu[W] = ")
    assert out[1] == f"rho(V)  = {spin}" and "|diff|  = 0.000e+00" in out


def test_wilson_exact_gamma_file_is_rational_at_q5(tmp_path):
    gamma = tmp_path / "g.json"
    gamma.write_text(json.dumps({"dim": 1, "coeffs": {"0": 1, "3": 1}}))  # e0 + e3
    code = run_cli(["wilson", "--exact", "--q", "5", "--d", "2", "--widths", "2,1",
                    "--k2", "1/3", "--k1", "2/5", "--gamma-file", str(gamma)], tmp_path)
    assert code == 0
    result = json.loads((tmp_path / "wilson-manifest.json").read_text())["result"]
    assert result["spin_side"] == result["percolation_side"] == "18382099/3347363424"
    assert result["abs_difference"] == 0


# sha256 of the series CSV of a seeded `sample --observables wilson:2` run on a
# 2x2 box; the wilson observable reads exactly 1.0, -1.0 (q=2) and -0.5 (q=3)
SAMPLE_DIGESTS = {
    2: "8fdd77eb4e936a1e30e69e35e9ccf3c1c53e2ba4e9691b6f586654f4cb0ec9d0",
    3: "363df429b3f0f58307353224230ae57948766a9ac7785a1a5127919179b8d13d",
}


@pytest.mark.parametrize("q", sorted(SAMPLE_DIGESTS))
def test_seeded_wilson_series_keeps_its_bytes(q, tmp_path):
    assert run_cli(["sample", "--d", "2", "--widths", "2,2", "--q", str(q), "--i", "1",
                    "--p2", "0.5", "--p1", "0.5", "--samples", "200", "--burn-in", "20",
                    "--seed", "7", "--observables", "wilson:2", "--tag", "s"], tmp_path) == 0
    series = (tmp_path / "s-series.csv").read_bytes()
    assert hashlib.sha256(series).hexdigest() == SAMPLE_DIGESTS[q]


def test_enumerate_rho_writes_reproducible_csv(tmp_path):
    args = ["enumerate", "--target", "rho", *BASE_MODEL, "--tag", "run1"]
    assert run_cli(args, tmp_path) == 0
    first = (tmp_path / "run1.csv").read_bytes()
    args2 = ["enumerate", "--target", "rho", *BASE_MODEL, "--tag", "run2"]
    assert run_cli(args2, tmp_path) == 0
    second = (tmp_path / "run2.csv").read_bytes()
    assert first == second
    manifest = json.loads((tmp_path / "run1-manifest.json").read_text())
    assert manifest["task"] == "enumerate"
    assert manifest["config"]["q"] == 2


def test_enumerate_kappa_and_mu(tmp_path):
    for target, count in (("mu", 16), ("kappa", None)):
        tag = f"en-{target}"
        assert run_cli(["enumerate", "--target", target, *BASE_MODEL,
                        "--tag", tag], tmp_path) == 0
        rows = (tmp_path / f"{tag}.csv").read_text().strip().splitlines()
        if count:
            assert len(rows) == count + 1  # header


def test_composite_q_rejected_before_compute(tmp_path):
    code = run_cli(["enumerate", "--target", "rho", "--d", "2", "--q", "4",
                    "--i", "1", "--widths", "1,1", "--k2", "1", "--k1", "1"],
                   tmp_path)
    assert code == 2


def test_conflicting_parameter_pairs_rejected(tmp_path):
    code = run_cli(["enumerate", *BASE_MODEL, "--p2", "0.5", "--p1", "0.5"],
                   tmp_path)
    assert code == 2


def test_too_large_enumeration_exits_3(tmp_path):
    code = run_cli(["enumerate", "--target", "rho", "--d", "2", "--q", "2",
                    "--i", "1", "--widths", "3,3", "--k2", "1", "--k1", "1",
                    "--max-states", "1000"], tmp_path)
    assert code == 3


def test_too_large_exact_wilson_exits_3(tmp_path):
    code = run_cli(["wilson", *BASE_MODEL, "--widths", "2,2", "--loop", "2", "--exact",
                    "--max-states", "4096"], tmp_path)
    assert code == 3


def test_mc_commands_reproduce_csv_bytes(tmp_path):
    args = ["mf-ratio", "--d", "2", "--q", "2", "--i", "1", "--widths", "4,4",
            "--p2", "0.5", "--p1", "0.8", "--n", "2", "--samples", "200",
            "--burn-in", "50", "--seed", "7"]
    assert run_cli(args + ["--tag", "a"], tmp_path) == 0
    assert run_cli(args + ["--tag", "b"], tmp_path) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    header = (tmp_path / "a.csv").read_text().splitlines()[0]
    assert header == "n,p2,p1,q,estimate,std_err"


def test_sample_series_and_manifest(tmp_path):
    args = ["sample", *BASE_MODEL, "--samples", "50", "--burn-in", "10",
            "--seed", "3", "--observables", "open2,open1,wilson:2",
            "--widths", "2,2"]
    assert run_cli(args, tmp_path) == 0
    series = (tmp_path / "sample-series.csv").read_text().splitlines()
    assert series[0] == "chain,sweep,observable,value"
    assert len(series) == 1 + 50 * 3
    manifest = json.loads((tmp_path / "sample-manifest.json").read_text())
    assert manifest["seed"] == 3
    assert set(manifest["result"]) == {"open2", "open1", "wilson:2"}


def test_seed_recorded_when_generated(tmp_path):
    args = ["sample", *BASE_MODEL, "--samples", "5", "--burn-in", "1"]
    assert run_cli(args, tmp_path) == 0
    manifest = json.loads((tmp_path / "sample-manifest.json").read_text())
    assert isinstance(manifest["seed"], int)


def test_duality_check_exact(tmp_path, capsys):
    args = ["duality-check", "--d", "2", "--q", "2", "--i", "0",
            "--geometry", "torus", "--side", "2", "--k2", "1", "--k1", "2"]
    assert run_cli(args, tmp_path) == 0
    report = json.loads((tmp_path / "duality-check.json").read_text())
    assert report["max_discrepancy"] == "0"
    assert report["states_checked"] == 4096


def test_min_area_command(tmp_path, capsys):
    args = ["min-area", "--d", "2", "--q", "2", "--widths", "2,2", "--loop", "2"]
    assert run_cli(args, tmp_path) == 0
    out = capsys.readouterr().out
    assert "perimeter = 8" in out and "min area = 4" in out


def test_wilson_mc_route(tmp_path, capsys):
    args = ["wilson", "--d", "2", "--q", "2", "--i", "1", "--widths", "2,2",
            "--p2", "0.5", "--p1", "0.5", "--loop", "2", "--samples", "300",
            "--burn-in", "50", "--seed", "9"]
    assert run_cli(args, tmp_path) == 0
    out = capsys.readouterr().out
    assert "E[W] =" in out and "P(V) =" in out
    manifest = json.loads((tmp_path / "wilson-manifest.json").read_text())
    assert manifest["result"]["mode"] == "mc"


def test_period_one_torus_warns(tmp_path, capsys):
    args = ["enumerate", "--target", "rho", "--d", "2", "--q", "2", "--i", "1",
            "--geometry", "torus", "--side", "1", "--k2", "1", "--k1", "1"]
    assert run_cli(args, tmp_path) == 0
    assert "period-1 torus" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = {"d": 2, "q": 2, "i": 1, "widths": "1,1", "k2": "1", "k1": "1",
           "target": "rho"}
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["enumerate", "--config", str(cfg_path), "--k1", "2",
                 "--output-dir", str(tmp_path), "--tag", "over"])
    assert code == 0
    manifest = json.loads((tmp_path / "over-manifest.json").read_text())
    assert manifest["config"]["k1"] == "2"


def test_manifest_round_trip_reproduces_output(tmp_path, capsys):
    for args, output in (
            (["enumerate", "--target", "rho", *BASE_MODEL], "{tag}.csv"),
            (["wilson", *BASE_MODEL, "--widths", "2,2", "--loop", "2", "--exact"], None),
            (["duality-check", "--d", "2", "--q", "2", "--i", "0", "--geometry", "torus",
              "--side", "2", "--k2", "1", "--k1", "2"], "{tag}.json")):
        assert run_cli(args + ["--tag", "orig"], tmp_path) == 0
        first = capsys.readouterr().out
        manifest_path = tmp_path / "orig-manifest.json"
        code = main([args[0], "--config", str(manifest_path),
                     "--output-dir", str(tmp_path), "--tag", "redo"])
        assert code == 0
        assert capsys.readouterr().out == first.replace("orig", "redo")
        redo = json.loads((tmp_path / "redo-manifest.json").read_text())
        assert redo["result"] == json.loads(manifest_path.read_text())["result"]
        if output:
            assert ((tmp_path / output.format(tag="orig")).read_bytes()
                    == (tmp_path / output.format(tag="redo")).read_bytes())


def test_config_file_values_are_not_overridden_by_flag_defaults(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {"d": 2, "q": 2, "i": 1, "widths": "1,1", "k2": "1", "k1": "1",
           "output_dir": "out"}
    (tmp_path / "conf.json").write_text(json.dumps(cfg))
    assert main(["enumerate", "--config", "conf.json"]) == 0
    assert (tmp_path / "out" / "enumerate-rho.csv").exists()
    assert not (tmp_path / "enumerate-rho.csv").exists()
    (tmp_path / "conf.json").write_text(json.dumps({**cfg, "max_states": 4}))
    assert main(["enumerate", "--config", "conf.json", "--tag", "guarded"]) == 3
    assert not list(tmp_path.rglob("guarded*"))
    assert main(["enumerate", "--config", "conf.json", "--tag", "flag",
                 "--max-states", "64"]) == 0
    assert (tmp_path / "out" / "flag.csv").exists()


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "cpp_lab.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_selftest_quick_passes(capsys):
    assert main(["selftest", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "all ok" in out
    assert "FAIL" not in out


def test_negative_seed_rejected(tmp_path, capsys):
    args = ["sample", *BASE_MODEL, "--samples", "5", "--burn-in", "1", "--seed", "-1"]
    assert run_cli(args, tmp_path) == 2
    assert "--seed" in capsys.readouterr().err


def test_non_integer_widths_rejected(tmp_path, capsys):
    args = ["enumerate", *BASE_MODEL, "--widths", "2,x"]
    assert run_cli(args, tmp_path) == 2
    assert "--widths" in capsys.readouterr().err


def test_spin_dimension_outside_complex_rejected(tmp_path, capsys):
    args = ["sample", "--d", "2", "--q", "2", "--i", "5", "--widths", "2,2",
            "--p2", "0.5", "--p1", "0.5", "--samples", "5", "--burn-in", "1",
            "--seed", "1"]
    assert run_cli(args, tmp_path) == 2
    assert "0 <= i < d" in capsys.readouterr().err
    assert not (tmp_path / "sample-series.csv").exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = {"d": 2, "q": 2, "i": 1, "widths": "1,1", "p2": "0.5", "p1": "0.5",
           "samples": 5, "burn-in": 3}
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["sample", "--config", str(cfg_path), "--seed", "1",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "'burn-in'" in capsys.readouterr().err


SAMPLE_22 = ["sample", "--d", "2", "--q", "2", "--i", "1", "--widths", "2,2",
             "--p2", "0.5", "--p1", "0.5", "--samples", "5", "--burn-in", "1",
             "--seed", "1"]
MIN_AREA_22 = ["min-area", "--d", "2", "--q", "2", "--widths", "2,2"]
CONFIG_22 = {"d": 2, "q": 2, "i": 1, "widths": "2,2", "p2": "0.5", "p1": "0.5",
             "samples": 5, "burn_in": 1, "seed": 1}


@pytest.mark.parametrize("args,gamma,message", [
    (SAMPLE_22 + ["--observables", "wilson:x"], None, "wilson:x"),
    (SAMPLE_22 + ["--observables", "vgamma:x"], None, "vgamma:x"),
    (SAMPLE_22 + ["--observables", "open2,wilson:"], None, "wilson:"),
    (SAMPLE_22 + ["--config", "no-such-config.json"], None, "--config"),
    (MIN_AREA_22 + ["--gamma-file", "no-such-gamma.json"], None, "--gamma-file"),
    (MIN_AREA_22, {"dim": 1}, "--gamma-file"),
    (MIN_AREA_22, {"dim": 1, "coeffs": {"999": 1}}, "999"),
    (MIN_AREA_22, {"dim": 1, "coeffs": [1, 2]}, "--gamma-file"),
    (["wilson", "--d", "2", "--q", "2", "--i", "0", "--widths", "3,3", "--p2", "0.5",
      "--p1", "0.5", "--loop", "2", "--samples", "5", "--burn-in", "1", "--seed", "1"],
     None, "--loop"),
    (SAMPLE_22 + ["--r", "abc"], None, "--r"),
    (SAMPLE_22 + ["--p2", "1/0"], None, "--p2"),
    (["enumerate", *BASE_MODEL, "--k2", "1/0"], None, "--k2"),
    (["sample", "--config", {**CONFIG_22, "q": "three"}], None, "'q'"),
    (["sample", "--config", {**CONFIG_22, "d": "two"}], None, "'d'"),
    (["sample", "--config", {**CONFIG_22, "samples": 2.5}], None, "'samples'"),
    (["sample", "--config", {**CONFIG_22, "widths": [1, "x"]}], None, "--widths"),
    (["enumerate", "--config", {"d": 2, "q": 2, "widths": "1,1", "k2": "1", "k1": "1",
                                "geometry": "sphere"}], None, "'geometry'"),
    (SAMPLE_22 + ["--i", "0", "--observables", "wilson:2"], None, "'wilson:2' builds a 1-chain"),
    (["sample", "--d", "3", "--q", "2", "--widths", "3,3,3", "--i", "2", "--p2", "0.5",
      "--p1", "0.5", "--samples", "5", "--burn-in", "1", "--seed", "1",
      "--observables", "wilson:2"], None, "'wilson:2' builds a 1-chain"),
    (["sample", "--config", {**CONFIG_22, "observables": ["open2", 3]}], None,
     "'observables'"),
    (["wilson", "--config", {**CONFIG_22, "loop": 2, "exact": "false"}], None, "'exact'"),
    (["selftest", "--config", {"quick": "no"}], None, "'quick'"),
    (["sample", "--config", {**CONFIG_22, "output_dir": 5}], None, "'output_dir'"),
    (["sample", "--config", {**CONFIG_22, "tag": [1]}], None, "'tag'"),
    (["min-area", "--config", {"d": 2, "widths": "2,2", "loop": 2, "k2": "1"}], None, "'k2'"),
])
def test_bad_cli_input_exits_2_with_a_message(args, gamma, message,
                                              tmp_path, monkeypatch, capsys):
    """A dict in args is written to a file whose name takes its place."""
    monkeypatch.chdir(tmp_path)
    if gamma is not None:
        (tmp_path / "gamma.json").write_text(json.dumps(gamma))
        args = args + ["--gamma-file", "gamma.json"]
    config = next((a for a in args if isinstance(a, dict)), None)
    if config is not None:
        (tmp_path / "conf.json").write_text(json.dumps(config))
        args = ["conf.json" if a is config else a for a in args]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*-manifest.json"))


def test_config_values_convert_like_their_flags(tmp_path):
    cfg = {**CONFIG_22, "q": "2", "d": "2", "samples": "5", "widths": [2, 2]}
    (tmp_path / "conf.json").write_text(json.dumps(cfg))
    assert main(["sample", "--config", str(tmp_path / "conf.json"), "--tag", "cfg",
                 "--output-dir", str(tmp_path)]) == 0
    assert run_cli(SAMPLE_22 + ["--tag", "flags"], tmp_path) == 0
    assert ((tmp_path / "cfg-series.csv").read_bytes()
            == (tmp_path / "flags-series.csv").read_bytes())


# only the flags each command requires; every other setting takes its default
REQUIRED_ONLY = {
    "enumerate": ["--d", "2", "--widths", "1,1", "--q", "2", "--k2", "1", "--k1", "1"],
    "wilson": ["--d", "2", "--widths", "2,2", "--q", "2", "--p2", "0.5", "--p1", "0.5",
               "--loop", "2"],
    "sample": ["--d", "2", "--widths", "2,2", "--q", "2", "--p2", "0.5", "--p1", "0.5"],
    "mf-ratio": ["--d", "2", "--widths", "6,6", "--q", "2", "--p2", "0.5", "--p1", "0.5"],
    "duality-check": ["--d", "2", "--side", "2", "--q", "2", "--k2", "1", "--k1", "2"],
    "min-area": ["--d", "2", "--widths", "2,2", "--loop", "2"],
}


def test_manifest_echoes_every_default(tmp_path, monkeypatch):
    commands = subparsers(build_parser())
    assert set(commands) == set(REQUIRED_ONLY) | {"selftest"}
    for name, args in REQUIRED_ONLY.items():
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main([name, *args]) == 0
        (manifest,) = (tmp_path / name).glob("*-manifest.json")
        config = json.loads(manifest.read_text())["config"]
        defaults = {a.dest: a.default for a in commands[name]._actions
                    if a.default not in (None, argparse.SUPPRESS)}
        assert defaults and {k: config.get(k) for k in defaults} == defaults
        assert manifest.name == f"{config['tag']}-manifest.json"
        assert config["command"] == name


# manifests as the CLI wrote them before each setting's default was echoed
PARENT_SAMPLE_MANIFEST = {"config": {
    "command": "sample", "d": 2, "max_states": 67108864, "output_dir": ".", "p1": "0.5",
    "p2": "0.5", "q": 2, "samples": 5, "seed": 1, "tag": "sample", "widths": "2,2"}}
PARENT_DUALITY_MANIFEST = {
    "config": {"command": "duality-check", "d": 2, "geometry": "torus", "i": 0, "k1": "2",
               "k2": "1", "max_states": 67108864, "mc": False, "output_dir": ".", "q": 2,
               "side": 2, "tag": "duality-check"},
    "result": {"dual_params": {"i": 1, "p1": "2/3", "p2": "1/2", "q": 2},
               "max_discrepancy": "0",
               "params": {"i": 0, "p1": "2/3", "p2": "1/2", "q": 2},
               "states_checked": 4096}}


def test_parent_format_manifests_replay(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old-sample.json").write_text(json.dumps(PARENT_SAMPLE_MANIFEST))
    assert main(["sample", "--config", "old-sample.json"]) == 0
    assert main(["sample", "--d", "2", "--widths", "2,2", "--q", "2", "--p2", "0.5",
                 "--p1", "0.5", "--samples", "5", "--seed", "1", "--tag", "flags"]) == 0
    assert ((tmp_path / "sample-series.csv").read_bytes()
            == (tmp_path / "flags-series.csv").read_bytes())
    (tmp_path / "old-duality.json").write_text(json.dumps(PARENT_DUALITY_MANIFEST))
    assert main(["duality-check", "--config", "old-duality.json"]) == 0
    report = PARENT_DUALITY_MANIFEST["result"]
    assert ((tmp_path / "duality-check.json").read_text()
            == json.dumps(report, indent=2, sort_keys=True) + "\n")
    manifest = json.loads((tmp_path / "duality-check-manifest.json").read_text())
    assert manifest["result"] == report


def test_removed_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["min-area", "--d", "2", "--widths", "2,2", "--loop", "2", "--k2", "1"])
    assert exc.value.code == 2
    assert "--k2" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(REQUIRED_ONLY) + ["selftest"])
def test_help_exits_0(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    if name == "duality-check":
        assert "(default torus)" in capsys.readouterr().out
