import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swiptkit as sk
from swiptkit import channel
from swiptkit.cli import main
from swiptkit.constellation import write_json


def run(args):
    return main([str(a) for a in args])


def exit_code(args):
    """The exit code of a run, returned or raised by argparse."""
    try:
        return run(args)
    except SystemExit as err:
        return err.code


_SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_cli(args, directory, *python_flags):
    """``python [python_flags] -m swiptkit.cli args`` in a fresh interpreter,
    as the installed script runs ``main()``: its completed process."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    return subprocess.run([sys.executable, *python_flags, "-m", "swiptkit.cli",
                           *(str(a) for a in args)], cwd=directory, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def quick_eh(tmp_path_factory):
    path = tmp_path_factory.mktemp("eh") / "eh.json"
    rc = run(["fit-eh", "--synthetic", "--points", 200, "--epochs", 2000,
              "--seed", 7, "-o", path])
    assert rc == 0
    return path


def test_fit_eh_writes_model_with_meta(quick_eh):
    payload = json.loads(quick_eh.read_text())
    assert set(payload) >= {"w1", "b1", "w2", "b2", "w3", "b3",
                            "input_scale", "power_scale", "rmse", "meta"}
    assert payload["meta"]["seed"] == 7
    model = sk.EhModel.load(quick_eh)
    assert model.evaluate(0.0) == 0.0


def test_fit_eh_idempotent(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["fit-eh", "--synthetic", "--points", 120, "--epochs", 500, "--seed", 3]
    assert run(args + ["-o", a]) == 0
    assert run(args + ["-o", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_eh_missing_dataset(tmp_path):
    rc = run(["fit-eh", "--data", tmp_path / "nope.csv", "-o", tmp_path / "x.json"])
    assert rc == 2


def test_fit_eh_needs_source(tmp_path):
    rc = run(["fit-eh", "-o", tmp_path / "x.json"])
    assert rc == 2


@pytest.mark.parametrize("epochs", [0, -3])
def test_fit_eh_nonpositive_epochs_is_usage_error(tmp_path, capsys, epochs):
    out = tmp_path / "x.json"
    rc = run(["fit-eh", "--synthetic", "--points", 200, "--epochs", epochs, "-o", out])
    assert rc == 2
    assert "epochs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_fit_eh_pmax_below_grid_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = run(["fit-eh", "--synthetic", "--pmax", -1, "-o", out])
    assert rc == 2
    assert "p_max must exceed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--noise-rel", -1], "noise_rel must be finite and >= 0"),
    (["--noise-rel", "nan"], "noise_rel must be finite and >= 0"),
    (["--noise-rel", "inf"], "noise_rel must be finite and >= 0"),
    (["--pmax", "inf"], "p_max must exceed the grid's lowest power 0.1 uW and be finite"),
])
def test_fit_eh_rejects_bad_synthetic_numbers(tmp_path, capsys, flags, message):
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["fit-eh", "--synthetic", "--points", 200, *flags, "-o", out])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["design", "--m", 4, "--n", 1],
    ["design", "--m", 4, "--n", 2],
    ["train", "--m", 4, "--iters", 5],
    ["sweep", "--m", 4, "--trials", 1000],
    ["sweep", "--designer", "learned", "--trials", 1000],
], ids=["design-n1", "design-n2", "train", "sweep", "sweep-learned"])
@pytest.mark.parametrize("pa", ["inf", "nan", 0, -1])
def test_pa_must_be_finite_and_positive(tmp_path, capsys, args, pa):
    out = tmp_path / "out"
    if "learned" in args:
        system = tmp_path / "sys.json"
        assert run(["train", "--m", 4, "--iters", 5, "-o", system]) == 0
        args = args + ["--systems", system]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run([*args, "--pa", pa, "-o", out])
    assert rc == 2
    assert "P_a must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["design", "--m", 16, "--n", 1],
    ["design", "--m", 4, "--n", 2],
    ["sweep", "--designer", "algorithmic", "--m", 16, "--trials", 1000],
], ids=["design-n1", "design-n2", "sweep"])
def test_pa_whose_layout_power_overflows_is_usage_error(tmp_path, capsys, args):
    # M·P_a overflows: the layout once turned every point to NaN, then failed
    # on JSON output, on a short codebook, or blamed the SNR
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run([*args, "--pa", "5e307", "-o", out])
    assert rc == 2
    assert "P_a 5e+307 is too large" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p_star", [1.5, 1.0000000000000002, "inf", "nan", -0.5, 1])
@pytest.mark.parametrize("n, rho", [(2, 0), (1, 0), (1, 0.5), (2, 0.5)])
def test_design_rejects_p_star_above_one(tmp_path, capsys, p_star, n, rho):
    # --p-star is gone: p* comes only from the command's harvester (Eq. 13
    # without --eh), so any value, a valid one included, is an unknown option
    out = tmp_path / "d.json"
    rc = exit_code(["design", "--m", 8, "--n", n, "--rho", rho, "--p-star", p_star,
                    "--pa", 100, "--candidate-cap", 200, "-o", out])
    assert rc == 2
    assert "unrecognized arguments: --p-star" in capsys.readouterr().err
    assert not out.exists()


def test_fit_eh_rejects_init_scale(tmp_path, capsys):
    # --init-scale is gone: the initial weights are drawn from [-1, 1]
    out = tmp_path / "eh.json"
    assert exit_code(["fit-eh", "--synthetic", "--init-scale", 1.0, "-o", out]) == 2
    assert "unrecognized arguments: --init-scale" in capsys.readouterr().err
    assert not out.exists()


def test_design_constellation_m_on_fingerprint(tmp_path, capsys):
    # without --eh, p* is pon_approx(5) = 5/317, one point of 32
    out = tmp_path / "d.json"
    rc = run(["design", "--m", 32, "--n", 1, "--pa", 5, "--rho", 1, "-o", out])
    assert rc == 0
    assert "M_on=1" in capsys.readouterr().out
    c = sk.Codebook.load(out)
    assert c.m_on == 1 and c.avg_power() == pytest.approx(5.0, rel=1e-9)


def test_design_m_on_12_with_harvester(tmp_path, canonical_fit, capsys):
    eh = tmp_path / "eh.json"
    write_json(eh, canonical_fit.to_json())
    rc = run(["design", "--m", 32, "--n", 1, "--pa", 120, "--rho", 1,
              "--eh", eh, "-o", tmp_path / "d.json"])
    assert rc == 0
    assert "M_on=12" in capsys.readouterr().out


def test_design_codebook_permutation_property(tmp_path):
    out = tmp_path / "cb.json"
    rc = run(["design", "--m", 16, "--n", 2, "--pa", 5, "--rho", 0,
              "--seed", 1, "-o", out])
    assert rc == 0
    cb = sk.Codebook.load(out)
    assert all(len(set(row)) == 2 for row in cb.codeword_indices.tolist())


def test_design_invalid_params(tmp_path):
    assert run(["design", "--m", 0, "--n", 1, "--pa", 5, "-o", tmp_path / "x.json"]) == 2


def test_train_writes_outputs(tmp_path):
    out, trace, extract = tmp_path / "sys.json", tmp_path / "tr.csv", tmp_path / "des.json"
    rc = run(["train", "--topology", "p2p", "--m", 4, "--n", 1, "--pa", 1,
              "--snr", 50, "--lam", 0, "--iters", 200, "--lr", 3e-3, "--seed", 3,
              "-o", out, "--trace", trace, "--extract", extract])
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[1] == "iteration,loss,xent_term,power_term"
    assert len(lines) == 202
    system = sk.load_system(out)
    assert system.final_loss is not None
    des = sk.Codebook.load(extract)
    assert des.rho == "learned" and des.m == 4


def test_train_idempotent(tmp_path):
    args = ["train", "--topology", "p2p", "--m", 4, "--n", 1, "--pa", 1,
            "--snr", 50, "--lam", 0, "--iters", 100, "--seed", 5]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["-o", a]) == 0
    assert run(args + ["-o", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_bc_caption_defaults(tmp_path):
    extract = tmp_path / "bc_des.json"
    rc = run(["train", "--topology", "bc", "--m", "8,4", "--pa", 5,
              "--snr", "100,50", "--lam", 0, "--iters", 80, "--seed", 2,
              "-o", tmp_path / "bc.json", "--extract", extract])
    assert rc == 0
    des = sk.Codebook.load(extract)
    assert des.m == 32


def test_train_ic_gain(tmp_path):
    rc = run(["train", "--topology", "ic", "--m", "4,4", "--pa", 5,
              "--snr", "50,50", "--gain", 0.5, "--lam", 0, "--iters", 60,
              "--seed", 2, "-o", tmp_path / "ic.json"])
    assert rc == 0
    system = sk.load_system(tmp_path / "ic.json")
    assert system.topology.gains[0, 1] == 0.5
    assert system.topology.gains[0, 0] == 1.0


def test_simulate_design(tmp_path):
    design = tmp_path / "d.json"
    run(["design", "--m", 4, "--n", 1, "--pa", 5, "--rho", 0, "-o", design])
    out = tmp_path / "sim.json"
    rc = run(["simulate", "--design", design, "--snr", 50, "--trials", 2000,
              "--seed", 1, "-o", out])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["ser"] == 0.0 and payload["trials"] == 2000


def test_sweep_rows_and_idempotency(tmp_path):
    args = ["sweep", "--designer", "algorithmic", "--m", 8, "--n", 1, "--pa", 5,
            "--snr", 50, "--trials", 1000, "--rho-grid", "0:1:3", "--seed", 4]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["-o", a]) == 0
    assert run(args + ["-o", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[1] == "control,ser,ci,pd_uw,snr_db,trials,seed"
    assert len(lines) == 5


@pytest.mark.parametrize("pa, warned", [(5, True), (100, False)])
def test_sweep_warns_below_turn_on(tmp_path, canonical_fit, capsys, pa, warned):
    eh = tmp_path / "eh.json"
    write_json(eh, canonical_fit.to_json())
    out = tmp_path / "s.csv"
    rc = run(["sweep", "--designer", "algorithmic", "--m", 8, "--n", 1, "--pa", pa,
              "--snr", 50, "--trials", 1000, "--rho-grid", "0:1:3", "--seed", 4,
              "--eh", eh, "-o", out])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == f"sweep: 3 rows -> {out}\n"
    pds = [float(row.split(",")[3]) for row in out.read_text().splitlines()[2:]]
    assert (max(pds) == 0.0) == warned
    if warned:
        assert captured.err.count("\n") == 1
        assert "below the harvester's turn-on" in captured.err
    else:
        assert captured.err == ""


def test_sweep_warns_below_turn_on_without_eh(tmp_path, capsys):
    # the canonical harvester gives 1e-32 to 1e-29 uW at P_a = 5, not exactly 0
    out = tmp_path / "s.csv"
    rc = run(["sweep", "--designer", "algorithmic", "--m", 8, "--n", 1, "--pa", 5,
              "--snr", 50, "--trials", 2000, "--rho-grid", "0:1:3", "--seed", 4,
              "-o", out])
    assert rc == 0
    captured = capsys.readouterr()
    pds = [float(row.split(",")[3]) for row in out.read_text().splitlines()[2:]]
    assert 0.0 < max(pds) < 1e-20
    assert captured.err.count("\n") == 1
    assert "below the harvester's turn-on" in captured.err


def test_sweep_pd_does_not_depend_on_trials(tmp_path):
    cols = []
    for trials in (2000, 5000):
        out = tmp_path / f"s{trials}.csv"
        assert run(["sweep", "--designer", "algorithmic", "--m", 8, "--n", 1,
                    "--pa", 100, "--snr", 50, "--trials", trials, "--rho-grid", "0:1:4",
                    "--seed", 4, "-o", out]) == 0
        cols.append([row.split(",")[3] for row in out.read_text().splitlines()[2:]])
    assert cols[0] == cols[1] and len(cols[0]) == 4


def test_sweep_rows_equal_simulate_of_their_designs(tmp_path):
    out = tmp_path / "s.csv"
    args = ["--snr", 10, "--trials", 3000, "--seed", 6]
    assert run(["sweep", "--designer", "algorithmic", "--m", 8, "--n", 1, "--pa", 100,
                "--rho-grid", "0,0.5,1", "-o", out, *args]) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[2:]]
    for row in rows:
        design, sim = tmp_path / "d.json", tmp_path / "sim.json"
        assert run(["design", "--m", 8, "--n", 1, "--pa", 100, "--rho", row[0],
                    "-o", design]) == 0
        assert run(["simulate", "--design", design, "-o", sim, *args]) == 0
        assert repr(json.loads(sim.read_text())["ser"]) == row[1]
    assert len({row[1] for row in rows}) > 1


def test_sweep_empty_grid(tmp_path):
    rc = run(["sweep", "--designer", "algorithmic", "--m", 8, "--n", 1,
              "--pa", 5, "--snr", 50, "--trials", 1000, "--rho-grid", "",
              "-o", tmp_path / "s.csv"])
    assert rc == 2


def test_sweep_learned_mode(tmp_path):
    sys_path = tmp_path / "sys.json"
    run(["train", "--topology", "p2p", "--m", 4, "--n", 1, "--pa", 1,
         "--snr", 50, "--lam", 0, "--iters", 150, "--lr", 3e-3, "--seed", 3,
         "-o", sys_path])
    out = tmp_path / "lsweep.csv"
    rc = run(["sweep", "--designer", "learned", "--systems", sys_path,
              "--m", 4, "--n", 1, "--pa", 1, "--snr", 50, "--trials", 1000,
              "--seed", 0, "-o", out])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 3
    assert rows[2].startswith("0.0,")   # control = stored lambda


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[design]\nm = 16\nn = 1\npa = 5\nrho = 0\n")
    out = tmp_path / "d.json"
    rc = run(["design", "--config", cfg, "--m", 8, "-o", out])
    assert rc == 0
    c = sk.Codebook.load(out)
    assert c.m == 8        # flag wins
    assert c.p_a_uw == 5.0  # config supplies the rest


# config_hash of each command run with every option at its default (simulate
# of the default design, at the relative path de.json)
_DEFAULT_HASHES = {"fit-eh": "893e989177715575", "design": "5e5a01cdb2b0dd4a",
                   "train": "4f7623ab42bf1e00", "sweep": "c1f4bbda827c6f2e",
                   "simulate": "ca6e2475add8dd27"}


def test_default_config_hashes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = {"fit-eh": ["--synthetic", "-o", "fe.json"], "design": ["-o", "de.json"],
            "train": ["-o", "tr.json"], "sweep": ["-o", "sw.csv"],
            "simulate": ["--design", "de.json", "-o", "si.json"]}
    for command, args in runs.items():
        assert run([command, *args]) == 0
    hashes = {c: json.loads((tmp_path / f).read_text())["meta"]["config_hash"]
              for c, f in [("fit-eh", "fe.json"), ("design", "de.json"),
                           ("train", "tr.json"), ("simulate", "si.json")]}
    hashes["sweep"] = (tmp_path / "sw.csv").read_text().split("config_hash=")[1].split()[0]
    assert hashes == _DEFAULT_HASHES


@pytest.mark.parametrize("ini,flags,override", [
    # an int, a float
    ("[design]\nm = 8\npa = 100\nrho = 0.5\n",
     ["design", "--m", 8, "--pa", 100.0, "--rho", 0.5], ["--m", 4]),
    # a choice, a comma list, an int and a float
    ("[train]\ntopology = mac\nm = 4,4\niters = 5\nlr = 0.01\n",
     ["train", "--topology", "mac", "--m", "4,4", "--iters", 5, "--lr", 0.01],
     ["--topology", "ic", "--snr", "50,50"]),
])
def test_ini_values_are_typed_like_flags(tmp_path, ini, flags, override):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(ini)
    command = flags[:1] + ["--config", cfg]

    def output(name, args):
        assert run(args + ["-o", tmp_path / name]) == 0
        return (tmp_path / name).read_bytes()

    assert output("ini.json", command) == output("flags.json", flags)
    # the flag wins over the file
    assert output("ini2.json", command + override) == output("flags2.json", flags + override)


@pytest.mark.parametrize("ini", ["[design]\nm = abc\n", "[design]\npa = five\n"])
def test_malformed_ini_value_is_usage_error(tmp_path, capsys, ini):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(ini)
    assert exit_code(["design", "--config", cfg, "-o", tmp_path / "d.json"]) == 2
    out = capsys.readouterr().err
    assert "invalid" in out and "Traceback" not in out
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("ini, argv", [
    ("[design]\nm = abc\n", ["design", "--m", 8]),   # a flag overrides it: still parsed
    ("[train]\ntopology = P2P\n", ["train", "--iters", 5]),   # choices are exact
    ("[sweep]\ndesigner = foo\n", ["sweep"]),
], ids=["overridden", "topology", "designer"])
def test_ini_value_is_parsed_as_its_flag(tmp_path, capsys, ini, argv):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(ini)
    out = tmp_path / "out"
    assert exit_code([*argv, "--config", cfg, "-o", out]) == 2
    err = capsys.readouterr().err
    assert "invalid" in err and "Traceback" not in err
    assert not out.exists()


def test_a_config_run_of_the_script_equals_its_flag_run(tmp_path):
    # main() reads sys.argv when run as a script, as the installed entry point is
    (tmp_path / "exp.ini").write_text("[design]\nm = 8\nn = 2\nrho = 0.5\n"
                                      "candidate-cap = 200\n")
    flags = ["--m", 8, "--n", 2, "--rho", 0.5, "--candidate-cap", 200]

    def output(name, args):
        proc = fresh_cli(["design", *args, "-o", name], tmp_path)
        assert proc.returncode == 0, proc.stderr
        return (tmp_path / name).read_bytes()

    ini = output("ini.json", ["--config", "exp.ini"])
    assert ini == output("flags.json", flags)
    # the flag wins over the file
    override = output("ini2.json", ["--config", "exp.ini", "--m", 4])
    assert override == output("flags2.json", flags + ["--m", 4]) != ini


def test_ini_keys_of_switches_required_options_and_paths_are_ignored(tmp_path, monkeypatch,
                                                                     capsys):
    monkeypatch.chdir(tmp_path)
    Path("exp.ini").write_text("[fit-eh]\nsynthetic = true\noutput = fe.json\n"
                               "[design]\noutput = other.json\nconfig = other.ini\n"
                               "[simulate]\ndesign = d.json\noutput = sim.json\n")
    assert run(["fit-eh", "--config", "exp.ini", "-o", "x.json"]) == 2
    assert "need --synthetic or --data" in capsys.readouterr().err
    assert run(["design", "--config", "exp.ini", "-o", "d.json"]) == 0
    assert run(["design", "-o", "plain.json"]) == 0
    assert Path("d.json").read_bytes() == Path("plain.json").read_bytes()
    assert exit_code(["simulate", "--config", "exp.ini"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json", "exp.ini", "plain.json"]


def test_ini_key_that_is_no_option_of_the_command_is_usage_error(tmp_path, monkeypatch,
                                                                  capsys):
    # a file written for an older version (p-star, max-rounds) must not run
    # with another meaning; keys inherited from [DEFAULT] are not the
    # section's own, so only a key the section sets itself is refused
    monkeypatch.chdir(tmp_path)
    Path("old.ini").write_text("[DEFAULT]\nsystems = a.json\ntrials = 5000\n"
                               "[design]\nm = 8\np-star = 2\nmax-rounds = 0\n")
    assert run(["design", "--config", "old.ini", "-o", "d.json"]) == 2
    assert capsys.readouterr().err == ("design: [design] in old.ini sets max-rounds, p-star: "
                                       "not an option of design; its keys are candidate-cap, "
                                       "eh, m, n, pa, rho, seed\n")
    Path("own.ini").write_text("[DEFAULT]\nsystems = a.json\n[design]\nsystems = b.json\n")
    assert run(["design", "--config", "own.ini", "-o", "d.json"]) == 2
    assert "sets systems: not an option of design" in capsys.readouterr().err
    Path("fe.ini").write_text("[fit-eh]\ninit-scale = 2\n[design]\nm = 8\n")
    assert run(["fit-eh", "--config", "fe.ini", "--synthetic", "-o", "f.json"]) == 2
    assert "sets init-scale" in capsys.readouterr().err
    assert not any(Path(name).exists() for name in ("d.json", "f.json"))
    Path("ok.ini").write_text("[DEFAULT]\nsystems = a.json\ntrials = 5000\n[design]\nm = 8\n")
    assert run(["design", "--config", "ok.ini", "-o", "d.json"]) == 0
    assert sk.Codebook.load("d.json").m == 8


def test_ini_key_of_a_long_alias_sets_its_option(tmp_path, monkeypatch, capsys):
    # --lam has the long alias --lambda: either key sets it, both are refused
    monkeypatch.chdir(tmp_path)
    flags = ["train", "--iters", 5, "--pa", 100, "--eh", FIXTURE_EH]
    Path("alias.ini").write_text("[train]\nlambda = 0.3\n")
    assert run([*flags, "--config", "alias.ini", "-o", "ini.json"]) == 0
    assert run([*flags, "--lam", 0.3, "-o", "flags.json"]) == 0
    assert run([*flags, "-o", "zero.json"]) == 0
    assert Path("ini.json").read_bytes() == Path("flags.json").read_bytes()
    assert Path("ini.json").read_bytes() != Path("zero.json").read_bytes()
    Path("both.ini").write_text("[train]\nlam = 0.1\nlambda = 0.3\n")
    assert run([*flags, "--config", "both.ini", "-o", "both.json"]) == 2
    assert "sets lam and lambda, two keys of one option" in capsys.readouterr().err
    assert not Path("both.json").exists()


def test_parser_is_built_once_and_a_config_run_leaves_it_unchanged(tmp_path, monkeypatch):
    # a config run parses its file's values as flags through the one parser
    from swiptkit import cli

    monkeypatch.chdir(tmp_path)
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(()) or real())
    cli._parser.cache_clear()
    try:
        Path("exp.ini").write_text("[design]\nm = 8\n")
        assert run(["design", "-o", "a.json"]) == 0
        assert run(["design", "--config", "exp.ini", "-o", "b.json"]) == 0
        assert run(["design", "-o", "c.json"]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [()]
    assert sk.Codebook.load("b.json").m == 8
    assert Path("a.json").read_bytes() == Path("c.json").read_bytes()


@pytest.mark.parametrize("args", [
    ["simulate", "--design", "d.json", "-o", "out.json"],
    ["simulate", "--design", "d.json", "--eh", "eh.json", "-o", "out.json"],
    ["train", "--m", 8, "--pa", 100, "--iters", 5, "-o", "out.json"],
    ["sweep", "--m", 8, "--pa", 100, "--trials", 1000, "-o", "out.json"],
])
def test_snr_whose_noise_variance_overflows_is_usage_error(tmp_path, monkeypatch, capsys,
                                                          quick_eh, args):
    # P_a / SNR = 100 / 1e-310 overflows to inf
    monkeypatch.chdir(tmp_path)
    Path("eh.json").write_bytes(quick_eh.read_bytes())
    assert run(["design", "--m", 8, "--pa", 100, "-o", "d.json"]) == 0
    capsys.readouterr()
    assert run(args + ["--snr", "1e-310"]) == 2
    assert "snr 1e-310 is too small" in capsys.readouterr().err
    assert not Path("out.json").exists()


@pytest.mark.parametrize("args", [
    ["simulate", "--design", "d.json", "--eh", "eh.json", "-o", "out.json"],
    ["sweep", "--m", 16, "--pa", 100, "--trials", 1000, "-o", "out.json"],
    ["sweep", "--designer", "learned", "--systems", "sys.json", "--pa", 100,
     "--trials", 1000, "--eh", "eh.json", "-o", "out.json"],
])
def test_snr_whose_quadrature_input_power_overflows_is_usage_error(tmp_path, monkeypatch,
                                                                   capsys, quick_eh, args):
    # P_a / SNR = 1e308 is finite, but the quadrature's (max|c| + 12 sigma)^2
    # is not: the run exits 2 naming the SNR, before any Monte Carlo pass
    import swiptkit.autoencoder as ae
    monkeypatch.chdir(tmp_path)
    Path("eh.json").write_bytes(quick_eh.read_bytes())
    assert run(["design", "--m", 16, "--pa", 100, "-o", "d.json"]) == 0
    assert run(["train", "--m", 4, "--pa", 100, "--iters", 5, "-o", "sys.json"]) == 0
    capsys.readouterr()

    def no_pass(*args, **kwargs):
        raise AssertionError("the Monte Carlo pass ran")

    monkeypatch.setattr(channel, "monte_carlo", no_pass)
    monkeypatch.setattr(ae, "monte_carlo", no_pass)
    assert run(args + ["--snr", "1e-306"]) == 2
    assert "snr 1e-306 is too small" in capsys.readouterr().err
    assert not Path("out.json").exists()


def test_fit_design_train_and_learned_sweep_are_byte_identical_per_seed(tmp_path,
                                                                      monkeypatch):
    # relative paths, since the paths given enter the outputs' config hash;
    # the second run decodes on one worker
    def outputs(name, pool):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        common = ["--pa", 100, "--eh", "eh.json", "--seed", 5]
        with mock.patch.object(channel, "_decode_pool", pool):
            assert run(["fit-eh", "--synthetic", "--points", 100, "--epochs", 300,
                        "--noise-rel", 0.05, "--seed", 5, "-o", "eh.json"]) == 0
            assert run(["design", "--m", 8, "--n", 2, "--rho", 0.5, "--candidate-cap", 2000,
                        *common, "-o", "design.json"]) == 0
            assert run(["train", "--m", 8, "--batch", 128, "--iters", 30, "--lam", 0.1,
                        *common, "-o", "sys.json", "--trace", "trace.csv",
                        "--extract", "tx.json"]) == 0
            assert run(["sweep", "--designer", "learned", "--systems", "sys.json",
                        "--trials", 3000, *common, "-o", "sweep.csv"]) == 0
        return {p.name: p.read_bytes() for p in sorted(Path().iterdir())}

    first = outputs("a", channel._decode_pool)
    assert len(first) == 6
    assert outputs("b", lambda: None) == first


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_train_zero_iterations_is_usage_error(tmp_path, capsys):
    rc = run(["train", "--topology", "p2p", "--m", 4, "--iters", 0,
              "-o", tmp_path / "z.json"])
    assert rc == 2
    assert "iterations must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "z.json").exists()


@pytest.mark.parametrize("kind", ["mac", "bc"])
def test_sweep_learned_scores_multi_user_links(tmp_path, kind):
    # a single-user reading of these systems gives SER 0.057 (MAC) and 0.94
    # (BC), against per-stream rates of about 0.002
    sys_path = tmp_path / f"{kind}.json"
    rc = run(["train", "--topology", kind, "--m", "4,4", "--n", 1, "--pa", 100,
              "--snr", "50" if kind == "mac" else "50,50", "--lam", 0,
              "--iters", 300, "--lr", 3e-3, "--seed", 2, "-o", sys_path])
    assert rc == 0
    out = tmp_path / "s.csv"
    trials = 40_000
    rc = run(["sweep", "--designer", "learned", "--systems", sys_path, "--pa", 100,
              "--snr", 50, "--trials", trials, "--seed", 4, "-o", out])
    assert rc == 0
    row = out.read_text().splitlines()[2].split(",")
    cli_ser, cli_pd = float(row[1]), float(row[3])
    system = sk.load_system(sys_path)
    ref = float(sk.evaluate_ser([system], trials, seed=99)[0].mean())
    pd = np.mean([sk.delivered_power_mc(cw, sk.ChannelSpec(50.0, 100.0, seed=99 + r),
                                        sk.canonical_model(), trials)
                  for r, cw in enumerate(sk.received_codebooks(system))])
    sd = np.sqrt(2.0 * max(cli_ser, ref) * (1.0 - min(cli_ser, ref)) / trials)
    assert abs(cli_ser - ref) <= 3.0 * sd + 1e-6
    if kind == "mac":
        # the two transmitters add up to 200 uW, past the harvester's turn-on;
        # the BC's 100 uW gets its P_d from rare noise peaks only
        assert cli_pd == pytest.approx(pd, rel=0.1)


def test_sweep_learned_scores_each_system_at_its_own_pa(tmp_path, capsys):
    # the noise variance is the system's P_a over --snr, whatever --pa says:
    # read at --pa 5, this 100 uW system once gave SER 0 and P_d 8.2e-32 uW
    # with a below-turn-on warning; the warning names the rows' own P_a
    for name, pa in (("sys", 100), ("low", 5)):
        assert run(["train", "--m", 16, "--pa", pa, "--snr", 50, "--iters", 300, "--lam", 0,
                    "--seed", 5, "-o", tmp_path / f"{name}.json"]) == 0
    capsys.readouterr()
    rows, errs = [], []
    for name, pa in (("sys", 5), ("sys", 100), ("low", 100)):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--designer", "learned", "--systems", tmp_path / f"{name}.json",
                    "--pa", pa, "--snr", 50, "--trials", 20_000, "--seed", 1, "-o", out]) == 0
        rows.append(out.read_text().splitlines()[2])
        errs.append(capsys.readouterr().err)
    assert rows[0] == rows[1] and float(rows[1].split(",")[1]) > 0
    assert errs[0] == errs[1] == ""
    assert "P_a = 5 uW lies below the harvester's turn-on" in errs[2]


def test_sweep_learned_scores_every_system_in_one_pass_per_draw_group(tmp_path, monkeypatch):
    # three P2P M = 16 systems and a MAC (4, 4) send 16x1 joint codebooks to
    # receiver 0 at one P_a, so one pass scores them all, where one pass per
    # system made four; a BC adds its receiver 1, seeded seed + 1. Every row
    # is byte for byte that of the system's own sweep
    monkeypatch.chdir(tmp_path)
    systems = []
    for k, (topology, m, snr) in enumerate([("p2p", "16", "50")] * 3
                                           + [("mac", "4,4", "50"), ("bc", "4,4", "50,50")]):
        systems.append(f"{topology}{k}.json")
        assert run(["train", "--topology", topology, "--m", m, "--pa", 100, "--snr", snr,
                    "--iters", 50, "--seed", k, "-o", systems[-1]]) == 0
    passes = []
    sample = channel.sample_channel
    monkeypatch.setattr(channel, "sample_channel",
                        lambda *args: passes.append(args[:2]) or sample(*args))

    def sweep(paths):
        passes.clear()
        assert run(["sweep", "--designer", "learned", "--systems", ",".join(paths),
                    "--pa", 100, "--snr", 30, "--trials", 3000, "--seed", 7, "-o", "s.csv"]) == 0
        return Path("s.csv").read_text().splitlines()[2:]

    for paths, groups in ((systems[:4], 1), (systems, 2)):
        rows = sweep(paths)
        assert passes == [(16, 1)] * groups and len(rows) == len(paths)
        for path, row in zip(paths, rows):
            assert sweep([path]) == [row]
    assert len(set(rows)) == len(rows)


@pytest.mark.parametrize("flags, message", [
    (["--lam", "nan"], "lambda must be finite and >= 0"),
    (["--lam", -1], "lambda must be finite and >= 0"),
    (["--lam", "inf"], "lambda must be finite and >= 0"),
    (["--lr", 0], "learning_rate must be finite and positive"),
    (["--lr", -1], "learning_rate must be finite and positive"),
    (["--lr", "nan"], "learning_rate must be finite and positive"),
    (["--snr", "nan"], "snr must be positive"),
    (["--pd-floor", "nan"], "pd_floor must be finite and positive"),
    (["--m", 0], "message sizes must be >= 1"),
    (["--n", 0], "n must be >= 1"),
    (["--topology", "ic", "--m", "4,4", "--snr", "50,50", "--gain", "nan"],
     "IC gains must be finite"),
])
def test_train_rejects_bad_config(tmp_path, capsys, flags, message):
    out = tmp_path / "bad.json"
    args = {"--topology": "p2p", "--m": 4, "--iters": 20}
    for flag, value in zip(flags[0::2], flags[1::2]):
        args[flag] = value
    rc = run(["train", *[a for kv in args.items() for a in kv], "-o", out])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_infinite_snr_is_noiseless(tmp_path):
    out = tmp_path / "sys.json"
    rc = run(["train", "--topology", "p2p", "--m", 4, "--snr", "inf", "--iters", 20,
              "-o", out])
    assert rc == 0
    assert sk.load_system(out).topology.snrs == [float("inf")]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("rho", ["nan", -0.5, 1.5])
def test_design_rejects_rho_outside_unit_interval(tmp_path, capsys, n, rho):
    out = tmp_path / "d.json"
    rc = run(["design", "--m", 4, "--n", n, "--pa", 5, "--rho", rho, "-o", out])
    assert rc == 2
    assert "rho must be in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content, field", [
    ("{}", "'points'"),
    ('{"m": 4, "p_a_uw": 5.0, "rho": 0.0, "meta": {}}', "'points'"),
    ("[[1.0, 0.0], [-1.0, 0.0]]", "'points'"),
    ('{"m": 2, "n": 2, "p_a_uw": 5.0, "rho": 0.0, "base_points": [[1.0, 0.0], [-1.0, 0.0]], '
     '"codewords": [{"indices": [0, 1]}, {"indices": [1, 2]}]}', "codewords"),
], ids=["empty", "no-points", "list", "index-past-base"])
def test_simulate_rejects_malformed_design(tmp_path, capsys, content, field):
    design = tmp_path / "bad.json"
    design.write_text(content)
    rc = run(["simulate", "--design", design, "--trials", 1000, "-o", tmp_path / "sim.json"])
    assert rc == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "sim.json").exists()


def test_sweep_learned_rejects_malformed_system(tmp_path, capsys):
    system = tmp_path / "bad.json"
    system.write_text("{}")
    rc = run(["sweep", "--designer", "learned", "--systems", system, "--trials", 1000,
              "-o", tmp_path / "s.csv"])
    assert rc == 2
    assert "'topology'" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--design", "{dir}", "--trials", 1000],
    ["design", "--m", 4, "--pa", 5, "-o", "{dir}"],
    ["sweep", "--designer", "learned", "--systems", "{dir}", "--trials", 1000],
    ["fit-eh", "--data", "{dir}"],
], ids=["simulate-design", "design-output", "sweep-systems", "fit-eh-data"])
def test_directory_path_is_usage_error(tmp_path, capsys, argv):
    argv = [str(tmp_path) if a == "{dir}" else a for a in argv]
    if "-o" not in argv:
        argv += ["-o", tmp_path / "out"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Is a directory" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, message", [
    ('{"w1": [1, 2, 3]}', "missing field 'b1'"),
    ("[1, 2]", "expected a JSON object"),
], ids=["missing-field", "not-an-object"])
def test_design_rejects_malformed_harvester(tmp_path, capsys, content, message):
    eh, out = tmp_path / "eh.json", tmp_path / "d.json"
    eh.write_text(content)
    assert run(["design", "--m", 4, "--pa", 5, "--eh", eh, "-o", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("topology, section, edit, message", [
    (["--topology", "p2p", "--m", 4], None, {"decoders": []}, "'decoders'"),
    (["--topology", "p2p", "--m", 2], "topology", {"kind": "mac", "m_list": [2, 2]},
     "'encoders'"),
    # the nets still fit each other, but not the topology or the block length
    (["--topology", "p2p", "--m", 4], "topology", {"m_list": [8]},
     "'encoders': net 0 layer 0 has weights (64, 4)"),
    (["--topology", "p2p", "--m", 4], "config", {"n": 2}, "'encoders': net 0 has 2 outputs"),
], ids=["no-decoders", "p2p-edited-to-mac", "m-list-edited", "n-edited"])
def test_sweep_learned_rejects_system_with_wrong_net_count(tmp_path, capsys, topology, section,
                                                           edit, message):
    system = tmp_path / "sys.json"
    assert run(["train", *topology, "--iters", 5, "-o", system]) == 0
    d = json.loads(system.read_text())
    (d[section] if section else d).update(edit)
    system.write_text(json.dumps(d))
    out = tmp_path / "s.csv"
    rc = run(["sweep", "--designer", "learned", "--systems", system, "--trials", 1000,
              "-o", out])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


NAN, INF = float("nan"), float("inf")
_RING = ["design", "--m", 4, "--pa", 5]
_SYSTEM = ["train", "--m", 4, "--iters", 5]


@pytest.mark.parametrize("argv, make, keys, value, field", [
    (["simulate", "--design", "{file}", "--trials", 1000], _RING, ["points", 1, 0], NAN,
     "points"),
    (["simulate", "--design", "{file}", "--trials", 1000], _RING, ["points"],
     [[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200], [0.0, -1e200]], "points"),
    (["sweep", "--m", 4, "--pa", 100, "--trials", 1000, "--rho-grid", "0,1", "--eh", "{file}"],
     None, ["w1", 0, 0], NAN, "'w1'"),
    (["design", "--m", 4, "--pa", 100, "--rho", 0.5, "--eh", "{file}"], None, ["w1", 0, 0],
     NAN, "'w1'"),
    (["design", "--m", 4, "--pa", 100, "--rho", 0.5, "--eh", "{file}"], None,
     ["power_scale"], INF, "'power_scale'"),
    (["sweep", "--designer", "learned", "--systems", "{file}", "--trials", 1000], _SYSTEM,
     ["decoders", 0, "biases", -1, 0], NAN, "'decoders'"),
], ids=["simulate-nan-point", "simulate-power-overflows", "sweep-eh-nan-weight",
        "design-eh-nan-weight", "design-eh-inf-scale", "sweep-learned-nan-weight"])
def test_non_finite_input_file_is_usage_error(tmp_path, capsys, argv, make, keys, value, field):
    # the input file is made by `make` (the fitted fixture when None), then one
    # value in it is replaced
    path = tmp_path / "in.json"
    if make is None:
        path.write_text(FIXTURE_EH.read_text())
    else:
        assert run(make + ["-o", path]) == 0
    d = json.loads(path.read_text())
    target = d
    for k in keys[:-1]:
        target = target[k]
    target[keys[-1]] = value
    path.write_text(json.dumps(d))   # NaN and inf as JSON's NaN and Infinity literals
    capsys.readouterr()
    out = tmp_path / "out"
    rc = run([path if a == "{file}" else a for a in argv] + ["-o", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: ") and field in err and "Traceback" not in err
    assert not out.exists()


def test_memory_error_is_usage_error(tmp_path, capsys, monkeypatch):
    # the size that asks for 74.5 GiB is never requested: the allocation fails here
    import swiptkit.autoencoder as ae

    def too_large(topo, tx):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(100000, 100000) and data type float64")

    monkeypatch.setattr(ae, "_encoder_input", too_large)
    out = tmp_path / "s.json"
    rc = run(["train", "--m", 4, "--iters", 1, "--batch", 1, "-o", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("train: Unable to allocate 74.5 GiB") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    ("", "empty dataset file"),
    ("p_in_uw,p_out_uw\n", "dataset must be nonempty"),
    ("p_in_uw,p_out_uw\n1.0,0.5\n2.0\n", "line 3"),
], ids=["empty", "header-only", "short-row"])
def test_fit_eh_rejects_malformed_dataset(tmp_path, capsys, content, message):
    data, out = tmp_path / "data.csv", tmp_path / "eh.json"
    data.write_text(content)
    assert run(["fit-eh", "--data", data, "-o", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rounds", [0, -3])
def test_design_rejects_max_rounds_below_one(tmp_path, capsys, rounds):
    # --max-rounds is gone: the greedy search's pass count is bounded by its bracket,
    # so any value, a bad one included, is refused as an unknown option
    out = tmp_path / "d.json"
    rc = exit_code(["design", "--m", 16, "--n", 2, "--pa", 100, "--max-rounds", rounds,
                    "-o", out])
    assert rc == 2
    assert "unrecognized arguments: --max-rounds" in capsys.readouterr().err
    assert not out.exists()


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_infinite_snr_files_are_strict_json(tmp_path):
    sys_path, extract = tmp_path / "sys.json", tmp_path / "des.json"
    assert run(["train", "--topology", "p2p", "--m", 4, "--snr", "inf", "--iters", 20,
                "-o", sys_path, "--extract", extract]) == 0
    assert _strict_json(sys_path)["topology"]["snrs"] == ["inf"]
    assert sk.load_system(sys_path).topology.snrs == [float("inf")]
    out = tmp_path / "s.csv"
    assert run(["sweep", "--designer", "learned", "--systems", sys_path, "--trials", 1000,
                "-o", out]) == 0
    assert len(out.read_text().splitlines()) == 3
    sim = tmp_path / "sim.json"
    assert run(["simulate", "--design", extract, "--snr", "inf", "--trials", 1000,
                "-o", sim]) == 0
    assert _strict_json(sim)["snr"] == "inf"


@settings(max_examples=25)
@given(m=st.sampled_from([2, 4, 8, 16]), n=st.sampled_from([1, 2]), pa=st.floats(1.0, 300.0),
       snr=st.floats(0.5, 100.0), rho=st.floats(0.0, 1.0), seed=st.integers(0, 2**16),
       trials=st.integers(1000, 4000))
def test_monte_carlo_outputs_are_byte_identical_per_seed(two_workers, m, n, pa, snr, rho,
                                                         seed, trials):
    # the decode is threaded: outputs must not depend on the run or on the
    # worker count; small blocks make even these trial counts several blocks.
    # Every run writes the same paths, which the outputs' config hash covers
    def outputs(pool):
        with mock.patch.object(channel, "_BLOCK", 500), \
                mock.patch.object(channel, "_decode_pool", lambda: pool):
            common = ["--snr", snr, "--trials", trials, "--seed", seed]
            assert run(["simulate", "--design", tmp / "d.json", *common,
                        "-o", tmp / "sim.json"]) == 0
            assert run(["sweep", "--designer", "algorithmic", "--m", m, "--n", n, "--pa", pa,
                        "--rho-grid", "0:1:3", "--candidate-cap", 2000, *common,
                        "-o", tmp / "sweep.csv"]) == 0
            return [(tmp / name).read_bytes() for name in ("sim.json", "sweep.csv")]

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert run(["design", "--m", m, "--n", n, "--pa", pa, "--rho", rho,
                    "--seed", seed, "--candidate-cap", 2000, "-o", tmp / "d.json"]) == 0
        first = outputs(two_workers)
        assert outputs(two_workers) == first
        assert outputs(None) == first


FIXTURE_EH = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "eh_fitted.json"


def _run_twice(argv, directory):
    """The files in ``directory`` after one run of ``argv``, and after a
    second that writes the same paths (which the outputs' config hash covers)."""
    runs = []
    for _ in range(2):
        assert run(argv) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(directory.iterdir())})
    return runs


@settings(max_examples=40)
@given(m=st.integers(1, 16), n=st.integers(1, 3), pa=st.floats(1.0, 300.0),
       rho=st.floats(0.0, 1.0), seed=st.integers(0, 2**16), cap=st.integers(200, 3000),
       eh=st.booleans())
def test_design_outputs_are_byte_identical_per_seed(m, n, pa, rho, seed, cap, eh):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = _run_twice(["design", "--m", m, "--n", n, "--pa", pa, "--rho", rho,
                                    "--seed", seed, "--candidate-cap", cap,
                                    *(["--eh", FIXTURE_EH] if eh else []),
                                    "-o", Path(tmp) / "d.json"], Path(tmp))
        assert first == second


@st.composite
def train_configs(draw):
    kind = draw(st.sampled_from(["p2p", "bc", "mac", "ic"]))
    m_list = draw(st.lists(st.sampled_from([2, 4, 8]), min_size=1 if kind == "p2p" else 2,
                           max_size=1 if kind == "p2p" else 2))
    n_rx = 1 if kind in ("p2p", "mac") else 2
    snrs = draw(st.lists(st.sampled_from([math.inf, 50.0, 8.0]), min_size=n_rx,
                         max_size=n_rx))
    lam = draw(st.sampled_from([0.0, 0.03, 0.3]))
    return ["--topology", kind, "--m", ",".join(map(str, m_list)),
            "--snr", ",".join(map(str, snrs)), "--lam", lam,
            "--n", draw(st.integers(1, 2)), "--pa", draw(st.floats(20.0, 300.0)),
            "--gain", draw(st.floats(0.0, 1.0)), "--batch", draw(st.integers(8, 128)),
            "--iters", draw(st.integers(1, 30)), "--seed", draw(st.integers(0, 2**16)),
            *(["--eh", FIXTURE_EH] if lam > 0 else [])]


@settings(max_examples=20)
@given(config=train_configs())
def test_train_outputs_are_byte_identical_per_seed(config):
    # noiseless receivers included: they draw their (zero) noise like the rest
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        first, second = _run_twice(["train", *config, "-o", tmp / "sys.json",
                                    "--trace", tmp / "trace.csv", "--extract", tmp / "tx.json"],
                                   tmp)
        assert first == second


@settings(max_examples=8)
@given(points=st.integers(10, 300), pmax=st.floats(2.0, 5000.0),
       noise=st.sampled_from([0.0, 0.01, 0.2]), seed=st.integers(0, 2**16),
       epochs=st.integers(1, 300))
def test_fit_eh_outputs_are_byte_identical_per_seed(points, pmax, noise, seed, epochs):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        first, second = _run_twice(["fit-eh", "--synthetic", "--points", points, "--pmax", pmax,
                                    "--noise-rel", noise, "--seed", seed, "--epochs", epochs,
                                    "-o", tmp / "eh.json"], tmp)
        assert first == second


@settings(max_examples=6)
@given(config=train_configs(), snr=st.sampled_from([math.inf, 50.0, 8.0, 0.5]),
       pa=st.floats(20.0, 300.0), trials=st.integers(1000, 3000),
       seed=st.integers(0, 2**16), eh=st.booleans())
def test_learned_sweep_outputs_are_byte_identical_per_seed(config, snr, pa, trials, seed, eh):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert run(["train", *config, "-o", tmp / "sys.json"]) == 0
        first, second = _run_twice(["sweep", "--designer", "learned", "--systems",
                                    tmp / "sys.json", "--snr", snr, "--pa", pa,
                                    "--trials", trials, "--seed", seed,
                                    *(["--eh", FIXTURE_EH] if eh else []),
                                    "-o", tmp / "sweep.csv"], tmp)
        assert first == second


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("topology, m", [("p2p", "16"), ("mac", "4,4")])
def test_diverging_train_exits_3_with_its_trace_at_any_lambda(tmp_path, topology, m, lam):
    # a learning rate of 1.5e308 makes the first update overflow, so step 1 is
    # not finite: at lambda = 0 its loss, at lambda > 0 first the received
    # power the harvester would take. The step's overflow shows only as that
    # loss, also when warnings are errors
    trace, out = tmp_path / "t.csv", tmp_path / "s.json"
    proc = fresh_cli(["train", "--topology", topology, "--m", m, "--pa", 100, "--lam", lam,
                      "--lr", 1.5e308, "--iters", 300, "--eh", FIXTURE_EH, "--trace", trace,
                      "-o", out], tmp_path, "-W", "error::RuntimeWarning")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "train: diverged at iteration 1\n"
    lines = trace.read_text().splitlines()
    assert lines[1] == "iteration,loss,xent_term,power_term" and len(lines) == 3
    assert lines[2].startswith("0,")
    assert not out.exists()


# --- cold start: only fit-eh imports SciPy ----------------------------------


def _fresh_scipy_modules(argv, directory):
    """(exit code, loaded ``scipy*`` modules) of a fresh interpreter that
    imports ``swiptkit.cli`` and, unless ``argv`` is None, runs ``main(argv)``."""
    code = ("import json, sys\n"
            "import swiptkit.cli\n"
            "argv = json.loads(sys.argv[1])\n"
            "rc = None if argv is None else swiptkit.cli.main(argv)\n"
            "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    argv = None if argv is None else [str(a) for a in argv]
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], cwd=directory,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    return rc, set(modules)


@pytest.mark.parametrize("argv", [
    None,
    ["design", "--m", 8, "--n", 2, "--rho", 0.5, "--candidate-cap", 200, "-o", "d.json"],
    ["design", "--m", 8, "--rho", 1, "-o", "d.json"],
    ["train", "--m", 4, "--snr", 50, "--batch", 16, "--iters", 5, "-o", "s.json",
     "--trace", "t.csv", "--extract", "x.json"],
], ids=["import", "design-coded", "design-ring", "train"])
def test_import_design_and_train_load_no_scipy(tmp_path, argv):
    rc, modules = _fresh_scipy_modules(argv, tmp_path)
    assert rc == (None if argv is None else 0)
    assert modules == set()


def test_simulate_and_sweep_load_no_scipy(tmp_path):
    # P_d's Bessel factor and the sigmoid's logistic are computed in the package,
    # and a fitted harvester is evaluated without SciPy
    assert run(["design", "--m", 4, "--pa", 100, "-o", tmp_path / "d.json"]) == 0
    sweep = ["sweep", "--m", 4, "--pa", 100, "--trials", 1000, "--rho-grid", "0,1",
             "--candidate-cap", 200, "-o", "sw.csv"]
    for argv in (["simulate", "--design", "d.json", "--snr", 20, "--trials", 1000,
                  "--eh", FIXTURE_EH], sweep, sweep + ["--eh", FIXTURE_EH],
                 ["design", "--m", 8, "--pa", 100, "--rho", 0.5, "--eh", FIXTURE_EH,
                  "-o", "de.json"],
                 ["train", "--m", 4, "--pa", 100, "--lam", 0.3, "--eh", FIXTURE_EH,
                  "--batch", 16, "--iters", 5, "-o", "s.json"]):
        rc, modules = _fresh_scipy_modules(argv, tmp_path)
        assert rc == 0
        assert modules == set()


def test_fit_eh_loads_no_scipy(tmp_path):
    # the fit's L-BFGS is in the package
    rc, modules = _fresh_scipy_modules(["fit-eh", "--synthetic", "--points", 60,
                                        "--epochs", 50, "-o", "eh.json"], tmp_path)
    assert rc == 0 and modules == set()
    assert sk.EhModel.load(tmp_path / "eh.json").rmse is not None
