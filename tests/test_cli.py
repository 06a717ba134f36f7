import json

import numpy as np
import pytest

import swiptkit as sk
from swiptkit.cli import main


def run(args):
    return main([str(a) for a in args])


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


def test_design_constellation_m_on_fingerprint(tmp_path, capsys):
    out = tmp_path / "d.json"
    rc = run(["design", "--m", 32, "--n", 1, "--pa", 5, "--rho", 1,
              "--p-star", 5.0 / 317.0, "-o", out])
    assert rc == 0
    assert "M_on=1" in capsys.readouterr().out
    c = sk.Constellation.load(out)
    assert c.m_on == 1 and c.avg_power() == pytest.approx(5.0, rel=1e-9)


def test_design_m_on_12_with_harvester(tmp_path, canonical_fit, capsys):
    eh = tmp_path / "eh.json"
    canonical_fit.save(eh)
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
    des = sk.Constellation.load(extract)
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
    des = sk.Constellation.load(extract)
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
    cfg.write_text("[design]\nm = 16\nn = 1\npa = 5\nrho = 0\np-star = 0.5\n")
    out = tmp_path / "d.json"
    rc = run(["design", "--config", cfg, "--m", 8, "-o", out])
    assert rc == 0
    c = sk.Constellation.load(out)
    assert c.m == 8        # flag wins
    assert c.p_a_uw == 5.0  # config supplies the rest


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
    ser, pd = sk.evaluate_ser(sk.load_system(sys_path), trials, seed=99,
                              harvester=sk.canonical_model())
    ref = float(ser.mean())
    sd = np.sqrt(2.0 * max(cli_ser, ref) * (1.0 - min(cli_ser, ref)) / trials)
    assert abs(cli_ser - ref) <= 3.0 * sd + 1e-6
    if kind == "mac":
        # the two transmitters add up to 200 uW, past the harvester's turn-on;
        # the BC's 100 uW gets its P_d from rare noise peaks only
        assert cli_pd == pytest.approx(pd, rel=0.1)
