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


def test_design_constellation_m_on_fingerprint(tmp_path, capsys):
    out = tmp_path / "d.json"
    rc = run(["design", "--m", 32, "--n", 1, "--pa", 5, "--rho", 1,
              "--p-star", 5.0 / 317.0, "-o", out])
    assert rc == 0
    assert "M_on=1" in capsys.readouterr().out
    c = sk.Codebook.load(out)
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
    canonical_fit.save(eh)
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
    cfg.write_text("[design]\nm = 16\nn = 1\npa = 5\nrho = 0\np-star = 0.5\n")
    out = tmp_path / "d.json"
    rc = run(["design", "--config", cfg, "--m", 8, "-o", out])
    assert rc == 0
    c = sk.Codebook.load(out)
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
    system = sk.load_system(sys_path)
    ref = float(sk.evaluate_ser(system, trials, seed=99).mean())
    pd = np.mean([sk.delivered_power_mc(cw, sk.ChannelSpec(50.0, 100.0, seed=99 + r),
                                        sk.canonical_model(), trials)
                  for r, cw in enumerate(sk.received_codebooks(system))])
    sd = np.sqrt(2.0 * max(cli_ser, ref) * (1.0 - min(cli_ser, ref)) / trials)
    assert abs(cli_ser - ref) <= 3.0 * sd + 1e-6
    if kind == "mac":
        # the two transmitters add up to 200 uW, past the harvester's turn-on;
        # the BC's 100 uW gets its P_d from rare noise peaks only
        assert cli_pd == pytest.approx(pd, rel=0.1)


@pytest.mark.parametrize("flags, message", [
    (["--lam", "nan"], "lambda must be finite and >= 0"),
    (["--lam", -1], "lambda must be finite and >= 0"),
    (["--lam", "inf"], "lambda must be finite and >= 0"),
    (["--lr", 0], "learning_rate must be finite and positive"),
    (["--lr", -1], "learning_rate must be finite and positive"),
    (["--lr", "nan"], "learning_rate must be finite and positive"),
    (["--snr", "nan"], "SNRs must be positive"),
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
