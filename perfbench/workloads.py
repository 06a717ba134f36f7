"""The benchmark's workloads: each is a fixed list of `swiptkit` CLI operations
built from the run's seed. Used by the worker (which runs them) and by the
checker (which reads their outputs); imports nothing from `swiptkit`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

P_A_UW = 100.0          # above the harvester's turn-on, so the tradeoff shows
FIXTURE = "perfbench/fixtures/eh_fitted.json"

LEARNED_LAMBDAS = (0.0, 0.03, 0.3)
LEARNED_SNR = 50.0
LEARNED_TRIALS = 200_000
MAC_M = (4, 4)
MAC_SEED = 0            # the failing MAC operation must not depend on --seed

CODED_M, CODED_N, CODED_RHO, CODED_CAP = 64, 3, 0.5, 200_000
# The greedy search's pass count depends on its seed (11 to 19 passes, 6.0 to
# 7.4 s), so the design seed is fixed and every run searches the same
# candidate set; --seed drives the Monte Carlo.
CODED_DESIGN_SEED = 0
CODED_SNR, CODED_TRIALS = 10.0, 1_000_000

RING_M, RING_SNR, RING_TRIALS = 16, 50.0, 1_000_000
RING_GRID = "0:1:11"
RING_RHOS = [float(r) for r in np.linspace(0.0, 1.0, 11)]   # as the CLI parses RING_GRID
FIT_EPOCHS, FIT_NOISE = 10_000, 0.05


@dataclass
class Op:
    """One CLI invocation: ``swiptkit <argv>``, writing ``outputs``.

    ``known_fault`` marks the operation whose check fails because of a fault
    in the program; its failure counts in ``failed`` and not against
    ``correct``.
    """

    name: str
    argv: list[str]
    outputs: list[str]
    known_fault: bool = False
    info: dict = field(default_factory=dict)


def _seeds(seed: int, k: int) -> list[int]:
    rnd = random.Random(seed)
    return [rnd.randrange(2**31) for _ in range(k)]


def _lam_tag(lam: float) -> str:
    return f"{lam:g}".replace(".", "p")


def learned_link(seed: int) -> list[Op]:
    s_train, s_sweep = _seeds(seed, 2)
    ops, systems = [], []
    for lam in LEARNED_LAMBDAS:
        tag = _lam_tag(lam)
        sys_path, design = f"p2p_lam{tag}.json", f"p2p_lam{tag}.design.json"
        systems.append(sys_path)
        ops.append(Op(f"train-p2p-lam{tag}",
                      ["train", "--topology", "p2p", "--m", "16", "--n", "1",
                       "--pa", repr(P_A_UW), "--snr", repr(LEARNED_SNR),
                       "--batch", "128", "--iters", "2000", "--lam", repr(lam),
                       "--eh", "{fixture}", "--seed", str(s_train),
                       "-o", sys_path, "--extract", design],
                      [sys_path, design]))
    m_arg = ",".join(str(m) for m in MAC_M)
    ops.append(Op("train-mac",
                  ["train", "--topology", "mac", "--m", m_arg, "--n", "1",
                   "--pa", repr(P_A_UW), "--snr", repr(LEARNED_SNR),
                   "--batch", "128", "--iters", "2000", "--lam", "0.0",
                   "--seed", str(MAC_SEED), "-o", "mac.json",
                   "--extract", "mac.design.json"],
                  ["mac.json", "mac.design.tx0.json", "mac.design.tx1.json"]))
    ops.append(Op("sweep-learned-p2p",
                  ["sweep", "--designer", "learned", "--systems", ",".join(systems),
                   "--pa", repr(P_A_UW), "--snr", repr(LEARNED_SNR),
                   "--trials", str(LEARNED_TRIALS), "--eh", "{fixture}",
                   "--seed", str(s_sweep), "-o", "sweep_p2p.csv"],
                  ["sweep_p2p.csv"], info={"systems": systems}))
    ops.append(Op("sweep-learned-mac",
                  ["sweep", "--designer", "learned", "--systems", "mac.json",
                   "--pa", repr(P_A_UW), "--snr", repr(LEARNED_SNR),
                   "--trials", str(LEARNED_TRIALS), "--eh", "{fixture}",
                   "--seed", str(MAC_SEED), "-o", "sweep_mac.csv"],
                  ["sweep_mac.csv"], known_fault=True,
                  info={"systems": ["mac.json"]}))
    return ops


def coded_design(seed: int) -> list[Op]:
    (s_sim,) = _seeds(seed, 1)
    return [
        Op("design-coded",
           ["design", "--m", str(CODED_M), "--n", str(CODED_N),
            "--pa", repr(P_A_UW), "--rho", repr(CODED_RHO),
            "--candidate-cap", str(CODED_CAP), "--seed", str(CODED_DESIGN_SEED),
            "-o", "coded.json"],
           ["coded.json"]),
        Op("simulate-coded",
           ["simulate", "--design", "coded.json", "--snr", repr(CODED_SNR),
            "--trials", str(CODED_TRIALS), "--eh", "{fixture}",
            "--seed", str(s_sim), "-o", "coded_sim.json"],
           ["coded_sim.json"]),
    ]


def harvester_fit(seed: int) -> list[Op]:
    s_fit, s_sweep = _seeds(seed, 2)
    ops = [Op("fit-eh",
              ["fit-eh", "--synthetic", "--noise-rel", repr(FIT_NOISE),
               "--epochs", str(FIT_EPOCHS), "--seed", str(s_fit),
               "-o", "eh_fit.json"],
              ["eh_fit.json"])]
    # the designs the sweep evaluates, written out so they can be checked
    for i, rho in enumerate(RING_RHOS):
        ops.append(Op(f"design-ring-{i}",
                      ["design", "--m", str(RING_M), "--n", "1",
                       "--pa", repr(P_A_UW), "--rho", repr(rho),
                       "--eh", "eh_fit.json", "-o", f"ring_rho{i}.json"],
                      [f"ring_rho{i}.json"], info={"rho": rho}))
    ops.append(Op("sweep-ring",
                  ["sweep", "--designer", "algorithmic", "--m", str(RING_M),
                   "--n", "1", "--pa", repr(P_A_UW), "--snr", repr(RING_SNR),
                   "--rho-grid", RING_GRID, "--trials", str(RING_TRIALS),
                   "--eh", "eh_fit.json", "--seed", str(s_sweep),
                   "-o", "ring.csv"],
                  ["ring.csv"]))
    return ops


WORKLOADS = {
    "learned_link": learned_link,
    "coded_design": coded_design,
    "harvester_fit": harvester_fit,
}


def operations(workload: str, seed: int, fixture: str) -> list[Op]:
    """The workload's operations, with the fixture path filled in."""
    ops = WORKLOADS[workload](seed)
    for op in ops:
        op.argv = [a.replace("{fixture}", fixture) for a in op.argv]
    return ops
