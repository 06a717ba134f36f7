"""Contracts over generated inputs: every design averages exactly P_a, and the
CLI answers bad numbers with exit 0, 2 or 3 and no traceback."""

import contextlib
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swiptkit as sk
from swiptkit import codebook
from swiptkit.cli import main

P_A = st.floats(0.01, 1000.0)
RHO = st.floats(0.0, 1.0)
P_STAR = st.floats(0.0, 1.0, exclude_min=True)


def _deform(base, rho, p_star):
    return sk.swipt_transform(base, rho, p_star) if rho > 0 else base


@given(st.integers(1, 64), P_A, RHO, P_STAR)
def test_ring_averages_p_a(m, pa, rho, p_star):
    design = _deform(sk.layout_info(m, pa), rho, p_star)
    assert design.avg_power() == pytest.approx(pa, rel=1e-9)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       P_A, P_STAR)
def test_onoff_block_code_averages_p_a(n_and_messages, pa, p_star):
    # for 1 <= N_on <= n - 1 there are at least n supports, so m_req <= n fits
    n, m_req = n_and_messages
    code = sk.onoff_block_code(n, pa, p_star, m_req)
    assert code.avg_power() == pytest.approx(pa, rel=1e-9)


@settings(max_examples=30)
@given(st.integers(2, 8), st.integers(2, 3), P_A, RHO, P_STAR, st.integers(0, 2**16))
def test_greedy_codebook_averages_p_a(m, n, pa, rho, p_star, seed):
    with mock.patch.object(codebook, "_greedy_pass", wraps=codebook._greedy_pass) as passes:
        base = sk.build_info_codebook(m, n, pa, sk.GreedyConfig(seed=seed, candidate_cap=2000))
    assert base.m == m and len(np.unique(base.codeword_indices, axis=0)) == m
    assert base.achieved_dmin_sq > 0
    # the search bisects [t^2/2, 2*M*E_max/(M - 1)] down to 0.05*t^2, plus
    # one pass at t^2/2 if no probe picks M
    layout = sk.layout_info(m * n, pa)
    lo, eps = layout.t ** 2 / 2, 0.05 * layout.t ** 2
    hi = 2 * m * n * float(np.max(np.abs(layout.base_points))) ** 2 / (m - 1)
    assert passes.call_count <= math.ceil(math.log2((hi - lo) / eps)) + 1
    design = _deform(base, rho, p_star)
    assert design.avg_power() == pytest.approx(pa, rel=1e-9)


# integer parts reach the bound's equality cases (antipodal pairs, centred
# simplices) and keep squares far from underflow, so a relative tolerance
# covers the rounding of |.|
_INT_MATRIX = st.tuples(st.integers(2, 8), st.integers(1, 3)).flatmap(
    lambda shape: st.lists(st.builds(complex, st.integers(-50, 50), st.integers(-50, 50)),
                           min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    .map(lambda v: np.array(v).reshape(shape)))


@given(_INT_MATRIX)
def test_min_distance_is_below_the_bracket_top(cw):
    # M codewords pairwise d apart: d*M(M - 1)/2 <= sum_{i<j} |c_i - c_j|^2 <= M^2*E_max
    m, n = cw.shape
    cb = sk.Codebook(base_points=cw.ravel(), codeword_indices=np.arange(m * n).reshape(m, n),
                     m=m, n=n, p_a_uw=1.0)
    e_max = float(np.max(np.sum(np.abs(cw) ** 2, axis=1)))
    assert sk.codebook_min_dist(cb) <= 2 * m * e_max / (m - 1) * (1 + 1e-12)


@settings(max_examples=50)
@given(st.integers(2, 1200), st.floats(1e-3, 3e4))
def test_layout_points_are_at_least_t_apart(mn, pa):
    # so distinct greedy candidates differ by >= t^2, and a pass at t^2/2 keeps all
    layout = sk.layout_info(mn, pa)
    assert sk.codebook_min_dist(layout) >= layout.t ** 2 * (1 - 1e-12)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    assert main(["design", "--m", "4", "-o", str(path / "ring.json")]) == 0
    return path


# each flag with the commands that read it, at small sizes
_COMMANDS = {
    "--pa": [["design", "--m", "4"], ["train", "--m", "4", "--iters", "3", "--batch", "8"],
             ["sweep", "--m", "4", "--trials", "1000", "--rho-grid", "0,1"]],
    "--snr": [["train", "--m", "4", "--iters", "3", "--batch", "8"],
              ["sweep", "--m", "4", "--trials", "1000", "--rho-grid", "0,1"],
              ["simulate", "--design", "{dir}/ring.json", "--trials", "1000"]],
    "--rho": [["design", "--m", "4"], ["design", "--m", "4", "--n", "2"]],
    "--p-star": [["design", "--m", "4", "--rho", "0.5"],
                 ["design", "--m", "4", "--n", "2", "--rho", "0.5"]],
    "--noise-rel": [["fit-eh", "--synthetic", "--points", "50", "--epochs", "50"]],
}
CASES = [(flag, cmd) for flag, cmds in _COMMANDS.items() for cmd in cmds]
BAD = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
                st.floats(max_value=0.0, exclude_max=True, allow_infinity=False))


@settings(max_examples=80)
@given(case=st.sampled_from(CASES), value=BAD)
def test_cli_exit_codes_on_bad_numbers(workdir, case, value):
    flag, cmd = case
    # flag=value: argparse would take a lone "-inf" or "-1e-05" for an option
    args = [a.format(dir=workdir) for a in cmd] + [f"{flag}={value!r}", "-o", str(workdir / "out")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(args)
    assert rc in (0, 2, 3), (args, err.getvalue())
    assert "Traceback" not in err.getvalue()
