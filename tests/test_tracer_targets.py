"""The traced benchmark wraps `swiptkit` names from outside the package
(`perfbench/tracer.py`); a renamed or deleted name would break only that
run, so check here that every one of them resolves."""

import importlib.util
from pathlib import Path

import swiptkit
import swiptkit.cli  # noqa: F401  (the package does not import its CLI)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _load_tracer()
    missing = []
    for mod, attr, _, _ in tracer._TARGETS:
        owner = getattr(swiptkit, mod, None)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod}.{attr}")
    if not callable(getattr(swiptkit.autoencoder, "make_decoder", None)):
        missing.append("autoencoder.make_decoder")
    assert tracer._TARGETS
    assert not missing, f"perfbench/tracer.py wraps names swiptkit lacks: {missing}"


def test_design_shape_reads_every_design_the_cli_simulates():
    """`_design_shape` counts Monte Carlo symbols from the (M, n) of whatever
    design `ser_mc` gets; `codebook.swipt_codebook` is a second name for the
    one deformation, and the tracer wraps both names."""
    assert swiptkit.codebook.swipt_codebook is swiptkit.constellation.swipt_transform
    tracer = _load_tracer()
    sk = swiptkit
    ring = sk.layout_info(16, 5.0)
    greedy = sk.build_info_codebook(16, 2, 5.0, sk.GreedyConfig(seed=1))
    topo = sk.Topology(kind="p2p", m_list=[8], snrs=[50.0], p_a_uw=5.0)
    learned = sk.extract_design(sk.build_system(topo, sk.TrainConfig(n=3), hidden=(8,)))[0]
    cases = [
        (ring, (16, 1)), (sk.swipt_transform(ring, 0.5, 0.3), (16, 1)),
        (greedy, (16, 2)), (sk.swipt_codebook(greedy, 0.5, 0.3), (16, 2)),
        (sk.onoff_block_code(4, 5.0, 0.25, 4), (4, 4)),
        (sk.qam_reference(16, 5.0), (16, 1)), (learned, (8, 3)),
        (sk.Codebook.from_json(learned.to_json()), (8, 3)),
    ]
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=5.0)
    for design, shape in cases:
        assert tracer._design_shape(design) == shape
        assert design.codewords.shape == shape
        t = tracer.Tracer()
        tracer._trials_counter("channel.ser_mc", 2)(t, (design, spec, 2000), {})
        assert t.counts["channel.trial_symbols"] == 2000 * shape[1]
