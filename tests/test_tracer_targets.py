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
