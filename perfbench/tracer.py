"""Spans and counters for the traced run, recorded from outside the program.

`install` wraps the public functions of each `swiptkit` module, and rebinds
every name in the package that refers to the original (so functions bound
into `cli` by ``from ... import`` are wrapped there too). Spans are kept in
memory as (name, start, end, parent) and written out by `dump`; `layer_metrics`
turns them into the per-layer numbers, per round.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict

_MODULES = ("cli", "harvester", "autoencoder", "codebook", "constellation", "channel")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.trial_keys: set = set()
        self.round = 0
        self.mc_chunk = 100_000     # Monte Carlo chunk size; `install` reads the program's

    def wrap(self, name, fn, count=None):
        """``name`` is a string, or a function of the call's arguments giving
        one; ``count(tracer, args, kwargs)`` records counters per call.
        """
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if count is not None:
                count(self, args, kwargs)
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]},
                      fh, separators=(",", ":"))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the durations of its direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0,
                                                                "self_s": 0.0})
        for (name, start, end, _), c in zip(self.spans, child):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - c
        return out


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, key):
    """A call's argument by position or keyword; None when not passed."""
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else None


def _design_shape(design) -> tuple[int, int]:
    """(M, n) of a Constellation or Codebook, read from its public fields."""
    return int(design.m), int(getattr(design, "n", 1))


def _count_evaluate(t, args, kwargs):
    t.add("harvester.EhModel.evaluate.points", float(getattr(args[1], "size", 1)))


def _count_train(t, args, kwargs):
    t.add("autoencoder.train.iters", float(args[0].config.iterations))


def _count_forward(t, args, kwargs):
    t.add("autoencoder.mlp_forward.rows", float(len(args[1])))


def _count_candidates(t, args, kwargs):
    m, n = args[0], args[1]
    cap = _arg(args, kwargs, 3, "cfg").candidate_cap
    t.add("codebook.build_info_codebook.candidates", float(min(cap, math.perm(m * n, n))))


def _trials_counter(prefix, trials_pos):
    def count(t, args, kwargs):
        design, spec = args[0], args[1]
        trials = int(_arg(args, kwargs, trials_pos, "trials"))
        m, n = _design_shape(design)
        t.add(f"{prefix}.trials", float(trials))
        # one (design, seed, trials) evaluation counts its trial-symbols once,
        # however many functions draw noise for it
        key = (t.round, m, n, int(spec.seed), trials, float(spec.snr))
        if key not in t.trial_keys:
            t.trial_keys.add(key)
            t.add("channel.trial_symbols", float(trials * n))
        if prefix == "channel.ser_mc" and _arg(args, kwargs, 3, "decoder") is None:
            # the (chunk, M, n) complex128 distance tensor, computed from sizes
            mb = min(trials, t.mc_chunk) * m * n * 16 / 1e6
            t.peaks["channel.ser_mc.decoder_mb"] = max(t.peaks["channel.ser_mc.decoder_mb"], mb)
    return count


def _count_awgn(t, args, kwargs):
    t.add("channel.awgn.samples", float(getattr(args[0], "size", 1)))


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


# (module, attribute, span name, counter); "Class.method" patches the class
_TARGETS = [
    ("cli", "main", _cli_name, None),
    ("harvester", "fit_eh", "harvester.fit_eh", None),
    ("harvester", "eh_loss_and_grad", "harvester.eh_loss_and_grad", None),
    ("harvester", "EhModel.evaluate", "harvester.EhModel.evaluate", _count_evaluate),
    ("harvester", "EhModel.derivative", "harvester.EhModel.derivative", None),
    ("autoencoder", "train", "autoencoder.train", _count_train),
    ("autoencoder", "composite_loss", "autoencoder.composite_loss", None),
    ("autoencoder", "mlp_forward", "autoencoder.mlp_forward", _count_forward),
    ("autoencoder", "mlp_backward", "autoencoder.mlp_backward", None),
    ("autoencoder", "sample_noises", "autoencoder.sample_noises", None),
    ("autoencoder", "extract_design", "autoencoder.extract_design", None),
    ("codebook", "build_info_codebook", "codebook.build_info_codebook", _count_candidates),
    ("codebook", "codebook_min_dist", "codebook.codebook_min_dist", None),
    ("codebook", "swipt_codebook", "codebook.swipt_codebook", None),
    ("constellation", "swipt_transform", "constellation.swipt_transform", None),
    ("channel", "ser_mc", "channel.ser_mc", _trials_counter("channel.ser_mc", 2)),
    ("channel", "delivered_power_mc", "channel.delivered_power_mc",
     _trials_counter("channel.delivered_power_mc", 3)),
    ("channel", "awgn", "channel.awgn", _count_awgn),
]


def _wrap_make_decoder(tracer, make_decoder):
    """The decision function `make_decoder` returns is a closure; time it."""

    def rows(t, args, kwargs):
        y = args[0]
        t.add("autoencoder.decoder.rows", float(len(y) if getattr(y, "ndim", 0) > 1 else 1))

    @functools.wraps(make_decoder)
    def traced_make_decoder(*args, **kwargs):
        return tracer.wrap("autoencoder.decoder", make_decoder(*args, **kwargs), rows)

    return traced_make_decoder


def install(tracer: Tracer, package) -> None:
    """Wrap every target in `package` (the imported `swiptkit`)."""
    mods = {name: getattr(package, name) for name in _MODULES}
    namespaces = [package, *mods.values()]
    tracer.mc_chunk = getattr(mods["channel"], "_CHUNK", tracer.mc_chunk)

    def rebind(orig, new):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, attr, new)

    for mod, attr, name, count in _TARGETS:
        owner = mods[mod]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), count))
            continue
        orig = getattr(owner, attr)
        rebind(orig, tracer.wrap(name, orig, count))
    orig = mods["autoencoder"].make_decoder
    rebind(orig, _wrap_make_decoder(tracer, orig))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("fit-eh", "design", "train", "sweep", "simulate")

# metric name -> (span name, field); field is "s", "self_s" or "calls"
_SPAN_METRICS = {f"cli.{c}.s": (f"cli.{c}", "s") for c in CLI_COMMANDS}
_SPAN_METRICS.update({
    "harvester.fit_eh.self_s": ("harvester.fit_eh", "self_s"),
    "harvester.eh_loss_and_grad.calls": ("harvester.eh_loss_and_grad", "calls"),
    "harvester.eh_loss_and_grad.s": ("harvester.eh_loss_and_grad", "s"),
    "harvester.EhModel.evaluate.calls": ("harvester.EhModel.evaluate", "calls"),
    "harvester.EhModel.evaluate.s": ("harvester.EhModel.evaluate", "s"),
    "harvester.EhModel.derivative.calls": ("harvester.EhModel.derivative", "calls"),
    "harvester.EhModel.derivative.s": ("harvester.EhModel.derivative", "s"),
    "autoencoder.train.self_s": ("autoencoder.train", "self_s"),
    "autoencoder.composite_loss.self_s": ("autoencoder.composite_loss", "self_s"),
    "autoencoder.mlp_forward.s": ("autoencoder.mlp_forward", "s"),
    "autoencoder.mlp_backward.s": ("autoencoder.mlp_backward", "s"),
    "autoencoder.sample_noises.s": ("autoencoder.sample_noises", "s"),
    "autoencoder.decoder.s": ("autoencoder.decoder", "s"),
    "autoencoder.extract_design.s": ("autoencoder.extract_design", "s"),
    "codebook.build_info_codebook.self_s": ("codebook.build_info_codebook", "self_s"),
    "codebook.codebook_min_dist.s": ("codebook.codebook_min_dist", "s"),
    "codebook.codebook_min_dist.calls": ("codebook.codebook_min_dist", "calls"),
    "codebook.swipt_codebook.self_s": ("codebook.swipt_codebook", "self_s"),
    "constellation.swipt_transform.s": ("constellation.swipt_transform", "s"),
    "channel.ser_mc.self_s": ("channel.ser_mc", "self_s"),
    "channel.delivered_power_mc.self_s": ("channel.delivered_power_mc", "self_s"),
    "channel.awgn.s": ("channel.awgn", "s"),
})

_COUNT_METRICS = (
    "harvester.EhModel.evaluate.points",
    "autoencoder.train.iters",
    "autoencoder.mlp_forward.rows",
    "autoencoder.decoder.rows",
    "codebook.build_info_codebook.candidates",
    "channel.ser_mc.trials",
    "channel.delivered_power_mc.trials",
    "channel.awgn.samples",
)


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Every per-layer metric, per round; 0 where the layer did not run."""
    totals = tracer.totals()
    out = {}
    for metric, (span, fld) in _SPAN_METRICS.items():
        out[metric] = totals[span][fld] / rounds if span in totals else 0.0
    for metric in _COUNT_METRICS:
        out[metric] = tracer.counts.get(metric, 0.0) / rounds
    denom = tracer.counts.get("channel.trial_symbols", 0.0)
    out["channel.awgn.samples_per_trial"] = (
        tracer.counts.get("channel.awgn.samples", 0.0) / denom if denom else 0.0)
    out["channel.ser_mc.decoder_mb"] = tracer.peaks.get("channel.ser_mc.decoder_mb", 0.0)
    return out


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric, in the order BENCHMARK.json lists them."""
    units = {}
    for metric in _SPAN_METRICS:
        units[metric] = "count" if metric.endswith(".calls") else "s"
    for metric in _COUNT_METRICS:
        units[metric] = "count"
    units["channel.awgn.samples_per_trial"] = "ratio"
    units["channel.ser_mc.decoder_mb"] = "MB-computed"
    return units
