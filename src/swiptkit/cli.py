"""Batch experiment runner: fit-eh, design, train, sweep, simulate.

Flags mirror config-file keys (INI sections named per subcommand, keys named
as any long flag without its leading dashes, so ``lam`` or ``lambda`` for
``--lam``/``--lambda``); a key of a command's section that is no option of
the command is a usage error. A flag wins over the config file, which wins
over the declared default; INI values are parsed as the flags they name,
types and choices included. Exit codes: 0 success, 2 usage/config error, a
file that cannot be read or written, or an array too large to allocate, 3
numeric failure. All outputs carry a metadata header (tool version, config
hash, seed) and are byte-identical for identical configs and seeds.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__
from .autoencoder import (
    KINDS,
    Topology,
    TrainConfig,
    TrainDivergedError,
    build_system,
    evaluate_ser,
    extract_design,
    load_system,
    received_codebooks,
    system_to_json,
    train,
    write_trace_csv,
)
from .channel import (
    ChannelSpec,
    TradeoffPoint,
    binomial_ci,
    delivered_power,
    rp_sweep,
    ser_mc,
    write_sweep_csv,
)
from .codebook import GreedyConfig, build_info_codebook
from .constellation import Codebook, m_on_count, swipt_transform, write_json
from .harvester import (
    EhModel,
    FitDivergedError,
    PowerDataset,
    canonical_model,
    fit_eh,
    optimal_pon,
    pon_approx,
    synth_dataset,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


# namespace entries that are not the run's parameters, and so are not hashed
_NOT_PARAMS = ("command", "func", "config", "output")


def _meta(args: argparse.Namespace) -> dict:
    """Provenance: the tool, a hash of the run's parameters (every option but
    the config and output paths) and the seed."""
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    blob = json.dumps(params, sort_keys=True, default=str).encode()
    return {"tool": f"swiptkit {__version__}",
            "config_hash": hashlib.sha256(blob).hexdigest()[:16], "seed": args.seed}


def _attach_meta(payload: dict, args: argparse.Namespace) -> dict:
    """Merge provenance into the payload's meta block, a dict or absent
    (design files carry a meta object of their own)."""
    payload.setdefault("meta", {}).update(_meta(args))
    return payload


def _meta_comment(args: argparse.Namespace) -> str:
    return f"swiptkit={__version__} config_hash={_meta(args)['config_hash']} seed={args.seed}"


def _ini_section(args: argparse.Namespace, keys: dict[str, str]) -> dict[str, str]:
    """The config file's values for the options of ``args.command`` that a
    file may set, as raw strings by INI key; ``keys`` maps each INI key
    of the command to its destination. Neither a switch (``--synthetic``) nor
    a required option (``--design``) is read from the file, nor the config
    and output paths. A key of the command's own section that names no
    option of the command is a ValueError that lists the keys it reads, and
    so are two keys of one option (``lam`` and ``lambda``); keys the section
    inherits from ``[DEFAULT]`` are not."""
    if not Path(args.config).is_file():
        raise FileNotFoundError(f"config file not found: {args.config}")
    cfg = configparser.ConfigParser()
    cfg.read(args.config)
    read = {key: dest for key, dest in keys.items()
            if dest not in _NOT_PARAMS + ("synthetic", "design")}
    own = configparser.ConfigParser(default_section="\n", interpolation=None)   # no inheritance
    own.read(args.config)
    if own.has_section(args.command):
        unknown = sorted(set(own.options(args.command)) - set(keys))
        if unknown:
            raise ValueError(f"[{args.command}] in {args.config} sets {', '.join(unknown)}: "
                             f"not an option of {args.command}; its keys are "
                             f"{', '.join(sorted(read))}")
    found = {}
    for key, dest in read.items():
        if cfg.has_option(args.command, key):
            if dest in found:
                raise ValueError(f"[{args.command}] in {args.config} sets {found[dest]} "
                                 f"and {key}, two keys of one option")
            found[dest] = key
    return {key: cfg.get(args.command, key) for key in found.values()}


def _parse_grid(spec: str) -> list[float]:
    """start:stop:count, or a comma-separated list."""
    if ":" in spec:
        start, stop, count = spec.split(":")
        count = int(count)
        if count < 1:
            raise ValueError("grid count must be >= 1")
        return list(np.linspace(float(start), float(stop), count))
    vals = [float(v) for v in spec.split(",") if v.strip()]
    if not vals:
        raise ValueError("empty grid")
    return vals


def _load_harvester(path: str) -> EhModel | None:
    if not path:   # no --eh
        return None
    if not Path(path).is_file():
        raise FileNotFoundError(f"harvester file not found: {path}")
    return EhModel.load(path)


def _p_star(pa: float, harvester: EhModel | None) -> float:
    """The On probability of the deformation: the one that maximizes the
    On-Off power through the command's ``--eh`` harvester, else Eq. 13's
    approximation."""
    return pon_approx(pa) if harvester is None else optimal_pon(pa, harvester)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit_eh(args) -> int:
    if args.synthetic:
        data = synth_dataset(args.points, p_max=args.pmax,
                             noise_rel=args.noise_rel, seed=args.seed)
    elif args.data:
        data = PowerDataset.from_csv(args.data)
    else:
        print("fit-eh: need --synthetic or --data", file=_sys.stderr)
        return EXIT_USAGE

    model = fit_eh(data, args.epochs, args.seed)
    payload = _attach_meta(model.to_json(), args)
    write_json(args.output, payload)
    iterations, reason = model.fit_log
    print(f"fit-eh: {len(data)} points, rmse={model.rmse:.6g} uW, "
          f"iterations={iterations} (stop: {reason}) -> {args.output}")
    return EXIT_OK


def cmd_design(args) -> int:
    if not 0.0 <= args.rho <= 1.0:   # also NaN
        raise ValueError("rho must be in [0, 1]")
    ps = _p_star(args.pa, _load_harvester(args.eh))

    cfg = GreedyConfig(seed=args.seed, candidate_cap=args.candidate_cap)
    base = build_info_codebook(args.m, args.n, args.pa, cfg)
    design = swipt_transform(base, args.rho, ps) if args.rho > 0 else base
    echo = (f"C={design.c} t={design.t:.6g} M_on={m_on_count(args.m, ps)}" if args.n == 1
            else f"dmin_sq={design.achieved_dmin_sq:.6g}")
    write_json(args.output, _attach_meta(design.to_json(), args))
    print(f"design: M={args.m} n={args.n} rho={args.rho} p_star={ps:.6g} {echo} "
          f"-> {args.output}")
    return EXIT_OK


def cmd_train(args) -> int:
    m_list = [int(v) for v in str(args.m).split(",")]
    snrs = [float(v) for v in str(args.snr).split(",")]
    k = len(m_list)
    gains = None
    if args.topology == "ic":
        gains = np.full((k, k), args.gain)
        np.fill_diagonal(gains, 1.0)
    topo = Topology(kind=args.topology, m_list=m_list, snrs=snrs, p_a_uw=args.pa, gains=gains)
    cfg = TrainConfig(lambda_=args.lam, n=args.n, learning_rate=args.lr,
                      batch_size=args.batch, iterations=args.iters,
                      seed=args.seed, pd_floor=args.pd_floor)
    harvester = _load_harvester(args.eh)
    system = build_system(topo, cfg, harvester=harvester)

    comment = _meta_comment(args)
    try:
        trained, trace = train(system)
    except TrainDivergedError as err:
        if args.trace:
            write_trace_csv(args.trace, err.trace, comment)
        print(f"train: diverged at iteration {err.iteration}", file=_sys.stderr)
        return EXIT_NUMERIC

    payload = _attach_meta(system_to_json(trained), args)
    write_json(args.output, payload)
    if args.trace:
        write_trace_csv(args.trace, trace, comment)
    if args.extract:
        designs = extract_design(trained)
        for i, d in enumerate(designs):
            path = args.extract if len(designs) == 1 else \
                str(Path(args.extract).with_suffix("")) + f".tx{i}.json"
            write_json(path, _attach_meta(d.to_json(), args))
    print(f"train: {args.topology} M={m_list} n={args.n} lambda={args.lam} "
          f"final_loss={trained.final_loss:.6g} -> {args.output}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    fitted = _load_harvester(args.eh)
    harvester = fitted or canonical_model()
    spec = ChannelSpec(snr=args.snr, p_a_uw=args.pa, seed=args.seed)

    if args.designer == "algorithmic":
        controls = _parse_grid(args.rho_grid)
        ps = _p_star(args.pa, fitted)
        cfg = GreedyConfig(seed=args.seed, candidate_cap=args.candidate_cap)
        base = build_info_codebook(args.m, args.n, args.pa, cfg)
        points = rp_sweep(lambda rho: swipt_transform(base, rho, ps), controls, spec,
                          harvester, args.trials)
        pas = {args.pa}
    else:
        paths = [p for p in str(args.systems).split(",") if p.strip()]
        if not paths:
            print("sweep: --systems required for --designer learned", file=_sys.stderr)
            return EXIT_USAGE
        systems = [load_system(path) for path in paths]
        pas = {system.topology.p_a_uw for system in systems}
        # a row: the mean SER over streams, and P_d over receivers at the system's P_a
        pds = [float(np.mean([delivered_power(cw, ChannelSpec(args.snr, system.topology.p_a_uw),
                                              harvester) for cw in received_codebooks(system)]))
               for system in systems]
        sers = [float(np.mean(e)) for e in evaluate_ser(systems, args.trials, args.seed, args.snr)]
        points = [TradeoffPoint(system.config.lambda_, ser, pd, binomial_ci(ser, args.trials))
                  for system, pd, ser in zip(systems, pds, sers)]

    snr_db = 10.0 * math.log10(args.snr)
    write_sweep_csv(args.output, points, snr_db, args.trials, args.seed, _meta_comment(args))
    # below turn-on: every row delivers next to nothing against the saturation
    saturation = float(harvester.evaluate(1e6))
    if all(pt.pd_uw < 1e-6 * saturation for pt in points):
        print(f"sweep: every row delivers less than 1e-6 of saturation: "
              f"P_a = {'/'.join(f'{pa:g}' for pa in sorted(pas))} uW lies below the "
              "harvester's turn-on, so the sweep shows no rate-power tradeoff", file=_sys.stderr)
    print(f"sweep: {len(points)} rows -> {args.output}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    """SER of one design file by Monte Carlo at ``--seed``; with ``--eh``,
    also its delivered power by quadrature (independent of ``--trials``)."""
    design = Codebook.load(args.design)
    harvester = _load_harvester(args.eh)
    spec = ChannelSpec(snr=args.snr, p_a_uw=design.p_a_uw, seed=args.seed)
    pd = {} if harvester is None else {"pd_uw": delivered_power(design, spec, harvester)}
    res = ser_mc(design, spec, args.trials)
    payload = {"ser": res.ser, "ci_halfwidth": res.ci_halfwidth, "trials": args.trials,
               "snr": "inf" if args.snr == math.inf else args.snr, "seed": args.seed,
               "degenerate": res.degenerate, **pd}
    _attach_meta(payload, args)
    if args.output:
        write_json(args.output, payload)
    print(f"simulate: ser={res.ser:.6g} +-{res.ci_halfwidth:.2g}"
          + (f" pd={payload['pd_uw']:.6g} uW" if "pd_uw" in payload else ""))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_CAP_HELP = ("codeword candidates the greedy search draws from; it holds their "
             "symbol indices, 8n bytes each, and at n = 3 and the default "
             "(%(default)s) its passes peak at about 57 MB and drawing a sampled "
             "set at about 82 MB")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser. Its ``ini_keys`` maps a subcommand to {INI key:
    destination}, one key per long option string, so an INI value of
    ``key`` is parsed as the flag ``--key``."""
    p = argparse.ArgumentParser(prog="swiptkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, output_required=True):
        sp.add_argument("--config", default="", help="INI config file")
        sp.add_argument("-o", "--output", required=output_required)

    fe = sub.add_parser("fit-eh", help="fit the harvester model")
    add_common(fe)
    fe.add_argument("--synthetic", action="store_true")
    fe.add_argument("--data", default="", help="dataset CSV (p_in_uw,p_out_uw)")
    fe.add_argument("--points", type=int, default=2000)
    fe.add_argument("--pmax", type=float, default=2000.0)
    fe.add_argument("--noise-rel", dest="noise_rel", type=float, default=0.0)
    fe.add_argument("--seed", type=int, default=0)
    fe.add_argument("--epochs", type=int, default=30000,
                    help="L-BFGS iteration cap; the fit stops sooner when the loss "
                         "or the gradient stalls")
    fe.set_defaults(func=cmd_fit_eh)

    de = sub.add_parser("design", help="algorithmic constellation/codebook")
    add_common(de)
    de.add_argument("--m", type=int, default=16)
    de.add_argument("--n", type=int, default=1)
    de.add_argument("--pa", type=float, default=5.0)
    de.add_argument("--rho", type=float, default=0.0)
    de.add_argument("--eh", default="", help="fitted harvester JSON for p_on*")
    de.add_argument("--seed", type=int, default=0)
    de.add_argument("--candidate-cap", dest="candidate_cap", type=int, default=1_000_000,
                    help=_CAP_HELP)
    de.set_defaults(func=cmd_design)

    tr = sub.add_parser("train", help="end-to-end autoencoder training")
    add_common(tr)
    tr.add_argument("--topology", default="p2p", choices=KINDS)
    tr.add_argument("--m", default="4", help="message sizes, comma separated")
    tr.add_argument("--n", type=int, default=1)
    tr.add_argument("--pa", type=float, default=5.0)
    tr.add_argument("--snr", default="50", help="per-receiver SNRs, comma separated")
    tr.add_argument("--gain", type=float, default=0.5, help="IC cross gain")
    tr.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.0)
    tr.add_argument("--lr", type=float, default=1e-3)
    tr.add_argument("--batch", type=int, default=128)
    tr.add_argument("--iters", type=int, default=2000)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--pd-floor", dest="pd_floor", type=float, default=1e-3)
    tr.add_argument("--eh", default="")
    tr.add_argument("--trace", default="", help="loss trace CSV path")
    tr.add_argument("--extract", default="", help="also write the design JSON")
    tr.set_defaults(func=cmd_train)

    sw = sub.add_parser("sweep", help="rate-power tradeoff sweep")
    add_common(sw)
    sw.add_argument("--designer", default="algorithmic", choices=["algorithmic", "learned"])
    sw.add_argument("--m", type=int, default=16)
    sw.add_argument("--n", type=int, default=1)
    sw.add_argument("--pa", type=float, default=5.0,
                    help="the algorithmic designs' P_a, uW; learned systems keep their own")
    sw.add_argument("--snr", type=float, default=50.0)
    sw.add_argument("--trials", type=int, default=100_000,
                    help="Monte Carlo trials per row for the SER (default %(default)s); "
                         "P_d is computed by quadrature and does not depend on it")
    sw.add_argument("--seed", type=int, default=0,
                    help="seed of the draws every row is decoded from (default "
                         "%(default)s); learned receiver r uses seed + r")
    sw.add_argument("--rho-grid", dest="rho_grid", default="0:1:11",
                    help="start:stop:count or comma list")
    sw.add_argument("--eh", default="")
    sw.add_argument("--systems", default="",
                    help="trained-system JSONs, comma separated (learned mode)")
    sw.add_argument("--candidate-cap", dest="candidate_cap", type=int, default=1_000_000,
                    help=_CAP_HELP)
    sw.set_defaults(func=cmd_sweep)

    si = sub.add_parser("simulate", help="evaluate one design file")
    add_common(si, output_required=False)
    si.add_argument("--design", required=True)
    si.add_argument("--snr", type=float, default=50.0)
    si.add_argument("--trials", type=int, default=100_000)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--eh", default="")
    si.set_defaults(func=cmd_simulate)
    # per subcommand, INI key -> destination: each long option but --help,
    # without its dashes
    p.ini_keys = {name: {opt[2:]: action.dest for action in sp._actions
                         if action.dest != "help"
                         for opt in action.option_strings if opt.startswith("--")}
                  for name, sp in sub.choices.items()}
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser, built once per process: building it costs about as
    much as a small command, and parsing leaves it unchanged, so a
    ``--config`` run parses through it again with the file's values as
    flags."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = _sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's values as flags after the command, the first argument
            # (the top-level parser has no options): a later flag wins
            ini = _ini_section(args, parser.ini_keys[args.command])
            args = parser.parse_args(argv[:1] + [f"--{k}={v}" for k, v in ini.items()] + argv[1:])
        return args.func(args)
    except (OSError, ValueError, MemoryError, configparser.Error) as err:
        print(f"{args.command}: {err}", file=_sys.stderr)
        return EXIT_USAGE
    except (FitDivergedError, TrainDivergedError, FloatingPointError) as err:
        print(f"{args.command}: {err}", file=_sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
