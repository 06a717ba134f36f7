"""Batch experiment runner: fit-eh, design, train, sweep, simulate.

Flags mirror config-file keys (INI sections named per subcommand, keys named
as the long flags without their leading dashes). A flag wins over the config
file, which wins over the declared default; INI values are converted by the
same types as flags. Exit codes: 0 success, 2 usage/config error or a file
that cannot be read or written, 3 numeric failure. All outputs carry a
metadata header (tool version, config hash, seed) and are byte-identical for
identical configs and seeds.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__
from .autoencoder import (
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
from .constellation import Codebook, m_on_count, swipt_transform
from .harvester import (
    EhModel,
    FitDivergedError,
    FitHyper,
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
    """Merge provenance into the payload's meta block (design files already
    carry a meta object of their own).
    """
    meta = payload.setdefault("meta", {})
    if isinstance(meta, dict):
        meta.update(_meta(args))
    return payload


def _meta_comment(args: argparse.Namespace) -> str:
    return f"swiptkit={__version__} config_hash={_meta(args)['config_hash']} seed={args.seed}"


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")


def _ini_section(args: argparse.Namespace) -> dict:
    """The config file's values for the options of ``args.command`` that a
    file may set, as raw strings: neither a switch (``--synthetic``) nor a
    required option (``--design``) is read from it, and other keys are
    ignored."""
    if not Path(args.config).is_file():
        raise FileNotFoundError(f"config file not found: {args.config}")
    cfg = configparser.ConfigParser()
    cfg.read(args.config)
    keys = {dest: dest.replace("_", "-") for dest in vars(args)
            if dest not in _NOT_PARAMS + ("synthetic", "design")}
    return {dest: cfg.get(args.command, key) for dest, key in keys.items()
            if cfg.has_option(args.command, key)}


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


def _load_harvester(path) -> EhModel:
    if not Path(path).is_file():
        raise FileNotFoundError(f"harvester file not found: {path}")
    return EhModel.load(path)


def _p_star(pa: float, eh_path: str | None) -> float:
    if eh_path:
        return optimal_pon(pa, _load_harvester(eh_path))
    return pon_approx(pa)


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

    hyper = FitHyper(epochs=args.epochs, seed=args.seed, init_scale=args.init_scale)
    model = fit_eh(data, hyper)
    payload = _attach_meta(model.to_json(), args)
    _write_json(args.output, payload)
    print(f"fit-eh: {len(data)} points, rmse={model.rmse:.6g} uW -> {args.output}")
    return EXIT_OK


def cmd_design(args) -> int:
    if not 0.0 <= args.rho <= 1.0:   # also NaN
        raise ValueError("rho must be in [0, 1]")
    if not (args.p_star == 0 or 0 < args.p_star <= 1):   # also NaN; 0 computes p*
        raise ValueError("p_star must be in (0, 1], or 0 to compute it")
    ps = args.p_star if args.p_star > 0 else _p_star(args.pa, args.eh or None)

    cfg = GreedyConfig(seed=args.seed, candidate_cap=args.candidate_cap)
    base = build_info_codebook(args.m, args.n, args.pa, cfg)
    design = swipt_transform(base, args.rho, ps) if args.rho > 0 else base
    echo = (f"C={design.c} t={design.t:.6g} M_on={m_on_count(args.m, ps)}" if args.n == 1
            else f"dmin_sq={design.achieved_dmin_sq:.6g}")
    _write_json(args.output, _attach_meta(design.to_json(), args))
    print(f"design: M={args.m} n={args.n} rho={args.rho} p_star={ps:.6g} {echo} "
          f"-> {args.output}")
    return EXIT_OK


def cmd_train(args) -> int:
    m_list = [int(v) for v in str(args.m).split(",")]
    snrs = [float(v) for v in str(args.snr).split(",")]
    kind = args.topology.lower()
    k = len(m_list)
    gains = None
    if kind == "ic":
        gains = np.full((k, k), args.gain)
        np.fill_diagonal(gains, 1.0)
    topo = Topology(kind=kind, m_list=m_list, snrs=snrs, p_a_uw=args.pa, gains=gains)
    cfg = TrainConfig(lambda_=args.lam, n=args.n, learning_rate=args.lr,
                      batch_size=args.batch, iterations=args.iters,
                      seed=args.seed, pd_floor=args.pd_floor)
    harvester = _load_harvester(args.eh) if args.eh else None
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
    _write_json(args.output, payload)
    if args.trace:
        write_trace_csv(args.trace, trace, comment)
    if args.extract:
        designs = extract_design(trained)
        for i, d in enumerate(designs):
            path = args.extract if len(designs) == 1 else \
                str(Path(args.extract).with_suffix("")) + f".tx{i}.json"
            _write_json(path, _attach_meta(d.to_json(), args))
    print(f"train: {kind} M={m_list} n={args.n} lambda={args.lam} "
          f"final_loss={trained.final_loss:.6g} -> {args.output}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    harvester = _load_harvester(args.eh) if args.eh else canonical_model()
    spec = ChannelSpec(snr=args.snr, p_a_uw=args.pa, seed=args.seed)

    if args.designer == "algorithmic":
        controls = _parse_grid(args.rho_grid)
        ps = _p_star(args.pa, args.eh or None)
        cfg = GreedyConfig(seed=args.seed, candidate_cap=args.candidate_cap)
        base = build_info_codebook(args.m, args.n, args.pa, cfg)
        points = rp_sweep(lambda rho: swipt_transform(base, rho, ps), controls, spec,
                          harvester, args.trials)
    elif args.designer == "learned":
        paths = [p for p in str(args.systems).split(",") if p.strip()]
        if not paths:
            print("sweep: --systems required for --designer learned", file=_sys.stderr)
            return EXIT_USAGE
        points = []
        for path in paths:
            system = load_system(path)
            # the row reports the mean over streams, and P_d averaged over receivers
            pd = float(np.mean([delivered_power(cw, spec, harvester)
                                for cw in received_codebooks(system)]))
            ser = float(np.mean(evaluate_ser(system, args.trials, seed=args.seed,
                                             snr=args.snr, p_a_uw=args.pa)))
            points.append(TradeoffPoint(system.config.lambda_, ser, pd,
                                        binomial_ci(ser, args.trials)))
    else:
        print(f"sweep: unknown designer {args.designer!r}", file=_sys.stderr)
        return EXIT_USAGE

    snr_db = 10.0 * math.log10(args.snr)
    write_sweep_csv(args.output, points, snr_db, args.trials, args.seed, _meta_comment(args))
    # below turn-on: every row delivers next to nothing against the saturation
    saturation = float(harvester.evaluate(1e6))
    if all(pt.pd_uw < 1e-6 * saturation for pt in points):
        print(f"sweep: every row delivers less than 1e-6 of saturation: "
              f"P_a = {args.pa:g} uW lies below the harvester's turn-on, so the sweep shows no "
              "rate-power tradeoff", file=_sys.stderr)
    print(f"sweep: {len(points)} rows -> {args.output}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    """SER of one design file by Monte Carlo at ``--seed``; with ``--eh``,
    also its delivered power by quadrature (independent of ``--trials``)."""
    design = Codebook.load(args.design)
    harvester = _load_harvester(args.eh) if args.eh else None
    spec = ChannelSpec(snr=args.snr, p_a_uw=design.p_a_uw, seed=args.seed)
    pd = {} if harvester is None else {"pd_uw": delivered_power(design, spec, harvester)}
    res = ser_mc(design, spec, args.trials)
    payload = {"ser": res.ser, "ci_halfwidth": res.ci_halfwidth, "trials": args.trials,
               "snr": "inf" if args.snr == math.inf else args.snr, "seed": args.seed,
               "degenerate": res.degenerate, **pd}
    _attach_meta(payload, args)
    if args.output:
        _write_json(args.output, payload)
    print(f"simulate: ser={res.ser:.6g} +-{res.ci_halfwidth:.2g}"
          + (f" pd={payload['pd_uw']:.6g} uW" if "pd_uw" in payload else ""))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser(ini: dict | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; ``ini`` maps a subcommand to values (INI strings)
    that replace the defaults its options declare."""
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
    fe.add_argument("--epochs", type=int, default=30000, help="max L-BFGS iterations")
    fe.add_argument("--init-scale", dest="init_scale", type=float, default=1.0)
    fe.set_defaults(func=cmd_fit_eh)

    de = sub.add_parser("design", help="algorithmic constellation/codebook")
    add_common(de)
    de.add_argument("--m", type=int, default=16)
    de.add_argument("--n", type=int, default=1)
    de.add_argument("--pa", type=float, default=5.0)
    de.add_argument("--rho", type=float, default=0.0)
    de.add_argument("--eh", default="", help="fitted harvester JSON for p_on*")
    de.add_argument("--p-star", dest="p_star", type=float, default=0.0)
    de.add_argument("--seed", type=int, default=0)
    de.add_argument("--candidate-cap", dest="candidate_cap", type=int, default=1_000_000,
                    help="codeword candidates the greedy search draws from "
                         "(default %(default)s)")
    de.set_defaults(func=cmd_design)

    tr = sub.add_parser("train", help="end-to-end autoencoder training")
    add_common(tr)
    tr.add_argument("--topology", default="p2p", choices=["p2p", "bc", "mac", "ic"])
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
    sw.add_argument("--pa", type=float, default=5.0)
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
    sw.add_argument("--candidate-cap", dest="candidate_cap", type=int, default=1_000_000)
    sw.set_defaults(func=cmd_sweep)

    si = sub.add_parser("simulate", help="evaluate one design file")
    add_common(si, output_required=False)
    si.add_argument("--design", required=True)
    si.add_argument("--snr", type=float, default=50.0)
    si.add_argument("--trials", type=int, default=100_000)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--eh", default="")
    si.set_defaults(func=cmd_simulate)
    for name, values in (ini or {}).items():
        sub.choices[name].set_defaults(**values)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # parsed again, so argparse converts the file's strings like flags
            args = build_parser({args.command: _ini_section(args)}).parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, configparser.Error) as err:
        print(f"{args.command}: {err}", file=_sys.stderr)
        return EXIT_USAGE
    except (FitDivergedError, TrainDivergedError, FloatingPointError) as err:
        print(f"{args.command}: {err}", file=_sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
