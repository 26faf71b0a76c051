"""Command-line entry point: design, analyze, decode, simulate, sweep, fixtures.

Exit codes: 0 success, 2 usage/configuration error, 3 convergence failure,
4 capacity exceeded. Every artifact gets one sibling `<name>.manifest.json`
recording the full run configuration, input digests, wall time and the
environment (Python, numpy and scipy versions, CPU count); timestamps live
only in manifests so numerical outputs are reproducible byte-for-byte.
`design` also writes `<out>.report.json` beside the codebook; it has no
manifest of its own, since the codebook's manifest records the run that
wrote both.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import os
import platform
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .decoder import DEFAULT_ITERS, graph_op_counts, max_log_mpa_batch, mpa_linear_batch
from .designer import DesignConfig, design
from .errors import CapacityError, ConfigError, ConvergenceError, ScmaVlcError
from .fileio import dumps_codebook_set, json_field, load_codebook_set, save_codebook_set
from .fixtures import fixture_names, load_fixture
from .metrics import epd_ellipses, stack_codebook_set
from .model import SystemParams
from .simulator import DEFAULT_MAX_FRAMES, DEFAULT_MIN_BIT_ERRORS, simulate_ber, sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_CAPACITY = 4

# The noise streams of simulate and sweep (simulator.TrialStream).
_NOISE_GENERATOR = "numpy PCG64, SeedSequence([seed, block])"

# The library's default beta schedule is 1, 2, ..., _BETA_MAX.
_BETA_MAX = int(DesignConfig.beta_schedule[-1])


def _default(fn, name: str):
    """The library's default of keyword argument name of fn."""
    return inspect.signature(fn).parameters[name].default


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_path: Path, args, inputs: list[Path], started: str) -> None:
    # scipy is imported here, for its version alone, so that commands whose
    # work does not need it never load it.
    import scipy

    finished = datetime.now(timezone.utc)
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "tool_version": __version__,
        "input_digests": {str(p): _digest(p) for p in inputs},
        "started": started,
        "finished": finished.isoformat(),
        "wall_time_s": (finished - datetime.fromisoformat(started)).total_seconds(),
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__, "cpu_count": os.cpu_count()},
    }
    if args.command in ("simulate", "sweep"):
        manifest["generator"] = _NOISE_GENERATOR
    out_path.with_suffix(out_path.suffix + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n"
    )


def _write_csv(out_path: Path, header: list, rows, args, inputs: list[Path], started: str) -> None:
    """Write the finished rows under header to out_path, then its manifest."""
    with out_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    _write_manifest(out_path, args, inputs, started)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _cmd_design(args) -> int:
    params = SystemParams(
        J=args.users, K=args.res, M=args.cbsize, N=args.nonzero,
        sigma2=args.sigma2, varsigma2=args.varsigma2, Pe=args.pe,
    )
    schedule = tuple(float(b) for b in range(1, args.beta_max + 1))
    config = DesignConfig(beta_schedule=schedule, starts=args.starts, seed=args.seed)
    started = _now()
    result = design(params, config)
    out = Path(args.out)
    save_codebook_set(result.set, out)
    per_beta = {}
    for _, beta, _, f_v in result.objective_trace:
        per_beta[beta] = f_v  # last value per beta stage across starts
    report = {
        "final_d_min": result.final_d_min,
        "objective_trace_summary": {str(b): f for b, f in sorted(per_beta.items())},
        "active_constraints": result.active_constraints,
        "wall_time": result.wall_time,
        "beta_loop_nesting": (
            "annealed: one accepted gradient step per intermediate beta, "
            "inner iterations to tolerance at the final beta"
        ),
    }
    Path(str(out) + ".report.json").write_text(json.dumps(report, indent=2) + "\n")
    _write_manifest(out, args, [], started)
    print(f"wrote {out} (d_min = {result.final_d_min:.6g})")
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    if args.action == "list":
        for name in fixture_names():
            print(name)
        return EXIT_OK
    started = _now()
    cb_set = load_fixture(args.name)
    text = dumps_codebook_set(cb_set)
    if args.out:
        Path(args.out).write_text(text)
        _write_manifest(Path(args.out), args, [], started)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    started = _now()
    cb_path = Path(args.cb)
    cb_set = load_codebook_set(cb_path)
    vs2 = cb_set.params.varsigma2 if args.varsigma2 is None else args.varsigma2
    # The summary and the pairs CSV read one computation of every pair distance.
    d = stack_codebook_set(cb_set).distances(vs2)
    summary = {"d_min": float(d.min()), "d_max": float(d.max()), "pair_count": len(d)}
    # Every artifact's data is computed before the first file is written.
    artifacts = []
    if args.pairs_csv:
        P = cb_set.params.M ** cb_set.params.J
        pairs = ((i, j) for i in range(1, P + 1) for j in range(i + 1, P + 1))
        artifacts.append((args.pairs_csv, ["pair_i", "pair_j", "red"],
                          ([i, j, repr(x)] for (i, j), x in zip(pairs, d.tolist()))))
    if args.ellipses_csv:
        rows = []
        for user, book in enumerate(cb_set.books, start=1):
            ellipses = epd_ellipses(book, cb_set.params.sigma2, vs2, confidence=args.confidence)
            rows += [[user, m, *(repr(float(v)) for v in (*e.center, *e.semi_axes))]
                     for m, e in enumerate(ellipses, start=1)]
        artifacts.append((args.ellipses_csv,
                          ["user", "point", "center_1", "center_2", "a_1", "a_2"], rows))
    if args.summary_json:
        out = Path(args.summary_json)
        out.write_text(json.dumps(summary, indent=2) + "\n")
        _write_manifest(out, args, [cb_path], started)
    print(json.dumps(summary))
    for out, header, rows in artifacts:
        _write_csv(Path(out), header, rows, args, [cb_path], started)
    return EXIT_OK


def _cmd_decode(args) -> int:
    started = _now()
    if args.variant == "mpa":
        args.logdet = True  # sum-product always decodes with the exact likelihood
    cb_path = Path(args.cb)
    cb_set = load_codebook_set(cb_path)
    p = cb_set.params
    if args.counts:
        print(json.dumps(asdict(graph_op_counts(cb_set, args.iters, args.variant))))
        if not args.input:
            return EXIT_OK
    Y = np.loadtxt(args.input, delimiter=",", ndmin=2)
    if args.variant == "mpa":
        _, llrs, hard, _, _ = mpa_linear_batch(Y, cb_set, args.iters)
    else:
        _, llrs, hard, _, _ = max_log_mpa_batch(Y, cb_set, args.iters,
                                                include_logdet=args.logdet)
    b = p.bits_per_symbol
    header = ["frame"]
    for j in range(1, p.J + 1):
        header += [f"bits_user_{j}"] + [f"llr_user_{j}_bit_{i}" for i in range(1, b + 1)]
    rows = []
    for t in range(len(Y)):
        row = [t + 1]
        for j in range(p.J):
            row.append("".join(str(int(v)) for v in hard[t, j]))
            row += [repr(float(v)) for v in llrs[t, j]]
        rows.append(row)
    _write_csv(Path(args.out), header, rows, args, [cb_path, Path(args.input)], started)
    print(f"wrote {Path(args.out)}")
    return EXIT_OK


def _load_design_spec(path: str) -> tuple[SystemParams, DesignConfig]:
    spec = json.loads(Path(path).read_text())
    if not isinstance(spec, dict):
        raise ConfigError("a design spec must be a JSON object")
    params = SystemParams(
        J=json_field(spec, "J", int),
        **{n: json_field(spec, n, int, getattr(SystemParams, n)) for n in ("K", "M", "N")},
        **{n: json_field(spec, n, float, getattr(SystemParams, n))
           for n in ("sigma2", "varsigma2", "Pe")},
    )
    beta_max = json_field(spec, "beta_max", int, _BETA_MAX)
    config = DesignConfig(
        beta_schedule=tuple(float(b) for b in range(1, beta_max + 1)),
        **{n: json_field(spec, n, int, getattr(DesignConfig, n)) for n in ("starts", "seed")},
    )
    return params, config


def _load_sources(args):
    """(codebook set of --cb, params and config of --design-spec, their paths); None if absent."""
    cb_set = params = config = None
    if args.cb:
        cb_set = load_codebook_set(args.cb)
    if args.design_spec:
        params, config = _load_design_spec(args.design_spec)
    return cb_set, params, config, [Path(p) for p in (args.cb, args.design_spec) if p]


def _ber_rows(points, J):
    rows = []
    for pt in points:
        rows.append(
            [repr(pt.pe), repr(pt.ber_sim), repr(pt.ber_analytical),
             pt.bits_sent, pt.bit_errors, repr(pt.ci95_halfwidth)]
            + [repr(float(v)) for v in pt.per_user_ber]
        )
    header = ["pe", "ber_sim", "ber_analytical", "bits_sent", "bit_errors", "ci95"]
    header += [f"per_user_ber_{j}" for j in range(1, J + 1)]
    return header, rows


def _cmd_simulate(args) -> int:
    started = _now()
    cb_set, params, config, inputs = _load_sources(args)
    if cb_set is None:
        cb_set = design(params, config).set
    point = simulate_ber(
        cb_set, n_iters=args.iters, min_bit_errors=args.min_errors,
        max_frames=args.max_frames, seed=args.seed,
    )
    _write_csv(Path(args.out), *_ber_rows([point], cb_set.params.J), args, inputs, started)
    print(f"ber_sim = {point.ber_sim:.6g}, ber_analytical = {point.ber_analytical:.6g}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    started = _now()
    pe_list = [float(v) for v in args.pe_list.split(",")]
    cb_set, params, config, inputs = _load_sources(args)
    points = sweep(
        pe_list, cb_set=cb_set, design_params=params, design_config=config,
        mode=args.mode, n_iters=args.iters, min_bit_errors=args.min_errors,
        max_frames=args.max_frames, seed=args.seed,
    )
    J = points and (cb_set.params.J if cb_set else params.J)
    _write_csv(Path(args.out), *_ber_rows(points, J), args, inputs, started)
    print(f"wrote {Path(args.out)} ({len(points)} points)")
    return EXIT_OK


def _add_sources(parser) -> None:
    """--cb and --design-spec, mutually exclusive.

    Not required: main asks for one, so parse_args(["simulate"]) reads defaults.
    """
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--cb")
    source.add_argument("--design-spec")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scma-vlc",
        description="SCMA-VLC codebook design, analysis, decoding and BER simulation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="design a codebook set")
    d.add_argument("--users", type=int, required=True)
    d.add_argument("--res", type=int, default=SystemParams.K)
    d.add_argument("--cbsize", type=int, default=SystemParams.M)
    d.add_argument("--nonzero", type=int, default=SystemParams.N)
    d.add_argument("--varsigma2", type=float, default=SystemParams.varsigma2)
    d.add_argument("--sigma2", type=float, default=SystemParams.sigma2)
    d.add_argument("--pe", type=float, default=SystemParams.Pe)
    d.add_argument("--seed", type=int, default=DesignConfig.seed)
    d.add_argument("--starts", type=int, default=DesignConfig.starts)
    d.add_argument("--beta-max", type=int, default=_BETA_MAX)
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_design)

    f = sub.add_parser("fixtures", help="list or export embedded codebooks")
    f.add_argument("action", choices=["list", "export"])
    f.add_argument("name", nargs="?")
    f.add_argument("--out")
    f.set_defaults(func=_cmd_fixtures)

    a = sub.add_parser("analyze", help="distance report and EPD ellipses")
    a.add_argument("--cb", required=True)
    a.add_argument("--varsigma2", type=float, default=None)
    a.add_argument("--confidence", type=float, default=_default(epd_ellipses, "confidence"))
    a.add_argument("--pairs-csv")
    a.add_argument("--summary-json")
    a.add_argument("--ellipses-csv")
    a.set_defaults(func=_cmd_analyze)

    de = sub.add_parser("decode", help="decode received vectors from a CSV")
    de.add_argument("--cb", required=True)
    de.add_argument("--input")
    de.add_argument("--out", default="decoded.csv")
    de.add_argument("--iters", type=int, default=DEFAULT_ITERS)
    de.add_argument("--logdet", action="store_true",
                    help="add the log-determinant to Max-Log's metric (implied for mpa)")
    de.add_argument("--counts", action="store_true")
    de.add_argument("--variant", choices=["mpa", "max_log"], default="max_log",
                    help="sum-product (mpa) or Max-Log detection, for --input and --counts")
    de.set_defaults(func=_cmd_decode)

    si = sub.add_parser("simulate", help="Monte Carlo BER at one power level")
    _add_sources(si)
    si.add_argument("--seed", type=int, default=_default(simulate_ber, "seed"))
    si.add_argument("--min-errors", type=int, default=DEFAULT_MIN_BIT_ERRORS)
    si.add_argument("--max-frames", type=int, default=DEFAULT_MAX_FRAMES)
    si.add_argument("--iters", type=int, default=DEFAULT_ITERS)
    si.add_argument("--out", default="ber.csv")
    si.set_defaults(func=_cmd_simulate)

    sw = sub.add_parser("sweep", help="BER sweep across power levels")
    _add_sources(sw)
    sw.add_argument("--pe-list", required=True)
    sw.add_argument("--mode", choices=["scale", "redesign"], default=_default(sweep, "mode"))
    sw.add_argument("--seed", type=int, default=_default(sweep, "seed"))
    sw.add_argument("--min-errors", type=int, default=DEFAULT_MIN_BIT_ERRORS)
    sw.add_argument("--max-frames", type=int, default=DEFAULT_MAX_FRAMES)
    sw.add_argument("--iters", type=int, default=DEFAULT_ITERS)
    sw.add_argument("--out", default="sweep.csv")
    sw.set_defaults(func=_cmd_sweep)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "fixtures" and args.action == "export" and not args.name:
        ap.error("fixtures export requires a fixture name")
    if args.command in ("simulate", "sweep") and not (args.cb or args.design_spec):
        ap.error("need --cb or --design-spec")
    if args.command == "decode" and not (args.input or args.counts):
        ap.error("need --input (or --counts)")
    try:
        return args.func(args)
    except ConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ScmaVlcError, OSError, ValueError) as e:  # ValueError: reads of outside input
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
