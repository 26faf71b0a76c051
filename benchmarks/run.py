#!/usr/bin/env python3
"""Benchmark of the scma_vlc toolkit, end to end and layer by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload design-j4 --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all

The package is imported from ./src; nothing is installed. A run sets up its
workload once in this process and SETUP_PROBES more times in fresh
interpreters (the import is part of set-up), then repeats the same pass, with
inputs made from --seed, at least MIN_PASSES times and until --seconds have
passed. Every operation's output is checked; a failure is counted, never
raised.

--trace 0 reports the end-to-end metrics: the median set-up time, the median
pass time and the peak resident memory. Times are in reference seconds,
corrected for the speed of the machine at the moment they were taken (see
speed.py); the wall-clock figures, and per-operation figures such as design
time, frames per second and union-bound time, are printed above the result.
--trace 1 alternates untraced and traced passes and reports per-layer metrics
from spans recorded around the calls into each module (see tracing.py), per
pass, plus the tracing overhead in reference seconds. Span times are wall
seconds without the speed probes.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment and the
per-operation details.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

MIN_PASSES = 2
MIN_TRACED_PASSES = 2
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "pass_ref_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "metrics.gradient.calls": "count",
    "metrics.gradient.s": "s",
    "metrics.gradient.ms_per_call": "ms",
    "metrics.objective.calls": "count",
    "metrics.objective.s": "s",
    "metrics.objective.ms_per_call": "ms",
    "metrics.pairs_per_s": "1/s",
    "metrics.pairwise_report.s": "s",
    "model.enumerate.calls": "count",
    "model.enumerate.s": "s",
    "designer.steps": "count",
    "designer.evals_per_step": "ratio",
    "designer.project.calls": "count",
    "designer.project.s": "s",
    "designer.self_s": "s",
    "decoder.mpa.calls": "count",
    "decoder.mpa.s": "s",
    "decoder.frames": "count",
    "decoder.frames_per_s": "1/s",
    "simulator.noise.s": "s",
    "simulator.simulate.self_s": "s",
    "simulator.bound.calls": "count",
    "simulator.bound.s": "s",
    "simulator.bound.pairs_per_s": "1/s",
    "fileio.save.s": "s",
    "fileio.load.s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, present: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its span totals.

    Metrics of a span name with no installed target are absent; a layer that
    exists but did no work in this workload reads 0.
    """
    from tracing import SpanTotals

    def t(name):
        return totals.get(name, SpanTotals())

    out: dict[str, float] = {}
    grad, obj = t("metrics.gradient"), t("metrics.objective")
    for key, span in (("gradient", grad), ("objective", obj)):
        if f"metrics.{key}" in present:
            out[f"metrics.{key}.calls"] = span.calls
            out[f"metrics.{key}.s"] = span.total_s
            out[f"metrics.{key}.ms_per_call"] = 1e3 * _ratio(span.total_s, span.calls)
    if {"metrics.gradient", "metrics.objective"} <= present:
        out["metrics.pairs_per_s"] = _ratio(grad.work + obj.work, grad.total_s + obj.total_s)
        out["designer.evals_per_step"] = _ratio(obj.calls, grad.calls)
    if "metrics.gradient" in present:
        out["designer.steps"] = grad.calls
    if "metrics.pairwise_report" in present:
        out["metrics.pairwise_report.s"] = t("metrics.pairwise_report").total_s
    if "model.enumerate" in present:
        out["model.enumerate.calls"] = t("model.enumerate").calls
        out["model.enumerate.s"] = t("model.enumerate").total_s
    if "designer.project" in present:
        out["designer.project.calls"] = t("designer.project").calls
        out["designer.project.s"] = t("designer.project").total_s
    if "designer.design" in present:
        out["designer.self_s"] = t("designer.design").self_s
    if "decoder.mpa" in present:
        mpa = t("decoder.mpa")
        out["decoder.mpa.calls"] = mpa.calls
        out["decoder.mpa.s"] = mpa.total_s
        out["decoder.frames"] = mpa.work
        out["decoder.frames_per_s"] = _ratio(mpa.work, mpa.total_s)
    if "simulator.noise" in present:
        out["simulator.noise.s"] = t("simulator.noise").total_s
    if "simulator.simulate" in present:
        out["simulator.simulate.self_s"] = t("simulator.simulate").self_s
    if "simulator.bound" in present:
        bound = t("simulator.bound")
        out["simulator.bound.calls"] = bound.calls
        out["simulator.bound.s"] = bound.total_s
        out["simulator.bound.pairs_per_s"] = _ratio(bound.work, bound.total_s)
    if "fileio.save" in present:
        out["fileio.save.s"] = t("fileio.save").total_s
    if "fileio.load" in present:
        out["fileio.load.s"] = t("fileio.load").total_s
    if "cli.main" in present:
        out["cli.self_s"] = t("cli.main").self_s
    return out


def _median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first pass (all passes run the same inputs), times as medians."""
    out = {}
    for name in per_pass[0]:
        if PER_LAYER_UNITS[name] == "count":
            out[name] = per_pass[0][name]
        else:
            out[name] = statistics.median(p[name] for p in per_pass)
    return out


def _setup_once(workload: str, seed: int, profile: str, index: int) -> dict:
    """Time one set-up of the workload in a fresh interpreter (see setup_probe.py)."""
    workdir = WORKDIR / f"setup-{index}"
    workdir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), profile,
         str(workdir)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_details(ops_by_pass: list[list]) -> dict[str, float]:
    """Per-operation figures named after what a user runs, medians over passes.

    design_s and bound_s are per call, sim_frames_per_s counts all simulate
    calls of a pass; the plain names are in reference seconds, the `_wall`
    variants in wall seconds.
    """
    out: dict[str, float] = {}
    for suffix, attr in (("", "ref_s"), ("_wall", "seconds")):
        kinds: dict[str, list[float]] = {}
        frames: list[float] = []
        for done in ops_by_pass:
            sim_s, sim_frames = 0.0, 0
            for op in done:
                kinds.setdefault(op.what.split(" Pe=")[0], []).append(getattr(op, attr))
                if op.frames:
                    sim_s += getattr(op, attr)
                    sim_frames += op.frames
            if sim_frames:
                frames.append(sim_frames / sim_s)
        for kind, values in kinds.items():
            if "design" in kind:
                out["design_s" + suffix] = statistics.median(values)
            elif "analytical_ber" in kind:
                out["bound_s" + suffix] = statistics.median(values)
        if frames:
            out["sim_frames_per_s" + suffix] = statistics.median(frames)
    d_mins = [op.d_min for done in ops_by_pass for op in done if op.d_min is not None]
    if d_mins:
        out["design_dmin"] = statistics.median(d_mins)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 profile: str = "full", references: dict | None = None) -> dict:
    """Run one workload; return its result object plus report details."""
    from speed import PROBE_REF_S, SpeedMeter
    from tracing import Tracer
    from workloads import WORKLOADS, Ops

    wl = WORKLOADS[workload](profile, references)
    WORKDIR.mkdir(exist_ok=True)
    state = wl.setup(seed, WORKDIR)
    setups = [_setup_once(workload, seed, profile, i) for i in range(SETUP_PROBES)]

    ops = Ops(meter=SpeedMeter())
    tracer = Tracer(clock=ops.meter.clock)
    untraced: list[list] = []
    traced: list[list] = []
    per_pass_layers: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        traced_now = trace and len(untraced) > len(traced)
        if traced_now:
            tracer.install()
            lo = tracer.mark()
        try:
            done = wl.run_pass(state, seed, ops)
        finally:
            if traced_now:
                tracer.uninstall()
        if traced_now:
            traced.append(done)
            per_pass_layers.append(
                layer_metrics(tracer.totals(lo, tracer.mark()), tracer.present))
        else:
            untraced.append(done)
        enough = (len(traced) >= MIN_TRACED_PASSES and len(untraced) == len(traced)
                  if trace else len(untraced) >= MIN_PASSES)
        # Start another pass only if it is expected to end within --seconds.
        elapsed = sum(op.seconds for op in done)
        if enough and time.perf_counter() - start + elapsed > seconds:
            break

    def pass_s(done, attr="seconds"):
        return sum(getattr(op, attr) for op in done)

    def pass_ref_s(passes):
        return statistics.median(pass_s(d, "ref_s") for d in passes)

    notes = [f"missing trace target {t}" for t in tracer.missing]
    details = op_details(untraced)
    details["pass_s_wall"] = statistics.median(pass_s(d) for d in untraced)
    details["setup_s_wall"] = statistics.median(x["seconds"] for x in setups)
    details["fail_frac"] = ops.failed / ops.attempted
    if trace:
        metrics = _median_metrics(per_pass_layers)
        metrics["trace.overhead_frac"] = pass_ref_s(traced) / pass_ref_s(untraced) - 1.0
        units = PER_LAYER_UNITS
        unstable = [n for n in per_pass_layers[0] if PER_LAYER_UNITS[n] == "count"
                    and len({p[n] for p in per_pass_layers}) > 1]
        if unstable:
            notes.append(f"counts differ between identical passes: {unstable}")
    else:
        metrics = {
            "setup_s": statistics.median(
                x["seconds"] * PROBE_REF_S / x["probe_s"] for x in setups),
            "pass_ref_s": pass_ref_s(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    details["probe_s_median"] = statistics.median(ops.meter.durations())
    shutil.rmtree(WORKDIR, ignore_errors=True)
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": {
            **details,
            "passes": len(untraced), "traced_passes": len(traced),
            "pass_s_all": [pass_s(d) for d in untraced],
            "pass_ref_s_all": [pass_s(d, "ref_s") for d in untraced],
            "traced_pass_s_all": [pass_s(d) for d in traced],
            "missing_targets": tracer.missing, "notes": notes,
            "messages": ops.messages,
        },
    }


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    from speed import INTERVAL_S, PROBE_REF_S

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "probe_ref_s": PROBE_REF_S,
        "probe_interval_s": INTERVAL_S,
    }


def _report(name: str, result: dict) -> None:
    d = result["details"]
    print(f"{name}: {d['passes']} untraced + {d['traced_passes']} traced passes, "
          f"{result['attempted']} operations, {result['failed']} failed "
          f"(fail_frac {d['fail_frac']:.4g})")
    for key, m in result["metrics"].items():
        print(f"  {key:<32} {m['value']:>14.6g} {m['unit']}")
    for key, value in d.items():
        if isinstance(value, float):
            print(f"  {key:<32} {value:>14.6g}")
    for key in ("pass_s_all", "pass_ref_s_all", "traced_pass_s_all"):
        if d[key]:
            print(f"  {key} {[round(x, 4) for x in d[key]]}")
    for note in d["notes"]:
        print(f"  note: {note}")
    for msg in d["messages"]:
        print(f"  FAILED {msg}", file=sys.stderr)


def _run_all(args) -> dict:
    """Run every workload in its own interpreter (peak memory is per process)."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "scma_vlc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    origin = importlib.util.find_spec("scma_vlc").origin
    if not Path(origin).resolve().is_relative_to(SRC.resolve()):
        print(f"error: scma_vlc resolves to {origin}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        result = _run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        _report(args.workload, result)
        details = result.pop("details")
        details.pop("messages")
        print(json.dumps({"env": environment(args), "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
