"""Fast self-check of the benchmark at the tiny profile (about a minute).

Run from the repository root with ``python3 benchmarks/selfcheck.py``. It
checks that:
- every workload emits exactly the metrics BENCHMARK.json names, with their
  units, untraced and traced, and passes its own output checks;
- a perturbed reference output is counted as a failure, not passed silently;
- a CLI call that exits on a usage error is counted as a failure, not raised;
- on a non-default seed the exact reference checks give way to the
  seed-independent ones;
- a trace target that has gone missing drops its metrics without a crash;
- the benchmark refuses to run where the package source is absent.
Exits 1 if any of these fails.
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from scma_vlc import cli  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Ops, load_references, run_cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def tiny(workload, trace=False, seed=DEFAULT_SEED, references=None):
    return run.run_workload(workload, seed, 0.0, trace, "tiny", references)


def units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


def main() -> int:
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    expect(e2e == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end matches run.py")
    expect(layer == run.PER_LAYER_UNITS, "BENCHMARK.json per_layer matches run.py")
    expect({w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS),
           "BENCHMARK.json workloads exist in workloads.py")

    for name in WORKLOADS:
        for trace, want in ((False, e2e), (True, layer)):
            result = tiny(name, trace)
            label = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0, f"{label} outputs pass")
            expect(units(result) == want, f"{label} emits every metric with its unit")
            if not trace:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{label} end-to-end metrics are nonzero")

    refs = load_references()
    for path, what in (
        (("link-j6", "bit_errors", "20.0"), "link-j6 bit_errors"),
        (("bound-j6", "analytical_ber", "20.0"), "bound-j6 analytical_ber"),
        (("desk-sim-j3", "bit_errors"), "desk-sim-j3 bit_errors"),
        (("design-j4", "d_min"), "design-j4 d_min"),
    ):
        bad = copy.deepcopy(refs)
        node = bad["tiny"]
        for key in path[:-1]:
            node = node[key]
        value = node[path[-1]]
        # A d_min check allows 5% below the reference, so raise that one by 10%.
        scale = 1.1 if path[-1] == "d_min" else 1 + 1e-9
        node[path[-1]] = value + 1 if isinstance(value, int) else value * scale
        result = tiny(path[0], references=bad)
        expect(not result["correct"] and 0 < result["failed"] <= result["attempted"]
               and result["details"]["fail_frac"] > 0,
               f"perturbed {what} reference is counted as failed")

    ops = Ops(meter=SpeedMeter())
    with contextlib.redirect_stderr(io.StringIO()):
        op = run_cli(SimpleNamespace(cli=cli), ops, "cli design --no-such-flag",
                     ["design", "--no-such-flag"], run.WORKDIR / "unwritten.scma")
    expect(not op.ok and ops.attempted == 1 and ops.failed == 1,
           "a CLI usage error is counted as failed, not raised")

    bad = copy.deepcopy(refs)
    bad["tiny"]["link-j6"]["bit_errors"]["20.0"] += 1
    result = tiny("link-j6", seed=DEFAULT_SEED + 7, references=bad)
    expect(result["correct"], "other seeds skip the exact bit_errors check")

    saved = tracing.TARGETS
    tracing.TARGETS = tuple(
        (m, a + "_renamed" if a == "logsumexp_objective" else a, n, c)
        for m, a, n, c in saved)
    try:
        result = tiny("design-j4", trace=True)
    finally:
        tracing.TARGETS = saved
    names = set(result["metrics"])
    expect(result["correct"] and "metrics.objective.calls" not in names
           and "metrics.gradient.calls" in names
           and result["details"]["missing_targets"]
           == ["scma_vlc.designer.logsumexp_objective_renamed"],
           "a missing trace target drops its metrics only")

    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "link-j6", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(run.WORKDIR, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the package source the benchmark exits non-zero, printing no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
