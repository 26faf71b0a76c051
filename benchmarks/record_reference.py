"""Write reference.json: the outputs the checks compare against at the default seed.

Run from the repository root with ``python3 benchmarks/record_reference.py``.
Only re-record when a change is meant to alter these outputs, and say so.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import (  # noqa: E402
    DEFAULT_SEED, PROFILES, REFERENCE_PATH, BoundJ6, DesignJ4, DeskSimJ3, LinkJ6)


def record(profile: str, workdir: Path) -> dict:
    j4 = DesignJ4(profile, references={})
    st = j4.setup(DEFAULT_SEED, workdir)
    out = {"design-j4": {"d_min": st.lib.designer.design(st.params, st.config).final_d_min}}

    desk = DeskSimJ3(profile, references={})
    st = desk.setup(DEFAULT_SEED, workdir)
    sim = st.lib.simulator
    cb = st.lib.fileio.load_codebook_set(st.sim_cb)
    point = sim.simulate_ber(cb, min_bit_errors=None, max_frames=desk.size["frames"],
                             seed=DEFAULT_SEED, compute_analytical=False)
    out["desk-sim-j3"] = {"bit_errors": point.bit_errors}

    link = LinkJ6(profile, references={})
    st = link.setup(DEFAULT_SEED, workdir)
    errors = {}
    for pe, cb in st.levels:
        point = sim.simulate_ber(cb, min_bit_errors=None, max_frames=link.size["frames"],
                                 seed=DEFAULT_SEED, compute_analytical=False)
        errors[repr(pe)] = point.bit_errors
    out["link-j6"] = {"bit_errors": errors}

    bound = BoundJ6(profile, references={})
    st = bound.setup(DEFAULT_SEED, workdir)
    out["bound-j6"] = {"analytical_ber": {repr(pe): sim.analytical_ber(cb)
                                          for pe, cb in st.levels}}
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        refs = {profile: record(profile, Path(tmp)) for profile in PROFILES}
    REFERENCE_PATH.write_text(json.dumps(refs, indent=2) + "\n")
    print(json.dumps(refs, indent=2))
