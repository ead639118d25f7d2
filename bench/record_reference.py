"""Record the solve fingerprints that the output checks compare against.

    python3 bench/record_reference.py

Writes ``bench/reference.npz`` with u at t=0 and m at t=T of the solve-1d
and solve-2d workloads.  Re-record only in a change that means to move the
solution, and say so in that change.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import REFERENCE, build_inputs, config_text, solve  # noqa: E402


def main() -> None:
    arrays = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("solve-1d", "solve-2d"):
            sol, _ = solve(build_inputs(config_text(name, 0, Path(tmp))))
            arrays[f"{name}/u0"] = sol.u_sol.u[0]
            arrays[f"{name}/mT"] = sol.m_sol.terminal().values
    np.savez(REFERENCE, **arrays)
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
