"""The benchmark's three workloads, each a fixed sequence of `zetalab` CLI ops.

Every op is an argv for `zetalab.cli.main`.  The benchmark appends the
isolation flags (`--manifest`, `--cache-dir`) itself and runs each workload
pass in a fresh interpreter whose working directory is a private temporary
directory, so relative paths such as `--out gram.csv` land there.

Why these three: the paper's pipeline has three hot paths that a single
mixed timing would hide from one another.

* offline-functional: the cross-bred functionals A and C at sigma = 1,
  whose time is in the Euler-Maclaurin sigma-line kernel used in large
  blocks (throughput).  It is the only workload using the CLI thread pool.
* critical-line: the asymptotics verify suite, a ladder chain and a Gram
  range written to CSV; time is in the Riemann-Siegel Z kernel and the
  Gram solve, and the Euler-Maclaurin line kernel is never called.
* argument-growth: two c-bar fits whose zero scan grows in one process,
  then S(t) at seeded heights, which calls the Euler-Maclaurin kernel one
  point at a time (latency).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

from scipy.special import zeta as real_zeta

# Seed whose `s` output is stored verbatim with the benchmark; other seeds
# check the `s` rows through their branch-integrality identity.
REFERENCE_SEED = 1

N_S_HEIGHTS = 50
S_HEIGHT_RANGE = (10.0, 1e4)

# Implied window bases T = K * x * tau of the functional traces.
FUNCTIONAL_HEIGHTS = (2.5e3, 5e3, 1e4)


def _k_a(sigma: float) -> float:
    return 4.0 * math.pi ** 5 / (3.0 * float(real_zeta(2.0 * sigma)) ** 5)


def _k_c(sigma: float) -> float:
    return 4.0 * math.pi ** 3 / float(real_zeta(2.0 * sigma)) ** 5


def _taus(K: float, x: float) -> str:
    """tau = T / (K x) for each implied height, as the CLI list argument."""
    return ",".join(f"{T / (K * x):.6g}" for T in FUNCTIONAL_HEIGHTS)


def s_heights(seed: int) -> List[str]:
    """The seeded S(t) heights, formatted exactly as passed to `--t`."""
    rng = random.Random(seed)
    lo, hi = S_HEIGHT_RANGE
    return [f"{rng.uniform(lo, hi):.6f}" for _ in range(N_S_HEIGHTS)]


def ops(workload: str, seed: int) -> List[List[str]]:
    """The workload's argv list for one pass at this seed."""
    if workload == "offline-functional":
        x_fermat = (3 ** 3 + 4 ** 3) / 5 ** 3
        return [
            ["functional", "--kind", "A", "--x", "1", "--sigma", "1.0",
             "--tau", _taus(_k_a(1.0), 1.0), "--jobs", "2"],
            ["fermat", "--x", "3", "--y", "4", "--z", "5", "--n", "3",
             "--kind", "C", "--sigma", "1.0",
             "--tau", _taus(_k_c(1.0), x_fermat), "--jobs", "1"],
        ]
    if workload == "critical-line":
        return [
            ["verify", "--suite", "asymptotics", "--heights", "1e3,5e3,2e4", "--jobs", "1"],
            ["ladder", "--T", "1e4", "--k", "4", "--jobs", "1"],
            ["gram", "--from", "1e4", "--to", "2e4", "--out", "gram.csv", "--jobs", "1"],
        ]
    if workload == "argument-growth":
        return [
            ["cbar", "--l", "1", "--T", "5e3", "--H", "5e2", "--jobs", "1"],
            ["cbar", "--l", "1", "--T", "1e4", "--H", "1e3", "--jobs", "1"],
            ["s", "--t", ",".join(s_heights(seed)), "--jobs", "1"],
        ]
    raise KeyError(workload)


WORKLOADS = ("offline-functional", "critical-line", "argument-growth")

# Ops whose rows depend on the seed: checked by their own invariants, and
# against the stored output only at REFERENCE_SEED.
SEEDED_OPS: Dict[str, int] = {"argument-growth": 2}
