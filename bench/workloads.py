"""Workloads of the verify benchmark: which ``holofubini verify`` calls a pass makes.

Every workload uses p = 1,2,inf, the default functionals and the default
``--grid``/``--shrink``; its points come from the matrix d in {1, 2, 3},
k in {16, 256} atoms, n in {32, 64} nodes.  The seed reaches the program only
as ``--seed``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

SWEEP, BATTERY_D2, BATTERY_D3 = "sweep-d1", "battery-d2", "battery-d3"

#: d > 1 families: ``family_preset`` builds only d = 1, so these go through
#: ``--family-file`` and the CLI's JSON path is part of what is measured.
FAMILY_DOCS = {
    "geometric-d2": {
        "kind": "geometric",
        "params": {"rates": [[0.5, 0.0], [0.4, 0.0]]},
        "domain": {"center": [[0.0, 0.0], [0.0, 0.0]], "radius": [1.0, 1.0]},
        "label": "geometric-d2",
    },
    "exponential-d2": {
        "kind": "exponential",
        "params": {"scale": [1.0, 0.0]},
        "domain": {"center": [[0.0, 0.0], [0.0, 0.0]], "radius": [1.0, 1.0]},
        "label": "exponential-d2",
    },
    "exponential-d3": {
        "kind": "exponential",
        "params": {"scale": [1.0, 0.0]},
        "domain": {"center": [[0.0, 0.0]] * 3, "radius": [1.0] * 3},
        "label": "exponential-d3",
    },
}

#: The seed's false order_bound violation (residual inf from the tail fit,
#: ROADMAP item 3).  It stays in the workloads: a fix must show as a higher
#: checks_passed_share, and a dropped record as a failed output check.
TAIL_FIT_DEFECT = ("order_bound",)


@dataclass(frozen=True)
class Config:
    """One ``verify`` call: a family preset or document, a space preset and n."""

    family: str
    space: str
    nodes: int
    fmt: str = "json"
    known_failures: tuple[str, ...] = ()

    @property
    def from_file(self) -> bool:
        return self.family in FAMILY_DOCS

    @property
    def d(self) -> int:
        return len(FAMILY_DOCS[self.family]["domain"]["radius"]) if self.from_file else 1

    @property
    def atoms(self) -> int:
        return int(self.space.rsplit("-", 1)[1])

    def argv(self, family_dir: Path, seed: int, output: Path) -> list[str]:
        source = (["--family-file", str(family_dir / f"{self.family}.json")] if self.from_file
                  else ["--family", self.family])
        return ["verify", *source, "--space", self.space, "--nodes", str(self.nodes),
                "--p", "1,2,inf", "--format", self.fmt, "--seed", str(seed),
                "--output", str(output)]

    def describe(self) -> str:
        return f"{self.family} d={self.d} {self.space} n={self.nodes} {self.fmt}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple[Config, ...]


def _sweep() -> tuple[Config, ...]:
    presets = ("constant", "polynomial", "affine", "geometric", "exponential", "separable",
               "tabulated")
    configs = []
    for preset in presets:
        for space in ("uniform-16", "geometric-64"):
            known = TAIL_FIT_DEFECT if (preset, space) == ("geometric", "geometric-64") else ()
            fmt = "json" if len(configs) % 2 == 0 else "csv"
            configs.append(Config(preset, space, 64, fmt, known))
    return tuple(configs)


WORKLOADS = {
    SWEEP: Workload(
        SWEEP,
        "many tiny calls: 7 presets x 2 spaces, n=64, json/csv; the only run of schwarz, "
        "derivative_profile, 4 kinds and CSV; sample-once bypass case; known order_bound defect",
        _sweep(),
    ),
    BATTERY_D2: Workload(
        BATTERY_D2,
        "d=2 repeated boundary samples: eval is ~75% of time and ~0.96 of values repeat; "
        "shows sample-once and k=256 scaling; known order_bound defect at k=256",
        (
            Config("geometric-d2", "uniform-16", 64),
            Config("exponential-d2", "uniform-16", 64),
            Config("geometric-d2", "uniform-256", 32, known_failures=TAIL_FIT_DEFECT),
        ),
    ),
    BATTERY_D3: Workload(
        BATTERY_D3,
        "d=3 large arrays (~540 MB peak): order_bound FFT on 82^3x16, contains_all and 32^3 grids; "
        "d=3 k=256 n=32 (156 s, 6.5 GB) and n=64 (~75 s) left out",
        (Config("exponential-d3", "uniform-16", 32),),
    ),
}

#: Matrix points left out on purpose, with their cost measured on a 2-core,
#: 8 GB machine at the seed.  The memory pre-check refuses the first one.
EXCLUDED = (
    (Config("exponential-d3", "uniform-256", 32), "156 s and 6.5 GB peak RSS per call"),
    (Config("exponential-d3", "uniform-16", 64), "about 75 s per call"),
)


def expected_records(d: int, n_p: int = 3, n_functionals: int = 4) -> int:
    """Records one ``verify`` call emits with the default battery.

    Per functional: linearization, fubini and norm_bound for each p, plus span.
    Per |alpha| <= 2: derivative_consistency for each p and diff_under_integral.
    Then order_bound, and schwarz plus 5 derivative_profile orders (d = 1) or
    telescoping (d >= 2).
    """
    alphas = math.comb(d + 2, 2)
    count = n_functionals * (3 * n_p + 1) + alphas * (n_p + 1) + 1
    return count + (6 if d == 1 else 1)


# -- memory pre-check -------------------------------------------------------

ORDER_BOUND_DEGREE = 40
#: peak RSS over the largest estimated array, measured at d = 3: 513 MB over
#: 141 MB for k = 16 and 6.5 GB over 2.26 GB for k = 256
PEAK_PER_ARRAY = 4
#: share of physical memory one benchmark process may plan to use
MEMORY_SHARE = 0.25


def largest_array_bytes(cfg: Config) -> int:
    """The larger of the boundary sample n^d * k and the order_bound grid
    (2 * degree + 2)^d * k, in complex128 bytes."""
    grid = max(cfg.nodes, 2 * ORDER_BOUND_DEGREE + 2) ** cfg.d
    return grid * cfg.atoms * 16


def memory_budget_bytes() -> int:
    return int(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") * MEMORY_SHARE)


def memory_refusals(configs) -> list[str]:
    """Configs whose estimated peak exceeds the budget, described; empty if all fit."""
    budget = memory_budget_bytes()
    return [f"{cfg.describe()}: estimated peak {PEAK_PER_ARRAY * largest_array_bytes(cfg) / 2**30:.2f}"
            f" GiB over budget {budget / 2**30:.2f} GiB"
            for cfg in configs if PEAK_PER_ARRAY * largest_array_bytes(cfg) > budget]


def write_family_files(directory: Path) -> None:
    """Write every d > 1 family document, after checking that it round-trips."""
    from holofubini import family_from_json

    for name, doc in FAMILY_DOCS.items():
        text = json.dumps(doc)
        if family_from_json(text).to_json() != doc:
            raise ValueError(f"family document {name} does not round-trip")
        (directory / f"{name}.json").write_text(text)
