"""Seeded inputs of the benchmark workloads.

Every workload is a closed loop of rounds.  A round is a fixed list of CLI
requests in a seeded order; apart from the fresh cache misses of
`warm-cache`, every round of a run does the same work, so per-request
counts are exact over any whole number of rounds.

The seed fixes the request order, the orders drawn from each range, the
variants, and the code files the program reads: copies of h8 and golay24
with their coordinate pairs permuted.  Pair permutations leave characters,
Z4 weight profiles and framed (k, l) unchanged, so references keyed by the
base code hold for every copy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = ("frame", "deep-series", "warm-cache")

BASE_LENGTH = {"h8": 8, "golay24": 24}

# Generator rows of the built-in codes, as in framednet.codes.
BASE_ROWS = {
    "h8": ["11110000", "00111100", "00001111", "01010101"],
    "golay24": [
        "101011100011000000000001",
        "010101110001100000000001",
        "001010111000110000000001",
        "000101011100011000000001",
        "000010101110001100000001",
        "000001010111000110000001",
        "000000101011100011000001",
        "000000010101110001100001",
        "000000001010111000110001",
        "000000000101011100011001",
        "000000000010101110001101",
        "000000000001010111000111",
    ],
}

BASE_WEIGHTS = {
    "h8": {"0": 1, "4": 14, "8": 1},
    "golay24": {"0": 1, "8": 759, "12": 2576, "16": 759, "24": 1},
}

FRAME_ORDERS = (4, 8)
DEEP_ORDERS = (100, 150)
DEEP_STRATA = 2
WARM_ORDERS = (20, 40)
MISS_ORDERS = (41, 60)
WARM_HITS_PER_MISS = 4
MISS_FILES = 400


@dataclass(frozen=True)
class Request:
    """One CLI call.  `code` names an input file; empty means builtin."""

    command: str
    base: str
    variant: str
    order: Optional[int] = None
    route: Optional[str] = None
    pieces: bool = False
    code: str = ""
    cache: bool = False

    def argv(self, inputs: Path, cache_dir: Optional[Path]) -> List[str]:
        out = ["--cache", str(cache_dir)] if self.cache else []
        if self.command == "extend":
            d = BASE_LENGTH[self.base]
            return out + ["extend", "--system", f"z4pow:{d}",
                          "--subgroup", f"builtin:{self.base}", "--variant", self.variant]
        spec = str(inputs / self.code) if self.code else f"builtin:{self.base}"
        out += [self.command, "--code", spec, "--variant", self.variant]
        if self.order is not None:
            out += ["--order", str(self.order)]
        if self.route:
            out += ["--route", self.route]
        if self.pieces:
            out.append("--pieces")
        return out


def permute_coords(rows: List[str], perm: List[int]) -> List[str]:
    """Move coordinate i of every row to position perm[i]."""
    out = []
    for row in rows:
        moved = [""] * len(row)
        for i, b in enumerate(row):
            moved[perm[i]] = b
        out.append("".join(moved))
    return out


def code_text(rows: List[str]) -> str:
    return "\n".join(rows) + "\n"


def pair_permuted_copy(base: str, rng: random.Random) -> str:
    rows = BASE_ROWS[base]
    n = len(rows[0])
    identity = list(range(n // 2))
    pairs = identity[:]
    while pairs == identity:
        rng.shuffle(pairs)
    return code_text(permute_coords(rows, [2 * pairs[i // 2] + i % 2 for i in range(n)]))


@dataclass
class Plan:
    """Inputs of one run: code files, cache working set, and rounds."""

    workload: str
    seed: int
    files: Dict[str, str]
    base_round: List[Request]
    working_set: List[Request] = field(default_factory=list)
    miss: Optional[Request] = None
    miss_files: List[str] = field(default_factory=list)

    def rounds(self):
        """Yield the requests of each round; ends when miss files run out."""
        rng = random.Random(f"{self.workload}:{self.seed}:rounds")
        i = 0
        while True:
            if self.miss is None:
                batch = list(self.base_round)
            else:
                if i >= len(self.miss_files):
                    return
                batch = rng.sample(self.working_set, WARM_HITS_PER_MISS)
                batch.append(replace(self.miss, code=self.miss_files[i]))
            rng.shuffle(batch)
            yield batch
            i += 1


def _frame(rng: random.Random) -> List[Request]:
    o = rng.randint(*FRAME_ORDERS)
    partner = sum(FRAME_ORDERS) - o
    return [
        Request("char", "golay24", "L", o, "code", code="golay24.txt"),
        Request("char", "golay24", "Ltilde", partner, "code", code="golay24.txt"),
        Request("extend", "golay24", "L"),
        Request("extend", "golay24", "Ltilde"),
        Request("framed", "golay24", "L", code="golay24.txt"),
        Request("framed", "golay24", "Ltilde", code="golay24.txt"),
        Request("framed", "h8", "L", code="h8.txt"),
        Request("framed", "h8", "Ltilde", code="h8.txt"),
    ]


def _deep(rng: random.Random) -> List[Request]:
    # Each template runs at one order from each of DEEP_STRATA strata of the
    # lower half of the range and at the mirror image of that order in the
    # upper half, so the cost of a round hardly depends on the seed.
    lo, hi = DEEP_ORDERS
    width = ((lo + hi) // 2 - lo + 1) / DEEP_STRATA
    templates = [
        ("char", "golay24", "L", "theta", False),
        ("char", "golay24", "Ltilde", "theta", False),
        ("orbifold-char", "golay24", "L", None, True),
        ("orbifold-char", "golay24", "Ltilde", None, True),
        ("char", "h8", "L", "both", False),
        ("char", "h8", "Ltilde", "both", False),
        ("orbifold-char", "h8", None, None, True),
    ]
    out = []
    for command, base, variant, route, pieces in templates:
        for j in range(DEEP_STRATA):
            o = rng.randint(lo + round(j * width), lo + round((j + 1) * width) - 1)
            variants = [variant] * 2 if variant else rng.sample(["L", "Ltilde"], 2)
            for v, order in zip(variants, (o, lo + hi - o)):
                out.append(Request(command, base, v, order, route, pieces, code=f"{base}.txt"))
    return out


def _warm(rng: random.Random) -> List[Request]:
    templates = [
        ("char", "golay24", "theta", False),
        ("char", "h8", "theta", False),
        ("char", "h8", "code", False),
        ("char", "h8", "both", False),
        ("orbifold-char", "golay24", None, False),
        ("orbifold-char", "golay24", None, True),
        ("orbifold-char", "h8", None, False),
        ("orbifold-char", "h8", None, True),
    ]
    return [
        Request(command, base, rng.choice(["L", "Ltilde"]), rng.randint(*WARM_ORDERS),
                route, pieces, code=f"{base}.txt", cache=True)
        for command, base, route, pieces in templates
    ]


def make_plan(workload: str, seed: int) -> Plan:
    """Build a run's inputs; the same workload and seed give the same plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    files = {f"{base}.txt": pair_permuted_copy(base, rng) for base in BASE_ROWS}
    if workload == "frame":
        return Plan(workload, seed, files, _frame(rng))
    if workload == "deep-series":
        return Plan(workload, seed, files, _deep(rng))
    working_set = _warm(rng)
    # A miss is a cheap h8 theta request at an order outside the working
    # set, on a code file never seen before, so it writes a new entry.
    # The theta route reads only the weight enumerator, which any
    # coordinate permutation keeps.
    miss = Request("char", "h8", rng.choice(["L", "Ltilde"]), rng.randint(*MISS_ORDERS),
                   "theta", code="", cache=True)
    seen = set()
    miss_files = []
    while len(miss_files) < MISS_FILES:
        perm = list(range(8))
        rng.shuffle(perm)
        text = code_text(permute_coords(BASE_ROWS["h8"], perm))
        if text in seen or text == files["h8.txt"]:
            continue
        seen.add(text)
        name = f"miss{len(miss_files):03d}.txt"
        files[name] = text
        miss_files.append(name)
    return Plan(workload, seed, files, [], working_set, miss, miss_files)


def reference_pool() -> List[Request]:
    """Every series request any seed can produce, on the base codes."""
    out = []
    for variant in ("L", "Ltilde"):
        for o in range(FRAME_ORDERS[0], FRAME_ORDERS[1] + 1):
            out.append(Request("char", "golay24", variant, o, "code"))
        for o in range(DEEP_ORDERS[0], DEEP_ORDERS[1] + 1):
            out.append(Request("char", "golay24", variant, o, "theta"))
            out.append(Request("orbifold-char", "golay24", variant, o, pieces=True))
            out.append(Request("char", "h8", variant, o, "both"))
            out.append(Request("orbifold-char", "h8", variant, o, pieces=True))
        for o in range(WARM_ORDERS[0], WARM_ORDERS[1] + 1):
            out.append(Request("char", "golay24", variant, o, "theta"))
            out.append(Request("char", "h8", variant, o, "both"))
            out.append(Request("orbifold-char", "golay24", variant, o, pieces=True))
            out.append(Request("orbifold-char", "h8", variant, o, pieces=True))
        for o in range(MISS_ORDERS[0], MISS_ORDERS[1] + 1):
            out.append(Request("char", "h8", variant, o, "theta"))
    return out
