"""Output checker: parsed JSON against recorded references and invariants.

Only the fields named here are read, so fields a later version adds (a
`provenance` object, say) do not read as failures.  Series are compared
through a digest of their `den`, `terms` and `order_num`; the references
in refs.json were recorded from the program on the base codes by
make_refs.py.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import BASE_LENGTH, Request

REFS_PATH = Path(__file__).with_name("refs.json")

ANSWERED, REFUSED, FAILED = "answered", "refused", "failed"

DEN = 48
LEECH = [1, 24, 196884, 21493760, 864299970]
MOONSHINE = [1, 0, 196884, 21493760, 864299970]
# golay24/L gives the Niemeier lattice with root system A1^24: 48 roots.
NIEMEIER_A1_24 = [1, 72, 196884, 21493760, 864299970]
E8 = [1, 248, 4124, 34752]
FRAMED_KL = {("h8", "L"): (15, 1), ("h8", "Ltilde"): (14, 2)}
# The golay24 framed refusal of the program as it stands; an answer that
# passes the framed checks is accepted in its place.
FRAMED_REFUSAL = "decomposition too large to expand"
PIECE_NAMES = ("Z1", "Z2", "Z3", "Z4")
SECTOR_NAMES = ("untwisted+", "untwisted-", "beta1", "beta2")


def series_digest(doc: dict) -> str:
    blob = json.dumps([doc["den"], doc["terms"], doc["order_num"]], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def pieces_digest(doc: dict) -> str:
    parts = [series_digest(doc["pieces"][n]) for n in PIECE_NAMES]
    parts += [series_digest(doc["sectors"][n]) for n in SECTOR_NAMES]
    return hashlib.sha256(",".join(parts).encode()).hexdigest()[:16]


def ref_key(req: Request, kind: str) -> str:
    return f"{req.base}/{req.variant}/{kind}/{req.order}"


def series_digests(req: Request, doc: dict) -> Dict[str, str]:
    """Reference keys and digests of every series in a response."""
    if req.command == "char":
        if req.route == "both":
            return {ref_key(req, r): series_digest(doc["routes"][r]) for r in ("code", "theta")}
        return {ref_key(req, req.route): series_digest(doc)}
    out = {ref_key(req, "orbifold"): series_digest(doc)}
    if req.pieces:
        out[ref_key(req, "pieces")] = pieces_digest(doc)
    return out


def load_refs() -> Dict[str, str]:
    with open(REFS_PATH) as fh:
        return json.load(fh)


def _coeffs(series: dict, start: int, count: int) -> List[int]:
    """Coefficients at exponents start, start + 1, ... below the order."""
    terms = {int(n): int(c) for n, c in series["terms"]}
    nums = [start + k * DEN for k in range(count)]
    return [terms.get(n, 0) for n in nums if n < series["order_num"]]


def _check_vacuum(req: Request, series: dict, expected: List[int]) -> None:
    d = BASE_LENGTH[req.base]
    if not series["terms"] or series["terms"][0] != [-2 * d, "1"]:
        raise AssertionError(f"vacuum term is not q^(-{d}/24): {series['terms'][:1]}")
    got = _coeffs(series, -2 * d, len(expected))
    if got != expected[:len(got)]:
        raise AssertionError(f"leading coefficients {got} != {expected[:len(got)]}")


def _expected_vacuum(req: Request) -> List[int]:
    if req.base == "h8":
        return E8
    if req.command == "orbifold-char":
        return MOONSHINE if req.variant == "Ltilde" else LEECH
    return LEECH if req.variant == "Ltilde" else NIEMEIER_A1_24


def _check_series(req: Request, doc: dict, refs: Dict[str, str]) -> None:
    if req.command == "char" and req.route == "both":
        if doc["agree"] is not True:
            raise AssertionError("routes disagree")
        vacua = [doc["routes"]["code"], doc["routes"]["theta"]]
    else:
        vacua = [doc]
    for series in vacua:
        _check_vacuum(req, series, _expected_vacuum(req))
    if req.command == "orbifold-char" and doc.get("warning"):
        raise AssertionError(f"unexpected warning: {doc['warning']}")
    for key, digest in series_digests(req, doc).items():
        if key not in refs:
            raise AssertionError(f"no reference for {key}")
        if refs[key] != digest:
            raise AssertionError(f"{key}: series differs from the reference")


def _check_extend(req: Request, doc: dict) -> None:
    d = BASE_LENGTH[req.base]
    want = {"allowed": True, "mu_after": "1", "mu_before": str(4 ** d),
            "subgroup_size": 1 << d, "quotient_orders": []}
    for k, v in want.items():
        if doc[k] != v:
            raise AssertionError(f"extend {k} = {doc[k]!r}, expected {v!r}")


def _check_framed(req: Request, doc: dict) -> None:
    d = BASE_LENGTH[req.base]
    if doc["index_check"] != "1":
        raise AssertionError(f"index_check {doc['index_check']!r}")
    if doc["num_ising_factors"] != 2 * d:
        raise AssertionError(f"num_ising_factors {doc['num_ising_factors']}")
    want = FRAMED_KL.get((req.base, req.variant))
    if want is not None and (doc["k"], doc["l"]) != want:
        raise AssertionError(f"(k, l) = ({doc['k']}, {doc['l']}), expected {want}")


def check(req: Request, rc: int, stdout: bytes, stderr: bytes,
          refs: Dict[str, str]) -> Tuple[str, Optional[str]]:
    """Classify one response as answered, refused (documented) or failed."""
    if req.command == "framed" and req.base == "golay24" and rc == 1:
        if FRAMED_REFUSAL in stderr.decode(errors="replace"):
            return REFUSED, None
        return FAILED, f"exit 1 without the documented refusal: {stderr[-200:]!r}"
    if rc != 0:
        return FAILED, f"exit code {rc}: {stderr[-200:]!r}"
    try:
        doc = json.loads(stdout)
    except ValueError as e:
        return FAILED, f"unparsable JSON: {e}"
    try:
        if req.command in ("char", "orbifold-char"):
            _check_series(req, doc, refs)
        elif req.command == "extend":
            _check_extend(req, doc)
        elif req.command == "framed":
            _check_framed(req, doc)
        else:
            raise AssertionError(f"no check for command {req.command!r}")
    except (AssertionError, KeyError, TypeError, ValueError) as e:
        return FAILED, f"check failed: {type(e).__name__}: {e}"
    return ANSWERED, None


def cache_snapshot(cache_dir: Path) -> Dict[str, Tuple[int, int, int]]:
    """Entry name -> (inode, mtime_ns, size) of every cache entry in the directory."""
    out = {}
    try:
        with os.scandir(cache_dir) as it:
            for e in it:
                if e.name.endswith(".json"):
                    st = e.stat()
                    out[e.name] = (st.st_ino, st.st_mtime_ns, st.st_size)
    except FileNotFoundError:
        pass
    return out


def was_hit(before: Dict[str, tuple], after: Dict[str, tuple]) -> bool:
    """A lookup is a hit unless it left a new or rewritten entry behind."""
    return all(before.get(name) == stat for name, stat in after.items())
