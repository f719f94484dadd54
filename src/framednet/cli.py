"""Command-line interface: deterministic JSON/CSV/DOT emission and a
content-addressed on-disk result cache.

Exit codes: 0 success, 1 domain validation failure (a code outside the
paper's hypotheses, a subgroup without integer weights), 2 input/usage
error (a missing, unreadable or malformed file, an unknown builtin name,
a bad flag value such as a dimension below 1, an `emit-graph --d` above
GRAPH_D_LIMIT, a `census` dimension above POWER_D_LIMIT, an `extend`
dimension above EXTEND_D_LIMIT, an `--order` above ORDER_LIMIT, a code
of more than codes.ENUM_LIMIT words, ragged labels or a multiplicity
below 1 in a `framed --decomp` file, an output file or cache directory
that cannot be written).  An exit 2 prints `error: ...` to stderr
(after argparse's usage line for a bad flag) and nothing to stdout.

Only stdlib modules are imported here. Each subcommand imports the
framednet modules it runs, so a short-lived process that answers from
the cache, or runs a command that needs no series, loads no more.
Records are `typing.NamedTuple`s rather than frozen data classes, whose
module would load `inspect`, `ast`, `dis` and `tokenize` into every
process.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import partial
from typing import Dict, List, Optional

CACHE_ENV = "FRAMEDNET_CACHE"
# emit-graph builds its whole DOT text in memory, and the text grows 4x
# per step of d: d = 8 is 6.4 MB.
GRAPH_D_LIMIT = 8
# census prints 4^(d+1), and Python refuses to convert an int of more than
# 4300 digits (its default limit) to text; 4^(d+1) has at most 4300 digits
# up to this d.
POWER_D_LIMIT = 7141
# extend's time grows with d and with H's generators.  At d = 1600, one
# generator 22 0...0 took 0.07 s, the 800 generators 22 on each pair and
# the 799 generators 2222 on four adjacent coordinates 0.11 s, and the 1599
# generators 22 on coordinates i, i + 1 0.16 s, at 16-23 MB (fresh
# processes, median of 5, 2-core Xeon, Python 3.11.7); in-process library
# calls with those shapes took 0.014-0.041 s at d = 3200, 0.04-0.13 s at 6400.
EXTEND_D_LIMIT = 1600
# a series' cost grows about as order^2: at order 1000, golay24/Ltilde
# `char --route both` took 9.0-12.5 s (20 MB), of which the code route is
# most, `char --route theta` 1.6-1.9 s (16 MB), `orbifold-char` 1.5-1.7 s
# (16 MB) and `orbifold-char --pieces` 4.5-5.0 s (24 MB) (fresh processes,
# 3-9 runs each, 2-core Xeon, Python 3.11.7).
ORDER_LIMIT = 1000


class InputError(Exception):
    """Bad user input: missing files, unparseable values (exit 2)."""


# ---------------------------------------------------------------------------
# helpers


def _read_text(path: str, kind: str) -> str:
    """The text of an input file; a missing, unreadable or non-UTF-8 file
    is bad input."""
    if not os.path.exists(path):
        raise InputError(f"{kind} file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(str(e))
    except UnicodeDecodeError as e:
        raise InputError(f"{kind} file is not UTF-8 text: {e}")


def _load_code(spec: str, text: Optional[str] = None):
    """The `codes.BinaryCode` named by a builtin:<name> spec or a file path,
    parsed from `text` when the caller has already read the file.

    A file that cannot be read or parsed, an unknown builtin name or a code
    too large to sweep is bad input; the commands check the hypotheses.
    """
    from .codes import ENUM_LIMIT, CodeError, load_code

    if text is None and not spec.startswith("builtin:"):
        text = _read_text(spec, "code")
    try:
        code = load_code(spec, text)
    except CodeError as e:
        raise InputError(str(e))
    if len(code) > ENUM_LIMIT:
        raise InputError(f"code too large to enumerate: 2^{code.dimension} words")
    return code


def _program_identity() -> str:
    """Hash of this package's sources for cache keys, so that an entry
    written by another version of the program is a miss."""
    import hashlib

    here = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror or e}")


def _emit(doc: dict, json_path: Optional[str], csv_path: Optional[str] = None) -> None:
    if csv_path:
        _emit_csv(doc, csv_path)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if json_path:
        _write_text(json_path, text)
    else:
        sys.stdout.write(text)


def _emit_csv(series_doc: dict, csv_path: str) -> None:
    """Callers write the CSV before any stdout, so that a failed write
    leaves stdout empty."""
    lines = ["exponent_num,coefficient"]
    for num, coeff in series_doc["terms"]:
        lines.append(f"{num},{coeff}")
    _write_text(csv_path, "\n".join(lines) + "\n")


def _cache_dir(args) -> Optional[str]:
    return getattr(args, "cache", None) or os.environ.get(CACHE_ENV)


def _cached(args, spec: str, request: dict, compute) -> dict:
    """compute(code) for the code named by `spec`, through the
    content-addressed cache: key is the hash of the request manifest,
    which names a builtin code by its name, a code file by the hash of its
    text, and the program by the hash of its sources.  The code file is
    read once, so a miss parses the text it hashed."""
    cache = _cache_dir(args)
    if not cache:
        return compute(_load_code(spec))
    import hashlib

    if spec.startswith("builtin:"):
        text, code_id = None, {"builtin": spec.split(":", 1)[1]}
    else:
        text = _read_text(spec, "code")
        code_id = {"text": hashlib.sha256(text.encode()).hexdigest()}
    key_doc = {**request, "code": code_id, "program": _program_identity()}
    key = hashlib.sha256(
        json.dumps(key_doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    path = os.path.join(cache, key + ".json")
    if os.path.exists(path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or "result" not in doc:
                raise ValueError("not a cache entry")
            if doc.get("_manifest") == key_doc:
                return doc["result"]
            raise ValueError("manifest mismatch")
        except (ValueError, OSError) as e:
            print(f"warning: ignoring unreadable cache entry {path}: {e}", file=sys.stderr)
    result = compute(_load_code(spec, text))
    # A name of this writer's own, so concurrent writers never share a temp
    # file; opened like any new file so the entry keeps the umask's mode.
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        os.makedirs(cache, exist_ok=True)
        with open(tmp, "x") as fh:
            json.dump({"_manifest": key_doc, "result": result}, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError as e:
        raise InputError(f"cannot write cache {cache}: {e.strerror or e}")
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return result


def _decimal(text: str) -> int:
    """An int in ASCII digits with an optional sign, else ValueError; int()
    alone would also read '1_0' as 10 and digits of any script."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _int_in(low: int, high: int, text: str) -> int:
    try:
        n = _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < low:
        raise argparse.ArgumentTypeError(
            f"must be {'nonnegative' if low == 0 else 'positive'}, got {n}"
        )
    if n > high:
        raise argparse.ArgumentTypeError(f"must be at most {high}, got {n}")
    return n


_order = partial(_int_in, 0, ORDER_LIMIT)
_power_dimension = partial(_int_in, 1, POWER_D_LIMIT)
_graph_dimension = partial(_int_in, 0, GRAPH_D_LIMIT)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate_code(args) -> int:
    from .codes import validate_binary_code

    code = _load_code(args.code)
    report = validate_binary_code(code)
    doc = {
        "length": code.length,
        "dimension": code.dimension,
        "doubly_even": report.doubly_even,
        "self_dual": report.self_dual,
        "contains_all_ones": report.contains_all_ones,
        "weight_enumerator": {str(w): c for w, c in sorted(report.weight_enumerator.items())},
    }
    _emit(doc, args.json)
    return 0


def _char_series(spec: str, variant: str, order: int, route: str, args) -> dict:
    request = {"command": "char", "variant": variant, "order": order, "route": route}

    def compute(code) -> dict:
        from . import codes, netchar

        codes.check_holomorphic_hypotheses(code)
        series = {}
        if route in ("code", "both"):
            series["code"] = netchar.frame_char(code, variant, order).series
        if route in ("theta", "both"):
            series["theta"] = netchar.theta_over_eta(code, variant, order).series
        out = {name: s.to_json_dict() for name, s in series.items()}
        if route == "both":
            return {"routes": out, "agree": series["code"].agrees_with(series["theta"])}
        return next(iter(out.values()))

    return _cached(args, spec, request, compute)


def _cmd_char(args) -> int:
    if args.csv and args.route == "both":
        raise InputError("--csv needs a single route")
    _emit(_char_series(args.code, args.variant, args.order, args.route, args), args.json, args.csv)
    return 0


def _cmd_orbifold_char(args) -> int:
    request = {
        "command": "orbifold-char",
        "variant": args.variant,
        "order": args.order,
        "pieces": bool(args.pieces),
    }

    def compute(code) -> dict:
        from . import orbifold

        if not args.pieces:
            ch = orbifold.orbifold_vacuum_char(code, args.variant, args.order)
            return ch.series.to_json_dict()
        # the vacuum is read off the pieces printed anyway: untwisted+ plus beta1
        p = orbifold.orbifold_pieces(code, args.variant, args.order)
        doc = orbifold.vacuum_char_from_pieces(p).series.to_json_dict()
        sectors = orbifold.fixed_point_sector_chars(p)
        doc["pieces"] = {
            z.upper(): getattr(p, z).to_json_dict() for z in ("z1", "z2", "z3", "z4")
        }
        doc["sectors"] = {
            name: s.to_json_dict()
            for name, s in zip(("untwisted+", "untwisted-", "beta1", "beta2"), sectors)
        }
        return doc

    _emit(_cached(args, args.code, request, compute), args.json, args.csv)
    return 0


def _cmd_extend(args) -> int:
    from . import codes, fusion

    if not args.system.startswith("z4pow:"):
        raise InputError(f"unknown system {args.system!r} (expected z4pow:<d>)")
    try:
        d = _decimal(args.system.split(":", 1)[1])
    except ValueError:
        raise InputError(f"bad system dimension in {args.system!r}")
    if d < 1:
        raise InputError(f"system dimension must be positive, got {d}")
    if d > EXTEND_D_LIMIT:
        raise InputError(f"system dimension must be at most {EXTEND_D_LIMIT}, got {d}")
    sub = args.subgroup
    try:
        if sub.startswith("builtin:"):
            H = codes.builtin_delta(sub.split(":", 1)[1], args.variant)
        else:
            H = codes.z4_code_from_text(_read_text(sub, "subgroup"))
    except codes.CodeError as e:
        raise InputError(str(e))
    if H.length != d:
        raise InputError(f"subgroup length {H.length} != system dimension {d}")
    result = fusion.simple_current_extension(H)
    doc = {
        "allowed": result.allowed,
        "mu_before": str(result.mu_before),
        "mu_after": str(result.mu_after),
        "subgroup_size": 1 << H.log2_size,
        "quotient_orders": None if result.quotient_orders is None else list(result.quotient_orders),
        "offending": list(result.offending) if result.offending else None,
    }
    _emit(doc, args.json)
    return 0 if result.allowed else 1


def _cmd_census(args) -> int:
    from . import fusion

    c = fusion.orbifold_census(args.d)
    # sqrt(2)^d as a + b*sqrt(2)
    half = 1 << c.d // 2
    doc = {
        "d": c.d,
        "dim2": c.dim2_count,
        "dim1": c.dim1_count,
        "dimRoot2Pow": c.twisted_count,
        "twisted_dim": {"a": 0, "b": half} if c.d % 2 else {"a": half, "b": 0},
        "mu_balance": {"a": c.mu_balance, "b": 0},
        "balanced": c.balanced,
        "total_sectors": c.total_sectors(),
    }
    _emit(doc, args.json)
    return 0


def _parse_decomp_file(path: str) -> list:
    """One label per line: comma-separated weights from {0,1/2,1/16},
    optionally followed by whitespace and a positive multiplicity (default
    1); a label listed twice has the sum of its multiplicities.  Returns
    (label, multiplicity) pairs, each label a tuple of Fractions."""
    from .fusion import ISING_LABELS

    weights = {str(h): h for h in ISING_LABELS}  # the texts 0, 1/2 and 1/16
    mults: Dict[tuple, int] = {}
    for line in _read_text(path, "decomposition").split("\n"):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        label = tuple(weights.get(t) for t in parts[0].split(","))
        if None in label:
            raise InputError(f"bad label entry in {line!r}")
        if len(parts) > 2:
            raise InputError(f"extra field after the multiplicity in {line!r}")
        try:
            mult = _decimal(parts[1] if len(parts) > 1 else "1")
        except ValueError:
            raise InputError(f"bad multiplicity in {line!r}")
        if mult < 1:
            raise InputError(f"multiplicity must be positive in {line!r}")
        if mults and len(label) != len(next(iter(mults))):
            raise InputError("label lengths differ")
        mults[label] = mults.get(label, 0) + mult
    if not mults:
        raise InputError("empty decomposition file")
    return list(mults.items())


def _cmd_framed(args) -> int:
    from fractions import Fraction

    from . import codes, fusion

    if bool(args.decomp) == bool(args.code):
        raise InputError("framed needs exactly one of --decomp or --code")
    if args.decomp:
        fs = fusion.framed_structure(_parse_decomp_file(args.decomp))
    else:
        code = _load_code(args.code)
        codes.check_holomorphic_hypotheses(code)
        fs = fusion.framed_from_code(codes.delta_code(code, args.variant))
    doc = {
        "num_ising_factors": fs.num_factors,
        "k": fs.k,
        "l": fs.l,
        "sign_matrix": ["".join(map(str, row)) for row in fs.sign_matrix],
        "index_check": str(Fraction(4 ** fs.num_factors, (2 ** fs.k) ** 2 * (2 ** fs.l) ** 2)),
    }
    _emit(doc, args.json)
    return 0


def _cmd_emit_graph(args) -> int:
    from .fusion import emit_branching_graph

    text = emit_branching_graph(args.d) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    failures = selftest.run(sys.stdout)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="framednet",
        description="Exact characters of code lattices and their order-2 orbifolds.",
    )
    p.add_argument("--cache", help=f"result cache directory (or ${CACHE_ENV})")
    sub = p.add_subparsers(dest="command", required=True)

    def add_code_flags(sp):
        sp.add_argument("--code", required=True, help="path or builtin:h8|golay24")
        sp.add_argument("--variant", choices=("L", "Ltilde"), default="L")

    sp = sub.add_parser("validate-code", help="certify a binary code")
    sp.add_argument("--code", required=True)
    sp.add_argument("--json", help="write JSON here instead of stdout")

    sp = sub.add_parser("char", help="lattice net vacuum character")
    add_code_flags(sp)
    sp.add_argument("--order", type=_order, default=5, help="q-steps above the leading term")
    sp.add_argument("--route", choices=("code", "theta", "both"), default="code")
    sp.add_argument("--json")
    sp.add_argument("--csv")

    sp = sub.add_parser("orbifold-char", help="twisted orbifold vacuum character")
    add_code_flags(sp)
    sp.add_argument("--order", type=_order, default=5)
    sp.add_argument("--pieces", action="store_true", help="emit Z1-Z4 and sector characters")
    sp.add_argument("--json")
    sp.add_argument("--csv")

    sp = sub.add_parser("extend", help="simple current extension bookkeeping")
    sp.add_argument("--system", required=True, help="z4pow:<d>")
    sp.add_argument("--subgroup", required=True, help="Z4 code file or builtin:<name>")
    sp.add_argument("--variant", choices=("L", "Ltilde"), default="L")
    sp.add_argument("--json")

    sp = sub.add_parser("census", help="orbifold sector census")
    sp.add_argument("--d", type=_power_dimension, required=True)
    sp.add_argument("--json")

    sp = sub.add_parser("framed", help="framed structure (k, l) of a decomposition")
    sp.add_argument("--decomp", help="decomposition file")
    sp.add_argument("--code", help="derive (k, l) from the Z4 code of a binary code")
    sp.add_argument("--variant", choices=("L", "Ltilde"), default="L")
    sp.add_argument("--json")

    sp = sub.add_parser("emit-graph", help="induction-restriction graph (DOT)")
    sp.add_argument("--d", type=_graph_dimension, required=True, help=f"0..{GRAPH_D_LIMIT}")
    sp.add_argument("--out")

    sub.add_parser("selftest", help="run the acceptance checks")
    return p


_COMMANDS = {
    "validate-code": _cmd_validate_code,
    "char": _cmd_char,
    "orbifold-char": _cmd_orbifold_char,
    "extend": _cmd_extend,
    "census": _cmd_census,
    "framed": _cmd_framed,
    "emit-graph": _cmd_emit_graph,
    "selftest": _cmd_selftest,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as e:  # CodeError, FusionError and GridError too
        print(f"validation failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
