"""Record refs.json: digests of every series in the reference pool.

Runs the program in-process on the built-in codes for each request that
any seed can produce, and stores the digest of each series it prints.
Rerun only when the program's outputs are meant to change:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from framednet import cli  # noqa: E402

from check import REFS_PATH, series_digests  # noqa: E402
from workloads import reference_pool  # noqa: E402


def main() -> int:
    refs = {}
    pool = reference_pool()
    for i, req in enumerate(pool):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(req.argv(Path("."), None))
        if rc != 0:
            print(f"{req}: exit {rc}", file=sys.stderr)
            return 1
        for key, digest in series_digests(req, json.loads(out.getvalue())).items():
            if refs.setdefault(key, digest) != digest:
                print(f"{key}: two requests gave different series", file=sys.stderr)
                return 1
        print(f"{i + 1}/{len(pool)} {req.command} {req.base} {req.variant} {req.order}",
              file=sys.stderr, flush=True)
    with open(REFS_PATH, "w") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
