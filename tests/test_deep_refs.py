"""Series byte for byte against the benchmark's references: a few deep
requests at orders 125-150, and the frame route on golay24 at the orders
of the frame workload, run in-process and compared with the digests that
perfbench/refs.json records for them.  The benchmark's own checker
computes the digests; perfbench/ is only read.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from framednet import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # check.py imports workloads by name
    sys.modules.setdefault(name, module)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
CHECK = _load("check")
Request = WORKLOADS.Request

DEEP = [
    Request("char", "golay24", "Ltilde", 150, "theta"),
    Request("orbifold-char", "golay24", "L", 125, pieces=True),
    Request("orbifold-char", "golay24", "Ltilde", 150, pieces=True),
    # the rank-8 twisted pieces, whose ground q^(1/6) is a half-step off the vacuum's
    Request("orbifold-char", "h8", "L", 150, pieces=True),
    Request("orbifold-char", "h8", "Ltilde", 150, pieces=True),
    # both routes: h8/Ltilde/code/150 and h8/Ltilde/theta/150
    Request("char", "h8", "Ltilde", 150, "both"),
    # the frame route on the frame workload's code, at both of its glue signs
    Request("char", "golay24", "L", 4, "code"),
    Request("char", "golay24", "Ltilde", 8, "code"),
]


@pytest.mark.parametrize("req", DEEP, ids=lambda r: f"{r.command}-{r.base}-{r.variant}-{r.order}")
def test_matches_reference_digest(req):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(req.argv(Path("."), None)) == 0
    digests = CHECK.series_digests(req, json.loads(out.getvalue()))
    refs = CHECK.load_refs()
    assert digests == {key: refs[key] for key in digests}
