"""Traced stand-in for `python -m framednet.cli`.

Times its own import of framednet.cli, wraps the layer functions below
wherever callers look them up (the module attribute and every framednet
module that imported the name directly; methods on their classes), then
calls cli.main(argv).  Spans (id, name, start, end, parent, request id,
counters, error) stay in memory and are written as JSON to the file named
by $PERFBENCH_TRACE_OUT when the process ends.

    PERFBENCH_TRACE_OUT=spans.json PYTHONPATH=src \\
        python3 perfbench/traced_cli.py char --code builtin:h8
"""

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

FUNCTIONS = [
    ("cli", "main"),
    ("codes", "validate_binary_code"),
    ("codes", "delta_code"),
    ("qseries", "product_form"),
    ("netchar", "theta_over_eta"),
    ("netchar", "lattice_net_char"),
    ("orbifold", "orbifold_pieces"),
    ("orbifold", "orbifold_vacuum_char"),
    ("fusion", "ising_decomposition"),
    ("fusion", "framed_structure"),
    ("fusion", "simple_current_extension"),
]
METHODS = [
    ("codes", "Z4Code", "weight_profile", "codes.weight_profile"),
    ("qseries", "QSeries", "__mul__", "qseries.mul"),
]


class Tracer:
    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans = []
        self.stack = []
        self.profiled = {}

    def wrap(self, name, fn, count=None):
        """Span around fn; count(args, result) gives the span's counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(tracer.spans), name, time.perf_counter(), None,
                    tracer.stack[-1][0] if tracer.stack else None,
                    tracer.request_id, None, None]
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[7] = type(e).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            counts = count(args, result) if count is not None else None
            if counts:
                span[6] = {**(span[6] or {}), **counts}
            return result

        return wrapper

    def add(self, counter, n):
        """Add n to a counter of the innermost open span."""
        if self.stack:
            counters = self.stack[-1][6] = self.stack[-1][6] or {}
            counters[counter] = counters.get(counter, 0) + n

    # counters -------------------------------------------------------

    def mul_pairs(self, args, result):
        a, b = args[0], args[1]
        return {"term_pairs": len(a.terms) * len(b.terms)}

    def profile_entries(self, args, result):
        # a profile is built once per Z4Code; count its entries then
        code = args[0]
        if id(code) in self.profiled:
            return None
        self.profiled[id(code)] = code
        return {"entries": len(result)}

    def decomposition_labels(self, args, result):
        return {"labels": len(result)}


def _replace_everywhere(modules, old, new):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer, modules) -> None:
    """Wrap every traced function found in the loaded framednet modules."""
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    counters = {"fusion.ising_decomposition": tracer.decomposition_labels}
    for mod_name, fn_name in FUNCTIONS:
        fn = getattr(by_name.get(mod_name), fn_name, None)
        if fn is None:
            continue
        name = f"{mod_name}.{fn_name}"
        _replace_everywhere(modules, fn, tracer.wrap(name, fn, counters.get(name)))
    method_counters = {"qseries.mul": tracer.mul_pairs,
                       "codes.weight_profile": tracer.profile_entries}
    for mod_name, cls_name, meth, name in METHODS:
        cls = getattr(by_name.get(mod_name), cls_name, None)
        fn = getattr(cls, meth, None)
        if fn is not None:
            setattr(cls, meth, tracer.wrap(name, fn, method_counters[name]))
    # Words the brute-force profile enumerates: the code's size per call.
    z4 = getattr(by_name.get("codes"), "Z4Code", None)
    brute = getattr(z4, "_compute_profile", None)
    if brute is not None:
        @functools.wraps(brute)
        def counted(self, *args, **kwargs):
            tracer.add("words", len(self))
            return brute(self, *args, **kwargs)

        z4._compute_profile = counted


def main() -> int:
    out_path = os.environ["PERFBENCH_TRACE_OUT"]
    tracer = Tracer(os.environ.get("PERFBENCH_REQUEST_ID", "0"))
    t0 = time.perf_counter()
    import framednet.cli as cli
    import_s = time.perf_counter() - t0
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "framednet" or n.startswith("framednet."))]
    install(tracer, modules)
    rc = 2
    try:
        rc = cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        doc = {"import_s": import_s, "in_process_s": time.perf_counter() - T_START,
               "rc": rc, "spans": tracer.spans}
        with open(out_path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
