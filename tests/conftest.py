"""Hypothesis settings for the whole suite.

The explain phase re-runs a failing example under a line tracer to report
which lines it reached.  Each drawn code of `oracles.self_dual_codes` is
certified again on every run, a sweep of up to 2^20 words at length 40
that the tracer slows about sevenfold, so the phase turned a property
failure that reports in seconds into one that took a minute.  Without it
Hypothesis still shrinks and prints the falsifying example.
"""

from hypothesis import Phase, settings

settings.register_profile("no-explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no-explain")
