"""The nine acceptance checks, shared by the CLI `selftest` command and
the acceptance test suite.  Each criterion function raises AssertionError
with a diagnostic message on failure.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, List, TextIO, Tuple

from . import codes, fusion, netchar, orbifold
from .qseries import QSeries


# Coefficients of q^-1 .. q^3 for the length-24 characters: the moonshine
# vacuum character is J = E4^3/Delta - 744, and the Leech character is
# J + 24 (the 24 weight-one states of the Leech lattice).
MOONSHINE_EXPANSION = [1, 0, 196884, 21493760, 864299970]
LEECH_EXPANSION = [1, 24, 196884, 21493760, 864299970]


def criterion_1_leech_character() -> None:
    """Leech character matches the stated expansion exactly, under 60 s."""
    t0 = time.monotonic()
    ch = netchar.frame_char(codes.builtin_code("golay24"), "Ltilde", steps=4)
    got = [ch.series.coeff(k) for k in range(-1, 4)]
    elapsed = time.monotonic() - t0
    assert got == LEECH_EXPANSION, f"coefficients {got} != {LEECH_EXPANSION}"
    assert elapsed < 60, f"took {elapsed:.1f}s"


def criterion_2_moonshine_character() -> None:
    """Orbifold character matches the stated expansion exactly, under 10 s."""
    codes.builtin_code("golay24")  # warm the cached input
    t0 = time.monotonic()
    ch = orbifold.orbifold_vacuum_char(codes.builtin_code("golay24"), "Ltilde", steps=4)
    got = [ch.series.coeff(k) for k in range(-1, 4)]
    elapsed = time.monotonic() - t0
    assert got == MOONSHINE_EXPANSION, f"coefficients {got} != {MOONSHINE_EXPANSION}"
    assert elapsed < 10, f"took {elapsed:.1f}s"


def criterion_3_two_routes() -> None:
    """Frame and theta routes agree termwise to 5 q-steps, all 4 cases."""
    for name in ("h8", "golay24"):
        for variant in ("L", "Ltilde"):
            a = netchar.frame_char(codes.builtin_code(name), variant, steps=5)
            b = netchar.theta_over_eta(codes.builtin_code(name), variant, steps=5)
            e = a.series.first_difference(b.series)
            assert e is None, (
                f"{name}/{variant} routes differ at q^{e}: "
                f"{a.series.coeff(e)} vs {b.series.coeff(e)}"
            )


def criterion_4_e8_coincidences() -> None:
    """Both H8 lattices give the same character; the orbifold reproduces it."""
    a = netchar.frame_char(codes.builtin_code("h8"), "L", steps=5)
    b = netchar.frame_char(codes.builtin_code("h8"), "Ltilde", steps=5)
    assert a.series.agrees_with(b.series), "L and Ltilde characters differ for h8"
    orb = orbifold.orbifold_vacuum_char(codes.builtin_code("h8"), "L", steps=5)
    assert a.series.agrees_with(orb.series), "orbifold differs from untwisted for h8"
    got = [a.series.coeff(Fraction(-1, 3) + k) for k in range(4)]
    assert got == [1, 248, 4124, 34752], f"E8 coefficients {got}"


def criterion_5_holomorphy() -> None:
    """Extensions by both delta codes are allowed with mu-index exactly 1."""
    for name in ("h8", "golay24"):
        H = codes.builtin_delta(name, "Ltilde" if name == "golay24" else "L")
        assert codes.non_integral_element(H) is None, f"{name}: non-integral weight"
        result = fusion.simple_current_extension(H)
        assert result.allowed, f"{name}: extension rejected"
        assert result.mu_after == 1, f"{name}: mu_after = {result.mu_after}"


def criterion_6_census() -> None:
    """Census counts and mu balance for d = 1..12; d=1 has 9 sectors.

    x -> -x fixes the 2^d words of {0, 2}^d and pairs the other words of
    Z4^d, so there are (4^d - 2^d)/2 sectors of dimension 2 and 2 * 2^d of
    dimension 1; the twisted sectors are 2^(d+1).
    """
    for d in range(1, 13):
        c = fusion.orbifold_census(d)
        assert (c.dim2_count, c.dim1_count, c.twisted_count) == (
            (4 ** d - 2 ** d) // 2,
            2 ** (d + 1),
            2 ** (d + 1),
        ), f"counts wrong at d={d}"
        assert c.balanced, f"mu balance fails at d={d}: {c.mu_balance}"
    assert fusion.orbifold_census(1).total_sectors() == 9
    assert fusion.orbifold_census(2).total_sectors() == 22


def criterion_7_disambiguation() -> None:
    """Weight patterns pick the right group structure."""
    got = fusion.fusion_group_disambiguation(
        [0, Fraction(1, 8), Fraction(1, 2), Fraction(1, 8)]
    )
    assert got == "Z4", f"(0,1/8,1/2,1/8) -> {got}"
    # spins (1, 1, 1, -1) correspond to weights (0, 0, 0, 1/2) mod 1
    got = fusion.fusion_group_disambiguation([0, 0, 0, Fraction(1, 2)])
    assert got == "Z2xZ2", f"(0,0,0,1/2) -> {got}"


def criterion_8_ising_branching() -> None:
    """The three branching identities hold termwise to 8 q-steps."""
    mismatch = netchar.ising_branching_mismatch(steps=8)
    assert mismatch is None, f"branching identity fails at q^{mismatch}"


def criterion_9_integrality() -> None:
    """All public characters have integer coefficients and unit vacuum."""
    t0 = time.monotonic()

    def check_int(series: QSeries, what: str) -> None:
        for e, c in series.items():
            assert isinstance(c, int), f"{what}: non-integer coefficient at q^{e}"

    for h in (0, Fraction(1, 2), Fraction(1, 16)):
        check_int(netchar.ising_char(h, 6), f"ising {h}")
    for j in range(4):
        check_int(netchar.u14_sector_char(j, 6), f"u14 {j}")
    for name in ("h8", "golay24"):
        code = codes.builtin_code(name)
        d = code.length
        for variant in ("L", "Ltilde"):
            ch = netchar.frame_char(code, variant, steps=4)
            check_int(ch.series, f"{name}/{variant}")
            assert ch.series.items()[:1] == [(Fraction(-d, 24), 1)], (
                f"{name}/{variant}: vacuum leading term wrong"
            )
            p = orbifold.orbifold_pieces(code, variant, 4)
            for s1, s2 in ((p.z1, p.z2), (p.z3, p.z4)):
                for combined in ((s1 + s2).half(), (s1 - s2).half()):
                    check_int(combined, f"{name}/{variant} half-combination")
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"integrality suite took {elapsed:.1f}s"


CRITERIA: List[Tuple[str, Callable[[], None]]] = [
    ("Leech character exact expansion", criterion_1_leech_character),
    ("moonshine orbifold character", criterion_2_moonshine_character),
    ("two-route character equality", criterion_3_two_routes),
    ("E8 coincidences", criterion_4_e8_coincidences),
    ("holomorphy bookkeeping mu=1", criterion_5_holomorphy),
    ("orbifold sector census", criterion_6_census),
    ("fusion group disambiguation", criterion_7_disambiguation),
    ("Ising branching identities", criterion_8_ising_branching),
    ("integrality suite", criterion_9_integrality),
]


def run(stream: TextIO) -> int:
    """Run all criteria, printing one pass/fail line each; returns #failures."""
    failures = 0
    for i, (name, fn) in enumerate(CRITERIA, start=1):
        try:
            fn()
        except AssertionError as e:
            failures += 1
            stream.write(f"criterion {i}: FAIL - {name}: {e}\n")
        else:
            stream.write(f"criterion {i}: PASS - {name}\n")
    stream.write(f"{len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed\n")
    return failures
