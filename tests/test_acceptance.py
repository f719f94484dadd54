"""Acceptance criteria, one test per criterion, one pass/fail line each.

Criteria 1 and 2 compare the length-24 characters at q^-1..q^3 with J + 24
(Leech) and J (moonshine).  Their expected lists once ended in 8642909970,
which is J's q^3 coefficient 864299970 with a stray digit; the corrected
value is what E4^3/Delta - 744 gives, what the Monster decomposition
2*1 + 2*196883 + 21296876 + 842609326 sums to, and what the code-sum and
orbifold routes both derive.  `test_expansions_match_j` checks the lists
against J computed here with plain integers, independently of the package.
The modular oracle below extends that check from four coefficients of one
character to 31 coefficients of every route at ranks 8, 16, 24 and 32.
"""

from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest

from framednet.codes import BinaryCode, builtin_code, validate_binary_code
from framednet.netchar import _over_eta, frame_char, theta_over_eta, theta_series
from framednet.orbifold import orbifold_vacuum_char
from framednet.selftest import CRITERIA, LEECH_EXPANSION, MOONSHINE_EXPANSION
from oracles import (
    LENGTH24_TEXTS,
    _d16_plus,
    _d24_plus,
    _h8_cubed,
    _h8_plus_d16_plus,
    _h8_squared,
    length24_code,
    weight_four_signature,
)


def _mul(a, b, n):
    """Product of two integer power series, cut to n terms."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def _e4(n):
    return [1] + [240 * sum(d**3 for d in range(1, k + 1) if k % d == 0) for k in range(1, n)]


def _euler_power(p, n):
    """prod_m (1 - q^m)^p cut to n terms; eta^p without its q^(p/24)."""
    out = [1] + [0] * (n - 1)
    for m in range(1, n):
        for _ in range(p):
            for k in range(n - 1, m - 1, -1):
                out[k] -= out[k - m]
    return out


def _j_coefficients(top):
    """Coefficients of q^-1 .. q^top of J = E4^3/Delta - 744, in integers."""
    n = top + 2  # power-series terms q^0 .. q^(top+1) before dividing by q
    e4 = _e4(n)
    delta_over_q = _euler_power(24, n)
    numerator = _mul(_mul(e4, e4, n), e4, n)
    quotient = []  # numerator / delta_over_q; the divisor has leading term 1
    for k in range(n):
        quotient.append(numerator[k] - sum(quotient[i] * delta_over_q[k - i] for i in range(k)))
    quotient[1] -= 744
    return quotient


def test_expansions_match_j():
    j = _j_coefficients(3)
    assert MOONSHINE_EXPANSION == j
    assert LEECH_EXPANSION == [j[0], j[1] + 24] + j[2:]


# The modular oracle.  For a holomorphic net of central charge d (8 | d),
# chi * eta^d is a modular form of weight d/2 for SL2(Z), so it lies in the
# span of E4^(d/8 - 3i) Delta^i, 0 <= i <= d/24.  Delta^i starts at q^i, so
# the first d/24 + 1 coefficients fix the form and the rest check it.

MODULAR_STEPS = 30


def _modular_form_coefficients(series, d):
    """The c_i with chi * eta^d = sum_i c_i E4^(d/8-3i) Delta^i, fitted on
    the first d/24 + 1 coefficients and checked on all 31."""
    n = MODULAR_STEPS + 1
    chi = [series.coeff(Fraction(-d, 24) + k) for k in range(n)]
    f = _mul(chi, _euler_power(d, n), n)
    delta = [0] + _euler_power(24, n - 1)
    form, cs = [0] * n, []
    for i in range(d // 24 + 1):
        basis = [1] + [0] * (n - 1)
        for _ in range(d // 8 - 3 * i):
            basis = _mul(basis, _e4(n), n)
        for _ in range(i):
            basis = _mul(basis, delta, n)
        cs.append(f[i] - form[i])  # basis starts 1 * q^i
        form = [a + cs[-1] * b for a, b in zip(form, basis)]
    assert f == form, f"chi * eta^{d} is not a modular form: {f} != {form}"
    return cs


def _reed_muller_2_5():
    """RM(2, 5): the monomials of degree <= 2 in 5 variables on F2^5."""
    points = [[(x >> i) & 1 for i in range(5)] for x in range(32)]
    monomials = [()] + [(i,) for i in range(5)] + list(combinations(range(5), 2))
    return BinaryCode(32, [[int(all(p[i] for i in m)) for p in points] for m in monomials])


MODULAR_CODES = {
    "h8": lambda: builtin_code("h8"),
    "h8+h8": _h8_squared,
    "d16+": _d16_plus,
    "golay24": lambda: builtin_code("golay24"),
    "h8+h8+h8": _h8_cubed,
    "h8+d16+": _h8_plus_d16_plus,
    "d24+": _d24_plus,
    **{name: partial(length24_code, name) for name in LENGTH24_TEXTS},
    "rm25": _reed_muller_2_5,
}


def _theta_over_eta_by_full_sum(code, variant, steps):
    """Theta / eta^d with Theta summed over the weight enumerator to full
    order: the theta route as it was before the modular completion.
    Defined for codes that are not self-dual, which the theta route
    refuses."""
    return _over_eta(theta_series(code, variant, Fraction(steps + 1)), code.length, steps).series


# c_1 = (weight-one dimension) - d - [q^1] E4^(d/8); the orbifold of L has
# Ltilde's character.  At rank 24, with A_4 codewords of weight 4, the
# weight-one dimension is 72 + 16 A_4 for L, 24 + 8 A_4 for Ltilde and the
# orbifold of L, and 4 A_4 for the orbifold of Ltilde, so c_1 is that less
# 744; the orbifold of Ltilde has no weight-one state when A_4 = 0.
MODULAR_C1 = {
    "golay24": {"L": (-672, -720), "Ltilde": (-720, -744)},
    "h8+h8+h8": {"L": (0, -384), "Ltilde": (-384, -576)},
    "h8+d16+": {"L": (0, -384), "Ltilde": (-384, -576)},
    "d24+": {"L": (384, -192), "Ltilde": (-192, -480)},
    "d4^6": {"L": (-576, -672), "Ltilde": (-672, -720)},
    "d6^4": {"L": (-480, -624), "Ltilde": (-624, -696)},
    "d8^3": {"L": (-384, -576), "Ltilde": (-576, -672)},
    "d10e7^2": {"L": (-288, -528), "Ltilde": (-528, -648)},
    "d12^2": {"L": (-192, -480), "Ltilde": (-480, -624)},
    "rm25": {"L": (-896, -960), "Ltilde": (-960, -992)},
}

# (A_4, rank of the span of the weight-4 words) of the nine doubly-even
# self-dual codes of length 24, all different: so they are nine classes.
LENGTH24_SIGNATURES = {
    "golay24": (0, 0),
    "d4^6": (6, 6),
    "d6^4": (12, 8),
    "d8^3": (18, 9),
    "d10e7^2": (24, 10),
    "d12^2": (30, 10),
    "h8+d16+": (42, 11),
    "h8+h8+h8": (42, 12),
    "d24+": (66, 11),
}


@pytest.mark.parametrize("name", list(LENGTH24_SIGNATURES))
def test_length24_signature(name):
    code = MODULAR_CODES[name]()
    report = validate_binary_code(code)
    assert code.length == 24 and report.doubly_even and report.self_dual
    assert weight_four_signature(code) == LENGTH24_SIGNATURES[name]


def test_nine_length24_classes():
    assert len(set(LENGTH24_SIGNATURES.values())) == 9


def test_only_golay24_orbifold_has_no_weight_one_state():
    # the orbifold of Ltilde has 4 A_4 weight-one states
    weight_one = {
        name: orbifold_vacuum_char(MODULAR_CODES[name](), "Ltilde", 1).series.coeff(0)
        for name in LENGTH24_SIGNATURES
    }
    assert weight_one == {name: 4 * a4 for name, (a4, _) in LENGTH24_SIGNATURES.items()}
    assert [name for name, count in weight_one.items() if count == 0] == ["golay24"]


ROUTES = {
    "frame": frame_char,
    "theta": theta_over_eta,
    "orbifold": orbifold_vacuum_char,
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("variant", ["L", "Ltilde"])
@pytest.mark.parametrize("name", list(MODULAR_CODES))
def test_characters_are_modular(name, variant, route):
    code = MODULAR_CODES[name]()
    series = ROUTES[route](code, variant, MODULAR_STEPS).series
    expected = [1]
    if name in MODULAR_C1:
        lattice_c1, orbifold_c1 = MODULAR_C1[name][variant]
        expected.append(orbifold_c1 if route == "orbifold" else lattice_c1)
    assert _modular_form_coefficients(series, code.length) == expected


@pytest.mark.parametrize("name", list(MODULAR_CODES))
def test_orbifold_of_l_has_the_character_of_ltilde(name):
    code = MODULAR_CODES[name]()
    orbifold = orbifold_vacuum_char(code, "L", MODULAR_STEPS).series
    assert orbifold == frame_char(code, "Ltilde", MODULAR_STEPS).series


@pytest.mark.parametrize(
    "index,name,fn",
    [(i, name, fn) for i, (name, fn) in enumerate(CRITERIA, start=1)],
    ids=[f"criterion_{i}_{name.replace(' ', '_')}" for i, (name, _) in enumerate(CRITERIA, start=1)],
)
def test_criterion(index, name, fn, capsys):
    try:
        fn()
    except AssertionError as e:
        with capsys.disabled():
            print(f"criterion {index}: FAIL - {name}: {e}")
        raise
    with capsys.disabled():
        print(f"criterion {index}: PASS - {name}")
