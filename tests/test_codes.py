"""Binary and Z4 code machinery: certification of the built-in codes,
the pairwise Z4 lifting map, and the quotient codes of both lattice
constructions.

The oracles of the certification sweep live here: listing every codeword
as a tuple, and the MacWilliams identity between a code and its dual.
"""

import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import framednet.codes as codes
from framednet.codes import (
    BinaryCode,
    CodeError,
    Z4Code,
    binary_code_from_text,
    builtin_code,
    builtin_delta,
    delta_code,
    load_code,
    sigma2_code,
    validate_binary_code,
    z4_code_from_text,
)
from framednet.netchar import frame_char, lattice_net_char, theta_over_eta
from oracles import _direct_sum, _h8_squared, binary_codewords, glue_word, z4_dual_code, z4_generators
from test_acceptance import _reed_muller_2_5, _theta_over_eta_by_full_sum


def dual_binary_code(code):
    """The dual code C-perp under the standard bilinear form."""
    d = code.length
    pivots = [g.index(1) for g in code.generators]
    free = [i for i in range(d) if i not in pivots]
    gens = []
    for f in free:
        row = [0] * d
        row[f] = 1
        for p, g in zip(pivots, code.generators):
            row[p] = g[f]
        gens.append(row)
    if not gens:
        gens.append([0] * d)
    return BinaryCode(d, gens)


def sweep_weights(code):
    """The weight enumerator read off the certification sweep."""
    return codes._profile_weights(codes._pair_profile(code))


def macwilliams_dual_weights(code):
    """Weight enumerator of C-perp from C's sweep by the MacWilliams identity,
    B_j = |C|^-1 sum_i A_i K_j(i), K_j the Krawtchouk polynomials."""
    n = code.length
    a = sweep_weights(code)
    out = {}
    for j in range(n + 1):
        total = sum(
            count * (-1) ** s * math.comb(i, s) * math.comb(n - i, j - s)
            for i, count in a.items()
            for s in range(min(i, j) + 1)
        )
        b_j, rem = divmod(total, len(code))
        assert rem == 0, "MacWilliams transform did not clear denominators"
        if b_j:
            out[j] = b_j
    return out


class TestBinaryCodes:
    def test_trivial_code_report(self):
        report = validate_binary_code(BinaryCode(8, []))
        assert report.doubly_even and not report.self_dual
        assert report.weight_enumerator == {0: 1}

    def test_hamming8_report(self):
        report = validate_binary_code(builtin_code("h8"))
        assert report.doubly_even and report.self_dual and report.contains_all_ones
        assert report.weight_enumerator == {0: 1, 4: 14, 8: 1}

    def test_golay24_report(self):
        report = validate_binary_code(builtin_code("golay24"))
        assert report.doubly_even and report.self_dual and report.contains_all_ones
        assert report.weight_enumerator == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}

    @pytest.mark.parametrize("variant", ["L", "Ltilde"])
    def test_golay24_certified_once(self, monkeypatch, variant):
        from framednet import netchar, orbifold

        calls = []
        real = codes._pair_profile

        def counted(code):
            calls.append(code)
            return real(code)

        monkeypatch.setattr(codes, "_pair_profile", counted)
        builtin_code.cache_clear()
        builtin_delta.cache_clear()
        builtin_delta("golay24", variant)
        code = builtin_code("golay24")
        netchar.frame_char(code, "L", 1)
        netchar.frame_char(code, "Ltilde", 1)
        netchar.theta_over_eta(code, variant, 1)
        orbifold.orbifold_pieces(code, variant, 1)
        delta_code(code, variant)
        assert calls == [code]

    def test_non_self_dual_detected(self):
        code = BinaryCode(8, [[1] * 8])
        assert not validate_binary_code(code).self_dual

    def test_dual_code(self):
        h8 = builtin_code("h8")
        dual = dual_binary_code(h8)
        assert len(dual) * len(h8) == 2 ** 8
        assert all(w in h8 for w in binary_codewords(dual))  # self-dual

    def test_weight_enumerator_via_dual_transform(self):
        # the even-weight code of length 10 from its dual, the repetition code
        gens = []
        for i in range(9):
            row = [0] * 10
            row[i] = row[9] = 1
            gens.append(row)
        code = BinaryCode(10, gens)
        direct = validate_binary_code(code).weight_enumerator
        assert direct == {2 * i: math.comb(10, 2 * i) for i in range(6)}
        assert macwilliams_dual_weights(dual_binary_code(code)) == direct

    def test_parse_rejects_bad_symbols(self):
        with pytest.raises(CodeError):
            binary_code_from_text("0120")
        with pytest.raises(CodeError):
            binary_code_from_text("01\n011")
        with pytest.raises(CodeError):
            binary_code_from_text("# only a comment")

    def test_comments_and_spacing_allowed(self):
        code = binary_code_from_text("# header\n1111 0000  # trailing\n")
        assert code.length == 8 and code.dimension == 1

    def test_load_builtin_and_unknown(self):
        assert load_code("builtin:h8", None).length == 8
        with pytest.raises(CodeError):
            load_code("builtin:nope", None)

    def test_load_from_file(self, tmp_path):
        # the text stands for the file: a path that does not exist is not opened
        path = tmp_path / "c.txt"
        path.write_text("11110000\n00001111\n")
        assert load_code(str(path), path.read_text()).dimension == 2
        assert load_code(str(tmp_path / "missing.txt"), "11110000\n").dimension == 1

    def test_membership(self):
        h8 = builtin_code("h8")
        assert tuple([1] * 8) in h8
        assert tuple([1] + [0] * 7) not in h8


class TestSweep:
    """The Gray-code sweep against listing every codeword as a tuple."""

    @settings(deadline=None, derandomize=True)
    @given(st.data())
    def test_weight_enumerator_matches_codewords(self, data):
        n = data.draw(st.integers(1, 14))
        rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), max_size=n))
        rows.append([0] * n)
        if len(rows) > 2:
            rows.append([a ^ b for a, b in zip(rows[0], rows[1])])
        code = BinaryCode(n, rows)
        report = validate_binary_code(code)
        assert report.weight_enumerator == dict(Counter(sum(w) for w in binary_codewords(code)))
        assert report.pair_profile == _enumerated_pair_profile(code)
        # the sweep of the dual against the MacWilliams transform of this one
        assert sweep_weights(dual_binary_code(code)) == macwilliams_dual_weights(code)


def _enumerated_pair_profile(code):
    """The sweep's key (n11, n10 + n01) of every codeword, counted from
    tuples; an odd length's lone last coordinate pairs with a 0."""
    profile = Counter()
    for w in binary_codewords(code):
        w = w + (0,) * (len(w) % 2)
        pairs = Counter(zip(w[0::2], w[1::2]))
        profile[pairs[1, 1], pairs[1, 0] + pairs[0, 1]] += 1
    return dict(profile)


_HAT = {(0, 0): (0, 0), (1, 1): (2, 0), (1, 0): (1, 1), (0, 1): (3, 1)}
# the section delta_code uses: the hat map but 01->13
_SECTION = {(0, 0): (0, 0), (1, 1): (2, 0), (1, 0): (1, 1), (0, 1): (1, 3)}


def hat_map(bits):
    """Componentwise F2^2 -> Z4^2 map 00->00, 11->20, 10->11, 01->31."""
    if len(bits) % 2 != 0:
        raise CodeError("hat map needs an even-length vector")
    out = []
    for i in range(0, len(bits), 2):
        out.extend(_HAT[(bits[i], bits[i + 1])])
    return tuple(out)


class TestHatMap:
    def test_zero(self):
        assert hat_map((0, 0, 0, 0)) == (0, 0, 0, 0)

    def test_pair_table(self):
        assert hat_map((1, 0)) == (1, 1)
        assert hat_map((1, 1, 0, 1)) == (2, 0, 3, 1)

    def test_odd_length_rejected(self):
        with pytest.raises(CodeError):
            hat_map((1, 0, 1))

    def test_additive_up_to_sigma2_on_h8(self):
        h8 = builtin_code("h8")
        sigma = sigma2_code(4)
        words = binary_codewords(h8)
        for c1 in words:
            for c2 in words:
                s = tuple(a ^ b for a, b in zip(c1, c2))
                diff = tuple(
                    (x + y - z) % 4
                    for x, y, z in zip(hat_map(c1), hat_map(c2), hat_map(s))
                )
                assert diff in sigma


class TestSigma2:
    def test_n1_full(self):
        code = sigma2_code(1)
        assert sorted(code.codewords()) == [(0, 0), (2, 2)]

    def test_n2_zero_variant(self):
        code = sigma2_code(2, zero_variant=True)
        assert sorted(code.codewords()) == [(0, 0, 0, 0), (2, 2, 2, 2)]

    def test_n12_cardinalities(self):
        assert len(sigma2_code(12)) == 2 ** 12
        assert len(sigma2_code(12, zero_variant=True)) == 2 ** 11

    def test_zero_variant_has_weight_multiple_of_4(self):
        for w in sigma2_code(3, zero_variant=True).codewords():
            assert sum(1 for s in w if s) % 4 == 0


class TestDeltaCodes:
    def test_h8_cardinalities(self):
        assert len(builtin_delta("h8", "L")) == 256
        assert len(builtin_delta("h8", "Ltilde")) == 256

    def test_golay_cardinalities(self):
        for variant in ("L", "Ltilde"):
            assert len(builtin_delta("golay24", variant)) == 2 ** 24

    def test_glue_vector_branches(self):
        # the glue word of both branches of d mod 16 is in the Ltilde code
        # and not in L, and a length that is no multiple of 8 is refused
        for code in (builtin_code("h8"), _h8_squared()):
            glue = glue_word(code.length)
            assert glue in delta_code(code, "Ltilde")
            assert glue not in delta_code(code, "L")
        assert glue_word(16) == tuple([1, 0] * 8)
        assert glue_word(24) == tuple([1, 0] * 11 + [3, 2])
        blocks12 = BinaryCode(12, [[1 if 4 * i <= j < 4 * i + 4 else 0 for j in range(12)]
                                   for i in range(3)])
        with pytest.raises(CodeError, match="multiple of 8"):
            delta_code(blocks12, "Ltilde")

    def test_glue_vector_in_golay_ltilde(self):
        assert glue_word(24) in builtin_delta("golay24", "Ltilde")

    def test_sigma2_contained_in_delta(self):
        delta = builtin_delta("h8", "L")
        for w in sigma2_code(4).codewords():
            assert w in delta

    def test_closed_under_negation(self):
        for name in ("h8",):
            for variant in ("L", "Ltilde"):
                delta = builtin_delta(name, variant)
                assert all(tuple((-s) % 4 for s in g) in delta for g in z4_generators(delta))

    def test_self_duality_transfer(self):
        # self-dual inputs give self-dual quotient codes
        for name in ("h8", "golay24"):
            delta = builtin_delta(name, "L")
            dual = z4_dual_code(delta)
            assert len(dual) == len(delta)
            assert all(g in dual for g in z4_generators(delta))
        # the 1-dimensional all-ones code is not self-dual, nor is its delta
        tiny = BinaryCode(8, [[1] * 8])
        delta = delta_code(tiny, "L")
        assert len(z4_dual_code(delta)) != len(delta)

    def test_rejects_bad_codes(self):
        not_doubly_even = BinaryCode(8, [[1, 1, 0, 0, 0, 0, 0, 0]])
        with pytest.raises(CodeError):
            delta_code(not_doubly_even, "L")
        no_all_ones = BinaryCode(8, [[1, 1, 1, 1, 0, 0, 0, 0]])
        with pytest.raises(CodeError):
            delta_code(no_all_ones, "L")
        with pytest.raises(CodeError):
            delta_code(builtin_code("h8"), "M")


class TestZ4Codes:
    def test_membership_and_size(self):
        code = Z4Code(2, [(1, 1)])
        assert len(code) == 4
        assert (2, 2) in code and (1, 0) not in code

    def test_parse_z4(self):
        code = z4_code_from_text("13\n22\n")
        assert code.length == 2
        # 2 * 13 = 22, so the rows span {00, 13, 22, 31}
        assert len(code) == 4 and (3, 1) in code and (0, 2) not in code
        for line in ("14", "90"):
            with pytest.raises(CodeError, match="symbol out of range"):
                z4_code_from_text(line)

    def test_profile_trivial(self):
        code = Z4Code(3, [(0, 0, 0)])
        assert code.weight_profile() == {(3, 0, 0, 0): 1}

    def test_profile_sigma2(self):
        assert sigma2_code(1).weight_profile() == {(2, 0, 0, 0): 1, (0, 0, 2, 0): 1}

    def test_profile_matches_enumeration(self):
        code = builtin_delta("h8", "Ltilde")
        direct = {}
        for w in code.codewords():
            key = (w.count(0), w.count(1), w.count(2), w.count(3))
            direct[key] = direct.get(key, 0) + 1
        assert code.weight_profile() == direct

    def test_golay_profile_symmetry(self):
        profile = _pair_type_profile(builtin_code("golay24"), "Ltilde")
        assert sum(profile.values()) == 2 ** 24
        ones = sum(k[1] * c for k, c in profile.items())
        threes = sum(k[3] * c for k, c in profile.items())
        assert ones == threes  # negation symmetry exchanges symbols 1 and 3


def _enumerated_pair_types(code, variant):
    """Cosets of delta_code(code, variant) modulo {(00),(22)}^{d/2} counted
    by their sorted coordinate pairs, each key a sorted ((a, b), count),
    by listing every codeword: its _SECTION v, and for Ltilde also
    v + glue_word(d)."""
    d = code.length
    shifts = [(0,) * d] + ([glue_word(d)] if variant == "Ltilde" else [])
    census = Counter()
    for c in binary_codewords(code):
        v = [s for pair in zip(c[0::2], c[1::2]) for s in _SECTION[pair]]
        for shift in shifts:
            w = [(a + b) % 4 for a, b in zip(v, shift)]
            pairs = Counter(tuple(sorted(p)) for p in zip(w[::2], w[1::2]))
            census[tuple(sorted(pairs.items()))] += 1
    return dict(census)


def _pair_type_profile(code, variant):
    """Complete weight profile of delta_code(code, variant), from the
    cosets' pair types counted by listing every codeword.

    A coset v + {(00),(22)}^{d/2} has the symbol-count polynomial
    prod over the pairs (a, b) of v of x_a x_b + x_{a+2} x_{b+2}.  For
    Ltilde the signed sum over s = +1, -1 in x_a x_b + s x_{a+2} x_{b+2},
    halved, keeps the even-(22)-count half of each coset.
    """
    signs = (1, -1) if variant == "Ltilde" else (1,)
    total = Counter()
    for pairs, count in _enumerated_pair_types(code, variant).items():
        for s in signs:
            poly = {(0, 0, 0, 0): count}
            for (a, b), k in pairs:
                step = Counter()
                for j in range(k + 1):
                    mono = [0, 0, 0, 0]
                    mono[a] += k - j
                    mono[b] += k - j
                    mono[(a + 2) % 4] += j
                    mono[(b + 2) % 4] += j
                    coeff = math.comb(k, j) * s ** j
                    for key, c in poly.items():
                        step[tuple(x + y for x, y in zip(key, mono))] += c * coeff
                poly = step
            total.update(poly)
    return {key: c // len(signs) for key, c in total.items() if c}


def _numpy_profile(code):
    """Complete weight profile by a numpy sweep over all codewords.

    Meet in the middle: the {0,1}-sums of the first and of the second half
    of the basis are added blockwise and the symbol counts binned.
    """
    np = pytest.importorskip("numpy")
    d = code.length
    basis = [codes._word(lo, hi, d) for lo, hi in code._basis()]
    m = len(basis)
    rows = np.array(basis, dtype=np.uint8).reshape(m, d)

    def binary_sums(part):
        out = np.zeros((1, d), dtype=np.uint8)
        for r in part:
            out = np.concatenate([out, (out + r[None, :]) % 4], axis=0)
        return out

    low, high = binary_sums(rows[: m // 2]), binary_sums(rows[m // 2:])
    base = d + 1
    counts = np.zeros(base ** 3, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, low.shape[0] * d))
    for i in range(0, high.shape[0], chunk):
        block = (low[None, :, :] + high[i:i + chunk, None, :]) % 4
        n1 = (block == 1).sum(axis=2, dtype=np.int64)
        n2 = (block == 2).sum(axis=2, dtype=np.int64)
        n3 = (block == 3).sum(axis=2, dtype=np.int64)
        keys = (n1 + base * n2 + base * base * n3).ravel()
        counts += np.bincount(keys, minlength=base ** 3)
    profile = {}
    for key in np.nonzero(counts)[0]:
        k = int(key)
        n1, k = k % base, k // base
        n2, n3 = k % base, k // base
        profile[(d - n1 - n2 - n3, n1, n2, n3)] = int(counts[key])
    assert sum(profile.values()) == len(code)
    return profile


def _permuted(code, perm):
    """The binary code with coordinate i moved to position perm[i]."""
    rows = []
    for g in code.generators:
        row = [0] * code.length
        for i, bit in enumerate(g):
            row[perm[i]] = bit
        rows.append(row)
    return BinaryCode(code.length, rows)


def _pairs_permuted(code, pair_perm):
    """The binary code with coordinate pair i moved to pair pair_perm[i]."""
    return _permuted(code, [2 * pair_perm[i // 2] + i % 2 for i in range(code.length)])


def _h8_pairs_permuted():
    return _pairs_permuted(builtin_code("h8"), (2, 0, 3, 1))


def _h8_shuffled():
    # a coordinate permutation that does not keep the pairs
    return _permuted(builtin_code("h8"), (0, 2, 1, 3, 4, 6, 5, 7))


def _golay24_pairs_permuted():
    # pair i moves to pair 5i + 3 mod 12, so the last pair changes
    return _pairs_permuted(builtin_code("golay24"), [(5 * i + 3) % 12 for i in range(12)])


def _ones8():
    return BinaryCode(8, [[1] * 8])


def _h8_plus_ones8():
    return _direct_sum(builtin_code("h8"), _ones8())


class TestDeltaProfile:
    """The frame route's sum over pair weights against the character of
    the delta code's complete weight profile, enumerated word by word, and
    against the theta route; two of the codes are not self-dual, so they
    meet the theta series summed to full order instead."""

    @pytest.mark.parametrize(
        "make, variant",
        [
            (lambda: builtin_code("h8"), "L"),
            (lambda: builtin_code("h8"), "Ltilde"),
            (_h8_pairs_permuted, "L"),
            (_h8_pairs_permuted, "Ltilde"),
            (_h8_shuffled, "L"),
            (_h8_shuffled, "Ltilde"),
            (_h8_squared, "L"),
            (_h8_squared, "Ltilde"),
            (_ones8, "L"),
            (_ones8, "Ltilde"),
            (_h8_plus_ones8, "L"),
            (_h8_plus_ones8, "Ltilde"),
        ],
        ids=["h8-L", "h8-Ltilde", "h8-permuted-L", "h8-permuted-Ltilde", "h8-shuffled-L",
             "h8-shuffled-Ltilde", "h8+h8-L", "h8+h8-Ltilde", "1^8-L", "1^8-Ltilde",
             "h8+1^8-L", "h8+1^8-Ltilde"],
    )
    def test_matches_enumeration(self, make, variant):
        code = make()
        frame = frame_char(code, variant, steps=6).series
        assert frame == lattice_net_char(delta_code(code, variant), steps=6).series
        if validate_binary_code(code).self_dual:
            assert frame == theta_over_eta(code, variant, steps=6).series
        else:
            assert frame == _theta_over_eta_by_full_sum(code, variant, steps=6)

    @pytest.mark.parametrize("steps", [0, 1, 3, 8, 60])
    @pytest.mark.parametrize("variant", ["L", "Ltilde"])
    @pytest.mark.parametrize(
        "make",
        [lambda: builtin_code("golay24"), _golay24_pairs_permuted, _h8_squared, _reed_muller_2_5],
        ids=["golay24", "golay24-pairs-permuted", "h8+h8", "rm25"],
    )
    def test_matches_theta(self, make, variant, steps):
        # golay24 has d = 8 (mod 16), where the glue's last pair is 32;
        # h8+h8 and rm25 have d = 0 (mod 16)
        code = make()
        assert frame_char(code, variant, steps).series == theta_over_eta(code, variant, steps).series

    @pytest.mark.parametrize("variant", ["L", "Ltilde"])
    def test_golay_matches_numpy_oracle(self, variant):
        delta = builtin_delta("golay24", variant)
        profile = _numpy_profile(delta)
        assert sum(profile.values()) == 2 ** 24
        ones = sum(k[1] * c for k, c in profile.items())
        threes = sum(k[3] * c for k, c in profile.items())
        assert ones == threes  # negation symmetry exchanges symbols 1 and 3
        assert profile == _pair_type_profile(builtin_code("golay24"), variant)
        # seed the memo: lattice_net_char then sums the numpy profile instead
        # of enumerating 2^24 words in Python
        delta._profile = profile
        oracle = lattice_net_char(delta, steps=8).series
        assert frame_char(builtin_code("golay24"), variant, steps=8).series == oracle

    def test_import_leaves_numpy_unloaded(self):
        src = str(Path(codes.__file__).resolve().parents[1])
        probe = "import sys, framednet.cli; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"

    @staticmethod
    def _framednet_modules_after(script, stdlib=()):
        """framednet modules, and those of the modules `stdlib` names, loaded
        by a fresh interpreter that runs script.

        Only framednet's own modules are listed, and the others by name:
        what `site` imports differs from one interpreter to the next."""
        src = str(Path(codes.__file__).resolve().parents[1])
        probe = (
            "import contextlib, io, sys\n" + script + "\n"
            "print(' '.join(sorted(m for m in sys.modules"
            f" if m.split('.')[0] == 'framednet' or m in {tuple(stdlib)!r})))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        return set(out.stdout.split())

    @staticmethod
    def _cli_script(*argv):
        return (
            "import framednet.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({list(argv)!r}) == 0\n"
        )

    @pytest.mark.parametrize("script", ["import framednet", "import framednet.cli"])
    def test_import_loads_no_math_module(self, script):
        assert self._framednet_modules_after(script) <= {"framednet", "framednet.cli"}

    @pytest.mark.parametrize("command", ["char", "orbifold-char"])
    def test_cache_hit_loads_only_the_cli(self, tmp_path, command):
        from framednet.cli import main

        argv = ["--cache", str(tmp_path), command, "--code", "builtin:h8", "--order", "2"]
        assert main(argv) == 0  # the miss that writes the entry
        loaded = self._framednet_modules_after(self._cli_script(*argv))
        assert loaded == {"framednet", "framednet.cli"}

    @pytest.mark.parametrize(
        "argv, modules, stdlib",
        [
            (["framed", "--code", "builtin:h8"], {"codes", "fusion"}, ()),
            (
                ["char", "--route", "code", "--code", "builtin:h8"],
                {"codes", "netchar", "qseries"},
                (),
            ),
            # `frame`'s set-up path: no Fraction, so no fractions, decimal or numbers
            (["validate-code", "--code", "builtin:golay24"], {"codes"}, ("fractions", "decimal")),
        ],
        ids=["framed", "char-code", "validate-code"],
    )
    def test_command_loads_only_what_it_runs(self, argv, modules, stdlib):
        """The command loads framednet.cli and no framednet module besides
        `modules`, and none of `stdlib` that a bare interpreter lacks."""
        loaded = self._framednet_modules_after(self._cli_script(*argv), stdlib)
        bare = self._framednet_modules_after("", stdlib)
        assert "framednet.cli" in loaded
        assert loaded - bare <= {"framednet", "framednet.cli", *(f"framednet.{m}" for m in modules)}


class TestRank32:
    """A rank-32 code, RM(2, 5), through certification and both routes."""

    def test_certified(self):
        code = _reed_muller_2_5()
        assert code.dimension == 16
        report = validate_binary_code(code)
        assert report.doubly_even and report.self_dual and report.contains_all_ones
        assert report.weight_enumerator == {
            0: 1, 8: 620, 12: 13888, 16: 36518, 20: 13888, 24: 620, 32: 1
        }

    @pytest.mark.parametrize("variant, weight_one", [("L", 96), ("Ltilde", 32)])
    def test_routes_agree(self, variant, weight_one):
        code = _reed_muller_2_5()
        frame = frame_char(code, variant, steps=6)
        assert frame.series == theta_over_eta(code, variant, steps=6).series
        # 32 currents, plus 64 roots in L
        assert frame.series.coeff(Fraction(-32, 24) + 1) == weight_one


def _rref_f2(rows):
    """Reduced row echelon form over F2, one int per symbol; zero rows dropped."""
    rows = [r[:] for r in rows]
    out, pivots = [], []
    for r in rows:
        for piv, b in zip(pivots, out):
            if r[piv]:
                r = [a ^ c for a, c in zip(r, b)]
        if any(r):
            p = r.index(1)
            # clear this column in earlier rows
            out = [[a ^ c for a, c in zip(b, r)] if b[p] else b for b in out]
            out.append(r)
            pivots.append(p)
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return [out[i] for i in order]


def _kernel_by_scan(rows, n):
    """codes._kernel as it was: every reduced row is scanned for each free
    coordinate."""
    reduced = codes._rref(rows)
    pivots = sum(reduced)
    return [1 << f | sum(p for p, r in reduced.items() if r >> f & 1)
            for f in range(n) if not pivots >> f & 1]


def _kernel_f2(rows, d):
    """A basis of {x in F2^d : r.x = 0 for every row r}, one int per symbol."""
    reduced = _rref_f2(rows)
    pivots = [r.index(1) for r in reduced]
    basis = []
    for f in sorted(set(range(d)) - set(pivots)):
        x = [0] * d
        x[f] = 1
        for p, r in zip(pivots, reduced):
            x[p] = r[f]
        basis.append(x)
    return basis


@st.composite
def _f2_matrices(draw):
    """(d, rows): up to 10 rows of length d <= 130, one int per symbol, the
    last a sum of two others when there are three."""
    d = draw(st.integers(1, 130))
    ints = draw(st.lists(st.integers(0, (1 << d) - 1), max_size=9))
    rows = [[x >> i & 1 for i in range(d)] for x in ints]
    if len(rows) > 2:
        rows.append([a ^ b for a, b in zip(rows[0], rows[-1])])
    return d, rows


def _packed(rows):
    return [sum(b << i for i, b in enumerate(r)) for r in rows]


def _unpacked(rows, d):
    return [[x >> i & 1 for i in range(d)] for x in rows]


def _z4_span(d, gens):
    """Every word of the subgroup of Z4^d that gens generate, by closure."""
    span = {(0,) * d}
    for g in gens:
        while True:
            grown = span | {tuple((a + b) % 4 for a, b in zip(w, g)) for w in span}
            if grown == span:
                break
            span = grown
    return span


class TestPackedRows:
    """The packed F2 layer against row operations on one int per symbol."""

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(_f2_matrices())
    def test_rref_matches_oracle(self, matrix):
        d, rows = matrix
        reduced = codes._rref(_packed(rows))
        assert _unpacked(reduced.values(), d) == _rref_f2(rows)
        assert list(reduced) == [r & -r for r in reduced.values()]

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(_f2_matrices())
    def test_kernel_is_orthogonal_of_full_dimension(self, matrix):
        d, rows = matrix
        kernel = codes._kernel(codes._rref(_packed(rows)), d)
        assert len(kernel) == d - len(codes._rref(_packed(rows)))
        assert all((r & x).bit_count() % 2 == 0 for r in _packed(rows) for x in kernel)
        assert _unpacked(kernel, d) == _kernel_f2(rows, d)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(st.data())
    def test_kernel_matches_row_scan(self, data):
        # wide rows and many of them, so a free coordinate sits in several rows
        n = data.draw(st.integers(1, 300))
        rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
        assert codes._kernel(codes._rref(rows), n) == _kernel_by_scan(rows, n)

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(st.data())
    def test_z4_code_matches_span(self, data):
        # symbols outside 0..3, negative ones too, are read mod 4
        d = data.draw(st.integers(1, 4))
        vectors = st.lists(st.integers(-5, 300), min_size=d, max_size=d).map(tuple)
        gens = data.draw(st.lists(vectors, max_size=4))
        extra = data.draw(vectors)
        mod4 = [tuple(s % 4 for s in g) for g in gens + [extra]]
        code, span = Z4Code(d, gens), _z4_span(d, mod4[:-1])
        assert len(code) == len(span)
        assert set(code.codewords()) == span
        words = list(product(range(4), repeat=d))
        assert [w in code for w in words] == [w in span for w in words]
        assert (extra in code) == (mod4[-1] in span)
        grown = Z4Code(d, [*gens, extra])
        assert set(grown.codewords()) == _z4_span(d, mod4)
        assert z4_generators(code) == tuple(mod4[:-1])
        assert z4_generators(grown) == tuple(mod4)
