"""End-to-end CLI behavior: JSON/CSV emission, determinism, the result
cache, and the exit-code contract (0 ok, 1 a hypothesis or domain failure,
2 unreadable or malformed input).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from framednet import cli, codes, fusion
from framednet.cli import EXTEND_D_LIMIT, GRAPH_D_LIMIT, ORDER_LIMIT, POWER_D_LIMIT, main
from framednet.qseries import DEN


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# What Python says of a file that starts with the byte 0xff.
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def write_input(path, content):
    """Write text, or raw bytes for a file that is not UTF-8; return the path."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return path


class TestValidateCode:
    def test_builtin_h8(self, capsys):
        code, out, _ = run(capsys, "validate-code", "--code", "builtin:h8")
        assert code == 0
        doc = json.loads(out)
        assert doc["self_dual"] and doc["doubly_even"]
        assert doc["weight_enumerator"] == {"0": 1, "4": 14, "8": 1}

    def test_json_file_output(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "validate-code", "--code", "builtin:h8", "--json", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["length"] == 8

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "validate-code", "--code", "/nonexistent/code.txt")
        assert code == 2 and "not found" in err


class TestChar:
    def test_code_route_values(self, capsys):
        code, out, _ = run(
            capsys, "char", "--code", "builtin:h8", "--route", "code", "--order", "4"
        )
        assert code == 0
        doc = json.loads(out)
        terms = {n: int(c) for n, c in doc["terms"]}
        assert terms[-DEN // 3] == 1
        assert terms[-DEN // 3 + DEN] == 248

    def test_both_routes_agree(self, capsys):
        code, out, _ = run(
            capsys, "char", "--code", "builtin:h8", "--route", "both", "--order", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True
        assert doc["routes"]["code"]["terms"] == doc["routes"]["theta"]["terms"]

    def test_deterministic_output(self, capsys):
        _, a, _ = run(capsys, "char", "--code", "builtin:h8", "--order", "3")
        _, b, _ = run(capsys, "char", "--code", "builtin:h8", "--order", "3")
        assert a == b

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "char.csv"
        code, _, _ = run(
            capsys, "char", "--code", "builtin:h8", "--order", "3", "--csv", str(path)
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "exponent_num,coefficient"
        assert lines[1] == f"{-DEN // 3},1"

    def test_csv_rejected_for_both(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "char", "--code", "builtin:h8", "--route", "both",
            "--csv", str(tmp_path / "x.csv"),
        )
        assert code == 2 and "single route" in err

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run(capsys, "char", "--code", "builtin:h8", "--bogus")
        assert code == 2

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    @pytest.mark.parametrize("command", ["char", "orbifold-char"])
    def test_missing_code_file_exit_2(self, capsys, tmp_path, command, cached):
        missing = tmp_path / "missing.txt"
        cache = ["--cache", str(tmp_path / "cache")] if cached else []
        code, out, err = run(capsys, *cache, command, "--code", str(missing))
        assert code == 2 and out == ""
        assert err == f"error: code file not found: {missing}\n"
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("command", ["char", "orbifold-char"])
    def test_negative_order_exit_2(self, capsys, command):
        code, out, err = run(capsys, command, "--code", "builtin:h8", "--order", "-2")
        assert code == 2 and out == ""
        assert "--order: must be nonnegative" in err

    @pytest.mark.parametrize("command", ["char", "orbifold-char"])
    @pytest.mark.parametrize("order", ["1_0", "\u0661\u0660", " 10"])
    def test_order_not_in_ascii_digits_exit_2(self, capsys, command, order):
        # int() alone reads all three as 10
        code, out, err = run(capsys, command, "--code", "builtin:h8", "--order", order)
        assert code == 2 and out == ""
        assert f"error: argument --order: invalid int value: {order!r}" in err

    @pytest.mark.parametrize("command", ["char", "orbifold-char"])
    def test_order_at_the_limit_parses(self, command):
        args = cli.build_parser().parse_args([command, "--code", "builtin:h8",
                                              "--order", str(ORDER_LIMIT)])
        assert args.order == ORDER_LIMIT

    @pytest.mark.parametrize("command", ["char", "orbifold-char"])
    def test_order_above_the_limit_exit_2(self, capsys, command):
        with pytest.raises(SystemExit) as e:
            cli.build_parser().parse_args([command, "--code", "builtin:h8",
                                           "--order", str(ORDER_LIMIT + 1)])
        out, err = capsys.readouterr()
        assert e.value.code == 2 and out == ""
        assert f"--order: must be at most {ORDER_LIMIT}, got {ORDER_LIMIT + 1}" in err


class TestCodeHypotheses:
    """Every route rejects a code outside the paper's hypotheses alike."""

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1100\n0011\n", "code is not doubly even"),
            ("11110000\n", "code does not contain the all-ones vector"),
            ("11111111\n", "code is not self-dual; its lattice nets are not holomorphic"),
        ],
        ids=["not-doubly-even", "no-all-ones", "not-self-dual"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["char", "--route", "code"],
            ["char", "--route", "theta"],
            ["orbifold-char"],
            ["framed"],
        ],
        ids=["char-code", "char-theta", "orbifold-char", "framed"],
    )
    def test_rejected_on_every_route(self, capsys, tmp_path, rows, message, argv):
        path = tmp_path / "c.txt"
        path.write_text(rows)
        code, out, err = run(capsys, *argv, "--code", str(path))
        assert code == 1 and out == ""
        assert err == f"validation failure: {message}\n"


class TestMalformedInput:
    """A file that does not parse, an unknown builtin, or a code too large to
    enumerate, is bad input (exit 2) on every command; a code outside the
    hypotheses exits 1 (above)."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("012\n", "symbol out of range in '012'"),
            ("1100\n110\n", "generator lengths differ"),
            ("", "empty code file"),
            ("11x0\n", "bad code line '11x0'"),
            # Arabic-Indic digits, which int() reads as 0 and 1
            ("\u0661\u0661\u0661\u0661\u0660\u0660\u0660\u0660\n00111100\n00001111\n01010101\n",
             "bad code line '\u0661\u0661\u0661\u0661\u0660\u0660\u0660\u0660'"),
            (b"\xff\n", f"code file is not UTF-8 text: {NOT_UTF8}"),
        ],
        ids=["symbol", "ragged", "empty", "not-a-digit", "not-ascii-digit", "not-utf8"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate-code"],
            ["char", "--route", "code"],
            ["char", "--route", "theta"],
            ["--cache", "CACHE", "char"],
            ["orbifold-char"],
            ["framed"],
        ],
        ids=["validate-code", "char-code", "char-theta", "char-cached", "orbifold-char", "framed"],
    )
    def test_code_file(self, capsys, tmp_path, text, message, argv):
        path = write_input(tmp_path / "c.txt", text)
        argv = [str(tmp_path / "cache") if a == "CACHE" else a for a in argv]
        code, out, err = run(capsys, *argv, "--code", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [["validate-code"], ["char"], ["--cache", "CACHE", "char"], ["orbifold-char"], ["framed"]],
        ids=["validate-code", "char", "char-cached", "orbifold-char", "framed"],
    )
    def test_code_too_large_to_enumerate(self, capsys, tmp_path, argv):
        # length 56, dimension 27: twice as many words as a sweep may take
        assert 1 << 27 == 2 * codes.ENUM_LIMIT
        rows = ["0" * i + "1" + "0" * (55 - i) for i in range(27)]
        path = write_input(tmp_path / "c.txt", "\n".join(rows) + "\n")
        argv = [str(tmp_path / "cache") if a == "CACHE" else a for a in argv]
        code, out, err = run(capsys, *argv, "--code", str(path))
        assert code == 2 and out == ""
        assert err == "error: code too large to enumerate: 2^27 words\n"

    @pytest.mark.parametrize("command", ["validate-code", "char", "orbifold-char", "framed"])
    def test_unknown_builtin(self, capsys, command):
        code, out, err = run(capsys, command, "--code", "builtin:nope")
        assert code == 2 and out == ""
        assert err == "error: unknown builtin code 'nope' (have: ['golay24', 'h8'])\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0125\n", "symbol out of range in '0125'"),
            ("2200\n220\n", "generator lengths differ"),
            ("", "empty code file"),
            (b"\xff\n", f"subgroup file is not UTF-8 text: {NOT_UTF8}"),
        ],
        ids=["symbol", "ragged", "empty", "not-utf8"],
    )
    def test_subgroup_file(self, capsys, tmp_path, text, message):
        path = write_input(tmp_path / "h.txt", text)
        code, out, err = run(capsys, "extend", "--system", "z4pow:4", "--subgroup", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_subgroup_path_is_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "extend", "--system", "z4pow:4", "--subgroup", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_unknown_builtin_subgroup(self, capsys):
        code, out, err = run(capsys, "extend", "--system", "z4pow:8", "--subgroup", "builtin:nope")
        assert code == 2 and out == ""
        assert err == "error: unknown builtin code 'nope' (have: ['golay24', 'h8'])\n"


class TestCache:
    def test_miss_then_hit(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["--cache", str(cache), "char", "--code", "builtin:h8", "--order", "3"]
        code1, out1, _ = run(capsys, *args)
        entries = list(cache.glob("*.json"))
        assert code1 == 0 and len(entries) == 1
        code2, out2, _ = run(capsys, *args)
        assert code2 == 0 and out2 == out1

    def test_corrupt_entry_recomputed_with_warning(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["--cache", str(cache), "char", "--code", "builtin:h8", "--order", "3"]
        _, out1, _ = run(capsys, *args)
        entry = next(cache.glob("*.json"))
        manifest = json.loads(entry.read_text())["_manifest"]
        # truncated JSON, JSON that is not an object, an object without a result
        for corrupt in ["{ not json", "[1, 2]", json.dumps({"_manifest": manifest})]:
            entry.write_text(corrupt)
            code, out2, err = run(capsys, *args)
            assert code == 0 and out2 == out1, corrupt
            assert err.startswith("warning: ignoring unreadable cache entry"), corrupt
            # the entry is rewritten and valid again
            assert json.loads(entry.read_text())["_manifest"] == manifest

    def test_entry_of_another_program_recomputed(self, capsys, tmp_path, monkeypatch):
        from framednet import netchar

        cache = tmp_path / "cache"
        args = ["--cache", str(cache), "char", "--code", "builtin:h8", "--order", "3"]
        _, out1, _ = run(capsys, *args)
        calls = []
        real = netchar.frame_char
        monkeypatch.setattr(netchar, "frame_char", lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(cli, "_program_identity", lambda: "0" * 64)
        code, out2, err = run(capsys, *args)
        assert code == 0 and out2 == out1 and err == ""
        assert len(calls) == 1 and len(list(cache.glob("*.json"))) == 2

    def test_no_temp_file_left(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["--cache", str(cache), "orbifold-char", "--code", "builtin:h8", "--order", "3"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0 and out2 == out1
        assert [p.suffix for p in cache.iterdir()] == [".json"]

    def test_miss_reads_the_code_file_once(self, capsys, tmp_path, monkeypatch):
        # the text that names the entry is the text the series is built from
        path = write_input(tmp_path / "h8.txt", codes.HAMMING8_TEXT)
        opened = []
        real_open = open

        def counted(file, *args, **kwargs):
            opened.extend([file] if str(file) == str(path) else [])
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counted)
        args = ["--cache", str(tmp_path / "cache"), "char", "--code", str(path), "--order", "3"]
        code, _, _ = run(capsys, *args)
        assert code == 0 and len(opened) == 1

    def test_file_named_like_a_builtin_is_not_the_builtin(self, capsys, tmp_path):
        # a file whose text is a builtin spec is malformed, cached or not
        path = write_input(tmp_path / "spec.txt", "builtin:h8")
        cache = ["--cache", str(tmp_path / "cache")]
        assert run(capsys, *cache, "char", "--code", "builtin:h8", "--order", "3")[0] == 0
        plain = run(capsys, "char", "--code", str(path), "--order", "3")
        assert plain[0] == 2
        assert run(capsys, *cache, "char", "--code", str(path), "--order", "3") == plain

    def test_env_var_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("FRAMEDNET_CACHE", str(cache))
        code, _, _ = run(capsys, "char", "--code", "builtin:h8", "--order", "3")
        assert code == 0 and len(list(cache.glob("*.json"))) == 1


class TestOrbifoldChar:
    def test_e8_with_pieces(self, capsys):
        code, out, _ = run(
            capsys, "orbifold-char", "--code", "builtin:h8", "--order", "3", "--pieces"
        )
        assert code == 0
        doc = json.loads(out)
        assert "warning" not in doc
        assert set(doc["pieces"]) == {"Z1", "Z2", "Z3", "Z4"}
        assert set(doc["sectors"]) == {"untwisted+", "untwisted-", "beta1", "beta2"}
        terms = {n: int(c) for n, c in doc["terms"]}
        assert terms[-DEN // 3 + DEN] == 248

    def test_pieces_computed_once(self, capsys, monkeypatch):
        from framednet import orbifold

        calls = []
        real = orbifold.orbifold_pieces

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(orbifold, "orbifold_pieces", counted)
        code, _, _ = run(capsys, "orbifold-char", "--code", "builtin:h8", "--order", "3")
        # one expansion, to the d/24 = 0 q-steps that fix the vacuum
        assert code == 0 and [args[2] for args in calls] == [0]

    @pytest.mark.parametrize("order", ["0", "1", "2", "40"])
    @pytest.mark.parametrize("variant", ["L", "Ltilde"])
    @pytest.mark.parametrize("base", ["h8", "golay24"])
    def test_pieces_print_the_same_vacuum(self, capsys, base, variant, order):
        # --pieces reads the vacuum off the pieces it prints; without it the
        # vacuum is completed from a modular form
        argv = ["orbifold-char", "--code", f"builtin:{base}", "--variant", variant, "--order", order]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        plain = json.loads(out)
        code, out, _ = run(capsys, *argv, "--pieces")
        assert code == 0
        pieces = json.loads(out)
        assert set(plain) == {"den", "terms", "order_num"}
        assert plain == {key: pieces[key] for key in plain}

    @pytest.mark.parametrize("base, d", [("h8", 8), ("golay24", 24)])
    def test_products_expanded_only_to_the_fit_bound(self, capsys, monkeypatch, base, d):
        from fractions import Fraction

        from framednet import orbifold

        orders = []
        real = orbifold.product_form

        def spy(first, step, power, order):
            if abs(power) == d:
                orders.append(Fraction(order))
            return real(first, step, power, order)

        monkeypatch.setattr(orbifold, "product_form", spy)
        argv = ["orbifold-char", "--code", f"builtin:{base}", "--order", "40"]
        assert run(capsys, *argv)[0] == 0
        assert orders and max(orders) <= d // 24 + 1, orders
        orders.clear()
        assert run(capsys, *argv, "--pieces")[0] == 0
        assert max(orders) > 40, orders

    def test_not_self_dual_exit_1(self, capsys, tmp_path):
        # doubly even with the all-ones vector, but dimension 1 of 4; the
        # framed structure needs a holomorphic net as the orbifold does
        path = tmp_path / "c.txt"
        path.write_text("11111111\n")
        for argv in (["orbifold-char", "--order", "2"], ["framed"], ["framed", "--variant", "Ltilde"]):
            code, out, err = run(capsys, *argv, "--code", str(path))
            assert code == 1 and out == "", argv
            assert err.startswith("validation failure: code is not self-dual"), argv

    def test_no_warning_at_rank_16(self, capsys, tmp_path):
        # beta1 follows from its weight at every rank, so nothing is flagged
        from framednet.codes import builtin_code

        path = tmp_path / "c16.txt"
        rows = []
        for row in builtin_code("h8").generators:
            left = "".join(map(str, row))
            rows.append(left + "0" * 8)
            rows.append("0" * 8 + left)
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "orbifold-char", "--code", str(path), "--order", "2")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert "warning" not in doc and doc["terms"][0] == [-32, "1"]


class TestExtend:
    def test_golay_allowed(self, capsys):
        code, out, _ = run(
            capsys, "extend", "--system", "z4pow:24",
            "--subgroup", "builtin:golay24", "--variant", "Ltilde",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["allowed"] and doc["mu_after"] == "1"
        assert doc["mu_before"] == str(4 ** 24)
        assert doc["quotient_orders"] == []

    def test_non_isotropic_exit_1(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("10\n")
        code, out, _ = run(capsys, "extend", "--system", "z4pow:2", "--subgroup", str(path))
        assert code == 1
        doc = json.loads(out)
        assert not doc["allowed"] and doc["offending"] == [1, 0]

    def test_bad_system_exit_2(self, capsys):
        code, _, err = run(capsys, "extend", "--system", "u1", "--subgroup", "builtin:h8")
        assert code == 2 and "z4pow" in err

    @pytest.mark.parametrize("system", ["z4pow:0_8", "z4pow:\u0668", "z4pow:8.0"])
    def test_system_not_in_ascii_digits_exit_2(self, capsys, system):
        code, out, err = run(capsys, "extend", "--system", system, "--subgroup", "builtin:h8")
        assert code == 2 and out == ""
        assert err == f"error: bad system dimension in {system!r}\n"

    def test_nonpositive_system_exit_2(self, capsys):
        code, out, err = run(capsys, "extend", "--system", "z4pow:0", "--subgroup", "builtin:h8")
        assert code == 2 and out == ""
        assert err == "error: system dimension must be positive, got 0\n"

    @pytest.mark.parametrize("d, k, orders", [(12, 6, [4] * 6), (34, 1, [4] * 32 + [2, 2])])
    def test_chain_quotients(self, capsys, tmp_path, d, k, orders):
        # H = 2*C, C spanned by e_i + e_(i+1): a coset enumeration hung on
        # d = 12 and overflowed len() on d = 34
        path = tmp_path / "h.txt"
        path.write_text("".join("0" * i + "22" + "0" * (d - i - 2) + "\n" for i in range(k)))
        code, out, err = run(capsys, "extend", "--system", f"z4pow:{d}", "--subgroup", str(path))
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["allowed"] and doc["quotient_orders"] == orders
        assert doc["subgroup_size"] == 2 ** k and doc["mu_after"] == str(4 ** d // 4 ** k)

    def test_size_beyond_a_machine_int(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("".join("0" * i + "1" + "0" * (31 - i) + "\n" for i in range(32)))
        code, out, err = run(capsys, "extend", "--system", "z4pow:32", "--subgroup", str(path))
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert doc["allowed"] is False and doc["offending"] == [1] + [0] * 31
        assert doc["subgroup_size"] == 2 ** 64

    def test_length_mismatch_exit_2(self, capsys):
        code, _, _ = run(
            capsys, "extend", "--system", "z4pow:4", "--subgroup", "builtin:h8"
        )
        assert code == 2

    def test_z4codes_built_do_not_grow_with_d(self, capsys, tmp_path, monkeypatch):
        built = []
        init = codes.Z4Code.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(codes.Z4Code, "__init__", counted)
        counts = []
        for d in (8, 50, 200):
            path = tmp_path / f"h{d}.txt"
            path.write_text("22" + "0" * (d - 2) + "\n")
            built.clear()
            code, out, _ = run(capsys, "extend", "--system", f"z4pow:{d}", "--subgroup", str(path))
            assert code == 0 and json.loads(out)["quotient_orders"] == [4] * (d - 2) + [2, 2]
            counts.append(len(built))
        assert counts[0] == counts[1] == counts[2]

    def test_no_symbol_tuple_built(self, capsys, tmp_path, monkeypatch):
        calls = []
        word = codes._word
        monkeypatch.setattr(codes, "_word", lambda *a: calls.append(a) or word(*a))
        for d in (50, 200):
            path = write_input(tmp_path / f"h{d}.txt", "22" + "0" * (d - 2) + "\n")
            code, out, _ = run(capsys, "extend", "--system", f"z4pow:{d}", "--subgroup", str(path))
            assert code == 0 and json.loads(out)["quotient_orders"] == [4] * (d - 2) + [2, 2]
        assert calls == []

    def test_dimension_at_the_limit(self, capsys, tmp_path):
        d = EXTEND_D_LIMIT
        path = tmp_path / "h.txt"
        path.write_text("1" + "0" * (d - 1) + "\n")
        code, out, err = run(capsys, "extend", "--system", f"z4pow:{d}", "--subgroup", str(path))
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert doc["mu_before"] == str(4 ** d) and doc["offending"] == [1] + [0] * (d - 1)

    def test_dimension_above_the_limit_exit_2_before_any_work(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the subgroup was read")

        monkeypatch.setattr(codes, "z4_code_from_text", refuse)
        monkeypatch.setattr(fusion, "simple_current_extension", refuse)
        d = EXTEND_D_LIMIT + 1
        code, out, err = run(capsys, "extend", "--system", f"z4pow:{d}", "--subgroup", "h.txt")
        assert code == 2 and out == ""
        assert err == f"error: system dimension must be at most {EXTEND_D_LIMIT}, got {d}\n"


class TestCensus:
    def test_d1(self, capsys):
        code, out, _ = run(capsys, "census", "--d", "1")
        assert code == 0
        doc = json.loads(out)
        assert (doc["dim2"], doc["dim1"], doc["dimRoot2Pow"]) == (1, 4, 4)
        assert doc["twisted_dim"] == {"a": 0, "b": 1}
        assert doc["balanced"] and doc["total_sectors"] == 9

    def test_d2(self, capsys):
        code, out, _ = run(capsys, "census", "--d", "2")
        assert code == 0
        doc = json.loads(out)
        assert (doc["dim2"], doc["dim1"], doc["dimRoot2Pow"]) == (6, 8, 8)
        assert doc["twisted_dim"] == {"a": 2, "b": 0} and doc["mu_balance"] == {"a": 64, "b": 0}
        assert doc["balanced"] and doc["total_sectors"] == 22

    @pytest.mark.parametrize("d", [*range(1, 13), POWER_D_LIMIT - 1, POWER_D_LIMIT])
    def test_twisted_fields(self, capsys, d):
        # 2^(d+1) twisted sectors of dimension sqrt(2)^d = a + b*sqrt(2)
        code, out, _ = run(capsys, "census", "--d", str(d))
        doc = json.loads(out)
        a, b = doc["twisted_dim"]["a"], doc["twisted_dim"]["b"]
        assert code == 0 and doc["balanced"]
        assert a * b == 0 and a * a + 2 * b * b == 2 ** d
        assert doc["dimRoot2Pow"] == 2 ** (d + 1)

    @pytest.mark.parametrize("command", ["census", "emit-graph"])
    @pytest.mark.parametrize("d", ["\u0663", "0_3", "3.0"])
    def test_d_not_in_ascii_digits_exit_2(self, capsys, command, d):
        code, out, err = run(capsys, command, "--d", d)
        assert code == 2 and out == ""
        assert f"error: argument --d: invalid int value: {d!r}" in err

    @pytest.mark.parametrize("d", ["0", "-3"])
    def test_nonpositive_d_exit_2(self, capsys, d):
        code, out, err = run(capsys, "census", "--d", d)
        assert code == 2 and out == ""
        assert f"error: argument --d: must be positive, got {d}" in err

    def test_d_at_the_limit(self, capsys):
        # 4^(d+1), the balance, is printed in full
        code, out, err = run(capsys, "census", "--d", str(POWER_D_LIMIT))
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["mu_balance"] == {"a": 4 ** (POWER_D_LIMIT + 1), "b": 0} and doc["balanced"]

    def test_d_above_the_limit_exit_2_before_any_work(self, capsys, monkeypatch):
        def refuse(d):
            raise AssertionError("the census was computed")

        monkeypatch.setattr(fusion, "orbifold_census", refuse)
        d = POWER_D_LIMIT + 1
        code, out, err = run(capsys, "census", "--d", str(d))
        assert code == 2 and out == ""
        assert f"error: argument --d: must be at most {POWER_D_LIMIT}, got {d}" in err


class TestFramed:
    def test_from_code(self, capsys):
        code, out, _ = run(capsys, "framed", "--code", "builtin:h8")
        assert code == 0
        doc = json.loads(out)
        assert (doc["num_ising_factors"], doc["k"], doc["l"]) == (16, 15, 1)
        assert doc["index_check"] == "1"
        assert doc["sign_matrix"] == ["1" * 16]

    def test_h8_ltilde_sign_matrix_is_a_basis(self, capsys):
        code, out, _ = run(capsys, "framed", "--code", "builtin:h8", "--variant", "Ltilde")
        assert code == 0
        doc = json.loads(out)
        assert (doc["k"], doc["l"]) == (14, 2)
        assert doc["sign_matrix"] == ["1100110011001100", "0011001100110011"]

    @pytest.mark.parametrize("variant, kl", [("L", (37, 11)), ("Ltilde", (36, 12))])
    def test_golay24(self, capsys, variant, kl):
        code, out, _ = run(capsys, "framed", "--code", "builtin:golay24", "--variant", variant)
        assert code == 0
        doc = json.loads(out)
        assert (doc["num_ising_factors"], doc["k"], doc["l"]) == (48, *kl)
        assert doc["index_check"] == "1"
        assert len(doc["sign_matrix"]) == doc["l"]

    def test_from_decomp_file(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0,0 1\n1/16,1/16 7\n# comment\n")
        code, out, _ = run(capsys, "framed", "--decomp", str(path))
        assert code == 0
        doc = json.loads(out)
        assert (doc["k"], doc["l"]) == (0, 1)

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "framed")
        assert code == 2 and "exactly one" in err

    def test_bad_label_exit_2(self, capsys, tmp_path):
        for content, message in [
            ("0,1/3\n", "bad label entry in '0,1/3'"),
            # a label is one of the texts 0, 1/2 and 1/16, though Fraction()
            # reads these as 1/16 and 1/2
            ("0,0\n1/1_6,1/1_6\n", "bad label entry in '1/1_6,1/1_6'"),
            ("0,0\n2/4,0.5\n", "bad label entry in '2/4,0.5'"),
            ("0,0\n\u0661/\u0662,0\n", "bad label entry in '\u0661/\u0662,0'"),
            ("0,0\n1/0,0\n", "bad label entry in '1/0,0'"),
            (b"\xff\n", f"decomposition file is not UTF-8 text: {NOT_UTF8}"),
        ]:
            path = write_input(tmp_path / "d.txt", content)
            code, out, err = run(capsys, "framed", "--decomp", str(path))
            assert code == 2 and out == ""
            assert err == f"error: {message}\n"

    def test_decomp_path_is_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "framed", "--decomp", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,0\n0,0\n", "decomposition must contain the all-0 label once"),
            (
                "0,0\n1/2,1/2\n1/2,1/2 1\n0,1/2\n",
                "inner label (Fraction(1, 2), Fraction(1, 2)) has multiplicity 2",
            ),
        ],
        ids=["vacuum", "inner"],
    )
    def test_repeated_inner_label_sums_multiplicities(self, capsys, tmp_path, text, message):
        # a label listed twice has multiplicity 2, not two inner labels
        path = tmp_path / "d.txt"
        path.write_text(text)
        code, out, err = run(capsys, "framed", "--decomp", str(path))
        assert code == 1 and out == ""
        assert err == f"validation failure: {message}\n"

    def test_inner_labels_must_form_a_linear_code(self, capsys, tmp_path):
        # 110 + 101 = 011 is missing: four inner labels that span eight words
        path = tmp_path / "d.txt"
        path.write_text("0,0,0\n1/2,1/2,0\n1/2,0,1/2\n1/2,1/2,1/2\n1/16,1/16,0\n")
        code, out, err = run(capsys, "framed", "--decomp", str(path))
        assert code == 1 and out == ""
        assert err == "validation failure: 4 inner labels span 8: not a linear code\n"

    def test_repeated_twisted_label_counts_once(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0,0 1\n1/16,1/16 3\n1/16,1/16 4\n")
        code, out, _ = run(capsys, "framed", "--decomp", str(path))
        assert code == 0
        assert (json.loads(out)["k"], json.loads(out)["l"]) == (0, 1)

    @pytest.mark.parametrize("mult", ["0", "-3"])
    def test_nonpositive_multiplicity_exit_2(self, capsys, tmp_path, mult):
        path = tmp_path / "d.txt"
        path.write_text(f"0,0 1\n1/16,1/16 {mult}\n")
        code, out, err = run(capsys, "framed", "--decomp", str(path))
        assert code == 2 and out == ""
        assert err == f"error: multiplicity must be positive in '1/16,1/16 {mult}'\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,0 1 junk\n1/16,1/16 1\n", "extra field after the multiplicity in '0,0 1 junk'"),
            ("0,0 1\n1/16,1/16 1_0\n", "bad multiplicity in '1/16,1/16 1_0'"),
        ],
        ids=["extra-field", "underscore"],
    )
    def test_malformed_multiplicity_exit_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "d.txt"
        path.write_text(text)
        code, out, err = run(capsys, "framed", "--decomp", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_ragged_labels_exit_2(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0,0 1\n1/16,1/16,0 1\n")
        code, out, err = run(capsys, "framed", "--decomp", str(path))
        assert code == 2 and out == ""
        assert err == "error: label lengths differ\n"


class TestEmitGraph:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "emit-graph", "--d", "1")
        assert code == 0
        assert out.startswith("digraph") and out.count("->") == 10

    def test_file_output(self, capsys, tmp_path):
        path = tmp_path / "g.dot"
        code, out, _ = run(capsys, "emit-graph", "--d", "1", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("digraph")

    def test_negative_d_exit_2(self, capsys):
        code, out, err = run(capsys, "emit-graph", "--d", "-1")
        assert code == 2 and out == ""
        assert "error: argument --d: must be nonnegative, got -1" in err

    @pytest.mark.parametrize("d", [GRAPH_D_LIMIT + 1, 24])
    def test_d_above_limit_exit_2_before_any_text(self, capsys, monkeypatch, d):
        def refuse(d):
            raise AssertionError("the DOT text was built")

        monkeypatch.setattr(fusion, "emit_branching_graph", refuse)
        code, out, err = run(capsys, "emit-graph", "--d", str(d))
        assert code == 2 and out == ""
        assert f"error: argument --d: must be at most {GRAPH_D_LIMIT}, got {d}" in err

    def test_limit_is_accepted(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(fusion, "emit_branching_graph", lambda d: built.append(d) or "g")
        code, out, _ = run(capsys, "emit-graph", "--d", str(GRAPH_D_LIMIT))
        assert code == 0 and out == "g\n" and built == [GRAPH_D_LIMIT]


class TestUnwritableOutput:
    """An output path or cache that cannot be written is bad input: exit 2,
    one error line and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("char", "--code", "builtin:h8", "--order", "2", "--json", "{missing}/x.json"),
            ("char", "--code", "builtin:h8", "--order", "2", "--route", "theta",
             "--csv", "{missing}/x.csv"),
            ("orbifold-char", "--code", "builtin:h8", "--order", "2",
             "--csv", "{missing}/x.csv"),
            ("emit-graph", "--d", "3", "--out", "{missing}/g.dot"),
        ],
        ids=["char-json", "char-csv", "orbifold-csv", "emit-graph"],
    )
    def test_missing_directory(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing"
        argv = [a.format(missing=missing) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: cannot write {argv[-1]}: No such file or directory\n"
        assert not missing.exists()

    def test_cache_is_a_regular_file(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        cache.write_text("not a directory")
        code, out, err = run(
            capsys, "--cache", str(cache), "char", "--code", "builtin:h8", "--order", "2"
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write cache {cache}: ")
        assert err.count("\n") == 1
        assert cache.read_text() == "not a directory"


class TestImportDiet:
    """No command loads dataclasses or inspect (and with it ast, dis and
    tokenize) unless a bare interpreter already has them, and the sector
    commands load no series code."""

    HEAVY = ("dataclasses", "inspect")
    SERIES = ("framednet.qseries", "framednet.netchar")

    @staticmethod
    def _loaded_after(modules, *lines):
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = "\n".join(
            ["import sys", *lines,
             f"print(' '.join(m for m in {modules!r} if m in sys.modules))"]
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        return set(out.stdout.splitlines()[-1].split())

    @classmethod
    def _heavy_after(cls, *lines):
        return cls._loaded_after(cls.HEAVY, *lines)

    @staticmethod
    def _main(*argv):
        return f"assert __import__('framednet.cli').cli.main({list(argv)!r}) == 0"

    @pytest.mark.parametrize(
        "argv",
        [
            ("framed", "--code", "builtin:golay24"),
            ("extend", "--system", "z4pow:24", "--subgroup", "builtin:golay24"),
            ("char", "--code", "builtin:h8", "--route", "code", "--order", "3"),
            ("char", "--code", "builtin:h8", "--route", "theta", "--order", "3"),
            ("orbifold-char", "--code", "builtin:h8", "--order", "3"),
            ("census", "--d", "2"),
            ("emit-graph", "--d", "2"),
        ],
        ids=["framed", "extend", "char-code", "char-theta", "orbifold-char", "census",
             "emit-graph"],
    )
    def test_command(self, argv):
        assert self._heavy_after(self._main(*argv)) <= self._heavy_after()

    @pytest.mark.parametrize(
        "argv", [("census", "--d", "2"), ("emit-graph", "--d", "2")], ids=["census", "emit-graph"]
    )
    def test_sector_command_loads_no_series_code(self, argv):
        assert self._loaded_after(self.SERIES, self._main(*argv)) == set()

    def test_char_cache_hit(self, tmp_path):
        argv = ("--cache", str(tmp_path), "char", "--code", "builtin:h8", "--order", "3")
        self._heavy_after(self._main(*argv))
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert self._heavy_after(self._main(*argv)) <= self._heavy_after()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_lines():
    """The arguments of each `framednet ...` line of README's CLI block."""
    block = README.read_text().split("\n## CLI\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        line.split("#", 1)[0].split()[1:]
        for line in block.splitlines()
        if line.startswith("framednet ")
    ]


class TestReadme:
    def test_block_names_every_command(self):
        assert [argv[0] for argv in _readme_cli_lines()] == list(cli._COMMANDS)

    @pytest.mark.parametrize("argv", _readme_cli_lines(), ids=lambda argv: argv[0])
    def test_line_exits_0(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        if argv == ["census", "--d", "2"]:
            doc = json.loads(out)
            assert (doc["dim2"], doc["dim1"], doc["total_sectors"]) == (6, 8, 22)


class TestSelftest:
    def test_reports_every_criterion(self, capsys):
        code, out, _ = run(capsys, "selftest")
        lines = [l for l in out.splitlines() if l.startswith("criterion ")]
        assert len(lines) == 9
        for i, line in enumerate(lines, start=1):
            assert line.startswith(f"criterion {i}: PASS - "), line
        assert out.splitlines()[-1] == "9/9 criteria passed"
        assert code == 0
