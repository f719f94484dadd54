"""Self-tests of the benchmark: inputs, checker and cache reader.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from framednet import cli, codes, fusion, netchar  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from workloads import Request  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue().encode()


def first_rounds(plan, n=3):
    it = plan.rounds()
    return [next(it) for _ in range(n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    a, b = workloads.make_plan(workload, 11), workloads.make_plan(workload, 11)
    assert a.files == b.files
    assert first_rounds(a) == first_rounds(b)
    c = workloads.make_plan(workload, 12)
    assert (c.files, first_rounds(c)) != (a.files, first_rounds(a))


@pytest.mark.parametrize("seed", [1, 2])
def test_pair_permutation_keeps_characters_profile_and_kl(seed):
    text = workloads.make_plan("frame", seed).files["h8.txt"]
    assert text != workloads.code_text(workloads.BASE_ROWS["h8"])
    copy, base = codes.binary_code_from_text(text), codes.builtin_code("h8")
    for variant in ("L", "Ltilde"):
        theta = [netchar.theta_over_eta(c, variant, 6).series for c in (copy, base)]
        assert theta[0] == theta[1]
        g_copy, g_base = codes.delta_code(copy, variant), codes.delta_code(base, variant)
        code_route = [netchar.lattice_net_char(g, 6).series for g in (g_copy, g_base)]
        assert code_route[0] == code_route[1]
        assert g_copy.weight_profile() == g_base.weight_profile()
        kl = [fusion.framed_structure(fusion.ising_decomposition(g)) for g in (g_copy, g_base)]
        assert (kl[0].k, kl[0].l) == (kl[1].k, kl[1].l)


def h8_char_response():
    req = Request("char", "h8", "L", 20, "theta")
    rc, out = run_cli(req.argv(Path("."), None))
    assert rc == 0
    return req, json.loads(out)


def test_checker_accepts_the_program_output():
    req, doc = h8_char_response()
    assert check.check(req, 0, json.dumps(doc).encode(), b"", check.load_refs()) == (
        check.ANSWERED, None)


def test_checker_ignores_added_fields():
    req, doc = h8_char_response()
    doc["provenance"] = {"route": "theta"}
    outcome, _ = check.check(req, 0, json.dumps(doc).encode(), b"", check.load_refs())
    assert outcome == check.ANSWERED


@pytest.mark.parametrize("where", ["leading", "deep"])
def test_checker_rejects_one_changed_coefficient(where):
    req, doc = h8_char_response()
    i = 1 if where == "leading" else len(doc["terms"]) - 1
    doc["terms"][i][1] = str(int(doc["terms"][i][1]) + 1)
    outcome, why = check.check(req, 0, json.dumps(doc).encode(), b"", check.load_refs())
    assert outcome == check.FAILED, why


def test_checker_rejects_wrong_order_num():
    req, doc = h8_char_response()
    doc["order_num"] += 48
    outcome, _ = check.check(req, 0, json.dumps(doc).encode(), b"", check.load_refs())
    assert outcome == check.FAILED


@pytest.mark.parametrize("rc", [1, 2, -9])
def test_nonzero_exit_is_a_failure(rc):
    req, doc = h8_char_response()
    outcome, _ = check.check(req, rc, json.dumps(doc).encode(), b"", check.load_refs())
    assert outcome == check.FAILED


def test_golay24_framed_refusal_needs_its_message():
    req = Request("framed", "golay24", "L", code="golay24.txt")
    stderr = f"validation failure: {check.FRAMED_REFUSAL}\n".encode()
    assert check.check(req, 1, b"", stderr, {})[0] == check.REFUSED
    assert check.check(req, 1, b"", b"Traceback ...", {})[0] == check.FAILED
    assert check.check(req, 2, b"", stderr, {})[0] == check.FAILED


def test_planted_cache_entry_counts_as_hit(tmp_path):
    req = replace(h8_char_response()[0], cache=True)
    source, planted = tmp_path / "source", tmp_path / "planted"
    assert run_cli(req.argv(Path("."), source))[0] == 0
    shutil.copytree(source, planted)
    before = check.cache_snapshot(planted)
    assert len(before) == 1
    assert run_cli(req.argv(Path("."), planted))[0] == 0
    assert check.was_hit(before, check.cache_snapshot(planted))

    empty = tmp_path / "empty"
    before = check.cache_snapshot(empty)
    assert run_cli(req.argv(Path("."), empty))[0] == 0
    assert not check.was_hit(before, check.cache_snapshot(empty))


def test_tail_leaves_ten_samples_above():
    import run

    walls = [float(i) for i in range(1, 41)]
    value, pct = run.tail(walls)
    assert sum(w > value for w in walls) == 10
    assert pct == 75.0


def test_tail_of_few_samples_is_the_slowest():
    import run

    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
