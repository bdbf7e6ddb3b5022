"""Tests of the benchmark itself: generators, known-answer checker, tracer.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

import curveobs as co  # noqa: E402


def report(p: W.Pair) -> str:
    return co.analyze(p.genus, co.parse_word(p.a_text, p.genus),
                      co.parse_word(p.b_text, p.genus)).to_json()


@pytest.fixture(scope="module")
def analyze_pairs():
    return W.analyze_long(random.Random(11), 32)


@pytest.fixture(scope="module")
def chunks():
    return W.cli_chunks(random.Random(12), 8)


def test_inputs_depend_only_on_seed():
    assert W.analyze_long(random.Random(3), 8) == W.analyze_long(random.Random(3), 8)
    assert W.twist_wide(random.Random(3), 5) == W.twist_wide(random.Random(3), 5)
    assert W.analyze_long(random.Random(3), 8) != W.analyze_long(random.Random(4), 8)


def test_catalogue_declares_i_A():
    for j, k in ((1, 1), (1, 2), (3, 2)):
        for p in W.catalogue(j, k):
            g = max(j, k)
            i_a = W.dot(W.abelian(p.a, g), W.abelian(p.b, g))
            assert (i_a != 0) == (p.verdict == W.VERDICT_HOMOLOGICAL), p.name
            assert (p.v is None) == (p.verdict == W.VERDICT_HOMOLOGICAL)


def test_analyze_long_words(analyze_pairs):
    names = {W.VERDICT_INCONCLUSIVE: 0, W.VERDICT_THEOREM: 0,
             W.VERDICT_HOMOLOGICAL: 0}
    for p in analyze_pairs:
        assert p.genus in W.ANALYZE_GENERA
        for w in (p.a, p.b):
            assert W.is_reduced(w)
            assert 2 * W.ANALYZE_PAD + 1 <= len(w) <= 2 * W.ANALYZE_PAD + 4
        assert (p.i_A == 0) == (p.verdict != W.VERDICT_HOMOLOGICAL)
        names[p.verdict] += 1
    assert names == {W.VERDICT_INCONCLUSIVE: 16, W.VERDICT_THEOREM: 8,
                     W.VERDICT_HOMOLOGICAL: 8}


def test_twist_wide_words():
    for p in W.twist_wide(random.Random(5), 25):
        assert p.genus in W.TWIST_GENERA
        assert (len(p.a), len(p.b)) in W.TWIST_LENGTHS
        assert W.is_reduced(p.a) and W.is_reduced(p.b)
        assert any(p.abs_a) and any(p.abs_b) and p.i_A == 0


def test_cli_chunks_use_the_grammar(chunks):
    text = "".join(W.batch_line(p) for chunk in chunks for p in chunk)
    for token in ("zeta", "[", ")^", "^-"):
        assert token in text
    for chunk in chunks:
        assert [p.genus for p in chunk] == [1, 2, 3, 4]
        for p in chunk:
            assert (p.i_A == 0) == (p.verdict != W.VERDICT_HOMOLOGICAL)
            if p.genus > 1:
                assert (p.i_A == 0) == (p.genus != 2)


def test_grammar_letters_match_the_parser():
    rng = random.Random(7)
    for genus in (1, 2, 4):
        for _ in range(20):
            text, letters = W.grammar_word(genus, rng)
            assert co.parse_word(text, genus).letters == tuple(W.reduce(letters))


def test_checker_accepts_the_program(analyze_pairs, chunks):
    for p in analyze_pairs:
        assert checker.check_report(p, report(p)) is None
    for chunk in chunks[:3]:
        out = "".join(report(p) + "\n" for p in chunk)
        assert checker.check_batch(chunk, 0, out) is None


def corrupt(d: dict, how: str) -> dict:
    d = json.loads(json.dumps(d))
    if how == "verdict":
        d["verdict"] = W.VERDICT_THEOREM if d["verdict"] != W.VERDICT_THEOREM \
            else W.VERDICT_INCONCLUSIVE
    elif how == "iA":
        d["iA"] += 1
    elif how == "abs":
        key = next(iter(d["abs"]["a"]))
        d["abs"]["a"][key] = str(int(d["abs"]["a"][key]) + 1)
    elif how == "text":
        d["a"] = d["a"] + " x1"
    elif how == "obstruction":
        d["obstruction"]["X1"] = str(int(d["obstruction"].get("X1", "0")) + 2)
    elif how == "witness":
        d["lattice"]["m"] += 1
    elif how == "truncated":
        return {k: d[k] for k in ("genus", "a", "b")}
    return d


@pytest.mark.parametrize("how", ["verdict", "iA", "abs", "text", "obstruction",
                                 "witness", "truncated"])
def test_checker_rejects_corrupted_reports(analyze_pairs, how):
    # a pair whose verdict is inconclusive has every field the checker reads
    p = next(p for p in analyze_pairs if p.verdict == W.VERDICT_INCONCLUSIVE
             and p.v and any(p.v))
    good = json.loads(report(p))
    assert checker.check_report(p, json.dumps(corrupt(good, how))) is not None


def test_checker_rejects_bad_batches(chunks):
    chunk = chunks[0]
    lines = [report(p) for p in chunk]
    assert checker.check_batch(chunk, 1, "\n".join(lines)) is not None
    assert checker.check_batch(chunk, 0, "\n".join(lines[:-1])) is not None
    swapped = "\n".join([lines[1], lines[0]] + lines[2:])
    assert checker.check_batch(chunk, 0, swapped) is not None
    assert checker.check_report(chunk[0], "not json") is not None


def test_checker_twist():
    p = W.twist_wide(random.Random(9), 1)[0]
    assert checker.check_twist(p, True) is None
    assert checker.check_twist(p, False) is not None


def test_tracer_survives_missing_targets_and_restores():
    import curveobs.obstruction
    ell_module = sys.modules["curveobs.ell"]  # `curveobs.ell` is the function
    original = ell_module.ell
    targets = spans.TARGETS + (
        ("gone.function", "curveobs.ell", "no_such_function", None),
        ("gone.method", "curveobs.tensor", "TruncTensor.no_such_method", None),
        ("gone.module", "curveobs.no_such_module", "f", None),
    )
    p = W.analyze_long(random.Random(1), 1)[0]
    tracer = spans.Tracer()
    with tracer.installed(targets):
        assert curveobs.obstruction.ell is not original
        with tracer.op():
            assert checker.check_report(p, report(p)) is None
    assert curveobs.obstruction.ell is original
    assert ell_module.ell is original and co.ell is original
    assert set(tracer.missing) == {"gone.function", "gone.method", "gone.module"}
    m = spans.layer_metrics(tracer, 1.0, 1.0)
    assert m["ell.ell.calls"] == 4
    assert m["wedge.wedge.calls"] == 2 * (len(p.a) + len(p.b))
    assert m["tensor.derive.calls"] == 0
    assert m["words.letters_per_op"] == len(p.a) + len(p.b)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    tracer = spans.Tracer()
    with tracer.op():
        pass
    layer = spans.layer_metrics(tracer, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, run.layer_unit(k)) for k in layer]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WHY
