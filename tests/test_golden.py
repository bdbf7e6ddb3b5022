"""Golden corpus: the exact output bytes of ~200 seeded pairs.

`tests/data/golden.jsonl` holds one record per pair: the input text, the
`analyze` report as JSON and as text, the `eval` output of each word in both
formats, and the `twist-check --format json` output when i_A = 0. The words
cover genus 1-4, flat text and the full grammar (`^k`, `[u,v]`, `(w)^k`,
`zeta`), and every verdict. Any change to the exact core must leave every
byte unchanged.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden.jsonl
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from curveobs.cli import main
from curveobs.obstruction import analyze
from curveobs.words import parse_word

GOLDEN = Path(__file__).parent / "data" / "golden.jsonl"
SEED = 20161
COUNT = 200


# --- corpus generation (text only; the program sees nothing but text) -------

def _atom(genus: int, rng: random.Random) -> str:
    name = rng.choice("xy") + str(rng.randint(1, genus))
    exp = rng.choice((1, 1, 1, -1, -1, 2, -2, 3))
    return name if exp == 1 else f"{name}^{exp}"


def _flat(genus: int, length: int, rng: random.Random) -> str:
    return " ".join(_atom(genus, rng) for _ in range(length)) or "1"


def _full(genus: int, depth: int, rng: random.Random) -> str:
    """A word in the full grammar: atoms, powers of groups, commutators, zeta."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5) if depth > 0 else 0
        if kind == 0:
            parts.append(_atom(genus, rng))
        elif kind == 1:
            exp = rng.choice((2, -1, -2, 3))
            parts.append(f"({_full(genus, depth - 1, rng)})^{exp}")
        elif kind == 2:
            parts.append(f"[{_full(genus, depth - 1, rng)}, "
                         f"{_full(genus, depth - 1, rng)}]")
        elif kind == 3:
            parts.append("zeta" if rng.random() < 0.7 else "zeta^-1")
        else:
            parts.append("1")
    return " ".join(parts)


def _conjugated(core: str, genus: int, rng: random.Random) -> str:
    """core conjugated by a random word and padded by a commutator; the
    homology class is unchanged."""
    u = _flat(genus, rng.randint(0, 3), rng)
    out = f"({u}) {core} ({u})^-1"
    if rng.random() < 0.5:
        out += f" [{_flat(genus, rng.randint(1, 2), rng)}, " \
               f"{_flat(genus, rng.randint(1, 2), rng)}]"
    return out


def _pair(i: int, rng: random.Random) -> tuple[int, str, str]:
    genus = 1 + i % 4
    kind = (i // 4) % 5
    if kind == 0:
        return (genus, _flat(genus, rng.randint(0, 8), rng),
                _flat(genus, rng.randint(0, 8), rng))
    if kind == 1:
        return genus, _full(genus, 2, rng), _full(genus, 2, rng)
    j = rng.randint(1, genus)
    k = rng.choice([m for m in range(1, genus + 1) if m != j] or [j])
    if kind == 2:
        # parallel or disjoint cores: i_A = 0
        a = rng.choice((f"x{j}", f"y{j}"))
        b = rng.choice((a, a + "^-1", f"x{k}", f"y{k}"))
    elif kind == 3:
        # the README pair on handles j, k (theorem fires when j != k)
        a = f"x{j} x{k} y{k} x{k}^-1"
        b = f"y{k} x{j}^-1"
    else:
        # a against a commutator-padded copy of itself: i_A = 0
        a = _flat(genus, rng.randint(1, 4), rng)
        b = f"({a})^{rng.choice((1, -1))} [{_flat(genus, 1, rng)}, " \
            f"{_flat(genus, rng.randint(1, 2), rng)}]"
        return genus, a, b
    return genus, _conjugated(a, genus, rng), _conjugated(b, genus, rng)


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def outputs(genus: int, a_text: str, b_text: str) -> dict:
    rep = analyze(genus, parse_word(a_text, genus), parse_word(b_text, genus))
    g = str(genus)
    rec = {
        "genus": genus,
        "a": a_text,
        "b": b_text,
        "analyze_json": rep.to_json(),
        "analyze_text": rep.to_text(),
        "eval": {
            side: {fmt: _cli("eval", "--genus", g, "--format", fmt, text)
                   for fmt in ("json", "text")}
            for side, text in (("a", a_text), ("b", b_text))
        },
        "twist_json": None,
    }
    if rep.i_A == 0:
        rec["twist_json"] = _cli("twist-check", "--genus", g, "--a", a_text,
                                 "--b", b_text, "--format", "json")
    return rec


def generate() -> list[dict]:
    rng = random.Random(SEED)
    return [outputs(*_pair(i, rng)) for i in range(COUNT)]


# --- tests ------------------------------------------------------------------

def _records() -> list[dict]:
    if not GOLDEN.exists():  # regenerating; test_corpus_* reports it missing
        return []
    with open(GOLDEN) as fh:
        return [json.loads(line) for line in fh]


RECORDS = _records()


def test_corpus_covers_every_verdict_and_genus():
    verdicts = {json.loads(r["analyze_json"])["verdict"] for r in RECORDS}
    assert verdicts == {"certified_positive_homological",
                        "certified_positive_theorem", "inconclusive"}
    assert {r["genus"] for r in RECORDS} == {1, 2, 3, 4}
    assert len(RECORDS) == COUNT


@pytest.mark.parametrize("index", range(len(RECORDS)))
def test_outputs_are_byte_identical(index):
    rec = RECORDS[index]
    assert outputs(rec["genus"], rec["a"], rec["b"]) == rec


def test_optimized_interpreter_gives_the_same_bytes():
    # `python -O` strips assert statements; the invariants must not depend on
    # them. The text report runs both invariant checks of `obstruction`.
    rec = next(r for r in RECORDS
               if json.loads(r["analyze_json"])["verdict"]
               == "certified_positive_theorem")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "curveobs.cli", "analyze",
         "--genus", str(rec["genus"]), "--a", rec["a"], "--b", rec["b"],
         "--format", "text"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == rec["analyze_text"] + "\n"


if __name__ == "__main__":
    for record in generate():
        print(json.dumps(record))
