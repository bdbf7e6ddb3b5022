"""Golden corpus of the twist cross-check at the sizes of the benchmark's
twist-wide workload: the exact `twist-check --format json` bytes of 48 seeded
pairs of random reduced 10-12-letter flat words at genus 8-12 with i_A = 0.
`tests/data/golden.jsonl` covers genus 1-4 only; any change to the tensor
path must leave every byte here unchanged too.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_twist_wide.py > tests/data/golden_twist_wide.jsonl
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from curveobs.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_twist_wide.jsonl"
SEED = 8012
COUNT = 48
GENERA = (8, 9, 10, 11, 12)


# --- corpus generation (text only; the program sees nothing but text) -------
# A letter is (generator index k in 0..2g-1, sign): x_j is k = 2(j-1), y_j is
# k = 2j-1, matching the homology basis X1, Y1, ..., Xg, Yg.

def _reduced(genus: int, length: int, rng: random.Random) -> list:
    out = []
    while len(out) < length:
        letter = (rng.randrange(2 * genus), rng.choice((1, -1)))
        if not (out and out[-1] == (letter[0], -letter[1])):
            out.append(letter)
    return out


def _text(letters) -> str:
    return " ".join(("x" if k % 2 == 0 else "y") + str(k // 2 + 1)
                    + ("" if e == 1 else "^-1") for k, e in letters)


def _abelian(genus: int, letters) -> list:
    out = [0] * (2 * genus)
    for k, e in letters:
        out[k] += e
    return out


def _pair(i: int, rng: random.Random) -> tuple[int, str, str]:
    """Nonzero classes with zero algebraic intersection, by rejection."""
    genus = GENERA[i % len(GENERA)]
    while True:
        a = _reduced(genus, rng.randint(10, 12), rng)
        b = _reduced(genus, rng.randint(10, 12), rng)
        A, B = _abelian(genus, a), _abelian(genus, b)
        i_A = sum(A[k] * B[k + 1] - A[k + 1] * B[k]
                  for k in range(0, 2 * genus, 2))
        if any(A) and any(B) and i_A == 0:
            return genus, _text(a), _text(b)


def outputs(genus: int, a_text: str, b_text: str) -> dict:
    out = io.StringIO()
    argv = ["twist-check", "--genus", str(genus), "--a", a_text,
            "--b", b_text, "--format", "json"]
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return {"genus": genus, "a": a_text, "b": b_text,
            "twist_json": out.getvalue()}


def generate() -> list[dict]:
    rng = random.Random(SEED)
    return [outputs(*_pair(i, rng)) for i in range(COUNT)]


# --- tests ------------------------------------------------------------------

def _records() -> list[dict]:
    if not GOLDEN.exists():  # regenerating; test_corpus_shape reports it missing
        return []
    with open(GOLDEN) as fh:
        return [json.loads(line) for line in fh]


RECORDS = _records()


def test_corpus_shape():
    assert len(RECORDS) == COUNT
    assert {r["genus"] for r in RECORDS} == set(GENERA)
    assert all(json.loads(r["twist_json"])["consistent"] for r in RECORDS)


@pytest.mark.parametrize("index", range(len(RECORDS)))
def test_twist_check_is_byte_identical(index):
    rec = RECORDS[index]
    assert outputs(rec["genus"], rec["a"], rec["b"]) == rec


if __name__ == "__main__":
    for record in generate():
        print(json.dumps(record))
