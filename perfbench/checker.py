"""Known-answer checks on the program's outputs, in the benchmark's own exact
arithmetic. Each check returns None when the output is right and a one-line
reason when it is not."""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import (VERDICT_HOMOLOGICAL, VERDICT_INCONCLUSIVE, Pair,
                       basis_label, canonical_text, combine)


def _labelled(vec) -> dict[str, Fraction]:
    return {basis_label(k): Fraction(c) for k, c in enumerate(vec) if c != 0}


def _parse_vec(obj) -> dict[str, Fraction]:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a vector object, got {obj!r}")
    return {k: Fraction(v) for k, v in obj.items() if Fraction(v) != 0}


def check_report(pair: Pair, report: str) -> str | None:
    """One `analyze` JSON report against the pair's known answer."""
    try:
        d = json.loads(report)
        A, B = pair.abs_a, pair.abs_b
        if d["genus"] != pair.genus:
            return f"genus {d['genus']} != {pair.genus}"
        if d["a"] != canonical_text(pair.a) or d["b"] != canonical_text(pair.b):
            return "canonical word text differs"
        if _parse_vec(d["abs"]["a"]) != _labelled(A):
            return "abs.a differs from the letter counts"
        if _parse_vec(d["abs"]["b"]) != _labelled(B):
            return "abs.b differs from the letter counts"
        if d["iA"] != pair.i_A:
            return f"iA {d['iA']} != {pair.i_A}"
        if d["verdict"] != pair.verdict:
            return f"verdict {d['verdict']} != {pair.verdict}"
        if pair.verdict == VERDICT_HOMOLOGICAL:
            if d["obstruction"] is not None or d["lattice"] is not None:
                return "homological verdict carries an obstruction vector"
            return None
        v = _parse_vec(d["obstruction"])
        if v != _labelled(pair.v):
            return "obstruction vector differs from the known answer"
        lattice = d["lattice"]
        if lattice["member"] != (pair.verdict == VERDICT_INCONCLUSIVE):
            return "lattice decision contradicts the verdict"
        if lattice["member"]:
            m, n = lattice["m"], lattice["n"]
            if not (isinstance(m, int) and isinstance(n, int)):
                return "lattice witness is not integral"
            if _labelled(combine((m, A), (n, B))) != v:
                return f"witness ({m}, {n}) does not give v"
        return None
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def check_twist(pair: Pair, consistent) -> str | None:
    """The twist identity holds for every pair with i_A = 0."""
    if pair.i_A != 0:
        return "generator produced a pair with i_A != 0"
    if consistent is not True:
        return f"twist cross-check returned {consistent!r}"
    return None


def check_batch(chunk: list[Pair], returncode: int, stdout: str) -> str | None:
    """One `analyze --pairs` process: exit 0 and one right report per line."""
    if returncode != 0:
        return f"exit code {returncode}"
    lines = stdout.splitlines()
    if len(lines) != len(chunk):
        return f"{len(lines)} output lines for {len(chunk)} input lines"
    for i, (pair, line) in enumerate(zip(chunk, lines), 1):
        why = check_report(pair, line)
        if why is not None:
            return f"line {i}: {why}"
    return None
