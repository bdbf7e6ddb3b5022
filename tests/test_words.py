"""Tests of `curveobs.words`: parsing and formatting, the group operations,
the boundary word, reduction, the seeded random words, and `Word` as a
record. The `_Record` contract checks (`COPIES`, `assert_copied`,
`assert_frozen`) are defined here, with `_Record`, and the record tests of
the other modules import them.
"""

import copy
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveobs.words import (MAX_GENUS, MAX_LETTERS, Word, WordError,
                            boundary_word, commutator, format_word, generator,
                            parse_word, random_commutator_element_rng,
                            random_letters, random_word_rng, reduce_letters)
from curveobs.homology import abelianize


def L(*names):
    """Letters by name: 'x1', 'y2^-1' style shorthand for expected tuples."""
    out = []
    for n in names:
        neg = n.endswith("^-1")
        base = n[:-3] if neg else n
        k = 2 * (int(base[1:]) - 1) + (0 if base[0] == "x" else 1)
        out.append(-(k + 1) if neg else k + 1)
    return tuple(out)


@st.composite
def words_(draw, max_len=20):
    g = draw(st.integers(1, 3))
    n = 2 * g
    letters = draw(st.lists(
        st.integers(-n, n).filter(lambda i: i != 0), max_size=max_len))
    return Word.from_letters(g, letters)


# Input at genus 2 and the exact error it raises; past the first twelve, the
# generator-atom edge cases: a sign, a separator or a second '^' where the
# exponent's digits go, zero and overlong exponents, and a fault after an atom.
ERRORS = {
    "": "empty input (use '1' for the identity)",
    "  ": "empty input (use '1' for the identity)",
    "x0": "generator index out of range 1..2 in 'x0'",
    "x3": "generator index out of range 1..2 in 'x3'",
    "z1": "unknown token at 'z1'",
    "x1^0": "exponent 0 is not allowed",
    "[x1,y1": "unbalanced bracket, expected ']'",
    "(x1": "unbalanced bracket, expected ')'",
    "x1)": "unexpected token ')'",
    "x1^": "expected integer exponent, got ''",
    "x1,y1": "unexpected token ','",
    "x1 & y1": "unknown token at '& y1'",
    "x1^+2": "unknown token at '+2'",
    "x1^-": "unknown token at '-'",
    "x1^- 2": "unknown token at '- 2'",
    "x1^x2": "expected integer exponent, got 'x2'",
    "x1 ^ x2": "expected integer exponent, got 'x2'",
    "x1 ^ *": "expected integer exponent, got ''",
    "x1^(x2)": "expected integer exponent, got '('",
    "x1^2^3": "unexpected token '^'",
    "x1^-2 ^ 3": "unexpected token '^'",
    "x1^-0": "exponent 0 is not allowed",
    "x1^00": "exponent 0 is not allowed",
    "x1^1000001": "word expands to 1000001 letters, more than 1000000",
    "x1^10000000": "exponent '10000000' expands the word to more than 1000000 "
                   "letters",
    "x1^-" + "9" * 30: "exponent '-99999999999'... (31 characters) expands "
                       "the word to more than 1000000 letters",
    "x9^2 &": "generator index out of range 1..2 in 'x9'",
    "x9^+2": "generator index out of range 1..2 in 'x9'",
    "x1^2 &": "unknown token at '&'",
    "x1 y": "unknown token at 'y'",
}


class TestParse:
    def test_paper_example(self):
        assert parse_word("x1 x2 y2 x2^-1", 2).letters == L("x1", "x2", "y2", "x2^-1")

    def test_inverse_pair_cancels(self):
        assert parse_word("x1 x1^-1", 2) == Word.identity(2)

    def test_zeta_genus_one(self):
        assert parse_word("zeta", 1).letters == L("x1", "y1", "x1^-1", "y1^-1")

    def test_star_separator_and_parens(self):
        assert parse_word("x1*(x2 y2)^-1", 2).letters == L("x1", "y2^-1", "x2^-1")

    def test_commutator_syntax(self):
        assert parse_word("[x1,y1]", 1) == boundary_word(1)

    def test_nested_commutator(self):
        w = parse_word("[x1,[x2,y2]]", 2)
        inner = commutator(parse_word("x2", 2), parse_word("y2", 2))
        assert w == commutator(parse_word("x1", 2), inner)

    @pytest.mark.parametrize("bad", list(ERRORS))
    def test_errors(self, bad):
        with pytest.raises(WordError) as exc:
            parse_word(bad, 2)
        assert str(exc.value) == ERRORS[bad]

    @pytest.mark.parametrize("text,same", [
        ("x1 ^ 2", "x1^2"), ("x1*^*2", "x1^2"), ("x1^0000000000000000002", "x1^2"),
        ("x1^ -2", "x1^-2"), ("x1**x2", "x1 x2"), ("x1x2^2y1", "x1 x2^2 y1"),
    ])
    def test_equivalent_spellings(self, text, same):
        assert parse_word(text, 2) == parse_word(same, 2)

    @pytest.mark.parametrize("text,genus,message", [
        ("[x1 x2]", 2, "expected ',' inside commutator bracket"),
        ("2", 1, "unexpected token '2'"),
        ("^2", 1, "unexpected token '^'"),
        # parse_word's own genus check, for callers that skip parse_genus
        ("x1", 0, "genus must be >= 1, got 0"),
        ("x1", MAX_GENUS + 1,
         f"genus must be <= {MAX_GENUS}, got {MAX_GENUS + 1}"),
    ])
    def test_error_messages(self, text, genus, message):
        with pytest.raises(WordError) as exc:
            parse_word(text, genus)
        assert str(exc.value) == message

    @pytest.mark.parametrize("token,shown", [
        ("x0", "'x0'"), ("y000", "'y000'"), ("x3", "'x3'"), ("y1001", "'y1001'"),
        ("x10000", "'x10000'"),
        ("x" + "0" * 5000, "'x00000000000'... (5001 characters)"),
        ("y" + "1" * 5000, "'y11111111111'... (5001 characters)"),
    ])
    def test_index_out_of_range_names_the_token(self, token, shown):
        # the index is read from the token's digits alone; its text is the
        # same for every length, past int()'s 4300-digit limit too
        with pytest.raises(WordError) as exc:
            parse_word(f"x1 {token}", 2)
        assert str(exc.value) == f"generator index out of range 1..2 in {shown}"

    def test_zero_padded_index(self):
        assert parse_word("x02 y" + "0" * 5000 + "1", 2) == parse_word("x2 y1", 2)

    def test_earlier_parse_error_wins_over_a_later_unknown_token(self):
        # tokens are read as the parser needs them, so the first fault in
        # reading order is the one reported
        with pytest.raises(WordError, match="out of range 1..2 in 'x9'"):
            parse_word("x9 &", 2)

    def test_letter_cap_bounds_memory_on_long_text(self):
        # 6 MB of text past a word already at the cap: the parser must stop
        # at the cap, not hold a token per atom first
        text = "x1^1000000 " + "x1 " * 2_000_000
        tracemalloc.start()
        try:
            with pytest.raises(WordError, match=f"more than {MAX_LETTERS}"):
                parse_word(text, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestFormat:
    def test_identity(self):
        assert format_word(Word.identity(2)) == "1"

    def test_mixed_signs(self):
        assert format_word(Word(2, L("x1", "y2^-1"))) == "x1 y2^-1"

    def test_power_compression(self):
        w = parse_word("x2^-3", 2)
        assert format_word(w) == "x2^-3"
        assert str(w) == format_word(w)

    @given(words_())
    def test_roundtrip(self, w):
        assert parse_word(format_word(w), w.genus) == w


class TestGroupOps:
    def test_multiply_cancel(self):
        x1 = parse_word("x1", 2)
        assert x1 * x1.inverse() == Word.identity(2)

    def test_multiply_no_cancel(self):
        u = parse_word("x1 x2", 2)
        v = parse_word("y2 x2^-1", 2)
        assert u * v == parse_word("x1 x2 y2 x2^-1", 2)

    def test_invert_examples(self):
        assert parse_word("x1 x2", 2).inverse() == parse_word("x2^-1 x1^-1", 2)
        assert Word.identity(1).inverse() == Word.identity(1)

    def test_conjugate_examples(self):
        x2, y2 = parse_word("x2", 2), parse_word("y2", 2)
        assert x2.conjugate(y2) == parse_word("x2 y2 x2^-1", 2)
        assert Word.identity(2).conjugate(y2) == y2
        assert x2.conjugate(Word.identity(2)) == Word.identity(2)

    def test_commutator_examples(self):
        x1, y1 = parse_word("x1", 1), parse_word("y1", 1)
        assert commutator(x1, y1) == parse_word("x1 y1 x1^-1 y1^-1", 1)
        w = parse_word("x1 y1", 1)
        assert commutator(w, w) == Word.identity(1)

    def test_generator_index_out_of_range(self):
        with pytest.raises(WordError) as exc:
            generator(1, "x", 2)
        assert str(exc.value) == "generator index 2 out of range for genus 1"

    def test_genus_mismatch(self):
        with pytest.raises(WordError):
            parse_word("x1", 1) * parse_word("x1", 2)

    @given(words_())
    def test_identity_element(self, w):
        e = Word.identity(w.genus)
        assert w * e == w and e * w == w

    @given(words_())
    def test_double_inverse(self, w):
        assert w.inverse().inverse() == w
        assert w * w.inverse() == Word.identity(w.genus)

    @given(words_(max_len=12), words_(max_len=12), words_(max_len=12))
    def test_associativity(self, u, v, w):
        g = max(u.genus, v.genus, w.genus)
        u, v, w = (Word(g, x.letters) for x in (u, v, w))
        assert (u * v) * w == u * (v * w)


class TestBoundary:
    def test_genus_one(self):
        assert boundary_word(1) == parse_word("x1 y1 x1^-1 y1^-1", 1)

    def test_genus_two(self):
        assert boundary_word(2) == parse_word("x1 y1 x1^-1 y1^-1 x2 y2 x2^-1 y2^-1", 2)

    @pytest.mark.parametrize("g", range(1, 9))
    def test_product_of_commutators(self, g):
        want = Word.identity(g)
        for j in range(1, g + 1):
            want = want * commutator(generator(g, "x", j), generator(g, "y", j))
        assert boundary_word(g) == want

    @pytest.mark.parametrize("g", range(1, 6))
    def test_abelianizes_to_zero(self, g):
        assert abelianize(boundary_word(g)).is_zero()

    def test_genus_zero_rejected(self):
        with pytest.raises(WordError):
            boundary_word(0)


class TestReduction:
    @given(st.integers(1, 3), st.data())
    @settings(max_examples=100)
    def test_confluence(self, g, data):
        n = 2 * g
        seq = data.draw(st.lists(
            st.integers(-n, n).filter(lambda i: i != 0), max_size=16))
        scanned = reduce_letters(seq)
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        work = list(seq)
        while True:
            pairs = [i for i in range(len(work) - 1) if work[i] == -work[i + 1]]
            if not pairs:
                break
            i = rng.choice(pairs)
            del work[i:i + 2]
        assert tuple(work) == scanned


class TestRandom:
    def test_zero_length(self):
        assert random_word_rng(2, 0, random.Random(5)) == Word.identity(2)

    def test_deterministic(self):
        assert (random_word_rng(3, 25, random.Random(77))
                == random_word_rng(3, 25, random.Random(77)))
        assert (random_commutator_element_rng(2, 3, random.Random(9))
                == random_commutator_element_rng(2, 3, random.Random(9)))

    def test_letters_within_genus(self):
        rng = random.Random(1)
        for _ in range(1000):
            g = rng.randint(1, 4)
            w = Word.from_letters(g, random_letters(g, rng.randint(0, 10), rng))
            assert all(1 <= abs(l) <= 2 * g for l in w.letters)

    def test_commutator_element_abelianizes_to_zero(self):
        rng = random.Random(3)
        for i in range(500):
            g = rng.randint(1, 3)
            w = random_commutator_element_rng(g, rng.randint(0, 4),
                                              random.Random(i))
            assert abelianize(w).is_zero()

    def test_count_zero(self):
        assert random_commutator_element_rng(1, 0, random.Random(4)) == Word.identity(1)

    def test_single_commutator_structure(self):
        rng = random.Random(11)
        u = random_word_rng(1, rng.randint(1, 5), rng)
        v = random_word_rng(1, rng.randint(1, 5), rng)
        assert random_commutator_element_rng(1, 1, random.Random(11)) == commutator(u, v)


# every way a record is copied: shallow, deep and each pickle protocol. The
# record tests of every module import this list and the two checks below of
# the `_Record` contract, which lives here with `Word`.
COPIES = [copy.copy, copy.deepcopy] + [
    (lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p)))
    for p in range(pickle.HIGHEST_PROTOCOL + 1)]


def assert_copied(obj, copier):
    """The copy is a record of the same class, equal and with the same repr."""
    c = copier(obj)
    assert type(c) is type(obj) and c == obj and repr(c) == repr(obj)
    return c


def assert_frozen(obj, fields, value=None):
    """None of the fields can be set (to `value`) or deleted."""
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)


class TestRecord:
    """Word is an immutable value: equal and hashed by value, copyable."""

    def test_equality_and_hash(self):
        w = Word(2, L("x1", "y2"))
        assert w == Word(genus=2, letters=L("x1", "y2"))
        assert hash(w) == hash(parse_word("x1 y2", 2))
        assert {w: 1}[parse_word("x1 y2", 2)] == 1
        assert w != Word(2, L("x1", "y2^-1")) and w != Word(3, w.letters)
        assert w != (2, w.letters) and not w == (2, w.letters)

    def test_fields_cannot_be_set_or_deleted(self):
        w = Word(2, L("x1"))
        assert_frozen(w, ("genus", "letters"), ())
        assert w == Word(2, L("x1"))

    def test_repr(self):
        assert (repr(parse_word("x1 x2 y2 x2^-1", 2))
                == "Word(genus=2, letters=(1, 3, 4, -3))")
        assert repr(Word.identity(1)) == "Word(genus=1, letters=())"

    @pytest.mark.parametrize("copier", COPIES)
    def test_copies(self, copier):
        assert_copied(parse_word("x1 y2^3 [x1, y1]", 2), copier)

    @pytest.mark.parametrize("genus, letters, message", [
        (0, (), "genus must be >= 1, got 0"),
        (1, (3,), "letter 3 out of range for genus 1"),
        (1, (0,), "letter 0 out of range for genus 1"),
        (2, (-5,), "letter -5 out of range for genus 2"),
        (2, (1, 2, -2), "word is not freely reduced"),
    ])
    def test_invalid_fields(self, genus, letters, message):
        with pytest.raises(WordError) as exc:
            Word(genus, letters)
        assert str(exc.value) == message

    def test_missing_or_unknown_field(self):
        with pytest.raises(TypeError):
            Word(2)
        with pytest.raises(TypeError):
            Word(2, (), ())
        with pytest.raises(TypeError):
            Word(2, word=())
