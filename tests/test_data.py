"""Tokenization, feature hashing, dataset IO, and the synthetic fixture."""

import numpy as np
import pytest

import scipy.sparse as sp

from xmclite import (Dataset, DatasetFormatError, Vocabulary, featurize_all,
                     load_dataset, make_dataset, synth_dataset)
from xmclite.data import TokenIds, load_label_texts, take_rows

from oracles import loop_featurize_all


def test_tokenize_lowercases_and_splits_on_non_alphanumerics():
    v = Vocabulary()
    got = v.tokenize("Red, RED  shoe!")
    want = [v.token_id("red"), v.token_id("red"), v.token_id("shoe")]
    assert got.tolist() == want


def test_tokenize_keeps_digits():
    v = Vocabulary()
    assert v.tokenize("sig12 x").tolist() == [v.token_id("sig12"),
                                              v.token_id("x")]


def test_tokenize_empty_and_punctuation_only():
    v = Vocabulary(64)
    assert v.tokenize("").size == 0
    assert v.tokenize("!!! ???").size == 0


def test_memoized_token_ids_equal_token_id():
    v = Vocabulary(97)
    memo = TokenIds(v)
    text = "Red shoe, red BLUE shoe z9 red"
    assert memo.tokenize(text).tolist() == [
        v.token_id(t) for t in ("red", "shoe", "red", "blue", "shoe", "z9",
                                "red")]
    assert sorted(memo) == ["blue", "red", "shoe", "z9"]
    # a token the memo has not seen, beside one it has
    assert memo.tokenize("green red").tolist() == [v.token_id("green"),
                                                   v.token_id("red")]
    assert memo.tokenize(text).tolist() == v.tokenize(text).tolist()
    empty = memo.tokenize("!!")
    assert empty.dtype == np.int64 and empty.size == 0


def test_token_ids_stay_in_range():
    v = Vocabulary(17)
    ids = v.tokenize("one two three four five six seven")
    assert ids.min() >= 0 and ids.max() < 17


def test_hashing_is_stable_across_instances():
    assert Vocabulary().token_id("shoe") == Vocabulary().token_id("shoe")


def test_hash_dim_must_be_positive():
    with pytest.raises(ValueError):
        Vocabulary(0)


def test_featurize_counts_duplicates():
    v = Vocabulary()
    vec = featurize_all([v.tokenize("red red shoe")], v).toarray().ravel()
    assert np.count_nonzero(vec) == 2
    assert vec[v.token_id("red")] == 2 * vec[v.token_id("shoe")]
    assert vec[v.token_id("shoe")] == pytest.approx(1 / 3, abs=1e-15)


def test_featurize_all_rows_sum_to_one():
    rng = np.random.default_rng(0)
    v = Vocabulary(12)
    texts = [rng.integers(0, 12, size=int(rng.integers(1, 6)))
             for _ in range(6)] + [np.zeros(0, dtype=np.int64)]
    sums = np.asarray(featurize_all(texts, v).sum(axis=1)).ravel()
    assert np.allclose(sums, [1.0] * 6 + [0.0], atol=1e-12)


def test_featurize_all_shapes_and_rows():
    v = Vocabulary(128)
    texts = [v.tokenize("a b"), v.tokenize(""), v.tokenize("b b c")]
    mat = featurize_all(texts, v)
    assert mat.shape == (3, 128)
    assert mat[1].nnz == 0
    single = featurize_all([texts[2]], v)
    assert np.array_equal(mat[2].toarray(), single.toarray())


@pytest.mark.parametrize("lengths", [[], [0], [0, 0], [3, 0, 5, 1, 0],
                                     [2, 7, 0, 4, 4, 1]])
def test_featurize_all_matches_per_text_rows(lengths):
    rng = np.random.default_rng(len(lengths))
    v = Vocabulary(16)
    texts = [rng.integers(0, 16, size=n) for n in lengths]
    got, want = featurize_all(texts, v), loop_featurize_all(texts, 16)
    assert got.shape == want.shape == (len(lengths), 16)
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part


@pytest.mark.parametrize("ids", [[], [4], [0, 2, 5, 9], [9, 0, 3, 3, 7],
                                 list(range(10))])
def test_take_rows_equals_scipy_row_indexing_bitwise(ids):
    rng = np.random.default_rng(len(ids))
    v = Vocabulary(32)
    # rows 3 and 7 are empty texts
    texts = [rng.integers(0, 32, size=0 if i in (3, 7) else
                          int(rng.integers(1, 9))) for i in range(10)]
    feats = featurize_all(texts, v)
    ids = np.array(ids, dtype=np.int64)
    got, want = take_rows(feats, ids), feats[ids]
    assert got.shape == want.shape == (ids.size, 32)
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and np.array_equal(
            a.view(np.uint8), b.view(np.uint8)), part
    # so the encoder's products are scipy's, bitwise
    dense = rng.normal(size=(32, 4))
    assert np.array_equal(got @ dense, want @ dense)
    back = rng.normal(size=(ids.size, 4))
    assert np.array_equal(got.T @ back, want.T @ back)


def test_identical_token_multisets_featurize_identically():
    v = Vocabulary()
    a = featurize_all([v.tokenize("blue shoe blue")], v)
    b = featurize_all([v.tokenize("shoe BLUE; blue")], v)
    assert np.array_equal(a.toarray(), b.toarray())


def test_make_dataset_dedups_and_sorts_positives():
    v = Vocabulary(32)
    ds = make_dataset([v.tokenize("x")], [v.tokenize("l0"), v.tokenize("l1"),
                                          v.tokenize("l2")],
                      [[2, 2, 0]], 3, v)
    assert ds.positives(0).tolist() == [0, 2]
    assert ds.label_frequencies.tolist() == [1, 0, 1]


def test_dataset_validate_catches_bad_frequencies():
    v = Vocabulary(32)
    ds = make_dataset([v.tokenize("x")], [v.tokenize("l")], [[0]], 1, v)
    ds.label_frequencies = np.array([7], dtype=np.int64)
    with pytest.raises(ValueError):
        ds.validate()


def _dataset_with_rows(rows, num_labels=8):
    v = Vocabulary(32)
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    indices = np.array([i for r in rows for i in r], dtype=np.int32)
    rel = sp.csr_matrix((np.ones(indices.size, dtype=np.int8), indices, indptr),
                        shape=(len(rows), num_labels))
    return Dataset(len(rows), num_labels, [v.tokenize("x")] * len(rows),
                   [v.tokenize("l")] * num_labels, rel,
                   np.bincount(indices, minlength=num_labels).astype(np.int64),
                   v)


def test_dataset_validate_names_the_first_unsorted_row():
    # Row boundaries step down (5 -> 0) or repeat (4 -> 4, 3 -> 3); only
    # ids inside one row must rise, so those rows are fine.
    good = [[1, 4], [4, 5], [], [0, 3], [3, 6]]
    _dataset_with_rows(good).validate()
    for bad_row in ([6, 2], [2, 2]):
        ds = _dataset_with_rows(good + [bad_row, [7, 1]])
        with pytest.raises(ValueError, match="instance 5 not strictly sorted"):
            ds.validate()
    # against the per-row loop, on rows with random ids
    rng = np.random.default_rng(0)
    for _ in range(50):
        rows = [rng.integers(0, 8, size=int(rng.integers(0, 4))).tolist()
                for _ in range(6)]
        first = next((i for i, r in enumerate(rows)
                      if np.any(np.diff(r) <= 0)), None)
        ds = _dataset_with_rows(rows)
        if first is None:
            ds.validate()
        else:
            with pytest.raises(ValueError,
                               match=f"instance {first} not strictly"):
                ds.validate()


def test_synth_dataset_is_deterministic_and_separable():
    a = synth_dataset(30, 8, seed=5)
    b = synth_dataset(30, 8, seed=5)
    assert np.array_equal(a.relevance.toarray(), b.relevance.toarray())
    for i in range(30):
        assert np.array_equal(a.instance_texts[i], b.instance_texts[i])
        # every positive's signature token appears in the instance text
        for p in a.positives(i):
            assert a.vocab.token_id(f"sig{p}") in a.instance_texts[i]
    c = synth_dataset(30, 8, seed=6)
    assert not np.array_equal(a.relevance.toarray(), c.relevance.toarray())


def test_synth_dataset_respects_positive_range():
    ds = synth_dataset(100, 20, seed=1, positives_per_instance=(2, 4))
    sizes = [ds.positives(i).size for i in range(100)]
    assert min(sizes) >= 2 and max(sizes) <= 4
    assert ds.label_frequencies.sum() == sum(sizes)


def test_synth_dataset_clamps_positives_to_label_count():
    ds = synth_dataset(10, 2, seed=0, positives_per_instance=(1, 5))
    assert max(ds.positives(i).size for i in range(10)) <= 2


def test_synth_dataset_rejects_bad_arguments():
    with pytest.raises(ValueError):
        synth_dataset(0, 5)
    with pytest.raises(ValueError):
        synth_dataset(5, 5, positives_per_instance=(3, 2))


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_jsonl_roundtrip(tmp_path):
    q = _write(tmp_path / "q.jsonl",
               '{"text": "red shoe", "labels": [1, 0]}\n'
               '\n'
               '{"text": "blue hat", "labels": []}\n')
    l = _write(tmp_path / "l.txt", "shoes\nhats\n")
    ds = load_dataset(q, l)
    assert (ds.num_instances, ds.num_labels) == (2, 2)
    assert ds.positives(0).tolist() == [0, 1]
    assert ds.positives(1).tolist() == []
    assert np.count_nonzero(np.diff(ds.relevance.indptr) == 0) == 1
    v = ds.vocab
    assert ds.instance_texts[0].tolist() == [v.token_id("red"),
                                             v.token_id("shoe")]


def test_load_jsonl_rejects_bad_rows(tmp_path):
    l = _write(tmp_path / "l.txt", "a\nb\n")
    cases = [
        ('{"text": "x", "labels": [2]}\n', "out of range"),
        ('{"text": "x", "labels": [-1]}\n', "out of range"),
        ('{"text": "x", "labels": [true]}\n', "not an integer"),
        ('{"text": "x", "labels": 3}\n', "must be a list"),
        ('{"text": 5, "labels": []}\n', "must be a string"),
        ('{"labels": []}\n', "expected an object"),
        ('[1, 2]\n', "expected an object"),
        ('{"text": "x", "labels": [0]\n', "invalid JSON"),
        # json raises RecursionError and ValueError here, not JSONDecodeError
        ('{"text": "x", "labels": ' + "[" * 100000 + "]" * 100000 + '}\n',
         "invalid JSON"),
        ('{"text": "x", "labels": [' + "1" * 5000 + ']}\n', "invalid JSON"),
        ('{"text": "\U0001F642 -- ?!", "labels": [0]}\n', "no letter or digit"),
        ('{"text": "___", "labels": [0]}\n', "no letter or digit"),
        ('{"text": "", "labels": [0]}\n', "no letter or digit"),
    ]
    for body, needle in cases:
        q = _write(tmp_path / "bad.jsonl", '{"text": "ok", "labels": [0]}\n'
                   + body)
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(q, l)
        assert needle in str(err.value)
        assert err.value.line == 2 and err.value.path == q


def test_label_file_rejects_empty_lines(tmp_path):
    path = _write(tmp_path / "l.txt", "a\n\nb\n")
    with pytest.raises(DatasetFormatError) as err:
        load_label_texts(path, Vocabulary())
    assert err.value.line == 2


def test_label_file_rejects_lines_without_tokens(tmp_path):
    path = _write(tmp_path / "l.txt", "a\n\U0001F5FC \u2026!\nb\n")
    with pytest.raises(DatasetFormatError) as err:
        load_label_texts(path, Vocabulary())
    assert err.value.line == 2 and err.value.path == path
    assert "no letter or digit" in str(err.value)


def test_tokens_are_unicode_words(tmp_path):
    v = Vocabulary()
    ids = lambda *words: [v.token_id(w) for w in words]
    # ASCII text splits as before: at every character but [0-9a-z]
    assert v.tokenize("Foo-bar_baz9, QUX!").tolist() == ids(
        "foo", "bar", "baz9", "qux")
    labels = _write(tmp_path / "l.txt", "\u6771\u4eac\u30bf\u30ef\u30fc\n"
                    "Caf\u00e9 na\u00efve\n")
    queries = _write(tmp_path / "q.jsonl",
                     '{"text": "\u6771\u4eac\u30bf\u30ef\u30fc \U0001F5FC", '
                     '"labels": [0]}\n'
                     '{"text": "STRA\u00dfE_caf\u00e9", "labels": [1]}\n')
    ds = load_dataset(queries, labels, v)
    tower = "\u6771\u4eac\u30bf\u30ef\u30fc"      # one run of letters
    assert [t.tolist() for t in ds.label_texts] == [
        ids(tower), ids("caf\u00e9", "na\u00efve")]
    assert [t.tolist() for t in ds.instance_texts] == [
        ids(tower), ids("stra\u00dfe", "caf\u00e9")]


def test_combining_marks_stay_in_their_word(tmp_path):
    v = Vocabulary()
    ids = lambda *words: [v.token_id(w) for w in words]
    namaste = "\u0928\u092e\u0938\u094d\u0924\u0947"   # virama, vowel sign
    cafe = "caf\u00e9"                                  # composed
    # Devanagari keeps its marks; a decomposed e + U+0301 becomes the
    # composed word; a mark with no letter before it is no word
    assert v.tokenize(f"{namaste}, \u0928\u092e\u0938\u094d\u0924\u0947!"
                      ).tolist() == ids(namaste, namaste)
    assert v.tokenize("CAFE\u0301 cafe\u0301_x \u0301 e\u0301te\u0301"
                      ).tolist() == ids(cafe, cafe, "x", "\u00e9t\u00e9")
    assert v.tokenize("\u0301\u0903 !").size == 0
    labels = _write(tmp_path / "l.txt", f"{namaste} duniya\ncafe\u0301\n")
    queries = _write(tmp_path / "q.jsonl",
                     f'{{"text": "{namaste}", "labels": [0]}}\n'
                     f'{{"text": "{cafe} noir", "labels": [1]}}\n')
    ds = load_dataset(queries, labels, v)
    assert [t.tolist() for t in ds.label_texts] == [
        ids(namaste, "duniya"), ids(cafe)]
    assert [t.tolist() for t in ds.instance_texts] == [
        ids(namaste), ids(cafe, "noir")]
    with pytest.raises(DatasetFormatError, match="no letter or digit"):
        load_label_texts(_write(tmp_path / "marks.txt", "\u0301\n"), v)


# breaks that str.splitlines() knows and text mode does not
INLINE_BREAKS = pytest.mark.parametrize(
    "char", ["\u2028", "\f", "\x85"], ids=["U+2028", "form_feed", "NEL"])


@INLINE_BREAKS
def test_label_file_breaks_lines_only_at_newlines(tmp_path, char):
    path = _write(tmp_path / "l.txt", f"alpha beta{char}gamma\ndelta\neps\n")
    texts = load_label_texts(path, Vocabulary())
    v = Vocabulary()
    assert [t.tolist() for t in texts] == [
        [v.token_id(w) for w in words]
        for words in (["alpha", "beta", "gamma"], ["delta"], ["eps"])]


@INLINE_BREAKS
def test_jsonl_breaks_lines_only_at_newlines(tmp_path, char):
    l = _write(tmp_path / "l.txt", "a\nb\n")
    q = _write(tmp_path / "q.jsonl", '{"text": "ok", "labels": [0]}\n'
               f'{{"text": "red{char}shoe", "labels": [1]}}\n'
               '{"text": "blue", "labels": [0]}\n')
    if char == "\f":
        # JSON allows no raw control character in a string
        with pytest.raises(DatasetFormatError, match="control character") as err:
            load_dataset(q, l)
        assert err.value.line == 2
        return
    ds = load_dataset(q, l)
    assert [ds.positives(i).tolist() for i in range(3)] == [[0], [1], [0]]
    assert ds.instance_texts[1].tolist() == [ds.vocab.token_id("red"),
                                             ds.vocab.token_id("shoe")]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_loaders_accept_crlf_and_cr_line_endings(tmp_path, newline):
    l, q = tmp_path / "l.txt", tmp_path / "q.jsonl"
    l.write_bytes(newline.join(["shoes", "hats", ""]).encode())
    rows = ['{"text": "red shoe", "labels": [0]}', "",
            '{"text": "blue hat", "labels": [1]}']
    q.write_bytes(newline.join(rows + [""]).encode())
    ds = load_dataset(str(q), str(l))
    assert ds.num_labels == 2
    assert [ds.positives(i).tolist() for i in range(2)] == [[0], [1]]
    # one break per line ending: the blank row is line 2, the bad one line 4
    q.write_bytes(newline.join(rows + ['{"text": "x", "labels": [2]}'])
                  .encode())
    with pytest.raises(DatasetFormatError, match="out of range") as err:
        load_dataset(str(q), str(l))
    assert err.value.line == 4


def test_undecodable_bytes_are_format_errors_with_line_numbers(tmp_path):
    labels = tmp_path / "l.txt"
    labels.write_bytes(b"a\nb\n")
    cases = [
        (b"a\r\nb\xff\nc\n", lambda p: load_label_texts(p, Vocabulary()), 2),
        ("a\u2028b\fc\x85d\re".encode() + b"\xff\n",
         lambda p: load_label_texts(p, Vocabulary()), 2),
        (b'{"text": "a", "labels": [0]}\n\n{"text": "\xc3("}\n',
         lambda p: load_dataset(p, str(labels)), 3),
    ]
    for blob, load, line in cases:
        bad = tmp_path / "bad.txt"
        bad.write_bytes(blob)
        with pytest.raises(DatasetFormatError) as err:
            load(str(bad))
        assert err.value.path == str(bad)
        assert err.value.line == line
        assert "UTF-8" in str(err.value)
