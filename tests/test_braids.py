import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidkit as bk
from braidkit.action import _canonical_image
from braidkit.braids import _cancel, _compact_word, _triple_rewrites

SRC = Path(__file__).resolve().parents[1] / "src"


def test_make_braid_defaults_to_minimal_strands():
    b = bk.make_braid([1, -2])
    assert b.word == (1, -2)
    assert b.n == 3


def test_make_braid_explicit_strands():
    assert bk.make_braid([1, -2], 4).n == 4


def test_empty_word_is_identity_on_two_strands():
    b = bk.make_braid([])
    assert b.n == 2
    assert str(b) == "< e >"


def test_make_braid_rejects_bad_indices():
    with pytest.raises(ValueError):
        bk.make_braid([0])
    with pytest.raises(ValueError):
        bk.make_braid([3], 3)


def test_bad_letters_report_the_first_one():
    # a word holding both a 0 and an out-of-range letter names whichever
    # comes first, and numpy letters and a default size convert once
    import numpy as np
    for word, msg in [([1, 0, -5, 2], "generator index 0 is not allowed"),
                      ([1, -5, 0, 2], "generator -5 needs more than 3 strands")]:
        with pytest.raises(ValueError, match=f"^{msg}$"):
            bk.make_braid(word, 3)
        with pytest.raises(ValueError, match=f"^{msg}$"):
            bk.make_braid(np.array(word), 3)
    for word, msg in [([0, 4, 1], "generator index 0 is not allowed"),
                      ([4, 0, 1], "generator 4 exceeds 3 annular punctures")]:
        with pytest.raises(ValueError, match=f"^{msg}$"):
            bk.make_annular_braid(word, 3)
    with pytest.raises(ValueError, match="^strand count must be at least 1$"):
        bk.make_braid([], 0)
    # however deep in a long word
    rng = random.Random(4)
    word = [rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(3000)]
    word[2000], word[2500] = -5, 0
    with pytest.raises(ValueError, match=r"^generator -5 needs more than 4 strands$"):
        bk.make_braid(word, 4)
    word[2000] = 3
    with pytest.raises(ValueError, match=r"^generator index 0 is not allowed$"):
        bk.make_braid(word, 4)
    b = bk.make_braid(np.array([2, -4, 1]))
    assert b.n == 5 and b.word == (2, -4, 1) and all(type(w) is int for w in b.word)
    # exact ints are kept as they are; any other letter converts the word
    b = bk.make_braid([1, 1.0, True, np.int64(-2)])
    assert b.word == (1, 1, 1, -2) and all(type(w) is int for w in b.word)
    assert bk.make_braid([]).n == 2 and bk.make_annular_braid([]).nann == 1
    assert bk.make_annular_braid(w for w in [1, -3]).nann == 3


def test_sizes_must_be_integers():
    # a fractional n used to build a braid whose loopcoords failed with a
    # TypeError, a whole float was kept, and a numpy int was stored as one
    import numpy as np
    for make, word, size, field in [(bk.make_braid, [1], 2.5, "n"), (bk.make_braid, [1, 2], 3.0, "n"),
                                    (bk.make_annular_braid, [1], 1.5, "nann")]:
        with pytest.raises(TypeError, match=rf"^{field} must be an integer, got {size}$"):
            make(word, size)
    b = bk.make_braid([1], np.int64(3))
    assert type(b.n) is int and b == bk.make_braid([1], 3) and bk.loopcoords(b) == bk.loopcoords(bk.make_braid([1], 3))
    assert type(bk.make_annular_braid([1], np.int32(2)).nann) is int


def test_mul_matches_word_concatenation():
    a = bk.make_braid([1, -2])
    b = bk.make_braid([1, 2])
    assert str(bk.mul(a, b)) == "< 1 -2 1 2 >"
    assert str(bk.mul(b, a)) == "< 1 2 1 -2 >"


def test_mul_mismatched_strands_is_an_error():
    with pytest.raises(ValueError):
        bk.mul(bk.make_braid([1]), bk.make_braid([2]))


def test_identity_is_neutral():
    a = bk.make_braid([1, -2])
    assert bk.lexeq(bk.mul(bk.identity_braid(3), a), a)


def test_inverse_reverses_and_negates():
    assert str(bk.inverse(bk.make_braid([1, -2]))) == "< 2 -1 >"


def test_power_repeats_word():
    a = bk.make_braid([1, -2])
    assert str(bk.power(a, 5)) == "< 1 -2 1 -2 1 -2 1 -2 1 -2 >"
    assert bk.power(a, 0).word == ()
    assert bk.istrivial(bk.mul(a, bk.power(a, -1)))


def test_equals_word_rewriting_example():
    a = bk.make_braid([1, -2])
    b = bk.make_braid([1, -2, 2, 1, 2, -1, -2, -1])
    assert bk.equals(a, b)


def test_equals_is_reflexive_and_detects_sign():
    b = bk.make_braid([1], 2)
    assert bk.equals(b, b)
    # the generator and its inverse move the canonical loops differently
    assert not bk.equals(bk.make_braid([1], 2), bk.make_braid([-1], 2))


def test_equals_requires_matching_strands():
    with pytest.raises(ValueError):
        bk.equals(bk.make_braid([1], 2), bk.make_braid([1], 3))


def test_lexeq():
    assert bk.lexeq(bk.make_braid([1, -2]), bk.make_braid([1, -2]))
    assert not bk.lexeq(bk.make_braid([1, -2]), bk.make_braid([1, -2, 2, -2]))
    assert not bk.lexeq(bk.make_braid([1], 2), bk.make_braid([1], 3))


def test_istrivial():
    assert bk.istrivial(bk.make_braid([1, -2, 2, -1]))
    assert bk.istrivial(bk.make_braid([]))
    assert not bk.istrivial(bk.make_braid([1, 1]))


def test_compact_cancels_identity_word():
    assert str(bk.compact(bk.make_braid([1, -2, 2, -1]))) == "< e >"
    assert str(bk.compact(bk.identity_braid(3))) == "< e >"


def test_compact_commutes_to_cancel():
    b = bk.make_braid([1, 3, -1])
    c = bk.compact(b)
    assert len(c) == 1
    assert bk.equals(c, bk.make_braid([3], 4))


def test_compact_never_lengthens_and_preserves_equality():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(2, 6)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 14))]
        b = bk.make_braid(word, n)
        c = bk.compact(b)
        assert len(c) <= len(b)
        assert bk.equals(b, c)


def test_perm_fixture():
    assert bk.perm(bk.make_braid([1, 2, -3])) == (2, 3, 4, 1)


def test_perm_fourth_power_is_pure():
    a = bk.make_braid([1, 2, -3])
    assert bk.perm(bk.power(a, 4)) == (1, 2, 3, 4)
    assert bk.ispure(bk.power(a, 4))
    assert bk.perm(bk.identity_braid(5)) == (1, 2, 3, 4, 5)


def test_perm_is_antihomomorphism_under_word_order():
    rng = random.Random(1)

    def compose(p, q):
        # strand ending at j under "first p then q"
        return tuple(p[q[j] - 1] for j in range(len(p)))

    for _ in range(50):
        n = rng.randint(2, 6)
        wa = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))]
        wb = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))]
        a, b = bk.make_braid(wa, n), bk.make_braid(wb, n)
        assert bk.perm(bk.mul(a, b)) == compose(bk.perm(a), bk.perm(b))


def test_writhe():
    assert bk.writhe(bk.make_braid([1, 2, -3])) == 1
    assert bk.writhe(bk.identity_braid(4)) == 0
    rng = random.Random(2)
    for _ in range(20):
        word = [rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(10)]
        b = bk.make_braid(word, 5)
        assert bk.writhe(bk.inverse(b)) == -bk.writhe(b)
        assert bk.writhe(bk.compact(b)) == bk.writhe(b)


def test_subbraid_fixture():
    a = bk.make_braid([1, 2, -3])
    assert str(bk.subbraid(a, [1, 2, 4])) == "< 1 -2 >"


def test_subbraid_of_power_fixture():
    a = bk.make_braid([1, 2, -3])
    b2 = bk.subbraid(bk.power(a, 4), [1, 2, 4])
    assert str(b2) == "< 1 -2 1 -2 1 2 >"


def test_subbraid_full_and_errors():
    b = bk.make_braid([1, 2, -3])
    assert bk.lexeq(bk.subbraid(b, [1, 2, 3, 4]), b)
    assert len(bk.subbraid(b, [2, 3])) <= len(b)
    with pytest.raises(ValueError):
        bk.subbraid(b, [])
    with pytest.raises(ValueError):
        bk.subbraid(b, [0, 1])


def test_tensor_fixture():
    a = bk.make_braid([1, 2, -3])
    b = bk.make_braid([1, -2])
    t = bk.tensor(a, b)
    assert str(t) == "< 1 2 -3 5 -6 >"
    assert t.n == 7
    assert bk.writhe(t) == bk.writhe(a) + bk.writhe(b)
    e = bk.tensor(bk.identity_braid(2), bk.identity_braid(3))
    assert bk.lexeq(e, bk.identity_braid(5))


def test_random_braid():
    b = bk.random_braid(5, 10, seed=7)
    assert len(b) == 10
    assert b.n == 5
    assert all(1 <= abs(w) <= 4 for w in b.word)
    assert bk.lexeq(bk.random_braid(5, 10, seed=7), b)
    assert bk.lexeq(bk.random_braid(4, 0, seed=1), bk.identity_braid(4))
    with pytest.raises(ValueError):
        bk.random_braid(1, 3)


def test_halftwist_fixture():
    assert str(bk.halftwist(5)) == "< 4 3 2 1 4 3 2 4 3 4 >"
    assert str(bk.halftwist(2)) == "< 1 >"
    with pytest.raises(ValueError):
        bk.halftwist(1)


def test_fulltwist_is_pure_and_central():
    for n in range(2, 7):
        ft = bk.fulltwist(n)
        assert bk.ispure(ft)
    ft = bk.fulltwist(4)
    g = bk.make_braid([2], 4)
    assert bk.equals(bk.mul(ft, g), bk.mul(g, ft))


def test_group_laws_on_random_triples():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 5)
        words = [
            [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))]
            for _ in range(3)
        ]
        a, b, c = (bk.make_braid(w, n) for w in words)
        assert bk.lexeq(bk.mul(bk.mul(a, b), c), bk.mul(a, bk.mul(b, c)))
        assert bk.istrivial(bk.mul(a, bk.inverse(a)))


def test_annular_braid_counts():
    ab = bk.make_annular_braid([1, 2, -3])
    assert ab.n == 4
    assert ab.nann == 3
    assert str(ab) == "< 1 2 -3 >*"


def test_annular_low_generators_map_to_standard():
    for nann in range(2, 6):
        for i in range(1, nann):
            ab = bk.AnnularBraid(word=(i,), nann=nann)
            assert bk.lexeq(ab.to_braid(), bk.make_braid([i], nann + 1))


def test_annular_ring_generator_word():
    ab = bk.AnnularBraid(word=(2,), nann=2)
    assert ab.to_braid().word == (2, 2, 1, -2, -2)
    ring = bk.AnnularBraid(word=(3,), nann=3)
    assert ring.to_braid().word == (3, 3, 2, 1, -2, -3, -3)
    inv = bk.AnnularBraid(word=(-3,), nann=3)
    assert bk.istrivial(bk.mul(ring.to_braid(), inv.to_braid()))


def test_annular_conversion_preserves_equality_classes():
    a = bk.make_annular_braid([1, -1, 2])
    b = bk.make_annular_braid([2])
    assert a == b


def test_annular_ring_generator_example():
    ab = bk.make_annular_braid([3], nann=3)
    assert bk.perm(ab) == (3, 2, 1, 4)
    assert bk.subbraid(ab, [1, 2, 3]).word == (2, 1, -2)
    inv = bk.inverse(ab)
    assert isinstance(inv, bk.AnnularBraid) and inv.word == (-3,) and inv.nann == 3
    assert bk.istrivial(ab * inv)
    sq = bk.power(ab, -2)
    assert isinstance(sq, bk.AnnularBraid) and sq.word == (-3, -3)
    assert bk.writhe(bk.make_annular_braid([1], nann=1)) == 2
    assert not bk.equals(ab, bk.make_braid([3], 4))
    assert bk.equals(ab, ab.to_braid())


@pytest.mark.parametrize("nann", [1, 2, 3, 4])
def test_annular_ops_agree_with_converted_braid(nann):
    rng = random.Random(nann)
    for _ in range(30):
        word = [rng.choice([1, -1]) * rng.randint(1, nann) for _ in range(rng.randint(0, 8))]
        ab = bk.make_annular_braid(word, nann)
        b = ab.to_braid()
        assert bk.perm(ab) == bk.perm(b)
        assert bk.ispure(ab) == bk.ispure(b)
        assert bk.writhe(ab) == bk.writhe(b)
        keep = sorted(rng.sample(range(1, nann + 2), rng.randint(1, nann + 1)))
        assert bk.lexeq(bk.subbraid(ab, keep), bk.subbraid(b, keep))
        for k in (-2, -1, 0, 3):
            p = bk.power(ab, k)
            assert isinstance(p, bk.AnnularBraid) and p.nann == nann
            assert bk.equals(p.to_braid(), bk.power(b, k))
        assert bk.inverse(ab) == bk.power(ab, -1)
        other = bk.make_annular_braid([rng.choice([1, -1]) * rng.randint(1, nann) for _ in range(3)], nann)
        prod = ab * other
        assert isinstance(prod, bk.AnnularBraid) and prod.word == ab.word + other.word
        assert bk.lexeq(prod.to_braid(), bk.mul(b, other.to_braid()))
        assert bk.lexeq(bk.mul(ab, b), bk.mul(b, b))
        assert bk.lexeq(bk.tensor(ab, other), bk.tensor(b, other.to_braid()))
        assert bk.burau(ab) == bk.burau(b)
        assert bk.alexander(ab) == bk.alexander(b)
        svg = bk.render_braid(ab)
        assert _CROSSING.findall(svg) == _CROSSING.findall(bk.render_braid(b))
        center = re.findall(rf'class="strand strand-{nann + 1}" points="[^"]*" fill="none" stroke="([^"]*)"', svg)
        assert center and set(center) == {"#2a7f3f"}


_CROSSING = re.compile(r'<circle class="crossing[^>]*>')


def test_display_and_json_round_trip():
    b = bk.make_braid([1, -2], 4)
    data = b.to_json()
    assert data == {"n": 4, "word": [1, -2], "annular": False}
    assert bk.lexeq(bk.braid_from_json(data), b)
    ab = bk.make_annular_braid([1, 2, -3])
    back = bk.braid_from_json(ab.to_json())
    assert isinstance(back, bk.AnnularBraid)
    assert back.word == ab.word and back.nann == ab.nann


def test_embed_keeps_word():
    b = bk.make_braid([1, -2])
    wide = bk.embed(b, 6)
    assert wide.n == 6 and wide.word == b.word
    with pytest.raises(ValueError):
        bk.embed(b, 2)


def test_annular_compact_respects_ring_generator():
    # the ring generator only cancels against its own inverse; the moving
    # generators follow the standard rules
    ab = bk.make_annular_braid([3, -3, 1, 2, -2], nann=3)
    out = bk.compact(ab)
    assert isinstance(out, bk.AnnularBraid)
    assert out.word == (1,)
    assert out == ab
    # no commutation through the ring generator
    stuck = bk.make_annular_braid([1, 3, -1], nann=3)
    assert len(bk.compact(stuck).word) == 3


def test_hash_agrees_with_equality():
    # braid relations give equal braids with different words
    pairs = [
        ([1, 2, 1], [2, 1, 2]),
        ([1, 3], [3, 1]),
        ([1, -1, 2], [2]),
        ([2, 1, 2, -1], [1, 2]),
    ]
    for wa, wb in pairs:
        a, b = bk.make_braid(wa, 4), bk.make_braid(wb, 4)
        assert a == b and hash(a) == hash(b)
    ring = bk.make_annular_braid([1, -2, 2], nann=3)
    assert ring == bk.make_annular_braid([1], nann=3)
    assert hash(ring) == hash(bk.make_annular_braid([1], nann=3))
    # distinct braids on the same strands no longer share one hash
    assert len({hash(bk.make_braid([k], 5)) for k in (1, 2, 3, 4, -1, -2)}) == 6


def test_hash_ignores_action_direction():
    a, b = bk.make_braid([1, 2, 1, -3]), bk.make_braid([2, 1, 2, -3])
    before = hash(bk.make_braid(a.word))
    bk.set_prop("GenLoopActDir", "rl")
    try:
        assert a == b and hash(a) == hash(b) == before
    finally:
        bk.set_prop("GenLoopActDir", "lr")


def test_set_dedupes_like_pairwise_equality():
    rng = random.Random(21)
    braids = []
    for _ in range(300):
        n = rng.randint(3, 4)
        braids.append(bk.make_braid([rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))], n))
    # planted duplicates: free insertions and a commutation
    braids += [bk.make_braid(list(b.word) + [1, -1], b.n) for b in braids[:40]]
    braids += [bk.make_braid([1, 3] + list(b.word), 4) for b in braids[:20] if b.n == 4]
    braids += [bk.make_braid([3, 1] + list(b.word), 4) for b in braids[:20] if b.n == 4]
    reps = []
    for b in braids:
        if not any(r.n == b.n and r == b for r in reps):
            reps.append(b)
    assert len(set(braids)) == len(reps)


def test_hash_survives_pickling_into_another_process():
    b = bk.make_braid([2, 1, 2], 3)
    hash(b)  # cached on the instance, so it travels with the pickle
    code = (
        "import pickle, sys; b = pickle.loads(sys.stdin.buffer.read()); "
        "print(hash(b) == hash(type(b)(b.word, b.n)))"
    )
    env = {"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "random"}
    out = subprocess.run([sys.executable, "-B", "-c", code], input=pickle.dumps(b), capture_output=True, env=env, check=True)
    assert out.stdout.strip() == b"True"


# ------------------------------------------- compact vs the former rescan loops


def _std_commutes(x, y):
    return abs(abs(x) - abs(y)) > 1


def _free_reduce(word):
    out = []
    for w in word:
        if out and out[-1] == -w:
            out.pop()
        else:
            out.append(w)
    return out


def _commuting_cancellation(word, commutes):
    """Delete a pair w[k] == -w[l] when everything between commutes with w[k]."""
    for k in range(len(word)):
        wk = word[k]
        for l in range(k + 1, len(word)):
            if word[l] == -wk:
                return word[:k] + word[k + 1 : l] + word[l + 1 :]
            if not commutes(word[l], wk):
                break
    return None


def _triple_rewrites_ref(x, y, z):
    if abs(abs(x) - abs(y)) != 1:
        return ()
    same_sign = (x > 0) == (y > 0)
    if z == x and same_sign:
        return ((y, x, y),)
    if z == -x:
        if same_sign:
            return ((-y, x, y),)
        return ((y, -x, -y),)
    return ()


def _reduce_pass(word, commutes):
    """The former cancellation: rescan from the start after every deletion."""
    word = _free_reduce(word)
    while True:
        shorter = _commuting_cancellation(word, commutes)
        if shorter is None:
            return word
        word = _free_reduce(shorter)


def _compact_word_ref(word, ring):
    """The former compact: restart the rewrite scan at window 0 after every
    kept rewrite."""

    def commutes(x, y):
        return abs(x) < ring and abs(y) < ring and _std_commutes(x, y)

    word = _reduce_pass(list(word), commutes)
    improved = True
    while improved:
        improved = False
        for k in range(len(word) - 2):
            x, y, z = word[k], word[k + 1], word[k + 2]
            if not (abs(x) < ring and abs(y) < ring):
                continue
            for rep in _triple_rewrites_ref(x, y, z):
                cand = _reduce_pass(word[:k] + list(rep) + word[k + 3 :], commutes)
                if len(cand) < len(word):
                    word = cand
                    improved = True
                    break
            if improved:
                break
    return word


def _cancel_rescan(word, ring):
    """Reference: delete the first cancelling pair under the annular rule,
    then rescan from the start.  Returns the indices of the survivors."""
    idx, word = list(range(len(word))), list(word)
    changed = True
    while changed:
        changed = False
        for k in range(len(word)):
            for l in range(k + 1, len(word)):
                if word[l] == -word[k]:
                    del word[l], idx[l], word[k], idx[k]
                    changed = True
                    break
                if abs(word[k]) >= ring or abs(word[l]) >= ring or not _std_commutes(word[k], word[l]):
                    break
            if changed:
                break
    return idx


_annular_words = st.integers(1, 6).flatmap(
    lambda nann: st.tuples(st.just(nann), st.lists(st.integers(-nann, nann).filter(bool), max_size=40))
)


@settings(max_examples=400, deadline=None)
@given(case=_annular_words)
def test_cancel_with_ring_matches_rescan_loop(case):
    nann, word = case
    assert _cancel(word, nann) == _cancel_rescan(word, nann)


@settings(max_examples=400, deadline=None)
@given(case=_annular_words, annular=st.booleans())
def test_cancel_leaves_the_length_of_the_rescan_pass(case, annular):
    # the two may delete different copies of a letter, never a different number
    nann, word = case
    ring = nann if annular else nann + 1

    def commutes(x, y):
        return abs(x) < ring and abs(y) < ring and _std_commutes(x, y)

    assert len(_cancel(word, ring)) == len(_reduce_pass(word, commutes))


def _assert_no_rewrite_shortens(word, ring):
    assert _cancel(word, ring) == list(range(len(word)))
    for k in range(len(word) - 2):
        if abs(word[k]) >= ring or abs(word[k + 1]) >= ring:
            continue
        for rep in _triple_rewrites_ref(word[k], word[k + 1], word[k + 2]):
            cand = word[:k] + list(rep) + word[k + 3 :]
            assert len(_cancel(cand, ring)) >= len(word), (word, k, rep)


def test_compact_output_is_a_fixed_point_of_one_rewrite():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(2, 7)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 80))]
        if rng.random() < 0.3:
            ab = bk.make_annular_braid(word, n - 1)
            out = bk.compact(ab)
            assert isinstance(out, bk.AnnularBraid) and out == ab
            _assert_no_rewrite_shortens(list(out.word), n - 1)
        else:
            b = bk.make_braid(word, n)
            out = bk.compact(b)
            assert bk.equals(out, b) and len(out) <= len(b)
            _assert_no_rewrite_shortens(list(out.word), n)


def test_annular_compact_matches_former_compact():
    rng = random.Random(31)
    identical = 0
    for _ in range(400):
        nann = rng.randint(1, 6)
        word = [rng.choice([1, -1]) * rng.randint(1, nann) for _ in range(rng.randint(0, 20))]
        ab = bk.make_annular_braid(word, nann)
        out = bk.compact(ab)
        ref = _compact_word_ref(word, nann)
        assert out == ab and abs(len(out.word) - len(ref)) <= 2
        identical += list(out.word) == ref
    # the two cancellations can delete different copies of a letter, and the
    # rewrite scan resumes at k - 2 rather than 0, so a few words settle on
    # another word; 398 of these 400 come out identical
    assert identical >= 390


def _equal_and_unequal_pairs(rng, count):
    """Word pairs on ``n`` strands, with whether they are the same braid:
    a free insertion or a braid relation keeps the braid, an appended
    generator changes it."""
    pairs = []
    for _ in range(count):
        n = rng.randint(3, 6)
        w = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))]
        k = rng.randint(1, n - 1)
        at = rng.randint(0, len(w))
        pairs.append((n, w, w[:at] + [k, -k] + w[at:], True))
        i = rng.randint(1, n - 2)
        pairs.append((n, w + [i, i + 1, i], w + [i + 1, i, i + 1], True))
        pairs.append((n, w, w + [rng.choice([1, -1]) * k], False))
    return pairs


@pytest.mark.parametrize("direction", ["lr", "rl"])
def test_equals_is_the_same_in_both_action_directions(direction):
    pairs = _equal_and_unequal_pairs(random.Random(33), 60)
    bk.set_prop("GenLoopActDir", direction)
    try:
        for n, u, v, same in pairs:
            a, b = bk.make_braid(u, n), bk.make_braid(v, n)
            # loopcoords reads the configured direction; equality must not
            assert (bk.loopcoords(a) == bk.loopcoords(b)) is same
            assert bk.equals(a, b) is same and (a == b) is same
            assert bk.istrivial(bk.mul(a, bk.inverse(b))) is same
    finally:
        bk.set_prop("GenLoopActDir", "lr")


def test_set_of_planted_duplicates_computes_one_key_per_braid(monkeypatch):
    rng = random.Random(8)
    braids = [bk.make_braid([rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(0, 8))], 4) for _ in range(50)]
    braids += [bk.make_braid([2, -2] + list(b.word), 4) for b in braids[:25]]
    braids += [bk.make_braid(list(b.word) + [1, 3, -1, -3], 4) for b in braids[:25]]
    keyed = []
    real = _canonical_image

    def counted(gens, n):
        keyed.append(gens)
        return real(gens, n)

    monkeypatch.setattr("braidkit.action._canonical_image", counted)
    unique = set(braids)
    assert len(keyed) == len(braids)
    reps = []
    for b in braids[:50]:
        if not any(r == b for r in reps):
            reps.append(b)
    # the duplicates collapse, and == and a second set() read the cached keys
    assert len(unique) == len(reps) == len(set(braids))
    assert len(keyed) == len(braids)


def _flip_two(rng, word):
    """Negate one positive and one negative letter: the writhe and the
    permutation stay, and the braid usually changes."""
    w = list(word)
    for sign in (1, -1):
        w[rng.choice([k for k, x in enumerate(w) if x * sign > 0])] *= -1
    return w


def _writhe_pairs(rng, count):
    """Word pairs of equal writhe and equal permutation on ``n`` strands that
    are different braids, proved by their exact Burau matrices at t = 2."""
    pairs = []
    while len(pairs) < count:
        n = rng.randint(3, 7)
        u = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(2, 40))]
        if min(u) > 0 or max(u) < 0:
            continue
        v = _flip_two(rng, u)
        if bk.burau(bk.make_braid(u, n), 2) != bk.burau(bk.make_braid(v, n), 2):
            pairs.append((n, u, v))
    return pairs


def test_equals_rejects_unequal_writhe_without_computing_keys():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 6)
        u = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 30))]
        k = rng.randrange(len(u))
        for a, b in ((bk.make_braid(u, n), bk.make_braid(u[:k] + [-u[k]] + u[k + 1 :], n)),
                     (bk.make_annular_braid(u, n - 1), bk.make_braid(u, n)),
                     (bk.make_braid(u, n), bk.make_braid(u + [1], n))):
            if bk.writhe(a) == bk.writhe(b):
                continue
            assert not bk.equals(a, b) and not bk.equals(b, a)
            assert "_canonical" not in a.__dict__ and "_canonical" not in b.__dict__


def test_equals_with_equal_writhe_falls_through_to_the_key():
    for n, u, v in _writhe_pairs(random.Random(18), 40):
        a, b = bk.make_braid(u, n), bk.make_braid(v, n)
        assert bk.writhe(a) == bk.writhe(b) and bk.perm(a) == bk.perm(b)
        assert not bk.equals(a, b) and a != b
        assert "_canonical" in a.__dict__ and "_canonical" in b.__dict__
        # an equal pair reaches the key too
        c = bk.make_braid(u[:1] + [1, -1] + u[1:], n)
        assert bk.equals(a, c) and "_canonical" in c.__dict__


def test_equals_skips_the_writhe_when_both_keys_are_cached(monkeypatch):
    a, b, c = bk.make_braid([1, -2, 1], 3), bk.make_braid([1, 2, -2, -2, 1], 3), bk.make_braid([1, 2], 3)
    assert hash(a) == hash(b) and hash(c) != hash(a)

    def forbidden(b):
        raise AssertionError("writhe read with both keys cached")

    monkeypatch.setattr("braidkit.braids.writhe", forbidden)
    assert bk.equals(a, b) and a == b and len({a, b, c}) == 2
    assert not bk.equals(a, c) and a != c
    with pytest.raises(AssertionError):
        bk.equals(a, bk.make_braid([2, 1], 3))


@pytest.mark.parametrize("direction", ["lr", "rl"])
def test_equals_on_mixed_braid_and_annular_pairs(direction):
    bk.set_prop("GenLoopActDir", direction)
    try:
        for n, u, v in _writhe_pairs(random.Random(19), 30):
            a, b = bk.make_annular_braid(u, n - 1), bk.make_annular_braid(v, n - 1)
            assert bk.writhe(a) == bk.writhe(b)
            same = bk.equals(a, b)
            if bk.burau(a, 2) != bk.burau(b, 2):  # proves different braids
                assert not same
            for x, y in ((a, b.to_braid()), (a.to_braid(), b)):
                assert bk.equals(x, y) is same and bk.equals(y, x) is same
            assert bk.equals(a, a.to_braid()) and bk.equals(bk.make_braid(list(b.to_braid().word) + [1, -1], n), b)
            assert not bk.equals(a, bk.make_braid(list(a.to_braid().word) + [1], n))
    finally:
        bk.set_prop("GenLoopActDir", "lr")


def test_equals_rewrites_each_annular_braid_once(monkeypatch):
    rewrites = []
    real = bk.AnnularBraid.to_braid

    def counted(self):
        rewrites.append(self.word)
        return real(self)

    monkeypatch.setattr(bk.AnnularBraid, "to_braid", counted)
    a, b = bk.make_annular_braid([1, 3, -2], 3), bk.make_annular_braid([1, 3, -2, 3, -3], 3)
    # writhe, the key and later operations share one rewrite per instance
    assert bk.equals(a, b) and len(rewrites) == 2
    assert bk.writhe(a) == 1 and bk.burau(a) == bk.burau(b) and bk.perm(a) == bk.perm(b)
    assert len(rewrites) == 2


def test_istrivial_rejects_nonzero_writhe_before_any_key():
    rng = random.Random(20)
    for _ in range(30):
        n = rng.randint(2, 6)
        w = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 9))]
        conj = [-x for x in reversed(w)]
        for b in (bk.make_braid(w + [1] + conj, n), bk.make_annular_braid(w + [n - 1] + conj, n - 1)):
            assert bk.writhe(b) != 0
            assert not bk.istrivial(b) and "_canonical" not in b.__dict__
        # trivial words scrambled by a conjugated braid relation and a free
        # pair; the annular ring generator n - 1 takes part in no relation
        k = rng.randint(1, n - 1)
        t = w + ([1, 2, 1, -2, -1, -2] if n > 2 else []) + conj
        t[rng.randint(0, len(t)) : 0] = [k, -k]
        assert bk.istrivial(bk.make_braid(t, n))
        assert bk.istrivial(bk.make_annular_braid(w + [k, -k] + conj, n - 1))


# ------------------------------------- compact vs re-cancelling the whole word


def _compact_word_recancel(word, ring):
    """The former ``_compact_word``: every try copies the word and cancels
    all of it."""

    def cancelled(w):
        return [w[m] for m in _cancel(w, ring)]

    word = cancelled(word)
    improved = True
    while improved:
        improved = False
        k = 0
        while k < len(word) - 2:
            for rep in _triple_rewrites(word[k], word[k + 1], word[k + 2], ring):
                cand = cancelled(word[:k] + list(rep) + word[k + 3 :])
                if len(cand) < len(word):
                    word, improved, k = cand, True, max(k - 2, 0)
                    break
            else:
                k += 1
    return word


def _drawn_word(rng, top, L, span):
    """``L`` letters up to ``top`` in size; a ``span`` below ``top - 1``
    draws them from ``span + 1`` adjacent indices, where rewrites and
    cascades of cancellations are frequent."""
    lo = rng.randint(1, top - span) if span < top - 1 else 1
    hi = min(top, lo + span)
    return [rng.choice([1, -1]) * rng.randint(lo, hi) for _ in range(L)]


@settings(max_examples=120, deadline=None)
@given(n=st.integers(2, 12), L=st.integers(0, 2000) | st.integers(1500, 2000), seed=st.integers(0, 2**32 - 1),
       span=st.integers(1, 11), annular=st.booleans())
def test_compact_matches_the_whole_word_recancelling_reference(n, L, seed, span, annular):
    # annular words on n - 1 punctures use the ring generator n - 1
    ring = n - 1 if annular and n > 2 else n
    word = _drawn_word(random.Random(seed), n - 1, L, span)
    assert _compact_word(list(word), ring) == _compact_word_recancel(word, ring)


@settings(max_examples=300, deadline=None)
@given(case=_annular_words, annular=st.booleans())
def test_compact_matches_the_reference_on_short_words(case, annular):
    nann, word = case
    ring = nann if annular else nann + 1
    assert _compact_word(list(word), ring) == _compact_word_recancel(word, ring)


def test_compact_cascades_across_the_rewritten_window():
    # 2 1 2 becomes 1 2 1, whose last letter cancels the -1 after it; that
    # frees 2 -2, then 1 -1 left of the window, then the outer -3 and 3
    word = [-3, 2, 1, 2, -1, -2, -1, 3]
    assert _compact_word(list(word), 4) == _compact_word_recancel(word, 4) == []
    ab = bk.make_annular_braid(word, 3)  # 3 is the ring generator
    assert bk.compact(ab).word == tuple(_compact_word_recancel(word, 3)) == ()


# --------------------------------------------------- the free-group oracle


def _artin_images(b):
    """Images of the free generators ``x_1 .. x_n`` under Artin's action of
    the braid on the free group F_n, freely reduced; ``sigma_i`` sends
    ``x_i`` to ``x_i x_(i+1) x_i^-1`` and ``x_(i+1)`` to ``x_i``.  The action
    is faithful (Artin 1925), so two braids are equal exactly when their
    images are, independently of the loop coordinates ``equals`` reads."""
    b = b.to_braid() if isinstance(b, bk.AnnularBraid) else b
    images = [(k,) for k in range(1, b.n + 1)]
    for g in b.word:
        i = abs(g)
        sub = {i: (i, i + 1, -i), i + 1: (i,)} if g > 0 else {i: (i + 1,), i + 1: (-i - 1, i, i + 1)}
        new = []
        for image in images:
            out = []
            for x in image:
                piece = sub.get(abs(x), (abs(x),))
                for y in piece if x > 0 else [-y for y in reversed(piece)]:
                    if out and out[-1] == -y:
                        out.pop()
                    else:
                        out.append(y)
            new.append(tuple(out))
        images = new
    return b.n, tuple(images)


def test_artin_images_separate_the_relations():
    def same(u, v, n):
        return _artin_images(bk.make_braid(u, n)) == _artin_images(bk.make_braid(v, n))

    assert same([1, 2, 1], [2, 1, 2], 3) and same([1, 3], [3, 1], 4) and same([2, -2], [], 3)
    assert not same([1, 2], [2, 1], 3) and not same([1], [-1], 2) and not same([1, 1], [], 2)


def test_compact_output_is_the_same_braid_under_the_artin_action():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(2, 7)
        word = _drawn_word(rng, n - 1, rng.randint(0, 16), rng.randint(1, n))
        b = bk.make_braid(word, n) if rng.random() < 0.6 else bk.make_annular_braid(word, n - 1)
        out = bk.compact(b)
        assert type(out) is type(b) and len(out.word) <= len(word)
        assert _artin_images(out) == _artin_images(b)


def _same_writhe_and_perm_pairs(rng, count):
    """Braid pairs on 3-6 strands, annular on 2-5 punctures, that share
    writhe and permutation: conjugates ``x w x^-1`` against ``w``, words
    changed by a braid relation, and ``w`` against ``w`` times the pure
    commutator of ``sigma_i^2`` and ``sigma_(i+1)^2``."""
    pairs = []
    while len(pairs) < count:
        n = rng.randint(3, 6)
        make = bk.make_braid if rng.random() < 0.7 else (lambda w, n: bk.make_annular_braid(w, n - 1))
        w = _drawn_word(rng, n - 1, rng.randint(0, 10), n)
        x = _drawn_word(rng, n - 1, rng.randint(1, 2), n)
        i = rng.randint(1, n - 2)
        at = rng.randint(0, len(w))
        for u, v in ((x + w + [-g for g in reversed(x)], w),
                     (w[:at] + [i, i + 1, i] + w[at:], w[:at] + [i + 1, i, i + 1] + w[at:]),
                     (w + [i, i, i + 1, i + 1, -i, -i, -i - 1, -i - 1], w)):
            a, b = make(u, n), make(v, n)
            if bk.writhe(a) == bk.writhe(b) and bk.perm(a) == bk.perm(b):
                pairs.append((a, b))
    return pairs


def test_equals_hash_and_set_agree_with_the_artin_action():
    pairs = _same_writhe_and_perm_pairs(random.Random(29), 240)
    outcomes = set()
    for a, b in pairs:
        same = _artin_images(a) == _artin_images(b)
        outcomes.add(same)
        assert bk.equals(a, b) is same and (a == b) is same and (b == a) is same
        if same:
            assert hash(a) == hash(b)
    assert outcomes == {True, False}
    braids = [x for pair in pairs for x in pair]
    classes = {(type(x), _artin_images(x)) for x in braids}
    assert len(set(braids)) == len(classes)
