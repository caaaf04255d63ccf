import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import braidkit as bk

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
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(b), capture_output=True, env=env, check=True)
    assert out.stdout.strip() == b"True"
