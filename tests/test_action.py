import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidkit as bk
from braidkit import action
from braidkit.action import _fits, _update
from braidkit.config import properties
from braidkit.linalg import _pack, _slot_bits, _unpack
from braidkit.linalg import det_exact


def rand_loop(rng, m, span=10):
    return bk.make_loop([rng.randint(-span, span) for _ in range(2 * m)])


def rand_word(rng, n, maxlen=10):
    return [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, maxlen))]


def test_apply_generator_fixture():
    l = bk.make_loop([-1, 1, -2, 0, -1, 0])
    assert bk.apply_generator(l, 1, -1).coords == (-1, 1, -2, 1, -1, 0)


def test_apply_generator_inverse_cancels():
    rng = random.Random(0)
    for _ in range(200):
        m = rng.randint(1, 6)
        l = rand_loop(rng, m)
        i = rng.randint(1, m + 1)
        assert bk.apply_generator(bk.apply_generator(l, i, 1), i, -1) == l
        assert bk.apply_generator(bk.apply_generator(l, i, -1), i, 1) == l


def test_apply_generator_range_check():
    # apply_generator is the one path that checks a generator against the
    # loop before the kernel runs; a word reaches the kernel only through a
    # Braid, whose letter check test_braids covers
    l = bk.make_loop([0, -1])
    with pytest.raises(ValueError):
        bk.apply_generator(l, 3, 1)
    with pytest.raises(ValueError):
        bk.apply_generator(l, 0, 1)
    l = bk.make_loop([0, 0, 0, -1, -1, -1])
    for i, sign, k in ((5, -1, -5), (0, 1, 0), (9, 1, 9)):
        with pytest.raises(ValueError, match=rf"^generator index {k} out of range for 5 punctures$"):
            bk.apply_generator(l, i, sign)
    assert [bk.apply_generator(l, i, s) for i in range(1, 5) for s in (1, -1)] == [
        bk.act(bk.make_braid([s * i], 5), l) for i in range(1, 5) for s in (1, -1)
    ]


def test_act_fixture_and_word_split():
    b = bk.make_braid([1, -2])
    l = bk.make_loop([0, -1])
    assert bk.act(b, l).coords == (1, -1)
    # first word entry acts first
    step = bk.apply_generator(l, 1, 1)
    assert bk.apply_generator(step, 2, -1) == bk.act(b, l)


def test_act_batch_fixture():
    b = bk.make_braid([1, -2])
    out = bk.act(b, bk.make_loop([[-1, 1, -2, 0], [1, -2, 3, 4]]))
    assert out[0].coords == (2, 1, -2, 1)
    assert out[1].coords == (5, -2, -3, 11)


def test_act_identity_and_compat():
    l = bk.make_loop([3, -1, 2, 5])
    assert bk.act(bk.identity_braid(4), l) == l
    with pytest.raises(ValueError):
        bk.act(bk.make_braid([4], 5), l)
    with pytest.raises(ValueError):
        bk.act(bk.make_braid([3], 4), bk.canonical_loop(3, basepoint=True))


def test_act_direction_property():
    props = properties()
    b = bk.make_braid([1, -2])
    l = bk.make_loop([0, -1])
    forward = bk.act(b, l)
    props.gen_loop_act_dir = "rl"
    try:
        reversed_order = bk.act(b, l)
    finally:
        props.gen_loop_act_dir = "lr"
    expected = bk.apply_generator(bk.apply_generator(l, 2, -1), 1, 1)
    assert reversed_order == expected
    assert forward != reversed_order


def test_act_with_matrix_fixture():
    b = bk.make_braid([1, -2])
    image, M = bk.act_with_matrix(b, bk.make_loop([0, -1]))
    assert image.coords == (1, -1)
    assert M.entries == ((1, -1), (0, 1))


def test_act_with_matrix_canonical_fixture():
    b = bk.make_braid([1, -2])
    _, M = bk.act_with_matrix(b, bk.canonical_loop(3, basepoint=True))
    assert M.entries == ((0, 0, -1, 0), (0, 1, 0, 1), (0, 1, 1, 1), (1, -1, -1, 0))


def test_act_with_matrix_identity():
    _, M = bk.act_with_matrix(bk.identity_braid(4), bk.canonical_loop(4, basepoint=True))
    d = M.dim
    assert M.entries == tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def test_act_with_matrix_consistency():
    # exactness of M @ coords == image must hold even on boundary-rich
    # small-coordinate loops
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(2, 8)
        b = bk.make_braid(rand_word(rng, n), n)
        l = rand_loop(rng, rng.randint(max(1, n - 2), n + 1))
        image, M = bk.act_with_matrix(b, l)
        assert M.apply(l.coords) == image.coords


def test_act_with_matrix_unimodular_on_generic_loops():
    # the resolved branch matrix lies in SL(2N-4, Z) up to sign whenever the
    # loop sits inside an open linear region; large random coordinates make
    # boundary hits (where the piecewise-linear branches are ambiguous)
    # essentially impossible
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(2, 8)
        b = bk.make_braid(rand_word(rng, n), n)
        l = rand_loop(rng, rng.randint(max(1, n - 2), n + 1), span=10**6)
        _, M = bk.act_with_matrix(b, l)
        assert abs(det_exact(M.entries)) == 1


def test_loopcoords_fixture_and_identity():
    assert str(bk.loopcoords(bk.make_braid([1, 2, 3, -4]))) == "(( 0 0 3 -1 -1 -1 -4 3 ))*"
    assert bk.loopcoords(bk.identity_braid(5)) == bk.canonical_loop(5, basepoint=True)


def test_loopcoords_distinguishes_short_braids():
    rng = random.Random(17)
    catalog = {}
    while len(catalog) < 100:
        n = rng.randint(2, 5)
        b = bk.make_braid(rand_word(rng, n, 6), 5)
        key = (bk.loopcoords(b).coords, b.n)
        if key not in catalog:
            catalog[key] = b
    # distinct normal forms stay pairwise distinct, and braids that collided
    # on their normal form agree on the cheap invariants
    assert len({k for k in catalog}) == 100
    for key, b in catalog.items():
        other = bk.make_braid(list(b.word), b.n)
        assert (bk.loopcoords(other).coords, other.n) == key
        assert bk.perm(other) == bk.perm(b)
        assert bk.writhe(other) == bk.writhe(b)


def test_relations_as_loop_actions():
    rng = random.Random(13)
    cases = 0
    while cases < 1000:
        n = rng.randint(3, 8)
        l = rand_loop(rng, n - 2)
        N = l.totaln
        i = rng.randint(1, N - 2)
        j = i + 1
        lhs = bk.apply_generator(bk.apply_generator(bk.apply_generator(l, i, 1), j, 1), i, 1)
        rhs = bk.apply_generator(bk.apply_generator(bk.apply_generator(l, j, 1), i, 1), j, 1)
        assert lhs == rhs
        far = [(p, q) for p in range(1, N) for q in range(1, N) if abs(p - q) > 1]
        if far:
            p, q = rng.choice(far)
            ab = bk.apply_generator(bk.apply_generator(l, p, 1), q, 1)
            ba = bk.apply_generator(bk.apply_generator(l, q, 1), p, 1)
            assert ab == ba
        cases += 1


def test_act_concatenation_matches_sequential():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(2, 6)
        a = bk.make_braid(rand_word(rng, n, 6), n)
        b = bk.make_braid(rand_word(rng, n, 6), n)
        l = rand_loop(rng, n - 1)
        assert bk.act(bk.mul(a, b), l) == bk.act(b, bk.act(a, l))


def test_cycle_period_fixture():
    assert bk.cycle(bk.make_braid([1, 2, 3])).period == 4


def test_cycle_fixed_point_fixture():
    r = bk.cycle(bk.make_braid([1, -2]), l0=bk.make_loop([1, 1]))
    assert r.period == 1
    assert r.preperiod == 1
    assert r.matrices[0].entries == ((2, -1), (-1, 1))


def test_cycle_first_iterates_match_by_hand_values():
    # first application: the matrix differs from the eventual fixed point
    l = bk.make_loop([1, 1])
    b = bk.make_braid([1, -2])
    l1, M1 = bk.act_with_matrix(b, l)
    assert l1.coords == (3, -1) and M1.entries == ((2, 1), (-1, 0))
    l2, M2 = bk.act_with_matrix(b, l1)
    assert l2.coords == (7, -4) and M2.entries == ((2, -1), (-1, 1))
    l3 = bk.act(b, l2)
    assert l3.coords == (18, -11)


def test_cycle_period_two_matrices():
    r = bk.cycle(bk.make_braid([-1, -2, -3, 4]), l0=bk.canonical_loop(5, basepoint=False))
    assert r.period == 2
    m1, m2 = (M.entries for M in r.matrices)
    assert m1 == (
        (-1, 1, 0, 0, 0, 0),
        (0, 0, 0, 1, 1, 0),
        (0, 0, 2, -1, -1, 1),
        (0, 0, 0, 0, 1, 0),
        (-1, 0, 1, -1, -1, 1),
        (0, 0, 1, 0, 0, 1),
    )
    assert m2 == (
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 1, 1, 0),
        (0, 0, 2, -1, -1, 1),
        (-1, 1, 0, -1, 1, 0),
        (0, -1, 1, 0, -1, 1),
        (0, 0, 1, 0, 0, 1),
    )


def test_cycle_restart_reproduces_sequence():
    b = bk.make_braid([1, 2, 3])
    r = bk.cycle(b)
    l = bk.canonical_loop(b.n, basepoint=True)
    mats = []
    for _ in range(r.preperiod + 3 * r.period):
        l, M = bk.act_with_matrix(b, l)
        mats.append(M.entries)
    for j in range(r.period):
        assert mats[r.preperiod + j] == r.matrices[j].entries
        assert mats[r.preperiod + j + r.period] == r.matrices[j].entries


def test_cycle_not_found_is_distinct():
    with pytest.raises(bk.CycleNotFoundError):
        bk.cycle(bk.make_braid([1, -2]), maxit=2)


def test_cycle_product_order():
    r = bk.cycle(bk.make_braid([-1, -2, -3, 4]), l0=bk.canonical_loop(5, basepoint=False))
    from braidkit.linalg import mat_mul

    expected = mat_mul(r.matrices[1].entries, r.matrices[0].entries)
    assert r.product().entries == tuple(tuple(row) for row in expected)


def _negate_a(a, rows_a, lo, hi):
    for j in range(lo, hi):
        a[j] = -a[j]
        if rows_a is not None:
            rows_a[j] = [-x for x in rows_a[j]]


def _apply_gen_tracked(a, b, k, rows_a=None, rows_b=None):
    """Generator update written out twice, on the coordinates and again on
    the matrix rows ``rows_a``/``rows_b``: the reference for
    :func:`_update` on forms."""
    m = len(a)
    N = m + 2
    i = abs(k)
    if i < 1 or i > N - 1:
        raise ValueError(f"generator index {k} out of range for {N} punctures")
    if k < 0:
        lo, hi = max(i - 2, 0), min(i, m)
        _negate_a(a, rows_a, lo, hi)
        _apply_gen_tracked(a, b, i, rows_a, rows_b)
        _negate_a(a, rows_a, lo, hi)
        return
    track = rows_a is not None

    if i == 1:
        a0, b0 = a[0], b[0]
        bn = a0 + (b0 if b0 > 0 else 0)
        an = -b0 + (bn if bn > 0 else 0)
        if track:
            ra, rb = rows_a[0], rows_b[0]
            z = [0] * len(ra)
            rbn = [x + y for x, y in zip(ra, rb if b0 > 0 else z)]
            ran = [y - x for x, y in zip(rb, rbn if bn > 0 else z)]
            rows_a[0], rows_b[0] = ran, rbn
        a[0], b[0] = an, bn
        return

    if i == N - 1:
        a0, b0 = a[m - 1], b[m - 1]
        bn = a0 + (b0 if b0 < 0 else 0)
        an = -b0 + (bn if bn < 0 else 0)
        if track:
            ra, rb = rows_a[m - 1], rows_b[m - 1]
            z = [0] * len(ra)
            rbn = [x + y for x, y in zip(ra, rb if b0 < 0 else z)]
            ran = [y - x for x, y in zip(rb, rbn if bn < 0 else z)]
            rows_a[m - 1], rows_b[m - 1] = ran, rbn
        a[m - 1], b[m - 1] = an, bn
        return

    j1, j2 = i - 2, i - 1
    a1, a2, b1, b2 = a[j1], a[j2], b[j1], b[j2]
    pb2 = b2 if b2 > 0 else 0
    nb1 = b1 if b1 < 0 else 0
    c = a1 - a2 - pb2 + nb1
    pb1 = b1 if b1 > 0 else 0
    t = pb2 + c
    pt = t if t > 0 else 0
    nc = c if c < 0 else 0
    nb2 = b2 if b2 < 0 else 0
    u = nb1 - c
    nu = u if u < 0 else 0
    na1 = a1 - pb1 - pt
    nb_1 = b2 + nc
    na2 = a2 - nb2 - nu
    nb_2 = b1 - nc
    if track:
        ra1, ra2, rb1, rb2 = rows_a[j1], rows_a[j2], rows_b[j1], rows_b[j2]
        z = [0] * len(ra1)
        rpb2 = rb2 if b2 > 0 else z
        rnb1 = rb1 if b1 < 0 else z
        rc = [w - x - y + v for w, x, y, v in zip(ra1, ra2, rpb2, rnb1)]
        rpb1 = rb1 if b1 > 0 else z
        rt = [x + y for x, y in zip(rpb2, rc)]
        rpt = rt if t > 0 else z
        rnc = rc if c < 0 else z
        rnb2 = rb2 if b2 < 0 else z
        ru = [x - y for x, y in zip(rnb1, rc)]
        rnu = ru if u < 0 else z
        rows_a[j1] = [w - x - y for w, x, y in zip(ra1, rpb1, rpt)]
        rows_b[j1] = [x + y for x, y in zip(rb2, rnc)]
        rows_a[j2] = [w - x - y for w, x, y in zip(ra2, rnb2, rnu)]
        rows_b[j2] = [x - y for x, y in zip(rb1, rnc)]
    a[j1], a[j2], b[j1], b[j2] = na1, na2, nb_1, nb_2


def _apply_gen_full_reflection(a, b, k, hi=0):
    """Inverse generators as the conjugate by the reflection that negates the
    whole ``a`` half: the reference for the kernel, which reflects only the
    coordinates the generator reads."""
    if k > 0:
        _update(a, b, (k,), hi)
        return
    a[:] = [-x for x in a]
    _update(a, b, (-k,), hi)
    a[:] = [-x for x in a]


def _forms(values, rows, K):
    """One-int forms ``value * 2**(K*d) + packed row`` of act_with_matrix."""
    S = K * len(rows[0])
    return [(x << S) + _pack(r, K) for x, r in zip(values, rows)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_apply_gen_matches_full_reflection(data):
    # int forms with random rows through the kernel, through the
    # full-reflection conjugate and through the tracked reference agree on
    # values and rows; frequent zero coordinates put the max/min branches on
    # their ties
    m = data.draw(st.integers(1, 7), label="m")
    coord = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-20, 20))
    coords = st.lists(coord, min_size=m, max_size=m)
    a, b = data.draw(coords, label="a"), data.draw(coords, label="b")
    gens = st.integers(1, m + 1).flatmap(lambda i: st.sampled_from([i, -i]))
    word = data.draw(st.lists(gens, max_size=12), label="word")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="rows seed"))
    rows = [[rng.randint(-3, 3) for _ in range(2 * m)] for _ in range(2 * m)]

    # a slot wide enough for the entries' growth (< 2**3 per generator)
    K = _slot_bits(2 + 3 * len(word))
    hi = 1 << (K * 2 * m - 1)
    forms = _forms(a + b, rows, K)
    got, ref = (forms[:m], forms[m:]), (forms[:m], forms[m:])
    tracked = (list(a), list(b), [r[:] for r in rows[:m]], [r[:] for r in rows[m:]])
    plain = (list(a), list(b))
    for k in word:
        _update(*got, (k,), hi)
        _apply_gen_full_reflection(*ref, k, hi)
        _apply_gen_tracked(*tracked[:2], k, *tracked[2:])
        _update(*plain, (k,))
    assert got == ref
    assert got[0] + got[1] == _forms(tracked[0] + tracked[1], tracked[2] + tracked[3], K)
    assert plain[0] + plain[1] == tracked[0] + tracked[1]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fits_matches_exact_unpack(data):
    # entries at -2**(K-1-G) and 2**(K-1-G), one step either side, or
    # anywhere in the slot: the one-add one-AND test of act_with_matrix
    # passes exactly when the exactly unpacked entries lie in [-e, e)
    K = data.draw(st.sampled_from([8, 16, 104]), label="K")
    G = data.draw(st.integers(1, K - 1), label="G")
    d = data.draw(st.integers(2, 6), label="d")
    e = 1 << (K - 1 - G)
    half = 1 << (K - 1)
    edge = st.sampled_from([-e - 1, -e, -e + 1, e - 1, e, e + 1])
    entry = st.one_of(st.just(0), edge, st.integers(-half + 1, half - 1))
    rows = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=4))
    value = st.one_of(st.integers(-2, 2), st.integers(-(10**40), 10**40))
    values = data.draw(st.lists(value, min_size=len(rows), max_size=len(rows)))
    forms = _forms(values, rows, K)
    exact = []
    for x, E in zip(values, forms):
        z, coeffs = _unpack(E - (x << (K * d)), K)
        exact.append([0] * z + list(coeffs) + [0] * (d - z - len(coeffs)))
    assert exact == rows
    assert _fits(forms, K, d, G) == all(-e <= c < e for r in exact for c in r)


def _act_with_matrix_tracked(b, l, direction):
    word = b.word[::-1] if direction == "rl" else b.word
    a, bb = list(l.a), list(l.b)
    m, d = len(a), 2 * len(a)
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    rows_a, rows_b = rows[:m], rows[m:]
    for k in word:
        _apply_gen_tracked(a, bb, k, rows_a, rows_b)
    return tuple(a + bb), tuple(tuple(r) for r in rows_a + rows_b)


@pytest.mark.parametrize("direction", ["lr", "rl"])
def test_act_with_matrix_matches_tracked_reference(direction):
    rng = random.Random(5)
    props = properties()
    props.gen_loop_act_dir = direction
    try:
        for _ in range(100):
            n = rng.randint(3, 9)
            b = bk.make_braid(rand_word(rng, n, 20), n)
            l = bk.canonical_loop(n, basepoint=rng.random() < 0.5)
            for _ in range(5):
                image, M = bk.act_with_matrix(b, l)
                assert (image.coords, M.entries) == _act_with_matrix_tracked(b, l, direction)
                assert bk.act(b, l) == image
                l = image
    finally:
        props.gen_loop_act_dir = "lr"


def test_act_with_matrix_matches_tracked_reference_on_long_words(monkeypatch):
    # rows that outgrow the first slot width are re-packed wider mid-word;
    # the decoded matrix still equals the tracked reference entry for entry
    repacked = []

    def counting_pack(coeffs, K):
        repacked.append(K)
        return _pack(coeffs, K)

    # act_with_matrix imports the codec from linalg when it runs
    monkeypatch.setattr("braidkit.linalg._pack", counting_pack)
    rng = random.Random(11)
    for n, L in [(3, 3000), (10, 1000), (20, 3000), (30, 3000), (30, 40)]:
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(L)]
        b = bk.make_braid(word, n)
        for basepoint in (True, False):
            m = n - 1 if basepoint else n - 2
            l = bk.make_loop([rng.randint(-(10**30), 10**30) for _ in range(2 * m)], basepoint)
            image, M = bk.act_with_matrix(b, l)
            assert (image.coords, M.entries) == _act_with_matrix_tracked(b, l, "lr")
    assert repacked


def test_act_with_matrix_edge_cases():
    # one coordinate pair: a 2-strand braid acting without a basepoint, where
    # both generator ends read the same pair
    rng = random.Random(2)
    for _ in range(50):
        b = bk.make_braid(rand_word(rng, 2, 30), 2)
        l = rand_loop(rng, 1, span=10**6)
        image, M = bk.act_with_matrix(b, l)
        assert (image.coords, M.entries) == _act_with_matrix_tracked(b, l, "lr")
    # the empty word is the identity, with or without a basepoint
    for l in (bk.canonical_loop(2), bk.make_loop([3, -4])):
        image, M = bk.act_with_matrix(bk.make_braid([], 2), l)
        assert image == l
        assert M.entries == ((1, 0), (0, 1))


def test_apply_word_rejects_a_bad_generator_deep_in_a_word(monkeypatch):
    # a word reaches the kernel either whole, through a Braid, or one letter
    # at a time, through apply_generator; both refuse a bad letter deep in a
    # long word before the kernel sees it
    rng = random.Random(4)
    word = [rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(3000)]
    word[2000], word[2500] = -5, 0
    l0 = bk.make_loop([0, 0, 0, -1, -1, -1])

    def run_letters(word):
        l = l0
        for pos, k in enumerate(word):
            try:
                l = bk.apply_generator(l, abs(k), -1 if k < 0 else 1)
            except ValueError as e:
                return pos, l, str(e)
        return None, l, None

    pos, l, msg = run_letters(word)
    assert (pos, msg) == (2000, "generator index -5 out of range for 5 punctures")
    assert l == bk.act(bk.make_braid(word[:2000], 5), l0)
    word[2000] = 4
    pos, l, msg = run_letters(word)
    assert pos == 2500 and msg.startswith("generator index 0 out of range")
    assert l == bk.act(bk.make_braid(word[:2500], 5), l0)

    def kernel(*args):
        raise AssertionError("a kernel ran")

    with monkeypatch.context() as mp:
        mp.setattr(action, "_update", kernel)
        word[2000] = -5
        with pytest.raises(ValueError, match=r"^generator -5 needs more than 5 strands$"):
            bk.act(bk.make_braid(word, 5), l0)
        word[2000] = 4
        with pytest.raises(ValueError, match=r"^generator index 0 is not allowed$"):
            bk.act(bk.make_braid(word, 5), l0)
    assert bk.act(bk.make_braid([], 5), l0) == l0
    assert run_letters([]) == (None, l0, None)


def _apply_word_reference(a, b, word, hi=0):
    """The kernel as it was before the per-sign split, kept verbatim: the
    byte-for-byte reference for :func:`_update`."""
    m = len(a)
    last = m + 1
    if min(map(abs, word), default=1) < 1 or max(map(abs, word), default=0) > last:
        k = next(k for k in word if not 1 <= abs(k) <= last)
        raise ValueError(f"generator index {k} out of range for {m + 2} punctures")
    lo = -hi
    for k in word:
        # an inverse is the positive generator conjugated by the reflection
        # that negates the a-coordinates read and written (folded into the
        # signs of d and of the a updates for a middle generator)
        inv = k < 0
        i = -k if inv else k
        if i == 1:
            a0, b0 = a[0], b[0]
            if inv:
                a0 = -a0
            bn = a0 + b0 if b0 > hi else a0
            an = bn - b0 if bn > hi else -b0
            a[0], b[0] = -an if inv else an, bn
        elif i == last:
            a0, b0 = a[m - 1], b[m - 1]
            if inv:
                a0 = -a0
            bn = a0 + b0 if b0 < lo else a0
            an = bn - b0 if bn < lo else -b0
            a[m - 1], b[m - 1] = -an if inv else an, bn
        else:
            # with d = a1 - a2 (a-coordinates reflected for an inverse),
            # t = d + min(b1, 0), c = t - max(b2, 0), u = max(b2, 0) - d:
            # a1 -= max(b1, 0) + max(t, 0), a2 -= min(b2, 0) + min(u, 0),
            # and (b1, b2) <- (b2 + min(c, 0), b1 - min(c, 0))
            j1, j2 = i - 2, i - 1
            a1, a2, b1, b2 = a[j1], a[j2], b[j1], b[j2]
            d = a2 - a1 if inv else a1 - a2
            t = d + b1 if b1 < lo else d
            if b1 > hi:
                a1 = a1 + b1 if inv else a1 - b1
            if t > hi:
                a1 = a1 + t if inv else a1 - t
            if b2 > hi:
                c, u = t - b2, b2 - d
                if u < lo:
                    a2 = a2 + u if inv else a2 - u
            else:
                c = t
                if b2 < lo:
                    a2 = a2 + b2 if inv else a2 - b2
                if d > hi:  # u = -d < 0
                    a2 = a2 - d if inv else a2 + d
            if c < lo:
                a[j1], a[j2], b[j1], b[j2] = a1, a2, b2 + c, b1 - c
            else:
                a[j1], a[j2], b[j1], b[j2] = a1, a2, b2, b1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_update_matches_the_reference_kernel(data):
    # braids on n = 2..12 strands acting on loops of n + 1 punctures (the
    # basepoint loop's count), so that every one of the six generator kinds
    # (+-1, +-middle, +-last) can act once n >= 3; plain ints and forms, with
    # frequent zeros to put the max/min branches on their ties
    n = data.draw(st.integers(2, 12), label="n")
    m = n - 1
    coord = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**70), 2**70))
    coords = st.lists(coord, min_size=m, max_size=m)
    a, b = data.draw(coords, label="a"), data.draw(coords, label="b")
    kinds = {"first": st.just(1), "middle": st.integers(2, max(m, 2)), "last": st.just(m + 1)}
    index = st.sampled_from(["first", "middle", "last"] if m > 1 else ["first", "last"]).flatmap(kinds.get)
    gens = index.flatmap(lambda i: st.sampled_from([i, -i]))
    word = data.draw(st.lists(gens, max_size=40), label="word")

    got, want = (list(a), list(b)), (list(a), list(b))
    _update(*got, word)
    _apply_word_reference(*want, word)
    assert got == want and all(type(x) is int for x in got[0] + got[1])

    rng = random.Random(data.draw(st.integers(0, 2**32), label="rows seed"))
    rows = [[rng.randint(-3, 3) for _ in range(2 * m)] for _ in range(2 * m)]
    K = _slot_bits(2 + 3 * len(word))
    hi = 1 << (K * 2 * m - 1)
    forms = _forms(a + b, rows, K)
    got, want = (forms[:m], forms[m:]), (forms[:m], forms[m:])
    _update(*got, word, hi)
    _apply_word_reference(*want, word, hi)
    assert got == want


def test_too_many_strands_raise_before_any_kernel_runs(monkeypatch):
    # the paths that call the unchecked kernel bound the braid's strand
    # count by the loop's first
    def kernel(*args):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(action, "_update", kernel)
    b = bk.make_braid([1, -4, 2], 5)
    for l in (bk.canonical_loop(4), bk.make_loop([0, -1, 0, -1])):
        calls = (
            lambda: bk.act(b, l),
            lambda: bk.act(b, [l]),
            lambda: bk.act_with_matrix(b, l),
            lambda: bk.cycle(b, l),
            lambda: bk.entropy_fixed_iterates(b, l, 2),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"^braid on 5 strands cannot act on"):
                call()
