import random
import re

import pytest

import braidkit as bk
from braidkit.render import _PALETTE, RenderSpec, _polyline, _svg_header, render_braid, render_loop


def polylines(svg):
    """Parse polyline point lists from an SVG document."""
    out = []
    for m in re.finditer(r'<polyline[^>]*points="([^"]+)"', svg):
        pts = []
        for tok in m.group(1).split():
            x, y = tok.split(",")
            pts.append((float(x), float(y)))
        out.append(pts)
    return out


def crossings_with_vertical(paths, x0, y_min=None, y_max=None):
    """Distinct points where the drawn paths meet the vertical line x = x0."""
    pts = set()
    for path in paths:
        for (x1, y1), (x2, y2) in zip(path, path[1:]):
            if (x1 - x0) * (x2 - x0) > 0:
                continue
            if x1 == x2:
                continue  # collinear with the line never happens off-line
            t = (x0 - x1) / (x2 - x1)
            if t < 0 or t > 1:
                continue
            y = y1 + t * (y2 - y1)
            if y_min is not None and y >= y_min:
                continue
            if y_max is not None and y <= y_max:
                continue
            pts.add(round(y, 4))
    return len(pts)


def test_render_braid_identity_straight_strands():
    svg = render_braid(bk.identity_braid(4))
    paths = polylines(svg)
    assert len(paths) == 4
    for p in paths:
        assert len({round(x, 3) for x, _ in p}) == 1  # vertical straight line


def test_render_braid_crossing_markers():
    svg = render_braid(bk.make_braid([1, -2]))
    signs = re.findall(r'class="crossing (over|under)" data-slot="(\d)" data-sign="(-?1)"', svg)
    assert signs == [("over", "0", "1"), ("under", "1", "-1")]
    # the under strand is split around each crossing: 3 strands + 2 gaps
    assert len(polylines(svg)) == 5


def test_render_braid_over_under_off():
    svg = render_braid(bk.make_braid([1, -2]), RenderSpec(over_under=False))
    assert len(polylines(svg)) == 3


def test_render_braid_directions_differ_and_deterministic():
    b = bk.make_braid([1, -2])
    svgs = {d: render_braid(b, RenderSpec(direction=d)) for d in ("bt", "tb", "lr", "rl")}
    assert len(set(svgs.values())) == 4
    assert render_braid(b, RenderSpec(direction="bt")) == svgs["bt"]


def test_render_loop_counts_match_intersection_numbers():
    l = bk.make_loop([-1, 1, -2, 0, -1, 0])
    inums = bk.intersec(l)
    svg = render_loop(l)
    paths = polylines(svg)
    N = l.totaln
    H = 360
    y_axis = H / 2
    # vertical mid-lines between punctures: one crossing per strand
    margin, sx = 30, (480 - 60) / (N + 1)
    for g in range(N - 1):
        x0 = margin + (g + 1.5) * sx
        assert crossings_with_vertical(paths, x0) == inums.nu[g]
    # rays above/below each interior puncture
    for i in range(N - 2):
        xp = margin + (i + 2) * sx
        above = crossings_with_vertical(paths, xp, y_min=y_axis)
        below = crossings_with_vertical(paths, xp, y_max=y_axis)
        assert above == inums.mu[2 * i]
        assert below == inums.mu[2 * i + 1]


def test_render_loop_canonical_and_determinism():
    l = bk.canonical_loop(4, basepoint=True)
    svg1 = render_loop(l)
    svg2 = render_loop(l)
    assert svg1 == svg2
    inums = bk.intersec(l)
    paths = polylines(svg1)
    N = l.totaln
    margin, sx = 30, (480 - 60) / (N + 1)
    for g in range(N - 1):
        x0 = margin + (g + 1.5) * sx
        assert crossings_with_vertical(paths, x0) == inums.nu[g]


def _render_braid_every_slot(b, spec=None):
    """The former renderer, kept as the reference: every strand gets a point
    in every time slot, crossing or not.  Annular braids are drawn as their
    ``to_braid()``, as ``render_braid`` draws them."""
    spec = spec or RenderSpec()
    direction = spec.resolved_direction()
    over_under = spec.resolved_over_under()
    annular = isinstance(b, bk.AnnularBraid)
    if annular:
        b = b.to_braid()
    word = b.word
    n = b.n
    L = max(len(word), 1)
    margin = 30
    W, H = spec.width, spec.height
    if direction in ("bt", "tb"):
        sq = (W - 2 * margin) / max(n - 1, 1)
        st = (H - 2 * margin) / L

        def xy(q, t):
            return margin + (q - 1) * sq, (H - margin - t * st if direction == "bt" else margin + t * st)

    else:
        sq = (H - 2 * margin) / max(n - 1, 1)
        st = (W - 2 * margin) / L

        def xy(q, t):
            return (margin + t * st if direction == "lr" else W - margin - t * st), margin + (q - 1) * sq

    pos_of = list(range(1, n + 1))
    segments = {s: [[xy(pos_of[s], 0)]] for s in range(n)}
    for k, w in enumerate(word):
        i = abs(w)
        t0, t1 = k, k + 1
        at = {p: s for s, p in enumerate(pos_of)}
        s_left, s_right = at[i], at[i + 1]
        over_left = w > 0
        for s, p0, p1 in ((s_left, i, i + 1), (s_right, i + 1, i)):
            is_over = (s == s_left) == over_left
            if is_over or not over_under:
                segments[s][-1].append(xy(p1, t1))
            else:
                mid_q = (p0 + p1) / 2
                gap = 0.18
                qa = p0 + (mid_q - p0) * (1 - gap * 2)
                ta = t0 + 0.5 * (1 - gap * 2)
                segments[s][-1].append(xy(qa, ta))
                segments[s].append([xy(p1 - (p1 - mid_q) * (1 - gap * 2), t1 - 0.5 * (1 - gap * 2))])
                segments[s][-1].append(xy(p1, t1))
        for s in range(n):
            if s not in (s_left, s_right):
                segments[s][-1].append(xy(pos_of[s], t1))
        pos_of[s_left], pos_of[s_right] = i + 1, i
    if not word:
        for s in range(n):
            segments[s][-1].append(xy(pos_of[s], L))

    parts = [_svg_header(W, H)]
    for s in range(n):
        color = _PALETTE[s % len(_PALETTE)]
        if annular and s == n - 1:
            color = "#2a7f3f"
        for seg in segments[s]:
            if len(seg) >= 2:
                parts.append(_polyline(seg, color, cls=f"strand strand-{s + 1}"))
    for k, w in enumerate(word):
        qx, qy = xy(abs(w) + 0.5, k + 0.5)
        parts.append(
            f'<circle class="crossing {"over" if w > 0 else "under"}" data-slot="{k}" '
            f'data-sign="{1 if w > 0 else -1}" cx="{qx:.2f}" cy="{qy:.2f}" r="0.5" '
            f'fill="none" stroke="none"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _render_braid_reference(b, spec=None):
    """The renderer before per-axis string tables, kept as the byte-for-byte
    reference: it formats both coordinates of every point and decides a
    strand's entry point by comparing float tuples."""
    spec = spec or RenderSpec()
    direction = spec.resolved_direction()
    over_under = spec.resolved_over_under()
    annular = isinstance(b, bk.AnnularBraid)
    if annular:
        b = b.to_braid()
    word = b.word
    n = b.n
    L = max(len(word), 1)
    margin = 30
    if direction in ("bt", "tb"):
        W, H = spec.width, spec.height
        sq = (W - 2 * margin) / max(n - 1, 1)
        st = (H - 2 * margin) / L

        def xy(q, t):
            x = margin + (q - 1) * sq
            y = H - margin - t * st if direction == "bt" else margin + t * st
            return x, y

    else:
        W, H = spec.width, spec.height
        sq = (H - 2 * margin) / max(n - 1, 1)
        st = (W - 2 * margin) / L

        def xy(q, t):
            y = margin + (q - 1) * sq
            x = margin + t * st if direction == "lr" else W - margin - t * st
            return x, y

    at = list(range(n))
    segments = [[[xy(q + 1, 0)]] for q in range(n)]
    for k, w in enumerate(word):
        i = abs(w)
        t0, t1 = k, k + 1
        s_left, s_right = at[i - 1], at[i]
        over_left = w > 0
        for s, p0, p1 in ((s_left, i, i + 1), (s_right, i + 1, i)):
            seg, entry = segments[s][-1], xy(p0, t0)
            if seg[-1] != entry:
                seg.append(entry)
            is_over = (s == s_left) == over_left
            if is_over or not over_under:
                seg.append(xy(p1, t1))
            else:
                mid_q = (p0 + p1) / 2
                gap = 0.18
                qa = p0 + (mid_q - p0) * (1 - gap * 2)
                ta = t0 + 0.5 * (1 - gap * 2)
                seg.append(xy(qa, ta))
                segments[s].append([xy(p1 - (p1 - mid_q) * (1 - gap * 2), t1 - 0.5 * (1 - gap * 2))])
                segments[s][-1].append(xy(p1, t1))
        at[i - 1], at[i] = s_right, s_left
    for q, s in enumerate(at):
        seg, end = segments[s][-1], xy(q + 1, L)
        if seg[-1] != end:
            seg.append(end)

    parts = [_svg_header(W, H)]
    for s in range(n):
        color = _PALETTE[s % len(_PALETTE)]
        if annular and s == n - 1:
            color = "#2a7f3f"
        for seg in segments[s]:
            if len(seg) >= 2:
                parts.append(_polyline(seg, color, cls=f"strand strand-{s + 1}"))
    for k, w in enumerate(word):
        qx, qy = xy(abs(w) + 0.5, k + 0.5)
        parts.append(
            f'<circle class="crossing {"over" if w > 0 else "under"}" data-slot="{k}" '
            f'data-sign="{1 if w > 0 else -1}" cx="{qx:.2f}" cy="{qy:.2f}" r="0.5" '
            f'fill="none" stroke="none"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


@pytest.mark.parametrize("direction", ["bt", "tb", "lr", "rl"])
@pytest.mark.parametrize("over_under", [True, False])
def test_render_braid_is_byte_identical_to_reference(direction, over_under):
    rng = random.Random(f"bytes-{direction}-{over_under}")
    sizes = [(2, 0), (2, 1), (2, 9), (5, 0), (20, 0)] + [(rng.randint(2, 20), rng.randint(0, 300)) for _ in range(16)]
    for n, L in sizes + [(rng.randint(2, 20), rng.randint(1000, 3000))]:
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(L)]
        # an annular braid draws its to_braid(), where generator n - 1 is
        # the ring generator's longer word
        braids = [bk.make_braid(word, n), bk.make_annular_braid(word, n - 1)]
        # the default page, wide and tall pages, and each axis with negative
        # extent; at an extent of exactly 2 * margin = 60 the time axis has
        # zero length, and the reference dropped the coincident points
        pages = [(480, 360), (1203, 97), (75, 2000), (rng.randint(61, 900), rng.randint(-40, 59))]
        pages.append((rng.randint(-40, 59), rng.randint(61, 900)))
        for width, height in pages if L <= 300 else pages[:1]:
            spec = RenderSpec(direction=direction, over_under=over_under, width=width, height=height)
            for b in braids:
                assert render_braid(b, spec) == _render_braid_reference(b, spec), (n, word, width, height)


def _drop_collinear(points):
    out = []
    for p in points:
        while len(out) >= 2:
            (x1, y1), (x2, y2) = out[-2], out[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) != 0:
                break
            out.pop()
        out.append(p)
    return out


_POLYLINE = re.compile(r'points="[^"]*"')


@pytest.mark.parametrize("direction", ["bt", "tb", "lr", "rl"])
@pytest.mark.parametrize("over_under", [True, False])
def test_render_braid_matches_every_slot_reference(direction, over_under):
    rng = random.Random(f"{direction}-{over_under}")
    spec = RenderSpec(direction=direction, over_under=over_under)
    for _ in range(40):
        n = rng.randint(2, 7)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 25))]
        b = bk.make_annular_braid(word, n - 1) if rng.random() < 0.2 else bk.make_braid(word, n)
        svg, ref = render_braid(b, spec), _render_braid_every_slot(b, spec)
        # everything but the point lists is byte-identical
        assert _POLYLINE.sub("", svg) == _POLYLINE.sub("", ref)
        got, want = polylines(svg), polylines(ref)
        assert [_drop_collinear(p) for p in got] == [_drop_collinear(p) for p in want]
        # points only at crossings and strand ends; an annular braid draws
        # the crossings of its to_braid()
        drawn = b.to_braid() if isinstance(b, bk.AnnularBraid) else b
        assert sum(map(len, got)) <= 2 * n + 6 * len(drawn)
