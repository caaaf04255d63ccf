"""Deterministic SVG rendering of braid diagrams and loops.

Braid diagrams get one crossing per time slot with an over/under gap chosen
by the generator sign.  Each axis takes few distinct coordinates (O(n)
positions, O(L) times), so each is formatted once into a per-axis string
table, and a point joins a position string and a time string in the
direction's (x, y) order.  Loop pictures are reconstructed from
intersection numbers: every strand crossing of a vertical reference line
becomes one junction point on that line, so counting path crossings per
line in the SVG reproduces the loop's intersection numbers exactly; beyond
those counts the picture is a best-effort visual.
"""
from __future__ import annotations

import dataclasses

from .braids import AnnularBraid, _as_braid
from .config import properties
from .loops import Loop, intersec


_MARGIN = 30  # px of page around the drawing on every side


@dataclasses.dataclass
class RenderSpec:
    direction: str | None = None     # bt | tb | lr | rl (None: global default)
    over_under: bool | None = None   # None: global default
    width: int = 480                 # px, more than 2 * _MARGIN
    height: int = 360                # px, more than 2 * _MARGIN

    def __post_init__(self):
        self._page()

    def _page(self):
        """``(width, height)``, each more than twice the margin: a smaller
        page would collapse or mirror the drawing."""
        for name in ("width", "height"):
            size = getattr(self, name)
            if size <= 2 * _MARGIN:
                raise ValueError(f"{name} must be more than {2 * _MARGIN} px (twice the margin), got {size}")
        return self.width, self.height

    def resolved_direction(self) -> str:
        return self.direction or properties().braid_plot_dir

    def resolved_over_under(self) -> bool:
        if self.over_under is None:
            return properties().gen_plot_over_under
        return self.over_under


_STROKE = "#1f4e79"
_STROKE_WIDTH = 2.0
_PALETTE = ["#1f4e79", "#b2182b", "#2a7f3f", "#8c510a", "#6a51a3", "#01665e", "#c51b7d", "#4d4d4d"]


def _svg_header(width, height):
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )


def _polyline(points, color, cls=""):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    klass = f' class="{cls}"' if cls else ""
    return f'<polyline{klass} points="{pts}" fill="none" stroke="{color}" stroke-width="{_STROKE_WIDTH}"/>'


def _axis(origin, step, values):
    """The SVG coordinate string of ``origin + v * step`` for each ``v``."""
    return [f"{origin + v * step:.2f}" for v in values]


def render_braid(b, spec: RenderSpec | None = None) -> str:
    """Braid diagram as an SVG document string.

    An annular braid is drawn as :meth:`AnnularBraid.to_braid`, with the
    fixed center of the annulus, the last strand, in its own colour.
    """
    spec = spec or RenderSpec()
    direction = spec.resolved_direction()
    over_under = spec.resolved_over_under()
    annular = isinstance(b, AnnularBraid)
    b = _as_braid(b)
    word = b.word
    n = b.n
    L = max(len(word), 1)

    # logical layout: position q in [1, n], time t in [0, L]
    margin = _MARGIN
    W, H = spec._page()
    upright = direction in ("bt", "tb")
    sq = ((W if upright else H) - 2 * margin) / max(n - 1, 1)
    st = ((H if upright else W) - 2 * margin) / L
    # bt and rl count time from the far edge
    origin, st = {"bt": (H - margin, -st), "tb": (margin, st), "lr": (margin, st)}.get(direction, (W - margin, -st))
    Q = _axis(margin, sq, range(-1, n))  # Q[q] for q in [1, n]
    T = _axis(origin, st, range(L + 1))
    # an under strand breaks a fraction h into its slot and h before its end
    h = 0.5 * (1 - 0.18 * 2)
    lo, hi = _axis(margin, sq, [q + h - 1 for q in range(n)]), _axis(margin, sq, [q + 1 - h - 1 for q in range(n)])
    Ta, Tb = _axis(origin, st, [k + h for k in range(L)]), _axis(origin, st, [k + 1 - h for k in range(L)])

    # follow each strand through the word; a strand gets a point only where
    # it enters or leaves a crossing, and the under strand breaks there
    at = list(range(n))  # position q (0-based) -> strand there
    last = [0] * n  # strand -> time of its latest point
    pts = [[Q[q + 1], T[0]] for q in range(n)]  # strand -> position, time, position, ...
    cuts = [[] for _ in range(n)]  # strand -> first point of each segment after its first
    for k, w in enumerate(word):
        i = abs(w)
        # a positive generator takes the left strand over, from i to i + 1
        po, pu = (i, i + 1) if w > 0 else (i + 1, i)
        so, su = at[po - 1], at[pu - 1]
        at[po - 1], at[pu - 1] = su, so
        for s, p in ((so, po), (su, pu)):
            if last[s] != k:
                pts[s] += Q[p], T[k]
            last[s] = k + 1
        pts[so] += Q[pu], T[k + 1]
        if over_under:
            qa, qb = (hi[i], lo[i]) if w > 0 else (lo[i], hi[i])
            cuts[su].append(len(pts[su]) // 2 + 1)
            pts[su] += qa, Ta[k], qb, Tb[k], Q[po], T[k + 1]
        else:
            pts[su] += Q[po], T[k + 1]
    for q, s in enumerate(at):
        if last[s] != L:
            pts[s] += Q[q + 1], T[L]

    parts = [_svg_header(W, H)]
    for s in range(n):
        color = "#2a7f3f" if annular and s == n - 1 else _PALETTE[s % len(_PALETTE)]  # the annulus center
        head = f'<polyline class="strand strand-{s + 1}" points="'
        tail = f'" fill="none" stroke="{color}" stroke-width="{_STROKE_WIDTH}"/>'
        qs, ts = pts[s][0::2], pts[s][1::2]
        xy = list(map(",".join, zip(qs, ts) if upright else zip(ts, qs)))
        for a, z in zip([0] + cuts[s], cuts[s] + [len(xy)]):
            parts.append(head + " ".join(xy[a:z]) + tail)
    C = _axis(margin, sq, [q - 0.5 for q in range(n)])  # C[i]: halfway from q = i to i + 1
    cq, ct = [C[abs(w)] for w in word], _axis(origin, st, [k + 0.5 for k in range(len(word))])
    for k, w, cx, cy in zip(range(len(word)), word, *((cq, ct) if upright else (ct, cq))):
        parts.append(
            f'<circle class="crossing {"over" if w > 0 else "under"}" data-slot="{k}" '
            f'data-sign="{1 if w > 0 else -1}" cx="{cx}" cy="{cy}" r="0.5" '
            f'fill="none" stroke="none"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def render_loop(l: Loop, spec: RenderSpec | None = None) -> str:
    """Loop picture as an SVG document string.

    Vertical reference lines sit halfway between punctures.  Every strand
    crossing of a line becomes one junction point shared by the pieces on
    both sides, and every passage above or below a puncture becomes a short
    flat segment crossing the puncture's vertical ray, so counting path
    crossings per line/ray in the SVG recovers the intersection numbers.
    """
    spec = spec or RenderSpec()
    inums = intersec(l)
    mu, nu = inums.mu, inums.nu
    N = l.totaln
    m = N - 2
    W, H = spec._page()
    margin = _MARGIN
    sx = (W - 2 * margin) / (N + 1)

    def X(u):
        return margin + u * sx

    Y0 = H / 2

    def strip_counts(i):
        b_i = l.b[i]
        lft = b_i if b_i > 0 else 0
        rgt = -b_i if b_i < 0 else 0
        through = nu[i] - 2 * lft
        over = through // 2 - l.a[i]
        under = through // 2 + l.a[i]
        return over, under, lft, rgt

    peak_levels = [1]
    for i in range(m):
        over, under, lft, rgt = strip_counts(i)
        peak_levels.append(over + lft + rgt)
        peak_levels.append(under + lft + rgt)
    maxlevel = max(max(nu, default=0) / 2 + 1, max(peak_levels) + 1)
    dy = (H / 2 - margin) / maxlevel

    def Y(level):
        return Y0 - level * dy

    # junction points on each vertical line, top to bottom, never on the axis
    junctions = []
    for g in range(N - 1):
        cnt = nu[g]
        xg = X(g + 1.5)
        junctions.append([(xg, Y((cnt - 1) / 2 - k)) for k in range(cnt)])

    def take(line, over, loops, under):
        """Split a line's junctions: overs on top, loop-end pairs inside,
        unders at the bottom."""
        cnt = len(line)
        tops = [line[k] for k in range(over)]
        bots = [line[cnt - 1 - k] for k in range(under)]
        pairs = [(line[over + k], line[cnt - 1 - under - k]) for k in range(loops)]
        return tops, pairs, bots

    paths = []

    def flat(p, level):
        y = Y(level)
        return (X(p) - 0.18 * sx, y), (X(p) + 0.18 * sx, y)

    # caps wrap the outermost punctures
    for k in range(nu[0] // 2):
        a = junctions[0][k]
        b = junctions[0][nu[0] - 1 - k]
        xw = X(1) - (0.3 + 0.1 * k) * sx
        paths.append([a, (xw, a[1]), (xw, b[1]), b])
    if N >= 2:
        for k in range(nu[-1] // 2):
            a = junctions[-1][k]
            b = junctions[-1][nu[-1] - 1 - k]
            xw = X(N) + (0.3 + 0.1 * k) * sx
            paths.append([a, (xw, a[1]), (xw, b[1]), b])

    for i in range(m):
        p = i + 2
        over, under, lft, rgt = strip_counts(i)
        ltops, lpairs, lbots = take(junctions[i], over, lft, under)
        rtops, rpairs, rbots = take(junctions[i + 1], over, rgt, under)
        for k in range(over):
            u1, u2 = flat(p, lft + rgt + over - k)
            paths.append([ltops[k], u1, u2, rtops[k]])
        for k in range(under):
            d1, d2 = flat(p, -(lft + rgt + under - k))
            paths.append([lbots[k], d1, d2, rbots[k]])
        for k in range(lft):
            a, b = lpairs[k]
            u1, u2 = flat(p, lft - k)
            d1, d2 = flat(p, -(lft - k))
            turn = X(p) + (0.3 + 0.08 * k) * sx
            paths.append([a, u1, u2, (turn, u2[1]), (turn, d2[1]), d2, d1, b])
        for k in range(rgt):
            a, b = rpairs[k]
            u1, u2 = flat(p, rgt - k)
            d1, d2 = flat(p, -(rgt - k))
            turn = X(p) - (0.3 + 0.08 * k) * sx
            paths.append([a, u2, u1, (turn, u1[1]), (turn, d1[1]), d1, d2, b])

    parts = [_svg_header(W, H)]
    parts.append(
        f'<line x1="{X(0.4):.2f}" y1="{Y0:.2f}" x2="{X(N + 0.6):.2f}" y2="{Y0:.2f}" '
        f'stroke="#bbbbbb" stroke-width="1"/>'
    )
    for p in range(1, N + 1):
        fill = "#2a7f3f" if (l.basepoint and p == N) else "#222222"
        parts.append(f'<circle cx="{X(p):.2f}" cy="{Y0:.2f}" r="3.5" fill="{fill}"/>')
    for seg in paths:
        parts.append(_polyline(seg, _STROKE, cls="loop-strand"))
    parts.append("</svg>")
    return "\n".join(parts)
