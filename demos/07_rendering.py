#!/usr/bin/env python3
"""Write SVG pictures of braid diagrams and loops."""
import pathlib

import braidkit as bk
from braidkit.render import RenderSpec, render_braid, render_loop

out = pathlib.Path("rendered")
out.mkdir(exist_ok=True)

b = bk.make_braid([1, -2])
(out / "braid_bt.svg").write_text(render_braid(b))
(out / "braid_lr.svg").write_text(render_braid(b, RenderSpec(direction="lr")))

ann = bk.make_annular_braid([1, -2])
(out / "annular.svg").write_text(render_braid(ann))

l = bk.make_loop([-1, 1, -2, 0, -1, 0])
(out / "loop.svg").write_text(render_loop(l))
(out / "canonical.svg").write_text(render_loop(bk.canonical_loop(5, basepoint=True)))

image = bk.act(b, bk.canonical_loop(3, basepoint=True))
(out / "image_loop.svg").write_text(render_loop(image))

for f in sorted(out.iterdir()):
    print("wrote", f)
