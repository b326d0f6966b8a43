"""Layout positions pinned bit for bit.

Each case is (distribution, count, arena side, seed, min_spacing or None
for the default, SHA-256 of ``positions.tobytes()``).  The cases cover
all three distributions at the grid's arena/count pairs, a non-standard
7 m arena, random layouts with spacing 0 and 0.5 (many rejections),
clustered and powerlaw specs whose anchors need restarts, and count 0.
The values were recorded from the plain generators, before their fast
paths went in; a change to any of them is a behaviour change.
"""
import hashlib

import numpy as np
import pytest

from swarmforage.core import Arena
from swarmforage.layouts import Distribution, LayoutError, LayoutSpec, generate

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

GOLDEN = [
    ("random", 64, 6.0, 0, None, "7e6cd229c5bb740eae6acaf8d0d59d8d1a7cf902509e3e102ebe3939d24196c2"),
    ("clustered", 64, 6.0, 0, None, "f9e1170823c59952af806ab737a9466eac9099923d70ad564fab8259aa928393"),
    ("powerlaw", 64, 6.0, 0, None, "ed4cda8240aac0d9e7789d9c2bbe3f0e7ab69ce47c7486b12c0bb5912e66d9e8"),
    ("random", 128, 8.0, 1, None, "cee2f2dd034cd84e9a9768f208a6d7b9781462c3cd2cc2bfafd266e2dffd8774"),
    ("clustered", 128, 8.0, 1, None, "d5ff8767f519b0ea69560a6426bf2088f4a4b64f65bb14c1737f738cdbcf8501"),
    ("powerlaw", 128, 8.0, 1, None, "da7fe5b3944f16b15a7fb9b95674213e521ab117003489157a0d38df54ef2d51"),
    ("random", 256, 10.0, 2, None, "1146f6a3fb732cd6b1c0954ec6d4a509f8176e89aac2cc813df56d1ff346b44b"),
    ("clustered", 256, 10.0, 2, None, "f4808823a06fe7a7c5bd7d397fa9a39335ceea61a6bbe463dce091dbe4a34904"),
    ("powerlaw", 256, 10.0, 2, None, "734d12ffb2d0ff263e4ce251d61f628f1a43d9156e0cb7331ff05b6de568f1e4"),
    ("random", 64, 7.0, 3, None, "9c8e778b9c98b189d71efdde52884f76a4f42dfd5ed46b343c87880bebb0f091"),
    ("clustered", 64, 7.0, 3, None, "7da850f39490981c5ab915ed85b7362aee1555ffb15efa857df511b50334a269"),
    ("powerlaw", 128, 7.0, 3, None, "fadc91209d930bc300228bb92ca607f2138f2aef2ee0ca2f83f93c93e3b621bc"),
    ("random", 64, 6.0, 4, 0.0, "1bb693041b82b4699eb590964eeb00d7ec0af5afca4a1f56b7943c5eca7c265f"),
    ("random", 64, 6.0, 5, 0.5, "03ffad0deb7373e63c784e11c1c3a3195f32b595e9c3db4a0191122129a84aca"),
    ("random", 128, 8.0, 6, 0.5, "c41c6121286d6933451c53478ca18211f32170c968a9e3e1c938b176b5300fca"),
    # four restarts of the anchor placement
    ("clustered", 256, 4.0, 6, None, "d4f198fc4cc553069ee75252615ee329a761972d77dd96b0971abec6e8e74070"),
    # two restarts
    ("powerlaw", 256, 4.5, 12, None, "525ed50e169b386c6f9b7dd54d18c0fd0b5b118ada4444d7eb5894b5a48765c2"),
    ("random", 0, 6.0, 0, None, EMPTY),
    ("clustered", 0, 6.0, 0, None, EMPTY),
    ("powerlaw", 0, 6.0, 0, None, EMPTY),
]


def _spec(dist, count, side, seed, spacing):
    extra = {} if spacing is None else {"min_spacing": spacing}
    return LayoutSpec(Distribution(dist), count, Arena.square(side), seed=seed, **extra)


@pytest.mark.parametrize(
    "dist,count,side,seed,spacing,digest", GOLDEN,
    ids=[f"{d}-{c}-{s:g}m-seed{sd}" + ("" if sp is None else f"-spacing{sp:g}")
         for d, c, s, sd, sp, _ in GOLDEN],
)
def test_layout_positions_are_pinned(dist, count, side, seed, spacing, digest):
    positions = generate(_spec(dist, count, side, seed, spacing)).positions
    assert positions.shape == (count, 2)
    assert positions.dtype == np.float64
    assert hashlib.sha256(positions.tobytes()).hexdigest() == digest


def test_impossible_spacing_still_raises():
    with pytest.raises(LayoutError, match="after 10000 attempts"):
        generate(_spec("random", 64, 6.0, 0, 5.0))
