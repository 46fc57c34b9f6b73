"""A known-answer canary for numpy's random streams.

numpy does not promise that ``Generator`` streams stay the same across
releases (NEP 19), so a seed alone reproduces a ``simulate`` run only under
the numpy that produced it. These values were frozen under numpy 2.4.6, at
two (seed, index) keys, keyed as ``derive_substream(seed, index).generator()``
keys them: raw Philox words, then ``standard_normal`` and ``random`` doubles
from fresh generators. A numpy upgrade that moves a stream fails this one
named test first, before any golden case.
"""

import numpy as np
import pytest

from replikit.simulation import derive_substream

CANARY = {
    (42, 7): (
        [0xA64064F34E84B9A3, 0xE287959A866A08FD, 0x8DC181F009B96C03, 0xF3F6001D4FA83454],
        ["-0x1.64e50926092ebp-2", "0x1.0cc46fe239599p-2", "0x1.2793577df6669p-3"],
        ["0x1.4c80c9e69d097p-1", "0x1.c50f2b350cd41p-1", "0x1.1b8303e01372dp-1"],
    ),
    (2**64 - 1, 2**40 + 3): (
        [0xDCCFF60EFEBB7D72, 0xCEF0A246AECD46BC, 0x11E1DB53B920BA38, 0x6643D3B2F912C15B],
        ["-0x1.4c31e5274b97fp+0", "0x1.db79a2d0783eep-1", "0x1.2824450f2564cp-1"],
        ["0x1.b99fec1dfd76fp-1", "0x1.9de1448d5d9a8p-1", "0x1.1e1db53b920b8p-4"],
    ),
}


def assert_streams_as_frozen() -> None:
    for (seed, index), (raw, normal, uniform) in CANARY.items():
        stream = derive_substream(seed, index)
        got = (
            [int(x) for x in stream.generator().bit_generator.random_raw(len(raw))],
            [float(x).hex() for x in stream.generator().standard_normal(len(normal))],
            [float(x).hex() for x in stream.generator().random(len(uniform))],
        )
        assert got == (raw, normal, uniform), (
            f"numpy {np.__version__} draws other values at key ({seed}, {index}) than "
            f"numpy 2.4.6 did. NEP 19 lets Generator streams change between numpy "
            f"releases, so every seeded simulate output may have moved: {got}"
        )


def test_numpy_streams_are_the_frozen_ones():
    assert_streams_as_frozen()


def test_the_canary_fails_under_a_changed_standard_normal(monkeypatch):
    class Shifted(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            return super().standard_normal(*args, **kwargs) + 2.0**-40

    monkeypatch.setattr(np.random, "Generator", Shifted)
    with pytest.raises(AssertionError, match=rf"numpy {np.__version__} .*NEP 19"):
        assert_streams_as_frozen()
