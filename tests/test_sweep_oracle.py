"""The event fibers of `selector.minimax_pieces` against the 512-fiber
sweep they replaced (`sweep_oracle`): the same section sequence, and each
piece end within one sweep spacing of the sweep's."""

import pytest

import sweep_oracle
from hjminimax import selector

SLICES = ["two_hump-t2-600", "two_hump-t2-1600", "two_hump-t2-2048", "two_hump-t2.8-1600",
          "burgers-t1.5-600", "burgers-t2.5-2048", "qflow-t1-4096"]


@pytest.mark.parametrize("name", SLICES)
def test_pieces_match_sweep_oracle(event_slices, name):
    ana = event_slices[name]
    pieces = selector.minimax_pieces(ana)
    ref, dq = sweep_oracle.minimax_pieces(ana)
    assert [sec for sec, _, _ in pieces] == [sec for sec, _, _ in ref]
    for (_, lo, hi), (_, ref_lo, ref_hi) in zip(pieces, ref):
        assert abs(lo - ref_lo) <= dq and abs(hi - ref_hi) <= dq
