"""The counter RNG: vectorised draws against the scalar definition."""

import warnings

import numpy as np
import pytest

from invgen import InputError
from invgen.rng import MASK64, check_seed, draw64, draws_vec, stream_state, stream_states_vec

# the Weyl product PHI64 * (j + 1) wraps mod 2**64 for every j >= 1
DRAW_INDICES = [0, 1, 2**32, 10**6, 2**63 - 2]


def test_block_of_draws_matches_the_scalar_draws():
    states = stream_states_vec(20_260_814, np.arange(5))
    js = np.array(DRAW_INDICES, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = draws_vec(states, js)
    assert block.shape == (len(DRAW_INDICES), 5)
    for i in range(5):
        state = stream_state(20_260_814, i)
        assert int(states[i]) == state
        for k, j in enumerate(DRAW_INDICES):
            assert int(block[k, i]) == draw64(state, j), (i, j)


def test_block_of_draws_fills_its_out_buffer():
    states = stream_states_vec(3, np.arange(4))
    js = np.arange(7, 10)
    out, scratch = np.empty((3, 4), np.uint64), np.empty((3, 4), np.uint64)
    assert draws_vec(states, js, out=out, scratch=scratch) is out
    for i in range(4):
        for k, j in enumerate(js):
            assert int(out[k, i]) == draw64(stream_state(3, i), int(j)), (i, j)


@pytest.mark.parametrize("seed", [-1, -5, 2**64, 2**64 + 3])
def test_seed_outside_64_bits_is_rejected(seed):
    with pytest.raises(InputError, match="seed"):
        check_seed(seed)


def test_seed_edges_are_accepted():
    check_seed(0)
    check_seed(MASK64)
