"""Property test: a batched envelope row does not depend on its batch."""

import numpy as np
import pytest

import boxflow as bf

from conftest import _sup_envelope_oracle

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
       case=st.sampled_from(["zero-set", "horizon", "absorbed", "escape"]))
def test_sup_envelope_rows_do_not_depend_on_the_batch(envelope_cases, seed, n, case):
    # any batch, in any order, gives every row its single-point envelope
    system, pair, rho_fn, _ = envelope_cases[case]
    rng = np.random.default_rng(seed)
    lo, hi = system.domain[0]
    pts = rng.uniform(lo - 0.1, hi + 0.1, size=(n, 1))
    h, converged = bf.sup_envelope(system, pair, rho_fn, pts, horizon=2.0)
    for i, x in enumerate(pts):
        assert (h[i], converged[i]) == _sup_envelope_oracle(system, pair, rho_fn, x,
                                                            horizon=2.0)
    order = rng.permutation(n)
    h2, c2 = bf.sup_envelope(system, pair, rho_fn, pts[order], horizon=2.0)
    np.testing.assert_array_equal(h2, h[order])
    np.testing.assert_array_equal(c2, converged[order])
