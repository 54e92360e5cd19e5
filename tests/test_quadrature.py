import math

import numpy as np
import pytest
from scipy import special

from wickllt.quadrature import MAX_RULE_NODES, gauss_hermite_rule, tensor_grid, tensor_rule


# every coarse and fine count a shipped config reaches, and the largest rule
@pytest.mark.parametrize("nodes", [1, 2, 8, 24, 28, 32, 48, 56, 64, MAX_RULE_NODES])
def test_rule_matches_scipy(nodes):
    x, w = gauss_hermite_rule(nodes)
    ref_x, ref_w = special.roots_hermitenorm(nodes)
    ref_w = ref_w / math.sqrt(2.0 * math.pi)
    assert np.abs(x - ref_x).max() <= 1e-11
    resolved = ref_w > 1e-280
    assert np.all(np.abs(w - ref_w)[resolved] <= 1e-10 * ref_w[resolved])
    assert np.all(w[~resolved] <= 1e-270)


@pytest.mark.parametrize("nodes", range(1, 13))
def test_gaussian_moments_exact(nodes):
    # E[x^(2j)] = (2j-1)!! and odd moments vanish, for every degree <= 2n-1
    x, w = gauss_hermite_rule(nodes)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    for degree in range(2 * nodes):
        moment = float(np.dot(w, x**degree))
        if degree % 2:
            assert abs(moment) <= 1e-13 * max(1.0, math.prod(range(degree, 0, -2)))
        else:
            exact = math.prod(range(degree - 1, 0, -2))
            assert moment == pytest.approx(exact, rel=1e-13)


def test_rule_refuses_counts_outside_its_range():
    with pytest.raises(ValueError, match="at least one"):
        gauss_hermite_rule(0)
    with pytest.raises(ValueError, match=f"limited to {MAX_RULE_NODES} nodes"):
        gauss_hermite_rule(MAX_RULE_NODES + 1)


@pytest.mark.parametrize("nodes", [1, 8, 56])
def test_one_dimensional_tensor_rule_is_the_rule(nodes):
    # the general product route at d = 1 returns the rule itself, bit for bit
    x, w = gauss_hermite_rule(nodes)
    pts, wts = tensor_rule(1, nodes)
    assert pts.shape == (nodes, 1) and np.array_equal(pts, x[:, None])
    assert np.array_equal(wts, w)
    axis = np.linspace(-3.0, 3.0, nodes)
    grid = tensor_grid(1, nodes, 3.0)
    assert grid.shape == (nodes, 1) and np.array_equal(grid, axis[:, None])
