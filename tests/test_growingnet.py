"""Mixed uniform/preferential growing network."""

import numpy as np
import pytest

from prtail.errors import ParameterError
from prtail.growingnet import GrowthParams, generate
from prtail.tailstats import fit_tail_fraction


def test_growth_params_validation():
    GrowthParams(beta=0.2, d=8, n_final=100, seed=0)
    for bad in (
        dict(beta=-0.1, d=8, n_final=100, seed=0),
        dict(beta=1.1, d=8, n_final=100, seed=0),
        dict(beta=0.2, d=0, n_final=100, seed=0),
        dict(beta=0.2, d=True, n_final=100, seed=0),
        dict(beta=0.2, d=2.5, n_final=100, seed=0),
        dict(beta=0.2, d=8, n_final=8, seed=0),
        dict(beta=0.2, d=8, n_final=100, seed=-1),
    ):
        with pytest.raises(ParameterError):
            GrowthParams(**bad)


def test_generate_structure_invariants():
    params = GrowthParams(beta=0.3, d=5, n_final=400, seed=11)
    g = generate(params)
    assert g.n == 400
    assert g.m == 400 * 5
    assert np.all(g.out_degree == 5)
    assert not np.any(g.src == g.dst)
    # per-source targets are distinct: sorted (src, dst) pairs never repeat
    pair_keys = g.src * np.int64(g.n) + g.dst
    assert np.unique(pair_keys).size == g.m
    assert int(g.in_degree.sum()) == g.m


def test_generate_is_deterministic():
    params = GrowthParams(beta=0.2, d=4, n_final=300, seed=7)
    a, b = generate(params), generate(params)
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    other = generate(GrowthParams(beta=0.2, d=4, n_final=300, seed=8))
    assert not np.array_equal(a.dst, other.dst)


def test_generate_minimal_case_explores_all_targets():
    # d=1, n=3, uniform attachment: node 2 aims at 0 or 1; both must
    # occur across seeds, and every edge stays a valid non-self link
    hits = set()
    for seed in range(40):
        g = generate(GrowthParams(beta=1.0, d=1, n_final=3, seed=seed))
        assert np.all(g.out_degree == 1)
        assert not np.any(g.src == g.dst)
        growth_target = int(g.dst[g.src == 2][0])
        assert growth_target in (0, 1)
        hits.add(growth_target)
    assert hits == {0, 1}


def test_beta_zero_support_absorbs_onto_initial_nodes():
    # with no uniform mixing, preferential picks can never leave the
    # support of already-hit nodes, so every grower links to exactly the
    # d initial nodes; only the closing wiring touches anyone else
    g = generate(GrowthParams(beta=0.0, d=8, n_final=1000, seed=0))
    assert np.all(g.in_degree[:8] >= 1000 - 8)
    assert np.all(g.in_degree[8:] <= 1)


def test_more_uniform_mixing_lightens_the_tail():
    heavy = generate(GrowthParams(beta=0.2, d=3, n_final=4000, seed=5))
    light = generate(GrowthParams(beta=1.0, d=3, n_final=4000, seed=5))
    assert heavy.in_degree.max() > light.in_degree.max()
    heavy_fit = fit_tail_fraction(heavy.in_degree[heavy.in_degree > 0].astype(float), 0.1)
    light_fit = fit_tail_fraction(light.in_degree[light.in_degree > 0].astype(float), 0.1)
    assert heavy_fit.alpha_ccdf < light_fit.alpha_ccdf


def test_generate_leaves_global_random_state_untouched():
    np.random.seed(999)
    before = np.random.random(3)
    np.random.seed(999)
    generate(GrowthParams(beta=0.5, d=3, n_final=100, seed=7))
    after = np.random.random(3)
    assert np.array_equal(before, after)
