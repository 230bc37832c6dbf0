import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from hetnet import Rng, derive_seed, seed_for

# GOF tests reject at 1e-4 so a seeded run is effectively deterministic
# while still catching a broken sampler.
_ALPHA = 1e-4


def test_same_seed_same_stream():
    a = Rng(123)
    b = Rng(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_differ():
    xs = [Rng(1).next_u64() for _ in range(8)]
    ys = [Rng(2).next_u64() for _ in range(8)]
    assert xs != ys


def test_uniform_support():
    rng = Rng(7)
    draws = [rng.uniform() for _ in range(10_000)]
    assert all(0.0 <= u < 1.0 for u in draws)


def test_uniform_mean_clt():
    rng = Rng(42)
    n = 100_000
    mean = sum(rng.uniform() for _ in range(n)) / n
    # sd of the mean is sqrt(1/12/n) ~ 9.1e-4; allow 5 sigma
    assert abs(mean - 0.5) < 5.0 * math.sqrt(1.0 / 12.0 / n)


def test_uniform_signed_support_excludes_zero():
    rng = Rng(99)
    draws = [rng.uniform_signed() for _ in range(10_000)]
    assert all(-1.0 < u < 1.0 and u != 0.0 for u in draws)


def test_uniform_signed_mean_near_zero():
    rng = Rng(4)
    n = 100_000
    mean = sum(rng.uniform_signed() for _ in range(n)) / n
    assert abs(mean) < 5.0 * math.sqrt(1.0 / 3.0 / n)


def _assert_block_matches_scalar(seed: int, k: int) -> None:
    block, scalar = Rng(seed), Rng(seed)
    got = block.uniforms(k)
    want = np.array([scalar.uniform() for _ in range(k)], dtype=np.float64)
    assert got.shape == (k,) and got.dtype == np.float64
    assert np.array_equal(got, want)
    # both streams continue from the same state
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("k", [0, 1, 10_000])
def test_uniforms_block_equals_scalar_draws(seed, k):
    _assert_block_matches_scalar(seed, k)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       k=st.sampled_from([0, 1, 10_000]))
def test_uniforms_block_equals_scalar_draws_any_seed(seed, k):
    _assert_block_matches_scalar(seed, k)


def test_poisson_rate_zero():
    rng = Rng(1)
    assert all(rng.poisson(0.0) == 0 for _ in range(20))


def test_poisson_rejects_bad_rate():
    rng = Rng(1)
    with pytest.raises(ValueError):
        rng.poisson(-1.0)
    with pytest.raises(ValueError):
        rng.poisson(float("nan"))
    with pytest.raises(ValueError):
        rng.poisson(float("inf"))


def test_poisson_deterministic():
    xs = [Rng(11).poisson(3.5) for _ in range(100)]
    ys = [Rng(11).poisson(3.5) for _ in range(100)]
    assert xs == ys


def _poisson_chisq(seed: int, lam: float, n_draws: int = 2000) -> None:
    """Chi-square goodness of fit of n_draws samples against Poisson(lam).

    Bins are consecutive counts grouped so every expected cell count is
    at least 5, with open tails on both ends.
    """
    rng = Rng(seed)
    draws = [rng.poisson(lam) for _ in range(n_draws)]

    lo = 0
    hi = int(lam + 6.0 * math.sqrt(lam)) + 2
    probs = [math.exp(stats.poisson.logpmf(k, lam)) for k in range(lo, hi)]
    # group adjacent cells until expected >= 5, then a closing tail cell
    edges: list[int] = []  # bin k covers counts in [edges[k], edges[k+1])
    acc = 0.0
    start = lo
    bin_probs = []
    for k in range(lo, hi):
        acc += probs[k]
        if acc * n_draws >= 5.0:
            edges.append(start)
            bin_probs.append(acc)
            start = k + 1
            acc = 0.0
    # fold the residual upper tail (and any unfinished group) into the
    # last bin and make it open-ended
    bin_probs[-1] += 1.0 - sum(bin_probs)
    edges.append(10 ** 9)

    observed = [0] * len(bin_probs)
    for d in draws:
        for b in range(len(bin_probs)):
            if edges[b] <= d < edges[b + 1]:
                observed[b] += 1
                break
        else:
            observed[-1] += 1

    chisq = sum(
        (obs - n_draws * p) ** 2 / (n_draws * p)
        for obs, p in zip(observed, bin_probs)
    )
    dof = len(bin_probs) - 1
    assert chisq < stats.chi2.ppf(1.0 - _ALPHA, dof), (
        f"lam={lam}: chisq={chisq:.1f} exceeds {_ALPHA} critical value "
        f"at dof={dof}"
    )


def test_poisson_gof_product_branch():
    # rate below 30 exercises the exponential-product sampler
    _poisson_chisq(seed=2024, lam=3.0)


def test_poisson_gof_moderate_rate():
    _poisson_chisq(seed=515, lam=12.5)


def test_poisson_gof_ptrs_branch():
    # rate >= 30 exercises the transformed-rejection sampler
    _poisson_chisq(seed=77, lam=50.0)


def test_poisson_gof_at_branch_boundary():
    _poisson_chisq(seed=31337, lam=30.0)


def test_poisson_moments_large_rate():
    rng = Rng(9)
    lam = 200.0
    n = 4000
    draws = [rng.poisson(lam) for _ in range(n)]
    mean = sum(draws) / n
    var = sum((d - mean) ** 2 for d in draws) / (n - 1)
    # mean sd = sqrt(lam/n) ~ 0.22; variance is noisier
    assert abs(mean - lam) < 5.0 * math.sqrt(lam / n)
    assert abs(var - lam) < 0.15 * lam


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(5, 0) == derive_seed(5, 0)
    seeds = {derive_seed(5, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(5, 0) != derive_seed(6, 0)


def test_seed_for_is_name_keyed():
    assert seed_for("attributes", 1) == seed_for("attributes", 1)
    assert seed_for("attributes", 1) != seed_for("network", 1)
    assert seed_for("attributes", 1) != seed_for("attributes", 2)


def test_seed_fits_in_64_bits():
    for s in (derive_seed(123, 456), seed_for("method-x", 789)):
        assert 0 <= s < 2 ** 64
