import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import hetnet.rng as rng_module
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


class _ScalarPoissonRng(Rng):
    """The scalar Poisson sampler that Rng.poissons replaced, kept verbatim."""

    __slots__ = ()

    def poisson(self, lam: float) -> int:
        if lam < 0.0 or not math.isfinite(lam):
            raise ValueError(f"Poisson rate must be finite and >= 0, got {lam}")
        if lam == 0.0:
            return 0
        if lam < 30.0:
            return self._poisson_product(lam)
        return self._poisson_ptrs(lam)

    def _poisson_product(self, lam: float) -> int:
        # Knuth: count uniforms until their product drops below exp(-lam).
        limit = math.exp(-lam)
        k = 0
        prod = self.uniform()
        while prod > limit:
            k += 1
            prod *= self.uniform()
        return k

    def _poisson_ptrs(self, lam: float) -> int:
        # Hormann (1993) PTRS transformed rejection, valid for lam >= 10.
        log_lam = math.log(lam)
        b = 0.931 + 2.53 * math.sqrt(lam)
        a = -0.059 + 0.02483 * b
        inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
        v_r = 0.9277 - 3.6224 / (b - 2.0)
        while True:
            u = self.uniform() - 0.5
            v = self.uniform()
            us = 0.5 - abs(u)
            k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= v_r:
                return int(k)
            if k < 0 or (us < 0.013 and v > us):
                continue
            lhs = math.log(v * inv_alpha / (a / (us * us) + b))
            if lhs <= k * log_lam - lam - math.lgamma(k + 1.0):
                return int(k)


def _assert_poissons_match_scalar(seed: int, rates) -> None:
    block, scalar = Rng(seed), _ScalarPoissonRng(seed)
    got = block.poissons(rates)
    want = [scalar.poisson(r) for r in rates]
    assert got.dtype == np.int64 and got.shape == (len(rates),)
    assert got.tolist() == want
    # both streams continue from the same state
    assert block.next_u64() == scalar.next_u64()


# every branch and its edges: no draw, one uniform, the product method,
# the PTRS boundary and PTRS up to the clamp rate exp(12)
_RATES = st.one_of(
    st.sampled_from([0.0, 1e-300, 30.0, math.exp(12.0)]),
    st.floats(min_value=0.0, max_value=30.0, exclude_max=True),
    st.floats(min_value=30.0, max_value=math.exp(12.0)),
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       rates=st.lists(_RATES, max_size=40))
def test_poissons_equal_scalar_draws(seed, rates):
    _assert_poissons_match_scalar(seed, rates)


@pytest.mark.parametrize("cap", [1, 2])
def test_poissons_refill_within_a_draw(monkeypatch, cap):
    # one- and two-uniform blocks run out inside every product draw with
    # rate > 0 and inside every PTRS attempt
    monkeypatch.setattr(rng_module, "_POISSON_BLOCK_CAP", cap)
    rates = [0.0, 3.0, 29.5, 30.0, 0.0, 1e-300, 250.0, math.exp(12.0), 12.5]
    for seed in range(20):
        _assert_poissons_match_scalar(seed, rates)


def test_poissons_empty_and_all_zero_draw_nothing():
    for rates in ([], [0.0, 0.0]):
        rng = Rng(5)
        assert rng.poissons(rates).tolist() == [0] * len(rates)
        assert rng.next_u64() == Rng(5).next_u64()


@pytest.mark.parametrize("rates, shown", [
    ([1.0, -2.0, float("nan")], "-2.0"),
    ([float("nan"), -1.0], "nan"),
    ([0.0, 40.0, float("inf")], "inf"),
    ([float("-inf")], "-inf"),
])
def test_poissons_reject_the_first_bad_rate(rates, shown):
    rng = Rng(3)
    with pytest.raises(ValueError, match=f"finite and >= 0, got {shown}$"):
        rng.poissons(rates)
    # checked before any draw
    assert rng.next_u64() == Rng(3).next_u64()


def test_poisson_rate_zero():
    rng = Rng(1)
    assert rng.poissons([0.0] * 20).tolist() == [0] * 20


def test_poisson_rejects_bad_rate():
    rng = Rng(1)
    with pytest.raises(ValueError):
        rng.poissons([-1.0])
    with pytest.raises(ValueError):
        rng.poissons([float("nan")])
    with pytest.raises(ValueError):
        rng.poissons([float("inf")])


def test_poisson_deterministic():
    xs = [Rng(11).poissons([3.5]).tolist() for _ in range(100)]
    ys = [Rng(11).poissons([3.5]).tolist() for _ in range(100)]
    assert xs == ys


def _poisson_chisq(seed: int, lam: float, n_draws: int = 2000) -> None:
    """Chi-square goodness of fit of n_draws samples against Poisson(lam).

    Bins are consecutive counts grouped so every expected cell count is
    at least 5, with open tails on both ends.
    """
    # one block draw per rate equals that many scalar draws, value for value
    draws = Rng(seed).poissons([lam] * n_draws).tolist()

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
    lam = 200.0
    n = 4000
    draws = Rng(9).poissons([lam] * n).tolist()
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
