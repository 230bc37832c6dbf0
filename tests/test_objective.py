import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hetnet import (
    CountNetwork,
    LossBreakdown,
    identifiability_penalty,
    l1_penalty,
    poisson_nll,
)
from hetnet.objective import _EXP_LIMIT, _SideLoss


def _naive_nll(f, g, A: np.ndarray, z: float) -> float:
    """O(n^2) double sum over ordered pairs; the independent oracle."""
    n = A.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lin = (f[i] + g[j]) / z
            total += math.exp(lin) - A[i, j] * lin
    return total


def _dense(net: CountNetwork) -> np.ndarray:
    A = np.zeros((net.n, net.n))
    for s, d, c in net.edges():
        A[s, d] = c
    return A


def _random_instance(seed: int, n: int, max_count: int = 6):
    rng = np.random.default_rng(seed)
    triplets = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.uniform() < 0.4:
                triplets.append((i, j, int(rng.integers(1, max_count))))
    net = CountNetwork.from_edges(n, triplets)
    f = rng.normal(scale=0.7, size=n)
    g = rng.normal(scale=0.7, size=n)
    return net, f, g


# -------------------------------------------------------------------- nll

def test_nll_zero_parameters():
    net = CountNetwork.from_edges(2, [(0, 1, 1)])
    assert poisson_nll(np.zeros(2), np.zeros(2), net) == 2.0


def test_nll_hand_computed_linear_term():
    net = CountNetwork.from_edges(2, [(0, 1, 1)])
    f = np.array([math.log(2.0), 0.0])
    g = np.zeros(2)
    # exp terms: e=(2,1), h=(1,1): 3*2 - 3 = 3; linear: 1*log 2
    assert poisson_nll(f, g, net) == pytest.approx(3.0 - math.log(2.0), rel=1e-15)


@pytest.mark.parametrize("seed,n", [(0, 3), (1, 8), (2, 14), (3, 20)])
def test_nll_matches_naive_double_sum(seed, n):
    net, f, g = _random_instance(seed, n)
    fast = poisson_nll(f, g, net)
    slow = _naive_nll(f, g, _dense(net), 1.0)
    assert fast == pytest.approx(slow, rel=1e-10)


def test_nll_matches_naive_with_scaling():
    net, f, g = _random_instance(7, 9)
    z = 2.5
    assert poisson_nll(f, g, net, z_n=z) == pytest.approx(
        _naive_nll(f, g, _dense(net), z), rel=1e-10
    )


def test_nll_overflow_returns_inf():
    net = CountNetwork.from_edges(2, [(0, 1, 1)])
    assert poisson_nll(np.array([400.0, 0.0]), np.array([400.0, 0.0]), net) == np.inf
    # just inside the guard still evaluates (to a huge finite number)
    v = poisson_nll(np.array([300.0, 0.0]), np.array([300.0, 0.0]), net)
    assert np.isfinite(v)


def test_nll_shift_invariance_of_rates():
    # adding c to f and subtracting c from g fixes every rate, and the
    # linear term changes by c*(total_out - total_in)/z = 0
    net, f, g = _random_instance(11, 10)
    c = 0.37
    base = poisson_nll(f, g, net)
    shifted = poisson_nll(f + c, g - c, net)
    assert shifted == pytest.approx(base, rel=1e-12)


def test_nll_input_validation():
    net = CountNetwork.from_edges(2, [(0, 1, 1)])
    with pytest.raises(ValueError, match="shape"):
        poisson_nll(np.zeros(3), np.zeros(2), net)
    with pytest.raises(ValueError, match="finite"):
        poisson_nll(np.array([np.nan, 0.0]), np.zeros(2), net)
    with pytest.raises(ValueError, match="z_n"):
        poisson_nll(np.zeros(2), np.zeros(2), net, z_n=0.0)


def test_nll_is_convex_along_segments():
    # the map (f,g) -> nll is convex (sum of exp of affine minus affine);
    # check midpoint convexity on random segments
    net, f1, g1 = _random_instance(5, 8)
    _, f2, g2 = _random_instance(6, 8)
    mid = poisson_nll((f1 + f2) / 2, (g1 + g2) / 2, net)
    ends = 0.5 * (poisson_nll(f1, g1, net) + poisson_nll(f2, g2, net))
    assert mid <= ends + 1e-12


# -------------------------------------------------------------- gradients

def test_gradient_empty_graph_hand_value():
    net = CountNetwork.from_edges(2, [])
    _, grad = _SideLoss(np.zeros(2), net, 1.0, "alpha")(np.zeros(2))
    assert np.allclose(grad, [1.0, 1.0], atol=1e-15)


def test_gradient_zero_at_uniform_optimum():
    # uniform A_ij = c with alpha = beta = log(c)/2 is the exact MLE
    n, c = 6, 4.0
    net = CountNetwork.from_edges(
        n, [(i, j, int(c)) for i in range(n) for j in range(n) if i != j]
    )
    v = np.full(n, math.log(c) / 2.0)
    for side in ("alpha", "beta"):
        _, grad = _SideLoss(v, net, 1.0, side)(v)
        assert np.allclose(grad, 0.0, atol=1e-9)


@pytest.mark.parametrize("side", ["alpha", "beta"])
@pytest.mark.parametrize("seed,n", [(21, 5), (22, 11), (23, 15)])
def test_gradient_matches_finite_differences(side, seed, n):
    net, f, g = _random_instance(seed, n)
    z = 1.0
    fixed, vals = (g, f) if side == "alpha" else (f, g)
    _, grad = _SideLoss(fixed, net, z, side)(vals)
    # FD roundoff scales with the loss magnitude over the step; use a
    # balanced step and a loss-scaled absolute floor
    step = 1e-5
    floor = 1e-9 * max(1.0, abs(poisson_nll(f, g, net, z)))
    target = f if side == "alpha" else g
    for i in range(n):
        orig = target[i]
        target[i] = orig + step
        hi = poisson_nll(f, g, net, z)
        target[i] = orig - step
        lo = poisson_nll(f, g, net, z)
        target[i] = orig
        numeric = (hi - lo) / (2.0 * step)
        assert grad[i] == pytest.approx(numeric, rel=1e-6, abs=floor)


def test_gradient_with_z_scaling_matches_fd():
    net, f, g = _random_instance(31, 7)
    z = 3.0
    _, grad = _SideLoss(f, net, z, "beta")(g)
    step = 1e-6
    for j in range(net.n):
        orig = g[j]
        g[j] = orig + step
        hi = poisson_nll(f, g, net, z_n=z)
        g[j] = orig - step
        lo = poisson_nll(f, g, net, z_n=z)
        g[j] = orig
        assert grad[j] == pytest.approx((hi - lo) / (2 * step), rel=1e-6, abs=1e-8)


def test_gradient_overflow_returns_inf():
    net = CountNetwork.from_edges(2, [(0, 1, 1)])
    value, grad = _SideLoss(np.array([500.0, 0.0]), net, 1.0, "alpha")(
        np.array([500.0, 0.0]))
    assert value == np.inf
    assert grad is None


def test_gradient_side_validated():
    net = CountNetwork.from_edges(2, [(0, 1, 1)])
    with pytest.raises(ValueError, match="side"):
        _SideLoss(np.zeros(2), net, 1.0, "gamma")


# ------------------------------------------------- kernel properties

@st.composite
def _kernel_instances(draw):
    n = draw(st.integers(2, 12))
    z = draw(st.floats(0.25, 5.0))
    vals = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    f = np.array(draw(st.lists(vals, min_size=n, max_size=n)))
    g = np.array(draw(st.lists(vals, min_size=n, max_size=n)))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    counts = draw(st.lists(st.integers(0, 6), min_size=len(pairs), max_size=len(pairs)))
    net = CountNetwork.from_edges(n, [(i, j, c) for (i, j), c in zip(pairs, counts)])
    side = draw(st.sampled_from(["alpha", "beta"]))
    return net, f, g, z, side


@settings(max_examples=150, deadline=None)
@given(_kernel_instances())
def test_kernel_value_is_poisson_nll_bit_for_bit(inst):
    net, f, g, z, side = inst
    fixed, vals = (g, f) if side == "alpha" else (f, g)
    value, _ = _SideLoss(fixed, net, z, side)(vals)
    assert value == poisson_nll(f, g, net, z)


@settings(max_examples=150, deadline=None)
@given(_kernel_instances())
# one receiver holds almost all of sum_j h_j: S - h_0 would cancel
@example((CountNetwork.from_edges(2, []), np.array([1.0, 0.0]), np.array([3.0, -1.0]),
          0.25, "alpha"))
def test_kernel_gradient_matches_naive_double_sum(inst):
    net, f, g, z, side = inst
    A = _dense(net)
    fixed, vals = (g, f) if side == "alpha" else (f, g)
    _, grad = _SideLoss(fixed, net, z, side)(vals)
    for i in range(net.n):
        # d/df_i sums over j != i; d/dg_i sums over senders j != i
        terms = [
            (math.exp((f[i] + g[j]) / z) - A[i, j]) / z if side == "alpha"
            else (math.exp((f[j] + g[i]) / z) - A[j, i]) / z
            for j in range(net.n) if j != i
        ]
        naive = math.fsum(terms)
        scale = max(1.0, math.fsum(abs(t) for t in terms))
        assert abs(grad[i] - naive) <= 1e-10 * scale


def _fresh_kernel(f, g, net, z_n, side):
    """Both sides evaluated afresh on every call: the reference that a
    kernel holding one side fixed must match bit for bit."""
    if f.max() / z_n + g.max() / z_n > _EXP_LIMIT:
        return np.inf, None
    e = np.exp(f / z_n)
    h = np.exp(g / z_n)
    e_sum = e.sum()
    h_sum = h.sum()
    expo = e_sum * h_sum - e @ h
    linear = (net.out_degree @ f + net.in_degree @ g) / z_n

    def rest(x, total):
        out = total - x
        top = int(x.argmax())
        if 2.0 * x[top] > total:
            out[top] = np.delete(x, top).sum()
        return out

    if side == "alpha":
        grad = (e * rest(h, h_sum) - net.out_degree) / z_n
    else:
        grad = (h * rest(e, e_sum) - net.in_degree) / z_n
    return float(expo - linear), grad


@settings(max_examples=100, deadline=None)
@given(_kernel_instances(), st.integers(0, 2 ** 32 - 1))
def test_side_loss_reused_equals_fresh_evaluation(inst, seed):
    # a side update evaluates many trial vectors against one frozen side
    net, f, g, z, side = inst
    fixed = g if side == "alpha" else f
    side_loss = _SideLoss(fixed, net, z, side)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        vals = rng.uniform(-3.0, 3.0, size=net.n)
        got_value, got_grad = side_loss(vals)
        if side == "alpha":
            want_value, want_grad = _fresh_kernel(vals, fixed, net, z, side)
        else:
            want_value, want_grad = _fresh_kernel(fixed, vals, net, z, side)
        assert got_value == want_value
        assert np.array_equal(got_grad, want_grad)


@settings(max_examples=100, deadline=None)
@given(_kernel_instances(), st.floats(1e-6, 1e4))
def test_kernel_past_overflow_limit_returns_inf(inst, excess):
    net, f, g, z, side = inst
    # push one sender past the limit: max f/z + max g/z > _EXP_LIMIT
    f = f.copy()
    f[0] = z * (_EXP_LIMIT + excess) - g.max()
    fixed, vals = (g, f) if side == "alpha" else (f, g)
    value, grad = _SideLoss(fixed, net, z, side)(vals)
    assert value == np.inf
    assert grad is None
    assert poisson_nll(f, g, net, z) == np.inf


# ------------------------------------------------- identifiability penalty

def test_ident_penalty_at_target():
    value, grad = identifiability_penalty(np.array([2.0, -2.0, 3.0]), 3.0, 1.5)
    assert value == 0.0
    assert grad == 0.0


def test_ident_penalty_hand_value():
    # the gradient is the same for every node, so it is one scalar
    value, grad = identifiability_penalty(np.array([1.0, 1.0]), 0.0, 0.5)
    assert value == 2.0
    assert grad == 2.0


def test_ident_penalty_disabled():
    value, grad = identifiability_penalty(np.array([9.0, 9.0]), 0.0, 0.0)
    assert value == 0.0
    assert grad == 0.0


def test_ident_penalty_gradient_matches_fd():
    f = np.array([0.3, -1.2, 0.8, 2.0])
    gamma, target = 0.7, 0.25
    _, grad = identifiability_penalty(f, target, gamma)
    step = 1e-7
    for i in range(4):
        fp = f.copy()
        fm = f.copy()
        fp[i] += step
        fm[i] -= step
        hi, _ = identifiability_penalty(fp, target, gamma)
        lo, _ = identifiability_penalty(fm, target, gamma)
        assert grad == pytest.approx((hi - lo) / (2 * step), rel=1e-6)


def test_ident_penalty_rejects_negative_gamma():
    with pytest.raises(ValueError):
        identifiability_penalty(np.zeros(2), 0.0, -1.0)


# ------------------------------------------------------------- l1 penalty

def test_l1_zero_theta():
    assert l1_penalty(np.zeros(5), 3.0) == 0.0


def test_l1_hand_value():
    assert l1_penalty(np.array([1.0, -2.0, 3.0]), 2.0) == 12.0


def test_l1_zero_lambda():
    assert l1_penalty(np.array([5.0, -7.0]), 0.0) == 0.0


def test_l1_rejects_negative_lambda():
    with pytest.raises(ValueError):
        l1_penalty(np.zeros(2), -0.1)


# ---------------------------------------------------------- LossBreakdown

def test_loss_breakdown_total():
    b = LossBreakdown(nll=1.5, l1_alpha=0.25, l1_beta=0.5, ident_penalty=0.125)
    assert b.total == 2.375
