import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import generator_split, stream_split

from fedsplit import rng as rngmod
from fedsplit.errors import ConfigError, ProtocolIntegrityError
from fedsplit.splitting import SplitRule, split_cohort, split_draws, z_sequence


def constraint_residual(w, visible, invisible) -> float:
    """Relative residual of visible + sum_n invisible_n = (1 + m) w for the
    one-row split (visible (1, d), invisible (1, m, d)) of a model w."""
    total = visible[0] + sum(invisible[0])
    target = (1 + len(invisible[0])) * w
    scale = max(1.0, float(np.max(np.abs(target))))
    return float(np.max(np.abs(total - target))) / scale


def test_split_model_invisible_is_one_block():
    _, invisible = stream_split(np.arange(3.0)[None], SplitRule("uniform", m=4, eps_split=0.2), rngmod.stream(0, 9))
    assert isinstance(invisible, np.ndarray)
    assert invisible.shape == (1, 4, 3)


def test_rule_validation():
    with pytest.raises(ConfigError):
        SplitRule("uniform", m=0)
    with pytest.raises(ConfigError):
        SplitRule("uniform", eps_split=1.0)
    with pytest.raises(ConfigError):
        SplitRule("laplace", scale=0.0)
    with pytest.raises(ConfigError):
        SplitRule("gaussian")


def test_midpoint_split_is_the_local_model():
    rng = rngmod.stream(0, 1)
    visible, invisible = stream_split(np.array([[2.0]]), SplitRule("midpoint", m=1), rng)
    assert visible[0, 0] == pytest.approx(2.0, abs=0)
    assert invisible[0, 0, 0] == pytest.approx(2.0, abs=0)


def test_sum_constraint_absorber():
    # m=1, w=2.0, visible drawn at 1.5 -> invisible must be 2.5
    assert constraint_residual(np.array([2.0]), np.array([[1.5]]), np.array([[[2.5]]])) <= 1e-12
    rng = rngmod.stream(3, 1)
    visible, invisible = stream_split(np.array([[2.0]]), SplitRule("uniform", m=1, eps_split=0.25), rng)
    assert visible[0, 0] + invisible[0, 0, 0] == pytest.approx(4.0, abs=1e-12)


def test_degenerate_zero_model():
    rng = rngmod.stream(1, 1)
    visible, invisible = stream_split(np.zeros((1, 3)), SplitRule("uniform", m=2, eps_split=0.5), rng)
    assert np.allclose(visible, 0.0)
    assert constraint_residual(np.zeros(3), visible, invisible) == 0.0


def test_uniform_support_with_sign_handling():
    rng = rngmod.stream(2, 1)
    w = np.array([1.0, -2.0, 0.5])
    rule = SplitRule("uniform", m=1, eps_split=0.3)
    for _ in range(200):
        vis = stream_split(w[None], rule, rng)[0][0]
        lo = np.minimum(rule.eps_split * w, (1 + rule.m - rule.eps_split) * w)
        hi = np.maximum(rule.eps_split * w, (1 + rule.m - rule.eps_split) * w)
        assert np.all(vis >= lo - 1e-12) and np.all(vis <= hi + 1e-12)


@given(
    hnp.arrays(np.float64, st.integers(1, 4), elements=st.floats(-5, 5, allow_nan=False)),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["uniform", "laplace", "midpoint"]),
    st.integers(min_value=0, max_value=10_000),
)
def test_sum_constraint_always_exact(w, m, variant, seed):
    rule = SplitRule(variant, m=m, eps_split=0.4, scale=0.7)
    visible, invisible = stream_split(w[None], rule, rngmod.stream(seed, 9))
    assert constraint_residual(w, visible, invisible) <= 1e-9
    assert invisible.shape[1] == m


@given(
    hnp.arrays(
        np.float64, st.integers(1, 6),
        elements=st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3, allow_nan=False)),
    ),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.0, 0.3, 0.9]),
    st.integers(min_value=0, max_value=10_000),
)
def test_uniform_split_draws_match_generator_uniform(w, m, eps, seed):
    words = rngmod.seed_words(seed, 9)
    rule = SplitRule("uniform", m=m, eps_split=eps)
    got_visible, got_invisible = split_cohort(w[None], rule, split_draws(words[None], rule, len(w)))
    # reference: the Generator.uniform draws, with their no-draw branches
    ref_rng = rngmod.generator(words)
    a, b = eps * w, (1 + m - eps) * w
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    visible = ref_rng.uniform(lo, hi) if (hi > lo).any() else lo.copy()
    half = np.abs(w)
    free = [
        ref_rng.uniform(w - half, w + half) if np.any(half > 0) else w.copy()
        for _ in range(m - 1)
    ]
    # bytes, not values: signed zeros must match too
    assert got_visible[0].tobytes() == visible.tobytes()
    for sub, want in zip(got_invisible[0], free):
        assert sub.tobytes() == want.tobytes()


def reference_split_model(w, rule, rng):
    """The per-model split that `split_cohort` stacked: one model, its own
    stream, the visible draw, then one call per non-absorbing invisible."""
    if rule.variant == "uniform":
        a = rule.eps_split * w
        b = (1 + rule.m - rule.eps_split) * w
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        visible = lo + (hi - lo) * rng.random(lo.shape) if (hi > lo).any() else lo.copy()
    elif rule.variant == "laplace":
        visible = w + rng.laplace(0.0, rule.scale, size=w.shape)
    else:
        visible = (1 + rule.m) / 2.0 * w
    invisible = []
    for _ in range(rule.m - 1):
        half = np.abs(w)
        lo, hi = w - half, w + half
        invisible.append(lo + (hi - lo) * rng.random(w.shape) if np.any(half > 0) else w.copy())
    absorber = (1 + rule.m) * w - visible - sum(invisible) if invisible else (1 + rule.m) * w - visible
    return visible, invisible + [absorber]


@settings(max_examples=200)
@given(
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    m=st.integers(1, 3),
    variant=st.sampled_from(["uniform", "laplace", "midpoint"]),
    eps=st.sampled_from([0.0, 0.3, 0.9]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_split_cohort_matches_per_row_split(shape, m, variant, eps, seed, data):
    w = data.draw(hnp.arrays(
        np.float64, shape,
        elements=st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3, allow_nan=False)),
    ))
    # all-zero rows take the branches that draw nothing
    zero_rows = data.draw(hnp.arrays(np.bool_, shape[0]))
    w[zero_rows] = data.draw(st.sampled_from([0.0, -0.0]))
    rule = SplitRule(variant, m=m, eps_split=eps, scale=0.7)
    words = rngmod.seed_words(seed, 9, np.arange(shape[0]))
    visible, invisible = split_cohort(w, rule, split_draws(words, rule, shape[1]))
    assert visible.shape == shape and invisible.shape == (shape[0], m, shape[1])
    for i in range(shape[0]):
        want_visible, want_invisible = reference_split_model(w[i], rule, rngmod.generator(words[i]))
        # bytes, not values: signed zeros must match too
        assert visible[i].tobytes() == want_visible.tobytes()
        assert invisible[i].tobytes() == np.stack(want_invisible).tobytes()


# model entries that take every branch: signed zeros, the smallest
# subnormals (whose m = 1 uniform interval rounds to one point), and
# ordinary values
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
)


@settings(max_examples=200)
@given(
    rounds=st.integers(1, 3),
    u=st.integers(1, 5),
    d=st.integers(1, 5),
    m=st.integers(1, 4),
    variant=st.sampled_from(["uniform", "laplace", "midpoint"]),
    eps=st.sampled_from([0.0, 0.3, 0.9]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_block_draw_split_matches_generator_split(rounds, u, d, m, variant, eps, seed, data):
    # the doubles of a block of rounds are drawn in one pass, as training
    # draws them; each round's split must equal the split with one
    # Generator per slot, bitwise
    rule = SplitRule(variant, m=m, eps_split=eps, scale=0.7)
    W = data.draw(hnp.arrays(np.float64, (rounds, u, d), elements=ENTRIES))
    # all-zero rows draw nothing; all-subnormal rows draw no m = 1 visible part
    fill = data.draw(hnp.arrays(np.int8, (rounds, u), elements=st.integers(0, 2)))
    W[fill == 1] = data.draw(st.sampled_from([0.0, -0.0]))
    W[fill == 2] = data.draw(st.sampled_from([5e-324, -5e-324]))
    words = rngmod.seed_words(seed, rngmod.SPLITTING, np.arange(1, rounds + 1)[:, None], np.arange(u))
    draws = split_draws(words, rule, d)
    assert draws.shape == (rounds, u, rule.draw_count(d))
    for t in range(rounds):
        got = split_cohort(W[t], rule, draws[t])
        want = generator_split(W[t], rule, [rngmod.generator(row) for row in words[t]])
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def words_with_zero_output(j: int, initseq: int = 12345) -> np.ndarray:
    """Seed words of a PCG64 stream whose output j (1-based) is 0, so its
    double j is exactly 0.0: the state stepped to before output j is 0,
    solved from s_j = MULT**(j+1) (inc + initstate) + inc sum_{i<=j} MULT**i."""
    mult, mod = rngmod._PCG_MULT, 2**128
    inc = (2 * initseq + 1) % mod
    b_j = sum(pow(mult, i, mod) for i in range(j + 1)) % mod
    initstate = (-b_j * inc * pow(mult, -(j + 1), mod) - inc) % mod
    words = [initstate >> 64, initstate & rngmod._MASK64, initseq >> 64, initseq & rngmod._MASK64]
    return np.array(words, dtype=np.uint64)


@pytest.mark.parametrize("j", [1, 3, 4, 5])
def test_laplace_split_skips_a_zero_double_as_numpy_does(j):
    # d = 3, m = 2: doubles 1..3 are the visible part, which numpy's Laplace
    # sampler redraws on 0.0; doubles 4.. feed the invisible and keep a 0.0
    words = words_with_zero_output(j)
    assert rngmod.generator(words).random(j)[-1] == 0.0
    rule = SplitRule("laplace", m=2, scale=0.7)
    w = np.array([[1.0, -2.0, 0.5]])
    draws = split_draws(words[None], rule, 3)
    got = split_cohort(w, rule, draws)
    want = generator_split(w, rule, [rngmod.generator(words)])
    for g, v in zip(got, want):
        assert g.tobytes() == v.tobytes()
    if j <= 3:
        assert (draws[0, :3] != 0.0).all()
    else:
        assert draws[0, j - 1] == 0.0


def test_split_cohort_needs_its_draws_for_every_row():
    with pytest.raises(ConfigError, match="draws for each of 3 rows"):
        split_cohort(np.ones((3, 2)), SplitRule("uniform"), np.zeros((1, 2)))


def test_unbiasedness_monte_carlo_uniform_and_laplace():
    w = np.array([1.0])
    n = 100_000
    for rule in (SplitRule("uniform", m=1, eps_split=0.3), SplitRule("laplace", m=1, scale=0.5)):
        rng = rngmod.stream(17, 2)
        # n one-row splits on one stream, in turn
        draws = stream_split(np.tile(w, (n, 1)), rule, rng)[0][:, 0]
        std = draws.std()
        assert abs(draws.mean() - 1.0) <= 4.0 * std / np.sqrt(n)


def test_z_sequence_one_step():
    # z0 = 3, eps = 0.5, global 2, visible 1 -> z1 = 3.5
    vis = np.array([[1.0], [1.0]])
    inv = np.array([[[2.0]], [[2.5]]])
    glo = np.array([[2.0], [2.0]])
    z = z_sequence(vis, inv, glo, epsilon=0.5)
    assert z[0][0] == pytest.approx(3.0)
    assert z[1][0] == pytest.approx(3.5)


def test_z_sequence_zero_epsilon_constant():
    vis = np.array([[1.0], [4.0]])
    inv = np.array([[[2.0]], [[-1.0]]])
    glo = np.array([[9.0], [9.0]])
    z = z_sequence(vis, inv, glo, epsilon=0.0)
    assert np.allclose(z[0], z[1])


def test_z_sequence_visible_tracking_global_is_constant():
    vis = np.array([[2.0], [2.0], [2.0]])
    inv = np.array([[[1.0]], [[1.0]], [[1.0]]])
    glo = vis.copy()
    z = z_sequence(vis, inv, glo, epsilon=0.7)
    assert np.allclose(z, z[0])


def test_z_sequence_detects_violation():
    vis = np.array([[1.0], [1.0]])
    inv = np.array([[[2.0]], [[9.0]]])
    glo = np.array([[2.0], [2.0]])
    with pytest.raises(ProtocolIntegrityError):
        z_sequence(vis, inv, glo, epsilon=0.5)

