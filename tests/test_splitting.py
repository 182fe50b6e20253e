import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedsplit import rng as rngmod
from fedsplit.errors import ConfigError, ProtocolIntegrityError
from fedsplit.splitting import (
    SplitRule,
    SplitState,
    split_cohort,
    split_model,
    z_sequence,
)


def constraint_residual(state: SplitState) -> float:
    """Relative residual of visible + sum_n invisible_n = (1 + m) origin."""
    total = state.visible + sum(state.invisible)
    target = (1 + state.m) * state.origin
    scale = max(1.0, float(np.max(np.abs(target))))
    return float(np.max(np.abs(total - target))) / scale


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
    state = split_model(np.array([2.0]), SplitRule("midpoint", m=1), rng)
    assert state.visible[0] == pytest.approx(2.0, abs=0)
    assert state.invisible[0][0] == pytest.approx(2.0, abs=0)


def test_sum_constraint_absorber():
    # m=1, w=2.0, visible drawn at 1.5 -> invisible must be 2.5
    state = SplitState(visible=np.array([1.5]), invisible=[np.array([2.5])], origin=np.array([2.0]))
    assert constraint_residual(state) <= 1e-12
    rng = rngmod.stream(3, 1)
    drawn = split_model(np.array([2.0]), SplitRule("uniform", m=1, eps_split=0.25), rng)
    assert drawn.visible[0] + drawn.invisible[0][0] == pytest.approx(4.0, abs=1e-12)


def test_degenerate_zero_model():
    rng = rngmod.stream(1, 1)
    state = split_model(np.zeros(3), SplitRule("uniform", m=2, eps_split=0.5), rng)
    assert np.allclose(state.visible, 0.0)
    assert constraint_residual(state) == 0.0


def test_uniform_support_with_sign_handling():
    rng = rngmod.stream(2, 1)
    w = np.array([1.0, -2.0, 0.5])
    rule = SplitRule("uniform", m=1, eps_split=0.3)
    for _ in range(200):
        vis = split_model(w, rule, rng).visible
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
    state = split_model(w, rule, rngmod.stream(seed, 9))
    assert constraint_residual(state) <= 1e-9
    assert state.m == m


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
    got_rng, ref_rng = rngmod.stream(seed, 9), rngmod.stream(seed, 9)
    got = split_model(w, SplitRule("uniform", m=m, eps_split=eps), got_rng)
    # reference: the Generator.uniform draws, with their no-draw branches
    a, b = eps * w, (1 + m - eps) * w
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    visible = ref_rng.uniform(lo, hi) if (hi > lo).any() else lo.copy()
    half = np.abs(w)
    free = [
        ref_rng.uniform(w - half, w + half) if np.any(half > 0) else w.copy()
        for _ in range(m - 1)
    ]
    # bytes, not values: signed zeros must match too
    assert got.visible.tobytes() == visible.tobytes()
    for sub, want in zip(got.invisible, free):
        assert sub.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


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
    got_rngs = [rngmod.stream(seed, 9, i) for i in range(shape[0])]
    ref_rngs = [rngmod.stream(seed, 9, i) for i in range(shape[0])]
    visible, invisible = split_cohort(w, rule, got_rngs)
    assert visible.shape == shape and invisible.shape == (shape[0], m, shape[1])
    for i, (got_rng, ref_rng) in enumerate(zip(got_rngs, ref_rngs)):
        want_visible, want_invisible = reference_split_model(w[i], rule, ref_rng)
        # bytes, not values: signed zeros must match too
        assert visible[i].tobytes() == want_visible.tobytes()
        assert invisible[i].tobytes() == np.stack(want_invisible).tobytes()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_split_cohort_needs_one_stream_per_row():
    with pytest.raises(ConfigError, match="one stream per row"):
        split_cohort(np.ones((3, 2)), SplitRule("uniform"), [rngmod.stream(0, 1)])


def test_unbiasedness_monte_carlo_uniform_and_laplace():
    w = np.array([1.0])
    n = 100_000
    for rule in (SplitRule("uniform", m=1, eps_split=0.3), SplitRule("laplace", m=1, scale=0.5)):
        rng = rngmod.stream(17, 2)
        draws = np.array([split_model(w, rule, rng).visible[0] for _ in range(n)])
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

