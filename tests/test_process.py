"""Triple-removal trajectories and the sparse-system tools."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinlab.core import InputError, TripleSystem, validate
from latinlab.counting import count_intercalates, girth
from latinlab.process import (
    ProcessConfig,
    ProcessState,
    byte_tables,
    collision_filter,
    log_density_target,
    predicted_available,
    run_process,
    sample_sparse_system,
    set_bits,
)
from latinlab.rng import RandomStream

from reference import (
    _triple_safety,
    brute_cell_weights,
    brute_counts,
    brute_intercalates,
    brute_safe_triples,
)


def test_run_records_are_consistent():
    res = run_process(10, RandomStream(1))
    assert res.steps == len(res.trace) == len(res.available_trace)
    assert res.order.shape == (res.steps, 3)
    assert len(res.placed.triples) == res.steps
    assert set(map(tuple, res.order.tolist())) == set(res.placed.triples)
    assert validate(res.placed)
    assert res.coverage == res.steps / 100


def test_unconstrained_run_is_deterministic():
    a = run_process(9, RandomStream(7))
    b = run_process(9, RandomStream(7))
    assert (a.order == b.order).all()
    assert (a.trace == b.trace).all()


def test_available_counts_start_full_and_decrease():
    res = run_process(8, RandomStream(3))
    assert res.available_trace[0] == 8**3
    assert (np.diff(res.available_trace) < 0).all()


def test_max_steps_cap():
    res = run_process(12, RandomStream(5), ProcessConfig(max_steps=20))
    assert res.steps == 20
    assert not res.stalled
    res = run_process(5, RandomStream(0), ProcessConfig(max_steps=0))
    assert res.steps == 0 and len(res.trace) == 0 and not res.stalled
    with pytest.raises(InputError, match="step cap"):
        run_process(5, RandomStream(0), ProcessConfig(max_steps=-3))


def test_girth_constrained_run_avoids_intercalates():
    res = run_process(16, RandomStream(2), ProcessConfig(girth=6))
    assert count_intercalates(res.placed) == 0
    assert brute_intercalates(res.placed) == 0
    assert girth(res.placed, g_max=6) is None


def test_girth_constraint_costs_coverage_but_not_everything():
    free = run_process(20, RandomStream(4))
    tight = run_process(20, RandomStream(4), ProcessConfig(girth=6))
    assert tight.steps <= free.steps
    assert tight.coverage > 0.5


def test_safe_trace_equals_available_when_unconstrained():
    res = run_process(7, RandomStream(9))
    assert (res.trace == res.available_trace).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.sampled_from([0, 6]), st.integers(0, 2**32 - 1))
def test_incremental_counts_and_weights_match_brute_at_every_step(n, g, seed):
    state = ProcessState(n, g)
    rng = RandomStream(seed)
    while True:
        w = brute_cell_weights(state)
        assert ((state.available, state.available - state.safe_count)
                == brute_counts(state))
        assert state.w == w
        assert state.roww == [sum(row) for row in w]
        # the danger projections agree with the grid on every available
        # triple: one bit in each of dsyms, dcols and drows, or none
        for (r, c, s), safe in _triple_safety(state).items():
            if safe is None:
                continue
            bits = ((state.dsyms[r][c] >> s) & 1, (state.dcols[r][s] >> c) & 1,
                    (state.drows[c][s] >> r) & 1)
            assert bits == ((0, 0, 0) if safe else (1, 1, 1)), (r, c, s)
        if state.safe_count == 0:
            break
        state.place(*state.triple_at(rng.randrange(state.safe_count)))


@pytest.mark.parametrize("g", [0, 6])
def test_draw_maps_k_onto_each_safe_triple_exactly_once(g):
    # k uniform on range(safe_count) then gives an exactly uniform triple;
    # checked at every `every`-th step: orders inside one byte at each
    # step, then masks past one byte (9), filling two (16) and reaching
    # into a third (17)
    for n, seeds, every in [(n, 3, 1) for n in range(1, 8)] + [
            (9, 2, 2), (16, 1, 5), (17, 1, 7)]:
        for seed in range(seeds):
            state = ProcessState(n, g)
            rng = RandomStream(seed)
            while state.safe_count:
                if state.steps % every == 0:
                    drawn = [state.triple_at(k)
                             for k in range(state.safe_count)]
                    assert drawn == brute_safe_triples(state)
                    assert drawn == state.safe_candidates()
                state.place(*state.triple_at(rng.randrange(state.safe_count)))


@pytest.mark.parametrize("g, seed, steps, digest", [
    (0, 0, 1459,
     "857e5314b6d5e8571fff8ab15168d8e8682398a34e1b476810223cfd9d039910"),
    (0, 1, 1459,
     "e5afa5fad83934f91ea263f806d3414d96cddfa85c4eea069c89730669efeaba"),
    (6, 0, 1411,
     "311ead5f2e5ca379de47ad47f75ef19fa2e193f6840cffb43c1fa8593d2df8a8"),
    (6, 1, 1426,
     "024a56443c5476b7f1a1dac6ee7c5328cce2be23630a3be4efc9d74cfe1d3ba2"),
])
def test_run_outputs_are_pinned(g, seed, steps, digest):
    # SHA-256 of order, trace and available_trace as little-endian int64:
    # a change to the law, the k -> triple map or the order of the draws
    # moves it
    res = run_process(40, RandomStream(seed), ProcessConfig(girth=g))
    h = hashlib.sha256()
    for a in (res.order, res.trace, res.available_trace):
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    assert res.steps == steps
    assert h.hexdigest() == digest


def test_set_bits_matches_a_bit_by_bit_walk():
    rng = np.random.default_rng(5)
    for width in range(1, 131):
        tables = byte_tables((width + 7) // 8)
        full = (1 << width) - 1
        masks = [0, full, 1 << (width - 1), 1]
        masks += [int.from_bytes(rng.bytes(17), "little") & full
                  for _ in range(6)]
        # sparse masks, whose bytes are mostly zero
        masks += [sum(1 << i for i in set(rng.integers(0, width, 3).tolist()))
                  for _ in range(3)]
        for m in masks:
            naive = [i for i in range(width) if m >> i & 1]
            assert set_bits(m, tables) == naive
    assert byte_tables(2) is ProcessState(16).tables


@pytest.mark.parametrize("g", [0, 6])
def test_draw_rejects_k_outside_the_safe_range(g):
    state = ProcessState(6, g)
    rng = RandomStream(0)
    for _ in range(10):
        state.place(*state.triple_at(rng.randrange(state.safe_count)))
    for k in (-1, state.safe_count):
        with pytest.raises(IndexError):
            state.triple_at(k)


def test_place_rejects_unavailable_and_unsafe_triples():
    state = ProcessState(4, 6)
    for t in [(0, 0, 0), (0, 1, 1), (1, 0, 1)]:
        state.place(*t)
    with pytest.raises(ValueError, match="not available"):
        state.place(1, 1, 1)
    # (1, 1, 0) closes the intercalate on rows 0, 1 and columns 0, 1
    with pytest.raises(ValueError, match="intercalate"):
        state.place(1, 1, 0)
    assert state.steps == 3 and state.cell[1][1] == -1


@pytest.mark.parametrize("n", [0, -3])
def test_state_rejects_nonpositive_order(n):
    with pytest.raises(ValueError, match="order must be positive"):
        ProcessState(n)


def test_predicted_available_at_zero_is_n_cubed():
    assert predicted_available(50, 0) == 50**3
    assert predicted_available(50, 0, girth=0) == 50**3


def test_predicted_available_girth_discount():
    n, t = 40, 800
    x = t / n**2
    free = predicted_available(n, t, girth=0)
    capped = predicted_available(n, t, girth=6)
    assert free == pytest.approx(n**3 * (1 - x) ** 3)
    assert capped == pytest.approx(free * math.exp(-(x**3)))


def test_log_density_target_value():
    assert log_density_target(100) == pytest.approx(3 * math.log(100) - 13 / 4)


def test_sparse_system_density():
    rng = RandomStream(12)
    n, alpha = 40, 0.3
    sizes = [len(sample_sparse_system(n, alpha, rng).triples)
             for _ in range(5)]
    expect = alpha * n**2  # n^3 triples kept with probability alpha/n
    assert 0.5 * expect < np.mean(sizes) < 1.5 * expect


def test_sparse_system_is_the_bernoulli_product_measure():
    n, alpha, trials = 4, 1.0, 4000
    p = alpha / n
    rng = RandomStream(14)
    hits = np.zeros((n, n, n))
    sizes = []
    for _ in range(trials):
        ts = sample_sparse_system(n, alpha, rng)
        sizes.append(len(ts))
        for t in ts.triples:
            hits[t] += 1
    # binomial(64, 1/4): mean 16, variance 12; the tolerances are about
    # five standard errors of each estimate over 4000 trials
    assert np.mean(sizes) == pytest.approx(n**3 * p, abs=0.3)
    assert np.var(sizes, ddof=1) == pytest.approx(n**3 * p * (1 - p), abs=1.5)
    assert np.abs(hits / trials - p).max() < 0.035


def test_collision_filter_output_is_partial_latin():
    rng = RandomStream(13)
    ts = sample_sparse_system(30, 0.5, rng)
    filtered = collision_filter(ts)
    assert validate(filtered)
    assert set(filtered.triples) <= set(ts.triples)


def test_collision_filter_removes_all_of_each_collision():
    # simultaneous deletion: both sides of a pair collision go
    ts = TripleSystem(3, [(0, 0, 0), (0, 0, 1), (1, 1, 1), (2, 2, 2)])
    filtered = collision_filter(ts)
    assert filtered.triples == ((1, 1, 1), (2, 2, 2))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, n - 1)] * 3),
                         max_size=3 * n * n))))
def test_collision_filter_matches_the_pairwise_rule(case):
    n, triples = case
    ts = TripleSystem(n, triples)
    # kept: no other triple agrees with it in two or more coordinates
    kept = [t for t in ts.triples
            if not any(sum(x == y for x, y in zip(t, u)) >= 2
                       for u in ts.triples if u != t)]
    assert collision_filter(ts).triples == tuple(kept)


@pytest.mark.parametrize("triples", [
    [(0, 3, 0), (1, 0, 1)],   # (0, 3) would key as (1, 0): r n + c = 3
    [(0, 0, 0), (0, 1, -1)],
])
def test_collision_filter_rejects_out_of_range_coordinates(triples):
    with pytest.raises(InputError, match="out of range"):
        collision_filter(TripleSystem(3, triples))
