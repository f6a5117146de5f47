"""Samplers: validity, determinism, enumeration, and light statistics."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from latinlab.core import InputError, LatinSquare, group_table, validate
from latinlab.counting import count_intercalates
from latinlab.rng import RandomStream, substream
from latinlab.sampling import (
    IncidenceCube,
    SamplerConfig,
    autocorrelation_time,
    jm_run,
    sample_rectangle,
    sample_rectangles,
    sample_squares,
)

from reference import (
    all_squares,
    exact_intercalate_law,
    intercalate_law,
    reduced_squares,
    reference_move,
)


KNOWN_COUNTS = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}


def test_all_squares_match_known_counts():
    for n, expect in KNOWN_COUNTS.items():
        grids = all_squares(n)
        assert len(grids) == expect
        assert len(np.unique(grids.reshape(expect, -1), axis=0)) == expect
        # every row and every column of every grid sorts to 0..n-1
        ident = np.arange(n)
        assert (np.sort(grids, axis=2) == ident).all()
        assert (np.sort(grids, axis=1) == ident[:, None]).all()
        # validate itself on every grid up to n = 4, on a stride at n = 5
        stride = 1 if n <= 4 else 997
        assert all(validate(LatinSquare(g)) for g in grids[::stride])


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_sampled_squares_are_latin(n, seed):
    assert validate(sample_squares(n, 1, RandomStream(seed))[0])


def test_sampler_is_deterministic():
    a = sample_squares(7, 3, RandomStream(99))
    b = sample_squares(7, 3, RandomStream(99))
    assert all(x == y for x, y in zip(a, b))
    c = sample_squares(7, 3, RandomStream(100))
    assert any(x != y for x, y in zip(a, c))


def test_substreams_are_stable_under_repartition():
    # child (i,) of a master seed never depends on sibling order
    draws = [substream(5, 11, i).randrange(10**9) for i in range(4)]
    again = [substream(5, 11, i).randrange(10**9) for i in reversed(range(4))]
    assert draws == list(reversed(again))


def test_child_streams_ignore_the_parents_draws():
    used = RandomStream(5)
    used.randrange(10)
    first = [RandomStream(5).child(i).randrange(10**9) for i in range(2)]
    assert [used.child(i).randrange(10**9) for i in range(2)] == first
    assert first[0] != first[1]
    assert first[0] != RandomStream(5).randrange(10**9)


def test_stream_words_are_one_philox_draw():
    # blocks grow from FIRST_BLOCK to BLOCK; across every refill the
    # words are those of one integers() draw, read one by one or in place
    seed, total = 19, 3 * RandomStream.BLOCK
    want = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        (seed, 0)))).integers(0, 2**62, size=total, dtype=np.int64).tolist()
    rng = RandomStream(seed)
    assert [rng.randrange(2**62) for _ in range(total)] == want
    rng = RandomStream(seed)
    got = []
    while len(got) < total:
        words, i = rng.block()
        stop = min(len(words), i + 37, i + total - len(got))
        got += words[i:stop]
        rng.seek(stop)
        if len(got) < total:
            got.append(rng.randrange(2**62))
    assert got == want


def test_negative_seeds_are_input_errors():
    with pytest.raises(InputError, match="-3"):
        RandomStream(-3)


def test_chain_thinning_produces_distinct_squares():
    squares = sample_squares(6, 5, RandomStream(17))
    assert len({sq.key() for sq in squares}) > 1


def test_short_burnin_is_still_latin():
    cfg = SamplerConfig(burn_in_factor=0.5, thin_factor=0.5)
    for sq in sample_squares(5, 4, RandomStream(2), cfg):
        assert validate(sq)


def test_rectangle_sampler_shape_and_validity():
    rng = RandomStream(8)
    rect = sample_rectangle(3, 9, rng)
    assert rect.k == 3 and rect.n == 9
    assert validate(rect)
    batch = sample_rectangles(4, 9, 40, rng)
    assert len(batch) == 40
    assert all(r.k == 4 and r.n == 9 and validate(r) for r in batch)
    assert sample_rectangles(3, 9, 0, rng) == []


def test_rectangle_sampler_determinism():
    a = sample_rectangle(3, 12, RandomStream(4))
    b = sample_rectangle(3, 12, RandomStream(4))
    assert (a.grid == b.grid).all()
    batch = sample_rectangles(4, 9, 40, RandomStream(5))
    assert batch == sample_rectangles(4, 9, 40, RandomStream(5))
    assert batch != sample_rectangles(4, 9, 40, RandomStream(6))


def test_rectangle_budget_counts_candidate_tuples():
    # 1128960 of the 265^5 normalized 6 x 6 candidates (rows 1..5
    # derangements of row 0) are Latin
    with pytest.raises(RuntimeError):
        sample_rectangles(6, 6, 2, RandomStream(7),
                          SamplerConfig(rectangle_budget=1000))


@pytest.mark.parametrize("k, n, size", [(2, 4, 216), (3, 4, 576),
                                         (4, 4, 576)])
def test_sampled_rectangles_follow_the_uniform_law(k, n, size):
    # every k x n rectangle, 20 expected draws each, over 8 calls so
    # that batch boundaries fall inside the sample; chi-square is
    # checked at its 1e-4 upper quantile.  k = 4 is the first case that
    # checks a random row against two earlier random rows
    perms = list(itertools.permutations(range(n)))
    cells = [()]
    for _ in range(k):
        cells = [rows + (p,) for rows in cells for p in perms
                 if all(a != b for row in rows for a, b in zip(row, p))]
    assert len(cells) == size
    index = {np.array(rows).tobytes(): i for i, rows in enumerate(cells)}
    draws = [index[r.grid.astype(np.int64).tobytes()] for c in range(8)
             for r in sample_rectangles(k, n, 20 * size // 8,
                                        substream(61, k, c))]
    obs = np.bincount(draws, minlength=size)
    exp = len(draws) / size
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    assert chi2 < stats.chi2.isf(1e-4, size - 1), chi2


@pytest.mark.parametrize("k, n, count, digest", [
    (3, 10, 50,
     "0f624acd6f00b4fd16203210d8f7be10a0d7c796d189131bee367533970494ed"),
    (4, 7, 30,
     "6023616ef7bb4d5fcc4ca81da466c641bad831dfee6e5224713460ab4f5e89ed"),
])
def test_rectangle_outputs_are_pinned(k, n, count, digest):
    # SHA-256 of the grids in call order: a change to the law or to the
    # order of the draws moves it
    h = hashlib.sha256()
    for rect in sample_rectangles(k, n, count, RandomStream(11)):
        h.update(rect.grid.tobytes())
    assert h.hexdigest() == digest


def test_rectangle_first_row_is_uniform_permutation():
    # exact rejection keeps the first row an unconditioned permutation
    rng = RandomStream(15)
    hits = np.zeros(4)
    for _ in range(400):
        rect = sample_rectangle(2, 4, rng)
        hits[rect.grid[0, 0]] += 1
    assert hits.min() > 50  # ~100 expected per symbol


def test_two_row_rectangles_hit_all_derangement_types():
    # n = 4 has derangement cycle types (4) and (2,2); both must appear
    rng = RandomStream(16)
    seen = set()
    for _ in range(60):
        rect = sample_rectangle(2, 4, rng)
        perm = {a: b for a, b in zip(rect.grid[0], rect.grid[1])}
        sizes = []
        left = set(perm)
        while left:
            x = left.pop()
            size = 1
            y = perm[int(x)]
            while y in left:
                left.remove(y)
                y = perm[int(y)]
                size += 1
            sizes.append(size)
        seen.add(tuple(sorted(sizes)))
    assert (2, 2) in seen and (4,) in seen


def test_small_order_uniformity():
    # order 3 has 12 squares; a uniform sampler must reach all of them
    rng = RandomStream(21)
    seen = {sq.key() for sq in sample_squares(3, 240, rng)}
    assert len(seen) == 12


def test_intercalate_mean_tracks_target_at_small_n():
    # order 6: mean over the uniform distribution is close to n^2/4 = 9
    # only loosely; the band here just guards against a broken chain
    rng = RandomStream(33)
    vals = [count_intercalates(sq) for sq in sample_squares(6, 300, rng)]
    mean = float(np.mean(vals))
    assert 6.0 <= mean <= 12.0


def test_exact_law_from_reduced_squares():
    # the weighted law over reduced squares is the plain law over all
    for n in range(1, 6):
        assert intercalate_law(all_squares(n)) == exact_intercalate_law(n)
    assert len(reduced_squares(6)) == 9408
    assert sum(exact_intercalate_law(6).values()) == 812_851_200


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sampled_intercalate_counts_follow_the_exact_law(n):
    # 8 chains x 500 draws; the snapshots are a few autocorrelation
    # times apart, so the counts are close to multinomial and the
    # chi-square statistic is checked at its 1e-4 upper quantile
    law = exact_intercalate_law(n)
    total = sum(law.values())
    draws = [count_intercalates(sq) for c in range(8)
             for sq in sample_squares(n, 500, substream(47, n, c))]
    assert set(draws) <= set(law)
    # bins in increasing N, merged until each expects at least 5 draws
    observed, expected = [], []
    o = e = 0.0
    for value in sorted(law):
        o += draws.count(value)
        e += len(draws) * law[value] / total
        if e >= 5:
            observed.append(o)
            expected.append(e)
            o = e = 0.0
    observed[-1] += o
    expected[-1] += e
    obs, exp = np.array(observed), np.array(expected)
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    assert chi2 < stats.chi2.isf(1e-4, len(obs) - 1), (chi2, observed, expected)


@pytest.mark.parametrize("n, burn_in, thin, b, t", [
    (5, 1.0, 0.25, 25, 6),
    (6, 0.5, 0.25, 18, 9),
    (4, 0.0, 0.125, 0, 2),
])
def test_snapshots_are_the_states_at_fixed_proper_visits(n, burn_in, thin,
                                                         b, t):
    cfg = SamplerConfig(burn_in_factor=burn_in, thin_factor=thin)
    got = sample_squares(n, 5, RandomStream(3), cfg)
    # replay the chain move by move, one stream word per move
    rng = RandomStream(3)
    cube = IncidenceCube(group_table("cyclic", n))
    visits = 0
    want = []
    while len(want) < 5:
        if visits == b + len(want) * t:
            want.append(cube.snapshot())
        else:
            visits += reference_move(cube, rng.randrange(1 << 62))
    assert got == want


def _state(cube):
    return (cube.S, cube.R, cube.C, cube.improper, cube.moves,
            cube.proper_steps)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 2**62 - 1), min_size=1, max_size=300))
def test_kernel_matches_reference_move_by_move(n, seed, words):
    # both start from a sampled square and read the same words, one word
    # per kernel call
    square = sample_squares(n, 1, RandomStream(seed))[0]
    fast, slow = IncidenceCube(square), IncidenceCube(square)
    for w in words:
        assert jm_run(fast, [w], 0, fast.proper_steps + 1) == 1
        reference_move(slow, w)
        assert _state(fast) == _state(slow)


def test_kernel_stops_at_the_target_and_reports_where():
    rng = RandomStream(9)
    words = [rng.randrange(1 << 62) for _ in range(5000)]
    fast = IncidenceCube(group_table("cyclic", 7))
    slow = IncidenceCube(group_table("cyclic", 7))
    stop = jm_run(fast, words, 10, 40)
    assert fast.proper_steps == 40 and fast.improper is None
    assert fast.moves == stop - 10
    for w in words[10:stop]:
        reference_move(slow, w)
    assert _state(fast) == _state(slow)
    # an exhausted block stops the kernel short of its target
    assert jm_run(fast, words, len(words) - 3, 10**6) == len(words)
    assert fast.moves == stop - 7


def test_default_thinning_spans_four_autocorrelation_times():
    # N read at every proper visit; its tau_int in n^2 visits is largest
    # at small orders (0.042 at n = 6)
    n = 6
    every_visit = SamplerConfig(thin_factor=1 / n**2)
    series = [[count_intercalates(sq)
               for sq in sample_squares(n, 2000, substream(53, c), every_visit)]
              for c in range(4)]
    assert 4 * autocorrelation_time(series) / n**2 <= SamplerConfig().thin_factor


def test_autocorrelation_time_of_known_series():
    rng = np.random.default_rng(0)
    white = rng.standard_normal(20000)
    assert abs(autocorrelation_time([white]) - 0.5) < 0.05
    # AR(1) with coefficient a: tau = 1/2 + a / (1 - a) = 4.5
    a, x = 0.8, np.zeros(len(white))
    for i in range(1, len(x)):
        x[i] = a * x[i - 1] + white[i]
    assert abs(autocorrelation_time([x[:10000], x[10000:]]) - 4.5) < 0.6
    assert math.isnan(autocorrelation_time([[3, 3, 3]]))
