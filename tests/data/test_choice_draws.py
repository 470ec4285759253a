"""The simulator's draw helpers against ``Generator.choice``, draw for draw.

``choice_cdf`` / ``choice_draw`` replace ``rng.choice(n, p=p)`` and
``PopularityDraws.negatives`` replaces one rejection loop per negative.
Both must return what the calls they replace return *and* leave the bit
generator in the same state, or every later draw of a world moves.  The
references below are the replaced calls themselves, run on a second
generator with the same seed, over adversarial distributions: length one,
one-hot, zeros inside, denormals, and sums off 1 by just under and just
over choice's tolerance of √eps.

Everything drawn is drawn under one fixed hypothesis profile
(derandomised, no deadline), so a CI failure repeats locally.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data import DegenerateWorldError
from repro.data.synthetic import PopularityDraws, choice_cdf, choice_draw

PROFILE = settings(derandomize=True, deadline=None, max_examples=300)
ATOL = np.sqrt(np.finfo(np.float64).eps)
DENORMAL = np.nextafter(0.0, 1.0)


@st.composite
def distributions(draw) -> np.ndarray:
    """A ``p`` of one adversarial kind, its sum nudged around 1."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "one-hot", "zeros", "denormal"]))
    weights = np.array(draw(st.lists(
        st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if kind == "one-hot":
        weights = np.zeros(n)
        weights[draw(st.integers(0, n - 1))] = 1.0
    elif kind == "zeros":
        weights[np.array(draw(st.lists(
            st.booleans(), min_size=n, max_size=n)))] = 0.0
    elif kind == "denormal":
        tiny = np.array(draw(st.lists(
            st.booleans(), min_size=n, max_size=n)))
        weights[tiny] = DENORMAL * np.arange(1, tiny.sum() + 1)
    total = weights.sum()
    p = weights / total if total > 0 else weights
    # Off 1 by 0, or by just under / just over choice's tolerance.
    nudge = draw(st.sampled_from(
        [0.0, 1 - 1e-4, 1 + 1e-4, -(1 - 1e-4), -(1 + 1e-4)]))
    return p * (1.0 + nudge * ATOL)


def _pair(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


#: seed 0's first uniform (>= 0.5, so ``1 - U0`` is exact)
U0 = np.random.default_rng(0).random()
#: ``U0`` lands exactly on the first CDF step: only ``side="right"`` agrees
ON_A_STEP = np.array([U0, 1.0 - U0])
#: sum 1 + 0.9·√eps, with ``U0`` between the first step before and after
#: the CDF is divided by its sum: only a renormalised CDF agrees
IN_THE_SLIVER = np.array([U0 * (1 + 0.45 * ATOL),
                          1 + 0.9 * ATOL - U0 * (1 + 0.45 * ATOL)])


@PROFILE
@given(p=distributions(), seed=st.integers(0, 2**32 - 1),
       draws=st.integers(1, 5))
@example(p=np.ones(1), seed=0, draws=3)
@example(p=np.zeros(3), seed=0, draws=1)
@example(p=np.array([0.0, 1.0, 0.0]), seed=1, draws=4)
@example(p=np.array([0.5, np.nan, 0.5]), seed=0, draws=1)
@example(p=ON_A_STEP, seed=0, draws=1)
@example(p=IN_THE_SLIVER, seed=0, draws=1)
def test_draw_is_generator_choice(p, seed, draws):
    reference, rng = _pair(seed)
    try:
        expected = [reference.choice(len(p), p=p) for _ in range(draws)]
    except ValueError:
        with pytest.raises(ValueError):
            choice_cdf(p)
        return
    cdf = choice_cdf(p)
    got = [choice_draw(cdf, rng) for _ in range(draws)]
    assert got == expected
    assert all(type(index) is int for index in got)
    assert rng.bit_generator.state == reference.bit_generator.state


@PROFILE
@given(size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_unweighted_pick_is_generator_choice(size, seed):
    """``rng.choice(pool)`` is ``pool[rng.integers(len(pool))]``."""
    reference, rng = _pair(seed)
    pool = np.arange(size) * 7
    assert pool[rng.integers(size)] == reference.choice(pool)
    assert rng.bit_generator.state == reference.bit_generator.state


def _scalar_negatives(popularity, excludes, rng) -> list[int]:
    """One guarded rejection loop per negative: the sampler replaced."""
    n = popularity.shape[0]
    out = []
    for exclude in excludes:
        if n <= 1:
            raise DegenerateWorldError("one city")
        if popularity.sum() - popularity[exclude] <= 0.0:
            out.append(int(rng.choice(np.delete(np.arange(n), exclude))))
            continue
        while True:
            city = int(rng.choice(n, p=popularity))
            if city != exclude:
                break
        out.append(city)
    return out


@st.composite
def negative_requests(draw) -> tuple[np.ndarray, list[int]]:
    """A popularity vector (zeros and spikes allowed, no mass so small
    the scalar loop would run for ages) and the cities to exclude."""
    n = draw(st.integers(1, 12))
    weights = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
        min_size=n, max_size=n)))
    if not weights.sum() > 0:
        weights[draw(st.integers(0, n - 1))] = 1.0
    excludes = draw(st.lists(st.integers(0, n - 1), max_size=60))
    return weights / weights.sum(), excludes


@PROFILE
@given(request=negative_requests(), seed=st.integers(0, 2**32 - 1))
@example(request=(np.array([0.5, 0.5]), [0] * 40), seed=3)
@example(request=(np.array([0.9, 0.1, 0.0]), [0, 0, 1, 0, 2, 0]), seed=0)
@example(request=(np.array([0.0, 1.0, 0.0]), [1, 0, 1, 2, 1]), seed=5)
@example(request=(np.ones(1), [0]), seed=0)
def test_batched_negatives_are_the_scalar_loop(request, seed):
    popularity, excludes = request
    reference, rng = _pair(seed)
    try:
        expected = _scalar_negatives(popularity, excludes, reference)
    except DegenerateWorldError:
        with pytest.raises(DegenerateWorldError):
            PopularityDraws(popularity).negatives(excludes, rng)
        return
    got = PopularityDraws(popularity).negatives(excludes, rng)
    assert got == expected
    assert all(type(city) is int for city in got)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_a_rejection_refills_the_chunk():
    """Forty exclusions of a city holding half the mass reject about
    forty times: the walk refills its chunk several times and still ends
    in the scalar loop's state."""
    popularity = np.array([0.5, 0.5])
    reference, rng = _pair(3)
    expected = _scalar_negatives(popularity, [0] * 40, reference)
    assert PopularityDraws(popularity).negatives([0] * 40, rng) == expected
    assert rng.bit_generator.state == reference.bit_generator.state
    # The loop drew more uniforms than there were exclusions.
    first_chunk = np.random.default_rng(3)
    first_chunk.random(40)
    assert first_chunk.bit_generator.state != reference.bit_generator.state
