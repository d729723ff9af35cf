"""``util.choose`` and ``util.shuffle`` against the stdlib, and a guard that
the package draws its choices and shuffles through them.

The oracle is ``random.Random`` itself: the helpers must give the same picks
and permutations, pick for pick, and leave the generator in the same state.
Pool sizes cover the edges of the rejection loop (0, 1, 2 and powers of two
plus or minus one) and two lazy ``range`` pools past 32 bits, which stay
``range`` objects: a tuple of that size would take gigabytes.
"""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verbtensor.util import choose, shuffle

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "verbtensor"

EDGE_SIZES = sorted({0, 1, 2, *(2**p + d for p in range(1, 11) for d in (-1, 0, 1))})
POOL_SIZES = st.one_of(st.sampled_from([*EDGE_SIZES, 2**32, 2**33 + 5]),
                       st.integers(1, 300))
SEEDS = st.integers(0, 2**64)


def stdlib_choices(rng, pools) -> list:
    return [rng.choice(pool) for pool in pools]


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, sizes=st.lists(POOL_SIZES.filter(bool), max_size=40))
def test_choose_picks_as_choice(seed, sizes):
    pools = [range(n) for n in sizes]
    oracle, rng = random.Random(seed), random.Random(seed)
    assert choose(rng, iter(pools)) == stdlib_choices(oracle, pools)
    assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("size", [*EDGE_SIZES[1:], 2**32, 2**33 + 5])
def test_choose_picks_as_choice_at_every_edge_size(size):
    pools = [range(size)] * 64
    for seed in range(4):
        oracle, rng = random.Random(seed), random.Random(seed)
        assert choose(rng, pools) == stdlib_choices(oracle, pools)
        assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("size", EDGE_SIZES)
def test_shuffle_permutes_as_stdlib_shuffle_at_every_edge_size(size):
    for seed in range(4):
        oracle, rng = random.Random(seed), random.Random(seed)
        expected, items = list(range(size)), list(range(size))
        oracle.shuffle(expected)
        shuffle(rng, items)
        assert items == expected
        assert rng.getstate() == oracle.getstate()


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, before=st.lists(POOL_SIZES.filter(bool), max_size=10),
       after=st.lists(POOL_SIZES, max_size=5))
def test_choose_raises_on_an_empty_pool_as_choice(seed, before, after):
    pools = [range(n) for n in [*before, 0, *after]]
    oracle, rng = random.Random(seed), random.Random(seed)
    with pytest.raises(IndexError):
        stdlib_choices(oracle, pools)
    with pytest.raises(IndexError):
        choose(rng, pools)
    assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("pool", [(), [], "", range(0)])
def test_choose_never_spins_on_an_empty_pool(pool):
    with pytest.raises(IndexError):
        choose(random.Random(1), [pool])


def test_choose_reads_any_sequence():
    pools = [("a", "b", "c"), "xyz", ["p"] * 7, range(5, 90, 3)]
    oracle, rng = random.Random(3), random.Random(3)
    for _ in range(50):
        assert choose(rng, pools) == stdlib_choices(oracle, pools)
    assert rng.getstate() == oracle.getstate()


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, size=st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 300)),
       rounds=st.integers(1, 3))
def test_shuffle_permutes_as_stdlib_shuffle(seed, size, rounds):
    oracle, rng = random.Random(seed), random.Random(seed)
    expected, items = list(range(size)), list(range(size))
    for _ in range(rounds):  # the permutation carries over, as train's rows do
        oracle.shuffle(expected)
        assert shuffle(rng, items) is None
        assert items == expected
    assert rng.getstate() == oracle.getstate()


# Draws that must go through util.choose / util.shuffle, which the tests above
# pin to the stdlib. Loading the attribute is flagged as well as calling it,
# so ``pick = rng.choice`` cannot slip through; the helpers themselves are
# imported by name. rng.random(), rng.sample() and rng.getrandbits() stay allowed.
GUARDED_DRAWS = {"choice", "shuffle"}


def stdlib_draws(package: Path) -> list:
    """``module.py:line .name`` for every ``.choice``/``.shuffle`` attribute under ``package``."""
    found = []
    for path in sorted(package.rglob("*.py")):
        nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        lines = sorted((node.lineno, node.attr) for node in nodes
                       if isinstance(node, ast.Attribute) and node.attr in GUARDED_DRAWS)
        found += [f"{path.relative_to(package)}:{line} .{attr}" for line, attr in lines]
    return found


def test_package_draws_through_the_helpers():
    assert stdlib_draws(PACKAGE) == []


def test_guard_flags_a_planted_draw(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import random\n\nfrom .util import choose, shuffle\n\n\n"
        "def draws(rng, items):\n"
        "    rng.shuffle(items)\n"
        "    pick = random.Random(1).choice\n"
        "    shuffle(rng, items)\n"
        "    return pick(items), choose(rng, [items]), rng.sample(items, 1), \\\n"
        "        rng.random(), rng.getrandbits(3)\n"
    )
    assert stdlib_draws(tmp_path) == ["mod.py:7 .shuffle", "mod.py:8 .choice"]
