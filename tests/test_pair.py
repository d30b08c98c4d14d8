"""ga._pair draws as random.Random.sample(range(n), 2) does: the same pair
from the same draws, so the generator ends in the same state, on both
sides of sample's pool bound. It imports no test framework, so it also
runs under a CPython without pytest:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_pair; test_pair.test_pair_draws_as_random_sample()"
"""

import random

from construct import ga


def test_pair_draws_as_random_sample():
    for n in range(2, 121):
        for seed in range(30):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(20):
                assert ga._pair(ours, n) == tuple(theirs.sample(range(n), 2)), (n, seed)
            assert ours.getstate() == theirs.getstate(), (n, seed)
