import random

import pytest

from ramsmooth import CorrelationTable, seeded_instance


def make_random_table(rng: random.Random, tag: int, **kw) -> CorrelationTable:
    return CorrelationTable(*seeded_instance(rng, tag, **kw))


@pytest.fixture(scope="session")
def rng_factory():
    def make(seed: int) -> random.Random:
        return random.Random(seed)
    return make
