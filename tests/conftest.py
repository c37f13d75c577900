import random

import pytest

from xorland.gf2 import BitMatrix, BitVector
from xorland.landscape import Instance


def state01(text: str) -> BitVector:
    """The state written as a 0/1 string, such as "1110"; character i is coordinate i."""
    return BitVector(len(text), int(text[::-1], 2))


@pytest.fixture
def eq1_matrix() -> BitMatrix:
    """The 4x4 complement-of-identity matrix (k = 3)."""
    return BitMatrix.from_rows([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])


@pytest.fixture
def eq1_instance(eq1_matrix) -> Instance:
    return Instance(eq1_matrix)


@pytest.fixture
def shifted_instance():
    """Builds k-regular instances directly, since rejection sampling takes
    seconds at k = 6: row i is {perm[(i + d) % n] : d in offsets}."""

    def build(k: int, n: int, seed: int) -> Instance:
        rng = random.Random(seed)
        offsets, perm = rng.sample(range(n), k), rng.sample(range(n), n)
        supports = [[perm[(i + d) % n] for d in offsets] for i in range(n)]
        return Instance(BitMatrix.from_row_supports(n, supports))

    return build
