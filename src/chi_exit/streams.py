"""Counter-based random streams keyed by role and position.

Every Monte Carlo stage derives its generator from the master seed, a
role tag, and the bit pattern of the starting coordinates.  Streams for
distinct points are therefore statistically independent, identical
(seed, point) pairs always reproduce the same draws, and results do not
depend on evaluation order or worker count.
"""

import numpy as np

#: Role tags; frozen, recorded here so streams never collide across stages.
TAG_POINTS = 0  # uniform starting-point sampling
TAG_CHI = 1  # core-hitting membership sampler
TAG_PTAU = 2  # P^tau endpoint ensembles
TAG_EXIT = 3  # SDE set-exit times
TAG_JUMP = 4  # generator jump-process exit times
TAG_FK = 5  # Feynman-Kac Monte Carlo


def _as_words(part) -> tuple:
    if isinstance(part, (int, np.integer)):
        return (int(part) & 0xFFFFFFFFFFFFFFFF,)
    arr = np.atleast_1d(np.asarray(part, dtype=np.float64))
    return tuple(int(w) for w in arr.view(np.uint64))


def generator_for(seed: int, tag: int, *parts) -> np.random.Generator:
    """Philox generator on the stream keyed by (master seed, role tag,
    coordinate/index parts).

    The word count enters the key so that keys of different arity never
    collide (SeedSequence treats trailing zero words as equivalent).
    """
    words = [w for part in parts for w in _as_words(part)]
    key = np.random.SeedSequence([int(seed), int(tag), len(words)] + words)
    return np.random.Generator(np.random.Philox(key))
