"""Small shared helpers: deterministic seeding, hashing and CSV output.

megsim derives every seed, and seeds every generator, with its own copy of
the mixing of numpy's ``SeedSequence`` (O'Neill's ``seed_seq`` hash,
"PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", 2014). The hash constants
advance the same way for every entropy of one length, so the copy mixes
many seeds in one vectorized pass: :func:`derive_seeds` gives
``SeedSequence([master, *prefix, i]).generate_state(1, np.uint64)[0]``
for each index ``i``, and :func:`generators` gives each seed's state to
numpy's own ``PCG64``, so each Generator draws what
``np.random.default_rng(seed)`` draws. ``tests/test_util.py`` checks both
against numpy's ``SeedSequence`` bit for bit.
"""

import csv
import hashlib
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's pool of 32-bit words and its hash constants. The words
# are held in uint64 and masked to 32 bits after each product and
# difference, so the arithmetic is exact.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_MASK, _SHIFT, _WORD = np.uint64(0xFFFFFFFF), np.uint64(16), np.uint64(32)


@lru_cache(maxsize=None)
def _hash_constants(init, mult, count):
    """A hash constant's first ``count`` + 1 values, a column [count + 1,
    1]: it starts at ``init``, and each hash multiplies it by ``mult``."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, np.uint64)[:, None]


def _hash(value, consts, k, count):
    """Hashes ``k`` .. ``k + count - 1`` of ``value``, one per row."""
    value = value ^ consts[k:k + count]
    value *= consts[k + 1:k + count + 1]
    value &= _MASK
    value ^= value >> _SHIFT
    return value


def _mix(x, y):
    x = x * _MIX_MULT_L
    x -= y * _MIX_MULT_R
    x &= _MASK
    x ^= x >> _SHIFT
    return x


def _seed_state(words, n_words):
    """``SeedSequence(entropy).generate_state(n_words // 2, np.uint64)``
    [n_words // 2, N] of each column of ``words`` [L, N], the 32-bit words
    of N entropies of one length L."""
    length = len(words)
    a = _hash_constants(_INIT_A, _MULT_A,
                        _POOL * (_POOL + max(length - _POOL, 0)))
    pool = np.zeros((_POOL, words.shape[1]), np.uint64)
    pool[:length] = words[:_POOL]
    pool = _hash(pool, a, 0, _POOL)
    k = _POOL
    # each pool word is mixed into the others, so late words reach early ones
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], a, k, _POOL - 1))
        k += _POOL - 1
    # entropy beyond the pool is mixed into every pool word
    for src in range(_POOL, length):
        pool = _mix(pool, _hash(words[src], a, k, _POOL))
        k += _POOL
    b = _hash_constants(_INIT_B, _MULT_B, n_words)
    state = _hash(pool[np.arange(n_words) % _POOL], b, 0, n_words)
    # a 64-bit word is two 32-bit words, low word first
    return state[0::2] | state[1::2] << _WORD


def _uint64(values):
    """Ints as a uint64 array; a negative one, or one past 64 bits, is
    refused with a ValueError, as SeedSequence refuses a negative one."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i" \
            and values.size and values.min() < 0:
        raise ValueError(f"seeds must be non-negative, got {values.min()}")
    try:
        return np.array(values, np.uint64)
    except OverflowError as exc:
        raise ValueError(f"seeds must be ints in [0, 2**64): {exc}") \
            from exc


def _states(path, n_words):
    """The seed states [n_words // 2, *shape] of the entropies ``[*path]``
    of the numpy broadcast of ``path``, ints below 2**64. Each int enters
    as its little-endian 32-bit words, 0 as one zero word, so entropies of
    one pattern of one- and two-word ints share a pass."""
    shape = np.broadcast_shapes(*map(np.shape, path))
    low = np.empty((len(path),) + shape, np.uint64)
    for k, ints in enumerate(path):
        low[k] = _uint64(ints)
    low = low.reshape(len(path), -1)
    high = low >> _WORD
    low &= _MASK
    # bit k of an entropy's pattern is set where its k-th int has two words
    patterns = np.zeros(low.shape[1], np.uint64)
    for k, words in enumerate(high):
        patterns |= (words != 0).astype(np.uint64) << np.uint64(k)
    out = np.empty((n_words // 2, low.shape[1]), np.uint64)
    for pattern in set(patterns.tolist()):
        rows = patterns == pattern
        words = [part[k, rows] for k in range(len(path))
                 for part in (low, high)[:1 + (pattern >> k & 1)]]
        out[:, rows] = _seed_state(np.stack(words), n_words)
    return out.reshape((n_words // 2,) + shape)


def derive_seeds(master, *prefix, indices):
    """``derive_seed(m, *prefix, i)`` for each master ``m`` of ``master``
    and index ``i`` of ``indices``, in one pass: uint64 seeds [*shape of
    master, *shape of indices], one row per master."""
    master, indices = _uint64(master), _uint64(indices)
    return _states([master.reshape(master.shape + (1,) * indices.ndim),
                    *prefix, indices], 2)[0]


def derive_seed(master_seed: int, *indices: int) -> int:
    """Derive an independent child seed from a master seed and a path of
    indices: ``SeedSequence([master_seed, *indices])``'s first 64-bit
    word."""
    return int(_states([master_seed, *indices], 2)[0])


class _SeedState(ISeedSequence):
    """A seed's precomputed ``generate_state(4, np.uint64)``, handed to
    numpy's ``PCG64``, which seeds itself from it."""
    __slots__ = ("state",)

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.state) or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed seed state holds 4 uint64 words")
        return self.state


def generators(seeds):
    """Yield ``np.random.default_rng(seed)`` for each seed of ``seeds`` in
    turn, their states mixed in one pass; a Generator is built only when
    the caller takes it."""
    states = np.ascontiguousarray(_states([np.ravel(_uint64(seeds))], 8).T)
    for state in states:
        yield np.random.Generator(np.random.PCG64(_SeedState(state)))


def as_rng(seed_or_rng) -> np.random.Generator:
    """Coerce an int seed (or an existing Generator) into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return next(generators([seed_or_rng]))


def stable_word_seed(word: str, salt: str = "") -> int:
    """64-bit seed derived from a token, stable across runs and processes."""
    digest = hashlib.sha256((salt + word).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_csv(path, header, rows, comment=None):
    """Write ``rows`` under ``header``, after a ``# comment`` line if given.

    Float cells are written as ``repr(float(v))``, which round-trips
    exactly; every other cell as ``str(v)``.
    """
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating))
                          else str(v) for v in row] for row in rows)
