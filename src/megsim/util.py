"""Small shared helpers: deterministic seeding, hashing and file output.

A seed is an int in [0, 2**64); any other is refused with a ValueError.
A derived seed is numpy's ``SeedSequence([master, *path])``'s first
64-bit word, and a seed's generator is ``np.random.default_rng(seed)``.
"""

import contextlib
import csv
import hashlib
import os

import numpy as np


def _seed(value) -> int:
    value = int(value)
    if not 0 <= value < 2 ** 64:
        raise ValueError(f"seeds must be ints in [0, 2**64), got {value}")
    return value


# each random stream's purpose -> its key, pairwise distinct, so that under
# one master no two purposes share a seed. The master is cfg.seed for the
# first group, a power environment's seed for the second and EVAL_MASTER,
# the same for every config seed on purpose, for evaluate's: frozen-trace
# scores then pair their channel noise across policies, budgets and runs
STREAMS = {"corpus": 9, "autoencoder": 10, "denoiser": 11, "codec": 12,
           "eval_prompts": 20, "power_prompts": 21, "frozen_traces": 23,
           "select_traces": 24, "power_env": 25, "power_agent": 26,
           "codec_latents": 30, "eval_cell": 40, "sweep_cell": 100,
           "env_traces": 0xE0, "server_noise": 0xE1,
           "episode_noise": 0xA2, "eval_noise": 0xED}
EVAL_MASTER = 0xEDA1


def derive_seed(master_seed: int, *indices) -> int:
    """Derive an independent child seed from a master seed and a path of
    indices: ``SeedSequence([master_seed, *indices])``'s first 64-bit
    word; a purpose as the first index stands for its ``STREAMS`` key."""
    if indices and isinstance(indices[0], str):
        indices = (STREAMS[indices[0]],) + indices[1:]
    path = [_seed(value) for value in (master_seed, *indices)]
    return int(np.random.SeedSequence(path).generate_state(1, np.uint64)[0])


def derive_seeds(master, *prefix, indices):
    """``derive_seed(master, *prefix, i)`` for each index ``i`` of
    ``indices``, as a list."""
    return [derive_seed(master, *prefix, i) for i in indices]


def generators(seeds):
    """``np.random.default_rng(seed)`` for each seed of ``seeds`` in turn,
    each built when the caller takes it; every seed is checked first."""
    seeds = [_seed(seed) for seed in seeds]
    return (np.random.default_rng(seed) for seed in seeds)


def as_rng(seed_or_rng) -> np.random.Generator:
    """Coerce an int seed (or an existing Generator) into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(_seed(seed_or_rng))


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


@contextlib.contextmanager
def replace_file(path, mode="w", **open_kwargs):
    """Yield a new ``path + ".tmp"`` (a stale one removed, ``w`` in
    ``mode`` made ``x``); after the block, unlink ``path`` and rename the
    new file into place, so a reader sees the old file, none or the whole
    new one. On an exception the ``.tmp`` goes and ``path`` stays. No
    fsync. Truncating the old file or renaming over it would make ext4's
    ``auto_da_alloc`` write it back, which stalls the next overwrite.
    """
    tmp = os.fspath(path) + ".tmp"
    with contextlib.suppress(FileNotFoundError):
        os.unlink(tmp)
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
    except BaseException:
        os.unlink(tmp)
        raise
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    os.rename(tmp, path)


def write_csv(path, header, rows, comment=None):
    """Write ``rows`` under ``header``, after a ``# comment`` line if given.

    Float cells are written as ``repr(float(v))``, which round-trips
    exactly; every other cell as ``str(v)``.
    """
    with replace_file(path, newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating))
                          else str(v) for v in row] for row in rows)
