"""Workload generators for the benchmark harness."""

from __future__ import annotations

from repro.sim.rng import DeterministicRng
from repro.systems.chain import KvRequest

#: The packet-size sweep of Figures 8-9 (64 B to 16 KiB, doubling).
PACKET_SIZE_SWEEP = [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384]

#: The Zipf exponent of every key stream (YCSB's default).
ZIPF_SKEW = 0.99


def packet_sweep(start: int = 64, stop: int = 16384) -> list[int]:
    """Doubling packet sizes within [start, stop]."""
    if start <= 0 or stop < start:
        raise ValueError("invalid sweep bounds")
    sizes = []
    size = start
    while size <= stop:
        sizes.append(size)
        size *= 2
    return sizes


def zipfian_keys(
    count: int, key_space: int = 1000, seed: int = 0
) -> list[str]:
    """A skewed key stream (approximate Zipf by inverse-CDF sampling)
    with exponent :data:`ZIPF_SKEW`."""
    if count < 0 or key_space < 1:
        raise ValueError("invalid workload parameters")
    rng = DeterministicRng(seed, "zipf")
    weights = [1.0 / (rank**ZIPF_SKEW) for rank in range(1, key_space + 1)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    keys = []
    for _ in range(count):
        draw = rng.random()
        low, high = 0, key_space - 1
        while low < high:
            mid = (low + high) // 2
            if cumulative[mid] < draw:
                low = mid + 1
            else:
                high = mid
        keys.append(f"key{low}")
    return keys


def kv_workload(
    count: int,
    read_fraction: float = 0.5,
    value_bytes: int = 60,
    seed: int = 0,
) -> list[KvRequest]:
    """A put/get stream matching the §8.3 CR experiment's 60 B context."""
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction out of range")
    rng = DeterministicRng(seed, "kv")
    keys = zipfian_keys(count, seed=seed)
    requests = []
    for i, key in enumerate(keys):
        if i > 0 and rng.chance(read_fraction):
            requests.append(KvRequest("get", key))
        else:
            requests.append(KvRequest("put", key, "v" * value_bytes))
    return requests
