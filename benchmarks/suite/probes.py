"""Isolated layer probes: one layer, fixed inputs, no protocol around it.

Each probe calls public functions only, derives its inputs from the seed (or
from frames sampled at the transport boundary of a traced run), asserts a
round trip, and reports the median of five timed batches.  A probe answers
"did this layer get faster?" without the rest of a run diluting it; the
end-to-end metrics say whether that mattered.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Any, Callable, Sequence

import numpy as np

from workloads import CRYPTO_OPS

BATCHES = 5


def median_seconds(call: Callable[[], Any], seconds: float) -> float:
    """Median per-call time of *call* over BATCHES batches filling *seconds*.

    Each batch runs until its share of the time is spent rather than for a
    calibrated number of calls: a pooled operation costs 0.1 ms while the
    pool lasts and 5 ms once it refills, so one call predicts nothing.
    """
    call()  # first-touch effects are not what a probe measures
    samples = []
    for _ in range(BATCHES):
        calls = 0
        started = time.perf_counter()
        while True:
            call()
            calls += 1
            elapsed = time.perf_counter() - started
            if elapsed >= seconds / BATCHES:
                break
        samples.append(elapsed / calls)
    return statistics.median(samples)


def wire_probe(frames: Sequence[bytes], seconds: float) -> dict[str, float]:
    """Codec throughput over frames captured from a traced run."""
    from repro.gossip.messages import deserialize

    if not frames:
        raise ValueError("the traced run captured no frame to probe the codec with")
    messages = [deserialize(frame) for frame in frames]
    for message, frame in zip(messages, frames):
        if message.serialize() != frame or deserialize(message.serialize()) != message:
            raise AssertionError("wire round trip changed a captured frame")
    megabytes = sum(len(frame) for frame in frames) / 1e6
    encode = median_seconds(lambda: [m.serialize() for m in messages], seconds)
    decode = median_seconds(lambda: [deserialize(f) for f in frames], seconds)
    return {"encode_mb_s": megabytes / encode, "decode_mb_s": megabytes / decode}


def crypto_probe(backend: Any, width: int, seed: int, seconds: float) -> dict[str, float]:
    """Microseconds per operation on one *width*-wide vector.

    *backend* is the run's own (``build_run_setup(...).backend``), so packing
    and the blinder pool are configured exactly as in the workload; pooled
    operations pay their amortised refill.
    """
    rng = np.random.default_rng(seed)
    first, second = rng.random(width), rng.random(width)
    shares = list(range(1, backend.threshold + 1))
    one, other = backend.encrypt_vector(first), backend.encrypt_vector(second)
    combined = backend.linear_combination([one, other], [2, 1])
    decoded = backend.decrypt_with_shares(combined, shares)
    if not np.allclose(decoded, 2 * first + second, atol=1e-4):
        raise AssertionError("decrypting a linear combination lost the plaintexts")
    partials = [backend.partial_decrypt_vector(index, combined) for index in shares]
    calls: dict[str, Callable[[], Any]] = {
        "encrypt": lambda: backend.encrypt_vector(first),
        "rerandomize": lambda: backend.rerandomize(one),
        "linear_combination": lambda: backend.linear_combination([one, other], [2, 1]),
        "partial_decrypt": lambda: backend.partial_decrypt_vector(1, combined),
        "combine": lambda: backend.combine_vector(partials),
    }
    return {f"{op}_us": median_seconds(calls[op], seconds) * 1e6 for op in CRYPTO_OPS}


def slab_probe(rows: int, columns: int, runtime: Any, seed: int,
               seconds: float) -> float:
    """Nanoseconds per row of one pair-averaging round over a full slab,
    allocated the way the workload's ``runtime`` section allocates it."""
    from repro.simulation.slab import ShardCoordinator, pair_online

    rng = np.random.default_rng(seed)
    with ShardCoordinator(
        rows, columns, dtype=runtime.slab_dtype, backing=runtime.slab_backing,
        chunk_rows=runtime.slab_chunk_rows,
    ) as coordinator:
        estimates = coordinator.estimates
        for start in range(0, rows, 1 << 16):
            block = estimates[start:start + (1 << 16)]
            block[:] = rng.random(block.shape)
        pairs = pair_online(coordinator.online, rng)
        before = np.asarray(estimates.sum(axis=0, dtype=np.float64))
        per_round = median_seconds(lambda: coordinator.average_pairs(pairs), seconds)
        after = np.asarray(estimates.sum(axis=0, dtype=np.float64))
        tolerance = 1e-9 if estimates.dtype == np.float64 else 1e-4
        if not np.allclose(before, after, rtol=tolerance):
            raise AssertionError("pair averaging did not conserve the column sums")
        return per_round / (2 * pairs.shape[0]) * 1e9


def net_probe(frame: bytes, seconds: float) -> dict[str, float]:
    """Ping-pong of one captured frame over one loopback ``FrameConnection``
    pair: round-trip time and the payload rate it implies."""
    from repro.net.envelope import KIND_FRAME, Envelope
    from repro.net.live import FrameConnection, SocketStats

    request = Envelope(kind=KIND_FRAME, correlation_id=1, header={"op": "probe"},
                       payload=frame)

    async def ping_pong() -> list[float]:
        served = asyncio.Event()

        async def serve(reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
            connection = FrameConnection(reader, writer, SocketStats())
            try:
                while True:
                    await connection.write(await connection.read())
            except (asyncio.IncompleteReadError, ConnectionResetError):
                pass
            finally:
                connection.close()
                served.set()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        connection = FrameConnection(reader, writer, SocketStats())
        samples: list[float] = []
        try:
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline or len(samples) < 10:
                started = time.perf_counter()
                await connection.write(request)
                echoed = await connection.read()
                samples.append(time.perf_counter() - started)
                if echoed.payload != frame:
                    raise AssertionError("the echoed frame differs from the one sent")
        finally:
            connection.close()
            await writer.wait_closed()
            # Let the echo side see the end of the stream and finish, so the
            # loop has no task left to cancel when it shuts down.
            await asyncio.wait_for(served.wait(), 5)
            server.close()
            await server.wait_closed()
        return samples

    round_trip = statistics.median(asyncio.run(ping_pong()))
    return {"frame_rtt_us": round_trip * 1e6,
            "frame_mb_s": 2 * len(frame) / round_trip / 1e6}
