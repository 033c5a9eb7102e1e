"""The arithmetic contract: one FP16 MAC recurrence, one FP32 reduction.

Every path that can produce a GEMV result — the timed kernel, its
functional shortcut, the batched launch, the collaborative split, the
server's host fallback and the fabric router's — must equal
``gemv_reference`` bit for bit on *off-grid* operands, where the order
of the FP32 partial-sum additions shows in the last bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PimProgramError
from repro.stack import (
    CollaborativeGemv,
    ElementwiseKernel,
    GemvKernel,
    PimFabric,
    PimServer,
    PimSystem,
    Request,
    RequestOutcome,
    ServerConfig,
    SystemConfig,
    gemv_reference,
)
from repro.stack.arithmetic import (
    elementwise_reference,
    golden_reference,
    mac_partials,
    reduce_partials,
)

NUM_PCHS = 4
CONFIG = SystemConfig(num_pchs=NUM_PCHS, num_rows=256)

# With n = 8 * num_pchs and x = 1 the partial sums of output i are row i
# of W verbatim (each GRF_B register sees one product, w * 1).  These
# FP16 rows (bit patterns; found by a seeded search over N(0, 16) rows,
# about 1.3 per thousand qualify) are ones whose FP32 sum depends on the
# order of the additions: before there was one reduce_partials, the
# kernel and gemv_reference disagreed on every one of them.
ORDER_SENSITIVE_ROWS = np.array([
    [17423, 17207, 16935, 13824, 18332, 49869, 47993, 50314,
     48859, 49948, 14827, 13568, 5713, 47291, 17776, 48823,
     49596, 17725, 44764, 16812, 49836, 49493, 15743, 15766,
     49921, 17887, 49201, 18855, 49305, 48526, 43325, 50025],
    [17837, 38629, 50433, 48249, 15914, 17135, 16555, 16673,
     16952, 17715, 11388, 15629, 50814, 50590, 50279, 17583,
     16231, 46056, 16602, 50056, 17565, 17561, 47862, 50122,
     16648, 17378, 16620, 49555, 48707, 49418, 50329, 47597],
    [16386, 49372, 17449, 45262, 50430, 16611, 50005, 49177,
     49245, 18304, 47190, 16535, 16435, 4099, 15563, 18821,
     17047, 16634, 18132, 18172, 50224, 51018, 48437, 50796,
     17475, 50609, 49313, 49275, 48699, 12741, 50427, 48893],
    [16697, 48879, 15863, 17974, 16926, 16233, 13888, 50232,
     16390, 34987, 47605, 48342, 48981, 48846, 15866, 18089,
     49427, 16996, 17854, 49641, 48149, 50012, 50912, 50329,
     15544, 16454, 48882, 16913, 17749, 15658, 16865, 48617],
    [49725, 50250, 49991, 15357, 50490, 47363, 49608, 47469,
     49619, 18003, 50275, 47402, 47766, 16980, 15099, 50072,
     17836, 46774, 14920, 48469, 47735, 17685, 47967, 49571,
     5733, 49100, 18605, 46150, 16013, 17324, 50016, 17394],
    [47609, 50809, 50753, 46490, 49648, 16141, 18405, 13380,
     49572, 16973, 16595, 16895, 15524, 50183, 17709, 50193,
     17692, 16437, 15779, 17415, 15670, 38871, 47171, 15317,
     48620, 49781, 17169, 18088, 49156, 16234, 50404, 17329],
    [49584, 16499, 46362, 51276, 16787, 51472, 49499, 48715,
     45760, 50748, 47442, 16971, 51194, 51044, 16398, 16024,
     50268, 18066, 14042, 49787, 14509, 50568, 48161, 15445,
     6835, 50833, 16298, 16684, 16861, 18647, 47456, 18677],
    [49323, 16650, 46257, 17412, 50790, 17747, 49900, 15866,
     15854, 17113, 47176, 15358, 17735, 16714, 17248, 49546,
     18632, 15349, 17882, 16965, 38274, 49263, 47854, 11523,
     49888, 47432, 50312, 16979, 16544, 16599, 50807, 17180],
], dtype=np.uint16).view(np.float16)


def gemv_paths(w, x):
    """``{path name: result}`` of ``W @ x`` through every tier that can
    compute it, each on a fresh system."""
    m, n = w.shape
    results = {}

    def kernel():
        k = GemvKernel(PimSystem(CONFIG), m, n)
        k.load_weights(w)
        return k

    results["timed"], _ = kernel()(x)
    results["simulate_pchs=0"], _ = kernel()(x, simulate_pchs=0)
    results["batched"] = kernel().batched(np.stack([x, x]), simulate_pchs=1)[0][1]
    collab = CollaborativeGemv(
        PimSystem(CONFIG.replace(simulate_pchs=1)), m, n, pim_rows=m
    )
    collab.load_weights(w)
    results["collaborative"], _ = collab(x)

    degrade = ServerConfig(lanes=1, queue_depth=1, admission="degrade")
    with PimServer(PimSystem(CONFIG.replace(simulate_pchs=1)), degrade) as server:
        handles = [
            server.submit(Request("gemv", weights=w, a=x, arrival_ns=0.0))
            for _ in range(2)
        ]
        server.run()
    assert [h.outcome for h in handles] == [
        RequestOutcome.COMPLETED, RequestOutcome.DEGRADED_HOST,
    ]
    results["server completed"], results["server degraded_host"] = (
        h.result for h in handles
    )

    def kill_everything(fab):
        for shard in fab.alive_shards():
            fab.kill_worker(shard)

    with PimFabric(
        CONFIG.replace(simulate_pchs=1), workers=1,
        server_config=ServerConfig(max_respawns=0),
    ) as fabric:
        handle = fabric.submit(Request("gemv", weights=w, a=x))
        fabric._post_dispatch_hook = kill_everything
        fabric.run()
    assert (handle.outcome, handle.shard) == ("degraded_host", -1)
    results["fabric router host"] = handle.result
    return results


def assert_all_equal_reference(w, x):
    want = gemv_reference(w, x, NUM_PCHS)
    for path, got in gemv_paths(w, x).items():
        assert got.tobytes() == want.tobytes(), path


class TestOneReduction:
    def test_pinned_order_sensitive_rows(self):
        w = ORDER_SENSITIVE_ROWS
        x = np.ones(w.shape[1], dtype=np.float16)
        # The rows really are order-sensitive: one running sum over all
        # 32 partial sums (how the kernel used to add them) ends in a
        # different last bit than slice sums first, on every row.
        running = np.zeros(len(w), dtype=np.float32)
        for column in w.astype(np.float32).T:
            running = running + column
        assert np.all(running != gemv_reference(w, x, NUM_PCHS))
        assert_all_equal_reference(w, x)

    def test_seed_5_gaussian_case(self):
        """GEMV over 20 x (128 x 32) N(0, 16) weights, x = 1: three of the
        2,560 outputs used to differ between device and reference."""
        w = (np.random.default_rng(5).standard_normal((2560, 32)) * 4).astype(
            np.float16
        )
        x = np.ones(32, dtype=np.float16)
        want = gemv_reference(w, x, NUM_PCHS)
        for simulate_pchs in (0, 1):
            kernel = GemvKernel(PimSystem(CONFIG), 2560, 32)
            kernel.load_weights(w)
            y, _ = kernel(x, simulate_pchs=simulate_pchs)
            assert y.tobytes() == want.tobytes()

    @given(
        m=st.integers(1, 140),
        n=st.integers(1, 80),
        scale=st.sampled_from([0.25, 1.0, 4.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=5, deadline=None)
    def test_gaussian_operands_agree_on_every_path(self, m, n, scale, seed):
        rng = np.random.default_rng(seed)
        w = (rng.standard_normal((m, n)) * scale).astype(np.float16)
        x = (rng.standard_normal(n) * scale).astype(np.float16)
        assert_all_equal_reference(w, x)

    def test_reduction_order_is_registers_then_slices(self):
        """reduce_partials == the documented sequence of scalar FP32 adds."""
        partials = ORDER_SENSITIVE_ROWS.reshape(8, NUM_PCHS, 8).transpose(1, 2, 0)
        want = []
        for out in range(partials.shape[2]):
            total = None
            for s in range(NUM_PCHS):
                slice_sum = np.float32(partials[s, 0, out])
                for reg in range(1, 8):
                    slice_sum = np.float32(slice_sum + np.float32(partials[s, reg, out]))
                total = slice_sum if total is None else np.float32(total + slice_sum)
            want.append(total)
        got = reduce_partials(partials)
        assert got.dtype == np.float32
        assert got.tobytes() == np.array(want, dtype=np.float32).tobytes()

    def test_mac_is_two_roundings_per_chunk(self):
        """MULT then ADD, each rounded to FP16 — not a fused MAC."""
        w = np.array([[1.001, 3.0] + [0.0] * 14], dtype=np.float16)
        w[0, 8] = 1.001
        x = np.zeros(16, dtype=np.float16)
        x[0] = x[8] = 1.001
        acc = mac_partials(w, x)
        prod = np.float16(np.float16(1.001) * np.float16(1.001))
        assert acc.shape == (8, 1) and acc.dtype == np.float16
        assert acc[0, 0] == np.float16(prod + prod)
        assert not acc[1:, 0].any()
        # Special operands, bit for bit against the chunk-at-a-time loop.
        tiny = np.float16(6e-8)  # the smallest subnormal
        w = np.array(
            [[np.inf, -np.inf, np.nan, tiny, -tiny, 65504.0, 0.0, -0.0] * 3], np.float16
        )
        x = np.array(
            [0.0, np.inf, 1.0, tiny, 0.5, 2.0, np.nan, -1.0] * 2
            + [1.0, 1.0, 1.0, 4096.0, 1.0, -1.0, 1.0, 1.0],
            np.float16,
        )
        with np.errstate(all="ignore"):
            assert same_lanes(mac_partials(w, x), chunk_loop(w, x))

    @given(
        slices=st.sampled_from([1, 2, 4, 8]),
        batch=st.integers(1, 3),
        rows=st.integers(1, 40),
        chunks=st.integers(1, 6),
        kind=st.sampled_from(["gaussian", "x300", "bits"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_call_over_slices_and_inputs_is_the_float16_loop(
        self, slices, batch, rows, chunks, kind, seed
    ):
        """The float32 pass over every (input, slice) at once equals the
        float16 chunk-at-a-time loop of each, in either weight layout."""
        rng = np.random.default_rng(seed)
        n = chunks * 8
        if kind == "bits":
            w = rng.integers(0, 1 << 16, (slices, rows, n), dtype=np.uint16).view(np.float16)
            x = rng.integers(0, 1 << 16, (batch, slices, n), dtype=np.uint16).view(np.float16)
        else:
            scale = 300.0 if kind == "x300" else 1.0
            w = (rng.standard_normal((slices, rows, n)) * scale).astype(np.float16)
            x = (rng.standard_normal((batch, slices, n)) * scale).astype(np.float16)
        input_major = np.ascontiguousarray(w.swapaxes(-1, -2), dtype=np.float32)
        with np.errstate(all="ignore"):
            for weights in (w, input_major.swapaxes(-1, -2)):
                got = mac_partials(weights, x)
                assert got.shape == (batch, slices, 8, rows)
                for b in range(batch):
                    for s in range(slices):
                        assert same_lanes(got[b, s], chunk_loop(w[s], x[b, s]))


    def test_overflow_is_inf_and_raises_nothing(self):
        """Under ``np.errstate(all="raise")`` (as ``np.seterr``): a product
        past 65504 (300 * 300) and a partial sum past it (two of 256 *
        255) are +inf, and inf * 0 is NaN; nothing raises."""
        w = np.zeros((1, 16), dtype=np.float16)
        x = np.zeros(16, dtype=np.float16)
        w[0, 0], x[0] = 300.0, 300.0  # GRF_B[0]: one product overflows
        w[0, [1, 9]], x[[1, 9]] = 256.0, 255.0  # GRF_B[1]: 65280 + 65280
        w[0, 2], x[2] = np.inf, 0.0  # GRF_B[2]: inf * 0
        with np.errstate(all="raise"):
            acc = mac_partials(w, x)
        assert acc[0, 0] == np.inf and acc[1, 0] == np.inf and np.isnan(acc[2, 0])
        assert not acc[3:].any()

    @given(
        rows=st.integers(1, 12),
        chunks=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_specials_under_raise_keep_the_stepwise_bytes(self, rows, chunks, seed):
        """On operands that are half FP16 specials — signed zeros,
        subnormals, infinities, NaNs with payloads, values whose products
        overflow — nothing raises under ``np.errstate(all="raise")``, and
        the bytes, NaN payloads included, are those of the recurrence with
        an ``np.errstate`` and an ``np.clip`` in every rounding step."""
        rng = np.random.default_rng(seed)
        n = chunks * 8
        specials = np.array(
            [0x0000, 0x8000, 0x0001, 0x83FF, 0x0400, 0x7C00, 0xFC00, 0x7E00, 0xFE5A,
             0x7BFF, 0x5CB0, 0xDCB0],
            dtype=np.uint16,
        ).view(np.float16)

        def draw(shape):
            normal = rng.standard_normal(shape).astype(np.float16)
            return np.where(rng.random(shape) < 0.5, rng.choice(specials, shape), normal)

        w, x = draw((2, rows, n)), draw((3, 2, n))
        weights = np.ascontiguousarray(w.swapaxes(-1, -2), dtype=np.float32).swapaxes(-1, -2)
        with np.errstate(all="raise"):
            got = mac_partials(weights, x)
        with np.errstate(all="ignore"):
            want = stepwise_mac_partials(weights, x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def clip_round16(x):
    """``round16`` as one self-contained step: its own ``np.errstate``,
    the exponent clamped by ``np.clip``."""
    bits = x.view(np.uint32)
    sign = bits & np.uint32(0x80000000)
    bits ^= sign
    magic_bits = bits & np.uint32(0x7F800000)
    magic = magic_bits.view(np.float32)
    np.clip(magic, np.float32(2.0**-14), np.float32(2.0**15), out=magic)
    magic_bits += np.uint32(13 << 23)
    with np.errstate(over="ignore"):
        x += magic
        x -= magic
        x *= np.float32(2.0**112)
    x *= np.float32(2.0**-112)
    bits |= sign
    return x


def stepwise_mac_partials(w, x):
    """``mac_partials`` rounding through :func:`clip_round16`, step by step."""
    x = np.asarray(x, dtype=np.float32)
    prod = clip_round16(np.multiply(np.swapaxes(w, -1, -2), x[..., np.newaxis], order="C"))
    *lead, n, rows = prod.shape
    chunks = prod.reshape(*lead, n // 8, 8, rows)
    acc = chunks[..., 0, :, :] + np.float32(0.0)
    for k in range(1, n // 8):
        acc += chunks[..., k, :, :]
        clip_round16(acc)
    return acc.astype(np.float16)


def chunk_loop(w, x):
    """One slice's MAC recurrence the way the execution units compute it,
    in NumPy float16, one chunk at a time: ``(rows, n) x (n,) -> (8, rows)``."""
    acc = np.zeros((w.shape[0], 8), dtype=np.float16)
    for base in range(0, w.shape[1], 8):
        chunk = (w[:, base : base + 8] * x[base : base + 8]).astype(np.float16)
        acc = (acc + chunk).astype(np.float16)
    return acc.T


def same_lanes(got, want):
    """Bit for bit, except that a NaN lane matches any NaN: the contract
    keeps NaN-ness, not payloads."""
    nan = np.isnan(want)
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and np.array_equal(np.isnan(got), nan)
        and np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes()
    )


class TestElementwiseShortcut:
    @given(
        op=st.sampled_from(["add", "mul", "relu", "bn"]),
        length=st.integers(1, 3000),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_shortcut_equals_timed_equals_reference(self, op, length, seed):
        rng = np.random.default_rng(seed)
        a = (rng.standard_normal(length) * 2).astype(np.float16)
        b = (rng.standard_normal(length) * 2).astype(np.float16)
        scalars = (1.37, -0.61) if op == "bn" else None
        want = elementwise_reference(op, a, b, scalars)
        for simulate_pchs in (None, 1, 0):
            kernel = ElementwiseKernel(PimSystem(CONFIG), op, length)
            out, _ = kernel(a, b, scalars=scalars, simulate_pchs=simulate_pchs)
            assert out.tobytes() == want.tobytes()


class TestGoldenReference:
    def test_dispatches_every_op(self):
        w = ORDER_SENSITIVE_ROWS
        a = w[0]
        for request in (
            Request("gemv", weights=w, a=a),
            Request("add", a=a, b=w[1]),
            Request("mul", a=a, b=w[1]),
            Request("relu", a=a),
            Request("bn", a=a, scalars=(0.5, 2.0)),
            Request("bn", a=a),
        ):
            want = (
                gemv_reference(w, a, NUM_PCHS) if request.op == "gemv"
                else elementwise_reference(
                    request.op, request.a, request.b, request.scalars
                )
            )
            assert np.array_equal(golden_reference(request, NUM_PCHS), want)
        assert np.array_equal(golden_reference(Request("bn", a=a), 1), a)

    def test_unknown_op_is_a_program_error(self):
        class Bogus:
            op, a, b, weights, scalars = "conv", np.zeros(4), None, None, None

        with pytest.raises(PimProgramError, match="unknown op 'conv'"):
            golden_reference(Bogus, NUM_PCHS)
