"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.addresses import Address
from repro.core.messages import (
    Message,
    bits_to_bytes,
    bytes_to_bits,
    pad_to_byte,
)
from repro.core.tlm_engine import _stream_transitions, _stream_word
from repro.core.transaction import TransactionModel
from repro.timing.overhead import OVERHEAD_CURVES, overhead_bits
from repro.timing.throughput import (
    parallel_goodput_bps,
    transaction_cycles,
    transaction_rate_hz,
)


class TestBitPackingProperties:
    @given(st.binary(max_size=512))
    def test_bits_roundtrip(self, payload):
        assert bits_to_bytes(bytes_to_bits(payload)) == payload

    @given(st.binary(min_size=1, max_size=256), st.integers(1, 7))
    def test_trailing_bits_always_discarded(self, payload, extra):
        bits = bytes_to_bits(payload) + (1,) * extra
        assert bits_to_bytes(bits) == payload

    @given(st.lists(st.integers(0, 1), max_size=200).map(tuple))
    def test_padding_is_byte_aligned_and_bounded(self, bits):
        padded = pad_to_byte(bits)
        assert len(padded) % 8 == 0
        assert 0 <= len(padded) - len(bits) <= 7
        assert padded[: len(bits)] == bits


def reference_bytes_to_bits(payload):
    """Bit-by-bit expansion, MSB first: the reference the table-driven
    encoders must reproduce."""
    bits = []
    for byte in payload:
        for i in range(7, -1, -1):
            bits.append((byte >> i) & 1)
    return tuple(bits)


def reference_address_bits(address):
    word = address.encode()
    n = address.n_bits
    return tuple((word >> (n - 1 - i)) & 1 for i in range(n))


def reference_stream_transitions(bits):
    count = 0
    prev = 1
    for value in (0,) + bits:
        if value != prev:
            count += 1
        prev = value
    return count


class TestTableDrivenBitsMatchReference:
    def test_every_byte_value(self):
        for value in range(256):
            payload = bytes([value])
            assert bytes_to_bits(payload) == reference_bytes_to_bits(payload)

    def test_every_length_up_to_64(self):
        for length in range(65):
            payload = bytes((37 * i + length) % 256 for i in range(length))
            assert bytes_to_bits(payload) == reference_bytes_to_bits(payload)

    def test_kilobyte_payload(self):
        payload = bytes((i * 131 + 7) % 256 for i in range(1024))
        bits = bytes_to_bits(payload)
        assert len(bits) == 8 * 1024
        assert bits == reference_bytes_to_bits(payload)

    @given(st.binary(max_size=64))
    def test_random_payloads(self, payload):
        assert bytes_to_bits(payload) == reference_bytes_to_bits(payload)
        assert bytes_to_bits(bytearray(payload)) == bytes_to_bits(payload)

    @given(st.integers(0, 0xE), st.integers(0, 0xF))
    def test_short_address_bits(self, prefix, fu_id):
        address = Address.short(prefix, fu_id)
        assert address.bits() == reference_address_bits(address)

    @given(st.integers(0, (1 << 20) - 1), st.integers(0, 0xF))
    def test_full_address_bits(self, prefix, fu_id):
        address = Address.full(prefix, fu_id)
        assert address.bits() == reference_address_bits(address)

    @given(
        st.one_of(
            st.builds(Address.short, st.integers(0, 0xE), st.integers(0, 0xF)),
            st.builds(
                Address.full, st.integers(0, (1 << 20) - 1), st.integers(0, 0xF)
            ),
        ),
        st.binary(max_size=64),
        st.data(),
    )
    def test_stream_word_and_transitions(self, dest, payload, data):
        bits = reference_address_bits(dest) + reference_bytes_to_bits(payload)
        word, width = _stream_word(Message(dest, payload))
        assert width == len(bits)
        assert reference_bytes_to_bits(
            word.to_bytes(width // 8, "big")
        ) == bits
        # The planner counts the transitions of a prefix of the stream
        # (the bits driven before the interjection).
        k = data.draw(st.integers(0, width))
        assert _stream_transitions(
            word >> (width - k), k
        ) == reference_stream_transitions(bits[:k])

    def test_stream_transitions_of_kilobyte_stream(self):
        dest = Address.full(0x12345, 7)
        payload = bytes((i * 131 + 7) % 256 for i in range(1024))
        bits = reference_address_bits(dest) + reference_bytes_to_bits(payload)
        word, width = _stream_word(Message(dest, payload))
        for k in (0, 1, 33, 1000, width - 1, width):
            assert _stream_transitions(
                word >> (width - k), k
            ) == reference_stream_transitions(bits[:k])


class TestAddressProperties:
    @given(st.integers(0, 0xE), st.integers(0, 0xF))
    def test_short_address_roundtrip(self, prefix, fu_id):
        address = Address.short(prefix, fu_id)
        assert Address.decode(address.encode(), 8) == address

    @given(st.integers(0, (1 << 20) - 1), st.integers(0, 0xF))
    def test_full_address_roundtrip(self, prefix, fu_id):
        address = Address.full(prefix, fu_id)
        assert Address.decode(address.encode(), 32) == address

    @given(st.integers(0, (1 << 20) - 1), st.integers(0, 0xF))
    def test_full_address_bits_carry_marker(self, prefix, fu_id):
        bits = Address.full(prefix, fu_id).bits()
        assert len(bits) == 32
        assert bits[:4] == (1, 1, 1, 1)

    @given(st.integers(0, 0xE), st.integers(0, 0xF))
    def test_short_and_full_never_collide(self, prefix, fu_id):
        """A short address's first nibble is never 0xF, so receivers
        can always distinguish the two forms after 4 bits."""
        bits = Address.short(prefix, fu_id).bits()
        assert bits[:4] != (1, 1, 1, 1)


class TestTransactionModelProperties:
    @given(st.integers(0, 100_000), st.booleans())
    def test_overhead_constant_in_length(self, n_bytes, full):
        model = TransactionModel()
        overhead = model.total_cycles(n_bytes, full) - 8 * n_bytes
        assert overhead == (43 if full else 19)

    @given(
        st.integers(0, 10_000),
        st.integers(2, 14),
        st.booleans(),
    )
    def test_energy_positive_and_linear_in_chips(self, n_bytes, chips, full):
        model = TransactionModel()
        energy = model.message_energy_pj(n_bytes, chips, full)
        per_chip = model.message_energy_pj(n_bytes, 2, full) / 2
        assert energy > 0
        assert energy == chips * per_chip

    @given(st.integers(1, 2_000))
    def test_goodput_energy_monotone_decreasing(self, n_bytes):
        model = TransactionModel()
        a = model.cost(n_bytes).energy_per_goodput_bit_pj
        b = model.cost(n_bytes + 1).energy_per_goodput_bit_pj
        assert b <= a


class TestOverheadProperties:
    @given(
        st.sampled_from(sorted(OVERHEAD_CURVES)),
        st.integers(0, 4_000),
    )
    def test_overhead_non_negative_and_monotone(self, bus, n):
        assert overhead_bits(bus, n) >= 0
        assert overhead_bits(bus, n + 1) >= overhead_bits(bus, n)

    @given(st.integers(10, 100_000))
    def test_mbus_beats_i2c_beyond_crossover(self, n):
        assert overhead_bits("MBus (short)", n) < overhead_bits("I2C", n)

    @given(st.integers(0, 9))
    def test_i2c_wins_or_ties_below_crossover(self, n):
        assert overhead_bits("I2C", n) <= overhead_bits("MBus (short)", n)


class TestThroughputProperties:
    @given(st.integers(0, 1_000), st.integers(1, 8))
    def test_more_wires_never_slower(self, n_bytes, wires):
        assert transaction_cycles(n_bytes, data_wires=wires + 1) <= (
            transaction_cycles(n_bytes, data_wires=wires)
        )

    @given(st.integers(1, 1_000), st.integers(1, 8))
    def test_speedup_bounded_by_wire_count(self, n_bytes, wires):
        serial = parallel_goodput_bps(n_bytes, 1)
        striped = parallel_goodput_bps(n_bytes, wires)
        assert striped <= wires * serial + 1e-9

    @given(st.integers(0, 500), st.integers(0, 500))
    def test_rate_ordering_follows_length(self, a, b):
        ra = transaction_rate_hz(400_000, a)
        rb = transaction_rate_hz(400_000, b)
        if a < b:
            assert ra > rb


class TestEndToEndDeliveryProperty:
    """The big one: arbitrary payloads cross the edge-accurate ring
    bit-exactly.  Kept small per-example for speed."""

    @settings(max_examples=12, deadline=None)
    @given(st.binary(min_size=0, max_size=24), st.integers(0, 15))
    def test_any_payload_any_fu_delivered(self, payload, fu_id):
        from repro.core import MBusSystem

        system = MBusSystem()
        system.add_mediator_node("m", short_prefix=0x1)
        system.add_node("a", short_prefix=0x2)
        result = system.send("m", Address.short(0x2, fu_id), payload)
        assert result.ok
        received = system.node("a").inbox[-1]
        assert received.payload == payload
        assert received.dest.fu_id == fu_id

    @settings(max_examples=8, deadline=None)
    @given(st.binary(min_size=1, max_size=16))
    def test_gated_receiver_equivalent_to_awake(self, payload):
        """Power-oblivious: the delivered bytes are identical whether
        the receiver was gated or awake."""
        from repro.core import MBusSystem

        results = {}
        for gated in (False, True):
            system = MBusSystem()
            system.add_mediator_node("m", short_prefix=0x1)
            system.add_node("a", short_prefix=0x2, power_gated=gated)
            result = system.send("m", Address.short(0x2, 5), payload)
            assert result.ok
            results[gated] = system.node("a").inbox[-1].payload
        assert results[False] == results[True] == payload
