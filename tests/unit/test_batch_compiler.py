"""Unit tests for the tier-3 batch compiler and caches.

The compiler lowers specs and schedules to flat integer arrays; these
tests pin the node-table layout (mediator-rooted rotation, ``-1``
sentinels), message interning, scheduler-compatible time quantization,
validation-error parity with the event-loop backends, the
content-addressed compiled-system cache, and the table-driven backend
registry.
"""

import pytest

from repro.batch import (
    KIND_INTERRUPT,
    KIND_POST,
    CompiledSystem,
    cache_stats,
    clear_cache,
    compile_system_cached,
    compile_workload,
    spec_digest,
)
from repro.core import Address
from repro.core.errors import ConfigurationError
from repro.core.round_shape import shape_cache
from repro.core.messages import Message
from repro.scenario import (
    BACKEND_REGISTRY,
    BACKENDS,
    Broadcast,
    Burst,
    Interrupt,
    NodeSpec,
    OneShot,
    RandomTraffic,
    SystemSpec,
    backend_help,
    run,
    select_backend,
)
from repro.scenario.workload import PostEvent


def three_chip(**kwargs):
    return SystemSpec(
        name="three-chip",
        nodes=(
            NodeSpec("sensor", short_prefix=0x2, power_gated=True),
            NodeSpec("cpu", short_prefix=0x1, is_mediator=True),
            NodeSpec("radio", short_prefix=0x3, power_gated=True),
        ),
        **kwargs,
    )


class TestCompiledSystem:
    def test_mediator_rooted_rotation(self):
        csys = CompiledSystem(three_chip())
        # The mediator rotates to position 0; ring order is preserved.
        assert csys.names == ("cpu", "radio", "sensor")
        assert csys.spec_order_names == ("sensor", "cpu", "radio")
        assert csys.position_of == {"cpu": 0, "radio": 1, "sensor": 2}
        assert csys.short_prefixes == (0x1, 0x3, 0x2)
        assert csys.power_gated == (0, 1, 1)
        assert csys.n == 3

    def test_full_prefix_sentinel_and_auto_sleep_default(self):
        spec = SystemSpec(
            name="full",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("f", full_prefix=0xAB0CD, power_gated=True),
            ),
        )
        csys = CompiledSystem(spec)
        assert csys.short_prefixes == (0x1, -1)
        assert csys.full_prefixes == (-1, 0xAB0CD)
        # auto_sleep defaults to the node's power gating.
        assert csys.auto_sleep == (0, 1)

    def test_template_cache_starts_empty_and_is_mutable(self):
        clear_cache()
        csys = CompiledSystem(three_chip())
        shapes = shape_cache(
            csys.topology, csys.anchor_pos, csys.max_message_bytes
        )
        assert len(shapes) == 0
        run(three_chip(), OneShot("cpu", Address.short(0x2), b"\x01"),
            backend="batch")
        # The run planned into the store entry its ring shares.
        assert len(shapes) > 0

    def test_anchor_resolution(self):
        spec = SystemSpec(
            name="anchored",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2),
            ),
            arbitration_anchor="a",
        )
        assert CompiledSystem(spec).anchor_pos == 1
        # Anchoring at the mediator is the default: no override.
        spec_m = SystemSpec(
            name="anchored-m",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2),
            ),
            arbitration_anchor="m",
        )
        assert CompiledSystem(spec_m).anchor_pos is None


_MEDIATOR = NodeSpec("m", short_prefix=0x1, is_mediator=True)
_PING = OneShot("m", Address.short(0x2, 5), b"\x01")


def _system(*members, mediator=_MEDIATOR, **kwargs):
    return SystemSpec(name="bad", nodes=(mediator,) + members, **kwargs)


class TestValidationParity:
    """Every tier must refuse exactly what MBusSystem refuses — same
    exception type, same message — so error symmetry holds in the
    differential harness."""

    @pytest.mark.parametrize("spec, workload, expected", [
        pytest.param(
            _system(NodeSpec("a", short_prefix=0x2),
                    NodeSpec("b", short_prefix=0x2)),
            _PING, "used by both", id="duplicate-short-prefix",
        ),
        pytest.param(
            _system(NodeSpec("a", short_prefix=0xF)),
            _PING, "is reserved", id="reserved-short-prefix",
        ),
        # Only 14 short prefixes are assignable, so a 15th
        # short-addressed node always reuses or reserves one, which
        # is reported before the budget.
        pytest.param(
            _system(*[NodeSpec(f"n{i}", short_prefix=0x2 + i)
                      for i in range(14)]),
            _PING, "is reserved", id="fifteen-short-prefixes",
        ),
        pytest.param(
            _system(NodeSpec("ghost")),
            _PING, "needs a short or full prefix", id="prefixless-member",
        ),
        pytest.param(
            _system(NodeSpec("a", short_prefix=0x2, power_gated=True),
                    arbitration_anchor="a"),
            _PING, "cannot be power-gated", id="gated-anchor",
        ),
        pytest.param(
            _system(NodeSpec("a", short_prefix=0x2),
                    mediator=NodeSpec("m", short_prefix=0x1,
                                      is_mediator=True, power_gated=True)),
            _PING, "must be able to self-start", id="gated-mediator",
        ),
        pytest.param(
            _system(NodeSpec("a", short_prefix=0x10)),
            _PING, "outside 4-bit range", id="short-prefix-too-wide",
        ),
        pytest.param(
            _system(NodeSpec("a", short_prefix=-1)),
            _PING, "outside 4-bit range", id="short-prefix-negative",
        ),
        pytest.param(
            _system(NodeSpec("a", full_prefix=1 << 21)),
            _PING, "outside 20-bit range", id="full-prefix-too-wide",
        ),
        pytest.param(
            _system(NodeSpec("a", short_prefix=0x2, node_delay_ps=-5)),
            _PING, "node_delay_ps must be positive", id="node-delay-negative",
        ),
        pytest.param(
            _system(NodeSpec("a", short_prefix=0x2, node_delay_ps=0)),
            _PING, "node_delay_ps must be positive", id="node-delay-zero",
        ),
        pytest.param(
            three_chip(),
            OneShot("nobody", Address.short(0x2, 5), b"\x01"),
            "no node named", id="unknown-workload-source",
        ),
    ])
    def test_same_error_on_every_tier(self, spec, workload, expected):
        messages = []
        for backend in ("edge", "fast", "batch"):
            with pytest.raises(ConfigurationError, match=expected) as err:
                run(spec, workload, backend=backend)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == messages[2]


class TestCompiledWorkload:
    def test_arrays_and_interning(self):
        spec = three_chip()
        csys = CompiledSystem(spec)
        workload = (
            Burst("cpu", Address.short(0x2, 5), b"\xAA", count=3)
            + Interrupt("radio", at_s=0.02)
        )
        cwl = compile_workload(workload.compile(spec), csys)
        assert len(cwl) == 4
        assert cwl.kind == (
            KIND_POST, KIND_POST, KIND_POST, KIND_INTERRUPT,
        )
        # Three identical posts intern to a single message...
        assert len(cwl.messages) == 1
        assert cwl.ref == (0, 0, 0, -1)
        # ...and positions are mediator-rooted (cpu=0, radio=1).
        assert cwl.pos == (0, 0, 0, 1)

    def test_interning_matches_a_message_keyed_reference(self):
        """Interning on event fields gives the ids and table order of
        interning by :class:`Message`, across workloads compiled one
        after another against one cached system."""
        spec = SystemSpec(
            name="interning",
            nodes=(
                NodeSpec("cpu", short_prefix=0x1, is_mediator=True),
                NodeSpec("sensor", short_prefix=0x2, power_gated=True),
                NodeSpec("radio", short_prefix=0x3, full_prefix=0xAB0CD,
                         broadcast_channels=frozenset({1})),
            ),
        )
        workloads = [
            Burst("cpu", Address.short(0x2, 5), b"\xAA", count=4),
            Burst("cpu", Address.short(0x2, 5), b"\xAA", count=2,
                  priority=True),
            Burst("sensor", Address.full(0xAB0CD, 1), b"\x01\x02",
                  count=3),
            RandomTraffic(seed=3, count=25, mean_gap_s=0.001,
                          priority_fraction=0.3),
            Broadcast("cpu", channel=1, payload=b"\xAA"),
            Interrupt("sensor", at_s=0.01)
            + OneShot("cpu", Address.short(0x2, 5), b"\xAA", at_s=0.02),
        ]
        clear_cache()
        csys = compile_system_cached(spec)
        ids = {}
        table = []
        compiled = []
        for workload in workloads:
            schedule = workload.compile(spec)
            ref = []
            for event in schedule:
                if isinstance(event, PostEvent):
                    message = Message(event.dest, event.payload,
                                      event.priority)
                    if message not in ids:
                        ids[message] = len(table)
                        table.append(message)
                    ref.append(ids[message])
                else:
                    ref.append(-1)
            cwl = compile_workload(schedule, csys)
            assert cwl.ref == tuple(ref)
            assert cwl.messages == tuple(table)
            compiled.append(cwl)
        assert csys.message_table == table
        assert csys.message_ids == ids
        assert len(table) > 5
        # Equal messages share one id across workloads; the priority
        # flag alone makes a different message.
        burst, priority, *_rest, interrupt_then_post = compiled
        assert interrupt_then_post.ref == (-1, burst.ref[0])
        assert priority.ref[0] != burst.ref[0]

    def test_quantization_matches_event_loop_runner(self):
        spec = three_chip()
        csys = CompiledSystem(spec)
        workload = OneShot(
            "cpu", Address.short(0x2, 5), b"\x01", at_s=0.0123456789
        )
        cwl = compile_workload(workload.compile(spec), csys)
        assert cwl.t_ps == (int(round(0.0123456789 * 1e12)),)


class TestCompiledSystemCache:
    def test_content_addressed_reuse(self):
        clear_cache()
        spec = three_chip()
        first = compile_system_cached(spec)
        # A *different* spec object with equal content hits the cache.
        second = compile_system_cached(
            SystemSpec.from_dict(spec.to_dict())
        )
        assert first is second
        stats = cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        clear_cache()
        assert cache_stats()["entries"] == 0

    def test_digest_is_canonical(self):
        spec = three_chip()
        assert spec_digest(spec) == spec_digest(
            SystemSpec.from_dict(spec.to_dict())
        )

    def test_validation_errors_do_not_poison_cache(self):
        clear_cache()
        bad = SystemSpec(
            name="dup",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2),
                NodeSpec("b", short_prefix=0x2),
            ),
        )
        with pytest.raises(ConfigurationError):
            compile_system_cached(bad)
        assert cache_stats()["entries"] == 0


class TestBackendRegistry:
    def test_registry_drives_backends_tuple(self):
        assert BACKENDS == tuple(BACKEND_REGISTRY)
        assert set(BACKENDS) == {"auto", "edge", "fast", "batch"}

    def test_backend_help_mentions_every_backend(self):
        text = backend_help()
        for name in BACKENDS:
            assert f"{name}:" in text

    def test_batch_is_explicit_never_auto(self):
        assert select_backend("batch") == "batch"
        assert select_backend("auto") == "fast"
        assert select_backend("auto", trace=True) == "edge"

    def test_unknown_backend_lists_the_registry(self):
        with pytest.raises(ConfigurationError) as err:
            select_backend("warp")
        assert str(BACKENDS) in str(err.value)

    def test_batch_rejects_trace_and_faults(self):
        with pytest.raises(ConfigurationError, match="trac"):
            select_backend("batch", trace=True)
        with pytest.raises(ConfigurationError, match="edge"):
            select_backend("batch", faults_active=True)
