"""The software enclave model: boundary enforcement and accounting."""

import pytest

from repro.obs import MetricsRegistry
from repro.tee import (
    AttestationService,
    BoundaryViolation,
    EnclaveError,
    Platform,
    TrustedApp,
    TrustedMemory,
    UnknownEcall,
    UnknownOcall,
    ecall,
    measure_class,
)


class EchoApp(TrustedApp):
    @ecall
    def double(self, x):
        return 2 * x

    @ecall
    def relay(self, payload: bytes):
        return self.ctx.ocall("emit", payload)

    @ecall
    def allocate(self, label, nbytes):
        self.ctx.memory.set(label, nbytes)
        return self.ctx.memory.resident_bytes

    def not_an_ecall(self):  # pragma: no cover - must stay unreachable
        return "secret"


class OtherApp(TrustedApp):
    @ecall
    def double(self, x):
        return 2 * x + 1  # different behaviour => different measurement


@pytest.fixture()
def platform():
    return Platform("machine-A", AttestationService())


@pytest.fixture()
def enclave(platform):
    return platform.create_enclave(EchoApp, "echo-1")


class TestEcallDispatch:
    def test_ecall_returns_value(self, enclave):
        assert enclave.ecall("double", 21) == 42

    def test_unknown_ecall_rejected(self, enclave):
        with pytest.raises(UnknownEcall):
            enclave.ecall("missing")

    def test_undecorated_method_not_exported(self, enclave):
        assert "not_an_ecall" not in enclave.exported_ecalls
        with pytest.raises(UnknownEcall):
            enclave.ecall("not_an_ecall")

    def test_exported_ecalls_listed(self, enclave):
        assert set(enclave.exported_ecalls) == {"allocate", "double", "relay"}

    def test_non_trusted_class_rejected(self, platform):
        class Plain:
            pass

        with pytest.raises(EnclaveError):
            platform.create_enclave(Plain, "bad")

    def test_duplicate_enclave_id_rejected(self, platform, enclave):
        with pytest.raises(EnclaveError):
            platform.create_enclave(EchoApp, "echo-1")


class TestOcallBoundary:
    def test_ocall_routes_to_registered_handler(self, enclave):
        enclave.register_ocall("emit", lambda data: data + b"!")
        assert enclave.ecall("relay", b"hi") == b"hi!"

    def test_unregistered_ocall_rejected(self, enclave):
        with pytest.raises(UnknownOcall):
            enclave.ecall("relay", b"hi")

    def test_ocall_outside_enclave_rejected(self, enclave):
        enclave.register_ocall("emit", lambda data: data)
        with pytest.raises(BoundaryViolation):
            enclave._dispatch_ocall("emit", (b"x",), {})

    def test_transition_counters(self, enclave):
        enclave.register_ocall("emit", lambda data: data)
        enclave.ecall("relay", b"12345678")
        assert enclave.counters.ecalls == 1
        assert enclave.counters.ocalls == 1
        assert enclave.counters.ecall_bytes >= 8
        assert enclave.counters.ocall_bytes >= 8

    def test_counter_delta(self, enclave):
        enclave.register_ocall("emit", lambda data: data)
        mark = enclave.counters
        enclave.ecall("relay", b"x")
        enclave.ecall("double", 1)
        delta = enclave.counters.delta(mark)
        assert delta.ecalls == 2
        assert delta.ocalls == 1

    def test_counters_read_the_registry(self):
        """Private or shared registry, the crossings are counted once and
        ``counters`` reads back exactly the ``tee.enclave.*`` series."""
        shared = MetricsRegistry()
        service = AttestationService()
        enclaves = [
            Platform("machine-A", service).create_enclave(EchoApp, "echo-1"),
            Platform("machine-B", service, metrics=shared).create_enclave(EchoApp, "echo-1"),
        ]
        for enclave in enclaves:
            enclave.register_ocall("emit", lambda data: data)
            enclave.ecall("relay", b"12345678")
            enclave.ecall("double", 21)
            enclave.ecall("relay", b"xyz")
        private, bound = (enclave.counters for enclave in enclaves)
        assert private == bound
        assert (private.ecalls, private.ocalls) == (3, 2)
        assert [
            shared.value(name, enclave="echo-1")
            for name in (
                "tee.enclave.ecalls",
                "tee.enclave.ocalls",
                "tee.enclave.ecall.bytes",
                "tee.enclave.ocall.bytes",
            )
        ] == [bound.ecalls, bound.ocalls, bound.ecall_bytes, bound.ocall_bytes]


class TestTrustedMemory:
    def test_set_and_resident(self):
        mem = TrustedMemory()
        mem.set("model", 1000)
        mem.set("store", 500)
        assert mem.resident_bytes == 1500

    def test_resize_replaces(self):
        mem = TrustedMemory()
        mem.set("store", 100)
        mem.set("store", 700)
        assert mem.resident_bytes == 700

    def test_add_grows(self):
        mem = TrustedMemory()
        mem.add("store", 100)
        mem.add("store", 50)
        assert mem.get("store") == 150

    def test_peak_tracks_maximum(self):
        mem = TrustedMemory()
        mem.set("a", 1000)
        mem.free("a")
        mem.set("b", 10)
        assert mem.peak_bytes == 1000
        assert mem.resident_bytes == 10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrustedMemory().set("x", -1)

    def test_breakdown_is_copy(self):
        mem = TrustedMemory()
        mem.set("a", 5)
        snapshot = mem.breakdown()
        snapshot["a"] = 99
        assert mem.get("a") == 5

    def test_enclave_memory_accounting(self, enclave):
        assert enclave.ecall("allocate", "buffer", 4096) == 4096
        assert enclave.memory.get("buffer") == 4096


class TestMeasurement:
    def test_same_class_same_measurement(self, platform):
        service = AttestationService()
        p2 = Platform("machine-B", service)
        e1 = platform.create_enclave(EchoApp, "a")
        e2 = p2.create_enclave(EchoApp, "b")
        assert e1.measurement == e2.measurement

    def test_different_class_different_measurement(self, platform):
        e1 = platform.create_enclave(EchoApp, "a")
        e2 = platform.create_enclave(OtherApp, "b")
        assert e1.measurement != e2.measurement

    def test_measure_class_stable(self):
        assert measure_class(EchoApp) == measure_class(EchoApp)

    def test_attributes_change_measurement(self):
        assert measure_class(EchoApp, b"debug") != measure_class(EchoApp, b"release")
