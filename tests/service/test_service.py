"""Happy-path and lifecycle tests for the validation service."""

from __future__ import annotations

import threading
import time

import pytest

from repro.guards import Limits
from repro.service.errors import NotReadyError, UnknownPairError
from repro.service.registry import (
    PairSpec,
    ServiceRegistry,
    demo_specs,
)
from repro.service.server import ServiceConfig, ValidationService
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.serializer import serialize

from tests.service.conftest import boot


def po_xml(items: int = 3, **kwargs) -> str:
    return serialize(make_purchase_order(items, **kwargs))


class TestRegistry:
    def test_lookup_before_warm_is_not_ready(self):
        registry = ServiceRegistry(demo_specs())
        with pytest.raises(NotReadyError):
            registry.get("po-exp1")

    def test_lookup_by_name_fingerprint_and_prefix(self):
        registry = ServiceRegistry(demo_specs())
        registry.warm()
        entry = registry.get("po-exp1")
        assert registry.get(entry.fingerprint) is entry
        assert registry.get(entry.fingerprint[:12]) is entry

    def test_unknown_and_short_prefix_lookups_fail(self):
        registry = ServiceRegistry(demo_specs())
        registry.warm()
        with pytest.raises(UnknownPairError):
            registry.get("no-such-pair")
        entry = registry.get("po-exp1")
        # Below the minimum prefix length even a correct prefix misses.
        with pytest.raises(UnknownPairError):
            registry.get(entry.fingerprint[:4])

    def test_warm_is_idempotent(self):
        registry = ServiceRegistry(demo_specs())
        first = registry.warm()
        assert registry.warm() == first

    def test_per_pair_limits_override_default(self):
        tight = Limits(deadline_seconds=0.5)
        specs = demo_specs()
        specs[0] = PairSpec(
            specs[0].name, specs[0].source, specs[0].target, limits=tight
        )
        registry = ServiceRegistry(
            specs, default_limits=Limits(deadline_seconds=9.0)
        )
        registry.warm()
        assert registry.get("po-exp1").limits.deadline_seconds == 0.5
        assert registry.get("po-exp2").limits.deadline_seconds == 9.0

    def test_empty_and_duplicate_specs_rejected(self):
        with pytest.raises(ValueError):
            ServiceRegistry([])
        specs = demo_specs()
        twice = [specs[0], specs[0]]
        with pytest.raises(ValueError):
            ServiceRegistry(twice)

    def test_artifact_cache_round_trip(self, tmp_path):
        cold = ServiceRegistry(demo_specs(), cache_dir=str(tmp_path))
        cold.warm()
        assert not any(e.from_cache for e in cold.entries())
        warm = ServiceRegistry(demo_specs(), cache_dir=str(tmp_path))
        warm.warm()
        assert all(e.from_cache for e in warm.entries())
        assert [e.fingerprint for e in warm.entries()] == [
            e.fingerprint for e in cold.entries()
        ]


class TestEndpoints:
    def test_healthz_reports_counters(self, demo_service):
        status, payload, _ = demo_service.get("/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["ready"] is True
        assert payload["admission"]["admitted"] == 0

    def test_pairs_lists_fingerprints_and_budgets(self, demo_service):
        status, payload, _ = demo_service.get("/pairs")
        assert status == 200
        names = [p["name"] for p in payload["pairs"]]
        assert names == ["po-exp1", "po-exp2"]
        for pair in payload["pairs"]:
            assert len(pair["fingerprint"]) == 64
            assert "max_document_bytes" in pair

    def test_validate_valid_document(self, demo_service):
        status, payload, _ = demo_service.post(
            "/validate",
            {"pair": "po-exp1", "xml": po_xml(), "schema": "source"},
        )
        assert status == 200
        assert payload["valid"] is True
        assert payload["diagnostics"] == []
        assert payload["pair"] == "po-exp1"
        assert payload["elapsed_ms"] >= 0

    def test_validate_by_fingerprint(self, demo_service):
        _, pairs, _ = demo_service.get("/pairs")
        fingerprint = pairs["pairs"][0]["fingerprint"]
        status, payload, _ = demo_service.post(
            "/validate",
            {"pair": fingerprint, "xml": po_xml(), "schema": "source"},
        )
        assert status == 200
        assert payload["fingerprint"] == fingerprint

    def test_invalid_document_is_200_with_diagnostics(self, demo_service):
        # Valid XML that violates the target schema (exp1 makes billTo
        # required): a verdict, not an error — the request succeeded.
        status, payload, _ = demo_service.post(
            "/cast",
            {"pair": "po-exp1", "xml": po_xml(3, with_billto=False)},
        )
        assert status == 200
        assert payload["valid"] is False
        assert len(payload["diagnostics"]) == 1
        diagnostic = payload["diagnostics"][0]
        assert diagnostic["code"] == "validation-failed"
        assert diagnostic["message"]

    def test_cast_valid_document(self, demo_service):
        status, payload, _ = demo_service.post(
            "/cast", {"pair": "po-exp1", "xml": po_xml()}
        )
        assert status == 200
        assert payload["valid"] is True

    @pytest.mark.parametrize(
        "fields",
        [{}, {"trusted": True}, {"stream_skip": False}],
        ids=["plain", "trusted", "no-stream-skip"],
    )
    def test_cast_reads_no_skim_fields(self, demo_service, fields):
        # Experiment 1 subsumes ``items``, so the cast drains it
        # without validating it.  The drain finds the broken tag; a
        # trusted byte search would answer valid, so the body cannot
        # ask for one.
        xml = po_xml().replace("<items>", "<items><bogus <<", 1)
        status, payload, _ = demo_service.post(
            "/cast", {"pair": "po-exp1", "xml": xml, **fields}
        )
        assert status == 200
        assert payload["valid"] is False
        assert "not well-formed" in payload["diagnostics"][0]["message"]

    def test_cast_with_mods_rename(self, demo_service):
        # Experiment 1's schema change renames shipTo/billTo types; a
        # no-op mod list keeps the document valid.
        status, payload, _ = demo_service.post(
            "/cast-with-mods",
            {"pair": "po-exp1", "xml": po_xml(), "mods": []},
        )
        assert status == 200
        assert payload["valid"] is True
        assert payload["mods_applied"] == 0

    def test_cast_with_mods_applies_operations(self, demo_service):
        # Dewey 2.0.0.0: items -> first item -> productName -> text.
        status, payload, _ = demo_service.post(
            "/cast-with-mods",
            {
                "pair": "po-exp2",
                "xml": po_xml(3, with_billto=True),
                "mods": [
                    {
                        "op": "replace-text",
                        "path": "2.0.0.0",
                        "value": "Lawnmower model 7",
                    }
                ],
            },
        )
        assert status == 200
        assert payload["valid"] is True
        assert payload["mods_applied"] == 1

    def test_healthz_counts_completed_requests(self, demo_service):
        demo_service.post(
            "/validate", {"pair": "po-exp1", "xml": po_xml()}
        )
        _, payload, _ = demo_service.get("/healthz")
        assert payload["admission"]["admitted"] == 1
        assert payload["admission"]["completed"] == 1


class TestLifecycle:
    def test_readyz_flips_after_warm(self):
        # Stall warm-up behind an event so the pre-ready window is
        # deterministic, not a race against schema compilation.
        gate = threading.Event()
        registry = ServiceRegistry(demo_specs())
        original_warm = registry.warm

        def gated_warm():
            gate.wait(timeout=30.0)
            return original_warm()

        registry.warm = gated_warm
        service = ValidationService(registry)
        host, port = service.start()
        from tests.faultinject import http_json

        try:
            status, payload, headers = http_json(
                host, port, "GET", "/readyz"
            )
            assert status == 503
            assert payload["ready"] is False
            assert "retry-after" in {k.lower() for k in headers}
            # healthz answers 200 while warming: the process is alive.
            status, _, _ = http_json(host, port, "GET", "/healthz")
            assert status == 200
            # POSTs are refused with a typed 503 while warming.
            status, payload, _ = http_json(
                host, port, "POST", "/validate",
                {"pair": "po-exp1", "xml": "<a/>"},
            )
            assert status == 503
            assert payload["error"]["code"] == "not-ready"
            gate.set()
            assert service.wait_ready(30.0)
            status, payload, _ = http_json(host, port, "GET", "/readyz")
            assert status == 200
            assert payload["ready"] is True
            assert payload["pairs"] == 2
        finally:
            gate.set()
            service.close()

    def test_drain_finishes_inflight_and_stops(self):
        entered = threading.Event()
        release = threading.Event()

        def hold(route: str) -> None:
            entered.set()
            release.wait(timeout=30.0)

        handle = boot(after_admit_hook=hold)
        service = handle.service
        results: list = []

        def client() -> None:
            results.append(
                handle.post(
                    "/validate",
                    {"pair": "po-exp1", "xml": po_xml()},
                    timeout=30.0,
                )
            )

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        assert entered.wait(timeout=10.0)
        service.begin_drain()
        # New work is refused while the held request is still in flight.
        status, payload, _ = handle.post(
            "/validate", {"pair": "po-exp1", "xml": po_xml()}
        )
        assert status == 503
        assert payload["error"]["code"] == "draining"
        assert not service.stopped
        release.set()
        thread.join(timeout=30.0)
        assert results and results[0][0] == 200, (
            "in-flight request must complete during drain"
        )
        assert service._stopped.wait(10.0)
        stats = service.admission.stats
        assert stats.admitted == stats.completed

    def test_close_is_immediate(self):
        handle = boot()
        handle.service.close()
        assert handle.service.stopped

    def test_double_start_rejected(self, demo_service):
        with pytest.raises(RuntimeError):
            demo_service.service.start()


class TestConfig:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_concurrent=0)
        with pytest.raises(ValueError):
            ServiceConfig(queue_timeout=0)
        with pytest.raises(ValueError):
            ServiceConfig(request_timeout=-1)


class TestResidualDeadline:
    def test_validation_budget_is_whats_left_of_the_request(self):
        """The admission-time deadline propagates: validation gets the
        *residual* request budget, not a fresh clock."""
        handle = boot(
            ServiceConfig(request_timeout=0.4),
            after_admit_hook=lambda route: time.sleep(0.5),
        )
        try:
            status, payload, _ = handle.post(
                "/validate",
                {"pair": "po-exp1", "xml": po_xml()},
                timeout=30.0,
            )
            assert status == 408
            assert payload["error"]["code"] in (
                "deadline-exceeded", "request-timeout"
            )
        finally:
            handle.service.close()

    def test_pair_deadline_tighter_than_request_wins(self):
        entry_limits = Limits(deadline_seconds=5.0)
        registry = ServiceRegistry(
            demo_specs(limits=entry_limits)
        )
        registry.warm()
        service = ValidationService(
            registry, ServiceConfig(request_timeout=30.0)
        )
        from repro.guards import Deadline

        entry = registry.get("po-exp1")
        limits = service._residual_limits(entry, Deadline(30.0))
        assert limits.deadline_seconds <= 5.0
