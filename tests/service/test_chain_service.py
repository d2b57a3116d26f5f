"""Evolution-chain endpoints: ``POST /cast-chain`` and parametric
update programs over the wire — typed statuses, never bare 500s."""

import pytest

from repro.service.registry import (
    PairSpec,
    ServiceRegistry,
    demo_chain_spec,
    demo_specs,
)
from repro.service.server import ValidationService
from repro.workloads.purchase_orders import (
    make_purchase_order,
    source_schema_experiment1,
)
from repro.xmltree.serializer import serialize

from tests.service.conftest import ServiceHandle
from tests.skipfaults import faulty_orders

FAULTY = faulty_orders()


def po_xml(items: int = 3, **kwargs) -> str:
    return serialize(make_purchase_order(items, **kwargs))


@pytest.fixture(scope="module")
def chain_service():
    # po-id revalidates against the *same* schema, so deleting the
    # optional shipDate is statically always-safe — the wire-visible
    # zero-traversal verdict.
    identity = PairSpec(
        "po-id", source_schema_experiment1(), source_schema_experiment1()
    )
    registry = ServiceRegistry(
        [*demo_specs(), identity, demo_chain_spec()]
    )
    service = ValidationService(registry)
    host, port = service.start()
    assert service.wait_ready(60.0), service.warm_error
    handle = ServiceHandle(service, host, port)
    yield handle
    service.close()


class TestCastChain:
    def test_pairs_lists_chain_length(self, chain_service):
        status, payload, _ = chain_service.get("/pairs")
        assert status == 200
        by_name = {p["name"]: p for p in payload["pairs"]}
        assert by_name["po-chain"]["chain_length"] == 3
        assert "chain_length" not in by_name["po-exp1"]

    def test_valid_document(self, chain_service):
        status, payload, _ = chain_service.post(
            "/cast-chain", {"pair": "po-chain", "xml": po_xml()}
        )
        assert status == 200
        assert payload["valid"] is True
        assert payload["chain_length"] == 3

    @pytest.mark.parametrize("name", sorted(FAULTY))
    def test_hidden_faults_are_not_well_formed(self, chain_service, name):
        # Faults in the subtrees Experiment 1 (and the chain's hops)
        # never validate: both cast endpoints still read every token.
        for path, pair in (("/cast", "po-exp1"), ("/cast-chain", "po-chain")):
            status, payload, _ = chain_service.post(
                path, {"pair": pair, "xml": FAULTY[name]}
            )
            assert status == 200, path
            assert payload["valid"] is False, path
            message = payload["diagnostics"][0]["message"]
            assert message.startswith("not well-formed: "), path

    def test_invalid_document_reports_hop_diagnostics(self, chain_service):
        # billTo missing: legal at revision 0, required by the last hop.
        status, payload, _ = chain_service.post(
            "/cast-chain",
            {"pair": "po-chain", "xml": po_xml(with_billto=False)},
        )
        assert status == 200
        assert payload["valid"] is False
        assert payload["diagnostics"]

    def test_chain_mismatch_on_plain_pair(self, chain_service):
        status, payload, _ = chain_service.post(
            "/cast-chain", {"pair": "po-exp1", "xml": po_xml()}
        )
        assert status == 400
        assert payload["error"]["code"] == "chain-mismatch"

    def test_plain_cast_works_on_chain_pair(self, chain_service):
        status, payload, _ = chain_service.post(
            "/cast", {"pair": "po-chain", "xml": po_xml()}
        )
        assert status == 200
        assert payload["valid"] is True


class TestProgramOverWire:
    def test_classification_in_payload(self, chain_service):
        status, payload, _ = chain_service.post(
            "/cast-with-mods",
            {
                "pair": "po-id",
                "xml": po_xml(),
                "program": [{"op": "delete", "label": "shipDate"}],
            },
        )
        assert status == 200
        assert payload["valid"] is True
        assert payload["classification"] == "always-safe"
        assert payload["mods_applied"] == 1

    def test_require_safe_is_422(self, chain_service):
        status, payload, _ = chain_service.post(
            "/cast-with-mods",
            {
                "pair": "po-exp2",
                "xml": po_xml(),
                "program": [{"op": "delete", "label": "street"}],
                "require_safe": True,
            },
        )
        assert status == 422
        assert payload["error"]["code"] == "unsafe-update-program"

    def test_mods_and_program_conflict_is_400(self, chain_service):
        status, payload, _ = chain_service.post(
            "/cast-with-mods",
            {
                "pair": "po-exp2",
                "xml": po_xml(),
                "mods": [{"op": "delete", "path": "1"}],
                "program": [{"op": "delete", "label": "shipDate"}],
            },
        )
        assert status == 400
        assert payload["error"]["code"] == "bad-request"

    def test_malformed_program_is_400(self, chain_service):
        status, payload, _ = chain_service.post(
            "/cast-with-mods",
            {
                "pair": "po-exp2",
                "xml": po_xml(),
                "program": [{"op": "explode"}],
            },
        )
        assert status == 400
        assert payload["error"]["code"] != "internal"
