"""One deadline per request or document, shared across all its passes.

Several entry points run a document through two passes: a parse and
then a validation, or a composed chain cast and then a per-hop
fallback.  The budget in ``Limits.deadline_seconds`` covers the whole
unit of work, so a second pass must not start a fresh copy of it.

Time is simulated: :mod:`repro.guards` reads a clock that moves only
when a test moves it.  Each scenario replays the same split against a
0.41 s budget: the first pass takes 0.36 s, and the second pass spends
another 0.21 s before its next clock read.  Either pass alone fits the
budget; together they overrun it, so the request must fail with
``DeadlineExceededError`` instead of answering.
"""

from __future__ import annotations

import types

import pytest

import repro.cli
import repro.core.cast
import repro.service.work
from repro.cli import main
from repro.errors import DeadlineExceededError
from repro.guards import Limits
from repro.schema.chain import SchemaChain
from repro.service.work import perform_request
from repro.workloads.evolution import drift_chain, violating_document
from repro.workloads.purchase_orders import _po_xsd, make_purchase_order
from repro.xmltree.serializer import serialize, write_file

BUDGET = 0.41
FIRST_PASS = 0.36
SECOND_PASS = 0.21

#: Enough elements that every validation pass makes amortized clock
#: reads (one per ``Deadline.stride`` ticks).
ITEMS = 80


class SimulatedClock:
    """Stands in for ``time`` inside :mod:`repro.guards`."""

    def __init__(self) -> None:
        self.now = 1000.0
        self._at_next_read = 0.0

    def monotonic(self) -> float:
        self.now += self._at_next_read
        self._at_next_read = 0.0
        return self.now

    def first_pass_done(self) -> None:
        """The first pass took :data:`FIRST_PASS`; the second pass
        spends :data:`SECOND_PASS` before its next clock read."""
        self.now += FIRST_PASS
        self._at_next_read = SECOND_PASS


@pytest.fixture()
def clock(monkeypatch):
    clock = SimulatedClock()
    monkeypatch.setattr(
        "repro.guards.time", types.SimpleNamespace(monotonic=clock.monotonic)
    )
    return clock


def slow_first_call(monkeypatch, module, name, clock):
    """Patch ``module.name`` so its first call ends with
    :meth:`SimulatedClock.first_pass_done`."""
    real = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        if not calls:
            clock.first_pass_done()
        calls.append(name)
        return result

    monkeypatch.setattr(module, name, wrapper)


def po_text() -> str:
    return serialize(make_purchase_order(ITEMS), indent="  ")


class TestService:
    def test_validate_shares_one_deadline(self, exp2_pair, clock,
                                          monkeypatch):
        slow_first_call(monkeypatch, repro.service.work, "parse", clock)
        with pytest.raises(DeadlineExceededError):
            perform_request(
                "validate", exp2_pair, {"xml": po_text()},
                Limits(deadline_seconds=BUDGET),
            )

    def test_validate_within_budget_answers(self, exp2_pair, clock):
        payload = perform_request(
            "validate", exp2_pair, {"xml": po_text()},
            Limits(deadline_seconds=BUDGET),
        )
        assert payload["valid"]

    def test_cast_with_mods_shares_one_deadline(self, exp2_pair, clock,
                                                monkeypatch):
        slow_first_call(monkeypatch, repro.service.work, "parse", clock)
        with pytest.raises(DeadlineExceededError):
            perform_request(
                "cast-with-mods", exp2_pair,
                {"xml": po_text(), "mods": []},
                Limits(deadline_seconds=BUDGET),
            )


class TestCli:
    def test_single_file_dom_cast_shares_one_deadline(
        self, tmp_path, clock, monkeypatch, capsys
    ):
        (tmp_path / "a.xsd").write_text(
            _po_xsd(billto_optional=True, quantity_max_exclusive=200)
        )
        (tmp_path / "b.xsd").write_text(
            _po_xsd(billto_optional=True, quantity_max_exclusive=100)
        )
        write_file(make_purchase_order(ITEMS), str(tmp_path / "po.xml"))
        slow_first_call(monkeypatch, repro.cli, "parse_file", clock)
        code = main([
            "cast", str(tmp_path / "po.xml"),
            "--source", str(tmp_path / "a.xsd"),
            "--target", str(tmp_path / "b.xsd"),
            "--no-memo", "--timeout", str(BUDGET),
        ])
        assert code == 2
        assert "[deadline-exceeded]" in capsys.readouterr().err


class TestChain:
    def test_reject_fallback_shares_one_deadline(self, clock, monkeypatch):
        schemas, kinds = drift_chain(3)
        chain = SchemaChain(schemas)
        text = violating_document(schemas, kinds, 2, item_count=ITEMS)
        limits = Limits(deadline_seconds=BUDGET)
        assert not chain.cast_text(text, limits=limits).valid
        slow_first_call(monkeypatch, repro.core.cast, "cast_text", clock)
        with pytest.raises(DeadlineExceededError):
            chain.cast_text(text, limits=limits)
