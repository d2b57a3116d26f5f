"""Unit tests for the resource-guard subsystem itself."""

import time

import pytest

from repro.errors import (
    DeadlineExceededError,
    DocumentTooDeepError,
    DocumentTooLargeError,
    ResourceLimitError,
    StateBudgetExceededError,
)
from repro.guards import (
    DEFAULT_LIMITS,
    UNLIMITED,
    Deadline,
    Limits,
    check_depth,
    check_document_size,
    get_limits,
    limits_scope,
    remaining_limits,
    resolve_limits,
    set_limits,
    state_budget,
)


class TestLimits:
    def test_defaults_are_all_enabled_except_deadline(self):
        assert DEFAULT_LIMITS.max_document_bytes is not None
        assert DEFAULT_LIMITS.max_tree_depth is not None
        assert DEFAULT_LIMITS.max_entity_expansions is not None
        assert DEFAULT_LIMITS.max_dfa_states is not None
        assert DEFAULT_LIMITS.deadline_seconds is None

    def test_unlimited_disables_everything(self):
        assert UNLIMITED.max_document_bytes is None
        assert UNLIMITED.max_tree_depth is None
        assert UNLIMITED.max_dfa_states is None

    @pytest.mark.parametrize(
        "field",
        [
            "max_document_bytes",
            "max_tree_depth",
            "max_entity_expansions",
            "max_dfa_states",
        ],
    )
    def test_integer_fields_reject_non_positive(self, field):
        with pytest.raises(ValueError, match=field):
            Limits(**{field: 0})
        with pytest.raises(ValueError, match=field):
            Limits(**{field: -5})

    def test_deadline_rejects_non_positive(self):
        with pytest.raises(ValueError, match="deadline_seconds"):
            Limits(deadline_seconds=0)
        with pytest.raises(ValueError, match="deadline_seconds"):
            Limits(deadline_seconds=-1.0)

    def test_with_overrides_returns_new_validated_copy(self):
        tightened = DEFAULT_LIMITS.with_overrides(max_tree_depth=3)
        assert tightened.max_tree_depth == 3
        assert DEFAULT_LIMITS.max_tree_depth != 3
        assert tightened.max_document_bytes == DEFAULT_LIMITS.max_document_bytes
        with pytest.raises(ValueError):
            DEFAULT_LIMITS.with_overrides(max_tree_depth=0)

    def test_immutable(self):
        with pytest.raises(Exception):
            DEFAULT_LIMITS.max_tree_depth = 1  # type: ignore[misc]


class TestAmbientLimits:
    def test_default_ambient_is_default_limits(self):
        assert get_limits() == DEFAULT_LIMITS

    def test_scope_installs_and_restores(self):
        custom = Limits(max_tree_depth=7)
        before = get_limits()
        with limits_scope(custom):
            assert get_limits() is custom
            assert resolve_limits(None) is custom
        assert get_limits() is before

    def test_scope_restores_on_error(self):
        before = get_limits()
        with pytest.raises(RuntimeError):
            with limits_scope(Limits(max_tree_depth=7)):
                raise RuntimeError("boom")
        assert get_limits() is before

    def test_nested_scopes(self):
        outer, inner = Limits(max_tree_depth=9), Limits(max_tree_depth=4)
        with limits_scope(outer):
            with limits_scope(inner):
                assert get_limits() is inner
            assert get_limits() is outer

    def test_set_limits_returns_previous(self):
        custom = Limits(max_tree_depth=11)
        previous = set_limits(custom)
        try:
            assert get_limits() is custom
        finally:
            set_limits(previous)

    def test_resolve_explicit_wins_over_ambient(self):
        explicit = Limits(max_tree_depth=2)
        with limits_scope(Limits(max_tree_depth=99)):
            assert resolve_limits(explicit) is explicit

    def test_state_budget_follows_ambient(self):
        with limits_scope(Limits(max_dfa_states=123)):
            assert state_budget() == 123
        assert state_budget(Limits(max_dfa_states=7)) == 7
        assert state_budget(UNLIMITED) is None


class TestDeadline:
    def test_start_none_is_none(self):
        assert Deadline.start(None) is None

    def test_fresh_deadline_not_expired(self):
        deadline = Deadline(60.0)
        assert not deadline.expired()
        deadline.check()  # does not raise

    def test_expired_deadline_raises_on_check(self):
        deadline = Deadline(1e-9)
        time.sleep(0.001)
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError, match="deadline"):
            deadline.check()

    def test_tick_is_amortized(self):
        deadline = Deadline(1e-9)
        time.sleep(0.001)
        # The first stride-1 ticks never read the clock.
        for _ in range(Deadline.stride - 1):
            deadline.tick()
        with pytest.raises(DeadlineExceededError):
            deadline.tick()

    def test_limits_deadline_factory(self):
        assert DEFAULT_LIMITS.deadline() is None
        token = Limits(deadline_seconds=30).deadline()
        assert isinstance(token, Deadline)
        assert token.budget == 30

    def test_remaining_counts_down_from_budget(self):
        deadline = Deadline(60.0)
        remaining = deadline.remaining()
        assert 0.0 < remaining <= 60.0
        time.sleep(0.002)
        assert deadline.remaining() < remaining

    def test_remaining_never_negative_after_expiry(self):
        deadline = Deadline(1e-9)
        time.sleep(0.001)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_remaining_limits_rebudgets_a_later_pass(self):
        limits = Limits(max_tree_depth=9, deadline_seconds=60.0)
        later = remaining_limits(limits, limits.deadline())
        assert 0.0 < later.deadline_seconds <= 60.0
        assert later.max_tree_depth == 9
        assert remaining_limits(limits, None) is limits

    def test_remaining_limits_raises_once_spent(self):
        deadline = Deadline(1e-9)
        time.sleep(0.001)
        with pytest.raises(DeadlineExceededError):
            remaining_limits(Limits(deadline_seconds=1e-9), deadline)


class TestGuardChecks:
    def test_document_size(self):
        limits = Limits(max_document_bytes=10)
        check_document_size(10, limits)
        with pytest.raises(DocumentTooLargeError, match="12 bytes"):
            check_document_size(12, limits)
        check_document_size(10**12, UNLIMITED)

    def test_depth(self):
        limits = Limits(max_tree_depth=3)
        check_depth(3, limits)
        with pytest.raises(DocumentTooDeepError, match="depth 4"):
            check_depth(4, limits)
        check_depth(10**6, UNLIMITED)

    def test_error_taxonomy(self):
        # Every guard error is a ResourceLimitError and a ReproError;
        # the state-budget error doubles as ValueError for backward
        # compatibility with the position-cap contract.
        from repro.errors import ReproError

        for cls in (
            DocumentTooLargeError,
            DocumentTooDeepError,
            DeadlineExceededError,
            StateBudgetExceededError,
        ):
            assert issubclass(cls, ResourceLimitError)
            assert issubclass(cls, ReproError)
        assert issubclass(StateBudgetExceededError, ValueError)
