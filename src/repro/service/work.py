"""Request execution shared by handler threads and fleet workers.

The service has two execution paths for a validation request: inline
(the handler thread runs the validator under the GIL) and dispatched
(the request is shipped to a resident worker process of the
:class:`~repro.service.executor.FleetExecutor`, so casts from many
connections run truly in parallel).  Both paths must produce *exactly*
the same payloads, diagnostics, and typed errors — so the work itself
lives here, imported by both sides, and the transport layers carry only
plain JSON-able dicts.

``perform_request`` is the whole data plane: resolve the requested
schema (validate/cast/cast-with-mods), run it under the pair's
``Limits`` tightened to the *residual* request deadline, and return the
wire payload.  ``spec_from_wire`` is the control-plane counterpart: it
turns a ``POST /admin/pairs`` body (schema file paths or inline schema
text) into a :class:`~repro.service.registry.PairSpec` for hot
registration.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.castmods import CastWithModificationsValidator
from repro.core.cast import cast_text
from repro.core.updates import UpdateSession
from repro.core.validator import validate_document
from repro.dewey import Dewey
from repro.errors import ChainMismatchError, DeadlineExceededError
from repro.guards import Limits, limits_scope, remaining_limits
from repro.schema.registry import SchemaPair
from repro.service.diagnostics import report_payload
from repro.service.errors import MalformedRequestError
from repro.xmltree.dom import Element, Text
from repro.xmltree.parser import parse

__all__ = [
    "VALIDATION_KINDS",
    "perform_request",
    "residual_limits",
    "spec_from_wire",
]

#: Route suffix → job kind; the vocabulary both execution paths share.
VALIDATION_KINDS = ("validate", "cast", "cast-with-mods", "cast-chain")


def require_str(request: dict, field: str) -> str:
    value = request.get(field)
    if not isinstance(value, str) or not value:
        raise MalformedRequestError(
            f"request field {field!r} must be a non-empty string"
        )
    return value


def residual_limits(limits: Limits, residual: float,
                    budget: float) -> Limits:
    """``limits`` with ``deadline_seconds`` set to what is *left* of
    the request budget — admission wait and body read have already
    spent their share; validation gets the rest, and the pair's own
    cap can only tighten it further."""
    if residual <= 0:
        raise DeadlineExceededError(
            f"request deadline of {budget:g}s exhausted "
            "before validation began"
        )
    cap = limits.deadline_seconds
    cap = residual if cap is None else min(cap, residual)
    return limits.with_overrides(deadline_seconds=cap)


def _resolve_node(document, path_text: str):
    """The node at a Dewey path (``""`` = root, steps index *all*
    children, text nodes included — the numbering ``Node.dewey()``
    reports)."""
    if not isinstance(path_text, str):
        raise MalformedRequestError("mod field 'path' must be a string")
    try:
        steps = Dewey.parse(path_text).path
    except ValueError as error:
        raise MalformedRequestError(str(error)) from None
    node = document.root
    for step in steps:
        children = getattr(node, "children", None)
        if children is None or step >= len(children):
            raise MalformedRequestError(
                f"Dewey path {path_text!r} does not address a node"
            )
        node = children[step]
    return node


def apply_mods(session: UpdateSession, mods) -> None:
    """Replay a wire-encoded modification list into the session.

    Each mod is ``{"op": ..., "path": <Dewey>, ...}``; ops mirror the
    paper's update operations (§3.3).  A structurally bad mod is a 400;
    a semantically bad one (deleted target, bad position) surfaces as
    ``UpdateError`` — also a 400 — so no mod list can crash the server.
    """
    if not isinstance(mods, list):
        raise MalformedRequestError("'mods' must be a list of operations")
    for index, mod in enumerate(mods):
        if not isinstance(mod, dict) or not isinstance(mod.get("op"), str):
            raise MalformedRequestError(
                f"mods[{index}] must be an object with an 'op' string"
            )
        op = mod["op"]
        try:
            _apply_one_mod(session, mod)
        except (KeyError, TypeError) as error:
            raise MalformedRequestError(
                f"mods[{index}] ({op}): missing or mistyped field "
                f"({error})"
            ) from None
        except MalformedRequestError as error:
            raise MalformedRequestError(
                f"mods[{index}] ({op}): {error}"
            ) from None


def _apply_one_mod(session: UpdateSession, mod: dict) -> None:
    op = mod["op"]
    document = session.document
    if op == "rename":
        node = _resolve_node(document, mod["path"])
        if not isinstance(node, Element):
            raise MalformedRequestError("rename targets an element")
        session.rename(node, str(mod["label"]))
    elif op == "replace-text":
        node = _resolve_node(document, mod["path"])
        if not isinstance(node, Text):
            raise MalformedRequestError("replace-text targets a text node")
        session.replace_text(node, str(mod["value"]))
    elif op == "set-attribute":
        node = _resolve_node(document, mod["path"])
        if not isinstance(node, Element):
            raise MalformedRequestError("set-attribute targets an element")
        session.set_attribute(node, str(mod["name"]), str(mod["value"]))
    elif op == "remove-attribute":
        node = _resolve_node(document, mod["path"])
        if not isinstance(node, Element):
            raise MalformedRequestError(
                "remove-attribute targets an element"
            )
        session.remove_attribute(node, str(mod["name"]))
    elif op == "delete":
        node = _resolve_node(document, mod["path"])
        session.delete(node)
    elif op == "insert-element":
        parent = _resolve_node(document, mod["path"])
        if not isinstance(parent, Element):
            raise MalformedRequestError(
                "insert-element's path addresses the parent element"
            )
        session.insert_element(
            parent, int(mod["position"]), str(mod["label"])
        )
    elif op == "insert-text":
        parent = _resolve_node(document, mod["path"])
        if not isinstance(parent, Element):
            raise MalformedRequestError(
                "insert-text's path addresses the parent element"
            )
        session.insert_text(parent, int(mod["position"]), str(mod["value"]))
    else:
        raise MalformedRequestError(f"unknown op {op!r}")


def perform_request(
    kind: str,
    pair: SchemaPair,
    request: dict,
    limits: Limits,
    *,
    pair_name: str = "",
    fingerprint: str = "",
) -> dict:
    """Execute one validation request; returns the 200 payload.

    ``limits`` must already carry the residual request deadline (see
    :func:`residual_limits`); one deadline started from it covers every
    pass of the request (parse, then validation).  Raises
    ``ReproError`` on any typed failure — the caller maps it to an
    HTTP status.
    """
    xml = require_str(request, "xml")
    started = time.perf_counter()
    deadline = limits.deadline()
    mods_applied: Optional[int] = None
    extra: dict = {}
    with limits_scope(limits):
        if kind == "validate":
            which = request.get("schema", "target")
            if which not in ("source", "target"):
                raise MalformedRequestError(
                    "request field 'schema' must be 'source' or 'target'"
                )
            schema = pair.source if which == "source" else pair.target
            document = parse(xml, limits=limits, deadline=deadline,
                             symbols=schema.symbols)
            report = validate_document(
                schema, document, collect_stats=False, limits=limits,
                deadline=deadline,
            )
        elif kind == "cast":
            report = cast_text(
                pair,
                xml,
                limits=limits,
                stream_skip=bool(request.get("stream_skip", True)),
                trusted=bool(request.get("trusted", False)),
            )
        elif kind == "cast-with-mods":
            program_wire = request.get("program")
            if program_wire is not None and request.get("mods"):
                raise MalformedRequestError(
                    "request carries both 'mods' (instance deltas) and "
                    "'program' (parametric rules); send one"
                )
            if program_wire is not None:
                from repro.core.updateprog import (
                    UpdateProgram,
                    cast_text_with_program,
                )

                program = UpdateProgram.from_wire(program_wire)
                report, classification = cast_text_with_program(
                    pair,
                    program,
                    xml,
                    limits=limits,
                    require_safe=bool(request.get("require_safe", False)),
                )
                mods_applied = len(program.rules)
                extra["classification"] = classification.value
            else:
                document = parse(xml, limits=limits, deadline=deadline,
                                 symbols=pair.symbols)
                session = UpdateSession(document)
                apply_mods(session, request.get("mods", []))
                report = CastWithModificationsValidator(
                    pair,
                    collect_stats=False,
                    limits=remaining_limits(limits, deadline),
                ).validate(session)
                mods_applied = session.update_count
        elif kind == "cast-chain":
            chain = getattr(pair, "chain", None)
            if chain is None:
                raise ChainMismatchError(
                    f"pair {pair_name or fingerprint or '?'!r} is not an "
                    "evolution chain; POST /cast against it instead"
                )
            report = chain.cast_text(
                xml,
                limits=limits,
                stream_skip=bool(request.get("stream_skip", True)),
                trusted=bool(request.get("trusted", False)),
            )
            extra["chain_length"] = len(chain.schemas)
        else:
            raise MalformedRequestError(f"unknown job kind {kind!r}")
    payload = report_payload(
        report,
        pair=pair_name,
        fingerprint=fingerprint,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )
    if mods_applied is not None:
        payload["mods_applied"] = mods_applied
    payload.update(extra)
    return payload


def spec_from_wire(request: dict):
    """A ``POST /admin/pairs`` body → :class:`PairSpec`.

    Schema sources are either file paths (``source``/``target``) or
    inline schema text (``source_text`` + ``source_kind`` of ``dtd`` or
    ``xsd``; likewise for the target).  ``deadline_seconds`` sets the
    pair's per-request budget.  Everything wrong with the body is a
    typed 400.
    """
    from repro.guards import DEFAULT_LIMITS
    from repro.service.registry import PairSpec

    name = require_str(request, "name")

    def schema_for(side: str):
        path = request.get(side)
        text = request.get(f"{side}_text")
        if (path is None) == (text is None):
            raise MalformedRequestError(
                f"admin register wants exactly one of {side!r} (a schema "
                f"file path) or '{side}_text' (inline schema text)"
            )
        if path is not None:
            if not isinstance(path, str) or not path:
                raise MalformedRequestError(
                    f"request field {side!r} must be a non-empty path"
                )
            return path
        kind = request.get(f"{side}_kind", "dtd")
        if kind not in ("dtd", "xsd"):
            raise MalformedRequestError(
                f"'{side}_kind' must be 'dtd' or 'xsd', got {kind!r}"
            )
        if not isinstance(text, str) or not text:
            raise MalformedRequestError(
                f"'{side}_text' must be non-empty schema text"
            )
        if kind == "dtd":
            from repro.schema.dtd import parse_dtd

            return parse_dtd(text, name=f"{name}:{side}")
        from repro.schema.xsd import parse_xsd

        return parse_xsd(text, name=f"{name}:{side}")

    limits = None
    deadline = request.get("deadline_seconds")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or deadline <= 0:
            raise MalformedRequestError(
                f"'deadline_seconds' must be a positive number, "
                f"got {deadline!r}"
            )
        limits = DEFAULT_LIMITS.with_overrides(
            deadline_seconds=float(deadline)
        )
    return PairSpec(
        name, schema_for("source"), schema_for("target"), limits=limits
    )
