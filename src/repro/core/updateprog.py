"""Parametric update programs with static per-pair safety classification.

:mod:`repro.core.updates` records *instance* deltas: "this node was
renamed".  An update *program* is the parametric lift: "every element
labeled ``shipDate`` is deleted", "every ``comment`` becomes ``note``",
"every ``item`` gains a trailing ``auditTag``".  Because the rules only
mention labels — never concrete nodes — their effect on a schema pair
(S, S′) can be analysed *before any document arrives*:

* **always-safe** — for every S-valid document, the transformed document
  is S′-valid.  The verdict is known statically; casting is O(1) with
  zero document traversal (the ≥100x shortcut
  :mod:`benchmarks.bench_chain` gates).
* **never-safe** — for no S-valid document is the transform S′-valid.
  Also O(1), with an invalid verdict.
* **instance-dependent** — the program is lowered onto the document's
  :class:`~repro.core.updates.UpdateSession` and the paper's
  cast-with-modifications walk decides.

The analysis works on content-model automata.  A program induces a word
transform on every element's child word: deletions erase a symbol
(ε-transitions), renames relabel it, inserts append/prepend it — so the
transformed child language is a rational image ``t(L_τ)`` computed by an
ε-NFA subset construction (:func:`_image_dfa`).  Always-safety is the
greatest-fixpoint style descent: ``t(L_τ) ⊆ L(regexp_τ′)`` at every
reachable (label, τ, τ′) triple, attribute obligations carried over,
inserted (empty) elements valid under their target type.  Never-safety
is the root-level dual: the image and the target content are disjoint at
every permitted root.  Both sides are conservative in the sound
direction — a "maybe" degrades to instance-dependent, never to a wrong
O(1) verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

from repro.automata.dfa import DFA, harmonize
from repro.core.result import ValidationReport
from repro.errors import UnsafeUpdateProgramError, UpdateError
from repro.guards import remaining_limits, resolve_limits
from repro.schema.model import ComplexType, Schema, is_complex, is_simple
from repro.schema.registry import SchemaPair


# -- rules -------------------------------------------------------------------


@dataclass(frozen=True)
class DeleteRule:
    """Delete every element labeled ``label`` (with its whole subtree)."""

    label: str

    def to_wire(self) -> dict:
        return {"op": "delete", "label": self.label}


@dataclass(frozen=True)
class RenameRule:
    """Relabel every element labeled ``old`` to ``new``."""

    old: str
    new: str

    def to_wire(self) -> dict:
        return {"op": "rename", "from": self.old, "to": self.new}


@dataclass(frozen=True)
class InsertRule:
    """Insert a fresh empty ``label`` element under every element
    labeled ``parent`` — at the front (``position="first"``) or the back
    (``"last"``) of its children."""

    label: str
    parent: str
    position: str = "last"

    def __post_init__(self) -> None:
        if self.position not in ("first", "last"):
            raise UpdateError(
                f"insert position must be 'first' or 'last', "
                f"got {self.position!r}"
            )

    def to_wire(self) -> dict:
        return {
            "op": "insert",
            "label": self.label,
            "parent": self.parent,
            "position": self.position,
        }


Rule = Union[DeleteRule, RenameRule, InsertRule]


@dataclass(frozen=True)
class UpdateProgram:
    """An ordered list of parametric rules.

    Rule labels refer to the *original* document: deletes and renames
    match elements by their pre-update label, and insert rules choose
    parents by pre-update label too (freshly inserted elements are never
    re-matched).  Deletes are applied first, then renames, then inserts
    in rule order — the same canonical order the static analysis models.
    """

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        deleted = {r.label for r in self.rules if isinstance(r, DeleteRule)}
        renamed: dict[str, str] = {}
        for rule in self.rules:
            if isinstance(rule, RenameRule):
                if rule.old in deleted:
                    raise UpdateError(
                        f"label {rule.old!r} is both deleted and renamed"
                    )
                if rule.old in renamed and renamed[rule.old] != rule.new:
                    raise UpdateError(
                        f"label {rule.old!r} renamed to two different labels"
                    )
                renamed[rule.old] = rule.new

    # Derived views used by both the analysis and the instance lowering.

    @property
    def deletes(self) -> frozenset[str]:
        return frozenset(
            r.label for r in self.rules if isinstance(r, DeleteRule)
        )

    @property
    def renames(self) -> dict[str, str]:
        return {
            r.old: r.new for r in self.rules if isinstance(r, RenameRule)
        }

    def inserts_under(self, parent_label: str) -> list[InsertRule]:
        return [
            r
            for r in self.rules
            if isinstance(r, InsertRule) and r.parent == parent_label
        ]

    def post_label(self, label: str) -> Optional[str]:
        """The label after the program runs, or None if deleted."""
        if label in self.deletes:
            return None
        return self.renames.get(label, label)

    def to_wire(self) -> list[dict]:
        return [rule.to_wire() for rule in self.rules]

    @classmethod
    def from_wire(cls, payload) -> "UpdateProgram":
        """Decode the wire shape (a list of op objects); raises
        :class:`UpdateError` on malformed input."""
        if not isinstance(payload, list):
            raise UpdateError("update program must be a list of rules")
        rules: list[Rule] = []
        for index, entry in enumerate(payload):
            if not isinstance(entry, dict):
                raise UpdateError(f"program rule {index} must be an object")
            op = entry.get("op")
            try:
                if op == "delete":
                    rules.append(DeleteRule(str(entry["label"])))
                elif op == "rename":
                    rules.append(
                        RenameRule(str(entry["from"]), str(entry["to"]))
                    )
                elif op == "insert":
                    rules.append(
                        InsertRule(
                            str(entry["label"]),
                            str(entry["parent"]),
                            str(entry.get("position", "last")),
                        )
                    )
                else:
                    raise UpdateError(
                        f"program rule {index}: unknown op {op!r}"
                    )
            except KeyError as missing:
                raise UpdateError(
                    f"program rule {index} ({op}): missing field {missing}"
                ) from None
        return cls(tuple(rules))


class Classification(Enum):
    """Static safety of a program for one schema pair."""

    ALWAYS_SAFE = "always-safe"
    NEVER_SAFE = "never-safe"
    INSTANCE_DEPENDENT = "instance-dependent"


# -- content-word image ------------------------------------------------------


def _image_dfa(
    content: DFA,
    deletes: frozenset[str],
    renames: dict[str, str],
    prefix: Sequence[str],
    suffix: Sequence[str],
) -> DFA:
    """The image of a content language under the program's word
    transform: deleted symbols erased, renamed symbols relabeled, the
    insert prefix/suffix concatenated.  Built as an ε-NFA over the
    post-transform alphabet and determinized by subset construction.
    """
    out_alphabet = {
        renames.get(symbol, symbol)
        for symbol in content.alphabet
        if symbol not in deletes
    }
    out_alphabet.update(prefix)
    out_alphabet.update(suffix)

    # ε-NFA states: prefix chain (0..len) | base DFA states | suffix chain.
    base = len(prefix) + 1 if prefix else 0
    n_base = content.num_states
    epsilon: dict[int, set[int]] = {}
    labelled: dict[int, dict[str, set[int]]] = {}

    def add(source: int, symbol: Optional[str], target: int) -> None:
        if symbol is None:
            epsilon.setdefault(source, set()).add(target)
        else:
            labelled.setdefault(source, {}).setdefault(symbol, set()).add(
                target
            )

    if prefix:
        for position, symbol in enumerate(prefix):
            add(position, symbol, position + 1)
        add(len(prefix), None, base + content.start)
    for state in range(n_base):
        for symbol, target in content.transitions[state].items():
            if symbol in deletes:
                add(base + state, None, base + target)
            else:
                add(base + state, renames.get(symbol, symbol), base + target)
    suffix_base = base + n_base
    finals: set[int] = set()
    if suffix:
        for final in content.finals:
            add(base + final, None, suffix_base)
        for position, symbol in enumerate(suffix):
            add(suffix_base + position, symbol, suffix_base + position + 1)
        finals.add(suffix_base + len(suffix))
    else:
        finals.update(base + final for final in content.finals)

    def closure(states: frozenset[int]) -> frozenset[int]:
        seen = set(states)
        stack = list(states)
        while stack:
            for target in epsilon.get(stack.pop(), ()):
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return frozenset(seen)

    start_state = 0 if prefix else base + content.start
    start = closure(frozenset((start_state,)))
    index: dict[frozenset[int], int] = {start: 0}
    order: list[frozenset[int]] = [start]
    transitions: dict[tuple[int, str], int] = {}
    cursor = 0
    while cursor < len(order):
        current = order[cursor]
        current_id = index[current]
        cursor += 1
        moves: dict[str, set[int]] = {}
        for state in current:
            for symbol, targets in labelled.get(state, {}).items():
                moves.setdefault(symbol, set()).update(targets)
        for symbol, targets in moves.items():
            successor = closure(frozenset(targets))
            if successor not in index:
                index[successor] = len(order)
                order.append(successor)
            transitions[(current_id, symbol)] = index[successor]
    dfa_finals = [
        index[subset]
        for subset in order
        if any(state in finals for state in subset)
    ]
    return DFA.from_partial(
        out_alphabet or {"#none"},
        len(order),
        transitions,
        0,
        dfa_finals,
    ).minimize()


def _insert_affixes(
    program: UpdateProgram, parent_label: str
) -> tuple[list[str], list[str]]:
    """The inserted child labels under ``parent_label``, split into the
    word prefix and suffix the rule order produces (each ``first``
    insert lands in front of the previous one; ``last`` inserts stack at
    the back in order)."""
    prefix: list[str] = []
    suffix: list[str] = []
    for rule in program.inserts_under(parent_label):
        if rule.position == "first":
            prefix.insert(0, rule.label)
        else:
            suffix.append(rule.label)
    return prefix, suffix


# -- classification ----------------------------------------------------------


def classify(pair: SchemaPair, program: UpdateProgram) -> Classification:
    """Statically classify ``program`` for ``pair`` (memoized per pair).

    Sound in both O(1) directions under the revalidation premise (the
    document is valid under the source schema): ``ALWAYS_SAFE`` is
    returned only when every source-valid document transforms to a
    target-valid one, ``NEVER_SAFE`` only when none does.
    """
    cache = getattr(pair, "_program_classes", None)
    if cache is None:
        cache = pair._program_classes = {}
    cached = cache.get(program)
    if cached is None:
        if _always_safe(pair, program):
            cached = Classification.ALWAYS_SAFE
        elif _never_safe(pair, program):
            cached = Classification.NEVER_SAFE
        else:
            cached = Classification.INSTANCE_DEPENDENT
        cache[program] = cached
    return cached


def classify_rule(pair: SchemaPair, rule: Rule) -> Classification:
    """Classify a single rule (a one-rule program)."""
    return classify(pair, UpdateProgram((rule,)))


def _always_safe(pair: SchemaPair, program: UpdateProgram) -> bool:
    source, target = pair.source, pair.target
    if not source.roots:
        return False
    stack: list[tuple[str, str, str]] = []
    for label, source_type in source.roots.items():
        post = program.post_label(label)
        if post is None:
            return False  # some document's root would be deleted
        target_type = target.root_type(post)
        if target_type is None:
            return False
        stack.append((label, source_type, target_type))
    visited: set[tuple[str, str, str]] = set(stack)
    while stack:
        triple = stack.pop()
        label, source_type, target_type = triple
        source_decl = source.types[source_type]
        target_decl = target.types[target_type]
        if is_simple(source_decl):
            # Text is untouched by structural rules; inserting under a
            # text-only element can never stay simple-valid, and a
            # complex target would see the (unchanged) text content.
            if program.inserts_under(label):
                return False
            if not is_simple(target_decl):
                return False
            if not source_decl.is_subsumed_by(target_decl):
                return False
            continue
        if not is_complex(target_decl):
            return False  # transformed element keeps element children
        prefix, suffix = _insert_affixes(program, label)
        image = _image_dfa(
            source.content_dfa(source_type),
            program.deletes,
            program.renames,
            prefix,
            suffix,
        )
        if not image.is_subset_of(target.content_dfa(target_type)):
            return False
        if not _attributes_safe(source_decl, target_decl, source, target):
            return False
        # Surviving children keep their subtrees: recurse per label.
        for child_label in sorted(source.useful_symbols(source_type)):
            post = program.post_label(child_label)
            if post is None:
                continue  # deleted with its subtree — nothing below
            child_source = source_decl.child_types.get(child_label)
            child_target = target_decl.child_types.get(post)
            if child_source is None:
                continue
            if child_target is None:
                return False
            child = (child_label, child_source, child_target)
            if child not in visited:
                visited.add(child)
                stack.append(child)
        # Inserted children are fresh empty elements: they must be
        # valid under their target type as-is.
        for inserted in prefix + suffix:
            inserted_type = target_decl.child_types.get(inserted)
            if inserted_type is None:
                return False
            if not _empty_element_valid(target, inserted_type):
                return False
    return True


def _attributes_safe(
    source_decl: ComplexType,
    target_decl: ComplexType,
    source: Schema,
    target: Schema,
) -> bool:
    """Attributes are untouched by structural rules: every assignment
    the source permits must be permitted by the target."""
    for name, decl in target_decl.attributes.items():
        if decl.required:
            mirror = source_decl.attributes.get(name)
            if mirror is None or not mirror.required:
                return False
    for name, decl in source_decl.attributes.items():
        mirror = target_decl.attributes.get(name)
        if mirror is None:
            return False  # target rejects it as undeclared when present
        source_value = source.types[decl.type_name]
        target_value = target.types[mirror.type_name]
        if not source_value.is_subsumed_by(target_value):
            return False
    return True


def _empty_element_valid(target: Schema, type_name: str) -> bool:
    declaration = target.types[type_name]
    if is_simple(declaration):
        return declaration.validate("")
    assert is_complex(declaration)
    if declaration.required_attributes():
        return False
    return target.content_dfa(type_name).accepts(())


def _never_safe(pair: SchemaPair, program: UpdateProgram) -> bool:
    """Sufficient root-level condition: every permitted source root is
    guaranteed invalid after the transform."""
    source, target = pair.source, pair.target
    if not source.roots:
        return False
    for label, source_type in source.roots.items():
        post = program.post_label(label)
        if post is None:
            continue  # root deleted — guaranteed invalid
        target_type = target.root_type(post)
        if target_type is None:
            continue  # not a permitted target root — guaranteed invalid
        source_decl = source.types[source_type]
        target_decl = target.types[target_type]
        if is_simple(source_decl):
            if program.inserts_under(label):
                continue  # simple-valid text plus a child element
            if is_simple(target_decl):
                if source_decl.is_disjoint_from(target_decl):
                    continue
            return False  # some document might survive
        prefix, suffix = _insert_affixes(program, label)
        image = _image_dfa(
            source.content_dfa(source_type),
            program.deletes,
            program.renames,
            prefix,
            suffix,
        )
        if is_simple(target_decl):
            if not image.accepts(()):
                continue  # always keeps element children — invalid
            return False
        left, right = harmonize(image, target.content_dfa(target_type))
        if left.intersection(right).is_empty():
            continue  # no transformed child word can ever conform
        return False
    return True


# -- instance lowering -------------------------------------------------------


def apply_program(session, program: UpdateProgram) -> int:
    """Lower the parametric program onto one document's update session.

    Matching is by *original* label (see :class:`UpdateProgram`);
    returns the number of instance operations recorded.
    """
    document = session.document
    elements = _preorder(document.root)
    before = session.update_count
    deletes = program.deletes
    if deletes:
        doomed = [e for e in elements if e.label in deletes]
        for element in doomed:
            if not session.is_deleted(element):
                _delete_subtree(session, element)
    renames = program.renames
    if renames:
        for element in elements:
            if session.is_deleted(element):
                continue
            new_label = renames.get(element.label)
            if new_label is not None:
                session.rename(element, new_label)
    for rule in program.rules:
        if not isinstance(rule, InsertRule):
            continue
        for element in elements:
            if session.is_deleted(element):
                continue
            original = session.proj_old(element)
            if original != rule.parent:
                continue
            if rule.position == "first":
                session.insert_first(element, rule.label)
            else:
                session.insert_element(
                    element, len(element.children), rule.label
                )
    return session.update_count - before


def _preorder(root) -> list:
    from repro.xmltree.dom import Element

    found: list = []
    stack = [root]
    while stack:
        node = stack.pop()
        found.append(node)
        stack.extend(
            child
            for child in reversed(node.children)
            if isinstance(child, Element)
        )
    return found


def _delete_subtree(session, element) -> None:
    """Bottom-up deletion (the session only deletes childless nodes)."""
    from repro.xmltree.dom import Element

    for child in list(element.children):
        if session.is_deleted(child):
            continue
        if isinstance(child, Element):
            _delete_subtree(session, child)
        else:
            session.delete(child)
    session.delete(element)


# -- verdicts ----------------------------------------------------------------


def cast_text_with_program(
    pair: SchemaPair,
    program: UpdateProgram,
    text: Optional[str] = None,
    *,
    limits=None,
    require_safe: bool = False,
) -> tuple[ValidationReport, Classification]:
    """The program-aware cast: O(1) verdict when the classification
    allows, the paper's cast-with-modifications walk otherwise.

    ``require_safe=True`` turns a non-always-safe program into
    :class:`UnsafeUpdateProgramError` instead of touching the document —
    the contract callers use to *guarantee* they never pay a traversal.
    ``text`` may be None only for statically decided programs.
    """
    classification = classify(pair, program)
    if classification is Classification.ALWAYS_SAFE:
        return ValidationReport.success(), classification
    if require_safe:
        raise UnsafeUpdateProgramError(
            f"update program is {classification.value} for pair "
            f"{pair.source.name or 'source'!r} -> "
            f"{pair.target.name or 'target'!r}; a statically safe "
            "program was required",
            classification.value,
        )
    if classification is Classification.NEVER_SAFE:
        return (
            ValidationReport.failure(
                "update program can never produce a target-valid document"
            ),
            classification,
        )
    if text is None:
        raise UpdateError(
            "instance-dependent program needs a document to decide"
        )
    from repro.core.castmods import CastWithModificationsValidator
    from repro.core.updates import UpdateSession
    from repro.xmltree.parser import parse

    # One deadline covers the parse, the program replay and the walk.
    limits = resolve_limits(limits)
    deadline = limits.deadline()
    document = parse(text, limits=limits, deadline=deadline,
                     symbols=pair.symbols)
    session = UpdateSession(document)
    apply_program(session, program)
    validator = CastWithModificationsValidator(
        pair, collect_stats=False, limits=remaining_limits(limits, deadline)
    )
    return validator.validate(session), classification
