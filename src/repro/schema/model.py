"""Abstract XML Schema — the paper's 4-tuple ``(Σ, T, ρ, R)`` (Section 3).

* ``Σ`` — element labels (derived from content models and root map);
* ``T`` — type names, each declared as a :class:`SimpleType` (from
  :mod:`repro.schema.simple`) or a :class:`ComplexType`;
* ``ρ`` — the declarations themselves: a complex type pairs a content
  regular expression ``regexp_τ`` with a label→type assignment
  ``types_τ`` whose domain is exactly the labels used in the expression;
* ``R`` — the partial map from permitted root labels to their types.

:class:`Schema` owns a cache of compiled content-model DFAs, the
per-type "useful symbol" analysis the subsumption fixpoint consumes, and
the plain-validation kernel tables built from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from repro.automata.compiled import CompiledDFA, SymbolTable
from repro.automata.dfa import DFA
from repro.errors import SchemaError
from repro.remodel.ast import Regex
from repro.remodel.glushkov import compile_dfa
from repro.remodel.parser import parse_content_model
from repro.schema.simple import SimpleType


@dataclass(frozen=True)
class AttributeDecl:
    """An attribute declared on a complex type.

    ``type_name`` references a simple type in the owning schema; the
    attribute-validation extension (outside the paper's structural
    model) enforces presence of required attributes, absence of
    undeclared ones, and value conformance.
    """

    name: str
    type_name: str
    required: bool = False

    def __repr__(self) -> str:
        flag = "required" if self.required else "optional"
        return f"AttributeDecl({self.name!r}: {self.type_name}, {flag})"


@dataclass(frozen=True)
class ComplexType:
    """A complex type declaration ``τ : (regexp_τ, types_τ)``.

    ``child_types`` maps each label in ``regexp_τ``'s symbol set to the
    *name* of the type assigned to children with that label — the
    paper's ``types_τ`` function, by name so declarations can be
    mutually recursive.  ``attributes`` is the attribute-validation
    extension; it defaults to empty (the paper's model).
    """

    name: str
    content: Regex
    child_types: Mapping[str, str] = field(default_factory=dict)
    attributes: Mapping[str, AttributeDecl] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "child_types", dict(self.child_types))
        object.__setattr__(self, "attributes", dict(self.attributes))
        used = self.content.symbols()
        declared = set(self.child_types)
        if used != declared:
            missing = used - declared
            extra = declared - used
            raise SchemaError(
                f"complex type {self.name!r}: child-type map must cover "
                f"exactly the content-model labels "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )
        for attr_name, declaration in self.attributes.items():
            if attr_name != declaration.name:
                raise SchemaError(
                    f"complex type {self.name!r}: attribute map key "
                    f"{attr_name!r} does not match declaration "
                    f"{declaration.name!r}"
                )

    def required_attributes(self) -> frozenset[str]:
        return frozenset(
            name for name, decl in self.attributes.items() if decl.required
        )

    def __repr__(self) -> str:
        return f"ComplexType({self.name!r}, {self.content.to_source()})"


TypeDef = Union[SimpleType, ComplexType]


def is_simple(declaration: TypeDef) -> bool:
    return isinstance(declaration, SimpleType)


def is_complex(declaration: TypeDef) -> bool:
    return isinstance(declaration, ComplexType)


class Schema:
    """An abstract XML Schema.

    Args:
        types: declarations ``ρ``, keyed by type name.  SimpleType
            declarations may be registered under a schema-local name
            that differs from the SimpleType's own ``name``.
        roots: the partial function ``R``: root label → type name.
        name: optional display name for diagnostics.
    """

    def __init__(
        self,
        types: Mapping[str, TypeDef],
        roots: Mapping[str, str],
        *,
        name: str = "",
        identity: Optional[Mapping[str, list]] = None,
    ):
        self.name = name
        self.types: dict[str, TypeDef] = dict(types)
        self.roots: dict[str, str] = dict(roots)
        #: Identity constraints (key/unique/keyref) grouped by the
        #: declaring element label — checked by
        #: :func:`repro.schema.identity.check_identity`, outside the
        #: structural model (the paper's future-work extension).
        self.identity: dict[str, list] = {
            label: list(declared)
            for label, declared in (identity or {}).items()
        }
        self._dfas: dict[str, DFA] = {}
        self._compiled: dict[str, CompiledDFA] = {}
        self._useful: dict[str, frozenset[str]] = {}
        self._reachable: Optional[frozenset[str]] = None
        self._kernel = None
        self._check_references()
        #: Σ — every label mentioned in a content model or the root map.
        self.alphabet: frozenset[str] = self._compute_alphabet()
        #: Σ interned to dense ids (sorted, so ids are deterministic and
        #: compiled artifacts hash/pickle reproducibly).
        self.symbols: SymbolTable = SymbolTable(sorted(self.alphabet))

    def _check_references(self) -> None:
        for type_name, declaration in self.types.items():
            if isinstance(declaration, ComplexType):
                for label, child_type in declaration.child_types.items():
                    if child_type not in self.types:
                        raise SchemaError(
                            f"type {type_name!r} assigns unknown type "
                            f"{child_type!r} to label {label!r}"
                        )
                for attr in declaration.attributes.values():
                    attr_type = self.types.get(attr.type_name)
                    if attr_type is None:
                        raise SchemaError(
                            f"type {type_name!r}: attribute {attr.name!r} "
                            f"references unknown type {attr.type_name!r}"
                        )
                    if not isinstance(attr_type, SimpleType):
                        raise SchemaError(
                            f"type {type_name!r}: attribute {attr.name!r} "
                            "must have a simple type"
                        )
        for label, type_name in self.roots.items():
            if type_name not in self.types:
                raise SchemaError(
                    f"root label {label!r} references unknown type "
                    f"{type_name!r}"
                )

    def _compute_alphabet(self) -> frozenset[str]:
        labels: set[str] = set(self.roots)
        for declaration in self.types.values():
            if isinstance(declaration, ComplexType):
                labels |= declaration.content.symbols()
        return frozenset(labels)

    # -- lookups ------------------------------------------------------------

    def type(self, name: str) -> TypeDef:
        try:
            return self.types[name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no type {name!r}"
            ) from None

    def root_type(self, label: str) -> Optional[str]:
        """``R(label)`` — the type name for a root label, or None."""
        return self.roots.get(label)

    def child_type(self, type_name: str, label: str) -> Optional[str]:
        """``types_τ(label)`` — None when undefined."""
        declaration = self.type(type_name)
        if isinstance(declaration, ComplexType):
            return declaration.child_types.get(label)
        return None

    def type_names(self) -> list[str]:
        return list(self.types)

    # -- compiled artifacts ---------------------------------------------------

    def content_dfa(self, type_name: str) -> DFA:
        """The content model of a complex type as a complete, minimized
        DFA over the schema alphabet (cached)."""
        if type_name not in self._dfas:
            declaration = self.type(type_name)
            if not isinstance(declaration, ComplexType):
                raise SchemaError(
                    f"type {type_name!r} is simple; it has no content DFA"
                )
            self._dfas[type_name] = compile_dfa(
                declaration.content, self.alphabet
            )
        return self._dfas[type_name]

    def compiled_content_dfa(self, type_name: str) -> CompiledDFA:
        """The content DFA of a complex type compiled to dense rows over
        this schema's :class:`SymbolTable` (cached).

        Content DFAs are complete over the schema alphabet, so the
        compiled rows contain no ``-1`` entries; runtime loops may index
        unconditionally once the label is interned.
        """
        if type_name not in self._compiled:
            self._compiled[type_name] = CompiledDFA.from_dfa(
                self.content_dfa(type_name), self.symbols
            )
        return self._compiled[type_name]

    def kernel(self):
        """The plain-validation
        :class:`~repro.schema.pairkernel.PairKernel` of this schema
        (built on first use, then cached): the fused cast's tables with
        no source side, every record ``K_PLAIN`` or ``K_SIMPLE`` over
        :attr:`symbols` and :meth:`compiled_content_dfa`.
        :func:`repro.core.validator.validate_text` runs it through
        :func:`repro.core.castkernel.run`, and the tree walk behind
        :func:`repro.core.validator.validate_document` reads the same
        records."""
        if self._kernel is None:
            from repro.schema.pairkernel import PairKernel

            self._kernel = PairKernel(schema=self)
        return self._kernel

    def reachable_types(self) -> frozenset[str]:
        """Type names reachable from the root map through child-type
        assignments (cached).

        Every type a validator can assign to a node lies in this set:
        type assignment starts at ``R`` and descends only through
        ``types_τ``.  Declarations outside it are dead weight — nothing
        needs their automata.
        """
        if self._reachable is None:
            seen: set[str] = set(self.roots.values())
            stack = list(seen)
            while stack:
                declaration = self.types[stack.pop()]
                if isinstance(declaration, ComplexType):
                    for child in declaration.child_types.values():
                        if child not in seen:
                            seen.add(child)
                            stack.append(child)
            self._reachable = frozenset(seen)
        return self._reachable

    def useful_symbols(self, type_name: str) -> frozenset[str]:
        """Labels that occur in at least one word of ``L(regexp_τ)`` —
        the semantic domain for the child-type condition of the
        subsumption fixpoint (cached).

        A symbol is useful iff some transition on it goes from a
        reachable state to a co-reachable state of the content DFA.
        """
        if type_name not in self._useful:
            dfa = self.content_dfa(type_name)
            reachable = dfa.reachable_states()
            coreachable = dfa.coreachable_states()
            useful: set[str] = set()
            declaration = self.type(type_name)
            assert isinstance(declaration, ComplexType)
            candidates = declaration.content.symbols()
            for state in reachable:
                for symbol in candidates - useful:
                    if dfa.transitions[state][symbol] in coreachable:
                        useful.add(symbol)
            self._useful[type_name] = frozenset(useful)
        return self._useful[type_name]

    def __repr__(self) -> str:
        label = self.name or "anonymous"
        return (
            f"Schema({label!r}, {len(self.types)} types, "
            f"{len(self.roots)} roots)"
        )


def complex_type(
    name: str,
    content: Union[str, Regex],
    child_types: Mapping[str, str],
    attributes: Optional[Mapping[str, AttributeDecl]] = None,
) -> ComplexType:
    """Declare a complex type; ``content`` may be DTD-syntax source."""
    expression = (
        parse_content_model(content) if isinstance(content, str) else content
    )
    return ComplexType(name, expression, child_types, attributes or {})


def attribute(name: str, type_name: str, *, required: bool = False) -> AttributeDecl:
    """Declare an attribute for use in :func:`complex_type`."""
    return AttributeDecl(name, type_name, required)


def schema(
    types: Mapping[str, TypeDef],
    roots: Mapping[str, str],
    *,
    name: str = "",
) -> Schema:
    """Convenience constructor mirroring :class:`Schema`."""
    return Schema(types, roots, name=name)
