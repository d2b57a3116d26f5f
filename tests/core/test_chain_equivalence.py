"""Randomized equivalence fuzzer for composed evolution-chain casts.

The composed chain cast (:meth:`SchemaChain.cast_text` — one fused
pass over the joined pair, sequential fallback on reject) is a pure
performance move: on every document it must produce the same verdict,
the same failure reason, and the same Dewey error position as casting
hop by hop through the n−1 individual pairs.  This fuzzer draws
randomized drift histories from :mod:`repro.workloads.evolution`
(tighten/loosen/rename per hop), generates premise-valid documents —
conforming ones and ones built to trip each specific hop — and asserts
exact report identity.  It additionally checks the soundness half the
fallback relies on: a raw composed-pass accept always implies a
sequential accept.
"""

from __future__ import annotations

import random

from repro.schema.chain import SchemaChain
from repro.workloads.evolution import (
    DRIFT_KINDS,
    conforming_document,
    drift_chain,
    violating_document,
)


def assert_chain_equivalent(chain, text):
    fused = chain.cast_text(text)
    sequential = chain.sequential_cast_text(text)
    assert (fused.valid, fused.reason, fused.path) == (
        sequential.valid,
        sequential.reason,
        sequential.path,
    ), (
        f"chain diverged from the per-hop pipeline on {chain!r}\n"
        f"  fused:      {(fused.valid, fused.reason, fused.path)}\n"
        f"  sequential: "
        f"{(sequential.valid, sequential.reason, sequential.path)}\n"
        f"  doc: {text[:200]!r}"
    )
    if not chain.statically_safe:
        composed = chain.cast_composed_text(text)
        assert not composed.valid or sequential.valid, (
            "raw composed pass accepted a document a hop rejects"
        )


def chain_corpus(schemas, kinds):
    """Documents valid under revision 0: one conforming everywhere,
    one built to trip each hop's specific change."""
    texts = [conforming_document(schemas, item_count=4)]
    for hop in range(len(kinds)):
        texts.append(violating_document(schemas, kinds, hop,
                                        item_count=4))
    return texts


def test_fuzz_random_drift_histories():
    rng = random.Random(0xC4A1)
    for _ in range(8):
        hops = rng.randint(2, 4)
        kinds = [rng.choice(DRIFT_KINDS) for _ in range(hops)]
        schemas, kinds = drift_chain(hops, kinds)
        chain = SchemaChain(schemas)
        for text in chain_corpus(schemas, kinds):
            assert_chain_equivalent(chain, text)


def test_monotone_tighten_chain():
    schemas, kinds = drift_chain(3)
    chain = SchemaChain(schemas)
    for text in chain_corpus(schemas, kinds):
        assert_chain_equivalent(chain, text)


def test_mixed_chain_with_product_target():
    # rename → tighten leaves two incomparable residual checks, so the
    # composed pair runs against a product schema.
    schemas, kinds = drift_chain(3, ["rename", "tighten", "rename"])
    chain = SchemaChain(schemas)
    assert len(chain.analysis()["checked"]) > 1
    for text in chain_corpus(schemas, kinds):
        assert_chain_equivalent(chain, text)


def test_skip_modes_agree():
    schemas, kinds = drift_chain(3, ["tighten", "rename", "tighten"])
    chain = SchemaChain(schemas)
    for text in chain_corpus(schemas, kinds):
        drained = chain.cast_text(text)
        trusted = chain.cast_text(text, trusted=True)
        assert (drained.valid, drained.reason, drained.path) == (
            trusted.valid,
            trusted.reason,
            trusted.path,
        )
