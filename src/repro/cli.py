"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main entry points so the system can be
driven without writing Python:

* ``validate DOC --xsd SCHEMA | --dtd SCHEMA [--root LABEL]`` —
  plain validation of a document against one schema;
* ``cast DOC... --source A --target B [--stats] [--no-string-cast]`` —
  schema cast validation (documents promised valid under A); each DOC
  may be a directory, validated as a batch (``--jobs N`` parallelizes
  it over a resident worker fleet, shared across all the directories of
  one invocation; ``--recursive`` walks nested corpora);
  ``--checkpoint PATH`` journals completed documents and ``--resume``
  restores them after an interrupt; ``--cache-dir DIR`` loads/saves
  the preprocessed pair artifact; ``--memo``/``--no-memo`` and
  ``--memo-size N`` control the subtree verdict memo (see
  ``docs/PERFORMANCE.md``); ``--profile-parse`` prints a
  parse/skip/validate/total wall-clock phase breakdown (streaming
  modes run the instrumented event pipeline so byte-level skim time
  gets its own line instead of being lumped into parse);
* ``repair DOC --source A --target B [-o OUT]`` — correct the document
  to conform to the target schema and report the edits;
* ``relations --source A --target B`` — print the precomputed
  ``R_sub`` / disjoint relations for a schema pair;
* ``gen-po N [-o OUT]`` — generate an N-item paper purchase order;
* ``serve [--demo | --pair NAME=SRC:TGT ...]`` — run the validation
  HTTP service (``POST /validate``, ``/cast``, ``/cast-with-mods``;
  ``GET /healthz``, ``/readyz``, ``/pairs``) with admission control,
  per-request deadlines, and graceful SIGTERM drain (see
  ``docs/ROBUSTNESS.md``).

Schema arguments ending in ``.dtd`` are parsed as DTDs, anything else
as XSD.  ``validate`` and ``cast`` accept resource-guard knobs —
``--max-depth``, ``--max-bytes``, ``--timeout`` (per-document seconds),
``--retries`` (transient-IO re-attempts) — that override the default
:class:`~repro.guards.Limits` for parsing, validation, and schema
compilation alike.  Exit status: 0 valid/success, 1 invalid, 2 usage,
schema, or resource-limit error.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.core.cast import CastValidator
from repro.core.memo import DEFAULT_MEMO_SIZE
from repro.core.repair import DocumentRepairer
from repro.core.validator import validate_document
from repro.errors import ReproError, error_code
from repro.guards import DEFAULT_LIMITS, Limits, limits_scope
from repro.schema.dtd import parse_dtd
from repro.schema.model import Schema
from repro.schema.registry import SchemaPair
from repro.schema.xsd import parse_xsd_file
from repro.xmltree.parser import parse_file
from repro.xmltree.serializer import write_file


def load_schema(path: str, *, roots: Optional[list[str]] = None) -> Schema:
    """Load a schema file, dispatching on the extension."""
    if path.endswith(".dtd"):
        with open(path, encoding="utf-8") as handle:
            return parse_dtd(handle.read(), roots=roots, name=path)
    return parse_xsd_file(path)


def _print_stats(stats) -> None:
    print(f"  nodes visited:          {stats.nodes_visited}")
    print(f"  subtrees skipped:       {stats.subtrees_skipped}")
    if stats.subtrees_byte_skipped:
        print(f"  byte-skipped subtrees:  {stats.subtrees_byte_skipped}")
        print(f"  bytes skipped:          {stats.bytes_skipped}")
    print(f"  disjoint rejections:    {stats.disjoint_rejections}")
    print(f"  content symbols read:   {stats.content_symbols_scanned}")
    print(f"  early content verdicts: {stats.early_content_decisions}")
    print(f"  simple values checked:  {stats.simple_values_checked}")
    if stats.memo_lookups > 0:
        print(f"  memo hits:              {stats.memo_hits}")
        print(f"  memo misses:            {stats.memo_misses}")
        print(f"  memo evictions:         {stats.memo_evictions}")
        print(f"  memo hit rate:          {stats.memo_hit_rate:.1%}")


def _guard_limits(args: argparse.Namespace) -> tuple[Optional[Limits], str]:
    """Validate every numeric knob and fold the guards into ``Limits``.

    Returns ``(limits, "")`` or ``(None, problem)`` — handlers print the
    problem to stderr and exit 2.  All knobs share one message shape
    (``--flag must be >= N, got V``) and one validation point, so a
    negative ``--retries`` on ``validate`` fails exactly like a
    negative ``--memo-size`` on ``cast``.
    """
    if getattr(args, "jobs", 1) < 1:
        return None, f"--jobs must be >= 1, got {args.jobs}"
    if args.max_depth is not None and args.max_depth < 1:
        return None, f"--max-depth must be >= 1, got {args.max_depth}"
    if args.max_bytes is not None and args.max_bytes < 1:
        return None, f"--max-bytes must be >= 1, got {args.max_bytes}"
    if args.timeout is not None and args.timeout <= 0:
        return None, f"--timeout must be > 0, got {args.timeout:g}"
    if args.retries < 0:
        return None, f"--retries must be >= 0, got {args.retries}"
    if getattr(args, "memo_size", 1) < 1:
        return None, f"--memo-size must be >= 1, got {args.memo_size}"
    chunk_size = getattr(args, "chunk_size", None)
    if chunk_size is not None and chunk_size < 1:
        return None, f"--chunk-size must be >= 1, got {chunk_size}"
    overrides: dict = {}
    if args.max_depth is not None:
        overrides["max_tree_depth"] = args.max_depth
    if args.max_bytes is not None:
        overrides["max_document_bytes"] = args.max_bytes
    if args.timeout is not None:
        overrides["deadline_seconds"] = args.timeout
    return DEFAULT_LIMITS.with_overrides(**overrides), ""


def _parse_with_retries(path: str, limits: Limits, retries: int,
                        symbols=None):
    """``parse_file`` with bounded retry of (possibly transient)
    ``OSError``; other failures propagate on the first attempt.

    Returns the document and the deadline its parse ran under, which
    the validation of the same document must share."""
    deadline = limits.deadline()
    attempt = 0
    while True:
        attempt += 1
        try:
            document = parse_file(path, limits=limits, deadline=deadline,
                                  symbols=symbols)
            return document, deadline
        except OSError:
            if attempt > retries:
                raise


def _print_phase_profile(stats) -> None:
    """The ``--profile-parse`` breakdown: where the wall-clock went.

    The skip line appears only when byte-level skims happened — skim
    time is attributed on its own so skip-heavy runs don't lump it
    into the parse phase.
    """
    parse = stats.parse_seconds
    validate = stats.validate_seconds
    skip = stats.skip_seconds
    total = parse + validate + skip
    print("phase profile:")
    if total > 0:
        print(f"  parse:    {parse:.4f}s ({parse / total:.1%})")
        if skip > 0:
            print(f"  skip:     {skip:.4f}s ({skip / total:.1%})")
        print(f"  validate: {validate:.4f}s ({validate / total:.1%})")
    else:
        print(f"  parse:    {parse:.4f}s")
        print(f"  validate: {validate:.4f}s")
    print(f"  total:    {total:.4f}s")


def cmd_validate(args: argparse.Namespace) -> int:
    limits, problem = _guard_limits(args)
    if limits is None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    with limits_scope(limits):
        schema = load_schema(args.schema, roots=args.root or None)
        if args.streaming:
            from repro.core.streaming import StreamingValidator

            report = StreamingValidator(
                schema, limits=limits
            ).validate_file(args.document)
        else:
            document, deadline = _parse_with_retries(
                args.document, limits, args.retries, symbols=schema.symbols
            )
            report = validate_document(schema, document, limits=limits,
                                       deadline=deadline)
    if report.valid:
        print(f"{args.document}: valid")
        if args.stats:
            _print_stats(report.stats)
        return 0
    print(f"{args.document}: INVALID — {report.reason}")
    return 1


def _load_pair(
    args: argparse.Namespace,
) -> tuple[SchemaPair, Optional[str]]:
    """Build (or fetch from the artifact cache) the schema pair.

    Returns ``(pair, artifact_file)``; the artifact file path (set only
    with ``--cache-dir``) lets the batch driver ship a path instead of
    a pickled pair to spawn-based worker pools.  With ``--chain`` the
    pair is the chain's single composed pair (its ``.chain`` attribute
    keeps the sequential fallback available).
    """
    chain_paths = getattr(args, "chain", None)
    if chain_paths:
        schemas = [load_schema(path) for path in chain_paths]
        cache_dir = getattr(args, "cache_dir", None)
        if cache_dir:
            from repro.schema.artifacts import (
                artifact_path,
                chain_cache_key,
                get_or_build_chain,
            )

            pair, from_cache = get_or_build_chain(schemas, cache_dir)
            origin = "cached artifact" if from_cache else "built and cached"
            print(f"chain: {origin} ({cache_dir})")
            return pair, artifact_path(cache_dir, chain_cache_key(schemas))
        from repro.schema.chain import SchemaChain

        return SchemaChain(schemas).composed_pair(), None
    source = load_schema(args.source)
    target = load_schema(args.target)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        from repro.schema.artifacts import (
            artifact_path,
            get_or_build,
            pair_cache_key,
        )

        pair, from_cache = get_or_build(source, target, cache_dir)
        origin = "cached artifact" if from_cache else "built and cached"
        print(f"pair: {origin} ({cache_dir})")
        return pair, artifact_path(cache_dir, pair_cache_key(source, target))
    return SchemaPair(source, target), None


def cmd_cast(args: argparse.Namespace) -> int:
    import os

    limits, problem = _guard_limits(args)
    if limits is None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.chain:
        if args.source or args.target:
            print(
                "error: --chain replaces --source/--target",
                file=sys.stderr,
            )
            return 2
        if len(args.chain) < 2:
            print(
                "error: --chain needs at least two schema files",
                file=sys.stderr,
            )
            return 2
    elif not (args.source and args.target):
        print(
            "error: cast needs --source and --target (or --chain)",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint PATH",
              file=sys.stderr)
        return 2
    if args.checkpoint and (
        len(args.document) != 1 or not os.path.isdir(args.document[0])
    ):
        print(
            "error: --checkpoint requires a single directory input",
            file=sys.stderr,
        )
        return 2
    memo_size = args.memo_size if args.memo else None
    exit_code = 0
    with limits_scope(limits):
        pair, artifact_file = _load_pair(args)
        fleet = None
        try:
            directories = [
                doc for doc in args.document if os.path.isdir(doc)
            ]
            if args.jobs > 1 and len(directories) > 1:
                # One resident fleet serves every directory of this
                # invocation: the pool and the transported pair are
                # paid for once, not once per directory.
                from repro.core.fleet import FleetConfig, WorkerFleet

                fleet = WorkerFleet(
                    pair,
                    args.jobs,
                    config=FleetConfig(
                        use_string_cast=not args.no_string_cast,
                        collect_stats=args.stats or args.profile_parse,
                        limits=limits,
                        retries=args.retries,
                        memo_size=memo_size,
                        stream_skip=args.stream_skip,
                    ),
                    artifact_path=artifact_file,
                    chunk_size=args.chunk_size,
                )
            for document in args.document:
                if os.path.isdir(document):
                    code = _cast_directory(
                        args, pair, document, limits, memo_size,
                        artifact_file, fleet,
                    )
                else:
                    code = _cast_single(
                        args, pair, document, limits, memo_size
                    )
                exit_code = max(exit_code, code)
        finally:
            if fleet is not None:
                fleet.close()
    return exit_code


def cmd_cast_with_mods(args: argparse.Namespace) -> int:
    import json

    limits, problem = _guard_limits(args)
    if limits is None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from repro.core.updateprog import (
        Classification,
        UpdateProgram,
        cast_text_with_program,
        classify,
    )

    with limits_scope(limits):
        pair, _ = _load_pair(args)
        with open(args.program, encoding="utf-8") as handle:
            program = UpdateProgram.from_wire(json.load(handle))
        classification = classify(pair, program)
        print(
            f"program: {len(program.rules)} rule(s), "
            f"classified {classification.value} for "
            f"{pair.source.name or 'source'} -> "
            f"{pair.target.name or 'target'}"
        )
        if args.classify_only:
            return 0
        if (
            args.document is None
            and classification is Classification.INSTANCE_DEPENDENT
            and not args.require_safe
        ):
            print(
                "error: instance-dependent program needs a document",
                file=sys.stderr,
            )
            return 2
        text = None
        if args.document is not None:
            with open(args.document, encoding="utf-8") as handle:
                text = handle.read()
        report, classification = cast_text_with_program(
            pair,
            program,
            text,
            limits=limits,
            require_safe=args.require_safe,
        )
    subject = args.document or "<static>"
    if report.valid:
        traversal = (
            " (no document traversal)"
            if classification is not Classification.INSTANCE_DEPENDENT
            else ""
        )
        print(f"{subject}: valid{traversal}")
        return 0
    print(f"{subject}: INVALID — {report.reason}")
    return 1


def _cast_directory(
    args: argparse.Namespace,
    pair: SchemaPair,
    document: str,
    limits: Limits,
    memo_size: Optional[int],
    artifact_file: Optional[str],
    fleet,
) -> int:
    from repro.core.batch import validate_directory

    batch = validate_directory(
        pair,
        document,
        recursive=args.recursive,
        jobs=args.jobs,
        use_string_cast=not args.no_string_cast,
        collect_stats=args.stats or args.profile_parse,
        limits=limits,
        retries=args.retries,
        memo_size=memo_size,
        artifact_path=artifact_file,
        stream_skip=args.stream_skip,
        fleet=fleet,
        checkpoint=args.checkpoint,
        resume=args.resume,
        chunk_size=args.chunk_size,
    )
    chain = getattr(pair, "chain", None)
    for result in batch.invalid:
        detail = result.error or result.reason
        if result.error and result.error_code:
            detail = f"{detail} [{result.error_code}]"
        elif chain is not None and not result.error:
            # The batch ran the composed pair; re-derive the reject
            # reason hop-by-hop so it names the first failing schema.
            try:
                with open(result.path, encoding="utf-8") as handle:
                    sequential = chain.sequential_cast_text(
                        handle.read(), limits=limits
                    )
                if not sequential.valid:
                    detail = sequential.reason
            except OSError:
                pass
        print(f"{result.path}: INVALID — {detail}")
    print(
        f"{document}: {batch.valid_count}/{batch.total} valid "
        f"(jobs={args.jobs})"
    )
    if batch.resumed:
        print(
            f"checkpoint: {batch.resumed} of {batch.total} restored from "
            f"{args.checkpoint}, {batch.total - batch.resumed} validated "
            "this run"
        )
    if args.stats and batch.stats is not None:
        _print_stats(batch.stats)
    elif batch.stats is not None and batch.stats.memo_lookups > 0:
        print(
            f"memo: {batch.stats.memo_hits} hits / "
            f"{batch.stats.memo_lookups} lookups "
            f"({batch.stats.memo_hit_rate:.1%} across all workers)"
        )
    if args.profile_parse and batch.stats is not None:
        _print_phase_profile(batch.stats)
    return 0 if batch.all_valid else 1


def _cast_single(
    args: argparse.Namespace,
    pair: SchemaPair,
    document: str,
    limits: Limits,
    memo_size: Optional[int],
) -> int:
    chain = getattr(pair, "chain", None)
    if chain is not None:
        # One fused pass over the composed pair; accepts are
        # authoritative, rejects re-run hop-by-hop so the verdict and
        # message name the first schema in the chain that fails.
        if chain.statically_safe:
            print(
                "chain: statically safe "
                f"({len(chain.schemas) - 1} hops, 0 residual checks) — "
                "source-valid documents need no revalidation"
            )
        with open(document, encoding="utf-8") as handle:
            text = handle.read()
        report = chain.cast_text(
            text, limits=limits, stream_skip=args.stream_skip
        )
        verdict = (
            "valid" if report.valid else f"INVALID — {report.reason}"
        )
        print(f"{document}: {verdict}")
        return 0 if report.valid else 1
    if args.streaming or args.stream_skip:
        # The streaming validator never materializes subtrees, so
        # there is nothing to fingerprint — no memo here.
        from repro.core.streaming import StreamingCastValidator

        validator = StreamingCastValidator(pair, limits=limits)
        with open(document, encoding="utf-8") as handle:
            text = handle.read()
        if args.profile_parse:
            # Phase attribution needs the instrumented event pipeline;
            # the fused loop interleaves parse and validate in one
            # frame and cannot split them.  Verdicts are identical.
            print(
                "note: --profile-parse runs the instrumented event "
                "pipeline (slower than the fused kernel it profiles)",
                file=sys.stderr,
            )
            report = validator.profile_text(
                text, byte_skip=args.stream_skip
            )
        else:
            report = validator.validate_text(
                text, byte_skip=args.stream_skip
            )
    else:
        from repro.core.memo import ValidationMemo

        memo = (
            ValidationMemo(memo_size, limits=limits)
            if memo_size is not None
            else None
        )
        validator = CastValidator(
            pair, use_string_cast=not args.no_string_cast,
            limits=limits, memo=memo,
        )
        parse_start = time.perf_counter()
        tree, deadline = _parse_with_retries(
            document, limits, args.retries, symbols=pair.symbols
        )
        parse_end = time.perf_counter()
        report = validator.validate(tree, deadline=deadline)
        report.stats.parse_seconds += parse_end - parse_start
        report.stats.validate_seconds += (
            time.perf_counter() - parse_end
        )
    verdict = "valid" if report.valid else f"INVALID — {report.reason}"
    print(f"{document}: {verdict}")
    if args.stats:
        _print_stats(report.stats)
    if args.profile_parse:
        _print_phase_profile(report.stats)
    return 0 if report.valid else 1


def cmd_repair(args: argparse.Namespace) -> int:
    source = load_schema(args.source)
    target = load_schema(args.target)
    pair = SchemaPair(source, target)
    repairer = DocumentRepairer(pair, trust_source=not args.untrusted)
    document = parse_file(args.document)
    result = repairer.repair(document)
    if not result.changed:
        print(f"{args.document}: already valid, no repairs needed")
    else:
        print(f"{args.document}: {result.edit_count} repairs")
        for action in result.actions:
            print(f"  {action}")
    if args.output:
        size = write_file(result.document, args.output)
        print(f"wrote {args.output} ({size} bytes)")
    return 0


def cmd_relations(args: argparse.Namespace) -> int:
    pair, _ = _load_pair(args)
    source, target = pair.source, pair.target
    print(f"R_sub ({len(pair.r_sub)} pairs — skip these subtrees):")
    for tau, tau_p in sorted(pair.r_sub):
        print(f"  {tau} <= {tau_p}")
    disjoint = sorted(
        (tau, tau_p)
        for tau in source.types
        for tau_p in target.types
        if pair.is_disjoint(tau, tau_p)
    )
    print(f"R_dis ({len(disjoint)} pairs — fail immediately):")
    for tau, tau_p in disjoint:
        print(f"  {tau} (+) {tau_p}")
    return 0


def _parse_pair_flags(args: argparse.Namespace):
    """``--pair NAME=SRC:TGT`` / ``--chain NAME=S1:S2:...`` /
    ``--pair-timeout NAME=SECONDS`` → spec list; raises ``ValueError``
    with a usage message."""
    from repro.guards import Limits
    from repro.service.registry import ChainSpec, PairSpec

    timeouts: dict[str, float] = {}
    for flag in args.pair_timeout or []:
        name, _, value = flag.partition("=")
        if not name or not value:
            raise ValueError(
                f"--pair-timeout wants NAME=SECONDS, got {flag!r}"
            )
        try:
            seconds = float(value)
        except ValueError:
            raise ValueError(
                f"--pair-timeout {name}: unparseable seconds {value!r}"
            ) from None
        if seconds <= 0:
            raise ValueError(
                f"--pair-timeout {name}: seconds must be > 0, got {seconds:g}"
            )
        timeouts[name] = seconds

    def limits_for(name: str):
        if name in timeouts:
            return DEFAULT_LIMITS.with_overrides(
                deadline_seconds=timeouts.pop(name)
            )
        return None

    specs = []
    if args.demo:
        from repro.service.registry import demo_specs

        for spec in demo_specs():
            specs.append(
                PairSpec(spec.name, spec.source, spec.target,
                         limits=limits_for(spec.name))
            )
    for flag in args.pair or []:
        name, _, paths = flag.partition("=")
        source, _, target = paths.partition(":")
        if not name or not source or not target:
            raise ValueError(
                f"--pair wants NAME=SOURCE:TARGET, got {flag!r}"
            )
        specs.append(
            PairSpec(name, source, target, limits=limits_for(name))
        )
    if getattr(args, "demo_chain", False):
        from repro.service.registry import demo_chain_spec

        demo_chain = demo_chain_spec()
        specs.append(
            ChainSpec(
                demo_chain.name,
                demo_chain.schemas,
                limits=limits_for(demo_chain.name),
            )
        )
    for flag in getattr(args, "chain", None) or []:
        name, _, paths = flag.partition("=")
        schemas = tuple(p for p in paths.split(":") if p)
        if not name or len(schemas) < 2:
            raise ValueError(
                f"--chain wants NAME=S1:S2[:...], got {flag!r}"
            )
        specs.append(
            ChainSpec(name, schemas, limits=limits_for(name))
        )
    if timeouts:
        raise ValueError(
            "--pair-timeout names unregistered pairs: "
            + ", ".join(sorted(timeouts))
        )
    if not specs:
        raise ValueError(
            "serve needs --demo, --demo-chain, and/or at least one "
            "--pair/--chain"
        )
    return specs


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.registry import ServiceRegistry
    from repro.service.server import ServiceConfig, ValidationService

    try:
        specs = _parse_pair_flags(args)
        if args.processes < 1:
            raise ValueError(
                f"--processes must be >= 1, got {args.processes}"
            )
        if args.fleet_workers == 0 and (
            args.max_requests_per_worker is not None
            or args.max_worker_rss_mb is not None
        ):
            raise ValueError(
                "--max-requests-per-worker/--max-worker-rss-mb "
                "recycle fleet workers; set --fleet-workers >= 1"
            )
        config = ServiceConfig(
            max_concurrent=args.max_concurrent,
            max_queue=args.queue_depth,
            queue_timeout=args.queue_timeout,
            request_timeout=args.request_timeout,
            rate=args.rate,
            burst=args.burst,
            drain_grace=args.drain_grace,
            max_body_bytes=args.max_bytes,
            log_requests=args.log_requests,
            keep_alive=not args.no_keep_alive,
            max_requests_per_connection=args.max_requests_per_connection,
            fleet_workers=args.fleet_workers,
            max_requests_per_worker=args.max_requests_per_worker,
            max_worker_rss_mb=args.max_worker_rss_mb,
            admin=not args.no_admin,
            reload_journal=args.reload_journal,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.processes > 1:
        from repro.service.prefork import PreforkServer

        prefork = PreforkServer(
            specs,
            config,
            processes=args.processes,
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
        )
        try:
            host, port = prefork.start()
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        prefork.install_signal_handlers()
        # Parsed by the CI smoke and the bench harness — keep the shape.
        print(f"listening on http://{host}:{port}", flush=True)
        print(
            f"ready: {len(specs)} pairs warmed in "
            f"{prefork.warm_seconds:.3f}s "
            f"across {args.processes} processes",
            flush=True,
        )
        return prefork.run_forever()

    registry = ServiceRegistry(
        specs,
        cache_dir=args.cache_dir,
        default_limits=DEFAULT_LIMITS,
    )
    service = ValidationService(registry, config)
    service.install_signal_handlers()
    host, port = service.start(args.host, args.port)
    # Parsed by the CI smoke and the bench harness — keep the shape.
    print(f"listening on http://{host}:{port}", flush=True)
    if not service.wait_ready(timeout=args.warm_timeout):
        detail = service.warm_error or "warm-up timed out"
        print(f"error: service failed to warm: {detail}", file=sys.stderr)
        service.close()
        return 2
    print(
        f"ready: {len(registry)} pairs warmed in "
        f"{registry.warm_seconds:.3f}s",
        flush=True,
    )
    return service.run_forever()


def cmd_gen_po(args: argparse.Namespace) -> int:
    from repro.workloads.purchase_orders import make_purchase_order

    document = make_purchase_order(args.items)
    if args.output:
        size = write_file(document, args.output)
        print(f"wrote {args.output} ({size} bytes, {args.items} items)")
    else:
        from repro.xmltree.serializer import serialize

        sys.stdout.write(serialize(document, indent="  "))
    return 0


def _add_guard_options(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="maximum element nesting depth (default: "
        f"{DEFAULT_LIMITS.max_tree_depth})",
    )
    command.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="maximum document size in bytes (default: "
        f"{DEFAULT_LIMITS.max_document_bytes})",
    )
    command.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-document wall-clock deadline in seconds "
        "(default: none)",
    )
    command.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts for documents failing with an IO error",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Schema cast validation of XML (EDBT 2004 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="validate a document against one schema"
    )
    validate.add_argument("document")
    validate.add_argument("--schema", required=True,
                          help=".xsd or .dtd file")
    validate.add_argument("--root", action="append",
                          help="permitted root label (DTD; repeatable)")
    validate.add_argument("--stats", action="store_true")
    validate.add_argument(
        "--streaming",
        action="store_true",
        help="validate during parsing with O(depth) memory",
    )
    _add_guard_options(validate)
    validate.set_defaults(handler=cmd_validate)

    cast = commands.add_parser(
        "cast",
        help="revalidate a source-valid document against a target schema",
    )
    cast.add_argument(
        "document",
        nargs="+",
        help="document files and/or directories; directories run in "
        "batch mode and share one worker fleet",
    )
    cast.add_argument("--source", help="source schema (with --target)")
    cast.add_argument("--target", help="target schema (with --source)")
    cast.add_argument(
        "--chain",
        nargs="+",
        metavar="SCHEMA",
        help="evolution chain S1 S2 ... Sn (two or more schema files): "
        "compose every hop into one pair and cast S1-valid documents "
        "against Sn in a single fused pass (replaces --source/--target)",
    )
    cast.add_argument("--stats", action="store_true")
    cast.add_argument(
        "--recursive",
        action="store_true",
        help="descend into subdirectories when a directory is given",
    )
    cast.add_argument(
        "--stream-skip",
        action="store_true",
        help="DOM-free cast with byte-level skipping: subsumed "
        "subtrees are never tokenized (implies streaming; for a "
        "directory, every batch worker uses this mode)",
    )
    cast.add_argument(
        "--streaming",
        action="store_true",
        help="cast during parsing with O(depth) memory",
    )
    cast.add_argument(
        "--profile-parse",
        action="store_true",
        help="print a parse/skip/validate/total wall-clock phase "
        "breakdown (streaming modes use the instrumented event "
        "pipeline: identical verdicts, slower than the fused kernel)",
    )
    cast.add_argument(
        "--no-string-cast",
        action="store_true",
        help="check content models with a plain target scan "
        "(the paper's modified-Xerces configuration)",
    )
    cast.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for directory (batch) mode",
    )
    cast.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="documents per work-stealing chunk (default: sized from "
        "the batch and worker count)",
    )
    cast.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="journal completed verdicts to PATH (single directory "
        "input only); combine with --resume to continue an "
        "interrupted run",
    )
    cast.add_argument(
        "--resume",
        action="store_true",
        help="restore verdicts from the --checkpoint journal and "
        "validate only documents not yet recorded (or changed since)",
    )
    cast.add_argument(
        "--cache-dir",
        help="directory for persisted schema-pair artifacts",
    )
    cast.add_argument(
        "--memo",
        dest="memo",
        action="store_true",
        default=True,
        help="memoize subtree verdicts by structural hash (default on)",
    )
    cast.add_argument(
        "--no-memo",
        dest="memo",
        action="store_false",
        help="disable the subtree verdict memo",
    )
    cast.add_argument(
        "--memo-size",
        type=int,
        default=DEFAULT_MEMO_SIZE,
        help="verdict memo capacity in entries (default: "
        f"{DEFAULT_MEMO_SIZE})",
    )
    _add_guard_options(cast)
    cast.set_defaults(handler=cmd_cast)

    castmods = commands.add_parser(
        "cast-with-mods",
        help="cast a document after applying a parametric update program",
    )
    castmods.add_argument(
        "document",
        nargs="?",
        help="document file; optional when the program classifies "
        "always-safe or never-safe (the verdict is static)",
    )
    castmods.add_argument("--source", required=True)
    castmods.add_argument("--target", required=True)
    castmods.add_argument(
        "--program",
        required=True,
        metavar="RULES.json",
        help="JSON file holding the rule list, e.g. "
        '[{"op": "delete", "label": "shipDate"}, '
        '{"op": "rename", "from": "comment", "to": "note"}, '
        '{"op": "insert", "label": "tag", "parent": "item", '
        '"position": "last"}]',
    )
    castmods.add_argument(
        "--require-safe",
        action="store_true",
        help="error out (exit 2) unless the program is statically "
        "always-safe for this pair — guarantees a zero-traversal cast",
    )
    castmods.add_argument(
        "--classify-only",
        action="store_true",
        help="print the static classification and exit without "
        "touching any document",
    )
    castmods.add_argument(
        "--cache-dir",
        help="directory for persisted schema-pair artifacts",
    )
    _add_guard_options(castmods)
    castmods.set_defaults(handler=cmd_cast_with_mods)

    repair = commands.add_parser(
        "repair", help="correct a document to conform to the target schema"
    )
    repair.add_argument("document")
    repair.add_argument("--source", required=True)
    repair.add_argument("--target", required=True)
    repair.add_argument("-o", "--output", help="write the repaired document")
    repair.add_argument(
        "--untrusted",
        action="store_true",
        help="do not assume the document is valid under the source schema",
    )
    repair.set_defaults(handler=cmd_repair)

    relations = commands.add_parser(
        "relations", help="print R_sub and R_dis for a schema pair"
    )
    relations.add_argument("--source", required=True)
    relations.add_argument("--target", required=True)
    relations.add_argument(
        "--cache-dir",
        help="directory for persisted schema-pair artifacts",
    )
    relations.set_defaults(handler=cmd_relations)

    gen = commands.add_parser(
        "gen-po", help="generate a paper-style purchase order document"
    )
    gen.add_argument("items", type=int)
    gen.add_argument("-o", "--output")
    gen.set_defaults(handler=cmd_gen_po)

    serve = commands.add_parser(
        "serve", help="run the validation HTTP service"
    )
    serve.add_argument(
        "--demo",
        action="store_true",
        help="register the paper's two purchase-order pairs",
    )
    serve.add_argument(
        "--pair",
        action="append",
        metavar="NAME=SOURCE:TARGET",
        help="register a schema pair from files (repeatable)",
    )
    serve.add_argument(
        "--chain",
        action="append",
        metavar="NAME=S1:S2:...",
        help="register an evolution chain of schema files as one "
        "composed pair answering POST /cast-chain (repeatable)",
    )
    serve.add_argument(
        "--demo-chain",
        action="store_true",
        help="register a three-hop purchase-order drift chain "
        "as 'po-chain'",
    )
    serve.add_argument(
        "--pair-timeout",
        action="append",
        metavar="NAME=SECONDS",
        help="per-pair request deadline override (repeatable)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8760,
        help="listen port (0 picks an ephemeral port, printed at boot)",
    )
    serve.add_argument(
        "--cache-dir",
        help="directory for persisted schema-pair artifacts "
        "(warm-up loads from here when possible)",
    )
    serve.add_argument(
        "--max-concurrent",
        type=int,
        default=8,
        help="requests validating concurrently",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="requests allowed to wait for a slot before shedding",
    )
    serve.add_argument(
        "--queue-timeout",
        type=float,
        default=1.0,
        help="longest a queued request waits before it is shed (seconds)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-request wall-clock budget from admission to response",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="per-client requests/second (default: no rate limit)",
    )
    serve.add_argument(
        "--burst",
        type=int,
        default=10,
        help="per-client burst allowance when --rate is set",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        help="seconds in-flight requests get to finish after SIGTERM",
    )
    serve.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="request-body byte bound, rejected from Content-Length "
        "before any read (default: the document byte limit)",
    )
    serve.add_argument(
        "--warm-timeout",
        type=float,
        default=120.0,
        help="seconds to wait for schema warm-up before giving up",
    )
    serve.add_argument(
        "--log-requests",
        action="store_true",
        help="log one line per request to stderr",
    )
    serve.add_argument(
        "--processes",
        type=int,
        default=1,
        help="pre-forked acceptor processes sharing the port via "
        "SO_REUSEPORT (each with its own admission slots)",
    )
    serve.add_argument(
        "--fleet-workers",
        type=int,
        default=0,
        help="resident validation worker processes per acceptor "
        "(0: validate inline in handler threads)",
    )
    serve.add_argument(
        "--no-keep-alive",
        action="store_true",
        help="close every connection after one response",
    )
    serve.add_argument(
        "--max-requests-per-connection",
        type=int,
        default=100,
        help="responses served on one kept-alive connection before "
        "it is closed",
    )
    serve.add_argument(
        "--max-requests-per-worker",
        type=int,
        default=None,
        help="recycle a fleet worker after this many requests "
        "(needs --fleet-workers)",
    )
    serve.add_argument(
        "--max-worker-rss-mb",
        type=float,
        default=None,
        help="recycle a fleet worker once its RSS exceeds this "
        "(needs --fleet-workers)",
    )
    serve.add_argument(
        "--no-admin",
        action="store_true",
        help="disable the /admin/pairs hot register/retire endpoints",
    )
    serve.add_argument(
        "--reload-journal",
        default=None,
        help="shared JSON-lines journal propagating hot pair "
        "register/retire across processes (multi-process serve "
        "creates one automatically)",
    )
    serve.set_defaults(handler=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as error:
        # Same diagnostic vocabulary as the HTTP service: the human
        # message plus the stable machine code in brackets.
        print(f"error: {error} [{error_code(error)}]", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
