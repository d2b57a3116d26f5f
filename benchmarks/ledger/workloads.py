"""The ledger's workloads: their inputs, the untraced end-to-end
measurement, and the traced run that breaks the time down by layer.

Each workload stands for one kind of traffic:

* ``skim-heavy`` and ``skip-free`` — documents in memory cast with
  ``cast_text``; the first pair lets the byte skim cover almost every
  byte, the second lets it cover none;
* ``edit-revalidate`` — documents parsed once, then edited through
  ``UpdateSession`` and revalidated with
  ``CastWithModificationsValidator`` after every transaction;
* ``serve-mix`` — HTTP requests to a live ``python -m repro serve``.

The traced run measures every layer on the workload's own inputs, so
each workload reports the same per-layer metrics.  Its spans are
recorded here, around calls into the program's public functions.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from typing import Optional

import corpus as C
import loadgen
from quantiles import percentile
from spans import Recorder, overhead_frac, span_cost_ns

from repro import (
    CastValidator,
    CastWithModificationsValidator,
    SchemaPair,
    UpdateSession,
    parse,
    parse_xsd,
)
from repro.core.batch import validate_batch
from repro.core.cast import cast_text
from repro.core.fleet import FleetConfig, WorkerFleet
from repro.core.memo import DEFAULT_MEMO_SIZE, ValidationMemo
from repro.core.validator import validate_document
from repro.errors import ReproError
from repro.schema.chain import SchemaChain
from repro.service.registry import ChainSpec, PairSpec, ServiceRegistry
from repro.service.work import perform_request
from repro.xmltree.lexer import iter_tokens

MB = 1e6
#: Open-loop rates of the service ladder; the first is the latency step.
LADDER = (25, 50, 100, 200, 400)
#: Latency limit of a ladder step, and the backlog allowance past its end.
STEP_LIMIT_S = 0.25
BOOT_TIMEOUT_S = 60.0
#: Fresh-interpreter set-ups behind one ``setup_s`` value.
SETUP_SAMPLES = 7
#: Complete schema set-ups per round of the traced schema probe.
SCHEMA_SETUPS = 5


# -- correctness bookkeeping -----------------------------------------------


class Tally:
    """Operations attempted, operations failed, and wrong answers."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def check(self, what: str, valid: bool, path: str,
              want_valid: bool, want_path: Optional[str]) -> None:
        self.attempted += 1
        if valid != want_valid or (
            not valid and want_path is not None and path != want_path
        ):
            self.wrong.append(
                f"{what}: got {valid}/{path!r}, want {want_valid}/{want_path!r}"
            )

    def fail(self, what: str, error: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong.append(f"{what}: {error}")

    def check_payload(self, what: str, status: int, body: bytes,
                      request: C.Request) -> None:
        if status != 200:
            self.fail(what, f"HTTP {status}: {body[:200]!r}")
            return
        payload = json.loads(body)
        diagnostics = payload.get("diagnostics") or [{}]
        self.check(what, payload["valid"], diagnostics[0].get("path", ""),
                   request.valid, request.path)

    @property
    def correct(self) -> bool:
        return not self.wrong


@dataclass
class Outcome:
    """What one run measured: metric name → (value, samples), plus the
    named extras printed for people but not gated."""

    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    extras: dict[str, tuple[float, str, int]] = field(default_factory=dict)


# -- the program's schemas ---------------------------------------------------------


def schema(spec: C.SchemaSpec):
    return parse_xsd(C.po_xsd(spec))


def build_pair(key: str) -> SchemaPair:
    """Parse, preprocess and warm one named pair."""
    source, target = C.PAIRS[key]
    pair = SchemaPair(schema(source), schema(target))
    pair.warm()
    pair.kernel()
    return pair


def setup_seconds(key: str) -> float:
    """One set-up, timed from after imports: ``parse_xsd`` ×2,
    ``SchemaPair``, ``warm()`` and ``kernel()``."""
    texts = [C.po_xsd(spec) for spec in C.PAIRS[key]]
    start = time.perf_counter()
    pair = SchemaPair(parse_xsd(texts[0]), parse_xsd(texts[1]))
    pair.warm()
    pair.kernel()
    return time.perf_counter() - start


def fresh_setup(ctx: "Context", key: str) -> tuple[float, int]:
    """``setup_s``: the median of :data:`SETUP_SAMPLES` set-ups of pair
    ``key``, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        result = subprocess.run(
            [sys.executable, ctx.run_py, "--setup-probe", key],
            env=ctx.env, capture_output=True, text=True, timeout=60,
            check=True,
        )
        samples.append(float(result.stdout.strip().splitlines()[-1]))
    return median(samples), len(samples)


def resolve(root, path: str):
    node = root
    if path:
        for step in path.split("."):
            node = node.children[int(step)]
    return node


def apply_mods(session: UpdateSession, mods: list[dict]) -> None:
    """Replay wire-format Δ operations through the session's public
    update methods (the service's own replay is not a public entry
    point, and a change to it must not move the edit workload)."""
    for mod in mods:
        node = resolve(session.document.root, mod["path"])
        op = mod["op"]
        if op == "replace-text":
            session.replace_text(node, mod["value"])
        elif op == "delete":
            session.delete(node)
        elif op == "rename":
            session.rename(node, mod["label"])
        elif op == "insert-element":
            session.insert_element(node, mod["position"], mod["label"])
        elif op == "insert-text":
            session.insert_text(node, mod["position"], mod["value"])
        else:
            raise ValueError(f"unknown op {op!r}")


# -- the live service ------------------------------------------------------


class Server:
    """A ``python -m repro serve`` subprocess at default settings."""

    def __init__(self, args: list[str], cwd: str, env: dict):
        self.args = args
        self.cwd = cwd
        self.env = env
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for the ``ready:`` line; returns the seconds
        from spawn to ready."""
        err_path = os.path.join(self.cwd, "serve.stderr")
        started = time.perf_counter()
        with open(err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 *self.args],
                cwd=self.cwd, env=self.env, stdout=subprocess.PIPE,
                stderr=err,
            )
        fd = self.proc.stdout.fileno()
        buffered = b""
        deadline = started + BOOT_TIMEOUT_S
        while True:
            while b"\n" in buffered:
                line, buffered = buffered.split(b"\n", 1)
                text = line.decode("utf-8", "replace")
                if text.startswith("listening on"):
                    self.port = int(text.rsplit(":", 1)[1])
                elif text.startswith("ready:"):
                    return time.perf_counter() - started
            remaining = deadline - time.perf_counter()
            readable, _, _ = select.select([fd], [], [], max(0.0, remaining))
            chunk = os.read(fd, 4096) if readable else b""
            if not chunk:
                self.stop()
                with open(err_path, encoding="utf-8", errors="replace") as err:
                    detail = err.read()[-2000:]
                raise RuntimeError(f"repro serve did not become ready: {detail}")
            buffered += chunk

    def healthz(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


# -- workloads -------------------------------------------------------------


class Workload:
    """Inputs and measurements of one traffic kind.  Subclasses set the
    inputs in ``__init__`` from the seed alone."""

    name = ""
    #: Pairs the workload validates against (and registers when served).
    pair_keys: tuple[str, ...] = ()
    with_chain = False

    def __init__(self, seed: int, ctx: "Context"):
        self.seed = seed
        self.ctx = ctx
        #: Documents for the per-layer probes.
        self.docs: list[C.Doc] = []
        #: Requests for the service probes.
        self.requests: list[C.Request] = []
        #: (pair key, document texts, cumulative edit script).
        self.edits: tuple[str, list[str], list[C.Txn]] = ("", [], [])

    # built lazily so that nothing is compiled before set-up is timed
    def build(self) -> None:
        self.pairs = {key: build_pair(key) for key in self.pair_keys}
        self.chain = None
        if self.with_chain:
            self.chain = SchemaChain([schema(s) for s in C.CHAIN],
                                     name=C.CHAIN_NAME)
            self.chain.warm()
            self.pairs[C.CHAIN_NAME] = self.chain.composed_pair()

    def server_args(self) -> list[str]:
        args = []
        for key in self.pair_keys:
            args += ["--pair", f"{key}={key}-source.xsd:{key}-target.xsd"]
        if self.with_chain:
            files = ":".join(f"{C.CHAIN_NAME}-{n + 1}.xsd"
                             for n in range(len(C.CHAIN)))
            args += ["--chain", f"{C.CHAIN_NAME}={files}"]
        return args

    def registry_specs(self) -> list:
        specs: list = [
            PairSpec(key, schema(C.PAIRS[key][0]), schema(C.PAIRS[key][1]))
            for key in self.pair_keys
        ]
        if self.with_chain:
            specs.append(ChainSpec(C.CHAIN_NAME,
                                   tuple(schema(s) for s in C.CHAIN)))
        return specs

    def run(self, seconds: float, tally: Tally) -> Outcome:
        """The untraced measurement: every end-to-end metric."""
        raise NotImplementedError

    def main_pass(self) -> tuple[float, int]:
        """A fixed slice of the workload's main loop, untraced: (wall
        seconds, operations)."""
        raise NotImplementedError


class CastWorkload(Workload):
    """Documents in memory, each cast with ``cast_text`` and defaults."""

    flaw = ""

    def __init__(self, seed: int, ctx: "Context"):
        super().__init__(seed, ctx)
        (key,) = self.pair_keys
        rng = C.seeded(seed, self.name)
        corpus = C.flawed_corpus(rng, key, 200, 2, 1000, self.flaw)
        self.docs = [doc for _, doc in corpus]
        self.requests = [
            C.Request("cast", key, doc.text, doc.valid, doc.path)
            for doc in self.docs
        ]
        # The castmods probe edits the smaller documents of the corpus.
        small = sorted(corpus, key=lambda entry: len(entry[1].text))[:100]
        picked = [small[i] for i in sorted(rng.sample(range(100), 20))]
        orders = [order for order, _ in picked]
        script = C.edit_script(rng, orders, C.PAIRS[key][1], 200)
        self.edits = (key, [doc.text for _, doc in picked], script)

    def run(self, seconds: float, tally: Tally) -> Outcome:
        setup = fresh_setup(self.ctx, self.pair_keys[0])
        self.build()
        pair = self.pairs[self.pair_keys[0]]
        docs = self.docs
        total_bytes = sum(len(doc.text) for doc in docs)
        for doc in docs:  # warm-up pass
            cast_text(pair, doc.text)
        gc.collect()
        clock = time.perf_counter
        latencies: list[float] = []
        passes: list[float] = []  # seconds inside cast_text per corpus pass
        started = clock()
        while len(passes) < 5 or clock() - started < seconds:
            busy = 0.0
            for doc in docs:
                t0 = clock()
                report = cast_text(pair, doc.text)
                elapsed = clock() - t0
                busy += elapsed
                latencies.append(elapsed)
                tally.check("cast_text", report.valid, report.path,
                            doc.valid, doc.path)
            passes.append(busy)
        out = Outcome()
        out.metrics["setup_s"] = setup
        out.metrics["ops_per_s"] = (median(len(docs) / b for b in passes),
                                    len(passes))
        out.metrics["p50_ms"] = (percentile(latencies, 50) * 1e3, len(latencies))
        out.metrics["p95_ms"] = (percentile(latencies, 95) * 1e3, len(latencies))
        out.extras["cast_mb_s"] = (
            median(total_bytes / MB / b for b in passes), "MB/s", len(passes))
        return out

    def main_pass(self) -> tuple[float, int]:
        pair = self.pairs[self.pair_keys[0]]
        start = time.perf_counter()
        for doc in self.docs:
            cast_text(pair, doc.text)
        return time.perf_counter() - start, len(self.docs)


class SkimHeavy(CastWorkload):
    """Experiment 1 (billTo optional → required): R_sub covers both
    addresses and the whole ``items`` subtree, so the byte skim does
    nearly all the work.  A tenth of the documents omit billTo and fail
    at the root's content model."""

    name = "skim-heavy"
    pair_keys = ("exp1",)
    flaw = "no-billto"


class SkipFree(CastWorkload):
    """The Experiment-2 source against a target with every leaf facet
    tightened: R_sub is empty over the reachable pairs, so the lexer,
    kernel walk and value checks do everything and the skim nothing.
    A tenth of the documents carry one quantity in [100, 200)."""

    name = "skip-free"
    pair_keys = ("zero-sub",)
    flaw = "bad-qty"


class EditRevalidate(Workload):
    """Experiment 2: 40 documents of 20–200 items parsed once per round,
    then transactions of 1–3 Δ edits through ``UpdateSession``, each
    ended by ``CastWithModificationsValidator.validate``."""

    name = "edit-revalidate"
    pair_keys = ("exp2",)
    #: Transactions per round; rounds repeat the script on fresh parses.
    script_len = 1280

    def __init__(self, seed: int, ctx: "Context"):
        super().__init__(seed, ctx)
        rng = C.seeded(seed, self.name)
        target = C.PAIRS["exp2"][1]
        orders = [
            C.make_order(rng, items, qty_max=target.qty_max)
            for items in C.stratified_counts(rng, 40, 20, 200)
        ]
        self.texts = [C.to_xml(order) for order in orders]
        self.script = C.edit_script(rng, orders, target, self.script_len)
        self.docs = [C.Doc("exp2", text, True, "") for text in self.texts]
        for order, text in zip(orders, self.texts):
            (txn,) = C.edit_script(rng, [order], target, 1)
            self.requests.append(C.Request(
                "cast-with-mods", "exp2", text, txn.valid, txn.path,
                mods=txn.mods))
        self.edits = ("exp2", self.texts, self.script[:400])

    def _round(self, pair, validator, script, tally, latencies) -> float:
        clock = time.perf_counter
        started = clock()
        sessions = [UpdateSession(parse(text, symbols=pair.symbols))
                    for text in self.texts]
        for txn in script:
            t0 = clock()
            session = sessions[txn.doc]
            apply_mods(session, txn.mods)
            report = validator.validate(session)
            latencies.append(clock() - t0)
            tally.check("castmods", report.valid, report.path,
                        txn.valid, txn.path)
        return clock() - started

    def run(self, seconds: float, tally: Tally) -> Outcome:
        setup = fresh_setup(self.ctx, "exp2")
        self.build()
        pair = self.pairs["exp2"]
        validator = CastWithModificationsValidator(pair, collect_stats=False)
        self._round(pair, validator, self.script[:200], Tally(), [])  # warm-up
        gc.collect()
        latencies: list[float] = []
        rates: list[float] = []
        started = time.perf_counter()
        while len(rates) < 4 or time.perf_counter() - started < seconds:
            wall = self._round(pair, validator, self.script, tally, latencies)
            rates.append(len(self.script) / wall)
        out = Outcome()
        out.metrics["setup_s"] = setup
        out.metrics["ops_per_s"] = (median(rates), len(rates))
        out.metrics["p50_ms"] = (percentile(latencies, 50) * 1e3, len(latencies))
        out.metrics["p95_ms"] = (percentile(latencies, 95) * 1e3, len(latencies))
        out.extras["valid_share"] = (
            sum(txn.valid for txn in self.script) / len(self.script),
            "fraction", len(self.script))
        return out

    def main_pass(self) -> tuple[float, int]:
        pair = self.pairs["exp2"]
        validator = CastWithModificationsValidator(pair, collect_stats=False)
        sessions = [UpdateSession(parse(text, symbols=pair.symbols))
                    for text in self.texts]
        script = self.script[:320]
        start = time.perf_counter()
        for txn in script:
            session = sessions[txn.doc]
            apply_mods(session, txn.mods)
            validator.validate(session)
        return time.perf_counter() - start, len(script)


class ServeMix(Workload):
    """A live ``repro serve`` (one process, no fleet workers) behind two
    keep-alive client connections, over the mix of
    :data:`corpus.SERVE_MIX`.  Gated latencies come from the closed loop
    (each client sends when its previous answer arrives); the open-loop
    ladder is reported alongside."""

    name = "serve-mix"
    pair_keys = ("exp1", "exp2")
    with_chain = True

    def __init__(self, seed: int, ctx: "Context"):
        super().__init__(seed, ctx)
        self.pool = C.serve_pool(seed)
        self.requests = self.pool
        for request in self.pool:
            if request.kind == "cast-chain":
                self.docs.append(C.Doc(request.pair, request.xml,
                                       request.valid, None))
            elif request.kind == "cast-with-mods":
                self.docs.append(C.Doc(request.pair, request.xml, True, ""))
            else:
                self.docs.append(C.Doc(request.pair, request.xml,
                                       request.valid, request.path))
        mods = [r for r in self.pool if r.kind == "cast-with-mods"]
        self.edits = (
            "exp2", [r.xml for r in mods],
            [C.Txn(i, r.mods, r.valid, r.path) for i, r in enumerate(mods)],
        )
        self.encoded = [
            loadgen.encode(f"/{r.kind}", r.body()) for r in self.pool
        ]

    def run(self, seconds: float, tally: Tally) -> Outcome:
        ctx = self.ctx
        write_schemas(self, ctx.work)
        boots = []
        server = None
        try:
            for _ in range(5):
                if server is not None:
                    server.stop()
                server = Server(self.server_args(), ctx.work, ctx.env)
                boots.append(server.start())
            return self._drive(server, boots, seconds, tally)
        finally:
            if server is not None:
                server.stop()

    def _check(self, samples, tally, what) -> None:
        for sample in samples:
            if sample.error:
                tally.fail(what, sample.error)
            else:
                tally.check_payload(what, sample.status, sample.body,
                                    self.pool[sample.request])

    def _drive(self, server, boots, seconds, tally) -> Outcome:
        """Warm up, climb the open-loop ladder (first step long enough
        for a p95), then spend the rest of the run in the closed loop
        the gated latencies come from."""
        ctx = self.ctx
        port = server.port
        started = time.perf_counter()
        rng = C.seeded(self.seed, "serve-schedule")
        order = list(range(len(self.pool)))
        rng.shuffle(order)
        warm = loadgen.closed_loop("127.0.0.1", port, self.encoded, order,
                                   connections=ctx.connections, seconds=1.0)
        self._check(warm.samples, tally, "warm-up")
        out = Outcome()
        lags: list[float] = []
        max_rps = 0
        for rate in LADDER:
            count = 200 if rate == LADDER[0] else rate
            schedule = C.poisson_schedule(rng, rate, count, len(self.pool))
            run = loadgen.open_loop(
                "127.0.0.1", port, self.encoded, schedule,
                connections=ctx.connections,
                cutoff=schedule[-1][0] + STEP_LIMIT_S,
            )
            self._check(run.samples, tally, f"{rate} rps")
            lags += [sample.lag for sample in run.samples]
            latencies = [sample.latency for sample in run.samples]
            out.extras[f"p50_ms@{rate}rps"] = (
                percentile(latencies, 50) * 1e3, "ms", len(latencies))
            if rate == LADDER[0]:
                out.extras[f"p95_ms@{rate}rps"] = (
                    percentile(latencies, 95) * 1e3, "ms", len(latencies))
            passed = (
                not run.unsent
                and all(not s.error and s.status == 200 for s in run.samples)
                and max(latencies) <= STEP_LIMIT_S
            )
            if not passed:
                break
            max_rps = rate
        remaining = max(6.0, seconds - (time.perf_counter() - started))
        closed = loadgen.closed_loop("127.0.0.1", port, self.encoded, order,
                                     connections=ctx.connections,
                                     seconds=remaining)
        self._check(closed.samples, tally, "closed loop")
        latencies = [sample.latency for sample in closed.samples]
        out.metrics["setup_s"] = (median(boots), len(boots))
        out.metrics["ops_per_s"] = (
            len(closed.samples) / max(s.done for s in closed.samples),
            len(closed.samples))
        out.metrics["p50_ms"] = (percentile(latencies, 50) * 1e3, len(latencies))
        out.metrics["p95_ms"] = (percentile(latencies, 95) * 1e3, len(latencies))
        out.extras["max_rps"] = (max_rps, "req/s", len(lags))
        out.extras["loadgen.send_lag_p95_ms"] = (
            percentile(lags, 95) * 1e3, "ms", len(lags))
        return out

    def main_pass(self) -> tuple[float, int]:
        entries = self.ctx.registry_entries
        jobs = [(r.kind, r.body()) for r in self.pool]
        start = time.perf_counter()
        for kind, body in jobs:
            serve_in_process(entries, kind, body)
        return time.perf_counter() - start, len(jobs)


WORKLOADS = {cls.name: cls for cls in (SkimHeavy, SkipFree, EditRevalidate,
                                        ServeMix)}


@dataclass
class Context:
    """Where the run may write and how to start the program."""

    run_py: str
    work: str
    env: dict
    connections: int
    registry_entries: dict = field(default_factory=dict)


def write_schemas(workload: Workload, work: str) -> None:
    """The schema files ``repro serve`` loads."""
    files = {}
    for key in workload.pair_keys:
        source, target = C.PAIRS[key]
        files[f"{key}-source.xsd"] = C.po_xsd(source)
        files[f"{key}-target.xsd"] = C.po_xsd(target)
    if workload.with_chain:
        for n, spec in enumerate(C.CHAIN):
            files[f"{C.CHAIN_NAME}-{n + 1}.xsd"] = C.po_xsd(spec)
    for name, text in files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def _untimed(name: str):
    return nullcontext()


def serve_in_process(entries: dict, kind: str, body: bytes,
                     span=_untimed) -> bytes:
    """What the server does with one request body, minus the socket:
    JSON decode, ``perform_request``, JSON encode — each inside
    ``span(name)``."""
    with span("service.decode"):
        decoded = json.loads(body)
    entry = entries[decoded["pair"]]
    with span("service.work"):
        payload = perform_request(kind, entry.pair, decoded, entry.limits,
                                  pair_name=entry.name,
                                  fingerprint=entry.fingerprint)
    with span("service.encode"):
        return json.dumps(payload).encode("utf-8")


# -- end-to-end run --------------------------------------------------------


def measure(workload: Workload, seconds: float, tally: Tally) -> Outcome:
    """The untraced run: every end-to-end metric, plus the error rate."""
    out = workload.run(seconds, tally)
    out.extras["error_rate"] = (
        len(tally.wrong) / max(1, tally.attempted), "fraction",
        tally.attempted)
    return out


# -- traced run ------------------------------------------------------------


class Layers:
    """Per-round values of every per-layer metric, reduced to medians."""

    def __init__(self) -> None:
        self.rounds: list[dict[str, float]] = []
        self.once: dict[str, float] = {}

    def result(self) -> dict[str, tuple[float, int]]:
        names = set(self.once)
        for values in self.rounds:
            names |= set(values)
        out = {}
        for name in sorted(names):
            if name in self.once:
                out[name] = (self.once[name], 1)
            else:
                values = [r[name] for r in self.rounds if name in r]
                out[name] = (median(values), len(values))
        return out


def _ns_by_name(recorder: Recorder, ancestor: int) -> tuple[dict, dict]:
    """Self time under ``ancestor``: total per name, and each span's."""
    self_ns = recorder.self_ns()
    totals: dict[str, int] = {}
    each: dict[str, list[int]] = {}
    for span in recorder.under(ancestor):
        value = self_ns[span.id]
        totals[span.name] = totals.get(span.name, 0) + value
        each.setdefault(span.name, []).append(value)
    return totals, each


def trace_run(workload: Workload, seconds: float, tally: Tally,
              recorder: Recorder) -> Outcome:
    """The traced run: one live-service probe, the tracing-overhead
    probe, then rounds of every in-process layer probe on the workload's
    own inputs for as long as another round fits in ``seconds``."""
    ctx = workload.ctx
    write_schemas(workload, ctx.work)
    started = time.perf_counter()
    workload.build()
    registry = ServiceRegistry(workload.registry_specs())
    registry.warm()
    ctx.registry_entries = {
        key: registry.get(key)
        for key in (*workload.pair_keys,
                    *((C.CHAIN_NAME,) if workload.with_chain else ()))
    }
    files = _write_documents(workload, ctx.work)
    layers = Layers()
    live = _probe_live(workload, recorder, tally)
    with recorder.span("probe.overhead"):
        passes = [workload.main_pass() for _ in range(3)]
        layers.once["trace.overhead_frac"] = overhead_frac(
            median(wall for wall, _ in passes), passes[0][1], span_cost_ns())
    last = 0.0
    while not layers.rounds or (
        time.perf_counter() - started + last <= seconds
    ):
        round_start = time.perf_counter()
        with recorder.span("round", item=str(len(layers.rounds))) as round_id:
            _probe_schema(workload, recorder)
            counts = _probe_documents(workload, recorder, tally)
            memo = _probe_batch(workload, files, recorder, tally)
            deltas = _probe_castmods(workload, recorder, tally)
            _probe_service(workload, recorder, tally)
        last = time.perf_counter() - round_start
        layers.rounds.append(
            _round_metrics(recorder, round_id, counts, memo, deltas))
    in_process = sum(
        median(r[name] for r in layers.rounds)
        for name in ("service.decode_ms", "service.work_ms", "service.encode_ms")
    )
    client = percentile([s.latency for s in live["closed"]], 50) * 1e3
    layers.once["service.transport_ms"] = client - in_process
    layers.once["service.boot_s"] = live["boot_s"]
    layers.once["loadgen.send_lag_p95_ms"] = percentile(
        [s.lag for s in live["open"]], 95) * 1e3
    for key in ("admitted", "shed", "queued", "peak_inflight"):
        layers.once[f"service.{key}"] = live["admission"][key]
    out = Outcome(metrics=layers.result())
    _service_extras(workload, recorder, out)
    if workload.with_chain:
        _probe_chain(workload, recorder, tally, out)
    return out


def _write_documents(workload: Workload,
                     work: str) -> dict[str, list[tuple[str, C.Doc]]]:
    """The probe documents as files, grouped by pair (batch input)."""
    directory = os.path.join(work, "docs")
    os.makedirs(directory, exist_ok=True)
    groups: dict[str, list[tuple[str, C.Doc]]] = {}
    for index, doc in enumerate(workload.docs):
        path = os.path.join(directory, f"{index:04d}.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(doc.text)
        groups.setdefault(doc.pair, []).append((path, doc))
    return groups


def _probe_schema(workload: Workload, recorder: Recorder) -> None:
    """Complete set-ups of every pair (and chain) the workload uses."""
    for repeat in range(SCHEMA_SETUPS):
        with recorder.span("probe.schema", item=str(repeat)):
            for key in workload.pair_keys:
                texts = [C.po_xsd(spec) for spec in C.PAIRS[key]]
                with recorder.span("schema.parse_xsd", item=key):
                    source = parse_xsd(texts[0])
                    target = parse_xsd(texts[1])
                with recorder.span("schema.pair_build", item=key):
                    pair = SchemaPair(source, target)
                with recorder.span("schema.warm", item=key):
                    pair.warm()
                    pair.kernel()
            if workload.with_chain:
                texts = [C.po_xsd(spec) for spec in C.CHAIN]
                with recorder.span("schema.parse_xsd", item=C.CHAIN_NAME):
                    schemas = [parse_xsd(text) for text in texts]
                with recorder.span("schema.chain_build", item=C.CHAIN_NAME):
                    chain = SchemaChain(schemas, name=C.CHAIN_NAME)
                    chain.composed_pair()
                with recorder.span("schema.chain_warm", item=C.CHAIN_NAME):
                    chain.warm()


_COUNTERS = ("elements_visited", "subtrees_skipped", "simple_values_checked",
             "early_content_decisions", "disjoint_rejections")


def _probe_documents(workload: Workload, recorder: Recorder,
                     tally: Tally) -> dict[str, float]:
    """Lexer, parser, fused kernel (with and without the skim) and DOM
    cast over every probe document; returns summed report counters."""
    counts = dict.fromkeys(_COUNTERS, 0)
    counts["bytes"] = counts["bytes_skipped"] = 0
    validators = {
        key: CastValidator(pair, collect_stats=False,
                           memo=ValidationMemo(DEFAULT_MEMO_SIZE))
        for key, pair in workload.pairs.items()
    }
    with recorder.span("probe.documents"):
        for index, doc in enumerate(workload.docs):
            pair = workload.pairs[doc.pair]
            item = str(index)
            with recorder.span("xmltree.lex", item=item):
                for _ in iter_tokens(doc.text):
                    pass
            with recorder.span("xmltree.parse", item=item):
                tree = parse(doc.text, symbols=pair.symbols)
            with recorder.span("core.cast_text", item=item):
                report = cast_text(pair, doc.text)
            with recorder.span("core.cast_text_noskip", item=item):
                noskip = cast_text(pair, doc.text, stream_skip=False)
            with recorder.span("core.dom_cast", item=item):
                dom = validators[doc.pair].validate(tree)
            tally.check("cast_text", report.valid, report.path,
                        doc.valid, doc.path)
            tally.check("cast_text noskip", noskip.valid, noskip.path,
                        doc.valid, doc.path)
            tally.check("CastValidator", dom.valid, dom.path,
                        doc.valid, doc.path)
            stats = report.stats
            for name in _COUNTERS:
                counts[name] += getattr(stats, name)
            counts["bytes_skipped"] += stats.bytes_skipped
            counts["bytes"] += len(doc.text)
    return counts


def _probe_batch(workload: Workload, files, recorder: Recorder,
                 tally: Tally) -> float:
    """File reads, ``validate_batch`` serial and on two workers, and a
    bare fleet start; returns the serial run's memo hit share."""
    hits = lookups = 0
    jobs = workload.ctx.connections
    with recorder.span("probe.batch"):
        for key, group in files.items():
            pair = workload.pairs[key]
            paths = [path for path, _ in group]
            expected = {path: doc for path, doc in group}
            for path in paths:
                with recorder.span("core.read", item=path):
                    with open(path, encoding="utf-8") as handle:
                        handle.read()
            for name, width in (("core.batch", 1), ("core.batch_par", jobs)):
                with recorder.span(name, item=key):
                    result = validate_batch(pair, paths, jobs=width,
                                            memo_size=DEFAULT_MEMO_SIZE)
                for doc_result in result.results:
                    if doc_result.error:
                        tally.fail(name, doc_result.error)
                    else:
                        tally.check(name, doc_result.valid, "",
                                    expected[doc_result.path].valid, None)
                if width == 1 and result.stats is not None:
                    hits += result.stats.memo_hits
                    lookups += result.stats.memo_lookups
        pair = workload.pairs[workload.pair_keys[0]]
        with recorder.span("core.fleet_start"):
            WorkerFleet(pair, jobs,
                        config=FleetConfig(memo_size=DEFAULT_MEMO_SIZE)).close()
    return hits / lookups if lookups else 0.0


def _probe_castmods(workload: Workload, recorder: Recorder,
                    tally: Tally) -> int:
    """Edit transactions: Δ apply, incremental revalidation, and the
    non-incremental reference — full target validation of the same
    edited document (a from-scratch *cast* would be unsound here: an
    edit may break the source validity a cast relies on).  Returns the
    Δ-labelled nodes the instrumented walk met."""
    key, texts, script = workload.edits
    pair = workload.pairs[key]
    fast = CastWithModificationsValidator(pair, collect_stats=False)
    counted = CastWithModificationsValidator(pair, collect_stats=True)
    deltas = 0
    with recorder.span("probe.castmods"):
        sessions = [UpdateSession(parse(text, symbols=pair.symbols))
                    for text in texts]
        for index, txn in enumerate(script):
            session = sessions[txn.doc]
            item = str(index)
            with recorder.span("txn", item=item):
                with recorder.span("core.delta_apply", item=item):
                    apply_mods(session, txn.mods)
                with recorder.span("core.castmods", item=item):
                    report = fast.validate(session)
                with recorder.span("xmltree.materialize", item=item):
                    edited = session.result_document()
                with recorder.span("core.full_recast", item=item):
                    full = validate_document(pair.target, edited,
                                             collect_stats=False)
                with recorder.span("core.castmods_counted", item=item):
                    deltas += counted.validate(session).stats.deltas_seen
            tally.check("castmods", report.valid, report.path,
                        txn.valid, txn.path)
            tally.check("full recast", full.valid, full.path, txn.valid, None)
    return deltas


def _probe_service(workload: Workload, recorder: Recorder,
                   tally: Tally) -> None:
    """The server's per-request work without the socket: JSON decode,
    ``perform_request``, JSON encode."""
    entries = workload.ctx.registry_entries
    with recorder.span("probe.service"):
        with recorder.span("service.registry_warm"):
            ServiceRegistry(workload.registry_specs()).warm()
        for index, request in enumerate(workload.requests):
            item = f"{request.kind}:{index}"
            body = request.body()
            try:
                with recorder.span("service.request", item=item):
                    encoded = serve_in_process(
                        entries, request.kind, body,
                        lambda name: recorder.span(name, item=item))
            except ReproError as error:
                tally.fail("perform_request", repr(error))
                continue
            tally.check_payload("perform_request", 200, encoded, request)


def _probe_live(workload: Workload, recorder: Recorder, tally: Tally) -> dict:
    """Boot the service on the workload's pairs; send its requests in a
    closed loop (the client latency ``serve-mix`` gates on), then 200 at
    25 rps open loop (the generator's send lag); read the admission
    counters."""
    ctx = workload.ctx
    rng = C.seeded(workload.seed, "trace-live")
    encoded = [loadgen.encode(f"/{r.kind}", r.body()) for r in workload.requests]
    order = list(range(len(encoded)))
    rng.shuffle(order)
    schedule = C.poisson_schedule(rng, LADDER[0], 200, len(encoded))
    server = Server(workload.server_args(), ctx.work, ctx.env)
    with recorder.span("probe.live") as live_id:
        try:
            with recorder.span("service.boot"):
                boot = server.start()
            closed = loadgen.closed_loop("127.0.0.1", server.port, encoded,
                                         order, connections=ctx.connections,
                                         seconds=3.0)
            opened = loadgen.open_loop("127.0.0.1", server.port, encoded,
                                       schedule, connections=ctx.connections)
            admission = server.healthz()["admission"]
        finally:
            server.stop()
    for run in (closed, opened):
        base = int(run.start * 1e9)
        for sample in run.samples:
            recorder.add("service.http", base + int(sample.sent * 1e9),
                         base + int(sample.done * 1e9), parent=live_id,
                         item=str(sample.request))
            if sample.error:
                tally.fail("live", sample.error)
            else:
                tally.check_payload("live", sample.status, sample.body,
                                    workload.requests[sample.request])
    return {"boot_s": boot, "closed": closed.samples, "open": opened.samples,
            "admission": admission}


def _round_metrics(recorder, round_id, counts, memo, deltas) -> dict:
    """One round's per-layer values, from the self times of its spans."""
    totals, each = _ns_by_name(recorder, round_id)
    s = 1e-9
    ms = 1e-6
    per_setup = ms / SCHEMA_SETUPS
    total_bytes = counts["bytes"] / MB
    values = {
        "schema.parse_xsd_ms": totals["schema.parse_xsd"] * per_setup,
        "schema.pair_build_ms": (totals.get("schema.pair_build", 0)
                                 + totals.get("schema.chain_build", 0))
                                * per_setup,
        "schema.warm_ms": (totals.get("schema.warm", 0)
                           + totals.get("schema.chain_warm", 0)) * per_setup,
        "xmltree.lex_mb_s": total_bytes / (totals["xmltree.lex"] * s),
        "xmltree.parse_mb_s": total_bytes / (totals["xmltree.parse"] * s),
        "xmltree.skim_bytes_frac": counts["bytes_skipped"] / counts["bytes"],
        "core.cast_text_s": totals["core.cast_text"] * s,
        "core.cast_text_noskip_s": totals["core.cast_text_noskip"] * s,
        "core.dom_cast_s": totals["core.dom_cast"] * s,
        "core.read_s": totals["core.read"] * s,
        "core.batch_mb_s": total_bytes / (totals["core.batch"] * s),
        "core.batch_par_mb_s": total_bytes / (totals["core.batch_par"] * s),
        "core.batch_self_s": (totals["core.batch"] - totals["core.read"]
                              - totals["xmltree.parse"]
                              - totals["core.dom_cast"]) * s,
        "core.memo_hit_frac": memo,
        "core.fleet_start_s": totals["core.fleet_start"] * s,
        "core.delta_apply_ms": median(each["core.delta_apply"]) * ms,
        "core.castmods_ms": median(each["core.castmods"]) * ms,
        "core.full_recast_ms": median(each["core.full_recast"]) * ms,
        "core.deltas_seen": deltas,
        "service.registry_warm_s": totals["service.registry_warm"] * s,
        "service.decode_ms": median(each["service.decode"]) * ms,
        "service.work_ms": median(each["service.work"]) * ms,
        "service.encode_ms": median(each["service.encode"]) * ms,
    }
    for name in _COUNTERS:
        values[f"core.{name}"] = counts[name]
    return values


def _service_extras(workload: Workload, recorder: Recorder, out: Outcome) -> None:
    """Per-endpoint work medians (people read these; they are not gated)."""
    self_ns = recorder.self_ns()
    by_kind: dict[str, list[int]] = {}
    for span in recorder.spans:
        if span.name == "service.work":
            kind = span.item.split(":", 1)[0]
            by_kind.setdefault(kind, []).append(self_ns[span.id])
    for kind, values in sorted(by_kind.items()):
        out.extras[f"service.work_ms.{kind}"] = (
            median(values) * 1e-6, "ms", len(values))


def _probe_chain(workload: Workload, recorder: Recorder, tally: Tally,
                 out: Outcome) -> None:
    """Chain casts of the chain requests: fused pass plus, on reject,
    the hop-by-hop re-run."""
    chain = workload.chain
    requests = [r for r in workload.requests if r.kind == "cast-chain"]
    times, fallbacks = [], 0
    with recorder.span("probe.chain"):
        for index, request in enumerate(requests):
            with recorder.span("schema.chain_cast", item=str(index)) as span_id:
                report = chain.cast_text(request.xml)
            times.append(span_id)
            tally.check("chain.cast_text", report.valid, report.path,
                        request.valid, request.path)
            if not chain.cast_composed_text(request.xml).valid:
                fallbacks += 1
    self_ns = recorder.self_ns()
    warm = [self_ns[s.id] for s in recorder.spans if s.name == "schema.chain_warm"]
    out.extras["schema.chain_warm_ms"] = (median(warm) * 1e-6, "ms", len(warm))
    out.extras["schema.chain_cast_ms"] = (
        median(self_ns[i] for i in times) * 1e-6, "ms", len(times))
    out.extras["schema.chain_fallback_frac"] = (
        fallbacks / len(requests), "fraction", len(requests))
