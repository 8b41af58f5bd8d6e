"""Outside-in layer tracing: spans recorded around calls into each layer.

The traced run wraps the public entry points of the program's layers from
the benchmark's own files; nothing inside ``src/`` records anything.
Each span has a name, a start, an end, the span that caused it (the
enclosing span on the same thread) and, where one exists, the request id.
Spans stay in memory and are written out when the run ends.

A hook whose target no longer exists is skipped and listed in the report
rather than failing the run, so a later change to the program's internals
costs a trace column, never the benchmark.

Run as a script to turn a written span file into the report::

    python3 perfbench/tracing.py .perfbench/trace-serve-hot-seed1-serve-mid.json
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

now = time.perf_counter


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: "int | None" = None
    request_id: "int | str | None" = None
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request_id": self.request_id,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span recorder; the parent is the enclosing span on the same thread."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.missing: "list[str]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id=None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = now()
        try:
            yield attrs
        finally:
            end = now()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, attrs.pop("request_id", request_id), attrs))

    def record(self, name: str, start: float, end: float, request_id=None, **attrs) -> None:
        """A span measured by the caller (e.g. across an ``await``)."""
        stack = self._stack()
        self.spans.append(Span(next(self._ids), name, start, end, stack[-1] if stack else None, request_id, attrs))

    def dump(self, path: str, extra: "dict | None" = None) -> None:
        doc = {"spans": [s.to_json() for s in self.spans], "missing_hooks": self.missing, **(extra or {})}
        with open(path, "w") as f:
            json.dump(doc, f)


class Patches:
    """Attribute patches undone in reverse order on exit."""

    def __init__(self, tracer: "Tracer | None" = None) -> None:
        self._undo: "list[tuple[object, str, object]]" = []
        self._tracer = tracer

    def patch(self, owner, attr: str, make) -> bool:
        """Replace ``owner.attr`` by ``make(original)``; skip (and note) if absent."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            if self._tracer is not None:
                self._tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _timed(tracer: Tracer, name: str, describe=None):
    """Wrapper factory: one span per call, ``describe(args, kwargs, result)`` adds attributes."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result))
            return result

        return wrapper

    return make


def _file_bytes(args) -> dict:
    try:
        return {"bytes": os.path.getsize(args[0])}
    except (OSError, TypeError, IndexError):
        return {}


class HashCounter:
    """Counts the bytes the design store and fleet tier hash, by wrapping their hash helpers.

    Exact for a given seed (every hashed file has a size fixed by the
    design key), so it is reported in every run, traced or not.
    """

    def __init__(self) -> None:
        self.bytes = 0
        self.available = True

    def install(self, patches: Patches) -> None:
        import repro.designs.remote as remote_mod
        import repro.designs.store as store_mod

        def make(fn):
            @functools.wraps(fn)
            def wrapper(path, *args, **kwargs):
                result = fn(path, *args, **kwargs)
                self.bytes += os.path.getsize(path)
                return result

            return wrapper

        hooked = [
            patches.patch(store_mod, "_sha256_file", make),
            patches.patch(store_mod, "sha256_file", make),
            patches.patch(remote_mod, "sha256_file", make),
        ]
        self.available = all(hooked)


class CompileCounter:
    """Counts design compilations, by wrapping ``compile_from_key``.

    Only a call with neither cache nor store compiles; the store and cache
    paths call it that way on a miss, so an attach that fell back to a
    compile is counted too.
    """

    def __init__(self) -> None:
        self.compiles = 0
        self.available = True

    def install(self, patches: Patches) -> None:
        import repro.designs.compiled as compiled_mod

        def make(fn):
            @functools.wraps(fn)
            def compile_from_key(key, *, cache=None, store=None):
                if cache is None and store is None:
                    self.compiles += 1
                return fn(key, cache=cache, store=store)

            return compile_from_key

        self.available = patches.patch(compiled_mod, "compile_from_key", make)


def install_layer_hooks(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.core.design as design_mod
    import repro.designs.compiled as compiled_mod
    import repro.designs.remote as remote_mod
    import repro.designs.store as store_mod
    import repro.engine.grid as grid_mod
    import repro.serve.server as server_mod
    from repro.core.mn import MNDecoder
    from repro.designs.compiled import CompiledDesign
    from repro.designs.remote import LocalDirRemote
    from repro.designs.store import DesignStore
    from repro.serve.coalescer import Coalescer, DecoderPool

    # serve.protocol — looked up by name in the server module.
    patches.patch(
        server_mod,
        "parse_request",
        _timed(tracer, "protocol.parse", lambda a, k, r: {"request_id": r.request_id, "bytes": len(a[0]), "m": r.key.m, "decoder": r.decoder}),
    )
    patches.patch(server_mod, "encode_success", _timed(tracer, "protocol.encode", lambda a, k, r: {"request_id": a[0]}))

    # serve.coalescer — submit is synchronous, the pool lookup awaits.
    def make_submit(fn):
        @functools.wraps(fn)
        def submit(self, request):
            start = now()
            future = fn(self, request)
            tracer.record("coalescer.submit", start, now(), request_id=request.request_id, m=request.key.m, decoder=request.decoder)
            return future

        return submit

    def make_get(fn):
        @functools.wraps(fn)
        async def get(self, key, decoder=None):
            start, hits = now(), self.hits
            try:
                return await fn(self, key, decoder)
            finally:
                tracer.record("coalescer.pool_get", start, now(), m=key.m, decoder=decoder, hit=self.hits > hits)

        return get

    patches.patch(Coalescer, "submit", make_submit)
    patches.patch(DecoderPool, "get", make_get)

    # designs.compiled / core.mn — the Psi GEMM, the block build, the selection.
    seen_blocks: "set[int]" = set()

    def make_block(fn):
        @functools.wraps(fn)
        def incidence_block(self):
            if id(self) in seen_blocks:
                return fn(self)
            seen_blocks.add(id(self))
            with tracer.span("design.block_first", m=self.m, n=self.n):
                return fn(self)

        return incidence_block

    def psi_attrs(args, kwargs, result):
        y = args[1]
        rows = 1 if getattr(y, "ndim", 1) == 1 else len(y)
        block_self = args[0]
        return {"B": rows, "m": block_self.m, "n": block_self.n, "itemsize": block_self.block_dtype.itemsize}

    patches.patch(CompiledDesign, "psi", _timed(tracer, "design.psi", psi_attrs))
    patches.patch(CompiledDesign, "incidence_block", make_block)
    patches.patch(MNDecoder, "decode", _timed(tracer, "mn.decode"))

    def make_compile(fn):
        @functools.wraps(fn)
        def compile_from_key(key, *, cache=None, store=None):
            name = "design.compile" if cache is None and store is None else "design.resolve"
            with tracer.span(name, m=key.m):
                return fn(key, cache=cache, store=store)

        return compile_from_key

    patches.patch(compiled_mod, "compile_from_key", make_compile)

    # designs.store / designs.remote.
    patches.patch(DesignStore, "get", _timed(tracer, "store.get", lambda a, k, r: {"hit": r is not None}))
    patches.patch(DesignStore, "publish", _timed(tracer, "store.publish"))
    patches.patch(DesignStore, "remote_publish", _timed(tracer, "store.remote_publish"))
    patches.patch(LocalDirRemote, "fetch", _timed(tracer, "remote.fetch"))
    patches.patch(LocalDirRemote, "publish", _timed(tracer, "remote.publish"))
    patches.patch(store_mod, "pack_entry", _timed(tracer, "remote.pack"))
    patches.patch(store_mod, "unpack_entry", _timed(tracer, "remote.unpack"))
    for owner, attr in ((store_mod, "_sha256_file"), (store_mod, "sha256_file"), (remote_mod, "sha256_file")):
        patches.patch(owner, attr, _timed(tracer, "hash.sha256", lambda a, k, r: _file_bytes(a)))

    # kernels (through the dispatch seam core.design calls) and engine.grid.
    kernel_ops = {"query_results_batch": "kernels.query", "materialised_psi": "kernels.psi", "materialised_dstar": "kernels.dstar"}

    class KernelProxy:
        def __init__(self, module):
            self._module = module

        def __getattr__(self, attr):
            target = getattr(self._module, attr)
            if attr in kernel_ops:
                return _timed(tracer, kernel_ops[attr])(target)
            return target

    patches.patch(design_mod, "dispatch_kernel", lambda fn: functools.wraps(fn)(lambda name=None: KernelProxy(fn(name))))
    patches.patch(grid_mod, "run_batched_point", _timed(tracer, "engine.grid.point", lambda a, k, r: {"m": a[1], "trials": k.get("trials")}))


class TracedDecoder:
    """A :class:`~repro.designs.protocol.Decoder` whose compiled form records ``decode_batch`` spans."""

    def __init__(self, inner, family: str, tracer: Tracer):
        self.inner = inner
        self.family = family
        self.tracer = tracer

    def compile(self, design, *, cache=None, store=None):
        with self.tracer.span("decoder.compile", family=self.family):
            compiled = self.inner.compile(design, cache=cache, store=store)
        return TracedCompiledDecoder(compiled, self.family, self.tracer, getattr(design, "m", None))


class TracedCompiledDecoder:
    def __init__(self, inner, family: str, tracer: Tracer, m):
        self.inner = inner
        self.family = family
        self.tracer = tracer
        self.m = m

    def decode(self, y, k):
        return self.inner.decode(y, k)

    def decode_batch(self, Y, k):
        with self.tracer.span("decode.batch", family=self.family, m=self.m, B=len(Y)):
            return self.inner.decode_batch(Y, k)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()


# -- derivation ------------------------------------------------------------------


def _union_ms(intervals: "list[tuple[float, float]]", lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``, in ms."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total * 1e3


def self_times(spans: "list[Span]") -> "dict[int, float]":
    """Each span's duration minus the part of it its child spans cover (ms)."""
    children: "dict[int, list[Span]]" = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {s.sid: s.ms - _union_ms([(c.start, c.end) for c in children.get(s.sid, [])], s.start, s.end) for s in spans}


REQUEST_PARTS = ("protocol.parse", "coalescer.wait", "coalescer.pool_get", "server.executor_wait", "decode.batch", "protocol.encode")


def request_breakdown(spans: "list[Span]") -> "list[dict]":
    """Per request: server-side time and the named intervals that cover it.

    Server-side time runs from the start of ``parse_request`` to the end of
    ``encode_success``.  The named intervals are the protocol spans, the
    coalescing wait (``submit`` to the dispatching pool lookup), the pool
    lookup, the executor wait (lookup end to ``decode_batch`` start) and
    the request's ``decode_batch``.
    """
    by_rid: "dict[object, dict[str, Span]]" = {}
    for s in spans:
        if s.request_id is not None and s.name in ("protocol.parse", "coalescer.submit", "protocol.encode"):
            by_rid.setdefault(s.request_id, {})[s.name] = s
    batches: "dict[tuple, list[Span]]" = {}
    gets: "dict[tuple, list[Span]]" = {}
    for s in spans:
        if s.name == "decode.batch":
            batches.setdefault((s.attrs.get("m"), s.attrs.get("family")), []).append(s)
        elif s.name == "coalescer.pool_get":
            gets.setdefault((s.attrs.get("m"), s.attrs.get("decoder")), []).append(s)
    rows = []
    for rid, parts in by_rid.items():
        parse, submit, encode = parts.get("protocol.parse"), parts.get("coalescer.submit"), parts.get("protocol.encode")
        if parse is None or submit is None or encode is None:
            continue
        pair = (parse.attrs.get("m"), parse.attrs.get("decoder"))
        batch = max((b for b in batches.get(pair, []) if b.start >= submit.start and b.end <= encode.start), key=lambda b: b.end, default=None)
        if batch is None:
            continue
        get = max((g for g in gets.get(pair, []) if submit.start <= g.start <= batch.start), key=lambda g: g.start, default=None)
        if get is None:
            continue
        intervals = {
            "protocol.parse": (parse.start, parse.end),
            "coalescer.wait": (submit.start, get.start),
            "coalescer.pool_get": (get.start, get.end),
            "server.executor_wait": (get.end, batch.start),
            "decode.batch": (batch.start, batch.end),
            "protocol.encode": (encode.start, encode.end),
        }
        total = (encode.end - parse.start) * 1e3
        attributed = _union_ms(list(intervals.values()), parse.start, encode.end)
        rows.append(
            {
                "request_id": rid,
                "total_ms": total,
                "attributed_ms": attributed,
                "unattributed_ms": total - attributed,
                "batch": batch.attrs.get("B"),
                **{name: (b - a) * 1e3 for name, (a, b) in intervals.items()},
            }
        )
    return rows


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def layer_table(spans: "list[Span]") -> "list[dict]":
    """Per span name: count, total, self time and median duration."""
    selfs = self_times(spans)
    groups: "dict[str, list[Span]]" = {}
    for s in spans:
        groups.setdefault(s.name, []).append(s)
    rows = []
    for name, group in sorted(groups.items()):
        rows.append(
            {
                "span": name,
                "count": len(group),
                "total_ms": sum(s.ms for s in group),
                "self_ms": sum(selfs[s.sid] for s in group),
                "median_ms": median(s.ms for s in group),
            }
        )
    return rows


def format_report(spans: "list[Span]", *, overhead_ms: "float | None" = None, missing: "list[str] | None" = None, title: str = "") -> str:
    """The per-layer self-time table, the request breakdown and the tracing overhead."""
    lines = [f"== trace report {title}".rstrip()]
    lines.append(f"{'span':28s} {'count':>7s} {'total ms':>11s} {'self ms':>11s} {'median ms':>10s}")
    for row in layer_table(spans):
        lines.append(f"{row['span']:28s} {row['count']:7d} {row['total_ms']:11.2f} {row['self_ms']:11.2f} {row['median_ms']:10.3f}")
    families: "dict[str, list[Span]]" = {}
    for s in spans:
        if s.name == "decode.batch":
            families.setdefault(s.attrs.get("family"), []).append(s)
    for family, group in sorted(families.items()):
        lines.append(
            f"decode.batch[{family}]: {len(group)} batches, median {median(s.ms for s in group):.3f} ms, "
            f"per row {median(s.ms / s.attrs['B'] for s in group):.3f} ms, mean batch {sum(s.attrs['B'] for s in group) / len(group):.2f}"
        )
    rows = request_breakdown(spans)
    if rows:
        lines.append(f"request breakdown over {len(rows)} requests (median ms):")
        for name in (*REQUEST_PARTS, "unattributed_ms", "total_ms"):
            key = name
            lines.append(f"  {name:26s} {median(r[key] for r in rows):9.3f}")
        share = median(r["attributed_ms"] / r["total_ms"] for r in rows if r["total_ms"] > 0)
        lines.append(f"  share of request time attributed to named spans (median request): {share:.1%}")
    if overhead_ms is not None:
        lines.append(f"tracing overhead (traced p50 - untraced p50): {overhead_ms:+.3f} ms")
    if missing:
        lines.append("hooks skipped (target absent): " + ", ".join(missing))
    return "\n".join(lines)


def load(path: str) -> "tuple[list[Span], dict]":
    with open(path) as f:
        doc = json.load(f)
    spans = [Span(d["id"], d["name"], d["start"], d["end"], d["parent"], d["request_id"], d["attrs"]) for d in doc["spans"]]
    return spans, doc


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: python3 perfbench/tracing.py <trace json written by a --trace 1 run>", file=sys.stderr)
        sys.exit(2)
    spans, doc = load(sys.argv[1])
    print(format_report(spans, overhead_ms=doc.get("tracing_overhead_ms"), missing=doc.get("missing_hooks"), title=sys.argv[1]))
