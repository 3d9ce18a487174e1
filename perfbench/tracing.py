"""Layer tracing from outside the program.

The tracer replaces module attributes of ucdis (for example
``ducompm.enumerate_types_in_ellipsoid``) with wrappers that record a span
(name, start, end, parent span, operation) while a timed operation runs, and
restores them afterwards.  The program's source is not touched: calls made
through a module global pick up the wrapper, which is why ``harness``'s own
imported names ``sample_sequence``/``sample_jeffreys`` are wrapped too.

Spans stay in memory and are written once, when the run ends.  A span's self
time is its duration, less the time the host-speed samples took inside it,
minus that of its wrapped children, rescaled by the host-speed factor of the
operation it ran in.  Per-layer time metrics are mean corrected self seconds
per call.

Hooks on a few calls keep references (symbols, payloads, candidate lists);
the work they imply (standalone coder passes, box sizes, hash survivors) runs
in ``drain`` between operations, so it never lands inside a span.
"""

from __future__ import annotations

import functools
import json
import math
import time

import numpy as np

import oracles
from hostspeed import Clock

# (module, attribute, layer name).  Two attributes with one name add up.
WRAPS = (
    ("cli", "cmd_encode", "cli.encode_self"),
    ("cli", "cmd_decode", "cli.decode_self"),
    ("codec", "ac_encode", "codec.ac_encode"),
    ("codec", "ac_decode", "codec.ac_decode"),
    ("codec", "_primed_state", "codec.prime"),
    ("codec", "pack_container", "codec.container"),
    ("codec", "unpack_container", "codec.container"),
    ("ducompm", "hash_length", "ducompm.hash_length"),
    ("ducompm", "build_ellipsoid", "ducompm.build_ellipsoid"),
    ("ducompm", "enumerate_types_in_ellipsoid", "ducompm.enumerate"),
    # decode_ducompm's own time, with the ellipsoid, the enumeration and the
    # unrank taken out, is the hash/width/range filter over the candidates
    # plus parsing the payload.
    ("ducompm", "decode_ducompm", "ducompm.hash_filter"),
    ("ducompm", "type_rank", "ducompm.type_rank"),
    ("ducompm", "type_unrank", "ducompm.type_unrank"),
    ("sources", "sample_sequence", "sources.sample_sequence"),
    ("harness", "sample_sequence", "sources.sample_sequence"),
    ("sources", "sample_jeffreys", "sources.sample_jeffreys"),
    ("harness", "sample_jeffreys", "sources.sample_jeffreys"),
    ("harness", "run_trials", "harness.run_trials"),
    # run_experiment's own time: theory bounds plus aggregation of the trials
    ("harness", "run_experiment", "harness.summarize"),
)

PASSES = ("kt_model", "kt_locate", "bitwriter", "bitreader")


class Tracer:
    def __init__(self, clock: Clock, ucdis):
        self.clock = clock
        self.ucdis = ucdis
        self.spans: list = []
        self.stack: list[int] = []
        self.saved: list = []
        self.passes = Clock()
        self.encodes: list = []     # (k, markov, symbols, stream) per ac_encode
        self.enumerations: list = []  # (ellipsoid, n, k, candidates) per call
        self.decodes: list = []     # (payload, config, candidates, ok) per decode_ducompm
        self.hash_widths: list[int] = []
        self.symbols: list[int] = []
        self.payload_bits: list[int] = []
        self.box_points: list[int] = []
        self.survivors: list[int] = []
        self.failures: list[int] = []
        self.n_candidates: list[int] = []
        self._last_candidates = []

    # --- hooks: keep references only, the work happens in drain() ----------

    def _on_encode(self, args, out):
        self.encodes.append((args[0].k, args[0].markov, args[1], out))

    def _on_enumerate(self, args, out):
        self._last_candidates = out
        self.enumerations.append((args[0], args[1], args[2], len(out)))

    def _on_hash_length(self, args, out):
        self.hash_widths.append(out)

    def _on_decode(self, args, out):
        self.decodes.append((args[0], args[3], self._last_candidates, out.ok))

    HOOKS = {
        "ac_encode": _on_encode,
        "enumerate_types_in_ellipsoid": _on_enumerate,
        "hash_length": _on_hash_length,
        "decode_ducompm": _on_decode,
    }

    def install(self):
        for mod_name, attr, name in WRAPS:
            module = getattr(self.ucdis, mod_name)
            fn = getattr(module, attr)
            hook = self.HOOKS.get(attr)
            self.saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook and functools.partial(hook, self)))

    def uninstall(self):
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()

    def _wrap(self, fn, name, hook):
        spans, stack, clock, now = self.spans, self.stack, self.clock, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not clock.in_op:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            stolen = clock.stolen
            t0 = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = now() - (clock.stolen - stolen)
                stack.pop()
                spans[idx] = (name, t0, t1, parent, len(clock.factors))
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    # --- deferred work, between operations ----------------------------------

    def drain(self):
        codec = self.ucdis.codec
        family = self.ucdis.sources.SourceFamily
        for k, markov, symbols, stream in self.encodes:
            fam = family("markov1" if markov else "memoryless", k)
            self.symbols.append(len(symbols))
            self.payload_bits.append(stream.bit_length)
            self.passes.timed("kt_model", _kt_model_pass, codec.KTCoderModel(fam), symbols)
            targets = _kt_targets(codec.KTCoderModel(fam), symbols)
            self.passes.timed("kt_locate", _kt_locate_pass, codec.KTCoderModel(fam), symbols, targets)
            bits = [stream.bit(i) for i in range(stream.bit_length)]
            self.passes.timed("bitwriter", _writer_pass, codec.BitWriter(), bits)
            self.passes.timed("bitreader", _reader_pass, codec.BitReader(stream), stream.bit_length)
        for e, n, k, count in self.enumerations:
            self.box_points.append(_box_points(e, n, k))
            self.n_candidates.append(count)
        uhash = self.ucdis.ducompm.universal_hash
        for payload, cfg, candidates, ok in self.decodes:
            b = oracles.payload_uint(payload.data, 0, 16)
            if 1 <= b <= 64:
                h = oracles.payload_uint(payload.data, 16, b)
                self.survivors.append(sum(1 for t in candidates if uhash(t, cfg.hash_seed, b) == h))
            self.failures.append(0 if ok else 1)
        self.encodes.clear()
        self.enumerations.clear()
        self.decodes.clear()
        self._last_candidates = []

    # --- results --------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Layer name -> (corrected self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        factors = self.clock.factors
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += (t1 - t0 - child[i]) * factors[op]
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit)."""
        st = self.self_times()
        mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
        m = {}
        for layer in dict.fromkeys(name for _, _, name in WRAPS):
            total, calls = st.get(layer, (0.0, 0))
            m[f"{layer}_s"] = (total / calls if calls else 0.0, "s")
        for p in PASSES:
            m[f"codec.{p}_pass_s"] = (mean(self.passes.corrected.get(p, [])), "s")
        boxes = sum(self.box_points)
        m.update({
            "codec.symbols": (mean(self.symbols), "count"),
            "codec.payload_bits": (mean(self.payload_bits), "count"),
            "ducompm.box_points": (mean(self.box_points), "count"),
            "ducompm.candidates": (mean(self.n_candidates), "count"),
            "ducompm.candidates_per_box_point": (
                sum(self.n_candidates) / boxes if boxes else 0.0, "ratio"),
            "ducompm.hash_bits": (mean(self.hash_widths), "count"),
            "ducompm.hash_survivors": (mean(self.survivors), "count"),
            "ducompm.declared_failures": (mean(self.failures), "1/decode"),
        })
        return m

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "op_factors": self.clock.factors,
            "spans": [[index[n], t0, t1, parent, op] for n, t0, t1, parent, op in self.spans],
        }
        path.write_text(json.dumps(doc))


def _kt_model_pass(model, symbols):
    total, interval, advance = model.total, model.interval, model.advance
    for s in symbols:
        total()
        interval(s)
        advance(s)


def _kt_targets(model, symbols):
    out = []
    for s in symbols:
        out.append(model.interval(s)[0])
        model.advance(s)
    return out


def _kt_locate_pass(model, symbols, targets):
    total, locate, advance = model.total, model.locate, model.advance
    for s, target in zip(symbols, targets):
        total()
        locate(target)
        advance(s)


def _writer_pass(writer, bits):
    write = writer.write_bit
    for b in bits:
        write(b)
    return writer.getvalue()


def _reader_pass(reader, nbits):
    read = reader.read_bit
    for _ in range(nbits):
        read()


def _box_points(e, n: int, k: int) -> int:
    """Lattice points in the ellipsoid's axis-aligned bounding box, the set
    the enumerator scans: per free coordinate, n * (center +- sqrt(q * A^-1_ii))
    clipped to [0, n], with A = r * Fisher."""
    d = k - 1
    a_inv = np.linalg.inv(e.r * e.fisher)
    half = np.sqrt(np.maximum(e.chi2_threshold * np.diag(a_inv), 0.0))
    size = 1
    for i in range(d):
        lo = max(0, math.ceil(n * (float(e.center[i]) - half[i])))
        hi = min(n, math.floor(n * (float(e.center[i]) + half[i])))
        if lo > hi:
            return 0
        size *= hi - lo + 1
    return size
