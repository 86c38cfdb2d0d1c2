"""Span recorder for the traced benchmark run.

The recorder wraps the package's public functions where another layer
looks them up (for example `spinalfade.sim.codebook_levels`, which is how
`sim` reaches `codec`) and keeps one span per call in memory: id, name,
start, end, parent, op, thread, a count measured at the call, and a tag.
Nothing in the package changes, and the wrappers come off when the traced
window ends.

Self time is a span's duration minus the part its children cover.  Where
worker threads run in parallel (sweep-high-snr), each instant is split
evenly between the spans doing their own work at that instant, so the
attributed self times of all layers add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import io
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

import numpy as np

from spinalfade import bounds, cli, decoder, mixing, sim

LAYERS = ("mixing", "codec", "channel", "decoder", "bounds", "sim", "cli")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    count: int
    tag: str


class Recorder:
    """In-memory spans; `op` is the index of the op being run (-1: setup)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, measure=None):
        """`fn` recording a span per call; `measure(args, out)` gives the
        span's (count, tag)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's first span is caused by whatever the main
            # thread has open: the call that handed it the work.
            outer = stack or self._main_stack
            parent = outer[-1] if outer else None
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            count, tag = measure(args, out) if measure else (1, "")
            span = Span(sid, name, start, end, parent, self.op,
                        threading.get_ident(), count, tag)
            with self._lock:
                self.spans.append(span)
            return out

        return traced

    def write(self, path):
        """All spans as gzip'd CSV, times in microseconds from the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,name,start_us,end_us,parent,op,thread,count,tag\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                f.write(f"{s.id},{s.name},{(s.start - t0) * 1e6:.1f},"
                        f"{(s.end - t0) * 1e6:.1f},{parent},{s.op},{s.thread},"
                        f"{s.count},{s.tag}\n")


def _bytes_out(args, out):
    # The benchmark calls main with stdout redirected to a fresh StringIO.
    return (sys.stdout.tell() if isinstance(sys.stdout, io.StringIO) else 0), ""


def _trials(args, out):
    return args[5], args[1].kind            # count_errors(params, model, sigma, seed, start, count, ...)


def _spine_nodes(args, out):
    return sum(level.shape[0] * level.shape[1] for level in out), ""


def _words(args, out):
    return int(np.size(out)), ""


def _gains(args, out):
    return int(np.size(out)), args[0].kind  # gains_from_uniforms(model, u)


def _kernel_evals(args, out):
    model, theta, _, c, _ = args            # kernel(model, theta, sigma, c, n_sym)
    return int(np.size(theta)) * ((1 << c) - 1), model.kind


def _candidates(args, out):
    return int(out.size), ""


def _tie(args, out):
    return int(out.tie), ""


# (owner, attribute, span name, measure).  The owner is the module (or
# class) through which the calling layer looks the function up.
WRAP_POINTS = (
    (cli, "main", "cli.main", _bytes_out),
    (cli, "sweep", "sim.sweep", None),
    (cli, "pe_bound", "bounds.pe_bound", None),
    (sim, "estimate_fer", "sim.estimate_fer", None),
    (sim, "count_errors", "sim.count_errors", _trials),
    (sim, "codebook_levels", "codec.codebook_levels", _spine_nodes),
    (sim, "gains_from_uniforms", "channel.gains_from_uniforms", _gains),
    (sim, "ndtri", "sim.noise", None),
    (sim, "pe_bound", "bounds.pe_bound", None),
    (mixing, "mix64", "mixing.mix64", _words),
    (bounds, "kernel", "bounds.kernel", _kernel_evals),
    (decoder, "ml_decode", "decoder.ml_decode", _tie),
    (decoder, "codebook_levels", "codec.codebook_levels", _spine_nodes),
    (decoder.CandidateTable, "__init__", "decoder.table_build", None),
    (decoder.CandidateTable, "costs", "decoder.costs", _candidates),
)


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap every point in WRAP_POINTS for the duration of the block."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in WRAP_POINTS]
    try:
        for (owner, attr, name, measure), (_, _, fn) in zip(WRAP_POINTS, originals):
            setattr(owner, attr, recorder.wrap(fn, name, measure))
        yield recorder
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def _self_intervals(spans):
    """(span, start, end) for each stretch a span runs with no child open."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    for s in spans:
        cur = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            if lo > cur:
                yield s, cur, min(lo, s.end)
            cur = max(cur, hi)
            if cur >= s.end:
                break
        if cur < s.end:
            yield s, cur, s.end


def attribute(spans):
    """Per span id: (self seconds, wall-attributed self seconds).

    Self seconds are what the span's own thread spent outside its children.
    Attributed seconds split each instant evenly between the spans that
    are doing their own work at that instant, across threads.
    """
    threads = defaultdict(set)
    for s in spans:
        threads[s.op].add(s.thread)
    own = defaultdict(float)
    shared = defaultdict(float)
    concurrent = defaultdict(list)
    for s, lo, hi in _self_intervals(spans):
        own[s.id] += hi - lo
        if len(threads[s.op]) == 1:
            shared[s.id] += hi - lo
        else:
            concurrent[s.op].append((lo, hi, s.id))
    for intervals in concurrent.values():
        events = sorted([(lo, 1, sid) for lo, _, sid in intervals]
                        + [(hi, -1, sid) for _, hi, sid in intervals])
        active = set()
        prev = None
        for t, kind, sid in events:
            if active and t > prev:
                dt = (t - prev) / len(active)
                for a in active:
                    shared[a] += dt
            if kind > 0:
                active.add(sid)
            else:
                active.discard(sid)
            prev = t
    return own, shared


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, wall, ops, workers):
    """Per-layer metrics of one traced window of `ops` ops lasting `wall` s.

    Spans with op -1 come from the traced set-up and feed only
    `decoder.table_build_ms`.
    """
    setup = [s for s in spans if s.op < 0]
    spans = [s for s in spans if s.op >= 0]
    own, shared = attribute(spans)
    inclusive = defaultdict(float)
    for s in spans:         # recorded on exit, so descendants come first
        inclusive[s.id] += shared[s.id]
        if s.parent is not None:
            inclusive[s.parent] += inclusive[s.id]

    dur, n, cnt, self_s, attr_s, incl_s = (defaultdict(float) for _ in range(6))
    by_tag = defaultdict(float)
    for s in spans:
        dur[s.name] += s.end - s.start
        n[s.name] += 1
        cnt[s.name] += s.count
        self_s[s.name] += own[s.id]
        attr_s[s.name] += shared[s.id]
        incl_s[s.name] += inclusive[s.id]
        if s.tag:
            by_tag[s.name, s.tag] += s.count if s.name == "sim.count_errors" else s.end - s.start

    trials = cnt["sim.count_errors"]
    frames = n["decoder.ml_decode"]
    points = n["bounds.pe_bound"]
    us = 1e6
    out = {
        "codec.codebook_levels.us_per_trial": (_div(dur["codec.codebook_levels"], trials) * us, "us"),
        "codec.codebook_levels.share": (_div(incl_s["codec.codebook_levels"], wall), "fraction"),
        "codec.spine_nodes_per_trial": (_div(cnt["codec.codebook_levels"], trials), "count"),
        "mixing.mix64.words_per_trial": (_div(cnt["mixing.mix64"], trials), "count"),
        "mixing.mix64.words_per_frame": (_div(cnt["mixing.mix64"], frames), "count"),
        "mixing.mix64.ns_per_word": (_div(dur["mixing.mix64"], cnt["mixing.mix64"]) * 1e9, "ns"),
        "mixing.mix64.share": (_div(attr_s["mixing.mix64"], wall), "fraction"),
    }
    for kind in ("rayleigh", "nakagami", "rician"):
        out[f"channel.gains_from_uniforms.us_per_trial.{kind}"] = (
            _div(by_tag["channel.gains_from_uniforms", kind],
                 by_tag["sim.count_errors", kind]) * us, "us")
    out.update({
        "sim.noise_us_per_trial": (_div(dur["sim.noise"], trials) * us, "us"),
        "sim.count_errors.us_per_trial": (_div(dur["sim.count_errors"], trials) * us, "us"),
        "sim.self_us_per_trial": (_div(self_s["sim.count_errors"], trials) * us, "us"),
        "sim.worker_busy_frac": (_div(dur["sim.count_errors"], workers * wall), "fraction"),
        "decoder.table_build_ms": (
            _div(sum(s.end - s.start for s in setup if s.name == "decoder.table_build"),
                 sum(1 for s in setup if s.name == "decoder.table_build")) * 1e3, "ms"),
        "decoder.costs.us_per_frame": (_div(dur["decoder.costs"], frames) * us, "us"),
        "decoder.ml_decode.self_us_per_frame": (_div(self_s["decoder.ml_decode"], frames) * us, "us"),
        "decoder.candidates_scored_per_frame": (_div(cnt["decoder.costs"], frames), "count"),
        "decoder.tie_frac": (_div(cnt["decoder.ml_decode"], frames), "fraction"),
        "bounds.pe_bound.us_per_point": (_div(dur["bounds.pe_bound"], points) * us, "us"),
        "bounds.kernel.calls_per_point": (_div(n["bounds.kernel"], points), "count"),
        "bounds.kernel.us_per_call": (_div(dur["bounds.kernel"], n["bounds.kernel"]) * us, "us"),
        "bounds.kernel.evals_per_point": (_div(cnt["bounds.kernel"], points), "count"),
        "cli.self_ms_per_op": (_div(self_s["cli.main"], ops) * 1e3, "ms"),
        "cli.bytes_out_per_op": (_div(cnt["cli.main"], ops), "bytes"),
    })
    layer_total = 0.0
    for layer in LAYERS:
        t = sum(v for name, v in attr_s.items() if name.split(".")[0] == layer)
        layer_total += t
        out[f"layer.{layer}.self_ms_per_op"] = (_div(t, ops) * 1e3, "ms")
    out["trace.layer_coverage"] = (_div(layer_total, wall), "fraction")
    out["trace.spans_per_op"] = (_div(len(spans), ops), "count")
    return out
