"""Span recording around calls into dqseq's layers, installed from outside.

A traced run replaces the module-level names that dqseq's own callers
resolve (``dqseq.trainer.forward``, ``dqseq.model.matmul``,
``dqseq.checkpoint.pack_codes``, ...) with wrappers that record spans and
counters. Nothing under ``src/`` changes. Spans are held in memory and
written to a file when the run ends.

Requests alternate between traced and untraced, so one process measures
both and the difference in their medians is the tracing overhead. The
wrappers stay installed for the whole run; an untraced request only skips
the recording.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from dqseq import checkpoint, model, quantizer, trainer

_now = time.perf_counter_ns


class Tracer:
    """Spans and per-request counters for one benchmark process.

    A span is ``[id, name, start_ns, end_ns, parent_id, request_id]``; the
    parent of a request's root span is -1. Counters are summed per request,
    except names ending in ``_max``, which keep the largest value seen.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.kinds: dict[int, str] = {}
        self.on = False
        self.request_id = -1
        self.teacher = None  # the frozen teacher, so forwards can be told apart
        self.live_tapes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [len(self.spans), name, _now(), 0,
               self._stack[-1] if self._stack else -1, self.request_id]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = _now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextmanager
    def request(self, kind: str, root: str, traced: bool):
        """One closed-loop request, yielding its id; its root span is ``root``."""
        self.request_id += 1
        self.kinds[self.request_id] = kind
        self.on = traced
        try:
            with self.span(root):
                yield self.request_id
        finally:
            self.on = False

    def add(self, name: str, value: float) -> None:
        if self.on:
            self.counts[self.request_id][name] += value

    def note_max(self, name: str, value: float) -> None:
        if self.on:
            row = self.counts[self.request_id]
            row[name] = max(row[name], value)

    # -- installing the wrappers -------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Replace the names dqseq's callers resolve with recording wrappers."""
        tracer = self
        spans = [
            (trainer, "quantize_model", "quantizer.quantize_model"),
            (trainer, "total_loss", "distiller.total_loss"),
            (trainer, "backward", "tensor.backward"),
            (trainer, "global_grad_norm", "trainer.grad_norm"),
            (trainer.Adam, "update", "trainer.adam_update"),
            (checkpoint, "pack_codes", "quantizer.pack_codes"),
            (checkpoint, "unpack_codes", "quantizer.unpack_codes"),
            (checkpoint, "build_model", "checkpoint.build_model"),
            (quantizer, "quantize_params", "quantizer.quantize_params"),
        ]
        for owner, attr, name in spans:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))

        train_forward = trainer.forward
        student_fwd = self._wrap(train_forward, "model.student_forward")
        teacher_fwd = self._wrap(train_forward, "model.teacher_forward")

        def forward(m, *args, **kwargs):
            fwd = teacher_fwd if m is tracer.teacher else student_fwd
            return fwd(m, *args, **kwargs)

        self._patch(trainer, "forward", forward)

        decode_forward = self._wrap(model.forward, "model.decode_forward")

        def forward_in_decode(m, src_ids, tgt_ids, *args, **kwargs):
            rows, width = np.shape(tgt_ids)
            tracer.add("model.decode_forward_calls", 1)
            tracer.add("model.decode_positions", width)
            tracer.add("model.decode_row_positions", rows * width)
            return decode_forward(m, src_ids, tgt_ids, *args, **kwargs)

        self._patch(model, "forward", forward_in_decode)

        decode_batch = self._wrap(trainer.greedy_decode_batch, "model.decode_batch")

        def greedy_decode_batch(m, src_seqs, bos_id, eos_id, max_len, *args, **kwargs):
            outs = decode_batch(m, src_seqs, bos_id, eos_id, max_len, *args, **kwargs)
            tracer.add("model.decode_batches", 1)
            tracer.add("model.decode_tokens", emitted_tokens(outs, max_len))
            return outs

        self._patch(trainer, "greedy_decode_batch", greedy_decode_batch)

        act = self._wrap(model.quantize_activation, "quantizer.quantize_activation")

        def quantize_activation(x, a_bits):
            tracer.add("quantizer.quantize_activation_calls", 1)
            return act(x, a_bits)

        self._patch(model, "quantize_activation", quantize_activation)

        mm = model.matmul

        def matmul(a, b):
            # forward flops from shapes: 2 * (rows of a) * k * n
            tracer.add("tensor.matmul_flop", 2.0 * a.size * b.shape[-1])
            return mm(a, b)

        self._patch(model, "matmul", matmul)

        base_tape = trainer.Tape

        def tape_freed():
            tracer.live_tapes -= 1

        class CountingTape(base_tape):
            """Counts tapes still alive: the engine frees a tape only when
            the garbage collector breaks its reference cycle."""

            def __init__(self):
                super().__init__()
                tracer.live_tapes += 1
                tracer.note_max("tensor.live_tapes_max", tracer.live_tapes)
                weakref.finalize(self, tape_freed)

            def __exit__(self, *exc):
                tracer.add("tensor.tape_nodes", len(self.nodes))
                return super().__exit__(*exc)

        self._patch(trainer, "Tape", CountingTape)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the spans back --------------------------------------------

    def totals(self, requests: set[int]) -> dict[str, float]:
        """Sums over ``requests`` of inclusive span ms (by name), self ms
        (``<name>.self``) and counters; zero for names never seen."""
        inclusive: dict[str, float] = defaultdict(float)
        self_ms: dict[str, float] = defaultdict(float)
        child_ns: dict[int, int] = defaultdict(int)
        for sid, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for sid, name, start, end, _, req in self.spans:
            if req in requests:
                inclusive[name] += (end - start) / 1e6
                self_ms[name] += (end - start - child_ns[sid]) / 1e6
        out: dict[str, float] = defaultdict(float, inclusive)
        out.update({f"{name}.self": v for name, v in self_ms.items()})
        for req in requests:
            for name, v in self.counts.get(req, {}).items():
                out[name] = max(out[name], v) if name.endswith("_max") else out[name] + v
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "name", "start_ns", "end_ns", "parent", "request"],
                "requests": {str(k): v for k, v in self.kinds.items()},
                "spans": self.spans,
            }, fh)


def emitted_tokens(outs: list[list[int]], cap: int) -> int:
    """Tokens a greedy decode emitted, counting the EOS of every row that
    stopped before the cap (decoders drop EOS from their outputs)."""
    return sum(len(o) + (len(o) < cap) for o in outs)
