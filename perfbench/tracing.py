"""Spans around the public entry points of each layer, recorded from outside.

The traced run calls :func:`install` in the program's process before it
builds anything.  Each wrapped call appends one ``(name, t0, t1, attrs)``
span to the :class:`Recorder`'s in-memory list; the list is written to
``<trace_dir>/spans-<pid>.jsonl`` when the process ends.  Forked children
(fleet workers, job workers) inherit the wrappers, start with an empty list
and write their own file when their entry point returns, so the spans of
every process merge by pid.  Times come from ``time.monotonic`` (one
system-wide clock on Linux), so spans of different processes compare.

Untraced runs never import this module's wrappers: they differ from traced
runs only by them.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional


class Recorder:
    """Per-process in-memory span list, flushed to one file per pid."""

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = Path(trace_dir)
        self.spans: List[tuple] = []
        # A forked child must not re-write its parent's spans as its own.
        os.register_at_fork(after_in_child=self.spans.clear)
        atexit.register(self.flush)

    def add(self, name: str, t0: float, t1: float, attrs: Optional[Dict] = None) -> None:
        self.spans.append((name, t0, t1, attrs or {}))

    def flush(self) -> None:
        """Append this process's spans to its file and forget them."""
        if not self.spans:
            return
        pid = os.getpid()
        lines = [
            json.dumps({"name": n, "pid": pid, "t0": t0, "t1": t1, **a})
            for n, t0, t1, a in self.spans
        ]
        self.spans.clear()
        with open(self.trace_dir / f"spans-{pid}.jsonl", "a", encoding="utf-8") as out:
            out.write("\n".join(lines) + "\n")


def load_spans(trace_dir: str) -> List[Dict]:
    """Every span written under ``trace_dir``, from every process."""
    spans: List[Dict] = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


AttrFn = Callable[[tuple, dict], Dict]


def _wrap(recorder: Recorder, owner, attr: str, name: str, attrs: Optional[AttrFn] = None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        t0 = time.monotonic()
        try:
            return original(*args, **kwargs)
        finally:
            recorder.add(name, t0, time.monotonic(), attrs(args, kwargs) if attrs else None)

    setattr(owner, attr, traced)


def _flush_after(recorder: Recorder, owner, attr: str) -> None:
    """Flush when a forked child's entry point returns (it exits via ``os._exit``)."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def entry(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            recorder.flush()

    setattr(owner, attr, entry)


def _model(args: tuple, kwargs: dict) -> Dict:
    return {"model": args[0].name}


def _model_rows(args: tuple, kwargs: dict) -> Dict:
    return {"model": args[0].name, "rows": int(len(args[1]))}


def _served_name(args: tuple, kwargs: dict) -> Dict:
    return {"model": args[1]}


def install(recorder: Recorder, layers: Iterable[str]) -> None:
    """Wrap the entry points of the named layer groups.

    Groups: ``serve`` (HTTP frontend, fleet worker, served model), ``flow``
    (dataset, training, quantization, hardware evaluation, flow cache),
    ``jobs`` (scheduler, journal, store, job worker) and ``gatesim``
    (netlist build, optimisation, compilation and the simulation hot path).
    """
    layers = set(layers)
    if "serve" in layers:
        from repro.serve import worker
        from repro.serve.model import ServedModel
        from repro.serve.server import ModelServer

        _wrap(recorder, ModelServer, "predict", "serve.predict", _served_name)
        _wrap(recorder, ModelServer, "predict_many", "serve.predict", _served_name)
        _wrap(recorder, ServedModel, "validate_batch", "model.validate", _model)
        _wrap(recorder, ServedModel, "kernel", "model.kernel", _model_rows)
        _wrap(recorder, ServedModel, "decode", "model.decode", _model)

        # A fleet worker's side of one request runs from the receive loop's
        # dispatch (whose clock read arrives as ``start``) to the answer frame
        # sent by the completion callback.
        finish = worker._WorkerRuntime._finish

        @functools.wraps(finish)
        def traced_finish(self, req_id, lane, mode, rows, start, future):
            try:
                return finish(self, req_id, lane, mode, rows, start, future)
            finally:
                recorder.add("worker.request", start, time.monotonic(), {"model": lane.model.name})

        worker._WorkerRuntime._finish = traced_finish
        _flush_after(recorder, worker, "worker_main")

    if "flow" in layers:
        from repro.core import design_flow
        from repro.core.flow_executor import FlowResultCache
        from repro.core.parallel_mlp import ParallelMLPDesign
        from repro.core.parallel_svm import ParallelSVMDesign
        from repro.core.sequential_svm import SequentialSVMDesign
        from repro.ml.mlp import MLPClassifier
        from repro.ml.multiclass import OneVsOneClassifier, OneVsRestClassifier

        _wrap(recorder, design_flow, "prepare_dataset", "flow.dataset")
        for classifier in (OneVsRestClassifier, OneVsOneClassifier, MLPClassifier):
            _wrap(recorder, classifier, "fit", "flow.train")
        for function in (
            "search_lowest_precision",
            "quantize_linear_classifier",
            "quantize_mlp_classifier",
        ):
            _wrap(recorder, design_flow, function, "flow.quantize")
        for design in (SequentialSVMDesign, ParallelSVMDesign, ParallelMLPDesign):
            _wrap(recorder, design, "evaluate", "flow.hw_eval")
        _wrap(recorder, FlowResultCache, "store", "flow.cache_store")

    if "jobs" in layers:
        from repro.jobs import worker as jobs_worker
        from repro.jobs.manifest import JobManifest
        from repro.jobs.scheduler import JobScheduler
        from repro.jobs.store import ResultStore

        _wrap(recorder, JobScheduler, "run", "jobs.run", lambda a, k: {"workers": a[0].workers})
        _wrap(recorder, jobs_worker, "_run_job", "jobs.run_flow")
        _wrap(recorder, JobManifest, "start", "jobs.journal")
        _wrap(recorder, JobManifest, "done", "jobs.journal")
        _wrap(recorder, ResultStore, "append", "jobs.store")
        _flush_after(recorder, jobs_worker, "flow_worker_main")

    if "gatesim" in layers:
        from repro.core.sequential_svm import SequentialSVMDesign
        from repro.hw.opt import pipeline
        from repro.hw.rtl.svm_top import SequentialSVMPorts
        from repro.ml.quantization import QuantizedLinearModel
        from repro.perf import bitsim, engines, seqsim

        _wrap(recorder, SequentialSVMDesign, "simulate_gate_level", "gatesim.call",
              lambda a, k: {"rows": int(len(a[1]))})
        _wrap(recorder, SequentialSVMDesign, "gate_netlist", "rtl.gate_netlist")
        _wrap(recorder, SequentialSVMPorts, "input_matrix", "rtl.input_matrix")
        _wrap(recorder, pipeline, "optimize", "opt.optimize")
        _wrap(recorder, seqsim, "compile_sequential", "perf.compile")
        _wrap(recorder, seqsim.SequentialEvaluator, "__init__", "perf.compile")
        _wrap(recorder, QuantizedLinearModel, "quantize_inputs", "ml.quantize_inputs")
        _wrap(recorder, seqsim, "pack_vectors", "perf.pack")
        _wrap(recorder, seqsim.SequentialEvaluator, "run_packed", "perf.kernel")
        # ``run`` packs, runs the kernel, then unpacks the trace and casts it
        # to ints; its self time is that unpacking.
        _wrap(recorder, seqsim.SequentialEvaluator, "run", "perf.run")
        _wrap(recorder, bitsim, "words_to_ints", "perf.unpack")

        # The codegen engine compiles its per-cycle kernel lazily on first
        # use; only that first (cache-missing) call is compilation.
        kernel_for = engines.CodegenEvaluator._kernel_for

        @functools.wraps(kernel_for)
        def traced_kernel_for(self, slots):
            if slots in self._kernels:
                return kernel_for(self, slots)
            t0 = time.monotonic()
            try:
                return kernel_for(self, slots)
            finally:
                recorder.add("perf.compile", t0, time.monotonic())

        engines.CodegenEvaluator._kernel_for = traced_kernel_for
