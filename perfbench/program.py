"""The program under test, started by ``run.py`` as a fresh child process.

One child per set-up.  It imports the repo, builds what its workload needs
and prints ``READY <json>`` on stdout (the parent times set-up from process
start to that line):

* ``serve`` builds what ``repro-serve`` builds (``ModelRegistry`` ->
  ``ModelServer`` -> ``build_http_server``), then serves until its stdin
  closes and shuts down gracefully;
* ``gate-sim`` trains the Table I grid through the job service
  (``submit_grid`` + ``JobScheduler.run``) and compiles every dataset's
  ``ours`` design; then, unless ``--setup-only``, it runs
  ``simulate_gate_level`` for ``--seconds``, checks the ids against the
  behavioural ``run_batch`` and prints ``RESULT <json>``.

With ``--trace-dir`` the layer wrappers of :mod:`tracing` are installed
before anything is built.  Run it only through ``run.py``, which gives it
a fresh ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from pathlib import Path

#: The served model mix: the proposed design on four datasets.
SERVED_MODELS = ("redwine/ours", "whitewine/ours", "cardio/ours", "dermatology/ours")
#: Rows simulated per design and call on gate-sim.
GATE_SIM_ROWS = 65_536
GATE_SIM_OPT_LEVEL = 2
#: Job-worker pool size of gate-sim's set-up grid.
GRID_WORKERS = 2


def emit(tag: str, doc: dict) -> None:
    """One protocol line; ``t`` is this process's monotonic clock (system-wide)."""
    print(f"{tag} {json.dumps({**doc, 't': time.monotonic()})}", flush=True)


def serve(args) -> None:
    from repro.core.design_flow import fast_config
    from repro.serve import ModelRegistry, ModelServer, build_http_server

    registry = ModelRegistry(config=fast_config(), jobs=1)
    if args.workers == 0:
        registry.preload(list(SERVED_MODELS))
    server = ModelServer(registry, workers=args.workers)
    httpd = None
    try:
        for name in SERVED_MODELS:
            server.open_lane(name)
        httpd = build_http_server(server, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        emit("READY", {"port": httpd.server_address[1]})
        sys.stdin.read()  # the parent closes our stdin to stop us
    finally:
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        server.shutdown(drain=True)


def table1_grid(run_dir: Path) -> dict:
    """``repro-jobs submit --run`` for Table I: a cold 5 x 4 fast-config grid."""
    from repro.core.design_flow import MODEL_KINDS, fast_config
    from repro.datasets import available_datasets
    from repro.jobs.manifest import JobManifest
    from repro.jobs.scheduler import JobScheduler, submit_grid
    from repro.jobs.store import ResultStore

    with JobManifest(run_dir / "manifest.jsonl") as manifest, ResultStore(
        run_dir / "results.jsonl"
    ) as store:
        submit_grid(manifest, available_datasets(), MODEL_KINDS, fast_config())
        t0 = time.monotonic()
        summary = JobScheduler(manifest, store, workers=GRID_WORKERS).run()
        run_s = time.monotonic() - t0
        digest = hashlib.sha256(store.canonical_bytes()).hexdigest()
    return {
        "jobs": len(available_datasets()) * len(MODEL_KINDS), "run_s": run_s,
        "completed": summary.completed, "failed": summary.failed,
        "retries": summary.retries, "digest": digest,
    }


def gate_sim(args) -> None:
    import numpy as np

    from repro.core.design_flow import fast_config
    from repro.core.flow_executor import FlowResultCache
    from repro.datasets import available_datasets
    from repro.perf.seqsim import sequential_evaluator_for

    grid = table1_grid(Path(args.run_dir))
    cache = FlowResultCache()  # the grid's results, under $REPRO_CACHE_DIR
    designs, engines = {}, {}
    for name in available_datasets():
        result = cache.load(name, "ours", fast_config())
        if result is None:
            raise SystemExit(f"the job grid left no result for {name}/ours")
        design = result.design
        netlist, _ = design.gate_netlist()
        # A small call optimises, compiles and loads the kernel up front.
        warm = np.random.default_rng(0).random((64, design.n_features))
        design.simulate_gate_level(warm, opt_level=GATE_SIM_OPT_LEVEL, engine="auto")
        evaluator = sequential_evaluator_for(
            netlist, design.library, opt_level=GATE_SIM_OPT_LEVEL, engine="auto"
        )
        designs[name] = design
        engines[name] = {"engine": evaluator.engine, "gates": len(netlist.gates),
                         "cycles": int(design.n_classifiers)}
    emit("READY", {"grid": grid, "designs": engines})
    if args.setup_only:
        return
    rng = np.random.default_rng(args.seed)
    inputs = {name: rng.random((GATE_SIM_ROWS, d.n_features)) for name, d in designs.items()}
    calls, outputs = [], {name: [] for name in designs}
    start = time.monotonic()
    # Whole rounds over every design keep the design mix fixed per run.
    rounds = 0
    while time.monotonic() - start < args.seconds:
        for name, design in designs.items():
            t0 = time.perf_counter()
            ids = design.simulate_gate_level(
                inputs[name], opt_level=GATE_SIM_OPT_LEVEL, engine="auto"
            )
            calls.append({"design": name, "round": rounds,
                          "s": time.perf_counter() - t0, "rows": len(ids)})
            outputs[name].append(np.asarray(ids, dtype=np.int16))
        rounds += 1
    mismatched = 0
    for name, design in designs.items():
        codes = design.model.quantize_inputs(inputs[name])
        expected = np.asarray(design.simulator.run_batch(codes), dtype=np.int16)
        mismatched += sum(not np.array_equal(ids, expected) for ids in outputs[name])
    emit("RESULT", {"calls": calls, "mismatched_calls": mismatched})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("serve", "gate-sim"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.trace_dir:
        import tracing

        groups = {"serve": ("serve", "flow"), "gate-sim": ("flow", "jobs", "gatesim")}
        tracing.install(tracing.Recorder(args.trace_dir), groups[args.mode])
    {"serve": serve, "gate-sim": gate_sim}[args.mode](args)


if __name__ == "__main__":
    main()
