#!/usr/bin/env python3
"""The repo benchmark: its workloads, measured from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-bulk --seed 1 --seconds 50 --trace 0

``BENCHMARK.json`` lists serve-bulk and gate-sim; serve-single runs by hand.

Each run starts the program as fresh child processes (``program.py``) with
an empty ``REPRO_CACHE_DIR`` under ``.perfbench_runs/``, times set-up
``SETUP_REPEATS`` times, measures one closed-loop window, checks every
output against an oracle and prints, as its last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` splits
the window in two halves, untraced then with the layer wrappers of
``tracing.py`` installed, and reports the per-layer metrics.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from program import SERVED_MODELS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Rows per ``batch`` request on serve-bulk: one full default micro-batch.
BULK_ROWS = 256
#: Seeded rows generated per served model.
SINGLE_POOL = 512
BULK_POOL = 4
REQUEST_TIMEOUT_S = 20.0
READY_TIMEOUT_S = 120.0
#: Whole-run limit: a hung program fails the run instead of stalling it.
RUN_LIMIT_S = 170

WORKLOADS = ("serve-single", "serve-bulk", "gate-sim")


class ProgramError(RuntimeError):
    """The program died, hung or answered something the benchmark cannot read."""


# --------------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------------- #
def _descendants(pid: int) -> List[int]:
    found, stack = [], [pid]
    while stack:
        current = stack.pop()
        found.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    stack.extend(int(c) for c in handle.read().split())
        except OSError:
            continue  # exited between the listing and the read
    return found


def _hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Program:
    """One child process of the program under test, in its own session.

    Tracks its stdout lines, samples the peak RSS of its whole process tree
    and, on :meth:`stop`, reaps the tree: graceful first, then SIGKILL to
    the process group.
    """

    def __init__(self, mode: str, args: List[str], run_dir: Path, trace_dir: Optional[Path]) -> None:
        self.run_dir = run_dir
        run_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
        # The oracles and gate-sim's designs are read back from that cache.
        env.pop("REPRO_NO_CACHE", None)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
        command = [sys.executable, str(BENCH / "program.py"), mode, "--run-dir", str(run_dir), *args]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        self.log = open(run_dir / "program.log", "w")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, text=True, start_new_session=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._hwm: Dict[int, int] = {}
        self._seen: Dict[int, int] = {}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._read, daemon=True),
            threading.Thread(target=self._sample, daemon=True),
        ]
        for thread in self._threads:
            thread.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def _sample(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(0.25):
                return

    def sample(self) -> None:
        for pid in _descendants(self.proc.pid):
            self._hwm[pid] = max(self._hwm.get(pid, 0), _hwm_kib(pid))
            self._seen[pid] = self._seen.get(pid, 0) + 1

    @property
    def peak_mb(self) -> float:
        """Peak RSS (``VmHWM``) of every process of the tree, summed.

        A process counts once seen by two samples: a helper forked for a
        moment (the compiler probe) reads its parent's pages as its own
        until it execs, and would add them twice.
        """
        return sum(kib for pid, kib in self._hwm.items() if self._seen[pid] > 1) / 1024.0

    def expect(self, tag: str, timeout: float) -> Dict:
        """The JSON document of the next ``<tag> {...}`` line."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise ProgramError(f"no {tag} line within {timeout:.0f}s; {self.tail()}")
            if line is None:
                raise ProgramError(
                    f"program exited ({self.proc.wait()}) before {tag}; {self.tail()}"
                )
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])

    def tail(self) -> str:
        text = (self.run_dir / "program.log").read_text(errors="replace")
        return "program log tail:\n" + "\n".join(text.splitlines()[-15:])

    def stop(self, timeout: float = 60.0) -> int:
        """Close stdin (the stop signal), wait, then kill what is left."""
        self.sample()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        self._stop.set()
        _kill_group(self.proc.pid)
        if code is None:
            code = self.proc.wait(timeout=10.0)
        for thread in self._threads:
            thread.join(timeout=10.0)
        self.proc.stdout.close()
        self.log.close()
        return code


def _kill_group(pgid: int) -> None:
    """SIGKILL every process left in a child's session and wait for it."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


LIVE: List[Program] = []


def start(mode: str, args: List[str], run_dir: Path, trace_dir: Optional[Path] = None) -> Program:
    program = Program(mode, args, run_dir, trace_dir)
    LIVE.append(program)
    return program


def finish(program: Program) -> None:
    code = program.stop()
    LIVE.remove(program)
    if code != 0:
        raise ProgramError(f"program exited with {code}; {program.tail()}")


# --------------------------------------------------------------------------- #
# Serving workloads (the benchmark process is the HTTP client)
# --------------------------------------------------------------------------- #
class ServePlan:
    """Seeded request inputs: per model a pool of rows (single) or batches."""

    def __init__(self, seed: int, bulk: bool, models_doc: Dict) -> None:
        import numpy as np

        n_features = {m["name"]: m["n_features"] for m in models_doc["models"]}
        rng = np.random.default_rng(seed)
        self.seed, self.bulk, self.models = seed, bulk, list(SERVED_MODELS)
        self.rows = {}
        for name in self.models:
            n = BULK_POOL * BULK_ROWS if bulk else SINGLE_POOL
            self.rows[name] = np.round(rng.random((n, n_features[name])), 4)
        self.payloads = {
            name: (
                [rows[i * BULK_ROWS:(i + 1) * BULK_ROWS].tolist() for i in range(BULK_POOL)]
                if bulk else rows.tolist()
            )
            for name, rows in self.rows.items()
        }

    def rows_per_request(self) -> int:
        return BULK_ROWS if self.bulk else 1


def _send(client, plan: ServePlan, model: str, index: int) -> Dict:
    payload = plan.payloads[model][index]
    if plan.bulk:
        return client.predict_many(model, payload)
    return client.predict(model, payload)


def _client_loop(url: str, plan: ServePlan, client_index: int, deadline: float, out: List) -> None:
    import numpy as np

    from repro.serve.client import HTTPClient

    # retries=0: a dropped socket or a 503 surfaces as a failed request.
    client = HTTPClient(url, timeout=REQUEST_TIMEOUT_S, retries=0)
    rng = np.random.default_rng([plan.seed, client_index])
    pool = len(plan.payloads[plan.models[0]])
    try:
        while True:
            model = plan.models[int(rng.integers(len(plan.models)))]
            index = int(rng.integers(pool))
            t0 = time.monotonic()
            if t0 >= deadline:
                return
            try:
                answer = _send(client, plan, model, index)
            except Exception as error:  # HTTP error, timeout, reset: counted
                answer = {"error": f"{type(error).__name__}: {error}"}
                client.close()
            out.append((t0, time.monotonic(), model, index, answer))
    finally:
        client.close()


def _serve_setup(run_dir: Path, workers: int, seed: int, bulk: bool, trace_dir=None, keep=False):
    """Start one server, wait until it answers, warm every lane once."""
    from repro.serve.client import HTTPClient

    program = start("serve", ["--workers", str(workers)], run_dir, trace_dir)
    ready = program.expect("READY", READY_TIMEOUT_S)
    url = f"http://127.0.0.1:{ready['port']}"
    with HTTPClient(url, timeout=REQUEST_TIMEOUT_S, retries=0) as client:
        client.wait_ready(timeout_s=READY_TIMEOUT_S)
        plan = ServePlan(seed, bulk, client.models())
        for model in plan.models:
            _send(client, plan, model, 0)
    setup_s = time.monotonic() - program.started
    if not keep:
        finish(program)
        return setup_s, None, None, None
    return setup_s, program, url, plan


def _served_oracle(cache_dir: Path, models: List[str]):
    from repro.core.design_flow import fast_config
    from repro.core.flow_executor import FlowResultCache
    from repro.serve.model import ServedModel
    from repro.serve.registry import parse_model_name

    cache = FlowResultCache(cache_dir)
    oracle = {}
    for name in models:
        result = cache.load(*parse_model_name(name), fast_config())
        if result is None:
            raise ProgramError(f"the server left no cached result for {name}")
        oracle[name] = ServedModel.from_flow_result(result, name=name)
    return oracle


def _serve_window(workload: str, seed: int, seconds: float, run_dir: Path, trace_dir, setups: int) -> Dict:
    from repro.serve.client import HTTPClient

    bulk = workload == "serve-bulk"
    workers = 2 if bulk else 0
    n_clients = max(1, min(2, os.cpu_count() or 1))
    setup_times = []
    for attempt in range(setups):
        last = attempt == setups - 1
        setup_dir = run_dir / f"setup-{attempt}"
        setup_s, program, url, plan = _serve_setup(
            setup_dir, workers, seed, bulk, trace_dir if last else None, keep=last
        )
        setup_times.append(setup_s)

    results: List[List] = [[] for _ in range(n_clients)]
    window_start = time.monotonic()
    deadline = window_start + seconds
    threads = [
        threading.Thread(target=_client_loop, args=(url, plan, i, deadline, results[i]))
        for i in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window_end = time.monotonic()
    restarts = None
    if workers:
        with HTTPClient(url, timeout=REQUEST_TIMEOUT_S, retries=0) as client:
            restarts = sum(w["restarts"] for w in client.stats()["workers"])
    finish(program)

    expected = {}
    for name, served in _served_oracle(setup_dir / "cache", plan.models).items():
        ids = served.predict_ids(plan.rows[name])
        expected[name] = (ids, served.decode(ids).tolist())
    latencies, failed, mismatched, rows_done = [], 0, 0, 0
    requests = [r for per_client in results for r in per_client]
    for t0, t1, model, index, answer in requests:
        if "error" in answer:
            failed += 1
            continue
        ids, labels = expected[model]
        if bulk:
            span = slice(index * BULK_ROWS, (index + 1) * BULK_ROWS)
            ok = (answer.get("class_ids") == ids[span].tolist()
                  and answer.get("predictions") == labels[span])
        else:
            ok = (answer.get("class_id") == int(ids[index])
                  and answer.get("prediction") == labels[index])
        if not ok:
            mismatched += 1
            continue
        latencies.append(t1 - t0)
        rows_done += plan.rows_per_request()
    wall = window_end - window_start
    return {
        "setup_s": setup_times,
        "latencies_s": latencies,
        "items_per_s": rows_done / wall,
        "attempted": len(requests),
        "failed": failed + mismatched,
        "correct": mismatched == 0,
        "peak_rss_mb": program.peak_mb,
        "window": (window_start, window_end),
        "restarts": restarts,
        "detail": {"clients": n_clients, "workers": workers, "errors": failed,
                   "mismatched": mismatched},
    }


# --------------------------------------------------------------------------- #
# gate-sim (the program times its own calls; there is no socket to time)
# --------------------------------------------------------------------------- #
def _gate_sim_window(workload: str, seed: int, seconds: float, run_dir: Path, trace_dir, setups: int) -> Dict:
    args = ["--seed", str(seed), "--seconds", str(seconds)]
    setup_times, grids = [], []
    for attempt in range(setups - 1):
        program = start(workload, args + ["--setup-only"], run_dir / f"setup-{attempt}")
        grids.append(program.expect("READY", READY_TIMEOUT_S)["grid"])
        setup_times.append(time.monotonic() - program.started)
        finish(program)
    program = start(workload, args, run_dir / "timed", trace_dir)
    ready = program.expect("READY", READY_TIMEOUT_S)
    grids.append(ready["grid"])
    setup_times.append(time.monotonic() - program.started)
    result = program.expect("RESULT", READY_TIMEOUT_S + 2 * seconds)
    finish(program)

    # Set-up grids: every job done first time, and one store content.
    reference = grids[-1]["digest"]
    bad_jobs = sum(g["failed"] + g["retries"] for g in grids)
    bad_jobs += sum(g["jobs"] for g in grids if g["digest"] != reference)
    grids_ok = all(g["completed"] == g["jobs"] and g["digest"] == reference for g in grids)
    calls = result["calls"]
    busy = sum(c["s"] for c in calls)
    # Designs differ 4x in size, so the latency sample is whole rounds.
    rounds: Dict[int, float] = {}
    for call in calls:
        rounds[call["round"]] = rounds.get(call["round"], 0.0) + call["s"]
    return {
        "setup_s": setup_times,
        "latencies_s": list(rounds.values()),
        "items_per_s": sum(c["rows"] for c in calls) / busy,
        "attempted": len(calls) + sum(g["jobs"] for g in grids),
        "failed": result["mismatched_calls"] + bad_jobs,
        "correct": result["mismatched_calls"] == 0 and grids_ok,
        "peak_rss_mb": program.peak_mb,
        "window": (ready["t"], result["t"]),
        "restarts": None,
        "detail": {
            "calls": len(calls), "rounds": len(rounds), "designs": ready["designs"],
            "setup_grid_jobs_per_s": [round(g["completed"] / g["run_s"], 3) for g in grids],
        },
    }


def measure(workload: str, seed: int, seconds: float, run_dir: Path, trace_dir=None, setups=SETUP_REPEATS) -> Dict:
    window = _serve_window if workload.startswith("serve") else _gate_sim_window
    return window(workload, seed, seconds, run_dir, trace_dir, setups)


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #
def host_info() -> Dict:
    import numpy

    from repro.perf.engines import available_engines

    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True, timeout=30)
        compiler = cc.stdout.splitlines()[0] if cc.returncode == 0 and cc.stdout else None
    except (OSError, subprocess.TimeoutExpired):
        compiler = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": compiler,
        "engines": list(available_engines()),
    }


def end_to_end(run: Dict) -> Dict[str, float]:
    from benchstats import percentile, tail

    latencies = sorted(run["latencies_s"])
    if not latencies:
        raise ProgramError("no operation completed in the window")
    tail_fraction, tail_s = tail(latencies)
    run["detail"]["tail_percentile"] = 100 * tail_fraction
    run["detail"]["samples"] = len(latencies)
    return {
        "p50_ms": 1000.0 * percentile(latencies, 0.5),
        "tail_ms": 1000.0 * tail_s,
        "items_per_s": run["items_per_s"],
        "setup_s": median(run["setup_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


#: What ``items_per_s`` counts on each workload.
THROUGHPUT_NAMES = {
    "serve-single": "req_per_s",
    "serve-bulk": "rows_per_s",
    "gate-sim": "vectors_per_s",
}


def _out_of_time(signum, frame) -> None:
    raise ProgramError(f"run exceeded {RUN_LIMIT_S}s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not spec_path.is_file():
        print(f"error: no repro sources under {SRC}; run from a repo checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    run_dir = RUNS / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    # The benchmark process loads the oracle models; keep its caches here too.
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "client-cache")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT_S)
    try:
        print("HOST " + json.dumps(host_info()), flush=True)
        if args.trace:
            doc = traced(args, run_dir, spec)
        else:
            run = measure(args.workload, args.seed, args.seconds, run_dir)
            values = end_to_end(run)
            doc = _document(run, values, spec["end_to_end"])
            _print_summary(args.workload, run, values)
    except (ProgramError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for program in list(LIVE):
            try:
                program.stop(timeout=5.0)
            except Exception as error:  # keep reaping the others
                print(f"error stopping pid {program.proc.pid}: {error}", file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass
    print(json.dumps(doc), flush=True)
    return 0


def traced(args, run_dir: Path, spec: Dict) -> Dict:
    """Half the window untraced, then half with the layer wrappers on."""
    from layers import layer_metrics
    from tracing import load_spans

    half = args.seconds / 2.0
    plain = measure(args.workload, args.seed, half, run_dir / "untraced", setups=1)
    trace_dir = run_dir / "trace"
    trace_dir.mkdir(parents=True)
    traced_run = measure(args.workload, args.seed, half, run_dir / "traced", trace_dir, setups=1)
    spans = load_spans(trace_dir)
    client = traced_run["latencies_s"] if args.workload.startswith("serve") else []
    values = layer_metrics(spans, client, traced_run["window"], traced_run["restarts"])
    values["trace.overhead_frac"] = plain["items_per_s"] / traced_run["items_per_s"] - 1.0
    print("LAYERS " + json.dumps({k: round(v, 6) for k, v in values.items()}), flush=True)
    merged = dict(traced_run)
    merged["attempted"] = plain["attempted"] + traced_run["attempted"]
    merged["failed"] = plain["failed"] + traced_run["failed"]
    merged["correct"] = plain["correct"] and traced_run["correct"]
    return _document(merged, values, spec["per_layer"])


def _document(run: Dict, values: Dict[str, float], metrics: List[Dict]) -> Dict:
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise ProgramError(f"metrics not measured: {missing}")
    return {
        "correct": bool(run["correct"]),
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in metrics
        },
    }


def _print_summary(workload: str, run: Dict, values: Dict[str, float]) -> None:
    detail = run["detail"]
    alias = THROUGHPUT_NAMES[workload]
    print(
        f"{workload}: p50_ms={values['p50_ms']:.3f} "
        f"p{detail['tail_percentile']:g}_ms={values['tail_ms']:.3f} "
        f"(n={detail['samples']}) {alias}={values['items_per_s']:.2f} "
        f"setup_s={values['setup_s']:.3f} (runs {', '.join(f'{s:.3f}' for s in run['setup_s'])}) "
        f"peak_rss_mb={values['peak_rss_mb']:.1f} "
        f"attempted={run['attempted']} failed={run['failed']} detail={json.dumps(detail)}",
        flush=True,
    )


if __name__ == "__main__":
    sys.exit(main())
