"""Per-layer metrics from the merged spans of one traced run.

Every ``*_ms`` metric is a mean per call (or per request), so layers along
one request's path add up to its mean round trip.  ``flow.*_s`` metrics are
seconds per flow (one trained design); ``rtl.build_s``, ``opt.optimize_s``
and ``perf.compile_s`` are set-up seconds summed over every design.  A
layer the workload does not exercise reads 0: it recorded no span.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from statistics import fmean
from typing import Dict, Iterable, List, Optional

REQUEST_CHILDREN = ("model.validate", "model.kernel", "model.decode")
GATE_SIM_PARTS = (
    ("ml.quantize_inputs_ms", "ml.quantize_inputs"),
    ("rtl.input_matrix_ms", "rtl.input_matrix"),
    ("perf.pack_ms", "perf.pack"),
    ("perf.kernel_ms", "perf.kernel"),
    ("perf.unpack_ms", "perf.unpack"),
)


def _dur(span: Dict) -> float:
    return span["t1"] - span["t0"]


def _mean_ms(spans: List[Dict]) -> float:
    return 1000.0 * fmean(_dur(s) for s in spans) if spans else 0.0


def _inside(span: Dict, outer: Dict) -> bool:
    return outer["t0"] <= span["t0"] and span["t1"] <= outer["t1"]


def _request_self_ms(owners: List[Dict], children: List[Dict]) -> float:
    """Mean self time of request spans: each minus the validate, kernel and
    decode calls that served it (the last of each kind, same process and
    model, inside the request's interval)."""
    by_key = defaultdict(list)
    for child in sorted(children, key=lambda s: s["t0"]):
        by_key[(child["pid"], child["model"])].append(child)
    starts = {key: [c["t0"] for c in group] for key, group in by_key.items()}
    selves = []
    for owner in owners:
        key = (owner["pid"], owner["model"])
        group = by_key.get(key, [])
        lo = bisect_left(starts.get(key, []), owner["t0"])
        hi = bisect_right(starts.get(key, []), owner["t1"])
        own = {}
        for child in group[lo:hi]:
            if child["t1"] <= owner["t1"]:
                best = own.get(child["name"])
                if best is None or child["t1"] > best["t1"]:
                    own[child["name"]] = child
        selves.append(_dur(owner) - sum(_dur(c) for c in own.values()))
    return 1000.0 * fmean(selves) if selves else 0.0


def _sum_s(spans: Iterable[Dict]) -> float:
    return sum(_dur(s) for s in spans)


def layer_metrics(
    spans: List[Dict],
    client_latencies_s: List[float],
    window: tuple,
    restarts: Optional[int],
) -> Dict[str, float]:
    """Every per-layer metric, from the spans of the timed window ``window``.

    ``client_latencies_s`` are the benchmark's own round trips (serving
    workloads) and ``restarts`` the fleet restarts ``/stats`` reported.
    """
    start, end = window
    named = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)
    timed = {
        name: [s for s in group if start <= s["t0"] and s["t1"] <= end]
        for name, group in named.items()
    }

    def get(name: str) -> List[Dict]:
        return timed.get(name, [])

    out: Dict[str, float] = {}

    # serve.http / serve.server / serve.batching / serve.model / serve.worker
    frontend = get("serve.predict")
    worker_side = get("worker.request")
    children = [s for name in REQUEST_CHILDREN for s in get(name)]
    out["http.wire_ms"] = (
        1000.0 * fmean(client_latencies_s) - _mean_ms(frontend)
        if client_latencies_s and frontend else 0.0
    )
    owners = worker_side or frontend
    out["batcher.wait_ms"] = _request_self_ms(owners, children)
    kernels = get("model.kernel")
    out["batcher.rows_per_call"] = fmean(s["rows"] for s in kernels) if kernels else 0.0
    out["model.validate_ms"] = _mean_ms(get("model.validate"))
    out["model.kernel_ms"] = _mean_ms(kernels)
    out["model.decode_ms"] = _mean_ms(get("model.decode"))
    out["fleet.hop_ms"] = (
        _mean_ms(frontend) - _mean_ms(worker_side) if worker_side else 0.0
    )
    out["fleet.worker_restarts"] = float(restarts or 0)

    # jobs (gate-sim's set-up grid): busy share of the pool, journal and
    # store appends
    pool_s = sum(_dur(s) * s["workers"] for s in named["jobs.run"])
    out["jobs.busy_frac"] = _sum_s(named["jobs.run_flow"]) / pool_s if pool_s else 0.0
    out["jobs.journal_ms"] = _mean_ms(named["jobs.journal"])
    out["jobs.store_ms"] = _mean_ms(named["jobs.store"])

    # core.design_flow / datasets / ml / hw analysis: per flow (serving and
    # gate-sim train in set-up)
    flows = len(named["flow.hw_eval"])
    for metric, name in (
        ("flow.dataset_s", "flow.dataset"),
        ("flow.train_s", "flow.train"),
        ("flow.quantize_s", "flow.quantize"),
        ("flow.hw_eval_s", "flow.hw_eval"),
    ):
        out[metric] = _sum_s(named[name]) / flows if flows else 0.0
    out["flow.cache_store_ms"] = _mean_ms(named["flow.cache_store"])

    # hw.rtl / hw.opt / perf: set-up (before the window) and the hot path
    setup = {
        name: [s for s in group if s["t1"] <= start] for name, group in named.items()
    }
    out["rtl.build_s"] = _sum_s(setup.get("rtl.gate_netlist", []))
    optimize = setup.get("opt.optimize", [])
    out["opt.optimize_s"] = _sum_s(optimize)
    compiles = setup.get("perf.compile", [])
    nested = sum(
        _dur(o) for o in optimize if any(_inside(o, c) for c in compiles)
    )
    out["perf.compile_s"] = _sum_s(compiles) - nested

    calls = get("gatesim.call")
    call_ms = _mean_ms(calls)

    def per_call_ms(name: str) -> float:
        parts = [s for s in get(name) if any(_inside(s, c) for c in calls)]
        return 1000.0 * _sum_s(parts) / len(calls) if calls else 0.0

    for metric, name in GATE_SIM_PARTS:
        out[metric] = per_call_ms(name)
    # SequentialEvaluator.run's self time (unpack_vectors and the cast of the
    # unpacked trace to ints) is unpacking too.
    out["perf.unpack_ms"] += (
        per_call_ms("perf.run") - out["perf.pack_ms"] - out["perf.kernel_ms"]
    )
    covered = sum(out[metric] for metric, _ in GATE_SIM_PARTS)
    out["gatesim.call_ms"] = call_ms
    out["gatesim.covered_frac"] = covered / call_ms if call_ms else 0.0
    return out
