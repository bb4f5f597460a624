"""Running workloads: the timed loop, the traced run, and their reports.

Imported by run.py once the checkout's library is on the import path.
"""

import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import benchstats
import corpus
import metrics as registry
import spans
from checkout import OUT, ROOT, fresh_import_s, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
END_TO_END = {"rate_geomean_ops_s": "ops/s", "latency_p50_ms": "ms", "latency_p95_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


# -- one workload in this process ----------------------------------------------

REFERENCE_EVERY_S = 0.05  # timed work between two machine-speed samples
MIN_OPS = 200  # so that at least ten samples lie beyond the p95


def run_pass(wl, seed, speed, budget_s=None, count=None, tracer=None):
    """Run instances 0, 1, ... of the workload until their ops have taken
    budget_s seconds of real time and number at least MIN_OPS, or for
    `count` instances.

    Each op is timed alone; an instance's ops run back to back and the
    wall time of that stretch is the timed phase.  Generating inputs,
    checking answers and sampling the machine speed happen outside it.
    Times are returned scaled to the nominal machine speed.  With a tracer,
    spans are recorded during the ops and the valuation sweep follows each
    instance.
    """
    from padicgeom import scalars
    res = {"latencies": [], "op_kinds": [], "kinds": Counter(), "kind_time": Counter(),
           "keys": [], "errors": [], "attempted": 0, "failed": 0, "wall": 0.0,
           "raw_wall": 0.0}
    since_sample = REFERENCE_EVERY_S
    i = 0
    while (count is None or i < count) and (
            budget_s is None or res["raw_wall"] < budget_s or len(res["latencies"]) < MIN_OPS):
        inst = wl.Instance(seed, i)
        res["keys"].append(inst.key())
        ops = inst.ops()
        if since_sample >= REFERENCE_EVERY_S:
            speed.sample()
            since_sample = 0.0
        scale = speed.factor()
        outputs, raised = [], {}
        if tracer:
            tracer.active, tracer.scale = True, scale
        t0 = time.perf_counter()
        for j, (kind, thunk) in enumerate(ops):
            start = time.perf_counter()
            try:
                out = thunk()
            except Exception as exc:  # a raising op is a failed op, not a crash
                out = None
                raised[j] = f"{type(exc).__name__}: {exc}"
            latency = (time.perf_counter() - start) * scale
            outputs.append(out)
            res["latencies"].append(latency)
            res["op_kinds"].append(kind)
            res["kinds"][kind] += 1
            res["kind_time"][kind] += latency
        raw = time.perf_counter() - t0
        res["raw_wall"] += raw
        res["wall"] += raw * scale
        since_sample += raw
        if tracer:
            for c, p in inst.scalars(outputs):
                tracer.call("scalars.valuation", scalars.valuation, c, p)
                tracer.maximum("scalars.valuation.bits_max", spans.coeff_bits([c]))
            if hasattr(inst, "traced_extra"):
                inst.traced_extra(tracer, outputs)
            tracer.active = False
        bad = dict(inst.check(outputs))
        bad.update(raised)
        res["attempted"] += len(ops)
        res["failed"] += len(bad)
        res["errors"] += [f"{wl.NAME}[{i}].{ops[j][0]}: {msg}" for j, msg in sorted(bad.items())]
        i += 1
    res["instances"] = i
    return res


def shares(counter):
    total = sum(counter.values())
    return {k: benchstats.ratio(v, total) for k, v in sorted(counter.items())}


def e2e_metrics(wl, seed, seconds):
    speed = benchstats.Speed()
    setup = fresh_import_s("padicgeom", SETUP_SAMPLES)
    warm = run_pass(wl, f"warmup-{seed}", speed, count=2)
    res = run_pass(wl, seed, speed, budget_s=seconds)
    lat = benchstats.latency_summary(res["latencies"])
    who = resource.RUSAGE_CHILDREN if wl.NAME == "cli" else resource.RUSAGE_SELF
    values = {
        "rate_geomean_ops_s": 1 / lat["geomean_s"],
        "latency_p50_ms": lat["p50_ms"],
        "latency_p95_ms": lat["p95_ms"],
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    tail_q = lat["tail_q"]
    detail = {
        "failed_ratio": benchstats.ratio(res["failed"], res["attempted"]),
        "ops": lat["n"], "p95_beyond": lat["p95_beyond"], "tail_percentile": tail_q,
        "tail_ms": benchstats.percentile(res["latencies"], tail_q) * 1e3 if tail_q else None,
        "instances": res["instances"], "raw_timed_wall_s": res["raw_wall"],
        "speed_factor_median": statistics.median(
            benchstats.REFERENCE_NOMINAL_S / x for x in speed.samples),
        "throughput_ops_s": lat["n"] / res["wall"],
        "raw_throughput_ops_s": lat["n"] / res["raw_wall"],
        "op_shares": shares(res["kinds"]), "time_shares": shares(res["kind_time"]),
        "warmup_failed": warm["failed"],
    }
    return metrics, res, detail


def layer_metrics(wl, seed):
    """The fixed corpus untraced, then traced: per-layer metrics."""
    speed = benchstats.Speed()
    run_pass(wl, f"warmup-{seed}", speed, count=1)
    plain = run_pass(wl, seed, speed, count=wl.CORPUS_SIZE)
    tracer = spans.Tracer()
    inst = spans.Instrumentation(tracer)
    registry.instrument_common(inst)
    wl.instrument(inst, wl)
    try:
        traced = run_pass(wl, seed, speed, count=wl.CORPUS_SIZE, tracer=tracer)
    finally:
        inst.remove()
    values = registry.collect(tracer)
    values["trace.overhead_s"] = traced["wall"] - plain["wall"]
    if wl.NAME == "cli":
        values.update(wl.layer_latencies(plain))
        values["cli.import_s"] = fresh_import_s("padicgeom.cli", SETUP_SAMPLES)
    metrics = {name: (values.get(name, 0), unit) for name, unit in registry.PER_LAYER}
    detail = {
        "corpus_digest": corpus.digest(plain["keys"]),
        "corpus_instances": plain["instances"],
        "untraced_wall_s": plain["wall"], "traced_wall_s": traced["wall"],
        "failed_ratio": benchstats.ratio(plain["failed"] + traced["failed"],
                                         plain["attempted"] + traced["attempted"]),
        "op_shares": shares(plain["kinds"]), "time_shares": shares(plain["kind_time"]),
    }
    res = {"attempted": plain["attempted"] + traced["attempted"],
           "failed": plain["failed"] + traced["failed"],
           "errors": plain["errors"] + traced["errors"]}
    return metrics, res, detail


def run_one(name, seed, seconds, trace):
    pin_to_one_cpu()
    wl = importlib.import_module("wl_" + name)
    if trace:
        metrics, res, detail = layer_metrics(wl, seed)
    else:
        metrics, res, detail = e2e_metrics(wl, seed, seconds)
    for msg in res["errors"][:20]:
        print(f"FAILED {msg}")
    for key, (value, unit) in metrics.items():
        print(f"{name:7s} {key:48s} {value:16.6f} {unit}")
    # reported but not gated: failures are in the result's own fields, and
    # ops/wall swings with the heavy tail (see perfbench/README.md)
    print(f"{name:7s} {'failed_ratio':48s} {detail['failed_ratio']:16.6f} ratio")
    if not trace:
        print(f"{name:7s} {'throughput_ops_s':48s} {detail['throughput_ops_s']:16.6f} ops/s")
        print(f"{name:7s} {'ops':48s} {detail['ops']:16d} count")
    print("DETAIL " + json.dumps({"workload": name, "seed": seed, "trace": trace, **detail}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


# -- several workloads, one child process each -------------------------------------


def child(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} (trace {trace}) exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    lines = done.stdout.strip().splitlines()
    detail = next(json.loads(l[len("DETAIL "):]) for l in lines if l.startswith("DETAIL "))
    return json.loads(lines[-1]), detail


def run_all(workloads, seed, seconds):
    report = {}
    for name in workloads:
        e2e, e2e_detail = child(name, seed, seconds, 0)
        layers, layer_detail = child(name, seed, seconds, 1)
        report[name] = {"end_to_end": e2e, "end_to_end_detail": e2e_detail,
                        "per_layer": layers, "per_layer_detail": layer_detail}
        print(f"== {name}: correct={e2e['correct'] and layers['correct']} "
              f"attempted={e2e['attempted']} failed={e2e['failed']} "
              f"failed_ratio={e2e_detail['failed_ratio']:.4f} ops={e2e_detail['ops']} "
              f"p95_beyond={e2e_detail['p95_beyond']}")
        for key, m in e2e["metrics"].items():
            print(f"   {key:44s} {m['value']:14.4f} {m['unit']}")
        print(f"   op shares: {json.dumps(e2e_detail['op_shares'])}")
        print(f"   corpus digest: {layer_detail['corpus_digest']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-seed{seed}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"per-layer metrics written to {path.relative_to(ROOT)}")
    attempted = sum(r["end_to_end"]["attempted"] for r in report.values())
    failed = sum(r["end_to_end"]["failed"] + r["per_layer"]["failed"] for r in report.values())
    metrics = {f"{name}.{k}": m for name, r in report.items()
               for k, m in r["end_to_end"]["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def selfcheck(workloads, seed, seconds):
    """Two traced runs of the same seed: digests and counters must agree."""
    bad = 0
    for name in workloads:
        (a, da), (b, db) = child(name, seed, seconds, 1), child(name, seed, seconds, 1)
        diffs = [k for k in registry.counter_names()
                 if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        if da["corpus_digest"] != db["corpus_digest"]:
            diffs.append("corpus_digest")
        print(f"{name}: digest {da['corpus_digest'][:16]} "
              + ("counters identical" if not diffs else f"DIFFER: {', '.join(diffs)}"))
        bad += bool(diffs)
    return 1 if bad else 0
