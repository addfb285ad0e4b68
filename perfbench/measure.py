"""Set-up, the timed pass loop, metric derivation and the report.

End-to-end metrics come from untraced runs (``--trace 0``), per-layer
metrics from traced runs (``--trace 1``), whose passes run with spans
around every call into a layer and Spark job groups per span.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from spans import Span, Tracer, instrument, self_times
from workloads import Pass, Workload, instrument_targets, make_inputs, warm_up

SETUP_ROUNDS = 3  # setup_s is the median of this many input generations

E2E = {  # name -> unit; reported by every workload
    "wall_s": "s",
    "setup_s": "s",
    "repr_s": "s",
    "quality": "ratio",
    "peak_rss_mb": "MB",
}

# Workload-specific end-to-end values. A metric of the --trace 0 set
# must be non-zero on every workload, so these are printed by the
# untraced run and carried in the per-layer set (0 where not defined).
WORKLOAD_E2E = {
    "match_s": "s",
    "al_s": "s",
    "f1": "ratio",
    "recall_at_10": "ratio",
    "oracle_queries": "count",
}

PER_LAYER = {
    "setup.session_s": "s",
    "setup.warmup_s": "s",
    "jvm.peak_rss_mb": "MB",
    "datasets.generate_s": "s",
    "ir.build_s": "s",
    "ir.lsa.build_s": "s",
    "ir.w2v.build_s": "s",
    "ir.rows": "count",
    "ir.spark_stages": "count",
    "vae.fit_s": "s",
    "vae.fit_rows": "count",
    "vae.steps": "count",
    "encode.collect_s": "s",
    "encode.rows": "count",
    "encode.spark_stages": "count",
    "lsh.topk_s": "s",
    "lsh.pairs": "count",
    "lsh.spark_stages": "count",
    "lsh.spark_tasks": "count",
    "lsh.exact_recall": "ratio",
    "active.bootstrap_s": "s",
    "active.iterations": "count",
    "active.step_s": "s",
    "active.score_s": "s",
    "active.score_pairs": "count",
    "active.retrain_s": "s",
    "active.pool_pairs": "count",
    "active.al_f1": "ratio",
    "kde.pdf_s": "s",
    "kde.pdf_evals": "count",
    "siamese.fits": "count",
    "siamese.fit_s": "s",
    "siamese.steps": "count",
    "siamese.step_ms": "ms",
    "nn.adam.steps": "count",
    "nn.adam.step_s": "s",
    "baselines.deeper.fit_s": "s",
    "baselines.deepmatcher.fit_s": "s",
    "baselines.ditto.fit_s": "s",
    "metrics.eval_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "determinism.runs": "count",
    "determinism.distinct_outputs": "count",
    **WORKLOAD_E2E,
}

# The traced pass fails its check when more of wall_s than this is spent
# outside every layer span (benchmark glue between the calls).
MAX_UNATTRIBUTED = 0.05


@dataclass
class PassResult:
    wall_s: float
    values: dict
    failures: list
    fingerprint: dict
    spans: list


def run_pass(spark, w: Workload, inputs, seed: int, traced: bool, run_id: str) -> PassResult:
    tracer = Tracer(run_id, spark.sparkContext if traced else None)
    p = Pass(tracer, inputs, seed)
    patches = instrument(tracer, instrument_targets()) if traced else nullcontext()
    with tracer.span("pass", workload=w.name) as root:
        try:
            with patches:
                w.run(p)
        except Exception:  # a pass that raises counts as failed; keep going
            traceback.print_exc(file=sys.stderr)
            p.failures.append("raised " + traceback.format_exc(limit=1).strip().splitlines()[-1])
    tracer.spark_counts()
    excluded = sum(s.duration for s in tracer.spans if s.parent == root.id and s.name.startswith("bench."))
    wall = root.duration - excluded
    if traced and not p.failures:
        unattributed = self_times(tracer.spans)[root.id] / wall
        p.values["trace.unattributed_frac"] = unattributed
        p.values["trace.overhead_frac"] = tracer.overhead_s / (wall - tracer.overhead_s)
        p.check(unattributed <= MAX_UNATTRIBUTED,
                f"{unattributed:.1%} of the traced pass is outside layer spans")
    return PassResult(wall, p.values, p.failures, p.fingerprint, tracer.spans)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (0 where a layer is unused)."""
    by_id = {s.id: s for s in spans}

    def named(name: str, under: str | None = None) -> list[Span]:
        out = []
        for s in spans:
            if s.name != name:
                continue
            if under is not None:
                a = by_id.get(s.parent)
                while a is not None and a.name != under:
                    a = by_id.get(a.parent)
                if a is None:
                    continue
            out.append(s)
        return out

    def dur(ss: list[Span]) -> float:
        return sum(s.duration for s in ss)

    def count(ss: list[Span], key: str) -> float:
        return float(sum(s.counts.get(key, 0) for s in ss))

    ir = [s for s in spans if s.name.startswith("ir.") and s.name.endswith(".build")]
    learn = named("pipeline.learn_representations")
    encode = named("pipeline.domain_tensors")
    topk = named("lsh.topk_pairs")
    steps = named("active.step")
    score = named("active.predict_pairs", under="active.step")
    boot = named("active.bootstrap")
    fits = named("siamese.fit")
    adam = named("nn.adam.step")
    siamese_steps = count(fits, "steps")
    m = {
        "ir.build_s": dur(ir),
        "ir.lsa.build_s": dur(named("ir.lsa.build")),
        "ir.w2v.build_s": dur(named("ir.w2v.build")),
        "ir.rows": count(ir, "rows"),
        "ir.spark_stages": count(learn, "spark_stages"),
        "vae.fit_s": dur(named("vae.fit")),
        "vae.fit_rows": count(named("vae.fit"), "rows"),
        "vae.steps": count(named("vae.fit"), "steps"),
        "encode.collect_s": dur(encode),
        "encode.rows": count(encode, "rows"),
        "encode.spark_stages": count(encode, "spark_stages"),
        "lsh.topk_s": dur(topk),
        "lsh.pairs": count(topk, "pairs"),
        "lsh.spark_stages": count(topk, "spark_stages"),
        "lsh.spark_tasks": count(topk, "spark_tasks"),
        "lsh.exact_recall": statistics.mean(s.counts["exact_recall"] for s in topk) if topk else 0.0,
        "active.bootstrap_s": dur(boot),
        "active.iterations": float(len(steps)),
        "active.step_s": statistics.median(s.duration for s in steps) if steps else 0.0,
        "active.score_s": dur(score),
        "active.score_pairs": count(score, "pairs"),
        "active.retrain_s": dur(named("active.train_matcher", under="active.step")),
        "active.pool_pairs": count(boot, "pool_pairs"),
        "kde.pdf_s": dur(named("kde.pdf")),
        "kde.pdf_evals": count(named("kde.pdf"), "evals"),
        "siamese.fits": float(len(fits)),
        "siamese.fit_s": dur(fits),
        "siamese.steps": siamese_steps,
        "siamese.step_ms": 1000.0 * dur(fits) / siamese_steps if siamese_steps else 0.0,
        "nn.adam.steps": float(len(adam)),
        "nn.adam.step_s": dur(adam),
        "metrics.eval_s": dur([s for s in spans if s.name.startswith("metrics.")]),
    }
    for name in ("deeper", "deepmatcher", "ditto"):
        m[f"baselines.{name}.fit_s"] = dur(named(f"baselines.{name}.fit"))
    return m


def _median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def run_workload(spark, w: Workload, seed: int, seconds: float, traced: bool,
                 session_s: float, log: Path) -> dict:
    """Set up, run timed passes for ``seconds`` and aggregate metrics.

    At least one pass runs; another starts only while the last pass's
    duration still fits before the deadline.
    """
    setup_s, generate_s = [], []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        inputs = make_inputs(spark, w, seed)
        setup_s.append(time.perf_counter() - t0)
        generate_s.append(inputs.generate_s)
    t0 = time.perf_counter()
    warm_up(spark, w, seed)
    warmup_s = time.perf_counter() - t0

    run_id = f"{w.name}-{seed}-{time.time_ns()}"
    passes: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(spark, w, inputs, seed, traced, run_id))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break

    ok = [r for r in passes if not r.failures]
    e2e = {
        "wall_s": _median(r.wall_s for r in ok),
        "setup_s": _median(setup_s),
        "repr_s": _median(r.values["repr_s"] for r in ok),
        "quality": _median(r.values["quality"] for r in ok),
    }
    extra = {k: _median(r.values[k] for r in ok) for k in WORKLOAD_E2E if ok and k in ok[0].values}
    runs = _log_fingerprints(log, w.name, seed, [r.fingerprint for r in ok])
    layer = {}
    if traced:
        per_pass = [layer_metrics(r.spans) for r in ok]
        layer = {k: _median(m[k] for m in per_pass) for k in per_pass[0]} if per_pass else {}
        for k in ("active.al_f1", "trace.unattributed_frac", "trace.overhead_frac"):
            layer[k] = _median(r.values.get(k, 0.0) for r in ok)
        layer.update({"setup.session_s": session_s, "setup.warmup_s": warmup_s,
                      "datasets.generate_s": _median(generate_s)})
        layer.update({k: extra.get(k, 0.0) for k in WORKLOAD_E2E})
        layer["determinism.runs"] = float(len(runs))
        layer["determinism.distinct_outputs"] = float(len(set(runs)))
    return {
        "passes": passes,
        "e2e": e2e,
        "extra": extra,
        "layer": layer,
        "session_s": session_s,
        "warmup_s": warmup_s,
    }


def _log_fingerprints(log: Path, workload: str, seed: int, fps: list[dict]) -> list[str]:
    """Append this run's pass fingerprints to the checkout's log and
    return every fingerprint logged for this workload and seed."""
    mine = [json.dumps(fp, sort_keys=True) for fp in fps]
    with log.open("a") as f:
        for fp in mine:
            f.write(json.dumps({"workload": workload, "seed": seed, "fingerprint": fp}) + "\n")
    same = []
    for line in log.read_text().splitlines():
        rec = json.loads(line)
        if rec["workload"] == workload and rec["seed"] == seed:
            same.append(rec["fingerprint"])
    return same


def report(res: dict, workload: str, seed: int, traced: bool) -> None:
    """Print the human-readable report, then the result as the last line."""
    passes = res["passes"]
    failed = sum(1 for r in passes if r.failures)
    walls = [r.wall_s for r in passes if not r.failures]
    print(f"# workload={workload} seed={seed} trace={int(traced)} passes={len(passes)} failed={failed}")
    print(f"# session start {res['session_s']:.2f} s, warm-up {res['warmup_s']:.2f} s (once per process)")
    if walls:
        # A tail percentile needs ten samples beyond it: take it across runs.
        print(f"# wall_s: median {statistics.median(walls):.3f} s, max {max(walls):.3f} s, n={len(walls)}")
    for k, v in res["e2e"].items():
        print(f"{k:>16} {v:12.4f} {E2E[k]}")
    for k, v in res["extra"].items():
        print(f"{k:>16} {v:12.4f} {WORKLOAD_E2E[k]}")
    print(f"{'failed_frac':>16} {failed / max(1, len(passes)):12.4f} ratio")
    for r in passes:
        print("# fingerprint " + json.dumps(r.fingerprint, sort_keys=True))
        for f in r.failures:
            print(f"# check failed: {f}")
    if traced:
        for k, unit in PER_LAYER.items():
            print(f"# {k:>30} {res['layer'].get(k, 0.0):14.4f} {unit}")
    names = PER_LAYER if traced else E2E
    values = res["layer"] if traced else res["e2e"]
    metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in names.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }))
