"""One workload in one process: set-up, timed rounds, checks and metrics.

Imported by run.py after it has put this checkout's ``src`` on the path.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import requests

import checks
import endpoint
import trace
import workloads as W
from surveyaudit import forest, gateway, metrics, runner, synthetic
from surveyaudit.data import SocioProfile, SurveyCase
from surveyaudit.gateway import BackendConfig, RemoteChatBackend, run_batch
from surveyaudit.prompts import AblationMask, PromptVariant, render

WORK = Path(__file__).resolve().parent / "_work"
# A set-up sample repeats set-up for at least SETUP_SAMPLE_S and takes the
# mean.  One set-up takes tens of milliseconds, and on a shared virtual
# machine the CPU's speed can change from one second to the next, so single
# set-ups make a noisy median.  SETUP_SAMPLES come before the first round and
# one more precedes every round.
SETUP_SAMPLE_S = 0.3
SETUP_SAMPLES = 4
# layers with spans inside run_experiment; synthetic is timed at set-up
LAYERS = ("data", "forest", "prompts", "gateway", "metrics", "regression",
          "runner")


class Bench:
    """Set-up, rounds and checks for one workload and seed."""

    def __init__(self, workload: W.Workload, seed: int, workdir: Path):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.endpoint = endpoint.FakeEndpoint(W.FAKE_SERVICE_S)
        # This process runs one workload, so the two patches below stay for
        # its life.  The remote backend builds its session from
        # requests.Session; mock replies are counted at the backend.
        requests.Session = self.endpoint.session
        os.environ["SURVEYAUDIT_API_KEY"] = "perfbench"
        self.mock_calls = 0
        complete = gateway.MockBackend.complete

        def counted(backend, prompt):
            self.mock_calls += 1
            return complete(backend, prompt)

        gateway.MockBackend.complete = counted

    def backend_calls(self) -> int:
        """Replies a backend produced: fake endpoint requests plus mock calls."""
        return self.endpoint.calls + self.mock_calls

    def set_up(self, min_s: float = SETUP_SAMPLE_S) -> float:
        """Mean time of the set-ups made, back to back, until ``min_s`` has
        passed; at least one is made."""
        gc.collect()
        start = time.perf_counter()
        made = 0
        while True:
            self.dataset, self.config_path = W.set_up(self.w, self.seed,
                                                      self.workdir)
            made += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_s:
                return elapsed / made

    def _timed_run(self, cfg, tracer, offline: bool):
        # every pass starts from the same collector state
        gc.collect()
        root = None
        start = time.perf_counter()
        if tracer is not None:
            root = tracer.open("runner.run_experiment")
        try:
            bundle = runner.run_experiment(cfg, offline=offline)
        finally:
            if root is not None:
                tracer.close(root)
        return bundle, time.perf_counter() - start, root

    def round(self, tracer=None) -> dict:
        """The live audit, then the offline re-run of the same config."""
        (self.workdir / "exchanges.jsonl").unlink(missing_ok=True)
        for d in ("live", "replay"):
            shutil.rmtree(self.workdir / d, ignore_errors=True)
        calls = self.backend_calls()
        bundle, audit_s, live_root = self._timed_run(
            runner.load_config(self.config_path), tracer, offline=False)
        live_calls = self.backend_calls() - calls

        cfg = runner.load_config(self.config_path)
        cfg.out_dir = self.workdir / "replay"
        remote = self.endpoint.calls
        _, replay_s, replay_root = self._timed_run(cfg, tracer, offline=True)
        return {
            "audit_s": audit_s, "replay_s": replay_s, "backend_calls": live_calls,
            "replay_remote_calls": self.endpoint.calls - remote,
            "bundle": bundle, "roots": (live_root, replay_root),
        }

    def probe(self) -> tuple[int, int]:
        """Fixed zero-shot prompts on an agree/disagree item, sent through
        the remote backend and parse path.  The inputs do not depend on the
        seed, so the replies, and the parses that fail, are the same in every
        round of every run.  The endpoint calls fall outside the live pass, so
        they are not in ``backend_calls``.  Returns (attempted, failed)."""
        case = SurveyCase("agree_probe", "Public services should get more money.",
                          ("Agree", "Neither", "Disagree"))
        names = [a.name for a in W.ATTRIBUTES]
        cells = list(itertools.product(*(a.categories for a in W.ATTRIBUTES)))
        prompts = [
            render(SocioProfile(f"p{i:03d}", dict(zip(names, cell))), case,
                   PromptVariant.ZERO_SHOT, AblationMask.all())
            for i, cell in enumerate(cells[::3])  # 216 of the 648 cells
        ]
        config = BackendConfig(name="probe", kind="remote", model_id="fake-chat",
                               endpoint=W.ENDPOINT, max_retries=0,
                               parallelism=os.cpu_count() or 1)
        backend = RemoteChatBackend(config, session=self.endpoint)
        preds = run_batch(prompts, {case.question_id: case.options}, backend)
        intended = self.endpoint.intended
        failed = sum(p.parsed != case.options.index(intended[p.raw_text])
                     for p in preds)
        return len(prompts), failed

    def check(self, first: dict) -> tuple[list[str], int]:
        """Independent checks on the first round.  Returns the problems and
        the live predictions whose parse is not the intended option."""
        live, replay = self.workdir / "live", self.workdir / "replay"
        rows = checks.read_rows(self.workdir / "data.csv")
        problems = []
        with (live / "predictions.jsonl").open(encoding="utf-8") as fh:
            n_pred = sum(1 for _ in fh)
        if n_pred != self.w.n_predictions:
            problems.append(f"{n_pred} predictions, expected {self.w.n_predictions}")
        if checks.bundle_digest(live) != checks.bundle_digest(replay):
            problems.append("replayed bundle differs from the live bundle")
        if first["replay_remote_calls"]:
            problems.append(f"replay made {first['replay_remote_calls']} remote calls")
        problems += checks.check_cells(live, rows, W.CASES, W.ATTRIBUTES,
                                       self.dataset, majority=not self.w.remote)
        problems += checks.check_forest_ceiling(live, rows, W.CASES, W.ATTRIBUTES)
        problems += checks.check_regression(
            live, rows, W.CASES, W.ATTRIBUTES, W.REGRESSION,
            backend="remote" if self.w.remote else "mock", variant=self.w.variants[0])
        mismatches = 0
        if self.w.remote:
            mismatches, bad = checks.intended_mismatches(
                live, W.CASES, self.endpoint.intended)
            problems += bad
        return problems, mismatches


@dataclass
class Tally:
    """Counts gathered from the results of traced calls."""

    nodes: list = field(default_factory=list)  # (time, nodes) per forest fit
    texts: set = field(default_factory=set)
    caches: list = field(default_factory=list)

    def forest(self, model) -> None:
        self.nodes.append((time.perf_counter(),
                           sum(len(t.nodes) for t in model.trees)))

    def prompt(self, prompt) -> None:
        self.texts.add(hashlib.blake2b(prompt.text.encode(), digest_size=16).digest())


def instrument(tracer: trace.Tracer, tally: Tally) -> None:
    """Spans around the calls into every module of src/surveyaudit/.

    Each name is patched where the caller looks it up: runner imported most
    of them by name, forest imported compute_report by name.
    """
    tracer.patch(runner, "load_dataset", "data.load_dataset")
    tracer.patch(forest, "baseline_metrics", "forest.baseline_metrics")
    tracer.patch(forest, "fit_in_sample", "forest.fit_in_sample",
                 on_result=tally.forest)
    tracer.patch(forest, "predict", "forest.predict")
    tracer.patch(forest, "compute_report", "metrics.compute_report")
    tracer.patch(metrics, "compute_report", "metrics.compute_report")
    tracer.patch(metrics, "overall_accuracy_equality",
                 "metrics.overall_accuracy_equality")
    tracer.patch(runner, "render_case_prompts", "runner.render_case_prompts")
    tracer.patch(runner, "sample_fewshot", "prompts.sample_fewshot")
    tracer.patch(runner, "render", "prompts.render", on_result=tally.prompt)
    tracer.patch(runner, "run_batch", "gateway.run_batch", adopt=True)
    tracer.patch(gateway, "parse_response", "gateway.parse_response")
    tracer.patch(runner, "ExchangeCache", "gateway.ExchangeCache",
                 on_result=tally.caches.append)
    tracer.patch(gateway.ExchangeCache, "get", "gateway.ExchangeCache.get")
    tracer.patch(gateway.ExchangeCache, "put", "gateway.ExchangeCache.put")
    tracer.patch(gateway.MockBackend, "complete", "gateway.backend_wait")
    tracer.patch(runner, "intersection_accuracy", "runner.intersection_accuracy")
    tracer.patch(runner, "build_design", "regression.build_design")
    tracer.patch(runner, "fit_logit", "regression.fit_logit")
    tracer.patch(runner, "write_bundle", "runner.write_bundle")


def layer_metrics(tracer: trace.Tracer, rnd: dict, tally: Tally,
                  live_dir: Path) -> tuple[dict, list[str]]:
    """Per-layer figures of the live pass of a traced round, plus the cache
    load of its replay pass; and the problems found in the spans."""
    live_root, replay_root = rnd["roots"]
    live, replay = tracer.under(live_root), tracer.under(replay_root)
    # the cache's constructor, get and put merge into one name
    own = trace.self_time(live, key=lambda s: "gateway.cache" if s.name.startswith(
        "gateway.ExchangeCache") else s.name)
    layers = trace.self_time(live, key=lambda s: s.layer)
    replay_layers = trace.self_time(replay, key=lambda s: s.layer)
    count: dict[str, int] = {}
    for s in live:
        count[s.name] = count.get(s.name, 0) + 1
    predictions = [p for c in rnd["bundle"].cells for p in c.predictions]
    pct = statistics.quantiles(sorted(p.latency_ms for p in predictions), n=100,
                               method="inclusive")
    live_cache = tally.caches[0]
    out = {
        "data.load_s": own.get("data.load_dataset", 0.0),
        "forest.fit_s": own.get("forest.fit_in_sample", 0.0),
        "forest.predict_s": own.get("forest.predict", 0.0),
        "forest.predict_calls": count.get("forest.predict", 0),
        "forest.nodes": sum(n for t, n in tally.nodes
                            if live_root.start <= t <= live_root.end),
        "prompts.fewshot_s": own.get("prompts.sample_fewshot", 0.0),
        "prompts.fewshot_calls": count.get("prompts.sample_fewshot", 0),
        "prompts.render_s": own.get("prompts.render", 0.0),
        "prompts.prompts": count.get("prompts.render", 0),
        "prompts.unique_prompt_ratio":
            len(tally.texts) / max(1, count.get("prompts.render", 0)),
        "gateway.dispatch_s": own.get("gateway.run_batch", 0.0),
        "gateway.backend_wait_s": own.get("gateway.backend_wait", 0.0),
        "gateway.backend_calls": count.get("gateway.backend_wait", 0),
        "gateway.cache_hits": live_cache.hits,
        "gateway.cache_misses": live_cache.misses,
        "gateway.cache_s": own.get("gateway.cache", 0.0),
        "gateway.cache_load_s":
            trace.self_time(replay).get("gateway.ExchangeCache", 0.0),
        "gateway.request_p50_ms": pct[49],
        "gateway.request_p99_ms": pct[98],
        "gateway.request_samples": len(predictions),
        "gateway.parse_s": own.get("gateway.parse_response", 0.0),
        "gateway.unparseable": sum(p.parsed is None for p in predictions),
        "metrics.report_s": own.get("metrics.compute_report", 0.0),
        "metrics.equality_s": own.get("metrics.overall_accuracy_equality", 0.0),
        "regression.design_s": own.get("regression.build_design", 0.0),
        "regression.fit_s": own.get("regression.fit_logit", 0.0),
        "regression.iterations": sum(r["fit"].iterations for r in
                                     rnd["bundle"].regressions.values()),
        "runner.write_s": own.get("runner.write_bundle", 0.0),
        "runner.bundle_bytes": checks.bundle_bytes(live_dir),
        "runner.self_s": layers["runner"] - own.get("runner.write_bundle", 0.0),
        "trace.audit_s": rnd["audit_s"],
        "trace.replay_s": rnd["replay_s"],
        "trace.layer_sum_s": sum(layers.values()),
        "trace.spans": len(live) + len(replay),
    }
    problems = []
    missing = set(LAYERS) - set(layers)
    if missing:
        problems.append(f"no spans for layers {sorted(missing)}")
    for name, root, per_layer in (("audit_s", live_root, layers),
                                  ("replay_s", replay_root, replay_layers)):
        total = sum(per_layer.values())
        if total > root.end - root.start + 1e-9:
            problems.append(f"layer self times {total} exceed traced {name}")
    return out, problems


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        return _measure(W.WORKLOADS[name], seed, seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced_round(bench: Bench, tracer: trace.Tracer) -> tuple[dict, list[str]]:
    tracer.spans.clear()
    tally = Tally()
    instrument(tracer, tally)
    bench.endpoint.on_call = lambda s, e: tracer.record("gateway.backend_wait", s, e)
    try:
        rnd = bench.round(tracer)
    finally:
        tracer.unpatch()
        bench.endpoint.on_call = None
    rnd["layer"], problems = layer_metrics(tracer, rnd, tally, bench.workdir / "live")
    return rnd, problems


def _measure(w: W.Workload, seed: int, seconds: float, traced: bool,
             workdir: Path) -> dict:
    bench = Bench(w, seed, workdir)
    setups = [bench.set_up() for _ in range(SETUP_SAMPLES)]
    if traced:
        tracer = trace.Tracer()
        tracer.patch(synthetic, "generate", "synthetic.generate")
        try:
            bench.set_up(min_s=0.0)
        finally:
            tracer.unpatch()
        generate_s = trace.self_time(tracer.spans)["synthetic.generate"]

    plain, traced_rounds, problems = [], [], []
    first = None
    probe_attempted = probe_failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        setups.append(bench.set_up())
        # with tracing, untraced and traced rounds alternate
        if traced and len(plain) > len(traced_rounds):
            rnd, bad = _traced_round(bench, tracer)
            problems += bad
            traced_rounds.append(rnd)
        else:
            rnd = bench.round()
            plain.append(rnd)
        if w.remote:
            attempted, failed = bench.probe()
            probe_attempted += attempted
            probe_failed += failed
        digests = (checks.bundle_digest(workdir / "live"),
                   checks.bundle_digest(workdir / "replay"))
        round_s = time.perf_counter() - started
        if first is None:
            first = digests
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            found, mismatches = bench.check(rnd)
            problems += found
        elif digests != first:
            problems.append("bundle differs between rounds")
        del rnd["bundle"]  # keep the heap the same size from round to round
        # stop when another round like this one would end past the deadline
        if (time.perf_counter() + round_s > deadline
                and (traced_rounds or not traced)):
            break

    if traced:
        spans_path = WORK / f"trace-{w.name}-{seed}.jsonl"
        tracer.dump(spans_path)
        print(f"perfbench: spans of the last traced round in {spans_path}",
              file=sys.stderr)
    rounds = len(plain) + len(traced_rounds)
    audit_s = statistics.median(r["audit_s"] for r in plain)
    if traced:
        values = {}
        for k in traced_rounds[0]["layer"]:
            vals = [r["layer"][k] for r in traced_rounds]
            counted = all(isinstance(v, int) for v in vals)
            values[k] = (statistics.median_low if counted else statistics.median)(vals)
        values["synthetic.generate_s"] = generate_s
        values["trace.untraced_audit_s"] = audit_s
        values["trace.overhead_s"] = values["trace.audit_s"] - audit_s
        metrics_out = {k: {"value": v, "unit": unit(k)}
                       for k, v in sorted(values.items())}
    else:
        metrics_out = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "audit_s": {"value": audit_s, "unit": "s"},
            "predictions_per_s": {"value": w.n_predictions / audit_s, "unit": "1/s"},
            "replay_s": {"value": statistics.median(r["replay_s"] for r in plain),
                         "unit": "s"},
            "backend_calls": {
                "value": statistics.median(r["backend_calls"] for r in plain),
                "unit": "count"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": rounds * w.n_predictions + probe_attempted,
        "failed": rounds * mismatches + probe_failed,
        "metrics": metrics_out,
    }


def unit(name: str) -> str:
    for suffix, u in (("_s", "s"), ("_ms", "ms"), ("_bytes", "bytes"),
                      ("_ratio", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"
