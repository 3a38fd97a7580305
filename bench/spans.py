"""Outside-in tracing of panelroute for the benchmark's traced run.

The tracer replaces chosen public functions and methods of every panelroute
module with timing wrappers, at every name they are bound to (for example both
`panelroute.cli.featurize_rows` and `panelroute.features.featurize_rows`), and
wraps `scipy.optimize.minimize` to count solves. Nothing in the program
changes. A span records its name, start, end, parent span, the stage it ran in
and, for route requests, the request id. Spans stay in memory until the run
ends; self time is a span's duration minus the time its child spans cover.
"""

import functools
import json
import os
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Layer boundaries that are traced, per module. Tiny helpers called per token
# (render_token, episode_from_dict, ...) are left out: their cost stays in the
# self time of the traced function that calls them.
TRACED = {
    "cohort": ["generate_cohort", "ingest", "proportional_sample", "load_grammars"],
    "events": ["read_episodes_jsonl", "write_episodes_jsonl", "tokenize_episode",
               "build_vocabulary", "Vocabulary.load", "Vocabulary.save"],
    "features": ["expand_prefixes", "expand_cohort", "tfidf_fit", "TfidfModel.transform",
                 "svd_fit", "featurize_rows"],
    "router": ["split", "fit_head", "platt_fit", "RouterModel.predict_raw",
               "RouterModel.predict_proba", "RouterModel.save", "RouterModel.load"],
    "policy": ["route", "tune_thresholds", "arbitrate", "write_frontier_csv", "AuditLog.append"],
    "specialist": ["train", "perplexity", "SpecialistModel.forward", "SpecialistModel.backward",
                   "SpecialistModel.loss_and_grads", "SpecialistModel.eval_loss",
                   "SpecialistModel.suggest", "SpecialistModel.save", "SpecialistModel.load",
                   "AdamW.step"],
    "serial": ["save_bundle", "load_bundle", "sha256_file", "write_json"],
    "pipeline": ["prepare_router_datasets", "train_router", "evaluate", "prob_rows_for"],
}

BUILD_STAGES = ("synth", "tokenize", "featurize", "train-router", "tune",
                "train-specialist", "eval", "report")

# span tuple fields
SID, PARENT, REQUEST, STAGE, NAME, START, END, SELF = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.stage = None
        self.request = None
        self._stack = []  # [sid, child_time, parent, name, start]
        self._next = 0
        self._undo = []
        self.solving = {}  # span name -> ids of its spans that ran at least one solve

    # --- spans -------------------------------------------------------------

    def _enter(self, name):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, 0.0, parent, name, time.perf_counter()])

    def _exit(self):
        end = time.perf_counter()
        sid, child, parent, name, start = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append((sid, parent, self.request, self.stage, name, start, end,
                           end - start - child))

    @contextmanager
    def span(self, name, stage, request=None):
        """A root span opened by the benchmark around one `cli.run` call."""
        self.stage, self.request = stage, request
        self._enter(name)
        try:
            yield
        finally:
            self._exit()
            self.stage = self.request = None

    def count(self, key, n=1):
        self.counts[(self.stage, key)] += n

    # --- installation ------------------------------------------------------

    def _wrap(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def _rebind(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "panelroute" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        import importlib

        for short, names in TRACED.items():
            module = importlib.import_module(f"panelroute.{short}")
            for qual in names:
                span_name = f"{short}.{qual}"
                after = AFTER.get(span_name)
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(raw.__func__, span_name, after)))
                    else:
                        setattr(cls, meth, self._wrap(raw, span_name, after))
                    self._undo.append((cls, meth, raw))
                else:
                    fn = getattr(module, qual)
                    self._rebind(fn, self._wrap(fn, span_name, after))

        from scipy import optimize

        minimize = optimize.minimize
        tracer = self

        @functools.wraps(minimize)
        def counted_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            tracer.count("router.lbfgs_solves")
            if tracer._stack:
                top = tracer._stack[-1]
                tracer.solving.setdefault(top[3], set()).add(top[0])
                tracer.count(f"router.solves_in:{top[3]}")
            tracer.count("router.lbfgs_iters", int(res.nit))
            tracer.count("router.lbfgs_unconverged", int(not res.success))
            return res

        optimize.minimize = counted_minimize
        self._undo.append((optimize, "minimize", minimize))

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["sid", "parent", "request", "stage", "name", "start", "end",
                                 "self"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# --- counts taken at the boundaries ------------------------------------------

def _after_generate(tr, args, episodes):
    tr.count("cohort.events", sum(len(ep.events) for ep in episodes))


def _after_expand_cohort(tr, args, rows):
    tr.count("features.prefix_rows", len(rows))


def _after_tfidf_fit(tr, args, model):
    tr.count("features.terms", model.n_terms)


def _after_loss_and_grads(tr, args, result):
    targets = args[2]
    tr.count("specialist.train_tokens", int((targets != 0).sum()))
    tr.count("specialist.padded_positions", int(targets.size))


def _after_backward(tr, args, result):
    grads, a_grads = result
    tr.count("specialist.grad_elements_returned",
             sum(g.size for g in grads.values()) + sum(a.size + b.size for a, b in a_grads.values()))


def _after_adamw_step(tr, args, result):
    tr.count("specialist.grad_elements_consumed", sum(g.size for g in args[2].values()))


def _after_suggest(tr, args, result):
    tr.count("specialist.suggest_rows", len(args[1]))


def _after_save_bundle(tr, args, result):
    tr.count("serial.bytes_written", os.path.getsize(args[0]))


def _after_load_bundle(tr, args, result):
    tr.count("serial.bytes_read", os.path.getsize(args[0]))


AFTER = {
    "cohort.generate_cohort": _after_generate,
    "features.expand_cohort": _after_expand_cohort,
    "features.tfidf_fit": _after_tfidf_fit,
    "specialist.SpecialistModel.loss_and_grads": _after_loss_and_grads,
    "specialist.SpecialistModel.backward": _after_backward,
    "specialist.AdamW.step": _after_adamw_step,
    "specialist.SpecialistModel.suggest": _after_suggest,
    "serial.save_bundle": _after_save_bundle,
    "serial.load_bundle": _after_load_bundle,
}


# --- per-layer metrics -------------------------------------------------------

# name -> (unit, better, what it is). Build metrics cover every stage but route;
# request metrics are medians over the timed warm requests.
LAYER_METRICS = {
    "cli.synth_s": ("s", "lower", "synth stage, inclusive"),
    "cli.tokenize_s": ("s", "lower", "tokenize stage, inclusive"),
    "cli.featurize_s": ("s", "lower", "featurize stage, inclusive"),
    "cli.train_router_s": ("s", "lower", "train-router stage, inclusive"),
    "cli.tune_s": ("s", "lower", "tune stage, inclusive"),
    "cli.eval_s": ("s", "lower", "eval stage, inclusive"),
    "cli.train_specialist_s": ("s", "lower", "five train-specialist stages, inclusive"),
    "cli.route_other_ms": ("ms", "lower", "self time of a route request: parsing, config, "
                                          "thresholds, JSON output, timings.json"),
    "cohort.generate_s": ("s", "lower", "generate_cohort self time"),
    "cohort.events": ("count", "lower", "events generated"),
    "events.read_jsonl_s": ("s", "lower", "read_episodes_jsonl self time"),
    "events.read_jsonl_calls": ("count", "lower", "read_episodes_jsonl calls"),
    "events.tokenize_s": ("s", "lower", "tokenize_episode self time"),
    "events.tokenize_calls": ("count", "lower", "tokenize_episode calls"),
    "features.expand_s": ("s", "lower", "expand_cohort and expand_prefixes self time"),
    "features.prefix_rows": ("count", "lower", "prefix rows expanded"),
    "features.tfidf_fit_s": ("s", "lower", "tfidf_fit self time"),
    "features.tfidf_transform_s": ("s", "lower", "TfidfModel.transform self time"),
    "features.terms": ("count", "lower", "TF-IDF terms fitted"),
    "features.svd_fit_s": ("s", "lower", "svd_fit self time"),
    "features.featurize_rows_s": ("s", "lower", "featurize_rows self time"),
    "features.route_featurize_ms": ("ms", "lower", "expand_prefixes + featurize_rows per request"),
    "router.fit_head_s": ("s", "lower", "fit_head self time, L-BFGS included"),
    "router.platt_fit_s": ("s", "lower", "platt_fit self time, L-BFGS included"),
    "router.lbfgs_solves": ("count", "lower", "scipy.optimize.minimize calls"),
    "router.lbfgs_iters": ("count", "lower", "L-BFGS iterations over all solves"),
    "router.lbfgs_unconverged": ("count", "lower", "solves whose result reports no success"),
    "router.solves_used_ratio": ("ratio", "higher", "solves whose result is kept / solves run"),
    "router.load_ms": ("ms", "lower", "RouterModel.load per request"),
    "router.predict_ms": ("ms", "lower", "predict_raw + predict_proba per request"),
    "policy.tune_s": ("s", "lower", "tune_thresholds self time, route calls excluded"),
    "policy.route_calls": ("count", "lower", "policy.route calls in tune and eval"),
    "policy.route_us": ("us", "lower", "mean policy.route self time per call"),
    "policy.audit_append_ms": ("ms", "lower", "AuditLog.append per request"),
    "specialist.forward_s": ("s", "lower", "forward self time in train-specialist"),
    "specialist.backward_s": ("s", "lower", "backward self time in train-specialist"),
    "specialist.adamw_step_s": ("s", "lower", "AdamW.step self time in train-specialist"),
    "specialist.train_tokens": ("count", "lower", "non-pad target positions in training batches"),
    "specialist.token_use_ratio": ("ratio", "higher", "non-pad / padded target positions"),
    "specialist.grad_use_ratio": ("ratio", "higher", "gradient elements AdamW consumes / "
                                                     "elements backward returns"),
    "specialist.eval_loss_s": ("s", "lower", "eval_loss in the eval stage, inclusive"),
    "specialist.load_ms": ("ms", "lower", "SpecialistModel.load per load"),
    "specialist.loads_per_request": ("loads/request", "lower", "specialist loads per request"),
    "specialist.suggest_ms": ("ms", "lower", "suggest per call"),
    "specialist.logit_rows_used_ratio": ("ratio", "higher", "1/T: logit rows suggest uses / "
                                                            "rows it projects"),
    "serial.save_s": ("s", "lower", "save_bundle self time"),
    "serial.load_s": ("s", "lower", "load_bundle self time"),
    "serial.bytes_written": ("bytes", "lower", "bundle bytes written"),
    "serial.bytes_read": ("bytes", "lower", "bundle bytes read"),
    "pipeline.prepare_router_datasets_s": ("s", "lower", "prepare_router_datasets self time"),
    "pipeline.train_router_s": ("s", "lower", "train_router self time"),
    "pipeline.evaluate_s": ("s", "lower", "evaluate self time"),
}


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Every LAYER_METRICS entry, from the spans and counts of one traced run."""
    build = [s for s in tr.spans if s[STAGE] in BUILD_STAGES]
    names = {s[SID]: s[NAME] for s in tr.spans}

    def self_sum(span_names, stages=BUILD_STAGES):
        return sum(s[SELF] for s in build if s[NAME] in span_names and s[STAGE] in stages)

    def incl_sum(span_names, stage):
        return sum(s[END] - s[START] for s in build if s[NAME] in span_names and s[STAGE] == stage)

    def n_calls(name, stages=BUILD_STAGES):
        return sum(1 for s in build if s[NAME] == name and s[STAGE] in stages)

    def build_count(key):
        return sum(v for (stage, k), v in tr.counts.items() if k == key and stage in BUILD_STAGES)

    def route_count(key):
        return sum(v for (stage, k), v in tr.counts.items() if k == key and stage == "route")

    requests = {}
    for s in tr.spans:
        if s[STAGE] == "route":
            requests.setdefault(s[REQUEST], []).append(s)

    def per_request(span_names):
        """Median over requests of the time spent in outermost spans of `span_names`."""
        out = []
        for spans in requests.values():
            out.append(sum(s[END] - s[START] for s in spans
                           if s[NAME] in span_names and names.get(s[PARENT]) not in span_names))
        return 1e3 * _median(out)

    def per_call(name):
        return 1e3 * _median([s[END] - s[START] for spans in requests.values()
                              for s in spans if s[NAME] == name])

    route_spans = [s for s in build if s[NAME] == "policy.route"]
    solves = build_count("router.lbfgs_solves")
    # a head keeps its one solve; a Platt fit keeps only its final, pooled solve
    kept = build_count("router.solves_in:router.fit_head") + len(
        tr.solving.get("router.platt_fit", ()))
    returned = build_count("specialist.grad_elements_returned")
    padded = build_count("specialist.padded_positions")
    n_requests = len(requests)
    suggests = [s for spans in requests.values() for s in spans
                if s[NAME] == "specialist.SpecialistModel.suggest"]

    m = {
        "cli.synth_s": incl_sum({"cli.synth"}, "synth"),
        "cli.tokenize_s": incl_sum({"cli.tokenize"}, "tokenize"),
        "cli.featurize_s": incl_sum({"cli.featurize"}, "featurize"),
        "cli.train_router_s": incl_sum({"cli.train-router"}, "train-router"),
        "cli.tune_s": incl_sum({"cli.tune"}, "tune"),
        "cli.eval_s": incl_sum({"cli.eval"}, "eval"),
        "cli.train_specialist_s": incl_sum({"cli.train-specialist"}, "train-specialist"),
        "cli.route_other_ms": 1e3 * _median([s[SELF] for spans in requests.values()
                                             for s in spans if s[PARENT] == -1]),
        "cohort.generate_s": self_sum({"cohort.generate_cohort"}),
        "cohort.events": build_count("cohort.events"),
        "events.read_jsonl_s": self_sum({"events.read_episodes_jsonl"}),
        "events.read_jsonl_calls": n_calls("events.read_episodes_jsonl"),
        "events.tokenize_s": self_sum({"events.tokenize_episode"}),
        "events.tokenize_calls": n_calls("events.tokenize_episode"),
        "features.expand_s": self_sum({"features.expand_cohort", "features.expand_prefixes"}),
        "features.prefix_rows": build_count("features.prefix_rows"),
        "features.tfidf_fit_s": self_sum({"features.tfidf_fit"}),
        "features.tfidf_transform_s": self_sum({"features.TfidfModel.transform"}),
        "features.terms": build_count("features.terms"),
        "features.svd_fit_s": self_sum({"features.svd_fit"}),
        "features.featurize_rows_s": self_sum({"features.featurize_rows"}),
        "features.route_featurize_ms": per_request({"features.expand_prefixes",
                                                    "features.featurize_rows",
                                                    "features.TfidfModel.transform"}),
        "router.fit_head_s": self_sum({"router.fit_head"}),
        "router.platt_fit_s": self_sum({"router.platt_fit"}),
        "router.lbfgs_solves": solves,
        "router.lbfgs_iters": build_count("router.lbfgs_iters"),
        "router.lbfgs_unconverged": build_count("router.lbfgs_unconverged"),
        "router.solves_used_ratio": kept / solves if solves else 0.0,
        "router.load_ms": per_request({"router.RouterModel.load"}),
        "router.predict_ms": per_request({"router.RouterModel.predict_raw",
                                          "router.RouterModel.predict_proba"}),
        "policy.tune_s": self_sum({"policy.tune_thresholds"}),
        "policy.route_calls": len(route_spans),
        "policy.route_us": 1e6 * statistics.fmean(s[SELF] for s in route_spans)
        if route_spans else 0.0,
        "policy.audit_append_ms": per_request({"policy.AuditLog.append"}),
        "specialist.forward_s": self_sum({"specialist.SpecialistModel.forward"},
                                         ("train-specialist",)),
        "specialist.backward_s": self_sum({"specialist.SpecialistModel.backward"},
                                          ("train-specialist",)),
        "specialist.adamw_step_s": self_sum({"specialist.AdamW.step"}, ("train-specialist",)),
        "specialist.train_tokens": build_count("specialist.train_tokens"),
        "specialist.token_use_ratio": build_count("specialist.train_tokens") / padded
        if padded else 0.0,
        "specialist.grad_use_ratio": build_count("specialist.grad_elements_consumed") / returned
        if returned else 0.0,
        "specialist.eval_loss_s": incl_sum({"specialist.SpecialistModel.eval_loss"}, "eval"),
        "specialist.load_ms": per_call("specialist.SpecialistModel.load"),
        "specialist.loads_per_request": sum(
            1 for spans in requests.values() for s in spans
            if s[NAME] == "specialist.SpecialistModel.load") / n_requests if n_requests else 0.0,
        "specialist.suggest_ms": per_call("specialist.SpecialistModel.suggest"),
        "specialist.logit_rows_used_ratio": len(suggests) / route_count("specialist.suggest_rows")
        if suggests else 0.0,
        "serial.save_s": self_sum({"serial.save_bundle"}),
        "serial.load_s": self_sum({"serial.load_bundle"}),
        "serial.bytes_written": build_count("serial.bytes_written"),
        "serial.bytes_read": build_count("serial.bytes_read"),
        "pipeline.prepare_router_datasets_s": self_sum({"pipeline.prepare_router_datasets"}),
        "pipeline.train_router_s": self_sum({"pipeline.train_router"}),
        "pipeline.evaluate_s": self_sum({"pipeline.evaluate"}),
    }
    if set(m) != set(LAYER_METRICS):
        raise RuntimeError(f"layer metrics out of step: {sorted(set(m) ^ set(LAYER_METRICS))}")
    return {k: {"value": float(v), "unit": LAYER_METRICS[k][0]} for k, v in m.items()}
