#!/usr/bin/env python3
"""End-to-end benchmark for dpv.

    python3 perfbench/run.py --workload frontier-batch --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune, primes the perception-model cache
under .perfbench/ (untimed; the first run in a checkout trains the
networks), generates the workload's inputs from --seed, runs them
through the measurement program and prints every metric by name and
unit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Exit codes: 0 all checks passed; 1 a correctness check failed (the
result line says so); 3 the program could not be built or primed (no
result line).

    python3 perfbench/run.py --record

recomputes perfbench/frontier.json and rewrites the recorded specs of
the default seed under perfbench/specs/.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
CACHE = os.path.join(STATE, "cache")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
FRONTIER = os.path.join(HERE, "frontier.json")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170

# Campaign setup of the batch workloads: the default pipeline (seed 7,
# hidden [32; 16; 8]), one runner with a sequential search.  With two
# runner domains on a 2-vCPU host the same pass ran up to 1.6x slower a
# few minutes later, against 1.12x for one domain.
BATCH_BASE = {"seed": 7, "runners": 1, "workers": 1}

# The served pipeline: doc/campaign_equiv.json's setup and base queries.
SERVED_SETUP = {
    "hidden": [8, 4], "cut": 6, "train_size": 120, "val_size": 40,
    "perception_epochs": 6, "characterizer_samples": 80,
    "bounds_samples": 80, "camera_width": 8, "camera_height": 6,
}
SERVED_BASE = {
    "seed": 3, "runners": 2, "workers": 1, "max_nodes": 5000,
    "timeout_s": 30.0, "setup": SERVED_SETUP,
    "queries": [
        {"name": "tight-safe", "property": "bends-right",
         "psi": "far-left:0.115", "strategy": "data-box"},
        {"name": "tight-unsafe", "property": "bends-right",
         "psi": "far-left:0.1", "strategy": "data-box"},
        {"name": "band-unsafe", "property": "bends-right",
         "psi": "straight:0.05", "strategy": "data-box"},
        {"name": "band-wide-unsafe", "property": "bends-right",
         "psi": "straight:0.2", "strategy": "data-box"},
    ],
}

WORKLOADS = {
    "frontier-batch": dict(kind="batch", strategies=["data-box", "data-octagon"],
                           doubled=["c6-data-octagon"], max_nodes=20, absint=0,
                           bisect=0, branch_rule="default"),
    "guided-bisect": dict(kind="batch", strategies=["data-box"],
                          doubled=["c9-data-box", "c6-data-box"], max_nodes=100,
                          absint=1,
                          bisect=2, branch_rule="order"),
    "served-jobs": dict(kind="serve", passes=120, jobs_per_pass=100, clients=1),
}
RUNNERS = {"batch": 1, "serve": 1}

# Threshold bands as a share of the frontier value: the seed draws one
# threshold inside each band, so every run mixes far and near queries on
# both sides of the frontier in the same proportions.  The bands are
# narrow because the search tree, and with it the work per query, can
# change abruptly with the threshold; wide bands would make the work of
# a run depend on its seed.
BANDS = {
    "far-unsafe": (-0.4405, -0.4395),
    "near-unsafe": (-0.0605, -0.0595),
    "near-safe": (0.0295, 0.0305),
    "far-safe": (0.2995, 0.3005),
}
STRAIGHT_BANDS = {"narrow": (0.0495, 0.0505), "wide": (0.2995, 0.3005)}

E2E = [
    ("setup_s", "s"), ("wall_s", "s"), ("query_p50_ms", "ms"),
    ("query_p75_ms", "ms"), ("peak_rss_mb", "MB"),
]
LAYERS = [
    ("workflow.prepare_s", "s"), ("specfile.queries_s", "s"),
    ("verify.resolve_bounds_ms", "ms"),
    ("encode.shared_ms", "ms"), ("encode.complete_ms", "ms"),
    ("encode.restrict_ms", "ms"), ("encode.binaries", "count"),
    ("campaign.cache_hit_rate", "ratio"),
    ("bisect.plan_ms", "ms"), ("bisect.subboxes", "count"),
    ("bisect.discharged", "count"),
    ("absguide.consult_ms", "ms"), ("absguide.consults", "count"),
    ("absguide.prunes", "count"), ("absguide.phase_fixes", "count"),
    ("absguide.layers_propagated", "count"), ("absguide.layers_saved", "count"),
    ("milp.solves", "count"), ("milp.nodes", "count"),
    ("milp.node_limit", "count"), ("milp.other_ms", "ms"),
    ("simplex.ms", "ms"), ("simplex.lps", "count"), ("simplex.pivots", "count"),
    ("simplex.cold_starts", "count"), ("simplex.warm_start_rate", "ratio"),
    ("simplex.fallbacks", "count"), ("simplex.lp_p50_us", "us"),
    ("simplex.lp_p99_us", "us"),
    ("campaign.idle_ms", "ms"), ("campaign.retries", "count"),
    ("journal.appends", "count"), ("journal.append_p50_us", "us"),
    ("journal.append_p99_us", "us"),
    ("serve.accept_ms", "ms"), ("serve.job_ms", "ms"), ("serve.queue_ms", "ms"),
    ("serve.busy", "count"),
    ("obs.trace_overhead_pct", "%"), ("unattributed_ms", "ms"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    log("perfbench: " + msg)
    sys.exit(3)


# ---------------------------------------------------------------- build

def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    opam = os.path.expanduser("~/.opam")
    if os.path.isdir(opam):
        for switch in sorted(os.listdir(opam)):
            cand = os.path.join(opam, switch, "bin", "dune")
            if os.path.exists(cand):
                return cand
    fail_setup("dune not found on PATH")


def build():
    proc = subprocess.run(
        [find_dune(), "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail_setup("build failed")


def run_exe(args, capture=False):
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: measurement program timed out")
        return None
    if proc.returncode != 0:
        log("perfbench: measurement program exited %d" % proc.returncode)
        return None
    return proc.stdout if capture else ""


def write_json(path, value):
    with open(path, "w") as f:
        json.dump(value, f, indent=1, sort_keys=True)
        f.write("\n")


def batch_base_spec(frontier_probe=False):
    spec = dict(BATCH_BASE, max_nodes=100, queries=[])
    if frontier_probe:
        spec["queries"] = [
            {"name": "c%d-%s" % (cut, strat), "property": "bends-right",
             "psi": "far-left", "strategy": strat, "cut": cut}
            for cut in (6, 9) for strat in ("data-octagon", "data-box")]
    return spec


def served_probe_spec():
    spec = dict(SERVED_BASE)
    spec["queries"] = [
        {"name": strat, "property": "bends-right", "psi": "far-left",
         "strategy": strat} for strat in ("data-box", "data-octagon")]
    return spec


def prime():
    """Train both perception networks into the cache once per checkout."""
    marker = os.path.join(STATE, "primed.json")
    if os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)
    os.makedirs(STATE, exist_ok=True)
    paths = []
    for name, spec in (("batch", batch_base_spec()), ("served", SERVED_BASE)):
        path = os.path.join(STATE, "prime-%s.json" % name)
        write_json(path, spec)
        paths.append(path)
    out = run_exe(["prime", "--cache", CACHE] + paths, capture=True)
    if out is None:
        fail_setup("priming the model cache failed")
    trained = json.loads(out.strip().splitlines()[-1])
    primed = {"cold_training_s": {
        k.replace("prime-", "").replace(".json", ""): v for k, v in trained.items()}}
    write_json(marker, primed)
    return primed


# ------------------------------------------------------------ generator

def load_frontier():
    with open(FRONTIER) as f:
        return json.load(f)


def straight_frontier(f):
    """Smallest halfwidth H at which |waypoint| <= H is reachable."""
    sides = []
    if f["min_nonneg"] is not None:
        sides.append(max(f["min_nonneg"], 0.0))
    if f["max_nonpos"] is not None:
        sides.append(max(-f["max_nonpos"], 0.0))
    return min(sides) if sides else float("inf")


def expect(kind, threshold, f):
    """Expected verdict of psi kind:threshold against frontier entry f."""
    if kind == "far-left":
        reachable = threshold <= f["max"]
    elif kind == "far-right":
        reachable = -threshold >= f["min"]
    else:
        reachable = threshold >= straight_frontier(f)
    return "unsafe" if reachable else "safe"


def batch_workload(name, seed, frontier):
    """The campaign spec for a batch workload, and each query's expected
    verdict.  Each key draws one threshold per band, the workload's
    doubled keys two.  frontier-batch doubles its heavy key, whose solves
    dominate its cost, so that the slow queries fill more than a third
    of the grid and the p75 query time falls inside their group rather
    than on the edge between slow and fast queries.  guided-bisect
    doubles both of its keys, for 40 queries: ten of them lie beyond
    p75."""
    w = WORKLOADS[name]
    rng = random.Random("%s:%d" % (name, seed))
    spec = dict(BATCH_BASE, max_nodes=w["max_nodes"], queries=[])
    expected = {}
    for cut in (9, 6):
        for strat in w["strategies"]:
            key = "c%d-%s" % (cut, strat)
            f = frontier["batch"][key]
            edges = {"far-left": f["max"], "far-right": -f["min"]}
            slots = []
            for kind in ("far-left", "far-right"):
                for band, (lo, hi) in BANDS.items():
                    slots.append((kind, band, lambda lo=lo, hi=hi, e=edges[kind]:
                                  e * (1.0 + rng.uniform(lo, hi))))
            for band, (lo, hi) in STRAIGHT_BANDS.items():
                slots.append(("straight", band,
                              lambda lo=lo, hi=hi: rng.uniform(lo, hi)))
            for draw in range(2 if key in w["doubled"] else 1):
                for kind, band, threshold in slots:
                    t = threshold()
                    label = "%s-%s-%s%s" % (key, kind, band, "-%d" % draw if draw else "")
                    spec["queries"].append({
                        "name": label, "property": "bends-right",
                        "psi": "%s:%.6f" % (kind, t), "strategy": strat, "cut": cut})
                    expected[label] = expect(kind, t, f)
    return spec, expected


def served_job(rng, index, frontier):
    box, oct_ = frontier["served"]["data-box"], frontier["served"]["data-octagon"]
    # One job in four is a smoke job: its queries take a fifth of the
    # time of the others, and with half of each the query p50 would sit on
    # the gap between the two groups.
    if index % 4 == 0:
        # doc/campaign_smoke.json's queries, thresholds redrawn.
        qs = [("far-left-box", "far-left", "data-box", rng.uniform(20, 40), box),
              ("far-right-box", "far-right", "data-box", rng.uniform(20, 40), box),
              ("far-left-oct", "far-left", "data-octagon", rng.uniform(20, 40), oct_),
              ("far-right-oct", "far-right", "data-octagon", rng.uniform(20, 40), oct_)]
    else:
        # doc/campaign_equiv.json's queries, thresholds redrawn.
        edge = box["max"]
        qs = [("tight-safe", "far-left", "data-box", edge * rng.uniform(1.02, 1.10), box),
              ("tight-unsafe", "far-left", "data-box", edge * rng.uniform(0.85, 0.95), box),
              ("band-unsafe", "straight", "data-box", rng.uniform(0.03, 0.07), box),
              ("band-wide-unsafe", "straight", "data-box", rng.uniform(0.15, 0.25), box)]
    # One runner per job: a two-runner job spawns and joins a domain pool
    # per job, and next to the client connections and the sampler domain
    # that made a 2-core host flip between speed regimes twice apart.
    spec = {"runners": 1, "workers": 1, "max_nodes": 5000, "queries": [
        {"name": label, "property": "bends-right", "psi": "%s:%.6f" % (kind, t),
         "strategy": strat} for label, kind, strat, t, _ in qs]}
    expected = {label: expect(kind, t, f) for label, kind, _, t, f in qs}
    return spec, expected


def served_workload(seed, frontier):
    w = WORKLOADS["served-jobs"]
    rng = random.Random("served-jobs:%d" % seed)
    seen, passes, expected = set(), [], []
    index = 0
    for _ in range(w["passes"]):
        jobs = []
        while len(jobs) < w["jobs_per_pass"]:
            spec, exp = served_job(rng, index, frontier)
            key = json.dumps(spec["queries"], sort_keys=True)
            if key in seen:  # a repeat would replay from its journal
                continue
            seen.add(key)
            jobs.append(spec)
            expected.append(exp)
            index += 1
        passes.append(jobs)
    return passes, expected


# --------------------------------------------------------------- checks

def quantile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def harrell_davis(values, q):
    """Harrell-Davis estimate of quantile q: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it moves smoothly
    when two neighbouring values trade places, which matters on a few
    dozen queries whose times have gaps between them."""
    x = sorted(values)
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    # The Beta CDF at i/n by Simpson's rule, k steps per order statistic.
    k = max(1, 4000 // n)
    h = 1.0 / (n * k)
    cdf, acc = [0.0], 0.0
    for i in range(n * k):
        t = i * h
        acc += (pdf(t) + 4 * pdf(t + h / 2) + pdf(t + h)) * h / 6
        if (i + 1) % k == 0:
            cdf.append(acc)
    return sum(x[i] * (cdf[i + 1] - cdf[i]) for i in range(n)) / cdf[-1]


def counts_of(q):
    return [q.get("verdict"), q.get("nodes", 0), q.get("lps", 0), q.get("pivots", 0),
            q.get("layers_propagated", 0)]


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def item(self, ok, why):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(why)

    def require(self, ok, why):
        """A run-level check: a failure adds to the failed count."""
        if not ok:
            self.failed += 1
            self.notes.append(why)


def check_verdict(chk, where, q, expected):
    if q.get("outcome") != "done":
        chk.item(False, "%s: %s %s (%s)" % (where, q["label"], q.get("outcome"), q.get("reason")))
        return
    v = q["verdict"]
    ok = v == expected[q["label"]] or (v == "unknown" and "node limit" in q["reason"])
    if q.get("from_journal"):
        ok = False
    chk.item(ok, "%s: %s is %s (%s), expected %s" % (
        where, q["label"], v, q["reason"], expected[q["label"]]))


def build_digest():
    """Digest of the measurement program as built, so that work counts
    are only compared between runs of the same code."""
    h = hashlib.sha256()
    with open(EXE, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def record_counts(chk, name, seed, inputs, counts):
    """Same inputs, same code: verdicts and work counts repeat exactly.

    Every entry an earlier run in this checkout recorded for the same
    generated inputs and the same build must match; entries not seen
    before are added.  A changed program starts a record of its own, so
    a change that alters the search is judged by the verdict checks
    alone on its first run."""
    h = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode())
    h.update(build_digest().encode())
    path = os.path.join(STATE, "records", "%s-%d-%s.json" % (name, seed, h.hexdigest()[:16]))
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    for key, value in counts.items():
        chk.require(seen.get(key, value) == value,
                    "%s: work counts %s differ from %s in an earlier run of seed %d"
                    % (key, value, seen.get(key), seed))
    seen.update(counts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_json(path, seen)


def batch_results(name, seed, spec, raw, expected, trace):
    chk = Checker()
    passes, observed, traced = raw["passes"], raw["observed"], raw["traced"]
    first = {q["label"]: counts_of(q) for q in passes[0]["queries"]}
    pass_counts = lambda p: [p["journal_appends"], p["subboxes"], p["discharged"]]
    for where, group in (("pass", passes), ("observed", observed)):
        for i, p in enumerate(group):
            for q in p["queries"]:
                check_verdict(chk, "%s %d" % (where, i), q, expected)
                chk.require(counts_of(q) == first[q["label"]],
                            "%s %d: %s counts %s differ from pass 0 %s" % (
                                where, i, q["label"], counts_of(q), first[q["label"]]))
            chk.require(pass_counts(p) == pass_counts(passes[0]),
                        "%s %d: appends/sub-boxes/discharged differ" % (where, i))
    for i, t in enumerate(traced):
        for q in t["queries"]:
            check_verdict(chk, "traced %d" % i, q, expected)
            chk.require(counts_of(q) == first[q["label"]],
                        "traced %d: %s counts %s differ from untraced %s" % (
                            i, q["label"], counts_of(q), first[q["label"]]))
        lay = t["layers"]
        chk.require([lay["journal.appends"], lay["bisect.subboxes"],
                     lay["bisect.discharged"]] == pass_counts(passes[0]),
                    "traced %d: appends/sub-boxes/discharged differ" % i)
    p0 = passes[0]
    totals = {
        "queries": len(first),
        "nodes": sum(c[1] for c in first.values()),
        "lps": sum(c[2] for c in first.values()),
        "pivots": sum(c[3] for c in first.values()),
        "layers_propagated": sum(c[4] for c in first.values()),
        "subboxes": p0["subboxes"], "discharged": p0["discharged"],
        "journal_appends": p0["journal_appends"],
    }
    record_counts(chk, name, seed, spec, dict(first, totals=totals))

    walls = [p["wall_s"] for p in passes]
    # Every pass asks the same queries: each query's time is its median
    # over the passes, and the percentiles are taken over those medians.
    per_query = {}
    for p in passes:
        for q in p["queries"]:
            if q.get("outcome") == "done":
                per_query.setdefault(q["label"], []).append(q["wall_s"] * 1e3)
    qwalls = [statistics.median(v) for v in per_query.values()]
    setup = raw["setup"]
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup["setup_s"]),
            "wall_s": statistics.median(walls),
            "query_p50_ms": harrell_davis(qwalls, 0.50),
            "query_p75_ms": harrell_davis(qwalls, 0.75),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    else:
        layers = {}
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(t["layers"][key] for t in traced)
        hits = sum(p["cache_hits"] for p in passes)
        misses = sum(p["cache_misses"] for p in passes)
        metrics = dict(layers)
        metrics.update({
            "workflow.prepare_s": statistics.median(setup["prepare_s"]),
            "specfile.queries_s": statistics.median(setup["queries_s"]),
            "campaign.cache_hit_rate": hits / max(1, hits + misses),
            "campaign.retries": statistics.median(p["retried"] for p in passes),
            "serve.accept_ms": 0.0, "serve.job_ms": 0.0, "serve.queue_ms": 0.0,
            "serve.busy": 0,
            # Campaign.run with tracing armed against the untraced
            # passes it alternates with.
            "obs.trace_overhead_pct": 100.0 * (
                statistics.median(p["wall_s"] for p in observed)
                / statistics.median(walls) - 1.0),
        })
    info = {"passes": len(passes), "observed_passes": len(observed),
            "traced_passes": len(traced),
            "query_samples": len(qwalls),
            "totals": totals}
    return chk, metrics, info


def served_results(seed, passes, raw, expected, trace):
    chk = Checker()
    per_job = {}
    good = {"passes": [], "traced": []}
    for phase in ("passes", "traced"):
        for p in raw[phase]:
            for j in p["jobs"]:
                exp = expected[j["index"]]
                where = "job %d" % j["index"]
                if j["outcome"] != "finished" or None in (
                        j["accept_s"], j["first_verdict_s"]):
                    chk.item(False, "%s: %s" % (where, j["outcome"]))
                    continue
                verdicts = [f for f in j["frames"] if f.get("type") == "verdict"]
                done = [f for f in j["frames"] if f.get("type") == "done"]
                ok = (len(verdicts) == len(exp) and len(done) == 1
                      and done[0].get("resumed") == 0
                      and done[0].get("crashed") == 0
                      and done[0].get("skipped") == 0)
                for f in verdicts:
                    v = f.get("verdict")
                    ok = ok and f.get("outcome") == "done" and not f.get("from_journal")
                    ok = ok and (v == exp.get(f.get("label")) or v == "unknown")
                results = {r["label"]: r for r in j["results"]}
                ok = ok and len(results) == len(exp)
                for label, r in results.items():
                    ok = ok and (r["verdict"] == exp[label] or (
                        r["verdict"] == "unknown" and "node limit" in r["reason"]))
                chk.item(ok, "%s: frames %s expected %s" % (
                    where, [(f.get("label"), f.get("verdict")) for f in verdicts], exp))
                if ok:
                    good[phase].append(j)
                per_job[j["index"]] = {
                    label: counts_of(r) for label, r in sorted(results.items())}
    layers = raw.get("layers") or {}
    if trace and layers:
        jobs = max(1, layers["serve.jobs"])
        chk.require(layers["serve.busy"] == 0, "server answered busy")
        appends_per_job = layers["journal.appends"] / jobs
    else:
        appends_per_job = None
    counts = {str(k): v for k, v in per_job.items()}
    if appends_per_job is not None:
        counts["journal_appends_per_job"] = appends_per_job
    record_counts(chk, "served-jobs", seed, passes, counts)

    if not good["passes"] or (trace and not good["traced"]):
        return chk, None, {}
    untraced_jobs, traced_jobs = good["passes"], good["traced"]
    walls = [p["wall_s"] for p in raw["passes"]]
    qwalls = [r["wall_s"] * 1e3 for j in untraced_jobs for r in j["results"]]
    setup = raw["setup"]
    job_ms = [j["done_s"] * 1e3 for j in untraced_jobs]
    ungated = {
        "job_p50_ms": quantile(job_ms, 0.50),
        "job_p95_ms": quantile(job_ms, 0.95),
        "first_verdict_p50_ms": quantile(
            [j["first_verdict_s"] * 1e3 for j in untraced_jobs], 0.50),
    }
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup["setup_s"]),
            "wall_s": statistics.median(walls),
            "query_p50_ms": quantile(qwalls, 0.50),
            "query_p75_ms": quantile(qwalls, 0.75),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    else:
        jobs = max(1, layers["serve.jobs"])
        server_job_ms = layers["serve.job_ms_sum"] / jobs
        done_after_accept = statistics.mean(
            (j["done_s"] - j["accept_s"]) * 1e3 for j in traced_jobs)
        hits, misses = layers["campaign.cache_hits"], layers["campaign.cache_misses"]
        metrics = {name: 0 for name, _ in LAYERS}
        metrics.update({k: v for k, v in layers.items() if k in dict(LAYERS)})
        metrics.update({
            "workflow.prepare_s": statistics.median(setup["prepare_s"]),
            "specfile.queries_s": statistics.median(setup["queries_s"]),
            "campaign.cache_hit_rate": hits / max(1, hits + misses),
            "campaign.retries": layers["campaign.retries"],
            "serve.accept_ms": quantile([j["accept_s"] * 1e3 for j in traced_jobs], 0.5),
            "serve.job_ms": server_job_ms,
            "serve.queue_ms": done_after_accept - server_job_ms,
            "obs.trace_overhead_pct": 100.0 * (
                statistics.median(p["wall_s"] for p in raw["traced"])
                / statistics.median(walls) - 1.0),
        })
    info = {"passes": len(raw["passes"]), "traced_passes": len(raw["traced"]),
            "jobs": len(untraced_jobs), "traced_jobs": len(traced_jobs),
            "query_samples": len(qwalls), "journal_appends_per_job": appends_per_job,
            "ungated": ungated}
    return chk, metrics, info


# ----------------------------------------------------------------- main

def record():
    """Recompute the frontier and the default seed's recorded specs."""
    build()
    prime()
    os.makedirs(os.path.join(STATE, "run"), exist_ok=True)
    frontier = {}
    for name, spec in (("batch", batch_base_spec(True)), ("served", served_probe_spec())):
        path = os.path.join(STATE, "run", "frontier-%s.json" % name)
        write_json(path, spec)
        out = run_exe(["frontier", "--cache", CACHE, "--spec", path], capture=True)
        if out is None:
            fail_setup("frontier computation failed")
        frontier[name] = json.loads(out.strip().splitlines()[-1])
    write_json(FRONTIER, frontier)
    specs = os.path.join(HERE, "specs")
    os.makedirs(specs, exist_ok=True)
    for name in ("frontier-batch", "guided-bisect"):
        spec, _ = batch_workload(name, DEFAULT_SEED, frontier)
        write_json(os.path.join(specs, "%s.seed%d.json" % (name, DEFAULT_SEED)), spec)
    passes, _ = served_workload(DEFAULT_SEED, frontier)
    write_json(os.path.join(specs, "served-jobs.seed%d.json" % DEFAULT_SEED),
               {"base": SERVED_BASE, "first_pass": passes[0],
                "passes": len(passes), "jobs_per_pass": len(passes[0])})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.record:
        record()
        return 0
    if not args.workload:
        ap.error("--workload is required")

    build()
    primed = prime()
    frontier = load_frontier()
    w = WORKLOADS[args.workload]
    work = os.path.join(STATE, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "raw.json")
    common = ["--cache", CACHE, "--work", work, "--out", out,
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if w["kind"] == "batch":
        spec, expected = batch_workload(args.workload, args.seed, frontier)
        spec_path = os.path.join(work, "spec.json")
        write_json(spec_path, spec)
        ok = run_exe(["batch", "--spec", spec_path, "--absint", str(w["absint"]),
                      "--bisect", str(w["bisect"]), "--branch-rule", w["branch_rule"]]
                     + common)
        clients = 0
    else:
        passes, expected = served_workload(args.seed, frontier)
        base_path = os.path.join(work, "base.json")
        jobs_path = os.path.join(work, "jobs.json")
        write_json(base_path, SERVED_BASE)
        with open(jobs_path, "w") as f:
            json.dump(passes, f)
        clients = w["clients"]
        ok = run_exe(["serve", "--spec", base_path, "--jobs", jobs_path,
                      "--clients", str(clients)] + common)
    if ok is not None:
        with open(out) as f:
            raw = json.load(f)
    shutil.rmtree(work, ignore_errors=True)
    if ok is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    if w["kind"] == "batch":
        chk, metrics, info = batch_results(args.workload, args.seed, spec, raw,
                                           expected, args.trace == 1)
    else:
        chk, metrics, info = served_results(args.seed, passes, raw, expected,
                                            args.trace == 1)

    nproc = len(os.sched_getaffinity(0))
    host = raw["host"]
    runners = RUNNERS[w["kind"]]
    print("host: nproc=%d domains=%d ocaml=%s runners=%d clients=%d%s" % (
        nproc, host["domains"], host["ocaml"], runners, clients,
        " degraded (fewer cores than runners + client connections)"
        if nproc < runners + clients else ""))
    print("cold perception training (ungated, measured when the model cache "
          "was primed): " + ", ".join(
              "%s %.2f s" % kv for kv in sorted(primed["cold_training_s"].items())))
    print("samples: " + json.dumps(info, sort_keys=True))
    print("failed_share: %.4f (%d of %d)" % (
        chk.failed / max(1, chk.attempted), chk.failed, chk.attempted))
    for note in chk.notes:
        print("check failed: " + note)
    if metrics is None:
        print("check failed: no job of a pass finished correctly")
        print(json.dumps({"correct": False, "attempted": max(1, chk.attempted),
                          "failed": max(1, chk.failed), "metrics": {}}))
        return 1
    for name, value in sorted(info.get("ungated", {}).items()):
        print("%-28s %14.4f ms (ungated)" % (name, value))
    units = dict(LAYERS if args.trace else E2E)
    for name in units:
        print("%-28s %14.4f %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": chk.failed == 0,
        "attempted": max(1, chk.attempted),
        "failed": chk.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if chk.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
