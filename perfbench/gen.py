"""Seeded input generator: every input the tools receive comes from here.

Each workload is an endless sequence of rounds. A round always holds the
same mix of requests, so medians stay comparable across seeds and runs; the
seed picks the order within each round and, where a workload has them, the
variants (exported weights, served scenarios). Everything here depends only
on (workload, seed).
"""
import hashlib
import json
import random

ZOO_MODELS = ("alexnet", "squeezenet", "vgg8", "vgg16", "resnet18", "googlenet")
ZOO_ROBS = (16, 64)
# One round of zoo_timing: every (model, ROB) pair, plus resnet18 at ROB 64
# (the costliest pair, the O(ROB^2) scan's worst case) once more. The odd
# length puts the median inside one pair's requests rather than on the edge
# between two.
ZOO_ROUND = tuple((m, r) for m in ZOO_MODELS for r in ZOO_ROBS) + (("resnet18", 64),)
FUNCTIONAL_MODELS = ("squeezenet", "vgg8")
# One round of functional_weights: half builtins, half exported files. The
# cheaper model appears twice so the median and the 90th percentile each fall
# inside one kind of request rather than on the edge between two.
FUNCTIONAL_ROUND = (("squeezenet", "builtin"), ("squeezenet", "builtin"),
                    ("squeezenet", "file"), ("squeezenet", "file"),
                    ("vgg8", "builtin"), ("vgg8", "file"))
SERVE_MODELS = ("mlp", "tiny_cnn")
SERVE_POLICIES = ("perf", "util")
# Evaluate points: every (model, input size, policy, batch). 56 programs on
# 14 graphs.
SERVE_EVAL_HW = tuple(range(4, 11))
SERVE_EVAL_BATCHES = (1, 2)
# Every sweep: three mlp variants and tiny_cnn at input 4, x policies x
# batches = 32 scenarios, 32 programs on 4 graphs.
SERVE_SWEEP_HIDDEN = ((16, 16), (32, 16), (48, 16))
SERVE_SWEEP_BATCHES = (1, 2, 3, 4)
# One round of serve_sweep: (kind, class) -> count. The proportions follow a
# probe of the daemon under mixed traffic (100 requests, 993 scenarios, 961
# program lookups hitting the store): 7 evaluates and 3 sweeps of 32 make
# 10.3 scenarios per request, and 3 cold evaluates in 103 lookups give a
# program hit ratio of 0.97. Evaluates (a few ms) are 7 in 10 requests, so
# the median falls inside them; the sweeps (one shape, so one cost) are the
# top 3 in 10, so the 90th percentile falls inside them too.
SERVE_ROUND = {("evaluate", "warm"): 4, ("evaluate", "cold"): 3, ("batch", "warm"): 3}
# Warm evaluates repeat one of the last few cold ones: recent enough that the
# store (128 programs, 32 graphs, LRU) still holds them. The sweeps' 96
# programs are touched every round, so the 56 evaluate programs share the
# other 32 slots and a cold point has been evicted when it comes round again.
SERVE_RECENT = 6


def rng_for(workload, seed, stream):
    """A private random stream per (workload, seed, purpose)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def zoo_rounds(seed, arch_files):
    """Timing-only zoo runs, ZOO_ROUND per round."""
    rng = rng_for("zoo_timing", seed, "order")
    pairs = list(ZOO_ROUND)
    while True:
        rng.shuffle(pairs)
        yield [{"workload": m, "arch": arch_files[r], "functional": False,
                "key": f"{m}/rob{r}"} for m, r in pairs]


def functional_weight_seeds(seed):
    """Weight seed of each exported graph file."""
    rng = rng_for("functional_weights", seed, "weights")
    return {m: rng.randrange(2, 2**31) for m in FUNCTIONAL_MODELS}


def functional_rounds(seed, graph_files):
    rng = rng_for("functional_weights", seed, "order")
    mix = list(FUNCTIONAL_ROUND)
    while True:
        rng.shuffle(mix)
        yield [{"workload": m if how == "builtin" else graph_files[m], "arch": "paper",
                "functional": True, "key": f"{m}/{how}"} for m, how in mix]


def _evaluate(model, input_hw, policy, batch):
    return {"kind": "evaluate", "workload": model, "arch": "tiny", "input_hw": input_hw,
            "policy": policy, "batch": batch, "functional": True}


def _sweep(weight_seeds):
    mlps = [{"kind": "mlp", "hidden": list(h), "weight_seed": s, "input_hw": 4}
            for h, s in zip(SERVE_SWEEP_HIDDEN, weight_seeds)]
    cnn = {"kind": "builtin", "name": "tiny_cnn", "weight_seed": weight_seeds[-1],
           "input_hw": 4}
    return {"kind": "batch", "arch": "tiny", "functional": True, "workloads": mlps + [cnn],
            "policies": list(SERVE_POLICIES), "batches": list(SERVE_SWEEP_BATCHES)}


def _serve_request(body, cls):
    return {"kind": body["kind"], "class": cls, "body": body,
            "key": json.dumps(body, sort_keys=True)}


class ServePlan:
    """The serve_sweep mix: a warm set primed during set-up, then rounds.

    Cold evaluates walk a seeded permutation of functional (model, input
    size, policy, batch) points; warm evaluates repeat one of the most recent
    cold ones, so both kinds draw from one cost distribution and differ only
    in what the store already holds. Each round sends the same few sweeps in
    a seeded order: one shape with seeded weights, so every sweep costs the
    same and all of them stay in the store.

    The walk goes on across daemons: a fresh daemon is primed with warmup(),
    the sweeps and the most recent cold points, so a run covers whole cycles
    of the permutation rather than its seed-dependent first few points.
    """

    def __init__(self, seed):
        rng = rng_for("serve_sweep", seed, "mix")
        points = [(m, hw, p, b) for m in SERVE_MODELS for hw in SERVE_EVAL_HW
                  for p in SERVE_POLICIES for b in SERVE_EVAL_BATCHES]
        rng.shuffle(points)
        self._points = [_evaluate(*p) for p in points]
        n_seeds = len(SERVE_SWEEP_HIDDEN) + 1
        self.sweeps = [_sweep([rng.randrange(1, 10**6) for _ in range(n_seeds)])
                       for _ in range(SERVE_ROUND[("batch", "warm")])]
        self._rng = rng
        self._n = SERVE_RECENT  # cold points sent so far; the first warm-up sends these

    def warmup(self):
        recent = [self._points[i % len(self._points)]
                  for i in range(self._n - SERVE_RECENT, self._n)]
        return [_serve_request(b, "warm") for b in recent + self.sweeps]

    def rounds(self):
        rng = self._rng
        while True:
            n = self._n
            reqs = []
            for _ in range(SERVE_ROUND[("evaluate", "warm")]):
                body = self._points[(n - 1 - rng.randrange(SERVE_RECENT)) % len(self._points)]
                reqs.append(_serve_request(body, "warm"))
            for _ in range(SERVE_ROUND[("evaluate", "cold")]):
                reqs.append(_serve_request(self._points[n % len(self._points)], "cold"))
                n += 1
            self._n = n
            reqs += [_serve_request(b, "warm") for b in self.sweeps]
            rng.shuffle(reqs)
            yield reqs
