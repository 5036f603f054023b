"""Seeded inputs of the windim benchmark.

Everything here is a pure function of the benchmark seed, and the
program under test only ever sees the generated text.

The networks are random connected topologies with shortest-path
traffic, the same shape as net/generators.h, drawn from a fixed corpus
so that a run's amount of work does not depend on the seed (the cost of
one search varies several-fold between random networks of one size).
The seed decides everything else: how each network is presented (node
names and the order of node and channel declarations, hence the
model's station order), the window vectors, and the request streams.
"""

import bisect
import json

MASK64 = (1 << 64) - 1
CORPUS_SEED = 0x77696E64696D  # fixes the networks; see the module doc

# The thesis networks (examples/specs), embedded so the inputs do not
# change when the examples do.
CANADA = """node Vancouver
node Edmonton
node Winnipeg
node Toronto
node Montreal
node Ottawa
channel Vancouver Edmonton 50
channel Edmonton Winnipeg 50
channel Winnipeg Toronto 50
channel Toronto Montreal 50
channel Montreal Ottawa 50
channel Winnipeg Montreal 25
channel Toronto Ottawa 25
class east rate 20 path Edmonton Winnipeg Toronto Montreal Ottawa
class west rate 20 path Montreal Toronto Winnipeg Edmonton Vancouver
"""

CANADA4 = """node Vancouver
node Edmonton
node Winnipeg
node Toronto
node Montreal
node Ottawa
channel Vancouver Edmonton 50
channel Edmonton Winnipeg 50
channel Winnipeg Toronto 50
channel Toronto Montreal 50
channel Montreal Ottawa 50
channel Winnipeg Montreal 25
channel Toronto Ottawa 25
class class1 rate 6 path Edmonton Winnipeg Toronto Montreal Ottawa
class class2 rate 6 path Montreal Toronto Winnipeg Edmonton Vancouver
class class3 rate 6 path Vancouver Edmonton Winnipeg Montreal
class class4 rate 12 path Toronto Winnipeg
"""

# Generated specs of the dimension-batch workload: 16 nodes, and this
# many traffic classes per size label.
BATCH_NODES = 16
BATCH_SIZES = {"c12": 12, "c24": 24, "c48": 48}

# pipelined-mix draws from more distinct topologies than the daemon's
# default compiled-model cache holds (64), so misses and evictions are a
# steady share of its stream.
MIX_TOPOLOGIES = 96
MIX_ZIPF_EXPONENT = 1.0
MIX_WINDOWS_PER_SPEC = 4


class Rng:
    """splitmix64: small, fast and identical on every platform."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform01(self):
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.uniform01()

    def randint(self, lo, hi):
        """Uniform integer in [lo, hi]."""
        return lo + self.next_u64() % (hi - lo + 1)

    def shuffle(self, items):
        """Fisher-Yates, in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def fork(self, *tags):
        """An independent stream keyed by `tags` (ints or strings)."""
        h = self.state
        for tag in tags:
            for byte in str(tag).encode():
                h = ((h ^ byte) * 0x100000001B3) & MASK64
            h = ((h ^ 0xFF) * 0x100000001B3) & MASK64
        return Rng(Rng(h).next_u64())


def _shortest_path(adjacency, src, dst):
    """Breadth-first node path from src to dst (channels in insertion
    order, as net::Topology::shortest_route explores them)."""
    parent = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v in parent:
                    continue
                parent[v] = u
                if v == dst:
                    path = [v]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return path[::-1]
                nxt.append(v)
        frontier = nxt
    raise ValueError("disconnected topology")


def random_spec(rng, nodes, classes, extra_channels, capacity=(25.0, 100.0),
                rate=(2.0, 8.0)):
    """Spec text of a random connected topology (a random spanning tree
    plus `extra_channels` random chords) carrying `classes` traffic
    classes between distinct random node pairs on shortest paths."""
    names = [f"n{i}" for i in range(nodes)]
    adjacency = [[] for _ in range(nodes)]
    lines = [f"node {name}" for name in names]

    def add_channel(a, b):
        adjacency[a].append(b)
        adjacency[b].append(a)
        cap = rng.uniform(*capacity)
        lines.append(f"channel {names[a]} {names[b]} {cap:.1f}")

    for n in range(1, nodes):
        add_channel(rng.randint(0, n - 1), n)
    added = attempts = 0
    while added < extra_channels and attempts < 50 * (extra_channels + 1):
        attempts += 1
        a, b = rng.randint(0, nodes - 1), rng.randint(0, nodes - 1)
        if a == b or b in adjacency[a]:
            continue
        add_channel(a, b)
        added += 1
    for k in range(classes):
        src = dst = 0
        while src == dst:
            src, dst = rng.randint(0, nodes - 1), rng.randint(0, nodes - 1)
        path = _shortest_path(adjacency, src, dst)
        r = rng.uniform(*rate)
        lines.append(f"class class{k} rate {r:.2f} path " +
                     " ".join(names[i] for i in path))
    return "\n".join(lines) + "\n"


def present(spec, rng):
    """The same network as `spec` under new node names, with its node
    and channel declarations (and each channel's endpoints) in a new
    order.  Class order stays: it is the pattern search's coordinate
    order, which moves a search's evaluation count by up to 2x."""
    nodes, channels, classes = [], [], []
    for line in spec.splitlines():
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        {"node": nodes, "channel": channels, "class": classes}[
            words[0]].append(words)
    names = [w[1] for w in nodes]
    fresh = [f"v{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    rename = dict(zip(names, fresh))
    out_nodes = [f"node {rename[n]}" for n in names]
    rng.shuffle(out_nodes)
    out_channels = []
    for _, a, b, cap in channels:
        ends = [rename[a], rename[b]]
        rng.shuffle(ends)
        out_channels.append(f"channel {ends[0]} {ends[1]} {cap}")
    rng.shuffle(out_channels)
    out_classes = []
    for k, words in enumerate(classes):
        path = words.index("path")
        out_classes.append(" ".join(
            ["class", f"c{k}"] + words[2:path + 1] +
            [rename[n] for n in words[path + 1:]]))
    return "\n".join(out_nodes + out_channels + out_classes) + "\n"


def spec_hops(spec):
    """Hop count per class, in class order."""
    return [len(line.split(" path ")[1].split()) - 1
            for line in spec.splitlines() if line.startswith("class ")]


def seeded_windows(rng, spec):
    """A window vector around Kleinrock's hop-count start (1..hops+2)."""
    return [rng.randint(1, h + 2) for h in spec_hops(spec)]


def evaluate_line(spec, windows, rid):
    return json.dumps({"op": "evaluate", "spec": spec, "windows": windows,
                       "id": rid}, separators=(",", ":"))


def dimension_line(spec, rid):
    return json.dumps({"op": "dimension", "spec": spec, "id": rid},
                      separators=(",", ":"))


def stats_line(rid):
    return json.dumps({"op": "stats", "id": rid}, separators=(",", ":"))


class ServePlan:
    """Inputs of one serve workload.

    `pool` holds every distinct request line the stream can send; the
    stream of connection c is `stream(c)`, an endless iterator of pool
    indices.  `warmup` lists the pool indices whose first send fills
    the cache, and `pure[i]` says whether pool line i has a reply that
    is a pure function of the line (so it must equal the in-process
    reply byte for byte).
    """

    def __init__(self, name, seed, connections, window, pool, pure, specs,
                 warmup, chooser):
        self.name = name
        self.seed = seed
        self.connections = connections
        self.window = window
        self.pool = pool
        self.pure = pure
        self.specs = specs
        self.warmup = warmup
        self._chooser = chooser

    def stream(self, connection):
        rng = Rng(self.seed).fork(self.name, "stream", connection)
        while True:
            yield self._chooser(rng)


def interactive_plan(seed):
    """2 connections, one evaluate outstanding each, over 4 small
    topologies; after warm-up every request is a cache hit."""
    rng = Rng(seed).fork("interactive")
    corpus = Rng(CORPUS_SEED).fork("interactive")
    specs = [CANADA, CANADA4,
             random_spec(corpus.fork("spec", 0), 10, 8, 4),
             random_spec(corpus.fork("spec", 1), 10, 8, 4)]
    specs = [present(spec, rng.fork("present", s))
             for s, spec in enumerate(specs)]
    pool = []
    wrng = rng.fork("windows")
    for spec in specs:
        for _ in range(8):
            pool.append(evaluate_line(spec, seeded_windows(wrng, spec),
                                      len(pool)))
    pure = [True] * len(pool)

    def choose(stream_rng):
        return stream_rng.randint(0, len(pool) - 1)

    return ServePlan("interactive", seed, 2, 1, pool, pure, specs,
                     list(range(len(pool))), choose)


def zipf_cdf(n, exponent):
    weights = [1.0 / (k + 1) ** exponent for k in range(n)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def pipelined_mix_plan(seed):
    """4 connections with 8 requests in flight each; per 10 requests 8
    evaluate, 1 dimension and 1 stats, over MIX_TOPOLOGIES specs of
    4-8 classes drawn with Zipf popularity."""
    rng = Rng(seed).fork("pipelined-mix")
    corpus = Rng(CORPUS_SEED).fork("pipelined-mix")
    specs = []
    for t in range(MIX_TOPOLOGIES):
        srng = corpus.fork("spec", t)
        classes = srng.randint(4, 8)
        spec = random_spec(srng, srng.randint(6, 10), classes, 3,
                           rate=(4.0, 12.0))
        specs.append(present(spec, rng.fork("present", t)))
    pool, pure = [], []
    evaluates, dimensions = [], []
    wrng = rng.fork("windows")
    for spec in specs:
        evaluates.append([])
        for _ in range(MIX_WINDOWS_PER_SPEC):
            evaluates[-1].append(len(pool))
            pool.append(evaluate_line(spec, seeded_windows(wrng, spec),
                                      len(pool)))
            pure.append(True)
    for spec in specs:
        dimensions.append(len(pool))
        pool.append(dimension_line(spec, len(pool)))
        pure.append(True)
    stats = len(pool)
    pool.append(stats_line(stats))
    pure.append(False)  # stats carries live counters
    cdf = zipf_cdf(len(specs), MIX_ZIPF_EXPONENT)

    def choose(stream_rng):
        slot = stream_rng.randint(0, 9)
        if slot == 9:
            return stats
        t = bisect.bisect_left(cdf, stream_rng.uniform01())
        if slot == 8:
            return dimensions[t]
        return evaluates[t][stream_rng.randint(0, MIX_WINDOWS_PER_SPEC - 1)]

    # Warm-up: one evaluate of each of the 64 most popular specs fills
    # the default-capacity cache with the models the stream hits most.
    warmup = [evaluates[t][0] for t in range(64)]
    return ServePlan("pipelined-mix", seed, 4, 8, pool, pure, specs, warmup,
                     choose)


def batch_specs(seed, per_size):
    """{label: [spec text, ...]} for dimension-batch: `per_size` specs
    of 16 nodes for each class count in BATCH_SIZES."""
    rng = Rng(seed).fork("dimension-batch")
    corpus = Rng(CORPUS_SEED).fork("dimension-batch")
    out = {}
    for label, classes in BATCH_SIZES.items():
        # Rates scale with 1/classes, so every size offers the network
        # about the same load.
        scale = 12.0 / classes
        out[label] = [present(random_spec(corpus.fork(label, i), BATCH_NODES,
                                          classes, 8,
                                          rate=(2.0 * scale, 8.0 * scale)),
                              rng.fork(label, i))
                      for i in range(per_size)]
    return out
