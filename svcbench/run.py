#!/usr/bin/env python3
"""Service benchmark: seeded traffic mixes through the reactor front end.

    python3 svcbench/run.py --workload noc-interactive --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout.  Builds rnt_cli and the benchmark's own
binary (svcbench/CMakeLists.txt) into .bench_build/svcbench, then:

1. generates the workload's request stream from --seed (setup lines that
   warm the resident keys, then the load stream), and prints its digest;
2. set-up, repeated SETUP_REPS times: spawn `rnt_cli serve --reactor`, send
   the setup lines, time spawn -> last setup reply (setup_s is the median);
   the last server stays up for the load;
3. `svcbench load` replays the stream over at most 4 connections, open or
   closed loop, for a warm-up plus --seconds, and times every reply;
4. `svcbench check` compares every stateless reply byte for byte with an
   in-process Service::handle_line reference and checks the fields of the
   stateful ones; with --trace 1 it also replays the first requests in
   process with spans around each layer call (per-layer metrics).

The last line of stdout is one JSON object: correct, attempted, failed and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
See svcbench/README.md for every metric and why each workload exists.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build", "svcbench")
RUNS = os.path.join(ROOT, ".bench_build", "svcbench-runs")

SERVER_ARGS = ["serve", "--reactor", "--port", "0", "--threads", "2",
               "--cache", "8", "--max-queue", "64"]
SETUP_REPS = 11
WARMUP_S = 2.0
DRAIN_S = 30.0
# An open-loop load whose sends lag their schedule by more than this at p99
# ran through stalls of the shared host: such runs read a send lag of 6-10
# ms and a latency_p99_ms twice that of a quiet run (p99 lag 0.2-5 ms).
# It is repeated on a fresh server, up to LOAD_ATTEMPTS loads in all; if
# every load lags, the run is invalid and not reported.
LAG_LIMIT_MS = 5.0
LOAD_ATTEMPTS = 3

# Every key uses the default paths=400 candidate set, so any path index
# below 400 is valid (an invalid one would come back as an error reply).
PATHS = 400
BUDGETS = ["0.1", "0.2", "0.3", "0.4"]
WARM_KEYS = ["", "as=AS1755", "as=AS3257"]


def request(verb, key, *params):
    return " ".join(p for p in (verb, key) + params if p)


def csv(values):
    return ",".join(str(v) for v in values)


def random_subset(rng, size=None):
    return sorted(rng.sample(range(PATHS), size or rng.randint(20, 60)))


def feed(rng, key, subset):
    delivered = [1 if rng.random() < 0.9 else 0 for _ in subset]
    return request("feed", key, "subset=" + csv(subset),
                   "delivered=" + csv(delivered))


# A workload is a deck of cards, each a function (rng, key, pools) -> line.
# The stream deals whole decks, each shuffled by the seed, so every stretch
# of a run sends nearly the same mix whatever the seed; the seed picks the
# order, the subsets and the probe outcomes.  Keys are dealt the same way
# where a card needs one.

def card(verb, *params, subset=None):
    """A fixed request; subset="pool" draws a subset from the key's pool,
    subset="fresh" draws a new one."""
    def make(rng, key, pools):
        extra = ()
        if subset == "pool":
            extra = ("subset=" + csv(rng.choice(pools[key])),)
        elif subset == "fresh":
            extra = ("subset=" + csv(random_subset(rng)),)
        return request(verb, key, *(params + extra))
    return make


def feed_card(subset):
    def make(rng, key, pools):
        return feed(rng, key, rng.choice(pools[key]) if subset == "pool"
                    else random_subset(rng))
    return make


def unkeyed(line):
    return lambda rng, key, pools: line


def times(n, make):
    return [make] * n


def budgets(verb, *params):
    return [card(verb, *params, "budget-frac=" + b) for b in BUDGETS]


# Live operator queries on the three warm keys, 0.5-4 ms each.  Cards per
# key; the keys are dealt evenly.
NOC_DECK = (budgets("select", "algorithm=prob-rome")
            + budgets("select", "algorithm=kernel-rome")
            + times(2, card("select", "algorithm=mat-rome"))
            + times(7, card("er-eval", "engine=kernel", "scenarios=50", subset="pool"))
            + times(3, card("localize", "scenarios=100", subset="pool"))
            + times(2, card("localize-node", "k=1", "scenarios=50", subset="pool"))
            + times(2, card("infer", "scenarios=20", subset="pool"))
            + times(5, feed_card("pool"))
            + budgets("replan")[1:3]
            + times(3, unkeyed("ping"))
            + times(2, unkeyed("stats")))

# Campaign analyses of whole selections, 25-190 ms each, plus the
# campaign's own traffic: reference selections by eager Algorithm 1
# (120-190 ms; a lazy 3-4 ms selection beside two busy workers moved by
# 25% between runs of one build), telemetry and health checks.
# Each verb keeps one dominant form (3 cards of 4) so that its median
# lands inside one cost mode rather than between two, and the light
# requests stay under a third of the mix so that the overall median lands
# among the analyses rather than at the edge of the gap between the two.
ANALYTICS_DECK = (times(3, card("er-eval", "algorithm=prob-rome", "budget-frac=0.3",
                                "engine=kernel"))
                  + [card("er-eval", "algorithm=kernel-rome", "budget-frac=0.3",
                          "engine=kernel")]
                  + times(3, card("identifiability", "algorithm=prob-rome",
                                  "budget-frac=0.3"))
                  + [card("identifiability", "algorithm=kernel-rome", "budget-frac=0.3")]
                  + times(3, card("localize-node", "algorithm=prob-rome",
                                  "budget-frac=0.3", "k=2"))
                  + [card("localize-node", "algorithm=prob-rome", "budget-frac=0.1",
                          "k=2", "ident-cap=2")]
                  + times(3, card("infer", "algorithm=prob-rome", "budget-frac=0.3",
                                  "model=delay"))
                  + [card("infer", "algorithm=prob-rome", "budget-frac=0.3",
                          "model=loss")]
                  + times(2, card("select", "algorithm=prob-rome", "budget-frac=0.3",
                                  "optimizer=eager"))
                  + times(2, feed_card("pool"))
                  + times(2, unkeyed("ping"))
                  + [unkeyed("stats")])

# deck: cards dealt once per key in `keys`.  rate: open-loop arrivals/s (None =
# closed loop, one request in flight per connection).  rows: closed-loop
# stream rows per connection, far more than a run can send.  sample:
# requests the traced replay covers.
WORKLOADS = {
    "noc-interactive": dict(deck=NOC_DECK, keys=WARM_KEYS, resident=WARM_KEYS,
                            conns=4, rate=400.0, sample=1200),
    "analytics-campaign": dict(deck=ANALYTICS_DECK, keys=WARM_KEYS,
                               resident=WARM_KEYS, conns=2, rate=None,
                               rows=3000, sample=100),
}

E2E_VERBS = {"select": "select_p50_ms", "er-eval": "er_eval_p50_ms",
             "localize-node": "localize_node_p50_ms", "infer": "infer_p50_ms"}
# The light verbs' client latencies are per-layer metrics: on a closed loop
# a 0.2-0.5 ms reply is mostly thread wake-ups, which on a shared host move
# by up to 30% between runs of one seed.
LIGHT_VERBS = {"feed": "client.feed_p50_ms", "stats": "client.stats_p50_ms",
               "ping": "client.ping_p50_ms"}


def deal(rng, spec, count):
    """`count` request lines from whole shuffled decks.  A deck holds every
    card once for every key, so each stretch of a run sends each request
    form to each key equally often: the keys differ in cost, and a verb's
    median would otherwise move with the share of its requests that drew
    the largest topology."""
    lines = []
    while len(lines) < count:
        deck = [(make, key) for make in spec["deck"] for key in spec["keys"]]
        rng.shuffle(deck)
        lines += [make(rng, key, spec["pools"]) for make, key in deck]
    return lines[:count]


def generate(workload, seed, seconds):
    """Setup lines and stream rows (conn, due_us, line) for one run."""
    spec = dict(WORKLOADS[workload])
    rng = random.Random("%s/%d" % (workload, seed))
    # Twelve candidate subsets per key, of fixed sizes 20..64.
    spec["pools"] = {key: [random_subset(rng, 20 + 4 * i) for i in range(12)]
                     for key in spec["keys"]}
    setup = [request("select", key, "algorithm=kernel-rome", "budget-frac=0.3")
             for key in spec["resident"]]
    if spec["rate"] is None:
        lines = deal(rng, spec, spec["rows"] * spec["conns"])
        return setup, [(i % spec["conns"], -1, line) for i, line in enumerate(lines)]
    due, t, end = [], 0.0, WARMUP_S + seconds
    while True:
        t += rng.expovariate(spec["rate"])
        if t >= end:
            break
        due.append(int(t * 1e6))
    lines = deal(rng, spec, len(due))
    return setup, [(i % spec["conns"], d, line)
                   for i, (d, line) in enumerate(zip(due, lines))]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "rnt_cli", "svcbench",
                  "-j", "4"])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                with open(build_log) as f:
                    log("svcbench: build failed:\n" + "".join(f.readlines()[-30:]))
                if len(steps) == 2:  # Do not keep a half-configured tree.
                    shutil.rmtree(BUILD, ignore_errors=True)
                sys.exit(2)
    return (os.path.join(BUILD, "rnt_tools", "rnt_cli"),
            os.path.join(BUILD, "svcbench"))


def raise_priority():
    """Lets the generator preempt a busy server thread as soon as a send is
    due, instead of waiting out the scheduler's time slice.  Needs
    CAP_SYS_NICE; without it the generator runs at normal priority and the
    lag check still guards the run."""
    try:
        os.setpriority(os.PRIO_PROCESS, 0, -10)
    except OSError:
        pass


class Server:
    """One `rnt_cli serve --reactor` process."""

    def __init__(self, rnt_cli, err_path):
        self.err = open(err_path, "a")
        self.proc = subprocess.Popen([rnt_cli] + SERVER_ARGS, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True)
        banner = self.proc.stdout.readline()
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)", banner)
        if not match:
            self.stop()
            raise RuntimeError("server did not start: %r" % banner)
        self.port = int(match.group(1))

    def exchange(self, lines):
        """Sends the lines pipelined on one connection; returns the replies."""
        with socket.create_connection(("127.0.0.1", self.port)) as sock:
            sock.sendall("".join(line + "\n" for line in lines).encode())
            buf = b""
            while buf.count(b"\n") < len(lines):
                chunk = sock.recv(65536)
                if not chunk:
                    raise RuntimeError("server closed the setup connection")
                buf += chunk
        return buf.decode().split("\n")[:len(lines)]

    def memory_mb(self, field):
        """VmRSS (resident now) or VmHWM (peak) of the server, in MB."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no %s for the server" % field)

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.exchange(["shutdown"])
                self.proc.wait(timeout=30)
            except (OSError, RuntimeError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def quantile(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


def read_tsv(path, fields):
    with open(path) as f:
        return [line.rstrip("\n").split("\t", fields - 1) for line in f]


def timed_results(run_dir, rows, spec, seconds):
    """(row index, latency ms, send lag ms) of the requests in the timed
    window: due in it (open loop) or sent in it (closed loop)."""
    window = (WARMUP_S * 1e6, (WARMUP_S + seconds) * 1e6)
    timed = []
    for idx, sent_us, latency_us, lag_us, _ in read_tsv(
            os.path.join(run_dir, "results.tsv"), 5):
        due_us = rows[int(idx)][1]
        start_us = int(due_us) if spec["rate"] is not None else int(sent_us)
        if window[0] <= start_us < window[1]:
            timed.append((idx, int(latency_us) / 1e3, int(lag_us) / 1e3))
    return timed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    # On SIGTERM unwind normally, so the server and any step in flight are
    # stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    rnt_cli, svcbench = build()
    run_dir = os.path.join(RUNS, "%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    setup, rows = generate(args.workload, args.seed, args.seconds)
    setup_text = "".join(line + "\n" for line in setup)
    stream_text = "".join("%d\t%d\t%s\n" % row for row in rows)
    with open(os.path.join(run_dir, "setup.txt"), "w") as f:
        f.write(setup_text)
    with open(os.path.join(run_dir, "stream.tsv"), "w") as f:
        f.write(stream_text)
    digest = hashlib.sha256((setup_text + stream_text).encode()).hexdigest()
    print("stream %s seed %d: %d setup lines, %d stream rows, sha256 %s"
          % (args.workload, args.seed, len(setup), len(rows), digest))

    # Set-up: spawn and warm SETUP_REPS times; the last server takes the load.
    setup_s, setup_replies, server = [], None, None
    try:
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            server = Server(rnt_cli, os.path.join(run_dir, "server.err"))
            replies = server.exchange(setup)
            setup_s.append(time.perf_counter() - t0)
            if setup_replies is not None and replies != setup_replies:
                log("svcbench: setup replies differ between server spawns")
                sys.exit(1)
            setup_replies = replies
            if rep + 1 < SETUP_REPS:
                server.stop()
        with open(os.path.join(run_dir, "setup_replies.txt"), "w") as f:
            f.write("".join(r + "\n" for r in setup_replies))

        for attempt in range(1, LOAD_ATTEMPTS + 1):
            load = subprocess.run(
                [svcbench, "load", "--dir", run_dir, "--port", str(server.port),
                 "--server-pid", str(server.proc.pid), "--conns", str(spec["conns"]),
                 "--warmup", str(WARMUP_S), "--seconds", str(args.seconds),
                 "--drain", str(DRAIN_S)],
                timeout=WARMUP_S + args.seconds + 2 * DRAIN_S + 30,
                preexec_fn=raise_priority)
            if load.returncode != 0:
                sys.exit(2)
            lag_p99 = quantile([lag for _, _, lag in
                                timed_results(run_dir, rows, spec, args.seconds)], 0.99)
            if spec["rate"] is None or lag_p99 <= LAG_LIMIT_MS or attempt == LOAD_ATTEMPTS:
                break
            # Stalls of the shared host held the generator back.  Repeat on
            # a fresh server, so the repeat does not start with the first
            # load's sessions and rank memo.
            log("svcbench: generator lag p99 %.3f ms exceeds %.1f ms; repeating "
                "the load on a fresh server" % (lag_p99, LAG_LIMIT_MS))
            server.stop()
            server = None
            server = Server(rnt_cli, os.path.join(run_dir, "server.err"))
            if server.exchange(setup) != setup_replies:
                log("svcbench: setup replies differ between server spawns")
                sys.exit(1)
        # Resident memory after the load, not the peak: the peak swings by
        # about 8 MB from run to run with whether two large transient
        # allocations happened to overlap on the two workers.
        rss_mb = server.memory_mb("VmRSS")
        peak_mb = server.memory_mb("VmHWM")
    finally:
        if server is not None:
            server.stop()

    check_cmd = [svcbench, "check", "--dir", run_dir]
    if args.trace:
        check_cmd += ["--trace", "--sample", str(spec["sample"])]
    check = subprocess.run(check_cmd, timeout=170)
    if check.returncode not in (0, 1):
        sys.exit(2)

    with open(os.path.join(run_dir, "load.json")) as f:
        summary = json.load(f)
    verdicts = dict(read_tsv(os.path.join(run_dir, "verdicts.tsv"), 2))
    timed = timed_results(run_dir, rows, spec, args.seconds)
    attempted, ok, latencies = len(timed), 0, {}
    for idx, latency_ms, _ in timed:
        if verdicts.get(idx) == "ok":
            ok += 1
            latencies.setdefault(rows[int(idx)][2].split(" ", 1)[0], []).append(latency_ms)
    wrong = sum(1 for v in verdicts.values() if v == "wrong")
    failed = attempted - ok
    lag_p99 = quantile([lag for _, _, lag in timed], 0.99)
    everything = [x for values in latencies.values() for x in values]
    print("%s: attempted %d, ok %d, failed_fraction %.6f, wrong %d, gen.lag_p99_ms %.3f, "
          "server peak RSS %.1f MB"
          % (args.workload, attempted, ok, failed / max(attempted, 1), wrong, lag_p99, peak_mb))
    if spec["rate"] is not None and lag_p99 > LAG_LIMIT_MS:
        log("svcbench: invalid run: generator lag p99 %.3f ms exceeds %.1f ms"
            % (lag_p99, LAG_LIMIT_MS))
        sys.exit(3)
    if attempted == 0:
        log("svcbench: no request was sent in the timed window")
        sys.exit(2)

    if args.trace:
        with open(os.path.join(run_dir, "trace.json")) as f:
            metrics = {name: (m["value"], m["unit"]) for name, m in json.load(f).items()}
        metrics["gen.lag_p99_ms"] = (lag_p99, "ms")
        metrics["gen.requests"] = (attempted, "count")
        for verb, name in LIGHT_VERBS.items():
            metrics[name] = (quantile(latencies.get(verb, []), 0.5), "ms")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "throughput_rps": (ok / args.seconds, "1/s"),
            "latency_p50_ms": (quantile(everything, 0.5), "ms"),
            "latency_p99_ms": (quantile(everything, 0.99), "ms"),
            "ok_fraction": (ok / attempted, "fraction"),
            "server_cpu_ms_per_req": (1e3 * summary["server_cpu_s"]
                                      / max(summary["cpu_window_replies"], 1), "ms"),
            "server_rss_mb": (rss_mb, "MB"),
        }
        for verb, name in E2E_VERBS.items():
            metrics[name] = (quantile(latencies.get(verb, []), 0.5), "ms")
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    sys.exit(0 if wrong == 0 else 1)


if __name__ == "__main__":
    main()
