#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ncg_perfbench.exe and
bin/ncg_served.exe with dune, runs one workload, checks its outputs and
prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Workloads:

  sweep-paper    Experiment.sweep of the paper's n = 100 tree grid, 1 domain
  sweep-wide     Experiment.sweep of n = 2000 trees at k in {1, 2}, 2 domains
  service-mixed  ncg_served --workers 1 under a closed loop of 2 outstanding
                 jobs: one third read from a pre-filled store, two thirds
                 computed and inserted

Everything a run writes (stores, sockets, plans, logs) lives in a
per-run directory under .perfbench_tmp/ that is removed on exit; the
daemon is stopped on every exit path. The exit code is non-zero when an
output check fails or the run cannot complete.
"""

import argparse
import ctypes
import json
import os
import queue
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BENCH_EXE = "_build/default/perfbench/ncg_perfbench.exe"
SERVED_EXE = "_build/default/bin/ncg_served.exe"
TMP_ROOT = ".perfbench_tmp"
SWEEPS = ("sweep-paper", "sweep-wide")
SERVICE = "service-mixed"

# Daemon starts timed for setup_s; the last one serves the load.
SERVICE_STARTS = 5
# Sampled cells (hot, fresh) recomputed in-process for the row check; a
# traced run also replays their trajectories.
CHECK_CELLS = {0: (3, 4), 1: (3, 8)}
CELLS_PER_JOB = 4
# Per-layer metrics that only the service has; sweeps report 0.
SERVICE_ONLY = (
    "store.hits", "store.misses", "store.inserts", "queue.leases",
    "svc.cache_hits", "svc.dedup_hits", "svc.submit_rtt_ms_p50",
    "svc.results_rtt_ms_p50", "svc.hit_job_ms_p50",
)


class BenchError(Exception):
    pass


# A run must end within 180 s of the build finishing; set by main().
deadline = None


def remaining(cap):
    """Seconds left before the run's deadline, at most [cap]."""
    left = deadline - time.monotonic()
    if left <= 1:
        raise BenchError("out of time")
    return min(cap, left)


def die_with_parent():
    """preexec_fn: the child gets SIGTERM if the benchmark itself dies,
    even by SIGKILL (prctl PR_SET_PDEATHSIG)."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM, 0, 0, 0)


def now_ns():
    # CLOCK_MONOTONIC, the clock of the daemon's event timestamps.
    return time.monotonic_ns()


def log(msg):
    print(msg, flush=True)


# --- build and in-process helpers ------------------------------------------


def build():
    for path in ("dune-project", "lib", "bin/ncg_served.ml", "perfbench/dune"):
        if not os.path.exists(path):
            raise BenchError("not a checkout of the repository (missing %s)" % path)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", BENCH_EXE[len("_build/default/"):],
             SERVED_EXE[len("_build/default/"):]],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=840)
    except FileNotFoundError:
        raise BenchError("dune is not installed")
    except subprocess.TimeoutExpired:
        raise BenchError("build timed out")
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout.decode(errors="replace")[-4000:])


def helper(args, tmp, timeout):
    env = dict(os.environ, TMPDIR=tmp)
    try:
        r = subprocess.run([BENCH_EXE] + args, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, timeout=remaining(timeout),
                           preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % args[0])
    if r.returncode != 0:
        raise BenchError("%s failed: %s"
                         % (args[0], r.stderr.decode(errors="replace")[-2000:]))
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


# --- sweeps ----------------------------------------------------------------


def run_sweep(args, tmp):
    out = helper(["sweep", "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)],
                 tmp, 170)
    traj = out["traj_ms"]
    tail_p, tail_v = stats.tail(traj)
    e2e = {
        "throughput_per_s": len(traj) / sum(out["pass_wall_s"]),
        "latency_ms_p50": stats.median(traj),
        "latency_ms_tail": tail_v,
        "setup_s": stats.median(out["setup_s"]),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    log("workload %s: %d passes x %d trajectories on %d domain(s), csv md5 %s"
        % (args.workload, out["passes"], len(traj) // out["passes"], out["domains"],
           out["csv_md5"]))
    log("latency = per-trajectory wall (trial span); tail = p%d over %d samples"
        % (tail_p, len(traj)))
    layers = {}
    if args.trace:
        layers.update(out["layers"])
        layers.update(out["counts"])
        layers["executor.busy_frac"] = out["busy_frac"]
        layers["queue.wait_ms_p50"] = stats.median(out["queue_wait_ms"])
        layers["cell.run_ms_p50"] = stats.median(out["cell_run_ms"])
        for name in SERVICE_ONLY:
            layers[name] = 0
        share_table("cell wall = harness + Dynamics.run (split by replay shares)",
                    out["shares"], out["shares_wall_s"])
    return out["attempted"], out["failed"], out["failures"], e2e, layers


def share_table(title, rows, wall_s):
    total = sum(v for _, v in rows)
    log("share table: %s" % title)
    for name, v in rows:
        log("  %-22s %10.4f s %6.1f%%" % (name, v, 100.0 * v / wall_s if wall_s else 0.0))
    log("  %-22s %10.4f s %6.1f%% of traced wall %.4f s" % (
        "sum", total, 100.0 * total / wall_s if wall_s else 0.0, wall_s))


# --- service ---------------------------------------------------------------


class Conn:
    """One newline-delimited JSON connection to the daemon."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.rfile = self.sock.makefile("rb")

    def send(self, obj):
        self.sock.sendall(json.dumps(obj, separators=(",", ":")).encode() + b"\n")

    def recv(self):
        line = self.rfile.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        return json.loads(line)

    def rpc(self, obj):
        self.send(obj)
        return self.recv()

    def close(self):
        for f in (self.rfile.close, lambda: self.sock.shutdown(socket.SHUT_RDWR),
                  self.sock.close):
            try:
                f()
            except OSError:
                pass


class Daemon:
    def __init__(self, store, sock, log_path):
        self.sock_path = sock
        with open(log_path, "ab") as log_file:
            self.proc = subprocess.Popen(
                [SERVED_EXE, "--listen", "unix:" + sock, "--store", store, "--workers", "1",
                 "--quiet"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log_file,
                preexec_fn=die_with_parent)

    def connect(self, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise BenchError("ncg_served exited during start-up (code %s)"
                                 % self.proc.returncode)
            try:
                return Conn(self.sock_path)
            except OSError:
                if time.monotonic() > deadline:
                    raise BenchError("ncg_served did not start listening")
                time.sleep(0.0005)

    def vmhwm_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class EventReader(threading.Thread):
    """Reads the subscribe stream; queues the service.* lifecycle events."""

    def __init__(self, conn):
        super().__init__(daemon=True)
        self.conn = conn
        self.events = queue.Queue()

    def run(self):
        try:
            for line in self.conn.rfile:
                if b'"service.' in line:
                    self.events.put(json.loads(line))
        except (OSError, ValueError):
            pass
        self.events.put(None)

    def drain(self):
        out = []
        while True:
            try:
                ev = self.events.get_nowait()
            except queue.Empty:
                return out
            if ev is not None:
                out.append(ev)


def start_daemons(plan, store, tmp, daemons):
    """setup_s samples: spawn -> first answered hello, each start replaying
    the pre-filled store log. The last daemon stays up for the load."""
    setup = []
    for i in range(SERVICE_STARTS):
        t0 = now_ns()
        d = Daemon(store, os.path.join(tmp, "d%d.sock" % i), os.path.join(tmp, "daemon.log"))
        daemons.append(d)
        req = d.connect()
        if not req.rpc(plan["hello"]).get("ok"):
            raise BenchError("hello refused")
        setup.append((now_ns() - t0) / 1e9)
        if i < SERVICE_STARTS - 1:
            req.close()
            d.stop()
    return setup, daemons[-1], req


def closed_loop(plan, req, reader):
    """Keeps two jobs outstanding on [req]; a job is complete at its
    service.job_done event, then its rows are fetched with a results
    request. Returns one record per job, in submission order, and every
    service event seen."""
    jobs = plan["jobs"]
    records, pending, done_ev, events = [], {}, {}, []
    submitted = 0
    while len(records) < len(jobs):
        while len(pending) < 2 and submitted < len(jobs):
            job = jobs[submitted]
            submitted += 1
            rec = {"hot": job["hot"], "spec_cells": job["cells"], "seed": job["seed"],
                   "rows": None, "t_send": now_ns()}
            reply = req.rpc(job["submit"])
            rec["t_reply"] = now_ns()
            if not reply.get("ok"):
                records.append(rec)
                continue
            rec.update(job_id=reply["job"], cached=reply["cached"], queued=reply["queued"])
            pending[reply["job"]] = rec
        ready = sorted(j for j in pending if j in done_ev)
        if not ready:
            if not pending:
                continue
            try:
                ev = reader.events.get(timeout=remaining(60))
            except queue.Empty:
                raise BenchError("no service event for 60 s")
            if ev is None:
                raise BenchError("event stream closed")
            events.append(ev)
            if ev.get("event") == "service.job_done":
                done_ev[ev["job"]] = ev
            continue
        rec = pending.pop(ready[0])
        rec["t_done"] = done_ev[ready[0]]["ts_ns"]
        rec["t_rsend"] = now_ns()
        reply = req.rpc(dict(plan["results"], job=rec["job_id"]))
        rec["t_end"] = now_ns()
        if reply.get("ok") and not reply.get("quarantined"):
            rec["rows"] = reply["rows"]
        records.append(rec)
    return records, events


def run_service(args, tmp, daemons):
    plan_path = os.path.join(tmp, "plan.json")
    store = os.path.join(tmp, "store")
    helper(["service-prepare", "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--store", store, "--out", plan_path], tmp, 120)
    with open(plan_path) as f:
        plan = json.load(f)
    setup, daemon, req = start_daemons(plan, store, tmp, daemons)
    sub = daemon.connect()
    if not sub.rpc(plan["subscribe"]).get("ok"):
        raise BenchError("subscribe refused")
    reader = EventReader(sub)
    reader.start()

    t_start = now_ns()
    records, events = closed_loop(plan, req, reader)
    wall_s = (now_ns() - t_start) / 1e9
    st = req.rpc(plan["stats"])
    peak_kb = daemon.vmhwm_kb()
    req.close()
    daemon.stop()
    sub.close()
    reader.join(timeout=10)
    events += reader.drain()

    done = [r for r in records if r["rows"] is not None]
    lat = [(r["t_end"] - r["t_send"]) / 1e6 for r in done]
    tail_p, tail_v = stats.tail(lat)
    e2e = {
        "throughput_per_s": len(done) / wall_s,
        "latency_ms_p50": stats.median(lat),
        "latency_ms_tail": tail_v,
        "setup_s": stats.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    hot = sum(1 for r in records if r["hot"])
    fresh = len(records) - hot
    log("workload %s: %d jobs (%d read from the store, %d computed), %d prefilled cells"
        % (SERVICE, len(records), hot, fresh, plan["prefilled"]))
    log("latency = submit sent -> results reply; tail = p%d over %d samples"
        % (tail_p, len(lat)))

    attempted = len(records)
    failed = len(records) - len(done)
    failures = []
    if failed:
        failures.append({"check": "service.jobs",
                         "detail": "%d jobs refused, quarantined or not done" % failed})

    def check(name, ok, detail):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append({"check": name, "detail": detail})

    # Exact counts: hot cells are all in the store and fresh seeds never
    # repeat, so every count is a function of the job plan.
    leases = [e for e in events if e.get("event") == "service.lease"]
    counters, store_st = st.get("counters", {}), st.get("store", {})
    counts = {
        "store.hits": store_st.get("hits"),
        "store.misses": store_st.get("misses"),
        "store.inserts": store_st.get("inserts"),
        "svc.cache_hits": counters.get("cache_hits"),
        "svc.dedup_hits": counters.get("dedup_hits"),
        "queue.leases": len(leases),
    }
    want = {
        "store.hits": CELLS_PER_JOB * hot,
        "store.misses": CELLS_PER_JOB * fresh,
        "store.inserts": CELLS_PER_JOB * fresh,
        "svc.cache_hits": CELLS_PER_JOB * hot,
        "svc.dedup_hits": 0,
        "queue.leases": CELLS_PER_JOB * fresh,
    }
    for name in want:
        check("counts." + name, counts[name] == want[name],
              "got %s, expected %s" % (counts[name], want[name]))

    # Row check: for a seeded sample of cells, hot and fresh, every job's
    # row equals Sweep_spec.csv_row (Sweep_spec.run_cell spec cell).
    by_cell = {}
    for r in done:
        for (ai, ki), row in zip(r["spec_cells"], r["rows"]):
            by_cell.setdefault((r["seed"], ai, ki, r["hot"]), []).append(row)
    rng = random.Random(args.seed)
    sample = []
    for is_hot, n in zip((True, False), CHECK_CELLS[args.trace]):
        keys = sorted(k for k in by_cell if k[3] == is_hot)
        sample += rng.sample(keys, min(n, len(keys)))
    check_path = os.path.join(tmp, "check.json")
    with open(check_path, "w") as f:
        json.dump({"cells": [{"seed": s, "ai": ai, "ki": ki} for (s, ai, ki, _) in sample]}, f)
    checked = helper(["service-check", "--in", check_path, "--trace", str(args.trace)],
                     tmp, 150)
    attempted += checked["attempted"]
    failed += checked["failed"]
    failures += checked["failures"]
    for key, want_row in zip(sample, checked["rows"]):
        for row in by_cell[key]:
            check("csv.service", row == want_row, "seed=%d cell=%d,%d" % key[:3])

    layers = {}
    if args.trace:
        layers.update(checked["layers"])
        layers.update(checked["counts"])
        layers.update(counts)
        layers.update(service_layers(records, events, wall_s))
        share_table("sampled cells recomputed in-process "
                    "(harness + Dynamics.run split by replay shares)",
                    checked["shares"], checked["shares_wall_s"])
    return attempted, failed, failures, e2e, layers


def service_layers(records, events, wall_s):
    """Queue, worker and protocol timings from the event stream, and the
    stage table of job latency."""
    completes = {e["task"]: e["ts_ns"] for e in events if e.get("event") == "service.complete"}
    # Work_queue ids are assigned in enqueue order, so the k-th smallest
    # leased task is the k-th cell enqueued by a submit.
    owners = []
    for r in records:
        owners += [r] * r.get("queued", 0)
    lease_ts = {}
    for e in events:
        if e.get("event") == "service.lease":
            lease_ts.setdefault(e["task"], e["ts_ns"])
    tasks = sorted(lease_ts)
    submits = {e["job"]: e["ts_ns"] for e in events if e.get("event") == "service.submit"}
    waits, runs, intervals = [], [], []
    for task, owner in zip(tasks, owners):
        waits.append((lease_ts[task] - submits.get(owner["job_id"], owner["t_reply"])) / 1e6)
        if task in completes:
            runs.append((completes[task] - lease_ts[task]) / 1e6)
            intervals.append((lease_ts[task], completes[task], owner["job_id"]))
    busy = sum(b - a for a, b, _ in intervals)

    stages = dict.fromkeys(("protocol.submit", "queue.wait", "worker.run",
                            "daemon.other", "delivery", "protocol.results"), 0)
    done = [r for r in records if r["rows"] is not None]
    for r in done:
        ready = max(r["t_done"], r["t_reply"])
        own = other = 0
        for a, b, job in intervals:
            overlap = min(b, ready) - max(a, r["t_reply"])
            if overlap > 0:
                if job == r["job_id"]:
                    own += overlap
                else:
                    other += overlap
        stages["protocol.submit"] += r["t_reply"] - r["t_send"]
        stages["worker.run"] += own
        stages["queue.wait"] += other
        stages["daemon.other"] += ready - r["t_reply"] - own - other
        stages["delivery"] += r["t_rsend"] - ready
        stages["protocol.results"] += r["t_end"] - r["t_rsend"]
    total = sum(r["t_end"] - r["t_send"] for r in done)
    share_table("sum of job latency by stage",
                [(k, v / 1e9) for k, v in stages.items()], total / 1e9)

    hits = [(r["t_end"] - r["t_send"]) / 1e6 for r in done if r["cached"] == len(r["spec_cells"])]
    return {
        "executor.busy_frac": busy / 1e9 / wall_s,
        "queue.wait_ms_p50": stats.median(waits) if waits else 0.0,
        "cell.run_ms_p50": stats.median(runs) if runs else 0.0,
        "svc.submit_rtt_ms_p50": stats.median([(r["t_reply"] - r["t_send"]) / 1e6 for r in done]),
        "svc.results_rtt_ms_p50": stats.median([(r["t_end"] - r["t_rsend"]) / 1e6 for r in done]),
        "svc.hit_job_ms_p50": stats.median(hits) if hits else 0.0,
    }


# --- main ------------------------------------------------------------------


def metric_specs():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def main():
    global deadline
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=SWEEPS + (SERVICE,))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    daemons = []
    tmp = None
    try:
        end_to_end, per_layer = metric_specs()
        build()
        deadline = time.monotonic() + 170
        os.makedirs(TMP_ROOT, exist_ok=True)
        tmp = os.path.join(TMP_ROOT, "%s-%d" % (args.workload, os.getpid()))
        os.makedirs(tmp)
        if args.workload == SERVICE:
            attempted, failed, failures, e2e, layers = run_service(args, tmp, daemons)
        else:
            attempted, failed, failures, e2e, layers = run_sweep(args, tmp)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        for d in daemons:
            d.stop()
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    specs = per_layer if args.trace else end_to_end
    values = layers if args.trace else e2e
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        print("perfbench: metrics not produced: %s" % ", ".join(missing), file=sys.stderr)
        return 1
    log("error_rate = %d failed / %d attempted" % (failed, attempted))
    for f in failures:
        log("FAILED %s: %s" % (f["check"], f["detail"]))
    metrics = {}
    for m in specs:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        log("  %-26s %16.6f %s" % (m["name"], v, m["unit"]))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
