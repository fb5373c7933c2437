"""The geobox benchmark: one workload, measured from outside the program.

    python3 bench/run.py --workload cold-run|warm-run|rescore --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every input is generated from ``--seed``
before any timing starts (see ``gen.py``). Each round starts geobox as a
fresh child process through its real CLI, takes its CPU time and peak
memory from the child's own rusage, and checks its outputs (see
``check.py``). Rounds repeat until ``--seconds`` have passed; the
reported figure of each metric is its median over rounds.

With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced
and traced, and it holds the per-layer metrics instead. The line before
it records the host's steal and other tenants' CPU time over the run,
read from /proc/stat. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import check
import child
import gen

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

PARALLELISM = 2
MIN_ROUNDS = 3
ROUND_FIGURES = ("records_per_s", "cpu_ms_per_record", "setup_s", "peak_rss_mb", "wall_s")

SPAN_NAMES = sorted({name for _, _, name in child.SPANS})
_RUN_SPANS = {
    "pipeline.run_record",
    "pipeline.run_experiment",
    "netutil.atomic_write_text",
    "dataset.write_predictions",
    "reasoner.build_prompt",
    "reasoner.cache_key",
    "reasoner.ChatClient.complete",
    "dataset.load_dataset",
}
# Spans that must record calls on each workload: those whose metrics the
# README's layer table expects to move there.
REQUIRED_SPANS = {
    "cold-run": _RUN_SPANS | {"netutil.request_json", "netutil.JsonlCache.put"},
    "warm-run": _RUN_SPANS
    | {
        "netutil.JsonlCache.get",
        "netutil.JsonlCache.load",
        "reasoner.extract_prediction",
        "parsing.parse_bbox",
    },
    "rescore": {
        "dataset.load_dataset",
        "dataset.read_predictions",
        "metrics.aggregate",
        "analysis.analyze_errors",
    },
}
REQUIRED_COUNTS = {"rescore": {"geo.bbox_area_km2", "geo.bbox_intersection"}}


class Problems(list):
    """Check failures; any entry makes the run's ``correct`` false."""

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


# --- host and child measurement --------------------------------------------


def cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (read only)."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def own_cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def host_share(before: list[int], after: list[int], own_s: float) -> dict:
    """Steal, and CPU busy outside this benchmark's processes, as % of all CPU time."""
    d = [b - a for a, b in zip(before, after)]
    total = sum(d[:8]) or 1  # user nice system idle iowait irq softirq steal
    busy = d[0] + d[1] + d[2] + d[5] + d[6]
    own = own_s * os.sysconf("SC_CLK_TCK")
    return {
        "steal_pct": round(100.0 * d[7] / total, 2),
        "other_tenants_cpu_pct": round(100.0 * (busy - own) / total, 2),
        "busy_pct": round(100.0 * busy / total, 2),
    }


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("LLM_API_KEY", None)
    env.pop("LLM_API_BASE", None)
    return env


def split_cpus() -> set[int]:
    """Keep the last CPU of this process's set for geobox; move this process, and so the simulator, off it.

    geobox's threads then hand its interpreter lock over on one core,
    and the simulator, like a remote endpoint, does not compete with it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set()
    os.sched_setaffinity(0, cpus[:-1])
    return {cpus[-1]}


# Busy loop at the lowest scheduling priority (SCHED_IDLE, set on itself).
_SPIN = "import os\nos.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\nwhile True:\n    pass\n"


def start_spinners(cpus: list[int]) -> list[subprocess.Popen]:
    """Keep each CPU busy with a loop that yields at once to any other thread.

    An idle vCPU halts, and waking it for a reply or a timer costs a delay
    set by the hypervisor's load. cold-run wakes a CPU several times per
    call, and without these loops its records/s spread by up to 27%
    across runs of the same code. A SCHED_IDLE loop runs only when
    nothing else wants its CPU and is preempted by any thread that wakes
    there, so the CPUs never halt and geobox's own CPU time excludes it.
    """
    spinners = []
    for cpu in cpus:
        proc = subprocess.Popen([sys.executable, "-c", _SPIN])
        os.sched_setaffinity(proc.pid, {cpu})
        spinners.append(proc)
    return spinners


def run_geobox(work: str, tag: str, cli_args: list[str], trace: bool, cpus: set[int]) -> dict:
    """Run one geobox command as a fresh process on ``cpus``; time it and read its rusage."""
    marks_path = os.path.join(work, f"{tag}.marks.json")
    trace_path = os.path.join(work, f"{tag}.trace.json") if trace else "-"
    argv = [sys.executable, os.path.join(BENCH, "child.py"), marks_path, trace_path, *cli_args]
    with open(os.path.join(work, f"{tag}.out"), "wb") as out, open(os.path.join(work, f"{tag}.err"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=work)
        if cpus:
            os.sched_setaffinity(proc.pid, cpus)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(os.path.join(work, f"{tag}.err"), encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-2000:])
        return {"exit": proc.returncode}
    with open(marks_path, encoding="utf-8") as fh:
        marks = json.load(fh)
    if not os.path.abspath(marks["geobox"]).startswith(SRC + os.sep):
        raise SystemExit(f"geobox was imported from {marks['geobox']}, not from {SRC}")
    setup = marks["work_start"] - start + marks["late_load_s"]
    result = {
        "exit": 0,
        "wall_s": end - start,
        "setup_s": setup,
        "work_s": end - start - setup,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }
    if trace:
        with open(trace_path, encoding="utf-8") as fh:
            result["trace"] = json.load(fh)
    return result


def combine(parts: list[dict], n: int) -> dict:
    """One round's end-to-end figures from its geobox processes."""
    work = sum(p["work_s"] for p in parts)
    return {
        "records_per_s": n / work,
        "cpu_ms_per_record": 1000.0 * sum(p["cpu_s"] for p in parts) / n,
        "setup_s": sum(p["setup_s"] for p in parts),
        "peak_rss_mb": max(p["rss_mb"] for p in parts),
        "wall_s": sum(p["wall_s"] for p in parts),
    }


# --- the endpoint simulator ------------------------------------------------


class Sim:
    def __init__(self, truth_path: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "sim.py"), "--truth", truth_path],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise SystemExit("endpoint simulator did not start")
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}/v1"

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


# --- workloads -------------------------------------------------------------


class RunWorkload:
    """``geobox run --approach end-to-end`` against the simulator, cold or warm cache."""

    def __init__(self, name: str, work: str, seed: int, problems: Problems, cpus: set[int]) -> None:
        self.name = name
        self.work = work
        self.problems = problems
        self.cpus = cpus
        self.n = gen.RECORDS[name]
        rows, truth = gen.write_run_set(work, seed, self.n)
        self.dataset = os.path.join(work, "dataset.jsonl")
        self.expected = gen.expected_run(truth)
        self.retries = gen.planted_retries(truth)
        self.scores = check.scores(self.expected, {r["id"]: r["gold_bbox"] for r in rows})
        self.sim = Sim(os.path.join(work, "truth.json"))
        self.reference = None
        if name == "warm-run":
            # fill the cache with one cold run, outside any timing
            self.cache = os.path.join(work, "cache")
            self.round("fill", trace=False, cold=True)
            self.reference = self._read(os.path.join(self.work, "fill.pred.jsonl"))
            self.cache_sizes = self._cache_sizes()

    def _cache_sizes(self) -> dict:
        return {f: os.path.getsize(os.path.join(self.cache, f)) for f in sorted(os.listdir(self.cache))}

    @staticmethod
    def _read(path: str) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    def round(self, tag: str, trace: bool, cold: bool | None = None) -> dict:
        cold = self.name == "cold-run" if cold is None else cold
        if self.name == "cold-run":
            self.cache = os.path.join(self.work, f"cache-{tag}")
        pred = os.path.join(self.work, f"{tag}.pred.jsonl")
        report = os.path.join(self.work, f"{tag}.report.json")
        before = self.sim.stats()
        res = run_geobox(
            self.work,
            tag,
            [
                "run", "--approach", gen.APPROACH, "--model", gen.MODEL,
                "--dataset", self.dataset, "--llm-base", self.sim.url,
                "--cache-dir", self.cache, "--parallelism", str(PARALLELISM), "--backoff", "0",
                "--predictions", pred, "--report-out", report,
            ],
            trace,
            self.cpus,
        )
        after = self.sim.stats()
        sim_requests = after["requests"] - before["requests"]
        refused = after["refused"] - before["refused"]
        sim_ms = after["service_ms"] - before["service_ms"]
        p = self.problems
        if res["exit"] != 0:
            p.append(f"{tag}: geobox run exited {res['exit']}")
            return {"n": self.n, "failed": self.n}
        failed = check.failed_records(pred, self.expected)
        with open(report, encoding="utf-8") as fh:
            for wrong in check.compare_scores(json.load(fh), self.scores):
                p.append(f"{tag}: report {wrong}")
        # every record makes two calls; each planted refusal adds one retry
        want_retries = self.retries if cold else 0
        want_requests = 2 * self.n + want_retries if cold else 0
        p.expect(sim_requests == want_requests, f"{tag}: {sim_requests} requests, expected {want_requests}")
        p.expect(refused == want_retries, f"{tag}: {refused} refused requests, expected {want_retries}")
        if self.name == "warm-run" and not cold:
            p.expect(self._read(pred) == self.reference, f"{tag}: warm predictions differ from the cold run's")
            p.expect(self._cache_sizes() == self.cache_sizes, f"{tag}: a warm run wrote to the cache")
        if self.name == "cold-run":
            shutil.rmtree(self.cache)
        out = combine([res], self.n)
        out.update(n=self.n, failed=len(failed), sim_requests=sim_requests, sim_ms=sim_ms)
        if trace:
            out["traces"] = [res["trace"]]
            stats = res["trace"]["chat_stats"]
            hits = stats.get("cache_hits", 0) / max(1, stats.get("cache_hits", 0) + stats.get("requests", 0))
            p.expect(hits == (0.0 if cold else 1.0), f"{tag}: cache hit ratio {hits}")
            for retries in (res["trace"]["retries"], stats.get("retries", 0)):
                p.expect(retries == want_retries, f"{tag}: {retries} retries, expected {want_retries}")
        return out

    def close(self) -> None:
        self.sim.close()


class RescoreWorkload:
    """``geobox eval`` then ``geobox analyze`` over a planted predictions file."""

    def __init__(self, name: str, work: str, seed: int, problems: Problems, cpus: set[int]) -> None:
        self.work = work
        self.problems = problems
        self.cpus = cpus
        self.n = gen.RECORDS["rescore"]
        rows, preds, self.probes = gen.write_rescore_set(work, seed, self.n)
        self.dataset = os.path.join(work, "rescore_dataset.jsonl")
        self.predictions = os.path.join(work, "rescore_predictions.jsonl")
        self.scores = check.scores(preds, {r["id"]: r["gold_bbox"] for r in rows})

    def round(self, tag: str, trace: bool) -> dict:
        report = os.path.join(self.work, f"{tag}.report.json")
        errors = os.path.join(self.work, f"{tag}.errors.json")
        common = ["--predictions", self.predictions, "--dataset", self.dataset]
        ev = run_geobox(self.work, f"{tag}.eval", ["eval", *common, "--report-out", report], trace, self.cpus)
        an = run_geobox(self.work, f"{tag}.analyze", ["analyze", *common, "--out", errors], trace, self.cpus)
        p = self.problems
        if ev["exit"] != 0 or an["exit"] != 0:
            p.append(f"{tag}: eval exited {ev['exit']}, analyze exited {an['exit']}")
            return {"n": self.n, "failed": self.n}
        with open(report, encoding="utf-8") as fh:
            wrong = [f"{tag}: report {w}" for w in check.compare_scores(json.load(fh), self.scores)]
        with open(errors, encoding="utf-8") as fh:
            got = json.load(fh)
        if got != self.probes:
            wrong.append(f"{tag}: probe counts {got}, expected {self.probes}")
        p.extend(wrong)
        out = combine([ev, an], self.n)
        # the figures are set-level, so a wrong one fails every scored record
        out.update(n=self.n, failed=self.n if wrong else 0, sim_requests=0, sim_ms=0.0)
        if trace:
            out["traces"] = [ev["trace"], an["trace"]]
        return out

    def close(self) -> None:
        pass


WORKLOADS = {"cold-run": RunWorkload, "warm-run": RunWorkload, "rescore": RescoreWorkload}


# --- per-layer metrics from spans ------------------------------------------


def _union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    covered, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def span_table(trace: dict) -> dict[str, list[tuple[float, float]]]:
    """Per span name: (duration ms, self ms) of every call in one process."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, _, parent, _ in trace["spans"]:
        children.setdefault(parent, []).append((start, end))
    table: dict[str, list[tuple[float, float]]] = {}
    for name, start, end, span_id, _, _ in trace["spans"]:
        own = end - start - _union_ns(children.get(span_id, []), start, end)
        table.setdefault(name, []).append(((end - start) / 1e6, own / 1e6))
    return table


def layer_metrics(workload: str, rounds: list[dict], plain: list[dict], problems: Problems) -> dict:
    traced = [r for r in rounds if "traces" in r]
    calls: dict[str, list] = {name: [] for name in SPAN_NAMES}
    per_round: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
    counts: dict[str, int] = {}
    retries = hits = requests = 0
    for r in traced:
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for trace in r["traces"]:
            for name, rows in span_table(trace).items():
                calls.setdefault(name, []).extend(rows)
                totals[name] = totals.get(name, 0.0) + sum(d for d, _ in rows)
            for name, value in trace["counts"].items():
                counts[name] = counts.get(name, 0) + value
            retries += trace["retries"]
            hits += trace["chat_stats"].get("cache_hits", 0)
            requests += trace["chat_stats"].get("requests", 0)
        for name, total in totals.items():
            per_round.setdefault(name, []).append(total / 1000.0)

    k = len(traced)
    for name in REQUIRED_SPANS[workload]:
        problems.expect(bool(calls.get(name)), f"trace: span {name} recorded no calls on {workload}")
    for name in REQUIRED_COUNTS.get(workload, ()):
        problems.expect(counts.get(name, 0) > 0, f"trace: {name} counted no calls on {workload}")

    def mean_ms(name: str, which: int) -> float:
        rows = calls.get(name, [])
        return sum(row[which] for row in rows) / len(rows) if rows else 0.0

    def med_s(name: str) -> float:
        return statistics.median(per_round[name])

    record_ms = sorted(d for d, _ in calls["pipeline.run_record"])
    sim_requests = sum(r["sim_requests"] for r in traced)
    return {
        "pipeline.run_record.p50_ms": (statistics.median(record_ms) if record_ms else 0.0, "ms"),
        "pipeline.run_record.p95_ms": (statistics.quantiles(record_ms, n=20)[18] if len(record_ms) > 1 else 0.0, "ms"),
        "pipeline.run_experiment.s": (med_s("pipeline.run_experiment"), "s"),
        "netutil.request_json.ms": (mean_ms("netutil.request_json", 0), "ms"),
        "netutil.request_json.calls": (len(calls["netutil.request_json"]) / k, "count"),
        "netutil.request_json.retries": (retries / k, "count"),
        "sim.requests": (sim_requests / k, "count"),
        "sim.service_ms": (sum(r["sim_ms"] for r in traced) / sim_requests if sim_requests else 0.0, "ms"),
        "netutil.JsonlCache.put.ms": (mean_ms("netutil.JsonlCache.put", 0), "ms"),
        "netutil.JsonlCache.put.calls": (len(calls["netutil.JsonlCache.put"]) / k, "count"),
        "netutil.JsonlCache.get.ms": (mean_ms("netutil.JsonlCache.get", 0), "ms"),
        "netutil.JsonlCache.load_s": (med_s("netutil.JsonlCache.load"), "s"),
        "netutil.atomic_write_text.ms": (mean_ms("netutil.atomic_write_text", 0), "ms"),
        "dataset.write_predictions.s": (med_s("dataset.write_predictions"), "s"),
        "reasoner.build_prompt.self_ms": (mean_ms("reasoner.build_prompt", 1), "ms"),
        "reasoner.build_prompt.calls": (len(calls["reasoner.build_prompt"]) / k, "count"),
        "reasoner.cache_key.self_ms": (mean_ms("reasoner.cache_key", 1), "ms"),
        "reasoner.ChatClient.complete.self_ms": (mean_ms("reasoner.ChatClient.complete", 1), "ms"),
        "reasoner.cache_hit_ratio": (hits / (hits + requests) if hits + requests else 0.0, "ratio"),
        "reasoner.extract_prediction.self_ms": (mean_ms("reasoner.extract_prediction", 1), "ms"),
        "parsing.parse_bbox.self_ms": (mean_ms("parsing.parse_bbox", 1), "ms"),
        "dataset.load_dataset.s": (med_s("dataset.load_dataset"), "s"),
        "dataset.read_predictions.s": (med_s("dataset.read_predictions"), "s"),
        "metrics.aggregate.s": (med_s("metrics.aggregate"), "s"),
        "analysis.analyze_errors.s": (med_s("analysis.analyze_errors"), "s"),
        "geo.bbox_area_km2.calls": (counts.get("geo.bbox_area_km2", 0) / k, "count"),
        "geo.bbox_intersection.calls": (counts.get("geo.bbox_intersection", 0) / k, "count"),
        "trace.overhead_pct": (
            100.0 * (statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain) - 1.0),
            "%",
        ),
    }


# --- main ------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the geobox benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "geobox", "cli.py")):
        print(f"error: no geobox sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    began = time.monotonic()
    # from the start, so that the simulator's CPU time, counted in
    # own_cpu_s only once it is reaped at the end, is all inside the window
    ticks0, own0 = cpu_ticks(), own_cpu_s()
    work = os.path.join(BENCH, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    problems = Problems()
    workload = None
    spinners = start_spinners(sorted(os.sched_getaffinity(0)))
    try:
        # compile bytecode once, as any installed copy would have it
        subprocess.run([sys.executable, "-c", "import geobox.cli"], env=child_env(), check=True)
        workload = WORKLOADS[args.workload](args.workload, work, args.seed, problems, split_cpus())
        rounds: list[dict] = []
        start = time.monotonic()
        prepared_s = start - began
        while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            r = workload.round(f"round{len(rounds)}", traced)
            rounds.append(r)
            print(
                f"round {len(rounds)}{' traced' if traced else ''}: {r['n']} records, {r['failed']} failed, "
                + ", ".join(f"{k} {r[k]:.4g}" for k in ROUND_FIGURES if k in r),
                flush=True,
            )
    finally:
        if workload is not None:
            workload.close()
        for proc in spinners:
            proc.kill()
            proc.wait()
    measured_s = time.monotonic() - start
    host = host_share(ticks0, cpu_ticks(), own_cpu_s() - own0)
    shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["n"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    timed = [r for r in rounds if "wall_s" in r and "traces" not in r]
    if args.trace:
        metrics = layer_metrics(args.workload, rounds, timed, problems)
    else:
        metrics = {
            name: (statistics.median(r[name] for r in timed), unit)
            for name, unit in (
                ("records_per_s", "1/s"),
                ("cpu_ms_per_record", "ms"),
                ("setup_s", "s"),
                ("peak_rss_mb", "MB"),
            )
        }
    for message in problems:
        print(f"check failed: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(
        f"{args.workload}: {len(rounds)} rounds in {measured_s:.1f} s after {prepared_s:.1f} s "
        f"of preparation, {attempted} operations, {failed} failed"
    )
    print("host: " + json.dumps(host))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
