"""Benchmark of the eescore CLI, as a researcher runs it.

    python3 bench/run.py --workload maven_gold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30          # every workload in turn

Generates the workload's inputs from the seed (`gen.py`), then runs
`python3 -m eescore` from this checkout's `src/` as one subprocess per
job, one job after another (a closed loop with one client), for
`--seconds`. Each step of the loop is one producer putting its ED
triggers into the run's trigger store, then one score job. Every report
is checked against the counts the generator computed on its own
(`oracle.py`) and against the first report of the run, byte for byte.

`--trace 0` prints the end-to-end metrics: set-up, job and put wall
times, peak RSS and the share of processes that passed their checks.
`--trace 1` runs `traced.py`, which re-composes the same job from the
package's public functions with a span around each, in turn with
untraced jobs, and prints the per-layer metrics. The last line of
standard output is one JSON object `{"correct", "attempted", "failed",
"metrics"}`; a line before it reports `host.calib_s`, a fixed
interpreter loop timed around every job that tells host drift apart
from a regression, and the median job and put times. All samples of a
run go to `.bench/runs/`. The exit code is 0 only if every check passed.

Workloads (see BENCHMARK.json for why each exists):
  maven_gold    MAVEN-like, gold-trigger, ED as SL tags, EAE as scored SP spans
  ace_pipeline  ACE-like, head-word variant, ED as CLS over spans up to 3,
                EAE as CG, pipeline/legacy/by_trigger_span, --jobs 2
  store_sweep   small ACE-like corpus; each producer's score job reads its
                own store entry back and scores EAE (SL) against it
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from gen import WORKLOADS
from oracle import REASONS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench"

STARTUP_RUNS = 5
DEADLINE_S = 170  # every process is killed by then, so a run ends within 180 s

# Job and put times are reported as 90th percentiles, not medians: this
# host switches between a normal and a ~40% faster state for tens of
# seconds at a time, so the median of a run lands in either mode and
# moved by 20% between runs, while the 90th percentile moved by 7%.
# Medians are kept with the samples in .bench/runs/.
END_TO_END = {
    "setup_s": "s",
    "job_p90_s": "s",
    "put_p90_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
SPANS = (
    "ingest.parse_corpus_s", "ingest.parse_ed_s", "ingest.parse_eae_s",
    "pipeline.fingerprint_s", "variants.apply_s",
    "standardize.ed_s", "standardize.eae_s",
    "metrics.items_s", "metrics.score_ed_s", "metrics.score_eae_s",
    "pipeline.context_s", "pipeline.anchor_check_s",
    "pipeline.store_put_s", "pipeline.store_get_s", "pipeline.serialize_triggers_s",
    "jsonio.format_report_s", "jsonio.dump_discards_s",
)
COUNTS = (
    "ingest.docs", "ingest.records", "variants.removed_arguments", "variants.reduced_triggers",
    "standardize.candidates_enumerated", "standardize.assigned",
    "metrics.ed_keys", "metrics.eae_keys", "metrics.ed_labels", "metrics.eae_labels",
    "pipeline.context_triggers", "pipeline.manifest_rows", "jsonio.discard_lines",
    "py.gc_collections",
)
PER_LAYER = {
    **{name: "s" for name in SPANS},
    **{name: "count" for name in COUNTS},
    **{f"standardize.discarded.{r}": "count" for r in REASONS},
    "ingest.input_mb": "MB",
    "ingest.rss_mb": "MB",
    "standardize.rss_mb": "MB",
    "standardize.kept_ratio": "ratio",
    "py.gc_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
    "host.calib_s": "s",
}

SETUP_PROBE = """
import sys
from eescore.ingest import load_corpus
from eescore.pipeline import corpus_fingerprint
from eescore.variants import apply_variant, load_variant_config
cfg = load_variant_config(sys.argv[1])
corpus = load_corpus(sys.argv[2])
corpus_fingerprint(corpus, cfg)
apply_variant(corpus, cfg)
"""


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop."""
    start = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i % 7
    return time.perf_counter() - start


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def strip_config(report: bytes) -> bytes:
    """The report without its top-level `config` block, as traced.py writes it."""
    lines = report.split(b"\n")
    start = lines.index(b'  "config": {')
    end = lines.index(b"  },", start)
    return b"\n".join(lines[:start] + lines[end + 1 :])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class JobFailed(Exception):
    """A job exited non-zero or left no usable output."""


class Bench:
    """One run of one workload: spawns the jobs, checks them, keeps the samples."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.dir = work / "inputs" / workload
        self.expected = json.loads((self.dir / "expected.json").read_text(encoding="utf-8"))
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.errors: list[str] = []
        self.failed: set[int] = set()  # numbers of the processes whose checks failed
        self.calib: list[float] = []
        self.peak_rss_mb = 0.0
        self.first: dict[str, str] = {}  # output name -> sha256 of the first run's bytes
        self.samples: dict[str, list[float]] = {}

    # -- processes ------------------------------------------------------

    def spawn(self, argv: list[str], what: str) -> float:
        """Runs argv in the workload directory; returns its wall time.

        Peak RSS comes from wait4 on the child. A forked child starts with
        its parent's high-water mark, so this process keeps its own memory
        small (inputs are generated in another process)."""
        self.attempted += 1
        self.calib.append(calibrate())
        with open(self.dir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.dir, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.perf_counter()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        self.calib.append(calibrate())
        if proc.returncode:
            tail = (self.dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-400:]
            self.fail(f"{what}: exit code {proc.returncode}: {tail.strip()}")
            raise JobFailed
        if what != "probe":
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        return wall

    def fail(self, message: str) -> None:
        """Fails the process spawned last, with its checks."""
        self.errors.append(message)
        self.failed.add(self.attempted)

    def args(self, template: list[str], store: str = "store", producer: str = "p", **swap) -> list[str]:
        out = [{"{store}": store, "{producer}": producer}.get(a, a) for a in template]
        for flag, value in swap.items():
            flag = "--" + flag.replace("_", "-")
            if flag in out:
                out[out.index(flag) + 1] = value
        return out

    def cli(self, args: list[str], what: str) -> float:
        return self.spawn([sys.executable, "-m", "eescore", *args], what)

    def guarded(self, fn, *a):
        """Runs one job and its checks; a failed one counts and the run goes on."""
        try:
            return fn(*a)
        except JobFailed:
            return None
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
            self.fail(f"{fn.__name__}: unusable output: {exc!r}")
            return None

    # -- jobs -------------------------------------------------------------

    def setup_probe(self) -> float:
        return self.spawn([sys.executable, "-c", SETUP_PROBE, "variant.cfg", "corpus.jsonl"], "probe")

    def startup_probe(self) -> float:
        return self.spawn([sys.executable, "-c", "import eescore.cli"], "probe")

    def same_as_first(self, name: str, data: bytes, what: str) -> None:
        digest = sha256(data)
        if digest != self.first.setdefault(name, digest):
            self.fail(f"{what}: {name} differs from the first one of the run")

    def check_counts(self, got: dict, want: dict, what: str) -> None:
        for task in ("ed", "eae"):
            if got.get(task) != want.get(task):
                self.fail(f"{what}: {task} counts {got.get(task)} != expected {want.get(task)}")

    def score(self, producer: str = "p", jobs: str | None = None) -> float:
        what = f"score {producer}" + (f" --jobs {jobs}" if jobs else "")
        swap = {"jobs": jobs} if jobs else {}
        wall = self.cli(self.args(self.expected["score_args"], producer=producer, **swap), what)
        data = (self.dir / "report.json").read_bytes()
        report = json.loads(data)
        got = {t: report[t]["counts"] if report[t] else None for t in ("ed", "eae")}
        self.check_counts(got, self.expected, what)
        if producer != "p":  # the producer name is the one field allowed to differ
            data = data.replace(f'"producer": "{producer}"'.encode(), b'"producer": "p"')
        self.same_as_first("report.json", data, what)
        if "--dump-discards" in self.expected["score_args"]:
            ledger = (self.dir / "discards.jsonl").read_bytes()
            if "discards.jsonl" not in self.first:
                rows = [json.loads(line) for line in ledger.splitlines()]
                got = {
                    task: dict(Counter(r["reason"] for r in rows if r["task"] == name))
                    for task, name in (("ed", "trigger"), ("eae", "argument"))
                }
                want = {t: {r: n for r, n in c.items() if n} for t, c in self.expected["discards"].items()}
                if got != want:
                    self.fail(f"{what}: discard ledger {got} != expected {want}")
            self.same_as_first("discards.jsonl", ledger, what)
        return wall

    def put(self, store: str, producer: str) -> float:
        what = f"put {producer}"
        wall = self.cli(self.args(self.expected["put_args"], store=store, producer=producer), what)
        files = list((self.dir / store).glob(f"*__{producer}.jsonl"))
        if len(files) != 1:
            self.fail(f"{what}: {len(files)} trigger files in the store")
            raise JobFailed
        want = self.expected["put"]
        if sha256(files[0].read_bytes()) != want["triggers_sha256"]:
            self.fail(f"{what}: stored trigger file differs from the expected one")
        report = json.loads(Path(f"{files[0]}.report.json").read_bytes())
        self.check_counts({"ed": report["counts"]}, {"ed": want["ed"]}, what)
        return wall

    def unit(self, index: int, put: bool = True) -> float | None:
        """One closed-loop step: producer p<index> puts its triggers into the
        run's store, then scores (against that entry on store_sweep).
        Returns the step's wall time, None if a job failed."""
        put_s = 0.0
        if put:
            put_s = self.guarded(self.put, "store", f"p{index:04d}")
            self.record("put_s", put_s)
        job_s = self.guarded(self.score, f"p{index:04d}" if self.workload == "store_sweep" else "p")
        self.record("job_s", job_s)
        return None if put_s is None or job_s is None else put_s + job_s

    def traced(self, args: list[str], name: str) -> tuple[float, dict]:
        out = self.dir / f"{name}.trace.json"
        wall = self.spawn([sys.executable, str(BENCH / "traced.py"), str(out), "--", *args], f"traced {name}")
        return wall, json.loads(out.read_text(encoding="utf-8"))

    def traced_unit(self, index: int) -> tuple[float, dict]:
        """The traced twin of `unit`; checks it against the CLI's outputs."""
        exp = self.expected
        swap = {"output": "traced_report.json", "dump_discards": "traced_discards.jsonl"}
        parts = []
        if self.workload == "store_sweep":
            producer = f"t{index:04d}"
            parts.append(self.traced(self.args(exp["put_args"], producer=producer), "put"))
            parts.append(self.traced(self.args(exp["score_args"], producer=producer, **swap), "score"))
            want = {"ed": exp["put"]["ed"], "eae": exp["eae"]}
            got = {"ed": parts[0][1]["ed"], "eae": parts[1][1]["eae"]}
            want_discards = {"ed": exp["put"]["discards"], "eae": exp["discards"]["eae"]}
        else:
            parts.append(self.traced(self.args(exp["score_args"], **swap), "score"))
            want = {"ed": exp["ed"], "eae": exp["eae"]}
            got = {"ed": parts[0][1]["ed"], "eae": parts[0][1]["eae"]}
            want_discards = exp["discards"]
        self.check_counts(got, want, "traced")
        trace = merge([t for _, t in parts])
        for task in ("ed", "eae"):
            seen = {r: trace["discards"][task].get(r, 0) for r in REASONS}
            if seen != want_discards[task]:
                self.fail(f"traced: {task} discards {seen} != expected {want_discards[task]}")
        cli_report = strip_config((self.dir / "report.json").read_bytes())
        if (self.dir / "traced_report.json").read_bytes() != cli_report:
            self.fail("traced: report sections differ from the CLI report")
        if "--dump-discards" in exp["score_args"]:
            if (self.dir / "traced_discards.jsonl").read_bytes() != (self.dir / "discards.jsonl").read_bytes():
                self.fail("traced: discard ledger differs from the CLI's")
        return sum(w for w, _ in parts), trace

    def record(self, name: str, value: float | None) -> None:
        if value is not None:
            self.samples.setdefault(name, []).append(value)

    # -- runs -------------------------------------------------------------

    def loop(self, seconds: float, step) -> None:
        start = time.perf_counter()
        index = 0
        while True:
            step(index)
            index += 1
            if time.perf_counter() - start >= seconds or time.perf_counter() > self.deadline:
                return

    def jobs_reference(self) -> None:
        """The --jobs 2 reports must equal this --jobs 1 one, byte for byte."""
        if self.workload == "ace_pipeline":
            self.guarded(self.score, "p", "1")

    def end_to_end(self, seconds: float) -> dict:
        def step(index: int) -> None:
            if index % 2 == 0:  # set-up probes spread over the run, like the jobs
                self.record("setup_s", self.guarded(self.setup_probe))
            self.unit(index)

        self.jobs_reference()
        self.loop(seconds, step)
        return {
            "setup_s": statistics.median(self.samples.get("setup_s") or [math.nan]),
            "job_p90_s": p90(self.samples.get("job_s") or [math.nan]),
            "put_p90_s": p90(self.samples.get("put_s") or [math.nan]),
            "peak_rss_mb": self.peak_rss_mb,
            "ok_ratio": 1 - len(self.failed) / self.attempted,
        }

    def per_layer(self, seconds: float) -> dict:
        for _ in range(STARTUP_RUNS):
            self.record("cli.startup_s", self.guarded(self.startup_probe))
        self.jobs_reference()
        traces: list[dict] = []

        def step(index: int) -> None:
            unit_s = self.unit(index, put=self.workload == "store_sweep")
            if unit_s is None:
                return
            self.record("unit_s", unit_s)
            traced = self.guarded(self.traced_unit, index)
            if traced is None:
                return
            wall, trace = traced
            self.record("traced_s", wall)
            traces.append(trace)

        self.loop(seconds, step)
        if not traces:
            self.fail("no traced unit completed")
            return {name: math.nan for name in PER_LAYER}
        last = traces[-1]
        out = {name: statistics.median(t["spans"].get(name, 0.0) for t in traces) for name in SPANS}
        out.update({name: last["counts"].get(name, 0) for name in COUNTS})
        discarded = 0
        for reason in REASONS:
            n = sum(last["discards"][task].get(reason, 0) for task in ("ed", "eae"))
            out[f"standardize.discarded.{reason}"] = n
            discarded += n
        assigned = last["counts"].get("standardize.assigned", 0)
        out.update({
            "ingest.input_mb": last["counts"]["ingest.input_bytes"] / 1e6,
            "ingest.rss_mb": last["rss_mb"].get("ingest.rss_mb", 0.0),
            "standardize.rss_mb": last["rss_mb"].get("standardize.rss_mb", 0.0),
            "standardize.kept_ratio": assigned / (assigned + discarded) if assigned + discarded else 0.0,
            "py.gc_s": statistics.median(t["gc_s"] for t in traces),
            "cli.startup_s": statistics.median(self.samples.get("cli.startup_s") or [math.nan]),
            "trace.overhead_s": statistics.median(self.samples["traced_s"]) - statistics.median(self.samples["unit_s"]),
            "host.calib_s": statistics.median(self.calib),
        })
        return out


def merge(traces: list[dict]) -> dict:
    """Sums the traces of one unit's processes; RSS takes the highest."""
    out = {"spans": Counter(), "counts": Counter(), "rss_mb": {}, "gc_s": 0.0,
           "discards": {"ed": Counter(), "eae": Counter()}}
    for t in traces:
        out["spans"].update(t["spans"])
        out["counts"].update(t["counts"])
        out["counts"]["py.gc_collections"] += t["gc_collections"]
        out["gc_s"] += t["gc_s"]
        for name, mb in t["rss_mb"].items():
            out["rss_mb"][name] = max(mb, out["rss_mb"].get(name, 0.0))
        for task in ("ed", "eae"):
            out["discards"][task].update(t["discards"][task])
    return out


def prepare(workload: str, seed: int, work: Path) -> None:
    """Generates the inputs and warms the interpreter's bytecode cache."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--seed", str(seed), "--workload", workload,
         "--out", str(work / "inputs")],
        check=True, timeout=60,
    )
    found = subprocess.run(
        [sys.executable, "-c", "import eescore.cli; print(eescore.cli.__file__)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if found.returncode or Path(found.stdout.strip()).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: cannot import eescore from {SRC}: {found.stderr.strip()}")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run; prints its diagnostics and returns its result object."""
    work = WORK / "work" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    try:
        prepare(workload, seed, work)
        bench = Bench(workload, work)
        values = bench.per_layer(seconds) if trace else bench.end_to_end(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": len(bench.failed),
        # a metric without samples (every job failed) reads null, and the run is not correct
        "metrics": {
            name: {"value": None if math.isnan(values[name]) else values[name], "unit": unit}
            for name, unit in (PER_LAYER if trace else END_TO_END).items()
        },
    }
    calib = statistics.median(bench.calib)
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {**result, "workload": workload, "seed": seed, "seconds": seconds,
              "host.calib_s": calib, "samples": {**bench.samples, "host.calib_s": bench.calib},
              "output_sha256": bench.first, "errors": bench.errors}
    (runs / f"{workload}-s{seed}-t{trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for message in bench.errors[:10]:
        print(f"bench: {workload}: check failed: {message}", file=sys.stderr)
    medians = ", ".join(
        f"{name} median {statistics.median(values):.4f} of {len(values)}"
        for name, values in bench.samples.items() if name in ("job_s", "put_s")
    )
    print(f"{workload}: host.calib_s {calib:.6f} (median of {len(bench.calib)}, around every job); {medians}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eescore" / "__init__.py").is_file():
        print(f"bench: no eescore sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:  # all workloads: one line each, then their union with workload-prefixed names
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
        for workload, r in results.items():
            print(workload, json.dumps(r))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
