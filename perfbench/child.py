"""Runs one CLI stage in a fresh process and reports how it went.

Usage: ``python3 child.py <job.json>``. The job names the stage's argv,
whether to trace it, an optional set-up replay, and where to write the
result. Wall time runs from just after the job is read (so it includes
importing the program) to the return of ``trialbench.cli.main``.

Untraced stages also sample the host's speed. On a shared host the same
code runs up to twice as slow for seconds to minutes at a time, so every
0.1 s a SIGALRM handler times a tiny fixed pure-Python loop on the
stage's own CPU. The caller uses the mean tick time to express the
stage's times at one reference host speed. The ticks' own time is taken
out of the stage's wall and CPU times.
"""

import json
import resource
import signal
import statistics
import sys
import time

TICK_S = 0.1
TICK_WARM = 2_000   # untimed iterations that bring the loop into cache
TICK_LOOP = 6_000   # timed iterations, about 1 ms at full host speed


def _loop(n: int) -> int:
    table, acc = {}, 0
    for i in range(n):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc += i * 7 % 13
    return acc


class HostSampler:
    """Times ``_loop(TICK_LOOP)`` every TICK_S seconds of wall time."""

    def __init__(self):
        self.ticks: list[float] = []
        self.spent = 0.0

    def tick(self, signum=None, frame=None):
        start = time.perf_counter()
        _loop(TICK_WARM)
        timed = time.perf_counter()
        _loop(TICK_LOOP)
        end = time.perf_counter()
        self.ticks.append(end - timed)
        self.spent += end - start

    def start(self):
        self.ticks, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if not self.ticks:  # shorter than one interval: sample once now
            spent = self.spent
            self.tick()
            self.spent = spent


def _setup_evaluate(paths):
    from trialbench import cohort, formats, refset

    refset.load(paths["refset"])
    formats.sha256_file(paths["vocab"])
    cohort.load_patient_db(paths["db"], paths["vocab"])


def _setup_build_refset(paths):
    from trialbench import ingest

    ingest.DrugDictionary.load(paths["drug_dict"])
    ingest.OutcomeDictionary.load(paths["outcome_dict"])
    with open(paths["dump"], encoding="utf-8") as fh:
        ingest.parse_dump(fh)


SETUP_MAX_REPEATS = 10
SETUP_MIN_SECONDS = 1.0
SETUPS = {"evaluate": _setup_evaluate, "build-refset": _setup_build_refset}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sampler = None if job["trace"] else HostSampler()
    if sampler:
        sampler.start()
    t0, cpu0 = time.perf_counter(), time.process_time()
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    from trialbench import cli

    stage = job["argv"][0]
    span = tracer.begin("cli." + stage.replace("-", "_")) if tracer else None
    code = cli.main(job["argv"])
    if tracer:
        tracer.end(span)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if sampler:
        sampler.stop()
        wall -= sampler.spent
        cpu -= sampler.spent
    result = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if sampler:
        result["ticks_s"] = sampler.ticks
    # Set-up is replayed after the stage, in the same fresh process, so
    # the stage itself runs cold and untouched. A short set-up is replayed
    # several times and the median reported.
    if job.get("setup") and code == 0 and sampler:
        sampler.start()
        times = []
        while len(times) < SETUP_MAX_REPEATS and sum(times) < SETUP_MIN_SECONDS:
            start, spent = time.perf_counter(), sampler.spent
            SETUPS[stage](job["setup"])
            times.append(time.perf_counter() - start - (sampler.spent - spent))
        sampler.stop()
        result["setup_s"] = statistics.median(times)
        result["setup_ticks_s"] = sampler.ticks
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
        result["missing_hooks"] = tracer.missing
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
