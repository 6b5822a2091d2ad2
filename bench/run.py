"""Benchmark of the ``fhc`` command line, end to end and per layer.

Usage (from anywhere in a source checkout; standard library only):

    python3 bench/run.py --workload queries --seed 1 --seconds 30 --trace 0

A single client runs a closed loop: every invocation is a fresh
``python -m fhc ...`` process, started after the previous one ended, so each
call pays interpreter start, import and cold ``lru_cache``s, as a user does.
The workloads (see ``workloads.py`` and ``README.md``) are run whole, over
and over, as many times as fit best in ``--seconds``.

Each call's time, and each repetition's, is summarised across the
repetitions by their mean: the host slows single processes at random, and
over the handful of repetitions a run holds the mean strays less from run to
run than the median does.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced runs with runs through ``shim.py``, which times the program's
layers from outside, and reports the per-layer metrics and the tracing
overhead; the spans of the last traced run are written to
``.bench_out/spans-<workload>.json``.

Every output is checked (see ``check_*``); the last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit status is 0 when the benchmark ran, whatever it found, and 2 when
the checkout holds no ``fhc`` sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"
SHIM = BENCH / "shim.py"

PYTHON = sys.executable
SETUP_CODE = "import fhc.cli; fhc.cli.build_parser()"
#: fresh set-up processes per batch; one batch before each repetition
SETUP_BATCH = 4
#: a hung invocation is killed and counted as failed after this long
CALL_TIMEOUT_S = 120
#: pairs sampled from each segment for the map-search spot check
SPOT_COVERS, SPOT_PAIRS = 8, 16

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "setup.import_s": "s",
    "trace.overhead_s": "s",
    "cli.startup_s": "s",
    "notation.parse_forest.s": "s",
    "notation.parse_forest.calls": "count",
    "notation.parse_term.s": "s",
    "notation.serialize.s": "s",
    "iterated.enumerate_forests.s": "s",
    "iterated.raw_forests": "count",
    "iterated.colim_leq.calls": "count",
    "iterated.colim_leq.s": "s",
    "forests.h_leq.calls": "count",
    "forests.h_leq.s": "s",
    "iterated.forest_leq0.hit_ratio": "ratio",
    "iterated.tree_leq0.hit_ratio": "ratio",
    "iterated.forest_leq0.entries": "count",
    "hierarchy.bucketing.s": "s",
    "hierarchy.bucketing.colim_leq_calls": "count",
    "hierarchy.bucketing.pairs_per_forest": "calls/forest",
    "hierarchy.covers.s": "s",
    "hierarchy.covers.colim_leq_calls": "count",
    "hierarchy.classes": "count",
    "hierarchy.write.s": "s",
    "iterated.iminimize.s": "s",
    "iterated.iminimize.calls": "count",
    "iterated.canonical.s": "s",
    "terms.interpret.s": "s",
    "terms.encode.s": "s",
    "terms.s_to_g.s": "s",
    "ordinals.build_t.s": "s",
    "cli.self_s": "s",
    "notation.self_s": "s",
    "iterated.self_s": "s",
    "forests.self_s": "s",
    "terms.self_s": "s",
    "ordinals.self_s": "s",
    "hierarchy.self_s": "s",
}
#: spans inside ``enumerate_segment`` that are not class bucketing
NOT_BUCKETING = {"iterated.count_forests", "iterated.enumerate_forests",
                 "hierarchy.covers"}


def child_env() -> dict[str, str]:
    # FHC_* settings of the caller would change the workload
    env = {k: v for k, v in os.environ.items() if not k.startswith("FHC_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Run:
    """One finished process."""

    wall: float
    rss_mb: float
    code: int
    out: bytes
    err: bytes


def spawn(cmd: list[str], env: dict[str, str]) -> Run:
    """Run ``cmd`` to completion; time it and read its max RSS via wait4."""
    with open(OUT / "stdout", "w+b") as out, open(OUT / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, env=env)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Run(wall, usage.ru_maxrss / 1024, proc.returncode, out.read(),
                   err.read())


def fhc_cmd(call: workloads.Call, trace: str | None = None, ident: str = "") -> list[str]:
    if trace is None:
        return [PYTHON, "-m", "fhc", *call.argv]
    return [PYTHON, str(SHIM), trace, ident, *call.argv]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def argv_digest(calls: list[workloads.Call]) -> str:
    return digest(json.dumps([c.argv for c in calls]).encode())


# ---------------------------------------------------------------------------
# Statistics.

def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def tail(xs: list[float]) -> tuple[float, int, int]:
    """The highest order statistic with min(10, (n-1)//2) samples beyond it:
    p90 at 100 samples, the median at 3.  Returns (value, percentile, n)."""
    ordered = sorted(xs)
    n = len(ordered)
    beyond = min(10, (n - 1) // 2)
    return ordered[n - 1 - beyond], 100 * (n - beyond) // n, n


# ---------------------------------------------------------------------------
# Correctness gate.  Expected digests come from record.py; on any other seed
# every repetition must print what the first one printed.  Oracle-sized
# ``cmp``/``level-subset`` pairs and a sample of every segment are decided
# again in this process by the other decider, outside the timed region.

CMP_WORDS = {(True, True): "=", (True, False): "<", (False, True): ">",
             (False, False): "||"}
SUBSET_WORDS = {(True, True): "equal", (True, False): "subset",
                (False, True): "superset", (False, False): "incomparable"}


def load_fhc():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from fhc import iterated, notation
    return iterated, notation


def expected_digests(name: str, calls, seed: int, tiny: bool) -> list[str] | None:
    if tiny or not EXPECTED.is_file():
        return None
    table = json.loads(EXPECTED.read_text())
    entry = table.get(name)
    if entry is None:
        return None
    if name == "queries":
        if seed != table["default_seed"]:
            return None
        if entry["argv_sha256"] != argv_digest(calls):
            # the generator drifted: nothing can be trusted
            return ["generator-drift"] * len(calls)
    return entry["stdout_sha256"]


def call_ok(run: Run) -> bool:
    return run.code == 0 and b"Traceback" not in run.err and run.out.endswith(b"\n")


def check_pair(call: workloads.Call, out: bytes) -> bool:
    """Decide an oracle-sized pair with the decider the call did not use."""
    iterated, notation = load_fhc()
    a_text, b_text, n, k = call.pair
    a, b = notation.parse_forest(a_text, k), notation.parse_forest(b_text, k)
    decide = iterated.colim_leq if "--oracle" in call.argv else iterated.colim_leq_oracle
    verdict = (decide(a, b, n), decide(b, a, n))
    words = SUBSET_WORDS if call.argv[0] == "level-subset" else CMP_WORDS
    return out.decode().strip() == words[verdict]


def parse_segment(text: str, dot: bool) -> tuple[list[str], list[tuple[int, int]]]:
    classes, covers = [], []
    if dot:
        for line in text.splitlines():
            line = line.strip()
            if "[label=" in line:
                classes.append(line.split('"')[1])
            elif "->" in line:
                lo, hi = line.rstrip(";").split(" -> ")
                covers.append((int(lo[1:]), int(hi[1:])))
        return classes, covers
    lines = text.splitlines()[1:]
    split = lines.index("covers:")
    classes = lines[:split]
    covers = [tuple(map(int, line.split())) for line in lines[split + 1:]]
    return classes, covers


def check_segment(call: workloads.Call, out: bytes, seed: int,
                  n_covers: int = SPOT_COVERS, n_pairs: int = SPOT_PAIRS) -> bool:
    """Spot-check a seeded sample of emitted covers and of other pairs by
    brute-force map search: ``i <= j`` holds iff ``j`` is above ``i`` in the
    emitted order, and every emitted cover is a cover of that order."""
    iterated, notation = load_fhc()
    k = int(call.argv[call.argv.index("--k") + 1])
    texts, covers = parse_segment(out.decode(), call.argv[0] == "diagram")
    forests = [notation.parse_forest(t, k) for t in texts]
    up: dict[int, list[int]] = {}
    for lo, hi in covers:
        up.setdefault(lo, []).append(hi)

    memo: dict[int, set[int]] = {}

    def above(i: int) -> set[int]:  # strict up-set in the emitted order
        if i not in memo:
            seen, todo = set(), list(up.get(i, ()))
            while todo:
                j = todo.pop()
                if j not in seen:
                    seen.add(j)
                    todo.extend(up.get(j, ()))
            memo[i] = seen
        return memo[i]

    def leq(i: int, j: int) -> bool:
        return iterated.colim_leq_oracle(forests[i], forests[j], 0)

    rng = random.Random(seed)
    n = len(forests)
    for lo, hi in rng.sample(covers, min(n_covers, len(covers))):
        if not (leq(lo, hi) and not leq(hi, lo)):
            return False
        if any(hi in above(m) for m in above(lo)):
            return False  # not a cover of the emitted order
    for _ in range(n_pairs if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if leq(i, j) != (j in above(i)) or leq(j, i) != (i in above(j)):
            return False
    return True


def judge(calls, reps: list[list[Run]], expected: list[str] | None, seed: int) -> list[bool]:
    """Pass/fail per call, across all repetitions of the workload."""
    first = [digest(r.out) for r in reps[0]]
    good = []
    for i, call in enumerate(calls):
        ok = all(call_ok(rep[i]) and digest(rep[i].out) == first[i] for rep in reps)
        if expected is not None and first[i] != expected[i]:
            ok = False
        try:
            if ok and call.pair is not None:
                ok = check_pair(call, reps[0][i].out)
            if ok and call.argv[0] in ("enumerate", "diagram"):
                ok = check_segment(call, reps[0][i].out, seed)
        except Exception as exc:  # output the checker cannot read is wrong
            print(f"check of {call.argv[0]} failed: {exc!r}", file=sys.stderr)
            ok = False
        good.append(ok)
    return good


# ---------------------------------------------------------------------------
# Measurement.

def setup_batch(env, with_bare: bool) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes: importing the CLI and building its
    parser, and (for the traced run's ``setup.import_s``) a bare
    interpreter start."""
    full, bare = [], []
    for _ in range(SETUP_BATCH):
        if with_bare:
            bare.append(spawn([PYTHON, "-c", "pass"], env).wall)
        run = spawn([PYTHON, "-c", SETUP_CODE], env)
        if run.code != 0:
            raise RuntimeError(f"set-up failed: {run.err.decode(errors='replace')}")
        full.append(run.wall)
    return full, bare


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and report lines."""
    OUT.mkdir(exist_ok=True)
    env = child_env()
    calls = workloads.workload(name, seed, tiny)
    expected = expected_digests(name, calls, seed, tiny)
    spawn([PYTHON, "-c", SETUP_CODE], env)  # compile the sources once, untimed

    setup, bare, plain, traced, traces = [], [], [], [], []
    start = time.perf_counter()
    while True:
        full, empty = setup_batch(env, trace)
        setup += full
        bare += empty
        plain.append([spawn(fhc_cmd(c), env) for c in calls])
        if trace:
            rep, rep_traces = [], []
            for i, call in enumerate(calls):
                path = OUT / f"trace-{i}.json"
                rep.append(spawn(fhc_cmd(call, str(path), f"{len(traced)}.{i}"), env))
                rep_traces.append(json.loads(path.read_text()) if path.is_file() else None)
                path.unlink(missing_ok=True)
            traced.append(rep)
            traces.append(rep_traces)
        spent = time.perf_counter() - start
        per_rep = spent / len(plain)
        # stop at the whole number of repetitions nearest to ``seconds``
        if spent + per_rep / 2 > seconds:
            break

    reps = plain + traced
    good = judge(calls, reps, expected, seed)
    attempted = len(calls) * len(reps)
    failed = sum(len(reps) for ok in good if not ok)

    walls = [sum(r.wall for r in rep) for rep in plain]
    per_call = [statistics.fmean([rep[i].wall for rep in plain])
                for i in range(len(calls))]
    tail_s, tail_pct, tail_n = tail(per_call)
    metrics = {
        "setup_s": median(setup),
        "wall_s": statistics.fmean(walls),
        "call_p50_s": median(per_call),
        "call_tail_s": tail_s,
        "peak_rss_mb": max(r.rss_mb for rep in reps for r in rep),
    }
    units = END_TO_END
    if trace:
        metrics = layer_metrics(traced, traces)
        metrics["setup.import_s"] = median(setup) - median(bare)
        traced_walls = [sum(r.wall for r in rep) for rep in traced]
        metrics["trace.overhead_s"] = (statistics.fmean(traced_walls)
                                       - statistics.fmean(walls))
        units = PER_LAYER
        spans = [t for t in traces[-1] if t is not None]
        (OUT / f"spans-{name}.json").write_text(json.dumps(spans))

    report = [
        f"workload {name}  seed {seed}  trace {int(trace)}  seconds {seconds}",
        f"env  sha {git_sha()}  python {platform.python_version()}  "
        f"nproc {os.cpu_count()}  {platform.machine()}",
        f"repetitions {len(plain)} untraced, {len(traced)} traced; "
        f"{len(calls)} calls each; {len(setup)} set-up samples",
        "repetition wall times " + " ".join(f"{w:.3f}" for w in walls) + " s",
        f"call_tail_s is p{tail_pct} of {tail_n} per-call means",
        f"error_rate {failed / attempted:.4f} ratio ({failed}/{attempted})",
    ]
    report += [f"{key} {metrics[key]:.6g} {unit}" for key, unit in units.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }
    return result, report


def layer_metrics(traced: list[list[Run]], traces: list[list[dict | None]]) -> dict:
    """Per-layer numbers of each traced repetition; medians across them."""
    per_rep = [_layers_of(rep, rep_traces) for rep, rep_traces in zip(traced, traces)]
    return {key: statistics.median_low([m[key] for m in per_rep]) for key in per_rep[0]}


def _layers_of(runs: list[Run], traces: list[dict | None]) -> dict:
    time_, calls, self_, callers, counts = {}, {}, {}, {}, {}
    hits = {"forest_leq0": [0, 0], "tree_leq0": [0, 0]}
    entries, bucketing, startup = 0, 0.0, 0.0
    for run, t in zip(runs, traces):
        if t is None:
            continue
        for table, into in ((t["time"], time_), (t["calls"], calls),
                            (t["self"], self_), (t["callers"], callers),
                            (t["counts"], counts)):
            for key, value in table.items():
                into[key] = into.get(key, 0) + value
        for cache, (h, m, _) in t["caches"].items():
            hits[cache][0] += h
            hits[cache][1] += h + m
        entries = max(entries, t["caches"]["forest_leq0"][2])
        startup += run.wall - t["time"].get("cli.main", 0.0)
        spans = {s[0]: s for s in t["spans"]}
        for _, layer, begin, end, parent in t["spans"]:
            if layer == "hierarchy.enumerate_segment":
                bucketing += end - begin
            elif layer in NOT_BUCKETING and parent is not None \
                    and spans[parent][1] == "hierarchy.enumerate_segment":
                bucketing -= end - begin
    raw = counts.get("iterated.raw_forests", 0)
    in_buckets = callers.get("iterated.colim_leq<hierarchy.enumerate_segment", 0)
    out = {
        "cli.startup_s": startup,
        "notation.parse_forest.calls": calls.get("notation.parse_forest", 0),
        "iterated.raw_forests": raw,
        "iterated.colim_leq.calls": calls.get("iterated.colim_leq", 0),
        "forests.h_leq.calls": calls.get("forests.h_leq", 0),
        "iterated.forest_leq0.hit_ratio": _ratio(*hits["forest_leq0"]),
        "iterated.tree_leq0.hit_ratio": _ratio(*hits["tree_leq0"]),
        "iterated.forest_leq0.entries": entries,
        "hierarchy.bucketing.s": bucketing,
        "hierarchy.bucketing.colim_leq_calls": in_buckets,
        "hierarchy.bucketing.pairs_per_forest": _ratio(in_buckets, raw),
        "hierarchy.covers.colim_leq_calls":
            callers.get("iterated.colim_leq<hierarchy.covers", 0),
        "hierarchy.classes": counts.get("hierarchy.classes", 0),
        "iterated.iminimize.calls": calls.get("iterated.iminimize", 0),
    }
    for key in PER_LAYER:
        if key.endswith(".self_s"):
            out[key] = self_.get(key[:-len(".self_s")], 0.0)
        elif key.endswith(".s") and key not in out:
            out[key] = time_.get(key[:-2], 0.0)
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fhc" / "cli.py").is_file():
        print(f"error: no fhc sources under {SRC}", file=sys.stderr)
        return 2
    result, report = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
