"""Record the expected outputs of the benchmark's default inputs.

Usage: python3 bench/record.py

Runs every invocation of the default seed once, untimed, and writes the
SHA-256 of each standard output to ``bench/expected.json``, which the
correctness gate of ``run.py`` compares against.  Run it only at a commit
whose outputs are trusted, and only when the inputs change.  Before anything
is written, every oracle-sized ``cmp``/``level-subset`` verdict is decided
again by the other decider (``cmp --oracle`` against the structural
recursion), and every cover of each segment plus a large seeded sample of
other pairs is checked by brute-force map search.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

DEFAULT_SEED = 1
RECORD_PAIRS = 400
#: ``level-subset`` word for each ``cmp`` verdict
SUBSET_OF = {run.CMP_WORDS[key]: word for key, word in run.SUBSET_WORDS.items()}


def cross_check(call: workloads.Call, out: bytes, env) -> None:
    a, b, n, k = call.pair
    argv = ["cmp", a, b, "--k", str(k), "--n", str(n)]
    if "--oracle" not in call.argv:
        argv.append("--oracle")
    other = run.spawn(run.fhc_cmd(workloads.Call(tuple(argv))), env)
    verdict = other.out.decode().strip()
    if call.argv[0] == "level-subset":
        verdict = SUBSET_OF[verdict]
    if not run.call_ok(other) or verdict != out.decode().strip():
        raise SystemExit(f"deciders disagree on {call.argv}: {out!r} vs {other.out!r}")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    env = run.child_env()
    table: dict = {"default_seed": DEFAULT_SEED}
    calls = workloads.queries(DEFAULT_SEED)
    digests = []
    for call in calls:
        result = run.spawn(run.fhc_cmd(call), env)
        if not run.call_ok(result):
            raise SystemExit(f"failed: {call.argv[0]}: {result.err.decode()}")
        if call.pair is not None:
            cross_check(call, result.out, env)
        digests.append(run.digest(result.out))
    table["queries"] = {"argv_sha256": run.argv_digest(calls),
                        "stdout_sha256": digests}
    digests = []
    for call in workloads.workload("segments", DEFAULT_SEED):
        result = run.spawn(run.fhc_cmd(call), env)
        if not run.call_ok(result) or not run.check_segment(
                call, result.out, DEFAULT_SEED, n_covers=10**9, n_pairs=RECORD_PAIRS):
            raise SystemExit(f"segment {' '.join(call.argv)} failed its check")
        digests.append(run.digest(result.out))
    table["segments"] = {"stdout_sha256": digests}
    run.EXPECTED.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {run.EXPECTED.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
