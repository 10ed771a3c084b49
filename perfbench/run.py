#!/usr/bin/env python3
"""Repository benchmark: the Table-3 pipeline plus warm inference and serving.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table3_m1 --seed 2019 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Each run builds perfbench/ into .bench_build/ (perfbench/CMakeLists.txt pulls
libsma in through the repository's own CMakeLists.txt, so the library carries
its production flags), runs one workload through perfbench, checks the
outputs and prints two JSON lines on stdout: the run record (host, cores,
threads, ISA, build, commit, full workload config, failures), then the result
object with exactly the keys correct, attempted, failed and metrics.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer metrics
of a separate traced pass; the workloads and metric names come from
BENCHMARK.json. The spans of a traced run and every run record are written
under .bench_build/.

Each workload takes a split layer and a victim set through cold
eval::run_table3 passes, then a warm phase that attacks fixed victims offline
at batch widths 1 and 16 and serves them through ServeLoop under an open-loop
Poisson arrival schedule at a fixed offered rate.

Correctness: split cache cold in every pass, no flow-attack timeout, rows
identical across passes (and between the traced pass and run_table3), every
batch-16 selection and every served answer equal to the batch-1 selection,
and — for seeds recorded in perfbench/digests.json — the digest of the rows
and batch-1 selections equal to the recorded one. Any mismatch, exception,
timeout or failed submit is a failed operation, and so is a crash, a hang or
unreadable output of perfbench itself; the run then prints correct: false and
exits 1. Exit 2 means the benchmark could not be built (no program sources,
or a failed configure or compile) and prints no result.

`--self-test` runs a smoke-sized configuration of every workload in both
modes, checks that every metric of BENCHMARK.json is emitted with its unit,
and checks that a tampered recorded digest makes the run fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"
DIGESTS = BENCH_DIR / "digests.json"
RUN_TIMEOUT_S = 170

# Variables that would make a pass warm or non-isolated; removed from the
# environment of the measuring program (which also checks them).
ISOLATION_ENV = ("SMA_CACHE_DIR", "SMA_FAULT", "SMA_TRACE")
# Keys of the JSON object perfbench prints last.
RESULT_KEYS = {"attempted", "failed", "failures", "digest", "record",
               "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"{ROOT} holds no program sources to build")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unavailable"


def source_digest():
    """sha256 over the program and benchmark sources (identifies the code
    when the checkout is not a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file()
                        and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def measure(cmd, env):
    """Run perfbench; returns (exit code, its JSON line, failure or None).
    A crash, a hang or output that is not one JSON object is a failure."""
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, f"perfbench ran longer than {RUN_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
        if isinstance(out, dict) and RESULT_KEYS <= out.keys():
            return proc.returncode, out, None
    except (IndexError, ValueError):
        pass
    return proc.returncode, None, (f"perfbench exited {proc.returncode} "
                                   "without a readable result")


def run_workload(workload, seed, seconds, trace, smoke=False,
                 digests=DIGESTS):
    """One benchmark run; returns (record, result, exit code)."""
    spec = benchmark_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    env = {k: v for k, v in os.environ.items() if k not in ISOLATION_ENV}
    tag = f"{workload}-seed{seed}" + ("-smoke" if smoke else "")
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = BUILD_DIR / "spans" / f"{tag}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    if smoke:
        cmd.append("--smoke")
    code, out, crash = measure(cmd, env)

    metrics = {}
    if crash is not None:
        # The measured program itself failed: one failed operation.
        out = {"attempted": 1, "failed": 1, "failures": [crash], "digest": "",
               "record": {}, "metrics": {}}
    attempted = int(out["attempted"])
    failed = int(out["failed"])
    failures = list(out["failures"])
    key = workload + ("/smoke" if smoke else "")
    recorded = json.loads(Path(digests).read_text()).get(key, {})
    if crash is None and str(seed) in recorded:
        attempted += 1
        if recorded[str(seed)] != out["digest"]:
            failed += 1
            failures.append(f"digest {out['digest']} != recorded "
                            f"{recorded[str(seed)]} for {key} seed {seed}")

    if crash is None:
        for m in wanted:
            name, unit = m["name"], m["unit"]
            got = out["metrics"].get(name)
            if got is None or got["unit"] != unit or got["value"] is None:
                failures.append(f"metric {name} missing or not in {unit}")
                continue
            metrics[name] = {"value": got["value"], "unit": unit}

    correct = (code == 0 and failed == 0 and len(metrics) == len(wanted))
    record = {
        "record": {
            **out["record"],
            "hostname": socket.gethostname(),
            "git_commit": git_commit(),
            "source_digest": source_digest(),
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "smoke": smoke,
            "digest": out["digest"],
            "ops_failed_frac": {"value": failed / attempted,
                                "unit": "failed/attempted"},
            "other_metrics": {n: m for n, m in out["metrics"].items()
                              if n not in metrics},
            "failures": failures,
        }
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    runs = BUILD_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{tag}-trace{trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1) + "\n")
    return record, result, (0 if correct else 1)


def self_test():
    """Smoke-size every workload in both modes, then prove the digest check
    bites by tampering with a recorded digest."""
    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            _, result, code = run_workload(workload, 2019, 0, trace, smoke=True)
            wanted = spec["per_layer" if trace else "end_to_end"]
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            tag = f"{workload} --trace {trace}"
            if code != 0 or not result["correct"]:
                problems.append(f"{tag}: exit {code}, correct "
                                f"{result['correct']}")
            if got != {m["name"]: m["unit"] for m in wanted}:
                problems.append(f"{tag}: metrics {sorted(got)} != "
                                f"{sorted(m['name'] for m in wanted)}")
            log(f"self-test {tag}: exit {code}, {len(got)} metrics")

    tampered = json.loads(DIGESTS.read_text())
    digest = tampered[workloads[0] + "/smoke"]["2019"]
    tampered[workloads[0] + "/smoke"]["2019"] = digest[:-1] + (
        "0" if digest[-1] != "0" else "1")
    path = BUILD_DIR / "selftest_tampered_digests.json"
    path.write_text(json.dumps(tampered))
    _, result, code = run_workload(workloads[0], 2019, 0, 0, smoke=True,
                                   digests=path)
    if code == 0 or result["correct"]:
        problems.append("a tampered digest did not fail the run")
    log(f"self-test tampered digest: exit {code}, correct {result['correct']}")

    for p in problems:
        log(f"SELF-TEST FAILED: {p}")
    print(json.dumps({"self_test": "fail" if problems else "pass",
                      "problems": problems}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2019)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        workloads = [w["name"] for w in benchmark_spec()["workloads"]]
        if not args.self_test and args.workload not in workloads:
            ap.error(f"--workload must be one of {', '.join(workloads)}")
        build()
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2
    if args.self_test:
        return self_test()
    record, result, code = run_workload(args.workload, args.seed, args.seconds,
                                        args.trace)
    print(json.dumps(record))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
