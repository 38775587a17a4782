#!/usr/bin/env python3
"""Service benchmark entry point.

Builds the perfbench binary from this checkout's sources, runs one workload
and prints the binary's output; the last line is the JSON result.

    python3 perfbench/run.py --workload read-url --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test     # the benchmark's own tests

Run it from the root of a checkout. Everything it builds or writes stays
under $CARGO_TARGET_DIR (default .bench_build) in that checkout. On
durable workloads the WAL directory is a private tmpfs mounted inside a user
and mount namespace (unshare), so fsync=always costs what it costs on tmpfs
and the mount disappears with the run; where namespaces are unavailable the
WAL falls back to a plain directory and the provenance line says so.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("read-url", "scan-az1", "update-zipf-durable")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build(target):
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", str(max(1, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return out / target


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    if r.returncode != 0:
        return "none"
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                            "--", "src", "perfbench"],
                           capture_output=True, text=True).stdout.strip()
    return r.stdout.strip() + ("-dirty" if dirty else "")


def source_digest():
    """sha256 over the sources the benchmark builds, so results from
    checkouts without git history still name the code they measured."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def tmpfs_works(mountpoint):
    if shutil.which("unshare") is None:
        return False
    r = subprocess.run(["unshare", "-rm", "sh", "-c",
                        'mount -t tmpfs perfbench-wal "$1"', "sh",
                        str(mountpoint)],
                       capture_output=True, timeout=30)
    return r.returncode == 0


def run(args):
    if not (ROOT / "src" / "server" / "service.h").exists():
        log(f"no Wormhole sources under {ROOT / 'src'}; nothing to measure")
        return 2
    binary = build("perfbench")
    work = build_dir()
    wal_root = work / "wal"
    traces = work / "traces"
    shutil.rmtree(wal_root, ignore_errors=True)
    wal_root.mkdir(parents=True)
    traces.mkdir(parents=True, exist_ok=True)
    use_tmpfs = tmpfs_works(wal_root)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--wal-root", str(wal_root),
           "--wal-fs", "tmpfs" if use_tmpfs else "checkout-dir",
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.trace:
        cmd += ["--trace-file", str(traces / f"{args.workload}.csv")]
    if use_tmpfs:
        cmd = ["unshare", "-rm", "sh", "-c",
               'mount -t tmpfs perfbench-wal "$1" && shift && exec "$@"',
               "sh", str(wal_root)] + cmd
    else:
        log("user/mount namespaces unavailable: WAL on the checkout's disk")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(wal_root, ignore_errors=True)
        for tmp in traces.glob("*.tmp"):
            tmp.unlink()
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"perfbench exited {proc.returncode} without a result line")
        return proc.returncode or 1
    print("\n".join(lines), flush=True)
    return proc.returncode


def self_test():
    if not (ROOT / "src" / "server" / "service.h").exists():
        log(f"no Wormhole sources under {ROOT / 'src'}")
        return 2
    return subprocess.run([str(build("ledger_test"))]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        return run(args)
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
