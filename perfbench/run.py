#!/usr/bin/env python3
"""Builds and runs the round benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Every run configures and builds the dptd library
and the benchmark binary from source into .bench_build/ (Release, Ninja when
available); only the first run compiles everything. Build output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. Any further arguments (for example --users 4000) are passed to
the binary unchanged. The exit code is the binary's: 0 only when the
correctness gate passed.
"""
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(BUILD_DIR, "tmp")))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator
    subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)
    return os.path.join(BUILD_DIR, "round_bench")


def source_digest():
    """SHA-256 over the library and benchmark sources, for the host record."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    os.chdir(ROOT)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2
    args = [binary] + sys.argv[1:] + [
        "--work-dir", os.path.join(BUILD_DIR, "work"),
        "--trace-dir", os.path.join(BUILD_DIR, "traces"),
        "--commit", commit(),
        "--source-digest", source_digest(),
    ]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
