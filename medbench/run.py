#!/usr/bin/env python3
"""Build the medshield benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 medbench/run.py --workload release-1m --seed 1 --seconds 10 --trace 0

Every build and run artefact (Go build cache, the benchmark binary,
generated CSV inputs, span files) stays under .bench_build/ in the
checkout. The last line of standard output is the JSON result; see
medbench/README.md for the metrics. A failed build exits non-zero
without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        # The go command keeps telemetry counters under the user config
        # directory; keep them in the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    binary = os.path.join(BUILD, "medbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("medbench: build failed\n")
        return build.returncode or 1
    sys.stdout.flush()
    run = subprocess.run([binary, "--workdir", BUILD] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
