#!/usr/bin/env python3
"""Check that `cargo clippy-lib` rejects every retired-rule fixture.

Usage, from anywhere:

    python3 clippy-fixtures/check.py

Runs the `clippy-lib` alias from the repository's .cargo/config.toml on
this fixture workspace, with JSON diagnostics, its own options appended
to the alias as a user's would be. Every fixture line that must be
flagged ends in `//~` followed by the lint names it expects.
Exits 0 when the diagnostics are exactly those (every marker fires and
nothing else does), 1 otherwise, listing the difference.
"""

import json
import os
import re
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, ".."))
MARKER = re.compile(r"//~ (.*)$")


def expected():
    """(file, line, lint) for every `//~` marker under this directory."""
    out = set()
    for d, _, files in os.walk(HERE):
        if "target" in os.path.relpath(d, HERE).split(os.sep):
            continue
        for f in files:
            if not f.endswith(".rs"):
                continue
            path = os.path.join(d, f)
            rel = os.path.relpath(path, HERE)
            with open(path) as src:
                for n, line in enumerate(src, 1):
                    m = MARKER.search(line)
                    if m:
                        out.update((rel, n, lint) for lint in m.group(1).split())
    return out


def fired():
    """(file, line, lint) for every diagnostic `cargo clippy-lib` emits."""
    with open(os.path.join(ROOT, ".cargo", "config.toml"), "rb") as f:
        alias = tomllib.load(f)["alias"]["clippy-lib"]
    cmd = (
        ["cargo"]
        + alias
        + [
            "--keep-going",  # one failing package must not stop the other
            "--message-format=json",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
            "--target-dir",
            os.path.join(ROOT, "target", "clippy-fixtures"),
        ]
    )
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    out = set()
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") != "compiler-message":
            continue
        diag = msg["message"]
        if not diag.get("code"):
            continue  # "aborting due to N previous errors" and the like
        span = next(s for s in diag["spans"] if s["is_primary"])
        rel = os.path.relpath(os.path.join(HERE, span["file_name"]), HERE)
        out.add((rel, span["line_start"], diag["code"]["code"]))
    if proc.returncode == 0:
        out.add(("<cargo>", 0, "clippy-lib passed"))
    return out


def main():
    want, got = expected(), fired()
    missing, unexpected = sorted(want - got), sorted(got - want)
    for f, n, lint in missing:
        print(f"missing: {f}:{n}: {lint} did not fire", file=sys.stderr)
    for f, n, lint in unexpected:
        print(f"unexpected: {f}:{n}: {lint}", file=sys.stderr)
    if missing or unexpected:
        sys.exit(1)
    print(f"clippy-fixtures: all {len(want)} expected diagnostics fired, no others")


if __name__ == "__main__":
    main()
