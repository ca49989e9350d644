"""Pure helpers of the horizon performance ledger.

Everything here is free of I/O on the program under test, so it can be
unit-tested on its own (`python3 -m unittest discover -s perfbench`):
summary statistics, the `repro_output.txt` section splitter, the
seed-driven request order, the metric-name rule and the box fingerprint.
"""

import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess

# Canonical experiment section header of `repro all` stdout.
SECTION_RE = re.compile(r"^==================== (\S+) ====================$", re.M)

# A metric (or workload) name: starts with a letter or digit, then at most
# 63 more letters, digits, `_`, `.` and `-`.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Percentiles a latency summary may report, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

# Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as `statistics.quantiles(values, n=4)` gives them;
    a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def iqr_share(values):
    """Distance between the first and third quartile, as a share of the
    median: the run-to-run spread a bound is compared with."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between the
    closest ranks of the sorted sample (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(values, p):
    """How many samples lie strictly above the p-th percentile."""
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


def highest_supported_percentile(values):
    """The highest percentile of `PERCENTILES` with at least `MIN_TAIL`
    samples beyond it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if beyond(values, p) >= MIN_TAIL:
            best = p
    return best


def split_sections(text):
    """Splits `repro all` stdout into an ordered list of (id, section).

    Each section is the text between its header line and the next header
    (or the end): the experiment's report plus its trailing newline, which
    is exactly what `repro <id>` and `POST /run/<id>?format=text` print.
    """
    headers = list(SECTION_RE.finditer(text))
    if not headers or text[: headers[0].start()].strip():
        raise ValueError("text does not start with a section header")
    sections = []
    for i, header in enumerate(headers):
        end = headers[i + 1].start() if i + 1 < len(headers) else len(text)
        sections.append((header.group(1), text[header.end() + 1 : end]))
    ids = [sid for sid, _ in sections]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate section ids")
    return sections


def read_reference(directory, name):
    """A recorded reference output. `<name>.txt` holds the bytes and
    `<name>.cmd` the command that produced them."""
    if not os.path.exists(os.path.join(directory, f"{name}.cmd")):
        raise ValueError(f"reference {name} has no recorded command")
    with open(os.path.join(directory, f"{name}.txt"), encoding="utf-8") as f:
        return f.read()


def request_order(seed, sweep, ids):
    """The order in which sweep `sweep` of a run seeded with `seed` requests
    `ids`: a shuffle that depends only on (seed, sweep)."""
    order = list(ids)
    random.Random(f"perfbench:{seed}:{sweep}").shuffle(order)
    return order


def check_name(name):
    """Raises ValueError unless `name` is a valid metric name."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def declared_metrics(path):
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from
    BENCHMARK.json, with every name checked."""
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {
        kind: {check_name(m["name"]): m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _command_output(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest(root, parts=("Cargo.toml", "Cargo.lock", "crates", "vendor")):
    """SHA-256 over the relative paths and bytes of the program's sources,
    standing in for the git rev where the tree is not a git checkout."""
    h = hashlib.sha256()
    files = []
    for part in parts:
        path = os.path.join(root, part)
        if os.path.isfile(path):
            files.append(part)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.relpath(os.path.join(dirpath, n), root) for n in filenames)
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def fingerprint(root):
    """The manifest carried by every ledger record: what was built and the
    box it ran on. Absolute times are comparable only between records with
    the same `box` entry."""
    git_rev = None
    if os.path.exists(os.path.join(root, ".git")):
        git_rev = _command_output(["git", "-C", root, "rev-parse", "HEAD"])
    return {
        "git_rev": git_rev,
        "source_sha256": source_digest(root),
        "build_profile": "release",
        "box": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "rustc": _command_output(["rustc", "-V"]),
        },
    }
