#!/usr/bin/env python3
"""Compare a bench JSON report against a checked-in baseline.

Usage: check_bench_regression.py CURRENT.json BASELINE.json [--tolerance F]

Guards the state-engine throughput numbers against silent decay: a row
whose states/sec falls more than the tolerance (default 30%) below the
baseline fails the run. Throughput is machine-dependent, so when the two
reports' provenance rows disagree on the CPU model the comparison is
skipped (exit 0 with a notice) — the baseline only binds runs on the
machine that produced it. Agreement rows are re-checked unconditionally:
those are machine-independent and must never regress anywhere.

Coverage is checked first, on every machine: each baseline row recorded
in the current report's mode (its `smoke` value) must be present in the
current report, identified by its kind and descriptor fields (IDENT).
A dropped or renamed bench row fails the run instead of silently
escaping its throughput gate, byte ceiling or agreement check.

Ceiling metrics go the other way: a baseline row carrying
max_bytes_per_state caps the matching current row's bytes_per_state
(visited-store memory footprint per state, RAM + spilled disk bytes;
docs/SPILL.md), and one carrying max_warm_solves caps the warm-started
CEGIS run's SAT solve count (a solve beyond one per verifier call is a
candidate excluded point-wise). Byte and solve counts are
machine-independent, so ceilings are enforced unconditionally — no
provenance guard, no tolerance.

Stdlib only (json/sys); no third-party dependencies.
"""

import json
import sys

# Per-kind (key fields, throughput field). Rows of other kinds carry no
# throughput claim and are skipped.
METRICS = {
    "micro": (("sketch", "test", "engine"), "states_per_sec"),
    # Warm-started solver rows: the metric is a cold/warm ratio, so it is
    # already normalized — but it is still timing-derived, hence kept
    # behind the same provenance guard as the raw throughput rows.
    "sat_incremental": (("sketch", "test"), "ssolve_speedup"),
}

AGREE_FLAGS = ("agrees", "ok")

# Descriptor fields that, with the kind, identify a row across reports.
IDENT = ("sketch", "test", "engine", "shape", "candidate", "workers", "por",
         "symmetry", "workload")

# Per-kind lower-is-better caps: (key fields, baseline ceiling field,
# current measured field). A baseline row without the ceiling field binds
# nothing.
CEILINGS = {
    "spill": (("sketch", "test", "engine"), "max_bytes_per_state",
              "bytes_per_state"),
    "sat_incremental": (("sketch", "test"), "max_warm_solves",
                        "warm_solves"),
}


def provenance(rows):
    for row in rows:
        if row.get("kind") == "provenance":
            return row
    return {}


def ident(row):
    return (row.get("kind"),) + tuple(
        (k, row[k]) for k in IDENT if k in row)


def missing_rows(current, baseline):
    """Baseline rows of the current report's mode absent from it."""
    modes = {row["smoke"] for row in current if "smoke" in row}
    present = {ident(row) for row in current}
    return [
        ident(row)
        for row in baseline
        if row.get("kind") != "provenance"
        and "smoke" in row
        and row["smoke"] in modes
        and ident(row) not in present
    ]


def index(rows):
    out = {}
    for row in rows:
        spec = METRICS.get(row.get("kind"))
        if spec is None:
            continue
        keys, metric = spec
        ident = (row["kind"],) + tuple(row.get(k) for k in keys)
        if metric in row:
            out[ident] = row[metric]
    return out


def index_field(rows, field):
    """Indexes rows of CEILINGS kinds by their key fields on `field`
    ("ceiling" for the baseline side, "measured" for the current side)."""
    out = {}
    for row in rows:
        spec = CEILINGS.get(row.get("kind"))
        if spec is None:
            continue
        keys, ceiling, measured = spec
        metric = ceiling if field == "ceiling" else measured
        ident = (row["kind"],) + tuple(row.get(k) for k in keys)
        if metric in row:
            out[ident] = row[metric]
    return out


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    tol = 0.30
    for a in argv[1:]:
        if a.startswith("--tolerance"):
            tol = float(a.split("=", 1)[1] if "=" in a else args.pop())
    if len(args) != 2:
        print(__doc__)
        return 2
    with open(args[0]) as f:
        current = json.load(f)
    with open(args[1]) as f:
        baseline = json.load(f)

    failures = []
    # Coverage: machine-independent, so enforced before (and regardless
    # of) the provenance check.
    for row_id in missing_rows(current, baseline):
        failures.append("baseline row missing from current report: %s"
                        % (row_id,))

    for row in current:
        for flag in AGREE_FLAGS:
            if row.get("kind", "").endswith("agreement") and row.get(flag) is False:
                failures.append("disagreement row: %s" % json.dumps(row))

    # Byte and solve-count ceilings: machine-independent, enforced before
    # (and regardless of) the provenance check.
    caps = index_field(baseline, "ceiling")
    measured = index_field(current, "measured")
    capped = 0
    for ident, limit in sorted(caps.items()):
        got = measured.get(ident)
        if got is None:
            print("check_bench_regression: %s missing from current report"
                  % (ident,))
            continue
        capped += 1
        if got > limit:
            failures.append(
                "%s: %s %.1f exceeds the %.1f ceiling"
                % (ident, CEILINGS[ident[0]][2], got, limit)
            )
    if caps:
        print("check_bench_regression: %d ceiling rows checked" % capped)

    cur_prov, base_prov = provenance(current), provenance(baseline)
    if cur_prov.get("cpu_model") != base_prov.get("cpu_model"):
        print(
            "check_bench_regression: provenance differs "
            "(cpu %r vs %r) -- throughput comparison skipped"
            % (cur_prov.get("cpu_model"), base_prov.get("cpu_model"))
        )
    else:
        cur, base = index(current), index(baseline)
        compared = 0
        for ident, expected in sorted(base.items()):
            got = cur.get(ident)
            if got is None:
                print("check_bench_regression: %s missing from current report"
                      % (ident,))
                continue
            compared += 1
            if got < expected * (1.0 - tol):
                failures.append(
                    "%s: %.0f states/s vs baseline %.0f (-%.0f%%, tolerance %.0f%%)"
                    % (ident, got, expected, 100 * (1 - got / expected), 100 * tol)
                )
        print("check_bench_regression: %d rows compared, %d regressions"
              % (compared, len(failures)))

    for f in failures:
        print("FAIL: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
