#!/usr/bin/env python3
"""Fails when a committed benchmark regresses against its previous version.

Usage: check_bench_trend.py BASELINE.json CURRENT.json [--max-regression=0.15]
         [--max-mt-regression=0.50] [--summary[=PATH]]

Both files are bench_util/json_report.h reports: {"bench": ..., "host": ...,
"rows": [...]}.
Rows are matched by their identity fields (everything except measured
metrics); a matched row whose keys/s falls more than --max-regression below
the baseline fails the check. Rows that appear or disappear are reported but
never fail — benches grow new workloads and retire old ones as the catalog
evolves. Rows without a throughput metric (e.g. fpr rows) are ignored.

Reports carry a "host" stamp ({"cpu": ..., "hw_concurrency": N}) since
v0.6. When the stamps disagree, or only one file has one, the comparison is
refused (exit 0 with a note): numbers from a different machine are weather,
not a trend, and an unstamped (pre-0.6) baseline cannot show it came from
this host. Two unstamped files still compare. Older stamps also carry a
"dispatch" key (the vector tier the probe kernels ran at); it always
repeated the tier already in "cpu" and the kernels are gone, so it is
dropped from both stamps before they are compared.

Rows with threads > 1 use the wider --max-mt-regression bound: oversubscribed
wall clock on a shared runner is scheduler luck as much as code (the same
binary swings 30% run to run), so the tight single-thread envelope would
flag weather. The wide bound still catches collapses.

--summary appends a markdown delta table to PATH (default: the file named by
$GITHUB_STEP_SUMMARY; stdout when unset), so the deltas land on the CI run's
summary page without log spelunking.

Exit codes: 0 ok, 1 regression, 2 usage/parse error.
"""

import json
import os
import sys

# Measured outputs (never part of a row's identity). Throughput is the gated
# metric; latency percentiles and wall seconds are too noisy on shared
# runners to gate.
METRIC_FIELDS = {
    "keys_per_s",
    "keys_per_sec",
    "p50_us",
    "p99_us",
    "p999_us",
    "seconds",
    "fpr",
}
THROUGHPUT_FIELDS = ("keys_per_s", "keys_per_sec")


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    rows = report.get("rows")
    if not isinstance(rows, list):
        print(f"error: {path}: no 'rows' array", file=sys.stderr)
        sys.exit(2)
    keyed = {}
    for row in rows:
        throughput = next(
            (row[f] for f in THROUGHPUT_FIELDS if f in row), None
        )
        if throughput is None:
            continue
        key = tuple(
            sorted(
                (k, v) for k, v in row.items() if k not in METRIC_FIELDS
            )
        )
        # Duplicate identities keep the best run; reruns in one report are
        # warm-up artifacts.
        if key not in keyed or throughput > keyed[key]:
            keyed[key] = throughput
    host = report.get("host")
    if not isinstance(host, dict):
        return keyed, None
    # The retired "dispatch" key must not make an old stamp differ from a
    # new one measured on the same host.
    return keyed, {k: v for k, v in host.items() if k != "dispatch"}


def describe(key):
    return " ".join(f"{k}={v}" for k, v in key)


def bound_for(key, max_regression, max_mt_regression):
    try:
        threads = int(dict(key).get("threads", 1))
    except (TypeError, ValueError):
        threads = 1
    return max_mt_regression if threads > 1 else max_regression


def write_summary(path, lines):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv):
    max_regression = 0.15
    max_mt_regression = 0.50
    summary = False
    summary_path = None
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--max-regression="):
            max_regression = float(arg.split("=", 1)[1])
        elif arg.startswith("--max-mt-regression="):
            max_mt_regression = float(arg.split("=", 1)[1])
        elif arg == "--summary":
            summary = True
            summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
        elif arg.startswith("--summary="):
            summary = True
            summary_path = arg.split("=", 1)[1]
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline, base_host = load_report(paths[0])
    current, cur_host = load_report(paths[1])

    # Cross-host guard: a baseline measured on different hardware, or one
    # without a stamp to tell, cannot gate this run. Refusing is not a
    # failure — the next commit of the report re-baselines on this host.
    if base_host != cur_host:
        print(
            f"note: refusing comparison, host stamps differ\n"
            f"  baseline: {json.dumps(base_host, sort_keys=True)}\n"
            f"  current:  {json.dumps(cur_host, sort_keys=True)}"
        )
        if summary:
            write_summary(
                summary_path,
                [
                    f"### {os.path.basename(paths[1])}",
                    "",
                    "comparison skipped: baseline was measured on a "
                    "different host.",
                    "",
                ],
            )
        return 0

    failures = 0
    table = []
    for key, base_tput in sorted(baseline.items()):
        if key not in current:
            print(f"note: row retired: {describe(key)}")
            continue
        cur_tput = current[key]
        if base_tput <= 0:
            continue
        bound = bound_for(key, max_regression, max_mt_regression)
        change = cur_tput / base_tput - 1.0
        status = "ok"
        if change < -bound:
            status = "REGRESSION"
            failures += 1
        print(
            f"{status}: {describe(key)}: "
            f"{base_tput:.3g} -> {cur_tput:.3g} keys/s ({change:+.1%})"
        )
        table.append((status, describe(key), base_tput, cur_tput, change))
    for key in sorted(set(current) - set(baseline)):
        print(f"note: new row: {describe(key)}")
        table.append(("new", describe(key), None, current[key], None))

    if summary:
        lines = [
            f"### {os.path.basename(paths[1])}",
            "",
            "| status | workload | baseline keys/s | current keys/s | Δ |",
            "|---|---|---|---|---|",
        ]
        for status, name, base_tput, cur_tput, change in table:
            base_text = f"{base_tput:.3g}" if base_tput is not None else "—"
            delta_text = f"{change:+.1%}" if change is not None else "—"
            marker = "❌ " if status == "REGRESSION" else ""
            lines.append(
                f"| {marker}{status} | {name} | {base_text} "
                f"| {cur_tput:.3g} | {delta_text} |"
            )
        lines.append("")
        write_summary(summary_path, lines)

    if failures:
        print(
            f"FAILED: {failures} row(s) regressed beyond the allowed "
            f"bound ({max_regression:.0%} single-thread, "
            f"{max_mt_regression:.0%} multi-thread) vs {paths[0]}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
