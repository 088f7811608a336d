#!/usr/bin/env python3
"""Paired A/B runner: alternating runs of one benchmark command on two revisions.

    tools/ab.py BASE [CHANGE] [--pairs N] [--claim METRIC] [--workdir DIR] -- <command>
    tools/ab.py --selftest

Each revision (CHANGE defaults to HEAD) is exported with `git archive` into
its own directory under --workdir, so the worktree and the index stay as
they are; an export made by an earlier call is reused, builds included.
The command runs from the root of each export, N pairs of runs, and the
side that goes first swaps every pair. The last line of each run's stdout
must be one JSON object with "correct", "attempted", "failed" and
"metrics" ({name: {"value": ...}}), as `perfbench/run.py` prints; each
run's stderr, then its stdout, goes to a log file in --workdir/logs.

Every run is printed, then per metric each side's median and quartiles and
the pairs CHANGE won (ties count for neither side). The verdict follows
BENCHMARK.json:
  * --claim METRIC holds if CHANGE won at least 9 of every 10 pairs and its
    median beats BASE's by more than BASE's interquartile range;
  * every other end-to-end metric regresses if its median got worse by more
    than its `bound`, and is unresolved if BASE's interquartile range is
    wider than the bound (relative to BASE's median), unless every CHANGE
    run is better than every BASE run;
  * a run with "correct": false, or a larger failed share on CHANGE, fails.
The exit code is 0 only if nothing above failed, regressed or was left
unresolved.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(q1, median, q3), interpolating between the closest ranks."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0], ordered[0], ordered[0]
    q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return q1, median, q3


def last_json_line(stdout):
    """The run's result: the last non-empty stdout line, parsed as JSON."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise ValueError("the last stdout line has no \"metrics\" object")
    return result


def metric_values(result):
    values = {}
    for name, metric in result["metrics"].items():
        value = metric.get("value") if isinstance(metric, dict) else metric
        if isinstance(value, (int, float)) and math.isfinite(value):
            values[name] = float(value)
    return values


def better(direction, change, base):
    """+1 if CHANGE is better, -1 if worse, 0 for a tie or no direction."""
    if change == base or direction not in ("lower", "higher"):
        return 0
    return 1 if (change < base) == (direction == "lower") else -1


def judge(pairs, benchmark, claim=None):
    """Judges alternating pairs of results, {"base": r, "change": r} each.

    Returns (summary rows, verdict lines, ok). A summary row is a dict per
    metric present on both sides of every pair.
    """
    directions = {m["name"]: m.get("better")
                  for m in benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])}
    bounds = {m["name"]: m["bound"] for m in benchmark.get("end_to_end", [])}
    verdicts = []
    ok = True

    for side in ("base", "change"):
        wrong = [i + 1 for i, pair in enumerate(pairs) if pair[side].get("correct") is not True]
        if wrong:
            verdicts.append("FAIL: %s reported correct: false in pair(s) %s" % (
                side.upper(), ", ".join(map(str, wrong))))
            ok = False
    shares = {}
    for side in ("base", "change"):
        attempted = sum(pair[side].get("attempted", 0) for pair in pairs)
        failed = sum(pair[side].get("failed", 0) for pair in pairs)
        shares[side] = failed / attempted if attempted else 0.0
    if shares["change"] > shares["base"]:
        verdicts.append("FAIL: failed share rose from %.3g to %.3g" % (
            shares["base"], shares["change"]))
        ok = False

    values = [{side: metric_values(pair[side]) for side in ("base", "change")} for pair in pairs]
    names = [name for name in values[0]["base"]
             if all(name in v["base"] and name in v["change"] for v in values)]
    rows = []
    for name in names:
        base = [v["base"][name] for v in values]
        change = [v["change"][name] for v in values]
        direction = directions.get(name)
        outcomes = [better(direction, c, b) for b, c in zip(base, change)]
        rows.append({
            "name": name,
            "direction": direction,
            "base": quartiles(base),
            "change": quartiles(change),
            "all_better": all(better(direction, c, b) > 0 for b in base for c in change),
            "won": sum(1 for o in outcomes if o > 0),
            "lost": sum(1 for o in outcomes if o < 0),
            "pairs": len(pairs),
        })
    by_name = {row["name"]: row for row in rows}

    if claim is not None:
        row = by_name.get(claim)
        if row is None or row["direction"] not in ("lower", "higher"):
            verdicts.append("FAIL: claim %s: no such metric with a direction in every run" % claim)
            ok = False
        else:
            q1, base_median, q3 = row["base"]
            gap = better(row["direction"], row["change"][1], base_median) * abs(
                row["change"][1] - base_median)
            wins_ok = 10 * row["won"] >= 9 * row["pairs"]
            gap_ok = gap > q3 - q1
            holds = wins_ok and gap_ok
            verdicts.append("%s: claim %s: CHANGE won %d of %d pairs (needs 9 of 10); "
                            "median gap %.4g against BASE's interquartile range %.4g" % (
                                "PASS" if holds else "FAIL", claim, row["won"], row["pairs"],
                                gap, q3 - q1))
            ok = ok and holds

    for name, bound in bounds.items():
        if name == claim or name not in by_name:
            continue
        row = by_name[name]
        q1, base_median, q3 = row["base"]
        change_median = row["change"][1]
        if base_median == 0:
            worse = better(row["direction"], change_median, base_median) < 0
            spread = 0.0 if q3 == q1 else math.inf
        else:
            worse_by = -better(row["direction"], change_median, base_median) * abs(
                change_median - base_median) / abs(base_median)
            worse = worse_by > bound
            spread = (q3 - q1) / abs(base_median)
        if spread > bound and row["all_better"]:
            verdicts.append("ok: %s: every CHANGE run is better than every BASE run" % name)
        elif spread > bound:
            verdicts.append("UNRESOLVED: %s: BASE's interquartile range is %.1f%% of its "
                            "median, wider than the %.0f%% bound" % (name, 100 * spread,
                                                                     100 * bound))
            ok = False
        elif worse:
            verdicts.append("FAIL: %s: median %.4g -> %.4g, worse by more than the "
                            "%.0f%% bound" % (name, base_median, change_median, 100 * bound))
            ok = False
        else:
            verdicts.append("ok: %s: median %.4g -> %.4g, within the %.0f%% bound" % (
                name, base_median, change_median, 100 * bound))
    return rows, verdicts, ok


def format_summary(rows):
    lines = ["%-36s %-34s %-34s %8s %s" % ("metric", "BASE median (q1-q3)",
                                            "CHANGE median (q1-q3)", "change", "CHANGE won")]
    for row in rows:
        q1, median, q3 = row["base"]
        c1, change, c3 = row["change"]
        delta = "%+.1f%%" % (100 * (change - median) / abs(median)) if median else "-"
        won = "-"
        if row["direction"]:
            tied = row["pairs"] - row["won"] - row["lost"]
            won = "%d/%d%s" % (row["won"], row["pairs"], " (%d tied)" % tied if tied else "")
        lines.append("%-36s %-34s %-34s %8s %s" % (
            row["name"], "%.4g (%.4g-%.4g)" % (median, q1, q3),
            "%.4g (%.4g-%.4g)" % (change, c1, c3), delta, won))
    return "\n".join(lines)


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(revision, workdir):
    """The directory holding `revision`'s tree, exported once."""
    sha = git("rev-parse", "--verify", revision + "^{commit}")
    target = os.path.join(workdir, sha)
    if not os.path.isdir(target):
        staging = tempfile.mkdtemp(prefix=sha + ".", dir=workdir)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", staging], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise RuntimeError("git archive %s failed" % sha)
        os.rename(staging, target)
    return sha, target


def run_once(command, cwd, log_path):
    with open(log_path, "w") as log:
        proc = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, stderr=log, text=True)
        log.write(proc.stdout)
    try:
        result = last_json_line(proc.stdout)
    except ValueError as error:  # json.JSONDecodeError is a ValueError
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": "exit %d, %s (see %s)" % (proc.returncode, error, log_path)}
    return result


def format_run(pair, side, first, result):
    values = metric_values(result)
    shown = " ".join("%s=%.6g" % (name, value) for name, value in values.items()
                     if not name.startswith("window"))
    return "pair %d %-6s%s correct=%s failed=%s/%s %s%s" % (
        pair, side, " (first)" if first else "        ",
        json.dumps(result.get("correct")), result.get("failed"), result.get("attempted"),
        shown, "  error: " + result["error"] if "error" in result else "")


def selftest():
    benchmark = {
        "end_to_end": [
            {"name": "cpu_ns_per_key", "better": "lower", "bound": 0.25},
            {"name": "fpr", "better": "lower", "bound": 0.15},
        ],
        "per_layer": [{"name": "server.handle_us.read.p50", "better": "lower"}],
    }

    def run(cpu, fpr=1e-4, correct=True, failed=0, layer=None):
        metrics = {"cpu_ns_per_key": {"value": cpu}, "fpr": {"value": fpr}}
        if layer is not None:
            metrics["server.handle_us.read.p50"] = {"value": layer}
        return {"correct": correct, "attempted": 1000, "failed": failed, "metrics": metrics}

    def pairs(base, change, **kwargs):
        return [{"base": run(b, **kwargs), "change": run(c, **kwargs)}
                for b, c in zip(base, change)]

    base = [330, 340, 335, 345, 338, 342, 332, 348, 336, 341]
    faster = [268, 270, 265, 275, 262, 280, 266, 272, 269, 271]
    checks = []

    rows, verdicts, ok = judge(pairs(base, faster), benchmark, "cpu_ns_per_key")
    checks.append(("a clear win holds", ok and rows[0]["won"] == 10))

    eight = faster[:8] + [350, 360]
    _, _, ok = judge(pairs(base, eight), benchmark, "cpu_ns_per_key")
    checks.append(("8 of 10 pairs won fails the claim", not ok))

    nine = faster[:9] + [341]  # the tie counts for neither side
    rows, _, ok = judge(pairs(base, nine), benchmark, "cpu_ns_per_key")
    checks.append(("9 wins and a tie hold", ok and rows[0]["won"] == 9 and rows[0]["lost"] == 0))

    small = [b - 3 for b in base]  # wins every pair, gap under the IQR
    _, verdicts, ok = judge(pairs(base, small), benchmark, "cpu_ns_per_key")
    checks.append(("a gap inside BASE's IQR fails", not ok and any(
        v.startswith("FAIL: claim cpu_ns_per_key") for v in verdicts)))

    slower = [b * 1.3 for b in base]
    _, verdicts, ok = judge(pairs(base, slower), benchmark)
    checks.append(("a 30% regression fails", not ok and any(
        v.startswith("FAIL: cpu_ns_per_key") for v in verdicts)))

    level = [b * 1.1 for b in base]
    _, verdicts, ok = judge(pairs(base, level), benchmark)
    checks.append(("a 10% drift is within the bound", ok))

    noisy = [100, 300, 120, 280, 110, 290]
    _, verdicts, ok = judge(pairs(noisy, noisy), benchmark)
    checks.append(("a spread wider than the bound is unresolved", not ok and any(
        v.startswith("UNRESOLVED: cpu_ns_per_key") for v in verdicts)))

    _, verdicts, ok = judge(pairs(noisy, [n / 10 for n in noisy]), benchmark)
    checks.append(("a noisy BASE beaten by every run is resolved", ok))

    bad = pairs(base, faster)
    bad[3]["change"]["correct"] = False
    _, _, ok = judge(bad, benchmark, "cpu_ns_per_key")
    checks.append(("correct: false fails", not ok))

    more_failed = pairs(base, faster)
    more_failed[0]["change"]["failed"] = 1
    _, _, ok = judge(more_failed, benchmark, "cpu_ns_per_key")
    checks.append(("a larger failed share fails", not ok))

    layered = [{"base": run(b, layer=370), "change": run(c, layer=220)}
               for b, c in zip(base, faster)]
    rows, _, ok = judge(layered, benchmark, "server.handle_us.read.p50")
    checks.append(("a per-layer metric can be claimed", ok and rows[-1]["won"] == 10))

    higher_fpr = pairs(base, base, fpr=1e-4)
    for pair in higher_fpr:
        pair["change"]["metrics"]["fpr"]["value"] = 1.2e-4
    _, _, ok = judge(higher_fpr, benchmark)
    checks.append(("fpr up 20% against a 15% bound fails", not ok))

    parsed = last_json_line('-- build noise\n{"x": 1}\n{"correct": true, "metrics": '
                            '{"fpr": {"value": 0.5, "unit": "ratio"}}}\n\n')
    checks.append(("the last stdout line is the result", metric_values(parsed) == {"fpr": 0.5}))
    try:
        last_json_line("no json here\n")
        checks.append(("a run without JSON is an error", False))
    except ValueError:
        checks.append(("a run without JSON is an error", True))

    checks.append(("quartiles interpolate", quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)))

    failed = [name for name, passed in checks if not passed]
    for name, passed in checks:
        print("%s  %s" % ("ok  " if passed else "FAIL", name))
    print("ab selftest %s" % ("FAILED" if failed else "OK"))
    return 1 if failed else 0


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    if "--" not in argv:
        print("usage: tools/ab.py BASE [CHANGE] [--pairs N] [--claim METRIC] "
              "[--workdir DIR] -- <command>", file=sys.stderr)
        return 2
    split = argv.index("--")
    command = argv[split + 1:]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim")
    parser.add_argument("--workdir", default=os.path.join(tempfile.gettempdir(), "shbf-ab"))
    args = parser.parse_args(argv[:split])
    if not command or args.pairs < 1:
        parser.error("a command after -- and --pairs >= 1 are required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    os.makedirs(args.workdir, exist_ok=True)
    sides = {}
    for side, revision in (("base", args.base), ("change", args.change)):
        sha, directory = export(revision, args.workdir)
        sides[side] = directory
        print("%-6s %s  %s" % (side.upper(), sha[:12], directory))
    print("command: %s" % " ".join(command))
    sys.stdout.flush()
    logs = os.path.join(args.workdir, "logs")
    os.makedirs(logs, exist_ok=True)
    stamp = "%d" % os.getpid()
    pairs = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {}
        for position, side in enumerate(order):
            log = os.path.join(logs, "%s-pair%d-%s.log" % (stamp, i + 1, side))
            pair[side] = run_once(command, sides[side], log)
            print(format_run(i + 1, side, position == 0, pair[side]))
            sys.stdout.flush()
        pairs.append(pair)
    rows, verdicts, ok = judge(pairs, benchmark, args.claim)
    print()
    print(format_summary(rows))
    print()
    for verdict in verdicts:
        print(verdict)
    print("verdict: %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
