#!/usr/bin/env python3
"""Convert a qsimec run journal (--journal FILE, JSONL) to folded-stack format.

Folded stacks are the input of Brendan Gregg's flamegraph.pl and of the
"sandwich" view in speedscope (https://www.speedscope.app): one line per
stack, frames separated by ';', followed by a count. We use integer
microseconds as the count, so frame widths are proportional to wall time.

Frames emitted:

    flow;<stage>                    stage self-time (interval between two
                                    flow.stage markers, minus the wall-clock
                                    time its children cover)
    flow;<stage>;dd.gc              wall-clock time covered by DD garbage-
                                    collection pauses inside the stage (the
                                    journal's dd.gc events carry the
                                    measured pause_seconds; pauses that
                                    portfolio workers take concurrently
                                    count once)
    flow;simulation;sim.stimulus    stimulus-run time: deltas between
                                    consecutive sim.stimulus completions,
                                    minus the GC time inside them
    attr;<checker>;<side>:g<N>      per-gate cost attribution (attr.hotspot
                                    events), weighted by the measured
                                    per-gate wall nanos
    attr;<checker>;other            the checker's attributed wall time not
                                    covered by its top-K hotspot gates

The attr;* frames form a second root: they re-slice the same wall time as
the flow;* stages by gate instead of by stage, so the two trees overlap and
their grand totals do not add up — read them as two views, not as siblings.

Stage attribution is approximate by design: the journal records completion
events, not begin/end pairs, so a stimulus delta includes whatever else the
worker did in that window. For single-threaded runs (--threads 1) the
approximation is exact up to journal-write overhead; for portfolio runs the
stimulus deltas interleave the workers' runs, so only the stage totals are
meaningful. Every flow;* frame is wall-clock time, so a stage's frames add
up to its wall span at any thread count.

Usage:
    tools/journal2folded.py run.jsonl > run.folded
    tools/journal2folded.py run.jsonl -o run.folded
    tools/journal2folded.py run.jsonl --format speedscope -o run.speedscope.json

Malformed lines are skipped (the journal may have a half-written tail if
the run was killed); a journal with no flow.stage events yields no output
and exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict


def read_events(path: str) -> list[dict]:
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # half-written tail of a killed run
            if isinstance(event, dict) and "ts_micros" in event:
                events.append(event)
    events.sort(key=lambda e: e["ts_micros"])
    return events


def merge_intervals(intervals: list[tuple[float, float]]) -> list[list[float]]:
    """Union of (begin, end) intervals as a sorted list of disjoint ones."""
    merged: list[list[float]] = []
    for begin, end in sorted(intervals):
        if merged and begin <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([begin, end])
    return merged


def covered(merged: list[list[float]], lo: float, hi: float) -> float:
    """Wall-clock microseconds of [lo, hi] that the merged intervals cover."""
    return sum(max(0.0, min(end, hi) - max(begin, lo)) for begin, end in merged)


def fold(events: list[dict]) -> dict[str, float]:
    """Aggregate events into {stack: microseconds}."""
    # Stage intervals: each flow.stage marker opens a stage that the next
    # marker (or the flow.verdict / last event) closes.
    markers = [e for e in events if e.get("event") == "flow.stage"]
    if not markers:
        return {}
    end_ts = markers[-1]["ts_micros"]
    for event in events:
        if event.get("event") == "flow.verdict":
            end_ts = max(end_ts, event["ts_micros"])
    if events:
        end_ts = max(end_ts, events[-1]["ts_micros"])

    intervals = []  # (stage, begin, end)
    for i, marker in enumerate(markers):
        begin = marker["ts_micros"]
        end = markers[i + 1]["ts_micros"] if i + 1 < len(markers) else end_ts
        intervals.append((str(marker.get("stage", "?")), begin, end))

    # GC pauses: a dd.gc event is journaled as its pause ends, so it covers
    # [ts - pause, ts]. Portfolio workers pause concurrently; the union
    # counts every wall-clock microsecond once.
    gc = merge_intervals([
        (e["ts_micros"] - float(e.get("pause_seconds", 0.0)) * 1e6,
         e["ts_micros"]) for e in events if e.get("event") == "dd.gc"])
    stimulus_ts = [e["ts_micros"] for e in events
                   if e.get("event") in ("sim.stimulus",
                                         "sim.stimulus.cancelled")]

    folded: dict[str, float] = defaultdict(float)
    for stage, begin, end in intervals:
        folded[f"flow;{stage};dd.gc"] += covered(gc, begin, end)
        # Stimulus runs: windows between consecutive completions inside the
        # simulation stage, minus the GC time inside them (already its own
        # frame).
        windows = []
        if stage == "simulation":
            prev = begin
            for ts in stimulus_ts:
                if begin <= ts <= end:
                    windows.append((prev, ts))
                    prev = ts
        for prev, ts in windows:
            folded["flow;simulation;sim.stimulus"] += (
                (ts - prev) - covered(gc, prev, ts))
        # self time: the stage's wall span minus the wall-clock time its
        # children cover
        children = merge_intervals([(b, e) for b, e in gc] + windows)
        folded[f"flow;{stage}"] += max(
            0.0, (end - begin) - covered(children, begin, end))

    fold_attribution(events, folded)
    return folded


def fold_attribution(events: list[dict], folded: dict[str, float]) -> None:
    """Second tree: attr.* events re-sliced into per-gate frames."""
    hotspot_by_checker: dict[str, float] = defaultdict(float)
    for event in events:
        if event.get("event") != "attr.hotspot":
            continue
        checker = str(event.get("checker", "?"))
        side = str(event.get("side", "?"))
        gate = event.get("gate", "?")
        micros = float(event.get("wall_nanos", 0)) / 1e3
        if micros > 0:
            folded[f"attr;{checker};{side}:g{gate}"] += micros
            hotspot_by_checker[checker] += micros
    total_by_checker: dict[str, float] = defaultdict(float)
    for event in events:
        if event.get("event") != "attr.summary":
            continue
        checker = str(event.get("checker", "?"))
        total_by_checker[checker] += float(event.get("wall_nanos", 0)) / 1e3
    for checker, total in total_by_checker.items():
        other = total - hotspot_by_checker.get(checker, 0.0)
        if other > 0:
            folded[f"attr;{checker};other"] += other


def to_speedscope(folded: dict[str, float], name: str) -> dict:
    """Folded stacks as a speedscope 'sampled' profile (one sample per
    stack, weight = integer microseconds)."""
    frames: list[str] = []
    frame_index: dict[str, int] = {}
    samples: list[list[int]] = []
    weights: list[int] = []
    for stack in sorted(folded):
        micros = int(round(folded[stack]))
        if micros <= 0:
            continue
        sample = []
        for frame in stack.split(";"):
            if frame not in frame_index:
                frame_index[frame] = len(frames)
                frames.append(frame)
            sample.append(frame_index[frame])
        samples.append(sample)
        weights.append(micros)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": [{"name": f} for f in frames]},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "microseconds",
            "startValue": 0,
            "endValue": sum(weights),
            "samples": samples,
            "weights": weights,
        }],
        "name": name,
        "exporter": "qsimec journal2folded",
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description="qsimec journal (JSONL) -> folded stacks")
    parser.add_argument("journal", help="journal file written by --journal")
    parser.add_argument("-o", "--output", default=None,
                        help="output file (default: stdout)")
    parser.add_argument("--format", choices=("folded", "speedscope"),
                        default="folded",
                        help="folded stacks (flamegraph.pl) or a speedscope"
                             " JSON profile (default: folded)")
    args = parser.parse_args()

    try:
        events = read_events(args.journal)
    except OSError as error:
        print(f"cannot read {args.journal}: {error}", file=sys.stderr)
        return 2

    folded = fold(events)
    if not folded:
        print("no flow.stage events in journal; nothing to fold",
              file=sys.stderr)
        return 1

    out = open(args.output, "w", encoding="utf-8") if args.output \
        else sys.stdout
    try:
        if args.format == "speedscope":
            json.dump(to_speedscope(folded, args.journal), out, indent=1)
            print(file=out)
        else:
            for stack in sorted(folded):
                micros = int(round(folded[stack]))
                if micros > 0:
                    print(f"{stack} {micros}", file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # downstream consumer (head, grep -m) closed the pipe early
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
