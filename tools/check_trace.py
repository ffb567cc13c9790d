#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file emitted by BDDMIN_TRACE.

Checks:
  * the file parses as JSON with a "traceEvents" array
  * every event has ph/pid/tid/ts/name; "X" events also carry dur >= 0
  * spans on one (pid, tid) track are strictly nested — no partial overlap
  * with --min-tracks N: at least N distinct tids carry complete spans
    (proves the per-worker tracks are actually populated)

Exit status 0 on a valid trace, 1 otherwise (message on stderr).
"""
import argparse
import json
import sys


def fail(msg: str) -> int:
    print(f"check_trace: {msg}", file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="path to the trace JSON file")
    parser.add_argument("--min-tracks", type=int, default=1, metavar="N",
                        help="require complete spans on at least N distinct "
                             "tids (default: 1)")
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        return fail(f"cannot read {args.trace}: {e}")
    except json.JSONDecodeError as e:
        return fail(f"{args.trace} is not valid JSON: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail('"traceEvents" missing or not an array')
    if not events:
        return fail("trace contains no events")

    spans_by_track = {}
    thread_names = {}
    instants = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return fail(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            return fail(f"event {i} has unexpected ph {ph!r}")
        for key in ("pid", "tid", "name"):
            if key not in ev:
                return fail(f"event {i} ({ph}) lacks {key!r}")
        track = (ev["pid"], ev["tid"])
        if ph == "M":
            if ev["name"] == "thread_name":
                thread_names[track] = ev.get("args", {}).get("name", "")
            continue
        if "ts" not in ev:
            return fail(f"event {i} ({ph}) lacks 'ts'")
        if ph == "i":
            instants += 1
            continue
        dur = ev.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            return fail(f"complete event {i} has bad dur {dur!r}")
        spans_by_track.setdefault(track, []).append(
            (float(ev["ts"]), float(ev["ts"]) + float(dur), ev["name"]))

    # Strict nesting per track: sweep spans by start time and keep a stack
    # of open end times.  A span that starts inside an open span must also
    # end inside it.
    for track, spans in spans_by_track.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for start, end, name in spans:
            while stack and stack[-1][0] <= start:
                stack.pop()
            if stack and end > stack[-1][0]:
                return fail(f"span {name!r} on tid {track[1]} overlaps "
                            f"{stack[-1][1]!r} without nesting")
            stack.append((end, name))

    if len(spans_by_track) < args.min_tracks:
        named = {t: thread_names.get(t, "?") for t in spans_by_track}
        return fail(f"only {len(spans_by_track)} track(s) carry spans "
                    f"({named}), need {args.min_tracks}")

    print(f"check_trace: OK — {sum(len(s) for s in spans_by_track.values())} "
          f"spans on {len(spans_by_track)} track(s), {instants} instants, "
          f"{len(thread_names)} named threads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
